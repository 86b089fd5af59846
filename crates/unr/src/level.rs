//! UNR support levels and custom-bits encodings (paper Table I).
//!
//! The width of the PUT custom bits *at the remote side* classifies a
//! NIC into level 0–4; each level has an implementation specification
//! for how the pointer `p` (signal key) and addend `a` are packed into
//! the available bits:
//!
//! | level | remote PUT bits | encoding |
//! |-------|-----------------|----------|
//! | 0     | 0               | `(p, a)` in an order-preserving companion message |
//! | 1     | 8 / 16          | all bits store `p`; `a = -1` implied |
//! | 2     | 32              | mode 1: 32-bit `p`, `a = -1`; mode 2: `x` bits `p`, `32-x` bits `a` |
//! | 3     | 64 / 128        | half `p`, half `a` |
//! | 4     | 128             | 64-bit `p`, 64-bit `a`; the NIC applies `*p += a` itself |

use unr_simnet::InterfaceSpec;

/// The five support levels of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SupportLevel {
    /// Companion-message transport; correctness verification only.
    Level0,
    /// 8/16-bit keys, implied `a = -1`; limited signal count, no
    /// multi-channel.
    Level1,
    /// 32-bit custom bits; mode 1 (key only) or mode 2 (key + addend).
    Level2,
    /// ≥64-bit custom bits; full MMAS support.
    Level3,
    /// Level 3 plus hardware atomic add: no polling thread.
    Level4,
}

impl SupportLevel {
    /// Classify an interface per Table I/II.
    pub fn classify(spec: &InterfaceSpec) -> SupportLevel {
        if spec.hardware_atomic_add {
            return SupportLevel::Level4;
        }
        match spec.custom_bits.put_remote {
            0 => SupportLevel::Level0,
            1..=16 => SupportLevel::Level1,
            17..=32 => SupportLevel::Level2,
            _ => SupportLevel::Level3,
        }
    }

    /// Does this level support multi-NIC aggregation (MMAS striping)?
    /// Level 2 supports it only in mode 2 (checked separately).
    pub fn multi_channel_capable(&self) -> bool {
        matches!(self, SupportLevel::Level3 | SupportLevel::Level4)
    }

    /// The numeric level, 0–4 (used in metric names like
    /// `unr.level.3.msgs`).
    pub fn as_index(&self) -> u8 {
        match self {
            SupportLevel::Level0 => 0,
            SupportLevel::Level1 => 1,
            SupportLevel::Level2 => 2,
            SupportLevel::Level3 => 3,
            SupportLevel::Level4 => 4,
        }
    }

    /// Paper Table I "suggestion for users" text.
    pub fn suggestion(&self) -> &'static str {
        match self {
            SupportLevel::Level0 => {
                "For correctness verification only, no guarantee of performance."
            }
            SupportLevel::Level1 => {
                "The maximum number of signals is limited. Performance may degrade \
                 if the limit is exceeded. Multi-channel is not supported."
            }
            SupportLevel::Level2 => {
                "Mode1: multi-channel is not supported. Mode2: multi-channel can be \
                 enabled with a limited number of signals and events."
            }
            SupportLevel::Level3 => {
                "Multi-channel Multi-message Aggregated Signal is completely \
                 supported in this level."
            }
            SupportLevel::Level4 => {
                "No need to worry about performance degradation caused by polling \
                 threads."
            }
        }
    }
}

/// Encoding errors: the requested notification does not fit the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The signal key exceeds the custom bits available for it.
    KeyTooLarge {
        /// The offending key.
        key: u64,
        /// Key bits available on the wire.
        bits: u16,
    },
    /// The addend does not fit its two's-complement field.
    AddendOutOfRange {
        /// The offending addend.
        addend: i64,
        /// Addend bits available on the wire.
        bits: u16,
    },
    /// The level cannot express a non-(-1) addend at all.
    AddendNotSupported {
        /// The offending addend.
        addend: i64,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::KeyTooLarge { key, bits } => {
                write!(
                    f,
                    "signal key {key} exceeds the {bits} custom bits available"
                )
            }
            EncodeError::AddendOutOfRange { addend, bits } => {
                write!(f, "addend {addend} does not fit in {bits} bits")
            }
            EncodeError::AddendNotSupported { addend } => write!(
                f,
                "addend {addend} != -1 requires mode 2 or level >= 3 custom bits"
            ),
        }
    }
}
impl std::error::Error for EncodeError {}

/// A notification to be carried in custom bits: signal key + addend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notif {
    /// Signal key (`p` in the paper); 0 means "no signal".
    pub key: u64,
    /// Counter addend (`a` in the paper; usually negative).
    pub addend: i64,
}

impl Notif {
    /// The no-op notification (key 0): nothing to apply.
    pub const NULL: Notif = Notif { key: 0, addend: 0 };

    /// Whether this is the no-op notification.
    pub fn is_null(&self) -> bool {
        self.key == 0
    }
}

/// How (key, addend) map onto the wire for one direction of one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Key and addend, 64 bits each (levels 3 and 4 on 128-bit NICs).
    Full128,
    /// Key and addend in one 64-bit word: 32 bits each (level 3 on
    /// 64-bit NICs).
    Split64,
    /// Key only in `bits` bits; addend fixed at -1 (levels 1, 2 mode 1).
    KeyOnly {
        /// Total custom bits, all carrying the key.
        bits: u16,
    },
    /// `key_bits` of key + `bits - key_bits` of two's-complement addend
    /// (level 2 mode 2).
    Mode2 {
        /// Total custom bits on the wire.
        bits: u16,
        /// How many of them carry the key.
        key_bits: u16,
    },
}

impl Encoding {
    /// Maximum usable signal key for this encoding.
    pub fn max_key(&self) -> u64 {
        match *self {
            Encoding::Full128 => u64::MAX,
            Encoding::Split64 => u32::MAX as u64,
            Encoding::KeyOnly { bits } => mask_u64(bits),
            Encoding::Mode2 { key_bits, .. } => mask_u64(key_bits),
        }
    }

    /// Encode a notification into custom bits.
    pub fn encode(&self, n: Notif) -> Result<u128, EncodeError> {
        if n.is_null() {
            return Ok(0);
        }
        match *self {
            Encoding::Full128 => Ok(((n.key as u128) << 64) | (n.addend as u64 as u128)),
            Encoding::Split64 => {
                if n.key > u32::MAX as u64 {
                    return Err(EncodeError::KeyTooLarge {
                        key: n.key,
                        bits: 32,
                    });
                }
                let a32 = i64_to_signed_bits(n.addend, 32)?;
                Ok(((n.key as u128) << 32) | a32 as u128)
            }
            Encoding::KeyOnly { bits } => {
                if n.addend != -1 {
                    return Err(EncodeError::AddendNotSupported { addend: n.addend });
                }
                if n.key > mask_u64(bits) {
                    return Err(EncodeError::KeyTooLarge { key: n.key, bits });
                }
                Ok(n.key as u128)
            }
            Encoding::Mode2 { bits, key_bits } => {
                let a_bits = bits - key_bits;
                if n.key > mask_u64(key_bits) {
                    return Err(EncodeError::KeyTooLarge {
                        key: n.key,
                        bits: key_bits,
                    });
                }
                let a = i64_to_signed_bits(n.addend, a_bits)?;
                Ok(((n.key as u128) << a_bits) | a as u128)
            }
        }
    }

    /// Decode custom bits back into a notification. Zero decodes to the
    /// null notification.
    pub fn decode(&self, custom: u128) -> Notif {
        if custom == 0 {
            return Notif::NULL;
        }
        match *self {
            Encoding::Full128 => Notif {
                key: (custom >> 64) as u64,
                addend: (custom as u64) as i64,
            },
            Encoding::Split64 => Notif {
                key: ((custom >> 32) & 0xFFFF_FFFF) as u64,
                addend: signed_bits_to_i64((custom & 0xFFFF_FFFF) as u64, 32),
            },
            Encoding::KeyOnly { .. } => Notif {
                key: custom as u64,
                addend: -1,
            },
            Encoding::Mode2 { bits, key_bits } => {
                let a_bits = bits - key_bits;
                Notif {
                    key: ((custom >> a_bits) as u64) & mask_u64(key_bits),
                    addend: signed_bits_to_i64((custom as u64) & mask_u64(a_bits), a_bits),
                }
            }
        }
    }
}

fn mask_u64(bits: u16) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Truncate an i64 to a `bits`-wide two's-complement field, checking
/// that the value survives the round trip.
fn i64_to_signed_bits(v: i64, bits: u16) -> Result<u64, EncodeError> {
    assert!((1..=64).contains(&bits));
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    if bits < 64 && (v < min || v > max) {
        return Err(EncodeError::AddendOutOfRange { addend: v, bits });
    }
    Ok((v as u64) & mask_u64(bits))
}

/// Sign-extend a `bits`-wide field back to i64.
fn signed_bits_to_i64(v: u64, bits: u16) -> i64 {
    if bits >= 64 {
        return v as i64;
    }
    let shift = 64 - bits;
    ((v << shift) as i64) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;
    use unr_simnet::{InterfaceKind, InterfaceSpec};

    #[test]
    fn classification_matches_table2() {
        let lvl = |k| SupportLevel::classify(&InterfaceSpec::lookup(k));
        assert_eq!(lvl(InterfaceKind::Glex), SupportLevel::Level3);
        assert_eq!(lvl(InterfaceKind::Verbs), SupportLevel::Level2);
        assert_eq!(lvl(InterfaceKind::Utofu), SupportLevel::Level1);
        assert_eq!(lvl(InterfaceKind::Ugni), SupportLevel::Level2);
        assert_eq!(lvl(InterfaceKind::Pami), SupportLevel::Level3);
        assert_eq!(lvl(InterfaceKind::Portals), SupportLevel::Level3);
        assert_eq!(lvl(InterfaceKind::MpiOnly), SupportLevel::Level0);
        assert_eq!(
            SupportLevel::classify(
                &InterfaceSpec::lookup(InterfaceKind::Glex).with_hardware_atomic_add()
            ),
            SupportLevel::Level4
        );
    }

    #[test]
    fn full128_roundtrip() {
        let e = Encoding::Full128;
        for (key, addend) in [
            (1u64, -1i64),
            (u64::MAX, -1),
            (7, -1 + (3i64 << 33)),
            (42, -(1i64 << 33)),
            (9, i64::MIN + 1),
        ] {
            let n = Notif { key, addend };
            let w = e.encode(n).unwrap();
            assert_eq!(e.decode(w), n, "({key},{addend})");
        }
    }

    #[test]
    fn split64_roundtrip_and_limits() {
        let e = Encoding::Split64;
        let n = Notif {
            key: 123,
            addend: -5,
        };
        assert_eq!(e.decode(e.encode(n).unwrap()), n);
        assert!(matches!(
            e.encode(Notif {
                key: 1 << 40,
                addend: -1
            }),
            Err(EncodeError::KeyTooLarge { .. })
        ));
        assert!(matches!(
            e.encode(Notif {
                key: 1,
                addend: 1i64 << 40
            }),
            Err(EncodeError::AddendOutOfRange { .. })
        ));
    }

    #[test]
    fn keyonly_requires_minus_one() {
        let e = Encoding::KeyOnly { bits: 8 };
        assert_eq!(
            e.decode(
                e.encode(Notif {
                    key: 200,
                    addend: -1
                })
                .unwrap()
            ),
            Notif {
                key: 200,
                addend: -1
            }
        );
        assert!(matches!(
            e.encode(Notif {
                key: 300,
                addend: -1
            }),
            Err(EncodeError::KeyTooLarge { .. })
        ));
        assert!(matches!(
            e.encode(Notif { key: 1, addend: -2 }),
            Err(EncodeError::AddendNotSupported { .. })
        ));
    }

    #[test]
    fn mode2_roundtrip_with_striping_addends() {
        // 32 bits: 16-bit key, 16-bit addend; signals with N=8 event
        // bits stripe over up to a few NICs.
        let e = Encoding::Mode2 {
            bits: 32,
            key_bits: 16,
        };
        let adds = crate::signal::striped_addends(4, 8);
        for a in adds {
            let n = Notif {
                key: 513,
                addend: a,
            };
            let w = e.encode(n).unwrap();
            assert_eq!(e.decode(w), n, "addend {a}");
        }
        // With N=32 the striping unit (1<<33) cannot fit: must error.
        let too_big = crate::signal::striped_addends(2, 32)[0];
        assert!(e
            .encode(Notif {
                key: 1,
                addend: too_big
            })
            .is_err());
    }

    #[test]
    fn null_notif_is_zero_wire() {
        for e in [
            Encoding::Full128,
            Encoding::Split64,
            Encoding::KeyOnly { bits: 8 },
            Encoding::Mode2 {
                bits: 32,
                key_bits: 16,
            },
        ] {
            assert_eq!(e.encode(Notif::NULL).unwrap(), 0);
            assert!(e.decode(0).is_null());
        }
    }

    #[test]
    fn signed_field_roundtrip_extremes() {
        for bits in [4u16, 8, 16, 31, 32, 63] {
            let min = -(1i64 << (bits - 1));
            let max = (1i64 << (bits - 1)) - 1;
            for v in [min, -1, 0, 1, max] {
                let w = i64_to_signed_bits(v, bits).unwrap();
                assert_eq!(signed_bits_to_i64(w, bits), v, "bits={bits} v={v}");
            }
            assert!(i64_to_signed_bits(max + 1, bits).is_err());
            assert!(i64_to_signed_bits(min - 1, bits).is_err());
        }
    }

    #[test]
    fn max_key_by_encoding() {
        assert_eq!(Encoding::KeyOnly { bits: 8 }.max_key(), 255);
        assert_eq!(
            Encoding::Mode2 {
                bits: 32,
                key_bits: 20
            }
            .max_key(),
            (1 << 20) - 1
        );
        assert_eq!(Encoding::Full128.max_key(), u64::MAX);
    }

    #[test]
    fn suggestions_exist_for_all_levels() {
        for l in [
            SupportLevel::Level0,
            SupportLevel::Level1,
            SupportLevel::Level2,
            SupportLevel::Level3,
            SupportLevel::Level4,
        ] {
            assert!(!l.suggestion().is_empty());
        }
    }
}
