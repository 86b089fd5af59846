//! The UNR Transport Layer (paper §IV-A): channels that abstract the
//! notifiable RMA primitives of different interconnects.
//!
//! A channel bundles (a) the **mechanism** used to move data and carry
//! notifications and (b) the per-direction **encodings** of `(p, a)`
//! into custom bits:
//!
//! * `Rma` — native notifiable RMA: the NIC's completion events carry
//!   the encoded notification (GLEX / Verbs / uTofu style);
//! * `RmaCompanion` — level-0: RMA moves the data, an order-preserving
//!   companion message carries `(p, a)` behind it;
//! * `Dgram` — the MPI-style fallback: data and notification ride a
//!   two-sided message; works on anything, performance depends on the
//!   interconnect (paper §VI-C observes both speedups and slowdowns).

use unr_simnet::InterfaceSpec;

use crate::level::{Encoding, SupportLevel};

/// Per-direction encodings for an RMA channel.
#[derive(Debug, Clone, Copy)]
pub struct DirEncodings {
    /// Encoding of the custom bits in local PUT completions.
    pub put_local: Encoding,
    /// Encoding of the custom bits in remote PUT completions.
    pub put_remote: Encoding,
    /// Encoding of the custom bits in local GET completions.
    pub get_local: Encoding,
    /// `None`: the NIC generates no remote completion for GET (Verbs).
    pub get_remote: Option<Encoding>,
}

/// Data/notification transport mechanism.
#[derive(Debug, Clone, Copy)]
pub enum Mechanism {
    /// Native notifiable RMA: the NIC delivers `(p, a)` in completion
    /// custom bits, per-direction encodings attached.
    Rma(DirEncodings),
    /// Level-0: RMA moves the data, an order-preserving companion
    /// message carries the notification behind it.
    RmaCompanion,
    /// Two-sided fallback: data and notification ride one datagram.
    Dgram,
}

/// A configured UNR transport channel.
#[derive(Debug, Clone, Copy)]
pub struct Channel {
    /// Short channel name (`"glex"`, `"verbs-mode2"`, ... — also used
    /// in the `unr.channel.<name>.msgs` metric).
    pub name: &'static str,
    /// The channel's support level (Table I).
    pub level: SupportLevel,
    /// How data and notifications travel.
    pub mech: Mechanism,
    /// Level 4: the fabric applies `*p += a`; no polling needed.
    pub hardware: bool,
    /// Whether striping one message over several NICs is allowed.
    pub multi_channel: bool,
}

/// Channel-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChannelSelect {
    /// Pick the best channel for the fabric's interface (Table II).
    #[default]
    Auto,
    /// Force the two-sided fallback channel.
    ForceFallback,
    /// Force the level-0 companion-message channel (requires RMA).
    ForceLevel0,
    /// Level-2 mode 2: split the 32 custom bits into `key_bits` of key
    /// and `32 - key_bits` of addend (enables limited multi-channel).
    Mode2 {
        /// How many of the 32 custom bits carry the signal key.
        key_bits: u16,
    },
}

impl Channel {
    /// GLEX-like level-3 channel (128-bit custom bits everywhere).
    pub fn glex() -> Channel {
        let e = DirEncodings {
            put_local: Encoding::Full128,
            put_remote: Encoding::Full128,
            get_local: Encoding::Full128,
            get_remote: Some(Encoding::Full128),
        };
        Channel {
            name: "glex",
            level: SupportLevel::Level3,
            mech: Mechanism::Rma(e),
            hardware: false,
            multi_channel: true,
        }
    }

    /// Level-4: GLEX encodings plus hardware atomic add.
    pub fn glex_hw() -> Channel {
        Channel {
            name: "glex-hw",
            level: SupportLevel::Level4,
            hardware: true,
            ..Channel::glex()
        }
    }

    /// Verbs-like level-2 channel, mode 1: 32-bit key, implied `a = -1`.
    pub fn verbs_mode1() -> Channel {
        let e = DirEncodings {
            put_local: Encoding::Split64,
            put_remote: Encoding::KeyOnly { bits: 32 },
            get_local: Encoding::Split64,
            get_remote: None,
        };
        Channel {
            name: "verbs-mode1",
            level: SupportLevel::Level2,
            mech: Mechanism::Rma(e),
            hardware: false,
            multi_channel: false,
        }
    }

    /// Verbs-like level-2 channel, mode 2: `key_bits` of key +
    /// `32-key_bits` of addend. Enables limited multi-channel (the
    /// signal table must use a small event field `N` so striping
    /// addends fit).
    pub fn verbs_mode2(key_bits: u16) -> Channel {
        assert!((1..32).contains(&key_bits), "key_bits must be in 1..32");
        let e = DirEncodings {
            put_local: Encoding::Split64,
            put_remote: Encoding::Mode2 { bits: 32, key_bits },
            get_local: Encoding::Split64,
            get_remote: None,
        };
        Channel {
            name: "verbs-mode2",
            level: SupportLevel::Level2,
            mech: Mechanism::Rma(e),
            hardware: false,
            multi_channel: true,
        }
    }

    /// uTofu-like level-1 channel: 8-bit keys, implied `a = -1`.
    pub fn utofu() -> Channel {
        let e = DirEncodings {
            put_local: Encoding::Split64,
            put_remote: Encoding::KeyOnly { bits: 8 },
            get_local: Encoding::Split64,
            get_remote: Some(Encoding::KeyOnly { bits: 8 }),
        };
        Channel {
            name: "utofu",
            level: SupportLevel::Level1,
            mech: Mechanism::Rma(e),
            hardware: false,
            multi_channel: false,
        }
    }

    /// Level-0 channel: RMA data + order-preserving companion message.
    pub fn level0() -> Channel {
        Channel {
            name: "level0",
            level: SupportLevel::Level0,
            mech: Mechanism::RmaCompanion,
            hardware: false,
            multi_channel: false,
        }
    }

    /// MPI-style two-sided fallback channel.
    pub fn fallback() -> Channel {
        Channel {
            name: "mpi-fallback",
            level: SupportLevel::Level0,
            mech: Mechanism::Dgram,
            hardware: false,
            multi_channel: false,
        }
    }

    /// The `unr-netfab` Unix-domain-socket channel: emulated RMA whose frame
    /// header carries full 128-bit custom bits in both directions, so
    /// it behaves like a level-3 interface (GLEX encodings) over real
    /// sockets. Striping across the per-rank socket "NICs" is allowed.
    pub fn netfab() -> Channel {
        let e = DirEncodings {
            put_local: Encoding::Full128,
            put_remote: Encoding::Full128,
            get_local: Encoding::Full128,
            get_remote: Some(Encoding::Full128),
        };
        Channel {
            name: "netfab-tcp",
            level: SupportLevel::Level3,
            mech: Mechanism::Rma(e),
            hardware: false,
            multi_channel: true,
        }
    }

    /// Table II: pick the channel for an interface.
    pub fn auto_select(spec: &InterfaceSpec, mode2_key_bits: Option<u16>) -> Channel {
        if spec.kind == unr_simnet::InterfaceKind::TcpLoopback {
            return Channel::netfab();
        }
        if !spec.rma_capable {
            return Channel::fallback();
        }
        if spec.hardware_atomic_add {
            return Channel::glex_hw();
        }
        match SupportLevel::classify(spec) {
            SupportLevel::Level4 => Channel::glex_hw(),
            SupportLevel::Level3 => Channel::glex(),
            SupportLevel::Level2 => match mode2_key_bits {
                Some(x) => Channel::verbs_mode2(x),
                None => Channel::verbs_mode1(),
            },
            SupportLevel::Level1 => Channel::utofu(),
            SupportLevel::Level0 => Channel::level0(),
        }
    }

    /// Resolve a selection policy against a fabric interface.
    pub fn select(spec: &InterfaceSpec, sel: ChannelSelect) -> Channel {
        match sel {
            ChannelSelect::Auto => Channel::auto_select(spec, None),
            ChannelSelect::ForceFallback => Channel::fallback(),
            ChannelSelect::ForceLevel0 => {
                assert!(spec.rma_capable, "level-0 channel still needs RMA");
                Channel::level0()
            }
            ChannelSelect::Mode2 { key_bits } => {
                assert!(
                    spec.rma_capable && spec.custom_bits.put_remote >= 32,
                    "mode 2 needs 32 remote custom bits"
                );
                Channel::verbs_mode2(key_bits)
            }
        }
    }

    /// Whether this channel can notify the remote side of a GET.
    pub fn get_remote_notify(&self) -> bool {
        match self.mech {
            Mechanism::Rma(e) => e.get_remote.is_some(),
            // Companion/fallback carry the notification in software.
            Mechanism::RmaCompanion | Mechanism::Dgram => true,
        }
    }

    /// The largest signal key every direction of this channel can carry
    /// in custom bits. Sizes the signal table's generation field so
    /// generation-tagged keys always encode on the selected wire
    /// (narrow wires get no tag and keep the historical semantics).
    pub fn key_capacity(&self) -> u64 {
        match self.mech {
            // Keys ride full-width datagram payloads.
            Mechanism::Dgram => u64::MAX,
            // Level-0 local completions carry Split64 custom bits.
            Mechanism::RmaCompanion => Encoding::Split64.max_key(),
            Mechanism::Rma(enc) => {
                let mut cap = enc
                    .put_local
                    .max_key()
                    .min(enc.put_remote.max_key())
                    .min(enc.get_local.max_key());
                if let Some(g) = enc.get_remote {
                    cap = cap.min(g.max_key());
                }
                cap
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unr_simnet::InterfaceKind;

    #[test]
    fn auto_selection_per_interface() {
        let pick = |k| Channel::auto_select(&InterfaceSpec::lookup(k), None);
        assert_eq!(pick(InterfaceKind::Glex).name, "glex");
        assert_eq!(pick(InterfaceKind::Verbs).name, "verbs-mode1");
        assert_eq!(pick(InterfaceKind::Utofu).name, "utofu");
        assert_eq!(pick(InterfaceKind::MpiOnly).name, "mpi-fallback");
        let hw = Channel::auto_select(
            &InterfaceSpec::lookup(InterfaceKind::Glex).with_hardware_atomic_add(),
            None,
        );
        assert!(hw.hardware);
        assert_eq!(hw.level, SupportLevel::Level4);
    }

    #[test]
    fn mode2_selection() {
        let c = Channel::auto_select(&InterfaceSpec::lookup(InterfaceKind::Verbs), Some(16));
        assert_eq!(c.name, "verbs-mode2");
        assert!(c.multi_channel);
    }

    #[test]
    fn verbs_cannot_notify_remote_get() {
        assert!(!Channel::verbs_mode1().get_remote_notify());
        assert!(Channel::glex().get_remote_notify());
        assert!(Channel::fallback().get_remote_notify());
    }

    #[test]
    #[should_panic(expected = "key_bits")]
    fn mode2_rejects_full_width_key() {
        let _ = Channel::verbs_mode2(32);
    }
}
