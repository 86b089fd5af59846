//! UNR control-message wire format, shared by every transport backend.
//!
//! All control traffic — level-0 companion notifications, fallback
//! (two-sided) data and GET emulation, and the self-healing transport's
//! sequenced sub-messages and acks — travels as a one-byte kind tag
//! followed by little-endian fixed-width fields and an optional
//! payload. The simnet backend carries these frames over fabric
//! datagrams on [`crate::sim::UNR_PORT`]; the `unr-netfab` Unix-domain
//! socket backend carries the identical bytes inside its `CTRL` frames, which
//! is what keeps the reliable-transport layer transport-agnostic.
//!
//! | kind | name            | body (LE)                                                            |
//! |------|-----------------|----------------------------------------------------------------------|
//! | 1    | `FALLBACK_DATA` | `region u32, offset u64, key u64, addend i64, payload`               |
//! | 2    | `FALLBACK_GET`  | `region u32, offset u64, len u64, reply_region u32, reply_offset u64, reply_key u64, reply_addend i64, remote_key u64, remote_addend i64` |
//! | 3    | `COMPANION`     | `key u64, addend i64`                                                |
//! | 4    | `SEQ_DATA`      | `seq u64, region u32, offset u64, key u64, addend i64, payload`      |
//! | 5    | `SEQ_NOTIF`     | `seq u64, key u64, addend i64`                                       |
//! | 6    | `ACK`           | `seq u64`                                                            |
//! | 7    | `AGG`           | `seq u64, flags u8, nspans u16, nsigs u16, spans, sigs, payloads`    |
//! | 8    | `EPOCH`         | `epoch u64, inner frame` (membership-epoch envelope)                 |
//!
//! The `AGG` frame is the sender-side coalescer's unit of delivery: one
//! fabric message carrying many sub-MTU puts to the same destination.
//! `spans` is `nspans × (region u32, offset u64, len u32)` describing
//! where each packed payload lands; `sigs` is `nsigs × (key u64,
//! addend i64)` — one entry per *distinct* target signal with the
//! MMAS addends of all coalesced puts **summed** (addends are
//! associative, §IV-B, so the receiver applies each signal once).
//! `payloads` is the packed span bytes, concatenated in span order.
//! Bit 0 of `flags` marks a sequenced frame (reliable transport: dedup
//! on `seq`, always acked); unsequenced frames carry `seq == 0`.

use unr_simnet::Bytes;

/// Fallback data: two-sided emulation of a notifiable PUT (also the
/// reply leg of a fallback GET).
pub const MSG_FALLBACK_DATA: u8 = 1;
/// Fallback GET request: the exposer snapshots the block and replies
/// with a [`MSG_FALLBACK_DATA`] frame aimed at the requester's buffer.
pub const MSG_FALLBACK_GET: u8 = 2;
/// Level-0 companion message: a bare `*p += a` notification racing the
/// RMA payload it describes.
pub const MSG_COMPANION: u8 = 3;
/// Sequenced fallback data — the reliable transport's datagram route.
pub const MSG_SEQ_DATA: u8 = 4;
/// Sequenced delivery notification riding an RMA put as its companion.
/// Receipt implies the RMA payload of the same fabric delivery landed;
/// it drives dedup + ack.
pub const MSG_SEQ_NOTIF: u8 = 5;
/// Receiver ack of a sequenced sub-message.
pub const MSG_ACK: u8 = 6;
/// Aggregate of coalesced small puts: packed payload spans plus one
/// summed MMAS addend per target signal. One retry entry / one dedup
/// slot covers the whole aggregate.
pub const MSG_AGG: u8 = 7;
/// Epoch envelope: `kind u8, epoch u64, inner frame`. Once membership
/// is active every control frame travels inside one of these; the
/// receiver fences frames whose epoch is older than its current
/// membership epoch (`UnrError::StaleEpoch`, counted in
/// `unr.epoch.stale_rejects`) exactly as the signal table fences stale
/// generations. Fault-free runs never produce or expect the envelope,
/// so the wire bytes of epoch-0 traffic are unchanged.
pub const MSG_EPOCH: u8 = 8;

/// Bytes of the [`MSG_EPOCH`] envelope header (`kind u8 + epoch u64`).
pub const EPOCH_HDR_LEN: usize = 9;

/// The [`MSG_EPOCH`] envelope header for `epoch`: what goes in front of
/// a complete control frame to wrap it.
pub fn epoch_hdr(epoch: u64) -> [u8; EPOCH_HDR_LEN] {
    let mut h = [MSG_EPOCH; EPOCH_HDR_LEN];
    h[1..].copy_from_slice(&epoch.to_le_bytes());
    h
}

/// Wrap `inner` (a complete control frame) in an epoch envelope.
pub fn epoch_wrap(epoch: u64, inner: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(EPOCH_HDR_LEN + inner.len());
    b.extend_from_slice(&epoch_hdr(epoch));
    b.extend_from_slice(inner);
    b
}

/// If `frame` is an epoch envelope, split it into `(epoch, inner)`.
/// Returns `None` for bare (epoch-0 era) frames and for truncated
/// envelopes.
pub fn epoch_unwrap(frame: &[u8]) -> Option<(u64, &[u8])> {
    if frame.first() != Some(&MSG_EPOCH) || frame.len() < EPOCH_HDR_LEN {
        return None;
    }
    let epoch = u64::from_le_bytes(frame[1..9].try_into().ok()?);
    Some((epoch, &frame[EPOCH_HDR_LEN..]))
}

/// `flags` bit marking a sequenced (reliable, dedup + ack) aggregate.
pub const AGG_FLAG_SEQUENCED: u8 = 0b0000_0001;

/// Bytes per span descriptor in an [`MSG_AGG`] frame.
const AGG_SPAN_LEN: usize = 16;
/// Bytes per signal entry in an [`MSG_AGG`] frame.
const AGG_SIG_LEN: usize = 16;
/// Offset of the span table inside an [`MSG_AGG`] frame
/// (`kind u8 + seq u64 + flags u8 + nspans u16 + nsigs u16`).
const AGG_HDR_LEN: usize = 14;

/// A parsed UNR control message borrowing its payload from the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlMsg<'a> {
    /// [`MSG_COMPANION`].
    Companion {
        /// Signal-table key to bump.
        key: u64,
        /// MMAS addend.
        addend: i64,
    },
    /// [`MSG_FALLBACK_DATA`].
    FallbackData {
        /// Destination region id on the receiver.
        region_id: u32,
        /// Byte offset into that region.
        offset: usize,
        /// Signal-table key to bump after the write.
        key: u64,
        /// MMAS addend.
        addend: i64,
        /// Bytes to deposit.
        payload: &'a [u8],
    },
    /// [`MSG_FALLBACK_GET`].
    FallbackGet {
        /// Region to read on the exposer.
        region_id: u32,
        /// Byte offset of the read.
        offset: usize,
        /// Read length in bytes.
        len: usize,
        /// Requester-side region the reply lands in.
        reply_region: u32,
        /// Requester-side offset of the reply.
        reply_offset: u64,
        /// Requester-side (local) completion signal key.
        reply_key: u64,
        /// Addend for the requester's local signal.
        reply_addend: i64,
        /// Exposer-side (remote) notification signal key.
        remote_key: u64,
        /// Addend for the exposer's signal.
        remote_addend: i64,
    },
    /// [`MSG_SEQ_DATA`].
    SeqData {
        /// Per-(src, dst) sequence number for dedup + ack.
        seq: u64,
        /// Destination region id on the receiver.
        region_id: u32,
        /// Byte offset into that region.
        offset: usize,
        /// Signal-table key to bump after the write.
        key: u64,
        /// MMAS addend.
        addend: i64,
        /// Bytes to deposit.
        payload: &'a [u8],
    },
    /// [`MSG_SEQ_NOTIF`].
    SeqNotif {
        /// Per-(src, dst) sequence number for dedup + ack.
        seq: u64,
        /// Signal-table key to bump.
        key: u64,
        /// MMAS addend.
        addend: i64,
    },
    /// [`MSG_ACK`].
    Ack {
        /// Sequence number being acknowledged.
        seq: u64,
    },
    /// [`MSG_AGG`].
    Agg {
        /// Per-(src, dst) sequence number (0 when unsequenced).
        seq: u64,
        /// Whether the frame runs the dedup + ack protocol.
        sequenced: bool,
        /// Span table, summed-signal table and packed payloads.
        body: AggBody<'a>,
    },
}

/// The variable-length tail of an [`MSG_AGG`] frame: span descriptors,
/// summed-signal entries and the packed payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggBody<'a> {
    nspans: u16,
    nsigs: u16,
    /// `spans ++ sigs ++ payloads`, validated to hold all three.
    rest: &'a [u8],
}

impl<'a> AggBody<'a> {
    /// Number of packed payload spans.
    pub fn span_count(&self) -> usize {
        self.nspans as usize
    }

    /// Number of distinct target signals (addends pre-summed).
    pub fn sig_count(&self) -> usize {
        self.nsigs as usize
    }

    /// Iterate the spans as `(region_id, offset, payload)` — the
    /// payload slice is the span's packed bytes.
    pub fn spans(&self) -> impl Iterator<Item = (u32, u64, &'a [u8])> + '_ {
        let mut payload_at = self.tables_len();
        (0..self.nspans as usize).map(move |i| {
            let (region, offset, len) = self.span(i);
            let payload = &self.rest[payload_at..payload_at + len];
            payload_at += len;
            (region, offset, payload)
        })
    }

    /// Iterate the summed-signal entries as `(key, addend)`.
    pub fn sigs(&self) -> impl Iterator<Item = (u64, i64)> + '_ {
        let base = self.nspans as usize * AGG_SPAN_LEN;
        (0..self.nsigs as usize).map(move |i| {
            let at = base + i * AGG_SIG_LEN;
            (
                u64_at(self.rest, at).expect(VALIDATED),
                i64_at(self.rest, at + 8).expect(VALIDATED),
            )
        })
    }

    /// Bytes of the span and signal tables ahead of the payloads.
    fn tables_len(&self) -> usize {
        self.nspans as usize * AGG_SPAN_LEN + self.nsigs as usize * AGG_SIG_LEN
    }

    /// Span descriptor `i`: `(region, offset, len)`.
    fn span(&self, i: usize) -> (u32, u64, usize) {
        let at = i * AGG_SPAN_LEN;
        (
            u32_at(self.rest, at).expect(VALIDATED),
            u64_at(self.rest, at + 4).expect(VALIDATED),
            u32_at(self.rest, at + 12).expect(VALIDATED) as usize,
        )
    }

    /// The only constructor: `rest` must hold both tables and exactly
    /// the payload bytes the span table promises, so the iterators
    /// above cannot run off its end.
    fn checked(nspans: u16, nsigs: u16, rest: &'a [u8]) -> Option<AggBody<'a>> {
        let body = AggBody {
            nspans,
            nsigs,
            rest,
        };
        if rest.len() < body.tables_len() {
            return None;
        }
        let payloads =
            (0..nspans as usize).try_fold(0usize, |sum, i| sum.checked_add(body.span(i).2))?;
        (rest.len() - body.tables_len() == payloads).then_some(body)
    }
}

/// Why an [`AggBody`] field read cannot fail.
const VALIDATED: &str = "agg tables validated by AggBody::checked";

fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

fn u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
}

fn i64_at(bytes: &[u8], at: usize) -> Option<i64> {
    u64_at(bytes, at).map(|v| v as i64)
}

impl<'a> CtrlMsg<'a> {
    /// Decode a control frame; `None` for an empty or truncated frame,
    /// an unknown kind tag (a nested [`MSG_EPOCH`] envelope included)
    /// or an aggregate whose tables and payloads do not add up. On
    /// `unr-netfab` these bytes come from another process, so this is
    /// the decoder every receive path uses.
    pub fn try_parse(bytes: &'a [u8]) -> Option<CtrlMsg<'a>> {
        Some(match *bytes.first()? {
            MSG_COMPANION => CtrlMsg::Companion {
                key: u64_at(bytes, 1)?,
                addend: i64_at(bytes, 9)?,
            },
            MSG_FALLBACK_DATA => CtrlMsg::FallbackData {
                region_id: u32_at(bytes, 1)?,
                offset: u64_at(bytes, 5)? as usize,
                key: u64_at(bytes, 13)?,
                addend: i64_at(bytes, 21)?,
                payload: bytes.get(29..)?,
            },
            MSG_FALLBACK_GET => CtrlMsg::FallbackGet {
                region_id: u32_at(bytes, 1)?,
                offset: u64_at(bytes, 5)? as usize,
                len: u64_at(bytes, 13)? as usize,
                reply_region: u32_at(bytes, 21)?,
                reply_offset: u64_at(bytes, 25)?,
                reply_key: u64_at(bytes, 33)?,
                reply_addend: i64_at(bytes, 41)?,
                remote_key: u64_at(bytes, 49)?,
                remote_addend: i64_at(bytes, 57)?,
            },
            MSG_SEQ_DATA => CtrlMsg::SeqData {
                seq: u64_at(bytes, 1)?,
                region_id: u32_at(bytes, 9)?,
                offset: u64_at(bytes, 13)? as usize,
                key: u64_at(bytes, 21)?,
                addend: i64_at(bytes, 29)?,
                payload: bytes.get(37..)?,
            },
            MSG_SEQ_NOTIF => CtrlMsg::SeqNotif {
                seq: u64_at(bytes, 1)?,
                key: u64_at(bytes, 9)?,
                addend: i64_at(bytes, 17)?,
            },
            MSG_ACK => CtrlMsg::Ack {
                seq: u64_at(bytes, 1)?,
            },
            MSG_AGG => {
                let hdr = bytes.get(..AGG_HDR_LEN)?;
                let nspans = u16::from_le_bytes([hdr[10], hdr[11]]);
                let nsigs = u16::from_le_bytes([hdr[12], hdr[13]]);
                CtrlMsg::Agg {
                    seq: u64_at(hdr, 1)?,
                    sequenced: hdr[9] & AGG_FLAG_SEQUENCED != 0,
                    body: AggBody::checked(nspans, nsigs, &bytes[AGG_HDR_LEN..])?,
                }
            }
            _ => return None,
        })
    }

    /// [`CtrlMsg::try_parse`] for frames this process built itself
    /// (tests, probes): panics on a malformed frame.
    pub fn parse(bytes: &'a [u8]) -> CtrlMsg<'a> {
        CtrlMsg::try_parse(bytes).expect("malformed UNR control frame")
    }

    /// Whether a frame of this kind carries application data (used by
    /// fault-injection accounting: data-bearing drops are the ones the
    /// reliable transport must recover).
    pub fn is_data_bearing(kind: u8) -> bool {
        matches!(
            kind,
            MSG_FALLBACK_DATA | MSG_FALLBACK_GET | MSG_SEQ_DATA | MSG_AGG
        )
    }
}

/// Build a [`MSG_COMPANION`] frame.
pub fn companion_msg(key: u64, addend: i64) -> Vec<u8> {
    let mut msg = Vec::with_capacity(17);
    msg.push(MSG_COMPANION);
    msg.extend_from_slice(&key.to_le_bytes());
    msg.extend_from_slice(&addend.to_le_bytes());
    msg
}

/// Build a [`MSG_FALLBACK_DATA`] frame.
pub fn fallback_data_msg(
    region_id: u32,
    offset: u64,
    key: u64,
    addend: i64,
    payload: &[u8],
) -> Vec<u8> {
    let mut msg = Vec::with_capacity(29 + payload.len());
    msg.push(MSG_FALLBACK_DATA);
    msg.extend_from_slice(&region_id.to_le_bytes());
    msg.extend_from_slice(&offset.to_le_bytes());
    msg.extend_from_slice(&key.to_le_bytes());
    msg.extend_from_slice(&addend.to_le_bytes());
    msg.extend_from_slice(payload);
    msg
}

/// Build a [`MSG_FALLBACK_GET`] frame.
#[allow(clippy::too_many_arguments)]
pub fn fallback_get_msg(
    region_id: u32,
    offset: u64,
    len: u64,
    reply_region: u32,
    reply_offset: u64,
    reply_key: u64,
    reply_addend: i64,
    remote_key: u64,
    remote_addend: i64,
) -> Vec<u8> {
    let mut msg = Vec::with_capacity(65);
    msg.push(MSG_FALLBACK_GET);
    msg.extend_from_slice(&region_id.to_le_bytes());
    msg.extend_from_slice(&offset.to_le_bytes());
    msg.extend_from_slice(&len.to_le_bytes());
    msg.extend_from_slice(&reply_region.to_le_bytes());
    msg.extend_from_slice(&reply_offset.to_le_bytes());
    msg.extend_from_slice(&reply_key.to_le_bytes());
    msg.extend_from_slice(&reply_addend.to_le_bytes());
    msg.extend_from_slice(&remote_key.to_le_bytes());
    msg.extend_from_slice(&remote_addend.to_le_bytes());
    msg
}

/// Build a [`MSG_SEQ_DATA`] frame.
pub fn seq_data_msg(
    seq: u64,
    region_id: u32,
    offset: u64,
    key: u64,
    addend: i64,
    payload: &[u8],
) -> Vec<u8> {
    let mut msg = Vec::with_capacity(37 + payload.len());
    msg.push(MSG_SEQ_DATA);
    msg.extend_from_slice(&seq.to_le_bytes());
    msg.extend_from_slice(&region_id.to_le_bytes());
    msg.extend_from_slice(&offset.to_le_bytes());
    msg.extend_from_slice(&key.to_le_bytes());
    msg.extend_from_slice(&addend.to_le_bytes());
    msg.extend_from_slice(payload);
    msg
}

/// Build a [`MSG_SEQ_NOTIF`] frame.
pub fn seq_notif_msg(seq: u64, key: u64, addend: i64) -> Vec<u8> {
    let mut msg = Vec::with_capacity(25);
    msg.push(MSG_SEQ_NOTIF);
    msg.extend_from_slice(&seq.to_le_bytes());
    msg.extend_from_slice(&key.to_le_bytes());
    msg.extend_from_slice(&addend.to_le_bytes());
    msg
}

/// Build a [`MSG_ACK`] frame.
pub fn ack_msg(seq: u64) -> Vec<u8> {
    let mut msg = Vec::with_capacity(9);
    msg.push(MSG_ACK);
    msg.extend_from_slice(&seq.to_le_bytes());
    msg
}

/// Build a [`MSG_AGG`] frame. `spans` is `(region_id, offset, len)`
/// per packed put; `sigs` is one `(key, summed addend)` entry per
/// distinct target signal; `payload` is the packed span bytes in span
/// order (its length must equal the sum of the span lengths).
pub fn agg_msg(
    seq: u64,
    sequenced: bool,
    spans: &[(u32, u64, u32)],
    sigs: &[(u64, i64)],
    payload: &[u8],
) -> Vec<u8> {
    let mut msg = agg_head(seq, sequenced, spans, sigs, payload, payload.len());
    msg.extend_from_slice(payload);
    msg
}

/// [`agg_msg`] written straight into one shared buffer
/// ([`Bytes::from_parts`]): the payload is copied once, and the buffer
/// is what the retry table keeps and every transmission sends.
pub fn agg_frame(
    seq: u64,
    sequenced: bool,
    spans: &[(u32, u64, u32)],
    sigs: &[(u64, i64)],
    payload: &[u8],
) -> Bytes {
    let head = agg_head(seq, sequenced, spans, sigs, payload, 0);
    Bytes::from_parts(&[&head, payload])
}

/// Everything of the [`MSG_AGG`] frame of `payload` before the payload
/// itself, in a buffer with `room` bytes to spare.
fn agg_head(
    seq: u64,
    sequenced: bool,
    spans: &[(u32, u64, u32)],
    sigs: &[(u64, i64)],
    payload: &[u8],
    room: usize,
) -> Vec<u8> {
    debug_assert_eq!(
        spans.iter().map(|&(_, _, l)| l as usize).sum::<usize>(),
        payload.len(),
        "span lengths must cover the packed payload exactly"
    );
    assert!(
        spans.len() <= u16::MAX as usize,
        "too many spans for one aggregate"
    );
    assert!(
        sigs.len() <= u16::MAX as usize,
        "too many signals for one aggregate"
    );
    let mut msg = Vec::with_capacity(
        AGG_HDR_LEN + spans.len() * AGG_SPAN_LEN + sigs.len() * AGG_SIG_LEN + room,
    );
    msg.push(MSG_AGG);
    msg.extend_from_slice(&seq.to_le_bytes());
    msg.push(if sequenced { AGG_FLAG_SEQUENCED } else { 0 });
    msg.extend_from_slice(&(spans.len() as u16).to_le_bytes());
    msg.extend_from_slice(&(sigs.len() as u16).to_le_bytes());
    for &(region, offset, len) in spans {
        msg.extend_from_slice(&region.to_le_bytes());
        msg.extend_from_slice(&offset.to_le_bytes());
        msg.extend_from_slice(&len.to_le_bytes());
    }
    for &(key, addend) in sigs {
        msg.extend_from_slice(&key.to_le_bytes());
        msg.extend_from_slice(&addend.to_le_bytes());
    }
    msg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_kinds() {
        let payload = [0xAAu8, 0xBB, 0xCC];
        let cases: Vec<(Vec<u8>, CtrlMsg<'_>)> = vec![
            (
                companion_msg(7, -1),
                CtrlMsg::Companion { key: 7, addend: -1 },
            ),
            (
                fallback_data_msg(3, 64, 9, -5, &payload),
                CtrlMsg::FallbackData {
                    region_id: 3,
                    offset: 64,
                    key: 9,
                    addend: -5,
                    payload: &payload,
                },
            ),
            (
                fallback_get_msg(1, 2, 3, 4, 5, 6, -7, 8, -9),
                CtrlMsg::FallbackGet {
                    region_id: 1,
                    offset: 2,
                    len: 3,
                    reply_region: 4,
                    reply_offset: 5,
                    reply_key: 6,
                    reply_addend: -7,
                    remote_key: 8,
                    remote_addend: -9,
                },
            ),
            (
                seq_data_msg(11, 3, 64, 9, -5, &payload),
                CtrlMsg::SeqData {
                    seq: 11,
                    region_id: 3,
                    offset: 64,
                    key: 9,
                    addend: -5,
                    payload: &payload,
                },
            ),
            (
                seq_notif_msg(11, 9, -5),
                CtrlMsg::SeqNotif {
                    seq: 11,
                    key: 9,
                    addend: -5,
                },
            ),
            (ack_msg(11), CtrlMsg::Ack { seq: 11 }),
        ];
        for (bytes, want) in cases {
            assert_eq!(CtrlMsg::parse(&bytes), want);
        }
    }

    #[test]
    fn data_bearing_kinds() {
        assert!(CtrlMsg::is_data_bearing(MSG_FALLBACK_DATA));
        assert!(CtrlMsg::is_data_bearing(MSG_FALLBACK_GET));
        assert!(CtrlMsg::is_data_bearing(MSG_SEQ_DATA));
        assert!(CtrlMsg::is_data_bearing(MSG_AGG));
        assert!(!CtrlMsg::is_data_bearing(MSG_COMPANION));
        assert!(!CtrlMsg::is_data_bearing(MSG_SEQ_NOTIF));
        assert!(!CtrlMsg::is_data_bearing(MSG_ACK));
    }

    #[test]
    fn agg_roundtrip() {
        let spans = [(3u32, 64u64, 4u32), (3, 128, 2), (7, 0, 3)];
        let sigs = [(9u64, -5i64), (11, -2)];
        let payload = [1u8, 2, 3, 4, 10, 11, 20, 21, 22];
        let bytes = agg_msg(42, true, &spans, &sigs, &payload);
        match CtrlMsg::parse(&bytes) {
            CtrlMsg::Agg {
                seq,
                sequenced,
                body,
            } => {
                assert_eq!(seq, 42);
                assert!(sequenced);
                assert_eq!(body.span_count(), 3);
                assert_eq!(body.sig_count(), 2);
                let got: Vec<(u32, u64, Vec<u8>)> =
                    body.spans().map(|(r, o, p)| (r, o, p.to_vec())).collect();
                assert_eq!(
                    got,
                    vec![
                        (3, 64, vec![1, 2, 3, 4]),
                        (3, 128, vec![10, 11]),
                        (7, 0, vec![20, 21, 22]),
                    ]
                );
                assert_eq!(body.sigs().collect::<Vec<_>>(), vec![(9, -5), (11, -2)]);
            }
            other => panic!("expected Agg, got {other:?}"),
        }
    }

    /// The shared-buffer encoding is the same message, byte for byte,
    /// sequenced or not, with or without spans.
    #[test]
    fn agg_frame_is_agg_msg_in_a_shared_buffer() {
        let spans = [(3u32, 64u64, 4u32), (7, 0, 3)];
        let payload = [1u8, 2, 3, 4, 20, 21, 22];
        for (seq, sequenced) in [(42, true), (0, false)] {
            let frame = agg_frame(seq, sequenced, &spans, &[(9, -2)], &payload);
            assert_eq!(frame, agg_msg(seq, sequenced, &spans, &[(9, -2)], &payload));
        }
        assert_eq!(
            agg_frame(5, true, &[], &[(9, -1)], &[]),
            agg_msg(5, true, &[], &[(9, -1)], &[])
        );
        assert_eq!(epoch_wrap(3, &[7])[..EPOCH_HDR_LEN], epoch_hdr(3));
    }

    #[test]
    fn epoch_envelope_roundtrip() {
        let inner = ack_msg(77);
        let wrapped = epoch_wrap(3, &inner);
        assert_eq!(wrapped[0], MSG_EPOCH);
        assert_eq!(wrapped.len(), EPOCH_HDR_LEN + inner.len());
        let (epoch, body) = epoch_unwrap(&wrapped).expect("envelope parses");
        assert_eq!(epoch, 3);
        assert_eq!(body, &inner[..]);
        assert_eq!(CtrlMsg::parse(body), CtrlMsg::Ack { seq: 77 });
        // Bare frames are not envelopes; truncated envelopes don't parse.
        assert_eq!(epoch_unwrap(&inner), None);
        assert_eq!(epoch_unwrap(&wrapped[..5]), None);
    }

    #[test]
    fn agg_roundtrip_unsequenced_and_empty_tables() {
        let bytes = agg_msg(0, false, &[], &[(5, -9)], &[]);
        match CtrlMsg::parse(&bytes) {
            CtrlMsg::Agg {
                seq,
                sequenced,
                body,
            } => {
                assert_eq!(seq, 0);
                assert!(!sequenced);
                assert_eq!(body.span_count(), 0);
                assert_eq!(body.spans().count(), 0);
                assert_eq!(body.sigs().collect::<Vec<_>>(), vec![(5, -9)]);
            }
            other => panic!("expected Agg, got {other:?}"),
        }
    }
}
