//! The receive side of the control protocol — one handler for every
//! fabric.
//!
//! A control frame ([`crate::wire`]) means the same thing whichever
//! wire delivered it: parse → dedup a sequenced message per source →
//! deposit its bytes → apply its addend **only if every byte landed**
//! (all or nothing for an aggregate, whose signal entries are sums over
//! the packed puts and cannot be split) → then always ack a sequenced
//! message (the sender may be replaying because the first ack was
//! lost, and a write that cannot land would otherwise be replayed for
//! ever; acking last means an ack never overtakes its own bytes) →
//! settle an ack against the retry table. [`handle_ctrl`] owns
//! that order. What really differs between the simulator and real
//! sockets — where bytes land, how an addend reaches the signal table,
//! how a reply leaves, which instruments count — is the [`CtrlSink`]
//! each engine hands in; the handler is monomorphised over it, so the
//! seam costs no dynamic call.
//!
//! The membership-epoch envelope is fenced *before* a frame gets here:
//! [`stamp`] wraps on the way out, [`admit`] unwraps on the way in.

use std::borrow::Cow;

use unr_simnet::Ns;

use crate::epoch::{self, Epoch};
use crate::retry::RetryState;
use crate::wire::{self, CtrlMsg};

/// What [`handle_ctrl`] reports to a fabric's instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlEvent {
    /// A sequenced message the dedup window had already seen.
    DupSuppressed,
    /// An ack settled a pending sub-message posted at `first_post`
    /// (0: the ack beat [`RetryState::arm`], there is no post time).
    Acked {
        /// When the settled sub-message was first posted.
        first_post: Ns,
    },
    /// A frame dropped unhandled: it does not decode (empty, truncated,
    /// unknown kind, inconsistent aggregate), or it is sequenced and
    /// this rank runs no reliable transport (SPMD config skew).
    Malformed,
}

/// The fabric under [`handle_ctrl`].
pub trait CtrlSink {
    /// Copy `payload` to `offset` of this rank's region `region`.
    /// `false` — and counted, by the sink — when the region is unknown
    /// or the range does not fit: nothing was written.
    fn deposit(&mut self, region: u32, offset: u64, payload: &[u8]) -> bool;

    /// Read `len` bytes at `offset` of region `region` to answer a
    /// [`wire::MSG_FALLBACK_GET`]. `None` when the bytes are not there,
    /// or on a fabric whose GETs never take the control path.
    fn read(&mut self, region: u32, offset: u64, len: u64) -> Option<Vec<u8>>;

    /// `*key += addend` against the signal table.
    fn apply(&mut self, key: u64, addend: i64);

    /// Send control frame `frame` back to rank `dst`.
    fn reply(&mut self, dst: usize, frame: Vec<u8>);

    /// Count `event` in this fabric's instruments.
    fn count(&mut self, event: CtrlEvent);
}

/// Wrap an outgoing control frame in the epoch envelope once
/// membership is active (`epoch > 0`); bare — and borrowed — otherwise,
/// so the wire bytes of a world in which no rank ever died are
/// unchanged.
pub fn stamp(epoch: u64, frame: &[u8]) -> Cow<'_, [u8]> {
    if epoch == 0 || frame.is_empty() {
        return Cow::Borrowed(frame);
    }
    Cow::Owned(wire::epoch_wrap(epoch, frame))
}

/// Fence an incoming control frame: unwrap the epoch envelope if there
/// is one and reject what was stamped before `current()` — the
/// membership analogue of the signal table's stale-generation reject.
/// Returns the inner frame, or `None` when it was fenced (the caller
/// counts `unr.epoch.stale_rejects`). Bare frames — the epoch-0 wire
/// format — are admitted as they are, without asking for the epoch.
pub fn admit(frame: &[u8], current: impl FnOnce() -> u64) -> Option<&[u8]> {
    match wire::epoch_unwrap(frame) {
        None => Some(frame),
        Some((msg_epoch, inner)) => epoch::admit(Epoch::new(msg_epoch), Epoch::new(current()))
            .is_ok()
            .then_some(inner),
    }
}

/// Handle one admitted control frame `bytes` from rank `src`. `retry`
/// is this rank's reliable-transport table, if it runs one.
///
/// Order-independent against other frames — a sequenced message is
/// fresh exactly once whichever thread sees it first, addends commute,
/// an ack removes one entry — so several threads may each be handling
/// some.
pub fn handle_ctrl<S: CtrlSink>(
    retry: Option<&RetryState>,
    src: usize,
    bytes: &[u8],
    sink: &mut S,
) {
    let Some(msg) = CtrlMsg::try_parse(bytes) else {
        return sink.count(CtrlEvent::Malformed);
    };
    // A sequenced message is deduplicated first and acked last.
    let seq = match msg {
        CtrlMsg::SeqData { seq, .. } | CtrlMsg::SeqNotif { seq, .. } => Some(seq),
        CtrlMsg::Agg { seq, sequenced, .. } => sequenced.then_some(seq),
        _ => None,
    };
    let fresh = match (seq, retry) {
        (None, _) => true,
        (Some(_), None) => return sink.count(CtrlEvent::Malformed),
        (Some(seq), Some(retry)) => {
            let fresh = retry.accept(src, seq);
            if !fresh {
                sink.count(CtrlEvent::DupSuppressed);
            }
            fresh
        }
    };
    match msg {
        // A duplicate: counted above, acked below, nothing in between.
        _ if !fresh => {}
        CtrlMsg::Companion { key, addend } => sink.apply(key, addend),
        // The sequenced kinds carry key 0 for an unnotified put — bytes,
        // but nothing to apply; the others hand the null key through.
        CtrlMsg::SeqNotif { key, addend, .. } => {
            if key != 0 {
                sink.apply(key, addend);
            }
        }
        // The addend rides with the payload: no data, no signal.
        CtrlMsg::FallbackData {
            region_id,
            offset,
            key,
            addend,
            payload,
        } => {
            if sink.deposit(region_id, offset as u64, payload) {
                sink.apply(key, addend);
            }
        }
        CtrlMsg::SeqData {
            region_id,
            offset,
            key,
            addend,
            payload,
            ..
        } => {
            if sink.deposit(region_id, offset as u64, payload) && key != 0 {
                sink.apply(key, addend);
            }
        }
        CtrlMsg::Agg { body, .. } => {
            let mut landed = true;
            for (region_id, offset, payload) in body.spans() {
                landed &= sink.deposit(region_id, offset, payload);
            }
            for (key, addend) in body.sigs().filter(|&(key, _)| landed && key != 0) {
                sink.apply(key, addend);
            }
        }
        CtrlMsg::FallbackGet {
            region_id,
            offset,
            len,
            reply_region,
            reply_offset,
            reply_key,
            reply_addend,
            remote_key,
            remote_addend,
        } => {
            if let Some(data) = sink.read(region_id, offset as u64, len as u64) {
                // Notify the exposer side (GET remote completion).
                sink.apply(remote_key, remote_addend);
                let reply = wire::fallback_data_msg(
                    reply_region,
                    reply_offset,
                    reply_key,
                    reply_addend,
                    &data,
                );
                sink.reply(src, reply);
            }
        }
        CtrlMsg::Ack { seq } => {
            if let Some(first_post) = retry.and_then(|r| r.ack(src, seq)) {
                sink.count(CtrlEvent::Acked { first_post });
            }
        }
    }
    if let Some(seq) = seq {
        sink.reply(src, wire::ack_msg(seq));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::RetryPolicy;

    /// What a sink was asked to do, in order.
    #[derive(Debug, PartialEq)]
    enum Did {
        Deposit(u32, u64, Vec<u8>, bool),
        Read(u32, u64, u64),
        Apply(u64, i64),
        Reply(usize, Vec<u8>),
        Count(CtrlEvent),
    }

    /// A recording sink over one 64-byte region with id 7.
    #[derive(Default)]
    struct Fake {
        did: Vec<Did>,
    }

    const REGION: u32 = 7;
    const REGION_LEN: u64 = 64;

    fn fits(region: u32, offset: u64, len: u64) -> bool {
        region == REGION && offset.checked_add(len).is_some_and(|end| end <= REGION_LEN)
    }

    impl CtrlSink for Fake {
        fn deposit(&mut self, region: u32, offset: u64, payload: &[u8]) -> bool {
            let landed = fits(region, offset, payload.len() as u64);
            self.did
                .push(Did::Deposit(region, offset, payload.to_vec(), landed));
            landed
        }
        fn read(&mut self, region: u32, offset: u64, len: u64) -> Option<Vec<u8>> {
            self.did.push(Did::Read(region, offset, len));
            fits(region, offset, len).then(|| vec![9; len as usize])
        }
        fn apply(&mut self, key: u64, addend: i64) {
            self.did.push(Did::Apply(key, addend));
        }
        fn reply(&mut self, dst: usize, frame: Vec<u8>) {
            self.did.push(Did::Reply(dst, frame));
        }
        fn count(&mut self, event: CtrlEvent) {
            self.did.push(Did::Count(event));
        }
    }

    fn table() -> RetryState {
        let policy = RetryPolicy {
            timeout: 10,
            max_backoff: 100,
            max_retries: 3,
            fallback_after: 9,
            nics: 1,
            ns_per_byte: 0.0,
        };
        RetryState::new(policy, 4)
    }

    /// Handle `frame` from rank 2 against `retry`; what the sink saw.
    fn run(retry: Option<&RetryState>, frame: &[u8]) -> Vec<Did> {
        let mut sink = Fake::default();
        handle_ctrl(retry, 2, frame, &mut sink);
        sink.did
    }

    fn ack(seq: u64) -> Did {
        Did::Reply(2, wire::ack_msg(seq))
    }

    #[test]
    fn ctrl_payload_that_cannot_land_drops_its_addend_but_is_still_acked() {
        let retry = table();
        let p = [5u8; 4];
        let lands = |region, offset| Did::Deposit(region, offset, p.to_vec(), true);
        let bounces = |region, offset| Did::Deposit(region, offset, p.to_vec(), false);
        // (frame, what the sink must see — nothing more, nothing less)
        let cases: Vec<(&str, Vec<u8>, Vec<Did>)> = vec![
            (
                "seq data in bounds",
                wire::seq_data_msg(0, REGION, 60, 11, -1, &p),
                vec![lands(REGION, 60), Did::Apply(11, -1), ack(0)],
            ),
            (
                "seq data out of bounds",
                wire::seq_data_msg(1, REGION, 61, 11, -1, &p),
                vec![bounces(REGION, 61), ack(1)],
            ),
            (
                "seq data, offset + len overflows",
                wire::seq_data_msg(2, REGION, u64::MAX, 11, -1, &p),
                vec![bounces(REGION, u64::MAX), ack(2)],
            ),
            (
                "seq data, unknown region",
                wire::seq_data_msg(3, REGION + 1, 0, 11, -1, &p),
                vec![bounces(REGION + 1, 0), ack(3)],
            ),
            (
                "seq data, unnotified: bytes but no addend",
                wire::seq_data_msg(4, REGION, 0, 0, 0, &p),
                vec![lands(REGION, 0), ack(4)],
            ),
            (
                "fallback data in bounds (null key handed through)",
                wire::fallback_data_msg(REGION, 0, 0, -1, &p),
                vec![lands(REGION, 0), Did::Apply(0, -1)],
            ),
            (
                "fallback data out of bounds",
                wire::fallback_data_msg(REGION, 62, 11, -1, &p),
                vec![bounces(REGION, 62)],
            ),
            (
                "aggregate in bounds, null signal entries skipped",
                wire::agg_msg(5, true, &[(REGION, 0, 4)], &[(11, -2), (0, -1)], &p),
                vec![lands(REGION, 0), Did::Apply(11, -2), ack(5)],
            ),
            (
                "aggregate, one span of two cannot land: all or nothing",
                wire::agg_msg(
                    6,
                    true,
                    &[(REGION, 0, 4), (REGION, 62, 4)],
                    &[(11, -2), (12, -1)],
                    &[p, p].concat(),
                ),
                vec![lands(REGION, 0), bounces(REGION, 62), ack(6)],
            ),
            (
                "aggregate, unknown region",
                wire::agg_msg(7, true, &[(REGION + 1, 0, 4)], &[(11, -1)], &p),
                vec![bounces(REGION + 1, 0), ack(7)],
            ),
            (
                "unsequenced aggregate: no dedup, no ack",
                wire::agg_msg(0, false, &[(REGION, 8, 4)], &[(11, -1)], &p),
                vec![lands(REGION, 8), Did::Apply(11, -1)],
            ),
            (
                "seq notif",
                wire::seq_notif_msg(8, 11, -3),
                vec![Did::Apply(11, -3), ack(8)],
            ),
            (
                "companion",
                wire::companion_msg(11, -1),
                vec![Did::Apply(11, -1)],
            ),
            (
                "fallback get in bounds: exposer notified, data sent back",
                wire::fallback_get_msg(REGION, 60, 4, 3, 16, 21, -1, 11, -1),
                vec![
                    Did::Read(REGION, 60, 4),
                    Did::Apply(11, -1),
                    Did::Reply(2, wire::fallback_data_msg(3, 16, 21, -1, &[9; 4])),
                ],
            ),
            (
                "fallback get out of bounds: no notification, no reply",
                wire::fallback_get_msg(REGION, 60, u64::MAX, 3, 16, 21, -1, 11, -1),
                vec![Did::Read(REGION, 60, u64::MAX)],
            ),
        ];
        for (what, frame, want) in cases {
            assert_eq!(run(Some(&retry), &frame), want, "{what}");
        }
    }

    #[test]
    fn a_duplicate_is_counted_not_applied_and_acked_again() {
        let retry = table();
        let frames = [
            wire::seq_data_msg(0, REGION, 0, 11, -1, &[1; 4]),
            wire::seq_notif_msg(1, 11, -1),
            wire::agg_msg(2, true, &[(REGION, 0, 4)], &[(11, -1)], &[1; 4]),
        ];
        for (seq, frame) in frames.iter().enumerate() {
            assert!(run(Some(&retry), frame).contains(&Did::Apply(11, -1)));
            let again = run(Some(&retry), frame);
            assert_eq!(
                again,
                [Did::Count(CtrlEvent::DupSuppressed), ack(seq as u64)]
            );
        }
    }

    #[test]
    fn an_ack_settles_its_entry_once() {
        let retry = table();
        let rkey = unr_simnet::RKey {
            rank: 2,
            id: REGION,
            len: 64,
        };
        let reg = retry.register_data(crate::Route::Dgram, vec![1; 4].into(), rkey, 0, 11, -1, 0);
        retry.arm(500, &[(2, reg.seq)]);
        let settled = Did::Count(CtrlEvent::Acked { first_post: 500 });
        assert_eq!(run(Some(&retry), &wire::ack_msg(reg.seq)), [settled]);
        assert_eq!(
            run(Some(&retry), &wire::ack_msg(reg.seq)),
            [],
            "a second ack finds nothing"
        );
        assert_eq!(
            run(None, &wire::ack_msg(reg.seq)),
            [],
            "nor does one with no table"
        );
        assert_eq!(retry.in_flight(), 0);
    }

    /// Peer bytes: every way a frame can fail to be one is dropped and
    /// counted — no panic, nothing deposited, applied or sent.
    #[test]
    fn malformed_frames_are_dropped_and_counted() {
        let retry = table();
        let malformed = [Did::Count(CtrlEvent::Malformed)];
        // Every strict prefix of one frame of every kind. Kinds that end
        // in a payload carry none here, so no prefix is a shorter valid
        // frame; an aggregate's payload is pinned by its span table.
        let whole = [
            wire::companion_msg(11, -1),
            wire::fallback_data_msg(REGION, 0, 11, -1, &[]),
            wire::fallback_get_msg(REGION, 0, 4, 3, 16, 21, -1, 11, -1),
            wire::seq_data_msg(0, REGION, 0, 11, -1, &[]),
            wire::seq_notif_msg(1, 11, -1),
            wire::ack_msg(2),
            wire::agg_msg(
                3,
                true,
                &[(REGION, 0, 4), (REGION, 8, 2)],
                &[(11, -2)],
                &[1; 6],
            ),
        ];
        for frame in &whole {
            for cut in 0..frame.len() {
                assert_eq!(
                    run(Some(&retry), &frame[..cut]),
                    malformed,
                    "{frame:?} cut at {cut}"
                );
            }
            assert_ne!(run(Some(&retry), frame), malformed, "{frame:?} whole");
        }
        // An aggregate whose payload is longer than its spans say.
        let mut long = whole[6].clone();
        long.push(0);
        assert_eq!(run(Some(&retry), &long), malformed);
        // An unknown kind, and an envelope inside an envelope (`admit`
        // strips one; a second is not a message).
        assert_eq!(run(Some(&retry), &[0xEE; 40]), malformed);
        assert_eq!(
            run(Some(&retry), &wire::epoch_wrap(3, &wire::ack_msg(2))),
            malformed
        );
        // Sequenced traffic at a rank that runs no reliable transport.
        for frame in [&whole[3], &whole[4], &whole[6]] {
            assert_eq!(run(None, frame), malformed, "{frame:?} with no table");
        }
    }

    #[test]
    fn stamp_and_admit_fence_the_past_only() {
        let frame = wire::ack_msg(7);
        assert!(
            matches!(stamp(0, &frame), Cow::Borrowed(f) if f == frame),
            "epoch 0 rides bare"
        );
        let stamped = stamp(3, &frame);
        assert_eq!(wire::epoch_unwrap(&stamped), Some((3, &frame[..])));
        assert_eq!(admit(&stamped, || 3), Some(&frame[..]));
        assert_eq!(
            admit(&stamped, || 2),
            Some(&frame[..]),
            "the future is admitted"
        );
        assert_eq!(admit(&stamped, || 4), None, "the past is fenced");
        let bare = admit(&frame, || panic!("a bare frame does not ask for the epoch"));
        assert_eq!(bare, Some(&frame[..]));
    }
}
