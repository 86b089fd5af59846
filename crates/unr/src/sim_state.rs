//! The simulated rank under [`crate::sim::SimTransport`]: the state a
//! simnet engine shares between the application rank and its polling
//! agent, the progress passes both run over it, and the simulator's
//! control-path sink.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use unr_simnet::sync::Mutex;

use unr_simnet::{
    Completion, CompletionKind, CompletionQueue, Endpoint, FabricError, NicSel, Ns, Port, Sched,
};

use crate::channel::Mechanism;
use crate::ctrl::{self, CtrlEvent, CtrlSink, HwMetrics};
use crate::epoch::{Epoch, EpochMetrics};
#[cfg(doc)]
use crate::error::UnrError;
use crate::level::Encoding;
use crate::metrics::RetryMetrics;
use crate::post::UnrCore;
use crate::retry::{Resend, RetryState, Route};
#[cfg(doc)]
use crate::sim::SimTransport;
use crate::sim::UNR_PORT;
use crate::transport::{CtrlFrame, SeqPost};
use crate::wire::CtrlMsg;

/// The simulated rank under the seam: what only a simnet engine has,
/// shared between the application rank's [`SimTransport`] and the
/// polling agent.
pub(crate) struct SimState {
    /// The engine state above the seam.
    pub core: Arc<UnrCore>,
    pub cq: Arc<CompletionQueue>,
    pub port: Arc<Port>,
    pub rmet: Option<RetryMetrics>,
    /// `unr.hw.*` instruments — `Some` iff the selected channel is
    /// hardware-capable (level 4 with `hardware_atomic_add`).
    pub hwmet: Option<HwMetrics>,
    /// Reusable completion-drain buffer: progress passes run many times
    /// per virtual microsecond, and re-allocating the event Vec each
    /// pass was measurable wall-clock churn. Every pass — the rank's or
    /// its agent's — runs inside a scheduler entry, so the lock is never
    /// contended.
    pub scratch: Mutex<Vec<Completion>>,
    /// The rank's endpoint: the agent posts as its rank, regions are
    /// looked up in its fabric, and membership/epoch queries on the
    /// control path read that fabric's lock-free membership atomics.
    pub ep: Arc<Endpoint>,
    /// `unr.epoch.*` / `unr.recovery.*` instruments, registered lazily
    /// at the first membership event so fault-free snapshots carry
    /// none of these series.
    pub emet: OnceLock<EpochMetrics>,
    /// Last membership epoch this engine observed (for bump counting).
    pub last_epoch: AtomicU64,
}

impl SimState {
    // ---- membership / epoch fencing -------------------------------------

    /// One relaxed load: has rank membership ever been armed on this
    /// fabric? This is the only membership cost a fault-free run pays,
    /// which is what keeps the golden seeded traces byte-identical.
    pub(crate) fn membership_on(&self) -> bool {
        self.ep.fabric().membership_active()
    }

    /// Fast wait-predicate check: is any rank currently dead? (Waiters
    /// must fail fast with [`UnrError::PeerFailed`] instead of parking
    /// on an addend whose source can never send it.)
    pub(crate) fn dead_peer(&self) -> bool {
        self.membership_on() && self.ep.fabric().num_dead() > 0
    }

    /// The lazily-registered epoch/recovery instruments.
    pub(crate) fn emet(&self) -> &EpochMetrics {
        self.emet
            .get_or_init(|| EpochMetrics::new(&self.ep.fabric().obs))
    }

    /// Read the fabric's membership epoch, counting any advance since
    /// the last observation into `unr.epoch.bumps`.
    pub(crate) fn observe_epoch(&self) -> Epoch {
        let cur = self.ep.fabric().membership_epoch();
        let prev = self.last_epoch.swap(cur, Ordering::Relaxed);
        if cur > prev {
            self.emet().bumps.add(cur - prev);
        }
        Epoch::new(cur)
    }

    /// Fence an incoming control frame: unwrap the epoch envelope if
    /// present and reject stale-epoch frames (the membership analogue
    /// of the signal table's stale-generation reject). Returns the
    /// inner frame, or `None` when the frame was fenced.
    fn admit_ctrl<'a>(&self, bytes: &'a [u8]) -> Option<&'a [u8]> {
        let frame = ctrl::admit(bytes, || self.observe_epoch().raw());
        if frame.is_none() {
            self.emet().stale_rejects.inc();
        }
        frame
    }

    /// Stamp an outgoing control frame with the sender's current epoch
    /// once membership is active; bare frames otherwise, so fault-free
    /// wire traffic is byte-identical to pre-epoch builds.
    pub(crate) fn stamp_ctrl(&self, bytes: Vec<u8>) -> Vec<u8> {
        if !self.membership_on() {
            return bytes;
        }
        ctrl::stamp(self.observe_epoch().raw(), &bytes).into_owned()
    }

    /// Drain reliable in-flight traffic addressed to dead ranks so it
    /// is neither retransmitted at a corpse nor counted as exhaustion
    /// (`unr.recovery.drained_subs`), then wake waiters so their
    /// predicates re-evaluate against the new membership.
    fn drain_dead(&self, sched: &mut Sched, t: Ns) {
        if !self.membership_on() {
            return;
        }
        let Some(retry) = &self.core.retry else {
            return;
        };
        if self.ep.fabric().num_dead() == 0 {
            return;
        }
        let mut drained = 0usize;
        for r in 0..self.ep.fabric().cfg.total_ranks() {
            if !self.ep.fabric().rank_alive(r) {
                drained += retry.drain_dst(r);
            }
        }
        if drained > 0 {
            self.emet().drained_subs.add(drained as u64);
            for w in retry.take_waiters() {
                sched.wake(w, t);
            }
        }
    }

    /// Drain completion events and control messages once; apply the
    /// notifications. Returns (events processed, replies to send);
    /// `work.1` accumulates fallback payload bytes (the receive-side
    /// copy the poller must perform).
    fn progress_pass(
        &self,
        sched: &mut Sched,
        t: Ns,
        replies: &mut Vec<Resend>,
    ) -> (usize, usize, usize) {
        let mut n = 0;
        let mut fb_bytes = 0usize;
        let mut fb_msgs = 0usize;
        // Reuse the drain buffer across passes. Batching the whole CQ
        // into one drain keeps the per-event cost to a slice iteration.
        let mut events = self.scratch.lock();
        events.clear();
        self.cq.drain(usize::MAX, &mut events);
        if let Mechanism::Rma(enc) = self.core.channel.mech {
            for e in events.iter() {
                let encoding = match e.kind {
                    CompletionKind::PutLocal => Some(enc.put_local),
                    CompletionKind::PutRemote => Some(enc.put_remote),
                    CompletionKind::GetLocal => Some(enc.get_local),
                    CompletionKind::GetRemote => enc.get_remote,
                };
                if let Some(encoding) = encoding {
                    let notif = encoding.decode(e.custom);
                    self.core.table.apply(sched, t, notif.key, notif.addend);
                    self.core.met.sig_adds.inc();
                }
                n += 1;
            }
        } else {
            // Level-0: local completions carry Split64 custom bits.
            for e in events.iter() {
                let notif = Encoding::Split64.decode(e.custom);
                self.core.table.apply(sched, t, notif.key, notif.addend);
                self.core.met.sig_adds.inc();
                n += 1;
            }
        }
        // Adaptive trim: a burst can balloon the scratch capacity; give
        // the excess back once steady-state batches are much smaller.
        // Purely a real-time memory knob — virtual time never sees it.
        let cap = events.capacity();
        if cap > 4096 && events.len() < cap / 4 {
            events.shrink_to(cap / 2);
        }
        drop(events);
        let (cn, c_bytes, c_msgs) = self.ctrl_pass(sched, t, replies);
        n += cn;
        fb_bytes += c_bytes;
        fb_msgs += c_msgs;
        self.count_pass(n);
        (n, fb_bytes, fb_msgs)
    }

    /// Account one pass's drained completions and control messages.
    fn count_pass(&self, n: usize) {
        let core = &self.core;
        core.stats
            .events_progressed
            .fetch_add(n as u64, Ordering::Relaxed);
        core.met.events_progressed.add(n as u64);
        core.met.progress_batch.record(n as u64);
    }

    /// The control half of [`SimState::progress_pass`]: drain the control
    /// port, retire traffic to dead ranks and sweep retransmit
    /// deadlines — without touching the CQ. This is the whole pass of
    /// the hybrid control drainer (DESIGN.md §5g): under a hardware
    /// channel every completion routes to the level-4 sink and the CQ
    /// is empty by construction, so skipping its drain is virtual-time
    /// neutral and keeps hybrid runs byte-identical to
    /// `PollingAgent { interval: 0 }` runs of the same seed.
    fn ctrl_pass(
        &self,
        sched: &mut Sched,
        t: Ns,
        replies: &mut Vec<Resend>,
    ) -> (usize, usize, usize) {
        let mut n = 0;
        let mut fb_bytes = 0usize;
        let mut fb_msgs = 0usize;
        while let Some(d) = self.port.try_pop() {
            n += 1;
            // Membership fence: unwrap the epoch envelope (bare frames
            // pass through) and drop stale-epoch frames before the
            // control path ever parses them.
            let Some(frame) = self.admit_ctrl(&d.bytes) else {
                continue;
            };
            if frame
                .first()
                .is_some_and(|&kind| CtrlMsg::is_data_bearing(kind))
            {
                fb_bytes += frame.len();
                fb_msgs += 1;
            }
            let mut sink = SimSink {
                sim: self,
                sched: &mut *sched,
                t,
                replies: &mut *replies,
                lost: d.lost,
            };
            if d.lost {
                sink.bad_dma();
            }
            ctrl::handle_ctrl(self.core.retry.as_deref(), d.src, frame, &mut sink);
        }
        self.drain_dead(sched, t);
        self.sweep_retries(sched, t, replies);
        (n, fb_bytes, fb_msgs)
    }

    /// Retransmit expired sub-messages (scheduler context): escalate
    /// NIC rotation / fallback rerouting, re-arm deadline wake-ups and
    /// wake waiters when the channel goes down. The actual (re)posts
    /// ride `replies` out of scheduler context.
    fn sweep_retries(&self, sched: &mut Sched, t: Ns, replies: &mut Vec<Resend>) {
        let Some(retry) = &self.core.retry else {
            return;
        };
        if !retry.is_due() {
            return;
        }
        let out = retry.sweep(t);
        if let Some(rm) = &self.rmet {
            rm.timeouts.add(out.resends.len() as u64 + out.exhausted);
            rm.retransmits.add(out.resends.len() as u64);
            rm.exhausted.add(out.exhausted);
            rm.nic_rotations.add(out.nic_rotations);
            rm.fallback_msgs.add(out.fallback_reroutes);
        }
        for d in out.new_deadlines {
            schedule_deadline(sched, retry, d);
        }
        if out.exhausted > 0 {
            for w in retry.take_waiters() {
                sched.wake(w, t);
            }
        }
        replies.extend(out.resends);
    }

    /// One pass of the rank's agent: the whole
    /// [`SimState::progress_pass`], or — the hybrid control drainer —
    /// [`SimState::ctrl_pass`] only: the level-4 sink already owns the
    /// data path, so the CQ is never touched (DESIGN.md §5g), and the
    /// drained messages also count in `unr.hw.ctrl_msgs`.
    pub(crate) fn agent_pass(
        &self,
        sched: &mut Sched,
        t: Ns,
        ctrl_only: bool,
        replies: &mut Vec<Resend>,
    ) -> (usize, usize, usize) {
        if !ctrl_only {
            return self.progress_pass(sched, t, replies);
        }
        let pass = self.ctrl_pass(sched, t, replies);
        self.count_pass(pass.0);
        if let Some(hw) = &self.hwmet {
            hw.ctrl_msgs.add(pass.0 as u64);
        }
        pass
    }

    /// The fallback channel's receive side for `msgs` messages of
    /// `bytes` in all: the bounce-buffer copy plus the per-message
    /// MPI-stack overhead.
    pub(crate) fn fallback_cost(&self, bytes: usize, msgs: usize) -> Ns {
        self.core.copy_bw.transfer_time(bytes) + msgs as Ns * self.core.cfg.fallback_overhead
    }

    /// Send one reply a pass computed, at `t` from this rank
    /// (scheduler context); returns the post overhead to charge next.
    /// Stamped at send time: a retransmission of a pre-kill sub-message
    /// goes out under the *current* epoch, which is how surviving ranks'
    /// traffic heals through the epoch fence after a membership bump.
    pub(crate) fn send_reply_at(&self, sched: &mut Sched, t: Ns, reply: Resend) -> Ns {
        let ep = &self.ep;
        match reply {
            Resend::Dgram { dst, bytes, .. } => {
                let frame = self.stamp_ctrl(bytes.into_vec());
                ep.send_dgram_at(sched, t, dst, UNR_PORT, frame, NicSel::Auto)
            }
            Resend::Rma {
                payload,
                dst_rkey,
                dst_offset,
                nic,
                companion,
            } => {
                let companion = Some((UNR_PORT, self.stamp_ctrl(companion)));
                ep.put_bytes_at(
                    sched,
                    t,
                    payload,
                    dst_rkey,
                    dst_offset,
                    NicSel::Index(nic),
                    companion,
                )
                .expect("retransmit targets a validated region")
            }
        }
    }

    /// The first transmission of one registered sub-message, at `t`
    /// from this rank (scheduler context), stamped at its send as a
    /// retransmission is; returns the post overhead to charge next.
    pub(crate) fn post_seq_at(
        &self,
        sched: &mut Sched,
        t: Ns,
        post: SeqPost,
    ) -> Result<Ns, FabricError> {
        let frame = self.stamp_ctrl(post.frame.into_vec());
        let ep = &self.ep;
        match post.route {
            Route::Rma => {
                let companion = Some((UNR_PORT, frame));
                ep.put_bytes_at(
                    sched,
                    t,
                    post.payload,
                    post.dst,
                    post.dst_offset,
                    post.nic,
                    companion,
                )
            }
            Route::Dgram | Route::Agg => {
                Ok(ep.send_dgram_at(sched, t, post.dst.rank, UNR_PORT, frame, post.nic))
            }
        }
    }

    /// One [`SimState::progress_pass`] on the rank's own actor (the
    /// progress of `UserDriven` mode), then its fallback copy and each
    /// reply with its post overhead, one scheduler entry each — the
    /// agent's steps, on a thread. Returns the number of events processed.
    pub(crate) fn progress_on(&self) -> usize {
        let actor = self.ep.actor();
        let mut replies = Vec::new();
        let (n, fb_bytes, fb_msgs) =
            actor.with_sched(|st, t| self.progress_pass(st, t, &mut replies));
        if fb_msgs > 0 {
            actor.advance(self.fallback_cost(fb_bytes, fb_msgs));
        }
        for reply in replies {
            actor.post(|st, t| ((), self.send_reply_at(st, t, reply)));
        }
        n
    }
}

/// The simulator under [`ctrl::handle_ctrl`]: one control frame's view
/// of a progress pass — scheduler context, the pass's virtual time and
/// the replies it will send once out of that context.
struct SimSink<'a> {
    sim: &'a SimState,
    sched: &'a mut Sched,
    t: Ns,
    replies: &'a mut Vec<Resend>,
    /// The frame is the companion of a put whose bytes did not land:
    /// it is deduplicated and acked, but its addend is not applied.
    lost: bool,
}

impl SimSink<'_> {
    /// Count a span that could not land or be read. Registered on
    /// first use, so a fault-free snapshot does not carry the series.
    fn bad_dma(&self) {
        let metrics = &self.sim.ep.fabric().obs.metrics;
        metrics.counter("unr.ctrl.bad_dma").inc();
    }
}

impl CtrlSink for SimSink<'_> {
    fn deposit(&mut self, region: u32, offset: u64, payload: &[u8]) -> bool {
        let region = self.sim.ep.region(region);
        let landed = region.is_some_and(|r| r.write_bytes(offset as usize, payload).is_ok());
        if !landed {
            self.bad_dma();
        }
        landed
    }

    fn read(&mut self, region: u32, offset: u64, len: u64) -> Option<Vec<u8>> {
        let region = self.sim.ep.region(region);
        let data = region.and_then(|r| r.snapshot(offset as usize, len as usize).ok());
        if data.is_none() {
            self.bad_dma();
        }
        data
    }

    fn apply(&mut self, key: u64, addend: i64) {
        // No data, no signal.
        if self.lost {
            return;
        }
        self.sim.core.table.apply(self.sched, self.t, key, addend);
        self.sim.core.met.sig_adds.inc();
    }

    fn reply(&mut self, dst: usize, bytes: Vec<u8>) {
        // A simnet datagram picks its own NIC.
        let bytes = CtrlFrame::Owned(bytes);
        self.replies.push(Resend::Dgram { dst, nic: 0, bytes });
    }

    fn count(&mut self, event: CtrlEvent) {
        match (event, &self.sim.rmet) {
            (CtrlEvent::Malformed, _) => {
                let metrics = &self.sim.ep.fabric().obs.metrics;
                metrics.counter("unr.ctrl.malformed").inc()
            }
            (CtrlEvent::DupSuppressed, Some(rm)) => rm.dup_suppressed.inc(),
            (CtrlEvent::Acked { first_post }, Some(rm)) => {
                rm.acks.inc();
                // first_post == 0 means the ack beat `arm`; there is no
                // meaningful post time to sample.
                if first_post > 0 {
                    rm.ack_latency.record(self.t.saturating_sub(first_post));
                }
            }
            (_, None) => {}
        }
    }
}

/// Arm one retransmit-deadline wake-up: at `d` the table is marked due
/// and whoever waits on it — a parked progress driver, a reliable
/// signal waiter — runs.
pub(crate) fn schedule_deadline(sched: &mut Sched, retry: &Arc<RetryState>, d: Ns) {
    let r = Arc::clone(retry);
    sched.schedule_at(d, move |st2| {
        r.set_due();
        for w in r.take_waiters() {
            st2.wake(w, d);
        }
    });
}
