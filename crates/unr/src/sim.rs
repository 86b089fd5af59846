//! The simulator side of the UNR context (paper §IV): [`SimTransport`]
//! — registration, the progress pass and the polling agent on a
//! simulated rank — and `Unr::init`, the simulator's facts and transport
//! handed to [`Unr::bring_up`]. The put, get, wait and rank-level calls
//! over it are [`crate::post`]'s and [`crate::wait`]'s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use unr_simnet::sync::Mutex;

use unr_simnet::{
    AtomicAddSink, Completion, CompletionKind, CompletionQueue, Endpoint, GetOp, MemRegion, NicSel,
    Ns, Port, PutOp, Sched,
};

use crate::agent::AgentState;
use crate::channel::{Channel, Mechanism};
use crate::config::{ProgressMode, UnrConfig};
use crate::ctrl::{self, CtrlEvent, CtrlSink, HwMetrics, TableSink};
use crate::epoch::{Epoch, EpochMetrics, MembershipView, PeerFailedCause};
use crate::error::UnrError;
use crate::level::Encoding;
use crate::metrics::RetryMetrics;
use crate::post::{FabricFacts, Unr, UnrCore};
use crate::retry::{Resend, RetryState, Route};
use crate::transport::{CtrlFrame, RmaOp, SeqPost, Transport};
use crate::wait::{Until, Woke};
use crate::wire::CtrlMsg;

/// Fabric port carrying UNR control traffic (fallback data, level-0
/// companion messages, fallback GET requests, and the self-healing
/// transport's sequenced sub-messages and acks). Frame layouts live in
/// [`crate::wire`].
pub const UNR_PORT: u32 = 0x554E; // "UN"

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
    fn stamp_ctrl(&self, bytes: Vec<u8>) -> Vec<u8> {
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
            };
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

    /// One [`SimState::progress_pass`] on the rank's own actor (the
    /// progress of `UserDriven` mode), then its fallback copy and each
    /// reply, one scheduler entry each — the agent's steps, on a
    /// thread. Returns the number of events processed.
    fn progress_on(&self) -> usize {
        let actor = self.ep.actor();
        let mut replies = Vec::new();
        let (n, fb_bytes, fb_msgs) =
            actor.with_sched(|st, t| self.progress_pass(st, t, &mut replies));
        if fb_msgs > 0 {
            actor.advance(self.fallback_cost(fb_bytes, fb_msgs));
        }
        for reply in replies {
            let overhead = actor.with_sched(|st, t| self.send_reply_at(st, t, reply));
            actor.advance(overhead);
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
        let landed = self
            .sim
            .ep
            .region(region)
            .is_some_and(|r| r.write_bytes(offset as usize, payload).is_ok());
        if !landed {
            self.bad_dma();
        }
        landed
    }

    fn read(&mut self, region: u32, offset: u64, len: u64) -> Option<Vec<u8>> {
        let data = self
            .sim
            .ep
            .region(region)
            .and_then(|r| r.snapshot(offset as usize, len as usize).ok());
        if data.is_none() {
            self.bad_dma();
        }
        data
    }

    fn apply(&mut self, key: u64, addend: i64) {
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
fn schedule_deadline(sched: &mut Sched, retry: &Arc<RetryState>, d: Ns) {
    let r = Arc::clone(retry);
    sched.schedule_at(d, move |st2| {
        r.set_due();
        for w in r.take_waiters() {
            st2.wake(w, d);
        }
    });
}

/// The simulator under the post path — [`Transport`]'s simnet
/// implementor: the state the application rank shares with its polling
/// agent, and that agent.
pub struct SimTransport {
    pub(crate) sim: Arc<SimState>,
    pub(crate) agent: Mutex<Option<AgentState>>,
    /// The latest wait deadline whose wake-up has run: a timed wait has
    /// expired once this reaches its own.
    timer: Arc<AtomicU64>,
}

impl Transport for SimTransport {
    fn rank(&self) -> usize {
        self.sim.ep.rank()
    }

    fn nranks(&self) -> usize {
        self.sim.ep.fabric().cfg.total_ranks()
    }

    fn nics(&self) -> usize {
        self.sim.ep.fabric().cfg.nics_per_node
    }

    fn register(&self, len: usize) -> MemRegion {
        self.sim.ep.register(len, &self.sim.cq)
    }

    fn region(&self, id: u32) -> Option<MemRegion> {
        self.sim.ep.region(id)
    }

    fn put(&self, op: RmaOp<'_>, companion: Option<Vec<u8>>) -> Result<(), UnrError> {
        self.sim.ep.put(PutOp {
            src: op.local,
            src_offset: op.local_offset,
            len: op.len,
            dst: op.remote,
            dst_offset: op.remote_offset,
            nic: op.nic,
            custom_local: op.custom_local,
            custom_remote: op.custom_remote,
            local_cq: op.notify_local.then(|| Arc::clone(&self.sim.cq)),
            notify_remote: op.notify_remote,
            companion: companion.map(|c| (UNR_PORT, self.sim.stamp_ctrl(c))),
        })?;
        Ok(())
    }

    fn get(&self, op: RmaOp<'_>) -> Result<(), UnrError> {
        self.sim.ep.get(GetOp {
            dst: op.local,
            dst_offset: op.local_offset,
            len: op.len,
            src: op.remote,
            src_offset: op.remote_offset,
            nic: op.nic,
            custom_local: op.custom_local,
            custom_remote: op.custom_remote,
            local_cq: op.notify_local.then(|| Arc::clone(&self.sim.cq)),
            notify_remote: op.notify_remote,
        })?;
        Ok(())
    }

    fn sub_route(&self) -> Route {
        Route::Rma
    }

    fn post_seq(&self, post: SeqPost<'_>) -> Result<(), UnrError> {
        let frame = self.sim.stamp_ctrl(post.frame.into_vec());
        match post.route {
            Route::Rma => self.sim.ep.put_bytes(
                post.payload.clone(),
                post.dst,
                post.dst_offset,
                post.nic,
                Some((UNR_PORT, frame)),
            )?,
            Route::Dgram | Route::Agg => {
                self.sim
                    .ep
                    .send_dgram(post.dst.rank, UNR_PORT, frame, post.nic)
            }
        }
        Ok(())
    }

    fn send_ctrl(&self, dst: usize, nic: NicSel, frame: Vec<u8>) -> Result<(), UnrError> {
        let frame = self.sim.stamp_ctrl(frame);
        self.sim.ep.send_dgram(dst, UNR_PORT, frame, nic);
        Ok(())
    }

    fn charge(&self, ns: Ns) {
        self.sim.ep.advance(ns);
    }

    fn complete(&self, entries: &[(usize, u64)], locals: &[(u64, i64)]) {
        if entries.is_empty() && locals.iter().all(|&(key, _)| key == 0) {
            return;
        }
        let core = &self.sim.core;
        // One scheduler entry arms the deadline wake-ups AND applies
        // the local addends.
        self.sim.ep.actor().with_sched(|st, t| {
            if let Some(retry) = &core.retry {
                for d in retry.arm(t, entries) {
                    schedule_deadline(st, retry, d);
                }
            }
            for &(key, addend) in locals {
                if key != 0 {
                    core.table.apply(st, t, key, addend);
                    core.met.sig_adds.inc();
                }
            }
        });
    }

    fn peer_alive(&self, dst: usize) -> bool {
        !self.sim.membership_on() || self.sim.ep.fabric().rank_alive(dst)
    }

    /// A membership kill beats retry exhaustion as the cause, and then
    /// the lowest-numbered dead rank names the peer.
    /// `unr.recovery.peer_failures` counts every surfaced failure — but
    /// only once the membership layer is active, so packet-fault-only
    /// runs keep their pre-epoch metric snapshot.
    fn peer_failed(&self, rank: usize, cause: PeerFailedCause) -> UnrError {
        let sim = &self.sim;
        let (rank, cause) = match cause {
            PeerFailedCause::RetryExhausted { .. } if sim.dead_peer() => (
                sim.ep.fabric().first_dead_rank().unwrap_or(0),
                PeerFailedCause::Killed,
            ),
            _ => (rank, cause),
        };
        let epoch = if sim.membership_on() {
            sim.emet().peer_failures.inc();
            sim.observe_epoch()
        } else {
            Epoch::ZERO
        };
        UnrError::PeerFailed { rank, epoch, cause }
    }

    /// Observing the epoch also settles any advance since the last
    /// observation into `unr.epoch.bumps`.
    fn epoch(&self) -> Epoch {
        self.sim.observe_epoch()
    }

    /// A scheduler wait on the signals and the retry table while an
    /// agent (or the hardware) progresses; when the rank drives progress
    /// itself, a pass and then a park on the CQ, port and retry table. A
    /// timed wait first arms its deadline, in its own scheduler entry.
    fn park(&self, until: &Until<'_>) -> Woke {
        let sim = &self.sim;
        let retry = sim.core.retry.as_deref();
        let actor = self.sim.ep.actor();
        let deadline = until.deadline(None, |dt| {
            let (me, timer) = (actor.id(), Arc::clone(&self.timer));
            actor.with_sched(move |st, t| {
                let d = t + dt;
                st.schedule_at(d, move |st2| {
                    timer.fetch_max(d, Ordering::SeqCst);
                    st2.wake(me, d);
                });
                d
            })
        });
        let expired = || deadline.is_some_and(|d| self.timer.load(Ordering::SeqCst) >= d);
        let over = || until.met(retry) || expired() || sim.dead_peer();
        match sim.core.progress_mode {
            ProgressMode::PollingAgent { .. } | ProgressMode::Hardware => {
                actor.wait_until(
                    |_st| over(),
                    |_st, me| {
                        for s in until.sigs {
                            s.register_waiter(me);
                        }
                        if let Some(r) = retry {
                            r.add_waiter(me);
                        }
                    },
                );
            }
            ProgressMode::UserDriven => {
                sim.progress_on();
                if !over() {
                    // Until anything arrives that could progress us —
                    // a retransmit deadline and the wait's own included.
                    actor.wait_until(
                        |_st| {
                            !sim.cq.is_empty()
                                || !sim.port.is_empty()
                                || retry.is_some_and(|r| r.is_due() || r.failed())
                                || expired()
                                || sim.dead_peer()
                        },
                        |_st, me| {
                            sim.cq.add_waiter(me);
                            sim.port.add_waiter(me);
                            if let Some(r) = retry {
                                r.add_waiter(me);
                            }
                        },
                    );
                }
            }
        }
        if sim.dead_peer() {
            Woke::PeerDead
        } else if expired() {
            Woke::Expired
        } else {
            Woke::Retest
        }
    }

    fn progress_once(&self) -> usize {
        self.sim.progress_on()
    }

    fn shutdown(&self) {
        self.stop_agent();
    }

    fn now(&self) -> Ns {
        self.sim.ep.now()
    }

    fn sleep(&self, dt: Ns) {
        self.sim.ep.sleep(dt);
    }

    fn obs(&self) -> &unr_obs::Obs {
        &self.sim.ep.fabric().obs
    }
}

impl SimTransport {
    /// The rank's transport over `core`: its completion queue and control
    /// port, the level-4 sink on a hardware channel, and the agent its
    /// progress mode runs.
    fn new(ep: Arc<Endpoint>, core: &Arc<UnrCore>) -> SimTransport {
        let cq = ep.create_cq();
        let port = ep.open_port(UNR_PORT);
        let fabric = Arc::clone(ep.fabric());
        let (channel, reliable) = (core.channel, core.retry.is_some());
        let hwmet = channel.hardware.then(|| HwMetrics::new(&fabric.obs));
        if let Some(hw) = &hwmet {
            // A level-4 NIC applies *p += a itself, whatever the software
            // progress mode is; without the sink every notification would
            // be silently lost (hardware channels post no CQ events).
            let sink = TableSink::new(Arc::clone(&core.table), &fabric.obs, Some(hw.clone()));
            ep.set_add_sink(Arc::new(sink));
        }
        let sim = Arc::new(SimState {
            core: Arc::clone(core),
            cq,
            port,
            rmet: reliable.then(|| RetryMetrics::new(&fabric.obs)),
            hwmet,
            scratch: Mutex::new(Vec::new()),
            ep,
            emet: OnceLock::new(),
            last_epoch: AtomicU64::new(0),
        });
        let tx = SimTransport {
            sim,
            agent: Mutex::new(None),
            timer: Arc::new(AtomicU64::new(0)),
        };
        match core.progress_mode {
            ProgressMode::Hardware => {
                assert!(
                    channel.hardware,
                    "Hardware progress requires a level-4 fabric (hardware atomic add)"
                );
                // Hybrid progress (DESIGN.md §5g): the sink above owns
                // the data path; if the config also runs the reliable
                // transport or the coalescer, a ctrl-only drainer keeps
                // acks/retransmits/`MSG_AGG`/`MSG_EPOCH` flowing. Pure
                // notified-RMA traffic starts no software agent at all.
                if reliable || core.cfg.agg_eager_max > 0 {
                    tx.spawn_agent(0, true);
                }
            }
            ProgressMode::PollingAgent { interval } => tx.spawn_agent(interval, false),
            ProgressMode::UserDriven => {}
        }
        tx
    }
}

impl Drop for SimTransport {
    fn drop(&mut self) {
        // An unwinding rank leaves its agent be: the world runner is
        // about to poison the scheduler, and a callback has no thread to
        // stop. A shutdown would wait in a world that may never run it.
        if !std::thread::panicking() {
            self.shutdown();
        }
    }
}

/// What only the simnet engine has: `init` and the membership view
/// (netfab keeps no per-rank generations to report).
impl Unr {
    /// Initialize UNR on this rank: [`Unr::bring_up`] over the
    /// simulator. The channel is selected from the fabric's interface
    /// (Table II) unless forced by `cfg.channel`.
    ///
    /// # Panics
    ///
    /// On a config [`UnrConfig::validate`] rejects, with its
    /// [`UnrError::InvalidConfig`] message.
    pub fn init(ep: Arc<Endpoint>, cfg: UnrConfig) -> Arc<Unr> {
        let fabric = Arc::clone(ep.fabric());
        let fcfg = &fabric.cfg;
        let facts = FabricFacts {
            nranks: fcfg.total_ranks(),
            nics: fcfg.nics_per_node,
            faults: fcfg.faults.enabled(),
            // Approximate wire cost per byte for deadline scaling.
            ns_per_byte: fcfg.nic.bandwidth.transfer_time(4096) as f64 / 4096.0,
            min_rto: 0,
            min_backoff_cap: 0,
        };
        let channel = Channel::select(&ep.iface(), cfg.channel);
        let unr = Self::bring_up(cfg, channel, facts, &fabric.obs, |core| {
            SimTransport::new(ep, core)
        });
        Arc::new(unr.unwrap_or_else(|e| panic!("{e}")))
    }

    /// A consistent snapshot of rank membership: epoch, liveness and
    /// incarnation generation of every rank.
    ///
    /// Fault-free runs get the epoch-0 all-live view without touching
    /// any membership state.
    pub fn membership_view(&self) -> MembershipView {
        let sim = &self.tx.sim;
        let fabric = sim.ep.fabric();
        let n = fabric.cfg.total_ranks();
        if !sim.membership_on() {
            return MembershipView::world(n);
        }
        MembershipView {
            epoch: sim.observe_epoch(),
            live: (0..n).map(|r| fabric.rank_alive(r)).collect(),
            generation: (0..n).map(|r| fabric.rank_generation(r)).collect(),
        }
    }
}

/// Level-4 sink: the "NIC" applies `*p += a` (paper §IV-C) in
/// scheduler context, waking the signal's waiter. The fabric never
/// pushes a completion for sink-routed traffic, which
/// `unr.hw.cq_bypass` accounts one-for-one.
impl AtomicAddSink for TableSink {
    fn apply(&self, sched: &mut Sched, t: Ns, custom: u128) {
        if let Some(n) = self.decode(custom) {
            self.table.apply(sched, t, n.key, n.addend);
        }
    }
}
