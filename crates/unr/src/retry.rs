//! Self-healing transport state: sequence numbers, ack/replay,
//! timeouts with bounded exponential backoff, and failover.
//!
//! When reliability is active (see [`Reliability`]) every PUT
//! sub-message and fallback datagram carries a per-destination
//! **sequence number** and is buffered here until the receiver's ack
//! comes back. The receiver keeps a [`DedupWindow`] per source so
//! duplicated or replayed sub-messages are applied **exactly once** —
//! the MMAS addend accounting of [`crate::signal`] stays exact under
//! retries. A progress pass sweeps the due entries
//! (`RetryState::sweep`) and retransmits expired ones with exponential backoff,
//! rotating NICs (so a flapping NIC is escaped) and, after `fallback_after` attempts,
//! rerouting through the datagram fallback channel. When a sub-message
//! exhausts `max_retries` the peer is declared failed: waiters are
//! woken and surface [`UnrError::PeerFailed`](crate::UnrError) with
//! [`PeerFailedCause::RetryExhausted`](crate::epoch::PeerFailedCause).
//!
//! # Sharded locking
//!
//! The state is sharded by rank so concurrent ranks/agents do not
//! serialize on one global mutex: each **destination** rank gets its own
//! send-side shard (pending map, sequence counter, queued-byte gauge)
//! and each **source** rank its own receive-side dedup window; the rare
//! control data (parked waiters, first-failure detail) sits behind a
//! separate small mutex. Posting to rank `a` therefore never contends
//! with acking rank `b` or deduping arrivals from rank `c`. Sweeps
//! visit destination shards in rank order and entries in sequence
//! order — the same total order the previous single-map implementation
//! produced, so retransmission schedules (and seeded traces) are
//! unchanged. Buffered payloads are [`Bytes`] — reference-counted
//! views — so buffering and every retransmission share one allocation
//! with the original post instead of copying the payload.
//!
//! All bookkeeping is plain state guarded by the poison-recovering
//! mutex; the table never reads a clock and never schedules. Time is
//! whatever `Ns` its caller hands to [`RetryState::arm`] and
//! [`RetryState::sweep`]: the simnet engine passes virtual time from
//! scheduler context and arms one wake-up event per new deadline, so
//! the retry layer stays deterministic; `unr-netfab` passes wall-clock
//! nanoseconds since its engine started and sleeps its progress thread
//! until [`SweepOutcome::next_deadline`]. Both engines run this one
//! table; only the wire under it differs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use unr_simnet::sync::Mutex;
use unr_simnet::{ActorId, Bytes, Ns, RKey};

use crate::wire;

/// Whether the engine runs the ack/replay protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reliability {
    /// Reliable iff the fabric has fault injection enabled — the
    /// right default: zero overhead on a perfect network, self-healing
    /// on a lossy one.
    #[default]
    Auto,
    /// Always run the ack/replay protocol.
    On,
    /// Never retry, even under injected faults (for loss experiments).
    Off,
}

/// Exactly-once receive filter: one per (receiver, source) pair.
///
/// `floor` is the lowest sequence number not yet known to be received;
/// everything below it has been seen. Out-of-order arrivals above the
/// floor sit in `seen` until the gap fills, so memory is bounded by
/// the network's reordering depth, not by the run length.
#[derive(Debug, Default)]
pub struct DedupWindow {
    floor: u64,
    seen: BTreeSet<u64>,
}

impl DedupWindow {
    /// Record `seq`; returns `true` iff it is fresh (first delivery).
    pub fn insert(&mut self, seq: u64) -> bool {
        if seq < self.floor || !self.seen.insert(seq) {
            return false;
        }
        while self.seen.remove(&self.floor) {
            self.floor += 1;
        }
        true
    }

    /// Lowest sequence number not yet seen (diagnostics, tests).
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Out-of-order entries currently buffered (diagnostics, tests).
    pub fn pending(&self) -> usize {
        self.seen.len()
    }
}

/// How a buffered sub-message should be (re)sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// RMA put of the buffered payload + companion notification.
    Rma,
    /// `MSG_SEQ_DATA` datagram through the fallback channel.
    Dgram,
    /// Coalesced aggregate (`MSG_AGG`): the buffered payload *is* the
    /// complete pre-built control frame — retransmissions resend it
    /// verbatim, so one entry covers every put packed inside it. Never
    /// rerouted: it is already on the datagram channel.
    Agg,
}

/// One unacked sub-message, buffered for replay.
struct PendingSub {
    dst_rank: usize,
    seq: u64,
    /// Payload snapshot taken at the original post (retransmits must
    /// resend these bytes even if the app reused its buffer since).
    /// A refcounted view: registration and every resend share the
    /// snapshot the post itself made — zero copies in the retry layer.
    payload: Bytes,
    dst_rkey: RKey,
    dst_offset: usize,
    /// Raw key of the remote signal (0 = none) and this sub-message's
    /// striped addend — replayed verbatim so accounting stays exact.
    remote_key: u64,
    addend: i64,
    route: Route,
    attempts: u32,
    nic: usize,
    first_post: Ns,
    deadline: Ns,
}

impl PendingSub {
    /// A fresh entry: never retransmitted, unarmed (see
    /// [`RetryState::arm`]).
    #[allow(clippy::too_many_arguments)]
    fn new(
        seq: u64,
        route: Route,
        payload: Bytes,
        dst_rkey: RKey,
        dst_offset: usize,
        remote_key: u64,
        addend: i64,
        nic: usize,
    ) -> PendingSub {
        PendingSub {
            dst_rank: dst_rkey.rank,
            seq,
            payload,
            dst_rkey,
            dst_offset,
            remote_key,
            addend,
            route,
            attempts: 0,
            nic,
            first_post: 0,
            deadline: Ns::MAX,
        }
    }

    /// The control frame that carries this sub-message on the datagram
    /// channel: its [`wire::MSG_SEQ_DATA`] image, or — for an aggregate,
    /// whose payload already *is* its [`wire::MSG_AGG`] frame — the
    /// buffered bytes verbatim.
    fn dgram_frame(&self) -> Vec<u8> {
        if self.route == Route::Agg {
            return self.payload.to_vec();
        }
        wire::seq_data_msg(
            self.seq,
            self.dst_rkey.id,
            self.dst_offset as u64,
            self.remote_key,
            self.addend,
            &self.payload,
        )
    }

    /// The [`wire::MSG_SEQ_NOTIF`] companion of an RMA sub-message.
    fn notif_frame(&self) -> Vec<u8> {
        wire::seq_notif_msg(self.seq, self.remote_key, self.addend)
    }
}

/// A sub-message the table has just buffered: what its poster needs to
/// put it on the wire.
pub struct Registered<F> {
    /// Its per-destination sequence number.
    pub seq: u64,
    /// Whether the table was empty before it — the entry that starts a
    /// wall-clock caller's retransmit watch (nothing else tells a
    /// progress thread that sleeps without a deadline while nothing is
    /// unacked).
    pub first: bool,
    /// The control frame announcing it: [`wire::MSG_SEQ_DATA`] for
    /// [`Route::Dgram`], the [`wire::MSG_SEQ_NOTIF`] companion for
    /// [`Route::Rma`], the whole [`wire::MSG_AGG`] frame (shared with
    /// the replay buffer) for an aggregate.
    pub frame: F,
}

/// A retransmission the progress pass must post (executed outside
/// scheduler context on simnet).
pub enum Resend {
    /// Repost the payload as an RMA put with its companion.
    Rma {
        /// The buffered payload (shared, not copied).
        payload: Bytes,
        /// Destination region key.
        dst_rkey: RKey,
        /// Byte offset inside the destination region.
        dst_offset: usize,
        /// NIC to post on (already rotated).
        nic: usize,
        /// The [`wire::MSG_SEQ_NOTIF`] companion frame.
        companion: Vec<u8>,
    },
    /// Resend a control frame on the datagram channel.
    Dgram {
        /// Destination rank.
        dst: usize,
        /// NIC to send on (already rotated; a fabric whose datagrams
        /// pick their own NIC ignores it).
        nic: usize,
        /// The complete control frame.
        bytes: Vec<u8>,
    },
}

/// Outcome of one [`RetryState::sweep`].
pub struct SweepOutcome {
    /// Retransmissions to post, in `(dst, seq)` order.
    pub resends: Vec<Resend>,
    /// New deadlines to arm (one wake-up event each).
    pub new_deadlines: Vec<Ns>,
    /// Earliest deadline still outstanding after the sweep — re-armed
    /// and unexpired entries alike, unarmed ones excluded; `None` with
    /// nothing armed. What a wall-clock caller sleeps until.
    pub next_deadline: Option<Ns>,
    /// Deadline wake-ups that escalated to NIC rotation of an RMA put.
    pub nic_rotations: u64,
    /// Deadline wake-ups that escalated to the fallback channel.
    pub fallback_reroutes: u64,
    /// Sub-messages that ran out of retries this sweep.
    pub exhausted: u64,
}

/// Retry/replay knobs resolved from
/// [`UnrConfig`](crate::UnrConfig) at init.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Base retransmit timeout (before backoff and size scaling).
    pub timeout: Ns,
    /// Backoff is capped at this value.
    pub max_backoff: Ns,
    /// A sub-message is abandoned after this many retransmissions.
    pub max_retries: u32,
    /// Retransmissions switch to the datagram fallback channel from
    /// this attempt on (use `>= max_retries` to disable failover).
    pub fallback_after: u32,
    /// NICs per node (for rotation).
    pub nics: usize,
    /// Approximate ns per byte on the wire, used to scale deadlines
    /// with message size and queued bytes (0: deadlines do not scale).
    pub ns_per_byte: f64,
}

impl RetryPolicy {
    /// Deadline distance for attempt `attempts` of a `len`-byte
    /// sub-message with `queued` bytes already pending to the same
    /// destination: `(timeout + 2·wire_time) · 2^attempts`, capped.
    pub fn rto(&self, len: usize, queued: u64, attempts: u32) -> Ns {
        let wire = ((len as u64 + queued) as f64 * self.ns_per_byte) as Ns;
        let base = self.timeout + 2 * wire;
        base.saturating_shl(attempts.min(16)).min(self.max_backoff.max(base))
    }
}

trait SaturatingShl {
    fn saturating_shl(self, by: u32) -> Self;
}
impl SaturatingShl for Ns {
    fn saturating_shl(self, by: u32) -> Ns {
        self.checked_shl(by).unwrap_or(Ns::MAX)
    }
}

/// Send-side state toward one destination rank.
#[derive(Default)]
struct DstShard {
    /// Unacked sub-messages keyed by sequence number.
    pending: BTreeMap<u64, PendingSub>,
    /// Next sequence number.
    next_seq: u64,
    /// Bytes in flight (deadline scaling).
    queued_bytes: u64,
}

/// Rarely-touched control data (not on the data path).
#[derive(Default)]
struct Ctl {
    /// Actors to wake on deadline expiry or channel failure: parked
    /// progress drivers and reliable signal waiters.
    waiters: Vec<ActorId>,
    /// Detail of the first exhausted sub-message.
    failure: Option<(usize, u32)>,
}

/// Shared state of the self-healing transport (one per engine when
/// reliability is active). See the module docs for the shard map.
pub struct RetryState {
    /// The knobs this table was built with.
    pub policy: RetryPolicy,
    /// Send-side shards, indexed by destination rank.
    dst: Vec<Mutex<DstShard>>,
    /// Receive-side dedup windows, indexed by source rank.
    src: Vec<Mutex<DedupWindow>>,
    ctl: Mutex<Ctl>,
    /// Unacked sub-messages over all shards; every change happens
    /// under the entry's shard lock, so a reader that sees `n > 0` and
    /// then takes the shards finds the entries.
    in_flight: AtomicUsize,
    /// Latched when a sub-message exhausts its retries.
    failed: AtomicBool,
    /// Set by deadline wake-up events; progress passes clear it after
    /// sweeping. Lets parked drivers distinguish "retry work may be
    /// due" from spurious wakes.
    due_flag: AtomicBool,
    /// Round-robin cursor for first-attempt NIC choice.
    nic_rr: AtomicUsize,
}

impl RetryState {
    /// An empty table for an `nranks`-rank world.
    pub fn new(policy: RetryPolicy, nranks: usize) -> RetryState {
        let nranks = nranks.max(1);
        RetryState {
            policy,
            dst: (0..nranks).map(|_| Mutex::new(DstShard::default())).collect(),
            src: (0..nranks).map(|_| Mutex::new(DedupWindow::default())).collect(),
            ctl: Mutex::new(Ctl::default()),
            in_flight: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            due_flag: AtomicBool::new(false),
            nic_rr: AtomicUsize::new(0),
        }
    }

    fn shard(&self, dst: usize) -> &Mutex<DstShard> {
        self.dst.get(dst).unwrap_or_else(|| {
            panic!("destination rank {dst} outside the {}-rank world", self.dst.len())
        })
    }

    // ---- sender side ----------------------------------------------------

    /// Allocate the next sequence number for `dst`.
    fn alloc_seq(&self, dst: usize) -> u64 {
        let mut sh = self.shard(dst).lock();
        let seq = sh.next_seq;
        sh.next_seq += 1;
        seq
    }

    /// Pick a NIC for a first attempt (round-robin unless pinned).
    pub fn first_nic(&self, pin: Option<usize>) -> usize {
        match pin {
            Some(n) => n,
            None => self.nic_rr.fetch_add(1, Ordering::Relaxed) % self.policy.nics.max(1),
        }
    }

    /// Bytes currently unacked toward `dst` (deadline scaling).
    #[cfg(test)]
    fn queued_bytes(&self, dst: usize) -> u64 {
        self.shard(dst).lock().queued_bytes
    }

    /// Buffer one data sub-message — `payload` bound for `dst_offset`
    /// of region `dst`, bumping signal `key` by `addend` there — until
    /// its ack arrives: allocate its sequence number, build the control
    /// frame that announces it on `route` ([`Registered::frame`]) and
    /// register it, unarmed (see [`RetryState::arm`]). Registration
    /// must precede the actual post so an ack can never outrun it.
    #[allow(clippy::too_many_arguments)]
    pub fn register_data(
        &self,
        route: Route,
        payload: Bytes,
        dst: RKey,
        dst_offset: usize,
        key: u64,
        addend: i64,
        nic: usize,
    ) -> Registered<Vec<u8>> {
        let seq = self.alloc_seq(dst.rank);
        let sub = PendingSub::new(seq, route, payload, dst, dst_offset, key, addend, nic);
        let frame = match route {
            Route::Rma => sub.notif_frame(),
            Route::Dgram | Route::Agg => sub.dgram_frame(),
        };
        Registered {
            seq,
            first: self.register(sub),
            frame,
        }
    }

    /// Buffer one coalesced aggregate toward rank `dst`: allocate its
    /// sequence number, build the sequenced [`wire::MSG_AGG`] frame
    /// from the drained ring and register it as a [`Route::Agg`] entry
    /// whose payload is that frame — one entry covers every put inside.
    pub fn register_agg(
        &self,
        dst: usize,
        nic: usize,
        spans: &[(u32, u64, u32)],
        sigs: &[(u64, i64)],
        payload: &[u8],
    ) -> Registered<Bytes> {
        let seq = self.alloc_seq(dst);
        let frame = Bytes::from(wire::agg_msg(seq, true, spans, sigs, payload));
        let nowhere = RKey {
            rank: dst,
            id: 0,
            len: 0,
        };
        let sub = PendingSub::new(seq, Route::Agg, frame.clone(), nowhere, 0, 0, 0, nic);
        Registered {
            seq,
            first: self.register(sub),
            frame,
        }
    }

    /// Insert a built entry; `true` iff the table was empty before it.
    ///
    /// The entry is *unarmed*: its deadline is `Ns::MAX`, so a
    /// concurrent sweep (the progress agent shares this state with the
    /// application rank) can never mistake it for expired before
    /// [`RetryState::arm`] stamps the real post time and deadline.
    fn register(&self, sub: PendingSub) -> bool {
        let mut sh = self.shard(sub.dst_rank).lock();
        sh.queued_bytes += sub.payload.len() as u64;
        sh.pending.insert(sub.seq, sub);
        self.in_flight.fetch_add(1, Ordering::SeqCst) == 0
    }

    /// Take `seq` out of a locked shard, keeping the byte gauge and the
    /// in-flight count in step.
    fn remove(&self, sh: &mut DstShard, seq: u64) -> Option<PendingSub> {
        let p = sh.pending.remove(&seq)?;
        sh.queued_bytes = sh.queued_bytes.saturating_sub(p.payload.len() as u64);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        Some(p)
    }

    /// Roll back a registration whose post failed locally (bounds
    /// error): drop the entry so it is never retransmitted.
    pub fn unregister(&self, dst: usize, seq: u64) {
        self.remove(&mut self.shard(dst).lock(), seq);
    }

    /// Stamp post time and deadline on freshly registered entries
    /// (on simnet: in scheduler context right after the posts). Returns
    /// each entry's deadline so the caller can schedule wake-ups.
    pub fn arm(&self, t: Ns, entries: &[(usize, u64)]) -> Vec<Ns> {
        let mut deadlines = Vec::with_capacity(entries.len());
        for &(dst, seq) in entries {
            let mut sh = self.shard(dst).lock();
            let queued = sh.queued_bytes;
            if let Some(p) = sh.pending.get_mut(&seq) {
                let rto = self.policy.rto(p.payload.len(), queued, 0);
                p.first_post = t;
                p.deadline = t + rto;
                deadlines.push(p.deadline);
            }
        }
        deadlines
    }

    /// Process an ack from `src` for `seq`; returns the acked entry's
    /// post time for latency accounting (`None` for duplicate acks; `0`
    /// when the entry was acked before [`RetryState::arm`] stamped it —
    /// callers should skip the latency sample then).
    pub fn ack(&self, src: usize, seq: u64) -> Option<Ns> {
        let p = self.remove(&mut self.shard(src).lock(), seq)?;
        Some(p.first_post)
    }

    /// Sweep expired entries at time `now`: bump attempts, rotate
    /// NICs, reroute to the fallback channel, build retransmissions,
    /// mark exhaustion. Pure bookkeeping — the caller posts the
    /// resends and schedules wake-ups for `new_deadlines` (or sleeps
    /// until `next_deadline`).
    ///
    /// Shards are visited in destination-rank order and entries in
    /// sequence order, reproducing the single-map implementation's
    /// `(dst, seq)` total order exactly.
    pub fn sweep(&self, now: Ns) -> SweepOutcome {
        self.due_flag.store(false, Ordering::SeqCst);
        let mut out = SweepOutcome {
            resends: Vec::new(),
            new_deadlines: Vec::new(),
            next_deadline: None,
            nic_rotations: 0,
            fallback_reroutes: 0,
            exhausted: 0,
        };
        // `Ns::MAX` marks an unarmed entry, so it can stand for "none".
        let mut next = Ns::MAX;
        let mut first_failure: Option<usize> = None;
        for (dst, shard) in self.dst.iter().enumerate() {
            let mut sh = shard.lock();
            let mut expired = Vec::new();
            for (&seq, p) in &sh.pending {
                if p.deadline <= now {
                    expired.push(seq);
                } else {
                    next = next.min(p.deadline);
                }
            }
            for seq in expired {
                let p = sh.pending.get_mut(&seq).expect("seq just listed");
                p.attempts += 1;
                if p.attempts > self.policy.max_retries {
                    out.exhausted += 1;
                    first_failure.get_or_insert(dst);
                    self.remove(&mut sh, seq);
                    continue;
                }
                if p.route == Route::Rma && p.attempts >= self.policy.fallback_after {
                    p.route = Route::Dgram;
                    out.fallback_reroutes += 1;
                }
                if self.policy.nics > 1 {
                    // Every route moves on (a stuck stream should not
                    // doom the sub-message); only an RMA put's move is
                    // the failover the counter reports.
                    p.nic = (p.nic + 1) % self.policy.nics;
                    out.nic_rotations += u64::from(p.route == Route::Rma);
                }
                let queued = 0; // backoff already covers congestion growth
                p.deadline = now + self.policy.rto(p.payload.len(), queued, p.attempts);
                next = next.min(p.deadline);
                out.new_deadlines.push(p.deadline);
                out.resends.push(match p.route {
                    Route::Rma => Resend::Rma {
                        payload: p.payload.clone(),
                        dst_rkey: p.dst_rkey,
                        dst_offset: p.dst_offset,
                        nic: p.nic,
                        companion: p.notif_frame(),
                    },
                    Route::Dgram | Route::Agg => Resend::Dgram {
                        dst: p.dst_rank,
                        nic: p.nic,
                        bytes: p.dgram_frame(),
                    },
                });
            }
        }
        out.next_deadline = (next != Ns::MAX).then_some(next);
        if let Some(dst) = first_failure {
            self.ctl
                .lock()
                .failure
                .get_or_insert((dst, self.policy.max_retries));
            self.failed.store(true, Ordering::SeqCst);
        }
        out
    }

    /// Number of unacked sub-messages: one atomic load, no shard lock.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Drain every pending sub-message addressed to `dst` without
    /// counting it as exhausted or latching the failure flag — the rank
    /// is *dead* (membership said so), which is a different terminal
    /// state from "the link to a live rank went quiet"
    /// ([`crate::UnrError::PeerFailed`] with `cause: Killed`, not
    /// `cause: RetryExhausted`). Returns how many entries were dropped
    /// so the engine can count `unr.recovery.drained_subs`.
    ///
    /// Idempotent; a rejoined incarnation of `dst` starts from an empty
    /// shard (its dedup floor restarts with the new epoch's traffic).
    pub fn drain_dst(&self, dst: usize) -> usize {
        let mut sh = self.shard(dst).lock();
        let drained = sh.pending.len();
        sh.pending.clear();
        sh.queued_bytes = 0;
        self.in_flight.fetch_sub(drained, Ordering::SeqCst);
        drained
    }

    // ---- receive side ---------------------------------------------------

    /// Exactly-once check: `true` iff (`src`, `seq`) is fresh.
    pub fn accept(&self, src: usize, seq: u64) -> bool {
        self.src
            .get(src)
            .unwrap_or_else(|| {
                panic!("source rank {src} outside the {}-rank world", self.src.len())
            })
            .lock()
            .insert(seq)
    }

    // ---- failure / wake-up plumbing -------------------------------------

    /// Has any sub-message exhausted its retries?
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// Detail of the first failure: `(dst_rank, attempts)`.
    pub fn failure(&self) -> Option<(usize, u32)> {
        self.ctl.lock().failure
    }

    /// Register a parked actor to be woken by deadline expiry or
    /// channel failure.
    pub fn add_waiter(&self, me: ActorId) {
        let mut ctl = self.ctl.lock();
        if !ctl.waiters.contains(&me) {
            ctl.waiters.push(me);
        }
    }

    /// Drain the waiter list for waking (scheduler context).
    pub fn take_waiters(&self) -> Vec<ActorId> {
        std::mem::take(&mut self.ctl.lock().waiters)
    }

    /// Mark that a deadline has expired (deadline wake-up events set
    /// this; parked drivers use it as their wake predicate).
    pub fn set_due(&self) {
        self.due_flag.store(true, Ordering::SeqCst);
    }

    /// Is retry work possibly due?
    pub fn is_due(&self) -> bool {
        self.due_flag.load(Ordering::SeqCst)
    }

    /// Panic while holding one lock of each kind — a send-side shard, a
    /// dedup window, the control data — so a test in another crate can
    /// check that a poisoned table still serves every caller.
    #[doc(hidden)]
    pub fn poison_for_tests(&self) -> ! {
        let _held = (self.dst[0].lock(), self.src[0].lock(), self.ctl.lock());
        panic!("poisoning the retry table on purpose");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_exactly_once_in_order() {
        let mut w = DedupWindow::default();
        for s in 0..100u64 {
            assert!(w.insert(s), "seq {s} must be fresh");
            assert!(!w.insert(s), "seq {s} replay must be rejected");
        }
        assert_eq!(w.floor(), 100);
        assert_eq!(w.pending(), 0, "in-order window stays empty");
    }

    #[test]
    fn dedup_handles_reordering_and_replay() {
        let mut w = DedupWindow::default();
        assert!(w.insert(2));
        assert!(w.insert(0));
        assert_eq!(w.floor(), 1, "gap at 1 holds the floor");
        assert!(!w.insert(2), "late duplicate above floor rejected");
        assert!(w.insert(1), "gap fill accepted");
        assert_eq!(w.floor(), 3, "floor advances past the filled gap");
        assert_eq!(w.pending(), 0);
        assert!(!w.insert(0), "replay below floor rejected");
    }

    fn policy() -> RetryPolicy {
        RetryPolicy {
            timeout: 10_000,
            max_backoff: 1_000_000,
            max_retries: 3,
            fallback_after: 2,
            nics: 2,
            ns_per_byte: 0.04,
        }
    }

    /// A 4-rank world covers every destination the tests address.
    fn state() -> RetryState {
        RetryState::new(policy(), 4)
    }

    fn sub(dst: usize, seq: u64, len: usize) -> PendingSub {
        let payload = Bytes::from(vec![0xAB; len]);
        PendingSub::new(seq, Route::Rma, payload, rkey(dst), 0, 1, -1, 0)
    }

    #[test]
    fn rto_backs_off_exponentially_and_caps() {
        let p = policy();
        let r0 = p.rto(256, 0, 0);
        let r1 = p.rto(256, 0, 1);
        let r2 = p.rto(256, 0, 2);
        assert_eq!(r1, 2 * r0);
        assert_eq!(r2, 4 * r0);
        assert_eq!(p.rto(256, 0, 30), p.max_backoff, "backoff must cap");
    }

    #[test]
    fn ack_clears_pending_and_returns_post_time() {
        let st = state();
        let seq = st.alloc_seq(1);
        st.register(sub(1, seq, 64));
        st.arm(500, &[(1, seq)]);
        assert_eq!(st.in_flight(), 1);
        assert_eq!(st.queued_bytes(1), 64);
        assert_eq!(st.ack(1, seq), Some(500));
        assert_eq!(st.in_flight(), 0);
        assert_eq!(st.queued_bytes(1), 0);
        assert_eq!(st.ack(1, seq), None, "duplicate ack ignored");
    }

    #[test]
    fn sequence_numbers_are_per_destination() {
        let st = state();
        assert_eq!(st.alloc_seq(1), 0);
        assert_eq!(st.alloc_seq(1), 1);
        assert_eq!(st.alloc_seq(2), 0, "each destination has its own stream");
    }

    #[test]
    fn resend_shares_the_buffered_payload() {
        // Zero-copy check: the Resend's payload must be the same
        // allocation as the registered snapshot, not a copy.
        let st = state();
        let seq = st.alloc_seq(1);
        let snap = Bytes::from(vec![0xCD; 256]);
        let mut s = sub(1, seq, 0);
        s.payload = snap.clone();
        st.register(s);
        let dl = st.arm(0, &[(1, seq)]);
        let o = st.sweep(dl[0]);
        match &o.resends[0] {
            Resend::Rma { payload, .. } => {
                assert!(
                    std::ptr::eq(payload.as_ref() as *const [u8], snap.as_ref() as *const [u8]),
                    "resend must alias the registered snapshot"
                );
            }
            _ => panic!("expected an RMA resend"),
        }
    }

    #[test]
    fn sweep_escalates_nic_then_fallback_then_exhausts() {
        let st = state();
        let seq = st.alloc_seq(1);
        st.register(sub(1, seq, 64));
        let dl = st.arm(0, &[(1, seq)]);
        // Attempt 1: still RMA (fallback_after = 2), NIC rotated.
        let o1 = st.sweep(dl[0]);
        assert_eq!(o1.resends.len(), 1);
        assert!(matches!(o1.resends[0], Resend::Rma { nic: 1, .. }));
        assert_eq!(o1.nic_rotations, 1);
        // Attempt 2: rerouted to the fallback channel.
        let o2 = st.sweep(o1.new_deadlines[0]);
        assert!(matches!(o2.resends[0], Resend::Dgram { dst: 1, .. }));
        assert_eq!(o2.fallback_reroutes, 1);
        // Attempt 3: final try; attempt 4 exhausts.
        let o3 = st.sweep(o2.new_deadlines[0]);
        assert_eq!(o3.resends.len(), 1);
        assert!(!st.failed());
        let o4 = st.sweep(o3.new_deadlines[0]);
        assert_eq!(o4.exhausted, 1);
        assert!(o4.resends.is_empty());
        assert!(st.failed());
        assert_eq!(st.failure(), Some((1, 3)));
        assert_eq!(st.in_flight(), 0);
    }

    #[test]
    fn agg_route_resends_stored_frame_verbatim_without_escalation() {
        // An aggregate entry buffers the complete pre-built MSG_AGG
        // frame; every retransmission must resend those bytes verbatim
        // and never reroute or count as an RMA failover — the aggregate
        // is already on the datagram channel.
        let st = state();
        let seq = st.alloc_seq(3);
        let frame = Bytes::from(vec![7u8, 1, 2, 3, 4, 5]);
        let mut p = sub(3, seq, 0);
        p.payload = frame.clone();
        p.route = Route::Agg;
        p.remote_key = 0;
        p.addend = 0;
        st.register(p);
        let dl = st.arm(0, &[(3, seq)]);
        let mut at = dl[0];
        for attempt in 0..3 {
            let o = st.sweep(at);
            assert_eq!(o.nic_rotations, 0, "attempt {attempt}: not an RMA failover");
            assert_eq!(o.fallback_reroutes, 0, "attempt {attempt}: Agg never reroutes");
            match &o.resends[..] {
                [Resend::Dgram { dst: 3, bytes, .. }] => {
                    assert_eq!(&bytes[..], frame.as_ref(), "attempt {attempt}");
                }
                _ => panic!("attempt {attempt}: expected exactly one dgram resend to rank 3"),
            }
            at = o.new_deadlines[0];
        }
        st.ack(3, seq);
        assert_eq!(st.in_flight(), 0);
    }

    #[test]
    fn sweep_visits_destinations_in_rank_order() {
        // Entries to ranks 2 and 1 expire together; the resend list must
        // come out (dst 1, then dst 2) regardless of registration order,
        // matching the old single-map (dst, seq) iteration order.
        let st = state();
        let s2 = st.alloc_seq(2);
        st.register(sub(2, s2, 64));
        let s1 = st.alloc_seq(1);
        st.register(sub(1, s1, 64));
        let dl = st.arm(0, &[(2, s2), (1, s1)]);
        // Attempt 1 (both expired): still RMA, NICs rotate.
        let o1 = st.sweep(*dl.iter().max().unwrap());
        assert_eq!(o1.resends.len(), 2);
        // Attempt 2: both reroute to the fallback channel, which carries
        // the destination rank in the resend.
        let o2 = st.sweep(*o1.new_deadlines.iter().max().unwrap());
        assert_eq!(o2.fallback_reroutes, 2);
        let dsts: Vec<usize> = o2
            .resends
            .iter()
            .map(|r| match r {
                Resend::Dgram { dst, .. } => *dst,
                Resend::Rma { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(dsts, vec![1, 2], "sweep order must be by destination rank");
    }

    #[test]
    fn sweep_ignores_unexpired_entries() {
        let st = state();
        let seq = st.alloc_seq(2);
        st.register(sub(2, seq, 64));
        let dl = st.arm(0, &[(2, seq)]);
        let o = st.sweep(dl[0] - 1);
        assert!(o.resends.is_empty());
        assert_eq!(st.in_flight(), 1);
    }

    #[test]
    fn sweep_never_touches_unarmed_entries() {
        // A registered-but-unarmed entry (the window between the post
        // and the scheduler-context `arm`) must be invisible to sweeps:
        // the polling agent shares this state with the posting rank, so
        // treating the provisional deadline as expired would retransmit
        // a message that was just posted — and do so or not depending on
        // OS thread interleaving, breaking bit-reproducibility.
        let st = state();
        let seq = st.alloc_seq(1);
        st.register(sub(1, seq, 64));
        let o = st.sweep(Ns::MAX - 1);
        assert!(o.resends.is_empty(), "unarmed entry must not retransmit");
        assert_eq!(st.in_flight(), 1);
        // An ack can legitimately beat `arm`; it settles the entry with
        // no post time to report.
        assert_eq!(st.ack(1, seq), Some(0));
        assert_eq!(st.arm(500, &[(1, seq)]), Vec::<Ns>::new());
    }

    #[test]
    fn unregister_rolls_back_a_failed_post() {
        let st = state();
        let seq = st.alloc_seq(1);
        st.register(sub(1, seq, 64));
        assert_eq!(st.queued_bytes(1), 64);
        st.unregister(1, seq);
        assert_eq!(st.in_flight(), 0);
        assert_eq!(st.queued_bytes(1), 0);
        assert_eq!(st.ack(1, seq), None, "entry is gone");
    }

    #[test]
    fn accept_is_per_source() {
        let st = state();
        assert!(st.accept(0, 0));
        assert!(st.accept(1, 0), "sources have independent windows");
        assert!(!st.accept(0, 0));
    }

    fn rkey(rank: usize) -> RKey {
        RKey {
            rank,
            id: 3,
            len: 1 << 20,
        }
    }

    #[test]
    fn constructors_build_the_frame_that_announces_the_entry() {
        let st = state();
        let payload = Bytes::from(vec![7u8; 5]);
        let d = st.register_data(Route::Dgram, payload.clone(), rkey(1), 64, 9, -5, 0);
        assert_eq!((d.seq, d.first), (0, true));
        assert_eq!(d.frame, wire::seq_data_msg(0, 3, 64, 9, -5, &payload));
        let r = st.register_data(Route::Rma, payload.clone(), rkey(1), 64, 9, -5, 1);
        assert_eq!((r.seq, r.first), (1, false), "the table already held an entry");
        assert_eq!(r.frame, wire::seq_notif_msg(1, 9, -5));
        let a = st.register_agg(2, 0, &[(3, 0, 5)], &[(9, -1)], &payload);
        assert_eq!((a.seq, a.first), (0, false), "sequences are per destination");
        assert_eq!(a.frame.as_ref(), wire::agg_msg(0, true, &[(3, 0, 5)], &[(9, -1)], &payload));
        // A datagram resend is rebuilt from the fields, an aggregate's is
        // the stored frame: the same bytes as the first transmission.
        st.arm(0, &[(1, d.seq), (1, r.seq), (2, a.seq)]);
        let o = st.sweep(1 << 40);
        let frames: Vec<&[u8]> = o
            .resends
            .iter()
            .map(|r| match r {
                Resend::Dgram { bytes, .. } => &bytes[..],
                Resend::Rma { companion, .. } => &companion[..],
            })
            .collect();
        assert_eq!(frames, [&d.frame[..], &r.frame[..], a.frame.as_ref()]);
    }

    #[test]
    fn in_flight_count_follows_every_way_in_and_out() {
        let st = state();
        assert_eq!(st.in_flight(), 0);
        let seqs: Vec<u64> = (0..5)
            .map(|i| {
                let reg = st.register_data(Route::Dgram, Bytes::new(), rkey(1), 0, 1, -1, 0);
                assert_eq!(reg.first, i == 0, "only the entry that ends 'empty' says so");
                reg.seq
            })
            .collect();
        let other = st.register_agg(2, 0, &[], &[], &[]);
        assert!(!other.first);
        assert_eq!(st.in_flight(), 6);
        // Acked (twice: the second finds nothing), rolled back, exhausted.
        assert!(st.ack(1, seqs[0]).is_some());
        assert!(st.ack(1, seqs[0]).is_none());
        st.unregister(1, seqs[1]);
        st.unregister(1, seqs[1]);
        assert_eq!(st.in_flight(), 4);
        let mut at = st.arm(0, &[(1, seqs[2])])[0];
        for _ in 0..policy().max_retries {
            at = st.sweep(at).new_deadlines[0];
        }
        assert_eq!(st.sweep(at).exhausted, 1);
        assert_eq!(st.in_flight(), 3);
        // The rank died: its shard is drained, the other's is not.
        assert_eq!(st.drain_dst(1), 2);
        assert_eq!(st.drain_dst(1), 0);
        assert_eq!(st.in_flight(), 1);
        assert!(st.ack(2, other.seq).is_some());
        assert_eq!(st.in_flight(), 0);
        // Empty again: the next entry is a first one again.
        assert!(st.register_data(Route::Dgram, Bytes::new(), rkey(3), 0, 1, -1, 0).first);
    }

    #[test]
    fn sweep_reports_the_earliest_deadline_still_outstanding() {
        let st = state();
        assert_eq!(st.sweep(0).next_deadline, None, "an empty table has none");
        let seq = |dst: usize| st.register_data(Route::Dgram, Bytes::new(), rkey(dst), 0, 1, -1, 0).seq;
        let (early, late, unarmed) = (seq(2), seq(1), seq(3));
        assert_eq!(st.sweep(0).next_deadline, None, "unarmed entries have no deadline yet");
        let d_early = st.arm(100, &[(2, early)])[0];
        let d_late = st.arm(5_000, &[(1, late)])[0];
        assert!(d_early < d_late);
        // Nothing expired: the earliest of the unexpired ones.
        let o = st.sweep(d_early - 1);
        assert!(o.resends.is_empty());
        assert_eq!(o.next_deadline, Some(d_early));
        // One expired and re-armed behind the other: the other's.
        let o = st.sweep(d_early);
        assert_eq!(o.resends.len(), 1);
        assert!(o.new_deadlines[0] > d_late, "backed off past the later entry");
        assert_eq!(o.next_deadline, Some(d_late));
        // Both expired: the earlier of the two new deadlines.
        let o = st.sweep(o.new_deadlines[0]);
        assert_eq!(o.resends.len(), 2);
        assert_eq!(o.next_deadline, o.new_deadlines.iter().copied().min());
        // All armed ones acked: the unarmed straggler alone reports none.
        st.ack(2, early);
        st.ack(1, late);
        assert_eq!(st.in_flight(), 1);
        assert_eq!(st.sweep(Ns::MAX - 1).next_deadline, None);
        st.unregister(3, unarmed);
    }

    #[test]
    fn datagram_and_aggregate_resends_rotate_nics_without_counting_failover() {
        let st = state(); // two NICs
        let d = st.register_data(Route::Dgram, Bytes::new(), rkey(1), 0, 1, -1, 0);
        let a = st.register_agg(1, 1, &[], &[], &[]);
        let mut at = *st.arm(0, &[(1, d.seq), (1, a.seq)]).iter().max().unwrap();
        for attempt in 1..=3usize {
            let o = st.sweep(at);
            let nics: Vec<usize> = o
                .resends
                .iter()
                .map(|r| match r {
                    Resend::Dgram { nic, .. } => *nic,
                    Resend::Rma { .. } => panic!("neither entry is an RMA put"),
                })
                .collect();
            assert_eq!(nics, [attempt % 2, (1 + attempt) % 2], "attempt {attempt}");
            assert_eq!(o.nic_rotations, 0, "unr.failover.nic_rotations counts RMA puts only");
            assert_eq!(o.fallback_reroutes, 0);
            at = *o.new_deadlines.iter().max().unwrap();
        }
        // With one NIC there is nowhere to rotate to.
        let one = RetryState::new(RetryPolicy { nics: 1, ..policy() }, 2);
        let seq = one.register_data(Route::Dgram, Bytes::new(), rkey(1), 0, 1, -1, 0).seq;
        let at = one.arm(0, &[(1, seq)])[0];
        assert!(matches!(one.sweep(at).resends[..], [Resend::Dgram { nic: 0, .. }]));
    }

    #[test]
    fn a_poisoned_table_still_serves_every_caller() {
        let st = state();
        let died = std::thread::scope(|s| s.spawn(|| st.poison_for_tests()).join());
        assert!(died.is_err());
        let reg = st.register_data(Route::Dgram, Bytes::new(), rkey(0), 0, 1, -1, 0);
        st.arm(1, &[(0, reg.seq)]);
        assert!(st.accept(0, 0));
        assert_eq!(st.sweep(0).resends.len(), 0);
        assert_eq!(st.failure(), None);
        assert_eq!(st.ack(0, reg.seq), Some(1));
        assert_eq!(st.in_flight(), 0);
    }

    /// Until `unr-netfab` ran this table it only ever ran under the
    /// simulator's scheduler, one thread at a time. Three OS threads —
    /// a poster, an acker fed through a channel, a sweeper that never
    /// stops — over one table: every sequence number is acked exactly
    /// once, and the count the sleepers trust comes back to zero.
    #[test]
    fn poster_acker_and_sweeper_threads_settle_every_entry_once() {
        const POSTS: usize = 20_000;
        let st = RetryState::new(
            RetryPolicy {
                max_retries: u32::MAX,
                fallback_after: u32::MAX,
                ..policy()
            },
            4,
        );
        let (tx, rx) = std::sync::mpsc::channel::<(usize, u64)>();
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(3);
        let (st, done, start) = (&st, &done, &start);
        let (acked, resent) = std::thread::scope(|s| {
            s.spawn(move || {
                start.wait();
                for i in 0..POSTS {
                    let dst = i % 4;
                    let seq = if i % 3 == 0 {
                        st.register_agg(dst, 0, &[], &[], &[]).seq
                    } else {
                        st.register_data(Route::Dgram, Bytes::new(), rkey(dst), 0, 1, -1, 0).seq
                    };
                    st.arm(i as Ns, &[(dst, seq)]);
                    tx.send((dst, seq)).unwrap();
                }
            });
            let acker = s.spawn(move || {
                start.wait();
                let mut acked = 0usize;
                for (dst, seq) in rx.iter() {
                    assert!(st.ack(dst, seq).is_some(), "({dst}, {seq}) was registered before it was sent");
                    assert!(st.ack(dst, seq).is_none(), "({dst}, {seq}) acked twice");
                    acked += 1;
                }
                done.store(true, Ordering::SeqCst);
                acked
            });
            let sweeper = s.spawn(move || {
                start.wait();
                let (mut now, mut resent) = (0 as Ns, 0usize);
                while !done.load(Ordering::SeqCst) {
                    // Far enough ahead that whatever is armed has expired.
                    now += 1_000_000;
                    let o = st.sweep(now);
                    assert_eq!(o.exhausted, 0);
                    assert!(o.next_deadline.is_none_or(|d| d > now));
                    resent += o.resends.len();
                }
                resent
            });
            (acker.join().unwrap(), sweeper.join().unwrap())
        });
        assert_eq!(acked, POSTS);
        assert_eq!(st.in_flight(), 0, "after {resent} retransmissions");
        assert!(!st.failed());
        for dst in 0..4 {
            assert_eq!(st.queued_bytes(dst), 0);
        }
    }
}
