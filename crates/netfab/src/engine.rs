//! `NetUnr` — bring-up of the UNR engine over the netfab socket fabric.
//!
//! Everything a rank does once it is up is `unr_core`'s own engine,
//! monomorphised over [`NetTransport`]: the post path
//! ([`unr_core::post`]: validate → coalesce → stripe → register →
//! send), the `sig_wait` family ([`unr_core::wait`]), `mem_reg`,
//! `progress`, `finalize`, the clock, the epoch, checkpoint and
//! restore, the statistics and every `unr.*` engine counter — and
//! bring-up itself ([`Unr::bring_up`]: validation, reliability, the
//! retry policy and table, the signal table). `NetUnr` holds that
//! engine and derefs to it. The coalescer, the wire format, the
//! receive-side control handler ([`unr_core::handle_ctrl`]) and the
//! atomic-add sink ([`unr_core::TableSink`]) are shared too. What this
//! module keeps is [`NetUnr::init`] — this fabric's facts (wall-clock
//! retransmit floors) and the closure that builds its transport — and
//! the control path (`CtrlPath`) that the fabric runs as its receive
//! side ([`NetSink`]), on whichever thread reads a frame, and whose
//! retransmit sweep reactor 0 runs.
//! The engine has no thread of its own: a process is main + reactors.
//!
//! * **Unreliable** (default): each message (or stripe) rides one `PUT`
//!   frame whose header carries the remote notification as 128-bit
//!   custom bits; whichever receiver thread reads it — the one waiting
//!   for it, else a reactor — deposits the payload and applies the
//!   custom bits through the installed sink — level-2 emulation of the
//!   paper's level-4 hardware.
//! * **Reliable** ([`Reliability::On`](unr_core::Reliability::On), or
//!   `Auto` with fault injection enabled): stripes become
//!   `unr_core::wire` `SEQ_DATA` control messages registered in the
//!   shared retry table — per-destination
//!   sequence numbers, buffered until acked, deduplicated at the
//!   receiver, retransmitted with exponential backoff by reactor 0,
//!   which polls no longer than the table's next deadline (time is
//!   nanoseconds since the engine started). A control message is
//!   handled by the thread that read it — a rank thread inside a wait,
//!   else a reactor — and acked on the connection it came in on; one a
//!   rank sends itself is handled by the posting thread. The handling is
//!   order-independent (per-sequence dedup, commutative addends), so
//!   those threads may race. Exhausted retries latch
//!   the transport down and surface as structured
//!   [`UnrError::PeerFailed`] errors naming the dead rank, its cause
//!   and the membership epoch.
//!
//! In a post-recovery world (membership epoch > 0, see
//! [`NetWorld::epoch`]) every control frame is wrapped in the
//! `unr_core::wire` epoch envelope; inbound frames carrying an epoch
//! older than this engine's are fenced off the control path and counted
//! in `unr.epoch.stale_rejects`, exactly like stale signal generations.
//! PUT/GET data frames are not stamped: on netfab the whole socket mesh is
//! rebuilt per epoch, so no data frame can cross an epoch boundary.
//!
//! A wait has no scheduler to park on: [`NetTransport`]'s park polls
//! the rank's sockets itself ([`NetFabric::wait_progress`]) — reads,
//! deposits, applies the addend, handles the control messages it read —
//! for as long as the wait's deadline (or a 30 s cap) allows, so the
//! put it waits for completes on the waiting thread, and rings the
//! event bell for any other waiter whose frame it read. Local PUT
//! completion is buffered-send: each sub-message's share of the local
//! signal's `-1` is applied when its payload has been copied out of the
//! region into its frame.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use unr_core::ctrl::{self, CtrlEvent, CtrlSink};
use unr_core::{
    Channel, FabricFacts, HwMetrics, ProgressMode, Resend, RetryState, Route, TableSink, Unr,
    UnrConfig, UnrError, UnrMem,
};
use unr_obs::Obs;
use unr_simnet::Ns;

use crate::fabric::{CtrlRx, NetFabric, NetSink, TransportMetrics};
use crate::launch::NetWorld;
use crate::transport::{NetFaults, NetTransport};

/// A netfab-registered memory region (`UNR_Mem_Reg` over sockets): the
/// engine's own [`UnrMem`], registered under this rank's real
/// `(rank, id, len)`.
pub type NetMem = UnrMem;

/// The UNR engine for the netfab backend: the shared engine ([`Unr`],
/// reached through `Deref`) over [`NetTransport`], and the world it
/// was brought up in.
pub struct NetUnr {
    eng: Unr<NetTransport>,
    world: Arc<NetWorld>,
}

impl Deref for NetUnr {
    type Target = Unr<NetTransport>;

    fn deref(&self) -> &Unr<NetTransport> {
        &self.eng
    }
}

/// Wall-clock floor for the retransmit timer: the config's virtual-time
/// `retry_timeout` is tuned for the simulator's nanosecond clock and is
/// far below a realistic socket round trip, so netfab clamps it up.
const MIN_RTO: Duration = Duration::from_millis(5);
/// Wall-clock floor for the backoff cap.
const MIN_BACKOFF_CAP: Duration = Duration::from_millis(100);

impl NetUnr {
    /// Bring up the engine on an established [`NetWorld`]:
    /// [`Unr::bring_up`] over the sockets. Reliability follows
    /// [`Reliability`](unr_core::Reliability): `Auto` turns the
    /// ack/replay protocol on iff `faults` injects drops, the
    /// simulator's rule too.
    pub fn init(
        world: Arc<NetWorld>,
        cfg: UnrConfig,
        faults: NetFaults,
    ) -> Result<NetUnr, UnrError> {
        let fabric = Arc::clone(&world.fabric);
        let facts = FabricFacts {
            rank: fabric.rank(),
            nranks: fabric.nranks(),
            nics: fabric.nics(),
            sub_route: Route::Dgram,
            faults: faults.any(),
            ns_per_byte: 0.0,
            min_rto: MIN_RTO.as_nanos() as Ns,
            min_backoff_cap: MIN_BACKOFF_CAP.as_nanos() as Ns,
        };
        let obs = Arc::clone(&fabric.obs);
        let eng = Unr::bring_up(cfg, Channel::netfab(), facts, &obs, |core| {
            let hardware = core.progress_mode() == ProgressMode::Hardware;
            let sink = TableSink::new(
                Arc::clone(core.table()),
                &obs,
                hardware.then(|| HwMetrics::new(&obs)),
            );
            let ctrl = Arc::new(CtrlPath {
                fabric: Arc::downgrade(&fabric),
                met: fabric.met.clone(),
                obs: Arc::clone(&obs),
                sink,
                retry: core.retry().cloned(),
                epoch: world.epoch(),
                // The retry table's clock is nanoseconds since this instant.
                t0: Instant::now(),
                next_sweep: AtomicU64::new(0),
            });
            // Every config, pure hardware or hybrid: the threads that read
            // frames apply their custom bits (the emulated level-4
            // atomic-add unit) and handle the control messages among them,
            // and reactor 0 runs the retransmit sweep — main + reactors, no
            // thread of the engine's own (DESIGN.md §5g).
            fabric.install(Arc::clone(&ctrl) as Arc<dyn NetSink>);
            NetTransport::new(fabric, ctrl, faults)
        })?;
        Ok(NetUnr { eng, world })
    }

    #[cfg(test)]
    fn ctrl(&self) -> &CtrlPath {
        self.eng.transport().ctrl()
    }

    /// The world this engine runs in.
    pub fn world(&self) -> &Arc<NetWorld> {
        &self.world
    }

    /// The underlying socket fabric.
    pub fn fabric(&self) -> &Arc<NetFabric> {
        self.eng.transport().fabric()
    }

    /// `unr.transport.*` counters.
    pub fn met(&self) -> &TransportMetrics {
        &self.fabric().met
    }

    /// Number of unacked reliable sub-messages currently buffered.
    pub fn pending_len(&self) -> usize {
        self.retries_in_flight()
    }

    /// Wait until every reliable sub-message has been acked (true), or
    /// `timeout` elapses or a peer fails (false): the engine's one wait
    /// loop ([`Unr::wait_drained`]). `true` at once when unreliable.
    pub fn drain_pending(&self, timeout: Duration) -> bool {
        self.wait_drained(timeout.as_nanos() as Ns).is_ok()
    }
}

/// The control path of one engine: the fabric's receive side
/// ([`NetSink`]) and the transport's state for the same. The fabric's
/// reader threads hold it, so it holds the fabric only weakly: a
/// reactor must never keep the fabric alive.
pub(crate) struct CtrlPath {
    /// For the sweep's retransmissions.
    fabric: Weak<NetFabric>,
    met: TransportMetrics,
    obs: Arc<Obs>,
    /// The atomic-add unit, which every apply on this rank goes through.
    pub(crate) sink: TableSink,
    /// Ack/replay state — `Some` iff the reliable transport is active.
    pub(crate) retry: Option<Arc<RetryState>>,
    /// Membership epoch of the world incarnation this engine drives —
    /// fixed for the engine's lifetime (netfab rebuilds the engine per
    /// epoch). 0: no rank has ever died; control frames ride bare.
    pub(crate) epoch: u64,
    /// Engine start: the retry table's clock counts from here.
    t0: Instant,
    /// When the sweep is next due, on that clock; 0 while the timer is
    /// disarmed. Only reactor 0's [`NetSink::tick`] writes it.
    next_sweep: AtomicU64,
}

impl CtrlPath {
    /// The retry table's time: wall-clock nanoseconds since `t0`.
    pub(crate) fn now(&self) -> Ns {
        self.t0.elapsed().as_nanos() as Ns
    }

    /// Whether reactor 0 will sweep by itself: a post that ends
    /// "nothing unacked" need not wake it then, because no new entry's
    /// deadline can precede the cached one (see [`CtrlPath::sweep`]).
    /// SeqCst against the disarm in [`NetSink::tick`].
    pub(crate) fn timer_armed(&self) -> bool {
        self.next_sweep.load(Ordering::SeqCst) != 0
    }

    /// Retransmit what is due at `now`. Returns when to sweep again: at
    /// the earliest deadline left, but within one `rto` — a sub-message
    /// posted after this sweep is due `rto` after its post, so not
    /// before that — or `None` with nothing unacked.
    fn sweep(&self, retry: &RetryState, now: Ns) -> Option<Ns> {
        let out = retry.sweep(now);
        if let Some(fabric) = self.fabric.upgrade() {
            for resend in out.resends {
                // Every netfab entry is a control frame (`Route::Dgram`
                // or `Route::Agg`); the table has moved it to the next
                // socket.
                if let Resend::Dgram { dst, nic, bytes } = resend {
                    // Counted first: on one core the write below can
                    // hand the CPU to the peer, and its ack may reach a
                    // rank thread that reads this counter before we run
                    // again.
                    self.met.retransmits.inc();
                    let _ = fabric.resend_ctrl(dst, nic, self.epoch, bytes);
                }
            }
            if out.exhausted > 0 {
                // The table has latched the peer down: waiters must look.
                fabric.ring_bell();
            }
        }
        // Counted after the sweep: an entry registered behind its back
        // either shows here or is due no sooner than what this returns.
        (retry.in_flight() > 0).then(|| {
            let next = out.next_deadline.unwrap_or(Ns::MAX);
            next.min(now + retry.policy.timeout)
        })
    }
}

/// The receive side every reading thread runs.
impl NetSink for CtrlPath {
    /// The emulated atomic-add unit.
    fn apply(&self, custom: u128) {
        if let Some(n) = self.sink.decode(custom) {
            self.sink.table.apply_counted(n.key, n.addend);
        }
    }

    /// Frames wrapped in the epoch envelope are fenced first: a stale
    /// epoch (older than this engine's) is dropped and counted, never
    /// parsed. Counted in `unr.hw.ctrl_msgs` under hardware progress.
    fn on_ctrl(&self, src: usize, msg: &[u8], rx: &mut CtrlRx<'_>) {
        match ctrl::admit(msg, || self.epoch) {
            Some(frame) => {
                let mut sink = Handling { path: self, rx };
                ctrl::handle_ctrl(self.retry.as_deref(), src, frame, &mut sink);
            }
            None => self.obs.metrics.counter("unr.epoch.stale_rejects").inc(),
        }
        if let Some(hw) = &self.sink.hw {
            hw.ctrl_msgs.inc();
        }
    }

    /// Sweep once the cached deadline is due. With nothing unacked the
    /// timer disarms, then looks again: a post that found it still
    /// armed did not wake it, and the SeqCst store-then-load here
    /// against the post's register-then-[`timer_armed`] means one of
    /// the two sees the other.
    ///
    /// [`timer_armed`]: CtrlPath::timer_armed
    fn tick(&self) -> Option<Duration> {
        let retry = self.retry.as_deref()?;
        loop {
            let now = self.now();
            let due = self.next_sweep.load(Ordering::SeqCst);
            if due > now {
                return Some(Duration::from_nanos(due - now));
            }
            let next = (retry.in_flight() > 0)
                .then(|| self.sweep(retry, now))
                .flatten();
            self.next_sweep.store(next.unwrap_or(0), Ordering::SeqCst);
            if next.is_none() && retry.in_flight() == 0 {
                return None;
            }
        }
    }
}

/// One control message's handling: the engine's side and what the
/// fabric lent for it.
struct Handling<'a, 'b> {
    path: &'a CtrlPath,
    rx: &'a mut CtrlRx<'b>,
}

/// The sockets under [`unr_core::handle_ctrl`].
impl CtrlSink for Handling<'_, '_> {
    fn deposit(&mut self, region: u32, offset: u64, payload: &[u8]) -> bool {
        self.rx.deposit(region, offset, payload)
    }

    /// Netfab GETs use the fabric's native GET_REQ/GET_REP frames; a
    /// fallback-get control message is never produced here.
    fn read(&mut self, _region: u32, _offset: u64, _len: u64) -> Option<Vec<u8>> {
        None
    }

    fn apply(&mut self, key: u64, addend: i64) {
        self.path.sink.apply_counted(key, addend);
    }

    /// `handle_ctrl` answers only the message's source.
    fn reply(&mut self, _dst: usize, frame: Vec<u8>) {
        self.rx.reply(&ctrl::stamp(self.path.epoch, &frame));
    }

    fn count(&mut self, event: CtrlEvent) {
        let met = &self.path.met;
        match event {
            CtrlEvent::DupSuppressed => met.dup_suppressed.inc(),
            CtrlEvent::Acked { .. } => met.acks.inc(),
            // Registered on first use: peers that speak the protocol
            // never produce one.
            CtrlEvent::Malformed => self.path.obs.metrics.counter("unr.ctrl.malformed").inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::listen;
    use crate::frame;
    use std::io::Write;
    use std::sync::Barrier;
    use unr_core::wire;
    use unr_core::{
        Blk, CtrlFrame, Epoch, PeerFailedCause, RecoveryPolicy, Reliability, Route, SignalError,
    };
    use unr_simnet::{Bytes, RKey};

    /// A one-rank fabric (no peers, so no sockets beyond the reactors'
    /// wake channels) with a 64-byte region.
    fn fixture() -> (Arc<NetFabric>, u32) {
        let (listener, name) = listen().unwrap();
        let fabric = NetFabric::connect(0, 1, 1, &[name], listener).unwrap();
        let region_id = fabric.register(64).rkey.id;
        (fabric, region_id)
    }

    /// Two fabrics of a two-rank world, one NIC each.
    fn pair() -> (Arc<NetFabric>, Arc<NetFabric>) {
        let ((l0, n0), (l1, n1)) = (listen().unwrap(), listen().unwrap());
        let names = [n0, n1];
        // Rank 0 dials into rank 1's backlog; rank 1 accepts.
        let f0 = NetFabric::connect(0, 2, 1, &names, l0).unwrap();
        let f1 = NetFabric::connect(1, 2, 1, &names, l1).unwrap();
        (f0, f1)
    }

    /// A reliable, coalescing engine on `fabric`.
    fn engine(fabric: Arc<NetFabric>) -> NetUnr {
        let cfg = UnrConfig::builder()
            .reliability(Reliability::On)
            .agg_eager_max(4)
            .build()
            .unwrap();
        let world = Arc::new(NetWorld::without_launcher(fabric));
        NetUnr::init(world, cfg, NetFaults::default()).unwrap()
    }

    /// Once the reliable transport has latched a peer down, new work is
    /// refused whichever way it moves bytes.
    #[test]
    fn a_get_after_the_transport_latched_down_is_refused_like_a_put() {
        let (fabric, region) = fixture();
        let unr = engine(fabric);
        // Nobody acks: the one entry runs out of retransmissions. It is
        // armed far in the engine's future, so only the sweeps below —
        // not reactor 0's, on the wall clock — ever find it due.
        const LATER: Ns = 1 << 62;
        let retry = unr.ctrl().retry.as_ref().unwrap();
        let dst = RKey {
            rank: 0,
            id: region,
            len: 64,
        };
        let reg = retry.register_data(Route::Dgram, Bytes::from(vec![1; 4]), dst, 0, 0, 0, 0);
        retry.arm(LATER, &[(0, reg.seq)], |_| {});
        for attempt in 1..=u64::from(retry.policy.max_retries) + 1 {
            retry.sweep(LATER + attempt * (retry.policy.max_backoff + 1));
        }
        assert!(retry.failed());

        let mem = unr.mem_reg(8);
        let local = mem.blk(0, 8, None);
        let remote = Blk {
            region_id: region,
            region_len: 64,
            ..local
        };
        for refused in [unr.put(&local, &remote), unr.get(&local, &remote)] {
            let Err(UnrError::PeerFailed { rank, cause, .. }) = refused else {
                panic!("posted on a latched-down transport: {refused:?}");
            };
            assert_eq!(rank, 0);
            assert!(matches!(cause, PeerFailedCause::RetryExhausted { .. }));
        }
        assert_eq!(unr.met().tx_frames.get(), 0);
        unr.finalize();
    }

    /// The real-socket face of `unr_core::post`'s rule: a reliable put
    /// or aggregate whose first write fails — here onto a stream that a
    /// frame error has latched down — returns the error and leaves
    /// nothing behind for the sweep to retransmit.
    #[test]
    fn a_first_post_onto_a_dead_stream_leaves_nothing_pending() {
        let ((l0, n0), (l1, n1)) = (listen().unwrap(), listen().unwrap());
        let fabric = NetFabric::connect(0, 2, 1, &[n0, n1], l0).unwrap();
        // "Rank 1" is a raw socket that answers HELLO with a length
        // prefix no frame can have.
        let (mut peer, _) = l1.accept().unwrap();
        assert_eq!(
            frame::read_frame(&mut peer).unwrap().kind,
            frame::FRAME_HELLO
        );
        peer.write_all(&[0xff; 8]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while fabric.met.streams_down.get() == 0 {
            assert!(Instant::now() < deadline, "the stream never latched down");
            std::thread::sleep(Duration::from_millis(1));
        }

        let unr = engine(fabric);
        let mem = unr.mem_reg(64);
        for len in [8, 4] {
            // 8 bytes go out at once, 4 are coalesced until the flush.
            let local = mem.blk(0, len, None);
            let sent = unr
                .put(&local, &Blk { rank: 1, ..local })
                .and_then(|()| unr.flush());
            let Err(UnrError::PeerFailed { rank: 1, cause, .. }) = sent else {
                panic!("{len} bytes onto a dead stream: {sent:?}");
            };
            assert_eq!(cause, PeerFailedCause::Killed);
            assert_eq!(unr.pending_len(), 0, "{len} bytes left an entry behind");
        }
        assert!(unr.drain_pending(Duration::from_millis(50)));
        assert_eq!(unr.met().retransmits.get(), 0);
        unr.finalize();
    }

    /// A panic on some other thread while it held transport state must
    /// not turn every later wait, post and control message into a
    /// second panic: the data under those locks is valid at every step.
    #[test]
    fn poisoned_transport_state_does_not_panic_the_wait_path() {
        let (fabric, region) = fixture();
        let unr = engine(fabric);
        fn dies(f: impl FnOnce() + Send) {
            assert!(std::thread::scope(|s| s.spawn(f).join()).is_err());
        }
        // A send-side shard, a dedup window and the failure detail of
        // the shared retry table; the fabric's pre-install buffer (its
        // region map takes no lock; the coalescer's lock is
        // `unr_core::post`'s to test).
        dies(|| unr.ctrl().retry.as_ref().unwrap().poison_for_tests());
        dies(|| unr.fabric().poison_for_tests());

        // A wait whose signal fires only later goes round its loop, and
        // so past the failure latch, before it returns.
        let sig = unr.sig_init(1);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                unr.table().apply_counted(sig.key().raw(), -1);
                unr.fabric().ring_bell();
            });
            assert!(unr.sig_wait(&sig).is_ok());
        });
        assert!(unr.drain_pending(Duration::from_millis(10)));
        // A reliable put to this rank itself goes past the coalescer,
        // through the sequence counter, the replay buffer and the dedup
        // window, and back as an ack — all on the posting thread.
        let mem = unr.mem_reg(8);
        mem.write_bytes(0, &[5; 8]);
        let landed = unr.sig_init(1);
        let remote = Blk {
            region_id: region,
            region_len: 64,
            ..mem.blk(0, 8, Some(&landed))
        };
        unr.put(&mem.blk(0, 8, None), &remote).unwrap();
        assert!(unr.sig_wait(&landed).is_ok());
        assert!(
            unr.drain_pending(Duration::from_secs(10)),
            "the ack never came"
        );
        let landed = unr.fabric().region(region).unwrap().snapshot(0, 8);
        assert_eq!(landed.unwrap(), [5; 8]);
        assert_eq!(unr.agg_backlog(0), (0, 0));
        unr.finalize();
    }

    /// Every wait of the family surfaces an overflowed signal as it does
    /// on the simulator: the error, counted once in
    /// `unr.signal.overflow_trips` and once in the table's statistics.
    #[test]
    fn every_wait_counts_an_overflow_once_in_each_series() {
        let (fabric, _) = fixture();
        let unr = engine(fabric);
        let sig = unr.sig_init(1);
        for _ in 0..2 {
            unr.table().apply_counted(sig.key().raw(), -1);
        }
        let trips = || {
            unr.fabric()
                .obs
                .metrics
                .counter("unr.signal.overflow_trips")
                .get()
        };
        let errors = || unr.signal_stats().overflow_errors.load(Ordering::Relaxed);
        for n in 0..3 {
            let got = match n {
                0 => unr.sig_wait(&sig),
                1 => unr.sig_wait_timeout(&sig, 1_000_000),
                _ => unr.sig_wait_any(&[&sig]).map(drop),
            };
            let overflowed = matches!(
                got,
                Err(UnrError::Signal(SignalError::EventOverflow { .. }))
            );
            assert!(overflowed, "wait {n}: {got:?}");
            assert_eq!((trips(), errors()), (n + 1, n + 1), "wait {n}");
        }
        unr.finalize();
    }

    /// Two threads of one rank wait on different signals, polling the
    /// same socket, and the frames that fire them arrive back to back,
    /// the second waiter's first. Whichever thread reads them applies
    /// the other's addend too, and must ring for it: the other is
    /// parked with no timer but its deadline to fall back on.
    #[test]
    fn two_waiters_whose_frames_cross_both_return_at_once() {
        const ROUNDS: usize = 50;
        let (f0, f1) = pair();
        let cfg = UnrConfig::builder().build().unwrap();
        let init = |f| {
            let world = Arc::new(NetWorld::without_launcher(f));
            NetUnr::init(world, cfg, NetFaults::default()).unwrap()
        };
        let (sender, waiter) = (init(f0), init(f1));
        let mem = waiter.mem_reg(16);
        let sigs = [waiter.sig_init(1), waiter.sig_init(1)];
        let targets = [mem.blk(0, 8, Some(&sigs[0])), mem.blk(8, 8, Some(&sigs[1]))];
        let local = sender.mem_reg(8).blk(0, 8, None);
        let gate = Barrier::new(3);
        let longest = std::thread::scope(|s| {
            let threads: Vec<_> = sigs
                .iter()
                .map(|sig| {
                    let (waiter, gate) = (&waiter, &gate);
                    s.spawn(move || {
                        let mut longest = Duration::ZERO;
                        for _ in 0..ROUNDS {
                            gate.wait();
                            let t0 = Instant::now();
                            waiter.sig_wait_timeout(sig, 10_000_000_000).unwrap();
                            longest = longest.max(t0.elapsed());
                            waiter.sig_reset(sig).unwrap();
                            gate.wait();
                        }
                        longest
                    })
                })
                .collect();
            for _ in 0..ROUNDS {
                gate.wait();
                while waiter.fabric().parked() < 2 {
                    std::thread::yield_now();
                }
                for t in targets.iter().rev() {
                    sender.put(&local, t).unwrap();
                }
                gate.wait();
            }
            threads
                .into_iter()
                .map(|t| t.join().unwrap())
                .max()
                .unwrap()
        });
        assert!(
            longest < Duration::from_millis(50),
            "a waiter took {longest:?}"
        );
        assert_eq!(
            waiter.met().wait_timeouts.get(),
            0,
            "a poll ran out its timeout"
        );
        sender.finalize();
        waiter.finalize();
    }

    /// A sub-millisecond deadline is kept, not rounded up to `poll(2)`'s
    /// whole milliseconds: a 200 µs wait on a connected pair that
    /// nothing answers returns after about 200 µs, each expiry counted
    /// once. (A serve rank's wait for its next arrival is this short.)
    #[test]
    fn a_sub_millisecond_wait_is_not_rounded_up_to_a_millisecond() {
        const WAITS: usize = 20;
        let (f0, f1) = pair();
        let cfg = UnrConfig::builder().build().unwrap();
        let init = |f| {
            let world = Arc::new(NetWorld::without_launcher(f));
            NetUnr::init(world, cfg, NetFaults::default()).unwrap()
        };
        let (idle, waiter) = (init(f0), init(f1));
        let sig = waiter.sig_init(1);
        let mut took: Vec<Duration> = (0..WAITS)
            .map(|_| {
                let t0 = Instant::now();
                let got = waiter.sig_wait_timeout(&sig, 200_000);
                let took = t0.elapsed();
                assert!(
                    matches!(got, Err(UnrError::Timeout { waited: 200_000 })),
                    "{got:?}"
                );
                assert!(
                    took >= Duration::from_micros(200),
                    "returned early: {took:?}"
                );
                took
            })
            .collect();
        took.sort();
        let median = took[WAITS / 2];
        assert!(
            median < Duration::from_micros(600),
            "median of {WAITS} 200 µs waits: {median:?}"
        );
        assert_eq!(waiter.met().wait_timeouts.get(), WAITS as u64);
        idle.finalize();
        waiter.finalize();
    }

    /// Over real sockets too, coalesced puts are counted once per
    /// flush, and come to what counting each put gives: every put once
    /// in `unr.puts`, its bytes in `unr.bytes_put`, one message each on
    /// the channel's and the level's counters and in `UnrStats`, and
    /// each coalesced one in `unr.agg.*`. The receiver gets every byte.
    #[test]
    fn coalesced_puts_count_at_their_flush_what_each_put_would() {
        let (f0, f1) = pair();
        let (sender, receiver) = (engine(f0), engine(f1));
        let target = receiver.mem_reg(64);
        let landed = receiver.sig_init(9);
        let src = sender.mem_reg(64);
        src.write_bytes(0, &(0..64).collect::<Vec<u8>>());
        // Eight coalesced puts of 3 and 4 bytes, then one too big to be.
        for i in 0..8 {
            let len = 3 + i % 2;
            let local = src.blk(i * 4, len, None);
            sender
                .put(&local, &target.blk(i * 4, len, Some(&landed)))
                .unwrap();
        }
        let (local, remote) = (src.blk(32, 32, None), target.blk(32, 32, Some(&landed)));
        sender.put(&local, &remote).unwrap();
        sender.flush().unwrap();
        receiver.sig_wait_timeout(&landed, 10_000_000_000).unwrap();
        assert!(sender.drain_pending(Duration::from_secs(10)));

        let c = |name: &str| sender.obs().metrics.counter(name).get();
        let ch = sender.channel();
        let (puts, bytes) = (9, 8 * 3 + 4 + 32);
        assert_eq!(c("unr.puts"), puts);
        assert_eq!(c("unr.bytes_put"), bytes);
        assert_eq!(c(&format!("unr.channel.{}.msgs", ch.name)), puts);
        let level = format!("unr.level.{}.msgs", ch.level.as_index());
        assert_eq!(c(&level), puts);
        let stats = sender.stats();
        assert_eq!(stats.puts.load(Ordering::Relaxed), puts);
        assert_eq!(stats.bytes_put.load(Ordering::Relaxed), bytes);
        assert_eq!(c("unr.agg.puts_coalesced"), 8);
        assert_eq!(c("unr.agg.bytes_packed"), 28);
        let mut got = [0u8; 64];
        target.read_bytes(0, &mut got);
        for (i, &b) in got.iter().enumerate() {
            let sent = i >= 32 || i % 4 < 3 + (i / 4) % 2;
            assert_eq!(b, if sent { i as u8 } else { 0 }, "byte {i}");
        }
        sender.finalize();
        receiver.finalize();
    }

    /// The shared handler over the real sockets' sink (its own cases
    /// are `unr_core::ctrl`'s tests), fed messages this rank sends
    /// itself — which the posting thread handles, acks and all: what
    /// cannot land is counted in `unr.transport.bad_dma`, what cannot be
    /// decoded in `unr.ctrl.malformed`, and each ack settles an entry of
    /// the retry table without a frame going out.
    #[test]
    fn ctrl_payload_that_cannot_land_drops_its_addend_but_is_still_acked() {
        let (fabric, region) = fixture();
        let unr = engine(Arc::clone(&fabric));
        let sig = unr.sig_init(2);
        let key = sig.key().raw();
        // Entries 0..4 toward this rank for the acks to settle, unarmed
        // so that no sweep resends them.
        let retry = unr.ctrl().retry.as_ref().unwrap();
        let dst = RKey {
            rank: 0,
            id: region,
            len: 64,
        };
        for seq in 0..4 {
            let reg = retry.register_data(Route::Dgram, Bytes::from(vec![0; 4]), dst, 0, 0, 0, 0);
            assert_eq!(reg.seq, seq);
        }
        let ctrl = |msg: Vec<u8>| fabric.post_ctrl(0, 0, 0, CtrlFrame::Owned(msg)).unwrap();
        let acked = || (fabric.met.acks.get(), retry.in_flight());

        // Out of bounds; an aggregate with one span that fits and one
        // in an unknown region; a frame cut short.
        ctrl(wire::seq_data_msg(0, region, 61, key, -1, &[7; 4]));
        let spans = [(region, 0, 4), (region + 1, 0, 4)];
        ctrl(wire::agg_msg(1, true, &spans, &[(key, -2)], &[8; 8]));
        ctrl(wire::seq_data_msg(2, region, 0, key, -1, &[7; 4])[..20].to_vec());
        assert_eq!(sig.counter(), 2);
        assert_eq!(fabric.met.bad_dma.get(), 2);
        let malformed = fabric.obs.metrics.snapshot().counter("unr.ctrl.malformed");
        assert_eq!(malformed, Some(1));
        assert_eq!(acked(), (2, 2), "0 and 1 acked, 2 and 3 not");

        // The same two shapes in bounds: bytes land, addends apply.
        ctrl(wire::seq_data_msg(2, region, 60, key, -1, &[1; 4]));
        ctrl(wire::agg_msg(
            3,
            true,
            &[(region, 0, 4)],
            &[(key, -1)],
            &[3; 4],
        ));
        assert!(sig.test());
        assert_eq!(fabric.met.bad_dma.get(), 2);
        assert_eq!(acked(), (4, 0));
        let mem = fabric.region(region).unwrap();
        assert_eq!(mem.snapshot(60, 4).unwrap(), [1; 4]);
        assert_eq!(mem.snapshot(0, 4).unwrap(), [3; 4]);
        assert_eq!(
            fabric.met.tx_frames.get(),
            0,
            "a rank answers itself without a socket"
        );
        unr.finalize();
    }

    /// A `SEQ_DATA` and a `MSG_AGG` that reach a rank before its engine
    /// does wait in the fabric's pre-install buffer, and installation
    /// handles each exactly once: the bytes land, each addend reaches
    /// the table once, both are acked — and a copy sent after install is
    /// a duplicate.
    #[test]
    fn ctrl_messages_that_beat_init_are_handled_once_on_install() {
        const KEY: u64 = 1;
        let (f0, f1) = pair();
        let sender = engine(f0);
        let mem = f1.register(64);
        let region = mem.rkey.id;
        let retry = sender.ctrl().retry.as_ref().unwrap();
        let dst = RKey {
            rank: 1,
            id: region,
            len: 64,
        };
        let data = retry.register_data(Route::Dgram, Bytes::from(vec![5; 8]), dst, 8, KEY, -1, 0);
        let agg = retry.register_agg(1, 0, &[(region, 32, 4)], &[(KEY, -2)], &[6; 4]);
        for frame in [data.frame.to_vec(), agg.frame.to_vec()] {
            let frame = CtrlFrame::Owned(frame);
            sender.fabric().post_ctrl(1, 0, 0, frame).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while f1.met.rx_frames.get() < 2 {
            assert!(
                Instant::now() < deadline,
                "rank 1's reactor never read them"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            mem.snapshot(0, 64).unwrap(),
            [0; 64],
            "handled before install"
        );

        let receiver = engine(f1);
        assert_eq!(mem.snapshot(8, 8).unwrap(), [5; 8]);
        assert_eq!(mem.snapshot(32, 4).unwrap(), [6; 4]);
        // No signal of this rank's can exist before its engine does, so
        // each addend finds its key unallocated: what counts is that it
        // reached the table once.
        let adds = receiver.obs().metrics.snapshot().counter("unr.signal.adds");
        let stale = receiver.table().stats.stale_rejects.load(Ordering::Relaxed);
        assert_eq!((adds, stale), (Some(2), 2));
        assert!(sender.drain_pending(Duration::from_secs(10)), "not acked");
        assert_eq!(sender.met().acks.get(), 2);

        // The dedup window saw the first copy: a second is acked, not
        // applied.
        let copy = CtrlFrame::Owned(data.frame.to_vec());
        sender.fabric().post_ctrl(1, 0, 0, copy).unwrap();
        while receiver.met().dup_suppressed.get() == 0 {
            assert!(Instant::now() < deadline, "the copy was never read");
            std::thread::sleep(Duration::from_millis(1));
        }
        let adds = receiver.obs().metrics.snapshot().counter("unr.signal.adds");
        assert_eq!(adds, Some(2));
        sender.finalize();
        receiver.finalize();
    }

    /// The epoch, checkpoint and restore are the shared engine's here
    /// too: the epoch is the world incarnation's, a checkpoint carries
    /// it, and a restore gives the region its checkpointed bytes back.
    #[test]
    fn epoch_is_the_worlds_and_restore_gives_back_the_checkpoint() {
        let (fabric, _) = fixture();
        let world = Arc::new(NetWorld::without_launcher(fabric).at_epoch(2));
        let unr = NetUnr::init(
            Arc::clone(&world),
            UnrConfig::default(),
            NetFaults::default(),
        )
        .unwrap();
        assert_eq!(unr.epoch(), Epoch::new(world.epoch()));
        let mem = unr.mem_reg(16);
        mem.write_bytes(0, &[7; 16]);
        let ckpt = unr.checkpoint(&mem);
        assert_eq!(ckpt.epoch, Epoch::new(2));
        mem.write_bytes(0, &[0; 16]);
        unr.restore(&mem, &ckpt);
        let mut back = [0; 16];
        mem.read_bytes(0, &mut back);
        assert_eq!(back, [7; 16]);
        unr.finalize();
    }

    /// Bring-up validates on this fabric as on the simulator: a
    /// struct-literal config that `build()` would reject is refused.
    #[test]
    fn init_refuses_a_config_build_would_reject() {
        let (fabric, _) = fixture();
        let cfg = UnrConfig {
            reliability: Reliability::Off,
            recovery: RecoveryPolicy::Respawn {
                max_attempts: 1,
                rejoin_timeout: 1_000,
            },
            ..UnrConfig::default()
        };
        let world = Arc::new(NetWorld::without_launcher(fabric));
        let refused = NetUnr::init(world, cfg, NetFaults::default());
        assert!(matches!(refused, Err(UnrError::InvalidConfig(_))));
    }

    /// Progress is a function on this fabric too: software or hardware
    /// progress, reliable or coalescing, bring-up starts no thread of
    /// the engine's own — a process is main plus reactors. Names rather
    /// than `Threads:`, because the harness runs other tests' threads in
    /// this process (`comm` keeps 15 bytes of a name).
    #[cfg(target_os = "linux")]
    #[test]
    fn no_config_runs_a_progress_thread() {
        let progress_threads = || -> Vec<String> {
            std::fs::read_dir("/proc/self/task")
                .unwrap()
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .map(|comm| comm.trim_end().to_string())
                .filter(|n| n.starts_with("netfab-progress") || n.starts_with("netfab-hwctrl"))
                .collect()
        };
        let software = ProgressMode::PollingAgent { interval: 0 };
        for progress in [software, ProgressMode::Hardware] {
            for (reliability, agg) in [(Reliability::On, 0), (Reliability::Off, 512)] {
                let cfg = UnrConfig::builder()
                    .progress(progress)
                    .reliability(reliability)
                    .agg_eager_max(agg)
                    .build()
                    .unwrap();
                let (fabric, _) = fixture();
                let world = Arc::new(NetWorld::without_launcher(fabric));
                let unr = NetUnr::init(world, cfg, NetFaults::default()).unwrap();
                let seen = progress_threads();
                unr.finalize();
                assert!(
                    seen.is_empty(),
                    "{progress:?} {reliability:?} agg {agg}: {seen:?}"
                );
            }
        }
    }
}
