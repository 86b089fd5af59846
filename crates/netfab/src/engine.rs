//! `NetUnr` — bring-up of the UNR engine over the TCP-loopback fabric.
//!
//! Everything a rank does once it is up is `unr_core`'s own engine,
//! monomorphised over [`NetTransport`]: the post path
//! ([`unr_core::post`]: validate → coalesce → stripe → register →
//! send), the `sig_wait` family ([`unr_core::wait`]), `mem_reg`,
//! `progress`, `finalize`, the clock, the statistics and every `unr.*`
//! engine counter. `NetUnr` holds that engine and derefs to it. The
//! signal table, the coalescer, the wire format, the retry table
//! ([`unr_core::RetryState`]), the receive-side control handler
//! ([`unr_core::handle_ctrl`]) and the atomic-add sink
//! ([`unr_core::TableSink`]) are shared too. What this module keeps is
//! bring-up ([`NetUnr::init`]) and the control path (`CtrlPath`) that
//! the transport's progress thread and waiting rank threads run.
//!
//! * **Unreliable** (default): each message (or stripe) rides one `PUT`
//!   frame whose header carries the remote notification as 128-bit
//!   custom bits; whichever receiver thread reads it — the one waiting
//!   for it, else a reactor — deposits the payload and applies the
//!   custom bits through the fabric's atomic-add sink — level-2
//!   emulation of the paper's level-4 hardware.
//! * **Reliable** ([`Reliability::On`], or `Auto` with fault injection
//!   enabled): stripes become `unr_core::wire` `SEQ_DATA` control
//!   messages registered in the shared retry table — per-destination
//!   sequence numbers, buffered until acked, deduplicated at the
//!   receiver, retransmitted with exponential backoff by a progress
//!   thread that sleeps until the table's next deadline (time is
//!   nanoseconds since the engine started). Control messages are
//!   handled by the thread that read them when that is a rank thread
//!   inside a wait, by the progress thread otherwise; the handling is
//!   order-independent (per-sequence dedup, commutative addends), so
//!   the two may race. Exhausted retries latch
//!   the transport down and surface as structured
//!   [`UnrError::PeerFailed`] errors naming the dead rank, its cause
//!   and the membership epoch.
//!
//! In a post-recovery world (membership epoch > 0, see
//! [`NetWorld::epoch`]) every control frame is wrapped in the
//! `unr_core::wire` epoch envelope; inbound frames carrying an epoch
//! older than this engine's are fenced off the control path and counted
//! in `unr.epoch.stale_rejects`, exactly like stale signal generations.
//! PUT/GET data frames are not stamped: on netfab the whole TCP mesh is
//! rebuilt per epoch, so no data frame can cross an epoch boundary.
//!
//! A wait has no scheduler to park on: [`NetTransport`]'s park polls
//! the rank's sockets itself ([`NetFabric::wait_progress`]) — reads,
//! deposits, applies the addend, handles the control messages it read —
//! for as long as the wait's deadline (or the `UNR_NETFAB_WAIT_MS`
//! cap) allows, so the put it waits for completes on the waiting
//! thread, and rings the event bell for any other waiter whose frame it
//! read. Local PUT
//! completion is buffered-send: each sub-message's share of the local
//! signal's `-1` is applied when its payload has been copied out of the
//! region into its frame.

use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use unr_core::ctrl::{self, CtrlEvent, CtrlSink};
use unr_core::signal::SignalTable;
use unr_core::{
    Backend, Channel, Encoding, HwMetrics, ProgressMode, Reliability, Resend, RetryPolicy,
    RetryState, TableSink, Unr, UnrConfig, UnrError, UnrMem,
};
use unr_simnet::Ns;

use crate::fabric::{NetAddSink, NetFabric, TransportMetrics};
use crate::launch::NetWorld;
use crate::transport::{NetFaults, NetTransport};

/// A netfab-registered memory region (`UNR_Mem_Reg` over sockets): the
/// engine's own [`UnrMem`], registered under this rank's real
/// `(rank, id, len)`.
pub type NetMem = UnrMem;

/// The emulated atomic-add unit: the thread that read the frame — a
/// reactor, or a rank thread in a wait — applies the addend.
impl NetAddSink for TableSink {
    fn apply(&self, custom: u128) {
        if let Some(n) = self.decode(custom) {
            self.table.apply_counted(n.key, n.addend);
        }
    }
}

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
/// far below a realistic TCP RTT, so netfab clamps it up.
const MIN_RTO: Duration = Duration::from_millis(5);
/// Wall-clock floor for the backoff cap.
const MIN_BACKOFF_CAP: Duration = Duration::from_millis(100);
/// Default wall-clock cap on a wait with no deadline of its own.
const DEFAULT_WAIT: Duration = Duration::from_secs(30);

impl NetUnr {
    /// Bring up the engine on an established [`NetWorld`].
    ///
    /// `cfg.backend` must be [`Backend::Netfab`]; reliability follows
    /// [`Reliability`]: `Auto` turns the ack/replay protocol on iff
    /// `faults` injects drops, mirroring the simnet engine's rule.
    pub fn init(world: Arc<NetWorld>, cfg: UnrConfig, faults: NetFaults) -> Result<NetUnr, UnrError> {
        assert_eq!(
            cfg.backend,
            Backend::Netfab,
            "NetUnr::init drives the netfab backend; for Backend::Simnet use unr_core::Unr::init"
        );
        cfg.validate()?;
        let fabric = Arc::clone(&world.fabric);
        let channel = Channel::netfab();
        let table = SignalTable::with_key_capacity(cfg.n_bits, Encoding::Full128.max_key());
        let reliable = match cfg.reliability {
            Reliability::On => true,
            Reliability::Off => false,
            Reliability::Auto => faults.any(),
        };
        let hardware = cfg.resolve_progress(&channel, reliable) == ProgressMode::Hardware;
        let sink = Arc::new(TableSink::new(
            Arc::clone(&table),
            &fabric.obs,
            hardware.then(|| HwMetrics::new(&fabric.obs)),
        ));
        fabric.set_add_sink(Arc::clone(&sink) as Arc<dyn NetAddSink>);
        // The retry table's clock is nanoseconds since this instant.
        let retry = reliable.then(|| {
            Arc::new(RetryState::new(
                RetryPolicy {
                    timeout: cfg.retry_timeout.max(MIN_RTO.as_nanos() as Ns),
                    max_backoff: cfg.retry_max_backoff.max(MIN_BACKOFF_CAP.as_nanos() as Ns),
                    max_retries: cfg.max_retries,
                    fallback_after: cfg.fallback_after,
                    nics: fabric.nics(),
                    ns_per_byte: 0.0,
                },
                fabric.nranks(),
            ))
        });
        let ctrl = Arc::new(CtrlPath {
            fabric: Arc::clone(&fabric),
            sink,
            retry: retry.clone(),
            epoch: world.epoch(),
            t0: Instant::now(),
        });
        let wait_cap = std::env::var("UNR_NETFAB_WAIT_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(DEFAULT_WAIT);
        // On this backend the reactor threads apply notification custom
        // bits at frame-read time (the emulated level-4 atomic-add
        // unit), so the data path never needs the progress thread. It
        // exists for the *control* path: acks, retransmits, `MSG_AGG`
        // and `MSG_EPOCH`. Under hardware progress with neither the
        // reliable transport nor the coalescer there is no control
        // traffic to drain — spawn nothing (threads = main + reactors,
        // the paper's "no software progress at all"). Hybrid configs
        // (hardware + reliable/agg, DESIGN.md §5g) spawn it as the
        // ctrl-only drainer under the `netfab-hwctrl-*` name.
        let progress = (!hardware || reliable || cfg.agg_eager_max > 0).then(|| {
            let kind = if hardware { "hwctrl" } else { "progress" };
            format!("netfab-{kind}-r{}", fabric.rank())
        });
        let tx = NetTransport::new(ctrl, faults, wait_cap.as_nanos() as Ns, progress);
        let eng = Unr::new(tx, cfg, channel, table, retry);
        Ok(NetUnr { eng, world })
    }

    fn ctrl(&self) -> &CtrlPath {
        self.eng.transport().ctrl()
    }

    /// The world this engine runs in.
    pub fn world(&self) -> &Arc<NetWorld> {
        &self.world
    }

    /// The underlying TCP fabric.
    pub fn fabric(&self) -> &Arc<NetFabric> {
        &self.ctrl().fabric
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

/// The control path of one engine: what its receive side and its
/// retransmit sweep need, shared by the rank thread (inside a wait) and
/// the progress thread.
pub(crate) struct CtrlPath {
    pub(crate) fabric: Arc<NetFabric>,
    /// The atomic-add unit, which every apply on this rank goes through.
    pub(crate) sink: Arc<TableSink>,
    /// Ack/replay state — `Some` iff the reliable transport is active.
    pub(crate) retry: Option<Arc<RetryState>>,
    /// Membership epoch of the world incarnation this engine drives —
    /// fixed for the engine's lifetime (netfab rebuilds the engine per
    /// epoch). 0: no rank has ever died; control frames ride bare.
    pub(crate) epoch: u64,
    /// Engine start: the retry table's clock counts from here.
    t0: Instant,
}

impl CtrlPath {
    /// The retry table's time: wall-clock nanoseconds since `t0`.
    pub(crate) fn now(&self) -> Ns {
        self.t0.elapsed().as_nanos() as Ns
    }

    /// The progress thread, until `stop`: handle what the reactors
    /// queued, retransmit what is due, sleep on the control bell in
    /// between.
    pub(crate) fn run(&self, stop: &AtomicBool) {
        loop {
            // Epoch first, then the stop flag and the work: whatever
            // changes during the pass — a control message a reactor
            // queued, `finalize`, a first unacked sub-message — rings
            // the control bell past `seen`, and the sleep below returns
            // at once. Data frames ring another bell, and control frames
            // a waiting rank thread read ring none: it handles them
            // itself.
            let seen = self.fabric.ctrl_epoch();
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let drained = self.drain();
            let next_sweep = self.sweep();
            if drained > 0 {
                // Signals may have fired: wake sig_wait parkers — and go
                // round again rather than sleep, more is likely on its
                // way.
                self.fabric.ring_bell();
            } else {
                self.fabric.wait_ctrl_since(seen, next_sweep);
            }
        }
    }

    /// Handle every queued control message, on the calling thread — the
    /// progress thread, or a rank thread in a wait that read some
    /// itself; the two may run this at once and split the queue between
    /// them ([`unr_core::handle_ctrl`] is order-independent). Frames
    /// wrapped in the epoch envelope are fenced first: a stale epoch
    /// (older than this engine's) is dropped and counted, never parsed.
    /// Returns how many this call handled (counted in
    /// `unr.hw.ctrl_msgs` under hardware progress).
    pub(crate) fn drain(&self) -> u64 {
        let mut sink = self;
        let mut drained = 0u64;
        while let Some((src, bytes)) = self.fabric.pop_ctrl() {
            match ctrl::admit(&bytes, || self.epoch) {
                Some(frame) => ctrl::handle_ctrl(self.retry.as_deref(), src, frame, &mut sink),
                None => self.fabric.obs.metrics.counter("unr.epoch.stale_rejects").inc(),
            }
            drained += 1;
        }
        if let (Some(hw), true) = (&self.sink.hw, drained > 0) {
            hw.ctrl_msgs.add(drained);
        }
        drained
    }

    /// Retransmit timed-out reliable sub-messages (progress-thread
    /// context). Returns when to sweep again: at the earliest deadline
    /// left, but within one `rto` — a sub-message posted after this
    /// sweep is due `rto` after its post, so not before that — or
    /// `None` with nothing unacked (the post that changes that rings
    /// the control bell).
    fn sweep(&self) -> Option<Instant> {
        let retry = self.retry.as_ref().filter(|r| r.in_flight() > 0)?;
        let now = self.now();
        let out = retry.sweep(now);
        for resend in out.resends {
            // Every netfab entry is a control frame (`Route::Dgram` or
            // `Route::Agg`); the table has moved it to the next socket.
            if let Resend::Dgram { dst, nic, bytes } = resend {
                // Counted first: on one core the write below can hand
                // the CPU to the peer, and its ack may reach a rank
                // thread that reads this counter before we run again.
                self.fabric.met.retransmits.inc();
                let _ = self.fabric.send_ctrl(dst, nic, &ctrl::stamp(self.epoch, &bytes));
            }
        }
        if out.exhausted > 0 {
            // The table has latched the peer down: waiters must look.
            self.fabric.ring_bell();
        }
        // Counted after the sweep: an entry registered behind its back
        // either shows here or found the table empty and rang the bell.
        (retry.in_flight() > 0).then(|| {
            let next = out.next_deadline.unwrap_or(Ns::MAX).min(now + retry.policy.timeout);
            self.t0 + Duration::from_nanos(next)
        })
    }
}

/// The sockets under [`unr_core::handle_ctrl`].
impl CtrlSink for &CtrlPath {
    fn deposit(&mut self, region: u32, offset: u64, payload: &[u8]) -> bool {
        self.fabric.deposit(region, offset, payload)
    }

    /// Netfab GETs use the fabric's native GET_REQ/GET_REP frames; a
    /// fallback-get control message is never produced here.
    fn read(&mut self, _region: u32, _offset: u64, _len: u64) -> Option<Vec<u8>> {
        None
    }

    fn apply(&mut self, key: u64, addend: i64) {
        self.sink.apply_counted(key, addend);
    }

    fn reply(&mut self, dst: usize, frame: Vec<u8>) {
        let _ = self.fabric.send_ctrl(dst, 0, &ctrl::stamp(self.epoch, &frame));
    }

    fn count(&mut self, event: CtrlEvent) {
        match event {
            CtrlEvent::DupSuppressed => self.fabric.met.dup_suppressed.inc(),
            CtrlEvent::Acked { .. } => self.fabric.met.acks.inc(),
            // Registered on first use: peers that speak the protocol
            // never produce one.
            CtrlEvent::Malformed => self.fabric.obs.metrics.counter("unr.ctrl.malformed").inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame;
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::Barrier;
    use unr_core::wire::{self, CtrlMsg};
    use unr_core::{Blk, PeerFailedCause, Route, SignalError};
    use unr_simnet::{Bytes, RKey};

    /// A one-rank fabric (no peers, so no sockets beyond the reactors'
    /// wake channels) with a 64-byte region.
    fn fixture() -> (Arc<NetFabric>, u32) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let fabric = NetFabric::connect(0, 1, 1, &[vec![port]], vec![listener]).unwrap();
        let (region_id, _) = fabric.register(64);
        (fabric, region_id)
    }

    /// A reliable, coalescing engine on the one-rank fabric.
    fn engine(fabric: Arc<NetFabric>) -> NetUnr {
        let cfg = UnrConfig::builder()
            .backend(Backend::Netfab)
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
        // Nobody acks: the one entry runs out of retransmissions, and
        // the test is the only reader of the control queue.
        unr.transport().stop_progress();
        let retry = unr.ctrl().retry.as_ref().unwrap();
        let dst = RKey {
            rank: 0,
            id: region,
            len: 64,
        };
        let reg = retry.register_data(Route::Dgram, Bytes::from(vec![1; 4]), dst, 0, 0, 0, 0);
        retry.arm(0, &[(0, reg.seq)]);
        for attempt in 1..=u64::from(retry.policy.max_retries) + 1 {
            retry.sweep(attempt * (retry.policy.max_backoff + 1));
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
    /// nothing behind for the progress thread to retransmit.
    #[test]
    fn a_first_post_onto_a_dead_stream_leaves_nothing_pending() {
        let listen = || TcpListener::bind("127.0.0.1:0").unwrap();
        let (l0, l1) = (listen(), listen());
        let port = |l: &TcpListener| l.local_addr().unwrap().port();
        let ports = [vec![port(&l0)], vec![port(&l1)]];
        let fabric = NetFabric::connect(0, 2, 1, &ports, vec![l0]).unwrap();
        // "Rank 1" is a raw socket that answers HELLO with a length
        // prefix no frame can have.
        let (mut peer, _) = l1.accept().unwrap();
        assert_eq!(frame::read_frame(&mut peer).unwrap().kind, frame::FRAME_HELLO);
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
            let sent = unr.put(&local, &Blk { rank: 1, ..local }).and_then(|()| unr.flush());
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
        // the shared retry table; the fabric's region map, early-custom
        // buffer and control queue; then the transport's own lock (the
        // coalescer's is `unr_core::post`'s to test).
        dies(|| unr.ctrl().retry.as_ref().unwrap().poison_for_tests());
        dies(|| unr.fabric().poison_for_tests());
        dies(|| {
            let _held = unr.transport().progress.lock();
            panic!("poisoning the transport's lock on purpose");
        });

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
        // Rank threads handle control messages too: a reliable put to
        // this rank itself goes past the coalescer, through the
        // sequence counter, the replay buffer and the dedup window, and
        // back as an ack.
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
        assert!(unr.drain_pending(Duration::from_secs(10)), "the ack never came");
        assert_eq!(unr.fabric().region(region).unwrap().snapshot(0, 8), [5; 8]);
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
        let listen = || TcpListener::bind("127.0.0.1:0").unwrap();
        let (l0, l1) = (listen(), listen());
        let port = |l: &TcpListener| l.local_addr().unwrap().port();
        let ports = [vec![port(&l0)], vec![port(&l1)]];
        // Rank 0 dials into rank 1's backlog; rank 1 accepts.
        let f0 = NetFabric::connect(0, 2, 1, &ports, vec![l0]).unwrap();
        let f1 = NetFabric::connect(1, 2, 1, &ports, vec![l1]).unwrap();
        let cfg = UnrConfig::builder()
            .backend(Backend::Netfab)
            .build()
            .unwrap();
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

    /// The shared handler over the real sockets' sink (its own cases
    /// are `unr_core::ctrl`'s tests): what cannot land is counted in
    /// `unr.transport.bad_dma`, what cannot be decoded in
    /// `unr.ctrl.malformed`, and the acks really leave.
    #[test]
    fn ctrl_payload_that_cannot_land_drops_its_addend_but_is_still_acked() {
        let (fabric, region) = fixture();
        let unr = engine(Arc::clone(&fabric));
        let sig = unr.sig_init(2);
        let key = sig.key().raw();
        unr.transport().stop_progress();
        let ctrl = |msg: Vec<u8>| {
            let mut sink = unr.ctrl();
            ctrl::handle_ctrl(unr.ctrl().retry.as_deref(), 0, &msg, &mut sink)
        };
        let acks = || {
            let mut seqs = Vec::new();
            while let Some((_, bytes)) = fabric.pop_ctrl() {
                match CtrlMsg::parse(&bytes) {
                    CtrlMsg::Ack { seq } => seqs.push(seq),
                    _ => panic!("only acks are sent back"),
                }
            }
            seqs
        };

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
        assert_eq!(acks(), [0, 1]);

        // The same two shapes in bounds: bytes land, addends apply.
        ctrl(wire::seq_data_msg(2, region, 60, key, -1, &[1; 4]));
        ctrl(wire::agg_msg(3, true, &[(region, 0, 4)], &[(key, -1)], &[3; 4]));
        assert!(sig.test());
        assert_eq!(fabric.met.bad_dma.get(), 2);
        assert_eq!(acks(), [2, 3]);
        let mem = fabric.region(region).unwrap();
        assert_eq!(mem.snapshot(60, 4), [1; 4]);
        assert_eq!(mem.snapshot(0, 4), [3; 4]);
        unr.finalize();
    }
}
