//! `NetUnr` — the UNR engine over the TCP-loopback fabric.
//!
//! A put or a get here is `unr_core`'s own post path
//! ([`unr_core::post`]: validate → coalesce → stripe → register →
//! send), monomorphised over [`NetTransport`]; `NetUnr` holds that
//! engine and derefs to it, so `put`, `get`, `flush`, `sig_init`, the
//! statistics and every `unr.*` engine counter are the simnet engine's.
//! The signal table, the coalescer, the wire format, the retry table
//! ([`unr_core::RetryState`]) and the receive-side control handler
//! ([`unr_core::handle_ctrl`]) are shared too. What this module keeps
//! is what is still per fabric: bring-up ([`NetUnr::init`]), the wait
//! loop, the progress thread and the receive side (`CtrlPath`).
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
//! `sig_wait` has no scheduler to park on and no thread to be woken by:
//! while its signal has not fired it progresses the rank's sockets
//! itself ([`NetFabric::wait_progress`]) — reads, deposits, applies the
//! addend, handles the control messages it read — and re-tests, so the
//! put it waits for completes on the waiting thread. Local PUT
//! completion is buffered-send: each sub-message's share of the local
//! signal's `-1` is applied when its payload has been copied out of the
//! region into its frame.

use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use unr_core::ctrl::{self, CtrlEvent, CtrlSink};
use unr_core::signal::{Signal, SignalError, SignalTable};
use unr_core::{
    Backend, Channel, Encoding, Epoch, FlushWhy, Notif, ProgressMode, Reliability, Resend,
    RetryPolicy, RetryState, Unr, UnrConfig, UnrError, UnrMem,
};
use unr_simnet::sync::Mutex;
use unr_simnet::Ns;

use crate::fabric::{NetAddSink, NetFabric, TransportMetrics};
use crate::launch::NetWorld;
use crate::transport::{NetFaults, NetTransport};

/// A netfab-registered memory region (`UNR_Mem_Reg` over sockets): the
/// engine's own [`UnrMem`], registered under this rank's real
/// `(rank, id, len)`.
pub type NetMem = UnrMem;

/// Sink that decodes inbound 128-bit custom bits into a [`Notif`] and
/// applies it to the signal table — the emulated atomic-add unit.
///
/// Always the *terminal* step of a notification on this backend: the
/// reactor thread that read the frame applies the addend straight into
/// the generation-tagged slot; nothing is ever queued for a software
/// progress pass to pick up. Under [`ProgressMode::Hardware`] the
/// `unr.hw.*` series account this CQ-bypass explicitly.
struct TableSink {
    table: Arc<SignalTable>,
    /// `Some` iff the engine runs hardware progress (the `unr.hw.*`
    /// series stay absent from software-progress snapshots).
    hw: Option<NetHwMetrics>,
}

/// Pre-resolved `unr.hw.*` instruments (see OBSERVABILITY.md),
/// registered only under [`ProgressMode::Hardware`].
#[derive(Clone)]
struct NetHwMetrics {
    sink_applies: Arc<unr_obs::Counter>,
    cq_bypass: Arc<unr_obs::Counter>,
    ctrl_msgs: Arc<unr_obs::Counter>,
}

impl NetHwMetrics {
    fn new(obs: &unr_obs::Obs) -> NetHwMetrics {
        let m = &obs.metrics;
        NetHwMetrics {
            sink_applies: m.counter("unr.hw.sink_applies"),
            cq_bypass: m.counter("unr.hw.cq_bypass"),
            ctrl_msgs: m.counter("unr.hw.ctrl_msgs"),
        }
    }
}

impl NetAddSink for TableSink {
    fn apply(&self, custom: u128) {
        let n: Notif = Encoding::Full128.decode(custom);
        if let Some(hw) = &self.hw {
            hw.cq_bypass.inc();
            if n.key != 0 {
                hw.sink_applies.inc();
            }
        }
        self.table.apply_counted(n.key, n.addend);
    }
}

/// The UNR engine for the netfab backend: the shared engine
/// ([`Unr`], reached through `Deref`) over [`NetTransport`], plus what
/// is still this fabric's own — bring-up, the wait loop, the progress
/// thread.
pub struct NetUnr {
    eng: Unr<NetTransport>,
    world: Arc<NetWorld>,
    stop: Arc<AtomicBool>,
    /// The resolved progress mode ([`ProgressMode::Hardware`] skips the
    /// control thread entirely when nothing rides the control path).
    progress_mode: ProgressMode,
    /// Control-path drainer — `None` under pure hardware progress.
    progress: Mutex<Option<JoinHandle<()>>>,
    /// Wall-clock cap on one `sig_wait`.
    wait_timeout: Duration,
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
/// Default wall-clock cap on one `sig_wait`.
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
        let table = SignalTable::with_key_capacity(cfg.n_bits, Encoding::Full128.max_key());
        let progress_mode = cfg
            .progress
            .unwrap_or(ProgressMode::PollingAgent { interval: 0 });
        let hw = (progress_mode == ProgressMode::Hardware)
            .then(|| NetHwMetrics::new(&fabric.obs));
        fabric.set_add_sink(Arc::new(TableSink {
            table: Arc::clone(&table),
            hw: hw.clone(),
        }));
        let reliable = match cfg.reliability {
            Reliability::On => true,
            Reliability::Off => false,
            Reliability::Auto => faults.any(),
        };
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
        let hardware = progress_mode == ProgressMode::Hardware;
        let ctrl = Arc::new(CtrlPath {
            fabric: Arc::clone(&fabric),
            table: Arc::clone(&table),
            retry: retry.clone(),
            epoch: world.epoch(),
            t0: Instant::now(),
            ctrl_msgs: hw.map(|h| h.ctrl_msgs),
        });
        let tx = NetTransport::new(Arc::clone(&ctrl), faults);
        let eng = Unr::new(tx, cfg, Channel::netfab(), table, retry, &fabric.obs);
        let stop = Arc::new(AtomicBool::new(false));

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
        let need_ctrl = !hardware || reliable || cfg.agg_eager_max > 0;
        let progress = need_ctrl.then(|| {
            let stop = Arc::clone(&stop);
            let name = if hardware {
                format!("netfab-hwctrl-r{}", fabric.rank())
            } else {
                format!("netfab-progress-r{}", fabric.rank())
            };
            std::thread::Builder::new()
                .name(name)
                .spawn(move || loop {
                    // Epoch first, then the stop flag and the work:
                    // whatever changes during the pass — a control
                    // message a reactor queued, `finalize`, a first
                    // unacked sub-message — rings the control bell past
                    // `seen`, and the sleep below returns at once. Data
                    // frames ring another bell, and control frames a
                    // waiting rank thread read ring none: it handles
                    // them itself.
                    let seen = ctrl.fabric.ctrl_epoch();
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let drained = ctrl.drain();
                    let next_sweep = ctrl.sweep();
                    if drained > 0 {
                        // Signals may have fired: wake sig_wait
                        // parkers — and go round again rather than
                        // sleep, more is likely on its way.
                        ctrl.fabric.ring_bell();
                    } else {
                        ctrl.fabric.wait_ctrl_since(seen, next_sweep);
                    }
                })
                .expect("spawn progress thread")
        });

        let wait_timeout = std::env::var("UNR_NETFAB_WAIT_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(DEFAULT_WAIT);

        Ok(NetUnr {
            eng,
            world,
            stop,
            progress_mode,
            progress: Mutex::new(progress),
            wait_timeout,
        })
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

    /// The resolved progress mode.
    pub fn progress_mode(&self) -> ProgressMode {
        self.progress_mode
    }

    /// Register a memory region (`UNR_Mem_Reg`).
    pub fn mem_reg(&self, len: usize) -> NetMem {
        let (_, region) = self.fabric().register(len);
        UnrMem::new(region.mem().clone())
    }

    /// The membership epoch this engine incarnation runs in.
    pub fn epoch(&self) -> Epoch {
        Epoch::new(self.ctrl().epoch)
    }

    /// Block until `sig` triggers. Errors: overflow, a latched reliable
    /// failure (structured [`UnrError::PeerFailed`] naming the dead
    /// rank), or the wall-clock cap (default 30 s; override with
    /// `UNR_NETFAB_WAIT_MS`).
    pub fn sig_wait(&self, sig: &Signal) -> Result<(), UnrError> {
        // Entering a blocking wait: anything still buffered must go out
        // or the awaited signal may never trigger.
        self.agg_flush_all(FlushWhy::Wait)?;
        let start = Instant::now();
        loop {
            // Sampled before the predicate, so a frame applied between
            // `sig.test()` and the sleep is not slept through.
            let seen = self.fabric().event_epoch();
            if sig.overflowed() {
                self.table()
                    .stats
                    .overflow_errors
                    .fetch_add(1, Ordering::Relaxed);
                return Err(UnrError::Signal(SignalError::EventOverflow {
                    counter: sig.counter(),
                }));
            }
            if sig.test() {
                return Ok(());
            }
            self.transport_up()?;
            let waited = start.elapsed();
            if waited >= self.wait_timeout {
                return Err(UnrError::Timeout {
                    waited: waited.as_nanos() as unr_simnet::Ns,
                });
            }
            self.wait_progress(seen);
        }
    }

    /// One sleep of a wait loop, `seen` being the event epoch sampled
    /// before the predicate was tested: progress the rank's sockets on
    /// this thread until something may have changed, and handle the
    /// control messages this thread read (acks, `SEQ_DATA`, `MSG_AGG`)
    /// before the caller re-tests — they were rung to nobody. The 1 ms
    /// is the safety poll: what moves a predicate either arrives on a
    /// socket polled here or rings the event bell.
    fn wait_progress(&self, seen: u64) {
        let reads = self.fabric().wait_progress(seen, Duration::from_millis(1));
        if reads.queued > 0 {
            self.ctrl().drain();
        }
    }

    /// Number of unacked reliable sub-messages currently buffered.
    pub fn pending_len(&self) -> usize {
        self.retries_in_flight()
    }

    /// Wait until every reliable sub-message has been acked (true) or
    /// `timeout` elapses (false). No-op `true` when unreliable.
    pub fn drain_pending(&self, timeout: Duration) -> bool {
        // Buffered aggregates are not yet pending; post them first so
        // "drained" means every put has actually been delivered.
        if self.agg_flush_all(FlushWhy::Wait).is_err() {
            return false;
        }
        let start = Instant::now();
        loop {
            let seen = self.fabric().event_epoch();
            if self.pending_len() == 0 {
                return true;
            }
            if self.transport_up().is_err() {
                return false;
            }
            if start.elapsed() >= timeout {
                return false;
            }
            self.wait_progress(seen);
        }
    }

    /// Tear down: stop the progress thread and close the fabric.
    /// Called automatically on drop; idempotent.
    pub fn finalize(&self) {
        // Best-effort: anything still buffered goes out before teardown
        // (a latched-down channel cannot deliver it anyway).
        let _ = self.agg_flush_all(FlushWhy::Explicit);
        self.stop.store(true, Ordering::Relaxed);
        self.fabric().ring_ctrl();
        if let Some(h) = self.progress.lock().take() {
            let _ = h.join();
        }
        self.fabric().shutdown();
    }
}

impl Drop for NetUnr {
    fn drop(&mut self) {
        self.finalize();
    }
}

/// The control path of one engine: what its receive side and its
/// retransmit sweep need, shared by the rank thread (inside a wait) and
/// the progress thread.
pub(crate) struct CtrlPath {
    pub(crate) fabric: Arc<NetFabric>,
    pub(crate) table: Arc<SignalTable>,
    /// Ack/replay state — `Some` iff the reliable transport is active.
    pub(crate) retry: Option<Arc<RetryState>>,
    /// Membership epoch of the world incarnation this engine drives —
    /// fixed for the engine's lifetime (netfab rebuilds the engine per
    /// epoch). 0: no rank has ever died; control frames ride bare.
    pub(crate) epoch: u64,
    /// Engine start: the retry table's clock counts from here.
    t0: Instant,
    /// `unr.hw.ctrl_msgs`, under [`ProgressMode::Hardware`].
    ctrl_msgs: Option<Arc<unr_obs::Counter>>,
}

impl CtrlPath {
    /// The retry table's time: wall-clock nanoseconds since `t0`.
    pub(crate) fn now(&self) -> Ns {
        self.t0.elapsed().as_nanos() as Ns
    }

    /// Handle every queued control message, on the calling thread — the
    /// progress thread, or a rank thread in a wait that read some
    /// itself; the two may run this at once and split the queue between
    /// them ([`unr_core::handle_ctrl`] is order-independent). Frames
    /// wrapped in the epoch envelope are fenced first: a stale epoch
    /// (older than this engine's) is dropped and counted, never parsed.
    /// Returns how many this call handled (counted in
    /// `unr.hw.ctrl_msgs` under hardware progress).
    fn drain(&self) -> u64 {
        let mut sink = self;
        let mut drained = 0u64;
        while let Some((src, bytes)) = self.fabric.pop_ctrl() {
            match ctrl::admit(&bytes, || self.epoch) {
                Some(frame) => ctrl::handle_ctrl(self.retry.as_deref(), src, frame, &mut sink),
                None => self.fabric.obs.metrics.counter("unr.epoch.stale_rejects").inc(),
            }
            drained += 1;
        }
        if let (Some(c), true) = (&self.ctrl_msgs, drained > 0) {
            c.add(drained);
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
        self.table.apply_counted(key, addend);
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
    use unr_core::wire::{self, CtrlMsg};
    use unr_core::{Blk, PeerFailedCause, Route};
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

    /// Stop the progress thread, leaving the test the only reader of
    /// the control queue (the fabric stays up until `finalize`).
    fn stop_progress(unr: &NetUnr) {
        unr.stop.store(true, Ordering::Relaxed);
        unr.fabric().ring_ctrl();
        unr.progress.lock().take().unwrap().join().unwrap();
    }

    /// Once the reliable transport has latched a peer down, new work is
    /// refused whichever way it moves bytes.
    #[test]
    fn a_get_after_the_transport_latched_down_is_refused_like_a_put() {
        let (fabric, region) = fixture();
        let unr = engine(fabric);
        // Nobody acks: the one entry runs out of retransmissions.
        stop_progress(&unr);
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
        // the shared retry table; then this front-end's own lock (the
        // coalescer's is `unr_core::post`'s to test).
        dies(|| unr.ctrl().retry.as_ref().unwrap().poison_for_tests());
        dies(|| {
            let _held = unr.progress.lock();
            panic!("poisoning the engine's lock on purpose");
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
        assert!(unr.transport_up().is_ok());
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
        stop_progress(&unr);
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
