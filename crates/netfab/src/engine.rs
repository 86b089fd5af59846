//! `NetUnr` — the UNR engine over the TCP-loopback fabric.
//!
//! The post path and the wait loop mirror `unr_core::Unr` on the
//! netfab [`unr_core::Backend`]; the signal table, the coalescer, the
//! wire format, the retry table ([`unr_core::RetryState`]) and the
//! receive-side control handler ([`unr_core::handle_ctrl`]) are the
//! simnet engine's own, parameterised here by a wall clock and a
//! socket:
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
//! Signals come from the same lock-free
//! [`unr_core::SignalTable`] the simnet engine uses;
//! `sig_wait` has no scheduler to park on and no thread to be woken by:
//! while its signal has not fired it progresses the rank's sockets
//! itself ([`NetFabric::wait_progress`]) — reads, deposits, applies the
//! addend, handles the control messages it read — and re-tests, so the
//! put it waits for completes on the waiting thread. Local PUT
//! completion is buffered-send: the local signal receives a single `-1`
//! when the message has been posted (payload copied out of the region
//! into its frame), matching the simnet engine's buffered semantics.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use unr_core::ctrl::{self, CtrlEvent, CtrlSink};
use unr_core::signal::{Signal, SignalError, SignalTable};
use unr_core::wire;
use unr_core::{
    striped_addends, AggFlush, AggMetrics, Backend, Blk, Channel, Coalescer, Encoding, Epoch,
    FlushWhy, MemCheckpoint, Notif, PeerFailedCause, ProgressMode, Registered, Reliability,
    Resend, RetryPolicy, RetryState, Route, SigKey, UnrConfig, UnrError,
};
use unr_simnet::sync::Mutex;
use unr_simnet::{Bytes, Ns};

use crate::fabric::{NetAddSink, NetFabric, NetRegion, TransportMetrics};
use crate::launch::NetWorld;

/// Fault injection for the netfab transport: deterministic sender-side
/// drops of *first transmissions* (retransmissions always go out), so a
/// reliable-mode storm is guaranteed to exercise the replay path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetFaults {
    /// Silently drop every `n`-th first transmission of a reliable
    /// data message. `None`: no drops.
    pub drop_every: Option<u64>,
}

impl NetFaults {
    /// Whether any fault injection is enabled.
    pub fn any(&self) -> bool {
        self.drop_every.is_some()
    }
}

/// A netfab-registered memory region (`UNR_Mem_Reg` over sockets).
#[derive(Clone)]
pub struct NetMem {
    rank: usize,
    region_id: u32,
    region: Arc<NetRegion>,
}

impl NetMem {
    /// Registered size in bytes.
    pub fn len(&self) -> usize {
        self.region.len()
    }

    /// Always `false`: zero-length registrations are rejected.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Copy `data` into the region at `offset` (panics out of bounds).
    pub fn write_bytes(&self, offset: usize, data: &[u8]) {
        assert!(self.region.write(offset, data), "write_bytes out of bounds");
    }

    /// Copy `out.len()` bytes from `offset` (panics out of bounds).
    pub fn read_bytes(&self, offset: usize, out: &mut [u8]) {
        assert!(self.region.read(offset, out), "read_bytes out of bounds");
    }

    /// The underlying region buffer.
    pub fn region(&self) -> &Arc<NetRegion> {
        &self.region
    }

    /// Describe a block of this region with an optional bound signal.
    pub fn blk(&self, offset: usize, len: usize, sig: Option<&Signal>) -> Blk {
        assert!(offset + len <= self.region.len(), "blk out of bounds");
        Blk {
            rank: self.rank,
            region_id: self.region_id,
            region_len: self.region.len(),
            offset,
            len,
            sig_key: sig.map(|s| s.key()).unwrap_or(SigKey::NULL),
        }
    }

    /// Snapshot the whole region into an epoch-stamped in-memory
    /// checkpoint — the netfab counterpart of
    /// [`unr_core::UnrMem::checkpoint`]. A respawned incarnation calls
    /// [`NetMem::restore`] on its freshly registered region before
    /// re-exchanging BLKs, so the new epoch starts from the
    /// checkpointed bytes.
    pub fn checkpoint(&self, epoch: Epoch) -> MemCheckpoint {
        MemCheckpoint {
            epoch,
            region_id: self.region_id,
            offset: 0,
            data: self.region.snapshot(0, self.region.len()),
        }
    }

    /// Write a checkpoint back into the region at the offset it was
    /// taken from. Panics if the checkpoint names a different region.
    pub fn restore(&self, ckpt: &MemCheckpoint) {
        assert_eq!(
            ckpt.region_id, self.region_id,
            "checkpoint belongs to a different region"
        );
        assert!(
            self.region.write(ckpt.offset, &ckpt.data),
            "checkpoint restore in bounds"
        );
    }
}

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

/// The UNR engine for the netfab backend.
pub struct NetUnr {
    world: Arc<NetWorld>,
    fabric: Arc<NetFabric>,
    cfg: UnrConfig,
    channel: Channel,
    table: Arc<SignalTable>,
    faults: NetFaults,
    /// Reliable data messages posted (drop-injection cadence counter).
    sends: AtomicU64,
    /// The receive side and the retry table, shared with the progress
    /// thread.
    ctrl: Arc<CtrlPath>,
    stop: Arc<AtomicBool>,
    /// The resolved progress mode ([`ProgressMode::Hardware`] skips the
    /// control thread entirely when nothing rides the control path).
    progress_mode: ProgressMode,
    /// Control-path drainer — `None` under pure hardware progress.
    progress: Mutex<Option<JoinHandle<()>>>,
    next_nic: AtomicUsize,
    /// Wall-clock cap on one `sig_wait`.
    wait_timeout: Duration,
    /// Sender-side small-message coalescer (`cfg.agg_eager_max > 0`).
    /// Only the application rank touches it; the lock satisfies `Sync`.
    agg: Option<Mutex<Coalescer>>,
    /// `unr.agg.*` instruments, registered only when aggregation is on.
    amet: Option<AggMetrics>,
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
        let channel = Channel::netfab();
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
            RetryState::new(
                RetryPolicy {
                    timeout: cfg.retry_timeout.max(MIN_RTO.as_nanos() as Ns),
                    max_backoff: cfg.retry_max_backoff.max(MIN_BACKOFF_CAP.as_nanos() as Ns),
                    max_retries: cfg.max_retries,
                    fallback_after: cfg.fallback_after,
                    nics: fabric.nics(),
                    ns_per_byte: 0.0,
                },
                fabric.nranks(),
            )
        });
        let hardware = progress_mode == ProgressMode::Hardware;
        let ctrl = Arc::new(CtrlPath {
            fabric: Arc::clone(&fabric),
            table: Arc::clone(&table),
            retry,
            epoch: world.epoch(),
            t0: Instant::now(),
            ctrl_msgs: hw.map(|h| h.ctrl_msgs),
        });
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
            let ctrl = Arc::clone(&ctrl);
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

        // Same coalescer the simnet engine uses: netfab sends its
        // flushes as FRAME_CTRL frames instead of datagrams, but the
        // MSG_AGG bytes are identical.
        let (agg, amet) = if cfg.agg_eager_max > 0 {
            (
                Some(Mutex::new(Coalescer::new(
                    fabric.nranks(),
                    cfg.agg_flush_bytes,
                    cfg.agg_flush_puts,
                ))),
                Some(AggMetrics::new(&fabric.obs)),
            )
        } else {
            (None, None)
        };

        Ok(NetUnr {
            world,
            fabric,
            cfg,
            channel,
            table,
            faults,
            sends: AtomicU64::new(0),
            ctrl,
            stop,
            progress_mode,
            progress: Mutex::new(progress),
            next_nic: AtomicUsize::new(0),
            wait_timeout,
            agg,
            amet,
        })
    }

    /// The world this engine runs in.
    pub fn world(&self) -> &Arc<NetWorld> {
        &self.world
    }

    /// The underlying TCP fabric.
    pub fn fabric(&self) -> &Arc<NetFabric> {
        &self.fabric
    }

    /// The selected transport channel (always [`Channel::netfab`]).
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// The engine's MMAS signal table.
    pub fn table(&self) -> &Arc<SignalTable> {
        &self.table
    }

    /// `unr.transport.*` counters.
    pub fn met(&self) -> &TransportMetrics {
        &self.fabric.met
    }

    /// Whether the ack/replay protocol is active.
    pub fn reliable(&self) -> bool {
        self.ctrl.retry.is_some()
    }

    /// The resolved progress mode.
    pub fn progress_mode(&self) -> ProgressMode {
        self.progress_mode
    }

    /// FNV-1a fingerprint of the signal table's observable state —
    /// the hardware/software equivalence oracle's "final signal table"
    /// term (see `unr_core::SignalTable::fingerprint`).
    pub fn table_fingerprint(&self) -> u64 {
        self.table.fingerprint()
    }

    /// Signal-table occupancy probe: `(live signals, materialized slot
    /// capacity)` — `unr_core::SignalTable::occupancy`. Relaxed loads
    /// only; the admission controller in `unr-serve` consults this
    /// before every signal allocation so table pressure surfaces as a
    /// typed shed, never as an allocation failure.
    pub fn signal_occupancy(&self) -> (usize, usize) {
        self.table.occupancy()
    }

    /// Bytes and puts buffered in the small-message coalescer's ring
    /// for destination `dst`; `(0, 0)` when aggregation is off.
    pub fn agg_backlog(&self, dst: usize) -> (usize, usize) {
        match &self.agg {
            Some(m) => m.lock().backlog(dst),
            None => (0, 0),
        }
    }

    /// Register a memory region (`UNR_Mem_Reg`).
    pub fn mem_reg(&self, len: usize) -> NetMem {
        assert!(len > 0, "cannot register an empty region");
        let (region_id, region) = self.fabric.register(len);
        NetMem {
            rank: self.fabric.rank(),
            region_id,
            region,
        }
    }

    /// Allocate a signal expecting `num_event` events (`UNR_Sig_init`).
    pub fn sig_init(&self, num_event: i64) -> Signal {
        self.table.alloc(num_event)
    }

    /// Describe a block with an optional bound signal (`UNR_Blk_Init`).
    pub fn blk_init(&self, mem: &NetMem, offset: usize, len: usize, sig: Option<&Signal>) -> Blk {
        mem.blk(offset, len, sig)
    }

    /// The membership epoch this engine incarnation runs in.
    pub fn epoch(&self) -> Epoch {
        Epoch::new(self.ctrl.epoch)
    }

    /// Structured peer-failure error naming this engine's epoch.
    /// `unr.recovery.peer_failures` counts only in post-recovery worlds
    /// (epoch > 0), keeping epoch-0 metric snapshots unchanged.
    fn peer_failed(&self, rank: usize, cause: PeerFailedCause) -> UnrError {
        if self.ctrl.epoch > 0 {
            self.fabric
                .obs
                .metrics
                .counter("unr.recovery.peer_failures")
                .inc();
        }
        UnrError::PeerFailed {
            rank,
            epoch: self.epoch(),
            cause,
        }
    }

    /// `Err` once the reliable transport has latched a peer down (a
    /// sub-message ran out of retransmissions).
    fn check_peer_up(&self) -> Result<(), UnrError> {
        let failure = self.ctrl.retry.as_ref().filter(|r| r.failed());
        let Some((dst, attempts)) = failure.and_then(|r| r.failure()) else {
            return Ok(());
        };
        Err(self.peer_failed(dst, PeerFailedCause::RetryExhausted { attempts }))
    }

    /// [`Blk::check_pair`] against this rank's registered regions.
    fn check_pair(&self, local: &Blk, remote: &Blk) -> Result<Arc<NetRegion>, UnrError> {
        local.check_pair(
            remote,
            self.fabric.rank(),
            self.fabric.nranks(),
            self.fabric.region(local.region_id),
            |r| r.len(),
        )
    }

    fn pick_nic(&self, stripe: usize) -> usize {
        match self.cfg.pin_nic {
            Some(n) => (n + stripe) % self.fabric.nics(),
            None => {
                (self.next_nic.fetch_add(1, Ordering::Relaxed) + stripe) % self.fabric.nics()
            }
        }
    }

    fn stripe_count(&self, len: usize) -> usize {
        if len >= self.cfg.stripe_threshold
            && self.cfg.max_stripes > 1
            && self.channel.multi_channel
        {
            self.cfg.max_stripes.min(self.fabric.nics()).min(len).max(1)
        } else {
            1
        }
    }

    /// `UNR_Put(local, remote)` using the blocks' bound signals.
    pub fn put(&self, local: &Blk, remote: &Blk) -> Result<(), UnrError> {
        self.put_keyed(local, remote, local.sig_key, remote.sig_key)
    }

    /// `UNR_Put` with explicit signal keys.
    pub fn put_keyed(
        &self,
        local: &Blk,
        remote: &Blk,
        local_sig: SigKey,
        remote_sig: SigKey,
    ) -> Result<(), UnrError> {
        self.check_peer_up()?;
        let region = self.check_pair(local, remote)?;
        if self.agg.is_some() {
            if local.len <= self.cfg.agg_eager_max && remote.rank != self.fabric.rank() {
                return self.put_agg(&region, local, remote, local_sig, remote_sig);
            }
            // Non-aggregable traffic to this destination must not
            // overtake bytes already buffered for it.
            self.agg_flush_dst(remote.rank, FlushWhy::Order)?;
        }
        let k = self.stripe_count(local.len);
        let addends = if remote_sig.raw() != 0 {
            striped_addends(k, self.cfg.n_bits)
        } else {
            vec![0; k]
        };
        let base = local.len / k;
        let rem = local.len % k;
        let mut off = 0usize;
        for (i, addend) in addends.iter().enumerate() {
            let chunk = base + usize::from(i < rem);
            let nic = self.pick_nic(i);
            if let Some(retry) = &self.ctrl.retry {
                let reg = retry.register_data(
                    Route::Dgram,
                    Bytes::from(region.snapshot(local.offset + off, chunk)),
                    remote.rkey(),
                    remote.offset + off,
                    remote_sig.raw(),
                    *addend,
                    nic,
                );
                self.post_registered(retry, remote.rank, nic, &reg)?;
            } else {
                let custom = encode_sig(remote_sig, *addend)?;
                self.fabric
                    .put(
                        remote.rank,
                        nic,
                        remote.region_id,
                        (remote.offset + off) as u64,
                        custom,
                        &region,
                        local.offset + off,
                        chunk,
                    )
                    .map_err(|_| self.peer_failed(remote.rank, PeerFailedCause::Killed))?;
            }
            off += chunk;
        }
        // Buffered-send local completion: every payload byte has been
        // copied out of the region.
        self.table.apply_counted(local_sig.raw(), -1);
        self.fabric.ring_bell();
        Ok(())
    }

    /// `UNR_Get(local, remote)` using the blocks' bound signals.
    /// GETs always ride the unreliable path (as in the simnet engine).
    pub fn get(&self, local: &Blk, remote: &Blk) -> Result<(), UnrError> {
        self.get_keyed(local, remote, local.sig_key, remote.sig_key)
    }

    /// `UNR_Get` with explicit signal keys.
    pub fn get_keyed(
        &self,
        local: &Blk,
        remote: &Blk,
        local_sig: SigKey,
        remote_sig: SigKey,
    ) -> Result<(), UnrError> {
        self.check_pair(local, remote)?;
        if self.agg.is_some() {
            // A GET must observe every put already buffered for its
            // target rank.
            self.agg_flush_dst(remote.rank, FlushWhy::Order)?;
        }
        let custom_remote = encode_sig(remote_sig, -1)?;
        let custom_local = encode_sig(local_sig, -1)?;
        let nic = self.pick_nic(0);
        self.fabric
            .get(
                remote.rank,
                nic,
                remote.region_id,
                remote.offset as u64,
                remote.len as u64,
                custom_remote,
                local.region_id,
                local.offset as u64,
                custom_local,
            )
            .map_err(|_| self.peer_failed(remote.rank, PeerFailedCause::Killed))
    }

    /// Put a sub-message the retry table has just registered on the
    /// wire. The table holds it *before* it is sent, so its ack cannot
    /// outrun it; the entry that ends "nothing unacked" rings the
    /// progress thread — which sleeps without a deadline until then —
    /// awake to start watching (later ones it finds by itself, see
    /// [`CtrlPath::sweep`]). `frame` is stamped once, here: netfab
    /// epochs are fixed per engine incarnation, so a retransmission
    /// legitimately resends this exact envelope. Fault injection drops
    /// first transmissions only.
    fn post_registered<F: AsRef<[u8]>>(
        &self,
        retry: &RetryState,
        dst: usize,
        nic: usize,
        reg: &Registered<F>,
    ) -> Result<(), UnrError> {
        retry.arm(self.ctrl.now(), &[(dst, reg.seq)]);
        if reg.first {
            self.fabric.ring_ctrl();
        }
        let nth = self.sends.fetch_add(1, Ordering::Relaxed) + 1;
        let dropped = self
            .faults
            .drop_every
            .is_some_and(|n| n > 0 && nth.is_multiple_of(n));
        if dropped {
            self.fabric.met.drops_injected.inc();
            return Ok(());
        }
        self.send_ctrl(dst, nic, reg.frame.as_ref())
    }

    /// Stamp `frame` with this engine's epoch and send it to `dst`.
    fn send_ctrl(&self, dst: usize, nic: usize, frame: &[u8]) -> Result<(), UnrError> {
        self.fabric
            .send_ctrl(dst, nic, &ctrl::stamp(self.ctrl.epoch, frame))
            .map_err(|_| self.peer_failed(dst, PeerFailedCause::Killed))
    }

    /// Append one eligible small put to its destination's aggregate
    /// ring; the frame, the retry entry (when reliable) and the local
    /// completion are all deferred to the flush.
    fn put_agg(
        &self,
        region: &Arc<NetRegion>,
        local: &Blk,
        remote: &Blk,
        local_sig: SigKey,
        remote_sig: SigKey,
    ) -> Result<(), UnrError> {
        let data = region.snapshot(local.offset, local.len);
        let trigger = {
            let mut c = self.agg.as_ref().expect("agg enabled").lock();
            c.push(
                remote.rank,
                remote.region_id,
                remote.offset as u64,
                &data,
                (remote_sig.raw(), -1),
                (local_sig.raw(), -1),
            )
        };
        if let Some(am) = &self.amet {
            am.puts_coalesced.inc();
            am.bytes_packed.add(data.len() as u64);
        }
        if let Some(why) = trigger {
            self.agg_flush_dst(remote.rank, why)?;
        }
        Ok(())
    }

    /// Flush one destination's aggregate ring, if non-empty.
    fn agg_flush_dst(&self, dst: usize, why: FlushWhy) -> Result<(), UnrError> {
        let Some(aggm) = &self.agg else { return Ok(()) };
        let fl = aggm.lock().drain(dst);
        match fl {
            Some(fl) => self.send_aggregate(dst, fl, why),
            None => Ok(()),
        }
    }

    /// Flush every pending aggregate ring (blocking waits, drains,
    /// explicit flushes, finalize).
    fn agg_flush_all(&self, why: FlushWhy) -> Result<(), UnrError> {
        let Some(aggm) = &self.agg else { return Ok(()) };
        let flushes: Vec<(usize, AggFlush)> = {
            let mut c = aggm.lock();
            let dirty = c.take_dirty();
            dirty
                .into_iter()
                .filter_map(|d| c.drain(d).map(|f| (d, f)))
                .collect()
        };
        for (dst, fl) in flushes {
            self.send_aggregate(dst, fl, why)?;
        }
        Ok(())
    }

    /// Flush all pending small-message aggregates now. Aggregated puts
    /// are otherwise delivered when a ring crosses its threshold, when
    /// this rank enters `sig_wait` or `drain_pending`, and at finalize —
    /// a peer polling `Signal::test` without ever blocking observes
    /// them only after one of those.
    pub fn flush(&self) -> Result<(), UnrError> {
        self.agg_flush_all(FlushWhy::Explicit)
    }

    /// Serialize one drained aggregate ring into a `MSG_AGG` control
    /// frame and send it: one frame (and, when reliable, one retry
    /// entry) for the whole aggregate.
    fn send_aggregate(&self, dst: usize, fl: AggFlush, why: FlushWhy) -> Result<(), UnrError> {
        if let Some(am) = &self.amet {
            am.count_flush(why);
            am.addends_summed.add(fl.sigs.len() as u64);
        }
        let nic = self.pick_nic(0);
        match &self.ctrl.retry {
            // Registered before it is sent: the sweep resends the
            // stored frame verbatim, so one entry covers every put
            // packed inside the aggregate.
            Some(retry) => {
                let reg = retry.register_agg(dst, nic, &fl.spans, &fl.sigs, &fl.payload);
                self.post_registered(retry, dst, nic, &reg)?;
            }
            None => {
                let msg = wire::agg_msg(0, false, &fl.spans, &fl.sigs, &fl.payload);
                self.send_ctrl(dst, nic, &msg)?;
            }
        }
        // The deferred local (source-completion) addends: buffered-send
        // semantics, applied once the aggregate is posted.
        for (key, addend) in fl.local_sigs {
            self.table.apply_counted(key, addend);
        }
        self.fabric.ring_bell();
        Ok(())
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
            let seen = self.fabric.event_epoch();
            if sig.overflowed() {
                self.table
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
            self.check_peer_up()?;
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
        let reads = self.fabric.wait_progress(seen, Duration::from_millis(1));
        if reads.queued > 0 {
            self.ctrl.drain();
        }
    }

    /// Number of unacked reliable sub-messages currently buffered.
    pub fn pending_len(&self) -> usize {
        self.ctrl.retry.as_ref().map_or(0, |r| r.in_flight())
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
            let seen = self.fabric.event_epoch();
            if self.pending_len() == 0 {
                return true;
            }
            if self.ctrl.retry.as_ref().is_some_and(|r| r.failed()) {
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
        self.fabric.ring_ctrl();
        if let Some(h) = self.progress.lock().take() {
            let _ = h.join();
        }
        self.fabric.shutdown();
    }
}

impl Drop for NetUnr {
    fn drop(&mut self) {
        self.finalize();
    }
}

fn encode_sig(key: SigKey, addend: i64) -> Result<u128, UnrError> {
    if key.raw() == 0 {
        return Ok(0);
    }
    Encoding::Full128
        .encode(Notif {
            key: key.raw(),
            addend,
        })
        .map_err(UnrError::Encode)
}

/// The control path of one engine: what its receive side and its
/// retransmit sweep need, shared by the rank thread (inside a wait) and
/// the progress thread.
struct CtrlPath {
    fabric: Arc<NetFabric>,
    table: Arc<SignalTable>,
    /// Ack/replay state — `Some` iff the reliable transport is active.
    retry: Option<RetryState>,
    /// Membership epoch of the world incarnation this engine drives —
    /// fixed for the engine's lifetime (netfab rebuilds the engine per
    /// epoch). 0: no rank has ever died; control frames ride bare.
    epoch: u64,
    /// Engine start: the retry table's clock counts from here.
    t0: Instant,
    /// `unr.hw.ctrl_msgs`, under [`ProgressMode::Hardware`].
    ctrl_msgs: Option<Arc<unr_obs::Counter>>,
}

impl CtrlPath {
    /// The retry table's time: wall-clock nanoseconds since `t0`.
    fn now(&self) -> Ns {
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
                Some(frame) => ctrl::handle_ctrl(self.retry.as_ref(), src, frame, &mut sink),
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
    use std::net::TcpListener;
    use unr_core::wire::CtrlMsg;

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
        // the shared retry table; then the engine's own two locks.
        dies(|| unr.ctrl.retry.as_ref().unwrap().poison_for_tests());
        dies(|| {
            let _held = (unr.agg.as_ref().unwrap().lock(), unr.progress.lock());
            panic!("poisoning the engine's locks on purpose");
        });

        // A wait whose signal fires only later goes round its loop, and
        // so past the failure latch, before it returns.
        let sig = unr.sig_init(1);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                unr.table.apply_counted(sig.key().raw(), -1);
                unr.fabric.ring_bell();
            });
            assert!(unr.sig_wait(&sig).is_ok());
        });
        assert!(unr.check_peer_up().is_ok());
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
        assert_eq!(unr.fabric.region(region).unwrap().snapshot(0, 8), [5; 8]);
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
        // Stop the progress thread: this test is the only reader of the
        // control queue (the fabric stays up until `finalize`).
        unr.stop.store(true, Ordering::Relaxed);
        fabric.ring_ctrl();
        unr.progress.lock().take().unwrap().join().unwrap();
        let ctrl = |msg: Vec<u8>| {
            let mut sink = &*unr.ctrl;
            ctrl::handle_ctrl(unr.ctrl.retry.as_ref(), 0, &msg, &mut sink)
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
