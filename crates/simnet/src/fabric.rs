//! The fabric: nodes, NICs, endpoints and the RMA/datagram operations.
//!
//! The fabric owns per-node NIC state, per-rank registered-memory tables,
//! completion queues and ports. Operations are posted by actors through
//! their [`Endpoint`]; delivery is pure virtual-time arithmetic:
//!
//! * a transfer occupies its NIC for `size / bandwidth` starting when the
//!   NIC is free (`NicState::reserve`), which serializes concurrent
//!   traffic on the same NIC and makes multi-NIC striping genuinely pay;
//! * the payload lands `latency (+ jitter)` after the NIC finishes, as a
//!   scheduler event that writes target memory, posts the remote
//!   completion (with the custom bits truncated to the interface's
//!   width), and delivers any order-preserving companion datagram.

use crate::bytes::Bytes;
use crate::faults::{FaultAction, FaultConfig, FaultState};
use crate::rng::SimRng;
use crate::sync::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::mem::{MemRegion, RKey};
use crate::nic::{CustomBits, InterfaceSpec, NicModel, NicState};
use crate::queues::{Completion, CompletionKind, CompletionQueue, Dgram, Port};
use crate::sched::{ActorHandle, Sched, SimCore};
use crate::time::{Ns, SEC};

/// Sink for level-4 NICs: the fabric applies the notification itself
/// (`*p += a` in the paper) instead of posting a completion event.
pub trait AtomicAddSink: Send + Sync {
    /// Apply the notification carried by `custom` at virtual time `t`.
    /// Runs in scheduler context so implementations can wake actors.
    fn apply(&self, sched: &mut Sched, t: Ns, custom: u128);
}

/// Fabric-wide configuration.
#[derive(Clone)]
pub struct FabricConfig {
    pub nodes: usize,
    pub ranks_per_node: usize,
    pub nics_per_node: usize,
    /// Inter-node NIC model (all NICs identical).
    pub nic: NicModel,
    /// Intra-node (loopback / shared-memory) path model.
    pub intra: NicModel,
    /// Which notifiable-RMA interface the NICs expose.
    pub iface: InterfaceSpec,
    /// Completion-queue capacity (per CQ).
    pub cq_capacity: usize,
    /// RNG seed for arrival jitter.
    pub seed: u64,
    /// Virtual-time runaway guard.
    pub virtual_time_cap: Ns,
    /// Record a timeline of every transfer (see [`crate::trace`]).
    pub trace: bool,
    /// Fault injection (drop/duplicate/delay/reorder, NIC flaps,
    /// CQ pressure). Disabled by default; see [`crate::faults`].
    pub faults: FaultConfig,
}

impl FabricConfig {
    /// A small defaults-for-tests fabric: `nodes` nodes, 1 rank and 1 NIC
    /// per node, 100 Gb/s / 1.2 us links, GLEX-like interface.
    pub fn test_default(nodes: usize) -> Self {
        FabricConfig {
            nodes,
            ranks_per_node: 1,
            nics_per_node: 1,
            nic: NicModel::new(1.2, 100.0),
            intra: NicModel::new(0.3, 400.0),
            iface: InterfaceSpec::lookup(crate::nic::InterfaceKind::Glex),
            cq_capacity: 4096,
            seed: 0x5eed,
            virtual_time_cap: 3_600 * SEC,
            trace: false,
            faults: FaultConfig::none(),
        }
    }

    pub fn total_ranks(&self) -> usize {
        self.nodes * self.ranks_per_node
    }

    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node
    }
}

struct NodeState {
    nics: Vec<NicState>,
    loopback: NicState,
}

struct RankState {
    regions: HashMap<u32, (MemRegion, Arc<CompletionQueue>)>,
    next_region: u32,
    ports: HashMap<u32, Arc<Port>>,
    sink: Option<Arc<dyn AtomicAddSink>>,
    nic_rr: usize,
}

/// Fabric-wide counters (diagnostics; all relaxed).
#[derive(Default)]
pub struct FabricStats {
    pub puts: AtomicU64,
    pub gets: AtomicU64,
    pub dgrams: AtomicU64,
    pub bytes_put: AtomicU64,
    pub bytes_get: AtomicU64,
    pub lost_writes: AtomicU64,
}

/// Rank liveness and membership-epoch state.
///
/// Inert until the first [`Fabric::kill_rank`] call: fault-free runs see
/// exactly one relaxed bool load per membership query and draw no extra
/// RNG, so seeded traces stay byte-identical. All fields are lock-free
/// atomics — membership is read on delivery hot paths and inside wait
/// predicates, which must never take the fabric inner lock.
pub struct Membership {
    /// Set once, by the first kill; never cleared.
    active: AtomicBool,
    /// Bumped on every kill *and* every revive (a rejoin is a new epoch).
    epoch: AtomicU64,
    /// Per-rank dead flag.
    dead: Vec<AtomicBool>,
    /// Per-rank incarnation counter, bumped on revive.
    generation: Vec<AtomicU32>,
    /// Count of currently-dead ranks (fast "anyone dead?" check).
    num_dead: AtomicUsize,
    /// `simnet.fault.killed_drops` — registered lazily at the first
    /// kill so fault-free metric snapshots carry no membership series.
    killed_drops: OnceLock<Arc<unr_obs::Counter>>,
}

impl Membership {
    fn new(ranks: usize) -> Membership {
        Membership {
            active: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            dead: (0..ranks).map(|_| AtomicBool::new(false)).collect(),
            generation: (0..ranks).map(|_| AtomicU32::new(0)).collect(),
            num_dead: AtomicUsize::new(0),
            killed_drops: OnceLock::new(),
        }
    }
}

struct FabricInner {
    nodes: Vec<NodeState>,
    ranks: Vec<RankState>,
    rng: SimRng,
    /// Dedicated fault RNG stream; `Some` iff `cfg.faults.enabled()`,
    /// so fault-free runs draw nothing extra and stay byte-identical.
    faults: Option<FaultState>,
}

/// Pre-resolved instrument handles for the fabric's hot paths, so
/// posting an operation never touches the registry lock.
pub(crate) struct FabricMetrics {
    puts: Arc<unr_obs::Counter>,
    gets: Arc<unr_obs::Counter>,
    dgrams: Arc<unr_obs::Counter>,
    bytes_put: Arc<unr_obs::Counter>,
    bytes_get: Arc<unr_obs::Counter>,
    lost_writes: Arc<unr_obs::Counter>,
    /// Post → NIC-drained time (local injection latency).
    inject_ns: Arc<unr_obs::Histogram>,
    /// Post → remote-arrival time (end-to-end delivery latency).
    deliver_ns: Arc<unr_obs::Histogram>,
    pub(crate) cq_depth: Arc<unr_obs::Gauge>,
    pub(crate) cq_dropped: Arc<unr_obs::Counter>,
    /// Registered only when fault injection is enabled, so fault-free
    /// snapshots carry no `simnet.fault.*` series at all.
    faults: Option<FaultInjectionMetrics>,
}

/// Counters for injected faults (`simnet.fault.*`).
struct FaultInjectionMetrics {
    dropped: Arc<unr_obs::Counter>,
    duplicated: Arc<unr_obs::Counter>,
    delayed: Arc<unr_obs::Counter>,
    flap_dropped: Arc<unr_obs::Counter>,
}

impl FabricMetrics {
    fn new(obs: &unr_obs::Obs, faults_on: bool) -> FabricMetrics {
        let m = &obs.metrics;
        FabricMetrics {
            puts: m.counter("simnet.fabric.puts"),
            gets: m.counter("simnet.fabric.gets"),
            dgrams: m.counter("simnet.fabric.dgrams"),
            bytes_put: m.counter("simnet.fabric.bytes_put"),
            bytes_get: m.counter("simnet.fabric.bytes_get"),
            lost_writes: m.counter("simnet.fabric.lost_writes"),
            inject_ns: m.histogram("simnet.nic.inject_ns"),
            deliver_ns: m.histogram("simnet.nic.deliver_ns"),
            cq_depth: m.gauge("simnet.cq.depth"),
            cq_dropped: m.counter("simnet.cq.dropped"),
            faults: faults_on.then(|| FaultInjectionMetrics {
                dropped: m.counter("simnet.fault.dropped"),
                duplicated: m.counter("simnet.fault.duplicated"),
                delayed: m.counter("simnet.fault.delayed"),
                flap_dropped: m.counter("simnet.fault.flap_dropped"),
            }),
        }
    }

    /// Count one fault decision (no-op on the clean path).
    fn count_fault(&self, action: &FaultAction) {
        let Some(fm) = &self.faults else { return };
        match action {
            FaultAction::Drop { flapped: true } => fm.flap_dropped.inc(),
            FaultAction::Drop { flapped: false } => fm.dropped.inc(),
            FaultAction::Deliver {
                extra_delay,
                duplicate,
            } => {
                if *extra_delay > 0 {
                    fm.delayed.inc();
                }
                if duplicate.is_some() {
                    fm.duplicated.inc();
                }
            }
        }
    }
}

/// The shared fabric object.
pub struct Fabric {
    pub cfg: FabricConfig,
    core: Arc<SimCore>,
    inner: Mutex<FabricInner>,
    pub stats: FabricStats,
    /// Present when `cfg.trace` is set.
    pub tracer: Option<crate::trace::TraceRecorder>,
    /// Observability root shared by everything attached to this fabric
    /// (always present; its span log is enabled iff `cfg.trace`).
    pub obs: Arc<unr_obs::Obs>,
    pub(crate) metrics: FabricMetrics,
    /// Rank liveness / epoch state (inert until the first kill).
    pub membership: Membership,
}

/// NIC selection for an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NicSel {
    /// Round-robin over the node's NICs (per-rank cursor).
    #[default]
    Auto,
    /// A specific NIC index on the local node.
    Index(usize),
}

/// Parameters of a PUT operation.
pub struct PutOp<'a> {
    pub src: &'a MemRegion,
    pub src_offset: usize,
    pub len: usize,
    pub dst: RKey,
    pub dst_offset: usize,
    pub nic: NicSel,
    /// Custom bits delivered with the *local* completion.
    pub custom_local: u128,
    /// Custom bits delivered with the *remote* completion.
    pub custom_remote: u128,
    /// CQ that receives the local completion (None: no local event).
    pub local_cq: Option<Arc<CompletionQueue>>,
    /// Whether to request a remote completion event at all.
    pub notify_remote: bool,
    /// Order-preserving companion datagram delivered to the target's
    /// port *after* the data is visible (level-0 channels).
    pub companion: Option<(u32, Vec<u8>)>,
}

/// Parameters of a GET operation.
pub struct GetOp<'a> {
    pub dst: &'a MemRegion,
    pub dst_offset: usize,
    pub len: usize,
    pub src: RKey,
    pub src_offset: usize,
    pub nic: NicSel,
    pub custom_local: u128,
    pub custom_remote: u128,
    pub local_cq: Option<Arc<CompletionQueue>>,
    pub notify_remote: bool,
}

/// Errors for fabric operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    UnknownRegion(RKey),
    OutOfBounds(String),
    BadRank(usize),
    BadNic(usize),
    /// Remote notification requested but the interface has zero remote
    /// custom bits for this op type.
    NoRemoteNotify,
    /// The interface has no RMA primitives at all (two-sided only).
    RmaUnsupported,
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::UnknownRegion(k) => write!(f, "unknown region {k:?}"),
            FabricError::OutOfBounds(s) => write!(f, "out of bounds: {s}"),
            FabricError::BadRank(r) => write!(f, "rank {r} out of range"),
            FabricError::BadNic(n) => write!(f, "nic {n} out of range"),
            FabricError::NoRemoteNotify => {
                write!(f, "interface has no remote custom bits for this op")
            }
            FabricError::RmaUnsupported => {
                write!(
                    f,
                    "interface has no RMA primitives (use the fallback channel)"
                )
            }
        }
    }
}
impl std::error::Error for FabricError {}

impl Fabric {
    pub fn new(cfg: FabricConfig) -> Arc<Self> {
        assert!(cfg.nodes > 0 && cfg.ranks_per_node > 0 && cfg.nics_per_node > 0);
        let obs = Arc::new(unr_obs::Obs::new());
        let core = SimCore::with_switch_counter(
            cfg.virtual_time_cap,
            obs.metrics.counter("simnet.sched.switches"),
        );
        let nodes = (0..cfg.nodes)
            .map(|_| NodeState {
                nics: (0..cfg.nics_per_node)
                    .map(|_| NicState::default())
                    .collect(),
                loopback: NicState::default(),
            })
            .collect();
        let ranks = (0..cfg.total_ranks())
            .map(|_| RankState {
                regions: HashMap::new(),
                next_region: 0,
                ports: HashMap::new(),
                sink: None,
                nic_rr: 0,
            })
            .collect();
        let seed = cfg.seed;
        let tracer = cfg.trace.then(crate::trace::TraceRecorder::default);
        if cfg.trace {
            obs.spans.enable();
        }
        let metrics = FabricMetrics::new(&obs, cfg.faults.enabled());
        let faults = cfg.faults.enabled().then(|| FaultState::new(&cfg.faults));
        let membership = Membership::new(cfg.total_ranks());
        Arc::new(Fabric {
            cfg,
            core,
            inner: Mutex::new(FabricInner {
                nodes,
                ranks,
                rng: SimRng::seed_from_u64(seed),
                faults,
            }),
            stats: FabricStats::default(),
            tracer,
            obs,
            metrics,
            membership,
        })
    }

    // ---- membership -----------------------------------------------------

    /// Whether any kill has ever happened (one relaxed load — this is the
    /// only membership cost a fault-free run pays).
    pub fn membership_active(&self) -> bool {
        self.membership.active.load(Ordering::Relaxed)
    }

    /// Current membership epoch (0 until the first kill; bumped on every
    /// kill and every revive).
    pub fn membership_epoch(&self) -> u64 {
        self.membership.epoch.load(Ordering::Acquire)
    }

    /// Whether `rank` is currently live.
    pub fn rank_alive(&self, rank: usize) -> bool {
        !self.membership.dead[rank].load(Ordering::Acquire)
    }

    /// Incarnation counter of `rank` (0 for the original process, +1 per
    /// revive).
    pub fn rank_generation(&self, rank: usize) -> u32 {
        self.membership.generation[rank].load(Ordering::Acquire)
    }

    /// Number of currently-dead ranks.
    pub fn num_dead(&self) -> usize {
        self.membership.num_dead.load(Ordering::Acquire)
    }

    /// Lowest-numbered dead rank, if any (the peer named in fail-fast
    /// errors).
    pub fn first_dead_rank(&self) -> Option<usize> {
        if self.num_dead() == 0 {
            return None;
        }
        (0..self.cfg.total_ranks()).find(|&r| !self.rank_alive(r))
    }

    /// Kill `rank`: its NICs stop delivering (in either direction) and
    /// the membership epoch is bumped. Idempotent while the rank is dead.
    /// Callers in actor context should use [`Endpoint::kill_rank`], which
    /// also wakes every parked actor so waiters re-evaluate against the
    /// new membership.
    pub fn kill_rank(&self, rank: usize) {
        assert!(rank < self.cfg.total_ranks(), "rank out of range");
        self.membership.active.store(true, Ordering::Release);
        if !self.membership.dead[rank].swap(true, Ordering::AcqRel) {
            self.membership.num_dead.fetch_add(1, Ordering::AcqRel);
            self.membership.epoch.fetch_add(1, Ordering::AcqRel);
        }
        self.membership
            .killed_drops
            .get_or_init(|| self.obs.metrics.counter("simnet.fault.killed_drops"));
    }

    /// Revive `rank` into a new incarnation: generation bumps, the epoch
    /// bumps, and deliveries to/from it resume. Idempotent while the rank
    /// is live.
    pub fn revive_rank(&self, rank: usize) {
        assert!(rank < self.cfg.total_ranks(), "rank out of range");
        if self.membership.dead[rank].swap(false, Ordering::AcqRel) {
            self.membership.num_dead.fetch_sub(1, Ordering::AcqRel);
            self.membership.generation[rank].fetch_add(1, Ordering::AcqRel);
            self.membership.epoch.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// True when membership is armed and either endpoint of a delivery is
    /// dead — the delivery must be silently dropped ("the NIC went dark").
    fn delivery_killed(&self, src_rank: usize, dst_rank: usize) -> bool {
        if !self.membership_active() {
            return false;
        }
        !self.rank_alive(src_rank) || !self.rank_alive(dst_rank)
    }

    /// Count one membership-dropped delivery.
    fn count_killed_drop(&self) {
        if let Some(c) = self.membership.killed_drops.get() {
            c.inc();
        }
    }

    /// The scheduler driving this fabric.
    pub fn core(&self) -> &Arc<SimCore> {
        &self.core
    }

    /// Attach a thread actor to a rank, producing an [`Endpoint`]. A rank
    /// may have several endpoints.
    pub fn attach(self: &Arc<Self>, rank: usize, actor_name: &str) -> Endpoint {
        self.attach_at(rank, actor_name, 0)
    }

    /// Attach a thread actor starting at virtual time `t0` — one whose
    /// thread joins mid-simulation, so its clock must start at the
    /// spawner's present, not at 0. A library agent with no thread of
    /// its own (the UNR polling agent) is a callback actor instead
    /// ([`SimCore::register_callback`]), and posts through its rank's
    /// endpoint with the `*_at` bodies ([`Endpoint::send_dgram_at`],
    /// [`Endpoint::put_bytes_at`]).
    pub fn attach_at(self: &Arc<Self>, rank: usize, actor_name: &str, t0: Ns) -> Endpoint {
        assert!(rank < self.cfg.total_ranks(), "rank out of range");
        let actor = self.core.register_actor(actor_name, t0);
        Endpoint {
            fabric: Arc::clone(self),
            rank,
            actor,
        }
    }

    /// Attach with an existing actor handle (the world runner uses this).
    pub fn attach_with_actor(self: &Arc<Self>, rank: usize, actor: ActorHandle) -> Endpoint {
        assert!(rank < self.cfg.total_ranks(), "rank out of range");
        Endpoint {
            fabric: Arc::clone(self),
            rank,
            actor,
        }
    }

    fn lookup_region(inner: &FabricInner, key: RKey) -> Option<(MemRegion, Arc<CompletionQueue>)> {
        inner
            .ranks
            .get(key.rank)?
            .regions
            .get(&key.id)
            .map(|(m, c)| (m.clone(), Arc::clone(c)))
    }

    /// Schedule the remote-delivery event of one PUT sub-message at
    /// `arrival`: write the target region, post the remote completion
    /// (or hardware atomic add), and push the order-preserving
    /// companion datagram. Kept as one event so fault injection treats
    /// data + notification + companion as a unit.
    #[allow(clippy::too_many_arguments)]
    fn schedule_put_delivery(
        fabric: &Arc<Fabric>,
        st: &mut Sched,
        arrival: Ns,
        dst: RKey,
        dst_offset: usize,
        data: Bytes,
        spec: InterfaceSpec,
        notify_remote: bool,
        custom_remote: u128,
        raw_custom_remote: u128,
        nic_idx: usize,
        src_rank: usize,
        companion: Option<(u32, Vec<u8>)>,
    ) {
        let f2 = Arc::clone(fabric);
        st.schedule_at(arrival, move |st2| {
            if f2.delivery_killed(src_rank, dst.rank) {
                f2.count_killed_drop();
                return;
            }
            let inner = f2.inner.lock();
            let target = Fabric::lookup_region(&inner, dst);
            let sink = inner.ranks[dst.rank].sink.clone();
            let comp_port = companion
                .as_ref()
                .and_then(|(p, _)| inner.ranks[dst.rank].ports.get(p).cloned());
            drop(inner);
            match target {
                Some((region, remote_cq)) => {
                    if region.write_bytes(dst_offset, &data).is_err() {
                        f2.stats.lost_writes.fetch_add(1, Ordering::Relaxed);
                        f2.metrics.lost_writes.inc();
                    } else if notify_remote {
                        // Level-4 fast path: the sink is the *terminal*
                        // step — the addend lands in the signal table
                        // and no CQ completion is ever pushed, so
                        // sink-routed traffic can neither inflate
                        // `simnet.cq.depth` nor trip `cq.dropped`. A
                        // hardware spec with no sink installed (a
                        // software channel forced onto a level-4
                        // fabric) falls back to the CQ instead of
                        // silently losing the notification.
                        if let Some(sink) = sink.filter(|_| spec.hardware_atomic_add) {
                            sink.apply(st2, arrival, raw_custom_remote);
                        } else {
                            remote_cq.push(
                                st2,
                                Completion {
                                    kind: CompletionKind::PutRemote,
                                    custom: custom_remote,
                                    nic: nic_idx,
                                    t: arrival,
                                },
                            );
                        }
                    }
                }
                None => {
                    f2.stats.lost_writes.fetch_add(1, Ordering::Relaxed);
                    f2.metrics.lost_writes.inc();
                }
            }
            if let (Some(port), Some((_, bytes))) = (comp_port, companion) {
                port.push(
                    st2,
                    Dgram {
                        src: src_rank,
                        t: arrival,
                        bytes,
                    },
                );
            }
        });
    }
}

/// A rank-scoped, actor-bound handle to the fabric.
///
/// Not `Clone`: each endpoint is bound to one thread actor. A second
/// thread on the same rank gets its own endpoint via [`Fabric::attach`].
pub struct Endpoint {
    fabric: Arc<Fabric>,
    rank: usize,
    actor: ActorHandle,
}

impl Endpoint {
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn node(&self) -> usize {
        self.fabric.cfg.node_of(self.rank)
    }

    pub fn world_size(&self) -> usize {
        self.fabric.cfg.total_ranks()
    }

    pub fn iface(&self) -> InterfaceSpec {
        self.fabric.cfg.iface
    }

    pub fn actor(&self) -> &ActorHandle {
        &self.actor
    }

    // ---- time -----------------------------------------------------------

    /// Local virtual time.
    pub fn now(&self) -> Ns {
        self.actor.now()
    }

    /// Model `dt` of computation / software overhead.
    pub fn advance(&self, dt: Ns) {
        self.actor.advance(dt)
    }

    /// Run real code, charging `real_time * scale` of virtual time.
    pub fn compute_real<R>(&self, scale: f64, f: impl FnOnce() -> R) -> R {
        self.actor.compute_real(scale, f)
    }

    /// Sleep in virtual time.
    pub fn sleep(&self, dt: Ns) {
        self.actor.sleep(dt)
    }

    // ---- resources ------------------------------------------------------

    /// Create a completion queue. Its depth feeds the fabric-wide
    /// `simnet.cq.depth` gauge and drops feed `simnet.cq.dropped`.
    /// A `faults.cq_capacity` override (CQ-overflow pressure) takes
    /// precedence over the configured capacity.
    pub fn create_cq(&self) -> Arc<CompletionQueue> {
        let cfg = &self.fabric.cfg;
        Arc::new(CompletionQueue::with_obs(
            cfg.faults.cq_capacity.unwrap_or(cfg.cq_capacity),
            Some(Arc::clone(&self.fabric.metrics.cq_depth)),
            Some(Arc::clone(&self.fabric.metrics.cq_dropped)),
        ))
    }

    /// Register a memory region of `len` bytes; remote completions for
    /// operations targeting it are delivered to `remote_cq`.
    pub fn register(&self, len: usize, remote_cq: &Arc<CompletionQueue>) -> MemRegion {
        let fabric = Arc::clone(&self.fabric);
        let rank = self.rank;
        let cq = Arc::clone(remote_cq);
        self.actor.with_sched(move |_st, _t| {
            let mut inner = fabric.inner.lock();
            let rs = &mut inner.ranks[rank];
            let id = rs.next_region;
            rs.next_region += 1;
            let region = MemRegion::new(rank, id, len);
            rs.regions.insert(id, (region.clone(), cq));
            region
        })
    }

    /// The region this rank registered under `id`, while it stays
    /// registered. Not a scheduler entry: the fabric lock alone.
    pub fn region(&self, id: u32) -> Option<MemRegion> {
        let inner = self.fabric.inner.lock();
        inner.ranks[self.rank]
            .regions
            .get(&id)
            .map(|(r, _)| r.clone())
    }

    /// Deregister a region. In-flight operations targeting it are dropped
    /// (counted in `stats.lost_writes`), as on real hardware.
    pub fn deregister(&self, region: &MemRegion) {
        let fabric = Arc::clone(&self.fabric);
        let key = region.rkey;
        assert_eq!(key.rank, self.rank, "can only deregister own regions");
        self.actor.with_sched(move |_st, _t| {
            fabric.inner.lock().ranks[key.rank].regions.remove(&key.id);
        });
    }

    /// Open (or fetch) a datagram port.
    pub fn open_port(&self, port: u32) -> Arc<Port> {
        let fabric = Arc::clone(&self.fabric);
        let rank = self.rank;
        self.actor.with_sched(move |_st, _t| {
            let mut inner = fabric.inner.lock();
            Arc::clone(
                inner.ranks[rank]
                    .ports
                    .entry(port)
                    .or_insert_with(|| Arc::new(Port::new())),
            )
        })
    }

    /// Install the level-4 atomic-add sink for this rank.
    pub fn set_add_sink(&self, sink: Arc<dyn AtomicAddSink>) {
        let fabric = Arc::clone(&self.fabric);
        let rank = self.rank;
        self.actor.with_sched(move |_st, _t| {
            fabric.inner.lock().ranks[rank].sink = Some(sink);
        });
    }

    // ---- operations -----------------------------------------------------

    fn pick_nic(inner: &mut FabricInner, cfg: &FabricConfig, rank: usize, sel: NicSel) -> usize {
        match sel {
            NicSel::Index(i) => i,
            NicSel::Auto => {
                let rs = &mut inner.ranks[rank];
                let i = rs.nic_rr % cfg.nics_per_node;
                rs.nic_rr = rs.nic_rr.wrapping_add(1);
                i
            }
        }
    }

    fn jitter(inner: &mut FabricInner, model: &NicModel) -> Ns {
        if model.jitter_frac <= 0.0 {
            return 0;
        }
        let max = (model.latency as f64 * model.jitter_frac) as u64;
        if max == 0 {
            0
        } else {
            inner.rng.gen_inclusive(max)
        }
    }

    /// Post a PUT (RMA write). Returns after charging the post overhead;
    /// completion is asynchronous via CQs / signals.
    pub fn put(&self, op: PutOp<'_>) -> Result<(), FabricError> {
        let fabric = Arc::clone(&self.fabric);
        let cfg = fabric.cfg.clone();
        let src_rank = self.rank;
        if op.dst.rank >= cfg.total_ranks() {
            return Err(FabricError::BadRank(op.dst.rank));
        }
        if let NicSel::Index(i) = op.nic {
            if i >= cfg.nics_per_node {
                return Err(FabricError::BadNic(i));
            }
        }
        let intra = cfg.node_of(src_rank) == cfg.node_of(op.dst.rank);
        let model = if intra { cfg.intra } else { cfg.nic };
        let spec = cfg.iface;
        if !spec.rma_capable {
            return Err(FabricError::RmaUnsupported);
        }
        if op.notify_remote && spec.custom_bits.put_remote == 0 && !spec.hardware_atomic_add {
            return Err(FabricError::NoRemoteNotify);
        }

        // Snapshot the source (the DMA engine reads it at post time; the
        // local completion below tells the app when reuse is safe). The
        // snapshot is shared, not owned: a fault-injected duplicate
        // delivery reuses the same buffer.
        let data = op
            .src
            .snapshot_shared(op.src_offset, op.len)
            .map_err(|e| FabricError::OutOfBounds(e.to_string()))?;

        let dst = op.dst;
        let dst_offset = op.dst_offset;
        let custom_local = CustomBits::mask(op.custom_local, spec.custom_bits.put_local);
        let custom_remote = CustomBits::mask(op.custom_remote, spec.custom_bits.put_remote);
        let raw_custom_local = op.custom_local;
        let raw_custom_remote = op.custom_remote;
        let local_cq = op.local_cq.clone();
        let notify_remote = op.notify_remote;
        let companion = op.companion;
        let nic_sel = op.nic;
        let len = op.len;

        fabric.stats.puts.fetch_add(1, Ordering::Relaxed);
        fabric
            .stats
            .bytes_put
            .fetch_add(len as u64, Ordering::Relaxed);
        fabric.metrics.puts.inc();
        fabric.metrics.bytes_put.add(len as u64);

        self.actor.with_sched(move |st, t_post| {
            let mut inner = fabric.inner.lock();
            let nic_idx = Self::pick_nic(&mut inner, &cfg, src_rank, nic_sel);
            let node = cfg.node_of(src_rank);
            let (start, end) = if intra {
                inner.nodes[node].loopback.reserve(t_post, len, &model)
            } else {
                inner.nodes[node].nics[nic_idx].reserve(t_post, len, &model)
            };
            let mut arrival = end + model.latency + Self::jitter(&mut inner, &model);
            // Fate of this sub-message (data + notification + companion
            // as one unit). `None` fault state short-circuits to the
            // clean path with zero RNG draws.
            let action = match inner.faults.as_mut() {
                Some(fs) => fs.decide(
                    &cfg.faults,
                    (!intra).then_some((node, nic_idx)),
                    start,
                    model.latency,
                ),
                None => FaultAction::CLEAN,
            };
            drop(inner);
            fabric.metrics.count_fault(&action);
            fabric.metrics.inject_ns.record(end - t_post);
            if let FaultAction::Deliver { extra_delay, .. } = action {
                arrival += extra_delay;
                fabric.metrics.deliver_ns.record(arrival - t_post);
            }
            if let Some(tr) = &fabric.tracer {
                tr.record(crate::trace::TraceEvent {
                    kind: "put",
                    src: src_rank,
                    dst: dst.rank,
                    nic: nic_idx,
                    bytes: len,
                    t_post,
                    t_service_start: start,
                    t_service_end: end,
                    t_arrival: arrival,
                });
            }

            // Local completion: buffer reusable once the NIC drained it.
            // Never faulted — the source-side DMA engine did drain it.
            // Level-4 terminal sink; the CQ fallback catches a hardware
            // spec whose rank never installed a sink (software channel
            // forced onto a level-4 fabric) so the local notification
            // is not silently lost.
            if spec.hardware_atomic_add {
                let f2 = Arc::clone(&fabric);
                st.schedule_at(end, move |st2| {
                    let sink = f2.inner.lock().ranks[src_rank].sink.clone();
                    if let Some(sink) = sink {
                        sink.apply(st2, end, raw_custom_local);
                    } else if let Some(cq) = local_cq {
                        cq.push(
                            st2,
                            Completion {
                                kind: CompletionKind::PutLocal,
                                custom: custom_local,
                                nic: nic_idx,
                                t: end,
                            },
                        );
                    }
                });
            } else if let Some(cq) = local_cq {
                st.schedule_at(end, move |st2| {
                    cq.push(
                        st2,
                        Completion {
                            kind: CompletionKind::PutLocal,
                            custom: custom_local,
                            nic: nic_idx,
                            t: end,
                        },
                    );
                });
            }

            // Remote delivery: write memory, notify, companion dgram.
            // A dropped sub-message schedules nothing — data,
            // completion and companion are lost together.
            if let FaultAction::Deliver { duplicate, .. } = action {
                if let Some(dt) = duplicate {
                    Fabric::schedule_put_delivery(
                        &fabric,
                        st,
                        arrival + dt,
                        dst,
                        dst_offset,
                        data.clone(),
                        spec,
                        notify_remote,
                        custom_remote,
                        raw_custom_remote,
                        nic_idx,
                        src_rank,
                        companion.clone(),
                    );
                }
                Fabric::schedule_put_delivery(
                    &fabric,
                    st,
                    arrival,
                    dst,
                    dst_offset,
                    data,
                    spec,
                    notify_remote,
                    custom_remote,
                    raw_custom_remote,
                    nic_idx,
                    src_rank,
                    companion,
                );
            }
        });
        self.actor.advance(model.post_overhead);
        Ok(())
    }

    /// Post a PUT from an owned byte buffer, with no local or remote
    /// completion — the retransmission primitive of reliable
    /// transports: the payload was captured at the original post and
    /// is resent verbatim, with notification riding the optional
    /// companion datagram. Subject to the same NIC serialization,
    /// jitter and fault injection as [`Endpoint::put`].
    ///
    /// Two scheduler entries, like every post: [`Endpoint::put_bytes_at`]
    /// and then the post overhead it returns (an invalid put fails in
    /// the first).
    pub fn put_bytes(
        &self,
        data: impl Into<Bytes>,
        dst: RKey,
        dst_offset: usize,
        nic: NicSel,
        companion: Option<(u32, Vec<u8>)>,
    ) -> Result<(), FabricError> {
        let data = data.into();
        let overhead = self
            .actor
            .with_sched(|st, t| self.put_bytes_at(st, t, data, dst, dst_offset, nic, companion))?;
        self.actor.advance(overhead);
        Ok(())
    }

    /// The body of [`Endpoint::put_bytes`] in scheduler context, posted
    /// at `t_post` on behalf of this endpoint's rank — by its actor, or
    /// by a callback actor of the same rank. Returns the post overhead
    /// the poster still has to charge itself.
    #[allow(clippy::too_many_arguments)]
    pub fn put_bytes_at(
        &self,
        st: &mut Sched,
        t_post: Ns,
        data: Bytes,
        dst: RKey,
        dst_offset: usize,
        nic: NicSel,
        companion: Option<(u32, Vec<u8>)>,
    ) -> Result<Ns, FabricError> {
        let fabric = &self.fabric;
        let cfg = &fabric.cfg;
        let src_rank = self.rank;
        if dst.rank >= cfg.total_ranks() {
            return Err(FabricError::BadRank(dst.rank));
        }
        if let NicSel::Index(i) = nic {
            if i >= cfg.nics_per_node {
                return Err(FabricError::BadNic(i));
            }
        }
        let intra = cfg.node_of(src_rank) == cfg.node_of(dst.rank);
        let model = if intra { cfg.intra } else { cfg.nic };
        let spec = cfg.iface;
        if !spec.rma_capable {
            return Err(FabricError::RmaUnsupported);
        }
        let len = data.len();

        fabric.stats.puts.fetch_add(1, Ordering::Relaxed);
        fabric
            .stats
            .bytes_put
            .fetch_add(len as u64, Ordering::Relaxed);
        fabric.metrics.puts.inc();
        fabric.metrics.bytes_put.add(len as u64);

        let mut inner = fabric.inner.lock();
        let nic_idx = Self::pick_nic(&mut inner, cfg, src_rank, nic);
        let node = cfg.node_of(src_rank);
        let (start, end) = if intra {
            inner.nodes[node].loopback.reserve(t_post, len, &model)
        } else {
            inner.nodes[node].nics[nic_idx].reserve(t_post, len, &model)
        };
        let mut arrival = end + model.latency + Self::jitter(&mut inner, &model);
        let action = match inner.faults.as_mut() {
            Some(fs) => fs.decide(
                &cfg.faults,
                (!intra).then_some((node, nic_idx)),
                start,
                model.latency,
            ),
            None => FaultAction::CLEAN,
        };
        drop(inner);
        fabric.metrics.count_fault(&action);
        fabric.metrics.inject_ns.record(end - t_post);
        if let FaultAction::Deliver { extra_delay, .. } = action {
            arrival += extra_delay;
            fabric.metrics.deliver_ns.record(arrival - t_post);
        }
        if let Some(tr) = &fabric.tracer {
            tr.record(crate::trace::TraceEvent {
                kind: "put",
                src: src_rank,
                dst: dst.rank,
                nic: nic_idx,
                bytes: len,
                t_post,
                t_service_start: start,
                t_service_end: end,
                t_arrival: arrival,
            });
        }
        if let FaultAction::Deliver { duplicate, .. } = action {
            if let Some(dt) = duplicate {
                Fabric::schedule_put_delivery(
                    fabric,
                    st,
                    arrival + dt,
                    dst,
                    dst_offset,
                    data.clone(),
                    spec,
                    false,
                    0,
                    0,
                    nic_idx,
                    src_rank,
                    companion.clone(),
                );
            }
            Fabric::schedule_put_delivery(
                fabric, st, arrival, dst, dst_offset, data, spec, false, 0, 0, nic_idx, src_rank,
                companion,
            );
        }
        Ok(model.post_overhead)
    }

    /// Post a GET (RMA read). The request travels to the target, the
    /// target region is read there, and the data lands locally one
    /// bandwidth-term plus one latency later.
    pub fn get(&self, op: GetOp<'_>) -> Result<(), FabricError> {
        let fabric = Arc::clone(&self.fabric);
        let cfg = fabric.cfg.clone();
        let my_rank = self.rank;
        if op.src.rank >= cfg.total_ranks() {
            return Err(FabricError::BadRank(op.src.rank));
        }
        if let NicSel::Index(i) = op.nic {
            if i >= cfg.nics_per_node {
                return Err(FabricError::BadNic(i));
            }
        }
        let intra = cfg.node_of(my_rank) == cfg.node_of(op.src.rank);
        let model = if intra { cfg.intra } else { cfg.nic };
        let spec = cfg.iface;
        if !spec.rma_capable {
            return Err(FabricError::RmaUnsupported);
        }
        if op.notify_remote && spec.custom_bits.get_remote == 0 && !spec.hardware_atomic_add {
            return Err(FabricError::NoRemoteNotify);
        }
        if op.dst_offset + op.len > op.dst.len() {
            return Err(FabricError::OutOfBounds(format!(
                "get dst [{}, {}) beyond region of {} bytes",
                op.dst_offset,
                op.dst_offset + op.len,
                op.dst.len()
            )));
        }

        let src_key = op.src;
        let src_offset = op.src_offset;
        let dst_region = op.dst.clone();
        let dst_offset = op.dst_offset;
        let len = op.len;
        let custom_local = CustomBits::mask(op.custom_local, spec.custom_bits.get_local);
        let custom_remote = CustomBits::mask(op.custom_remote, spec.custom_bits.get_remote);
        let raw_custom_local = op.custom_local;
        let raw_custom_remote = op.custom_remote;
        let local_cq = op.local_cq.clone();
        let notify_remote = op.notify_remote;
        let nic_sel = op.nic;

        fabric.stats.gets.fetch_add(1, Ordering::Relaxed);
        fabric
            .stats
            .bytes_get
            .fetch_add(len as u64, Ordering::Relaxed);
        fabric.metrics.gets.inc();
        fabric.metrics.bytes_get.add(len as u64);

        self.actor.with_sched(move |st, t_post| {
            let mut inner = fabric.inner.lock();
            let nic_idx = Self::pick_nic(&mut inner, &cfg, my_rank, nic_sel);
            let j1 = Self::jitter(&mut inner, &model);
            drop(inner);
            // Request reaches the target after one latency.
            let t_req = t_post + model.latency + j1;
            let f2 = Arc::clone(&fabric);
            st.schedule_at(t_req, move |st2| {
                if f2.delivery_killed(my_rank, src_key.rank) {
                    f2.count_killed_drop();
                    return;
                }
                let mut inner = f2.inner.lock();
                let target = Fabric::lookup_region(&inner, src_key);
                let sink_remote = inner.ranks[src_key.rank].sink.clone();
                let (data, remote_cq) = match target {
                    Some((region, cq)) => match region.snapshot(src_offset, len) {
                        Ok(d) => (Some(d), Some(cq)),
                        Err(_) => {
                            f2.stats.lost_writes.fetch_add(1, Ordering::Relaxed);
                            f2.metrics.lost_writes.inc();
                            (None, None)
                        }
                    },
                    None => {
                        f2.stats.lost_writes.fetch_add(1, Ordering::Relaxed);
                        f2.metrics.lost_writes.inc();
                        (None, None)
                    }
                };
                // Response is serialized by the initiator-side NIC.
                let node = cfg.node_of(my_rank);
                let (start, end) = if intra {
                    inner.nodes[node].loopback.reserve(t_req, len, &model)
                } else {
                    inner.nodes[node].nics[nic_idx].reserve(t_req, len, &model)
                };
                let j2 = Self::jitter(&mut inner, &model);
                drop(inner);
                let t_back = end + model.latency + j2;
                f2.metrics.inject_ns.record(end - t_req);
                f2.metrics.deliver_ns.record(t_back - t_req);
                if let Some(tr) = &f2.tracer {
                    tr.record(crate::trace::TraceEvent {
                        kind: "get",
                        src: src_key.rank,
                        dst: my_rank,
                        nic: nic_idx,
                        bytes: len,
                        t_post: t_req,
                        t_service_start: start,
                        t_service_end: end,
                        t_arrival: t_back,
                    });
                }

                if let Some(data) = data {
                    if notify_remote {
                        // Terminal sink with CQ fallback — mirrors the
                        // PUT paths: a hardware spec without a sink
                        // (software channel on a level-4 fabric) still
                        // delivers its notification through the CQ.
                        if let Some(sink) = sink_remote.filter(|_| spec.hardware_atomic_add) {
                            sink.apply(st2, t_req, raw_custom_remote);
                        } else if let Some(cq) = remote_cq {
                            cq.push(
                                st2,
                                Completion {
                                    kind: CompletionKind::GetRemote,
                                    custom: custom_remote,
                                    nic: nic_idx,
                                    t: t_req,
                                },
                            );
                        }
                    }
                    let f3 = Arc::clone(&f2);
                    st2.schedule_at(t_back, move |st3| {
                        if dst_region.write_bytes(dst_offset, &data).is_err() {
                            f3.stats.lost_writes.fetch_add(1, Ordering::Relaxed);
                            f3.metrics.lost_writes.inc();
                            return;
                        }
                        let sink = spec
                            .hardware_atomic_add
                            .then(|| f3.inner.lock().ranks[my_rank].sink.clone())
                            .flatten();
                        if let Some(sink) = sink {
                            sink.apply(st3, t_back, raw_custom_local);
                        } else if let Some(cq) = local_cq {
                            cq.push(
                                st3,
                                Completion {
                                    kind: CompletionKind::GetLocal,
                                    custom: custom_local,
                                    nic: nic_idx,
                                    t: t_back,
                                },
                            );
                        }
                    });
                }
            });
        });
        self.actor.advance(model.post_overhead);
        Ok(())
    }

    /// Send a small control datagram to `dst`'s `port`. Shares NIC
    /// bandwidth with RMA traffic. Two scheduler entries:
    /// [`Endpoint::send_dgram_at`] and the post overhead it returns.
    pub fn send_dgram(&self, dst: usize, port: u32, bytes: Vec<u8>, nic: NicSel) {
        let overhead = self
            .actor
            .with_sched(|st, t| self.send_dgram_at(st, t, dst, port, bytes, nic));
        self.actor.advance(overhead);
    }

    /// The body of [`Endpoint::send_dgram`] in scheduler context, sent
    /// at `t_post` on behalf of this endpoint's rank — by its actor, or
    /// by a callback actor of the same rank. Returns the post overhead
    /// the sender still has to charge itself.
    pub fn send_dgram_at(
        &self,
        st: &mut Sched,
        t_post: Ns,
        dst: usize,
        port: u32,
        bytes: Vec<u8>,
        nic: NicSel,
    ) -> Ns {
        let fabric = &self.fabric;
        let cfg = &fabric.cfg;
        let src_rank = self.rank;
        assert!(dst < cfg.total_ranks(), "dgram rank out of range");
        let intra = cfg.node_of(src_rank) == cfg.node_of(dst);
        let model = if intra { cfg.intra } else { cfg.nic };
        fabric.stats.dgrams.fetch_add(1, Ordering::Relaxed);
        fabric.metrics.dgrams.inc();

        let mut inner = fabric.inner.lock();
        let nic_idx = Self::pick_nic(&mut inner, cfg, src_rank, nic);
        let node = cfg.node_of(src_rank);
        let len = bytes.len();
        let (start, end) = if intra {
            inner.nodes[node].loopback.reserve(t_post, len, &model)
        } else {
            inner.nodes[node].nics[nic_idx].reserve(t_post, len, &model)
        };
        let mut arrival = end + model.latency + Self::jitter(&mut inner, &model);
        // Datagram faults can be scoped to a port list so one
        // protocol's control traffic is lossy while another's
        // (e.g. the bootstrap runtime) stays reliable.
        let action = match inner.faults.as_mut() {
            Some(fs) if cfg.faults.port_in_scope(port) => fs.decide(
                &cfg.faults,
                (!intra).then_some((node, nic_idx)),
                start,
                model.latency,
            ),
            _ => FaultAction::CLEAN,
        };
        drop(inner);
        fabric.metrics.count_fault(&action);
        fabric.metrics.inject_ns.record(end - t_post);
        if let FaultAction::Deliver { extra_delay, .. } = action {
            arrival += extra_delay;
            fabric.metrics.deliver_ns.record(arrival - t_post);
        }
        if let Some(tr) = &fabric.tracer {
            tr.record(crate::trace::TraceEvent {
                kind: "dgram",
                src: src_rank,
                dst,
                nic: nic_idx,
                bytes: len,
                t_post,
                t_service_start: start,
                t_service_end: end,
                t_arrival: arrival,
            });
        }
        if let FaultAction::Deliver { duplicate, .. } = action {
            let deliver = |f2: Arc<Fabric>, bytes: Vec<u8>, at: Ns| {
                move |st2: &mut Sched| {
                    if f2.delivery_killed(src_rank, dst) {
                        f2.count_killed_drop();
                        return;
                    }
                    let port_arc = {
                        let mut inner = f2.inner.lock();
                        Arc::clone(
                            inner.ranks[dst]
                                .ports
                                .entry(port)
                                .or_insert_with(|| Arc::new(Port::new())),
                        )
                    };
                    port_arc.push(
                        st2,
                        Dgram {
                            src: src_rank,
                            t: at,
                            bytes,
                        },
                    );
                }
            };
            if let Some(dt) = duplicate {
                st.schedule_at(
                    arrival + dt,
                    deliver(Arc::clone(fabric), bytes.clone(), arrival + dt),
                );
            }
            st.schedule_at(arrival, deliver(Arc::clone(fabric), bytes, arrival));
        }
        model.post_overhead
    }

    // ---- membership (actor context) ---------------------------------------

    /// Kill `rank` from actor context: flips the membership state
    /// ([`Fabric::kill_rank`]) and wakes *every* parked actor so waiters
    /// whose addends can now never arrive re-evaluate their predicates
    /// and fail fast instead of deadlocking virtual time.
    pub fn kill_rank(&self, rank: usize) {
        let fabric = Arc::clone(&self.fabric);
        self.actor.with_sched(move |st, t| {
            fabric.kill_rank(rank);
            st.wake_all(t);
        });
    }

    /// Revive `rank` from actor context (new generation, new epoch) and
    /// wake every parked actor so pre-kill failure latches clear.
    pub fn revive_rank(&self, rank: usize) {
        let fabric = Arc::clone(&self.fabric);
        self.actor.with_sched(move |st, t| {
            fabric.revive_rank(rank);
            st.wake_all(t);
        });
    }

    // ---- blocking helpers -------------------------------------------------

    /// Block until `cq` is non-empty; returns the wake time.
    pub fn wait_cq(&self, cq: &Arc<CompletionQueue>) -> Ns {
        let c1 = Arc::clone(cq);
        let c2 = Arc::clone(cq);
        self.actor
            .wait_until(move |_st| !c1.is_empty(), move |_st, me| c2.add_waiter(me))
    }

    /// Block until `port` has a datagram, then pop it.
    pub fn recv_dgram(&self, port: &Arc<Port>) -> Dgram {
        let p1 = Arc::clone(port);
        let p2 = Arc::clone(port);
        self.actor
            .wait_until(move |_st| !p1.is_empty(), move |_st, me| p2.add_waiter(me));
        port.try_pop().expect("woken with message present")
    }

    /// Generic predicate wait in scheduler context.
    pub fn wait_until(
        &self,
        pred: impl FnMut(&mut Sched) -> bool,
        register: impl FnMut(&mut Sched, crate::sched::ActorId),
    ) -> Ns {
        self.actor.wait_until(pred, register)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;

    /// Run `f` for each of two ranks on a 2-node test fabric.
    fn two_ranks(
        cfg: FabricConfig,
        f0: impl FnOnce(Endpoint) + Send + 'static,
        f1: impl FnOnce(Endpoint) + Send + 'static,
    ) {
        let fabric = Fabric::new(cfg);
        let e0 = fabric.attach(0, "rank0");
        let e1 = fabric.attach(1, "rank1");
        let t0 = std::thread::spawn(move || {
            e0.actor().begin();
            f0(e0);
        });
        let t1 = std::thread::spawn(move || {
            e1.actor().begin();
            f1(e1);
        });
        t0.join().unwrap();
        t1.join().unwrap();
    }

    #[test]
    fn put_delivers_data_and_events() {
        two_ranks(
            FabricConfig::test_default(2),
            |ep| {
                let cq = ep.create_cq();
                let src = ep.register(64, &cq);
                src.write_bytes(0, b"hello-RMA").unwrap();
                // Receive the target's rkey out of band.
                let port = ep.open_port(9);
                let d = ep.recv_dgram(&port);
                let id = u32::from_le_bytes(d.bytes[..4].try_into().unwrap());
                let dst = RKey {
                    rank: 1,
                    id,
                    len: 64,
                };
                ep.put(PutOp {
                    src: &src,
                    src_offset: 0,
                    len: 9,
                    dst,
                    dst_offset: 16,
                    nic: NicSel::Auto,
                    custom_local: 7,
                    custom_remote: 99,
                    local_cq: Some(Arc::clone(&cq)),
                    notify_remote: true,
                    companion: None,
                })
                .unwrap();
                ep.wait_cq(&cq);
                let c = cq.try_pop().unwrap();
                assert_eq!(c.kind, CompletionKind::PutLocal);
                assert_eq!(c.custom, 7);
                ep.actor().end();
            },
            |ep| {
                let cq = ep.create_cq();
                let dst = ep.register(64, &cq);
                ep.send_dgram(0, 9, dst.rkey.id.to_le_bytes().to_vec(), NicSel::Auto);
                ep.wait_cq(&cq);
                let c = cq.try_pop().unwrap();
                assert_eq!(c.kind, CompletionKind::PutRemote);
                assert_eq!(c.custom, 99);
                let mut buf = [0u8; 9];
                dst.read_bytes(16, &mut buf).unwrap();
                assert_eq!(&buf, b"hello-RMA");
                ep.actor().end();
            },
        );
    }

    #[test]
    fn put_latency_matches_model() {
        // 1.2 us latency, 100 Gb/s: an 8-byte put should land at about
        // t_post + 8B/12.5GBps + 1.2us ≈ 1.2us (+ sub-ns transfer).
        two_ranks(
            FabricConfig::test_default(2),
            |ep| {
                let cq = ep.create_cq();
                let src = ep.register(8, &cq);
                let port = ep.open_port(9);
                let d = ep.recv_dgram(&port);
                let id = u32::from_le_bytes(d.bytes[..4].try_into().unwrap());
                let t0 = ep.now();
                ep.put(PutOp {
                    src: &src,
                    src_offset: 0,
                    len: 8,
                    dst: RKey {
                        rank: 1,
                        id,
                        len: 8,
                    },
                    dst_offset: 0,
                    nic: NicSel::Auto,
                    custom_local: 0,
                    custom_remote: 1,
                    local_cq: None,
                    notify_remote: true,
                    companion: None,
                })
                .unwrap();
                // Tell rank1 the post time.
                ep.send_dgram(1, 10, t0.to_le_bytes().to_vec(), NicSel::Auto);
                ep.actor().end();
            },
            |ep| {
                let cq = ep.create_cq();
                let dst = ep.register(8, &cq);
                ep.send_dgram(0, 9, dst.rkey.id.to_le_bytes().to_vec(), NicSel::Auto);
                let t_arr = ep.wait_cq(&cq);
                let port = ep.open_port(10);
                let d = ep.recv_dgram(&port);
                let t_post = Ns::from_le_bytes(d.bytes[..8].try_into().unwrap());
                let dt = t_arr - t_post;
                assert!(
                    (us(1.2)..us(1.4)).contains(&dt),
                    "one-way 8B put latency {dt} ns out of expected band"
                );
                ep.actor().end();
            },
        );
    }

    #[test]
    fn get_round_trip() {
        two_ranks(
            FabricConfig::test_default(2),
            |ep| {
                let cq = ep.create_cq();
                let dst = ep.register(32, &cq);
                let port = ep.open_port(9);
                let d = ep.recv_dgram(&port);
                let id = u32::from_le_bytes(d.bytes[..4].try_into().unwrap());
                let t0 = ep.now();
                ep.get(GetOp {
                    dst: &dst,
                    dst_offset: 0,
                    len: 13,
                    src: RKey {
                        rank: 1,
                        id,
                        len: 32,
                    },
                    src_offset: 3,
                    nic: NicSel::Auto,
                    custom_local: 5,
                    custom_remote: 0,
                    local_cq: Some(Arc::clone(&cq)),
                    notify_remote: false,
                })
                .unwrap();
                let t_done = ep.wait_cq(&cq);
                let c = cq.try_pop().unwrap();
                assert_eq!(c.kind, CompletionKind::GetLocal);
                assert_eq!(c.custom, 5);
                let mut buf = [0u8; 13];
                dst.read_bytes(0, &mut buf).unwrap();
                assert_eq!(&buf, b"remote-bytes!");
                // GET is a round trip: at least 2x latency.
                assert!(t_done - t0 >= 2 * us(1.2));
                ep.actor().end();
            },
            |ep| {
                let cq = ep.create_cq();
                let src = ep.register(32, &cq);
                src.write_bytes(3, b"remote-bytes!").unwrap();
                ep.send_dgram(0, 9, src.rkey.id.to_le_bytes().to_vec(), NicSel::Auto);
                // Keep the rank alive until the GET has been served: wait
                // for the remote-read moment by sleeping past it.
                ep.sleep(us(50.0));
                ep.actor().end();
            },
        );
    }

    #[test]
    fn custom_bits_truncated_to_interface_width() {
        // Verbs-like: put_remote = 32 bits.
        let mut cfg = FabricConfig::test_default(2);
        cfg.iface = InterfaceSpec::lookup(crate::nic::InterfaceKind::Verbs);
        two_ranks(
            cfg,
            |ep| {
                let cq = ep.create_cq();
                let src = ep.register(8, &cq);
                let port = ep.open_port(9);
                let d = ep.recv_dgram(&port);
                let id = u32::from_le_bytes(d.bytes[..4].try_into().unwrap());
                ep.put(PutOp {
                    src: &src,
                    src_offset: 0,
                    len: 8,
                    dst: RKey {
                        rank: 1,
                        id,
                        len: 8,
                    },
                    dst_offset: 0,
                    nic: NicSel::Auto,
                    custom_local: 0,
                    custom_remote: 0xAAAA_BBBB_CCCC_DDDD,
                    local_cq: None,
                    notify_remote: true,
                    companion: None,
                })
                .unwrap();
                ep.actor().end();
            },
            |ep| {
                let cq = ep.create_cq();
                let dst = ep.register(8, &cq);
                ep.send_dgram(0, 9, dst.rkey.id.to_le_bytes().to_vec(), NicSel::Auto);
                ep.wait_cq(&cq);
                let c = cq.try_pop().unwrap();
                assert_eq!(c.custom, 0xCCCC_DDDD, "must be truncated to 32 bits");
                ep.actor().end();
            },
        );
    }

    #[test]
    fn remote_notify_on_verbs_get_is_rejected() {
        let mut cfg = FabricConfig::test_default(2);
        cfg.iface = InterfaceSpec::lookup(crate::nic::InterfaceKind::Verbs);
        two_ranks(
            cfg,
            |ep| {
                let cq = ep.create_cq();
                let dst = ep.register(8, &cq);
                let err = ep
                    .get(GetOp {
                        dst: &dst,
                        dst_offset: 0,
                        len: 8,
                        src: RKey {
                            rank: 1,
                            id: 0,
                            len: 8,
                        },
                        src_offset: 0,
                        nic: NicSel::Auto,
                        custom_local: 0,
                        custom_remote: 1,
                        local_cq: None,
                        notify_remote: true,
                    })
                    .unwrap_err();
                assert_eq!(err, FabricError::NoRemoteNotify);
                ep.actor().end();
            },
            |ep| {
                ep.actor().end();
            },
        );
    }

    #[test]
    fn companion_dgram_arrives_after_data() {
        two_ranks(
            FabricConfig::test_default(2),
            |ep| {
                let cq = ep.create_cq();
                let src = ep.register(16, &cq);
                src.write_bytes(0, &[0xAB; 16]).unwrap();
                let port = ep.open_port(9);
                let d = ep.recv_dgram(&port);
                let id = u32::from_le_bytes(d.bytes[..4].try_into().unwrap());
                ep.put(PutOp {
                    src: &src,
                    src_offset: 0,
                    len: 16,
                    dst: RKey {
                        rank: 1,
                        id,
                        len: 16,
                    },
                    dst_offset: 0,
                    nic: NicSel::Auto,
                    custom_local: 0,
                    custom_remote: 0,
                    local_cq: None,
                    notify_remote: false,
                    companion: Some((42, vec![1, 2, 3])),
                })
                .unwrap();
                ep.actor().end();
            },
            |ep| {
                let cq = ep.create_cq();
                let dst = ep.register(16, &cq);
                let companion_port = ep.open_port(42);
                ep.send_dgram(0, 9, dst.rkey.id.to_le_bytes().to_vec(), NicSel::Auto);
                let d = ep.recv_dgram(&companion_port);
                assert_eq!(d.bytes, vec![1, 2, 3]);
                // The data must already be visible: order preserved.
                let mut buf = [0u8; 16];
                dst.read_bytes(0, &mut buf).unwrap();
                assert_eq!(buf, [0xAB; 16]);
                ep.actor().end();
            },
        );
    }

    #[test]
    fn two_nics_halve_large_transfer_time() {
        // One 2 MiB transfer on one NIC vs two 1 MiB halves on two NICs.
        let mut cfg = FabricConfig::test_default(2);
        cfg.nics_per_node = 2;
        let run = |split: bool| -> Ns {
            let mut cfg = cfg.clone();
            cfg.seed = 1; // no jitter configured anyway
            let done_at = Arc::new(Mutex::new(0u64));
            let done = Arc::clone(&done_at);
            let fabric = Fabric::new(cfg);
            let e0 = fabric.attach(0, "r0");
            let e1 = fabric.attach(1, "r1");
            let t0 = std::thread::spawn(move || {
                e0.actor().begin();
                let cq = e0.create_cq();
                let src = e0.register(2 << 20, &cq);
                let port = e0.open_port(9);
                let d = e0.recv_dgram(&port);
                let id = u32::from_le_bytes(d.bytes[..4].try_into().unwrap());
                let dst = RKey {
                    rank: 1,
                    id,
                    len: 2 << 20,
                };
                let mk = |off: usize, len: usize, nic: usize| PutOp {
                    src: &src,
                    src_offset: off,
                    len,
                    dst,
                    dst_offset: off,
                    nic: NicSel::Index(nic),
                    custom_local: 0,
                    custom_remote: 1,
                    local_cq: None,
                    notify_remote: true,
                    companion: None,
                };
                if split {
                    e0.put(mk(0, 1 << 20, 0)).unwrap();
                    e0.put(mk(1 << 20, 1 << 20, 1)).unwrap();
                } else {
                    e0.put(mk(0, 2 << 20, 0)).unwrap();
                }
                e0.actor().end();
            });
            let t1 = std::thread::spawn(move || {
                e1.actor().begin();
                let cq = e1.create_cq();
                let dst = e1.register(2 << 20, &cq);
                e1.send_dgram(0, 9, dst.rkey.id.to_le_bytes().to_vec(), NicSel::Auto);
                let want = if split { 2 } else { 1 };
                let mut got = 0;
                let mut t_last = 0;
                while got < want {
                    t_last = e1.wait_cq(&cq);
                    while cq.try_pop().is_some() {
                        got += 1;
                    }
                }
                *done.lock() = t_last;
                e1.actor().end();
            });
            t0.join().unwrap();
            t1.join().unwrap();
            let v = *done_at.lock();
            v
        };
        let single = run(false);
        let dual = run(true);
        assert!(
            (dual as f64) < (single as f64) * 0.62,
            "striping should nearly halve completion: single={single} dual={dual}"
        );
    }
}
