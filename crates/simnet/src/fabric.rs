//! The fabric: nodes, NICs, endpoints and the RMA/datagram operations.
//!
//! The fabric owns per-node NIC state, per-rank registered-memory tables,
//! completion queues and ports. Operations are posted by actors through
//! their [`Endpoint`]; delivery is pure virtual-time arithmetic.
//!
//! **One transmission step** carries a PUT sub-message, a datagram and
//! the data a GET brings back. It checks the peer rank, the NIC index
//! and, for an RMA, that the interface has RMA; picks the loopback model
//! within a node or the NIC model across nodes, and the NIC; occupies
//! that NIC for `size / bandwidth` from when it is free (serializing
//! concurrent traffic, so multi-NIC striping pays); draws the jitter,
//! then the fault fate (PUTs always, datagrams when their port is in
//! scope, GET replies never); counts and traces it; and schedules the
//! landing `latency + jitter` after the NIC drains it: a duplicate first,
//! then the primary. A GET's request carries no data: one latency plus
//! jitter to the target, no NIC time, no fate.
//!
//! **One completion rule** delivers every notification. On a level-4
//! spec with a sink installed at the notified rank, the sink applies the
//! raw custom bits (`*p += a`); otherwise the bits, truncated to the
//! interface's width, go to the completion queue if there is one.

use crate::bytes::Bytes;
use crate::faults::{FaultAction, FaultConfig, FaultState};
use crate::rng::SimRng;
use crate::slots::SegSlots;
use crate::sync::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::mem::{MemRegion, RKey};
use crate::membership::Membership;
use crate::nic::{CustomBits, InterfaceSpec, NicModel, NicState};
use crate::queues::{Completion, CompletionKind, CompletionQueue, Dgram, Port};
use crate::sched::{Sched, SimCore};
use crate::time::{Ns, SEC};

pub use crate::endpoint::Endpoint;
use crate::trace::TraceEvent;

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

#[derive(Default)]
pub(crate) struct RankState {
    pub(crate) next_region: u32,
    ports: HashMap<u32, Arc<Port>>,
    pub(crate) sink: Option<Arc<dyn AtomicAddSink>>,
    nic_rr: usize,
}

pub(crate) struct FabricInner {
    nodes: Vec<NodeState>,
    pub(crate) ranks: Vec<RankState>,
    rng: SimRng,
    /// Dedicated fault RNG stream; `Some` iff `cfg.faults.enabled()`,
    /// so fault-free runs draw nothing extra and stay byte-identical.
    faults: Option<FaultState>,
}

/// Pre-resolved instrument handles for the fabric's hot paths, so
/// posting an operation never touches the registry lock.
pub(crate) struct FabricMetrics {
    pub(crate) puts: Arc<unr_obs::Counter>,
    pub(crate) gets: Arc<unr_obs::Counter>,
    pub(crate) dgrams: Arc<unr_obs::Counter>,
    pub(crate) bytes_put: Arc<unr_obs::Counter>,
    pub(crate) bytes_get: Arc<unr_obs::Counter>,
    pub(crate) lost_writes: Arc<unr_obs::Counter>,
    /// Post → NIC-drained time (local injection latency).
    inject_ns: Arc<unr_obs::Histogram>,
    /// Post → remote-arrival time (end-to-end delivery latency).
    deliver_ns: Arc<unr_obs::Histogram>,
    pub(crate) cq_depth: Arc<unr_obs::Gauge>,
    pub(crate) cq_dropped: Arc<unr_obs::Counter>,
}

impl FabricMetrics {
    fn new(obs: &unr_obs::Obs) -> FabricMetrics {
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
        }
    }
}

/// A registered region and the CQ that takes its remote completions.
/// `deregister` marks it dead, and a lookup treats a dead slot as
/// absent (a write to it counts in `simnet.fabric.lost_writes`). Its
/// buffer lives on with the fabric; only tests deregister, so no
/// workload pays for that memory.
pub(crate) struct RegionSlot {
    pub(crate) region: MemRegion,
    pub(crate) cq: Arc<CompletionQueue>,
    pub(crate) dead: AtomicBool,
}

/// The shared fabric object.
pub struct Fabric {
    pub cfg: FabricConfig,
    core: Arc<SimCore>,
    pub(crate) inner: Mutex<FabricInner>,
    /// Each rank's registered regions by id, looked up with no lock.
    pub(crate) regions: Box<[SegSlots<RegionSlot, 4>]>,
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
            FabricError::OutOfBounds(s) => write!(f, "out of bounds: {s}"),
            FabricError::BadRank(r) => write!(f, "rank {r} out of range"),
            FabricError::BadNic(n) => write!(f, "nic {n} out of range"),
            FabricError::NoRemoteNotify => {
                f.write_str("interface has no remote custom bits for this op")
            }
            FabricError::RmaUnsupported => {
                f.write_str("interface has no RMA primitives (use the fallback channel)")
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
        let inner = FabricInner {
            nodes: (0..cfg.nodes)
                .map(|_| NodeState {
                    nics: vec![NicState::default(); cfg.nics_per_node],
                    loopback: NicState::default(),
                })
                .collect(),
            ranks: (0..cfg.total_ranks())
                .map(|_| RankState::default())
                .collect(),
            rng: SimRng::seed_from_u64(cfg.seed),
            faults: cfg
                .faults
                .enabled()
                .then(|| FaultState::new(&cfg.faults, &obs.metrics)),
        };
        if cfg.trace {
            obs.spans.enable();
        }
        Arc::new(Fabric {
            core,
            inner: Mutex::new(inner),
            regions: (0..cfg.total_ranks()).map(|_| SegSlots::new()).collect(),
            tracer: cfg.trace.then(crate::trace::TraceRecorder::default),
            metrics: FabricMetrics::new(&obs),
            membership: Membership::new(cfg.total_ranks()),
            obs,
            cfg,
        })
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

    /// Attach a thread actor whose clock starts at `t0` rather than 0:
    /// a thread that joins a simulation already under way starts at its
    /// spawner's present. [`Fabric::attach`] is `attach_at(.., 0)`.
    pub fn attach_at(self: &Arc<Self>, rank: usize, actor_name: &str, t0: Ns) -> Endpoint {
        assert!(rank < self.cfg.total_ranks(), "rank out of range");
        let actor = self.core.register_actor(actor_name, t0);
        Endpoint {
            fabric: Arc::clone(self),
            rank,
            actor,
        }
    }

    /// The live region `rank` registered under `id`: `None` if it never
    /// did, or has deregistered it.
    pub(crate) fn region(&self, rank: usize, id: u32) -> Option<&RegionSlot> {
        let slot = self.regions.get(rank)?.get(id.into())?;
        (!slot.dead.load(Ordering::Acquire)).then_some(slot)
    }

    /// The transmission step (module doc) of `len` bytes posted at
    /// `t_post`, up to its landing, which the [`Flight`] schedules.
    pub(crate) fn launch(&self, leg: Leg, route: Route, len: usize, t_post: Ns) -> Flight {
        let (cfg, model, intra) = (&self.cfg, route.model, route.intra);
        let node = cfg.node_of(route.rank);
        // A GET's data flows from the peer back to the poster.
        let (kind, faulted, src, dst) = match leg {
            Leg::Put => ("put", true, route.rank, route.peer),
            Leg::GetReply => ("get", false, route.peer, route.rank),
            Leg::Dgram(port) => (
                "dgram",
                cfg.faults.port_in_scope(port),
                route.rank,
                route.peer,
            ),
        };
        let mut inner = self.inner.lock();
        let nic = inner.pick_nic(route.rank, route.nic, cfg.nics_per_node);
        let path = if intra {
            &mut inner.nodes[node].loopback
        } else {
            &mut inner.nodes[node].nics[nic]
        };
        let (start, end) = path.reserve(t_post, len, &model);
        let mut arrival = end + model.latency + inner.jitter(&model);
        // No fault state means the clean path with zero RNG draws.
        let fate = match inner.faults.as_mut() {
            Some(fs) if faulted => fs.decide(
                &cfg.faults,
                (!intra).then_some((node, nic)),
                start,
                model.latency,
            ),
            _ => FaultAction::CLEAN,
        };
        drop(inner);
        self.metrics.inject_ns.record(end - t_post);
        if let FaultAction::Deliver { extra_delay, .. } = fate {
            arrival += extra_delay;
            self.metrics.deliver_ns.record(arrival - t_post);
        }
        if let Some(tr) = &self.tracer {
            tr.record(TraceEvent {
                kind,
                src,
                dst,
                nic,
                bytes: len,
                t_post,
                t_service_start: start,
                t_service_end: end,
                t_arrival: arrival,
            });
        }
        Flight {
            nic,
            end,
            arrival,
            fate,
        }
    }

    /// The completion rule (module doc): notify `rank` of a `kind`
    /// completion carrying the raw bits `custom`, from `nic` at `t`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn complete(
        &self,
        st: &mut Sched,
        rank: usize,
        cq: Option<&Arc<CompletionQueue>>,
        kind: CompletionKind,
        custom: u128,
        nic: usize,
        t: Ns,
    ) {
        let spec = &self.cfg.iface;
        let sink = spec
            .hardware_atomic_add
            .then(|| self.inner.lock().ranks[rank].sink.clone())
            .flatten();
        if let Some(sink) = sink {
            sink.apply(st, t, custom);
        } else if let Some(cq) = cq {
            let bits = spec.custom_bits;
            let width = match kind {
                CompletionKind::PutLocal => bits.put_local,
                CompletionKind::PutRemote => bits.put_remote,
                CompletionKind::GetLocal => bits.get_local,
                CompletionKind::GetRemote => bits.get_remote,
            };
            let custom = CustomBits::mask(custom, width);
            cq.push(
                st,
                Completion {
                    kind,
                    custom,
                    nic,
                    t,
                },
            );
        }
    }

    /// Land one PUT sub-message from `src` at `at`: write the target
    /// region, notify the target if the put asked to, and push the
    /// order-preserving companion datagram. One event, so a fault
    /// treats data, notification and companion as a unit. A write that
    /// cannot land posts no completion, and its companion arrives
    /// marked [`Dgram::lost`]: no data, no signal.
    pub(crate) fn land_put(&self, st: &mut Sched, src: usize, nic: usize, at: Ns, cargo: Cargo) {
        let dst = cargo.dst;
        if self.delivery_killed(src, dst.rank) {
            return;
        }
        let port = cargo
            .companion
            .as_ref()
            .and_then(|(p, _)| self.inner.lock().ranks[dst.rank].ports.get(p).cloned());
        let lost = match self.region(dst.rank, dst.id) {
            Some(t) if t.region.write_bytes(cargo.dst_offset, &cargo.data).is_ok() => {
                if let Some(custom) = cargo.notify {
                    let kind = CompletionKind::PutRemote;
                    self.complete(st, dst.rank, Some(&t.cq), kind, custom, nic, at);
                }
                false
            }
            _ => {
                self.metrics.lost_writes.inc();
                true
            }
        };
        if let (Some(port), Some((_, bytes))) = (port, cargo.companion) {
            port.push(
                st,
                Dgram {
                    src,
                    t: at,
                    bytes,
                    lost,
                },
            );
        }
    }
}

impl FabricInner {
    /// `rank`'s datagram port `port`, opened on first use.
    pub(crate) fn port(&mut self, rank: usize, port: u32) -> Arc<Port> {
        let ports = &mut self.ranks[rank].ports;
        Arc::clone(ports.entry(port).or_insert_with(|| Arc::new(Port::new())))
    }

    /// The NIC `sel` names on `rank`'s node: `Auto` round-robins over
    /// the node's `nics` with the rank's cursor.
    pub(crate) fn pick_nic(&mut self, rank: usize, sel: NicSel, nics: usize) -> usize {
        match sel {
            NicSel::Index(i) => i,
            NicSel::Auto => {
                let rs = &mut self.ranks[rank];
                let i = rs.nic_rr % nics;
                rs.nic_rr = rs.nic_rr.wrapping_add(1);
                i
            }
        }
    }

    /// Arrival jitter on `model`, uniform in `[0, jitter_frac *
    /// latency]`; no draw when that bound is 0.
    pub(crate) fn jitter(&mut self, model: &NicModel) -> Ns {
        if model.jitter_frac <= 0.0 {
            return 0;
        }
        let max = (model.latency as f64 * model.jitter_frac) as u64;
        if max == 0 {
            0
        } else {
            self.rng.gen_inclusive(max)
        }
    }
}

/// A checked path from the posting rank to its peer: the NIC selection
/// and the model (loopback or NIC) that carries it.
#[derive(Clone, Copy)]
pub(crate) struct Route {
    pub(crate) rank: usize,
    pub(crate) peer: usize,
    pub(crate) nic: NicSel,
    pub(crate) intra: bool,
    pub(crate) model: NicModel,
}

/// What a transmission carries: a PUT sub-message, the data a GET
/// brings back, or a datagram to a port.
#[derive(Clone, Copy)]
pub(crate) enum Leg {
    Put,
    GetReply,
    Dgram(u32),
}

/// A launched transmission: the NIC it left on, when that NIC drained
/// it, when it arrives and what the fault layer decided.
pub(crate) struct Flight {
    pub(crate) nic: usize,
    pub(crate) end: Ns,
    arrival: Ns,
    fate: FaultAction,
}

impl Flight {
    /// Schedule `deliver(payload)` at the arrival: a duplicate's copy
    /// first if the fate made one, then the primary. A dropped flight
    /// schedules nothing.
    pub(crate) fn land<P: Clone + Send + 'static>(
        &self,
        st: &mut Sched,
        payload: P,
        deliver: impl FnOnce(&mut Sched, Ns, P) + Clone + Send + 'static,
    ) {
        let FaultAction::Deliver { duplicate, .. } = self.fate else {
            return;
        };
        if let Some(dt) = duplicate {
            let (at, again, copy) = (self.arrival + dt, deliver.clone(), payload.clone());
            st.schedule_at(at, move |st| again(st, at, copy));
        }
        let at = self.arrival;
        st.schedule_at(at, move |st| deliver(st, at, payload));
    }
}

/// What a PUT carries to its target.
#[derive(Clone)]
pub(crate) struct Cargo {
    pub(crate) data: Bytes,
    pub(crate) dst: RKey,
    pub(crate) dst_offset: usize,
    /// The raw remote custom bits, when the put notifies its target.
    pub(crate) notify: Option<u128>,
    pub(crate) companion: Option<(u32, Vec<u8>)>,
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
