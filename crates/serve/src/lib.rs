//! # unr-serve — a key-value service on notifiable RMA
//!
//! Every workload in this workspace so far is lockstep HPC: storms,
//! collectives, stencil solvers. This crate opens the other door the
//! ROADMAP names — irregular, many-client, open-loop *datacenter*
//! traffic — and runs it entirely on UNR primitives:
//!
//! - **Replicated PUT, acked by MMAS algebra.** A PUT encodes its
//!   record into a scratch slot and issues one notified RMA put per
//!   remote replica, all binding the *same* local ack signal. Each
//!   put's source-completion addend is `-1`, and addends are
//!   associative (§IV-B), so a signal allocated with
//!   `num_event = R` makes *durable-replication quorum detection a
//!   single `sig_wait`* — no per-replica bookkeeping, no reply
//!   messages.
//! - **GET on the one-sided read path.** A GET is an RMA get from the
//!   key's home shard window into a scratch slot, notified by a
//!   one-event local signal (levels 2/4: the NIC applies the addend;
//!   no server-side request loop exists at all).
//! - **Open-loop load.** [`workload`] merges thousands of simulated
//!   clients into one seeded Poisson arrival stream with zipfian key
//!   popularity and a configurable read/write mix. Arrivals do not
//!   wait for completions — exactly the traffic shape that exposes
//!   queueing, which closed-loop storms structurally cannot.
//! - **Admission control, typed.** Before touching any resource, a
//!   request passes [`service::KvService`]'s admission check against
//!   the engine's signal-table occupancy probe
//!   (`Unr::signal_occupancy`), the per-destination aggregation-ring
//!   backlog (`Unr::agg_backlog`), and the scratch ring. Crossing a
//!   high-water mark sheds the request with
//!   [`ServeError::Overloaded`] — backpressure, never deadlock, and
//!   *always before* signal-table pressure could surface as an
//!   allocation failure.
//! - **Response cache.** A direct-mapped cache serves repeat GETs
//!   locally; a durably-replicated PUT refreshes its entry at quorum
//!   time and entries expire after a bounded age (see
//!   [`cache::ResponseCache`] for the exact invalidation rule).
//!
//! The same service core runs on both backends, over the engine itself
//! — [`KvService`] and [`run_open_loop`] are generic over the
//! engine's `Transport`: the simulator's (deterministic virtual time —
//! two same-seed runs produce byte-identical metrics snapshots and
//! signal-table fingerprints) and netfab's (real OS processes over the
//! Unix-domain-socket fabric, launched with the `unr-launch` bootstrap
//! machinery). `tests/serve.rs` and `tests/netfab_serve.rs` check the
//! same replication accounting on each.

#![deny(missing_docs)]

pub mod cache;
pub mod driver;
pub mod harness;
pub mod service;
pub mod store;
pub mod workload;

pub use cache::ResponseCache;
pub use driver::{run_open_loop, RankReport};
pub use harness::{run_simnet, SimServeRun};
pub use service::{KvService, ServeMetrics};
pub use store::{decode_record, encode_record, rec_len, Placement};
pub use workload::{Arrival, ClientGen, OpKind, PoissonGaps, ZipfKeys};

use unr_core::UnrError;

/// Which high-water mark an admission decision tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadCause {
    /// Live signals crossed [`ServeConfig::sig_hwm`].
    SignalTable,
    /// A destination's aggregation ring crossed
    /// [`ServeConfig::agg_hwm_bytes`].
    AggRing,
    /// All [`ServeConfig::max_inflight`] scratch slots are in flight.
    Inflight,
}

/// Typed service-level errors.
///
/// `Overloaded` is the *expected* saturation outcome — the admission
/// controller shedding load. `SignalAlloc` is the outcome the
/// admission controller exists to prevent: it means signal-table
/// pressure reached the hard budget without the high-water mark
/// shedding first, and the regression suite asserts it never occurs.
#[derive(Debug)]
pub enum ServeError {
    /// Shed by admission control at a high-water mark.
    Overloaded(OverloadCause),
    /// The signal hard budget was exhausted — an allocation failure
    /// that admission should have converted into `Overloaded` first.
    SignalAlloc {
        /// Live signals at the failed allocation.
        live: usize,
        /// The configured hard budget.
        budget: usize,
    },
    /// The underlying RMA operation failed.
    Rma(UnrError),
    /// In-flight operations did not complete within the drain bound
    /// (the "no deadlock" guarantee turns a hang into this error).
    DrainTimeout {
        /// Operations still pending when the bound was hit.
        pending: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded(c) => write!(f, "overloaded: shed at {c:?} high-water mark"),
            ServeError::SignalAlloc { live, budget } => write!(
                f,
                "signal allocation failure: {live} live signals at hard budget {budget} \
                 (admission control should have shed first)"
            ),
            ServeError::Rma(e) => write!(f, "rma: {e}"),
            ServeError::DrainTimeout { pending } => {
                write!(f, "drain timeout with {pending} operations pending")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<UnrError> for ServeError {
    fn from(e: UnrError) -> ServeError {
        ServeError::Rma(e)
    }
}

/// Everything that shapes a serve run: store geometry, replication
/// factor, traffic mix, admission high-water marks, and the cache.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Keyspace size (zipfian popularity is defined over `0..keys`).
    pub keys: u64,
    /// Zipf skew exponent `s` (`~0.99` is the classic YCSB shape;
    /// `0.0` is uniform).
    pub zipf_s: f64,
    /// Fraction of arrivals that are GETs (the rest are PUTs).
    pub read_frac: f64,
    /// Value payload bytes per record.
    pub value_len: usize,
    /// Replication factor `R` (clamped to the world size).
    pub replicas: usize,
    /// Key slots hosted per rank's shard window.
    pub slots_per_rank: usize,
    /// Simulated clients *per rank*; their independent Poisson streams
    /// merge into one arrival process of summed rate.
    pub clients: usize,
    /// Mean think time per client between requests, in ns — the merged
    /// mean inter-arrival gap is `mean_think_ns / clients`.
    pub mean_think_ns: u64,
    /// Arrivals generated per rank.
    pub ops_per_rank: usize,
    /// Scratch slots (= maximum in-flight requests) per rank.
    pub max_inflight: usize,
    /// Admission high-water mark on live signals: at or above this,
    /// arrivals shed with [`OverloadCause::SignalTable`].
    pub sig_hwm: usize,
    /// Hard signal budget (> `sig_hwm`): allocation at or above this
    /// fails with [`ServeError::SignalAlloc`]. Admission shedding at
    /// `sig_hwm` makes this unreachable — asserted by the regression
    /// suite.
    pub sig_budget: usize,
    /// Admission high-water mark on one destination's aggregation-ring
    /// backlog, in buffered bytes (only reachable with `agg_eager_max`
    /// enabled on the engine).
    pub agg_hwm_bytes: usize,
    /// Direct-mapped response-cache slots (0 disables the cache).
    pub cache_slots: usize,
    /// Cache entries older than this many *arrivals* are stale and
    /// miss (bounds staleness from writers on other ranks).
    pub cache_max_age_ops: u64,
    /// Workload seed; each rank derives its own stream from
    /// `seed ^ splitmix(rank)`.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            keys: 16_384,
            zipf_s: 0.99,
            read_frac: 0.9,
            value_len: 64,
            replicas: 2,
            slots_per_rank: 4_096,
            clients: 2_000,
            mean_think_ns: 40_000_000, // 2k clients -> one arrival / 20 us
            ops_per_rank: 2_000,
            max_inflight: 256,
            sig_hwm: 192,
            sig_budget: 256,
            agg_hwm_bytes: 16 * 1024,
            cache_slots: 1_024,
            cache_max_age_ops: 256,
            seed: 0x5e12_7e00,
        }
    }
}

impl ServeConfig {
    /// CI-sized run: a few hundred arrivals per rank.
    pub fn quick() -> ServeConfig {
        ServeConfig {
            ops_per_rank: 600,
            clients: 1_000,
            mean_think_ns: 20_000_000,
            ..ServeConfig::default()
        }
    }

    /// Deliberate saturation: arrivals far faster than the fabric can
    /// drain, with tiny admission marks — the overload/shedding test
    /// shape. `sig_hwm` is set well below `sig_budget` so every bit of
    /// signal-table pressure must surface as a typed shed, never as an
    /// allocation failure.
    pub fn overload() -> ServeConfig {
        ServeConfig {
            ops_per_rank: 1_500,
            clients: 4_000,
            mean_think_ns: 400_000, // one arrival / 100 ns: hopeless on purpose
            read_frac: 0.5,
            max_inflight: 64,
            sig_hwm: 24,
            sig_budget: 64,
            ..ServeConfig::default()
        }
    }

    /// Byte length of the region one rank's [`KvService`] runs over:
    /// its shard window, then `max_inflight` scratch slots.
    pub fn region_len(&self) -> usize {
        self.window_len() + rec_len(self.value_len) * self.max_inflight
    }

    /// Byte length of one rank's shard window: `slots_per_rank` records
    /// at the start of its region.
    pub fn window_len(&self) -> usize {
        rec_len(self.value_len) * self.slots_per_rank
    }

    /// The replication factor after clamping to `world` ranks.
    pub fn effective_replicas(&self, world: usize) -> usize {
        self.replicas.clamp(1, world.max(1))
    }
}
