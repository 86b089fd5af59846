//! Configuration, errors and metrics of the UNR context, and its
//! simulator side (paper §IV): [`SimTransport`] — registration, the
//! progress pass and the polling agent on a simulated rank — and
//! `Unr::init`. The put, get, wait and rank-level calls over it are
//! [`crate::post`]'s and [`crate::wait`]'s.

use unr_simnet::sync::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use unr_simnet::{
    ActorId, AtomicAddSink, Completion, CompletionKind, CompletionQueue, Endpoint, FabricError,
    GetOp, MemRegion, NicSel, Ns, Port, PutOp, Sched, Step,
};

use crate::blk::{MemCheckpoint, UnrMem};
use crate::ctrl::{self, CtrlEvent, CtrlSink, HwMetrics, TableSink};
use crate::epoch::{Epoch, EpochMetrics, MembershipView, PeerFailedCause, RecoveryPolicy};
use crate::channel::{Channel, ChannelSelect, Mechanism};
use crate::level::{EncodeError, Encoding};
use crate::post::{Unr, UnrCore};
use crate::retry::{Reliability, Resend, RetryPolicy, RetryState, Route};
use crate::signal::{SignalError, SignalTable};
use crate::transport::{Backend, RmaOp, SeqPost, Transport};
use crate::wait::{Until, Woke};
use crate::wire::CtrlMsg;

/// Fabric port carrying UNR control traffic (fallback data, level-0
/// companion messages, fallback GET requests, and the self-healing
/// transport's sequenced sub-messages and acks). Frame layouts live in
/// [`crate::wire`].
pub const UNR_PORT: u32 = 0x554E; // "UN"

/// How notification events are progressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressMode {
    /// A dedicated polling agent drains the NIC event queue (levels
    /// 0–3; the paper's polling thread). `interval == 0` models a
    /// busy-spinning thread on a dedicated core: it reacts as soon as
    /// an event arrives, paying only the per-pass processing cost.
    /// `interval > 0` models a periodic poller sharing a core (the
    /// §VI-C trade-off: larger interval -> less CPU stolen but higher
    /// notification delay and queue-overflow risk).
    PollingAgent {
        /// Polling period (0 = busy-spin on a dedicated core).
        interval: Ns,
    },
    /// The application drives progress itself (`Unr::progress`,
    /// `Unr::sig_wait`).
    UserDriven,
    /// Level-4 hardware applies `*p += a` directly against the signal
    /// table — the notification "lands in user memory" with no CQ
    /// round-trip. Pure notified-RMA traffic needs no software progress
    /// at all; if the config also enables the reliable transport or the
    /// small-message coalescer, a lightweight control-port drainer
    /// (idle-parked, woken by the event bell) handles acks, retransmits,
    /// `MSG_AGG`, and `MSG_EPOCH` while the hardware sink keeps owning
    /// the data path (DESIGN.md §5g).
    Hardware,
}

/// UNR configuration. All ranks must use identical values (SPMD).
#[derive(Debug, Clone, Copy)]
pub struct UnrConfig {
    /// Transport channel selection (Table II; `Auto` picks from the
    /// fabric's interface).
    pub channel: ChannelSelect,
    /// `None`: pick automatically (Hardware on level-4 fabrics,
    /// PollingAgent otherwise).
    pub progress: Option<ProgressMode>,
    /// Event-field width `N` of the MMAS counters. Must be small enough
    /// that striping addends fit the channel's addend bits (mode 2).
    pub n_bits: u32,
    /// Messages at or above this size are striped across NICs.
    pub stripe_threshold: usize,
    /// Cap on sub-messages per message (0 or 1 disables striping).
    pub max_stripes: usize,
    /// Modeled base cost of one polling-loop pass.
    pub poll_cost_base: Ns,
    /// Modeled additional polling cost per processed event.
    pub poll_cost_per_event: Ns,
    /// Modeled memcpy bandwidth for the fallback channel's copies.
    pub copy_bw_gibps: f64,
    /// Pin all single-message traffic to one NIC index (the classic
    /// one-NIC-per-process arrangement). Striped traffic still spreads
    /// over all NICs. `None`: round-robin.
    pub pin_nic: Option<usize>,
    /// Per-message software overhead of the fallback channel (models
    /// the underlying MPI stack's per-call cost; charged at both ends).
    pub fallback_overhead: Ns,
    /// Whether PUT sub-messages run the ack/replay protocol
    /// ([`Reliability::Auto`]: yes iff the fabric injects faults).
    pub reliability: Reliability,
    /// Base retransmit timeout of the reliable transport (scaled by
    /// message size and backed off exponentially per attempt).
    pub retry_timeout: Ns,
    /// Cap on the exponentially backed-off retransmit timeout.
    pub retry_max_backoff: Ns,
    /// Retransmissions per sub-message before the peer is declared
    /// failed ([`UnrError::PeerFailed`]).
    pub max_retries: u32,
    /// Attempt number from which retransmissions abandon the RMA path
    /// and reroute through the datagram fallback channel.
    pub fallback_after: u32,
    /// Which fabric backend this context runs on: the deterministic
    /// simulator ([`Backend::Simnet`], consumed by [`Unr::init`]) or
    /// real TCP processes ([`Backend::Netfab`], consumed by
    /// `unr-netfab`'s `NetUnr::init`).
    pub backend: Backend,
    /// Puts of at most this many bytes to a remote rank are coalesced
    /// into per-destination aggregates ([`crate::agg`]) instead of
    /// posted individually. `0` (the default) disables aggregation
    /// entirely: no coalescer is built, no `unr.agg.*` metrics are
    /// registered, and every data path is byte-identical to a build
    /// without the feature. Composes with every progress mode: under
    /// [`ProgressMode::Hardware`] the aggregate rides the control port
    /// and is drained by the hybrid control drainer (DESIGN.md §5g).
    pub agg_eager_max: usize,
    /// Flush a destination's aggregate ring once its packed payload
    /// reaches this many bytes.
    pub agg_flush_bytes: usize,
    /// Flush a destination's aggregate ring once it holds this many
    /// puts.
    pub agg_flush_puts: usize,
    /// What to do when a peer rank dies ([`RecoveryPolicy::Abort`] by
    /// default: surface [`UnrError::PeerFailed`] and let the
    /// application decide). Validated by [`UnrConfig::validate`] —
    /// [`RecoveryPolicy::Respawn`] needs the reliable transport.
    pub recovery: RecoveryPolicy,
}

impl Default for UnrConfig {
    fn default() -> Self {
        UnrConfig {
            channel: ChannelSelect::Auto,
            progress: None,
            n_bits: 32,
            stripe_threshold: 64 * 1024,
            max_stripes: 8,
            poll_cost_base: 150,
            poll_cost_per_event: 80,
            copy_bw_gibps: 12.0,
            pin_nic: None,
            fallback_overhead: 150,
            reliability: Reliability::Auto,
            retry_timeout: 20_000,
            retry_max_backoff: 2_000_000,
            max_retries: 10,
            fallback_after: 3,
            backend: Backend::Simnet,
            agg_eager_max: 0,
            agg_flush_bytes: 8192,
            agg_flush_puts: 64,
            recovery: RecoveryPolicy::Abort,
        }
    }
}

/// Validating builder for [`UnrConfig`] — the supported way to deviate
/// from the defaults:
///
/// ```
/// use unr_core::UnrConfig;
/// let cfg = UnrConfig::builder()
///     .timeout(50_000)
///     .max_retries(6)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.max_retries, 6);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct UnrConfigBuilder {
    cfg: UnrConfig,
}

impl UnrConfigBuilder {
    /// Force a transport channel instead of auto-selection.
    pub fn channel(mut self, v: ChannelSelect) -> Self {
        self.cfg.channel = v;
        self
    }

    /// Force a progress mode instead of auto-selection.
    pub fn progress(mut self, v: ProgressMode) -> Self {
        self.cfg.progress = Some(v);
        self
    }

    /// Event-field width `N` of the MMAS counters (1..=62).
    pub fn n_bits(mut self, v: u32) -> Self {
        self.cfg.n_bits = v;
        self
    }

    /// Striping threshold in bytes.
    pub fn stripe_threshold(mut self, v: usize) -> Self {
        self.cfg.stripe_threshold = v;
        self
    }

    /// Cap on sub-messages per message.
    pub fn max_stripes(mut self, v: usize) -> Self {
        self.cfg.max_stripes = v;
        self
    }

    /// Modeled memcpy bandwidth of the fallback channel.
    pub fn copy_bw_gibps(mut self, v: f64) -> Self {
        self.cfg.copy_bw_gibps = v;
        self
    }

    /// Pin single-message traffic to one NIC.
    pub fn pin_nic(mut self, v: usize) -> Self {
        self.cfg.pin_nic = Some(v);
        self
    }

    /// Reliability policy of the PUT path.
    pub fn reliability(mut self, v: Reliability) -> Self {
        self.cfg.reliability = v;
        self
    }

    /// Base retransmit timeout of the reliable transport.
    pub fn timeout(mut self, ns: Ns) -> Self {
        self.cfg.retry_timeout = ns;
        self
    }

    /// Cap on the backed-off retransmit timeout.
    pub fn max_backoff(mut self, ns: Ns) -> Self {
        self.cfg.retry_max_backoff = ns;
        self
    }

    /// Retransmissions per sub-message before giving up.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.cfg.max_retries = n;
        self
    }

    /// Attempt number from which retransmits use the fallback channel.
    pub fn fallback_after(mut self, n: u32) -> Self {
        self.cfg.fallback_after = n;
        self
    }

    /// Select the fabric backend (default [`Backend::Simnet`]).
    pub fn backend(mut self, v: Backend) -> Self {
        self.cfg.backend = v;
        self
    }

    /// Coalesce puts of at most `bytes` into per-destination
    /// aggregates (0 disables aggregation — the default).
    pub fn agg_eager_max(mut self, bytes: usize) -> Self {
        self.cfg.agg_eager_max = bytes;
        self
    }

    /// Byte threshold at which an aggregate ring is flushed.
    pub fn agg_flush_bytes(mut self, bytes: usize) -> Self {
        self.cfg.agg_flush_bytes = bytes;
        self
    }

    /// Put-count threshold at which an aggregate ring is flushed.
    pub fn agg_flush_puts(mut self, puts: usize) -> Self {
        self.cfg.agg_flush_puts = puts;
        self
    }

    /// What to do when a peer rank dies (default
    /// [`RecoveryPolicy::Abort`]).
    ///
    /// ```
    /// use unr_core::{RecoveryPolicy, UnrConfig};
    /// let cfg = UnrConfig::builder()
    ///     .recovery(RecoveryPolicy::Respawn {
    ///         max_attempts: 2,
    ///         rejoin_timeout: 5_000_000,
    ///     })
    ///     .build()
    ///     .unwrap();
    /// assert!(matches!(cfg.recovery, RecoveryPolicy::Respawn { .. }));
    /// ```
    ///
    /// `Respawn` is validated at build time: it needs at least one
    /// attempt, a positive rejoin timeout, and the reliable transport
    /// (survivors must be able to drain and reroute in-flight traffic
    /// toward the corpse — with [`Reliability::Off`] there is nothing
    /// tracking that traffic, so the combination is rejected):
    ///
    /// ```
    /// use unr_core::{RecoveryPolicy, Reliability, UnrConfig};
    /// assert!(UnrConfig::builder()
    ///     .reliability(Reliability::Off)
    ///     .recovery(RecoveryPolicy::Respawn {
    ///         max_attempts: 1,
    ///         rejoin_timeout: 1_000,
    ///     })
    ///     .build()
    ///     .is_err());
    /// assert!(UnrConfig::builder()
    ///     .recovery(RecoveryPolicy::Respawn {
    ///         max_attempts: 0, // must be >= 1
    ///         rejoin_timeout: 1_000,
    ///     })
    ///     .build()
    ///     .is_err());
    /// ```
    pub fn recovery(mut self, v: RecoveryPolicy) -> Self {
        self.cfg.recovery = v;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<UnrConfig, UnrError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl UnrConfig {
    /// Start building a validated configuration from the defaults.
    pub fn builder() -> UnrConfigBuilder {
        UnrConfigBuilder::default()
    }

    /// Check the invariants the engine relies on; [`UnrConfigBuilder`]
    /// runs this at `build` time.
    pub fn validate(&self) -> Result<(), UnrError> {
        if !(1..=62).contains(&self.n_bits) {
            return Err(UnrError::InvalidConfig(format!(
                "n_bits must be in 1..=62, got {}",
                self.n_bits
            )));
        }
        if self.copy_bw_gibps.is_nan() || self.copy_bw_gibps <= 0.0 {
            return Err(UnrError::InvalidConfig(format!(
                "copy_bw_gibps must be positive, got {}",
                self.copy_bw_gibps
            )));
        }
        if self.retry_timeout == 0 {
            return Err(UnrError::InvalidConfig(
                "retry_timeout must be positive".into(),
            ));
        }
        if self.retry_max_backoff < self.retry_timeout {
            return Err(UnrError::InvalidConfig(format!(
                "retry_max_backoff ({}) must be >= retry_timeout ({})",
                self.retry_max_backoff, self.retry_timeout
            )));
        }
        if self.fallback_after == 0 {
            return Err(UnrError::InvalidConfig(
                "fallback_after must be >= 1".into(),
            ));
        }
        if self.agg_eager_max > 0 {
            if self.agg_flush_bytes == 0 || self.agg_flush_puts == 0 {
                return Err(UnrError::InvalidConfig(
                    "agg flush thresholds must be positive when aggregation is on".into(),
                ));
            }
            if self.agg_flush_bytes < self.agg_eager_max {
                return Err(UnrError::InvalidConfig(format!(
                    "agg_flush_bytes ({}) must be >= agg_eager_max ({})",
                    self.agg_flush_bytes, self.agg_eager_max
                )));
            }
        }
        if let RecoveryPolicy::Respawn {
            max_attempts,
            rejoin_timeout,
        } = self.recovery
        {
            if max_attempts == 0 {
                return Err(UnrError::InvalidConfig(
                    "recovery: Respawn.max_attempts must be >= 1".into(),
                ));
            }
            if rejoin_timeout == 0 {
                return Err(UnrError::InvalidConfig(
                    "recovery: Respawn.rejoin_timeout must be positive".into(),
                ));
            }
            if self.reliability == Reliability::Off {
                return Err(UnrError::InvalidConfig(
                    "recovery: Respawn needs the reliable transport (survivors \
                     drain and reroute in-flight traffic toward the dead rank); \
                     Reliability::Off does not support it"
                        .into(),
                ));
            }
        }
        Ok(())
    }
    /// The compute-time inflation factor modeling a co-located polling
    /// thread stealing cycles (paper §VI-C): every `interval` the agent
    /// burns roughly one loop pass on a core shared with computation.
    /// 1.0 when a core is reserved or no polling thread exists.
    pub fn polling_compute_inflation(&self, interval: Ns, core_reserved: bool) -> f64 {
        if core_reserved {
            return 1.0;
        }
        1.0 + (self.poll_cost_base + 4 * self.poll_cost_per_event) as f64 / interval as f64
    }

    /// The progress mode an engine on `channel` runs: `progress` if set,
    /// else hardware progress on a level-4 channel without the reliable
    /// transport, else a dedicated busy-polling thread (interval 0) —
    /// the conservative choice for reliable/software channels. Hardware
    /// stays requestable alongside the reliable transport or the
    /// coalescer: the hybrid drainer keeps the control port flowing
    /// (DESIGN.md §5g).
    pub fn resolve_progress(&self, channel: &Channel, reliable: bool) -> ProgressMode {
        self.progress.unwrap_or(if channel.hardware && !reliable {
            ProgressMode::Hardware
        } else {
            ProgressMode::PollingAgent { interval: 0 }
        })
    }
}

/// UNR errors.
#[derive(Debug)]
pub enum UnrError {
    /// A notification did not fit the channel's custom-bits encoding.
    Encode(EncodeError),
    /// The underlying fabric rejected the operation.
    Fabric(FabricError),
    /// The local block of a put/get does not belong to this rank.
    NotMyBlock {
        /// Rank that owns the block handed in as "local".
        blk_rank: usize,
        /// The calling rank.
        my_rank: usize,
    },
    /// Source and destination block sizes differ.
    LenMismatch {
        /// Local block length in bytes.
        local: usize,
        /// Remote block length in bytes.
        remote: usize,
    },
    /// Remote GET notification requested on a channel without remote
    /// GET custom bits (e.g. Verbs).
    GetRemoteNotifyUnsupported,
    /// The local block references an unknown (unregistered) region.
    RegionUnknown(u32),
    /// A signal-layer synchronization error (overflow, racy reset).
    Signal(SignalError),
    /// A bounded wait (`sig_wait_timeout`, or a netfab wait at its
    /// wall-clock cap) expired before the signal triggered.
    Timeout {
        /// The bound that ran out, in nanoseconds on the transport's
        /// clock (virtual on simnet, wall on netfab).
        waited: Ns,
    },
    /// A peer rank is failed — the single terminal peer-loss state.
    ///
    /// Consolidates the old `ChannelDown` / `RetryExhausted` pair: the
    /// `cause` says whether the reliable transport exhausted its
    /// retransmissions ([`PeerFailedCause::RetryExhausted`]) or the
    /// membership layer declared the rank dead
    /// ([`PeerFailedCause::Killed`]). `epoch` is the membership epoch
    /// the failure was observed in ([`Epoch::ZERO`] when membership
    /// never armed).
    PeerFailed {
        /// The failed peer rank.
        rank: usize,
        /// Membership epoch the failure was observed in.
        epoch: Epoch,
        /// What convinced the runtime the peer is gone.
        cause: PeerFailedCause,
    },
    /// A wire message carried a membership epoch older than this rank's
    /// current epoch and was fenced off the control path (the
    /// membership analogue of a stale signal generation; counted in
    /// `unr.epoch.stale_rejects`).
    StaleEpoch {
        /// Epoch stamped on the rejected message.
        msg_epoch: Epoch,
        /// The receiver's current membership epoch.
        current: Epoch,
    },
    /// A configuration rejected by [`UnrConfig::validate`].
    InvalidConfig(String),
}

impl UnrError {
    /// Whether this error means a peer is terminally gone (any
    /// [`UnrError::PeerFailed`], regardless of cause).
    pub fn is_peer_failure(&self) -> bool {
        matches!(self, UnrError::PeerFailed { .. })
    }
}

impl std::fmt::Display for UnrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnrError::Encode(e) => write!(f, "encoding: {e}"),
            UnrError::Fabric(e) => write!(f, "fabric: {e}"),
            UnrError::NotMyBlock { blk_rank, my_rank } => write!(
                f,
                "local block belongs to rank {blk_rank}, not this rank {my_rank}"
            ),
            UnrError::LenMismatch { local, remote } => {
                write!(f, "block size mismatch: local {local} vs remote {remote}")
            }
            UnrError::GetRemoteNotifyUnsupported => {
                write!(f, "this channel cannot notify the remote side of a GET")
            }
            UnrError::RegionUnknown(id) => write!(f, "unknown region id {id}"),
            UnrError::Signal(e) => write!(f, "{e}"),
            UnrError::Timeout { waited } => {
                write!(f, "signal wait timed out after {waited} ns")
            }
            UnrError::PeerFailed { rank, epoch, cause } => {
                write!(f, "peer rank {rank} failed in {epoch}: {cause}")
            }
            UnrError::StaleEpoch { msg_epoch, current } => write!(
                f,
                "stale-epoch message fenced: stamped {msg_epoch}, current {current}"
            ),
            UnrError::InvalidConfig(why) => write!(f, "invalid config: {why}"),
        }
    }
}
impl std::error::Error for UnrError {}

impl From<EncodeError> for UnrError {
    fn from(e: EncodeError) -> Self {
        UnrError::Encode(e)
    }
}
impl From<FabricError> for UnrError {
    fn from(e: FabricError) -> Self {
        UnrError::Fabric(e)
    }
}
impl From<SignalError> for UnrError {
    fn from(e: SignalError) -> Self {
        UnrError::Signal(e)
    }
}

/// Operation counters.
#[derive(Debug, Default)]
pub struct UnrStats {
    /// `UNR_Put` calls issued.
    pub puts: AtomicU64,
    /// `UNR_Get` calls issued.
    pub gets: AtomicU64,
    /// Wire-level sub-messages (striping splits one put into several).
    pub sub_messages: AtomicU64,
    /// Payload bytes passed to `UNR_Put`.
    pub bytes_put: AtomicU64,
    /// Operations carried by the two-sided fallback channel.
    pub fallback_msgs: AtomicU64,
    /// Completion events and control messages drained by progress.
    pub events_progressed: AtomicU64,
}

/// Pre-resolved `unr-obs` instrument handles for the engine's hot
/// paths (resolved once at `UNR_Init`; updates are single relaxed
/// atomics). Mirrors [`UnrStats`] into the fabric-wide registry and
/// adds the per-channel/per-level/striping/error series the paper's
/// evaluation (§V) plots.
pub(crate) struct UnrMetrics {
    pub(crate) puts: Arc<unr_obs::Counter>,
    pub(crate) gets: Arc<unr_obs::Counter>,
    pub(crate) sub_messages: Arc<unr_obs::Counter>,
    pub(crate) bytes_put: Arc<unr_obs::Counter>,
    pub(crate) fallback_msgs: Arc<unr_obs::Counter>,
    pub(crate) events_progressed: Arc<unr_obs::Counter>,
    /// Notifications applied to MMAS counters (signal adds).
    pub(crate) sig_adds: Arc<unr_obs::Counter>,
    /// `UNR_Sig_Reset` calls that raced pending events (§IV-D).
    pub(crate) sig_reset_errors: Arc<unr_obs::Counter>,
    /// Waits that surfaced an overflow-detect-bit trip.
    pub(crate) overflow_trips: Arc<unr_obs::Counter>,
    /// Messages on this rank's selected channel (`unr.channel.<name>.msgs`).
    pub(crate) channel_msgs: Arc<unr_obs::Counter>,
    /// Messages at this channel's support level (`unr.level.<n>.msgs`).
    pub(crate) level_msgs: Arc<unr_obs::Counter>,
    /// Sub-message fan-out `k` of each RMA put (1 = unstriped).
    pub(crate) stripe_fanout: Arc<unr_obs::Histogram>,
    /// Events + control messages drained per progress pass.
    pub(crate) progress_batch: Arc<unr_obs::Histogram>,
    /// Operations replayed through `UNR_Plan_Start`.
    pub(crate) plan_ops: Arc<unr_obs::Counter>,
    /// `UNR_Plan_Start` invocations (plan replays).
    pub(crate) plan_starts: Arc<unr_obs::Counter>,
}

impl UnrMetrics {
    pub(crate) fn new(obs: &unr_obs::Obs, channel: &Channel) -> UnrMetrics {
        let m = &obs.metrics;
        UnrMetrics {
            puts: m.counter("unr.puts"),
            gets: m.counter("unr.gets"),
            sub_messages: m.counter("unr.sub_messages"),
            bytes_put: m.counter("unr.bytes_put"),
            fallback_msgs: m.counter("unr.fallback_msgs"),
            events_progressed: m.counter("unr.events_progressed"),
            sig_adds: m.counter("unr.signal.adds"),
            sig_reset_errors: m.counter("unr.signal.reset_errors"),
            overflow_trips: m.counter("unr.signal.overflow_trips"),
            channel_msgs: m.counter(&format!("unr.channel.{}.msgs", channel.name)),
            level_msgs: m.counter(&format!(
                "unr.level.{}.msgs",
                channel.level.as_index()
            )),
            stripe_fanout: m.histogram("unr.stripe_fanout"),
            progress_batch: m.histogram("unr.progress.batch_size"),
            plan_ops: m.counter("unr.plan.ops"),
            plan_starts: m.counter("unr.plan.starts"),
        }
    }
}

/// Pre-resolved instruments of the self-healing transport, registered
/// only when reliability is active so fault-free runs keep a
/// byte-identical metrics snapshot.
pub(crate) struct RetryMetrics {
    /// Sub-message deadlines that expired (retransmit or abandon).
    timeouts: Arc<unr_obs::Counter>,
    /// Retransmissions posted.
    retransmits: Arc<unr_obs::Counter>,
    /// Acks that cleared a pending sub-message.
    acks: Arc<unr_obs::Counter>,
    /// Duplicate sequenced deliveries suppressed by the dedup window.
    dup_suppressed: Arc<unr_obs::Counter>,
    /// Sub-messages abandoned after `max_retries`.
    exhausted: Arc<unr_obs::Counter>,
    /// Post-to-ack latency of acked sub-messages.
    ack_latency: Arc<unr_obs::Histogram>,
    /// Retransmissions that rotated to another NIC.
    nic_rotations: Arc<unr_obs::Counter>,
    /// Retransmissions rerouted through the datagram fallback channel.
    fallback_msgs: Arc<unr_obs::Counter>,
}

impl RetryMetrics {
    fn new(obs: &unr_obs::Obs) -> RetryMetrics {
        let m = &obs.metrics;
        RetryMetrics {
            timeouts: m.counter("unr.retry.timeouts"),
            retransmits: m.counter("unr.retry.retransmits"),
            acks: m.counter("unr.retry.acks"),
            dup_suppressed: m.counter("unr.retry.dup_suppressed"),
            exhausted: m.counter("unr.retry.exhausted"),
            ack_latency: m.histogram("unr.retry.ack_latency_ns"),
            nic_rotations: m.counter("unr.failover.nic_rotations"),
            fallback_msgs: m.counter("unr.failover.fallback_msgs"),
        }
    }
}

/// Read-mostly registry of this rank's registered memory regions.
///
/// Registration is rare (startup, mostly) but every put/get/fallback
/// delivery looks a region up, from both the application rank and the
/// polling agent. Instead of a mutex around the map, readers follow an
/// atomic pointer to an immutable snapshot (`load` + `get` + clone of
/// one `MemRegion` handle — no lock, no contention); writers build a
/// new map copy under a small mutex and swap the pointer. Retired
/// snapshots park in a graveyard freed at drop — a reader that loaded
/// a pointer just before a swap may still be walking that map, and with
/// registration counts this small, leaking superseded snapshots until
/// teardown is cheaper than any epoch/hazard machinery.
pub(crate) struct RegionMap {
    current: AtomicPtr<HashMap<u32, MemRegion>>,
    /// Writer serialization + retired snapshots.
    // The Box keeps each retired map at a stable address: readers may
    // still hold raw pointers obtained from `current`, so retired maps
    // must never move while parked here.
    #[allow(clippy::vec_box)]
    graveyard: Mutex<Vec<Box<HashMap<u32, MemRegion>>>>,
}

impl RegionMap {
    fn new() -> RegionMap {
        RegionMap {
            current: AtomicPtr::new(Box::into_raw(Box::new(HashMap::new()))),
            graveyard: Mutex::new(Vec::new()),
        }
    }

    /// Lock-free lookup (hot path).
    pub fn get(&self, id: u32) -> Option<MemRegion> {
        // SAFETY: `current` always points at a map published with
        // Release and never freed before `self` drops (see graveyard).
        let map = unsafe { &*self.current.load(Ordering::Acquire) };
        map.get(&id).cloned()
    }

    /// Publish a new region (cold path: copy, insert, swap).
    pub fn insert(&self, id: u32, region: MemRegion) {
        let mut graveyard = self.graveyard.lock();
        let old = self.current.load(Ordering::Relaxed);
        // SAFETY: single writer (graveyard mutex held); `old` stays
        // readable for concurrent readers until drop.
        let mut next = unsafe { (*old).clone() };
        next.insert(id, region);
        self.current
            .store(Box::into_raw(Box::new(next)), Ordering::Release);
        graveyard.push(unsafe { Box::from_raw(old) });
    }
}

impl Drop for RegionMap {
    fn drop(&mut self) {
        // SAFETY: exclusive access; the graveyard Vec frees the retired
        // snapshots, this frees the live one.
        unsafe { drop(Box::from_raw(self.current.load(Ordering::Relaxed))) };
    }
}

/// The simulated rank under the seam: what only a simnet engine has,
/// shared between the application rank's [`SimTransport`] and the
/// polling agent.
pub(crate) struct SimState {
    /// The engine state above the seam.
    pub core: Arc<UnrCore>,
    pub cq: Arc<CompletionQueue>,
    pub port: Arc<Port>,
    pub regions: RegionMap,
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
    /// The fabric this core runs on — membership/epoch queries on the
    /// control path read its lock-free membership atomics directly.
    pub fabric: Arc<unr_simnet::Fabric>,
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
        self.fabric.membership_active()
    }

    /// Fast wait-predicate check: is any rank currently dead? (Waiters
    /// must fail fast with [`UnrError::PeerFailed`] instead of parking
    /// on an addend whose source can never send it.)
    pub(crate) fn dead_peer(&self) -> bool {
        self.membership_on() && self.fabric.num_dead() > 0
    }

    /// The lazily-registered epoch/recovery instruments.
    pub(crate) fn emet(&self) -> &EpochMetrics {
        self.emet.get_or_init(|| EpochMetrics::new(&self.fabric.obs))
    }

    /// Read the fabric's membership epoch, counting any advance since
    /// the last observation into `unr.epoch.bumps`.
    pub(crate) fn observe_epoch(&self) -> Epoch {
        let cur = self.fabric.membership_epoch();
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
        let Some(retry) = &self.core.retry else { return };
        if self.fabric.num_dead() == 0 {
            return;
        }
        let mut drained = 0usize;
        for r in 0..self.fabric.cfg.total_ranks() {
            if !self.fabric.rank_alive(r) {
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
            if frame.first().is_some_and(|&kind| CtrlMsg::is_data_bearing(kind)) {
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
        let Some(retry) = &self.core.retry else { return };
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
            let r = Arc::clone(retry);
            sched.schedule_at(d, move |st2| {
                r.set_due();
                for w in r.take_waiters() {
                    st2.wake(w, d);
                }
            });
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
    fn agent_pass(
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
    fn fallback_cost(&self, bytes: usize, msgs: usize) -> Ns {
        self.core.copy_bw.transfer_time(bytes) + msgs as Ns * self.core.cfg.fallback_overhead
    }

    /// Send one reply a pass computed, at `t` from `ep`'s rank
    /// (scheduler context); returns the post overhead to charge next.
    /// Stamped at send time: a retransmission of a pre-kill sub-message
    /// goes out under the *current* epoch, which is how surviving ranks'
    /// traffic heals through the epoch fence after a membership bump.
    fn send_reply_at(&self, ep: &Endpoint, sched: &mut Sched, t: Ns, reply: Resend) -> Ns {
        match reply {
            Resend::Dgram { dst, bytes, .. } => {
                let frame = self.stamp_ctrl(bytes);
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
    fn progress_on(&self, ep: &Endpoint) -> usize {
        let actor = ep.actor();
        let mut replies = Vec::new();
        let (n, fb_bytes, fb_msgs) =
            actor.with_sched(|st, t| self.progress_pass(st, t, &mut replies));
        if fb_msgs > 0 {
            actor.advance(self.fallback_cost(fb_bytes, fb_msgs));
        }
        for reply in replies {
            let overhead = actor.with_sched(|st, t| self.send_reply_at(ep, st, t, reply));
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
        self.sim.fabric.obs.metrics.counter("unr.ctrl.bad_dma").inc();
    }
}

impl CtrlSink for SimSink<'_> {
    fn deposit(&mut self, region: u32, offset: u64, payload: &[u8]) -> bool {
        let landed = self
            .sim
            .regions
            .get(region)
            .is_some_and(|r| r.write_bytes(offset as usize, payload).is_ok());
        if !landed {
            self.bad_dma();
        }
        landed
    }

    fn read(&mut self, region: u32, offset: u64, len: u64) -> Option<Vec<u8>> {
        let data = self
            .sim
            .regions
            .get(region)
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
        self.replies.push(Resend::Dgram { dst, nic: 0, bytes });
    }

    fn count(&mut self, event: CtrlEvent) {
        match (event, &self.sim.rmet) {
            (CtrlEvent::Malformed, _) => {
                self.sim.fabric.obs.metrics.counter("unr.ctrl.malformed").inc()
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

/// An agent's life, shared with its rank and touched by both only
/// inside scheduler entries: running; asked to stop (by the rank's
/// shutdown, in the entry that also wakes the agent); stopped (by the
/// agent's last pass, which wakes the rank).
const RUNNING: u8 = 0;
const STOPPING: u8 = 1;
const STOPPED: u8 = 2;

/// What a rank keeps of its agent.
struct AgentState {
    id: ActorId,
    life: Arc<AtomicU8>,
}

/// Where an [`Agent`] is in its loop: the scheduler entry its next step
/// makes.
#[derive(Clone, Copy)]
enum Phase {
    /// The first turn: the loop top, then what it chose.
    Begin,
    /// A progress (or control) pass.
    Pass,
    /// Charge the pass's fallback-channel receive copy.
    Fallback(Ns),
    /// Send the next reply.
    Reply,
    /// Charge that reply's post overhead.
    ReplyCost(Ns),
    /// Charge the pass's polling cost.
    PollCost,
    /// Check the wait; a periodic agent's sleep ends at `Some(deadline)`
    /// once armed.
    Wait(Option<Ns>),
    /// Acknowledge the stop and wake the rank.
    Ack,
    /// Retire the actor.
    Retire,
}

/// A rank's progress agent — the polling agent, or with `ctrl_only` the
/// hybrid control drainer of `ProgressMode::Hardware` (DESIGN.md §5g) —
/// as a callback actor: no thread, a virtual clock and a wake predicate
/// of its own. Its loop is the paper's polling thread: a pass, the
/// fallback copy, each reply and its post overhead, the polling cost,
/// then a wait (`interval == 0`: until the CQ, the control port or the
/// retry table has work; otherwise a sleep of `interval`). It is cut at
/// exactly the scheduler entries that thread made, one per step: a
/// coarser cut would reorder same-time entities and move every golden
/// trace.
struct Agent {
    sim: Arc<SimState>,
    /// The rank's endpoint: the agent posts as its rank.
    ep: Arc<Endpoint>,
    /// The rank's actor.
    owner: ActorId,
    life: Arc<AtomicU8>,
    interval: Ns,
    ctrl_only: bool,
    phase: Phase,
    /// The last pass's replies not yet sent, and its event count.
    replies: std::vec::IntoIter<Resend>,
    polled: usize,
}

impl Agent {
    fn step(&mut self, sched: &mut Sched, me: ActorId, t: Ns) -> Step {
        const NEXT: Step = Step::Yield { advance: 0 };
        match self.phase {
            Phase::Begin => {
                self.phase = self.loop_top();
                self.step(sched, me, t)
            }
            Phase::Pass => {
                let mut replies = Vec::new();
                let (n, fb_bytes, fb_msgs) =
                    self.sim.agent_pass(sched, t, self.ctrl_only, &mut replies);
                self.polled = n;
                self.replies = replies.into_iter();
                self.phase = if fb_msgs > 0 {
                    Phase::Fallback(self.sim.fallback_cost(fb_bytes, fb_msgs))
                } else {
                    self.next_reply()
                };
                NEXT
            }
            Phase::Fallback(advance) | Phase::ReplyCost(advance) => {
                self.phase = self.next_reply();
                Step::Yield { advance }
            }
            Phase::Reply => {
                let reply = self.replies.next().expect("a reply is pending");
                let overhead = self.sim.send_reply_at(&self.ep, sched, t, reply);
                self.phase = Phase::ReplyCost(overhead);
                NEXT
            }
            Phase::PollCost => {
                self.phase = Phase::Wait(None);
                let cfg = &self.sim.core.cfg;
                Step::Yield {
                    advance: cfg.poll_cost_base + self.polled as Ns * cfg.poll_cost_per_event,
                }
            }
            Phase::Wait(until) => {
                if self.waited(t, until) {
                    self.phase = self.loop_top();
                    return NEXT;
                }
                self.arm(sched, me, t, until);
                Step::Block
            }
            Phase::Ack => {
                self.life.store(STOPPED, Ordering::Relaxed);
                sched.wake(self.owner, t);
                self.phase = Phase::Retire;
                NEXT
            }
            Phase::Retire => Step::Finish,
        }
    }

    /// The top of the loop: stop, or pass again — decided in the turn
    /// that ends the wait (or the first turn), like a thread's code
    /// between that turn and its next call; a later stop is seen at the
    /// next wait check.
    fn loop_top(&self) -> Phase {
        if self.life.load(Ordering::Relaxed) == RUNNING {
            Phase::Pass
        } else {
            Phase::Ack
        }
    }

    /// After a pass, its fallback copy or a reply: the next reply, else
    /// the polling cost.
    fn next_reply(&self) -> Phase {
        if self.replies.len() > 0 {
            Phase::Reply
        } else {
            Phase::PollCost
        }
    }

    /// Is the wait over? A periodic agent's timer wakes it at the
    /// deadline, so its clock reaching that is the timer having run.
    fn waited(&self, t: Ns, until: Option<Ns>) -> bool {
        if self.life.load(Ordering::Relaxed) != RUNNING {
            return true;
        }
        if self.interval > 0 {
            return until.is_some_and(|u| t >= u);
        }
        // Busy-spin model: anything to process, or a retransmit
        // deadline due. The control drainer never looks at the CQ:
        // under a hardware channel nothing is ever pushed there.
        let sim = &self.sim;
        (!self.ctrl_only && !sim.cq.is_empty())
            || !sim.port.is_empty()
            || sim.core.retry.as_ref().is_some_and(|r| r.is_due())
    }

    /// Arrange to be woken when the wait may be over: by the CQ, the
    /// port and the retry table, or by a timer armed once per sleep.
    fn arm(&mut self, sched: &mut Sched, me: ActorId, t: Ns, until: Option<Ns>) {
        let sim = &self.sim;
        if self.interval > 0 {
            if until.is_none() {
                let u = t + self.interval;
                sched.schedule_at(u, move |st| st.wake(me, u));
                self.phase = Phase::Wait(Some(u));
            }
            return;
        }
        if !self.ctrl_only {
            sim.cq.add_waiter(me);
        }
        sim.port.add_waiter(me);
        if let Some(r) = &sim.core.retry {
            r.add_waiter(me);
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
/// implementor: the application rank's endpoint, the state it shares
/// with its polling agent, and that agent.
pub struct SimTransport {
    ep: Arc<Endpoint>,
    sim: Arc<SimState>,
    agent: Mutex<Option<AgentState>>,
    /// The latest wait deadline whose wake-up has run: a timed wait has
    /// expired once this reaches its own.
    timer: Arc<AtomicU64>,
}

impl Transport for SimTransport {
    fn rank(&self) -> usize {
        self.ep.rank()
    }

    fn nranks(&self) -> usize {
        self.sim.fabric.cfg.total_ranks()
    }

    fn nics(&self) -> usize {
        self.sim.fabric.cfg.nics_per_node
    }

    fn register(&self, len: usize) -> MemRegion {
        let region = self.ep.register(len, &self.sim.cq);
        self.sim.regions.insert(region.rkey.id, region.clone());
        region
    }

    fn region(&self, id: u32) -> Option<MemRegion> {
        self.sim.regions.get(id)
    }

    fn put(&self, op: RmaOp<'_>, companion: Option<Vec<u8>>) -> Result<(), UnrError> {
        self.ep.put(PutOp {
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
        self.ep.get(GetOp {
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
        let frame = self.sim.stamp_ctrl(post.frame.into_owned());
        match post.route {
            Route::Rma => self.ep.put_bytes(
                post.payload.clone(),
                post.dst,
                post.dst_offset,
                post.nic,
                Some((UNR_PORT, frame)),
            )?,
            Route::Dgram | Route::Agg => {
                self.ep.send_dgram(post.dst.rank, UNR_PORT, frame, post.nic)
            }
        }
        Ok(())
    }

    fn send_ctrl(&self, dst: usize, nic: NicSel, frame: Vec<u8>) -> Result<(), UnrError> {
        self.ep
            .send_dgram(dst, UNR_PORT, self.sim.stamp_ctrl(frame), nic);
        Ok(())
    }

    fn charge(&self, ns: Ns) {
        self.ep.advance(ns);
    }

    fn complete(&self, entries: &[(usize, u64)], locals: &[(u64, i64)]) {
        if entries.is_empty() && locals.iter().all(|&(key, _)| key == 0) {
            return;
        }
        let core = &self.sim.core;
        // One scheduler entry arms the deadline wake-ups AND applies
        // the local addends.
        self.ep.actor().with_sched(|st, t| {
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
        !self.sim.membership_on() || self.sim.fabric.rank_alive(dst)
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
                sim.fabric.first_dead_rank().unwrap_or(0),
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

    /// A scheduler wait on the signals and the retry table while an
    /// agent (or the hardware) progresses; when the rank drives progress
    /// itself, a pass and then a park on the CQ, port and retry table. A
    /// timed wait first arms its deadline, in its own scheduler entry.
    fn park(&self, until: &Until<'_>) -> Woke {
        let sim = &self.sim;
        let retry = sim.core.retry.as_deref();
        let actor = self.ep.actor();
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
                sim.progress_on(&self.ep);
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
        self.sim.progress_on(&self.ep)
    }

    /// Stop the agent (idempotent): set stop and wake it in one
    /// scheduler entry, then wait until its last pass acknowledges.
    fn shutdown(&self) {
        let Some(AgentState { id, life }) = self.agent.lock().take() else {
            return;
        };
        let actor = self.ep.actor();
        actor.with_sched(|st, t| {
            life.store(STOPPING, Ordering::Relaxed);
            st.wake(id, t);
        });
        actor.wait_until(|_st| life.load(Ordering::Relaxed) == STOPPED, |_st, _me| {});
        // The agent retires one step later at the same time; yielding
        // 1 ns lets that step run first. The golden traces lock the 1 ns.
        self.ep.sleep(1);
    }

    fn now(&self) -> Ns {
        self.ep.now()
    }

    fn sleep(&self, dt: Ns) {
        self.ep.sleep(dt);
    }

    fn obs(&self) -> &unr_obs::Obs {
        &self.sim.fabric.obs
    }
}

impl SimTransport {
    /// Start the rank's [`Agent`], its clock at the rank's present.
    /// `ctrl_only == false` is the classic polling agent (drains CQ +
    /// control port every pass); `ctrl_only == true` is the hybrid
    /// control drainer of `ProgressMode::Hardware` (DESIGN.md §5g): the
    /// level-4 sink owns the data path, the drainer only drains the
    /// control port — acks/retransmits/`MSG_AGG`/`MSG_EPOCH` — and
    /// idle-parks until the port bell or a retransmit deadline wakes it.
    fn spawn_agent(&self, interval: Ns, ctrl_only: bool) {
        let rank = self.ep.rank();
        let name = if ctrl_only {
            format!("unr-hwctrl-{rank}")
        } else {
            format!("unr-poller-{rank}")
        };
        let life = Arc::new(AtomicU8::new(RUNNING));
        let mut agent = Agent {
            sim: Arc::clone(&self.sim),
            ep: Arc::clone(&self.ep),
            owner: self.ep.actor().id(),
            life: Arc::clone(&life),
            interval,
            ctrl_only,
            phase: Phase::Begin,
            replies: Vec::new().into_iter(),
            polled: 0,
        };
        let core = self.ep.fabric().core();
        let id =
            core.register_callback(&name, self.ep.now(), move |st, me, t| agent.step(st, me, t));
        *self.agent.lock() = Some(AgentState { id, life });
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

/// What only the simnet engine has: `init` and membership.
impl Unr {
    /// Initialize UNR on this rank. The channel is selected from the
    /// fabric's interface (Table II) unless forced by `cfg.channel`.
    pub fn init(ep: Arc<Endpoint>, cfg: UnrConfig) -> Arc<Unr> {
        assert_eq!(
            cfg.backend,
            Backend::Simnet,
            "Unr::init drives the simnet backend; for Backend::Netfab \
             use unr-netfab's NetUnr::init"
        );
        let spec = ep.iface();
        let channel = Channel::select(&spec, cfg.channel);
        let table = SignalTable::with_key_capacity(cfg.n_bits, Self::key_capacity(&channel));
        let cq = ep.create_cq();
        let port = ep.open_port(UNR_PORT);
        let fabric = Arc::clone(ep.fabric());
        let fcfg = &fabric.cfg;
        let reliable = match cfg.reliability {
            Reliability::On => true,
            Reliability::Off => false,
            Reliability::Auto => fcfg.faults.enabled(),
        };
        let retry = reliable.then(|| {
            // Approximate wire cost per byte for deadline scaling.
            let ns_per_byte = fcfg.nic.bandwidth.transfer_time(4096) as f64 / 4096.0;
            Arc::new(RetryState::new(
                RetryPolicy {
                    timeout: cfg.retry_timeout,
                    max_backoff: cfg.retry_max_backoff,
                    max_retries: cfg.max_retries,
                    fallback_after: cfg.fallback_after,
                    nics: fcfg.nics_per_node,
                    ns_per_byte,
                },
                fcfg.total_ranks(),
            ))
        });
        let core = Arc::new(UnrCore::new(
            cfg,
            channel,
            table,
            retry,
            &fabric.obs,
            fcfg.total_ranks(),
        ));
        let hwmet = channel.hardware.then(|| HwMetrics::new(&fabric.obs));
        if let Some(hw) = &hwmet {
            // A level-4 NIC applies *p += a itself, whatever the software
            // progress mode is; without the sink every notification would
            // be silently lost (hardware channels post no CQ events).
            let sink = TableSink::new(Arc::clone(&core.table), &fabric.obs, Some(hw.clone()));
            ep.set_add_sink(Arc::new(sink));
        }
        let progress_mode = core.progress_mode;
        let sim = Arc::new(SimState {
            core: Arc::clone(&core),
            cq,
            port,
            regions: RegionMap::new(),
            rmet: reliable.then(|| RetryMetrics::new(&fabric.obs)),
            hwmet,
            scratch: Mutex::new(Vec::new()),
            fabric: Arc::clone(&fabric),
            emet: OnceLock::new(),
            last_epoch: AtomicU64::new(0),
        });
        let tx = SimTransport {
            ep,
            sim,
            agent: Mutex::new(None),
            timer: Arc::new(AtomicU64::new(0)),
        };
        match progress_mode {
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
                if reliable || cfg.agg_eager_max > 0 {
                    tx.spawn_agent(0, true);
                }
            }
            ProgressMode::PollingAgent { interval } => tx.spawn_agent(interval, false),
            ProgressMode::UserDriven => {}
        }
        Arc::new(Unr { tx, core })
    }

    /// The endpoint this context is bound to.
    pub fn ep(&self) -> &Endpoint {
        &self.tx.ep
    }

    // ---- membership & recovery --------------------------------------------

    /// The current membership epoch (see [`crate::epoch`]).
    ///
    /// [`Epoch::ZERO`] until a rank is killed; bumped on every kill and
    /// every revive/rejoin. Observing the epoch through this accessor
    /// also settles any pending advance into `unr.epoch.bumps`.
    pub fn epoch(&self) -> Epoch {
        self.tx.sim.observe_epoch()
    }

    /// A consistent snapshot of rank membership: epoch, liveness and
    /// incarnation generation of every rank.
    ///
    /// Fault-free runs get the epoch-0 all-live view without touching
    /// any membership state.
    pub fn membership_view(&self) -> MembershipView {
        let sim = &self.tx.sim;
        let n = sim.fabric.cfg.total_ranks();
        if !sim.membership_on() {
            return MembershipView::world(n);
        }
        let fabric = &sim.fabric;
        MembershipView {
            epoch: sim.observe_epoch(),
            live: (0..n).map(|r| fabric.rank_alive(r)).collect(),
            generation: (0..n).map(|r| fabric.rank_generation(r)).collect(),
        }
    }

    /// `UNR_Checkpoint`: snapshot a registered region into an in-memory
    /// checkpoint stamped with the current membership epoch (the Besta &
    /// Hoefler in-memory-checkpoint model — see [`crate::epoch`]).
    pub fn checkpoint(&self, mem: &UnrMem) -> MemCheckpoint {
        mem.checkpoint(self.tx.sim.observe_epoch())
    }

    /// `UNR_Restore`: write a checkpoint back into its region. On a
    /// respawned/revived rank this runs *before* re-registering with
    /// peers, so the new epoch starts from the checkpointed bytes;
    /// survivors use it to roll back to the last epoch boundary.
    pub fn restore(&self, mem: &UnrMem, ckpt: &MemCheckpoint) {
        mem.restore(ckpt);
    }

    /// The largest signal key every direction of this channel can carry
    /// in custom bits. Sizes the signal table's generation field so
    /// generation-tagged keys always encode on the selected wire
    /// (narrow wires get no tag and keep the historical semantics).
    fn key_capacity(channel: &Channel) -> u64 {
        match channel.mech {
            // Keys ride full-width datagram payloads.
            Mechanism::Dgram => u64::MAX,
            // Level-0 local completions carry Split64 custom bits.
            Mechanism::RmaCompanion => Encoding::Split64.max_key(),
            Mechanism::Rma(enc) => {
                let mut cap = enc
                    .put_local
                    .max_key()
                    .min(enc.put_remote.max_key())
                    .min(enc.get_local.max_key());
                if let Some(g) = enc.get_remote {
                    cap = cap.min(g.max_key());
                }
                cap
            }
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
