//! Configuration of the UNR context: [`UnrConfig`], its validating
//! builder and the progress modes.

use unr_simnet::Ns;

use crate::agent::{POLL_COST_BASE, POLL_COST_PER_EVENT};
use crate::channel::{Channel, ChannelSelect};
use crate::epoch::RecoveryPolicy;
use crate::error::UnrError;
use crate::retry::Reliability;
use crate::transport::Backend;

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
            copy_bw_gibps: 12.0,
            pin_nic: None,
            fallback_overhead: 150,
            reliability: Reliability::Auto,
            retry_timeout: 20_000,
            retry_max_backoff: 2_000_000,
            max_retries: 10,
            fallback_after: 3,
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

    /// Inert: ignores its argument. The transport an engine is built on
    /// already fixes the fabric; this stays only because the pinned
    /// benchmark (`benchmark/`) still calls it, and goes when that
    /// benchmark next changes.
    pub fn backend(self, _: Backend) -> Self {
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
        1.0 + (POLL_COST_BASE + 4 * POLL_COST_PER_EVENT) as f64 / interval as f64
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
