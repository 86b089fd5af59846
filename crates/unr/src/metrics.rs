//! The engine's operation counters and its pre-resolved `unr-obs`
//! instruments.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use crate::channel::Channel;

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
            level_msgs: m.counter(&format!("unr.level.{}.msgs", channel.level.as_index())),
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
    pub(crate) timeouts: Arc<unr_obs::Counter>,
    /// Retransmissions posted.
    pub(crate) retransmits: Arc<unr_obs::Counter>,
    /// Acks that cleared a pending sub-message.
    pub(crate) acks: Arc<unr_obs::Counter>,
    /// Duplicate sequenced deliveries suppressed by the dedup window.
    pub(crate) dup_suppressed: Arc<unr_obs::Counter>,
    /// Sub-messages abandoned after `max_retries`.
    pub(crate) exhausted: Arc<unr_obs::Counter>,
    /// Post-to-ack latency of acked sub-messages.
    pub(crate) ack_latency: Arc<unr_obs::Histogram>,
    /// Retransmissions that rotated to another NIC.
    pub(crate) nic_rotations: Arc<unr_obs::Counter>,
    /// Retransmissions rerouted through the datagram fallback channel.
    pub(crate) fallback_msgs: Arc<unr_obs::Counter>,
}

impl RetryMetrics {
    pub(crate) fn new(obs: &unr_obs::Obs) -> RetryMetrics {
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
