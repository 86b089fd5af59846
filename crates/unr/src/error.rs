//! The UNR error type.

use unr_simnet::{FabricError, Ns};

use crate::epoch::{Epoch, PeerFailedCause};
use crate::level::EncodeError;
use crate::signal::SignalError;

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
    /// A configuration rejected by [`crate::UnrConfig::validate`].
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
