//! Transport backend selection and the wire-post seam.
//!
//! The UNR engine produces exactly two kinds of wire traffic: RMA puts
//! of (possibly shared) payload bytes with a companion control frame,
//! and standalone control frames ([`crate::wire`]) on the UNR control
//! port. [`Transport`] is that seam. The simnet [`Endpoint`] implements
//! it by forwarding to the simulated fabric — one call per method, in
//! the same order as before the trait existed, so the deterministic
//! schedule (and the golden traces locked in `tests/`) is untouched.
//!
//! It is the trait's only implementor. The `unr-netfab` crate does not
//! implement it yet: `NetUnr` is a second engine front-end with its own
//! post path and wait loop over real TCP sockets. What the two engines
//! share — one implementation each, in this crate — is everything
//! stateful above the wire: the MMAS signal table ([`crate::signal`]),
//! the small-message coalescer ([`crate::agg`]), the control wire
//! format ([`crate::wire`]), the retry table ([`crate::retry`]) and the
//! receive-side control handler ([`crate::ctrl`]).
//!
//! [`Backend`] is the user-facing switch: [`crate::UnrConfig`] carries
//! it, [`crate::Unr::init`] requires [`Backend::Simnet`], and
//! `unr-netfab`'s `NetUnr::init` requires [`Backend::Netfab`] — the
//! config object stays shared between the two front-ends.

use unr_simnet::{Bytes, Endpoint, FabricError, NicSel, RKey};

use crate::engine::UNR_PORT;

/// Which fabric backend a UNR context runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The deterministic in-process simulator (`unr-simnet`). Default:
    /// every test and golden trace runs here.
    #[default]
    Simnet,
    /// Real OS processes connected by TCP loopback sockets
    /// (`unr-netfab`): wall-clock time, real threads, real drops.
    Netfab,
}

impl Backend {
    /// Stable lowercase name (used in metrics and bench labels).
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Simnet => "simnet",
            Backend::Netfab => "netfab",
        }
    }
}

/// One wire-level RMA sub-message: payload bytes aimed at a remote
/// region, plus the control frame that rides along as its companion
/// (the sequenced delivery notification of the reliable transport).
#[derive(Debug, Clone)]
pub struct SubPut {
    /// Shared snapshot of the payload (refcounted — retransmissions
    /// alias it instead of copying).
    pub payload: Bytes,
    /// Destination region key.
    pub dst: RKey,
    /// Byte offset inside the destination region.
    pub dst_offset: usize,
    /// NIC index carrying this sub-message.
    pub nic: usize,
    /// Companion control frame delivered with the payload.
    pub companion: Vec<u8>,
}

/// The engine-facing transport surface: post payload, send control.
///
/// Implementations must be callable from both the application rank and
/// the polling agent (`Send + Sync`).
pub trait Transport: Send + Sync {
    /// Stable backend name for metrics/labels.
    fn transport_kind(&self) -> &'static str;

    /// Post one RMA sub-message with its companion control frame.
    fn post_put(&self, op: SubPut) -> Result<(), FabricError>;

    /// Send a standalone control frame to rank `dst` on the UNR
    /// control port.
    fn send_ctrl(&self, dst: usize, bytes: Vec<u8>, nic: NicSel);
}

impl Transport for Endpoint {
    fn transport_kind(&self) -> &'static str {
        Backend::Simnet.as_str()
    }

    fn post_put(&self, op: SubPut) -> Result<(), FabricError> {
        self.put_bytes(
            op.payload,
            op.dst,
            op.dst_offset,
            NicSel::Index(op.nic),
            Some((UNR_PORT, op.companion)),
        )
    }

    fn send_ctrl(&self, dst: usize, bytes: Vec<u8>, nic: NicSel) {
        self.send_dgram(dst, UNR_PORT, bytes, nic);
    }
}
