//! Transport backend selection and the seam under the post path.
//!
//! **Above the seam**, written once ([`crate::post`], generic over
//! [`Transport`] and monomorphised — no trait object anywhere):
//! validation ([`crate::Blk::check_pair`]), the small-message coalescer
//! ([`crate::agg`]), striping and the MMAS addends
//! ([`crate::signal::striped_addends`]), the per-channel custom-bit
//! encodings ([`crate::channel`]), the register-before-send rule of the
//! reliable transport ([`crate::retry`]), the control wire format
//! ([`crate::wire`]) and every `unr.*` engine counter.
//!
//! **Below it**, the leaf operations the interconnects really disagree
//! on: a native notified put and get of a *region range* (no snapshot
//! crosses the seam — a transport that builds a wire frame copies the
//! bytes out of the region once, into the frame), the first
//! transmission of a sub-message the retry table has just buffered,
//! a standalone control frame, a virtual-time host charge, local
//! completion plus deadline arming, and peer liveness.
//!
//! Two implementors:
//!
//! * [`crate::engine::SimTransport`] — the deterministic simulator:
//!   one `unr_simnet::Endpoint` call per method, in the order the
//!   golden traces in `tests/` lock. It owns what only a simulated rank
//!   has: the completion queue, the control port, the region map and
//!   the membership view.
//! * `unr_netfab::NetTransport` — real TCP sockets: `PUT`/`GET_REQ`
//!   frames for native operations, one `CTRL` frame per reliable
//!   sub-message or aggregate, a wall clock.
//!
//! **Still per fabric** (the next stages of ROADMAP item 4): the wait
//! loop (`sig_wait` family — scheduler park vs socket poll), the
//! progress driver (polling agent vs progress thread), `init`, and the
//! two atomic-add sinks.
//!
//! [`Backend`] is the user-facing switch: [`crate::UnrConfig`] carries
//! it, [`crate::Unr::init`] requires [`Backend::Simnet`], and
//! `unr-netfab`'s `NetUnr::init` requires [`Backend::Netfab`].

use std::borrow::Cow;

use unr_simnet::{Bytes, MemRegion, NicSel, Ns, RKey};

use crate::epoch::PeerFailedCause;
use crate::retry::Route;
use crate::UnrError;

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

/// One native notified RMA operation between a range of a region this
/// rank registered and a range of a remote one — a put writes local
/// into remote, a get reads remote into local.
pub struct RmaOp<'a> {
    /// The local region ([`Transport::region`] handed it out).
    pub local: &'a MemRegion,
    /// Byte offset inside the local region.
    pub local_offset: usize,
    /// Bytes to move.
    pub len: usize,
    /// The remote region.
    pub remote: RKey,
    /// Byte offset inside the remote region.
    pub remote_offset: usize,
    /// NIC carrying the operation.
    pub nic: NicSel,
    /// Custom bits of the local completion (0: no signal).
    pub custom_local: u128,
    /// Custom bits of the remote completion (0: no signal).
    pub custom_remote: u128,
    /// Whether software must deliver `custom_local` — false for a null
    /// signal and on a level-4 channel, whose hardware applies it.
    pub notify_local: bool,
    /// Whether a remote completion is wanted at all.
    pub notify_remote: bool,
}

/// The first transmission of a sub-message the retry table has just
/// registered ([`crate::RetryState::register_data`] /
/// [`crate::RetryState::register_agg`]).
pub struct SeqPost<'a> {
    /// How it was registered: [`Route::Rma`] posts `payload` as an RMA
    /// put with `frame` as its companion; [`Route::Dgram`] and
    /// [`Route::Agg`] send `frame`, which carries the bytes itself, on
    /// the control channel.
    pub route: Route,
    /// Destination region (an aggregate names only the rank).
    pub dst: RKey,
    /// Byte offset inside the destination region.
    pub dst_offset: usize,
    /// The buffered payload, shared with the replay buffer.
    pub payload: &'a Bytes,
    /// The announcing control frame ([`crate::Registered::frame`]).
    pub frame: Cow<'a, [u8]>,
    /// NIC carrying it.
    pub nic: NicSel,
    /// Whether the retry table was empty before this entry
    /// ([`crate::Registered::first`]).
    pub first: bool,
}

/// What the post path needs from an interconnect. See the module doc
/// for what is above and below this seam.
///
/// Every control frame handed to a transport is bare; the transport
/// stamps it with its own membership epoch ([`crate::ctrl::stamp`]).
/// Implementations are called from the application rank only.
pub trait Transport: Send + Sync {
    /// This rank.
    fn rank(&self) -> usize;

    /// World size.
    fn nranks(&self) -> usize;

    /// NICs per rank (the striping fan-out bound).
    fn nics(&self) -> usize;

    /// The region this rank registered under `id`.
    fn region(&self, id: u32) -> Option<MemRegion>;

    /// Native notified put. `companion`, if any, is a control frame
    /// delivered to the target after the data, in order (level 0).
    fn put(&self, op: RmaOp<'_>, companion: Option<Vec<u8>>) -> Result<(), UnrError>;

    /// Native notified get.
    fn get(&self, op: RmaOp<'_>) -> Result<(), UnrError>;

    /// The route reliable data sub-messages take on an RMA channel:
    /// [`Route::Rma`] where a put can carry a companion frame,
    /// [`Route::Dgram`] where the control channel carries the bytes.
    fn sub_route(&self) -> Route;

    /// First transmission of a registered sub-message (fault injection
    /// of first transmissions lives here; retransmissions and acks do
    /// not come this way). On `Err` the caller un-registers it.
    fn post_seq(&self, post: SeqPost<'_>) -> Result<(), UnrError>;

    /// Send a standalone, unsequenced control frame to rank `dst`.
    fn send_ctrl(&self, dst: usize, nic: NicSel, frame: Vec<u8>) -> Result<(), UnrError>;

    /// Charge `ns` of modelled host time (pack copies, per-message
    /// software overhead): the virtual clock advances; a wall clock has
    /// already paid.
    fn charge(&self, ns: Ns);

    /// Arm the retransmit deadlines of the `(dst, seq)` `entries` just
    /// posted and apply the `(key, addend)` local completions of a
    /// buffered send, as one step (one scheduler entry on simnet). Null
    /// keys are skipped; with nothing to do, nothing happens.
    fn complete(&self, entries: &[(usize, u64)], locals: &[(u64, i64)]);

    /// Whether rank `dst` is a live member of the world.
    fn peer_alive(&self, dst: usize) -> bool;

    /// The typed, counted error for a failed peer, naming the
    /// transport's current membership epoch.
    fn peer_failed(&self, rank: usize, cause: PeerFailedCause) -> UnrError;
}
