//! The seam under the engine: what a fabric must provide.
//!
//! **Above the seam**, written once ([`crate::post`], generic over
//! [`Transport`] and monomorphised — no trait object anywhere):
//! bring-up ([`crate::Unr::bring_up`]: validation, reliability, the retry
//! policy, the signal table), validation ([`crate::Blk::check_pair`]),
//! the small-message coalescer ([`crate::agg`]), striping and the MMAS
//! addends ([`crate::signal::striped_addends`]), the per-channel
//! custom-bit encodings ([`crate::channel`]), the register-before-send
//! rule of the reliable transport ([`crate::retry`]), the control wire
//! format ([`crate::wire`]), epoch, checkpoint and restore, and every
//! `unr.*` engine counter.
//!
//! **Below it**, the leaf operations the interconnects really disagree
//! on: a native notified put of the stripes of one message and a get,
//! each of a *region range* (no snapshot crosses the seam — a transport
//! that builds a wire frame copies the bytes out of the region once,
//! into the frame), the first transmission of the sub-messages of one
//! message, which the retry table has all buffered before the call,
//! a standalone control frame, a virtual-time host charge, local
//! completion plus deadline arming, peer liveness, the membership
//! epoch, the one park a wait needs ([`crate::wait`] writes the
//! `sig_wait` family over it), and the rank-level calls `Unr` writes
//! once over them: registration, one progress pass, shutdown and the
//! clock. Sixteen methods; the three that only the simulator fills in
//! ([`Transport::charge`], [`Transport::peer_alive`],
//! [`Transport::progress_once`]) say on each why sockets need nothing
//! there.
//!
//! Two implementors:
//!
//! * [`crate::sim::SimTransport`] — the deterministic simulator:
//!   one `unr_simnet::Endpoint` call per method, in the order the
//!   golden traces in `tests/` lock. A message's stripes are one call
//!   and one scheduler entry: the first stripe in the rank's own entry,
//!   the rest as that entry's train, each one post overhead later
//!   (`unr_simnet::ActorHandle::post_train`); the raw route's stripes
//!   slice one snapshot of the block, and its put returns once the
//!   train has run (`unr_simnet::ActorHandle::wait_train`). It owns what only a simulated rank
//!   has: the completion queue, the control port, the membership view
//!   and the polling agent; regions are the fabric's own. Its park is a
//!   scheduler wait; its clock is virtual.
//! * `unr_netfab::NetTransport` — real Unix-domain sockets: `PUT`/`GET_REQ`
//!   frames for native operations, one `CTRL` frame per reliable
//!   sub-message or aggregate, a wall clock, and no thread: the thread
//!   that reads a frame handles it, and a reactor runs the retransmit
//!   sweep. Its park polls the rank's sockets and reads them on the
//!   waiting thread.
//!
//! What each fabric writes for itself is the facts bring-up takes
//! ([`crate::post::FabricFacts`]: rank, world size, NICs, the route of
//! reliable sub-messages, the retry clock's floors), its metrics
//! registry, and the closure that builds its transport from the
//! finished core — `Unr::init` (simnet) and `NetUnr::init` (netfab).
//! The core keeps the facts and the registry, so no method here
//! restates them. The transport you build fixes the fabric; [`Backend`]
//! is an inert leftover.

use std::ops::Deref;

use unr_simnet::{Bytes, MemRegion, NicSel, Ns, RKey};

use crate::epoch::{Epoch, PeerFailedCause};
use crate::retry::Route;
use crate::wait::{Until, Woke};
use crate::UnrError;

/// Inert: which fabric a context runs on is fixed by the transport it
/// is built on. Kept, with [`crate::UnrConfigBuilder::backend`], only
/// because the pinned benchmark (`benchmark/`) still names it; both go
/// when that benchmark next changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The deterministic in-process simulator (`unr-simnet`).
    #[default]
    Simnet,
    /// Real OS processes connected by Unix-domain sockets
    /// (`unr-netfab`).
    Netfab,
}

/// One native notified RMA operation between a range of a region this
/// rank registered and a range of a remote one — a put writes local
/// into remote, a get reads remote into local.
pub struct RmaOp<'a> {
    /// The local region ([`Transport::region`] lent it).
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
    /// Custom bits of the local completion (0: no signal — a null
    /// signal encodes to 0 and a real one never does).
    pub custom_local: u128,
    /// Custom bits of the remote completion (0: no signal).
    pub custom_remote: u128,
}

/// The first transmission of a sub-message the retry table has just
/// registered ([`crate::RetryState::register_data`] /
/// [`crate::RetryState::register_agg`]).
pub struct SeqPost {
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
    pub payload: Bytes,
    /// The announcing control frame ([`crate::Registered::frame`]).
    pub frame: CtrlFrame,
    /// NIC carrying it.
    pub nic: NicSel,
    /// Whether the retry table was empty before this entry
    /// ([`crate::Registered::first`]).
    pub first: bool,
}

/// A bare control frame on its way to the wire: built for one send, or
/// the [`crate::wire::MSG_AGG`] frame the retry table keeps, which the
/// first transmission and every retransmission send as it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlFrame {
    /// Built for this send alone.
    Owned(Vec<u8>),
    /// Shared with the replay buffer: a refcount, not a copy. A
    /// transport that can write it from where it is does.
    Shared(Bytes),
}

impl CtrlFrame {
    /// The frame as an owned `Vec` — a copy only of a shared frame.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            CtrlFrame::Owned(v) => v,
            CtrlFrame::Shared(b) => b.to_vec(),
        }
    }
}

impl Deref for CtrlFrame {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            CtrlFrame::Owned(v) => v,
            CtrlFrame::Shared(b) => b,
        }
    }
}

/// What the post path needs from an interconnect. See the module doc
/// for what is above and below this seam.
///
/// Every control frame handed to a transport is bare; the transport
/// stamps it with its own membership epoch ([`crate::ctrl::stamp`]).
/// Implementations are called from the application rank only.
pub trait Transport: Send + Sync {
    /// Register `len` bytes for RMA under a fresh region id.
    fn register(&self, len: usize) -> MemRegion;

    /// The region this rank registered under `id`, lent: resolving it
    /// takes no lock and clones nothing.
    fn region(&self, id: u32) -> Option<&MemRegion>;

    /// Native notified put of one message: its `stripes`, which read
    /// one local region and tile one range of it, in order. `companion`,
    /// if any, is a control frame delivered to the target after the
    /// last stripe's data, in order (level 0). On `Err((sent, e))` the
    /// first `sent` stripes are on the wire. On simnet the put has
    /// left, every stripe, when this returns.
    fn put(
        &self,
        stripes: &[RmaOp<'_>],
        companion: Option<Vec<u8>>,
    ) -> Result<(), (usize, UnrError)>;

    /// Native notified get.
    fn get(&self, op: RmaOp<'_>) -> Result<(), UnrError>;

    /// First transmission of the registered sub-messages of one message,
    /// in order (fault injection of first transmissions lives here;
    /// retransmissions and acks do not come this way). Every one is in
    /// the retry table before the call. On `Err((sent, e))` the first
    /// `sent` are on the wire and the caller un-registers the rest.
    fn post_seq(&self, posts: Vec<SeqPost>) -> Result<(), (usize, UnrError)>;

    /// Send a standalone, unsequenced control frame to rank `dst`.
    fn send_ctrl(&self, dst: usize, nic: NicSel, frame: Vec<u8>) -> Result<(), UnrError>;

    /// Charge `ns` of modelled host time (pack copies, per-message
    /// software overhead): the virtual clock advances. A no-op on a
    /// wall clock, which has already paid.
    fn charge(&self, ns: Ns);

    /// Arm the retransmit deadlines of the `(dst, seq)` `entries` just
    /// posted and apply the `(key, addend)` local completions of a
    /// buffered send, as one step. On simnet that is one scheduler entry
    /// of the rank's own, after the train of the post before it: the
    /// entry waits for the last stripe, so the deadlines are armed (and
    /// the next put registers) only once every stripe has left. Null
    /// keys are skipped; with nothing to do, nothing happens.
    fn complete(&self, entries: &[(usize, u64)], locals: &[(u64, i64)]);

    /// Whether rank `dst` is a live member of the world. Always `true`
    /// on real sockets, where a dead peer shows up as a failed write.
    fn peer_alive(&self, dst: usize) -> bool;

    /// The typed, counted error for a failed peer, naming the
    /// transport's current membership epoch.
    fn peer_failed(&self, rank: usize, cause: PeerFailedCause) -> UnrError;

    /// The current membership epoch ([`Epoch::ZERO`] until a rank has
    /// died).
    fn epoch(&self) -> Epoch;

    /// Block a waiting rank until `until` may be over — [`Until::met`]
    /// holds, the deadline [`Until::deadline`] resolves to has passed,
    /// or this transport sees a dead peer — driving whatever progress
    /// the fabric needs meanwhile. It may return early: the caller tests
    /// the wait and parks again.
    fn park(&self, until: &Until<'_>) -> Woke;

    /// One progress pass on the calling thread; returns the events it
    /// handled. Always 0 on real sockets, where whoever reads a frame
    /// handles it.
    fn progress_once(&self) -> usize;

    /// Stop whatever runs beside the rank — a polling agent, the
    /// sockets. Idempotent; dropping the transport does the same.
    fn shutdown(&self);

    /// Now, in nanoseconds on this transport's clock: virtual on the
    /// simulator, wall since bring-up on real sockets.
    fn now(&self) -> Ns;

    /// Let `dt` nanoseconds pass on this transport's clock.
    fn sleep(&self, dt: Ns);
}
