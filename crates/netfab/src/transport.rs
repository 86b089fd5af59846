//! `NetTransport` — the sockets under the shared post path.
//!
//! `unr_core::Transport`'s netfab implementor: what a put, a get, a
//! reliable sub-message and a control frame are on a TCP mesh, and
//! nothing else. [`crate::engine`] builds it and keeps what is not a
//! leaf operation of the post path — bring-up, the wait loop, the
//! progress thread.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use unr_core::ctrl;
use unr_core::{
    Encoding, Epoch, PeerFailedCause, RmaOp, Route, SeqPost, Transport, UnrError,
};
use unr_simnet::{MemRegion, NicSel, Ns};

use crate::engine::CtrlPath;

/// Fault injection for the netfab transport: deterministic sender-side
/// drops of *first transmissions* (retransmissions always go out), so a
/// reliable-mode storm is guaranteed to exercise the replay path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetFaults {
    /// Silently drop every `n`-th first transmission of a reliable
    /// data message. `None`: no drops.
    pub drop_every: Option<u64>,
}

impl NetFaults {
    /// Whether any fault injection is enabled.
    pub fn any(&self) -> bool {
        self.drop_every.is_some()
    }
}

/// The sockets under the post path — [`Transport`]'s netfab
/// implementor: `PUT`/`GET_REQ` frames for native operations, one `CTRL`
/// frame per reliable sub-message or aggregate, a wall clock.
pub struct NetTransport {
    ctrl: Arc<CtrlPath>,
    faults: NetFaults,
    /// Registered sub-messages posted (drop-injection cadence counter).
    sends: AtomicU64,
    /// Rotation cursor behind [`NicSel::Auto`].
    next_nic: AtomicUsize,
}

impl NetTransport {
    pub(crate) fn new(ctrl: Arc<CtrlPath>, faults: NetFaults) -> NetTransport {
        NetTransport {
            ctrl,
            faults,
            sends: AtomicU64::new(0),
            next_nic: AtomicUsize::new(0),
        }
    }

    pub(crate) fn ctrl(&self) -> &CtrlPath {
        &self.ctrl
    }

    fn nic(&self, sel: NicSel) -> usize {
        let nic = match sel {
            NicSel::Index(i) => i,
            NicSel::Auto => self.next_nic.fetch_add(1, Ordering::Relaxed),
        };
        nic % self.ctrl.fabric.nics()
    }

    /// Stamp `frame` with this engine's epoch and write it to `dst`. A
    /// dead socket is how a dead peer shows on this fabric.
    fn send_frame(&self, dst: usize, nic: NicSel, frame: &[u8]) -> Result<(), UnrError> {
        let ctrl = &self.ctrl;
        ctrl.fabric
            .send_ctrl(dst, self.nic(nic), &ctrl::stamp(ctrl.epoch, frame))
            .map_err(|_| self.peer_failed(dst, PeerFailedCause::Killed))
    }

    /// Buffered-send local completion: the payload has been copied out
    /// of the region into its frame.
    fn apply_local(&self, custom: u128) {
        let n = Encoding::Full128.decode(custom);
        if n.key != 0 {
            self.ctrl.table.apply_counted(n.key, n.addend);
            self.ctrl.fabric.ring_bell();
        }
    }
}

impl Transport for NetTransport {
    fn rank(&self) -> usize {
        self.ctrl.fabric.rank()
    }

    fn nranks(&self) -> usize {
        self.ctrl.fabric.nranks()
    }

    fn nics(&self) -> usize {
        self.ctrl.fabric.nics()
    }

    fn region(&self, id: u32) -> Option<MemRegion> {
        self.ctrl.fabric.region(id).map(|r| r.mem().clone())
    }

    fn put(&self, op: RmaOp<'_>, companion: Option<Vec<u8>>) -> Result<(), UnrError> {
        let dst = op.remote.rank;
        let nic = self.nic(op.nic);
        self.ctrl
            .fabric
            .put(
                dst,
                nic,
                op.remote.id,
                op.remote_offset as u64,
                op.custom_remote,
                op.local,
                op.local_offset,
                op.len,
            )
            .map_err(|_| self.peer_failed(dst, PeerFailedCause::Killed))?;
        if let Some(frame) = companion {
            // Same socket, so behind the data.
            self.send_frame(dst, NicSel::Index(nic), &frame)?;
        }
        self.apply_local(op.custom_local);
        Ok(())
    }

    fn get(&self, op: RmaOp<'_>) -> Result<(), UnrError> {
        let dst = op.remote.rank;
        self.ctrl
            .fabric
            .get(
                dst,
                self.nic(op.nic),
                op.remote.id,
                op.remote_offset as u64,
                op.len as u64,
                op.custom_remote,
                op.local.rkey.id,
                op.local_offset as u64,
                op.custom_local,
            )
            .map_err(|_| self.peer_failed(dst, PeerFailedCause::Killed))
    }

    fn sub_route(&self) -> Route {
        Route::Dgram
    }

    /// The table holds the entry *before* this runs, so its ack cannot
    /// outrun it; the entry that ends "nothing unacked" rings the
    /// progress thread — which sleeps without a deadline until then —
    /// awake to start watching (later ones it finds by itself, see
    /// `CtrlPath::sweep`). The frame is stamped once, here: netfab
    /// epochs are fixed per engine incarnation, so a retransmission
    /// legitimately resends this exact envelope. Fault injection drops
    /// first transmissions only.
    fn post_seq(&self, post: SeqPost<'_>) -> Result<(), UnrError> {
        if post.first {
            self.ctrl.fabric.ring_ctrl();
        }
        let nth = self.sends.fetch_add(1, Ordering::Relaxed) + 1;
        let dropped = self
            .faults
            .drop_every
            .is_some_and(|n| n > 0 && nth.is_multiple_of(n));
        if dropped {
            self.ctrl.fabric.met.drops_injected.inc();
            return Ok(());
        }
        self.send_frame(post.dst.rank, post.nic, &post.frame)
    }

    fn send_ctrl(&self, dst: usize, nic: NicSel, frame: Vec<u8>) -> Result<(), UnrError> {
        self.send_frame(dst, nic, &frame)
    }

    fn charge(&self, _ns: Ns) {}

    fn complete(&self, entries: &[(usize, u64)], locals: &[(u64, i64)]) {
        let ctrl = &self.ctrl;
        if let (Some(retry), false) = (&ctrl.retry, entries.is_empty()) {
            retry.arm(ctrl.now(), entries);
        }
        let mut applied = false;
        for &(key, addend) in locals.iter().filter(|&&(key, _)| key != 0) {
            ctrl.table.apply_counted(key, addend);
            applied = true;
        }
        if applied {
            ctrl.fabric.ring_bell();
        }
    }

    fn peer_alive(&self, _dst: usize) -> bool {
        true
    }

    /// `unr.recovery.peer_failures` counts only in post-recovery worlds
    /// (epoch > 0), keeping epoch-0 metric snapshots unchanged.
    fn peer_failed(&self, rank: usize, cause: PeerFailedCause) -> UnrError {
        let ctrl = &self.ctrl;
        if ctrl.epoch > 0 {
            ctrl.fabric
                .obs
                .metrics
                .counter("unr.recovery.peer_failures")
                .inc();
        }
        UnrError::PeerFailed {
            rank,
            epoch: Epoch::new(ctrl.epoch),
            cause,
        }
    }
}
