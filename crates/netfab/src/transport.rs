//! `NetTransport` — the sockets under the shared post path.
//!
//! `unr_core::Transport`'s netfab implementor: what a put, a get, a
//! reliable sub-message, a control frame, a wait's park, registration,
//! the clock and teardown are on a socket mesh. It runs no thread: the
//! control path it shares with the receive side (`CtrlPath`) runs on
//! whichever thread reads a frame, and its retransmit sweep on
//! reactor 0. [`crate::engine`] builds it, in the closure it hands
//! `unr_core`'s one bring-up.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use unr_core::{
    CtrlFrame, Encoding, Epoch, PeerFailedCause, RmaOp, SeqPost, Transport, UnrError, Until, Woke,
};
use unr_simnet::{MemRegion, NicSel, Ns};

use crate::engine::CtrlPath;
use crate::fabric::NetFabric;

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
/// frame per reliable sub-message or aggregate, and a wall clock.
pub struct NetTransport {
    fabric: Arc<NetFabric>,
    ctrl: Arc<CtrlPath>,
    faults: NetFaults,
    /// Registered sub-messages posted (drop-injection cadence counter).
    sends: AtomicU64,
    /// Rotation cursor behind [`NicSel::Auto`].
    next_nic: AtomicUsize,
}

/// Wall-clock cap on a wait that has no deadline of its own: 30 s.
const WAIT_CAP: Ns = 30_000_000_000;

impl NetTransport {
    /// The transport over `fabric`, whose receive side `ctrl` is.
    pub(crate) fn new(
        fabric: Arc<NetFabric>,
        ctrl: Arc<CtrlPath>,
        faults: NetFaults,
    ) -> NetTransport {
        NetTransport {
            fabric,
            ctrl,
            faults,
            sends: AtomicU64::new(0),
            next_nic: AtomicUsize::new(0),
        }
    }

    pub(crate) fn fabric(&self) -> &Arc<NetFabric> {
        &self.fabric
    }

    #[cfg(test)]
    pub(crate) fn ctrl(&self) -> &CtrlPath {
        &self.ctrl
    }

    fn nic(&self, sel: NicSel) -> usize {
        let nic = match sel {
            NicSel::Index(i) => i,
            NicSel::Auto => self.next_nic.fetch_add(1, Ordering::Relaxed),
        };
        nic % self.fabric.nics()
    }

    /// Write `frame` to `dst` in this engine's epoch envelope — a shared
    /// one from where it lies. A dead socket is how a dead peer shows on
    /// this fabric.
    fn send_frame(&self, dst: usize, nic: NicSel, frame: CtrlFrame) -> Result<(), UnrError> {
        self.fabric
            .post_ctrl(dst, self.nic(nic), self.ctrl.epoch, frame)
            .map_err(|_| self.peer_failed(dst, PeerFailedCause::Killed))
    }

    /// The table holds the entry *before* this runs, so its ack cannot
    /// outrun it; the entry that ends "nothing unacked" wakes the
    /// reactor that runs the sweep, unless that reactor's timer is
    /// still armed — it then sweeps by a deadline no new entry's can
    /// precede, and finds every later entry by itself (see
    /// `CtrlPath::tick`). The frame is stamped once, here: netfab
    /// epochs are fixed per engine incarnation, so a retransmission
    /// legitimately resends this exact envelope. Fault injection drops
    /// first transmissions only.
    fn post_one(&self, post: SeqPost) -> Result<(), UnrError> {
        if post.first && !self.ctrl.timer_armed() {
            self.fabric.wake_timer();
        }
        let nth = self.sends.fetch_add(1, Ordering::Relaxed) + 1;
        let dropped = self
            .faults
            .drop_every
            .is_some_and(|n| n > 0 && nth.is_multiple_of(n));
        if dropped {
            self.fabric.met.drops_injected.inc();
            return Ok(());
        }
        self.send_frame(post.dst.rank, post.nic, post.frame)
    }

    /// Buffered-send local completion: the payload has been copied out
    /// of the region into its frame.
    fn apply_local(&self, custom: u128) {
        let n = Encoding::Full128.decode(custom);
        if n.key != 0 {
            self.ctrl.sink.apply_counted(n.key, n.addend);
            self.fabric.ring_bell();
        }
    }
}

impl Transport for NetTransport {
    fn register(&self, len: usize) -> MemRegion {
        self.fabric.register(len)
    }

    fn region(&self, id: u32) -> Option<&MemRegion> {
        self.fabric.region(id)
    }

    /// One `PUT` frame per stripe, each copied out of the region into
    /// its frame; the companion follows the last on its socket. A dead
    /// socket stops the loop and reports the stripes written before it.
    fn put(
        &self,
        stripes: &[RmaOp<'_>],
        mut companion: Option<Vec<u8>>,
    ) -> Result<(), (usize, UnrError)> {
        for (i, op) in stripes.iter().enumerate() {
            let dst = op.remote.rank;
            let nic = self.nic(op.nic);
            self.fabric
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
                .map_err(|_| (i, self.peer_failed(dst, PeerFailedCause::Killed)))?;
            if let Some(frame) = companion.take_if(|_| i + 1 == stripes.len()) {
                // Same socket, so behind the data.
                self.send_frame(dst, NicSel::Index(nic), CtrlFrame::Owned(frame))
                    .map_err(|e| (i + 1, e))?;
            }
            self.apply_local(op.custom_local);
        }
        Ok(())
    }

    fn get(&self, op: RmaOp<'_>) -> Result<(), UnrError> {
        let dst = op.remote.rank;
        self.fabric
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

    /// One `CTRL` frame per sub-message, in order, each through
    /// `post_one`; a dead socket stops the loop and reports the frames
    /// written before it.
    fn post_seq(&self, posts: Vec<SeqPost>) -> Result<(), (usize, UnrError)> {
        for (sent, post) in posts.into_iter().enumerate() {
            self.post_one(post).map_err(|e| (sent, e))?;
        }
        Ok(())
    }

    fn send_ctrl(&self, dst: usize, nic: NicSel, frame: Vec<u8>) -> Result<(), UnrError> {
        self.send_frame(dst, nic, CtrlFrame::Owned(frame))
    }

    fn charge(&self, _ns: Ns) {}

    fn complete(&self, entries: &[(usize, u64)], locals: &[(u64, i64)]) {
        let ctrl = &self.ctrl;
        if let (Some(retry), false) = (&ctrl.retry, entries.is_empty()) {
            // The sweep finds the deadlines itself.
            retry.arm(ctrl.now(), entries, |_| {});
        }
        let mut applied = false;
        for &(key, addend) in locals.iter().filter(|&&(key, _)| key != 0) {
            ctrl.sink.apply_counted(key, addend);
            applied = true;
        }
        if applied {
            self.fabric.ring_bell();
        }
    }

    fn peer_alive(&self, _dst: usize) -> bool {
        true
    }

    /// `unr.recovery.peer_failures` counts only in post-recovery worlds
    /// (epoch > 0), keeping epoch-0 metric snapshots unchanged.
    fn peer_failed(&self, rank: usize, cause: PeerFailedCause) -> UnrError {
        let epoch = self.ctrl.epoch;
        if epoch > 0 {
            self.fabric
                .obs
                .metrics
                .counter("unr.recovery.peer_failures")
                .inc();
        }
        UnrError::PeerFailed {
            rank,
            epoch: Epoch::new(epoch),
            cause,
        }
    }

    /// Fixed for the engine's lifetime: netfab rebuilds the engine per
    /// epoch.
    fn epoch(&self) -> Epoch {
        Epoch::new(self.ctrl.epoch)
    }

    /// Poll the rank's sockets on this thread until something arrives, a
    /// bell rings or the deadline (the wait's own, else the cap) passes,
    /// handling what arrives here, control messages included — then
    /// ring for it once unparked: another thread may wait on it.
    fn park(&self, until: &Until<'_>) -> Woke {
        let (ctrl, fabric) = (&self.ctrl, &self.fabric);
        // Sampled before the test, so a frame another thread applies in
        // between is not slept through.
        let seen = fabric.event_epoch();
        let now = ctrl.now();
        let deadline = until
            .deadline(Some(WAIT_CAP), |dt| now.saturating_add(dt))
            .unwrap_or(Ns::MAX);
        if now < deadline
            && !until.met(ctrl.retry.as_deref())
            && fabric.wait_progress(seen, Duration::from_nanos(deadline - now)) > 0
        {
            fabric.ring_bell();
        }
        if ctrl.now() >= deadline {
            Woke::Expired
        } else {
            Woke::Retest
        }
    }

    /// Nothing to do: the thread that reads a frame handles it, and
    /// reactor 0 retransmits what is due.
    fn progress_once(&self) -> usize {
        0
    }

    /// Close the fabric: nothing else runs beside the rank.
    fn shutdown(&self) {
        self.fabric.shutdown();
    }

    fn now(&self) -> Ns {
        self.ctrl.now()
    }

    /// Open-loop pacing needs sub-OS-quantum resolution: below 500 µs a
    /// yield loop against the wall deadline is the only way to keep an
    /// arrival schedule honest.
    fn sleep(&self, dt: Ns) {
        if dt >= 500_000 {
            std::thread::sleep(Duration::from_nanos(dt));
            return;
        }
        let deadline = self.now() + dt;
        while self.now() < deadline {
            std::thread::yield_now();
        }
    }
}

impl Drop for NetTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}
