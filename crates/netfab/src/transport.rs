//! `NetTransport` — the sockets under the shared post path.
//!
//! `unr_core::Transport`'s netfab implementor: what a put, a get, a
//! reliable sub-message, a control frame, a wait's park, registration,
//! the clock and teardown are on a TCP mesh. It owns the progress
//! thread that runs the control path beside the rank. [`crate::engine`]
//! builds it (bring-up is all the seam does not cover).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use unr_core::ctrl;
use unr_core::{
    Encoding, Epoch, PeerFailedCause, RmaOp, Route, SeqPost, Transport, UnrError, Until, Woke,
};
use unr_obs::Obs;
use unr_simnet::sync::Mutex;
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
/// frame per reliable sub-message or aggregate, a wall clock, and the
/// progress thread.
pub struct NetTransport {
    ctrl: Arc<CtrlPath>,
    faults: NetFaults,
    /// Registered sub-messages posted (drop-injection cadence counter).
    sends: AtomicU64,
    /// Rotation cursor behind [`NicSel::Auto`].
    next_nic: AtomicUsize,
    /// Wall-clock cap on a wait that has no deadline of its own, in ns.
    wait_cap: Ns,
    /// Tells the progress thread to return.
    stop: Arc<AtomicBool>,
    /// The progress thread — `None` under pure hardware progress, and
    /// once stopped.
    pub(crate) progress: Mutex<Option<JoinHandle<()>>>,
}

impl NetTransport {
    /// The transport over `ctrl`, with a progress thread named
    /// `progress` running it, if any.
    pub(crate) fn new(
        ctrl: Arc<CtrlPath>,
        faults: NetFaults,
        wait_cap: Ns,
        progress: Option<String>,
    ) -> NetTransport {
        let stop = Arc::new(AtomicBool::new(false));
        let progress = progress.map(|name| {
            let (ctrl, stop) = (Arc::clone(&ctrl), Arc::clone(&stop));
            std::thread::Builder::new()
                .name(name)
                .spawn(move || ctrl.run(&stop))
                .expect("spawn progress thread")
        });
        NetTransport {
            ctrl,
            faults,
            sends: AtomicU64::new(0),
            next_nic: AtomicUsize::new(0),
            wait_cap,
            stop,
            progress: Mutex::new(progress),
        }
    }

    /// Stop and join the progress thread (idempotent); the sockets stay
    /// up until [`Transport::shutdown`].
    pub(crate) fn stop_progress(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.ctrl.fabric.ring_ctrl();
        if let Some(h) = self.progress.lock().take() {
            let _ = h.join();
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
            self.ctrl.sink.apply_counted(n.key, n.addend);
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

    fn register(&self, len: usize) -> MemRegion {
        self.ctrl.fabric.register(len).1.mem().clone()
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
            ctrl.sink.apply_counted(key, addend);
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

    /// Poll the rank's sockets on this thread until something arrives, a
    /// bell rings or the deadline (the wait's own, else the cap) passes,
    /// applying what arrives and handling its control messages here —
    /// then ring for it once unparked: another thread may wait on it.
    fn park(&self, until: &Until<'_>) -> Woke {
        let ctrl = &self.ctrl;
        let fabric = &ctrl.fabric;
        // Sampled before the test, so a frame another thread applies in
        // between is not slept through.
        let seen = fabric.event_epoch();
        let now = ctrl.now();
        let deadline = until
            .deadline(Some(self.wait_cap), |dt| now.saturating_add(dt))
            .unwrap_or(Ns::MAX);
        if now < deadline && !until.met(ctrl.retry.as_deref()) {
            let reads = fabric.wait_progress(seen, Duration::from_nanos(deadline - now));
            if reads.queued > 0 {
                ctrl.drain();
            }
            if reads.applied + reads.queued > 0 {
                fabric.ring_bell();
            }
        }
        if ctrl.now() >= deadline {
            Woke::Expired
        } else {
            Woke::Retest
        }
    }

    /// Nothing to do: the thread that reads a frame applies it, and the
    /// progress thread handles the control messages no waiter read.
    fn progress_once(&self) -> usize {
        0
    }

    /// Stop the progress thread, then close the fabric.
    fn shutdown(&self) {
        self.stop_progress();
        self.ctrl.fabric.shutdown();
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

    fn obs(&self) -> &Obs {
        &self.ctrl.fabric.obs
    }
}

impl Drop for NetTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}
