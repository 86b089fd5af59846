//! The reactor pool's readiness poller and wake channels
//! ([`crate::reactor`]), and the crate's syscall FFI (DESIGN.md §5):
//! `poll(2)` and `setsockopt(2)` are declared and called here alone.

use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_ulong, c_void};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

#[cfg(doc)]
use crate::conn::FrameQueue;
use crate::reactor::ReactorMetrics;

// ---------------------------------------------------------------------
// Readiness poller
// ---------------------------------------------------------------------

/// One poll slot: `struct pollfd`, laid out as `poll(2)` reads it.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollSlot {
    /// Raw descriptor; -1 holds the place of a connection whose read
    /// side is closed, and `poll(2)` ignores it.
    pub fd: i32,
    /// Requested events (`POLL_IN` / `POLL_OUT`).
    pub events: i16,
    /// Returned events.
    pub revents: i16,
}

impl PollSlot {
    /// Something to read, or an error or hang-up a read will surface.
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLL_IN | POLL_ERR | POLL_HUP) != 0
    }
}

/// Readable readiness (`POLLIN`).
pub const POLL_IN: i16 = 0x001;
/// Writable readiness (POSIX `POLLOUT`).
pub const POLL_OUT: i16 = 0x004;
/// Error condition (always polled implicitly).
pub const POLL_ERR: i16 = 0x008;
/// Peer hangup (always polled implicitly).
pub const POLL_HUP: i16 = 0x010;

// The crate's syscall FFI (DESIGN.md §5, unsafe surface), declared here
// because the hermetic rule bans crates, not syscalls. Linux values.
extern "C" {
    fn poll(fds: *mut PollSlot, nfds: c_ulong, timeout: c_int) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: u32) -> c_int;
}

const SOL_SOCKET: c_int = 1;
const SO_SNDBUF: c_int = 7;

/// Ask for a `bytes`-byte send buffer on `stream` (`SO_SNDBUF`).
pub(crate) fn set_send_buf(stream: &UnixStream, bytes: usize) -> io::Result<()> {
    let bytes = bytes as c_int;
    let value: *const c_void = (&bytes as *const c_int).cast();
    let len = std::mem::size_of::<c_int>() as u32;
    // Safety: `value` points at `bytes`, alive for the whole call, and
    // `len` is its size; the descriptor is `stream`'s own.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_SNDBUF, value, len) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Block until a slot is ready or `timeout_ms` elapses; returns the
/// number of ready slots (0 on timeout).
pub fn poll_wait(slots: &mut [PollSlot], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // Safety: `slots` is a valid, exclusive `#[repr(C)]` pollfd
        // array for the duration of the call.
        let rc = unsafe { poll(slots.as_mut_ptr(), slots.len() as c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

// ---------------------------------------------------------------------
// Wake channel
// ---------------------------------------------------------------------

/// Producer side of a reactor's wake channel: a `socketpair(2)`
/// stream pair. `wake` writes one byte iff no wake is already pending,
/// so the channel holds at most one unread byte per poller pass.
///
/// No wake-up is lost. A producer publishes its work — a frame pushed
/// onto a [`FrameQueue`], published when the queue lock is released —
/// and *then* `pending.swap(true)`s. A reactor pass empties the channel
/// (`consume_wake`), *then* `pending.store(false)`s, and only then takes
/// each writer lock and drains the queue under the queue lock
/// ([`FrameQueue::drain_into`]). Take any pass and its drain of the
/// producer's connection:
///
/// * the drain locks the queue after the push: it sees the frame;
/// * the drain locks the queue before the push: the pass's
///   `store(false)` happens-before the producer's `swap` (program
///   order, then the queue lock handed from drain to push). By
///   coherence on `pending`, the swap reads that `false` and the
///   producer writes a byte, or it reads a later `true`, set by a swap
///   that read that `false` and wrote a byte. Either way the channel
///   holds a byte written after this pass emptied it, so the next poll
///   returns at once and the next pass meets the same two cases — until
///   one drains after the push, without waiting for the poll timeout.
///
/// A producer that found the socket full publishes `want_write` under
/// the writer lock instead; the same two cases hold with the writer
/// lock in place of the queue's.
pub struct WakeHandle {
    pub(crate) tx: UnixStream,
    pub(crate) pending: Arc<AtomicBool>,
}

impl WakeHandle {
    /// A fresh channel: the producer handle and the nonblocking read
    /// end its consumer polls.
    pub(crate) fn channel() -> io::Result<(WakeHandle, UnixStream)> {
        let (tx, rx) = wake_pair()?;
        let pending = Arc::new(AtomicBool::new(false));
        Ok((WakeHandle { tx, pending }, rx))
    }

    /// Consumer side: empty the channel `rx`, then re-arm the producers
    /// (see `consume_wake`). The caller looks for the announced work
    /// afterwards.
    pub(crate) fn consume(&self, rx: &UnixStream) {
        consume_wake(rx, &self.pending);
    }

    /// Nudge the reactor out of its poller (idempotent until consumed).
    /// Call *after* the work it announces is visible to the reactor.
    pub fn wake(&self, met: &ReactorMetrics) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            met.wakeups.inc();
            let _ = (&self.tx).write(&[1u8]);
        }
    }
}

/// Reactor side of the wake channel: swallow every byte in it, *then*
/// re-arm the producers. The order is the point (see [`WakeHandle`]):
/// clearing `pending` first would let a producer's fresh byte be eaten
/// by this same read loop, leaving `pending == true` over an empty
/// channel — every later wake skipped, every queued frame waiting for
/// the poll timeout. The caller drains the writer queues afterwards.
pub(crate) fn consume_wake(mut rx: impl Read, pending: &AtomicBool) {
    let mut sink = [0u8; 64];
    while let Ok(n) = rx.read(&mut sink) {
        if n == 0 {
            break;
        }
    }
    pending.store(false, Ordering::SeqCst);
}

/// The wake channel's connected stream pair `(tx, rx)`, `rx` nonblocking.
pub(crate) fn wake_pair() -> io::Result<(UnixStream, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

/// What the rank's waiting threads tell the reactors: two words, written
/// by [`Waiting::park`], read at the top of every reactor pass.
#[derive(Default)]
pub struct Waiting {
    /// Rank threads parked in a poll of the rank's sockets right now.
    parked: AtomicUsize,
    /// Parks ever begun: a reactor that finds this moved since its
    /// previous pass knows a thread waited in between, however briefly.
    pub(crate) entries: AtomicUsize,
}

impl Waiting {
    /// Publish that the calling thread is about to poll the rank's
    /// sockets itself, until the guard drops. SeqCst: the caller's next
    /// step is to re-read the epoch a ringer bumps before it looks at
    /// [`parked`](Self::parked).
    pub fn park(&self) -> Parked<'_> {
        self.entries.fetch_add(1, Ordering::SeqCst);
        self.parked.fetch_add(1, Ordering::SeqCst);
        Parked(self)
    }

    /// Threads parked right now.
    pub fn parked(&self) -> usize {
        self.parked.load(Ordering::SeqCst)
    }
}

/// A thread's [`Waiting::park`], ended on drop.
pub struct Parked<'a>(&'a Waiting);

impl Drop for Parked<'_> {
    fn drop(&mut self) {
        self.0.parked.fetch_sub(1, Ordering::SeqCst);
    }
}
