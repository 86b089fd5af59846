//! One mesh stream of the reactor pool ([`crate::reactor`]): the
//! connection, its writer queue, and its read and write state machines.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::frame::{FrameAssembler, OutFrame, READ_CHUNK};
use crate::poll::set_send_buf;
use crate::reactor::{FrameDispatch, ReactorMetrics, SEND_BUF_BYTES};
#[cfg(doc)]
use crate::reactor::{ReactorPool, QUEUE_CAP_BYTES};

// ---------------------------------------------------------------------
// Writer queue
// ---------------------------------------------------------------------

/// A queue of encoded frames: any thread pushes, the holder of the
/// connection's writer lock drains. A mutex around a `VecDeque`, held
/// for one `push_back` or one `append` and never across a syscall, so
/// frames come out in push order — the FIFO guarantee the unreliable
/// path's "the stream delivers in order" assumption needs. Lock order:
/// reader ⊃ writer ⊃ queue.
#[derive(Default)]
pub struct FrameQueue {
    inner: Mutex<Queued>,
}

#[derive(Default)]
struct Queued {
    frames: VecDeque<OutFrame>,
    bytes: usize,
}

impl FrameQueue {
    /// An empty queue.
    pub fn new() -> FrameQueue {
        FrameQueue::default()
    }

    /// The queue, poisoned or not: every step under the lock leaves
    /// `frames` and `bytes` in agreement.
    fn lock(&self) -> MutexGuard<'_, Queued> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queued bytes.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Queued frames.
    pub fn frames(&self) -> usize {
        self.lock().frames.len()
    }

    /// Push one encoded frame; callable from any thread. Returns the
    /// bytes queued with it, so a poster learns the backlog from the
    /// lock it already takes.
    pub fn push(&self, frame: impl Into<OutFrame>) -> usize {
        let frame = frame.into();
        let mut q = self.lock();
        q.bytes += frame.len();
        q.frames.push_back(frame);
        q.bytes
    }

    /// Move everything to the back of `out`, oldest first. Returns the
    /// number of frames taken.
    pub fn drain_into(&self, out: &mut VecDeque<OutFrame>) -> usize {
        let mut q = self.lock();
        let n = q.frames.len();
        out.append(&mut q.frames);
        q.bytes = 0;
        n
    }
}

// ---------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------

/// One mesh stream in the registry: the nonblocking socket, its read
/// state machine, its writer queue and its write state machine. Reads
/// belong to whoever holds the reader lock, writes to whoever holds the
/// writer lock; a thread that needs both takes the reader lock first.
pub struct Conn {
    /// Remote rank.
    pub peer: usize,
    /// NIC (socket index) of this stream.
    pub nic: usize,
    /// Index of the owning reactor in the pool: the one that polls this
    /// stream when no rank thread does, and for writability always.
    pub reactor: usize,
    /// The nonblocking stream. Lock holders read and write; anyone may
    /// `close` it (safe concurrently — all are plain syscalls on the
    /// same descriptor).
    pub stream: UnixStream,
    /// Read side open (false after EOF or corruption). Written under
    /// the reader lock; read without it to build poll sets, so a stale
    /// `true` costs one empty read pass and nothing else.
    pub(crate) open_read: AtomicBool,
    /// The read state machine. Every socket read and every
    /// [`FrameAssembler::feed`] happens under this lock, whoever holds
    /// it, so per-connection frame order is byte order, and a frame one
    /// reader left half-assembled is finished by the next.
    pub(crate) reader: Mutex<Reader>,
    /// Encoded frames awaiting transmission, in the order they will
    /// reach the wire. Filled only by [`ReactorPool::post`], so every
    /// frame in it has someone who will write it.
    pub(crate) queue: FrameQueue,
    /// The write state machine. A plain mutex, `try_lock`ed by posters
    /// (who never wait for it) and `lock`ed by the reactor: every
    /// socket write and every [`FrameQueue::drain_into`] happens under
    /// it, so wire order is push order.
    pub(crate) writer: Mutex<Writer>,
}

impl Conn {
    /// Wrap an established stream: switches it to nonblocking and sets
    /// its send buffer to [`SEND_BUF_BYTES`].
    pub fn new(peer: usize, nic: usize, reactor: usize, stream: UnixStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        set_send_buf(&stream, SEND_BUF_BYTES)?;
        Ok(Conn {
            peer,
            nic,
            reactor,
            stream,
            open_read: AtomicBool::new(true),
            reader: Mutex::new(Reader {
                asm: FrameAssembler::new(),
                buf: vec![0u8; READ_CHUNK],
                feeding: false,
            }),
            queue: FrameQueue::new(),
            writer: Mutex::new(Writer {
                pending: VecDeque::new(),
                front_off: 0,
                want_write: false,
                open_write: true,
            }),
        })
    }

    /// Shut the stream down both ways: the peer reads EOF, reads here
    /// see EOF and writes fail. (`Shutdown`, `UnixStream::shutdown`'s
    /// argument, is all the crate takes from std's IP networking module.)
    pub(crate) fn close(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Bytes posted and not yet taken up for writing — what
    /// [`QUEUE_CAP_BYTES`] bounds.
    pub fn queued_bytes(&self) -> usize {
        self.queue.bytes()
    }

    /// Whether the read side is still open: no EOF, reset or corrupt
    /// prefix seen yet. May be a moment out of date.
    pub fn open_read(&self) -> bool {
        self.open_read.load(Ordering::SeqCst)
    }

    /// The writer lock, poisoned or not: a thread that panicked holding
    /// it left a state every step of which is valid (at worst a frame
    /// half written, which the next holder finishes).
    pub(crate) fn writer(&self) -> MutexGuard<'_, Writer> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `(queued + unwritten bytes, socket known full)`.
    #[cfg(test)]
    pub(crate) fn backlog(&self) -> (usize, bool) {
        let w = self.writer();
        let unwritten = w.pending.iter().map(OutFrame::len).sum::<usize>() - w.front_off;
        (self.queue.bytes() + unwritten, w.want_write)
    }
}

/// Per-connection read state machine, behind [`Conn`]'s reader lock.
pub(crate) struct Reader {
    /// Hands the dispatcher each frame that lies whole in `buf` where it
    /// lies, and assembles only one cut across reads.
    pub(crate) asm: FrameAssembler,
    /// Read scratch, [`READ_CHUNK`] bytes (zero pages until touched).
    pub(crate) buf: Vec<u8>,
    /// Set while `asm` is fed: still set when the lock is next taken,
    /// a dispatcher panicked with part of a read undelivered.
    pub(crate) feeding: bool,
}

/// Per-connection write state machine, behind [`Conn`]'s writer lock.
pub(crate) struct Writer {
    /// Frames taken from the queue (plus dispatcher replies), oldest
    /// first; front may be partially written.
    pub(crate) pending: VecDeque<OutFrame>,
    /// Bytes of `pending.front()` already on the wire.
    pub(crate) front_off: usize,
    /// Saw `WouldBlock` with bytes pending: the socket is full and the
    /// reactor polls for writability. Set only by a pass that is the
    /// reactor's own or that ends by waking it, and cleared only by a
    /// pass that wrote all it took — so a poster that sees it may leave
    /// its frame queued.
    pub(crate) want_write: bool,
    /// Write side open (false after a write error latched the conn).
    pub(crate) open_write: bool,
}

impl Writer {
    /// Write out `pending`, then take the queue once and write that,
    /// stopping early if the socket fills. The queue hands over its
    /// frames only when `pending` has been written out: while the
    /// socket is full they stay queued, where [`QUEUE_CAP_BYTES`]
    /// counts them.
    ///
    /// One drain is enough: whoever pushes a frame after it either
    /// takes this lock once it is let go and writes the frame itself,
    /// or finds it taken and wakes the reactor ([`ReactorPool::post`]),
    /// whose next pass drains it. A second, usually empty, drain here
    /// would only take the queue lock again.
    pub(crate) fn flush(
        &mut self,
        conn: &Conn,
        dispatch: &dyn FrameDispatch,
        met: &ReactorMetrics,
    ) {
        if !self.open_write {
            return;
        }
        self.service_write(conn, dispatch);
        if self.want_write || !self.open_write {
            return;
        }
        let taken = conn.queue.drain_into(&mut self.pending);
        if taken > 0 {
            met.queue_depth.record(taken as u64);
            self.service_write(conn, dispatch);
        }
    }

    /// Push pending frames until empty or `WouldBlock`; partial writes
    /// park in `front_off` and set `want_write`.
    fn service_write(&mut self, conn: &Conn, dispatch: &dyn FrameDispatch) {
        match self.write_pending(&mut &conn.stream) {
            Ok(()) => self.want_write = false,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.want_write = true,
            Err(_) => {
                // Peer gone. Outside teardown, latch the stream so
                // writers get clean errors; either way stop writing.
                if !dispatch.stopping() {
                    dispatch.on_corrupt(conn.peer, conn.nic);
                }
                conn.close();
                self.open_write = false;
                self.pending.clear();
                self.front_off = 0;
                self.want_write = false;
            }
        }
    }

    /// Write pending frames to `w` until none is left or a write fails
    /// (`WouldBlock` included); a frame cut anywhere — inside a split
    /// frame's head or its body alike — resumes at `front_off`.
    pub(crate) fn write_pending(&mut self, w: &mut impl Write) -> io::Result<()> {
        while let Some(front) = self.pending.front() {
            match front.write_from(w, self.front_off) {
                Ok(n) => {
                    self.front_off += n;
                    if self.front_off >= front.len() {
                        self.pending.pop_front();
                        self.front_off = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}
