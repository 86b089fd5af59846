//! The reactor pool: a fixed set of event-loop threads that own every
//! socket in the mesh.
//!
//! The first netfab design spawned one blocking reader thread per
//! `(peer, nic)` stream and serialized writers behind a per-stream
//! mutex. That is `2 × (nranks − 1) × nics` threads per process — fine
//! at 4×2, fatal at 64×2 (126 reader threads each, 8064 across the
//! world, all contending for one scheduler). This module replaces it
//! with the classic reactor shape:
//!
//! * every mesh stream is switched to **nonblocking** after the
//!   `HELLO` handshake and registered with exactly one reactor thread
//!   (`(peer × nics + nic) % nreactors` — a static registry, no
//!   rebalancing);
//! * each reactor blocks in a readiness poller (`poll(2)` via a local
//!   FFI declaration on Unix — the hermetic rule bans external
//!   *crates*, not syscalls — with a portable park-and-scan fallback
//!   elsewhere) over its streams plus one **wake channel**;
//! * reads feed a per-connection [`FrameAssembler`] that reassembles
//!   length-prefixed frames across arbitrary partial reads, behind a
//!   per-connection reader lock. **Whoever waits reads**: a rank thread
//!   with nothing to do but wait polls the rank's sockets itself
//!   ([`ReactorPool::wait_readable`]) and reads and dispatches on its
//!   own thread, so nothing has to wake it; the owning reactor keeps
//!   read interest only while no rank thread waits (the yield and
//!   look-again rule is on `reactor_loop`);
//! * sends push onto a per-connection lock-free [`FrameQueue`] (a
//!   Treiber stack reversed on consume, so completion order equals push
//!   order) and are put on the wire by a per-connection write state
//!   machine that survives partial writes. **Whoever finds that writer
//!   idle writes**: the posting thread itself when it can take the
//!   writer lock and the socket is not known to be full
//!   ([`ReactorPool::post`]), the owning reactor otherwise — after a
//!   `WouldBlock` (it polls for writability), or when a poster found
//!   another thread writing and handed its frame over with a wake.
//!
//! The pool size is fixed at construction (default
//! [`DEFAULT_REACTORS`], env `UNR_NETFAB_REACTORS`), so the thread
//! budget is **flat in world size**: `main + progress + nreactors`
//! threads per process whether the world has 4 ranks or 64 — a waiting
//! rank thread that reads is a thread the rank already had.
//!
//! The reactor knows nothing about regions, signals or the reliable
//! protocol: inbound frames are handed to a [`FrameDispatch`]
//! implemented by the fabric, which may return already-encoded reply
//! frames (GET replies) that the reader appends to the same
//! connection's write state — replies bypass the backpressure cap
//! because a reader cannot wait on a backlog it may itself be
//! responsible for draining.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::Duration;

use unr_obs::metrics::{Counter, Gauge, Histogram};
use unr_obs::Obs;

use crate::frame::{Frame, FrameAssembler};

/// Default reactor threads per process (env `UNR_NETFAB_REACTORS`).
pub const DEFAULT_REACTORS: usize = 2;

/// Per-connection writer-queue cap in bytes; producers stall (counted
/// in `unr.transport.reactor.backpressure_stalls`) above this. The
/// queue is the backlog — nothing leaves it while the socket is full
/// (see `Writer::flush`) — so this bounds what a peer that stops
/// reading can make this process hold.
pub const QUEUE_CAP_BYTES: usize = 8 * 1024 * 1024;

/// Read scratch per connection per read pass — also the fairness
/// bound: one connection cannot starve its siblings for longer than one
/// buffer fill.
const READ_CHUNK: usize = 256 * 1024;

/// Poller timeout; the wake channel makes wakeups instant, this only
/// bounds how long a reactor can miss a `stopping` flag — and is what a
/// lost wake-up would cost, which is how tests recognise one.
pub const POLL_TIMEOUT_MS: i32 = 250;

/// Poller timeout of a reactor that has yielded its read interest to
/// waiting rank threads: how soon it looks again, so the longest an
/// arrival can sit unread after the last wait. The same 1 ms the
/// waiters themselves poll with.
pub const YIELD_POLL_MS: i32 = 1;

/// `unr.transport.reactor.*` instruments.
#[derive(Clone)]
pub struct ReactorMetrics {
    /// Reactor threads in the pool (a gauge: constant per process, the
    /// flat-in-world-size claim made observable).
    pub threads: Arc<Gauge>,
    /// Ready descriptors per reactor poller return (batch size; a
    /// waiting rank thread's poll is not a reactor batch).
    pub poll_batch: Arc<Histogram>,
    /// Frames taken per non-empty writer-queue drain (queue depth seen
    /// by whoever writes: a posting thread or the reactor).
    pub queue_depth: Arc<Histogram>,
    /// Reads that ended (`WouldBlock`) with a frame still mid-assembly.
    pub partial_reads: Arc<Counter>,
    /// Producer stalls on a full writer queue.
    pub backpressure_stalls: Arc<Counter>,
    /// Wake bytes written: to reactor wake channels (posts that could
    /// not finish on the posting thread, teardown) and to the fabric's
    /// event wake channel (a ring that found a rank thread parked).
    pub wakeups: Arc<Counter>,
    /// Read passes that consumed at least one byte, run by a waiting
    /// rank thread ([`ReactorPool::wait_readable`]).
    pub reads_by_waiter: Arc<Counter>,
    /// Read passes that consumed at least one byte, run by a reactor.
    pub reads_by_reactor: Arc<Counter>,
}

impl ReactorMetrics {
    /// Register all `unr.transport.reactor.*` instruments in `obs`.
    pub fn register(obs: &Obs) -> ReactorMetrics {
        ReactorMetrics {
            threads: obs.metrics.gauge("unr.transport.reactor.threads"),
            poll_batch: obs.metrics.histogram("unr.transport.reactor.poll_batch"),
            queue_depth: obs.metrics.histogram("unr.transport.reactor.queue_depth"),
            partial_reads: obs.metrics.counter("unr.transport.reactor.partial_reads"),
            backpressure_stalls: obs.metrics.counter("unr.transport.reactor.backpressure_stalls"),
            wakeups: obs.metrics.counter("unr.transport.reactor.wakeups"),
            reads_by_waiter: obs.metrics.counter("unr.transport.reactor.reads_by_waiter"),
            reads_by_reactor: obs.metrics.counter("unr.transport.reactor.reads_by_reactor"),
        }
    }
}

// ---------------------------------------------------------------------
// Lock-free writer queue
// ---------------------------------------------------------------------

struct Node {
    frame: Vec<u8>,
    next: *mut Node,
}

/// A lock-free MPSC queue of encoded frames: any thread pushes, the
/// holder of the connection's writer lock drains. Implemented as a
/// Treiber stack (CAS push onto an atomic head); the single consumer
/// detaches the whole stack and reverses it, so frames come out in
/// push-linearization order — the FIFO guarantee the unreliable path's
/// "TCP delivers in order" assumption needs.
pub struct FrameQueue {
    head: AtomicPtr<Node>,
    bytes: AtomicUsize,
    frames: AtomicUsize,
}

impl Default for FrameQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameQueue {
    /// An empty queue.
    pub fn new() -> FrameQueue {
        FrameQueue {
            head: AtomicPtr::new(std::ptr::null_mut()),
            bytes: AtomicUsize::new(0),
            frames: AtomicUsize::new(0),
        }
    }

    /// Queued bytes (approximate during concurrent pushes; the byte
    /// count is added *before* the frame becomes visible, so it never
    /// under-reports — backpressure errs conservative).
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Queued frames (same conservative accounting as [`bytes`](Self::bytes)).
    pub fn frames(&self) -> usize {
        self.frames.load(Ordering::Relaxed)
    }

    /// Push one encoded frame; lock-free, callable from any thread.
    pub fn push(&self, frame: Vec<u8>) {
        // Account before publish so the consumer's subtraction can never
        // underflow past a concurrent push.
        self.bytes.fetch_add(frame.len(), Ordering::Relaxed);
        self.frames.fetch_add(1, Ordering::Relaxed);
        let node = Box::into_raw(Box::new(Node {
            frame,
            next: std::ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // Safety: `node` came from Box::into_raw above and is not
            // yet shared; writing its `next` is exclusive.
            unsafe { (*node).next = head };
            // SeqCst (not just Release): the publish takes part in the
            // wake channel's no-lost-wake-up argument, which orders it
            // against `WakeHandle::pending` (see [`WakeHandle`]).
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::SeqCst, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    /// Detach everything and append it to `out` oldest-first. Single
    /// consumer only. Returns the number of frames taken.
    pub fn drain_into(&self, out: &mut VecDeque<Vec<u8>>) -> usize {
        // SeqCst for the same reason as the publish in `push`.
        let mut p = self.head.swap(std::ptr::null_mut(), Ordering::SeqCst);
        if p.is_null() {
            return 0;
        }
        // The stack is newest-first; collect then reverse for FIFO.
        let mut batch = Vec::new();
        while !p.is_null() {
            // Safety: the swap above made this thread the unique owner
            // of the detached list; every node was Box-allocated.
            let node = unsafe { Box::from_raw(p) };
            p = node.next;
            batch.push(node.frame);
        }
        let n = batch.len();
        for f in batch.into_iter().rev() {
            self.bytes.fetch_sub(f.len(), Ordering::Relaxed);
            self.frames.fetch_sub(1, Ordering::Relaxed);
            out.push_back(f);
        }
        n
    }
}

impl Drop for FrameQueue {
    fn drop(&mut self) {
        let mut sink = VecDeque::new();
        self.drain_into(&mut sink);
    }
}

// Safety: the raw `next` pointers are only ever touched by the pushing
// thread before publication (CAS) or by the single consumer after
// detaching the whole list — the atomic head is the only shared entry.
unsafe impl Send for FrameQueue {}
unsafe impl Sync for FrameQueue {}

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
    /// The nonblocking stream. Lock holders read and write; the fabric
    /// also calls `shutdown` on it (safe concurrently — all are plain
    /// syscalls on the same descriptor).
    pub stream: TcpStream,
    /// Read side open (false after EOF or corruption). Written under
    /// the reader lock; read without it to build poll sets, so a stale
    /// `true` costs one empty read pass and nothing else.
    open_read: AtomicBool,
    /// The read state machine. Every socket read and every
    /// [`FrameAssembler::feed`] happens under this lock, whoever holds
    /// it, so per-connection frame order is byte order, and a frame one
    /// reader left half-assembled is finished by the next.
    reader: Mutex<Reader>,
    /// Encoded frames awaiting transmission, in the order they will
    /// reach the wire. Filled only by [`ReactorPool::post`], so every
    /// frame in it has someone who will write it.
    queue: FrameQueue,
    /// The write state machine. A plain mutex, `try_lock`ed by posters
    /// (who never wait for it) and `lock`ed by the reactor: every
    /// socket write and every [`FrameQueue::drain_into`] happens under
    /// it, so wire order is push-linearization order.
    writer: Mutex<Writer>,
}

impl Conn {
    /// Wrap an established stream (switches it to nonblocking).
    pub fn new(peer: usize, nic: usize, reactor: usize, stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        Ok(Conn {
            peer,
            nic,
            reactor,
            stream,
            open_read: AtomicBool::new(true),
            reader: Mutex::new(Reader {
                asm: FrameAssembler::new(),
                buf: vec![0u8; READ_CHUNK],
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

    fn writer(&self) -> MutexGuard<'_, Writer> {
        self.writer.lock().expect("writer lock")
    }

    /// `(queued + unwritten bytes, socket known full)`.
    #[cfg(test)]
    pub(crate) fn backlog(&self) -> (usize, bool) {
        let w = self.writer();
        let unwritten = w.pending.iter().map(Vec::len).sum::<usize>() - w.front_off;
        (self.queue.bytes() + unwritten, w.want_write)
    }
}

/// Per-connection read state machine, behind [`Conn`]'s reader lock.
struct Reader {
    asm: FrameAssembler,
    /// Read scratch, [`READ_CHUNK`] bytes (zero pages until touched).
    buf: Vec<u8>,
}

/// Per-connection write state machine, behind [`Conn`]'s writer lock.
struct Writer {
    /// Frames taken from the queue (plus dispatcher replies), oldest
    /// first; front may be partially written.
    pending: VecDeque<Vec<u8>>,
    /// Bytes of `pending.front()` already on the wire.
    front_off: usize,
    /// Saw `WouldBlock` with bytes pending: the socket is full and the
    /// reactor polls for writability. Set only by a pass that is the
    /// reactor's own or that ends by waking it, and cleared only by a
    /// pass that also emptied the queue — so a poster that sees it may
    /// leave its frame queued.
    want_write: bool,
    /// Write side open (false after a write error latched the conn).
    open_write: bool,
}

impl Writer {
    /// Put queued frames on the wire until the queue is empty or the
    /// socket is full. The queue hands over its frames only when
    /// `pending` has been written out: while the socket is full they
    /// stay queued, where [`QUEUE_CAP_BYTES`] counts them.
    fn flush(&mut self, conn: &Conn, dispatch: &dyn FrameDispatch, met: &ReactorMetrics) {
        while self.open_write {
            self.service_write(conn, dispatch);
            if self.want_write || !self.open_write {
                return;
            }
            let taken = conn.queue.drain_into(&mut self.pending);
            if taken == 0 {
                return;
            }
            met.queue_depth.record(taken as u64);
        }
    }

    /// Push pending frames until empty or `WouldBlock`; partial writes
    /// park in `front_off` and set `want_write`.
    fn service_write(&mut self, conn: &Conn, dispatch: &dyn FrameDispatch) {
        while let Some(front) = self.pending.front() {
            match (&conn.stream).write(&front[self.front_off..]) {
                Ok(n) => {
                    self.front_off += n;
                    if self.front_off >= front.len() {
                        self.pending.pop_front();
                        self.front_off = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.want_write = true;
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Peer gone. Outside teardown, latch the stream so
                    // writers get clean errors; either way stop writing.
                    if !dispatch.stopping() {
                        dispatch.on_corrupt(conn.peer, conn.nic);
                    }
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    self.open_write = false;
                    self.pending.clear();
                    self.front_off = 0;
                    break;
                }
            }
        }
        self.want_write = false;
    }
}

/// What became of one inbound frame ([`FrameDispatch::on_frame`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Applied to this rank's memory or signals: a waiter's predicate
    /// may have moved.
    Applied,
    /// A control message, queued for the engine to handle.
    Queued,
    /// Nothing to act on (unknown kind, or a protocol error already
    /// reported through [`FrameDispatch::on_corrupt`]).
    Dropped,
}

/// What one read pass did, summed over the frames it completed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadPass {
    /// Bytes taken off the socket.
    pub bytes: usize,
    /// Frames that came out [`Delivery::Applied`].
    pub applied: usize,
    /// Frames that came out [`Delivery::Queued`].
    pub queued: usize,
    /// Replies were appended and the socket filled up before they were
    /// all written: the owning reactor must poll for writability.
    reply_blocked: bool,
}

impl ReadPass {
    fn add(&mut self, other: ReadPass) {
        self.bytes += other.bytes;
        self.applied += other.applied;
        self.queued += other.queued;
    }
}

/// What a reader does with protocol events; implemented by the
/// fabric (which owns regions, the atomic-add sink and the down
/// latches). The reactor itself stays protocol-agnostic.
pub trait FrameDispatch: Send + Sync + 'static {
    /// One fully reassembled inbound frame from `(peer, nic)`. Encoded
    /// reply frames pushed into `replies` are transmitted on the same
    /// connection, ahead of backpressure (a reader cannot park on the
    /// queue it may have to drain). Runs on whichever thread read the
    /// frame — a reactor or a waiting rank thread — under that
    /// connection's reader lock. It must not post (replies are
    /// returned, never sent from here) and wakes nobody: the reader
    /// decides who needs to hear of it from the [`Delivery`]s.
    fn on_frame(
        &self,
        peer: usize,
        nic: usize,
        frame: Frame,
        replies: &mut Vec<Vec<u8>>,
    ) -> Delivery;
    /// A reactor's read passes dispatched these frames (`applied` or
    /// `queued` non-zero): wake whoever waits for them. Not called for
    /// a waiting rank thread's own reads — it looks for itself.
    fn announce(&self, reads: &ReadPass);
    /// The stream delivered unframeable bytes (corrupt prefix or death
    /// mid-frame) or refused a write, outside teardown; the dispatcher
    /// latches it down. Called by readers and by posting threads.
    fn on_corrupt(&self, peer: usize, nic: usize);
    /// Whether fabric teardown has begun (reactors exit their loops).
    fn stopping(&self) -> bool;
}

// ---------------------------------------------------------------------
// Readiness poller
// ---------------------------------------------------------------------

/// One poll slot: mirrors `struct pollfd` (and is exactly it on Unix).
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollSlot {
    /// Raw descriptor (-1 on non-Unix fallback builds).
    pub fd: i32,
    /// Requested events (`POLL_IN` / `POLL_OUT`).
    pub events: i16,
    /// Returned events.
    pub revents: i16,
}

impl PollSlot {
    /// Something to read, or an error or hang-up a read will surface.
    fn readable(&self) -> bool {
        self.revents & (POLL_IN | POLL_ERR | POLL_HUP) != 0
    }
}

/// Readable readiness (POSIX `POLLIN`; identical value on Linux/BSD/macOS).
pub const POLL_IN: i16 = 0x001;
/// Writable readiness (POSIX `POLLOUT`).
pub const POLL_OUT: i16 = 0x004;
/// Error condition (always polled implicitly).
pub const POLL_ERR: i16 = 0x008;
/// Peer hangup (always polled implicitly).
pub const POLL_HUP: i16 = 0x010;

#[cfg(unix)]
fn raw_fd(s: &TcpStream) -> i32 {
    use std::os::fd::AsRawFd;
    s.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd(_s: &TcpStream) -> i32 {
    -1
}

/// Block until a slot is ready or `timeout_ms` elapses; returns the
/// number of ready slots (0 on timeout).
///
/// Unix: `poll(2)` through a local `extern "C"` declaration — the one
/// deliberate syscall FFI in the workspace (see DESIGN.md §5, unsafe
/// surface). Elsewhere: park ~1 ms and report every requested slot
/// ready, letting the nonblocking reads/writes discover actual
/// readiness (correct, just less efficient).
#[cfg(unix)]
pub fn poll_wait(slots: &mut [PollSlot], timeout_ms: i32) -> io::Result<usize> {
    use std::os::raw::{c_int, c_ulong};
    extern "C" {
        fn poll(fds: *mut PollSlot, nfds: c_ulong, timeout: c_int) -> c_int;
    }
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

/// Portable fallback poller (non-Unix): park briefly, claim readiness.
#[cfg(not(unix))]
pub fn poll_wait(slots: &mut [PollSlot], timeout_ms: i32) -> io::Result<usize> {
    std::thread::sleep(std::time::Duration::from_millis(timeout_ms.clamp(0, 1) as u64));
    for s in slots.iter_mut() {
        s.revents = s.events;
    }
    Ok(slots.len())
}

// ---------------------------------------------------------------------
// Wake channel
// ---------------------------------------------------------------------

/// Producer side of a reactor's wake channel: a self-connected loopback
/// stream pair. `wake` writes one byte iff no wake is already pending,
/// so the channel holds at most one unread byte per poller pass.
///
/// The no-lost-wake-up argument is one SeqCst total order over four
/// operations. A producer publishes its work — a pushed frame
/// ([`FrameQueue::push`]), or `want_write` set under the writer lock it
/// has since released — and *then* `pending.swap(true)`s; the reactor
/// (`consume_wake`) empties the channel, *then* `pending.store(false)`s,
/// and only then takes each writer lock and detaches the writer queues
/// ([`FrameQueue::drain_into`]). If the
/// swap returns `true`, some wake is still unconsumed: the reactor's
/// `store(false)` — and the write pass after it — comes later in that
/// order and finds the work. If it returns `false`, the reactor's
/// channel drain for this pass is already over, so the byte written now
/// stays readable and the next poll returns at once. Either way the
/// work is seen without waiting for the poll timeout.
pub struct WakeHandle {
    tx: TcpStream,
    pending: Arc<AtomicBool>,
}

impl WakeHandle {
    /// A fresh channel: the producer handle and the nonblocking read
    /// end its consumer polls.
    pub(crate) fn channel() -> io::Result<(WakeHandle, TcpStream)> {
        let (tx, rx) = wake_pair()?;
        let pending = Arc::new(AtomicBool::new(false));
        Ok((WakeHandle { tx, pending }, rx))
    }

    /// Consumer side: empty the channel `rx`, then re-arm the producers
    /// (see `consume_wake`). The caller looks for the announced work
    /// afterwards.
    pub(crate) fn consume(&self, rx: &TcpStream) {
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
fn consume_wake(mut rx: impl Read, pending: &AtomicBool) {
    let mut sink = [0u8; 64];
    while let Ok(n) = rx.read(&mut sink) {
        if n == 0 {
            break;
        }
    }
    pending.store(false, Ordering::SeqCst);
}

/// Build a loopback stream pair for the wake channel: `(tx, rx)`, with
/// `rx` nonblocking.
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let l = TcpListener::bind("127.0.0.1:0")?;
    let addr = l.local_addr()?;
    let tx = TcpStream::connect(addr)?;
    let local = tx.local_addr()?;
    // Accept until we see our own connect (a stray dialer on the
    // ephemeral port would otherwise corrupt the channel).
    loop {
        let (rx, from) = l.accept()?;
        if from == local {
            tx.set_nodelay(true)?;
            rx.set_nonblocking(true)?;
            return Ok((tx, rx));
        }
    }
}

// ---------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------

/// Resolve the pool size: `UNR_NETFAB_REACTORS` clamped to `1..=16`,
/// else [`DEFAULT_REACTORS`].
pub fn pool_size_from_env() -> usize {
    std::env::var("UNR_NETFAB_REACTORS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| n.clamp(1, 16))
        .unwrap_or(DEFAULT_REACTORS)
}

/// What the rank's waiting threads tell the reactors: two words, written
/// by [`Waiting::park`], read at the top of every reactor pass.
#[derive(Default)]
pub struct Waiting {
    /// Rank threads parked in a poll of the rank's sockets right now.
    parked: AtomicUsize,
    /// Parks ever begun: a reactor that finds this moved since its
    /// previous pass knows a thread waited in between, however briefly.
    entries: AtomicUsize,
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

/// What [`ReactorPool::wait_readable`] came back with.
pub struct Waited {
    /// What this thread read and dispatched.
    pub reads: ReadPass,
    /// The caller's wake channel was readable.
    pub woken: bool,
    /// The timeout ran out with nothing ready.
    pub expired: bool,
}

/// A fixed pool of reactor threads plus their wake handles. Thread
/// count is decided at construction and never changes.
pub struct ReactorPool {
    wakes: Vec<WakeHandle>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    dispatch: Arc<dyn FrameDispatch>,
    met: ReactorMetrics,
}

impl ReactorPool {
    /// Spawn `nreactors` threads, partitioning `conns` by their
    /// `reactor` index. `waiting` is where the rank's threads publish
    /// that they poll the sockets themselves; `tag` distinguishes
    /// thread names per rank.
    pub fn spawn(
        nreactors: usize,
        conns: Vec<Arc<Conn>>,
        waiting: Arc<Waiting>,
        dispatch: Arc<dyn FrameDispatch>,
        met: ReactorMetrics,
        tag: &str,
    ) -> io::Result<ReactorPool> {
        assert!(nreactors >= 1, "need at least one reactor");
        met.threads.set(nreactors as i64);
        let mut wakes = Vec::with_capacity(nreactors);
        let mut threads = Vec::with_capacity(nreactors);
        for r in 0..nreactors {
            let (wake, rx) = WakeHandle::channel()?;
            let pending = Arc::clone(&wake.pending);
            wakes.push(wake);
            let mine: Vec<Arc<Conn>> = conns
                .iter()
                .filter(|c| c.reactor == r)
                .map(Arc::clone)
                .collect();
            let dis = Arc::clone(&dispatch);
            let m = met.clone();
            let waiting = Arc::clone(&waiting);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("netfab-reactor-{tag}-{r}"))
                    .spawn(move || reactor_loop(mine, rx, pending, waiting, dis, m))?,
            );
        }
        Ok(ReactorPool {
            wakes,
            threads: Mutex::new(threads),
            dispatch,
            met,
        })
    }

    /// Pool size.
    pub fn len(&self) -> usize {
        self.wakes.len()
    }

    /// Whether the pool is empty (never: construction requires ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.wakes.is_empty()
    }

    /// Nudge reactor `idx` (work it must see on one of its conns).
    pub fn wake(&self, idx: usize) {
        self.wakes[idx % self.wakes.len()].wake(&self.met);
    }

    /// Queue `frame` on `conn` and see that it gets written: here and
    /// now when the writer is idle and the socket not known to be full,
    /// by the owning reactor otherwise. The frame is pushed first either
    /// way and whoever writes takes it from the queue, so it never
    /// overtakes one posted before it. Not for reactor threads.
    ///
    /// Every frame keeps an owner. This thread gets the lock: it writes
    /// until the queue is empty, and if the socket fills up first wakes
    /// the reactor to poll for writability. The lock is taken: the
    /// holder may be past its last look at the queue, so the reactor is
    /// woken, and drains it once the holder lets go. The socket is
    /// already full (`want_write`, read under the lock): the reactor
    /// polls, or is being woken to poll, for writability, and its pass
    /// on `POLLOUT` drains the queue after this push.
    pub fn post(&self, conn: &Conn, frame: Vec<u8>) {
        conn.queue.push(frame);
        let wake = match conn.writer.try_lock() {
            Ok(w) if w.want_write => false,
            Ok(mut w) => {
                w.flush(conn, &*self.dispatch, &self.met);
                w.want_write
            }
            Err(TryLockError::WouldBlock) => true,
            Err(TryLockError::Poisoned(_)) => panic!("writer lock poisoned"),
        };
        if wake {
            self.wake(conn.reactor);
        }
    }

    /// Progress `conns` on the calling (rank) thread: block until one
    /// of them is readable, `wake_rx` is, or `timeout` runs out (whole
    /// milliseconds, at least one), then run one read pass on each
    /// readable connection right here — same `service_read`, same
    /// dispatcher as a reactor — so what arrives is applied by the
    /// thread that waits for it, with no wake-up in between. A reply
    /// that fills the socket is handed to the owning reactor with a
    /// wake, like a post that could not finish. The caller consumes
    /// `wake_rx` and acts on what the reads dispatched; nobody is rung.
    ///
    /// Callable from several threads at once, and beside the reactors:
    /// the reader lock arbitrates, and a thread that loses the race
    /// finds the socket empty. For the reactors to stand back the
    /// caller brackets this in [`Waiting::park`].
    pub fn wait_readable(
        &self,
        conns: &[Arc<Conn>],
        wake_rx: &TcpStream,
        timeout: Duration,
    ) -> Waited {
        // Slot 0 is the wake channel, slot i + 1 is `conns[i]`; a
        // connection with its read side closed holds its place with a
        // descriptor `poll(2)` ignores.
        let mut slots = Vec::with_capacity(conns.len() + 1);
        slots.push(PollSlot {
            fd: raw_fd(wake_rx),
            events: POLL_IN,
            revents: 0,
        });
        slots.extend(conns.iter().map(|c| match c.open_read() {
            true => PollSlot {
                fd: raw_fd(&c.stream),
                events: POLL_IN,
                revents: 0,
            },
            false => PollSlot {
                fd: -1,
                events: 0,
                revents: 0,
            },
        }));
        let timeout_ms = timeout.as_millis().clamp(1, i32::MAX as u128) as i32;
        let ready = poll_wait(&mut slots, timeout_ms).unwrap_or(0);
        let mut reads = ReadPass::default();
        for (conn, slot) in conns.iter().zip(&slots[1..]) {
            if !slot.readable() {
                continue;
            }
            let pass = service_read(conn, &*self.dispatch, &self.met);
            if pass.bytes > 0 {
                self.met.reads_by_waiter.inc();
            }
            if pass.reply_blocked {
                self.wake(conn.reactor);
            }
            reads.add(pass);
        }
        Waited {
            reads,
            woken: slots[0].readable(),
            expired: ready == 0,
        }
    }

    /// Wake everyone and join the threads (callers set the dispatcher's
    /// `stopping` flag first). Idempotent; never joins the current
    /// thread.
    pub fn shutdown(&self) {
        for w in &self.wakes {
            w.wake(&self.met);
        }
        let handles = std::mem::take(&mut *self.threads.lock().expect("reactor threads lock"));
        let me = std::thread::current().id();
        for h in handles {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

// ---------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------

/// Per-connection reactor-local state: what the last write pass saw
/// under the writer lock.
struct ConnState {
    conn: Arc<Conn>,
    /// The socket was full at the end of the last write pass: poll for
    /// writability. A poster that fills it later says so with a wake.
    poll_out: bool,
}

/// One reactor. Writability, the wake channel and teardown are always
/// its business; reads only while no rank thread waits.
///
/// **Yield, and take back by looking again.** A rank thread that waits
/// reads the sockets itself ([`ReactorPool::wait_readable`]); were the
/// reactor polling them too, every arrival would wake both and the
/// reactor would usually get there first — the thread hop this design
/// removes. So at the top of each pass a reactor that has connections
/// leaves `POLLIN` out of its poll set if a waiter is parked *or* one
/// came by since the previous pass ([`Waiting`]), and polls with
/// [`YIELD_POLL_MS`] to look again soon; a pass that sees neither takes
/// the sockets back with the long timeout. Nobody tells the reactor
/// that a wait has ended — a wake byte at every wait exit would put the
/// hop back — so the worst case is one [`YIELD_POLL_MS`] between the
/// last wait and the reactor reading again: compute phases, a rank that
/// only serves GETs and teardown keep their asynchronous progress. A
/// reactor in its long poll when the first waiter arrives is woken by
/// the same `POLLIN` as the waiter, once: it finds the waiter parked,
/// leaves the read to it and yields from the next pass.
fn reactor_loop(
    conns: Vec<Arc<Conn>>,
    wake_rx: TcpStream,
    wake_pending: Arc<AtomicBool>,
    waiting: Arc<Waiting>,
    dispatch: Arc<dyn FrameDispatch>,
    met: ReactorMetrics,
) {
    let mut states: Vec<ConnState> = conns
        .into_iter()
        .map(|conn| ConnState {
            conn,
            poll_out: false,
        })
        .collect();
    let mut slots: Vec<PollSlot> = Vec::new();
    // slot index -> states index (slot 0 is the wake channel).
    let mut slot_conn: Vec<usize> = Vec::new();
    let mut entries_seen = waiting.entries.load(Ordering::SeqCst);

    loop {
        if dispatch.stopping() {
            final_flush(&states, &*dispatch, &met);
            return;
        }

        let entries = waiting.entries.load(Ordering::SeqCst);
        let yielded = !states.is_empty() && (waiting.parked() > 0 || entries != entries_seen);
        entries_seen = entries;

        slots.clear();
        slot_conn.clear();
        slots.push(PollSlot {
            fd: raw_fd(&wake_rx),
            events: POLL_IN,
            revents: 0,
        });
        for (i, st) in states.iter().enumerate() {
            let mut ev = 0i16;
            if st.conn.open_read() && !yielded {
                ev |= POLL_IN;
            }
            if st.poll_out {
                ev |= POLL_OUT;
            }
            if ev != 0 {
                slots.push(PollSlot {
                    fd: raw_fd(&st.conn.stream),
                    events: ev,
                    revents: 0,
                });
                slot_conn.push(i);
            }
        }

        let timeout = if yielded { YIELD_POLL_MS } else { POLL_TIMEOUT_MS };
        let ready = match poll_wait(&mut slots, timeout) {
            Ok(n) => n,
            Err(_) => continue,
        };
        if ready > 0 {
            met.poll_batch.record(ready as u64);
        }

        if slots[0].readable() {
            consume_wake(&wake_rx, &wake_pending);
        }

        // Reads: only where the poller reported readiness, and only if
        // no rank thread is parked on the same sockets — it was woken by
        // the same readiness and applies what it reads without a hop.
        let mut reads = ReadPass::default();
        if waiting.parked() == 0 {
            for (si, slot) in slots.iter().enumerate().skip(1) {
                if !slot.readable() {
                    continue;
                }
                let conn = &states[slot_conn[si - 1]].conn;
                if !conn.open_read() {
                    continue; // POLLHUP on a write-only slot
                }
                let pass = service_read(conn, &*dispatch, &met);
                if pass.bytes > 0 {
                    met.reads_by_reactor.inc();
                }
                reads.add(pass);
            }
        }
        // One ring per pass, not per frame: nobody this could wake runs
        // before the pass is over anyway on the rank's core.
        if reads.applied + reads.queued > 0 {
            dispatch.announce(&reads);
        }

        // Writes: whatever is owed on any connection — frames a poster
        // handed over, residue a full socket left behind (a reader's
        // replies included) — until the kernel pushes back. Waiting
        // for the lock is waiting out a poster's nonblocking write.
        // A connection with nothing left to read and nothing left (or
        // possible) to write leaves the loop.
        states.retain_mut(|st| {
            let mut w = st.conn.writer();
            w.flush(&st.conn, &*dispatch, &met);
            st.poll_out = w.want_write && w.open_write;
            st.conn.open_read()
                || (w.open_write && !(w.pending.is_empty() && st.conn.queue.frames() == 0))
        });
    }
}

/// The read side found the stream unusable: stop writing to it too.
fn close_write(conn: &Conn) {
    conn.writer().open_write = false;
}

/// One read pass on `conn`, by whoever calls — a reactor or a waiting
/// rank thread: take the reader lock, read once (at most the fairness
/// chunk), feed the frame assembler, dispatch completed frames, and
/// append any replies to the write state and write them out. Everything
/// happens under the reader lock (the writer lock nests inside it), so
/// two readers of one connection take turns pass by pass: frames are
/// dispatched in byte order, replies are appended in request order, and
/// an addend is applied after the bytes it announces because both are
/// the one `on_frame` call. Returns what the pass did.
fn service_read(conn: &Conn, dispatch: &dyn FrameDispatch, met: &ReactorMetrics) -> ReadPass {
    let mut pass = ReadPass::default();
    let mut reader = conn.reader.lock().expect("reader lock");
    if !conn.open_read() {
        return pass; // closed by the reader we waited out
    }
    let close_read = || conn.open_read.store(false, Ordering::SeqCst);
    let Reader { asm, buf } = &mut *reader;
    let (peer, nic) = (conn.peer, conn.nic);
    let n = loop {
        match (&conn.stream).read(buf) {
            Ok(0) => {
                // EOF. Clean only on a frame boundary; mid-frame it is a
                // truncation (unless the world is tearing down).
                if asm.mid_frame() && !dispatch.stopping() {
                    dispatch.on_corrupt(peer, nic);
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    close_write(conn);
                }
                close_read();
                return pass;
            }
            // A short read means the socket is drained, a full buffer
            // that siblings get their turn (poll re-arms): one read per
            // pass either way, never one more just to see `WouldBlock`.
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Spurious readiness, or another reader got here first.
                if asm.mid_frame() {
                    met.partial_reads.inc();
                }
                return pass;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Reset / aborted: treated like EOF (clean on boundary —
                // a racing close of a loopback socket with in-flight
                // data surfaces as a reset).
                if asm.mid_frame() && !dispatch.stopping() {
                    dispatch.on_corrupt(peer, nic);
                    close_write(conn);
                }
                let _ = conn.stream.shutdown(Shutdown::Both);
                close_read();
                return pass;
            }
        }
    };
    pass.bytes = n;
    let mut replies: Vec<Vec<u8>> = Vec::new();
    let fed = asm.feed(&buf[..n], &mut |f: Frame| {
        match dispatch.on_frame(peer, nic, f, &mut replies) {
            Delivery::Applied => pass.applied += 1,
            Delivery::Queued => pass.queued += 1,
            Delivery::Dropped => {}
        }
    });
    if fed.is_err() {
        // Corrupt length prefix: nothing after this point can be
        // framed.
        if !dispatch.stopping() {
            dispatch.on_corrupt(peer, nic);
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
        close_read();
        close_write(conn);
        return pass;
    }
    if asm.mid_frame() {
        met.partial_reads.inc();
    }
    if !replies.is_empty() {
        // Behind whatever is half-written, ahead of the queue and its
        // cap, and on the wire now if the socket takes them.
        let mut w = conn.writer();
        w.pending.extend(replies);
        w.flush(conn, dispatch, met);
        pass.reply_blocked = w.want_write;
    }
    pass
}

/// Best-effort flush at teardown: everything protocol-critical was
/// flushed before the storm's final barrier, so this only covers stray
/// acks. Bounded by attempts, not time — never blocks shutdown.
fn final_flush(states: &[ConnState], dispatch: &dyn FrameDispatch, met: &ReactorMetrics) {
    for st in states {
        for _ in 0..64 {
            let mut w = st.conn.writer();
            w.flush(&st.conn, dispatch, met);
            if !w.want_write {
                break;
            }
            drop(w);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

/// OS-level thread count of the current process (Linux:
/// `/proc/self/status` `Threads:`; `None` elsewhere). The storm reports
/// this so the flat-thread-budget claim is asserted end-to-end.
pub fn process_thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_is_fifo_in_push_order() {
        let q = FrameQueue::new();
        for i in 0..100u8 {
            q.push(vec![i]);
        }
        assert_eq!(q.frames(), 100);
        assert_eq!(q.bytes(), 100);
        let mut out = VecDeque::new();
        assert_eq!(q.drain_into(&mut out), 100);
        let got: Vec<u8> = out.iter().map(|f| f[0]).collect();
        let want: Vec<u8> = (0..100).collect();
        assert_eq!(got, want);
        assert_eq!(q.frames(), 0);
        assert_eq!(q.bytes(), 0);
    }

    /// A dispatcher for a connection nobody talks back on.
    #[derive(Default)]
    struct CountCorrupt {
        corrupt: AtomicUsize,
        stopping: AtomicBool,
    }

    impl FrameDispatch for CountCorrupt {
        fn on_frame(&self, _: usize, _: usize, _: Frame, _: &mut Vec<Vec<u8>>) -> Delivery {
            Delivery::Dropped
        }
        fn announce(&self, _: &ReadPass) {}
        fn on_corrupt(&self, _: usize, _: usize) {
            self.corrupt.fetch_add(1, Ordering::SeqCst);
        }
        fn stopping(&self) -> bool {
            self.stopping.load(Ordering::SeqCst)
        }
    }

    /// Four posters on one connection whose peer reads nothing until the
    /// socket is full, so frames go out every way there is: written by
    /// their poster, handed to the reactor by a poster that found the
    /// writer taken, left queued behind `want_write`, written in pieces
    /// on `POLLOUT`. The byte stream must still decode to every frame
    /// exactly once, whole, in each producer's order.
    #[test]
    fn queue_concurrent_producers_lose_nothing() {
        const PRODUCERS: u64 = 4;
        const FRAMES: u64 = 250;
        // Body sizes from 41 B to 256 KiB, small ones as likely as
        // large ones; ~38 MB in all, several socket buffers' worth.
        let body_len = |t: u64, i: u64| {
            let mut rng = unr_simnet::SimRng::seed_from_u64(0x5eed_0018 ^ t << 32 ^ i);
            let base = 41usize << (rng.next_u64() % 13);
            (base + rng.next_u64() as usize % base).min(256 * 1024)
        };
        let fill = |t: u64, i: u64| (t * 61 + i * 7) as u8;

        let (tx, rx) = wake_pair().unwrap();
        rx.set_nonblocking(false).unwrap();
        let conn = Arc::new(Conn::new(1, 0, 0, tx).unwrap());
        let dispatch = Arc::new(CountCorrupt::default());
        let met = ReactorMetrics::register(&Obs::new());
        let conns = vec![Arc::clone(&conn)];
        let waiting = Arc::new(Waiting::default());
        let pool =
            ReactorPool::spawn(1, conns, waiting, dispatch.clone(), met.clone(), "test").unwrap();

        std::thread::scope(|s| {
            for t in 0..PRODUCERS {
                let (pool, conn) = (&pool, &conn);
                s.spawn(move || {
                    for i in 0..FRAMES {
                        let mut body = vec![fill(t, i); body_len(t, i)];
                        body[..8].copy_from_slice(&(t << 32 | i).to_le_bytes());
                        let f = crate::frame::encode_frame(crate::frame::FRAME_CTRL, &[&body]);
                        pool.post(conn, f.unwrap());
                    }
                });
            }
            // The reader starts once the socket has filled up.
            let t0 = std::time::Instant::now();
            while !conn.backlog().1 {
                assert!(t0.elapsed().as_secs() < 60, "the socket never filled");
                std::thread::yield_now();
            }
            let mut next = [0u64; PRODUCERS as usize];
            let mut r = &rx;
            for _ in 0..PRODUCERS * FRAMES {
                let f = crate::frame::read_frame(&mut r).expect("a whole frame");
                let tag = u64::from_le_bytes(f.body[..8].try_into().unwrap());
                let (t, i) = (tag >> 32, tag & 0xffff_ffff);
                assert_eq!(i, next[t as usize], "producer {t} reordered or repeated");
                next[t as usize] += 1;
                assert_eq!(f.body.len(), body_len(t, i), "frame {t}/{i} length");
                assert!(f.body[8..].iter().all(|&b| b == fill(t, i)), "frame {t}/{i} torn");
            }
            assert_eq!(next, [FRAMES; PRODUCERS as usize]);
        });
        // Everything was read, so everything was written: the writer is
        // idle again, with nothing owed and nothing left queued.
        assert_eq!(conn.backlog(), (0, false));
        assert_eq!(conn.queue.frames(), 0);
        assert!(met.wakeups.get() > 0, "no poster ever needed the reactor");
        dispatch.stopping.store(true, Ordering::SeqCst);
        pool.shutdown();
        assert_eq!(dispatch.corrupt.load(Ordering::SeqCst), 0);
    }

    /// A dispatcher that expects the frames of [`tagged_frame`] in
    /// index order, `period` of them over and over. `on_frame` runs
    /// under the connection's reader lock, so the order it is called in
    /// is the order frames were dispatched in, whoever read them.
    struct InOrder {
        seen: AtomicUsize,
        wrong: AtomicUsize,
        corrupt: AtomicUsize,
        stopping: AtomicBool,
        period: u64,
        body_len: fn(u64) -> usize,
    }

    impl InOrder {
        fn new(period: u64, body_len: fn(u64) -> usize) -> InOrder {
            InOrder {
                seen: AtomicUsize::new(0),
                wrong: AtomicUsize::new(0),
                corrupt: AtomicUsize::new(0),
                stopping: AtomicBool::new(false),
                period,
                body_len,
            }
        }
    }

    /// Frame `i` of a test stream: an 8-byte tag, then filler that
    /// differs from its neighbours'.
    fn tagged_frame(i: u64, body_len: usize) -> Vec<u8> {
        let mut body = vec![(i * 7 + 3) as u8; body_len];
        body[..8].copy_from_slice(&i.to_le_bytes());
        crate::frame::encode_frame(crate::frame::FRAME_CTRL, &[&body]).unwrap()
    }

    impl FrameDispatch for InOrder {
        fn on_frame(&self, _: usize, _: usize, f: Frame, _: &mut Vec<Vec<u8>>) -> Delivery {
            let i = self.seen.fetch_add(1, Ordering::SeqCst) as u64 % self.period;
            let whole = f.kind == crate::frame::FRAME_CTRL
                && f.body.len() == (self.body_len)(i)
                && f.body[..8] == i.to_le_bytes()
                && f.body[8..].iter().all(|&b| b == (i * 7 + 3) as u8);
            if !whole {
                self.wrong.fetch_add(1, Ordering::SeqCst);
            }
            Delivery::Queued
        }
        fn announce(&self, _: &ReadPass) {}
        fn on_corrupt(&self, _: usize, _: usize) {
            self.corrupt.fetch_add(1, Ordering::SeqCst);
        }
        fn stopping(&self) -> bool {
            self.stopping.load(Ordering::SeqCst)
        }
    }

    /// Three readers on one connection — its reactor, which nobody
    /// told to stand back, and two threads looping `wait_readable` —
    /// while a raw peer writes 2 000 frames in pieces that end anywhere.
    /// Whoever holds the reader lock reads, a frame one reader leaves
    /// half-assembled is finished by another, and the dispatcher must
    /// still see every frame once, whole, in order.
    #[test]
    fn two_readers_and_a_reactor_share_one_stream_in_order() {
        const FRAMES: u64 = 2_000;
        // 41 B to 256 KiB, small as likely as large; ~75 MB in all.
        fn body_len(i: u64) -> usize {
            let mut rng = unr_simnet::SimRng::seed_from_u64(0x5eed_0021 ^ i);
            let base = 41usize << (rng.next_u64() % 13);
            (base + rng.next_u64() as usize % base).min(256 * 1024)
        }
        let (peer, ours) = wake_pair().unwrap();
        let conn = Arc::new(Conn::new(1, 0, 0, ours).unwrap());
        let conns = vec![Arc::clone(&conn)];
        let dispatch = Arc::new(InOrder::new(FRAMES, body_len));
        let met = ReactorMetrics::register(&Obs::new());
        let waiting = Arc::new(Waiting::default());
        let (dis, m) = (dispatch.clone(), met.clone());
        let pool = ReactorPool::spawn(1, conns.clone(), waiting, dis, m, "test").unwrap();
        let (_idle, idle_rx) = WakeHandle::channel().unwrap();

        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let t0 = std::time::Instant::now();
                    while dispatch.seen.load(Ordering::SeqCst) < FRAMES as usize {
                        assert!(t0.elapsed().as_secs() < 120, "the stream stopped coming");
                        pool.wait_readable(&conns, &idle_rx, Duration::from_millis(1));
                    }
                });
            }
            // The peer: pieces of 1 B to 512 KiB, cut with no regard
            // for where a frame starts or ends.
            let mut rng = unr_simnet::SimRng::seed_from_u64(0x5eed_c075);
            let cut = |rng: &mut unr_simnet::SimRng| {
                let base = 1usize << (rng.next_u64() % 19);
                base + rng.next_u64() as usize % base
            };
            let mut w = &peer;
            let mut carry: Vec<u8> = Vec::new();
            for i in 0..FRAMES {
                carry.extend_from_slice(&tagged_frame(i, body_len(i)));
                let mut at = 0;
                let mut piece = cut(&mut rng);
                while carry.len() - at >= piece {
                    w.write_all(&carry[at..at + piece]).unwrap();
                    at += piece;
                    piece = cut(&mut rng);
                }
                carry.drain(..at);
            }
            w.write_all(&carry).unwrap();
        });
        assert_eq!(dispatch.seen.load(Ordering::SeqCst), FRAMES as usize);
        assert_eq!(dispatch.wrong.load(Ordering::SeqCst), 0, "torn or reordered frames");
        assert_eq!(dispatch.corrupt.load(Ordering::SeqCst), 0);
        assert!(conn.open_read());
        let (by_waiter, by_reactor) = (met.reads_by_waiter.get(), met.reads_by_reactor.get());
        assert!(
            by_waiter > 0 && by_reactor > 0,
            "{by_waiter} waiter reads, {by_reactor} reactor reads: nobody contended"
        );
        dispatch.stopping.store(true, Ordering::SeqCst);
        pool.shutdown();
    }

    /// The hand-over, at every byte: a short stream is written up to a
    /// cut and read by one thread, the rest written and read by another
    /// — for every cut there is. Whatever the first reader leaves in the
    /// connection's assembler (part of a length prefix, a prefix without
    /// its kind, half a body), the second must finish.
    #[test]
    fn a_frame_cut_anywhere_is_finished_by_the_next_reader() {
        const FRAMES: u64 = 12;
        fn body_len(i: u64) -> usize {
            8 + (i as usize * 37) % 120
        }
        let stream: Vec<u8> = (0..FRAMES)
            .flat_map(|i| tagged_frame(i, body_len(i)))
            .collect();
        let (peer, ours) = wake_pair().unwrap();
        let conns = vec![Arc::new(Conn::new(1, 0, 0, ours).unwrap())];
        let dispatch = Arc::new(InOrder::new(FRAMES, body_len));
        let met = ReactorMetrics::register(&Obs::new());
        // A reactor with no connection of its own: every read below is
        // made by the thread the test chose.
        let waiting = Arc::new(Waiting::default());
        let pool =
            ReactorPool::spawn(1, Vec::new(), waiting, dispatch.clone(), met.clone(), "test")
                .unwrap();
        let (_idle, idle_rx) = WakeHandle::channel().unwrap();
        let read_exactly = |want: usize| {
            let mut got = 0;
            while got < want {
                let timeout = Duration::from_millis(1000);
                got += pool.wait_readable(&conns, &idle_rx, timeout).reads.bytes;
            }
            assert_eq!(got, want);
        };

        let mut w = &peer;
        for cut in 0..=stream.len() {
            w.write_all(&stream[..cut]).unwrap();
            read_exactly(cut);
            w.write_all(&stream[cut..]).unwrap();
            std::thread::scope(|s| {
                s.spawn(|| read_exactly(stream.len() - cut));
            });
            let passes = (cut + 1) * FRAMES as usize;
            assert_eq!(dispatch.seen.load(Ordering::SeqCst), passes, "cut at {cut}");
            assert_eq!(dispatch.wrong.load(Ordering::SeqCst), 0, "cut at {cut}");
        }
        assert_eq!(dispatch.corrupt.load(Ordering::SeqCst), 0);
        assert_eq!(met.reads_by_reactor.get(), 0);
        dispatch.stopping.store(true, Ordering::SeqCst);
        pool.shutdown();
    }

    #[test]
    fn wake_channel_round_trip() {
        let obs = Obs::new();
        let met = ReactorMetrics::register(&obs);
        let (tx, rx) = wake_pair().unwrap();
        let h = WakeHandle {
            tx,
            pending: Arc::new(AtomicBool::new(false)),
        };
        h.wake(&met);
        h.wake(&met); // coalesced: pending already set
        assert_eq!(met.wakeups.get(), 1);
        let mut slots = [PollSlot {
            fd: raw_fd(&rx),
            events: POLL_IN,
            revents: 0,
        }];
        let n = poll_wait(&mut slots, 1000).unwrap();
        assert_eq!(n, 1);
        let mut b = [0u8; 8];
        let got = (&rx).read(&mut b).unwrap();
        assert_eq!(got, 1);
    }

    /// The wake receiver with a producer firing at the worst moments: a
    /// `wake` lands before every read of the channel and once more the
    /// instant it is found empty — between `consume_wake`'s drain and
    /// its clear, the window in which the old clear-then-drain order
    /// swallowed the byte of a wake it had just re-armed.
    struct WakeAtEveryRead<'a> {
        rx: &'a TcpStream,
        h: &'a WakeHandle,
        met: &'a ReactorMetrics,
    }

    impl Read for WakeAtEveryRead<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.h.wake(self.met);
            let got = self.rx.read(buf);
            if got.is_err() {
                self.h.wake(self.met);
            }
            got
        }
    }

    #[test]
    fn wake_racing_the_consume_is_never_swallowed() {
        let obs = Obs::new();
        let met = ReactorMetrics::register(&obs);
        let (tx, rx) = wake_pair().unwrap();
        let pending = Arc::new(AtomicBool::new(false));
        let h = WakeHandle {
            tx,
            pending: Arc::clone(&pending),
        };
        let readable = |timeout_ms| {
            let mut slots = [PollSlot {
                fd: raw_fd(&rx),
                events: POLL_IN,
                revents: 0,
            }];
            poll_wait(&mut slots, timeout_ms).unwrap() == 1
        };
        for _ in 0..100 {
            h.wake(&met);
            assert!(readable(1000), "a wake from idle must reach the poller");
            consume_wake(
                WakeAtEveryRead {
                    rx: &rx,
                    h: &h,
                    met: &met,
                },
                &pending,
            );
            // Whatever raced the consume is either re-armed (the
            // reactor drains the queues next, so it is seen) or has its
            // own byte in the channel. `pending` over an empty channel
            // is the lost wake-up: every later wake would be skipped.
            assert!(
                !pending.load(Ordering::SeqCst) || readable(1000),
                "pending set with no byte to wake the poller"
            );
            // The next producer gets through either way.
            h.wake(&met);
            assert!(readable(1000));
            consume_wake(&rx, &pending);
            assert!(!pending.load(Ordering::SeqCst));
            assert!(!readable(0), "channel left empty for the next round");
        }
    }

    #[test]
    fn thread_count_is_positive_on_linux() {
        if let Some(n) = process_thread_count() {
            assert!(n >= 1);
        }
    }
}
