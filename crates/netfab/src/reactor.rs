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
//!   length-prefixed frames across arbitrary partial reads;
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
//! threads per process whether the world has 4 ranks or 64.
//!
//! The reactor knows nothing about regions, signals or the reliable
//! protocol: inbound frames are handed to a [`FrameDispatch`]
//! implemented by the fabric, which may return already-encoded reply
//! frames (GET replies) that the reactor appends to the same
//! connection's write state — replies bypass the backpressure cap
//! because the reactor cannot wait on a backlog it is itself
//! responsible for draining.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;

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

/// Read scratch per connection per loop iteration — also the fairness
/// bound: one connection cannot starve its siblings for longer than one
/// buffer fill.
const READ_CHUNK: usize = 256 * 1024;

/// Poller timeout; the wake channel makes wakeups instant, this only
/// bounds how long a reactor can miss a `stopping` flag — and is what a
/// lost wake-up would cost, which is how tests recognise one.
pub const POLL_TIMEOUT_MS: i32 = 250;

/// `unr.transport.reactor.*` instruments.
#[derive(Clone)]
pub struct ReactorMetrics {
    /// Reactor threads in the pool (a gauge: constant per process, the
    /// flat-in-world-size claim made observable).
    pub threads: Arc<Gauge>,
    /// Ready descriptors per poller return (batch size).
    pub poll_batch: Arc<Histogram>,
    /// Frames taken per non-empty writer-queue drain (queue depth seen
    /// by whoever writes: a posting thread or the reactor).
    pub queue_depth: Arc<Histogram>,
    /// Reads that ended (`WouldBlock`) with a frame still mid-assembly.
    pub partial_reads: Arc<Counter>,
    /// Producer stalls on a full writer queue.
    pub backpressure_stalls: Arc<Counter>,
    /// Wake bytes written to reactor wake channels: posts that could
    /// not finish on the posting thread, plus teardown.
    pub wakeups: Arc<Counter>,
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

/// One mesh stream in the registry: the nonblocking socket, its writer
/// queue and its write state machine. Reads belong to reactor
/// `self.reactor`; writes to whoever holds the writer lock.
pub struct Conn {
    /// Remote rank.
    pub peer: usize,
    /// NIC (socket index) of this stream.
    pub nic: usize,
    /// Index of the owning reactor in the pool.
    pub reactor: usize,
    /// The nonblocking stream. The reactor reads; the fabric also calls
    /// `shutdown` on it (safe concurrently — both are plain syscalls on
    /// the same descriptor).
    pub stream: TcpStream,
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

/// Per-connection write state machine, behind [`Conn`]'s writer lock.
struct Writer {
    /// Frames taken from the queue (plus dispatcher replies), oldest
    /// first; front may be partially written.
    pending: VecDeque<Vec<u8>>,
    /// Bytes of `pending.front()` already on the wire.
    front_off: usize,
    /// Saw `WouldBlock` with bytes pending: the socket is full and the
    /// reactor polls for writability. Set only by a pass that is the
    /// reactor's own or that ends by waking it, and cleared only by the
    /// reactor — so a poster that sees it may leave its frame queued.
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

/// What the reactor does with protocol events; implemented by the
/// fabric (which owns regions, the atomic-add sink and the down
/// latches). The reactor itself stays protocol-agnostic.
pub trait FrameDispatch: Send + Sync + 'static {
    /// One fully reassembled inbound frame from `(peer, nic)`. Encoded
    /// reply frames pushed into `replies` are transmitted on the same
    /// connection, ahead of backpressure (the reactor cannot park on
    /// the queue it drains). Runs on a reactor thread and must not
    /// post: replies are returned, never sent from here.
    fn on_frame(&self, peer: usize, nic: usize, frame: Frame, replies: &mut Vec<Vec<u8>>);
    /// The stream delivered unframeable bytes (corrupt prefix or death
    /// mid-frame) or refused a write, outside teardown; the dispatcher
    /// latches it down. Called by the reactor and by posting threads.
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
    /// `reactor` index. `tag` distinguishes thread names per rank.
    pub fn spawn(
        nreactors: usize,
        conns: Vec<Arc<Conn>>,
        dispatch: Arc<dyn FrameDispatch>,
        met: ReactorMetrics,
        tag: &str,
    ) -> io::Result<ReactorPool> {
        assert!(nreactors >= 1, "need at least one reactor");
        met.threads.set(nreactors as i64);
        let mut wakes = Vec::with_capacity(nreactors);
        let mut threads = Vec::with_capacity(nreactors);
        for r in 0..nreactors {
            let (tx, rx) = wake_pair()?;
            let pending = Arc::new(AtomicBool::new(false));
            wakes.push(WakeHandle {
                tx,
                pending: Arc::clone(&pending),
            });
            let mine: Vec<Arc<Conn>> = conns
                .iter()
                .filter(|c| c.reactor == r)
                .map(Arc::clone)
                .collect();
            let dis = Arc::clone(&dispatch);
            let m = met.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("netfab-reactor-{tag}-{r}"))
                    .spawn(move || reactor_loop(mine, rx, pending, dis, m))?,
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

/// Per-connection reactor-local state: the read state machine, and
/// what the last write pass saw under the writer lock.
struct ConnState {
    conn: Arc<Conn>,
    asm: FrameAssembler,
    /// Read side open (false after EOF or corruption).
    open_read: bool,
    /// The socket was full at the end of the last write pass: poll for
    /// writability. A poster that fills it later says so with a wake.
    poll_out: bool,
}

fn reactor_loop(
    conns: Vec<Arc<Conn>>,
    wake_rx: TcpStream,
    wake_pending: Arc<AtomicBool>,
    dispatch: Arc<dyn FrameDispatch>,
    met: ReactorMetrics,
) {
    let mut states: Vec<ConnState> = conns
        .into_iter()
        .map(|conn| ConnState {
            conn,
            asm: FrameAssembler::new(),
            open_read: true,
            poll_out: false,
        })
        .collect();
    let mut buf = vec![0u8; READ_CHUNK];
    let mut slots: Vec<PollSlot> = Vec::new();
    // slot index -> states index (slot 0 is the wake channel).
    let mut slot_conn: Vec<usize> = Vec::new();

    loop {
        if dispatch.stopping() {
            final_flush(&states, &*dispatch, &met);
            return;
        }

        slots.clear();
        slot_conn.clear();
        slots.push(PollSlot {
            fd: raw_fd(&wake_rx),
            events: POLL_IN,
            revents: 0,
        });
        for (i, st) in states.iter().enumerate() {
            let mut ev = 0i16;
            if st.open_read {
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

        let ready = match poll_wait(&mut slots, POLL_TIMEOUT_MS) {
            Ok(n) => n,
            Err(_) => continue,
        };
        if ready > 0 {
            met.poll_batch.record(ready as u64);
        }

        if slots[0].revents & (POLL_IN | POLL_ERR | POLL_HUP) != 0 {
            consume_wake(&wake_rx, &wake_pending);
        }

        // Reads: only where the poller reported readiness.
        let mut replies: Vec<Vec<u8>> = Vec::new();
        for (si, slot) in slots.iter().enumerate().skip(1) {
            if slot.revents & (POLL_IN | POLL_ERR | POLL_HUP) == 0 {
                continue;
            }
            let st = &mut states[slot_conn[si - 1]];
            if !st.open_read {
                continue; // POLLHUP on a write-only slot
            }
            service_read(st, &mut buf, &dispatch, &met, &mut replies);
            if !replies.is_empty() {
                st.conn.writer().pending.extend(replies.drain(..));
            }
        }

        // Writes: whatever is owed on any connection — replies from the
        // reads above, frames a poster handed over, residue a full
        // socket left behind — until the kernel pushes back. Waiting
        // for the lock is waiting out a poster's nonblocking write.
        // A connection with nothing left to read and nothing left (or
        // possible) to write leaves the loop.
        states.retain_mut(|st| {
            let mut w = st.conn.writer();
            w.flush(&st.conn, &*dispatch, &met);
            st.poll_out = w.want_write && w.open_write;
            st.open_read
                || (w.open_write && !(w.pending.is_empty() && st.conn.queue.frames() == 0))
        });
    }
}

/// The read side found the stream unusable: stop writing to it too.
fn close_write(conn: &Conn) {
    conn.writer().open_write = false;
}

/// Read until `WouldBlock` (or the fairness chunk is consumed once),
/// feeding the frame assembler and dispatching completed frames.
fn service_read(
    st: &mut ConnState,
    buf: &mut [u8],
    dispatch: &Arc<dyn FrameDispatch>,
    met: &ReactorMetrics,
    replies: &mut Vec<Vec<u8>>,
) {
    let (peer, nic) = (st.conn.peer, st.conn.nic);
    loop {
        match (&st.conn.stream).read(buf) {
            Ok(0) => {
                // EOF. Clean only on a frame boundary; mid-frame it is a
                // truncation (unless the world is tearing down).
                if st.asm.mid_frame() && !dispatch.stopping() {
                    dispatch.on_corrupt(peer, nic);
                    let _ = st.conn.stream.shutdown(Shutdown::Both);
                    close_write(&st.conn);
                }
                st.open_read = false;
                return;
            }
            Ok(n) => {
                let fed = st.asm.feed(&buf[..n], &mut |f: Frame| {
                    dispatch.on_frame(peer, nic, f, replies);
                });
                if fed.is_err() {
                    // Corrupt length prefix: nothing after this point
                    // can be framed.
                    if !dispatch.stopping() {
                        dispatch.on_corrupt(peer, nic);
                    }
                    let _ = st.conn.stream.shutdown(Shutdown::Both);
                    st.open_read = false;
                    close_write(&st.conn);
                    return;
                }
                if n < buf.len() {
                    // Short read: the socket is drained. Stop here
                    // rather than eating one more WouldBlock syscall.
                    if st.asm.mid_frame() {
                        met.partial_reads.inc();
                    }
                    return;
                }
                // Full buffer: yield to siblings, poll will re-arm.
                if st.asm.mid_frame() {
                    met.partial_reads.inc();
                }
                return;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if st.asm.mid_frame() {
                    met.partial_reads.inc();
                }
                return;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Reset / aborted: treated like EOF (clean on boundary —
                // a racing close of a loopback socket with in-flight
                // data surfaces as a reset).
                if st.asm.mid_frame() && !dispatch.stopping() {
                    dispatch.on_corrupt(peer, nic);
                    close_write(&st.conn);
                }
                let _ = st.conn.stream.shutdown(Shutdown::Both);
                st.open_read = false;
                return;
            }
        }
    }
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
        fn on_frame(&self, _: usize, _: usize, _: Frame, _: &mut Vec<Vec<u8>>) {}
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
        let pool = ReactorPool::spawn(1, conns, dispatch.clone(), met.clone(), "test").unwrap();

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
