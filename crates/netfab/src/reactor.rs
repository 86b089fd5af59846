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
//!   FFI declaration — the hermetic rule bans external *crates*, not
//!   syscalls) over its streams plus one **wake channel**;
//! * reads feed a per-connection [`FrameAssembler`] that reassembles
//!   length-prefixed frames across arbitrary partial reads, behind a
//!   per-connection reader lock. **Whoever waits reads**: a rank thread
//!   with nothing to do but wait polls the rank's sockets itself
//!   ([`ReactorPool::wait_readable`]) and reads and dispatches on its
//!   own thread, so nothing has to wake it; the owning reactor keeps
//!   read interest only while no rank thread waits (the yield and
//!   look-again rule is on `reactor_loop`);
//! * sends push onto a per-connection [`FrameQueue`] (a `VecDeque`
//!   behind a mutex held for one push or one drain, so wire order is
//!   push order) and are put on the wire by a per-connection write state
//!   machine that survives partial writes. **Whoever finds that writer
//!   idle writes**: the posting thread itself when it can take the
//!   writer lock and the socket is not known to be full
//!   ([`ReactorPool::post`]), the owning reactor otherwise — after a
//!   `WouldBlock` (it polls for writability), or when a poster found
//!   another thread writing and handed its frame over with a wake.
//!
//! The pool size is fixed ([`DEFAULT_REACTORS`]), so the thread
//! budget is **flat in world size**: `main + nreactors` threads per
//! process whether the world has 4 ranks or 64 — a waiting rank thread
//! that reads is a thread the rank already had, and the protocol's
//! timers run on reactor 0 ([`FrameDispatch::tick`]).
//!
//! The reactor knows nothing about regions, signals or the reliable
//! protocol: inbound frames are handed to a [`FrameDispatch`]
//! implemented by the fabric, which may return already-encoded reply
//! frames (GET replies, acks) that the reader appends to the same
//! connection's write state — replies bypass the backpressure cap
//! because a reader cannot wait on a backlog it may itself be
//! responsible for draining.

use std::cell::RefCell;
use std::io::{self, Read};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use unr_obs::metrics::{Counter, Gauge, Histogram};
use unr_obs::Obs;

use crate::conn::Reader;
pub use crate::conn::{Conn, FrameQueue};
#[cfg(doc)]
use crate::frame::FrameAssembler;
use crate::frame::OutFrame;
use crate::poll::consume_wake;
pub use crate::poll::{
    poll_wait, Parked, PollSlot, Waiting, WakeHandle, POLL_ERR, POLL_HUP, POLL_IN, POLL_OUT,
};

/// Reactor threads per process.
pub const DEFAULT_REACTORS: usize = 2;

/// Per-connection writer-queue cap in bytes; producers stall (counted
/// in `unr.transport.reactor.backpressure_stalls`) above this. The
/// queue is the backlog — nothing leaves it while the socket is full
/// (see `Writer::flush`) — so this bounds what a peer that stops
/// reading can make this process hold.
pub const QUEUE_CAP_BYTES: usize = 8 * 1024 * 1024;

/// `SO_SNDBUF` asked for on every data stream. At the kernel default
/// (`net.core.wmem_default`, 208 KiB) the frames the old TCP mesh's
/// autotuned buffer absorbed wait in the writer queue instead: on the
/// benchmark's `net-stream-large` (2 MiB in flight per window) that
/// raised `peak_rss_mb` 8–15 % (9.5 → 10.9 MB) and `lat_p90_us` up to
/// 50 %. The kernel caps the request at `net.core.wmem_max`, 4 MiB on
/// the 2-vCPU VM where this was measured, and doubles what it grants.
pub const SEND_BUF_BYTES: usize = 4 * 1024 * 1024;

/// Poller timeout; the wake channel makes wakeups instant, this only
/// bounds how long a reactor can miss a `stopping` flag — and is what a
/// lost wake-up would cost, which is how tests recognise one.
pub const POLL_TIMEOUT_MS: i32 = 250;

/// Poller timeout of a reactor that has yielded its read interest to
/// waiting rank threads: how soon it looks again, so the longest an
/// arrival can sit unread after the last wait.
pub const YIELD_POLL_MS: i32 = 1;

/// A waiter's timeout below which [`ReactorPool::wait_readable`] spins
/// (non-blocking polls and yields) instead of blocking in `poll(2)`,
/// whose millisecond timeout would oversleep it.
const SPIN_BELOW: Duration = Duration::from_millis(1);

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
    /// event wake channels (a ring that found a rank thread parked).
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
            backpressure_stalls: obs
                .metrics
                .counter("unr.transport.reactor.backpressure_stalls"),
            wakeups: obs.metrics.counter("unr.transport.reactor.wakeups"),
            reads_by_waiter: obs.metrics.counter("unr.transport.reactor.reads_by_waiter"),
            reads_by_reactor: obs
                .metrics
                .counter("unr.transport.reactor.reads_by_reactor"),
        }
    }
}

/// What one read pass did, summed over the frames it completed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadPass {
    /// Bytes taken off the socket.
    pub bytes: usize,
    /// Frames [`FrameDispatch::on_frame`] applied.
    pub applied: usize,
    /// Replies were appended and the socket filled up before they were
    /// all written: the owning reactor must poll for writability.
    reply_blocked: bool,
}

impl ReadPass {
    fn add(&mut self, other: ReadPass) {
        self.bytes += other.bytes;
        self.applied += other.applied;
    }
}

/// What a reader does with protocol events; implemented by the
/// fabric (which owns regions, the atomic-add sink and the down
/// latches). The reactor itself stays protocol-agnostic.
pub trait FrameDispatch: Send + Sync + 'static {
    /// One whole inbound frame from `(peer, nic)`: its kind and its
    /// body, borrowed from the read buffer (or, for a frame cut across
    /// reads, from the connection's assembly buffer). Encoded reply
    /// frames pushed into `replies` are transmitted on the same
    /// connection, ahead of backpressure (a reader cannot park on the
    /// queue it may have to drain). Runs on whichever thread read the
    /// frame — a reactor or a waiting rank thread — under that
    /// connection's reader lock. It must not post (replies are
    /// returned, never sent from here) and wakes nobody: it returns
    /// whether it applied anything to this rank's memory, signals or
    /// retry state — `false` for an unknown kind or a protocol error
    /// reported through [`on_corrupt`](Self::on_corrupt) — and the
    /// reader decides who needs to hear of it.
    fn on_frame(
        &self,
        peer: usize,
        nic: usize,
        kind: u8,
        body: &[u8],
        replies: &mut Vec<Vec<u8>>,
    ) -> bool;
    /// A reactor's read pass applied frames: wake whoever waits for
    /// them. Not called for a waiting rank thread's own reads — it
    /// looks for itself.
    fn announce(&self);
    /// The stream delivered unframeable bytes (corrupt prefix or death
    /// mid-frame) or refused a write, outside teardown; the dispatcher
    /// latches it down. Called by readers and by posting threads.
    fn on_corrupt(&self, peer: usize, nic: usize);
    /// Whether fabric teardown has begun (reactors exit their loops).
    fn stopping(&self) -> bool;
    /// Do what the protocol has falling due, on reactor 0 at the top of
    /// each pass; returns how soon to be called again, `None` for not
    /// before the poll timeout. Posts it makes must not wait on
    /// backpressure. Nothing, by default.
    fn tick(&self) -> Option<Duration> {
        None
    }
}

// ---------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------

thread_local! {
    /// The poll set of this thread's [`ReactorPool::wait_readable`],
    /// kept between waits so a wait allocates nothing.
    static WAIT_SLOTS: RefCell<Vec<PollSlot>> = const { RefCell::new(Vec::new()) };
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
            let ticks = r == 0;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("netfab-reactor-{tag}-{r}"))
                    .spawn(move || reactor_loop(mine, rx, pending, waiting, dis, m, ticks))?,
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
    /// overtakes one posted before it. It never waits, so a reactor may
    /// post too (a [`FrameDispatch::tick`]'s retransmissions).
    ///
    /// Every frame keeps an owner. This thread gets the lock: it takes
    /// the queue once and writes it out, and if the socket fills up
    /// first wakes the reactor to poll for writability. The lock is
    /// taken: the holder may be past its one look at the queue, so the
    /// reactor is woken, and drains it once the holder lets go. The
    /// socket is already full (`want_write`, read under the lock): the
    /// reactor polls, or is being woken to poll, for writability, and
    /// its pass on `POLLOUT` drains the queue after this push.
    ///
    /// A poisoned writer lock is taken like a free one (see
    /// [`Conn`]'s `writer`). Returns the bytes queued with the frame,
    /// before anyone wrote: what a poster's backpressure check reads.
    pub fn post(&self, conn: &Conn, frame: OutFrame) -> usize {
        let queued = conn.queue.push(frame);
        let writer = match conn.writer.try_lock() {
            Ok(w) => Some(w),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        };
        let wake = match writer {
            Some(w) if w.want_write => false,
            Some(mut w) => {
                w.flush(conn, &*self.dispatch, &self.met);
                w.want_write
            }
            None => true,
        };
        if wake {
            self.wake(conn.reactor);
        }
        queued
    }

    /// Progress `conns` on the calling (rank) thread: block until one
    /// of them is readable, `wake_rx` is, or `timeout` runs out (rounded
    /// up to whole milliseconds; under `SPIN_BELOW`, spin against the
    /// wall deadline instead), then run one read pass on each
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
        wake_rx: &UnixStream,
        timeout: Duration,
    ) -> Waited {
        // Slot 0 is the wake channel, slot i + 1 is `conns[i]`; a
        // connection with its read side closed holds its place with a
        // descriptor `poll(2)` ignores. The set is rebuilt in the
        // calling thread's own buffer, taken for the call (a nested
        // call would just make a new one) and put back after.
        let mut slots = WAIT_SLOTS.take();
        slots.clear();
        slots.push(PollSlot {
            fd: wake_rx.as_raw_fd(),
            events: POLL_IN,
            revents: 0,
        });
        slots.extend(conns.iter().map(|c| match c.open_read() {
            true => PollSlot {
                fd: c.stream.as_raw_fd(),
                events: POLL_IN,
                revents: 0,
            },
            false => PollSlot {
                fd: -1,
                events: 0,
                revents: 0,
            },
        }));
        let ready = if timeout < SPIN_BELOW {
            let deadline = Instant::now() + timeout;
            loop {
                let ready = poll_wait(&mut slots, 0).unwrap_or(0);
                if ready > 0 || Instant::now() >= deadline {
                    break ready;
                }
                std::thread::yield_now();
            }
        } else {
            let timeout_ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
            poll_wait(&mut slots, timeout_ms).unwrap_or(0)
        };
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
        let waited = Waited {
            reads,
            woken: slots[0].readable(),
            expired: ready == 0,
        };
        WAIT_SLOTS.set(slots);
        waited
    }

    /// Wake everyone and join the threads (callers set the dispatcher's
    /// `stopping` flag first). Idempotent; never joins the current
    /// thread.
    pub fn shutdown(&self) {
        for w in &self.wakes {
            w.wake(&self.met);
        }
        let handles =
            std::mem::take(&mut *self.threads.lock().unwrap_or_else(PoisonError::into_inner));
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
/// its business; reads only while no rank thread waits. Reactor 0
/// (`ticks`) also calls [`FrameDispatch::tick`] at the top of each pass
/// and polls no longer than the tick asks: the protocol's timers need
/// no thread of their own.
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
    wake_rx: UnixStream,
    wake_pending: Arc<AtomicBool>,
    waiting: Arc<Waiting>,
    dispatch: Arc<dyn FrameDispatch>,
    met: ReactorMetrics,
    ticks: bool,
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

        // Ticked before the poll set is built: what the tick posts is
        // written by this pass or waits in the queue with a wake.
        let due = if ticks { dispatch.tick() } else { None };
        let entries = waiting.entries.load(Ordering::SeqCst);
        let yielded = !states.is_empty() && (waiting.parked() > 0 || entries != entries_seen);
        entries_seen = entries;

        slots.clear();
        slot_conn.clear();
        slots.push(PollSlot {
            fd: wake_rx.as_raw_fd(),
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
                    fd: st.conn.stream.as_raw_fd(),
                    events: ev,
                    revents: 0,
                });
                slot_conn.push(i);
            }
        }

        let timeout = if yielded {
            YIELD_POLL_MS
        } else {
            POLL_TIMEOUT_MS
        };
        let timeout = due.map_or(timeout, |due| {
            due.as_nanos().div_ceil(1_000_000).min(timeout as u128) as i32
        });
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
        if reads.applied > 0 {
            dispatch.announce();
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
    // Poisoned or not: a reader that panicked outside a feed left the
    // assembler where its last feed ended, so the next one carries on
    // from there. One that panicked inside a feed lost the rest of its
    // read, and the stream cannot be framed past that point.
    let mut reader = conn.reader.lock().unwrap_or_else(PoisonError::into_inner);
    if !conn.open_read() {
        return pass; // closed by the reader we waited out
    }
    let close_read = || conn.open_read.store(false, Ordering::SeqCst);
    let (peer, nic) = (conn.peer, conn.nic);
    let latch_corrupt = || {
        if !dispatch.stopping() {
            dispatch.on_corrupt(peer, nic);
        }
        conn.close();
        close_read();
        close_write(conn);
    };
    let Reader { asm, buf, feeding } = &mut *reader;
    if *feeding {
        latch_corrupt();
        return pass;
    }
    let n = loop {
        match (&conn.stream).read(buf) {
            Ok(0) => {
                // EOF. Clean only on a frame boundary; mid-frame it is a
                // truncation (unless the world is tearing down).
                if asm.mid_frame() && !dispatch.stopping() {
                    dispatch.on_corrupt(peer, nic);
                    conn.close();
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
                // a close with unread data in the closing side's
                // buffer surfaces as a reset).
                if asm.mid_frame() && !dispatch.stopping() {
                    dispatch.on_corrupt(peer, nic);
                    close_write(conn);
                }
                conn.close();
                close_read();
                return pass;
            }
        }
    };
    pass.bytes = n;
    let mut replies: Vec<Vec<u8>> = Vec::new();
    *feeding = true;
    let fed = asm.feed(&buf[..n], &mut |(kind, body)| {
        pass.applied += usize::from(dispatch.on_frame(peer, nic, kind, body, &mut replies));
    });
    *feeding = false;
    if fed.is_err() {
        // Corrupt length prefix: nothing after this point can be
        // framed.
        latch_corrupt();
        return pass;
    }
    if asm.mid_frame() {
        met.partial_reads.inc();
    }
    if !replies.is_empty() {
        // Behind whatever is half-written, ahead of the queue and its
        // cap, and on the wire now if the socket takes them.
        let mut w = conn.writer();
        w.pending.extend(replies.into_iter().map(OutFrame::Whole));
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
            // A poster's wake may go unanswered now: take its frames.
            let full = w.want_write;
            if !full && (!w.open_write || st.conn.queue.frames() == 0) {
                break;
            }
            drop(w);
            if full {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

/// OS-level thread count of the current process (`/proc/self/status`
/// `Threads:`; `None` if it cannot be read). The storm reports this so
/// the flat-thread-budget claim is asserted end-to-end.
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
    use crate::conn::Writer;
    use crate::poll::wake_pair;
    use std::collections::VecDeque;
    use std::io::Write;
    use std::sync::atomic::AtomicUsize;

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
        let got: Vec<u8> = out
            .iter()
            .map(|f| match f {
                OutFrame::Whole(v) => v[0],
                OutFrame::Split { .. } => unreachable!("pushed whole"),
            })
            .collect();
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
        fn on_frame(&self, _: usize, _: usize, _: u8, _: &[u8], _: &mut Vec<Vec<u8>>) -> bool {
            false
        }
        fn announce(&self) {}
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
                        pool.post(conn, f.unwrap().into());
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
                assert!(
                    f.body[8..].iter().all(|&b| b == fill(t, i)),
                    "frame {t}/{i} torn"
                );
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
        fn on_frame(
            &self,
            _: usize,
            _: usize,
            kind: u8,
            body: &[u8],
            _: &mut Vec<Vec<u8>>,
        ) -> bool {
            let i = self.seen.fetch_add(1, Ordering::SeqCst) as u64 % self.period;
            let whole = kind == crate::frame::FRAME_CTRL
                && body.len() == (self.body_len)(i)
                && body[..8] == i.to_le_bytes()
                && body[8..].iter().all(|&b| b == (i * 7 + 3) as u8);
            if !whole {
                self.wrong.fetch_add(1, Ordering::SeqCst);
            }
            true
        }
        fn announce(&self) {}
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
        assert_eq!(
            dispatch.wrong.load(Ordering::SeqCst),
            0,
            "torn or reordered frames"
        );
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
        let pool = ReactorPool::spawn(
            1,
            Vec::new(),
            waiting,
            dispatch.clone(),
            met.clone(),
            "test",
        )
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

    /// A thread that panicked holding a connection's reader and writer
    /// locks leaves them poisoned: every later post and read on that
    /// connection must still go through, whole and in order.
    #[test]
    fn a_poisoned_connection_still_posts_and_reads_in_order() {
        const FRAMES: u64 = 40;
        fn body_len(i: u64) -> usize {
            8 + (i as usize * 53) % 300
        }
        let (peer, ours) = wake_pair().unwrap();
        let conn = Arc::new(Conn::new(1, 0, 0, ours).unwrap());
        let conns = vec![Arc::clone(&conn)];
        let dispatch = Arc::new(InOrder::new(FRAMES, body_len));
        let met = ReactorMetrics::register(&Obs::new());
        // A reactor with no connection of its own: the test reads.
        let waiting = Arc::new(Waiting::default());
        let pool =
            ReactorPool::spawn(1, Vec::new(), waiting, dispatch.clone(), met, "test").unwrap();
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = (conn.reader.lock(), conn.writer.lock());
                panic!("poisoning the connection's locks on purpose");
            })
            .join()
        });
        assert!(died.is_err());
        assert!(conn.reader.is_poisoned() && conn.writer.is_poisoned());

        for i in 0..FRAMES {
            pool.post(&conn, tagged_frame(i, body_len(i)).into());
        }
        for i in 0..FRAMES {
            let f = crate::frame::read_frame(&mut &peer).expect("a whole frame");
            let want = tagged_frame(i, body_len(i));
            assert_eq!((f.kind, &f.body[..]), (want[4], &want[5..]), "frame {i}");
        }

        let (_idle, idle_rx) = WakeHandle::channel().unwrap();
        for i in 0..FRAMES {
            (&peer).write_all(&tagged_frame(i, body_len(i))).unwrap();
        }
        let t0 = std::time::Instant::now();
        while dispatch.seen.load(Ordering::SeqCst) < FRAMES as usize {
            assert!(t0.elapsed().as_secs() < 30, "the frames never came");
            pool.wait_readable(&conns, &idle_rx, Duration::from_millis(100));
        }
        assert_eq!(dispatch.seen.load(Ordering::SeqCst), FRAMES as usize);
        assert_eq!(dispatch.wrong.load(Ordering::SeqCst), 0);
        assert_eq!(dispatch.corrupt.load(Ordering::SeqCst), 0);
        dispatch.stopping.store(true, Ordering::SeqCst);
        pool.shutdown();
    }

    /// Counts frames and panics on frame `panic_at`, once.
    #[derive(Default)]
    struct PanicAt {
        panic_at: usize,
        seen: AtomicUsize,
        corrupt: AtomicUsize,
    }

    impl FrameDispatch for PanicAt {
        fn on_frame(&self, _: usize, _: usize, _: u8, _: &[u8], _: &mut Vec<Vec<u8>>) -> bool {
            if self.seen.fetch_add(1, Ordering::SeqCst) == self.panic_at {
                panic!("the dispatcher fails on purpose");
            }
            true
        }
        fn announce(&self) {}
        fn on_corrupt(&self, _: usize, _: usize) {
            self.corrupt.fetch_add(1, Ordering::SeqCst);
        }
        fn stopping(&self) -> bool {
            false
        }
    }

    /// A dispatcher that panics inside a feed loses the rest of that
    /// read: the next reader latches the connection down instead of
    /// framing the stream from the middle of a frame or handing a frame
    /// over twice.
    #[test]
    fn a_reader_that_panicked_inside_a_feed_latches_the_connection() {
        for cut in [None, Some(3)] {
            let (peer, ours) = wake_pair().unwrap();
            let conn = Conn::new(1, 0, 0, ours).unwrap();
            let dispatch = PanicAt {
                panic_at: 1,
                ..PanicAt::default()
            };
            let met = ReactorMetrics::register(&Obs::new());
            let stream: Vec<u8> = (0..4).flat_map(|i| tagged_frame(i, 64)).collect();
            // Whole frames only, or the second frame cut across reads.
            let split = cut.map_or(stream.len(), |c| tagged_frame(0, 64).len() + c);
            let died = std::thread::scope(|s| {
                s.spawn(|| {
                    for part in [&stream[..split], &stream[split..]] {
                        (&peer).write_all(part).unwrap();
                        let (t0, mut read) = (std::time::Instant::now(), 0);
                        while read < part.len() {
                            assert!(t0.elapsed().as_secs() < 30, "the bytes never came");
                            read += service_read(&conn, &dispatch, &met).bytes;
                        }
                    }
                })
                .join()
            });
            assert!(died.is_err(), "cut {cut:?}");
            assert_eq!(dispatch.seen.load(Ordering::SeqCst), 2, "cut {cut:?}");
            service_read(&conn, &dispatch, &met);
            assert_eq!(dispatch.seen.load(Ordering::SeqCst), 2, "cut {cut:?}");
            assert_eq!(dispatch.corrupt.load(Ordering::SeqCst), 1, "cut {cut:?}");
            assert!(!conn.open_read() && !conn.writer().open_write);
        }
    }

    /// Accepts at most `cap` bytes a call — across a vectored call's
    /// slices, as `writev` does — `first` on its first, and refuses
    /// every other call with `WouldBlock`, as a full socket would.
    struct Trickle {
        out: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[io::IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let mut room = self.cap;
            for b in bufs {
                let take = b.len().min(room);
                self.out.extend_from_slice(&b[..take]);
                room -= take;
            }
            let wrote = self.cap - room;
            self.cap = 7;
            Ok(wrote)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// What the writer puts on the wire for `frame` when the socket
    /// takes `first` bytes, then 7 at a time, with a full socket in
    /// between every write.
    fn trickled(frame: OutFrame, first: usize) -> Vec<u8> {
        let mut w = Writer {
            pending: VecDeque::from([frame]),
            front_off: 0,
            want_write: false,
            open_write: true,
        };
        let mut sock = Trickle {
            out: Vec::new(),
            cap: first,
            calls: 0,
        };
        while let Err(e) = w.write_pending(&mut sock) {
            assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
        }
        assert!(sock.calls > 2, "the frame went out in one write");
        sock.out
    }

    /// A `MSG_AGG` goes on the wire from the retry table's own buffer,
    /// behind a head of its own, and its retransmission is that buffer
    /// again: the same bytes as the first transmission — `agg_msg` in
    /// a `CTRL` frame, in the epoch envelope once there is one — however
    /// the socket cuts the writes, inside the head or inside the body.
    #[test]
    fn a_retransmitted_aggregate_writes_what_its_first_transmission_wrote() {
        use unr_core::{wire, CtrlFrame, Resend, RetryPolicy, RetryState};
        let policy = RetryPolicy {
            timeout: 10,
            max_backoff: 100,
            max_retries: 5,
            fallback_after: 3,
            nics: 1,
            ns_per_byte: 0.0,
        };
        let retry = RetryState::new(policy, 2);
        let payload: Vec<u8> = (0..300).map(|i| i as u8).collect();
        let (spans, sigs) = ([(3, 0, 100), (3, 512, 200)], [(9, -2)]);
        let reg = retry.register_agg(1, 0, &spans, &sigs, &payload);
        retry.arm(0, &[(1, reg.seq)], |_| {});
        let out = retry.sweep(1 << 40);
        let [Resend::Dgram { bytes: again, .. }] = &out.resends[..] else {
            panic!("one resend on the datagram channel");
        };
        let CtrlFrame::Shared(shared) = again else {
            panic!("the aggregate's resend is its buffered frame");
        };
        assert_eq!(shared.as_ptr(), reg.frame.as_ptr(), "the same buffer");

        let msg = wire::agg_msg(reg.seq, true, &spans, &sigs, &payload);
        for epoch in [0, 3] {
            let stamped = unr_core::ctrl::stamp(epoch, &msg);
            let want = crate::frame::encode_frame(crate::frame::FRAME_CTRL, &[&stamped]).unwrap();
            let head = want.len() - msg.len();
            // Cut inside the length prefix, inside the envelope (or
            // right after the head), and inside the body.
            for first in [3, 7, head + 10] {
                let first_tx = OutFrame::ctrl(epoch, CtrlFrame::Shared(reg.frame.clone())).unwrap();
                let resend = OutFrame::ctrl(epoch, again.clone()).unwrap();
                assert!(matches!(resend, OutFrame::Split { .. }));
                assert_eq!(
                    trickled(first_tx, first),
                    want,
                    "epoch {epoch}, cut {first}"
                );
                assert_eq!(trickled(resend, first), want, "epoch {epoch}, cut {first}");
            }
        }
    }

    /// A fresh data stream whose peer reads nothing takes one
    /// `net-stream-large` window (8 puts of 256 KiB) of frames into the
    /// kernel before `WouldBlock`, or half of what `net.core.wmem_max`
    /// lets [`SEND_BUF_BYTES`] grant where that is less. At the kernel's
    /// default buffer the window waits in the writer queue instead.
    #[test]
    fn a_fresh_stream_takes_a_window_before_it_blocks() {
        const WINDOW: usize = 8 * 256 * 1024;
        let wmem_max: usize = std::fs::read_to_string("/proc/sys/net/core/wmem_max")
            .expect("net.core.wmem_max")
            .trim()
            .parse()
            .expect("a byte count");
        let want = WINDOW.min(wmem_max / 2);
        let (ours, _deaf) = UnixStream::pair().unwrap();
        let conn = Conn::new(1, 0, 0, ours).unwrap();
        let frame =
            crate::frame::encode_frame(crate::frame::FRAME_PUT, &[&[7; 64 * 1024]]).unwrap();
        let mut taken = 0;
        loop {
            match (&conn.stream).write(&frame) {
                Ok(n) => taken += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("write to a live stream: {e}"),
            }
            assert!(taken < 16 * SEND_BUF_BYTES, "the stream never filled");
        }
        assert!(
            taken >= want,
            "{taken} bytes before WouldBlock, want {want} (wmem_max {wmem_max})"
        );
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
            fd: rx.as_raw_fd(),
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
        rx: &'a UnixStream,
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
                fd: rx.as_raw_fd(),
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
