//! The TCP-loopback fabric: per-rank NIC sockets, emulated RMA regions,
//! and the atomic-add sink — all I/O driven by the reactor pool.
//!
//! A [`NetFabric`] owns, for each `(peer, nic)` pair, one bidirectional
//! **nonblocking** `TcpStream` registered with exactly one reactor
//! thread ([`crate::reactor`]). Sends encode the whole frame up front,
//! push it onto the connection's lock-free writer queue and, when
//! nobody else is writing that socket and it is not full, write it from
//! the posting thread; otherwise the owning reactor is woken to do it
//! (one write state machine, surviving partial writes, serves both).
//! Inbound bytes are reassembled by a
//! per-connection [`frame::FrameAssembler`] and *applied* by whoever
//! read them — payloads land in the destination [`NetRegion`], custom
//! bits go to the installed [`NetAddSink`] — which is exactly the
//! paper's level-2 emulation: an agent performs the `*p += a` the
//! level-4 NIC would do in hardware. **Whoever waits reads**: a rank
//! thread in [`NetFabric::wait_progress`] polls the rank's sockets
//! itself and applies what arrives on its own thread, so the waiter
//! runs the moment the bytes do, with no wake-up in between; the
//! reactors read only while no rank thread waits. The thread budget is
//! flat in world size: `main + progress + nreactors` regardless of rank
//! count.
//!
//! Two bells wake sleepers. The **event bell** rings whenever a
//! waiter's predicate may have changed behind its back — a reactor's
//! read pass applied data frames, the progress thread handled control
//! messages, a stream latched down, teardown. It has no condvar: it is
//! an atomic epoch plus one wake channel, because its sleepers sleep in
//! `poll(2)` over the sockets, and a ring costs a byte on that channel
//! only when a waiter is parked there. What a waiter reads itself rings
//! nothing. The **control bell** (epoch + condvar) rings when there is
//! work for the engine's progress thread — a control message a reactor
//! queued, a retransmit deadline to start watching, teardown — so that
//! thread sleeps through data frames, which it has no part in, and
//! through control frames a waiter read, which that waiter handles.
//!
//! A [`NetRegion`] is the workspace's one raw region buffer
//! ([`unr_simnet::MemRegion`], the only raw-memory module) under a
//! fabric-local id: the reading thread deposits a payload with one bulk
//! copy and application threads read it with another, under the RMA
//! race contract documented there — the MMAS signal counter (SeqCst
//! `fetch_add` by the applier, SeqCst `load` by the waiter), not the
//! buffer, is the happens-before edge, mirroring how real RMA hardware
//! writes memory. A payload that cannot land (unknown region, range
//! out of bounds) takes its notification down with it
//! (`unr.transport.bad_dma`): a signal never fires for bytes that
//! never arrived.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use unr_obs::metrics::Counter;
use unr_obs::Obs;
use unr_simnet::MemRegion;

use crate::frame;
use crate::reactor::{
    pool_size_from_env, Conn, Delivery, FrameDispatch, ReactorMetrics, ReactorPool, ReadPass,
    Waiting, WakeHandle, QUEUE_CAP_BYTES,
};

/// Consumer of inbound 128-bit custom bits — the emulated atomic-add
/// unit. `NetUnr` installs a sink that decodes the bits into a
/// [`unr_core::Notif`] and applies it to its signal table.
pub trait NetAddSink: Send + Sync {
    /// Apply one delivery of custom bits (`*p += a` on the MMAS table).
    fn apply(&self, custom: u128);
}

/// `unr.transport.*` counters registered in the fabric's [`Obs`].
/// Cloning shares the underlying counters (they are `Arc`s) — the
/// reactor dispatcher holds a clone.
#[derive(Clone)]
pub struct TransportMetrics {
    /// Frames written to peer sockets (all kinds).
    pub tx_frames: Arc<Counter>,
    /// Frames received and applied by reader threads.
    pub rx_frames: Arc<Counter>,
    /// Payload bytes sent in PUT / GET_REP frames.
    pub tx_bytes: Arc<Counter>,
    /// Payload bytes received in PUT / GET_REP frames.
    pub rx_bytes: Arc<Counter>,
    /// Established mesh streams (one per peer × NIC).
    pub conns: Arc<Counter>,
    /// Custom-bits deliveries applied through the atomic-add sink.
    pub atomic_adds: Arc<Counter>,
    /// Reliable-transport retransmissions (engine layer).
    pub retransmits: Arc<Counter>,
    /// Acks received by the reliable transport (engine layer).
    pub acks: Arc<Counter>,
    /// Duplicate deliveries suppressed by the dedup window.
    pub dup_suppressed: Arc<Counter>,
    /// First transmissions silently dropped by fault injection.
    pub drops_injected: Arc<Counter>,
    /// [`NetFabric::wait_progress`] polls that ran out with nothing
    /// readable and no ring (the control bell has no poll).
    pub wait_timeouts: Arc<Counter>,
    /// Unframeable inbound data: corrupt length prefixes or streams
    /// that died mid-frame (teardown excluded).
    pub frame_errors: Arc<Counter>,
    /// Streams latched down after a frame error (writes fail cleanly).
    pub streams_down: Arc<Counter>,
    /// Inbound RMA operations refused for naming an unknown region id
    /// or a range out of bounds: payloads that could not land (the
    /// notification that rode with each is dropped) and GET requests
    /// for bytes that are not there (no reply).
    pub bad_dma: Arc<Counter>,
}

impl TransportMetrics {
    /// Register all `unr.transport.*` instruments in `obs`.
    pub fn register(obs: &Obs) -> TransportMetrics {
        let c = |n: &str| obs.metrics.counter(n);
        TransportMetrics {
            tx_frames: c("unr.transport.tx_frames"),
            rx_frames: c("unr.transport.rx_frames"),
            tx_bytes: c("unr.transport.tx_bytes"),
            rx_bytes: c("unr.transport.rx_bytes"),
            conns: c("unr.transport.conns"),
            atomic_adds: c("unr.transport.atomic_adds"),
            retransmits: c("unr.transport.retransmits"),
            acks: c("unr.transport.acks"),
            dup_suppressed: c("unr.transport.dup_suppressed"),
            drops_injected: c("unr.transport.drops_injected"),
            wait_timeouts: c("unr.transport.wait_timeouts"),
            frame_errors: c("unr.transport.frame_errors"),
            streams_down: c("unr.transport.streams_down"),
            bad_dma: c("unr.transport.bad_dma"),
        }
    }
}

/// A registered memory region: a [`unr_simnet::MemRegion`] this fabric
/// registered under its own `(rank, id)`. Reactor threads (remote
/// "DMA") and application threads move bytes through it in bulk copies;
/// see the module doc for the race contract.
pub struct NetRegion {
    mem: MemRegion,
}

impl NetRegion {
    fn new(rank: usize, id: u32, len: usize) -> NetRegion {
        NetRegion {
            mem: MemRegion::new(rank, id, len),
        }
    }

    /// The buffer and the `RKey` it is registered under — what the
    /// engine's post path and `UnrMem` hold.
    pub fn mem(&self) -> &MemRegion {
        &self.mem
    }

    /// Region size in bytes.
    pub fn len(&self) -> usize {
        self.mem.len()
    }

    /// Whether the region is zero-sized (never: registration rejects 0).
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// Store `data` at `offset`; `false` if out of bounds (nothing is
    /// written, like a NIC refusing a bad DMA).
    #[must_use]
    pub fn write(&self, offset: usize, data: &[u8]) -> bool {
        self.mem.write_bytes(offset, data).is_ok()
    }

    /// Load `out.len()` bytes from `offset`; `false` if out of bounds.
    #[must_use]
    pub fn read(&self, offset: usize, out: &mut [u8]) -> bool {
        self.mem.read_bytes(offset, out).is_ok()
    }

    /// Append `len` bytes from `offset` to `out` in one copy (the DMA
    /// read that completes a wire frame); `false`, `out` untouched, if
    /// out of bounds.
    #[must_use]
    pub fn append_to(&self, offset: usize, len: usize, out: &mut Vec<u8>) -> bool {
        self.mem.append_to(offset, len, out).is_ok()
    }

    /// Copy `len` bytes from `offset` into a fresh `Vec` (panics on
    /// out-of-bounds; callers validate first).
    pub fn snapshot(&self, offset: usize, len: usize) -> Vec<u8> {
        self.mem
            .snapshot(offset, len)
            .expect("snapshot out of bounds")
    }
}

/// One wire frame around `len` bytes of `mem`, built in one pass:
/// length prefix, kind, `header`, then the payload copied once, straight
/// into the frame. `Err` if the range is out of bounds.
fn region_frame(
    mem: &MemRegion,
    kind: u8,
    header: &[u8],
    offset: usize,
    len: usize,
) -> io::Result<Vec<u8>> {
    // A GET names `len` from the wire: bound it by the region before
    // allocating for it.
    if len > mem.len() {
        return Err(invalid_input(format!(
            "{len} bytes of a {}-byte region",
            mem.len()
        )));
    }
    let mut buf = frame::frame_prefix(kind, header.len() + len)?;
    buf.extend_from_slice(header);
    mem.append_to(offset, len, &mut buf)
        .map_err(|e| invalid_input(e.to_string()))?;
    Ok(buf)
}

/// The event bell: an atomic epoch for sleepers that sleep in `poll(2)`
/// over the rank's sockets, not on a condvar. A waiter samples the
/// epoch *before* testing its predicate; to sleep it publishes itself
/// parked, re-reads the epoch, and only then polls, with `rx` in its
/// set. A ringer bumps the epoch and then looks for parked waiters.
/// Both steps on both sides are SeqCst, so of a ring and a park that
/// cross, either the waiter sees the new epoch and does not sleep, or
/// the ringer sees it parked and writes the wake byte. From there it is
/// [`WakeHandle`]'s argument: the byte stays readable until the waiter
/// consumes it, and a ring that finds `pending` set comes before that
/// consumer's re-arm, after which the waiter samples the epoch again.
/// While nobody is parked — a waiter reading its own sockets is not —
/// a ring is one atomic add and one load, and the channel stays empty.
struct EventBell {
    epoch: AtomicU64,
    /// Shared with the reactors, who yield their read interest to
    /// parked waiters.
    waiting: Arc<Waiting>,
    wake: WakeHandle,
    rx: TcpStream,
    /// Wake bytes count in `unr.transport.reactor.wakeups`.
    met: ReactorMetrics,
}

impl EventBell {
    fn new(met: ReactorMetrics) -> io::Result<EventBell> {
        let (wake, rx) = WakeHandle::channel()?;
        Ok(EventBell {
            epoch: AtomicU64::new(0),
            waiting: Arc::new(Waiting::default()),
            wake,
            rx,
            met,
        })
    }

    fn ring(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.waiting.parked() > 0 {
            self.wake.wake(&self.met);
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }
}

/// The control bell: an epoch + condvar pair. A sleeper samples the
/// epoch *before* looking for work and sleeps only while it still reads
/// the same, so a ring between the look and the sleep is never slept
/// through.
#[derive(Default)]
struct Bell {
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl Bell {
    fn ring(&self) {
        let mut e = self.epoch.lock().expect("bell lock");
        *e += 1;
        self.cv.notify_all();
    }

    fn epoch(&self) -> u64 {
        *self.epoch.lock().expect("bell lock")
    }

    /// Sleep until the epoch differs from `since` or `deadline` passes
    /// (`None`: for as long as it takes); `true` if it rang.
    fn wait_since(&self, since: u64, deadline: Option<Instant>) -> bool {
        let mut e = self.epoch.lock().expect("bell lock");
        while *e == since {
            e = match deadline {
                None => self.cv.wait(e).expect("bell condvar"),
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    None | Some(Duration::ZERO) => return false,
                    Some(left) => self.cv.wait_timeout(e, left).expect("bell condvar").0,
                },
            };
        }
        true
    }
}

/// State shared between the fabric handle and its reader threads.
/// Readers hold this `Arc` (plus a `Weak<NetFabric>` for replies), so
/// dropping the last application-side `NetFabric` reference can never
/// dead-lock on a reader joining itself.
struct Shared {
    /// Registered regions by id.
    regions: Mutex<HashMap<u32, Arc<NetRegion>>>,
    /// Inbound control messages: `(src_rank, wire bytes)`.
    ctrl: Mutex<VecDeque<(usize, Vec<u8>)>>,
    /// Rung when a waiter's predicate may have moved by another
    /// thread's doing, so `sig_wait` can sleep between events.
    events: EventBell,
    /// Rung when `ctrl` gains a message its reader will not handle
    /// itself and when the progress thread's sleep must be cut short
    /// for another reason.
    ctrl_bell: Bell,
    /// The emulated atomic-add unit; installed once by the engine.
    sink: OnceLock<Arc<dyn NetAddSink>>,
    /// Custom bits that arrived before the sink was installed — drained
    /// on installation so no addend is ever lost.
    pre_sink: Mutex<Vec<u128>>,
    stopping: AtomicBool,
    /// NICs per peer — the row stride of `down`.
    nics: usize,
    /// Per-`(peer, nic)` latch, set by a reader that hit an unframeable
    /// stream: subsequent writes on that stream fail cleanly instead of
    /// feeding a desynchronized peer.
    down: Box<[AtomicBool]>,
}

impl Shared {
    fn new(nranks: usize, nics: usize, reactor_met: ReactorMetrics) -> io::Result<Shared> {
        Ok(Shared {
            regions: Mutex::new(HashMap::new()),
            ctrl: Mutex::new(VecDeque::new()),
            events: EventBell::new(reactor_met)?,
            ctrl_bell: Bell::default(),
            sink: OnceLock::new(),
            pre_sink: Mutex::new(Vec::new()),
            stopping: AtomicBool::new(false),
            nics,
            down: (0..nranks * nics).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    fn region(&self, id: u32) -> Option<Arc<NetRegion>> {
        self.regions.lock().expect("regions lock").get(&id).cloned()
    }

    /// The receiving half of an emulated RMA write: `payload` into
    /// `(region, offset)` of this rank. `false`, counted in
    /// `unr.transport.bad_dma`, when the region is unknown or the range
    /// is out of bounds — the caller then drops the notification that
    /// rode with the payload.
    #[must_use]
    fn deposit(&self, met: &TransportMetrics, region: u32, offset: u64, payload: &[u8]) -> bool {
        let landed = usize::try_from(offset)
            .is_ok_and(|off| self.region(region).is_some_and(|r| r.write(off, payload)));
        if !landed {
            met.bad_dma.inc();
        }
        landed
    }

    /// Latch `(peer, nic)` down; `true` if this call flipped it.
    fn latch_down(&self, peer: usize, nic: usize) -> bool {
        !self.down[peer * self.nics + nic].swap(true, Ordering::Relaxed)
    }

    fn is_down(&self, peer: usize, nic: usize) -> bool {
        self.down[peer * self.nics + nic].load(Ordering::Relaxed)
    }

    fn apply_custom(&self, custom: u128) {
        if let Some(s) = self.sink.get() {
            s.apply(custom);
            return;
        }
        // Racy window before install: buffer, then re-check (the
        // installer drains under the same lock).
        let mut pend = self.pre_sink.lock().expect("pre_sink lock");
        if let Some(s) = self.sink.get() {
            drop(pend);
            s.apply(custom);
        } else {
            pend.push(custom);
        }
    }

    fn ring_bell(&self) {
        self.events.ring();
    }

    /// Queue one inbound control message; whoever read it sees that it
    /// is handled (a waiter by itself, a reactor by ringing the control
    /// bell once its pass is over).
    fn queue_ctrl(&self, src: usize, bytes: Vec<u8>) {
        self.ctrl.lock().expect("ctrl lock").push_back((src, bytes));
    }
}

/// The per-process TCP fabric: a full mesh of loopback streams to every
/// peer over `nics` parallel sockets, serviced by a fixed reactor pool.
pub struct NetFabric {
    rank: usize,
    nranks: usize,
    nics: usize,
    /// Connection registry: `conns[peer][nic]`; `None` on the diagonal
    /// (self). Static after `connect` — lookups are lock-free.
    conns: Vec<Vec<Option<Arc<Conn>>>>,
    /// The same connections in one row: a waiter's poll set.
    all_conns: Vec<Arc<Conn>>,
    /// The event-loop threads driving every stream above.
    pool: ReactorPool,
    next_region: AtomicU32,
    shared: Arc<Shared>,
    /// Metrics registry shared by the fabric and its engine.
    pub obs: Obs,
    /// `unr.transport.*` counters.
    pub met: TransportMetrics,
    /// `unr.transport.reactor.*` instruments.
    pub reactor_met: ReactorMetrics,
}

impl NetFabric {
    /// Establish the mesh given every rank's per-NIC listener ports.
    /// `listeners` are this rank's own bound listeners (one per NIC).
    /// For each unordered pair `(i, j)` with `i < j`, rank `i` dials and
    /// rank `j` accepts; the dialer sends a `HELLO` identifying itself.
    pub fn connect(
        rank: usize,
        nranks: usize,
        nics: usize,
        ports: &[Vec<u16>],
        listeners: Vec<std::net::TcpListener>,
    ) -> io::Result<Arc<NetFabric>> {
        assert_eq!(ports.len(), nranks, "one port row per rank");
        assert_eq!(listeners.len(), nics, "one listener per NIC");
        let obs = Obs::new();
        let met = TransportMetrics::register(&obs);
        let reactor_met = ReactorMetrics::register(&obs);
        let shared = Arc::new(Shared::new(nranks, nics, reactor_met.clone())?);

        let mut conns: Vec<Vec<Option<Arc<Conn>>>> = (0..nranks)
            .map(|_| (0..nics).map(|_| None).collect())
            .collect();
        let mut streams: Vec<(usize, usize, TcpStream)> = Vec::new();

        // Dial every higher-ranked peer on every NIC. TCP completes the
        // handshake in the peer's listener backlog, so a global
        // dial-then-accept order cannot deadlock.
        for (peer, peer_ports) in ports.iter().enumerate().take(nranks).skip(rank + 1) {
            for (nic, &port) in peer_ports.iter().enumerate().take(nics) {
                let s = TcpStream::connect(("127.0.0.1", port))?;
                s.set_nodelay(true)?;
                {
                    let mut w = &s;
                    frame::write_frame(&mut w, frame::FRAME_HELLO, &[&frame::hello_body(rank, nic)])?;
                }
                streams.push((peer, nic, s));
            }
        }
        // Accept one stream per lower-ranked peer on each NIC listener.
        for (nic, l) in listeners.iter().enumerate() {
            for _ in 0..rank {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                let hello = {
                    let mut r = &s;
                    frame::read_frame(&mut r)?
                };
                if hello.kind != frame::FRAME_HELLO
                    || hello.body.len() < frame::min_body_len(frame::FRAME_HELLO)
                {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "expected HELLO as first frame",
                    ));
                }
                let (peer, peer_nic) = frame::parse_hello(&hello.body);
                if peer_nic != nic {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("peer {peer} dialed NIC {nic} but announced NIC {peer_nic}"),
                    ));
                }
                streams.push((peer, nic, s));
            }
        }

        // Register every stream with its reactor: nonblocking from here
        // on, assignment static by `(peer × nics + nic) % nreactors`.
        let nreactors = pool_size_from_env();
        let mut all_conns: Vec<Arc<Conn>> = Vec::with_capacity(streams.len());
        for (peer, nic, s) in streams {
            met.conns.inc();
            let conn = Arc::new(Conn::new(peer, nic, (peer * nics + nic) % nreactors, s)?);
            conns[peer][nic] = Some(Arc::clone(&conn));
            all_conns.push(conn);
        }

        let dispatch: Arc<dyn FrameDispatch> = Arc::new(FabricDispatch {
            shared: Arc::clone(&shared),
            met: met.clone(),
        });
        let pool = ReactorPool::spawn(
            nreactors,
            all_conns.clone(),
            Arc::clone(&shared.events.waiting),
            dispatch,
            reactor_met.clone(),
            &format!("r{rank}"),
        )?;

        Ok(Arc::new(NetFabric {
            rank,
            nranks,
            nics,
            conns,
            all_conns,
            pool,
            next_region: AtomicU32::new(1),
            shared,
            obs,
            met,
            reactor_met,
        }))
    }

    /// Reactor threads in the pool — constant for the fabric's lifetime
    /// and independent of world size.
    pub fn reactor_threads(&self) -> usize {
        self.pool.len()
    }

    /// This process's world rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Parallel sockets ("NICs") per peer.
    pub fn nics(&self) -> usize {
        self.nics
    }

    /// Install the atomic-add sink (once), draining any deliveries that
    /// raced ahead of installation.
    pub fn set_add_sink(&self, sink: Arc<dyn NetAddSink>) {
        let mut pend = self.shared.pre_sink.lock().expect("pre_sink lock");
        self.shared
            .sink
            .set(sink)
            .unwrap_or_else(|_| panic!("atomic-add sink installed twice"));
        let sink = self.shared.sink.get().expect("just installed");
        for custom in pend.drain(..) {
            sink.apply(custom);
        }
        drop(pend);
        self.shared.ring_bell();
    }

    /// Register a `len`-byte region; returns its id and buffer.
    pub fn register(&self, len: usize) -> (u32, Arc<NetRegion>) {
        assert!(len > 0, "cannot register an empty region");
        let id = self.next_region.fetch_add(1, Ordering::Relaxed);
        let region = Arc::new(NetRegion::new(self.rank, id, len));
        self.shared
            .regions
            .lock()
            .expect("regions lock")
            .insert(id, Arc::clone(&region));
        (id, region)
    }

    /// Look up a registered region by id.
    pub fn region(&self, id: u32) -> Option<Arc<NetRegion>> {
        self.shared.region(id)
    }

    /// Deposit an inbound `payload` at `(region, offset)` of this rank
    /// (the control-path twin of the reactor's PUT handling). `false`,
    /// counted in `unr.transport.bad_dma`, when the region is unknown
    /// or the range is out of bounds: the caller must then drop the
    /// notification that rode with the payload.
    #[must_use]
    pub fn deposit(&self, region: u32, offset: u64, payload: &[u8]) -> bool {
        self.shared.deposit(&self.met, region, offset, payload)
    }

    fn conn(&self, dst: usize, nic: usize) -> io::Result<&Arc<Conn>> {
        let nic = nic % self.nics;
        if dst < self.nranks && self.shared.is_down(dst, nic) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                format!("stream to rank {dst} NIC {nic} latched down after a frame error"),
            ));
        }
        self.conns
            .get(dst)
            .and_then(|row| row.get(nic))
            .and_then(|c| c.as_ref())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotConnected,
                    format!("no stream to rank {dst} NIC {nic}"),
                )
            })
    }

    /// Encode one frame from `parts` and queue it for `(dst, nic)`.
    fn send(&self, dst: usize, nic: usize, kind: u8, parts: &[&[u8]]) -> io::Result<()> {
        let conn = self.conn(dst, nic)?;
        self.enqueue(conn, frame::encode_frame(kind, parts)?)
    }

    /// Post one encoded frame on `conn` ([`ReactorPool::post`]: written
    /// by this thread if the writer is idle, else by the reactor). With
    /// more than [`QUEUE_CAP_BYTES`] queued behind a full socket the
    /// caller stalls (counted) until the reactor has written the backlog
    /// down — backpressure instead of unbounded memory.
    fn enqueue(&self, conn: &Conn, buf: Vec<u8>) -> io::Result<()> {
        if conn.queued_bytes() > QUEUE_CAP_BYTES {
            self.reactor_met.backpressure_stalls.inc();
            while conn.queued_bytes() > QUEUE_CAP_BYTES {
                if self.shared.stopping.load(Ordering::Relaxed) {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "fabric stopping with writer queue full",
                    ));
                }
                if self.shared.is_down(conn.peer, conn.nic) {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        format!(
                            "stream to rank {} NIC {} latched down under backpressure",
                            conn.peer, conn.nic
                        ),
                    ));
                }
                self.pool.wake(conn.reactor);
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        self.pool.post(conn, buf);
        self.met.tx_frames.inc();
        Ok(())
    }

    /// Emulated RMA put: `len` bytes at `src_offset` of the local
    /// region `src` into `(region, offset)` on `dst`, with the 128-bit
    /// custom bits delivered to `dst`'s atomic-add sink. The wire frame
    /// is built in one pass — prefix, kind, header, then the payload
    /// copied once, straight out of `src`. `dst == self.rank()`
    /// short-circuits through local memory.
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        &self,
        dst: usize,
        nic: usize,
        region: u32,
        offset: u64,
        custom: u128,
        src: &MemRegion,
        src_offset: usize,
        len: usize,
    ) -> io::Result<()> {
        self.met.tx_bytes.add(len as u64);
        let header = frame::put_header(region, offset, custom);
        let buf = region_frame(src, frame::FRAME_PUT, &header, src_offset, len)?;
        if dst == self.rank {
            self.deposit_local(region, offset, &buf[buf.len() - len..])?;
            self.deliver_custom(custom);
            self.shared.ring_bell();
            return Ok(());
        }
        self.enqueue(self.conn(dst, nic)?, buf)
    }

    /// [`deposit`](NetFabric::deposit) for the `dst == self.rank()`
    /// short-circuits, where a payload that cannot land is the
    /// caller's error rather than a peer's.
    fn deposit_local(&self, region: u32, offset: u64, payload: &[u8]) -> io::Result<()> {
        if self.deposit(region, offset, payload) {
            return Ok(());
        }
        Err(invalid_input(format!(
            "{} bytes at offset {offset} do not fit local region {region}",
            payload.len()
        )))
    }

    /// Emulated RMA get: ask `dst` for `(region, offset, len)`; the
    /// reply lands in this rank's `(reply_region, reply_offset)` and
    /// `custom_local` is applied here; `custom_remote` is applied on
    /// `dst` when it serves the request.
    #[allow(clippy::too_many_arguments)]
    pub fn get(
        &self,
        dst: usize,
        nic: usize,
        region: u32,
        offset: u64,
        len: u64,
        custom_remote: u128,
        reply_region: u32,
        reply_offset: u64,
        custom_local: u128,
    ) -> io::Result<()> {
        if dst == self.rank {
            let src = self.region(region).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("unknown region {region}"))
            })?;
            let data = src.snapshot(offset as usize, len as usize);
            self.deliver_custom(custom_remote);
            self.deposit_local(reply_region, reply_offset, &data)?;
            self.deliver_custom(custom_local);
            self.shared.ring_bell();
            return Ok(());
        }
        self.send(
            dst,
            nic,
            frame::FRAME_GET_REQ,
            &[&frame::get_req_body(
                region,
                offset,
                len,
                custom_remote,
                reply_region,
                reply_offset,
                custom_local,
            )],
        )
    }

    /// Deliver bare custom bits to `dst`'s atomic-add sink — the
    /// `AtomicAddSink` path (level-4 emulation without data).
    pub fn send_atomic(&self, dst: usize, nic: usize, custom: u128) -> io::Result<()> {
        if dst == self.rank {
            self.deliver_custom(custom);
            self.shared.ring_bell();
            return Ok(());
        }
        self.send(dst, nic, frame::FRAME_ATOMIC, &[&frame::atomic_body(custom)])
    }

    /// Send an opaque `unr_core::wire` control message to `dst`.
    pub fn send_ctrl(&self, dst: usize, nic: usize, bytes: &[u8]) -> io::Result<()> {
        if dst == self.rank {
            self.shared.queue_ctrl(self.rank, bytes.to_vec());
            self.shared.ctrl_bell.ring();
            return Ok(());
        }
        self.send(dst, nic, frame::FRAME_CTRL, &[bytes])
    }

    /// Pop one inbound control message: `(src_rank, wire bytes)`.
    pub fn pop_ctrl(&self) -> Option<(usize, Vec<u8>)> {
        self.shared.ctrl.lock().expect("ctrl lock").pop_front()
    }

    fn deliver_custom(&self, custom: u128) {
        self.met.atomic_adds.inc();
        self.shared.apply_custom(custom);
    }

    /// Bump the event epoch and wake any thread parked in
    /// [`NetFabric::wait_progress`]: for a thread that moved a waiter's
    /// predicate from outside the wait — the progress thread after
    /// handling control messages, a poster after a local completion.
    /// (A reactor's read pass rings through the dispatcher.)
    pub fn ring_bell(&self) {
        self.shared.ring_bell();
    }

    /// The control bell's epoch: the progress thread samples it, looks
    /// for work, then sleeps in [`wait_ctrl_since`](Self::wait_ctrl_since).
    pub fn ctrl_epoch(&self) -> u64 {
        self.shared.ctrl_bell.epoch()
    }

    /// Ring the control bell for work no queued control message
    /// announces (queueing one rings it): the progress thread's stop
    /// flag, or a first unacked sub-message to start watching.
    pub fn ring_ctrl(&self) {
        self.shared.ctrl_bell.ring();
    }

    /// Sleep until the control bell has rung since `since` was sampled
    /// or `deadline` passes — with `None`, until it rings, which data
    /// frames never do. `true` if it rang.
    pub fn wait_ctrl_since(&self, since: u64, deadline: Option<Instant>) -> bool {
        self.shared.ctrl_bell.wait_since(since, deadline)
    }

    /// The current event epoch. A waiter samples it *before* testing
    /// its predicate and sleeps in [`wait_progress`]: an event another
    /// thread applied between the test and the sleep has already moved
    /// the epoch, so the sleep returns at once instead of running into
    /// its timeout.
    ///
    /// [`wait_progress`]: NetFabric::wait_progress
    pub fn event_epoch(&self) -> u64 {
        self.shared.events.epoch()
    }

    /// Wait for something to re-test a predicate for, progressing the
    /// rank's sockets on the calling thread meanwhile. Returns at once
    /// if the event epoch has moved past `since` (a value from
    /// [`event_epoch`](NetFabric::event_epoch)). Otherwise the thread
    /// parks — the reactors stand back from the sockets — and polls
    /// them together with the event bell's wake channel for at most
    /// `timeout`; what arrives it reads, reassembles and applies right
    /// here, through the same dispatcher a reactor uses, and then
    /// returns what it dispatched. Control messages among that
    /// ([`ReadPass::queued`]) are queued and *not* announced to the
    /// progress thread: the caller handles them ([`pop_ctrl`]). Callers
    /// re-check their predicate in a loop; the epoch only orders the
    /// sleep.
    ///
    /// [`pop_ctrl`]: NetFabric::pop_ctrl
    pub fn wait_progress(&self, since: u64, timeout: Duration) -> ReadPass {
        let bell = &self.shared.events;
        if bell.epoch() != since {
            return ReadPass::default();
        }
        // Parked *then* the epoch again (see [`EventBell`]): a ring
        // from here on finds this thread and writes the wake byte.
        let parked = bell.waiting.park();
        if bell.epoch() != since {
            return ReadPass::default();
        }
        let got = self.pool.wait_readable(&self.all_conns, &bell.rx, timeout);
        if got.woken {
            bell.wake.consume(&bell.rx);
        }
        drop(parked);
        if got.expired {
            self.met.wait_timeouts.inc();
        }
        got.reads
    }

    /// Whether teardown has begun (reader threads exiting is expected).
    pub fn stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::Relaxed)
    }

    /// Tear down: stop and join the reactor pool (each reactor makes a
    /// best-effort final flush of its writer queues first), then close
    /// every stream. Idempotent.
    pub fn shutdown(&self) {
        // SeqCst, like the reactor's load: ordered before the wake
        // below, so a reactor that consumes that wake (or the one it
        // coalesced into) sees the flag on its next pass instead of
        // sleeping out the poll timeout.
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.pool.shutdown();
        for row in &self.conns {
            for c in row.iter().flatten() {
                let _ = c.stream.shutdown(Shutdown::Both);
            }
        }
        self.shared.ring_bell();
        self.shared.ctrl_bell.ring();
    }
}

fn invalid_input(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

impl Drop for NetFabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The reader-side protocol handler: applies each reassembled inbound
/// frame against the shared state, on whichever thread read it. Holds
/// no `NetFabric` reference — GET replies ride back to the reader as
/// pre-encoded frames for the same connection — so reactor threads
/// never keep the fabric alive and teardown joins them without
/// self-join hazards.
struct FabricDispatch {
    shared: Arc<Shared>,
    met: TransportMetrics,
}

impl FabricDispatch {
    /// Deposit an inbound payload, then apply the custom bits that rode
    /// with it — or neither, when the payload cannot land.
    fn land(&self, region: u32, offset: u64, payload: &[u8], custom: u128) {
        self.met.rx_bytes.add(payload.len() as u64);
        if self.shared.deposit(&self.met, region, offset, payload) {
            self.met.atomic_adds.inc();
            self.shared.apply_custom(custom);
        }
    }

    /// The `GET_REP` frame answering `g`; `None` if the request names
    /// no region of this rank or a range outside it.
    fn get_reply(&self, g: &frame::GetReq) -> Option<Vec<u8>> {
        let off = usize::try_from(g.offset).ok()?;
        let len = usize::try_from(g.len).ok()?;
        let header = frame::get_rep_header(g.reply_region, g.reply_offset, g.custom_local);
        let src = self.shared.region(g.region)?;
        region_frame(&src.mem, frame::FRAME_GET_REP, &header, off, len).ok()
    }
}

impl FrameDispatch for FabricDispatch {
    fn on_frame(
        &self,
        peer: usize,
        nic: usize,
        f: frame::Frame,
        replies: &mut Vec<Vec<u8>>,
    ) -> Delivery {
        let shared = &self.shared;
        // Peer bytes: the fixed-offset parsers below index up to the
        // kind's header length, so a shorter body is a protocol error,
        // not a panic on the reading thread.
        if f.body.len() < frame::min_body_len(f.kind) {
            self.on_corrupt(peer, nic);
            return Delivery::Dropped;
        }
        self.met.rx_frames.inc();
        match f.kind {
            frame::FRAME_PUT => {
                let (region, offset, custom, payload) = frame::parse_put(&f.body);
                self.land(region, offset, payload, custom);
            }
            frame::FRAME_GET_REQ => {
                let g = frame::parse_get_req(&f.body);
                match self.get_reply(&g) {
                    Some(rep) => {
                        self.met.atomic_adds.inc();
                        shared.apply_custom(g.custom_remote);
                        self.met.tx_frames.inc();
                        self.met.tx_bytes.add(g.len);
                        replies.push(rep);
                    }
                    // Bad request: drop it whole, like a NIC NAK — no
                    // reply, no remote addend.
                    None => self.met.bad_dma.inc(),
                }
            }
            frame::FRAME_GET_REP => {
                let (region, offset, custom, payload) = frame::parse_get_rep(&f.body);
                self.land(region, offset, payload, custom);
            }
            frame::FRAME_ATOMIC => {
                self.met.atomic_adds.inc();
                shared.apply_custom(frame::parse_atomic(&f.body));
            }
            frame::FRAME_CTRL => {
                // No waiter's predicate moves until the engine has
                // handled it.
                shared.queue_ctrl(peer, f.body);
                return Delivery::Queued;
            }
            _ => return Delivery::Dropped, // unknown kind post-handshake
        }
        Delivery::Applied
    }

    fn announce(&self, reads: &ReadPass) {
        if reads.applied > 0 {
            self.shared.events.ring();
        }
        if reads.queued > 0 {
            self.shared.ctrl_bell.ring();
        }
    }

    fn on_corrupt(&self, peer: usize, nic: usize) {
        self.met.frame_errors.inc();
        if self.shared.latch_down(peer, nic) {
            self.met.streams_down.inc();
        }
        self.shared.ring_bell();
    }

    fn stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;
    use unr_simnet::SimRng;

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn region_rejects_ranges_past_the_end_and_overflowing_ones() {
        let r = NetRegion::new(0, 1, 64);
        let mut out = [0u8; 8];
        let mut frame = vec![7u8];
        // `end == len` is the last range in bounds ...
        assert!(r.write(56, &[1; 8]));
        assert!(r.read(56, &mut out));
        assert_eq!(out, [1; 8]);
        assert!(r.append_to(56, 8, &mut frame));
        assert!(r.write(64, &[]) && r.read(64, &mut []) && r.append_to(64, 0, &mut frame));
        // ... one byte more is refused and moves nothing ...
        assert!(!r.write(57, &[2; 8]));
        assert!(!r.read(57, &mut out));
        assert!(!r.append_to(57, 8, &mut frame));
        // ... and so is `offset + len` wrapping round `usize`.
        assert!(!r.write(usize::MAX - 3, &[2; 8]));
        assert!(!r.read(usize::MAX - 3, &mut out));
        assert!(!r.append_to(usize::MAX, 2, &mut frame));
        assert_eq!(r.snapshot(56, 8), [1; 8]);
        assert_eq!(frame, [7, 1, 1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn region_round_trips_every_offset_and_length() {
        const N: usize = 257;
        let pattern = seeded_bytes(14, N);
        let r = NetRegion::new(0, 1, N);
        let mut out = vec![0u8; N];
        let mut frame = Vec::new();
        for off in 0..=N {
            for len in 0..=N {
                let fits = off + len <= N;
                // Fresh background each time, so bytes left behind by a
                // neighbouring pair cannot pass for this one's.
                assert!(r.write(0, &vec![!(off as u8); N]));
                assert_eq!(r.write(off, &pattern[..len]), fits, "write {off}+{len}");
                assert_eq!(r.read(off, &mut out[..len]), fits, "read {off}+{len}");
                frame.clear();
                assert_eq!(r.append_to(off, len, &mut frame), fits, "add {off}+{len}");
                if fits {
                    assert_eq!(out[..len], pattern[..len], "read back {off}+{len}");
                    assert_eq!(frame, pattern[..len], "appended {off}+{len}");
                    // Nothing outside the range moved.
                    let all = r.snapshot(0, N);
                    assert!(all[..off].iter().all(|&b| b == !(off as u8)));
                    assert!(all[off + len..].iter().all(|&b| b == !(off as u8)));
                } else {
                    assert!(frame.is_empty());
                    assert!(r.snapshot(0, N).iter().all(|&b| b == !(off as u8)));
                }
            }
        }
    }

    #[test]
    fn region_takes_concurrent_writers_on_disjoint_halves() {
        const HALF: usize = 1 << 20;
        let r = NetRegion::new(0, 1, 2 * HALF);
        let halves = [seeded_bytes(1, HALF), seeded_bytes(2, HALF)];
        let gate = Barrier::new(2);
        std::thread::scope(|s| {
            for (i, data) in halves.iter().enumerate() {
                let (r, gate) = (&r, &gate);
                s.spawn(move || {
                    gate.wait();
                    for chunk in 0..16 {
                        let at = chunk * (HALF / 16);
                        assert!(r.write(i * HALF + at, &data[at..at + HALF / 16]));
                    }
                });
            }
        });
        assert_eq!(r.snapshot(0, HALF), halves[0]);
        assert_eq!(r.snapshot(HALF, HALF), halves[1]);
    }

    /// A peer that stops reading must cost this process the kernel's
    /// socket buffers plus [`QUEUE_CAP_BYTES`], not everything its
    /// posters can produce: rank 0 of a two-rank world posts at a
    /// "rank 1" that is a raw socket in this test's hands.
    #[test]
    fn a_peer_that_stops_reading_stalls_posters_at_the_cap() {
        const BODY: usize = 64 * 1024;
        // Four caps' worth: without backpressure all of it is accepted.
        const FRAMES: usize = 4 * QUEUE_CAP_BYTES / BODY;
        let body = |i: usize| {
            let mut b = vec![i as u8; BODY];
            b[..8].copy_from_slice(&(i as u64).to_le_bytes());
            b
        };
        let listen = || std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let (l0, l1) = (listen(), listen());
        let port = |l: &std::net::TcpListener| l.local_addr().unwrap().port();
        let ports = [vec![port(&l0)], vec![port(&l1)]];
        let fabric = NetFabric::connect(0, 2, 1, &ports, vec![l0]).unwrap();
        let (peer, _) = l1.accept().unwrap();
        let mut peer = &peer;
        assert_eq!(frame::read_frame(&mut peer).unwrap().kind, frame::FRAME_HELLO);
        let conn = Arc::clone(fabric.conn(1, 0).unwrap());
        let stalls = &fabric.reactor_met.backpressure_stalls;

        let posted = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..FRAMES {
                    // Fails once the main thread has given up (shutdown).
                    if fabric.send_ctrl(1, 0, &body(i)).is_err() {
                        return;
                    }
                    posted.fetch_add(1, Ordering::SeqCst);
                }
            });
            while stalls.get() == 0 {
                if posted.load(Ordering::SeqCst) == FRAMES as u64 {
                    fabric.shutdown();
                    panic!("{FRAMES} frames posted at a peer that reads nothing, no stall");
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            // The poster sits in its stall: at most one frame above the
            // cap is queued, and one more is half-written in `pending`.
            let (backlog, socket_full) = conn.backlog();
            let frame_len = 4 + 1 + BODY; // length prefix, kind
            assert!(socket_full);
            assert!(
                backlog > QUEUE_CAP_BYTES && backlog <= QUEUE_CAP_BYTES + 2 * frame_len,
                "{backlog} bytes held for a peer that stopped reading"
            );
            // The peer reads again: every frame, whole, in post order.
            for i in 0..FRAMES {
                let f = frame::read_frame(&mut peer).expect("a whole frame");
                assert_eq!(f.kind, frame::FRAME_CTRL);
                assert!(f.body == body(i), "frame {i} differs");
            }
        });
        assert_eq!(posted.load(Ordering::SeqCst), FRAMES as u64);
        assert_eq!(conn.backlog(), (0, false));
        fabric.shutdown();
    }

    /// Sums what reaches the atomic-add unit.
    #[derive(Default)]
    struct CountingSink {
        applies: AtomicU64,
    }

    impl NetAddSink for CountingSink {
        fn apply(&self, _custom: u128) {
            self.applies.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A dispatcher over one registered 64-byte region (id 1), with a
    /// counting sink installed — no sockets, no reactor.
    fn dispatcher() -> (FabricDispatch, Arc<NetRegion>, Arc<CountingSink>) {
        let reactor_met = ReactorMetrics::register(&Obs::new());
        let shared = Arc::new(Shared::new(2, 1, reactor_met).unwrap());
        let region = Arc::new(NetRegion::new(0, 1, 64));
        shared
            .regions
            .lock()
            .unwrap()
            .insert(1, Arc::clone(&region));
        let sink = Arc::new(CountingSink::default());
        let installed = shared.sink.set(Arc::clone(&sink) as Arc<dyn NetAddSink>);
        assert!(installed.is_ok());
        let met = TransportMetrics::register(&Obs::new());
        (FabricDispatch { shared, met }, region, sink)
    }

    fn frame_of(kind: u8, body: &[u8]) -> frame::Frame {
        frame::Frame {
            kind,
            body: body.to_vec(),
        }
    }

    #[test]
    fn short_bodies_from_a_peer_are_frame_errors_not_panics() {
        let (d, _region, sink) = dispatcher();
        let mut replies = Vec::new();
        let mut errors = 0;
        for kind in [
            frame::FRAME_PUT,
            frame::FRAME_GET_REQ,
            frame::FRAME_GET_REP,
            frame::FRAME_ATOMIC,
        ] {
            let min = frame::min_body_len(kind);
            assert!(min > 0);
            let body = seeded_bytes(kind as u64, min);
            for cut in 0..min {
                d.on_frame(1, 0, frame_of(kind, &body[..cut]), &mut replies);
                errors += 1;
                assert_eq!(d.met.frame_errors.get(), errors, "kind {kind} cut at {cut}");
            }
            // The shortest whole frame parses (random fields name no
            // region here, so at most it is a refused DMA).
            d.on_frame(1, 0, frame_of(kind, &body), &mut replies);
            assert_eq!(d.met.frame_errors.get(), errors, "kind {kind} whole");
        }
        assert!(d.shared.is_down(1, 0), "a short frame latches the stream");
        assert_eq!(d.met.streams_down.get(), 1);
        // Only the whole ATOMIC frame carried custom bits that could
        // land; no truncated frame reached the sink.
        assert_eq!(sink.applies.load(Ordering::Relaxed), 1);
        assert!(replies.is_empty());
    }

    #[test]
    fn a_payload_that_cannot_land_drops_its_notification() {
        let (d, region, sink) = dispatcher();
        let applies = || sink.applies.load(Ordering::Relaxed);
        let mut replies = Vec::new();
        let put = |region: u32, offset: u64, payload: &[u8]| {
            let mut body = frame::put_header(region, offset, 0xfeed).to_vec();
            body.extend_from_slice(payload);
            body
        };
        // In bounds: bytes land, addend applied.
        let kind = frame::FRAME_PUT;
        d.on_frame(1, 0, frame_of(kind, &put(1, 60, &[9; 4])), &mut replies);
        assert_eq!((applies(), d.met.bad_dma.get()), (1, 0));
        assert_eq!(region.snapshot(60, 4), [9; 4]);
        // Unknown region, range past the end, offset past `usize`: no
        // bytes, no addend, one count each — for PUT and GET_REP alike.
        for kind in [frame::FRAME_PUT, frame::FRAME_GET_REP] {
            let before = d.met.bad_dma.get();
            d.on_frame(1, 0, frame_of(kind, &put(2, 0, &[5; 4])), &mut replies);
            d.on_frame(1, 0, frame_of(kind, &put(1, 61, &[5; 4])), &mut replies);
            d.on_frame(1, 0, frame_of(kind, &put(1, !0, &[5; 4])), &mut replies);
            assert_eq!((applies(), d.met.bad_dma.get()), (1, before + 3));
        }
        assert_eq!(region.snapshot(60, 4), [9; 4]);
        // A GET for bytes that are not there: no reply, no remote addend.
        let get = |region: u32, offset: u64, len: u64| {
            frame_of(
                frame::FRAME_GET_REQ,
                &frame::get_req_body(region, offset, len, 0xbeef, 1, 0, 0xcafe),
            )
        };
        d.on_frame(1, 0, get(2, 0, 4), &mut replies);
        d.on_frame(1, 0, get(1, 61, 4), &mut replies);
        d.on_frame(1, 0, get(1, 0, u64::MAX), &mut replies);
        assert_eq!((applies(), d.met.bad_dma.get(), replies.len()), (1, 9, 0));
        // One that is: the reply is the header plus exactly those bytes.
        d.on_frame(1, 0, get(1, 60, 4), &mut replies);
        assert_eq!((applies(), replies.len()), (2, 1));
        let mut want = frame::get_rep_header(1, 0, 0xcafe).to_vec();
        want.extend_from_slice(&[9; 4]);
        assert_eq!(
            replies[0],
            frame::encode_frame(frame::FRAME_GET_REP, &[&want]).unwrap()
        );
        assert_eq!(d.met.frame_errors.get(), 0);
    }
}
