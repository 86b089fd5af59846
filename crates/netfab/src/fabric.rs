//! The socket fabric: per-rank NIC sockets, emulated RMA regions, and
//! the engine's installed receive side — all I/O driven by the reactor
//! pool.
//!
//! A [`NetFabric`] owns, for each `(peer, nic)` pair, one bidirectional
//! **nonblocking** Unix-domain stream, dialed by a Linux abstract name
//! ([`listen`]), registered with exactly one reactor thread
//! ([`crate::reactor`]). Sends encode the whole frame up front,
//! push it onto the connection's writer queue and, when
//! nobody else is writing that socket and it is not full, write it from
//! the posting thread; otherwise the owning reactor is woken to do it
//! (one write state machine, surviving partial writes, serves both).
//! Inbound bytes are reassembled by a
//! per-connection [`frame::FrameAssembler`] and *handled* by whoever
//! read them — payloads land in the destination region, custom
//! bits and `CTRL` frames go to the installed [`NetSink`], whose acks
//! ride back on the same connection — which is exactly the paper's
//! level-2 emulation: an agent performs the `*p += a` the level-4 NIC
//! would do in hardware. **Whoever waits reads**: a rank thread in
//! [`NetFabric::wait_progress`] polls the rank's sockets itself and
//! handles what arrives on its own thread, so the waiter runs the
//! moment the bytes do, with no wake-up in between; the reactors read
//! only while no rank thread waits, and reactor 0 also runs the sink's
//! retransmit timer ([`NetSink::tick`]). The thread budget is flat in
//! world size: `main + nreactors` regardless of rank count.
//!
//! The **event bell** wakes sleepers: it rings whenever a waiter's
//! predicate may have changed behind its back — a reactor's read pass
//! handled frames, a control message this rank sent itself was
//! handled, a retry ran out, a stream latched down, teardown, and a
//! waiter that read frames itself, once it is done (another waiter may
//! have been waiting for them). It has no condvar: it is an atomic epoch
//! plus a wake channel per sleeper, because its sleepers sleep in
//! `poll(2)` over the sockets, and a ring costs a byte only when a
//! waiter is parked.
//!
//! A region is the workspace's one raw region buffer
//! ([`unr_simnet::MemRegion`], the only raw-memory module) under a
//! fabric-local id: the reading thread deposits a payload with one bulk
//! copy — straight out of the socket's read buffer for a frame that
//! arrived in one read — and application threads read it with another,
//! under the RMA
//! race contract documented there — the MMAS signal counter (SeqCst
//! `fetch_add` by the applier, SeqCst `load` by the waiter), not the
//! buffer, is the happens-before edge, mirroring how real RMA hardware
//! writes memory. A payload that cannot land (unknown region, range
//! out of bounds) takes its notification down with it
//! (`unr.transport.bad_dma`): a signal never fires for bytes that
//! never arrived.

use std::io;
use std::os::linux::net::SocketAddrExt;
use std::os::unix::net::{SocketAddr, UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use unr_core::{ctrl, CtrlFrame};
use unr_obs::metrics::Counter;
use unr_obs::Obs;
use unr_simnet::sync::Mutex as SyncMutex;
use unr_simnet::{MemRegion, SegSlots};

use crate::bell::EventBell;
use crate::dispatch::{region_frame, FabricDispatch};
pub use crate::dispatch::{CtrlRx, NetSink};
use crate::frame::{self, OutFrame};
use crate::reactor::{
    Conn, FrameDispatch, ReactorMetrics, ReactorPool, DEFAULT_REACTORS, QUEUE_CAP_BYTES,
};

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
    /// readable and no ring (a reactor's poll is not counted).
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

/// What reached the fabric before its [`NetSink`] did: custom bits, or
/// a control message from `(src, nic)`.
enum Early {
    Custom(u128),
    Ctrl(usize, usize, Vec<u8>),
}

/// State shared between the fabric handle and its reader threads.
/// Readers hold this `Arc` and no `NetFabric`, so dropping the last
/// application-side `NetFabric` reference can never dead-lock on a
/// reader joining itself.
pub(crate) struct Shared {
    /// Registered regions by id, looked up with no lock. Ids are dense
    /// from 1 and never taken back.
    regions: SegSlots<MemRegion, 4>,
    /// Region ids handed out so far; the next one is this plus one.
    regions_issued: AtomicU32,
    /// Rung when a waiter's predicate may have moved by another
    /// thread's doing, so `sig_wait` can sleep between events.
    pub(crate) events: EventBell,
    /// The engine's receive side; installed once.
    pub(crate) sink: OnceLock<Arc<dyn NetSink>>,
    /// What arrived before the sink was installed, in arrival order —
    /// handled on installation, so no addend or control message is
    /// ever lost.
    early: SyncMutex<Vec<Early>>,
    pub(crate) stopping: AtomicBool,
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
            regions: SegSlots::new(),
            regions_issued: AtomicU32::new(0),
            events: EventBell::new(reactor_met)?,
            sink: OnceLock::new(),
            early: SyncMutex::new(Vec::new()),
            stopping: AtomicBool::new(false),
            nics,
            down: (0..nranks * nics).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// Register a `len`-byte region of `rank` under the next id.
    fn register(&self, rank: usize, len: usize) -> MemRegion {
        let issued = self.regions_issued.fetch_add(1, Ordering::Relaxed);
        let id = issued.checked_add(1).expect("region ids exhausted");
        let region = || MemRegion::new(rank, id, len);
        self.regions.get_or_init(id, region).clone()
    }

    pub(crate) fn region(&self, id: u32) -> Option<&MemRegion> {
        self.regions.get(id.into())
    }

    /// The receiving half of an emulated RMA write: `payload` into
    /// `(region, offset)` of this rank. `false`, counted in
    /// `unr.transport.bad_dma`, when the region is unknown or the range
    /// is out of bounds — the caller then drops the notification that
    /// rode with the payload.
    #[must_use]
    pub(crate) fn deposit(
        &self,
        met: &TransportMetrics,
        region: u32,
        offset: u64,
        payload: &[u8],
    ) -> bool {
        let landed = usize::try_from(offset).is_ok_and(|off| {
            self.region(region)
                .is_some_and(|r| r.write_bytes(off, payload).is_ok())
        });
        if !landed {
            met.bad_dma.inc();
        }
        landed
    }

    /// Latch `(peer, nic)` down; `true` if this call flipped it.
    pub(crate) fn latch_down(&self, peer: usize, nic: usize) -> bool {
        !self.down[peer * self.nics + nic].swap(true, Ordering::Relaxed)
    }

    fn is_down(&self, peer: usize, nic: usize) -> bool {
        self.down[peer * self.nics + nic].load(Ordering::Relaxed)
    }

    /// The installed sink — or, before installation, `None` with
    /// `early()` kept for it. The miss is re-checked under the buffer's
    /// lock, which the installer takes the buffer under.
    fn sink_or_keep(&self, early: impl FnOnce() -> Early) -> Option<&Arc<dyn NetSink>> {
        if let Some(s) = self.sink.get() {
            return Some(s);
        }
        let mut kept = self.early.lock();
        let sink = self.sink.get();
        if sink.is_none() {
            kept.push(early());
        }
        sink
    }

    pub(crate) fn apply_custom(&self, custom: u128) {
        if let Some(s) = self.sink_or_keep(|| Early::Custom(custom)) {
            s.apply(custom);
        }
    }

    /// Handle control message `msg` from `(src, nic)` on the calling
    /// thread, handing what goes back to `src` to `reply` — or keep it
    /// for the sink, which answers it on installation.
    pub(crate) fn on_ctrl(
        &self,
        met: &TransportMetrics,
        (src, nic): (usize, usize),
        msg: &[u8],
        reply: &mut dyn FnMut(&[u8]),
    ) {
        if let Some(sink) = self.sink_or_keep(|| Early::Ctrl(src, nic, msg.to_vec())) {
            let shared = self;
            sink.on_ctrl(src, msg, &mut CtrlRx { shared, met, reply });
        }
    }

    pub(crate) fn ring_bell(&self) {
        self.events.ring();
    }
}

/// Bind a listener at a fresh Linux abstract socket name,
/// `unr-netfab.{pid}.{seq}`, and return both: every netfab address is
/// made here. A name already held (a process in another PID namespace
/// on the same network namespace) is skipped.
pub fn listen() -> io::Result<(UnixListener, String)> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    loop {
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let name = format!("unr-netfab.{}.{seq}", std::process::id());
        match UnixListener::bind_addr(&SocketAddr::from_abstract_name(&name)?) {
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => continue,
            bound => return Ok((bound?, name)),
        }
    }
}

/// Connect to the listener [`listen`] bound at `name`.
pub fn dial(name: &str) -> io::Result<UnixStream> {
    UnixStream::connect_addr(&SocketAddr::from_abstract_name(name)?)
}

/// The per-process fabric: a full mesh of Unix-domain streams to every
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
    shared: Arc<Shared>,
    /// Metrics registry shared by the fabric and its engine.
    pub obs: Arc<Obs>,
    /// `unr.transport.*` counters.
    pub met: TransportMetrics,
    /// `unr.transport.reactor.*` instruments.
    pub reactor_met: ReactorMetrics,
}

impl NetFabric {
    /// Establish the mesh given every rank's listener name (`names[r]`,
    /// from [`listen`]); `listener` is this rank's own. For each pair
    /// `(i, j)` with `i < j`, rank `i` dials rank `j` once per NIC and
    /// sends a `HELLO` naming itself and the NIC; rank `j` accepts them
    /// all on its one listener.
    pub fn connect(
        rank: usize,
        nranks: usize,
        nics: usize,
        names: &[String],
        listener: UnixListener,
    ) -> io::Result<Arc<NetFabric>> {
        assert_eq!(names.len(), nranks, "one listener name per rank");
        let obs = Arc::new(Obs::new());
        let met = TransportMetrics::register(&obs);
        let reactor_met = ReactorMetrics::register(&obs);
        let shared = Arc::new(Shared::new(nranks, nics, reactor_met.clone())?);

        let mut conns: Vec<Vec<Option<Arc<Conn>>>> = (0..nranks)
            .map(|_| (0..nics).map(|_| None).collect())
            .collect();
        let mut streams: Vec<(usize, usize, UnixStream)> = Vec::new();

        // Dial every higher-ranked peer on every NIC, then accept. A
        // connect blocks only while the peer's backlog is full; dials go
        // only upwards and the top rank accepts first, so they may
        // serialize but cannot deadlock (DESIGN.md §6, bootstrap).
        for (peer, name) in names.iter().enumerate().skip(rank + 1) {
            for nic in 0..nics {
                let s = dial(name)?;
                frame::write_frame(
                    &mut &s,
                    frame::FRAME_HELLO,
                    &[&frame::hello_body(rank, nic)],
                )?;
                streams.push((peer, nic, s));
            }
        }
        // Accept one stream per lower-ranked peer and NIC, as HELLO says.
        for _ in 0..rank * nics {
            let (s, _) = listener.accept()?;
            let hello = frame::read_frame(&mut &s)?;
            if hello.kind != frame::FRAME_HELLO
                || hello.body.len() < frame::min_body_len(frame::FRAME_HELLO)
            {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected HELLO as first frame",
                ));
            }
            let (peer, nic) = frame::parse_hello(&hello.body);
            if peer >= rank || nic >= nics || streams.iter().any(|&(p, n, _)| (p, n) == (peer, nic))
            {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected HELLO from rank {peer} on NIC {nic}"),
                ));
            }
            streams.push((peer, nic, s));
        }

        // Register every stream with its reactor: nonblocking from here
        // on, assignment static by `(peer × nics + nic) % nreactors`.
        let nreactors = DEFAULT_REACTORS;
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
            shared,
            obs,
            met,
            reactor_met,
        }))
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

    /// Install the engine's receive side (once), then handle on this
    /// thread what raced ahead of it: addends are applied, control
    /// messages handled and answered.
    pub fn install(&self, sink: Arc<dyn NetSink>) {
        let early = {
            let mut kept = self.shared.early.lock();
            self.shared
                .sink
                .set(sink)
                .unwrap_or_else(|_| panic!("receive side installed twice"));
            std::mem::take(&mut *kept)
        };
        for e in early {
            match e {
                Early::Custom(custom) => self.shared.apply_custom(custom),
                Early::Ctrl(src, nic, msg) => {
                    let mut answer = |reply: &[u8]| {
                        drop(self.post_ctrl(src, nic, 0, CtrlFrame::Owned(reply.to_vec())))
                    };
                    self.shared
                        .on_ctrl(&self.met, (src, nic), &msg, &mut answer);
                }
            }
        }
        self.shared.ring_bell();
    }

    /// Register a `len`-byte region under a fresh id (its `rkey.id`).
    /// Reactor threads (remote "DMA") and application threads move
    /// bytes through it in bulk copies; see the module doc for the race
    /// contract.
    pub fn register(&self, len: usize) -> MemRegion {
        assert!(len > 0, "cannot register an empty region");
        self.shared.register(self.rank, len)
    }

    /// Look up a registered region by id.
    pub fn region(&self, id: u32) -> Option<&MemRegion> {
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
        self.enqueue(conn, frame::encode_frame(kind, parts)?.into())
    }

    /// Post one encoded frame on `conn` ([`ReactorPool::post`]: written
    /// by this thread if the writer is idle, else by the reactor). A
    /// frame that leaves more than [`QUEUE_CAP_BYTES`] queued behind a
    /// full socket stalls its caller (counted) until the reactor has
    /// written the backlog down — backpressure instead of unbounded
    /// memory: the queue holds at most one frame per poster above the
    /// cap.
    fn enqueue(&self, conn: &Conn, frame: OutFrame) -> io::Result<()> {
        let queued = self.pool.post(conn, frame);
        self.met.tx_frames.inc();
        if queued > QUEUE_CAP_BYTES {
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
        self.enqueue(self.conn(dst, nic)?, buf.into())
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
            let data = src
                .snapshot(offset as usize, len as usize)
                .map_err(|e| invalid_input(e.to_string()))?;
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

    /// Send an opaque `unr_core::wire` control message `msg` to `dst` in
    /// the epoch envelope of `epoch` (`unr_core::ctrl::stamp`'s rule;
    /// none at epoch 0): one built for this send is encoded whole, a
    /// shared one written from where it is, behind a head of its own
    /// ([`OutFrame::ctrl`]). One to this rank itself is handled here and
    /// now, on the calling thread, and so are its replies.
    pub fn post_ctrl(&self, dst: usize, nic: usize, epoch: u64, msg: CtrlFrame) -> io::Result<()> {
        if dst == self.rank {
            self.loopback(&ctrl::stamp(epoch, &msg));
            return Ok(());
        }
        self.enqueue(self.conn(dst, nic)?, OutFrame::ctrl(epoch, msg)?)
    }

    /// [`post_ctrl`](Self::post_ctrl) past the backpressure cap, for a
    /// reactor — which would wait on a backlog only it drains. The
    /// retransmit sweep sends this way.
    pub fn resend_ctrl(
        &self,
        dst: usize,
        nic: usize,
        epoch: u64,
        msg: CtrlFrame,
    ) -> io::Result<()> {
        if dst == self.rank {
            return self.post_ctrl(dst, nic, epoch, msg);
        }
        self.pool
            .post(self.conn(dst, nic)?, OutFrame::ctrl(epoch, msg)?);
        self.met.tx_frames.inc();
        Ok(())
    }

    /// Handle a control message this rank sent itself, and the replies
    /// to it, then ring for what they moved.
    fn loopback(&self, msg: &[u8]) {
        let mut answer = |reply: &[u8]| self.loopback(reply);
        self.shared
            .on_ctrl(&self.met, (self.rank, 0), msg, &mut answer);
        self.shared.ring_bell();
    }

    /// Wake the reactor that runs the sink's retransmit timer
    /// ([`NetSink::tick`]): something new is due to be watched.
    pub fn wake_timer(&self) {
        self.pool.wake(0);
    }

    fn deliver_custom(&self, custom: u128) {
        self.met.atomic_adds.inc();
        self.shared.apply_custom(custom);
    }

    /// Bump the event epoch and wake any thread parked in
    /// [`NetFabric::wait_progress`]: for a thread that moved a waiter's
    /// predicate from outside its wait — a sweep that ran a retry out, a
    /// poster after a local completion, a waiter after handling frames
    /// it read. (A reactor's read pass rings through the dispatcher.)
    pub fn ring_bell(&self) {
        self.shared.ring_bell();
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
    /// them together with a wake channel of its own for at most
    /// `timeout`; what arrives it reads, reassembles and handles right
    /// here, control messages included, through the same dispatcher a
    /// reactor uses, and then returns how many frames it handled. The
    /// caller rings the event bell for those, since nobody else will.
    /// Callers re-check their predicate in a loop; the epoch only orders
    /// the sleep.
    pub fn wait_progress(&self, since: u64, timeout: Duration) -> usize {
        let bell = &self.shared.events;
        if bell.epoch() != since {
            return 0;
        }
        let parked = bell.waiting.park();
        // Parked *then* the epoch again (see [`EventBell`]): a ring
        // from here on finds this channel and writes its wake byte.
        let Ok(chan) = bell.park() else {
            // No descriptor for a channel of its own: test again.
            std::thread::yield_now();
            return 0;
        };
        let mut handled = 0;
        if bell.epoch() == since {
            let got = self.pool.wait_readable(&self.all_conns, &chan.rx, timeout);
            if got.woken {
                chan.wake.consume(&chan.rx);
            }
            if got.expired {
                self.met.wait_timeouts.inc();
            }
            handled = got.reads.applied;
        }
        chan.parked.store(false, Ordering::SeqCst);
        drop(parked);
        handled
    }

    /// Threads parked in [`NetFabric::wait_progress`] right now.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        self.shared.events.waiting.parked()
    }

    /// Panic holding the pre-install buffer: it must serve its next
    /// caller.
    #[cfg(test)]
    pub(crate) fn poison_for_tests(&self) {
        let _held = self.shared.early.lock();
        panic!("poisoning the fabric's locks on purpose");
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
                c.close();
            }
        }
        self.shared.ring_bell();
    }
}

pub(crate) fn invalid_input(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

impl Drop for NetFabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;
    use std::time::Instant;
    use unr_simnet::SimRng;

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn region_rejects_ranges_past_the_end_and_overflowing_ones() {
        let r = MemRegion::new(0, 1, 64);
        let mut out = [0u8; 8];
        let mut frame = vec![7u8];
        // `end == len` is the last range in bounds ...
        assert!(r.write_bytes(56, &[1; 8]).is_ok());
        assert!(r.read_bytes(56, &mut out).is_ok());
        assert_eq!(out, [1; 8]);
        assert!(r.append_to(56, 8, &mut frame).is_ok());
        assert!(
            r.write_bytes(64, &[]).is_ok()
                && r.read_bytes(64, &mut []).is_ok()
                && r.append_to(64, 0, &mut frame).is_ok()
        );
        // ... one byte more is refused and moves nothing ...
        assert!(r.write_bytes(57, &[2; 8]).is_err());
        assert!(r.read_bytes(57, &mut out).is_err());
        assert!(r.append_to(57, 8, &mut frame).is_err());
        // ... and so is `offset + len` wrapping round `usize`.
        assert!(r.write_bytes(usize::MAX - 3, &[2; 8]).is_err());
        assert!(r.read_bytes(usize::MAX - 3, &mut out).is_err());
        assert!(r.append_to(usize::MAX, 2, &mut frame).is_err());
        assert_eq!(r.snapshot(56, 8).unwrap(), [1; 8]);
        assert_eq!(frame, [7, 1, 1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn region_round_trips_every_offset_and_length() {
        const N: usize = 257;
        let pattern = seeded_bytes(14, N);
        let r = MemRegion::new(0, 1, N);
        let mut out = vec![0u8; N];
        let mut frame = Vec::new();
        for off in 0..=N {
            for len in 0..=N {
                let fits = off + len <= N;
                // Fresh background each time, so bytes left behind by a
                // neighbouring pair cannot pass for this one's.
                assert!(r.write_bytes(0, &vec![!(off as u8); N]).is_ok());
                assert_eq!(
                    r.write_bytes(off, &pattern[..len]).is_ok(),
                    fits,
                    "write {off}+{len}"
                );
                assert_eq!(
                    r.read_bytes(off, &mut out[..len]).is_ok(),
                    fits,
                    "read {off}+{len}"
                );
                frame.clear();
                assert_eq!(
                    r.append_to(off, len, &mut frame).is_ok(),
                    fits,
                    "add {off}+{len}"
                );
                if fits {
                    assert_eq!(out[..len], pattern[..len], "read back {off}+{len}");
                    assert_eq!(frame, pattern[..len], "appended {off}+{len}");
                    // Nothing outside the range moved.
                    let all = r.snapshot(0, N).unwrap();
                    assert!(all[..off].iter().all(|&b| b == !(off as u8)));
                    assert!(all[off + len..].iter().all(|&b| b == !(off as u8)));
                } else {
                    assert!(frame.is_empty());
                    assert!(r.snapshot(0, N).unwrap().iter().all(|&b| b == !(off as u8)));
                }
            }
        }
    }

    #[test]
    fn region_takes_concurrent_writers_on_disjoint_halves() {
        const HALF: usize = 1 << 20;
        let r = MemRegion::new(0, 1, 2 * HALF);
        let halves = [seeded_bytes(1, HALF), seeded_bytes(2, HALF)];
        let gate = Barrier::new(2);
        std::thread::scope(|s| {
            for (i, data) in halves.iter().enumerate() {
                let (r, gate) = (&r, &gate);
                s.spawn(move || {
                    gate.wait();
                    for chunk in 0..16 {
                        let at = chunk * (HALF / 16);
                        assert!(r
                            .write_bytes(i * HALF + at, &data[at..at + HALF / 16])
                            .is_ok());
                    }
                });
            }
        });
        assert_eq!(r.snapshot(0, HALF).unwrap(), halves[0]);
        assert_eq!(r.snapshot(HALF, HALF).unwrap(), halves[1]);
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
        let ((l0, n0), (l1, n1)) = (listen().unwrap(), listen().unwrap());
        let fabric = NetFabric::connect(0, 2, 1, &[n0, n1], l0).unwrap();
        let (peer, _) = l1.accept().unwrap();
        let mut peer = &peer;
        assert_eq!(
            frame::read_frame(&mut peer).unwrap().kind,
            frame::FRAME_HELLO
        );
        let conn = Arc::clone(fabric.conn(1, 0).unwrap());
        let stalls = &fabric.reactor_met.backpressure_stalls;

        let posted = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..FRAMES {
                    // Fails once the main thread has given up (shutdown).
                    if fabric
                        .post_ctrl(1, 0, 0, CtrlFrame::Owned(body(i)))
                        .is_err()
                    {
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

    /// A ring reaches every thread parked on the event bell, not only
    /// the first to look: two sleepers on one channel could have one
    /// consume the wake byte before the other's poll saw it.
    #[test]
    fn a_ring_wakes_every_parked_waiter() {
        let (listener, name) = listen().unwrap();
        let fabric = NetFabric::connect(0, 1, 1, &[name], listener).unwrap();
        for round in 0..20 {
            let since = fabric.event_epoch();
            let slept = std::thread::scope(|s| {
                let sleepers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            let t0 = Instant::now();
                            fabric.wait_progress(since, Duration::from_secs(10));
                            t0.elapsed()
                        })
                    })
                    .collect();
                while fabric.parked() < 2 {
                    std::thread::yield_now();
                }
                fabric.ring_bell();
                sleepers
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .max()
                    .unwrap()
            });
            assert!(
                slept < Duration::from_secs(1),
                "round {round}: a sleeper slept {slept:?}"
            );
        }
        assert_eq!(fabric.met.wait_timeouts.get(), 0);
    }

    /// Sums what reaches the atomic-add unit.
    #[derive(Default)]
    struct CountingSink {
        applies: AtomicU64,
    }

    impl NetSink for CountingSink {
        fn apply(&self, _custom: u128) {
            self.applies.fetch_add(1, Ordering::Relaxed);
        }

        fn on_ctrl(&self, _: usize, _: &[u8], _: &mut CtrlRx<'_>) {}

        fn tick(&self) -> Option<Duration> {
            None
        }
    }

    /// A dispatcher over one registered 64-byte region (id 1), with a
    /// counting sink installed — no sockets, no reactor.
    fn dispatcher() -> (FabricDispatch, MemRegion, Arc<CountingSink>) {
        let reactor_met = ReactorMetrics::register(&Obs::new());
        let shared = Arc::new(Shared::new(2, 1, reactor_met).unwrap());
        let region = shared.register(0, 64);
        let sink = Arc::new(CountingSink::default());
        let installed = shared.sink.set(Arc::clone(&sink) as Arc<dyn NetSink>);
        assert!(installed.is_ok());
        let met = TransportMetrics::register(&Obs::new());
        (FabricDispatch { shared, met }, region, sink)
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
                d.on_frame(1, 0, kind, &body[..cut], &mut replies);
                errors += 1;
                assert_eq!(d.met.frame_errors.get(), errors, "kind {kind} cut at {cut}");
            }
            // The shortest whole frame parses (random fields name no
            // region here, so at most it is a refused DMA).
            d.on_frame(1, 0, kind, &body, &mut replies);
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
        d.on_frame(1, 0, kind, &put(1, 60, &[9; 4]), &mut replies);
        assert_eq!((applies(), d.met.bad_dma.get()), (1, 0));
        assert_eq!(region.snapshot(60, 4).unwrap(), [9; 4]);
        // Unknown region, range past the end, offset past `usize`: no
        // bytes, no addend, one count each — for PUT and GET_REP alike.
        for kind in [frame::FRAME_PUT, frame::FRAME_GET_REP] {
            let before = d.met.bad_dma.get();
            d.on_frame(1, 0, kind, &put(2, 0, &[5; 4]), &mut replies);
            d.on_frame(1, 0, kind, &put(1, 61, &[5; 4]), &mut replies);
            d.on_frame(1, 0, kind, &put(1, !0, &[5; 4]), &mut replies);
            assert_eq!((applies(), d.met.bad_dma.get()), (1, before + 3));
        }
        assert_eq!(region.snapshot(60, 4).unwrap(), [9; 4]);
        // A GET for bytes that are not there: no reply, no remote addend.
        let kind = frame::FRAME_GET_REQ;
        let get = |region: u32, offset: u64, len: u64| {
            frame::get_req_body(region, offset, len, 0xbeef, 1, 0, 0xcafe)
        };
        d.on_frame(1, 0, kind, &get(2, 0, 4), &mut replies);
        d.on_frame(1, 0, kind, &get(1, 61, 4), &mut replies);
        d.on_frame(1, 0, kind, &get(1, 0, u64::MAX), &mut replies);
        assert_eq!((applies(), d.met.bad_dma.get(), replies.len()), (1, 9, 0));
        // One that is: the reply is the header plus exactly those bytes.
        d.on_frame(1, 0, kind, &get(1, 60, 4), &mut replies);
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
