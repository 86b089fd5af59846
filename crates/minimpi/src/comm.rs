//! Communicators and the two-sided matching engine.
//!
//! [`Comm`] is the mini-MPI handle a rank uses for point-to-point and
//! collective communication. All communicators of one rank share a
//! single matching engine ([`MpiState`]) and one fabric port; messages
//! carry a communicator context id (`cid`) so traffic never crosses
//! communicators.
//!
//! ## Protocols (paper Figure 1a/1b)
//!
//! * **Eager** (size ≤ eager limit): the payload rides in the envelope.
//!   Models the extra copies of the eager path by charging
//!   `size / copy_bw` at both sender (pack to bounce buffer) and
//!   receiver (unpack to user buffer).
//! * **Rendezvous**: RTS envelope → receiver matches and answers CTS →
//!   sender pushes the bulk data. No copy cost (zero-copy path), but the
//!   handshake costs a round trip — exactly the trade-off that makes
//!   notified RMA attractive (paper §II).
//!
//! ## Ordering
//!
//! The fabric may deliver datagrams out of order (multi-NIC jitter), so
//! every message carries a per-`(sender, receiver)` sequence number and
//! the receiver releases messages to the matching engine strictly in
//! sequence — MPI's non-overtaking rule holds even over an adaptively
//! routed fabric.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use unr_simnet::sync::Mutex;

use unr_simnet::{Bandwidth, Dgram, Endpoint, NicSel, Ns, Port};

use crate::wire::{Header, MsgKind, ANY_SOURCE, ANY_TAG, MPI_PORT};

/// Tuning knobs of the mini-MPI layer.
#[derive(Debug, Clone, Copy)]
pub struct MpiConfig {
    /// Messages at or below this size go eager.
    pub eager_limit: usize,
    /// Modeled memory-copy bandwidth for eager pack/unpack.
    pub copy_bw: Bandwidth,
    /// Per-call software overhead (matching, bookkeeping).
    pub overhead: Ns,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            eager_limit: 16 * 1024,
            copy_bw: Bandwidth::gibps(12.0),
            overhead: 120,
        }
    }
}

/// A received message (payload + envelope info).
#[derive(Debug, Clone)]
pub struct Msg {
    /// Sender's rank *within the receiving communicator*.
    pub src: usize,
    pub tag: i32,
    pub data: Vec<u8>,
}

/// Completion state shared between a posted receive and the matcher.
struct RecvSlot {
    cid: u32,
    /// World rank filter (ANY_SOURCE for wildcard).
    src_world: u32,
    tag: i32,
    result: Mutex<Option<(Header, Vec<u8>)>>,
}

impl RecvSlot {
    fn matches(&self, h: &Header) -> bool {
        h.cid == self.cid
            && (self.src_world == ANY_SOURCE || self.src_world == h.src)
            && (self.tag == ANY_TAG || self.tag == h.tag)
    }
}

/// Handle for a nonblocking receive.
pub struct RecvReq {
    slot: Arc<RecvSlot>,
}

/// Handle for a nonblocking send.
pub struct SendReq {
    /// None: already complete (eager). Some: rendezvous id still pending.
    rdv_id: Option<u64>,
}

/// Rendezvous send-side transaction.
struct RdvSend {
    dst_world: usize,
    data: Vec<u8>,
    /// Set once the CTS arrived and the data was pushed.
    done: bool,
    cts_seen: bool,
}

/// An envelope waiting in the unexpected queue.
struct Envelope {
    hdr: Header,
    /// `Some` for eager messages; `None` for RTS (payload comes later).
    data: Option<Vec<u8>>,
}

struct MpiInner {
    /// Per-source in-sequence delivery.
    next_seq_in: HashMap<u32, u64>,
    stash: HashMap<u32, BTreeMap<u64, (Header, Vec<u8>)>>,
    /// Matched-order queues.
    unexpected: VecDeque<Envelope>,
    posted: Vec<Arc<RecvSlot>>,
    /// Rendezvous state.
    rdv_sends: HashMap<u64, RdvSend>,
    /// Posted rendezvous receives, keyed by (sender world rank, the
    /// sender's transaction id) — ids are only unique per sender.
    rdv_recvs: HashMap<(u32, u64), Arc<RecvSlot>>,
    next_rdv: u64,
    /// Outgoing per-destination sequence numbers.
    next_seq_out: HashMap<usize, u64>,
    /// RMA epoch-control messages (consumed by `rma::Win`).
    rma_ctrl: VecDeque<(Header, Vec<u8>)>,
}

/// Per-rank matching engine shared by all communicators of that rank.
pub struct MpiState {
    port: Arc<Port>,
    inner: Mutex<MpiInner>,
    cfg: MpiConfig,
    next_cid: AtomicU32,
}

/// A communicator: a group of world ranks with private message context.
///
/// `Comm` is cheap to clone; clones share the matching engine. A `Comm`
/// must stay on its rank's thread (it borrows the rank's simulated
/// actor).
#[derive(Clone)]
pub struct Comm {
    ep: Arc<Endpoint>,
    state: Arc<MpiState>,
    /// Communicator rank -> world rank.
    group: Arc<Vec<usize>>,
    my_rank: usize,
    cid: u32,
}

impl Comm {
    /// Create the world communicator for this rank.
    pub fn world(ep: Endpoint) -> Comm {
        Self::world_with(ep, MpiConfig::default())
    }

    /// Create the world communicator with explicit tuning.
    pub fn world_with(ep: Endpoint, cfg: MpiConfig) -> Comm {
        let port = ep.open_port(MPI_PORT);
        let n = ep.world_size();
        let my_rank = ep.rank();
        Comm {
            ep: Arc::new(ep),
            state: Arc::new(MpiState {
                port,
                inner: Mutex::new(MpiInner {
                    next_seq_in: HashMap::new(),
                    stash: HashMap::new(),
                    unexpected: VecDeque::new(),
                    posted: Vec::new(),
                    rdv_sends: HashMap::new(),
                    rdv_recvs: HashMap::new(),
                    next_rdv: 1,
                    next_seq_out: HashMap::new(),
                    rma_ctrl: VecDeque::new(),
                }),
                cfg,
                next_cid: AtomicU32::new(1),
            }),
            group: Arc::new((0..n).collect()),
            my_rank,
            cid: 0,
        }
    }

    /// Rank within this communicator.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Size of this communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// Underlying endpoint (virtual clock, fabric access).
    pub fn ep(&self) -> &Endpoint {
        &self.ep
    }

    /// Shared handle to the endpoint (for co-existing libraries such as
    /// UNR that need to hold the rank's endpoint alongside `Comm`).
    pub fn ep_shared(&self) -> Arc<Endpoint> {
        Arc::clone(&self.ep)
    }

    /// Context id (diagnostics).
    pub fn cid(&self) -> u32 {
        self.cid
    }

    /// Translate a communicator rank to a world rank.
    pub fn world_rank(&self, comm_rank: usize) -> usize {
        self.group[comm_rank]
    }

    /// Translate a world rank to a rank in this communicator (if member).
    pub fn comm_rank_of_world(&self, world: usize) -> Option<usize> {
        self.group.iter().position(|&w| w == world)
    }

    pub(crate) fn config(&self) -> MpiConfig {
        self.state.cfg
    }

    // ---- sending ---------------------------------------------------------

    fn alloc_seq(&self, dst_world: usize) -> u64 {
        let mut inner = self.state.inner.lock();
        let c = inner.next_seq_out.entry(dst_world).or_insert(0);
        let s = *c;
        *c += 1;
        s
    }

    fn post_dgram(&self, dst_world: usize, hdr: Header, payload: &[u8]) {
        let buf = hdr.encode(payload);
        self.ep.send_dgram(dst_world, MPI_PORT, buf, NicSel::Auto);
    }

    /// Nonblocking send. The data is buffered; eager messages complete
    /// immediately, rendezvous messages complete once the receiver's CTS
    /// has been answered (progressed by any blocking call on this rank).
    pub fn isend(&self, dst: usize, tag: i32, data: &[u8]) -> SendReq {
        assert!(dst < self.size(), "destination rank out of range");
        assert!(tag >= 0, "user tags must be non-negative");
        self.isend_internal(dst, tag, data)
    }

    pub(crate) fn isend_internal(&self, dst: usize, tag: i32, data: &[u8]) -> SendReq {
        let dst_world = self.group[dst];
        let my_world = self.ep.rank();
        let cfg = self.state.cfg;
        self.ep.advance(cfg.overhead);
        let seq = self.alloc_seq(dst_world);
        if data.len() <= cfg.eager_limit {
            // Eager: model the pack copy into the bounce buffer.
            self.ep.advance(cfg.copy_bw.transfer_time(data.len()));
            let hdr = Header {
                kind: MsgKind::Eager,
                cid: self.cid,
                src: my_world as u32,
                tag,
                seq,
                size: data.len() as u64,
                rdv_id: 0,
            };
            self.post_dgram(dst_world, hdr, data);
            SendReq { rdv_id: None }
        } else {
            let rdv_id = {
                let mut inner = self.state.inner.lock();
                let id = inner.next_rdv;
                inner.next_rdv += 1;
                inner.rdv_sends.insert(
                    id,
                    RdvSend {
                        dst_world,
                        data: data.to_vec(),
                        done: false,
                        cts_seen: false,
                    },
                );
                id
            };
            let hdr = Header {
                kind: MsgKind::Rts,
                cid: self.cid,
                src: my_world as u32,
                tag,
                seq,
                size: data.len() as u64,
                rdv_id,
            };
            self.post_dgram(dst_world, hdr, &[]);
            SendReq {
                rdv_id: Some(rdv_id),
            }
        }
    }

    /// Blocking send (buffered semantics, like `MPI_Send`).
    pub fn send(&self, dst: usize, tag: i32, data: &[u8]) {
        let req = self.isend(dst, tag, data);
        self.wait_send(req);
    }

    /// Blocking send that accepts reserved (negative) tags — collective
    /// internals only.
    pub(crate) fn send_internal(&self, dst: usize, tag: i32, data: &[u8]) {
        let req = self.isend_internal(dst, tag, data);
        self.wait_send(req);
    }

    /// `sendrecv` that accepts reserved tags — collective internals only.
    pub(crate) fn sendrecv_internal(
        &self,
        dst: usize,
        send_tag: i32,
        data: &[u8],
        src: Option<usize>,
        recv_tag: i32,
    ) -> Msg {
        let rreq = self.irecv(src, recv_tag);
        let sreq = self.isend_internal(dst, send_tag, data);
        let msg = self.wait_recv(rreq);
        self.wait_send(sreq);
        msg
    }

    /// Wait for a nonblocking send to complete locally.
    pub fn wait_send(&self, req: SendReq) {
        let Some(id) = req.rdv_id else { return };
        loop {
            self.progress();
            {
                let inner = self.state.inner.lock();
                match inner.rdv_sends.get(&id) {
                    Some(s) if s.done => {
                        drop(inner);
                        self.state.inner.lock().rdv_sends.remove(&id);
                        return;
                    }
                    Some(_) => {}
                    None => return,
                }
            }
            self.block_on_port();
        }
    }

    /// Whether a send request has completed (progresses the engine).
    pub fn test_send(&self, req: &SendReq) -> bool {
        let Some(id) = req.rdv_id else { return true };
        self.progress();
        let inner = self.state.inner.lock();
        inner.rdv_sends.get(&id).map(|s| s.done).unwrap_or(true)
    }

    // ---- receiving -------------------------------------------------------

    /// Nonblocking receive. `src`/`tag` accept wildcards
    /// ([`crate::wire::ANY_SOURCE`] as `usize`, [`crate::wire::ANY_TAG`]).
    pub fn irecv(&self, src: Option<usize>, tag: i32) -> RecvReq {
        let src_world = match src {
            None => ANY_SOURCE,
            Some(s) => {
                assert!(s < self.size(), "source rank out of range");
                self.group[s] as u32
            }
        };
        self.ep.advance(self.state.cfg.overhead);
        let slot = Arc::new(RecvSlot {
            cid: self.cid,
            src_world,
            tag,
            result: Mutex::new(None),
        });
        let mut inner = self.state.inner.lock();
        // Try the unexpected queue first (arrival order).
        if let Some(pos) = inner.unexpected.iter().position(|e| slot.matches(&e.hdr)) {
            let env = inner.unexpected.remove(pos).expect("index valid");
            self.satisfy(&mut inner, &slot, env);
        } else {
            inner.posted.push(Arc::clone(&slot));
        }
        drop(inner);
        RecvReq { slot }
    }

    /// Wait for a receive to complete; returns the message.
    pub fn wait_recv(&self, req: RecvReq) -> Msg {
        loop {
            if let Some((hdr, data)) = req.slot.result.lock().take() {
                // Model the unpack copy for eager messages (rendezvous
                // data lands zero-copy).
                if hdr.kind == MsgKind::Eager {
                    self.ep
                        .advance(self.state.cfg.copy_bw.transfer_time(data.len()));
                }
                let src = self
                    .comm_rank_of_world(hdr.src as usize)
                    .expect("sender is a member of this communicator");
                return Msg {
                    src,
                    tag: hdr.tag,
                    data,
                };
            }
            self.progress();
            if req.slot.result.lock().is_some() {
                continue;
            }
            self.block_on_port();
        }
    }

    /// Whether a receive completed (progresses the engine).
    pub fn test_recv(&self, req: &RecvReq) -> bool {
        self.progress();
        req.slot.result.lock().is_some()
    }

    /// Blocking receive.
    pub fn recv(&self, src: Option<usize>, tag: i32) -> Msg {
        let req = self.irecv(src, tag);
        self.wait_recv(req)
    }

    /// Combined send + receive (deadlock-free pairwise exchange).
    pub fn sendrecv(
        &self,
        dst: usize,
        send_tag: i32,
        data: &[u8],
        src: Option<usize>,
        recv_tag: i32,
    ) -> Msg {
        let rreq = self.irecv(src, recv_tag);
        let sreq = self.isend(dst, send_tag, data);
        let msg = self.wait_recv(rreq);
        self.wait_send(sreq);
        msg
    }

    // ---- progress engine ---------------------------------------------------

    /// Drain and process every pending datagram (non-blocking).
    pub fn progress(&self) {
        loop {
            let d = self
                .ep
                .actor()
                .with_sched(|_st, _t| self.state.port.try_pop());
            match d {
                Some(d) => self.handle_dgram(d),
                None => break,
            }
        }
    }

    /// Park until something arrives on the mini-MPI port.
    pub(crate) fn block_on_port(&self) {
        let p1 = Arc::clone(&self.state.port);
        let p2 = Arc::clone(&self.state.port);
        self.ep
            .actor()
            .wait_until(move |_st| !p1.is_empty(), move |_st, me| p2.add_waiter(me));
    }

    fn handle_dgram(&self, d: Dgram) {
        let Some((hdr, payload)) = Header::decode(&d.bytes) else {
            panic!("malformed mini-MPI datagram from rank {}", d.src);
        };
        let payload = payload.to_vec();
        let mut inner = self.state.inner.lock();
        // In-sequence release per source.
        let next = inner.next_seq_in.entry(hdr.src).or_insert(0);
        if hdr.seq != *next {
            assert!(
                hdr.seq > *next,
                "duplicate sequence {} from {} (next {})",
                hdr.seq,
                hdr.src,
                *next
            );
            inner
                .stash
                .entry(hdr.src)
                .or_default()
                .insert(hdr.seq, (hdr, payload));
            return;
        }
        *next += 1;
        self.dispatch_msg(&mut inner, hdr, payload);
        // Release any consecutively stashed messages.
        loop {
            let src = hdr.src;
            let next_seq = *inner.next_seq_in.get(&src).expect("present");
            let Some(m) = inner.stash.get_mut(&src) else {
                break;
            };
            let Some((h2, p2)) = m.remove(&next_seq) else {
                break;
            };
            *inner.next_seq_in.get_mut(&src).expect("present") += 1;
            self.dispatch_msg(&mut inner, h2, p2);
        }
    }

    fn dispatch_msg(&self, inner: &mut MpiInner, hdr: Header, payload: Vec<u8>) {
        match hdr.kind {
            MsgKind::Eager | MsgKind::Rts => {
                let env = Envelope {
                    hdr,
                    data: (hdr.kind == MsgKind::Eager).then_some(payload),
                };
                if let Some(pos) = inner.posted.iter().position(|s| s.matches(&env.hdr)) {
                    let slot = inner.posted.remove(pos);
                    self.satisfy(inner, &slot, env);
                } else {
                    inner.unexpected.push_back(env);
                }
            }
            MsgKind::Cts => {
                // Sender side: push the bulk data now.
                let id = hdr.rdv_id;
                if let Some(s) = inner.rdv_sends.get_mut(&id) {
                    assert!(!s.cts_seen, "duplicate CTS for rdv {id}");
                    s.cts_seen = true;
                    let data = std::mem::take(&mut s.data);
                    let dst_world = s.dst_world;
                    s.done = true;
                    let my_world = self.ep.rank() as u32;
                    let seq = {
                        let c = inner.next_seq_out.entry(dst_world).or_insert(0);
                        let v = *c;
                        *c += 1;
                        v
                    };
                    let h = Header {
                        kind: MsgKind::RdvData,
                        cid: hdr.cid,
                        src: my_world,
                        tag: hdr.tag,
                        seq,
                        size: data.len() as u64,
                        rdv_id: id,
                    };
                    self.post_dgram(dst_world, h, &data);
                } else {
                    panic!("CTS for unknown rendezvous id {id}");
                }
            }
            MsgKind::RdvData => {
                let key = (hdr.src, hdr.rdv_id);
                let slot = inner
                    .rdv_recvs
                    .remove(&key)
                    .unwrap_or_else(|| panic!("rendezvous data for unknown (src, id) {key:?}"));
                *slot.result.lock() = Some((hdr, payload));
            }
            MsgKind::RmaCtrl => {
                inner.rma_ctrl.push_back((hdr, payload));
            }
        }
    }

    /// Complete a matched receive: eager data is delivered directly; an
    /// RTS triggers the CTS reply and parks the slot for the bulk data.
    fn satisfy(&self, inner: &mut MpiInner, slot: &Arc<RecvSlot>, env: Envelope) {
        match env.data {
            Some(data) => {
                *slot.result.lock() = Some((env.hdr, data));
            }
            None => {
                // Rendezvous: answer CTS.
                inner
                    .rdv_recvs
                    .insert((env.hdr.src, env.hdr.rdv_id), Arc::clone(slot));
                let dst_world = env.hdr.src as usize;
                let seq = {
                    let c = inner.next_seq_out.entry(dst_world).or_insert(0);
                    let v = *c;
                    *c += 1;
                    v
                };
                let h = Header {
                    kind: MsgKind::Cts,
                    cid: env.hdr.cid,
                    src: self.ep.rank() as u32,
                    tag: env.hdr.tag,
                    seq,
                    size: env.hdr.size,
                    rdv_id: env.hdr.rdv_id,
                };
                self.post_dgram(dst_world, h, &[]);
            }
        }
    }

    /// Pop a pending RMA control message matching `pred`, progressing
    /// the engine (used by `rma::Win`).
    pub(crate) fn take_rma_ctrl(
        &self,
        mut pred: impl FnMut(&Header, &[u8]) -> bool,
    ) -> Option<(Header, Vec<u8>)> {
        self.progress();
        let mut inner = self.state.inner.lock();
        let pos = inner.rma_ctrl.iter().position(|(h, p)| pred(h, p))?;
        inner.rma_ctrl.remove(pos)
    }

    /// Send an RMA control message (used by `rma::Win`).
    pub(crate) fn send_rma_ctrl(&self, dst_world: usize, tag: i32, rdv_id: u64, payload: &[u8]) {
        let seq = self.alloc_seq(dst_world);
        let hdr = Header {
            kind: MsgKind::RmaCtrl,
            cid: self.cid,
            src: self.ep.rank() as u32,
            tag,
            seq,
            size: payload.len() as u64,
            rdv_id,
        };
        self.post_dgram(dst_world, hdr, payload);
    }

    // ---- communicator management -----------------------------------------

    /// Collective: split this communicator by `color`; members with the
    /// same color form a new communicator ordered by `key` (ties broken
    /// by parent rank).
    pub fn split(&self, color: u32, key: i32) -> Comm {
        // Allgather (color, key) across the parent communicator.
        let mine = {
            let mut v = Vec::with_capacity(8);
            v.extend_from_slice(&color.to_le_bytes());
            v.extend_from_slice(&key.to_le_bytes());
            v
        };
        let all = crate::coll::allgather_bytes(self, &mine);
        let mut members: Vec<(i32, usize)> = Vec::new();
        for (r, b) in all.iter().enumerate() {
            let c = u32::from_le_bytes(b[0..4].try_into().expect("len"));
            let k = i32::from_le_bytes(b[4..8].try_into().expect("len"));
            if c == color {
                members.push((k, r));
            }
        }
        members.sort_unstable();
        let group: Vec<usize> = members.iter().map(|&(_, r)| self.group[r]).collect();
        let my_world = self.ep.rank();
        let my_rank = group
            .iter()
            .position(|&w| w == my_world)
            .expect("member of own split group");
        // All members derive the same new cid deterministically — valid
        // only if every rank performs the same sequence of splits. Agree
        // loudly rather than corrupt silently: allgather the proposal and
        // assert consensus within the new group.
        let cid = self.state.next_cid.fetch_add(1, Ordering::Relaxed) + color * 4096;
        let proposals = crate::coll::allgather_bytes(self, &cid.to_le_bytes());
        for (r, p) in proposals.iter().enumerate() {
            let theirs = u32::from_le_bytes(p[0..4].try_into().expect("cid"));
            let their_color = {
                let b = &all[r];
                u32::from_le_bytes(b[0..4].try_into().expect("color"))
            };
            assert!(
                their_color != color || theirs == cid,
                "communicator split divergence: rank {r} proposes cid {theirs},                  this rank {cid} — ranks must call split() in the same order"
            );
        }
        Comm {
            ep: Arc::clone(&self.ep),
            state: Arc::clone(&self.state),
            group: Arc::new(group),
            my_rank,
            cid,
        }
    }
}
