//! MPI-style one-sided windows (the paper's Figure 4 baselines).
//!
//! A [`Win`] exposes a registered region to every rank of a
//! communicator. Data movement is real fabric RMA; *synchronization* is
//! implemented with the same protocol structure as production MPI
//! libraries, which is what gives each scheme its characteristic cost:
//!
//! * **fence** — active target, bulk-synchronous: complete all local
//!   operations, exchange per-target operation counts (alltoall), then
//!   wait until the counted remote arrivals have landed. Cost ≈ a
//!   collective per epoch.
//! * **PSCW** (post-start-complete-wait) — active target, restricted to
//!   an access group: `post`/`complete` control messages plus counted
//!   arrivals. Cost ≈ one control message each way — close to two-sided
//!   messaging, which is why the paper finds PSCW competitive with UNR
//!   on some fabrics (§VI-B).
//! * **lock/flush** — passive target: origin-side locking plus a
//!   flush-acknowledge round trip to guarantee remote completion.
//!
//! Every PUT carries the origin rank in its remote custom bits, so the
//! target can count per-origin arrivals; this is how real
//! implementations do counted completion on NICs with 32-bit immediate
//! data (and it fits: the paper notes foMPI/dCUDA split those bits into
//! rank+tag).

use unr_simnet::sync::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use unr_simnet::{
    CompletionKind, CompletionQueue, GetOp, MemRegion, NicSel, PutOp, RKey,
};

use crate::comm::Comm;
use crate::wire::Header;

/// RMA control sub-kinds (carried in the header `tag`).
const CTRL_POST: i32 = 1;
const CTRL_COMPLETE: i32 = 2;
const CTRL_LOCK_REQ: i32 = 3;
const CTRL_LOCK_GRANT: i32 = 4;
const CTRL_UNLOCK: i32 = 5;
const CTRL_FLUSH_REQ: i32 = 6;
const CTRL_FLUSH_ACK: i32 = 7;

/// Which epoch discipline the window is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Epoch {
    None,
    Fence,
    /// Access epoch via `start` (targets listed).
    Start,
    /// Passive epoch via `lock`.
    Lock,
}

struct WinState {
    /// Outstanding locally-incomplete operations.
    pending_local: u64,
    /// Puts issued per target comm rank in the current epoch.
    sent: Vec<u64>,
    /// Monotonic per-origin arrival counts. Never reset: all completion
    /// waiting uses *cumulative* expectations so that a fast peer's
    /// next-epoch puts arriving early cannot be mis-counted or lost
    /// (epoch aliasing).
    recvd_total: Vec<u64>,
    /// Cumulative fence expectation (sum over epochs of counted puts
    /// targeting this rank).
    fence_expect_cum: u64,
    /// Cumulative PSCW expectation per origin.
    pscw_cum: Vec<u64>,
    /// Monotonic per-target put counts (origin side, for flush).
    sent_total: Vec<u64>,
    /// Flush requests we could not answer yet: (origin, required count).
    pending_flush: Vec<(usize, u64)>,
    /// Pending lock state (target side).
    locked_by: Option<usize>,
    lock_queue: VecDeque<usize>,
    /// Lock grants received (origin side).
    granted: Vec<bool>,
    /// Posts received (target tells us its exposure epoch started).
    posts: Vec<u64>,
    /// Completes received: per-origin counts announced by `complete`.
    completes: VecDeque<(usize, u64)>,
    epoch: Epoch,
    /// Staging cursor for put bounce buffers.
    staging_cursor: usize,
}

/// An MPI-like one-sided window over `len` bytes on every rank.
pub struct Win {
    comm: Comm,
    region: MemRegion,
    staging: MemRegion,
    peers: Vec<RKey>,
    cq: Arc<CompletionQueue>,
    st: Mutex<WinState>,
    win_id: u64,
}

impl Win {
    /// Collectively create a window of `len` bytes per rank.
    pub fn create(comm: &Comm, len: usize, win_id: u64) -> Win {
        let ep = comm.ep();
        let cq = ep.create_cq();
        let region = ep.register(len, &cq);
        let staging = ep.register(len.max(1 << 20), &cq);
        // Exchange rkeys.
        let mut my = Vec::with_capacity(16);
        my.extend_from_slice(&(region.rkey.rank as u32).to_le_bytes());
        my.extend_from_slice(&region.rkey.id.to_le_bytes());
        my.extend_from_slice(&(region.rkey.len as u64).to_le_bytes());
        let all = crate::coll::allgather_bytes(comm, &my);
        let peers = all
            .iter()
            .map(|b| RKey {
                rank: u32::from_le_bytes(b[0..4].try_into().expect("rkey rank")) as usize,
                id: u32::from_le_bytes(b[4..8].try_into().expect("rkey id")),
                len: u64::from_le_bytes(b[8..16].try_into().expect("rkey len")) as usize,
            })
            .collect();
        let n = comm.size();
        Win {
            comm: comm.clone(),
            region,
            staging,
            peers,
            cq,
            st: Mutex::new(WinState {
                pending_local: 0,
                sent: vec![0; n],
                recvd_total: vec![0; n],
                fence_expect_cum: 0,
                pscw_cum: vec![0; n],
                sent_total: vec![0; n],
                pending_flush: Vec::new(),
                locked_by: None,
                lock_queue: VecDeque::new(),
                granted: vec![false; n],
                posts: vec![0; n],
                completes: VecDeque::new(),
                epoch: Epoch::None,
                staging_cursor: 0,
            }),
            win_id,
        }
    }

    /// The window's local memory.
    pub fn region(&self) -> &MemRegion {
        &self.region
    }

    /// Write `data` into the local window at `offset` (convenience).
    pub fn write_local(&self, offset: usize, data: &[u8]) {
        self.region
            .write_bytes(offset, data)
            .expect("window write in bounds");
    }

    /// Read from the local window at `offset` (convenience).
    pub fn read_local(&self, offset: usize, out: &mut [u8]) {
        self.region
            .read_bytes(offset, out)
            .expect("window read in bounds");
    }

    // ---- data movement ---------------------------------------------------

    /// One-sided put of `data` into `target`'s window at `target_offset`.
    /// Requires an open epoch (fence / start / lock).
    pub fn put(&self, data: &[u8], target: usize, target_offset: usize) {
        let mut st = self.st.lock();
        assert!(
            st.epoch != Epoch::None,
            "MPI-RMA synchronization error: put outside an access epoch"
        );
        if st.epoch == Epoch::Lock {
            assert!(
                st.granted[target],
                "MPI-RMA synchronization error: put to target {target} without lock"
            );
        }
        // Stage the user data (the `MPI_Put` copy-in) — wrap the cursor,
        // flushing local completions if the ring is exhausted.
        if st.staging_cursor + data.len() > self.staging.len() {
            drop(st);
            self.wait_local_zero();
            st = self.st.lock();
            st.staging_cursor = 0;
        }
        let off = st.staging_cursor;
        st.staging_cursor += data.len();
        st.pending_local += 1;
        st.sent[target] += 1;
        st.sent_total[target] += 1;
        drop(st);

        self.comm
            .ep()
            .advance(self.comm.config().copy_bw.transfer_time(data.len()));
        self.staging
            .write_bytes(off, data)
            .expect("staging in bounds");
        let origin_tag = (self.comm.ep().rank() as u128) + 1;
        self.comm
            .ep()
            .put(PutOp {
                src: &self.staging,
                src_offset: off,
                len: data.len(),
                dst: self.peers[target],
                dst_offset: target_offset,
                nic: NicSel::Auto,
                custom_local: 1,
                custom_remote: origin_tag,
                local_cq: Some(Arc::clone(&self.cq)),
                notify_remote: true,
                companion: None,
            })
            .expect("window put");
    }

    /// One-sided get from `target`'s window into the local window.
    pub fn get(&self, local_offset: usize, target: usize, target_offset: usize, len: usize) {
        let mut st = self.st.lock();
        assert!(
            st.epoch != Epoch::None,
            "MPI-RMA synchronization error: get outside an access epoch"
        );
        st.pending_local += 1;
        drop(st);
        self.comm
            .ep()
            .get(GetOp {
                dst: &self.region,
                dst_offset: local_offset,
                len,
                src: self.peers[target],
                src_offset: target_offset,
                nic: NicSel::Auto,
                custom_local: 1,
                custom_remote: 0,
                local_cq: Some(Arc::clone(&self.cq)),
                notify_remote: false,
            })
            .expect("window get");
    }

    // ---- progress --------------------------------------------------------

    /// Process completions and control traffic once (non-blocking).
    pub fn progress(&self) {
        // Drain CQ events.
        let mut events = Vec::new();
        self.comm
            .ep()
            .actor()
            .with_sched(|_st, _t| self.cq.drain(usize::MAX, &mut events));
        {
            let mut st = self.st.lock();
            for e in events {
                match e.kind {
                    CompletionKind::PutLocal | CompletionKind::GetLocal => {
                        st.pending_local -= 1;
                    }
                    CompletionKind::PutRemote => {
                        let origin_world = (e.custom - 1) as usize;
                        let origin = self
                            .comm
                            .comm_rank_of_world(origin_world)
                            .expect("put from a communicator member");
                        st.recvd_total[origin] += 1;
                    }
                    CompletionKind::GetRemote => {}
                }
            }
            // Answer flush requests that are now satisfied.
            let mut answered = Vec::new();
            let recvd_total = st.recvd_total.clone();
            st.pending_flush.retain(|&(origin, need)| {
                if recvd_total[origin] >= need {
                    answered.push(origin);
                    false
                } else {
                    true
                }
            });
            drop(st);
            for origin in answered {
                self.send_ctrl(origin, CTRL_FLUSH_ACK, 0, &[]);
            }
        }
        // Drain control messages addressed to this window.
        let wid = self.win_id;
        while let Some((hdr, payload)) = self.comm.take_rma_ctrl(|h, _| h.rdv_id == wid) {
            self.handle_win_ctrl(hdr, payload);
        }
    }

    fn handle_win_ctrl(&self, hdr: Header, payload: Vec<u8>) {
        let origin_world = hdr.src as usize;
        let origin = self
            .comm
            .comm_rank_of_world(origin_world)
            .expect("ctrl from communicator member");
        match hdr.tag {
            CTRL_POST => {
                self.st.lock().posts[origin] += 1;
            }
            CTRL_COMPLETE => {
                let count = u64::from_le_bytes(payload[0..8].try_into().expect("count"));
                self.st.lock().completes.push_back((origin, count));
            }
            CTRL_LOCK_REQ => {
                let grant = {
                    let mut st = self.st.lock();
                    if st.locked_by.is_none() {
                        st.locked_by = Some(origin);
                        true
                    } else {
                        st.lock_queue.push_back(origin);
                        false
                    }
                };
                if grant {
                    self.send_ctrl(origin, CTRL_LOCK_GRANT, 0, &[]);
                }
            }
            CTRL_LOCK_GRANT => {
                self.st.lock().granted[origin] = true;
            }
            CTRL_UNLOCK => {
                let next = {
                    let mut st = self.st.lock();
                    assert_eq!(
                        st.locked_by,
                        Some(origin),
                        "unlock from a rank that does not hold the lock"
                    );
                    st.locked_by = st.lock_queue.pop_front();
                    st.locked_by
                };
                if let Some(next) = next {
                    self.send_ctrl(next, CTRL_LOCK_GRANT, 0, &[]);
                }
            }
            CTRL_FLUSH_REQ => {
                let need = u64::from_le_bytes(payload[0..8].try_into().expect("count"));
                let ready = {
                    let mut st = self.st.lock();
                    if st.recvd_total[origin] >= need {
                        true
                    } else {
                        st.pending_flush.push((origin, need));
                        false
                    }
                };
                if ready {
                    self.send_ctrl(origin, CTRL_FLUSH_ACK, 0, &[]);
                }
            }
            CTRL_FLUSH_ACK => {
                // Consumed via completes queue reuse: push a marker.
                self.st.lock().completes.push_back((origin, u64::MAX));
            }
            other => panic!("unknown RMA control tag {other}"),
        }
    }

    fn send_ctrl(&self, target: usize, tag: i32, _aux: u64, payload: &[u8]) {
        let dst_world = self.comm.world_rank(target);
        self.comm.send_rma_ctrl(dst_world, tag, self.win_id, payload);
    }

    /// Block until `pred(self)` is true, progressing the window.
    fn wait_for(&self, mut pred: impl FnMut(&mut WinState) -> bool) {
        loop {
            self.progress();
            {
                let mut st = self.st.lock();
                if pred(&mut st) {
                    return;
                }
            }
            // Block until either a CQ event or a port message arrives.
            let cq1 = Arc::clone(&self.cq);
            self.comm.ep().actor().wait_until(
                {
                    let cq = Arc::clone(&self.cq);
                    let port = self.comm_port();
                    move |_st| !cq.is_empty() || !port.is_empty()
                },
                {
                    let port = self.comm_port();
                    move |_st, me| {
                        cq1.add_waiter(me);
                        port.add_waiter(me);
                    }
                },
            );
        }
    }

    fn comm_port(&self) -> Arc<unr_simnet::Port> {
        self.comm.ep().open_port(crate::wire::MPI_PORT)
    }

    fn wait_local_zero(&self) {
        self.wait_for(|st| st.pending_local == 0);
    }

    // ---- fence -----------------------------------------------------------

    /// Active-target bulk synchronization. Opens and closes epochs.
    pub fn fence(&self) {
        // Complete everything we initiated.
        self.wait_local_zero();
        // Exchange per-target put counts; then wait for counted arrivals.
        let n = self.comm.size();
        let sent = self.st.lock().sent.clone();
        let mut flat = Vec::with_capacity(8 * n);
        for s in &sent {
            flat.extend_from_slice(&s.to_le_bytes());
        }
        // counts[i][j] = number of puts rank i issued to rank j.
        let all = crate::coll::allgather_bytes(&self.comm, &flat);
        let me = self.comm.rank();
        let mut expect_total = 0u64;
        for row in all.iter() {
            expect_total +=
                u64::from_le_bytes(row[8 * me..8 * me + 8].try_into().expect("count"));
        }
        // Cumulative wait: immune to early next-epoch arrivals.
        {
            let mut st = self.st.lock();
            st.fence_expect_cum += expect_total;
        }
        self.wait_for(|st| st.recvd_total.iter().sum::<u64>() >= st.fence_expect_cum);
        let mut st = self.st.lock();
        st.sent.iter_mut().for_each(|c| *c = 0);
        st.staging_cursor = 0;
        st.epoch = Epoch::Fence;
    }

    // ---- PSCW ------------------------------------------------------------

    /// Expose the window to `origins` (target side of PSCW).
    pub fn post(&self, origins: &[usize]) {
        for &o in origins {
            self.send_ctrl(o, CTRL_POST, 0, &[]);
        }
    }

    /// Begin an access epoch to `targets`: waits for their `post`.
    pub fn start(&self, targets: &[usize]) {
        self.wait_for(|st| targets.iter().all(|&t| st.posts[t] > 0));
        let mut st = self.st.lock();
        for &t in targets {
            st.posts[t] -= 1;
        }
        st.epoch = Epoch::Start;
        st.sent.iter_mut().for_each(|c| *c = 0);
        st.staging_cursor = 0;
    }

    /// End the access epoch: completes local ops and notifies targets.
    pub fn complete(&self, targets: &[usize]) {
        self.wait_local_zero();
        let sent = {
            let mut st = self.st.lock();
            st.epoch = Epoch::None;
            std::mem::take(&mut st.sent)
        };
        {
            let mut st = self.st.lock();
            st.sent = vec![0; self.comm.size()];
        }
        for &t in targets {
            self.send_ctrl(t, CTRL_COMPLETE, 0, &sent[t].to_le_bytes());
        }
    }

    /// End the exposure epoch: wait for all origins' `complete` and all
    /// counted arrivals (cumulative, so epochs cannot alias).
    pub fn wait(&self, origins: &[usize]) {
        let mut announced: HashMap<usize, u64> = HashMap::new();
        self.wait_for(|st| {
            while let Some((o, c)) = st.completes.pop_front() {
                assert_ne!(c, u64::MAX, "flush ack during PSCW wait");
                st.pscw_cum[o] += c;
                announced.insert(o, st.pscw_cum[o]);
            }
            origins.iter().all(|o| announced.contains_key(o))
                && origins.iter().all(|o| st.recvd_total[*o] >= announced[o])
        });
    }

    // ---- passive target (lock / flush) ------------------------------------

    /// Acquire an exclusive lock on `target`'s window.
    pub fn lock(&self, target: usize) {
        self.send_ctrl(target, CTRL_LOCK_REQ, 0, &[]);
        self.wait_for(|st| st.granted[target]);
        let mut st = self.st.lock();
        st.epoch = Epoch::Lock;
        st.sent[target] = 0;
        st.staging_cursor = 0;
    }

    /// Flush: block until all puts to `target` are remotely complete.
    pub fn flush(&self, target: usize) {
        self.wait_local_zero();
        let count = self.st.lock().sent_total[target];
        self.send_ctrl(target, CTRL_FLUSH_REQ, 0, &count.to_le_bytes());
        // Wait for the ack marker.
        self.wait_for(|st| {
            if let Some(pos) = st
                .completes
                .iter()
                .position(|&(o, c)| o == target && c == u64::MAX)
            {
                st.completes.remove(pos);
                true
            } else {
                false
            }
        });
    }

    /// Release the lock on `target` (flushes first).
    pub fn unlock(&self, target: usize) {
        self.flush(target);
        self.send_ctrl(target, CTRL_UNLOCK, 0, &[]);
        let mut st = self.st.lock();
        st.granted[target] = false;
        st.epoch = Epoch::None;
        st.sent[target] = 0;
    }
}
