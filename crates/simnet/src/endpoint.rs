//! A rank's handle to the fabric ([`crate::fabric`]): the RMA, datagram
//! and membership operations an actor posts through it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::bytes::Bytes;
use crate::fabric::{
    AtomicAddSink, Cargo, Fabric, FabricError, GetOp, Leg, NicSel, PutOp, RegionSlot, Route,
};
use crate::mem::{MemRegion, RKey};
use crate::nic::InterfaceSpec;
use crate::queues::{CompletionKind, CompletionQueue, Dgram, Port};
use crate::sched::{ActorHandle, Sched};
use crate::time::Ns;

/// A rank-scoped, actor-bound handle to the fabric.
///
/// Not `Clone`: each endpoint is bound to one thread actor. A second
/// thread on the same rank gets its own endpoint via [`Fabric::attach`].
pub struct Endpoint {
    pub(crate) fabric: Arc<Fabric>,
    pub(crate) rank: usize,
    pub(crate) actor: ActorHandle,
}

impl Endpoint {
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn world_size(&self) -> usize {
        self.fabric.cfg.total_ranks()
    }

    pub fn iface(&self) -> InterfaceSpec {
        self.fabric.cfg.iface
    }

    pub fn actor(&self) -> &ActorHandle {
        &self.actor
    }

    // ---- time -----------------------------------------------------------

    /// Local virtual time.
    pub fn now(&self) -> Ns {
        self.actor.now()
    }

    /// Model `dt` of computation / software overhead.
    pub fn advance(&self, dt: Ns) {
        self.actor.advance(dt)
    }

    /// Sleep in virtual time.
    pub fn sleep(&self, dt: Ns) {
        self.actor.sleep(dt)
    }

    // ---- resources ------------------------------------------------------

    /// Create a completion queue. Its depth feeds the fabric-wide
    /// `simnet.cq.depth` gauge and drops feed `simnet.cq.dropped`.
    /// A `faults.cq_capacity` override (CQ-overflow pressure) takes
    /// precedence over the configured capacity.
    pub fn create_cq(&self) -> Arc<CompletionQueue> {
        let cfg = &self.fabric.cfg;
        Arc::new(CompletionQueue::with_obs(
            cfg.faults.cq_capacity.unwrap_or(cfg.cq_capacity),
            Some(Arc::clone(&self.fabric.metrics.cq_depth)),
            Some(Arc::clone(&self.fabric.metrics.cq_dropped)),
        ))
    }

    /// Register a memory region of `len` bytes; remote completions for
    /// operations targeting it are delivered to `remote_cq`.
    pub fn register(&self, len: usize, remote_cq: &Arc<CompletionQueue>) -> MemRegion {
        self.actor.with_sched(|_st, _t| {
            let rs = &mut self.fabric.inner.lock().ranks[self.rank];
            let id = rs.next_region;
            rs.next_region += 1;
            let slot = self.fabric.regions[self.rank].get_or_init(id, || RegionSlot {
                region: MemRegion::new(self.rank, id, len),
                cq: Arc::clone(remote_cq),
                dead: AtomicBool::new(false),
            });
            slot.region.clone()
        })
    }

    /// The region this rank registered under `id`, while it stays
    /// registered. Not a scheduler entry; lent, with no lock taken.
    pub fn region(&self, id: u32) -> Option<&MemRegion> {
        self.fabric.region(self.rank, id).map(|slot| &slot.region)
    }

    /// Deregister a region. In-flight operations targeting it are dropped
    /// (counted in `simnet.fabric.lost_writes`), as on real hardware.
    pub fn deregister(&self, region: &MemRegion) {
        let key = region.rkey;
        assert_eq!(key.rank, self.rank, "can only deregister own regions");
        self.actor.with_sched(|_st, _t| {
            if let Some(slot) = self.fabric.region(key.rank, key.id) {
                slot.dead.store(true, Ordering::Release);
            }
        });
    }

    /// Open (or fetch) a datagram port.
    pub fn open_port(&self, port: u32) -> Arc<Port> {
        self.actor
            .with_sched(|_st, _t| self.fabric.inner.lock().port(self.rank, port))
    }

    /// Install the level-4 atomic-add sink for this rank.
    pub fn set_add_sink(&self, sink: Arc<dyn AtomicAddSink>) {
        self.actor.with_sched(|_st, _t| {
            self.fabric.inner.lock().ranks[self.rank].sink = Some(sink);
        });
    }

    // ---- operations -----------------------------------------------------

    /// Check a transmission to `peer` on `nic`, in this order: the peer
    /// rank, the NIC index, and for an RMA that the interface has RMA
    /// primitives at all. Picks the loopback model within a node and
    /// the NIC model across nodes.
    fn route(&self, peer: usize, nic: NicSel, rma: bool) -> Result<Route, FabricError> {
        let cfg = &self.fabric.cfg;
        if peer >= cfg.total_ranks() {
            return Err(FabricError::BadRank(peer));
        }
        if let NicSel::Index(i) = nic {
            if i >= cfg.nics_per_node {
                return Err(FabricError::BadNic(i));
            }
        }
        if rma && !cfg.iface.rma_capable {
            return Err(FabricError::RmaUnsupported);
        }
        let intra = cfg.node_of(self.rank) == cfg.node_of(peer);
        Ok(Route {
            rank: self.rank,
            peer,
            nic,
            intra,
            model: if intra { cfg.intra } else { cfg.nic },
        })
    }

    /// Post a PUT (RMA write): one scheduler entry, which charges the
    /// post overhead too. Completion is asynchronous via CQs / signals.
    pub fn put(&self, op: PutOp<'_>) -> Result<(), FabricError> {
        self.put_stripes([op])
    }

    /// Post the stripes of one PUT. They read one source region, within
    /// the first one's start and the last one's end; that range is
    /// snapshotted once (the DMA engine reads it at post time; the local
    /// completion tells the app when reuse is safe), and each stripe
    /// carries its slice — shared, not owned: a fault-injected duplicate
    /// delivery reuses the same buffer. The first stripe goes in this
    /// actor's own scheduler entry and each later one a post overhead
    /// after the one before, as that entry's train
    /// ([`ActorHandle::post_train`]), which has run when this returns
    /// ([`ActorHandle::wait_train`]): the caller's next read or write
    /// sees the world at its own clock. A stripe that fails its checks
    /// fails the put before any stripe leaves.
    pub fn put_stripes<'a, I>(&self, ops: I) -> Result<(), FabricError>
    where
        I: IntoIterator<Item = PutOp<'a>>,
        I::IntoIter: DoubleEndedIterator,
    {
        let mut ops = ops.into_iter();
        let Some(first) = ops.next() else {
            return Ok(());
        };
        let last = ops.next_back();
        let (src, base) = (first.src, first.src_offset);
        let end = last.as_ref().unwrap_or(&first);
        let block = src
            .snapshot_shared(base, end.src_offset + end.len - base)
            .map_err(|e| FabricError::OutOfBounds(e.to_string()))?;
        let spec = self.fabric.cfg.iface;
        let stripe = |op: PutOp<'_>| {
            debug_assert_eq!(
                op.src.rkey, src.rkey,
                "the stripes of one put share a source"
            );
            let route = self.route(op.dst.rank, op.nic, true)?;
            if op.notify_remote && spec.custom_bits.put_remote == 0 && !spec.hardware_atomic_add {
                return Err(FabricError::NoRemoteNotify);
            }
            let cargo = Cargo {
                data: block.slice(op.src_offset - base, op.len),
                dst: op.dst,
                dst_offset: op.dst_offset,
                notify: op.notify_remote.then_some(op.custom_remote),
                companion: op.companion,
            };
            Ok(Stripe(route, cargo, Some((op.local_cq, op.custom_local))))
        };
        let first = stripe(first)?;
        // Empty, so no allocation, for an unstriped put.
        let rest = ops.chain(last).map(stripe).collect::<Result<Vec<_>, _>>()?;
        let steps = rest.len();
        let mut rest = rest.into_iter();
        let fabric = Arc::clone(&self.fabric);
        self.actor.post_train(
            |st, t| ((), post_stripe(&self.fabric, st, t, first), steps),
            move |st, t| post_stripe(&fabric, st, t, rest.next().expect("one step per stripe")),
        );
        if steps > 0 {
            self.actor.wait_train();
        }
        Ok(())
    }

    /// Post a PUT from an owned byte buffer, with no local or remote
    /// completion — the retransmission primitive of reliable
    /// transports: the payload was captured at the original post and
    /// is resent verbatim, with notification riding the optional
    /// companion datagram. Subject to the same NIC serialization,
    /// jitter and fault injection as [`Endpoint::put`].
    ///
    /// One scheduler entry, like every post: [`Endpoint::put_bytes_at`]
    /// and the post overhead it returns (an invalid put fails in it and
    /// charges nothing).
    pub fn put_bytes(
        &self,
        data: impl Into<Bytes>,
        dst: RKey,
        dst_offset: usize,
        nic: NicSel,
        companion: Option<(u32, Vec<u8>)>,
    ) -> Result<(), FabricError> {
        let data = data.into();
        self.actor.post(|st, t| {
            match self.put_bytes_at(st, t, data, dst, dst_offset, nic, companion) {
                Ok(overhead) => (Ok(()), overhead),
                Err(e) => (Err(e), 0),
            }
        })
    }

    /// The body of [`Endpoint::put_bytes`] in scheduler context, posted
    /// at `t_post` on behalf of this endpoint's rank — by its actor, or
    /// by a callback actor of the same rank. Returns the post overhead
    /// the poster still has to charge itself.
    #[allow(clippy::too_many_arguments)]
    pub fn put_bytes_at(
        &self,
        st: &mut Sched,
        t_post: Ns,
        data: Bytes,
        dst: RKey,
        dst_offset: usize,
        nic: NicSel,
        companion: Option<(u32, Vec<u8>)>,
    ) -> Result<Ns, FabricError> {
        let route = self.route(dst.rank, nic, true)?;
        let cargo = Cargo {
            data,
            dst,
            dst_offset,
            notify: None,
            companion,
        };
        Ok(post_stripe(
            &self.fabric,
            st,
            t_post,
            Stripe(route, cargo, None),
        ))
    }

    /// Post a GET (RMA read). The request travels to the target, the
    /// target region is read there, and the data lands locally one
    /// bandwidth-term plus one latency later.
    pub fn get(&self, op: GetOp<'_>) -> Result<(), FabricError> {
        let route = self.route(op.src.rank, op.nic, true)?;
        let spec = self.fabric.cfg.iface;
        if op.notify_remote && spec.custom_bits.get_remote == 0 && !spec.hardware_atomic_add {
            return Err(FabricError::NoRemoteNotify);
        }
        op.dst
            .check(op.dst_offset, op.len)
            .map_err(|e| FabricError::OutOfBounds(e.to_string()))?;
        let dst = op.dst.clone();
        let fabric = &self.fabric;
        fabric.metrics.gets.inc();
        fabric.metrics.bytes_get.add(op.len as u64);

        self.actor.with_sched(|st, t_post| {
            // The request carries no data: it takes no NIC time and
            // reaches the target one latency (plus jitter) later. The
            // reply leaves on the NIC the request picked.
            let mut inner = fabric.inner.lock();
            let nic = inner.pick_nic(route.rank, route.nic, fabric.cfg.nics_per_node);
            let t_req = t_post + route.model.latency + inner.jitter(&route.model);
            drop(inner);
            let route = Route {
                nic: NicSel::Index(nic),
                ..route
            };
            let fabric = Arc::clone(fabric);
            st.schedule_at(t_req, move |st| {
                if fabric.delivery_killed(route.rank, op.src.rank) {
                    return;
                }
                let read = fabric.region(op.src.rank, op.src.id).and_then(|slot| {
                    Some((slot.region.snapshot(op.src_offset, op.len).ok()?, &slot.cq))
                });
                if read.is_none() {
                    fabric.metrics.lost_writes.inc();
                }
                let flight = fabric.launch(Leg::GetReply, route, op.len, t_req);
                let Some((data, remote_cq)) = read else {
                    return;
                };
                if op.notify_remote {
                    let (kind, custom) = (CompletionKind::GetRemote, op.custom_remote);
                    fabric.complete(st, op.src.rank, Some(remote_cq), kind, custom, nic, t_req);
                }
                let f = Arc::clone(&fabric);
                flight.land(st, data, move |st, at, data| {
                    if dst.write_bytes(op.dst_offset, &data).is_err() {
                        f.metrics.lost_writes.inc();
                        return;
                    }
                    let (kind, custom) = (CompletionKind::GetLocal, op.custom_local);
                    f.complete(st, route.rank, op.local_cq.as_ref(), kind, custom, nic, at);
                });
            });
        });
        self.actor.advance(route.model.post_overhead);
        Ok(())
    }

    /// Send a small control datagram to `dst`'s `port`. Shares NIC
    /// bandwidth with RMA traffic. One scheduler entry:
    /// [`Endpoint::send_dgram_at`] and the post overhead it returns.
    pub fn send_dgram(&self, dst: usize, port: u32, bytes: Vec<u8>, nic: NicSel) {
        self.actor
            .post(|st, t| ((), self.send_dgram_at(st, t, dst, port, bytes, nic)));
    }

    /// The body of [`Endpoint::send_dgram`] in scheduler context, sent
    /// at `t_post` on behalf of this endpoint's rank — by its actor, or
    /// by a callback actor of the same rank. Returns the post overhead
    /// the sender still has to charge itself. Panics on a rank or NIC
    /// out of range. Datagram faults can be scoped to a port list, so
    /// one protocol's control traffic is lossy while another's (the
    /// bootstrap runtime's) stays reliable.
    pub fn send_dgram_at(
        &self,
        st: &mut Sched,
        t_post: Ns,
        dst: usize,
        port: u32,
        bytes: Vec<u8>,
        nic: NicSel,
    ) -> Ns {
        let route = self
            .route(dst, nic, false)
            .unwrap_or_else(|e| panic!("send_dgram: {e}"));
        let fabric = &self.fabric;
        fabric.metrics.dgrams.inc();
        let flight = fabric.launch(Leg::Dgram(port), route, bytes.len(), t_post);
        let f = Arc::clone(fabric);
        flight.land(st, bytes, move |st, at, bytes| {
            if f.delivery_killed(route.rank, dst) {
                return;
            }
            let src = route.rank;
            let port = f.inner.lock().port(dst, port);
            port.push(
                st,
                Dgram {
                    src,
                    t: at,
                    bytes,
                    lost: false,
                },
            );
        });
        route.model.post_overhead
    }

    // ---- membership (actor context) ---------------------------------------

    /// Kill `rank` from actor context: flips the membership state
    /// ([`Fabric::kill_rank`]) and wakes *every* parked actor so waiters
    /// whose addends can now never arrive re-evaluate their predicates
    /// and fail fast instead of deadlocking virtual time.
    pub fn kill_rank(&self, rank: usize) {
        self.actor.with_sched(|st, t| {
            self.fabric.kill_rank(rank);
            st.wake_all(t);
        });
    }

    /// Revive `rank` from actor context (new generation, new epoch) and
    /// wake every parked actor so pre-kill failure latches clear.
    pub fn revive_rank(&self, rank: usize) {
        self.actor.with_sched(|st, t| {
            self.fabric.revive_rank(rank);
            st.wake_all(t);
        });
    }

    // ---- blocking helpers -------------------------------------------------

    /// Block until `cq` is non-empty; returns the wake time.
    pub fn wait_cq(&self, cq: &Arc<CompletionQueue>) -> Ns {
        self.actor
            .wait_until(|_st| !cq.is_empty(), |_st, me| cq.add_waiter(me))
    }

    /// Block until `port` has a datagram, then pop it.
    pub fn recv_dgram(&self, port: &Arc<Port>) -> Dgram {
        self.actor
            .wait_until(|_st| !port.is_empty(), |_st, me| port.add_waiter(me));
        port.try_pop().expect("woken with message present")
    }

    /// Generic predicate wait in scheduler context.
    pub fn wait_until(
        &self,
        pred: impl FnMut(&mut Sched) -> bool,
        register: impl FnMut(&mut Sched, crate::sched::ActorId),
    ) -> Ns {
        self.actor.wait_until(pred, register)
    }
}

/// A checked PUT sub-message: its route, its cargo and its local
/// completion (a CQ and the raw bits; `None` for none at all).
struct Stripe(Route, Cargo, Option<(Option<Arc<CompletionQueue>>, u128)>);

/// The body every PUT shares, at `t_post`: launch the sub-message, raise
/// the local completion once the NIC has drained the source, never
/// faulted, and land the cargo. Returns the post overhead.
fn post_stripe(fabric: &Arc<Fabric>, st: &mut Sched, t_post: Ns, stripe: Stripe) -> Ns {
    let Stripe(route, cargo, local) = stripe;
    let len = cargo.data.len();
    fabric.metrics.puts.inc();
    fabric.metrics.bytes_put.add(len as u64);
    let flight = fabric.launch(Leg::Put, route, len, t_post);
    let (nic, end) = (flight.nic, flight.end);
    let hardware = fabric.cfg.iface.hardware_atomic_add;
    if let Some((cq, custom)) = local.filter(|(cq, _)| cq.is_some() || hardware) {
        let f = Arc::clone(fabric);
        st.schedule_at(end, move |st| {
            let kind = CompletionKind::PutLocal;
            f.complete(st, route.rank, cq.as_ref(), kind, custom, nic, end)
        });
    }
    let f = Arc::clone(fabric);
    flight.land(st, cargo, move |st, at, cargo| {
        f.land_put(st, route.rank, nic, at, cargo)
    });
    route.model.post_overhead
}
