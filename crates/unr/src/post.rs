//! The post path: what a UNR put or get *is*, written once.
//!
//! validate → coalesce or flush → stripe → register → send, generic
//! over the [`Transport`] under it (see [`crate::transport`] for the
//! seam). [`Unr`] with the default parameter is the simnet engine;
//! `unr-netfab`'s `NetUnr` holds a `Unr<NetTransport>` and derefs to
//! it. Everything fabric-specific that is *not* a leaf operation of
//! this path — `init`, the `sig_wait` family, the progress driver —
//! lives with the fabric ([`crate::engine`] for simnet).

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use unr_simnet::sync::Mutex;
use unr_simnet::{Bandwidth, MemRegion, NicSel, RKey};

use crate::agg::{AggFlush, AggMetrics, Coalescer, FlushWhy};
use crate::blk::{Blk, UnrMem};
use crate::channel::{Channel, DirEncodings, Mechanism};
use crate::engine::{SimTransport, UnrConfig, UnrError, UnrMetrics, UnrStats};
use crate::epoch::{PeerFailedCause, RecoveryPolicy};
use crate::level::{Encoding, Notif, SupportLevel};
use crate::retry::{RetryState, Route};
use crate::signal::{striped_addends, SigKey, Signal, SignalTable};
use crate::transport::{RmaOp, SeqPost, Transport};
use crate::wire;

/// Engine state above the seam, shared with whatever drives progress
/// for the fabric (simnet's polling agent, netfab's control path).
pub(crate) struct UnrCore {
    pub channel: Channel,
    pub table: Arc<SignalTable>,
    pub stats: UnrStats,
    pub cfg: UnrConfig,
    pub copy_bw: Bandwidth,
    pub met: UnrMetrics,
    /// Ack/replay state — `Some` iff reliability is active.
    pub retry: Option<Arc<RetryState>>,
    /// Small-message coalescer — `Some` iff `cfg.agg_eager_max > 0`.
    /// Only the application rank touches it (no progress driver ever
    /// flushes rings), so the mutex is uncontended.
    pub agg: Option<Mutex<Coalescer>>,
    pub amet: Option<AggMetrics>,
    /// Virtual copy time owed by buffered-but-unflushed aggregated
    /// puts. A per-put [`Transport::charge`] is a global scheduler op on
    /// simnet — the dominant wall cost of a sub-MTU put — so the pack
    /// loop only accumulates here and the flush settles the whole
    /// aggregate in one charge.
    pub agg_vcost: AtomicU64,
}

impl UnrCore {
    pub(crate) fn new(
        cfg: UnrConfig,
        channel: Channel,
        table: Arc<SignalTable>,
        retry: Option<Arc<RetryState>>,
        obs: &unr_obs::Obs,
        nranks: usize,
    ) -> UnrCore {
        let on = cfg.agg_eager_max > 0;
        UnrCore {
            channel,
            table,
            stats: UnrStats::default(),
            cfg,
            copy_bw: Bandwidth::gibps(cfg.copy_bw_gibps),
            met: UnrMetrics::new(obs, &channel),
            retry,
            agg: on.then(|| {
                Mutex::new(Coalescer::new(nranks, cfg.agg_flush_bytes, cfg.agg_flush_puts))
            }),
            amet: on.then(|| AggMetrics::new(obs)),
            agg_vcost: AtomicU64::new(0),
        }
    }
}

/// The UNR library context for one rank (`UNR_Init`), over transport
/// `T` — the simulator unless said otherwise.
pub struct Unr<T: Transport = SimTransport> {
    pub(crate) tx: T,
    pub(crate) core: Arc<UnrCore>,
}

impl<T: Transport> Unr<T> {
    /// The engine over an already-connected transport. The fabric's
    /// front-end (`Unr::init`, `NetUnr::init`) builds the signal table
    /// and the retry table first, because its receive side shares them.
    pub fn new(
        tx: T,
        cfg: UnrConfig,
        channel: Channel,
        table: Arc<SignalTable>,
        retry: Option<Arc<RetryState>>,
        obs: &unr_obs::Obs,
    ) -> Unr<T> {
        let core = UnrCore::new(cfg, channel, table, retry, obs, tx.nranks());
        Unr {
            tx,
            core: Arc::new(core),
        }
    }

    /// The transport under this engine.
    pub fn transport(&self) -> &T {
        &self.tx
    }

    /// Pre-resolved metric handles (crate-internal instrumentation).
    pub(crate) fn met(&self) -> &UnrMetrics {
        &self.core.met
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.tx.rank()
    }

    /// The selected transport channel.
    pub fn channel(&self) -> Channel {
        self.core.channel
    }

    /// The channel's support level.
    pub fn support_level(&self) -> SupportLevel {
        self.core.channel.level
    }

    /// Operation statistics.
    pub fn stats(&self) -> &UnrStats {
        &self.core.stats
    }

    /// The engine's MMAS signal table.
    pub fn table(&self) -> &Arc<SignalTable> {
        &self.core.table
    }

    /// Signal-table statistics (sync-error counters).
    pub fn signal_stats(&self) -> &crate::signal::SignalStats {
        &self.core.table.stats
    }

    /// FNV-1a fingerprint of the signal table's observable state
    /// ([`SignalTable::fingerprint`]) — the "final signal table" term
    /// of the hardware/software equivalence oracle.
    pub fn table_fingerprint(&self) -> u64 {
        self.core.table.fingerprint()
    }

    /// Signal-table occupancy probe: `(live signals, materialized slot
    /// capacity)` — [`SignalTable::occupancy`]. Two relaxed loads, no
    /// lock, no metric update: admission controllers (`unr-serve`) call
    /// this before every allocation to shed load *before* signal-table
    /// pressure can surface as an allocation failure, and a software
    /// run that merely probes keeps a byte-identical metrics snapshot.
    pub fn signal_occupancy(&self) -> (usize, usize) {
        self.core.table.occupancy()
    }

    /// Bytes and puts buffered in the small-message coalescer's ring
    /// for destination `dst` ([`Coalescer::backlog`]); `(0, 0)` when
    /// aggregation is off. Takes the (uncontended) coalescer lock — the
    /// caller is the same application rank that fills the ring.
    pub fn agg_backlog(&self, dst: usize) -> (usize, usize) {
        match &self.core.agg {
            Some(m) => m.lock().backlog(dst),
            None => (0, 0),
        }
    }

    /// Whether the self-healing (ack/replay) transport is active.
    pub fn reliable(&self) -> bool {
        self.core.retry.is_some()
    }

    /// Unacked reliable sub-messages currently buffered for replay
    /// (always 0 on an unreliable context).
    pub fn retries_in_flight(&self) -> usize {
        self.core.retry.as_ref().map_or(0, |r| r.in_flight())
    }

    /// The configured [`RecoveryPolicy`].
    pub fn recovery(&self) -> RecoveryPolicy {
        self.core.cfg.recovery
    }

    // ---- resources -------------------------------------------------------

    /// `UNR_Sig_Init`: allocate a signal triggered after `num_event`
    /// events.
    pub fn sig_init(&self, num_event: i64) -> Signal {
        self.core.table.alloc(num_event)
    }

    /// `UNR_Blk_Init`: describe a block of a registered region, bound to
    /// an optional signal.
    pub fn blk_init(&self, mem: &UnrMem, offset: usize, len: usize, sig: Option<&Signal>) -> Blk {
        mem.blk(offset, len, sig)
    }

    // ---- data movement ----------------------------------------------------

    /// `UNR_Put(local_blk, remote_blk)`: write the local block into the
    /// remote block. Triggers the local block's signal when the source
    /// buffer is reusable and the remote block's signal when the data
    /// has fully arrived (aggregated across sub-messages).
    pub fn put(&self, local: &Blk, remote: &Blk) -> Result<(), UnrError> {
        self.put_keyed(local, remote, local.sig_key, remote.sig_key)
    }

    /// `UNR_Put` with the signals chosen at call time instead of bound
    /// to the BLKs (paper §IV-D). The local side hands in its own
    /// [`Signal`]; the remote side's signal — which lives on the peer —
    /// is named by the [`SigKey`] carried in its serialized `Blk`.
    pub fn put_with(
        &self,
        local: &Blk,
        remote: &Blk,
        local_sig: Option<&Signal>,
        remote_sig: SigKey,
    ) -> Result<(), UnrError> {
        self.put_keyed(local, remote, local_sig.into(), remote_sig)
    }

    /// The checks every put and get starts with; hands back the local
    /// region.
    fn validate(&self, local: &Blk, remote: &Blk) -> Result<MemRegion, UnrError> {
        self.check_peer_up(remote.rank)?;
        local.check_pair(
            remote,
            self.tx.rank(),
            self.tx.nranks(),
            self.tx.region(local.region_id),
            MemRegion::len,
        )
    }

    /// `UNR_Put` with both signals given as raw [`SigKey`]s (the
    /// key-level surface used by [`RmaPlan`](crate::RmaPlan) replay).
    pub fn put_keyed(
        &self,
        local: &Blk,
        remote: &Blk,
        local_sig: SigKey,
        remote_sig: SigKey,
    ) -> Result<(), UnrError> {
        let local_sig = local_sig.raw();
        let remote_sig = remote_sig.raw();
        let region = self.validate(local, remote)?;
        let core = &self.core;
        let len = local.len;
        core.stats.puts.fetch_add(1, Ordering::Relaxed);
        core.stats.bytes_put.fetch_add(len as u64, Ordering::Relaxed);
        core.met.puts.inc();
        core.met.bytes_put.add(len as u64);
        core.met.channel_msgs.inc();
        core.met.level_msgs.inc();

        if core.agg.is_some() {
            if len <= core.cfg.agg_eager_max && remote.rank != self.tx.rank() {
                return self.put_agg(&region, local, remote, local_sig, remote_sig, len);
            }
            // A non-aggregable put to this destination must not overtake
            // puts already buffered for it: force its ring out first.
            self.agg_flush_dst(remote.rank, FlushWhy::Order)?;
        }

        if let Some(retry) = &core.retry {
            return self.put_reliable(&region, local, remote, local_sig, remote_sig, len, retry);
        }

        match core.channel.mech {
            Mechanism::Dgram => {
                core.stats.fallback_msgs.fetch_add(1, Ordering::Relaxed);
                core.met.fallback_msgs.inc();
                self.count_sub_message();
                core.met.stripe_fanout.record(1);
                // Two-sided emulation: pack (copy), send, notify locally.
                let data = region
                    .snapshot(local.offset, len)
                    .expect("local block in bounds");
                self.tx
                    .charge(core.copy_bw.transfer_time(len) + core.cfg.fallback_overhead);
                let msg = wire::fallback_data_msg(
                    remote.region_id,
                    remote.offset as u64,
                    remote_sig,
                    -1,
                    &data,
                );
                self.tx.send_ctrl(remote.rank, self.default_nic(), msg)?;
                self.tx.complete(&[], &[(local_sig, -1)]);
                Ok(())
            }
            Mechanism::RmaCompanion => {
                self.count_sub_message();
                core.met.stripe_fanout.record(1);
                let custom_local = Encoding::Split64.encode(notif_for(local_sig, -1))?;
                let companion = (remote_sig != 0).then(|| wire::companion_msg(remote_sig, -1));
                self.tx.put(
                    RmaOp {
                        local: &region,
                        local_offset: local.offset,
                        len,
                        remote: remote.rkey(),
                        remote_offset: remote.offset,
                        nic: self.default_nic(),
                        custom_local,
                        custom_remote: 0,
                        notify_local: local_sig != 0,
                        notify_remote: false,
                    },
                    companion,
                )
            }
            Mechanism::Rma(enc) => {
                self.put_rma(&region, local, remote, local_sig, remote_sig, len, enc)
            }
        }
    }

    fn count_sub_message(&self) {
        self.core.stats.sub_messages.fetch_add(1, Ordering::Relaxed);
        self.core.met.sub_messages.inc();
    }

    /// Native notifiable-RMA put with multi-NIC striping (MMAS): each
    /// sub-message carries one of `k` addends that sum to exactly `-1`
    /// on either side.
    #[allow(clippy::too_many_arguments)]
    fn put_rma(
        &self,
        region: &MemRegion,
        local: &Blk,
        remote: &Blk,
        local_sig: u64,
        remote_sig: u64,
        len: usize,
        enc: DirEncodings,
    ) -> Result<(), UnrError> {
        let k = self.stripes_for(len, local_sig, remote_sig, &enc);
        self.core.met.stripe_fanout.record(k as u64);
        let adds = striped_addends(k, self.core.table.n_bits());
        let chunk = len / k;
        let rem = len % k;
        let mut off = 0usize;
        for (i, &add) in adds.iter().enumerate() {
            let this = chunk + usize::from(i < rem);
            self.tx.put(
                RmaOp {
                    local: region,
                    local_offset: local.offset + off,
                    len: this,
                    remote: remote.rkey(),
                    remote_offset: remote.offset + off,
                    nic: if k == 1 {
                        self.default_nic()
                    } else {
                        NicSel::Index(i % self.tx.nics())
                    },
                    custom_local: enc.put_local.encode(notif_for(local_sig, add))?,
                    custom_remote: enc.put_remote.encode(notif_for(remote_sig, add))?,
                    notify_local: local_sig != 0 && !self.core.channel.hardware,
                    notify_remote: remote_sig != 0,
                },
                None,
            )?;
            off += this;
            self.count_sub_message();
        }
        Ok(())
    }

    /// `UNR_Put` through the self-healing transport: every sub-message
    /// carries a per-destination sequence number, is buffered until the
    /// receiver's ack and retransmitted on timeout (NIC rotation, then
    /// datagram fallback). Notifications ride sequenced control
    /// messages so the receiver's dedup window keeps the MMAS addend
    /// accounting exact under duplicates and replays; the local signal
    /// is applied once at post time (buffered-send semantics — the
    /// source buffer is snapshotted and immediately reusable).
    #[allow(clippy::too_many_arguments)]
    fn put_reliable(
        &self,
        region: &MemRegion,
        local: &Blk,
        remote: &Blk,
        local_sig: u64,
        remote_sig: u64,
        len: usize,
        retry: &RetryState,
    ) -> Result<(), UnrError> {
        let core = &self.core;
        let dst = remote.rank;
        // The fallback channel has no RMA to ride; elsewhere the
        // transport says how its sub-messages travel.
        let two_sided = matches!(core.channel.mech, Mechanism::Dgram);
        let route = if two_sided {
            core.stats.fallback_msgs.fetch_add(1, Ordering::Relaxed);
            core.met.fallback_msgs.inc();
            Route::Dgram
        } else {
            self.tx.sub_route()
        };
        let k = self.stripes_for_reliable(len);
        core.met.stripe_fanout.record(k as u64);
        let adds = striped_addends(k, core.table.n_bits());
        let chunk = len / k;
        let rem = len % k;
        let mut off = 0usize;
        let mut entries: Vec<(usize, u64)> = Vec::with_capacity(k);
        for (i, &add) in adds.iter().enumerate() {
            let this = chunk + usize::from(i < rem);
            // One shared snapshot per stripe: the retry buffer, the
            // wire post and any retransmission all alias it.
            let payload = region
                .snapshot_shared(local.offset + off, this)
                .expect("local block in bounds");
            if two_sided {
                self.tx
                    .charge(core.copy_bw.transfer_time(len) + core.cfg.fallback_overhead);
            }
            let nic = if k == 1 {
                retry.first_nic(core.cfg.pin_nic)
            } else {
                i % self.tx.nics()
            };
            // Register before posting: the progress driver sweeps this
            // state concurrently, and the ack must never be able to
            // outrun the registration it settles.
            let reg = retry.register_data(
                route,
                payload.clone(), // refcount bump, not a copy
                remote.rkey(),
                remote.offset + off,
                remote_sig,
                if remote_sig == 0 { 0 } else { add },
                nic,
            );
            let posted = self.tx.post_seq(SeqPost {
                route,
                dst: remote.rkey(),
                dst_offset: remote.offset + off,
                payload: &payload,
                frame: Cow::Owned(reg.frame),
                // An unstriped control frame goes where every other one
                // does; stripes and RMA sub-messages go by the NIC the
                // table will rotate away from.
                nic: if k == 1 && route != Route::Rma {
                    self.default_nic()
                } else {
                    NicSel::Index(nic)
                },
                first: reg.first,
            });
            if let Err(e) = posted {
                // The caller's `Err` is the whole story for this
                // stripe; the ones already on the wire stay watched.
                retry.unregister(dst, reg.seq);
                self.tx.complete(&entries, &[]);
                return Err(e);
            }
            entries.push((dst, reg.seq));
            off += this;
            self.count_sub_message();
        }
        // Stamp post times and arm the deadlines — on simnet without
        // these wake-ups a lost message would leave the virtual clock
        // with nothing to run and the world would deadlock.
        self.tx.complete(&entries, &[]);
        self.tx.complete(&[], &[(local_sig, -1)]);
        Ok(())
    }

    /// Append one eligible small put to its destination's aggregate
    /// ring. Per-put cost is the pack memcpy plus a few vector pushes;
    /// the per-message fallback overhead, the retry entry and every
    /// scheduler entry are deferred to the flush and amortized across
    /// the whole aggregate.
    fn put_agg(
        &self,
        region: &MemRegion,
        local: &Blk,
        remote: &Blk,
        local_sig: u64,
        remote_sig: u64,
        len: usize,
    ) -> Result<(), UnrError> {
        let data = region
            .snapshot(local.offset, len)
            .expect("local block in bounds");
        self.core
            .agg_vcost
            .fetch_add(self.core.copy_bw.transfer_time(len), Ordering::Relaxed);
        let trigger = {
            let mut c = self.core.agg.as_ref().expect("agg enabled").lock();
            c.push(
                remote.rank,
                remote.region_id,
                remote.offset as u64,
                &data,
                (remote_sig, -1),
                (local_sig, -1),
            )
        };
        if let Some(am) = &self.core.amet {
            am.puts_coalesced.inc();
            am.bytes_packed.add(len as u64);
        }
        match trigger {
            Some(why) => self.agg_flush_dst(remote.rank, why),
            None => Ok(()),
        }
    }

    /// Flush one destination's aggregate ring, if non-empty.
    fn agg_flush_dst(&self, dst: usize, why: FlushWhy) -> Result<(), UnrError> {
        let Some(aggm) = &self.core.agg else { return Ok(()) };
        let fl = {
            let mut c = aggm.lock();
            if !c.has_pending(dst) {
                return Ok(());
            }
            c.drain(dst)
        };
        match fl {
            Some(fl) => self.send_aggregate(dst, fl, why),
            None => Ok(()),
        }
    }

    /// Flush every pending aggregate ring, counting the flushes under
    /// `why` (blocking waits, plan boundaries, explicit flushes,
    /// finalize).
    pub fn agg_flush_all(&self, why: FlushWhy) -> Result<(), UnrError> {
        let Some(aggm) = &self.core.agg else { return Ok(()) };
        let flushes: Vec<(usize, AggFlush)> = {
            let mut c = aggm.lock();
            let dirty = c.take_dirty();
            dirty
                .into_iter()
                .filter_map(|d| c.drain(d).map(|f| (d, f)))
                .collect()
        };
        for (dst, fl) in flushes {
            self.send_aggregate(dst, fl, why)?;
        }
        Ok(())
    }

    /// Flush all pending small-message aggregates now. Aggregated puts
    /// are otherwise delivered when a ring crosses its threshold, when
    /// this rank enters any blocking wait (`sig_wait` family), at plan
    /// boundaries, and at finalize — a peer polling [`Signal::test`]
    /// without ever blocking observes them only after one of those.
    pub fn flush(&self) -> Result<(), UnrError> {
        self.agg_flush_all(FlushWhy::Explicit)
    }

    /// Serialize one drained aggregate ring into a [`wire::MSG_AGG`]
    /// control message and send it: one fallback sub-message (and, when
    /// reliable, one retry entry) for the whole aggregate. The local
    /// (source-completion) addends the coalescer deferred are applied
    /// here, in the same step that arms the entry's deadline.
    fn send_aggregate(&self, dst: usize, fl: AggFlush, why: FlushWhy) -> Result<(), UnrError> {
        let core = &self.core;
        core.stats.fallback_msgs.fetch_add(1, Ordering::Relaxed);
        core.met.fallback_msgs.inc();
        self.count_sub_message();
        if let Some(am) = &core.amet {
            am.count_flush(why);
            am.addends_summed.add(fl.sigs.len() as u64);
        }
        // One per-message software overhead for the whole aggregate —
        // this amortization is the modeled speedup — plus the pack
        // copies' accumulated virtual time, settled in one clock op.
        let owed = core.agg_vcost.swap(0, Ordering::Relaxed);
        self.tx.charge(core.cfg.fallback_overhead + owed);
        let Some(retry) = &core.retry else {
            let msg = wire::agg_msg(0, false, &fl.spans, &fl.sigs, &fl.payload);
            self.tx.send_ctrl(dst, self.default_nic(), msg)?;
            self.tx.complete(&[], &fl.local_sigs);
            return Ok(());
        };
        // Register before sending, as for any sub-message; the replay
        // buffer and the first transmission share the one frame.
        let nic = retry.first_nic(core.cfg.pin_nic);
        let reg = retry.register_agg(dst, nic, &fl.spans, &fl.sigs, &fl.payload);
        let posted = self.tx.post_seq(SeqPost {
            route: Route::Agg,
            dst: RKey {
                rank: dst,
                id: 0,
                len: 0,
            },
            dst_offset: 0,
            payload: &reg.frame,
            frame: Cow::Borrowed(&reg.frame),
            nic: self.default_nic(),
            first: reg.first,
        });
        if let Err(e) = posted {
            retry.unregister(dst, reg.seq);
            return Err(e);
        }
        self.tx.complete(&[(dst, reg.seq)], &fl.local_sigs);
        Ok(())
    }

    /// The error a latched-down reliable transport surfaces: the first
    /// sub-message that ran out of retransmissions names the peer.
    pub(crate) fn peer_failed_error(&self) -> UnrError {
        let (rank, attempts) = self
            .core
            .retry
            .as_ref()
            .and_then(|r| r.failure())
            .unwrap_or((0, self.core.cfg.max_retries));
        self.tx
            .peer_failed(rank, PeerFailedCause::RetryExhausted { attempts })
    }

    /// `Err` once the reliable transport has latched a peer down (a
    /// sub-message ran out of retransmissions) — the check a wait loop
    /// repeats.
    pub fn transport_up(&self) -> Result<(), UnrError> {
        if matches!(&self.core.retry, Some(r) if r.failed()) {
            return Err(self.peer_failed_error());
        }
        Ok(())
    }

    /// Refuse new work once the reliable transport has declared the
    /// channel down, or the membership layer has declared the *target*
    /// rank dead (traffic between surviving ranks stays allowed).
    fn check_peer_up(&self, dst: usize) -> Result<(), UnrError> {
        self.transport_up()?;
        if !self.tx.peer_alive(dst) {
            return Err(self.tx.peer_failed(dst, PeerFailedCause::Killed));
        }
        Ok(())
    }

    /// `UNR_Get(local_blk, remote_blk)`: read the remote block into the
    /// local block. The local signal triggers when the data has landed;
    /// the remote signal (if any) triggers at the exposer when its
    /// memory has been read — unsupported on channels without remote
    /// GET custom bits (Verbs).
    pub fn get(&self, local: &Blk, remote: &Blk) -> Result<(), UnrError> {
        self.get_keyed(local, remote, local.sig_key, remote.sig_key)
    }

    /// `UNR_Get` with the signals chosen at call time (see
    /// [`Unr::put_with`] for the local-`Signal` / remote-`SigKey`
    /// split). GETs bypass the self-healing transport: their data path
    /// is pull-driven and is not subject to injected faults.
    pub fn get_with(
        &self,
        local: &Blk,
        remote: &Blk,
        local_sig: Option<&Signal>,
        remote_sig: SigKey,
    ) -> Result<(), UnrError> {
        self.get_keyed(local, remote, local_sig.into(), remote_sig)
    }

    /// `UNR_Get` with both signals given as raw [`SigKey`]s.
    pub fn get_keyed(
        &self,
        local: &Blk,
        remote: &Blk,
        local_sig: SigKey,
        remote_sig: SigKey,
    ) -> Result<(), UnrError> {
        let local_sig = local_sig.raw();
        let remote_sig = remote_sig.raw();
        let region = self.validate(local, remote)?;
        let core = &self.core;
        let len = local.len;
        core.stats.gets.fetch_add(1, Ordering::Relaxed);
        core.met.gets.inc();
        core.met.channel_msgs.inc();
        core.met.level_msgs.inc();

        // A GET must not overtake puts still buffered for its target.
        self.agg_flush_dst(remote.rank, FlushWhy::Order)?;

        let mech = core.channel.mech;
        let (custom_local, custom_remote) = match mech {
            Mechanism::Dgram => {
                core.stats.fallback_msgs.fetch_add(1, Ordering::Relaxed);
                core.met.fallback_msgs.inc();
                let msg = wire::fallback_get_msg(
                    remote.region_id,
                    remote.offset as u64,
                    len as u64,
                    local.region_id,
                    local.offset as u64,
                    local_sig,
                    -1,
                    remote_sig,
                    -1,
                );
                return self.tx.send_ctrl(remote.rank, self.default_nic(), msg);
            }
            Mechanism::RmaCompanion => {
                if remote_sig != 0 {
                    // Level-0 remote GET notification: a plain control
                    // message racing the remote read — correctness-
                    // verification channel only.
                    let msg = wire::companion_msg(remote_sig, -1);
                    self.tx.send_ctrl(remote.rank, self.default_nic(), msg)?;
                }
                (Encoding::Split64.encode(notif_for(local_sig, -1))?, 0)
            }
            Mechanism::Rma(enc) => {
                let custom_remote = match (remote_sig, enc.get_remote) {
                    (0, _) => 0,
                    (_, None) => return Err(UnrError::GetRemoteNotifyUnsupported),
                    (key, Some(e)) => e.encode(Notif { key, addend: -1 })?,
                };
                (enc.get_local.encode(notif_for(local_sig, -1))?, custom_remote)
            }
        };
        self.tx.get(RmaOp {
            local: &region,
            local_offset: local.offset,
            len,
            remote: remote.rkey(),
            remote_offset: remote.offset,
            nic: self.default_nic(),
            custom_local,
            custom_remote,
            notify_local: local_sig != 0 && !core.channel.hardware,
            notify_remote: remote_sig != 0 && matches!(mech, Mechanism::Rma(_)),
        })
    }

    /// How many sub-messages a `len`-byte message is split into on the
    /// native path: the reliable path's gating plus the custom-bits
    /// probe — the largest-magnitude addend must be encodable for every
    /// direction that carries a real signal; otherwise fall back to a
    /// single message (Table I: limited multi-channel on mode 2).
    fn stripes_for(
        &self,
        len: usize,
        local_sig: u64,
        remote_sig: u64,
        enc: &DirEncodings,
    ) -> usize {
        let k = self.stripes_for_reliable(len);
        if k == 1 {
            return 1;
        }
        let probe = striped_addends(k, self.core.table.n_bits())[0];
        let fits = |e: Encoding, key: u64| key == 0 || e.encode(Notif { key, addend: probe }).is_ok();
        if fits(enc.put_local, local_sig) && fits(enc.put_remote, remote_sig) {
            k
        } else {
            1
        }
    }

    /// Striping fan-out of the reliable path, which carries
    /// notifications in sequenced control messages, so the channel's
    /// addend width never constrains it.
    fn stripes_for_reliable(&self, len: usize) -> usize {
        let cfg = &self.core.cfg;
        let nics = self.tx.nics();
        if !self.core.channel.multi_channel
            || cfg.max_stripes <= 1
            || len < cfg.stripe_threshold
            || nics <= 1
        {
            return 1;
        }
        nics.min(cfg.max_stripes).min(len).max(1)
    }

    /// NIC selection for non-striped traffic.
    fn default_nic(&self) -> NicSel {
        match self.core.cfg.pin_nic {
            Some(i) => NicSel::Index(i % self.tx.nics()),
            None => NicSel::Auto,
        }
    }
}

/// The notification a completion carries for signal `key`: nothing for
/// the null key, else `addend`.
fn notif_for(key: u64, addend: i64) -> Notif {
    if key == 0 {
        Notif::NULL
    } else {
        Notif { key, addend }
    }
}

impl<T: Transport> Drop for Unr<T> {
    /// Nothing buffered may die with the context. (What the fabric's
    /// front-end owns — the polling agent, the progress thread — it
    /// tears down itself.)
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = self.agg_flush_all(FlushWhy::Explicit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::RetryPolicy;
    use crate::wire::CtrlMsg;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicUsize;
    use unr_obs::Obs;
    use unr_simnet::Ns;

    const NICS: usize = 2;
    const REGION: u32 = 7;
    const REGION_LEN: usize = 4096;
    const PEER: usize = 1;
    const REMOTE_KEY: u64 = 0x55;
    const SMALL: usize = 8;
    const BIG: usize = 256;

    /// One call across the seam, as the fake saw it.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Put {
            nic: NicSel,
            range: (usize, usize),
            custom: (u128, u128),
            notify: (bool, bool),
            companion: Option<Vec<u8>>,
        },
        Get {
            custom: (u128, u128),
            notify: (bool, bool),
        },
        Seq {
            route: Route,
            nic: NicSel,
            dst_offset: usize,
            payload: Vec<u8>,
            frame: Vec<u8>,
            /// Retry-table entries when the post reached the transport.
            in_flight: usize,
        },
        Ctrl {
            dst: usize,
            frame: Vec<u8>,
        },
        Charge,
        Complete {
            entries: Vec<(usize, u64)>,
            locals: Vec<(u64, i64)>,
        },
    }

    /// The third `Transport`: records every call, moves no byte, and
    /// fails the `fail_send`-th frame it is asked to send.
    struct Fake {
        route: Route,
        region: MemRegion,
        retry: Option<Arc<RetryState>>,
        fail_send: Option<usize>,
        sends: AtomicUsize,
        log: Mutex<Vec<Call>>,
    }

    impl Fake {
        fn send(&self, call: Call) -> Result<(), UnrError> {
            let nth = self.sends.fetch_add(1, Ordering::Relaxed) + 1;
            if self.fail_send == Some(nth) {
                return Err(self.peer_failed(PEER, PeerFailedCause::Killed));
            }
            self.log.lock().push(call);
            Ok(())
        }
    }

    impl Transport for Fake {
        fn rank(&self) -> usize {
            0
        }
        fn nranks(&self) -> usize {
            4
        }
        fn nics(&self) -> usize {
            NICS
        }
        fn region(&self, id: u32) -> Option<MemRegion> {
            (id == REGION).then(|| self.region.clone())
        }
        fn put(&self, op: RmaOp<'_>, companion: Option<Vec<u8>>) -> Result<(), UnrError> {
            self.log.lock().push(Call::Put {
                nic: op.nic,
                range: (op.local_offset, op.len),
                custom: (op.custom_local, op.custom_remote),
                notify: (op.notify_local, op.notify_remote),
                companion,
            });
            Ok(())
        }
        fn get(&self, op: RmaOp<'_>) -> Result<(), UnrError> {
            self.log.lock().push(Call::Get {
                custom: (op.custom_local, op.custom_remote),
                notify: (op.notify_local, op.notify_remote),
            });
            Ok(())
        }
        fn sub_route(&self) -> Route {
            self.route
        }
        fn post_seq(&self, post: SeqPost<'_>) -> Result<(), UnrError> {
            self.send(Call::Seq {
                route: post.route,
                nic: post.nic,
                dst_offset: post.dst_offset,
                payload: post.payload.to_vec(),
                frame: post.frame.into_owned(),
                in_flight: self.retry.as_ref().map_or(0, |r| r.in_flight()),
            })
        }
        fn send_ctrl(&self, dst: usize, _nic: NicSel, frame: Vec<u8>) -> Result<(), UnrError> {
            self.send(Call::Ctrl { dst, frame })
        }
        fn charge(&self, _ns: Ns) {
            self.log.lock().push(Call::Charge);
        }
        fn complete(&self, entries: &[(usize, u64)], locals: &[(u64, i64)]) {
            self.log.lock().push(Call::Complete {
                entries: entries.to_vec(),
                locals: locals.to_vec(),
            });
        }
        fn peer_alive(&self, _dst: usize) -> bool {
            true
        }
        fn peer_failed(&self, rank: usize, cause: PeerFailedCause) -> UnrError {
            UnrError::PeerFailed {
                rank,
                epoch: crate::Epoch::ZERO,
                cause,
            }
        }
    }

    fn engine(
        obs: &Obs,
        channel: Channel,
        reliable: bool,
        agg: bool,
        route: Route,
        fail_send: Option<usize>,
    ) -> Unr<Fake> {
        let cfg = UnrConfig {
            stripe_threshold: 64,
            agg_eager_max: if agg { 16 } else { 0 },
            ..UnrConfig::default()
        };
        let retry = reliable.then(|| {
            let policy = RetryPolicy {
                timeout: 1_000,
                max_backoff: 8_000,
                max_retries: 3,
                fallback_after: 2,
                nics: NICS,
                ns_per_byte: 0.0,
            };
            Arc::new(RetryState::new(policy, 4))
        });
        let region = MemRegion::new(0, REGION, REGION_LEN);
        let pattern: Vec<u8> = (0..REGION_LEN).map(|i| i as u8).collect();
        region.write_bytes(0, &pattern).unwrap();
        let tx = Fake {
            route,
            region,
            retry: retry.clone(),
            fail_send,
            sends: AtomicUsize::new(0),
            log: Mutex::new(Vec::new()),
        };
        let table = SignalTable::with_key_capacity(cfg.n_bits, u64::MAX);
        Unr::new(tx, cfg, channel, table, retry, obs)
    }

    /// A block of this rank's region and one of `dst`'s.
    fn pair(len: usize, local: SigKey, remote: u64, dst: usize) -> (Blk, Blk) {
        let blk = |rank, region_id, offset, sig_key| Blk {
            rank,
            region_id,
            region_len: REGION_LEN,
            offset,
            len,
            sig_key,
        };
        (
            blk(0, REGION, 32, local),
            blk(dst, 9, 128, SigKey::from_raw(remote)),
        )
    }

    fn take_log(unr: &Unr<Fake>) -> Vec<Call> {
        std::mem::take(&mut *unr.tx.log.lock())
    }

    /// One letter per seam call: the order a fabric sees them in.
    fn shape(log: &[Call]) -> String {
        log.iter()
            .map(|c| match c {
                Call::Put { .. } => 'P',
                Call::Get { .. } => 'G',
                Call::Seq { .. } => 'S',
                Call::Ctrl { .. } => 'C',
                Call::Charge => '$',
                Call::Complete { .. } => 'L',
            })
            .collect()
    }

    /// `(local, remote)` addend totals per signal key over everything
    /// that crossed the seam: custom bits, companions, control frames
    /// and local completions.
    fn addends(log: &[Call], local_enc: Encoding, remote_enc: Encoding) -> [HashMap<u64, i64>; 2] {
        let mut sums = [HashMap::new(), HashMap::new()];
        let mut add = |side: usize, key: u64, addend: i64| {
            if key != 0 {
                *sums[side].entry(key).or_insert(0) += addend;
            }
        };
        let frame = |add: &mut dyn FnMut(usize, u64, i64), bytes: &[u8]| match CtrlMsg::parse(bytes) {
            CtrlMsg::Companion { key, addend }
            | CtrlMsg::FallbackData { key, addend, .. }
            | CtrlMsg::SeqData { key, addend, .. }
            | CtrlMsg::SeqNotif { key, addend, .. } => add(1, key, addend),
            CtrlMsg::FallbackGet {
                reply_key,
                reply_addend,
                remote_key,
                remote_addend,
                ..
            } => {
                add(0, reply_key, reply_addend);
                add(1, remote_key, remote_addend);
            }
            CtrlMsg::Agg { body, .. } => body.sigs().for_each(|(k, a)| add(1, k, a)),
            other => panic!("the post path never sends {other:?}"),
        };
        for call in log {
            match call {
                Call::Put {
                    custom, companion, ..
                } => {
                    let (l, r) = (local_enc.decode(custom.0), remote_enc.decode(custom.1));
                    add(0, l.key, l.addend);
                    add(1, r.key, r.addend);
                    if let Some(c) = companion {
                        frame(&mut add, c);
                    }
                }
                Call::Get { custom, .. } => {
                    let (l, r) = (local_enc.decode(custom.0), remote_enc.decode(custom.1));
                    add(0, l.key, l.addend);
                    add(1, r.key, r.addend);
                }
                Call::Seq { frame: f, .. } | Call::Ctrl { frame: f, .. } => frame(&mut add, f),
                Call::Complete { locals, .. } => {
                    locals.iter().for_each(|&(k, a)| add(0, k, a));
                }
                Call::Charge => {}
            }
        }
        sums
    }

    /// Every mechanism × reliability × sub-message route × fan-out ×
    /// coalescing: the seam calls a put makes, in order; the block
    /// covered exactly once; both signals brought down by exactly one
    /// event (MMAS exactly-once); every sequenced post registered
    /// before the transport sees it.
    #[test]
    fn a_put_is_the_same_seam_calls_and_exactly_one_event_per_signal_on_every_channel() {
        let channels = [
            (Channel::fallback(), Encoding::Split64, Encoding::Split64),
            (Channel::level0(), Encoding::Split64, Encoding::Split64),
            (Channel::glex(), Encoding::Full128, Encoding::Full128),
        ];
        for (channel, local_enc, remote_enc) in channels {
            for (reliable, route) in [
                (false, Route::Rma),
                (true, Route::Rma),
                (true, Route::Dgram),
            ] {
                for len in [SMALL, BIG] {
                    for agg in [false, true] {
                        let case = format!(
                            "{} reliable={reliable} route={route:?} len={len} agg={agg}",
                            channel.name
                        );
                        let obs = Obs::new();
                        let unr = engine(&obs, channel, reliable, agg, route, None);
                        let sig = unr.sig_init(1);
                        let (local, remote) = pair(len, sig.key(), REMOTE_KEY, PEER);
                        unr.put(&local, &remote).unwrap();
                        let coalesced = agg && len == SMALL;
                        if coalesced {
                            assert_eq!(take_log(&unr), [], "{case}: buffered, not posted");
                            assert_eq!(unr.agg_backlog(PEER), (SMALL, 1), "{case}");
                            unr.flush().unwrap();
                        }
                        let log = take_log(&unr);

                        let two_sided = matches!(channel.mech, Mechanism::Dgram);
                        let k = if channel.multi_channel && len == BIG { NICS } else { 1 };
                        let want = match (coalesced, reliable) {
                            (true, false) => "$CL".to_string(),
                            (true, true) => "$SL".to_string(),
                            (false, true) if two_sided => "$SLL".to_string(),
                            (false, true) => "S".repeat(k) + "LL",
                            (false, false) if two_sided => "$CL".to_string(),
                            (false, false) => "P".repeat(k),
                        };
                        assert_eq!(shape(&log), want, "{case}");

                        let [local_sum, remote_sum] = addends(&log, local_enc, remote_enc);
                        assert_eq!(local_sum, HashMap::from([(sig.key().raw(), -1)]), "{case}");
                        assert_eq!(remote_sum, HashMap::from([(REMOTE_KEY, -1)]), "{case}");

                        // Stripes (native or sequenced) tile the block;
                        // sequenced ones were in the table on arrival.
                        let want_route = match (coalesced, two_sided) {
                            (true, _) => Route::Agg,
                            (false, true) => Route::Dgram,
                            (false, false) => route,
                        };
                        let mut covered = local.offset;
                        let mut seqs = 0;
                        for call in &log {
                            match call {
                                Call::Put { range, nic, .. } => {
                                    assert_eq!(range.0, covered, "{case}");
                                    covered += range.1;
                                    assert_eq!(*nic == NicSel::Auto, k == 1, "{case}");
                                }
                                Call::Seq {
                                    route,
                                    dst_offset,
                                    payload,
                                    frame,
                                    in_flight,
                                    ..
                                } => {
                                    seqs += 1;
                                    assert_eq!(*route, want_route, "{case}");
                                    assert_eq!(*in_flight, seqs, "{case}: register before send");
                                    if coalesced {
                                        continue;
                                    }
                                    let src: Vec<u8> =
                                        (covered..covered + payload.len()).map(|i| i as u8).collect();
                                    assert_eq!(*payload, src, "{case}: the region's bytes");
                                    assert_eq!(*dst_offset, remote.offset + covered - local.offset);
                                    if let CtrlMsg::SeqData { payload: p, .. } = CtrlMsg::parse(frame) {
                                        assert_eq!(p, src, "{case}: and the frame carries them");
                                    }
                                    covered += payload.len();
                                }
                                _ => {}
                            }
                        }
                        // (A coalesced put and an unsequenced fallback
                        // frame carry the block whole.)
                        let striped = !coalesced && (reliable || !two_sided);
                        if striped {
                            assert_eq!(covered, local.offset + len, "{case}");
                        }
                        // Armed exactly the entries that were posted.
                        let armed: usize = log
                            .iter()
                            .map(|c| match c {
                                Call::Complete { entries, .. } => entries.len(),
                                _ => 0,
                            })
                            .sum();
                        assert_eq!(armed, seqs, "{case}");
                        assert_eq!(unr.retries_in_flight(), seqs, "{case}");

                        let stats = unr.stats();
                        assert_eq!(stats.puts.load(Ordering::Relaxed), 1, "{case}");
                        assert_eq!(stats.bytes_put.load(Ordering::Relaxed), len as u64, "{case}");
                        let subs = if coalesced { 1 } else { k };
                        assert_eq!(stats.sub_messages.load(Ordering::Relaxed), subs as u64, "{case}");
                    }
                }
            }
        }
    }

    /// A get is one native operation, one control frame on the
    /// fallback channel, or both at level 0; a null key puts zero
    /// custom bits on the wire and asks for no completion; a channel
    /// without remote GET bits refuses a remote signal.
    #[test]
    fn gets_and_null_keys_cross_the_seam_as_the_channel_says() {
        let obs = Obs::new();
        for (channel, enc, want) in [
            (Channel::fallback(), Encoding::Split64, "C"),
            (Channel::level0(), Encoding::Split64, "CG"),
            (Channel::glex(), Encoding::Full128, "G"),
        ] {
            let unr = engine(&obs, channel, false, false, Route::Rma, None);
            let sig = unr.sig_init(1);
            let (local, remote) = pair(SMALL, sig.key(), REMOTE_KEY, PEER);
            unr.get(&local, &remote).unwrap();
            let log = take_log(&unr);
            assert_eq!(shape(&log), want, "{}", channel.name);
            let [local_sum, remote_sum] = addends(&log, enc, enc);
            assert_eq!(local_sum, HashMap::from([(sig.key().raw(), -1)]), "{}", channel.name);
            assert_eq!(remote_sum, HashMap::from([(REMOTE_KEY, -1)]), "{}", channel.name);
            assert_eq!(unr.stats().gets.load(Ordering::Relaxed), 1);
        }

        let unr = engine(&obs, Channel::glex(), false, false, Route::Rma, None);
        let (local, remote) = pair(BIG, SigKey::NULL, 0, PEER);
        unr.put(&local, &remote).unwrap();
        unr.get(&local, &remote).unwrap();
        let log = take_log(&unr);
        assert_eq!(shape(&log), "PPG");
        for call in log {
            let (Call::Put { custom, notify, .. } | Call::Get { custom, notify }) = call else {
                unreachable!()
            };
            assert_eq!((custom, notify), ((0, 0), (false, false)));
        }

        let unr = engine(&obs, Channel::verbs_mode1(), false, false, Route::Rma, None);
        let (local, remote) = pair(SMALL, SigKey::NULL, 3, PEER);
        let refused = unr.get(&local, &remote);
        assert!(matches!(refused, Err(UnrError::GetRemoteNotifyUnsupported)));
        assert_eq!(take_log(&unr), []);
    }

    /// What overtakes a ring flushes it first: a put too big to
    /// coalesce, or a get, to the ring's destination — and to no other.
    #[test]
    fn a_put_or_get_behind_a_ring_flushes_it_first() {
        let obs = Obs::new();
        let order_flushes = || obs.metrics.counter("unr.agg.flush.order").get();
        let unr = engine(&obs, Channel::glex(), false, true, Route::Rma, None);
        let (small, small_rmt) = pair(SMALL, SigKey::NULL, REMOTE_KEY, PEER);
        let (big, big_rmt) = pair(BIG, SigKey::NULL, REMOTE_KEY, PEER);
        let (_, elsewhere) = pair(BIG, SigKey::NULL, REMOTE_KEY, 2);

        unr.put(&small, &small_rmt).unwrap();
        unr.put(&big, &elsewhere).unwrap();
        assert_eq!(shape(&take_log(&unr)), "PP", "another rank's traffic passes");
        assert_eq!((unr.agg_backlog(PEER), order_flushes()), ((SMALL, 1), 0));

        unr.put(&big, &big_rmt).unwrap();
        let log = take_log(&unr);
        assert_eq!(shape(&log), "$CLPP");
        assert!(matches!(&log[1], Call::Ctrl { dst: PEER, frame } if frame[0] == wire::MSG_AGG));
        assert_eq!((unr.agg_backlog(PEER), order_flushes()), ((0, 0), 1));

        unr.put(&small, &small_rmt).unwrap();
        unr.get(&small, &small_rmt).unwrap();
        assert_eq!(shape(&take_log(&unr)), "$CLG");
        assert_eq!(order_flushes(), 2);
    }

    /// The caller's `Err` is the whole story of a first post that
    /// failed: the entry leaves the retry table, so nothing is
    /// retransmitted and the in-flight count returns to what the wire
    /// holds — the stripes sent before it stay registered and armed.
    #[test]
    fn a_sub_message_whose_first_post_fails_is_unregistered() {
        let obs = Obs::new();
        for route in [Route::Rma, Route::Dgram] {
            let unr = engine(&obs, Channel::glex(), true, false, route, Some(2));
            let sig = unr.sig_init(1);
            let (local, remote) = pair(BIG, sig.key(), REMOTE_KEY, PEER);
            let failed = unr.put(&local, &remote);
            assert!(matches!(failed, Err(UnrError::PeerFailed { rank: PEER, .. })));
            let log = take_log(&unr);
            assert_eq!(shape(&log), "SL", "{route:?}");
            assert_eq!(unr.retries_in_flight(), 1, "{route:?}: the stripe that left");
            let Call::Complete { entries, locals } = &log[1] else {
                unreachable!()
            };
            assert_eq!((entries.len(), locals.len()), (1, 0));
            assert_eq!(sig.counter(), 1, "no local completion for a failed put");
        }

        let unr = engine(&obs, Channel::glex(), true, true, Route::Dgram, Some(1));
        let (local, remote) = pair(SMALL, SigKey::NULL, REMOTE_KEY, PEER);
        unr.put(&local, &remote).unwrap();
        assert!(matches!(unr.flush(), Err(UnrError::PeerFailed { .. })));
        assert_eq!(shape(&take_log(&unr)), "$");
        assert_eq!(unr.retries_in_flight(), 0, "the aggregate's entry is gone");
        assert_eq!(unr.agg_backlog(PEER), (0, 0));
    }

    /// The coalescer's lock is the one lock of the post path: a thread
    /// that panicked while holding it must not take every later put
    /// with it (the ring is valid at every step).
    #[test]
    fn a_poisoned_coalescer_lock_does_not_panic_the_post_path() {
        let obs = Obs::new();
        let unr = engine(&obs, Channel::glex(), false, true, Route::Rma, None);
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = unr.core.agg.as_ref().unwrap().lock();
                panic!("poisoning the coalescer's lock on purpose");
            })
            .join()
        });
        assert!(died.is_err());
        let (local, remote) = pair(SMALL, SigKey::NULL, REMOTE_KEY, PEER);
        unr.put(&local, &remote).unwrap();
        unr.flush().unwrap();
        assert_eq!(shape(&take_log(&unr)), "$CL");
    }
}
