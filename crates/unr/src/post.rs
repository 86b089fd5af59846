//! The post path: what a UNR put or get *is*, written once.
//!
//! validate → coalesce or flush → stripe → register → send, generic
//! over the [`Transport`] under it (see [`crate::transport`] for the
//! seam). [`Unr`] with the default parameter is the simnet engine;
//! `unr-netfab`'s `NetUnr` holds a `Unr<NetTransport>` and derefs to
//! it. The `sig_wait` family is written once too ([`crate::wait`]), and
//! so are the rank-level calls around them — `mem_reg`, `progress`,
//! `finalize`, the clock, the epoch — and bring-up itself
//! ([`Unr::bring_up`]): a fabric's `init` passes in only its own facts
//! ([`FabricFacts`]) and the closure that builds its transport
//! ([`crate::sim`] for simnet).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use unr_obs::Obs;
use unr_simnet::sync::Mutex;
use unr_simnet::{Bandwidth, MemRegion, NicSel, Ns};

use crate::agg::{AggMetrics, Coalescer, FlushWhy};
use crate::blk::{Blk, MemCheckpoint, UnrMem};
use crate::channel::{Channel, DirEncodings, Mechanism};
use crate::config::{ProgressMode, UnrConfig};
use crate::epoch::{Epoch, PeerFailedCause, RecoveryPolicy};
use crate::error::UnrError;
use crate::level::{Encoding, Notif, SupportLevel};
use crate::metrics::{UnrMetrics, UnrStats};
use crate::retry::{Reliability, RetryPolicy, RetryState, Route};
use crate::signal::{striped_addends, SigKey, Signal, SignalTable};
use crate::sim::SimTransport;
use crate::transport::{RmaOp, Transport};
use crate::wire;

/// Engine state above the seam, shared with whatever drives progress
/// for the fabric (simnet's polling agent, netfab's control path).
/// [`Unr::bring_up`] builds it and hands it to the fabric's transport.
pub struct UnrCore {
    pub(crate) channel: Channel,
    pub(crate) table: Arc<SignalTable>,
    pub(crate) stats: UnrStats,
    pub(crate) cfg: UnrConfig,
    /// `cfg.progress`, resolved ([`UnrConfig::resolve_progress`]).
    pub(crate) progress_mode: ProgressMode,
    pub(crate) copy_bw: Bandwidth,
    pub(crate) met: UnrMetrics,
    /// Ack/replay state — `Some` iff reliability is active.
    pub(crate) retry: Option<Arc<RetryState>>,
    /// Small-message coalescer — `Some` iff `cfg.agg_eager_max > 0`.
    /// Only the application rank touches it (no progress driver ever
    /// flushes rings), so the mutex is uncontended. It also keeps the
    /// virtual copy time its buffered puts owe ([`Coalescer::owe`]).
    pub(crate) agg: Option<Mutex<Coalescer>>,
    pub(crate) amet: Option<AggMetrics>,
    /// What the fabric said about itself at bring-up.
    pub(crate) facts: FabricFacts,
    /// The registry every `unr.*` instrument of this rank lives in.
    pub(crate) obs: Arc<Obs>,
}

impl UnrCore {
    /// The MMAS signal table, which the fabric's receive side applies
    /// notifications to.
    pub fn table(&self) -> &Arc<SignalTable> {
        &self.table
    }

    /// Ack/replay state — `Some` iff the reliable transport is on.
    pub fn retry(&self) -> Option<&Arc<RetryState>> {
        self.retry.as_ref()
    }

    /// The resolved progress mode.
    pub fn progress_mode(&self) -> ProgressMode {
        self.progress_mode
    }
}

/// What a fabric tells [`Unr::bring_up`] about itself.
#[derive(Debug, Clone, Copy)]
pub struct FabricFacts {
    /// This rank.
    pub rank: usize,
    /// World size.
    pub nranks: usize,
    /// NICs per rank: the striping fan-out bound, and what
    /// retransmissions rotate over.
    pub nics: usize,
    /// The route reliable data sub-messages take on an RMA channel:
    /// [`Route::Rma`] where a put can carry a companion frame (simnet),
    /// [`Route::Dgram`] where the control channel carries the bytes
    /// (netfab).
    pub sub_route: Route,
    /// Whether the fabric injects faults: [`Reliability::Auto`] runs the
    /// reliable transport iff it does.
    pub faults: bool,
    /// Approximate wire time per byte, scaling retransmit deadlines by
    /// message size (0: unscaled).
    pub ns_per_byte: f64,
    /// Floor on the retransmit timeout. The config's value is tuned for
    /// a virtual nanosecond clock; a wall clock needs one above a real
    /// round trip (0: none).
    pub min_rto: Ns,
    /// Floor on the cap of the backed-off timeout (0: none).
    pub min_backoff_cap: Ns,
}

/// The UNR library context for one rank (`UNR_Init`), over transport
/// `T` — the simulator unless said otherwise.
pub struct Unr<T: Transport = SimTransport> {
    pub(crate) tx: T,
    pub(crate) core: Arc<UnrCore>,
}

impl<T: Transport> Unr<T> {
    /// `UNR_Init`, written once for every fabric: validate `cfg`, resolve
    /// [`Reliability::Auto`] against the fabric's faults, build the retry
    /// table, size the signal table to `channel`'s wire
    /// ([`Channel::key_capacity`]) and build the rest of the core — then
    /// the fabric's transport, from that finished core, whose tables its
    /// receive side shares.
    pub fn bring_up(
        cfg: UnrConfig,
        channel: Channel,
        facts: FabricFacts,
        obs: &Arc<Obs>,
        transport: impl FnOnce(&Arc<UnrCore>) -> T,
    ) -> Result<Unr<T>, UnrError> {
        cfg.validate()?;
        let reliable = match cfg.reliability {
            Reliability::On => true,
            Reliability::Off => false,
            Reliability::Auto => facts.faults,
        };
        let retry = reliable.then(|| {
            let policy = RetryPolicy {
                timeout: cfg.retry_timeout.max(facts.min_rto),
                max_backoff: cfg.retry_max_backoff.max(facts.min_backoff_cap),
                max_retries: cfg.max_retries,
                fallback_after: cfg.fallback_after,
                nics: facts.nics,
                ns_per_byte: facts.ns_per_byte,
            };
            Arc::new(RetryState::new(policy, facts.nranks))
        });
        let agg = cfg.agg_eager_max > 0;
        let core = Arc::new(UnrCore {
            progress_mode: cfg.resolve_progress(&channel, reliable),
            channel,
            table: SignalTable::with_key_capacity(cfg.n_bits, channel.key_capacity()),
            stats: UnrStats::default(),
            cfg,
            copy_bw: Bandwidth::gibps(cfg.copy_bw_gibps),
            met: UnrMetrics::new(obs, &channel),
            retry,
            agg: agg.then(|| {
                let c = Coalescer::new(facts.nranks, cfg.agg_flush_bytes, cfg.agg_flush_puts);
                Mutex::new(c)
            }),
            amet: agg.then(|| AggMetrics::new(obs)),
            facts,
            obs: Arc::clone(obs),
        });
        let tx = transport(&core);
        Ok(Unr { tx, core })
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
        self.core.facts.rank
    }

    /// World size.
    pub fn nranks(&self) -> usize {
        self.core.facts.nranks
    }

    /// The resolved progress mode.
    pub fn progress_mode(&self) -> ProgressMode {
        self.core.progress_mode
    }

    /// `UNR_Mem_Reg`: register `len` bytes for RMA.
    pub fn mem_reg(&self, len: usize) -> UnrMem {
        UnrMem::new(self.tx.register(len))
    }

    /// Drive progress from the calling thread: one pass. Returns the
    /// number of events processed (0 on a fabric whose receive side
    /// needs no help from the rank).
    pub fn progress(&self) -> usize {
        self.tx.progress_once()
    }

    /// Flush what is buffered and shut the transport down — its polling
    /// agent, its sockets (idempotent). Must be
    /// called before a simulated rank's actor ends; dropping the context
    /// does the same as a safety net.
    pub fn finalize(&self) {
        // Nothing buffered may die with the context.
        let _ = self.agg_flush_all(FlushWhy::Explicit);
        self.tx.shutdown();
    }

    /// Now, in nanoseconds on the transport's clock (virtual on simnet,
    /// wall since bring-up on netfab).
    pub fn now(&self) -> Ns {
        self.tx.now()
    }

    /// Let `dt` nanoseconds pass on the transport's clock.
    pub fn sleep(&self, dt: Ns) {
        self.tx.sleep(dt)
    }

    /// The registry every `unr.*` instrument of this rank lives in.
    pub fn obs(&self) -> &Obs {
        &self.core.obs
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

    // ---- membership & recovery --------------------------------------------

    /// The current membership epoch (see [`crate::epoch`]).
    ///
    /// [`Epoch::ZERO`] until a rank is killed; bumped on every kill and
    /// every revive/rejoin. On simnet, observing the epoch through this
    /// accessor also settles any pending advance into `unr.epoch.bumps`.
    pub fn epoch(&self) -> Epoch {
        self.tx.epoch()
    }

    /// `UNR_Checkpoint`: snapshot a registered region into an in-memory
    /// checkpoint stamped with the current membership epoch (the Besta &
    /// Hoefler in-memory-checkpoint model — see [`crate::epoch`]).
    pub fn checkpoint(&self, mem: &UnrMem) -> MemCheckpoint {
        mem.checkpoint(self.tx.epoch())
    }

    /// `UNR_Restore`: write a checkpoint back into its region. On a
    /// respawned/revived rank this runs *before* re-registering with
    /// peers, so the new epoch starts from the checkpointed bytes;
    /// survivors use it to roll back to the last epoch boundary.
    pub fn restore(&self, mem: &UnrMem, ckpt: &MemCheckpoint) {
        mem.restore(ckpt);
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

    /// The checks every put and get starts with; lends the local
    /// region.
    fn validate(&self, local: &Blk, remote: &Blk) -> Result<&MemRegion, UnrError> {
        self.check_peer_up(remote.rank)?;
        local.check_pair(
            remote,
            self.core.facts.rank,
            self.core.facts.nranks,
            self.tx.region(local.region_id),
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
        let aggregated = core.agg.is_some();
        if aggregated && len <= core.cfg.agg_eager_max && remote.rank != core.facts.rank {
            // Counted when its ring flushes.
            return self.put_agg(region, local, remote, local_sig, remote_sig, len);
        }
        self.count_puts(1, len);
        if aggregated {
            // A non-aggregable put to this destination must not overtake
            // puts already buffered for it: force its ring out first.
            self.agg_flush_dst(remote.rank, FlushWhy::Order)?;
        }

        if let Some(retry) = &core.retry {
            return self.put_reliable(region, local, remote, local_sig, remote_sig, len, retry);
        }

        match core.channel.mech {
            Mechanism::Dgram => {
                core.stats.fallback_msgs.fetch_add(1, Ordering::Relaxed);
                core.met.fallback_msgs.inc();
                self.count_sub_messages(1);
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
                self.count_sub_messages(1);
                core.met.stripe_fanout.record(1);
                let custom_local = Encoding::Split64.encode(notif_for(local_sig, -1))?;
                let companion = (remote_sig != 0).then(|| wire::companion_msg(remote_sig, -1));
                let op = RmaOp {
                    local: region,
                    local_offset: local.offset,
                    len,
                    remote: remote.rkey(),
                    remote_offset: remote.offset,
                    nic: self.default_nic(),
                    custom_local,
                    custom_remote: 0,
                };
                self.tx
                    .put(std::slice::from_ref(&op), companion)
                    .map_err(|(_, e)| e)
            }
            Mechanism::Rma(enc) => {
                self.put_rma(region, local, remote, local_sig, remote_sig, len, enc)
            }
        }
    }

    /// Count `puts` puts of `bytes` bytes in all, in [`UnrStats`] and the
    /// `unr.*` counters — once per put, or once per flush for the puts a
    /// ring coalesced.
    pub(crate) fn count_puts(&self, puts: usize, bytes: usize) {
        let (core, puts, bytes) = (&self.core, puts as u64, bytes as u64);
        core.stats.puts.fetch_add(puts, Ordering::Relaxed);
        core.stats.bytes_put.fetch_add(bytes, Ordering::Relaxed);
        core.met.puts.add(puts);
        core.met.bytes_put.add(bytes);
        core.met.channel_msgs.add(puts);
        core.met.level_msgs.add(puts);
    }

    pub(crate) fn count_sub_messages(&self, n: usize) {
        self.core
            .stats
            .sub_messages
            .fetch_add(n as u64, Ordering::Relaxed);
        self.core.met.sub_messages.add(n as u64);
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
        let (chunk, rem) = (len / k, len % k);
        let stripe = |i: usize| -> Result<RmaOp<'_>, UnrError> {
            let off = i * chunk + i.min(rem);
            Ok(RmaOp {
                local: region,
                local_offset: local.offset + off,
                len: chunk + usize::from(i < rem),
                remote: remote.rkey(),
                remote_offset: remote.offset + off,
                nic: if k == 1 {
                    self.default_nic()
                } else {
                    NicSel::Index(i % self.core.facts.nics)
                },
                custom_local: enc.put_local.encode(notif_for(local_sig, adds[i]))?,
                custom_remote: enc.put_remote.encode(notif_for(remote_sig, adds[i]))?,
            })
        };
        // An unstriped put, the common one, builds no `Vec` of stripes.
        let posted = if k == 1 {
            self.tx.put(std::slice::from_ref(&stripe(0)?), None)
        } else {
            let stripes = (0..k).map(stripe).collect::<Result<Vec<_>, _>>()?;
            self.tx.put(&stripes, None)
        };
        // Count what left, a failed put's stripes on the wire included.
        let (sent, failed) = match posted {
            Ok(()) => (k, None),
            Err((sent, e)) => (sent, Some(e)),
        };
        self.count_sub_messages(sent);
        failed.map_or(Ok(()), Err)
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

    /// Refuse new work once the reliable transport has declared the
    /// channel down, or the membership layer has declared the *target*
    /// rank dead (traffic between surviving ranks stays allowed).
    fn check_peer_up(&self, dst: usize) -> Result<(), UnrError> {
        if self.core.retry.as_ref().is_some_and(|r| r.failed()) {
            return Err(self.peer_failed_error());
        }
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

        let (custom_local, custom_remote) = match core.channel.mech {
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
                (
                    enc.get_local.encode(notif_for(local_sig, -1))?,
                    custom_remote,
                )
            }
        };
        self.tx.get(RmaOp {
            local: region,
            local_offset: local.offset,
            len,
            remote: remote.rkey(),
            remote_offset: remote.offset,
            nic: self.default_nic(),
            custom_local,
            custom_remote,
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
        let fits =
            |e: Encoding, key: u64| key == 0 || e.encode(Notif { key, addend: probe }).is_ok();
        if fits(enc.put_local, local_sig) && fits(enc.put_remote, remote_sig) {
            k
        } else {
            1
        }
    }

    /// Striping fan-out of the reliable path, which carries
    /// notifications in sequenced control messages, so the channel's
    /// addend width never constrains it.
    pub(crate) fn stripes_for_reliable(&self, len: usize) -> usize {
        let cfg = &self.core.cfg;
        let nics = self.core.facts.nics;
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
    pub(crate) fn default_nic(&self) -> NicSel {
        match self.core.cfg.pin_nic {
            Some(i) => NicSel::Index(i % self.core.facts.nics),
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
    /// Nothing buffered may die with the context. (The transport drops
    /// next and stops what it runs beside the rank.)
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = self.agg_flush_all(FlushWhy::Explicit);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::retry::Resend;
    use crate::transport::SeqPost;
    use crate::wait::{Until, Woke};
    use crate::wire::CtrlMsg;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicUsize;

    const NICS: usize = 2;
    const REGION: u32 = 7;
    const REGION_LEN: usize = 4096;
    const PEER: usize = 1;
    const REMOTE_KEY: u64 = 0x55;
    const SMALL: usize = 8;
    const BIG: usize = 256;

    /// One call across the seam, as the fake saw it.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum Call {
        /// One put: the stripes of the message that reached the wire.
        Put {
            stripes: Vec<Stripe>,
            companion: Option<Vec<u8>>,
        },
        Get {
            custom: (u128, u128),
        },
        /// One first transmission of a message's sub-messages: those
        /// that reached the wire.
        Seq {
            posts: Vec<Sub>,
            /// Retry-table entries when the call reached the transport.
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
        Park,
    }

    /// One stripe of a native put.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct Stripe {
        nic: NicSel,
        range: (usize, usize),
        custom: (u128, u128),
    }

    /// One sequenced sub-message of a [`Call::Seq`].
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct Sub {
        route: Route,
        nic: NicSel,
        dst: usize,
        dst_offset: usize,
        payload: Vec<u8>,
        /// Where the payload's bytes live: which allocation it views.
        payload_at: usize,
        frame: Vec<u8>,
    }

    /// What the fake's park does, set by a test that waits.
    pub(crate) type ParkHook = Box<dyn FnMut(&Until<'_>) -> Woke + Send>;

    /// The third `Transport`: records every call, moves no byte, fails
    /// the `fail_send`-th frame it is asked to send, and parks by
    /// running `park`.
    pub(crate) struct Fake {
        region: MemRegion,
        retry: Option<Arc<RetryState>>,
        fail_send: Option<usize>,
        sends: AtomicUsize,
        pub(crate) log: Mutex<Vec<Call>>,
        pub(crate) park: Mutex<ParkHook>,
    }

    impl Fake {
        /// Count one frame on its way to the wire; fail the
        /// `fail_send`-th.
        fn send(&self) -> Result<(), UnrError> {
            let nth = self.sends.fetch_add(1, Ordering::Relaxed) + 1;
            if self.fail_send == Some(nth) {
                return Err(self.peer_failed(PEER, PeerFailedCause::Killed));
            }
            Ok(())
        }
    }

    impl Transport for Fake {
        fn register(&self, _len: usize) -> MemRegion {
            unreachable!("the post path registers nothing")
        }
        fn region(&self, id: u32) -> Option<&MemRegion> {
            (id == REGION).then_some(&self.region)
        }
        /// Logs the stripes that reached the wire, and the call even
        /// when none did.
        fn put(
            &self,
            stripes: &[RmaOp<'_>],
            companion: Option<Vec<u8>>,
        ) -> Result<(), (usize, UnrError)> {
            let mut sent = Vec::new();
            let mut failed = None;
            for op in stripes {
                if let Err(e) = self.send() {
                    failed = Some((sent.len(), e));
                    break;
                }
                sent.push(Stripe {
                    nic: op.nic,
                    range: (op.local_offset, op.len),
                    custom: (op.custom_local, op.custom_remote),
                });
            }
            self.log.lock().push(Call::Put {
                stripes: sent,
                companion,
            });
            failed.map_or(Ok(()), Err)
        }
        fn get(&self, op: RmaOp<'_>) -> Result<(), UnrError> {
            self.log.lock().push(Call::Get {
                custom: (op.custom_local, op.custom_remote),
            });
            Ok(())
        }
        /// Logs the sub-messages that reached the wire, and the call
        /// even when none did.
        fn post_seq(&self, posts: Vec<SeqPost>) -> Result<(), (usize, UnrError)> {
            let in_flight = self.retry.as_ref().map_or(0, |r| r.in_flight());
            let mut sent = Vec::new();
            let mut failed = None;
            for post in posts {
                if let Err(e) = self.send() {
                    failed = Some((sent.len(), e));
                    break;
                }
                sent.push(Sub {
                    route: post.route,
                    nic: post.nic,
                    dst: post.dst.rank,
                    dst_offset: post.dst_offset,
                    payload: post.payload.to_vec(),
                    payload_at: post.payload.as_ptr() as usize,
                    frame: post.frame.into_vec(),
                });
            }
            self.log.lock().push(Call::Seq {
                posts: sent,
                in_flight,
            });
            failed.map_or(Ok(()), Err)
        }
        fn send_ctrl(&self, dst: usize, _nic: NicSel, frame: Vec<u8>) -> Result<(), UnrError> {
            self.send()?;
            self.log.lock().push(Call::Ctrl { dst, frame });
            Ok(())
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
                epoch: Epoch::ZERO,
                cause,
            }
        }
        fn epoch(&self) -> Epoch {
            Epoch::ZERO
        }
        fn park(&self, until: &Until<'_>) -> Woke {
            self.log.lock().push(Call::Park);
            (self.park.lock())(until)
        }
        fn progress_once(&self) -> usize {
            0
        }
        fn shutdown(&self) {}
        fn now(&self) -> Ns {
            0
        }
        fn sleep(&self, _dt: Ns) {}
    }

    pub(crate) fn engine(
        channel: Channel,
        reliable: bool,
        agg: bool,
        route: Route,
        fail_send: Option<usize>,
    ) -> Unr<Fake> {
        let cfg = UnrConfig {
            stripe_threshold: 64,
            agg_eager_max: if agg { 16 } else { 0 },
            reliability: if reliable {
                Reliability::On
            } else {
                Reliability::Off
            },
            retry_timeout: 1_000,
            retry_max_backoff: 8_000,
            max_retries: 3,
            fallback_after: 2,
            ..UnrConfig::default()
        };
        let facts = FabricFacts {
            rank: 0,
            nranks: 4,
            nics: NICS,
            sub_route: route,
            faults: false,
            ns_per_byte: 0.0,
            min_rto: 0,
            min_backoff_cap: 0,
        };
        let region = MemRegion::new(0, REGION, REGION_LEN);
        let pattern: Vec<u8> = (0..REGION_LEN).map(|i| i as u8).collect();
        region.write_bytes(0, &pattern).unwrap();
        let obs = Arc::new(Obs::new());
        Unr::bring_up(cfg, channel, facts, &obs, |core| Fake {
            region,
            retry: core.retry.clone(),
            fail_send,
            sends: AtomicUsize::new(0),
            log: Mutex::new(Vec::new()),
            park: Mutex::new(Box::new(|_| panic!("nothing here waits"))),
        })
        .unwrap()
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

    pub(crate) fn take_log(unr: &Unr<Fake>) -> Vec<Call> {
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
                Call::Park => 'W',
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
        let frame = |add: &mut dyn FnMut(usize, u64, i64), bytes: &[u8]| match CtrlMsg::parse(bytes)
        {
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
                Call::Put { stripes, companion } => {
                    for Stripe { custom, .. } in stripes {
                        let (l, r) = (local_enc.decode(custom.0), remote_enc.decode(custom.1));
                        add(0, l.key, l.addend);
                        add(1, r.key, r.addend);
                    }
                    if let Some(c) = companion {
                        frame(&mut add, c);
                    }
                }
                Call::Get { custom, .. } => {
                    let (l, r) = (local_enc.decode(custom.0), remote_enc.decode(custom.1));
                    add(0, l.key, l.addend);
                    add(1, r.key, r.addend);
                }
                Call::Seq { posts, .. } => posts.iter().for_each(|p| frame(&mut add, &p.frame)),
                Call::Ctrl { frame: f, .. } => frame(&mut add, f),
                Call::Complete { locals, .. } => {
                    locals.iter().for_each(|&(k, a)| add(0, k, a));
                }
                Call::Charge | Call::Park => {}
            }
        }
        sums
    }

    /// Every mechanism × reliability × sub-message route × fan-out ×
    /// coalescing: the seam calls a put makes, in order — one call for
    /// all its stripes; the block covered exactly once; both signals
    /// brought down by exactly one event (MMAS exactly-once); every
    /// sequenced stripe registered before the one call that posts them.
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
                        let unr = engine(channel, reliable, agg, route, None);
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
                        let k = if channel.multi_channel && len == BIG {
                            NICS
                        } else {
                            1
                        };
                        let want = match (coalesced, reliable) {
                            (true, false) => "$CL",
                            (true, true) => "$SL",
                            (false, true) if two_sided => "$SLL",
                            (false, true) => "SLL",
                            (false, false) if two_sided => "$CL",
                            (false, false) => "P",
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
                                Call::Put { stripes, .. } => {
                                    assert_eq!(stripes.len(), k, "{case}: one call per put");
                                    for Stripe { range, nic, .. } in stripes {
                                        assert_eq!(range.0, covered, "{case}");
                                        covered += range.1;
                                        assert_eq!(*nic == NicSel::Auto, k == 1, "{case}");
                                    }
                                }
                                Call::Seq { posts, in_flight } => {
                                    let subs = if coalesced { 1 } else { k };
                                    assert_eq!(posts.len(), subs, "{case}: one call per put");
                                    seqs += posts.len();
                                    assert_eq!(*in_flight, seqs, "{case}: register before send");
                                    for sub in posts {
                                        assert_eq!(sub.route, want_route, "{case}");
                                        if coalesced {
                                            continue;
                                        }
                                        let Sub {
                                            dst_offset,
                                            payload,
                                            frame,
                                            ..
                                        } = sub;
                                        let src: Vec<u8> = (covered..covered + payload.len())
                                            .map(|i| i as u8)
                                            .collect();
                                        assert_eq!(*payload, src, "{case}: the region's bytes");
                                        let at = remote.offset + covered - local.offset;
                                        assert_eq!(*dst_offset, at, "{case}");
                                        if let CtrlMsg::SeqData { payload: p, .. } =
                                            CtrlMsg::parse(frame)
                                        {
                                            assert_eq!(
                                                p, src,
                                                "{case}: and the frame carries them"
                                            );
                                        }
                                        covered += payload.len();
                                    }
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
                        assert_eq!(
                            stats.bytes_put.load(Ordering::Relaxed),
                            len as u64,
                            "{case}"
                        );
                        let subs = if coalesced { 1 } else { k };
                        assert_eq!(
                            stats.sub_messages.load(Ordering::Relaxed),
                            subs as u64,
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    /// The reliable stripes in `log`: `(peer, payload_at, payload)`.
    fn stripes(log: &[Call]) -> Vec<(usize, usize, Vec<u8>)> {
        log.iter()
            .flat_map(|call| match call {
                Call::Seq { posts, .. } => posts.as_slice(),
                _ => &[],
            })
            .map(|p| (p.dst, p.payload_at, p.payload.clone()))
            .collect()
    }

    /// A striped reliable put copies its block once: the stripes'
    /// payloads are consecutive views of one allocation holding the
    /// region's bytes. While they are unacked, the next put of the
    /// unchanged block reads that same allocation.
    #[test]
    fn a_striped_reliable_put_slices_one_snapshot() {
        let mut unr = engine(Channel::glex(), true, false, Route::Rma, None);
        Arc::get_mut(&mut unr.core)
            .expect("the fake keeps no core")
            .facts
            .nics = 4;
        let (local, remote) = pair(BIG, SigKey::NULL, REMOTE_KEY, PEER);
        unr.put(&local, &remote).unwrap();
        let first = stripes(&take_log(&unr));
        assert_eq!(first.len(), 4);
        let (mut at, mut covered) = (first[0].1, local.offset);
        for (_, payload_at, payload) in &first {
            assert_eq!(*payload_at, at, "the next bytes of the same buffer");
            let src: Vec<u8> = (covered..covered + payload.len())
                .map(|i| i as u8)
                .collect();
            assert_eq!(*payload, src, "the region's bytes");
            at += payload.len();
            covered += payload.len();
        }
        assert_eq!(covered, local.offset + BIG);

        unr.put(&local, &remote).unwrap();
        let second = stripes(&take_log(&unr));
        assert_eq!(second[0].1, first[0].1, "the pending snapshot, shared");
        assert_eq!(second, first);
    }

    /// A reliable put fanned out to three peers from one unchanged block
    /// makes one snapshot; a write to the block between two puts makes
    /// a second. Every stripe — and every retransmission of it — carries
    /// the block's bytes as of its own post.
    #[test]
    fn a_fanned_out_put_shares_one_snapshot_until_its_block_is_written() {
        let mut unr = engine(Channel::glex(), true, false, Route::Rma, None);
        Arc::get_mut(&mut unr.core)
            .expect("the fake keeps no core")
            .facts
            .nics = 4;
        // (peer, the block as of the post), in post order.
        let mut posted: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut snapshots: Vec<Vec<usize>> = Vec::new();
        let mut entries = Vec::new();
        for peers in [&[1, 2, 3][..], &[1, 2]] {
            if !posted.is_empty() {
                unr.tx.region.write_bytes(32 + 5, &[0xEE]).unwrap();
            }
            let mut bases = Vec::new();
            for &peer in peers {
                let (local, remote) = pair(BIG, SigKey::NULL, REMOTE_KEY, peer);
                unr.put(&local, &remote).unwrap();
                let mut block = vec![0; BIG];
                unr.tx.region.read_bytes(local.offset, &mut block).unwrap();
                let log = take_log(&unr);
                let sent = stripes(&log);
                assert_eq!(sent.len(), 4);
                assert!(sent.iter().all(|s| s.0 == peer));
                let payload: Vec<u8> = sent.iter().flat_map(|s| s.2.clone()).collect();
                assert_eq!(payload, block, "peer {peer}");
                bases.push(sent[0].1);
                for call in log {
                    if let Call::Complete { entries: e, .. } = call {
                        entries.extend(e);
                    }
                }
                posted.push((peer, block));
            }
            assert!(bases.iter().all(|&b| b == bases[0]), "one snapshot");
            snapshots.push(bases);
        }
        assert_ne!(snapshots[0][0], snapshots[1][0], "the write made a second");
        assert_eq!(posted[0].1[5], 32 + 5);
        assert_eq!(posted[3].1[5], 0xEE);

        let retry = unr.core.retry.as_ref().unwrap();
        assert_eq!(entries.len(), 5 * 4);
        retry.arm(0, &entries, |_| {});
        let resends = retry.sweep(1 << 40).resends;
        assert_eq!(resends.len(), entries.len());
        for peer in 1..=3 {
            let resent: Vec<u8> = resends
                .iter()
                .filter_map(|r| match r {
                    Resend::Rma {
                        payload, dst_rkey, ..
                    } if dst_rkey.rank == peer => Some(payload.to_vec()),
                    _ => None,
                })
                .flatten()
                .collect();
            let want: Vec<u8> = posted
                .iter()
                .filter(|(p, _)| *p == peer)
                .flat_map(|(_, block)| block.clone())
                .collect();
            assert_eq!(resent, want, "peer {peer}'s retransmissions");
        }
    }

    /// A get is one native operation, one control frame on the
    /// fallback channel, or both at level 0; a null key puts zero
    /// custom bits on the wire and asks for no completion; a channel
    /// without remote GET bits refuses a remote signal.
    #[test]
    fn gets_and_null_keys_cross_the_seam_as_the_channel_says() {
        for (channel, enc, want) in [
            (Channel::fallback(), Encoding::Split64, "C"),
            (Channel::level0(), Encoding::Split64, "CG"),
            (Channel::glex(), Encoding::Full128, "G"),
        ] {
            let unr = engine(channel, false, false, Route::Rma, None);
            let sig = unr.sig_init(1);
            let (local, remote) = pair(SMALL, sig.key(), REMOTE_KEY, PEER);
            unr.get(&local, &remote).unwrap();
            let log = take_log(&unr);
            assert_eq!(shape(&log), want, "{}", channel.name);
            let [local_sum, remote_sum] = addends(&log, enc, enc);
            assert_eq!(
                local_sum,
                HashMap::from([(sig.key().raw(), -1)]),
                "{}",
                channel.name
            );
            assert_eq!(
                remote_sum,
                HashMap::from([(REMOTE_KEY, -1)]),
                "{}",
                channel.name
            );
            assert_eq!(unr.stats().gets.load(Ordering::Relaxed), 1);
        }

        let unr = engine(Channel::glex(), false, false, Route::Rma, None);
        let (local, remote) = pair(BIG, SigKey::NULL, 0, PEER);
        unr.put(&local, &remote).unwrap();
        unr.get(&local, &remote).unwrap();
        let log = take_log(&unr);
        assert_eq!(shape(&log), "PG");
        let customs: Vec<_> = log
            .into_iter()
            .flat_map(|call| match call {
                Call::Put { stripes, .. } => stripes.into_iter().map(|s| s.custom).collect(),
                Call::Get { custom } => vec![custom],
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(customs.len(), NICS + 1);
        for custom in customs {
            assert_eq!(custom, (0, 0), "a null signal asks for no completion");
        }

        let unr = engine(Channel::verbs_mode1(), false, false, Route::Rma, None);
        let (local, remote) = pair(SMALL, SigKey::NULL, 3, PEER);
        let refused = unr.get(&local, &remote);
        assert!(matches!(refused, Err(UnrError::GetRemoteNotifyUnsupported)));
        assert_eq!(take_log(&unr), []);
    }

    /// What overtakes a ring flushes it first: a put too big to
    /// coalesce, or a get, to the ring's destination — and to no other.
    #[test]
    fn a_put_or_get_behind_a_ring_flushes_it_first() {
        let unr = engine(Channel::glex(), false, true, Route::Rma, None);
        let order_flushes = || unr.obs().metrics.counter("unr.agg.flush.order").get();
        let (small, small_rmt) = pair(SMALL, SigKey::NULL, REMOTE_KEY, PEER);
        let (big, big_rmt) = pair(BIG, SigKey::NULL, REMOTE_KEY, PEER);
        let (_, elsewhere) = pair(BIG, SigKey::NULL, REMOTE_KEY, 2);

        unr.put(&small, &small_rmt).unwrap();
        unr.put(&big, &elsewhere).unwrap();
        assert_eq!(shape(&take_log(&unr)), "P", "another rank's traffic passes");
        assert_eq!((unr.agg_backlog(PEER), order_flushes()), ((SMALL, 1), 0));

        unr.put(&big, &big_rmt).unwrap();
        let log = take_log(&unr);
        assert_eq!(shape(&log), "$CLP");
        assert!(matches!(&log[1], Call::Ctrl { dst: PEER, frame } if frame[0] == wire::MSG_AGG));
        assert_eq!((unr.agg_backlog(PEER), order_flushes()), ((0, 0), 1));

        unr.put(&small, &small_rmt).unwrap();
        unr.get(&small, &small_rmt).unwrap();
        assert_eq!(shape(&take_log(&unr)), "$CLG");
        assert_eq!(order_flushes(), 2);
    }

    /// The caller's `Err` is the whole story of a first post that
    /// failed: every stripe is registered before the one call, and the
    /// ones the transport reports unsent leave the retry table, so
    /// nothing is retransmitted and the in-flight count returns to what
    /// the wire holds — the stripes sent before the failure stay
    /// registered and armed.
    #[test]
    fn a_sub_message_whose_first_post_fails_is_unregistered() {
        for (route, nics, fail) in [
            (Route::Rma, 2, 2),
            (Route::Dgram, 2, 2),
            (Route::Rma, 4, 3),
            (Route::Dgram, 4, 1),
        ] {
            let case = format!("{route:?}, {nics} stripes, send {fail} fails");
            let mut unr = engine(Channel::glex(), true, false, route, Some(fail));
            Arc::get_mut(&mut unr.core)
                .expect("the fake keeps no core")
                .facts
                .nics = nics;
            let sig = unr.sig_init(1);
            let (local, remote) = pair(BIG, sig.key(), REMOTE_KEY, PEER);
            let failed = unr.put(&local, &remote);
            assert!(
                matches!(failed, Err(UnrError::PeerFailed { rank: PEER, .. })),
                "{case}"
            );
            let log = take_log(&unr);
            let sent = fail - 1;
            let [Call::Seq { posts, in_flight }, Call::Complete { entries, locals }] = &log[..]
            else {
                panic!("{case}: want one post_seq and its complete, got {log:?}")
            };
            assert_eq!(*in_flight, nics, "{case}: every stripe registered first");
            assert_eq!(posts.len(), sent, "{case}");
            assert_eq!(
                unr.retries_in_flight(),
                sent,
                "{case}: the stripes that left"
            );
            assert_eq!((entries.len(), locals.len()), (sent, 0), "{case}");
            // The armed entries are the first `sent` of the put's
            // sequence numbers, the ones the transport wrote.
            let seqs: Vec<u64> = entries.iter().map(|&(_, seq)| seq).collect();
            assert_eq!(seqs, (0..sent as u64).collect::<Vec<_>>(), "{case}");
            assert_eq!(
                sig.counter(),
                1,
                "{case}: no local completion for a failed put"
            );
        }

        let unr = engine(Channel::glex(), true, true, Route::Dgram, Some(1));
        let (local, remote) = pair(SMALL, SigKey::NULL, REMOTE_KEY, PEER);
        unr.put(&local, &remote).unwrap();
        assert!(matches!(unr.flush(), Err(UnrError::PeerFailed { .. })));
        assert_eq!(shape(&take_log(&unr)), "$S");
        assert_eq!(unr.retries_in_flight(), 0, "the aggregate's entry is gone");
        assert_eq!(unr.agg_backlog(PEER), (0, 0));
    }

    /// A raw put that fails part-way counts the stripes that reached
    /// the wire as sub-messages, no more and no fewer, and each stripe
    /// is its share of the block.
    #[test]
    fn a_raw_put_that_fails_counts_the_stripes_that_left() {
        for (nics, fail) in [(2, 1), (2, 2), (4, 3), (4, 4)] {
            let case = format!("{nics} stripes, send {fail} fails");
            let mut unr = engine(Channel::glex(), false, false, Route::Rma, Some(fail));
            Arc::get_mut(&mut unr.core)
                .expect("the fake keeps no core")
                .facts
                .nics = nics;
            let (local, remote) = pair(BIG, SigKey::NULL, REMOTE_KEY, PEER);
            let failed = unr.put(&local, &remote);
            assert!(
                matches!(failed, Err(UnrError::PeerFailed { rank: PEER, .. })),
                "{case}"
            );
            let log = take_log(&unr);
            let [Call::Put { stripes, .. }] = &log[..] else {
                panic!("{case}: want one put, got {log:?}")
            };
            let sent = fail - 1;
            let ranges: Vec<(usize, usize)> = stripes.iter().map(|s| s.range).collect();
            let chunk = BIG / nics;
            let want: Vec<(usize, usize)> = (0..sent).map(|i| (32 + i * chunk, chunk)).collect();
            assert_eq!(ranges, want, "{case}");
            assert_eq!(
                unr.stats().sub_messages.load(Ordering::Relaxed),
                sent as u64,
                "{case}"
            );
        }
    }

    /// `unr.puts`, `unr.bytes_put`, the channel's and the level's
    /// message counts and the two `UnrStats` fields they mirror.
    fn put_counts<T: Transport>(unr: &Unr<T>) -> [u64; 6] {
        let c = |name: String| unr.obs().metrics.counter(&name).get();
        let ch = unr.channel();
        [
            c("unr.puts".into()),
            c("unr.bytes_put".into()),
            c(format!("unr.channel.{}.msgs", ch.name)),
            c(format!("unr.level.{}.msgs", ch.level.as_index())),
            unr.stats().puts.load(Ordering::Relaxed),
            unr.stats().bytes_put.load(Ordering::Relaxed),
        ]
    }

    /// Coalesced puts are counted once per flush, from the ring's own
    /// totals, and come to what counting each put as it was posted
    /// gives: the same put counters and statistics as on an engine that
    /// coalesces nothing, and every coalesced put and byte in
    /// `unr.agg.*`.
    #[test]
    fn coalesced_puts_count_at_their_flush_what_each_put_would() {
        for reliable in [false, true] {
            let run = |agg: bool| {
                let unr = engine(Channel::glex(), reliable, agg, Route::Dgram, None);
                for (len, dst) in [(SMALL, PEER), (SMALL - 3, 2), (SMALL, PEER), (BIG, 2)] {
                    for _ in 0..5 {
                        let (local, remote) = pair(len, SigKey::NULL, REMOTE_KEY, dst);
                        unr.put(&local, &remote).unwrap();
                    }
                }
                unr.flush().unwrap();
                unr
            };
            let (coalesced, each) = (run(true), run(false));
            assert_eq!(
                put_counts(&coalesced),
                put_counts(&each),
                "reliable {reliable}"
            );
            let agg = |name: &str| coalesced.obs().metrics.counter(name).get();
            assert_eq!(agg("unr.agg.puts_coalesced"), 15);
            assert_eq!(agg("unr.agg.bytes_packed"), 15 * SMALL as u64 - 15);
        }
    }

    /// The coalescer's lock is the one lock of the post path: a thread
    /// that panicked while holding it must not take every later put
    /// with it (the ring is valid at every step).
    #[test]
    fn a_poisoned_coalescer_lock_does_not_panic_the_post_path() {
        let unr = engine(Channel::glex(), false, true, Route::Rma, None);
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
