//! The per-rank KV service core: admission control, the replicated
//! PUT path, the one-sided GET path, and completion reaping.
//!
//! ## The replication ack, in one signal
//!
//! A PUT to key `k` encodes its record into a scratch slot, then
//! issues one notified put per *remote* replica — every one binding
//! the same local ack signal, allocated with `num_event = R_remote`.
//! Addends are associative (summed MMAS, paper §IV-B): each put
//! contributes `-1`, in any order, possibly batched, and the signal
//! fires exactly when all `R_remote` replicas are on the wire with the
//! reliable transport owning redelivery. Quorum detection is one
//! `Signal::test` — no per-replica state, no reply messages. A replica
//! that *is* this rank is written directly into the local window (no
//! loopback RMA), so `num_event` counts only remote legs.
//!
//! ## Admission before allocation — the ordering bug this fixes
//!
//! An earlier draft allocated the request's ack signal *first* and
//! only then consulted the high-water marks; under burst load the
//! signal table hit its hard budget and clients saw raw allocation
//! failures instead of typed backpressure. The invariant now: every
//! resource probe ([`Unr::signal_occupancy`], [`Unr::agg_backlog`],
//! the scratch free-list) runs **before** `sig_init`, and the
//! high-water mark is strictly below the hard
//! budget — so saturation always surfaces as
//! [`ServeError::Overloaded`] and the regression suite asserts
//! `sig_alloc_fails == 0` under a load that sheds thousands of
//! requests.

use unr_core::{Blk, SigKey, Signal, Transport, Unr, UnrError, UnrMem};
use unr_obs::{Counter, Histogram, Obs, HIST_BUCKETS};

use crate::cache::ResponseCache;
use crate::store::{decode_record, encode_record, rec_len, Placement};
use crate::workload::{Arrival, OpKind};
use crate::{OverloadCause, ServeConfig, ServeError};

use std::sync::Arc;

/// `unr.serve.*` instruments, registered in the engine's [`Obs`] sink.
pub struct ServeMetrics {
    /// Durably replicated PUTs.
    pub puts: Arc<Counter>,
    /// Completed GETs (cache hits included).
    pub gets: Arc<Counter>,
    /// GETs served from the response cache.
    pub hits: Arc<Counter>,
    /// GETs that had to touch the fabric (or the local window).
    pub misses: Arc<Counter>,
    /// Requests shed by admission control (all causes).
    pub shed: Arc<Counter>,
    /// Sheds at the scratch/in-flight high-water mark.
    pub shed_inflight: Arc<Counter>,
    /// Sheds at the signal-table high-water mark.
    pub shed_signal: Arc<Counter>,
    /// Sheds at an aggregation-ring high-water mark.
    pub shed_agg: Arc<Counter>,
    /// Remote replica legs acknowledged via the summed ack signal.
    pub replica_acks: Arc<Counter>,
    /// Signal allocations refused at the hard budget — must stay zero;
    /// admission is required to shed first.
    pub sig_alloc_fails: Arc<Counter>,
    /// End-to-end request latency, scheduled arrival → completion
    /// (virtual ns on simnet, wall ns on netfab).
    pub request_ns: Arc<Histogram>,
}

impl ServeMetrics {
    /// Register (or re-attach to) the `unr.serve.*` instruments.
    pub fn register(obs: &Obs) -> ServeMetrics {
        let c = |n: &str| obs.metrics.counter(n);
        ServeMetrics {
            puts: c("unr.serve.puts"),
            gets: c("unr.serve.gets"),
            hits: c("unr.serve.hits"),
            misses: c("unr.serve.misses"),
            shed: c("unr.serve.shed"),
            shed_inflight: c("unr.serve.shed.inflight"),
            shed_signal: c("unr.serve.shed.signal_table"),
            shed_agg: c("unr.serve.shed.agg_ring"),
            replica_acks: c("unr.serve.replica_acks"),
            sig_alloc_fails: c("unr.serve.sig_alloc_fails"),
            request_ns: obs.metrics.histogram("unr.serve.request_ns"),
        }
    }
}

/// Per-rank plain tallies (the obs registry is shared across in-process
/// ranks on simnet; reports need this rank's share).
#[derive(Debug, Clone)]
pub struct RankTallies {
    /// Durably replicated PUTs completed by this rank.
    pub puts: u64,
    /// GETs completed by this rank.
    pub gets: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Requests shed (all causes).
    pub shed: u64,
    /// Sheds at the in-flight mark.
    pub shed_inflight: u64,
    /// Sheds at the signal-table mark.
    pub shed_signal: u64,
    /// Sheds at an aggregation-ring mark.
    pub shed_agg: u64,
    /// Remote replica legs acknowledged.
    pub replica_acks: u64,
    /// Hard-budget allocation refusals (must stay 0).
    pub sig_alloc_fails: u64,
    /// Latency histogram buckets (log2, as in [`Histogram`]).
    pub lat: [u64; HIST_BUCKETS],
}

impl Default for RankTallies {
    fn default() -> RankTallies {
        RankTallies {
            puts: 0,
            gets: 0,
            hits: 0,
            misses: 0,
            shed: 0,
            shed_inflight: 0,
            shed_signal: 0,
            shed_agg: 0,
            replica_acks: 0,
            sig_alloc_fails: 0,
            lat: [0; HIST_BUCKETS],
        }
    }
}

/// Log2 bucket index of `v`, mirroring [`Histogram`]'s layout
/// (bucket 0 = 0; bucket `i` covers `[2^(i-1), 2^i)`).
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// One in-flight request.
struct InFlight {
    sig: Signal,
    slot: usize,
    kind: OpKind,
    key: u64,
    ver: u64,
    at_ns: u64,
    remote_legs: usize,
}

/// The per-rank service state machine over one engine. Drive it with
/// [`KvService::submit`] per arrival and [`KvService::wait_reap`]
/// between arrivals; finish with [`crate::driver::run_open_loop`]'s
/// drain.
pub struct KvService<'u, T: Transport> {
    unr: &'u Unr<T>,
    /// This rank's region: the shard window, then the scratch ring.
    mem: UnrMem,
    cfg: ServeConfig,
    rec: usize,
    r_eff: usize,
    me: usize,
    nranks: usize,
    /// Every rank's shard-window block (index = rank; `windows[me]` is
    /// this rank's own, carrying the window signal key).
    windows: Vec<Blk>,
    /// Byte offset of the scratch ring inside the local region.
    scratch_base: usize,
    scratch_free: Vec<usize>,
    pending: Vec<InFlight>,
    cache: ResponseCache,
    /// Signal-table live count before the first request — admission
    /// marks are budgets *above* this engine/window baseline.
    base_live: usize,
    next_ver: u64,
    /// Arrivals observed (the cache's staleness clock).
    arrivals: u64,
    met: ServeMetrics,
    /// This rank's share of the tallies.
    pub tallies: RankTallies,
    enc_buf: Vec<u8>,
}

impl<'u, T: Transport> KvService<'u, T> {
    /// Build the service on `unr` over its region `mem`
    /// ([`ServeConfig::region_len`] bytes) and the exchanged `windows`
    /// (one [`Blk`] per rank, covering that rank's whole shard window).
    /// `base_live` is the occupancy reading taken after engine +
    /// window-signal setup.
    pub fn new(
        unr: &'u Unr<T>,
        mem: UnrMem,
        cfg: ServeConfig,
        windows: Vec<Blk>,
        base_live: usize,
    ) -> KvService<'u, T> {
        let nranks = unr.nranks();
        assert_eq!(windows.len(), nranks, "one window blk per rank");
        let rec = rec_len(cfg.value_len);
        for w in &windows {
            assert!(w.len >= cfg.slots_per_rank * rec, "window too small");
        }
        let met = ServeMetrics::register(unr.obs());
        let me = unr.rank();
        KvService {
            unr,
            mem,
            rec,
            r_eff: cfg.effective_replicas(nranks),
            me,
            nranks,
            windows,
            scratch_base: cfg.window_len(),
            scratch_free: (0..cfg.max_inflight).rev().collect(),
            pending: Vec::with_capacity(cfg.max_inflight),
            cache: ResponseCache::new(cfg.cache_slots, cfg.cache_max_age_ops),
            base_live,
            next_ver: me as u64 + 1,
            arrivals: 0,
            met,
            tallies: RankTallies::default(),
            cfg,
            enc_buf: vec![0u8; rec],
        }
    }

    /// Requests currently in flight.
    pub fn inflight(&self) -> usize {
        self.pending.len()
    }

    fn record_latency(&mut self, done_ns: u64, at_ns: u64) {
        let lat = done_ns.saturating_sub(at_ns);
        self.met.request_ns.record(lat);
        self.tallies.lat[bucket_of(lat)] += 1;
    }

    fn shed(&mut self, cause: OverloadCause) -> ServeError {
        self.met.shed.inc();
        self.tallies.shed += 1;
        match cause {
            OverloadCause::Inflight => {
                self.met.shed_inflight.inc();
                self.tallies.shed_inflight += 1;
            }
            OverloadCause::SignalTable => {
                self.met.shed_signal.inc();
                self.tallies.shed_signal += 1;
            }
            OverloadCause::AggRing => {
                self.met.shed_agg.inc();
                self.tallies.shed_agg += 1;
            }
        }
        ServeError::Overloaded(cause)
    }

    /// The admission check — every probe runs before any allocation.
    /// `dsts` are the remote ranks the request would touch.
    fn admit(&mut self, dsts: impl Iterator<Item = usize>) -> Result<(), ServeError> {
        if self.scratch_free.is_empty() {
            return Err(self.shed(OverloadCause::Inflight));
        }
        let (live, _cap) = self.unr.signal_occupancy();
        let used = live.saturating_sub(self.base_live);
        if used >= self.cfg.sig_hwm {
            return Err(self.shed(OverloadCause::SignalTable));
        }
        // Defensive hard budget: unreachable while sig_hwm < sig_budget
        // (the line above sheds first), counted loudly if it ever fires.
        if used >= self.cfg.sig_budget {
            self.met.sig_alloc_fails.inc();
            self.tallies.sig_alloc_fails += 1;
            return Err(ServeError::SignalAlloc {
                live: used,
                budget: self.cfg.sig_budget,
            });
        }
        for dst in dsts {
            let (bytes, _puts) = self.unr.agg_backlog(dst);
            if bytes >= self.cfg.agg_hwm_bytes {
                return Err(self.shed(OverloadCause::AggRing));
            }
        }
        Ok(())
    }

    /// A block describing `slot` of rank `dst`'s shard window.
    fn window_slot(&self, dst: usize, slot: usize) -> Blk {
        self.windows[dst].slice(slot * self.rec, self.rec)
    }

    /// Handle one arrival. `Ok(())` means the request completed or is
    /// in flight; `Err(Overloaded)` is a typed shed (already tallied).
    pub fn submit(&mut self, arr: Arrival) -> Result<(), ServeError> {
        self.arrivals += 1;
        match arr.kind {
            OpKind::Get => self.submit_get(arr),
            OpKind::Put => self.submit_put(arr),
        }
    }

    fn submit_put(&mut self, arr: Arrival) -> Result<(), ServeError> {
        let p = Placement::of(arr.key, self.nranks, self.cfg.slots_per_rank);
        let me = self.me;
        let remote_legs = p
            .replicas(self.nranks, self.r_eff)
            .filter(|&d| d != me)
            .count();
        if remote_legs > 0 {
            let remotes: Vec<usize> = p
                .replicas(self.nranks, self.r_eff)
                .filter(|&d| d != me)
                .collect();
            self.admit(remotes.iter().copied())?;
        }
        let ver = self.next_ver;
        self.next_ver += self.nranks as u64;
        let mut buf = std::mem::take(&mut self.enc_buf);
        encode_record(&mut buf, arr.key, ver);

        // Local replica leg: straight into the window, no loopback RMA.
        if p.replicas(self.nranks, self.r_eff).any(|d| d == me) {
            self.mem.write_bytes(p.slot * self.rec, &buf);
        }

        if remote_legs == 0 {
            self.enc_buf = buf;
            self.complete_put(self.unr.now(), arr, ver, 0);
            return Ok(());
        }

        let slot = self.scratch_free.pop().expect("admit checked scratch");
        let off = self.scratch_base + slot * self.rec;
        self.mem.write_bytes(off, &buf);
        self.enc_buf = buf;
        // One ack signal, num_event = remote legs: the summed-MMAS
        // quorum (each leg's source-completion addend totals -1).
        let sig = self.unr.sig_init(remote_legs as i64);
        let local = self.mem.blk(off, self.rec, SigKey::NULL);
        for dst in p.replicas(self.nranks, self.r_eff).filter(|&d| d != me) {
            let remote = self.window_slot(dst, p.slot);
            if let Err(e) = self
                .unr
                .put_keyed(&local, &remote, sig.key(), remote.sig_key)
            {
                // A failed leg can never fire its addend; give the slot
                // back rather than leaking it into pending forever.
                self.scratch_free.push(slot);
                return Err(e.into());
            }
        }
        self.pending.push(InFlight {
            sig,
            slot,
            kind: OpKind::Put,
            key: arr.key,
            ver,
            at_ns: arr.at_ns,
            remote_legs,
        });
        Ok(())
    }

    fn submit_get(&mut self, arr: Arrival) -> Result<(), ServeError> {
        // The cache is checked before admission on purpose: a hit
        // consumes no fabric resource, so it must keep serving even
        // while the admission controller is shedding.
        if self.cache.lookup(arr.key, self.arrivals).is_some() {
            self.met.hits.inc();
            self.tallies.hits += 1;
            self.met.gets.inc();
            self.tallies.gets += 1;
            self.record_latency(self.unr.now(), arr.at_ns);
            return Ok(());
        }

        let p = Placement::of(arr.key, self.nranks, self.cfg.slots_per_rank);
        if p.home == self.me {
            self.met.misses.inc();
            self.tallies.misses += 1;
            // Home is local: serve from the window directly.
            let mut buf = std::mem::take(&mut self.enc_buf);
            self.mem.read_bytes(p.slot * self.rec, &mut buf);
            if let Some((k, ver)) = decode_record(&buf) {
                if k == arr.key {
                    self.cache.fill(arr.key, ver, self.arrivals);
                }
            }
            self.enc_buf = buf;
            self.met.gets.inc();
            self.tallies.gets += 1;
            self.record_latency(self.unr.now(), arr.at_ns);
            return Ok(());
        }

        self.admit(std::iter::once(p.home))?;
        // Counted here, not at lookup time: a shed request is neither a
        // hit nor a miss, so `hits + misses == gets` holds after drain.
        self.met.misses.inc();
        self.tallies.misses += 1;
        let slot = self.scratch_free.pop().expect("admit checked scratch");
        let off = self.scratch_base + slot * self.rec;
        let sig = self.unr.sig_init(1);
        let local = self.mem.blk(off, self.rec, SigKey::NULL);
        let remote = self.window_slot(p.home, p.slot);
        // GETs read without notifying the home's window signal (its
        // count stays an exact tally of replica *writes*).
        if let Err(e) = self.unr.get_keyed(&local, &remote, sig.key(), SigKey::NULL) {
            self.scratch_free.push(slot);
            return Err(e.into());
        }
        self.pending.push(InFlight {
            sig,
            slot,
            kind: OpKind::Get,
            key: arr.key,
            ver: 0,
            at_ns: arr.at_ns,
            remote_legs: 1,
        });
        Ok(())
    }

    fn complete_put(&mut self, now_ns: u64, arr: Arrival, ver: u64, remote_legs: usize) {
        self.met.puts.inc();
        self.tallies.puts += 1;
        self.met.replica_acks.add(remote_legs as u64);
        self.tallies.replica_acks += remote_legs as u64;
        // Invalidation-on-replicated-write: the cached response for
        // this key is replaced exactly when the write is durably
        // replicated (quorum ack), not at issue time.
        self.cache.fill(arr.key, ver, self.arrivals);
        self.record_latency(now_ns, arr.at_ns);
    }

    /// Block until an in-flight request's signal fires or `dt` passes
    /// on the engine's clock, then [`KvService::reap`]. Returns how
    /// many finished: 0 when the deadline came first. The wait drives
    /// the fabric's progress in every progress mode, so the caller polls
    /// nothing. Call it with something in flight.
    pub fn wait_reap(&mut self, dt: u64) -> Result<usize, ServeError> {
        let sigs: Vec<&Signal> = self.pending.iter().map(|p| &p.sig).collect();
        match self.unr.sig_wait_any_timeout(&sigs, dt) {
            Ok(_) => Ok(self.reap()),
            Err(UnrError::Timeout { .. }) => Ok(0),
            Err(e) => Err(e.into()),
        }
    }

    /// Collect every request whose signal has fired, without blocking,
    /// and stamp its latency at the engine's clock now. Returns how many
    /// finished. [`KvService::wait_reap`] calls it as soon as a wait
    /// returns, so a request completes when its signal fires.
    pub fn reap(&mut self) -> usize {
        let mut done = 0;
        let mut i = 0;
        while i < self.pending.len() {
            if !self.pending[i].sig.test() {
                i += 1;
                continue;
            }
            let fin = self.pending.swap_remove(i);
            let now = self.unr.now();
            match fin.kind {
                OpKind::Put => {
                    self.complete_put(
                        now,
                        Arrival {
                            at_ns: fin.at_ns,
                            kind: OpKind::Put,
                            key: fin.key,
                        },
                        fin.ver,
                        fin.remote_legs,
                    );
                }
                OpKind::Get => {
                    let off = self.scratch_base + fin.slot * self.rec;
                    let mut buf = std::mem::take(&mut self.enc_buf);
                    self.mem.read_bytes(off, &mut buf);
                    match decode_record(&buf) {
                        Some((k, ver)) if k == fin.key => {
                            self.cache.fill(fin.key, ver, self.arrivals);
                        }
                        // Unwritten slot or torn read: never cache it.
                        _ => self.cache.invalidate(fin.key),
                    }
                    self.enc_buf = buf;
                    self.met.gets.inc();
                    self.tallies.gets += 1;
                    self.record_latency(now, fin.at_ns);
                }
            }
            self.scratch_free.push(fin.slot);
            done += 1;
        }
        done
    }
}
