//! `sim-storm`: the reliable put/signal storm on the simulated TH-XY
//! fabric — 4 nodes x 2 ranks, 4 NICs per node, every rank firing
//! 128 KiB notified puts at its ring neighbour and waiting for its own
//! arrivals. Closed loop: a whole epoch's puts are in flight at once.
//!
//! The same world is rebuilt from the same seed for every repetition,
//! so every simulated figure must come out bit-identical each time
//! (checked); only the host time differs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use unr_core::{convert, Reliability, Unr, UnrConfig};
use unr_minimpi::{barrier, run_mpi_on_fabric, MpiConfig};
use unr_obs::{MetricValue, Snapshot};
use unr_simnet::{Fabric, Ns, Platform};

use crate::outcome::{check_pattern, fill_pattern, Budget, Opts, Outcome};
use crate::spans::{Recorder, Span};
use crate::stats;

const NODES: usize = 4;
const RANKS_PER_NODE: usize = 2;
const RANKS: usize = NODES * RANKS_PER_NODE;
const NICS: usize = 4;
const MSG: usize = 128 * 1024;
/// Puts per rank in flight per timed epoch.
const ITERS: usize = 100;
/// Puts per rank of the discarded warm-up epoch: enough to take every
/// lazy path (region snapshot, retry slab, signal slot) once.
const WARM_ITERS: usize = 8;
/// Timed epochs per world, `sig_reset` between them.
const EPOCHS: usize = 3;

struct EpochSample {
    wall_ns: u64,
    sim_ns: Ns,
}

struct RankOut {
    first_timed_op: Instant,
    epochs: Vec<EpochSample>,
    spans: Vec<Span>,
    failures: Vec<String>,
    inflight_max: usize,
    stale_rejects: u64,
    fingerprint: u64,
}

struct World {
    setup: Duration,
    total: Duration,
    ranks: Vec<RankOut>,
    snapshot: Snapshot,
}

fn run_world(seed: u64, reliability: Reliability, traced: bool, t_run0: Instant) -> World {
    let t0 = Instant::now();
    let mut cfg = Platform::th_xy().fabric_config(NODES, RANKS_PER_NODE);
    cfg.nics_per_node = NICS;
    cfg.seed = seed;
    let fabric = Fabric::new(cfg);
    let ucfg = UnrConfig {
        reliability,
        ..UnrConfig::default()
    };
    let ranks = run_mpi_on_fabric(&fabric, MpiConfig::default(), move |comm| {
        let unr = Unr::init(comm.ep_shared(), ucfg);
        let n = comm.size();
        let me = comm.rank();
        let src = (me + n - 1) % n;
        let dst = (me + 1) % n;
        let mem = unr.mem_reg(2 * MSG);
        let recv_sig = unr.sig_init(WARM_ITERS as i64);
        let recv_blk = unr.blk_init(&mem, MSG, MSG, Some(&recv_sig));
        // My window goes to my predecessor: I put to `dst`, `src` puts to me.
        convert::send_blk(comm, src, 11, &recv_blk);
        let rmt = convert::recv_blk(comm, dst, 11);
        let send_blk = unr.blk_init(&mem, 0, MSG, None);

        let mut rec = Recorder::new(traced, t_run0.elapsed().as_nanos() as u64);
        let mut warm_rec = Recorder::new(false, 0);
        let mut out = RankOut {
            first_timed_op: Instant::now(),
            epochs: Vec::with_capacity(EPOCHS),
            spans: Vec::new(),
            failures: Vec::new(),
            inflight_max: 0,
            stale_rejects: 0,
            fingerprint: 0,
        };
        let mut payload = vec![0u8; MSG];
        let mut got = vec![0u8; MSG];
        let mut scratch = Vec::new();
        for epoch in 0..=EPOCHS {
            let iters = if epoch == 0 { WARM_ITERS } else { ITERS };
            // One payload per epoch, so the receiver can tell this
            // epoch's last message from the previous epoch's.
            fill_pattern(&mut payload, seed, me as u64, epoch as u64);
            mem.write_bytes(0, &payload);
            barrier(comm);
            if epoch == 1 {
                out.first_timed_op = Instant::now();
            }
            let w0 = Instant::now();
            let v0 = comm.ep().now();
            let op = (me * (EPOCHS + 1) + epoch) as u64;
            let rec = if epoch == 0 { &mut warm_rec } else { &mut rec };
            let root = rec.enter("epoch", op);
            for _ in 0..iters {
                let s = rec.enter("put", op);
                if let Err(e) = unr.put(&send_blk, &rmt) {
                    out.failures
                        .push(format!("rank {me} epoch {epoch}: put: {e}"));
                }
                rec.exit(s);
            }
            if traced {
                out.inflight_max = out.inflight_max.max(unr.retries_in_flight());
            }
            let s = rec.enter("sig_wait", op);
            if let Err(e) = unr.sig_wait(&recv_sig) {
                out.failures
                    .push(format!("rank {me} epoch {epoch}: sig_wait: {e}"));
            }
            rec.exit(s);
            let v1 = comm.ep().now();

            let s = rec.enter("verify", op);
            if recv_sig.overflowed() {
                out.failures
                    .push(format!("rank {me} epoch {epoch}: overflow bit set"));
            }
            mem.read_bytes(MSG, &mut got);
            if let Some(at) = check_pattern(&got, &mut scratch, 0, (seed, src as u64, epoch as u64))
            {
                out.failures.push(format!(
                    "rank {me} epoch {epoch}: payload differs at byte {at}"
                ));
            }
            rec.exit(s);

            // A clean reset proves the counter is exactly back at zero.
            let s = rec.enter("sig_reset", op);
            let reset = if epoch == 0 {
                recv_sig
                    .reset_with(ITERS as i64)
                    .map_err(unr_core::UnrError::Signal)
            } else {
                unr.sig_reset(&recv_sig)
            };
            rec.exit(s);
            if let Err(e) = reset {
                out.failures
                    .push(format!("rank {me} epoch {epoch}: sig_reset: {e}"));
            }
            let s = rec.enter("barrier", op);
            barrier(comm);
            rec.exit(s);
            rec.exit(root);
            if epoch > 0 {
                out.epochs.push(EpochSample {
                    wall_ns: w0.elapsed().as_nanos() as u64,
                    sim_ns: v1 - v0,
                });
            }
        }
        out.stale_rejects = unr
            .signal_stats()
            .stale_rejects
            .load(std::sync::atomic::Ordering::Relaxed);
        out.fingerprint = unr.table_fingerprint();
        out.spans = rec.into_spans();
        out
    });
    let setup = ranks[0].first_timed_op.duration_since(t0);
    World {
        setup,
        total: t0.elapsed(),
        ranks,
        snapshot: fabric.obs.metrics.snapshot(),
    }
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

/// Host puts/s of each timed epoch of a world (rank 0's barrier-to-
/// barrier wall time bounds every rank's).
fn epoch_rates(w: &World) -> Vec<f64> {
    w.ranks[0]
        .epochs
        .iter()
        .map(|e| (RANKS * ITERS) as f64 / (e.wall_ns as f64 / 1e9))
        .collect()
}

/// Simulated nanoseconds per put, one sample per rank and epoch.
fn sim_ns_per_put(w: &World) -> Vec<u64> {
    w.ranks
        .iter()
        .flat_map(|r| r.epochs.iter().map(|e| e.sim_ns / ITERS as u64))
        .collect()
}

pub fn run(opts: Opts) -> Outcome {
    let t_run0 = Instant::now();
    let mut out = Outcome::default();
    let mut rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut sim_ref: Option<(Vec<u64>, u64)> = None;
    let mut last_traced: Option<World> = None;
    let mut last_snapshot;
    let mut budget = Budget::new(opts.seconds, opts.trace);
    loop {
        let (rep, traced) = (budget.reps(), budget.traced());
        crate::host::reset_peak_rss();
        let mut w = run_world(opts.seed, Reliability::On, traced, t_run0);
        out.attempted += (RANKS * (WARM_ITERS + EPOCHS * ITERS)) as u64;
        for r in &w.ranks {
            for f in &r.failures {
                out.fail(1, f.clone());
            }
            if r.stale_rejects != 0 {
                out.fail(
                    r.stale_rejects,
                    format!("{} stale-key rejects", r.stale_rejects),
                );
            }
        }
        // Same seed, fresh world: simulated time and the final signal
        // table must repeat exactly.
        let sim = sim_ns_per_put(&w);
        let fp = w
            .ranks
            .iter()
            .fold(0u64, |a, r| a ^ r.fingerprint.rotate_left(7));
        match &sim_ref {
            None => sim_ref = Some((sim, fp)),
            Some((s0, fp0)) => {
                if *s0 != sim || *fp0 != fp {
                    out.fail(
                        1,
                        format!("repetition {rep}: simulated results differ from repetition 0"),
                    );
                }
            }
        }
        out.e2e.setup_s.push(w.setup.as_secs_f64());
        out.e2e.peak_rss_mb.push(crate::host::peak_rss_mb());
        if traced {
            traced_rates.extend(epoch_rates(&w));
        } else {
            rates.extend(epoch_rates(&w));
        }
        let total = w.total;
        last_snapshot = std::mem::take(&mut w.snapshot);
        if traced {
            last_traced = Some(w);
        }
        if !budget.again(total) {
            break;
        }
    }

    let (sim, _) = sim_ref.expect("at least one repetition");
    let pool = stats::Pool::new(sim);
    out.e2e.lat_p50_us = pool.percentile(0.50) as f64 / 1e3;
    out.e2e.lat_p90_us = pool.percentile(0.90) as f64 / 1e3;
    out.e2e.lat_pool = format!(
        "simulated ns per put, per rank and epoch: {}",
        pool.describe()
    );
    out.e2e.host_ops_per_s = rates;
    out.notes.push(format!(
        "{} worlds x {EPOCHS} epochs x {RANKS} ranks x {ITERS} puts of {MSG} B, reliable, seed {}",
        budget.reps(),
        opts.seed
    ));

    if opts.trace {
        layers(
            &mut out,
            opts,
            t_run0,
            &traced_rates,
            last_traced,
            last_snapshot,
        );
    }
    out
}

fn layers(
    out: &mut Outcome,
    opts: Opts,
    t_run0: Instant,
    traced_rates: &[f64],
    last_traced: Option<World>,
    last_snapshot: Snapshot,
) {
    let plain = stats::median(&out.e2e.host_ops_per_s);
    let traced = stats::median(traced_rates);
    if let Some(w) = last_traced {
        out.set(
            "unr.retry.inflight_max",
            w.ranks.iter().map(|r| r.inflight_max).max().unwrap_or(0) as f64,
        );
        let logs: Vec<Vec<Span>> = w.ranks.into_iter().map(|r| r.spans).collect();
        // One epoch on one rank is the traced operation; untraced, the
        // same epoch takes RANKS*ITERS / rate seconds.
        let sum = out.report_trace(
            "sim-storm",
            "one epoch on one rank",
            &logs,
            RANKS,
            (RANKS * ITERS) as f64 / plain * 1e9,
            traced,
        );
        out.set("unr.engine.put_post_ns_p50", sum.p50("put"));
        out.set("unr.engine.put_post_ns_p99", sum.p99("put"));
        out.set("unr.engine.sig_wait_ns_p50", sum.p50("sig_wait"));
        out.set("unr.engine.sig_reset_ns_p50", sum.p50("sig_reset"));
    }

    engine_counters(out, &last_snapshot);

    // The standing gap between the reliable and the raw-RMA storm.
    let rma = run_world(opts.seed, Reliability::Off, false, t_run0);
    let rma_rate = stats::median(&epoch_rates(&rma));
    out.set("unr.engine.rma_ops_per_s", rma_rate);
    out.set("unr.engine.reliable_cost_ratio", rma_rate / plain);
    for r in &rma.ranks {
        for f in &r.failures {
            out.fail(1, format!("rma storm: {f}"));
        }
    }
    out.attempted += (RANKS * (WARM_ITERS + EPOCHS * ITERS)) as u64;
}

/// Engine, retry and fabric counters every simnet workload shares.
pub fn engine_counters(out: &mut Outcome, snap: &Snapshot) {
    let puts = counter(snap, "unr.puts");
    if puts > 0.0 {
        out.set(
            "unr.engine.stripe_fanout",
            counter(snap, "unr.sub_messages") / puts,
        );
    }
    out.set(
        "unr.retry.retransmits",
        counter(snap, "unr.retry.retransmits"),
    );
    out.set(
        "unr.retry.dup_suppressed",
        counter(snap, "unr.retry.dup_suppressed"),
    );
    out.set(
        "simnet.fabric.cq_dropped",
        counter(snap, "simnet.cq.dropped"),
    );
    if let Some(MetricValue::Gauge { max, .. }) = snap.get("simnet.cq.depth") {
        out.set("simnet.fabric.cq_depth_max", *max as f64);
    }
}

/// Shared by the probes: a 2-rank simnet ping-pong of `len`-byte
/// notified puts, returning the exact simulated one-way latency in ns.
pub fn sim_put_latency_ns(seed: u64, len: usize) -> f64 {
    const ROUNDS: u64 = 32;
    let mut cfg = Platform::th_xy().fabric_config(2, 1);
    cfg.seed = seed;
    let fabric = Fabric::new(cfg);
    let halves: Vec<Ns> = run_mpi_on_fabric(&fabric, MpiConfig::default(), move |comm| {
        let unr: Arc<Unr> = Unr::init(comm.ep_shared(), UnrConfig::default());
        let me = comm.rank();
        let peer = 1 - me;
        let mem = unr.mem_reg(2 * len);
        let sig = unr.sig_init(1);
        let recv = unr.blk_init(&mem, len, len, Some(&sig));
        let rmt = convert::exchange_blk(comm, peer, 12, &recv);
        let send = unr.blk_init(&mem, 0, len, None);
        barrier(comm);
        let v0 = comm.ep().now();
        for _ in 0..ROUNDS {
            if me == 0 {
                unr.put(&send, &rmt).expect("probe put");
                unr.sig_wait(&sig).expect("probe wait");
                unr.sig_reset(&sig).expect("probe reset");
            } else {
                unr.sig_wait(&sig).expect("probe wait");
                unr.sig_reset(&sig).expect("probe reset");
                unr.put(&send, &rmt).expect("probe put");
            }
        }
        (comm.ep().now() - v0) / (2 * ROUNDS)
    });
    halves[0] as f64
}
