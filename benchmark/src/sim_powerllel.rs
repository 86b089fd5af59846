//! `sim-powerllel`: the paper's application — PowerLLEL Taylor–Green
//! time steps on the simulated TH-XY fabric (4 nodes x 2 ranks, 64x64x32
//! grid, UNR backend). The FFT and tridiagonal kernels dominate the
//! host time and the comm layers do little, so this is the workload on
//! which a comm-layer optimisation must predict "no change".

use std::time::{Duration, Instant};

use unr_core::{Unr, UnrConfig};
use unr_minimpi::{barrier, run_mpi_on_fabric, MpiConfig};
use unr_obs::Snapshot;
use unr_powerllel::{Backend, Solver, SolverConfig, Timers};
use unr_simnet::{Fabric, Ns, Platform};

use crate::outcome::{Budget, Opts, Outcome};
use crate::spans::{Recorder, Span};
use crate::stats;

const NODES: usize = 4;
const RANKS_PER_NODE: usize = 2;
const WARM_STEPS: usize = 2;
/// Timed steps per world, in blocks of `BLOCK` (one rate sample each).
const BLOCKS: usize = 4;
const BLOCK: usize = 5;
/// Multi-rank PDD truncation leaves a small divergence residual; the
/// repository's own solver test allows the same.
const DIV_TOLERANCE: f64 = 1e-4;

struct RankOut {
    first_timed_op: Instant,
    block_wall_ns: Vec<u64>,
    step_sim_ns: Vec<Ns>,
    timers: Timers,
    div: f64,
    energy: f64,
    spans: Vec<Span>,
}

struct World {
    setup: Duration,
    total: Duration,
    ranks: Vec<RankOut>,
    snapshot: Snapshot,
}

fn run_world(seed: u64, traced: bool, t_run0: Instant) -> World {
    let t0 = Instant::now();
    let mut fcfg = Platform::th_xy().fabric_config(NODES, RANKS_PER_NODE);
    fcfg.seed = seed;
    let mut scfg = SolverConfig::small(NODES, RANKS_PER_NODE);
    scfg.nx = 64;
    scfg.ny = 64;
    scfg.nz = 32;
    scfg.dt = 1e-3;
    let fabric = Fabric::new(fcfg);
    let ranks = run_mpi_on_fabric(&fabric, MpiConfig::default(), move |comm| {
        let backend = Backend::Unr(Unr::init(comm.ep_shared(), UnrConfig::default()));
        let mut s = Solver::new(&backend, comm, scfg);
        s.init_taylor_green();
        for _ in 0..WARM_STEPS {
            s.step();
        }
        s.timers = Timers::default();
        let mut rec = Recorder::new(traced, t_run0.elapsed().as_nanos() as u64);
        let mut out = RankOut {
            first_timed_op: Instant::now(),
            block_wall_ns: Vec::with_capacity(BLOCKS),
            step_sim_ns: Vec::with_capacity(BLOCKS * BLOCK),
            timers: Timers::default(),
            div: 0.0,
            energy: 0.0,
            spans: Vec::new(),
        };
        for block in 0..BLOCKS {
            barrier(comm);
            if block == 0 {
                out.first_timed_op = Instant::now();
            }
            let w0 = Instant::now();
            let op = (comm.rank() * BLOCKS + block) as u64;
            let root = rec.enter("block", op);
            for _ in 0..BLOCK {
                let v0 = comm.ep().now();
                let s_ = rec.enter("step", op);
                s.step();
                rec.exit(s_);
                out.step_sim_ns.push(comm.ep().now() - v0);
            }
            let b = rec.enter("barrier", op);
            barrier(comm);
            rec.exit(b);
            rec.exit(root);
            out.block_wall_ns.push(w0.elapsed().as_nanos() as u64);
        }
        out.timers = s.timers;
        out.div = s.global_div_max();
        out.energy = s.kinetic_energy();
        out.spans = rec.into_spans();
        out
    });
    World {
        setup: ranks[0].first_timed_op.duration_since(t0),
        total: t0.elapsed(),
        ranks,
        snapshot: fabric.obs.metrics.snapshot(),
    }
}

fn block_rates(w: &World) -> Vec<f64> {
    w.ranks[0]
        .block_wall_ns
        .iter()
        .map(|&ns| BLOCK as f64 / (ns as f64 / 1e9))
        .collect()
}

pub fn run(opts: Opts) -> Outcome {
    let t_run0 = Instant::now();
    let mut out = Outcome::default();
    let mut rates = Vec::new();
    let mut traced_rates = Vec::new();
    // (per-step simulated ns on every rank, energy bits) of repetition 0.
    let mut reference: Option<(Vec<Vec<Ns>>, u64)> = None;
    let mut last_traced: Option<World> = None;
    let mut last: (Timers, Snapshot);
    let mut budget = Budget::new(opts.seconds, opts.trace);
    loop {
        let (rep, traced) = (budget.reps(), budget.traced());
        crate::host::reset_peak_rss();
        let mut w = run_world(opts.seed, traced, t_run0);
        out.attempted += (WARM_STEPS + BLOCKS * BLOCK) as u64;
        let r0 = &w.ranks[0];
        if !(r0.div.is_finite() && r0.div < DIV_TOLERANCE) {
            out.fail(
                1,
                format!("global_div_max {} not under {DIV_TOLERANCE}", r0.div),
            );
        }
        if !(r0.energy.is_finite() && r0.energy > 0.0) {
            out.fail(
                1,
                format!("kinetic_energy {} is not a positive number", r0.energy),
            );
        }
        let sim: Vec<Vec<Ns>> = w.ranks.iter().map(|r| r.step_sim_ns.clone()).collect();
        let bits = r0.energy.to_bits();
        match &reference {
            None => reference = Some((sim, bits)),
            Some((sim0, bits0)) => {
                if *bits0 != bits {
                    out.fail(
                        1,
                        format!("repetition {rep}: kinetic_energy differs from repetition 0"),
                    );
                }
                if *sim0 != sim {
                    out.fail(
                        1,
                        format!("repetition {rep}: simulated step times differ from repetition 0"),
                    );
                }
            }
        }
        out.e2e.setup_s.push(w.setup.as_secs_f64());
        out.e2e.peak_rss_mb.push(crate::host::peak_rss_mb());
        if traced {
            traced_rates.extend(block_rates(&w));
        } else {
            rates.extend(block_rates(&w));
        }
        let total = w.total;
        let mut timers = Timers::default();
        for r in &w.ranks {
            timers.add(&r.timers);
        }
        last = (timers, std::mem::take(&mut w.snapshot));
        if traced {
            last_traced = Some(w);
        }
        if !budget.again(total) {
            break;
        }
    }

    // One simulated step as rank 0 sees it (ranks finish a step within
    // one message latency of each other).
    let (sim, _) = reference.expect("at least one repetition");
    let pool = stats::Pool::new(sim[0].clone());
    out.e2e.lat_p50_us = pool.percentile(0.50) as f64 / 1e3;
    out.e2e.lat_p90_us = pool.percentile(0.90) as f64 / 1e3;
    out.e2e.lat_pool = format!("simulated ns per step on rank 0: {}", pool.describe());
    out.e2e.host_ops_per_s = rates;
    out.notes.push(format!(
        "{} worlds x ({WARM_STEPS} warm-up + {BLOCKS} blocks x {BLOCK} steps), 64x64x32, 8 ranks, seed {}; op = one time step",
        budget.reps(),
        opts.seed
    ));

    if opts.trace {
        let plain = stats::median(&out.e2e.host_ops_per_s);
        let traced = stats::median(&traced_rates);
        let (t, snap) = last;
        let total = t.total.max(1) as f64;
        out.set("powerllel.phase.rk_share", t.rk_compute as f64 / total);
        out.set("powerllel.phase.halo_share", t.halo as f64 / total);
        out.set("powerllel.phase.fft_share", t.fft as f64 / total);
        out.set(
            "powerllel.phase.transpose_share",
            t.transpose as f64 / total,
        );
        out.set("powerllel.phase.pdd_share", t.pdd as f64 / total);
        crate::sim_storm::engine_counters(&mut out, &snap);
        if let Some(w) = last_traced {
            let logs: Vec<Vec<Span>> = w.ranks.into_iter().map(|r| r.spans).collect();
            out.report_trace(
                "sim-powerllel",
                &format!("one block of {BLOCK} steps on one rank"),
                &logs,
                NODES * RANKS_PER_NODE,
                BLOCK as f64 / plain * 1e9,
                traced,
            );
        }
    }
    out
}
