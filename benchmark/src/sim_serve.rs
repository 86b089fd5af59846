//! `sim-serve`: the key-value service on the simulated fabric, through
//! the repository's own `run_simnet` harness — 4 ranks, 16 384 keys,
//! zipf 0.99, 90 % GET, 64 B values, 2 replicas. Open loop: arrivals
//! follow a Poisson schedule whether or not earlier requests finished,
//! and latency counts from the *scheduled* arrival.
//!
//! The reference step offers 50k requests/s per rank. The traced run
//! adds a sweep that doubles the offered rate until two consecutive
//! steps miss the latency limit, replacing the single over-saturated
//! point the old gate measured.

use std::time::Instant;

use unr_core::UnrConfig;
use unr_serve::{run_simnet, RankReport, ServeConfig, SimServeRun};

use crate::outcome::{Budget, Opts, Outcome};
use crate::spans::{Recorder, Span};
use crate::stats;

/// Offered rate of the reference step, requests/s per rank
/// (`ServeConfig::default()`: 2 000 clients thinking 40 ms each).
const REF_RATE_PER_RANK: f64 = 50_000.0;
const REF_OPS_PER_RANK: usize = 4_000;
const SWEEP_OPS_PER_RANK: usize = 1_500;
/// The latency limit of the sweep: simulated p99 at most this, nothing
/// shed, nothing failed. About 3x the unloaded p99.
pub const SLO_P99_US: f64 = 50.0;
const MAX_SWEEP_STEPS: usize = 12;

fn config(seed: u64, rate_per_rank: f64, ops_per_rank: usize) -> ServeConfig {
    let base = ServeConfig::default();
    ServeConfig {
        // Offered rate = clients / think time; scale the client count.
        clients: (base.clients as f64 * rate_per_rank / REF_RATE_PER_RANK).round() as usize,
        ops_per_rank,
        seed,
        ..base
    }
}

struct Step {
    run: SimServeRun,
    wall_s: f64,
}

fn step(seed: u64, rate_per_rank: f64, ops_per_rank: usize) -> Step {
    let cfg = config(seed, rate_per_rank, ops_per_rank);
    let t0 = Instant::now();
    let run = run_simnet(&cfg, UnrConfig::default(), seed);
    Step {
        run,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Conservation and admission checks every serve run must pass; returns
/// the number of operations to count as failed.
fn check(out: &mut Outcome, what: &str, m: &RankReport, shed_is_failure: bool) {
    if m.replica_acks != m.window_writes {
        out.fail(
            m.replica_acks.abs_diff(m.window_writes),
            format!(
                "{what}: replica_acks {} != window_writes {}",
                m.replica_acks, m.window_writes
            ),
        );
    }
    if m.sig_alloc_fails != 0 {
        out.fail(
            m.sig_alloc_fails,
            format!("{what}: {} signal allocation failures", m.sig_alloc_fails),
        );
    }
    if shed_is_failure && m.shed != 0 {
        out.fail(
            m.shed,
            format!("{what}: {} requests shed at the reference rate", m.shed),
        );
    }
    let done = m.completed() + m.shed;
    if done != m.ops {
        out.fail(
            m.ops.abs_diff(done),
            format!("{what}: {} arrivals but {done} completed or shed", m.ops),
        );
    }
}

fn meets_slo(m: &RankReport) -> bool {
    m.percentile(0.99) / 1e3 <= SLO_P99_US && m.shed == 0 && m.sig_alloc_fails == 0
}

pub fn run(opts: Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(opts.trace, 0);
    let mut reference: Option<(RankReport, String)> = None;
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    let mut unrepeatable = 0u64;
    let mut last_snapshot;
    // A traced run spends the other half of its time on the sweep.
    let mut budget = Budget::new(opts.seconds * if opts.trace { 0.5 } else { 1.0 }, false);
    loop {
        let rep = budget.reps() as u64;
        crate::host::reset_peak_rss();
        let s = rec.enter("request-loop", rep);
        let st = step(opts.seed, REF_RATE_PER_RANK, REF_OPS_PER_RANK);
        rec.exit(s);
        let m = &st.run.merged;
        out.attempted += m.ops;
        check(&mut out, &format!("repetition {rep}"), m, true);
        // Everything but the arrival/drain loop itself is set-up: world
        // build, window exchange, settle and teardown.
        out.e2e
            .setup_s
            .push((st.wall_s - m.wall_ns as f64 / 1e9).max(0.0));
        out.e2e.host_ops_per_s.push(m.ops_per_sec());
        out.e2e.peak_rss_mb.push(crate::host::peak_rss_mb());
        p50s.push(m.percentile(0.50) / 1e3);
        p90s.push(m.percentile(0.90) / 1e3);
        match &reference {
            None => reference = Some((m.clone(), st.run.table.clone())),
            Some((m0, table0)) => {
                // Known defect (README): at this scale `run_simnet` is
                // not bit-reproducible — the signal-table fingerprint
                // nearly always, a few latencies often, and now and
                // then a cache hit count move between same-seed worlds.
                // Counted per layer, not failed, until that is fixed;
                // the per-world conservation checks above stay hard.
                if m0.lat != m.lat || m0.fingerprint != m.fingerprint || *table0 != st.run.table {
                    unrepeatable += 1;
                }
            }
        }
        last_snapshot = st.run.snapshot;
        if !budget.again(std::time::Duration::from_secs_f64(st.wall_s)) {
            break;
        }
    }
    let (m, _) = reference.expect("at least one repetition");
    out.e2e.lat_p50_us = stats::median(&p50s);
    out.e2e.lat_p90_us = stats::median(&p90s);
    out.e2e.lat_pool = format!(
        "simulated request latency from scheduled arrival, log2 histogram: n={} p50/p90/p99={:.0}/{:.0}/{:.0} ns",
        m.completed(),
        m.percentile(0.5),
        m.percentile(0.9),
        m.percentile(0.99)
    );
    out.notes.push(format!(
        "{} worlds x 4 ranks x {REF_OPS_PER_RANK} arrivals at {REF_RATE_PER_RANK} req/s/rank (open loop), seed {}; op = one request; \
         {unrepeatable} worlds not bit-identical to the first",
        budget.reps(),
        opts.seed
    ));

    if opts.trace {
        out.set("serve.sim_p99_us", m.percentile(0.99) / 1e3);
        out.set("serve.sim_p999_us", m.percentile(0.999) / 1e3);
        out.set(
            "serve.cache.hit_ratio",
            m.hits as f64 / (m.hits + m.misses).max(1) as f64,
        );
        out.set(
            "serve.replica_acks_per_put",
            m.replica_acks as f64 / m.puts.max(1) as f64,
        );
        out.set("serve.unrepeatable_reps", unrepeatable as f64);
        crate::sim_storm::engine_counters(&mut out, &last_snapshot);
        sweep(&mut out, opts.seed);
        let plain = stats::median(&out.e2e.host_ops_per_s);
        let logs: Vec<Vec<Span>> = vec![rec.into_spans()];
        // `run_simnet` is one opaque call from out here, so the traced
        // and untraced repetitions are the same code: no overhead figure.
        out.report_trace(
            "sim-serve",
            "one run_simnet call (world + open loop + settle)",
            &logs,
            1,
            REF_OPS_PER_RANK as f64 * 4.0 / plain * 1e9,
            0.0,
        );
    }
    out
}

/// Double the offered rate until two consecutive steps miss the limit.
fn sweep(out: &mut Outcome, seed: u64) {
    let mut best = 0.0;
    let mut misses = 0;
    let mut steps = 0;
    let mut rate = REF_RATE_PER_RANK;
    let mut last_shed_share = 0.0;
    while misses < 2 && steps < MAX_SWEEP_STEPS {
        let st = step(seed, rate, SWEEP_OPS_PER_RANK);
        let m = &st.run.merged;
        out.attempted += m.ops;
        check(out, &format!("sweep at {rate} req/s/rank"), m, false);
        let ok = meets_slo(m);
        last_shed_share = m.shed as f64 / m.ops.max(1) as f64;
        out.notes.push(format!(
            "sweep: {:>9.0} req/s/rank  sim p50 {:>8.1} us  p99 {:>8.1} us  shed {:>5.1}%  {}",
            rate,
            m.percentile(0.5) / 1e3,
            m.percentile(0.99) / 1e3,
            last_shed_share * 100.0,
            if ok { "meets the limit" } else { "misses" }
        ));
        if ok {
            best = rate;
            misses = 0;
        } else {
            misses += 1;
        }
        steps += 1;
        rate *= 2.0;
    }
    out.set("serve.sim_slo_rate", best);
    out.set("serve.sweep_steps", steps as f64);
    out.set("serve.admission.shed_share", last_shed_share);
}
