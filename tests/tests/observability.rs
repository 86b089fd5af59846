//! The observability layer is as deterministic as the simulator it
//! watches: two runs with the same seed must produce byte-identical
//! metrics snapshots and Chrome traces, covering every layer.

use unr_core::{Unr, UnrConfig};
use unr_minimpi::{run_mpi_on_fabric, MpiConfig};
use unr_obs::Snapshot;
use unr_powerllel::{Backend, Solver, SolverConfig};
use unr_simnet::{Fabric, Platform};

/// One seeded mini-PowerLLEL step on the UNR backend, with tracing on.
fn seeded_run() -> (Snapshot, String) {
    let mut cfg = Platform::th_xy().fabric_config(2, 2);
    cfg.trace = true;
    cfg.seed = 99;
    let fabric = Fabric::new(cfg);
    run_mpi_on_fabric(&fabric, MpiConfig::default(), |comm| {
        let backend = Backend::Unr(Unr::init(comm.ep_shared(), UnrConfig::default()));
        let mut s = Solver::new(&backend, comm, SolverConfig::small(2, 2));
        s.init_taylor_green();
        s.step();
    });
    let mut events = fabric.tracer.as_ref().expect("tracing on").to_span_events();
    events.extend(fabric.obs.spans.events());
    (
        fabric.obs.metrics.snapshot(),
        unr_obs::chrome_trace_json(&events),
    )
}

#[test]
fn seeded_runs_produce_identical_metrics_and_traces() {
    let (snap_a, trace_a) = seeded_run();
    let (snap_b, trace_b) = seeded_run();
    assert_eq!(snap_a, snap_b, "metrics snapshots must be bit-identical");
    assert_eq!(
        snap_a.render_table(),
        snap_b.render_table(),
        "rendered tables must match"
    );
    assert_eq!(snap_a.to_json(), snap_b.to_json(), "JSON must match");
    assert_eq!(trace_a, trace_b, "Chrome traces must be byte-identical");
}

#[test]
fn snapshot_covers_every_layer() {
    let (snap, trace) = seeded_run();
    // Engine, NIC-queue and solver-phase series must all be present.
    for prefix in ["unr.", "simnet.nic.", "simnet.cq.", "powerllel."] {
        assert!(
            snap.with_prefix(prefix).next().is_some(),
            "missing {prefix}* metrics"
        );
    }
    // The run actually exercised the hot paths it claims to count.
    for series in ["unr.puts", "unr.bytes_put", "unr.sub_messages"] {
        assert!(snap.counter(series).unwrap() > 0, "{series}");
    }
    assert!(snap.counter("unr.sub_messages") >= snap.counter("unr.puts"));
    assert!(snap.with_prefix("unr.stripe_fanout").next().is_some());
    assert!(snap.with_prefix("unr.channel.").next().is_some());
    assert!(snap.with_prefix("unr.level.").next().is_some());
    assert!(snap.counter("unr.signal.adds").unwrap() > 0);
    assert!(snap.counter("simnet.fabric.puts").unwrap() > 0);
    assert_eq!(snap.counter("unr.signal.reset_errors"), Some(0));
    assert_eq!(snap.counter("unr.signal.overflow_trips"), Some(0));
    // And the merged trace carries all three span categories.
    for cat in ["\"cat\": \"nic\"", "\"cat\": \"wire\"", "\"cat\": \"solver\""] {
        assert!(trace.contains(cat), "trace missing {cat}");
    }
}
