//! Integration tests for the KV service on the simulated fabric:
//! seeded determinism, overload shedding (the admission-before-alloc
//! regression), aggregation-ring backpressure, and exact replication
//! accounting.

use unr_core::{Blk, Unr, UnrConfig};
use unr_minimpi::{allgather_bytes, barrier, run_mpi_on_fabric, MpiConfig};
use unr_obs::MetricValue;
use unr_serve::harness::run_simnet;
use unr_serve::workload::{Arrival, OpKind};
use unr_serve::{KvService, OverloadCause, ServeConfig, ServeError};
use unr_simnet::{Fabric, Platform, MS};

fn test_cfg() -> ServeConfig {
    ServeConfig {
        ops_per_rank: 300,
        clients: 500,
        mean_think_ns: 10_000_000,
        slots_per_rank: 512,
        keys: 2_048,
        ..ServeConfig::default()
    }
}

/// The comparable portion of a rank report (everything wall-clock-free).
fn digest(r: &unr_serve::RankReport) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, Vec<u64>) {
    (
        r.ops,
        r.puts,
        r.gets,
        r.hits,
        r.misses,
        r.shed,
        r.replica_acks,
        r.window_writes,
        r.fingerprint,
        r.lat.to_vec(),
    )
}

/// Satellite: same seed → byte-identical run (reports, metrics
/// snapshot, rendered table and JSON export); different workload seed
/// → observably different traffic.
#[test]
fn seeded_serve_runs_are_reproducible() {
    let cfg = test_cfg();
    let a = run_simnet(&cfg, UnrConfig::default(), 0xD0);
    let b = run_simnet(&cfg, UnrConfig::default(), 0xD0);
    assert_eq!(a.per_rank.len(), b.per_rank.len());
    for (ra, rb) in a.per_rank.iter().zip(b.per_rank.iter()) {
        assert_eq!(digest(ra), digest(rb), "per-rank reports must match");
    }
    assert_eq!(a.snapshot, b.snapshot, "metrics snapshots must match");
    assert_eq!(a.table, b.table, "rendered table must be byte-identical");
    assert_eq!(a.json, b.json, "JSON export must be byte-identical");

    let mut other = cfg.clone();
    other.seed ^= 0x5eed_cafe;
    let c = run_simnet(&other, UnrConfig::default(), 0xD0);
    assert_ne!(
        a.per_rank.iter().map(digest).collect::<Vec<_>>(),
        c.per_rank.iter().map(digest).collect::<Vec<_>>(),
        "distinct workload seeds must produce different traffic"
    );
}

/// The same lock at the service's default shape (2 000 clients, 16 384
/// keys), where a rank reads its signals between two scheduler calls
/// (`reap`): that code now runs alone, whatever the OS does with the
/// threads, so same-seed worlds end with the same signal tables and
/// the same latency sums.
#[test]
fn default_shape_serve_runs_are_reproducible() {
    for seed in [1, 5, 106] {
        let cfg = ServeConfig {
            seed,
            ..ServeConfig::default()
        };
        let a = run_simnet(&cfg, UnrConfig::default(), seed);
        let b = run_simnet(&cfg, UnrConfig::default(), seed);
        for (ra, rb) in a.per_rank.iter().zip(b.per_rank.iter()) {
            assert_eq!(
                digest(ra),
                digest(rb),
                "seed {seed}: per-rank reports differ"
            );
        }
        assert_eq!(a.table, b.table, "seed {seed}: rendered tables differ");
    }
}

/// The open loop waits on its requests' signals instead of polling on a
/// 5 µs timer. At the default shape (seed 11, 1 000 arrivals a rank) a
/// completed request costs under 4 scheduler hand-offs and under 2
/// progress passes; the poll cost 5.58 and 5.29, the wait 3.04 and
/// 0.79. The fabric's work is what it was under the poll: the same
/// signal adds, and every acked replica leg landed.
#[test]
fn the_open_loop_waits_on_signals_instead_of_polling() {
    let cfg = ServeConfig {
        ops_per_rank: 1_000,
        seed: 11,
        ..ServeConfig::default()
    };
    let run = run_simnet(&cfg, UnrConfig::default(), 11);
    let m = &run.merged;
    assert_eq!((m.completed(), m.shed), (4_000, 0));
    let per_request = |n: u64| n as f64 / m.completed() as f64;
    let switches = run.snapshot.counter("simnet.sched.switches").unwrap();
    let Some(MetricValue::Histogram { count: passes, .. }) =
        run.snapshot.get("unr.progress.batch_size")
    else {
        panic!("unr.progress.batch_size is not a histogram");
    };
    assert!(
        per_request(switches) < 4.0,
        "{switches} scheduler switches for {} requests",
        m.completed()
    );
    assert!(
        per_request(*passes) < 2.0,
        "{passes} progress passes for {} requests",
        m.completed()
    );
    assert_eq!(run.snapshot.counter("unr.signal.adds"), Some(3_174));
    assert_eq!((m.replica_acks, m.window_writes), (602, 602));
}

/// Every request is accounted for: completed + shed == arrivals,
/// cache hits + misses == completed GETs, and every remote replica
/// leg acknowledged by a writer landed in some window (summed-MMAS
/// conservation).
#[test]
fn replication_accounting_is_exact() {
    let run = run_simnet(&test_cfg(), UnrConfig::default(), 0xD1);
    let m = &run.merged;
    assert_eq!(m.completed() + m.shed, m.ops, "no request lost");
    assert_eq!(m.hits + m.misses, m.gets, "every GET is a hit or a miss");
    assert!(m.puts > 0 && m.gets > 0, "mixed workload expected");
    assert!(m.hits > 0, "zipfian traffic must produce cache hits");
    assert_eq!(
        m.replica_acks, m.window_writes,
        "every acked replica leg must have landed in a window"
    );
    assert_eq!(m.sig_alloc_fails, 0);
}

/// The bugfix regression: drive arrivals far faster than the fabric
/// drains, with a signal high-water mark well below the hard budget.
/// Admission must shed (typed), the hard budget must never be reached
/// (zero alloc failures reach clients), and the run must drain rather
/// than hang.
#[test]
fn overload_sheds_before_signal_alloc_failure() {
    let cfg = ServeConfig {
        ops_per_rank: 800,
        slots_per_rank: 512,
        keys: 2_048,
        ..ServeConfig::overload()
    };
    let run = run_simnet(&cfg, UnrConfig::default(), 0xD2);
    let m = &run.merged;
    assert!(
        m.shed > 0,
        "saturation must trip the admission controller (ops={}, completed={})",
        m.ops,
        m.completed()
    );
    assert_eq!(
        m.sig_alloc_fails, 0,
        "signal pressure must surface as Overloaded, never as an allocation failure"
    );
    assert_eq!(m.completed() + m.shed, m.ops, "drained, nothing stuck");
    // The shed counter also reached the shared metrics registry.
    let shed = run
        .snapshot
        .counter("unr.serve.shed")
        .expect("unr.serve.shed registered");
    assert_eq!(shed, m.shed);
    assert_eq!(run.snapshot.counter("unr.serve.sig_alloc_fails"), Some(0));
}

/// Aggregation-ring backpressure: with the sender-side coalescer
/// enabled and flushes withheld, per-destination backlog must trip the
/// `AggRing` high-water mark — and a later flush must drain every
/// buffered put (backpressure, never deadlock).
#[test]
fn agg_ring_pressure_sheds_and_then_drains() {
    let mut fcfg = Platform::th_xy().fabric_config(1, 2);
    fcfg.seed = 0xA66;
    let fabric = Fabric::new(fcfg);
    let ucfg = UnrConfig::builder()
        .agg_eager_max(128) // record (88 B) is aggregable
        .build()
        .expect("agg config");
    let sheds: Vec<(u64, u64, usize)> =
        run_mpi_on_fabric(&fabric, MpiConfig::default(), move |comm| {
            let cfg = ServeConfig {
                agg_hwm_bytes: 256, // ~3 buffered records trip the mark
                read_frac: 0.0,
                replicas: 2,
                slots_per_rank: 128,
                keys: 256,
                ..ServeConfig::default()
            };
            let unr = Unr::init(comm.ep_shared(), ucfg);
            let mem = unr.mem_reg(cfg.region_len());
            let win_sig = unr.sig_init(1 << 20);
            let win = mem.blk(0, cfg.window_len(), Some(&win_sig)).to_bytes();
            let windows: Vec<Blk> = allgather_bytes(comm, &win)
                .into_iter()
                .map(|b| Blk::from_bytes(&b).expect("peer window blk"))
                .collect();
            let base_live = unr.signal_occupancy().0;
            let mut svc = KvService::new(&unr, mem, cfg.clone(), windows, base_live);

            barrier(comm);
            // Submit PUTs without ever flushing: the coalescer buffers
            // them and the admission probe must eventually say stop.
            let mut agg_sheds = 0u64;
            let mut issued = 0u64;
            for i in 0..64u64 {
                let arr = Arrival {
                    at_ns: unr.now(),
                    kind: OpKind::Put,
                    key: i,
                };
                match svc.submit(arr) {
                    Ok(()) => issued += 1,
                    Err(ServeError::Overloaded(OverloadCause::AggRing)) => agg_sheds += 1,
                    Err(ServeError::Overloaded(_)) => {}
                    Err(e) => panic!("unexpected serve error: {e}"),
                }
            }
            // Now flush and drain: buffered puts and their deferred
            // ack addends must all complete.
            let deadline = unr.now() + 500 * MS;
            while svc.inflight() > 0 {
                assert!(unr.now() < deadline, "agg drain must not hang");
                unr.flush().expect("flush");
                unr.progress();
                if svc.reap() == 0 {
                    unr.sleep(10_000);
                }
            }
            barrier(comm);
            (agg_sheds, issued, svc.tallies.sig_alloc_fails as usize)
        });
    for (agg_sheds, issued, alloc_fails) in sheds {
        assert!(
            agg_sheds > 0,
            "agg backlog must trip the AggRing mark (issued {issued})"
        );
        assert!(issued > 0, "some puts must get through before the mark");
        assert_eq!(alloc_fails, 0);
    }
}

/// A quick end-to-end on the default engine config asserting the serve
/// metrics made it into the shared registry with the right names.
#[test]
fn serve_metrics_are_registered_under_unr_serve() {
    let run = run_simnet(&test_cfg(), UnrConfig::default(), 0xD3);
    for name in [
        "unr.serve.puts",
        "unr.serve.gets",
        "unr.serve.hits",
        "unr.serve.misses",
        "unr.serve.shed",
        "unr.serve.replica_acks",
        "unr.serve.sig_alloc_fails",
    ] {
        assert!(
            run.snapshot.counter(name).is_some(),
            "{name} missing from the registry"
        );
    }
    assert!(
        run.snapshot.get("unr.serve.request_ns").is_some(),
        "latency histogram missing"
    );
    assert_eq!(
        run.snapshot.counter("unr.serve.puts"),
        Some(run.merged.puts)
    );
    assert_eq!(
        run.snapshot.counter("unr.serve.gets"),
        Some(run.merged.gets)
    );
}
