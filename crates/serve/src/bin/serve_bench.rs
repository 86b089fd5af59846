//! `serve-bench` — the KV-service benchmark on both backends.
//!
//! Modes:
//! - default / `--quick`: simnet run (4 ranks, deterministic fabric),
//!   prints a summary plus one `BENCH_SERVE_JSON {...}` line gated by
//!   `scripts/bench.sh --serve` (keys `serve_full` / `serve_quick`).
//! - `--backend netfab`: 4 real OS processes over TCP loopback via
//!   the `unr-launch` bootstrap; per-rank `NETFAB_SERVE_JSON` lines
//!   are merged by the parent (keys `netfab_serve_*`).
//! - `--overload`: deliberate saturation on simnet; asserts the
//!   admission controller shed (`shed > 0`) and that no client ever
//!   saw a signal allocation failure (`sig_alloc_fails == 0`), then
//!   prints `OVERLOAD_OK`.
//!
//! Throughput (`ops_per_sec`) is wall-clock on every backend — it is
//! the host-side cost of the serve data path and is what the perf
//! gate watches. Latency percentiles are virtual nanoseconds on
//! simnet (deterministic) and wall nanoseconds on netfab.

use std::sync::Arc;
use std::time::Duration;

use unr_core::{Blk, Reliability, UnrConfig};
use unr_netfab::{NetFaults, NetUnr, NetWorld};
use unr_serve::harness::run_simnet;
use unr_serve::{run_open_loop, RankReport, ServeConfig};

const NETFAB_RANKS: usize = 4;
const NETFAB_NICS: usize = 2;
// Within the engine's default 32 event bits; see harness::WINDOW_EVENTS.
const WINDOW_EVENTS: i64 = 1 << 30;

fn pick_config(args: &[String]) -> (ServeConfig, bool, bool) {
    let quick = args.iter().any(|a| a == "--quick");
    let overload = args.iter().any(|a| a == "--overload");
    let cfg = if overload {
        ServeConfig::overload()
    } else if quick {
        ServeConfig::quick()
    } else {
        ServeConfig::full()
    };
    (cfg, quick, overload)
}

fn print_summary(label: &str, m: &RankReport) {
    println!(
        "serve [{label}]: {} arrivals, {} completed ({} puts, {} gets; {} hits / {} misses), \
         {} shed, {} replica acks, {} window writes, {:.1} ms wall",
        m.ops,
        m.completed(),
        m.puts,
        m.gets,
        m.hits,
        m.misses,
        m.shed,
        m.replica_acks,
        m.window_writes,
        m.wall_ns as f64 / 1e6,
    );
    println!(
        "serve [{label}]: {:.0} ops/sec, latency p50 {:.0} ns, p99 {:.0} ns, p999 {:.0} ns",
        m.ops_per_sec(),
        m.percentile(0.50),
        m.percentile(0.99),
        m.percentile(0.999),
    );
}

fn print_gate_json(backend: &str, quick: bool, m: &RankReport) {
    // Top-level "ops_per_sec" must stay the *first* match in the line
    // (scripts/bench.sh extracts first-match), as in hotpath's JSON.
    println!(
        "BENCH_SERVE_JSON {{\"schema\":1,\"backend\":\"{backend}\",\"quick\":{quick},\
         \"ops_per_sec\":{:.1},\"lat_p50_ns\":{:.0},\"lat_p99_ns\":{:.0},\"lat_p999_ns\":{:.0},\
         \"ops\":{},\"puts\":{},\"gets\":{},\"hits\":{},\"misses\":{},\"shed\":{},\
         \"replica_acks\":{},\"sig_alloc_fails\":{},\"window_writes\":{},\"wall_ms\":{:.2}}}",
        m.ops_per_sec(),
        m.percentile(0.50),
        m.percentile(0.99),
        m.percentile(0.999),
        m.ops,
        m.puts,
        m.gets,
        m.hits,
        m.misses,
        m.shed,
        m.replica_acks,
        m.sig_alloc_fails,
        m.window_writes,
        m.wall_ns as f64 / 1e6,
    );
}

fn simnet_main(cfg: &ServeConfig, quick: bool, overload: bool) {
    let run = run_simnet(cfg, UnrConfig::default(), 0xCAFE);
    let m = &run.merged;
    let label = if overload {
        "simnet overload"
    } else if quick {
        "simnet quick"
    } else {
        "simnet full"
    };
    print_summary(label, m);
    assert_eq!(
        m.sig_alloc_fails, 0,
        "admission control must shed before the signal hard budget"
    );
    if overload {
        assert!(
            m.shed > 0,
            "overload run must shed (got {} sheds over {} arrivals)",
            m.shed,
            m.ops
        );
        println!(
            "OVERLOAD_OK shed={} completed={} sig_alloc_fails=0",
            m.shed,
            m.completed()
        );
        return;
    }
    print_gate_json("simnet", quick, m);
}

/// Child side of `--backend netfab` (spawn_world re-executes this
/// binary with the bootstrap environment set).
fn netfab_child(world: NetWorld, cfg: &ServeConfig) {
    let world = Arc::new(world);
    // Reliable transport: a drained reliable queue means every replica
    // write was acked as applied, which is what makes the post-run
    // window-counter read an exact accounting check.
    let ucfg = UnrConfig::builder()
        .reliability(Reliability::On)
        .build()
        .expect("netfab serve config");
    let unr = NetUnr::init(Arc::clone(&world), ucfg, NetFaults::default()).expect("netfab engine");
    let mem = unr.mem_reg(cfg.region_len());

    let window_sig = unr.sig_init(WINDOW_EVENTS);
    let win = mem.blk(0, cfg.window_len(), Some(&window_sig));
    let windows: Vec<Blk> = world.exchange_blks(&win).expect("window exchange");
    let base_live = unr.signal_occupancy().0;

    world.barrier().expect("pre-run barrier");
    let mut report = run_open_loop(&unr, mem, cfg, windows, base_live).expect("serve rank");
    // Settle: wait for our reliable sends to be acked (=> applied at
    // the replicas), then a barrier so every rank's writes are in
    // before window counters are read.
    assert!(unr.drain_pending(Duration::from_secs(10)), "reliable drain");
    world.barrier().expect("post-run barrier");
    report.window_writes = (WINDOW_EVENTS - window_sig.counter()) as u64;
    report.fingerprint = unr.table_fingerprint();
    println!("NETFAB_SERVE_JSON {}", report.to_wire());
    world.barrier().expect("exit barrier");
    unr.finalize();
}

/// Parent side: launch the world, merge the per-rank reports.
fn netfab_main(args: &[String], quick: bool) {
    let res =
        unr_netfab::spawn_world(NETFAB_RANKS, NETFAB_NICS, args).expect("netfab serve launch");
    assert!(res.success(), "a netfab serve rank failed");
    let mut per_rank = Vec::new();
    for out in &res.outputs {
        for line in out.lines() {
            if let Some(wire) = line.strip_prefix("NETFAB_SERVE_JSON ") {
                per_rank.push(RankReport::from_wire(wire).expect("rank report"));
            }
        }
    }
    assert_eq!(per_rank.len(), NETFAB_RANKS, "every rank reports once");
    let m = RankReport::merge(&per_rank);
    print_summary(if quick { "netfab quick" } else { "netfab full" }, &m);
    assert_eq!(m.sig_alloc_fails, 0, "no client-visible alloc failures");
    print_gate_json("netfab", quick, &m);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, quick, overload) = pick_config(&args);
    let netfab = args.iter().any(|a| a == "--backend=netfab")
        || args
            .windows(2)
            .any(|w| w[0] == "--backend" && w[1] == "netfab");

    if let Some(world) = NetWorld::from_env() {
        let world = world.expect("netfab bootstrap");
        netfab_child(world, &cfg);
        return;
    }
    if netfab {
        assert!(!overload, "--overload is a simnet mode");
        netfab_main(&args, quick);
        return;
    }
    simnet_main(&cfg, quick, overload);
}
