//! Wall-clock hot-path benchmark: an 8-rank put/signal storm plus a
//! PowerLLEL step, under real OS threads.
//!
//! Unlike the figure-regeneration binaries (which report *virtual*
//! times), this harness measures **wall-clock** cost of the library's
//! host-side data path: signal-table lookups, retry bookkeeping,
//! payload handling and progress-loop overhead. Virtual time is the
//! correctness oracle; wall time is what this file optimizes for.
//!
//! Output: human-readable tables plus one machine-greppable
//! `BENCH_PERF_JSON {...}` line consumed by `scripts/bench.sh`, which
//! writes `BENCH_PERF.json` and gates CI on ops/sec regressions.
//!
//! Flags: `--quick` (CI smoke: smaller iteration counts) and
//! `--backend netfab` (run the storm over real TCP-loopback processes
//! via `unr-netfab` instead of the simulated fabric; its JSON carries
//! `"backend":"netfab"` and gates against `gate.netfab_*`).

use std::sync::Arc;
use std::time::Instant;

use unr_bench::print_table;
use unr_core::{convert, ProgressMode, Reliability, Unr, UnrConfig};
use unr_minimpi::{coll, run_mpi_on_fabric, MpiConfig};
use unr_powerllel::{Backend, Solver, SolverConfig, Timers};
use unr_simnet::{Fabric, Platform};

/// Per-rank result of one storm phase.
struct RankStorm {
    /// Wall nanoseconds spent between the pre- and post-storm barriers.
    wall_ns: u64,
    /// Wall nanoseconds of each individual `put` call on this rank.
    put_ns: Vec<u64>,
}

/// Aggregated storm numbers.
struct StormResult {
    ops: u64,
    wall_ms: f64,
    ops_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
}

const STORM_RANKS_PER_NODE: usize = 2;
const STORM_NODES: usize = 4;
const STORM_NICS: usize = 4;
const STORM_MSG: usize = 128 * 1024;
/// Small-message storm: sub-MTU payloads under the eager-coalescing
/// threshold, the workload the sender-side aggregation path targets.
const SMALL_MSG: usize = 256;
const SMALL_AGG_MAX: usize = 512;

/// Run one put/signal storm: every rank fires `iters` notified PUTs of
/// `msg` bytes at its ring neighbour, then waits for all of its own
/// arrivals. 8 ranks on 4 nodes, 4 NICs per node, GLEX channel, so
/// large messages stripe into 4 sub-messages. With `hardware` the
/// fabric advertises a level-4 atomic-add unit (GLEX-hw channel): the
/// sink applies MMAS addends terminally and no CQ round-trip exists.
fn storm(iters: usize, msg: usize, ucfg: UnrConfig, hardware: bool) -> StormResult {
    let mut cfg = Platform::th_xy().fabric_config(STORM_NODES, STORM_RANKS_PER_NODE);
    cfg.nics_per_node = STORM_NICS;
    cfg.seed = 0xB0B0;
    if hardware {
        cfg.iface = cfg.iface.with_hardware_atomic_add();
    }
    let fabric = Fabric::new(cfg);
    let per_rank: Vec<RankStorm> = run_mpi_on_fabric(&fabric, MpiConfig::default(), move |comm| {
        let unr = Unr::init(comm.ep_shared(), ucfg);
        let n = comm.size();
        let me = comm.rank();
        let mem = unr.mem_reg(2 * msg);
        // Receive window: second half of the region, armed with a
        // signal expecting every neighbour put.
        let recv_sig = unr.sig_init(iters as i64);
        let recv_blk = unr.blk_init(&mem, msg, msg, Some(&recv_sig));
        let src = (me + n - 1) % n;
        let dst = (me + 1) % n;
        convert::send_blk(comm, dst, 11, &recv_blk);
        let rmt = convert::recv_blk(comm, src, 11);
        // Send window: first half, payload written once up front (the
        // storm measures the transport, not the fill).
        let pattern: Vec<u8> = (0..msg).map(|i| (i * 131 + me) as u8).collect();
        mem.write_bytes(0, &pattern);
        let send_blk = unr.blk_init(&mem, 0, msg, None);

        coll::barrier(comm);
        let t0 = Instant::now();
        let mut put_ns = Vec::with_capacity(iters);
        for _ in 0..iters {
            let p0 = Instant::now();
            unr.put(&send_blk, &rmt).unwrap();
            put_ns.push(p0.elapsed().as_nanos() as u64);
        }
        unr.sig_wait(&recv_sig).unwrap();
        assert!(!recv_sig.overflowed());
        coll::barrier(comm);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        RankStorm { wall_ns, put_ns }
    });

    summarize(per_rank)
}

fn summarize(per_rank: Vec<RankStorm>) -> StormResult {
    let ops = per_rank.iter().map(|r| r.put_ns.len() as u64).sum::<u64>();
    let wall_ns = per_rank.iter().map(|r| r.wall_ns).max().unwrap_or(1).max(1);
    let mut lats: Vec<u64> = per_rank.into_iter().flat_map(|r| r.put_ns).collect();
    lats.sort_unstable();
    let pct = |p: f64| lats[((lats.len() - 1) as f64 * p) as usize];
    StormResult {
        ops,
        wall_ms: wall_ns as f64 / 1e6,
        ops_per_sec: ops as f64 / (wall_ns as f64 / 1e9),
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
    }
}

/// The ≤512 B storm, with or without sender-side coalescing. Reliable
/// transport both ways: aggregation also collapses the retry state to
/// one pending entry per aggregate, which is part of what it buys.
/// With `hardware`, progress runs in hybrid level-4 mode: the sink owns
/// the data path and the ctrl-only drainer carries acks + `MSG_AGG`.
fn small_storm(iters: usize, agg_max: usize, hardware: bool) -> StormResult {
    let mut builder = UnrConfig::builder()
        .reliability(Reliability::On)
        .agg_eager_max(agg_max);
    if hardware {
        builder = builder.progress(ProgressMode::Hardware);
    }
    storm(iters, SMALL_MSG, builder.build().unwrap(), hardware)
}

/// PowerLLEL wall-clock: the fig6 TH-XY configuration (4 nodes x 2
/// ranks, 64x64x32 grid) with the UNR backend, timed per step in real
/// milliseconds.
fn powerllel_step(steps: usize) -> f64 {
    let p = Platform::th_xy();
    let mut fabric_cfg = p.fabric_config(4, 2);
    fabric_cfg.seed = 2024;
    let mut scfg = SolverConfig::small(4, 2);
    scfg.nx = 64;
    scfg.ny = 64;
    scfg.nz = 32;
    scfg.dt = 1e-3;
    let fab = Fabric::new(fabric_cfg);
    let walls: Vec<u64> = run_mpi_on_fabric(&fab, MpiConfig::default(), move |comm| {
        let backend = Backend::Unr(Unr::init(comm.ep_shared(), UnrConfig::default()));
        let mut s = Solver::new(&backend, comm, scfg);
        s.init_taylor_green();
        s.step(); // warmup
        s.timers = Timers::default();
        coll::barrier(comm);
        let t0 = Instant::now();
        for _ in 0..steps {
            s.step();
        }
        coll::barrier(comm);
        t0.elapsed().as_nanos() as u64
    });
    let wall_ns = walls.into_iter().max().unwrap_or(1);
    wall_ns as f64 / 1e6 / steps as f64
}

/// Netfab storm scale: 4 processes × 2 NICs, 64 KiB messages (at the
/// striping threshold, so each put fans out over both sockets).
const NETFAB_RANKS: usize = 4;
const NETFAB_NICS: usize = 2;
const NETFAB_MSG: usize = 64 * 1024;

fn netfab_opts(quick: bool, reliable: bool, hardware: bool) -> unr_netfab::StormOpts {
    unr_netfab::StormOpts {
        iters: if quick { 16 } else { 64 },
        epochs: if quick { 3 } else { 8 },
        msg: NETFAB_MSG,
        reliable,
        drop_every: None, // throughput run: reliable protocol, no faults
        agg_eager_max: 0,
        hardware,
        kill_rank: None,
        kill_epoch: 0,
    }
}

/// The netfab ≤512 B storm: reliable transport, sub-MTU payloads, with
/// or without the sender-side coalescer.
fn netfab_small_opts(quick: bool, agg: bool) -> unr_netfab::StormOpts {
    unr_netfab::StormOpts {
        iters: if quick { 64 } else { 256 },
        epochs: if quick { 3 } else { 8 },
        msg: SMALL_MSG,
        reliable: true,
        drop_every: None,
        agg_eager_max: if agg { SMALL_AGG_MAX } else { 0 },
        hardware: false,
        kill_rank: None,
        kill_epoch: 0,
    }
}

/// Child side of `--backend netfab`: run the storm on this rank and
/// report one machine-readable line for the parent to aggregate.
fn netfab_child(world: unr_netfab::NetWorld, quick: bool, args: &[String]) {
    let reliable = args.iter().any(|a| a == "--netfab-reliable");
    let hardware = args.iter().any(|a| a == "--netfab-hw");
    let opts = if args.iter().any(|a| a == "--netfab-small") {
        netfab_small_opts(quick, args.iter().any(|a| a == "--netfab-agg"))
    } else {
        netfab_opts(quick, reliable, hardware)
    };
    let out = unr_netfab::run_storm(Arc::new(world), opts).expect("netfab storm rank");
    println!(
        "NETFAB_RANK_JSON {{\"ops\":{},\"wall_ns\":{}}}",
        out.ops, out.wall_ns
    );
}

/// Aggregate of one netfab storm variant across all ranks.
struct NetfabVariant {
    ops: u64,
    wall_ms: f64,
    ops_per_sec: f64,
}

fn netfab_run(quick: bool, variant: &[&str]) -> NetfabVariant {
    let mut args: Vec<String> = vec!["--backend".into(), "netfab".into()];
    if quick {
        args.push("--quick".into());
    }
    args.extend(variant.iter().map(|s| s.to_string()));
    let res = unr_netfab::spawn_world(NETFAB_RANKS, NETFAB_NICS, &args).expect("netfab launch");
    assert!(res.success(), "a netfab rank failed");
    let field = |line: &str, key: &str| -> u64 {
        let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
        line[at..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .expect("numeric field")
    };
    let mut ops = 0u64;
    let mut wall_ns = 1u64;
    let mut ranks_seen = 0;
    for out in &res.outputs {
        for line in out.lines() {
            if let Some(json) = line.strip_prefix("NETFAB_RANK_JSON ") {
                ops += field(json, "\"ops\":");
                wall_ns = wall_ns.max(field(json, "\"wall_ns\":"));
                ranks_seen += 1;
            }
        }
    }
    assert_eq!(ranks_seen, NETFAB_RANKS, "every rank reports once");
    NetfabVariant {
        ops,
        wall_ms: wall_ns as f64 / 1e6,
        ops_per_sec: ops as f64 / (wall_ns as f64 / 1e9),
    }
}

/// Parent side of `--backend netfab`: run both variants, print the
/// table and the gate JSON.
fn netfab_main(quick: bool) {
    let reliable = netfab_run(quick, &["--netfab-reliable"]);
    let rma = netfab_run(quick, &[]);
    // Level-4 emulation arms: the reactor-side sink is terminal and no
    // control thread exists (pure), or the hybrid ctrl drainer carries
    // the ack/replay protocol next to the hardware data path.
    let level4 = netfab_run(quick, &["--netfab-hw"]);
    let level4_rel = netfab_run(quick, &["--netfab-hw", "--netfab-reliable"]);
    let small_plain = netfab_run(quick, &["--netfab-small"]);
    let small_agg = netfab_run(quick, &["--netfab-small", "--netfab-agg"]);
    let small_speedup = small_agg.ops_per_sec / small_plain.ops_per_sec.max(f64::MIN_POSITIVE);
    let opts = netfab_opts(quick, true, false);
    let small_opts = netfab_small_opts(quick, true);
    let row = |name: &str, v: &NetfabVariant| {
        vec![
            name.to_string(),
            v.ops.to_string(),
            format!("{:.1}", v.wall_ms),
            format!("{:.0}", v.ops_per_sec),
        ]
    };
    print_table(
        &format!(
            "Hot path — netfab {}-process put/signal storm ({} NICs, {} KiB msgs, TCP loopback)",
            NETFAB_RANKS,
            NETFAB_NICS,
            NETFAB_MSG / 1024
        ),
        &["variant", "ops", "wall ms", "ops/sec"],
        &[
            row("reliable", &reliable),
            row("rma", &rma),
            row("level4 (hw sink)", &level4),
            row("level4 reliable (hybrid)", &level4_rel),
            row("small unbatched", &small_plain),
            row("small aggregated", &small_agg),
        ],
    );
    // Gate metric: the reliable storm, as on the simnet backend. The
    // small block gates separately (scripts/bench.sh keys
    // netfab_small_full / netfab_small_quick off "agg_ops_per_sec");
    // the level-4 hardware-emulation storm under
    // gate.netfab_level4_full / netfab_level4_quick off
    // "level4_ops_per_sec". Key names are chosen so that the top-level
    // "ops_per_sec" stays the *first* '"ops_per_sec":' match.
    println!(
        "BENCH_PERF_JSON {{\"schema\":1,\"backend\":\"netfab\",\"quick\":{quick},\
         \"ops_per_sec\":{:.1},\
         \"level4_ops_per_sec\":{:.1},\"level4_rel_ops_per_sec\":{:.1},\
         \"storm\":{{\"ranks\":{NETFAB_RANKS},\"nics\":{NETFAB_NICS},\"msg_bytes\":{NETFAB_MSG},\
         \"iters\":{},\"epochs\":{},\
         \"reliable\":{{\"ops_per_sec\":{:.1},\"wall_ms\":{:.2}}},\
         \"rma\":{{\"ops_per_sec\":{:.1},\"wall_ms\":{:.2}}}}},\
         \"small\":{{\"msg_bytes\":{},\"agg_max\":{},\"iters\":{},\"epochs\":{},\
         \"unbatched_ops_per_sec\":{:.1},\"agg_ops_per_sec\":{:.1},\"speedup\":{:.2}}}}}",
        reliable.ops_per_sec,
        level4.ops_per_sec,
        level4_rel.ops_per_sec,
        opts.iters,
        opts.epochs,
        reliable.ops_per_sec,
        reliable.wall_ms,
        rma.ops_per_sec,
        rma.wall_ms,
        SMALL_MSG,
        SMALL_AGG_MAX,
        small_opts.iters,
        small_opts.epochs,
        small_plain.ops_per_sec,
        small_agg.ops_per_sec,
        small_speedup,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let netfab = args.iter().any(|a| a == "--backend=netfab")
        || args
            .windows(2)
            .any(|w| w[0] == "--backend" && w[1] == "netfab");

    // Netfab rank? (spawn_world re-executes this binary with the
    // UNR_NETFAB_* environment set.)
    if let Some(world) = unr_netfab::NetWorld::from_env() {
        let world = world.expect("netfab bootstrap");
        netfab_child(world, quick, &args);
        return;
    }
    if netfab {
        netfab_main(quick);
        return;
    }

    let iters = if quick { 250 } else { 1500 };
    let small_iters = if quick { 500 } else { 3000 };
    let steps = if quick { 1 } else { 3 };

    let reliable = storm(
        iters,
        STORM_MSG,
        UnrConfig {
            reliability: Reliability::On,
            ..UnrConfig::default()
        },
        false,
    );
    let rma = storm(
        iters,
        STORM_MSG,
        UnrConfig {
            reliability: Reliability::Off,
            ..UnrConfig::default()
        },
        false,
    );
    // Level-4 fast path: the fabric's atomic-add unit applies MMAS
    // addends terminally (zero CQ round-trips); reliable and
    // small-message arms run the hybrid ctrl drainer next to the
    // hardware sink (DESIGN.md §5g). The reliable arm is the gated one
    // and is compared against the `reliable` storm above — the same
    // traffic under `PollingAgent { interval: 0 }` software progress.
    let level4 = storm(
        iters,
        STORM_MSG,
        UnrConfig {
            reliability: Reliability::On,
            progress: Some(ProgressMode::Hardware),
            ..UnrConfig::default()
        },
        true,
    );
    let level4_rma = storm(
        iters,
        STORM_MSG,
        UnrConfig {
            reliability: Reliability::Off,
            progress: Some(ProgressMode::Hardware),
            ..UnrConfig::default()
        },
        true,
    );
    let small_plain = small_storm(small_iters, 0, false);
    let small_agg = small_storm(small_iters, SMALL_AGG_MAX, false);
    let level4_small = small_storm(small_iters, SMALL_AGG_MAX, true);
    let small_speedup = small_agg.ops_per_sec / small_plain.ops_per_sec.max(f64::MIN_POSITIVE);
    let level4_speedup = level4.ops_per_sec / reliable.ops_per_sec.max(f64::MIN_POSITIVE);
    let pll_ms = powerllel_step(steps);

    let row = |name: &str, s: &StormResult| {
        vec![
            name.to_string(),
            s.ops.to_string(),
            format!("{:.1}", s.wall_ms),
            format!("{:.0}", s.ops_per_sec),
            s.p50_ns.to_string(),
            s.p99_ns.to_string(),
        ]
    };
    print_table(
        &format!(
            "Hot path — {}-rank put/signal storm ({} NICs/node, {} KiB msgs, wall clock)",
            STORM_NODES * STORM_RANKS_PER_NODE,
            STORM_NICS,
            STORM_MSG / 1024
        ),
        &[
            "variant",
            "ops",
            "wall ms",
            "ops/sec",
            "put p50 ns",
            "put p99 ns",
        ],
        &[
            row("reliable", &reliable),
            row("rma", &rma),
            row("level4 reliable (hybrid)", &level4),
            row("level4 rma (hw sink)", &level4_rma),
            vec![
                "level4 speedup".to_string(),
                String::new(),
                String::new(),
                format!("{level4_speedup:.2}x"),
                String::new(),
                String::new(),
            ],
        ],
    );
    print_table(
        &format!(
            "Hot path — small-message storm ({} B msgs, reliable, coalescer {} B threshold)",
            SMALL_MSG, SMALL_AGG_MAX
        ),
        &[
            "variant",
            "ops",
            "wall ms",
            "ops/sec",
            "put p50 ns",
            "put p99 ns",
        ],
        &[
            row("unbatched", &small_plain),
            row("aggregated", &small_agg),
            row("level4 aggregated", &level4_small),
            vec![
                "speedup".to_string(),
                String::new(),
                String::new(),
                format!("{small_speedup:.2}x"),
                String::new(),
                String::new(),
            ],
        ],
    );
    print_table(
        "Hot path — PowerLLEL step (TH-XY, 4x2 ranks, wall clock)",
        &["steps", "wall ms/step"],
        &[vec![steps.to_string(), format!("{pll_ms:.1}")]],
    );

    // The gate metric is the reliable storm: it exercises the signal
    // table, the retry state and the payload path all at once. The small
    // block gates separately (scripts/bench.sh keys small_full /
    // small_quick off "agg_ops_per_sec") and the level-4 storm gates off
    // "level4_ops_per_sec" (level4_full / level4_quick); the keys are
    // named so that the top-level "ops_per_sec" stays the *first* match
    // in the line.
    println!(
        "BENCH_PERF_JSON {{\"schema\":1,\"quick\":{quick},\"ops_per_sec\":{:.1},\
         \"level4_ops_per_sec\":{:.1},\"level4_rma_ops_per_sec\":{:.1},\
         \"level4_small_ops_per_sec\":{:.1},\"level4_speedup_vs_polling\":{:.2},\
         \"storm\":{{\"ranks\":{},\"nics\":{},\"msg_bytes\":{},\"iters\":{iters},\
         \"reliable\":{{\"ops_per_sec\":{:.1},\"wall_ms\":{:.2},\"put_ns_p50\":{},\"put_ns_p99\":{}}},\
         \"rma\":{{\"ops_per_sec\":{:.1},\"wall_ms\":{:.2},\"put_ns_p50\":{},\"put_ns_p99\":{}}}}},\
         \"small\":{{\"msg_bytes\":{},\"agg_max\":{},\"iters\":{small_iters},\
         \"unbatched_ops_per_sec\":{:.1},\"agg_ops_per_sec\":{:.1},\"speedup\":{:.2}}},\
         \"powerllel\":{{\"steps\":{steps},\"wall_ms_per_step\":{:.2}}}}}",
        reliable.ops_per_sec,
        level4.ops_per_sec,
        level4_rma.ops_per_sec,
        level4_small.ops_per_sec,
        level4_speedup,
        STORM_NODES * STORM_RANKS_PER_NODE,
        STORM_NICS,
        STORM_MSG,
        reliable.ops_per_sec,
        reliable.wall_ms,
        reliable.p50_ns,
        reliable.p99_ns,
        rma.ops_per_sec,
        rma.wall_ms,
        rma.p50_ns,
        rma.p99_ns,
        SMALL_MSG,
        SMALL_AGG_MAX,
        small_plain.ops_per_sec,
        small_agg.ops_per_sec,
        small_speedup,
        pll_ms,
    );
}
