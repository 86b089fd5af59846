//! Level-4 hardware fast path (DESIGN.md §5g): the fabric's atomic-add
//! sink is the *terminal* step for notification completions — the MMAS
//! addend lands in the signal table at arrival time and no CQ event is
//! ever posted. These tests pin the two contracts that co-design rests
//! on:
//!
//! * **CQ bypass**: a pure-hardware storm never touches the completion
//!   queue (depth stays 0, nothing is ever dropped) while the sink
//!   counters prove the traffic really took the hardware path;
//! * **determinism**: on the same seeded hardware fabric, running under
//!   `ProgressMode::Hardware` (sink + idle-parked ctrl drainer) and
//!   under `PollingAgent { interval: 0 }` (dedicated software thread)
//!   is byte-identical — same Chrome-trace hash, same per-rank final
//!   virtual times, same signal-table fingerprint, same received bytes.
//!   The CQ is empty by construction on a hardware channel, so which
//!   thread would have drained it cannot matter.

use unr_core::{convert, ProgressMode, Reliability, Unr, UnrConfig, UNR_PORT};
use unr_minimpi::{coll, run_mpi_on_fabric, MpiConfig};
use unr_powerllel::{Backend, Solver, SolverConfig};
use unr_simnet::{Fabric, FaultConfig, Platform};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn trace_hash(fabric: &Fabric) -> u64 {
    let json = fabric
        .tracer
        .as_ref()
        .expect("fabric must be built with trace: true")
        .to_chrome_json();
    fnv1a(json.as_bytes())
}

/// Everything observable about one seeded storm run: the fabric trace,
/// per-rank (final virtual time, signal-table fingerprint, FNV of the
/// received bytes), and the CQ / hardware-sink counters.
#[derive(Debug, PartialEq)]
struct StormOutcome {
    trace: u64,
    per_rank: Vec<(u64, u64, u64)>,
}

struct StormMetrics {
    cq_depth_now: u64,
    cq_depth_max: u64,
    cq_dropped: u64,
    sink_applies: u64,
    cq_bypass: u64,
    ctrl_msgs: u64,
}

/// A 4-rank ring storm (rank r puts to r+1) on the TH-XY preset with
/// the level-4 interface. Every rank verifies the bytes it received.
fn hw_storm(
    seed: u64,
    progress: ProgressMode,
    reliability: Reliability,
    agg_max: usize,
    faults: bool,
) -> (StormOutcome, StormMetrics) {
    let mut cfg = Platform::th_xy().fabric_config(2, 2);
    cfg.seed = seed;
    cfg.trace = true;
    cfg.iface = cfg.iface.with_hardware_atomic_add();
    if faults {
        cfg.faults = FaultConfig {
            seed: 0xFA17 ^ seed,
            dup_prob: 0.02,
            dgram_ports: Some(vec![UNR_PORT]),
            ..FaultConfig::drops(0.05)
        };
    }
    // Small messages when the coalescer is on, bulk otherwise.
    let msg = if agg_max > 0 { 96 } else { 4 << 10 };
    let iters = 6usize;
    let fab = Fabric::new(cfg);
    let per_rank = run_mpi_on_fabric(&fab, MpiConfig::default(), move |comm| {
        let unr = Unr::init(
            comm.ep_shared(),
            UnrConfig {
                reliability,
                progress: Some(progress),
                agg_eager_max: agg_max,
                ..UnrConfig::default()
            },
        );
        let me = comm.rank();
        let n = comm.size();
        let mem = unr.mem_reg(msg * iters);
        let sig = unr.sig_init(1);
        let recv_blk = unr.blk_init(&mem, 0, msg * iters, Some(&sig));
        // Ring topology: the previous rank writes into my block, I write
        // into the next rank's (pairwise exchange_blk would mismatch).
        convert::send_blk(comm, (me + n - 1) % n, 0, &recv_blk);
        let remote = convert::recv_blk(comm, (me + 1) % n, 0);
        for it in 0..iters {
            let pattern: Vec<u8> = (0..msg).map(|i| (i ^ (it * 13) ^ me) as u8).collect();
            let scratch = unr.mem_reg(msg);
            scratch.write_bytes(0, &pattern);
            let blk = unr.blk_init(&scratch, 0, msg, None);
            let mut rmt = remote;
            rmt.offset = it * msg;
            rmt.len = msg;
            unr.put(&blk, &rmt).unwrap();
            unr.sig_wait(&sig).unwrap();
            sig.reset().unwrap();
        }
        // Verify the ring neighbour's payloads landed intact.
        let prev = (me + n - 1) % n;
        let mut got = vec![0u8; msg * iters];
        mem.read_bytes(0, &mut got);
        for it in 0..iters {
            for i in 0..msg {
                assert_eq!(
                    got[it * msg + i],
                    (i ^ (it * 13) ^ prev) as u8,
                    "rank {me}: corrupt byte {i} of put {it} from rank {prev}"
                );
            }
        }
        coll::barrier(comm);
        (comm.ep().now(), unr.table_fingerprint(), fnv1a(&got))
    });
    let snap = fab.obs.metrics.snapshot();
    let gauge = |name: &str| match snap.get(name) {
        Some(unr_obs::MetricValue::Gauge { value, max }) => (*value as u64, *max as u64),
        other => panic!("{name}: expected a gauge, got {other:?}"),
    };
    let (cq_depth_now, cq_depth_max) = gauge("simnet.cq.depth");
    let metrics = StormMetrics {
        cq_depth_now,
        cq_depth_max,
        cq_dropped: snap.counter("simnet.cq.dropped").unwrap_or(0),
        sink_applies: snap.counter("unr.hw.sink_applies").unwrap_or(0),
        cq_bypass: snap.counter("unr.hw.cq_bypass").unwrap_or(0),
        ctrl_msgs: snap.counter("unr.hw.ctrl_msgs").unwrap_or(0),
    };
    (
        StormOutcome {
            trace: trace_hash(&fab),
            per_rank,
        },
        metrics,
    )
}

/// Satellite contract: sink-applied notifications must never show up in
/// the completion-queue accounting. A pure-hardware storm (no reliable
/// transport, no coalescer — no software thread at all) leaves the CQ
/// untouched for its whole life: depth 0 now, depth 0 *ever*, zero
/// drops — while the sink counters prove the notifications flowed.
#[test]
fn pure_hardware_storm_never_touches_the_cq() {
    let (_, m) = hw_storm(41, ProgressMode::Hardware, Reliability::Off, 0, false);
    assert_eq!(m.cq_depth_now, 0, "CQ must be empty after a hardware storm");
    assert_eq!(
        m.cq_depth_max, 0,
        "no CQ event may be queued even transiently on the hardware path"
    );
    assert_eq!(m.cq_dropped, 0, "hardware storm must not drop CQ events");
    assert!(
        m.sink_applies > 0,
        "the storm's notifications must route through the atomic-add sink"
    );
    assert!(
        m.cq_bypass >= m.sink_applies,
        "every sink apply is a bypassed CQ round-trip"
    );
    assert_eq!(
        m.ctrl_msgs, 0,
        "pure hardware spawns no ctrl drainer, so it can count nothing"
    );
}

/// The hybrid drainer's work is visible: under the reliable transport
/// the control port carries frames/acks and `unr.hw.ctrl_msgs` counts
/// them, while the CQ still stays untouched.
#[test]
fn hybrid_reliable_storm_drains_ctrl_without_cq() {
    let (_, m) = hw_storm(42, ProgressMode::Hardware, Reliability::On, 0, true);
    assert_eq!(
        m.cq_depth_max, 0,
        "reliable traffic rides dgrams, not the CQ"
    );
    assert_eq!(m.cq_dropped, 0);
    assert!(
        m.ctrl_msgs > 0,
        "the hybrid drainer must have processed the reliable ctrl traffic"
    );
}

/// The determinism oracle (satellite 4): for the same seed the hardware
/// run and the `PollingAgent {{ interval: 0 }}` run of the *same* storm
/// are byte-identical — trace hash, final virtual times, signal-table
/// fingerprints and received bytes. Covers all three transports that
/// compose with level 4: plain notified RMA, reliable-with-faults
/// (hybrid drainer vs software agent), and the small-message coalescer.
#[test]
fn hardware_and_polling_storms_are_byte_identical() {
    let polling = ProgressMode::PollingAgent { interval: 0 };
    let variants: &[(&str, Reliability, usize, bool)] = &[
        ("rma", Reliability::Off, 0, false),
        ("reliable+faults", Reliability::On, 0, true),
        ("aggregated", Reliability::On, 512, false),
    ];
    for &(label, rel, agg, faults) in variants {
        for seed in [7u64, 2024] {
            let (hw, _) = hw_storm(seed, ProgressMode::Hardware, rel, agg, faults);
            let (sw, _) = hw_storm(seed, polling, rel, agg, faults);
            assert_eq!(
                hw, sw,
                "{label} storm (seed {seed}): hardware progress diverged from \
                 the software polling agent"
            );
        }
    }
}

/// Fig6-style seeded PowerLLEL run on the level-4 fabric: hardware
/// progress and the polling agent produce the same golden trace.
#[test]
fn hardware_fig6_trace_matches_polling() {
    let run = |progress: ProgressMode| -> (u64, f64) {
        let mut cfg = Platform::th_xy().fabric_config(4, 2);
        cfg.seed = 2024;
        cfg.trace = true;
        cfg.iface = cfg.iface.with_hardware_atomic_add();
        let mut scfg = SolverConfig::small(4, 2);
        scfg.nx = 32;
        scfg.ny = 32;
        scfg.nz = 16;
        scfg.dt = 1e-3;
        let fab = Fabric::new(cfg);
        let kes = run_mpi_on_fabric(&fab, MpiConfig::default(), move |comm| {
            let unr = Unr::init(
                comm.ep_shared(),
                UnrConfig {
                    progress: Some(progress),
                    ..UnrConfig::default()
                },
            );
            let backend = Backend::Unr(unr);
            let mut s = Solver::new(&backend, comm, scfg);
            s.init_taylor_green();
            s.step();
            s.kinetic_energy()
        });
        (trace_hash(&fab), kes[0])
    };
    let (hw_trace, hw_ke) = run(ProgressMode::Hardware);
    let (sw_trace, sw_ke) = run(ProgressMode::PollingAgent { interval: 0 });
    assert_eq!(
        hw_trace, sw_trace,
        "fig6 trace diverged under hardware progress"
    );
    assert_eq!(
        hw_ke, sw_ke,
        "fig6 physics diverged under hardware progress"
    );
}

/// Faulty-trace oracle: the reliable pingpong under pinned drop/dup
/// faults hashes identically whether the ctrl traffic is drained by the
/// hybrid drainer (hardware) or the full polling agent (software).
#[test]
fn hardware_faulty_trace_matches_polling() {
    let run = |progress: ProgressMode| -> u64 {
        let mut cfg = Platform::th_xy().fabric_config(2, 1);
        cfg.seed = 99;
        cfg.trace = true;
        cfg.iface = cfg.iface.with_hardware_atomic_add();
        cfg.faults = FaultConfig {
            seed: 0xFA17,
            dup_prob: 0.02,
            dgram_ports: Some(vec![UNR_PORT]),
            ..FaultConfig::drops(0.05)
        };
        let fab = Fabric::new(cfg);
        let sizes = [4usize << 10, 512, 32 << 10];
        run_mpi_on_fabric(&fab, MpiConfig::default(), move |comm| {
            let unr = Unr::init(
                comm.ep_shared(),
                UnrConfig {
                    reliability: Reliability::On,
                    progress: Some(progress),
                    ..UnrConfig::default()
                },
            );
            assert!(unr.reliable());
            let cap: usize = sizes.iter().sum();
            let mem = unr.mem_reg(cap);
            if comm.rank() == 0 {
                let full = convert::recv_blk(comm, 1, 0);
                let mut off = 0;
                for (it, &size) in sizes.iter().enumerate() {
                    let pattern: Vec<u8> = (0..size).map(|i| (i ^ (it * 31)) as u8).collect();
                    mem.write_bytes(off, &pattern);
                    let blk = unr.blk_init(&mem, off, size, None);
                    let mut rmt = full;
                    rmt.offset = off;
                    rmt.len = size;
                    unr.put(&blk, &rmt).unwrap();
                    comm.recv(Some(1), 7);
                    off += size;
                }
                for _ in 0..10_000 {
                    if unr.retries_in_flight() == 0 {
                        break;
                    }
                    unr.sleep(unr_simnet::us(50.0));
                }
                assert_eq!(unr.retries_in_flight(), 0);
            } else {
                let sig = unr.sig_init(1);
                let recv = unr.blk_init(&mem, 0, cap, Some(&sig));
                convert::send_blk(comm, 0, 0, &recv);
                let mut off = 0;
                for (it, &size) in sizes.iter().enumerate() {
                    unr.sig_wait(&sig).unwrap();
                    sig.reset().unwrap();
                    let mut got = vec![0u8; size];
                    mem.read_bytes(off, &mut got);
                    for (i, &b) in got.iter().enumerate() {
                        assert_eq!(b, (i ^ (it * 31)) as u8);
                    }
                    off += size;
                    comm.send(0, 7, &[]);
                }
            }
            coll::barrier(comm);
        });
        trace_hash(&fab)
    };
    let hw = run(ProgressMode::Hardware);
    let sw = run(ProgressMode::PollingAgent { interval: 0 });
    assert_eq!(
        hw, sw,
        "faulty reliable trace diverged under hardware progress"
    );
}
