//! Locks the determinism contract the full-stack suite (and every
//! benchmark figure) relies on: the in-tree PRNG stream is fixed, and
//! jittered fabric runs on the paper's TH-XY platform preset are
//! bit-identical across repeats.

use std::sync::atomic::Ordering;

use unr_core::{convert, Reliability, Unr, UnrConfig, UNR_PORT};
use unr_minimpi::{coll, run_mpi_on_fabric, MpiConfig};
use unr_powerllel::{Backend, Solver, SolverConfig};
use unr_simnet::{run_world, Fabric, FaultConfig, NicSel, Platform, SimRng};

/// Two generators with the same seed produce identical streams — the
/// foundation of the fabric's reproducible jitter.
#[test]
fn prng_same_seed_identical_streams() {
    for seed in [0u64, 1, 42, 0x5eed, u64::MAX] {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        let sa: Vec<u64> = (0..4096).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..4096).map(|_| b.next_u64()).collect();
        assert_eq!(sa, sb, "seed {seed}: streams diverged");
    }
}

/// A jittered all-to-neighbour exchange on the TH-XY preset. Returns
/// per-rank (final time, bytes received) — the full observable outcome.
fn th_xy_run(seed: u64) -> Vec<(u64, u64)> {
    let mut cfg = Platform::th_xy().fabric_config(2, 2);
    cfg.seed = seed;
    run_world(cfg, |ep| {
        let me = ep.rank();
        let n = ep.world_size();
        let port = ep.open_port(3);
        for round in 0..4u64 {
            ep.advance(100 + 37 * round);
            let len = 64 << (round % 3);
            ep.send_dgram((me + 1) % n, 3, vec![me as u8; len], NicSel::Auto);
        }
        let mut bytes = 0u64;
        for _ in 0..4 {
            bytes += ep.recv_dgram(&port).bytes.len() as u64;
        }
        (ep.now(), bytes)
    })
}

/// TH-XY has jitter_frac = 0.15, so every arrival consults the PRNG;
/// three consecutive runs must still be bit-identical.
#[test]
fn th_xy_fabric_runs_bit_identical_across_repeats() {
    let first = th_xy_run(777);
    for rep in 0..2 {
        assert_eq!(th_xy_run(777), first, "repeat {rep} diverged");
    }
    // And the jitter stream actually matters: a different seed shifts
    // timings (bytes stay the same — payloads are seed-independent).
    let other = th_xy_run(778);
    assert_eq!(
        first.iter().map(|&(_, b)| b).collect::<Vec<_>>(),
        other.iter().map(|&(_, b)| b).collect::<Vec<_>>(),
    );
    assert_ne!(
        first.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
        other.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
        "jitter must depend on the fabric seed"
    );
}

// ---------------------------------------------------------------------
// Golden Chrome-trace hashes: the regression oracle for data-path
// refactors. The engine's hot path may be reorganized for wall-clock
// speed, but the *virtual-time* behavior — every transfer's post,
// service and arrival times, sizes, NIC choices — must stay
// byte-identical. These tests pin an FNV-1a hash of the full Chrome
// trace JSON for one seeded fault-free fig6-style run and one seeded
// faulty run; any change to either hash means the refactor altered
// observable scheduling, not just host-side cost.
//
// To re-capture after an *intentional* protocol change, run with
// `UNR_PRINT_TRACE_HASH=1 cargo test -p unr-integration golden -- --nocapture`
// and update the constants (call it out in the PR).
// ---------------------------------------------------------------------

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn trace_hash(fabric: &Fabric, label: &str) -> u64 {
    let json = fabric
        .tracer
        .as_ref()
        .expect("fabric must be built with trace: true")
        .to_chrome_json();
    let h = fnv1a(json.as_bytes());
    if std::env::var("UNR_PRINT_TRACE_HASH").is_ok() {
        println!("TRACE_HASH {label} = {h:#018x} ({} bytes)", json.len());
    }
    h
}

/// Seeded fig6-style PowerLLEL run (TH-XY, 4 nodes x 2 ranks, 64x64x32
/// grid, UNR backend) with tracing on; returns the trace hash.
fn fig6_trace_hash() -> u64 {
    let mut cfg = Platform::th_xy().fabric_config(4, 2);
    cfg.seed = 2024;
    cfg.trace = true;
    let mut scfg = SolverConfig::small(4, 2);
    scfg.nx = 64;
    scfg.ny = 64;
    scfg.nz = 32;
    scfg.dt = 1e-3;
    let fab = Fabric::new(cfg);
    run_mpi_on_fabric(&fab, MpiConfig::default(), move |comm| {
        let backend = Backend::Unr(Unr::init(comm.ep_shared(), UnrConfig::default()));
        let mut s = Solver::new(&backend, comm, scfg);
        s.init_taylor_green();
        for _ in 0..2 {
            s.step();
        }
    });
    trace_hash(&fab, "fig6_fault_free")
}

/// Seeded faulty run: reliable pingpong under pinned drop/duplicate
/// faults scoped to the UNR port; returns the trace hash.
fn faulty_trace_hash() -> u64 {
    let mut cfg = Platform::th_xy().fabric_config(2, 1);
    cfg.seed = 99;
    cfg.trace = true;
    cfg.faults = FaultConfig {
        seed: 0xFA17,
        dup_prob: 0.02,
        dgram_ports: Some(vec![UNR_PORT]),
        ..FaultConfig::drops(0.05)
    };
    let fab = Fabric::new(cfg);
    let sizes = [4usize << 10, 96 << 10, 1 << 10, 32 << 10, 512, 64 << 10];
    run_mpi_on_fabric(&fab, MpiConfig::default(), move |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
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
    trace_hash(&fab, "faulty_pingpong")
}

const GOLDEN_FIG6_TRACE: u64 = 0xb16119501e2ede74;
const GOLDEN_FAULTY_TRACE: u64 = 0x035375fabb67dceb;

#[test]
fn golden_fig6_trace_is_stable() {
    let h = fig6_trace_hash();
    assert_eq!(fig6_trace_hash(), h, "fig6 trace not even self-consistent");
    assert_eq!(
        h, GOLDEN_FIG6_TRACE,
        "seeded fault-free fig6 trace diverged from the golden hash"
    );
}

#[test]
fn golden_faulty_trace_is_stable() {
    let h = faulty_trace_hash();
    assert_eq!(
        faulty_trace_hash(),
        h,
        "faulty trace not even self-consistent"
    );
    assert_eq!(
        h, GOLDEN_FAULTY_TRACE,
        "seeded faulty trace diverged from the golden hash"
    );
}

/// What one [`striped_storm`] world leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct StripedStorm {
    trace: u64,
    switches: u64,
    /// FNV-1a over every rank's signal-table fingerprint, in rank order.
    tables: u64,
}

/// A storm whose every put stripes: 4 nodes × 2 ranks on TH-XY with 4
/// NICs per node, each rank putting 128 KiB at its ring neighbour with
/// a local and a remote signal, two windows of six puts each. The
/// fig6 and faulty locks send one stripe per put; this one pins the
/// post order, NIC choice and timing of multi-stripe puts on both
/// routes.
fn striped_storm(seed: u64, reliability: Reliability) -> StripedStorm {
    const MSG: usize = 128 * 1024;
    const PUTS: i64 = 6;
    let mut cfg = Platform::th_xy().fabric_config(4, 2);
    cfg.nics_per_node = 4;
    cfg.seed = seed;
    cfg.trace = true;
    let fab = Fabric::new(cfg);
    let ucfg = UnrConfig {
        reliability,
        ..UnrConfig::default()
    };
    let tables = run_mpi_on_fabric(&fab, MpiConfig::default(), move |comm| {
        let unr = Unr::init(comm.ep_shared(), ucfg);
        let (me, n) = (comm.rank(), comm.size());
        let (src, dst) = ((me + n - 1) % n, (me + 1) % n);
        let mem = unr.mem_reg(2 * MSG);
        let sent = unr.sig_init(PUTS);
        let arrived = unr.sig_init(PUTS);
        let recv = unr.blk_init(&mem, MSG, MSG, Some(&arrived));
        convert::send_blk(comm, src, 11, &recv);
        let rmt = convert::recv_blk(comm, dst, 11);
        let send = unr.blk_init(&mem, 0, MSG, Some(&sent));
        for window in 0..2u8 {
            let byte = |i: usize, rank: usize| (i as u8) ^ (rank as u8) ^ window.wrapping_mul(77);
            let pattern: Vec<u8> = (0..MSG).map(|i| byte(i, me)).collect();
            mem.write_bytes(0, &pattern);
            for _ in 0..PUTS {
                unr.put(&send, &rmt).unwrap();
            }
            unr.sig_wait(&sent).unwrap();
            unr.sig_wait(&arrived).unwrap();
            let mut got = vec![0u8; MSG];
            mem.read_bytes(MSG, &mut got);
            assert!(got.iter().enumerate().all(|(i, &b)| b == byte(i, src)));
            unr.sig_reset(&sent).unwrap();
            unr.sig_reset(&arrived).unwrap();
            coll::barrier(comm);
        }
        let subs = unr.stats().sub_messages.load(Ordering::Relaxed);
        assert_eq!(subs, 2 * 4 * PUTS as u64, "every put is four stripes");
        unr.table_fingerprint()
    });
    let label = format!("striped_storm_{seed}_{reliability:?}");
    let switches = fab
        .obs
        .metrics
        .snapshot()
        .counter("simnet.sched.switches")
        .unwrap();
    if std::env::var("UNR_PRINT_TRACE_HASH").is_ok() {
        println!("SWITCHES {label} = {switches}");
    }
    let bytes: Vec<u8> = tables.iter().flat_map(|t| t.to_le_bytes()).collect();
    StripedStorm {
        trace: trace_hash(&fab, &label),
        switches,
        tables: fnv1a(&bytes),
    }
}

const GOLDEN_STRIPED: [(u64, Reliability, StripedStorm); 4] = [
    (
        1,
        Reliability::On,
        StripedStorm {
            trace: 0xd0d898d03f1b3f7c,
            switches: 1572,
            tables: 0x80d1702aaf516cb5,
        },
    ),
    (
        1,
        Reliability::Off,
        StripedStorm {
            trace: 0xbc141a9877d5d609,
            switches: 1544,
            tables: 0x80d1702aaf516cb5,
        },
    ),
    (
        11,
        Reliability::On,
        StripedStorm {
            trace: 0x43104f0d15ad6bb6,
            switches: 1583,
            tables: 0x80d1702aaf516cb5,
        },
    ),
    (
        11,
        Reliability::Off,
        StripedStorm {
            trace: 0x78465e5775ccec48,
            switches: 1537,
            tables: 0x80d1702aaf516cb5,
        },
    ),
];

#[test]
fn golden_striped_storm_is_stable() {
    for (seed, reliability, want) in GOLDEN_STRIPED {
        let got = striped_storm(seed, reliability);
        assert_eq!(got, want, "seed {seed}, {reliability:?}");
    }
}

/// A raw striped put returns with every stripe posted: the caller's
/// code right after it sees the world at its own clock. A 4×2-rank,
/// 4-NIC ring of raw 128 KiB puts with remote signals, where each rank,
/// right after every put, reads its arrival signal (`counter`, `test`)
/// and writes a marker byte where its neighbour's puts land, then
/// enters the scheduler at that same clock (`Unr::now`) and reads both
/// again. Everything due at or before the clock has run by then, so
/// the two readings agree: no arrival earlier in virtual time may slip
/// in behind the caller's reads and write.
#[test]
fn a_raw_striped_put_returns_with_the_world_at_its_callers_clock() {
    const MSG: usize = 128 * 1024;
    const PUTS: i64 = 8;
    for seed in [1, 11] {
        let mut cfg = Platform::th_xy().fabric_config(4, 2);
        cfg.nics_per_node = 4;
        cfg.seed = seed;
        let fab = Fabric::new(cfg);
        let ucfg = UnrConfig {
            reliability: Reliability::Off,
            ..UnrConfig::default()
        };
        let stale = run_mpi_on_fabric(&fab, MpiConfig::default(), move |comm| {
            let unr = Unr::init(comm.ep_shared(), ucfg);
            let (me, n) = (comm.rank(), comm.size());
            let (src, dst) = ((me + n - 1) % n, (me + 1) % n);
            let mem = unr.mem_reg(2 * MSG);
            let arrived = unr.sig_init(PUTS);
            let recv = unr.blk_init(&mem, MSG, MSG, Some(&arrived));
            convert::send_blk(comm, src, 11, &recv);
            let rmt = convert::recv_blk(comm, dst, 11);
            let send = unr.blk_init(&mem, 0, MSG, None);
            mem.write_bytes(0, &vec![me as u8; MSG]);
            // Not a byte any put carries.
            let marker = 0xA5;
            let mut stale = 0;
            for _ in 0..3 {
                coll::barrier(comm);
                for _ in 0..PUTS {
                    unr.put(&send, &rmt).unwrap();
                    let seen = (arrived.counter(), arrived.test());
                    mem.write_bytes(MSG, &[marker]);
                    unr.now();
                    let mut kept = [0u8];
                    mem.read_bytes(MSG, &mut kept);
                    let now = (arrived.counter(), arrived.test());
                    stale += usize::from(seen != now) + usize::from(kept[0] != marker);
                }
                unr.sig_wait(&arrived).unwrap();
                unr.sig_reset(&arrived).unwrap();
            }
            let subs = unr.stats().sub_messages.load(Ordering::Relaxed);
            assert_eq!(subs, 3 * 4 * PUTS as u64, "every put is four stripes");
            stale
        });
        assert_eq!(stale, vec![0; 8], "seed {seed}: stale reads per rank");
    }
}
