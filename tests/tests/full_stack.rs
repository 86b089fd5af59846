//! Cross-crate integration: the full stack from the simulated fabric up
//! through mini-MPI, UNR and the mini-PowerLLEL solver.

use std::sync::Arc;

use unr_core::{convert, ChannelSelect, Unr, UnrConfig};
use unr_minimpi::{run_mpi_world, Comm};
use unr_powerllel::{Backend, Solver, SolverConfig};
use unr_simnet::{FabricConfig, InterfaceKind, InterfaceSpec, Platform};

/// Same seed, same program → bit-identical virtual timings and results
/// (the determinism guarantee everything else relies on).
#[test]
fn simulation_is_deterministic() {
    let run = || {
        let mut cfg = Platform::th_xy().fabric_config(2, 2);
        cfg.seed = 777;
        run_mpi_world(cfg, |comm| {
            let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
            let mem = unr.mem_reg(1 << 20);
            let sig = unr.sig_init(1);
            let me = comm.rank();
            let peer = me ^ 2; // cross-node pairs
            let recv_blk = unr.blk_init(&mem, 0, 1 << 20, Some(&sig));
            let send_blk = unr.blk_init(&mem, 0, 1 << 20, None);
            let remote = convert::exchange_blk(comm, peer, 0, &recv_blk);
            for _ in 0..5 {
                if me < 2 {
                    unr.put(&send_blk, &remote).unwrap();
                    unr.sig_wait(&sig).unwrap();
                    sig.reset().unwrap();
                } else {
                    unr.sig_wait(&sig).unwrap();
                    sig.reset().unwrap();
                    unr.put(&send_blk, &remote).unwrap();
                }
            }
            comm.ep().now()
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "virtual timings must be bit-identical across runs");
}

/// The same PowerLLEL program produces the same physics on every
/// platform and channel (portability: paper §VI-A "no change is needed
/// for the application code").
#[test]
fn portability_same_physics_everywhere() {
    let run = |iface: InterfaceKind, select: ChannelSelect| -> f64 {
        let mut cfg = FabricConfig::test_default(4);
        cfg.iface = InterfaceSpec::lookup(iface);
        let results = run_mpi_world(cfg, move |comm| {
            let unr = Unr::init(
                comm.ep_shared(),
                UnrConfig {
                    channel: select,
                    n_bits: 8,
                    ..UnrConfig::default()
                },
            );
            let backend = Backend::Unr(unr);
            let mut s = Solver::new(&backend, comm, SolverConfig::small(2, 2));
            s.init_taylor_green();
            s.step();
            s.kinetic_energy()
        });
        results[0]
    };
    let reference = run(InterfaceKind::Glex, ChannelSelect::Auto);
    for (iface, select) in [
        (InterfaceKind::Verbs, ChannelSelect::Auto),
        (InterfaceKind::Verbs, ChannelSelect::Mode2 { key_bits: 16 }),
        (InterfaceKind::Utofu, ChannelSelect::Auto),
        (InterfaceKind::Glex, ChannelSelect::ForceLevel0),
        (InterfaceKind::MpiOnly, ChannelSelect::Auto),
        (InterfaceKind::Glex, ChannelSelect::ForceFallback),
    ] {
        let ke = run(iface, select);
        assert!(
            (ke - reference).abs() <= 1e-12 * reference,
            "{iface:?}/{select:?}: KE {ke} differs from reference {reference}"
        );
    }
}

/// Level-4 hardware mode runs the full app without any polling agent.
#[test]
fn level4_runs_powerllel_without_polling_thread() {
    let mut cfg = FabricConfig::test_default(4);
    cfg.iface = cfg.iface.with_hardware_atomic_add();
    let results = run_mpi_world(cfg, |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        assert!(matches!(
            unr.progress_mode(),
            unr_core::ProgressMode::Hardware
        ));
        let backend = Backend::Unr(Arc::clone(&unr));
        let mut s = Solver::new(&backend, comm, SolverConfig::small(2, 2));
        s.init_taylor_green();
        s.step();
        (s.global_div_max(), s.kinetic_energy())
    });
    let (div, ke) = results[0];
    assert!(div.is_finite() && ke.is_finite() && ke > 0.0);
}

/// UNR beats the bulk-synchronous MPI baseline on a latency-bound
/// producer-consumer loop (the headline claim, end to end).
#[test]
fn unr_faster_than_two_sided_on_pingpong() {
    let results = run_mpi_world(FabricConfig::test_default(2), |comm| {
        let iters = 30;
        let size = 1024;
        let me = comm.rank();
        let peer = 1 - me;
        // Two-sided.
        let t0 = comm.ep().now();
        for _ in 0..iters {
            if me == 0 {
                comm.send(peer, 0, &vec![0u8; size]);
                comm.recv(Some(peer), 0);
            } else {
                comm.recv(Some(peer), 0);
                comm.send(peer, 0, &vec![0u8; size]);
            }
        }
        let two_sided = comm.ep().now() - t0;
        // UNR.
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(size);
        let sig = unr.sig_init(1);
        let recv_blk = unr.blk_init(&mem, 0, size, Some(&sig));
        let send_blk = unr.blk_init(&mem, 0, size, None);
        let remote = convert::exchange_blk(comm, peer, 0, &recv_blk);
        let t1 = comm.ep().now();
        for _ in 0..iters {
            if me == 0 {
                unr.put(&send_blk, &remote).unwrap();
                unr.sig_wait(&sig).unwrap();
                sig.reset().unwrap();
            } else {
                unr.sig_wait(&sig).unwrap();
                sig.reset().unwrap();
                unr.put(&send_blk, &remote).unwrap();
            }
        }
        let unr_time = comm.ep().now() - t1;
        (two_sided, unr_time)
    });
    let (two_sided, unr_time) = results[0];
    assert!(
        unr_time < two_sided,
        "UNR ping-pong ({unr_time} ns) must beat two-sided ({two_sided} ns)"
    );
}

/// Fabric statistics reflect actual traffic (cross-layer accounting).
#[test]
fn fabric_stats_account_traffic() {
    let fabric = unr_simnet::Fabric::new(FabricConfig::test_default(2));
    unr_minimpi::run_mpi_on_fabric(&fabric, unr_minimpi::MpiConfig::default(), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(4096);
        if comm.rank() == 0 {
            let blk = unr.blk_init(&mem, 0, 4096, None);
            let rmt = convert::recv_blk(comm, 1, 0);
            unr.put(&blk, &rmt).unwrap();
            unr.sleep(unr_simnet::us(50.0));
        } else {
            let sig = unr.sig_init(1);
            let blk = unr.blk_init(&mem, 0, 4096, Some(&sig));
            convert::send_blk(comm, 0, 0, &blk);
            unr.sig_wait(&sig).unwrap();
        }
    });
    let snap = fabric.obs.metrics.snapshot();
    let counter = |name| snap.counter(name).unwrap();
    assert!(counter("simnet.fabric.puts") >= 1);
    assert!(counter("simnet.fabric.bytes_put") >= 4096);
    assert!(counter("simnet.fabric.dgrams") >= 1);
    assert_eq!(counter("simnet.fabric.lost_writes"), 0);
}

/// Sub-communicators, windows and UNR coexist on the same fabric.
#[test]
fn mixed_mpi_rma_and_unr_traffic() {
    let results = run_mpi_world(FabricConfig::test_default(4), |comm: &Comm| {
        // MPI-RMA window traffic...
        let win = unr_minimpi::Win::create(comm, 64, 9);
        win.fence();
        if comm.rank() == 0 {
            win.put(b"window", 1, 0);
        }
        win.fence();
        // ... alongside UNR puts in a sub-communicator.
        let color = (comm.rank() % 2) as u32;
        let sub = comm.split(color, comm.rank() as i32);
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(64);
        let peer = 1 - sub.rank();
        let sig = unr.sig_init(1);
        let recv_blk = unr.blk_init(&mem, 0, 8, Some(&sig));
        let send_blk = unr.blk_init(&mem, 8, 8, None);
        let remote = convert::exchange_blk(&sub, peer, 1, &recv_blk);
        mem.write_bytes(8, &[sub.rank() as u8 + 1; 8]);
        unr.put(&send_blk, &remote).unwrap();
        unr.sig_wait(&sig).unwrap();
        let mut got = [0u8; 8];
        mem.read_bytes(0, &mut got);
        got[0]
    });
    // Each rank received its sub-comm peer's value.
    assert_eq!(results, vec![2, 2, 1, 1]);
}
