//! The self-healing transport under seeded fault injection: every byte
//! still lands, every signal still fires, MMAS accounting stays exact,
//! and a fault-free run is byte-identical to one without the fault
//! layer compiled in at all.
//!
//! All faults are scoped to [`UNR_PORT`] datagrams (plus PUT
//! deliveries, which are always in scope), so mini-MPI's own control
//! traffic stays lossless — it plays the role of the reliable
//! out-of-band channel the paper assumes for rendezvous.

use std::panic::{catch_unwind, AssertUnwindSafe};

use unr_core::{convert, wire, Epoch, PeerFailedCause, Unr, UnrConfig, UnrError, UNR_PORT};
use unr_integration::run_cases;
use unr_minimpi::{run_mpi_on_fabric, MpiConfig};
use unr_obs::Snapshot;
use unr_powerllel::{Backend, Solver, SolverConfig};
use unr_simnet::{us, Fabric, FaultConfig, FlapConfig, NicSel, Platform};

/// Faults scoped so only the UNR protocol is exposed to them.
fn unr_scoped(mut faults: FaultConfig) -> FaultConfig {
    faults.dgram_ports = Some(vec![UNR_PORT]);
    faults
}

/// Ping-pong `sizes` bytes from rank 0 into rank 1 under `faults`,
/// verifying content on the receiver. Returns the fabric for metric
/// inspection.
fn lossy_pingpong(faults: FaultConfig, sizes: Vec<usize>, ucfg: UnrConfig) -> std::sync::Arc<Fabric> {
    let mut cfg = Platform::th_xy().fabric_config(2, 1);
    let expect_reliable = faults.enabled();
    cfg.faults = faults;
    let fabric = Fabric::new(cfg);
    run_mpi_on_fabric(&fabric, MpiConfig::default(), move |comm| {
        let unr = Unr::init(comm.ep_shared(), ucfg);
        assert_eq!(
            unr.reliable(),
            expect_reliable,
            "reliability must auto-track fault injection"
        );
        // Each round gets its own slice of the region: a late
        // retransmission of round N must not be able to scribble over
        // round N+1's bytes (reusing a buffer before the transport-level
        // ack is a race on real RDMA NICs too).
        let offsets: Vec<usize> = sizes
            .iter()
            .scan(0usize, |acc, &s| {
                let o = *acc;
                *acc += s;
                Some(o)
            })
            .collect();
        let cap = sizes.iter().sum::<usize>().max(64);
        let mem = unr.mem_reg(cap);
        if comm.rank() == 0 {
            let full_rmt = convert::recv_blk(comm, 1, 0);
            for (it, (&size, &off)) in sizes.iter().zip(&offsets).enumerate() {
                let pattern: Vec<u8> = (0..size).map(|i| (i ^ (it * 31)) as u8).collect();
                mem.write_bytes(off, &pattern);
                let blk = unr.blk_init(&mem, off, size, None);
                let mut rmt = full_rmt;
                rmt.offset = off;
                rmt.len = size;
                unr.put(&blk, &rmt).unwrap();
                comm.recv(Some(1), 7); // receiver verified this round
            }
            // Drain outstanding retransmissions before tearing down.
            for _ in 0..10_000 {
                if unr.retries_in_flight() == 0 {
                    break;
                }
                unr.ep().sleep(us(50.0));
            }
            assert_eq!(unr.retries_in_flight(), 0, "acks must drain");
            comm.send(1, 8, &[]); // release the receiver
        } else {
            let sig = unr.sig_init(1);
            let recv_blk = unr.blk_init(&mem, 0, cap, Some(&sig));
            convert::send_blk(comm, 0, 0, &recv_blk);
            for (it, (&size, &off)) in sizes.iter().zip(&offsets).enumerate() {
                unr.sig_wait(&sig).unwrap();
                assert!(!sig.overflowed());
                sig.reset().unwrap();
                let mut got = vec![0u8; size];
                mem.read_bytes(off, &mut got);
                for (i, &b) in got.iter().enumerate() {
                    assert_eq!(
                        b,
                        (i ^ (it * 31)) as u8,
                        "byte {i} of round {it} corrupted"
                    );
                }
                comm.send(0, 7, &[]);
            }
            comm.recv(Some(0), 8); // keep acking until the sender drained
        }
    });
    fabric
}

/// Property: a few percent of dropped sub-messages must be invisible
/// above the transport — every byte delivered, every signal fired,
/// MMAS residue zero — with the retry path demonstrably exercised.
#[test]
fn fault_drop_still_delivers_every_byte_and_signal() {
    let (mut dropped, mut retransmits, mut acks) = (0u64, 0u64, 0u64);
    run_cases("fault_drop_delivery", 4, |g| {
        let sizes = g.vec(12..20, |g| g.usize_in(1 << 10, 96 << 10));
        let faults = unr_scoped(FaultConfig {
            seed: g.u64(),
            ..FaultConfig::drops(0.05)
        });
        let fabric = lossy_pingpong(faults, sizes, UnrConfig::default());
        let snap = fabric.obs.metrics.snapshot();
        assert_eq!(snap.counter("unr.signal.overflow_trips"), Some(0));
        assert_eq!(snap.counter("unr.signal.reset_errors"), Some(0));
        assert_eq!(snap.counter("unr.retry.exhausted"), Some(0));
        dropped += snap.counter("simnet.fault.dropped").unwrap_or(0);
        retransmits += snap.counter("unr.retry.retransmits").unwrap_or(0);
        acks += snap.counter("unr.retry.acks").unwrap_or(0);
    });
    assert!(dropped > 0, "the seeds above must actually drop something");
    assert!(retransmits > 0, "drops must be repaired by retransmission");
    assert!(acks > 0, "delivery must be acknowledged");
}

/// Duplicated sub-messages must never double-increment an MMAS counter:
/// the dedup window swallows the copy and the signal still fires with
/// an exact residue.
#[test]
fn fault_duplicates_never_double_increment_mmas() {
    let faults = unr_scoped(FaultConfig {
        dup_prob: 1.0,
        ..FaultConfig::none()
    });
    let sizes = vec![4 << 10, 96 << 10, 1 << 10, 32 << 10];
    let fabric = lossy_pingpong(faults, sizes, UnrConfig::default());
    let snap = fabric.obs.metrics.snapshot();
    assert!(snap.counter("simnet.fault.duplicated").unwrap() > 0);
    assert!(
        snap.counter("unr.retry.dup_suppressed").unwrap() > 0,
        "every duplicate must be caught by the dedup window"
    );
    assert_eq!(snap.counter("unr.signal.overflow_trips"), Some(0));
    assert_eq!(snap.counter("unr.signal.reset_errors"), Some(0));
}

/// NIC flap windows on a dual-NIC node: retransmissions rotate to the
/// surviving NIC and traffic keeps flowing.
#[test]
fn fault_nic_flap_fails_over_to_surviving_nic() {
    let faults = unr_scoped(FaultConfig {
        flap: Some(FlapConfig {
            period: 200_000,
            down: 100_000,
        }),
        ..FaultConfig::none()
    });
    let sizes = vec![96 << 10; 12];
    let fabric = lossy_pingpong(faults, sizes, UnrConfig::default());
    let snap = fabric.obs.metrics.snapshot();
    assert!(snap.counter("simnet.fault.flap_dropped").unwrap() > 0);
    assert!(snap.counter("unr.retry.retransmits").unwrap() > 0);
    assert!(
        snap.counter("unr.failover.nic_rotations").unwrap() > 0,
        "retransmits on a dual-NIC node must rotate NICs"
    );
    assert_eq!(snap.counter("unr.signal.overflow_trips"), Some(0));
}

/// A destination that drops everything: retries escalate through NIC
/// rotation and the fallback channel, then exhaust; the failure
/// surfaces as a structured [`UnrError::PeerFailed`] naming the peer
/// and the exhaustion cause, and new work toward it is refused.
#[test]
fn fault_total_loss_exhausts_and_surfaces_peer_failed() {
    let mut cfg = Platform::th_xy().fabric_config(2, 1);
    cfg.faults = unr_scoped(FaultConfig::drops(1.0));
    let fabric = Fabric::new(cfg);
    let ucfg = UnrConfig::builder()
        .timeout(5_000)
        .max_backoff(40_000)
        .max_retries(4)
        .fallback_after(2)
        .build()
        .unwrap();
    run_mpi_on_fabric(&fabric, MpiConfig::default(), move |comm| {
        let unr = Unr::init(comm.ep_shared(), ucfg);
        let mem = unr.mem_reg(4096);
        if comm.rank() == 0 {
            let sig = unr.sig_init(1); // will never fire: everything drops
            let _guard = unr.blk_init(&mem, 0, 4096, Some(&sig));
            let blk = unr.blk_init(&mem, 0, 4096, None);
            let rmt = convert::recv_blk(comm, 1, 0);
            unr.put(&blk, &rmt).unwrap();
            match unr.sig_wait(&sig) {
                Err(UnrError::PeerFailed {
                    rank,
                    epoch,
                    cause: PeerFailedCause::RetryExhausted { attempts },
                }) => {
                    assert_eq!(rank, 1, "the unreachable peer must be named");
                    assert_eq!(epoch, Epoch::ZERO, "no membership change happened");
                    assert!(attempts > 0);
                }
                other => panic!("expected PeerFailed/RetryExhausted, got {other:?}"),
            }
            let refused = unr.put(&blk, &rmt).unwrap_err();
            assert!(refused.is_peer_failure(), "got {refused:?}");
            comm.send(1, 8, &[]); // release the receiver
        } else {
            let blk = unr.blk_init(&mem, 0, 4096, None);
            convert::send_blk(comm, 0, 0, &blk);
            comm.recv(Some(0), 8);
        }
    });
    let snap = fabric.obs.metrics.snapshot();
    assert!(snap.counter("unr.retry.exhausted").unwrap() > 0);
    assert!(snap.counter("unr.retry.retransmits").unwrap() > 0);
    assert!(
        snap.counter("unr.failover.fallback_msgs").unwrap() > 0,
        "late retries must have rerouted through the fallback channel"
    );
    assert!(
        snap.counter("unr.failover.nic_rotations").unwrap() > 0,
        "early retries must have rotated NICs"
    );
}

/// Offsets and region ids in a control frame are a peer's choice: a
/// span that cannot land must not panic the polling agent (which
/// poisons the world), must apply no addend — for an aggregate, none of
/// its summed entries — and must still be acked, or a reliable sender
/// replays the same bad write until it gives up on a live peer. Rank 0
/// is a bare endpoint speaking the wire format at a reliable rank 1.
#[test]
fn ctrl_frames_that_cannot_land_are_counted_dropped_and_acked() {
    let fabric = Fabric::new(Platform::th_xy().fabric_config(2, 1));
    let ucfg = UnrConfig::builder()
        .reliability(unr_core::Reliability::On)
        .build()
        .unwrap();
    run_mpi_on_fabric(&fabric, MpiConfig::default(), move |comm| {
        if comm.rank() == 1 {
            let unr = Unr::init(comm.ep_shared(), ucfg);
            let mem = unr.mem_reg(64);
            let spared = unr.sig_init(4); // every bad frame aims one addend here
            let done = unr.sig_init(1);
            let blk = unr.blk_init(&mem, 0, 64, Some(&spared));
            let mut hello = blk.to_bytes().to_vec();
            hello.extend_from_slice(&done.key().raw().to_le_bytes());
            comm.send(0, 1, &hello);
            unr.sig_wait(&done).unwrap();
            unr.ep().sleep(us(200.0)); // stragglers behind the good frame
            assert_eq!(spared.counter(), 4, "an addend was applied for bytes that never landed");
            let mut landed = [0u8; 4];
            mem.read_bytes(60, &mut landed);
            assert_eq!(landed, [1; 4]);
            comm.send(0, 2, &[]);
        } else {
            let ep = comm.ep();
            let acks = ep.open_port(UNR_PORT);
            let hello = comm.recv(Some(1), 1).data;
            let blk = unr_core::Blk::from_bytes(&hello).unwrap();
            let (region, key) = (blk.region_id, blk.sig_key.raw());
            let done = u64::from_le_bytes(hello[unr_core::BLK_WIRE_LEN..].try_into().unwrap());
            let p = [7u8; 4];
            let two = [p, p].concat();
            let frames = [
                wire::seq_data_msg(0, region, 61, key, -1, &p),
                wire::seq_data_msg(1, region + 9, 0, key, -1, &p),
                wire::fallback_data_msg(region, 61, key, -1, &p),
                wire::fallback_data_msg(region + 9, 0, key, -1, &p),
                wire::agg_msg(2, true, &[(region, 0, 4), (region, 62, 4)], &[(key, -2)], &two),
                wire::agg_msg(3, true, &[(region + 9, 0, 4)], &[(key, -1)], &p),
                // In bounds, last: fires the signal rank 1 waits on.
                wire::seq_data_msg(4, region, 60, done, -1, &[1; 4]),
            ];
            for frame in frames {
                ep.send_dgram(1, UNR_PORT, frame, NicSel::Auto);
            }
            let mut acked: Vec<u64> = (0..5)
                .map(|_| match wire::CtrlMsg::parse(&ep.recv_dgram(&acks).bytes) {
                    wire::CtrlMsg::Ack { seq } => seq,
                    other => panic!("only acks come back, got {other:?}"),
                })
                .collect();
            acked.sort_unstable();
            assert_eq!(acked, [0, 1, 2, 3, 4], "every sequenced frame is acked");
            comm.recv(Some(1), 2);
        }
    });
    let snap = fabric.obs.metrics.snapshot();
    assert_eq!(snap.counter("unr.ctrl.bad_dma"), Some(6), "one per span that bounced");
    assert_eq!(snap.counter("unr.ctrl.malformed"), None);
}

/// One seeded mini-PowerLLEL step with tracing, under `faults`.
fn seeded_solver_run(faults: FaultConfig) -> (Snapshot, String, f64) {
    let mut cfg = Platform::th_xy().fabric_config(2, 2);
    cfg.trace = true;
    cfg.seed = 99;
    cfg.faults = faults;
    let fabric = Fabric::new(cfg);
    let results = run_mpi_on_fabric(&fabric, MpiConfig::default(), |comm| {
        let backend = Backend::Unr(Unr::init(comm.ep_shared(), UnrConfig::default()));
        let mut s = Solver::new(&backend, comm, SolverConfig::small(2, 2));
        s.init_taylor_green();
        s.step();
        s.kinetic_energy()
    });
    let mut events = fabric.tracer.as_ref().expect("tracing on").to_span_events();
    events.extend(fabric.obs.spans.events());
    (
        fabric.obs.metrics.snapshot(),
        unr_obs::chrome_trace_json(&events),
        results[0],
    )
}

/// With faults disabled the fault and retry layers must be completely
/// inert: no `simnet.fault.*` / `unr.retry.*` / `unr.failover.*`
/// series exist, and repeated runs stay byte-identical.
#[test]
fn fault_free_runs_carry_no_fault_series_and_stay_identical() {
    let (snap_a, trace_a, ke_a) = seeded_solver_run(FaultConfig::none());
    let (snap_b, trace_b, ke_b) = seeded_solver_run(FaultConfig::none());
    assert_eq!(snap_a, snap_b, "metrics must be bit-identical");
    assert_eq!(trace_a, trace_b, "traces must be byte-identical");
    assert_eq!(ke_a, ke_b);
    for prefix in [
        "simnet.fault.",
        "unr.retry.",
        "unr.failover.",
        "unr.epoch.",
        "unr.recovery.",
    ] {
        assert!(
            snap_a.with_prefix(prefix).next().is_none(),
            "fault-free run must not register {prefix}* series"
        );
    }
}

/// The full mini-PowerLLEL solver rides out seeded drops: physics
/// unchanged, retry path demonstrably used, MMAS residue exactly zero.
#[test]
fn fault_powerllel_step_survives_seeded_drops() {
    let (_, _, clean_ke) = seeded_solver_run(FaultConfig::none());
    let (snap, _, ke) = seeded_solver_run(unr_scoped(FaultConfig::drops(0.01)));
    assert!(snap.counter("simnet.fault.dropped").unwrap() > 0);
    assert!(
        snap.counter("unr.retry.retransmits").unwrap() > 0,
        "drops must be healed through the retry path"
    );
    assert_eq!(snap.counter("unr.retry.exhausted"), Some(0));
    assert_eq!(snap.counter("unr.signal.overflow_trips"), Some(0));
    assert_eq!(snap.counter("unr.signal.reset_errors"), Some(0));
    // Retries change timing, never physics.
    assert!(
        (ke - clean_ke).abs() <= 1e-12 * clean_ke.abs(),
        "kinetic energy must match the fault-free run: {ke} vs {clean_ke}"
    );
}

/// CI fault-matrix entry point: drop rate and seed come from the
/// environment (`UNR_FAULT_DROP`, `UNR_FAULT_SEED`), defaulting to the
/// 1% point.
#[test]
fn fault_matrix_from_env() {
    let drop: f64 = std::env::var("UNR_FAULT_DROP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.01);
    let seed: u64 = std::env::var("UNR_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let faults = unr_scoped(FaultConfig {
        seed,
        ..FaultConfig::drops(drop)
    });
    let sizes = vec![8 << 10, 96 << 10, 1 << 10, 64 << 10, 32 << 10, 2 << 10];
    let fabric = lossy_pingpong(faults, sizes, UnrConfig::default());
    let snap = fabric.obs.metrics.snapshot();
    assert_eq!(snap.counter("unr.signal.overflow_trips"), Some(0));
    assert_eq!(snap.counter("unr.signal.reset_errors"), Some(0));
    if drop == 0.0 {
        assert!(snap.with_prefix("simnet.fault.").next().is_none());
    } else if snap.counter("simnet.fault.dropped").unwrap_or(0) > 0 {
        assert!(snap.counter("unr.retry.retransmits").unwrap() > 0);
    }
}

/// Regression: a frame stamped before a rank's death, arriving after its
/// rejoin, must be fenced by the receiver — the epoch envelope is the
/// membership analogue of MMAS's stale-generation reject. The stale
/// companion would double-fire the signal if it were applied.
#[test]
fn fault_stale_epoch_frame_is_fenced_and_counted() {
    let cfg = Platform::th_xy().fabric_config(2, 1);
    let fabric = Fabric::new(cfg);
    run_mpi_on_fabric(&fabric, MpiConfig::default(), |comm| {
        let ep = comm.ep_shared();
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        if comm.rank() == 0 {
            let key = u64::from_le_bytes(comm.recv(Some(1), 3).data.try_into().unwrap());
            // Let residual mini-MPI traffic drain, then rank 1 dies and
            // immediately rejoins: epoch 0 -> 2.
            ep.sleep(us(50.0));
            ep.kill_rank(1);
            ep.revive_rank(1);
            ep.sleep(us(100.0));
            // A companion notification stamped before the death arrives
            // late (epoch-0 envelope), then its post-rejoin replacement.
            ep.send_dgram(
                1,
                UNR_PORT,
                wire::epoch_wrap(0, &wire::companion_msg(key, -1)),
                NicSel::Auto,
            );
            ep.send_dgram(
                1,
                UNR_PORT,
                wire::epoch_wrap(2, &wire::companion_msg(key, -1)),
                NicSel::Auto,
            );
            comm.recv(Some(1), 4); // rank 1 verified the fence
        } else {
            let sig = unr.sig_init(1);
            comm.send(0, 3, &sig.key().raw().to_le_bytes());
            // Only start waiting once the kill/revive pair is over, so
            // this rank's own death window never races its wait.
            ep.sleep(us(120.0));
            assert_eq!(unr.epoch().raw(), 2, "kill + revive each bump the epoch");
            unr.sig_wait(&sig).unwrap();
            // Give the fenced frame every chance to land late.
            ep.sleep(us(200.0));
            assert!(
                !sig.overflowed(),
                "the stale frame must have been fenced, not applied"
            );
            comm.send(0, 4, &[]);
        }
    });
    let snap = fabric.obs.metrics.snapshot();
    assert_eq!(
        snap.counter("unr.epoch.stale_rejects"),
        Some(1),
        "exactly the pre-kill frame is rejected"
    );
    assert!(snap.counter("unr.epoch.bumps").unwrap_or(0) >= 2);
}

/// One mini-PowerLLEL run with an optional mid-solve rank kill. The
/// victim dies at the step boundary after `kill_step` steps, survivors
/// fail fast out of their next halo exchange with [`UnrError::PeerFailed`],
/// the victim rejoins as a new incarnation, and the whole world rebuilds
/// its solver under the bumped membership epoch and redoes the solve.
/// Returns per-rank kinetic energies plus the run's metrics and trace.
fn powerllel_kill_run(kill: Option<(usize, usize)>) -> (Snapshot, String, Vec<f64>) {
    const TOTAL_STEPS: usize = 3;
    // Generous versus any step-completion skew between ranks, so the
    // kill lands while every survivor is parked at the step boundary.
    let quiet = us(1000.0);
    let mut cfg = Platform::th_xy().fabric_config(2, 2);
    cfg.trace = true;
    cfg.seed = 99;
    let fabric = Fabric::new(cfg);
    let results = run_mpi_on_fabric(&fabric, MpiConfig::default(), move |comm| {
        let ep = comm.ep_shared();
        let me = comm.rank();
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let backend = Backend::Unr(unr.clone());
        let mut solver = Solver::new(&backend, comm, SolverConfig::small(2, 2));
        solver.init_taylor_green();
        let Some((victim, kill_step)) = kill else {
            for _ in 0..TOTAL_STEPS {
                solver.step();
            }
            return solver.kinetic_energy();
        };

        for _ in 0..kill_step {
            solver.step();
        }
        // Epoch-stamped in-memory checkpoint taken at the step boundary,
        // restored after the membership bump (the Besta & Hoefler
        // in-memory-checkpoint model scoped down to one region).
        let ckpt_mem = unr.mem_reg(32);
        ckpt_mem.write_bytes(0, &[me as u8 ^ 0x5A; 32]);
        let ckpt = unr.checkpoint(&ckpt_mem);
        assert_eq!(ckpt.epoch, Epoch::ZERO);

        if me == victim {
            // Quiesce, die, stay dead long enough for every survivor to
            // observe the failure, then rejoin as generation 1.
            ep.sleep(quiet);
            ep.kill_rank(victim);
            ep.sleep(8 * quiet);
            ep.revive_rank(victim);
            ep.sleep(4 * quiet);
        } else {
            ep.sleep(2 * quiet);
            // The victim is dead: the next halo exchange must fail fast
            // with PeerFailed instead of deadlocking virtual time. The
            // solver surfaces it as a panic on its internal expects.
            let aborted = catch_unwind(AssertUnwindSafe(|| solver.step()));
            assert!(
                aborted.is_err(),
                "rank {me}: step against a dead peer must fail"
            );
            assert_eq!(unr.epoch().raw(), 1, "kill observed, rejoin not yet");
            // Outlive any in-flight survivor-to-survivor puts of the
            // aborted step before tearing the old solver down.
            ep.sleep(10 * quiet);
        }
        let view = unr.membership_view();
        assert_eq!(unr.epoch().raw(), 2);
        assert!(view.is_live(victim));
        assert_eq!(view.generation[victim], 1, "rejoin is a new incarnation");
        ckpt_mem.write_bytes(0, &[0; 32]); // the "lost" state
        unr.restore(&ckpt_mem, &ckpt);
        let mut back = [0u8; 32];
        ckpt_mem.read_bytes(0, &mut back);
        assert_eq!(back, [me as u8 ^ 0x5A; 32], "checkpoint restores bytes");

        // Rebuild under epoch 2 and redo the solve from the last global
        // checkpoint (step 0 here). Residuals must match a fault-free run.
        drop(solver);
        let mut solver = Solver::new(&backend, comm, SolverConfig::small(2, 2));
        solver.init_taylor_green();
        for _ in 0..TOTAL_STEPS {
            solver.step();
        }
        solver.kinetic_energy()
    });
    let mut events = fabric.tracer.as_ref().expect("tracing on").to_span_events();
    events.extend(fabric.obs.spans.events());
    (
        fabric.obs.metrics.snapshot(),
        unr_obs::chrome_trace_json(&events),
        results,
    )
}

/// Tier-1 recovery demo: mini-PowerLLEL completes with correct physics
/// after a rank dies mid-solve and rejoins.
#[test]
fn fault_powerllel_recovers_after_rank_kill() {
    let (_, _, ke_ref) = powerllel_kill_run(None);
    let (snap, _, ke) = powerllel_kill_run(Some((1, 1)));
    for (r, (a, b)) in ke.iter().zip(&ke_ref).enumerate() {
        assert!(
            (a - b).abs() <= 1e-12 * b.abs(),
            "rank {r}: post-recovery kinetic energy {a} vs fault-free {b}"
        );
    }
    assert!(
        snap.counter("unr.recovery.peer_failures").unwrap_or(0) > 0,
        "survivors must have failed fast on the dead peer"
    );
    assert!(snap.counter("unr.epoch.bumps").unwrap_or(0) >= 2);
    assert_eq!(
        snap.counter("unr.epoch.stale_rejects").unwrap_or(0),
        0,
        "the quiesced kill leaves no stale frames to fence"
    );
}

/// Property: a seeded run with a mid-solve rank kill is byte-identical
/// across reruns — recovery is part of the deterministic replay story,
/// not an escape from it.
#[test]
fn fault_kill_mid_epoch_is_deterministic() {
    let (snap_a, trace_a, ke_a) = powerllel_kill_run(Some((1, 1)));
    let (snap_b, trace_b, ke_b) = powerllel_kill_run(Some((1, 1)));
    assert_eq!(snap_a, snap_b, "metrics must be bit-identical");
    assert_eq!(trace_a, trace_b, "traces must be byte-identical");
    assert_eq!(ke_a, ke_b, "physics must be bit-identical");
}

/// CI fault-matrix entry point for the kill axis: victim rank and kill
/// step come from the environment (`UNR_FAULT_KILL_RANK`,
/// `UNR_FAULT_KILL_STEP`), defaulting to rank 1 at step 1.
#[test]
fn fault_kill_matrix_from_env() {
    let (_, _, ke_ref) = powerllel_kill_run(None);
    let victim: usize = std::env::var("UNR_FAULT_KILL_RANK")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        % ke_ref.len();
    let kill_step: usize = std::env::var("UNR_FAULT_KILL_STEP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .clamp(1, 2);
    let (snap, _, ke) = powerllel_kill_run(Some((victim, kill_step)));
    for (a, b) in ke.iter().zip(&ke_ref) {
        assert!((a - b).abs() <= 1e-12 * b.abs(), "{a} vs {b}");
    }
    assert!(snap.counter("unr.recovery.peer_failures").unwrap_or(0) > 0);
    assert_eq!(snap.counter("unr.retry.exhausted"), None);
}
