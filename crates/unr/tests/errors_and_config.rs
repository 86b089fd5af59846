//! Error paths and configuration knobs of the UNR engine.

use std::sync::atomic::Ordering;

use unr_core::{
    convert, Blk, ChannelSelect, ProgressMode, RecoveryPolicy, Reliability, Unr, UnrConfig,
    UnrError,
};
use unr_minimpi::run_mpi_world;
use unr_simnet::{FabricConfig, InterfaceKind, InterfaceSpec, Platform};

fn fabric(iface: InterfaceKind, nodes: usize) -> FabricConfig {
    let mut cfg = FabricConfig::test_default(nodes);
    cfg.iface = InterfaceSpec::lookup(iface);
    cfg
}

#[test]
fn put_rejects_foreign_local_block() {
    let results = run_mpi_world(fabric(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(64);
        let mut blk = unr.blk_init(&mem, 0, 8, None);
        blk.rank = 1 - comm.rank(); // pretend it belongs to the peer
        matches!(unr.put(&blk, &blk), Err(UnrError::NotMyBlock { .. }))
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn put_rejects_length_mismatch() {
    let results = run_mpi_world(fabric(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(64);
        let a = unr.blk_init(&mem, 0, 8, None);
        let mut b = unr.blk_init(&mem, 0, 16, None);
        b.rank = 1 - comm.rank();
        matches!(unr.put(&a, &b), Err(UnrError::LenMismatch { .. }))
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn put_rejects_unknown_region() {
    let results = run_mpi_world(fabric(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let fake = Blk {
            rank: comm.rank(),
            region_id: 4242,
            region_len: 64,
            offset: 0,
            len: 8,
            sig_key: unr_core::SigKey::NULL,
        };
        matches!(unr.put(&fake, &fake), Err(UnrError::RegionUnknown(4242)))
    });
    assert!(results.into_iter().all(|b| b));
}

/// A region deregistered on the fabric is gone for the engine too: a
/// put from it is refused as unknown instead of sending from a stale
/// handle.
#[test]
fn put_from_a_deregistered_region_is_refused() {
    let results = run_mpi_world(fabric(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(64);
        let local = mem.blk(0, 8, None);
        let remote = Blk {
            rank: 1 - comm.rank(),
            ..local
        };
        comm.ep().deregister(mem.region());
        let refused = unr.put(&local, &remote);
        let sent = unr.stats().sub_messages.load(Ordering::Relaxed);
        unr.finalize();
        matches!(refused, Err(UnrError::RegionUnknown(id)) if id == local.region_id) && sent == 0
    });
    assert!(results.into_iter().all(|b| b));
}

/// A reliable put into a region its target deregistered after the
/// `Blk` exchange: the sequenced frame's bytes cannot land, so its
/// addend is dropped and the frame is still acked. One
/// `unr.ctrl.bad_dma`, a remote signal that never fires, and no
/// retransmission on a fabric that drops nothing. The fallback channel
/// carries the bytes in the frame, so the receive side's region lookup
/// is the one that refuses them.
#[test]
fn a_reliable_put_into_a_deregistered_region_is_acked_not_applied() {
    assert_eq!(
        put_into_a_deregistered_region(ChannelSelect::ForceFallback),
        [true, true]
    );
}

/// The same on GLEX's own RMA route: the fabric cannot land the bytes
/// (one `simnet.fabric.lost_writes`), so the sequenced companion that
/// rides behind them arrives marked lost, and the receiver acks it and
/// applies nothing.
#[test]
fn a_reliable_rma_put_into_a_deregistered_region_is_acked_not_applied() {
    assert_eq!(
        put_into_a_deregistered_region(ChannelSelect::Auto),
        [true, true]
    );
}

/// Rank 1 publishes a notified block and deregisters its region; rank 0
/// puts into it reliably over `channel`. Each rank reports whether it
/// saw what a write that cannot land must leave behind.
fn put_into_a_deregistered_region(channel: ChannelSelect) -> Vec<bool> {
    let cfg = UnrConfig {
        channel,
        reliability: Reliability::On,
        ..UnrConfig::default()
    };
    let rma = channel == ChannelSelect::Auto;
    run_mpi_world(fabric(InterfaceKind::Glex, 2), move |comm| {
        let unr = Unr::init(comm.ep_shared(), cfg);
        let mem = unr.mem_reg(64);
        let metric = |name| unr.obs().metrics.counter(name).get();
        if comm.rank() == 1 {
            let sig = unr.sig_init(1);
            convert::send_blk(comm, 0, 0, &unr.blk_init(&mem, 0, 8, Some(&sig)));
            comm.ep().deregister(mem.region());
            comm.send(0, 1, &[]);
            let waited = unr.sig_wait_timeout(&sig, 500_000);
            return matches!(waited, Err(UnrError::Timeout { .. })) && sig.counter() == 1;
        }
        let remote = convert::recv_blk(comm, 1, 0);
        comm.recv(Some(1), 1);
        unr.put(&unr.blk_init(&mem, 0, 8, None), &remote).unwrap();
        unr.sleep(600_000);
        metric("unr.ctrl.bad_dma") == 1
            && metric("unr.retry.acks") == 1
            && metric("unr.retry.retransmits") == 0
            && metric("simnet.fabric.lost_writes") == u64::from(rma)
    })
}

/// Bring-up validates on the simulator as on netfab: a struct-literal
/// config that `build()` would reject does not run.
#[test]
#[should_panic(expected = "invalid config: recovery: Respawn needs the reliable transport")]
fn init_refuses_a_config_build_would_reject() {
    let cfg = UnrConfig {
        reliability: Reliability::Off,
        recovery: RecoveryPolicy::Respawn {
            max_attempts: 1,
            rejoin_timeout: 1_000,
        },
        ..UnrConfig::default()
    };
    run_mpi_world(fabric(InterfaceKind::Glex, 1), move |comm| {
        Unr::init(comm.ep_shared(), cfg);
    });
}

#[test]
fn blk_init_rejects_out_of_region_block() {
    let results = run_mpi_world(fabric(InterfaceKind::Glex, 1), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(64);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = unr.blk_init(&mem, 60, 16, None);
        }))
        .is_err()
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn pinned_nic_is_honored() {
    // With pin_nic = 1 on a dual-NIC node, traffic must leave NIC 1.
    // We observe it through determinism: a pinned run differs from a
    // round-robin run (the RR run alternates and overlaps two NICs).
    let run = |pin: Option<usize>| -> u64 {
        let mut cfg = Platform::th_xy().fabric_config(2, 1);
        cfg.nic.jitter_frac = 0.0;
        let results = run_mpi_world(cfg, move |comm| {
            let unr = Unr::init(
                comm.ep_shared(),
                UnrConfig {
                    pin_nic: pin,
                    stripe_threshold: usize::MAX,
                    ..UnrConfig::default()
                },
            );
            let mem = unr.mem_reg(256 * 1024);
            if comm.rank() == 0 {
                let blk = unr.blk_init(&mem, 0, 256 * 1024, None);
                let rmt = convert::recv_blk(comm, 1, 0);
                // Two back-to-back puts: pinned -> same NIC (serialized),
                // round-robin -> two NICs (overlapped).
                unr.put(&blk, &rmt).unwrap();
                unr.put(&blk, &rmt).unwrap();
                comm.recv(Some(1), 1);
                comm.ep().now()
            } else {
                let sig = unr.sig_init(2);
                let blk = unr.blk_init(&mem, 0, 256 * 1024, Some(&sig));
                convert::send_blk(comm, 0, 0, &blk);
                unr.sig_wait(&sig).unwrap();
                comm.send(0, 1, &[]);
                0
            }
        });
        results[0]
    };
    let pinned = run(Some(0));
    let rr = run(None);
    assert!(
        rr < pinned,
        "round-robin over two NICs ({rr}) must beat a pinned NIC ({pinned})"
    );
}

#[test]
fn user_driven_progress_handles_get() {
    let results = run_mpi_world(fabric(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(
            comm.ep_shared(),
            UnrConfig {
                progress: Some(ProgressMode::UserDriven),
                ..UnrConfig::default()
            },
        );
        let mem = unr.mem_reg(64);
        if comm.rank() == 0 {
            mem.write_bytes(0, b"gotcha!!");
            let sig = unr.sig_init(1);
            let blk = unr.blk_init(&mem, 0, 8, Some(&sig));
            convert::send_blk(comm, 1, 0, &blk);
            unr.sig_wait(&sig).unwrap(); // remote GET notification
            true
        } else {
            let sig = unr.sig_init(1);
            let local = unr.blk_init(&mem, 0, 8, Some(&sig));
            let remote = convert::recv_blk(comm, 0, 0);
            unr.get(&local, &remote).unwrap();
            unr.sig_wait(&sig).unwrap();
            let mut b = [0u8; 8];
            mem.read_bytes(0, &mut b);
            b == *b"gotcha!!"
        }
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn level1_signal_capacity_is_enforced() {
    // uTofu: 8-bit keys -> at most 255 live signals can ride the wire.
    let results = run_mpi_world(fabric(InterfaceKind::Utofu, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(64);
        // Allocate signals past the 8-bit key space; the put that tries
        // to encode an oversized key must fail rather than truncate.
        let sigs: Vec<_> = (0..300).map(|_| unr.sig_init(1)).collect();
        let big = &sigs[299];
        assert!(big.key().raw() > 255);
        if comm.rank() == 0 {
            let blk = unr.blk_init(&mem, 0, 8, None);
            let mut rmt = unr.blk_init(&mem, 0, 8, Some(big));
            rmt.rank = 1;
            matches!(unr.put(&blk, &rmt), Err(UnrError::Encode(_)))
        } else {
            true
        }
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn mode2_striping_respects_addend_range() {
    // Verbs mode 2 with a tiny addend field: striping must silently fall
    // back to one sub-message rather than corrupt the counter.
    let mut cfg = Platform::th_xy().fabric_config(2, 1);
    cfg.iface = InterfaceSpec::lookup(InterfaceKind::Verbs);
    let results = run_mpi_world(cfg, |comm| {
        let unr = Unr::init(
            comm.ep_shared(),
            UnrConfig {
                channel: ChannelSelect::Mode2 { key_bits: 28 }, // 4 addend bits
                n_bits: 8,
                stripe_threshold: 1,
                max_stripes: 2,
                ..UnrConfig::default()
            },
        );
        let len = 1 << 20;
        let mem = unr.mem_reg(len);
        if comm.rank() == 0 {
            let blk = unr.blk_init(&mem, 0, len, None);
            let rmt = convert::recv_blk(comm, 1, 0);
            unr.put(&blk, &rmt).unwrap();
            comm.recv(Some(1), 1);
            unr.stats()
                .sub_messages
                .load(std::sync::atomic::Ordering::Relaxed)
        } else {
            let sig = unr.sig_init(1);
            let blk = unr.blk_init(&mem, 0, len, Some(&sig));
            convert::send_blk(comm, 0, 0, &blk);
            unr.sig_wait(&sig).unwrap();
            assert!(!sig.overflowed());
            comm.send(0, 1, &[]);
            0
        }
    });
    assert_eq!(
        results[0], 1,
        "striping addend does not fit 4 bits: must fall back to 1 sub-message"
    );
}

#[test]
fn fallback_overhead_is_charged() {
    // Higher configured fallback overhead must make the same workload
    // slower (virtual time), proving the knob is wired through.
    let run = |overhead: u64| -> u64 {
        let results = run_mpi_world(fabric(InterfaceKind::MpiOnly, 2), move |comm| {
            let unr = Unr::init(
                comm.ep_shared(),
                UnrConfig {
                    fallback_overhead: overhead,
                    ..UnrConfig::default()
                },
            );
            let mem = unr.mem_reg(4096);
            let sig = unr.sig_init(1);
            let me = comm.rank();
            let recv_blk = unr.blk_init(&mem, 0, 4096, Some(&sig));
            let send_blk = unr.blk_init(&mem, 0, 4096, None);
            let remote = convert::exchange_blk(comm, 1 - me, 0, &recv_blk);
            let t0 = comm.ep().now();
            for _ in 0..10 {
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
            comm.ep().now() - t0
        });
        results[0]
    };
    let cheap = run(100);
    let pricey = run(5_000);
    assert!(
        pricey > cheap + 10 * 2 * 4_000,
        "per-message fallback overhead must show up in virtual time: {cheap} vs {pricey}"
    );
}

#[test]
fn put_and_get_reject_out_of_region_local_block() {
    // A Blk that lies about its registered region's size: the engine
    // must bounds-check the *local* side against the real region, not
    // trust the handle (the remote side was always checked).
    let results = run_mpi_world(fabric(InterfaceKind::Glex, 1), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(64);
        let honest = unr.blk_init(&mem, 0, 8, None);
        let mut liar = honest;
        liar.offset = 60;
        liar.len = 16;
        liar.region_len = 1024; // claims a bigger region than registered
        let mut rmt = honest;
        rmt.len = 16;
        rmt.region_len = 1024;
        let oob = |r: Result<(), UnrError>| {
            matches!(
                r,
                Err(UnrError::Fabric(unr_simnet::FabricError::OutOfBounds(_)))
            )
        };
        oob(unr.put(&liar, &rmt)) && oob(unr.get(&liar, &rmt))
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn config_builder_validates() {
    assert!(matches!(
        UnrConfig::builder().n_bits(0).build(),
        Err(UnrError::InvalidConfig(_))
    ));
    assert!(matches!(
        UnrConfig::builder().n_bits(63).build(),
        Err(UnrError::InvalidConfig(_))
    ));
    assert!(matches!(
        UnrConfig::builder().timeout(0).build(),
        Err(UnrError::InvalidConfig(_))
    ));
    assert!(matches!(
        UnrConfig::builder().timeout(1_000).max_backoff(10).build(),
        Err(UnrError::InvalidConfig(_))
    ));
    assert!(matches!(
        UnrConfig::builder().fallback_after(0).build(),
        Err(UnrError::InvalidConfig(_))
    ));
    assert!(matches!(
        UnrConfig::builder().copy_bw_gibps(-1.0).build(),
        Err(UnrError::InvalidConfig(_))
    ));
    let cfg = UnrConfig::builder()
        .timeout(50_000)
        .max_backoff(500_000)
        .max_retries(6)
        .fallback_after(2)
        .build()
        .unwrap();
    assert_eq!(cfg.retry_timeout, 50_000);
    assert_eq!(cfg.max_retries, 6);
    assert_eq!(cfg.fallback_after, 2);
}

#[test]
fn sig_wait_timeout_reports_elapsed_wait() {
    let results = run_mpi_world(fabric(InterfaceKind::Glex, 1), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let sig = unr.sig_init(1); // nobody will ever trigger this
        let t0 = comm.ep().now();
        let r = unr.sig_wait_timeout(&sig, 25_000);
        let waited = comm.ep().now() - t0;
        matches!(r, Err(UnrError::Timeout { waited: 25_000 })) && waited >= 25_000
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn sig_wait_timeout_succeeds_when_signal_fires() {
    let results = run_mpi_world(fabric(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(64);
        if comm.rank() == 0 {
            let blk = unr.blk_init(&mem, 0, 8, None);
            let rmt = convert::recv_blk(comm, 1, 0);
            unr.put(&blk, &rmt).unwrap();
            true
        } else {
            let sig = unr.sig_init(1);
            let blk = unr.blk_init(&mem, 0, 8, Some(&sig));
            convert::send_blk(comm, 0, 0, &blk);
            unr.sig_wait_timeout(&sig, unr_simnet::SEC).is_ok()
        }
    });
    assert!(results.into_iter().all(|b| b));
}

/// `sig_wait_any_timeout` returns at exactly the earlier of its
/// deadline and the firing of one of its signals, in virtual time and
/// in every progress mode. Each round starts at an agreed instant `T`
/// with rank 0's put; the first round learns the put's arrival `L`
/// after `T` with a plain wait, and the later ones set the deadline
/// 1 ns after it, on it and 1 ns before it. A tie returns at `T + L`
/// too, with whichever of the two events the scheduler ran first.
#[test]
fn sig_wait_any_timeout_returns_at_the_earlier_of_signal_and_deadline() {
    const ROUND: u64 = 100_000;
    for progress in [
        ProgressMode::PollingAgent { interval: 0 },
        ProgressMode::UserDriven,
        ProgressMode::Hardware,
    ] {
        let cfg = UnrConfig::builder().progress(progress).build().unwrap();
        let mut fcfg = fabric(InterfaceKind::Glex, 2);
        if progress == ProgressMode::Hardware {
            fcfg.iface = fcfg.iface.with_hardware_atomic_add();
        }
        let results = run_mpi_world(fcfg, move |comm| {
            let unr = Unr::init(comm.ep_shared(), cfg);
            let mem = unr.mem_reg(64);
            let at = |round: u64| {
                let t = (round + 1) * ROUND;
                unr.sleep(t - unr.now());
                t
            };
            if comm.rank() == 0 {
                let blk = unr.blk_init(&mem, 0, 8, None);
                for round in 0..4 {
                    let rmt = convert::recv_blk(comm, 1, round as i32);
                    at(round);
                    unr.put(&blk, &rmt).unwrap();
                }
                return Vec::new();
            }
            let sigs: Vec<_> = (0..4).map(|_| unr.sig_init(1)).collect();
            for (round, sig) in sigs.iter().enumerate() {
                let blk = unr.blk_init(&mem, 8 * round, 8, Some(sig));
                convert::send_blk(comm, 0, round as i32, &blk);
            }
            let idle = unr.sig_init(1);
            let t = at(0);
            unr.sig_wait(&sigs[0]).unwrap();
            let lat = unr.now() - t;
            let mut got = Vec::new();
            for (round, dt) in [(1, lat + 1), (2, lat), (3, lat - 1)] {
                let t = at(round);
                let r = unr.sig_wait_any_timeout(&[&idle, &sigs[round as usize]], dt);
                got.push((r, unr.now() - t, lat));
            }
            got
        });
        let got = &results[1];
        let lat = got[0].2;
        assert!(lat > 1, "{progress:?}: the put took {lat} ns");
        assert!(matches!(got[0].0, Ok(1)), "{progress:?}: {:?}", got[0]);
        assert_eq!(got[0].1, lat, "{progress:?}: deadline after the signal");
        assert!(
            matches!(got[1].0, Ok(1) | Err(UnrError::Timeout { .. })),
            "{progress:?}: {:?}",
            got[1]
        );
        assert_eq!(got[1].1, lat, "{progress:?}: deadline on the signal");
        let waited = lat - 1;
        assert!(
            matches!(got[2].0, Err(UnrError::Timeout { waited: w }) if w == waited),
            "{progress:?}: {:?}",
            got[2]
        );
        assert_eq!(got[2].1, waited, "{progress:?}: deadline before the signal");
    }
}

/// Every wait of the family surfaces an overflowed signal the same way,
/// whoever drives progress and with or without the reliable transport:
/// the error, counted once in `unr.signal.overflow_trips` and once in
/// the signal table's `overflow_errors`.
#[test]
fn every_wait_counts_an_overflow_once_in_each_series() {
    use unr_core::{Reliability, SignalError};
    for (progress, reliability) in [
        (ProgressMode::PollingAgent { interval: 0 }, Reliability::Off),
        (ProgressMode::PollingAgent { interval: 0 }, Reliability::On),
        (ProgressMode::UserDriven, Reliability::Off),
        (ProgressMode::UserDriven, Reliability::On),
    ] {
        let cfg = UnrConfig::builder()
            .progress(progress)
            .reliability(reliability)
            .build()
            .unwrap();
        let results = run_mpi_world(fabric(InterfaceKind::Glex, 2), move |comm| {
            let unr = Unr::init(comm.ep_shared(), cfg);
            let mem = unr.mem_reg(64);
            if comm.rank() == 0 {
                let blk = unr.blk_init(&mem, 0, 8, None);
                for tag in 0..3 {
                    // Two puts against a signal expecting one.
                    let rmt = convert::recv_blk(comm, 1, tag);
                    unr.put(&blk, &rmt).unwrap();
                    unr.put(&blk, &rmt).unwrap();
                }
                comm.recv(Some(1), 9);
                return (0, 0, 0);
            }
            let sigs = [unr.sig_init(1), unr.sig_init(1), unr.sig_init(1)];
            for (tag, sig) in sigs.iter().enumerate() {
                let blk = unr.blk_init(&mem, 8 * tag, 8, Some(sig));
                convert::send_blk(comm, 0, tag as i32, &blk);
            }
            unr.sleep(unr_simnet::us(200.0));
            let mut overflows = 0;
            for n in 0..3 {
                let got = match n {
                    0 => unr.sig_wait(&sigs[0]),
                    1 => unr.sig_wait_timeout(&sigs[1], unr_simnet::SEC),
                    _ => unr.sig_wait_any(&[&sigs[2]]).map(drop),
                };
                if matches!(
                    got,
                    Err(UnrError::Signal(SignalError::EventOverflow { .. }))
                ) {
                    overflows += 1;
                }
            }
            comm.send(0, 9, &[]);
            let trips = unr.obs().metrics.counter("unr.signal.overflow_trips").get();
            let errors = unr
                .signal_stats()
                .overflow_errors
                .load(std::sync::atomic::Ordering::Relaxed);
            (overflows, trips, errors)
        });
        assert_eq!(results[1], (3, 3, 3), "{progress:?} {reliability:?}");
    }
}
