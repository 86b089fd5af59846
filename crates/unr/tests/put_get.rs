//! End-to-end notified PUT/GET across every channel type.

use std::sync::atomic::Ordering;

use unr_core::{convert, Blk, ChannelSelect, ProgressMode, SigKey, Unr, UnrConfig, UnrError};
use unr_minimpi::run_mpi_world;
use unr_simnet::{FabricConfig, InterfaceKind, InterfaceSpec, Platform};

fn fabric_for(iface: InterfaceKind, nodes: usize) -> FabricConfig {
    let mut cfg = FabricConfig::test_default(nodes);
    cfg.iface = InterfaceSpec::lookup(iface);
    cfg
}

/// Ping of `len` bytes from rank 0 to rank 1 under `cfg`/`ucfg`;
/// validates payload integrity and signal semantics.
fn one_put(cfg: FabricConfig, ucfg: UnrConfig, len: usize) {
    let results = run_mpi_world(cfg, move |comm| {
        let unr = Unr::init(comm.ep_shared(), ucfg);
        let mem = unr.mem_reg(len.max(64) * 2);
        if comm.rank() == 0 {
            let send_sig = unr.sig_init(1);
            let blk = unr.blk_init(&mem, 0, len, Some(&send_sig));
            let data: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            mem.write_bytes(0, &data);
            let rmt = convert::recv_blk(comm, 1, 0);
            unr.put(&blk, &rmt).unwrap();
            unr.sig_wait(&send_sig).unwrap();
            // Source buffer is now reusable.
            send_sig.reset().unwrap();
            true
        } else {
            let recv_sig = unr.sig_init(1);
            let blk = unr.blk_init(&mem, 0, len, Some(&recv_sig));
            convert::send_blk(comm, 0, 0, &blk);
            unr.sig_wait(&recv_sig).unwrap();
            let mut got = vec![0u8; len];
            mem.read_bytes(0, &mut got);
            assert!(
                got.iter()
                    .enumerate()
                    .all(|(i, &b)| b == (i * 7 % 256) as u8),
                "payload corrupted"
            );
            recv_sig.reset().unwrap();
            true
        }
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn put_on_glex_level3() {
    one_put(
        fabric_for(InterfaceKind::Glex, 2),
        UnrConfig::default(),
        4096,
    );
}

#[test]
fn put_on_verbs_mode1() {
    one_put(
        fabric_for(InterfaceKind::Verbs, 2),
        UnrConfig::default(),
        4096,
    );
}

#[test]
fn put_on_verbs_mode2() {
    let ucfg = UnrConfig {
        channel: ChannelSelect::Mode2 { key_bits: 16 },
        n_bits: 8, // small event field so striping addends fit 16 bits
        ..UnrConfig::default()
    };
    one_put(fabric_for(InterfaceKind::Verbs, 2), ucfg, 4096);
}

#[test]
fn put_on_utofu_level1() {
    one_put(
        fabric_for(InterfaceKind::Utofu, 2),
        UnrConfig::default(),
        4096,
    );
}

#[test]
fn put_on_level0_companion() {
    let ucfg = UnrConfig {
        channel: ChannelSelect::ForceLevel0,
        ..UnrConfig::default()
    };
    one_put(fabric_for(InterfaceKind::Glex, 2), ucfg, 4096);
}

#[test]
fn put_on_mpi_fallback() {
    one_put(
        fabric_for(InterfaceKind::MpiOnly, 2),
        UnrConfig::default(),
        4096,
    );
}

#[test]
fn put_on_forced_fallback_over_rma_fabric() {
    let ucfg = UnrConfig {
        channel: ChannelSelect::ForceFallback,
        ..UnrConfig::default()
    };
    one_put(fabric_for(InterfaceKind::Glex, 2), ucfg, 4096);
}

#[test]
fn put_on_level4_hardware() {
    let mut cfg = fabric_for(InterfaceKind::Glex, 2);
    cfg.iface = cfg.iface.with_hardware_atomic_add();
    one_put(cfg, UnrConfig::default(), 4096);
}

#[test]
fn put_user_driven_progress() {
    let ucfg = UnrConfig {
        progress: Some(ProgressMode::UserDriven),
        ..UnrConfig::default()
    };
    one_put(fabric_for(InterfaceKind::Glex, 2), ucfg, 4096);
}

#[test]
fn large_put_striped_across_two_nics() {
    // TH-XY-like: 2 NICs; a 1 MiB put must be split and still trigger
    // the receive signal exactly once.
    let mut cfg = Platform::th_xy().fabric_config(2, 1);
    cfg.seed = 42;
    let results = run_mpi_world(cfg, |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let len = 1 << 20;
        let mem = unr.mem_reg(len);
        if comm.rank() == 0 {
            let blk = unr.blk_init(&mem, 0, len, None);
            let data: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
            mem.write_bytes(0, &data);
            let rmt = convert::recv_blk(comm, 1, 0);
            unr.put(&blk, &rmt).unwrap();
            unr.sleep(unr_simnet::us(500.0));
            unr.stats()
                .sub_messages
                .load(std::sync::atomic::Ordering::Relaxed)
        } else {
            let sig = unr.sig_init(1);
            let blk = unr.blk_init(&mem, 0, len, Some(&sig));
            convert::send_blk(comm, 0, 0, &blk);
            unr.sig_wait(&sig).unwrap();
            let mut got = vec![0u8; len];
            mem.read_bytes(0, &mut got);
            assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 253) as u8));
            assert!(!sig.overflowed(), "exactly one aggregated trigger");
            0
        }
    });
    assert_eq!(results[0], 2, "1 MiB put must use both NICs");
}

#[test]
fn get_reads_remote_block() {
    let results = run_mpi_world(fabric_for(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(1024);
        if comm.rank() == 0 {
            // Expose data for rank 1 to read.
            mem.write_bytes(100, b"get me if you can");
            let remote_sig = unr.sig_init(1);
            let blk = unr.blk_init(&mem, 100, 17, Some(&remote_sig));
            convert::send_blk(comm, 1, 0, &blk);
            // GLEX notifies the exposer when its memory has been read.
            unr.sig_wait(&remote_sig).unwrap();
            Vec::new()
        } else {
            let local_sig = unr.sig_init(1);
            let local = unr.blk_init(&mem, 0, 17, Some(&local_sig));
            let remote = convert::recv_blk(comm, 0, 0);
            unr.get(&local, &remote).unwrap();
            unr.sig_wait(&local_sig).unwrap();
            let mut got = vec![0u8; 17];
            mem.read_bytes(0, &mut got);
            got
        }
    });
    assert_eq!(results[1], b"get me if you can");
}

#[test]
fn get_remote_notify_rejected_on_verbs() {
    let results = run_mpi_world(fabric_for(InterfaceKind::Verbs, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(64);
        if comm.rank() == 1 {
            let sig = unr.sig_init(1);
            let local = unr.blk_init(&mem, 0, 8, None);
            // Fake remote blk with a signal bound: Verbs cannot deliver it.
            let mut remote = unr.blk_init(&mem, 0, 8, Some(&sig));
            remote.rank = 0;
            match unr.get(&local, &remote) {
                Err(UnrError::GetRemoteNotifyUnsupported) => true,
                other => panic!("expected GetRemoteNotifyUnsupported, got {other:?}"),
            }
        } else {
            true
        }
    });
    assert!(results.iter().all(|&b| b));
}

#[test]
fn fallback_get_round_trip() {
    let results = run_mpi_world(fabric_for(InterfaceKind::MpiOnly, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(256);
        if comm.rank() == 0 {
            mem.write_bytes(32, b"fallback-get-data");
            let sig = unr.sig_init(1);
            let blk = unr.blk_init(&mem, 32, 17, Some(&sig));
            convert::send_blk(comm, 1, 0, &blk);
            // The fallback channel delivers a remote-read notification.
            unr.sig_wait(&sig).unwrap();
            Vec::new()
        } else {
            let sig = unr.sig_init(1);
            let local = unr.blk_init(&mem, 0, 17, Some(&sig));
            let remote = convert::recv_blk(comm, 0, 0);
            unr.get(&local, &remote).unwrap();
            unr.sig_wait(&sig).unwrap();
            let mut got = vec![0u8; 17];
            mem.read_bytes(0, &mut got);
            got
        }
    });
    assert_eq!(results[1], b"fallback-get-data");
}

#[test]
fn multi_message_aggregation_from_two_senders() {
    // Figure 2: a receiver waits on ONE signal for messages from two
    // senders, one of which stripes across NICs.
    let mut cfg = Platform::th_xy().fabric_config(3, 1);
    cfg.seed = 7;
    let results = run_mpi_world(cfg, |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let big = 1 << 20;
        let mem = unr.mem_reg(2 * big);
        match comm.rank() {
            0 => {
                let sig = unr.sig_init(2); // two messages, one signal
                let blk_a = unr.blk_init(&mem, 0, big, Some(&sig));
                let blk_b = unr.blk_init(&mem, big, 64, Some(&sig));
                convert::send_blk(comm, 1, 0, &blk_a);
                convert::send_blk(comm, 2, 0, &blk_b);
                unr.sig_wait(&sig).unwrap();
                let mut x = vec![0u8; big];
                mem.read_bytes(0, &mut x);
                assert!(x.iter().all(|&b| b == 0xAA), "striped message intact");
                let mut y = vec![0u8; 64];
                mem.read_bytes(big, &mut y);
                assert!(y.iter().all(|&b| b == 0xBB), "small message intact");
                true
            }
            1 => {
                let big_mem = unr.mem_reg(big);
                big_mem.write_bytes(0, &vec![0xAAu8; big]);
                let local = unr.blk_init(&big_mem, 0, big, None);
                let rmt = convert::recv_blk(comm, 0, 0);
                unr.put(&local, &rmt).unwrap();
                unr.sleep(unr_simnet::us(500.0));
                true
            }
            _ => {
                let small = unr.mem_reg(64);
                small.write_bytes(0, &[0xBBu8; 64]);
                let local = unr.blk_init(&small, 0, 64, None);
                let rmt = convert::recv_blk(comm, 0, 0);
                unr.put(&local, &rmt).unwrap();
                unr.sleep(unr_simnet::us(500.0));
                true
            }
        }
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn sync_error_detected_on_early_arrival() {
    // The paper's §IV-D scenario: the receiver resets its signal only
    // AFTER the peer already wrote — UNR must warn.
    let results = run_mpi_world(fabric_for(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(64);
        if comm.rank() == 0 {
            let blk = unr.blk_init(&mem, 0, 8, None);
            let rmt = convert::recv_blk(comm, 1, 0);
            unr.put(&blk, &rmt).unwrap();
            unr.sleep(unr_simnet::us(100.0));
            0
        } else {
            let sig = unr.sig_init(1);
            let blk = unr.blk_init(&mem, 0, 8, Some(&sig));
            convert::send_blk(comm, 0, 0, &blk);
            // Sleep past the arrival, then wait (fine) ...
            unr.sleep(unr_simnet::us(100.0));
            unr.sig_wait(&sig).unwrap();
            sig.reset().unwrap();
            // ... but no new buffer-ready handshake: pretend we expect a
            // second message that never comes, and reset again after an
            // artificial extra arrival to trigger the warning path.
            u64::from(sig.reset().is_ok())
        }
    });
    // Second reset with counter = num_event (1) is a sync error: the
    // counter was not zero.
    assert_eq!(results[1], 0, "reset of an armed signal must warn");
}

#[test]
fn overflow_detected_when_more_events_than_expected() {
    let results = run_mpi_world(fabric_for(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(64);
        if comm.rank() == 0 {
            let blk = unr.blk_init(&mem, 0, 8, None);
            let rmt = convert::recv_blk(comm, 1, 0);
            // Two puts against a signal expecting one.
            unr.put(&blk, &rmt).unwrap();
            unr.put(&blk, &rmt).unwrap();
            unr.sleep(unr_simnet::us(200.0));
            true
        } else {
            let sig = unr.sig_init(1);
            let blk = unr.blk_init(&mem, 0, 8, Some(&sig));
            convert::send_blk(comm, 0, 0, &blk);
            unr.sleep(unr_simnet::us(200.0));
            sig.overflowed()
        }
    });
    assert!(results[1], "overflow-detect bit must latch");
}

#[test]
fn plan_replays_recorded_puts() {
    let results = run_mpi_world(fabric_for(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(1024);
        if comm.rank() == 0 {
            let blk = unr.blk_init(&mem, 0, 8, None);
            let rmt = convert::recv_blk(comm, 1, 0);
            let mut plan = unr_core::RmaPlan::new();
            plan.put(&blk, &rmt);
            let mut vals = Vec::new();
            for epoch in 0..5u64 {
                mem.write_slice(0, &[epoch + 100]);
                plan.start(&unr).unwrap();
                // Wait for the target's ack before mutating the buffer.
                let m = comm.recv(Some(1), 9);
                vals.push(m.data[0]);
            }
            vals
        } else {
            let sig = unr.sig_init(1);
            let blk = unr.blk_init(&mem, 0, 8, Some(&sig));
            convert::send_blk(comm, 0, 0, &blk);
            let mut seen = Vec::new();
            for _ in 0..5 {
                unr.sig_wait(&sig).unwrap();
                sig.reset().unwrap();
                let mut v = [0u64; 1];
                mem.read_slice(0, &mut v);
                seen.push((v[0] - 100) as u8);
                comm.send(0, 9, &[v[0] as u8]);
            }
            seen
        }
    });
    assert_eq!(results[1], vec![0, 1, 2, 3, 4]);
}

/// Code 2 of the paper, verbatim structure, multiple iterations.
#[test]
fn paper_code2_loop() {
    let results = run_mpi_world(fabric_for(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let buf_size = 4096;
        let size = 512;
        let iters = 10;
        if comm.rank() == 0 {
            // sender
            let mem = unr.mem_reg(buf_size);
            let send_sig = unr.sig_init(1);
            let send_blk = unr.blk_init(&mem, 128, size, Some(&send_sig)); // f(x) = 128
            let rmt_blk = convert::recv_blk(comm, 1, 0); // MPI_Recv(rmt_blk)
            let mut errors = 0;
            for it in 0..iters {
                mem.write_bytes(128, &vec![it as u8; size]);
                unr.put(&send_blk, &rmt_blk).unwrap();
                unr.sig_wait(&send_sig).unwrap();
                if send_sig.reset().is_err() {
                    errors += 1;
                }
                // Implicit pre-synchronization for the next iteration:
                // wait for the receiver's consume-ack.
                comm.recv(Some(1), 1);
            }
            errors
        } else {
            // receiver
            let mem = unr.mem_reg(buf_size);
            let recv_sig = unr.sig_init(1);
            let recv_blk = unr.blk_init(&mem, 256, size, Some(&recv_sig)); // g(y) = 256
            convert::send_blk(comm, 0, 0, &recv_blk); // MPI_Send(recv_blk)
            let mut errors = 0;
            for it in 0..iters {
                unr.sig_wait(&recv_sig).unwrap();
                let mut got = vec![0u8; size];
                mem.read_bytes(256, &mut got);
                assert!(got.iter().all(|&b| b == it as u8), "iteration {it}");
                // Buffer consumed and ready again:
                if recv_sig.reset().is_err() {
                    errors += 1;
                }
                comm.send(0, 1, &[]);
            }
            errors
        }
    });
    assert_eq!(results, vec![0, 0], "no synchronization errors in Code 2");
}

/// Converted persistent channels (paper Code 3).
#[test]
fn isend_irecv_convert_pair() {
    let results = run_mpi_world(fabric_for(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(4096);
        if comm.rank() == 0 {
            let send_sig = unr.sig_init(1);
            mem.write_bytes(0, b"converted!");
            let plan = convert::isend_convert(&unr, comm, &mem, 0, 10, 1, 3, Some(&send_sig));
            plan.start(&unr).unwrap();
            unr.sig_wait(&send_sig).unwrap();
            Vec::new()
        } else {
            let recv_sig = unr.sig_init(1);
            convert::irecv_convert(&unr, comm, &mem, 512, 10, 0, 3, &recv_sig);
            unr.sig_wait(&recv_sig).unwrap();
            let mut got = vec![0u8; 10];
            mem.read_bytes(512, &mut got);
            got
        }
    });
    assert_eq!(results[1], b"converted!");
}

#[test]
fn alltoallv_convert_transposes() {
    let n = 4;
    let cfg = fabric_for(InterfaceKind::Glex, n);
    let results = run_mpi_world(cfg, move |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let me = comm.rank();
        let block = 128;
        let send_mem = unr.mem_reg(n * block);
        let recv_mem = unr.mem_reg(n * block);
        for d in 0..n {
            send_mem.write_bytes(d * block, &vec![(me * n + d) as u8; block]);
        }
        let counts = vec![block; n];
        let displs: Vec<usize> = (0..n).map(|i| i * block).collect();
        let send_sig = unr.sig_init(n as i64);
        let recv_sig = unr.sig_init(n as i64);
        let plan = convert::alltoallv_convert(
            &unr,
            comm,
            &send_mem,
            &counts,
            &displs,
            &recv_mem,
            &counts,
            &displs,
            Some(&send_sig),
            &recv_sig,
        );
        // Two epochs to prove the plan is reusable.
        let mut ok = true;
        for _ in 0..2 {
            plan.start(&unr).unwrap();
            unr.sig_wait(&recv_sig).unwrap();
            unr.sig_wait(&send_sig).unwrap();
            for s in 0..n {
                let mut got = vec![0u8; block];
                recv_mem.read_bytes(s * block, &mut got);
                ok &= got.iter().all(|&b| b == (s * n + me) as u8);
            }
            recv_sig.reset().unwrap();
            send_sig.reset().unwrap();
            unr_minimpi::barrier(comm); // buffers ready on all ranks
        }
        ok
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn sendrecv_convert_neighbor_exchange() {
    let results = run_mpi_world(fabric_for(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let peer = 1 - comm.rank();
        let send_mem = unr.mem_reg(256);
        let recv_mem = unr.mem_reg(256);
        send_mem.write_bytes(0, &[comm.rank() as u8 + 1; 64]);
        let recv_sig = unr.sig_init(1);
        let plan = convert::sendrecv_convert(
            &unr, comm, &send_mem, 0, 64, &recv_mem, 0, 64, peer, 0, None, &recv_sig,
        );
        plan.start(&unr).unwrap();
        unr.sig_wait(&recv_sig).unwrap();
        let mut got = [0u8; 64];
        recv_mem.read_bytes(0, &mut got);
        got[0]
    });
    assert_eq!(results, vec![2, 1]);
}

/// UNR co-exists with plain mini-MPI traffic on the same rank.
#[test]
fn coexists_with_minimpi() {
    let results = run_mpi_world(fabric_for(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(128);
        let peer = 1 - comm.rank();
        // Interleave MPI sendrecv with UNR put.
        let m = comm.sendrecv(peer, 5, &[comm.rank() as u8], Some(peer), 5);
        assert_eq!(m.data[0] as usize, peer);
        if comm.rank() == 0 {
            let blk = unr.blk_init(&mem, 0, 16, None);
            mem.write_bytes(0, &[9u8; 16]);
            let rmt = convert::recv_blk(comm, 1, 0);
            unr.put(&blk, &rmt).unwrap();
            let done = comm.recv(Some(1), 6);
            done.data[0]
        } else {
            let sig = unr.sig_init(1);
            let blk = unr.blk_init(&mem, 0, 16, Some(&sig));
            convert::send_blk(comm, 0, 0, &blk);
            unr.sig_wait(&sig).unwrap();
            comm.send(0, 6, &[1]);
            1
        }
    });
    assert_eq!(results, vec![1, 1]);
}

#[test]
fn sig_wait_any_returns_first_arrival() {
    // Rank 0 puts to rank 1's two signals with a long gap; wait_any must
    // return the earlier one first, then the later one.
    let results = run_mpi_world(fabric_for(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mem = unr.mem_reg(64);
        if comm.rank() == 0 {
            let blk = unr.blk_init(&mem, 0, 8, None);
            let rmt_b = convert::recv_blk(comm, 1, 0); // signal B's block
            let rmt_a = convert::recv_blk(comm, 1, 1); // signal A's block
                                                       // B lands first; A lands 50us later.
            unr.put(&blk, &rmt_b).unwrap();
            unr.sleep(unr_simnet::us(50.0));
            unr.put(&blk, &rmt_a).unwrap();
            unr.sleep(unr_simnet::us(50.0));
            vec![]
        } else {
            let sig_a = unr.sig_init(1);
            let sig_b = unr.sig_init(1);
            let blk_b = unr.blk_init(&mem, 0, 8, Some(&sig_b));
            let blk_a = unr.blk_init(&mem, 8, 8, Some(&sig_a));
            convert::send_blk(comm, 0, 0, &blk_b);
            convert::send_blk(comm, 0, 1, &blk_a);
            let mut order = Vec::new();
            let sigs = [&sig_a, &sig_b];
            let first = unr.sig_wait_any(&sigs).unwrap();
            order.push(first);
            sigs[first].reset().unwrap();
            // Remaining signal.
            let second = 1 - first;
            unr.sig_wait(sigs[second]).unwrap();
            order.push(second);
            order
        }
    });
    assert_eq!(results[1], vec![1, 0], "B (index 1) arrives before A");
}

// ---------------------------------------------------------------------
// Small-message aggregation (the bump-ring coalescer).
// ---------------------------------------------------------------------

/// Aggregation config: coalesce puts up to 512 B, flush at 8 puts.
fn agg_cfg() -> UnrConfig {
    UnrConfig::builder()
        .agg_eager_max(512)
        .agg_flush_bytes(8192)
        .agg_flush_puts(8)
        .build()
        .unwrap()
}

/// Many small puts ride aggregated deliveries: the data must land
/// byte-exact, both signals must see the full summed count, and the
/// sub-message counter must show the collapse (one aggregate per 8
/// puts, not one wire message per put).
#[test]
fn aggregated_small_puts_deliver_and_sum() {
    const PUTS: usize = 32;
    const LEN: usize = 64;
    let results = run_mpi_world(fabric_for(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), agg_cfg());
        let mem = unr.mem_reg(PUTS * LEN);
        if comm.rank() == 0 {
            let local_sig = unr.sig_init(PUTS as i64);
            let rmt = convert::recv_blk(comm, 1, 0);
            for i in 0..PUTS {
                let pattern: Vec<u8> = (0..LEN).map(|j| ((i * 31 + j) % 251) as u8).collect();
                mem.write_bytes(i * LEN, &pattern);
                let blk = unr.blk_init(&mem, i * LEN, LEN, None);
                let mut dst = rmt;
                dst.offset = i * LEN;
                dst.len = LEN;
                unr.put_with(&blk, &dst, Some(&local_sig), rmt.sig_key)
                    .unwrap();
            }
            // Local completions are deferred to flushes; the wait both
            // flushes the tail and observes the summed local addends.
            unr.sig_wait(&local_sig).unwrap();
            let obs = unr.obs();
            let coalesced = obs.metrics.counter("unr.agg.puts_coalesced").get();
            assert_eq!(coalesced, PUTS as u64, "every small put must coalesce");
            let subs = unr
                .stats()
                .sub_messages
                .load(std::sync::atomic::Ordering::Relaxed);
            assert!(
                subs <= (PUTS / 8) as u64 + 1,
                "expected ~one aggregate per 8 puts, got {subs} sub-messages"
            );
            0
        } else {
            let sig = unr.sig_init(PUTS as i64);
            let blk = unr.blk_init(&mem, 0, PUTS * LEN, Some(&sig));
            convert::send_blk(comm, 0, 0, &blk);
            unr.sig_wait(&sig).unwrap();
            let mut got = vec![0u8; PUTS * LEN];
            mem.read_bytes(0, &mut got);
            for i in 0..PUTS {
                for j in 0..LEN {
                    assert_eq!(
                        got[i * LEN + j],
                        ((i * 31 + j) % 251) as u8,
                        "put {i} byte {j} corrupted"
                    );
                }
            }
            sig.reset().unwrap();
            1
        }
    });
    assert_eq!(results, vec![0, 1]);
}

/// A big (non-aggregable) put to a destination with buffered small
/// puts forces the ring out first, so per-destination order holds.
#[test]
fn big_put_flushes_buffered_ring_first() {
    let results = run_mpi_world(fabric_for(InterfaceKind::Glex, 2), |comm| {
        let unr = Unr::init(comm.ep_shared(), agg_cfg());
        let mem = unr.mem_reg(4096);
        if comm.rank() == 0 {
            let rmt = convert::recv_blk(comm, 1, 0);
            // Small put (buffered), then a 2 KiB put to the same bytes:
            // the small one must not overtake and clobber the big one.
            mem.write_bytes(0, &[0xAA; 64]);
            let small = unr.blk_init(&mem, 0, 64, None);
            let mut dst = rmt;
            dst.offset = 0;
            dst.len = 64;
            unr.put_with(&small, &dst, None, unr_core::SigKey::NULL)
                .unwrap();
            mem.write_bytes(64, &[0xBB; 2048]);
            let big = unr.blk_init(&mem, 64, 2048, None);
            let mut dst2 = rmt;
            dst2.offset = 0;
            dst2.len = 2048;
            unr.put_with(&big, &dst2, None, rmt.sig_key).unwrap();
            let obs = unr.obs();
            assert_eq!(
                obs.metrics.counter("unr.agg.flush.order").get(),
                1,
                "the big put must force the buffered ring out"
            );
            0
        } else {
            let sig = unr.sig_init(1);
            let blk = unr.blk_init(&mem, 0, 2048, Some(&sig));
            convert::send_blk(comm, 0, 0, &blk);
            unr.sig_wait(&sig).unwrap();
            let mut got = vec![0u8; 2048];
            mem.read_bytes(0, &mut got);
            assert!(got.iter().all(|&b| b == 0xBB), "big put was overtaken");
            1
        }
    });
    assert_eq!(results, vec![0, 1]);
}

/// Every channel `Channel::select` can return on simnet, by name: the
/// fabric interface and the selection policy that yield it.
fn every_channel() -> Vec<(&'static str, InterfaceSpec, ChannelSelect)> {
    let auto = |kind| InterfaceSpec::lookup(kind);
    let verbs = auto(InterfaceKind::Verbs);
    vec![
        ("glex", auto(InterfaceKind::Glex), ChannelSelect::Auto),
        ("verbs-mode1", verbs, ChannelSelect::Auto),
        ("utofu", auto(InterfaceKind::Utofu), ChannelSelect::Auto),
        (
            "mpi-fallback",
            auto(InterfaceKind::MpiOnly),
            ChannelSelect::Auto,
        ),
        (
            "glex-hw",
            auto(InterfaceKind::Glex).with_hardware_atomic_add(),
            ChannelSelect::Auto,
        ),
        ("level0", verbs, ChannelSelect::ForceLevel0),
        ("mpi-fallback", verbs, ChannelSelect::ForceFallback),
        ("verbs-mode2", verbs, ChannelSelect::Mode2 { key_bits: 16 }),
    ]
}

/// The four null/non-null `(local, remote)` signal pairs.
const SIGNAL_PAIRS: [(bool, bool); 4] =
    [(false, false), (true, false), (false, true), (true, true)];

/// One put and one get from rank 0 to rank 1 per signal pair, each pair
/// settled before the next: what the pair added to rank 0's and rank
/// 1's `events_progressed` and to the world's `unr.signal.adds`, and
/// whether the get was refused for its remote signal.
fn completions_per_pair(
    name: &'static str,
    iface: InterfaceSpec,
    select: ChannelSelect,
) -> Vec<(bool, [u64; 3])> {
    let mut cfg = FabricConfig::test_default(2);
    cfg.iface = iface;
    let ucfg = UnrConfig {
        channel: select,
        n_bits: 8,
        ..UnrConfig::default()
    };
    let results = run_mpi_world(cfg, move |comm| {
        let unr = Unr::init(comm.ep_shared(), ucfg);
        assert_eq!(unr.channel().name, name, "the channel selected");
        let mem = unr.mem_reg(256);
        let me = comm.rank();
        let counts = || {
            let events = unr.stats().events_progressed.load(Ordering::Relaxed);
            (events, unr.obs().metrics.counter("unr.signal.adds").get())
        };
        let mut rounds = Vec::new();
        for (round, &(local, remote)) in SIGNAL_PAIRS.iter().enumerate() {
            let tag = round as i32;
            let before = counts();
            let mut refused = false;
            if me == 0 {
                let put_src = unr.blk_init(&mem, 0, 64, None);
                let get_dst = unr.blk_init(&mem, 64, 64, None);
                let rmt_put = convert::recv_blk(comm, 1, 2 * tag);
                let rmt_get = convert::recv_blk(comm, 1, 2 * tag + 1);
                let sigs = [unr.sig_init(1), unr.sig_init(1)];
                let lsig = |i: usize| local.then_some(&sigs[i]);
                let rkey = |blk: &Blk| if remote { blk.sig_key } else { SigKey::NULL };
                unr.put_with(&put_src, &rmt_put, lsig(0), rkey(&rmt_put))
                    .unwrap();
                match unr.get_with(&get_dst, &rmt_get, lsig(1), rkey(&rmt_get)) {
                    Ok(()) => {}
                    Err(UnrError::GetRemoteNotifyUnsupported) => refused = true,
                    Err(e) => panic!("get: {e}"),
                }
                if local {
                    unr.sig_wait(&sigs[0]).unwrap();
                    if !refused {
                        unr.sig_wait(&sigs[1]).unwrap();
                    }
                }
                comm.send(1, 100 + tag, &[u8::from(refused)]);
            } else {
                let sigs = [unr.sig_init(1), unr.sig_init(1)];
                let put_dst = unr.blk_init(&mem, 0, 64, Some(&sigs[0]));
                let get_src = unr.blk_init(&mem, 64, 64, Some(&sigs[1]));
                convert::send_blk(comm, 0, 2 * tag, &put_dst);
                convert::send_blk(comm, 0, 2 * tag + 1, &get_src);
                refused = comm.recv(Some(0), 100 + tag).data[0] == 1;
                if remote {
                    unr.sig_wait(&sigs[0]).unwrap();
                    if !refused {
                        unr.sig_wait(&sigs[1]).unwrap();
                    }
                }
            }
            // Whatever a null signal left in flight lands and is
            // progressed before either rank counts.
            unr_minimpi::barrier(comm);
            unr.sleep(1_000_000);
            unr_minimpi::barrier(comm);
            let after = counts();
            rounds.push((refused, after.0 - before.0, after.1 - before.1));
            unr_minimpi::barrier(comm);
        }
        unr.finalize();
        rounds
    });
    (0..SIGNAL_PAIRS.len())
        .map(|i| {
            let (r0, r1) = (results[0][i], results[1][i]);
            assert_eq!(r0.2, r1.2, "both ranks read the one registry");
            assert_eq!(r0.0, r1.0);
            (r0.0, [r0.1, r1.1, r0.2])
        })
        .collect()
}

/// Characterisation of what reaches software on every channel: for
/// each null/non-null `(local, remote)` signal pair, the events each
/// rank's progress drained and the signal-table adds one put and one
/// get make, or the get's refusal where the channel cannot carry its
/// remote signal. Which completions a post asks for is decided from
/// its custom bits (and, for the local side, the channel's hardware),
/// so these numbers must not move when that decision moves.
#[test]
fn every_channel_drains_the_same_completions_for_every_signal_pair() {
    // Per channel, per pair in `SIGNAL_PAIRS` order: whether the get
    // was refused, then [rank 0 events, rank 1 events, signal adds].
    type Pairs = [(bool, [u64; 3]); 4];
    const RMA: Pairs = [
        (false, [0, 0, 0]),
        (false, [2, 0, 2]),
        (false, [0, 2, 2]),
        (false, [2, 2, 4]),
    ];
    // Verbs carries no remote GET custom bits.
    const NO_GET_REMOTE: Pairs = [
        (false, [0, 0, 0]),
        (false, [2, 0, 2]),
        (true, [0, 1, 1]),
        (true, [1, 1, 2]),
    ];
    // Every op is a control message, null keys included.
    const TWO_SIDED: Pairs = [
        (false, [1, 2, 3]),
        (false, [1, 2, 4]),
        (false, [1, 2, 3]),
        (false, [1, 2, 4]),
    ];
    // The NIC applies every addend: no software event at all.
    const HARDWARE: Pairs = [
        (false, [0, 0, 0]),
        (false, [0, 0, 2]),
        (false, [0, 0, 2]),
        (false, [0, 0, 4]),
    ];
    let want = |name: &str| match name {
        "glex" | "utofu" | "level0" => RMA,
        "verbs-mode1" | "verbs-mode2" => NO_GET_REMOTE,
        "mpi-fallback" => TWO_SIDED,
        "glex-hw" => HARDWARE,
        other => panic!("no expectation for {other}"),
    };
    for (name, iface, select) in every_channel() {
        let got = completions_per_pair(name, iface, select);
        assert_eq!(got, want(name), "{name}");
    }
}
