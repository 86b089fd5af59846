//! Tests for the UNR-based collectives, including cross-checks against
//! the two-sided mini-MPI implementations and multi-epoch reuse.

use std::sync::Arc;

use unr_coll::{
    tag_range, NotifiedAllgather, NotifiedAllreduce, NotifiedBarrier, NotifiedBcast, TagKind,
};
use unr_core::{Unr, UnrConfig};
use unr_minimpi::run_mpi_world;
use unr_simnet::{FabricConfig, InterfaceKind, InterfaceSpec};

fn fabric(n: usize) -> FabricConfig {
    FabricConfig::test_default(n)
}

#[test]
fn bcast_delivers_to_all_sizes_and_roots() {
    for n in [2usize, 3, 5, 8] {
        for root in [0, n - 1] {
            let results = run_mpi_world(fabric(n), move |comm| {
                let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
                let mut bc = NotifiedBcast::new(&unr, comm, 64, root, 0);
                if bc.is_root() {
                    bc.mem.write_bytes(0, &[0xEE; 64]);
                }
                bc.run().unwrap();
                let mut got = [0u8; 64];
                bc.mem.read_bytes(0, &mut got);
                got[0]
            });
            assert!(
                results.iter().all(|&b| b == 0xEE),
                "n={n} root={root}: {results:?}"
            );
        }
    }
}

#[test]
fn bcast_multiple_epochs_with_changing_payload() {
    let results = run_mpi_world(fabric(6), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mut bc = NotifiedBcast::new(&unr, comm, 16, 2, 1);
        let mut seen = Vec::new();
        for epoch in 0..8u8 {
            if bc.is_root() {
                bc.mem.write_bytes(0, &[epoch * 3 + 1; 16]);
            }
            bc.run().unwrap();
            let mut b = [0u8; 1];
            bc.mem.read_bytes(0, &mut b);
            seen.push(b[0]);
        }
        let errs = unr
            .signal_stats()
            .reset_errors
            .load(std::sync::atomic::Ordering::Relaxed);
        (seen, errs)
    });
    for (seen, errs) in &results {
        assert_eq!(seen, &(0..8u8).map(|e| e * 3 + 1).collect::<Vec<_>>());
        assert_eq!(*errs, 0, "credit flow control must prevent sync errors");
    }
}

#[test]
fn bcast_works_on_fallback_channel() {
    let mut cfg = fabric(4);
    cfg.iface = InterfaceSpec::lookup(InterfaceKind::MpiOnly);
    let results = run_mpi_world(cfg, |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mut bc = NotifiedBcast::new(&unr, comm, 32, 0, 0);
        if bc.is_root() {
            bc.mem.write_bytes(0, &[7; 32]);
        }
        bc.run().unwrap();
        let mut b = [0u8; 1];
        bc.mem.read_bytes(0, &mut b);
        b[0]
    });
    assert!(results.iter().all(|&b| b == 7));
}

#[test]
fn allgather_fills_every_slot() {
    for n in [2usize, 3, 4, 7] {
        let results = run_mpi_world(fabric(n), move |comm| {
            let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
            let mut ag = NotifiedAllgather::new(&unr, comm, 8, 0);
            let me = comm.rank();
            ag.mem.write_bytes(me * 8, &[me as u8 + 1; 8]);
            ag.run().unwrap();
            let mut buf = vec![0u8; n * 8];
            ag.mem.read_bytes(0, &mut buf);
            buf
        });
        for (r, buf) in results.iter().enumerate() {
            for src in 0..n {
                assert!(
                    buf[src * 8..(src + 1) * 8]
                        .iter()
                        .all(|&b| b == src as u8 + 1),
                    "n={n} rank {r} slot {src}: {buf:?}"
                );
            }
        }
    }
}

#[test]
fn allgather_repeated_epochs() {
    let n = 5;
    let results = run_mpi_world(fabric(n), move |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mut ag = NotifiedAllgather::new(&unr, comm, 4, 2);
        let me = comm.rank();
        let mut ok = true;
        for epoch in 0..6u8 {
            ag.mem.write_bytes(me * 4, &[10 * epoch + me as u8 + 1; 4]);
            ag.run().unwrap();
            let mut buf = vec![0u8; n * 4];
            ag.mem.read_bytes(0, &mut buf);
            for src in 0..n {
                ok &= buf[src * 4..(src + 1) * 4]
                    .iter()
                    .all(|&b| b == 10 * epoch + src as u8 + 1);
            }
        }
        let overflow = unr
            .signal_stats()
            .overflow_errors
            .load(std::sync::atomic::Ordering::Relaxed);
        (ok, overflow)
    });
    for (ok, overflow) in results {
        assert!(ok, "every epoch's gather must be correct");
        assert_eq!(overflow, 0);
    }
}

#[test]
fn allgather_matches_minimpi_allgather() {
    let n = 4;
    let results = run_mpi_world(fabric(n), move |comm| {
        let me = comm.rank();
        let mine = vec![(me * 7 + 3) as u8; 8];
        let reference = unr_minimpi::allgather_bytes(comm, &mine).concat();
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mut ag = NotifiedAllgather::new(&unr, comm, 8, 3);
        ag.mem.write_bytes(me * 8, &mine);
        ag.run().unwrap();
        let mut buf = vec![0u8; n * 8];
        ag.mem.read_bytes(0, &mut buf);
        buf == reference
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn barrier_enforces_entry_before_exit() {
    for n in [2usize, 3, 5, 8] {
        let results = run_mpi_world(fabric(n), move |comm| {
            let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
            let mut bar = NotifiedBarrier::new(&unr, comm, 0);
            // Stagger the arrivals; everyone must leave at/after the
            // latest arrival time.
            comm.ep().sleep(unr_simnet::us(7.0) * comm.rank() as u64);
            let arrive = comm.ep().now();
            bar.wait().unwrap();
            let leave = comm.ep().now();
            (arrive, leave)
        });
        let latest_arrival = results.iter().map(|&(a, _)| a).max().unwrap();
        for (r, &(_, leave)) in results.iter().enumerate() {
            assert!(
                leave >= latest_arrival,
                "n={n} rank {r} left at {leave} before the last arrival {latest_arrival}"
            );
        }
    }
}

#[test]
fn barrier_many_epochs_parity_safe() {
    // Back-to-back barriers with skewed per-rank work: the parity
    // alternation must keep tokens from leaking between epochs.
    let results = run_mpi_world(fabric(4), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mut bar = NotifiedBarrier::new(&unr, comm, 1);
        for epoch in 0..12u64 {
            comm.ep()
                .sleep(unr_simnet::us(1.0) * ((comm.rank() as u64 * 13 + epoch) % 5));
            bar.wait().unwrap();
        }
        let overflow = unr
            .signal_stats()
            .overflow_errors
            .load(std::sync::atomic::Ordering::Relaxed);
        overflow
    });
    assert!(results.iter().all(|&o| o == 0));
}

#[test]
fn collectives_compose_in_one_program() {
    // Barrier + bcast + allgather sharing one Unr context.
    let n = 4;
    let results = run_mpi_world(fabric(n), move |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let unr = Arc::clone(&unr);
        let mut bar = NotifiedBarrier::new(&unr, comm, 5);
        let mut bc = NotifiedBcast::new(&unr, comm, 8, 0, 6);
        let mut ag = NotifiedAllgather::new(&unr, comm, 8, 7);
        let me = comm.rank();
        for epoch in 0..3u8 {
            if bc.is_root() {
                bc.mem.write_bytes(0, &[100 + epoch; 8]);
            }
            bc.run().unwrap();
            let mut b = [0u8; 8];
            bc.mem.read_bytes(0, &mut b);
            ag.mem.write_bytes(me * 8, &[b[0] + me as u8; 8]);
            ag.run().unwrap();
            bar.wait().unwrap();
            let mut buf = vec![0u8; n * 8];
            ag.mem.read_bytes(0, &mut buf);
            for src in 0..n {
                assert_eq!(buf[src * 8], 100 + epoch + src as u8);
            }
        }
        true
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn allgather_rd_fills_every_slot() {
    for n in [2usize, 4, 8] {
        let results = run_mpi_world(fabric(n), move |comm| {
            let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
            let mut ag = unr_coll::NotifiedAllgatherRd::new(&unr, comm, 8, 9);
            let me = comm.rank();
            let mut ok = true;
            for epoch in 0..4u8 {
                ag.mem.write_bytes(me * 8, &[7 * epoch + me as u8 + 1; 8]);
                ag.run().unwrap();
                let mut buf = vec![0u8; n * 8];
                ag.mem.read_bytes(0, &mut buf);
                for src in 0..n {
                    ok &= buf[src * 8..(src + 1) * 8]
                        .iter()
                        .all(|&b| b == 7 * epoch + src as u8 + 1);
                }
            }
            let errs = unr
                .signal_stats()
                .reset_errors
                .load(std::sync::atomic::Ordering::Relaxed)
                + unr
                    .signal_stats()
                    .overflow_errors
                    .load(std::sync::atomic::Ordering::Relaxed);
            (ok, errs)
        });
        for (ok, errs) in results {
            assert!(ok, "n={n}: recursive-doubling gather incorrect");
            assert_eq!(errs, 0);
        }
    }
}

#[test]
#[should_panic(expected = "2^k ranks")]
fn allgather_rd_rejects_non_power_of_two() {
    run_mpi_world(fabric(3), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let _ = unr_coll::NotifiedAllgatherRd::new(&unr, comm, 8, 10);
    });
}

#[test]
fn allreduce_matches_serial_sum() {
    // Small-integer inputs are exact in f64, so every summation order
    // gives the same value and we can compare against a serial sum.
    for n in [2usize, 4, 8] {
        let count = 5;
        let results = run_mpi_world(fabric(n), move |comm| {
            let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
            let mut ar = NotifiedAllreduce::new(&unr, comm, count, 0);
            let me = comm.rank();
            let input: Vec<f64> = (0..count).map(|i| (me * 10 + i + 1) as f64).collect();
            ar.write_input(&input);
            ar.run().unwrap();
            let mut out = vec![0.0; count];
            ar.read_result(&mut out);
            out
        });
        let expect: Vec<f64> = (0..count)
            .map(|i| (0..n).map(|r| (r * 10 + i + 1) as f64).sum())
            .collect();
        for (r, out) in results.iter().enumerate() {
            assert_eq!(out, &expect, "n={n} rank {r}");
        }
    }
}

#[test]
fn allreduce_repeated_epochs_bitwise_identical() {
    // Non-exact decimal inputs: cross-rank agreement must be *bitwise*
    // (recursive doubling's partner symmetry + IEEE commutativity), and
    // the credit flow control must keep every epoch clean.
    let n = 8;
    let count = 7;
    let results = run_mpi_world(fabric(n), move |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mut ar = NotifiedAllreduce::new(&unr, comm, count, 1);
        let me = comm.rank();
        let mut bits_per_epoch = Vec::new();
        for epoch in 0..5usize {
            let input: Vec<f64> = (0..count)
                .map(|i| 0.1 * (me + 1) as f64 + 0.01 * (i + epoch) as f64)
                .collect();
            ar.write_input(&input);
            ar.run().unwrap();
            let mut out = vec![0.0; count];
            ar.read_result(&mut out);
            bits_per_epoch.push(out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>());
        }
        let errs = unr
            .signal_stats()
            .reset_errors
            .load(std::sync::atomic::Ordering::Relaxed)
            + unr
                .signal_stats()
                .overflow_errors
                .load(std::sync::atomic::Ordering::Relaxed);
        (bits_per_epoch, errs)
    });
    for (bits, errs) in &results {
        assert_eq!(bits, &results[0].0, "ranks disagree bitwise");
        assert_eq!(*errs, 0);
    }
    // Epochs have different inputs, so identical outputs across epochs
    // would mean a stale buffer.
    assert_ne!(results[0].0[0], results[0].0[1]);
}

#[test]
#[should_panic(expected = "2^k ranks")]
fn allreduce_rejects_non_power_of_two() {
    run_mpi_world(fabric(6), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let _ = NotifiedAllreduce::new(&unr, comm, 4, 0);
    });
}

#[test]
fn tag_stride_regression_old_arithmetic_overlaps_at_32_ranks() {
    // The pre-fix scheme strode barrier instances by a fixed 8 while the
    // dissemination barrier consumed 2 * ceil(log2 n) tags — 10 at
    // n = 32, so instance i's block ran into instance i+1's. Reproduce
    // that arithmetic and show the collision the fix removes.
    let old_span = |n: usize| 2 * (n.next_power_of_two().trailing_zeros() as i32);
    let old_start = |instance: i32| 8 * instance;
    let n = 32;
    assert!(
        old_start(0) + old_span(n) > old_start(1),
        "the old stride-8 scheme should collide at n = 32 (this test \
         guards the shape of the bug, not current behavior)"
    );
    // At n = 16 it happened to fit — which is why the bug survived: the
    // overlap only opens up past 16 ranks.
    assert!(old_start(0) + old_span(16) <= old_start(1));
    // The replacement blocks stay disjoint at 32 ranks (and tag_range
    // asserts span ≤ stride internally for any larger n).
    for kind in [
        TagKind::Bcast,
        TagKind::Allgather,
        TagKind::Barrier,
        TagKind::AllgatherRd,
        TagKind::Allreduce,
    ] {
        let a = tag_range(kind, n, 0);
        let b = tag_range(kind, n, 1);
        assert!(a.end <= b.start, "{kind:?} overlaps at n = {n}");
    }
}

#[test]
fn two_barrier_instances_compose_at_32_ranks() {
    // Behavioral regression for the tag-space fix: two barrier instances
    // constructed back-to-back on a 32-rank communicator. Under the old
    // stride arithmetic their setup exchanges overlapped (2*log2(32) =
    // 10 tags consumed vs a stride of 8) and could cross-match; with
    // disjoint tag blocks both instances must work independently.
    let n = 32;
    let results = run_mpi_world(fabric(n), move |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mut bar_a = NotifiedBarrier::new(&unr, comm, 0);
        let mut bar_b = NotifiedBarrier::new(&unr, comm, 1);
        for epoch in 0..2u64 {
            comm.ep()
                .sleep(unr_simnet::us(1.0) * ((comm.rank() as u64 * 7 + epoch) % 4));
            bar_a.wait().unwrap();
            bar_b.wait().unwrap();
        }
        unr.signal_stats()
            .overflow_errors
            .load(std::sync::atomic::Ordering::Relaxed)
            + unr
                .signal_stats()
                .reset_errors
                .load(std::sync::atomic::Ordering::Relaxed)
    });
    assert_eq!(results.len(), n);
    assert!(results.iter().all(|&o| o == 0));
}

#[test]
fn collectives_ride_the_aggregation_path() {
    // Same composition as `collectives_compose_in_one_program` but with
    // sender-side coalescing on: the barrier tokens, credits, and 8-byte
    // payload blocks are all sub-threshold, so the collectives' fan-out
    // rides summed-addend aggregate frames end to end.
    let n = 4;
    let results = run_mpi_world(fabric(n), move |comm| {
        let cfg = UnrConfig::builder()
            .agg_eager_max(512)
            .agg_flush_puts(8)
            .build()
            .unwrap();
        let unr = Unr::init(comm.ep_shared(), cfg);
        let mut bar = NotifiedBarrier::new(&unr, comm, 5);
        let mut bc = NotifiedBcast::new(&unr, comm, 8, 0, 6);
        let mut ag = NotifiedAllgather::new(&unr, comm, 8, 7);
        let me = comm.rank();
        for epoch in 0..3u8 {
            if bc.is_root() {
                bc.mem.write_bytes(0, &[100 + epoch; 8]);
            }
            bc.run().unwrap();
            let mut b = [0u8; 8];
            bc.mem.read_bytes(0, &mut b);
            ag.mem.write_bytes(me * 8, &[b[0] + me as u8; 8]);
            ag.run().unwrap();
            bar.wait().unwrap();
            let mut buf = vec![0u8; n * 8];
            ag.mem.read_bytes(0, &mut buf);
            for src in 0..n {
                assert_eq!(buf[src * 8], 100 + epoch + src as u8);
            }
        }
        true
    });
    assert!(results.into_iter().all(|b| b));
}

#[test]
fn collectives_rebuild_under_membership_epoch_bump_32_ranks() {
    // A rank dies and rejoins between two phases of a 32-rank job. The
    // surviving world rebuilds its collectives with the *same* instance
    // numbers — the membership epoch folded into the tag block by
    // `tag_range_epoch` is what keeps the rebuilt setup exchanges from
    // cross-matching anything left over from epoch 0.
    let n = 32usize;
    let count = 3usize;
    // Long enough that every in-flight epoch-0 delivery has drained and
    // the kill/revive pair lands inside every other rank's sleep.
    const SETTLE: u64 = 1_000_000; // 1 ms of virtual time
    let results = run_mpi_world(fabric(n), move |comm| {
        let ep = comm.ep_shared();
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let me = comm.rank();

        // ---- phase 1: epoch 0 --------------------------------------
        let mut bar = NotifiedBarrier::new(&unr, comm, 0);
        let mut ar = NotifiedAllreduce::new(&unr, comm, count, 0);
        let input: Vec<f64> = (0..count).map(|i| (me * 100 + i + 1) as f64).collect();
        ar.write_input(&input);
        ar.run().unwrap();
        let mut phase1 = vec![0.0; count];
        ar.read_result(&mut phase1);
        bar.wait().unwrap();
        assert_eq!(unr.epoch().raw(), 0);

        // ---- the failure -------------------------------------------
        // Everyone parks; once the world is quiet, rank 0 kills rank 31
        // and revives it (epoch 0 -> 2, generation 0 -> 1).
        ep.sleep(SETTLE);
        if me == 0 {
            ep.kill_rank(n - 1);
            ep.revive_rank(n - 1);
        }
        ep.sleep(2 * SETTLE);
        assert_eq!(unr.epoch().raw(), 2, "kill + revive each bump the epoch");
        let view = unr.membership_view();
        assert!(view.is_live(n - 1), "revived rank is live again");
        assert_eq!(view.generation[n - 1], 1, "revival is a new incarnation");
        // The rebuilt instances own tag blocks disjoint from epoch 0's.
        let old = tag_range(TagKind::Barrier, n, 0);
        let new = unr_coll::tag_range_epoch(TagKind::Barrier, n, 0, unr.epoch());
        assert!(old.end <= new.start, "{old:?} vs {new:?}");

        // ---- phase 2: same instances, epoch 2 ----------------------
        let mut bar2 = NotifiedBarrier::new(&unr, comm, 0);
        let mut ar2 = NotifiedAllreduce::new(&unr, comm, count, 0);
        let input2: Vec<f64> = input.iter().map(|v| v + 0.5).collect();
        ar2.write_input(&input2);
        ar2.run().unwrap();
        let mut phase2 = vec![0.0; count];
        ar2.read_result(&mut phase2);
        bar2.wait().unwrap();
        (phase1, phase2)
    });
    let expect1: Vec<f64> = (0..count)
        .map(|i| (0..n).map(|r| (r * 100 + i + 1) as f64).sum())
        .collect();
    let expect2: Vec<f64> = expect1.iter().map(|v| v + 0.5 * n as f64).collect();
    for (r, (p1, p2)) in results.iter().enumerate() {
        assert_eq!(p1, &expect1, "rank {r} phase 1");
        assert_eq!(p2, &expect2, "rank {r} phase 2");
    }
}
