//! Multi-thread stress: the lock-free data path under a real OS-thread
//! storm, with exact counter accounting.
//!
//! Every rank is an OS thread, and the interval-0 polling agent's steps
//! run on whichever rank thread dispatches them, so the sharded signal
//! table, the per-destination retry shards and the region-map snapshot
//! all see genuine cross-thread traffic. The assertions are exact — not
//! `>=` — because the conservative scheduler delivers every
//! sub-message exactly once (reliable mode dedups retransmits before
//! the signal apply), so any lost or double-counted update under the
//! new lock-free paths shows up as an off-by-N here.

use std::sync::atomic::Ordering;

use unr_core::{convert, Reliability, Unr, UnrConfig};
use unr_minimpi::{coll, run_mpi_on_fabric, MpiConfig};
use unr_simnet::{Fabric, Platform};

const NODES: usize = 4;
const RANKS_PER_NODE: usize = 2;
const NICS: usize = 4;
const MSG: usize = 128 * 1024; // > stripe_threshold -> 4 sub-messages/put
const ITERS: usize = 40;

/// Per-rank counter snapshot taken just before the world tears down.
struct Counters {
    puts: u64,
    sub_messages: u64,
    bytes_put: u64,
    events_applied: u64,
    stale_rejects: u64,
    retries_in_flight: usize,
}

fn storm_counters(reliability: Reliability) -> Vec<Counters> {
    let mut cfg = Platform::th_xy().fabric_config(NODES, RANKS_PER_NODE);
    cfg.nics_per_node = NICS;
    cfg.seed = 0x57AE55;
    let fabric = Fabric::new(cfg);
    let ucfg = UnrConfig {
        reliability,
        ..UnrConfig::default()
    };
    run_mpi_on_fabric(&fabric, MpiConfig::default(), move |comm| {
        let unr = Unr::init(comm.ep_shared(), ucfg);
        // The default progress mode on this fabric is the dedicated
        // interval-0 polling agent — the config under test.
        assert!(matches!(
            unr.progress_mode(),
            unr_core::ProgressMode::PollingAgent { interval: 0 }
        ));
        let n = comm.size();
        let me = comm.rank();
        let mem = unr.mem_reg(2 * MSG);
        let recv_sig = unr.sig_init(ITERS as i64);
        let recv_blk = unr.blk_init(&mem, MSG, MSG, Some(&recv_sig));
        let src = (me + n - 1) % n;
        let dst = (me + 1) % n;
        convert::send_blk(comm, dst, 3, &recv_blk);
        let rmt = convert::recv_blk(comm, src, 3);
        let send_blk = unr.blk_init(&mem, 0, MSG, None);

        coll::barrier(comm);
        for _ in 0..ITERS {
            // Churn the signal table's free list alongside the storm:
            // every iteration allocates and frees a scratch signal, so
            // slots recycle under new generations while the hot signal
            // keeps taking lock-free applies from the agent's passes.
            let scratch = unr.sig_init(1);
            drop(scratch);
            unr.put(&send_blk, &rmt).unwrap();
        }
        unr.sig_wait(&recv_sig).unwrap();
        assert!(!recv_sig.overflowed());
        // The receive signal only proves *inbound* traffic landed; our
        // own last ACKs may still be in flight. Quiesce before the
        // snapshot (the agent drains them while we sleep).
        while unr.retries_in_flight() > 0 {
            unr.sleep(unr_simnet::us(10.0));
        }
        coll::barrier(comm);

        let s = unr.stats();
        let g = unr.signal_stats();
        Counters {
            puts: s.puts.load(Ordering::Relaxed),
            sub_messages: s.sub_messages.load(Ordering::Relaxed),
            bytes_put: s.bytes_put.load(Ordering::Relaxed),
            events_applied: g.events_applied.load(Ordering::Relaxed),
            stale_rejects: g.stale_rejects.load(Ordering::Relaxed),
            retries_in_flight: unr.retries_in_flight(),
        }
    })
}

/// 8 ranks x 4 NICs, interval-0 agent, reliable transport: every
/// counter lands exactly on the arithmetic total.
#[test]
fn storm_counters_are_exact_reliable() {
    let per_rank = storm_counters(Reliability::On);
    assert_eq!(per_rank.len(), NODES * RANKS_PER_NODE);
    for (rank, c) in per_rank.iter().enumerate() {
        assert_eq!(c.puts, ITERS as u64, "rank {rank}: puts");
        // GLEX on 4 NICs stripes every 128 KiB put into 4 sub-messages.
        assert_eq!(c.sub_messages, (ITERS * 4) as u64, "rank {rank}: subs");
        assert_eq!(c.bytes_put, (ITERS * MSG) as u64, "rank {rank}: bytes");
        // Receiver side: one lock-free apply per arriving sub-message,
        // no duplicates (dedup) and no losses (conservative fabric).
        assert_eq!(
            c.events_applied,
            (ITERS * 4) as u64,
            "rank {rank}: events applied"
        );
        assert_eq!(c.stale_rejects, 0, "rank {rank}: stale rejects");
        assert_eq!(c.retries_in_flight, 0, "rank {rank}: pending retries");
    }
}

/// Same storm over the raw (unreliable) RMA path: the striping and
/// signal totals are identical, proving the retry shards add no
/// traffic of their own on a clean fabric.
#[test]
fn storm_counters_are_exact_unreliable() {
    let per_rank = storm_counters(Reliability::Off);
    for (rank, c) in per_rank.iter().enumerate() {
        assert_eq!(c.puts, ITERS as u64, "rank {rank}: puts");
        assert_eq!(c.sub_messages, (ITERS * 4) as u64, "rank {rank}: subs");
        assert_eq!(
            c.events_applied,
            (ITERS * 4) as u64,
            "rank {rank}: events applied"
        );
        assert_eq!(c.stale_rejects, 0, "rank {rank}: stale rejects");
        assert_eq!(c.retries_in_flight, 0, "rank {rank}: pending retries");
    }
}
