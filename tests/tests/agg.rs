//! Property: the sender-side small-message aggregation path is
//! *observationally identical* to the per-put path — under seeded
//! drop/duplicate fault injection, across multiple seeds, the final
//! region bytes on every rank and the final MMAS signal accounting
//! (exact arrival counts, zero overflow, zero reset residue) must be
//! byte-identical whether the puts rode individual datagrams or packed
//! MSG_AGG aggregates with summed addends.
//!
//! This is the correctness half of the coalescer's contract: the bench
//! gate proves it is faster, this file proves nobody can tell the
//! difference from above.

use std::sync::Arc;

use unr_core::{convert, Unr, UnrConfig, UNR_PORT};
use unr_integration::{run_cases, Gen};
use unr_minimpi::{coll, run_mpi_on_fabric, MpiConfig};
use unr_simnet::{us, Fabric, FaultConfig, Platform};

const RANKS: usize = 4;
/// Per-(src, dst, index) landing slot pitch in the receive window.
const SLOT: usize = 256;
/// Two target signals per receiver, picked by put index parity, so an
/// aggregate carries *summed* addends for multiple keys at once.
const PARITIES: usize = 2;

/// Deterministic payload byte `j` of put `(src, dst, i)`.
fn pat(src: usize, dst: usize, i: usize, j: usize) -> u8 {
    (src * 37 + dst * 5 + i * 11 + j) as u8
}

/// One all-to-all small-put storm under `faults`; returns each rank's
/// full receive window after every signal fired exactly.
fn storm_case(
    faults: FaultConfig,
    k: usize,
    sizes: Vec<usize>, // [src * RANKS * k + dst * k + i]
    ucfg: UnrConfig,
) -> (Vec<Vec<u8>>, unr_obs::Snapshot) {
    let mut cfg = Platform::th_xy().fabric_config(2, 2);
    cfg.faults = faults;
    let fabric = Fabric::new(cfg);
    let sizes = Arc::new(sizes);
    let window = (RANKS - 1) * k * SLOT;
    let windows = run_mpi_on_fabric(&fabric, MpiConfig::default(), move |comm| {
        let unr = Unr::init(comm.ep_shared(), ucfg);
        let me = comm.rank();
        let mem = unr.mem_reg(window + k * SLOT); // recv window + send scratch
        let send_base = window;

        // Arrivals split across two signals by put-index parity; each
        // expects its exact share from every peer.
        let per_parity = |p: usize| (RANKS - 1) * ((k + (PARITIES - 1 - p)) / PARITIES);
        let sigs: Vec<_> = (0..PARITIES)
            .map(|p| unr.sig_init(per_parity(p).max(1) as i64))
            .collect();
        // Publish one full-window blk per signal; senders narrow it.
        for (p, sig) in sigs.iter().enumerate() {
            let blk = unr.blk_init(&mem, 0, window, Some(sig));
            for peer in (0..RANKS).filter(|&r| r != me) {
                convert::send_blk(comm, peer, p as i32, &blk);
            }
        }
        let mut remotes = vec![Vec::new(); RANKS]; // [dst][parity]
        for peer in (0..RANKS).filter(|&r| r != me) {
            for p in 0..PARITIES {
                remotes[peer].push(convert::recv_blk(comm, peer, p as i32));
            }
        }

        // Slot of (src, i) inside dst's window: srcs are compacted to
        // skip dst itself.
        let slot_of = |src: usize, dst: usize, i: usize| {
            let src_idx = src - usize::from(src > dst);
            (src_idx * k + i) * SLOT
        };

        for dst in (0..RANKS).filter(|&r| r != me) {
            for i in 0..k {
                let size = sizes[me * RANKS * k + dst * k + i];
                let payload: Vec<u8> = (0..size).map(|j| pat(me, dst, i, j)).collect();
                mem.write_bytes(send_base + (i % k) * SLOT, &payload);
                let blk = unr.blk_init(&mem, send_base + (i % k) * SLOT, size, None);
                let mut rmt = remotes[dst][i % PARITIES];
                rmt.offset = slot_of(me, dst, i);
                rmt.len = size;
                unr.put(&blk, &rmt).unwrap();
            }
        }

        // Exactly-once delivery: each signal fires at its exact count,
        // with no overflow and a clean reset.
        for sig in &sigs {
            unr.sig_wait(sig).unwrap();
            assert!(!sig.overflowed(), "summed arrivals overcounted");
            sig.reset().unwrap();
        }
        // Everyone's arrivals are in; drain outstanding acks before
        // teardown so late retransmissions can't outlive the world.
        coll::barrier(comm);
        for _ in 0..10_000 {
            if unr.retries_in_flight() == 0 {
                break;
            }
            unr.sleep(us(50.0));
        }
        assert_eq!(unr.retries_in_flight(), 0, "acks must drain");
        coll::barrier(comm);

        let mut got = vec![0u8; window];
        mem.read_bytes(0, &mut got);
        got
    });
    (windows, fabric.obs.metrics.snapshot())
}

fn case_faults(g: &mut Gen) -> FaultConfig {
    let mut f = FaultConfig {
        seed: g.u64(),
        dup_prob: 0.02,
        ..FaultConfig::drops(0.05)
    };
    f.dgram_ports = Some(vec![UNR_PORT]);
    f
}

fn agg_cfg() -> UnrConfig {
    UnrConfig::builder()
        .agg_eager_max(512)
        .agg_flush_puts(8)
        .build()
        .unwrap()
}

/// The property itself, over ≥3 independent fault seeds.
#[test]
fn aggregated_delivery_is_byte_identical_to_per_put_under_faults() {
    let (mut dropped, mut agg_flushes) = (0u64, 0u64);
    run_cases("agg_equivalence", 3, |g| {
        let k = g.usize_in(8, 16);
        let sizes: Vec<usize> = (0..RANKS * RANKS * k).map(|_| g.usize_in(1, 200)).collect();
        let faults = case_faults(g);

        let (plain, plain_snap) =
            storm_case(faults.clone(), k, sizes.clone(), UnrConfig::default());
        let (agg, agg_snap) = storm_case(faults, k, sizes.clone(), agg_cfg());

        // Same final bytes on every rank, whether the small puts rode
        // per-put datagrams or summed-addend aggregates.
        assert_eq!(plain, agg, "aggregation changed delivered bytes");

        // And those bytes are the *right* ones (not identically wrong):
        // every slot matches the deterministic pattern.
        for me in 0..RANKS {
            for src in (0..RANKS).filter(|&s| s != me) {
                let src_idx = src - usize::from(src > me);
                for i in 0..k {
                    let size = sizes[src * RANKS * k + me * k + i];
                    let off = (src_idx * k + i) * SLOT;
                    for j in 0..size {
                        assert_eq!(
                            agg[me][off + j],
                            pat(src, me, i, j),
                            "rank {me} slot (src {src}, put {i}) byte {j}"
                        );
                    }
                }
            }
        }

        // Both runs must have exact MMAS accounting under faults…
        for snap in [&plain_snap, &agg_snap] {
            assert_eq!(snap.counter("unr.signal.overflow_trips"), Some(0));
            assert_eq!(snap.counter("unr.signal.reset_errors"), Some(0));
            assert_eq!(snap.counter("unr.retry.exhausted"), Some(0));
        }
        // …while only the aggregated run uses the coalescer, and the
        // plain run never registers its series at all.
        assert!(plain_snap.with_prefix("unr.agg.").next().is_none());
        assert!(agg_snap.counter("unr.agg.puts_coalesced").unwrap() > 0);
        dropped += plain_snap.counter("simnet.fault.dropped").unwrap_or(0)
            + agg_snap.counter("simnet.fault.dropped").unwrap_or(0);
        agg_flushes += agg_snap
            .with_prefix("unr.agg.flush.")
            .filter_map(|(n, _)| agg_snap.counter(n))
            .sum::<u64>();
    });
    assert!(dropped > 0, "the seeds above must actually drop something");
    assert!(
        agg_flushes > 0,
        "aggregates must actually have been flushed"
    );
}
