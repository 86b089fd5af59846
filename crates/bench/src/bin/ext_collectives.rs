//! Extension — UNR-based collectives vs two-sided collectives.
//!
//! The paper's §IV-E.3 proposes building collective operations as
//! acceleration libraries over UNR (and its future work mentions a
//! brain-simulation workload dominated by repeated broadcasts). This
//! bench compares the persistent notified-RMA collectives of `unr-coll`
//! against the mini-MPI (two-sided) implementations for repeated epochs
//! — the regime persistent plans are designed for.
//!
//! The closing "at scale" table is the 64-rank slice: a sub-eager
//! direct-exchange allgather with the summed-MMAS small-message
//! coalescer (`agg_eager_max = 512`, DESIGN.md §5e) off vs on. It
//! maps the coalescer's *boundary*: a 64-rank allgather is 63 tiny
//! puts to 63 **distinct** destinations, so every per-destination
//! ring holds exactly one put — nothing folds, and the pack/flush
//! overhead is pure cost on a latency-bound exchange. Contrast a
//! same-destination small-put storm, where the identical machinery
//! gains 26.9× (EXPERIMENTS.md): aggregation is a throughput
//! device for repeated same-destination traffic, not a latency device
//! for one-shot fan-out. The collectives' own at-scale win is the
//! plain `unr-coll` column (summed-signal exchange vs two-sided MPI).

use std::sync::Arc;

use unr_bench::{fmt_size, print_table};
use unr_coll::{NotifiedAllgather, NotifiedBcast};
use unr_core::{Unr, UnrConfig};
use unr_minimpi::run_mpi_world;
use unr_simnet::{to_us, Ns, Platform};

const EPOCHS: usize = 20;

/// Build the UNR config for a pair run: `agg_eager_max = 0` is the
/// plain engine, anything else arms the coalescer.
fn unr_cfg(agg_eager_max: usize) -> UnrConfig {
    UnrConfig::builder()
        .agg_eager_max(agg_eager_max)
        .build()
        .expect("ext_collectives config")
}

fn bcast_pair(n: usize, size: usize, agg_eager_max: usize) -> (Ns, Ns) {
    let mut fabric = Platform::th_xy().fabric_config(n, 1);
    fabric.nic.jitter_frac = 0.0;
    let results = run_mpi_world(fabric, move |comm| {
        let payload = vec![0x77u8; size];
        // Two-sided binomial bcast.
        let t0 = comm.ep().now();
        for _ in 0..EPOCHS {
            let data = if comm.rank() == 0 { &payload[..] } else { &[] };
            let got = unr_minimpi::bcast(comm, 0, data);
            assert_eq!(got.len(), size);
        }
        let mpi = comm.ep().now() - t0;
        // Notified bcast.
        let unr = Unr::init(comm.ep_shared(), unr_cfg(agg_eager_max));
        let mut bc = NotifiedBcast::new(&unr, comm, size, 0, 0);
        let t1 = comm.ep().now();
        for _ in 0..EPOCHS {
            if bc.is_root() {
                bc.mem.write_bytes(0, &payload);
            }
            bc.run().unwrap();
        }
        let notified = comm.ep().now() - t1;
        (mpi, notified)
    });
    // Completion = the slowest rank (a root can fire-and-forget in the
    // two-sided version; the collective is only done when the last rank
    // holds the data).
    (
        results.iter().map(|r| r.0).max().unwrap(),
        results.iter().map(|r| r.1).max().unwrap(),
    )
}

fn allgather_pair(n: usize, block: usize, agg_eager_max: usize) -> (Ns, Ns) {
    let mut fabric = Platform::th_xy().fabric_config(n, 1);
    fabric.nic.jitter_frac = 0.0;
    let results = run_mpi_world(fabric, move |comm| {
        let me = comm.rank();
        let mine = vec![me as u8; block];
        let t0 = comm.ep().now();
        for _ in 0..EPOCHS {
            let all = unr_minimpi::allgather_bytes(comm, &mine);
            assert_eq!(all.len(), comm.size());
        }
        let mpi = comm.ep().now() - t0;
        let unr = Unr::init(comm.ep_shared(), unr_cfg(agg_eager_max));
        let unr = Arc::clone(&unr);
        let mut ag = NotifiedAllgather::new(&unr, comm, block, 0);
        let t1 = comm.ep().now();
        for _ in 0..EPOCHS {
            ag.mem.write_bytes(me * block, &mine);
            ag.run().unwrap();
        }
        let notified = comm.ep().now() - t1;
        (mpi, notified)
    });
    (
        results.iter().map(|r| r.0).max().unwrap(),
        results.iter().map(|r| r.1).max().unwrap(),
    )
}

fn main() {
    let mut rows = Vec::new();
    for (n, size) in [(4usize, 1024usize), (8, 1024), (8, 64 * 1024), (16, 4096)] {
        let (mpi, notified) = bcast_pair(n, size, 0);
        rows.push(vec![
            format!("{n}"),
            fmt_size(size),
            format!("{:.1}", to_us(mpi) / EPOCHS as f64),
            format!("{:.1}", to_us(notified) / EPOCHS as f64),
            format!("{:.2}x", mpi as f64 / notified as f64),
        ]);
    }
    print_table(
        "Extension — broadcast: two-sided binomial vs notified binomial (per epoch)",
        &["ranks", "size", "mini-MPI (us)", "unr-coll (us)", "speedup"],
        &rows,
    );

    let mut rows = Vec::new();
    for (n, block) in [(4usize, 1024usize), (8, 1024), (8, 16 * 1024)] {
        let (mpi, notified) = allgather_pair(n, block, 0);
        rows.push(vec![
            format!("{n}"),
            fmt_size(block),
            format!("{:.1}", to_us(mpi) / EPOCHS as f64),
            format!("{:.1}", to_us(notified) / EPOCHS as f64),
            format!("{:.2}x", mpi as f64 / notified as f64),
        ]);
    }
    print_table(
        "Extension — allgather: gather+bcast (two-sided) vs notified ring (per epoch)",
        &[
            "ranks",
            "block",
            "mini-MPI (us)",
            "unr-coll (us)",
            "speedup",
        ],
        &rows,
    );

    // At scale: 64 ranks, sub-eager blocks, coalescer off vs on. One
    // put per destination means nothing folds — the table quantifies
    // the overhead side of the §IV-E.4 trade-off (see module docs).
    // Skipped under --quick (64-rank worlds are slow on small CI
    // boxes).
    if std::env::args().any(|a| a == "--quick") {
        return;
    }
    let mut rows = Vec::new();
    for (n, block) in [(16usize, 256usize), (64, 256)] {
        let (mpi, plain) = allgather_pair(n, block, 0);
        let (_, agg) = allgather_pair(n, block, 512);
        rows.push(vec![
            format!("{n}"),
            fmt_size(block),
            format!("{:.1}", to_us(mpi) / EPOCHS as f64),
            format!("{:.1}", to_us(plain) / EPOCHS as f64),
            format!("{:.1}", to_us(agg) / EPOCHS as f64),
            format!("{:.2}x", plain as f64 / agg as f64),
            format!("{:.2}x", mpi as f64 / agg as f64),
        ]);
    }
    print_table(
        "Extension at scale — small-block allgather, coalescer off vs on (per epoch)",
        &[
            "ranks",
            "block",
            "mini-MPI (us)",
            "unr-coll (us)",
            "unr-coll+agg (us)",
            "agg win",
            "vs MPI",
        ],
        &rows,
    );
}
