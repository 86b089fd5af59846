//! Figure 5 — multi-NIC aggregation on TH-XY (2 NICs per node).
//!
//! Two nodes, two ranks per node; each rank plays ping-pong with its
//! peer on the other node, inserting computation between receiving one
//! message and sending the next (two balls in flight per pair, as in
//! the paper's Figure 5(a1)).
//!
//! * **exclusive**: each rank is pinned to one NIC (the classic
//!   one-NIC-per-process arrangement);
//! * **shared**: each message is striped across both NICs with MMAS
//!   aggregation (UNR's multi-channel mode).
//!
//! Part (a): compute time per ball equals the one-NIC transfer time `T`
//! — sharing lets some messages be received and computed "in advance";
//! the paper's ideal gain is 1/3 at large sizes.
//! Part (b): compute time ~ N(T, 0.3T) — sharing absorbs the load
//! imbalance (~10% gain at large sizes).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use unr_bench::{fmt_size, print_table, XorShift};
use unr_core::{convert, ChannelSelect, Unr, UnrConfig};
use unr_minimpi::run_mpi_world;
use unr_simnet::{Ns, Platform};

const ROUNDS: usize = 30;

/// One configuration run; returns aggregate throughput in bytes/us
/// (sum over the two pairs). `balls` is the pipeline depth per pair:
/// 2 reproduces part (a); 4 saturates the CPU so the fixed-compute
/// baseline gains nothing from sharing, isolating part (b)'s
/// imbalance-absorption effect.
fn run_case(size: usize, shared: bool, jitter_sigma: f64, seed: u64, balls: usize) -> f64 {
    let mut fabric = Platform::th_xy().fabric_config(2, 2);
    fabric.seed = seed;
    fabric.nic.jitter_frac = 0.0;
    // One-NIC transfer time for this size (the paper's T).
    let t_net = fabric.nic.bandwidth.transfer_time(size) + fabric.nic.latency;
    let total_bytes = Arc::new(AtomicU64::new(0));
    let tb = Arc::clone(&total_bytes);

    let elapsed = run_mpi_world(fabric, move |comm| {
        let me = comm.rank();
        // Pairs: (0 <-> 2), (1 <-> 3); ranks 0,1 on node 0.
        let peer = (me + 2) % 4;
        let ucfg = UnrConfig {
            channel: ChannelSelect::Auto,
            stripe_threshold: if shared { 1 } else { usize::MAX },
            max_stripes: if shared { 2 } else { 1 },
            // Exclusive: rank r is pinned to NIC r%2 of its node.
            pin_nic: (!shared).then_some(me % 2),
            ..UnrConfig::default()
        };
        let unr = Unr::init(comm.ep_shared(), ucfg);
        let mem = unr.mem_reg(size * balls);
        // One signal per ball slot.
        let sigs: Vec<_> = (0..balls).map(|_| unr.sig_init(1)).collect();
        let my_blks: Vec<_> = (0..balls)
            .map(|b| unr.blk_init(&mem, b * size, size, Some(&sigs[b])))
            .collect();
        let send_blks: Vec<_> = (0..balls)
            .map(|b| unr.blk_init(&mem, b * size, size, None))
            .collect();
        let mut remotes = Vec::new();
        for (b, blk) in my_blks.iter().enumerate() {
            remotes.push(convert::exchange_blk(comm, peer, b as i32, blk));
        }
        unr_minimpi::barrier(comm);
        let mut rng = XorShift::new(seed ^ ((me as u64 + 1) * 7919));
        let t0 = comm.ep().now();
        // Node-0 ranks serve; node-1 ranks start the balls.
        if me >= 2 {
            for (sb, rb) in send_blks.iter().zip(&remotes) {
                unr.put(sb, rb).unwrap();
            }
        }
        let rounds = if me >= 2 { ROUNDS - 1 } else { ROUNDS };
        for _ in 0..rounds {
            for b in 0..balls {
                unr.sig_wait(&sigs[b]).unwrap();
                sigs[b].reset().unwrap();
                // Compute on the received ball.
                let t = if jitter_sigma > 0.0 {
                    rng.next_normal(t_net as f64, jitter_sigma * t_net as f64)
                        .max(0.0) as Ns
                } else {
                    t_net
                };
                comm.ep().advance(t);
                unr.put(&send_blks[b], &remotes[b]).unwrap();
            }
        }
        // Collect the final balls without replying.
        if me >= 2 {
            for sig in &sigs {
                unr.sig_wait(sig).unwrap();
                sig.reset().unwrap();
            }
        }
        let dt = comm.ep().now() - t0;
        tb.fetch_add((ROUNDS * balls * size * 2) as u64, Ordering::Relaxed);
        dt
    });
    // Aggregate throughput: total bytes moved / max elapsed.
    let max_dt = *elapsed.iter().max().expect("ranks") as f64 / 1000.0; // us
    total_bytes.load(Ordering::Relaxed) as f64 / 2.0 / max_dt
}

fn main() {
    // Accept `--part a`, `--part=b`, or a bare `a`/`b`/`ab`.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let part = args
        .iter()
        .filter(|a| *a != "--part")
        .map(|a| a.trim_start_matches("--part=").to_string())
        .find(|a| matches!(a.as_str(), "a" | "b" | "ab"))
        .unwrap_or_else(|| {
            if !args.is_empty() && args.iter().any(|a| a != "--part") {
                eprintln!("warning: unrecognized arguments {args:?}; running both parts");
            }
            "ab".into()
        });
    let sizes = [64 * 1024, 256 * 1024, 1 << 20, 2 << 20, 4 << 20];

    if part.contains('a') {
        let mut rows = Vec::new();
        for &size in &sizes {
            let excl = run_case(size, false, 0.0, 11, 2);
            let shared = run_case(size, true, 0.0, 11, 2);
            rows.push(vec![
                fmt_size(size),
                format!("{:.0}", excl),
                format!("{:.0}", shared),
                format!("{:+.1}%", (shared / excl - 1.0) * 100.0),
            ]);
        }
        print_table(
            "Figure 5(a) — fixed compute = one-NIC transfer time (TH-XY, 2 ranks x 2 NICs per node)",
            &[
                "size",
                "exclusive NICs (MB/s-ish)",
                "shared NICs (MB/s-ish)",
                "throughput gain",
            ],
            &rows,
        );
    }

    if part.contains('b') {
        let mut rows = Vec::new();
        for &size in &sizes {
            // Average over several seeds: the imbalance is stochastic.
            let seeds = [3u64, 17, 29, 43];
            let mut excl = 0.0;
            let mut shared = 0.0;
            for &s in &seeds {
                excl += run_case(size, false, 0.3, s, 4);
                shared += run_case(size, true, 0.3, s, 4);
            }
            excl /= seeds.len() as f64;
            shared /= seeds.len() as f64;
            rows.push(vec![
                fmt_size(size),
                format!("{:.0}", excl),
                format!("{:.0}", shared),
                format!("{:+.1}%", (shared / excl - 1.0) * 100.0),
            ]);
        }
        print_table(
            "Figure 5(b) — compute ~ N(T, 0.3T): sharing absorbs load imbalance",
            &["size", "exclusive NICs", "shared NICs", "throughput gain"],
            &rows,
        );
    }
}
