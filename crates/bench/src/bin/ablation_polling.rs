//! Ablation — the polling-thread trade-off (paper §VI-C).
//!
//! Sweeps the polling interval of a co-located (periodic) polling agent
//! and compares against the dedicated busy-polling thread (interval 0)
//! and the level-4 hardware offload. Two effects are measured:
//!
//! * **notification latency**: a small-message ping-pong's half
//!   round-trip grows with the interval (events wait in the queue);
//! * **compute inflation**: the analytic model of cycles a co-located
//!   poller steals from computation (`UnrConfig::polling_compute_
//!   inflation`) shrinks with the interval.
//!
//! The opposite slopes are exactly why the paper proposes the level-4
//! hardware: the NIC's atomic-add unit applies the MMAS addend
//! *terminally* against the signal table — no completion event, no CQ,
//! no polling pass — so notification delay and stolen cycles are both
//! zero. The hybrid row shows the co-design composing with the reliable
//! transport: the sink still owns the data path while an idle-parked
//! ctrl drainer handles acks (DESIGN.md §5g).

use unr_bench::print_table;
use unr_core::{convert, ProgressMode, Reliability, Unr, UnrConfig};
use unr_minimpi::run_mpi_world;
use unr_simnet::{to_us, Platform, US};

fn pingpong_latency(interval_us: f64, hardware: bool, reliable: bool) -> f64 {
    let mut fabric = Platform::hpc_ib().fabric_config(2, 1);
    fabric.nic.jitter_frac = 0.0;
    if hardware {
        fabric.iface = fabric.iface.with_hardware_atomic_add();
    }
    let results = run_mpi_world(fabric, move |comm| {
        let ucfg = UnrConfig {
            progress: if hardware {
                Some(ProgressMode::Hardware)
            } else {
                Some(ProgressMode::PollingAgent {
                    interval: (interval_us * US as f64) as u64,
                })
            },
            reliability: if reliable {
                Reliability::On
            } else {
                Reliability::Auto
            },
            ..UnrConfig::default()
        };
        let unr = Unr::init(comm.ep_shared(), ucfg);
        let mem = unr.mem_reg(64);
        let sig = unr.sig_init(1);
        let me = comm.rank();
        let recv_blk = unr.blk_init(&mem, 0, 64, Some(&sig));
        let send_blk = unr.blk_init(&mem, 0, 64, None);
        let remote = convert::exchange_blk(comm, 1 - me, 0, &recv_blk);
        let iters = 40;
        let t0 = comm.ep().now();
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
        (comm.ep().now() - t0) as f64 / iters as f64 / 2.0
    });
    results[0]
}

fn main() {
    let ucfg = UnrConfig::default();
    let mut rows = Vec::new();
    rows.push(vec![
        "level-4 hardware (direct sink)".into(),
        format!("{:.2}", to_us(pingpong_latency(0.0, true, false) as u64)),
        "1.000 (no polling at all)".into(),
    ]);
    rows.push(vec![
        "level-4 hybrid (reliable, ctrl drainer)".into(),
        format!("{:.2}", to_us(pingpong_latency(0.0, true, true) as u64)),
        "1.000 (drainer idle-parks)".into(),
    ]);
    rows.push(vec![
        "dedicated spin thread (interval 0)".into(),
        format!("{:.2}", to_us(pingpong_latency(0.0, false, false) as u64)),
        "1.000 (core reserved)".into(),
    ]);
    for interval_us in [1.0, 2.0, 5.0, 10.0, 20.0, 50.0] {
        let lat = pingpong_latency(interval_us, false, false);
        let inflation = ucfg.polling_compute_inflation((interval_us * US as f64) as u64, false);
        rows.push(vec![
            format!("co-located, poll every {interval_us} us"),
            format!("{:.2}", to_us(lat as u64)),
            format!("{inflation:.3}"),
        ]);
    }
    print_table(
        "Ablation — polling interval (HPC-IB, 64 B notified put)",
        &[
            "polling mode",
            "one-way latency (us)",
            "modeled compute inflation",
        ],
        &rows,
    );
    println!(
        "\nSmall intervals keep latency low but steal cycles; large intervals\n\
         do the opposite (and risk CQ overflow). Level 4 escapes the dilemma\n\
         by ending the notification in user memory: the atomic-add sink is\n\
         the terminal step, so there is no completion event to poll and no\n\
         CQ to overflow — and the hybrid row shows the reliable transport\n\
         riding along on an idle-parked ctrl drainer without reopening it."
    );
}
