//! Irregular broadcast — the paper's future-work workload (§VIII): "a
//! brain simulation application with many irregular broadcast
//! operations in each time step for simulating spike broadcasts of
//! neurons."
//!
//! A toy spiking network: each rank owns a population of neurons; in
//! every time step a data-dependent subset fires, and each firing
//! neuron's spike must reach every other rank. We run the same workload
//! two ways:
//!
//! * **two-sided**: every rank allgathers its spike list via mini-MPI;
//! * **UNR**: spikes are packed into fixed bitmap slots (small-message
//!   aggregation, §IV-E.4) and distributed with a persistent
//!   latency-optimal notified allgather (`unr-coll`,
//!   recursive doubling), with signals as the only synchronization.
//!
//! Run with: `cargo run --release -p unr-examples --example irregular_broadcast`

use unr_coll::NotifiedAllgatherRd;
use unr_core::{Unr, UnrConfig};
use unr_minimpi::run_mpi_world;
use unr_simnet::{to_us, Platform};

const STEPS: usize = 20;
const NEURONS_PER_RANK: usize = 256;
/// Fixed-size per-rank spike slot (count-prefixed bitmap).
const SLOT: usize = 8 + NEURONS_PER_RANK / 8;

/// Deterministic "dynamics": which neurons fire this step.
fn fires(rank: usize, step: usize, neuron: usize) -> bool {
    let h = neuron
        .wrapping_mul(2654435761)
        .wrapping_add(step.wrapping_mul(40503))
        .wrapping_add(rank.wrapping_mul(97));
    (h >> 7).is_multiple_of(10) // ~10% firing rate
}

fn pack_spikes(rank: usize, step: usize, buf: &mut [u8]) -> u64 {
    buf.fill(0);
    let mut count = 0u64;
    for n in 0..NEURONS_PER_RANK {
        if fires(rank, step, n) {
            buf[8 + n / 8] |= 1 << (n % 8);
            count += 1;
        }
    }
    buf[0..8].copy_from_slice(&count.to_le_bytes());
    count
}

fn main() {
    let ranks = 8;
    let mut fabric = Platform::th_xy().fabric_config(ranks, 1);
    fabric.nic.jitter_frac = 0.0;
    let results = run_mpi_world(fabric, move |comm| {
        let me = comm.rank();
        let mut slot = vec![0u8; SLOT];

        // ---- two-sided baseline ------------------------------------
        let t0 = comm.ep().now();
        let mut total_spikes_mpi = 0u64;
        for step in 0..STEPS {
            pack_spikes(me, step, &mut slot);
            let all = unr_minimpi::allgather_bytes(comm, &slot);
            for blob in &all {
                total_spikes_mpi += u64::from_le_bytes(blob[0..8].try_into().unwrap());
            }
        }
        let two_sided = comm.ep().now() - t0;

        // ---- UNR: persistent notified allgather ---------------------
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let mut ag = NotifiedAllgatherRd::new(&unr, comm, SLOT, 0);
        let t1 = comm.ep().now();
        let mut total_spikes_unr = 0u64;
        for step in 0..STEPS {
            pack_spikes(me, step, &mut slot);
            ag.mem.write_bytes(me * SLOT, &slot);
            ag.run().unwrap();
            let mut all = vec![0u8; ranks * SLOT];
            ag.mem.read_bytes(0, &mut all);
            for r in 0..ranks {
                total_spikes_unr +=
                    u64::from_le_bytes(all[r * SLOT..r * SLOT + 8].try_into().unwrap());
            }
        }
        let unr_time = comm.ep().now() - t1;
        assert_eq!(
            total_spikes_mpi, total_spikes_unr,
            "both paths must observe identical spike totals"
        );
        (two_sided, unr_time, total_spikes_unr)
    });

    let (mpi, unr, spikes) = results
        .iter()
        .fold((0, 0, 0), |acc, r| (acc.0.max(r.0), acc.1.max(r.1), r.2));
    println!(
        "irregular spike broadcast: {ranks} ranks x {NEURONS_PER_RANK} neurons, {STEPS} steps"
    );
    println!("  spikes observed per rank : {spikes}");
    println!(
        "  two-sided allgather      : {:>8.1} us ({:.2} us/step)",
        to_us(mpi),
        to_us(mpi) / STEPS as f64
    );
    println!(
        "  UNR notified allgather   : {:>8.1} us ({:.2} us/step)",
        to_us(unr),
        to_us(unr) / STEPS as f64
    );
    println!(
        "  speedup                  : {:.2}x",
        mpi as f64 / unr as f64
    );
}
