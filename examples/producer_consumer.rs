//! Producer–consumer pipeline with multi-message aggregation.
//!
//! Four producers each stream blocks into one consumer's buffer; the
//! consumer waits on a **single MMAS signal** whose `num_event` counts
//! all producers (paper §IV-B: "users can verify the receipt of
//! multiple messages from one or multiple sources with a single
//! signal"). The consumer never exchanges per-producer acknowledgments
//! inside the loop — the epoch handshake is one aggregated broadcast.
//!
//! Run with: `cargo run -p unr-examples --example producer_consumer`

use unr_core::{convert, Unr, UnrConfig};
use unr_minimpi::run_mpi_world;
use unr_simnet::{to_us, FabricConfig};

const EPOCHS: usize = 10;
const BLOCK: usize = 8 * 1024;

fn main() {
    let producers = 4;
    let world = producers + 1;
    let results = run_mpi_world(FabricConfig::test_default(world), move |comm| {
        let me = comm.rank();
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        if me == 0 {
            // Consumer: one region with one slot per producer, one
            // signal aggregating all of them.
            let mem = unr.mem_reg(BLOCK * producers);
            let sig = unr.sig_init(producers as i64);
            for p in 0..producers {
                let slot = unr.blk_init(&mem, p * BLOCK, BLOCK, Some(&sig));
                convert::send_blk(comm, p + 1, 3, &slot);
            }
            let t0 = comm.ep().now();
            let mut checksum = 0u64;
            for epoch in 0..EPOCHS {
                unr.sig_wait(&sig).unwrap(); // all producers landed
                let mut buf = vec![0u8; BLOCK * producers];
                mem.read_bytes(0, &mut buf);
                for (p, chunk) in buf.chunks(BLOCK).enumerate() {
                    assert!(
                        chunk.iter().all(|&b| b == (epoch * 10 + p + 1) as u8),
                        "epoch {epoch} producer {p} corrupted"
                    );
                    checksum += chunk[0] as u64;
                }
                sig.reset().unwrap(); // buffer consumed: re-arm
                                      // Epoch handshake doubles as pre-synchronization.
                unr_minimpi::bcast(comm, 0, &[epoch as u8]);
            }
            let dt = comm.ep().now() - t0;
            println!(
                "consumer: {EPOCHS} epochs x {producers} producers x {BLOCK} B \
                 in {:.1} us ({:.2} us/epoch), checksum {checksum}",
                to_us(dt),
                to_us(dt) / EPOCHS as f64
            );
            0
        } else {
            let mem = unr.mem_reg(BLOCK);
            let send_blk = unr.blk_init(&mem, 0, BLOCK, None);
            let slot = convert::recv_blk(comm, 0, 3);
            for epoch in 0..EPOCHS {
                mem.write_bytes(0, &vec![(epoch * 10 + me) as u8; BLOCK]);
                unr.put(&send_blk, &slot).unwrap();
                unr_minimpi::bcast(comm, 0, &[]);
            }
            me
        }
    });
    println!("producers done: {:?}", &results[1..]);
}
