//! Multi-NIC aggregation (paper Figure 2): one large message is striped
//! across both NICs of a TH-XY-like node; the receiver still waits on a
//! single signal that fires exactly when every sub-message has landed —
//! regardless of the out-of-order arrival the multi-rail fabric causes.
//!
//! Run with: `cargo run -p unr-examples --example multi_nic`

use unr_core::{convert, Unr, UnrConfig};
use unr_minimpi::run_mpi_world;
use unr_simnet::{to_us, Platform};

const SIZE: usize = 2 << 20; // 2 MiB

fn run(stripes: usize) -> (u64, u64) {
    let mut fabric = Platform::th_xy().fabric_config(2, 1);
    fabric.seed = 5;
    let results = run_mpi_world(fabric, move |comm| {
        let ucfg = UnrConfig {
            stripe_threshold: 64 * 1024,
            max_stripes: stripes,
            ..UnrConfig::default()
        };
        let unr = Unr::init(comm.ep_shared(), ucfg);
        let mem = unr.mem_reg(SIZE);
        if comm.rank() == 0 {
            mem.write_bytes(0, &vec![0x5Au8; SIZE]);
            let blk = unr.blk_init(&mem, 0, SIZE, None);
            let rmt = convert::recv_blk(comm, 1, 0);
            let t0 = comm.ep().now();
            unr.put(&blk, &rmt).unwrap();
            comm.recv(Some(1), 1); // receiver's "landed" ack
            let dt = comm.ep().now() - t0;
            (
                dt,
                unr.stats()
                    .sub_messages
                    .load(std::sync::atomic::Ordering::Relaxed),
            )
        } else {
            let sig = unr.sig_init(1);
            let blk = unr.blk_init(&mem, 0, SIZE, Some(&sig));
            convert::send_blk(comm, 0, 0, &blk);
            unr.sig_wait(&sig).unwrap();
            let mut buf = vec![0u8; SIZE];
            mem.read_bytes(0, &mut buf);
            assert!(buf.iter().all(|&b| b == 0x5A), "payload intact");
            assert!(!sig.overflowed(), "exactly one aggregated trigger");
            comm.send(0, 1, &[]);
            (0, 0)
        }
    });
    results[0]
}

fn main() {
    println!("2 MiB notified PUT on a TH-XY-like node (2 x 200 Gbps NICs):");
    let (t1, m1) = run(1);
    println!("  single NIC : {:>8.1} us  ({} sub-message)", to_us(t1), m1);
    let (t2, m2) = run(2);
    println!(
        "  dual NIC   : {:>8.1} us  ({} sub-messages, MMAS-aggregated)",
        to_us(t2),
        m2
    );
    println!("  speedup    : {:.2}x", t1 as f64 / t2 as f64);
}
