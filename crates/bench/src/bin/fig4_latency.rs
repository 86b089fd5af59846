//! Figure 4 — latency test: UNR notified PUT vs MPI-RMA under three
//! synchronization schemes (fence, PSCW, lock/flush), on two nodes of
//! each of the four platforms.
//!
//! Methodology (mirrors OSU-style ping-pong): two ranks bounce a
//! message; each scheme's reported number is the half round-trip time,
//! i.e. the latency for the data to arrive *and the receiver to know
//! it*. Virtual time makes the measurements noise-free.
//!
//! Expected shape (paper §VI-B): UNR below fence and lock/flush
//! everywhere; PSCW competitive with UNR at small sizes on the Verbs
//! platforms because it degenerates to two-sided messaging.

use unr_bench::{fmt_size, print_table};
use unr_core::{convert, Unr, UnrConfig};
use unr_minimpi::{run_mpi_world, Comm, Win};
use unr_simnet::{to_us, Ns, Platform};

const WARMUP: usize = 5;
const ITERS: usize = 30;

/// UNR notified-put ping-pong; returns one-way latency in ns.
fn unr_pingpong(comm: &Comm, size: usize) -> f64 {
    let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
    let mem = unr.mem_reg(size.max(8));
    let sig = unr.sig_init(1);
    let me = comm.rank();
    let peer = 1 - me;
    // The signal is bound to the *receive* role of the buffer; the send
    // block is unsignaled (we don't need local completion in a
    // ping-pong: receipt of the reply implies it).
    let recv_blk = unr.blk_init(&mem, 0, size, Some(&sig));
    let my_blk = unr.blk_init(&mem, 0, size, None);
    let remote = convert::exchange_blk(comm, peer, 0, &recv_blk);
    let mut t0: Ns = 0;
    for it in 0..WARMUP + ITERS {
        if it == WARMUP {
            unr_minimpi::barrier(comm);
            t0 = comm.ep().now();
        }
        if me == 0 {
            unr.put(&my_blk, &remote).unwrap();
            unr.sig_wait(&sig).unwrap();
            sig.reset().unwrap();
        } else {
            unr.sig_wait(&sig).unwrap();
            sig.reset().unwrap();
            unr.put(&my_blk, &remote).unwrap();
        }
    }
    let dt = comm.ep().now() - t0;
    dt as f64 / (ITERS as f64) / 2.0
}

/// Fence-synchronized MPI-RMA ping-pong (active target, collective).
fn fence_pingpong(comm: &Comm, size: usize) -> f64 {
    let win = Win::create(comm, size.max(8), 40);
    let me = comm.rank();
    let payload = vec![0xABu8; size];
    win.fence();
    let mut t0: Ns = 0;
    for it in 0..WARMUP + ITERS {
        if it == WARMUP {
            t0 = comm.ep().now();
        }
        // Half-round: the sender of this round puts; the fence makes it
        // visible and known on both sides.
        if it % 2 == me {
            win.put(&payload, 1 - me, 0);
        }
        win.fence();
    }
    let dt = comm.ep().now() - t0;
    dt as f64 / ITERS as f64
}

/// PSCW-synchronized ping-pong.
fn pscw_pingpong(comm: &Comm, size: usize) -> f64 {
    let win = Win::create(comm, size.max(8), 41);
    let me = comm.rank();
    let peer = 1 - me;
    let payload = vec![0xCDu8; size];
    let mut t0: Ns = 0;
    for it in 0..WARMUP + ITERS {
        if it == WARMUP {
            unr_minimpi::barrier(comm);
            t0 = comm.ep().now();
        }
        if me == 0 {
            win.start(&[peer]);
            win.put(&payload, peer, 0);
            win.complete(&[peer]);
            win.post(&[peer]);
            win.wait(&[peer]);
        } else {
            win.post(&[peer]);
            win.wait(&[peer]);
            win.start(&[peer]);
            win.put(&payload, peer, 0);
            win.complete(&[peer]);
        }
    }
    // Quiesce: rank 0 still owes a receive epoch? The loop is symmetric
    // per iteration, so both sides end balanced.
    let dt = comm.ep().now() - t0;
    dt as f64 / ITERS as f64 / 2.0
}

/// Lock/flush (passive target) ping-pong: the target polls its window
/// memory for the ball counter, like OSU's passive-target tests.
///
/// No mid-stream barrier: passive-target progress requires the peer to
/// keep serving the window, so the ranks synchronize only through the
/// balls themselves (virtual clocks are globally consistent, so local
/// timestamps are directly comparable). A final "done" message keeps
/// the target serving until the origin's last flush/unlock completes.
fn lock_pingpong(comm: &Comm, size: usize) -> f64 {
    let win = Win::create(comm, size.max(16), 42);
    let me = comm.rank();
    let peer = 1 - me;
    let mut payload = vec![0u8; size.max(16)];
    let mut t0: Ns = 0;
    for it in 0..WARMUP + ITERS {
        if it == WARMUP {
            t0 = comm.ep().now();
        }
        let ball = it as u64 + 1;
        if me == 0 {
            payload[0..8].copy_from_slice(&ball.to_le_bytes());
            win.lock(peer);
            win.put(&payload, peer, 0);
            win.flush(peer);
            win.unlock(peer);
            // Wait for the reply ball, serving window progress.
            loop {
                win.progress();
                let mut b = [0u8; 8];
                win.read_local(0, &mut b);
                if u64::from_le_bytes(b) >= ball {
                    break;
                }
                comm.ep().sleep(200);
            }
        } else {
            loop {
                win.progress();
                let mut b = [0u8; 8];
                win.read_local(0, &mut b);
                if u64::from_le_bytes(b) >= ball {
                    break;
                }
                comm.ep().sleep(200);
            }
            payload[0..8].copy_from_slice(&ball.to_le_bytes());
            win.lock(peer);
            win.put(&payload, peer, 0);
            win.flush(peer);
            win.unlock(peer);
        }
    }
    let dt = comm.ep().now() - t0;
    // Drain: rank 1's final flush/unlock still needs rank 0's window
    // service; hand-shake completion over two-sided messaging.
    if me == 0 {
        let req = comm.irecv(Some(peer), 77);
        loop {
            win.progress();
            if comm.test_recv(&req) {
                break;
            }
            comm.ep().sleep(200);
        }
        let _ = comm.wait_recv(req);
    } else {
        comm.send(peer, 77, &[]);
    }
    dt as f64 / ITERS as f64 / 2.0
}

fn main() {
    let sizes = [8usize, 64, 512, 4096, 32 * 1024, 256 * 1024, 1 << 20];
    for platform in Platform::all() {
        let mut rows = Vec::new();
        for &size in &sizes {
            let mut cfg = platform.fabric_config(2, 1);
            cfg.seed = 99;
            // Jitter off for clean latency curves (as in a quiet fabric).
            cfg.nic.jitter_frac = 0.0;
            let res = run_mpi_world(cfg, move |comm| {
                let unr = unr_pingpong(comm, size);
                let fence = fence_pingpong(comm, size);
                let pscw = pscw_pingpong(comm, size);
                let lock = lock_pingpong(comm, size);
                (unr, fence, pscw, lock)
            });
            let (unr, fence, pscw, lock) = res[0];
            rows.push(vec![
                fmt_size(size),
                format!("{:.2}", to_us(unr as Ns)),
                format!("{:.2}", to_us(fence as Ns)),
                format!("{:.2}", to_us(pscw as Ns)),
                format!("{:.2}", to_us(lock as Ns)),
                format!("{:.2}x", fence / unr),
                format!("{:.2}x", pscw / unr),
                format!("{:.2}x", lock / unr),
            ]);
        }
        print_table(
            &format!(
                "Figure 4 — latency on {} ({})",
                platform.abbrev, platform.nic_desc
            ),
            &[
                "size",
                "UNR (us)",
                "MPI-RMA fence (us)",
                "MPI-RMA PSCW (us)",
                "MPI-RMA lock/flush (us)",
                "fence/UNR",
                "pscw/UNR",
                "lock/UNR",
            ],
            &rows,
        );
    }
}
