//! MPI-RMA window tests: fence, PSCW, lock/flush.

use unr_minimpi::{barrier, run_mpi_world, Comm, Win};
use unr_simnet::FabricConfig;

fn run<R: Send + 'static>(n: usize, f: impl Fn(&Comm) -> R + Send + Sync + 'static) -> Vec<R> {
    run_mpi_world(FabricConfig::test_default(n), f)
}

#[test]
fn fence_put_visible_after_epoch() {
    let results = run(2, |comm| {
        let win = Win::create(comm, 256, 1);
        win.fence(); // open epoch
        if comm.rank() == 0 {
            win.put(b"fence data", 1, 32);
        }
        win.fence(); // close epoch: data must be visible at rank 1
        let mut buf = [0u8; 10];
        win.read_local(32, &mut buf);
        buf.to_vec()
    });
    assert_eq!(results[1], b"fence data");
    assert_eq!(results[0], vec![0u8; 10]);
}

#[test]
fn fence_bidirectional_puts() {
    let results = run(4, |comm| {
        let win = Win::create(comm, 64, 2);
        win.fence();
        // Everyone puts its rank byte into every peer at offset=rank.
        for t in 0..comm.size() {
            if t != comm.rank() {
                win.put(&[comm.rank() as u8 + 1], t, comm.rank());
            }
        }
        win.fence();
        let mut buf = vec![0u8; comm.size()];
        win.read_local(0, &mut buf);
        buf
    });
    for (me, buf) in results.iter().enumerate() {
        for (src, &b) in buf.iter().enumerate() {
            if src == me {
                assert_eq!(b, 0);
            } else {
                assert_eq!(b, src as u8 + 1, "rank {me} slot {src}");
            }
        }
    }
}

#[test]
fn multiple_fence_epochs() {
    let results = run(2, |comm| {
        let win = Win::create(comm, 8, 3);
        win.fence();
        let mut seen = Vec::new();
        for epoch in 0..5u8 {
            if comm.rank() == 0 {
                win.put(&[epoch + 1], 1, 0);
            }
            win.fence();
            if comm.rank() == 1 {
                let mut b = [0u8; 1];
                win.read_local(0, &mut b);
                seen.push(b[0]);
            }
        }
        seen
    });
    assert_eq!(results[1], vec![1, 2, 3, 4, 5]);
}

#[test]
fn pscw_producer_consumer() {
    let results = run(2, |comm| {
        let win = Win::create(comm, 128, 4);
        if comm.rank() == 0 {
            // Origin: start -> put -> complete.
            win.start(&[1]);
            win.put(b"pscw payload", 1, 0);
            win.complete(&[1]);
            Vec::new()
        } else {
            // Target: post -> wait.
            win.post(&[0]);
            win.wait(&[0]);
            let mut buf = vec![0u8; 12];
            win.read_local(0, &mut buf);
            buf
        }
    });
    assert_eq!(results[1], b"pscw payload");
}

#[test]
fn pscw_repeated_epochs() {
    let results = run(2, |comm| {
        let win = Win::create(comm, 8, 5);
        let mut seen = Vec::new();
        for i in 0..4u8 {
            if comm.rank() == 0 {
                win.start(&[1]);
                win.put(&[i * 2], 1, 0);
                win.complete(&[1]);
            } else {
                win.post(&[0]);
                win.wait(&[0]);
                let mut b = [0u8; 1];
                win.read_local(0, &mut b);
                seen.push(b[0]);
            }
        }
        seen
    });
    assert_eq!(results[1], vec![0, 2, 4, 6]);
}

#[test]
fn pscw_multiple_origins() {
    let results = run(3, |comm| {
        let win = Win::create(comm, 16, 6);
        if comm.rank() == 0 {
            win.post(&[1, 2]);
            win.wait(&[1, 2]);
            let mut buf = vec![0u8; 2];
            win.read_local(0, &mut buf);
            buf
        } else {
            win.start(&[0]);
            win.put(&[comm.rank() as u8 * 7], 0, comm.rank() - 1);
            win.complete(&[0]);
            Vec::new()
        }
    });
    assert_eq!(results[0], vec![7, 14]);
}

#[test]
fn lock_flush_passive_target() {
    let results = run(2, |comm| {
        let win = Win::create(comm, 64, 7);
        if comm.rank() == 0 {
            win.lock(1);
            win.put(b"locked!", 1, 8);
            win.flush(1); // remotely complete
            win.unlock(1);
            comm.send(1, 1, b"done"); // tell target to stop polling
            Vec::new()
        } else {
            // Passive target: poll for control traffic until told to stop.
            let req = comm.irecv(Some(0), 1);
            loop {
                win.progress();
                if comm.test_recv(&req) {
                    break;
                }
                comm.ep().sleep(unr_simnet::us(1.0));
            }
            let _ = comm.wait_recv(req);
            let mut buf = vec![0u8; 7];
            win.read_local(8, &mut buf);
            buf
        }
    });
    assert_eq!(results[1], b"locked!");
}

#[test]
fn exclusive_lock_serializes_origins() {
    // Ranks 1 and 2 both lock rank 0 and add their byte at different
    // offsets; the target grants one at a time.
    let results = run(3, |comm| {
        let win = Win::create(comm, 16, 8);
        if comm.rank() == 0 {
            // Serve until both workers report completion.
            let r1 = comm.irecv(Some(1), 2);
            let r2 = comm.irecv(Some(2), 2);
            loop {
                win.progress();
                if comm.test_recv(&r1) && comm.test_recv(&r2) {
                    break;
                }
                comm.ep().sleep(unr_simnet::us(1.0));
            }
            let mut buf = vec![0u8; 2];
            win.read_local(0, &mut buf);
            buf
        } else {
            win.lock(0);
            win.put(&[comm.rank() as u8 + 40], 0, comm.rank() - 1);
            win.unlock(0);
            comm.send(0, 2, &[]);
            Vec::new()
        }
    });
    assert_eq!(results[0], vec![41, 42]);
}

#[test]
fn get_reads_remote_window() {
    let results = run(2, |comm| {
        let win = Win::create(comm, 64, 9);
        if comm.rank() == 1 {
            win.write_local(16, b"remote-value");
        }
        barrier(comm); // ensure target wrote before origin reads
        win.fence();
        if comm.rank() == 0 {
            win.get(0, 1, 16, 12);
        }
        win.fence();
        let mut buf = vec![0u8; 12];
        win.read_local(0, &mut buf);
        buf
    });
    assert_eq!(results[0], b"remote-value");
}

#[test]
#[should_panic(expected = "synchronization error")]
fn put_outside_epoch_is_detected() {
    run(2, |comm| {
        let win = Win::create(comm, 8, 10);
        if comm.rank() == 0 {
            // No fence/start/lock: must trip the epoch assertion.
            win.put(&[1], 1, 0);
        }
        barrier(comm);
    });
}
