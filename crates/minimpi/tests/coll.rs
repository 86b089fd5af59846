//! Collective-operation tests across several world sizes.

use unr_minimpi::{
    allgather_bytes, allreduce_f64, alltoall_bytes, alltoallv_bytes, barrier, bcast, gather_bytes,
    reduce_f64, run_mpi_world, Comm, ReduceOp,
};
use unr_simnet::FabricConfig;

fn run<R: Send + 'static>(n: usize, f: impl Fn(&Comm) -> R + Send + Sync + 'static) -> Vec<R> {
    run_mpi_world(FabricConfig::test_default(n), f)
}

#[test]
fn barrier_synchronizes_times() {
    for n in [1, 2, 3, 5, 8] {
        let times = run(n, |comm| {
            // Rank r sleeps r*10us, then a barrier: everyone must leave
            // at (or after) the latest arrival.
            comm.ep().sleep(unr_simnet::us(10.0) * comm.rank() as u64);
            barrier(comm);
            comm.ep().now()
        });
        let max_sleep = unr_simnet::us(10.0) * (n as u64 - 1);
        for (r, &t) in times.iter().enumerate() {
            assert!(
                t >= max_sleep,
                "n={n} rank {r} left the barrier at {t} before the slowest arrival {max_sleep}"
            );
        }
    }
}

#[test]
fn bcast_all_roots_all_sizes() {
    for n in [1, 2, 4, 7] {
        for root in 0..n {
            let results = run(n, move |comm| {
                let data = if comm.rank() == root {
                    vec![0xA5u8; 100]
                } else {
                    Vec::new()
                };
                bcast(comm, root, &data)
            });
            for (r, got) in results.iter().enumerate() {
                assert_eq!(got, &vec![0xA5u8; 100], "n={n} root={root} rank={r}");
            }
        }
    }
}

#[test]
fn bcast_large_payload() {
    let results = run(5, |comm| {
        let data = if comm.rank() == 2 {
            (0..100_000u32).flat_map(|i| i.to_le_bytes()).collect()
        } else {
            Vec::new()
        };
        let out = bcast(comm, 2, &data);
        out.len()
    });
    assert!(results.iter().all(|&l| l == 400_000));
}

#[test]
fn reduce_sum_and_max() {
    let results = run(6, |comm| {
        let me = comm.rank() as f64;
        let sum = reduce_f64(comm, 0, &[me, 2.0 * me], ReduceOp::Sum);
        barrier(comm);
        let max = reduce_f64(comm, 3, &[me], ReduceOp::Max);
        (sum, max)
    });
    let (sum0, _) = &results[0];
    assert_eq!(sum0.as_deref(), Some(&[15.0, 30.0][..])); // 0+1+..+5
    let (_, max3) = &results[3];
    assert_eq!(max3.as_deref(), Some(&[5.0][..]));
    assert!(results[1].0.is_none());
}

#[test]
fn allreduce_matches_on_all_ranks() {
    let results = run(5, |comm| {
        allreduce_f64(comm, &[1.0, comm.rank() as f64], ReduceOp::Sum)
    });
    for r in &results {
        assert_eq!(r, &vec![5.0, 10.0]);
    }
}

#[test]
fn allreduce_min() {
    let results = run(4, |comm| {
        allreduce_f64(comm, &[comm.rank() as f64 - 1.5], ReduceOp::Min)
    });
    for r in &results {
        assert_eq!(r, &vec![-1.5]);
    }
}

#[test]
fn gather_in_rank_order() {
    let results = run(4, |comm| gather_bytes(comm, 1, &[comm.rank() as u8 * 3]));
    let g = results[1].as_ref().expect("root gets the gather");
    assert_eq!(g, &vec![vec![0], vec![3], vec![6], vec![9]]);
    assert!(results[0].is_none());
}

#[test]
fn allgather_variable_sizes() {
    let results = run(4, |comm| {
        let mine = vec![comm.rank() as u8; comm.rank() + 1];
        allgather_bytes(comm, &mine)
    });
    for r in &results {
        assert_eq!(r.len(), 4);
        for (i, blob) in r.iter().enumerate() {
            assert_eq!(blob, &vec![i as u8; i + 1]);
        }
    }
}

#[test]
fn alltoall_permutes_blocks() {
    let n = 4;
    let results = run(n, move |comm| {
        // Block for destination d = [me, d].
        let send: Vec<u8> = (0..n).flat_map(|d| [comm.rank() as u8, d as u8]).collect();
        alltoall_bytes(comm, &send, 2)
    });
    for (me, r) in results.iter().enumerate() {
        for src in 0..n {
            assert_eq!(
                &r[2 * src..2 * src + 2],
                &[src as u8, me as u8],
                "rank {me} block from {src}"
            );
        }
    }
}

#[test]
fn alltoallv_ragged() {
    let n = 3;
    let results = run(n, move |comm| {
        let me = comm.rank();
        // Rank i sends (i + j + 1) bytes of value i*10+j to rank j.
        let send_counts: Vec<usize> = (0..n).map(|j| me + j + 1).collect();
        let send: Vec<u8> = (0..n)
            .flat_map(|j| vec![(me * 10 + j) as u8; me + j + 1])
            .collect();
        let recv_counts: Vec<usize> = (0..n).map(|i| i + me + 1).collect();
        alltoallv_bytes(comm, &send, &send_counts, &recv_counts)
    });
    for (me, r) in results.iter().enumerate() {
        let mut off = 0;
        for src in 0..n {
            let len = src + me + 1;
            assert_eq!(
                &r[off..off + len],
                &vec![(src * 10 + me) as u8; len][..],
                "rank {me} from {src}"
            );
            off += len;
        }
    }
}

#[test]
fn split_creates_disjoint_comms() {
    // 6 ranks -> 2 colors (even/odd); each subcomm does its own
    // allreduce; results must not leak across colors.
    let results = run(6, |comm| {
        let color = (comm.rank() % 2) as u32;
        let sub = comm.split(color, comm.rank() as i32);
        assert_eq!(sub.size(), 3);
        let v = allreduce_f64(&sub, &[comm.rank() as f64], ReduceOp::Sum);
        (color, sub.rank(), v[0])
    });
    for (color, _sub_rank, v) in &results {
        match color {
            0 => assert_eq!(*v, 0.0 + 2.0 + 4.0),
            1 => assert_eq!(*v, 1.0 + 3.0 + 5.0),
            _ => unreachable!(),
        }
    }
    // Sub-ranks ordered by key (= parent rank).
    assert_eq!(results[0].1, 0);
    assert_eq!(results[2].1, 1);
    assert_eq!(results[4].1, 2);
    assert_eq!(results[5].1, 2);
}

#[test]
fn split_grid_rows_and_cols() {
    // 2x3 process grid: rows then cols, like a pencil decomposition.
    let results = run(6, |comm| {
        let row = comm.rank() / 3;
        let col = comm.rank() % 3;
        let row_comm = comm.split(row as u32, col as i32);
        let col_comm = comm.split(col as u32, row as i32);
        let rsum = allreduce_f64(&row_comm, &[comm.rank() as f64], ReduceOp::Sum)[0];
        let csum = allreduce_f64(&col_comm, &[comm.rank() as f64], ReduceOp::Sum)[0];
        (rsum, csum)
    });
    // Row sums: row0 = 0+1+2 = 3, row1 = 3+4+5 = 12.
    // Col sums: col0 = 0+3, col1 = 1+4, col2 = 2+5.
    assert_eq!(results[0], (3.0, 3.0));
    assert_eq!(results[4], (12.0, 5.0));
    assert_eq!(results[5], (12.0, 7.0));
}

#[test]
fn back_to_back_collectives_do_not_cross() {
    let results = run(4, |comm| {
        let mut out = Vec::new();
        for round in 0..10u8 {
            let v = bcast(comm, (round % 4) as usize, &[round, comm.rank() as u8]);
            out.push(v[0]);
            barrier(comm);
        }
        out
    });
    for r in &results {
        assert_eq!(r, &(0..10u8).collect::<Vec<_>>());
    }
}
