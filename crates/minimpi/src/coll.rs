//! Collective operations over the two-sided layer.
//!
//! Algorithms are the textbook ones: dissemination barrier, binomial
//! broadcast, linear-gather reduce + broadcast for allreduce (world
//! sizes here are ≤ a few hundred), ring allgather, and pairwise-shifted
//! alltoall(v). All collectives use reserved negative tags and rely on
//! mini-MPI's per-source non-overtaking guarantee for correctness of
//! back-to-back invocations.

use crate::comm::Comm;
use crate::wire::TAG_COLL_BASE;

const TAG_BARRIER: i32 = TAG_COLL_BASE - 1;
const TAG_BCAST: i32 = TAG_COLL_BASE - 2;
const TAG_REDUCE: i32 = TAG_COLL_BASE - 3;
const TAG_GATHER: i32 = TAG_COLL_BASE - 4;
const TAG_ALLTOALL: i32 = TAG_COLL_BASE - 6;

/// Reduction operators for `f64` vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

impl ReduceOp {
    fn apply(&self, acc: &mut [f64], x: &[f64]) {
        assert_eq!(acc.len(), x.len());
        match self {
            ReduceOp::Sum => acc.iter_mut().zip(x).for_each(|(a, b)| *a += b),
            ReduceOp::Max => acc.iter_mut().zip(x).for_each(|(a, b)| *a = a.max(*b)),
            ReduceOp::Min => acc.iter_mut().zip(x).for_each(|(a, b)| *a = a.min(*b)),
        }
    }
}

/// Dissemination barrier: ceil(log2 n) rounds.
pub fn barrier(comm: &Comm) {
    let n = comm.size();
    if n <= 1 {
        return;
    }
    let me = comm.rank();
    let mut dist = 1;
    while dist < n {
        let to = (me + dist) % n;
        let from = (me + n - dist) % n;
        comm.sendrecv_internal(to, TAG_BARRIER, &[], Some(from), TAG_BARRIER);
        dist *= 2;
    }
}

/// Binomial-tree broadcast from `root`; returns the broadcast payload.
pub fn bcast(comm: &Comm, root: usize, data: &[u8]) -> Vec<u8> {
    let n = comm.size();
    let me = comm.rank();
    if n <= 1 {
        return data.to_vec();
    }
    // Rotate ranks so the root is virtual rank 0.
    let vrank = (me + n - root) % n;
    let mut buf = if me == root {
        data.to_vec()
    } else {
        Vec::new()
    };

    // `mask` becomes the first power of two strictly greater than vrank;
    // vrank receives from vrank - mask/2 and then feeds vrank + mask,
    // vrank + 2*mask, ... (binomial tree).
    let mut mask = 1usize;
    while mask <= vrank {
        mask <<= 1;
    }
    if vrank != 0 {
        let src_v = vrank - (mask >> 1);
        let src = (src_v + root) % n;
        buf = comm.recv(Some(src), TAG_BCAST).data;
    }
    while vrank + mask < n {
        let dst = (vrank + mask + root) % n;
        comm.send_internal(dst, TAG_BCAST, &buf);
        mask <<= 1;
    }
    buf
}

/// Reduce `f64` vectors to `root` (linear gather at root).
pub fn reduce_f64(comm: &Comm, root: usize, data: &[f64], op: ReduceOp) -> Option<Vec<f64>> {
    let n = comm.size();
    let me = comm.rank();
    if me == root {
        let mut acc = data.to_vec();
        for _ in 0..n - 1 {
            let msg = comm.recv(None, TAG_REDUCE);
            let x: Vec<f64> = unr_simnet::mem::vec_from_bytes(&msg.data);
            op.apply(&mut acc, &x);
        }
        Some(acc)
    } else {
        comm.send_internal(root, TAG_REDUCE, unr_simnet::mem::as_bytes(data));
        None
    }
}

/// Allreduce for `f64` vectors (reduce to 0, then broadcast).
pub fn allreduce_f64(comm: &Comm, data: &[f64], op: ReduceOp) -> Vec<f64> {
    let reduced = reduce_f64(comm, 0, data, op);
    let bytes = bcast(
        comm,
        0,
        reduced
            .as_deref()
            .map(unr_simnet::mem::as_bytes)
            .unwrap_or(&[]),
    );
    unr_simnet::mem::vec_from_bytes(&bytes)
}

/// Gather byte blobs to `root` in rank order.
pub fn gather_bytes(comm: &Comm, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
    let n = comm.size();
    let me = comm.rank();
    if me == root {
        let mut out = vec![Vec::new(); n];
        out[me] = data.to_vec();
        for _ in 0..n - 1 {
            let msg = comm.recv(None, TAG_GATHER);
            out[msg.src] = msg.data;
        }
        Some(out)
    } else {
        comm.send_internal(root, TAG_GATHER, data);
        None
    }
}

/// Allgather byte blobs (gather at 0 + broadcast, length-prefixed).
pub fn allgather_bytes(comm: &Comm, data: &[u8]) -> Vec<Vec<u8>> {
    let n = comm.size();
    if n == 1 {
        return vec![data.to_vec()];
    }
    if let Some(parts) = gather_bytes(comm, 0, data) {
        // Root: flatten with length prefixes and broadcast.
        let mut flat = Vec::new();
        for p in &parts {
            flat.extend_from_slice(&(p.len() as u64).to_le_bytes());
            flat.extend_from_slice(p);
        }
        bcast(comm, 0, &flat);
        parts
    } else {
        let flat = bcast(comm, 0, &[]);
        let mut out = Vec::with_capacity(n);
        let mut off = 0;
        for _ in 0..n {
            let len =
                u64::from_le_bytes(flat[off..off + 8].try_into().expect("length prefix")) as usize;
            off += 8;
            out.push(flat[off..off + len].to_vec());
            off += len;
        }
        out
    }
}

/// Alltoall with equal block size: `send` holds `n` blocks of
/// `block` bytes; returns the received blocks in rank order.
pub fn alltoall_bytes(comm: &Comm, send: &[u8], block: usize) -> Vec<u8> {
    let n = comm.size();
    assert_eq!(send.len(), n * block, "send buffer must be n*block bytes");
    let counts = vec![block; n];
    alltoallv_bytes(comm, send, &counts, &counts)
}

/// Alltoallv: `send` is the concatenation (in rank order) of
/// `send_counts[i]`-byte blocks for each destination; returns the
/// concatenation of `recv_counts[i]`-byte blocks from each source.
///
/// Pairwise exchange: in step `s`, send to `me+s`, receive from `me-s`.
pub fn alltoallv_bytes(
    comm: &Comm,
    send: &[u8],
    send_counts: &[usize],
    recv_counts: &[usize],
) -> Vec<u8> {
    let n = comm.size();
    let me = comm.rank();
    assert_eq!(send_counts.len(), n);
    assert_eq!(recv_counts.len(), n);
    let send_displs: Vec<usize> = std::iter::once(0)
        .chain(send_counts.iter().scan(0, |a, &c| {
            *a += c;
            Some(*a)
        }))
        .collect();
    let recv_displs: Vec<usize> = std::iter::once(0)
        .chain(recv_counts.iter().scan(0, |a, &c| {
            *a += c;
            Some(*a)
        }))
        .collect();
    assert_eq!(send.len(), send_displs[n], "send buffer length mismatch");

    let mut recv = vec![0u8; recv_displs[n]];
    // Self block: local copy.
    recv[recv_displs[me]..recv_displs[me] + recv_counts[me]]
        .copy_from_slice(&send[send_displs[me]..send_displs[me] + send_counts[me]]);
    for s in 1..n {
        let to = (me + s) % n;
        let from = (me + n - s) % n;
        let rreq = comm.irecv(Some(from), TAG_ALLTOALL);
        let sreq = comm.isend_internal(
            to,
            TAG_ALLTOALL,
            &send[send_displs[to]..send_displs[to + 1]],
        );
        let msg = comm.wait_recv(rreq);
        assert_eq!(
            msg.data.len(),
            recv_counts[from],
            "alltoallv count mismatch from {from}"
        );
        recv[recv_displs[from]..recv_displs[from + 1]].copy_from_slice(&msg.data);
        comm.wait_send(sreq);
    }
    recv
}

/// Allgather for fixed-size blobs where every rank contributes the same
/// number of bytes (convenience over [`allgather_bytes`]).
pub fn allgather_fixed(comm: &Comm, data: &[u8]) -> Vec<u8> {
    allgather_bytes(comm, data).concat()
}
