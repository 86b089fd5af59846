//! MPI conversion interfaces (paper Code 3).
//!
//! These helpers let an MPI application replace its two-sided hot-spot
//! communication with UNR operations *incrementally*: the conversion
//! call performs the BLK/address exchange over mini-MPI once (outside
//! the main loop), and hands back a plan whose `start` issues pure
//! notified RMA — no per-iteration synchronization, no remote-offset
//! arithmetic.
//!
//! * [`isend_convert`] / [`irecv_convert`] — `MPI_Isend/Irecv_Convert`:
//!   a persistent point-to-point channel; the receive side's signal
//!   fires when the payload has fully landed.
//! * [`sendrecv_convert`] — `MPI_Sendrecv_Convert`: the PDD solver's
//!   neighbor exchange.
//! * [`alltoallv_convert`] — `MPI_Alltoallv_Convert`: the pencil
//!   transposes of the PPE solver; every block lands with one signal
//!   counting all peers.

use unr_minimpi::Comm;

use crate::blk::{Blk, UnrMem, BLK_WIRE_LEN};
use crate::plan::RmaPlan;
use crate::post::Unr;
use crate::signal::Signal;

/// Reserved mini-MPI tag space for conversion-time BLK exchanges.
const TAG_CONVERT_BASE: i32 = 1 << 20;

fn convert_tag(user_tag: i32) -> i32 {
    assert!(user_tag >= 0, "user tags must be non-negative");
    TAG_CONVERT_BASE + user_tag
}

/// Exchange one BLK with a peer (bidirectional).
pub fn exchange_blk(comm: &Comm, peer: usize, tag: i32, mine: &Blk) -> Blk {
    let msg = comm.sendrecv(
        peer,
        convert_tag(tag),
        &mine.to_bytes(),
        Some(peer),
        convert_tag(tag),
    );
    Blk::from_bytes(&msg.data).expect("well-formed BLK")
}

/// Send one BLK to a peer without expecting one back.
pub fn send_blk(comm: &Comm, peer: usize, tag: i32, blk: &Blk) {
    comm.send(peer, convert_tag(tag), &blk.to_bytes());
}

/// Receive one BLK from a peer.
pub fn recv_blk(comm: &Comm, peer: usize, tag: i32) -> Blk {
    let msg = comm.recv(Some(peer), convert_tag(tag));
    Blk::from_bytes(&msg.data).expect("well-formed BLK")
}

/// `MPI_Isend_Convert`: set up the sender half of a persistent
/// point-to-point channel. `send_sig` (if provided) fires when the
/// source buffer is reusable. Must be paired with [`irecv_convert`] on
/// `dst` with the same `tag`.
///
/// Returns a plan whose `start` performs the notified PUT.
#[allow(clippy::too_many_arguments)] // mirrors the paper's Code 3 signature
pub fn isend_convert(
    unr: &Unr,
    comm: &Comm,
    mem: &UnrMem,
    offset: usize,
    len: usize,
    dst: usize,
    tag: i32,
    send_sig: Option<&Signal>,
) -> RmaPlan {
    let local = unr.blk_init(mem, offset, len, send_sig);
    let remote = recv_blk(comm, dst, tag);
    assert_eq!(
        remote.len, len,
        "matching irecv_convert must use the same length"
    );
    let mut plan = RmaPlan::new();
    plan.put(&local, &remote);
    plan
}

/// `MPI_Irecv_Convert`: set up the receiver half. `recv_sig` fires when
/// the payload has fully arrived (across all sub-messages).
#[allow(clippy::too_many_arguments)] // mirrors the paper's Code 3 signature
pub fn irecv_convert(
    unr: &Unr,
    comm: &Comm,
    mem: &UnrMem,
    offset: usize,
    len: usize,
    src: usize,
    tag: i32,
    recv_sig: &Signal,
) {
    let blk = unr.blk_init(mem, offset, len, Some(recv_sig));
    send_blk(comm, src, tag, &blk);
}

/// `MPI_Sendrecv_Convert`: a persistent bidirectional exchange with one
/// neighbor (the PDD pattern). Both sides call it symmetrically.
#[allow(clippy::too_many_arguments)]
pub fn sendrecv_convert(
    unr: &Unr,
    comm: &Comm,
    send_mem: &UnrMem,
    send_offset: usize,
    send_len: usize,
    recv_mem: &UnrMem,
    recv_offset: usize,
    recv_len: usize,
    peer: usize,
    tag: i32,
    send_sig: Option<&Signal>,
    recv_sig: &Signal,
) -> RmaPlan {
    let local_send = unr.blk_init(send_mem, send_offset, send_len, send_sig);
    let local_recv = unr.blk_init(recv_mem, recv_offset, recv_len, Some(recv_sig));
    let remote_recv = exchange_blk(comm, peer, tag, &local_recv);
    assert_eq!(
        remote_recv.len, send_len,
        "peer's receive block must match our send length"
    );
    let mut plan = RmaPlan::new();
    plan.put(&local_send, &remote_recv);
    plan
}

/// `MPI_Alltoallv_Convert`: persistent all-to-all with per-peer counts
/// and displacements (bytes). Collective over `comm`.
///
/// `send_finish_sig` should expect `n` events (one per destination,
/// self included); `recv_finish_sig` should expect `n` events (one per
/// source, self included) — or fewer if the caller waits per-slab for
/// pipelining (paper Figure 3e).
#[allow(clippy::too_many_arguments)]
pub fn alltoallv_convert(
    unr: &Unr,
    comm: &Comm,
    send_mem: &UnrMem,
    send_counts: &[usize],
    send_displs: &[usize],
    recv_mem: &UnrMem,
    recv_counts: &[usize],
    recv_displs: &[usize],
    send_finish_sig: Option<&Signal>,
    recv_finish_sig: &Signal,
) -> RmaPlan {
    let n = comm.size();
    assert_eq!(send_counts.len(), n);
    assert_eq!(send_displs.len(), n);
    assert_eq!(recv_counts.len(), n);
    assert_eq!(recv_displs.len(), n);

    // Publish my receive blocks: peer i writes recv_counts[i] bytes at
    // recv_displs[i], triggering recv_finish_sig.
    let mut flat = Vec::with_capacity(n * BLK_WIRE_LEN);
    for i in 0..n {
        let blk = unr.blk_init(
            recv_mem,
            recv_displs[i],
            recv_counts[i],
            Some(recv_finish_sig),
        );
        flat.extend_from_slice(&blk.to_bytes());
    }
    let all = unr_minimpi::allgather_bytes(comm, &flat);

    // My row of remote receive blocks: all[dst] holds dst's blocks; my
    // slot in dst's table is index comm.rank().
    let me = comm.rank();
    let mut plan = RmaPlan::new();
    for dst in 0..n {
        let their = &all[dst];
        let b = Blk::from_bytes(&their[me * BLK_WIRE_LEN..(me + 1) * BLK_WIRE_LEN])
            .expect("well-formed BLK table");
        assert_eq!(
            b.len, send_counts[dst],
            "peer {dst}'s receive count must match my send count"
        );
        let local = unr.blk_init(
            send_mem,
            send_displs[dst],
            send_counts[dst],
            send_finish_sig,
        );
        plan.put(&local, &b);
    }
    plan
}

#[cfg(test)]
mod tests {
    #[test]
    fn convert_tag_offsets_user_tag() {
        assert_eq!(super::convert_tag(0), 1 << 20);
        assert_eq!(super::convert_tag(5), (1 << 20) + 5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_user_tag_rejected() {
        super::convert_tag(-1);
    }
}
