//! Pencil transposes (paper Fig 3c) with optional slab pipelining
//! (paper Fig 3e, pipelines 1 and 3).
//!
//! The MPI backend performs the classic bulk alltoallv. The UNR backend
//! splits the local z extent into `S` slabs; as soon as a slab's FFT
//! finishes, its blocks are PUT to every row peer, and the receive side
//! consumes slabs as their per-slab MMAS signal fires — overlapping the
//! transpose with the FFTs on both sides.
//!
//! Layout contracts (f64 element counts, complex interleaved):
//! * x-pencil buffer: `2 * nx * ly * lz`, index `((k*ly + j)*nx + i)*2`;
//! * y-pencil buffer: `2 * lx_t * ny * lz`, index `((k*ny + j)*lx_t + i)*2`;
//! * wire format to peer q: `for k { for j-rows { 2*chunk }}` with the
//!   per-k block contiguous, so a z-slab is contiguous per peer.

use std::ops::Range;
use std::sync::Arc;

use unr_core::{RmaPlan, Signal, Unr};
use unr_minimpi::Comm;
use unr_simnet::mem::{as_bytes, vec_from_bytes};

use crate::backend::Backend;
use crate::decomp::{chunk, Decomp};

pub struct TransposeOp {
    d_nx: usize,
    d_ny: usize,
    ly: usize,
    lz: usize,
    lx_t: usize,
    /// Per-peer byte counts (whole buffer).
    send_counts: Vec<usize>,
    recv_counts: Vec<usize>,
    /// Per-peer element offsets in the forward send / receive wire
    /// buffers (the backward direction swaps the two).
    send_displ: Vec<usize>,
    recv_displ: Vec<usize>,
    x_chunks: Vec<(usize, usize)>,
    y_chunks: Vec<(usize, usize)>,
    /// Number of pipeline slabs (1 = bulk).
    slabs: usize,
    imp: Imp,
}

enum Imp {
    Mpi { row: Comm },
    Unr(Box<UnrT>),
}

struct UnrT {
    unr: Arc<Unr>,
    fwd_send: unr_core::UnrMem,
    fwd_recv: unr_core::UnrMem,
    bwd_send: unr_core::UnrMem,
    bwd_recv: unr_core::UnrMem,
    /// Per-slab plans and receive signals.
    fwd_plans: Vec<RmaPlan>,
    bwd_plans: Vec<RmaPlan>,
    fwd_recv_sigs: Vec<Signal>,
    bwd_recv_sigs: Vec<Signal>,
    fwd_send_sig: Signal,
    bwd_send_sig: Signal,
}

impl TransposeOp {
    /// Collective over `d.row`. `slabs` is the pipeline depth for the
    /// UNR backend (clamped to `lz`); the MPI backend is always bulk.
    pub fn new(backend: &Backend, d: &Decomp, slabs: usize) -> TransposeOp {
        let py = d.py;
        let x_chunks: Vec<(usize, usize)> = (0..py).map(|q| d.x_chunk_of(q)).collect();
        let y_chunks: Vec<(usize, usize)> = (0..py).map(|q| d.y_chunk_of(q)).collect();
        let send_counts: Vec<usize> = (0..py)
            .map(|q| 2 * x_chunks[q].1 * d.ly * d.lz * 8)
            .collect();
        let recv_counts: Vec<usize> = (0..py)
            .map(|q| 2 * d.lx_t * y_chunks[q].1 * d.lz * 8)
            .collect();
        let slabs = slabs.clamp(1, d.lz.max(1));
        let displ = |counts: &[usize]| -> Vec<usize> {
            let elems = counts.iter().map(|c| c / 8);
            elems
                .scan(0, |at, n| {
                    *at += n;
                    Some(*at - n)
                })
                .collect()
        };
        let send_displ = displ(&send_counts);
        let recv_displ = displ(&recv_counts);
        let imp = match backend {
            Backend::Mpi => Imp::Mpi { row: d.row.clone() },
            Backend::Unr(unr) => Imp::Unr(Box::new(Self::build_unr(
                unr,
                d,
                slabs,
                &x_chunks,
                &y_chunks,
                &send_counts,
                &recv_counts,
                &send_displ,
                &recv_displ,
            ))),
        };
        TransposeOp {
            d_nx: d.nx,
            d_ny: d.ny,
            ly: d.ly,
            lz: d.lz,
            lx_t: d.lx_t,
            send_counts,
            recv_counts,
            send_displ,
            recv_displ,
            x_chunks,
            y_chunks,
            slabs: match backend {
                Backend::Mpi => 1,
                Backend::Unr(_) => slabs,
            },
            imp,
        }
    }

    /// Number of pipeline slabs the caller should drive (1 for bulk).
    pub fn slabs(&self) -> usize {
        self.slabs
    }

    /// k-range of slab `s`.
    pub fn slab_range(&self, s: usize) -> (usize, usize) {
        let (k0, nk) = chunk(self.lz, self.slabs, s);
        (k0, k0 + nk)
    }

    #[allow(clippy::too_many_arguments)]
    fn build_unr(
        unr: &Arc<Unr>,
        d: &Decomp,
        slabs: usize,
        x_chunks: &[(usize, usize)],
        y_chunks: &[(usize, usize)],
        send_counts: &[usize],
        recv_counts: &[usize],
        sd: &[usize],
        rd: &[usize],
    ) -> UnrT {
        let py = d.py;
        let total_send: usize = send_counts.iter().sum();
        let total_recv: usize = recv_counts.iter().sum();
        let fwd_send = unr.mem_reg(total_send.max(8));
        let fwd_recv = unr.mem_reg(total_recv.max(8));
        let bwd_send = unr.mem_reg(total_recv.max(8));
        let bwd_recv = unr.mem_reg(total_send.max(8));
        let fwd_recv_sigs: Vec<Signal> = (0..slabs).map(|_| unr.sig_init(py as i64)).collect();
        let bwd_recv_sigs: Vec<Signal> = (0..slabs).map(|_| unr.sig_init(py as i64)).collect();
        let fwd_send_sig = unr.sig_init((py * slabs) as i64);
        let bwd_send_sig = unr.sig_init((py * slabs) as i64);

        // Publish per-(peer, slab) receive blocks of fwd_recv / bwd_recv.
        // fwd: peer q writes, per slab s, nk * yl_q * 2*lx_t doubles at
        //      element rd[q] + k0 * yl_q * 2*lx_t.
        // bwd: peer q writes nk * ly * 2*xl_q at sd[q] + k0 * ly * 2*xl_q.
        let comm = &d.row;
        let me = comm.rank();
        let mut fwd_flat = Vec::new();
        let mut bwd_flat = Vec::new();
        for s in 0..slabs {
            let (k0, nk) = chunk(d.lz, slabs, s);
            for q in 0..py {
                let ylq = y_chunks[q].1;
                let off = (rd[q] + k0 * ylq * 2 * d.lx_t) * 8;
                let len = nk * ylq * 2 * d.lx_t * 8;
                fwd_flat.extend_from_slice(
                    &unr.blk_init(&fwd_recv, off, len, Some(&fwd_recv_sigs[s]))
                        .to_bytes(),
                );
                let xlq = x_chunks[q].1;
                let boff = (sd[q] + k0 * d.ly * 2 * xlq) * 8;
                let blen = nk * d.ly * 2 * xlq * 8;
                bwd_flat.extend_from_slice(
                    &unr.blk_init(&bwd_recv, boff, blen, Some(&bwd_recv_sigs[s]))
                        .to_bytes(),
                );
            }
        }
        let all_fwd = unr_minimpi::allgather_bytes(comm, &fwd_flat);
        let all_bwd = unr_minimpi::allgather_bytes(comm, &bwd_flat);

        // Build per-slab plans: slab s of MY send buffer to each peer's
        // published (peer=me, slab=s) receive block.
        let wire = unr_core::BLK_WIRE_LEN;
        let mut fwd_plans = Vec::with_capacity(slabs);
        let mut bwd_plans = Vec::with_capacity(slabs);
        for s in 0..slabs {
            let (k0, nk) = chunk(d.lz, slabs, s);
            let mut fp = RmaPlan::new();
            let mut bp = RmaPlan::new();
            for q in 0..py {
                // Forward: my x-chunk restriction to peer q; q's table
                // entry for (slab s, source me).
                let tgt = unr_core::Blk::from_bytes(
                    &all_fwd[q][(s * py + me) * wire..(s * py + me + 1) * wire],
                )
                .expect("blk table");
                let xlq = x_chunks[q].1;
                let off = (sd[q] + k0 * d.ly * 2 * xlq) * 8;
                let len = nk * d.ly * 2 * xlq * 8;
                fp.put(
                    &unr.blk_init(&fwd_send, off, len, Some(&fwd_send_sig)),
                    &tgt,
                );

                let btgt = unr_core::Blk::from_bytes(
                    &all_bwd[q][(s * py + me) * wire..(s * py + me + 1) * wire],
                )
                .expect("blk table");
                let ylq = y_chunks[q].1;
                let boff = (rd[q] + k0 * ylq * 2 * d.lx_t) * 8;
                let blen = nk * ylq * 2 * d.lx_t * 8;
                bp.put(
                    &unr.blk_init(&bwd_send, boff, blen, Some(&bwd_send_sig)),
                    &btgt,
                );
            }
            fwd_plans.push(fp);
            bwd_plans.push(bp);
        }
        UnrT {
            unr: Arc::clone(unr),
            fwd_send,
            fwd_recv,
            bwd_send,
            bwd_recv,
            fwd_plans,
            bwd_plans,
            fwd_recv_sigs,
            bwd_recv_sigs,
            fwd_send_sig,
            bwd_send_sig,
        }
    }

    // ---- wire layout -----------------------------------------------------------

    /// The x-pencil rows of z planes `k0..k1`, peer by peer: each row's
    /// element offset in the forward send (= backward receive) wire
    /// buffer, and its range in the x-pencil buffer.
    fn x_rows(&self, k0: usize, k1: usize) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let (ly, nx) = (self.ly, self.d_nx);
        self.x_chunks
            .iter()
            .zip(&self.send_displ)
            .flat_map(move |(&(xs, xl), &displ)| {
                (k0 * ly..k1 * ly).map(move |kj| {
                    let row = (kj * nx + xs) * 2;
                    (displ + kj * 2 * xl, row..row + 2 * xl)
                })
            })
    }

    /// The y-pencil rows of z planes `k0..k1`, peer by peer: each row's
    /// element offset in the forward receive (= backward send) wire
    /// buffer, and its range in the y-pencil buffer.
    fn y_rows(&self, k0: usize, k1: usize) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let (lx_t, ny) = (self.lx_t, self.d_ny);
        self.y_chunks
            .iter()
            .zip(&self.recv_displ)
            .flat_map(move |(&(ys, yl), &displ)| {
                (k0..k1).flat_map(move |k| {
                    (0..yl).map(move |j| {
                        let row = (k * ny + ys + j) * lx_t * 2;
                        (displ + (k * yl + j) * 2 * lx_t, row..row + 2 * lx_t)
                    })
                })
            })
    }

    // ---- pipelined protocol (UNR) ---------------------------------------------

    fn unr(&self) -> &UnrT {
        match &self.imp {
            Imp::Unr(u) => u,
            Imp::Mpi { .. } => panic!("pipelined transpose on the MPI backend"),
        }
    }

    /// Pack slab `s` of the x-pencil buffer straight into the registered
    /// send region and put it to every peer.
    pub fn fwd_send_slab(&mut self, s: usize, xp: &[f64]) {
        let (k0, k1) = self.slab_range(s);
        let u = self.unr();
        for (off, r) in self.x_rows(k0, k1) {
            u.fwd_send.write_slice(off, &xp[r]);
        }
        u.fwd_plans[s].start(&u.unr).expect("fwd slab puts");
    }

    /// Wait until any of the still-pending forward slabs has arrived;
    /// returns its index. `pending[s]` marks slabs not yet consumed.
    pub fn fwd_wait_any(&self, pending: &[bool]) -> usize {
        let u = self.unr();
        wait_any(&u.unr, &u.fwd_recv_sigs, pending)
    }

    /// Same for the backward direction.
    pub fn bwd_wait_any(&self, pending: &[bool]) -> usize {
        let u = self.unr();
        wait_any(&u.unr, &u.bwd_recv_sigs, pending)
    }

    /// Wait for slab `s` to arrive and unpack it straight from the
    /// receive region into the y-pencil buffer.
    pub fn fwd_recv_slab(&mut self, s: usize, yp: &mut [f64]) {
        let (k0, k1) = self.slab_range(s);
        let u = self.unr();
        u.unr.sig_wait(&u.fwd_recv_sigs[s]).expect("fwd slab recv");
        u.fwd_recv_sigs[s].reset().expect("fwd slab signal clean");
        for (off, r) in self.y_rows(k0, k1) {
            u.fwd_recv.read_slice(off, &mut yp[r]);
        }
    }

    /// Wait for all forward send completions (source reusable).
    pub fn fwd_complete(&mut self) {
        if let Imp::Unr(u) = &mut self.imp {
            u.unr.sig_wait(&u.fwd_send_sig).expect("fwd sends");
            u.fwd_send_sig.reset().expect("fwd send signal clean");
        }
    }

    /// Pack slab `s` of the y-pencil buffer straight into the registered
    /// send region and put it to every peer.
    pub fn bwd_send_slab(&mut self, s: usize, yp: &[f64]) {
        let (k0, k1) = self.slab_range(s);
        let u = self.unr();
        for (off, r) in self.y_rows(k0, k1) {
            u.bwd_send.write_slice(off, &yp[r]);
        }
        u.bwd_plans[s].start(&u.unr).expect("bwd slab puts");
    }

    /// Wait for slab `s` to arrive and unpack it straight from the
    /// receive region into the x-pencil buffer.
    pub fn bwd_recv_slab(&mut self, s: usize, xp: &mut [f64]) {
        let (k0, k1) = self.slab_range(s);
        let u = self.unr();
        u.unr.sig_wait(&u.bwd_recv_sigs[s]).expect("bwd slab recv");
        u.bwd_recv_sigs[s].reset().expect("bwd slab signal clean");
        for (off, r) in self.x_rows(k0, k1) {
            u.bwd_recv.read_slice(off, &mut xp[r]);
        }
    }

    pub fn bwd_complete(&mut self) {
        if let Imp::Unr(u) = &mut self.imp {
            u.unr.sig_wait(&u.bwd_send_sig).expect("bwd sends");
            u.bwd_send_sig.reset().expect("bwd send signal clean");
        }
    }

    // ---- bulk protocol (MPI, and UNR fallback path) -------------------------

    /// Bulk x-pencil -> y-pencil (blocking).
    pub fn forward(&mut self, xp: &[f64], yp: &mut [f64]) {
        assert_eq!(xp.len(), 2 * self.d_nx * self.ly * self.lz);
        assert_eq!(yp.len(), 2 * self.lx_t * self.d_ny * self.lz);
        if matches!(self.imp, Imp::Unr(_)) {
            for s in 0..self.slabs {
                self.fwd_send_slab(s, xp);
            }
            for s in 0..self.slabs {
                self.fwd_recv_slab(s, yp);
            }
            self.fwd_complete();
            return;
        }
        let row = match &self.imp {
            Imp::Mpi { row } => row.clone(),
            Imp::Unr(_) => unreachable!(),
        };
        let mut packed = vec![0.0f64; xp.len()];
        for (off, r) in self.x_rows(0, self.lz) {
            packed[off..off + r.len()].copy_from_slice(&xp[r]);
        }
        let recv = unr_minimpi::alltoallv_bytes(
            &row,
            as_bytes(&packed),
            &self.send_counts,
            &self.recv_counts,
        );
        let data = vec_from_bytes::<f64>(&recv);
        for (off, r) in self.y_rows(0, self.lz) {
            let n = r.len();
            yp[r].copy_from_slice(&data[off..off + n]);
        }
    }

    /// Bulk y-pencil -> x-pencil (blocking).
    pub fn backward(&mut self, yp: &[f64], xp: &mut [f64]) {
        assert_eq!(yp.len(), 2 * self.lx_t * self.d_ny * self.lz);
        assert_eq!(xp.len(), 2 * self.d_nx * self.ly * self.lz);
        if matches!(self.imp, Imp::Unr(_)) {
            for s in 0..self.slabs {
                self.bwd_send_slab(s, yp);
            }
            for s in 0..self.slabs {
                self.bwd_recv_slab(s, xp);
            }
            self.bwd_complete();
            return;
        }
        let row = match &self.imp {
            Imp::Mpi { row } => row.clone(),
            Imp::Unr(_) => unreachable!(),
        };
        let mut packed = vec![0.0f64; yp.len()];
        for (off, r) in self.y_rows(0, self.lz) {
            packed[off..off + r.len()].copy_from_slice(&yp[r]);
        }
        let recv = unr_minimpi::alltoallv_bytes(
            &row,
            as_bytes(&packed),
            &self.recv_counts,
            &self.send_counts,
        );
        let data = vec_from_bytes::<f64>(&recv);
        for (off, r) in self.x_rows(0, self.lz) {
            let n = r.len();
            xp[r].copy_from_slice(&data[off..off + n]);
        }
    }

    /// Whether the caller can drive the slab-pipelined protocol.
    pub fn pipelined(&self) -> bool {
        matches!(self.imp, Imp::Unr(_)) && self.slabs > 1
    }
}

/// Wait until the signal of any slab still `pending` fires; returns
/// that slab's index in `sigs`.
fn wait_any(unr: &Unr, sigs: &[Signal], pending: &[bool]) -> usize {
    let slabs = || (0..sigs.len()).filter(|&s| pending[s]);
    let waiting: Vec<&Signal> = slabs().map(|s| &sigs[s]).collect();
    let local = unr.sig_wait_any(&waiting).expect("slab wait-any");
    slabs().nth(local).expect("index in range")
}
