//! Pencil transposes (paper Fig 3c) with optional slab pipelining
//! (paper Fig 3e, pipelines 1 and 3), in place in two pencil buffers:
//! X (x pencil) and Y (y pencil). The FFTs store to and load from them
//! directly ([`TransposeOp::store_x`] and friends); forward moves X to
//! Y, backward Y to X. The MPI backend holds X and Y on the heap and
//! runs a bulk alltoallv. The UNR backend registers them as its only
//! transpose memory and splits the local z extent into `S` slabs: as
//! soon as a slab's FFT finishes, its blocks are PUT to every row peer,
//! and the receive side consumes slabs as their MMAS signal fires.
//!
//! Layout (f64 counts, complex interleaved), for peer q with x chunk
//! `(xs, xl)` and y chunk `(ys, yl)`:
//! * X: `2 * nx * ly * lz`; x-pencil element `(i, j, k)`, `i` in q's
//!   chunk, at `send_displ[q] + (k*ly + j)*2*xl + 2*(i - xs)`;
//! * Y: `2 * lx_t * ny * lz`; y-pencil element `(i, j, k)`, `j` in q's
//!   chunk, at `recv_displ[q] + (k*yl + j - ys)*2*lx_t + 2*i`;
//!
//! so each z plane, and each slab, is one contiguous block per peer.

use std::sync::Arc;

use unr_core::{RmaPlan, Signal, Unr, UnrMem};
use unr_minimpi::{alltoallv_bytes, Comm};
use unr_simnet::mem::as_bytes;

use crate::backend::Backend;
use crate::decomp::{chunk, Decomp};
use crate::fft::C64;
use crate::poisson::copy_f64s;

pub struct TransposeOp {
    ly: usize,
    lz: usize,
    lx_t: usize,
    /// Per-peer byte counts (whole buffer).
    send_counts: Vec<usize>,
    recv_counts: Vec<usize>,
    /// Per-peer element offsets in X and in Y.
    send_displ: Vec<usize>,
    recv_displ: Vec<usize>,
    x_chunks: Vec<(usize, usize)>,
    y_chunks: Vec<(usize, usize)>,
    /// Number of pipeline slabs (1 = bulk).
    slabs: usize,
    /// X and Y.
    x: Buf,
    y: Buf,
    /// One peer's block of one z plane, on its way between an FFT tile
    /// and X or Y.
    block: Vec<f64>,
    imp: Imp,
}

enum Imp {
    Mpi(Comm),
    Unr(Box<UnrT>),
}

/// A pencil buffer: heap memory (MPI) or a registered region (UNR).
enum Buf {
    Heap(Vec<f64>),
    Reg(UnrMem),
}

// ORDERING: X is the forward send and the backward receive region, Y
// the forward receive and the backward send region. Reusing them is
// safe under this protocol:
// - peer q writes its backward slab only into the bytes of X that my
//   forward put to q read, and only after q received that put (q's
//   backward follows its PDD, which needs every forward slab);
// - my backward slabs overwrite Y only after every forward slab's
//   signal fired and was consumed, and q's next forward slab lands in
//   the bytes of Y my backward put to q read only after q received it;
// - `fwd_complete`/`bwd_complete` wait for each direction's local
//   completions before the next reuse of its source.
struct UnrT {
    unr: Arc<Unr>,
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
        let block = (x_chunks.iter().map(|c| 2 * d.ly * c.1))
            .chain(y_chunks.iter().map(|c| 2 * d.lx_t * c.1))
            .max()
            .unwrap_or(0);
        let (slabs, imp, x, y) = match backend {
            Backend::Mpi => (
                1,
                Imp::Mpi(d.row.clone()),
                Buf::Heap(vec![0.0; 2 * d.nx * d.ly * d.lz]),
                Buf::Heap(vec![0.0; 2 * d.lx_t * d.ny * d.lz]),
            ),
            Backend::Unr(unr) => {
                let slabs = slabs.clamp(1, d.lz.max(1));
                let (u, x, y) = Self::build_unr(
                    unr,
                    d,
                    slabs,
                    &x_chunks,
                    &y_chunks,
                    &send_counts,
                    &recv_counts,
                    &send_displ,
                    &recv_displ,
                );
                (slabs, Imp::Unr(Box::new(u)), Buf::Reg(x), Buf::Reg(y))
            }
        };
        TransposeOp {
            ly: d.ly,
            lz: d.lz,
            lx_t: d.lx_t,
            send_counts,
            recv_counts,
            send_displ,
            recv_displ,
            x_chunks,
            y_chunks,
            slabs,
            x,
            y,
            block: vec![0.0; block],
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

    /// Register X and Y, publish their receive blocks and build the
    /// per-slab plans.
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
    ) -> (UnrT, UnrMem, UnrMem) {
        let py = d.py;
        let x = unr.mem_reg(send_counts.iter().sum::<usize>().max(8));
        let y = unr.mem_reg(recv_counts.iter().sum::<usize>().max(8));
        let fwd_recv_sigs: Vec<Signal> = (0..slabs).map(|_| unr.sig_init(py as i64)).collect();
        let bwd_recv_sigs: Vec<Signal> = (0..slabs).map(|_| unr.sig_init(py as i64)).collect();
        let fwd_send_sig = unr.sig_init((py * slabs) as i64);
        let bwd_send_sig = unr.sig_init((py * slabs) as i64);

        // Peer q's block of slab s: nk * ly * 2*xl_q doubles of X at
        // sd[q] + k0 * ly * 2*xl_q, and nk * yl_q * 2*lx_t of Y at
        // rd[q] + k0 * yl_q * 2*lx_t. Forward puts X's block to q's Y,
        // backward Y's block to q's X.
        let x_block = |q: usize, k0: usize, nk: usize| {
            let xl = x_chunks[q].1;
            ((sd[q] + k0 * d.ly * 2 * xl) * 8, nk * d.ly * 2 * xl * 8)
        };
        let y_block = |q: usize, k0: usize, nk: usize| {
            let yl = y_chunks[q].1;
            ((rd[q] + k0 * yl * 2 * d.lx_t) * 8, nk * yl * 2 * d.lx_t * 8)
        };

        // Publish my per-(slab, peer) receive blocks of Y and X.
        let comm = &d.row;
        let me = comm.rank();
        let mut fwd_flat = Vec::new();
        let mut bwd_flat = Vec::new();
        for s in 0..slabs {
            let (k0, nk) = chunk(d.lz, slabs, s);
            for q in 0..py {
                let (off, len) = y_block(q, k0, nk);
                let sig = Some(&fwd_recv_sigs[s]);
                fwd_flat.extend_from_slice(&unr.blk_init(&y, off, len, sig).to_bytes());
                let (off, len) = x_block(q, k0, nk);
                let sig = Some(&bwd_recv_sigs[s]);
                bwd_flat.extend_from_slice(&unr.blk_init(&x, off, len, sig).to_bytes());
            }
        }
        let all_fwd = unr_minimpi::allgather_bytes(comm, &fwd_flat);
        let all_bwd = unr_minimpi::allgather_bytes(comm, &bwd_flat);

        // Per-slab plans: slab s of my block for each peer to that peer's
        // published (slab s, source me) receive block.
        let wire = unr_core::BLK_WIRE_LEN;
        let published = |table: &[u8], s: usize| {
            let at = (s * py + me) * wire;
            unr_core::Blk::from_bytes(&table[at..at + wire]).expect("blk table")
        };
        let mut fwd_plans = Vec::with_capacity(slabs);
        let mut bwd_plans = Vec::with_capacity(slabs);
        for s in 0..slabs {
            let (k0, nk) = chunk(d.lz, slabs, s);
            let mut fp = RmaPlan::new();
            let mut bp = RmaPlan::new();
            for q in 0..py {
                let (off, len) = x_block(q, k0, nk);
                let src = unr.blk_init(&x, off, len, Some(&fwd_send_sig));
                fp.put(&src, &published(&all_fwd[q], s));
                let (off, len) = y_block(q, k0, nk);
                let src = unr.blk_init(&y, off, len, Some(&bwd_send_sig));
                bp.put(&src, &published(&all_bwd[q], s));
            }
            fwd_plans.push(fp);
            bwd_plans.push(bp);
        }
        let u = UnrT {
            unr: Arc::clone(unr),
            fwd_plans,
            bwd_plans,
            fwd_recv_sigs,
            bwd_recv_sigs,
            fwd_send_sig,
            bwd_send_sig,
        };
        (u, x, y)
    }

    // ---- the FFTs' loads and stores ----------------------------------------

    /// Store z plane `k` of the x-pencil spectrum from `tile`, where
    /// element `i` of x line `j` sits at `i * ly + j` (the batched x
    /// FFT's layout), to X: one block per peer.
    pub fn store_x(&mut self, k: usize, tile: &[C64]) {
        let ly = self.ly;
        for (&(xs, xl), &displ) in self.x_chunks.iter().zip(&self.send_displ) {
            let block = &mut self.block[..2 * ly * xl];
            for (j, row) in block.chunks_exact_mut(2 * xl).enumerate() {
                let line = tile[xs * ly + j..].iter().step_by(ly);
                for (x, t) in row.chunks_exact_mut(2).zip(line) {
                    x[0] = t.re;
                    x[1] = t.im;
                }
            }
            self.x.write(displ + k * ly * 2 * xl, block);
        }
    }

    /// Load z plane `k` of the x pencil from X into `tile`, laid out as
    /// in [`Self::store_x`].
    pub fn load_x(&mut self, k: usize, tile: &mut [C64]) {
        let ly = self.ly;
        for (&(xs, xl), &displ) in self.x_chunks.iter().zip(&self.send_displ) {
            let block = &mut self.block[..2 * ly * xl];
            self.x.read(displ + k * ly * 2 * xl, block);
            for (j, row) in block.chunks_exact(2 * xl).enumerate() {
                let line = tile[xs * ly + j..].iter_mut().step_by(ly);
                for (t, x) in line.zip(row.chunks_exact(2)) {
                    *t = C64::new(x[0], x[1]);
                }
            }
        }
    }

    /// Load z plane `k` of the y pencil from Y into `tile`, where
    /// element `i` of y row `j` sits at `j * lx_t + i` (the batched y
    /// FFT's layout, the plane as it lies).
    pub fn load_y(&mut self, k: usize, tile: &mut [C64]) {
        let lx_t = self.lx_t;
        for (&(ys, yl), &displ) in self.y_chunks.iter().zip(&self.recv_displ) {
            let block = &mut self.block[..2 * lx_t * yl];
            self.y.read(displ + k * yl * 2 * lx_t, block);
            let rows = &mut tile[ys * lx_t..(ys + yl) * lx_t];
            for (t, x) in rows.iter_mut().zip(block.chunks_exact(2)) {
                *t = C64::new(x[0], x[1]);
            }
        }
    }

    /// Store z plane `k` of the y pencil from `tile`, laid out as in
    /// [`Self::load_y`], to Y.
    pub fn store_y(&mut self, k: usize, tile: &[C64]) {
        let lx_t = self.lx_t;
        for (&(ys, yl), &displ) in self.y_chunks.iter().zip(&self.recv_displ) {
            let block = &mut self.block[..2 * lx_t * yl];
            for (x, t) in block.chunks_exact_mut(2).zip(&tile[ys * lx_t..]) {
                x[0] = t.re;
                x[1] = t.im;
            }
            self.y.write(displ + k * yl * 2 * lx_t, block);
        }
    }

    // ---- pipelined protocol (UNR) ---------------------------------------------

    fn unr(&self) -> &UnrT {
        match &self.imp {
            Imp::Unr(u) => u,
            Imp::Mpi(_) => panic!("pipelined transpose on the MPI backend"),
        }
    }

    /// Put slab `s` of X, stored by the x FFT, to every peer.
    pub fn fwd_send_slab(&mut self, s: usize) {
        let u = self.unr();
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

    /// Wait for slab `s` to arrive in Y and take its signal: the y FFT
    /// may load its planes.
    pub fn fwd_recv_slab(&mut self, s: usize) {
        let u = self.unr();
        u.unr.sig_wait(&u.fwd_recv_sigs[s]).expect("fwd slab recv");
        u.fwd_recv_sigs[s].reset().expect("fwd slab signal clean");
    }

    /// Wait for all forward send completions (X reusable).
    pub fn fwd_complete(&mut self) {
        if let Imp::Unr(u) = &mut self.imp {
            u.unr.sig_wait(&u.fwd_send_sig).expect("fwd sends");
            u.fwd_send_sig.reset().expect("fwd send signal clean");
        }
    }

    /// Put slab `s` of Y, stored by the inverse y FFT, to every peer.
    pub fn bwd_send_slab(&mut self, s: usize) {
        let u = self.unr();
        u.bwd_plans[s].start(&u.unr).expect("bwd slab puts");
    }

    /// Wait for slab `s` to arrive in X and take its signal: the inverse
    /// x FFT may load its planes.
    pub fn bwd_recv_slab(&mut self, s: usize) {
        let u = self.unr();
        u.unr.sig_wait(&u.bwd_recv_sigs[s]).expect("bwd slab recv");
        u.bwd_recv_sigs[s].reset().expect("bwd slab signal clean");
    }

    /// Wait for all backward send completions (Y reusable).
    pub fn bwd_complete(&mut self) {
        if let Imp::Unr(u) = &mut self.imp {
            u.unr.sig_wait(&u.bwd_send_sig).expect("bwd sends");
            u.bwd_send_sig.reset().expect("bwd send signal clean");
        }
    }

    // ---- bulk protocol (MPI, and UNR fallback path) -------------------------

    /// Bulk X -> Y (blocking).
    pub fn forward(&mut self) {
        if let (Imp::Mpi(row), Buf::Heap(x), Buf::Heap(y)) = (&self.imp, &self.x, &mut self.y) {
            let recv = alltoallv_bytes(row, as_bytes(x), &self.send_counts, &self.recv_counts);
            return copy_f64s(y, &recv);
        }
        for s in 0..self.slabs {
            self.fwd_send_slab(s);
        }
        for s in 0..self.slabs {
            self.fwd_recv_slab(s);
        }
        self.fwd_complete();
    }

    /// Bulk Y -> X (blocking).
    pub fn backward(&mut self) {
        if let (Imp::Mpi(row), Buf::Heap(x), Buf::Heap(y)) = (&self.imp, &mut self.x, &self.y) {
            let recv = alltoallv_bytes(row, as_bytes(y), &self.recv_counts, &self.send_counts);
            return copy_f64s(x, &recv);
        }
        for s in 0..self.slabs {
            self.bwd_send_slab(s);
        }
        for s in 0..self.slabs {
            self.bwd_recv_slab(s);
        }
        self.bwd_complete();
    }

    /// Whether the caller can drive the slab-pipelined protocol.
    pub fn pipelined(&self) -> bool {
        matches!(self.imp, Imp::Unr(_)) && self.slabs > 1
    }
}

impl Buf {
    /// Write `data` at element `off`.
    fn write(&mut self, off: usize, data: &[f64]) {
        match self {
            Buf::Heap(v) => v[off..off + data.len()].copy_from_slice(data),
            Buf::Reg(m) => m.write_slice(off, data),
        }
    }

    /// Read `out.len()` elements at element `off`.
    fn read(&self, off: usize, out: &mut [f64]) {
        match self {
            Buf::Heap(v) => out.copy_from_slice(&v[off..off + out.len()]),
            Buf::Reg(m) => m.read_slice(off, out),
        }
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

#[cfg(test)]
impl TransposeOp {
    /// The f64s this op holds on the heap. Every field is named, so a
    /// buffer added to the op must be counted here.
    pub(crate) fn heap_f64s(&self) -> usize {
        let TransposeOp {
            ly: _,
            lz: _,
            lx_t: _,
            send_counts: _,
            recv_counts: _,
            send_displ: _,
            recv_displ: _,
            x_chunks: _,
            y_chunks: _,
            slabs: _,
            x,
            y,
            block,
            imp,
        } = self;
        if let Imp::Unr(u) = imp {
            let UnrT {
                unr: _,
                fwd_plans: _,
                bwd_plans: _,
                fwd_recv_sigs: _,
                bwd_recv_sigs: _,
                fwd_send_sig: _,
                bwd_send_sig: _,
            } = &**u;
        }
        let heap = |b: &Buf| match b {
            Buf::Heap(v) => v.len(),
            Buf::Reg(_) => 0,
        };
        heap(x) + heap(y) + block.len()
    }
}
