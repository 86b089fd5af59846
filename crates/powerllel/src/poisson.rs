//! The FFT-based pressure Poisson equation solver (paper §V-B):
//! FFT in x (periodic) → transpose to y-pencils → FFT in y (periodic) →
//! distributed tridiagonal solves in z (PDD) → inverse FFT y →
//! transpose back → inverse FFT x.
//!
//! The x/y FFT eigenvalues are the *modified wavenumbers* of the
//! 2nd-order finite-difference Laplacian, so the solve is exact for the
//! discrete operator (up to the PDD truncation, which is
//! machine-precision for diagonally dominant modes; the singular mean
//! mode is solved exactly by a gathered Thomas solve).

use unr_simnet::mem::as_bytes;
use unr_simnet::Ns;

use crate::backend::{Backend, PddExchange};
use crate::decomp::Decomp;
use crate::fft::{fd_eigenvalue, Fft, C64};
use crate::field::Field3;
use crate::timing::{Phase, PhaseObs, Timers};
use crate::transpose::TransposeOp;
use crate::tridiag::{factor_rows, pdd_interface, solve_rows};

pub struct PoissonSolver {
    nx: usize,
    ny: usize,
    nz: usize,
    ly: usize,
    lz: usize,
    lx_t: usize,
    off_x_t: usize,
    cz: usize,
    pz: usize,
    fft_x: Fft,
    fft_y: Fft,
    transpose: TransposeOp,
    pdd: PddExchange,
    /// Each `(kx, ky)` cell's modified wavenumber, `lam_x + lam_y`.
    lam: Vec<f64>,
    hz2_inv: f64,
    /// Column communicator for the gathered mean-mode solve.
    col: unr_minimpi::Comm,
    /// The y-pencil spectrum the z solves work on in place. The x
    /// pencil lives only in the transpose's buffers.
    yp: Vec<f64>,
    /// One z-plane of lines for the batched FFTs: element `j` of line
    /// `l` at `j * lines + l`. In x the plane's `ly` rows, transposed;
    /// in y the plane of `yp` as it lies.
    tile: Vec<C64>,
    /// Slabs of the pipelined transpose not yet consumed.
    pending: Vec<bool>,
    z: ZWork,
    /// Virtual-time cost per grid point per pass.
    flop_ns: f64,
    pobs: PhaseObs,
}

/// Cells per block of the PDD local phase and correction. Besides the
/// influence vectors, a block's factorization is the only per-cell
/// working storage: `2 * lz * BLOCK` values.
const BLOCK: usize = 64;

/// Working storage of the z solves, sized once: the PDD phase runs
/// without allocating. Each `(kx, ky)` cell's re and im systems are
/// solved in place in `yp`, whose row `k` holds every cell's pair for
/// z row `k`; everything below is row-major with the cell innermost
/// too.
struct ZWork {
    /// The off-diagonals every cell's matrix shares.
    a: Vec<f64>,
    c: Vec<f64>,
    /// A block's factorization: the diagonals go in, the pivots come
    /// out. `max(lz * BLOCK, nz)` values, so the gathered mean-mode
    /// solve uses it too.
    pivot: Vec<f64>,
    cp: Vec<f64>,
    /// The influence vectors, one value per cell and row: `v` if there
    /// is a neighbor below, `w` if there is one above, else empty.
    v: Vec<f64>,
    w: Vec<f64>,
    /// A block's interface values `xi_left` and `xi_right`, one per
    /// system.
    xi_left: Vec<f64>,
    xi_right: Vec<f64>,
    /// Interface payloads `(x0, influence)` per system, to the above /
    /// below neighbor.
    up: Vec<f64>,
    down: Vec<f64>,
    /// The mean mode's re and im systems, interleaved row by row (the
    /// column root gathers the whole column), and their matrix: the cell
    /// matrix with the first row pinned.
    mean: Vec<f64>,
    mean_a: Vec<f64>,
    mean_b: Vec<f64>,
    mean_c: Vec<f64>,
}

impl ZWork {
    fn new(d: &Decomp, hz2_inv: f64) -> ZWork {
        let cells = d.lx_t * d.ny;
        let rows = (d.lz * BLOCK).max(d.nz);
        let influence = |has: bool| vec![0.0; if has { cells * d.lz } else { 0 }];
        let nz = d.nz;
        let mut mean_a = vec![hz2_inv; nz];
        let mut mean_b = vec![-2.0 * hz2_inv; nz];
        let mut mean_c = vec![hz2_inv; nz];
        mean_b[0] = 1.0;
        mean_c[0] = 0.0;
        mean_a[0] = 0.0;
        mean_b[nz - 1] = -hz2_inv;
        ZWork {
            a: vec![hz2_inv; d.lz],
            c: vec![hz2_inv; d.lz],
            pivot: vec![0.0; rows],
            cp: vec![0.0; rows],
            v: influence(d.cz > 0),
            w: influence(d.cz + 1 < d.pz),
            xi_left: vec![0.0; 2 * BLOCK],
            xi_right: vec![0.0; 2 * BLOCK],
            up: vec![0.0; 4 * cells],
            down: vec![0.0; 4 * cells],
            mean: vec![0.0; 2 * nz],
            mean_a,
            mean_b,
            mean_c,
        }
    }
}

impl PoissonSolver {
    pub fn new(backend: &Backend, d: &Decomp, hx: f64, hy: f64, hz: f64, flop_ns: f64) -> Self {
        let systems = d.lx_t * d.ny * 2; // re + im per (kx, ky)
        let transpose = TransposeOp::new(backend, d, 4);
        let hz2_inv = 1.0 / (hz * hz);
        PoissonSolver {
            nx: d.nx,
            ny: d.ny,
            nz: d.nz,
            ly: d.ly,
            lz: d.lz,
            lx_t: d.lx_t,
            off_x_t: d.off_x_t,
            cz: d.cz,
            pz: d.pz,
            fft_x: Fft::new(d.nx),
            fft_y: Fft::new(d.ny),
            pending: vec![false; transpose.slabs()],
            transpose,
            pdd: PddExchange::new(backend, d, systems),
            lam: (0..d.ny)
                .flat_map(|ky| {
                    let lam_y = fd_eigenvalue(ky, d.ny, hy);
                    (d.off_x_t..d.off_x_t + d.lx_t)
                        .map(move |kx| fd_eigenvalue(kx, d.nx, hx) + lam_y)
                })
                .collect(),
            hz2_inv,
            col: d.col.clone(),
            yp: vec![0.0; 2 * d.lx_t * d.ny * d.lz],
            tile: vec![C64::ZERO; (d.nx * d.ly).max(d.ny * d.lx_t)],
            z: ZWork::new(d, hz2_inv),
            flop_ns,
            pobs: PhaseObs::new(
                std::sync::Arc::clone(&d.world.ep().fabric().obs),
                d.world.rank(),
            ),
        }
    }

    fn charge(&self, ep: &unr_simnet::Endpoint, points: usize) {
        ep.advance((points as f64 * self.flop_ns) as Ns);
    }

    /// Solve `∇² p = f` in place (discrete 2nd-order operator; periodic
    /// x,y; Neumann z): `p`, an x-pencil field, holds `f` on entry and
    /// the solution on return; its ghosts are untouched. In place is
    /// safe on both paths because every forward x-FFT has read `p`
    /// before the PDD runs, and the PDD finishes before any inverse
    /// x-FFT writes `p`.
    ///
    /// With the UNR backend the transposes are **slab-pipelined** with
    /// the FFTs (paper Fig 3e): slab k's blocks are PUT to the row peers
    /// as soon as its x-FFT finishes, and the y-FFT of each slab runs as
    /// soon as its MMAS signal fires.
    pub fn solve(&mut self, p: &mut Field3, timers: &mut Timers) {
        let comm = self.col.clone();
        let now = || comm.ep().now();
        let (nx, ly, lz) = (self.nx, self.ly, self.lz);
        let pipelined = self.transpose.pipelined();
        let slabs = if pipelined { self.transpose.slabs() } else { 1 };

        // ---- forward: FFT x (+ pipelined transpose + FFT y) ------------
        if pipelined {
            for s in 0..slabs {
                let (k0, k1) = self.transpose.slab_range(s);
                let t = now();
                self.fftx_fwd_slab(p, k0, k1);
                self.charge(comm.ep(), nx * ly * (k1 - k0));
                self.pobs.acc(Phase::Fft, t, now(), &mut timers.fft);
                let t = now();
                self.transpose.fwd_send_slab(s);
                self.pobs
                    .acc(Phase::Transpose, t, now(), &mut timers.transpose);
            }
            // Consume slabs as they arrive (multi-rail jitter reorders
            // them); each slab's y-FFT runs as soon as its MMAS signal
            // fires — paper Fig 3e: "once a slab of data is received, a
            // thread can consume the data".
            self.pending.fill(true);
            for _ in 0..slabs {
                let t = now();
                let s = self.transpose.fwd_wait_any(&self.pending);
                self.pending[s] = false;
                self.transpose.fwd_recv_slab(s);
                self.pobs
                    .acc(Phase::Transpose, t, now(), &mut timers.transpose);
                let (k0, k1) = self.transpose.slab_range(s);
                let t = now();
                self.ffty_slab(k0, k1, false);
                self.charge(comm.ep(), self.lx_t * self.ny * (k1 - k0));
                self.pobs.acc(Phase::Fft, t, now(), &mut timers.fft);
            }
            let t = now();
            self.transpose.fwd_complete();
            self.pobs
                .acc(Phase::Transpose, t, now(), &mut timers.transpose);
        } else {
            let t = now();
            self.fftx_fwd_slab(p, 0, lz);
            self.charge(comm.ep(), nx * ly * lz);
            self.pobs.acc(Phase::Fft, t, now(), &mut timers.fft);
            let t = now();
            self.transpose.forward();
            self.pobs
                .acc(Phase::Transpose, t, now(), &mut timers.transpose);
            let t = now();
            self.ffty_slab(0, lz, false);
            self.charge(comm.ep(), self.lx_t * self.ny * lz);
            self.pobs.acc(Phase::Fft, t, now(), &mut timers.fft);
        }

        // ---- tridiagonal solves in z (PDD) -----------------------------
        let t3 = now();
        self.solve_z();
        self.charge(comm.ep(), self.lx_t * self.ny * lz * 3);
        self.pobs.acc(Phase::Pdd, t3, now(), &mut timers.pdd);

        // ---- backward: FFT y (+ pipelined transpose + inverse FFT x) ---
        if pipelined {
            for s in 0..slabs {
                let (k0, k1) = self.transpose.slab_range(s);
                let t = now();
                self.ffty_slab(k0, k1, true);
                self.charge(comm.ep(), self.lx_t * self.ny * (k1 - k0));
                self.pobs.acc(Phase::Fft, t, now(), &mut timers.fft);
                let t = now();
                self.transpose.bwd_send_slab(s);
                self.pobs
                    .acc(Phase::Transpose, t, now(), &mut timers.transpose);
            }
            self.pending.fill(true);
            for _ in 0..slabs {
                let t = now();
                let s = self.transpose.bwd_wait_any(&self.pending);
                self.pending[s] = false;
                self.transpose.bwd_recv_slab(s);
                self.pobs
                    .acc(Phase::Transpose, t, now(), &mut timers.transpose);
                let (k0, k1) = self.transpose.slab_range(s);
                let t = now();
                self.fftx_inv_slab(p, k0, k1);
                self.charge(comm.ep(), nx * ly * (k1 - k0));
                self.pobs.acc(Phase::Fft, t, now(), &mut timers.fft);
            }
            let t = now();
            self.transpose.bwd_complete();
            self.pobs
                .acc(Phase::Transpose, t, now(), &mut timers.transpose);
        } else {
            let t = now();
            self.ffty_slab(0, lz, true);
            self.charge(comm.ep(), self.lx_t * self.ny * lz);
            self.pobs.acc(Phase::Fft, t, now(), &mut timers.fft);
            let t = now();
            self.transpose.backward();
            self.pobs
                .acc(Phase::Transpose, t, now(), &mut timers.transpose);
            let t = now();
            self.fftx_inv_slab(p, 0, lz);
            self.charge(comm.ep(), nx * ly * lz);
            self.pobs.acc(Phase::Fft, t, now(), &mut timers.fft);
        }
    }

    /// Forward FFT in x for z planes `k0..k1`, from `p` into the
    /// transpose's x buffer: a plane's `ly` rows go through the tile
    /// transposed, as `ly` lines.
    fn fftx_fwd_slab(&mut self, p: &Field3, k0: usize, k1: usize) {
        let (nx, ly) = (self.nx, self.ly);
        let tile = &mut self.tile[..nx * ly];
        for k in k0..k1 {
            for j in 0..ly {
                let src = &p.data[p.idx(0, j, k)..][..nx];
                for (t, &x) in tile[j..].iter_mut().step_by(ly).zip(src) {
                    *t = C64::new(x, 0.0);
                }
            }
            self.fft_x.forward_lines(tile, ly);
            self.transpose.store_x(k, tile);
        }
    }

    /// Inverse FFT in x for z planes `k0..k1`, from the transpose's x
    /// buffer into `p`, through the tile as in [`Self::fftx_fwd_slab`].
    fn fftx_inv_slab(&mut self, p: &mut Field3, k0: usize, k1: usize) {
        let (nx, ly) = (self.nx, self.ly);
        let tile = &mut self.tile[..nx * ly];
        for k in k0..k1 {
            self.transpose.load_x(k, tile);
            self.fft_x.inverse_lines(tile, ly);
            for j in 0..ly {
                let at = p.idx(0, j, k);
                for (d, t) in p.data[at..at + nx]
                    .iter_mut()
                    .zip(tile[j..].iter().step_by(ly))
                {
                    *d = t.re;
                }
            }
        }
    }

    /// FFT in y for z planes `k0..k1`: forward from the transpose's y
    /// buffer into `yp`, inverse from `yp` back to that buffer. A
    /// plane's `lx_t` y lines are interleaved in both, so it goes through
    /// the tile as it lies.
    fn ffty_slab(&mut self, k0: usize, k1: usize, inverse: bool) {
        let (lx_t, plane) = (self.lx_t, 2 * self.lx_t * self.ny);
        let tile = &mut self.tile[..plane / 2];
        for (k, xs) in (k0..k1).zip(self.yp[k0 * plane..k1 * plane].chunks_exact_mut(plane)) {
            if inverse {
                for (t, x) in tile.iter_mut().zip(xs.chunks_exact(2)) {
                    *t = C64::new(x[0], x[1]);
                }
                self.fft_y.inverse_lines(tile, lx_t);
                self.transpose.store_y(k, tile);
            } else {
                self.transpose.load_y(k, tile);
                self.fft_y.forward_lines(tile, lx_t);
                for (x, t) in xs.chunks_exact_mut(2).zip(tile.iter()) {
                    x[0] = t.re;
                    x[1] = t.im;
                }
            }
        }
    }

    /// Solve the per-(kx, ky) tridiagonal systems in z in place on the
    /// y-pencil buffer, `BLOCK` cells at a time with the cell innermost.
    /// The re and im systems of a cell share its matrix: it is factored
    /// once per step, and that factorization solves both and the cell's
    /// influence vectors.
    fn solve_z(&mut self) {
        let (cells, lz) = (self.lx_t * self.ny, self.lz);
        let stride = 2 * cells; // f64 distance between consecutive z rows
        let has_below = self.cz > 0;
        let has_above = self.cz + 1 < self.pz;
        let (wall_lo, wall_hi) = (self.cz == 0, self.cz + 1 == self.pz);
        // Cell 0 is (kx, ky) = (0, 0) on the ranks whose x range starts
        // at 0: its singular systems take the gathered exact solve.
        let first = usize::from(self.off_x_t == 0);
        let h = self.hz2_inv;
        let z = &mut self.z;
        let yp = &mut self.yp;
        let last = (lz - 1) * stride;

        // PDD local phase and interface payloads.
        for c0 in (first..cells).step_by(BLOCK) {
            let c1 = (c0 + BLOCK).min(cells);
            let width = c1 - c0;
            let (pivot, cp) = (&mut z.pivot[..lz * width], &mut z.cp[..lz * width]);
            let lam = &self.lam[c0..c1];
            for (k, row) in pivot.chunks_exact_mut(width).enumerate() {
                // Neumann walls (global first/last rows only).
                let wall = (k == 0 && wall_lo) || (k + 1 == lz && wall_hi);
                for (b, &lam) in row.iter_mut().zip(lam) {
                    *b = if wall { -h + lam } else { -2.0 * h + lam };
                }
            }
            factor_rows(&z.a, &z.c, pivot, cp);
            solve_rows::<2>(&z.a, pivot, cp, &mut yp[2 * c0..], stride);
            // Influence right-hand sides: A v = -a_first e_0, A w =
            // -c_last e_last.
            for (infl, row, x) in [(&mut z.v, 0, -z.a[0]), (&mut z.w, lz - 1, -z.c[lz - 1])] {
                if infl.is_empty() {
                    continue;
                }
                for (k, xs) in infl.chunks_exact_mut(cells).enumerate() {
                    xs[c0..c1].fill(if k == row { x } else { 0.0 });
                }
                solve_rows::<1>(&z.a, pivot, cp, &mut infl[c0..], cells);
            }
            for cell in c0..c1 {
                let v_first = if has_below { z.v[cell] } else { 0.0 };
                let w_last = if has_above {
                    z.w[(lz - 1) * cells + cell]
                } else {
                    0.0
                };
                for s in 2 * cell..2 * cell + 2 {
                    z.up[2 * s] = yp[last + s];
                    z.up[2 * s + 1] = w_last;
                    z.down[2 * s] = yp[s];
                    z.down[2 * s + 1] = v_first;
                }
            }
        }

        // Neighbor exchange + interface resolution + correction:
        // x = x0 + xi_left v + xi_right w.
        let (from_below, from_above) = self.pdd.exchange(&z.up, &z.down);
        for c0 in (first..cells).step_by(BLOCK) {
            let c1 = (c0 + BLOCK).min(cells);
            let (xl, xr) = (
                &mut z.xi_left[..2 * (c1 - c0)],
                &mut z.xi_right[..2 * (c1 - c0)],
            );
            // Both interfaces see the uncorrected x0: (the below rank's
            // last row, my first) and (my last, the above rank's first).
            for ((l, r), s) in xl.iter_mut().zip(xr.iter_mut()).zip(2 * c0..) {
                let cell = s / 2;
                if let Some(fb) = from_below {
                    *l = pdd_interface(fb[2 * s], fb[2 * s + 1], yp[s], z.v[cell]).0;
                }
                if let Some(fa) = from_above {
                    let w_last = z.w[(lz - 1) * cells + cell];
                    *r = pdd_interface(yp[last + s], w_last, fa[2 * s], fa[2 * s + 1]).1;
                }
            }
            for k in 0..lz {
                let xs = &mut yp[k * stride + 2 * c0..k * stride + 2 * c1];
                for (infl, xi) in [(&z.v, &*xl), (&z.w, &*xr)] {
                    if infl.is_empty() {
                        continue;
                    }
                    let infl = &infl[k * cells + c0..k * cells + c1];
                    for ((x, xi), &f) in xs.chunks_exact_mut(2).zip(xi.chunks_exact(2)).zip(infl) {
                        x[0] += xi[0] * f;
                        x[1] += xi[1] * f;
                    }
                }
            }
        }

        // Gathered exact solve of the singular mean mode.
        if first == 1 {
            self.solve_mean_modes();
        }
    }

    /// The (kx=0, ky=0) systems (re and im, cell 0 of every row of `yp`)
    /// are singular with Neumann ends; gather them along the column, pin
    /// the first row, and solve exactly.
    fn solve_mean_modes(&mut self) {
        let (lz, nz) = (self.lz, self.nz);
        let stride = 2 * self.lx_t * self.ny;
        let z = &mut self.z;
        // The mean systems skipped the local phase: cell 0 still holds
        // the raw right-hand side. My rows go where they lie in the
        // column.
        let (zs, _) = crate::decomp::chunk(nz, self.pz, self.cz);
        let mine = 2 * zs..2 * (zs + lz);
        for (m, row) in z.mean[mine.clone()]
            .chunks_exact_mut(2)
            .zip(self.yp.chunks_exact(stride))
        {
            m.copy_from_slice(&row[..2]);
        }
        let gathered = unr_minimpi::gather_bytes(&self.col, 0, as_bytes(&z.mean[mine.clone()]));
        if let Some(parts) = gathered {
            for (cz, bytes) in parts.iter().enumerate() {
                let (zs, zl) = crate::decomp::chunk(nz, self.pz, cz);
                copy_f64s(&mut z.mean[2 * zs..2 * (zs + zl)], bytes);
            }
            // Solve both with the pinned first row.
            let (pivot, cp) = (&mut z.pivot[..nz], &mut z.cp[..nz]);
            pivot.copy_from_slice(&z.mean_b);
            factor_rows(&z.mean_a, &z.mean_c, pivot, cp);
            z.mean[..2].fill(0.0); // pinned reference value
            solve_rows::<2>(&z.mean_a, pivot, cp, &mut z.mean, 2);
            unr_minimpi::bcast(&self.col, 0, as_bytes(&z.mean));
        } else {
            copy_f64s(&mut z.mean, &unr_minimpi::bcast(&self.col, 0, &[]));
        }
        // Each rank takes its chunk of the full solution.
        for (m, row) in z.mean[mine]
            .chunks_exact(2)
            .zip(self.yp.chunks_exact_mut(stride))
        {
            row[..2].copy_from_slice(m);
        }
    }
}

/// Copy the f64s that [`as_bytes`] encoded in `bytes` into `dst`.
pub(crate) fn copy_f64s(dst: &mut [f64], bytes: &[u8]) {
    assert_eq!(bytes.len(), 8 * dst.len());
    for (x, b) in dst.iter_mut().zip(bytes.chunks_exact(8)) {
        *x = f64::from_ne_bytes(b.try_into().expect("8-byte chunk"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unr_core::{Unr, UnrConfig};
    use unr_minimpi::run_mpi_world;
    use unr_simnet::{Endpoint, Platform};

    /// The byte lengths of the regions `ep`'s rank has registered, in
    /// order (ids are handed out consecutively from 0).
    fn regions(ep: &Endpoint) -> Vec<usize> {
        (0..)
            .map_while(|id| ep.region(id).map(|r| r.len()))
            .collect()
    }

    /// The Poisson solve's memory on the benchmark's 4×2 UNR grid. The
    /// transposes register exactly two pencil-sized regions per rank,
    /// one x and one y pencil; the solver holds one pencil buffer on the
    /// heap, `yp`, and the transpose none. The destructurings name every
    /// field, so a buffer added to either struct has to be sized here.
    #[test]
    fn a_4x2_unr_solve_registers_two_pencils_and_holds_one() {
        let fcfg = Platform::th_xy().fabric_config(4, 2);
        let ok = run_mpi_world(fcfg, |comm| {
            let backend = Backend::Unr(Unr::init(comm.ep_shared(), UnrConfig::default()));
            let d = Decomp::new(comm, 64, 64, 32, 4, 2);
            let (xpen, ypen) = (2 * d.nx * d.ly * d.lz, 2 * d.lx_t * d.ny * d.lz);
            let pencil = xpen.min(ypen);
            let before = regions(comm.ep()).len();
            let ps = PoissonSolver::new(&backend, &d, 1.0, 1.0, 1.0, 0.0);
            let registered: Vec<usize> = regions(comm.ep())[before..]
                .iter()
                .copied()
                .filter(|&len| len >= 8 * pencil)
                .collect();
            assert_eq!(registered, [8 * xpen, 8 * ypen], "rank {}", comm.rank());

            let PoissonSolver {
                nx: _,
                ny: _,
                nz: _,
                ly: _,
                lz: _,
                lx_t: _,
                off_x_t: _,
                cz: _,
                pz: _,
                fft_x: _,
                fft_y: _,
                transpose,
                pdd: _,
                lam,
                hz2_inv: _,
                col: _,
                yp,
                tile,
                pending: _,
                z,
                flop_ns: _,
                pobs: _,
            } = &ps;
            let ZWork {
                a,
                c,
                pivot,
                cp,
                v,
                w,
                xi_left,
                xi_right,
                up,
                down,
                mean,
                mean_a,
                mean_b,
                mean_c,
            } = z;
            let f64s = [
                yp, lam, a, c, pivot, cp, v, w, xi_left, xi_right, up, down, mean, mean_a, mean_b,
                mean_c,
            ]
            .map(|b| b.len());
            let pencils = f64s.iter().filter(|&&n| n >= pencil).count();
            assert_eq!((yp.len(), pencils), (ypen, 1), "rank {}", comm.rank());
            assert!(2 * tile.len() < pencil && transpose.heap_f64s() < pencil);
            true
        });
        assert!(ok.into_iter().all(|b| b));
    }
}
