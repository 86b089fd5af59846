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
use crate::tridiag::{pdd_interface, thomas_factor, thomas_solve};

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
    /// Modified wavenumbers.
    lam_x: Vec<f64>,
    lam_y: Vec<f64>,
    hz2_inv: f64,
    /// Column communicator for the gathered mean-mode solve.
    col: unr_minimpi::Comm,
    /// x- and y-pencil spectra.
    xp: Vec<f64>,
    yp: Vec<f64>,
    /// One x line and one y line of the FFTs.
    line_x: Vec<C64>,
    line_y: Vec<C64>,
    /// Slabs of the pipelined transpose not yet consumed.
    pending: Vec<bool>,
    z: ZWork,
    /// Virtual-time cost per grid point per pass.
    flop_ns: f64,
    pobs: PhaseObs,
}

/// Working storage of the z solves, sized once: the PDD local phase runs
/// without allocating.
struct ZWork {
    /// Columns of `lz` rows per `(kx, ky)` cell, `cols` per cell: the re
    /// and im systems (right-hand side, then solution), then the left
    /// influence vector `v` if there is a neighbor below and the right
    /// one `w` if there is one above.
    x: Vec<f64>,
    cols: usize,
    /// The matrix of one cell: constant off-diagonals and the diagonal.
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    /// Its factorization (`max(lz, nz)` rows, so the gathered mean-mode
    /// solve uses it too).
    pivot: Vec<f64>,
    cp: Vec<f64>,
    /// Interface payloads `(x0, influence)` per system, to the above /
    /// below neighbor.
    up: Vec<f64>,
    down: Vec<f64>,
    /// The gathered mean-mode columns (used on the column root) and
    /// their matrix: the cell matrix with the first row pinned.
    mean: Vec<f64>,
    mean_a: Vec<f64>,
    mean_b: Vec<f64>,
    mean_c: Vec<f64>,
}

impl ZWork {
    fn new(d: &Decomp, hz2_inv: f64) -> ZWork {
        let cells = d.lx_t * d.ny;
        let rows = d.lz.max(d.nz);
        let cols = 2 + usize::from(d.cz > 0) + usize::from(d.cz + 1 < d.pz);
        let nz = d.nz;
        let mut mean_a = vec![hz2_inv; nz];
        let mut mean_b = vec![-2.0 * hz2_inv; nz];
        let mut mean_c = vec![hz2_inv; nz];
        mean_b[0] = 1.0;
        mean_c[0] = 0.0;
        mean_a[0] = 0.0;
        mean_b[nz - 1] = -hz2_inv;
        ZWork {
            x: vec![0.0; cols * cells * d.lz],
            cols,
            a: vec![hz2_inv; d.lz],
            b: vec![0.0; d.lz],
            c: vec![hz2_inv; d.lz],
            pivot: vec![0.0; rows],
            cp: vec![0.0; rows],
            up: vec![0.0; 4 * cells],
            down: vec![0.0; 4 * cells],
            mean: vec![0.0; 2 * nz],
            mean_a,
            mean_b,
            mean_c,
        }
    }

    /// Index in `x` of row `k` of system `s = 2 * cell + {re, im}`.
    fn at(&self, lz: usize, s: usize, k: usize) -> usize {
        ((s >> 1) * self.cols + (s & 1)) * lz + k
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
            lam_x: (0..d.nx).map(|k| fd_eigenvalue(k, d.nx, hx)).collect(),
            lam_y: (0..d.ny).map(|k| fd_eigenvalue(k, d.ny, hy)).collect(),
            hz2_inv,
            col: d.col.clone(),
            xp: vec![0.0; 2 * d.nx * d.ly * d.lz],
            yp: vec![0.0; 2 * d.lx_t * d.ny * d.lz],
            line_x: vec![C64::ZERO; d.nx],
            line_y: vec![C64::ZERO; d.ny],
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

    /// Solve `∇² p = rhs` (discrete 2nd-order operator; periodic x,y;
    /// Neumann z). `rhs` and `p` are x-pencil fields; ghosts untouched.
    ///
    /// With the UNR backend the transposes are **slab-pipelined** with
    /// the FFTs (paper Fig 3e): slab k's blocks are PUT to the row peers
    /// as soon as its x-FFT finishes, and the y-FFT of each slab runs as
    /// soon as its MMAS signal fires.
    pub fn solve(&mut self, rhs: &Field3, p: &mut Field3, timers: &mut Timers) {
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
                self.fftx_fwd_slab(rhs, k0, k1);
                self.charge(comm.ep(), nx * ly * (k1 - k0));
                self.pobs.acc(Phase::Fft, t, now(), &mut timers.fft);
                let t = now();
                self.transpose.fwd_send_slab(s, &self.xp);
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
                self.transpose.fwd_recv_slab(s, &mut self.yp);
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
            self.fftx_fwd_slab(rhs, 0, lz);
            self.charge(comm.ep(), nx * ly * lz);
            self.pobs.acc(Phase::Fft, t, now(), &mut timers.fft);
            let t = now();
            self.transpose.forward(&self.xp, &mut self.yp);
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
                self.transpose.bwd_send_slab(s, &self.yp);
                self.pobs
                    .acc(Phase::Transpose, t, now(), &mut timers.transpose);
            }
            self.pending.fill(true);
            for _ in 0..slabs {
                let t = now();
                let s = self.transpose.bwd_wait_any(&self.pending);
                self.pending[s] = false;
                self.transpose.bwd_recv_slab(s, &mut self.xp);
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
            self.transpose.backward(&self.yp, &mut self.xp);
            self.pobs
                .acc(Phase::Transpose, t, now(), &mut timers.transpose);
            let t = now();
            self.fftx_inv_slab(p, 0, lz);
            self.charge(comm.ep(), nx * ly * lz);
            self.pobs.acc(Phase::Fft, t, now(), &mut timers.fft);
        }
    }

    /// Forward FFT in x for z planes `k0..k1`, from `rhs` into `xp`.
    fn fftx_fwd_slab(&mut self, rhs: &Field3, k0: usize, k1: usize) {
        let (nx, ly) = (self.nx, self.ly);
        for k in k0..k1 {
            for j in 0..ly {
                let src = &rhs.data[rhs.idx(0, j, k)..][..nx];
                for (r, &x) in self.line_x.iter_mut().zip(src) {
                    *r = C64::new(x, 0.0);
                }
                self.fft_x.forward(&mut self.line_x);
                let base = (k * ly + j) * nx * 2;
                let dst = &mut self.xp[base..base + 2 * nx];
                for (d, r) in dst.chunks_exact_mut(2).zip(&self.line_x) {
                    d[0] = r.re;
                    d[1] = r.im;
                }
            }
        }
    }

    /// Inverse FFT in x for z planes `k0..k1`, from `xp` into `p`.
    fn fftx_inv_slab(&mut self, p: &mut Field3, k0: usize, k1: usize) {
        let (nx, ly) = (self.nx, self.ly);
        for k in k0..k1 {
            for j in 0..ly {
                let base = (k * ly + j) * nx * 2;
                let src = &self.xp[base..base + 2 * nx];
                for (r, x) in self.line_x.iter_mut().zip(src.chunks_exact(2)) {
                    *r = C64::new(x[0], x[1]);
                }
                self.fft_x.inverse(&mut self.line_x);
                let at = p.idx(0, j, k);
                for (d, r) in p.data[at..at + nx].iter_mut().zip(&self.line_x) {
                    *d = r.re;
                }
            }
        }
    }

    /// FFT in y (forward or inverse) for z planes `k0..k1`, in place on
    /// `yp`.
    fn ffty_slab(&mut self, k0: usize, k1: usize, inverse: bool) {
        let (lx_t, ny) = (self.lx_t, self.ny);
        for k in k0..k1 {
            for i in 0..lx_t {
                for (j, c) in self.line_y.iter_mut().enumerate() {
                    let at = ((k * ny + j) * lx_t + i) * 2;
                    *c = C64::new(self.yp[at], self.yp[at + 1]);
                }
                if inverse {
                    self.fft_y.inverse(&mut self.line_y);
                } else {
                    self.fft_y.forward(&mut self.line_y);
                }
                for (j, c) in self.line_y.iter().enumerate() {
                    let at = ((k * ny + j) * lx_t + i) * 2;
                    self.yp[at] = c.re;
                    self.yp[at + 1] = c.im;
                }
            }
        }
    }

    /// Solve the per-(kx, ky) tridiagonal systems in z on the y-pencil
    /// buffer, in place. The re and im systems of a cell share its
    /// matrix: it is factored once per cell and step, and that
    /// factorization solves both and the cell's influence vectors in
    /// one pass.
    fn solve_z(&mut self) {
        let (lx_t, ny, lz) = (self.lx_t, self.ny, self.lz);
        let cells = lx_t * ny;
        let stride = 2 * cells; // f64 distance between consecutive z rows
        let has_below = self.cz > 0;
        let has_above = self.cz + 1 < self.pz;
        // Cell 0 is (kx, ky) = (0, 0) on the ranks whose x range starts
        // at 0: its singular systems take the gathered exact solve.
        let first = usize::from(self.off_x_t == 0);
        let h = self.hz2_inv;
        let z = &mut self.z;
        let block = z.cols * lz;

        // Gather each system into its cell's column.
        for (k, row) in self.yp.chunks_exact(stride).enumerate() {
            for (s, &x) in row.iter().enumerate() {
                let at = z.at(lz, s, k);
                z.x[at] = x;
            }
        }

        // PDD local phase and interface payloads.
        let (a, b, c) = (&z.a, &mut z.b, &z.c);
        let (pivot, cp) = (&mut z.pivot[..lz], &mut z.cp[..lz]);
        for cell in first..cells {
            let lam = self.lam_x[self.off_x_t + cell % lx_t] + self.lam_y[cell / lx_t];
            b.fill(-2.0 * h + lam);
            // Neumann walls (global first/last rows only).
            if self.cz == 0 {
                b[0] = -h + lam;
            }
            if self.cz + 1 == self.pz {
                b[lz - 1] = -h + lam;
            }
            thomas_factor(a, b, c, pivot, cp);
            let x = &mut z.x[cell * block..(cell + 1) * block];
            // Influence right-hand sides: A v = -a_first e_0, A w =
            // -c_last e_last.
            let infl = &mut x[2 * lz..];
            infl.fill(0.0);
            if has_below {
                infl[0] = -a[0];
            }
            if has_above {
                infl[infl.len() - 1] = -c[lz - 1];
            }
            thomas_solve(a, pivot, cp, x);
            let v_first = if has_below { x[2 * lz] } else { 0.0 };
            let w_last = if has_above { x[block - 1] } else { 0.0 };
            for (s, col) in (2 * cell..).zip(x[..2 * lz].chunks_exact(lz)) {
                z.up[2 * s] = col[lz - 1];
                z.up[2 * s + 1] = w_last;
                z.down[2 * s] = col[0];
                z.down[2 * s + 1] = v_first;
            }
        }

        // Neighbor exchange + interface resolution + correction:
        // x = x0 + xi_left v + xi_right w.
        let (from_below, from_above) = self.pdd.exchange(&z.up, &z.down);
        for cell in first..cells {
            let (sys, infl) = z.x[cell * block..(cell + 1) * block].split_at_mut(2 * lz);
            let (v, w) = infl.split_at(if has_below { lz } else { 0 });
            for (s, xs) in (2 * cell..).zip(sys.chunks_exact_mut(lz)) {
                // Both interfaces see the uncorrected x0: (the below
                // rank's last row, my first) and (my last, the above
                // rank's first).
                let xi_left = from_below.map_or(0.0, |fb| {
                    pdd_interface(fb[2 * s], fb[2 * s + 1], xs[0], v[0]).0
                });
                let xi_right = from_above.map_or(0.0, |fa| {
                    pdd_interface(xs[lz - 1], w[lz - 1], fa[2 * s], fa[2 * s + 1]).1
                });
                for (x, vv) in xs.iter_mut().zip(v) {
                    *x += xi_left * vv;
                }
                for (x, ww) in xs.iter_mut().zip(w) {
                    *x += xi_right * ww;
                }
            }
        }

        // Gathered exact solve of the singular mean mode.
        if first == 1 {
            self.solve_mean_modes();
        }

        // Scatter back.
        let z = &self.z;
        for (k, row) in self.yp.chunks_exact_mut(stride).enumerate() {
            for (s, x) in row.iter_mut().enumerate() {
                *x = z.x[z.at(lz, s, k)];
            }
        }
    }

    /// The (kx=0, ky=0) systems (re and im, the first two columns of
    /// `x`) are singular with Neumann ends; gather them along the
    /// column, pin the first row, and solve exactly.
    fn solve_mean_modes(&mut self) {
        let (lz, nz) = (self.lz, self.nz);
        let z = &mut self.z;
        // The mean systems skipped the local phase: their columns still
        // hold the raw right-hand side.
        let mine = &mut z.x[..2 * lz];
        let gathered = unr_minimpi::gather_bytes(&self.col, 0, as_bytes(mine));
        if let Some(parts) = gathered {
            // Reassemble per system: parts[cz] holds that rank's chunk
            // for both mean systems consecutively.
            for (cz, bytes) in parts.iter().enumerate() {
                let (zs, zl) = crate::decomp::chunk(nz, self.pz, cz);
                assert_eq!(bytes.len(), 2 * zl * 8);
                for (m, sys) in bytes.chunks_exact(zl * 8).enumerate() {
                    copy_f64s(&mut z.mean[m * nz + zs..m * nz + zs + zl], sys);
                }
            }
            // Solve both with the pinned first row.
            let (a, b, c) = (&z.mean_a, &z.mean_b, &z.mean_c);
            let (pivot, cp) = (&mut z.pivot[..nz], &mut z.cp[..nz]);
            thomas_factor(a, b, c, pivot, cp);
            for d in z.mean.chunks_exact_mut(nz) {
                d[0] = 0.0; // pinned reference value
            }
            thomas_solve(a, pivot, cp, &mut z.mean);
            unr_minimpi::bcast(&self.col, 0, as_bytes(&z.mean));
        } else {
            copy_f64s(&mut z.mean, &unr_minimpi::bcast(&self.col, 0, &[]));
        }
        // Each rank takes its chunk of the full solution.
        let (zs, _zl) = crate::decomp::chunk(nz, self.pz, self.cz);
        for (m, col) in mine.chunks_exact_mut(lz).enumerate() {
            col.copy_from_slice(&z.mean[m * nz + zs..m * nz + zs + lz]);
        }
    }
}

/// Copy the f64s that [`as_bytes`] encoded in `bytes` into `dst`.
fn copy_f64s(dst: &mut [f64], bytes: &[u8]) {
    assert_eq!(bytes.len(), 8 * dst.len());
    for (x, b) in dst.iter_mut().zip(bytes.chunks_exact(8)) {
        *x = f64::from_ne_bytes(b.try_into().expect("8-byte chunk"));
    }
}
