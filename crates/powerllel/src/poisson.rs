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

use unr_simnet::mem::{as_bytes, vec_from_bytes};
use unr_simnet::Ns;

use crate::backend::{Backend, PddExchange};
use crate::decomp::Decomp;
use crate::fft::{fd_eigenvalue, Fft, C64};
use crate::field::Field3;
use crate::timing::{Phase, PhaseObs, Timers};
use crate::transpose::TransposeOp;
use crate::tridiag::{pdd_correct, pdd_interface, pdd_local, thomas};

pub struct PoissonSolver {
    nx: usize,
    ny: usize,
    nz: usize,
    ly: usize,
    lz: usize,
    lx_t: usize,
    off_x_t: usize,
    off_z: usize,
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
    /// Scratch buffers.
    xp: Vec<f64>,
    yp: Vec<f64>,
    /// Virtual-time cost per grid point per pass.
    flop_ns: f64,
    pobs: PhaseObs,
}

impl PoissonSolver {
    pub fn new(backend: &Backend, d: &Decomp, hx: f64, hy: f64, hz: f64, flop_ns: f64) -> Self {
        let systems = d.lx_t * d.ny * 2; // re + im per (kx, ky)
        PoissonSolver {
            nx: d.nx,
            ny: d.ny,
            nz: d.nz,
            ly: d.ly,
            lz: d.lz,
            lx_t: d.lx_t,
            off_x_t: d.off_x_t,
            off_z: d.off_z,
            cz: d.cz,
            pz: d.pz,
            fft_x: Fft::new(d.nx),
            fft_y: Fft::new(d.ny),
            transpose: TransposeOp::new(backend, d, 4),
            pdd: PddExchange::new(backend, d, systems),
            lam_x: (0..d.nx).map(|k| fd_eigenvalue(k, d.nx, hx)).collect(),
            lam_y: (0..d.ny).map(|k| fd_eigenvalue(k, d.ny, hy)).collect(),
            hz2_inv: 1.0 / (hz * hz),
            col: d.col.clone(),
            xp: vec![0.0; 2 * d.nx * d.ly * d.lz],
            yp: vec![0.0; 2 * d.lx_t * d.ny * d.lz],
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
                self.transpose.fwd_send_slab(s, &self.xp.clone());
                self.pobs
                    .acc(Phase::Transpose, t, now(), &mut timers.transpose);
            }
            // Consume slabs as they arrive (multi-rail jitter reorders
            // them); each slab's y-FFT runs as soon as its MMAS signal
            // fires — paper Fig 3e: "once a slab of data is received, a
            // thread can consume the data".
            let mut pending = vec![true; slabs];
            for _ in 0..slabs {
                let t = now();
                let s = self.transpose.fwd_wait_any(&pending);
                pending[s] = false;
                let mut yp = std::mem::take(&mut self.yp);
                self.transpose.fwd_recv_slab(s, &mut yp);
                self.yp = yp;
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
            self.transpose.forward(&self.xp.clone(), &mut self.yp);
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
                self.transpose.bwd_send_slab(s, &self.yp.clone());
                self.pobs
                    .acc(Phase::Transpose, t, now(), &mut timers.transpose);
            }
            let mut pending = vec![true; slabs];
            for _ in 0..slabs {
                let t = now();
                let s = self.transpose.bwd_wait_any(&pending);
                pending[s] = false;
                let mut xp = std::mem::take(&mut self.xp);
                self.transpose.bwd_recv_slab(s, &mut xp);
                self.xp = xp;
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
            self.transpose.backward(&self.yp.clone(), &mut self.xp);
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
        let mut row = vec![C64::ZERO; nx];
        for k in k0..k1 {
            for j in 0..ly {
                for (i, r) in row.iter_mut().enumerate() {
                    *r = C64::new(rhs.data[rhs.idx(i, j, k)], 0.0);
                }
                self.fft_x.forward(&mut row);
                let base = (k * ly + j) * nx * 2;
                for (i, r) in row.iter().enumerate() {
                    self.xp[base + 2 * i] = r.re;
                    self.xp[base + 2 * i + 1] = r.im;
                }
            }
        }
    }

    /// Inverse FFT in x for z planes `k0..k1`, from `xp` into `p`.
    fn fftx_inv_slab(&mut self, p: &mut Field3, k0: usize, k1: usize) {
        let (nx, ly) = (self.nx, self.ly);
        let mut row = vec![C64::ZERO; nx];
        for k in k0..k1 {
            for j in 0..ly {
                let base = (k * ly + j) * nx * 2;
                for (i, r) in row.iter_mut().enumerate() {
                    *r = C64::new(self.xp[base + 2 * i], self.xp[base + 2 * i + 1]);
                }
                self.fft_x.inverse(&mut row);
                for (i, r) in row.iter().enumerate() {
                    let at = p.idx(i, j, k);
                    p.data[at] = r.re;
                }
            }
        }
    }

    /// FFT in y (forward or inverse) for z planes `k0..k1`, in place on
    /// `yp`.
    fn ffty_slab(&mut self, k0: usize, k1: usize, inverse: bool) {
        let (lx_t, ny) = (self.lx_t, self.ny);
        let mut col_buf = vec![C64::ZERO; ny];
        for k in k0..k1 {
            for i in 0..lx_t {
                for (j, c) in col_buf.iter_mut().enumerate() {
                    let at = ((k * ny + j) * lx_t + i) * 2;
                    *c = C64::new(self.yp[at], self.yp[at + 1]);
                }
                if inverse {
                    self.fft_y.inverse(&mut col_buf);
                } else {
                    self.fft_y.forward(&mut col_buf);
                }
                for (j, c) in col_buf.iter().enumerate() {
                    let at = ((k * ny + j) * lx_t + i) * 2;
                    self.yp[at] = c.re;
                    self.yp[at + 1] = c.im;
                }
            }
        }
    }

    /// Solve the per-(kx, ky) tridiagonal systems in z on the y-pencil
    /// buffer, in place.
    fn solve_z(&mut self) {
        let (lx_t, ny, lz) = (self.lx_t, self.ny, self.lz);
        let nsys = lx_t * ny * 2;
        let stride = lx_t * ny * 2; // f64 distance between consecutive z rows
        let has_below = self.cz > 0;
        let has_above = self.cz + 1 < self.pz;

        // Gather each system into a contiguous column, run the PDD local
        // phase, assemble interface payloads.
        let mut x0 = vec![0.0f64; nsys * lz];
        let mut locals = Vec::with_capacity(nsys);
        let mut up = vec![0.0f64; 2 * nsys];
        let mut down = vec![0.0f64; 2 * nsys];
        let mut a = vec![0.0f64; lz];
        let mut b = vec![0.0f64; lz];
        let mut c = vec![0.0f64; lz];
        let mut mean_sys: Vec<usize> = Vec::new();

        for s in 0..nsys {
            let comp = s & 1; // 0 = re, 1 = im
            let cell = s >> 1;
            let i = cell % lx_t;
            let j = cell / lx_t;
            let kx = self.off_x_t + i;
            let lam = self.lam_x[kx] + self.lam_y[j];
            let is_mean = kx == 0 && j == 0;
            if is_mean {
                mean_sys.push(s);
            }
            // Column gather.
            for k in 0..lz {
                x0[s * lz + k] = self.yp[k * stride + (j * lx_t + i) * 2 + comp];
            }
            if is_mean {
                continue; // handled by the gathered exact solve
            }
            for k in 0..lz {
                a[k] = self.hz2_inv;
                c[k] = self.hz2_inv;
                b[k] = -2.0 * self.hz2_inv + lam;
            }
            // Neumann walls (global first/last rows only).
            if self.cz == 0 {
                b[0] = -self.hz2_inv + lam;
            }
            if self.cz + 1 == self.pz {
                b[lz - 1] = -self.hz2_inv + lam;
            }
            let loc = pdd_local(
                &a,
                &b,
                &c,
                &mut x0[s * lz..(s + 1) * lz],
                has_below,
                has_above,
            );
            up[2 * s] = x0[s * lz + lz - 1];
            up[2 * s + 1] = loc.w.as_ref().map(|w| w[lz - 1]).unwrap_or(0.0);
            down[2 * s] = x0[s * lz];
            down[2 * s + 1] = loc.v.as_ref().map(|v| v[0]).unwrap_or(0.0);
            locals.push(Some(loc));
            continue;
        }
        // Pad locals for mean systems (kept aligned with s).
        // (They were skipped above; rebuild alignment.)
        let mut locals_aligned: Vec<Option<crate::tridiag::PddLocal>> = Vec::with_capacity(nsys);
        {
            let mut it = locals.into_iter();
            for s in 0..nsys {
                if mean_sys.contains(&s) {
                    locals_aligned.push(None);
                } else {
                    locals_aligned.push(it.next().expect("local solve per system"));
                }
            }
        }

        // Neighbor exchange + interface resolution + correction.
        let (from_below, from_above) = self.pdd.exchange(&up, &down);
        for s in 0..nsys {
            let Some(loc) = &locals_aligned[s] else {
                continue;
            };
            let xs = &mut x0[s * lz..(s + 1) * lz];
            let mut xi_left = 0.0;
            let mut xi_right = 0.0;
            if let Some(fb) = &from_below {
                // Interface with the below rank: (its last row, my first).
                let (xi, _eta) = pdd_interface(
                    fb[2 * s],
                    fb[2 * s + 1],
                    xs[0],
                    loc.v.as_ref().expect("v")[0],
                );
                xi_left = xi;
            }
            if let Some(fa) = &from_above {
                let (_xi, eta) = pdd_interface(
                    xs[lz - 1],
                    loc.w.as_ref().expect("w")[lz - 1],
                    fa[2 * s],
                    fa[2 * s + 1],
                );
                xi_right = eta;
            }
            pdd_correct(xs, loc, xi_left, xi_right);
        }

        // Gathered exact solve of the singular mean mode(s).
        if !mean_sys.is_empty() {
            self.solve_mean_modes(&mean_sys, &mut x0);
        }

        // Scatter back.
        for s in 0..nsys {
            let comp = s & 1;
            let cell = s >> 1;
            let i = cell % lx_t;
            let j = cell / lx_t;
            for k in 0..lz {
                self.yp[k * stride + (j * lx_t + i) * 2 + comp] = x0[s * lz + k];
            }
        }
    }

    /// The (kx=0, ky=0) system is singular with Neumann ends; gather it
    /// along the column, pin the first row, and solve exactly.
    fn solve_mean_modes(&mut self, mean_sys: &[usize], x0: &mut [f64]) {
        let lz = self.lz;
        let nz = self.nz;
        // Flatten the mean-mode local rhs values. NOTE: x0 currently
        // holds the *Thomas-solved* values for non-mean systems, but for
        // mean systems it still holds the raw rhs (they were skipped).
        let mut mine = Vec::with_capacity(mean_sys.len() * lz);
        for &s in mean_sys {
            mine.extend_from_slice(&x0[s * lz..(s + 1) * lz]);
        }
        let gathered = unr_minimpi::gather_bytes(&self.col, 0, as_bytes(&mine));
        let solved: Vec<f64> = if let Some(parts) = gathered {
            // Reassemble per system: parts[cz] holds that rank's chunk
            // for every mean system consecutively.
            let per: Vec<Vec<f64>> = parts.iter().map(|b| vec_from_bytes::<f64>(b)).collect();
            let nsysm = mean_sys.len();
            let mut full = vec![0.0f64; nsysm * nz];
            for (cz, chunk_vals) in per.iter().enumerate() {
                let (zs, zl) = crate::decomp::chunk(nz, self.pz, cz);
                assert_eq!(chunk_vals.len(), nsysm * zl);
                for m in 0..nsysm {
                    full[m * nz + zs..m * nz + zs + zl]
                        .copy_from_slice(&chunk_vals[m * zl..(m + 1) * zl]);
                }
            }
            // Solve each with the pinned first row.
            let h2 = self.hz2_inv;
            for m in 0..nsysm {
                let mut a = vec![h2; nz];
                let mut b = vec![-2.0 * h2; nz];
                let mut c = vec![h2; nz];
                b[0] = 1.0;
                c[0] = 0.0;
                a[0] = 0.0;
                b[nz - 1] = -h2;
                let d = &mut full[m * nz..(m + 1) * nz];
                d[0] = 0.0; // pinned reference value
                thomas(&a, &b, &c, d);
            }
            // Broadcast the full solution.
            unr_minimpi::bcast(&self.col, 0, as_bytes(&full));
            full
        } else {
            vec_from_bytes::<f64>(&unr_minimpi::bcast(&self.col, 0, &[]))
        };
        // Each rank takes its chunk.
        let (zs, _zl) = crate::decomp::chunk(nz, self.pz, self.cz);
        let _ = self.off_z;
        for (m, &s) in mean_sys.iter().enumerate() {
            for k in 0..lz {
                x0[s * lz + k] = solved[m * nz + zs + k];
            }
        }
    }
}
