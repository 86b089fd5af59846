//! The mini-PowerLLEL solver: incompressible flow on a staggered grid,
//! RK2 momentum advance + FFT/PDD pressure projection (paper §V-B,
//! Figure 3a).
//!
//! Staggering: cell `(i, j, k)` stores `p` at its center, `u` on its
//! +x face, `v` on its +y face, `w` on its +z face. x and y are
//! periodic; z has no-slip walls (`u = v = 0` at the walls, `w = 0` on
//! the wall faces). With this arrangement `div ∘ grad` is exactly the
//! compact 7-point Laplacian the spectral solver inverts, so the
//! projected field is discretely divergence-free.
//!
//! A rank holds seven whole-pencil fields: `u v w p` and the RK stage
//! `us vs ws`. Each RK substep is one stencil pass that stores the stage
//! value itself (`us = u + dt F(u)`, then `u = 0.5 (u + us + dt F(us))`),
//! and the pressure solve runs in place: `p` takes `div u / dt` and the
//! Poisson solver overwrites it with the solution.

use unr_simnet::Ns;

use crate::backend::Backend;
use crate::decomp::Decomp;
use crate::field::Field3;
use crate::halo::HaloOp;
use crate::poisson::PoissonSolver;
use crate::timing::{Phase, PhaseObs, Timers};

/// Solver configuration (identical on all ranks).
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub py: usize,
    pub pz: usize,
    /// Kinematic viscosity.
    pub nu: f64,
    /// Time step.
    pub dt: f64,
    /// Domain size (uniform spacing per direction).
    pub lx: f64,
    pub ly: f64,
    pub lz: f64,
    /// Virtual nanoseconds charged per grid-point update (models the
    /// per-core compute speed; Fig 6 sweeps this).
    pub flop_ns: f64,
    /// Overlap communication with interior computation. `None`: follow
    /// the backend (UNR overlaps — the paper's optimized PowerLLEL;
    /// MPI does not — the original bulk-synchronous code).
    pub overlap: Option<bool>,
}

impl SolverConfig {
    pub fn small(py: usize, pz: usize) -> SolverConfig {
        SolverConfig {
            nx: 16,
            ny: 16,
            nz: 16,
            py,
            pz,
            nu: 0.05,
            dt: 2e-3,
            lx: 1.0,
            ly: 1.0,
            lz: 1.0,
            flop_ns: 2.0,
            overlap: None,
        }
    }

    pub fn hx(&self) -> f64 {
        self.lx / self.nx as f64
    }
    pub fn hy(&self) -> f64 {
        self.ly / self.ny as f64
    }
    pub fn hz(&self) -> f64 {
        self.lz / self.nz as f64
    }
}

/// The x rows of one field around `(j, k)`: the center row and its
/// four y/z neighbors.
struct Star<'a> {
    c: &'a [f64],
    jm: &'a [f64],
    jp: &'a [f64],
    km: &'a [f64],
    kp: &'a [f64],
}

impl<'a> Star<'a> {
    fn new(f: &'a Field3, j: isize, k: isize) -> Star<'a> {
        Star {
            c: f.row(j, k),
            jm: f.row(j - 1, k),
            jp: f.row(j + 1, k),
            km: f.row(j, k - 1),
            kp: f.row(j, k + 1),
        }
    }

    /// The 7-point Laplacian at `i` (`im`/`ip`: its periodic x
    /// neighbors), `h2` the squared spacings.
    #[inline(always)]
    fn lap(&self, i: usize, im: usize, ip: usize, (hx2, hy2, hz2): (f64, f64, f64)) -> f64 {
        let c = self.c[i];
        (self.c[im] - 2.0 * c + self.c[ip]) / hx2
            + (self.jm[i] - 2.0 * c + self.jp[i]) / hy2
            + (self.km[i] - 2.0 * c + self.kp[i]) / hz2
    }
}

/// Grid spacings, their squares, the viscosity and the time step.
struct Spacing {
    h: (f64, f64, f64),
    h2: (f64, f64, f64),
    nu: f64,
    dt: f64,
}

/// Every row the momentum stencil of one `(j, k)` reads.
struct Stencil<'a> {
    u: Star<'a>,
    v: Star<'a>,
    w: Star<'a>,
    /// The two diagonal rows the cross terms read: v at `(j-1, k+1)`
    /// and w at `(j+1, k-1)`.
    v_jm_kp: &'a [f64],
    w_jp_km: &'a [f64],
}

impl<'a> Stencil<'a> {
    fn new(u: &'a Field3, v: &'a Field3, w: &'a Field3, j: isize, k: isize) -> Stencil<'a> {
        Stencil {
            u: Star::new(u, j, k),
            v: Star::new(v, j, k),
            w: Star::new(w, j, k),
            v_jm_kp: v.row(j - 1, k + 1),
            w_jp_km: w.row(j + 1, k - 1),
        }
    }

    /// `F = -conv + nu * lap` of u, v and w at `i` (`im`/`ip`: its
    /// periodic x neighbors). Every expression reads the same operands
    /// in the same order as the stencil written with [`Field3::get`].
    #[inline(always)]
    fn rhs(&self, i: usize, im: usize, ip: usize, sp: &Spacing) -> (f64, f64, f64) {
        let (us, vs, ws) = (&self.u, &self.v, &self.w);
        let (hx, hy, hz) = sp.h;
        let nu = sp.nu;
        // ---- u momentum (at +x face) ----
        let fu = {
            let uc_e = 0.5 * (us.c[i] + us.c[ip]);
            let uc_w = 0.5 * (us.c[im] + us.c[i]);
            let duu = (uc_e * uc_e - uc_w * uc_w) / hx;
            let v_n = 0.5 * (vs.c[i] + vs.c[ip]);
            let u_n = 0.5 * (us.c[i] + us.jp[i]);
            let v_s = 0.5 * (vs.jm[i] + vs.jm[ip]);
            let u_s = 0.5 * (us.jm[i] + us.c[i]);
            let duv = (u_n * v_n - u_s * v_s) / hy;
            let w_t = 0.5 * (ws.c[i] + ws.c[ip]);
            let u_t = 0.5 * (us.c[i] + us.kp[i]);
            let w_b = 0.5 * (ws.km[i] + ws.km[ip]);
            let u_b = 0.5 * (us.km[i] + us.c[i]);
            let duw = (u_t * w_t - u_b * w_b) / hz;
            -(duu + duv + duw) + nu * us.lap(i, im, ip, sp.h2)
        };
        // ---- v momentum (at +y face) ----
        let fv = {
            let u_e = 0.5 * (us.c[i] + us.jp[i]);
            let v_e = 0.5 * (vs.c[i] + vs.c[ip]);
            let u_w = 0.5 * (us.c[im] + us.jp[im]);
            let v_w = 0.5 * (vs.c[im] + vs.c[i]);
            let dvu = (u_e * v_e - u_w * v_w) / hx;
            let vc_n = 0.5 * (vs.c[i] + vs.jp[i]);
            let vc_s = 0.5 * (vs.jm[i] + vs.c[i]);
            let dvv = (vc_n * vc_n - vc_s * vc_s) / hy;
            let w_t = 0.5 * (ws.c[i] + ws.jp[i]);
            let v_t = 0.5 * (vs.c[i] + vs.kp[i]);
            let w_b = 0.5 * (ws.km[i] + self.w_jp_km[i]);
            let v_b = 0.5 * (vs.km[i] + vs.c[i]);
            let dvw = (v_t * w_t - v_b * w_b) / hz;
            -(dvu + dvv + dvw) + nu * vs.lap(i, im, ip, sp.h2)
        };
        // ---- w momentum (at +z face) ----
        let fw = {
            let u_e = 0.5 * (us.c[i] + us.kp[i]);
            let w_e = 0.5 * (ws.c[i] + ws.c[ip]);
            let u_w = 0.5 * (us.c[im] + us.kp[im]);
            let w_w = 0.5 * (ws.c[im] + ws.c[i]);
            let dwu = (u_e * w_e - u_w * w_w) / hx;
            let v_n = 0.5 * (vs.c[i] + vs.kp[i]);
            let w_n = 0.5 * (ws.c[i] + ws.jp[i]);
            let v_s = 0.5 * (vs.jm[i] + self.v_jm_kp[i]);
            let w_s = 0.5 * (ws.jm[i] + ws.c[i]);
            let dwv = (v_n * w_n - v_s * w_s) / hy;
            let wc_t = 0.5 * (ws.c[i] + ws.kp[i]);
            let wc_b = 0.5 * (ws.km[i] + ws.c[i]);
            let dww = (wc_t * wc_t - wc_b * wc_b) / hz;
            -(dwu + dwv + dww) + nu * ws.lap(i, im, ip, sp.h2)
        };
        (fu, fv, fw)
    }

    /// One RK stage at `i` from [`Self::rhs`], stored into the output
    /// cells `o`: the Euler stage `o = x + dt F`, or with `HEUN` the
    /// Heun stage `o = 0.5 (o + x + dt F)`, `x` the input at `i`.
    #[inline(always)]
    fn stage<const HEUN: bool>(
        &self,
        i: usize,
        im: usize,
        ip: usize,
        sp: &Spacing,
        [ou, ov, ow]: [&mut f64; 3],
    ) {
        let (fu, fv, fw) = self.rhs(i, im, ip, sp);
        let dt = sp.dt;
        let put = |o: &mut f64, x: f64, f: f64| {
            *o = if HEUN {
                0.5 * (*o + x + dt * f)
            } else {
                x + dt * f
            }
        };
        put(ou, self.u.c[i], fu);
        put(ov, self.v.c[i], fv);
        put(ow, self.w.c[i], fw);
    }
}

/// The distributed solver state for one rank.
pub struct Solver {
    pub cfg: SolverConfig,
    pub d: Decomp,
    backend_name: &'static str,
    // Velocity, pressure and RK stage fields (1 ghost layer). `p` also
    // carries `div u / dt` into the in-place Poisson solve; `us vs ws`
    // carry `u + dt F(u)` from the first RK substep to the second.
    pub u: Field3,
    pub v: Field3,
    pub w: Field3,
    pub p: Field3,
    us: Field3,
    vs: Field3,
    ws: Field3,
    // Communication machinery.
    halo_a: HaloOp,
    halo_b: HaloOp,
    halo_p: HaloOp,
    poisson: PoissonSolver,
    overlap: bool,
    pub timers: Timers,
    pobs: PhaseObs,
    steps_done: usize,
}

impl Solver {
    /// Collective constructor.
    pub fn new(backend: &Backend, comm: &unr_minimpi::Comm, cfg: SolverConfig) -> Solver {
        let d = Decomp::new(comm, cfg.nx, cfg.ny, cfg.nz, cfg.py, cfg.pz);
        let mk = || Field3::new(cfg.nx, d.ly, d.lz, 1);
        // Two halo exchanger instances alternate between RK substeps
        // (paper Fig 3d): each is the implicit pre-synchronization of
        // the other.
        let halo_a = HaloOp::new(backend, &d, 1, 3, 0);
        let halo_b = HaloOp::new(backend, &d, 1, 3, 1);
        let halo_p = HaloOp::new(backend, &d, 1, 1, 2);
        let poisson = PoissonSolver::new(backend, &d, cfg.hx(), cfg.hy(), cfg.hz(), cfg.flop_ns);
        let overlap = cfg.overlap.unwrap_or(matches!(backend, Backend::Unr(_)));
        let pobs = PhaseObs::new(std::sync::Arc::clone(&comm.ep().fabric().obs), comm.rank());
        Solver {
            cfg,
            overlap,
            backend_name: backend.name(),
            u: mk(),
            v: mk(),
            w: mk(),
            p: mk(),
            us: mk(),
            vs: mk(),
            ws: mk(),
            halo_a,
            halo_b,
            halo_p,
            poisson,
            timers: Timers::default(),
            pobs,
            steps_done: 0,
            d,
        }
    }

    pub fn backend_name(&self) -> &'static str {
        self.backend_name
    }

    /// Taylor–Green-like initial condition (periodic in x/y, damped
    /// towards the walls so the no-slip BC is consistent).
    pub fn init_taylor_green(&mut self) {
        let cfg = self.cfg;
        let (hx, hy, hz) = (cfg.hx(), cfg.hy(), cfg.hz());
        let two_pi = 2.0 * std::f64::consts::PI;
        let (oy, oz) = (self.d.off_y, self.d.off_z);
        let nz = cfg.nz;
        let fz = |zk: f64| (std::f64::consts::PI * zk).sin(); // 0 at walls
        self.u.fill(oy, oz, |i, j, k| {
            let x = (i as f64 + 1.0) * hx; // +x face
            let y = (j as f64 + 0.5) * hy;
            let z = (k as f64 + 0.5) * hz / (nz as f64 * hz);
            (two_pi * x / cfg.lx).sin() * (two_pi * y / cfg.ly).cos() * fz(z)
        });
        self.v.fill(oy, oz, |i, j, k| {
            let x = (i as f64 + 0.5) * hx;
            let y = (j as f64 + 1.0) * hy;
            let z = (k as f64 + 0.5) * hz / (nz as f64 * hz);
            -(two_pi * x / cfg.lx).cos() * (two_pi * y / cfg.ly).sin() * fz(z)
        });
        // w = 0 initially.
        self.w.fill(oy, oz, |_, _, _| 0.0);
        let top = self.is_top();
        Self::enforce_top_wall(&mut self.w, top);
        self.project();
    }

    fn is_bottom(&self) -> bool {
        self.d.cz == 0
    }
    fn is_top(&self) -> bool {
        self.d.cz + 1 == self.d.pz
    }

    /// Wall-face values of a w-like field (`w` or `ws`) are constrained
    /// to zero: on the `top` ranks, its last interior z row.
    fn enforce_top_wall(w: &mut Field3, top: bool) {
        if top {
            let k = w.nz as isize - 1;
            for j in 0..w.ny as isize {
                w.row_mut(j, k).fill(0.0);
            }
        }
    }

    /// Fill z-ghost layers with wall boundary conditions (only on wall
    /// ranks; interior z ghosts come from the halo exchange).
    fn z_wall_bc(u: &mut Field3, v: &mut Field3, w: &mut Field3, bottom: bool, top: bool) {
        let (nx, ny, nz) = (u.nx as isize, u.ny as isize, u.nz as isize);
        if bottom {
            for j in -1..ny + 1 {
                for i in 0..nx {
                    // No-slip: mirror u, v; wall face below cell 0 is w[-1].
                    let uval = u.get(i, j, 0);
                    u.set(i, j, -1, -uval);
                    let vval = v.get(i, j, 0);
                    v.set(i, j, -1, -vval);
                    w.set(i, j, -1, 0.0);
                }
            }
        }
        if top {
            for j in -1..ny + 1 {
                for i in 0..nx {
                    let uval = u.get(i, j, nz - 1);
                    u.set(i, j, nz, -uval);
                    let vval = v.get(i, j, nz - 1);
                    v.set(i, j, nz, -vval);
                    // w[nz-1] is the wall itself (0); the ghost face
                    // above mirrors to keep d(uw)/dz finite.
                    w.set(i, j, nz, 0.0);
                    w.set(i, j, nz - 1, 0.0);
                }
            }
        }
    }

    fn p_wall_bc(p: &mut Field3, bottom: bool, top: bool) {
        let (nx, ny, nz) = (p.nx as isize, p.ny as isize, p.nz as isize);
        if bottom {
            for j in -1..ny + 1 {
                for i in 0..nx {
                    let v = p.get(i, j, 0);
                    p.set(i, j, -1, v);
                }
            }
        }
        if top {
            for j in -1..ny + 1 {
                for i in 0..nx {
                    let v = p.get(i, j, nz - 1);
                    p.set(i, j, nz, v);
                }
            }
        }
    }

    /// One RK stage from the momentum right-hand side
    /// `F = -conv + nu * lap` of `(u, v, w)` (ghosts must be current for
    /// the requested range), stored into `(ou, ov, ow)` over `j` in
    /// `[j0, j1)` and `k` in `[k0, k1)`: the Euler stage `o = u + dt F`,
    /// or with `HEUN` the Heun stage `o = 0.5 (o + u + dt F)`.
    ///
    /// Each `(j, k)` takes its neighbor rows once and resolves the
    /// periodic x wrap at the two end cells only. `HEUN` is a const so
    /// that each stage compiles to its own inner loop, and the per-cell
    /// work is the `#[inline(always)]` [`Stencil::stage`]: a run-time
    /// `bool` tested per cell, or a per-cell closure called from the
    /// three places, each made this pass slower than the stencil plus a
    /// separate combine sweep (DESIGN §5b).
    #[allow(clippy::too_many_arguments)]
    fn momentum_rhs<const HEUN: bool>(
        cfg: &SolverConfig,
        u: &Field3,
        v: &Field3,
        w: &Field3,
        ou: &mut Field3,
        ov: &mut Field3,
        ow: &mut Field3,
        (j0, j1): (isize, isize),
        (k0, k1): (isize, isize),
    ) {
        let (hx, hy, hz) = (cfg.hx(), cfg.hy(), cfg.hz());
        let h = Spacing {
            h: (hx, hy, hz),
            h2: (hx * hx, hy * hy, hz * hz),
            nu: cfg.nu,
            dt: cfg.dt,
        };
        let nx = u.nx;
        for k in k0..k1 {
            for j in j0..j1 {
                let st = Stencil::new(u, v, w, j, k);
                let (ou, ov, ow) = (ou.row_mut(j, k), ov.row_mut(j, k), ow.row_mut(j, k));
                // The periodic x wrap touches the two end cells only.
                st.stage::<HEUN>(0, nx - 1, 1 % nx, &h, [&mut ou[0], &mut ov[0], &mut ow[0]]);
                for i in 1..nx.saturating_sub(1) {
                    st.stage::<HEUN>(i, i - 1, i + 1, &h, [&mut ou[i], &mut ov[i], &mut ow[i]]);
                }
                if nx > 1 {
                    let i = nx - 1;
                    st.stage::<HEUN>(i, i - 1, 0, &h, [&mut ou[i], &mut ov[i], &mut ow[i]]);
                }
            }
        }
    }

    /// `div u` of every interior cell, handed to `f(flat index, div)`
    /// row by row.
    fn for_each_div(
        cfg: &SolverConfig,
        u: &Field3,
        v: &Field3,
        w: &Field3,
        mut f: impl FnMut(usize, f64),
    ) {
        let (hx, hy, hz) = (cfg.hx(), cfg.hy(), cfg.hz());
        let nx = u.nx;
        for k in 0..u.nz as isize {
            for j in 0..u.ny as isize {
                let (u_c, v_c, v_jm) = (u.row(j, k), v.row(j, k), v.row(j - 1, k));
                let (w_c, w_km) = (w.row(j, k), w.row(j, k - 1));
                let at = u.idx(0, j as usize, k as usize);
                for i in 0..nx {
                    let im = if i == 0 { nx - 1 } else { i - 1 };
                    let div =
                        (u_c[i] - u_c[im]) / hx + (v_c[i] - v_jm[i]) / hy + (w_c[i] - w_km[i]) / hz;
                    f(at + i, div);
                }
            }
        }
    }

    /// Pressure correction `u -= dt grad p` over the interior (`p`'s
    /// ghosts must be current).
    fn correct(cfg: &SolverConfig, p: &Field3, u: &mut Field3, v: &mut Field3, w: &mut Field3) {
        let (hx, hy, hz) = (cfg.hx(), cfg.hy(), cfg.hz());
        let dt = cfg.dt;
        let nx = p.nx;
        for k in 0..p.nz as isize {
            for j in 0..p.ny as isize {
                let (p_c, p_jp, p_kp) = (p.row(j, k), p.row(j + 1, k), p.row(j, k + 1));
                let (ur, vr, wr) = (u.row_mut(j, k), v.row_mut(j, k), w.row_mut(j, k));
                for i in 0..nx {
                    let ip = if i + 1 == nx { 0 } else { i + 1 };
                    let du = dt * (p_c[ip] - p_c[i]) / hx;
                    let dv = dt * (p_jp[i] - p_c[i]) / hy;
                    let dw = dt * (p_kp[i] - p_c[i]) / hz;
                    ur[i] -= du;
                    vr[i] -= dv;
                    wr[i] -= dw;
                }
            }
        }
    }

    /// Halo exchange + stencil pass for one RK substep, with
    /// communication overlapped by interior computation when enabled.
    /// `HEUN` false: `us = u + dt F(u)` via exchanger A; true:
    /// `u = 0.5 (u + us + dt F(us))` via exchanger B.
    fn rhs_with_halo<const HEUN: bool>(&mut self) {
        let cfg = self.cfg;
        let (bottom, top) = (self.is_bottom(), self.is_top());
        let vel = [&mut self.u, &mut self.v, &mut self.w];
        let stage = [&mut self.us, &mut self.vs, &mut self.ws];
        let (halo, units, [u, v, w], [ou, ov, ow]) = if HEUN {
            (&mut self.halo_b, 35, stage, vel)
        } else {
            (&mut self.halo_a, 30, vel, stage)
        };
        let (d, timers, pobs) = (&self.d, &mut self.timers, &self.pobs);
        let ep = d.world.ep();
        let (ly, lz) = (d.ly as isize, d.lz as isize);
        let charge = |n: usize| ep.advance((n as f64 * cfg.flop_ns * units as f64) as Ns);
        if self.overlap && ly > 2 && lz > 2 {
            // Post transfers, compute the interior, then the shells. The
            // interior's stage values read their own cells before
            // `z_wall_bc`; of the input's interior cells it writes only
            // w's top row, which lies in the shells.
            let t = ep.now();
            halo.start(&mut [u, v, w]);
            pobs.acc(Phase::Halo, t, ep.now(), &mut timers.halo);

            let t = ep.now();
            Self::momentum_rhs::<HEUN>(&cfg, u, v, w, ou, ov, ow, (1, ly - 1), (1, lz - 1));
            let interior = cfg.nx * (ly as usize - 2) * (lz as usize - 2);
            charge(interior);
            pobs.acc(Phase::Rk, t, ep.now(), &mut timers.rk_compute);

            let t = ep.now();
            halo.finish(&mut [u, v, w]);
            Self::z_wall_bc(u, v, w, bottom, top);
            pobs.acc(Phase::Halo, t, ep.now(), &mut timers.halo);

            let t = ep.now();
            for (js, ks) in [
                ((0, ly), (0, 1)),
                ((0, ly), (lz - 1, lz)),
                ((0, 1), (1, lz - 1)),
                ((ly - 1, ly), (1, lz - 1)),
            ] {
                Self::momentum_rhs::<HEUN>(&cfg, u, v, w, ou, ov, ow, js, ks);
            }
            let shell = cfg.nx * d.ly * d.lz - interior;
            charge(shell);
            pobs.acc(Phase::Rk, t, ep.now(), &mut timers.rk_compute);
        } else {
            let t = ep.now();
            halo.exchange(&mut [u, v, w]);
            Self::z_wall_bc(u, v, w, bottom, top);
            pobs.acc(Phase::Halo, t, ep.now(), &mut timers.halo);

            let t = ep.now();
            Self::momentum_rhs::<HEUN>(&cfg, u, v, w, ou, ov, ow, (0, ly), (0, lz));
            charge(cfg.nx * d.ly * d.lz);
            pobs.acc(Phase::Rk, t, ep.now(), &mut timers.rk_compute);
        }
    }

    fn charge_compute(&self, points: usize) {
        let ns = (points as f64 * self.cfg.flop_ns) as Ns;
        self.d.world.ep().advance(ns);
    }

    fn now(&self) -> Ns {
        self.d.world.ep().now()
    }

    fn cells(&self) -> usize {
        self.cfg.nx * self.d.ly * self.d.lz
    }

    /// Exchange velocity halos + apply wall BCs through `halo` (A or B:
    /// the two alternate per RK substep).
    fn velocity_halo(
        halo: &mut HaloOp,
        u: &mut Field3,
        v: &mut Field3,
        w: &mut Field3,
        bottom: bool,
        top: bool,
    ) {
        halo.exchange(&mut [u, v, w]);
        Self::z_wall_bc(u, v, w, bottom, top);
    }

    /// One full time step (paper Figure 3a): RK1, RK2, PPE, correction.
    /// Each substep's stencil pass stores its stage; the charge after it
    /// is the stage combine's share of the modelled cost, so virtual
    /// time does not depend on which loop forms the stage.
    pub fn step(&mut self) {
        let t_start = self.now();
        let top = self.is_top();

        // ---- RK substep 1: us = u + dt F(u) ---------------------------
        self.rhs_with_halo::<false>();
        let t1 = self.now();
        Self::enforce_top_wall(&mut self.ws, top);
        self.charge_compute(self.cells() * 3);
        self.pobs
            .acc(Phase::Rk, t1, self.now(), &mut self.timers.rk_compute);

        // ---- RK substep 2: u = 0.5 (u + us + dt F(us)) ------------------
        self.rhs_with_halo::<true>();
        let t3 = self.now();
        Self::enforce_top_wall(&mut self.w, top);
        self.charge_compute(self.cells() * 5);
        self.pobs
            .acc(Phase::Rk, t3, self.now(), &mut self.timers.rk_compute);

        // ---- projection -------------------------------------------------
        self.project();

        self.steps_done += 1;
        self.pobs
            .acc(Phase::Step, t_start, self.now(), &mut self.timers.total);
    }

    /// Pressure projection: solve ∇²p = div(u)/dt, correct velocities.
    fn project(&mut self) {
        let cfg = self.cfg;
        let (bottom, top) = (self.is_bottom(), self.is_top());
        let dt = cfg.dt;
        let cells = self.cells();

        // Current-velocity halos are needed for the divergence stencil
        // (u[i-1] wraps locally in x; v[j-1], w[k-1] cross ranks).
        let t0 = self.now();
        Self::velocity_halo(
            &mut self.halo_a,
            &mut self.u,
            &mut self.v,
            &mut self.w,
            bottom,
            top,
        );
        self.pobs
            .acc(Phase::Halo, t0, self.now(), &mut self.timers.halo);

        let t1 = self.now();
        let p = &mut self.p.data;
        Self::for_each_div(&cfg, &self.u, &self.v, &self.w, |at, div| p[at] = div / dt);
        self.charge_compute(cells * 8);
        self.pobs
            .acc(Phase::Correct, t1, self.now(), &mut self.timers.correct);

        // ---- PPE solve, in place: p holds div u / dt ---------------------
        self.poisson.solve(&mut self.p, &mut self.timers);

        // ---- correction --------------------------------------------------
        let t2 = self.now();
        self.halo_p.exchange(&mut [&mut self.p]);
        Self::p_wall_bc(&mut self.p, bottom, top);
        Self::correct(&cfg, &self.p, &mut self.u, &mut self.v, &mut self.w);
        Self::enforce_top_wall(&mut self.w, top);
        self.charge_compute(cells * 10);
        self.pobs
            .acc(Phase::Correct, t2, self.now(), &mut self.timers.correct);
    }

    /// Max |div u| over the local interior (call `global_div_max` for
    /// the reduced value).
    pub fn local_div_max(&mut self) -> f64 {
        let cfg = self.cfg;
        let (bottom, top) = (self.is_bottom(), self.is_top());
        Self::velocity_halo(
            &mut self.halo_b,
            &mut self.u,
            &mut self.v,
            &mut self.w,
            bottom,
            top,
        );
        let mut m: f64 = 0.0;
        Self::for_each_div(&cfg, &self.u, &self.v, &self.w, |_, div| {
            m = m.max(div.abs())
        });
        m
    }

    /// Globally reduced max divergence.
    pub fn global_div_max(&mut self) -> f64 {
        let local = self.local_div_max();
        unr_minimpi::allreduce_f64(&self.d.world, &[local], unr_minimpi::ReduceOp::Max)[0]
    }

    /// Globally reduced kinetic energy (0.5 Σ u²+v²+w² over faces).
    pub fn kinetic_energy(&self) -> f64 {
        let mut e = 0.0;
        for k in 0..self.d.lz {
            for j in 0..self.d.ly {
                for i in 0..self.cfg.nx {
                    let at = self.u.idx(i, j, k);
                    e +=
                        self.u.data[at].powi(2) + self.v.data[at].powi(2) + self.w.data[at].powi(2);
                }
            }
        }
        0.5 * unr_minimpi::allreduce_f64(&self.d.world, &[e], unr_minimpi::ReduceOp::Sum)[0]
    }

    pub fn steps_done(&self) -> usize {
        self.steps_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cell, ghosts included, filled with reproducible noise of
    /// mixed magnitudes.
    fn noise(nx: usize, ny: usize, nz: usize, seed: u64) -> Field3 {
        let mut f = Field3::new(nx, ny, nz, 1);
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for x in f.data.iter_mut() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let unit = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            *x = unit * [1.0, 1e-3, 37.0][(s % 3) as usize];
        }
        f
    }

    fn bits(f: &Field3) -> Vec<u64> {
        f.data.iter().map(|x| x.to_bits()).collect()
    }

    /// The momentum stencil as written with [`Field3::get`] (a
    /// `rem_euclid` per read), kept as the oracle the row-sliced kernel
    /// must reproduce bit for bit. Each cell of the outputs becomes
    /// `combine(its old value, the input's value there, F)`.
    #[allow(clippy::too_many_arguments)]
    fn momentum_rhs_oracle(
        cfg: &SolverConfig,
        u: &Field3,
        v: &Field3,
        w: &Field3,
        du: &mut Field3,
        dv: &mut Field3,
        dw: &mut Field3,
        (j0, j1): (isize, isize),
        (k0, k1): (isize, isize),
        combine: impl Fn(f64, f64, f64) -> f64,
    ) {
        let (hx, hy, hz) = (cfg.hx(), cfg.hy(), cfg.hz());
        let nu = cfg.nu;
        let nx = u.nx as isize;
        let lap = |f: &Field3, i: isize, j: isize, k: isize| {
            (f.get(i - 1, j, k) - 2.0 * f.get(i, j, k) + f.get(i + 1, j, k)) / (hx * hx)
                + (f.get(i, j - 1, k) - 2.0 * f.get(i, j, k) + f.get(i, j + 1, k)) / (hy * hy)
                + (f.get(i, j, k - 1) - 2.0 * f.get(i, j, k) + f.get(i, j, k + 1)) / (hz * hz)
        };
        for k in k0..k1 {
            for j in j0..j1 {
                for i in 0..nx {
                    // ---- u momentum (at +x face) ----
                    {
                        let uc_e = 0.5 * (u.get(i, j, k) + u.get(i + 1, j, k));
                        let uc_w = 0.5 * (u.get(i - 1, j, k) + u.get(i, j, k));
                        let duu = (uc_e * uc_e - uc_w * uc_w) / hx;
                        let v_n = 0.5 * (v.get(i, j, k) + v.get(i + 1, j, k));
                        let u_n = 0.5 * (u.get(i, j, k) + u.get(i, j + 1, k));
                        let v_s = 0.5 * (v.get(i, j - 1, k) + v.get(i + 1, j - 1, k));
                        let u_s = 0.5 * (u.get(i, j - 1, k) + u.get(i, j, k));
                        let duv = (u_n * v_n - u_s * v_s) / hy;
                        let w_t = 0.5 * (w.get(i, j, k) + w.get(i + 1, j, k));
                        let u_t = 0.5 * (u.get(i, j, k) + u.get(i, j, k + 1));
                        let w_b = 0.5 * (w.get(i, j, k - 1) + w.get(i + 1, j, k - 1));
                        let u_b = 0.5 * (u.get(i, j, k - 1) + u.get(i, j, k));
                        let duw = (u_t * w_t - u_b * w_b) / hz;
                        let at = du.idx(i as usize, j as usize, k as usize);
                        let f = -(duu + duv + duw) + nu * lap(u, i, j, k);
                        du.data[at] = combine(du.data[at], u.get(i, j, k), f);
                    }
                    // ---- v momentum (at +y face) ----
                    {
                        let u_e = 0.5 * (u.get(i, j, k) + u.get(i, j + 1, k));
                        let v_e = 0.5 * (v.get(i, j, k) + v.get(i + 1, j, k));
                        let u_w = 0.5 * (u.get(i - 1, j, k) + u.get(i - 1, j + 1, k));
                        let v_w = 0.5 * (v.get(i - 1, j, k) + v.get(i, j, k));
                        let dvu = (u_e * v_e - u_w * v_w) / hx;
                        let vc_n = 0.5 * (v.get(i, j, k) + v.get(i, j + 1, k));
                        let vc_s = 0.5 * (v.get(i, j - 1, k) + v.get(i, j, k));
                        let dvv = (vc_n * vc_n - vc_s * vc_s) / hy;
                        let w_t = 0.5 * (w.get(i, j, k) + w.get(i, j + 1, k));
                        let v_t = 0.5 * (v.get(i, j, k) + v.get(i, j, k + 1));
                        let w_b = 0.5 * (w.get(i, j, k - 1) + w.get(i, j + 1, k - 1));
                        let v_b = 0.5 * (v.get(i, j, k - 1) + v.get(i, j, k));
                        let dvw = (v_t * w_t - v_b * w_b) / hz;
                        let at = dv.idx(i as usize, j as usize, k as usize);
                        let f = -(dvu + dvv + dvw) + nu * lap(v, i, j, k);
                        dv.data[at] = combine(dv.data[at], v.get(i, j, k), f);
                    }
                    // ---- w momentum (at +z face) ----
                    {
                        let u_e = 0.5 * (u.get(i, j, k) + u.get(i, j, k + 1));
                        let w_e = 0.5 * (w.get(i, j, k) + w.get(i + 1, j, k));
                        let u_w = 0.5 * (u.get(i - 1, j, k) + u.get(i - 1, j, k + 1));
                        let w_w = 0.5 * (w.get(i - 1, j, k) + w.get(i, j, k));
                        let dwu = (u_e * w_e - u_w * w_w) / hx;
                        let v_n = 0.5 * (v.get(i, j, k) + v.get(i, j, k + 1));
                        let w_n = 0.5 * (w.get(i, j, k) + w.get(i, j + 1, k));
                        let v_s = 0.5 * (v.get(i, j - 1, k) + v.get(i, j - 1, k + 1));
                        let w_s = 0.5 * (w.get(i, j - 1, k) + w.get(i, j, k));
                        let dwv = (v_n * w_n - v_s * w_s) / hy;
                        let wc_t = 0.5 * (w.get(i, j, k) + w.get(i, j, k + 1));
                        let wc_b = 0.5 * (w.get(i, j, k - 1) + w.get(i, j, k));
                        let dww = (wc_t * wc_t - wc_b * wc_b) / hz;
                        let at = dw.idx(i as usize, j as usize, k as usize);
                        let f = -(dwu + dwv + dww) + nu * lap(w, i, j, k);
                        dw.data[at] = combine(dw.data[at], w.get(i, j, k), f);
                    }
                }
            }
        }
    }

    /// The divergence as written with [`Field3::get`].
    fn div_oracle(cfg: &SolverConfig, u: &Field3, v: &Field3, w: &Field3, rhs: &mut Field3) {
        let (hx, hy, hz) = (cfg.hx(), cfg.hy(), cfg.hz());
        for k in 0..u.nz as isize {
            for j in 0..u.ny as isize {
                for i in 0..u.nx as isize {
                    let div = (u.get(i, j, k) - u.get(i - 1, j, k)) / hx
                        + (v.get(i, j, k) - v.get(i, j - 1, k)) / hy
                        + (w.get(i, j, k) - w.get(i, j, k - 1)) / hz;
                    let at = rhs.idx(i as usize, j as usize, k as usize);
                    rhs.data[at] = div / cfg.dt;
                }
            }
        }
    }

    /// The pressure correction as written with [`Field3::get`].
    fn correct_oracle(
        cfg: &SolverConfig,
        p: &Field3,
        u: &mut Field3,
        v: &mut Field3,
        w: &mut Field3,
    ) {
        let (hx, hy, hz) = (cfg.hx(), cfg.hy(), cfg.hz());
        let dt = cfg.dt;
        for k in 0..p.nz as isize {
            for j in 0..p.ny as isize {
                for i in 0..p.nx as isize {
                    let du = dt * (p.get(i + 1, j, k) - p.get(i, j, k)) / hx;
                    let dv = dt * (p.get(i, j + 1, k) - p.get(i, j, k)) / hy;
                    let dw = dt * (p.get(i, j, k + 1) - p.get(i, j, k)) / hz;
                    let at = u.idx(i as usize, j as usize, k as usize);
                    u.data[at] -= du;
                    v.data[at] -= dv;
                    w.data[at] -= dw;
                }
            }
        }
    }

    /// Runs the `HEUN` stage kernel, and the oracle's F followed by
    /// `combine`, over one range and compares them bit for bit. Outputs
    /// start as noise: cells outside the range must stay as they were.
    fn check_stage<const HEUN: bool>(
        cfg: &SolverConfig,
        [u, v, w]: [&Field3; 3],
        outs: [Field3; 3],
        (js, ks): ((isize, isize), (isize, isize)),
        combine: impl Fn(f64, f64, f64) -> f64,
        what: &str,
    ) {
        let [mut du, mut dv, mut dw] = outs.clone();
        let [mut eu, mut ev, mut ew] = outs;
        Solver::momentum_rhs::<HEUN>(cfg, u, v, w, &mut du, &mut dv, &mut dw, js, ks);
        momentum_rhs_oracle(cfg, u, v, w, &mut eu, &mut ev, &mut ew, js, ks, combine);
        let what = format!("{}, {what}", if HEUN { "Heun" } else { "Euler" });
        assert_eq!(bits(&du), bits(&eu), "u stage, {what}");
        assert_eq!(bits(&dv), bits(&ev), "v stage, {what}");
        assert_eq!(bits(&dw), bits(&ew), "w stage, {what}");
    }

    #[test]
    fn row_stencils_match_the_get_oracle_bit_for_bit() {
        let (ly, lz) = (5isize, 4isize);
        for nx in [1usize, 2, 64] {
            let mut cfg = SolverConfig::small(1, 1);
            cfg.nx = nx;
            // Spacings that are not powers of two, so that dividing by
            // them rounds.
            (cfg.lx, cfg.ly, cfg.lz) = (0.7, 1.3, 0.9);
            let mk = |seed| noise(nx, ly as usize, lz as usize, seed);
            let (u, v, w, p) = (mk(1), mk(2), mk(3), mk(4));

            // The whole interior, the overlap path's interior and its
            // four shells, and a lone row.
            let ranges = [
                ((0, ly), (0, lz)),
                ((1, ly - 1), (1, lz - 1)),
                ((0, ly), (0, 1)),
                ((0, ly), (lz - 1, lz)),
                ((0, 1), (1, lz - 1)),
                ((ly - 1, ly), (1, lz - 1)),
                ((2, 3), (1, 2)),
            ];
            let dt = cfg.dt;
            for (js, ks) in ranges {
                let what = format!("nx={nx} j={js:?} k={ks:?}");
                let uvw = [&u, &v, &w];
                let outs = || [mk(5), mk(6), mk(7)];
                let euler = |_, s, f| s + dt * f;
                check_stage::<false>(&cfg, uvw, outs(), (js, ks), euler, &what);
                let heun = |x, s, f| 0.5 * (x + s + dt * f);
                check_stage::<true>(&cfg, uvw, outs(), (js, ks), heun, &what);
            }

            let mut rhs = mk(8);
            let mut want = rhs.clone();
            Solver::for_each_div(&cfg, &u, &v, &w, |at, div| rhs.data[at] = div / cfg.dt);
            div_oracle(&cfg, &u, &v, &w, &mut want);
            assert_eq!(bits(&rhs), bits(&want), "divergence, nx={nx}");

            let (mut cu, mut cv, mut cw) = (u.clone(), v.clone(), w.clone());
            let (mut ou, mut ov, mut ow) = (u.clone(), v.clone(), w.clone());
            Solver::correct(&cfg, &p, &mut cu, &mut cv, &mut cw);
            correct_oracle(&cfg, &p, &mut ou, &mut ov, &mut ow);
            assert_eq!(bits(&cu), bits(&ou), "u correction, nx={nx}");
            assert_eq!(bits(&cv), bits(&ov), "v correction, nx={nx}");
            assert_eq!(bits(&cw), bits(&ow), "w correction, nx={nx}");
        }
    }

    /// The solver's memory on the benchmark's 4×2 UNR grid: seven
    /// whole-pencil fields per rank, `u v w p` and the RK stage
    /// `us vs ws`, and no other region or buffer that large but the
    /// Poisson solve's two registered pencils (sized in
    /// `poisson::tests`). The destructuring names every field, so a
    /// buffer added to the struct has to be sized here.
    #[test]
    fn a_4x2_unr_solver_holds_seven_fields() {
        use unr_core::{Unr, UnrConfig};
        use unr_minimpi::run_mpi_world;
        use unr_simnet::Platform;

        let ok = run_mpi_world(Platform::th_xy().fabric_config(4, 2), |comm| {
            let backend = Backend::Unr(Unr::init(comm.ep_shared(), UnrConfig::default()));
            let mut cfg = SolverConfig::small(4, 2);
            (cfg.nx, cfg.ny, cfg.nz) = (64, 64, 32);
            // The byte lengths of the rank's regions (ids run from 0).
            let regions = || -> Vec<usize> {
                (0..)
                    .map_while(|id| comm.ep().region(id).map(|r| r.len()))
                    .collect()
            };
            let before = regions().len();
            let s = Solver::new(&backend, comm, cfg);
            let Solver {
                cfg: _,
                d,
                backend_name: _,
                u,
                v,
                w,
                p,
                us,
                vs,
                ws,
                halo_a: _,
                halo_b: _,
                halo_p: _,
                poisson: _,
                overlap: _,
                timers: _,
                pobs: _,
                steps_done: _,
            } = &s;
            let field = cfg.nx * (d.ly + 2) * (d.lz + 2);
            let fields = [u, v, w, p, us, vs, ws].map(|f| f.data.len());
            assert_eq!(fields, [field; 7], "rank {}", comm.rank());
            let large = regions()[before..]
                .iter()
                .filter(|&&len| len >= 8 * field)
                .count();
            assert_eq!(large, 2, "rank {}", comm.rank());
            true
        });
        assert!(ok.into_iter().all(|b| b));
    }
}
