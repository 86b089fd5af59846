//! Distributed-solver correctness: Poisson exactness, divergence-free
//! projection, backend equivalence, physical sanity.

use std::sync::Arc;

use unr_core::{Unr, UnrConfig};
use unr_minimpi::{run_mpi_world, Comm};
use unr_powerllel::{Backend, Decomp, Field3, PoissonSolver, Solver, SolverConfig, Timers};
use unr_simnet::{FabricConfig, Platform};

fn fabric(nodes: usize, rpn: usize) -> FabricConfig {
    let mut cfg = Platform::th_xy().fabric_config(nodes, rpn);
    cfg.seed = 123;
    cfg
}

fn make_backend(comm: &Comm, unr: bool) -> Backend {
    if unr {
        Backend::Unr(Unr::init(comm.ep_shared(), UnrConfig::default()))
    } else {
        Backend::Mpi
    }
}

/// Apply the discrete Laplacian (periodic x/y, Neumann z) to `p`.
fn discrete_laplacian(p: &Field3, hx: f64, hy: f64, hz: f64, cz: usize, pz: usize) -> Field3 {
    let mut out = Field3::new(p.nx, p.ny, p.nz, p.g);
    let (nx, ny, nz) = (p.nx as isize, p.ny as isize, p.nz as isize);
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let c = p.get(i, j, k);
                let xm = p.get(i - 1, j, k);
                let xp_ = p.get(i + 1, j, k);
                let ym = p.get(i, j - 1, k);
                let yp_ = p.get(i, j + 1, k);
                // Neumann in z at the global walls.
                let zm = if k == 0 && cz == 0 {
                    c
                } else {
                    p.get(i, j, k - 1)
                };
                let zp_ = if k == nz - 1 && cz + 1 == pz {
                    c
                } else {
                    p.get(i, j, k + 1)
                };
                let v = (xm - 2.0 * c + xp_) / (hx * hx)
                    + (ym - 2.0 * c + yp_) / (hy * hy)
                    + (zm - 2.0 * c + zp_) / (hz * hz);
                out.set(i, j, k, v);
            }
        }
    }
    out
}

/// Poisson solve on a single rank (pz=1: PDD is exact) must invert the
/// discrete operator to machine precision.
#[test]
fn poisson_exact_single_rank() {
    let results = run_mpi_world(fabric(1, 1), |comm| {
        let backend = Backend::Mpi;
        let (nx, ny, nz) = (16usize, 8usize, 8usize);
        let d = Decomp::new(comm, nx, ny, nz, 1, 1);
        let (hx, hy, hz) = (1.0 / nx as f64, 1.0 / ny as f64, 1.0 / nz as f64);
        let mut ps = PoissonSolver::new(&backend, &d, hx, hy, hz, 1.0);
        // Zero-mean rhs.
        let mut rhs = Field3::new(nx, ny, nz, 1);
        rhs.fill(0, 0, |i, j, k| {
            ((i * 31 + j * 17 + k * 7) % 13) as f64 - 6.0
        });
        let mut sum = 0.0;
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    sum += rhs.data[rhs.idx(i, j, k)];
                }
            }
        }
        let mean = sum / (nx * ny * nz) as f64;
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let at = rhs.idx(i, j, k);
                    rhs.data[at] -= mean;
                }
            }
        }
        // The solve runs in place: p holds the right-hand side on entry.
        let mut p = rhs.clone();
        let mut t = Timers::default();
        ps.solve(&mut p, &mut t);
        // Fill p's y ghosts (periodic; single rank). x wraps in idx_g;
        // z ghosts are never read at the walls (Neumann branch).
        for k in 0..nz as isize {
            for i in 0..nx as isize {
                let lo = p.get(i, (ny - 1) as isize, k);
                let hi = p.get(i, 0, k);
                p.set(i, -1, k, lo);
                p.set(i, ny as isize, k, hi);
            }
        }
        let lap = discrete_laplacian(&p, hx, hy, hz, 0, 1);
        let err = lap.max_diff(&rhs);
        let scale = rhs.norm2() / ((nx * ny * nz) as f64).sqrt();
        err / scale.max(1.0)
    });
    assert!(
        results[0] < 1e-8,
        "single-rank Poisson residual {} too large",
        results[0]
    );
}

/// Projection drives divergence to (near) zero; MPI and UNR agree.
fn run_solver(
    nodes: usize,
    rpn: usize,
    py: usize,
    pz: usize,
    unr: bool,
    steps: usize,
) -> Vec<(f64, f64, f64)> {
    run_mpi_world(fabric(nodes, rpn), move |comm| {
        let backend = make_backend(comm, unr);
        let mut cfg = SolverConfig::small(py, pz);
        cfg.nx = 16;
        cfg.ny = 16;
        cfg.nz = 16;
        let mut s = Solver::new(&backend, comm, cfg);
        s.init_taylor_green();
        for _ in 0..steps {
            s.step();
        }
        let div = s.global_div_max();
        let ke = s.kinetic_energy();
        // Field checksum for cross-backend comparison.
        let mut sum = 0.0;
        for k in 0..s.d.lz {
            for j in 0..s.d.ly {
                for i in 0..cfg.nx {
                    let at = s.u.idx(i, j, k);
                    sum += s.u.data[at] * ((i + 3 * j + 7 * k) as f64).cos()
                        + s.v.data[at] * ((2 * i + j) as f64).sin();
                }
            }
        }
        let total = unr_minimpi::allreduce_f64(&s.d.world, &[sum], unr_minimpi::ReduceOp::Sum)[0];
        (div, ke, total)
    })
}

#[test]
fn projection_divergence_free_single_rank() {
    let r = run_solver(1, 1, 1, 1, false, 3);
    let (div, ke, _) = r[0];
    assert!(div < 1e-9, "divergence {div} not near zero");
    assert!(ke > 0.0 && ke.is_finite());
}

#[test]
fn projection_divergence_small_multirank() {
    // 2x2 process grid; PDD truncation allows a small residual.
    let r = run_solver(4, 1, 2, 2, false, 2);
    let (div, ke, _) = r[0];
    assert!(div < 1e-4, "divergence {div} too large for PDD tolerance");
    assert!(ke.is_finite());
}

#[test]
fn mpi_and_unr_backends_agree() {
    let a = run_solver(4, 1, 2, 2, false, 2);
    let b = run_solver(4, 1, 2, 2, true, 2);
    let (div_a, ke_a, sum_a) = a[0];
    let (div_b, ke_b, sum_b) = b[0];
    assert!(
        (ke_a - ke_b).abs() <= 1e-12 * ke_a.abs().max(1.0),
        "kinetic energy differs: {ke_a} vs {ke_b}"
    );
    assert!(
        (sum_a - sum_b).abs() <= 1e-10 * sum_a.abs().max(1.0),
        "checksums differ: {sum_a} vs {sum_b}"
    );
    assert!((div_a - div_b).abs() <= 1e-10);
}

#[test]
fn viscous_energy_decays() {
    let r = run_solver(2, 1, 2, 1, false, 4);
    let (_, ke, _) = r[0];
    // Compare against the initial energy computed in a fresh solver.
    let r0 = run_solver(2, 1, 2, 1, false, 0);
    let (_, ke0, _) = r0[0];
    assert!(
        ke < ke0,
        "kinetic energy must decay under viscosity: {ke0} -> {ke}"
    );
    assert!(ke > 0.0);
}

#[test]
fn unr_backend_reports_no_sync_errors() {
    let results = run_mpi_world(fabric(4, 1), |comm| {
        let unr = Unr::init(comm.ep_shared(), UnrConfig::default());
        let backend = Backend::Unr(Arc::clone(&unr));
        let mut s = Solver::new(&backend, comm, SolverConfig::small(2, 2));
        s.init_taylor_green();
        for _ in 0..2 {
            s.step();
        }
        let errs = unr
            .signal_stats()
            .reset_errors
            .load(std::sync::atomic::Ordering::Relaxed)
            + unr
                .signal_stats()
                .overflow_errors
                .load(std::sync::atomic::Ordering::Relaxed);
        drop(s);
        errs
    });
    assert!(
        results.iter().all(|&e| e == 0),
        "UNR bug-avoiding checks flagged synchronization errors: {results:?}"
    );
}

#[test]
fn timers_accumulate_phases() {
    let results = run_mpi_world(fabric(4, 1), |comm| {
        let mut s = Solver::new(&Backend::Mpi, comm, SolverConfig::small(2, 2));
        s.init_taylor_green();
        s.step();
        s.timers
    });
    for t in &results {
        assert!(t.total > 0);
        assert!(t.halo > 0, "halo time must be nonzero");
        assert!(t.transpose > 0, "transpose time must be nonzero");
        assert!(t.fft > 0);
        assert!(t.velocity_update() + t.ppe() <= t.total + 1);
    }
}

#[test]
fn asymmetric_process_grid() {
    // py=4, pz=1: no PDD truncation at all -> machine precision.
    let a = run_solver(4, 1, 4, 1, false, 1);
    assert!(a[0].0 < 1e-9, "py=4 pz=1 divergence {}", a[0].0);
    // py=1, pz=4 on a 16^3 grid leaves only 4 z-rows per rank; the PDD
    // dropped-coupling error is O(rho^4) ~ 0.2 on the weakest mode, so
    // only a loose bound holds. Production grids (hundreds of rows per
    // rank) make this negligible -- see pdd_matches_thomas_for_
    // dominant_system for the analytic bound.
    let b = run_solver(4, 1, 1, 4, false, 1);
    assert!(
        b[0].0.is_finite() && b[0].0 < 0.5,
        "py=1 pz=4 divergence {}",
        b[0].0
    );
    // Same grid (same spacing, hence same per-mode dominance) split
    // over half as many z ranks doubles the rows per rank, which must
    // shrink the truncation error by orders of magnitude.
    let c = run_solver(4, 1, 2, 2, false, 1);
    assert!(
        c[0].0 < b[0].0 * 0.1,
        "doubling rows per rank must shrink the PDD error: {} !< 0.1 * {}",
        c[0].0,
        b[0].0
    );
}

#[test]
fn multiple_ranks_per_node() {
    // 2 nodes x 2 ranks: intra-node loopback paths get exercised.
    let r = run_solver(2, 2, 2, 2, true, 1);
    assert!(r[0].0 < 1e-4);
}
