//! Numerical-order verification of the Poisson solver: the discrete
//! solution of a smooth manufactured problem must converge at second
//! order as the grid is refined.

use unr_minimpi::run_mpi_world;
use unr_powerllel::{Backend, Decomp, Field3, PoissonSolver, Timers};
use unr_simnet::FabricConfig;

/// Solve -∇²p = f for the manufactured solution
/// p*(x,y,z) = cos(2πx) cos(4πy) cos(πz)
/// (periodic in x/y; dp*/dz = 0 at z = 0,1 → satisfies Neumann walls)
/// and return the max-norm error against p* (mean-adjusted).
fn solve_error(n: usize) -> f64 {
    let results = run_mpi_world(FabricConfig::test_default(4), move |comm| {
        let backend = Backend::Mpi;
        let (nx, ny, nz) = (n, n, n);
        let d = Decomp::new(comm, nx, ny, nz, 2, 2);
        let (hx, hy, hz) = (1.0 / nx as f64, 1.0 / ny as f64, 1.0 / nz as f64);
        let mut ps = PoissonSolver::new(&backend, &d, hx, hy, hz, 1.0);
        let pi = std::f64::consts::PI;
        let exact = |i: usize, j: usize, k: usize| {
            let x = (i as f64 + 0.5) * hx;
            let y = (j as f64 + 0.5) * hy;
            let z = (k as f64 + 0.5) * hz;
            (2.0 * pi * x).cos() * (4.0 * pi * y).cos() * (pi * z).cos()
        };
        // f = ∇²p* (continuous): -(4π² + 16π² + π²) p*.
        let lam = -(4.0 + 16.0 + 1.0) * pi * pi;
        // The solve runs in place: p holds f on entry.
        let mut p = Field3::new(nx, d.ly, d.lz, 1);
        p.fill(d.off_y, d.off_z, |i, j, k| lam * exact(i, j, k));
        let mut t = Timers::default();
        ps.solve(&mut p, &mut t);
        // Mean-adjust: the solver pins an arbitrary constant.
        let mut sum = 0.0;
        let mut cnt = 0.0;
        for k in 0..d.lz {
            for j in 0..d.ly {
                for i in 0..nx {
                    sum += p.data[p.idx(i, j, k)] - exact(i, j + d.off_y, k + d.off_z);
                    cnt += 1.0;
                }
            }
        }
        let all = unr_minimpi::allreduce_f64(&d.world, &[sum, cnt], unr_minimpi::ReduceOp::Sum);
        let shift = all[0] / all[1];
        let mut err: f64 = 0.0;
        for k in 0..d.lz {
            for j in 0..d.ly {
                for i in 0..nx {
                    let e = p.data[p.idx(i, j, k)] - shift - exact(i, j + d.off_y, k + d.off_z);
                    err = err.max(e.abs());
                }
            }
        }
        unr_minimpi::allreduce_f64(&d.world, &[err], unr_minimpi::ReduceOp::Max)[0]
    });
    results[0]
}

#[test]
fn poisson_second_order_convergence() {
    let e16 = solve_error(16);
    let e32 = solve_error(32);
    let rate = (e16 / e32).log2();
    assert!(
        (1.7..2.3).contains(&rate),
        "expected ~2nd-order convergence, got rate {rate:.2} (e16={e16:.3e}, e32={e32:.3e})"
    );
}
