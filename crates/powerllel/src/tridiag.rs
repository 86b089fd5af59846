//! Tridiagonal solvers: serial Thomas and the local computations of the
//! PDD (Parallel Diagonal Dominant) distributed solver used by
//! PowerLLEL's pressure Poisson equation (paper §V-B).
//!
//! PDD splits the global tridiagonal system into per-rank blocks. Each
//! rank solves three local systems (the right-hand side plus the two
//! interface influence vectors) and then resolves each interface with a
//! **single neighbor exchange** — the 2×2 reduced system — dropping the
//! exponentially small cross-interface coupling (valid for diagonally
//! dominant matrices). The neighbor exchange is exactly the
//! "transmission to the bottom neighbor and the top neighbor" that UNR
//! turns into notified puts (paper Figure 3e, pipeline 2).

/// Solve a tridiagonal system `a[i] x[i-1] + b[i] x[i] + c[i] x[i+1] =
/// d[i]` in place (Thomas algorithm). `a[0]` and `c[n-1]` are ignored.
pub fn thomas(a: &[f64], b: &[f64], c: &[f64], d: &mut [f64]) {
    let n = d.len();
    assert!(a.len() == n && b.len() == n && c.len() == n);
    if n == 0 {
        return;
    }
    let mut cp = vec![0.0; n];
    let mut denom = b[0];
    assert!(denom.abs() > 1e-300, "singular pivot at row 0");
    cp[0] = c[0] / denom;
    d[0] /= denom;
    for i in 1..n {
        denom = b[i] - a[i] * cp[i - 1];
        assert!(denom.abs() > 1e-300, "singular pivot at row {i}");
        cp[i] = c[i] / denom;
        d[i] = (d[i] - a[i] * d[i - 1]) / denom;
    }
    for i in (0..n - 1).rev() {
        d[i] -= cp[i] * d[i + 1];
    }
}

/// The local phase of PDD for one rank owning contiguous rows of the
/// global system.
///
/// Returns the influence vectors `(v, w)` where `A_loc v = -a_first e_0`
/// (effect of the left interface unknown) and `A_loc w = -c_last e_last`
/// (effect of the right interface unknown), alongside the particular
/// solution `A_loc x0 = d` computed in place in `d`.
pub struct PddLocal {
    /// Left influence vector (None on the first rank).
    pub v: Option<Vec<f64>>,
    /// Right influence vector (None on the last rank).
    pub w: Option<Vec<f64>>,
}

pub fn pdd_local(
    a: &[f64],
    b: &[f64],
    c: &[f64],
    d: &mut [f64],
    has_left: bool,
    has_right: bool,
) -> PddLocal {
    let n = d.len();
    thomas(a, b, c, d);
    let v = has_left.then(|| {
        let mut rhs = vec![0.0; n];
        rhs[0] = -a[0];
        thomas(a, b, c, &mut rhs);
        rhs
    });
    let w = has_right.then(|| {
        let mut rhs = vec![0.0; n];
        rhs[n - 1] = -c[n - 1];
        thomas(a, b, c, &mut rhs);
        rhs
    });
    PddLocal { v, w }
}

/// Resolve one interface between a "bottom" rank (owning the rows just
/// below the cut) and its "top" neighbor, given the values each side
/// exchanged:
///
/// * from the bottom side: `x0_last`, `w_last` (its particular solution
///   and right-influence vector evaluated at its last row);
/// * from the top side: `x0_first`, `v_first`.
///
/// Returns `(xi, eta)`: the solution values at the bottom rank's last
/// row and the top rank's first row. Both sides compute the same pair.
pub fn pdd_interface(x0_last: f64, w_last: f64, x0_first: f64, v_first: f64) -> (f64, f64) {
    // xi  = x0_last  + w_last  * eta
    // eta = x0_first + v_first * xi
    let det = 1.0 - w_last * v_first;
    assert!(det.abs() > 1e-300, "degenerate PDD interface");
    let xi = (x0_last + w_last * x0_first) / det;
    let eta = x0_first + v_first * xi;
    (xi, eta)
}

/// Final PDD correction: `x = x0 + xi_left * v + xi_right * w`, where
/// `xi_left`/`xi_right` are the interface values adjacent to this rank
/// (solution at the left neighbor's last row / right neighbor's first
/// row).
pub fn pdd_correct(x0: &mut [f64], local: &PddLocal, xi_left: f64, xi_right: f64) {
    if let Some(v) = &local.v {
        for (x, vv) in x0.iter_mut().zip(v) {
            *x += xi_left * vv;
        }
    }
    if let Some(w) = &local.w {
        for (x, ww) in x0.iter_mut().zip(w) {
            *x += xi_right * ww;
        }
    }
}

/// Convenience: full PDD on a single address space, partitioned into
/// `parts` chunks — used by tests to validate the algorithm against
/// Thomas, and by the solver when `P_z == 1`.
pub fn pdd_reference(a: &[f64], b: &[f64], c: &[f64], d: &[f64], parts: usize) -> Vec<f64> {
    let n = d.len();
    assert!(parts >= 1 && n >= 2 * parts);
    let chunk = n / parts;
    let bounds: Vec<(usize, usize)> = (0..parts)
        .map(|p| {
            let s = p * chunk;
            let e = if p == parts - 1 { n } else { (p + 1) * chunk };
            (s, e)
        })
        .collect();
    // Local solves.
    let mut x0s: Vec<Vec<f64>> = Vec::with_capacity(parts);
    let mut locals: Vec<PddLocal> = Vec::with_capacity(parts);
    for (p, &(s, e)) in bounds.iter().enumerate() {
        let mut dd = d[s..e].to_vec();
        let loc = pdd_local(&a[s..e], &b[s..e], &c[s..e], &mut dd, p > 0, p < parts - 1);
        x0s.push(dd);
        locals.push(loc);
    }
    // Interface exchanges: the value at part p's last row becomes
    // xi_left for part p+1, and the value at part p+1's first row
    // becomes xi_right for part p.
    let mut left_vals = vec![0.0; parts]; // xi_left for part p
    let mut right_vals = vec![0.0; parts]; // xi_right for part p
    for p in 0..parts - 1 {
        let last = bounds[p].1 - bounds[p].0 - 1;
        let (lo, hi) = pdd_interface(
            x0s[p][last],
            locals[p].w.as_ref().expect("right influence")[last],
            x0s[p + 1][0],
            locals[p + 1].v.as_ref().expect("left influence")[0],
        );
        right_vals[p] = hi;
        left_vals[p + 1] = lo;
    }
    // Corrections.
    let mut out = Vec::with_capacity(n);
    for p in 0..parts {
        pdd_correct(&mut x0s[p], &locals[p], left_vals[p], right_vals[p]);
        out.extend_from_slice(&x0s[p]);
    }
    out
}

/// A reproducible diagonally dominant benchmark system (for the
/// criterion harness).
pub fn bench_system(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let a = vec![1.0; n];
    let c = vec![1.0; n];
    let b = vec![-4.5; n];
    let d: Vec<f64> = (0..n)
        .map(|i| ((i * 37 + 11) % 97) as f64 / 97.0 - 0.5)
        .collect();
    (a, b, c, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_vec(n: usize, seed: u64, lo: f64, hi: f64) -> Vec<f64> {
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                lo + (hi - lo) * (s as f64 / u64::MAX as f64)
            })
            .collect()
    }

    /// A diagonally dominant system like the PPE's z-direction solve.
    fn poisson_like(n: usize, lambda: f64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let a = vec![1.0; n];
        let c = vec![1.0; n];
        let mut b = vec![-2.0 - lambda; n];
        // Neumann ends.
        b[0] = -1.0 - lambda;
        b[n - 1] = -1.0 - lambda;
        (a, b, c)
    }

    fn residual(a: &[f64], b: &[f64], c: &[f64], x: &[f64], d: &[f64]) -> f64 {
        let n = x.len();
        let mut m: f64 = 0.0;
        for i in 0..n {
            let mut r = b[i] * x[i] - d[i];
            if i > 0 {
                r += a[i] * x[i - 1];
            }
            if i + 1 < n {
                r += c[i] * x[i + 1];
            }
            m = m.max(r.abs());
        }
        m
    }

    #[test]
    fn thomas_solves_random_dominant_system() {
        let n = 64;
        let a = rand_vec(n, 1, -1.0, 1.0);
        let c = rand_vec(n, 2, -1.0, 1.0);
        let b: Vec<f64> = (0..n).map(|i| 3.0 + a[i].abs() + c[i].abs()).collect();
        let d = rand_vec(n, 3, -5.0, 5.0);
        let mut x = d.clone();
        thomas(&a, &b, &c, &mut x);
        assert!(residual(&a, &b, &c, &x, &d) < 1e-10);
    }

    #[test]
    fn thomas_single_row() {
        let mut d = vec![10.0];
        thomas(&[0.0], &[2.0], &[0.0], &mut d);
        assert_eq!(d[0], 5.0);
    }

    #[test]
    fn pdd_matches_thomas_for_dominant_system() {
        // PDD truncates the cross-interface coupling, whose magnitude
        // decays like rho^n_local with rho the smaller characteristic
        // root of [1, -2-lambda, 1]. The observed error must stay within
        // a small multiple of that analytic bound (and at machine
        // precision for one part).
        let n = 128;
        for lambda in [0.5, 2.0, 17.0] {
            let (a, b, c) = poisson_like(n, lambda);
            let d = rand_vec(n, 11, -1.0, 1.0);
            let mut want = d.clone();
            thomas(&a, &b, &c, &mut want);
            let t = 2.0 + lambda;
            let rho = (t - (t * t - 4.0f64).sqrt()) / 2.0;
            for parts in [1usize, 2, 4, 8] {
                let got = pdd_reference(&a, &b, &c, &d, parts);
                let err: f64 = got
                    .iter()
                    .zip(&want)
                    .map(|(g, w)| (g - w).abs())
                    .fold(0.0, f64::max);
                let bound = if parts == 1 {
                    1e-10
                } else {
                    (100.0 * rho.powi((n / parts) as i32)).max(1e-10)
                };
                assert!(
                    err < bound,
                    "lambda={lambda} parts={parts}: PDD error {err} exceeds bound {bound}"
                );
            }
        }
    }

    #[test]
    fn pdd_error_grows_when_not_dominant() {
        // lambda = 0 (the mean mode) is not strictly dominant; PDD's
        // dropped coupling matters. The solver handles that mode
        // separately — this test documents why.
        let n = 64;
        let (a, b, c) = poisson_like(n, 0.0);
        // Remove the singularity by pinning the first row.
        let mut b = b;
        b[0] = 1.0;
        let mut a2 = a.clone();
        a2[0] = 0.0;
        let mut c2 = c.clone();
        c2[0] = 0.0;
        let d = rand_vec(n, 5, -1.0, 1.0);
        let mut want = d.clone();
        thomas(&a2, &b, &c2, &mut want);
        let got = pdd_reference(&a2, &b, &c2, &d, 4);
        let err: f64 = got
            .iter()
            .zip(&want)
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max);
        assert!(
            err > 1e-9,
            "expected visible PDD truncation error on a marginal system, got {err}"
        );
    }

    #[test]
    fn pdd_interface_consistency() {
        // Both orderings of the 2x2 solve agree.
        let (xi, eta) = pdd_interface(1.0, 0.25, 2.0, -0.5);
        assert!((xi - (1.0 + 0.25 * eta)).abs() < 1e-12);
        assert!((eta - (2.0 - 0.5 * xi)).abs() < 1e-12);
    }
}
