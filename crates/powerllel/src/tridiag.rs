//! Tridiagonal solvers: Thomas, split into a factorization and a
//! solve, and the PDD (Parallel Diagonal Dominant) distributed solver
//! used by PowerLLEL's pressure Poisson equation (paper §V-B).
//!
//! PDD splits the global tridiagonal system into per-rank blocks. Each
//! rank solves three local systems (the right-hand side plus the two
//! interface influence vectors) and then resolves each interface with a
//! **single neighbor exchange** — the 2×2 reduced system — dropping the
//! exponentially small cross-interface coupling (valid for diagonally
//! dominant matrices). The neighbor exchange is exactly the
//! "transmission to the bottom neighbor and the top neighbor" that UNR
//! turns into notified puts (paper Figure 3e, pipeline 2). All three
//! local systems share one matrix, so a rank factors it once and
//! solves each right-hand side with it.
//!
//! There is one Thomas sweep, [`factor_rows`] then [`solve_rows`]: it
//! runs `width` systems side by side, row-major with the system index
//! innermost, so each row's work is a loop over independent systems.
//! Every element sees the same operations, in the same order, as the
//! textbook one-system sweep.

/// Factor `width = pivot.len() / a.len()` tridiagonal systems of `n =
/// a.len()` rows at once, stored row-major with the system innermost.
/// Row `i` of system `s` is `a[i] x[i-1] + b x[i] + c[i] x[i+1]`: the
/// systems share their off-diagonals, and each has its own diagonal
/// `b`, which `pivot[i * width + s]` holds on entry. On return that slot
/// holds the row's pivot `b - a[i] cp[i-1]`, and `cp[i * width + s]`
/// holds `c[i] / pivot`. `a[0]` and `c[n-1]` are ignored.
pub fn factor_rows(a: &[f64], c: &[f64], pivot: &mut [f64], cp: &mut [f64]) {
    let n = a.len();
    assert!(c.len() == n && cp.len() == pivot.len());
    if n == 0 || pivot.is_empty() {
        return;
    }
    assert_eq!(pivot.len() % n, 0, "{n} rows per system");
    let width = pivot.len() / n;
    let rows = pivot
        .chunks_exact_mut(width)
        .zip(cp.chunks_exact_mut(width));
    let mut prev: &[f64] = &[];
    for (i, (p_row, cp_row)) in rows.enumerate() {
        if i > 0 {
            for (p, &q) in p_row.iter_mut().zip(prev) {
                *p -= a[i] * q;
            }
        }
        for (s, p) in p_row.iter().enumerate() {
            assert!(p.abs() > 1e-300, "singular pivot at row {i} of system {s}");
        }
        for (q, &p) in cp_row.iter_mut().zip(p_row.iter()) {
            *q = c[i] / p;
        }
        prev = cp_row;
    }
}

/// Solve in place with a factorization from [`factor_rows`]. Row `i`
/// of the right-hand sides is `d[i * stride..]`: `PER` values for each
/// of the `width` systems in turn, the ones of a system sharing its
/// pivots. Whatever lies between rows is left alone.
pub fn solve_rows<const PER: usize>(
    a: &[f64],
    pivot: &[f64],
    cp: &[f64],
    d: &mut [f64],
    stride: usize,
) {
    let n = a.len();
    assert!(cp.len() == pivot.len() && PER > 0);
    if n == 0 || pivot.is_empty() {
        return;
    }
    let width = pivot.len() / n;
    let len = width * PER;
    assert!(stride >= len && d.len() >= (n - 1) * stride + len);
    let pivots = pivot.chunks_exact(width);
    for (i, p_row) in pivots.enumerate() {
        let (head, tail) = d.split_at_mut(i * stride);
        let cur = tail[..len].chunks_exact_mut(PER).zip(p_row);
        if i == 0 {
            for (xs, &p) in cur {
                for x in xs {
                    *x /= p;
                }
            }
        } else {
            let prev = head[(i - 1) * stride..][..len].chunks_exact(PER);
            for ((xs, &p), ps) in cur.zip(prev) {
                for (x, &xp) in xs.iter_mut().zip(ps) {
                    *x = (*x - a[i] * xp) / p;
                }
            }
        }
    }
    for (i, cp_row) in cp.chunks_exact(width).enumerate().rev().skip(1) {
        let (head, tail) = d.split_at_mut((i + 1) * stride);
        let next = tail[..len].chunks_exact(PER);
        let cur = head[i * stride..][..len].chunks_exact_mut(PER);
        for ((xs, ns), &q) in cur.zip(next).zip(cp_row) {
            for (x, &xn) in xs.iter_mut().zip(ns) {
                *x -= q * xn;
            }
        }
    }
}

/// Solve a tridiagonal system `a[i] x[i-1] + b[i] x[i] + c[i] x[i+1] =
/// d[i]` in place (Thomas algorithm). `a[0]` and `c[n-1]` are ignored.
pub fn thomas(a: &[f64], b: &[f64], c: &[f64], d: &mut [f64]) {
    let n = d.len();
    assert!(a.len() == n && b.len() == n && c.len() == n);
    let mut factor = vec![0.0; 2 * n];
    let (pivot, cp) = factor.split_at_mut(n);
    pivot.copy_from_slice(b);
    factor_rows(a, c, pivot, cp);
    solve_rows::<1>(a, pivot, cp, d, 1);
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

/// Full PDD on a single address space, partitioned into `parts` chunks
/// — the algorithm the distributed solver runs, used by tests to
/// validate it against Thomas.
///
/// Each part solves its particular solution `A_loc x0 = d` and its
/// influence vectors `A_loc v = -a_first e_0` (left interface) and
/// `A_loc w = -c_last e_last` (right interface) with one factorization,
/// then corrects `x = x0 + xi_left v + xi_right w`.
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
    // Local solves: (x0, v, w) per part; v is empty on the first part
    // and w on the last.
    let mut locals: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = Vec::with_capacity(parts);
    for (p, &(s, e)) in bounds.iter().enumerate() {
        let m = e - s;
        let (a, c) = (&a[s..e], &c[s..e]);
        let mut pivot = b[s..e].to_vec();
        let mut cp = vec![0.0; m];
        factor_rows(a, c, &mut pivot, &mut cp);
        // Right-hand sides: x0, then v (not on the first part), then w
        // (not on the last).
        let (left, right) = (p > 0, p < parts - 1);
        let mut x0 = d[s..e].to_vec();
        let mut v = vec![0.0; if left { m } else { 0 }];
        let mut w = vec![0.0; if right { m } else { 0 }];
        if left {
            v[0] = -a[0];
        }
        if right {
            w[m - 1] = -c[m - 1];
        }
        for col in [&mut x0, &mut v, &mut w] {
            if !col.is_empty() {
                solve_rows::<1>(a, &pivot, &cp, col, 1);
            }
        }
        locals.push((x0, v, w));
    }
    // Interface exchanges: the value at part p's last row becomes
    // xi_left for part p+1, and the value at part p+1's first row
    // becomes xi_right for part p.
    let mut left_vals = vec![0.0; parts]; // xi_left for part p
    let mut right_vals = vec![0.0; parts]; // xi_right for part p
    for p in 0..parts - 1 {
        let last = bounds[p].1 - bounds[p].0 - 1;
        let (lo, hi) = pdd_interface(
            locals[p].0[last],
            locals[p].2[last],
            locals[p + 1].0[0],
            locals[p + 1].1[0],
        );
        right_vals[p] = hi;
        left_vals[p + 1] = lo;
    }
    // Corrections.
    let mut out = Vec::with_capacity(n);
    for (p, (mut x, v, w)) in locals.into_iter().enumerate() {
        for (x, vv) in x.iter_mut().zip(&v) {
            *x += left_vals[p] * vv;
        }
        for (x, ww) in x.iter_mut().zip(&w) {
            *x += right_vals[p] * ww;
        }
        out.extend_from_slice(&x);
    }
    out
}

/// A reproducible diagonally dominant benchmark system (for the
/// benchmark's probes).
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

    /// The fused single-pass Thomas sweep (factor and forward
    /// substitution interleaved), kept as the oracle the split form must
    /// reproduce bit for bit.
    fn thomas_fused(a: &[f64], b: &[f64], c: &[f64], d: &mut [f64]) {
        let n = d.len();
        let mut cp = vec![0.0; n];
        let mut denom = b[0];
        cp[0] = c[0] / denom;
        d[0] /= denom;
        for i in 1..n {
            denom = b[i] - a[i] * cp[i - 1];
            cp[i] = c[i] / denom;
            d[i] = (d[i] - a[i] * d[i - 1]) / denom;
        }
        for i in (0..n - 1).rev() {
            d[i] -= cp[i] * d[i + 1];
        }
    }

    #[test]
    fn row_major_sweep_matches_fused_thomas_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Right-hand sides per system: two random ones of different
        // magnitudes, then the shapes of PDD's influence vectors.
        const PER: usize = 4;
        for (seed, n) in [(1u64, 1usize), (2, 2), (3, 16), (4, 17), (5, 200)] {
            for width in [1usize, 2, 7] {
                let seed = seed * 100 + width as u64;
                let a = rand_vec(n, seed * 10 + 1, -1.0, 1.0);
                let c = rand_vec(n, seed * 10 + 2, -1.0, 1.0);
                // Each system's own diagonal, dominant, signs alternating.
                let diags: Vec<Vec<f64>> = (0..width as u64)
                    .map(|s| {
                        let extra = rand_vec(n, seed * 10 + 3 + 16 * s, 0.0, 2.0);
                        (0..n)
                            .map(|i| {
                                let m = 1.0 + a[i].abs() + c[i].abs() + extra[i];
                                if (i + s as usize).is_multiple_of(2) {
                                    m
                                } else {
                                    -m
                                }
                            })
                            .collect()
                    })
                    .collect();
                let rhss: Vec<[Vec<f64>; PER]> = (0..width as u64)
                    .map(|s| {
                        let mut v = vec![0.0; n];
                        v[0] = -a[0];
                        let mut w = vec![0.0; n];
                        w[n - 1] = -c[n - 1];
                        [
                            rand_vec(n, seed * 10 + 4 + 16 * s, -5.0, 5.0),
                            rand_vec(n, seed * 10 + 5 + 16 * s, -1e-3, 1e3),
                            v,
                            w,
                        ]
                    })
                    .collect();
                let mut pivot = vec![0.0; n * width];
                for (s, b) in diags.iter().enumerate() {
                    for (i, &x) in b.iter().enumerate() {
                        pivot[i * width + s] = x;
                    }
                }
                let mut cp = vec![0.0; n * width];
                factor_rows(&a, &c, &mut pivot, &mut cp);
                // Rows padded by a marker that must survive.
                let stride = width * PER + 3;
                let mut d = vec![f64::from_bits(0x7ff8_dead_beef_0001); n * stride];
                for (s, sys) in rhss.iter().enumerate() {
                    for (r, rhs) in sys.iter().enumerate() {
                        for (i, &x) in rhs.iter().enumerate() {
                            d[i * stride + s * PER + r] = x;
                        }
                    }
                }
                solve_rows::<PER>(&a, &pivot, &cp, &mut d, stride);
                for (s, sys) in rhss.iter().enumerate() {
                    for (r, rhs) in sys.iter().enumerate() {
                        let mut want = rhs.clone();
                        thomas_fused(&a, &diags[s], &c, &mut want);
                        let got: Vec<f64> = (0..n).map(|i| d[i * stride + s * PER + r]).collect();
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "n={n} width={width} system {s} rhs {r}"
                        );
                        if width == 1 {
                            let mut one = rhs.clone();
                            thomas(&a, &diags[s], &c, &mut one);
                            assert_eq!(bits(&one), bits(&want), "n={n}: thomas");
                        }
                    }
                }
                for row in d.chunks_exact(stride) {
                    assert!(row[width * PER..]
                        .iter()
                        .all(|x| x.to_bits() == 0x7ff8_dead_beef_0001));
                }
            }
        }
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
