//! Property-based tests (seeded-case harness from `unr-integration`)
//! for the numerical substrates: FFT, tridiagonal solvers, strided
//! packing, decomposition chunking.

use unr_integration::{run_cases, Gen};
use unr_powerllel::{chunk, fd_eigenvalue, Fft, C64};

fn rand_complex(n: usize, g: &mut Gen) -> Vec<C64> {
    (0..n)
        .map(|_| C64::new(g.f64_in(-0.5, 0.5), g.f64_in(-0.5, 0.5)))
        .collect()
}

/// FFT forward∘inverse is the identity for every power-of-two size.
#[test]
fn fft_roundtrip() {
    run_cases("fft_roundtrip", 48, |g| {
        let n = 1usize << g.u32_in(0, 11);
        let fft = Fft::new(n);
        let x = rand_complex(n, g);
        let mut y = x.clone();
        fft.forward(&mut y);
        fft.inverse(&mut y);
        for (a, b) in x.iter().zip(&y) {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    });
}

/// Parseval's identity holds.
#[test]
fn fft_parseval() {
    run_cases("fft_parseval", 48, |g| {
        let n = 1usize << g.u32_in(1, 10);
        let fft = Fft::new(n);
        let x = rand_complex(n, g);
        let mut y = x.clone();
        fft.forward(&mut y);
        let et: f64 = x.iter().map(|v| v.abs().powi(2)).sum();
        let ef: f64 = y.iter().map(|v| v.abs().powi(2)).sum::<f64>() / n as f64;
        assert!((et - ef).abs() <= 1e-9 * et.max(1.0));
    });
}

/// FFT linearity: FFT(a x + b z) = a FFT(x) + b FFT(z).
#[test]
fn fft_linearity() {
    run_cases("fft_linearity", 48, |g| {
        let n = 1usize << g.u32_in(1, 9);
        let a = g.f64_in(-3.0, 3.0);
        let fft = Fft::new(n);
        let x = rand_complex(n, g);
        let z = rand_complex(n, g);
        let mut lhs: Vec<C64> = x.iter().zip(&z).map(|(p, q)| *p * a + *q).collect();
        fft.forward(&mut lhs);
        let mut fx = x.clone();
        fft.forward(&mut fx);
        let mut fz = z.clone();
        fft.forward(&mut fz);
        for ((l, p), q) in lhs.iter().zip(&fx).zip(&fz) {
            let want = *p * a + *q;
            assert!((l.re - want.re).abs() < 1e-8 && (l.im - want.im).abs() < 1e-8);
        }
    });
}

/// The modified wavenumber is the exact eigenvalue of the periodic
/// second-difference stencil (checked at a random point).
#[test]
fn fd_eigenvalue_exact() {
    run_cases("fd_eigenvalue_exact", 48, |g| {
        let n = 1usize << g.u32_in(2, 8);
        let k = g.usize_in(0, n);
        let h = g.f64_in(0.01, 10.0);
        let lam = fd_eigenvalue(k, n, h);
        let theta = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
        // Apply the stencil to cos(theta*j) at j = 0 (even symmetry).
        let f = |j: i64| (theta * j as f64).cos();
        let st = (f(-1) - 2.0 * f(0) + f(1)) / (h * h);
        assert!((st - lam * f(0)).abs() < 1e-9 * (1.0 + lam.abs()));
    });
}

/// Thomas solves to tiny residual on random diagonally dominant
/// systems.
#[test]
fn thomas_residual_small() {
    run_cases("thomas_residual_small", 48, |g| {
        let n = g.usize_in(2, 200);
        let a: Vec<f64> = (0..n).map(|_| g.f64_in(-0.5, 0.5)).collect();
        let c: Vec<f64> = (0..n).map(|_| g.f64_in(-0.5, 0.5)).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| 2.0 + a[i].abs() + c[i].abs() + g.f64_in(0.0, 0.5))
            .collect();
        let d: Vec<f64> = (0..n).map(|_| g.f64_in(-5.0, 5.0)).collect();
        let mut x = d.clone();
        unr_powerllel::tridiag::thomas(&a, &b, &c, &mut x);
        for i in 0..n {
            let mut r = b[i] * x[i] - d[i];
            if i > 0 {
                r += a[i] * x[i - 1];
            }
            if i + 1 < n {
                r += c[i] * x[i + 1];
            }
            assert!(r.abs() < 1e-8, "row {i} residual {r}");
        }
    });
}

/// PDD matches Thomas within the analytic decay bound on strongly
/// dominant systems.
#[test]
fn pdd_close_to_thomas() {
    run_cases("pdd_close_to_thomas", 48, |g| {
        let n = 1 << g.usize_in(5, 8);
        let parts = g.usize_in(1, 5);
        let lam = g.f64_in(1.0, 20.0);
        let a = vec![1.0; n];
        let c = vec![1.0; n];
        let b = vec![-2.0 - lam; n];
        let d: Vec<f64> = (0..n).map(|_| g.f64_in(-0.5, 0.5)).collect();
        let mut want = d.clone();
        unr_powerllel::tridiag::thomas(&a, &b, &c, &mut want);
        let got = unr_powerllel::tridiag::pdd_reference(&a, &b, &c, &d, parts);
        let t = 2.0 + lam;
        let rho = (t - (t * t - 4.0f64).sqrt()) / 2.0;
        let bound = if parts == 1 {
            1e-10
        } else {
            (100.0 * rho.powi((n / parts) as i32)).max(1e-10)
        };
        for (gv, w) in got.iter().zip(&want) {
            assert!(
                (gv - w).abs() < bound,
                "err {} bound {}",
                (gv - w).abs(),
                bound
            );
        }
    });
}

/// Chunking covers [0, n) exactly, contiguously, balanced within 1.
#[test]
fn chunk_partition() {
    run_cases("chunk_partition", 48, |g| {
        let n = g.usize_in(0, 10_000);
        let p = g.usize_in(1, 64);
        let mut next = 0;
        let mut min = usize::MAX;
        let mut max = 0;
        for i in 0..p {
            let (s, l) = chunk(n, p, i);
            assert_eq!(s, next);
            next = s + l;
            min = min.min(l);
            max = max.max(l);
        }
        assert_eq!(next, n);
        assert!(max - min <= 1);
    });
}

/// Strided pack/unpack is the identity on the selection and leaves
/// the complement untouched.
#[test]
fn strided_roundtrip() {
    run_cases("strided_roundtrip", 48, |g| {
        let offset = g.usize_in(0, 16);
        let block_len = g.usize_in(1, 8);
        let extra_stride = g.usize_in(0, 8);
        let count = g.usize_in(1, 8);
        let stride = block_len + extra_stride;
        let v = unr_minimpi::StridedView {
            offset,
            block_len,
            stride,
            count,
        };
        let n = v.span_end() + 3;
        let src: Vec<i64> = (0..n as i64).collect();
        let mut packed = vec![0i64; v.total()];
        v.pack(&src, &mut packed);
        let mut dst = vec![-1i64; n];
        v.unpack(&packed, &mut dst);
        // Selected positions match the source; others untouched.
        let mut selected = vec![false; n];
        for b in 0..count {
            for o in 0..block_len {
                selected[offset + b * stride + o] = true;
            }
        }
        for i in 0..n {
            if selected[i] {
                assert_eq!(dst[i], src[i]);
            } else {
                assert_eq!(dst[i], -1);
            }
        }
    });
}
