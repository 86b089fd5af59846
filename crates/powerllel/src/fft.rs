//! Complex FFT (iterative radix-2 Cooley–Tukey) — the spectral engine
//! of the pressure Poisson solver. Self-contained: no external FFT
//! crates, per the reproduction ground rules.

/// A complex number (no external num crate).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    pub re: f64,
    pub im: f64,
}

impl C64 {
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };

    #[inline]
    pub fn new(re: f64, im: f64) -> C64 {
        C64 { re, im }
    }

    #[inline]
    pub fn conj(self) -> C64 {
        C64::new(self.re, -self.im)
    }

    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

impl std::ops::Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }
}
impl std::ops::Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, o: C64) -> C64 {
        C64::new(self.re - o.re, self.im - o.im)
    }
}
impl std::ops::Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, o: C64) -> C64 {
        C64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}
impl std::ops::Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, s: f64) -> C64 {
        C64::new(self.re * s, self.im * s)
    }
}

/// Precomputed radix-2 FFT plan for length `n` (power of two).
///
/// Every transform runs on `lines` interleaved lines at once: element
/// `j` of line `l` is at `x[j * lines + l]`, and each butterfly sweeps
/// all lines, so the line index is innermost. Each element sees the
/// same twiddle and the same operations, in the same order, whatever
/// `lines` is; [`Fft::forward`] and [`Fft::inverse`] are `lines = 1`.
pub struct Fft {
    pub n: usize,
    /// Bit-reversal permutation.
    rev: Vec<u32>,
    /// Forward twiddles per stage, flattened.
    tw: Vec<C64>,
    /// Their conjugates, for the inverse.
    tw_inv: Vec<C64>,
}

impl Fft {
    pub fn new(n: usize) -> Fft {
        assert!(n.is_power_of_two() && n >= 1, "FFT length must be 2^k");
        let bits = n.trailing_zeros();
        let rev: Vec<u32> = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .collect();
        // Twiddles: for each stage with half-size m, w^j = exp(-2πi j / 2m).
        let mut tw = Vec::new();
        let mut m = 1;
        while m < n {
            for j in 0..m {
                let ang = -std::f64::consts::PI * (j as f64) / (m as f64);
                tw.push(C64::new(ang.cos(), ang.sin()));
            }
            m <<= 1;
        }
        let tw_inv = tw.iter().map(|w| w.conj()).collect();
        Fft { n, rev, tw, tw_inv }
    }

    /// In-place forward DFT: `X[k] = sum_j x[j] e^{-2πi jk/n}`.
    pub fn forward(&self, x: &mut [C64]) {
        self.forward_lines(x, 1)
    }

    /// In-place inverse DFT (normalized by 1/n).
    pub fn inverse(&self, x: &mut [C64]) {
        self.inverse_lines(x, 1)
    }

    /// [`Fft::forward`] on each of `lines` interleaved lines.
    pub fn forward_lines(&self, x: &mut [C64], lines: usize) {
        self.transform(x, lines, &self.tw)
    }

    /// [`Fft::inverse`] on each of `lines` interleaved lines.
    pub fn inverse_lines(&self, x: &mut [C64], lines: usize) {
        self.transform(x, lines, &self.tw_inv);
        let s = 1.0 / self.n as f64;
        for v in x.iter_mut() {
            *v = *v * s;
        }
    }

    fn transform(&self, x: &mut [C64], lines: usize, tw: &[C64]) {
        let n = self.n;
        assert_eq!(x.len(), n * lines);
        if n == 1 || lines == 0 {
            return;
        }
        for (i, &r) in self.rev.iter().enumerate() {
            let r = r as usize;
            if i < r {
                let (lo, hi) = x.split_at_mut(r * lines);
                lo[i * lines..(i + 1) * lines].swap_with_slice(&mut hi[..lines]);
            }
        }
        let mut m = 1;
        let mut tw_off = 0;
        while m < n {
            let tw = &tw[tw_off..tw_off + m];
            for pair in x.chunks_exact_mut(2 * m * lines) {
                let (lo, hi) = pair.split_at_mut(m * lines);
                let rows = lo.chunks_exact_mut(lines).zip(hi.chunks_exact_mut(lines));
                for ((a_row, b_row), &w) in rows.zip(tw) {
                    for (a, b) in a_row.iter_mut().zip(b_row.iter_mut()) {
                        let u = *a;
                        let t = *b * w;
                        *a = u + t;
                        *b = u - t;
                    }
                }
            }
            tw_off += m;
            m <<= 1;
        }
    }
}

/// Modified wavenumber of the 2nd-order periodic finite-difference
/// Laplacian: the FFT diagonalizes `(p[i-1] - 2p[i] + p[i+1])/h²` with
/// eigenvalue `-(2 - 2cos(2πk/n))/h²`.
pub fn fd_eigenvalue(k: usize, n: usize, h: f64) -> f64 {
    let theta = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
    -(2.0 - 2.0 * theta.cos()) / (h * h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[C64]) -> Vec<C64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut s = C64::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                    s = s + v * C64::new(ang.cos(), ang.sin());
                }
                s
            })
            .collect()
    }

    /// The per-line transform the batched kernel replaced, kept as its
    /// oracle: one line, every access indexed, the inverse conjugating
    /// each twiddle as it goes and scaling by `1/n` after.
    fn dft(fft: &Fft, x: &mut [C64], invert: bool) {
        let n = fft.n;
        assert_eq!(x.len(), n);
        if n > 1 {
            for i in 0..n {
                let r = fft.rev[i] as usize;
                if i < r {
                    x.swap(i, r);
                }
            }
            let mut m = 1;
            let mut tw_off = 0;
            while m < n {
                for start in (0..n).step_by(2 * m) {
                    for j in 0..m {
                        let mut w = fft.tw[tw_off + j];
                        if invert {
                            w = w.conj();
                        }
                        let a = x[start + j];
                        let b = x[start + j + m] * w;
                        x[start + j] = a + b;
                        x[start + j + m] = a - b;
                    }
                }
                tw_off += m;
                m <<= 1;
            }
        }
        if invert {
            let s = 1.0 / n as f64;
            for v in x.iter_mut() {
                *v = *v * s;
            }
        }
    }

    /// Values across many magnitudes, both signed zeros included.
    fn mixed_signal(len: usize, seed: u64) -> Vec<C64> {
        let scale = [1.0, 1e-300, 3.5e7, -2.0e-9, 0.0, -0.0, 1e250, 0.125];
        rand_signal(len, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                let re = scale[i % scale.len()];
                let im = scale[(i * 5 + 3) % scale.len()];
                C64::new(v.re * re, v.im * im)
            })
            .collect()
    }

    #[test]
    fn batched_lines_match_the_per_line_oracle_bit_for_bit() {
        let bits = |v: &[C64]| {
            v.iter()
                .map(|c| (c.re.to_bits(), c.im.to_bits()))
                .collect::<Vec<_>>()
        };
        for n in [1usize, 2, 8, 64] {
            let fft = Fft::new(n);
            for lines in [1usize, 3, 16] {
                for invert in [false, true] {
                    let x = mixed_signal(n * lines, (n * 31 + lines) as u64);
                    let mut got = x.clone();
                    if invert {
                        fft.inverse_lines(&mut got, lines);
                    } else {
                        fft.forward_lines(&mut got, lines);
                    }
                    for l in 0..lines {
                        let mut want: Vec<C64> = (0..n).map(|j| x[j * lines + l]).collect();
                        dft(&fft, &mut want, invert);
                        let line: Vec<C64> = (0..n).map(|j| got[j * lines + l]).collect();
                        assert_eq!(
                            bits(&line),
                            bits(&want),
                            "n={n} lines={lines} line {l} invert={invert}"
                        );
                    }
                    if lines == 1 {
                        let mut one = x.clone();
                        if invert {
                            fft.inverse(&mut one);
                        } else {
                            fft.forward(&mut one);
                        }
                        assert_eq!(bits(&one), bits(&got), "n={n}: lines = 1");
                    }
                }
            }
        }
    }

    fn rand_signal(n: usize, seed: u64) -> Vec<C64> {
        // xorshift for reproducibility without rand dep in tests.
        let mut s = seed.max(1);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let a = (s as f64 / u64::MAX as f64) - 0.5;
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let b = (s as f64 / u64::MAX as f64) - 0.5;
            out.push(C64::new(a, b));
        }
        out
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let x = rand_signal(n, 42);
            let want = naive_dft(&x);
            let fft = Fft::new(n);
            let mut got = x.clone();
            fft.forward(&mut got);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.re - w.re).abs() < 1e-9 && (g.im - w.im).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [2usize, 8, 32, 128, 1024] {
            let x = rand_signal(n, 7);
            let fft = Fft::new(n);
            let mut y = x.clone();
            fft.forward(&mut y);
            fft.inverse(&mut y);
            for (a, b) in x.iter().zip(&y) {
                assert!((a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn parseval_holds() {
        let n = 256;
        let x = rand_signal(n, 99);
        let fft = Fft::new(n);
        let mut y = x.clone();
        fft.forward(&mut y);
        let e_time: f64 = x.iter().map(|v| v.abs().powi(2)).sum();
        let e_freq: f64 = y.iter().map(|v| v.abs().powi(2)).sum::<f64>() / n as f64;
        assert!((e_time - e_freq).abs() / e_time < 1e-10);
    }

    #[test]
    fn pure_tone_lands_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<C64> = (0..n)
            .map(|j| {
                let ang = 2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64;
                C64::new(ang.cos(), ang.sin())
            })
            .collect();
        let fft = Fft::new(n);
        let mut y = x;
        fft.forward(&mut y);
        for (k, v) in y.iter().enumerate() {
            if k == k0 {
                assert!((v.re - n as f64).abs() < 1e-8);
            } else {
                assert!(v.abs() < 1e-8, "leak at bin {k}");
            }
        }
    }

    #[test]
    fn fd_eigenvalue_diagonalizes_stencil() {
        // Apply the FD stencil to e^{2πi k x}: result must equal λ times
        // the input, with λ = fd_eigenvalue.
        let n = 32;
        let h = 0.37;
        for k in [0usize, 1, 5, 16, 31] {
            let x: Vec<C64> = (0..n)
                .map(|j| {
                    let ang = 2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    C64::new(ang.cos(), ang.sin())
                })
                .collect();
            let lam = fd_eigenvalue(k, n, h);
            for j in 0..n {
                let st = (x[(j + n - 1) % n] + x[(j + 1) % n] - x[j] * 2.0) * (1.0 / (h * h));
                let want = x[j] * lam;
                assert!(
                    (st.re - want.re).abs() < 1e-9 && (st.im - want.im).abs() < 1e-9,
                    "k={k} j={j}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn non_power_of_two_rejected() {
        let _ = Fft::new(12);
    }
}
