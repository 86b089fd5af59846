//! Shared utilities for the figure/table regeneration binaries.

/// Simple aligned table printer (markdown-ish).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        s
    };
    println!(
        "{}",
        line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<w$}|", "", w = w + 2));
    }
    println!("{sep}");
    for r in rows {
        println!("{}", line(r));
    }
}

/// Print a metrics snapshot as a table alongside a benchmark's timing
/// tables.
pub fn emit_metrics(label: &str, snap: &unr_obs::Snapshot) {
    println!("\n### Metrics — {label}\n");
    print!("{}", snap.render_table());
}

/// Deterministic xorshift RNG for workload generation.
#[derive(Debug, Clone)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    pub fn new(seed: u64) -> XorShift {
        XorShift { state: seed.max(1) }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut s = self.state;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.state = s;
        s
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Normal(mean, sigma) via Box–Muller.
    pub fn next_normal(&mut self, mean: f64, sigma: f64) -> f64 {
        let u1 = self.next_f64().max(1e-12);
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + sigma * z
    }
}

/// Human-readable byte size.
pub fn fmt_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_deterministic() {
        let mut a = XorShift::new(7);
        let mut b = XorShift::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut r = XorShift::new(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.next_normal(10.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.1, "sigma {}", var.sqrt());
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(8), "8B");
        assert_eq!(fmt_size(2048), "2K");
        assert_eq!(fmt_size(1 << 20), "1M");
    }
}
