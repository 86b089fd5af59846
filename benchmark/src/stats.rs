//! Order statistics for the benchmark: medians, quartiles and the
//! "highest percentile that still has ten samples beyond it" rule.

/// Quartiles by the exclusive method — the same arithmetic as Python's
/// `statistics.quantiles(values, n=4)`, which is what the acceptance
/// driver uses for its spread check, so the spreads this benchmark
/// prints about itself can be compared with the driver's directly.
/// Needs at least two values; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Median (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Interquartile range as a share of the median: the spread figure the
/// acceptance driver bounds. 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank `q`-quantile (`0.0..=1.0`) of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile ladder latency reports choose from: quantile, label,
/// and `d` where one sample in `d` lies beyond it.
pub const LADDER: [(f64, &str, usize); 5] = [
    (0.50, "p50", 2),
    (0.90, "p90", 10),
    (0.99, "p99", 100),
    (0.999, "p999", 1_000),
    (0.9999, "p9999", 10_000),
];

/// The highest rung of [`LADDER`] that still has at least ten samples
/// beyond it among `n` samples — percentiles above that are one or two
/// outliers and not worth printing. `None` below twenty samples.
pub fn highest_supported(n: usize) -> Option<(f64, &'static str)> {
    LADDER
        .iter()
        .filter(|&&(_, _, d)| n / d >= 10)
        .map(|&(q, label, _)| (q, label))
        .next_back()
}

/// A pooled latency sample set, reported as the issue asks: sample
/// count, quartiles, and the highest supported percentile.
#[derive(Debug, Clone, Default)]
pub struct Pool {
    sorted: Vec<u64>,
}

impl Pool {
    pub fn new(mut samples: Vec<u64>) -> Pool {
        samples.sort_unstable();
        Pool { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn percentile(&self, q: f64) -> u64 {
        percentile_sorted(&self.sorted, q)
    }

    /// `n=…  q1/p50/q3  top=pXX:value` in the pool's own unit.
    pub fn describe(&self) -> String {
        let top = match highest_supported(self.len()) {
            Some((q, label)) => format!("{label}:{}", self.percentile(q)),
            None => "-".to_string(),
        };
        format!(
            "n={} q1/p50/q3={}/{}/{} top={top}",
            self.len(),
            self.percentile(0.25),
            self.percentile(0.50),
            self.percentile(0.75),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) -> [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12); // (8.25-2.75)/5.5
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 0.50), 50);
        assert_eq!(percentile_sorted(&s, 0.90), 90);
        assert_eq!(percentile_sorted(&s, 0.99), 99);
        assert_eq!(percentile_sorted(&s, 1.0), 100);
        assert_eq!(percentile_sorted(&s, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20).unwrap().1, "p50");
        assert_eq!(highest_supported(99).unwrap().1, "p50");
        assert_eq!(highest_supported(100).unwrap().1, "p90");
        assert_eq!(highest_supported(999).unwrap().1, "p90");
        assert_eq!(highest_supported(1_000).unwrap().1, "p99");
        assert_eq!(highest_supported(10_000).unwrap().1, "p999");
        assert_eq!(highest_supported(150_000).unwrap().1, "p9999");
    }

    #[test]
    fn pool_describes_itself() {
        let p = Pool::new((1..=1000).rev().collect());
        assert_eq!(p.len(), 1000);
        assert_eq!(p.percentile(0.5), 500);
        assert_eq!(p.describe(), "n=1000 q1/p50/q3=250/500/750 top=p99:990");
    }
}
