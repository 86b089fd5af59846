//! Lock-free metric instruments behind a cheap named registry.
//!
//! Hot-path updates are single relaxed atomic RMW operations; the only
//! lock in this module guards instrument *creation* and snapshotting,
//! neither of which happens on a fast path. Handles are `Arc`s, so a
//! component grabs its instruments once at construction and updates
//! them forever after without touching the registry again.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Number of histogram buckets: bucket 0 holds the value `0`, bucket
/// `i` (1..=64) holds values in `[2^(i-1), 2^i)`; `u64::MAX` lands in
/// bucket 64.
pub const HIST_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level with a high watermark.
///
/// `set`/`add` update the level; the maximum level ever observed is
/// retained, which is the interesting number for queue depths (the
/// level at snapshot time is usually zero — everything drained).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    max: AtomicI64,
}

impl Gauge {
    /// Set the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Adjust the level by `d` (may be negative).
    pub fn add(&self, d: i64) {
        let v = self.value.fetch_add(d, Ordering::Relaxed) + d;
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level ever observed.
    pub fn high_watermark(&self) -> i64 {
        self.max.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed distribution of `u64` samples (see [`HIST_BUCKETS`]
/// for the bucket layout). Tracks count, sum and max exactly; the
/// shape of the distribution is captured to within a factor of two,
/// which is the right resolution for latency histograms.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket index a value falls into: 0 for 0, else `64 - leading
/// zeros` (so bucket `i` spans `[2^(i-1), 2^i)`).
pub(crate) fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i`.
pub(crate) fn bucket_lo(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// Estimate the `q`-quantile (`0.0..=1.0`) of a log2-bucketed
/// distribution by linear interpolation *inside* the crossing bucket.
///
/// The cumulative count is walked until it reaches `q * total`; the
/// estimate is then placed proportionally between the crossing bucket's
/// inclusive lower bound `2^(i-1)` and its exclusive upper bound `2^i`.
/// Bucket 0 holds only the value `0`, so a quantile landing there is
/// exactly `0.0`. The error bound is the bucket width (a factor of
/// two); for distributions roughly uniform within a bucket the
/// interpolation is much tighter. An empty distribution estimates `0.0`.
///
/// Callers with an exact maximum should clamp the result to it (as
/// [`Histogram::percentile`] and the snapshot exporters do): the top
/// bucket's upper edge can overshoot the largest recorded sample.
pub fn percentile_from_buckets(buckets: &[u64; HIST_BUCKETS], q: f64) -> f64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0.0;
    }
    // Nearest-rank target: at least one sample must be covered, so
    // q = 0 estimates the smallest sample's bucket rather than 0.
    let target = (q.clamp(0.0, 1.0) * count as f64).max(1.0);
    let mut cum = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let before = cum as f64;
        cum += n;
        if cum as f64 >= target {
            if i == 0 {
                return 0.0;
            }
            let lo = bucket_lo(i) as f64;
            let frac = ((target - before) / n as f64).clamp(0.0, 1.0);
            return lo + frac * lo; // upper edge of bucket i is 2*lo
        }
    }
    // Unreachable except for float rounding at q == 1.0: the upper edge
    // of the top occupied bucket.
    let top = buckets.iter().rposition(|&n| n != 0).unwrap_or(0);
    bucket_lo(top) as f64 * 2.0
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Per-bucket sample counts.
    pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) of the recorded samples
    /// via [`percentile_from_buckets`], clamped to the exact maximum so
    /// high quantiles never overshoot the largest sample.
    pub fn percentile(&self, q: f64) -> f64 {
        percentile_from_buckets(&self.buckets(), q).min(self.max() as f64)
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named set of instruments.
///
/// Names are free-form dot-separated paths (`layer.thing.unit`, e.g.
/// `simnet.nic.delivery_ns`); the full naming scheme is catalogued in
/// `OBSERVABILITY.md`. Requesting an existing name returns the same
/// underlying instrument; requesting it as a *different kind* panics —
/// that is always a naming bug.
#[derive(Default)]
pub struct Registry {
    by_name: Mutex<BTreeMap<String, Instrument>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Instrument>> {
        self.by_name.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::default())))
        {
            Instrument::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::default())))
        {
            Instrument::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Arc::new(Histogram::default())))
        {
            Instrument::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// A point-in-time copy of every instrument, sorted by name.
    ///
    /// Because the underlying map is ordered and values are read with
    /// plain loads, two snapshots of identical runs compare equal —
    /// the property the workspace's determinism tests assert.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.lock();
        let entries = m
            .iter()
            .map(|(name, inst)| {
                let value = match inst {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge {
                        value: g.get(),
                        max: g.high_watermark(),
                    },
                    Instrument::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        max: h.max(),
                        buckets: Box::new(h.buckets()),
                    },
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot { entries }
    }
}

/// The frozen value of one instrument inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's total.
    Counter(u64),
    /// A gauge's level and high watermark.
    Gauge {
        /// Level at snapshot time.
        value: i64,
        /// Highest level ever observed.
        max: i64,
    },
    /// A histogram's aggregate statistics and bucket counts.
    Histogram {
        /// Number of samples.
        count: u64,
        /// Sum of samples.
        sum: u64,
        /// Largest sample.
        max: u64,
        /// Per-bucket counts (see [`HIST_BUCKETS`]), boxed so a
        /// snapshot entry stays small when the value is not a histogram.
        buckets: Box<[u64; HIST_BUCKETS]>,
    },
}

/// A deterministic, name-sorted copy of a registry's state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `(name, value)` pairs in ascending name order.
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Look up one entry by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// A counter's value, if `name` is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Entries whose name starts with `prefix`.
    pub fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'a (String, MetricValue)> + 'a {
        self.entries
            .iter()
            .filter(move |(n, _)| n.starts_with(prefix))
    }

    /// Render as a human-readable aligned table, one instrument per
    /// line. Histograms print count / mean / interpolated p50, p99 and
    /// p999 / max plus a compact sparkline of their occupied log2
    /// buckets.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<(String, String)> = Vec::with_capacity(self.entries.len());
        for (name, v) in &self.entries {
            let cell = match v {
                MetricValue::Counter(c) => format!("{c}"),
                MetricValue::Gauge { value, max } => format!("{value} (max {max})"),
                MetricValue::Histogram {
                    count,
                    sum,
                    max,
                    buckets,
                } => {
                    let mean = if *count == 0 {
                        0.0
                    } else {
                        *sum as f64 / *count as f64
                    };
                    let pct = |q: f64| percentile_from_buckets(buckets, q).min(*max as f64);
                    let (p50, p99, p999) = (pct(0.50), pct(0.99), pct(0.999));
                    let mut spark = String::new();
                    let lo = buckets.iter().position(|&b| b != 0);
                    let hi = buckets.iter().rposition(|&b| b != 0);
                    if let (Some(lo), Some(hi)) = (lo, hi) {
                        let peak = buckets[lo..=hi].iter().copied().max().unwrap_or(1).max(1);
                        const LEVELS: [char; 5] = [' ', '.', ':', '*', '#'];
                        for &b in &buckets[lo..=hi] {
                            let l = if b == 0 {
                                0
                            } else {
                                1 + (b * 3 / peak) as usize
                            };
                            spark.push(LEVELS[l.min(4)]);
                        }
                        spark = format!("  [2^{}..2^{}) |{spark}|", lo.saturating_sub(1), hi);
                    }
                    format!(
                        "n={count} mean={mean:.1} p50={p50:.0} p99={p99:.0} \
                         p999={p999:.0} max={max}{spark}"
                    )
                }
            };
            rows.push((name.clone(), cell));
        }
        let w = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, cell) in rows {
            out.push_str(&format!("{name:<w$}  {cell}\n"));
        }
        out
    }

    /// Serialize as a JSON object keyed by metric name. Counters render
    /// as numbers, gauges as `{"value", "max"}`, histograms as
    /// `{"count", "sum", "max", "p50", "p99", "p999", "buckets":
    /// {"<lo>": n, ...}}` with interpolated quantiles (see
    /// [`percentile_from_buckets`]) and only occupied buckets listed
    /// (keyed by their inclusive lower bound).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":", escape_json(name)));
            match v {
                MetricValue::Counter(c) => out.push_str(&format!("{c}")),
                MetricValue::Gauge { value, max } => {
                    out.push_str(&format!("{{\"value\":{value},\"max\":{max}}}"))
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    max,
                    buckets,
                } => {
                    let pct = |q: f64| percentile_from_buckets(buckets, q).min(*max as f64);
                    out.push_str(&format!(
                        "{{\"count\":{count},\"sum\":{sum},\"max\":{max},\
                         \"p50\":{:.1},\"p99\":{:.1},\"p999\":{:.1},\"buckets\":{{",
                        pct(0.50),
                        pct(0.99),
                        pct(0.999)
                    ));
                    let mut first = true;
                    for (b, &n) in buckets.iter().enumerate() {
                        if n != 0 {
                            if !first {
                                out.push(',');
                            }
                            first = false;
                            out.push_str(&format!("\"{}\":{n}", bucket_lo(b)));
                        }
                    }
                    out.push_str("}}");
                }
            }
        }
        out.push('}');
        out
    }
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("a.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("a.depth");
        g.add(3);
        g.add(-2);
        g.set(7);
        g.add(-7);
        assert_eq!(g.get(), 0);
        assert_eq!(g.high_watermark(), 7);
        // Same name returns the same instrument.
        r.counter("a.count").inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    // ---- histogram bucketing edge cases (satellite spec) -------------

    #[test]
    fn bucket_zero_holds_only_zero() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
    }

    #[test]
    fn bucket_of_one_and_max() {
        assert_eq!(bucket_of(1), 1); // [1, 2)
        assert_eq!(bucket_of(u64::MAX), 64); // [2^63, 2^64)
        assert_eq!(bucket_lo(64), 1u64 << 63);
    }

    #[test]
    fn bucket_boundaries_are_half_open() {
        // Bucket i spans [2^(i-1), 2^i): each power of two starts a new
        // bucket, and the value just below it belongs to the previous.
        for i in 1..64usize {
            let lo = 1u64 << (i - 1);
            assert_eq!(bucket_of(lo), i, "lower bound of bucket {i}");
            if lo > 1 {
                assert_eq!(bucket_of(lo - 1), i - 1, "below bucket {i}");
            }
            let hi = lo.wrapping_shl(1).wrapping_sub(1); // 2^i - 1
            assert_eq!(bucket_of(hi), i, "upper bound of bucket {i}");
        }
        assert_eq!(bucket_of((1u64 << 63) - 1), 63);
        assert_eq!(bucket_of(1u64 << 63), 64);
    }

    #[test]
    fn histogram_records_edge_values() {
        let h = Histogram::default();
        for v in [0u64, 1, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        // Sum wraps: 0 + 1 + u64::MAX == 0 (mod 2^64).
        assert_eq!(h.sum(), 0);
        let b = h.buckets();
        assert_eq!(b[0], 1);
        assert_eq!(b[1], 1);
        assert_eq!(b[64], 1);
        assert_eq!(b.iter().sum::<u64>(), 3);
    }

    #[test]
    fn histogram_mean_and_span() {
        let h = Histogram::default();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        assert!((h.mean() - 200.0).abs() < 1e-9);
        assert_eq!(h.max(), 300);
        let b = h.buckets();
        assert_eq!(b[7], 1); // 100 in [64, 128)
        assert_eq!(b[8], 1); // 200 in [128, 256)
        assert_eq!(b[9], 1); // 300 in [256, 512)
    }

    // ---- percentile estimation ---------------------------------------

    /// Nearest-rank exact quantile of a sorted sample set.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    /// Tiny deterministic generator (SplitMix64) so the quantile tests
    /// run on a seeded, reproducible sample set without any RNG dep.
    fn splitmix_stream(seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn percentile_empty_and_single_sample() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.5), 0.0);
        h.record(5);
        // A single sample: every quantile is that sample (the max clamp
        // pins the in-bucket interpolation to the exact value).
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 5.0, "q={q}");
        }
    }

    #[test]
    fn percentile_all_zero_samples_estimate_zero() {
        let h = Histogram::default();
        for _ in 0..10 {
            h.record(0);
        }
        assert_eq!(h.percentile(0.999), 0.0);
    }

    #[test]
    fn percentile_within_bucket_interpolation_is_monotone() {
        let h = Histogram::default();
        // 64 samples spread uniformly across one bucket [64, 128).
        for v in 64..128 {
            h.record(v);
        }
        let (p25, p50, p75) = (h.percentile(0.25), h.percentile(0.5), h.percentile(0.75));
        assert!(p25 < p50 && p50 < p75, "{p25} {p50} {p75}");
        // Uniform within the bucket: interpolation lands near the exact
        // quantile, far inside the factor-of-two bucket bound.
        assert!((p50 - 96.0).abs() < 8.0, "p50={p50}");
    }

    #[test]
    fn percentile_tracks_exact_quantiles_on_seeded_data() {
        // Mixed-scale seeded samples: exercises many buckets at once.
        for (seed, n) in [(7u64, 500usize), (0x5eed, 4096), (99, 10_000)] {
            let h = Histogram::default();
            let mut samples: Vec<u64> = splitmix_stream(seed, n)
                .into_iter()
                // Spread over ~20 octaves so several buckets are hit.
                .map(|r| (r % 1_000_000) + 1)
                .collect();
            for &v in &samples {
                h.record(v);
            }
            samples.sort_unstable();
            for q in [0.5, 0.9, 0.99, 0.999] {
                let exact = exact_quantile(&samples, q) as f64;
                let est = h.percentile(q);
                // The log2 bucketing guarantees a factor-of-two bound.
                assert!(
                    est >= exact / 2.0 && est <= exact * 2.0,
                    "seed {seed} q {q}: est {est} vs exact {exact}"
                );
            }
            // The top quantile never exceeds the true max.
            assert!(h.percentile(1.0) <= *samples.last().unwrap() as f64);
        }
    }

    #[test]
    fn exporters_carry_percentiles() {
        let r = Registry::new();
        let h = r.histogram("lat");
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        let s = r.snapshot();
        let t = s.render_table();
        assert!(
            t.contains("p50=") && t.contains("p99=") && t.contains("p999="),
            "{t}"
        );
        let j = s.to_json();
        assert!(
            j.contains("\"p50\":") && j.contains("\"p99\":") && j.contains("\"p999\":"),
            "{j}"
        );
    }

    // ---- snapshot ----------------------------------------------------

    #[test]
    fn snapshot_is_sorted_and_equal_for_equal_state() {
        let mk = || {
            let r = Registry::new();
            // Deliberately create out of name order.
            r.histogram("z.lat").record(17);
            r.counter("a.count").add(2);
            r.gauge("m.depth").set(3);
            r.snapshot()
        };
        let (s1, s2) = (mk(), mk());
        assert_eq!(s1, s2);
        let names: Vec<_> = s1.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.count", "m.depth", "z.lat"]);
        assert_eq!(s1.counter("a.count"), Some(2));
        assert!(s1.counter("z.lat").is_none(), "histogram is not a counter");
    }

    #[test]
    fn render_table_mentions_every_metric() {
        let r = Registry::new();
        r.counter("unr.puts").add(9);
        r.gauge("cq.depth").set(4);
        r.histogram("lat_ns").record(1000);
        let t = r.snapshot().render_table();
        for needle in ["unr.puts", "cq.depth", "lat_ns", "9", "max 4", "n=1"] {
            assert!(t.contains(needle), "table missing {needle:?}:\n{t}");
        }
    }

    #[test]
    fn json_shape_is_valid_and_minimal() {
        let r = Registry::new();
        r.counter("c").add(1);
        r.gauge("g").set(-2);
        r.histogram("h").record(5);
        let j = r.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"c\":1"));
        assert!(j.contains("\"g\":{\"value\":-2,\"max\":0}"));
        // 5 lands in bucket [4, 8): keyed by its lower bound.
        assert!(j.contains("\"buckets\":{\"4\":1}"), "{j}");
        assert!(!j.contains(",}"), "no trailing commas: {j}");
    }

    #[test]
    fn with_prefix_filters() {
        let r = Registry::new();
        r.counter("unr.puts").inc();
        r.counter("unr.gets").inc();
        r.counter("simnet.puts").inc();
        let s = r.snapshot();
        assert_eq!(s.with_prefix("unr.").count(), 2);
        assert_eq!(s.with_prefix("simnet.").count(), 1);
    }
}
