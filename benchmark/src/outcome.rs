//! What one run of one workload hands back, and how it is printed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::catalogue::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::Value;
use crate::spans::{self, Span, TraceSummary};
use crate::stats;

/// Where traces and result sets go, relative to the repository root
/// (the directory the benchmark is run from).
pub const OUT_DIR: &str = "benchmark/out";

/// Command-line options common to every workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Repeat set-up + slice until the time given to the run is used, but
/// at least three times (four when tracing) so `setup_s` and every rate
/// are medians. A traced run alternates plain and traced repetitions,
/// so the overhead of tracing is measured inside one run.
pub struct Budget {
    deadline: Instant,
    trace: bool,
    done: usize,
}

impl Budget {
    pub fn new(seconds: f64, trace: bool) -> Budget {
        Budget {
            deadline: Instant::now() + Duration::from_secs_f64(seconds.max(0.0)),
            trace,
            done: 0,
        }
    }

    /// Repetitions finished so far (= the index of the current one).
    pub fn reps(&self) -> usize {
        self.done
    }

    /// Whether the current repetition records spans.
    pub fn traced(&self) -> bool {
        self.trace && self.done % 2 == 1
    }

    /// Count the repetition just finished, which took `last`, and say
    /// whether to start another one expected to take as long: a run
    /// may end early, never late by more than one repetition.
    pub fn again(&mut self, last: Duration) -> bool {
        self.done += 1;
        self.done < if self.trace { 4 } else { 3 } || Instant::now() + last <= self.deadline
    }
}

/// The five end-to-end figures of one run, each with the samples it is
/// the median of (so the spread can be shown next to it).
#[derive(Debug, Clone, Default)]
pub struct EndToEndValues {
    /// Operations per wall-clock second, one sample per timed slice.
    pub host_ops_per_s: Vec<f64>,
    pub lat_p50_us: f64,
    pub lat_p90_us: f64,
    /// One-line description of the latency sample pool.
    pub lat_pool: String,
    /// Peak resident set of each world built (the largest process of
    /// that world). Reported as the *smallest* of them: worlds built
    /// later in one process inherit the allocator's leftovers of earlier
    /// ones, so the smallest peak is the one a fresh process needs.
    pub peak_rss_mb: Vec<f64>,
    /// Seconds from "start building the world" to the first timed
    /// operation, one sample per world built.
    pub setup_s: Vec<f64>,
}

#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations were counted as failed (first few, for the log).
    pub failures: Vec<String>,
    pub e2e: EndToEndValues,
    /// Per-layer values this workload observed (traced run only);
    /// anything in the catalogue it did not set prints as 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form lines for the human part of the output.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the per-layer catalogue"
        );
        self.layers.insert(name, value);
    }

    /// What a traced run reports about the harness spans of its last
    /// traced repetition: the per-layer table, the closure of spans +
    /// unattributed time on the untraced end-to-end figure, the tracing
    /// overhead, and one Chrome trace under `benchmark/out/`.
    ///
    /// `ranks` holds one span log per rank, all of which go into the
    /// Chrome trace; the table summarises the first `measured` of them
    /// (the ranks whose root span is the operation). `what` names that
    /// operation, which untraced takes `e2e_op_ns`; `traced` is the
    /// host-rate median of the traced repetitions of this same run (the
    /// untraced one is `host_ops_per_s`).
    pub fn report_trace(
        &mut self,
        workload: &str,
        what: &str,
        ranks: &[Vec<Span>],
        measured: usize,
        e2e_op_ns: f64,
        traced: f64,
    ) -> TraceSummary {
        let plain = self.e2e_value("host_ops_per_s");
        self.set("e2e.host_ops_per_s", plain);
        self.set("e2e.lat_p50_us", self.e2e.lat_p50_us);
        if traced > 0.0 {
            self.set("trace.overhead_pct", (plain / traced - 1.0) * 100.0);
        }
        let all = spans::concat(ranks.iter().take(measured).map(Vec::as_slice));
        let sum = spans::summarize(&all);
        self.set("trace.unattributed_ns", sum.unattributed_ns);
        self.set("trace.attributed_ns", sum.attributed_ns);
        self.set("trace.spans", all.len() as f64);
        if e2e_op_ns > 0.0 {
            self.set(
                "trace.closure_pct",
                (sum.attributed_ns + sum.unattributed_ns) / e2e_op_ns * 100.0,
            );
        }
        self.notes.push(format!(
            "traced operation = {what} ({} traced, median {:.0} ns; untraced {e2e_op_ns:.0} ns)",
            sum.ops, sum.op_median_ns
        ));
        self.notes.extend(sum.render().lines().map(str::to_string));

        let events: Vec<_> = ranks
            .iter()
            .enumerate()
            .flat_map(|(rank, log)| spans::to_events(rank as u32, log))
            .collect();
        let path = format!("{OUT_DIR}/{workload}.trace.json");
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, unr_obs::chrome_trace_json(&events)));
        self.notes.push(match written {
            Ok(()) => format!("chrome trace: {path} ({} spans)", events.len()),
            Err(e) => format!("chrome trace not written ({path}): {e}"),
        });
        sum
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn e2e_value(&self, name: &str) -> f64 {
        match name {
            "host_ops_per_s" => stats::median(&self.e2e.host_ops_per_s),
            "lat_p50_us" => self.e2e.lat_p50_us,
            "lat_p90_us" => self.e2e.lat_p90_us,
            "peak_rss_mb" => self
                .e2e
                .peak_rss_mb
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min),
            "setup_s" => stats::median(&self.e2e.setup_s),
            other => panic!("unknown end-to-end metric {other}"),
        }
    }

    /// Slice-to-slice spread of a metric inside this run (IQR over
    /// median); 0 for figures that are not medians of slices.
    pub fn e2e_spread(&self, name: &str) -> f64 {
        match name {
            "host_ops_per_s" => stats::spread(&self.e2e.host_ops_per_s),
            "setup_s" => stats::spread(&self.e2e.setup_s),
            _ => 0.0,
        }
    }

    /// The metrics object of the result line: end-to-end metrics for an
    /// untraced run, per-layer metrics for a traced one.
    pub fn metrics_json(&self, trace: bool) -> Value {
        let entry = |value: f64, unit: &str| {
            Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(unit.into())),
            ])
        };
        let fields = if trace {
            PER_LAYER
                .iter()
                .map(|m| {
                    let v = self.layers.get(m.name).copied().unwrap_or(0.0);
                    (m.name.to_string(), entry(v, m.unit))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), entry(self.e2e_value(m.name), m.unit)))
                .collect()
        };
        Value::Obj(fields)
    }

    /// `{correct, attempted, failed, metrics}`. `with_spread` adds each
    /// end-to-end metric's slice-to-slice spread, for result-set files;
    /// the acceptance driver's line carries exactly value and unit.
    pub fn result_json(&self, trace: bool, with_spread: bool) -> Value {
        let mut metrics = self.metrics_json(trace);
        if let (true, false, Value::Obj(fields)) = (with_spread, trace, &mut metrics) {
            for (name, m) in fields.iter_mut() {
                if let Value::Obj(kv) = m {
                    kv.push(("spread".into(), Value::Num(self.e2e_spread(name))));
                }
            }
        }
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
    }

    /// The one-line JSON object the acceptance driver reads.
    pub fn result_line(&self, trace: bool) -> String {
        self.result_json(trace, false).render()
    }

    /// Every metric by name with its unit, for people.
    pub fn render(&self, workload: &str, trace: bool) -> String {
        let mut out = format!(
            "== {workload}: attempted {} failed {} ({})\n",
            self.attempted,
            self.failed,
            if self.correct() {
                "outputs correct"
            } else {
                "OUTPUT CHECKS FAILED"
            }
        );
        if let Some(w) = WORKLOADS.iter().find(|w| w.name == workload) {
            out.push_str(&format!("  why: {}\n", w.why));
        }
        for f in &self.failures {
            out.push_str(&format!("  FAIL: {f}\n"));
        }
        for m in &END_TO_END {
            let samples: &[f64] = match m.name {
                "host_ops_per_s" => &self.e2e.host_ops_per_s,
                "peak_rss_mb" => &self.e2e.peak_rss_mb,
                "setup_s" => &self.e2e.setup_s,
                _ => &[],
            };
            let list: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
            let detail = match m.name {
                _ if samples.is_empty() => String::new(),
                "peak_rss_mb" => format!("  (smallest of {}: {})", samples.len(), list.join(" ")),
                _ => {
                    let [q1, _, q3] = stats::quartiles(samples);
                    format!(
                        "  (median of {}, q1 {q1:.6} q3 {q3:.6}: {})",
                        samples.len(),
                        list.join(" ")
                    )
                }
            };
            out.push_str(&format!(
                "  {:<16} {:>16.6} {:<5}{detail}\n",
                m.name,
                self.e2e_value(m.name),
                m.unit
            ));
        }
        out.push_str(&format!("  latency samples: {}\n", self.e2e.lat_pool));
        for n in &self.notes {
            out.push_str(&format!("  {n}\n"));
        }
        if trace {
            out.push_str("  -- per layer --\n");
            for m in &PER_LAYER {
                let v = self.layers.get(m.name).copied().unwrap_or(0.0);
                out.push_str(&format!(
                    "  {:<40} {:>16.4} {:<6} ({} is better)\n",
                    m.name,
                    v,
                    m.unit,
                    m.better.as_str()
                ));
            }
        }
        out
    }
}

/// A deterministic byte pattern for payload checks: the same
/// `(seed, who, round)` always fills the same bytes, and neighbouring
/// rounds differ in every position that matters.
pub fn fill_pattern(buf: &mut [u8], seed: u64, who: u64, round: u64) {
    let mut x =
        seed ^ who.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03);
    for chunk in buf.chunks_mut(8) {
        // splitmix64
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
    }
}

/// Position of the first byte of `got`, past the first `skip` (a
/// header the caller checks itself), that differs from the pattern.
pub fn check_pattern(
    got: &[u8],
    scratch: &mut Vec<u8>,
    skip: usize,
    (seed, who, round): (u64, u64, u64),
) -> Option<usize> {
    scratch.resize(got.len(), 0);
    fill_pattern(scratch, seed, who, round);
    (skip..got.len()).find(|&i| got[i] != scratch[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.e2e.host_ops_per_s = vec![10.0, 30.0, 20.0];
        o.e2e.setup_s = vec![0.5];
        o.e2e.lat_p50_us = 1.5;
        o.e2e.lat_p90_us = 2.5;
        o.e2e.peak_rss_mb = vec![12.0];
        for trace in [false, true] {
            let v = Value::parse(&o.result_line(trace)).unwrap();
            let keys: Vec<&str> = v.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let n = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(v.get("metrics").unwrap().fields().len(), n);
            for (_, m) in v.get("metrics").unwrap().fields() {
                let keys: Vec<&str> = m.fields().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["value", "unit"]);
            }
        }
        let v = Value::parse(&o.result_line(false)).unwrap();
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("host_ops_per_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(20.0)
        );
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        o.fail(2, "x".into());
        assert!(o.result_line(false).contains("\"correct\": false"));
    }

    #[test]
    fn pattern_is_deterministic_and_round_sensitive() {
        let mut a = vec![0u8; 100];
        let mut b = vec![0u8; 100];
        fill_pattern(&mut a, 7, 1, 3);
        fill_pattern(&mut b, 7, 1, 3);
        assert_eq!(a, b);
        let mut scratch = Vec::new();
        assert_eq!(check_pattern(&a, &mut scratch, 0, (7, 1, 3)), None);
        assert!(check_pattern(&a, &mut scratch, 0, (7, 1, 4)).is_some());
        assert!(check_pattern(&a, &mut scratch, 0, (8, 1, 3)).is_some());
        a[42] ^= 1;
        assert_eq!(check_pattern(&a, &mut scratch, 0, (7, 1, 3)), Some(42));
        assert_eq!(check_pattern(&a, &mut scratch, 43, (7, 1, 3)), None);
    }

    #[test]
    fn budget_runs_the_minimum_then_watches_the_clock() {
        let mut b = Budget::new(0.0, false);
        assert!(!b.traced());
        assert!(b.again(Duration::ZERO));
        assert!(b.again(Duration::ZERO));
        assert!(!b.again(Duration::ZERO));
        assert_eq!(b.reps(), 3);
        // Tracing: one more, and every other repetition is traced.
        let mut b = Budget::new(0.0, true);
        let traced: Vec<bool> = std::iter::from_fn(|| {
            let t = b.traced();
            b.again(Duration::ZERO).then_some(t)
        })
        .collect();
        assert_eq!(traced, [false, true, false]);
        assert_eq!(b.reps(), 4);
        let mut b = Budget::new(3600.0, false);
        for _ in 0..3 {
            assert!(b.again(Duration::from_secs(1)));
        }
        assert!(!b.again(Duration::from_secs(7200)));
    }
}
