//! `compare A.json B.json`: judge result set B against result set A
//! with the bounds of the catalogue.
//!
//! For every workload and end-to-end metric the change is expressed as
//! a share of A's value, signed so that positive means worse. Beyond
//! the metric's bound in either direction it is `worse` or `better` —
//! unless one of the two runs saw a slice-to-slice spread wider than
//! the bound, in which case the honest answer is `unresolved`.

use crate::catalogue::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(metric: &EndToEnd, a: f64, b: f64, spread_a: f64, spread_b: f64) -> Verdict {
    let w = worsening(metric.better, a, b);
    if w.abs() <= metric.bound {
        Verdict::Same
    } else if spread_a.max(spread_b) > metric.bound {
        Verdict::Unresolved
    } else if w > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

fn metric_of<'a>(set: &'a Value, workload: &str, metric: &str) -> Option<&'a Value> {
    set.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)
}

/// Print the table; `Ok(true)` when nothing got worse.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    let same_seed = a.get("seed") == b.get("seed");
    let mut ok = true;
    let mut rows = 0;
    println!(
        "{:<18} {:<16} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(ma), Some(mb)) = (metric_of(a, w.name, m.name), metric_of(b, w.name, m.name))
            else {
                continue;
            };
            let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64);
            let (Some(va), Some(vb)) = (num(ma, "value"), num(mb, "value")) else {
                return Err(format!("{}/{}: value missing", w.name, m.name));
            };
            let sa = num(ma, "spread").unwrap_or(0.0);
            let sb = num(mb, "spread").unwrap_or(0.0);
            let verdict = judge(m, va, vb, sa, sb);
            ok &= verdict != Verdict::Worse;
            rows += 1;
            let mut note = String::new();
            // Simulated time repeats exactly for a seed: between two
            // runs of one seed any difference at all is a model change.
            if same_seed && w.name.starts_with("sim-") && m.name.starts_with("lat_") {
                note = if va == vb {
                    "  (simulated: identical)".into()
                } else {
                    "  (simulated: DIFFERS for the same seed)".into()
                };
            }
            println!(
                "{:<18} {:<16} {:>16.6} {:>16.6} {:>+8.2}% {:>6.0}%  {}{note}",
                w.name,
                m.name,
                va,
                vb,
                worsening(m.better, va, vb) * 100.0,
                m.bound * 100.0,
                verdict.as_str()
            );
        }
        for set in [a, b] {
            let failed = set
                .get("workloads")
                .and_then(|ws| ws.get(w.name))
                .and_then(|r| r.get("failed"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            if failed > 0.0 {
                println!("{:<18} {failed} failed operations", w.name);
                ok = false;
            }
        }
    }
    if rows == 0 {
        return Err("the two result sets share no workload".into());
    }
    for (label, set) in [("A", a), ("B", b)] {
        if set.get("noisy").and_then(Value::as_bool) == Some(true) {
            println!(
                "note: result set {label} was marked noisy (another process was using the machine)"
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: EndToEnd = EndToEnd {
        name: "rate",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };
    const LAT: EndToEnd = EndToEnd {
        name: "lat",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    };

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(Better::Lower, 100.0, 120.0) - 0.2).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 80.0) + 0.2).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 120.0) + 0.2).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn verdicts() {
        // Inside the bound, either way.
        assert_eq!(judge(&RATE, 100.0, 91.0, 0.0, 0.0), Verdict::Same);
        assert_eq!(judge(&RATE, 100.0, 109.0, 0.5, 0.5), Verdict::Same);
        assert_eq!(judge(&LAT, 100.0, 110.0, 0.0, 0.0), Verdict::Same);
        // Beyond it, with steady runs.
        assert_eq!(judge(&RATE, 100.0, 85.0, 0.02, 0.03), Verdict::Worse);
        assert_eq!(judge(&RATE, 100.0, 115.0, 0.02, 0.03), Verdict::Better);
        assert_eq!(judge(&LAT, 100.0, 115.0, 0.0, 0.0), Verdict::Worse);
        assert_eq!(judge(&LAT, 100.0, 85.0, 0.0, 0.0), Verdict::Better);
        // Beyond it, but one run's own spread is wider than the bound.
        assert_eq!(judge(&RATE, 100.0, 85.0, 0.02, 0.12), Verdict::Unresolved);
        assert_eq!(judge(&LAT, 100.0, 85.0, 0.2, 0.0), Verdict::Unresolved);
    }

    fn set(seed: f64, rate: f64, lat: f64, failed: f64) -> Value {
        let m = |v: f64, unit: &str| {
            Value::obj([
                ("value", Value::Num(v)),
                ("unit", Value::Str(unit.into())),
                ("spread", Value::Num(0.01)),
            ])
        };
        Value::obj([
            ("seed", Value::Num(seed)),
            (
                "workloads",
                Value::obj([(
                    "sim-storm",
                    Value::obj([
                        ("failed", Value::Num(failed)),
                        (
                            "metrics",
                            Value::obj([
                                ("host_ops_per_s", m(rate, "1/s")),
                                ("lat_p50_us", m(lat, "us")),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_passes_within_bounds_and_fails_on_regression_or_failures() {
        assert_eq!(
            compare(&set(1.0, 1000.0, 5.0, 0.0), &set(1.0, 950.0, 5.0, 0.0)),
            Ok(true)
        );
        assert_eq!(
            compare(&set(1.0, 1000.0, 5.0, 0.0), &set(1.0, 600.0, 5.0, 0.0)),
            Ok(false)
        );
        assert_eq!(
            compare(&set(1.0, 1000.0, 5.0, 0.0), &set(1.0, 1000.0, 8.0, 0.0)),
            Ok(false)
        );
        assert_eq!(
            compare(&set(1.0, 1000.0, 5.0, 0.0), &set(1.0, 1500.0, 5.0, 0.0)),
            Ok(true)
        );
        assert_eq!(
            compare(&set(1.0, 1000.0, 5.0, 0.0), &set(1.0, 1000.0, 5.0, 3.0)),
            Ok(false)
        );
        assert!(compare(&Value::obj([]), &set(1.0, 1.0, 1.0, 0.0)).is_err());
    }
}
