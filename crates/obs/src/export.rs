//! Exporters: Chrome `trace_event` JSON for span events.
//!
//! The metrics-side exporters (table and JSON) live on
//! [`Snapshot`](crate::Snapshot) itself; this module owns the span
//! exporter because it operates on plain `&[SpanEvent]` slices, letting
//! callers merge events from several logs before writing one file.

use crate::metrics::escape_json;
use crate::span::SpanEvent;

/// Serialize spans as a Chrome `trace_event` JSON array of "X"
/// (complete) events, loadable in `chrome://tracing` or Perfetto.
///
/// Timestamps and durations are microseconds with nanosecond precision
/// (three decimals); zero-length spans are widened to 0.001 µs so the
/// viewer renders them. Events are sorted by the same deterministic key
/// as [`SpanLog::events`](crate::SpanLog::events), so the output is
/// byte-identical across runs that produced the same spans.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut evs: Vec<&SpanEvent> = events.iter().collect();
    evs.sort_by(|a, b| {
        (a.ts_ns, a.pid, a.tid, a.dur_ns, &a.name, a.seq)
            .cmp(&(b.ts_ns, b.pid, b.tid, b.dur_ns, &b.name, b.seq))
    });
    if evs.is_empty() {
        return String::from("[\n]");
    }
    let mut out = String::from("[\n");
    for (i, e) in evs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let ts_us = e.ts_ns as f64 / 1000.0;
        let dur_us = (e.dur_ns as f64 / 1000.0).max(0.001);
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": {}, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}",
            escape_json(&e.name),
            escape_json(e.cat),
            e.pid,
            e.tid,
            ts_us,
            dur_us,
        ));
        if !e.args.is_empty() {
            out.push_str(", \"args\": {");
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {v}", escape_json(k)));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, pid: u32, ts: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            cat: "test",
            pid,
            tid: 0,
            ts_ns: ts,
            dur_ns: dur,
            args: vec![],
            seq: 0,
        }
    }

    #[test]
    fn empty_slice_is_valid_json_array() {
        let j = chrome_trace_json(&[]);
        assert!(j.starts_with('['));
        assert!(j.ends_with(']'));
        assert!(!j.contains(",\n]"));
    }

    #[test]
    fn well_formed_complete_events() {
        let evs = vec![ev("b", 1, 2000, 500), ev("a", 0, 1000, 0)];
        let j = chrome_trace_json(&evs);
        assert_eq!(j.matches("\"ph\": \"X\"").count(), 2);
        // Sorted by time despite record order.
        assert!(j.find("\"a\"").unwrap() < j.find("\"b\"").unwrap());
        // ns → µs with three decimals; zero duration clamped.
        assert!(j.contains("\"ts\": 1.000"), "{j}");
        assert!(j.contains("\"ts\": 2.000"), "{j}");
        assert!(j.contains("\"dur\": 0.500"), "{j}");
        assert!(j.contains("\"dur\": 0.001"), "{j}");
        assert!(!j.contains(",\n]"), "no trailing comma");
    }

    #[test]
    fn args_are_emitted() {
        let mut e = ev("put", 0, 10, 20);
        e.args = vec![("bytes", 4096), ("stripes", 3)];
        let j = chrome_trace_json(&[e]);
        assert!(
            j.contains("\"args\": {\"bytes\": 4096, \"stripes\": 3}"),
            "{j}"
        );
    }

    #[test]
    fn output_is_deterministic_for_permuted_input() {
        let a = vec![ev("x", 0, 100, 5), ev("y", 1, 100, 5), ev("z", 0, 50, 5)];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(chrome_trace_json(&a), chrome_trace_json(&b));
    }
}
