//! Harness-side tracing: spans recorded *around* the benchmark's own
//! calls into the library (`put`, `sig_wait`, `Solver::step`, …), kept
//! in memory and written out when the run ends. Spans inside the
//! library are a later change; until then whatever an operation spends
//! outside these calls shows up as the root span's self time, reported
//! as `unattributed`.
//!
//! All span times are host wall-clock nanoseconds.

use std::collections::BTreeMap;
use std::time::Instant;

use unr_obs::SpanEvent;

use crate::stats::Pool;

pub const NO_PARENT: u32 = u32::MAX;

/// Every span name the harness records. Names are `&'static str` so a
/// traced call costs two clock reads and one `Vec` push, no allocation;
/// a rank process's log is read back by looking names up here.
pub const NAMES: [&str; 12] = [
    "epoch",
    "round",
    "block",
    "request-loop",
    "fill",
    "put",
    "get",
    "sig_wait",
    "sig_reset",
    "step",
    "verify",
    "barrier",
];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one operation share an identifier.
    pub op_id: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::enter`]; pass it back to `exit`.
#[derive(Clone, Copy)]
pub struct Open(u32);

/// One thread's span log. Disabled, `enter`/`exit` read no clock and
/// touch no memory, so the untraced run measures the bare calls.
pub struct Recorder {
    enabled: bool,
    base: Instant,
    /// Where `base` sits on the run's shared timeline.
    base_offset_ns: u64,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool, base_offset_ns: u64) -> Recorder {
        Recorder {
            enabled,
            base: Instant::now(),
            base_offset_ns,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.base_offset_ns + self.base.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, op_id: u64) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op_id,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn exit(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let end = self.now();
        self.spans[open.0 as usize].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must nest");
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of each span: its duration minus the part of it its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur());
        }
    }
    own
}

/// Join several recorders' logs (one per rank) into one, keeping each
/// span's parent link valid.
pub fn concat<'a>(logs: impl Iterator<Item = &'a [Span]>) -> Vec<Span> {
    let mut all = Vec::new();
    for log in logs {
        let base = all.len() as u32;
        all.extend(log.iter().cloned().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// What the per-layer table says about one span name.
pub struct LayerRow {
    pub count: usize,
    pub dur: Pool,
    /// Median over the traced operations of the self time spans of this
    /// name add up to inside one operation.
    pub self_per_op_ns: f64,
}

/// Per-name summary plus the closure figures of the traced operations.
///
/// Per-operation figures are medians over operations, like the
/// end-to-end figure they are read against; a sum of medians is not
/// the median of the sums, which is why the closure is reported
/// instead of assumed.
pub struct TraceSummary {
    pub rows: BTreeMap<&'static str, LayerRow>,
    /// Root spans (one per traced operation).
    pub ops: usize,
    /// Median root-span duration.
    pub op_median_ns: f64,
    /// Median self time of a root span: time inside an operation that
    /// no harness span covers.
    pub unattributed_ns: f64,
    /// Sum of the non-root rows' `self_per_op_ns`.
    pub attributed_ns: f64,
}

pub fn summarize(spans: &[Span]) -> TraceSummary {
    let own = self_times(spans);
    // Parents always precede their children in a recorder's log.
    let mut root_of = vec![0usize; spans.len()];
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = if s.parent == NO_PARENT {
            roots.push(i);
            i
        } else {
            root_of[s.parent as usize]
        };
    }
    let ops = roots.len();
    let op_index: BTreeMap<usize, usize> = roots.iter().enumerate().map(|(k, &r)| (r, k)).collect();

    let mut durs: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    // name -> self time per operation (0 where the name does not occur).
    let mut per_op: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut root_self = vec![0.0; ops];
    for (i, s) in spans.iter().enumerate() {
        durs.entry(s.name).or_default().push(s.dur());
        let op = op_index[&root_of[i]];
        if s.parent == NO_PARENT {
            root_self[op] += own[i] as f64;
        } else {
            per_op.entry(s.name).or_insert_with(|| vec![0.0; ops])[op] += own[i] as f64;
        }
    }
    let root_durs: Vec<f64> = roots.iter().map(|&r| spans[r].dur() as f64).collect();
    let mut attributed_ns = 0.0;
    let rows = durs
        .into_iter()
        .map(|(name, d)| {
            let self_per_op_ns = per_op.get(name).map_or(0.0, |v| crate::stats::median(v));
            attributed_ns += self_per_op_ns;
            let row = LayerRow {
                count: d.len(),
                dur: Pool::new(d),
                self_per_op_ns,
            };
            (name, row)
        })
        .collect();
    TraceSummary {
        rows,
        ops,
        op_median_ns: crate::stats::median(&root_durs),
        unattributed_ns: crate::stats::median(&root_self),
        attributed_ns,
    }
}

impl TraceSummary {
    pub fn p50(&self, name: &str) -> f64 {
        self.rows
            .get(name)
            .map_or(0.0, |r| r.dur.percentile(0.5) as f64)
    }

    pub fn p99(&self, name: &str) -> f64 {
        self.rows
            .get(name)
            .map_or(0.0, |r| r.dur.percentile(0.99) as f64)
    }

    /// The per-layer table: one row per span name, then `unattributed`.
    pub fn render(&self) -> String {
        let mut out = format!(
            "  {:<14} {:>8} {:>12} {:>12} {:>14}\n",
            "span", "count", "p50 ns", "p99 ns", "self ns/op"
        );
        for (name, r) in &self.rows {
            out.push_str(&format!(
                "  {:<14} {:>8} {:>12} {:>12} {:>14.0}\n",
                name,
                r.count,
                r.dur.percentile(0.5),
                r.dur.percentile(0.99),
                r.self_per_op_ns
            ));
        }
        out.push_str(&format!(
            "  {:<14} {:>8} {:>12} {:>12} {:>14.0}\n",
            "unattributed", self.ops, "-", "-", self.unattributed_ns
        ));
        out
    }
}

/// Convert one rank's spans for `unr_obs::chrome_trace_json`.
pub fn to_events(rank: u32, spans: &[Span]) -> Vec<SpanEvent> {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![("op", s.op_id)];
            if s.parent != NO_PARENT {
                args.push(("parent", s.parent as u64));
            }
            SpanEvent {
                name: s.name.to_string(),
                cat: "benchmark",
                pid: rank,
                tid: 0,
                ts_ns: s.start_ns,
                dur_ns: s.dur(),
                args,
                seq: i as u64,
            }
        })
        .collect()
}

/// One span per line, for a rank process to hand its log to the parent.
pub fn to_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{} {} {} {} {}\n",
            s.name, s.start_ns, s.end_ns, s.parent, s.op_id
        ));
    }
    out
}

pub fn from_lines(text: &str) -> Option<Vec<Span>> {
    text.lines()
        .map(|l| {
            let mut f = l.split(' ');
            let name = f.next()?;
            Some(Span {
                name: NAMES.iter().copied().find(|n| *n == name)?,
                start_ns: f.next()?.parse().ok()?,
                end_ns: f.next()?.parse().ok()?,
                parent: f.next()?.parse().ok()?,
                op_id: f.next()?.parse().ok()?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, op: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: op,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("round", 0, 100, NO_PARENT, 1),
            span("put", 10, 30, 0, 1),
            span("sig_wait", 30, 90, 0, 1),
            span("verify", 40, 50, 2, 1),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        let sum = summarize(&spans);
        assert_eq!(sum.ops, 1);
        assert_eq!(sum.op_median_ns, 100.0);
        assert_eq!(sum.unattributed_ns, 20.0);
        assert_eq!(sum.attributed_ns, 80.0);
        assert_eq!(sum.rows["sig_wait"].self_per_op_ns, 50.0);
        assert_eq!(sum.rows["round"].self_per_op_ns, 0.0);
        // Spans plus unattributed close on the operation exactly.
        assert_eq!(sum.attributed_ns + sum.unattributed_ns, sum.op_median_ns);
        assert_eq!(sum.p50("put"), 20.0);
        assert!(sum.render().contains("unattributed"));
    }

    #[test]
    fn per_operation_figures_are_medians_over_operations() {
        // Three rounds; the third waits ten times longer.
        let mut spans = Vec::new();
        for (op, wait) in [(0u64, 60u64), (1, 70), (2, 900)] {
            let base = spans.len() as u32;
            let t0 = op * 10_000;
            spans.push(span("round", t0, t0 + wait + 30, NO_PARENT, op));
            spans.push(span("put", t0 + 5, t0 + 25, base, op));
            spans.push(span("sig_wait", t0 + 25, t0 + 25 + wait, base, op));
        }
        let sum = summarize(&spans);
        assert_eq!(sum.ops, 3);
        assert_eq!(sum.op_median_ns, 100.0);
        assert_eq!(sum.rows["put"].self_per_op_ns, 20.0);
        assert_eq!(sum.rows["sig_wait"].self_per_op_ns, 70.0);
        assert_eq!(sum.unattributed_ns, 10.0);
        assert_eq!(sum.attributed_ns, 90.0);
        assert_eq!(sum.p50("sig_wait"), 70.0);
        assert_eq!(sum.p99("sig_wait"), 900.0);
    }

    #[test]
    fn concat_rebases_parent_links() {
        let a = vec![span("round", 0, 10, NO_PARENT, 1), span("put", 1, 2, 0, 1)];
        let b = vec![span("round", 0, 20, NO_PARENT, 2), span("put", 5, 9, 0, 2)];
        let all = concat([a.as_slice(), b.as_slice()].into_iter());
        assert_eq!(all[3].parent, 2);
        assert_eq!(self_times(&all), vec![9, 1, 16, 4]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false, 0);
        let a = r.enter("put", 1);
        r.exit(a);
        assert!(r.into_spans().is_empty());
    }

    #[test]
    fn recorder_nests_and_round_trips_through_lines() {
        let mut r = Recorder::new(true, 1_000);
        let root = r.enter("round", 7);
        let child = r.enter("put", 7);
        r.exit(child);
        r.exit(root);
        let spans = r.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].start_ns >= 1_000);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(from_lines(&to_lines(&spans)).unwrap(), spans);
        assert!(from_lines("put 1 2").is_none());
        assert!(from_lines("unknown 1 2 3 4").is_none());
        let ev = to_events(3, &spans);
        assert_eq!(ev[1].pid, 3);
        assert_eq!(ev[1].args, vec![("op", 7), ("parent", 0)]);
        assert!(unr_obs::chrome_trace_json(&ev).contains("\"name\": \"put\""));
    }
}
