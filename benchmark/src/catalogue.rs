//! The metric and workload catalogue: every name the benchmark prints,
//! with its unit, direction and (for end-to-end metrics) the share of
//! the parent's median by which it may get worse before `compare` calls
//! it a regression. `/BENCHMARK.json` states the same list for the
//! acceptance driver; a unit test keeps the two identical.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "sim-storm",
        why: "simnet 4x2 ranks, 4 NICs, reliable 128 KiB ring puts, closed loop: the Unr engine's whole host path (stripe, retry, signal table, progress) with no sockets",
    },
    Workload {
        name: "sim-powerllel",
        why: "simnet 4x2 ranks, 64x64x32 Taylor-Green steps over UNR: the paper's application; FFT/PDD kernels dominate, so a comm-layer change must predict no change here",
    },
    Workload {
        name: "sim-serve",
        why: "simnet 4-rank KV service, zipf 0.99, 90% GET, R=2, open loop at 50k req/s/rank: serve layers (cache, admission, codec, generator) and the GET path do the work",
    },
    Workload {
        name: "net-pingpong",
        why: "netfab 2 procs x 1 NIC, unreliable 64 B notified-put ping-pong, 1 in flight: per-message syscall and wake cost; agg, retry and striping are bypassed",
    },
    Workload {
        name: "net-stream-small",
        why: "netfab 2x1, reliable, coalesced 256 B puts in credit windows of 64: coalescer, ack/retry, wire encode and writer-queue batching set the message rate",
    },
    Workload {
        name: "net-stream-large",
        why: "netfab 2 procs x 2 NICs, unreliable 256 KiB puts striped over both sockets, windows of 8: per-byte cost (snapshot copy, frame assembly, partial writes)",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these, and none is ever 0.
///
/// Clock rule: `host_*`, `setup_s` and `peak_rss_mb` are always wall
/// clock / host resources. `lat_*` is the time of one operation on the
/// clock the fabric's user sees — *simulated* time on the `sim-*`
/// workloads (exactly repeatable for a seed; a host-only optimisation
/// must leave it bit-identical) and wall clock on the `net-*` ones.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "host_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.24,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "lat_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.24,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics (layer = module), printed by the traced run. A
/// workload that does not drive a layer reports 0 for that layer's
/// workload-derived metrics; the single-threaded layer probes
/// (`*_ns` of a public function on workload-sized input) run in every
/// traced run. See `README.md` for what each should move.
pub const PER_LAYER: [Layer; 72] = [
    // unr.engine — spans on sim-storm, counters on every sim workload.
    lower("unr.engine.put_post_ns_p50", "ns"),
    lower("unr.engine.put_post_ns_p99", "ns"),
    lower("unr.engine.sig_wait_ns_p50", "ns"),
    lower("unr.engine.sig_reset_ns_p50", "ns"),
    higher("unr.engine.rma_ops_per_s", "1/s"),
    lower("unr.engine.reliable_cost_ratio", "ratio"),
    lower("unr.engine.stripe_fanout", "count"),
    lower("unr.engine.sim_put_latency_ns_8B", "ns"),
    lower("unr.engine.sim_put_latency_ns_128K", "ns"),
    // unr.signal
    lower("unr.signal.apply_ns", "ns"),
    lower("unr.signal.alloc_release_ns", "ns"),
    lower("unr.signal.stale_rejects", "count"),
    // unr.retry
    lower("unr.retry.retransmits", "count"),
    lower("unr.retry.dup_suppressed", "count"),
    lower("unr.retry.inflight_max", "count"),
    // unr.agg
    lower("unr.agg.push_ns", "ns"),
    higher("unr.agg.puts_per_flush", "count"),
    higher("unr.agg.fold_ratio", "ratio"),
    lower("unr.agg.flush_why.size", "count"),
    lower("unr.agg.flush_why.occupancy", "count"),
    lower("unr.agg.flush_why.wait", "count"),
    lower("unr.agg.flush_why.order", "count"),
    lower("unr.agg.flush_why.explicit", "count"),
    // unr.wire / unr.level
    lower("unr.wire.agg_encode_ns", "ns"),
    lower("unr.wire.agg_parse_ns", "ns"),
    lower("unr.level.encode_decode_ns", "ns"),
    // simnet
    lower("simnet.sched.advance_ns", "ns"),
    lower("simnet.fabric.cq_depth_max", "count"),
    lower("simnet.fabric.cq_dropped", "count"),
    // netfab.engine — spans on the net workloads.
    lower("netfab.engine.put_post_ns_p50", "ns"),
    lower("netfab.engine.put_post_ns_p99", "ns"),
    lower("netfab.engine.sig_wait_ns_p50", "ns"),
    // netfab.frame
    lower("netfab.frame.encode_ns", "ns"),
    lower("netfab.frame.assemble_ns_per_frame", "ns"),
    higher("netfab.frame.assemble_MBps", "MB/s"),
    // netfab.reactor
    lower("netfab.reactor.queue_push_drain_ns", "ns"),
    lower("netfab.reactor.wakeups_per_msg", "ratio"),
    higher("netfab.reactor.frames_per_drain", "count"),
    lower("netfab.reactor.partial_reads", "count"),
    lower("netfab.reactor.backpressure_stalls", "count"),
    lower("netfab.reactor.stalled_rounds", "count"),
    lower("netfab.reactor.stall_share", "ratio"),
    lower("netfab.reactor.lat_p99_us", "us"),
    lower("netfab.reactor.lat_p999_us", "us"),
    // netfab.fabric
    lower("netfab.fabric.wait_timeouts_per_s", "1/s"),
    higher("netfab.fabric.goodput_MBps", "MB/s"),
    // serve
    lower("serve.workload.gen_ns", "ns"),
    lower("serve.store.codec_ns", "ns"),
    lower("serve.cache.lookup_ns", "ns"),
    higher("serve.cache.hit_ratio", "ratio"),
    lower("serve.admission.shed_share", "ratio"),
    lower("serve.replica_acks_per_put", "ratio"),
    lower("serve.sim_p99_us", "us"),
    lower("serve.sim_p999_us", "us"),
    higher("serve.sim_slo_rate", "1/s"),
    higher("serve.sweep_steps", "count"),
    lower("serve.unrepeatable_reps", "count"),
    // powerllel
    lower("powerllel.fft.forward_ns_64", "ns"),
    lower("powerllel.tridiag.thomas_ns", "ns"),
    lower("powerllel.phase.rk_share", "ratio"),
    lower("powerllel.phase.halo_share", "ratio"),
    lower("powerllel.phase.fft_share", "ratio"),
    lower("powerllel.phase.transpose_share", "ratio"),
    lower("powerllel.phase.pdd_share", "ratio"),
    // obs
    lower("obs.histogram.record_ns", "ns"),
    // The harness's own tracing.
    lower("trace.overhead_pct", "%"),
    lower("trace.unattributed_ns", "ns"),
    lower("trace.attributed_ns", "ns"),
    higher("trace.closure_pct", "%"),
    higher("trace.spans", "count"),
    // The untraced end-to-end medians of the same traced run, so a
    // layer number can be read against the figure it should move.
    higher("e2e.host_ops_per_s", "1/s"),
    lower("e2e.lat_p50_us", "us"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use std::collections::BTreeSet;

    /// `[A-Za-z0-9_.-]`, starting with a letter or digit, at most 64 long:
    /// the driver's rule for metric and workload names.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        let Some(first) = chars.next() else {
            return false;
        };
        first.is_ascii_alphanumeric()
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `[A-Za-z0-9_/%.-]`, at most 16 long: the driver's rule for units.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn name_and_unit_charsets() {
        for ok in ["sim-storm", "unr.agg.push_ns", "lat_p50_us", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "-lead",
            ".lead",
            "_lead",
            "has space",
            "slash/",
            "pct%",
            "é",
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "MB/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "µs", "12345678901234567"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_is_well_formed() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    /// `/BENCHMARK.json` is what the acceptance driver reads; it must
    /// say exactly what this catalogue says.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let Some(Value::Arr(paths)) = doc.get("paths") else {
            panic!("paths")
        };
        assert_eq!(paths, &[Value::Str("benchmark".into())]);
        let secs = doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .expect("run_seconds");
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);

        let str_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).expect(k).to_string();
        let Some(Value::Arr(ws)) = doc.get("workloads") else {
            panic!("workloads")
        };
        let got: Vec<(String, String)> = ws
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(got, want);

        let Some(Value::Arr(e2e)) = doc.get("end_to_end") else {
            panic!("end_to_end")
        };
        let got: Vec<(String, String, String, f64)> = e2e
            .iter()
            .map(|m| {
                (
                    str_of(m, "name"),
                    str_of(m, "unit"),
                    str_of(m, "better"),
                    m.get("bound").and_then(Value::as_f64).expect("bound"),
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(got, want);

        let Some(Value::Arr(layers)) = doc.get("per_layer") else {
            panic!("per_layer")
        };
        let got: Vec<(String, String, String)> = layers
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(got, want);
    }
}
