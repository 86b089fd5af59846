//! The three `net-*` workloads: real processes over the TCP-loopback
//! fabric. All three are one shape — rank 0 posts a window of notified
//! puts, rank 1 waits for the whole window, re-arms its signal and
//! answers with one notified put; rank 0 waits for the answer — and
//! differ only in sizes and transport options:
//!
//! | workload           | NICs | reliable | agg   | put      | window | answer |
//! |--------------------|------|----------|-------|----------|--------|--------|
//! | `net-pingpong`     | 1    | no       | off   | 64 B     | 1      | 64 B   |
//! | `net-stream-small` | 1    | yes      | 512 B | 256 B    | 64     | 8 B    |
//! | `net-stream-large` | 2    | no       | off   | 256 KiB  | 8      | 8 B    |
//!
//! Closed loop: one window in flight. Every slice is a fresh world
//! (two rank processes spawned by `spawn_world`, rank r pinned to core
//! r mod nproc before the mesh comes up) running timed rounds for a
//! fixed wall time. A round longer than [`STALL_NS`] ends the slice and
//! is counted as stalled instead of polluting the rates (see the wake
//! defect in `README.md`); rates use the median round of a slice, so
//! they describe the healthy path, and stalls are reported on their own.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use unr_core::{Backend, Reliability, UnrConfig};
use unr_netfab::{spawn_world, NetFaults, NetMem, NetUnr, NetWorld};
use unr_obs::MetricValue;

use crate::host;
use crate::json::Value;
use crate::outcome::{check_pattern, fill_pattern, Budget, Opts, Outcome, OUT_DIR};
use crate::spans::{self, Recorder, Span};
use crate::stats;

/// A round (window + answer) longer than this is a stall.
pub const STALL_NS: u64 = 50_000_000;
/// Timed wall time of one slice.
const SLICE_MS: u64 = 1_000;
/// Spans a rank hands to the parent per traced slice (the recorder
/// keeps tracing beyond it so the overhead figure stays honest).
const SPAN_CAP: usize = 20_000;

#[derive(Clone, Copy)]
struct Shape {
    name: &'static str,
    nics: usize,
    reliable: bool,
    agg_eager_max: usize,
    msg: usize,
    window: usize,
    answer: usize,
    /// Untimed rounds before the first timed one (part of `setup_s`).
    warm_rounds: u64,
    /// Notified puts that cross the wire one after another in a round:
    /// the round time divided by this is the latency of one operation.
    serial_ops: u64,
    /// Operations counted per round for the rate.
    ops_per_round: u64,
}

const SHAPES: [Shape; 3] = [
    Shape {
        name: "net-pingpong",
        nics: 1,
        reliable: false,
        agg_eager_max: 0,
        msg: 64,
        window: 1,
        answer: 64,
        warm_rounds: 200,
        serial_ops: 2, // ping, then pong: latency is half a round trip
        ops_per_round: 2,
    },
    Shape {
        name: "net-stream-small",
        nics: 1,
        reliable: true,
        agg_eager_max: 512,
        msg: 256,
        window: 64,
        answer: 8,
        warm_rounds: 20,
        serial_ops: 1,
        ops_per_round: 64,
    },
    Shape {
        name: "net-stream-large",
        nics: 2,
        reliable: false,
        agg_eager_max: 0,
        msg: 256 * 1024,
        window: 8,
        answer: 8,
        warm_rounds: 5,
        serial_ops: 1,
        ops_per_round: 8,
    },
];

fn shape(name: &str) -> Option<Shape> {
    SHAPES.iter().copied().find(|s| s.name == name)
}

/// Whether a round of `ns` counts as a stall.
pub fn is_stall(ns: u64) -> bool {
    ns > STALL_NS
}

/// `(ops/s on the healthy path, stalled rounds)` of one slice: the rate
/// comes from the median of the rounds that did not stall.
pub fn slice_rate(rounds_ns: &[u64], ops_per_round: u64) -> (Option<f64>, usize) {
    let healthy: Vec<f64> = rounds_ns
        .iter()
        .filter(|&&ns| !is_stall(ns))
        .map(|&ns| ns as f64)
        .collect();
    let stalled = rounds_ns.len() - healthy.len();
    if healthy.is_empty() {
        return (None, stalled);
    }
    let p50 = stats::median(&healthy);
    (Some(ops_per_round as f64 * 1e9 / p50), stalled)
}

// ---------------------------------------------------------------------
// Rank side
// ---------------------------------------------------------------------

const HEADER_LEN: usize = 8;

/// The header at the start of a window and of an answer: the round
/// number and whether it is the last one.
fn header(round: u64, stop: bool) -> [u8; HEADER_LEN] {
    (round << 1 | stop as u64).to_le_bytes()
}

fn read_header(mem: &NetMem, offset: usize) -> (u64, bool) {
    let mut b = [0u8; HEADER_LEN];
    mem.read_bytes(offset, &mut b);
    let v = u64::from_le_bytes(b);
    (v >> 1, v & 1 == 1)
}

struct RankArgs {
    shape: Shape,
    nproc: usize,
    seed: u64,
    traced: bool,
    t0_unix_ns: u64,
    prefix: String,
}

fn parse_rank_args(args: &[String]) -> Option<RankArgs> {
    match args {
        [tag, name, nproc, seed, traced, t0, prefix] if tag == "net-rank" => Some(RankArgs {
            shape: shape(name)?,
            nproc: nproc.parse().ok().filter(|&n| n > 0)?,
            seed: seed.parse().ok()?,
            traced: traced == "1",
            t0_unix_ns: t0.parse().ok()?,
            prefix: prefix.clone(),
        }),
        _ => None,
    }
}

/// If this process was spawned as a netfab rank, run the rank side and
/// return its exit code; `None` means "this is the launcher".
pub fn maybe_rank_main(args: &[String]) -> Option<ExitCode> {
    let rank: usize = std::env::var(unr_netfab::launch::ENV_RANK)
        .ok()?
        .parse()
        .ok()?;
    let Some(ra) = parse_rank_args(args) else {
        eprintln!("rank {rank}: bad rank arguments {args:?}");
        return Some(ExitCode::from(2));
    };
    // Pin before the mesh comes up: the reactor and progress threads
    // spawned during bootstrap inherit the mask.
    host::pin_to_cores([rank % ra.nproc]);
    let world = match NetWorld::from_env()? {
        Ok(w) => Arc::new(w),
        Err(e) => {
            eprintln!("rank {rank}: bootstrap failed: {e}");
            return Some(ExitCode::from(3));
        }
    };
    let report = match rank_body(&world, &ra) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rank {rank}: {e}");
            return Some(ExitCode::from(4));
        }
    };
    let path = format!("{}.rank{rank}.json", ra.prefix);
    if let Err(e) = std::fs::write(&path, report.render()) {
        eprintln!("rank {rank}: cannot write {path}: {e}");
        return Some(ExitCode::from(5));
    }
    Some(ExitCode::SUCCESS)
}

fn rank_body(world: &Arc<NetWorld>, ra: &RankArgs) -> Result<Value, String> {
    let sh = ra.shape;
    let me = world.rank();
    let peer = 1 - me;
    let cfg = UnrConfig::builder()
        .backend(Backend::Netfab)
        .reliability(if sh.reliable {
            Reliability::On
        } else {
            Reliability::Off
        })
        .agg_eager_max(sh.agg_eager_max)
        .build()
        .map_err(|e| format!("config: {e}"))?;
    let unr = NetUnr::init(Arc::clone(world), cfg, NetFaults::default())
        .map_err(|e| format!("init: {e}"))?;

    // Rank 0 sends windows and receives answers; rank 1 the reverse.
    let window_bytes = sh.window * sh.msg;
    let (send_bytes, recv_bytes) = if me == 0 {
        (window_bytes, sh.answer)
    } else {
        (sh.answer, window_bytes)
    };
    // Two copies of the outgoing data, alternating by round parity, so
    // the receiver can tell the last round's bytes from the one before.
    let send_mem = unr.mem_reg(2 * send_bytes);
    let recv_mem = unr.mem_reg(recv_bytes);
    let recv_events = if me == 0 { 1 } else { sh.window as i64 };
    let recv_sig = unr.sig_init(recv_events);
    let mut buf = vec![0u8; send_bytes];
    for parity in 0..2u64 {
        if me == 0 {
            for slot in 0..sh.window {
                fill_pattern(
                    &mut buf[slot * sh.msg..(slot + 1) * sh.msg],
                    ra.seed,
                    slot as u64,
                    parity,
                );
            }
        } else {
            fill_pattern(&mut buf, ra.seed, u64::MAX, parity);
        }
        send_mem.write_bytes(parity as usize * send_bytes, &buf);
    }
    let mine = recv_mem.blk(0, recv_bytes, Some(&recv_sig));
    let rmt = world
        .exchange_blks(&mine)
        .map_err(|e| format!("blk exchange: {e}"))?[peer];
    world.barrier().map_err(|e| format!("barrier: {e}"))?;

    let mut failures: Vec<String> = Vec::new();
    let mut rounds_ns: Vec<u64> = Vec::new();
    let mut attempted = 0u64;
    let mut inflight_max = 0usize;
    let mut setup_ns = 0u64;
    let mut slice_t0 = Instant::now();
    let mut rec = Recorder::new(ra.traced, 0);
    let mut warm_rec = Recorder::new(false, 0);
    let mut scratch = Vec::new();
    let mut got = vec![0u8; recv_bytes];
    let mut stalled = false;
    let mut round = 0u64;
    loop {
        let timed = round >= sh.warm_rounds;
        let rec = if timed { &mut rec } else { &mut warm_rec };
        let parity = (round & 1) as usize;
        let base = parity * send_bytes;
        if me == 0 {
            if round == sh.warm_rounds {
                setup_ns = host::unix_ns().saturating_sub(ra.t0_unix_ns);
                slice_t0 = Instant::now();
            }
            // The stop round is the shutdown handshake, never timed.
            let stop = timed && (stalled || slice_t0.elapsed() >= Duration::from_millis(SLICE_MS));
            send_mem.write_bytes(base, &header(round, stop));
            let r0 = Instant::now();
            let root = rec.enter("round", round);
            for slot in 0..sh.window {
                let s = rec.enter("put", round);
                let local = send_mem.blk(base + slot * sh.msg, sh.msg, None);
                if let Err(e) = unr.put(&local, &rmt.slice(slot * sh.msg, sh.msg)) {
                    failures.push(format!("round {round} put {slot}: {e}"));
                }
                rec.exit(s);
            }
            attempted += sh.window as u64;
            if ra.traced {
                inflight_max = inflight_max.max(unr.pending_len());
            }
            let s = rec.enter("sig_wait", round);
            unr.sig_wait(&recv_sig)
                .map_err(|e| format!("round {round}: answer never came: {e}"))?;
            rec.exit(s);
            let ns = r0.elapsed().as_nanos() as u64;
            let s = rec.enter("sig_reset", round);
            if let Err(e) = recv_sig.reset() {
                failures.push(format!("round {round}: answer signal reset: {e}"));
            }
            rec.exit(s);
            rec.exit(root);
            if recv_sig.overflowed() {
                failures.push(format!(
                    "round {round}: overflow bit set on the answer signal"
                ));
            }
            // One answer per round, and it is this round's.
            if read_header(&recv_mem, 0) != (round, stop) {
                failures.push(format!(
                    "round {round}: answer header {:?}",
                    read_header(&recv_mem, 0)
                ));
            }
            if stop {
                recv_mem.read_bytes(0, &mut got);
                let answer = (ra.seed, u64::MAX, parity as u64);
                if let Some(at) = check_pattern(&got, &mut scratch, HEADER_LEN, answer) {
                    failures.push(format!("last answer differs at byte {at}"));
                }
                break;
            }
            if timed {
                rounds_ns.push(ns);
                stalled = is_stall(ns);
            }
        } else {
            let root = rec.enter("round", round);
            let s = rec.enter("sig_wait", round);
            unr.sig_wait(&recv_sig)
                .map_err(|e| format!("round {round}: window never came: {e}"))?;
            rec.exit(s);
            let (got_round, stop) = read_header(&recv_mem, 0);
            if got_round != round {
                failures.push(format!(
                    "round {round}: window header says round {got_round}"
                ));
            }
            if recv_sig.overflowed() {
                failures.push(format!(
                    "round {round}: overflow bit set on the window signal"
                ));
            }
            if stop {
                // Every byte of the last round, slot by slot.
                recv_mem.read_bytes(0, &mut got);
                for slot in 0..sh.window {
                    let bytes = &got[slot * sh.msg..(slot + 1) * sh.msg];
                    // Slot 0 starts with the round header, checked above.
                    let skip = if slot == 0 { HEADER_LEN } else { 0 };
                    let want = (ra.seed, slot as u64, parity as u64);
                    if let Some(at) = check_pattern(bytes, &mut scratch, skip, want) {
                        failures.push(format!("last window slot {slot} differs at byte {at}"));
                    }
                }
            }
            let s = rec.enter("sig_reset", round);
            if let Err(e) = recv_sig.reset() {
                failures.push(format!("round {round}: window signal reset: {e}"));
            }
            rec.exit(s);
            send_mem.write_bytes(base, &header(round, stop));
            let s = rec.enter("put", round);
            if let Err(e) = unr.put(&send_mem.blk(base, sh.answer, None), &rmt) {
                failures.push(format!("round {round} answer put: {e}"));
            }
            rec.exit(s);
            rec.exit(root);
            attempted += 1;
            if stop {
                // A coalesced answer normally leaves on the next wait;
                // there is none after the last round.
                unr.flush().map_err(|e| format!("final flush: {e}"))?;
                break;
            }
        }
        round += 1;
    }
    let elapsed_ns = slice_t0.elapsed().as_nanos() as u64;

    if sh.reliable && !(unr.drain_pending(Duration::from_secs(10)) && unr.pending_len() == 0) {
        failures.push(format!(
            "{} reliable sub-messages never acked",
            unr.pending_len()
        ));
    }
    let stale = unr
        .table()
        .stats
        .stale_rejects
        .load(std::sync::atomic::Ordering::Relaxed);
    if stale != 0 {
        failures.push(format!("{stale} stale-key rejects"));
    }

    let mut counters: Vec<(String, Value)> = Vec::new();
    for (name, v) in &unr.fabric().obs.metrics.snapshot().entries {
        match v {
            MetricValue::Counter(c) => counters.push((name.clone(), Value::Num(*c as f64))),
            MetricValue::Histogram { count, sum, .. } => {
                counters.push((format!("{name}.count"), Value::Num(*count as f64)));
                counters.push((format!("{name}.sum"), Value::Num(*sum as f64)));
            }
            MetricValue::Gauge { .. } => {}
        }
    }
    counters.push(("bench.inflight_max".into(), Value::Num(inflight_max as f64)));
    counters.push(("bench.stale_rejects".into(), Value::Num(stale as f64)));
    counters.push(("bench.elapsed_ns".into(), Value::Num(elapsed_ns as f64)));

    // Leave together, so no rank closes the mesh under its peer.
    world.barrier().map_err(|e| format!("final barrier: {e}"))?;
    unr.finalize();

    let all_spans = rec.into_spans();
    if ra.traced {
        let kept = &all_spans[..all_spans.len().min(SPAN_CAP)];
        // Cut at a root boundary so every kept span has its parent.
        let end = kept
            .iter()
            .rposition(|s| s.parent == spans::NO_PARENT)
            .unwrap_or(0);
        let path = format!("{}.rank{me}.spans", ra.prefix);
        std::fs::write(&path, spans::to_lines(&kept[..end])).map_err(|e| format!("{path}: {e}"))?;
    }

    Ok(Value::obj([
        ("rank", Value::Num(me as f64)),
        ("setup_ns", Value::Num(setup_ns as f64)),
        ("peak_rss_mb", Value::Num(host::peak_rss_mb())),
        ("attempted", Value::Num(attempted as f64)),
        ("stalled", Value::Bool(stalled)),
        (
            "rounds_ns",
            Value::Arr(rounds_ns.iter().map(|&n| Value::Num(n as f64)).collect()),
        ),
        (
            "failures",
            Value::Arr(failures.into_iter().map(Value::Str).collect()),
        ),
        ("counters", Value::Obj(counters)),
    ]))
}

// ---------------------------------------------------------------------
// Launcher side
// ---------------------------------------------------------------------

struct Slice {
    rounds_ns: Vec<u64>,
    stalled: bool,
    setup_s: f64,
    wall: Duration,
    peak_rss_mb: f64,
    spans: Vec<Vec<Span>>,
}

fn run_slice(
    sh: Shape,
    opts: Opts,
    nproc: usize,
    rep: usize,
    traced: bool,
    out: &mut Outcome,
    sums: &mut BTreeMap<String, f64>,
) -> Result<Slice, String> {
    let dir = format!("{OUT_DIR}/tmp");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let prefix = format!("{dir}/{}-{}-{rep}", sh.name, std::process::id());
    let t0 = Instant::now();
    let args: Vec<String> = vec![
        "net-rank".into(),
        sh.name.into(),
        nproc.to_string(),
        opts.seed.to_string(),
        (traced as u8).to_string(),
        host::unix_ns().to_string(),
        prefix.clone(),
    ];
    let res = spawn_world(2, sh.nics, &args).map_err(|e| format!("spawn_world: {e}"))?;
    let wall = t0.elapsed();
    if !res.success() {
        return Err(format!("rank exit codes {:?}", res.statuses));
    }
    let mut slice = Slice {
        rounds_ns: Vec::new(),
        stalled: false,
        setup_s: 0.0,
        wall,
        peak_rss_mb: 0.0, // the larger rank process; the launcher is not under test
        spans: Vec::new(),
    };
    for rank in 0..2 {
        let path = format!("{prefix}.rank{rank}.json");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let _ = std::fs::remove_file(&path);
        let rep_json = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let num = |k: &str| rep_json.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        out.attempted += num("attempted") as u64;
        slice.peak_rss_mb = slice.peak_rss_mb.max(num("peak_rss_mb"));
        if let Some(Value::Arr(fails)) = rep_json.get("failures") {
            for f in fails {
                out.fail(
                    1,
                    format!("slice {rep} rank {rank}: {}", f.as_str().unwrap_or("?")),
                );
            }
        }
        for (name, v) in rep_json.get("counters").map_or(&[][..], Value::fields) {
            let v = v.as_f64().unwrap_or(0.0);
            let slot = sums.entry(name.clone()).or_insert(0.0);
            if name == "bench.inflight_max" {
                *slot = slot.max(v);
            } else {
                *slot += v;
            }
        }
        if rank == 0 {
            slice.setup_s = num("setup_ns") / 1e9;
            slice.stalled = rep_json
                .get("stalled")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            if let Some(Value::Arr(r)) = rep_json.get("rounds_ns") {
                slice.rounds_ns = r
                    .iter()
                    .filter_map(Value::as_f64)
                    .map(|n| n as u64)
                    .collect();
            }
        }
        if traced {
            let path = format!("{prefix}.rank{rank}.spans");
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let _ = std::fs::remove_file(&path);
            slice
                .spans
                .push(spans::from_lines(&text).ok_or(format!("{path}: malformed span log"))?);
        }
    }
    Ok(slice)
}

pub fn run(name: &str, opts: Opts, nproc: usize) -> Outcome {
    let sh = shape(name).expect("dispatch only passes catalogue workloads");
    let mut out = Outcome::default();
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    let mut rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut pooled: Vec<u64> = Vec::new();
    let mut slices = 0usize;
    let mut stalled_slices = 0usize;
    let mut stalled_rounds = 0usize;
    let mut last_traced: Option<Vec<Vec<Span>>> = None;
    let mut budget = Budget::new(opts.seconds, opts.trace);
    loop {
        let (rep, traced) = (budget.reps(), budget.traced());
        let wall = match run_slice(sh, opts, nproc, rep, traced, &mut out, &mut sums) {
            Ok(s) => {
                slices += 1;
                stalled_slices += s.stalled as usize;
                let (rate, stalled) = slice_rate(&s.rounds_ns, sh.ops_per_round);
                stalled_rounds += stalled;
                if let Some(rate) = rate {
                    if traced {
                        &mut traced_rates
                    } else {
                        &mut rates
                    }
                    .push(rate);
                }
                if !traced {
                    pooled.extend(
                        s.rounds_ns
                            .iter()
                            .filter(|&&ns| !is_stall(ns))
                            .map(|ns| ns / sh.serial_ops),
                    );
                }
                out.e2e.setup_s.push(s.setup_s);
                out.e2e.peak_rss_mb.push(s.peak_rss_mb);
                if traced {
                    last_traced = Some(s.spans);
                }
                s.wall
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(1, format!("slice {rep}: {e}"));
                Duration::from_millis(SLICE_MS)
            }
        };
        if !budget.again(wall) {
            break;
        }
    }
    let _ = std::fs::remove_dir(format!("{OUT_DIR}/tmp"));

    let pool = stats::Pool::new(pooled);
    out.e2e.lat_p50_us = pool.percentile(0.50) as f64 / 1e3;
    out.e2e.lat_p90_us = pool.percentile(0.90) as f64 / 1e3;
    out.e2e.lat_pool = format!(
        "wall ns per operation (round / {}), healthy rounds of untraced slices: {}",
        sh.serial_ops,
        pool.describe()
    );
    out.e2e.host_ops_per_s = rates;
    out.notes.push(format!(
        "{slices} fresh worlds x {SLICE_MS} ms; round = {} x {} B notified puts + one {} B answer, closed loop, 1 round in flight; \
         {} NIC(s), reliable {}, agg {} B; op = one data put; seed {}",
        sh.window, sh.msg, sh.answer, sh.nics, sh.reliable, sh.agg_eager_max, opts.seed
    ));
    out.notes.push(format!(
        "stalls: {stalled_rounds} rounds over {} ms in {stalled_slices} of {slices} slices (each ends its slice)",
        STALL_NS / 1_000_000
    ));

    if opts.trace {
        layers(
            &mut out,
            sh,
            &sums,
            &pool,
            slices,
            stalled_slices,
            stalled_rounds,
        );
        if let Some(logs) = last_traced {
            let plain = stats::median(&out.e2e.host_ops_per_s);
            let traced = stats::median(&traced_rates);
            let sum = out.report_trace(
                sh.name,
                "one round on rank 0",
                &logs,
                1,
                sh.ops_per_round as f64 / plain * 1e9,
                traced,
            );
            out.set("netfab.engine.put_post_ns_p50", sum.p50("put"));
            out.set("netfab.engine.put_post_ns_p99", sum.p99("put"));
            out.set("netfab.engine.sig_wait_ns_p50", sum.p50("sig_wait"));
        }
    }
    out
}

fn layers(
    out: &mut Outcome,
    sh: Shape,
    sums: &BTreeMap<String, f64>,
    pool: &stats::Pool,
    slices: usize,
    stalled_slices: usize,
    stalled_rounds: usize,
) {
    let c = |name: &str| sums.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.set(
        "netfab.reactor.wakeups_per_msg",
        ratio(
            c("unr.transport.reactor.wakeups"),
            c("unr.transport.tx_frames"),
        ),
    );
    out.set(
        "netfab.reactor.frames_per_drain",
        ratio(
            c("unr.transport.reactor.queue_depth.sum"),
            c("unr.transport.reactor.queue_depth.count"),
        ),
    );
    out.set(
        "netfab.reactor.partial_reads",
        c("unr.transport.reactor.partial_reads"),
    );
    out.set(
        "netfab.reactor.backpressure_stalls",
        c("unr.transport.reactor.backpressure_stalls"),
    );
    out.set("netfab.reactor.stalled_rounds", stalled_rounds as f64);
    out.set(
        "netfab.reactor.stall_share",
        ratio(stalled_slices as f64, slices as f64),
    );
    out.set(
        "netfab.reactor.lat_p99_us",
        pool.percentile(0.99) as f64 / 1e3,
    );
    out.set(
        "netfab.reactor.lat_p999_us",
        pool.percentile(0.999) as f64 / 1e3,
    );
    // Both ranks' bell-poll timeouts over the time both spent in slices.
    out.set(
        "netfab.fabric.wait_timeouts_per_s",
        ratio(
            c("unr.transport.wait_timeouts"),
            c("bench.elapsed_ns") / 1e9,
        ),
    );
    let round_p50_ns = pool.percentile(0.5) as f64 * sh.serial_ops as f64;
    out.set(
        "netfab.fabric.goodput_MBps",
        ratio((sh.window * sh.msg) as f64 / 1e6, round_p50_ns / 1e9),
    );
    out.set("unr.retry.retransmits", c("unr.transport.retransmits"));
    out.set(
        "unr.retry.dup_suppressed",
        c("unr.transport.dup_suppressed"),
    );
    out.set("unr.retry.inflight_max", c("bench.inflight_max"));
    out.set("unr.signal.stale_rejects", c("bench.stale_rejects"));
    let flushes: f64 = ["size", "occupancy", "wait", "plan", "explicit", "order"]
        .iter()
        .map(|w| c(&format!("unr.agg.flush.{w}")))
        .sum();
    out.set(
        "unr.agg.puts_per_flush",
        ratio(c("unr.agg.puts_coalesced"), flushes),
    );
    out.set(
        "unr.agg.fold_ratio",
        ratio(c("unr.agg.puts_coalesced"), c("unr.agg.addends_summed")),
    );
    out.set("unr.agg.flush_why.size", c("unr.agg.flush.size"));
    out.set("unr.agg.flush_why.occupancy", c("unr.agg.flush.occupancy"));
    out.set("unr.agg.flush_why.wait", c("unr.agg.flush.wait"));
    out.set("unr.agg.flush_why.order", c("unr.agg.flush.order"));
    out.set("unr.agg.flush_why.explicit", c("unr.agg.flush.explicit"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_classification() {
        assert!(!is_stall(0));
        assert!(!is_stall(STALL_NS));
        assert!(is_stall(STALL_NS + 1));
        assert!(is_stall(250_000_000)); // the reactor's poll timeout
    }

    #[test]
    fn slice_rate_uses_the_median_healthy_round() {
        // 64 ops per 100 us round; one 250 ms stall must not move it.
        let rounds = [100_000, 90_000, 110_000, 250_000_000, 100_000];
        let (rate, stalled) = slice_rate(&rounds, 64);
        assert_eq!(stalled, 1);
        assert_eq!(rate, Some(640_000.0));
        assert_eq!(slice_rate(&[60_000_000, 70_000_000], 8), (None, 2));
        assert_eq!(slice_rate(&[], 8), (None, 0));
    }

    #[test]
    fn headers_round_trip() {
        assert_eq!(u64::from_le_bytes(header(5, true)), 11);
        assert_eq!(u64::from_le_bytes(header(5, false)), 10);
    }

    #[test]
    fn header_bytes_are_skipped_by_the_payload_check() {
        let mut buf = vec![0u8; 64];
        fill_pattern(&mut buf, 3, 0, 1);
        buf[..8].copy_from_slice(&header(9, true));
        let mut scratch = Vec::new();
        assert_eq!(
            check_pattern(&buf, &mut scratch, HEADER_LEN, (3, 0, 1)),
            None
        );
        assert!(check_pattern(&buf, &mut scratch, 0, (3, 0, 1)).is_some());
        buf[20] ^= 0xff;
        assert_eq!(
            check_pattern(&buf, &mut scratch, HEADER_LEN, (3, 0, 1)),
            Some(20)
        );
    }

    #[test]
    fn every_net_workload_has_a_shape() {
        for w in crate::catalogue::WORKLOADS
            .iter()
            .filter(|w| w.name.starts_with("net-"))
        {
            assert!(shape(w.name).is_some(), "{}", w.name);
        }
        assert!(shape("sim-storm").is_none());
        let args = |name: &str, nproc: &str| -> Vec<String> {
            ["net-rank", name, nproc, "7", "1", "99", "prefix"]
                .iter()
                .map(|s| s.to_string())
                .collect()
        };
        assert!(parse_rank_args(&args("net-pingpong", "2")).is_some());
        assert!(parse_rank_args(&args("nope", "2")).is_none());
        assert!(parse_rank_args(&args("net-pingpong", "0")).is_none());
    }
}
