//! The repository's benchmark: six pinned, repeatable workloads over
//! both fabrics, measured end to end (tracing off) and per layer
//! (harness-side spans, the public metrics registry, and single-
//! threaded probes of public functions). See `README.md`.
//!
//! ```text
//! unr-benchmark run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! unr-benchmark trace [--workload W] [--seed N] [--seconds S] [--out FILE]
//! unr-benchmark compare A.json B.json
//! ```
//!
//! All timing is taken here, around calls to public functions of the
//! workspace crates; nothing under `crates/` knows it is being timed.

mod catalogue;
mod compare;
mod host;
mod json;
mod net;
mod outcome;
mod probes;
mod sim_powerllel;
mod sim_serve;
mod sim_storm;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use catalogue::WORKLOADS;
use json::Value;
use outcome::{Opts, Outcome, OUT_DIR};

/// `run_seconds` of `/BENCHMARK.json`, the default when `--seconds` is
/// not given.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage:
  unr-benchmark run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  unr-benchmark trace [--workload W] [--seed N] [--seconds S] [--out FILE]
  unr-benchmark compare A.json B.json
workloads: sim-storm sim-powerllel sim-serve net-pingpong net-stream-small net-stream-large";

struct Cli {
    workload: Option<String>,
    opts: Opts,
    out: Option<String>,
}

fn parse_run(args: &[String], trace_default: bool) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opts: Opts {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: trace_default,
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|k| k.name == w) {
                    return Err(format!("unknown workload '{w}'"));
                }
                cli.workload = Some(w.clone());
            }
            "--seed" => cli.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                cli.opts.seconds = s;
            }
            "--trace" => {
                cli.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
                }
            }
            "--out" => cli.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

fn dispatch(workload: &str, opts: Opts, nproc: usize) -> Outcome {
    if workload.starts_with("sim-") {
        // The simnet scheduler runs one actor thread at a time, so the
        // whole process sits on one core (the last: interrupts tend to
        // land on core 0). Threads spawned from here inherit the mask.
        // (The launcher of a net world only serves barriers; its rank
        // processes pin themselves.)
        host::pin_to_cores([nproc - 1]);
    }
    let mut out = match workload {
        "sim-storm" => sim_storm::run(opts),
        "sim-powerllel" => sim_powerllel::run(opts),
        "sim-serve" => sim_serve::run(opts),
        name => net::run(name, opts, nproc),
    };
    if opts.trace {
        // Single-threaded probes, on one core whatever the workload was.
        host::pin_to_cores([nproc - 1]);
        probes::run(opts.seed, &mut out);
    }
    out
}

/// Write a result-set file (what `compare` reads); false if it failed.
fn write_set(
    path: &str,
    cli: &Cli,
    nproc: usize,
    noisy: bool,
    entries: Vec<(String, Value)>,
) -> bool {
    let set = Value::obj([
        ("schema", Value::Num(1.0)),
        ("seed", Value::Num(cli.opts.seed as f64)),
        ("seconds", Value::Num(cli.opts.seconds)),
        ("trace", Value::Bool(cli.opts.trace)),
        ("nproc", Value::Num(nproc as f64)),
        ("noisy", Value::Bool(noisy)),
        ("workloads", Value::Obj(entries)),
    ]);
    let written = std::path::Path::new(path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, set.render() + "\n"));
    match &written {
        Ok(()) => println!("result set: {path}"),
        Err(e) => eprintln!("error: cannot write {path}: {e}"),
    }
    written.is_ok()
}

/// One workload, in this process.
fn run_one(workload: &str, cli: &Cli) -> ExitCode {
    let nproc = host::nproc();
    let busy = host::background_busy_cores(Duration::from_millis(200));
    let noisy = busy.is_some_and(|b| b > host::NOISY_BUSY_CORES);
    println!(
        "host: nproc {nproc}; pin map: sim workloads -> core {}, net rank r -> core r mod {nproc}; \
         load(1m) {}; background cpu {}{}",
        nproc - 1,
        host::load_average().map_or("?".into(), |l| format!("{l:.2}")),
        busy.map_or("?".into(), |b| format!("{b:.2} cores")),
        if noisy {
            "  ** NOISY: another process is using more than half a core **"
        } else {
            ""
        }
    );
    let out = dispatch(workload, cli.opts, nproc);
    print!("{}", out.render(workload, cli.opts.trace));
    if let Some(path) = &cli.out {
        let entries = vec![(workload.to_string(), out.result_json(cli.opts.trace, true))];
        if !write_set(path, cli, nproc, noisy, entries) {
            return ExitCode::from(2);
        }
    }
    // The acceptance driver reads the last line of stdout.
    println!("{}", out.result_line(cli.opts.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Every workload, each in a fresh process of this executable — so
/// that none inherits the pinning, the heap or the peak-memory
/// watermark of the one before — merged into one result set.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut entries = Vec::new();
    let mut noisy = false;
    let mut all_correct = true;
    for w in &WORKLOADS {
        let part = format!("{OUT_DIR}/part-{}-{}.json", std::process::id(), w.name);
        let status = std::process::Command::new(&exe)
            .args(["run", "--workload", w.name, "--out", &part])
            .args(["--seed", &cli.opts.seed.to_string()])
            .args(["--seconds", &cli.opts.seconds.to_string()])
            .args(["--trace", if cli.opts.trace { "1" } else { "0" }])
            .status();
        all_correct &= status.is_ok_and(|s| s.success());
        let parsed = std::fs::read_to_string(&part)
            .map_err(|e| e.to_string())
            .and_then(|t| Value::parse(&t));
        let _ = std::fs::remove_file(&part);
        match parsed {
            Ok(set) => {
                noisy |= set.get("noisy").and_then(Value::as_bool) == Some(true);
                if let Some(entry) = set.get("workloads").and_then(|ws| ws.get(w.name)) {
                    entries.push((w.name.to_string(), entry.clone()));
                }
            }
            Err(e) => {
                eprintln!("error: {} left no result: {e}", w.name);
                all_correct = false;
            }
        }
    }
    let path = cli.out.clone().unwrap_or_else(|| {
        format!(
            "{OUT_DIR}/results-seed{}-trace{}.json",
            cli.opts.seed, cli.opts.trace as u8
        )
    });
    if !write_set(&path, cli, host::nproc(), noisy, entries) {
        ExitCode::from(2)
    } else if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    match load(a)
        .and_then(|va| Ok((va, load(b)?)))
        .and_then(|(va, vb)| compare::compare(&va, &vb))
    {
        Ok(true) => {
            println!("compare: no end-to-end metric is worse than its bound");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("compare: REGRESSION (see WORSE rows above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A netfab rank? (`spawn_world` re-executes this binary with the
    // bootstrap environment set.)
    if let Some(code) = net::maybe_rank_main(&args) {
        return code;
    }
    match args.first().map(String::as_str) {
        Some(cmd @ ("run" | "trace")) => match parse_run(&args[1..], cmd == "trace") {
            Ok(cli) => match cli.workload.clone() {
                Some(w) => run_one(&w, &cli),
                None => run_all(&cli),
            },
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
