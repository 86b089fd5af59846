//! `unr-launch` — bootstrap a local multi-process netfab world and run
//! the socket storm.
//!
//! ```text
//! unr-launch storm [--ranks N] [--nics K] [--iters I] [--epochs E]
//!                  [--msg BYTES] [--reliable] [--drop-every N]
//!                  [--agg-max BYTES] [--hardware] [--kill-rank R]
//!                  [--kill-epoch E]
//! ```
//!
//! The parent binds a rendezvous listener, spawns `N` copies of itself
//! (rank and rendezvous name passed via `UNR_NETFAB_*` environment
//! variables), serves the listener-name exchange and barrier rounds,
//! and exits non-zero if any rank fails. Children bootstrap the mesh,
//! run the storm, and print one `STORM_OK {...}` JSON line each; the
//! parent aggregates them into a `STORM_AGG {...}` line (total ops,
//! aggregate ops/sec over the slowest rank's wall clock, and the
//! maximum per-process thread count — flat in world size under the
//! reactor).
//!
//! `--kill-rank R` arms the recovery drill: rank `R` `SIGKILL`s itself
//! at the end of storm epoch `--kill-epoch` (default 1), the parent
//! respawns it into a new membership epoch, survivors rejoin, and the
//! storm finishes. The parent then asserts **exact post-rejoin MMAS
//! accounting**: every rank (the respawned incarnation included)
//! reported `STORM_OK`, and the total op count equals the survivors'
//! full runs plus the respawned incarnation's partial one — no op lost,
//! none double-counted. Implies `--reliable`.

use std::process::ExitCode;
use std::sync::Arc;

use unr_netfab::{run_storm, spawn_world_with_recovery, NetWorld, RespawnSpec, StormOpts};

struct Cli {
    ranks: usize,
    nics: usize,
    opts: StormOpts,
}

fn usage() -> ! {
    eprintln!(
        "usage: unr-launch storm [--ranks N] [--nics K] [--iters I] [--epochs E] \
         [--msg BYTES] [--reliable] [--drop-every N] [--agg-max BYTES] \
         [--hardware] [--kill-rank R] [--kill-epoch E]"
    );
    std::process::exit(2);
}

fn parse_cli(args: &[String]) -> Cli {
    if args.first().map(String::as_str) != Some("storm") {
        usage();
    }
    let mut cli = Cli {
        ranks: 4,
        nics: 2,
        opts: StormOpts::default(),
    };
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> u64 {
            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{what} needs a number");
                usage()
            })
        };
        match a.as_str() {
            "--ranks" => cli.ranks = num("--ranks") as usize,
            "--nics" => cli.nics = num("--nics") as usize,
            "--iters" => cli.opts.iters = num("--iters") as usize,
            "--epochs" => cli.opts.epochs = num("--epochs") as usize,
            "--msg" => cli.opts.msg = num("--msg") as usize,
            "--reliable" => cli.opts.reliable = true,
            "--drop-every" => cli.opts.drop_every = Some(num("--drop-every")),
            "--agg-max" => cli.opts.agg_eager_max = num("--agg-max") as usize,
            // Hardware progress: the reading thread's sink is terminal;
            // with --reliable/--agg-max it handles control frames too
            // (DESIGN.md §5g).
            "--hardware" => cli.opts.hardware = true,
            "--kill-rank" => cli.opts.kill_rank = Some(num("--kill-rank") as usize),
            "--kill-epoch" => cli.opts.kill_epoch = num("--kill-epoch") as usize,
            _ => usage(),
        }
    }
    if cli.ranks == 0 || cli.nics == 0 || cli.opts.iters == 0 || cli.opts.epochs == 0 {
        usage();
    }
    if cli.opts.drop_every.is_some() {
        cli.opts.reliable = true; // drops without replay would just lose data
    }
    if let Some(r) = cli.opts.kill_rank {
        // Only the ack/replay transport guarantees the dying rank's
        // final puts were acknowledged before the SIGKILL lands.
        cli.opts.reliable = true;
        if r >= cli.ranks || cli.opts.kill_epoch + 1 >= cli.opts.epochs {
            eprintln!("--kill-rank/--kill-epoch must leave a post-rejoin epoch to run");
            usage();
        }
    }
    cli
}

fn child(world: NetWorld, cli: &Cli) -> ExitCode {
    let world = Arc::new(world);
    match run_storm(world, cli.opts) {
        Ok(o) => {
            println!(
                "STORM_OK {{\"ops\":{},\"wall_ns\":{},\"retransmits\":{},\
                 \"dup_suppressed\":{},\"drops_injected\":{},\"threads\":{}}}",
                o.ops, o.wall_ns, o.retransmits, o.dup_suppressed, o.drops_injected, o.threads
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("STORM_FAIL {e}");
            ExitCode::FAILURE
        }
    }
}

/// Pull an unsigned integer field out of a one-line JSON object without
/// a JSON parser: finds `"key":` and reads the digit run after it.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let digits: String = line[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Aggregate the per-rank `STORM_OK` lines: total ops, aggregate
/// ops/sec over the slowest rank, worst-case thread count.
struct Agg {
    total_ops: u64,
    max_wall_ns: u64,
    max_threads: u64,
    ranks_seen: usize,
}

fn aggregate(outputs: &[String]) -> Agg {
    let mut agg = Agg {
        total_ops: 0,
        max_wall_ns: 0,
        max_threads: 0,
        ranks_seen: 0,
    };
    for out in outputs {
        for line in out.lines() {
            if !line.starts_with("STORM_OK ") {
                continue;
            }
            agg.ranks_seen += 1;
            agg.total_ops += json_u64(line, "ops").unwrap_or(0);
            agg.max_wall_ns = agg.max_wall_ns.max(json_u64(line, "wall_ns").unwrap_or(0));
            agg.max_threads = agg.max_threads.max(json_u64(line, "threads").unwrap_or(0));
        }
    }
    agg
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args);

    if let Some(world) = NetWorld::from_env() {
        match world {
            Ok(w) => return child(w, &cli),
            Err(e) => {
                eprintln!("bootstrap failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    eprintln!(
        "launching {} ranks x {} NICs: {} epochs x {} iters of {} B ({}{}{})",
        cli.ranks,
        cli.nics,
        cli.opts.epochs,
        cli.opts.iters,
        cli.opts.msg,
        if cli.opts.reliable { "reliable" } else { "rma" },
        match cli.opts.drop_every {
            Some(n) => format!(", drop every {n}"),
            None => String::new(),
        },
        match cli.opts.kill_rank {
            Some(r) => format!(", kill rank {r} after epoch {}", cli.opts.kill_epoch),
            None => String::new(),
        }
    );
    let recovery = cli.opts.kill_rank.map(|_| RespawnSpec { max_attempts: 1 });
    let res = match spawn_world_with_recovery(cli.ranks, cli.nics, &args, recovery) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("launch failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let all_ok = res.success() && res.outputs.iter().all(|o| o.contains("STORM_OK"));
    if !all_ok {
        for (rank, status) in res.statuses.iter().enumerate() {
            if *status != 0 {
                eprintln!("rank {rank} exited {status}");
            }
        }
        return ExitCode::FAILURE;
    }

    let agg = aggregate(&res.outputs);
    let ops_per_sec = if agg.max_wall_ns > 0 {
        agg.total_ops as f64 / (agg.max_wall_ns as f64 / 1e9)
    } else {
        0.0
    };
    println!(
        "STORM_AGG {{\"ranks\":{},\"nics\":{},\"total_ops\":{},\"max_wall_ns\":{},\
         \"ops_per_sec\":{:.1},\"threads_max\":{}}}",
        cli.ranks, cli.nics, agg.total_ops, agg.max_wall_ns, ops_per_sec, agg.max_threads
    );
    eprintln!("storm complete: all {} ranks OK", cli.ranks);
    if cli.opts.kill_rank.is_some() {
        // Exact post-rejoin MMAS accounting: survivors ran every epoch,
        // the respawned incarnation ran exactly the post-kill epochs,
        // and all of them passed per-epoch verify + zero-reset. Any
        // lost or double-counted op breaks this sum.
        let survivors = (cli.ranks - 1) as u64 * (cli.opts.iters * cli.opts.epochs) as u64;
        let respawned = (cli.opts.iters * (cli.opts.epochs - cli.opts.kill_epoch - 1)) as u64;
        let expect = survivors + respawned;
        if agg.ranks_seen != cli.ranks || agg.total_ops != expect {
            eprintln!(
                "STORM_HEAL_FAIL ranks_seen={} (want {}), total_ops={} (want {expect})",
                agg.ranks_seen, cli.ranks, agg.total_ops
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "heal accounting exact: {} ops across {} ranks after kill + rejoin",
            agg.total_ops, cli.ranks
        );
    }
    ExitCode::SUCCESS
}
