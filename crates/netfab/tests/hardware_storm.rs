//! Level-4 hardware progress over real netfab processes
//! (DESIGN.md §5g): the reading thread's sink applies MMAS addends
//! terminally and handles control frames, and reactor 0 runs the
//! retransmit sweep, so every world — software or hardware progress,
//! pure or hybridized with the reliable transport and the coalescer —
//! runs main + reactors per process, and the hybrids still complete
//! under injected drops.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const LAUNCH: &str = env!("CARGO_BIN_EXE_unr-launch");
const DEADLINE: Duration = Duration::from_secs(300);

fn wait_bounded(mut child: Child, what: &str) -> std::process::Output {
    let t0 = Instant::now();
    loop {
        match child.try_wait().expect("try_wait") {
            Some(_) => return child.wait_with_output().expect("collect output"),
            None if t0.elapsed() > DEADLINE => {
                let _ = child.kill();
                let out = child.wait_with_output().expect("collect output");
                panic!(
                    "{what} exceeded {DEADLINE:?}\nstdout:\n{}\nstderr:\n{}",
                    String::from_utf8_lossy(&out.stdout),
                    String::from_utf8_lossy(&out.stderr)
                );
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Launch a 4-rank storm with the given extra flags, assert it passes,
/// and assert that every rank reports main + reactors in its
/// `STORM_OK` line (where `/proc/self/status` can be read).
fn storm_runs_main_and_reactors(extra: &[&str], what: &str) {
    let mut args = vec![
        "storm", "--ranks", "4", "--nics", "2", "--iters", "4", "--epochs", "2", "--msg", "512",
    ];
    args.extend_from_slice(extra);
    let child = Command::new(LAUNCH)
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn unr-launch");
    let out = wait_bounded(child, what);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{what} failed\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let threads: Vec<u64> = stdout
        .lines()
        .filter(|l| l.contains("STORM_OK"))
        .map(|l| {
            let at = l.find("\"threads\":").expect("threads field") + "\"threads\":".len();
            l[at..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse::<u64>()
                .expect("threads value")
        })
        .collect();
    assert_eq!(threads.len(), 4, "{what}: one STORM_OK per rank\n{stdout}");
    if unr_netfab::process_thread_count().is_some() {
        let budget = 1 + unr_netfab::DEFAULT_REACTORS as u64;
        assert!(
            threads.iter().all(|&t| t == budget),
            "{what}: threads {threads:?}, want main + reactors = {budget} each"
        );
    }
}

/// Progress is a function on every config: the software and the pure
/// hardware world, reliable with drops, coalesced — the same reactor
/// pool and no engine thread beside it.
#[test]
fn every_config_runs_main_and_reactors() {
    for (extra, what) in [
        (&[][..], "software storm"),
        (&["--hardware"][..], "pure hardware storm"),
        (
            &["--reliable", "--drop-every", "7"][..],
            "reliable storm with drops",
        ),
        (
            &["--agg-max", "512", "--reliable", "--msg", "256"][..],
            "aggregated storm",
        ),
    ] {
        storm_runs_main_and_reactors(extra, what);
    }
}

/// Level 4 composes with the reliable transport: injected drops are
/// replayed and the storm's per-epoch MMAS verify still passes end to
/// end.
#[test]
fn hardware_reliable_storm_survives_drops() {
    storm_runs_main_and_reactors(
        &["--hardware", "--reliable", "--drop-every", "7"],
        "hardware reliable storm with drops",
    );
}

/// And with the small-message coalescer: sub-MTU puts batch through the
/// ctrl port as MSG_AGG while the sink owns the data path.
#[test]
fn hardware_aggregated_storm_completes() {
    storm_runs_main_and_reactors(
        &[
            "--hardware",
            "--reliable",
            "--agg-max",
            "512",
            "--msg",
            "256",
        ],
        "hardware aggregated storm",
    );
}
