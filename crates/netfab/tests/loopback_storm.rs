//! Cross-process socket soak: 4 OS processes × 2 NICs each, with and
//! without fault-forced reliable transport.
//!
//! Each case launches the real `unr-launch` binary (so the full
//! bootstrap — rendezvous, name table, mesh, barriers — is exercised,
//! not an in-process shortcut) and asserts every rank reports
//! `STORM_OK`: exact MMAS signal accounting, clean `Sig_Reset` each
//! epoch, zero stale-key rejects. The reliable case forces drops
//! through the retry layer and additionally requires the storm's own
//! invariant that retransmissions actually healed them.
//!
//! Time-bounded: each case gets a hard 120 s kill via `timeout`-style
//! polling, far above the ~1 s the storm takes on an idle machine.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const LAUNCH: &str = env!("CARGO_BIN_EXE_unr-launch");
const DEADLINE: Duration = Duration::from_secs(120);

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

fn run_storm_case(extra: &[&str]) -> String {
    run_storm_case_msg("4096", extra)
}

fn run_storm_case_msg(msg: &str, extra: &[&str]) -> String {
    let mut cmd = Command::new(LAUNCH);
    cmd.args([
        "storm", "--ranks", "4", "--nics", "2", "--iters", "8", "--epochs", "3", "--msg", msg,
    ])
    .args(extra)
    .stdout(Stdio::piped())
    .stderr(Stdio::piped());
    let child = cmd.spawn().expect("spawn unr-launch");
    let out = wait_bounded(child, "storm");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "storm {extra:?} failed ({:?})\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    assert_eq!(
        stdout.matches("STORM_OK").count(),
        4,
        "want STORM_OK from all 4 ranks\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    stdout
}

#[test]
fn four_process_storm_unreliable() {
    let stdout = run_storm_case(&[]);
    // A lossless mesh must not trigger the replay machinery.
    assert!(
        stdout.contains("\"retransmits\":0"),
        "unexpected retransmits on the unreliable path:\n{stdout}"
    );
}

#[test]
fn four_process_storm_small_aggregated_with_forced_drops() {
    // 256 B puts under a 512 B eager-coalescing threshold: every put
    // rides an aggregate MSG_AGG frame with summed addends, and forced
    // first-transmission drops push whole aggregates through the
    // retransmit + dedup path. The storm's byte-exact payload check and
    // exact MMAS accounting then prove aggregated delivery is lossless
    // and exactly-once.
    // Each epoch's 8 puts coalesce into ONE aggregate frame (flushed at
    // sig_wait), so a rank only makes 3 reliable sends; drop every 2nd
    // to guarantee at least one dropped-and-healed aggregate per rank.
    let stdout = run_storm_case_msg(
        "256",
        &["--agg-max", "512", "--reliable", "--drop-every", "2"],
    );
    let healed = stdout
        .lines()
        .filter(|l| l.contains("STORM_OK"))
        .all(|l| !l.contains("\"drops_injected\":0"));
    assert!(healed, "every rank should have injected drops:\n{stdout}");
}

#[test]
fn four_process_storm_reliable_with_forced_drops() {
    let stdout = run_storm_case(&["--reliable", "--drop-every", "7"]);
    // The storm itself asserts drops > 0 and retransmits > 0 per rank;
    // double-check a heal is visible in at least one report here too.
    let healed = stdout
        .lines()
        .filter(|l| l.contains("STORM_OK"))
        .all(|l| !l.contains("\"drops_injected\":0"));
    assert!(healed, "every rank should have injected drops:\n{stdout}");
}
