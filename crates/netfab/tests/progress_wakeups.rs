//! The progress thread is idle when idle and punctual when not, in two
//! real two-process worlds.
//!
//! **`idle`** — unreliable, 1 000 rounds of 64 B notified ping-pong.
//! Nothing rides the control path, so the `netfab-progress-r*` thread
//! has nothing to do: it must sleep through every data frame (it used
//! to be woken by each, on the waiter's core, just ahead of the
//! waiter) and through a quiet spell afterwards (it used to poll at
//! 1 ms). And with one poster per socket every frame is written by the
//! thread that posts it, so the reactors' wake channels stay all but
//! silent (they used to carry a byte per frame).
//!
//! **`punctual`** — reliable, every first transmission dropped, one put
//! at a time with nothing else unacked. The thread that sleeps without
//! a deadline while nothing is unacked must still send the retransmit
//! when it is due: a design that naps "long when idle" gets the first
//! half right and this half wrong.
//!
//! Runs without the libtest harness (`harness = false`): the launcher
//! re-executes this binary as the rank processes.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use unr_core::{Backend, Reliability, UnrConfig};
use unr_netfab::{spawn_world, NetFaults, NetUnr, NetWorld};

const ROUNDS: u64 = 1_000;
const MSG: usize = 64;
const QUIET: Duration = Duration::from_millis(100);

/// Retransmit timeout of the `punctual` world: long enough that
/// "within 2 × RTO" leaves room for a scheduler hiccup.
const RTO: Duration = Duration::from_millis(20);
const TRIALS: usize = 10;
/// This sandbox freezes a core for 50–150 ms a few times a minute; a
/// nap-when-idle design is late every time, not twice in ten.
const LATE_TOLERATED: usize = 2;

fn idle_rank(world: Arc<NetWorld>) -> Result<String, String> {
    let me = world.rank();
    let cfg = UnrConfig::builder()
        .backend(Backend::Netfab)
        .reliability(Reliability::Off)
        .build()
        .map_err(|e| format!("config: {e}"))?;
    let unr = NetUnr::init(Arc::clone(&world), cfg, NetFaults::default())
        .map_err(|e| format!("init: {e}"))?;
    let send_mem = unr.mem_reg(MSG);
    let recv_mem = unr.mem_reg(MSG);
    let recv_sig = unr.sig_init(1);
    let mine = recv_mem.blk(0, MSG, Some(&recv_sig));
    let rmt = world
        .exchange_blks(&mine)
        .map_err(|e| format!("blk exchange: {e}"))?[1 - me];
    world.barrier().map_err(|e| format!("barrier: {e}"))?;

    let local = send_mem.blk(0, MSG, None);
    for round in 0..ROUNDS {
        if me == 0 {
            unr.put(&local, &rmt).map_err(|e| format!("round {round} ping: {e}"))?;
        }
        unr.sig_wait(&recv_sig)
            .map_err(|e| format!("round {round}: nothing came: {e}"))?;
        recv_sig.reset().map_err(|e| format!("round {round}: reset: {e}"))?;
        if me == 1 {
            unr.put(&local, &rmt).map_err(|e| format!("round {round} pong: {e}"))?;
        }
    }
    // Both sides are out of `sig_wait` (whose own 1 ms poll counts in
    // the same series): from here only the progress thread could.
    world.barrier().map_err(|e| format!("barrier: {e}"))?;
    let met = unr.met();
    let before = met.wait_timeouts.get();
    std::thread::sleep(QUIET);
    let polled = met.wait_timeouts.get() - before;
    let (frames, wakeups) = (met.tx_frames.get(), unr.fabric().reactor_met.wakeups.get());
    world.barrier().map_err(|e| format!("final barrier: {e}"))?;
    unr.finalize();
    if polled != 0 {
        return Err(format!("progress thread polled {polled} times in a quiet {QUIET:?}"));
    }
    if frames < ROUNDS || wakeups * 20 > frames {
        return Err(format!("{wakeups} reactor wake-ups for {frames} frames posted"));
    }
    Ok(format!("IDLE_OK rank {me}: {frames} frames, {wakeups} reactor wake-ups"))
}

fn punctual_rank(world: Arc<NetWorld>) -> Result<String, String> {
    let me = world.rank();
    let cfg = UnrConfig::builder()
        .backend(Backend::Netfab)
        .reliability(Reliability::On)
        .timeout(RTO.as_nanos() as u64)
        .max_backoff(10 * RTO.as_nanos() as u64)
        .build()
        .map_err(|e| format!("config: {e}"))?;
    let faults = NetFaults { drop_every: Some(1) };
    let unr =
        NetUnr::init(Arc::clone(&world), cfg, faults).map_err(|e| format!("init: {e}"))?;
    let send_mem = unr.mem_reg(MSG);
    let recv_mem = unr.mem_reg(MSG);
    let recv_sig = unr.sig_init(TRIALS as i64);
    let mine = recv_mem.blk(0, MSG, Some(&recv_sig));
    let rmt = world
        .exchange_blks(&mine)
        .map_err(|e| format!("blk exchange: {e}"))?[1 - me];
    world.barrier().map_err(|e| format!("barrier: {e}"))?;

    let mut line = format!("PUNCTUAL_OK rank {me}");
    if me == 0 {
        let met = unr.met();
        let local = send_mem.blk(0, MSG, None);
        let mut took = Vec::with_capacity(TRIALS);
        for trial in 0..TRIALS {
            // Nothing unacked, nothing queued: the thread must be
            // asleep, not polling ...
            let before = met.wait_timeouts.get();
            std::thread::sleep(RTO);
            let polled = met.wait_timeouts.get() - before;
            if polled != 0 {
                return Err(format!("trial {trial}: progress thread polled {polled} times idle"));
            }
            // ... and yet up in time for the one retransmit that can
            // deliver this put (its first transmission is dropped).
            let sent = met.retransmits.get();
            let t0 = Instant::now();
            unr.put(&local, &rmt).map_err(|e| format!("trial {trial} put: {e}"))?;
            while met.retransmits.get() == sent {
                if t0.elapsed() > 50 * RTO {
                    return Err(format!("trial {trial}: no retransmit in {:?}", 50 * RTO));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            let t = t0.elapsed();
            if t < RTO {
                return Err(format!("trial {trial}: retransmit after {t:?}, before the RTO"));
            }
            took.push(t);
            if !unr.drain_pending(Duration::from_secs(10)) || unr.pending_len() != 0 {
                return Err(format!("trial {trial}: {} never acked", unr.pending_len()));
            }
        }
        let late = took.iter().filter(|&&t| t > 2 * RTO).count();
        if late > LATE_TOLERATED {
            return Err(format!("{late} of {TRIALS} retransmits later than {:?}: {took:?}", 2 * RTO));
        }
        if met.drops_injected.get() != TRIALS as u64 {
            return Err(format!("{} drops for {TRIALS} puts", met.drops_injected.get()));
        }
        line += &format!(": retransmits after {took:?}");
    } else {
        unr.sig_wait(&recv_sig)
            .map_err(|e| format!("the {TRIALS} puts never all came: {e}"))?;
    }
    world.barrier().map_err(|e| format!("final barrier: {e}"))?;
    unr.finalize();
    Ok(line)
}

fn main() -> ExitCode {
    if let Some(world) = NetWorld::from_env() {
        let mode = std::env::args().nth(1).unwrap_or_default();
        let run = match mode.as_str() {
            "idle" => idle_rank,
            "punctual" => punctual_rank,
            _ => {
                eprintln!("PROGRESS_FAIL unknown mode {mode:?}");
                return ExitCode::FAILURE;
            }
        };
        return match world
            .map_err(|e| format!("bootstrap: {e}"))
            .and_then(|w| run(Arc::new(w)))
        {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("PROGRESS_FAIL {mode}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    for (mode, ok) in [("idle", "IDLE_OK"), ("punctual", "PUNCTUAL_OK")] {
        let res = spawn_world(2, 1, &[mode.to_string()]).expect("launch the 2-rank world");
        if !(res.success() && res.outputs.iter().all(|o| o.contains(ok))) {
            eprintln!("progress_wakeups {mode} failed: exit codes {:?}", res.statuses);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
