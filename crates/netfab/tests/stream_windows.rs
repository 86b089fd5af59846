//! Two real processes, 2 NICs, unreliable striped puts: rank 0 posts
//! 2 000 windows of 8 × 256 KiB at rank 1, which checks every byte of
//! every window and answers with one 8 B notified put.
//!
//! This is the per-byte path end to end — bulk region copies, the
//! one-pass PUT frame, partial writes (by the posting thread until the
//! socket fills, by the reactor from there), reassembly, deposit — and
//! the regression test for the reactor's lost wake-up: before the
//! `consume_wake` ordering fix a few rounds in every thousand waited
//! for the 250 ms poll timeout — a third of the rounds of this test.
//! So [`ROUND_LIMIT`] is keyed to that timeout, not to how fast a
//! healthy round is (near 8 ms at the tail): ninety-nine rounds in a
//! hundred must finish well inside one poll timeout. A tighter limit
//! also catches the host — the 2-vCPU sandbox this grew up on freezes
//! a core, or both, for 30–150 ms a few times a minute while both are
//! busy (a spinning probe per core sees the gaps with nothing else
//! running; the slow time sits inside single nonblocking `write`
//! calls), sometimes in bursts — and at 50 ms failed three release
//! runs in six on a tree with no lost wake-up in it. Rounds over
//! [`REPORT_OVER`] are still counted in the `STREAM_OK` line, as
//! information. The exact interleaving behind the lost wake-up is
//! forced, without timing, by the reactor's own unit test.
//!
//! Runs without the libtest harness (`harness = false`): the launcher
//! re-executes this binary as the rank processes.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use unr_core::{Backend, Reliability, UnrConfig};
use unr_netfab::reactor::POLL_TIMEOUT_MS;
use unr_netfab::{spawn_world, NetFaults, NetUnr, NetWorld};
use unr_simnet::SimRng;

const ROUNDS: u64 = 2_000;
const WINDOW: usize = 8;
const MSG: usize = 256 * 1024;
/// A lost wake-up costs one poll timeout; nothing healthy comes close.
const ROUND_LIMIT: Duration = Duration::from_millis(POLL_TIMEOUT_MS as u64 * 4 / 5);
const REPORT_OVER: Duration = Duration::from_millis(50);
const SLOW_ROUNDS_TOLERATED: u64 = ROUNDS / 100;
const SEED: u64 = 0x5eed_0014;

/// The window rank 0 sends in rounds of the given parity: a seeded
/// byte stream, so a slot landing at the wrong offset, a torn copy or
/// the previous round's bytes all differ from it.
fn window_pattern(parity: u64) -> Vec<u8> {
    let mut rng = SimRng::seed_from_u64(SEED ^ parity);
    let mut v = vec![0u8; WINDOW * MSG];
    for chunk in v.chunks_exact_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    v
}

fn rank_main(world: NetWorld) -> Result<String, String> {
    let world = Arc::new(world);
    let me = world.rank();
    let cfg = UnrConfig::builder()
        .backend(Backend::Netfab)
        .reliability(Reliability::Off)
        .build()
        .map_err(|e| format!("config: {e}"))?;
    let unr = NetUnr::init(Arc::clone(&world), cfg, NetFaults::default())
        .map_err(|e| format!("init: {e}"))?;

    let patterns = [window_pattern(0), window_pattern(1)];
    let (send_bytes, recv_bytes) = if me == 0 {
        (WINDOW * MSG, 8)
    } else {
        (8, WINDOW * MSG)
    };
    // Both parities of the outgoing data side by side.
    let send_mem = unr.mem_reg(2 * send_bytes);
    let recv_mem = unr.mem_reg(recv_bytes);
    let recv_sig = unr.sig_init(if me == 0 { 1 } else { WINDOW as i64 });
    if me == 0 {
        for (parity, p) in patterns.iter().enumerate() {
            send_mem.write_bytes(parity * send_bytes, p);
        }
    }
    let mine = recv_mem.blk(0, recv_bytes, Some(&recv_sig));
    let rmt = world
        .exchange_blks(&mine)
        .map_err(|e| format!("blk exchange: {e}"))?[1 - me];
    world.barrier().map_err(|e| format!("barrier: {e}"))?;

    let mut got = vec![0u8; recv_bytes];
    let (mut slowest, mut slow_rounds, mut reported) = (Duration::ZERO, 0u64, 0u64);
    for round in 0..ROUNDS {
        let parity = (round & 1) as usize;
        let base = parity * send_bytes;
        if me == 0 {
            let t0 = Instant::now();
            for slot in 0..WINDOW {
                let local = send_mem.blk(base + slot * MSG, MSG, None);
                unr.put(&local, &rmt.slice(slot * MSG, MSG))
                    .map_err(|e| format!("round {round} put {slot}: {e}"))?;
            }
            unr.sig_wait(&recv_sig)
                .map_err(|e| format!("round {round}: answer never came: {e}"))?;
            let took = t0.elapsed();
            slowest = slowest.max(took);
            slow_rounds += u64::from(took > ROUND_LIMIT);
            reported += u64::from(took > REPORT_OVER);
            recv_sig
                .reset()
                .map_err(|e| format!("round {round}: reset: {e}"))?;
            recv_mem.read_bytes(0, &mut got);
            if got != round.to_le_bytes() {
                return Err(format!("round {round}: answer carries {got:?}"));
            }
        } else {
            unr.sig_wait(&recv_sig)
                .map_err(|e| format!("round {round}: window never came: {e}"))?;
            recv_mem.read_bytes(0, &mut got);
            if got != patterns[parity] {
                let at = got.iter().zip(&patterns[parity]).position(|(a, b)| a != b);
                return Err(format!("round {round}: window differs at byte {at:?}"));
            }
            recv_sig
                .reset()
                .map_err(|e| format!("round {round}: reset: {e}"))?;
            send_mem.write_bytes(base, &round.to_le_bytes());
            unr.put(&send_mem.blk(base, 8, None), &rmt)
                .map_err(|e| format!("round {round}: answer put: {e}"))?;
        }
    }
    let bad_dma = unr.met().bad_dma.get();
    // Leave together, so no rank closes the mesh under its peer.
    world.barrier().map_err(|e| format!("final barrier: {e}"))?;
    unr.finalize();
    if bad_dma != 0 {
        return Err(format!("{bad_dma} payloads refused on a clean run"));
    }
    if slow_rounds > SLOW_ROUNDS_TOLERATED {
        return Err(format!(
            "{slow_rounds} of {ROUNDS} rounds over {ROUND_LIMIT:?} (slowest {slowest:?})"
        ));
    }
    Ok(format!(
        "STREAM_OK rank {me}: {ROUNDS} rounds, {reported} over {REPORT_OVER:?}, slowest {slowest:?}"
    ))
}

fn main() -> ExitCode {
    if let Some(world) = NetWorld::from_env() {
        return match world
            .map_err(|e| format!("bootstrap: {e}"))
            .and_then(rank_main)
        {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("STREAM_FAIL {e}");
                ExitCode::FAILURE
            }
        };
    }
    let res = spawn_world(2, 2, &[]).expect("launch the 2-rank world");
    let ok = res.success() && res.outputs.iter().all(|o| o.contains("STREAM_OK"));
    if !ok {
        eprintln!("stream_windows failed: exit codes {:?}", res.statuses);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
