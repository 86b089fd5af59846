//! Who wakes for what: the retransmit sweep is idle when idle and
//! punctual when not, the thread that waits is the thread that reads,
//! and the reactors read when nobody waits — in four real two-process
//! worlds. There is no progress thread: a process is main + reactors,
//! and reactor 0 runs the sweep.
//!
//! **`idle`** — unreliable, 1 000 rounds of 64 B notified ping-pong.
//! Nothing rides the control path, so the sweep has nothing to watch:
//! nothing may be woken for it by a data frame, and nothing may poll
//! through a quiet spell afterwards. With one poster per socket every
//! frame is written by the thread that posts it, so the reactors' wake
//! channels stay all but silent (they used to carry a byte per frame).
//! And every frame is read by the thread waiting for it — the reactor
//! stands back, nobody rings the event bell while the waiter is parked
//! — so a round has no thread hop left on either side (counted after
//! 100 warm-up rounds: the sockets are the reactor's until the rank has
//! waited once).
//!
//! **`punctual`** — reliable, every first transmission dropped, one put
//! at a time with nothing else unacked. Reactor 0, which polls without
//! a deadline of the sweep's while nothing is unacked, must still send
//! the retransmit when it is due: a design that naps "long when idle"
//! gets the first half right and this half wrong.
//!
//! **`compute`** — rank 1 waits once, so its reactor has yielded the
//! sockets, then leaves the engine alone for 200 ms. Rank 0 puts to it
//! and GETs from it meanwhile: the reactor must have taken the sockets
//! back by looking again, or the put lands and the GET is answered only
//! when rank 1 comes back.
//!
//! **`hybrid`** — the `net-stream-small` shape (reliable, puts
//! coalesced below 512 B, windows of 64 × 256 B) with every seventh
//! first transmission dropped, 200 windows: every aggregate, ack and
//! retransmission is a control frame, handled by whichever thread read
//! it — the waiter inline, else a reactor, with reactor 0 on the
//! retransmit deadlines — and the MMAS accounting must come out exact
//! all the same. Rank 1 also GETs from rank 0 while rank 0
//! sits in `sig_wait`, so the reply is built and written by a waiter.
//!
//! Runs without the libtest harness (`harness = false`): the launcher
//! re-executes this binary as the rank processes.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use unr_core::{Reliability, SigKey, UnrConfig};
use unr_netfab::{spawn_world, NetFaults, NetUnr, NetWorld};

const ROUNDS: u64 = 1_000;
/// Rounds of the `idle` world before its reads are counted.
const WARM_ROUNDS: u64 = 100;
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
    let reactor_met = &unr.fabric().reactor_met;
    let mut read_before = (0, 0);
    for round in 0..WARM_ROUNDS + ROUNDS {
        if round == WARM_ROUNDS {
            read_before = (
                reactor_met.reads_by_waiter.get(),
                reactor_met.reads_by_reactor.get(),
            );
        }
        if me == 0 {
            unr.put(&local, &rmt)
                .map_err(|e| format!("round {round} ping: {e}"))?;
        }
        unr.sig_wait(&recv_sig)
            .map_err(|e| format!("round {round}: nothing came: {e}"))?;
        recv_sig
            .reset()
            .map_err(|e| format!("round {round}: reset: {e}"))?;
        if me == 1 {
            unr.put(&local, &rmt)
                .map_err(|e| format!("round {round} pong: {e}"))?;
        }
    }
    // Both sides are out of `sig_wait` (a poll of its that reached the
    // cap would count in the same series): from here nothing may poll.
    world.barrier().map_err(|e| format!("barrier: {e}"))?;
    let met = unr.met();
    let before = met.wait_timeouts.get();
    std::thread::sleep(QUIET);
    let polled = met.wait_timeouts.get() - before;
    let (frames, wakeups) = (met.tx_frames.get(), reactor_met.wakeups.get());
    let (by_waiter, by_reactor) = (
        reactor_met.reads_by_waiter.get() - read_before.0,
        reactor_met.reads_by_reactor.get() - read_before.1,
    );
    world.barrier().map_err(|e| format!("final barrier: {e}"))?;
    unr.finalize();
    if polled != 0 {
        return Err(format!("{polled} polls ran out in a quiet {QUIET:?}"));
    }
    // Wake bytes on any channel: a reactor's (a post that could not
    // finish on its own thread) or the event bell's (a ring that found
    // the waiter parked — nobody rings in a ping-pong, except a reactor
    // that began reading a frame just before the wait for it began).
    if frames < ROUNDS || wakeups * 100 > frames {
        return Err(format!("{wakeups} wake bytes for {frames} frames posted"));
    }
    // One frame per round comes in, and the thread waiting for it reads
    // it — once it has waited. Until a rank's first park its reactor
    // owns the sockets, and with a core to itself it can keep beating
    // the rank thread to each frame for a few dozen rounds (the signal
    // has fired by the time the rank looks, so it never parks): those
    // are the warm-up's.
    if by_waiter * 100 < ROUNDS * 95 {
        return Err(format!(
            "{by_waiter} of {ROUNDS} inbound frames read by the waiter, {by_reactor} by a reactor"
        ));
    }
    Ok(format!(
        "IDLE_OK rank {me}: {frames} frames, {wakeups} wake bytes, \
         {by_waiter} read by the waiter, {by_reactor} by a reactor"
    ))
}

fn punctual_rank(world: Arc<NetWorld>) -> Result<String, String> {
    let me = world.rank();
    let cfg = UnrConfig::builder()
        .reliability(Reliability::On)
        .timeout(RTO.as_nanos() as u64)
        .max_backoff(10 * RTO.as_nanos() as u64)
        .build()
        .map_err(|e| format!("config: {e}"))?;
    let faults = NetFaults {
        drop_every: Some(1),
    };
    let unr = NetUnr::init(Arc::clone(&world), cfg, faults).map_err(|e| format!("init: {e}"))?;
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
            // Nothing unacked, nothing queued: nothing may poll ...
            let before = met.wait_timeouts.get();
            std::thread::sleep(RTO);
            let polled = met.wait_timeouts.get() - before;
            if polled != 0 {
                return Err(format!("trial {trial}: {polled} polls ran out idle"));
            }
            // ... and yet up in time for the one retransmit that can
            // deliver this put (its first transmission is dropped).
            let sent = met.retransmits.get();
            let t0 = Instant::now();
            unr.put(&local, &rmt)
                .map_err(|e| format!("trial {trial} put: {e}"))?;
            while met.retransmits.get() == sent {
                if t0.elapsed() > 50 * RTO {
                    return Err(format!("trial {trial}: no retransmit in {:?}", 50 * RTO));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            let t = t0.elapsed();
            if t < RTO {
                return Err(format!(
                    "trial {trial}: retransmit after {t:?}, before the RTO"
                ));
            }
            took.push(t);
            if !unr.drain_pending(Duration::from_secs(10)) || unr.pending_len() != 0 {
                return Err(format!("trial {trial}: {} never acked", unr.pending_len()));
            }
        }
        let late = took.iter().filter(|&&t| t > 2 * RTO).count();
        if late > LATE_TOLERATED {
            return Err(format!(
                "{late} of {TRIALS} retransmits later than {:?}: {took:?}",
                2 * RTO
            ));
        }
        if met.drops_injected.get() != TRIALS as u64 {
            return Err(format!(
                "{} drops for {TRIALS} puts",
                met.drops_injected.get()
            ));
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

/// How long rank 1 stays out of the engine in the `compute` world.
const COMPUTE: Duration = Duration::from_millis(200);
/// What the GET rank 0 makes meanwhile may take. The reactor looks
/// again after 1 ms; 50 ms is the sandbox's frozen-core allowance.
const GET_LIMIT: Duration = Duration::from_millis(50);

fn compute_rank(world: Arc<NetWorld>) -> Result<String, String> {
    let me = world.rank();
    let cfg = UnrConfig::builder()
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

    // One round of ping-pong: both ranks have waited, so both ranks'
    // reactors have given up the sockets.
    send_mem.write_bytes(0, &[0x11; MSG]);
    let local = send_mem.blk(0, MSG, None);
    if me == 0 {
        unr.put(&local, &rmt).map_err(|e| format!("ping: {e}"))?;
    }
    unr.sig_wait(&recv_sig)
        .map_err(|e| format!("warm-up: {e}"))?;
    recv_sig
        .reset()
        .map_err(|e| format!("warm-up reset: {e}"))?;
    if me == 1 {
        unr.put(&local, &rmt).map_err(|e| format!("pong: {e}"))?;
    }

    let line = if me == 1 {
        // "Compute": no wait, no post, nothing that enters the engine.
        std::thread::sleep(COMPUTE);
        if !recv_sig.test() {
            return Err(format!("a put made {COMPUTE:?} ago has not been applied"));
        }
        let mut got = [0u8; MSG];
        recv_mem.read_bytes(0, &mut got);
        if got != [0xc0; MSG] {
            return Err("the signal fired without its bytes".to_string());
        }
        format!("COMPUTE_OK rank {me}: put applied while away")
    } else {
        // Well inside rank 1's absence.
        std::thread::sleep(COMPUTE / 10);
        send_mem.write_bytes(0, &[0xc0; MSG]);
        unr.put(&local, &rmt).map_err(|e| format!("put: {e}"))?;
        let got_sig = unr.sig_init(1);
        let t0 = Instant::now();
        unr.get_keyed(&mine, &rmt, got_sig.key(), SigKey::NULL)
            .map_err(|e| format!("get: {e}"))?;
        unr.sig_wait(&got_sig)
            .map_err(|e| format!("the GET never came back: {e}"))?;
        let took = t0.elapsed();
        let mut got = [0u8; MSG];
        recv_mem.read_bytes(0, &mut got);
        // Same socket, so the GET read what the put before it wrote.
        if got != [0xc0; MSG] {
            return Err(format!("the GET brought back {:?}", &got[..8]));
        }
        if took > GET_LIMIT {
            return Err(format!("a GET from a rank that is computing took {took:?}"));
        }
        format!("COMPUTE_OK rank {me}: GET served in {took:?}")
    };
    world.barrier().map_err(|e| format!("final barrier: {e}"))?;
    unr.finalize();
    Ok(line)
}

const WINDOWS: u64 = 200;
const WINDOW: usize = 64;
const SMALL: usize = 256;
const GET_BYTES: usize = 4096;

/// Byte `i` of the window rank 0 sends in `round`.
fn window_byte(round: u64, i: usize) -> u8 {
    (round as usize * 131 + i * 7 + i / SMALL) as u8
}

fn hybrid_rank(world: Arc<NetWorld>) -> Result<String, String> {
    let me = world.rank();
    let cfg = UnrConfig::builder()
        .reliability(Reliability::On)
        .agg_eager_max(512)
        .build()
        .map_err(|e| format!("config: {e}"))?;
    let faults = NetFaults {
        drop_every: Some(7),
    };
    let unr = NetUnr::init(Arc::clone(&world), cfg, faults).map_err(|e| format!("init: {e}"))?;
    // Rank 0 sends windows and exposes `GET_BYTES` of pattern for rank
    // 1 to fetch; rank 1 receives windows and answers with 8 bytes.
    let send_mem = unr.mem_reg(WINDOW * SMALL);
    let recv_mem = unr.mem_reg(WINDOW * SMALL);
    let get_mem = unr.mem_reg(GET_BYTES);
    let recv_sig = unr.sig_init(if me == 0 { 1 } else { WINDOW as i64 });
    let get_sig = unr.sig_init(1);
    let pattern: Vec<u8> = (0..GET_BYTES).map(|i| (i * 13 + 5) as u8).collect();
    if me == 0 {
        get_mem.write_bytes(0, &pattern);
    }
    let peer = 1 - me;
    let rmt = world
        .exchange_blks(&recv_mem.blk(0, WINDOW * SMALL, Some(&recv_sig)))
        .map_err(|e| format!("blk exchange: {e}"))?[peer];
    let rmt_get = world
        .exchange_blks(&get_mem.blk(0, GET_BYTES, None))
        .map_err(|e| format!("blk exchange: {e}"))?[peer];
    world.barrier().map_err(|e| format!("barrier: {e}"))?;

    let mut buf = vec![0u8; WINDOW * SMALL];
    for round in 0..WINDOWS {
        if me == 0 {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = window_byte(round, i);
            }
            send_mem.write_bytes(0, &buf);
            for slot in 0..WINDOW {
                let local = send_mem.blk(slot * SMALL, SMALL, None);
                unr.put(&local, &rmt.slice(slot * SMALL, SMALL))
                    .map_err(|e| format!("round {round} put {slot}: {e}"))?;
            }
            // In here this rank reads acks, rank 1's GET request (and
            // answers it) and finally rank 1's answer, all by itself.
            unr.sig_wait(&recv_sig)
                .map_err(|e| format!("round {round}: answer never came: {e}"))?;
            recv_sig
                .reset()
                .map_err(|e| format!("round {round}: reset: {e}"))?;
            let mut got = [0u8; 8];
            recv_mem.read_bytes(0, &mut got);
            if got != round.to_le_bytes() {
                return Err(format!("round {round}: answer carries {got:?}"));
            }
        } else {
            unr.sig_wait(&recv_sig)
                .map_err(|e| format!("round {round}: window never came: {e}"))?;
            recv_mem.read_bytes(0, &mut buf);
            if let Some(at) = (0..buf.len()).find(|&i| buf[i] != window_byte(round, i)) {
                return Err(format!("round {round}: window differs at byte {at}"));
            }
            // Exactly `WINDOW` addends, no more (a duplicate applied
            // twice) and no fewer: the counter is back at zero.
            recv_sig
                .reset()
                .map_err(|e| format!("round {round}: reset: {e}"))?;
            get_mem.write_bytes(0, &[0; GET_BYTES]);
            unr.get_keyed(
                &get_mem.blk(0, GET_BYTES, None),
                &rmt_get,
                get_sig.key(),
                SigKey::NULL,
            )
            .map_err(|e| format!("round {round}: get: {e}"))?;
            unr.sig_wait(&get_sig)
                .map_err(|e| format!("round {round}: GET never came back: {e}"))?;
            get_sig
                .reset()
                .map_err(|e| format!("round {round}: GET reset: {e}"))?;
            let mut got = vec![0u8; GET_BYTES];
            get_mem.read_bytes(0, &mut got);
            if got != pattern {
                return Err(format!("round {round}: GET reply torn"));
            }
            send_mem.write_bytes(0, &round.to_le_bytes());
            unr.put(&send_mem.blk(0, 8, None), &rmt.slice(0, 8))
                .map_err(|e| format!("round {round}: answer put: {e}"))?;
        }
    }
    if !unr.drain_pending(Duration::from_secs(20)) {
        return Err(format!("{} sub-messages never acked", unr.pending_len()));
    }
    // Both ranks are drained: every retransmission has been made. Give
    // the last ones time to be read (by a reactor: nobody waits now).
    world.barrier().map_err(|e| format!("barrier: {e}"))?;
    std::thread::sleep(Duration::from_millis(20));
    let met = unr.met();
    let mine = [
        met.retransmits.get(),
        met.drops_injected.get(),
        met.dup_suppressed.get(),
        met.bad_dma.get(),
    ];
    let bytes: Vec<u8> = mine.iter().flat_map(|v| v.to_le_bytes()).collect();
    let all = world
        .allgather(&bytes)
        .map_err(|e| format!("allgather: {e}"))?;
    let theirs: Vec<u64> = all[peer]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    let by_waiter = unr.fabric().reactor_met.reads_by_waiter.get();
    let stale = unr
        .table()
        .stats
        .stale_rejects
        .load(std::sync::atomic::Ordering::Relaxed);
    world.barrier().map_err(|e| format!("final barrier: {e}"))?;
    unr.finalize();

    let [retransmits, drops, dups, bad_dma] = mine;
    let (their_retransmits, their_drops) = (theirs[0], theirs[1]);
    if stale != 0 || bad_dma != 0 {
        return Err(format!(
            "{stale} stale-key rejects, {bad_dma} refused payloads"
        ));
    }
    if drops == 0 || retransmits < drops {
        return Err(format!(
            "{drops} first transmissions dropped, {retransmits} retransmissions"
        ));
    }
    // Each dropped message is delivered by one retransmission of it;
    // every other retransmission the peer made duplicates something
    // that did arrive, and is suppressed here — nothing else is.
    if dups > their_retransmits.saturating_sub(their_drops) {
        return Err(format!(
            "{dups} duplicates suppressed, but the peer retransmitted {their_retransmits} \
             for {their_drops} drops"
        ));
    }
    if by_waiter < WINDOWS {
        return Err(format!(
            "{by_waiter} reads by the waiter in {WINDOWS} rounds"
        ));
    }
    Ok(format!(
        "HYBRID_OK rank {me}: {drops} drops, {retransmits} retransmissions, \
         {dups} duplicates suppressed, {by_waiter} reads by the waiter"
    ))
}

fn main() -> ExitCode {
    if let Some(world) = NetWorld::from_env() {
        let mode = std::env::args().nth(1).unwrap_or_default();
        let run = match mode.as_str() {
            "idle" => idle_rank,
            "punctual" => punctual_rank,
            "compute" => compute_rank,
            "hybrid" => hybrid_rank,
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
    for (mode, ok) in [
        ("idle", "IDLE_OK"),
        ("punctual", "PUNCTUAL_OK"),
        ("compute", "COMPUTE_OK"),
        ("hybrid", "HYBRID_OK"),
    ] {
        let res = spawn_world(2, 1, &[mode.to_string()]).expect("launch the 2-rank world");
        if !(res.success() && res.outputs.iter().all(|o| o.contains(ok))) {
            eprintln!(
                "progress_wakeups {mode} failed: exit codes {:?}",
                res.statuses
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
