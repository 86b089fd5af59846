//! The loopback storm: the netfab correctness + throughput workload.
//!
//! Every rank fires `iters` notified PUTs per epoch at its ring
//! neighbour, each into a distinct slot of the neighbour's receive
//! window, then waits for its own arrivals and verifies:
//!
//! * **exact MMAS accounting** — the receive signal triggers exactly
//!   (counter back to zero, overflow bit clear), every payload byte
//!   matches the sender's deterministic pattern, and `Sig_Reset`
//!   succeeds (a non-zero counter at reset is the paper's
//!   pre-synchronization bug and fails the storm);
//! * **clean teardown** — zero stale-key rejects over the whole run,
//!   and in reliable mode the pending-retransmit table drains empty.
//!
//! With `drop_every` set, the reliable transport is forced to heal
//! injected first-transmission drops; the storm then also asserts the
//! replay path actually fired (drops > 0, retransmits > 0).
//!
//! ## Kill injection (`kill_rank` / `kill_epoch`)
//!
//! With `kill_rank = Some(r)`, rank `r`'s generation-0 incarnation
//! sends itself `SIGKILL` at the end of storm epoch `kill_epoch` —
//! after its verify, reset and retransmit drain, but *before* the
//! barrier, so every byte it owed its neighbour has been acknowledged
//! (kill injection therefore requires reliable mode). The launcher's
//! recovery path ([`crate::launch::spawn_world_with_recovery`])
//! respawns the rank into a new membership epoch; survivors observe
//! [`Gathered::Rejoin`] at the barrier, tear down their engine, rejoin
//! via [`NetWorld::rejoin`], and the whole world — respawned rank
//! included — re-registers, re-exchanges BLKs and finishes the
//! remaining storm epochs. Exact MMAS accounting (verify + zero reset +
//! zero stale rejects) is asserted per epoch on *both* sides of the
//! membership bump.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use unr_core::{Backend, Reliability, UnrConfig};

use crate::engine::NetUnr;
use crate::transport::NetFaults;
use crate::launch::{Gathered, NetWorld};

/// Storm parameters.
#[derive(Debug, Clone, Copy)]
pub struct StormOpts {
    /// Notified PUTs per rank per epoch.
    pub iters: usize,
    /// Epochs (each ends with verify + reset + barrier).
    pub epochs: usize,
    /// Message size in bytes.
    pub msg: usize,
    /// Run the ack/replay reliable transport.
    pub reliable: bool,
    /// Drop every n-th first transmission (forces replay; reliable only).
    pub drop_every: Option<u64>,
    /// Coalesce puts of at most this many bytes into aggregate frames
    /// (0: aggregation off).
    pub agg_eager_max: usize,
    /// Run under [`unr_core::ProgressMode::Hardware`]: the reactor-side
    /// sink is the terminal applier and no control thread is spawned
    /// unless the reliable transport or the coalescer needs one (the
    /// hybrid drainer, DESIGN.md §5g).
    pub hardware: bool,
    /// `SIGKILL` this rank's generation-0 incarnation at the end of
    /// storm epoch [`StormOpts::kill_epoch`] (requires reliable mode
    /// and a recovery-enabled launcher).
    pub kill_rank: Option<usize>,
    /// Which storm epoch's boundary the kill fires at (must leave at
    /// least one epoch to run after the rejoin).
    pub kill_epoch: usize,
}

impl Default for StormOpts {
    fn default() -> Self {
        StormOpts {
            iters: 8,
            epochs: 3,
            msg: 4096,
            reliable: false,
            drop_every: None,
            agg_eager_max: 0,
            hardware: false,
            kill_rank: None,
            kill_epoch: 1,
        }
    }
}

/// Per-rank storm outcome.
#[derive(Debug, Clone, Copy)]
pub struct StormOutcome {
    /// Completed notified PUTs on this rank (this incarnation).
    pub ops: u64,
    /// Wall nanoseconds between the opening and closing barriers.
    pub wall_ns: u64,
    /// Reliable-transport retransmissions performed.
    pub retransmits: u64,
    /// Duplicate deliveries suppressed by the dedup window.
    pub dup_suppressed: u64,
    /// First transmissions dropped by fault injection.
    pub drops_injected: u64,
    /// OS threads in this process at storm end (0 where unreadable).
    /// The reactor keeps this flat in world size — `main + progress +
    /// nreactors` — which the scaling soak test asserts across
    /// 4/16/64-rank worlds.
    pub threads: u64,
}

fn pattern(rank: usize, epoch: usize, iter: usize, i: usize) -> u8 {
    (rank.wrapping_mul(151))
        .wrapping_add(epoch.wrapping_mul(31))
        .wrapping_add(iter.wrapping_mul(7))
        .wrapping_add(i) as u8
}

/// Run the storm on this rank; collective across the world.
///
/// A respawned incarnation (`world.generation() > 0`) resumes at the
/// storm epoch after the one its predecessor was killed at; survivors
/// of a kill stay inside this call across the rejoin, rebuilding their
/// engine per world incarnation.
pub fn run_storm(world: Arc<NetWorld>, opts: StormOpts) -> Result<StormOutcome, String> {
    let mut world = world;
    let me = world.rank();
    let n = world.nranks();
    let err = |e: String| format!("rank {me}: {e}");

    if let Some(k) = opts.kill_rank {
        if k >= n {
            return Err(err(format!("kill_rank {k} out of range for {n} ranks")));
        }
        if !opts.reliable {
            // Only the ack/replay transport guarantees the dying rank's
            // final puts were delivered before the SIGKILL lands.
            return Err(err("kill injection requires reliable mode".into()));
        }
        if opts.kill_epoch + 1 >= opts.epochs {
            return Err(err(format!(
                "kill_epoch {} leaves no epoch to run after the rejoin (epochs {})",
                opts.kill_epoch, opts.epochs
            )));
        }
    }

    let mut builder = UnrConfig::builder()
        .backend(Backend::Netfab)
        .reliability(if opts.reliable {
            Reliability::On
        } else {
            Reliability::Off
        })
        .agg_eager_max(opts.agg_eager_max);
    if opts.hardware {
        builder = builder.progress(unr_core::ProgressMode::Hardware);
    }
    let cfg = builder.build().map_err(|e| err(format!("config: {e}")))?;
    let faults = NetFaults {
        drop_every: if opts.reliable { opts.drop_every } else { None },
    };

    // A respawned incarnation missed epochs 0..=kill_epoch (its
    // predecessor completed them before dying at the barrier).
    let mut start_epoch = if world.generation() > 0 {
        opts.kill_epoch + 1
    } else {
        0
    };

    let t0 = Instant::now();
    let mut buf = vec![0u8; opts.msg];
    let mut ops: u64 = 0;
    let mut retransmits: u64 = 0;
    let mut dup_suppressed: u64 = 0;
    let mut drops_injected: u64 = 0;
    let threads;

    'world: loop {
        let unr =
            NetUnr::init(Arc::clone(&world), cfg, faults).map_err(|e| err(format!("init: {e}")))?;

        let recv_mem = unr.mem_reg(opts.iters * opts.msg);
        let send_mem = unr.mem_reg(opts.msg);
        let recv_sig = unr.sig_init(opts.iters as i64);
        let send_sig = unr.sig_init(opts.iters as i64);

        // One out-of-band handle exchange before the main loop (Code 2);
        // repeated per world incarnation, since regions and signals are
        // re-registered on the post-rejoin fabric.
        let recv_window = recv_mem.blk(0, opts.iters * opts.msg, Some(&recv_sig));
        let blks = world
            .exchange_blks(&recv_window)
            .map_err(|e| err(format!("blk exchange: {e}")))?;
        let dst = (me + 1) % n;
        let src = (me + n - 1) % n;
        let rmt = blks[dst];

        world.barrier().map_err(|e| err(format!("barrier: {e}")))?;

        // Not a `for` over a range: a rejoin mutates `start_epoch` and
        // re-enters `'world`, which a range-based loop would ignore.
        let mut epoch = start_epoch;
        while epoch < opts.epochs {
            for iter in 0..opts.iters {
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = pattern(me, epoch, iter, i);
                }
                send_mem.write_bytes(0, &buf);
                let send_blk = send_mem.blk(0, opts.msg, Some(&send_sig));
                unr.put(&send_blk, &rmt.slice(iter * opts.msg, opts.msg))
                    .map_err(|e| err(format!("put e{epoch} i{iter}: {e}")))?;
            }
            unr.sig_wait(&send_sig)
                .map_err(|e| err(format!("send sig_wait e{epoch}: {e}")))?;
            unr.sig_wait(&recv_sig)
                .map_err(|e| err(format!("recv sig_wait e{epoch}: {e}")))?;

            for iter in 0..opts.iters {
                recv_mem.read_bytes(iter * opts.msg, &mut buf);
                for (i, b) in buf.iter().enumerate() {
                    let want = pattern(src, epoch, iter, i);
                    if *b != want {
                        return Err(err(format!(
                            "payload mismatch e{epoch} i{iter} byte {i}: got {b:#04x}, want {want:#04x}"
                        )));
                    }
                }
            }

            // Exact accounting: both counters must be exactly back at zero.
            send_sig
                .reset()
                .map_err(|e| err(format!("send reset e{epoch}: {e}")))?;
            recv_sig
                .reset()
                .map_err(|e| err(format!("recv reset e{epoch}: {e}")))?;

            if opts.reliable && !unr.drain_pending(Duration::from_secs(20)) {
                return Err(err(format!(
                    "pending retransmits did not drain in e{epoch} ({} left)",
                    unr.pending_len()
                )));
            }
            ops += opts.iters as u64;

            // Kill injection: die at the epoch boundary, fully drained —
            // every put this incarnation made has been acked, so the
            // neighbour's verified state survives the SIGKILL intact.
            if opts.kill_rank == Some(me) && epoch == opts.kill_epoch && world.generation() == 0 {
                // Grace period: acks this rank owes its predecessor are
                // enqueued on reactor writer queues; let them reach the
                // wire so no survivor is left retransmitting at a
                // corpse. (TCP loopback delivers everything already
                // written, even after SIGKILL.)
                std::thread::sleep(Duration::from_millis(200));
                let _ = std::process::Command::new("kill")
                    .arg("-9")
                    .arg(std::process::id().to_string())
                    .status();
                // SIGKILL is not instantaneous; never fall through into
                // the barrier as a live participant.
                std::thread::sleep(Duration::from_secs(10));
                return Err(err("self-kill did not terminate the process".into()));
            }

            match world
                .barrier_or_rejoin()
                .map_err(|e| err(format!("barrier e{epoch}: {e}")))?
            {
                Gathered::Data(_) => {}
                Gathered::Rejoin => {
                    // A rank died this epoch. Fold this incarnation's
                    // transport counters in, tear the engine down, and
                    // re-run the rendezvous into the next membership
                    // epoch.
                    let met = unr.met();
                    retransmits += met.retransmits.get();
                    dup_suppressed += met.dup_suppressed.get();
                    drops_injected += met.drops_injected.get();
                    let stale = unr.table().stats.stale_rejects.load(Ordering::Relaxed);
                    if stale != 0 {
                        return Err(err(format!(
                            "{stale} stale-key rejects before rejoin — accounting leak"
                        )));
                    }
                    unr.finalize();
                    world = Arc::new(
                        world
                            .rejoin()
                            .map_err(|e| err(format!("rejoin after e{epoch}: {e}")))?,
                    );
                    start_epoch = epoch + 1;
                    continue 'world;
                }
            }
            epoch += 1;
        }

        // Natural completion of the remaining epochs: close out the
        // accounting on the final incarnation's engine.
        let stale = unr.table().stats.stale_rejects.load(Ordering::Relaxed);
        if stale != 0 {
            return Err(err(format!("{stale} stale-key rejects — accounting leak")));
        }
        let epoch_stale = unr
            .fabric()
            .obs
            .metrics
            .counter("unr.epoch.stale_rejects")
            .get();
        if epoch_stale != 0 {
            return Err(err(format!(
                "{epoch_stale} stale-epoch rejects — a pre-kill frame crossed the membership fence"
            )));
        }
        let met = unr.met();
        retransmits += met.retransmits.get();
        dup_suppressed += met.dup_suppressed.get();
        drops_injected += met.drops_injected.get();
        // Sampled while the fabric (and its reactors) is still alive.
        threads = crate::reactor::process_thread_count().unwrap_or(0);

        // Final rendezvous before sockets close, so no rank tears down
        // the mesh while a peer still owes it traffic.
        world.barrier().map_err(|e| err(format!("final barrier: {e}")))?;
        unr.finalize();
        break 'world;
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let out = StormOutcome {
        ops,
        wall_ns,
        retransmits,
        dup_suppressed,
        drops_injected,
        threads,
    };
    // The replay-path assertion only holds for a full-length run: a
    // respawned incarnation may see too few sends to hit the cadence.
    if opts.reliable && opts.drop_every.is_some() && world.generation() == 0 {
        if out.drops_injected == 0 {
            return Err(err("fault injection armed but no drops happened".into()));
        }
        if out.retransmits == 0 {
            return Err(err("drops injected but nothing was retransmitted".into()));
        }
    }
    Ok(out)
}
