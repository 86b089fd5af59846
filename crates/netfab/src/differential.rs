//! Cross-backend differential (the ROADMAP item "Prove the lock-free
//! core and the decoders, not just exercise them"): one generic script
//! over `Unr<T>` runs on a 2-rank simnet world and on two in-process
//! `NetFabric`s, and both must end in the same place — region bytes,
//! signal counters, operation counts, wait outcomes. Only the
//! out-of-band exchange comes in as closures; registration, progress,
//! the waits and the clock are the engine's own.

use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use unr_core::{
    Blk, Reliability, Signal, Transport, Unr, UnrConfig, UnrError, UnrMem, BLK_WIRE_LEN,
};
use unr_minimpi::run_mpi_world;
use unr_simnet::FabricConfig;

use crate::fabric::listen;
use crate::{NetFabric, NetFaults, NetUnr, NetWorld};

const NICS: usize = 2;
const AREA: usize = 16 * 1024;
const SMALL_PUTS: usize = 24;
const STRIPED: usize = 8 * 1024;
const GETS: usize = 3;
const AGG_EAGER: usize = 32;
/// Timed waits' bounds, in nanoseconds on either fabric's clock: for
/// what is on its way, and for what never will be.
const LONG_WAIT: u64 = 10_000_000_000;
const SHORT_WAIT: u64 = 2_000_000;

/// What one rank of one fabric hands the script.
struct Side<'a, T: Transport> {
    unr: &'a Unr<T>,
    /// Send bytes to the peer out of band, get the peer's.
    swap: &'a dyn Fn(&[u8]) -> Vec<u8>,
    barrier: &'a dyn Fn(),
}

/// Where one rank ended up.
#[derive(Debug, PartialEq)]
struct Outcome {
    landed: Vec<u8>,
    fetched: Vec<u8>,
    counters: [i64; 4],
    puts: u64,
    gets: u64,
    sub_messages: u64,
    /// `sig_wait_any` over an idle signal and `landed`.
    any: usize,
    /// `sig_wait_timeout` on a signal one event short timed out.
    timed_out: bool,
    /// `unr.signal.reset_errors` after resetting that signal.
    reset_errors: u64,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The bytes rank `rank` exposes and sends.
fn source(seed: u64, rank: usize) -> Vec<u8> {
    let mut s = seed ^ (rank as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0..AREA).map(|_| xorshift(&mut s) as u8).collect()
}

/// `(offset, len)` of one operation inside its area.
type Range = (usize, usize);

/// The range of every put, then of every get, both ranks alike: small
/// puts on both sides of the coalescing limit in their own 64-byte
/// slots, one put big enough to stripe, a few gets.
fn plan(seed: u64) -> (Vec<Range>, Vec<Range>) {
    let mut s = seed | 1;
    let mut puts: Vec<_> = (0..SMALL_PUTS)
        .map(|i| (i * 64, 1 + xorshift(&mut s) as usize % 48))
        .collect();
    puts.push((AREA - STRIPED, STRIPED));
    let gets = (0..GETS)
        .map(|i| (i * 2048, 1 + xorshift(&mut s) as usize % 2048))
        .collect();
    (puts, gets)
}

/// The script. Both ranks run it at once, each against the other.
fn script<T: Transport>(side: Side<'_, T>, seed: u64) -> Outcome {
    let Side { unr, .. } = side;
    let me = unr.rank();
    let (puts, gets) = plan(seed);
    let src = unr.mem_reg(AREA);
    let landing = unr.mem_reg(AREA);
    let fetching = unr.mem_reg(AREA);
    src.write_bytes(0, &source(seed, me));

    let sent = unr.sig_init(puts.len() as i64);
    let landed = unr.sig_init(puts.len() as i64);
    let fetched = unr.sig_init(gets.len() as i64);
    let served = unr.sig_init(gets.len() as i64);
    let mine = [
        unr.blk_init(&landing, 0, AREA, Some(&landed)),
        unr.blk_init(&src, 0, AREA, Some(&served)),
    ];
    let wire: Vec<u8> = mine.iter().flat_map(|b| b.to_bytes()).collect();
    let theirs: Vec<Blk> = (side.swap)(&wire)
        .chunks(BLK_WIRE_LEN)
        .map(|b| Blk::from_bytes(b).expect("a BLK"))
        .collect();
    let (their_landing, their_src) = (theirs[0], theirs[1]);

    for &(off, len) in &puts[..SMALL_PUTS] {
        let local = unr.blk_init(&src, off, len, Some(&sent));
        unr.put(&local, &their_landing.slice(off, len)).unwrap();
    }
    unr.flush().unwrap();
    let (off, len) = puts[SMALL_PUTS];
    let local = unr.blk_init(&src, off, len, Some(&sent));
    unr.put(&local, &their_landing.slice(off, len)).unwrap();
    for &(off, len) in &gets {
        let local = unr.blk_init(&fetching, off, len, Some(&fetched));
        unr.get(&local, &their_src.slice(off, len)).unwrap();
    }
    unr.progress();
    // Every wait of the family: any-of with only the second ready to
    // be, a timed wait that succeeds, plain waits, then a timed wait and
    // a reset on the idle signal, still one event short.
    let idle = unr.sig_init(1);
    let any = unr.sig_wait_any(&[&idle, &landed]).unwrap();
    unr.sig_wait_timeout(&served, LONG_WAIT).unwrap();
    unr.sig_wait(&sent).unwrap();
    unr.sig_wait(&fetched).unwrap();
    let timed_out = matches!(
        unr.sig_wait_timeout(&idle, SHORT_WAIT),
        Err(UnrError::Timeout { waited: SHORT_WAIT })
    );
    assert!(unr.sig_reset(&idle).is_err());
    let t0 = unr.now();
    unr.sleep(SHORT_WAIT);
    assert!(unr.now() - t0 >= SHORT_WAIT, "a sleep lets its time pass");
    (side.barrier)();

    let read = |mem: &UnrMem| {
        let mut out = vec![0; AREA];
        mem.read_bytes(0, &mut out);
        out
    };
    let stats = unr.stats();
    Outcome {
        landed: read(&landing),
        fetched: read(&fetching),
        counters: [&sent, &fetched, &landed, &served].map(Signal::counter),
        puts: stats.puts.load(Ordering::Relaxed),
        gets: stats.gets.load(Ordering::Relaxed),
        sub_messages: stats.sub_messages.load(Ordering::Relaxed),
        any,
        timed_out,
        reset_errors: unr.signal_stats().reset_errors.load(Ordering::Relaxed),
    }
}

fn config(reliable: bool, agg: bool) -> UnrConfig {
    UnrConfig::builder()
        .reliability(if reliable {
            Reliability::On
        } else {
            Reliability::Off
        })
        .stripe_threshold(4096)
        .agg_eager_max(if agg { AGG_EAGER } else { 0 })
        .build()
        .unwrap()
}

fn on_simnet(seed: u64, reliable: bool, agg: bool) -> Vec<Outcome> {
    let mut fabric = FabricConfig::test_default(2);
    fabric.nics_per_node = NICS;
    let cfg = config(reliable, agg);
    run_mpi_world(fabric, move |comm| {
        let unr = Unr::init(comm.ep_shared(), cfg);
        let peer = 1 - comm.rank();
        let out = script(
            Side {
                unr: &unr,
                swap: &|mine| comm.sendrecv(peer, 7, mine, Some(peer), 7).data,
                barrier: &|| unr_minimpi::coll::barrier(comm),
            },
            seed,
        );
        unr.finalize();
        out
    })
}

fn on_netfab(seed: u64, reliable: bool, agg: bool, faults: NetFaults) -> Vec<Outcome> {
    let (listeners, names): (Vec<_>, Vec<_>) = (0..2).map(|_| listen().unwrap()).unzip();
    let cfg = config(reliable, agg);
    let barrier = Barrier::new(2);
    let (to_1, from_0) = mpsc::channel::<Vec<u8>>();
    let (to_0, from_1) = mpsc::channel::<Vec<u8>>();
    let mut links = [Some((to_1, from_1)), Some((to_0, from_0))];
    std::thread::scope(|s| {
        let ranks: Vec<_> = listeners
            .into_iter()
            .zip(&mut links)
            .enumerate()
            .map(|(rank, (mine, link))| {
                let (tx, rx) = link.take().unwrap();
                let (names, barrier) = (&names, &barrier);
                s.spawn(move || {
                    // Rank 0 dials into rank 1's backlog; rank 1 accepts.
                    let fabric = NetFabric::connect(rank, 2, NICS, names, mine).unwrap();
                    let world = Arc::new(NetWorld::without_launcher(fabric));
                    let unr = NetUnr::init(world, cfg, faults).unwrap();
                    let out = script(
                        Side {
                            unr: &unr,
                            swap: &|mine| {
                                tx.send(mine.to_vec()).unwrap();
                                rx.recv().unwrap()
                            },
                            barrier: &|| {
                                barrier.wait();
                            },
                        },
                        seed,
                    );
                    // The engine series are this process's too
                    // (OBSERVABILITY.md, "UNR engine").
                    let snap = unr.obs().metrics.snapshot();
                    for (series, want) in [
                        ("unr.puts", out.puts),
                        ("unr.gets", out.gets),
                        ("unr.sub_messages", out.sub_messages),
                        ("unr.channel.netfab-tcp.msgs", out.puts + out.gets),
                        ("unr.level.3.msgs", out.puts + out.gets),
                        ("unr.signal.reset_errors", out.reset_errors),
                    ] {
                        assert_eq!(snap.counter(series), Some(want), "{series}");
                    }
                    assert!(snap.counter("unr.bytes_put").unwrap() > STRIPED as u64);
                    assert!(snap.counter("unr.signal.adds").unwrap() > 0);
                    assert!(snap.with_prefix("unr.stripe_fanout").next().is_some());
                    if !reliable {
                        // One frame per sub-message, per GET request
                        // and per reply to the peer's (all served: this
                        // rank waited for `served`); acks and resends
                        // are the reliable path's own.
                        let frames = unr.met().tx_frames.get();
                        assert_eq!(frames, out.sub_messages + 2 * out.gets, "frames sent");
                    }
                    // Nobody tears its sockets down under the other's acks.
                    assert!(unr.drain_pending(Duration::from_secs(10)));
                    if faults.any() {
                        // Acked, so every drop has been retransmitted —
                        // by reactor 0's sweep.
                        let met = unr.met();
                        let drops = met.drops_injected.get();
                        assert!(drops > 0, "no first transmission dropped");
                        assert!(met.retransmits.get() >= drops, "a drop never resent");
                    }
                    barrier.wait();
                    unr.finalize();
                    out
                })
            })
            .collect();
        ranks.into_iter().map(|r| r.join().unwrap()).collect()
    })
}

/// Unreliable and reliable, coalescing and not, and reliable with
/// every third first transmission dropped on the sockets: the two
/// fabrics move the same bytes, bring the same signals to zero, count
/// the same puts, gets and sub-messages and end every wait the same
/// way — and the bytes are the peer's. The simulator runs fault-free.
#[test]
fn simnet_and_netfab_run_the_same_script_to_the_same_end() {
    for (seed, reliable, agg, drop_every) in [
        (0x5eed_0001, false, false, None),
        (0x5eed_0002, false, true, None),
        (0x5eed_0003, true, false, None),
        (0x5eed_0004, true, true, None),
        (0x5eed_0005, true, true, Some(3)),
    ] {
        let case =
            format!("seed {seed:#x} reliable={reliable} agg={agg} drop_every={drop_every:?}");
        let sim = on_simnet(seed, reliable, agg);
        let net = on_netfab(seed, reliable, agg, NetFaults { drop_every });
        assert_eq!(sim, net, "{case}");

        let (puts, gets) = plan(seed);
        for (me, out) in net.iter().enumerate() {
            let theirs = source(seed, 1 - me);
            for &(off, len) in &puts {
                assert_eq!(out.landed[off..off + len], theirs[off..off + len], "{case}");
            }
            for &(off, len) in &gets {
                assert_eq!(
                    out.fetched[off..off + len],
                    theirs[off..off + len],
                    "{case}"
                );
            }
            assert_eq!(out.counters, [0; 4], "{case}");
            assert_eq!(
                (out.any, out.timed_out, out.reset_errors),
                (1, true, 1),
                "{case}"
            );
            assert_eq!(
                (out.puts, out.gets),
                (puts.len() as u64, GETS as u64),
                "{case}"
            );
            // Every small put is its own sub-message unless coalesced;
            // the big one is a stripe per NIC either way.
            assert!(out.sub_messages > NICS as u64, "{case}");
            assert_eq!(out.sub_messages < puts.len() as u64, agg, "{case}");
        }
    }
}
