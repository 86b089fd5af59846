//! Layer probes: single-threaded timings of public functions on
//! workload-sized inputs, one per layer that has a cost worth watching
//! in isolation. They run in every traced run, after the workload, so
//! a per-layer figure can be read next to the end-to-end figure it
//! should move (see the table in `README.md`).
//!
//! Each probe reports the median of several batches, every batch long
//! enough (about a millisecond) for the clock not to matter.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use unr_core::wire::{self, CtrlMsg};
use unr_core::{Coalescer, Encoding, Notif, SignalTable};
use unr_netfab::frame::{self, FrameAssembler};
use unr_netfab::FrameQueue;
use unr_powerllel::{thomas_bench_system, tridiag, Fft, C64};
use unr_serve::{decode_record, encode_record, rec_len, ClientGen, ResponseCache, ServeConfig};
use unr_simnet::{run_world, FabricConfig};

use crate::outcome::Outcome;
use crate::stats;

const BATCHES: usize = 7;
const BATCH_NS: u128 = 1_000_000;

/// Median nanoseconds per operation of `f`, which performs `ops`
/// operations per call.
fn ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy allocations
    let t = Instant::now();
    f();
    let one = t.elapsed().as_nanos().max(1);
    let calls = (BATCH_NS / one).clamp(1, 1_000_000) as u64;
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / (calls * ops) as f64
        })
        .collect();
    stats::median(&samples)
}

pub fn run(seed: u64, out: &mut Outcome) {
    // unr.engine: the exact simulated one-way latency of a notified put.
    out.set(
        "unr.engine.sim_put_latency_ns_8B",
        crate::sim_storm::sim_put_latency_ns(seed, 8),
    );
    out.set(
        "unr.engine.sim_put_latency_ns_128K",
        crate::sim_storm::sim_put_latency_ns(seed, 128 * 1024),
    );

    signal(out);
    agg_and_wire(out);
    netfab(out);
    serve(seed, out);
    powerllel(out);

    // simnet.sched: host cost of one virtual-clock hand-off between two
    // actors that keep overtaking each other.
    const ADVANCES: u64 = 20_000;
    let t = Instant::now();
    run_world(FabricConfig::test_default(2), |ep| {
        for _ in 0..ADVANCES {
            ep.advance(100);
        }
    });
    out.set(
        "simnet.sched.advance_ns",
        t.elapsed().as_nanos() as f64 / (2 * ADVANCES) as f64,
    );

    let hist = unr_obs::Histogram::default();
    let mut v = seed | 1;
    out.set(
        "obs.histogram.record_ns",
        ns_per_op(256, || {
            for _ in 0..256 {
                v = v
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                hist.record(black_box(v >> 40));
            }
        }),
    );
}

fn signal(out: &mut Outcome) {
    // 1 024 live signals, as many as a busy rank holds; counts far from
    // zero so no apply ever triggers.
    let table = SignalTable::new(32);
    let live: Vec<_> = (0..1024).map(|_| table.alloc(1 << 30)).collect();
    let keys: Vec<u64> = live.iter().map(|s| s.key().raw()).collect();
    out.set(
        "unr.signal.apply_ns",
        // Down, then back up, so the counts never drift towards zero.
        ns_per_op(2 * keys.len() as u64, || {
            for addend in [-1, 1] {
                for &k in &keys {
                    black_box(table.apply_counted(black_box(k), addend));
                }
            }
        }),
    );
    out.set(
        "unr.signal.alloc_release_ns",
        ns_per_op(64, || {
            for _ in 0..64 {
                drop(black_box(table.alloc(1)));
            }
        }),
    );
}

fn agg_and_wire(out: &mut Outcome) {
    // The net-stream-small traffic: 256 B puts, default flush thresholds.
    let cfg = unr_core::UnrConfig::default();
    let mut coalescer = Coalescer::new(2, cfg.agg_flush_bytes, cfg.agg_flush_puts);
    let payload = [0xA5u8; 256];
    out.set(
        "unr.agg.push_ns",
        ns_per_op(64, || {
            for i in 0..64u64 {
                if coalescer
                    .push(1, 3, i * 256, black_box(&payload), (7, -1), (9, -1))
                    .is_some()
                {
                    black_box(coalescer.drain(1));
                }
            }
        }),
    );

    // A 64-span aggregate of 256 B puts folding onto one signal.
    let spans: Vec<(u32, u64, u32)> = (0..64).map(|i| (3, i * 256, 256)).collect();
    let sigs = [(7u64, -64i64)];
    let packed = vec![0x5Au8; 64 * 256];
    out.set(
        "unr.wire.agg_encode_ns",
        ns_per_op(1, || {
            black_box(wire::agg_msg(11, true, black_box(&spans), &sigs, &packed));
        }),
    );
    let msg = wire::agg_msg(11, true, &spans, &sigs, &packed);
    out.set(
        "unr.wire.agg_parse_ns",
        ns_per_op(1, || {
            if let CtrlMsg::Agg { body, .. } = CtrlMsg::parse(black_box(&msg)) {
                let bytes: usize = body.spans().map(|(_, _, p)| p.len()).sum();
                let addends: i64 = body.sigs().map(|(_, a)| a).sum();
                black_box((bytes, addends));
            }
        }),
    );

    out.set(
        "unr.level.encode_decode_ns",
        ns_per_op(64, || {
            for key in 1..=64u64 {
                let bits = Encoding::Full128
                    .encode(black_box(Notif { key, addend: -1 }))
                    .expect("fits");
                black_box(Encoding::Full128.decode(bits));
            }
        }),
    );
}

fn netfab(out: &mut Outcome) {
    let header = frame::put_header(3, 4096, 0x1234_5678_9abc_def0);
    let small = [0x3Cu8; 256];
    out.set(
        "netfab.frame.encode_ns",
        ns_per_op(1, || {
            black_box(
                frame::encode_frame(frame::FRAME_PUT, &[&header, black_box(&small)])
                    .expect("frame"),
            );
        }),
    );

    // 64 small frames arriving in one read, as a coalescing socket does.
    let one = frame::encode_frame(frame::FRAME_PUT, &[&header, &small]).expect("frame");
    let burst: Vec<u8> = (0..64).flat_map(|_| one.iter().copied()).collect();
    let mut asm = FrameAssembler::new();
    out.set(
        "netfab.frame.assemble_ns_per_frame",
        ns_per_op(64, || {
            let mut frames = 0;
            asm.feed(black_box(&burst), &mut |f| {
                frames += 1;
                black_box(f);
            })
            .expect("well-formed burst");
            assert_eq!(frames, 64);
        }),
    );

    // One 256 KiB body trickling in as 64 KiB reads.
    let big_body = vec![0x77u8; 256 * 1024];
    let big = frame::encode_frame(frame::FRAME_PUT, &[&header, &big_body]).expect("frame");
    let mut asm = FrameAssembler::new();
    let ns_per_frame = ns_per_op(1, || {
        for chunk in big.chunks(64 * 1024) {
            asm.feed(black_box(chunk), &mut |f| {
                black_box(f);
            })
            .expect("well-formed frame");
        }
    });
    out.set(
        "netfab.frame.assemble_MBps",
        big_body.len() as f64 / 1e6 / (ns_per_frame / 1e9),
    );

    let queue = FrameQueue::new();
    let mut drained = VecDeque::new();
    out.set(
        "netfab.reactor.queue_push_drain_ns",
        ns_per_op(64, || {
            for _ in 0..64 {
                queue.push(black_box(one.clone()));
            }
            assert_eq!(queue.drain_into(&mut drained), 64);
            drained.clear();
        }),
    );
}

fn serve(seed: u64, out: &mut Outcome) {
    let cfg = ServeConfig::default();
    let mut gen = ClientGen::new(
        seed,
        cfg.clients,
        cfg.mean_think_ns,
        cfg.keys,
        cfg.zipf_s,
        cfg.read_frac,
    );
    out.set(
        "serve.workload.gen_ns",
        ns_per_op(64, || {
            for _ in 0..64 {
                black_box(gen.next_arrival());
            }
        }),
    );

    let mut rec = vec![0u8; rec_len(cfg.value_len)];
    let mut ver = 1u64;
    out.set(
        "serve.store.codec_ns",
        ns_per_op(16, || {
            for key in 0..16u64 {
                ver += 1;
                encode_record(&mut rec, black_box(key), ver);
                black_box(decode_record(black_box(&rec)));
            }
        }),
    );

    let mut cache = ResponseCache::new(cfg.cache_slots, cfg.cache_max_age_ops);
    for key in (0..cfg.cache_slots as u64).step_by(2) {
        cache.fill(key, 1, 0);
    }
    out.set(
        "serve.cache.lookup_ns",
        ns_per_op(256, || {
            for key in 0..256u64 {
                black_box(cache.lookup(black_box(key * 7), 1));
            }
        }),
    );
}

fn powerllel(out: &mut Outcome) {
    // One x-line of the 64x64x32 grid.
    let fft = Fft::new(64);
    let line: Vec<C64> = (0..64)
        .map(|i| C64::new((i as f64 * 0.37).sin(), 0.0))
        .collect();
    let mut x = line.clone();
    out.set(
        "powerllel.fft.forward_ns_64",
        ns_per_op(1, || {
            x.copy_from_slice(&line);
            fft.forward(black_box(&mut x));
        }),
    );

    // One z-column of a rank's slab (32 / 2 ranks).
    let (a, b, c, d) = thomas_bench_system(16);
    let mut rhs = d.clone();
    out.set(
        "powerllel.tridiag.thomas_ns",
        ns_per_op(1, || {
            rhs.copy_from_slice(&d);
            tridiag::thomas(&a, &b, &c, black_box(&mut rhs));
        }),
    );
}
