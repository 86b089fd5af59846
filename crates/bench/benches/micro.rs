//! Micro-benchmarks for the pure-CPU building blocks: MMAS signal
//! arithmetic, custom-bits encodings, BLK codec, FFT and tridiagonal
//! kernels. (Fabric-level latency/throughput figures come from the
//! `fig*` binaries, which measure *virtual* time.)
//!
//! Std-only harness (`harness = false`): each case is warmed up, then
//! timed over enough iterations to fill a minimum measurement window,
//! reporting ns/iter. Run with `cargo bench -p unr-bench`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use unr_core::{striped_addends, Blk, Encoding, Notif};
use unr_powerllel::{thomas_bench_system, Fft, C64};

const WARMUP: Duration = Duration::from_millis(50);
const MEASURE: Duration = Duration::from_millis(200);

/// Time `f` and print `group/name: ns/iter` (criterion-style label).
fn bench<R>(group: &str, name: &str, mut f: impl FnMut() -> R) {
    // Warm-up: also discovers a batch size that makes the clock
    // overhead negligible.
    let warm_start = Instant::now();
    let mut iters: u64 = 0;
    while warm_start.elapsed() < WARMUP {
        black_box(f());
        iters += 1;
    }
    let batch = (iters / 10).max(1);
    let mut total = Duration::ZERO;
    let mut done: u64 = 0;
    while total < MEASURE {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        total += t0.elapsed();
        done += batch;
    }
    let ns = total.as_nanos() as f64 / done as f64;
    println!("{group}/{name:<18} {ns:>12.1} ns/iter  ({done} iters)");
}

fn bench_signal_math() {
    bench("mmas", "striped_addends_k8", || {
        striped_addends(black_box(8), black_box(32))
    });
}

fn bench_encodings() {
    let cases = [
        ("full128", Encoding::Full128),
        ("split64", Encoding::Split64),
        ("keyonly8", Encoding::KeyOnly { bits: 8 }),
        (
            "mode2_16_16",
            Encoding::Mode2 {
                bits: 32,
                key_bits: 16,
            },
        ),
    ];
    for (name, e) in cases {
        let n = Notif {
            key: 113,
            addend: -1,
        };
        bench("encoding", &format!("encode_{name}"), || {
            e.encode(black_box(n)).unwrap()
        });
        let wire = e.encode(n).unwrap();
        bench("encoding", &format!("decode_{name}"), || {
            e.decode(black_box(wire))
        });
    }
}

fn bench_blk_codec() {
    let blk = Blk {
        rank: 12,
        region_id: 3,
        region_len: 1 << 20,
        offset: 4096,
        len: 65536,
        sig_key: unr_core::SigKey::from_raw(42),
    };
    bench("blk", "to_bytes", || black_box(blk).to_bytes());
    let wire = blk.to_bytes();
    bench("blk", "from_bytes", || {
        Blk::from_bytes(black_box(&wire)).unwrap()
    });
}

fn bench_fft() {
    for n in [64usize, 256, 1024] {
        let fft = Fft::new(n);
        let src: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        bench("fft", &format!("forward_{n}"), || {
            let mut x = src.clone();
            fft.forward(&mut x);
            x
        });
        bench("fft", &format!("roundtrip_{n}"), || {
            let mut x = src.clone();
            fft.forward(&mut x);
            fft.inverse(&mut x);
            x
        });
    }
}

fn bench_tridiag() {
    for n in [128usize, 1024] {
        let (a, bb, cc, d) = thomas_bench_system(n);
        bench("tridiag", &format!("thomas_{n}"), || {
            let mut x = d.clone();
            unr_powerllel::tridiag::thomas(&a, &bb, &cc, &mut x);
            x
        });
        bench("tridiag", &format!("pdd_4parts_{n}"), || {
            unr_powerllel::tridiag::pdd_reference(&a, &bb, &cc, &d, 4)
        });
    }
}

fn main() {
    bench_signal_math();
    bench_encodings();
    bench_blk_codec();
    bench_fft();
    bench_tridiag();
}
