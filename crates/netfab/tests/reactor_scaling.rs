//! The reactor's two load-bearing claims, asserted end-to-end:
//!
//! 1. **Byte-exact frame reassembly.** The read state machine
//!    ([`FrameAssembler`]) must deliver byte-identical frames no matter
//!    how the kernel slices the stream: a property test feeds a corpus
//!    wire — PUT/ATOMIC/CTRL/GET frames of every interesting size,
//!    including zero-body — split at *every* byte boundary, in fixed
//!    chunk widths, and in pseudo-random coalesced chunks, and requires
//!    the exact frame sequence a blocking `read_frame` loop would see.
//!
//! 2. **Flat thread budget.** The pool is sized at construction, so a
//!    64-process world must report exactly the same per-process OS
//!    thread count as a 4-process world (old design: `2 + 2×(n−1)×nics`
//!    threads — 4 ranks ⇒ 14, 64 ranks ⇒ 254). Each storm child samples
//!    `/proc/self/status` at storm end and reports it in `STORM_OK`;
//!    the soak launches real 4/16/64-rank worlds and compares.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use unr_netfab::frame::{
    atomic_body, encode_frame, put_header, read_frame, Frame, FrameAssembler, FRAME_ATOMIC,
    FRAME_CTRL, FRAME_GET_REQ, FRAME_PUT,
};

// ---------------------------------------------------------------------
// 1. Frame-reassembly property test
// ---------------------------------------------------------------------

/// A corpus of frames covering the layout space: empty bodies, 1-byte
/// bodies, header-only puts, payload puts, and a large-ish frame that
/// will straddle many chunks.
fn corpus() -> Vec<Vec<u8>> {
    let payload: Vec<u8> = (0..257u32).map(|i| (i * 31 % 251) as u8).collect();
    let big: Vec<u8> = (0..4099u32).map(|i| (i * 17 % 253) as u8).collect();
    vec![
        encode_frame(FRAME_CTRL, &[]).unwrap(),
        encode_frame(FRAME_ATOMIC, &[&atomic_body(u128::MAX)]).unwrap(),
        encode_frame(FRAME_CTRL, &[b"x"]).unwrap(),
        encode_frame(FRAME_PUT, &[&put_header(7, 96, 0xabcd)]).unwrap(),
        encode_frame(FRAME_PUT, &[&put_header(1, 0, 1 << 100), &payload]).unwrap(),
        encode_frame(FRAME_GET_REQ, &[&[9u8; 64]]).unwrap(),
        encode_frame(FRAME_PUT, &[&put_header(2, 64, 42), &big]).unwrap(),
        encode_frame(FRAME_CTRL, &[b"tail"]).unwrap(),
    ]
}

/// The reference decode: what a blocking reader sees.
fn reference_frames(wire: &[u8]) -> Vec<Frame> {
    let mut r = wire;
    let mut out = Vec::new();
    while !r.is_empty() {
        out.push(read_frame(&mut r).expect("reference decode"));
    }
    out
}

/// Feed `wire` to a fresh assembler in the given chunks; assert the
/// emitted frames are byte-identical to the blocking reference and the
/// assembler ends on a frame boundary.
fn assert_reassembles(wire: &[u8], chunks: &[&[u8]], want: &[Frame], what: &str) {
    let mut asm = FrameAssembler::new();
    let mut got = Vec::new();
    for c in chunks {
        asm.feed(c, &mut |(kind, body)| {
            got.push(Frame {
                kind,
                body: body.to_vec(),
            })
        })
        .unwrap_or_else(|e| panic!("{what}: feed error {e}"));
    }
    assert_eq!(got.len(), want.len(), "{what}: frame count");
    assert_eq!(got, want, "{what}: frames differ");
    assert!(!asm.mid_frame(), "{what}: assembler not on a boundary");
    assert_eq!(
        wire.len(),
        chunks.iter().map(|c| c.len()).sum::<usize>(),
        "{what}: chunking lost bytes"
    );
}

#[test]
fn reassembly_survives_every_split_point() {
    let wire: Vec<u8> = corpus().concat();
    let want = reference_frames(&wire);
    // Every single two-chunk split: the cut lands mid-prefix, on the
    // kind byte, mid-body, and on every frame boundary at least once.
    for cut in 0..=wire.len() {
        assert_reassembles(
            &wire,
            &[&wire[..cut], &wire[cut..]],
            &want,
            &format!("split at {cut}"),
        );
    }
}

#[test]
fn reassembly_survives_fixed_chunk_widths() {
    let wire: Vec<u8> = corpus().concat();
    let want = reference_frames(&wire);
    // Trickle widths around every alignment hazard: 1 (pure byte-drip),
    // 2, 3, 4 (prefix-sized), 5 (prefix+kind), 7, and a prime that
    // coalesces several small frames per feed.
    for width in [1usize, 2, 3, 4, 5, 7, 193] {
        let chunks: Vec<&[u8]> = wire.chunks(width).collect();
        assert_reassembles(&wire, &chunks, &want, &format!("width {width}"));
    }
}

#[test]
fn reassembly_survives_random_coalesced_chunks() {
    let wire: Vec<u8> = corpus().concat();
    let want = reference_frames(&wire);
    // Deterministic LCG (hermetic: no external rand crate): 200 random
    // chunkings, sizes 1..=517, so feeds both split frames and coalesce
    // several whole frames plus a partial tail.
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for round in 0..200 {
        let mut chunks: Vec<&[u8]> = Vec::new();
        let mut at = 0;
        while at < wire.len() {
            let take = (next() % 517 + 1).min(wire.len() - at);
            chunks.push(&wire[at..at + take]);
            at += take;
        }
        assert_reassembles(&wire, &chunks, &want, &format!("random round {round}"));
    }
}

// ---------------------------------------------------------------------
// 2. Thread-flatness soak across real process worlds
// ---------------------------------------------------------------------

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

/// Launch a `ranks × 2` storm and return every per-rank thread count
/// reported in the `STORM_OK` lines.
fn storm_thread_counts(ranks: usize) -> Vec<u64> {
    let child = Command::new(LAUNCH)
        .args([
            "storm",
            "--ranks",
            &ranks.to_string(),
            "--nics",
            "2",
            "--iters",
            "2",
            "--epochs",
            "1",
            "--msg",
            "512",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn unr-launch");
    let out = wait_bounded(child, &format!("{ranks}-rank storm"));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{ranks}-rank storm failed\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let counts: Vec<u64> = stdout
        .lines()
        .filter(|l| l.contains("STORM_OK"))
        .map(|l| {
            let at = l.find("\"threads\":").expect("threads field") + "\"threads\":".len();
            l[at..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .expect("threads value")
        })
        .collect();
    assert_eq!(counts.len(), ranks, "one STORM_OK per rank\n{stdout}");
    counts
}

#[test]
fn reactor_thread_count_is_flat_from_4_to_64_processes() {
    if unr_netfab::process_thread_count().is_none() {
        eprintln!("skipping: no /proc/self/status on this platform");
        return;
    }
    let mut max_per_world = Vec::new();
    for ranks in [4usize, 16, 64] {
        let counts = storm_thread_counts(ranks);
        let max = *counts.iter().max().expect("nonempty");
        let min = *counts.iter().min().expect("nonempty");
        // Within one world every rank runs the same fixed pool.
        assert_eq!(
            min, max,
            "{ranks}-rank world has divergent thread counts: {counts:?}"
        );
        max_per_world.push(max);
    }
    // The claim: identical across 4, 16 and 64 ranks. The old
    // thread-per-stream design would report 14 / 62 / 254 here.
    assert!(
        max_per_world.windows(2).all(|w| w[0] == w[1]),
        "thread count not flat across worlds: 4/16/64 ranks -> {max_per_world:?}"
    );
    // And small in absolute terms: main + progress + reactor pool.
    assert!(
        max_per_world[0] <= 8,
        "per-process thread count {} is not a small fixed pool",
        max_per_world[0]
    );
}
