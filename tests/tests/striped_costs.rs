//! What a striped put costs the host, counted: the allocations its
//! block takes (a counting global allocator, which is why this is a
//! binary of its own) and the baton hand-offs a storm of them makes.
//!
//! Both counts are functions of the code, not of the machine: the
//! simulator runs one thread at a time, and which one is a function of
//! the seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use unr_core::{convert, Reliability, Unr, UnrConfig};
use unr_minimpi::{coll, run_mpi_on_fabric, MpiConfig};
use unr_simnet::{Fabric, Platform};

/// An allocation this large or larger holds a put's bytes.
const BIG: usize = 16 << 10;

thread_local! {
    /// Allocations of `BIG` bytes or more made by this thread.
    static BIG_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's big allocations.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the count is a
// thread-local `Cell` with no destructor, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= BIG {
            let _ = BIG_ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MSG: usize = 128 * 1024;

/// A TH-XY world of `nodes` × 2 ranks with 4 NICs per node.
fn fabric(nodes: usize, seed: u64) -> Arc<Fabric> {
    let mut cfg = Platform::th_xy().fabric_config(nodes, 2);
    cfg.nics_per_node = 4;
    cfg.seed = seed;
    Fabric::new(cfg)
}

/// Big allocations made by rank 0's thread inside each of three
/// 128 KiB puts to rank 2 (another node, so the put stripes four
/// ways); the block is rewritten before each.
fn big_allocs_per_put(reliability: Reliability) -> Vec<usize> {
    let ucfg = UnrConfig {
        reliability,
        ..UnrConfig::default()
    };
    let counts = run_mpi_on_fabric(&fabric(2, 1), MpiConfig::default(), move |comm| {
        let unr = Unr::init(comm.ep_shared(), ucfg);
        let mem = unr.mem_reg(MSG);
        let mut counts = Vec::new();
        match comm.rank() {
            0 => {
                let rmt = convert::recv_blk(comm, 2, 0);
                let blk = unr.blk_init(&mem, 0, MSG, None);
                for round in 0..3u8 {
                    mem.write_bytes(0, &vec![round; MSG]);
                    let before = BIG_ALLOCS.with(Cell::get);
                    unr.put(&blk, &rmt).unwrap();
                    counts.push(BIG_ALLOCS.with(Cell::get) - before);
                    comm.recv(Some(2), 1);
                }
                let subs = unr
                    .stats()
                    .sub_messages
                    .load(std::sync::atomic::Ordering::Relaxed);
                assert_eq!(subs, 3 * 4, "every put is four stripes");
            }
            2 => {
                let sig = unr.sig_init(1);
                let blk = unr.blk_init(&mem, 0, MSG, Some(&sig));
                convert::send_blk(comm, 0, 0, &blk);
                for round in 0..3u8 {
                    unr.sig_wait(&sig).unwrap();
                    unr.sig_reset(&sig).unwrap();
                    let mut got = vec![0; MSG];
                    mem.read_bytes(0, &mut got);
                    assert!(got.iter().all(|&b| b == round));
                    comm.send(0, 1, &[]);
                }
            }
            _ => {}
        }
        coll::barrier(comm);
        counts
    });
    counts.into_iter().next().unwrap()
}

/// The DMA engine reads a put's block once, into one buffer its four
/// stripes slice, on either route.
#[test]
fn a_striped_put_allocates_its_block_once() {
    for reliability in [Reliability::Off, Reliability::On] {
        let counts = big_allocs_per_put(reliability);
        assert!(
            counts.iter().all(|&n| n <= 1),
            "{reliability:?}: big allocations per put {counts:?}"
        );
    }
}

/// Puts per rank in a [`storm_batons`] world: a warm-up epoch of 8,
/// then three of 100, as the benchmark's storm.
const EPOCHS: [i64; 4] = [8, 100, 100, 100];

/// One reliable storm world of the benchmark's shape: 4 × 2 ranks, 4
/// NICs, 128 KiB puts at the ring neighbour, a barrier between epochs.
/// Returns the batons notified and the puts made.
fn storm_batons(seed: u64) -> (u64, u64) {
    let fab = fabric(4, seed);
    let ucfg = UnrConfig {
        reliability: Reliability::On,
        ..UnrConfig::default()
    };
    let puts = run_mpi_on_fabric(&fab, MpiConfig::default(), move |comm| {
        let unr = Unr::init(comm.ep_shared(), ucfg);
        let (me, n) = (comm.rank(), comm.size());
        let mem = unr.mem_reg(2 * MSG);
        let sig = unr.sig_init(EPOCHS[0]);
        let recv = unr.blk_init(&mem, MSG, MSG, Some(&sig));
        convert::send_blk(comm, (me + n - 1) % n, 11, &recv);
        let rmt = convert::recv_blk(comm, (me + 1) % n, 11);
        let send = unr.blk_init(&mem, 0, MSG, None);
        for (epoch, &puts) in EPOCHS.iter().enumerate() {
            mem.write_bytes(0, &vec![epoch as u8; MSG]);
            coll::barrier(comm);
            for _ in 0..puts {
                unr.put(&send, &rmt).unwrap();
            }
            unr.sig_wait(&sig).unwrap();
            let next = EPOCHS.get(epoch + 1).copied().unwrap_or(1);
            sig.reset_with(next).unwrap();
            coll::barrier(comm);
        }
        EPOCHS.iter().sum::<i64>() as u64
    });
    (fab.core().batons_notified(), puts.iter().sum())
}

/// Batons a [`storm_batons`] world at seed 1 notifies, give or take
/// one per rank: 1.54 per put. Posting each stripe in a turn of its own
/// made 11 197 (4.54).
const STORM_BATONS: u64 = 3_800;

/// A put's stripes after the first run as its train, in place, and the
/// rank's next call waits behind them without a hand-off of its own.
/// Which thread begins last can move the world's count by one each.
#[test]
fn a_storm_hands_the_baton_on_about_once_per_put() {
    let (notified, puts) = storm_batons(1);
    let per_put = notified as f64 / puts as f64;
    println!("{notified} batons notified for {puts} puts: {per_put:.3} per put");
    assert!(
        notified.abs_diff(STORM_BATONS) <= 8,
        "{notified} notifies, {per_put:.3} per put"
    );
}
