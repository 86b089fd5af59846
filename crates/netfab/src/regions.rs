//! The rank's registered regions, looked up by id with no lock and no
//! clone: every inbound PUT and every post looks one up.
//!
//! Region ids are dense (1, 2, 3, … in registration order) and never
//! taken back, so the map is the segmented layout of
//! `unr_core`'s signal table: segment `s` holds `16 << s` slots behind
//! one [`OnceLock`], published once and never moved, and each slot is a
//! `OnceLock` set once, by the registration that drew its id. A lookup
//! is two acquire loads and hands out a borrow.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use unr_simnet::MemRegion;

/// Segment 0 holds `1 << SEG0_BITS` slots; segment `s` holds
/// `1 << (SEG0_BITS + s)`.
const SEG0_BITS: u32 = 4;
/// Enough segments for every id a `u32` can name.
const NUM_SEGS: usize = 33 - SEG0_BITS as usize;

/// Segment and offset of region id `id` (≥ 1).
fn locate(id: u32) -> (usize, usize) {
    let adj = (id as u64 - 1) + (1 << SEG0_BITS);
    let bit = 63 - adj.leading_zeros();
    ((bit - SEG0_BITS) as usize, (adj - (1u64 << bit)) as usize)
}

/// The region map; see the module doc.
pub(crate) struct Regions {
    segs: [OnceLock<Box<[OnceLock<MemRegion>]>>; NUM_SEGS],
    /// Ids handed out so far; the next one is this plus one.
    issued: AtomicU32,
}

impl Regions {
    pub(crate) fn new() -> Regions {
        Regions {
            segs: std::array::from_fn(|_| OnceLock::new()),
            issued: AtomicU32::new(0),
        }
    }

    /// Register a `len`-byte region of `rank` under the next id.
    pub(crate) fn register(&self, rank: usize, len: usize) -> MemRegion {
        let id = self
            .issued
            .fetch_add(1, Ordering::Relaxed)
            .checked_add(1)
            .expect("region ids exhausted");
        let region = MemRegion::new(rank, id, len);
        let (seg, off) = locate(id);
        let slots = self.segs[seg].get_or_init(|| {
            let len = 1usize << (SEG0_BITS as usize + seg);
            (0..len).map(|_| OnceLock::new()).collect()
        });
        assert!(
            slots[off].set(region.clone()).is_ok(),
            "region id {id} issued twice"
        );
        region
    }

    /// The region registered under `id`, if any.
    pub(crate) fn get(&self, id: u32) -> Option<&MemRegion> {
        if id == 0 {
            return None;
        }
        let (seg, off) = locate(id);
        self.segs[seg].get()?.get(off)?.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_from_one_and_cross_segments() {
        assert_eq!(locate(1), (0, 0));
        assert_eq!(locate(16), (0, 15));
        assert_eq!(locate(17), (1, 0));
        assert_eq!(locate(49), (2, 0));
        assert_eq!(locate(u32::MAX).0, NUM_SEGS - 1);

        let map = Regions::new();
        assert!(map.get(0).is_none() && map.get(1).is_none());
        for id in 1..=100u32 {
            let r = map.register(3, id as usize);
            assert_eq!((r.rkey.rank, r.rkey.id, r.len()), (3, id, id as usize));
        }
        for id in 1..=100u32 {
            let r = map.get(id).expect("registered");
            assert_eq!((r.rkey.id, r.len()), (id, id as usize));
        }
        assert!(map.get(101).is_none() && map.get(u32::MAX).is_none());
    }

    #[test]
    fn concurrent_registrations_each_get_their_own_id() {
        let map = Regions::new();
        let ids: Vec<Vec<u32>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..50).map(|_| map.register(0, 8).rkey.id).collect()))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let mut all: Vec<u32> = ids.concat();
        all.sort_unstable();
        assert_eq!(all, (1..=200).collect::<Vec<u32>>());
        assert!((1..=200).all(|id| map.get(id).is_some_and(|r| r.rkey.id == id)));
    }
}
