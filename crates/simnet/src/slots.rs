//! [`SegSlots`]: the workspace's one lock-free table indexed by a
//! dense id (signal slots, netfab's and simnet's regions).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Enough segments for every `u32` index at `SEG0_BITS` 0; a wider
/// segment 0 leaves those past `32 - SEG0_BITS` empty.
const MAX_SEGS: usize = 33;

/// A table of `T`s, each set once, looked up by index with no lock and
/// handed out by borrow.
///
/// Segment `s` holds `1 << (SEG0_BITS + s)` slots behind one
/// [`OnceLock`], published by the first [`SegSlots::get_or_init`] that
/// lands in it and never moved; each slot is a `OnceLock` of its own.
/// Index `i` lives in segment `floor(log2(i + 2^SEG0_BITS)) - SEG0_BITS`,
/// so segment 0 starts at index 0 and every index up to `u32::MAX` has
/// a slot. The table never frees a value before it drops: a caller
/// that takes an index back reuses its slot (the signal table re-arms
/// it) or marks it dead (simnet's regions), and issues indices its own
/// way.
///
/// ORDERING: both levels are `OnceLock`s. `get_or_init` stores the
/// segment's slice and then the slot's value, each completed with a
/// release store; `get` reads each with an acquire load. So a reader
/// that finds a value sees it fully built, inside a segment it also
/// sees whole. Two `get_or_init`s racing on one segment or one slot
/// both return the single value that won. Nothing moves until the
/// table drops, so a borrow from `get` is good for the table's life.
pub struct SegSlots<T, const SEG0_BITS: u32> {
    segs: [OnceLock<Box<[OnceLock<T>]>>; MAX_SEGS],
    /// Slots held by the published segments.
    capacity: AtomicUsize,
}

impl<T, const SEG0_BITS: u32> Default for SegSlots<T, SEG0_BITS> {
    fn default() -> Self {
        SegSlots::new()
    }
}

impl<T, const SEG0_BITS: u32> SegSlots<T, SEG0_BITS> {
    /// An empty table: no segment published, capacity 0.
    pub fn new() -> Self {
        SegSlots {
            segs: std::array::from_fn(|_| OnceLock::new()),
            capacity: AtomicUsize::new(0),
        }
    }

    /// Segment and offset of index `idx` (at most `u32::MAX`).
    fn locate(idx: u64) -> (usize, usize) {
        let adj = idx + (1 << SEG0_BITS);
        let bit = 63 - adj.leading_zeros();
        ((bit - SEG0_BITS) as usize, (adj - (1u64 << bit)) as usize)
    }

    /// The value at `idx`; `None` past `u32::MAX`, in a segment not
    /// yet published, or in a slot never set. Two acquire loads.
    pub fn get(&self, idx: u64) -> Option<&T> {
        if idx > u32::MAX as u64 {
            return None;
        }
        let (seg, off) = Self::locate(idx);
        self.segs[seg].get()?[off].get()
    }

    /// The value at `idx`, set by `f` if the slot is empty, publishing
    /// its segment on first use.
    pub fn get_or_init(&self, idx: u32, f: impl FnOnce() -> T) -> &T {
        let (seg, off) = Self::locate(idx as u64);
        let slots = self.segs[seg].get_or_init(|| {
            let len = 1usize << (SEG0_BITS as usize + seg);
            self.capacity.fetch_add(len, Ordering::Relaxed);
            (0..len).map(|_| OnceLock::new()).collect()
        });
        slots[off].get_or_init(f)
    }

    /// Slots held by the published segments: the headroom already paid
    /// for, not a limit. One relaxed load.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Narrow = SegSlots<u32, 4>;
    type Wide = SegSlots<u32, 10>;

    #[test]
    fn indices_split_at_every_segment_boundary() {
        for (bits, locate) in [
            (4, Narrow::locate as fn(u64) -> (usize, usize)),
            (10, Wide::locate),
        ] {
            let mut start = 0u64;
            for seg in 0..=(32 - bits) as usize {
                let len = 1u64 << (bits as usize + seg);
                assert_eq!(locate(start), (seg, 0), "first of segment {seg}");
                let last = (start + len - 1).min(u32::MAX as u64);
                assert_eq!(locate(last), (seg, (last - start) as usize));
                start += len;
            }
            assert!(start > u32::MAX as u64, "segments cover every u32");
            assert_eq!(locate(u32::MAX as u64).0, 32 - bits as usize);
        }
        assert_eq!(Narrow::locate(15), (0, 15));
        assert_eq!(Narrow::locate(16), (1, 0));
        assert_eq!(Wide::locate(1023), (0, 1023));
        assert_eq!(Wide::locate(1024), (1, 0));
    }

    #[test]
    fn get_is_none_past_the_range_and_in_an_unpublished_segment() {
        let t = Narrow::new();
        assert!(t.get(0).is_none() && t.capacity() == 0);
        assert_eq!(*t.get_or_init(3, || 30), 30);
        assert_eq!(t.capacity(), 16);
        assert_eq!(t.get(3), Some(&30));
        assert!(t.get(4).is_none(), "a published segment's empty slot");
        assert!(t.get(16).is_none(), "segment 1 is not published");
        assert!(t.get(u32::MAX as u64).is_none(), "the last segment neither");
        assert!(t.get(u32::MAX as u64 + 1).is_none());
        assert!(t.get(u64::MAX).is_none());
        assert_eq!(*t.get_or_init(3, || 99), 30, "a set slot keeps its value");
    }

    #[test]
    fn ids_are_dense_from_one_and_cross_segments() {
        let t = Narrow::new();
        for id in 1..=100u32 {
            assert_eq!(*t.get_or_init(id, || id * 10), id * 10);
        }
        assert_eq!(t.capacity(), 16 + 32 + 64, "segments 0-2 published");
        assert!((1..=100u32).all(|id| t.get(id.into()) == Some(&(id * 10))));
        assert!(t.get(0).is_none() && t.get(101).is_none());
    }

    #[test]
    fn concurrent_registrations_each_get_their_own_id() {
        let t = Narrow::new();
        let next = std::sync::atomic::AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let id = next.fetch_add(1, Ordering::Relaxed) + 1;
                        assert_eq!(*t.get_or_init(id, || id), id);
                    }
                });
            }
        });
        assert!((1..=200u32).all(|id| t.get(id.into()) == Some(&id)));
        assert!(t.get(201).is_none());
    }

    #[test]
    fn racing_inits_of_one_slot_all_see_the_winner() {
        let t = Wide::new();
        let seen: Vec<u32> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..4u32)
                .map(|n| {
                    let t = &t;
                    s.spawn(move || *t.get_or_init(5000, || n))
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let winner = *t.get(5000).unwrap();
        assert!(seen.iter().all(|&v| v == winner));
        assert_eq!(t.capacity(), 1024 << 2, "only segment 2 is published");
    }
}
