//! Registered memory regions — the RMA target surface.
//!
//! On real hardware, registering memory pins pages and hands the NIC a
//! DMA-capable handle (`lkey`/`rkey`); remote peers then read and write
//! the region directly, bypassing the target CPU. Here a region is an
//! owned, 64-byte-aligned heap buffer that the simulated fabric writes
//! into when a PUT arrives (and reads when a GET arrives).
//!
//! # Safety contract
//!
//! This module is the **only** place in the workspace that performs raw
//! memory access of a region. Every way in is a bounds-checked method —
//! `write_bytes` and `write_slice` — and so is every way out; nothing
//! hands out a slice that aliases the region. As with real RDMA, the
//! simulator gives no protection against an application racing its own
//! RMA traffic: if a remote PUT lands in a range the local rank is
//! concurrently reading, the bytes observed are unspecified (but the
//! access itself is sound: all accesses go through raw-pointer
//! `copy_nonoverlapping` on an allocation that outlives every in-flight
//! operation, so there is no UB-by-dangling).
//! The whole point of the UNR library built on top is to give
//! applications the notification discipline that makes such races
//! impossible: the writer's bulk copy is sequenced before its SeqCst
//! `fetch_add` on the MMAS signal counter, and a reader that has seen
//! that counter reach zero through a SeqCst `load` (`Signal::test`)
//! therefore sees every byte — the signal counter, not the buffer, is
//! the happens-before edge.
//!
//! Every way out of a region is exactly one copy: `read_bytes` into a
//! caller's slice, `append_to` onto a `Vec` (a wire frame, an
//! aggregation ring) and `snapshot_shared` into a shared [`Bytes`].
//!
//! # Shared snapshots
//!
//! `snapshot_shared` is the DMA read of a put. A put of a block that
//! has not changed since the last one — the same block fanned out to
//! every peer — needs no second read: the region keeps a `Weak` view
//! of its last snapshot and hands it out again when it is asked for the
//! same `(offset, len)` and the snapshot is still alive. Every write
//! that overlaps that range forgets it first, so a put still carries
//! the bytes its source held at post time. The view holds no payload
//! memory: a [`Bytes`] keeps its bytes in an allocation of their own,
//! freed with the last view.
//!
//! Both fabrics share this one buffer type: the simulated fabric
//! registers regions with an [`RKey`]; the Unix-domain-socket fabric (`unr-netfab`)
//! builds its own under the [`RKey`] it names each one by.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::ops::Range;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use crate::bytes::Bytes;
use crate::sync::Mutex;

/// Region alignment (cache-line).
const ALIGN: usize = 64;

/// Plain-old-data element types that may view a region as a typed slice.
///
/// # Safety
///
/// Implementors must be valid for every bit pattern and contain no
/// padding or pointers.
pub unsafe trait Pod: Copy + 'static {}
unsafe impl Pod for u8 {}
unsafe impl Pod for i8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}

/// View a typed slice as raw bytes (safe for [`Pod`] element types).
pub fn as_bytes<T: Pod>(s: &[T]) -> &[u8] {
    // SAFETY: T: Pod has no padding and is valid for all bit patterns.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

/// Copy raw bytes into a typed vector. Panics if the byte length is not
/// a multiple of `size_of::<T>()`.
pub fn vec_from_bytes<T: Pod>(bytes: &[u8]) -> Vec<T> {
    let sz = std::mem::size_of::<T>();
    assert_eq!(
        bytes.len() % sz,
        0,
        "byte length {} not a multiple of element size {}",
        bytes.len(),
        sz
    );
    let n = bytes.len() / sz;
    let mut v = Vec::<T>::with_capacity(n);
    // SAFETY: capacity reserved; T: Pod accepts any bit pattern; len set
    // only after the copy.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), v.as_mut_ptr().cast::<u8>(), bytes.len());
        v.set_len(n);
    }
    v
}

/// The raw allocation behind a registered region.
pub(crate) struct RegionBuf {
    ptr: *mut u8,
    len: usize,
    /// Set while `last` may name a live snapshot: a writer that reads
    /// it clear takes no lock.
    shared: AtomicBool,
    last: Mutex<Option<LastSnapshot>>,
}

/// The last shared snapshot of a region: its byte range and a view
/// that does not keep it alive.
type LastSnapshot = (Range<usize>, Weak<Vec<u8>>);

// SAFETY: the buffer is a plain heap allocation; concurrent access is
// governed by the RMA contract documented at module level.
unsafe impl Send for RegionBuf {}
unsafe impl Sync for RegionBuf {}

impl RegionBuf {
    fn new(len: usize) -> Self {
        assert!(len > 0, "cannot register an empty region");
        let layout = Layout::from_size_align(len, ALIGN).expect("layout");
        // SAFETY: len > 0, layout valid.
        let ptr = unsafe { alloc_zeroed(layout) };
        assert!(!ptr.is_null(), "allocation failure for {len}-byte region");
        RegionBuf {
            ptr,
            len,
            shared: AtomicBool::new(false),
            last: Mutex::new(None),
        }
    }
}

impl Drop for RegionBuf {
    fn drop(&mut self) {
        let layout = Layout::from_size_align(self.len, ALIGN).expect("layout");
        // SAFETY: allocated with the identical layout in `new`.
        unsafe { dealloc(self.ptr, layout) };
    }
}

/// Error for out-of-bounds region access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBounds {
    pub offset: usize,
    pub len: usize,
    pub region_len: usize,
}

impl std::fmt::Display for OutOfBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "access [{}, {}) out of bounds of {}-byte region",
            self.offset,
            self.offset.saturating_add(self.len),
            self.region_len
        )
    }
}
impl std::error::Error for OutOfBounds {}

/// A registered memory region.
///
/// Cloning is cheap (`Arc`); every clone refers to the same bytes. The
/// fabric holds clones for in-flight operations, so a region's memory is
/// never freed while a simulated DMA engine could still touch it.
#[derive(Clone)]
pub struct MemRegion {
    buf: Arc<RegionBuf>,
    /// Identity of this registration: owning rank and per-rank slot.
    pub rkey: RKey,
}

/// Remote key: names a registered region fabric-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RKey {
    pub rank: usize,
    pub id: u32,
    pub len: usize,
}

impl MemRegion {
    /// A zeroed `len`-byte region that rank `rank` registers as `id`.
    /// The simulated fabric calls this from `Endpoint::register`; a
    /// fabric that keeps its own region table calls it directly.
    pub fn new(rank: usize, id: u32, len: usize) -> Self {
        MemRegion {
            buf: Arc::new(RegionBuf::new(len)),
            rkey: RKey { rank, id, len },
        }
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len
    }

    /// Regions are never empty (enforced at registration).
    pub fn is_empty(&self) -> bool {
        false
    }

    pub(crate) fn check(&self, offset: usize, len: usize) -> Result<(), OutOfBounds> {
        if offset.checked_add(len).is_none_or(|end| end > self.buf.len) {
            return Err(OutOfBounds {
                offset,
                len,
                region_len: self.buf.len,
            });
        }
        Ok(())
    }

    /// Copy `data` into the region at `offset` (bounds-checked).
    pub fn write_bytes(&self, offset: usize, data: &[u8]) -> Result<(), OutOfBounds> {
        self.check(offset, data.len())?;
        // SAFETY: `check` proved `offset + len <= buf.len` without
        // overflow, `data` cannot alias the private allocation, and the
        // allocation lives as long as `self`. A concurrent reader of the
        // range is ordered by the module-level race contract: this copy
        // happens-before the writer's SeqCst `fetch_add` on the signal
        // counter, which the reader's SeqCst `load` observes first.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.buf.ptr.add(offset), data.len());
        }
        self.forget(offset..offset + data.len());
        Ok(())
    }

    /// Drop the remembered snapshot if `written` overlaps its range
    /// (or it has died); called by every write, after its copy.
    //
    // ORDERING: a snapshot taken after a write (happens-after it) must
    // never be handed a copy that missed that write. A writer copies,
    // then runs a SeqCst fence, then loads `shared`. A snapshot that
    // copies afresh holds `last`'s lock from its check through its
    // copy to publishing, and stores `shared = true` and runs a SeqCst
    // fence *before* its copy. The two fences are ordered one way or
    // the other:
    // - the snapshot's fence first: the writer's load sees `shared`,
    //   takes the lock — so it waits until that snapshot is published
    //   — and forgets it;
    // - the writer's fence first: its bytes are visible before the
    //   snapshot's copy starts, so that copy holds them and may be
    //   shared.
    // A copy published before the writer began is the first case.
    // `shared` changes only under the lock, and a writer clears it only
    // when the remembered snapshot is gone, dead or just forgotten, so
    // a writer that reads it clear has nothing to forget. The fence is
    // needed on both sides: without it a writer's last bytes may still
    // sit in its store buffer when its load runs. With no live shared
    // snapshot, a write costs the fence and one load, and no lock.
    fn forget(&self, written: Range<usize>) {
        fence(Ordering::SeqCst);
        if written.is_empty() || !self.buf.shared.load(Ordering::Relaxed) {
            return;
        }
        let mut last = self.buf.last.lock();
        let stale = last.as_ref().is_none_or(|(range, view)| {
            (range.start < written.end && written.start < range.end) || view.strong_count() == 0
        });
        if stale {
            *last = None;
            self.buf.shared.store(false, Ordering::Relaxed);
        }
    }

    /// Copy bytes out of the region at `offset` (bounds-checked).
    pub fn read_bytes(&self, offset: usize, out: &mut [u8]) -> Result<(), OutOfBounds> {
        self.check(offset, out.len())?;
        // SAFETY: bounds checked as in `write_bytes`; `out` is an
        // exclusive borrow outside the allocation. Same race contract:
        // the reader gets here only after its SeqCst `load` of the
        // signal counter saw the writer's SeqCst `fetch_add`.
        unsafe {
            std::ptr::copy_nonoverlapping(self.buf.ptr.add(offset), out.as_mut_ptr(), out.len());
        }
        Ok(())
    }

    /// Append `len` bytes starting at `offset` to `out` in one copy,
    /// straight into the vector's spare capacity (no zero-fill, no
    /// intermediate buffer) — the DMA read that builds a wire frame
    /// around a payload.
    pub fn append_to(
        &self,
        offset: usize,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), OutOfBounds> {
        self.check(offset, len)?;
        out.reserve(len);
        let at = out.len();
        // SAFETY: bounds checked as in `write_bytes`; `reserve`
        // guarantees `capacity >= at + len`, so the destination range
        // is inside the vector's allocation, which cannot alias the
        // region's; `set_len` runs only after those `len` bytes are
        // initialised by the copy. Same race contract as `read_bytes`.
        unsafe {
            std::ptr::copy_nonoverlapping(self.buf.ptr.add(offset), out.as_mut_ptr().add(at), len);
            out.set_len(at + len);
        }
        Ok(())
    }

    /// Snapshot a byte range into a fresh `Vec` (used by the fabric's
    /// DMA-read step).
    pub fn snapshot(&self, offset: usize, len: usize) -> Result<Vec<u8>, OutOfBounds> {
        let mut v = Vec::new();
        self.append_to(offset, len, &mut v)?;
        Ok(v)
    }

    /// Snapshot a byte range into a shared, cheaply-clonable
    /// [`Bytes`] payload (the DMA read of a put). Every downstream
    /// consumer — the stripes of a reliable put ([`Bytes::slice`]),
    /// retransmit buffers, fault-injected duplicates — shares it, and
    /// so does the next snapshot of the same range while the snapshot
    /// lives and no write has touched the range (see the module docs);
    /// otherwise one allocation and one copy.
    pub fn snapshot_shared(&self, offset: usize, len: usize) -> Result<Bytes, OutOfBounds> {
        self.check(offset, len)?;
        let range = offset..offset + len;
        // ORDERING: see `forget`.
        let mut last = self.buf.last.lock();
        if let Some(buf) = last
            .as_ref()
            .filter(|(r, _)| *r == range)
            .and_then(|(_, view)| view.upgrade())
        {
            return Ok(Bytes::shared(buf));
        }
        self.buf.shared.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let buf = Arc::new(self.snapshot(offset, len)?);
        *last = Some((range, Arc::downgrade(&buf)));
        Ok(Bytes::shared(buf))
    }

    /// Write a typed slice at an element offset.
    pub fn write_slice<T: Pod>(&self, elem_offset: usize, data: &[T]) -> Result<(), OutOfBounds> {
        let offset = self.elem_to_byte::<T>(elem_offset, size_of_val(data))?;
        self.write_bytes(offset, as_bytes(data))
    }

    /// The byte offset of element `elem_offset` of type `T`, or
    /// `OutOfBounds` if it overflows.
    fn elem_to_byte<T>(&self, elem_offset: usize, len: usize) -> Result<usize, OutOfBounds> {
        elem_offset.checked_mul(size_of::<T>()).ok_or(OutOfBounds {
            offset: usize::MAX,
            len,
            region_len: self.buf.len,
        })
    }

    /// Read a typed slice from an element offset.
    pub fn read_slice<T: Pod>(&self, elem_offset: usize, out: &mut [T]) -> Result<(), OutOfBounds> {
        let bytes = size_of_val(out);
        let off = self.elem_to_byte::<T>(elem_offset, bytes)?;
        self.check(off, bytes)?;
        // SAFETY: T: Pod, bounds checked.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.buf.ptr.add(off),
                out.as_mut_ptr().cast::<u8>(),
                bytes,
            );
        }
        Ok(())
    }
}

impl std::fmt::Debug for MemRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemRegion")
            .field("rkey", &self.rkey)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_starts_zeroed() {
        let r = MemRegion::new(0, 0, 128);
        let mut buf = [0xffu8; 128];
        r.read_bytes(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_read_roundtrip() {
        let r = MemRegion::new(0, 0, 64);
        r.write_bytes(8, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        r.read_bytes(8, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
        // Neighbouring bytes untouched.
        let mut b = [9u8; 1];
        r.read_bytes(7, &mut b).unwrap();
        assert_eq!(b[0], 0);
        r.read_bytes(12, &mut b).unwrap();
        assert_eq!(b[0], 0);
    }

    #[test]
    fn typed_slice_roundtrip() {
        let r = MemRegion::new(0, 0, 8 * 10);
        let data = [1.5f64, -2.25, 3.125];
        r.write_slice(2, &data).unwrap();
        let mut out = [0f64; 3];
        r.read_slice(2, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn out_of_bounds_write_rejected() {
        let r = MemRegion::new(0, 0, 16);
        let e = r.write_bytes(10, &[0; 8]).unwrap_err();
        assert_eq!(e.region_len, 16);
        assert_eq!(e.offset, 10);
        // Exactly-at-end succeeds.
        r.write_bytes(8, &[0; 8]).unwrap();
    }

    #[test]
    fn offset_overflow_rejected() {
        let r = MemRegion::new(0, 0, 16);
        assert!(r.read_bytes(usize::MAX - 2, &mut [0; 8]).is_err());
    }

    #[test]
    fn snapshot_copies() {
        let r = MemRegion::new(0, 0, 32);
        r.write_bytes(0, &[7; 32]).unwrap();
        let s = r.snapshot(4, 8).unwrap();
        assert_eq!(s, vec![7u8; 8]);
        r.write_bytes(4, &[1; 8]).unwrap();
        assert_eq!(s, vec![7u8; 8], "snapshot must be a copy");
    }

    #[test]
    fn snapshot_shared_equals_read_bytes_and_checks_bounds() {
        let r = MemRegion::new(0, 0, 64);
        let data: Vec<u8> = (100..164).collect();
        r.write_bytes(0, &data).unwrap();
        let read = |offset: usize, len: usize| {
            let mut out = vec![0u8; len];
            r.read_bytes(offset, &mut out).map(|()| out)
        };
        // At offset 0, ending exactly at the region's end, and empty there.
        for (offset, len) in [(0, 16), (0, 64), (40, 24), (64, 0)] {
            let snap = r.snapshot_shared(offset, len).unwrap();
            assert_eq!(snap, read(offset, len).unwrap(), "[{offset}, +{len})");
            assert_eq!(snap.len(), len);
        }
        // A copy, not a view of the region.
        let snap = r.snapshot_shared(0, 8).unwrap();
        r.write_bytes(0, &[0; 8]).unwrap();
        assert_eq!(snap, data[..8].to_vec());
        // Out of bounds, by length and by overflow: the same `Err` as a read.
        for (offset, len) in [(60, 5), (65, 0), (usize::MAX, 2)] {
            assert_eq!(
                r.snapshot_shared(offset, len).unwrap_err(),
                read(offset, len).unwrap_err()
            );
        }
    }

    #[test]
    fn append_to_extends_without_touching_the_prefix() {
        let r = MemRegion::new(0, 0, 32);
        let data: Vec<u8> = (0..32).collect();
        r.write_bytes(0, &data).unwrap();
        let mut out = vec![0xaa, 0xbb];
        r.append_to(4, 8, &mut out).unwrap();
        assert_eq!(out[..2], [0xaa, 0xbb]);
        assert_eq!(out[2..], data[4..12]);
        // Zero bytes at the very end of the region is in bounds.
        r.append_to(32, 0, &mut out).unwrap();
        assert_eq!(out.len(), 10);
        // Out of bounds (by length, then by overflow): `out` untouched.
        assert!(r.append_to(30, 3, &mut out).is_err());
        let e = r.append_to(usize::MAX, 2, &mut out).unwrap_err();
        assert!(e.to_string().contains("out of bounds"));
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn clones_alias_same_bytes() {
        let r = MemRegion::new(3, 1, 16);
        let r2 = r.clone();
        r.write_bytes(0, &[42]).unwrap();
        let mut b = [0u8; 1];
        r2.read_bytes(0, &mut b).unwrap();
        assert_eq!(b[0], 42);
        assert_eq!(r2.rkey, r.rkey);
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn empty_region_rejected() {
        let _ = MemRegion::new(0, 0, 0);
    }

    /// An element offset whose byte offset overflows `usize` is out of
    /// bounds for a typed write and a typed read alike; neither touches
    /// byte 0.
    #[test]
    fn a_typed_offset_that_overflows_is_out_of_bounds() {
        let r = MemRegion::new(0, 0, 64);
        r.write_bytes(0, &[7; 64]).unwrap();
        assert!(r.write_slice::<u8>(usize::MAX, &[1]).is_err());
        assert!(r.read_slice::<u8>(usize::MAX, &mut [0]).is_err());
        let e = r.write_slice::<f64>(1 << 61, &[1.5]).unwrap_err();
        assert_eq!(e.region_len, 64);
        let mut out = [0f64];
        assert!(r.read_slice::<f64>(1 << 61, &mut out).is_err());
        assert_eq!(out, [0.0], "the read copied nothing");
        assert_eq!(r.snapshot(0, 64).unwrap(), vec![7; 64]);
    }

    /// `[8, 24)` of a 64-byte region holding `0, 1, 2, …`.
    fn shared_block() -> (MemRegion, Bytes) {
        let r = MemRegion::new(0, 0, 64);
        r.write_bytes(0, &(0..64).collect::<Vec<u8>>()).unwrap();
        let snap = r.snapshot_shared(8, 16).unwrap();
        (r, snap)
    }

    /// A snapshot of the same untouched range is the same allocation;
    /// another range is a fresh copy, and takes over the memory.
    #[test]
    fn a_snapshot_of_an_untouched_range_shares_the_last_one() {
        let (r, snap) = shared_block();
        let again = r.snapshot_shared(8, 16).unwrap();
        assert_eq!(again.as_ptr(), snap.as_ptr());
        for (offset, len) in [(8, 15), (9, 16), (0, 64)] {
            let other = r.snapshot_shared(offset, len).unwrap();
            assert_ne!(other.as_ptr(), snap.as_ptr(), "[{offset}, +{len})");
            assert_eq!(
                other,
                (offset as u8..(offset + len) as u8).collect::<Vec<_>>()
            );
        }
        assert_ne!(r.snapshot_shared(8, 16).unwrap().as_ptr(), snap.as_ptr());
    }

    /// A write over the range's start, its end, its inside or the whole
    /// region forgets the snapshot: the next one holds the new bytes,
    /// and the old one keeps the bytes it was taken with.
    #[test]
    fn a_write_that_overlaps_the_range_forgets_it() {
        for (offset, len) in [(4, 5), (23, 4), (12, 2), (0, 64)] {
            let (r, snap) = shared_block();
            r.write_bytes(offset, &vec![0xEE; len]).unwrap();
            let next = r.snapshot_shared(8, 16).unwrap();
            assert_ne!(next.as_ptr(), snap.as_ptr(), "write [{offset}, +{len})");
            assert_eq!(snap, (8..24).collect::<Vec<u8>>());
            let mut want: Vec<u8> = (0..64).collect();
            want[offset..offset + len].fill(0xEE);
            assert_eq!(next, want[8..24].to_vec());
        }
        // A typed write forgets by its byte range.
        let (r, snap) = shared_block();
        r.write_slice::<u32>(5, &[0]).unwrap();
        assert_ne!(r.snapshot_shared(8, 16).unwrap().as_ptr(), snap.as_ptr());
    }

    /// A write that ends where the range starts, starts where it ends,
    /// lies elsewhere in the region or is empty keeps the snapshot.
    #[test]
    fn a_write_beside_the_range_keeps_it() {
        let (r, snap) = shared_block();
        for (offset, len) in [(0, 8), (24, 8), (40, 24), (16, 0)] {
            r.write_bytes(offset, &vec![0xEE; len]).unwrap();
            let again = r.snapshot_shared(8, 16).unwrap();
            assert_eq!(again.as_ptr(), snap.as_ptr(), "write [{offset}, +{len})");
        }
        r.write_slice::<u64>(3, &[0]).unwrap();
        assert_eq!(r.snapshot_shared(8, 16).unwrap().as_ptr(), snap.as_ptr());
    }

    /// The region's view keeps nothing alive: once every view of a
    /// snapshot has dropped its bytes are freed, the next snapshot
    /// copies afresh, and the first write after that takes the lock
    /// once and then no more.
    #[test]
    fn a_dropped_snapshot_is_freed_and_copied_afresh() {
        let (r, snap) = shared_block();
        let stripe = snap.slice(4, 4);
        drop(snap);
        let view = || r.buf.last.lock().as_ref().map(|(_, v)| v.clone()).unwrap();
        assert_eq!(view().strong_count(), 1, "a stripe still reads it");
        drop(stripe);
        assert_eq!(view().strong_count(), 0, "its bytes are freed");
        let next = r.snapshot_shared(8, 16).unwrap();
        assert_eq!(next, (8..24).collect::<Vec<u8>>());
        assert_eq!(view().strong_count(), 1, "the fresh copy");
        drop(next);
        assert!(r.buf.shared.load(Ordering::Relaxed));
        r.write_bytes(60, &[0]).unwrap();
        assert!(r.buf.last.lock().is_none(), "a dead snapshot is forgotten");
        assert!(!r.buf.shared.load(Ordering::Relaxed), "writes take no lock");
    }

    /// A writer thread rewrites a range and then publishes the round
    /// through a SeqCst counter; a reader that has seen round `k`
    /// snapshots the range and must get round `k`'s bytes, while it
    /// still holds round `k − 1`'s snapshot (so the region's view of it
    /// is alive) and while it keeps snapshotting during the writer's
    /// next copy (so a torn copy may be published just as the writer
    /// checks for one).
    #[test]
    fn a_snapshot_after_a_published_write_holds_that_write() {
        use std::sync::atomic::AtomicU64;
        const ROUNDS: u64 = 10_000;
        const LEN: usize = 256;
        let r = MemRegion::new(0, 0, 2 * LEN);
        let (round, seen) = (AtomicU64::new(0), AtomicU64::new(0));
        let round_bytes = |k: u64| -> Vec<u8> { k.to_le_bytes().repeat(LEN / 8) };
        std::thread::scope(|s| {
            s.spawn(|| {
                for k in 1..=ROUNDS {
                    r.write_bytes(LEN / 2, &round_bytes(k)).unwrap();
                    round.store(k, Ordering::SeqCst);
                    while seen.load(Ordering::SeqCst) < k {
                        std::thread::yield_now();
                    }
                }
            });
            let mut held = r.snapshot_shared(LEN / 2, LEN).unwrap();
            let mut stale = Vec::new();
            for k in 1..=ROUNDS {
                while round.load(Ordering::SeqCst) < k {
                    drop(r.snapshot_shared(LEN / 2, LEN).unwrap());
                    std::thread::yield_now();
                }
                let snap = r.snapshot_shared(LEN / 2, LEN).unwrap();
                if snap != round_bytes(k) {
                    stale.push(k);
                }
                held = snap;
                seen.store(k, Ordering::SeqCst);
            }
            drop(held);
            assert!(stale.is_empty(), "stale snapshots in rounds {stale:?}");
        });
    }
}
