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
//! memory access. As with real RDMA, the simulator gives no protection
//! against an application racing its own RMA traffic: if a remote PUT
//! lands in a range the local rank is concurrently reading, the bytes
//! observed are unspecified (but the access itself is sound: all accesses
//! go through raw-pointer `copy_nonoverlapping` on an allocation that
//! outlives every in-flight operation, so there is no UB-by-dangling).
//! The whole point of the UNR library built on top is to give
//! applications the notification discipline that makes such races
//! impossible: the writer's bulk copy is sequenced before its SeqCst
//! `fetch_add` on the MMAS signal counter, and a reader that has seen
//! that counter reach zero through a SeqCst `load` (`Signal::test`)
//! therefore sees every byte — the signal counter, not the buffer, is
//! the happens-before edge.
//!
//! Both fabrics share this one buffer type: the simulated fabric
//! registers regions with an [`RKey`]; the TCP fabric (`unr-netfab`)
//! builds its own under the [`RKey`] it names each one by.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::sync::Arc;

use crate::bytes::Bytes;

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
}

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
        RegionBuf { ptr, len }
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

    fn check(&self, offset: usize, len: usize) -> Result<(), OutOfBounds> {
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
        Ok(())
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
    /// [`Bytes`] payload. One copy happens here (the DMA read); every
    /// downstream consumer — striped NIC posts, retransmit buffers,
    /// fault-injected duplicates — then shares the same allocation.
    pub fn snapshot_shared(&self, offset: usize, len: usize) -> Result<Bytes, OutOfBounds> {
        Ok(Bytes::from(self.snapshot(offset, len)?))
    }

    /// Write a typed slice at an element offset.
    pub fn write_slice<T: Pod>(&self, elem_offset: usize, data: &[T]) -> Result<(), OutOfBounds> {
        let bytes = std::mem::size_of_val(data);
        let off = elem_offset * std::mem::size_of::<T>();
        self.check(off, bytes)?;
        // SAFETY: T: Pod, bounds checked.
        unsafe {
            std::ptr::copy_nonoverlapping(
                data.as_ptr().cast::<u8>(),
                self.buf.ptr.add(off),
                bytes,
            );
        }
        Ok(())
    }

    /// Read a typed slice from an element offset.
    pub fn read_slice<T: Pod>(&self, elem_offset: usize, out: &mut [T]) -> Result<(), OutOfBounds> {
        let bytes = std::mem::size_of_val(out);
        let off = elem_offset * std::mem::size_of::<T>();
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

    /// View the whole region as a mutable typed slice for local compute.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that no RMA operation targeting an
    /// overlapping range is in flight for the lifetime of the returned
    /// slice, and that no other local view aliases it mutably. This is
    /// the same contract an application has with a real NIC; UNR signals
    /// exist to let applications uphold it.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn as_mut_slice<T: Pod>(&self) -> &mut [T] {
        let n = self.buf.len / std::mem::size_of::<T>();
        std::slice::from_raw_parts_mut(self.buf.ptr.cast::<T>(), n)
    }

    /// View the whole region as a shared typed slice.
    ///
    /// # Safety
    ///
    /// No RMA write to the region may be in flight for the lifetime of
    /// the returned slice.
    pub unsafe fn as_slice<T: Pod>(&self) -> &[T] {
        let n = self.buf.len / std::mem::size_of::<T>();
        std::slice::from_raw_parts(self.buf.ptr.cast::<T>(), n)
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

    #[test]
    fn as_mut_slice_sees_rma_writes() {
        let r = MemRegion::new(0, 0, 8 * 4);
        r.write_slice(0, &[1u64, 2, 3, 4]).unwrap();
        // SAFETY: no concurrent RMA in this test.
        let s = unsafe { r.as_mut_slice::<u64>() };
        assert_eq!(s, &[1, 2, 3, 4]);
        s[2] = 99;
        let mut out = [0u64; 4];
        r.read_slice(0, &mut out).unwrap();
        assert_eq!(out, [1, 2, 99, 4]);
    }
}
