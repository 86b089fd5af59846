//! Cheaply clonable, immutable byte payloads.
//!
//! The fabric and the UNR engine hand one payload to several consumers:
//! a reliable put snapshots its block once and gives each stripe a
//! [`Bytes::slice`] of it, the retry table keeps each stripe for
//! retransmission, and a fault injector may deliver a duplicate.
//! [`Bytes`] makes every one of those hand-offs a reference-count bump
//! over one shared `Arc<[u8]>` instead of a deep copy. Building one
//! copies at most once: [`MemRegion::snapshot_shared`](crate::MemRegion::snapshot_shared)
//! reads the region straight into the shared buffer, and
//! `From<&[u8]>` is one `Arc::from`. When the last view drops,
//! [`Bytes::into_unique`] hands the buffer back for reuse.

use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte slice (view into an
/// `Arc<[u8]>`). Cloning and slicing are O(1); the underlying buffer
/// is freed when the last view drops.
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<[u8]>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty payload (no allocation shared: a zero-length slice).
    pub fn new() -> Bytes {
        Bytes {
            buf: Arc::from(&[][..]),
            off: 0,
            len: 0,
        }
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Zero-copy sub-view. Panics if `off + len` exceeds this view.
    pub fn slice(&self, off: usize, len: usize) -> Bytes {
        assert!(
            off.checked_add(len).is_some_and(|e| e <= self.len),
            "Bytes::slice out of range: {off}+{len} > {}",
            self.len
        );
        Bytes {
            buf: Arc::clone(&self.buf),
            off: self.off + off,
            len,
        }
    }

    /// Copy the view out into an owned `Vec` (the one deliberate copy,
    /// for call sites that must mutate or serialize).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// The whole buffer behind this view, if this is its last view
    /// (no clone, no other slice): `Arc::get_mut` proves nobody else
    /// can read it, so the caller may overwrite it and share it again
    /// through `From<Arc<[u8]>>`. `None` while any other view lives.
    pub fn into_unique(self) -> Option<Arc<[u8]>> {
        let mut buf = self.buf;
        Arc::get_mut(&mut buf).is_some().then_some(buf)
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.off..self.off + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            buf: Arc::from(v),
            off: 0,
            len,
        }
    }
}

impl From<Arc<[u8]>> for Bytes {
    /// The whole of `buf`, shared as is (no copy).
    fn from(buf: Arc<[u8]>) -> Bytes {
        let len = buf.len();
        Bytes { buf, off: 0, len }
    }
}

impl From<&[u8]> for Bytes {
    /// One copy, straight into the shared buffer.
    fn from(s: &[u8]) -> Bytes {
        Bytes::from(Arc::<[u8]>::from(s))
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes @ +{})", self.len, self.off)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_and_deref() {
        let b: Bytes = vec![1u8, 2, 3, 4].into();
        assert_eq!(b.len(), 4);
        assert_eq!(&b[..], &[1, 2, 3, 4]);
        assert_eq!(b, vec![1, 2, 3, 4]);
    }

    #[test]
    fn clone_shares_the_buffer() {
        let b: Bytes = vec![7u8; 1024].into();
        let c = b.clone();
        assert_eq!(b.as_ref().as_ptr(), c.as_ref().as_ptr());
    }

    #[test]
    fn slice_is_a_view() {
        let b: Bytes = (0u8..64).collect::<Vec<_>>().into();
        let s = b.slice(16, 8);
        assert_eq!(&s[..], &(16u8..24).collect::<Vec<_>>()[..]);
        let ss = s.slice(2, 4);
        assert_eq!(&ss[..], &[18, 19, 20, 21]);
        assert_eq!(ss.as_ref().as_ptr(), unsafe { b.as_ref().as_ptr().add(18) });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_bounds_checked() {
        let b: Bytes = vec![0u8; 8].into();
        let _ = b.slice(4, 5);
    }

    #[test]
    fn from_slice_copies_once_into_a_buffer_of_its_own() {
        let src = [3u8, 1, 4, 1, 5];
        let b = Bytes::from(&src[..]);
        assert_eq!(b, src.to_vec());
        assert_ne!(b.as_ptr(), src.as_ptr());
    }

    #[test]
    fn into_unique_returns_the_buffer_only_from_its_last_view() {
        let b: Bytes = (0u8..16).collect::<Vec<_>>().into();
        let (head, tail) = (b.slice(0, 8), b.slice(8, 8));
        drop(b);
        assert!(head.into_unique().is_none(), "the tail still reads it");
        let buf = tail.into_unique().expect("the last view");
        assert_eq!(buf.len(), 16, "the whole buffer, not the view");
        let again = Bytes::from(buf);
        let clone = again.clone();
        assert!(again.into_unique().is_none(), "a clone still reads it");
        assert!(clone.into_unique().is_some());
    }

    #[test]
    fn empty_default() {
        let b = Bytes::default();
        assert!(b.is_empty());
        assert_eq!(b.to_vec(), Vec::<u8>::new());
    }
}
