//! Cheaply clonable, immutable byte payloads.
//!
//! The fabric and the UNR engine hand one payload to several consumers:
//! a reliable put snapshots its block once and gives each stripe a
//! [`Bytes::slice`] of it, the retry table keeps each stripe for
//! retransmission, and a fault injector may deliver a duplicate.
//! [`Bytes`] makes every one of those hand-offs a reference-count bump
//! over one shared `Arc<Vec<u8>>` instead of a deep copy. Building one
//! copies at most once: [`MemRegion::snapshot_shared`](crate::MemRegion::snapshot_shared)
//! reads the region straight into the buffer, `From<Vec<u8>>` takes
//! the vector as it is and `From<&[u8]>` is one copy.
//!
//! The bytes live in an allocation of their own, apart from the
//! reference counts: when the last view drops they are freed at once,
//! even while a `Weak` to the counts lives on. That is what lets a
//! region remember its last snapshot without keeping it alive.

use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte slice (view into an
/// `Arc<Vec<u8>>`). Cloning and slicing are O(1); the underlying buffer
/// is freed when the last view drops.
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty payload (no allocation shared: a zero-length slice).
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// The whole of `buf`, shared as is (no copy).
    pub(crate) fn shared(buf: Arc<Vec<u8>>) -> Bytes {
        let len = buf.len();
        Bytes { buf, off: 0, len }
    }

    /// `parts` back to back in one fresh buffer: one allocation, each
    /// part copied once — a wire message built around a payload.
    pub fn from_parts(parts: &[&[u8]]) -> Bytes {
        let mut v = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        parts.iter().for_each(|p| v.extend_from_slice(p));
        Bytes::from(v)
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
    /// The vector itself becomes the shared buffer (no copy).
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::shared(Arc::new(v))
    }
}

impl From<&[u8]> for Bytes {
    /// One copy, into a buffer of its own.
    fn from(s: &[u8]) -> Bytes {
        Bytes::from(s.to_vec())
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
        assert_eq!(ss.as_ptr(), b.as_ptr().wrapping_add(18));
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
    fn from_parts_concatenates_into_one_buffer() {
        let body: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let b = Bytes::from_parts(&[&[9, 8, 7], &[], &body]);
        assert_eq!(b.len(), 203);
        assert_eq!(b[..3], [9, 8, 7]);
        assert_eq!(b[3..], body[..]);
        assert!(Bytes::from_parts(&[]).is_empty());
    }

    #[test]
    fn from_vec_shares_the_vector_without_a_copy() {
        let v = vec![5u8; 64];
        let at = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), at);
    }

    #[test]
    fn empty_default() {
        let b = Bytes::default();
        assert!(b.is_empty());
        assert_eq!(b.to_vec(), Vec::<u8>::new());
    }
}
