//! BLK — the transportable data handle (paper §IV-D).
//!
//! A `Blk` names a block of data inside a registered memory region:
//! owner rank, region handle, offset, size, plus the key of the signal
//! bound to it. A rank serializes its `Blk` and sends it to a peer once
//! (before the main loop); afterwards the peer's `UNR_Put(local_blk,
//! remote_blk)` needs **no remote-address arithmetic at all** — the
//! class of bugs the paper's authors spent months debugging in the
//! hand-written RMA version of PowerLLEL.

use crate::epoch::Epoch;
use crate::signal::SigKey;
use crate::UnrError;
use unr_simnet::{FabricError, MemRegion, RKey};

/// Serialized size of a [`Blk`] on the wire.
pub const BLK_WIRE_LEN: usize = 48;

/// A transportable descriptor of a block of registered memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blk {
    /// Owner (world) rank.
    pub rank: usize,
    /// Registered-region id on the owner rank.
    pub region_id: u32,
    /// Total length of the registered region (for bounds checking).
    pub region_len: usize,
    /// Byte offset of the block inside the region.
    pub offset: usize,
    /// Block length in bytes.
    pub len: usize,
    /// Key of the signal bound to this block ([`SigKey::NULL`] = none).
    /// The signal lives on the owner rank and is triggered when a
    /// transfer involving the block completes there.
    pub sig_key: SigKey,
}

impl Blk {
    /// The fabric rkey of the underlying region.
    pub fn rkey(&self) -> RKey {
        RKey {
            rank: self.rank,
            id: self.region_id,
            len: self.region_len,
        }
    }

    /// Serialize for transport (fixed little-endian layout).
    pub fn to_bytes(&self) -> [u8; BLK_WIRE_LEN] {
        let mut b = [0u8; BLK_WIRE_LEN];
        b[0..8].copy_from_slice(&(self.rank as u64).to_le_bytes());
        b[8..12].copy_from_slice(&self.region_id.to_le_bytes());
        b[12..20].copy_from_slice(&(self.region_len as u64).to_le_bytes());
        b[20..28].copy_from_slice(&(self.offset as u64).to_le_bytes());
        b[28..36].copy_from_slice(&(self.len as u64).to_le_bytes());
        b[36..44].copy_from_slice(&self.sig_key.raw().to_le_bytes());
        b
    }

    /// Deserialize; returns `None` on short input or on a descriptor no
    /// [`UnrMem::blk`] could have produced (a zero-length region —
    /// zero-length registrations are rejected at `Unr::mem_reg` time, so
    /// such bytes are corruption, not a peer's handle).
    pub fn from_bytes(b: &[u8]) -> Option<Blk> {
        if b.len() < BLK_WIRE_LEN {
            return None;
        }
        let blk = Blk {
            rank: u64::from_le_bytes(b[0..8].try_into().ok()?) as usize,
            region_id: u32::from_le_bytes(b[8..12].try_into().ok()?),
            region_len: u64::from_le_bytes(b[12..20].try_into().ok()?) as usize,
            offset: u64::from_le_bytes(b[20..28].try_into().ok()?) as usize,
            len: u64::from_le_bytes(b[28..36].try_into().ok()?) as usize,
            sig_key: SigKey::from_raw(u64::from_le_bytes(b[36..44].try_into().ok()?)),
        };
        if blk.region_len == 0 {
            return None;
        }
        Some(blk)
    }

    /// The checks every put and get makes before anything touches the
    /// wire, `self` being the local block of the pair: it belongs to
    /// `my_rank`, both blocks are the same size, the local one lies
    /// inside `region` — the region this rank really registered under
    /// its id, not the length the handle claims — the remote one inside
    /// the region its handle describes, and the remote rank exists in
    /// the `nranks`-rank world. Hands the region back for the transfer.
    pub fn check_pair<'r>(
        &self,
        remote: &Blk,
        my_rank: usize,
        nranks: usize,
        region: Option<&'r MemRegion>,
    ) -> Result<&'r MemRegion, UnrError> {
        if self.rank != my_rank {
            return Err(UnrError::NotMyBlock {
                blk_rank: self.rank,
                my_rank,
            });
        }
        if self.len != remote.len {
            return Err(UnrError::LenMismatch {
                local: self.len,
                remote: remote.len,
            });
        }
        let region = region.ok_or(UnrError::RegionUnknown(self.region_id))?;
        let fits = |side: &str, blk: &Blk, region_len: usize| {
            if blk
                .offset
                .checked_add(blk.len)
                .is_some_and(|end| end <= region_len)
            {
                return Ok(());
            }
            Err(UnrError::Fabric(FabricError::OutOfBounds(format!(
                "{side} block [{}, {}) exceeds its region of {region_len} bytes",
                blk.offset,
                blk.offset.saturating_add(blk.len),
            ))))
        };
        fits("local", self, region.len())?;
        fits("remote", remote, remote.region_len)?;
        if remote.rank >= nranks {
            return Err(UnrError::Fabric(FabricError::BadRank(remote.rank)));
        }
        Ok(region)
    }

    /// A sub-block at `rel_offset` within this block (bounds-checked),
    /// keeping the same signal binding.
    pub fn slice(&self, rel_offset: usize, len: usize) -> Blk {
        assert!(
            rel_offset + len <= self.len,
            "sub-block [{rel_offset}, {}) exceeds block of {} bytes",
            rel_offset + len,
            self.len
        );
        Blk {
            offset: self.offset + rel_offset,
            len,
            ..*self
        }
    }
}

/// A UNR-registered memory region (the result of `UNR_Mem_Reg`).
///
/// The paper recommends registering memory "as large as possible and
/// then divide it into BLKs" because registration slots are scarce on
/// some systems; `UnrMem::blk` is that division.
#[derive(Clone)]
pub struct UnrMem {
    pub(crate) region: MemRegion,
}

impl UnrMem {
    /// Wrap a region a fabric has registered under its [`RKey`].
    pub fn new(region: MemRegion) -> UnrMem {
        UnrMem { region }
    }

    /// The underlying registered fabric memory region.
    pub fn region(&self) -> &MemRegion {
        &self.region
    }

    /// Registered size in bytes.
    pub fn len(&self) -> usize {
        self.region.len()
    }

    /// Always `false`: zero-length registrations are rejected at
    /// [`Unr::mem_reg`](crate::Unr::mem_reg) time.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Describe a block of this region with an optional bound signal —
    /// a [`SigKey`], or an `Option<&Signal>`. (The free function form
    /// of `UNR_Blk_Init`; `Unr::blk_init` is the usual entry point.)
    pub fn blk(&self, offset: usize, len: usize, sig: impl Into<SigKey>) -> Blk {
        assert!(
            offset + len <= self.region.len(),
            "block [{offset}, {}) exceeds region of {} bytes",
            offset + len,
            self.region.len()
        );
        Blk {
            rank: self.region.rkey.rank,
            region_id: self.region.rkey.id,
            region_len: self.region.rkey.len,
            offset,
            len,
            sig_key: sig.into(),
        }
    }

    /// Write into the region (local access).
    pub fn write_bytes(&self, offset: usize, data: &[u8]) {
        self.region
            .write_bytes(offset, data)
            .expect("UnrMem write in bounds");
    }

    /// Read from the region (local access).
    pub fn read_bytes(&self, offset: usize, out: &mut [u8]) {
        self.region
            .read_bytes(offset, out)
            .expect("UnrMem read in bounds");
    }

    /// Write a typed slice at an element offset.
    pub fn write_slice<T: unr_simnet::Pod>(&self, elem_offset: usize, data: &[T]) {
        self.region
            .write_slice(elem_offset, data)
            .expect("UnrMem write in bounds");
    }

    /// Read a typed slice from an element offset.
    pub fn read_slice<T: unr_simnet::Pod>(&self, elem_offset: usize, out: &mut [T]) {
        self.region
            .read_slice(elem_offset, out)
            .expect("UnrMem read in bounds");
    }

    // ---- checkpoint / restore ------------------------------------------

    /// Snapshot the whole region into an epoch-stamped in-memory
    /// checkpoint (Besta & Hoefler's in-memory-checkpoint model; see
    /// [`crate::epoch`]). `Unr::checkpoint` is the engine entry point
    /// that stamps the current membership epoch automatically.
    pub fn checkpoint(&self, epoch: Epoch) -> MemCheckpoint {
        MemCheckpoint {
            epoch,
            region_id: self.region.rkey.id,
            offset: 0,
            data: self
                .region
                .snapshot(0, self.region.len())
                .expect("whole-region snapshot in bounds"),
        }
    }

    /// Snapshot just one block of this region (must be a block of this
    /// region — checked against the region id).
    pub fn checkpoint_blk(&self, blk: &Blk, epoch: Epoch) -> MemCheckpoint {
        assert_eq!(
            blk.region_id, self.region.rkey.id,
            "blk belongs to a different region"
        );
        MemCheckpoint {
            epoch,
            region_id: blk.region_id,
            offset: blk.offset,
            data: self
                .region
                .snapshot(blk.offset, blk.len)
                .expect("blk snapshot in bounds"),
        }
    }

    /// Write a checkpoint back into the region at the offset it was
    /// taken from. Called on a respawned rank *before* it re-registers
    /// with its peers, so the restored bytes are what the new epoch
    /// starts from. Panics if the checkpoint names a different region.
    pub fn restore(&self, ckpt: &MemCheckpoint) {
        assert_eq!(
            ckpt.region_id, self.region.rkey.id,
            "checkpoint belongs to a different region"
        );
        self.region
            .write_bytes(ckpt.offset, &ckpt.data)
            .expect("checkpoint restore in bounds");
    }
}

/// An epoch-stamped in-memory snapshot of (part of) a registered
/// region, produced by [`UnrMem::checkpoint`] / [`UnrMem::checkpoint_blk`]
/// and applied by [`UnrMem::restore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemCheckpoint {
    /// Membership epoch the snapshot was taken in.
    pub epoch: Epoch,
    /// Region the snapshot belongs to (checked on restore).
    pub region_id: u32,
    /// Byte offset of the snapshot inside the region.
    pub offset: usize,
    /// The snapshotted bytes.
    pub data: Vec<u8>,
}

impl std::fmt::Debug for UnrMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnrMem")
            .field("rkey", &self.region.rkey)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Blk {
        Blk {
            rank: 3,
            region_id: 7,
            region_len: 4096,
            offset: 128,
            len: 512,
            sig_key: SigKey::from_raw(42),
        }
    }

    #[test]
    fn wire_roundtrip() {
        let b = sample();
        let w = b.to_bytes();
        assert_eq!(Blk::from_bytes(&w), Some(b));
    }

    #[test]
    fn from_bytes_rejects_short() {
        assert_eq!(Blk::from_bytes(&[0u8; 10]), None);
    }

    #[test]
    fn from_bytes_rejects_zero_length_region() {
        // A descriptor `UnrMem::blk` can never produce: region_len == 0
        // (mem_reg rejects empty registrations). Must not round-trip.
        let mut b = sample();
        b.region_len = 0;
        let w = b.to_bytes();
        assert_eq!(Blk::from_bytes(&w), None);
        // All-zero bytes are exactly such a descriptor.
        assert_eq!(Blk::from_bytes(&[0u8; BLK_WIRE_LEN]), None);
    }

    #[test]
    fn slice_keeps_binding() {
        let b = sample();
        let s = b.slice(64, 128);
        assert_eq!(s.offset, 192);
        assert_eq!(s.len, 128);
        assert_eq!(s.sig_key, SigKey::from_raw(42));
        assert_eq!(s.rank, 3);
    }

    #[test]
    #[should_panic(expected = "exceeds block")]
    fn slice_bounds_checked() {
        sample().slice(500, 100);
    }

    #[test]
    fn rkey_matches_fields() {
        let k = sample().rkey();
        assert_eq!(k.rank, 3);
        assert_eq!(k.id, 7);
        assert_eq!(k.len, 4096);
    }
}
