//! Setup-time mini-MPI tag-space partitioning.
//!
//! Every persistent collective performs its BLK exchanges over mini-MPI
//! during construction, and multiple instances (several barriers,
//! broadcasts, …) must never match each other's exchanges. Each
//! `(collective kind, instance)` pair therefore owns a disjoint tag
//! block carved out of the reserved space above [`TAG_BASE`].
//!
//! ## The stride bug this replaces
//!
//! Earlier revisions strode instances by small fixed constants (barrier
//! `8`, bcast and allgather `4`) while the number of tags actually
//! consumed grew with the communicator: the dissemination barrier used
//! `2 * ceil(log2 n)` tags, which is 10 at `n = 32` — instance 1's
//! block started inside instance 0's, and two barriers constructed on
//! a > 16-rank communicator could cross-match each other's setup
//! exchanges. The fix is twofold: the rebuilt barrier/allgather consume
//! an *n-independent* 2 tags (their fan-out is summed into one MMAS
//! signal instead of tagged per round), and the log-round collectives
//! stride by a constant that provably dominates their span for every
//! representable communicator (`2 * rounds ≤ 64` since `rounds ≤ 31`
//! for `n ≤ 2^31` ranks). [`tag_range`] asserts `span ≤ stride`, so a
//! future collective that outgrows its stride fails loudly at
//! construction instead of corrupting a neighbour instance.
//!
//! ## Membership epochs
//!
//! Recovery adds a third dimension. When a rank dies and rejoins, the
//! surviving world rebuilds its collectives under a bumped membership
//! epoch ([`unr_core::Epoch`]) — and a `(kind, instance)` pair rebuilt
//! in epoch `e + 1` must never match a setup exchange still in flight
//! from epoch `e` (the dying rank's half-finished construction, say).
//! [`tag_range_epoch`] therefore strides whole epoch *generations* of
//! the region table by [`EPOCH_TAG_STRIDE`]: same kind, same instance,
//! different epoch ⇒ disjoint block. Epoch 0 is bit-identical to
//! [`tag_range`], so fault-free runs (and their golden traces) are
//! untouched. The collective constructors read the epoch straight off
//! the engine, so callers opt in simply by reconstructing after a bump.

use std::ops::Range;

use unr_core::Epoch;

/// Base of the tag space reserved for this crate's setup exchanges.
pub const TAG_BASE: i32 = 1 << 21;

/// Tags one membership epoch's whole region table occupies: every
/// [`TagKind`] region (they end at `4000 + 64 * instance` for the
/// log-round kinds) fits under this power-of-two stride, so epoch
/// `e`'s table lives in `[TAG_BASE + e * STRIDE, TAG_BASE + (e + 1) *
/// STRIDE)`.
pub const EPOCH_TAG_STRIDE: i32 = 1 << 13;

/// Highest membership epoch the tag space can host: the last epoch's
/// table must still end below `i32::MAX` (mini-MPI tags are `i32`).
const MAX_TAG_EPOCH: u64 = ((i32::MAX - TAG_BASE) / EPOCH_TAG_STRIDE) as u64;

/// Which collective a tag block belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagKind {
    /// [`crate::NotifiedBcast`]: payload + credit exchange (2 tags).
    Bcast,
    /// [`crate::NotifiedAllgather`]: data + credit exchange (2 tags).
    Allgather,
    /// [`crate::NotifiedBarrier`]: one exchange per parity (2 tags).
    Barrier,
    /// [`crate::NotifiedAllgatherRd`]: data + credit per round
    /// (`2 * log2 n` tags).
    AllgatherRd,
    /// [`crate::NotifiedAllreduce`]: data + credit per round
    /// (`2 * log2 n` tags).
    Allreduce,
}

impl TagKind {
    /// Offset of this kind's region above [`TAG_BASE`].
    fn region(self) -> i32 {
        match self {
            TagKind::Bcast => 0,
            TagKind::Allgather => 1000,
            TagKind::Barrier => 2000,
            TagKind::AllgatherRd => 3000,
            TagKind::Allreduce => 4000,
        }
    }

    /// Per-instance stride — a constant upper bound on
    /// [`TagKind::span`] for every representable communicator size.
    fn stride(self) -> i32 {
        match self {
            TagKind::Bcast | TagKind::Allgather | TagKind::Barrier => 2,
            // 2 tags per round, rounds = log2 n ≤ 31.
            TagKind::AllgatherRd | TagKind::Allreduce => 64,
        }
    }

    /// Tags one instance actually consumes on an `n`-rank communicator.
    fn span(self, n: usize) -> i32 {
        match self {
            TagKind::Bcast | TagKind::Allgather | TagKind::Barrier => 2,
            TagKind::AllgatherRd | TagKind::Allreduce => {
                2 * n.max(1).next_power_of_two().trailing_zeros() as i32
            }
        }
    }
}

/// The half-open tag block `(kind, instance)` owns on an `n`-rank
/// communicator in membership epoch 0. Blocks of the same kind are
/// disjoint across instances (stride ≥ span, asserted), and kinds live
/// in disjoint regions. Equivalent to [`tag_range_epoch`] at
/// [`Epoch::ZERO`].
pub fn tag_range(kind: TagKind, n: usize, instance: i32) -> Range<i32> {
    tag_range_epoch(kind, n, instance, Epoch::ZERO)
}

/// The half-open tag block `(kind, instance)` owns on an `n`-rank
/// communicator in membership `epoch`. Same-kind blocks are disjoint
/// across instances (stride ≥ span, asserted), kinds live in disjoint
/// regions, and the whole region table strides by [`EPOCH_TAG_STRIDE`]
/// per epoch — a collective rebuilt after a membership bump can never
/// cross-match a setup exchange left over from the epoch before.
pub fn tag_range_epoch(kind: TagKind, n: usize, instance: i32, epoch: Epoch) -> Range<i32> {
    assert!(instance >= 0, "collective instance must be non-negative");
    assert!(
        epoch.raw() <= MAX_TAG_EPOCH,
        "membership {epoch} exhausts the i32 mini-MPI tag space"
    );
    let span = kind.span(n);
    let stride = kind.stride();
    assert!(
        span <= stride,
        "{kind:?} consumes {span} tags at n={n}, more than its {stride}-tag stride"
    );
    let start =
        TAG_BASE + epoch.raw() as i32 * EPOCH_TAG_STRIDE + kind.region() + stride * instance;
    assert!(
        start + span <= TAG_BASE + (epoch.raw() as i32 + 1) * EPOCH_TAG_STRIDE,
        "{kind:?} instance {instance} overflows {epoch}'s tag generation"
    );
    start..start + span
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_blocks_are_disjoint_for_every_kind() {
        let kinds = [
            TagKind::Bcast,
            TagKind::Allgather,
            TagKind::Barrier,
            TagKind::AllgatherRd,
            TagKind::Allreduce,
        ];
        for kind in kinds {
            for n in [1usize, 2, 3, 16, 17, 32, 1024, 1 << 20] {
                for i in 0..8 {
                    let a = tag_range(kind, n, i);
                    let b = tag_range(kind, n, i + 1);
                    assert!(
                        a.end <= b.start,
                        "{kind:?} n={n}: instance {i} {a:?} overlaps {:?}",
                        b
                    );
                }
            }
        }
    }

    #[test]
    fn epoch_generations_are_disjoint_and_epoch_zero_is_legacy() {
        let kinds = [
            TagKind::Bcast,
            TagKind::Allgather,
            TagKind::Barrier,
            TagKind::AllgatherRd,
            TagKind::Allreduce,
        ];
        for kind in kinds {
            // Epoch 0 must be bit-identical to the legacy range (golden
            // traces of fault-free runs depend on it).
            assert_eq!(
                tag_range(kind, 32, 3),
                tag_range_epoch(kind, 32, 3, Epoch::ZERO)
            );
            // Same (kind, instance), consecutive epochs ⇒ disjoint; and
            // a whole generation never bleeds into the next (max
            // instance the generation assert admits).
            for e in 0..4u64 {
                let a = tag_range_epoch(kind, 32, 5, Epoch::new(e));
                let b = tag_range_epoch(kind, 32, 5, Epoch::new(e + 1));
                assert!(a.end <= b.start, "{kind:?} epoch {e}: {a:?} vs {b:?}");
                assert!(
                    a.end <= TAG_BASE + (e as i32 + 1) * EPOCH_TAG_STRIDE,
                    "{kind:?} epoch {e} bleeds into the next generation"
                );
            }
        }
    }

    #[test]
    fn log_round_spans_fit_their_stride_at_extreme_sizes() {
        // rounds ≤ 31 for any n ≤ 2^31 → span ≤ 62 < 64.
        for n in [2usize, 1 << 10, 1 << 20, 1 << 31] {
            let r = tag_range(TagKind::Allreduce, n, 7);
            assert!(r.end - r.start <= 64);
        }
    }
}
