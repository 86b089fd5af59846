//! Sender-side small-message coalescing (the bump-ring aggregator).
//!
//! The paper's headline workload is many small notified PUTs, and the
//! MMAS algebra of §IV-B makes sender-side aggregation free: addends
//! are associative, so N sub-MTU puts to the same destination can ride
//! one fabric delivery carrying one *summed* addend per target signal.
//!
//! Each destination rank owns a bump ring: payload bytes are appended
//! to a packed buffer, their destination `(region, offset, len)` spans
//! to a span table, and their notification addends are folded into a
//! per-key running sum. The ring is flushed — serialized into one
//! [`wire::MSG_AGG`](crate::wire::MSG_AGG) control message — when it
//! crosses a byte or occupancy threshold, when the application enters
//! any blocking wait, at plan boundaries, and at finalize. Local
//! (source-completion) addends are deferred to the same flush, so the
//! per-put cost is a memcpy plus a few vector pushes; everything that
//! needs scheduler context is amortized across the whole aggregate —
//! the pack copies' virtual time ([`Coalescer::owe`]) and the put
//! counters too, which the flush adds once from the ring's own totals.
//! A sent flush hands its buffers back ([`Coalescer::recycle`]), so a
//! ring in steady use never regrows.
//!
//! The engine owns a `Mutex<Coalescer>`; only the application rank
//! ever touches it (the polling agent neither reads nor flushes
//! rings), so the lock is uncontended and exists to satisfy `Sync`.
//! Both backends share this module: `simnet` sends the flush as a
//! datagram on the UNR port, `netfab` as a `FRAME_CTRL` frame — the
//! bytes are identical.

use std::sync::Arc;

use unr_simnet::{MemRegion, OutOfBounds};

use crate::blk::Blk;

/// What triggered a flush (each has its own `unr.agg.flush.*` counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushWhy {
    /// The ring's packed payload crossed the byte threshold.
    Size,
    /// The ring's put count crossed the occupancy threshold.
    Occupancy,
    /// The application entered a blocking wait (`sig_wait` family).
    Wait,
    /// A plan replay boundary (`RmaPlan::start`).
    Plan,
    /// An explicit `Unr::flush` call (also used at finalize).
    Explicit,
    /// A non-aggregable operation to the same destination forced the
    /// ring out first to preserve per-destination ordering.
    Order,
}

/// One drained ring, ready to serialize with
/// [`wire::agg_msg`](crate::wire::agg_msg).
pub struct AggFlush {
    /// Destination spans `(region, offset, len)`, in put order.
    pub spans: Vec<(u32, u64, u32)>,
    /// Per-key summed remote addends, first-touch order.
    pub sigs: Vec<(u64, i64)>,
    /// Per-key summed local (source-completion) addends, deferred to
    /// the flush; applied by the sender, never serialized.
    pub local_sigs: Vec<(u64, i64)>,
    /// Packed payload bytes, concatenated in span order.
    pub payload: Vec<u8>,
    /// How many puts were folded into this aggregate.
    pub puts: usize,
    /// Virtual time [`Coalescer::owe`]d since the last drain, by every
    /// ring: the first flush settles all of it in one charge.
    pub owed: u64,
}

/// Per-destination bump ring.
#[derive(Default)]
struct DstRing {
    spans: Vec<(u32, u64, u32)>,
    sigs: Vec<(u64, i64)>,
    local_sigs: Vec<(u64, i64)>,
    buf: Vec<u8>,
    puts: usize,
}

/// Fold `addend` into the ring's running sum for `key` (key 0 — the
/// null signal — is dropped outright). The key list stays tiny (an
/// aggregate rarely targets more than a handful of signals), so a
/// linear scan beats any map.
fn fold(sums: &mut Vec<(u64, i64)>, key: u64, addend: i64) {
    if key == 0 {
        return;
    }
    for e in sums.iter_mut() {
        if e.0 == key {
            e.1 += addend;
            return;
        }
    }
    sums.push((key, addend));
}

/// The per-rank aggregator: one bump ring per destination plus the
/// flush thresholds.
pub struct Coalescer {
    rings: Vec<DstRing>,
    /// Destinations with a non-empty ring, in first-touch order
    /// (deterministic: it mirrors the application's put order).
    dirty: Vec<usize>,
    flush_bytes: usize,
    flush_puts: usize,
    /// Virtual time owed by the puts buffered since the last drain.
    owed: u64,
}

impl Coalescer {
    /// An empty coalescer for `world` ranks with the given thresholds.
    pub fn new(world: usize, flush_bytes: usize, flush_puts: usize) -> Coalescer {
        assert!(
            flush_bytes > 0 && flush_puts > 0,
            "flush thresholds must be positive"
        );
        Coalescer {
            rings: (0..world).map(|_| DstRing::default()).collect(),
            dirty: Vec::new(),
            flush_bytes,
            flush_puts,
            owed: 0,
        }
    }

    /// Owe `ns` of virtual time for a put being buffered; the next
    /// drain hands the sum over ([`AggFlush::owed`]). Charging a
    /// simulated rank per put is a scheduler entry each, the dominant
    /// cost of a sub-MTU put, so the pack loop only counts here.
    pub fn owe(&mut self, ns: u64) {
        self.owed += ns;
    }

    /// Append one put of `data` to `dst`'s ring. Returns the threshold
    /// trigger if this push filled the ring — the caller must then
    /// [`Coalescer::drain`] and send it.
    pub fn push(
        &mut self,
        dst: usize,
        region: u32,
        offset: u64,
        data: &[u8],
        remote_sig: (u64, i64),
        local_sig: (u64, i64),
    ) -> Option<FlushWhy> {
        self.rings[dst].buf.extend_from_slice(data);
        self.pushed(
            dst,
            (region, offset, data.len() as u32),
            remote_sig,
            local_sig,
        )
    }

    /// [`Coalescer::push`] of the put `local` → `remote`, its bytes
    /// read out of `src` (the region `local` names) straight into the
    /// ring: one copy, no snapshot. `Err`, ring untouched, if `local`
    /// does not fit `src`.
    pub fn push_blk(
        &mut self,
        src: &MemRegion,
        local: &Blk,
        remote: &Blk,
        remote_sig: (u64, i64),
        local_sig: (u64, i64),
    ) -> Result<Option<FlushWhy>, OutOfBounds> {
        let dst = remote.rank;
        src.append_to(local.offset, local.len, &mut self.rings[dst].buf)?;
        let span = (remote.region_id, remote.offset as u64, local.len as u32);
        Ok(self.pushed(dst, span, remote_sig, local_sig))
    }

    /// The bookkeeping of a put whose bytes are already in `dst`'s ring.
    fn pushed(
        &mut self,
        dst: usize,
        span: (u32, u64, u32),
        remote_sig: (u64, i64),
        local_sig: (u64, i64),
    ) -> Option<FlushWhy> {
        let ring = &mut self.rings[dst];
        if ring.puts == 0 {
            self.dirty.push(dst);
        }
        ring.spans.push(span);
        fold(&mut ring.sigs, remote_sig.0, remote_sig.1);
        fold(&mut ring.local_sigs, local_sig.0, local_sig.1);
        ring.puts += 1;
        if ring.buf.len() >= self.flush_bytes {
            Some(FlushWhy::Size)
        } else if ring.puts >= self.flush_puts {
            Some(FlushWhy::Occupancy)
        } else {
            None
        }
    }

    /// Whether `dst`'s ring holds anything.
    pub fn has_pending(&self, dst: usize) -> bool {
        self.rings.get(dst).is_some_and(|r| r.puts > 0)
    }

    /// `(pending bytes, pending puts)` buffered for `dst` — the
    /// admission controller's view of how backlogged one destination's
    /// ring is. Out-of-range destinations report `(0, 0)`.
    pub fn backlog(&self, dst: usize) -> (usize, usize) {
        self.rings
            .get(dst)
            .map_or((0, 0), |r| (r.buf.len(), r.puts))
    }

    /// Drain `dst`'s ring (empties it and clears its dirty mark).
    pub fn drain(&mut self, dst: usize) -> Option<AggFlush> {
        let ring = &mut self.rings[dst];
        if ring.puts == 0 {
            return None;
        }
        self.dirty.retain(|&d| d != dst);
        let puts = std::mem::take(&mut ring.puts);
        Some(AggFlush {
            spans: std::mem::take(&mut ring.spans),
            sigs: std::mem::take(&mut ring.sigs),
            local_sigs: std::mem::take(&mut ring.local_sigs),
            payload: std::mem::take(&mut ring.buf),
            puts,
            owed: std::mem::take(&mut self.owed),
        })
    }

    /// Drain the ring touched first of those with pending data, naming
    /// its destination; `None` when every ring is empty.
    pub fn drain_next(&mut self) -> Option<(usize, AggFlush)> {
        let dst = *self.dirty.first()?;
        self.drain(dst).map(|fl| (dst, fl))
    }

    /// Hand a sent flush's buffers back to `dst`'s ring, emptied, so the
    /// ring refills them instead of growing new ones. A ring that took
    /// puts since the drain keeps its own.
    pub fn recycle(&mut self, dst: usize, fl: AggFlush) {
        let ring = &mut self.rings[dst];
        if ring.puts > 0 {
            return;
        }
        let AggFlush {
            mut spans,
            mut sigs,
            mut local_sigs,
            mut payload,
            ..
        } = fl;
        spans.clear();
        sigs.clear();
        local_sigs.clear();
        payload.clear();
        *ring = DstRing {
            spans,
            sigs,
            local_sigs,
            buf: payload,
            puts: 0,
        };
    }
}

/// Pre-resolved `unr.agg.*` instruments, registered only when
/// aggregation is enabled so default-config runs keep a byte-identical
/// metrics snapshot (same discipline as the retry metrics).
pub struct AggMetrics {
    /// Puts folded into aggregates instead of posted individually.
    pub puts_coalesced: Arc<unr_obs::Counter>,
    /// Payload bytes packed into aggregate buffers.
    pub bytes_packed: Arc<unr_obs::Counter>,
    /// Per-key summed addend entries carried by flushed aggregates.
    pub addends_summed: Arc<unr_obs::Counter>,
    flush_size: Arc<unr_obs::Counter>,
    flush_occupancy: Arc<unr_obs::Counter>,
    flush_wait: Arc<unr_obs::Counter>,
    flush_plan: Arc<unr_obs::Counter>,
    flush_explicit: Arc<unr_obs::Counter>,
    flush_order: Arc<unr_obs::Counter>,
}

impl AggMetrics {
    /// Register the aggregation instruments on `obs`.
    pub fn new(obs: &unr_obs::Obs) -> AggMetrics {
        let m = &obs.metrics;
        AggMetrics {
            puts_coalesced: m.counter("unr.agg.puts_coalesced"),
            bytes_packed: m.counter("unr.agg.bytes_packed"),
            addends_summed: m.counter("unr.agg.addends_summed"),
            flush_size: m.counter("unr.agg.flush.size"),
            flush_occupancy: m.counter("unr.agg.flush.occupancy"),
            flush_wait: m.counter("unr.agg.flush.wait"),
            flush_plan: m.counter("unr.agg.flush.plan"),
            flush_explicit: m.counter("unr.agg.flush.explicit"),
            flush_order: m.counter("unr.agg.flush.order"),
        }
    }

    /// Count one flush under its trigger.
    pub fn count_flush(&self, why: FlushWhy) {
        match why {
            FlushWhy::Size => self.flush_size.inc(),
            FlushWhy::Occupancy => self.flush_occupancy.inc(),
            FlushWhy::Wait => self.flush_wait.inc(),
            FlushWhy::Plan => self.flush_plan.inc(),
            FlushWhy::Explicit => self.flush_explicit.inc(),
            FlushWhy::Order => self.flush_order.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addends_sum_per_key_and_null_keys_drop() {
        let mut c = Coalescer::new(4, 1 << 20, 1 << 20);
        assert_eq!(c.push(2, 1, 0, &[1, 2], (10, -1), (5, -1)), None);
        assert_eq!(c.push(2, 1, 2, &[3], (10, -1), (0, -1)), None);
        assert_eq!(c.push(2, 1, 3, &[4, 5, 6], (11, -1), (5, -1)), None);
        let fl = c.drain(2).expect("pending");
        assert_eq!(fl.puts, 3);
        assert_eq!(fl.spans, vec![(1, 0, 2), (1, 2, 1), (1, 3, 3)]);
        assert_eq!(fl.payload, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(fl.sigs, vec![(10, -2), (11, -1)]);
        assert_eq!(fl.local_sigs, vec![(5, -2)]);
        assert!(c.drain(2).is_none(), "drain empties the ring");
    }

    /// Reading the block out of its region is the same push as handing
    /// over its bytes, and a block past the region's end leaves the
    /// ring as it was.
    #[test]
    fn push_blk_reads_the_region_into_the_ring() {
        let src = MemRegion::new(0, 4, 64);
        src.write_bytes(0, &(0u8..64).collect::<Vec<_>>()).unwrap();
        let blk = |rank, region_id, offset, len| Blk {
            rank,
            region_id,
            region_len: 64,
            offset,
            len,
            sig_key: crate::signal::SigKey::NULL,
        };
        let (mut by_blk, mut by_slice) = (Coalescer::new(4, 16, 100), Coalescer::new(4, 16, 100));
        for (off, len, to) in [(8, 4, 40), (30, 12, 0)] {
            let (local, remote) = (blk(0, 4, off, len), blk(2, 1, to, len));
            let why = by_blk
                .push_blk(&src, &local, &remote, (10, -1), (5, -1))
                .unwrap();
            let data: Vec<u8> = (off as u8..(off + len) as u8).collect();
            assert_eq!(
                why,
                by_slice.push(2, 1, to as u64, &data, (10, -1), (5, -1))
            );
        }
        let outside = blk(0, 4, 60, 8);
        assert!(by_blk
            .push_blk(&src, &outside, &blk(2, 1, 0, 8), (10, -1), (5, -1))
            .is_err());
        assert_eq!(by_blk.backlog(2), (16, 2));
        let (a, b) = (by_blk.drain(2).unwrap(), by_slice.drain(2).unwrap());
        assert_eq!(
            (a.spans, a.sigs, a.local_sigs, a.payload, a.puts),
            (b.spans, b.sigs, b.local_sigs, b.payload, b.puts)
        );
    }

    #[test]
    fn size_threshold_fires_before_occupancy() {
        let mut c = Coalescer::new(2, 8, 100);
        assert_eq!(c.push(1, 0, 0, &[0; 5], (1, -1), (0, 0)), None);
        assert_eq!(
            c.push(1, 0, 5, &[0; 5], (1, -1), (0, 0)),
            Some(FlushWhy::Size)
        );
    }

    #[test]
    fn occupancy_threshold_fires() {
        let mut c = Coalescer::new(2, 1 << 20, 3);
        assert_eq!(c.push(0, 0, 0, &[1], (1, -1), (0, 0)), None);
        assert_eq!(c.push(0, 0, 1, &[2], (1, -1), (0, 0)), None);
        assert_eq!(
            c.push(0, 0, 2, &[3], (1, -1), (0, 0)),
            Some(FlushWhy::Occupancy)
        );
    }

    #[test]
    fn dirty_list_tracks_first_touch_order() {
        let mut c = Coalescer::new(4, 1 << 20, 1 << 20);
        c.push(3, 0, 0, &[1], (1, -1), (0, 0));
        c.push(1, 0, 0, &[2], (1, -1), (0, 0));
        c.push(3, 0, 1, &[3], (1, -1), (0, 0));
        assert!(c.has_pending(3) && c.has_pending(1) && !c.has_pending(0));
        let (dst, fl) = c.drain_next().expect("two rings pending");
        assert_eq!((dst, fl.payload), (3, vec![1, 3]));
        assert_eq!(c.drain_next().map(|(dst, _)| dst), Some(1));
        assert!(c.drain_next().is_none());
    }

    /// What the puts owe is drained once, whole, by the first drain; a
    /// recycled flush's buffers come back empty and keep their room.
    #[test]
    fn the_first_drain_takes_what_is_owed_and_recycled_buffers_keep_their_room() {
        let mut c = Coalescer::new(4, 1 << 20, 1 << 20);
        for (dst, ns) in [(2, 5), (1, 7), (2, 11)] {
            c.owe(ns);
            c.push(dst, 0, 0, &[0xA5; 300], (1, -1), (4, -1));
        }
        let fl = c.drain(2).unwrap();
        assert_eq!((fl.owed, fl.puts, fl.payload.len()), (23, 2, 600));
        assert_eq!(c.drain(1).unwrap().owed, 0);
        let room = fl.payload.capacity();
        c.recycle(2, fl);
        assert_eq!(c.backlog(2), (0, 0));
        assert!(!c.has_pending(2), "a recycled ring is empty");
        assert_eq!(c.push(2, 0, 0, &[1], (1, -1), (0, 0)), None);
        let again = c.drain(2).unwrap();
        assert_eq!(again.payload.capacity(), room, "the ring reused the buffer");
        assert_eq!((again.payload, again.spans), (vec![1], vec![(0, 0, 1)]));
        // A ring that took puts since its drain keeps them.
        c.push(3, 0, 0, &[1], (1, -1), (0, 0));
        let fl = c.drain(3).unwrap();
        c.push(3, 0, 1, &[2], (1, -1), (0, 0));
        c.recycle(3, fl);
        assert_eq!(c.backlog(3), (1, 1));
    }
}
