//! Rank liveness and membership epochs: which ranks are alive, in
//! which incarnation, and the fabric-wide epoch every kill and revive
//! bumps. Deliveries to or from a dead rank are dropped where they land.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::fabric::Fabric;

/// Rank liveness and membership-epoch state.
///
/// Inert until the first [`Fabric::kill_rank`] call: fault-free runs see
/// exactly one relaxed bool load per membership query and draw no extra
/// RNG, so seeded traces stay byte-identical. All fields are lock-free
/// atomics — membership is read on delivery hot paths and inside wait
/// predicates, which must never take the fabric inner lock.
pub struct Membership {
    /// Set once, by the first kill; never cleared.
    active: AtomicBool,
    /// Bumped on every kill *and* every revive (a rejoin is a new epoch).
    epoch: AtomicU64,
    /// Per-rank dead flag.
    dead: Vec<AtomicBool>,
    /// Per-rank incarnation counter, bumped on revive.
    generation: Vec<AtomicU32>,
    /// Count of currently-dead ranks (fast "anyone dead?" check).
    num_dead: AtomicUsize,
    /// `simnet.fault.killed_drops` — registered lazily at the first
    /// kill so fault-free metric snapshots carry no membership series.
    killed_drops: OnceLock<Arc<unr_obs::Counter>>,
}

impl Membership {
    pub(crate) fn new(ranks: usize) -> Membership {
        Membership {
            active: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            dead: (0..ranks).map(|_| AtomicBool::new(false)).collect(),
            generation: (0..ranks).map(|_| AtomicU32::new(0)).collect(),
            num_dead: AtomicUsize::new(0),
            killed_drops: OnceLock::new(),
        }
    }
}

impl Fabric {
    /// Whether any kill has ever happened (one relaxed load — this is the
    /// only membership cost a fault-free run pays).
    pub fn membership_active(&self) -> bool {
        self.membership.active.load(Ordering::Relaxed)
    }

    /// Current membership epoch (0 until the first kill; bumped on every
    /// kill and every revive).
    pub fn membership_epoch(&self) -> u64 {
        self.membership.epoch.load(Ordering::Acquire)
    }

    /// Whether `rank` is currently live.
    pub fn rank_alive(&self, rank: usize) -> bool {
        !self.membership.dead[rank].load(Ordering::Acquire)
    }

    /// Incarnation counter of `rank` (0 for the original process, +1 per
    /// revive).
    pub fn rank_generation(&self, rank: usize) -> u32 {
        self.membership.generation[rank].load(Ordering::Acquire)
    }

    /// Number of currently-dead ranks.
    pub fn num_dead(&self) -> usize {
        self.membership.num_dead.load(Ordering::Acquire)
    }

    /// Lowest-numbered dead rank, if any (the peer named in fail-fast
    /// errors).
    pub fn first_dead_rank(&self) -> Option<usize> {
        if self.num_dead() == 0 {
            return None;
        }
        (0..self.cfg.total_ranks()).find(|&r| !self.rank_alive(r))
    }

    /// Kill `rank`: its NICs stop delivering (in either direction) and
    /// the membership epoch is bumped. Idempotent while the rank is dead.
    /// Callers in actor context should use
    /// [`Endpoint::kill_rank`](crate::Endpoint::kill_rank), which
    /// also wakes every parked actor so waiters re-evaluate against the
    /// new membership.
    pub fn kill_rank(&self, rank: usize) {
        assert!(rank < self.cfg.total_ranks(), "rank out of range");
        self.membership.active.store(true, Ordering::Release);
        if !self.membership.dead[rank].swap(true, Ordering::AcqRel) {
            self.membership.num_dead.fetch_add(1, Ordering::AcqRel);
            self.membership.epoch.fetch_add(1, Ordering::AcqRel);
        }
        self.membership
            .killed_drops
            .get_or_init(|| self.obs.metrics.counter("simnet.fault.killed_drops"));
    }

    /// Revive `rank` into a new incarnation: generation bumps, the epoch
    /// bumps, and deliveries to/from it resume. Idempotent while the rank
    /// is live.
    pub fn revive_rank(&self, rank: usize) {
        assert!(rank < self.cfg.total_ranks(), "rank out of range");
        if self.membership.dead[rank].swap(false, Ordering::AcqRel) {
            self.membership.num_dead.fetch_sub(1, Ordering::AcqRel);
            self.membership.generation[rank].fetch_add(1, Ordering::AcqRel);
            self.membership.epoch.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// True when membership is armed and either endpoint of a delivery is
    /// dead: the delivery is silently dropped ("the NIC went dark") and
    /// counted.
    pub(crate) fn delivery_killed(&self, src_rank: usize, dst_rank: usize) -> bool {
        if !self.membership_active() || (self.rank_alive(src_rank) && self.rank_alive(dst_rank)) {
            return false;
        }
        if let Some(c) = self.membership.killed_drops.get() {
            c.inc();
        }
        true
    }
}
