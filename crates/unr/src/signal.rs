//! MMAS — Multi-channel Multi-message Aggregated Signal (paper §IV-B).
//!
//! A signal is a 64-bit counter split into three fields:
//!
//! ```text
//!  63          N+1 | N        | N-1        0
//!  +--------------+----------+-------------+
//!  | sub-messages | overflow | event count |
//!  +--------------+----------+-------------+
//! ```
//!
//! * the low `N` bits count *remaining events* (set to `num_event` by
//!   `reset`); each completed message contributes a net `-1`;
//! * bit `N` is the **overflow-detect bit**: if more than `num_event`
//!   events arrive, the event field borrows into it (two's complement),
//!   which `wait`/`reset` report as a synchronization error;
//! * the high bits count *remaining sub-messages* when one message is
//!   striped over `K` NICs: one sub-message carries the addend
//!   `-1 + ((K-1) << (N+1))` and the other `K-1` carry `-(1 << (N+1))`,
//!   so the whole group nets to `-1` and the counter reaches **exactly
//!   zero** only when every sub-message of every expected message has
//!   landed — regardless of arrival order across NICs.
//!
//! The signal **triggers** when the counter equals zero.
//!
//! Signals live in a [`SignalTable`]; the table key (the paper's
//! pointer `p`) is what travels in the NIC custom bits, and
//! [`SignalTable::apply`] is the polling agent's / level-4 NIC's
//! `*p += a`.
//!
//! # Lock-free completion path
//!
//! The table's slots are a [`SegSlots`] with geometric growth: segment
//! `s` holds `1024 << s` slots, published once and never moved, and
//! each slot is set on its first allocation to the state word and
//! counter every later allocation re-arms. So a key maps to its
//! counter with two acquire loads and no locking. `apply` — the hottest
//! operation in the library, executed for every NIC completion — reads
//! the slot's state word, checks liveness + generation, and `fetch_add`s
//! the counter directly; it takes no lock and clones no `Arc`.
//! Allocation and release are the cold path and serialize on one small
//! mutex (free-list + segment growth), which also makes slot index
//! assignment deterministic: fresh indices are sequential from 1 and
//! freed indices are reused LIFO, exactly like the previous
//! mutex-per-lookup implementation — allocation-order determinism is
//! what keeps seeded traces byte-identical across the refactor.
//!
//! # Generation-tagged keys
//!
//! A freed slot's index is recycled, so a *stale* key captured before
//! the free could silently alias the next signal allocated into that
//! slot. Keys therefore carry a generation field above the index
//! (`key = gen << shift | idx`); `apply` rejects mismatches as
//! [`SignalError::Stale`]. The generation width adapts to the
//! channel's wire capacity ([`SignalTable::with_key_capacity`]): 64-bit
//! key channels get 16 generation bits, 32-bit channels get 8, and
//! narrower channels (level-1/2 custom bits) get none — there the first
//! generation's keys are bit-identical to the un-tagged scheme and
//! stale-key aliasing remains a documented hardware limitation, exactly
//! the paper's "maximum number of signals is limited" caveat.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use unr_simnet::sync::Mutex;

use unr_simnet::{ActorId, Ns, Sched, SegSlots};

/// Outcome of a detached (scheduler-free) signal apply: whether the
/// addend brought the counter to its trigger/overflow condition, and
/// the parked simnet actor (if any) that the caller must now wake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Applied {
    /// The add reached zero or set the overflow-detect bit.
    pub triggered: bool,
    /// Waiter registered on the signal, taken atomically; `Some` only
    /// when `triggered`. Simnet callers wake it through the scheduler;
    /// real-time backends have no parked actors and always see `None`.
    pub waiter: Option<ActorId>,
}

/// Errors reported by the bug-avoiding interfaces (paper §IV-D).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignalError {
    /// `reset` found a non-zero counter: a message arrived before the
    /// buffer was declared ready (or is still missing) — the classic
    /// RMA pre-synchronization bug.
    ResetWhileActive {
        /// Raw counter value the reset observed.
        counter: i64,
    },
    /// More events arrived than `num_event` (overflow-detect bit set).
    EventOverflow {
        /// Raw counter value, overflow bit included.
        counter: i64,
    },
    /// The key's generation does not match the slot: the signal it
    /// referred to was freed (and possibly reallocated) — a stale key.
    Stale {
        /// The offending wire key.
        key: u64,
    },
}

impl std::fmt::Display for SignalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignalError::ResetWhileActive { counter } => write!(
                f,
                "synchronization error: signal reset while counter = {counter} \
                 (a message arrived earlier than expected, or is still in flight)"
            ),
            SignalError::EventOverflow { counter } => write!(
                f,
                "synchronization error: more events than num_event received \
                 (overflow bit set, counter = {counter})"
            ),
            SignalError::Stale { key } => write!(
                f,
                "stale signal key {key}: the signal was freed (slot generation \
                 mismatch)"
            ),
        }
    }
}
impl std::error::Error for SignalError {}

/// Compute the striped-transfer addends for a message split into `k`
/// sub-messages (paper §IV-B). Element 0 is the "carrier" addend; the
/// remaining `k-1` are the per-sub-message addends.
pub fn striped_addends(k: usize, n_bits: u32) -> Vec<i64> {
    assert!(k >= 1);
    assert!(n_bits < 62, "event field too wide");
    if k == 1 {
        return vec![-1];
    }
    let unit = 1i64 << (n_bits + 1);
    let mut v = Vec::with_capacity(k);
    v.push(-1 + (k as i64 - 1) * unit);
    for _ in 1..k {
        v.push(-unit);
    }
    v
}

/// The wire form of a signal's table slot (the paper's pointer `p` as
/// transported in NIC custom bits and serialized [`Blk`](crate::Blk)s).
///
/// A transparent newtype over `u64` so typed APIs can't confuse signal
/// keys with offsets or addends; `SigKey::NULL` (slot 0) means "no
/// signal bound". Obtain one from [`Signal::key`], or convert with
/// [`SigKey::from_raw`]/[`SigKey::raw`] at (de)serialization edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(transparent)]
pub struct SigKey(u64);

impl SigKey {
    /// The null key: no signal bound (table slot 0 is reserved).
    pub const NULL: SigKey = SigKey(0);

    /// Wrap a raw wire value.
    pub const fn from_raw(raw: u64) -> SigKey {
        SigKey(raw)
    }

    /// The raw wire value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Is this the null ("no signal") key?
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl From<u64> for SigKey {
    fn from(raw: u64) -> SigKey {
        SigKey(raw)
    }
}

/// The key of an optionally bound signal ([`SigKey::NULL`] for none).
impl From<Option<&Signal>> for SigKey {
    fn from(sig: Option<&Signal>) -> SigKey {
        sig.map_or(SigKey::NULL, Signal::key)
    }
}

impl From<SigKey> for u64 {
    fn from(k: SigKey) -> u64 {
        k.0
    }
}

impl std::fmt::Display for SigKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[derive(Default)]
pub(crate) struct SignalInner {
    /// The slot's state word (see [`SLOT_LIVE`]): the table's, not the
    /// signal's — it outlives every [`Signal`] allocated into the slot.
    state: AtomicU64,
    counter: AtomicI64,
    num_event: AtomicI64,
    /// Actor parked in `wait` (at most one waiter per signal).
    waiter: Mutex<Option<ActorId>>,
}

impl SignalInner {
    fn overflow_bit(&self, n_bits: u32) -> bool {
        let c = self.counter.load(Ordering::SeqCst);
        (c >> n_bits) & 1 == 1
    }
}

/// Book-keeping counters for the bug-avoiding interfaces.
#[derive(Debug, Default)]
pub struct SignalStats {
    /// `reset` calls that found a non-zero counter.
    pub reset_errors: AtomicU64,
    /// Waits that observed the overflow-detect bit.
    pub overflow_errors: AtomicU64,
    /// Total `apply` executions (events processed).
    pub events_applied: AtomicU64,
    /// `apply` calls rejected because the key was stale (freed slot or
    /// generation mismatch).
    pub stale_rejects: AtomicU64,
}

/// Slot state word: `gen << 2 | used << 1 | live`. `used`
/// distinguishes a never-allocated slot (generation starts at 0, so
/// first-generation keys are bit-identical to the un-tagged scheme)
/// from a freed one (generation bumps on reallocation).
const SLOT_LIVE: u64 = 0b01;
const SLOT_USED: u64 = 0b10;
const SLOT_GEN_SHIFT: u32 = 2;

/// The table's slots: each holds the table's own reference to its
/// `SignalInner`, set on the slot's first allocation, *re-armed* by
/// every later one, dropped with the table. Reuse, rather than free and
/// realloc, is why a stale apply racing a release only ever touches a
/// counter the table still owns (see [`SignalTable::try_apply`]).
/// Segment 0 holds 1024 slots; index 0 is the null key and never set.
type Slots = SegSlots<Arc<SignalInner>, 10>;

struct AllocState {
    /// Freed slot indices, reused LIFO (matches the seed implementation
    /// so allocation order — and therefore every seeded trace — is
    /// unchanged).
    free: Vec<u32>,
    /// Next never-used index; starts at 1 (0 is the null key).
    next_idx: u32,
}

/// The per-rank signal slab. `key` 0 is reserved as the null signal.
///
/// See the module docs for the concurrency design: `apply`/`try_apply`
/// are lock-free; `alloc`/`release` serialize on one mutex.
pub struct SignalTable {
    slots: Slots,
    alloc: Mutex<AllocState>,
    live: AtomicUsize,
    n_bits: u32,
    /// Bits of generation tag carried above the index in each key
    /// (0 on channels whose custom bits cannot spare any).
    gen_bits: u32,
    /// Bit position of the generation field.
    gen_shift: u32,
    /// Counters for the bug-avoiding interfaces (reset/overflow errors).
    pub stats: SignalStats,
}

impl SignalTable {
    /// Create a table whose signals use `n_bits` event bits (the paper's
    /// `N`). `n_bits` bounds `num_event` at `2^N - 1`; smaller values
    /// leave more room for the sub-message field — mandatory when the
    /// NIC's custom bits are short (level-2 mode 2). Keys are assumed to
    /// have the full 64 bits of wire capacity; see
    /// [`SignalTable::with_key_capacity`] when they do not.
    pub fn new(n_bits: u32) -> Arc<SignalTable> {
        SignalTable::with_key_capacity(n_bits, u64::MAX)
    }

    /// Like [`SignalTable::new`], but sized to a channel whose wire can
    /// carry keys only up to `max_key` (the minimum
    /// [`Encoding::max_key`](crate::level::Encoding::max_key) across the
    /// channel's directions). The generation field shrinks to fit:
    /// 16 bits above a 32-bit index for full-width channels, 8 bits
    /// above a 24-bit index for 32-bit-key channels, none below that
    /// (level-1-style wires keep the historical alias-on-reuse
    /// semantics — the paper's documented signal-count limitation).
    pub fn with_key_capacity(n_bits: u32, max_key: u64) -> Arc<SignalTable> {
        assert!((1..62).contains(&n_bits), "n_bits must be in 1..62");
        let (gen_bits, gen_shift) = if max_key == u64::MAX {
            (16u32, 32u32)
        } else if max_key >= u32::MAX as u64 {
            (8, 24)
        } else {
            (0, 64)
        };
        Arc::new(SignalTable {
            slots: Slots::new(),
            alloc: Mutex::new(AllocState {
                free: Vec::new(),
                next_idx: 1,
            }),
            live: AtomicUsize::new(0),
            n_bits,
            gen_bits,
            gen_shift,
            stats: SignalStats::default(),
        })
    }

    /// The event-field width `N`.
    pub fn n_bits(&self) -> u32 {
        self.n_bits
    }

    /// Number of live signals (diagnostics).
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Slots of the published segments ([`SegSlots::capacity`]): the
    /// headroom already paid for, not a limit.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// `(live, capacity)` occupancy probe for admission controllers.
    ///
    /// Both values are single relaxed atomic loads — cheap enough to
    /// consult on every admit decision, and they never perturb the
    /// table (no lock, no metric, no allocation), so seeded runs that
    /// merely *probe* stay byte-identical.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.live(), self.capacity())
    }

    /// Width of the generation field in keys (diagnostics/tests).
    pub fn gen_bits(&self) -> u32 {
        self.gen_bits
    }

    fn split_key(&self, key: u64) -> (u64, u64) {
        if self.gen_bits == 0 {
            (0, key)
        } else {
            (key >> self.gen_shift, key & ((1u64 << self.gen_shift) - 1))
        }
    }

    /// The inner of slot `idx`; `None` for a slot never allocated.
    fn slot(&self, idx: u64) -> Option<&SignalInner> {
        self.slots.get(idx).map(|inner| &**inner)
    }

    /// Allocate a signal that triggers after `num_event` events.
    pub fn alloc(self: &Arc<Self>, num_event: i64) -> Signal {
        assert!(num_event >= 1, "a signal needs at least one event");
        assert!(
            num_event < (1i64 << self.n_bits),
            "num_event {} does not fit in {} event bits",
            num_event,
            self.n_bits
        );
        let mut a = self.alloc.lock();
        let idx = match a.free.pop() {
            Some(i) => i,
            None => {
                let i = a.next_idx;
                a.next_idx = a.next_idx.checked_add(1).expect("signal table exhausted");
                i
            }
        };
        // Arm the slot's SignalInner, made on its first allocation and
        // re-armed by every later one: the previous Signal handle was
        // dropped (release ran), so no live handle observes the re-arm,
        // and an apply sees these stores once it sees the state go live.
        // Made (and its segment published) on the slot's first
        // allocation; under the alloc lock, so segments grow in
        // allocation order.
        let inner = self.slots.get_or_init(idx, Default::default);
        let old = inner.state.load(Ordering::Relaxed);
        debug_assert_eq!(old & SLOT_LIVE, 0, "allocating a live slot");
        // First use keeps generation 0 (keys identical to the un-tagged
        // scheme); reallocation bumps it, wrapping within gen_bits.
        let gen = if old & SLOT_USED == 0 || self.gen_bits == 0 {
            old >> SLOT_GEN_SHIFT
        } else {
            ((old >> SLOT_GEN_SHIFT) + 1) & ((1u64 << self.gen_bits) - 1)
        };
        inner.counter.store(num_event, Ordering::SeqCst);
        inner.num_event.store(num_event, Ordering::SeqCst);
        *inner.waiter.lock() = None;
        inner.state.store(
            (gen << SLOT_GEN_SHIFT) | SLOT_USED | SLOT_LIVE,
            Ordering::Release,
        );
        self.live.fetch_add(1, Ordering::Relaxed);
        drop(a);
        let key = if self.gen_bits == 0 {
            idx as u64
        } else {
            (gen << self.gen_shift) | idx as u64
        };
        Signal {
            inner: Arc::clone(inner),
            table: Arc::clone(self),
            key,
        }
    }

    /// The polling agent's / level-4 NIC's `*p += a`, lock-free. Must
    /// run in scheduler context (it may wake a waiting actor). `key` 0
    /// is the null signal (no-op); a stale key — freed slot, or freed
    /// and reallocated under a new generation — is tolerated and
    /// counted, like RMA writes to deregistered memory.
    pub fn apply(&self, sched: &mut Sched, t: Ns, key: u64, addend: i64) {
        if self.try_apply(sched, t, key, addend).is_err() {
            self.stats.stale_rejects.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// [`SignalTable::apply`] that reports stale keys to the caller
    /// instead of just counting them.
    ///
    /// Concurrency contract: the live/generation check and the counter
    /// add are two separate atomics, so an apply racing a *free +
    /// reallocate* of the same slot (from another thread, in the
    /// nanoseconds between check and add) could deposit a stale addend
    /// on the new generation — the same hazard as real RDMA traffic
    /// in flight to a re-registered buffer. Freeing a signal while its
    /// notifications are still in flight was undefined before this
    /// refactor too (the addend landed on a detached counter); the
    /// generation tag narrows the exposure to that release/realloc
    /// window instead of the whole slot lifetime.
    pub fn try_apply(
        &self,
        sched: &mut Sched,
        t: Ns,
        key: u64,
        addend: i64,
    ) -> Result<(), SignalError> {
        let applied = self.apply_detached(key, addend)?;
        if let Some(w) = applied.waiter {
            sched.wake(w, t);
        }
        Ok(())
    }

    /// The scheduler-free core of [`SignalTable::try_apply`]: performs
    /// the lock-free liveness/generation check and the counter
    /// `fetch_add`, takes the parked waiter (if the add triggered or
    /// overflowed the signal) and hands it back instead of waking it.
    ///
    /// Simnet backends wrap this and wake through [`Sched`]; real-time
    /// backends (`unr-netfab`) wrap it and notify a condvar. The atomic
    /// sequence is identical either way, which is what keeps the
    /// simulated schedule — and the golden determinism traces —
    /// byte-stable across backends.
    pub fn apply_detached(&self, key: u64, addend: i64) -> Result<Applied, SignalError> {
        if key == 0 {
            return Ok(Applied {
                triggered: false,
                waiter: None,
            });
        }
        let (gen, idx) = self.split_key(key);
        let Some(inner) = self.slot(idx) else {
            return Err(SignalError::Stale { key });
        };
        let state = inner.state.load(Ordering::Acquire);
        if state & SLOT_LIVE == 0 || state >> SLOT_GEN_SHIFT != gen {
            return Err(SignalError::Stale { key });
        }
        self.stats.events_applied.fetch_add(1, Ordering::Relaxed);
        let new = inner.counter.fetch_add(addend, Ordering::SeqCst) + addend;
        if new == 0 || (new >> self.n_bits) & 1 == 1 {
            // Triggered (or overflowed): take the waiter for the caller.
            return Ok(Applied {
                triggered: true,
                waiter: inner.waiter.lock().take(),
            });
        }
        Ok(Applied {
            triggered: false,
            waiter: None,
        })
    }

    /// [`SignalTable::apply_detached`] that counts stale keys like
    /// [`SignalTable::apply`] instead of reporting them. Backend-neutral
    /// sink entry point for real-transport completion threads.
    pub fn apply_counted(&self, key: u64, addend: i64) -> Applied {
        match self.apply_detached(key, addend) {
            Ok(a) => a,
            Err(_) => {
                self.stats.stale_rejects.fetch_add(1, Ordering::Relaxed);
                Applied {
                    triggered: false,
                    waiter: None,
                }
            }
        }
    }

    /// FNV-1a fingerprint of the table's observable state: every
    /// allocated slot's index, state word (liveness + generation) and —
    /// when live — its counter value. Two seeded runs of the same
    /// workload that end with byte-identical signal tables hash equal
    /// no matter which progress mode applied the addends; the
    /// hardware/software equivalence tests key on this.
    pub fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        // The alloc lock pins the slot population; the counters stay
        // atomic reads (callers fingerprint quiesced tables).
        let a = self.alloc.lock();
        for idx in 1..a.next_idx as u64 {
            let Some(inner) = self.slot(idx) else {
                continue;
            };
            let state = inner.state.load(Ordering::Acquire);
            mix(idx);
            mix(state);
            if state & SLOT_LIVE != 0 {
                mix(inner.counter.load(Ordering::SeqCst) as u64);
            }
        }
        drop(a);
        h
    }

    fn release(&self, key: u64) {
        if key == 0 {
            return;
        }
        let (gen, idx) = self.split_key(key);
        let a = self.alloc.lock();
        let inner = self.slot(idx).expect("releasing an unallocated slot");
        debug_assert_eq!(inner.state.load(Ordering::Relaxed) >> SLOT_GEN_SHIFT, gen);
        inner
            .state
            .store((gen << SLOT_GEN_SHIFT) | SLOT_USED, Ordering::Release);
        self.live.fetch_sub(1, Ordering::Relaxed);
        let mut a = a;
        a.free.push(idx as u32);
    }
}

/// A notifiable-RMA signal (the paper's `signal_t`).
///
/// Dropping the signal frees its table slot.
pub struct Signal {
    inner: Arc<SignalInner>,
    table: Arc<SignalTable>,
    key: u64,
}

impl Signal {
    /// The table key (the paper's pointer `p`, as transported in custom
    /// bits), as a typed [`SigKey`].
    pub fn key(&self) -> SigKey {
        SigKey(self.key)
    }

    /// Current raw counter value (diagnostics, tests).
    pub fn counter(&self) -> i64 {
        self.inner.counter.load(Ordering::SeqCst)
    }

    /// The configured number of events.
    pub fn num_event(&self) -> i64 {
        self.inner.num_event.load(Ordering::SeqCst)
    }

    /// Has the signal triggered (counter == 0)?
    pub fn test(&self) -> bool {
        self.counter() == 0
    }

    /// Is the overflow-detect bit set?
    pub fn overflowed(&self) -> bool {
        self.inner.overflow_bit(self.table.n_bits)
    }

    /// Triggered-or-overflowed check: what ends a wait on the signal.
    pub(crate) fn ready(&self, n_bits: u32) -> bool {
        let c = self.inner.counter.load(Ordering::SeqCst);
        c == 0 || (c >> n_bits) & 1 == 1
    }

    pub(crate) fn n_bits(&self) -> u32 {
        self.table.n_bits
    }

    /// Park `me` as this signal's waiter (for borrowed wait closures).
    pub(crate) fn register_waiter(&self, me: ActorId) {
        *self.inner.waiter.lock() = Some(me);
    }

    /// Re-arm the signal for the next epoch (`UNR_Sig_Reset`).
    ///
    /// **Bug-avoiding check**: must be called only after the buffers
    /// guarded by this signal are ready for the next epoch's RMA. If the
    /// counter is not zero — a peer's message arrived *before* this rank
    /// was ready, or the previous epoch never completed — the reset is
    /// still performed but the synchronization error is reported.
    pub fn reset(&self) -> Result<(), SignalError> {
        let num = self.num_event();
        let old = self.inner.counter.swap(num, Ordering::SeqCst);
        if old != 0 {
            self.table
                .stats
                .reset_errors
                .fetch_add(1, Ordering::Relaxed);
            return Err(SignalError::ResetWhileActive { counter: old });
        }
        Ok(())
    }

    /// Change the event count and re-arm (convenience for plans whose
    /// shape changes between epochs).
    pub fn reset_with(&self, num_event: i64) -> Result<(), SignalError> {
        assert!(num_event >= 1 && num_event < (1i64 << self.table.n_bits));
        self.inner.num_event.store(num_event, Ordering::SeqCst);
        self.reset()
    }
}

impl Drop for Signal {
    fn drop(&mut self) {
        self.table.release(self.key);
    }
}

impl std::fmt::Debug for Signal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Signal")
            .field("key", &self.key)
            .field("counter", &self.counter())
            .field("num_event", &self.num_event())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Drive `apply` outside a live simulation by borrowing a scratch
    /// scheduler.
    fn with_sched(f: impl FnOnce(&mut Sched, &dyn Fn(&mut Sched)) + Send + 'static) {
        let core = unr_simnet::SimCore::new(unr_simnet::SEC);
        let h = core.register_actor("t", 0);
        std::thread::spawn(move || {
            h.begin();
            h.with_sched(|st, _t| f(st, &|_| {}));
            h.end();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn single_event_triggers_at_zero() {
        let table = SignalTable::new(32);
        let sig = table.alloc(1);
        assert!(!sig.test());
        with_sched({
            let table = Arc::clone(&table);
            let key = sig.key().raw();
            move |st, _| table.apply(st, 0, key, -1)
        });
        assert!(sig.test());
        assert!(!sig.overflowed());
    }

    #[test]
    fn multi_event_aggregation() {
        let table = SignalTable::new(32);
        let sig = table.alloc(3);
        for i in 0..3 {
            assert!(!sig.test(), "not triggered after {i} events");
            with_sched({
                let table = Arc::clone(&table);
                let key = sig.key().raw();
                move |st, _| table.apply(st, 0, key, -1)
            });
        }
        assert!(sig.test());
    }

    #[test]
    fn striped_addends_net_to_minus_one() {
        for n_bits in [8u32, 16, 32] {
            for k in 1..=8usize {
                let a = striped_addends(k, n_bits);
                assert_eq!(a.len(), k);
                assert_eq!(a.iter().sum::<i64>(), -1, "k={k} n_bits={n_bits}");
            }
        }
    }

    #[test]
    fn striped_arrivals_any_order_trigger_exactly_at_completion() {
        // Figure 2 scenario: one signal expects 2 messages; message A is
        // striped over 4 NICs, message B over 1. Try several arrival
        // permutations of A's sub-messages.
        let n_bits = 32;
        let orders: Vec<Vec<usize>> = vec![
            vec![0, 1, 2, 3],
            vec![3, 2, 1, 0],
            vec![1, 3, 0, 2],
            vec![2, 0, 3, 1],
        ];
        for order in orders {
            let table = SignalTable::new(n_bits);
            let sig = table.alloc(2);
            let a = striped_addends(4, n_bits);
            // B arrives first.
            with_sched({
                let t = Arc::clone(&table);
                let key = sig.key().raw();
                move |st, _| t.apply(st, 0, key, -1)
            });
            assert!(!sig.test());
            for (i, &idx) in order.iter().enumerate() {
                assert!(!sig.test(), "premature trigger before sub {i}");
                with_sched({
                    let t = Arc::clone(&table);
                    let key = sig.key().raw();
                    let add = a[idx];
                    move |st, _| t.apply(st, 0, key, add)
                });
            }
            assert!(sig.test(), "order {order:?} must trigger at completion");
            assert!(!sig.overflowed());
        }
    }

    #[test]
    fn overflow_bit_detects_extra_events() {
        let table = SignalTable::new(8);
        let sig = table.alloc(1);
        for _ in 0..2 {
            with_sched({
                let t = Arc::clone(&table);
                let key = sig.key().raw();
                move |st, _| t.apply(st, 0, key, -1)
            });
        }
        assert!(sig.overflowed(), "second event must set the overflow bit");
    }

    /// An engine over the recording transport whose park only asks the
    /// wait loop to test its signals again.
    fn waiting_engine() -> crate::post::Unr<crate::post::tests::Fake> {
        use crate::{channel::Channel, retry::Route, wait::Woke};
        let unr = crate::post::tests::engine(Channel::glex(), false, false, Route::Rma, None);
        *unr.tx.park.lock() = Box::new(|_| Woke::Retest);
        unr
    }

    #[test]
    fn overflow_wait_reports_error_and_counts_it() {
        // num_event + 1 arrivals: the overflow-detect bit must be set and
        // a wait observing it must return EventOverflow and bump
        // SignalStats::overflow_errors.
        let unr = waiting_engine();
        let sig = unr.sig_init(1);
        unr.table().apply_counted(sig.key().raw(), -1);
        unr.table().apply_counted(sig.key().raw(), -1); // the extra event
        assert!(sig.overflowed());
        let err = unr.sig_wait(&sig).unwrap_err();
        assert!(matches!(
            err,
            crate::UnrError::Signal(SignalError::EventOverflow { .. })
        ));
        assert_eq!(
            unr.signal_stats().overflow_errors.load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn clean_wait_leaves_overflow_stats_untouched() {
        let unr = waiting_engine();
        let sig = unr.sig_init(2);
        unr.table().apply_counted(sig.key().raw(), -1);
        unr.table().apply_counted(sig.key().raw(), -1);
        unr.sig_wait(&sig).unwrap();
        assert_eq!(
            unr.signal_stats().overflow_errors.load(Ordering::Relaxed),
            0
        );
    }

    #[test]
    fn striped_addends_exact_for_every_nic_count() {
        // Satellite spec: the sum of addends is exactly -1 for k in 1..=8
        // at every realistic event-field width, and the group reaches
        // zero only at the final sub-message regardless of order.
        for n_bits in 1..=40u32 {
            for k in 1..=8usize {
                let a = striped_addends(k, n_bits);
                assert_eq!(a.iter().sum::<i64>(), -1, "k={k} n_bits={n_bits}");
                // Partial sums starting from num_event=1 never hit zero
                // before the end (forward order).
                let mut c = 1i64;
                for (i, &x) in a.iter().enumerate() {
                    c += x;
                    if i + 1 < k {
                        assert_ne!(c, 0, "premature zero at {i} (k={k})");
                    }
                }
                assert_eq!(c, 0);
            }
        }
    }

    #[test]
    fn reset_detects_early_arrival() {
        let table = SignalTable::new(32);
        let sig = table.alloc(1);
        // An event arrives before the first epoch even started — the
        // reset must flag it.
        with_sched({
            let t = Arc::clone(&table);
            let key = sig.key().raw();
            move |st, _| t.apply(st, 0, key, -1)
        });
        assert!(sig.test());
        assert!(sig.reset().is_ok(), "triggered -> reset is clean");
        // Now an extra unexpected event:
        with_sched({
            let t = Arc::clone(&table);
            let key = sig.key().raw();
            move |st, _| t.apply(st, 0, key, -1)
        });
        with_sched({
            let t = Arc::clone(&table);
            let key = sig.key().raw();
            move |st, _| t.apply(st, 0, key, -1)
        });
        let err = sig.reset().unwrap_err();
        assert!(matches!(err, SignalError::ResetWhileActive { .. }));
        assert_eq!(table.stats.reset_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reset_rearms_counter() {
        let table = SignalTable::new(32);
        let sig = table.alloc(2);
        for _ in 0..2 {
            with_sched({
                let t = Arc::clone(&table);
                let key = sig.key().raw();
                move |st, _| t.apply(st, 0, key, -1)
            });
        }
        assert!(sig.test());
        sig.reset().unwrap();
        assert!(!sig.test());
        assert_eq!(sig.counter(), 2);
    }

    #[test]
    fn reset_with_changes_num_event() {
        let table = SignalTable::new(16);
        let sig = table.alloc(1);
        with_sched({
            let t = Arc::clone(&table);
            let key = sig.key().raw();
            move |st, _| t.apply(st, 0, key, -1)
        });
        sig.reset_with(5).unwrap();
        assert_eq!(sig.counter(), 5);
        assert_eq!(sig.num_event(), 5);
    }

    #[test]
    fn null_key_is_ignored() {
        let table = SignalTable::new(32);
        with_sched({
            let t = Arc::clone(&table);
            move |st, _| t.apply(st, 0, 0, -1)
        });
        assert_eq!(table.stats.events_applied.load(Ordering::Relaxed), 0);
        assert_eq!(table.stats.stale_rejects.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn freed_slot_is_reused_under_a_new_generation() {
        let table = SignalTable::new(32);
        let k1 = {
            let s = table.alloc(1);
            s.key().raw()
        };
        let s2 = table.alloc(1);
        let k2 = s2.key().raw();
        // Same slot index (the slab recycles), different generation
        // (stale keys must not alias the new signal).
        assert_eq!(k2 & 0xFFFF_FFFF, k1 & 0xFFFF_FFFF, "slot must be recycled");
        assert_ne!(k2, k1, "recycled slot must get a fresh generation");
        assert_eq!(k2 >> 32, (k1 >> 32) + 1);
        assert_eq!(table.live(), 1);
    }

    #[test]
    fn stale_key_is_rejected_after_realloc() {
        // The satellite regression: free -> realloc -> apply with the
        // *old* key. The new signal's counter must not move, the stale
        // apply must be counted, and try_apply must say Stale.
        let table = SignalTable::new(32);
        let k1 = {
            let s = table.alloc(1);
            s.key().raw()
        };
        let s2 = table.alloc(1);
        with_sched({
            let t = Arc::clone(&table);
            move |st, _| {
                assert!(matches!(
                    t.try_apply(st, 0, k1, -1),
                    Err(SignalError::Stale { key }) if key == k1
                ));
                t.apply(st, 0, k1, -1); // tolerated, counted
            }
        });
        assert_eq!(s2.counter(), 1, "stale key must not touch the new signal");
        assert_eq!(table.stats.stale_rejects.load(Ordering::Relaxed), 1);
        assert_eq!(table.stats.events_applied.load(Ordering::Relaxed), 0);
        // The *current* key still works.
        let k2 = s2.key().raw();
        with_sched({
            let t = Arc::clone(&table);
            move |st, _| t.apply(st, 0, k2, -1)
        });
        assert!(s2.test());
    }

    #[test]
    fn narrow_key_capacity_disables_generation_tags() {
        // Level-1-style wire (8-bit keys): no room for a generation
        // field, so reuse aliases exactly like the historical scheme —
        // the paper's documented limitation for such NICs.
        let table = SignalTable::with_key_capacity(4, 255);
        assert_eq!(table.gen_bits(), 0);
        let k1 = {
            let s = table.alloc(1);
            s.key().raw()
        };
        let s2 = table.alloc(1);
        assert_eq!(s2.key().raw(), k1, "narrow keys must stay bit-identical");
        assert_eq!(table.live(), 1);
    }

    #[test]
    fn mid_capacity_gets_a_narrow_generation_field() {
        // 32-bit-key wire (Split64 / verbs): 8 generation bits above a
        // 24-bit index — reuse is tagged and the key still encodes.
        let table = SignalTable::with_key_capacity(8, u32::MAX as u64);
        assert_eq!(table.gen_bits(), 8);
        let k1 = {
            let s = table.alloc(1);
            s.key().raw()
        };
        let s2 = table.alloc(1);
        assert_ne!(s2.key().raw(), k1);
        assert!(s2.key().raw() <= u32::MAX as u64, "key must fit the wire");
    }

    #[test]
    fn apply_after_free_is_tolerated() {
        let table = SignalTable::new(32);
        let key = {
            let s = table.alloc(1);
            s.key().raw()
        };
        with_sched({
            let t = Arc::clone(&table);
            move |st, _| t.apply(st, 0, key, -1)
        });
        // No panic; no event counted against a live signal.
        assert_eq!(table.live(), 0);
        assert_eq!(table.stats.events_applied.load(Ordering::Relaxed), 0);
        assert_eq!(table.stats.stale_rejects.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn slots_span_segment_boundaries() {
        // Allocate past the first 1024-slot segment to exercise the
        // geometric growth path, then verify a far slot still applies
        // lock-free and that indices are assigned sequentially.
        let table = SignalTable::new(32);
        let sigs: Vec<Signal> = (0..3000).map(|_| table.alloc(1)).collect();
        for (i, s) in sigs.iter().enumerate() {
            assert_eq!(s.key().raw(), i as u64 + 1, "sequential index assignment");
        }
        let far = sigs.last().unwrap();
        let key = far.key().raw();
        with_sched({
            let t = Arc::clone(&table);
            move |st, _| t.apply(st, 0, key, -1)
        });
        assert!(far.test());
        assert_eq!(table.live(), 3000);
    }

    /// One thread applies −1/+1 to 1 000 live signals in segment 0
    /// while another allocates until segments 1 and 2 are published,
    /// then releases what it allocated. No live key may read stale,
    /// every live counter must end where it began, and the table must
    /// end as a single-threaded replay of the same allocations leaves
    /// it.
    #[test]
    fn apply_races_segment_publication() {
        const LIVE: usize = 1000;
        // Indices 1001..=3072: the last one opens segment 2.
        const GROWN: usize = 3072 - LIVE;
        const START: i64 = 1 << 20;
        let table = SignalTable::new(32);
        let live: Vec<Signal> = (0..LIVE).map(|_| table.alloc(START)).collect();
        let keys: Vec<u64> = live.iter().map(|s| s.key().raw()).collect();
        let growing = AtomicBool::new(true);
        let rounds = std::thread::scope(|s| {
            let applier = s.spawn(|| {
                let mut rounds = 0u64;
                while growing.load(Ordering::Acquire) || rounds < 2 {
                    for addend in [-1, 1] {
                        for &k in &keys {
                            table.apply_counted(k, addend);
                        }
                    }
                    rounds += 1;
                }
                rounds
            });
            let grown: Vec<Signal> = (0..GROWN).map(|_| table.alloc(1)).collect();
            assert_eq!(table.capacity(), 7168, "segments 0, 1 and 2");
            drop(grown);
            growing.store(false, Ordering::Release);
            applier.join().unwrap()
        });
        assert_eq!(table.stats.stale_rejects.load(Ordering::Relaxed), 0);
        assert_eq!(
            table.stats.events_applied.load(Ordering::Relaxed),
            rounds * 2 * LIVE as u64
        );
        assert!(live.iter().all(|s| s.counter() == START));
        assert_eq!(table.capacity(), 7168);
        let replay = SignalTable::new(32);
        let _live: Vec<Signal> = (0..LIVE).map(|_| replay.alloc(START)).collect();
        drop((0..GROWN).map(|_| replay.alloc(1)).collect::<Vec<_>>());
        assert_eq!(table.fingerprint(), replay.fingerprint());
    }

    #[test]
    fn capacity_counts_the_published_segments() {
        let table = SignalTable::new(32);
        assert_eq!(table.occupancy(), (0, 0));
        let mut sigs = vec![table.alloc(1)];
        assert_eq!(table.capacity(), 1024, "segment 0");
        sigs.extend((1..1023).map(|_| table.alloc(1)));
        assert_eq!(table.capacity(), 1024, "index 1023 is segment 0's last");
        sigs.push(table.alloc(1));
        assert_eq!(table.capacity(), 1024 + 2048, "index 1024 opens segment 1");
        sigs.extend((1024..3072).map(|_| table.alloc(1)));
        assert_eq!(
            table.occupancy(),
            (3072, 7168),
            "index 3072 opens segment 2"
        );
        drop(sigs);
        assert_eq!(
            table.occupancy(),
            (0, 7168),
            "segments are never taken back"
        );
    }

    #[test]
    fn num_event_capacity_bounds() {
        let table = SignalTable::new(4);
        let _ok = table.alloc(15); // 2^4 - 1
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn num_event_over_capacity_panics() {
        let table = SignalTable::new(4);
        let _ = table.alloc(16);
    }
}
