//! The conservative discrete-event scheduler.
//!
//! Every participant in a simulation — application ranks, library-internal
//! agents such as the UNR polling thread — is an **actor**: a real OS
//! thread with a *local virtual clock*. The scheduler enforces a single
//! global rule: at any instant, the runnable entity (ready actor or
//! pending fabric event) with the smallest virtual timestamp executes.
//! Because nothing ever executes "in the past" of anything else, the
//! simulation is causally exact and — ties broken deterministically —
//! bit-reproducible across runs.
//!
//! Actors interact with the simulation only through the methods on
//! [`SimCore`] (via their [`ActorHandle`]). Between calls they run
//! arbitrary Rust code; that code cannot observe simulation state, so its
//! real-time interleaving is irrelevant.
//!
//! Events are boxed closures run *inside* the scheduler loop with the
//! scheduler state borrowed mutably; they perform fabric effects (memory
//! writes, queue pushes) and wake blocked actors.
//!
//! One actor thread runs at a time; the others wait, each on its own
//! baton (a `Condvar` per actor, all paired with the one state mutex).
//! `current` only ever changes inside `Sched::dispatch`, which tells
//! its caller whom it newly selected; the caller notifies exactly that
//! baton, or none if it selected the caller again. Waiters test
//! `current` under the mutex, so a notify that finds its target not yet
//! waiting is not needed either (DESIGN.md §5, "Time model").

use crate::sync::{Condvar, Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use unr_obs::Counter;

use crate::time::Ns;

/// Identifies an actor within one [`SimCore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub(crate) usize);

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// A fabric event: a timestamped effect applied inside the scheduler.
pub(crate) struct EventEntry {
    pub t: Ns,
    pub seq: u64,
    pub f: Box<dyn FnOnce(&mut Sched) + Send>,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t, self.seq).cmp(&(other.t, other.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ActorState {
    /// Registered, but its thread has not called `begin()` yet.
    NotStarted,
    /// Currently chosen to execute.
    Running,
    /// Wants to execute; in the ready heap.
    Ready,
    /// Parked until another entity wakes it.
    Blocked,
    /// Finished; never runs again.
    Finished,
}

struct ActorSlot {
    t: Ns,
    state: ActorState,
    name: String,
    /// What the actor's thread waits on until it is `current`.
    baton: Arc<Condvar>,
}

/// Scheduler state. All mutation happens under one mutex; events run with
/// this borrowed mutably.
pub struct Sched {
    actors: Vec<ActorSlot>,
    /// Min-heap of (time, actor-id) for Ready actors. A `Ready` slot
    /// always has an entry at its `t` here (`t` only changes while
    /// `Running`), so only the transition into `Ready` pushes.
    ready: BinaryHeap<Reverse<(Ns, usize)>>,
    events: BinaryHeap<Reverse<EventEntry>>,
    current: Option<usize>,
    last_selected: Option<usize>,
    /// Selections that differed from `last_selected`.
    switches: Arc<Counter>,
    /// Smallest (start time, id) among registered actors whose thread
    /// has not called `begin()` yet; `None` once all have.
    gate: Option<(Ns, usize)>,
    live: usize,
    event_seq: u64,
    /// Total events executed (for diagnostics).
    pub(crate) events_run: u64,
    /// Virtual-time ceiling; exceeding it panics (runaway guard).
    cap: Ns,
}

impl Sched {
    /// Schedule an event at absolute virtual time `t`.
    pub fn schedule_at(&mut self, t: Ns, f: impl FnOnce(&mut Sched) + Send + 'static) {
        let seq = self.event_seq;
        self.event_seq += 1;
        self.events.push(Reverse(EventEntry {
            t,
            seq,
            f: Box::new(f),
        }));
    }

    /// Wake a blocked actor so it becomes ready no earlier than `t`.
    ///
    /// No-op if the actor is already ready, running, or finished: wakes
    /// are level-triggered; the woken actor re-checks its predicate.
    pub fn wake(&mut self, id: ActorId, t: Ns) {
        let slot = &mut self.actors[id.0];
        if slot.state == ActorState::Blocked {
            slot.t = slot.t.max(t);
            slot.state = ActorState::Ready;
            self.ready.push(Reverse((slot.t, id.0)));
        }
    }

    /// Wake every blocked actor at `t` (level-triggered, like
    /// [`Sched::wake`]). Used by membership changes — a rank kill or
    /// revive must force every parked waiter to re-evaluate its
    /// predicate, since the condition it is waiting on may now be
    /// unsatisfiable (the addend's source rank died) or newly
    /// satisfiable (the rank rejoined).
    pub fn wake_all(&mut self, t: Ns) {
        for id in 0..self.actors.len() {
            self.wake(ActorId(id), t);
        }
    }

    /// Local virtual time of an actor.
    pub fn actor_time(&self, id: ActorId) -> Ns {
        self.actors[id.0].t
    }

    fn ready_min(&mut self) -> Option<(Ns, usize)> {
        // Lazily drop stale heap entries (an actor may have been woken,
        // chosen, blocked and re-woken, leaving duplicates behind).
        while let Some(&Reverse((t, id))) = self.ready.peek() {
            let slot = &self.actors[id];
            if slot.state == ActorState::Ready && slot.t == t {
                return Some((t, id));
            }
            self.ready.pop();
        }
        None
    }

    fn start_gate(&self) -> Option<(Ns, usize)> {
        self.actors
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == ActorState::NotStarted)
            .map(|(id, s)| (s.t, id))
            .min()
    }

    /// Core dispatch loop: run due events and select the next actor.
    /// Events win ties against actors (an arrival "at" time t is visible
    /// to an actor acting at t).
    ///
    /// Registered-but-not-started actors gate progress: nothing may
    /// execute past the earliest pending (start time, id), otherwise a
    /// slow OS thread spawn would let the simulation run ahead of an
    /// actor's causal past — or, at equal times, let the order in which
    /// the OS gets threads to `begin()` decide who runs first.
    ///
    /// Returns the actor this call selected, for `hand_off` to notify;
    /// `None` if an actor was already running or nothing can run yet.
    fn dispatch(&mut self) -> Option<usize> {
        if self.current.is_some() {
            return None;
        }
        loop {
            let a = self
                .ready_min()
                .filter(|&a| self.gate.is_none_or(|g| a < g));
            let gate = self.gate.map(|(g, _)| g);
            let run_event = match (self.events.peek(), a) {
                (Some(Reverse(e)), Some((ta, _))) => {
                    e.t <= ta && gate.is_none_or(|g| e.t <= g)
                }
                (Some(Reverse(e)), None) => gate.is_none_or(|g| e.t <= g),
                (None, _) => false,
            };
            if run_event {
                let Reverse(ev) = self.events.pop().expect("peeked");
                if ev.t > self.cap {
                    panic!(
                        "simulation exceeded virtual time cap ({} ns > {} ns); \
                         likely a livelock or runaway agent",
                        ev.t, self.cap
                    );
                }
                self.events_run += 1;
                (ev.f)(self);
                continue;
            }
            let Some((_, id)) = a else {
                // No events, no ready actors. If some actor has not
                // started yet, simply wait for its begin() (it will
                // re-dispatch); only report deadlock when every live
                // actor is genuinely blocked.
                if gate.is_none() {
                    let blocked: Vec<String> = self
                        .actors
                        .iter()
                        .filter(|s| s.state == ActorState::Blocked)
                        .map(|s| format!("{} (t={} ns)", s.name, s.t))
                        .collect();
                    if !blocked.is_empty() {
                        panic!(
                            "virtual-time deadlock: {} actor(s) blocked with no pending \
                             events: [{}]. This usually means a synchronization bug \
                             (a signal that is never triggered, or a receive without \
                             a matching send).",
                            blocked.len(),
                            blocked.join(", ")
                        );
                    }
                }
                return None; // all finished, or waiting for a begin()
            };
            // Re-fetch; the heap entry was validated by ready_min.
            self.ready.pop();
            self.actors[id].state = ActorState::Running;
            self.current = Some(id);
            if self.last_selected != Some(id) {
                self.last_selected = Some(id);
                self.switches.inc();
            }
            return Some(id);
        }
    }
}

/// The shared scheduler.
pub struct SimCore {
    state: Mutex<Sched>,
    poisoned: AtomicBool,
    /// Batons notified, and waits that returned when it was not the
    /// actor's turn: wall-clock facts, so tests read them and the
    /// (deterministic) metrics registry does not.
    wakes: AtomicU64,
    spurious_wakes: AtomicU64,
}

impl SimCore {
    /// Create a scheduler with a virtual-time ceiling (runaway guard).
    pub fn new(virtual_time_cap: Ns) -> Arc<Self> {
        Self::with_switch_counter(virtual_time_cap, Arc::default())
    }

    /// Like [`SimCore::new`], counting [`SimCore::switches`] in a
    /// caller-provided counter (the fabric's `simnet.sched.switches`).
    pub fn with_switch_counter(virtual_time_cap: Ns, switches: Arc<Counter>) -> Arc<Self> {
        Arc::new(SimCore {
            state: Mutex::new(Sched {
                actors: Vec::new(),
                ready: BinaryHeap::new(),
                events: BinaryHeap::new(),
                current: None,
                last_selected: None,
                switches,
                gate: None,
                live: 0,
                event_seq: 0,
                events_run: 0,
                cap: virtual_time_cap,
            }),
            poisoned: AtomicBool::new(false),
            wakes: AtomicU64::new(0),
            spurious_wakes: AtomicU64::new(0),
        })
    }

    /// Register a new actor starting at virtual time `t0`. The actor does
    /// not run until its thread calls [`ActorHandle::begin`].
    pub fn register_actor(self: &Arc<Self>, name: &str, t0: Ns) -> ActorHandle {
        let mut st = self.state.lock();
        let id = st.actors.len();
        st.actors.push(ActorSlot {
            t: t0,
            state: ActorState::NotStarted,
            name: name.to_string(),
            baton: Arc::default(),
        });
        st.gate = Some(st.gate.map_or((t0, id), |g| g.min((t0, id))));
        st.live += 1;
        ActorHandle {
            core: Arc::clone(self),
            id: ActorId(id),
        }
    }

    /// Total events executed so far (diagnostic).
    pub fn events_run(&self) -> u64 {
        self.state.lock().events_run
    }

    /// Selections so far that changed the running actor: a function of
    /// the seed, like every simulated timestamp.
    pub fn switches(&self) -> u64 {
        self.state.lock().switches.get()
    }

    fn check_poison(&self) {
        if self.poisoned.load(Ordering::Relaxed) {
            panic!("simulation previously panicked; scheduler is poisoned");
        }
    }

    /// Dispatch, unlock, then notify the actor that was newly selected —
    /// nobody if that is `me` or no one. In that order: a thread woken
    /// while we still hold the lock runs into it and sleeps a second
    /// time, which halved `sim-serve`'s rate on one core.
    fn hand_off(&self, mut st: MutexGuard<'_, Sched>, me: ActorId) {
        let selected = st.dispatch().filter(|&id| id != me.0);
        let baton = selected.map(|id| Arc::clone(&st.actors[id].baton));
        drop(st);
        if let Some(baton) = baton {
            self.wakes.fetch_add(1, Ordering::Relaxed);
            baton.notify_one();
        }
    }

    /// [`SimCore::hand_off`], then wait until `current == me`; returns
    /// with the lock held. Poison is checked under the lock before every
    /// wait, see [`ActorHandle::poison`]: a panicked rank never yields
    /// currency, so no later dispatch would ever pick us.
    fn park(&self, st: MutexGuard<'_, Sched>, me: ActorId) -> MutexGuard<'_, Sched> {
        let baton = Arc::clone(&st.actors[me.0].baton);
        self.hand_off(st, me);
        let mut st = self.state.lock();
        loop {
            self.check_poison();
            if st.current == Some(me.0) {
                return st;
            }
            st = baton.wait(st);
            if st.current != Some(me.0) {
                self.spurious_wakes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Become the scheduled (minimum-time) entity. Returns with the lock
    /// held and `current == me`.
    fn acquire(&self, me: ActorId) -> MutexGuard<'_, Sched> {
        let st = self.state.lock();
        self.check_poison();
        if st.current == Some(me.0) {
            return st;
        }
        // Not current, so release() left us Ready: our heap entry stands.
        debug_assert_eq!(st.actors[me.0].state, ActorState::Ready);
        self.park(st, me)
    }

    /// Release the scheduler after an op; pick the next entity.
    fn release(&self, mut st: MutexGuard<'_, Sched>, me: ActorId) {
        debug_assert_eq!(st.current, Some(me.0));
        // Yield for real whenever someone earlier is waiting; if we are
        // still the global minimum, dispatch re-selects us and the next
        // acquire() is the no-op fast path with no context switch.
        st.current = None;
        st.actors[me.0].state = ActorState::Ready;
        let t = st.actors[me.0].t;
        st.ready.push(Reverse((t, me.0)));
        self.hand_off(st, me);
    }

    /// Run `f` as a scheduled op at the actor's current time.
    fn op<R>(&self, me: ActorId, f: impl FnOnce(&mut Sched, ActorId) -> R) -> R {
        let mut st = self.acquire(me);
        let r = f(&mut st, me);
        self.release(st, me);
        r
    }
}

/// Per-thread handle an actor uses to talk to the scheduler.
///
/// Not `Clone`: a handle identifies one OS thread's actor. Spawn agents
/// with [`SimCore::register_actor`] instead of sharing handles.
pub struct ActorHandle {
    core: Arc<SimCore>,
    id: ActorId,
}

impl fmt::Debug for ActorHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ActorHandle({})", self.id)
    }
}

impl ActorHandle {
    /// The scheduler this actor belongs to.
    pub fn core(&self) -> &Arc<SimCore> {
        &self.core
    }

    /// This actor's id.
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// First synchronization: call once at thread start.
    pub fn begin(&self) {
        let core = &self.core;
        let me = self.id;
        let mut st = core.state.lock();
        core.check_poison();
        let slot = &mut st.actors[me.0];
        debug_assert_eq!(slot.state, ActorState::NotStarted, "begin() called twice");
        slot.state = ActorState::Ready;
        let t = slot.t;
        st.ready.push(Reverse((t, me.0)));
        st.gate = st.start_gate();
        // Dispatch selects us (the gate held back nothing smaller) or
        // nobody; actors waiting at the gate are woken by our first yield.
        drop(core.park(st, me));
    }

    /// Final synchronization: call once when the actor's work is done.
    pub fn end(&self) {
        let mut st = self.core.acquire(self.id);
        st.actors[self.id.0].state = ActorState::Finished;
        st.live -= 1;
        st.current = None;
        self.core.hand_off(st, self.id);
    }

    /// Local virtual time.
    pub fn now(&self) -> Ns {
        self.core.op(self.id, |st, me| st.actors[me.0].t)
    }

    /// Advance local virtual time by `dt` (models computation or
    /// software overhead) and yield to earlier entities.
    pub fn advance(&self, dt: Ns) {
        self.core.op(self.id, |st, me| {
            st.actors[me.0].t += dt;
        });
    }

    /// Run `f`, measure its real execution time, and charge
    /// `real * scale` to the virtual clock. Because actors execute one
    /// at a time, the measurement is uncontended even on one core.
    pub fn compute_real<R>(&self, scale: f64, f: impl FnOnce() -> R) -> R {
        // Hold the scheduled slot while computing: we are the minimum-
        // time entity, nothing else may run anyway.
        let st = self.core.acquire(self.id);
        drop(st); // do not hold the lock during user code
        let start = std::time::Instant::now();
        let r = f();
        let real_ns = start.elapsed().as_nanos() as f64;
        let dt = (real_ns * scale).round() as Ns;
        // Re-acquire is the fast path: current is still us.
        self.advance(dt.max(1));
        r
    }

    /// Perform a scheduler op: read/mutate fabric state, schedule events,
    /// wake actors. `f` runs at this actor's virtual time with global
    /// minimum-time guarantee.
    pub fn with_sched<R>(&self, f: impl FnOnce(&mut Sched, Ns) -> R) -> R {
        self.core.op(self.id, |st, me| {
            let t = st.actors[me.0].t;
            f(st, t)
        })
    }

    /// Block until `pred` returns `true`. `pred` is evaluated under the
    /// scheduler lock at moments when this actor holds the global
    /// minimum; `register` is called (same context) whenever the actor is
    /// about to park, and must arrange for [`Sched::wake`] to be called
    /// when the predicate may have changed.
    ///
    /// Returns the virtual time at which the wait completed.
    pub fn wait_until(
        &self,
        mut pred: impl FnMut(&mut Sched) -> bool,
        mut register: impl FnMut(&mut Sched, ActorId),
    ) -> Ns {
        let core = &self.core;
        let mut st = core.acquire(self.id);
        loop {
            if pred(&mut st) {
                let t = st.actors[self.id.0].t;
                core.release(st, self.id);
                return t;
            }
            register(&mut st, self.id);
            st.actors[self.id.0].state = ActorState::Blocked;
            st.current = None;
            st = core.park(st, self.id);
        }
    }

    /// Sleep for `dt` virtual nanoseconds (yields to other entities).
    pub fn sleep(&self, dt: Ns) {
        let fired = Arc::new(AtomicBool::new(false));
        let mut armed = false;
        let fired_pred = Arc::clone(&fired);
        self.wait_until(
            |_st| fired_pred.load(Ordering::Relaxed),
            |st, me| {
                if !armed {
                    armed = true;
                    let t = st.actors[me.0].t + dt;
                    let flag = Arc::clone(&fired);
                    st.schedule_at(t, move |st2| {
                        flag.store(true, Ordering::Relaxed);
                        st2.wake(me, t);
                    });
                }
            },
        );
    }

    /// Mark the whole simulation poisoned (used by panic guards in the
    /// world runner so sibling actors do not hang forever).
    pub fn poison(&self) {
        self.core.poisoned.store(true, Ordering::Relaxed);
        // Serialize with actors that have read the flag as clear but are
        // not waiting yet: they hold the state lock until the wait
        // releases it atomically, so once we have had it every one of
        // them is on its baton and the notify cannot be lost. Threads
        // not in the scheduler see the flag at their next acquire().
        let st = self.core.state.lock();
        for slot in &st.actors {
            slot.baton.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SEC;
    use std::sync::atomic::{AtomicU64, Ordering as AO};

    fn run_actors<const N: usize>(fs: [Box<dyn FnOnce(ActorHandle) + Send>; N]) {
        let core = SimCore::new(100 * SEC);
        let handles: Vec<ActorHandle> = (0..N)
            .map(|i| core.register_actor(&format!("t{i}"), 0))
            .collect();
        let mut joins = Vec::new();
        for (h, f) in handles.into_iter().zip(fs) {
            joins.push(std::thread::spawn(move || {
                h.begin();
                f(h);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn advance_moves_local_clock() {
        run_actors([Box::new(|h: ActorHandle| {
            assert_eq!(h.now(), 0);
            h.advance(500);
            assert_eq!(h.now(), 500);
            h.advance(250);
            assert_eq!(h.now(), 750);
            h.end();
        })]);
    }

    #[test]
    fn actors_interleave_in_time_order() {
        // Two actors append (who, t) to a shared log; the log must be
        // sorted by virtual time regardless of OS scheduling.
        let log = Arc::new(Mutex::new(Vec::<(usize, Ns)>::new()));
        let l0 = Arc::clone(&log);
        let l1 = Arc::clone(&log);
        run_actors([
            Box::new(move |h: ActorHandle| {
                for _ in 0..10 {
                    h.advance(100);
                    // Record inside the scheduler op: between ops another
                    // actor may legitimately run.
                    h.with_sched(|_s, t| l0.lock().push((0, t)));
                }
                h.end();
            }),
            Box::new(move |h: ActorHandle| {
                for _ in 0..10 {
                    h.advance(70);
                    h.with_sched(|_s, t| l1.lock().push((1, t)));
                }
                h.end();
            }),
        ]);
        let log = log.lock();
        assert_eq!(log.len(), 20);
        let times: Vec<Ns> = log.iter().map(|&(_, t)| t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "ops must execute in virtual-time order");
    }

    #[test]
    fn sleep_wakes_at_exact_time() {
        run_actors([Box::new(|h: ActorHandle| {
            h.sleep(1_234);
            assert_eq!(h.now(), 1_234);
            h.sleep(1);
            assert_eq!(h.now(), 1_235);
            h.end();
        })]);
    }

    #[test]
    fn event_wakes_blocked_actor() {
        let flag = Arc::new(AtomicU64::new(0));
        let f0 = Arc::clone(&flag);
        let f1 = Arc::clone(&flag);
        run_actors([
            Box::new(move |h: ActorHandle| {
                // Waiter: blocks until the flag is set.
                let t = h.wait_until(
                    |_st| f0.load(AO::Relaxed) == 7,
                    |st, me| {
                        // Poll-style fallback: re-arm a wake far in the
                        // future only once; the setter wakes us directly.
                        let _ = (st, me);
                    },
                );
                // The setter fires at t=5000.
                assert_eq!(t, 5_000);
                h.end();
            }),
            Box::new(move |h: ActorHandle| {
                h.advance(10);
                h.with_sched(move |st, t| {
                    let f = Arc::clone(&f1);
                    st.schedule_at(t + 4_990, move |st2| {
                        f.store(7, AO::Relaxed);
                        st2.wake(ActorId(0), 5_000);
                    });
                });
                h.end();
            }),
        ]);
        assert_eq!(flag.load(AO::Relaxed), 7);
    }

    #[test]
    #[should_panic(expected = "virtual-time deadlock")]
    fn deadlock_is_detected() {
        // One actor waits forever on a predicate nobody sets.
        let core = SimCore::new(SEC);
        let h = core.register_actor("stuck", 0);
        let j = std::thread::spawn(move || {
            h.begin();
            h.wait_until(|_| false, |_, _| {});
        });
        let err = j.join().expect_err("thread must panic");
        std::panic::resume_unwind(err);
    }

    #[test]
    fn ties_resolve_deterministically() {
        // Many runs of two same-time actors must give identical logs.
        let mut logs = Vec::new();
        for _ in 0..5 {
            let log = Arc::new(Mutex::new(Vec::<usize>::new()));
            let l0 = Arc::clone(&log);
            let l1 = Arc::clone(&log);
            run_actors([
                Box::new(move |h: ActorHandle| {
                    for _ in 0..5 {
                        h.advance(100);
                        h.with_sched(|_s, _t| l0.lock().push(0));
                    }
                    h.end();
                }),
                Box::new(move |h: ActorHandle| {
                    for _ in 0..5 {
                        h.advance(100);
                        h.with_sched(|_s, _t| l1.lock().push(1));
                    }
                    h.end();
                }),
            ]);
            logs.push(Arc::try_unwrap(log).unwrap().into_inner());
        }
        for w in logs.windows(2) {
            assert_eq!(w[0], w[1], "tie-breaking must be deterministic");
        }
    }

    #[test]
    fn compute_real_charges_time() {
        run_actors([Box::new(|h: ActorHandle| {
            let before = h.now();
            let v = h.compute_real(1.0, || (0..1000).sum::<u64>());
            assert_eq!(v, 499_500);
            assert!(h.now() > before);
            h.end();
        })]);
    }

    /// One storm-shaped world: 8 "ranks" that compute for seeded times
    /// and ring their "agent" with a fabric event, 8 agents that block
    /// until rung. Returns (switches, batons notified, spurious wake-ups).
    fn storm_world(seed: u64) -> (u64, u64, u64) {
        const PAIRS: usize = 8;
        const ROUNDS: u64 = 50;
        let core = SimCore::new(100 * SEC);
        let handles: Vec<ActorHandle> = (0..2 * PAIRS)
            .map(|i| core.register_actor(&format!("a{i}"), 0))
            .collect();
        let bells: Vec<Arc<AtomicU64>> = (0..PAIRS).map(|_| Arc::default()).collect();
        let joins: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(i, h)| {
                let bell = Arc::clone(&bells[i % PAIRS]);
                let agent = ActorId(PAIRS + i % PAIRS);
                std::thread::spawn(move || {
                    h.begin();
                    if i < PAIRS {
                        let mut rng = crate::rng::SimRng::seed_from_u64(seed + i as u64);
                        for _ in 0..ROUNDS {
                            h.advance(rng.gen_range_u64(50, 500));
                            let bell = Arc::clone(&bell);
                            h.with_sched(move |st, t| {
                                st.schedule_at(t + 100, move |st2| {
                                    bell.fetch_add(1, AO::Relaxed);
                                    st2.wake(agent, t + 100);
                                });
                            });
                        }
                    } else {
                        for rung in 1..=ROUNDS {
                            h.wait_until(|_| bell.load(AO::Relaxed) >= rung, |_, _| {});
                            h.advance(20);
                        }
                    }
                    h.end();
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        (
            core.switches(),
            core.wakes.load(AO::Relaxed),
            core.spurious_wakes.load(AO::Relaxed),
        )
    }

    #[test]
    fn one_wake_per_switch_and_switches_follow_the_seed() {
        let one_core = std::thread::available_parallelism().is_ok_and(|n| n.get() == 1);
        let (switches, ..) = storm_world(7);
        assert!(switches > 1_000, "the world must interleave: {switches}");
        for run in 0..20 {
            let (s, wakes, spurious) = storm_world(7);
            assert_eq!(s, switches, "run {run}: switches must follow the seed");
            assert!(wakes <= s + 16, "run {run}: {wakes} wakes for {s} switches");
            // With a second core the target can take its whole turn
            // between the waker's unlock and notify, and be woken from
            // its next wait; on one core the waker gets there first.
            if one_core {
                assert_eq!(spurious, 0, "run {run}: an actor woke out of turn");
            }
        }
    }

    /// Run `victim` on a fresh thread and require it to die of the
    /// scheduler's poison panic. A lost wake-up leaves it parked for
    /// good, so wait with a deadline instead of joining.
    fn assert_poison_reaches(
        round: usize,
        victim: impl FnOnce() + Send + 'static,
        poisoner: impl FnOnce(),
    ) {
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(victim));
            let _ = done.send(r.map_err(|p| p.downcast_ref::<&str>().copied()));
        });
        poisoner();
        match outcome.recv_timeout(std::time::Duration::from_secs(20)) {
            Ok(Err(Some(msg))) if msg.contains("scheduler is poisoned") => {}
            Ok(other) => panic!("round {round}: victim ended with {other:?}"),
            Err(_) => panic!("round {round}: victim is stranded — poison never woke it"),
        }
    }

    #[test]
    fn poison_reaches_an_actor_parked_in_begin() {
        for round in 0..100 {
            let core = SimCore::new(SEC);
            // The gate: registered at t=0, its thread never arrives.
            let absent = core.register_actor("absent", 0);
            let victim = core.register_actor("victim", 10);
            let start = Arc::new(std::sync::Barrier::new(2));
            let start2 = Arc::clone(&start);
            assert_poison_reaches(
                round,
                move || {
                    start2.wait();
                    victim.begin(); // t=10 is past the gate: parks
                    unreachable!("began past the start gate");
                },
                || {
                    start.wait();
                    absent.poison();
                },
            );
        }
    }

    #[test]
    fn poison_reaches_an_actor_parked_in_acquire() {
        for round in 0..100 {
            let core = SimCore::new(SEC);
            let victim = core.register_actor("victim", 0);
            let holder = core.register_actor("holder", 5);
            let (yielded, after_yield) = std::sync::mpsc::channel();
            assert_poison_reaches(
                round,
                move || {
                    victim.begin();
                    victim.advance(10); // now behind the holder's t=5
                    yielded.send(()).unwrap();
                    victim.now(); // not current: parks in acquire
                    unreachable!("ran while the holder was current");
                },
                || {
                    after_yield.recv().unwrap();
                    // Like a rank that panics mid-run: it holds currency
                    // and never yields it.
                    holder.begin();
                    holder.poison();
                },
            );
        }
    }

    #[test]
    fn poison_reaches_an_actor_blocked_in_wait_until() {
        for round in 0..100 {
            let core = SimCore::new(SEC);
            let victim = core.register_actor("victim", 0);
            // Keeps the world from being a deadlock: it may yet start.
            let absent = core.register_actor("absent", 0);
            let start = Arc::new(std::sync::Barrier::new(2));
            let start2 = Arc::clone(&start);
            assert_poison_reaches(
                round,
                move || {
                    victim.begin();
                    start2.wait();
                    victim.wait_until(|_| false, |_, _| {});
                    unreachable!("a wait on nothing returned");
                },
                || {
                    start.wait();
                    absent.poison();
                },
            );
        }
    }

    #[test]
    fn late_begin_holds_the_world_at_its_start_time_then_wakes_it() {
        // `spawner` registers `late` at t=100 mid-run (what attach_at
        // does for a polling agent) and finishes; `runner` ticks every
        // 30 ns. Until late's thread calls begin(), nothing may run past
        // t=100 — the runner parks at the gate — and late's begin()
        // selects late itself, so it is late's first yield that has to
        // wake the runner: a hand-off by an actor the runner never
        // yielded to.
        let core = SimCore::new(SEC);
        let spawner = core.register_actor("spawner", 0);
        let runner = core.register_actor("runner", 0);
        let log = Arc::new(Mutex::new(Vec::<(&str, Ns)>::new()));
        let (to_main, late_handle) = std::sync::mpsc::channel();

        let core2 = Arc::clone(&core);
        let spawner = std::thread::spawn(move || {
            spawner.begin();
            spawner.advance(100);
            to_main.send(core2.register_actor("late", 100)).unwrap();
            spawner.end();
        });
        let log2 = Arc::clone(&log);
        let runner = std::thread::spawn(move || {
            runner.begin();
            for _ in 0..6 {
                runner.advance(30);
                runner.with_sched(|_, t| log2.lock().push(("runner", t)));
            }
            runner.end();
        });

        let late = late_handle.recv().unwrap();
        // The spawner ends at t=100, which the scheduler lets happen only
        // once the runner has advanced beyond it: from here on the runner
        // is at t=120, held by the gate.
        spawner.join().unwrap();
        assert_eq!(
            *log.lock(),
            [("runner", 30), ("runner", 60), ("runner", 90)]
        );
        let wakes_before = core.wakes.load(AO::Relaxed);

        let log3 = Arc::clone(&log);
        let late = std::thread::spawn(move || {
            late.begin();
            late.with_sched(|_, t| log3.lock().push(("late", t)));
            late.advance(35);
            late.with_sched(|_, t| log3.lock().push(("late", t)));
            late.end();
        });
        late.join().unwrap();
        runner.join().unwrap();
        assert_eq!(
            *log.lock(),
            [
                ("runner", 30),
                ("runner", 60),
                ("runner", 90),
                ("late", 100),
                ("runner", 120),
                ("late", 135),
                ("runner", 150),
                ("runner", 180),
            ]
        );
        // late → runner at 120, → late at 135, → runner at 150.
        assert_eq!(core.wakes.load(AO::Relaxed) - wakes_before, 3);
    }
}
