//! The conservative discrete-event scheduler.
//!
//! Every participant in a simulation is an **actor** with a *local
//! virtual clock*. The scheduler enforces a single global rule: at any
//! instant, the runnable entity (ready actor or pending fabric event)
//! with the smallest virtual timestamp executes. Because nothing ever
//! executes "in the past" of anything else, the simulation is causally
//! exact and — ties broken deterministically — bit-reproducible across
//! runs.
//!
//! An actor is one of two kinds:
//!
//! * a **thread actor** — an application rank: a real OS thread that
//!   interacts with the simulation only through the methods on
//!   [`SimCore`] (via its [`ActorHandle`]). Between calls it runs
//!   arbitrary Rust code — alone, once every thread has begun: nothing
//!   else in the simulation runs until its next call.
//! * a **callback actor** ([`SimCore::register_callback`]) — a
//!   library-internal agent such as the UNR polling agent: a state
//!   machine with no thread. Each time it is selected, `dispatch` runs
//!   one step of it in place, on whichever thread is dispatching, and
//!   the [`Step`] it returns stands for what a thread's op would have
//!   done on release: yield (after advancing its clock), block, or end.
//!
//! A thread actor may leave a **train** behind an op
//! ([`ActorHandle::post_train`]): scheduler-context steps, each a turn
//! of the thread at its own (time, id), that `dispatch` runs in place
//! as it runs a callback's — the later stripes of a striped put, each a
//! post overhead after the one before. The thread's next call waits
//! behind the train's last step, so the train costs its baton one
//! hand-off at most, where an op per step cost one each. Its code until
//! that call sees the world as of the op that left the train, and must
//! write no state that a step, an event or another actor reads; a post
//! that returns to code it does not own first waits for its train
//! ([`ActorHandle::wait_train`]), as a striped `Endpoint::put_stripes`
//! does.
//!
//! Events are boxed closures run *inside* the scheduler loop with the
//! scheduler state borrowed mutably; they perform fabric effects (memory
//! writes, queue pushes) and wake blocked actors.
//!
//! One actor thread runs at a time; the others wait, each on its own
//! baton (a `Condvar` per thread actor, all paired with the one state
//! mutex). `current` only ever changes inside `Sched::dispatch`, which
//! tells its caller which thread it newly selected; the caller notifies
//! exactly that baton, or none if it selected the caller again. A
//! callback has no baton: `dispatch` runs it, or a thread's train,
//! where it stands. What a thread's *release* selects — a thread, a
//! callback, or a train, its own included — that thread holds
//! until its next call, so its own code between two calls runs alone
//! and the interleaving does not depend on the OS. Waiters test
//! `current` under the mutex, so a notify that finds its target not yet
//! waiting is not needed either (DESIGN.md §5, "Time model").

use crate::sync::{Condvar, Mutex, MutexGuard};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use unr_obs::Counter;

use crate::time::Ns;

mod handle;

pub use handle::ActorHandle;

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

/// What a callback actor asks for at the end of a step — the three ways
/// a thread actor's turn ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Advance the clock by `advance` and be ready again: a scheduler
    /// entry and its release (`advance: 0`), or `ActorHandle::advance`.
    Yield {
        /// Virtual time charged to the actor's clock.
        advance: Ns,
    },
    /// Park until a [`Sched::wake`]; the step registered its waiters.
    Block,
    /// Retire the actor, as `ActorHandle::end` does; the step is dropped.
    Finish,
}

/// A callback actor's body: its state machine, stepped once per turn at
/// the actor's virtual time.
type StepFn = Box<dyn FnMut(&mut Sched, ActorId, Ns) -> Step + Send>;

enum Body {
    /// An OS thread; it waits on this baton until it is `current`. Its
    /// train, if any — a step and how many more turns it takes — runs
    /// first, in place, as a callback's steps do.
    Thread(Arc<Condvar>, Option<(StepFn, usize)>),
    /// Run in place by `dispatch`; `None` only while it runs.
    Callback(Option<StepFn>),
}

struct ActorSlot {
    t: Ns,
    state: ActorState,
    name: String,
    body: Body,
}

thread_local! {
    /// Set, in debug builds, while this thread runs `Sched::dispatch`
    /// and so holds the scheduler lock.
    static IN_DISPATCH: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as dispatching for the mark's lifetime
/// (debug builds only; unwinding clears it too).
struct DispatchMark;

impl DispatchMark {
    fn enter() -> DispatchMark {
        if cfg!(debug_assertions) {
            IN_DISPATCH.set(true);
        }
        DispatchMark
    }
}

impl Drop for DispatchMark {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            IN_DISPATCH.set(false);
        }
    }
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
    /// The thread whose release selected `current` and that is still
    /// running its own code until its next call: the selected actor's
    /// turn starts only when that thread hands it over.
    held: Option<usize>,
    last_selected: Option<usize>,
    /// Selections that differed from `last_selected`.
    switches: Arc<Counter>,
    /// The actor each of those selections picked, and each thread
    /// whose baton was notified, for the tests.
    #[cfg(test)]
    switch_log: Vec<usize>,
    #[cfg(test)]
    notify_log: Vec<usize>,
    /// Smallest (start time, id) among registered actors whose thread
    /// has not called `begin()` yet; `None` once all have.
    gate: Option<(Ns, usize)>,
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

    /// The baton of a thread actor.
    fn baton(&self, id: usize) -> &Arc<Condvar> {
        match &self.actors[id].body {
            Body::Thread(baton, _) => baton,
            Body::Callback(_) => unreachable!("a callback actor has no baton"),
        }
    }

    /// Every thread actor's baton.
    fn batons(&self) -> impl Iterator<Item = &Arc<Condvar>> {
        self.actors.iter().filter_map(|s| match &s.body {
            Body::Thread(baton, _) => Some(baton),
            Body::Callback(_) => None,
        })
    }

    /// Run one step of the selected actor `id` (which is `current`):
    /// a callback's, or the next of a thread's train. Apply what it
    /// returns; a train step only yields.
    fn run_step(&mut self, id: usize) {
        let slot = &mut self.actors[id];
        let (mut step, left) = match &mut slot.body {
            Body::Callback(body) => (body.take().expect("a step never re-enters itself"), 0),
            Body::Thread(_, train) => train.take().expect("a thread steps only on a train"),
        };
        let t = slot.t;
        let next = step(self, ActorId(id), t);
        self.current = None;
        let slot = &mut self.actors[id];
        match next {
            Step::Yield { advance } => {
                slot.t += advance;
                slot.state = ActorState::Ready;
                self.ready.push(Reverse((slot.t, id)));
            }
            Step::Block => slot.state = ActorState::Blocked,
            Step::Finish => slot.state = ActorState::Finished,
        }
        match &mut slot.body {
            Body::Callback(body) if next != Step::Finish => *body = Some(step),
            Body::Thread(_, train) if left > 1 => *train = Some((step, left - 1)),
            _ => {}
        }
    }

    /// Is it thread `me`'s turn: selected, and handed over?
    fn turn_of(&self, me: ActorId) -> bool {
        self.current == Some(me.0) && self.held.is_none()
    }

    /// Whether `dispatch` runs `id`'s next turn in place: a callback,
    /// or a thread with a train left.
    fn runs_in_place(&self, id: usize) -> bool {
        matches!(
            self.actors[id].body,
            Body::Callback(_) | Body::Thread(_, Some(_))
        )
    }

    /// Core dispatch loop, called by thread `me`: run due events and
    /// select the next actor. Events win ties against actors (an arrival
    /// "at" time t is visible to an actor acting at t). A selected
    /// callback actor's step runs right here, and the loop goes on.
    ///
    /// `hold` is set when `me` has just released and goes on to run its
    /// own code until its next call. That code runs alone: an actor this
    /// dispatch selects other than `me`, or `me` with a train, becomes
    /// `current`, but `me` *holds* it — a step does not run, a thread is
    /// not notified — and `me`'s next dispatch hands it over first. So no
    /// other thread's turn, and no step, runs beside a thread's code
    /// between two calls, on any number of cores.
    ///
    /// Registered-but-not-started actors gate progress: nothing may
    /// execute past the earliest pending (start time, id), otherwise a
    /// slow OS thread spawn would let the simulation run ahead of an
    /// actor's causal past — or, at equal times, let the order in which
    /// the OS gets threads to `begin()` decide who runs first.
    ///
    /// Returns the thread actor whose turn this call started, for
    /// `hand_off` to notify; `None` if another turn is on (or held by
    /// another thread), `me` holds the one it selected, or nothing can
    /// run yet.
    fn dispatch(&mut self, me: usize, hold: bool) -> Option<usize> {
        if let Some(id) = self.current {
            if self.held != Some(me) {
                return None;
            }
            self.held = None;
            if !self.runs_in_place(id) {
                return Some(id);
            }
            self.run_step(id);
        }
        loop {
            let a = self
                .ready_min()
                .filter(|&a| self.gate.is_none_or(|g| a < g));
            let gate = self.gate.map(|(g, _)| g);
            let run_event = match (self.events.peek(), a) {
                (Some(Reverse(e)), Some((ta, _))) => e.t <= ta && gate.is_none_or(|g| e.t <= g),
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
                #[cfg(test)]
                self.switch_log.push(id);
            }
            if hold && (id != me || self.runs_in_place(id)) {
                self.held = Some(me);
                return None;
            }
            if self.runs_in_place(id) {
                self.run_step(id);
                continue;
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
                held: None,
                last_selected: None,
                switches,
                #[cfg(test)]
                switch_log: Vec::new(),
                #[cfg(test)]
                notify_log: Vec::new(),
                gate: None,
                event_seq: 0,
                events_run: 0,
                cap: virtual_time_cap,
            }),
            poisoned: AtomicBool::new(false),
            wakes: AtomicU64::new(0),
            spurious_wakes: AtomicU64::new(0),
        })
    }

    /// Take the scheduler lock. Debug builds first check that this
    /// thread is not the one inside `dispatch` — a callback step, a
    /// train's step or an event calling back into [`SimCore`] would
    /// otherwise wait for ever on the lock its own thread holds.
    fn lock(&self) -> MutexGuard<'_, Sched> {
        debug_assert!(
            !IN_DISPATCH.get(),
            "scheduler call from inside a callback step, a train step or an \
             event: the dispatching thread already holds the scheduler lock"
        );
        self.state.lock()
    }

    /// Register a new thread actor starting at virtual time `t0`. The
    /// actor does not run until its thread calls [`ActorHandle::begin`].
    pub fn register_actor(self: &Arc<Self>, name: &str, t0: Ns) -> ActorHandle {
        let mut st = self.lock();
        let id = st.actors.len();
        st.actors.push(ActorSlot {
            t: t0,
            state: ActorState::NotStarted,
            name: name.to_string(),
            body: Body::Thread(Arc::default(), None),
        });
        st.gate = Some(st.gate.map_or((t0, id), |g| g.min((t0, id))));
        ActorHandle {
            core: Arc::clone(self),
            id: ActorId(id),
        }
    }

    /// Register a callback actor: one with no thread, whose `step` runs
    /// inside `dispatch` — on whichever thread is dispatching, with the
    /// scheduler lock held — each time it is selected, at its own
    /// virtual time. One step is one turn, as one op is for a thread
    /// actor; the [`Step`] it returns ends the turn. It is Ready at `t0`
    /// at once, the order a world whose every thread has begun would
    /// give. A step must not call back into [`SimCore`] or an
    /// [`ActorHandle`] (debug builds panic): it already has the
    /// scheduler.
    pub fn register_callback(
        &self,
        name: &str,
        t0: Ns,
        step: impl FnMut(&mut Sched, ActorId, Ns) -> Step + Send + 'static,
    ) -> ActorId {
        let mut st = self.lock();
        let id = st.actors.len();
        st.actors.push(ActorSlot {
            t: t0,
            state: ActorState::Ready,
            name: name.to_string(),
            body: Body::Callback(Some(Box::new(step))),
        });
        st.ready.push(Reverse((t0, id)));
        ActorId(id)
    }

    /// Total events executed so far (diagnostic).
    pub fn events_run(&self) -> u64 {
        self.lock().events_run
    }

    /// Selections so far that changed the running actor: a function of
    /// the seed, like every simulated timestamp.
    pub fn switches(&self) -> u64 {
        self.lock().switches.get()
    }

    /// Batons notified so far: one per hand-off to a thread. Fixed by
    /// the seed once every thread has begun (which thread begins last
    /// can add or save one each), so tests read it; the metrics
    /// registry, whose snapshots must repeat exactly, does not.
    pub fn batons_notified(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }

    fn check_poison(&self) {
        if self.poisoned.load(Ordering::Relaxed) {
            panic!("simulation previously panicked; scheduler is poisoned");
        }
    }

    /// Dispatch, unlock, then notify the thread that was newly selected —
    /// nobody if that is `me` or no one. In that order: a thread woken
    /// while we still hold the lock runs into it and sleeps a second
    /// time, which halved `sim-serve`'s rate on one core. `hold` is
    /// [`Sched::dispatch`]'s: set when `me` goes on running.
    fn hand_off(&self, mut st: MutexGuard<'_, Sched>, me: ActorId, hold: bool) {
        let selected = self.dispatch(&mut st, me, hold).filter(|&id| id != me.0);
        #[cfg(test)]
        st.notify_log.extend(selected);
        let baton = selected.map(|id| Arc::clone(st.baton(id)));
        drop(st);
        if let Some(baton) = baton {
            self.wakes.fetch_add(1, Ordering::Relaxed);
            baton.notify_one();
        }
    }

    /// [`Sched::dispatch`], poisoning the world if it panics. A callback
    /// step (or an event) runs on whichever thread dispatches, so its
    /// panic unwinds that thread while every other one waits on its
    /// baton; the lock is still held here, so none of them is between
    /// its poison check and its wait, and the notify cannot be lost.
    fn dispatch(&self, st: &mut Sched, me: ActorId, hold: bool) -> Option<usize> {
        let _mark = DispatchMark::enter();
        match panic::catch_unwind(AssertUnwindSafe(|| st.dispatch(me.0, hold))) {
            Ok(selected) => selected,
            Err(cause) => {
                self.poisoned.store(true, Ordering::Relaxed);
                for baton in st.batons() {
                    baton.notify_all();
                }
                panic::resume_unwind(cause)
            }
        }
    }

    /// [`SimCore::hand_off`], then wait until `current == me`; returns
    /// with the lock held. Poison is checked under the lock before every
    /// wait, see [`ActorHandle::poison`]: a panicked rank never yields
    /// currency, so no later dispatch would ever pick us.
    fn park(&self, st: MutexGuard<'_, Sched>, me: ActorId) -> MutexGuard<'_, Sched> {
        let baton = Arc::clone(st.baton(me.0));
        self.hand_off(st, me, false);
        let mut st = self.lock();
        loop {
            self.check_poison();
            if st.turn_of(me) {
                return st;
            }
            st = baton.wait(st);
            if !st.turn_of(me) {
                self.spurious_wakes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Become the scheduled (minimum-time) entity. Returns with the lock
    /// held and `current == me`.
    fn acquire(&self, me: ActorId) -> MutexGuard<'_, Sched> {
        let st = self.lock();
        self.check_poison();
        if st.turn_of(me) {
            return st;
        }
        // Our release left us Ready (our heap entry stands) and park's
        // dispatch first hands over whatever it selected and we held —
        // or another thread's release selected us and holds us.
        debug_assert!(
            st.actors[me.0].state == ActorState::Ready || st.current == Some(me.0),
            "acquire by an actor that is neither ready nor selected"
        );
        self.park(st, me)
    }

    /// Release the scheduler after an op; pick the next entity.
    fn release(&self, mut st: MutexGuard<'_, Sched>, me: ActorId) {
        debug_assert_eq!(st.current, Some(me.0));
        // Yield for real whenever someone earlier is waiting; if we are
        // still the global minimum, dispatch re-selects us and the next
        // acquire() is the no-op fast path with no context switch. Any
        // other actor it selects we hold until that acquire() (or end()).
        st.current = None;
        st.actors[me.0].state = ActorState::Ready;
        let t = st.actors[me.0].t;
        st.ready.push(Reverse((t, me.0)));
        self.hand_off(st, me, true);
    }

    /// Run `f` as a scheduled op at the actor's current time.
    fn op<R>(&self, me: ActorId, f: impl FnOnce(&mut Sched, ActorId) -> R) -> R {
        let mut st = self.acquire(me);
        let r = f(&mut st, me);
        self.release(st, me);
        r
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

    const PAIRS: usize = 8;
    const ROUNDS: u64 = 50;

    /// What one [`storm_world`] did.
    struct StormRun {
        switches: u64,
        /// Batons notified.
        wakes: u64,
        spurious: u64,
        /// (actor, virtual time) of every ring and every answered ring,
        /// in the order the scheduler ran them.
        log: Vec<(usize, Ns)>,
        /// The actor each switch selected.
        switch_log: Vec<usize>,
    }

    /// One storm-shaped world: 8 "ranks" (actors 0–7) that compute for
    /// seeded times and ring their "agent" (actor 8 + rank) with a
    /// fabric event, and 8 agents that block until rung, then charge
    /// 20 ns per ring. The agents are thread actors or, with
    /// `callbacks`, callback actors cut at the same scheduler entries.
    fn storm_world(seed: u64, callbacks: bool) -> StormRun {
        let core = SimCore::new(100 * SEC);
        let n_threads = if callbacks { PAIRS } else { 2 * PAIRS };
        let handles: Vec<ActorHandle> = (0..n_threads)
            .map(|i| core.register_actor(&format!("a{i}"), 0))
            .collect();
        let bells: Vec<Arc<AtomicU64>> = (0..PAIRS).map(|_| Arc::default()).collect();
        let log = Arc::new(Mutex::new(Vec::new()));
        if callbacks {
            for (i, bell) in bells.iter().enumerate() {
                let (bell, log) = (Arc::clone(bell), Arc::clone(&log));
                // Each thread turn, as a step: the wait check that
                // `begin()` or a wake-up leads into, then `advance(20)`,
                // and after the last ring `end()`.
                let (mut rung, mut answered) = (1, false);
                core.register_callback(&format!("a{}", PAIRS + i), 0, move |_, me, t| {
                    if rung > ROUNDS {
                        Step::Finish
                    } else if answered {
                        (rung, answered) = (rung + 1, false);
                        Step::Yield { advance: 20 }
                    } else if bell.load(AO::Relaxed) >= rung {
                        log.lock().push((me.0, t));
                        answered = true;
                        Step::Yield { advance: 0 }
                    } else {
                        Step::Block
                    }
                });
            }
        }
        let joins: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(i, h)| {
                let bell = Arc::clone(&bells[i % PAIRS]);
                let agent = ActorId(PAIRS + i % PAIRS);
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    h.begin();
                    if i < PAIRS {
                        let mut rng = crate::rng::SimRng::seed_from_u64(seed + i as u64);
                        for _ in 0..ROUNDS {
                            h.advance(rng.gen_range_u64(50, 500));
                            let bell = Arc::clone(&bell);
                            h.with_sched(|st, t| {
                                log.lock().push((i, t));
                                st.schedule_at(t + 100, move |st2| {
                                    bell.fetch_add(1, AO::Relaxed);
                                    st2.wake(agent, t + 100);
                                });
                            });
                        }
                    } else {
                        for rung in 1..=ROUNDS {
                            h.wait_until(
                                |st| {
                                    let rang = bell.load(AO::Relaxed) >= rung;
                                    if rang {
                                        log.lock().push((i, st.actor_time(h.id())));
                                    }
                                    rang
                                },
                                |_, _| {},
                            );
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
        let switch_log = core.state.lock().switch_log.clone();
        let log = log.lock().clone();
        StormRun {
            switches: core.switches(),
            wakes: core.wakes.load(AO::Relaxed),
            spurious: core.spurious_wakes.load(AO::Relaxed),
            log,
            switch_log,
        }
    }

    #[test]
    fn one_wake_per_switch_and_switches_follow_the_seed() {
        let one_core = std::thread::available_parallelism().is_ok_and(|n| n.get() == 1);
        let switches = storm_world(7, false).switches;
        assert!(switches > 1_000, "the world must interleave: {switches}");
        for run in 0..20 {
            let StormRun {
                switches: s,
                wakes,
                spurious,
                ..
            } = storm_world(7, false);
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

    #[test]
    fn callback_agents_run_the_thread_agents_schedule_with_a_wake_per_rank_change() {
        let threads = storm_world(7, false);
        for run in 0..10 {
            let callbacks = storm_world(7, true);
            assert_eq!(callbacks.log.len(), 2 * PAIRS * ROUNDS as usize);
            assert!(
                callbacks.log == threads.log,
                "run {run}: the (actor, time) logs differ"
            );
            assert_eq!(callbacks.switches, threads.switches, "run {run}");
            assert!(callbacks.switch_log == threads.switch_log, "run {run}");
            // Only a change from one rank to another is a hand-off now:
            // a rank → its agent → the same rank round trip notifies no one.
            let mut ranks: Vec<usize> = callbacks
                .switch_log
                .iter()
                .copied()
                .filter(|&id| id < PAIRS)
                .collect();
            ranks.dedup();
            assert!(
                callbacks.wakes <= ranks.len() as u64,
                "run {run}: {} wakes for {} rank-to-rank changes",
                callbacks.wakes,
                ranks.len()
            );
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

    /// The panic message of a thread that died, or `None` if it ended.
    fn panic_message(r: std::thread::Result<()>) -> Option<String> {
        let p = r.err()?;
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
    }

    #[test]
    fn poison_reaches_a_world_whose_only_runnable_actor_is_a_callback() {
        const RANKS: usize = 3;
        for round in 0..50 {
            let core = SimCore::new(SEC);
            let ranks: Vec<ActorHandle> = (0..RANKS)
                .map(|i| core.register_actor(&format!("rank{i}"), 0))
                .collect();
            // Runs on the thread of whichever rank blocks last.
            let mut steps = 0;
            core.register_callback("doomed", 0, move |_, _, _| {
                steps += 1;
                assert!(steps < 3, "the step failed");
                Step::Yield { advance: 10 }
            });
            let (done, outcomes) = std::sync::mpsc::channel();
            for h in ranks {
                let done = done.clone();
                std::thread::spawn(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        h.begin();
                        h.wait_until(|_| false, |_, _| {});
                    }));
                    let _ = done.send(panic_message(r));
                });
            }
            let deadline = std::time::Duration::from_secs(20);
            let mut messages: Vec<String> = (0..RANKS)
                .map(|_| match outcomes.recv_timeout(deadline) {
                    Ok(Some(msg)) => msg,
                    Ok(None) => panic!("round {round}: a wait on nothing returned"),
                    Err(_) => panic!("round {round}: a rank is stranded — poison never woke it"),
                })
                .collect();
            messages.sort();
            let poisoned = |m: &String| m.contains("scheduler is poisoned");
            assert!(
                poisoned(&messages[0]) && poisoned(&messages[1]),
                "{messages:?}"
            );
            assert!(messages[2].contains("the step failed"), "{messages:?}");
        }
    }

    #[test]
    fn a_turn_a_release_selects_starts_at_the_releasing_threads_next_call() {
        // What a thread does between two calls sees the world as its
        // release left it, on any number of cores: neither a thread nor
        // a callback that release selected runs before its next call.
        let core = SimCore::new(SEC);
        let rank = core.register_actor("rank", 0);
        let other = core.register_actor("other", 0);
        let ran = Arc::new(AtomicU64::new(0));
        let (by_agent, by_other) = (Arc::clone(&ran), Arc::clone(&ran));
        core.register_callback("agent", 0, move |_, _, _| {
            by_agent.fetch_add(1, AO::Relaxed);
            Step::Finish
        });
        let other = std::thread::spawn(move || {
            other.begin();
            other.with_sched(|_, _| by_other.fetch_add(10, AO::Relaxed));
            other.end();
        });
        let pause = std::time::Duration::from_millis(50);
        rank.begin();
        std::thread::sleep(pause); // lets `other` reach its begin()
        rank.advance(5); // selects `other` at t=0, and then the agent
        std::thread::sleep(pause); // `other` would run now, were it woken
        assert_eq!(ran.load(AO::Relaxed), 0, "a turn ran beside the releaser");
        assert_eq!(rank.now(), 5);
        assert_eq!(ran.load(AO::Relaxed), 11);
        rank.end();
        other.join().unwrap();
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_scheduler_call_from_a_step_panics_instead_of_deadlocking() {
        let core = SimCore::new(SEC);
        let rank = core.register_actor("rank", 0);
        let core2 = Arc::clone(&core);
        core.register_callback("reentrant", 0, move |_, _, _| {
            core2.switches();
            Step::Finish
        });
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rank.begin();
                rank.advance(1); // selects the callback at t=0 …
                rank.now(); // … which runs here
            }));
            let _ = done.send(panic_message(r));
        });
        match outcome.recv_timeout(std::time::Duration::from_secs(20)) {
            Ok(Some(msg)) => assert!(msg.contains("inside a callback step"), "{msg}"),
            Ok(None) => panic!("the re-entrant step returned"),
            Err(_) => panic!("the re-entrant step deadlocked"),
        }
    }

    const POSTS: usize = 6;
    const OH: Ns = 10;

    /// What one [`train_world`] did.
    struct TrainRun {
        switch_log: Vec<usize>,
        /// (actor, virtual time) of every post and every tick.
        log: Vec<(usize, Ns)>,
        clocks: Vec<Ns>,
        /// Times the poster's baton was notified after its first post.
        poster_wakes: usize,
    }

    /// Actor 1 posts `POSTS` times, `OH` apart from t=0: as one post and
    /// a train of `POSTS - 1` steps, or (`train == false`) as a
    /// `with_sched` + `advance` pair per post. Beside it, tied at every
    /// one of those times, thread 0 and callback 2 tick every `OH`.
    fn train_world(train: bool) -> TrainRun {
        let core = SimCore::new(SEC);
        let (ticker, poster) = (core.register_actor("t0", 0), core.register_actor("t1", 0));
        let log = Arc::new(Mutex::new(Vec::new()));
        let (l0, l1, l2) = (Arc::clone(&log), Arc::clone(&log), Arc::clone(&log));
        // Where the notify log stood at the first post: which thread
        // begins last decides whether one came before it.
        let mark = Arc::new(AtomicU64::new(0));
        let mark2 = Arc::clone(&mark);
        let mut ticks = 0;
        core.register_callback("c2", 0, move |_, me, t| {
            l2.lock().push((me.0, t));
            ticks += 1;
            match ticks {
                ..=POSTS => Step::Yield { advance: OH },
                _ => Step::Finish,
            }
        });
        let ticker = std::thread::spawn(move || {
            ticker.begin();
            for _ in 0..POSTS + 2 {
                ticker.with_sched(|_, t| l0.lock().push((0, t)));
                ticker.advance(OH);
            }
            ticker.end();
        });
        let poster = std::thread::spawn(move || {
            poster.begin();
            poster.with_sched(|st, _| mark2.store(st.notify_log.len() as u64, AO::Relaxed));
            if train {
                let l = Arc::clone(&l1);
                poster.post_train(
                    |_, t| (l.lock().push((1, t)), OH, POSTS - 1),
                    move |_, t| {
                        l1.lock().push((1, t));
                        OH
                    },
                );
            } else {
                for _ in 0..POSTS {
                    poster.with_sched(|_, t| l1.lock().push((1, t)));
                    poster.advance(OH);
                }
            }
            poster.end();
        });
        ticker.join().unwrap();
        poster.join().unwrap();
        let st = core.state.lock();
        let log = log.lock().clone();
        TrainRun {
            switch_log: st.switch_log.clone(),
            log,
            clocks: st.actors.iter().map(|a| a.t).collect(),
            poster_wakes: st.notify_log[mark.load(AO::Relaxed) as usize..]
                .iter()
                .filter(|&&id| id == 1)
                .count(),
        }
    }

    #[test]
    fn a_train_runs_the_turns_of_its_posts_with_one_hand_off() {
        let posts = train_world(false);
        assert_eq!(posts.log.len(), POSTS + (POSTS + 2) + (POSTS + 1));
        assert_eq!(
            posts.clocks,
            [(POSTS as Ns + 2) * OH, POSTS as Ns * OH, POSTS as Ns * OH]
        );
        // The ticker runs first at every time: one notify per post but
        // the first, and one for `end`.
        assert_eq!(posts.poster_wakes, POSTS);
        for run in 0..10 {
            let train = train_world(true);
            assert_eq!(train.log, posts.log, "run {run}");
            assert_eq!(train.switch_log, posts.switch_log, "run {run}");
            assert_eq!(train.clocks, posts.clocks, "run {run}");
            // Once, for `end`: the ticker's thread runs the steps.
            assert_eq!(train.poster_wakes, 1, "run {run}");
        }
    }

    #[test]
    fn a_panicking_train_step_poisons_every_parked_thread() {
        const RANKS: usize = 3;
        for round in 0..50 {
            let core = SimCore::new(SEC);
            let ranks: Vec<ActorHandle> = (0..RANKS)
                .map(|i| core.register_actor(&format!("rank{i}"), 0))
                .collect();
            let (done, outcomes) = std::sync::mpsc::channel();
            for (i, h) in ranks.into_iter().enumerate() {
                let done = done.clone();
                std::thread::spawn(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        h.begin();
                        if i == 0 {
                            let mut steps = 0;
                            h.post_train(
                                |_, _| ((), 5, 3),
                                move |_, _| {
                                    steps += 1;
                                    assert!(steps < 2, "the step failed");
                                    5
                                },
                            );
                        }
                        h.wait_until(|_| false, |_, _| {});
                    }));
                    let _ = done.send(panic_message(r));
                });
            }
            let deadline = std::time::Duration::from_secs(20);
            let mut messages: Vec<String> = (0..RANKS)
                .map(|_| match outcomes.recv_timeout(deadline) {
                    Ok(Some(msg)) => msg,
                    Ok(None) => panic!("round {round}: a wait on nothing returned"),
                    Err(_) => panic!("round {round}: a rank is stranded — poison never woke it"),
                })
                .collect();
            messages.sort();
            let poisoned = |m: &String| m.contains("scheduler is poisoned");
            assert!(
                poisoned(&messages[0]) && poisoned(&messages[1]),
                "{messages:?}"
            );
            assert!(messages[2].contains("the step failed"), "{messages:?}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_scheduler_call_from_a_train_step_panics_instead_of_deadlocking() {
        let core = SimCore::new(SEC);
        let rank = core.register_actor("rank", 0);
        let core2 = Arc::clone(&core);
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rank.begin();
                rank.post_train(
                    |_, _| ((), 1, 1),
                    move |_, _| {
                        core2.switches();
                        1
                    },
                );
                rank.now(); // the step runs here
            }));
            let _ = done.send(panic_message(r));
        });
        match outcome.recv_timeout(std::time::Duration::from_secs(20)) {
            Ok(Some(msg)) => assert!(msg.contains("a train step"), "{msg}"),
            Ok(None) => panic!("the re-entrant train step returned"),
            Err(_) => panic!("the re-entrant train step deadlocked"),
        }
    }
}
