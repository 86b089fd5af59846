//! [`ActorHandle`]: the calls a thread actor makes on the scheduler.

use std::cell::Cell;
use std::cmp::Reverse;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::{ActorId, ActorState, Body, Sched, SimCore, Step};
use crate::time::Ns;

/// Per-thread handle a thread actor uses to talk to the scheduler.
///
/// Not `Clone`: a handle identifies one OS thread's actor. Register
/// another actor with [`SimCore::register_actor`] (a thread) or
/// [`SimCore::register_callback`] (a state machine) instead of sharing
/// handles.
pub struct ActorHandle {
    pub(super) core: Arc<SimCore>,
    pub(super) id: ActorId,
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
        let mut st = core.lock();
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
        st.current = None;
        self.core.hand_off(st, self.id, false);
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

    /// A post: run `f` as one scheduler op at this actor's time, and in
    /// the same op charge the clock the overhead `f` returns beside its
    /// result. A post and its overhead are one turn, not two: the second
    /// turn of the pair changed nothing but the clock.
    pub fn post<R>(&self, f: impl FnOnce(&mut Sched, Ns) -> (R, Ns)) -> R {
        self.post_train(
            |st, t| {
                let (r, overhead) = f(st, t);
                (r, overhead, 0)
            },
            |_, _| 0,
        )
    }

    /// [`ActorHandle::post`], where `f` also says how many more posts
    /// to leave as a *train*: `step` runs once per train step in
    /// scheduler context, each run a turn of this actor at its own
    /// (time, id), and returns the overhead to charge before the next.
    /// `dispatch` runs the steps in place, on whichever thread
    /// dispatches, as it runs a callback's, so the train costs no baton
    /// hand-off. This thread's next call waits behind the last step; its
    /// own code until then sees the world as of `f`, and must write no
    /// state that a step, an event or another actor reads; a caller
    /// that returns to code it does not own ends that window first with
    /// [`ActorHandle::wait_train`].
    pub fn post_train<R>(
        &self,
        f: impl FnOnce(&mut Sched, Ns) -> (R, Ns, usize),
        mut step: impl FnMut(&mut Sched, Ns) -> Ns + Send + 'static,
    ) -> R {
        self.core.op(self.id, |st, me| {
            let (r, overhead, steps) = f(st, st.actors[me.0].t);
            let slot = &mut st.actors[me.0];
            slot.t += overhead;
            if let (Body::Thread(_, train), 1..) = (&mut slot.body, steps) {
                let turn = move |st: &mut Sched, _, t| Step::Yield {
                    advance: step(st, t),
                };
                *train = Some((Box::new(turn), steps));
            }
            r
        })
    }

    /// Wait until the train this actor's last op left, if any, has run,
    /// and keep the turn: code after this sees the world at this actor's
    /// clock, and the next call starts at once. It costs no hand-off of
    /// its own: the next call would have waited behind the train.
    pub fn wait_train(&self) {
        drop(self.core.acquire(self.id));
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
    ///
    /// The timer event wakes us at `t + dt`, and our clock reaching that
    /// time is the sign it has run: a wake at or after it comes from an
    /// entity that the timer, an event, precedes.
    pub fn sleep(&self, dt: Ns) {
        let until = Cell::new(None);
        self.wait_until(
            |st| until.get().is_some_and(|u| st.actor_time(self.id) >= u),
            |st, me| {
                if until.get().is_none() {
                    let t = st.actor_time(me) + dt;
                    until.set(Some(t));
                    st.schedule_at(t, move |st2| st2.wake(me, t));
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
        let st = self.core.lock();
        for baton in st.batons() {
            baton.notify_all();
        }
    }
}
