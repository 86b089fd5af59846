//! The polling agent of a simulated rank: the paper's polling thread as
//! a scheduler callback actor, and how [`SimTransport`] starts and stops
//! it.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use unr_simnet::{ActorId, Ns, Sched, Step};

use crate::retry::Resend;
use crate::sim::SimTransport;
use crate::sim_state::SimState;

/// An agent's life, shared with its rank and touched by both only
/// inside scheduler entries: running; asked to stop (by the rank's
/// shutdown, in the entry that also wakes the agent); stopped (by the
/// agent's last pass, which wakes the rank).
const RUNNING: u8 = 0;
const STOPPING: u8 = 1;
const STOPPED: u8 = 2;

/// Modeled cost of one polling-loop pass: a base, plus this much per
/// event the pass processed.
pub(crate) const POLL_COST_BASE: Ns = 150;
/// See [`POLL_COST_BASE`].
pub(crate) const POLL_COST_PER_EVENT: Ns = 80;

/// What a rank keeps of its agent.
pub(crate) struct AgentState {
    id: ActorId,
    life: Arc<AtomicU8>,
}

/// Where an [`Agent`] is in its loop: the scheduler entry its next step
/// makes.
#[derive(Clone, Copy)]
enum Phase {
    /// The first turn: the loop top, then what it chose.
    Begin,
    /// A progress (or control) pass.
    Pass,
    /// Charge the pass's fallback-channel receive copy.
    Fallback(Ns),
    /// Send the next reply.
    Reply,
    /// Charge that reply's post overhead.
    ReplyCost(Ns),
    /// Charge the pass's polling cost.
    PollCost,
    /// Check the wait; a periodic agent's sleep ends at `Some(deadline)`
    /// once armed.
    Wait(Option<Ns>),
    /// Acknowledge the stop and wake the rank.
    Ack,
    /// Retire the actor.
    Retire,
}

/// A rank's progress agent — the polling agent, or with `ctrl_only` the
/// hybrid control drainer of `ProgressMode::Hardware` (DESIGN.md §5g) —
/// as a callback actor: no thread, a virtual clock and a wake predicate
/// of its own. Its loop is the paper's polling thread: a pass, the
/// fallback copy, each reply and its post overhead, the polling cost,
/// then a wait (`interval == 0`: until the CQ, the control port or the
/// retry table has work; otherwise a sleep of `interval`). It is cut at
/// exactly the scheduler entries that thread made, one per step: a
/// coarser cut would reorder same-time entities and move every golden
/// trace.
struct Agent {
    sim: Arc<SimState>,
    /// The rank's actor.
    owner: ActorId,
    life: Arc<AtomicU8>,
    interval: Ns,
    ctrl_only: bool,
    phase: Phase,
    /// The last pass's replies not yet sent, and its event count.
    replies: std::vec::IntoIter<Resend>,
    polled: usize,
}

impl Agent {
    fn step(&mut self, sched: &mut Sched, me: ActorId, t: Ns) -> Step {
        const NEXT: Step = Step::Yield { advance: 0 };
        match self.phase {
            Phase::Begin => {
                self.phase = self.loop_top();
                self.step(sched, me, t)
            }
            Phase::Pass => {
                let mut replies = Vec::new();
                let (n, fb_bytes, fb_msgs) =
                    self.sim.agent_pass(sched, t, self.ctrl_only, &mut replies);
                self.polled = n;
                self.replies = replies.into_iter();
                self.phase = if fb_msgs > 0 {
                    Phase::Fallback(self.sim.fallback_cost(fb_bytes, fb_msgs))
                } else {
                    self.next_reply()
                };
                NEXT
            }
            Phase::Fallback(advance) | Phase::ReplyCost(advance) => {
                self.phase = self.next_reply();
                Step::Yield { advance }
            }
            Phase::Reply => {
                let reply = self.replies.next().expect("a reply is pending");
                let overhead = self.sim.send_reply_at(sched, t, reply);
                self.phase = Phase::ReplyCost(overhead);
                NEXT
            }
            Phase::PollCost => {
                self.phase = Phase::Wait(None);
                Step::Yield {
                    advance: POLL_COST_BASE + self.polled as Ns * POLL_COST_PER_EVENT,
                }
            }
            Phase::Wait(until) => {
                if self.waited(t, until) {
                    self.phase = self.loop_top();
                    return NEXT;
                }
                self.arm(sched, me, t, until);
                Step::Block
            }
            Phase::Ack => {
                self.life.store(STOPPED, Ordering::Relaxed);
                sched.wake(self.owner, t);
                self.phase = Phase::Retire;
                NEXT
            }
            Phase::Retire => Step::Finish,
        }
    }

    /// The top of the loop: stop, or pass again — decided in the turn
    /// that ends the wait (or the first turn), like a thread's code
    /// between that turn and its next call; a later stop is seen at the
    /// next wait check.
    fn loop_top(&self) -> Phase {
        if self.life.load(Ordering::Relaxed) == RUNNING {
            Phase::Pass
        } else {
            Phase::Ack
        }
    }

    /// After a pass, its fallback copy or a reply: the next reply, else
    /// the polling cost.
    fn next_reply(&self) -> Phase {
        if self.replies.len() > 0 {
            Phase::Reply
        } else {
            Phase::PollCost
        }
    }

    /// Is the wait over? A periodic agent's timer wakes it at the
    /// deadline, so its clock reaching that is the timer having run.
    fn waited(&self, t: Ns, until: Option<Ns>) -> bool {
        if self.life.load(Ordering::Relaxed) != RUNNING {
            return true;
        }
        if self.interval > 0 {
            return until.is_some_and(|u| t >= u);
        }
        // Busy-spin model: anything to process, or a retransmit
        // deadline due. The control drainer never looks at the CQ:
        // under a hardware channel nothing is ever pushed there.
        let sim = &self.sim;
        (!self.ctrl_only && !sim.cq.is_empty())
            || !sim.port.is_empty()
            || sim.core.retry.as_ref().is_some_and(|r| r.is_due())
    }

    /// Arrange to be woken when the wait may be over: by the CQ, the
    /// port and the retry table, or by a timer armed once per sleep.
    fn arm(&mut self, sched: &mut Sched, me: ActorId, t: Ns, until: Option<Ns>) {
        let sim = &self.sim;
        if self.interval > 0 {
            if until.is_none() {
                let u = t + self.interval;
                sched.schedule_at(u, move |st| st.wake(me, u));
                self.phase = Phase::Wait(Some(u));
            }
            return;
        }
        if !self.ctrl_only {
            sim.cq.add_waiter(me);
        }
        sim.port.add_waiter(me);
        if let Some(r) = &sim.core.retry {
            r.add_waiter(me);
        }
    }
}

impl SimTransport {
    /// Start the rank's [`Agent`], its clock at the rank's present.
    /// `ctrl_only == false` is the classic polling agent (drains CQ +
    /// control port every pass); `ctrl_only == true` is the hybrid
    /// control drainer of `ProgressMode::Hardware` (DESIGN.md §5g): the
    /// level-4 sink owns the data path, the drainer only drains the
    /// control port — acks/retransmits/`MSG_AGG`/`MSG_EPOCH` — and
    /// idle-parks until the port bell or a retransmit deadline wakes it.
    pub(crate) fn spawn_agent(&self, interval: Ns, ctrl_only: bool) {
        let rank = self.sim.ep.rank();
        let name = if ctrl_only {
            format!("unr-hwctrl-{rank}")
        } else {
            format!("unr-poller-{rank}")
        };
        let life = Arc::new(AtomicU8::new(RUNNING));
        let mut agent = Agent {
            sim: Arc::clone(&self.sim),
            owner: self.sim.ep.actor().id(),
            life: Arc::clone(&life),
            interval,
            ctrl_only,
            phase: Phase::Begin,
            replies: Vec::new().into_iter(),
            polled: 0,
        };
        let core = self.sim.ep.fabric().core();
        let id = core.register_callback(&name, self.sim.ep.now(), move |st, me, t| {
            agent.step(st, me, t)
        });
        *self.agent.lock() = Some(AgentState { id, life });
    }

    /// Stop the agent (idempotent): set stop and wake it in one
    /// scheduler entry, then wait until its last pass acknowledges.
    pub(crate) fn stop_agent(&self) {
        let Some(AgentState { id, life }) = self.agent.lock().take() else {
            return;
        };
        let actor = self.sim.ep.actor();
        actor.with_sched(|st, t| {
            life.store(STOPPING, Ordering::Relaxed);
            st.wake(id, t);
        });
        actor.wait_until(|_st| life.load(Ordering::Relaxed) == STOPPED, |_st, _me| {});
        // The agent retires one step later at the same time; yielding
        // 1 ns lets that step run first. The golden traces lock the 1 ns.
        self.sim.ep.sleep(1);
    }
}
