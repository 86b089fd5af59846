//! Completion queues and datagram ports.
//!
//! A [`CompletionQueue`] models a NIC CQ: bounded, carrying per-operation
//! *custom bits*. When it overflows, events are dropped and an overflow
//! flag latches — exactly the failure mode whose prevention motivates the
//! UNR polling thread (paper §IV-C, §VI-C).
//!
//! A [`Port`] is an unbounded, ordered mailbox for small control
//! datagrams (used by the mini-MPI layer and by UNR's level-0 channel's
//! "order-preserving companion message").
//!
//! Both structures are only ever touched while the scheduler lock is
//! held (from actor ops or event closures), which is what makes their
//! waker lists race-free; their own mutexes are just interior
//! mutability.

use crate::sync::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::sched::{ActorId, Sched};
use crate::time::Ns;

/// What completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionKind {
    /// A PUT finished reading the source buffer (source side).
    PutLocal,
    /// A PUT's data landed (target side).
    PutRemote,
    /// A GET's data landed locally (initiator side).
    GetLocal,
    /// A GET read the exposed buffer (exposer side).
    GetRemote,
}

/// One completion event.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    pub kind: CompletionKind,
    /// Custom-bits payload, already truncated to the NIC's width.
    pub custom: u128,
    /// Which NIC produced the event.
    pub nic: usize,
    /// Virtual time the event was generated.
    pub t: Ns,
}

struct CqInner {
    events: VecDeque<Completion>,
    capacity: usize,
    dropped: u64,
    overflowed: bool,
    waiters: Vec<ActorId>,
}

/// A bounded completion queue.
pub struct CompletionQueue {
    inner: Mutex<CqInner>,
    /// Depth gauge (high watermark = deepest the CQ ever got).
    depth: Option<Arc<unr_obs::Gauge>>,
    /// Counts events dropped on overflow.
    dropped_ctr: Option<Arc<unr_obs::Counter>>,
}

impl CompletionQueue {
    pub fn new(capacity: usize) -> Self {
        Self::with_obs(capacity, None, None)
    }

    /// Like [`new`](Self::new), with optional observability handles:
    /// `depth` tracks the instantaneous queue depth (its high watermark
    /// is the interesting number), `dropped_ctr` counts overflow drops.
    pub fn with_obs(
        capacity: usize,
        depth: Option<Arc<unr_obs::Gauge>>,
        dropped_ctr: Option<Arc<unr_obs::Counter>>,
    ) -> Self {
        assert!(capacity > 0);
        CompletionQueue {
            inner: Mutex::new(CqInner {
                events: VecDeque::new(),
                capacity,
                dropped: 0,
                overflowed: false,
                waiters: Vec::new(),
            }),
            depth,
            dropped_ctr,
        }
    }

    /// Push an event (scheduler context). Wakes all waiters. Returns
    /// `false` if the event was dropped because the queue was full.
    pub fn push(&self, sched: &mut Sched, c: Completion) -> bool {
        let mut q = self.inner.lock();
        let ok = if q.events.len() >= q.capacity {
            q.dropped += 1;
            q.overflowed = true;
            if let Some(d) = &self.dropped_ctr {
                d.inc();
            }
            false
        } else {
            q.events.push_back(c);
            if let Some(g) = &self.depth {
                g.add(1);
            }
            true
        };
        let t = c.t;
        for w in q.waiters.drain(..) {
            sched.wake(w, t);
        }
        ok
    }

    /// Pop one event if present (scheduler context).
    pub fn try_pop(&self) -> Option<Completion> {
        let c = self.inner.lock().events.pop_front();
        if c.is_some() {
            if let Some(g) = &self.depth {
                g.add(-1);
            }
        }
        c
    }

    /// Drain up to `max` events (scheduler context).
    pub fn drain(&self, max: usize, out: &mut Vec<Completion>) -> usize {
        let mut q = self.inner.lock();
        let n = max.min(q.events.len());
        out.extend(q.events.drain(..n));
        if n > 0 {
            if let Some(g) = &self.depth {
                g.add(-(n as i64));
            }
        }
        n
    }

    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the queue has ever overflowed (latched).
    pub fn overflowed(&self) -> bool {
        self.inner.lock().overflowed
    }

    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Register an actor to be woken on the next push (scheduler
    /// context; used by blocking waits).
    pub fn add_waiter(&self, id: ActorId) {
        let mut q = self.inner.lock();
        if !q.waiters.contains(&id) {
            q.waiters.push(id);
        }
    }
}

/// A received datagram.
#[derive(Debug, Clone)]
pub struct Dgram {
    pub src: usize,
    pub t: Ns,
    pub bytes: Vec<u8>,
    /// A put's companion whose data did not land (region gone, range
    /// out of bounds): whatever it vouches for must not be applied.
    /// Always `false` for a datagram sent on its own.
    pub lost: bool,
}

struct PortInner {
    msgs: VecDeque<Dgram>,
    waiters: Vec<ActorId>,
}

/// An unbounded ordered mailbox for control messages.
pub struct Port {
    inner: Mutex<PortInner>,
}

impl Default for Port {
    fn default() -> Self {
        Self::new()
    }
}

impl Port {
    pub fn new() -> Self {
        Port {
            inner: Mutex::new(PortInner {
                msgs: VecDeque::new(),
                waiters: Vec::new(),
            }),
        }
    }

    /// Deliver a datagram (scheduler context); wakes all waiters.
    pub fn push(&self, sched: &mut Sched, d: Dgram) {
        let mut p = self.inner.lock();
        let t = d.t;
        p.msgs.push_back(d);
        for w in p.waiters.drain(..) {
            sched.wake(w, t);
        }
    }

    /// Pop the oldest datagram if present (scheduler context).
    pub fn try_pop(&self) -> Option<Dgram> {
        self.inner.lock().msgs.pop_front()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().msgs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn add_waiter(&self, id: ActorId) {
        let mut p = self.inner.lock();
        if !p.waiters.contains(&id) {
            p.waiters.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SimCore;
    use crate::time::SEC;
    use std::sync::Arc;

    #[test]
    fn cq_overflow_latches() {
        // Drive pushes through a minimal sim so we have a &mut Sched.
        let core = SimCore::new(SEC);
        let h = core.register_actor("t", 0);
        let cq = Arc::new(CompletionQueue::new(2));
        let cq2 = Arc::clone(&cq);
        let th = std::thread::spawn(move || {
            h.begin();
            h.with_sched(|st, t| {
                let mk = |t| Completion {
                    kind: CompletionKind::PutRemote,
                    custom: 1,
                    nic: 0,
                    t,
                };
                assert!(cq2.push(st, mk(t)));
                assert!(cq2.push(st, mk(t)));
                assert!(!cq2.push(st, mk(t)), "third push must drop");
            });
            h.end();
        });
        th.join().unwrap();
        assert_eq!(cq.len(), 2);
        assert!(cq.overflowed());
        assert_eq!(cq.dropped(), 1);
    }

    #[test]
    fn cq_drain_order_is_fifo() {
        let core = SimCore::new(SEC);
        let h = core.register_actor("t", 0);
        let cq = Arc::new(CompletionQueue::new(16));
        let cq2 = Arc::clone(&cq);
        std::thread::spawn(move || {
            h.begin();
            h.with_sched(|st, t| {
                for i in 0..5u128 {
                    cq2.push(
                        st,
                        Completion {
                            kind: CompletionKind::PutRemote,
                            custom: i,
                            nic: 0,
                            t,
                        },
                    );
                }
            });
            h.end();
        })
        .join()
        .unwrap();
        let mut out = Vec::new();
        assert_eq!(cq.drain(3, &mut out), 3);
        assert_eq!(
            out.iter().map(|c| c.custom).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(cq.try_pop().unwrap().custom, 3);
        assert_eq!(cq.len(), 1);
    }

    #[test]
    fn port_fifo_and_waiter_wake() {
        let core = SimCore::new(SEC);
        let port = Arc::new(Port::new());
        let producer = core.register_actor("producer", 0);
        let consumer = core.register_actor("consumer", 0);
        let p1 = Arc::clone(&port);
        let p2 = Arc::clone(&port);
        let t1 = std::thread::spawn(move || {
            producer.begin();
            producer.advance(100);
            producer.with_sched(|st, t| {
                p1.push(
                    st,
                    Dgram {
                        src: 0,
                        t,
                        bytes: vec![42],
                        lost: false,
                    },
                );
            });
            producer.end();
        });
        let t2 = std::thread::spawn(move || {
            consumer.begin();
            let got = {
                let p = Arc::clone(&p2);
                consumer.wait_until(move |_st| !p.is_empty(), {
                    let p = Arc::clone(&p2);
                    move |_st, me| p.add_waiter(me)
                })
            };
            assert_eq!(got, 100, "consumer woken at producer's send time");
            let d = p2.try_pop().expect("message present");
            assert_eq!(d.bytes, vec![42]);
            consumer.end();
        });
        t1.join().unwrap();
        t2.join().unwrap();
    }
}
