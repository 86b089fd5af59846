//! The fabric's event bell ([`crate::fabric`]): how a thread that moved
//! a waiter's predicate wakes the waiters sleeping in `poll(2)`.

use std::io;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use unr_simnet::sync::Mutex as SyncMutex;

use crate::reactor::{ReactorMetrics, Waiting, WakeHandle};

/// The event bell: an atomic epoch for sleepers that sleep in `poll(2)`
/// over the rank's sockets, each on a wake channel of its own (`poll`
/// wakes every poller of a readable descriptor, but the first of two to
/// run would empty a shared channel before the second looks). A waiter
/// samples the epoch *before* testing its predicate; to sleep it parks
/// on a channel, re-reads the epoch, and only then polls, the channel's
/// read end in its set. A ringer bumps the epoch, then writes to every
/// parked channel. All SeqCst, so of a ring and a park that cross,
/// either the waiter sees the new epoch or the ringer sees it parked;
/// from there it is [`WakeHandle`]'s argument. With nobody parked — a
/// waiter reading its own sockets is not — a ring is one atomic add and
/// one load.
pub(crate) struct EventBell {
    epoch: AtomicU64,
    /// Shared with the reactors, who yield their read interest to
    /// parked waiters.
    pub(crate) waiting: Arc<Waiting>,
    /// One per thread that has slept here at once; never shrinks.
    channels: SyncMutex<Vec<Arc<BellChannel>>>,
    /// Wake bytes count in `unr.transport.reactor.wakeups`.
    met: ReactorMetrics,
}

/// One sleeper's wake channel; `parked` while a thread holds it.
pub(crate) struct BellChannel {
    pub(crate) wake: WakeHandle,
    pub(crate) rx: UnixStream,
    pub(crate) parked: AtomicBool,
}

impl BellChannel {
    fn new(parked: bool) -> io::Result<Arc<BellChannel>> {
        let (wake, rx) = WakeHandle::channel()?;
        let parked = AtomicBool::new(parked);
        Ok(Arc::new(BellChannel { wake, rx, parked }))
    }
}

impl EventBell {
    pub(crate) fn new(met: ReactorMetrics) -> io::Result<EventBell> {
        // A lone waiter never builds a channel on its wait path.
        Ok(EventBell {
            epoch: AtomicU64::new(0),
            waiting: Arc::new(Waiting::default()),
            channels: SyncMutex::new(vec![BellChannel::new(false)?]),
            met,
        })
    }

    pub(crate) fn ring(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.waiting.parked() > 0 {
            for c in self.channels.lock().iter() {
                if c.parked.load(Ordering::SeqCst) {
                    c.wake.wake(&self.met);
                }
            }
        }
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Park on a channel no other thread holds, built if every one is
    /// held; unpark by clearing its `parked`.
    pub(crate) fn park(&self) -> io::Result<Arc<BellChannel>> {
        let mut channels = self.channels.lock();
        let free = |c: &&Arc<BellChannel>| {
            c.parked
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
        };
        if let Some(c) = channels.iter().find(free) {
            return Ok(Arc::clone(c));
        }
        let c = BellChannel::new(true)?;
        channels.push(Arc::clone(&c));
        Ok(c)
    }
}
