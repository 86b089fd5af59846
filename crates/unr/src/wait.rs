//! The wait, written once: `UNR_Sig_Wait` and its family (paper §IV-B/D)
//! over [`Transport::park`], which is all a fabric says about waiting
//! (simnet: a scheduler wait; netfab: a poll of the rank's sockets on
//! the waiting thread). One loop parks and then resolves the outcome in
//! one place, in this order: a ready signal (an overflowed one is an
//! error, counted in `unr.signal.overflow_trips` and in
//! `SignalStats::overflow_errors`), a drained retry table, a failed
//! peer, the deadline.

use std::cell::Cell;
use std::sync::atomic::Ordering;

use unr_simnet::Ns;

use crate::agg::FlushWhy;
use crate::post::Unr;
use crate::retry::RetryState;
use crate::signal::{Signal, SignalError};
use crate::transport::Transport;
use crate::UnrError;

/// What a wait waits for, as [`Transport::park`] sees it: the signals
/// whose readiness ends it, an optional deadline on the transport's
/// clock, and whether it waits for the retry table to drain.
pub struct Until<'a> {
    pub(crate) sigs: &'a [&'a Signal],
    timeout: Option<Ns>,
    drain: bool,
    /// `(deadline, the timeout it came from)`, set by the first park.
    deadline: Cell<Option<(Ns, Ns)>>,
}

impl<'a> Until<'a> {
    pub(crate) fn new(sigs: &'a [&'a Signal], timeout: Option<Ns>, drain: bool) -> Until<'a> {
        Until {
            sigs,
            timeout,
            drain,
            deadline: Cell::new(None),
        }
    }

    /// Whether the engine's side of the wait is over: a signal is ready
    /// (triggered or overflowed), or the retry table `retry` has latched
    /// a peer down or — for a drain — holds nothing unacked. The
    /// deadline and a dead peer are the transport's to add.
    pub fn met(&self, retry: Option<&RetryState>) -> bool {
        self.sigs.iter().any(|s| s.ready(s.n_bits()))
            || retry.is_some_and(RetryState::failed)
            || self.drained(retry)
    }

    fn drained(&self, retry: Option<&RetryState>) -> bool {
        self.drain && retry.is_none_or(|r| r.in_flight() == 0)
    }

    /// The wait's deadline on the transport's clock. The first park
    /// resolves it: `arm` gets the wait's timeout — or `cap`, the
    /// transport's own bound on a wait that has none — and returns the
    /// deadline, arming whatever timer the transport needs. Later parks
    /// get the same answer and `arm` is not called again.
    pub fn deadline(&self, cap: Option<Ns>, arm: impl FnOnce(Ns) -> Ns) -> Option<Ns> {
        if self.deadline.get().is_none() {
            if let Some(dt) = self.timeout.or(cap) {
                self.deadline.set(Some((arm(dt), dt)));
            }
        }
        self.deadline.get().map(|(d, _)| d)
    }
}

/// What a [`Transport::park`] saw that only the transport can see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Woke {
    /// Nothing of its own: the caller tests the wait again.
    Retest,
    /// A peer rank is dead (the transport's membership view).
    PeerDead,
    /// The deadline [`Until::deadline`] resolved to has passed.
    Expired,
}

/// The wait family, on every fabric.
impl<T: Transport> Unr<T> {
    /// `UNR_Sig_Wait`: block until `sig` triggers, driving whatever
    /// progress the fabric needs; an overflow is an error (§IV-D). A
    /// peer the reliable transport or the membership layer declares
    /// failed ends it with [`UnrError::PeerFailed`], and netfab's
    /// 30 s wall-clock cap with a timeout.
    pub fn sig_wait(&self, sig: &Signal) -> Result<(), UnrError> {
        self.wait(&Until::new(&[sig], None, false)).map(drop)
    }

    /// [`Unr::sig_wait`] with a deadline: gives up after `dt`
    /// nanoseconds on the transport's clock (virtual on simnet, wall on
    /// netfab) with [`UnrError::Timeout`]. A signal that is ready, or a
    /// peer that failed, beats the deadline.
    pub fn sig_wait_timeout(&self, sig: &Signal, dt: Ns) -> Result<(), UnrError> {
        self.wait(&Until::new(&[sig], Some(dt), false)).map(drop)
    }

    /// Wait until **any** of `sigs` triggers; returns its index.
    /// Signals that are already triggered win immediately (lowest index
    /// first). Overflowed signals count as ready and surface the error.
    pub fn sig_wait_any(&self, sigs: &[&Signal]) -> Result<usize, UnrError> {
        assert!(!sigs.is_empty(), "sig_wait_any needs at least one signal");
        self.wait(&Until::new(sigs, None, false))
    }

    /// [`Unr::sig_wait_any`] with a deadline: the index of the first of
    /// `sigs` to trigger, or [`UnrError::Timeout`] after `dt` on the
    /// transport's clock. A ready signal beats the deadline, as in
    /// [`Unr::sig_wait_timeout`].
    pub fn sig_wait_any_timeout(&self, sigs: &[&Signal], dt: Ns) -> Result<usize, UnrError> {
        assert!(
            !sigs.is_empty(),
            "sig_wait_any_timeout needs at least one signal"
        );
        self.wait(&Until::new(sigs, Some(dt), false))
    }

    /// Wait until every reliable sub-message this rank has posted is
    /// acked; [`UnrError::Timeout`] after `dt` on the transport's clock.
    /// `Ok` at once on an unreliable context.
    pub fn wait_drained(&self, dt: Ns) -> Result<(), UnrError> {
        self.wait(&Until::new(&[], Some(dt), true)).map(drop)
    }

    /// `UNR_Sig_Reset` (see [`Signal::reset`]); a reset that raced
    /// pending events also counts in `unr.signal.reset_errors`.
    pub fn sig_reset(&self, sig: &Signal) -> Result<(), UnrError> {
        sig.reset().map_err(|e| {
            self.core.met.sig_reset_errors.inc();
            UnrError::Signal(e)
        })
    }

    /// The one wait loop. Returns the index of the ready signal (0 for a
    /// drain).
    fn wait(&self, until: &Until<'_>) -> Result<usize, UnrError> {
        // Entering a blocking wait flushes our own pending aggregates:
        // whatever the peer is waiting on may be sitting in a ring.
        self.agg_flush_all(FlushWhy::Wait)?;
        let retry = self.core.retry.as_deref();
        loop {
            let woke = self.tx.park(until);
            if let Some(i) = until.sigs.iter().position(|s| s.ready(s.n_bits())) {
                let sig = until.sigs[i];
                if !sig.overflowed() {
                    return Ok(i);
                }
                self.core.met.overflow_trips.inc();
                self.core
                    .table
                    .stats
                    .overflow_errors
                    .fetch_add(1, Ordering::Relaxed);
                return Err(UnrError::Signal(SignalError::EventOverflow {
                    counter: sig.counter(),
                }));
            }
            if until.drained(retry) {
                return Ok(0);
            }
            if woke == Woke::PeerDead || retry.is_some_and(RetryState::failed) {
                return Err(self.peer_failed_error());
            }
            if woke == Woke::Expired {
                let waited = until.deadline.get().map_or(0, |(_, dt)| dt);
                return Err(UnrError::Timeout { waited });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::post::tests::{engine, take_log, Call, Fake};
    use crate::retry::Route;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use unr_simnet::{Bytes, RKey};

    fn parks(unr: &Unr<Fake>) -> usize {
        take_log(unr).iter().filter(|c| **c == Call::Park).count()
    }

    fn set_park(unr: &Unr<Fake>, park: impl FnMut(&Until<'_>) -> Woke + Send + 'static) {
        *unr.tx.park.lock() = Box::new(park);
    }

    /// One unacked entry, registered and armed at time 0.
    fn in_flight(retry: &RetryState) -> u64 {
        let dst = RKey {
            rank: 1,
            id: 9,
            len: 64,
        };
        let reg = retry.register_data(Route::Dgram, Bytes::from(vec![1; 4]), dst, 0, 0, 0, 0);
        retry.arm(0, &[(1, reg.seq)], |_| {});
        reg.seq
    }

    /// Whatever the park says, a ready signal ends the wait: a clean
    /// one with its index, an overflowed one with the error, counted
    /// once in each series by every wait of the family.
    #[test]
    fn a_ready_signal_beats_the_deadline_and_an_overflow_counts_once_in_each_series() {
        let unr = engine(Channel::glex(), false, false, Route::Rma, None);
        set_park(&unr, |_| Woke::Expired);
        let trips = || unr.obs().metrics.counter("unr.signal.overflow_trips").get();
        let errors = || unr.signal_stats().overflow_errors.load(Ordering::Relaxed);
        let (idle, sig) = (unr.sig_init(1), unr.sig_init(1));
        unr.table().apply_counted(sig.key().raw(), -1);
        assert!(unr.sig_wait_timeout(&sig, 100).is_ok());
        assert_eq!(unr.sig_wait_any(&[&idle, &sig]).unwrap(), 1);
        assert_eq!(unr.sig_wait_any_timeout(&[&idle, &sig], 100).unwrap(), 1);
        assert_eq!((parks(&unr), trips(), errors()), (3, 0, 0));

        unr.table().apply_counted(sig.key().raw(), -1);
        for n in 0..4 {
            let got = match n {
                0 => unr.sig_wait(&sig),
                1 => unr.sig_wait_timeout(&sig, 100),
                2 => unr.sig_wait_any(&[&idle, &sig]).map(drop),
                _ => unr.sig_wait_any_timeout(&[&idle, &sig], 100).map(drop),
            };
            let overflowed = matches!(
                got,
                Err(UnrError::Signal(SignalError::EventOverflow { .. }))
            );
            assert!(overflowed, "wait {n}: {got:?}");
            assert_eq!(
                (trips(), errors()),
                (n as u64 + 1, n as u64 + 1),
                "wait {n}"
            );
        }
    }

    /// A latched-down retry table and a dead peer the transport sees
    /// both beat an expired deadline.
    #[test]
    fn a_failed_peer_beats_the_deadline() {
        let unr = engine(Channel::glex(), true, false, Route::Rma, None);
        let sig = unr.sig_init(1);
        set_park(&unr, |_| Woke::PeerDead);
        let got = unr.sig_wait(&sig);
        assert!(matches!(got, Err(UnrError::PeerFailed { .. })), "{got:?}");

        let retry = unr.core.retry.as_deref().unwrap();
        in_flight(retry);
        let policy = retry.policy;
        for attempt in 1..=u64::from(policy.max_retries) + 1 {
            retry.sweep(attempt * (policy.max_backoff + 1));
        }
        assert!(retry.failed());
        set_park(&unr, |_| Woke::Expired);
        let got = unr.sig_wait_timeout(&sig, 100);
        assert!(matches!(got, Err(UnrError::PeerFailed { .. })), "{got:?}");
        assert_eq!(parks(&unr), 2);
    }

    /// The first park resolves the deadline — the transport arms its
    /// timer there — and every later park of the same wait gets it back
    /// unarmed; `Timeout` reports the timeout, for one signal or any of
    /// several. A wait with none never arms; the next timed wait arms
    /// afresh.
    #[test]
    fn the_deadline_is_armed_once_per_wait() {
        let unr = engine(Channel::glex(), false, false, Route::Rma, None);
        let sig = unr.sig_init(1);
        let arms = Arc::new(AtomicUsize::new(0));
        let park = |expire_at: usize| {
            let (arms, mut n) = (Arc::clone(&arms), 0);
            move |until: &Until<'_>| {
                n += 1;
                let d = until.deadline(None, |dt| {
                    arms.fetch_add(1, Ordering::Relaxed);
                    1_000 + dt
                });
                match d {
                    Some(d) if n >= expire_at => {
                        assert_eq!(d, 1_100);
                        Woke::Expired
                    }
                    _ => Woke::Retest,
                }
            }
        };
        set_park(&unr, park(3));
        let got = unr.sig_wait_timeout(&sig, 100);
        assert!(
            matches!(got, Err(UnrError::Timeout { waited: 100 })),
            "{got:?}"
        );
        assert_eq!((parks(&unr), arms.load(Ordering::Relaxed)), (3, 1));
        set_park(&unr, park(2));
        let other = unr.sig_init(1);
        let got = unr.sig_wait_any_timeout(&[&sig, &other], 100);
        assert!(
            matches!(got, Err(UnrError::Timeout { waited: 100 })),
            "{got:?}"
        );
        assert_eq!((parks(&unr), arms.load(Ordering::Relaxed)), (2, 2));

        let (table, key) = (Arc::clone(unr.table()), sig.key().raw());
        set_park(&unr, move |until| {
            assert_eq!(until.deadline(None, |_| unreachable!()), None);
            table.apply_counted(key, -1);
            Woke::Retest
        });
        unr.sig_wait(&sig).unwrap();
        set_park(&unr, park(1));
        assert!(unr.sig_wait_timeout(&unr.sig_init(1), 100).is_err());
        assert_eq!(arms.load(Ordering::Relaxed), 3);
    }

    /// A drain ends once nothing is unacked, whatever the deadline.
    #[test]
    fn a_drain_ends_when_the_retry_table_empties() {
        let unr = engine(Channel::glex(), true, false, Route::Rma, None);
        let retry = Arc::clone(unr.core.retry.as_ref().unwrap());
        let seq = in_flight(&retry);
        set_park(&unr, move |_| {
            retry.unregister(1, seq);
            Woke::Expired
        });
        unr.wait_drained(100).unwrap();
        assert_eq!(parks(&unr), 1);
    }
}
