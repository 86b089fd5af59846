//! Std-only synchronization primitives.
//!
//! Thin wrappers over `std::sync::{Mutex, Condvar}` with the ergonomics
//! the simulator wants (and that `parking_lot` used to provide):
//! `lock()` returns the guard directly instead of a `Result`. Poisoning
//! is recovered, not propagated — a panicking actor already poisons the
//! whole simulation explicitly via [`crate::sched`]'s poison flag, which
//! reports a far better diagnostic than a `PoisonError` unwrap chain,
//! and sibling actors must still be able to take the lock to observe it.
//!
//! Part of the workspace's hermetic, zero-external-dependency policy:
//! everything builds offline from a cold registry.

use std::sync::PoisonError;

/// A mutual-exclusion lock; `lock()` never fails.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, recovering from poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// A condition variable paired with [`Mutex`]. Unlike
/// `std::sync::Condvar::wait`, `wait` consumes and returns the guard
/// (poison-recovered), so the calling pattern is
/// `st = cv.wait(st);` inside the usual predicate loop.
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Atomically release the lock and block until notified.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_mutates_and_into_inner_returns() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn lock_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the mutex");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_wait_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            while !*g {
                g = cv.wait(g);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }
}
