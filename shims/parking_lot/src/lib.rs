//! Offline stand-in for the `parking_lot` crate.
//!
//! Provides `Mutex`, `MutexGuard`, `Condvar`, and `WaitTimeoutResult` with
//! parking_lot's API shape (no lock poisoning, `Condvar::wait(&mut guard)`),
//! implemented over `std::sync`. A poisoned std lock is recovered via
//! `into_inner` — the workspace treats a panicked rank thread as a fault to
//! survive, not a reason to cascade panics through every peer holding the
//! mailbox lock.

#![forbid(unsafe_code)]

use std::sync::TryLockError;
use std::time::Duration;

/// Mutex with parking_lot semantics: `lock()` returns the guard directly.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MutexGuard { guard: Some(guard) }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { guard: Some(g) }),
            Err(TryLockError::Poisoned(e)) => Some(MutexGuard { guard: Some(e.into_inner()) }),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

/// Guard wrapper: holds the std guard in an `Option` so `Condvar::wait` can
/// take it by `&mut`, hand the inner guard to std (which consumes it), and
/// put the reacquired guard back.
pub struct MutexGuard<'a, T: ?Sized> {
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside of a condvar wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside of a condvar wait")
    }
}

/// Result of a timed condvar wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Condvar with parking_lot's `&mut guard` calling convention.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub fn new() -> Self {
        Condvar::default()
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.guard.take().expect("guard present");
        let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        guard.guard = Some(inner);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.guard.take().expect("guard present");
        let (inner, res) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(e) => {
                let (g, r) = e.into_inner();
                (g, r)
            }
        };
        guard.guard = Some(inner);
        WaitTimeoutResult { timed_out: res.timed_out() }
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn condvar_wakeup_across_threads() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                *m.lock() = true;
                cv.notify_all();
            });
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let start = Instant::now();
        let res = cv.wait_for(&mut g, Duration::from_millis(20));
        assert!(res.timed_out());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }
}
