//! The one-shot broadcast flag behind "the queue drained" and "the pool
//! stopped".

use rubic_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use rubic_sync::{Condvar, Mutex};

/// A one-shot broadcast flag: waiters park on a condvar until the first
/// `fire`, instead of sleep-polling an atomic.
///
/// Used for "the queue drained" and "the pool stopped" — conditions that
/// transition exactly once. The lock-free `fired` flag serves the
/// fast-path `is_fired` probes; the mutex-guarded copy is what waiters
/// sleep on, so a fire between a waiter's check and its park can never
/// be missed. `wakes` counts condvar wakeups observed by waiters — a
/// diagnostic the tests use to assert the signal produces a handful of
/// wakes, not a poll storm.
#[derive(Debug, Default)]
pub(crate) struct DrainSignal {
    fired: AtomicBool,
    state: Mutex<bool>,
    cv: Condvar,
    wakes: AtomicU64,
}

impl DrainSignal {
    /// True once `fire` was called.
    pub(crate) fn is_fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// Fires the signal, releasing every current and future waiter.
    /// Idempotent.
    pub(crate) fn fire(&self) {
        let mut fired = self.state.lock();
        if !*fired {
            *fired = true;
            self.fired.store(true, Ordering::Release);
            drop(fired);
            self.cv.notify_all();
        }
    }

    /// Blocks until the signal fires. Returns immediately if it already
    /// has.
    pub(crate) fn wait(&self) {
        if self.is_fired() {
            return;
        }
        let mut fired = self.state.lock();
        while !*fired {
            self.cv.wait(&mut fired);
            self.wakes.fetch_add(1, Ordering::Relaxed); // ordering: diagnostic counter
        }
    }

    /// Condvar wakeups observed across all `wait` calls (diagnostic).
    pub(crate) fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed) // ordering: diagnostic read
    }
}
