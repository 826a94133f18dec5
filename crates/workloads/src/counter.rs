//! Counter micro-workloads: the two extremes of the contention
//! spectrum.
//!
//! * [`ConflictCounter`] — every task increments the *same* `TVar`: the
//!   maximally contended workload (scalability ≈ none; every pair of
//!   concurrent updates conflicts). A worst-case sanity check for the
//!   tuner — a good controller should keep such a workload at 1–2
//!   threads.
//! * [`StripedCounter`] — tasks increment one of `N` stripes chosen by
//!   round-robin per worker: conflict probability ~1/N, so scalability
//!   grows with the stripe count. Sweeping `N` produces a family of
//!   scalability curves for controller studies.

use rubic_sync::atomic::{AtomicUsize, Ordering};

use rubic_runtime::Workload;
use rubic_stm::{Stm, TVar};

/// All tasks hammer one shared transactional counter.
pub struct ConflictCounter {
    counter: TVar<u64>,
    stm: Stm,
}

impl ConflictCounter {
    /// Creates the counter at zero.
    #[must_use]
    pub fn new(stm: Stm) -> Self {
        ConflictCounter {
            counter: TVar::new(0),
            stm,
        }
    }

    /// Current committed value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.counter.snapshot()
    }

    /// The STM runtime.
    #[must_use]
    pub fn stm(&self) -> &Stm {
        &self.stm
    }
}

impl Workload for ConflictCounter {
    type WorkerState = ();

    fn init_worker(&self, _tid: usize) {}

    fn run_task(&self, (): &mut ()) {
        self.stm
            .atomically(|tx| tx.modify(&self.counter, |x| x + 1));
    }

    fn drain_aborts(&self, (): &mut ()) -> u64 {
        rubic_stm::take_thread_aborts()
    }
}

/// Tasks spread increments across `N` stripes.
pub struct StripedCounter {
    stripes: Vec<TVar<u64>>,
    next: AtomicUsize,
    stm: Stm,
}

impl StripedCounter {
    /// Creates `n` zeroed stripes.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize, stm: Stm) -> Self {
        assert!(n >= 1, "need at least one stripe");
        StripedCounter {
            stripes: (0..n).map(|_| TVar::new(0)).collect(),
            next: AtomicUsize::new(0),
            stm,
        }
    }

    /// Sum of all stripes (non-transactional; exact once workers stop).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.stripes.iter().map(TVar::snapshot).sum()
    }

    /// Number of stripes.
    #[must_use]
    pub fn stripes(&self) -> usize {
        self.stripes.len()
    }

    /// The STM runtime.
    #[must_use]
    pub fn stm(&self) -> &Stm {
        &self.stm
    }
}

/// Worker state: the stripe cursor (per-worker offset keeps adjacent
/// workers on different stripes).
pub struct StripeCursor {
    at: usize,
}

impl Workload for StripedCounter {
    type WorkerState = StripeCursor;

    fn init_worker(&self, _tid: usize) -> StripeCursor {
        StripeCursor {
            // ordering: stripe assignment only spreads load across
            // counters; any distribution is correct.
            at: self.next.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn run_task(&self, state: &mut StripeCursor) {
        let stripe = &self.stripes[state.at % self.stripes.len()];
        state.at = state.at.wrapping_add(1);
        self.stm.atomically(|tx| tx.modify(stripe, |x| x + 1));
    }

    fn drain_aborts(&self, _state: &mut StripeCursor) -> u64 {
        rubic_stm::take_thread_aborts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn conflict_counter_counts() {
        let w = ConflictCounter::new(Stm::default());
        w.init_worker(0);
        for _ in 0..100 {
            w.run_task(&mut ());
        }
        assert_eq!(w.value(), 100);
    }

    #[test]
    fn conflict_counter_no_lost_updates_across_threads() {
        let w = Arc::new(ConflictCounter::new(Stm::default()));
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    w.init_worker(tid);
                    for _ in 0..250 {
                        w.run_task(&mut ());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(w.value(), 1000);
    }

    #[test]
    fn striped_counter_distributes() {
        let w = StripedCounter::new(4, Stm::default());
        let mut s = w.init_worker(0);
        for _ in 0..400 {
            w.run_task(&mut s);
        }
        assert_eq!(w.total(), 400);
        // Round-robin: each stripe got exactly 100.
        for stripe in &w.stripes {
            assert_eq!(stripe.snapshot(), 100);
        }
    }

    #[test]
    #[should_panic(expected = "at least one stripe")]
    fn zero_stripes_rejected() {
        let _ = StripedCounter::new(0, Stm::default());
    }
}
