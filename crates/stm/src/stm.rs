//! The `Stm` handle: retry loop, back-off, statistics.
//!
//! A call to [`Stm::atomically`] borrows the calling thread's
//! transaction context for its whole retry loop (`Transaction::begin`
//! takes it, `Transaction::park` returns it — on commit and on a
//! panicking body), so a committed transaction's fixed cost is one
//! epoch pin/unpin, the body, and plain stores to thread-owned memory
//! (DESIGN.md §11).

use std::sync::Arc;

use crate::stats::StmStats;
use crate::txn::{Transaction, TxResult};

/// An STM runtime handle: owns the statistics and drives the
/// transaction retry loop.
///
/// `Stm` is `Send + Sync` and cheap to share: a clone is another handle
/// to the same statistics, and worker threads typically share one
/// instance per logical process/tenant so commit-rates are accounted
/// per tenant.
///
/// ```
/// use rubic_stm::{Stm, TVar};
/// let stm = Stm::default();
/// let v = TVar::new(0u64);
/// for _ in 0..10 {
///     stm.atomically(|tx| tx.modify(&v, |x| x + 1));
/// }
/// assert_eq!(v.snapshot(), 10);
/// assert_eq!(stm.stats().commits(), 10);
/// ```
#[derive(Clone, Default)]
pub struct Stm {
    stats: Arc<StmStats>,
}

impl Stm {
    /// Creates an `Stm` with fresh statistics.
    #[must_use]
    pub fn new() -> Self {
        Stm::default()
    }

    /// Runs `f` transactionally until it commits, returning its result.
    ///
    /// `f` may run multiple times (once per attempt); it must be free of
    /// non-transactional side effects. Conflicts inside `f` should be
    /// propagated with `?` — returning `Err` aborts the attempt, backs
    /// off (capped exponential, `cm.rs`), and retries.
    ///
    /// # Panics
    /// Propagates panics from `f` after releasing all locks, so a
    /// panicking transaction never wedges other threads.
    pub fn atomically<R>(&self, mut f: impl FnMut(&mut Transaction) -> TxResult<R>) -> R {
        self.run(false, &mut f)
    }

    /// The retry loop behind [`atomically`](Self::atomically) and
    /// [`read_only`](Self::read_only); `read_only` only selects the
    /// ro-commit/abort accounting.
    fn run<R>(&self, read_only: bool, f: &mut impl FnMut(&mut Transaction) -> TxResult<R>) -> R {
        let mut tx = Transaction::begin();
        let mut trace = crate::trc::TxTrace::begin();
        let mut attempt: u32 = 0;
        loop {
            let outcome = {
                // Run the body, guarding against panics so held write
                // locks are always released and the context goes back
                // to the thread holding nothing of the body's.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut tx)));
                match result {
                    Ok(body) => body,
                    Err(payload) => {
                        tx.abort();
                        tx.park();
                        std::panic::resume_unwind(payload);
                    }
                }
            };
            match outcome.and_then(|r| tx.commit().map(|()| r)) {
                Ok(r) => {
                    let (reads, writes) = tx.op_counts();
                    tx.park();
                    self.stats.record_commit(reads, writes, read_only);
                    trace.on_commit(reads, writes, attempt + 1);
                    return r;
                }
                Err(_) => {
                    let reason = tx.conflict_reason();
                    tx.abort();
                    self.stats.record_abort(reason, read_only);
                    crate::stats::note_thread_abort();
                    attempt += 1;
                    trace.on_abort(reason, attempt, tx.conflict_addr());
                    // Unpinned while backing off: a sleeping loser must
                    // not hold the epoch (and hence reclamation) back.
                    tx.unpinned(|| crate::cm::backoff(attempt));
                    tx.restart();
                    trace.on_restart(attempt);
                }
            }
        }
    }

    /// Runs a transaction the caller declares read-only: the same
    /// validated protocol as [`atomically`](Self::atomically) — invisible
    /// reads, incremental validation, a commit that writes no shared
    /// memory — with the outcome counted under `ro_commits`/`ro_aborts`.
    /// The declaration is accounting only; writes are not prevented.
    pub fn read_only<R>(&self, mut f: impl FnMut(&mut Transaction) -> TxResult<R>) -> R {
        self.run(true, &mut f)
    }

    /// This runtime's statistics.
    #[must_use]
    pub fn stats(&self) -> &StmStats {
        &self.stats
    }
}

impl std::fmt::Debug for Stm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stm")
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TVar;

    #[test]
    fn atomically_commits() {
        let stm = Stm::default();
        let v = TVar::new(5);
        let doubled = stm.atomically(|tx| {
            let x = tx.read(&v)?;
            tx.write(&v, x * 2)?;
            Ok(x * 2)
        });
        assert_eq!(doubled, 10);
        assert_eq!(v.snapshot(), 10);
    }

    #[test]
    fn stats_count_commits_and_results() {
        let stm = Stm::default();
        let v = TVar::new(0);
        for _ in 0..7 {
            stm.atomically(|tx| tx.modify(&v, |x| x + 1));
        }
        assert_eq!(stm.stats().commits(), 7);
        assert_eq!(stm.stats().aborts(), 0);
        assert_eq!(v.snapshot(), 7);
    }

    #[test]
    fn clone_shares_stats() {
        let stm = Stm::default();
        let stm2 = stm.clone();
        let v = TVar::new(0);
        stm2.atomically(|tx| tx.write(&v, 1));
        assert_eq!(stm.stats().commits(), 1);
    }

    #[test]
    fn panicking_transaction_releases_locks() {
        let stm = Stm::default();
        let v = TVar::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stm.atomically(|tx| {
                tx.write(&v, 1)?;
                panic!("boom");
                #[allow(unreachable_code)]
                Ok(())
            })
        }));
        assert!(result.is_err());
        // The lock must be free: another transaction can write.
        stm.atomically(|tx| tx.write(&v, 2));
        assert_eq!(v.snapshot(), 2);
    }

    #[test]
    fn aborted_attempts_do_not_inflate_op_stats() {
        // Regression: `Transaction::restart` used to carry `n_reads` /
        // `n_writes` across attempts, so a transaction that conflicted
        // once reported its operations twice to `StmStats`.
        use crate::txn::StmError;
        let stm = Stm::default();
        let v = TVar::new(7u32);
        let mut first = true;
        let got = stm.atomically(|tx| {
            let x = tx.read(&v)?;
            if first {
                // Simulate a conflict after the read: the attempt
                // aborts, restarts, and succeeds on the second pass.
                first = false;
                return Err(StmError::Conflict);
            }
            Ok(x)
        });
        assert_eq!(got, 7);
        assert_eq!(stm.stats().commits(), 1);
        assert_eq!(stm.stats().aborts(), 1);
        assert_eq!(
            stm.stats().reads(),
            1,
            "the aborted attempt's read leaked into the committed stats"
        );
        assert_eq!(stm.stats().writes(), 0);
    }

    #[test]
    fn concurrent_counter_no_lost_updates() {
        use std::sync::Arc;
        let stm = Stm::default();
        let v = Arc::new(TVar::new(0u64));
        let threads = 4;
        let per_thread = 500;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let stm = stm.clone();
                let v = Arc::clone(&v);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        stm.atomically(|tx| tx.modify(&v, |x| x + 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.snapshot(), threads * per_thread);
        assert_eq!(stm.stats().commits(), threads * per_thread);
    }

    #[test]
    fn concurrent_invariant_preservation() {
        // Transfer between two cells: the sum must be invariant in every
        // committed state and at the end.
        use std::sync::Arc;
        let stm = Stm::default();
        let a = Arc::new(TVar::new(1000i64));
        let b = Arc::new(TVar::new(1000i64));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let stm = stm.clone();
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for k in 0..300 {
                        let amount = ((i * 7 + k) % 13) as i64 - 6;
                        stm.atomically(|tx| {
                            let x = tx.read(&a)?;
                            let y = tx.read(&b)?;
                            tx.write(&a, x - amount)?;
                            tx.write(&b, y + amount)?;
                            Ok(())
                        });
                        // Concurrent consistent snapshot: the sum seen by
                        // a read-only transaction is always the invariant.
                        let sum = stm.atomically(|tx| {
                            let x = tx.read(&a)?;
                            let y = tx.read(&b)?;
                            Ok(x + y)
                        });
                        assert_eq!(sum, 2000);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.snapshot() + b.snapshot(), 2000);
    }
}
