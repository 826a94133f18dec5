//! Commit/abort accounting.
//!
//! Each [`crate::Stm`] instance owns one [`StmStats`]: a fixed array of
//! cache-padded *stripes*, one counter block per stripe, each with a
//! single writer. A thread *leases* a stripe index on its first record —
//! a bit taken from a process-wide 64-bit free mask — and returns it
//! from its thread-local destructor, so short-lived pool workers reuse
//! indices instead of running past the array. While it holds the lease
//! the thread is the only writer of that stripe in every `StmStats`, so
//! recording is a plain load and store on a line the thread owns: no
//! locked read-modify-write anywhere on a committed transaction's
//! statistics. Threads beyond 64 live leases share one extra *overflow*
//! stripe, which keeps atomic increments — sharing costs coherence
//! traffic, never exactness. Readers — the monitor, the benchmark, the
//! examples — sum the stripes on demand. This mirrors the paper's §3.1
//! discipline for task counters (thread-local, read at interval
//! boundaries) for the commit-rate diagnostics the evaluation reports
//! and the abort-rate visibility useful when tuning contention
//! managers.

use rubic_sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

use crate::abort::AbortReason;

/// Number of leasable counter stripes per [`StmStats`]: the paper's
/// 64-context machine gets one line per hardware thread, and one `u64`
/// holds the free mask.
const STRIPES: usize = 64;

/// Index of the shared overflow stripe.
const OVERFLOW: usize = STRIPES;

/// Bit `i` set: stripe `i` is free to lease.
static FREE_STRIPES: AtomicU64 = AtomicU64::new(u64::MAX);

/// A thread's claim on one stripe index (or on [`OVERFLOW`], which is
/// never exclusive), returned to the mask when the thread exits.
struct Lease(usize);

impl Lease {
    fn acquire() -> Lease {
        // ordering: Relaxed — only a starting value for the CAS below.
        let mut free = FREE_STRIPES.load(Ordering::Relaxed);
        while free != 0 {
            let idx = free.trailing_zeros() as usize;
            // ordering: Acquire on success pairs with the Release in
            // `drop`: the previous holder's plain counter stores
            // happen-before this thread's first load of them, so the
            // single-writer load+store never loses an update across a
            // hand-over. Relaxed on failure — just a fresher mask.
            match FREE_STRIPES.compare_exchange_weak(
                free,
                free & !(1 << idx),
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Lease(idx),
                Err(now) => free = now,
            }
        }
        Lease(OVERFLOW)
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if self.0 != OVERFLOW {
            // ordering: Release publishes this thread's counter stores
            // to the next holder (see `acquire`). The bit is clear while
            // leased, so adding it sets it without a carry.
            FREE_STRIPES.fetch_add(1 << self.0, Ordering::Release);
        }
    }
}

thread_local! {
    /// This thread's stripe index in every [`StmStats`].
    static LEASE: Lease = Lease::acquire();
}

/// One stripe's counters. The commit-path fields lead so a committing
/// thread touches a single line of its own stripe.
#[derive(Debug, Default)]
struct Stripe {
    commits: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    /// Commits by [`crate::Stm::read_only`] transactions (a subset of
    /// `commits`).
    ro_commits: AtomicU64,
    aborts: AtomicU64,
    /// Aborted attempts inside `read_only` (a subset of `aborts`).
    ro_aborts: AtomicU64,
    /// Aborts broken down by [`AbortReason`], indexed by reason code.
    by_reason: [AtomicU64; AbortReason::COUNT],
}

/// Adds `n` to one counter of the calling thread's stripe.
// ordering: Relaxed throughout — pure monotonic counters; no reader
// derives ownership or publication from them. An exclusive stripe has
// one writer at a time (hand-overs are ordered by the lease), so
// load+store cannot lose an update; the overflow stripe is shared and
// needs the atomic increment.
#[inline]
fn bump(counter: &AtomicU64, n: u64, exclusive: bool) {
    if exclusive {
        counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    } else {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Cumulative transaction statistics for one [`crate::Stm`] instance.
#[derive(Debug)]
pub struct StmStats {
    /// The leasable stripes, then the shared overflow stripe.
    stripes: [CachePadded<Stripe>; STRIPES + 1],
}

impl Default for StmStats {
    fn default() -> Self {
        StmStats {
            stripes: std::array::from_fn(|_| CachePadded::default()),
        }
    }
}

impl StmStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        StmStats::default()
    }

    /// The calling thread's stripe and whether the thread is its only
    /// writer. A thread whose lease is already torn down (a transaction
    /// run from another thread-local's destructor) records into the
    /// overflow stripe.
    #[inline]
    fn mine(&self) -> (&Stripe, bool) {
        let idx = LEASE.try_with(|lease| lease.0).unwrap_or(OVERFLOW);
        (&self.stripes[idx], idx != OVERFLOW)
    }

    /// Sums one counter over every stripe.
    fn sum(&self, counter: impl Fn(&Stripe) -> &AtomicU64) -> u64 {
        self.stripes
            .iter()
            // ordering: Relaxed — monitoring read of monotonic counters.
            .map(|s| counter(s).load(Ordering::Relaxed))
            .sum()
    }

    #[inline]
    pub(crate) fn record_commit(&self, reads: u64, writes: u64, read_only: bool) {
        let (s, exclusive) = self.mine();
        bump(&s.commits, 1, exclusive);
        bump(&s.reads, reads, exclusive);
        bump(&s.writes, writes, exclusive);
        if read_only {
            bump(&s.ro_commits, 1, exclusive);
        }
    }

    #[inline]
    pub(crate) fn record_abort(&self, reason: AbortReason, read_only: bool) {
        let (s, exclusive) = self.mine();
        bump(&s.aborts, 1, exclusive);
        bump(&s.by_reason[reason.code() as usize], 1, exclusive);
        if read_only {
            bump(&s.ro_aborts, 1, exclusive);
        }
    }

    /// Total committed transactions.
    #[must_use]
    pub fn commits(&self) -> u64 {
        self.sum(|s| &s.commits)
    }

    /// Total aborted attempts.
    #[must_use]
    pub fn aborts(&self) -> u64 {
        self.sum(|s| &s.aborts)
    }

    /// Aborts attributed to one [`AbortReason`].
    #[must_use]
    pub fn aborts_for(&self, reason: AbortReason) -> u64 {
        self.sum(|s| &s.by_reason[reason.code() as usize])
    }

    /// The full abort breakdown, indexed by reason code. The entries sum
    /// to [`aborts`](Self::aborts) (up to relaxed-load skew while other
    /// threads are mid-abort).
    #[must_use]
    pub fn aborts_by_reason(&self) -> [u64; AbortReason::COUNT] {
        std::array::from_fn(|code| self.sum(|s| &s.by_reason[code]))
    }

    /// Total transactional reads performed by committed transactions.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.sum(|s| &s.reads)
    }

    /// Total transactional writes performed by committed transactions.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.sum(|s| &s.writes)
    }

    /// Commits by [`crate::Stm::read_only`] transactions (a subset of
    /// [`commits`](Self::commits)).
    #[must_use]
    pub fn ro_commits(&self) -> u64 {
        self.sum(|s| &s.ro_commits)
    }

    /// Aborted attempts inside [`crate::Stm::read_only`] (a subset of
    /// [`aborts`](Self::aborts)).
    #[must_use]
    pub fn ro_aborts(&self) -> u64 {
        self.sum(|s| &s.ro_aborts)
    }

    /// Fraction of attempts that aborted: `aborts / (commits + aborts)`.
    /// `0.0` before any attempt finishes.
    #[must_use]
    pub fn abort_rate(&self) -> f64 {
        let c = self.commits();
        let a = self.aborts();
        if c + a == 0 {
            0.0
        } else {
            a as f64 / (c + a) as f64
        }
    }

    /// Takes a point-in-time snapshot (the individual loads are relaxed
    /// and not mutually atomic; fine for monitoring).
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            commits: self.commits(),
            aborts: self.aborts(),
            reads: self.reads(),
            writes: self.writes(),
            abort_reasons: self.aborts_by_reason(),
            ro_commits: self.ro_commits(),
            ro_aborts: self.ro_aborts(),
        }
    }
}

/// A point-in-time copy of [`StmStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Reads by committed transactions.
    pub reads: u64,
    /// Writes by committed transactions.
    pub writes: u64,
    /// Aborts by [`AbortReason`], indexed by reason code.
    pub abort_reasons: [u64; AbortReason::COUNT],
    /// Commits by read-only transactions (a subset of `commits`).
    pub ro_commits: u64,
    /// Aborted attempts inside read-only transactions (a subset of
    /// `aborts`).
    pub ro_aborts: u64,
}

impl StatsSnapshot {
    /// Element-wise difference (`self` must be the later snapshot); used
    /// to compute per-interval commit rates.
    #[must_use]
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut abort_reasons = [0; AbortReason::COUNT];
        for ((slot, &now), &then) in abort_reasons
            .iter_mut()
            .zip(&self.abort_reasons)
            .zip(&earlier.abort_reasons)
        {
            *slot = now.saturating_sub(then);
        }
        StatsSnapshot {
            commits: self.commits.saturating_sub(earlier.commits),
            aborts: self.aborts.saturating_sub(earlier.aborts),
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            abort_reasons,
            ro_commits: self.ro_commits.saturating_sub(earlier.ro_commits),
            ro_aborts: self.ro_aborts.saturating_sub(earlier.ro_aborts),
        }
    }
}

thread_local! {
    /// Aborts experienced by *this thread* since the last drain — the
    /// runtime's per-worker abort attribution (mirrors the paper's
    /// thread-local task counters: no shared-memory traffic on the hot
    /// path, the monitor drains at interval boundaries).
    static THREAD_ABORTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[inline]
pub(crate) fn note_thread_abort() {
    THREAD_ABORTS.with(|c| c.set(c.get() + 1));
}

/// Returns and resets the calling thread's abort count (aborts observed
/// by any [`crate::Stm`] on this thread since the previous call).
/// Worker loops call this once per task so the pool can account aborts
/// per worker and per monitoring interval.
#[must_use]
pub fn take_thread_aborts() -> u64 {
    THREAD_ABORTS.with(|c| c.replace(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let s = StmStats::new();
        s.record_commit(3, 1, false);
        s.record_commit(2, 0, true);
        s.record_abort(AbortReason::LockBusy, false);
        assert_eq!(s.commits(), 2);
        assert_eq!(s.ro_commits(), 1);
        assert_eq!(s.aborts(), 1);
        assert_eq!(s.reads(), 5);
        assert_eq!(s.writes(), 1);
    }

    #[test]
    fn abort_rate() {
        let s = StmStats::new();
        assert_eq!(s.abort_rate(), 0.0);
        s.record_commit(0, 0, false);
        s.record_abort(AbortReason::ReadValidation, false);
        s.record_abort(AbortReason::LockBusy, false);
        s.record_commit(0, 0, false);
        assert!((s.abort_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_delta() {
        let s = StmStats::new();
        s.record_commit(1, 1, false);
        let a = s.snapshot();
        s.record_commit(1, 1, false);
        s.record_abort(AbortReason::Chaos, false);
        let b = s.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.commits, 1);
        assert_eq!(d.aborts, 1);
        assert_eq!(d.abort_reasons[AbortReason::Chaos.code() as usize], 1);
        assert_eq!(d.abort_reasons.iter().sum::<u64>(), 1);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let s = StmStats::new();
        s.record_abort(AbortReason::ReadValidation, false);
        s.record_abort(AbortReason::ReadValidation, true);
        s.record_abort(AbortReason::LockBusy, false);
        s.record_abort(AbortReason::Explicit, false);
        assert_eq!(s.aborts(), 4);
        assert_eq!(s.ro_aborts(), 1);
        let by = s.aborts_by_reason();
        assert_eq!(by.iter().sum::<u64>(), s.aborts());
        assert_eq!(s.aborts_for(AbortReason::ReadValidation), 2);
        assert_eq!(s.aborts_for(AbortReason::LockBusy), 1);
        assert_eq!(s.aborts_for(AbortReason::CmKill), 0);
        assert_eq!(s.aborts_for(AbortReason::Explicit), 1);
    }

    /// `threads` threads each record a fixed mix; the summed snapshot
    /// must be exact whether every thread owns a stripe or several
    /// share one.
    fn striped_totals_are_exact(threads: u64) {
        const ROUNDS: u64 = 200;
        let s = StmStats::new();
        let before = s.snapshot();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let s = &s;
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        s.record_commit(3, 0, true); // read-only
                        s.record_commit(2, 1, false); // writer
                        s.record_abort(AbortReason::ALL[(t % 2) as usize], t % 3 == 0);
                    }
                });
            }
        });
        let after = s.snapshot();
        let ro_threads = threads.div_ceil(3);
        let expected = StatsSnapshot {
            commits: threads * ROUNDS * 2,
            aborts: threads * ROUNDS,
            reads: threads * ROUNDS * 5,
            writes: threads * ROUNDS,
            abort_reasons: {
                let mut by = [0; AbortReason::COUNT];
                by[0] = threads.div_ceil(2) * ROUNDS;
                by[1] = (threads / 2) * ROUNDS;
                by
            },
            ro_commits: threads * ROUNDS,
            ro_aborts: ro_threads * ROUNDS,
        };
        assert_eq!(after, expected);
        assert_eq!(after.abort_reasons.iter().sum::<u64>(), after.aborts);
        assert_eq!(after.delta_since(&before), expected);
        // A later delta subtracts the striped sums field by field.
        s.record_commit(7, 2, false);
        let d = s.snapshot().delta_since(&after);
        assert_eq!((d.commits, d.reads, d.writes, d.aborts), (1, 7, 2, 0));
    }

    /// The pool spawns fresh workers for every window, so stripe
    /// indices must come back when a thread exits: 300 threads, one
    /// after another, record exactly, and afterwards every lease is
    /// free again.
    #[test]
    fn leases_are_reused_by_later_threads() {
        const THREADS: u64 = 300;
        let s = std::sync::Arc::new(StmStats::new());
        for t in 0..THREADS {
            let s = std::sync::Arc::clone(&s);
            // `join` returns after the thread's destructors ran, so the
            // next thread finds this one's lease free.
            std::thread::spawn(move || {
                s.record_commit(2, 1, false);
                s.record_commit(1, 0, true);
                s.record_abort(AbortReason::ALL[(t % 3) as usize], false);
            })
            .join()
            .unwrap();
        }
        let snap = s.snapshot();
        assert_eq!((snap.commits, snap.ro_commits), (THREADS * 2, THREADS));
        assert_eq!((snap.reads, snap.writes), (THREADS * 3, THREADS));
        assert_eq!(snap.aborts, THREADS);
        assert_eq!(snap.abort_reasons.iter().sum::<u64>(), snap.aborts);
        assert_eq!(snap.abort_reasons[..3], [THREADS / 3; 3]);
        // Other tests' threads hold leases while they run, so poll: the
        // mask is full whenever none of them is mid-flight.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        // ordering: Relaxed — a diagnostic sample of the mask.
        while FREE_STRIPES.load(Ordering::Relaxed) != u64::MAX
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        assert_eq!(
            FREE_STRIPES.load(Ordering::Relaxed),
            u64::MAX,
            "a lease was not returned"
        );
    }

    #[test]
    fn fewer_threads_than_stripes_sum_exactly() {
        striped_totals_are_exact(4);
    }

    #[test]
    fn more_threads_than_stripes_share_and_sum_exactly() {
        striped_totals_are_exact(STRIPES as u64 + 9);
    }
}
