//! Sharded, work-stealing task queues for the malleable pool.
//!
//! The paper's §3 runtime has one task source — "as soon as a s/w
//! thread completes its current task, it picks a new task from a task
//! queue". [`ShardedWorkload`] is that queue (producers push items,
//! gated workers drain them through a handler, the driver waits for the
//! drain) with the synchronization distributed, so a task does not pay
//! a lock acquisition on a queue every worker contends on:
//!
//! * The queue is split into **shards** — one bounded deque per worker
//!   (`tid % shards` owns shard `tid % shards`). Producers distribute
//!   round-robin; workers pop from their own shard in **batches** of up
//!   to [`DEFAULT_BATCH`] items per lock acquisition, amortizing the
//!   queue's atomics over the batch.
//! * A worker whose shard runs dry **steals**: it takes half a victim
//!   shard's items (up to one batch). The scan is two passes: victims
//!   whose owning worker is *gated* (`tid >= level`, parked by the
//!   controller) are drained first and completely, then active ones —
//!   a level decrease can therefore never strand tasks behind a parked
//!   worker. The gating state comes from the pool through
//!   [`Workload::attach`]; it is the only thing the order depends on.
//! * A parked or exiting worker returns its locally buffered items to
//!   its shard ([`Workload::on_park`]), keeping them steal-visible.
//! * Drain detection is event-driven: the worker (or producer) that
//!   observes "no producers and nothing queued" fires a condvar that
//!   [`ShardedHandle::wait_drained`] parks on.
//!
//! Items accepted by the queue are processed exactly once: every item
//! moves producer → shard → one worker's local buffer → handler, with
//! each hop under a shard lock or within a single worker's state.

use std::collections::VecDeque;
use std::time::Duration;

use crossbeam_channel::SendError;
use crossbeam_utils::CachePadded;
use rubic_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use rubic_sync::{Arc, Condvar, Mutex, OnceLock};

use crate::pool::{PoolView, Workload};
use crate::signal::DrainSignal;

/// Default maximum number of items a worker moves per lock acquisition
/// (own-shard pops, steals and producer batch flushes alike).
pub const DEFAULT_BATCH: usize = 32;

/// One bounded deque plus a lock-free length mirror. The mirror is
/// updated while holding the lock and lets dry workers skip empty
/// shards without touching their lock at all.
struct Shard<T> {
    q: Mutex<VecDeque<T>>,
    len: AtomicUsize,
    not_full: Condvar,
}

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Shard {
            q: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            not_full: Condvar::new(),
        }
    }
}

/// Counters and signals that do not depend on the item type, shared
/// with the (non-generic) [`ShardedHandle`].
#[derive(Debug, Default)]
struct Gauges {
    /// Items accepted but not yet handed to the handler. Incremented
    /// *before* an item becomes visible in a shard, decremented when a
    /// worker takes it out of its local buffer for processing — so
    /// `producers == 0 && queued == 0` proves the queue is drained.
    queued: CachePadded<AtomicU64>,
    processed: CachePadded<AtomicU64>,
    /// Open producer handles ([`ShardSender`] clones).
    producers: AtomicUsize,
    /// Set when the workload is dropped (the pool stopped); unblocks
    /// producers waiting on full shards.
    closed: AtomicBool,
    steals: AtomicU64,
    gated_steals: AtomicU64,
    /// Workers currently sleeping in the idle wait.
    sleepers: AtomicUsize,
    idle_m: Mutex<()>,
    idle_cv: Condvar,
    drain: DrainSignal,
}

impl Gauges {
    /// Wakes idle-sleeping workers (called after making work visible).
    fn wake_idle(&self) {
        // ordering: SeqCst pairs with the SeqCst `sleepers` increment in
        // `idle_wait` — producer and sleeper each write their flag then
        // read the other's (Dekker pattern), so both sides need the
        // single total order; Acquire/Release alone would allow a missed
        // wake. Verified by the sharded model under `--cfg rubic_check`.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Acquire/release the idle mutex so a worker between its
            // emptiness re-check and its park cannot miss the notify.
            drop(self.idle_m.lock());
            self.idle_cv.notify_all();
        }
    }

    /// Fires the drain signal if every producer hung up and nothing is
    /// queued or buffered. Returns true once drained.
    fn check_drained(&self) -> bool {
        if self.drain.is_fired() {
            return true;
        }
        // ordering: drain detection is a lock-free conjunction over two
        // counters updated by different threads; SeqCst on both loads and
        // on every producer/queued update puts them in one total order so
        // "producers == 0 && queued == 0" can never observe a stale mix
        // (e.g. a hand-off where queued dips to 0 while a producer is
        // mid-push). Verified by the sharded model under `rubic_check`.
        if self.producers.load(Ordering::SeqCst) == 0 && self.queued.load(Ordering::SeqCst) == 0 {
            self.drain.fire();
            self.idle_cv.notify_all();
            return true;
        }
        false
    }
}

struct Core<T> {
    shards: Vec<CachePadded<Shard<T>>>,
    /// Producer-side capacity bound per shard.
    shard_cap: usize,
    /// Max items moved per lock acquisition.
    batch: usize,
    /// Producer round-robin cursor.
    cursor: CachePadded<AtomicUsize>,
    /// Gating view installed by the pool via [`Workload::attach`].
    view: OnceLock<PoolView>,
    g: Arc<Gauges>,
}

impl<T> Core<T> {
    /// `true` if shard `s`'s owning workers are all gated at `level`
    /// (shard owners are `s, s + shards, ...`, so the smallest — and
    /// therefore last-gated — owner is `s` itself).
    fn shard_gated(&self, s: usize) -> bool {
        match self.view.get() {
            Some(view) => s >= view.level() as usize,
            None => false,
        }
    }

    /// Pushes `item` onto shard `s`, blocking while the shard is at
    /// capacity. Fails once the queue is closed.
    fn push_blocking(&self, s: usize, item: T) -> Result<(), SendError<T>> {
        let shard = &self.shards[s];
        let mut q = shard.q.lock();
        while q.len() >= self.shard_cap {
            if self.g.closed.load(Ordering::Acquire) {
                return Err(SendError(item));
            }
            shard.not_full.wait(&mut q);
        }
        if self.g.closed.load(Ordering::Acquire) {
            return Err(SendError(item));
        }
        q.push_back(item);
        // ordering: the mirror is an advisory skip-hint read outside the
        // lock; the deque itself is lock-protected, so Relaxed suffices.
        shard.len.store(q.len(), Ordering::Relaxed);
        drop(q);
        self.g.wake_idle();
        Ok(())
    }

    /// Returns up to `max` items from shard `s` into `local`; `steal`
    /// marks the transfer as cross-worker for the diagnostics. Returns
    /// the number of items moved.
    fn take_from(&self, s: usize, local: &mut VecDeque<T>, max: usize) -> usize {
        let shard = &self.shards[s];
        let mut q = shard.q.lock();
        let take = q.len().min(max);
        if take > 0 {
            local.extend(q.drain(..take));
            shard.len.store(q.len(), Ordering::Relaxed); // ordering: advisory mirror
                                                         // Free capacity: unblock producers waiting on this shard.
            shard.not_full.notify_all();
        }
        take
    }

    /// Returns locally buffered items to the *front* of shard `own`
    /// (they were taken from the front, so this preserves order for
    /// the next taker). Never blocks: give-back must succeed even when
    /// the shard is nominally full, or a parking worker could deadlock.
    fn give_back(&self, own: usize, local: &mut VecDeque<T>) {
        if local.is_empty() {
            return;
        }
        let shard = &self.shards[own];
        let mut q = shard.q.lock();
        while let Some(item) = local.pop_back() {
            q.push_front(item);
        }
        shard.len.store(q.len(), Ordering::Relaxed); // ordering: advisory mirror
        drop(q);
        self.g.wake_idle();
    }
}

/// Producer handle for a sharded queue. Cloneable; the queue counts as
/// closed-for-input once every clone is dropped.
pub struct ShardSender<T> {
    core: Arc<Core<T>>,
}

impl<T: Send + 'static> ShardSender<T> {
    /// Enqueues one item on the next shard in round-robin order,
    /// blocking while that shard is at capacity.
    ///
    /// # Errors
    /// Returns the item when the pool side of the queue is gone.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        if self.core.g.closed.load(Ordering::Acquire) {
            return Err(SendError(item));
        }
        // ordering: SeqCst — part of the drain-detection total order
        // (see `Gauges::check_drained`).
        self.core.g.queued.fetch_add(1, Ordering::SeqCst);
        // ordering: the cursor only spreads load; any distribution is
        // correct, so Relaxed.
        let s = self.core.cursor.fetch_add(1, Ordering::Relaxed) % self.core.shards.len();
        match self.core.push_blocking(s, item) {
            Ok(()) => Ok(()),
            Err(e) => {
                // ordering: SeqCst — drain-detection total order.
                self.core.g.queued.fetch_sub(1, Ordering::SeqCst);
                Err(e)
            }
        }
    }

    /// Enqueues a batch, amortizing the queue's synchronization: items
    /// are flushed chunk-wise (one lock acquisition per chunk of up to
    /// the queue's batch size), with consecutive chunks landing on
    /// consecutive shards.
    ///
    /// # Errors
    /// On a closed queue, returns the first unsent item; the remainder
    /// of the batch is dropped.
    pub fn send_batch(&self, items: impl IntoIterator<Item = T>) -> Result<(), SendError<T>> {
        let n_shards = self.core.shards.len();
        let mut chunk: Vec<T> = Vec::with_capacity(self.core.batch);
        for item in items {
            chunk.push(item);
            if chunk.len() == self.core.batch {
                self.flush_chunk(&mut chunk, n_shards)?;
            }
        }
        if !chunk.is_empty() {
            self.flush_chunk(&mut chunk, n_shards)?;
        }
        Ok(())
    }

    fn flush_chunk(&self, chunk: &mut Vec<T>, n_shards: usize) -> Result<(), SendError<T>> {
        if self.core.g.closed.load(Ordering::Acquire) {
            return Err(SendError(chunk.remove(0)));
        }
        // ordering: SeqCst — drain-detection total order; Relaxed cursor
        // as in `send` (distribution only).
        self.core
            .g
            .queued
            .fetch_add(chunk.len() as u64, Ordering::SeqCst);
        let s = self.core.cursor.fetch_add(1, Ordering::Relaxed) % n_shards;
        let shard = &self.core.shards[s];
        let mut q = shard.q.lock();
        // Block on capacity exactly like the single-item path, but only
        // once per chunk: wait until the whole chunk fits.
        while q.len() + chunk.len() > self.core.shard_cap.max(chunk.len()) {
            if self.core.g.closed.load(Ordering::Acquire) {
                drop(q);
                // ordering: SeqCst — drain-detection total order.
                self.core
                    .g
                    .queued
                    .fetch_sub(chunk.len() as u64, Ordering::SeqCst);
                return Err(SendError(chunk.remove(0)));
            }
            shard.not_full.wait(&mut q);
        }
        q.extend(chunk.drain(..));
        shard.len.store(q.len(), Ordering::Relaxed); // ordering: advisory mirror
        drop(q);
        self.core.g.wake_idle();
        Ok(())
    }
}

impl<T> Clone for ShardSender<T> {
    fn clone(&self) -> Self {
        // ordering: SeqCst — the producer count is the other half of the
        // drain-detection conjunction (see `Gauges::check_drained`).
        self.core.g.producers.fetch_add(1, Ordering::SeqCst);
        ShardSender {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T> Drop for ShardSender<T> {
    fn drop(&mut self) {
        // ordering: SeqCst — drain-detection total order; the last
        // producer's decrement must be globally ordered before its own
        // `check_drained` loads.
        if self.core.g.producers.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last producer gone: the queue may already be empty, and
            // idle workers must re-examine the drain condition now
            // rather than on their next timeout.
            self.core.g.check_drained();
            self.core.g.wake_idle();
        }
    }
}

/// A cloneable, type-erased handle for observing a sharded queue from
/// the driver.
#[derive(Debug, Clone)]
pub struct ShardedHandle {
    g: Arc<Gauges>,
}

impl ShardedHandle {
    /// Items handed to the handler so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.g.processed.load(Ordering::Relaxed) // ordering: monitoring read
    }

    /// Items accepted but not yet processed (approximate backlog).
    #[must_use]
    pub fn queued(&self) -> u64 {
        self.g.queued.load(Ordering::Relaxed) // ordering: monitoring read
    }

    /// Cross-shard steal operations performed by dry workers.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.g.steals.load(Ordering::Relaxed) // ordering: monitoring read
    }

    /// Steals whose victim shard belonged to a gated (parked) worker.
    #[must_use]
    pub fn gated_steals(&self) -> u64 {
        self.g.gated_steals.load(Ordering::Relaxed) // ordering: monitoring read
    }

    /// True once every producer hung up and every accepted item was
    /// handed to the handler.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.g.drain.is_fired()
    }

    /// Blocks until the queue drains (event-driven; no poll loop).
    pub fn wait_drained(&self) {
        self.g.drain.wait();
    }

    /// Condvar wakeups observed by `wait_drained` callers so far. A
    /// healthy drain wakes each waiter O(1) times; the regression test
    /// uses this to assert the condvar path does not degenerate into a
    /// poll storm.
    #[must_use]
    pub fn drain_wait_wakes(&self) -> u64 {
        self.g.drain.wakes()
    }
}

/// Per-worker queue state: the local batch buffer plus the steal
/// cursor. Returned items flow back to the owning shard on drop (panic
/// recovery: the pool rebuilds worker state after a caught panic, and
/// the replaced state must not take buffered tasks with it).
pub struct ShardWorker<T> {
    core: Arc<Core<T>>,
    tid: usize,
    rr: usize,
    local: VecDeque<T>,
}

impl<T> Drop for ShardWorker<T> {
    fn drop(&mut self) {
        let own = self.tid % self.core.shards.len();
        self.core.give_back(own, &mut self.local);
    }
}

/// A pool workload that drains a sharded, work-stealing queue through a
/// handler function.
///
/// ```
/// use std::time::Duration;
/// use rubic_controllers::Fixed;
/// use rubic_runtime::{MalleablePool, PoolConfig, ShardedWorkload};
///
/// let (workload, sender) = ShardedWorkload::new(4, 1024, |n: u64| {
///     std::hint::black_box(n * 2);
/// });
/// let handle = workload.handle();
/// let pool = MalleablePool::start(
///     PoolConfig::new(4)
///         .initial_level(4)
///         .monitor_period(Duration::from_millis(2)),
///     workload,
///     Box::new(Fixed::new(4, 4)),
/// );
/// sender.send_batch(0..500u64).unwrap();
/// drop(sender); // close the queue
/// handle.wait_drained();
/// let _report = pool.stop();
/// assert_eq!(handle.processed(), 500);
/// ```
pub struct ShardedWorkload<T, F> {
    core: Arc<Core<T>>,
    handler: F,
}

impl<T, F> ShardedWorkload<T, F>
where
    T: Send + 'static,
    F: Fn(T) + Send + Sync + 'static,
{
    /// Creates a queue of `shards` shards bounded at `capacity` items
    /// total, whose entries are processed by `handler`, with the
    /// default batch size. Pass the pool size as `shards` so every
    /// worker owns one shard.
    #[must_use]
    pub fn new(shards: usize, capacity: usize, handler: F) -> (Self, ShardSender<T>) {
        Self::with_batch(shards, capacity, DEFAULT_BATCH, handler)
    }

    /// [`new`](ShardedWorkload::new) with an explicit per-lock batch
    /// size (clamped to at least 1).
    #[must_use]
    pub fn with_batch(
        shards: usize,
        capacity: usize,
        batch: usize,
        handler: F,
    ) -> (Self, ShardSender<T>) {
        let shards = shards.max(1);
        let g = Arc::new(Gauges {
            producers: AtomicUsize::new(1),
            ..Gauges::default()
        });
        let core = Arc::new(Core {
            shards: (0..shards)
                .map(|_| CachePadded::new(Shard::default()))
                .collect(),
            shard_cap: (capacity / shards).max(1),
            batch: batch.max(1),
            cursor: CachePadded::new(AtomicUsize::new(0)),
            view: OnceLock::new(),
            g,
        });
        (
            ShardedWorkload {
                core: Arc::clone(&core),
                handler,
            },
            ShardSender { core },
        )
    }

    /// A progress handle usable after the workload moves into the pool.
    #[must_use]
    pub fn handle(&self) -> ShardedHandle {
        ShardedHandle {
            g: Arc::clone(&self.core.g),
        }
    }

    /// Refills `state.local` from the worker's own shard, then by
    /// stealing — gated victims first, then active ones round-robin.
    /// Returns true if any items were obtained.
    fn refill(&self, state: &mut ShardWorker<T>) -> bool {
        let core = &self.core;
        let n = core.shards.len();
        let own = state.tid % n;

        // 1. Own shard, full batch (the cheap, contention-free path).
        // ordering: the mirror is advisory (Relaxed) — a stale read only
        // costs a skipped or wasted lock acquisition, never an item.
        if core.shards[own].len.load(Ordering::Relaxed) > 0
            && core.take_from(own, &mut state.local, core.batch) > 0
        {
            return true;
        }

        // 2. Steal. Two passes over the other shards, both starting at
        // the rotating cursor: gated victims, then active ones. A gated
        // victim's owner cannot come back for its items until the level
        // rises, so those shards must drain first — a
        // correctness-adjacent priority, not a preference. Gated
        // victims are drained fully (up to a batch); active victims
        // yield half their items, leaving the owner the rest.
        state.rr = state.rr.wrapping_add(1);
        for gated_pass in [true, false] {
            for off in 0..n {
                let s = (state.rr + off) % n;
                if s == own || core.shard_gated(s) != gated_pass {
                    continue;
                }
                let visible = core.shards[s].len.load(Ordering::Relaxed); // ordering: advisory mirror
                if visible == 0 {
                    continue;
                }
                let want = if gated_pass {
                    core.batch
                } else {
                    core.batch.min(visible.div_ceil(2))
                };
                let got = core.take_from(s, &mut state.local, want);
                if got > 0 {
                    core.g.steals.fetch_add(1, Ordering::Relaxed); // ordering: stat counter
                    if gated_pass {
                        // ordering: stat counter
                        core.g.gated_steals.fetch_add(1, Ordering::Relaxed);
                    }
                    crate::trc::task_steal(state.tid, s, got, visible, gated_pass);
                    return true;
                }
            }
        }
        false
    }

    /// Parks briefly waiting for new work (bounded so the pool's gate
    /// and shutdown checks stay responsive).
    fn idle_wait(&self) {
        let g = &self.core.g;
        // ordering: SeqCst pairs with `wake_idle`'s SeqCst load — the
        // sleeper publishes itself, then re-reads shard state; the
        // producer publishes work, then reads `sleepers`. One total
        // order rules out both sides missing each other.
        g.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = g.idle_m.lock();
        // Re-check under the idle lock: a producer that pushed before we
        // registered as a sleeper notifies nobody, so we must not park
        // if work (or the drain) became visible meanwhile.
        let work_visible = self
            .core
            .shards
            .iter()
            .any(|s| s.len.load(Ordering::Relaxed) > 0); // ordering: advisory mirror
        if !work_visible && !g.drain.is_fired() {
            let _ = g.idle_cv.wait_for(&mut guard, Duration::from_millis(1));
        }
        drop(guard);
        g.sleepers.fetch_sub(1, Ordering::SeqCst); // ordering: pairs with the increment above
    }
}

impl<T, F> Drop for ShardedWorkload<T, F> {
    fn drop(&mut self) {
        // The pool dropped the workload: unblock any producer waiting
        // for shard capacity so it can observe the closure.
        self.core.g.closed.store(true, Ordering::Release);
        for shard in &self.core.shards {
            // Acquire the lock so a producer between its closed-check
            // and its wait cannot miss the notification.
            drop(shard.q.lock());
            shard.not_full.notify_all();
        }
        self.core.g.wake_idle();
    }
}

impl<T, F> Workload for ShardedWorkload<T, F>
where
    T: Send + 'static,
    F: Fn(T) + Send + Sync + 'static,
{
    type WorkerState = ShardWorker<T>;

    fn init_worker(&self, tid: usize) -> ShardWorker<T> {
        ShardWorker {
            core: Arc::clone(&self.core),
            tid,
            rr: tid,
            local: VecDeque::with_capacity(self.core.batch),
        }
    }

    fn attach(&self, view: PoolView) {
        let _ = self.core.view.set(view);
    }

    fn on_park(&self, state: &mut ShardWorker<T>) {
        let own = state.tid % self.core.shards.len();
        self.core.give_back(own, &mut state.local);
    }

    fn run_task(&self, state: &mut ShardWorker<T>) {
        if state.local.is_empty() && !self.refill(state) {
            // Nothing anywhere: either the queue is done (fire/observe
            // the drain and yield until the driver stops the pool) or
            // it is momentarily empty (sleep briefly).
            if self.core.g.check_drained() {
                rubic_sync::thread::yield_now();
            } else {
                self.idle_wait();
            }
            return;
        }
        if let Some(item) = state.local.pop_front() {
            // Account the item as "out of the queue" before running the
            // handler: if the handler panics, the pool catches it and
            // discards it as a failed task — it must not leave `queued`
            // permanently non-zero and wedge `wait_drained`.
            // ordering: SeqCst — drain-detection total order.
            self.core.g.queued.fetch_sub(1, Ordering::SeqCst);
            (self.handler)(item);
            self.core.g.processed.fetch_add(1, Ordering::Relaxed); // ordering: stat counter
            self.core.g.check_drained();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PoolConfig;
    use rubic_controllers::{Ebs, Fixed};
    use std::collections::HashSet;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn drains_exactly_once_each() {
        let seen: Arc<StdMutex<Vec<u64>>> = Arc::new(StdMutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let (workload, tx) = ShardedWorkload::new(3, 64, move |n: u64| {
            seen2.lock().unwrap().push(n);
        });
        let handle = workload.handle();
        let pool = crate::MalleablePool::start(
            PoolConfig::new(3)
                .initial_level(3)
                .monitor_period(Duration::from_millis(2)),
            workload,
            Box::new(Fixed::new(3, 3)),
        );
        for n in 0..1_000u64 {
            tx.send(n).unwrap();
        }
        drop(tx);
        handle.wait_drained();
        let _ = pool.stop();
        let got = seen.lock().unwrap();
        assert_eq!(got.len(), 1_000);
        let unique: HashSet<u64> = got.iter().copied().collect();
        assert_eq!(unique.len(), 1_000, "duplicate or lost items");
        assert_eq!(handle.processed(), 1_000);
    }

    #[test]
    fn batch_send_and_adaptive_controller() {
        let (workload, tx) = ShardedWorkload::new(4, 256, |n: u64| {
            std::hint::black_box((0..n % 64).sum::<u64>());
        });
        let handle = workload.handle();
        let pool = crate::MalleablePool::start(
            PoolConfig::new(4).monitor_period(Duration::from_millis(2)),
            workload,
            Box::new(Ebs::new(4)),
        );
        tx.send_batch(0..2_000u64).unwrap();
        drop(tx);
        handle.wait_drained();
        let _ = pool.stop();
        assert_eq!(handle.processed(), 2_000);
    }

    #[test]
    fn gated_shards_are_drained_by_steals() {
        // 4 shards but only worker 0 active: items land round-robin on
        // every shard, and worker 0 must steal shards 1..4 dry. The
        // gated-victim counter proves the priority path ran.
        let (workload, tx) = ShardedWorkload::new(4, 1024, |_n: u64| {});
        let handle = workload.handle();
        let pool = crate::MalleablePool::start(
            PoolConfig::new(4)
                .initial_level(1)
                .monitor_period(Duration::from_millis(2)),
            workload,
            Box::new(Fixed::new(1, 4)),
        );
        tx.send_batch(0..800u64).unwrap();
        drop(tx);
        handle.wait_drained();
        let report = pool.stop();
        assert_eq!(handle.processed(), 800);
        assert!(
            handle.gated_steals() > 0,
            "worker 0 should have stolen from gated shards ({} steals)",
            handle.steals()
        );
        assert_eq!(report.per_worker[2], 0, "gated worker ran tasks");
        assert_eq!(report.per_worker[3], 0, "gated worker ran tasks");
    }

    #[test]
    fn multiple_producers() {
        let (workload, tx) = ShardedWorkload::new(2, 32, |_s: String| {});
        let handle = workload.handle();
        let pool = crate::MalleablePool::start(
            PoolConfig::new(2)
                .initial_level(2)
                .monitor_period(Duration::from_millis(2)),
            workload,
            Box::new(Fixed::new(2, 2)),
        );
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        tx.send(format!("{p}:{i}")).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        for h in producers {
            h.join().unwrap();
        }
        handle.wait_drained();
        let _ = pool.stop();
        assert_eq!(handle.processed(), 300);
    }

    #[test]
    fn wait_drained_is_event_driven_not_a_wake_storm() {
        let (workload, tx) = ShardedWorkload::new(2, 64, |_n: u64| {
            std::thread::sleep(Duration::from_micros(100));
        });
        let handle = workload.handle();
        let pool = crate::MalleablePool::start(
            PoolConfig::new(2)
                .initial_level(2)
                .monitor_period(Duration::from_millis(2)),
            workload,
            Box::new(Fixed::new(2, 2)),
        );
        // Three waiters park on the drain while the queue is still busy
        // for tens of milliseconds.
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let h = handle.clone();
                std::thread::spawn(move || h.wait_drained())
            })
            .collect();
        for n in 0..200u64 {
            tx.send(n).unwrap();
        }
        drop(tx);
        for w in waiters {
            w.join().unwrap();
        }
        assert!(handle.is_drained());
        let _ = pool.stop();
        // A sleep-per-probe wait would wake dozens of times per waiter
        // over a ~20 ms drain. The condvar path wakes each waiter O(1)
        // times (a small allowance covers spurious wakeups).
        let wakes = handle.drain_wait_wakes();
        assert!(wakes >= 1, "waiters never woke through the condvar");
        assert!(wakes <= 12, "wake storm: {wakes} wakeups for 3 waiters");
    }

    #[test]
    fn empty_queue_drains_immediately() {
        let (workload, tx) = ShardedWorkload::new(2, 8, |_n: u32| {});
        let handle = workload.handle();
        let pool = crate::MalleablePool::start(
            PoolConfig::new(1)
                .initial_level(1)
                .monitor_period(Duration::from_millis(2)),
            workload,
            Box::new(Fixed::new(1, 1)),
        );
        drop(tx);
        handle.wait_drained();
        let _ = pool.stop();
        assert_eq!(handle.processed(), 0);
    }

    #[test]
    fn send_fails_after_pool_side_drops() {
        let (workload, tx) = ShardedWorkload::new(2, 8, |_n: u32| {});
        drop(workload);
        assert!(tx.send(5).is_err());
        assert!(tx.send_batch(0..10).is_err());
    }

    #[test]
    fn bounded_producer_blocks_until_drained() {
        // Capacity 2 per shard (4 total over 2 shards): a 100-item send
        // must interleave with consumption, not complete eagerly.
        let (workload, tx) = ShardedWorkload::new(2, 4, |_n: u64| {
            std::thread::sleep(Duration::from_micros(200));
        });
        let handle = workload.handle();
        let pool = crate::MalleablePool::start(
            PoolConfig::new(2)
                .initial_level(2)
                .monitor_period(Duration::from_millis(2)),
            workload,
            Box::new(Fixed::new(2, 2)),
        );
        for n in 0..100u64 {
            tx.send(n).unwrap();
        }
        drop(tx);
        handle.wait_drained();
        let _ = pool.stop();
        assert_eq!(handle.processed(), 100);
    }

    #[test]
    fn handler_panic_does_not_wedge_drain() {
        let (workload, tx) = ShardedWorkload::new(2, 64, |n: u64| {
            assert!(n != 13, "injected failure");
        });
        let handle = workload.handle();
        let pool = crate::MalleablePool::start(
            PoolConfig::new(2)
                .initial_level(2)
                .monitor_period(Duration::from_millis(2)),
            workload,
            Box::new(Fixed::new(2, 2)),
        );
        tx.send_batch(0..100u64).unwrap();
        drop(tx);
        // The poisoned item aborts one task but must not stall the
        // drain: queued was decremented before the handler ran.
        handle.wait_drained();
        let report = pool.stop();
        assert_eq!(report.worker_panics, 1);
        assert_eq!(handle.processed(), 99);
    }
}
