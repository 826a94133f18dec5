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
//! * **Drain accounting is per worker**, as the paper keeps its task
//!   counters (Algorithm 1: thread-local, read at interval boundaries).
//!   Producers count `pushed` once per chunk; each worker counts the
//!   items it takes in its own cache-padded slot. The queue is drained
//!   when no producer is left and `pushed` equals the slots' sum, which
//!   a worker checks when its local buffer empties — never per item. A
//!   task's own path writes only its worker's slot and buffer.
//! * Drain detection is event-driven: the worker (or producer) that
//!   observes the drain fires a condvar that
//!   [`ShardedHandle::wait_drained`] parks on.
//! * **A producer is woken once per parking, at a low watermark.** A
//!   producer that finds its shard full parks on the shard's `not_full`
//!   and arms a wake length under the shard lock: half a shard, or less
//!   for a chunk larger than half a shard (it needs `len + n <=
//!   cap.max(n)`). The first take that leaves the shard at or below it
//!   disarms it and notifies; takes before and after do not.
//! * **An idle wake goes only to a parked worker, one at a time.** A dry
//!   worker counts itself as a sleeper under the idle lock, re-checks
//!   for work and parks in the same critical section, so a producer that
//!   sees a sleeper under that lock knows it is in `wait_for`. The
//!   producer notifies only when no wake is already pending; the next
//!   sleeper to return clears it and re-checks the shards.
//!
//! Items accepted by the queue are processed exactly once: every item
//! moves producer → shard → one worker's local buffer → handler, with
//! each hop under a shard lock or within a single worker's state.

use std::collections::VecDeque;
use std::time::Duration;

use crossbeam_channel::SendError;
use crossbeam_utils::CachePadded;
use rubic_sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use rubic_sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use crate::pool::{PoolView, Workload};
use crate::signal::DrainSignal;

/// Default maximum number of items a worker moves per lock acquisition
/// (own-shard pops, steals and producer batch flushes alike).
pub const DEFAULT_BATCH: usize = 32;

/// One bounded deque plus a lock-free length mirror. The mirror is
/// updated while holding the lock and lets dry workers skip empty
/// shards without touching their lock at all.
struct Shard<T> {
    q: Mutex<ShardQueue<T>>,
    len: AtomicUsize,
    not_full: Condvar,
}

/// The lock-protected half of a [`Shard`].
struct ShardQueue<T> {
    items: VecDeque<T>,
    /// Armed while a producer is parked on `not_full`: the length at or
    /// below which the next take wakes every parked producer (the lowest
    /// any of them asked for). That take disarms it, so a parking is
    /// woken once, and takes with nobody parked make no `futex` call.
    wake_at: Option<usize>,
}

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Shard {
            q: Mutex::new(ShardQueue {
                items: VecDeque::new(),
                wake_at: None,
            }),
            len: AtomicUsize::new(0),
            not_full: Condvar::new(),
        }
    }
}

/// One worker's queue counters, on a cache line of their own. Every
/// counter only grows. A leased slot has a single writer — the
/// [`ShardWorker`] holding the lease — and is bumped with a plain load
/// and store; the overflow slot is shared and takes atomic increments.
#[derive(Debug, Default)]
struct Slot {
    /// Held while a live [`ShardWorker`] writes this slot.
    leased: AtomicBool,
    /// Items moved out of a local buffer to run, counted *before* the
    /// handler runs so a panicking task cannot wedge the drain.
    taken: AtomicU64,
    /// Items whose handler returned.
    processed: AtomicU64,
    steals: AtomicU64,
    gated_steals: AtomicU64,
}

/// Counters and signals that do not depend on the item type, shared
/// with the (non-generic) [`ShardedHandle`]. The unpadded fields are
/// written once (`closed`, the drain latch), per producer handle
/// (`producers`) or per idle wait (the idle state) — never per item —
/// so the lines they share stay clean in every worker's cache.
#[derive(Debug, Default)]
struct Gauges {
    /// Items accepted by producers: one RMW per chunk, under the shard
    /// lock that makes the chunk visible (so a taker's count never gets
    /// ahead of it). Only producers write it, and it is final once
    /// `producers == 0` is observed.
    pushed: CachePadded<AtomicU64>,
    /// One counter slot per shard (worker `tid < shards` leases slot
    /// `tid`), then the shared overflow slot.
    slots: Box<[CachePadded<Slot>]>,
    /// Open producer handles ([`ShardSender`] clones).
    producers: AtomicUsize,
    /// Set when the workload is dropped (the pool stopped); unblocks
    /// producers waiting on full shards.
    closed: AtomicBool,
    /// Workers in the idle wait. Written only under `idle_m`, by a
    /// worker that holds it from its increment through its re-check to
    /// `wait_for`, so a producer holding `idle_m` that reads it non-zero
    /// has a sleeper parked (or woken and waiting for the lock).
    sleepers: AtomicUsize,
    /// Guards the idle wait; the flag is "a wake is pending": set by the
    /// producer that notifies, cleared by the next sleeper to return.
    idle_m: Mutex<bool>,
    idle_cv: Condvar,
    drain: DrainSignal,
}

impl Gauges {
    /// Leases slot `tid` when it exists and no live worker state holds
    /// it; otherwise returns the shared overflow slot. Returns the slot
    /// index and whether the caller is its only writer.
    fn lease(&self, tid: usize) -> (usize, bool) {
        let overflow = self.slots.len() - 1;
        // ordering: Acquire on success pairs with the Release in
        // `unlease`: the previous holder's plain counter stores
        // happen-before this holder's first load of them, so the
        // single-writer load + store loses no update across a
        // hand-over. Relaxed on failure — the slot is taken.
        if tid < overflow
            && self.slots[tid]
                .leased
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            (tid, true)
        } else {
            (overflow, false)
        }
    }

    fn unlease(&self, slot: usize, exclusive: bool) {
        if exclusive {
            // ordering: Release publishes this holder's counter stores
            // to the next one (see `lease`).
            self.slots[slot].leased.store(false, Ordering::Release);
        }
    }

    /// Sums one counter over every slot.
    fn sum(&self, counter: impl Fn(&Slot) -> &AtomicU64) -> u64 {
        self.slots
            .iter()
            // ordering: Relaxed — monotonic counters; `check_drained`
            // says why a sweep of them is enough for the drain.
            .map(|s| counter(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Wakes one idle-sleeping worker (called after making work
    /// visible) unless a wake is already on its way. What a call
    /// publishes — a producer chunk or a parked worker's buffer — is at
    /// most a batch, which one worker takes whole; the woken worker
    /// re-checks every shard, so work published while its wake is
    /// pending is not lost. Waking all sleepers per chunk turned a
    /// producer-bound drain into wake storms, and waking one per chunk
    /// still spent most notifies on workers already woken (DESIGN.md
    /// §12 has the numbers).
    fn wake_idle(&self) {
        // ordering: SeqCst pairs with the SeqCst `sleepers` increment in
        // `idle_wait` — producer and sleeper each write their flag then
        // read the other's (Dekker pattern), so both sides need the
        // single total order; Acquire/Release alone would allow a missed
        // wake. Verified by the sharded model under `--cfg rubic_check`.
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut pending = self.idle_m.lock();
        // ordering: Relaxed — `sleepers` is written only under `idle_m`.
        if *pending || self.sleepers.load(Ordering::Relaxed) == 0 {
            return;
        }
        *pending = true;
        drop(pending);
        // Outside the lock: a sleeper that returns before this notify
        // clears the flag under the lock, after this call's work was
        // published, and re-checks the shards itself.
        self.idle_cv.notify_one();
    }

    /// Fires the drain signal if every producer hung up and every
    /// accepted item was taken out of a buffer. Returns true once
    /// drained.
    ///
    /// Soundness is a counting argument, not a snapshot. Once
    /// `producers == 0` is observed, `pushed` is final; an item is
    /// taken only after the push that counted it, so the slots' sum
    /// never exceeds that final value; and every slot only grows, so a
    /// sweep reads each slot at or below its true value. A sweep that
    /// still sums to `pushed` has therefore seen every item taken.
    fn check_drained(&self) -> bool {
        if self.drain.is_fired() {
            return true;
        }
        // ordering: SeqCst fence, paired with the same fence in every
        // other check: the caller's last update (a worker's `taken`
        // store, the last producer's decrement) is ordered before the
        // loads below, so of two threads that each finish their last
        // update and then check, at least one sees the other's — the
        // drain fires now, not on a later idle round.
        fence(Ordering::SeqCst);
        // ordering: Acquire pairs with the Release half of every
        // producer's decrement (one RMW chain, so reading its final 0
        // synchronizes with all of them): each producer's `pushed`
        // updates are visible to the Relaxed load below.
        if self.producers.load(Ordering::Acquire) != 0 {
            return false;
        }
        // ordering: final by the Acquire above.
        let pushed = self.pushed.load(Ordering::Relaxed);
        if self.sum(|s| &s.taken) == pushed {
            self.drain.fire();
            // Through the idle lock, so a sleeper between its drain
            // check and its park cannot miss the notify.
            drop(self.idle_m.lock());
            self.idle_cv.notify_all();
            return true;
        }
        false
    }
}

/// Adds one to a slot counter; `exclusive` says the caller holds the
/// slot's lease.
#[inline]
fn bump(counter: &AtomicU64, exclusive: bool) {
    // ordering: Relaxed — monotonic counters that publish no data. A
    // leased slot has one writer at a time (hand-overs are ordered by
    // the lease), so load + store cannot lose an update; the overflow
    // slot is shared and needs the atomic increment.
    if exclusive {
        counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    } else {
        counter.fetch_add(1, Ordering::Relaxed);
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

    /// The shard the next producer push goes to.
    fn next_shard(&self) -> usize {
        // ordering: the cursor only spreads load; any distribution is
        // correct, so Relaxed.
        self.cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len()
    }

    /// Locks shard `s` once `n` more items fit (a chunk larger than the
    /// cap waits for an empty shard), parking on `not_full` meanwhile.
    /// `None` once the queue is closed.
    fn lock_room(&self, s: usize, n: usize) -> Option<MutexGuard<'_, ShardQueue<T>>> {
        let shard = &self.shards[s];
        // The longest the shard may be for the chunk to fit.
        let fits = self.shard_cap.max(n) - n;
        // Low watermark: wake at half a shard, so one wake buys room
        // for many chunks, or lower when the chunk needs more room.
        let wake_at = fits.min(self.shard_cap / 2);
        let mut q = shard.q.lock();
        loop {
            if self.g.closed.load(Ordering::Acquire) {
                return None;
            }
            if q.items.len() <= fits {
                return Some(q);
            }
            q.wake_at = Some(q.wake_at.map_or(wake_at, |at| at.min(wake_at)));
            shard.not_full.wait(&mut q);
        }
    }

    /// Publishes the `n` items a producer appended to shard `s` under
    /// `q`: counts them, refreshes the length mirror, unlocks, and
    /// wakes idle workers.
    fn publish(&self, s: usize, q: MutexGuard<'_, ShardQueue<T>>, n: usize) {
        // ordering: Relaxed — `pushed` needs no order of its own: the
        // shard lock orders it before any take of these items, and the
        // producer's Release decrement publishes it to the drain check.
        self.g.pushed.fetch_add(n as u64, Ordering::Relaxed);
        // ordering: the mirror is an advisory skip-hint read outside the
        // lock; the deque itself is lock-protected, so Relaxed suffices.
        self.shards[s].len.store(q.items.len(), Ordering::Relaxed);
        drop(q);
        self.g.wake_idle();
    }

    /// Returns up to `max` items from shard `s` into `local`. Returns
    /// the number of items moved.
    fn take_from(&self, s: usize, local: &mut VecDeque<T>, max: usize) -> usize {
        let shard = &self.shards[s];
        let mut q = shard.q.lock();
        let take = q.items.len().min(max);
        if take == 0 {
            return 0;
        }
        local.extend(q.items.drain(..take));
        shard.len.store(q.items.len(), Ordering::Relaxed); // ordering: advisory mirror
        let wake = q.wake_at.is_some_and(|at| q.items.len() <= at);
        if wake {
            q.wake_at = None;
        }
        drop(q);
        if wake {
            // Every producer parked before the disarm is still waiting
            // (or woken spuriously, and re-arms if it parks again).
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
            q.items.push_front(item);
        }
        shard.len.store(q.items.len(), Ordering::Relaxed); // ordering: advisory mirror
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
        let s = self.core.next_shard();
        let Some(mut q) = self.core.lock_room(s, 1) else {
            return Err(SendError(item));
        };
        q.items.push_back(item);
        self.core.publish(s, q, 1);
        Ok(())
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
        let mut chunk: Vec<T> = Vec::with_capacity(self.core.batch);
        for item in items {
            chunk.push(item);
            if chunk.len() == self.core.batch {
                self.flush_chunk(&mut chunk)?;
            }
        }
        if !chunk.is_empty() {
            self.flush_chunk(&mut chunk)?;
        }
        Ok(())
    }

    /// Moves `chunk` onto one shard under one lock acquisition, waiting
    /// until the whole chunk fits.
    fn flush_chunk(&self, chunk: &mut Vec<T>) -> Result<(), SendError<T>> {
        let s = self.core.next_shard();
        let n = chunk.len();
        let Some(mut q) = self.core.lock_room(s, n) else {
            return Err(SendError(chunk.remove(0)));
        };
        q.items.extend(chunk.drain(..));
        self.core.publish(s, q, n);
        Ok(())
    }
}

impl<T> Clone for ShardSender<T> {
    fn clone(&self) -> Self {
        // ordering: SeqCst — the producer count is the first half of the
        // drain condition (see `Gauges::check_drained`).
        self.core.g.producers.fetch_add(1, Ordering::SeqCst);
        ShardSender {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T> Drop for ShardSender<T> {
    fn drop(&mut self) {
        // ordering: SeqCst — its Release half publishes this producer's
        // `pushed` updates to the drain check's Acquire load (see
        // `Gauges::check_drained`).
        if self.core.g.producers.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last producer gone: the queue may already be empty, and
            // an idle worker must re-examine the drain condition now
            // rather than on its next timeout.
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
        self.g.sum(|s| &s.processed)
    }

    /// Items accepted but not yet processed (approximate backlog; 0
    /// once drained).
    #[must_use]
    pub fn queued(&self) -> u64 {
        let taken = self.g.sum(|s| &s.taken);
        // ordering: monitoring read; the sweep and this load are not one
        // snapshot, hence the saturation.
        self.g.pushed.load(Ordering::Relaxed).saturating_sub(taken)
    }

    /// Cross-shard steal operations performed by dry workers.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.g.sum(|s| &s.steals)
    }

    /// Steals whose victim shard belonged to a gated (parked) worker.
    #[must_use]
    pub fn gated_steals(&self) -> u64 {
        self.g.sum(|s| &s.gated_steals)
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

/// Per-worker queue state: the local batch buffer, the steal cursor and
/// the lease on a counter slot. Returned items flow back to the owning
/// shard on drop (panic recovery: the pool rebuilds worker state after a
/// caught panic, and the replaced state must not take buffered tasks
/// with it).
pub struct ShardWorker<T> {
    core: Arc<Core<T>>,
    tid: usize,
    rr: usize,
    local: VecDeque<T>,
    /// This worker's index into `Gauges::slots`.
    slot: usize,
    /// True when `slot` is leased to this state alone; false on the
    /// shared overflow slot (a `tid` beyond the shard count, or a
    /// second live state for the same `tid`).
    exclusive: bool,
}

impl<T> ShardWorker<T> {
    /// Adds one to a counter of this worker's slot.
    #[inline]
    fn count(&self, counter: impl Fn(&Slot) -> &AtomicU64) {
        bump(counter(&self.core.g.slots[self.slot]), self.exclusive);
    }
}

impl<T> Drop for ShardWorker<T> {
    fn drop(&mut self) {
        let own = self.tid % self.core.shards.len();
        self.core.give_back(own, &mut self.local);
        self.core.g.unlease(self.slot, self.exclusive);
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
        let core = Arc::new(Core {
            shards: (0..shards)
                .map(|_| CachePadded::new(Shard::default()))
                .collect(),
            shard_cap: (capacity / shards).max(1),
            batch: batch.max(1),
            cursor: CachePadded::new(AtomicUsize::new(0)),
            view: OnceLock::new(),
            g: Arc::new(Gauges {
                slots: (0..=shards).map(|_| CachePadded::default()).collect(),
                producers: AtomicUsize::new(1),
                ..Gauges::default()
            }),
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
                    state.count(|c| &c.steals);
                    if gated_pass {
                        state.count(|c| &c.gated_steals);
                    }
                    crate::trc::task_steal(state.tid, s, got, visible, gated_pass);
                    return true;
                }
            }
        }
        false
    }

    /// Parks briefly waiting for new work (bounded so the pool's gate
    /// and shutdown checks stay responsive; a wake is never left to the
    /// bound).
    fn idle_wait(&self) {
        let g = &self.core.g;
        let mut pending = g.idle_m.lock();
        // ordering: SeqCst pairs with `wake_idle`'s SeqCst load — the
        // sleeper publishes itself, then re-reads shard state; the
        // producer publishes work, then reads `sleepers`. One total
        // order rules out both sides missing each other.
        g.sleepers.fetch_add(1, Ordering::SeqCst);
        // Re-check after counting: a producer that pushed before we
        // counted ourselves notifies nobody, so we must not park if
        // work (or the drain) became visible meanwhile.
        let work_visible = self
            .core
            .shards
            .iter()
            .any(|s| s.len.load(Ordering::Relaxed) > 0); // ordering: advisory mirror
        if !work_visible && !g.drain.is_fired() {
            let _ = g.idle_cv.wait_for(&mut pending, Duration::from_millis(1));
            // Woken, timed out or spurious: this sleeper is awake and
            // re-checks the shards next, so the pending wake is spent.
            *pending = false;
        }
        g.sleepers.fetch_sub(1, Ordering::SeqCst); // ordering: pairs with the increment above
    }
}

impl<T, F> Drop for ShardedWorkload<T, F> {
    fn drop(&mut self) {
        // The pool dropped the workload: unblock any producer waiting
        // for shard capacity so it can observe the closure.
        self.core.g.closed.store(true, Ordering::Release);
        for shard in &self.core.shards {
            // Under the lock: a producer between its closed-check and
            // its wait has already armed `wake_at`.
            if shard.q.lock().wake_at.is_some() {
                shard.not_full.notify_all();
            }
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
        let (slot, exclusive) = self.core.g.lease(tid);
        ShardWorker {
            core: Arc::clone(&self.core),
            tid,
            rr: tid,
            local: VecDeque::with_capacity(self.core.batch),
            slot,
            exclusive,
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
            // Count the item as taken before running the handler: if the
            // handler panics, the pool catches it and discards it as a
            // failed task — it must not leave `pushed` ahead of the
            // slots' sum and wedge `wait_drained`.
            state.count(|c| &c.taken);
            (self.handler)(item);
            state.count(|c| &c.processed);
            // The buffer boundary is the one place a worker looks at
            // shared drain state: whoever takes the last item ends here
            // with an empty buffer.
            if state.local.is_empty() {
                self.core.g.check_drained();
            }
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

    /// Two live states for the same `tid` (what the pool's panic
    /// recovery briefly holds): the first leases slot 0, the second
    /// counts in the shared overflow slot, and the drain is still
    /// exact. A lease comes back when its state drops.
    #[test]
    fn duplicate_tid_states_drain_exactly_once() {
        const ITEMS: u64 = 4_000;
        let seen: Arc<StdMutex<Vec<u64>>> = Arc::new(StdMutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let (workload, tx) = ShardedWorkload::with_batch(2, 64, 8, move |n: u64| {
            seen2.lock().unwrap().push(n);
        });
        let handle = workload.handle();
        let states = [workload.init_worker(0), workload.init_worker(0)];
        assert!(states[0].exclusive && !states[1].exclusive);
        std::thread::scope(|scope| {
            for mut state in states {
                let (workload, handle) = (&workload, &handle);
                scope.spawn(move || {
                    while !handle.is_drained() {
                        workload.run_task(&mut state);
                    }
                });
            }
            tx.send_batch(0..ITEMS).unwrap();
            drop(tx);
        });
        let got = seen.lock().unwrap();
        let unique: HashSet<u64> = got.iter().copied().collect();
        assert_eq!(got.len() as u64, ITEMS, "lost or duplicated items");
        assert_eq!(unique.len() as u64, ITEMS, "duplicate execution");
        assert_eq!(handle.processed(), ITEMS);
        assert_eq!(handle.queued(), 0);
        assert!(workload.init_worker(0).exclusive, "lease not returned");
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
        // drain: it was counted as taken before the handler ran.
        handle.wait_drained();
        let report = pool.stop();
        assert_eq!(report.worker_panics, 1);
        assert_eq!(handle.processed(), 99);
    }
}
