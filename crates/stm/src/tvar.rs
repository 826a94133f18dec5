//! Transactional variables.
//!
//! A [`TVar<T>`] is a shared, transactionally updated cell. Internally it
//! pairs a [`crate::vlock::VLock`] with an epoch-managed pointer
//! to an **immutable** heap value:
//!
//! * Committing writers allocate a fresh `T`, swap the pointer, and
//!   retire the old allocation through `crossbeam-epoch`.
//! * Readers pin the epoch, dereference, and clone. Because a published
//!   value is never mutated in place, the dereference is data-race-free —
//!   the versioned lock protocol only has to establish *which* snapshot
//!   was read, not protect its bytes.
//!
//! The variable's shared state (`TVarCore`) is epoch-managed too: it
//! counts its [`TVar`] handles, and dropping the last one *retires* the
//! core instead of freeing it. A transaction that recorded the core's
//! lock word in its read set therefore needs no handle of its own — the
//! attempt's pin keeps the word alive — and a first read costs no
//! reference-count write (`PinnedReads`).
//!
//! A borrowed descent (`Transaction::read_path`) goes one step further
//! and follows child variables held inside node values it read without
//! taking a handle at all (`PathLink`), for the same reason.
//!
//! This module is the only home of `unsafe` in the crate; each use is a
//! guard-protected dereference, the handle-count protocol, the
//! uniquely-owned drop, or a descent link.

use std::ptr::NonNull;

// crossbeam-epoch's pointer API takes `std` orderings directly; the
// reclamation protocol itself is modeled by `rubic-check`'s epoch model
// rather than swapped at compile time, so the raw import stays.
use std::sync::atomic::Ordering as EpochOrdering; // lint: allow-std-sync — epoch API

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
use rubic_sync::atomic::{fence, AtomicUsize, Ordering};

use crate::vlock::VLock;
use crate::TxValue;

/// Internal state shared by all handles to one transactional variable.
pub(crate) struct TVarCore<T> {
    vlock: VLock,
    /// Live [`TVar`] handles; the drop that takes it to zero retires
    /// the core through the epoch.
    handles: AtomicUsize,
    data: Atomic<T>,
}

impl<T: TxValue> TVarCore<T> {
    fn new(value: T) -> Self {
        TVarCore {
            // Version 0: the initial value is the only snapshot ever
            // published for this variable, so it validates against any
            // read version.
            vlock: VLock::new(0),
            handles: AtomicUsize::new(1),
            data: Atomic::new(value),
        }
    }

    #[inline]
    pub(crate) fn vlock(&self) -> &VLock {
        &self.vlock
    }

    /// Clones the currently published value.
    ///
    /// The caller is responsible for the versioned-lock consistency
    /// protocol (sample → load → re-sample); this method only guarantees
    /// the clone itself is safe.
    #[inline]
    pub(crate) fn load_clone(&self, guard: &Guard) -> T {
        let shared = self.data.load(EpochOrdering::Acquire, guard);
        // SAFETY: `shared` was published by `TVarCore::new` or `publish`,
        // both of which store a valid, initialized `T`. The pointer is
        // retired only through `guard`-deferred destruction, and we hold
        // a pinned guard, so it cannot be freed during this call.
        // Published values are never mutated in place, so the shared
        // borrow cannot race with a write.
        unsafe { shared.deref() }.clone()
    }

    /// Applies `f` to the currently published value without cloning it.
    ///
    /// Same caller contract as [`load_clone`](Self::load_clone): the
    /// versioned-lock protocol around this call decides whether the
    /// observation was consistent.
    #[inline]
    pub(crate) fn with_value<R>(&self, guard: &Guard, f: impl FnOnce(&T) -> R) -> R {
        let shared = self.data.load(EpochOrdering::Acquire, guard);
        // SAFETY: identical argument to `load_clone` — valid initialized
        // pointer, pinned guard prevents reclamation, published values
        // are immutable.
        f(unsafe { shared.deref() })
    }

    /// Publishes `value` as the new current snapshot and retires the old
    /// one.
    ///
    /// # Contract
    /// The caller must hold this variable's write lock (so no concurrent
    /// `publish` runs) and must release it with the new version
    /// afterwards.
    pub(crate) fn publish(&self, value: T, guard: &Guard) {
        let old: Shared<'_, T> = self
            .data
            .swap(Owned::new(value), EpochOrdering::Release, guard);
        debug_assert!(!old.is_null());
        // SAFETY: `old` was the uniquely published snapshot; after the
        // swap no new reader can acquire it, and existing readers hold
        // epoch guards. Deferring destruction until all current guards
        // are dropped is exactly the epoch-reclamation contract.
        unsafe { guard.defer_destroy(old) };
    }
}

impl<T> Drop for TVarCore<T> {
    fn drop(&mut self) {
        let ptr = std::mem::replace(&mut self.data, Atomic::null());
        // SAFETY: having `&mut self` proves no other handle or reader
        // exists (the core was retired by its last handle and the epoch
        // has passed every reader pinned back then), so the current
        // pointer is uniquely owned and can be reclaimed immediately.
        unsafe {
            let owned = ptr.try_into_owned();
            drop(owned);
        }
    }
}

/// A shared transactional variable holding a `T`.
///
/// `TVar` is a cheap clonable handle (reference-counted internally);
/// clones refer to the same underlying cell, which is reclaimed through
/// the epoch after the last handle drops. Values must implement
/// [`TxValue`] (`Clone + Send + Sync + 'static`).
///
/// ```
/// use rubic_stm::{Stm, TVar};
/// let stm = Stm::default();
/// let v = TVar::new(vec![1, 2, 3]);
/// stm.atomically(|tx| {
///     let mut cur = tx.read(&v)?;
///     cur.push(4);
///     tx.write(&v, cur)
/// });
/// assert_eq!(v.snapshot(), vec![1, 2, 3, 4]);
/// ```
pub struct TVar<T: TxValue> {
    /// Points at a live boxed core: this handle is counted in
    /// `handles`, and the core is only retired when that count reaches
    /// zero.
    core: NonNull<TVarCore<T>>,
}

// SAFETY: a handle shares the core exactly like `Arc<TVarCore<T>>`
// would — `&T` is handed to many threads and `T` is dropped by whichever
// thread reclaims — which `T: Send + Sync` allows. The other core fields
// (`VLock`, the handle count) are thread-safe on their own. The bound
// spells `TxValue` out because a recursive value type (a node holding
// `TVar`s of nodes) can only close the `Send` cycle through auto traits,
// not through the `TxValue` blanket impl.
unsafe impl<T: Clone + Send + Sync + 'static> Send for TVar<T> {}
// SAFETY: same argument; `&TVar<T>` exposes nothing `TVar<T>` does not.
unsafe impl<T: Clone + Send + Sync + 'static> Sync for TVar<T> {}

impl<T: TxValue> TVar<T> {
    /// Creates a new transactional variable holding `value`.
    #[must_use]
    pub fn new(value: T) -> Self {
        TVar {
            core: NonNull::from(Box::leak(Box::new(TVarCore::new(value)))),
        }
    }

    /// Creates a new transactional variable and registers `label` as the
    /// human-readable name for its lock identity. With the `trace`
    /// feature on, contention tables and post-mortem bundles report this
    /// name next to [`lock_addr`](Self::lock_addr); without it the label
    /// is dropped and this is exactly [`new`](Self::new).
    #[must_use]
    pub fn labelled(value: T, label: &str) -> Self {
        let var = Self::new(value);
        crate::trc::label(var.lock_addr(), label);
        var
    }

    #[inline]
    pub(crate) fn core(&self) -> &TVarCore<T> {
        // SAFETY: `self` is a counted handle, so the count is at least
        // one and the core has not been retired, let alone freed.
        unsafe { self.core.as_ref() }
    }

    /// Number of live handles to this variable. Diagnostic: reading a
    /// variable transactionally must never change it (the read set
    /// borrows the epoch pin, not a handle); a buffered write holds one.
    #[must_use]
    pub fn handle_count(&self) -> usize {
        // ordering: Relaxed — a diagnostic sample, stale by the time
        // the caller looks at it.
        self.core().handles.load(Ordering::Relaxed)
    }

    /// Returns a consistent copy of the current committed value without
    /// running a transaction.
    ///
    /// Spins while a committer holds the write lock (commit windows are
    /// a few instructions long). Intended for post-run inspection and
    /// monitoring, not for composing with transactional logic — a
    /// snapshot taken outside a transaction has no atomicity relative to
    /// anything else.
    #[must_use]
    pub fn snapshot(&self) -> T {
        let guard = epoch::pin();
        loop {
            let w1 = self.core().vlock.sample();
            if w1.is_locked() {
                std::hint::spin_loop();
                continue;
            }
            let value = self.core().load_clone(&guard);
            if self.core().vlock.sample() == w1 {
                return value;
            }
        }
    }

    /// The commit timestamp of the currently published value (0 for a
    /// never-written variable). Diagnostic.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.core().vlock.sample().version()
    }

    /// True while a transaction holds this variable's write lock.
    ///
    /// Diagnostic only — the answer can be stale by the time the caller
    /// acts on it. Its intended use is *quiescence* checks: once every
    /// transaction has finished (threads joined), any variable still
    /// reporting `true` has leaked its lock, which the harness's
    /// lock-leak oracle turns into a test failure.
    #[must_use]
    pub fn is_locked(&self) -> bool {
        self.core().vlock.sample().is_locked()
    }

    /// Stable address of this variable's versioned lock — the same
    /// identity `LockHold` trace events carry in their address word, so
    /// a leaked lock found at quiescence can be cross-referenced with
    /// the hold-time events of the transactions that touched it.
    #[must_use]
    pub fn lock_addr(&self) -> usize {
        self.core().vlock.addr()
    }

    /// True if `self` and `other` are handles to the same variable.
    #[must_use]
    pub fn ptr_eq(&self, other: &TVar<T>) -> bool {
        self.core == other.core
    }
}

impl<T: TxValue> Clone for TVar<T> {
    fn clone(&self) -> Self {
        // ordering: Relaxed — a new handle is derived from a live one,
        // so the count cannot concurrently reach zero, and the handle
        // itself is what gets published to other threads (the `Arc`
        // protocol).
        let old = self.core().handles.fetch_add(1, Ordering::Relaxed);
        // Leaked handles could otherwise wrap the count and free a core
        // that is still referenced.
        assert!(old < usize::MAX / 2, "TVar handle count overflow");
        TVar { core: self.core }
    }
}

impl<T: TxValue> Drop for TVar<T> {
    fn drop(&mut self) {
        // ordering: Release, so every use of the core through this
        // handle happens-before the retirement below, whichever thread
        // performs it.
        if self.core().handles.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // ordering: Acquire pairs with the Release decrements of all
        // other handles (the `Arc` protocol).
        fence(Ordering::Acquire);
        let guard = epoch::pin();
        // SAFETY: the pointer came from `Box::leak` in `new`. The count
        // reached zero, so no handle is left to hand out new references
        // and nobody retires the core twice. Transactions that recorded
        // its lock word did so through a live handle while pinned, i.e.
        // before this retirement, so the epoch keeps the box alive until
        // they unpin. `T: Send + Sync` makes it droppable on any thread.
        unsafe { guard.defer_destroy(Shared::from(self.core.as_ptr().cast_const())) };
    }
}

/// One link of a borrowed descent ([`crate::Transaction::read_path`]):
/// a variable held by address, with no handle counted.
///
/// A descent starts at the caller's root and follows child handles that
/// live *inside* node values it read. Holding such a child as a counted
/// [`TVar`] would cost a `fetch_add`/`fetch_sub` pair on the child's
/// handle count, beside the lock word every reader samples; a link costs
/// nothing.
///
/// # Contract
/// Only `read_path` makes links, from its `root` argument or from a
/// child handle inside a value it read, and none outlives its call —
/// the conditions [`var`](Self::var)'s dereference relies on.
pub(crate) struct PathLink<T: TxValue>(NonNull<TVar<T>>);

impl<T: TxValue> PathLink<T> {
    #[inline]
    pub(crate) fn to(var: &TVar<T>) -> Self {
        PathLink(NonNull::from(var))
    }

    /// The linked variable.
    #[inline]
    pub(crate) fn var(&self) -> &TVar<T> {
        // SAFETY: the link was made inside one `read_path` call, either
        // from the caller's root (borrowed for the whole call) or from a
        // child handle inside a node value that call observed. Such a
        // value is either published — retired only through the epoch, so
        // not freed before the attempt unpins — or the pending value of
        // one of this transaction's write slots, which only `write`,
        // `commit` and `abort` replace or drop. `read_path` holds the
        // transaction mutably for the whole walk and does none of these
        // and never repins, so the value, the handle inside it and the
        // core that handle counts all outlive the link.
        unsafe { self.0.as_ref() }
    }
}

/// One transaction's epoch pin together with the read log recorded
/// under it.
///
/// A read-log entry is a bare pointer to the variable's lock word — no
/// handle, no reference-count write. What keeps the word alive is the
/// pin: the entry was recorded through a live [`TVar`] handle while this
/// guard was pinned, so even if every handle drops afterwards the core
/// is only *retired*, and the epoch cannot free it before this guard
/// unpins. Owning the guard and the entries in one type makes that
/// invariant local: every operation that unpins clears the entries
/// first, and the allocation only leaves this type emptied, as a
/// [`ReadBuf`].
pub(crate) struct PinnedReads {
    guard: Guard,
    entries: Vec<ReadEntry>,
}

struct ReadEntry {
    lock: NonNull<VLock>,
    version: u64,
}

/// The read set's allocation between transactions: always empty, so it
/// may sit in a parked transaction context while the thread is
/// unpinned.
#[derive(Default)]
pub(crate) struct ReadBuf(Vec<ReadEntry>);

impl PinnedReads {
    /// Pins the epoch with an empty read set that reuses `buf`.
    #[inline]
    pub(crate) fn pin(buf: ReadBuf) -> Self {
        PinnedReads {
            guard: epoch::pin(),
            entries: buf.0,
        }
    }

    /// Forgets every entry and unpins, handing the allocation back
    /// (less whatever it grew beyond `retain` entries).
    #[inline]
    pub(crate) fn unpin(mut self, retain: usize) -> ReadBuf {
        self.entries.clear();
        self.entries.shrink_to(retain);
        ReadBuf(self.entries)
    }

    #[inline]
    pub(crate) fn guard(&self) -> &Guard {
        &self.guard
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct lock words recorded: the log may hold a
    /// variable more than once, so this sorts a copy of the pointers
    /// (diagnostics and tests only).
    pub(crate) fn distinct_len(&self) -> usize {
        let mut locks: Vec<_> = self.entries.iter().map(|e| e.lock).collect();
        locks.sort_unstable();
        locks.dedup();
        locks.len()
    }

    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Records that `var` was read at `version` under the current pin.
    #[inline]
    pub(crate) fn record<T: TxValue>(&mut self, var: &TVar<T>, version: u64) {
        self.entries.push(ReadEntry {
            lock: NonNull::from(var.core().vlock()),
            version,
        });
    }

    /// The recorded `(lock word, version)` pairs, in read order.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&VLock, u64)> {
        self.entries.iter().map(|e| {
            // SAFETY: the entry was recorded through a live handle under
            // this pin and the guard has stayed pinned since (`clear`,
            // `repin`, `unpinned` and `unpin` empty the set before
            // unpinning), so the core holding the lock word can have
            // been retired but not freed.
            (unsafe { e.lock.as_ref() }, e.version)
        })
    }

    /// Forgets every entry, keeping the allocation.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Forgets every entry, then momentarily unpins so the epoch can
    /// pass this thread.
    pub(crate) fn repin(&mut self) {
        self.entries.clear();
        self.guard.repin();
    }

    /// Forgets every entry, then runs `f` with the epoch unpinned.
    pub(crate) fn unpinned<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.entries.clear();
        self.guard.repin_after(f)
    }
}

impl<T: TxValue + std::fmt::Debug> std::fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TVar")
            .field("value", &self.snapshot())
            .field("version", &self.version())
            .finish()
    }
}

impl<T: TxValue + Default> Default for TVar<T> {
    fn default() -> Self {
        TVar::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Pumps the epoch until `done` holds. Reclamation needs two
    /// advances past the retirement, and an advance waits for every
    /// pinned thread — including other tests' transactions — so this
    /// polls against a deadline instead of counting flushes.
    fn flush_epoch_until(done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while !done() && std::time::Instant::now() < deadline {
            epoch::pin().flush();
            std::thread::yield_now();
        }
    }

    #[test]
    fn new_snapshot_roundtrip() {
        let v = TVar::new(41);
        assert_eq!(v.snapshot(), 41);
        assert_eq!(v.version(), 0);
    }

    #[test]
    fn clone_shares_identity() {
        let a = TVar::new(String::from("x"));
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        let c = TVar::new(String::from("x"));
        assert!(!a.ptr_eq(&c));
    }

    #[test]
    fn publish_swaps_value() {
        let v = TVar::new(1);
        let guard = epoch::pin();
        let w = v.core().vlock().sample();
        assert!(v.core().vlock().try_lock(w));
        v.core().publish(2, &guard);
        v.core().vlock().release_commit(7);
        drop(guard);
        assert_eq!(v.snapshot(), 2);
        assert_eq!(v.version(), 7);
    }

    #[test]
    fn drop_reclaims_value() {
        // Drop a TVar holding an Arc and check the refcount falls once
        // the epoch has passed — i.e. the core and its value were
        // actually freed, not leaked.
        let tracker = Arc::new(());
        let v = TVar::new(Arc::clone(&tracker));
        assert_eq!(Arc::strong_count(&tracker), 2);
        drop(v);
        flush_epoch_until(|| Arc::strong_count(&tracker) == 1);
        assert_eq!(Arc::strong_count(&tracker), 1);
    }

    #[test]
    fn only_the_last_handle_retires_the_core() {
        let tracker = Arc::new(());
        let a = TVar::new(Arc::clone(&tracker));
        let b = a.clone();
        assert_eq!((a.handle_count(), b.handle_count()), (2, 2));
        drop(a);
        assert_eq!(b.handle_count(), 1);
        epoch::pin().flush();
        epoch::pin().flush();
        assert_eq!(Arc::strong_count(&tracker), 2, "a live handle remains");
        assert_eq!(Arc::strong_count(&b.snapshot()), 3);
        drop(b);
        flush_epoch_until(|| Arc::strong_count(&tracker) == 1);
        assert_eq!(Arc::strong_count(&tracker), 1);
    }

    /// A `TVar` kept in a thread-local is dropped by that local's
    /// destructor, possibly after the epoch's own thread-local is gone.
    /// Either order must let the thread exit (a panicking destructor
    /// aborts the process) and still reclaim the value.
    #[test]
    fn last_handle_dropped_by_a_tls_destructor() {
        thread_local! {
            static HOLDER: std::cell::RefCell<Option<TVar<Arc<()>>>> =
                const { std::cell::RefCell::new(None) };
        }
        let tracker = Arc::new(());
        for epoch_local_first in [false, true] {
            let tracker = Arc::clone(&tracker);
            std::thread::spawn(move || {
                if epoch_local_first {
                    drop(epoch::pin());
                }
                HOLDER.with(|h| *h.borrow_mut() = Some(TVar::new(tracker)));
                // Registers the epoch's local (after HOLDER, unless it
                // was touched above).
                drop(epoch::pin());
            })
            .join()
            .unwrap();
        }
        flush_epoch_until(|| Arc::strong_count(&tracker) == 1);
        assert_eq!(Arc::strong_count(&tracker), 1, "value never reclaimed");
    }

    /// The deferred-reclamation contract on the real types: a lock word
    /// recorded under a pin stays readable after another thread dropped
    /// the variable's last handle and pumped the collector, and the core
    /// is freed once the pin is gone.
    #[test]
    fn recorded_lock_word_outlives_the_last_handle_while_pinned() {
        let tracker = Arc::new(());
        let var = TVar::new(Arc::clone(&tracker));
        let mut reads = PinnedReads::pin(ReadBuf::default());
        reads.record(&var, var.version());
        std::thread::spawn(move || {
            drop(var);
            let guard = epoch::pin();
            for _ in 0..256 {
                guard.flush();
            }
        })
        .join()
        .unwrap();
        assert_eq!(Arc::strong_count(&tracker), 2, "freed under a pin");
        for (lock, version) in reads.iter() {
            let w = lock.sample();
            assert!(!w.is_locked());
            assert_eq!(w.version(), version);
        }
        drop(reads);
        flush_epoch_until(|| Arc::strong_count(&tracker) == 1);
        assert_eq!(Arc::strong_count(&tracker), 1, "retired core never freed");
    }

    #[test]
    fn snapshot_spins_past_held_lock() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let v = Arc::new(TVar::new(10));
        let locked = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let v2 = Arc::clone(&v);
        let locked2 = Arc::clone(&locked);
        let release2 = Arc::clone(&release);
        let h = std::thread::spawn(move || {
            let w = v2.core().vlock().sample();
            assert!(v2.core().vlock().try_lock(w));
            locked2.store(true, Ordering::Release);
            while !release2.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            let guard = epoch::pin();
            v2.core().publish(20, &guard);
            v2.core().vlock().release_commit(3);
        });
        while !locked.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        // Snapshot must not observe a half-committed state; let the
        // writer finish while we spin.
        release.store(true, Ordering::Release);
        let got = v.snapshot();
        assert!(got == 10 || got == 20);
        h.join().unwrap();
        assert_eq!(v.snapshot(), 20);
    }

    #[test]
    fn debug_format_mentions_value() {
        let v = TVar::new(5);
        let s = format!("{v:?}");
        assert!(s.contains('5'), "{s}");
    }

    #[test]
    fn default_uses_value_default() {
        let v: TVar<u64> = TVar::default();
        assert_eq!(v.snapshot(), 0);
    }
}
