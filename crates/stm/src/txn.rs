//! The transaction engine: read/write sets, validation, timestamp
//! extension, two-phase commit.
//!
//! # Protocol summary
//!
//! A transaction starts by sampling the global clock into its *read
//! version* `rv`.
//!
//! **Read** (invisible): sample the variable's versioned lock; if locked
//! by another transaction → conflict. Load and clone the snapshot, then
//! re-sample the lock — if the word changed, another commit raced the
//! read and we retry the sample/load/sample sequence. A consistent read
//! whose version exceeds `rv` triggers a **timestamp extension**:
//! revalidate the whole read set at the current clock and, if it still
//! holds, adopt the newer read version (TinySTM/SwissTM; avoids TL2's
//! false aborts).
//!
//! **Write** (eager lock, lazy value): the first write to a variable
//! CAS-acquires its lock — failure means a concurrent writer owns it →
//! conflict (eager W/W detection). If the variable was previously read,
//! its version must still match the recorded one. The value is buffered
//! in the private write set; repeated writes just replace the buffer.
//!
//! **Commit**: read-only transactions commit immediately — their read
//! set was kept consistent incrementally. Writers draw a unique
//! timestamp `wv` from the clock, validate the read set (skippable when
//! `wv == rv + 1`, the TL2 fast path: nobody committed in between), then
//! for each write publish the buffered value and release the lock
//! stamped `wv`.
//!
//! **Abort**: release every held lock, restoring pre-lock versions, and
//! drop the buffers.
//!
//! The engine guarantees *opacity* for code that propagates [`TxResult`]
//! errors: a transaction never acts on two mutually inconsistent reads,
//! because every read is validated against `rv` at the moment it
//! happens.
//!
//! # Hot-path engineering (DESIGN.md §11)
//!
//! Per-transaction overhead distorts every figure the reproduction
//! measures, so the engine pays for bookkeeping once per *attempt*, not
//! once per access:
//!
//! * Every thread keeps **one transaction context** — the read set's
//!   vector, both indices, the write vector and the spare write slots —
//!   and each transaction borrows it: `begin` takes it from the thread's
//!   slot, `park` empties it and puts it back. A warmed transaction
//!   therefore allocates nothing but the value boxes it publishes. A
//!   parked context is *unpinned, empty, and holds no `TVar` handle or
//!   user value*; what it keeps is capacity, capped by [`RETAIN_CAP`]
//!   and [`SPARE_CAP`]. A nested `atomically` finds the slot empty and
//!   runs on a fresh context (whichever parks last stays).
//! * The access protocol is spelled **once**: `read` is
//!   `read_with(var, T::clone)`, and `read_with` and `write` both enter
//!   through `sample_unlocked` (chaos hook, lock sample, lock-busy
//!   conflict). This file holds no cargo-feature gate; what `trace` and
//!   `chaos` add lives behind `trc.rs` and `chaos.rs`, whose disabled
//!   halves are zero-sized no-ops.
//! * The epoch is pinned **once per attempt** — [`Transaction`] owns the
//!   pin (created at `begin`, repinned at `restart`, dropped at `park`)
//!   instead of pinning inside every `read_with`/`commit`.
//! * Reads are invisible in the strict sense: a read-set entry is the
//!   variable's lock-word pointer plus the observed version, kept alive
//!   by the attempt's pin (`PinnedReads`) rather than by a counted
//!   handle, so a read-only transaction performs no read-modify-write
//!   on memory another thread can reach.
//! * The read/write-set indices are [`crate::index::VarIndex`]: a dense
//!   linear-scanned vector for counter-sized footprints, spilling into
//!   an FxHash map for larger ones. No SipHash on the hot path.
//! * Finished attempts recycle their allocations, committed or
//!   aborted: the read-set vector keeps its capacity, and the boxed
//!   [`WriteSlot`]s move to the context's spare list, to be reclaimed
//!   by the next attempt that writes a variable of the same type. An
//!   *aborted* attempt's slots also keep their variable handle, which
//!   the retry reclaims — it touches the same variables in the same
//!   order in the common case — so a retry allocates nothing and
//!   performs no handle-count RMW for a previously written variable,
//!   exactly when contention is highest. The handle is an `Option`
//!   that a commit or `park` clears in every spare slot (the smaller of the two
//!   fixes considered; recording the core under the pin, as
//!   `PinnedReads` does for reads, would have put a second raw-pointer
//!   invariant into this file), so no handle outlives its transaction.

use std::any::Any;
use std::cell::Cell;

use crossbeam_epoch::Guard;

use crate::abort::AbortReason;
use crate::chaos::{self, ChaosPoint};
use crate::clock;
use crate::index::VarIndex;
use crate::trc;
use crate::tvar::{PinnedReads, ReadBuf, TVar, TVarCore};
use crate::vlock::{LockWord, VLock};
use crate::TxValue;

/// Spare-list size cap: write slots recycled beyond this are dropped.
/// Bounds what a transaction with a huge write set leaves behind;
/// ordinary footprints never hit it.
const SPARE_CAP: usize = 128;

/// Entries of capacity each access-set vector of a parked context may
/// keep. A transaction that outgrows it pays for the growth again next
/// time; everything smaller — every paper workload — is retained whole.
const RETAIN_CAP: usize = 1024;

thread_local! {
    /// This thread's parked transaction context; `None` while a
    /// transaction is running on it, or before the first one.
    static PARKED: Cell<Option<Box<Context>>> = const { Cell::new(None) };
}

/// Why a transactional operation could not proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmError {
    /// A conflicting transaction owns a lock or committed an overlapping
    /// update; the current attempt must abort and retry.
    Conflict,
}

impl std::fmt::Display for StmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StmError::Conflict => write!(f, "transactional conflict"),
        }
    }
}

impl std::error::Error for StmError {}

/// Result alias for transactional operations.
pub type TxResult<T> = Result<T, StmError>;

/// Object-safe view of a buffered write.
trait WriteSlot: Send {
    /// Publishes the buffered value and releases the lock stamped `wv`.
    fn publish(&mut self, wv: u64, guard: &Guard);
    /// Releases the lock restoring the pre-lock version.
    fn release_abort(&self);
    /// True if the slot holds a handle to the variable locked at `addr`.
    fn holds(&self, addr: usize) -> bool;
    /// Drops the buffered value (if any) so a slot on the spare list
    /// keeps no user data alive, and the variable handle too unless
    /// `keep_handle` (an aborted attempt's slot, kept for the retry).
    fn recycle(&mut self, keep_handle: bool);
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

struct TypedSlot<T: TxValue> {
    /// The written variable; `None` only on the spare list, and there
    /// `Some` only until the transaction that aborted with it parks.
    var: Option<TVar<T>>,
    pending: Option<T>,
    prev: LockWord,
    /// When this slot's lock was acquired; feeds the lock-hold-time
    /// histogram (zero-sized without the `trace` feature).
    locked_at: trc::LockStamp,
}

impl<T: TxValue> TypedSlot<T> {
    fn core(&self) -> &TVarCore<T> {
        self.var
            .as_ref()
            .expect("spare write slot in the live write set")
            .core()
    }
}

impl<T: TxValue> WriteSlot for TypedSlot<T> {
    fn publish(&mut self, wv: u64, guard: &Guard) {
        let value = self
            .pending
            .take()
            .expect("write slot published twice or never filled");
        let core = self.core();
        core.publish(value, guard);
        core.vlock().release_commit(wv);
        self.locked_at.released(core.vlock().addr(), false);
    }

    fn release_abort(&self) {
        let lock = self.core().vlock();
        lock.release_abort(self.prev);
        self.locked_at.released(lock.addr(), true);
    }

    fn holds(&self, addr: usize) -> bool {
        self.var.as_ref().is_some_and(|var| var.lock_addr() == addr)
    }

    fn recycle(&mut self, keep_handle: bool) {
        self.pending = None;
        if !keep_handle {
            self.var = None;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Allocation diagnostics for one [`Transaction`] (see
/// [`Transaction::footprint`]). Primarily test support: the retry-reuse
/// guarantees ("a restart allocates nothing") are asserted against
/// these numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxFootprint {
    /// Capacity of the read-set entry vector.
    pub reads_capacity: usize,
    /// Capacity of the write-set slot vector.
    pub writes_capacity: usize,
    /// Capacity of the read index's dense entry vector.
    pub read_index_capacity: usize,
    /// Capacity of the write index's dense entry vector.
    pub write_index_capacity: usize,
    /// Recycled write slots parked for the next attempt.
    pub spare_write_slots: usize,
    /// True while the read index uses its hashed (spilled)
    /// representation instead of the small-set linear scan.
    pub read_index_spilled: bool,
}

/// The allocations a thread keeps between transactions (module docs):
/// between [`Transaction::park`] and the next [`Transaction::begin`]
/// every set is empty and no spare slot holds a handle or a value.
#[derive(Default)]
struct Context {
    /// The read set's vector; held by `Transaction::pinned` while a
    /// transaction runs.
    reads: ReadBuf,
    read_index: VarIndex<u64>,
    write_index: VarIndex<usize>,
    writes: Vec<Box<dyn WriteSlot>>,
    /// Recycled write slots, most recently released last. An attempt
    /// that writes the same types in the same order as the previous one
    /// pops its slot off the top.
    spare_writes: Vec<Box<dyn WriteSlot>>,
    /// True while a spare slot may hold a variable handle, i.e. from an
    /// abort until the transaction commits or parks.
    spares_hold_handles: bool,
}

impl Context {
    /// Empties the indices and moves the (already released or
    /// published) write slots to the spare list, keeping every
    /// allocation. Drained in reverse so the next attempt's first write
    /// finds its slot on top of the stack. With `keep_handles` (an
    /// abort) the slots keep their variable handles for the retry;
    /// without (a commit, `park`) no spare slot holds one afterwards.
    #[inline]
    fn clear(&mut self, keep_handles: bool) {
        self.read_index.clear();
        self.write_index.clear();
        for mut slot in self.writes.drain(..).rev() {
            if self.spare_writes.len() < SPARE_CAP {
                slot.recycle(keep_handles);
                self.spare_writes.push(slot);
                self.spares_hold_handles |= keep_handles;
            }
        }
        if self.spares_hold_handles && !keep_handles {
            for slot in &mut self.spare_writes {
                slot.recycle(false);
            }
            self.spares_hold_handles = false;
        }
    }

    /// Releases capacity beyond [`RETAIN_CAP`] entries per vector.
    #[inline]
    fn trim(&mut self) {
        self.read_index.shrink_to(RETAIN_CAP);
        self.write_index.shrink_to(RETAIN_CAP);
        self.writes.shrink_to(RETAIN_CAP);
    }
}

/// An in-flight transaction.
///
/// Obtained through [`crate::Stm::atomically`]; user code interacts with
/// it via [`read`](Transaction::read), [`write`](Transaction::write) and
/// the combinators built on them. All fallible operations return
/// [`TxResult`]; propagate errors with `?` so a conflicted attempt
/// unwinds promptly and retries.
pub struct Transaction {
    rv: u64,
    /// The epoch pin taken once per attempt (repinned at `restart`), so
    /// individual reads and the commit's publish loop never pay the
    /// pin/unpin protocol, together with the read set it keeps alive.
    pinned: PinnedReads,
    /// The thread's context, minus the read vector `pinned` holds.
    ctx: Box<Context>,
    /// Operation counters for diagnostics (reported through `StmStats`).
    n_reads: u64,
    n_writes: u64,
    /// Why the engine last flagged a conflict in this attempt. Reset to
    /// [`AbortReason::Explicit`] at each attempt start, so an attempt
    /// that aborts without the engine tagging a reason is attributed to
    /// the transaction body itself.
    last_conflict: AbortReason,
    /// Lock address of the variable implicated in the last conflict
    /// (0 when no variable is implicated — e.g. chaos at a commit
    /// boundary or an explicit body abort). Always-on companion to
    /// `last_conflict`: one word per transaction, maintained only on
    /// the abort path, it feeds trace-side conflict attribution.
    conflict_addr: usize,
}

impl Transaction {
    /// Begins a transaction at the current clock on the thread's parked
    /// context. A nested transaction (or one run while the thread's
    /// locals are torn down) finds none and starts on an empty one.
    #[inline]
    pub(crate) fn begin() -> Self {
        let mut ctx = PARKED
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_default();
        let pinned = PinnedReads::pin(std::mem::take(&mut ctx.reads));
        Transaction {
            rv: clock::now(),
            pinned,
            ctx,
            n_reads: 0,
            n_writes: 0,
            last_conflict: AbortReason::Explicit,
            conflict_addr: 0,
        }
    }

    /// Clears all buffered state and re-samples the clock, reusing the
    /// allocations for the next attempt.
    pub(crate) fn restart(&mut self) {
        // Anything still buffered (the managed retry loop aborts first,
        // so normally nothing) is recycled, not dropped.
        self.clear_access_sets(true);
        // The op counters must restart with the attempt: they feed
        // `StmStats::record_commit` as *this commit's* footprint, and
        // carrying counts from aborted attempts would inflate every
        // per-commit read/write statistic under contention.
        self.n_reads = 0;
        self.n_writes = 0;
        self.last_conflict = AbortReason::Explicit;
        self.conflict_addr = 0;
        // Momentarily unpin so the epoch (and hence reclamation) can
        // pass this thread between attempts, then re-sample the clock
        // under the fresh pin.
        self.pinned.repin();
        self.rv = clock::now();
    }

    /// Empties the read and write sets, keeping their allocations. The
    /// write slots must have been released or published already;
    /// `keep_handles` leaves them their variable handles for a retry.
    #[inline]
    fn clear_access_sets(&mut self, keep_handles: bool) {
        self.pinned.clear();
        self.ctx.clear(keep_handles);
    }

    /// Ends the transaction after its commit or abort: unpins and hands
    /// the emptied context back to the thread's slot (replacing the one
    /// a nested transaction may have parked meanwhile).
    #[inline]
    pub(crate) fn park(mut self) {
        self.clear_access_sets(false);
        let Transaction {
            pinned, mut ctx, ..
        } = self;
        ctx.trim();
        ctx.reads = pinned.unpin(RETAIN_CAP);
        let _ = PARKED.try_with(|slot| slot.set(Some(ctx)));
    }

    /// Tags this attempt with `reason` and returns the public error.
    /// Every engine conflict site funnels through here (or through
    /// [`fail_at`](Self::fail_at) when a variable is implicated) so the
    /// retry loop can attribute the abort.
    #[inline]
    fn fail(&mut self, reason: AbortReason) -> StmError {
        self.last_conflict = reason;
        self.conflict_addr = 0;
        StmError::Conflict
    }

    /// [`fail`](Self::fail) with the culprit variable's lock address
    /// recorded for conflict attribution.
    #[inline]
    fn fail_at(&mut self, reason: AbortReason, addr: usize) -> StmError {
        self.last_conflict = reason;
        self.conflict_addr = addr;
        StmError::Conflict
    }

    /// Why the engine last flagged a conflict in the current attempt
    /// ([`AbortReason::Explicit`] if it never did). Read by the retry
    /// loop when recording an abort; meaningful only right after an
    /// operation returned [`StmError::Conflict`].
    #[must_use]
    pub fn conflict_reason(&self) -> AbortReason {
        self.last_conflict
    }

    /// Lock address of the variable implicated in the last conflict —
    /// the same identity as [`crate::TVar::lock_addr`] — or 0 when no
    /// single variable was (chaos at a commit boundary, explicit body
    /// abort). Meaningful under the same conditions as
    /// [`conflict_reason`](Self::conflict_reason).
    #[must_use]
    pub fn conflict_addr(&self) -> usize {
        self.conflict_addr
    }

    /// The current read version (diagnostic).
    #[must_use]
    pub fn read_version(&self) -> u64 {
        self.rv
    }

    /// Number of distinct variables read so far.
    #[must_use]
    pub fn read_set_len(&self) -> usize {
        self.pinned.len()
    }

    /// Number of distinct variables written so far.
    #[must_use]
    pub fn write_set_len(&self) -> usize {
        self.ctx.writes.len()
    }

    /// Allocation diagnostics: current capacities and spare-list size.
    ///
    /// The no-allocation-on-retry guarantee is expressed through this:
    /// after an abort + restart that replays the same accesses, the
    /// capacities are unchanged and the spare write slots have been
    /// drained back into the live set.
    #[must_use]
    pub fn footprint(&self) -> TxFootprint {
        TxFootprint {
            reads_capacity: self.pinned.capacity(),
            writes_capacity: self.ctx.writes.capacity(),
            read_index_capacity: self.ctx.read_index.capacity(),
            write_index_capacity: self.ctx.write_index.capacity(),
            spare_write_slots: self.ctx.spare_writes.len(),
            read_index_spilled: self.ctx.read_index.spilled(),
        }
    }

    pub(crate) fn op_counts(&self) -> (u64, u64) {
        (self.n_reads, self.n_writes)
    }

    /// Runs `f` (the retry loop's back-off) with the epoch
    /// momentarily unpinned, so a sleeping transaction does not hold
    /// reclamation back for the whole wait. Only called between
    /// attempts, after `abort` emptied the read set — the only
    /// epoch-protected state a transaction holds.
    pub(crate) fn unpinned<R>(&mut self, f: impl FnOnce() -> R) -> R {
        debug_assert!(self.ctx.read_index.is_empty(), "unpinned mid-attempt");
        self.pinned.unpinned(f)
    }

    /// The step every first access to a variable starts with: consult
    /// the chaos hook, sample the lock word, and conflict if a
    /// concurrent writer owns it. Invisible reads cannot tell who owns
    /// a lock, so there is nobody to arbitrate with: the attempt aborts
    /// and the back-off spaces out the retry.
    #[inline]
    fn sample_unlocked(&mut self, lock: &VLock) -> TxResult<LockWord> {
        if chaos::kill_requested(ChaosPoint::LockSample) {
            return Err(self.fail_at(AbortReason::Chaos, lock.addr()));
        }
        let word = lock.sample();
        if word.is_locked() {
            return Err(self.fail_at(AbortReason::LockBusy, lock.addr()));
        }
        Ok(word)
    }

    /// Records a first read of `var`.
    #[inline]
    fn record_read<T: TxValue>(&mut self, var: &TVar<T>, addr: usize, version: u64) {
        self.ctx.read_index.insert(addr, version);
        self.pinned.record(var, version);
    }

    /// Transactionally reads `var`, returning a clone of the value this
    /// transaction observes (its own pending write, if any, else the
    /// committed snapshot consistent with the read version).
    ///
    /// # Errors
    /// [`StmError::Conflict`] if the variable is locked by a concurrent
    /// writer or the snapshot cannot be made consistent.
    pub fn read<T: TxValue>(&mut self, var: &TVar<T>) -> TxResult<T> {
        self.read_with(var, T::clone)
    }

    /// Transactionally reads `var` and applies `f` to the value *in
    /// place*, without cloning it — the zero-copy sibling of
    /// [`read`](Self::read) for large values where only a projection is
    /// needed (a map lookup, a field, an aggregate).
    ///
    /// `f` may run more than once (the consistency protocol retries
    /// racing observations), so it must be pure. It receives either the
    /// transaction's own pending write or the committed snapshot.
    ///
    /// # Errors
    /// [`StmError::Conflict`] under the same conditions as `read`.
    pub fn read_with<T: TxValue, R>(
        &mut self,
        var: &TVar<T>,
        mut f: impl FnMut(&T) -> R,
    ) -> TxResult<R> {
        self.n_reads += 1;
        let core = var.core();
        let addr = core.vlock().addr();

        // Read-your-writes.
        if let Some(slot_idx) = self.ctx.write_index.get(addr) {
            let slot = self.ctx.writes[slot_idx]
                .as_any()
                .downcast_ref::<TypedSlot<T>>()
                .expect("write-slot type confusion");
            return Ok(f(slot
                .pending
                .as_ref()
                .expect("pending value missing before commit")));
        }

        loop {
            let w1 = self.sample_unlocked(core.vlock())?;
            let result = core.with_value(self.pinned.guard(), &mut f);
            if core.vlock().sample() != w1 {
                // A commit raced between our two samples; re-read.
                continue;
            }
            if w1.version() > self.rv {
                // The snapshot is newer than our read version: extend.
                self.extend()?;
                // The extension moved rv past `w1.version()` (the clock
                // is >= any published stamp), but the variable may have
                // changed again while we validated; re-check.
                if core.vlock().sample() != w1 {
                    continue;
                }
            }
            // Record (first read only; repeated reads must agree).
            match self.ctx.read_index.get(addr) {
                Some(recorded) => {
                    if recorded != w1.version() {
                        return Err(self.fail_at(AbortReason::ReadValidation, addr));
                    }
                }
                None => self.record_read(var, addr, w1.version()),
            }
            return Ok(result);
        }
    }

    /// Pops a recyclable slot for the variable locked at `addr` off the
    /// spare list, looking from the top of the stack down: the slot an
    /// aborted attempt used for it (which still holds the handle), else
    /// any slot of `T`'s concrete type (reusing the heap allocation).
    fn take_spare_slot<T: TxValue>(&mut self, addr: usize) -> Option<Box<dyn WriteSlot>> {
        let spares = &mut self.ctx.spare_writes;
        let held = if self.ctx.spares_hold_handles {
            spares.iter().rposition(|s| s.holds(addr))
        } else {
            None
        };
        let pos = held.or_else(|| spares.iter().rposition(|s| s.as_any().is::<TypedSlot<T>>()))?;
        Some(spares.swap_remove(pos))
    }

    /// Transactionally writes `value` into `var`.
    ///
    /// The first write eagerly acquires the variable's lock (SwissTM
    /// W/W detection); later writes replace the private buffer.
    ///
    /// # Errors
    /// [`StmError::Conflict`] if another transaction holds the lock, or
    /// if this transaction previously read a version of `var` that has
    /// since been overwritten.
    pub fn write<T: TxValue>(&mut self, var: &TVar<T>, value: T) -> TxResult<()> {
        self.n_writes += 1;
        let core = var.core();
        let addr = core.vlock().addr();

        if let Some(slot_idx) = self.ctx.write_index.get(addr) {
            let slot = self.ctx.writes[slot_idx]
                .as_any_mut()
                .downcast_mut::<TypedSlot<T>>()
                .expect("write-slot type confusion");
            slot.pending = Some(value);
            return Ok(());
        }

        let w = self.sample_unlocked(core.vlock())?;
        // Write-after-read consistency: the version we read must still
        // be current, or our earlier read is stale.
        if let Some(recorded) = self.ctx.read_index.get(addr) {
            if w.version() != recorded {
                return Err(self.fail_at(AbortReason::ReadValidation, addr));
            }
        }
        if !core.vlock().try_lock(w) {
            return Err(self.fail_at(AbortReason::LockBusy, addr));
        }
        let locked_at = trc::LockStamp::now();
        let slot: Box<dyn WriteSlot> = match self.take_spare_slot::<T>(addr) {
            Some(mut boxed) => {
                let slot = boxed
                    .as_any_mut()
                    .downcast_mut::<TypedSlot<T>>()
                    .expect("spare slot type confusion");
                if !slot.holds(addr) {
                    slot.var = Some(var.clone());
                }
                slot.pending = Some(value);
                slot.prev = w;
                slot.locked_at = locked_at;
                boxed
            }
            None => Box::new(TypedSlot {
                var: Some(var.clone()),
                pending: Some(value),
                prev: w,
                locked_at,
            }),
        };
        self.ctx.write_index.insert(addr, self.ctx.writes.len());
        self.ctx.writes.push(slot);
        Ok(())
    }

    /// Reads `var`, applies `f`, and writes the result back — the
    /// classic read-modify-write helper.
    ///
    /// # Errors
    /// Propagates conflicts from the underlying read or write.
    pub fn modify<T: TxValue>(&mut self, var: &TVar<T>, f: impl FnOnce(T) -> T) -> TxResult<()> {
        let current = self.read(var)?;
        self.write(var, f(current))
    }

    /// Validates the read set: every recorded variable must be unlocked
    /// (or locked by this transaction) and still carry its recorded
    /// version. Returns the conflict classification *and the culprit
    /// variable's lock address* on failure so callers can attribute the
    /// abort (chaos kills carry address 0 — no variable is at fault).
    fn validate(&self) -> Result<(), (AbortReason, usize)> {
        if chaos::kill_requested(ChaosPoint::PreValidate) {
            return Err((AbortReason::Chaos, 0));
        }
        // Hoisted once: read-only validation must never probe the write
        // index — a locked entry cannot be ours if we wrote nothing.
        let may_own_locks = !self.ctx.write_index.is_empty();
        for (lock, version) in self.pinned.iter() {
            let w = lock.sample();
            if w.version() != version {
                return Err((AbortReason::ReadValidation, lock.addr()));
            }
            if w.is_locked() && !(may_own_locks && self.ctx.write_index.contains(lock.addr())) {
                return Err((AbortReason::LockBusy, lock.addr()));
            }
        }
        Ok(())
    }

    /// Timestamp extension: attempt to move `rv` up to the present.
    fn extend(&mut self) -> TxResult<()> {
        let new_rv = clock::now();
        match self.validate() {
            Ok(()) => {
                trc::clock_extend(self.rv, new_rv);
                self.rv = new_rv;
                Ok(())
            }
            Err((reason, addr)) => Err(self.fail_at(reason, addr)),
        }
    }

    /// Attempts to commit. On success all writes are visible atomically;
    /// on failure the caller must [`abort`](Self::abort).
    pub(crate) fn commit(&mut self) -> TxResult<()> {
        if self.ctx.writes.is_empty() {
            // Read-only: incremental validation (reads + extensions)
            // already guarantees a consistent snapshot at `rv`. The
            // commit still consults the chaos hook exactly like a
            // writing commit's validation pass does: this used to
            // return without advancing the seeded decision stream,
            // desynchronising replay for read-heavy and mixed runs.
            if chaos::kill_requested(ChaosPoint::PreValidate) {
                return Err(self.fail(AbortReason::Chaos));
            }
            return Ok(());
        }
        let wv = clock::tick();
        if wv != self.rv + 1 {
            // Someone committed since we started; make sure none of our
            // reads were invalidated (TL2 fast path skips this when the
            // clock tells us nobody did).
            if let Err((reason, addr)) = self.validate() {
                return Err(self.fail_at(reason, addr));
            }
        }
        for slot in &mut self.ctx.writes {
            chaos::hit(ChaosPoint::PrePublish);
            slot.publish(wv, self.pinned.guard());
        }
        // Slots are spent; recycle them (prevents a double publish if
        // the transaction object is reused, keeps the allocations).
        self.clear_access_sets(false);
        Ok(())
    }

    /// Releases every held lock and recycles buffered state for reuse.
    pub(crate) fn abort(&mut self) {
        for slot in &self.ctx.writes {
            slot.release_abort();
        }
        self.clear_access_sets(true);
    }
}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("rv", &self.rv)
            .field("reads", &self.pinned.len())
            .field("writes", &self.ctx.writes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_your_own_write() {
        let v = TVar::new(1);
        let mut tx = Transaction::begin();
        assert_eq!(tx.read(&v).unwrap(), 1);
        tx.write(&v, 5).unwrap();
        assert_eq!(tx.read(&v).unwrap(), 5);
        tx.write(&v, 9).unwrap();
        assert_eq!(tx.read(&v).unwrap(), 9);
        tx.commit().unwrap();
        assert_eq!(v.snapshot(), 9);

        // `read` is `read_with(.., T::clone)`: one call counts one read,
        // whether it is served from the write set or from memory.
        let mut tx = Transaction::begin();
        tx.read(&v).unwrap();
        assert_eq!(tx.op_counts(), (1, 0));
        tx.write(&v, 3).unwrap();
        assert_eq!(tx.read(&v).unwrap(), 3, "the pending value");
        assert_eq!(tx.op_counts(), (2, 1));
        tx.abort();
    }

    #[test]
    fn uncommitted_writes_are_invisible() {
        let v = TVar::new(1);
        let mut tx = Transaction::begin();
        tx.write(&v, 2).unwrap();
        // The lock is held, but the published value is unchanged.
        assert!(v.core().vlock().sample().is_locked());
        tx.abort();
        assert_eq!(v.snapshot(), 1);
        assert!(!v.core().vlock().sample().is_locked());
    }

    #[test]
    fn write_write_conflict_detected_eagerly() {
        let v = TVar::new(0);
        let mut t1 = Transaction::begin();
        let mut t2 = Transaction::begin();
        t1.write(&v, 1).unwrap();
        assert_eq!(t2.write(&v, 2), Err(StmError::Conflict));
        t1.abort();
        // After t1 aborts, t2 can retry from scratch.
        t2.restart();
        t2.write(&v, 2).unwrap();
        t2.commit().unwrap();
        assert_eq!(v.snapshot(), 2);
    }

    #[test]
    fn read_of_locked_var_conflicts() {
        let v = TVar::new(0);
        let mut writer = Transaction::begin();
        writer.write(&v, 1).unwrap();
        let mut reader = Transaction::begin();
        assert_eq!(reader.read(&v), Err(StmError::Conflict));
        writer.abort();
    }

    #[test]
    fn stale_read_set_fails_commit() {
        let x = TVar::new(0);
        let y = TVar::new(0);
        // T1 reads x, then T2 commits a change to x, then T1 tries to
        // commit a write to y: T1's read of x is stale.
        let mut t1 = Transaction::begin();
        assert_eq!(t1.read(&x).unwrap(), 0);

        let mut t2 = Transaction::begin();
        t2.write(&x, 99).unwrap();
        t2.commit().unwrap();

        t1.write(&y, 1).unwrap();
        assert_eq!(t1.commit(), Err(StmError::Conflict));
        t1.abort();
        assert_eq!(y.snapshot(), 0, "failed commit must not publish");
    }

    #[test]
    fn extension_allows_reading_fresh_values() {
        let x = TVar::new(0);
        let y = TVar::new(0);
        let mut t1 = Transaction::begin();
        // Another transaction bumps y's version past t1's rv.
        let mut t2 = Transaction::begin();
        t2.write(&y, 7).unwrap();
        t2.commit().unwrap();
        // t1 can still read y (extension succeeds: empty read set so
        // far), and then read x consistently.
        assert_eq!(t1.read(&y).unwrap(), 7);
        assert_eq!(t1.read(&x).unwrap(), 0);
        t1.commit().unwrap();
    }

    #[test]
    fn extension_fails_when_earlier_read_went_stale() {
        let x = TVar::new(0);
        let y = TVar::new(0);
        let mut t1 = Transaction::begin();
        assert_eq!(t1.read(&x).unwrap(), 0);
        // T2 commits to BOTH x and y: now t1's read of x is stale and
        // reading y (whose version is fresh) must fail the extension.
        let mut t2 = Transaction::begin();
        t2.write(&x, 1).unwrap();
        t2.write(&y, 1).unwrap();
        t2.commit().unwrap();
        assert_eq!(t1.read(&y), Err(StmError::Conflict));
        t1.abort();
    }

    #[test]
    fn write_after_stale_read_conflicts() {
        let x = TVar::new(0);
        let mut t1 = Transaction::begin();
        assert_eq!(t1.read(&x).unwrap(), 0);
        let mut t2 = Transaction::begin();
        t2.write(&x, 5).unwrap();
        t2.commit().unwrap();
        assert_eq!(t1.write(&x, 9), Err(StmError::Conflict));
        t1.abort();
    }

    #[test]
    fn blind_write_to_updated_var_is_allowed() {
        // No prior read: overwriting a variable someone else updated is
        // fine (last-writer-wins is serialisable for blind writes).
        let x = TVar::new(0);
        let mut t1 = Transaction::begin();
        let mut t2 = Transaction::begin();
        t2.write(&x, 5).unwrap();
        t2.commit().unwrap();
        t1.write(&x, 9).unwrap();
        t1.commit().unwrap();
        assert_eq!(x.snapshot(), 9);
    }

    #[test]
    fn read_only_commit_never_fails() {
        let x = TVar::new(1);
        let mut t1 = Transaction::begin();
        assert_eq!(t1.read(&x).unwrap(), 1);
        // Even if x changes afterwards, t1 committed a consistent
        // snapshot of the past.
        let mut t2 = Transaction::begin();
        t2.write(&x, 2).unwrap();
        t2.commit().unwrap();
        assert_eq!(t1.commit(), Ok(()));
    }

    #[test]
    fn modify_composes_read_and_write() {
        let x = TVar::new(10);
        let mut t = Transaction::begin();
        t.modify(&x, |v| v * 3).unwrap();
        t.commit().unwrap();
        assert_eq!(x.snapshot(), 30);
    }

    #[test]
    fn abort_releases_all_locks() {
        let vars: Vec<TVar<i32>> = (0..10).map(TVar::new).collect();
        let mut t = Transaction::begin();
        for v in &vars {
            t.write(v, 0).unwrap();
        }
        t.abort();
        for v in &vars {
            assert!(!v.core().vlock().sample().is_locked());
        }
    }

    #[test]
    fn commit_publishes_all_or_nothing() {
        let a = TVar::new(0);
        let b = TVar::new(0);
        let mut t = Transaction::begin();
        t.write(&a, 1).unwrap();
        t.write(&b, 1).unwrap();
        t.commit().unwrap();
        assert_eq!((a.snapshot(), b.snapshot()), (1, 1));
        assert_eq!(a.version(), b.version(), "one commit, one timestamp");
    }

    #[test]
    fn restart_resets_state() {
        let x = TVar::new(0);
        let mut t = Transaction::begin();
        t.read(&x).unwrap();
        t.abort();
        t.restart();
        assert_eq!(t.read_set_len(), 0);
        assert_eq!(t.write_set_len(), 0);
    }

    #[test]
    fn read_with_projects_without_clone() {
        let v = TVar::new(vec![10, 20, 30]);
        let mut t = Transaction::begin();
        let len = t.read_with(&v, Vec::len).unwrap();
        assert_eq!(len, 3);
        let second = t.read_with(&v, |xs| xs[1]).unwrap();
        assert_eq!(second, 20);
        assert_eq!(t.read_set_len(), 1, "same var recorded once");
        t.commit().unwrap();
    }

    #[test]
    fn read_with_sees_own_write() {
        let v = TVar::new(1);
        let mut t = Transaction::begin();
        t.write(&v, 42).unwrap();
        assert_eq!(t.read_with(&v, |x| *x).unwrap(), 42);
        t.abort();
    }

    #[test]
    fn read_with_conflicts_on_locked() {
        let v = TVar::new(0);
        let mut writer = Transaction::begin();
        writer.write(&v, 1).unwrap();
        let mut reader = Transaction::begin();
        assert_eq!(reader.read_with(&v, |x| *x), Err(StmError::Conflict));
        writer.abort();
    }

    #[test]
    fn read_with_participates_in_validation() {
        let x = TVar::new(0);
        let y = TVar::new(0);
        let mut t1 = Transaction::begin();
        assert_eq!(t1.read_with(&x, |v| *v).unwrap(), 0);
        let mut t2 = Transaction::begin();
        t2.write(&x, 9).unwrap();
        t2.commit().unwrap();
        // t1's projection-read of x is stale; an update commit must fail.
        t1.write(&y, 1).unwrap();
        assert_eq!(t1.commit(), Err(StmError::Conflict));
        t1.abort();
    }

    #[test]
    fn repeated_read_same_version_ok() {
        let x = TVar::new(4);
        let mut t = Transaction::begin();
        assert_eq!(t.read(&x).unwrap(), 4);
        assert_eq!(t.read(&x).unwrap(), 4);
        assert_eq!(t.read_set_len(), 1, "duplicate reads are not re-recorded");
        t.commit().unwrap();
    }

    // -----------------------------------------------------------------
    // Hot-path fast-path regressions: allocation reuse and the
    // small-set / spilled index representations.
    // -----------------------------------------------------------------

    /// Replays the same read+write footprint: the retry must consume the
    /// spare lists instead of allocating, and every vector must keep the
    /// capacity it grew on the first attempt.
    #[test]
    fn restart_preserves_capacity_and_reuses_slots() {
        let vars: Vec<TVar<u64>> = (0..8).map(TVar::new).collect();
        let reads: Vec<TVar<u64>> = (0..8).map(TVar::new).collect();
        let body = |t: &mut Transaction| {
            for r in &reads {
                t.read(r).unwrap();
            }
            for v in &vars {
                t.write(v, 1).unwrap();
            }
        };

        let mut t = Transaction::begin();
        body(&mut t);
        t.abort();
        let parked = t.footprint();
        assert_eq!(parked.spare_write_slots, 8, "abort must park, not drop");
        assert_eq!(t.read_set_len(), 0, "abort must empty the read set");
        assert!(
            parked.reads_capacity >= 8,
            "abort must keep the read vector"
        );

        t.restart();
        body(&mut t);
        let reused = t.footprint();
        assert_eq!(reused.spare_write_slots, 0, "retry must reuse every slot");
        assert_eq!(t.read_set_len(), 8);
        assert_eq!(reused.reads_capacity, parked.reads_capacity);
        assert_eq!(reused.writes_capacity, parked.writes_capacity);
        assert_eq!(reused.read_index_capacity, parked.read_index_capacity);
        assert_eq!(reused.write_index_capacity, parked.write_index_capacity);
        t.commit().unwrap();
        for v in &vars {
            assert_eq!(v.snapshot(), 1);
        }
    }

    /// Invisible reads, pinned: a read-only transaction over K distinct
    /// variables never touches a handle count — not at the first read,
    /// not at a repeated one, not at validation, extension, commit,
    /// abort or restart. A buffered write is what holds a handle.
    #[test]
    fn reads_leave_every_handle_count_unchanged() {
        const K: usize = 12; // spills the read index on the way
        let vars: Vec<TVar<u64>> = (0..K as u64).map(TVar::new).collect();
        let untouched = |step: &str| {
            for (i, v) in vars.iter().enumerate() {
                assert_eq!(v.handle_count(), 1, "var {i} after {step}");
            }
        };
        let mut t = Transaction::begin();
        for v in &vars {
            t.read(v).unwrap();
            untouched("read");
            t.read_with(v, |x| *x).unwrap();
            untouched("repeated read_with");
        }
        assert_eq!(t.read_set_len(), K);
        t.validate().unwrap();
        untouched("validate");
        // Bump one variable past `rv` so the next read extends.
        let fresh = TVar::new(0u64);
        let mut w = Transaction::begin();
        w.write(&fresh, 1).unwrap();
        assert_eq!(fresh.handle_count(), 2, "a write slot holds a handle");
        w.commit().unwrap();
        drop(w);
        assert_eq!(fresh.handle_count(), 1);
        let rv = t.read_version();
        t.read(&fresh).unwrap();
        assert!(t.read_version() > rv, "the read must have extended");
        assert_eq!(fresh.handle_count(), 1);
        untouched("extend");
        t.commit().unwrap();
        untouched("commit");
        // The abort + retry path is just as invisible.
        t.restart();
        for v in &vars {
            t.read(v).unwrap();
        }
        t.abort();
        untouched("abort");
        t.restart();
        untouched("restart");
        drop(t);
        untouched("drop");
    }

    /// Same-type slot allocations are reused even when the retry touches
    /// *different* variables of that type.
    #[test]
    fn retry_with_different_vars_reuses_typed_allocations() {
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        let mut t = Transaction::begin();
        t.write(&a, 1).unwrap();
        t.abort();
        assert_eq!(t.footprint().spare_write_slots, 1);
        t.restart();
        t.write(&b, 2).unwrap();
        assert_eq!(
            t.footprint().spare_write_slots,
            0,
            "typed allocation must be recycled for a new address"
        );
        t.commit().unwrap();
        assert_eq!(b.snapshot(), 2);
        assert_eq!(a.snapshot(), 0);
    }

    /// The engine behaves identically across the linear-scan and the
    /// spilled (hashed) index representations: read-your-writes,
    /// duplicate-read agreement, and commit/abort effects.
    #[test]
    fn spilled_index_equivalence() {
        let n = crate::index::SPILL_THRESHOLD * 3;
        let vars: Vec<TVar<u64>> = (0..n as u64).map(TVar::new).collect();

        // Committed run over a spilled footprint.
        let mut t = Transaction::begin();
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(t.read(v).unwrap(), i as u64);
            t.write(v, i as u64 + 100).unwrap();
        }
        assert!(t.footprint().read_index_spilled, "footprint must spill");
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(t.read(v).unwrap(), i as u64 + 100, "read-your-writes");
            assert_eq!(t.read_set_len(), n, "duplicate reads not re-recorded");
        }
        t.commit().unwrap();
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(v.snapshot(), i as u64 + 100);
        }

        // Aborted run: nothing published, no lock leaked.
        let mut t = Transaction::begin();
        for v in &vars {
            let cur = t.read(v).unwrap();
            t.write(v, cur + 1).unwrap();
        }
        t.abort();
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(v.snapshot(), i as u64 + 100, "abort must not publish");
            assert!(!v.core().vlock().sample().is_locked());
        }
    }

    /// A spilled read set still validates correctly: a stale entry is
    /// found through the hashed representation too.
    #[test]
    fn spilled_read_set_still_validates() {
        let n = crate::index::SPILL_THRESHOLD * 2;
        let vars: Vec<TVar<u64>> = (0..n as u64).map(TVar::new).collect();
        let sink = TVar::new(0u64);
        let mut t1 = Transaction::begin();
        for v in &vars {
            t1.read(v).unwrap();
        }
        // Concurrent commit invalidates one mid-set entry.
        let mut t2 = Transaction::begin();
        t2.write(&vars[n / 2], 999).unwrap();
        t2.commit().unwrap();
        t1.write(&sink, 1).unwrap();
        assert_eq!(t1.commit(), Err(StmError::Conflict));
        t1.abort();
        assert_eq!(sink.snapshot(), 0);
    }

    // -----------------------------------------------------------------
    // The per-thread context: what `park` leaves behind.
    // -----------------------------------------------------------------

    /// After a commit, an abort + retry and a panicking body, the
    /// parked context holds no variable handle and no user value, and
    /// it is back in the thread's slot.
    #[test]
    fn parked_context_keeps_no_handle_and_no_value() {
        use std::sync::Arc;
        let stm = crate::Stm::default();
        let vars: Vec<TVar<u64>> = (0..4).map(TVar::new).collect();
        let at_baseline = |step: &str| {
            for (i, v) in vars.iter().enumerate() {
                assert_eq!(v.handle_count(), 1, "var {i} after {step}");
            }
        };
        stm.atomically(|tx| vars.iter().try_for_each(|v| tx.modify(v, |x| x + 1)));
        at_baseline("commit");

        let mut first = true;
        stm.atomically(|tx| {
            vars.iter().try_for_each(|v| tx.write(v, 9))?;
            if std::mem::take(&mut first) {
                return Err(StmError::Conflict);
            }
            Ok(())
        });
        at_baseline("abort and retry");

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stm.atomically(|tx| -> TxResult<()> {
                vars.iter().try_for_each(|v| tx.write(v, 1))?;
                panic!("boom");
            })
        }));
        assert!(unwound.is_err());
        at_baseline("panicking body");
        assert!(vars.iter().all(|v| v.snapshot() == 9 && !v.is_locked()));
        // The unwind parked the context too: its four slots are spare.
        assert_eq!(Transaction::begin().footprint().spare_write_slots, 4);

        // A value written by the previous transaction dies with its
        // variable, not with the thread's context.
        let tracker = Arc::new(());
        let held = TVar::new(Arc::clone(&tracker));
        stm.atomically(|tx| tx.write(&held, Arc::clone(&tracker)));
        drop(held);
        // Reclamation waits for every pinned thread, other tests' too.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while Arc::strong_count(&tracker) != 1 && std::time::Instant::now() < deadline {
            crossbeam_epoch::pin().flush();
            std::thread::yield_now();
        }
        assert_eq!(Arc::strong_count(&tracker), 1, "parked context kept it");
    }

    /// A nested `atomically` finds the thread's slot empty, runs on a
    /// fresh context, and both transactions commit.
    #[test]
    fn nested_atomically_commits_both() {
        let stm = crate::Stm::default();
        let (outer, inner) = (TVar::new(0u64), TVar::new(0u64));
        let seen = stm.atomically(|tx| {
            tx.write(&outer, 1)?;
            stm.atomically(|nested| nested.write(&inner, 2));
            tx.read(&outer)
        });
        assert_eq!((seen, outer.snapshot(), inner.snapshot()), (1, 1, 2));
        assert_eq!(stm.stats().commits(), 2);
        assert!(!outer.is_locked() && !inner.is_locked());
    }

    /// Retained capacity is capped: a transaction with a huge footprint
    /// does not leave it to every later transaction of the thread.
    #[test]
    fn parked_capacity_is_capped() {
        let stm = crate::Stm::default();
        let vars: Vec<TVar<u64>> = (0..100_000).map(TVar::new).collect();
        let sum = stm.atomically(|tx| vars.iter().try_fold(0, |s, v| Ok(s + tx.read(v)?)));
        assert_eq!(sum, (0..100_000).sum::<u64>());
        stm.atomically(|tx| vars[..5_000].iter().try_for_each(|v| tx.write(v, 0)));
        let parked = Transaction::begin().footprint();
        assert!(parked.reads_capacity <= RETAIN_CAP, "{parked:?}");
        assert!(parked.read_index_capacity <= RETAIN_CAP, "{parked:?}");
        assert!(parked.writes_capacity <= RETAIN_CAP, "{parked:?}");
        assert!(parked.write_index_capacity <= RETAIN_CAP, "{parked:?}");
        assert!(parked.spare_write_slots <= SPARE_CAP, "{parked:?}");
    }
}
