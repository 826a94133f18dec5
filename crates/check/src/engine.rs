//! The controlled scheduler.
//!
//! Model code runs on real OS threads, but a *baton* — `ExecState::active`
//! — ensures exactly one controlled thread executes between scheduling
//! points. Every visible operation (atomic access, mutex op, condvar op,
//! spawn/join/finish) first offers a handoff: the engine consults the
//! exploration strategy, picks the next thread from the enabled set, and
//! records the choice, so any execution replays exactly from its decision
//! trace.
//!
//! On top of the schedule the engine maintains vector clocks
//! ([`crate::vclock::VClock`]): mutex release/acquire and
//! release/acquire atomics transfer clocks, `Relaxed` accesses do not.
//! [`RaceCell`](crate::sync::RaceCell) accesses are checked
//! FastTrack-style against those clocks; conflicting accesses with no
//! happens-before edge abort the execution with a race report. A
//! secondary detector flags an `Acquire` load that observes a plain
//! `Relaxed` store it has no other ordering edge to — the "too weak
//! ordering" case where the code *shape* expects synchronization the
//! store side does not provide.
//!
//! Blocked-thread monitoring falls out of the scheduler: if no thread is
//! runnable and no timed waiter remains to force-time-out, the execution
//! deadlocked and the engine reports every blocked thread with its last
//! source location. A step budget bounds livelocks the same way.
//!
//! Threads that are not running under a checker (no thread-local
//! context) bypass the engine entirely — the checked primitives in
//! [`crate::sync`] degrade to plain operations.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::strategy::Strat;
use crate::vclock::VClock;
use crate::{Config, FailureKind};

/// Source location of a primitive operation (for reports).
pub(crate) type Loc = &'static std::panic::Location<'static>;

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    /// Set while this thread unwinds out of an abandoned execution;
    /// primitives short-circuit to plain operations so drop glue cannot
    /// deadlock or double-panic.
    static ABANDONING: Cell<bool> = const { Cell::new(false) };
}

/// Per-OS-thread link to the engine driving it.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) engine: Arc<Engine>,
    pub(crate) tid: usize,
}

/// Runs `f` with this thread's checker context, or returns `None` when
/// the thread is not controlled (or is unwinding from an abandon).
pub(crate) fn with_ctx<R>(f: impl FnOnce(&Ctx) -> R) -> Option<R> {
    if ABANDONING.with(Cell::get) {
        return None;
    }
    CTX.with(|c| c.borrow().as_ref().map(f))
}

/// Panic payload used to unwind controlled threads when an execution is
/// abandoned (failure found elsewhere). Swallowed by the thread wrapper.
pub(crate) struct AbandonToken;

fn abandon() -> ! {
    ABANDONING.with(|a| a.set(true));
    std::panic::panic_any(AbandonToken);
}

fn is_acquire(o: std::sync::atomic::Ordering) -> bool {
    use std::sync::atomic::Ordering::{AcqRel, Acquire, SeqCst};
    matches!(o, Acquire | AcqRel | SeqCst)
}

fn is_release(o: std::sync::atomic::Ordering) -> bool {
    use std::sync::atomic::Ordering::{AcqRel, Release, SeqCst};
    matches!(o, Release | AcqRel | SeqCst)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    Runnable,
    BlockedMutex(usize),
    BlockedCv { cv: usize, timed: bool },
    BlockedJoin(usize),
    Finished,
}

struct TState {
    status: Status,
    clock: VClock,
    /// Result of the last condvar wait: true when force-timed-out.
    timed_out: bool,
    /// FIFO ticket for condvar wakeup order.
    wait_seq: u64,
    /// Set by `reschedule` when this thread is picked; cleared when the
    /// grant is consumed in `wait_turn`. Keeps the decision count per
    /// op independent of whether the thread's OS host had already
    /// parked when it was picked (late arrivals must not hand off an
    /// extra time).
    pending_grant: bool,
    name: String,
    last_loc: Option<Loc>,
}

#[derive(Default)]
struct MutexMeta {
    owner: Option<usize>,
    clock: VClock,
}

struct StoreInfo {
    tid: usize,
    clock: VClock,
    release: bool,
    rmw: bool,
    loc: Loc,
}

#[derive(Default)]
struct AtomicMeta {
    /// Clock an acquiring load joins: the release-sequence head's clock
    /// (extended by release RMWs, cleared by plain relaxed stores).
    sync: VClock,
    last_store: Option<StoreInfo>,
}

#[derive(Default)]
struct CellMeta {
    /// Last write epoch: (tid, component, location).
    write: Option<(usize, u64, Loc)>,
    /// Read epochs since the last write, one per reading thread.
    reads: Vec<(usize, u64, Loc)>,
}

pub(crate) struct ExecState {
    threads: Vec<TState>,
    active: usize,
    schedule: Vec<u32>,
    strat: Strat,
    steps: u64,
    failure: Option<(FailureKind, String)>,
    abandoning: bool,
    done: bool,
    next_wait_seq: u64,
    atomics: HashMap<usize, AtomicMeta>,
    cells: HashMap<usize, CellMeta>,
    mutexes: HashMap<usize, MutexMeta>,
}

/// Result of one execution.
pub(crate) struct Outcome {
    pub(crate) failure: Option<(FailureKind, String)>,
    pub(crate) schedule: Vec<u32>,
    pub(crate) steps: u64,
    pub(crate) strat: Strat,
}

pub(crate) struct Engine {
    st: Mutex<ExecState>,
    cv: Condvar,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    max_steps: u64,
    detect_weak: bool,
    force_timeouts: bool,
}

enum Finish {
    Normal,
    Abandoned,
    Panicked(Box<dyn std::any::Any + Send>),
}

impl Engine {
    /// Runs `model` once under the given strategy and returns the
    /// outcome. Blocks until every controlled thread has exited.
    pub(crate) fn run(
        model: Arc<dyn Fn() + Send + Sync>,
        mut strat: Strat,
        config: &Config,
    ) -> Outcome {
        strat.on_spawn(0);
        // The root's own component starts ticked so its events are
        // distinguishable from the pre-spawn state other threads
        // inherit (see `spawn_controlled`).
        let mut root_clock = VClock::new();
        root_clock.tick(0);
        let engine = Arc::new(Engine {
            st: Mutex::new(ExecState {
                threads: vec![TState {
                    status: Status::Runnable,
                    clock: root_clock,
                    timed_out: false,
                    wait_seq: 0,
                    // Active from birth: its first op must not hand off.
                    pending_grant: true,
                    name: "main".to_string(),
                    last_loc: None,
                }],
                active: 0,
                schedule: Vec::new(),
                strat,
                steps: 0,
                failure: None,
                abandoning: false,
                done: false,
                next_wait_seq: 0,
                atomics: HashMap::new(),
                cells: HashMap::new(),
                mutexes: HashMap::new(),
            }),
            cv: Condvar::new(),
            handles: Mutex::new(Vec::new()),
            max_steps: config.max_steps,
            detect_weak: config.detect_weak_pairs,
            force_timeouts: config.force_timeouts,
        });

        let root = spawn_wrapper(&engine, 0, Box::new(move || model()));
        engine
            .handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(root);

        // Wait for the execution to complete, then reap every OS thread
        // it spawned (abandoned threads unwind and exit on their own).
        {
            let mut st = engine.lock();
            while !st.done {
                st = engine.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
        loop {
            let h = engine
                .handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop();
            match h {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }

        let mut st = engine.lock();
        Outcome {
            failure: st.failure.take(),
            schedule: std::mem::take(&mut st.schedule),
            steps: st.steps,
            strat: std::mem::replace(
                &mut st.strat,
                Strat::Replay {
                    trace: Vec::new(),
                    pos: 0,
                },
            ),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ExecState> {
        self.st.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a failure (first one wins) and abandons the execution:
    /// every controlled thread wakes, observes `abandoning`, and unwinds.
    fn fail_now(&self, st: &mut ExecState, kind: FailureKind, message: String) {
        if st.failure.is_none() {
            st.failure = Some((kind, message));
        }
        st.abandoning = true;
        self.cv.notify_all();
    }

    /// Picks the next thread to run. On `Err` the execution was failed
    /// (deadlock / step budget) and the caller must unwind.
    fn reschedule(&self, st: &mut ExecState) -> Result<(), ()> {
        st.steps += 1;
        if st.steps > self.max_steps {
            let msg = format!(
                "after {} scheduling points: livelock, or raise Config::max_steps",
                self.max_steps
            );
            self.fail_now(st, FailureKind::StepBudget, msg);
            return Err(());
        }
        loop {
            let enabled: Vec<usize> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status == Status::Runnable)
                .map(|(i, _)| i)
                .collect();
            if !enabled.is_empty() {
                let step = st.steps;
                let i = st.strat.choose(&enabled, step);
                st.schedule.push(i as u32);
                st.active = enabled[i];
                st.threads[st.active].pending_grant = true;
                return Ok(());
            }
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                st.done = true;
                self.cv.notify_all();
                return Ok(());
            }
            // Nothing runnable. A timed waiter can be forced to time
            // out (FIFO order keeps this deterministic); with none left,
            // or with forced time-outs off, the execution is deadlocked.
            let timed = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t.status, Status::BlockedCv { timed: true, .. }))
                .min_by_key(|(_, t)| t.wait_seq)
                .map(|(i, _)| i);
            if let Some(tid) = timed.filter(|_| self.force_timeouts) {
                st.threads[tid].timed_out = true;
                st.threads[tid].status = Status::Runnable;
                continue;
            }
            let why = if timed.is_some() {
                ", and forced time-outs are off (a timed waiter missed its wake)"
            } else {
                ""
            };
            let mut lines = vec![format!("no runnable threads{why}")];
            for (i, t) in st.threads.iter().enumerate() {
                if t.status == Status::Finished {
                    continue;
                }
                let what = match &t.status {
                    Status::BlockedMutex(a) => format!("waiting for mutex {a:#x}"),
                    Status::BlockedCv { cv, .. } => format!("waiting on condvar {cv:#x}"),
                    Status::BlockedJoin(t) => format!("joining thread {t}"),
                    _ => "unknown".to_string(),
                };
                let loc = t
                    .last_loc
                    .map_or_else(|| "<unknown>".to_string(), |l| l.to_string());
                lines.push(format!("  thread {i} ({}) {what} at {loc}", t.name));
            }
            self.fail_now(st, FailureKind::Deadlock, lines.join("\n"));
            return Err(());
        }
    }

    /// Blocks until this thread holds the baton (or the execution is
    /// being abandoned).
    fn wait_turn<'a>(
        &'a self,
        mut st: MutexGuard<'a, ExecState>,
        tid: usize,
    ) -> MutexGuard<'a, ExecState> {
        while !st.abandoning && (st.active != tid || st.threads[tid].status != Status::Runnable) {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if !st.abandoning {
            // The grant is consumed: this thread's next scheduling
            // point hands the baton off again.
            st.threads[tid].pending_grant = false;
        }
        st
    }

    /// Scheduling point: if this thread holds the baton, offer a
    /// handoff; then block until (re)scheduled and return with the baton
    /// held and the state locked. Unwinds if the execution is abandoned.
    ///
    /// Only the baton holder may consume a scheduling decision — a
    /// non-active thread arriving here (a freshly spawned thread's
    /// first op, or a woken waiter) parks without touching the
    /// strategy, otherwise decisions would interleave in OS-arrival
    /// order and traces would not replay.
    fn enter(&self, tid: usize, loc: Loc) -> MutexGuard<'_, ExecState> {
        self.enter_yielding(tid, loc, false)
    }

    /// [`enter`](Engine::enter); `yielding` marks a yield or sleep,
    /// which the strategy sees before it picks the next thread.
    fn enter_yielding(&self, tid: usize, loc: Loc, yielding: bool) -> MutexGuard<'_, ExecState> {
        let mut st = self.lock();
        st.threads[tid].last_loc = Some(loc);
        if st.abandoning {
            drop(st);
            abandon();
        }
        if st.active == tid && !st.threads[tid].pending_grant {
            if yielding {
                st.strat.on_yield(tid);
            }
            if self.reschedule(&mut st).is_err() {
                drop(st);
                abandon();
            }
            self.cv.notify_all();
        }
        let st = self.wait_turn(st, tid);
        if st.abandoning {
            drop(st);
            abandon();
        }
        st
    }

    /// A pure scheduling point, paired with a value operation the
    /// caller performs while holding the baton.
    pub(crate) fn op_yield(&self, tid: usize, loc: Loc) {
        drop(self.enter(tid, loc));
    }

    /// `thread::yield_now` / `thread::sleep`: a scheduling point at
    /// which the caller gives way (PCT demotes it).
    pub(crate) fn op_thread_yield(&self, tid: usize, loc: Loc) {
        drop(self.enter_yielding(tid, loc, true));
    }

    // ------------------------------------------------------------------
    // Atomics. The caller performs the actual value operation on a real
    // atomic immediately after `op_yield` (it holds the baton, so no
    // other controlled thread can interleave); these methods record the
    // happens-before effects of the *claimed* ordering.
    // ------------------------------------------------------------------

    pub(crate) fn note_load(
        &self,
        tid: usize,
        addr: usize,
        ord: std::sync::atomic::Ordering,
        loc: Loc,
    ) {
        let mut st = self.lock();
        let weak = {
            let stx = &mut *st;
            let meta = stx.atomics.entry(addr).or_default();
            let thr = &mut stx.threads[tid];
            if is_acquire(ord) {
                thr.clock.join(&meta.sync);
            }
            match &meta.last_store {
                Some(s)
                    if self.detect_weak
                        && is_acquire(ord)
                        && s.tid != tid
                        && !s.release
                        && !s.rmw
                        && !s.clock.le(&thr.clock) =>
                {
                    Some(format!(
                        "{} load at {loc} observes a Relaxed store by thread {} at {} \
                         with no happens-before edge — the store needs Release (or the pairing is bogus)",
                        ord_name(ord),
                        s.tid,
                        s.loc
                    ))
                }
                _ => None,
            }
        };
        if let Some(msg) = weak {
            self.fail_now(&mut st, FailureKind::WeakOrdering, msg);
            drop(st);
            abandon();
        }
    }

    pub(crate) fn note_store(
        &self,
        tid: usize,
        addr: usize,
        ord: std::sync::atomic::Ordering,
        loc: Loc,
    ) {
        let mut st = self.lock();
        let stx = &mut *st;
        let meta = stx.atomics.entry(addr).or_default();
        let thr = &mut stx.threads[tid];
        let releasing = is_release(ord);
        if releasing {
            meta.sync = thr.clock.clone();
        } else {
            // A plain relaxed store heads a new (empty) release
            // sequence: later acquire loads that read it synchronize
            // with nothing.
            meta.sync.clear();
        }
        meta.last_store = Some(StoreInfo {
            tid,
            clock: thr.clock.clone(),
            release: releasing,
            rmw: false,
            loc,
        });
        if releasing {
            thr.clock.tick(tid);
        }
    }

    pub(crate) fn note_rmw(
        &self,
        tid: usize,
        addr: usize,
        ord: std::sync::atomic::Ordering,
        loc: Loc,
    ) {
        let mut st = self.lock();
        let stx = &mut *st;
        let meta = stx.atomics.entry(addr).or_default();
        let thr = &mut stx.threads[tid];
        if is_acquire(ord) {
            thr.clock.join(&meta.sync);
        }
        let releasing = is_release(ord);
        if releasing {
            // RMWs extend the release sequence they land in.
            meta.sync.join(&thr.clock);
        }
        // A relaxed RMW continues the sequence untouched (C++11
        // [atomics.order]): acquire loads of it still synchronize with
        // the sequence head.
        meta.last_store = Some(StoreInfo {
            tid,
            clock: thr.clock.clone(),
            release: releasing,
            rmw: true,
            loc,
        });
        if releasing {
            thr.clock.tick(tid);
        }
    }

    pub(crate) fn note_cas(
        &self,
        tid: usize,
        addr: usize,
        success: std::sync::atomic::Ordering,
        failure: std::sync::atomic::Ordering,
        ok: bool,
        loc: Loc,
    ) {
        if ok {
            self.note_rmw(tid, addr, success, loc);
        } else {
            self.note_load(tid, addr, failure, loc);
        }
    }

    // ------------------------------------------------------------------
    // RaceCell: FastTrack-style plain-data race detection.
    // ------------------------------------------------------------------

    pub(crate) fn cell_read(&self, tid: usize, addr: usize, loc: Loc) {
        let mut st = self.lock();
        let race = {
            let stx = &mut *st;
            let meta = stx.cells.entry(addr).or_default();
            let thr = &stx.threads[tid];
            let race = match meta.write {
                Some((wt, wc, wloc)) if wt != tid && thr.clock.get(wt) < wc => Some(format!(
                    "read at {loc} (thread {tid}) of a value written at {wloc} \
                     (thread {wt}) with no happens-before edge"
                )),
                _ => None,
            };
            if race.is_none() {
                let epoch = thr.clock.get(tid);
                match meta.reads.iter_mut().find(|(t, ..)| *t == tid) {
                    Some(e) => *e = (tid, epoch, loc),
                    None => meta.reads.push((tid, epoch, loc)),
                }
            }
            race
        };
        if let Some(msg) = race {
            self.fail_now(&mut st, FailureKind::Race, msg);
            drop(st);
            abandon();
        }
    }

    pub(crate) fn cell_write(&self, tid: usize, addr: usize, loc: Loc) {
        let mut st = self.lock();
        let race = {
            let stx = &mut *st;
            let meta = stx.cells.entry(addr).or_default();
            let thr = &stx.threads[tid];
            let mut race = match meta.write {
                Some((wt, wc, wloc)) if wt != tid && thr.clock.get(wt) < wc => Some(format!(
                    "write at {loc} (thread {tid}) over a write at {wloc} \
                     (thread {wt}) with no happens-before edge"
                )),
                _ => None,
            };
            if race.is_none() {
                for &(rt, rc, rloc) in &meta.reads {
                    if rt != tid && thr.clock.get(rt) < rc {
                        race = Some(format!(
                            "write at {loc} (thread {tid}) while a read at {rloc} \
                             (thread {rt}) has no happens-before edge to it"
                        ));
                        break;
                    }
                }
            }
            if race.is_none() {
                meta.write = Some((tid, thr.clock.get(tid), loc));
                meta.reads.clear();
            }
            race
        };
        if let Some(msg) = race {
            self.fail_now(&mut st, FailureKind::Race, msg);
            drop(st);
            abandon();
        }
    }

    // ------------------------------------------------------------------
    // Mutex / Condvar.
    // ------------------------------------------------------------------

    pub(crate) fn mutex_lock(&self, tid: usize, addr: usize, loc: Loc) {
        let mut st = self.enter(tid, loc);
        loop {
            let stx = &mut *st;
            let m = stx.mutexes.entry(addr).or_default();
            if m.owner.is_none() {
                m.owner = Some(tid);
                stx.threads[tid].clock.join(&m.clock);
                return;
            }
            stx.threads[tid].status = Status::BlockedMutex(addr);
            if self.reschedule(stx).is_err() {
                drop(st);
                abandon();
            }
            self.cv.notify_all();
            st = self.wait_turn(st, tid);
            if st.abandoning {
                drop(st);
                abandon();
            }
        }
    }

    pub(crate) fn mutex_try_lock(&self, tid: usize, addr: usize, loc: Loc) -> bool {
        let mut st = self.enter(tid, loc);
        let stx = &mut *st;
        let m = stx.mutexes.entry(addr).or_default();
        if m.owner.is_none() {
            m.owner = Some(tid);
            stx.threads[tid].clock.join(&m.clock);
            true
        } else {
            false
        }
    }

    /// Releases `addr` and wakes its blocked acquirers (they re-contend;
    /// the winner is a later scheduling decision).
    fn unlock_inner(&self, st: &mut ExecState, tid: usize, addr: usize) {
        let m = st.mutexes.entry(addr).or_default();
        debug_assert_eq!(m.owner, Some(tid), "unlock of a mutex not held");
        m.owner = None;
        m.clock = st.threads[tid].clock.clone();
        st.threads[tid].clock.tick(tid);
        for t in &mut st.threads {
            if t.status == Status::BlockedMutex(addr) {
                t.status = Status::Runnable;
            }
        }
    }

    pub(crate) fn mutex_unlock(&self, tid: usize, addr: usize, loc: Loc) {
        let mut st = self.enter(tid, loc);
        self.unlock_inner(&mut st, tid, addr);
    }

    /// Releases the mutex, parks on the condvar, and reacquires the
    /// mutex after wakeup. Returns `true` when the wakeup was a forced
    /// timeout rather than a notify.
    pub(crate) fn condvar_wait(
        &self,
        tid: usize,
        cv_addr: usize,
        mutex_addr: usize,
        timed: bool,
        loc: Loc,
    ) -> bool {
        let mut st = self.enter(tid, loc);
        self.unlock_inner(&mut st, tid, mutex_addr);
        {
            let stx = &mut *st;
            stx.threads[tid].timed_out = false;
            stx.threads[tid].wait_seq = stx.next_wait_seq;
            stx.next_wait_seq += 1;
            stx.threads[tid].status = Status::BlockedCv { cv: cv_addr, timed };
            if self.reschedule(stx).is_err() {
                drop(st);
                abandon();
            }
        }
        self.cv.notify_all();
        st = self.wait_turn(st, tid);
        if st.abandoning {
            drop(st);
            abandon();
        }
        // Reacquire the mutex (possibly blocking again).
        loop {
            let stx = &mut *st;
            let m = stx.mutexes.entry(mutex_addr).or_default();
            if m.owner.is_none() {
                m.owner = Some(tid);
                stx.threads[tid].clock.join(&m.clock);
                return stx.threads[tid].timed_out;
            }
            stx.threads[tid].status = Status::BlockedMutex(mutex_addr);
            if self.reschedule(stx).is_err() {
                drop(st);
                abandon();
            }
            self.cv.notify_all();
            st = self.wait_turn(st, tid);
            if st.abandoning {
                drop(st);
                abandon();
            }
        }
    }

    pub(crate) fn condvar_notify(&self, tid: usize, cv_addr: usize, all: bool, loc: Loc) {
        let mut st = self.enter(tid, loc);
        loop {
            let next = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t.status, Status::BlockedCv { cv, .. } if cv == cv_addr))
                .min_by_key(|(_, t)| t.wait_seq)
                .map(|(i, _)| i);
            match next {
                Some(w) => {
                    st.threads[w].timed_out = false;
                    st.threads[w].status = Status::Runnable;
                    if !all {
                        return;
                    }
                }
                None => return,
            }
        }
    }

    // ------------------------------------------------------------------
    // Threads.
    // ------------------------------------------------------------------

    /// Spawns a controlled child thread running `f`. Visible operation
    /// on the parent; establishes parent -> child happens-before.
    pub(crate) fn spawn_controlled(
        self: &Arc<Self>,
        parent: usize,
        name: Option<String>,
        f: Box<dyn FnOnce() + Send>,
        loc: Loc,
    ) -> usize {
        let child = {
            let mut st = self.enter(parent, loc);
            let child = st.threads.len();
            let mut clock = st.threads[parent].clock.clone();
            st.threads[parent].clock.tick(parent);
            // The child's own component starts ticked so its events
            // exceed what the parent's clock records — otherwise its
            // writes would be indistinguishable from pre-spawn state
            // and unordered accesses would pass the clock checks.
            clock.tick(child);
            st.strat.on_spawn(child);
            st.threads.push(TState {
                status: Status::Runnable,
                clock,
                timed_out: false,
                wait_seq: 0,
                pending_grant: false,
                name: name.unwrap_or_else(|| format!("thread-{child}")),
                last_loc: Some(loc),
            });
            child
        };
        let h = spawn_wrapper(self, child, f);
        self.handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(h);
        child
    }

    /// Blocks until `target` finishes; joins its final clock.
    pub(crate) fn join_thread(&self, tid: usize, target: usize, loc: Loc) {
        let mut st = self.enter(tid, loc);
        loop {
            if st.threads[target].status == Status::Finished {
                let c = st.threads[target].clock.clone();
                st.threads[tid].clock.join(&c);
                return;
            }
            st.threads[tid].status = Status::BlockedJoin(target);
            if self.reschedule(&mut st).is_err() {
                drop(st);
                abandon();
            }
            self.cv.notify_all();
            st = self.wait_turn(st, tid);
            if st.abandoning {
                drop(st);
                abandon();
            }
        }
    }

    /// Terminal event of every controlled thread (normal return, model
    /// panic, or abandon unwind).
    fn op_finish(&self, tid: usize, how: Finish) {
        let mut st = self.lock();
        if let Finish::Panicked(payload) = how {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            let loc = st.threads[tid]
                .last_loc
                .map_or_else(String::new, |l| format!(" (last op at {l})"));
            self.fail_now(
                &mut st,
                FailureKind::Panic,
                format!("thread {tid} panicked: {msg}{loc}"),
            );
        }
        if !st.abandoning {
            // A normal finish is a visible event: wait for the baton so
            // its position in the schedule is a recorded decision.
            st = self.wait_turn(st, tid);
            if !st.abandoning {
                st.threads[tid].status = Status::Finished;
                for t in &mut st.threads {
                    if t.status == Status::BlockedJoin(tid) {
                        t.status = Status::Runnable;
                    }
                }
                let _ = self.reschedule(&mut st);
                self.cv.notify_all();
                return;
            }
        }
        // Abandon path: just retire the thread and flag completion once
        // everyone is out.
        st.threads[tid].status = Status::Finished;
        if st.threads.iter().all(|t| t.status == Status::Finished) {
            st.done = true;
        }
        self.cv.notify_all();
    }
}

fn ord_name(o: std::sync::atomic::Ordering) -> &'static str {
    use std::sync::atomic::Ordering as O;
    match o {
        O::Relaxed => "Relaxed",
        O::Acquire => "Acquire",
        O::Release => "Release",
        O::AcqRel => "AcqRel",
        O::SeqCst => "SeqCst",
        _ => "?",
    }
}

/// Launches the OS thread hosting controlled thread `tid`.
fn spawn_wrapper(
    engine: &Arc<Engine>,
    tid: usize,
    f: Box<dyn FnOnce() + Send>,
) -> std::thread::JoinHandle<()> {
    let engine = Arc::clone(engine);
    std::thread::Builder::new()
        .name(format!("rubic-check-{tid}"))
        .spawn(move || {
            CTX.with(|c| {
                *c.borrow_mut() = Some(Ctx {
                    engine: Arc::clone(&engine),
                    tid,
                });
            });
            // The first visible op inside `f` waits for the baton; a
            // thread with no visible ops still serializes via op_finish.
            let how = match catch_unwind(AssertUnwindSafe(f)) {
                Ok(()) => Finish::Normal,
                Err(p) if p.is::<AbandonToken>() => Finish::Abandoned,
                Err(p) => Finish::Panicked(p),
            };
            engine.op_finish(tid, how);
        })
        .expect("spawn controlled thread")
}
