//! The correctness harness: invariant oracles hammered under the STM's
//! deterministic fault-injection ("chaos") hook, plus regression tests
//! for the pool's reporting and robustness fixes.
//!
//! # Seed reproduction workflow
//!
//! Every chaos test pins its `u64` seed in the source. If a test fails,
//! rerun the binary with the same seed and the hook replays the same
//! decision sequence (per thread stream), reproducing the interleaving
//! pressure that exposed the bug:
//!
//! ```text
//! cargo test --test harness_chaos chaos_ -- --nocapture
//! ```
//!
//! All tests in this file serialise on one mutex: the STM clock is
//! process-global, and chaos decision logs are only reproducible when no
//! unrelated transaction commits concurrently.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rubic::prelude::*;
use rubic_stm::chaos::{install, ChaosAction, ChaosHook, ChaosPoint, Decision, SeededChaos};
use rubic_stm::AbortReason;
use rubic_suite::oracles::{ConservedSumBank, LockLeakDetector, MonotoneCounter, SnapshotChecker};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs a fixed single-threaded transactional workload under a seeded
/// chaos hook and returns the full decision log.
fn chaos_decisions(seed: u64) -> Vec<Decision> {
    bank_decisions(SeededChaos::new(seed))
}

fn bank_decisions(hook: SeededChaos) -> Vec<Decision> {
    let stm = Stm::default();
    let bank = ConservedSumBank::new(4, 25);
    let hook = Arc::new(hook);
    {
        let _chaos = install(hook.clone());
        for i in 0..32usize {
            bank.transfer(&stm, i, i + 3, (i % 5) as i64);
        }
        bank.check(&stm).unwrap();
    }
    hook.decision_log()
}

#[test]
fn chaos_same_seed_replays_same_decisions() {
    let _serial = serial();
    let a = chaos_decisions(0x1BAD_B002);
    let b = chaos_decisions(0x1BAD_B002);
    assert!(!a.is_empty(), "the workload never consulted the hook");
    assert_eq!(a, b, "same seed must replay the same decision sequence");
    // The workload reads, writes, and commits, so both the lock-sample
    // and pre-publish protocol points must have fired.
    assert!(a.iter().any(|d| d.point == ChaosPoint::LockSample));
    assert!(a.iter().any(|d| d.point == ChaosPoint::PrePublish));
}

#[test]
fn chaos_different_seeds_diverge() {
    let _serial = serial();
    let actions = |seed| {
        chaos_decisions(seed)
            .iter()
            .map(|d| d.action)
            .collect::<Vec<_>>()
    };
    assert_ne!(
        actions(1),
        actions(2),
        "hundreds of draws from different seeds should not collide"
    );
}

/// Runs a fixed single-threaded *read-only* workload under a seeded
/// chaos hook and returns the full decision log.
fn readonly_chaos_decisions(seed: u64) -> Vec<Decision> {
    let stm = Stm::default();
    let vars: Vec<TVar<i64>> = (0..4).map(TVar::new).collect();
    let hook = Arc::new(SeededChaos::new(seed));
    {
        let _chaos = install(hook.clone());
        for _ in 0..16 {
            let sum = stm.atomically(|tx| {
                let mut s = 0;
                for v in &vars {
                    s += tx.read(v)?;
                }
                Ok(s)
            });
            assert_eq!(sum, 6);
        }
        assert_eq!(stm.stats().commits(), 16);
    }
    hook.decision_log()
}

#[test]
fn chaos_read_only_commits_advance_the_decision_stream() {
    let _serial = serial();
    // Regression: the read-only commit fast path (`writes.is_empty()`)
    // used to return before consulting the chaos hook, so read-heavy
    // workloads replayed a *different* decision sequence than the one
    // their seed pinned. Every commit — read-only included — must now
    // draw exactly one pre-validate decision.
    let log = readonly_chaos_decisions(0x0C0F_FEE5);
    let prevalidates = log
        .iter()
        .filter(|d| d.point == ChaosPoint::PreValidate)
        .count();
    assert_eq!(
        prevalidates, 16,
        "each read-only commit must consult the hook exactly once"
    );
    assert_eq!(
        log,
        readonly_chaos_decisions(0x0C0F_FEE5),
        "same seed must replay the same read-only decision sequence"
    );
}

/// `(len, FNV-1a over every decision's (point, stream, action))`.
fn digest(log: &[Decision]) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for d in log {
        let (tag, arg) = match d.action {
            ChaosAction::Pass => (0u8, 0u32),
            ChaosAction::Yield => (1, 0),
            ChaosAction::Spin(n) => (2, n),
            ChaosAction::Kill => (3, 0),
        };
        eat(&[d.point.code(), tag]);
        eat(&d.stream.to_le_bytes());
        eat(&arg.to_le_bytes());
    }
    (log.len(), h)
}

#[test]
fn chaos_decision_streams_match_golden_digests() {
    let _serial = serial();
    // The replay tests above compare a run with itself, so an engine
    // change that reorders or drops a hook call passes them. These
    // literals pin which protocol points the engine consults, and in
    // what order, for fixed single-threaded workloads.
    assert_eq!(
        digest(&chaos_decisions(0x1BAD_B002)),
        (197, 10_248_086_235_928_869_153)
    );
    assert_eq!(
        digest(&readonly_chaos_decisions(0x0C0F_FEE5)),
        (80, 12_684_557_771_174_709_923)
    );
    // With kills on, every `abort_at` query draws from the stream too,
    // so this one also pins where the engine asks that question.
    let killing = SeededChaos::with_abort_one_in(0x1BAD_B002, 5);
    assert_eq!(
        digest(&bank_decisions(killing)),
        (358, 4_136_977_776_607_017_358)
    );
}

/// Kills exactly one attempt, and only at the commit-time validation
/// point — reads pass untouched.
struct KillOnceAtPreValidate(AtomicBool);
impl ChaosHook for KillOnceAtPreValidate {
    fn at(&self, _point: ChaosPoint) {}
    fn abort_at(&self, point: ChaosPoint) -> bool {
        point == ChaosPoint::PreValidate && self.0.swap(false, Ordering::Relaxed)
    }
}

#[test]
fn chaos_kill_aborts_read_only_commit_with_chaos_reason() {
    let _serial = serial();
    // Regression companion to the decision-stream test: the fast path
    // must also honour the *kill* query, attributing the abort to
    // `AbortReason::Chaos` like any other killed attempt.
    let stm = Stm::default();
    let v = TVar::new(11);
    let _chaos = install(Arc::new(KillOnceAtPreValidate(AtomicBool::new(true))));
    let got = stm.atomically(|tx| tx.read(&v));
    assert_eq!(got, 11, "the retried attempt must still commit");
    assert_eq!(stm.stats().commits(), 1);
    assert_eq!(
        stm.stats().aborts(),
        1,
        "the killed read-only attempt must be recorded"
    );
    assert_eq!(stm.stats().aborts_for(AbortReason::Chaos), 1);
}

#[test]
fn chaos_bank_conserves_sum_under_contention() {
    let _serial = serial();
    let stm = Stm::default();
    let bank = Arc::new(ConservedSumBank::new(8, 100));
    let _chaos = install(Arc::new(SeededChaos::new(0x5EED_0001)));

    let handles: Vec<_> = (0..4)
        .map(|t: usize| {
            let stm = stm.clone();
            let bank = Arc::clone(&bank);
            std::thread::spawn(move || {
                for i in 0..300usize {
                    bank.transfer(&stm, t * 31 + i, i * 7 + 1, ((i % 9) as i64) - 4);
                    if i % 50 == 0 {
                        // Mid-run snapshots must already conserve the sum.
                        bank.check(&stm).unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    bank.check(&stm).unwrap();
    let mut leaks = LockLeakDetector::new();
    leaks.watch_all("account", bank.accounts());
    leaks.check().unwrap();
    // Transfers whose two indices collide are skipped, so the exact
    // commit count varies; the bulk of the 4×300 must have committed.
    assert!(stm.stats().commits() >= 600);
}

#[test]
fn chaos_counter_loses_no_updates() {
    let _serial = serial();
    let stm = Stm::default();
    let counter = Arc::new(MonotoneCounter::new());
    let _chaos = install(Arc::new(SeededChaos::new(0x5EED_0002)));

    let threads = 4u64;
    let per_thread = 250u64;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let stm = stm.clone();
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                for _ in 0..per_thread {
                    counter.increment(&stm);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    counter.check(threads * per_thread).unwrap();
    let mut leaks = LockLeakDetector::new();
    leaks.watch("counter", counter.cell());
    leaks.check().unwrap();
}

#[test]
fn chaos_readonly_snapshots_are_never_torn() {
    let _serial = serial();
    let stm = Stm::default();
    let checker = Arc::new(SnapshotChecker::new(6));
    let _chaos = install(Arc::new(SeededChaos::new(0x5EED_0003)));

    let generations = 200u64;
    let writer = {
        let stm = stm.clone();
        let checker = Arc::clone(&checker);
        std::thread::spawn(move || {
            for _ in 0..generations {
                checker.bump(&stm);
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stm = stm.clone();
            let checker = Arc::clone(&checker);
            std::thread::spawn(move || {
                let mut last = 0u64;
                for _ in 0..200 {
                    let gen = checker.check(&stm).unwrap();
                    assert!(gen >= last, "generation went backwards: {gen} < {last}");
                    last = gen;
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }

    assert_eq!(checker.check(&stm).unwrap(), generations);
    let mut leaks = LockLeakDetector::new();
    leaks.watch_all("cell", checker.cells());
    leaks.check().unwrap();
}

/// Declared read-only transactions stay monotone when the hook kills
/// one in four attempts — the reader's own included: a killed
/// `read_only` attempt retries, so every call still commits exactly
/// once and never reports an older value than the call before it.
#[test]
fn chaos_killed_read_only_retries_and_stays_monotone() {
    let _serial = serial();
    for seed in [0x5EED_0004u64, 0x5EED_0005, 0x5EED_0006, 0x5EED_0007] {
        let stm = Stm::default();
        let hot = Arc::new(TVar::new(0u64));
        let _chaos = install(Arc::new(SeededChaos::with_abort_one_in(seed, 4)));
        let (writes, reads) = (200u64, 400u64);

        let writer = {
            let stm = stm.clone();
            let hot = Arc::clone(&hot);
            std::thread::spawn(move || {
                for _ in 0..writes {
                    stm.atomically(|tx| tx.modify(&hot, |x| x + 1));
                }
            })
        };
        let mut last = 0u64;
        for _ in 0..reads {
            let seen = stm.read_only(|tx| tx.read(&hot));
            assert!(seen >= last, "seed {seed:#x}: read went backwards");
            last = seen;
        }
        writer.join().unwrap();

        assert_eq!(stm.read_only(|tx| tx.read(&hot)), writes);
        assert_eq!(stm.stats().ro_commits(), reads + 1, "seed {seed:#x}");
        assert!(
            stm.stats().aborts_for(AbortReason::Chaos) > 0,
            "seed {seed:#x}: the kills never landed"
        );
    }
}

#[test]
fn unmanaged_writer_lock_conflicts_readers_until_abort() {
    let _serial = serial();
    let v = TVar::new(1);

    let mut writer = rubic_stm::Transaction::begin_unmanaged();
    writer.write(&v, 2).unwrap();
    assert!(v.is_locked());

    // An invisible read of a locked variable must conflict, never block
    // or observe the uncommitted value.
    let mut reader = rubic_stm::Transaction::begin_unmanaged();
    assert_eq!(reader.read(&v), Err(StmError::Conflict));
    reader.abort_unmanaged();

    writer.abort_unmanaged();
    assert!(!v.is_locked());
    assert_eq!(v.snapshot(), 1, "aborted write must not publish");
}

// ---------------------------------------------------------------------
// Pool robustness and reporting regressions.
// ---------------------------------------------------------------------

/// Minimal busy workload for pool tests.
struct Spin;
impl Workload for Spin {
    type WorkerState = ();
    fn init_worker(&self, _tid: usize) {}
    fn run_task(&self, _state: &mut ()) {
        std::hint::black_box((0..100u64).fold(0, |a, b| a ^ b));
    }
}

/// Workload whose every 10th task panics.
struct Faulty {
    calls: AtomicU64,
}
impl Workload for Faulty {
    type WorkerState = ();
    fn init_worker(&self, _tid: usize) {}
    fn run_task(&self, _state: &mut ()) {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        assert!(n % 10 != 3, "injected task failure");
    }
}

#[test]
fn worker_panics_are_counted_and_survived() {
    let _serial = serial();
    // Silence the default "thread panicked" chatter from the injected
    // failures; worker threads are outside libtest's output capture.
    let saved = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let workload = Arc::new(Faulty {
        calls: AtomicU64::new(0),
    });
    let pool = MalleablePool::start(
        PoolConfig::new(2)
            .initial_level(2)
            .monitor_period(Duration::from_millis(2))
            .name("faulty"),
        Arc::clone(&workload),
        Box::new(Fixed::new(2, 2)),
    );
    std::thread::sleep(Duration::from_millis(40));
    let report = pool.stop(); // must join cleanly despite the panics
    std::panic::set_hook(saved);

    assert!(report.worker_panics > 0, "no injected panic was recorded");
    assert!(report.total_tasks > 0, "panics must not stop the pool");
    // Every attempt either completed (counted) or panicked (counted
    // separately) — nothing is double- or under-reported.
    assert_eq!(
        report.total_tasks + report.worker_panics,
        workload.calls.load(Ordering::Relaxed),
        "attempt accounting mismatch"
    );
    assert_eq!(report.total_tasks, report.per_worker.iter().sum::<u64>());
}

#[test]
fn stop_elapsed_excludes_join_drain() {
    let _serial = serial();
    // Regression: `stop` used to measure `elapsed` *after* joining. With
    // a long monitor period the join drain dwarfs the actual run and
    // every derived throughput number collapses.
    let pool = MalleablePool::start(
        PoolConfig::new(2)
            .initial_level(1)
            .monitor_period(Duration::from_millis(300))
            .name("elapsed"),
        Spin,
        Box::new(Fixed::new(1, 2)),
    );
    std::thread::sleep(Duration::from_millis(30));
    let join_started = Instant::now();
    let report = pool.stop();
    let drain = join_started.elapsed();

    assert!(
        drain >= Duration::from_millis(100),
        "test premise broken: join drain only took {drain:?}"
    );
    assert!(
        report.elapsed < Duration::from_millis(150),
        "elapsed {:?} includes the join drain",
        report.elapsed
    );
}

#[test]
fn monitor_traces_the_final_partial_interval() {
    let _serial = serial();
    // Regression: a run shorter than one monitor period used to produce
    // an empty trace — the budget exhausts and flips `running` before
    // the monitor's first full round, and the partial interval was
    // discarded on exit.
    let pool = MalleablePool::start(
        PoolConfig::new(2)
            .initial_level(2)
            .task_budget(50)
            .monitor_period(Duration::from_millis(200))
            .name("tail"),
        Spin,
        Box::new(Fixed::new(2, 2)),
    );
    pool.wait_budget_exhausted();
    let report = pool.stop();
    assert_eq!(report.total_tasks, 50);
    assert!(
        !report.trace.is_empty(),
        "tasks ran inside a partial monitor interval and must still be traced"
    );
}

/// Workload whose tasks are much longer than the monitor period, so the
/// monitor sees long runs of zero-progress rounds.
struct SlowTask;
impl Workload for SlowTask {
    type WorkerState = ();
    fn init_worker(&self, _tid: usize) {}
    fn run_task(&self, _state: &mut ()) {
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn watchdog_flags_zero_progress_rounds() {
    let _serial = serial();
    let pool = MalleablePool::start(
        PoolConfig::new(1)
            .initial_level(1)
            .monitor_period(Duration::from_millis(2))
            .stall_rounds(10)
            .name("stall"),
        SlowTask,
        Box::new(Fixed::new(1, 1)),
    );
    std::thread::sleep(Duration::from_millis(120));
    let report = pool.stop();
    assert!(
        report.stall_warnings >= 1,
        "50 ms tasks under a 2 ms monitor must trip the 10-round watchdog"
    );
}

#[test]
fn busy_pool_raises_no_stall_warnings() {
    let _serial = serial();
    let pool = MalleablePool::start(
        PoolConfig::new(2)
            .initial_level(2)
            .monitor_period(Duration::from_millis(2))
            .stall_rounds(10)
            .name("busy"),
        Spin,
        Box::new(Fixed::new(2, 2)),
    );
    std::thread::sleep(Duration::from_millis(60));
    let report = pool.stop();
    assert_eq!(
        report.stall_warnings, 0,
        "a continuously progressing pool must not be flagged"
    );
    assert_eq!(report.worker_panics, 0);
}
