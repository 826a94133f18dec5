//! Engine-level tests: the checker must find planted concurrency bugs
//! and stay quiet on correct protocols, deterministically.

use std::sync::Arc;

use rubic_check::sync::atomic::{AtomicU64, Ordering};
use rubic_check::sync::{thread, Condvar, Mutex, RaceCell};
use rubic_check::{check, Config, FailureKind};

/// Message passing with a Release/Acquire pair is clean under DFS
/// (exhaustive for this model size).
#[test]
fn release_acquire_passes_exhaustively() {
    let report = check(Config::dfs(10_000), || {
        let data = Arc::new(RaceCell::new(0u64));
        let flag = Arc::new(AtomicU64::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.set(7);
            f2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.get(), 7);
        }
        t.join().unwrap();
    });
    report.assert_ok();
    assert!(report.exhausted, "model is small enough to enumerate");
    assert!(report.executions > 1, "must explore several interleavings");
}

/// The same model with no flag at all: a straight data race, which DFS
/// must find.
#[test]
fn unsynchronized_write_read_is_a_race() {
    let report = check(Config::dfs(10_000), || {
        let data = Arc::new(RaceCell::new(0u64));
        let d2 = Arc::clone(&data);
        let t = thread::spawn(move || d2.set(7));
        let _ = data.get();
        t.join().unwrap();
    });
    let failure = report.expect_failure();
    assert_eq!(failure.kind, FailureKind::Race);
    assert!(
        failure.message.contains("engine.rs") || failure.message.contains("tests"),
        "race report names source locations: {}",
        failure.message
    );
}

/// Relaxed publication: the acquire load can observe the flag while the
/// payload write is unordered — both the weak-pair detector and the
/// race detector can catch it.
#[test]
fn relaxed_publication_is_flagged() {
    let report = check(Config::dfs(10_000), || {
        let data = Arc::new(RaceCell::new(0u64));
        let flag = Arc::new(AtomicU64::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.set(7);
            f2.store(1, Ordering::Relaxed); // bug: should be Release
        });
        if flag.load(Ordering::Acquire) == 1 {
            let _ = data.get();
        }
        t.join().unwrap();
    });
    let failure = report.expect_failure();
    assert!(
        matches!(failure.kind, FailureKind::WeakOrdering | FailureKind::Race),
        "got {:?}",
        failure.kind
    );
}

/// Mutexed increments are clean and sum correctly.
#[test]
fn mutex_counter_passes() {
    let report = check(Config::dfs(10_000), || {
        let n = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                thread::spawn(move || *n.lock() += 1)
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*n.lock(), 2);
    });
    report.assert_ok();
    assert!(report.exhausted);
}

/// Classic ABBA deadlock: DFS must find the interleaving where both
/// threads hold one lock and want the other.
#[test]
fn abba_deadlock_is_found() {
    let report = check(Config::dfs(10_000), || {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = thread::spawn(move || {
            let _ga = a2.lock();
            let _gb = b2.lock();
        });
        {
            let _gb = b.lock();
            let _ga = a.lock();
        }
        t.join().unwrap();
    });
    let failure = report.expect_failure();
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(
        failure.message.contains("engine.rs"),
        "deadlock report names blocked sites: {}",
        failure.message
    );
}

/// A condvar wait with no one left to signal is a deadlock (untimed
/// waits are never force-woken).
#[test]
fn lost_wakeup_untimed_is_deadlock() {
    let report = check(Config::dfs(10_000), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            // Bug: no while loop and the notifier may run first without
            // setting the flag... here the notifier never notifies at
            // all, so some schedule parks forever.
            if !*ready {
                cv.wait(&mut ready);
            }
            let _ = *ready;
        });
        {
            let (m, _cv) = &*pair;
            *m.lock() = false; // touches the mutex, never notifies
        }
        t.join().unwrap();
    });
    let failure = report.expect_failure();
    assert_eq!(failure.kind, FailureKind::Deadlock);
}

/// Correct condvar handshake passes exhaustively, timed or not.
#[test]
fn condvar_handshake_passes() {
    let report = check(Config::dfs(10_000), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut ready = m.lock();
        while !*ready {
            cv.wait(&mut ready);
        }
        drop(ready);
        t.join().unwrap();
    });
    report.assert_ok();
    assert!(report.exhausted);
}

/// A failing execution replays exactly from its trace: same kind, same
/// schedule.
#[test]
fn failure_replays_from_trace() {
    fn model() -> impl Fn() + Send + Sync + 'static {
        || {
            let data = Arc::new(RaceCell::new(0u64));
            let d2 = Arc::clone(&data);
            let t = thread::spawn(move || d2.set(7));
            let _ = data.get();
            t.join().unwrap();
        }
    }
    let report = check(Config::pct(42, 64), model());
    let failure = report.expect_failure().clone();

    let replayed = check(Config::replay_trace(&failure.trace), model());
    let rf = replayed.expect_failure();
    assert_eq!(rf.kind, failure.kind);
    assert_eq!(rf.trace, failure.trace);

    // And via (seed, iteration), the chaos-style replay contract.
    let again = check(Config::pct_at(failure.seed, failure.iteration), model());
    let af = again.expect_failure();
    assert_eq!(af.kind, failure.kind);
    assert_eq!(af.trace, failure.trace);
}

/// Two PCT runs with the same seed produce identical outcomes; a
/// different seed is allowed to differ (and usually does).
#[test]
fn pct_is_seed_deterministic() {
    fn model() -> impl Fn() + Send + Sync + 'static {
        || {
            let a = Arc::new(AtomicU64::new(0));
            let a2 = Arc::clone(&a);
            let t = thread::spawn(move || {
                a2.fetch_add(1, Ordering::AcqRel);
            });
            a.fetch_add(1, Ordering::AcqRel);
            t.join().unwrap();
            assert_eq!(a.load(Ordering::Acquire), 2);
        }
    }
    let r1 = check(Config::pct(7, 16), model());
    let r2 = check(Config::pct(7, 16), model());
    r1.assert_ok();
    r2.assert_ok();
    assert_eq!(r1.executions, r2.executions);
}

/// Atomics alone (no RaceCell) with relaxed counters are fine: relaxed
/// RMWs neither race nor break release sequences.
#[test]
fn relaxed_rmw_counter_is_clean() {
    let report = check(Config::dfs(10_000), || {
        let n = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                thread::spawn(move || {
                    n.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::Acquire), 2);
    });
    report.assert_ok();
    assert!(report.exhausted);
}

/// An assertion failure in model code is reported as a panic with the
/// schedule attached, and does not abort the harness.
#[test]
fn model_panic_is_captured() {
    let report = check(Config::pct(3, 8), || {
        let a = Arc::new(AtomicU64::new(0));
        let a2 = Arc::clone(&a);
        let t = thread::spawn(move || a2.store(1, Ordering::Release));
        t.join().unwrap();
        assert_eq!(a.load(Ordering::Acquire), 2, "planted assertion failure");
    });
    let failure = report.expect_failure();
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("planted assertion failure"));
}

/// The step budget converts runaway spins into a reported failure
/// rather than a hang.
#[test]
fn spin_loop_hits_step_budget() {
    let report = check(Config::pct(1, 4).with_max_steps(300), || {
        let flag = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&flag);
        let t = thread::spawn(move || {
            // Never satisfied: nobody stores 1.
            while f2.load(Ordering::Acquire) == 0 {
                thread::yield_now();
            }
        });
        t.join().unwrap();
    });
    let failure = report.expect_failure();
    assert_eq!(failure.kind, FailureKind::StepBudget);
}

/// PCT demotes a thread that yields: a spin-until-flag wait gives way
/// to the thread that sets the flag. Without the demotion the spinner
/// keeps the top priority whenever it draws it, and only a change
/// point could move it off the baton; with `depth` 1 there is none, so
/// such a run spins to the step budget.
#[test]
fn pct_demotes_a_yielding_spinner() {
    let mut config = Config::pct(0x51E1D, 16);
    config.depth = 1;
    let report = check(config, || {
        let flag = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&flag);
        let t = thread::spawn(move || f2.store(1, Ordering::Release));
        while flag.load(Ordering::Acquire) == 0 {
            thread::yield_now();
        }
        t.join().unwrap();
    });
    report.assert_ok();
}

/// A timed wait nobody notifies is forced to time out by default; with
/// forced time-outs off it is a deadlock.
#[test]
fn unnotified_timed_wait_is_deadlock_without_forced_timeouts() {
    fn model() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let _ = cv.wait_for(&mut g, std::time::Duration::from_millis(1));
    }
    check(Config::dfs(100), model).assert_ok();
    let report = check(Config::dfs(100).without_forced_timeouts(), model);
    let failure = report.expect_failure();
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(failure.message.contains("forced time-outs are off"));
}

/// A rendered failure names its kind once: `Failure`'s `Display` leads
/// with the kind, and the message that follows does not repeat it.
#[test]
fn rendered_failure_names_its_kind_once() {
    fn race() {
        let data = Arc::new(RaceCell::new(0u64));
        let d2 = Arc::clone(&data);
        let t = thread::spawn(move || d2.set(7));
        data.set(8);
        t.join().unwrap();
    }
    fn weak() {
        let flag = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&flag);
        let t = thread::spawn(move || f2.store(1, Ordering::Relaxed));
        let _ = flag.load(Ordering::Acquire);
        t.join().unwrap();
    }
    fn deadlock() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        cv.wait(&mut g);
    }
    fn spin() {
        let flag = AtomicU64::new(0);
        while flag.load(Ordering::Acquire) == 0 {
            thread::yield_now();
        }
    }
    fn panic() {
        panic!("planted");
    }
    let cases: [(FailureKind, fn()); 5] = [
        (FailureKind::Race, race),
        (FailureKind::WeakOrdering, weak),
        (FailureKind::Deadlock, deadlock),
        (FailureKind::StepBudget, spin),
        (FailureKind::Panic, panic),
    ];
    for (kind, model) in cases {
        let report = check(Config::dfs(1_000).with_max_steps(300), model);
        let failure = report.expect_failure();
        assert_eq!(failure.kind, kind);
        let rendered = failure.to_string();
        let name = kind.to_string();
        assert!(rendered.starts_with(&format!("{name}: ")), "{rendered}");
        assert_eq!(rendered.matches(&name).count(), 1, "{rendered}");
    }
}
