//! Model checks driven through the **real** workspace types.
//!
//! This file only compiles under `RUSTFLAGS="--cfg rubic_check"`: the
//! `rubic-sync` facade then re-exports the checker's primitives, so
//! `rubic-stm`'s versioned locks, `rubic-runtime`'s semaphore, and the
//! sharded queue all run on the controlled scheduler — the code under
//! test is the production code, not a restatement of it.
//!
//! The two protocols that *are* restated as knob-bearing models
//! (`rubic_check::models::{vlock, epoch}`) get their checks in
//! `models_builtin.rs`, which runs in every build.
#![cfg(rubic_check)]

use std::sync::Arc;
use std::time::Duration;

use rubic_check::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use rubic_check::sync::thread;
use rubic_check::{check, env_iters, Config};
use rubic_runtime::sharded::ShardedWorkload;
use rubic_runtime::{Semaphore, Workload};
use rubic_stm::clock;
use rubic_stm::vlock::VLock;

/// `rubic-stm`'s global version clock is process-wide; checks that
/// tick it must not interleave with each other or their clock values
/// become schedule-dependent across executions.
static CLOCK_USERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Opacity on the real versioned lock + global clock: a reader that
/// samples the same unlocked word before and after its payload load
/// observed a consistent (version, value) pair — the exact protocol
/// `txn.rs` builds its invisible reads on, run on the production
/// `VLock` and `clock` under the controlled scheduler.
#[test]
fn real_vlock_commit_is_opaque_to_samplers() {
    let _serial = CLOCK_USERS.lock().unwrap_or_else(|e| e.into_inner());
    let report = check(Config::pct(0x51A, env_iters(128)), || {
        let lock = Arc::new(VLock::new(0));
        // Payload mirrors `tvar.rs`: a relaxed atomic slot whose
        // consistency is established by the lock protocol, not by its
        // own ordering.
        let payload = Arc::new(AtomicU64::new(0));
        let (l2, p2) = (Arc::clone(&lock), Arc::clone(&payload));

        let writer = thread::spawn(move || {
            let w = l2.sample();
            if !w.is_locked() && l2.try_lock(w) {
                p2.store(1, Ordering::Relaxed);
                let ts = clock::tick();
                l2.release_commit(ts);
                return Some(ts);
            }
            None
        });

        // Reader: sample → load → re-sample, as in `Transaction::read`.
        let w1 = lock.sample();
        if !w1.is_locked() {
            let value = payload.load(Ordering::Relaxed);
            let w2 = lock.sample();
            if w2 == w1 {
                // Consistent observation: version 0 must still carry
                // the initial payload; any later version carries the
                // committed one.
                if w1.version() == 0 {
                    assert_eq!(value, 0, "pre-commit version with post-commit payload");
                } else {
                    assert_eq!(value, 1, "post-commit version with pre-commit payload");
                }
            }
        }
        let ts = writer.join().expect("writer");
        if let Some(ts) = ts {
            let after = lock.sample();
            assert!(!after.is_locked(), "commit must leave the lock released");
            assert_eq!(after.version(), ts, "commit must install its timestamp");
            assert!(clock::now() >= ts, "clock runs ahead of every stamp");
        }
    });
    report.assert_ok();
}

/// Two committers racing from the **same sampled word**: at most one
/// CAS may win — the other's expectation is stale the instant the
/// winner locks or re-versions the word. This is the write/write
/// conflict-detection half of the TL2 protocol.
#[test]
fn real_vlock_stale_word_never_acquires() {
    let _serial = CLOCK_USERS.lock().unwrap_or_else(|e| e.into_inner());
    let report = check(Config::pct(0x51B, env_iters(128)), || {
        let lock = Arc::new(VLock::new(0));
        let w0 = lock.sample();
        let commit = move |l: &VLock| {
            if l.try_lock(w0) {
                l.release_commit(clock::tick());
                1u32
            } else {
                0u32
            }
        };
        let l2 = Arc::clone(&lock);
        let t = thread::spawn(move || commit(&l2));
        let mine = commit(&lock);
        let theirs = t.join().expect("committer");
        assert_eq!(
            mine + theirs,
            1,
            "exactly one committer may win the sampled word"
        );
        assert!(!lock.sample().is_locked(), "no one may leak the lock");
        assert!(
            lock.sample().version() > 0,
            "the winner must have stamped its commit"
        );
    });
    report.assert_ok();
}

/// No lost wakeup on the real semaphore: an untimed waiter and a
/// signaller in every interleaving — a lost signal would park the
/// waiter forever and surface as a deadlock report.
#[test]
fn real_semaphore_wait_signal_no_lost_wakeup() {
    let report = check(Config::dfs(20_000), || {
        let s = Arc::new(Semaphore::new(0));
        let s2 = Arc::clone(&s);
        let waiter = thread::spawn(move || s2.wait());
        s.signal();
        waiter.join().expect("waiter");
        assert_eq!(s.permits(), 0, "the permit must be consumed exactly once");
    });
    report.assert_ok();
}

/// The paper's admission protocol (Algorithm 1) on the real semaphore:
/// the monitor clears the gate *then* signals; the worker re-checks the
/// gate under the semaphore's lock. Under every interleaving the worker
/// is admitted and the banked permit is consumed, never accumulated.
#[test]
fn real_semaphore_admission_consumes_banked_permit() {
    let report = check(Config::pct(0xAD1, env_iters(192)), || {
        let s = Arc::new(Semaphore::new(0));
        let gated = Arc::new(AtomicBool::new(true));
        let (s2, g2) = (Arc::clone(&s), Arc::clone(&gated));

        let worker = thread::spawn(move || {
            // The timeout is a liveness backstop in production; the
            // checker only force-times-out a waiter when nothing else
            // can run, so an admission bug shows up as a failure, not
            // as a silent timeout.
            s2.wait_while(Duration::from_secs(3600), || g2.load(Ordering::Acquire))
        });

        // Monitor: publish the new level, then wake (state first,
        // signal second — the order `pool.rs` relies on).
        gated.store(false, Ordering::Release);
        s.signal_n(1);

        let admitted = worker.join().expect("worker");
        assert!(admitted, "state-before-signal admission must never be lost");
        // A worker that observed the cleared gate before the signal
        // landed is admitted on the fast path and leaves the permit
        // banked; a parked worker consumes it. Either way the count is
        // bounded by the one signal — over-accumulation would show as 2+.
        assert!(
            s.permits() <= 1,
            "admission must never multiply permits (found {})",
            s.permits()
        );
    });
    report.assert_ok();
}

/// A signal aimed at a still-gated waiter must not admit it: the
/// predicate, not the permit count, decides. The banked permits stay
/// banked for the thread they were meant for.
#[test]
fn real_semaphore_gated_waiter_ignores_foreign_permits() {
    let report = check(Config::pct(0xAD2, env_iters(128)), || {
        let s = Arc::new(Semaphore::new(0));
        let admitted = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(AtomicBool::new(true));
        let (s2, a2, g2) = (Arc::clone(&s), Arc::clone(&admitted), Arc::clone(&gate));

        // This waiter's own gate never clears; a permit meant for
        // another worker arrives while it is parked.
        let waiter = thread::spawn(move || {
            let ok = s2.wait_while(Duration::from_millis(1), || {
                // Admission would be a protocol violation; record it
                // instead of asserting inside the closure (the closure
                // runs under the semaphore's lock).
                g2.load(Ordering::Acquire)
            });
            if ok {
                a2.store(true, Ordering::Release);
            }
        });
        s.signal_n(2);
        waiter.join().expect("waiter");
        assert!(
            !admitted.load(Ordering::Acquire),
            "a still-gated waiter stole a foreign permit"
        );
        assert_eq!(s.permits(), 2, "foreign permits must stay banked");
        drop(gate);
    });
    report.assert_ok();
}

/// Exactly-once accounting on the real sharded queue, pool-free: every
/// sent item is handled once (the handler counts), `processed` agrees,
/// and the drain latch fires with `queued == 0` under every explored
/// schedule — covering push, local pop, steal, and drain detection.
#[test]
fn real_sharded_queue_accounts_exactly_once() {
    const ITEMS: u64 = 4;
    let report = check(Config::pct(0x5AD, env_iters(96)), || {
        let handled = Arc::new(AtomicU64::new(0));
        let h2 = Arc::clone(&handled);
        // Two shards, batch 1: with one item per send round-robined
        // across shards, a worker must steal to finish alone.
        let (workload, sender) = ShardedWorkload::with_batch(2, 8, 1, move |_n: u64| {
            h2.fetch_add(1, Ordering::Relaxed);
        });
        let handle = workload.handle();
        // Close the queue before the workers start: the model then has
        // a guaranteed drain point and cannot idle forever.
        sender.send_batch(0..ITEMS).expect("queue open");
        drop(sender);

        let workload = Arc::new(workload);
        let w2 = Arc::clone(&workload);
        let h = handle.clone();
        let worker = thread::spawn(move || {
            let mut state = w2.init_worker(1);
            while !h.is_drained() {
                w2.run_task(&mut state);
            }
        });
        let mut state = workload.init_worker(0);
        while !handle.is_drained() {
            workload.run_task(&mut state);
        }
        worker.join().expect("worker");

        assert_eq!(
            handled.load(Ordering::Relaxed),
            ITEMS,
            "every item must be handled exactly once"
        );
        assert_eq!(handle.processed(), ITEMS, "processed counter must agree");
        assert_eq!(handle.queued(), 0, "drain fired with items still queued");
        assert!(handle.is_drained(), "drain latch must stay fired");
    });
    report.assert_ok();
}

/// The same accounting with the producer racing both workers and
/// hanging up last: the drain condition (`producers == 0`, then
/// `pushed == Σ taken` over the per-worker slots) is evaluated while
/// pushes, takes and the final producer decrement interleave, so a
/// check that trusted a stale `pushed`, or fired between a push and its
/// count, would drop an item. One item of room per shard makes the
/// producer park on `not_full`, so the armed watermark that gates the
/// takers' notify is explored too — a missed wake shows up as a
/// deadlock.
#[test]
fn real_sharded_queue_drains_exactly_once_under_a_live_producer() {
    const ITEMS: u64 = 4;
    let report = check(Config::pct(0x5AE, env_iters(96)), || {
        let handled = Arc::new(AtomicU64::new(0));
        let h2 = Arc::clone(&handled);
        let (workload, sender) = ShardedWorkload::with_batch(2, 2, 1, move |_n: u64| {
            h2.fetch_add(1, Ordering::Relaxed);
        });
        let handle = workload.handle();
        let workload = Arc::new(workload);
        let workers: Vec<_> = (0..2)
            .map(|tid| {
                let (w, h) = (Arc::clone(&workload), handle.clone());
                thread::spawn(move || {
                    let mut state = w.init_worker(tid);
                    while !h.is_drained() {
                        w.run_task(&mut state);
                    }
                })
            })
            .collect();
        sender.send_batch(0..ITEMS).expect("queue open");
        assert!(!handle.is_drained(), "drained while a producer is open");
        drop(sender);
        for w in workers {
            w.join().expect("worker");
        }

        assert_eq!(
            handled.load(Ordering::Relaxed),
            ITEMS,
            "every item must be handled exactly once"
        );
        assert_eq!(handle.processed(), ITEMS, "processed counter must agree");
        assert_eq!(handle.queued(), 0, "drain fired with items still queued");
    });
    report.assert_ok();
}

/// Runs one worker of `workload` until the queue drains, after raising
/// `started`.
fn drain_worker(
    workload: &Arc<ShardedWorkload<u64, impl Fn(u64) + Send + Sync + 'static>>,
    started: &Arc<AtomicBool>,
) -> thread::JoinHandle<()> {
    let (w, s) = (Arc::clone(workload), Arc::clone(started));
    let h = w.handle();
    thread::spawn(move || {
        let mut state = w.init_worker(0);
        s.store(true, Ordering::Release);
        while !h.is_drained() {
            w.run_task(&mut state);
        }
    })
}

/// An idle wake lands: the one worker finds the queue empty and parks
/// in the idle wait, then the producer publishes item by item and hangs
/// up. Forced time-outs are off, so if a publish while the worker is
/// parked does not wake it, every thread ends up blocked and the run
/// fails as a deadlock instead of riding out the 1 ms bound. Waiting
/// for `started` with `yield_now` lets the worker run first (PCT
/// demotes a thread that yields).
#[test]
fn real_sharded_queue_idle_wake_lands_without_a_timeout() {
    const ITEMS: u64 = 3;
    let config = Config::pct(0x5AF, env_iters(96)).without_forced_timeouts();
    let report = check(config, || {
        let handled = Arc::new(AtomicU64::new(0));
        let h2 = Arc::clone(&handled);
        let (workload, sender) = ShardedWorkload::with_batch(1, 8, 1, move |_n: u64| {
            h2.fetch_add(1, Ordering::Relaxed);
        });
        let handle = workload.handle();
        let workload = Arc::new(workload);
        let started = Arc::new(AtomicBool::new(false));
        let worker = drain_worker(&workload, &started);
        while !started.load(Ordering::Acquire) {
            thread::yield_now();
        }
        for n in 0..ITEMS {
            sender.send(n).expect("queue open");
        }
        drop(sender);
        worker.join().expect("worker");
        assert_eq!(handled.load(Ordering::Relaxed), ITEMS);
        assert_eq!(handle.queued(), 0, "drain fired with items still queued");
    });
    report.assert_ok();
}

/// A producer parked on a full shard is woken by the take that reaches
/// the low watermark. One shard of two items, chunks of two — larger
/// than half a shard, so the producer needs an empty shard and its
/// watermark is 0. The queue is full before the worker and a second
/// producer start, so the second producer parks unless the worker gets
/// there first. Forced time-outs are off: a missed producer wake
/// leaves the producer parked for good and fails as a deadlock.
#[test]
fn real_sharded_queue_watermark_wake_lands_without_a_timeout() {
    const ITEMS: u64 = 6;
    let config = Config::pct(0x5B0, env_iters(96)).without_forced_timeouts();
    let report = check(config, || {
        let handled = Arc::new(AtomicU64::new(0));
        let h2 = Arc::clone(&handled);
        let (workload, sender) = ShardedWorkload::with_batch(1, 2, 2, move |_n: u64| {
            h2.fetch_add(1, Ordering::Relaxed);
        });
        let handle = workload.handle();
        sender.send_batch(0..2).expect("queue open");
        let producer = {
            let sender = sender.clone();
            thread::spawn(move || sender.send_batch(2..ITEMS).expect("queue open"))
        };
        drop(sender);
        let workload = Arc::new(workload);
        let worker = drain_worker(&workload, &Arc::new(AtomicBool::new(false)));
        producer.join().expect("producer");
        worker.join().expect("worker");
        assert_eq!(handled.load(Ordering::Relaxed), ITEMS);
        assert_eq!(handle.queued(), 0, "drain fired with items still queued");
    });
    report.assert_ok();
}
