//! Property-based tests for the malleable pool's task distribution:
//! every produced item is processed exactly once under randomized
//! level-change schedules (including decrease-to-1 and
//! increase-to-max mid-drain) and whether or not the pool size matches
//! the shard count, producers parked on full shards are all woken, and
//! a worker the schedule never admits never executes a task.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use rubic_controllers::{Controller, Sample};
use rubic_runtime::{MalleablePool, PoolConfig, ShardedWorkload};

/// Replays a fixed level schedule, one entry per monitor round, then
/// holds the last entry. This turns the controller seam into a test
/// input: proptest generates adversarial gating patterns and the pool
/// must deliver every task regardless.
struct Scripted {
    schedule: Vec<u32>,
    idx: usize,
    max: u32,
}

impl Scripted {
    fn new(schedule: Vec<u32>, max: u32) -> Self {
        assert!(!schedule.is_empty());
        assert!(schedule.iter().all(|&l| l >= 1 && l <= max));
        Scripted {
            schedule,
            idx: 0,
            max,
        }
    }
}

impl Controller for Scripted {
    fn decide(&mut self, _sample: Sample) -> u32 {
        let level = self.schedule[self.idx.min(self.schedule.len() - 1)];
        self.idx += 1;
        level
    }

    fn reset(&mut self) {
        self.idx = 0;
    }

    fn max_level(&self) -> u32 {
        self.max
    }

    fn name(&self) -> &'static str {
        "Scripted"
    }
}

/// A schedule over `1..=size` that provably visits both extremes while
/// the queue drains: random prefix, then a forced drop to 1 and a
/// forced jump to `size`, then a random tail.
fn extreme_schedule(head: Vec<u32>, tail: Vec<u32>, size: u32) -> Vec<u32> {
    let mut schedule: Vec<u32> = head.into_iter().map(|l| l.clamp(1, size)).collect();
    schedule.push(1);
    schedule.push(size);
    schedule.extend(tail.into_iter().map(|l| l.clamp(1, size)));
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharded queue: every item sent is handled exactly once, no
    /// matter how the level moves mid-drain. The handler sleeps a hair
    /// so the drain spans several monitor rounds and the forced
    /// decrease-to-1 / increase-to-max entries land while items are
    /// still in flight.
    #[test]
    fn sharded_exactly_once_under_level_changes(
        size in 2u32..=4,
        head in proptest::collection::vec(1u32..=4, 1..6),
        tail in proptest::collection::vec(1u32..=4, 0..6),
        n_items in 200u64..600,
    ) {
        let schedule = extreme_schedule(head, tail, size);
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let (workload, tx) = ShardedWorkload::new(size as usize, 128, move |n: u64| {
            seen2.lock().unwrap().push(n);
            std::thread::sleep(Duration::from_micros(30));
        });
        let handle = workload.handle();
        let pool = MalleablePool::start(
            PoolConfig::new(size)
                .initial_level(schedule[0])
                .monitor_period(Duration::from_millis(1)),
            workload,
            Box::new(Scripted::new(schedule, size)),
        );
        let producer = std::thread::spawn(move || tx.send_batch(0..n_items));
        producer.join().unwrap().unwrap();
        handle.wait_drained();
        let _ = pool.stop();

        let got = seen.lock().unwrap();
        prop_assert_eq!(got.len() as u64, n_items, "lost or duplicated items");
        let unique: HashSet<u64> = got.iter().copied().collect();
        prop_assert_eq!(unique.len() as u64, n_items, "duplicate execution");
        prop_assert_eq!(handle.processed(), n_items);
        prop_assert_eq!(handle.queued(), 0);
    }

    /// Pool size and shard count differ (2 shards / 4 workers, 4 shards /
    /// 2 workers), so two workers share a shard, workers beyond the
    /// shard count keep their drain counts in the shared overflow slot,
    /// or shards have no worker of their own and drain only by steals.
    /// Every item is still handled exactly once.
    #[test]
    fn sharded_exactly_once_when_pool_and_shards_differ(
        (shards, size) in prop_oneof![Just((2usize, 4u32)), Just((4usize, 2u32))],
        head in proptest::collection::vec(1u32..=4, 1..6),
        tail in proptest::collection::vec(1u32..=4, 0..6),
        n_items in 200u64..600,
    ) {
        let schedule = extreme_schedule(head, tail, size);
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let (workload, tx) = ShardedWorkload::new(shards, 128, move |n: u64| {
            seen2.lock().unwrap().push(n);
            std::thread::sleep(Duration::from_micros(30));
        });
        let handle = workload.handle();
        let pool = MalleablePool::start(
            PoolConfig::new(size)
                .initial_level(schedule[0])
                .monitor_period(Duration::from_millis(1)),
            workload,
            Box::new(Scripted::new(schedule, size)),
        );
        let producer = std::thread::spawn(move || tx.send_batch(0..n_items));
        producer.join().unwrap().unwrap();
        handle.wait_drained();
        let _ = pool.stop();

        let got = seen.lock().unwrap();
        prop_assert_eq!(got.len() as u64, n_items, "lost or duplicated items");
        let unique: HashSet<u64> = got.iter().copied().collect();
        prop_assert_eq!(unique.len() as u64, n_items, "duplicate execution");
        prop_assert_eq!(handle.processed(), n_items);
        prop_assert_eq!(handle.queued(), 0);
    }

    /// Producers park on full shards and are woken at the low
    /// watermark. Shards hold 1–8 items and chunks are 1–3× a shard, so
    /// many chunks exceed half a shard (those wait for a shorter shard
    /// than the watermark) and some exceed a whole one (those wait for
    /// an empty shard). One to three producers, each with `send` or
    /// `send_batch`, feed the queue under the scripted level schedules.
    /// Every item is handled exactly once, and the drain completes
    /// within a deadline far above its few milliseconds of work: a
    /// producer wake that never lands would hang it.
    #[test]
    fn sharded_watermark_wakes_every_parked_producer(
        size in 2u32..=4,
        shard_cap in 1usize..=8,
        chunk_x in 1usize..=24,
        batched in proptest::collection::vec(any::<bool>(), 1..=3),
        head in proptest::collection::vec(1u32..=4, 1..6),
        tail in proptest::collection::vec(1u32..=4, 0..6),
        per_producer in 50u64..150,
    ) {
        // 1 to 3x the shard capacity.
        let chunk = 1 + (chunk_x - 1) % (3 * shard_cap);
        let n_items = batched.len() as u64 * per_producer;
        let schedule = extreme_schedule(head, tail, size);
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let (workload, tx) = ShardedWorkload::with_batch(
            size as usize,
            shard_cap * size as usize,
            chunk,
            move |n: u64| {
                seen2.lock().unwrap().push(n);
                std::thread::sleep(Duration::from_micros(10));
            },
        );
        let handle = workload.handle();
        let pool = MalleablePool::start(
            PoolConfig::new(size)
                .initial_level(schedule[0])
                .monitor_period(Duration::from_millis(1)),
            workload,
            Box::new(Scripted::new(schedule, size)),
        );
        let producers: Vec<_> = batched
            .iter()
            .enumerate()
            .map(|(p, &batched)| {
                let tx = tx.clone();
                let items = p as u64 * per_producer..(p as u64 + 1) * per_producer;
                std::thread::spawn(move || {
                    if batched {
                        tx.send_batch(items).unwrap();
                    } else {
                        for n in items {
                            tx.send(n).unwrap();
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let waiter = handle.clone();
        let waiter = std::thread::spawn(move || {
            waiter.wait_drained();
            let _ = done_tx.send(());
        });
        prop_assert!(
            done_rx.recv_timeout(Duration::from_secs(30)).is_ok(),
            "no drain within 30 s: {} of {} items handled",
            handle.processed(),
            n_items
        );
        waiter.join().unwrap();
        for p in producers {
            p.join().unwrap();
        }
        let _ = pool.stop();

        let got = seen.lock().unwrap();
        prop_assert_eq!(got.len() as u64, n_items, "lost or duplicated items");
        let unique: HashSet<u64> = got.iter().copied().collect();
        prop_assert_eq!(unique.len() as u64, n_items, "duplicate execution");
        prop_assert_eq!(handle.processed(), n_items);
        prop_assert_eq!(handle.queued(), 0);
    }

    /// Workers above every level the schedule ever admits stay parked
    /// for the whole run: their per-worker task counters end at zero
    /// even though the queue routes items across all shards and the
    /// admitted workers must steal the rest.
    #[test]
    fn never_admitted_worker_never_executes(
        admitted in 1u32..=2,
        schedule in proptest::collection::vec(1u32..=2, 1..8),
        n_items in 100u64..300,
    ) {
        let size = 4u32;
        let schedule: Vec<u32> = schedule.iter().map(|&l| l.min(admitted)).collect();
        let (workload, tx) = ShardedWorkload::new(size as usize, 128, |_n: u64| {});
        let handle = workload.handle();
        let pool = MalleablePool::start(
            PoolConfig::new(size)
                .initial_level(schedule[0])
                .monitor_period(Duration::from_millis(1)),
            workload,
            Box::new(Scripted::new(schedule, admitted)),
        );
        tx.send_batch(0..n_items).unwrap();
        drop(tx);
        handle.wait_drained();
        let report = pool.stop();
        prop_assert_eq!(handle.processed(), n_items);
        prop_assert_eq!(handle.queued(), 0);
        for tid in (admitted as usize)..(size as usize) {
            prop_assert_eq!(
                report.per_worker[tid],
                0,
                "worker {} executed while gated for the whole run",
                tid
            );
        }
    }
}
