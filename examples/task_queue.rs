//! Finite task-queue mode: drain a job queue through the malleable
//! pool (the paper's "picks a new task from a task queue, until all
//! tasks have been completed" execution style).
//!
//! ```text
//! cargo run --release --example task_queue
//! ```
//!
//! A producer streams 50 000 hashing jobs into a bounded sharded queue;
//! the pool's workers drain it while RUBIC tunes how many of them are
//! active. The driver stops the pool when the queue reports drained.

use std::time::{Duration, Instant};

use rubic::prelude::*;

const JOBS: u64 = 50_000;

fn main() {
    let hw = std::thread::available_parallelism().map_or(2, |n| n.get() as u32);
    let pool_size = hw * 2;

    let (workload, sender) = ShardedWorkload::new(pool_size as usize, 256, |job: u64| {
        // A few microseconds of real work per job.
        let mut x = job | 1;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
    });
    let handle = workload.handle();

    let cfg = PolicyConfig {
        hw_contexts: hw,
        pool_size,
        ..PolicyConfig::paper(1)
    };
    let pool = MalleablePool::start(
        PoolConfig::new(pool_size)
            .monitor_period(Duration::from_millis(10))
            .name("queue-demo"),
        workload,
        Policy::Rubic.build(&cfg),
    );

    println!("streaming {JOBS} jobs through a {pool_size}-worker malleable pool...");
    let start = Instant::now();
    sender.send_batch(0..JOBS).expect("pool hung up early");
    drop(sender); // closes the queue
    handle.wait_drained();
    let elapsed = start.elapsed();
    let report = pool.stop();

    println!("\ndrained {} jobs in {elapsed:?}", handle.processed());
    println!(
        "effective rate : {:.0} jobs/s",
        handle.processed() as f64 / elapsed.as_secs_f64()
    );
    println!(
        "mean level     : {:.1} active workers",
        report.trace.mean_level()
    );
    println!("\nlevel trace over the drain:");
    for chunk in report.trace.points().chunks(10) {
        let levels: Vec<String> = chunk.iter().map(|p| format!("{:>3}", p.level)).collect();
        println!("  t={:>4}ms  {}", chunk[0].round * 10, levels.join(" "));
    }
    assert_eq!(handle.processed(), JOBS);
    assert_eq!(handle.queued(), 0);
}
