//! The pool's task-distribution harness (`poolbench`).
//!
//! Measures what `rubic-runtime`'s one queue transport — the sharded
//! work-stealing queues ([`ShardedWorkload`]) — costs per item across
//! worker counts, task grains and controllers. Each measured point
//! drains a fixed number of items through a malleable pool and reports
//! items per second of wall time, repeated `reps` times for a mean ±
//! sample stddev.
//!
//! Axes:
//!
//! * **task** ∈ {`tiny`, `stm-txn`} — `tiny` is a handful of ALU ops
//!   (queue overhead dominates, the case sharding targets); `stm-txn`
//!   runs one striped-counter STM transaction per item (real work
//!   amortizes queue costs).
//! * **workers** ∈ {1, 2, 4, 8, 16} by default.
//! * **controller** ∈ {`fixed`, `rubic`} — a pinned level versus the
//!   paper's controller moving the level mid-drain.
//!
//! v1 carried a `queue` axis comparing a single shared channel with
//! the sharded queues; the channel lost at 20 of 20 points and was
//! deleted with its axis (DESIGN.md §12).
//!
//! The `poolbench` binary writes `BENCH_pool.json` (schema
//! `rubic-poolbench/v2`) after [`PoolBenchReport::validate`] passes —
//! same contract as `stmbench`: a malformed report is never written.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rubic::controllers::{Controller, Fixed, Rubic, RubicConfig};
use rubic::runtime::{MalleablePool, PoolConfig, ShardedWorkload};
use rubic::stm::{Stm, TVar};

use crate::report::{self, Document, Point, Stat, Value};

/// Schema identifier written into every report.
pub const SCHEMA: &str = "rubic-poolbench/v2";

/// The benchmarked grid axes.
const TASKS: [&str; 2] = ["tiny", "stm-txn"];
const CONTROLLERS: [&str; 2] = ["fixed", "rubic"];

/// Queue capacity.
const CAPACITY: usize = 1024;

/// One swept configuration and its measurement.
#[derive(Debug, Clone)]
pub struct PoolBenchPoint {
    /// Task grain: `tiny` or `stm-txn`.
    pub task: &'static str,
    /// Controller driving the level: `fixed` or `rubic`.
    pub controller: &'static str,
    /// Pool size (and fixed level / RUBIC max level).
    pub workers: u32,
    /// Items drained per second of wall time.
    pub ops_per_sec: Stat,
}

impl PoolBenchPoint {
    /// Names the point in validation errors and noise warnings.
    fn label(&self) -> String {
        format!("{}/{}/w{}", self.task, self.controller, self.workers)
    }
}

/// A complete sweep: harness parameters plus every measured point.
#[derive(Debug, Clone)]
pub struct PoolBenchReport {
    /// Repetitions per configuration.
    pub reps: u32,
    /// Items drained per repetition for `tiny` tasks.
    pub items_tiny: u64,
    /// Items drained per repetition for `stm-txn` tasks.
    pub items_stm: u64,
    /// True when produced by the ~1 s `--smoke` sweep.
    pub smoke: bool,
    /// `std::thread::available_parallelism` on the measuring host.
    pub hw_threads: u32,
    /// One entry per (task, controller, workers) configuration.
    pub points: Vec<PoolBenchPoint>,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct PoolSweepOptions {
    /// Repetitions per configuration.
    pub reps: u32,
    /// Items per repetition for `tiny` tasks.
    pub items_tiny: u64,
    /// Items per repetition for `stm-txn` tasks.
    pub items_stm: u64,
    /// Worker counts to sweep.
    pub workers: Vec<u32>,
    /// Reduced grid for CI schema validation.
    pub smoke: bool,
}

impl PoolSweepOptions {
    /// The full sweep: {1,2,4,8,16} workers, 5 reps.
    #[must_use]
    pub fn full() -> Self {
        PoolSweepOptions {
            reps: 5,
            items_tiny: 60_000,
            items_stm: 12_000,
            workers: vec![1, 2, 4, 8, 16],
            smoke: false,
        }
    }

    /// The ~1 s CI sweep: {1,2} workers, 1 rep, small batches.
    /// Validates schema and plumbing, not perf.
    #[must_use]
    pub fn smoke() -> Self {
        PoolSweepOptions {
            reps: 1,
            items_tiny: 2_000,
            items_stm: 500,
            workers: vec![1, 2],
            smoke: true,
        }
    }
}

fn make_controller(controller: &'static str, workers: u32) -> Box<dyn Controller> {
    match controller {
        "fixed" => Box::new(Fixed::new(workers, workers)),
        "rubic" => Box::new(Rubic::new(RubicConfig::default(), workers)),
        other => unreachable!("unknown controller {other}"),
    }
}

/// A few ALU ops — cheap enough that per-item queue overhead dominates.
fn tiny_task(n: u64) {
    std::hint::black_box(n.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ n);
}

/// One STM transaction per item: add into a striped counter (stripes
/// sized so aborts stay rare and the measurement tracks queue + STM
/// fixed costs, not contention).
fn stm_task(stm: &Stm, stripes: &[TVar<u64>], n: u64) {
    let var = &stripes[(n as usize) % stripes.len()];
    stm.atomically(|tx| {
        let v = tx.read(var)?;
        tx.write(var, v.wrapping_add(n))
    });
}

/// Drives `items` numbered tasks through a pool and returns items per
/// second of wall time (send → drained).
fn run_once(task: &'static str, controller: &'static str, workers: u32, items: u64) -> f64 {
    let stm = Arc::new(Stm::default());
    let stripes: Arc<Vec<TVar<u64>>> = Arc::new((0..256).map(|_| TVar::new(0)).collect());
    let handler = move |n: u64| match task {
        "tiny" => tiny_task(n),
        _ => stm_task(&stm, &stripes, n),
    };
    let cfg = PoolConfig::new(workers)
        .initial_level(workers)
        .monitor_period(Duration::from_millis(5))
        .name("poolbench");
    let (workload, tx) = ShardedWorkload::new(workers as usize, CAPACITY, handler);
    let handle = workload.handle();
    let pool = MalleablePool::start(cfg, workload, make_controller(controller, workers));
    let start = Instant::now();
    let producer = rubic_sync::thread::spawn(move || {
        tx.send_batch(0..items).unwrap();
    });
    producer.join().unwrap();
    handle.wait_drained();
    let elapsed = start.elapsed();
    let _ = pool.stop();
    assert_eq!(handle.processed(), items, "queue lost items");
    items as f64 / elapsed.as_secs_f64()
}

/// Runs the whole sweep, printing one progress line per configuration.
#[must_use]
pub fn run_sweep(opts: &PoolSweepOptions) -> PoolBenchReport {
    let mut points = Vec::new();
    for task in TASKS {
        for controller in CONTROLLERS {
            for &workers in &opts.workers {
                let items = if task == "tiny" {
                    opts.items_tiny
                } else {
                    opts.items_stm
                };
                let mut ops = Vec::with_capacity(opts.reps as usize);
                for _ in 0..opts.reps {
                    ops.push(run_once(task, controller, workers, items));
                }
                let point = PoolBenchPoint {
                    task,
                    controller,
                    workers,
                    ops_per_sec: Stat::from_samples(ops),
                };
                eprintln!(
                    "  {task:<7} {controller:<5} w={workers:<2} {:>12.0} items/s ± {:>8.0}",
                    point.ops_per_sec.mean, point.ops_per_sec.stddev,
                );
                points.push(point);
            }
        }
    }
    PoolBenchReport {
        reps: opts.reps,
        items_tiny: opts.items_tiny,
        items_stm: opts.items_stm,
        smoke: opts.smoke,
        hw_threads: rubic_sync::thread::available_parallelism().map_or(1, |n| n.get() as u32),
        points,
    }
}

impl PoolBenchReport {
    fn document(&self) -> Document<'_> {
        Document {
            schema: SCHEMA,
            reps: self.reps,
            harness: vec![
                ("items_tiny", Value::Int(self.items_tiny)),
                ("items_stm", Value::Int(self.items_stm)),
                ("smoke", Value::Bool(self.smoke)),
                ("hw_threads", Value::Int(self.hw_threads.into())),
            ],
            points: self
                .points
                .iter()
                .map(|p| Point {
                    label: p.label(),
                    headline: &p.ops_per_sec,
                    fields: vec![
                        ("task", Value::Str(p.task)),
                        ("controller", Value::Str(p.controller)),
                        ("workers", Value::Int(p.workers.into())),
                        ("ops_per_sec", Value::Stat(&p.ops_per_sec)),
                    ],
                })
                .collect(),
        }
    }

    /// Serialises the report as the documented `rubic-poolbench/v2`
    /// JSON schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.document().to_json()
    }

    /// The shared structural checks ([`crate::report`]: non-empty grid,
    /// sample counts matching `reps`, finite positive throughput) plus
    /// known axis values. The binary refuses to write a report that
    /// fails these.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.document().validate()?;
        for p in &self.points {
            let tag = p.label();
            if !TASKS.contains(&p.task) {
                return Err(format!("{tag}: unknown task"));
            }
            if !CONTROLLERS.contains(&p.controller) {
                return Err(format!("{tag}: unknown controller"));
            }
            if p.workers == 0 {
                return Err(format!("{tag}: zero workers"));
            }
        }
        Ok(())
    }

    /// The `poolbench` binary's tail: validate, name the noisy points,
    /// write `out`.
    pub fn finish(&self, out: &Path) -> ExitCode {
        report::finish("poolbench", self.validate(), &self.document(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_produces_valid_json() {
        let mut opts = PoolSweepOptions::smoke();
        // Keep the unit test well under a second.
        opts.workers = vec![1];
        opts.items_tiny = 400;
        opts.items_stm = 100;
        let report = run_sweep(&opts);
        report.validate().expect("smoke report must validate");
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"rubic-poolbench/v2\""));
        assert!(!json.contains("\"queue\""), "v2 has no queue axis");
        assert_eq!(
            report.points.len(),
            4,
            "2 tasks x 2 controllers x 1 worker count"
        );
    }

    #[test]
    fn validate_rejects_empty_and_out_of_range() {
        let empty = PoolBenchReport {
            reps: 1,
            items_tiny: 1,
            items_stm: 1,
            smoke: true,
            hw_threads: 1,
            points: Vec::new(),
        };
        assert!(empty.validate().is_err());

        let bad = PoolBenchReport {
            reps: 1,
            items_tiny: 1,
            items_stm: 1,
            smoke: true,
            hw_threads: 1,
            points: vec![PoolBenchPoint {
                task: "tiny",
                controller: "fixed",
                workers: 1,
                ops_per_sec: Stat::from_samples(vec![0.0]),
            }],
        };
        assert!(bad.validate().unwrap_err().contains("out of range"));
    }
}
