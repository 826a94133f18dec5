//! `pool_drain_tiny`: the runtime alone. A sharded work-stealing queue
//! drains tiny ALU items under RUBIC, so levels change mid-drain; there
//! is no STM and no data structure, and queue transport, stealing,
//! park/wake and drain detection are the whole cost.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rubic::controllers::{Controller, Fixed, Policy, PolicyConfig};
use rubic::metrics::median;
use rubic::runtime::{MalleablePool, PoolConfig, ShardedWorkload, Workload};

use super::lane::{self, Lane};
use crate::baseline::tiny_item;
use crate::harness::{
    loop_rate, pool_window, time_setup, MetricSet, Outcome, RunArgs, Sampling, Window,
};
use crate::json::Json;
use crate::procfs;
use crate::timed::{TimedController, TimedWorkload, Tracer};

/// Items the queue may hold across all shards; the producer blocks when
/// its shard is full, which closes the loop.
const CAPACITY: usize = 1024;
/// Items per `send_batch` call, and the granularity at which the
/// producer looks at the clock.
const SEND_CHUNK: u64 = 4096;

/// Queue counters of the latest main run, for the traced pass.
#[derive(Default, Clone, Copy)]
struct QueueStats {
    items: u64,
    push_ns: f64,
    steals: u64,
    gated_steals: u64,
}

struct DrainLane {
    nproc: u32,
    next_item: u64,
    last: QueueStats,
    failures: Vec<String>,
}

impl DrainLane {
    /// One whole drain: start a pool of `size` over a fresh queue, feed
    /// it from this thread for `dur`, close the queue, wait until it is
    /// drained, stop the pool. Items handled are sampled once per tick
    /// while the producer feeds.
    fn drain(
        &mut self,
        size: u32,
        initial_level: u32,
        controller: Box<dyn Controller>,
        (dur, sampling): (Duration, Sampling),
        tracer: Option<&Arc<Tracer>>,
    ) -> Window {
        let (workload, sender) = ShardedWorkload::new(size as usize, CAPACITY, tiny_item);
        let handle = workload.handle();
        let cfg = PoolConfig::new(size).initial_level(initial_level);
        let t = Instant::now();
        let pool = match tracer {
            None => MalleablePool::start(cfg, workload, controller),
            Some(tr) => MalleablePool::start(
                cfg,
                TimedWorkload::new(workload, Arc::clone(tr)),
                Box::new(TimedController::new(controller, Arc::clone(tr))),
            ),
        };
        let start_ms = t.elapsed().as_secs_f64() * 1e3;

        let began = Instant::now();
        let first = self.next_item;
        let mut in_send = Duration::ZERO;
        let mut ticks = Vec::new();
        let (mut at, mut seen) = (began, 0u64);
        while began.elapsed() < dur {
            let t = Instant::now();
            let sent = sender.send_batch(self.next_item..self.next_item + SEND_CHUNK);
            let now = Instant::now();
            in_send += now.duration_since(t);
            if sent.is_err() {
                self.failures
                    .push("drain: the queue closed under the producer".to_string());
                break;
            }
            self.next_item += SEND_CHUNK;
            if now.duration_since(at) >= sampling.tick() {
                let n = handle.processed();
                ticks.push((n - seen) as f64 / now.duration_since(at).as_secs_f64());
                (at, seen) = (now, n);
            }
        }
        drop(sender);
        handle.wait_drained();
        let secs = began.elapsed().as_secs_f64();
        let t = Instant::now();
        let report = pool.stop();
        let stop_ms = t.elapsed().as_secs_f64() * 1e3;

        let items = self.next_item - first;
        if handle.processed() != items {
            self.failures.push(format!(
                "drain: {items} items sent, {} handled",
                handle.processed()
            ));
        }
        self.last = QueueStats {
            items,
            push_ns: in_send.as_secs_f64() * 1e9 / items.max(1) as f64,
            steals: handle.steals(),
            gated_steals: handle.gated_steals(),
        };
        if ticks.is_empty() {
            // A drain shorter than one tick: the whole of it is the sample.
            ticks.push(items as f64 / secs);
        }
        Window {
            rate: median(&ticks),
            secs,
            attempted: items,
            began,
            stm: None,
            start_ms,
            stop_ms,
            report,
        }
    }
}

/// RUBIC for a pool of `nproc` workers on `nproc` cores.
fn rubic(nproc: u32) -> Box<dyn Controller> {
    Policy::Rubic.build(&PolicyConfig {
        hw_contexts: nproc,
        pool_size: nproc,
        ..PolicyConfig::paper(1)
    })
}

impl Lane for DrainLane {
    fn pool_size(&self) -> u32 {
        self.nproc
    }

    fn main_level(&self) -> Option<u32> {
        None
    }

    fn main_weight(&self) -> f64 {
        2.0
    }

    fn main(&mut self, warm: Duration, measure: Duration, tracer: Option<&Arc<Tracer>>) -> Window {
        // No warm-up to discard: the drain is the job, start to finish.
        self.drain(
            self.nproc,
            1,
            rubic(self.nproc),
            (warm + measure, Sampling::Moving),
            tracer,
        )
    }

    fn fixed(&mut self, level: u32, warm: Duration, measure: Duration) -> Window {
        let controller = Box::new(Fixed::new(level, level));
        self.drain(
            level,
            level,
            controller,
            (warm + measure, Sampling::Pinned),
            None,
        )
    }

    fn twin(&mut self, dur: Duration) -> f64 {
        let mut n = self.next_item;
        let rate = loop_rate(dur, SEND_CHUNK as u32, || {
            tiny_item(n);
            n += 1;
        });
        self.next_item = n;
        rate
    }

    fn direct(&mut self, _dur: Duration) -> Option<f64> {
        None
    }

    fn body_ns_per_task(&self, twin_ns: f64) -> Option<f64> {
        Some(twin_ns)
    }

    fn controller(&self) -> Box<dyn Controller> {
        rubic(self.nproc)
    }

    fn probes(&mut self, m: &mut MetricSet) {
        let q = self.last;
        m.set("runtime.push_ns", q.push_ns);
        m.set("runtime.steals", q.steals as f64);
        m.set("runtime.steals_gated", q.gated_steals as f64);
        // A steal moves up to one batch, so steals ÷ (items ÷ batch) is
        // about the share of a worker's refills that were steals.
        let refills = q.items as f64 / rubic::runtime::sharded::DEFAULT_BATCH as f64;
        m.set("runtime.steal_share", q.steals as f64 / refills.max(1.0));
        m.set("runtime.noop_task_ns", noop_task_ns());
    }

    fn check(&mut self) -> Vec<String> {
        std::mem::take(&mut self.failures)
    }
}

/// The pool's cost per task with nothing in the task: one worker, level
/// 1, a `run_task` that returns at once.
fn noop_task_ns() -> f64 {
    struct Noop;
    impl Workload for Noop {
        type WorkerState = ();
        fn init_worker(&self, _tid: usize) {}
        fn run_task(&self, (): &mut ()) {}
    }
    let w = pool_window(
        Noop,
        PoolConfig::new(1),
        Box::new(Fixed::new(1, 1)),
        None,
        (
            Duration::from_millis(20),
            Duration::from_millis(150),
            Sampling::Pinned,
        ),
    );
    1e9 / w.rate
}

pub fn run(args: &RunArgs) -> (Outcome, Option<Json>) {
    let nproc = procfs::nproc();
    let mut lane = DrainLane {
        nproc,
        next_item: args.seed,
        last: QueueStats::default(),
        failures: Vec::new(),
    };
    // Set-up: build the queue, start the pool over it, and push a first
    // 64 K items through so every worker has run and every shard is warm.
    lane::run(&mut lane, args, || {
        let (setup_s, _) = time_setup(args.seconds, || {
            let (workload, sender) = ShardedWorkload::new(nproc as usize, CAPACITY, tiny_item);
            let handle = workload.handle();
            let pool = MalleablePool::start(PoolConfig::new(nproc), workload, rubic(nproc));
            let warm = sender.send_batch(0..1u64 << 16);
            drop(sender);
            handle.wait_drained();
            (pool, warm)
        });
        setup_s
    })
}
