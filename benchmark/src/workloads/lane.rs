//! One tenant, one pool: the measuring schedule shared by `rbtree_read`,
//! `rbtree_write`, `vacation_tuned` and `pool_drain_tiny`.
//!
//! A [`Lane`] knows how to run its workload three ways — under its own
//! controller (the main run), in a pool pinned at a fixed level, and as a
//! sequential twin on this thread. The runners below interleave those in
//! short windows, cycle after cycle, so that host drift hits every
//! variant alike and cancels in the ratios.

use std::sync::Arc;
use std::time::Duration;

use rubic::controllers::Controller;

use crate::harness::{
    check_report, cycle_median, decide_ns, level_set, plan_cycles, report_pool_layers, report_proc,
    report_stm, secs, MetricSet, Outcome, RunArgs, Window,
};
use crate::json::Json;
use crate::procfs::{self, CpuMeter};
use crate::timed::{validate_shares, Tracer};

/// A workload that can be run under its controller, at a fixed level, and
/// as a sequential twin.
pub trait Lane {
    /// Workers in the main run's pool.
    fn pool_size(&self) -> u32;

    /// The main run's level when its controller is `Fixed`, so the sweep
    /// does not measure that level twice.
    fn main_level(&self) -> Option<u32>;

    /// Relative length of a main-run window (fixed-level windows are 1).
    /// A tuned run gets longer windows: its controller restarts from
    /// level 1 in each and needs rounds to settle.
    fn main_weight(&self) -> f64;

    /// The workload under its own controller; with a tracer, wrapped in
    /// the timing shims.
    fn main(&mut self, warm: Duration, measure: Duration, tracer: Option<&Arc<Tracer>>) -> Window;

    /// The same workload in a pool of `level` workers, all active.
    fn fixed(&mut self, level: u32, warm: Duration, measure: Duration) -> Window;

    /// The sequential no-STM, no-pool twin for about `dur`: its task rate.
    fn twin(&mut self, dur: Duration) -> f64;

    /// `run_task` called in a loop from this thread, no pool, for about
    /// `dur`: its rate. `None` where tasks only exist inside a pool (the
    /// drain's queue).
    fn direct(&mut self, dur: Duration) -> Option<f64>;

    /// Task-body nanoseconds per task for the time budget, where the
    /// `run_task` span is not the body (the drain); `twin_ns` is the
    /// twin's cost per task.
    fn body_ns_per_task(&self, twin_ns: f64) -> Option<f64>;

    /// A fresh controller like the main run's, for the decide() replay.
    fn controller(&self) -> Box<dyn Controller>;

    /// Layer probes only this workload runs (traced pass).
    fn probes(&mut self, m: &mut MetricSet);

    /// Output checks after every run; one line per violation.
    fn check(&mut self) -> Vec<String>;
}

/// Share of a pool window spent warming up before counting starts.
const WARM_SHARE: f64 = 0.2;
/// Relative length of a twin window.
const TWIN_WEIGHT: f64 = 0.6;
/// Aimed-at length of a weight-1 window, in seconds.
const UNIT_SECONDS: f64 = 0.45;

fn split(window: f64) -> (Duration, Duration) {
    (secs(window * WARM_SHARE), secs(window * (1.0 - WARM_SHARE)))
}

/// Tallies tasks and failures of the windows a run measured.
#[derive(Default)]
struct Tally {
    attempted: u64,
    panics: u64,
    failures: Vec<String>,
}

impl Tally {
    fn window(&mut self, what: &str, w: &Window, pool_size: u32) {
        self.attempted += w.attempted;
        self.panics += w.report.worker_panics;
        self.failures
            .extend(check_report(what, &w.report, pool_size));
    }

    fn finish(mut self, checks: Vec<String>, metrics: MetricSet) -> Outcome {
        self.failures.extend(checks);
        Outcome::new(metrics, self.attempted, self.panics, self.failures)
    }
}

/// Runs `lane`'s untraced or traced pass as `args` asks; `setup_s` times
/// the set-up and is only called for the untraced pass, which reports it.
pub fn run(
    lane: &mut dyn Lane,
    args: &RunArgs,
    setup_s: impl FnOnce() -> f64,
) -> (Outcome, Option<Json>) {
    if args.trace {
        let (outcome, spans) = traced(lane, args);
        (outcome, Some(spans))
    } else {
        (end_to_end(lane, args, setup_s()), None)
    }
}

/// The untraced pass: every end-to-end metric.
///
/// Each cycle measures every variant once; a ratio metric is taken within
/// each cycle, between windows a second apart, and then the median over
/// the cycles — so a drifting workload (vacation slows as its tables
/// age) or a host that changes speed moves both sides of a ratio alike.
fn end_to_end(lane: &mut dyn Lane, args: &RunArgs, setup_s: f64) -> Outcome {
    let nproc = procfs::nproc();
    let levels = level_set(nproc);
    let pinned_main = lane.main_level();
    let sweep = levels.iter().filter(|&&l| Some(l) != pinned_main).count();
    let weights = lane.main_weight() + sweep as f64 + TWIN_WEIGHT;
    let (cycles, per_cycle) = plan_cycles(args.seconds, weights * UNIT_SECONDS);
    let unit = per_cycle / weights;

    let mut tally = Tally::default();
    let mut main = Vec::new();
    // by_level[i][c]: rate at levels[i] in cycle c (the main run's own
    // rate where the main run is pinned at that level).
    let mut by_level: Vec<Vec<f64>> = vec![Vec::new(); levels.len()];
    let mut twin = Vec::new();
    for _ in 0..cycles {
        let (warm, measure) = split(unit * lane.main_weight());
        let w = lane.main(warm, measure, None);
        tally.window("main run", &w, lane.pool_size());
        main.push(w.rate);
        for (rates, &level) in by_level.iter_mut().zip(&levels) {
            if Some(level) == pinned_main {
                rates.push(w.rate);
                continue;
            }
            let (warm, measure) = split(unit);
            let f = lane.fixed(level, warm, measure);
            tally.window(&format!("fixed level {level}"), &f, level);
            rates.push(f.rate);
        }
        twin.push(lane.twin(secs(unit * TWIN_WEIGHT)));
    }

    let ratio = |num: &[f64], den: &[f64]| -> Vec<f64> {
        num.iter().zip(den).map(|(n, d)| n / d).collect()
    };
    let level_medians: Vec<f64> = levels
        .iter()
        .zip(&by_level)
        .map(|(level, rates)| cycle_median(&format!("tasks/s at fixed level {level}"), rates))
        .collect();
    let best = (0..levels.len())
        .max_by(|&a, &b| level_medians[a].total_cmp(&level_medians[b]))
        .expect("the level set is never empty");
    let speedup = cycle_median("main ÷ level 1", &ratio(&main, &by_level[0]));

    let mut m = MetricSet::end_to_end();
    m.set("setup_s", setup_s);
    m.set(
        "tasks_per_s",
        cycle_median("tasks/s of the main run", &main),
    );
    m.set(
        "overhead_x",
        cycle_median("twin ÷ main", &ratio(&twin, &main)),
    );
    m.set(
        "tuning_efficiency",
        cycle_median(
            &format!("main ÷ best fixed level ({})", levels[best]),
            &ratio(&main, &by_level[best]),
        ),
    );
    // One tenant: the Nash product of speed-ups and the worse-off
    // tenant's speed-up are both the speed-up over level 1.
    m.set("nash_speedup_product", speedup);
    m.set("min_tenant_speedup", speedup);
    let checks = lane.check();
    tally.finish(checks, m)
}

/// The traced pass: every per-layer metric, and the spans.
fn traced(lane: &mut dyn Lane, args: &RunArgs) -> (Outcome, Json) {
    let nproc = procfs::nproc();
    let pool = lane.pool_size();
    let mut m = MetricSet::per_layer();
    let mut tally = Tally::default();

    // 1. Untraced main run: the reference rate, the pool's own report,
    //    the STM counters and the process's CPU time.
    let (warm, measure) = split(args.seconds * 0.25);
    let meter = CpuMeter::start();
    let plain = lane.main(warm, measure, None);
    let (cpu, wall) = meter.stop();
    tally.window("untraced main run", &plain, pool);
    report_pool_layers(&mut m, &plain, pool, nproc);
    report_proc(&mut m, cpu, wall, plain.attempted, nproc);
    if let Some(delta) = plain.stm {
        report_stm(&mut m, &[delta]);
    }
    m.set(
        "controllers.decide_ns",
        decide_ns(&plain.report.trace, || lane.controller()),
    );
    let oversubscribed = plain.report.trace.points().iter().any(|p| p.level > nproc);
    m.set("host.oversubscribed", f64::from(u8::from(oversubscribed)));

    // 2. The fixed-level sweep, to place the controller's mean level.
    let sweep = level_set(nproc);
    let mut best = (0.0, 1u32);
    for &level in &sweep {
        let rate = if Some(level) == lane.main_level() {
            plain.rate
        } else {
            let (warm, measure) = split(args.seconds * 0.2 / sweep.len() as f64);
            let w = lane.fixed(level, warm, measure);
            tally.window(&format!("fixed level {level}"), &w, level);
            w.rate
        };
        if rate > best.0 {
            best = (rate, level);
        }
    }
    m.set(
        "controllers.level_error",
        (plain.report.trace.mean_level() - f64::from(best.1)).abs(),
    );

    // 3. Task cost with no pool around it, and the twin's.
    let twin_ns = 1e9 / lane.twin(secs(args.seconds * 0.1));
    m.set("baseline.task_ns", twin_ns);
    let direct_ns = lane.direct(secs(args.seconds * 0.1)).map(|rate| 1e9 / rate);
    if let Some(ns) = direct_ns {
        m.set("workloads.task_ns_direct", ns);
    }

    // 4. The traced main run.
    let (warm, measure) = split(args.seconds * 0.35);
    let tracer = Tracer::new();
    let traced = lane.main(warm, measure, Some(&tracer));
    let run_end = tracer.now_ns();
    tally.window("traced main run", &traced, pool);
    let body = lane
        .body_ns_per_task(twin_ns)
        .map(|ns| ns * traced.attempted as f64);
    let sum = tracer.summarize(body);
    let stm_share = match direct_ns {
        Some(direct) if direct > 0.0 => sum.task_share * (1.0 - twin_ns / direct).max(0.0),
        _ => 0.0,
    };
    let shares = [
        ("trace.task_share", sum.task_share),
        ("trace.parked_share", sum.parked_share),
        ("trace.pool_share", sum.pool_share),
        ("trace.decide_share", sum.decide_share),
        ("trace.stm_share_est", stm_share),
    ];
    for (name, v) in shares {
        m.set(name, v);
    }
    if let Err(e) = validate_shares(&shares) {
        tally.failures.push(format!("time budget: {e}"));
    }
    m.set(
        "trace.overhead_pct",
        100.0 * (1.0 - traced.rate / plain.rate),
    );
    m.set("workloads.task_p50_ns", sum.task_p50_ns);
    m.set("workloads.task_p99_ns", sum.task_p99_ns);
    m.set("runtime.gate_wake_us", sum.gate_wake_us);
    eprintln!(
        "traced run: {} tasks, {} sampled task spans, {} gate wakes, {} decisions",
        sum.tasks,
        sum.task_samples,
        sum.gate_wakes,
        tracer.decides().len()
    );

    lane.probes(&mut m);
    let began = u64::try_from(traced.began.duration_since(tracer.epoch()).as_nanos()).unwrap_or(0);
    let window = (began, began + (traced.secs * 1e9) as u64);
    let spans = tracer.spans_json(run_end, window);
    let checks = lane.check();
    (tally.finish(checks, m), spans)
}
