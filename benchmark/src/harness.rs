//! Shared measuring tools: timed pool windows, timed plain loops, set-up
//! timing, and the accumulators every workload reports through.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rubic::controllers::Controller;
use rubic::metrics::LevelTrace;
use rubic::runtime::{MalleablePool, PoolConfig, PoolView, RunReport, Workload};
use rubic::stm::{AbortReason, StatsSnapshot, StmStats};

use crate::procfs;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats;
use rubic::metrics::median;

/// What the command line asks of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the measured phase (set-up comes before and is extra).
    pub seconds: f64,
    /// `false`: end-to-end metrics with no tracing. `true`: the traced
    /// run and the per-layer metrics.
    pub trace: bool,
}

/// A workload run's result.
pub struct Outcome {
    pub metrics: MetricSet,
    /// Tasks counted in measured windows (items for the drain, simulated
    /// process-rounds for the simulator).
    pub attempted: u64,
    /// Worker panics, lost or duplicated items, and every task of a run
    /// whose output check failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Outcome {
    /// A run's result from what its windows tallied. A failed output
    /// check implicates every task of the run; otherwise only the tasks
    /// that panicked failed.
    pub fn new(metrics: MetricSet, attempted: u64, panics: u64, failures: Vec<String>) -> Self {
        let attempted = attempted.max(1);
        Outcome {
            metrics,
            attempted,
            failed: if failures.is_empty() {
                panics
            } else {
                attempted
            },
            failures,
        }
    }
}

/// Values for one of the two metric tables, by name.
pub struct MetricSet {
    defs: &'static [MetricSpec],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    #[must_use]
    pub fn end_to_end() -> Self {
        MetricSet {
            defs: &END_TO_END,
            values: vec![None; END_TO_END.len()],
        }
    }

    #[must_use]
    pub fn per_layer() -> Self {
        MetricSet {
            defs: &PER_LAYER,
            values: vec![None; PER_LAYER.len()],
        }
    }

    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics on a name the table does not hold — a typo in this program.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the table"));
        self.values[slot] = Some(value);
    }

    /// Every metric of the table with its value. A per-layer metric a
    /// workload does not exercise reads 0 (the layer did nothing); an
    /// end-to-end metric must have been measured, non-zero and finite.
    ///
    /// # Errors
    /// Names the first end-to-end metric that is missing, zero or not
    /// finite, or the first per-layer value that is not finite.
    pub fn finish(&self) -> Result<Vec<(&'static MetricSpec, f64)>, String> {
        let strict = self.defs.iter().any(|d| d.bound.is_some());
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(def, value)| match *value {
                Some(v) if !v.is_finite() => Err(format!("{} is not finite ({v})", def.name)),
                Some(v) if strict && v == 0.0 => Err(format!("{} measured 0", def.name)),
                Some(v) => Ok((def, v)),
                None if strict => Err(format!("{} was not measured", def.name)),
                None => Ok((def, 0.0)),
            })
            .collect()
    }
}

/// The parallelism levels a fixed-level sweep visits: powers of two up
/// to `nproc`, and `nproc` itself. That is all of `1..=nproc` on hosts
/// of up to three cores; above that the sweep is thinned so a cycle stays
/// short.
#[must_use]
pub fn level_set(nproc: u32) -> Vec<u32> {
    let mut levels: Vec<u32> = std::iter::successors(Some(1u32), |l| l.checked_mul(2))
        .take_while(|&l| l < nproc)
        .collect();
    levels.push(nproc.max(1));
    levels
}

/// How often a run's task counter is read, by whether its level can
/// move. A window's rate is the **median of its ticks' rates**: on a
/// shared host interference comes in bursts of a tenth of a second to a
/// second, most short ticks miss them, and their median holds still
/// where the mean of the window does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampling {
    /// The level is pinned (a `Fixed` or `EqualShare` pool, a plain
    /// loop): the rate is stationary and the ticks can be short.
    Pinned,
    /// A live controller moves the level. RUBIC changes it every round or
    /// two on a small host, so a tick of ten monitor rounds averages over
    /// the oscillation and its rate is the run's, not one level's.
    Moving,
}

impl Sampling {
    #[must_use]
    pub fn tick(self) -> Duration {
        match self {
            Sampling::Pinned => Duration::from_millis(25),
            Sampling::Moving => Duration::from_millis(100),
        }
    }
}

/// One measured interval of a running pool.
pub struct Window {
    /// Tasks per second over the interval: the median of its ticks' rates.
    pub rate: f64,
    /// Wall time of the interval.
    pub secs: f64,
    /// Tasks the whole run completed, warm-up included.
    pub attempted: u64,
    /// When the first of those reads was taken.
    pub began: Instant,
    /// STM counters over the same interval, when a source was given.
    pub stm: Option<StatsSnapshot>,
    pub start_ms: f64,
    pub stop_ms: f64,
    pub report: RunReport,
}

/// Reads a task counter once per `tick` for `dur` and returns the rate
/// of each tick and the time sampled.
pub fn sample_ticks(
    dur: Duration,
    tick: Duration,
    mut count: impl FnMut() -> u64,
) -> (Vec<f64>, f64) {
    let began = Instant::now();
    let (mut at, mut seen) = (began, count());
    let mut ticks = Vec::new();
    while began.elapsed() < dur {
        std::thread::sleep(tick);
        let (now, n) = (Instant::now(), count());
        ticks.push((n - seen) as f64 / now.duration_since(at).as_secs_f64());
        (at, seen) = (now, n);
    }
    (ticks, at.duration_since(began).as_secs_f64())
}

/// A per-worker task counter on its own cache line: written by one worker,
/// read by the sampler.
#[repr(align(128))]
#[derive(Default)]
struct PaddedCount(AtomicU64);

/// A workload that delegates to `W` and counts completed tasks where the
/// benchmark can read them while someone else owns the pool — the tenants
/// of a `Colocation`, a `measure_sequential` run.
pub struct Counted<W> {
    inner: W,
    counts: Arc<[PaddedCount]>,
}

/// The reading end of a [`Counted`] workload.
pub struct TaskCounter(Arc<[PaddedCount]>);

impl TaskCounter {
    /// Tasks completed so far by all workers.
    #[must_use]
    pub fn total(&self) -> u64 {
        // Relaxed: a statistic; it publishes no other data.
        self.0.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

impl<W> Counted<W> {
    /// Wraps `inner` for a pool of `workers`.
    pub fn new(inner: W, workers: u32) -> (Self, TaskCounter) {
        let counts: Arc<[PaddedCount]> = (0..workers).map(|_| PaddedCount::default()).collect();
        (
            Counted {
                inner,
                counts: Arc::clone(&counts),
            },
            TaskCounter(counts),
        )
    }
}

impl<W: Workload> Workload for Counted<W> {
    type WorkerState = (usize, W::WorkerState);

    fn init_worker(&self, tid: usize) -> Self::WorkerState {
        (tid, self.inner.init_worker(tid))
    }

    fn run_task(&self, (tid, state): &mut Self::WorkerState) {
        self.inner.run_task(state);
        // Single writer per slot, so load-then-store; Relaxed as above.
        let slot = &self.counts[*tid].0;
        slot.store(slot.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    fn attach(&self, view: PoolView) {
        self.inner.attach(view);
    }

    fn on_park(&self, (_, state): &mut Self::WorkerState) {
        self.inner.on_park(state);
    }

    fn drain_aborts(&self, (_, state): &mut Self::WorkerState) -> u64 {
        self.inner.drain_aborts(state)
    }

    fn steal_locality(&self) -> Option<(u64, u64)> {
        self.inner.steal_locality()
    }
}

/// Runs `body` on a second thread and meanwhile reads each counter once
/// per `tick`; returns `body`'s result and, per counter, the rate of each
/// tick. The tick during which `body` returned is dropped: it holds the
/// pools' shutdown.
pub fn ticks_during<R: Send>(
    tick: Duration,
    counters: &[&TaskCounter],
    body: impl FnOnce() -> R + Send,
) -> (R, Vec<Vec<f64>>) {
    std::thread::scope(|scope| {
        let running = scope.spawn(body);
        let mut ticks = vec![Vec::new(); counters.len()];
        let mut at = Instant::now();
        let mut seen: Vec<u64> = counters.iter().map(|c| c.total()).collect();
        loop {
            std::thread::sleep(tick);
            let now = Instant::now();
            let counts: Vec<u64> = counters.iter().map(|c| c.total()).collect();
            if running.is_finished() {
                break;
            }
            let dt = now.duration_since(at).as_secs_f64();
            for ((sink, &n), &before) in ticks.iter_mut().zip(&counts).zip(&seen) {
                sink.push((n - before) as f64 / dt);
            }
            (at, seen) = (now, counts);
        }
        let result = running.join().expect("the measured run does not panic");
        (result, ticks)
    })
}

/// Starts a pool over `workload`, lets it warm up, samples the tasks it
/// completes over `measure`, stops it.
pub fn pool_window<W: Workload>(
    workload: W,
    cfg: PoolConfig,
    controller: Box<dyn Controller>,
    stm: Option<&StmStats>,
    (warmup, measure, sampling): (Duration, Duration, Sampling),
) -> Window {
    let t = Instant::now();
    let pool = MalleablePool::start(cfg, workload, controller);
    let start_ms = t.elapsed().as_secs_f64() * 1e3;
    std::thread::sleep(warmup);
    let stm_before = stm.map(StmStats::snapshot);
    let t0 = Instant::now();
    let (ticks, secs) = sample_ticks(measure, sampling.tick(), || pool.total_tasks());
    let stm_delta = stm
        .zip(stm_before)
        .map(|(s, b)| s.snapshot().delta_since(&b));
    let t = Instant::now();
    let report = pool.stop();
    Window {
        rate: median(&ticks),
        secs,
        attempted: report.total_tasks,
        began: t0,
        stm: stm_delta,
        start_ms,
        stop_ms: t.elapsed().as_secs_f64() * 1e3,
        report,
    }
}

/// A pool of exactly `level` workers, all active, under `Fixed`.
#[must_use]
pub fn fixed_pool(level: u32) -> (PoolConfig, Box<dyn Controller>) {
    (
        PoolConfig::new(level).initial_level(level),
        Box::new(rubic::controllers::Fixed::new(level, level)),
    )
}

/// Calls `task` in a plain loop on this thread for about `dur`; returns
/// `(calls, seconds)`. The clock is read once per `batch` calls.
pub fn timed_loop(dur: Duration, batch: u32, mut task: impl FnMut()) -> (u64, f64) {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..batch {
            task();
        }
        calls += u64::from(batch);
        let elapsed = start.elapsed();
        if elapsed >= dur {
            return (calls, elapsed.as_secs_f64());
        }
    }
}

/// Calls `task` in a plain loop on this thread for about `dur` and returns
/// its call rate, sampled as a pinned run's.
pub fn loop_rate(dur: Duration, batch: u32, mut task: impl FnMut()) -> f64 {
    let began = Instant::now();
    let mut ticks = Vec::new();
    while began.elapsed() < dur {
        let (calls, secs) = timed_loop(Sampling::Pinned.tick(), batch, &mut task);
        ticks.push(calls as f64 / secs);
    }
    median(&ticks)
}

/// Times `setup` at least three times, and for at least 3 % of the run's
/// `seconds` in all (capped at 200 runs), and returns the median with the
/// last product. A set-up of microseconds needs the many repetitions for
/// its median to hold still; one of a tenth of a second gets about six.
pub fn time_setup<T>(seconds: f64, mut setup: impl FnMut() -> T) -> (f64, T) {
    let budget = secs(seconds * 0.03);
    let began = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let product = setup();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= 200 || (times.len() >= 3 && began.elapsed() >= budget) {
            return (median(&times), product);
        }
        drop(product);
    }
}

/// Median of a series of per-cycle values, with the series' quartiles
/// and count noted on stderr — a median alone hides how steady it was.
#[must_use]
pub fn cycle_median(what: &str, values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() >= 2 {
        let [q1, _, q3] = stats::quartiles(values);
        eprintln!(
            "  {what}: median {m:.6} quartiles [{q1:.6}, {q3:.6}] over {} cycles {values:.4?}",
            values.len()
        );
    }
    m
}

/// Splits a measured phase of `seconds` into whole cycles of about
/// `target` seconds each (at least two) and returns `(cycles, seconds
/// per cycle)`.
#[must_use]
pub fn plan_cycles(seconds: f64, target: f64) -> (u32, f64) {
    let cycles = ((seconds / target).round() as u32).max(2);
    (cycles, seconds / f64::from(cycles))
}

#[must_use]
pub fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

/// The `stm.*` counter metrics from the STM's own counters over a run,
/// summed over the tenants' STM instances.
pub fn report_stm(m: &mut MetricSet, deltas: &[StatsSnapshot]) {
    let sum = |field: fn(&StatsSnapshot) -> u64| deltas.iter().map(field).sum::<u64>() as f64;
    let (commits, aborts) = (sum(|d| d.commits), sum(|d| d.aborts));
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    m.set("stm.commits", commits);
    m.set("stm.aborts", aborts);
    m.set("stm.abort_ratio", share(aborts, commits + aborts));
    for reason in [
        AbortReason::ReadValidation,
        AbortReason::LockBusy,
        AbortReason::Explicit,
    ] {
        let count: u64 = deltas
            .iter()
            .map(|d| d.abort_reasons[reason.code() as usize])
            .sum();
        m.set(&format!("stm.aborts.{}", reason.name()), count as f64);
    }
    m.set("stm.reads_per_commit", share(sum(|d| d.reads), commits));
    m.set("stm.writes_per_commit", share(sum(|d| d.writes), commits));
    m.set("stm.ro_commit_share", share(sum(|d| d.ro_commits), commits));
}

/// Checks a pool run's report: no panicked task, and every trace point's
/// level within `[1, pool size]`. Returns one line per violation.
#[must_use]
pub fn check_report(what: &str, report: &RunReport, pool_size: u32) -> Vec<String> {
    let mut failures = Vec::new();
    if report.worker_panics > 0 {
        failures.push(format!("{what}: {} task(s) panicked", report.worker_panics));
    }
    if let Some(p) = report
        .trace
        .points()
        .iter()
        .find(|p| p.level < 1 || p.level > pool_size)
    {
        failures.push(format!(
            "{what}: level {} at round {} is outside [1, {pool_size}]",
            p.level, p.round
        ));
    }
    failures
}

/// Runtime and controller metrics read off one pool run's report.
pub fn report_pool_layers(m: &mut MetricSet, w: &Window, pool_size: u32, nproc: u32) {
    let r = &w.report;
    let elapsed = r.elapsed.as_secs_f64();
    let mean_level = r.trace.mean_level();
    m.set("runtime.start_ms", w.start_ms);
    m.set("runtime.stop_ms", w.stop_ms);
    m.set("runtime.worker_panics", r.worker_panics as f64);
    m.set("runtime.stall_warnings", r.stall_warnings as f64);
    m.set(
        "runtime.park_share",
        1.0 - mean_level / f64::from(pool_size),
    );
    if elapsed > 0.0 {
        m.set("runtime.rounds_per_s", r.trace.len() as f64 / elapsed);
        m.set(
            "controllers.level_changes_per_s",
            level_changes(&r.trace) as f64 / elapsed,
        );
    }
    // Imbalance among the workers the mean level kept active.
    let active = (mean_level.floor() as usize).clamp(1, r.per_worker.len().max(1));
    let busy = &r.per_worker[..active.min(r.per_worker.len())];
    if let (Some(&max), Some(&min)) = (busy.iter().max(), busy.iter().min()) {
        m.set("runtime.worker_imbalance", max as f64 / min.max(1) as f64);
    }
    m.set("controllers.mean_level", mean_level);
    m.set("controllers.level_stddev", r.trace.level_stddev());
    m.set("controllers.oversub_share", oversub_share(&r.trace, nproc));
    m.set("host.pool_size", f64::from(pool_size));
}

/// Rounds at which the level differs from the round before.
#[must_use]
pub fn level_changes(trace: &LevelTrace) -> usize {
    trace
        .points()
        .windows(2)
        .filter(|w| w[0].level != w[1].level)
        .count()
}

/// Share of monitor rounds spent at a level above the host's core count.
#[must_use]
pub fn oversub_share(trace: &LevelTrace, nproc: u32) -> f64 {
    if trace.is_empty() {
        return 0.0;
    }
    let over = trace.points().iter().filter(|p| p.level > nproc).count();
    over as f64 / trace.len() as f64
}

/// Replays a recorded sample series through a fresh controller and
/// returns nanoseconds per `decide()`.
pub fn decide_ns(trace: &LevelTrace, mut fresh: impl FnMut() -> Box<dyn Controller>) -> f64 {
    let samples: Vec<rubic::controllers::Sample> = trace
        .points()
        .iter()
        .map(|p| rubic::controllers::Sample {
            throughput: p.throughput,
            level: p.level,
            round: p.round,
        })
        .collect();
    if samples.is_empty() {
        return 0.0;
    }
    let mut controller = fresh();
    let (calls, secs) = timed_loop(Duration::from_millis(50), 1, || {
        controller.reset();
        for &s in &samples {
            std::hint::black_box(controller.decide(s));
        }
    });
    secs * 1e9 / (calls as f64 * samples.len() as f64)
}

/// Process-level context for a measured interval.
pub fn report_proc(m: &mut MetricSet, cpu_secs: f64, wall_secs: f64, tasks: u64, nproc: u32) {
    if tasks > 0 {
        m.set("proc.cpu_us_per_task", cpu_secs * 1e6 / tasks as f64);
    }
    if wall_secs > 0.0 {
        m.set("proc.cpu_util", cpu_secs / wall_secs / f64::from(nproc));
    }
    m.set("proc.peak_rss_mb", procfs::peak_rss_mb().unwrap_or(0.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_sets() {
        assert_eq!(level_set(1), [1]);
        assert_eq!(level_set(2), [1, 2]);
        assert_eq!(level_set(3), [1, 2, 3]);
        assert_eq!(level_set(4), [1, 2, 4]);
        assert_eq!(level_set(6), [1, 2, 4, 6]);
        assert_eq!(level_set(64), [1, 2, 4, 8, 16, 32, 64]);
    }

    #[test]
    fn cycles_fill_the_measured_phase() {
        let (n, each) = plan_cycles(12.0, 2.5);
        assert_eq!(n, 5);
        assert!((f64::from(n) * each - 12.0).abs() < 1e-9);
        assert_eq!(plan_cycles(0.5, 2.5).0, 2);
    }

    #[test]
    fn end_to_end_metrics_must_all_be_measured_and_non_zero() {
        let mut m = MetricSet::end_to_end();
        assert!(m.finish().unwrap_err().contains("not measured"));
        for d in &END_TO_END {
            m.set(d.name, 1.5);
        }
        assert_eq!(m.finish().unwrap().len(), END_TO_END.len());
        m.set("overhead_x", 0.0);
        assert!(m.finish().unwrap_err().contains("measured 0"));
        m.set("overhead_x", f64::NAN);
        assert!(m.finish().unwrap_err().contains("not finite"));
    }

    #[test]
    fn per_layer_metrics_default_to_zero() {
        let mut m = MetricSet::per_layer();
        m.set("stm.commits", 10.0);
        let all = m.finish().unwrap();
        assert_eq!(all.len(), PER_LAYER.len());
        let set: Vec<_> = all.iter().filter(|(_, v)| *v != 0.0).collect();
        assert_eq!(set.len(), 1);
        assert_eq!((set[0].0.name, set[0].1), ("stm.commits", 10.0));
    }

    #[test]
    fn setup_timer_runs_at_least_three_times_and_at_most_its_cap() {
        let mut runs = 0;
        let (median, last) = time_setup(0.0, || {
            runs += 1;
            runs
        });
        assert_eq!((runs, last), (3, 3));
        assert!(median >= 0.0);
        let (_, last) = time_setup(60.0, || {
            runs += 1;
            runs
        });
        assert_eq!(last, 203);
    }

    #[test]
    fn timed_loop_counts_whole_batches() {
        let mut n = 0u64;
        let (calls, secs) = timed_loop(Duration::from_millis(5), 8, || n += 1);
        assert_eq!(calls, n);
        assert_eq!(calls % 8, 0);
        assert!(secs >= 0.005);
    }
}
