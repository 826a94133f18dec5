//! Benchmark-side spans: wrappers that time the calls the pool makes into
//! a workload and a controller, from outside both.
//!
//! [`TimedWorkload`] records, in its per-worker state (no shared writes
//! while the pool runs), a span per `run_task` and a span from each
//! `on_park` to the next `run_task`. [`TimedController`] times every
//! `decide()` on the monitor thread and logs `(round, sample, level)`.
//! Spans are kept in memory; [`Tracer::summarize`] turns them into the
//! per-layer time budget and [`Tracer::spans_json`] into the trace file.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rubic::controllers::{Controller, Sample};
use rubic::runtime::{PoolView, Workload};

use crate::json::Json;
use rubic::metrics::{median, percentile};

/// Task spans kept verbatim per worker for the trace file; every task is
/// still counted and timed into the worker's totals.
const SPANS_PER_WORKER: usize = 2_000;
/// Task durations kept per worker for the percentiles. When full, every
/// other sample is dropped and the sampling stride doubles, so the kept
/// set stays an even thinning of the whole run.
const SAMPLES_PER_WORKER: usize = 1 << 16;

/// One worker's record, handed to the [`Tracer`] when the worker exits.
#[derive(Debug, Default, Clone)]
pub struct WorkerRecord {
    pub tid: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tasks: u64,
    pub task_ns: u64,
    /// `(start, end)` of the first [`SPANS_PER_WORKER`] tasks.
    pub task_spans: Vec<(u64, u64)>,
    /// `(on_park, next run_task or exit)`.
    pub parks: Vec<(u64, u64)>,
    samples: Vec<u32>,
    stride: u64,
}

impl WorkerRecord {
    fn record_task(&mut self, start: u64, end: u64) {
        let dur = end.saturating_sub(start);
        self.tasks += 1;
        self.task_ns += dur;
        if self.task_spans.len() < SPANS_PER_WORKER {
            self.task_spans.push((start, end));
        }
        if self.tasks.is_multiple_of(self.stride) {
            self.samples.push(u32::try_from(dur).unwrap_or(u32::MAX));
            if self.samples.len() == SAMPLES_PER_WORKER {
                let mut keep = false;
                self.samples.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride *= 2;
            }
        }
    }
}

/// One timed `decide()` call.
#[derive(Debug, Clone, Copy)]
pub struct DecideRecord {
    pub start_ns: u64,
    pub end_ns: u64,
    pub sample: Sample,
    pub next_level: u32,
}

/// Shared sink and clock of one traced run.
pub struct Tracer {
    epoch: Instant,
    workers: Mutex<Vec<WorkerRecord>>,
    decides: Mutex<Vec<DecideRecord>>,
}

impl Tracer {
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            workers: Mutex::new(Vec::new()),
            decides: Mutex::new(Vec::new()),
        })
    }

    /// The instant span times count from.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since this tracer was made.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Worker records, one per tid (a worker rebuilt after a panic hands
    /// in two records; they are merged).
    ///
    /// Call after the pool has been stopped: a record arrives when its
    /// worker's state is dropped.
    #[must_use]
    pub fn workers(&self) -> Vec<WorkerRecord> {
        let mut by_tid: Vec<WorkerRecord> = Vec::new();
        let mut all = self
            .workers
            .lock()
            .expect("no worker panics holding the sink")
            .clone();
        all.sort_by_key(|w| (w.tid, w.start_ns));
        for w in all {
            match by_tid.last_mut() {
                Some(prev) if prev.tid == w.tid => {
                    prev.end_ns = w.end_ns;
                    prev.tasks += w.tasks;
                    prev.task_ns += w.task_ns;
                    prev.task_spans.extend(w.task_spans);
                    prev.parks.extend(w.parks);
                    prev.samples.extend(w.samples);
                }
                _ => by_tid.push(w),
            }
        }
        by_tid
    }

    /// Every `decide()` call, in order.
    #[must_use]
    pub fn decides(&self) -> Vec<DecideRecord> {
        self.decides
            .lock()
            .expect("monitor does not panic holding the log")
            .clone()
    }

    /// The per-layer time budget of the traced run.
    ///
    /// `body_ns`, when given, replaces the measured `run_task` time as the
    /// task-body time: the drain's `run_task` is mostly queue transport,
    /// so its body is estimated as items × the plain-loop cost per item.
    #[must_use]
    pub fn summarize(&self, body_ns: Option<f64>) -> TraceSummary {
        let workers = self.workers();
        let decides = self.decides();
        let worker_wall: f64 = workers
            .iter()
            .map(|w| w.end_ns.saturating_sub(w.start_ns) as f64)
            .sum();
        let run_start = workers.iter().map(|w| w.start_ns).min().unwrap_or(0);
        let run_end = workers.iter().map(|w| w.end_ns).max().unwrap_or(0);
        let run_wall = run_end.saturating_sub(run_start) as f64;
        let task_ns = body_ns.unwrap_or_else(|| workers.iter().map(|w| w.task_ns as f64).sum());
        let parked_ns: f64 = workers
            .iter()
            .flat_map(|w| &w.parks)
            .map(|&(a, b)| b.saturating_sub(a) as f64)
            .sum();
        let decide_ns: f64 = decides
            .iter()
            .map(|d| d.end_ns.saturating_sub(d.start_ns) as f64)
            .sum();
        let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
        let task_share = share(task_ns, worker_wall);
        let parked_share = share(parked_ns, worker_wall);

        let samples: Vec<f64> = workers
            .iter()
            .flat_map(|w| w.samples.iter().map(|&ns| f64::from(ns)))
            .collect();

        // Gate wake latency: for every decide() that raised the level, the
        // newly enabled tids were parked; each one's wait ends at its next
        // run_task, which closes the park span that was open at the raise.
        let mut wakes_us: Vec<f64> = Vec::new();
        for d in decides.iter().filter(|d| d.next_level > d.sample.level) {
            for tid in d.sample.level..d.next_level {
                let Some(w) = workers.iter().find(|w| w.tid == tid as usize) else {
                    continue;
                };
                if let Some(&(_, woke)) = w
                    .parks
                    .iter()
                    .find(|&&(a, b)| a <= d.end_ns && b > d.end_ns)
                {
                    wakes_us.push((woke - d.end_ns) as f64 / 1e3);
                }
            }
        }

        TraceSummary {
            task_share,
            parked_share,
            pool_share: (1.0 - task_share - parked_share).max(0.0),
            decide_share: share(decide_ns, run_wall),
            tasks: workers.iter().map(|w| w.tasks).sum(),
            task_p50_ns: percentile_or_zero(&samples, 50.0),
            task_p99_ns: percentile_or_zero(&samples, 99.0),
            task_samples: samples.len(),
            gate_wake_us: if wakes_us.is_empty() {
                0.0
            } else {
                median(&wakes_us)
            },
            gate_wakes: wakes_us.len(),
        }
    }

    /// The spans as a JSON array: `run → window → worker → task|parked`
    /// and `run → monitor → decide`, each `{id, parent, name, start_ns,
    /// end_ns, ...}`. `window` is the `(start, end)` the caller measured.
    #[must_use]
    pub fn spans_json(&self, run_end_ns: u64, window: (u64, u64)) -> Json {
        let mut spans = Vec::new();
        let mut next_id = 0u64;
        let mut span =
            |name: &str, parent: Option<u64>, start: u64, end: u64, extra: Vec<(&str, Json)>| {
                let id = next_id;
                next_id += 1;
                let mut pairs = vec![
                    ("id", Json::Int(id)),
                    ("parent", parent.map_or(Json::Null, Json::Int)),
                    ("name", Json::str(name)),
                    ("start_ns", Json::Int(start)),
                    ("end_ns", Json::Int(end)),
                ];
                pairs.extend(extra);
                spans.push(Json::obj(pairs));
                id
            };
        let run = span("run", None, 0, run_end_ns, vec![]);
        let win = span("window", Some(run), window.0, window.1, vec![]);
        for w in self.workers() {
            let extra = vec![
                ("tid", Json::Int(w.tid as u64)),
                ("tasks", Json::Int(w.tasks)),
                ("task_ns", Json::Int(w.task_ns)),
            ];
            let worker = span("worker", Some(win), w.start_ns, w.end_ns, extra);
            for &(a, b) in &w.task_spans {
                span("task", Some(worker), a, b, vec![]);
            }
            for &(a, b) in &w.parks {
                span("parked", Some(worker), a, b, vec![]);
            }
        }
        let decides = self.decides();
        if let (Some(first), Some(last)) = (decides.first(), decides.last()) {
            let monitor = span("monitor", Some(run), first.start_ns, last.end_ns, vec![]);
            for d in &decides {
                let extra = vec![
                    ("round", Json::Int(d.sample.round)),
                    ("sample", Json::Num(d.sample.throughput)),
                    ("level", Json::Int(u64::from(d.sample.level))),
                    ("next_level", Json::Int(u64::from(d.next_level))),
                ];
                span("decide", Some(monitor), d.start_ns, d.end_ns, extra);
            }
        }
        Json::Arr(spans)
    }
}

/// `percentile`, with 0 for a run that completed no task.
fn percentile_or_zero(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile(samples, p)
    }
}

/// What a traced run's spans add up to.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceSummary {
    /// Task-body time ÷ worker wall time summed over the pool.
    pub task_share: f64,
    /// Time between `on_park` and the next `run_task` ÷ the same.
    pub parked_share: f64,
    /// The rest of worker wall time: gate checks, counters, queue pops,
    /// steals, thread start and exit.
    pub pool_share: f64,
    /// Time inside `decide()` ÷ run wall time (one monitor thread).
    pub decide_share: f64,
    pub tasks: u64,
    pub task_p50_ns: f64,
    pub task_p99_ns: f64,
    pub task_samples: usize,
    /// Median of raise-to-first-task latencies; 0 with no wake observed.
    pub gate_wake_us: f64,
    pub gate_wakes: usize,
}

/// Checks the time budget: every share within `[0, 1]` and task plus
/// parked time no more than the workers' wall time (2 % slack for clock
/// reads that straddle a span boundary).
///
/// # Errors
/// Names the first share out of range.
pub fn validate_shares(shares: &[(&str, f64)]) -> Result<(), String> {
    for &(name, v) in shares {
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("{name} = {v} is outside [0, 1]"));
        }
    }
    let get = |key: &str| {
        shares
            .iter()
            .find(|(n, _)| *n == key)
            .map_or(0.0, |&(_, v)| v)
    };
    let busy = get("trace.task_share") + get("trace.parked_share");
    if busy > 1.02 {
        return Err(format!("task_share + parked_share = {busy} exceeds 1.02"));
    }
    Ok(())
}

/// A workload that delegates to `W` and times each call the pool makes.
pub struct TimedWorkload<W> {
    inner: W,
    tracer: Arc<Tracer>,
    tid_offset: usize,
}

impl<W> TimedWorkload<W> {
    pub fn new(inner: W, tracer: Arc<Tracer>) -> Self {
        Self::with_tid_offset(inner, tracer, 0)
    }

    /// Records worker `tid` as `tid + tid_offset`, so two pools can share
    /// one tracer without their workers' records merging.
    pub fn with_tid_offset(inner: W, tracer: Arc<Tracer>, tid_offset: usize) -> Self {
        TimedWorkload {
            inner,
            tracer,
            tid_offset,
        }
    }
}

/// `W`'s worker state plus this worker's spans.
pub struct TimedState<S> {
    inner: S,
    rec: WorkerRecord,
    parked_since: Option<u64>,
    tracer: Arc<Tracer>,
}

impl<S> Drop for TimedState<S> {
    fn drop(&mut self) {
        let now = self.tracer.now_ns();
        self.rec.end_ns = now;
        if let Some(since) = self.parked_since.take() {
            self.rec.parks.push((since, now));
        }
        // A poisoned sink means another worker panicked while handing in
        // its record; losing this one as well is all that can be done.
        if let Ok(mut sink) = self.tracer.workers.lock() {
            sink.push(std::mem::take(&mut self.rec));
        }
    }
}

impl<W: Workload> Workload for TimedWorkload<W> {
    type WorkerState = TimedState<W::WorkerState>;

    fn init_worker(&self, tid: usize) -> Self::WorkerState {
        TimedState {
            inner: self.inner.init_worker(tid),
            rec: WorkerRecord {
                tid: tid + self.tid_offset,
                start_ns: self.tracer.now_ns(),
                stride: 1,
                ..WorkerRecord::default()
            },
            parked_since: None,
            tracer: Arc::clone(&self.tracer),
        }
    }

    fn run_task(&self, state: &mut Self::WorkerState) {
        let start = self.tracer.now_ns();
        if let Some(since) = state.parked_since.take() {
            state.rec.parks.push((since, start));
        }
        self.inner.run_task(&mut state.inner);
        state.rec.record_task(start, self.tracer.now_ns());
    }

    fn attach(&self, view: PoolView) {
        self.inner.attach(view);
    }

    fn on_park(&self, state: &mut Self::WorkerState) {
        self.inner.on_park(&mut state.inner);
        // The worker loop calls on_park again each time its bounded wait
        // times out; the span starts at the first call.
        if state.parked_since.is_none() {
            state.parked_since = Some(self.tracer.now_ns());
        }
    }

    fn drain_aborts(&self, state: &mut Self::WorkerState) -> u64 {
        self.inner.drain_aborts(&mut state.inner)
    }

    fn steal_locality(&self) -> Option<(u64, u64)> {
        self.inner.steal_locality()
    }
}

/// A controller that delegates to another and times every decision.
pub struct TimedController {
    inner: Box<dyn Controller>,
    tracer: Arc<Tracer>,
}

impl TimedController {
    pub fn new(inner: Box<dyn Controller>, tracer: Arc<Tracer>) -> Self {
        TimedController { inner, tracer }
    }
}

impl Controller for TimedController {
    fn decide(&mut self, sample: Sample) -> u32 {
        let start_ns = self.tracer.now_ns();
        let next_level = self.inner.decide(sample);
        let end_ns = self.tracer.now_ns();
        if let Ok(mut log) = self.tracer.decides.lock() {
            log.push(DecideRecord {
                start_ns,
                end_ns,
                sample,
                next_level,
            });
        }
        next_level
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn max_level(&self) -> u32 {
        self.inner.max_level()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubic::controllers::Fixed;
    use rubic::runtime::{MalleablePool, PoolConfig};
    use std::time::Duration;

    #[test]
    fn share_validator_accepts_a_budget_and_rejects_overruns() {
        let ok = [
            ("trace.task_share", 0.7),
            ("trace.parked_share", 0.31),
            ("trace.pool_share", 0.0),
        ];
        assert_eq!(validate_shares(&ok), Ok(()));
        let over = [("trace.task_share", 0.8), ("trace.parked_share", 0.3)];
        assert!(validate_shares(&over).unwrap_err().contains("exceeds"));
        assert!(validate_shares(&[("trace.pool_share", -0.01)]).is_err());
        assert!(validate_shares(&[("trace.decide_share", 1.5)]).is_err());
        assert!(validate_shares(&[("trace.decide_share", f64::NAN)]).is_err());
    }

    #[test]
    fn sample_thinning_keeps_an_even_subset() {
        let mut rec = WorkerRecord {
            stride: 1,
            ..WorkerRecord::default()
        };
        for i in 0..(SAMPLES_PER_WORKER as u64 * 3) {
            rec.record_task(i, i + 10);
        }
        assert_eq!(rec.tasks, SAMPLES_PER_WORKER as u64 * 3);
        assert_eq!(rec.task_ns, rec.tasks * 10);
        assert!(rec.samples.len() < SAMPLES_PER_WORKER);
        assert!(rec.samples.len() >= SAMPLES_PER_WORKER / 2);
        assert_eq!(rec.stride, 4);
        assert_eq!(rec.task_spans.len(), SPANS_PER_WORKER);
    }

    struct Spin;
    impl Workload for Spin {
        type WorkerState = ();
        fn init_worker(&self, _tid: usize) {}
        fn run_task(&self, (): &mut ()) {
            std::hint::black_box((0..500u64).fold(0u64, |a, b| a.wrapping_add(b)));
        }
    }

    /// Raises the level from 1 to 2 at round 5 and holds it.
    struct RaiseOnce;
    impl Controller for RaiseOnce {
        fn decide(&mut self, sample: Sample) -> u32 {
            if sample.round >= 5 {
                2
            } else {
                1
            }
        }
        fn reset(&mut self) {}
        fn max_level(&self) -> u32 {
            2
        }
        fn name(&self) -> &'static str {
            "raise-once"
        }
    }

    #[test]
    fn a_traced_pool_run_yields_a_consistent_budget_and_a_wake() {
        let tracer = Tracer::new();
        let pool = MalleablePool::start(
            PoolConfig::new(2).monitor_period(Duration::from_millis(2)),
            TimedWorkload::new(Spin, Arc::clone(&tracer)),
            Box::new(TimedController::new(
                Box::new(RaiseOnce),
                Arc::clone(&tracer),
            )),
        );
        std::thread::sleep(Duration::from_millis(60));
        let report = pool.stop();
        let sum = tracer.summarize(None);
        assert_eq!(sum.tasks, report.total_tasks);
        assert!(sum.task_share > 0.0 && sum.parked_share > 0.0);
        assert_eq!(
            validate_shares(&[
                ("trace.task_share", sum.task_share),
                ("trace.parked_share", sum.parked_share),
                ("trace.pool_share", sum.pool_share),
                ("trace.decide_share", sum.decide_share),
            ]),
            Ok(())
        );
        // Worker 1 starts parked (level 1) and is woken by the raise.
        assert_eq!(sum.gate_wakes, 1);
        assert!(sum.gate_wake_us > 0.0);
        assert!(tracer.decides().len() >= 5);
        let Json::Arr(spans) = tracer.spans_json(tracer.now_ns(), (0, tracer.now_ns())) else {
            panic!("spans are an array");
        };
        let named = |n: &str| {
            spans
                .iter()
                .filter(|s| s.compact().contains(&format!("\"name\":\"{n}\"")))
                .count()
        };
        assert_eq!(named("run"), 1);
        assert_eq!(named("worker"), 2);
        assert_eq!(named("monitor"), 1);
        assert!(named("task") > 0 && named("parked") > 0 && named("decide") >= 5);
    }

    #[test]
    fn fixed_controller_is_passed_through() {
        let tracer = Tracer::new();
        let mut c = TimedController::new(Box::new(Fixed::new(3, 4)), Arc::clone(&tracer));
        assert_eq!(c.max_level(), 4);
        assert_eq!(c.name(), "Fixed");
        let s = Sample {
            throughput: 1.0,
            level: 1,
            round: 0,
        };
        assert_eq!(c.decide(s), 3);
        assert_eq!(tracer.decides().len(), 1);
    }
}
