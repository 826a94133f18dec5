//! `colocated_pair`: the paper's title scenario in vivo. Two tenants —
//! Intruder and Vacation-low — each with its own pool of `nproc` workers
//! and its own RUBIC, sharing the host through the OS scheduler and
//! nothing else.
//!
//! Every window builds its tenants afresh. Both workloads carry state
//! from one run into the next — Intruder a backlog of packets and open
//! sessions that a following run must first work off, Vacation customer
//! records that grow and slow every reservation — so on shared instances
//! a window would measure what the window before it left behind. From
//! identical initial state every window is the same experiment.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rubic::controllers::{Policy, PolicyConfig};
use rubic::metrics::{geometric_mean, jain_index, median};
use rubic::runtime::Workload;
use rubic::stm::{StatsSnapshot, Stm};
use rubic::workloads::{IntruderConfig, IntruderWorkload, VacationConfig, VacationWorkload};
use rubic::{measure_sequential, Colocation, ColocationReport, Tenant, TenantSpec};

use super::stm_lane::check_vacation;
use crate::baseline::{IntruderTwin, VacationTwin};
use crate::harness::{
    check_report, cycle_median, level_changes, loop_rate, plan_cycles, report_proc, report_stm,
    secs, ticks_during, time_setup, Counted, MetricSet, Outcome, RunArgs, Sampling,
};
use crate::json::Json;
use crate::procfs::{self, CpuMeter};
use crate::stats::mean;
use crate::timed::{validate_shares, TimedWorkload, Tracer};

const TENANTS: [&str; 2] = ["intruder", "vacation"];

fn intruder_cfg(seed: u64) -> IntruderConfig {
    IntruderConfig {
        seed,
        ..IntruderConfig::paper()
    }
}

fn vacation_cfg(seed: u64) -> VacationConfig {
    VacationConfig {
        seed,
        ..VacationConfig::low_contention(16_384)
    }
}

fn build_intruder(seed: u64) -> Arc<IntruderWorkload> {
    Arc::new(IntruderWorkload::new(intruder_cfg(seed), Stm::default()))
}

fn build_vacation(seed: u64) -> Arc<VacationWorkload> {
    Arc::new(VacationWorkload::new(vacation_cfg(seed), Stm::default()))
}

/// Every detected attack is a completed flow, and the generator plants a
/// signature in 10 % of flows (five standard deviations of the binomial
/// is under 5 points from 1000 flows on).
fn check_intruder(w: &IntruderWorkload) -> Vec<String> {
    let (attacks, flows) = (w.attacks_found(), w.flows_completed());
    let share = attacks as f64 / flows.max(1) as f64;
    if attacks > flows || flows == 0 || (flows >= 1000 && !(0.05..=0.15).contains(&share)) {
        vec![format!(
            "intruder: {attacks} attacks found in {flows} completed flows"
        )]
    } else {
        Vec::new()
    }
}

/// One co-located run.
struct Colocated {
    report: ColocationReport,
    /// Wall time of `Colocation::run`.
    wall: f64,
    /// Each tenant's rate after the warm-up fifth of the run.
    rates: [f64; 2],
    /// Each tenant's STM counters over the run.
    stm: [StatsSnapshot; 2],
}

/// The run's seed and host, and the tally of what its windows did.
struct Scene {
    seed: u64,
    nproc: u32,
    attempted: u64,
    panics: u64,
    failures: Vec<String>,
}

impl Scene {
    fn new(seed: u64) -> Self {
        Scene {
            seed,
            nproc: procfs::nproc(),
            attempted: 0,
            panics: 0,
            failures: Vec::new(),
        }
    }

    /// Fresh tenants together for `dur` under `policy`, their completed
    /// tasks sampled from outside; with a tracer, each workload also
    /// wrapped in the timing shim (tids of the second tenant follow the
    /// first's).
    fn colocate(
        &mut self,
        policy: Policy,
        dur: Duration,
        tracer: Option<&Arc<Tracer>>,
    ) -> Colocated {
        let cfg = PolicyConfig {
            hw_contexts: self.nproc,
            pool_size: self.nproc,
            ..PolicyConfig::paper(2)
        };
        let sampling = match policy {
            Policy::EqualShare | Policy::Fixed(_) => Sampling::Pinned,
            _ => Sampling::Moving,
        };
        let spec = |name: &str| TenantSpec::new(name, self.nproc, policy).policy_config(cfg);
        let (intruder, vacation) = (build_intruder(self.seed), build_vacation(self.seed));
        let stats = [intruder.stm().stats(), vacation.stm().stats()];
        let before = stats.map(rubic::stm::StmStats::snapshot);
        let (counted_i, count_i) = Counted::new(Arc::clone(&intruder), self.nproc);
        let (counted_v, count_v) = Counted::new(Arc::clone(&vacation), self.nproc);
        let colocation = Colocation::new(dur);
        let colocation = match tracer {
            None => colocation
                .tenant(Tenant::new(spec(TENANTS[0]), counted_i))
                .tenant(Tenant::new(spec(TENANTS[1]), counted_v)),
            Some(t) => colocation
                .tenant(Tenant::new(
                    spec(TENANTS[0]),
                    TimedWorkload::new(counted_i, Arc::clone(t)),
                ))
                .tenant(Tenant::new(
                    spec(TENANTS[1]),
                    TimedWorkload::with_tid_offset(counted_v, Arc::clone(t), self.nproc as usize),
                )),
        };
        let ((report, wall), ticks) = ticks_during(sampling.tick(), &[&count_i, &count_v], || {
            let t = Instant::now();
            let report = colocation.run();
            (report, t.elapsed().as_secs_f64())
        });
        for tenant in &report.tenants {
            self.attempted += tenant.report.total_tasks;
            self.panics += tenant.report.worker_panics;
            self.failures
                .extend(check_report(&tenant.name, &tenant.report, self.nproc));
        }
        self.failures.extend(check_intruder(&intruder));
        self.failures.extend(check_vacation(&vacation));
        let whole = tenant_rates(&report);
        Colocated {
            rates: [0, 1].map(|i| rate_after_warm_up(&ticks[i], whole[i])),
            stm: [0, 1].map(|i| stats[i].snapshot().delta_since(&before[i])),
            report,
            wall,
        }
    }

    /// Each tenant, fresh, alone on one thread (`measure_sequential`),
    /// sampled from outside: `[intruder, vacation]` rates.
    fn sequential(&mut self, dur: [Duration; 2]) -> [f64; 2] {
        fn alone<W: Workload>(workload: &Arc<W>, dur: Duration) -> f64 {
            let (counted, counter) = Counted::new(Arc::clone(workload), 1);
            let tick = Sampling::Pinned.tick();
            let (whole, ticks) =
                ticks_during(tick, &[&counter], || measure_sequential(counted, dur));
            rate_after_warm_up(&ticks[0], whole)
        }
        let (intruder, vacation) = (build_intruder(self.seed), build_vacation(self.seed));
        let rates = [alone(&intruder, dur[0]), alone(&vacation, dur[1])];
        self.failures.extend(check_intruder(&intruder));
        self.failures.extend(check_vacation(&vacation));
        rates
    }

    fn finish(self, metrics: MetricSet) -> Outcome {
        Outcome::new(metrics, self.attempted, self.panics, self.failures)
    }
}

/// A run's rate from its ticks with the first fifth dropped as warm-up;
/// `whole`, the run's own figure, where it was shorter than two ticks.
fn rate_after_warm_up(ticks: &[f64], whole: f64) -> f64 {
    let skip = (ticks.len() as f64 * 0.2).ceil() as usize;
    match ticks.get(skip..) {
        Some(kept) if !kept.is_empty() => median(kept),
        _ => whole,
    }
}

fn tenant_rates(report: &ColocationReport) -> [f64; 2] {
    TENANTS.map(|name| {
        report
            .tenants
            .iter()
            .find(|t| t.name == name)
            .map_or(0.0, rubic::TenantReport::throughput)
    })
}

/// Relative window lengths within a cycle. The tuned run is the noisy
/// one and gets the most time; vacation alone needs longer than intruder
/// alone to get past its first, fastest tenth of a second.
const W_RUBIC: f64 = 3.2;
const W_EQUAL: f64 = 1.6;
const W_SEQ: [f64; 2] = [0.4, 1.5];
const W_TWIN: f64 = 0.15;
const W_CYCLE: f64 = W_RUBIC + W_EQUAL + W_SEQ[0] + W_SEQ[1] + 2.0 * W_TWIN;
/// Aimed-at length of a weight-1 window. Short on purpose: what two
/// RUBICs on an oversubscribed host settle into differs from start to
/// start and then persists for seconds, so a run learns more from many
/// short co-locations than from a few long ones (ten cycles of under a
/// second each hold the Nash product to about a third of the spread that
/// five cycles of two seconds do).
const UNIT_SECONDS: f64 = 0.25;

fn end_to_end(args: &RunArgs) -> Outcome {
    // Set-up: build and populate both tenants (their pools start inside
    // `Colocation::run`).
    let (setup_s, _) = time_setup(args.seconds, || {
        (build_intruder(args.seed), build_vacation(args.seed))
    });
    let mut scene = Scene::new(args.seed);
    let (cycles, per_cycle) = plan_cycles(args.seconds, W_CYCLE * UNIT_SECONDS);
    let unit = per_cycle / W_CYCLE;

    // Per cycle: each tenant's speed-up over its own one-thread rate, its
    // twin ÷ co-located rate, and its rate under RUBIC ÷ under EqualShare.
    let mut total = Vec::new();
    let mut speedup = [Vec::new(), Vec::new()];
    let mut overhead = Vec::new();
    let mut nash = Vec::new();
    let mut vs_equal = Vec::new();
    for _ in 0..cycles {
        let seq = scene.sequential(W_SEQ.map(|w| secs(unit * w)));
        let dur = secs(unit * W_TWIN);
        let mut twins = (
            IntruderTwin::new(intruder_cfg(args.seed)),
            VacationTwin::new(vacation_cfg(args.seed)),
        );
        let twin = [
            loop_rate(dur, 16, || twins.0.run_task()),
            loop_rate(dur, 16, || twins.1.run_task()),
        ];
        let tuned = scene
            .colocate(Policy::Rubic, secs(unit * W_RUBIC), None)
            .rates;
        let equal = scene
            .colocate(Policy::EqualShare, secs(unit * W_EQUAL), None)
            .rates;
        total.push(tuned[0] + tuned[1]);
        let s = [tuned[0] / seq[0], tuned[1] / seq[1]];
        speedup[0].push(s[0]);
        speedup[1].push(s[1]);
        nash.push(s[0] * s[1]);
        // Geometric mean of the tenants' twin ÷ co-located rates.
        overhead.push(geometric_mean(&[twin[0] / tuned[0], twin[1] / tuned[1]]));
        // The tenants' own baselines cancel in the ratio of Nash products.
        vs_equal.push((tuned[0] / equal[0]) * (tuned[1] / equal[1]));
    }
    let speedups = [0, 1].map(|i| cycle_median(&format!("{} speed-up", TENANTS[i]), &speedup[i]));

    let mut m = MetricSet::end_to_end();
    m.set("setup_s", setup_s);
    m.set("tasks_per_s", cycle_median("tasks/s, both tenants", &total));
    m.set("overhead_x", cycle_median("twin ÷ co-located", &overhead));
    // With two tenants the static reference is EqualShare's partition.
    m.set(
        "tuning_efficiency",
        cycle_median("Nash under RUBIC ÷ under EqualShare", &vs_equal),
    );
    m.set("nash_speedup_product", cycle_median("Nash product", &nash));
    m.set("min_tenant_speedup", speedups[0].min(speedups[1]));
    scene.finish(m)
}

fn traced(args: &RunArgs) -> (Outcome, Json) {
    let mut scene = Scene::new(args.seed);
    let nproc = scene.nproc;
    let mut m = MetricSet::per_layer();

    let seq = scene.sequential([0.05, 0.1].map(|share| secs(args.seconds * share)));

    // Untraced co-located run: the report's own numbers.
    let dur = secs(args.seconds * 0.35);
    let meter = CpuMeter::start();
    let plain = scene.colocate(Policy::Rubic, dur, None);
    let (cpu, cpu_wall) = meter.stop();
    let report = &plain.report;
    report_stm(&mut m, &plain.stm);
    let tasks: u64 = report.tenants.iter().map(|t| t.report.total_tasks).sum();
    report_proc(&mut m, cpu, cpu_wall, tasks, nproc);

    let speedup = [plain.rates[0] / seq[0], plain.rates[1] / seq[1]];
    m.set("core.speedup.intruder", speedup[0]);
    m.set("core.speedup.vacation", speedup[1]);
    m.set("core.jain_index", jain_index(&speedup));
    m.set(
        "core.run_overrun_ms",
        (plain.wall - dur.as_secs_f64()) * 1e3,
    );
    let series = report.total_threads_series(Duration::from_millis(10));
    let totals_f: Vec<f64> = series.iter().map(|&(_, n)| f64::from(n)).collect();
    m.set("core.mean_total_threads", mean(&totals_f));
    let over = series.iter().filter(|&&(_, n)| n > nproc).count();
    m.set(
        "controllers.oversub_share",
        over as f64 / series.len().max(1) as f64,
    );
    m.set("host.oversubscribed", f64::from(u8::from(over > 0)));
    m.set("host.pool_size", f64::from(2 * nproc));

    let per_tenant = |f: &dyn Fn(&rubic::TenantReport) -> f64| -> Vec<f64> {
        report.tenants.iter().map(f).collect()
    };
    let levels = per_tenant(&|t| t.mean_level());
    m.set("controllers.mean_level", mean(&levels));
    m.set(
        "controllers.level_stddev",
        mean(&per_tenant(&|t| t.report.trace.level_stddev())),
    );
    m.set(
        "controllers.level_changes_per_s",
        per_tenant(&|t| level_changes(&t.report.trace) as f64)
            .iter()
            .sum::<f64>()
            / plain.wall,
    );
    m.set(
        "runtime.park_share",
        1.0 - levels.iter().sum::<f64>() / f64::from(2 * nproc),
    );
    m.set(
        "runtime.rounds_per_s",
        mean(&per_tenant(&|t| {
            t.report.trace.len() as f64 / t.report.elapsed.as_secs_f64()
        })),
    );
    m.set(
        "runtime.worker_panics",
        per_tenant(&|t| t.report.worker_panics as f64).iter().sum(),
    );
    m.set(
        "runtime.stall_warnings",
        per_tenant(&|t| t.report.stall_warnings as f64).iter().sum(),
    );

    // Traced co-located run: where the workers' time went.
    let tracer = Tracer::new();
    let began = tracer.now_ns();
    let timed = scene.colocate(Policy::Rubic, dur, Some(&tracer));
    let run_end = tracer.now_ns();
    let sum = tracer.summarize(None);
    let shares = [
        ("trace.task_share", sum.task_share),
        ("trace.parked_share", sum.parked_share),
        ("trace.pool_share", sum.pool_share),
    ];
    for (name, v) in shares {
        m.set(name, v);
    }
    if let Err(e) = validate_shares(&shares) {
        scene.failures.push(format!("time budget: {e}"));
    }
    m.set(
        "trace.overhead_pct",
        100.0 * (1.0 - (timed.rates[0] + timed.rates[1]) / (plain.rates[0] + plain.rates[1])),
    );
    m.set("workloads.task_p50_ns", sum.task_p50_ns);
    m.set("workloads.task_p99_ns", sum.task_p99_ns);
    eprintln!(
        "traced run: {} tasks, {} sampled task spans",
        sum.tasks, sum.task_samples
    );

    let spans = tracer.spans_json(run_end, (began, run_end));
    (scene.finish(m), spans)
}

pub fn run(args: &RunArgs) -> (Outcome, Option<Json>) {
    if args.trace {
        let (outcome, spans) = traced(args);
        (outcome, Some(spans))
    } else {
        (end_to_end(args), None)
    }
}
