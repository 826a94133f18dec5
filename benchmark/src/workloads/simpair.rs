//! `sim_pair`: controllers and simulator only, deterministic. Intruder
//! and Vacation scalability curves on the paper's 4 × 16 machine under
//! RUBIC, the second process arriving at round 500, 1000 rounds × 50
//! seeded repetitions at 2 % measurement noise. Decision quality at the
//! paper's 64-context scale as numbers that repeat exactly, and the
//! speed of regenerating a figure.

use std::time::{Duration, Instant};

use rubic::controllers::{Controller, Policy, Sample};
use rubic::metrics::median;
use rubic::sim::{curves, run as simulate, ProcessSpec, SimConfig, SimResult};

use crate::harness::{report_proc, time_setup, MetricSet, Outcome, RunArgs};
use crate::json::Json;
use crate::procfs::{self, CpuMeter};
use crate::stats::mean;

const ROUNDS: u64 = 1000;
const ARRIVAL: u64 = 500;
const REPETITIONS: u64 = 50;
const NOISE: f64 = 0.02;

fn specs(policy: Policy) -> [ProcessSpec; 2] {
    [
        ProcessSpec::new("Intruder", curves::intruder_like(), policy),
        ProcessSpec::new("Vacation", curves::vacation_like(), policy).arrives_at(ARRIVAL),
    ]
}

/// Repetition `rep`'s configuration: the seed reaches the noise stream
/// and nothing else.
fn config(seed: u64, rep: u64) -> SimConfig {
    SimConfig::paper(2)
        .with_rounds(ROUNDS)
        .with_noise(NOISE, seed.wrapping_mul(REPETITIONS).wrapping_add(rep))
}

/// What one set of repetitions under one policy produced.
#[derive(Debug, PartialEq)]
struct SetResult {
    /// Mean over repetitions of the Nash product of mean speed-ups.
    nash: f64,
    /// Per process, the mean over repetitions of its mean speed-up.
    speedups: [f64; 2],
    efficiency: f64,
    mean_total_threads: f64,
    mean_level: f64,
    converge_round: f64,
    /// Simulated process-rounds (a process counts while it is present).
    process_rounds: u64,
}

/// Rounds after the arrival until both processes' levels first stay, for
/// 50 rounds, within 25 % (+1) of their own mean over the last 200
/// rounds; the rounds left to the end of the run when they never do.
fn converge_round(result: &SimResult) -> f64 {
    let tail: Vec<f64> = result
        .processes
        .iter()
        .map(|p| p.trace.mean_level_in(ROUNDS - 200, ROUNDS))
        .collect();
    let settled = |round: u64| {
        result.processes.iter().zip(&tail).all(|(p, &target)| {
            p.trace
                .points()
                .iter()
                .filter(|pt| pt.round >= round && pt.round < round + 50)
                .all(|pt| (f64::from(pt.level) - target).abs() <= 0.25 * target + 1.0)
        })
    };
    (ARRIVAL..ROUNDS - 50)
        .find(|&r| settled(r))
        .map_or((ROUNDS - ARRIVAL) as f64, |r| (r - ARRIVAL) as f64)
}

/// Runs the 50 repetitions under `policy`; `on_rep` sees each
/// repetition's wall-clock span.
fn run_set(seed: u64, policy: Policy, mut on_rep: impl FnMut(Instant, Instant)) -> SetResult {
    let specs = specs(policy);
    let mut nash = Vec::new();
    let mut speedups = [Vec::new(), Vec::new()];
    let (mut eff, mut threads, mut level, mut converge) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut process_rounds = 0u64;
    for rep in 0..REPETITIONS {
        let began = Instant::now();
        let result = simulate(&specs, &config(seed, rep));
        on_rep(began, Instant::now());
        nash.push(result.nash_product());
        for (sink, p) in speedups.iter_mut().zip(&result.processes) {
            sink.push(p.mean_speedup());
            process_rounds += p.trace.len() as u64;
        }
        eff.push(result.total_efficiency());
        threads.push(result.mean_total_threads());
        level.push(mean(
            &result
                .processes
                .iter()
                .map(|p| p.mean_level())
                .collect::<Vec<_>>(),
        ));
        converge.push(converge_round(&result));
    }
    SetResult {
        nash: mean(&nash),
        speedups: [mean(&speedups[0]), mean(&speedups[1])],
        efficiency: mean(&eff),
        mean_total_threads: mean(&threads),
        mean_level: mean(&level),
        converge_round: median(&converge),
        process_rounds,
    }
}

/// The sample series of one repetition, per process, for the decide()
/// replay.
fn recorded_samples(seed: u64) -> Vec<Vec<Sample>> {
    simulate(&specs(Policy::Rubic), &config(seed, 0))
        .processes
        .iter()
        .map(|p| {
            p.trace
                .points()
                .iter()
                .map(|pt| Sample {
                    throughput: pt.throughput,
                    level: pt.level,
                    round: pt.round,
                })
                .collect()
        })
        .collect()
}

/// Replays the recorded series through fresh controllers, as many
/// decisions as one set of repetitions makes, with no machine model, no
/// mapper and no trace around them. Returns `(decisions, seconds)`.
fn replay_decisions(
    samples: &[Vec<Sample>],
    controllers: &mut [Box<dyn Controller>],
) -> (u64, f64) {
    let began = Instant::now();
    let mut decisions = 0u64;
    for _ in 0..REPETITIONS {
        for (series, controller) in samples.iter().zip(controllers.iter_mut()) {
            controller.reset();
            for &s in series {
                std::hint::black_box(controller.decide(s));
            }
            decisions += series.len() as u64;
        }
    }
    (decisions, began.elapsed().as_secs_f64())
}

fn rubic_controllers() -> Vec<Box<dyn Controller>> {
    let cfg = SimConfig::paper(2).policy_cfg;
    (0..2).map(|_| Policy::Rubic.build(&cfg)).collect()
}

/// The determinism check: the same seed must give the same numbers, bit
/// for bit, on a second in-process run.
fn check_repeat(first: &SetResult, second: &SetResult) -> Vec<String> {
    if first == second {
        Vec::new()
    } else {
        vec![format!(
            "sim_pair did not repeat exactly: {first:?} then {second:?}"
        )]
    }
}

fn end_to_end(args: &RunArgs) -> Outcome {
    // Set-up: the specs and configuration, and one noise-free run that
    // faults in the curves and the controllers' code.
    let (setup_s, _) = time_setup(args.seconds, || {
        simulate(
            &specs(Policy::Rubic),
            &SimConfig::paper(2).with_rounds(ROUNDS),
        )
    });
    let samples = recorded_samples(args.seed);
    let mut controllers = rubic_controllers();

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut first: Option<(SetResult, SetResult)> = None;
    let mut failures = Vec::new();
    let (mut sim_rates, mut replay_rates) = (Vec::new(), Vec::new());
    let mut attempted = 0u64;
    // At least two cycles: the second is the determinism check.
    while sim_rates.len() < 2 || Instant::now() < deadline {
        let t = Instant::now();
        let tuned = run_set(args.seed, Policy::Rubic, |_, _| {});
        let secs = t.elapsed().as_secs_f64();
        sim_rates.push(tuned.process_rounds as f64 / secs);
        attempted += tuned.process_rounds;
        let equal = run_set(args.seed, Policy::EqualShare, |_, _| {});
        let (decisions, secs) = replay_decisions(&samples, &mut controllers);
        replay_rates.push(decisions as f64 / secs);
        match &first {
            None => first = Some((tuned, equal)),
            Some((t0, e0)) if sim_rates.len() == 2 => {
                failures.extend(check_repeat(t0, &tuned));
                failures.extend(check_repeat(e0, &equal));
            }
            Some(_) => {}
        }
    }
    let (tuned, equal) = first.expect("the loop ran at least twice");

    let mut m = MetricSet::end_to_end();
    m.set("setup_s", setup_s);
    m.set("tasks_per_s", median(&sim_rates));
    // The twin here is the controllers alone: decisions per second with
    // no simulator around them ÷ simulated process-rounds per second.
    m.set("overhead_x", median(&replay_rates) / median(&sim_rates));
    // Two tenants: Nash product under RUBIC ÷ under EqualShare.
    m.set("tuning_efficiency", tuned.nash / equal.nash);
    m.set("nash_speedup_product", tuned.nash);
    m.set(
        "min_tenant_speedup",
        tuned.speedups[0].min(tuned.speedups[1]),
    );
    Outcome::new(m, attempted, 0, failures)
}

fn traced(args: &RunArgs) -> (Outcome, Json) {
    let nproc = procfs::nproc();
    let mut m = MetricSet::per_layer();
    let mut failures = Vec::new();

    // Untimed-per-repetition sets for half the time, for the reference
    // rate; then one set with a span around every repetition.
    let meter = CpuMeter::start();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * 0.5);
    let mut plain_rates = Vec::new();
    let mut attempted = 0u64;
    let mut first: Option<SetResult> = None;
    while plain_rates.len() < 2 || Instant::now() < deadline {
        let t = Instant::now();
        let set = run_set(args.seed, Policy::Rubic, |_, _| {});
        plain_rates.push(set.process_rounds as f64 / t.elapsed().as_secs_f64());
        attempted += set.process_rounds;
        match &first {
            None => first = Some(set),
            Some(f) if plain_rates.len() == 2 => failures.extend(check_repeat(f, &set)),
            Some(_) => {}
        }
    }
    let (cpu, wall) = meter.stop();
    let set = first.expect("the loop ran at least twice");
    report_proc(&mut m, cpu, wall, attempted, nproc);

    let epoch = Instant::now();
    let ns = |t: Instant| u64::try_from(t.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX);
    let mut reps: Vec<(u64, u64)> = Vec::new();
    let traced_set = run_set(args.seed, Policy::Rubic, |a, b| reps.push((ns(a), ns(b))));
    let run_end = ns(Instant::now());
    failures.extend(check_repeat(&set, &traced_set));
    let traced_rate = traced_set.process_rounds as f64 / (run_end as f64 / 1e9);
    let rep_ms: Vec<f64> = reps.iter().map(|&(a, b)| (b - a) as f64 / 1e6).collect();

    m.set("sim.rounds_per_s", median(&plain_rates));
    m.set("sim.run_ms", median(&rep_ms));
    m.set("controllers.sim_converge_round", set.converge_round);
    m.set("controllers.sim_mean_total_threads", set.mean_total_threads);
    m.set("controllers.sim_efficiency", set.efficiency);
    m.set("controllers.mean_level", set.mean_level);
    let (decisions, secs) =
        replay_decisions(&recorded_samples(args.seed), &mut rubic_controllers());
    m.set("controllers.decide_ns", secs * 1e9 / decisions as f64);
    m.set(
        "trace.overhead_pct",
        100.0 * (1.0 - traced_rate / median(&plain_rates)),
    );

    let mut spans = vec![Json::obj([
        ("id", Json::Int(0)),
        ("parent", Json::Null),
        ("name", Json::str("run")),
        ("start_ns", Json::Int(0)),
        ("end_ns", Json::Int(run_end)),
    ])];
    spans.extend(reps.iter().zip(1u64..).map(|(&(a, b), id)| {
        Json::obj([
            ("id", Json::Int(id)),
            ("parent", Json::Int(0)),
            ("name", Json::str("repetition")),
            ("start_ns", Json::Int(a)),
            ("end_ns", Json::Int(b)),
        ])
    }));
    (Outcome::new(m, attempted, 0, failures), Json::Arr(spans))
}

pub fn run(args: &RunArgs) -> (Outcome, Option<Json>) {
    if args.trace {
        let (outcome, spans) = traced(args);
        (outcome, Some(spans))
    } else {
        (end_to_end(args), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_set_repeats_exactly_and_the_seed_changes_it() {
        let a = run_set(7, Policy::Rubic, |_, _| {});
        let b = run_set(7, Policy::Rubic, |_, _| {});
        let c = run_set(8, Policy::Rubic, |_, _| {});
        assert_eq!(a, b);
        assert_ne!(a.nash, c.nash);
        assert_eq!(a.process_rounds, REPETITIONS * (ROUNDS + ROUNDS - ARRIVAL));
        assert!(check_repeat(&a, &b).is_empty());
        assert_eq!(check_repeat(&a, &c).len(), 1);
    }
}
