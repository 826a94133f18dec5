//! The multi-process simulation loop.
//!
//! One simulated round = one monitoring period (the paper's 10 ms).
//! Each round, every *active* process observes the throughput implied by
//! its scalability curve, the machine state (total runnable threads
//! across all processes) and optional measurement noise, then feeds that
//! observation to **its own controller** — decisions stay unilateral and
//! decentralised, exactly as in the paper. Processes arrive and depart
//! at configured rounds (the §4.6 convergence experiment has P2 arrive
//! 5 s into P1's run).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rubic_controllers::{Controller, Policy, PolicyConfig, Sample};
use rubic_metrics::LevelTrace;

use crate::curves::Curve;
use crate::machine::Machine;

/// Specification of one simulated process.
#[derive(Clone)]
pub struct ProcessSpec {
    /// Display name (e.g. "Intruder").
    pub name: String,
    /// Intrinsic scalability curve.
    pub curve: Curve,
    /// Allocation policy driving this process's level.
    pub policy: Policy,
    /// Round at which the process starts (0 = from the beginning).
    pub arrival_round: u64,
    /// Round at which the process leaves, if any.
    pub departure_round: Option<u64>,
    /// Sequential throughput `T_seq(ω)` in tasks/second — converts
    /// speed-ups into absolute commit rates (the controllers only care
    /// about relative changes, but the traces report real rates).
    pub seq_throughput: f64,
    /// Parallelism level on arrival (paper: 1; the Fig. 2 trajectory
    /// analysis starts processes from arbitrary unequal points).
    pub initial_level: u32,
}

impl ProcessSpec {
    /// A process present for the whole run.
    #[must_use]
    pub fn new(name: impl Into<String>, curve: Curve, policy: Policy) -> Self {
        ProcessSpec {
            name: name.into(),
            curve,
            policy,
            arrival_round: 0,
            departure_round: None,
            seq_throughput: 10_000.0,
            initial_level: 1,
        }
    }

    /// Sets the level the process starts at.
    #[must_use]
    pub fn starts_at_level(mut self, level: u32) -> Self {
        self.initial_level = level.max(1);
        self
    }

    /// Sets the arrival round.
    #[must_use]
    pub fn arrives_at(mut self, round: u64) -> Self {
        self.arrival_round = round;
        self
    }

    /// Sets the departure round.
    #[must_use]
    pub fn departs_at(mut self, round: u64) -> Self {
        self.departure_round = Some(round);
        self
    }

    /// Sets the sequential throughput.
    #[must_use]
    pub fn seq_throughput(mut self, t: f64) -> Self {
        self.seq_throughput = t;
        self
    }

    fn active(&self, round: u64) -> bool {
        round >= self.arrival_round && self.departure_round.is_none_or(|d| round < d)
    }
}

/// Simulation parameters.
#[derive(Clone)]
pub struct SimConfig {
    /// The machine model.
    pub machine: Machine,
    /// Controller construction parameters (pool size, EqualShare split,
    /// RUBIC constants, tolerance).
    pub policy_cfg: PolicyConfig,
    /// Number of rounds (paper experiments: 10 s / 10 ms = 1000).
    pub rounds: u64,
    /// Relative amplitude of multiplicative uniform measurement noise
    /// (0 = deterministic; the repetition experiments use a few
    /// percent).
    pub noise: f64,
    /// RNG seed for the noise stream.
    pub seed: u64,
    /// Machine reconfigurations applied mid-run: at each `(round,
    /// machine)` the hardware changes (contexts hot-plugged or removed,
    /// penalty slope adjusted). Models the paper's §3.3 "dynamic changes
    /// in … available hardware resources". Must be sorted by round.
    pub machine_changes: Vec<(u64, Machine)>,
}

impl SimConfig {
    /// The paper's setup for `n_processes` co-located processes:
    /// 64 contexts, pools of 128 threads, 1000 rounds, deterministic.
    #[must_use]
    pub fn paper(n_processes: u32) -> Self {
        SimConfig {
            machine: Machine::paper(),
            policy_cfg: PolicyConfig::paper(n_processes),
            rounds: 1000,
            noise: 0.0,
            seed: 42,
            machine_changes: Vec::new(),
        }
    }

    /// Sets the noise amplitude.
    #[must_use]
    pub fn with_noise(mut self, noise: f64, seed: u64) -> Self {
        self.noise = noise;
        self.seed = seed;
        self
    }

    /// Sets the number of rounds.
    #[must_use]
    pub fn with_rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds;
        self
    }

    /// Schedules a machine reconfiguration at `round`.
    #[must_use]
    pub fn machine_change_at(mut self, round: u64, machine: Machine) -> Self {
        self.machine_changes.push((round, machine));
        self.machine_changes.sort_by_key(|&(r, _)| r);
        self
    }
}

/// Per-process outcome of a simulation run.
pub struct ProcessResult {
    /// Process name.
    pub name: String,
    /// Policy label.
    pub policy: &'static str,
    /// `(round, level, throughput)` for every round the process was
    /// active.
    pub trace: LevelTrace,
    /// Sequential throughput used for speed-up computation.
    pub seq_throughput: f64,
}

impl ProcessResult {
    /// Mean speed-up over the process's active window.
    #[must_use]
    pub fn mean_speedup(&self) -> f64 {
        rubic_metrics::speedup(self.trace.mean_throughput(), self.seq_throughput)
    }

    /// Mean parallelism level over the active window.
    #[must_use]
    pub fn mean_level(&self) -> f64 {
        self.trace.mean_level()
    }

    /// Efficiency `E = S / L` from the window means.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        rubic_metrics::efficiency(self.mean_speedup(), self.mean_level())
    }
}

/// Outcome of a full simulation run.
pub struct SimResult {
    /// Per-process results, in spec order.
    pub processes: Vec<ProcessResult>,
    /// Total active software threads per round (system view, Fig. 7b).
    pub total_threads: Vec<u32>,
}

impl SimResult {
    /// Nash product of all processes' mean speed-ups (Fig. 7a).
    #[must_use]
    pub fn nash_product(&self) -> f64 {
        rubic_metrics::nash_product(
            &self
                .processes
                .iter()
                .map(ProcessResult::mean_speedup)
                .collect::<Vec<_>>(),
        )
    }

    /// Product of all processes' efficiencies (Fig. 7c).
    #[must_use]
    pub fn total_efficiency(&self) -> f64 {
        self.processes
            .iter()
            .map(ProcessResult::efficiency)
            .product()
    }

    /// Mean total software threads over rounds where at least one
    /// process is active (Fig. 7b).
    #[must_use]
    pub fn mean_total_threads(&self) -> f64 {
        let busy: Vec<f64> = self
            .total_threads
            .iter()
            .filter(|&&t| t > 0)
            .map(|&t| f64::from(t))
            .collect();
        if busy.is_empty() {
            0.0
        } else {
            busy.iter().sum::<f64>() / busy.len() as f64
        }
    }
}

struct LiveProcess {
    spec: ProcessSpec,
    controller: Box<dyn Controller>,
    level: u32,
    trace: LevelTrace,
}

/// Runs one simulation.
///
/// Deterministic given (`specs`, `cfg`): identical inputs produce
/// identical traces (the controllers and the seeded noise stream are the
/// only state).
#[must_use]
pub fn run(specs: &[ProcessSpec], cfg: &SimConfig) -> SimResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut live: Vec<LiveProcess> = specs
        .iter()
        .map(|spec| LiveProcess {
            spec: spec.clone(),
            controller: spec.policy.build(&cfg.policy_cfg),
            level: spec.initial_level.max(1),
            trace: LevelTrace::with_capacity(cfg.rounds as usize),
        })
        .collect();

    let mut total_threads = Vec::with_capacity(cfg.rounds as usize);
    let mut machine = cfg.machine;
    let mut pending_changes = cfg.machine_changes.iter().peekable();

    for round in 0..cfg.rounds {
        while pending_changes.peek().is_some_and(|&&(r, _)| r <= round) {
            machine = pending_changes.next().expect("peeked").1;
        }
        // System state at the start of the round: every active process's
        // current level contributes runnable threads.
        let total: u32 = live
            .iter()
            .filter(|p| p.spec.active(round))
            .map(|p| p.level)
            .sum();
        total_threads.push(total);

        for p in &mut live {
            if !p.spec.active(round) {
                continue;
            }
            let intrinsic = p.spec.curve.speedup(f64::from(p.level));
            let eff = machine.effective_speedup(intrinsic, total);
            let mut throughput = eff * p.spec.seq_throughput;
            if cfg.noise > 0.0 {
                throughput *= 1.0 + rng.gen_range(-cfg.noise..=cfg.noise);
            }
            p.trace.push(round, p.level, throughput);
            p.level = p
                .controller
                .decide(Sample {
                    throughput,
                    level: p.level,
                    round,
                })
                .clamp(1, p.controller.max_level());
        }
    }

    SimResult {
        processes: live
            .into_iter()
            .map(|p| ProcessResult {
                name: p.spec.name,
                policy: p.spec.policy.label(),
                trace: p.trace,
                seq_throughput: p.spec.seq_throughput,
            })
            .collect(),
        total_threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves;

    fn cfg(n: u32) -> SimConfig {
        SimConfig::paper(n)
    }

    #[test]
    fn single_rubic_process_converges_to_machine_limit() {
        // Fig. 5 scenario: one perfectly scalable process under CIMD-
        // style control on 64 contexts; steady-state level near 64,
        // utilisation ≳ 85%.
        let specs = [ProcessSpec::new(
            "rbt-ro",
            curves::rbt_readonly(),
            Policy::Rubic,
        )];
        let r = run(&specs, &cfg(1));
        let trace = &r.processes[0].trace;
        let tail_mean = trace.mean_level_in(300, 1000);
        assert!(
            (52.0..=72.0).contains(&tail_mean),
            "steady-state level {tail_mean}"
        );
    }

    #[test]
    fn aimd_underutilizes_vs_rubic() {
        // §2.2: AIMD (α = 0.5) averages ~75% utilisation, cubic growth
        // ~90%+ on the same workload.
        let mk = |policy| {
            let specs = [ProcessSpec::new("p", curves::rbt_readonly(), policy)];
            let r = run(&specs, &cfg(1));
            r.processes[0].trace.mean_level_in(300, 1000).min(64.0) / 64.0
        };
        let aimd = mk(Policy::Aimd);
        let rubic = mk(Policy::Rubic);
        assert!(
            (0.62..=0.88).contains(&aimd),
            "AIMD utilisation {aimd} not ~75%"
        );
        assert!(rubic > aimd + 0.05, "RUBIC {rubic} vs AIMD {aimd}");
    }

    #[test]
    fn intruder_process_settles_near_its_peak() {
        let specs = [ProcessSpec::new(
            "intruder",
            curves::intruder_like(),
            Policy::Rubic,
        )];
        let r = run(&specs, &cfg(1));
        let mean = r.processes[0].trace.mean_level_in(300, 1000);
        assert!(
            (4.0..=14.0).contains(&mean),
            "intruder level {mean} not near its 7-thread peak"
        );
    }

    #[test]
    fn greedy_pair_oversubscribes_rubic_pair_does_not() {
        let pair = |policy| {
            let specs = [
                ProcessSpec::new("a", curves::rbt_readonly(), policy),
                ProcessSpec::new("b", curves::rbt_readonly(), policy),
            ];
            run(&specs, &cfg(2)).mean_total_threads()
        };
        assert!(pair(Policy::Greedy) > 64.0);
        let rubic_total = pair(Policy::Rubic);
        assert!(
            rubic_total <= 70.0,
            "RUBIC pair oversubscribes on average: {rubic_total}"
        );
    }

    #[test]
    fn arrival_and_departure_windows() {
        let specs = [
            ProcessSpec::new("p1", curves::rbt_readonly(), Policy::Rubic),
            ProcessSpec::new("p2", curves::rbt_readonly(), Policy::Rubic)
                .arrives_at(500)
                .departs_at(800),
        ];
        let r = run(&specs, &cfg(2));
        assert_eq!(r.processes[0].trace.len(), 1000);
        assert_eq!(r.processes[1].trace.len(), 300);
        let p2 = &r.processes[1].trace;
        assert_eq!(p2.points().first().unwrap().round, 500);
        assert_eq!(p2.points().last().unwrap().round, 799);
    }

    #[test]
    fn determinism() {
        let specs = [
            ProcessSpec::new("a", curves::vacation_like(), Policy::Rubic),
            ProcessSpec::new("b", curves::intruder_like(), Policy::Ebs),
        ];
        let c = cfg(2).with_noise(0.02, 7);
        let r1 = run(&specs, &c);
        let r2 = run(&specs, &c);
        assert_eq!(r1.processes[0].trace, r2.processes[0].trace);
        assert_eq!(r1.processes[1].trace, r2.processes[1].trace);
        // Different seed, different noise, different trace.
        let r3 = run(&specs, &cfg(2).with_noise(0.02, 8));
        assert_ne!(r1.processes[0].trace, r3.processes[0].trace);
    }

    #[test]
    fn equal_share_splits_contexts() {
        let specs = [
            ProcessSpec::new("a", curves::rbt_readonly(), Policy::EqualShare),
            ProcessSpec::new("b", curves::intruder_like(), Policy::EqualShare),
        ];
        let r = run(&specs, &cfg(2));
        for p in &r.processes {
            assert!((p.mean_level() - 32.0).abs() < 1.0, "{}", p.name);
        }
    }

    #[test]
    fn nash_and_efficiency_are_positive() {
        let specs = [
            ProcessSpec::new("a", curves::vacation_like(), Policy::Rubic),
            ProcessSpec::new("b", curves::rbt_like(), Policy::Rubic),
        ];
        let r = run(&specs, &cfg(2));
        assert!(r.nash_product() > 0.0);
        assert!(r.total_efficiency() > 0.0);
    }
}
