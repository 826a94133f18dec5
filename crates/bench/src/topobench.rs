//! Topology sweep for the NUMA machine model (`topobench`).
//!
//! Sweeps co-location scenarios across mapping policies and socket
//! counts on the simulator's topology-extended machine model
//! (DESIGN.md §17): every process runs the RUBIC controller, and the
//! axis under test is *where* its threads land — placement-blind,
//! compact (fill sockets before spilling), scatter (round-robin
//! pinned), or adaptive-on-abort-rate.
//!
//! Axes:
//!
//! * **scenario** — co-located process sets with per-workload
//!   communication intensities (Intruder's shared session map makes it
//!   cross-socket-hostile at ~0.9; Vacation's four tables sit at ~0.5;
//!   the read-only tree is bandwidth-bound at 0).
//! * **mapping** ∈ {`blind`, `compact`, `scatter`, `adaptive`} —
//!   applied to every process in the scenario.
//! * **sockets** ∈ {1, 4} — `1` collapses the machine to the flat
//!   pre-topology model; every mapping must reproduce identical
//!   figures there ([`TopoBenchReport::validate`] enforces it).
//!
//! The headline check: in at least one co-location scenario on the
//! 4-socket machine, a placement-aware mapping must beat `blind`
//! beyond the repetition noise. The `topobench` binary writes
//! `BENCH_topo.json` (schema `rubic-topobench/v1`) only after
//! validation passes.

use std::path::Path;
use std::process::ExitCode;

use rubic::controllers::{MappingPolicy, Policy};
use rubic_sim::{curves, run, Machine, ProcessSpec, SimConfig};

use crate::report::{self, Document, Point, Stat, Value};

/// Schema identifier written into every report.
pub const SCHEMA: &str = "rubic-topobench/v1";

/// Socket counts swept (1 = the flat-reproduction control).
const SOCKETS: [u32; 2] = [1, 4];

/// One co-located process in a scenario: name, scalability curve,
/// communication intensity.
struct Member {
    name: &'static str,
    curve: fn() -> rubic_sim::Curve,
    comm: f64,
}

/// A co-location scenario: a named set of processes, all under RUBIC.
struct Scenario {
    name: &'static str,
    members: &'static [Member],
}

/// The swept scenarios. Communication intensities follow the
/// workloads' shared-state footprints: Intruder funnels every packet
/// through one queue and one session map (0.9), Vacation spreads
/// reservations over four tables (0.5), the read-only tree never
/// writes shared state (0.0).
const SCENARIOS: [Scenario; 3] = [
    Scenario {
        name: "intruder+vacation",
        members: &[
            Member {
                name: "intruder",
                curve: curves::intruder_like,
                comm: 0.9,
            },
            Member {
                name: "vacation",
                curve: curves::vacation_like,
                comm: 0.5,
            },
        ],
    },
    Scenario {
        name: "two-intruders",
        members: &[
            Member {
                name: "intruder-a",
                curve: curves::intruder_like,
                comm: 0.9,
            },
            Member {
                name: "intruder-b",
                curve: curves::intruder_like,
                comm: 0.9,
            },
        ],
    },
    Scenario {
        name: "readonly-solo",
        members: &[Member {
            name: "rbt-readonly",
            curve: curves::rbt_readonly,
            comm: 0.0,
        }],
    },
];

/// One swept configuration and its measurements.
#[derive(Debug, Clone)]
pub struct TopoBenchPoint {
    /// Scenario name.
    pub scenario: &'static str,
    /// Number of co-located processes in the scenario.
    pub processes: u32,
    /// Mapping policy applied to every process.
    pub mapping: &'static str,
    /// Socket count of the simulated machine.
    pub sockets: u32,
    /// Nash product of per-process mean speed-ups over the run.
    pub nash: Stat,
    /// Mean placement spread fraction, averaged over processes and
    /// reps (0 = packed on one socket).
    pub mean_spread: f64,
}

impl TopoBenchPoint {
    /// Names the point in validation errors and noise warnings.
    fn label(&self) -> String {
        format!("{}/{}/s{}", self.scenario, self.mapping, self.sockets)
    }
}

/// A complete sweep: harness parameters plus every measured point.
#[derive(Debug, Clone)]
pub struct TopoBenchReport {
    /// Repetitions (distinct noise seeds) per configuration.
    pub reps: u32,
    /// Simulated rounds per repetition.
    pub rounds: u64,
    /// Multiplicative measurement-noise amplitude.
    pub noise: f64,
    /// True when produced by the CI `--smoke` sweep.
    pub smoke: bool,
    /// One entry per (scenario, mapping, sockets) configuration.
    pub points: Vec<TopoBenchPoint>,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct TopoSweepOptions {
    /// Repetitions (distinct noise seeds) per configuration.
    pub reps: u32,
    /// Simulated rounds per repetition.
    pub rounds: u64,
    /// Noise amplitude (reps differ only by seed when > 0).
    pub noise: f64,
    /// Base RNG seed; rep `i` runs at `seed + i`.
    pub seed: u64,
    /// Reduced grid for CI schema validation.
    pub smoke: bool,
}

impl TopoSweepOptions {
    /// The full sweep: 1000-round runs, 5 seeds, 2% noise.
    #[must_use]
    pub fn full() -> Self {
        TopoSweepOptions {
            reps: 5,
            rounds: 1000,
            noise: 0.02,
            seed: 11,
            smoke: false,
        }
    }

    /// The sub-second CI sweep: short runs, 2 seeds. Validates schema
    /// and plumbing, not effect sizes beyond the validation margins.
    #[must_use]
    pub fn smoke() -> Self {
        TopoSweepOptions {
            reps: 2,
            rounds: 300,
            noise: 0.02,
            seed: 11,
            smoke: true,
        }
    }
}

/// Runs one (scenario, mapping, sockets, seed) cell and returns the
/// Nash product plus the process-averaged mean spread.
fn run_once(
    scenario: &Scenario,
    mapping: MappingPolicy,
    sockets: u32,
    opts: &TopoSweepOptions,
    rep: u32,
) -> (f64, f64) {
    let specs: Vec<ProcessSpec> = scenario
        .members
        .iter()
        .map(|m| {
            ProcessSpec::new(m.name, (m.curve)(), Policy::Rubic)
                .mapping(mapping)
                .comm_intensity(m.comm)
        })
        .collect();
    let mut cfg = SimConfig::paper(scenario.members.len() as u32)
        .with_rounds(opts.rounds)
        .with_noise(opts.noise, opts.seed + u64::from(rep));
    cfg.machine = Machine::paper().with_sockets(sockets);
    let result = run(&specs, &cfg);
    let spread = if result.processes.is_empty() {
        0.0
    } else {
        result.processes.iter().map(|p| p.mean_spread).sum::<f64>() / result.processes.len() as f64
    };
    (result.nash_product(), spread)
}

/// Runs the whole sweep, printing one progress line per configuration.
#[must_use]
pub fn run_sweep(opts: &TopoSweepOptions) -> TopoBenchReport {
    let mut points = Vec::new();
    for scenario in &SCENARIOS {
        for mapping in MappingPolicy::ALL {
            for sockets in SOCKETS {
                let mut nash = Vec::with_capacity(opts.reps as usize);
                let mut spread_sum = 0.0;
                for rep in 0..opts.reps {
                    let (n, s) = run_once(scenario, mapping, sockets, opts, rep);
                    nash.push(n);
                    spread_sum += s;
                }
                let point = TopoBenchPoint {
                    scenario: scenario.name,
                    processes: scenario.members.len() as u32,
                    mapping: mapping.label(),
                    sockets,
                    nash: Stat::from_samples(nash),
                    mean_spread: spread_sum / f64::from(opts.reps.max(1)),
                };
                eprintln!(
                    "  {:<18} {:<8} sockets={} nash {:>8.3} ± {:>6.3}  spread {:.3}",
                    point.scenario,
                    point.mapping,
                    point.sockets,
                    point.nash.mean,
                    point.nash.stddev,
                    point.mean_spread,
                );
                points.push(point);
            }
        }
    }
    TopoBenchReport {
        reps: opts.reps,
        rounds: opts.rounds,
        noise: opts.noise,
        smoke: opts.smoke,
        points,
    }
}

impl TopoBenchReport {
    /// The point for a (scenario, mapping, sockets) cell, if swept.
    #[must_use]
    pub fn point(&self, scenario: &str, mapping: &str, sockets: u32) -> Option<&TopoBenchPoint> {
        self.points
            .iter()
            .find(|p| p.scenario == scenario && p.mapping == mapping && p.sockets == sockets)
    }

    fn document(&self) -> Document<'_> {
        Document {
            schema: SCHEMA,
            reps: self.reps,
            harness: vec![
                ("rounds", Value::Int(self.rounds)),
                ("noise", Value::Num(self.noise)),
                ("smoke", Value::Bool(self.smoke)),
            ],
            points: self
                .points
                .iter()
                .map(|p| Point {
                    label: p.label(),
                    headline: &p.nash,
                    fields: vec![
                        ("scenario", Value::Str(p.scenario)),
                        ("processes", Value::Int(p.processes.into())),
                        ("mapping", Value::Str(p.mapping)),
                        ("sockets", Value::Int(p.sockets.into())),
                        ("mean_spread", Value::Num(p.mean_spread)),
                        ("nash", Value::Stat(&p.nash)),
                    ],
                })
                .collect(),
        }
    }

    /// Serialises the report as the documented `rubic-topobench/v1`
    /// JSON schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.document().to_json()
    }

    /// Structural and semantic checks; the binary refuses to write a
    /// report that fails any of them:
    ///
    /// 1. the shared structural checks ([`crate::report`]: non-empty
    ///    grid, sample counts matching `reps`, finite positive Nash
    ///    products) and known axis values;
    /// 2. **flat reproduction** — on the 1-socket machine every mapping
    ///    policy yields the same figures (placement cannot matter
    ///    there, so the topology extension must be inert);
    /// 3. **aware beats blind** — in at least one co-location scenario
    ///    on 4 sockets, some placement-aware mapping beats `blind` by
    ///    more than twice the combined sample stddev (and by ≥ 2%).
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.document().validate()?;
        let scenario_names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        let mapping_names: Vec<&str> = MappingPolicy::ALL.iter().map(|m| m.label()).collect();
        for p in &self.points {
            let tag = p.label();
            if !scenario_names.contains(&p.scenario) {
                return Err(format!("{tag}: unknown scenario"));
            }
            if !mapping_names.contains(&p.mapping) {
                return Err(format!("{tag}: unknown mapping"));
            }
            if !SOCKETS.contains(&p.sockets) {
                return Err(format!("{tag}: unknown socket count"));
            }
            if !(0.0..=1.0).contains(&p.mean_spread) {
                return Err(format!("{tag}: spread {} out of range", p.mean_spread));
            }
        }
        // Flat reproduction: with one socket, placement must be inert —
        // identical seeds give identical runs whatever the mapping.
        for scenario in &scenario_names {
            let flat: Vec<&TopoBenchPoint> = self
                .points
                .iter()
                .filter(|p| p.scenario == *scenario && p.sockets == 1)
                .collect();
            for pair in flat.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                if (a.nash.mean - b.nash.mean).abs() > 1e-9 * a.nash.mean.abs().max(1.0) {
                    return Err(format!(
                        "{scenario}: 1-socket figures differ across mappings \
                         ({} {} vs {} {}) — topology extension is not inert",
                        a.mapping, a.nash.mean, b.mapping, b.nash.mean
                    ));
                }
            }
        }
        // Aware beats blind, beyond noise, in some co-location scenario.
        let mut witnessed = false;
        for scenario in SCENARIOS.iter().filter(|s| s.members.len() > 1) {
            let Some(blind) = self.point(scenario.name, "blind", 4) else {
                continue;
            };
            for p in self
                .points
                .iter()
                .filter(|p| p.scenario == scenario.name && p.sockets == 4 && p.mapping != "blind")
            {
                let margin = 2.0 * (p.nash.stddev + blind.nash.stddev);
                if p.nash.mean > blind.nash.mean + margin && p.nash.mean > blind.nash.mean * 1.02 {
                    witnessed = true;
                }
            }
        }
        if !witnessed {
            return Err(
                "no co-location scenario where a placement-aware mapping beats blind \
                 beyond noise on 4 sockets"
                    .into(),
            );
        }
        Ok(())
    }

    /// The `topobench` binary's tail: validate, name the noisy points,
    /// write `out`.
    pub fn finish(&self, out: &Path) -> ExitCode {
        report::finish("topobench", self.validate(), &self.document(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_produces_valid_json() {
        let opts = TopoSweepOptions::smoke();
        let report = run_sweep(&opts);
        report.validate().expect("smoke report must validate");
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"rubic-topobench/v1\""));
        assert!(json.contains("\"mapping\": \"adaptive\""));
        assert_eq!(
            report.points.len(),
            SCENARIOS.len() * MappingPolicy::ALL.len() * SOCKETS.len(),
        );
    }

    #[test]
    fn validate_rejects_empty_and_out_of_range() {
        let empty = TopoBenchReport {
            reps: 1,
            rounds: 10,
            noise: 0.0,
            smoke: true,
            points: Vec::new(),
        };
        assert!(empty.validate().is_err());

        let bad = TopoBenchReport {
            reps: 1,
            rounds: 10,
            noise: 0.0,
            smoke: true,
            points: vec![TopoBenchPoint {
                scenario: "intruder+vacation",
                processes: 2,
                mapping: "compact",
                sockets: 4,
                nash: Stat::from_samples(vec![0.0]),
                mean_spread: 0.0,
            }],
        };
        assert!(bad.validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn one_socket_runs_are_mapping_invariant() {
        // The flat-reproduction invariant, checked directly: identical
        // nash products for every mapping on the 1-socket machine.
        let opts = TopoSweepOptions {
            reps: 1,
            rounds: 120,
            noise: 0.02,
            seed: 7,
            smoke: true,
        };
        let base = run_once(&SCENARIOS[0], MappingPolicy::Blind, 1, &opts, 0).0;
        for mapping in MappingPolicy::ALL {
            let (nash, _) = run_once(&SCENARIOS[0], mapping, 1, &opts, 0);
            assert!(
                (nash - base).abs() < 1e-12,
                "{}: {nash} != {base}",
                mapping.label()
            );
        }
    }
}
