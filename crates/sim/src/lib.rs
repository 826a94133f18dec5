//! Deterministic multi-process machine simulator for parallelism-tuning
//! experiments.
//!
//! **Why a simulator?** The paper's evaluation runs on a 4-socket,
//! 64-context AMD machine with multiple co-located OS processes —
//! hardware this reproduction does not have (the build host is a
//! 2-vCPU VM; the whole-stack benchmark records it as `host.nproc`).
//! The paper itself licenses the substitution (§4.4):
//!
//! > "the choice of the host machine, underlying parallelism runtime
//! > and the benchmark does not affect the conclusions we draw […] our
//! > techniques only depend on the scalability curve defined by each
//! > running process."
//!
//! This crate therefore models exactly those ingredients and nothing
//! more:
//!
//! * [`curves`] — per-workload intrinsic scalability curves, with
//!   presets fitted to the paper's Fig. 1/Fig. 6 shapes;
//! * [`machine`] — hardware contexts, fair time slicing, and the
//!   oversubscription penalty (context switches, cache thrashing,
//!   inflated TM conflict windows); no sockets;
//! * [`sim`] — the round-based simulation loop: every 10 ms-round each
//!   process feeds its own observed throughput to its own controller
//!   (unchanged `rubic-controllers` code), fully decentralised;
//! * [`experiment`] — the paper's repetition protocol (10 s runs × 50
//!   seeded noisy repetitions) and the pairwise/single-process
//!   experiment sets.
//!
//! # Example: the §4.6 convergence experiment
//!
//! ```
//! use rubic_controllers::Policy;
//! use rubic_sim::{curves, ProcessSpec, SimConfig};
//!
//! // Two identical conflict-free processes; P2 arrives at t = 5 s.
//! let specs = [
//!     ProcessSpec::new("P1", curves::rbt_readonly(), Policy::Rubic),
//!     ProcessSpec::new("P2", curves::rbt_readonly(), Policy::Rubic).arrives_at(500),
//! ];
//! let result = rubic_sim::run(&specs, &SimConfig::paper(2));
//! // After P2's arrival both should hover near the fair 32/32 split.
//! let p1_late = result.processes[0].trace.mean_level_in(800, 1000);
//! assert!((24.0..=40.0).contains(&p1_late), "P1 settled at {p1_late}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod curves;
pub mod experiment;
pub mod machine;
pub mod sim;

pub use curves::{Curve, ScalabilityCurve};
pub use experiment::{
    pairwise_experiments, single_process_experiments, Experiment, ExperimentOutcome, ProcessStats,
    WorkloadSpec,
};
pub use machine::Machine;
pub use sim::{run, ProcessResult, ProcessSpec, SimConfig, SimResult};
