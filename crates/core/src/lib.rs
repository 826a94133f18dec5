//! # RUBIC — online parallelism tuning for co-located TM applications
//!
//! A from-scratch Rust reproduction of *RUBIC: Online Parallelism
//! Tuning for Co-located Transactional Memory Applications* (Mohtasham
//! & Barreto, SPAA 2016), including every substrate the paper builds
//! on. This crate is the facade: it re-exports the subsystem crates and
//! adds the tenant/co-location harness that glues them into end-to-end
//! runs.
//!
//! ## The system at a glance
//!
//! Many transactional-memory applications stop scaling — and then
//! *anti-scale* — past a workload-specific thread count (STAMP's
//! Intruder peaks at 7 threads on a 64-core machine and ends below
//! half its sequential throughput at 64). RUBIC is a feedback
//! controller that retunes each process's active thread count every
//! 10 ms from its own commit-rate, using **cubic growth** and
//! **hybrid linear/multiplicative decrease** borrowed from TCP CUBIC
//! congestion control. Because multiplicative decrease equalises and
//! cubic growth re-saturates, co-located processes converge to a fair,
//! efficient space-sharing of the machine **with zero coordination** —
//! no shared state, no central broker.
//!
//! ## Crate map
//!
//! | Layer | Crate | What it provides |
//! |---|---|---|
//! | metrics | [`metrics`] | speed-up, efficiency, Nash product, Jain index, summaries, traces |
//! | controllers | [`controllers`] | RUBIC (Algorithm 2), EBS, F2C2, AIMD, CIMD, Greedy, EqualShare |
//! | STM | [`stm`] | SwissTM-flavoured TM runtime: versioned locks, timestamp extension, epoch reclamation |
//! | runtime | [`runtime`] | malleable thread pool with semaphore gating + monitor (Algorithm 1) |
//! | workloads | [`workloads`] | STAMP-style Vacation, Intruder, red-black-tree micro |
//! | simulator | [`sim`] | 64-context machine model + the paper's experiment protocol |
//! | facade | this crate | [`Tenant`], [`Colocation`], sweeps, prelude |
//!
//! ## Quick start: tune a TM workload in-process
//!
//! ```
//! use std::time::Duration;
//! use rubic::prelude::*;
//!
//! // A transactional red-black tree, 98% look-ups (the paper's micro).
//! let stm = Stm::default();
//! let workload = RbTreeWorkload::new(RbTreeConfig::small(), stm);
//!
//! // One tenant, tuned by RUBIC, monitored every 5 ms.
//! let spec = TenantSpec::new("rbt", 4, Policy::Rubic)
//!     .monitor_period(Duration::from_millis(5));
//! let report = run_tenant(Tenant::new(spec, workload), Duration::from_millis(80));
//! assert!(report.throughput() > 0.0);
//! ```
//!
//! ## Quick start: reproduce a paper experiment in simulation
//!
//! ```
//! use rubic::prelude::*;
//!
//! // Fig. 7a (one pair): Intruder + Vacation under RUBIC vs Greedy.
//! let run = |policy| {
//!     rubic_sim::Experiment::paper(
//!         vec![
//!             WorkloadSpec::new("Intruder", rubic_sim::curves::intruder_like()),
//!             WorkloadSpec::new("Vacation", rubic_sim::curves::vacation_like()),
//!         ],
//!         policy,
//!     )
//!     .repetitions(5)
//!     .run()
//! };
//! assert!(run(Policy::Rubic).nash.mean() > run(Policy::Greedy).nash.mean());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod colocation;
pub mod tenant;

pub use colocation::{Colocation, ColocationReport};
pub use tenant::{
    measure_sequential, run_tenant, scalability_sweep, Tenant, TenantReport, TenantSpec,
};

pub use rubic_controllers as controllers;
pub use rubic_metrics as metrics;
pub use rubic_runtime as runtime;
pub use rubic_sim as sim;
pub use rubic_stm as stm;
pub use rubic_workloads as workloads;

/// Structured event tracing (`rubic-trace`), available with the
/// **`trace`** feature: start a [`trace::TraceSession`], run any
/// instrumented code, and `finish()` into a
/// [`trace::TraceReport`] with latency histograms, abort attribution,
/// and JSONL / `chrome://tracing` exporters.
#[cfg(feature = "trace")]
pub use rubic_trace as trace;

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use crate::colocation::{Colocation, ColocationReport};
    pub use crate::tenant::{
        measure_sequential, run_tenant, scalability_sweep, Tenant, TenantReport, TenantSpec,
    };
    pub use rubic_controllers::{
        Aimd, Cimd, Controller, CubicKConvention, Ebs, EqualShare, F2c2, Fixed, Greedy, Policy,
        PolicyConfig, Rubic, RubicConfig, Sample,
    };
    pub use rubic_metrics::{
        efficiency, geometric_mean, jain_index, nash_product, speedup, LevelTrace, Summary,
    };
    pub use rubic_runtime::{
        MalleablePool, PoolConfig, PoolView, RunReport, ShardSender, ShardedHandle,
        ShardedWorkload, Workload,
    };
    pub use rubic_sim::{curves, Experiment, Machine, ProcessSpec, SimConfig, WorkloadSpec};
    pub use rubic_stm::{Stm, StmError, TVar, Transaction, TxResult};
    pub use rubic_workloads::{
        ConflictCounter, IntruderConfig, IntruderWorkload, Manager, OpMix, RbTreeConfig,
        RbTreeWorkload, StripedCounter, TMap, VacationConfig, VacationWorkload,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_names_resolve() {
        // Compile-time re-export sanity plus a smoke use of each layer.
        let s = speedup(20.0, 10.0);
        assert_eq!(s, 2.0);
        let stm = Stm::default();
        let v = TVar::new(1u32);
        stm.atomically(|tx| tx.write(&v, 2));
        assert_eq!(v.snapshot(), 2);
        assert_eq!(Policy::parse("rubic"), Some(Policy::Rubic));
        assert_eq!(Machine::paper().contexts, 64);
    }
}
