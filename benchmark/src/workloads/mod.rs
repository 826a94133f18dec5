//! The six workloads, by the names `BENCHMARK.json` fixes.

mod colocated;
mod drain;
mod lane;
mod simpair;
mod stm_lane;

use rubic::workloads::OpMix;

use crate::harness::{Outcome, RunArgs};
use crate::json::Json;

/// Runs workload `name`; with `args.trace`, also returns the spans of the
/// traced run.
///
/// # Errors
/// Returns the name back when no workload has it.
pub fn run(name: &str, args: &RunArgs) -> Result<(Outcome, Option<Json>), String> {
    let (mut outcome, spans) = match name {
        "rbtree_read" => stm_lane::rbtree(args, OpMix::paper(), true),
        "rbtree_write" => stm_lane::rbtree(args, OpMix::write_heavy(), false),
        "vacation_tuned" => stm_lane::vacation_tuned(args),
        "colocated_pair" => colocated::run(args),
        "pool_drain_tiny" => drain::run(args),
        "sim_pair" => simpair::run(args),
        other => return Err(format!("no workload named {other:?}")),
    };
    if args.trace {
        // Carried by every workload's per-layer report, whatever it ran.
        let failed_share = outcome.failed as f64 / outcome.attempted as f64;
        outcome.metrics.set("failed_task_share", failed_share);
        outcome
            .metrics
            .set("host.nproc", f64::from(crate::procfs::nproc()));
    }
    Ok((outcome, spans))
}
