//! Measure a real scalability curve and feed it back into the
//! simulator (the Fig. 1 / Fig. 6 loop, in vivo).
//!
//! ```text
//! cargo run --release --example scalability_sweep
//! ```
//!
//! Sweeps fixed thread counts over the Vacation workload on *this*
//! machine, prints the measured curve, then imports it into the
//! simulator as a `TableCurve` and asks: at how many threads would
//! RUBIC settle for a process with exactly this curve? This is the
//! workflow for reproducing the paper's figures on real measurements
//! instead of the fitted presets.

use std::sync::Arc;
use std::time::Duration;

use rubic::prelude::*;
use rubic::sim::curves::TableCurve;
use rubic::sim::{ProcessSpec, SimConfig};

fn main() {
    let hw = std::thread::available_parallelism().map_or(2, |n| n.get() as u32);
    let max_level = (hw * 2).max(4);
    let levels: Vec<u32> = (1..=max_level).collect();

    println!("sweeping Vacation at fixed levels 1..={max_level} (300 ms each)...");
    let workload = Arc::new(VacationWorkload::new(
        VacationConfig::low_contention(512),
        Stm::default(),
    ));
    let points = scalability_sweep(workload, &levels, Duration::from_millis(300));

    let t1 = points[0].1.max(1.0);
    println!("\n level  throughput  speed-up");
    let mut speedups = Vec::new();
    for (l, thr) in &points {
        let s = thr / t1;
        speedups.push(s);
        println!(
            " {l:>5}  {thr:>10.0}  {s:>8.2}  {}",
            "*".repeat((s * 8.0) as usize)
        );
    }

    // Feed the measured curve into the simulator and tune against it.
    let curve: rubic::sim::Curve = Arc::new(TableCurve::new(speedups, "measured-vacation"));
    let specs = [ProcessSpec::new("measured", curve, Policy::Rubic)];
    let mut cfg = SimConfig::paper(1).with_rounds(600);
    cfg.machine = Machine::with_contexts(hw);
    cfg.policy_cfg.hw_contexts = hw;
    cfg.policy_cfg.pool_size = max_level;
    let result = rubic::sim::run(&specs, &cfg);
    let settled = result.processes[0].trace.mean_level_in(300, 600);
    println!(
        "\nsimulated RUBIC on the measured curve settles at {settled:.1} threads \
         (machine: {hw} contexts)"
    );
    println!(
        "note: this host has {hw} hardware contexts, so the measured curve cannot keep \
         rising past level {hw}; a settled level at or below {hw} is the right answer."
    );
}
