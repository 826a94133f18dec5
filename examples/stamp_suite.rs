//! Run the whole STAMP-style workload suite under RUBIC.
//!
//! ```text
//! cargo run --release --example stamp_suite
//! ```
//!
//! Every workload in the repository — the paper's three (red-black
//! tree, Vacation, Intruder) and the two counter micros — tuned live by
//! RUBIC for half a second each, with throughput, chosen level, and STM
//! abort rate side by side. A compact tour of how differently the
//! controller treats workloads across the contention spectrum.

use std::time::Duration;

use rubic::prelude::*;

struct Row {
    name: &'static str,
    throughput: f64,
    mean_level: f64,
    abort_pct: f64,
}

fn run_one<W: Workload>(name: &'static str, stm: Stm, workload: W, pool: u32) -> Row {
    let spec = TenantSpec::new(name, pool, Policy::Rubic).monitor_period(Duration::from_millis(8));
    let report = run_tenant(Tenant::new(spec, workload), Duration::from_millis(500));
    Row {
        name,
        throughput: report.throughput(),
        mean_level: report.mean_level(),
        abort_pct: stm.stats().abort_rate() * 100.0,
    }
}

fn main() {
    let pool = std::thread::available_parallelism().map_or(4, |n| n.get() as u32) * 2;
    println!("tuning each workload with RUBIC for 500 ms (pool = {pool})...\n");

    let mut rows = Vec::new();

    let stm = Stm::default();
    rows.push(run_one(
        "rbtree (98% lookup)",
        stm.clone(),
        RbTreeWorkload::new(RbTreeConfig::small(), stm),
        pool,
    ));

    let stm = Stm::default();
    rows.push(run_one(
        "rbtree (write-heavy)",
        stm.clone(),
        RbTreeWorkload::new(RbTreeConfig::small().with_mix(OpMix::write_heavy()), stm),
        pool,
    ));

    let stm = Stm::default();
    rows.push(run_one(
        "vacation (low)",
        stm.clone(),
        VacationWorkload::new(VacationConfig::low_contention(256), stm),
        pool,
    ));

    let stm = Stm::default();
    rows.push(run_one(
        "vacation (high)",
        stm.clone(),
        VacationWorkload::new(VacationConfig::high_contention(256), stm),
        pool,
    ));

    let stm = Stm::default();
    rows.push(run_one(
        "intruder",
        stm.clone(),
        IntruderWorkload::new(IntruderConfig::paper(), stm),
        pool,
    ));

    let stm = Stm::default();
    rows.push(run_one(
        "conflict counter",
        stm.clone(),
        ConflictCounter::new(stm),
        pool,
    ));

    let stm = Stm::default();
    rows.push(run_one(
        "striped counter (16)",
        stm.clone(),
        StripedCounter::new(16, stm),
        pool,
    ));

    println!(
        "{:<22} {:>12} {:>12} {:>10}",
        "workload", "tasks/s", "mean level", "abort %"
    );
    for r in &rows {
        println!(
            "{:<22} {:>12.0} {:>12.1} {:>9.2}%",
            r.name, r.throughput, r.mean_level, r.abort_pct
        );
    }
    println!(
        "\nhigher-contention workloads should earn fewer threads and/or higher abort\n\
         rates; on a multi-core host the spread is much wider than on a single core."
    );
}
