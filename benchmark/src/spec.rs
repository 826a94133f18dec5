//! The benchmark's contract: workload and metric names, units, directions
//! and regression bounds. `BENCHMARK.json` is generated from these tables
//! (`--emit-spec`) and a test keeps the committed file equal to them.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named workload and the reason it is in the set.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// One named metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// How long one run measures, in seconds (the `--seconds` default and
/// `run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 18;

/// The directory that holds the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// The program and its leading arguments; the driver appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "rbtree_read",
        why: "paper micro-benchmark, 64K keys, 98% look-ups at level nproc: STM read/validate path and the ordered map do the work; pool and controller almost none",
    },
    WorkloadSpec {
        name: "rbtree_write",
        why: "same tree at 50/25/25 look-up/insert/delete: lock, write-back and commit beside reads, so a read-path gain paid for by writes shows as one row up and one down",
    },
    WorkloadSpec {
        name: "vacation_tuned",
        why: "vacation-high in a pool of 2 x nproc under live RUBIC, beside every fixed level: the only row where controller quality and gate latency reach the headline number",
    },
    WorkloadSpec {
        name: "colocated_pair",
        why: "the paper's title scenario: Intruder and Vacation-low tenants, each with its own pool and RUBIC, sharing the host through the OS scheduler; fairness and convergence dominate",
    },
    WorkloadSpec {
        name: "pool_drain_tiny",
        why: "sharded queue draining tiny ALU items under RUBIC, no STM: queue transport, stealing, park/wake and drain detection are the whole cost; must not move when the STM changes",
    },
    WorkloadSpec {
        name: "sim_pair",
        why: "deterministic simulator, 4x16 machine, Intruder + Vacation curves, second process arrives mid-run: decision quality at the paper's 64-context scale; STM and pool are bypassed",
    },
];

use Better::{Higher, Lower};

/// Every bound is the contract's widest. A bound belongs to a metric, not
/// to a (workload, metric) pair, and every metric is reported on
/// `colocated_pair`, where two RUBICs on an oversubscribed host leave a
/// run-to-run quartile spread of 6 to 15 % that no estimator removed;
/// the other five workloads hold 1 to 7 % (README, "Bounds").
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("tasks_per_s", "1/s", Higher, 0.25),
    e2e("overhead_x", "x", Lower, 0.25),
    e2e("tuning_efficiency", "ratio", Higher, 0.25),
    e2e("nash_speedup_product", "x", Higher, 0.25),
    e2e("min_tenant_speedup", "x", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

pub const PER_LAYER: [MetricSpec; 59] = [
    // stm — StmStats deltas over the measured windows, plus probe loops.
    layer("stm.commits", "count", Higher),
    layer("stm.aborts", "count", Lower),
    layer("stm.abort_ratio", "ratio", Lower),
    layer("stm.aborts.read-validation", "count", Lower),
    layer("stm.aborts.lock-busy", "count", Lower),
    layer("stm.aborts.explicit", "count", Lower),
    layer("stm.reads_per_commit", "count", Lower),
    layer("stm.writes_per_commit", "count", Lower),
    layer("stm.ro_commit_share", "ratio", Higher),
    layer("stm.txn_ro1_ns", "ns", Lower),
    layer("stm.txn_ro64_ns", "ns", Lower),
    layer("stm.txn_rw1_ns", "ns", Lower),
    layer("stm.txn_rw8_ns", "ns", Lower),
    // workloads — run_task timed from outside, with and without the pool.
    layer("workloads.task_ns_direct", "ns", Lower),
    layer("workloads.task_p50_ns", "ns", Lower),
    layer("workloads.task_p99_ns", "ns", Lower),
    layer("baseline.task_ns", "ns", Lower),
    // runtime — MalleablePool, RunReport, ShardedHandle.
    layer("runtime.noop_task_ns", "ns", Lower),
    layer("runtime.push_ns", "ns", Lower),
    layer("runtime.steals", "count", Lower),
    layer("runtime.steals_gated", "count", Lower),
    layer("runtime.steal_share", "ratio", Lower),
    layer("runtime.park_share", "ratio", Lower),
    layer("runtime.gate_wake_us", "us", Lower),
    layer("runtime.rounds_per_s", "1/s", Higher),
    layer("runtime.start_ms", "ms", Lower),
    layer("runtime.stop_ms", "ms", Lower),
    layer("runtime.worker_imbalance", "x", Lower),
    layer("runtime.worker_panics", "count", Lower),
    layer("runtime.stall_warnings", "count", Lower),
    // controllers — LevelTrace, Controller::decide, SimResult.
    layer("controllers.decide_ns", "ns", Lower),
    layer("controllers.mean_level", "count", Higher),
    layer("controllers.level_stddev", "count", Lower),
    layer("controllers.level_changes_per_s", "1/s", Lower),
    layer("controllers.oversub_share", "ratio", Lower),
    layer("controllers.level_error", "count", Lower),
    layer("controllers.sim_converge_round", "count", Lower),
    layer("controllers.sim_mean_total_threads", "count", Higher),
    layer("controllers.sim_efficiency", "ratio", Higher),
    // core — ColocationReport.
    layer("core.speedup.intruder", "x", Higher),
    layer("core.speedup.vacation", "x", Higher),
    layer("core.jain_index", "ratio", Higher),
    layer("core.mean_total_threads", "count", Higher),
    layer("core.run_overrun_ms", "ms", Lower),
    // sim — timing rubic_sim::run.
    layer("sim.rounds_per_s", "1/s", Higher),
    layer("sim.run_ms", "ms", Lower),
    // process — /proc/self.
    layer("proc.cpu_us_per_task", "us", Lower),
    layer("proc.cpu_util", "ratio", Higher),
    layer("proc.peak_rss_mb", "MB", Lower),
    // traced run — benchmark-side spans.
    layer("trace.task_share", "ratio", Higher),
    layer("trace.parked_share", "ratio", Lower),
    layer("trace.pool_share", "ratio", Lower),
    layer("trace.decide_share", "ratio", Lower),
    layer("trace.stm_share_est", "ratio", Lower),
    layer("trace.overhead_pct", "%", Lower),
    // host caveats and the failure share, carried in the data.
    layer("host.nproc", "count", Higher),
    layer("host.pool_size", "count", Higher),
    layer("host.oversubscribed", "count", Lower),
    layer("failed_task_share", "ratio", Lower),
];

/// The name rule of the contract: starts with a letter or digit, then at
/// most 64 letters, digits, `_`, `.` and `-` in all.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit rule: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks the tables against the contract's caps and rules.
///
/// # Errors
/// Names the first rule a table breaks.
pub fn check_tables(
    workloads: &[WorkloadSpec],
    end_to_end: &[MetricSpec],
    per_layer: &[MetricSpec],
) -> Result<(), String> {
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads, need 2 to 8", workloads.len()));
    }
    if !(1..=16).contains(&end_to_end.len()) {
        return Err(format!(
            "{} end-to-end metrics, need 1 to 16",
            end_to_end.len()
        ));
    }
    if !(1..=128).contains(&per_layer.len()) {
        return Err(format!(
            "{} per-layer metrics, need 1 to 128",
            per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = workloads
        .iter()
        .map(|w| w.name)
        .chain(end_to_end.iter().chain(per_layer).map(|m| m.name));
    for name in names {
        if !valid_name(name) {
            return Err(format!("name {name:?} breaks the name rule"));
        }
        if !seen.insert(name) {
            return Err(format!("name {name:?} is used twice"));
        }
    }
    for w in workloads {
        if w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!("why of {} is not one line of <= 200", w.name));
        }
    }
    for m in end_to_end.iter().chain(per_layer) {
        if !valid_unit(m.unit) {
            return Err(format!(
                "unit {:?} of {} breaks the unit rule",
                m.unit, m.name
            ));
        }
    }
    for m in end_to_end {
        match m.bound {
            Some(b) if b > 0.0 && b <= 0.25 => {}
            _ => return Err(format!("{} needs a bound in (0, 0.25]", m.name)),
        }
    }
    let setup_ok = end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower);
    if !setup_ok {
        return Err("setup_s (s, lower) must be an end-to-end metric".to_string());
    }
    if let Some(m) = per_layer.iter().find(|m| m.bound.is_some()) {
        return Err(format!("per-layer metric {} carries a bound", m.name));
    }
    Ok(())
}

/// `BENCHMARK.json` as the tables define it.
#[must_use]
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let metric = |m: &MetricSpec| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Json::Int(u64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_tables_meet_the_contract() {
        assert_eq!(check_tables(&WORKLOADS, &END_TO_END, &PER_LAYER), Ok(()));
    }

    #[test]
    fn committed_benchmark_json_is_generated_from_the_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json().pretty(),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- --emit-spec > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn readme_documents_every_name() {
        let readme = include_str!("../README.md");
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md does not document `{name}`"
            );
        }
    }

    #[test]
    fn name_rule() {
        for ok in [
            "a",
            "9lives",
            "stm.aborts.read-validation",
            "A_b-c.d",
            &"x".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_a", ".a", "-a", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn unit_rule() {
        for ok in ["ms", "1/s", "%", "x", "count", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "tasks per s", "×", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    fn many(n: usize, bound: Option<f64>) -> Vec<MetricSpec> {
        // Leaked names: the tables hold `&'static str` and a test may leak.
        (0..n)
            .map(|i| MetricSpec {
                name: Box::leak(format!("m{i}").into_boxed_str()),
                unit: "x",
                better: Higher,
                bound,
            })
            .collect()
    }

    fn workloads(n: usize) -> Vec<WorkloadSpec> {
        (0..n)
            .map(|i| WorkloadSpec {
                name: Box::leak(format!("w{i}").into_boxed_str()),
                why: "because",
            })
            .collect()
    }

    fn with_setup(mut e2e: Vec<MetricSpec>) -> Vec<MetricSpec> {
        e2e[0] = super::e2e("setup_s", "s", Lower, 0.25);
        e2e
    }

    #[test]
    fn caps_are_enforced() {
        let layers = || {
            let mut l = many(3, None);
            for m in &mut l {
                m.name = Box::leak(format!("l.{}", m.name).into_boxed_str());
            }
            l
        };
        let ok = |w: usize, e: usize| {
            check_tables(&workloads(w), &with_setup(many(e, Some(0.1))), &layers())
        };
        assert_eq!(ok(8, 16), Ok(()));
        assert!(ok(9, 16).unwrap_err().contains("workloads"));
        assert!(ok(1, 16).unwrap_err().contains("workloads"));
        assert!(ok(8, 17).unwrap_err().contains("end-to-end"));
        let mut big = many(129, None);
        for m in &mut big {
            m.name = Box::leak(format!("l.{}", m.name).into_boxed_str());
        }
        let err = check_tables(&workloads(2), &with_setup(many(2, Some(0.1))), &big);
        assert!(err.unwrap_err().contains("per-layer"));
    }

    #[test]
    fn duplicate_names_missing_setup_and_wide_bounds_are_refused() {
        let layers = [layer("l", "x", Higher)];
        let dup = [e2e("setup_s", "s", Lower, 0.2), e2e("w0", "x", Higher, 0.1)];
        assert!(check_tables(&workloads(2), &dup, &layers)
            .unwrap_err()
            .contains("twice"));
        let no_setup = [e2e("rate", "1/s", Higher, 0.1)];
        assert!(check_tables(&workloads(2), &no_setup, &layers)
            .unwrap_err()
            .contains("setup_s"));
        let wide = [e2e("setup_s", "s", Lower, 0.3)];
        assert!(check_tables(&workloads(2), &wide, &layers)
            .unwrap_err()
            .contains("bound"));
    }
}
