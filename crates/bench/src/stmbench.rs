//! The STM substrate's performance-trajectory harness (`stmbench`).
//!
//! Sweeps the three canonical workloads of the paper's evaluation
//! ({counter, rbtree, vacation}) across thread counts and an operation
//! mix axis, measuring committed operations per second and the abort
//! rate for each configuration, repeated `reps` times so every number
//! carries a mean ± sample stddev.
//!
//! The `stmbench` binary writes the result as `BENCH_stm.json` at the
//! repository root — the seed of the perf trajectory later PRs are
//! judged against. The schema (`rubic-stmbench/v4`) is documented in
//! the README's "Benchmarking" section and validated by
//! [`BenchReport::validate`], which the binary runs before writing so
//! a malformed report can never be committed silently.
//!
//! Every point carries the `ro_commits`/`ro_aborts` totals of its
//! declared read-only transactions: what the engine's one read protocol
//! (invisible reads, validated) pays in read-only aborts. v4 dropped the
//! `mode` field of v2–v3 along with the multi-version mode it selected
//! (DESIGN.md §14).
//!
//! Since v3 every point also carries a **structure**: the ordered-map
//! backend behind the workload. `snapshot` is the single-cell
//! persistent tree (`TMap`: every update conflicts with every update);
//! `btree` is the per-node transactional B-tree (`TBTreeMap`: a
//! transaction conflicts only on the O(log n) path it touched). The
//! axis is swept for the two map-backed workloads (rbtree, vacation);
//! counter has no map and is pinned to `snapshot`. The committed A/B
//! is the gate for the per-node design: it must beat the snapshot cell
//! on the write-heavy mix at t ≥ 4 and stay within noise on the
//! read-dominated mixes.
//!
//! Mix mapping per workload (the axis is "how much write conflict"):
//!
//! | workload | read-only | read-heavy | write-heavy |
//! |---|---|---|---|
//! | counter | — | striped over 1024 stripes (~conflict-free) | one shared counter (maximal conflict) |
//! | rbtree | 100 % look-ups (§4.6) | paper mix, 98 % look-ups | 50/25/25 lookup/insert/delete |
//! | vacation | — | STAMP `vacation-low` | STAMP `vacation-high` |

use std::time::Duration;

use rubic::controllers::Fixed;
use rubic::runtime::{MalleablePool, PoolConfig, Workload};
use rubic::stm::Stm;
use rubic::workloads::mapapi::{BTreeFamily, SnapshotFamily};
use rubic::workloads::rbtree::{OpMix, RbTreeConfig, RbTreeWorkloadOn};
use rubic::workloads::vacation::{VacationConfig, VacationWorkloadOn};
use rubic::workloads::{ConflictCounter, StripedCounter};

/// Schema identifier written into every report.
pub const SCHEMA: &str = "rubic-stmbench/v4";

/// Mean ± sample standard deviation over a set of repetitions.
#[derive(Debug, Clone)]
pub struct Stat {
    /// Arithmetic mean of `samples`.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub stddev: f64,
    /// The raw per-repetition measurements.
    pub samples: Vec<f64>,
}

impl Stat {
    /// Summarises `samples`.
    ///
    /// # Panics
    /// Panics if `samples` is empty.
    #[must_use]
    pub fn from_samples(samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "Stat needs at least one sample");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let stddev = if samples.len() < 2 {
            0.0
        } else {
            let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0);
            var.sqrt()
        };
        Stat {
            mean,
            stddev,
            samples,
        }
    }
}

/// One swept configuration and its measurements.
#[derive(Debug, Clone)]
pub struct BenchPoint {
    /// Workload family: `counter`, `rbtree`, or `vacation`.
    pub workload: &'static str,
    /// Operation mix: `read-only`, `read-heavy` or `write-heavy`.
    pub mix: &'static str,
    /// Ordered-map backend: `snapshot` (single-cell persistent tree)
    /// or `btree` (per-node B-tree). Always `snapshot` for workloads
    /// without a map axis (counter).
    pub structure: &'static str,
    /// Worker threads (fixed parallelism level for the whole run).
    pub threads: u32,
    /// Committed transactions per second.
    pub ops_per_sec: Stat,
    /// `aborts / (commits + aborts)` over the run.
    pub abort_rate: Stat,
    /// Read-only commits summed across all repetitions.
    pub ro_commits: u64,
    /// Read-only aborted attempts summed across all repetitions.
    pub ro_aborts: u64,
}

/// A complete sweep: harness parameters plus every measured point.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Repetitions per configuration.
    pub reps: u32,
    /// Measured duration per repetition, in milliseconds.
    pub duration_ms: u64,
    /// True when produced by the ~1 s `--smoke` sweep (reduced grid;
    /// not comparable with full runs).
    pub smoke: bool,
    /// `std::thread::available_parallelism` on the measuring host.
    pub hw_threads: u32,
    /// One entry per (workload, mix, structure, threads) configuration.
    pub points: Vec<BenchPoint>,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Repetitions per configuration.
    pub reps: u32,
    /// Measured duration per repetition.
    pub duration: Duration,
    /// Thread counts to sweep.
    pub threads: Vec<u32>,
    /// Map structures to sweep (subset of [`STRUCTURES`]); workloads
    /// without a map axis always run once as `snapshot`.
    pub structures: Vec<&'static str>,
    /// Reduced grid for CI schema validation.
    pub smoke: bool,
}

impl SweepOptions {
    /// The full sweep: {1,2,4,8,16} threads, 3 reps, 300 ms each, both
    /// map structures.
    #[must_use]
    pub fn full() -> Self {
        SweepOptions {
            reps: 3,
            duration: Duration::from_millis(300),
            threads: vec![1, 2, 4, 8, 16],
            structures: STRUCTURES.to_vec(),
            smoke: false,
        }
    }

    /// The ~1 s CI sweep: {1,2} threads, 1 rep, 25 ms each, small
    /// workload instances. Validates schema and plumbing, not perf.
    #[must_use]
    pub fn smoke() -> Self {
        SweepOptions {
            reps: 1,
            duration: Duration::from_millis(25),
            threads: vec![1, 2],
            structures: STRUCTURES.to_vec(),
            smoke: true,
        }
    }
}

/// The benchmarked grid axes.
const WORKLOADS: [&str; 3] = ["counter", "rbtree", "vacation"];
const MIXES: [&str; 3] = ["read-only", "read-heavy", "write-heavy"];
/// The map-structure axis (v3): `snapshot` is the single-cell `TMap`,
/// `btree` the per-node `TBTreeMap`.
pub const STRUCTURES: [&str; 2] = ["snapshot", "btree"];

/// The mixes a workload is swept over. Only rbtree has a meaningful
/// 100 %-read configuration (the paper's §4.6 convergence workload).
fn mixes_for(workload: &str) -> &'static [&'static str] {
    match workload {
        "rbtree" => &["read-only", "read-heavy", "write-heavy"],
        _ => &["read-heavy", "write-heavy"],
    }
}

/// The structures a workload is swept over: both map backends for the
/// map-backed workloads, pinned `snapshot` for counter (no map).
fn structures_for(workload: &str) -> &'static [&'static str] {
    match workload {
        "rbtree" | "vacation" => &["snapshot", "btree"],
        _ => &["snapshot"],
    }
}

/// Per-repetition measurements of one configuration.
struct RunSample {
    ops_per_sec: f64,
    abort_rate: f64,
    ro_commits: u64,
    ro_aborts: u64,
}

/// Runs one (workload, mix, structure, threads) repetition.
fn run_once(
    workload: &'static str,
    mix: &'static str,
    structure: &'static str,
    threads: u32,
    opts: &SweepOptions,
) -> RunSample {
    let stm = Stm::default();
    match (workload, mix) {
        ("counter", "read-heavy") => {
            let stripes = if opts.smoke { 64 } else { 1024 };
            drive(
                StripedCounter::new(stripes, stm.clone()),
                &stm,
                threads,
                opts,
            )
        }
        ("counter", "write-heavy") => drive(ConflictCounter::new(stm.clone()), &stm, threads, opts),
        ("rbtree", m) => {
            let mix = match m {
                "read-only" => OpMix::read_only(),
                "read-heavy" => OpMix::paper(),
                _ => OpMix::write_heavy(),
            };
            let cfg = if opts.smoke {
                RbTreeConfig::small().with_mix(mix)
            } else {
                RbTreeConfig {
                    initial_size: 4096,
                    key_range: 8192,
                    mix,
                    seed: 0x5EED_BEAC,
                }
            };
            if structure == "btree" {
                drive(
                    RbTreeWorkloadOn::<BTreeFamily>::new(cfg, stm.clone()),
                    &stm,
                    threads,
                    opts,
                )
            } else {
                drive(
                    RbTreeWorkloadOn::<SnapshotFamily>::new(cfg, stm.clone()),
                    &stm,
                    threads,
                    opts,
                )
            }
        }
        ("vacation", m) => {
            let relations = if opts.smoke { 64 } else { 256 };
            let cfg = if m == "read-heavy" {
                VacationConfig::low_contention(relations)
            } else {
                VacationConfig::high_contention(relations)
            };
            if structure == "btree" {
                drive(
                    VacationWorkloadOn::<BTreeFamily>::new(cfg, stm.clone()),
                    &stm,
                    threads,
                    opts,
                )
            } else {
                drive(
                    VacationWorkloadOn::<SnapshotFamily>::new(cfg, stm.clone()),
                    &stm,
                    threads,
                    opts,
                )
            }
        }
        other => unreachable!("unknown configuration {other:?}"),
    }
}

/// Runs `workload` on a fixed-level pool for the configured duration.
/// `stm` is a handle to the same runtime the workload uses, so the
/// read-only counters can be measured as a delta around the run
/// (excluding any setup transactions the constructor issued).
fn drive<W: Workload>(workload: W, stm: &Stm, threads: u32, opts: &SweepOptions) -> RunSample {
    let before = stm.stats().snapshot();
    let pool = MalleablePool::start(
        PoolConfig::new(threads)
            .initial_level(threads)
            .monitor_period(Duration::from_millis(5))
            .name("stmbench"),
        workload,
        Box::new(Fixed::new(threads, threads)),
    );
    rubic_sync::thread::sleep(opts.duration);
    let report = pool.stop();
    let delta = stm.stats().snapshot().delta_since(&before);
    RunSample {
        ops_per_sec: report.throughput(),
        abort_rate: report.abort_rate(),
        ro_commits: delta.ro_commits,
        ro_aborts: delta.ro_aborts,
    }
}

/// Runs the whole sweep, printing one progress line per configuration.
#[must_use]
pub fn run_sweep(opts: &SweepOptions) -> BenchReport {
    let mut points = Vec::new();
    for workload in WORKLOADS {
        for &mix in mixes_for(workload) {
            for &structure in structures_for(workload) {
                if !opts.structures.contains(&structure) && structures_for(workload).len() > 1 {
                    continue;
                }
                for &threads in &opts.threads {
                    let mut ops = Vec::with_capacity(opts.reps as usize);
                    let mut aborts = Vec::with_capacity(opts.reps as usize);
                    let mut ro_commits = 0u64;
                    let mut ro_aborts = 0u64;
                    for _ in 0..opts.reps {
                        let s = run_once(workload, mix, structure, threads, opts);
                        ops.push(s.ops_per_sec);
                        aborts.push(s.abort_rate);
                        ro_commits += s.ro_commits;
                        ro_aborts += s.ro_aborts;
                    }
                    let point = BenchPoint {
                        workload,
                        mix,
                        structure,
                        threads,
                        ops_per_sec: Stat::from_samples(ops),
                        abort_rate: Stat::from_samples(aborts),
                        ro_commits,
                        ro_aborts,
                    };
                    eprintln!(
                        "  {workload:>8} {mix:<11} {structure:<8} t={threads:<2} {:>12.0} ops/s ± {:>6.0}  abort {:.1}%  ro {}/{}",
                        point.ops_per_sec.mean,
                        point.ops_per_sec.stddev,
                        point.abort_rate.mean * 100.0,
                        point.ro_commits,
                        point.ro_aborts,
                    );
                    points.push(point);
                }
            }
        }
    }
    BenchReport {
        reps: opts.reps,
        duration_ms: opts.duration.as_millis() as u64,
        smoke: opts.smoke,
        hw_threads: rubic_sync::thread::available_parallelism().map_or(1, |n| n.get() as u32),
        points,
    }
}

fn json_f64(x: f64) -> String {
    // JSON has no NaN/Infinity literal; a broken measurement must not
    // produce an unparseable file.
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

fn json_stat(s: &Stat, indent: &str) -> String {
    let samples: Vec<String> = s.samples.iter().map(|&x| json_f64(x)).collect();
    format!(
        "{{\n{indent}  \"mean\": {},\n{indent}  \"stddev\": {},\n{indent}  \"samples\": [{}]\n{indent}}}",
        json_f64(s.mean),
        json_f64(s.stddev),
        samples.join(", "),
    )
}

impl BenchReport {
    /// Serialises the report as the documented `rubic-stmbench/v4`
    /// JSON schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!(
            "  \"harness\": {{\n    \"reps\": {},\n    \"duration_ms\": {},\n    \"smoke\": {},\n    \"hw_threads\": {}\n  }},\n",
            self.reps, self.duration_ms, self.smoke, self.hw_threads,
        ));
        out.push_str("  \"results\": [\n");
        let rows: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "    {{\n      \"workload\": \"{}\",\n      \"mix\": \"{}\",\n      \"structure\": \"{}\",\n      \"threads\": {},\n      \"ops_per_sec\": {},\n      \"abort_rate\": {},\n      \"ro_commits\": {},\n      \"ro_aborts\": {}\n    }}",
                    p.workload,
                    p.mix,
                    p.structure,
                    p.threads,
                    json_stat(&p.ops_per_sec, "      "),
                    json_stat(&p.abort_rate, "      "),
                    p.ro_commits,
                    p.ro_aborts,
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Structural sanity checks: non-empty grid, all means finite and
    /// non-negative, abort rates within [0, 1], sample counts matching
    /// `reps`, axes drawn from the documented sets (including the
    /// per-workload mix/structure restrictions). The binary refuses to
    /// write a report that fails these.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.points.is_empty() {
            return Err("empty sweep: no configurations measured".into());
        }
        for p in &self.points {
            let tag = format!("{}/{}/{}/t{}", p.workload, p.mix, p.structure, p.threads);
            if !WORKLOADS.contains(&p.workload) {
                return Err(format!("{tag}: unknown workload"));
            }
            if !MIXES.contains(&p.mix) {
                return Err(format!("{tag}: unknown mix"));
            }
            if !mixes_for(p.workload).contains(&p.mix) {
                return Err(format!("{tag}: mix {} not swept for {}", p.mix, p.workload));
            }
            if !STRUCTURES.contains(&p.structure) {
                return Err(format!("{tag}: unknown structure {}", p.structure));
            }
            if !structures_for(p.workload).contains(&p.structure) {
                return Err(format!(
                    "{tag}: structure {} not swept for {}",
                    p.structure, p.workload
                ));
            }
            if p.threads == 0 {
                return Err(format!("{tag}: zero threads"));
            }
            for (name, stat) in [
                ("ops_per_sec", &p.ops_per_sec),
                ("abort_rate", &p.abort_rate),
            ] {
                if stat.samples.len() != self.reps as usize {
                    return Err(format!(
                        "{tag}: {name} has {} samples, expected {}",
                        stat.samples.len(),
                        self.reps
                    ));
                }
                if !stat.mean.is_finite() || stat.mean < 0.0 {
                    return Err(format!("{tag}: {name} mean {} out of range", stat.mean));
                }
            }
            if p.ops_per_sec.mean <= 0.0 {
                return Err(format!("{tag}: zero throughput (harness stall?)"));
            }
            if p.abort_rate.mean > 1.0 {
                return Err(format!("{tag}: abort rate {} > 1", p.abort_rate.mean));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_mean_and_stddev() {
        let s = Stat::from_samples(vec![1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
        let single = Stat::from_samples(vec![5.0]);
        assert_eq!(single.stddev, 0.0);
    }

    #[test]
    fn smoke_sweep_produces_valid_json() {
        let mut opts = SweepOptions::smoke();
        // Keep the unit test well under a second.
        opts.threads = vec![1];
        opts.duration = Duration::from_millis(5);
        let report = run_sweep(&opts);
        report.validate().expect("smoke report must validate");
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"rubic-stmbench/v4\""));
        assert!(json.contains("\"workload\": \"rbtree\""));
        assert!(!json.contains("\"mode\""), "v4 has no mode axis");
        assert!(json.contains("\"structure\": \"snapshot\""));
        assert!(json.contains("\"structure\": \"btree\""));
        // counter 2 mixes × 1 structure + rbtree 3 × 2 + vacation 2 × 2.
        assert_eq!(
            report.points.len(),
            12,
            "per-workload mix × structure grid at 1 level"
        );
        // Balanced braces/brackets — cheap structural check without a
        // JSON parser in the dependency tree.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn structure_filter_restricts_map_workloads_only() {
        let mut opts = SweepOptions::smoke();
        opts.threads = vec![1];
        opts.duration = Duration::from_millis(5);
        opts.structures = vec!["btree"];
        let report = run_sweep(&opts);
        report.validate().expect("filtered report must validate");
        // counter still runs (pinned snapshot); rbtree/vacation only btree.
        assert!(report
            .points
            .iter()
            .all(|p| p.structure == "btree" || p.workload == "counter"));
        assert!(report.points.iter().any(|p| p.workload == "counter"));
    }

    #[test]
    fn validate_rejects_empty_and_out_of_range() {
        let empty = BenchReport {
            reps: 1,
            duration_ms: 1,
            smoke: true,
            hw_threads: 1,
            points: Vec::new(),
        };
        assert!(empty.validate().is_err());

        let bad = BenchReport {
            reps: 1,
            duration_ms: 1,
            smoke: true,
            hw_threads: 1,
            points: vec![BenchPoint {
                workload: "counter",
                mix: "read-heavy",
                structure: "snapshot",
                threads: 1,
                ops_per_sec: Stat::from_samples(vec![100.0]),
                abort_rate: Stat::from_samples(vec![1.5]),
                ro_commits: 0,
                ro_aborts: 0,
            }],
        };
        assert!(bad.validate().unwrap_err().contains("abort rate"));

        // Structure restrictions: counter must not claim a btree row,
        // and only rbtree sweeps the read-only mix.
        let counter_btree = BenchReport {
            reps: 1,
            duration_ms: 1,
            smoke: true,
            hw_threads: 1,
            points: vec![BenchPoint {
                workload: "counter",
                mix: "read-heavy",
                structure: "btree",
                threads: 1,
                ops_per_sec: Stat::from_samples(vec![100.0]),
                abort_rate: Stat::from_samples(vec![0.0]),
                ro_commits: 0,
                ro_aborts: 0,
            }],
        };
        assert!(counter_btree
            .validate()
            .unwrap_err()
            .contains("not swept for counter"));

        let vacation_ro = BenchReport {
            reps: 1,
            duration_ms: 1,
            smoke: true,
            hw_threads: 1,
            points: vec![BenchPoint {
                workload: "vacation",
                mix: "read-only",
                structure: "snapshot",
                threads: 1,
                ops_per_sec: Stat::from_samples(vec![100.0]),
                abort_rate: Stat::from_samples(vec![0.0]),
                ro_commits: 0,
                ro_aborts: 0,
            }],
        };
        assert!(vacation_ro
            .validate()
            .unwrap_err()
            .contains("not swept for vacation"));
    }
}
