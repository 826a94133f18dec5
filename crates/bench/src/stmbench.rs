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
//! the README's "Benchmarking" section; serialisation, the structural
//! checks every `BENCH_*.json` schema shares and the binary's
//! validate-then-write tail are [`crate::report`]'s, and
//! [`BenchReport::validate`] adds what only this schema promises (axis
//! values, the per-workload mix/structure table, abort rate ≤ 1), so a
//! malformed report can never be committed silently.
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

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use rubic::controllers::Fixed;
use rubic::runtime::{MalleablePool, PoolConfig, Workload};
use rubic::stm::Stm;
use rubic::workloads::mapapi::{BTreeFamily, SnapshotFamily};
use rubic::workloads::rbtree::{OpMix, RbTreeConfig, RbTreeWorkloadOn};
use rubic::workloads::vacation::{VacationConfig, VacationWorkloadOn};
use rubic::workloads::{ConflictCounter, StripedCounter};

use crate::report::{self, Document, Point, Stat, Value};

/// Schema identifier written into every report.
pub const SCHEMA: &str = "rubic-stmbench/v4";

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

impl BenchPoint {
    /// Names the point in validation errors and noise warnings.
    fn label(&self) -> String {
        format!(
            "{}/{}/{}/t{}",
            self.workload, self.mix, self.structure, self.threads
        )
    }
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

impl BenchReport {
    fn document(&self) -> Document<'_> {
        Document {
            schema: SCHEMA,
            reps: self.reps,
            harness: vec![
                ("duration_ms", Value::Int(self.duration_ms)),
                ("smoke", Value::Bool(self.smoke)),
                ("hw_threads", Value::Int(self.hw_threads.into())),
            ],
            points: self
                .points
                .iter()
                .map(|p| Point {
                    label: p.label(),
                    headline: &p.ops_per_sec,
                    fields: vec![
                        ("workload", Value::Str(p.workload)),
                        ("mix", Value::Str(p.mix)),
                        ("structure", Value::Str(p.structure)),
                        ("threads", Value::Int(p.threads.into())),
                        ("ops_per_sec", Value::Stat(&p.ops_per_sec)),
                        ("abort_rate", Value::Stat(&p.abort_rate)),
                        ("ro_commits", Value::Int(p.ro_commits)),
                        ("ro_aborts", Value::Int(p.ro_aborts)),
                    ],
                })
                .collect(),
        }
    }

    /// Serialises the report as the documented `rubic-stmbench/v4`
    /// JSON schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.document().to_json()
    }

    /// The shared structural checks ([`crate::report`]: non-empty grid,
    /// sample counts matching `reps`, finite non-negative means,
    /// positive throughput) plus this schema's own: axes drawn from the
    /// documented sets (including the per-workload mix/structure
    /// restrictions) and abort rates within [0, 1]. The binary refuses
    /// to write a report that fails these.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.document().validate()?;
        for p in &self.points {
            let tag = p.label();
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
            if p.abort_rate.mean > 1.0 {
                return Err(format!("{tag}: abort rate {} > 1", p.abort_rate.mean));
            }
        }
        Ok(())
    }

    /// The `stmbench` binary's tail: validate, name the noisy points,
    /// write `out`.
    pub fn finish(&self, out: &Path) -> ExitCode {
        report::finish("stmbench", self.validate(), &self.document(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
