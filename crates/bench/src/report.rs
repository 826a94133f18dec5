//! The one `BENCH_*.json` writer behind `stmbench` and `poolbench`.
//!
//! The two harnesses differ in what they sweep and in what their
//! schema promises; how a report is serialised, which structural checks
//! every schema shares, and what a binary does once its sweep returns
//! are the same for all of them and live here. A harness describes its
//! report as a [`Document`] — schema, harness parameters, and per point
//! a label, named fields and the headline statistic — and keeps only
//! the checks particular to its schema.

use std::path::Path;
use std::process::ExitCode;

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

/// One JSON value of a report.
#[derive(Clone, Copy)]
pub(crate) enum Value<'a> {
    Str(&'a str),
    Int(u64),
    Bool(bool),
    Stat(&'a Stat),
}

/// One measured configuration.
pub(crate) struct Point<'a> {
    /// Names the point in validation errors and noise warnings
    /// (`counter/read-heavy/snapshot/t4`).
    pub label: String,
    /// The statistic the point exists to report: it must be positive,
    /// and it is the one the noise scan reads.
    pub headline: &'a Stat,
    /// The point's JSON object, in output order.
    pub fields: Vec<(&'static str, Value<'a>)>,
}

/// A whole report, ready to validate and serialise.
pub(crate) struct Document<'a> {
    pub schema: &'static str,
    /// Repetitions per point: every `Stat` must carry this many samples,
    /// and every schema's `harness` object opens with it.
    pub reps: u32,
    /// The rest of the `harness` JSON object, in output order.
    pub harness: Vec<(&'static str, Value<'a>)>,
    pub points: Vec<Point<'a>>,
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

/// A JSON object whose braces sit at `indent` and whose keys sit one
/// level deeper.
fn json_object(fields: &[(&'static str, Value<'_>)], indent: &str) -> String {
    let inner = format!("{indent}  ");
    let rows: Vec<String> = fields
        .iter()
        .map(|(key, value)| {
            let rendered = match value {
                Value::Str(s) => format!("\"{s}\""),
                Value::Int(n) => n.to_string(),
                Value::Bool(b) => b.to_string(),
                Value::Stat(s) => json_stat(s, &inner),
            };
            format!("{inner}\"{key}\": {rendered}")
        })
        .collect();
    format!("{{\n{}\n{indent}}}", rows.join(",\n"))
}

impl Document<'_> {
    /// Serialises the report: `schema`, the `harness` object, and one
    /// `results` entry per point.
    pub(crate) fn to_json(&self) -> String {
        let harness: Vec<_> = std::iter::once(("reps", Value::Int(self.reps.into())))
            .chain(self.harness.iter().copied())
            .collect();
        let rows: Vec<String> = self
            .points
            .iter()
            .map(|p| format!("    {}", json_object(&p.fields, "    ")))
            .collect();
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"harness\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
            self.schema,
            json_object(&harness, "  "),
            rows.join(",\n"),
        )
    }

    /// The checks every schema shares: a non-empty grid, every `Stat`
    /// with `reps` samples and a finite non-negative mean, and a
    /// positive headline.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.points.is_empty() {
            return Err("empty sweep: no configurations measured".into());
        }
        for p in &self.points {
            let tag = &p.label;
            for (name, value) in &p.fields {
                let Value::Stat(stat) = value else { continue };
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
            if p.headline.mean <= 0.0 {
                return Err(format!(
                    "{tag}: headline mean {} out of range (harness stall?)",
                    p.headline.mean
                ));
            }
        }
        Ok(())
    }
}

/// Relative standard deviation (`stddev / mean`) above which a point is
/// named as noisy: far beyond run-to-run jitter on a healthy
/// configuration, low enough to catch bimodal runs.
const NOISY_RATIO: f64 = 0.25;

/// Flags a statistic whose relative standard deviation exceeds
/// [`NOISY_RATIO`]. Degenerate means (`<= 0`) never flag — validation
/// rejects them separately.
fn is_noisy(s: &Stat) -> bool {
    s.mean > 0.0 && s.stddev / s.mean > NOISY_RATIO
}

/// What a bench binary does once its sweep returned: refuse a report
/// that failed validation, name the noisy points, then write the JSON.
/// A malformed report is never written.
pub(crate) fn finish(
    bench: &str,
    validated: Result<(), String>,
    doc: &Document<'_>,
    out: &Path,
) -> ExitCode {
    if let Err(msg) = validated {
        eprintln!("{bench}: report failed validation: {msg}");
        return ExitCode::FAILURE;
    }
    for p in doc.points.iter().filter(|p| is_noisy(p.headline)) {
        eprintln!(
            "{bench}: noisy point {} — stddev {:.1}% of mean (threshold {:.1}%)",
            p.label,
            100.0 * p.headline.stddev / p.headline.mean,
            100.0 * NOISY_RATIO,
        );
    }
    if let Err(e) = std::fs::write(out, doc.to_json()) {
        eprintln!("{bench}: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("{bench}: wrote {}", out.display());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poolbench::{PoolBenchPoint, PoolBenchReport};
    use crate::stmbench::{BenchPoint, BenchReport};

    #[test]
    fn stat_mean_and_stddev() {
        let s = Stat::from_samples(vec![1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
        let single = Stat::from_samples(vec![5.0]);
        assert_eq!(single.stddev, 0.0);
    }

    #[test]
    fn noise_threshold() {
        let stat = |mean: f64, stddev: f64| Stat {
            mean,
            stddev,
            samples: Vec::new(),
        };
        assert!(!is_noisy(&stat(100.0, 10.0)));
        assert!(is_noisy(&stat(100.0, 30.0)));
        assert!(!is_noisy(&stat(0.0, 30.0)));
        assert!(!is_noisy(&stat(-1.0, 30.0)));
        assert!(is_noisy(&stat(100.0, 26.0)));
    }

    // The goldens below are the output of the two per-harness writers
    // this module replaced, captured on fixed two-point reports: stm v5 =
    // v4 minus the `structure` lines (under its own schema string), pool
    // v2 = v1 minus the `queue` line.

    #[test]
    fn stm_v5_golden() {
        let report = BenchReport {
            reps: 2,
            duration_ms: 300,
            smoke: false,
            hw_threads: 2,
            points: vec![
                BenchPoint {
                    workload: "counter",
                    mix: "write-heavy",
                    threads: 1,
                    ops_per_sec: Stat::from_samples(vec![1000.5, 2000.25]),
                    abort_rate: Stat::from_samples(vec![0.0, 0.125]),
                    ro_commits: 0,
                    ro_aborts: 0,
                },
                BenchPoint {
                    workload: "rbtree",
                    mix: "read-only",
                    threads: 4,
                    ops_per_sec: Stat::from_samples(vec![3.0, f64::NAN]),
                    abort_rate: Stat::from_samples(vec![0.5, 0.5]),
                    ro_commits: 77,
                    ro_aborts: 3,
                },
            ],
        };
        let golden = r#"{
  "schema": "rubic-stmbench/v5",
  "harness": {
    "reps": 2,
    "duration_ms": 300,
    "smoke": false,
    "hw_threads": 2
  },
  "results": [
    {
      "workload": "counter",
      "mix": "write-heavy",
      "threads": 1,
      "ops_per_sec": {
        "mean": 1500.375000,
        "stddev": 706.930004,
        "samples": [1000.500000, 2000.250000]
      },
      "abort_rate": {
        "mean": 0.062500,
        "stddev": 0.088388,
        "samples": [0.000000, 0.125000]
      },
      "ro_commits": 0,
      "ro_aborts": 0
    },
    {
      "workload": "rbtree",
      "mix": "read-only",
      "threads": 4,
      "ops_per_sec": {
        "mean": null,
        "stddev": null,
        "samples": [3.000000, null]
      },
      "abort_rate": {
        "mean": 0.500000,
        "stddev": 0.000000,
        "samples": [0.500000, 0.500000]
      },
      "ro_commits": 77,
      "ro_aborts": 3
    }
  ]
}
"#;
        assert_eq!(report.to_json(), golden);
    }

    #[test]
    fn pool_v2_golden() {
        let report = PoolBenchReport {
            reps: 2,
            items_tiny: 60_000,
            items_stm: 12_000,
            smoke: true,
            hw_threads: 2,
            points: vec![
                PoolBenchPoint {
                    task: "tiny",
                    controller: "fixed",
                    workers: 1,
                    ops_per_sec: Stat::from_samples(vec![1000.5, 2000.25]),
                },
                PoolBenchPoint {
                    task: "stm-txn",
                    controller: "rubic",
                    workers: 16,
                    ops_per_sec: Stat::from_samples(vec![7.0, 7.0]),
                },
            ],
        };
        let golden = r#"{
  "schema": "rubic-poolbench/v2",
  "harness": {
    "reps": 2,
    "items_tiny": 60000,
    "items_stm": 12000,
    "smoke": true,
    "hw_threads": 2
  },
  "results": [
    {
      "task": "tiny",
      "controller": "fixed",
      "workers": 1,
      "ops_per_sec": {
        "mean": 1500.375000,
        "stddev": 706.930004,
        "samples": [1000.500000, 2000.250000]
      }
    },
    {
      "task": "stm-txn",
      "controller": "rubic",
      "workers": 16,
      "ops_per_sec": {
        "mean": 7.000000,
        "stddev": 0.000000,
        "samples": [7.000000, 7.000000]
      }
    }
  ]
}
"#;
        assert_eq!(report.to_json(), golden);
    }
}
