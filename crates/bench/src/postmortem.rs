//! Bench-side post-mortem support: `--postmortem <dir>` for the
//! `stmbench` and `poolbench` binaries.
//!
//! When the flag is set, the harness runs its sweep under a trace
//! session (builds with `--features trace` only); after validation it
//! scans every measured point for *noisy* results — relative standard
//! deviation (`stddev / mean`) above `--stddev-ratio` (default 0.25) —
//! and, if any exist, freezes the session's flight recorder into a
//! post-mortem bundle (`rubic_trace::BUNDLE_SCHEMA`) next to the
//! `BENCH_*.json` report so
//! the run's tail of events, histograms, and contention table can be
//! inspected alongside the suspect numbers.
//!
//! Without the `trace` feature the flags still parse (so scripts stay
//! portable across builds) but the harness warns and skips the dump.

use std::path::PathBuf;

/// Parsed `--postmortem` / `--stddev-ratio` state shared by the bench
/// binaries.
#[derive(Debug, Clone)]
pub struct PostmortemOptions {
    /// Directory to drop the bundle in (`None` disables the feature).
    pub dir: Option<PathBuf>,
    /// Relative-stddev threshold above which a point counts as noisy.
    pub stddev_ratio: f64,
}

impl Default for PostmortemOptions {
    fn default() -> Self {
        PostmortemOptions {
            dir: None,
            // A quarter of the mean: far beyond run-to-run jitter on a
            // healthy configuration, low enough to catch bimodal runs.
            stddev_ratio: 0.25,
        }
    }
}

/// One benchmark point whose spread breached the ratio.
#[derive(Debug, Clone)]
pub struct NoisyPoint {
    /// Human-readable configuration label (`counter/read-heavy/sv/t4`).
    pub label: String,
    /// Mean of the breaching statistic.
    pub mean: f64,
    /// Sample standard deviation of the breaching statistic.
    pub stddev: f64,
}

/// Flags a statistic whose relative standard deviation exceeds the
/// configured ratio. Degenerate means (`<= 0`) never flag — validation
/// rejects them separately.
#[must_use]
pub fn is_noisy(mean: f64, stddev: f64, ratio: f64) -> bool {
    mean > 0.0 && stddev / mean > ratio
}

/// Trace-session wrapper: a live session in `trace` builds when a
/// post-mortem directory was requested, nothing otherwise.
pub struct BenchTrace {
    #[cfg(feature = "trace")]
    session: Option<rubic::trace::TraceSession>,
}

impl BenchTrace {
    /// Starts a recording session when `opts.dir` is set (and the
    /// harness was built with `--features trace`; warns otherwise).
    #[must_use]
    pub fn start(opts: &PostmortemOptions, bench: &str) -> Self {
        #[cfg(feature = "trace")]
        {
            let session = opts.dir.as_ref().map(|_| {
                // Histograms + flight recorder suffice for a bundle;
                // the unbounded full event log would dominate a long
                // sweep's memory for no diagnostic gain.
                let mut cfg = rubic::trace::TraceConfig {
                    keep_events: false,
                    ..Default::default()
                };
                cfg.manifest.push(("bench".to_string(), bench.to_string()));
                rubic::trace::TraceSession::start(cfg)
            });
            BenchTrace { session }
        }
        #[cfg(not(feature = "trace"))]
        {
            if opts.dir.is_some() {
                eprintln!(
                    "{bench}: --postmortem ignored — rebuild with \
                     `--features trace` to capture bundles"
                );
            }
            BenchTrace {}
        }
    }

    /// Ends the session; if any point breached the ratio, dumps one
    /// post-mortem bundle (trigger `bench-stddev`) into `opts.dir` and
    /// reports the breaching points on stderr. Returns the bundle path
    /// when one was written.
    pub fn finish(
        self,
        opts: &PostmortemOptions,
        noisy: &[NoisyPoint],
        bench: &str,
    ) -> Option<PathBuf> {
        for p in noisy {
            eprintln!(
                "{bench}: noisy point {} — stddev {:.1}% of mean \
                 (threshold {:.1}%)",
                p.label,
                100.0 * p.stddev / p.mean,
                100.0 * opts.stddev_ratio,
            );
        }
        #[cfg(feature = "trace")]
        {
            let session = self.session?;
            let dir = opts.dir.as_ref()?;
            let bundle = if noisy.is_empty() {
                None
            } else {
                // Record the anomaly in the event stream first so the
                // bundle itself names its trigger, then freeze.
                rubic::trace::emit(
                    rubic::trace::EventKind::Anomaly,
                    rubic::trace::codes::ANOMALY_BENCH_STDDEV,
                    noisy.len() as u64,
                    (opts.stddev_ratio * 1000.0) as u64,
                    0,
                );
                match session.dump_postmortem(dir, "bench-stddev") {
                    Ok(path) => {
                        eprintln!("{bench}: wrote post-mortem bundle {}", path.display());
                        Some(path)
                    }
                    Err(e) => {
                        eprintln!("{bench}: post-mortem dump failed: {e}");
                        None
                    }
                }
            };
            drop(session.finish());
            bundle
        }
        #[cfg(not(feature = "trace"))]
        {
            let _ = (opts, bench);
            None
        }
    }
}

/// Parses the shared `--postmortem`/`--stddev-ratio` arguments; returns
/// `Ok(true)` when `arg` was consumed (possibly pulling a value from
/// `it`), `Ok(false)` when it belongs to the caller.
///
/// # Errors
/// A missing or malformed value for either flag.
pub fn parse_arg(
    arg: &str,
    it: &mut impl Iterator<Item = String>,
    opts: &mut PostmortemOptions,
) -> Result<bool, String> {
    match arg {
        "--postmortem" => {
            opts.dir = Some(PathBuf::from(
                it.next().ok_or("--postmortem needs a directory")?,
            ));
            Ok(true)
        }
        "--stddev-ratio" => {
            let v = it.next().ok_or("--stddev-ratio needs a value")?;
            let r: f64 = v.parse().map_err(|_| format!("bad --stddev-ratio: {v}"))?;
            if !(r > 0.0 && r.is_finite()) {
                return Err("--stddev-ratio must be a positive number".into());
            }
            opts.stddev_ratio = r;
            Ok(true)
        }
        _ => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_threshold() {
        assert!(!is_noisy(100.0, 10.0, 0.25));
        assert!(is_noisy(100.0, 30.0, 0.25));
        assert!(!is_noisy(0.0, 30.0, 0.25));
        assert!(!is_noisy(-1.0, 30.0, 0.25));
        assert!(is_noisy(100.0, 26.0, 0.25));
    }

    #[test]
    fn arg_parsing() {
        let mut opts = PostmortemOptions::default();
        let mut it = vec!["/tmp/pm".to_string()].into_iter();
        assert_eq!(parse_arg("--postmortem", &mut it, &mut opts), Ok(true));
        assert_eq!(opts.dir.as_deref(), Some(std::path::Path::new("/tmp/pm")));

        let mut it = vec!["0.5".to_string()].into_iter();
        assert_eq!(parse_arg("--stddev-ratio", &mut it, &mut opts), Ok(true));
        assert!((opts.stddev_ratio - 0.5).abs() < 1e-12);

        let mut it = std::iter::empty();
        assert_eq!(parse_arg("--reps", &mut it, &mut opts), Ok(false));
        assert!(parse_arg("--stddev-ratio", &mut it, &mut opts).is_err());

        let mut it = vec!["-2".to_string()].into_iter();
        assert!(parse_arg("--stddev-ratio", &mut it, &mut opts).is_err());
    }

    #[test]
    fn disabled_bench_trace_is_inert() {
        let opts = PostmortemOptions::default();
        let t = BenchTrace::start(&opts, "test");
        assert!(t.finish(&opts, &[], "test").is_none());
    }
}
