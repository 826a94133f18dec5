//! Time-series analytics for convergence experiments.
//!
//! The paper's Figures 3, 5 and 10 plot the *parallelism level over time*
//! of each process and reason about the series' average (the dashed lines
//! in Fig. 3/5), how quickly it converges after a disturbance (a process
//! arrival in Fig. 10), and how hard it oscillates around the optimum.
//! [`LevelTrace`] captures one process's `(round, level, throughput)`
//! samples and computes those quantities.

/// One monitoring-round sample of a process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Monitoring round index (one round = one `TIME_PERIOD`, 10 ms in the
    /// paper's setup).
    pub round: u64,
    /// Parallelism level (active threads) chosen for this round.
    pub level: u32,
    /// Throughput observed during this round (commits per second, or any
    /// consistent unit).
    pub throughput: f64,
    /// Transaction aborts observed during this round (0 when the
    /// producer does not account aborts — e.g. the analytic simulator).
    pub aborts: u64,
}

/// A process's recorded control trace: level and throughput per round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelTrace {
    points: Vec<TracePoint>,
}

impl LevelTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        LevelTrace { points: Vec::new() }
    }

    /// Creates an empty trace with capacity for `rounds` samples.
    #[must_use]
    pub fn with_capacity(rounds: usize) -> Self {
        LevelTrace {
            points: Vec::with_capacity(rounds),
        }
    }

    /// Appends a sample with no abort information (aborts = 0).
    pub fn push(&mut self, round: u64, level: u32, throughput: f64) {
        self.push_with_aborts(round, level, throughput, 0);
    }

    /// Appends a sample carrying the round's abort count alongside its
    /// throughput — the full per-interval record the malleable pool's
    /// monitor produces.
    pub fn push_with_aborts(&mut self, round: u64, level: u32, throughput: f64, aborts: u64) {
        self.points.push(TracePoint {
            round,
            level,
            throughput,
            aborts,
        });
    }

    /// All recorded samples, in insertion order.
    #[must_use]
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The mean parallelism level over the whole trace — the dashed line
    /// of the paper's Fig. 3/5. `0.0` when empty.
    #[must_use]
    pub fn mean_level(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| f64::from(p.level)).sum::<f64>() / self.points.len() as f64
    }

    /// Mean level over a round window `[from, to)`. `0.0` if no samples
    /// fall in the window.
    #[must_use]
    pub fn mean_level_in(&self, from: u64, to: u64) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for p in &self.points {
            if p.round >= from && p.round < to {
                sum += f64::from(p.level);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Mean throughput over the whole trace. `0.0` when empty.
    #[must_use]
    pub fn mean_throughput(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.throughput).sum::<f64>() / self.points.len() as f64
    }

    /// Hardware utilisation implied by the trace: mean level divided by
    /// the number of hardware contexts. The paper quotes 75% for AIMD and
    /// ~94% for cubic growth on a 64-core machine (§2.2).
    #[must_use]
    pub fn utilization(&self, hw_contexts: u32) -> f64 {
        if hw_contexts == 0 {
            0.0
        } else {
            self.mean_level() / f64::from(hw_contexts)
        }
    }

    /// First round index (not sample index) from which the level stays
    /// within `target ± tolerance` for the remainder of the trace, or
    /// `None` if it never settles. This is the "convergence time" used to
    /// compare policies in Fig. 10.
    #[must_use]
    pub fn convergence_round(&self, target: f64, tolerance: f64) -> Option<u64> {
        if self.points.is_empty() {
            return None;
        }
        // Walk backwards: find the last point *outside* the band; the
        // convergence point is the next sample after it.
        let mut candidate: Option<u64> = None;
        for p in self.points.iter().rev() {
            if (f64::from(p.level) - target).abs() <= tolerance {
                candidate = Some(p.round);
            } else {
                break;
            }
        }
        candidate
    }

    /// Peak-to-trough amplitude of the level within the round window
    /// `[from, to)` — the size of the steady-state oscillation. `0.0` if
    /// fewer than two samples fall in the window.
    #[must_use]
    pub fn oscillation_amplitude(&self, from: u64, to: u64) -> f64 {
        let mut lo = u32::MAX;
        let mut hi = 0u32;
        let mut n = 0usize;
        for p in &self.points {
            if p.round >= from && p.round < to {
                lo = lo.min(p.level);
                hi = hi.max(p.level);
                n += 1;
            }
        }
        if n < 2 {
            0.0
        } else {
            f64::from(hi - lo)
        }
    }

    /// Standard deviation of the level over the whole trace (a stability
    /// measure analogous to Fig. 8b's cross-repetition std-dev, but within
    /// a single run).
    #[must_use]
    pub fn level_stddev(&self) -> f64 {
        crate::stats::Summary::from_iter(self.points.iter().map(|p| f64::from(p.level))).stddev()
    }

    /// Total aborts recorded across all samples.
    #[must_use]
    pub fn total_aborts(&self) -> u64 {
        self.points.iter().map(|p| p.aborts).sum()
    }

    /// Total committed work implied by the trace, assuming each sample's
    /// throughput held for `round_secs` seconds. This is how experiment
    /// harnesses turn round-granularity traces into the paper's
    /// whole-run commit counts.
    #[must_use]
    pub fn total_work(&self, round_secs: f64) -> f64 {
        self.points.iter().map(|p| p.throughput * round_secs).sum()
    }
}

impl std::iter::FromIterator<TracePoint> for LevelTrace {
    fn from_iter<I: IntoIterator<Item = TracePoint>>(iter: I) -> Self {
        LevelTrace {
            points: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(levels: &[u32]) -> LevelTrace {
        let mut t = LevelTrace::new();
        for (i, &l) in levels.iter().enumerate() {
            t.push(i as u64, l, f64::from(l) * 100.0);
        }
        t
    }

    #[test]
    fn empty_trace() {
        let t = LevelTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.mean_level(), 0.0);
        assert_eq!(t.mean_throughput(), 0.0);
        assert_eq!(t.convergence_round(32.0, 1.0), None);
    }

    #[test]
    fn mean_level_and_utilization() {
        let t = trace(&[32, 64, 48]);
        assert!((t.mean_level() - 48.0).abs() < 1e-12);
        assert!((t.utilization(64) - 0.75).abs() < 1e-12);
        assert_eq!(t.utilization(0), 0.0);
    }

    #[test]
    fn windowed_mean() {
        let t = trace(&[10, 20, 30, 40]);
        assert!((t.mean_level_in(1, 3) - 25.0).abs() < 1e-12);
        assert_eq!(t.mean_level_in(10, 20), 0.0);
    }

    #[test]
    fn convergence_detection() {
        // Levels: climb, overshoot, then settle at 32 +/- 1 from round 5.
        let t = trace(&[1, 8, 40, 50, 20, 31, 32, 33, 32, 31]);
        assert_eq!(t.convergence_round(32.0, 1.0), Some(5));
    }

    #[test]
    fn convergence_never() {
        let t = trace(&[1, 64, 1, 64]);
        assert_eq!(t.convergence_round(32.0, 1.0), None);
    }

    #[test]
    fn convergence_whole_trace_inside_band() {
        let t = trace(&[32, 32, 32]);
        assert_eq!(t.convergence_round(32.0, 1.0), Some(0));
    }

    #[test]
    fn oscillation_amplitude_window() {
        let t = trace(&[10, 60, 40, 50, 45]);
        assert_eq!(t.oscillation_amplitude(2, 5), 10.0);
        assert_eq!(t.oscillation_amplitude(0, 5), 50.0);
        assert_eq!(t.oscillation_amplitude(4, 5), 0.0); // single sample
    }

    #[test]
    fn total_work_integrates_throughput() {
        let t = trace(&[10, 20]); // throughputs 1000, 2000
        assert!((t.total_work(0.01) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn level_stddev_constant_is_zero() {
        assert_eq!(trace(&[5, 5, 5]).level_stddev(), 0.0);
        assert!(trace(&[1, 9]).level_stddev() > 0.0);
    }

    #[test]
    fn aborts_accumulate_per_sample() {
        let mut t = LevelTrace::new();
        t.push(0, 1, 100.0); // no abort info => 0
        t.push_with_aborts(1, 2, 200.0, 7);
        t.push_with_aborts(2, 2, 150.0, 3);
        assert_eq!(t.points()[0].aborts, 0);
        assert_eq!(t.points()[1].aborts, 7);
        assert_eq!(t.total_aborts(), 10);
    }
}
