//! AIMD (additive-increase / multiplicative-decrease) — the paper's
//! SPAA '15 brief-announcement predecessor (Mohtasham & Barreto, *Fair
//! adaptive parallelism for concurrent TM applications*), analysed in
//! §2.1–§2.2.
//!
//! Replacing AIAD's additive decrease with a multiplicative one makes a
//! multi-process system *converge* to the fair allocation (the classic
//! Chiu–Jain result for congestion avoidance), but the deep sawtooth
//! undersubscribes the machine: with α = 0.5 on a 64-context machine the
//! level oscillates between ~32 and ~64 for an average of ~48 — only 75%
//! utilisation (Fig. 3). RUBIC's cubic growth exists to fix exactly this.

use crate::{clamp_level, improved, Controller, Sample};

/// AIMD controller: `+1` on improvement, `level × α` on loss.
///
/// ```
/// use rubic_controllers::{Aimd, Controller, Sample};
/// let mut c = Aimd::new(0.5, 64);
/// assert_eq!(c.decide(Sample { throughput: 10.0, level: 40, round: 0 }), 41);
/// assert_eq!(c.decide(Sample { throughput: 1.0, level: 41, round: 1 }), 21); // 41 * 0.5 rounded
/// ```
#[derive(Debug, Clone)]
pub struct Aimd {
    alpha: f64,
    tolerance: f64,
    max_level: u32,
    t_p: f64,
}

impl Aimd {
    /// Creates an AIMD controller with decrease factor `alpha ∈ (0,1)`
    /// and a +1 additive step.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1)`.
    #[must_use]
    pub fn new(alpha: f64, max_level: u32) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0,1), got {alpha}"
        );
        Aimd {
            alpha,
            tolerance: 0.0,
            max_level: max_level.max(1),
            t_p: 0.0,
        }
    }

    /// Sets the throughput-comparison tolerance; returns `self`.
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// The multiplicative decrease factor.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Controller for Aimd {
    fn decide(&mut self, sample: Sample) -> u32 {
        let (proposal, phase) = if improved(sample.throughput, self.t_p, self.tolerance) {
            self.t_p = sample.throughput;
            (
                f64::from(sample.level) + 1.0,
                crate::trc::phase::GROWTH_LINEAR,
            )
        } else {
            // Forget T_p after a decrease (same rationale as Algorithm 2
            // line 35): the reduced level's lower absolute throughput
            // must not read as a fresh loss, or the controller would
            // spiral multiplicatively down to one thread instead of
            // producing the Fig. 3 sawtooth.
            self.t_p = 0.0;
            (
                f64::from(sample.level) * self.alpha,
                crate::trc::phase::REDUCE_MULT,
            )
        };
        let next = clamp_level(proposal, self.max_level);
        crate::trc::decision(
            phase,
            sample.throughput,
            sample.level,
            next,
            crate::trc::policy::AIMD,
        );
        next
    }

    fn reset(&mut self) {
        self.t_p = 0.0;
    }

    fn max_level(&self) -> u32 {
        self.max_level
    }

    fn name(&self) -> &'static str {
        "AIMD"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(thr: f64, level: u32, round: u64) -> Sample {
        Sample {
            throughput: thr,
            level,
            round,
        }
    }

    #[test]
    fn additive_up_multiplicative_down() {
        let mut c = Aimd::new(0.5, 128);
        assert_eq!(c.decide(s(10.0, 64, 0)), 65);
        assert_eq!(c.decide(s(1.0, 65, 1)), 33); // 32.5 rounds to 33
                                                 // The round after a decrease is a free-pass probe (T_p was
                                                 // forgotten), so even low throughput grows additively.
        assert_eq!(c.decide(s(0.5, 33, 2)), 34);
        // A loss against the re-established baseline halves again.
        c.decide(s(8.0, 34, 3)); // improvement, T_p = 8
        assert_eq!(c.decide(s(2.0, 35, 4)), 18); // 17.5 rounds to 18
    }

    #[test]
    fn sawtooth_average_around_75_percent() {
        // Fig. 3: perfectly scalable workload on 64 contexts, α = 0.5.
        // The average steady-state level should be ~48 (75% of 64).
        let mut c = Aimd::new(0.5, 128);
        let mut level = 1u32;
        let mut trace = Vec::new();
        for r in 0..2000 {
            let l = f64::from(level);
            let thr = if l <= 64.0 { l } else { 64.0 - (l - 64.0) };
            level = c.decide(s(thr, level, r));
            trace.push(level);
        }
        let tail = &trace[500..];
        let mean: f64 = tail.iter().map(|&l| f64::from(l)).sum::<f64>() / tail.len() as f64;
        assert!(
            (42.0..=56.0).contains(&mean),
            "AIMD steady-state mean {mean}, expected ~48"
        );
    }

    #[test]
    fn floor_at_one() {
        // Strictly decreasing throughput: every comparable round is a
        // loss, alternating with the free-pass probe round that follows
        // each decrease. The level must bottom out at 1 and never below.
        let mut c = Aimd::new(0.5, 64);
        c.decide(s(100.0, 32, 0));
        let mut level = 32u32;
        let mut min_seen = u32::MAX;
        let mut thr = 90.0;
        for r in 1..40u32 {
            level = c.decide(s(thr, level, u64::from(r)));
            thr *= 0.5;
            assert!(level >= 1);
            min_seen = min_seen.min(level);
        }
        // Decrease rounds alternate with free-pass probe (+1) rounds, so
        // the trajectory bottoms out hovering at 2-3 threads; the clamp
        // guarantees it never dips below 1.
        assert!(min_seen <= 2, "never got near the floor: min {min_seen}");
    }

    #[test]
    fn ceiling_at_max() {
        let mut c = Aimd::new(0.5, 8);
        let mut level = 1u32;
        for r in 0..50u32 {
            level = c.decide(s(f64::from(r + 1), level, u64::from(r)));
        }
        assert_eq!(level, 8);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_alpha_one() {
        let _ = Aimd::new(1.0, 64);
    }

    #[test]
    fn reset_clears_t_p() {
        let mut c = Aimd::new(0.5, 64);
        c.decide(s(100.0, 10, 0));
        c.reset();
        assert_eq!(c.decide(s(0.1, 10, 1)), 11);
    }
}
