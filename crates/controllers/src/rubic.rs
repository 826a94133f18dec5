//! The RUBIC controller — a faithful port of Algorithm 2.
//!
//! RUBIC is a CIMD (cubic-increase / multiplicative-decrease) feedback
//! controller with two refinements over the pure CIMD model of §2.2:
//!
//! 1. **Growth interleaving** (§3.2): cubic growth rounds alternate with
//!    single-step (+1) linear rounds, so the controller always compares
//!    two *adjacent* levels and makes more accurate decisions.
//! 2. **Reduction interleaving** (§3.3): on a performance drop the
//!    controller first tries a cheap linear decrease (−2); only if the
//!    loss persists in the next round does it take the expensive
//!    multiplicative decrease (`L_max ← L`, `L ← α·L`). This avoids
//!    paying an MD for transient dips while still reacting
//!    multiplicatively to genuine regime changes (a new process joining,
//!    for instance).
//!
//! State transitions follow Algorithm 2 line-for-line, including the two
//! easy-to-miss resets: `reduction ← LINEAR` whenever an improvement is
//! observed with `T_p ≠ 0` (lines 17–19), and `T_p ← 0` after every
//! decrease (line 35) so the round that follows a reduction always takes
//! the growth branch — re-probing from the reduced level instead of
//! shrinking further on stale data.

use crate::cubic::{CubicGrowth, CubicKConvention};
use crate::{clamp_level, improved, Controller, Sample};

/// Tuning constants for [`Rubic`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RubicConfig {
    /// Multiplicative decrease factor α (paper evaluation: 0.8).
    pub alpha: f64,
    /// Cubic growth scaling factor β (paper evaluation: 0.1).
    pub beta: f64,
    /// `K`-constant convention for Equation (1); see
    /// [`CubicKConvention`].
    pub convention: CubicKConvention,
    /// Linear decrease step used on the first round of a loss (Algorithm
    /// 2 line 31 uses 2).
    pub linear_decrease: u32,
}

impl Default for RubicConfig {
    fn default() -> Self {
        RubicConfig {
            alpha: 0.8,
            beta: 0.1,
            convention: CubicKConvention::default(),
            linear_decrease: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Growth {
    Cubic,
    Linear,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reduction {
    Linear,
    Multiplicative,
}

/// The RUBIC parallelism controller (Algorithm 2).
///
/// ```
/// use rubic_controllers::{Controller, Rubic, RubicConfig, Sample};
/// let mut c = Rubic::new(RubicConfig::default(), 128);
/// assert_eq!(c.name(), "RUBIC");
/// // First round: T_p starts at 0, so any throughput is an improvement
/// // and the controller starts its cubic probing phase from level 1.
/// let next = c.decide(Sample { throughput: 100.0, level: 1, round: 0 });
/// assert!(next >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct Rubic {
    cfg: RubicConfig,
    tolerance: f64,
    max_level: u32,
    cubic: CubicGrowth,
    growth: Growth,
    reduction: Reduction,
    t_p: f64,
}

impl Rubic {
    /// Creates a RUBIC controller for a thread pool of size `max_level`.
    ///
    /// # Panics
    /// Panics if `alpha ∉ (0,1)` or `beta <= 0` (via [`CubicGrowth`]).
    #[must_use]
    pub fn new(cfg: RubicConfig, max_level: u32) -> Self {
        let cubic = CubicGrowth::new(cfg.alpha, cfg.beta, cfg.convention);
        Rubic {
            cfg,
            tolerance: 0.0,
            max_level: max_level.max(1),
            cubic,
            growth: Growth::Cubic,
            reduction: Reduction::Linear,
            t_p: 0.0,
        }
    }

    /// Sets the relative throughput tolerance of the `T_c >= T_p`
    /// comparison; returns `self`. The default `0.0` is the
    /// paper-literal comparison; a few percent helps with noisy in-vivo
    /// measurements.
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// The configuration this controller was built with.
    #[must_use]
    pub fn config(&self) -> &RubicConfig {
        &self.cfg
    }

    /// The last level at which a loss triggered a multiplicative
    /// decrease (`L_max`), exposed for tests and tracing.
    #[must_use]
    pub fn l_max(&self) -> f64 {
        self.cubic.l_max()
    }
}

impl Controller for Rubic {
    fn decide(&mut self, sample: Sample) -> u32 {
        let l_c = sample.level;
        let (proposal, phase) = if improved(sample.throughput, self.t_p, self.tolerance) {
            // Growth branch (Algorithm 2 lines 6-23).
            let (proposal, phase) = match self.growth {
                Growth::Cubic => {
                    // Lines 8-12: Δt_max += 1, evaluate Equation (1),
                    // take max(L_cubic, L+1), switch to a linear round.
                    let l_cubic = self.cubic.grow();
                    self.growth = Growth::Linear;
                    (
                        l_cubic.max(f64::from(l_c) + 1.0),
                        crate::trc::phase::GROWTH_CUBIC,
                    )
                }
                Growth::Linear => {
                    // Lines 13-15: plain +1, switch back to cubic.
                    self.growth = Growth::Cubic;
                    (f64::from(l_c) + 1.0, crate::trc::phase::GROWTH_LINEAR)
                }
            };
            // Lines 17-19: a genuine improvement (not the free pass after
            // a decrease, where T_p == 0) re-arms the cheap linear
            // reduction.
            if self.t_p != 0.0 {
                self.reduction = Reduction::Linear;
            }
            // Line 23.
            self.t_p = sample.throughput;
            (proposal, phase)
        } else {
            // Reduction branch (lines 24-36).
            let (proposal, phase) = match self.reduction {
                Reduction::Multiplicative => {
                    // Lines 26-29: L_max ← L, L ← αL. (Line 25's
                    // Δt_max ← 0 is folded into multiplicative_decrease.)
                    self.reduction = Reduction::Linear;
                    (
                        self.cubic.multiplicative_decrease(l_c),
                        crate::trc::phase::REDUCE_MULT,
                    )
                }
                Reduction::Linear => {
                    // Lines 30-32: first try a cheap linear step down.
                    self.cubic.reset_clock(); // line 25
                    self.reduction = Reduction::Multiplicative;
                    (
                        f64::from(l_c) - f64::from(self.cfg.linear_decrease),
                        crate::trc::phase::REDUCE_LINEAR,
                    )
                }
            };
            // Line 34: the round after any decrease grows linearly, so
            // the controller compares the reduced level with its +1
            // neighbour before resuming cubic probing.
            self.growth = Growth::Linear;
            // Line 35: forget T_p so the next round unconditionally takes
            // the growth branch from the reduced level.
            self.t_p = 0.0;
            (proposal, phase)
        };
        let next = clamp_level(proposal, self.max_level);
        crate::trc::decision(
            phase,
            sample.throughput,
            l_c,
            next,
            crate::trc::policy::RUBIC,
        );
        crate::trc::rubic_state(phase, self.t_p, self.l_max(), l_c, next);
        next
    }

    fn reset(&mut self) {
        self.cubic.reset();
        self.growth = Growth::Cubic;
        self.reduction = Reduction::Linear;
        self.t_p = 0.0;
    }

    fn max_level(&self) -> u32 {
        self.max_level
    }

    fn name(&self) -> &'static str {
        "RUBIC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(throughput: f64, level: u32, round: u64) -> Sample {
        Sample {
            throughput,
            level,
            round,
        }
    }

    /// Drives the controller against a synthetic concave scalability
    /// curve with a knee at `peak`, returning the level trace.
    fn drive(ctl: &mut Rubic, peak: f64, rounds: usize) -> Vec<u32> {
        let mut level = 1u32;
        let mut trace = Vec::with_capacity(rounds);
        for round in 0..rounds {
            let l = f64::from(level);
            // Monotone rise to the peak, then decline (paper's required
            // curve shape, §4.4).
            let thr = if l <= peak {
                l
            } else {
                peak - 0.5 * (l - peak)
            };
            level = ctl.decide(sample(thr, level, round as u64));
            trace.push(level);
        }
        trace
    }

    #[test]
    fn first_round_takes_growth_branch() {
        let mut c = Rubic::new(RubicConfig::default(), 64);
        let next = c.decide(sample(50.0, 1, 0));
        assert!(next >= 2, "got {next}");
    }

    #[test]
    fn growth_interleaves_cubic_and_linear() {
        let mut c = Rubic::new(RubicConfig::default(), 1024);
        // Feed ever-improving throughput; with L_max = 1 the cubic rounds
        // eventually take big steps while the interleaved linear rounds
        // step exactly +1.
        let mut level = 1u32;
        let mut steps = Vec::new();
        for round in 0..20 {
            let next = c.decide(sample(f64::from(level) * 10.0 + 1.0, level, round));
            steps.push(next as i64 - i64::from(level));
            level = next;
        }
        // Odd rounds (0-indexed: 1, 3, 5, ...) are the linear +1 rounds.
        for (i, &s) in steps.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(
                    s, 1,
                    "round {i} should be a linear +1 round, steps {steps:?}"
                );
            } else {
                assert!(s >= 1, "round {i} cubic step must be >= 1");
            }
        }
        // At least one cubic step must eventually exceed +1 (probing).
        assert!(
            steps.iter().step_by(2).any(|&s| s > 1),
            "no cubic probing observed: {steps:?}"
        );
    }

    #[test]
    fn single_loss_triggers_linear_decrease_first() {
        let mut c = Rubic::new(RubicConfig::default(), 64);
        // Build up some throughput history.
        let l1 = c.decide(sample(100.0, 10, 0));
        // Now a drop: expect a linear -2, not a multiplicative cut.
        let l2 = c.decide(sample(10.0, l1, 1));
        assert_eq!(l2, l1 - 2, "expected linear decrease by 2");
    }

    #[test]
    fn persistent_loss_escalates_to_multiplicative() {
        let cfg = RubicConfig::default();
        let mut c = Rubic::new(cfg, 64);
        c.decide(sample(100.0, 40, 0)); // improvement, T_p = 100
        let l1 = c.decide(sample(50.0, 40, 1)); // loss #1 -> linear -2
        assert_eq!(l1, 38);
        // After a decrease T_p == 0, so the next round is a free-pass
        // growth round (linear +1).
        let l2 = c.decide(sample(49.0, l1, 2));
        assert_eq!(l2, 39);
        // T_p is now 49; a further drop while reduction is still armed
        // MULTIPLICATIVE cuts to α·L.
        let l3 = c.decide(sample(20.0, l2, 3));
        assert_eq!(l3, (0.8f64 * 39.0).round() as u32);
        assert_eq!(c.l_max(), 39.0);
    }

    #[test]
    fn improvement_rearms_linear_reduction() {
        let mut c = Rubic::new(RubicConfig::default(), 64);
        c.decide(sample(100.0, 40, 0)); // T_p = 100
        let l1 = c.decide(sample(50.0, 40, 1)); // loss -> linear -2, reduction now MULT
        let l2 = c.decide(sample(60.0, l1, 2)); // free-pass growth (T_p was 0)
        let l3 = c.decide(sample(70.0, l2, 3)); // genuine improvement -> reduction re-armed LINEAR
        let l4 = c.decide(sample(10.0, l3, 4)); // loss again -> must be linear -2 again
        assert_eq!(l4, l3 - 2, "reduction was not re-armed to linear");
    }

    #[test]
    fn settles_near_the_knee() {
        let mut c = Rubic::new(RubicConfig::default(), 128);
        let trace = drive(&mut c, 64.0, 400);
        let tail = &trace[300..];
        let mean = tail.iter().map(|&l| f64::from(l)).sum::<f64>() / tail.len() as f64;
        assert!(
            (48.0..=80.0).contains(&mean),
            "steady-state mean level {mean} not near the 64-thread knee"
        );
    }

    #[test]
    fn high_utilization_at_steady_state() {
        // §2.2 claims cubic growth lifts utilisation to ~94% vs AIMD's
        // 75%. Allow a generous band: >= 82%.
        let mut c = Rubic::new(RubicConfig::default(), 128);
        let trace = drive(&mut c, 64.0, 600);
        let tail = &trace[200..];
        let mean = tail.iter().map(|&l| f64::from(l)).sum::<f64>() / tail.len() as f64;
        let clipped: f64 =
            tail.iter().map(|&l| f64::from(l).min(64.0)).sum::<f64>() / tail.len() as f64;
        assert!(
            clipped / 64.0 >= 0.82,
            "utilisation too low: {:.3} (mean level {mean})",
            clipped / 64.0
        );
    }

    #[test]
    fn never_leaves_bounds() {
        let mut c = Rubic::new(RubicConfig::default(), 32);
        let mut level = 1u32;
        // Adversarial alternating feedback.
        for round in 0..1000 {
            let thr = if round % 3 == 0 { 0.0 } else { 1e9 };
            level = c.decide(sample(thr, level, round));
            assert!((1..=32).contains(&level), "level {level} out of bounds");
        }
    }

    #[test]
    fn never_decreases_below_one_under_constant_loss() {
        let mut c = Rubic::new(RubicConfig::default(), 64);
        c.decide(sample(100.0, 5, 0));
        let mut level = 5u32;
        for round in 1..50u32 {
            // Alternate loss rounds with the forced growth rounds that
            // follow them (T_p reset); feed decreasing throughput so
            // every comparable round is a loss.
            level = c.decide(sample(1.0 / f64::from(round), level, u64::from(round)));
            assert!(level >= 1);
        }
    }

    #[test]
    fn reset_restores_initial_behavior() {
        let mut c = Rubic::new(RubicConfig::default(), 64);
        let fresh: Vec<u32> = {
            let mut c2 = Rubic::new(RubicConfig::default(), 64);
            (0..10)
                .scan(1u32, |lvl, r| {
                    *lvl = c2.decide(sample(f64::from(*lvl), *lvl, r));
                    Some(*lvl)
                })
                .collect()
        };
        // Perturb, then reset.
        for r in 0..25 {
            c.decide(sample(if r % 2 == 0 { 1.0 } else { 100.0 }, 10, r));
        }
        c.reset();
        let after: Vec<u32> = (0..10)
            .scan(1u32, |lvl, r| {
                *lvl = c.decide(sample(f64::from(*lvl), *lvl, r));
                Some(*lvl)
            })
            .collect();
        assert_eq!(fresh, after);
    }

    #[test]
    fn paper_literal_convention_also_converges() {
        let cfg = RubicConfig {
            convention: CubicKConvention::PaperLiteral,
            ..RubicConfig::default()
        };
        let mut c = Rubic::new(cfg, 128);
        let trace = drive(&mut c, 64.0, 600);
        let tail = &trace[400..];
        let mean = tail.iter().map(|&l| f64::from(l)).sum::<f64>() / tail.len() as f64;
        assert!(
            (40.0..=90.0).contains(&mean),
            "paper-literal K diverged: mean {mean}"
        );
    }

    #[test]
    fn max_level_one_is_stable() {
        let mut c = Rubic::new(RubicConfig::default(), 1);
        for r in 0..20 {
            let l = c.decide(sample(10.0, 1, r));
            assert_eq!(l, 1);
        }
    }
}
