//! Online parallelism-tuning controllers.
//!
//! This crate implements the RUBIC controller (Algorithm 2 of the paper)
//! and every competing allocation policy the paper evaluates against
//! (§4.3): **EBS** (pure additive-increase/additive-decrease, Didona et
//! al.), **F2C2** (AIAD with an initial exponential-growth phase,
//! Ravichandran & Pande), **AIMD** (the SPAA '15 brief-announcement
//! predecessor of RUBIC), **Greedy** (take every hardware context) and
//! **EqualShare** (centralised 1/N split). A pure **CIMD** controller
//! (cubic-increase/multiplicative-decrease without RUBIC's phase
//! interleaving) is provided for the §2.2 analysis figures and for
//! ablations.
//!
//! # The control model
//!
//! All policies share the feedback-loop shape described in §2 of the
//! paper: once per monitoring round (10 ms in the paper's setup) the
//! process measures its own throughput `T_c` (commit-rate), compares it
//! with the previous round's `T_p`, and picks the next parallelism level
//! through a growth function `f_INC` or a reduction function `f_DEC`.
//! The [`Controller`] trait captures exactly that interface: the runtime
//! (or the simulator) feeds a [`Sample`] per round and applies the
//! returned level.
//!
//! Decisions are **unilateral and decentralised**: a controller sees only
//! its own process's throughput, never other processes or global state.
//! This is the property that lets RUBIC work across co-located processes
//! with no communication (paper §1).
//!
//! # Example
//!
//! ```
//! use rubic_controllers::{Controller, Rubic, RubicConfig, Sample};
//!
//! let mut ctl = Rubic::new(RubicConfig::default(), 128);
//! let mut level = 1;
//! // A workload that scales perfectly to 64 threads and collapses after.
//! for round in 0..200 {
//!     let throughput = if level <= 64 { level as f64 } else { 90.0 - level as f64 };
//!     level = ctl.decide(Sample { throughput, level, round });
//! }
//! assert!(level >= 48 && level <= 80, "settled near the 64-context knee, got {level}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aiad;
pub mod aimd;
pub mod cimd;
pub mod cubic;
pub mod f2c2;
pub mod policy;
pub mod rubic;
pub mod staticpol;
mod trc;

pub use aiad::{Aiad, DirectedAiad, Ebs};
pub use aimd::Aimd;
pub use cimd::Cimd;
pub use cubic::{cubic_level, CubicGrowth, CubicKConvention};
pub use f2c2::F2c2;
pub use policy::{Policy, PolicyConfig};
pub use rubic::{Rubic, RubicConfig};
pub use staticpol::{EqualShare, Fixed, Greedy};

/// One monitoring-round observation fed to a controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Throughput measured over the round that just completed (`T_c` in
    /// Algorithm 2). The paper uses commit-rate; any consistent,
    /// higher-is-better measure works.
    pub throughput: f64,
    /// The parallelism level that was in force during the round.
    pub level: u32,
    /// Monotonically increasing round index (diagnostic only; no policy
    /// in this crate keys decisions off absolute time).
    pub round: u64,
}

/// A feedback-driven parallelism controller.
///
/// Implementations are state machines: `decide` is called once per
/// monitoring round with the throughput observed at the current level and
/// returns the level for the next round, always within
/// `1..=max_level()`.
pub trait Controller: Send {
    /// Consumes one round's observation and returns the next parallelism
    /// level.
    fn decide(&mut self, sample: Sample) -> u32;

    /// Resets all internal state to the just-constructed condition (used
    /// between experiment repetitions).
    fn reset(&mut self);

    /// Upper bound on the level this controller will ever return (the
    /// thread-pool size `S`).
    fn max_level(&self) -> u32;

    /// Short human-readable policy name, as used in the paper's figures.
    fn name(&self) -> &'static str;
}

/// Clamps a fractional level proposal into the valid `1..=max` range,
/// rounding to nearest.
///
/// Every policy funnels its proposals through this so the invariant
/// `1 <= level <= max_level` holds unconditionally.
#[must_use]
pub(crate) fn clamp_level(proposal: f64, max: u32) -> u32 {
    if !proposal.is_finite() {
        return max.max(1);
    }
    let rounded = proposal.round();
    if rounded < 1.0 {
        1
    } else if rounded >= f64::from(max) {
        max.max(1)
    } else {
        rounded as u32
    }
}

/// Returns true when `current` counts as "no worse than" `previous` under
/// a relative tolerance.
///
/// Algorithm 2 compares `T_c >= T_p` exactly; with noisy real-world
/// throughput a small tolerance (e.g. 1–2%) avoids reacting to
/// measurement jitter. `tolerance = 0.0` reproduces the paper literally.
#[must_use]
pub(crate) fn improved(current: f64, previous: f64, tolerance: f64) -> bool {
    current >= previous * (1.0 - tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_level_bounds() {
        assert_eq!(clamp_level(0.2, 64), 1);
        assert_eq!(clamp_level(-5.0, 64), 1);
        assert_eq!(clamp_level(3.4, 64), 3);
        assert_eq!(clamp_level(3.5, 64), 4);
        assert_eq!(clamp_level(64.0, 64), 64);
        assert_eq!(clamp_level(1e12, 64), 64);
        assert_eq!(clamp_level(f64::NAN, 64), 64);
        assert_eq!(clamp_level(f64::INFINITY, 64), 64);
    }

    #[test]
    fn clamp_level_degenerate_max() {
        assert_eq!(clamp_level(5.0, 0), 1);
        assert_eq!(clamp_level(0.0, 0), 1);
    }

    #[test]
    fn improved_exact_and_tolerant() {
        assert!(improved(10.0, 10.0, 0.0));
        assert!(!improved(9.999, 10.0, 0.0));
        assert!(improved(9.9, 10.0, 0.02));
        assert!(!improved(9.7, 10.0, 0.02));
        // First round: previous == 0 is always an improvement.
        assert!(improved(0.0, 0.0, 0.0));
    }
}
