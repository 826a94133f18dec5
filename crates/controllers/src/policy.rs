//! Policy selection by name — the construction façade used by the
//! experiment harnesses, the `figures` binary and the examples.

use crate::{
    Aimd, Cimd, Controller, CubicKConvention, DirectedAiad, Ebs, EqualShare, F2c2, Fixed, Greedy,
    Rubic, RubicConfig,
};

/// The allocation policies evaluated in the paper (§4.3), plus the
/// analysis-only AIMD/CIMD models from §2 and a pinned level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// RUBIC (Algorithm 2). The paper's contribution.
    Rubic,
    /// EBS — AIAD hill climbing (Didona et al.).
    Ebs,
    /// F2C2 — exponential start, then AIAD (Ravichandran & Pande).
    F2c2,
    /// AIMD — the SPAA '15 predecessor (analysis model of §2.1).
    Aimd,
    /// Direction-memory AIAD hill climber (ablation variant, not in the
    /// paper's evaluation set).
    DirectedAiad,
    /// Pure CIMD (analysis model of §2.2).
    Cimd,
    /// Greedy — always the whole machine.
    Greedy,
    /// EqualShare — central static `C/N` split.
    EqualShare,
    /// Pinned at a fixed level (scalability sweeps).
    Fixed(u32),
}

impl Policy {
    /// The five policies of the paper's evaluation section, in the order
    /// the figures present them.
    pub const EVALUATED: [Policy; 5] = [
        Policy::Greedy,
        Policy::EqualShare,
        Policy::F2c2,
        Policy::Ebs,
        Policy::Rubic,
    ];

    /// Parses a policy from its figure label (case-insensitive).
    /// `fixed:<n>` selects a pinned level.
    ///
    /// ```
    /// use rubic_controllers::Policy;
    /// assert_eq!(Policy::parse("rubic"), Some(Policy::Rubic));
    /// assert_eq!(Policy::parse("EqualShare"), Some(Policy::EqualShare));
    /// assert_eq!(Policy::parse("fixed:7"), Some(Policy::Fixed(7)));
    /// assert_eq!(Policy::parse("nope"), None);
    /// ```
    #[must_use]
    pub fn parse(s: &str) -> Option<Policy> {
        let lower = s.to_ascii_lowercase();
        Some(match lower.as_str() {
            "rubic" => Policy::Rubic,
            "ebs" => Policy::Ebs,
            "f2c2" => Policy::F2c2,
            "aimd" => Policy::Aimd,
            "directedaiad" | "directed-aiad" => Policy::DirectedAiad,
            "cimd" => Policy::Cimd,
            "greedy" => Policy::Greedy,
            "equalshare" | "equal-share" | "equal_share" => Policy::EqualShare,
            _ => {
                let n = lower.strip_prefix("fixed:")?.parse().ok()?;
                Policy::Fixed(n)
            }
        })
    }

    /// The display name used in the paper's figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Rubic => "RUBIC",
            Policy::Ebs => "EBS",
            Policy::F2c2 => "F2C2",
            Policy::Aimd => "AIMD",
            Policy::DirectedAiad => "DirectedAIAD",
            Policy::Cimd => "CIMD",
            Policy::Greedy => "Greedy",
            Policy::EqualShare => "EqualShare",
            Policy::Fixed(_) => "Fixed",
        }
    }
}

/// Everything needed to instantiate any policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// Number of hardware contexts on the (possibly simulated) machine.
    pub hw_contexts: u32,
    /// Thread-pool size `S`; adaptive policies may propose levels up to
    /// this (the paper's pools are larger than the machine, which is how
    /// F2C2/EBS end up oversubscribing).
    pub pool_size: u32,
    /// Number of co-located processes (used only by EqualShare's central
    /// split).
    pub n_processes: u32,
    /// RUBIC constants (also used for AIMD's α and CIMD's α/β where
    /// applicable).
    pub rubic: RubicConfig,
    /// α for the analysis-model AIMD/CIMD controllers (§2 uses 0.5).
    pub analysis_alpha: f64,
    /// Relative throughput-comparison tolerance applied to all adaptive
    /// policies.
    pub tolerance: f64,
}

impl PolicyConfig {
    /// The paper's evaluation setup: 64 contexts, pools of 128 threads,
    /// RUBIC α = 0.8 / β = 0.1, exact throughput comparisons.
    #[must_use]
    pub fn paper(n_processes: u32) -> Self {
        PolicyConfig {
            hw_contexts: 64,
            pool_size: 128,
            n_processes: n_processes.max(1),
            rubic: RubicConfig::default(),
            analysis_alpha: 0.5,
            tolerance: 0.0,
        }
    }
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig::paper(1)
    }
}

impl Policy {
    /// Instantiates the controller described by `self` under `cfg`.
    #[must_use]
    pub fn build(&self, cfg: &PolicyConfig) -> Box<dyn Controller> {
        let pool = cfg.pool_size.max(1);
        match *self {
            Policy::Rubic => Box::new(Rubic::new(cfg.rubic, pool).with_tolerance(cfg.tolerance)),
            Policy::Ebs => Box::new(Ebs::new(pool).with_tolerance(cfg.tolerance)),
            Policy::F2c2 => Box::new(F2c2::new(pool).with_tolerance(cfg.tolerance)),
            Policy::Aimd => {
                Box::new(Aimd::new(cfg.analysis_alpha, pool).with_tolerance(cfg.tolerance))
            }
            Policy::DirectedAiad => {
                Box::new(DirectedAiad::new(1, pool).with_tolerance(cfg.tolerance))
            }
            Policy::Cimd => Box::new(
                Cimd::new(cfg.analysis_alpha, cfg.rubic.beta, pool)
                    .with_convention(CubicKConvention::default())
                    .with_tolerance(cfg.tolerance),
            ),
            Policy::Greedy => Box::new(Greedy::new(cfg.hw_contexts, pool)),
            Policy::EqualShare => Box::new(EqualShare::new(cfg.hw_contexts, cfg.n_processes, pool)),
            Policy::Fixed(n) => Box::new(Fixed::new(n, pool)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sample;

    #[test]
    fn parse_roundtrip() {
        for p in [
            Policy::Rubic,
            Policy::Ebs,
            Policy::F2c2,
            Policy::Aimd,
            Policy::DirectedAiad,
            Policy::Cimd,
            Policy::Greedy,
            Policy::EqualShare,
        ] {
            assert_eq!(Policy::parse(p.label()), Some(p), "{p:?}");
        }
        assert_eq!(Policy::parse("fixed:12"), Some(Policy::Fixed(12)));
        assert_eq!(Policy::parse("fixed:"), None);
        assert_eq!(Policy::parse("unknown"), None);
    }

    #[test]
    fn build_all_policies() {
        let cfg = PolicyConfig::paper(2);
        for p in
            Policy::EVALUATED
                .iter()
                .copied()
                .chain([Policy::Aimd, Policy::Cimd, Policy::Fixed(7)])
        {
            let mut c = p.build(&cfg);
            let level = c.decide(Sample {
                throughput: 10.0,
                level: 4,
                round: 0,
            });
            assert!((1..=cfg.pool_size).contains(&level), "{p:?} -> {level}");
        }
    }

    #[test]
    fn equal_share_uses_n_processes() {
        let cfg = PolicyConfig::paper(4);
        let mut c = Policy::EqualShare.build(&cfg);
        let l = c.decide(Sample {
            throughput: 1.0,
            level: 1,
            round: 0,
        });
        assert_eq!(l, 16);
    }

    #[test]
    fn evaluated_order_matches_paper() {
        let labels: Vec<&str> = Policy::EVALUATED.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["Greedy", "EqualShare", "F2C2", "EBS", "RUBIC"]);
    }
}
