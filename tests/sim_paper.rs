//! The paper's evaluation claims as executable assertions, run on the
//! simulator at reduced repetition count (EXPERIMENTS.md records the
//! full-resolution numbers).

use rubic::prelude::*;
use rubic::sim::{pairwise_experiments, single_process_experiments, ProcessSpec, SimConfig};

// 10 repetitions, not the paper's 50, to keep test time low — but not
// fewer: the Fig. 8a Intruder lift is a ~1% effect over a noise floor
// of the same magnitude, and at 5 reps the EBS mean has not converged
// (its sample mean swings ±1% with the RNG stream while RUBIC's is
// stable), making the comparison a coin flip.
const REPS: u32 = 10;

fn geo_nash(policy: Policy) -> f64 {
    let outs = pairwise_experiments(policy, REPS);
    geometric_mean(&outs.iter().map(|(_, o)| o.nash.mean()).collect::<Vec<_>>())
}

/// §4.5.1 / Fig. 7a: RUBIC achieves the best system performance on the
/// pairwise geometric average; Greedy is the worst.
#[test]
fn fig7a_policy_ordering() {
    let rubic = geo_nash(Policy::Rubic);
    let ebs = geo_nash(Policy::Ebs);
    let greedy = geo_nash(Policy::Greedy);
    let equal = geo_nash(Policy::EqualShare);
    assert!(rubic > ebs, "RUBIC {rubic} must beat EBS {ebs}");
    assert!(ebs > equal, "EBS {ebs} must beat EqualShare {equal}");
    assert!(
        equal > greedy,
        "EqualShare {equal} must beat Greedy {greedy}"
    );
    // Headline magnitudes (shape, not exact): RUBIC >= +10% vs EBS,
    // and several-fold vs Greedy.
    assert!(rubic / ebs >= 1.10, "RUBIC/EBS = {}", rubic / ebs);
    assert!(rubic / greedy >= 4.0, "RUBIC/Greedy = {}", rubic / greedy);
}

/// Fig. 7b: RUBIC keeps the system at or below the oversubscription
/// line on average; Greedy is far above it.
#[test]
fn fig7b_total_threads() {
    let mean_threads = |policy: Policy| {
        let outs = pairwise_experiments(policy, REPS);
        outs.iter()
            .map(|(_, o)| o.total_threads.mean())
            .sum::<f64>()
            / 3.0
    };
    assert!(mean_threads(Policy::Rubic) <= 66.0);
    assert!(mean_threads(Policy::Greedy) >= 120.0);
}

/// Fig. 7c: RUBIC is the most efficient policy; Greedy by far the
/// least (paper: 66x less).
#[test]
fn fig7c_efficiency_ordering() {
    let geo_eff = |policy: Policy| {
        let outs = pairwise_experiments(policy, REPS);
        geometric_mean(
            &outs
                .iter()
                .map(|(_, o)| o.total_efficiency.mean())
                .collect::<Vec<_>>(),
        )
    };
    let rubic = geo_eff(Policy::Rubic);
    let ebs = geo_eff(Policy::Ebs);
    let greedy = geo_eff(Policy::Greedy);
    assert!(rubic > ebs && ebs > greedy);
    assert!(
        rubic / greedy >= 20.0,
        "RUBIC/Greedy eff = {}",
        rubic / greedy
    );
}

/// Fig. 8a: proportional fairness — under RUBIC the poorly scalable
/// Intruder does materially better paired with RBT than under EBS,
/// at a small cost to RBT.
#[test]
fn fig8a_proportional_fairness() {
    let per_proc = |policy: Policy| {
        let outs = pairwise_experiments(policy, REPS);
        // Int/RBT is the second pair; process 0 is Intruder.
        let (_, o) = &outs[1];
        (
            o.per_process[0].speedup.mean(),
            o.per_process[1].speedup.mean(),
        )
    };
    let (int_rubic, rbt_rubic) = per_proc(Policy::Rubic);
    let (int_ebs, rbt_ebs) = per_proc(Policy::Ebs);
    assert!(
        int_rubic > int_ebs,
        "RUBIC should lift Intruder: {int_rubic} vs {int_ebs}"
    );
    // RBT must not be sacrificed disproportionately.
    assert!(
        rbt_rubic > rbt_ebs * 0.7,
        "RBT under RUBIC too low: {rbt_rubic} vs {rbt_ebs}"
    );
}

/// Fig. 9a: in single-process runs RUBIC is within a few percent of the
/// best policy on every workload.
#[test]
fn fig9a_single_process_competitive() {
    let all: Vec<(Policy, Vec<f64>)> = Policy::EVALUATED
        .iter()
        .map(|&p| {
            let outs = single_process_experiments(p, REPS);
            (
                p,
                outs.iter()
                    .map(|(_, o)| o.per_process[0].speedup.mean())
                    .collect(),
            )
        })
        .collect();
    let rubic = &all.iter().find(|(p, _)| *p == Policy::Rubic).unwrap().1;
    for w in 0..3 {
        let best = all.iter().map(|(_, v)| v[w]).fold(f64::MIN, f64::max);
        assert!(
            rubic[w] >= best * 0.85,
            "workload {w}: RUBIC {} vs best {best}",
            rubic[w]
        );
    }
}

/// §4.6 / Fig. 10c: with two identical conflict-free processes and a
/// staggered arrival, RUBIC converges to the fair 32/32 split.
#[test]
fn fig10c_rubic_fair_convergence() {
    let specs = [
        ProcessSpec::new("P1", curves::rbt_readonly(), Policy::Rubic),
        ProcessSpec::new("P2", curves::rbt_readonly(), Policy::Rubic).arrives_at(500),
    ];
    for seed in [1u64, 7, 2016] {
        let cfg = SimConfig::paper(2).with_noise(0.02, seed);
        let r = rubic::sim::run(&specs, &cfg);
        let p1 = r.processes[0].trace.mean_level_in(800, 1000);
        let p2 = r.processes[1].trace.mean_level_in(800, 1000);
        assert!(
            (20.0..=46.0).contains(&p1) && (20.0..=46.0).contains(&p2),
            "seed {seed}: settled at {p1:.1}/{p2:.1}, expected near 32/32"
        );
        // Fairness: neither process dominates.
        assert!(
            (p1 - p2).abs() <= 16.0,
            "seed {seed}: unfair split {p1:.1}/{p2:.1}"
        );
    }
}

/// §4.6: before P2 arrives, RUBIC saturates the machine (level ≈ 64).
#[test]
fn fig10c_pre_arrival_saturation() {
    let specs = [
        ProcessSpec::new("P1", curves::rbt_readonly(), Policy::Rubic),
        ProcessSpec::new("P2", curves::rbt_readonly(), Policy::Rubic).arrives_at(500),
    ];
    let cfg = SimConfig::paper(2).with_noise(0.02, 2016);
    let r = rubic::sim::run(&specs, &cfg);
    let pre = r.processes[0].trace.mean_level_in(300, 500);
    assert!(
        (50.0..=70.0).contains(&pre),
        "P1 pre-arrival level {pre:.1}, expected ~64"
    );
}

/// §2.2: the utilisation ladder — AIMD < CIMD on the canonical
/// single-scalable-process scenario (75% vs ~94% in the paper).
#[test]
fn utilization_ladder_aimd_cimd() {
    let util = |policy: Policy| {
        let specs = [ProcessSpec::new("P", curves::rbt_readonly(), policy)];
        let r = rubic::sim::run(&specs, &SimConfig::paper(1));
        r.processes[0].trace.mean_level_in(300, 1000).min(64.0) / 64.0
    };
    let aimd = util(Policy::Aimd);
    let cimd = util(Policy::Cimd);
    assert!(
        (0.62..=0.85).contains(&aimd),
        "AIMD utilisation {aimd}, expected ~75%"
    );
    assert!(cimd >= 0.85, "CIMD utilisation {cimd}, expected ~90%+");
}

/// FNV-1a over the integer decisions of a run: each process's trace
/// length and `(round, level)` sequence, then `total_threads`. Throughput
/// is left out on purpose — its low-order bits follow the host's libm.
fn decision_digest(r: &rubic::sim::SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in &r.processes {
        eat(&(p.trace.len() as u64).to_le_bytes());
        for pt in p.trace.points() {
            eat(&pt.round.to_le_bytes());
            eat(&pt.level.to_le_bytes());
        }
    }
    for &t in &r.total_threads {
        eat(&t.to_le_bytes());
    }
    h
}

/// A pin across commits: `sim_pair`'s configuration (Intruder +
/// Vacation under RUBIC, the second arriving at round 500) must keep
/// making exactly the same decisions, with and without noise. A change
/// to the machine model, the round loop or a controller that moves any
/// level on this path changes the digest.
#[test]
fn sim_pair_decisions_are_pinned() {
    let specs = [
        ProcessSpec::new("Intruder", curves::intruder_like(), Policy::Rubic),
        ProcessSpec::new("Vacation", curves::vacation_like(), Policy::Rubic).arrives_at(500),
    ];
    let digest = |cfg: SimConfig| decision_digest(&rubic::sim::run(&specs, &cfg));
    let base = SimConfig::paper(2).with_rounds(1000);
    assert_eq!(
        digest(base.clone().with_noise(0.02, 2016)),
        0x3330_a448_da3a_d717
    );
    assert_eq!(digest(base), 0x05ac_f33d_0a2a_e5db);
}

/// Determinism of the whole experiment pipeline: same seeds, same
/// aggregate numbers.
#[test]
fn experiment_pipeline_is_reproducible() {
    let a = pairwise_experiments(Policy::Rubic, 3);
    let b = pairwise_experiments(Policy::Rubic, 3);
    for ((_, x), (_, y)) in a.iter().zip(&b) {
        assert_eq!(x.nash.mean(), y.nash.mean());
        assert_eq!(x.total_threads.mean(), y.total_threads.mean());
    }
}
