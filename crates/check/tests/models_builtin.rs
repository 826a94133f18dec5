//! Checks of the in-crate protocol models (`rubic_check::models`) plus
//! the mutation self-test: the checker must stay quiet on the correct
//! protocols and must catch deliberately weakened variants within a
//! bounded, seeded budget — deterministically enough to replay.

use rubic_check::models::{btree, epoch, reclaim, vlock};
use rubic_check::sync::atomic::Ordering;
use rubic_check::{check, Config, FailureKind};

/// Production orderings: the versioned-lock protocol passes a healthy
/// PCT budget with race + weak-pair detection on.
#[test]
fn vlock_correct_orderings_pass() {
    let report = check(
        Config::pct(0xB1C, rubic_check::env_iters(128)),
        vlock::model(vlock::VLockModel::default()),
    );
    report.assert_ok();
}

/// Mutation self-test (the verification plan's acceptance gate):
/// weakening the commit release to `Relaxed` must be flagged within a
/// bounded budget, and the reported failure must replay from both its
/// decision trace and its `(seed, iteration)` pair.
#[test]
fn vlock_weakened_release_is_caught_and_replays() {
    let mutated = vlock::VLockModel {
        release: Ordering::Relaxed,
        ..vlock::VLockModel::default()
    };
    let report = check(Config::pct(0xB1C, 128), vlock::model(mutated));
    let failure = report.expect_failure().clone();
    assert!(
        matches!(
            failure.kind,
            FailureKind::WeakOrdering | FailureKind::Race | FailureKind::Panic
        ),
        "weakened release must surface as an ordering/race/opacity failure, got {:?}",
        failure.kind
    );

    // Replay 1: exact decision trace.
    let replayed = check(Config::replay_trace(&failure.trace), vlock::model(mutated));
    let rf = replayed.expect_failure();
    assert_eq!(rf.kind, failure.kind, "trace replay reproduces the kind");
    assert_eq!(
        rf.trace, failure.trace,
        "trace replay reproduces the schedule"
    );

    // Replay 2: (seed, iteration, est_len), the chaos-style contract.
    let again = check(
        Config::pct_at_len(failure.seed, failure.iteration, failure.est_len),
        vlock::model(mutated),
    );
    let af = again.expect_failure();
    assert_eq!(af.kind, failure.kind);
    assert_eq!(af.trace, failure.trace);
}

/// The dual direction: the sample load's `Acquire` is what makes a
/// version-guarded *plain* payload read safe (`VLock::sample` guards
/// `tvar.rs` payload reads exactly this way). Weakening the sample to
/// `Relaxed` severs the edge and the race detector must flag the
/// payload read. (In `vlock::model` itself payloads are relaxed atomics
/// — faithful to `tvar.rs` — so a relaxed sample is invisible there;
/// this standalone publish model pins the payload side down.)
#[test]
fn version_guarded_payload_needs_acquire_sample() {
    use rubic_check::sync::{thread, RaceCell};
    use std::sync::Arc;

    fn publish_model(sample: Ordering) -> impl Fn() + Send + Sync + 'static {
        move || {
            let payload = Arc::new(RaceCell::new(0u64));
            let version = Arc::new(rubic_check::sync::atomic::AtomicU64::new(0));
            let (p2, v2) = (Arc::clone(&payload), Arc::clone(&version));
            let writer = thread::spawn(move || {
                p2.set(7);
                v2.store(2, Ordering::Release); // commit: version 1, unlocked
            });
            if version.load(sample) == 2 {
                assert_eq!(payload.get(), 7);
            }
            writer.join().expect("writer");
        }
    }

    check(Config::dfs(10_000), publish_model(Ordering::Acquire)).assert_ok();
    let report = check(Config::dfs(10_000), publish_model(Ordering::Relaxed));
    assert_eq!(report.expect_failure().kind, FailureKind::Race);
}

/// The B-tree's one-commit-per-structural-change discipline passes:
/// under every explored schedule a validated parent → child descent
/// finds the probe key through split and merge, and the opacity oracle
/// (validated reads form a consistent cut) holds.
#[test]
fn btree_atomic_split_merge_passes() {
    let report = check(
        Config::pct(0xB7EE, rubic_check::env_iters(128)),
        btree::model(btree::BTreeModel::default()),
    );
    report.assert_ok();
}

/// Mutation self-test: publishing a split as two commits leaves a
/// window where the moved keys are unreachable through the routing even
/// though every per-slot read validates. The checker must catch the
/// torn lookup within a bounded budget, and the failure must replay
/// from both its decision trace and its `(seed, iteration)` pair.
#[test]
fn btree_non_atomic_split_is_caught_and_replays() {
    let mutated = btree::BTreeModel {
        non_atomic_split: true,
    };
    let report = check(Config::pct(0xB7EE, 256), btree::model(mutated));
    let failure = report.expect_failure().clone();
    assert!(
        matches!(failure.kind, FailureKind::Panic | FailureKind::Race),
        "torn split must surface as a lost-key panic, got {:?}",
        failure.kind
    );

    // Replay 1: exact decision trace.
    let replayed = check(Config::replay_trace(&failure.trace), btree::model(mutated));
    let rf = replayed.expect_failure();
    assert_eq!(rf.kind, failure.kind, "trace replay reproduces the kind");
    assert_eq!(
        rf.trace, failure.trace,
        "trace replay reproduces the schedule"
    );

    // Replay 2: (seed, iteration, est_len), the chaos-style contract.
    let again = check(
        Config::pct_at_len(failure.seed, failure.iteration, failure.est_len),
        btree::model(mutated),
    );
    let af = again.expect_failure();
    assert_eq!(af.kind, failure.kind);
    assert_eq!(af.trace, failure.trace);
}

/// Correct three-epoch reclamation passes: nobody dereferences a freed
/// slot under any explored schedule, and all accesses stay ordered.
#[test]
fn epoch_correct_horizon_passes() {
    let report = check(
        Config::pct(0xE0C, rubic_check::env_iters(128)),
        epoch::model(epoch::EpochModel::default()),
    );
    report.assert_ok();
}

/// Draining one epoch early is the canonical reclamation bug: a pinned
/// reader can still hold the slot. The checker must find it.
#[test]
fn epoch_early_free_is_caught() {
    let report = check(
        Config::pct(0xE0C, 256),
        epoch::model(epoch::EpochModel { early_free: true }),
    );
    let failure = report.expect_failure();
    assert!(
        matches!(failure.kind, FailureKind::Panic | FailureKind::Race),
        "early free must surface as poisoned-read panic or race, got {:?}",
        failure.kind
    );

    // And it replays.
    let replayed = check(
        Config::replay_trace(&failure.trace),
        epoch::model(epoch::EpochModel { early_free: true }),
    );
    assert_eq!(replayed.expect_failure().kind, failure.kind);
}

/// Deferred `TVarCore` reclamation: with the last handle *retiring* the
/// core through the epoch, a transaction that recorded the lock word
/// under its pin validates, extends and commits without ever observing
/// reclaimed state, whichever thread drops last.
#[test]
fn reclaim_deferred_core_passes() {
    let report = check(
        Config::pct(0x7C0, rubic_check::env_iters(256)),
        reclaim::model(reclaim::ReclaimModel::default()),
    );
    report.assert_ok();
}

/// Mutation self-test: freeing the core when the last handle drops —
/// what a plain `Arc` would do — lets the pinned transaction re-sample
/// a freed lock word. The checker must find it, and the failure must
/// replay from its trace and from its `(seed, iteration, est_len)`.
#[test]
fn reclaim_free_immediately_is_caught_and_replays() {
    let mutated = reclaim::ReclaimModel {
        free_immediately: true,
    };
    let report = check(Config::pct(0x7C0, 256), reclaim::model(mutated));
    let failure = report.expect_failure().clone();
    assert!(
        matches!(failure.kind, FailureKind::Panic | FailureKind::Race),
        "immediate free must surface as a poisoned sample or a race, got {:?}",
        failure.kind
    );

    let replayed = check(
        Config::replay_trace(&failure.trace),
        reclaim::model(mutated),
    );
    assert_eq!(replayed.expect_failure().kind, failure.kind);

    let again = check(
        Config::pct_at_len(failure.seed, failure.iteration, failure.est_len),
        reclaim::model(mutated),
    );
    let af = again.expect_failure();
    assert_eq!(af.kind, failure.kind);
    assert_eq!(af.trace, failure.trace);
}
