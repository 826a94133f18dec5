//! Pinned replay-seed regressions for the model checker.
//!
//! Every failure `rubic-check` reports comes with a `(seed, iteration)`
//! pair and a decision trace; this file pins known-failing coordinates
//! so the replay contract itself is under regression — if a scheduler
//! or race-detector change silently shifts exploration, these tests
//! notice even while the broad randomized checks still pass.
//!
//! It also pins fixes for bugs the checker surfaced in *itself* during
//! development (found by exactly the determinism checks below):
//!
//! * DFS replay divergence when a finished thread handed the scheduling
//!   baton to a thread that was not the recorded decision — fixed by
//!   granting the baton only to the recorded holder.
//! * Vector clocks missing the self-tick on spawn, which let a parent's
//!   post-spawn access appear ordered with the child's first access and
//!   masked real races.
//!
//! These run in normal builds (no `--cfg rubic_check` needed): the
//! checker's own primitives are always functional; the cfg only decides
//! what the `rubic-sync` facade re-exports.

use rubic_check::models::{epoch, reclaim, vlock};
use rubic_check::sync::atomic::{AtomicU64, Ordering};
use rubic_check::sync::{thread, RaceCell};
use rubic_check::{check, Config, FailureKind};
use std::sync::Arc;

/// The weakened-release vlock mutation is caught at this exact pinned
/// coordinate, and its trace replays to the identical failure. (The
/// coordinate comes from the mutation self-test's first catch; it must
/// stay valid for the replay contract to mean anything.)
#[test]
fn pinned_vlock_mutation_replay() {
    let mutated = vlock::VLockModel {
        release: Ordering::Relaxed,
        ..vlock::VLockModel::default()
    };
    let report = check(Config::pct_at(0xB1C, 0), vlock::model(mutated));
    let failure = report.expect_failure().clone();
    assert_eq!(failure.kind, FailureKind::WeakOrdering);

    let replayed = check(Config::replay_trace(&failure.trace), vlock::model(mutated));
    let rf = replayed.expect_failure();
    assert_eq!(rf.kind, failure.kind);
    assert_eq!(rf.trace, failure.trace, "trace replay must be exact");
}

/// The early-free epoch mutation is caught at this pinned coordinate
/// and replays. `iteration > 0` makes this the regression for replaying
/// a mid-run iteration: the schedule-length estimate (`est_len = 54`,
/// adapted from earlier executions in the discovering run) is part of
/// the coordinate — replaying with the default estimate explores a
/// different schedule and misses the bug, which is exactly the gap
/// `Failure::est_len` closes.
#[test]
fn pinned_epoch_early_free_replay() {
    let model = epoch::EpochModel { early_free: true };
    let report = check(Config::pct_at_len(0xE0C, 13, 54), epoch::model(model));
    let failure = report.expect_failure().clone();
    assert!(
        matches!(failure.kind, FailureKind::Race | FailureKind::Panic),
        "early free must be a race or a poisoned-read panic, got {:?}",
        failure.kind
    );

    let replayed = check(Config::replay_trace(&failure.trace), epoch::model(model));
    assert_eq!(replayed.expect_failure().kind, failure.kind);
}

/// The free-immediately mutation of deferred `TVarCore` reclamation is
/// caught at this pinned coordinate — a transaction re-sampling a lock
/// word whose core the last handle freed on the spot — and its trace
/// replays to the identical failure.
#[test]
fn pinned_reclaim_free_immediately_replay() {
    let mutated = reclaim::ReclaimModel {
        free_immediately: true,
    };
    let report = check(Config::pct_at(0x7C0, 0), reclaim::model(mutated));
    let failure = report.expect_failure().clone();
    assert_eq!(failure.kind, FailureKind::Race);

    let replayed = check(
        Config::replay_trace(&failure.trace),
        reclaim::model(mutated),
    );
    let rf = replayed.expect_failure();
    assert_eq!(rf.kind, failure.kind);
    assert_eq!(rf.trace, failure.trace, "trace replay must be exact");
}

/// DFS determinism regression (the baton-handoff fix): enumerating the
/// same small model twice must visit the identical number of schedules
/// and exhaust both times. Before the fix, replayed prefixes diverged
/// when a thread exit handed control to an arbitrary runnable thread.
#[test]
fn dfs_enumeration_is_reproducible() {
    fn model() {
        let a = Arc::new(AtomicU64::new(0));
        let a2 = Arc::clone(&a);
        let t = thread::spawn(move || {
            a2.store(1, Ordering::Release);
        });
        let _ = a.load(Ordering::Acquire);
        t.join().expect("child");
    }
    let first = check(Config::dfs(10_000), model);
    let second = check(Config::dfs(10_000), model);
    assert!(first.failure.is_none() && second.failure.is_none());
    assert!(first.exhausted && second.exhausted, "model is tiny");
    assert_eq!(
        first.executions, second.executions,
        "DFS must enumerate identically on every run"
    );
}

/// Vector-clock self-tick regression: after the parent spawns a child,
/// a parent write concurrent with a child write must still be reported
/// as a race — the spawn edge orders the child after the *spawn*, not
/// after everything the parent does later. Before the self-tick fix the
/// parent's post-spawn epoch was indistinguishable from its pre-spawn
/// one and this race was missed.
#[test]
fn post_spawn_parent_write_still_races_with_child() {
    let report = check(Config::dfs(10_000), || {
        let cell = Arc::new(RaceCell::new(0u64));
        let c2 = Arc::clone(&cell);
        let t = thread::spawn(move || c2.set(1));
        cell.set(2); // concurrent with the child's write: a real race
        t.join().expect("child");
    });
    assert_eq!(report.expect_failure().kind, FailureKind::Race);
}

/// The dual control: the same shape with a proper join *before* the
/// parent's write is race-free — the join edge, not luck, is what
/// orders them. Guards against the detector over-reporting after any
/// future vector-clock change.
#[test]
fn join_edge_orders_parent_after_child() {
    let report = check(Config::dfs(10_000), || {
        let cell = Arc::new(RaceCell::new(0u64));
        let c2 = Arc::clone(&cell);
        let t = thread::spawn(move || c2.set(1));
        t.join().expect("child");
        cell.set(2); // ordered after the child by the join edge
        assert_eq!(cell.get(), 2);
    });
    report.assert_ok();
}
