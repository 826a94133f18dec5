//! Checkable ports of the workspace's riskiest protocols.
//!
//! These are *models*: faithful re-statements of a protocol against
//! [`crate::sync`] primitives, small enough for the checker to explore.
//! Two of the four protocols named in the verification plan live here
//! because they need knobs (orderings, drain thresholds) the production
//! code rightly does not expose:
//!
//! * [`vlock`] — the TL2-style versioned-lock + global-clock commit
//!   protocol from `rubic-stm` (`vlock.rs` / `clock.rs` / `tvar.rs`),
//!   with every memory ordering configurable so the mutation self-test
//!   can weaken one and assert the checker catches it.
//! * [`epoch`] — the pin / retire / prefix-drain protocol of the
//!   vendored `crossbeam-epoch`-style reclamation, instance-based so
//!   executions are independent, with the drain threshold configurable
//!   to demonstrate premature-free detection.
//! * [`reclaim`] — deferred `TVarCore` reclamation (`tvar.rs`): a read-set
//!   entry borrows the attempt's epoch pin instead of a handle, so the
//!   last handle must *retire* the core, not free it. The mutation frees
//!   immediately and the checker must catch the transaction validating
//!   against reclaimed state.
//! * [`btree`] — the per-node B-tree's split/merge discipline from
//!   `rubic-workloads` (`btree/mod.rs`): a structural change rewrites
//!   parent routing and both children in *one* commit, and a TL2-style
//!   validated descent must never lose a key that was only moved. The
//!   mutation splits across two commits and the checker must catch the
//!   torn lookup.
//!
//! The other two protocols (`rubic-runtime`'s semaphore admission and
//! the sharded queue's per-worker drain accounting, with the producer
//! finished before the workers start or racing them) are exercised
//! directly on the production types — they need no knobs — from
//! `crates/check/tests/models.rs` under `--cfg rubic_check`.

pub mod btree;
pub mod epoch;
pub mod reclaim;
pub mod vlock;
