//! A SwissTM-flavoured software transactional memory substrate.
//!
//! The RUBIC paper runs its workloads on the RSTM framework with SwissTM
//! as the underlying TM runtime. No mature Rust STM exists, so this crate
//! implements the substrate from scratch with the same design DNA:
//!
//! * **Time-based validation** — a process-global version clock
//!   ([`clock`]) stamps every writing commit; transactions validate reads
//!   against their *read version* and **extend** it lazily (TinySTM /
//!   SwissTM style) instead of aborting on every stale-but-consistent
//!   read the way TL2 does.
//! * **Invisible reads** — readers leave no trace in shared memory. A
//!   read samples the variable's versioned lock, loads the value, and
//!   re-samples the lock ([`txn`]); inconsistent interleavings retry or
//!   conflict.
//! * **Eager write locking, lazy write-back** — the first write to a
//!   [`TVar`] acquires its versioned lock (eager write/write conflict
//!   detection, as in SwissTM); the new value is buffered privately and
//!   published only at commit.
//! * **Epoch-based reclamation** — values are immutable once published;
//!   a commit swaps in a freshly allocated value and retires the old one
//!   through `crossbeam-epoch`. This is what makes invisible reads sound
//!   in Rust's memory model: readers clone an immutable snapshot instead
//!   of racing on bytes the way C-style word-based STMs do.
//! * **Contention management** — the transaction that detects a
//!   conflict aborts itself and backs off (capped exponential: spin,
//!   then yield) before retrying.
//!
//! # Quick start
//!
//! ```
//! use rubic_stm::{Stm, TVar};
//!
//! let stm = Stm::default();
//! let account_a = TVar::new(100i64);
//! let account_b = TVar::new(0i64);
//!
//! // Transfer atomically: either both updates happen or neither.
//! stm.atomically(|tx| {
//!     let a = tx.read(&account_a)?;
//!     let b = tx.read(&account_b)?;
//!     tx.write(&account_a, a - 30)?;
//!     tx.write(&account_b, b + 30)?;
//!     Ok(())
//! });
//!
//! assert_eq!(stm.atomically(|tx| tx.read(&account_a)), 70);
//! assert_eq!(stm.atomically(|tx| tx.read(&account_b)), 30);
//! assert_eq!(stm.stats().commits(), 3);
//! ```
//!
//! # Relation to the paper
//!
//! The malleable runtime (`rubic-runtime`) counts *task* completions for
//! the controller's throughput signal, exactly as §3.1 prescribes
//! (thread-local counters, no atomics). This crate's [`stats`] module
//! additionally tracks per-`Stm` commit/abort totals so workloads can
//! report commit-rate — the throughput metric of the paper's evaluation.

#![warn(missing_docs)]
// `unsafe` is confined to `tvar.rs` (epoch-pointer dereferences) and
// justified inline at each site; any future `unsafe fn` must spell its
// internal unsafety out block by block.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod abort;
pub mod chaos;
pub mod clock;
mod cm;
mod index;
pub mod stats;
pub mod stm;
mod trc;
pub mod tvar;
pub mod txn;
pub mod vlock;

pub use abort::AbortReason;
pub use stats::{take_thread_aborts, StatsSnapshot, StmStats};
pub use stm::Stm;
pub use trc::trace_footprint;
pub use tvar::TVar;
pub use txn::{StmError, Transaction, TxFootprint, TxResult};

/// Marker alias for types storable in a [`TVar`]: cloneable, shareable
/// across threads, and owning (`'static`, since committed values outlive
/// the creating transaction inside the epoch garbage collector).
pub trait TxValue: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> TxValue for T {}
