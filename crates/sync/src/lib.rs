//! `rubic-sync`: the workspace's single doorway to synchronization
//! primitives.
//!
//! Normal builds re-export `std::sync::atomic` and the (vendored)
//! `parking_lot` types unchanged — the facade is zero-cost, nothing is
//! wrapped. Compiled with `RUSTFLAGS="--cfg rubic_check"`, the same
//! paths resolve to `rubic-check`'s checked primitives instead, so the
//! production protocols (STM versioned locks, pool semaphore, sharded
//! queue) run under the deterministic model checker without source
//! changes.
//!
//! The repo-wide analyzer (`cargo xtask analyze`, rule R1) bans direct
//! `std::sync::atomic` / `std::sync::Mutex` / `std::thread` imports in
//! production code outside this crate so the switch stays complete.
//!
//! What switches: atomics, `Mutex`/`Condvar`, and `thread`
//! spawn/join/sleep/yield. What does not: `Arc`, `OnceLock`, and
//! `RwLock` pass through in both modes (they carry no protocol logic
//! the checker models; `RwLock` is only used for rarely-written
//! configuration state).

#![forbid(unsafe_code)]

/// Atomic types and `Ordering`.
///
/// Under `--cfg rubic_check` every operation is a scheduling point and
/// feeds the vector-clock layer with its *claimed* ordering, which is
/// how too-weak orderings are caught.
#[cfg(not(rubic_check))]
pub mod atomic {
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
}
#[cfg(rubic_check)]
pub use rubic_check::sync::atomic;

#[cfg(not(rubic_check))]
pub use parking_lot::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
#[cfg(rubic_check)]
pub use rubic_check::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

/// Pass-through in both modes: the checker does not model `RwLock`
/// (config-state only in this workspace) and `Arc`/`OnceLock` carry no
/// schedule-visible protocol.
pub use parking_lot::RwLock;
pub use std::sync::{Arc, OnceLock, Weak};

/// Thread spawn/join/sleep/yield.
///
/// Under the checker, spawned threads register with the engine, `sleep`
/// is a pure scheduling point (no wall-clock delay), and joins are
/// happens-before edges.
#[cfg(not(rubic_check))]
pub mod thread {
    pub use std::thread::{
        available_parallelism, sleep, spawn, yield_now, Builder, JoinHandle, Result,
    };
}
#[cfg(rubic_check)]
pub use rubic_check::sync::thread;
