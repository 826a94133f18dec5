//! The malleable thread-pool runtime — Algorithm 1 of the RUBIC paper.
//!
//! A *malleable* application can change its parallelism level while
//! running (Feitelson & Rudolph's taxonomy). The paper's runtime model,
//! reproduced here:
//!
//! * Each process owns a pool of `S` worker threads, each with a unique
//!   `tid ∈ [0, S)`, a semaphore, and a **thread-local task counter**.
//! * A process-wide level variable (`L_RUBIC`) holds the number of
//!   *active* threads. Before acquiring a task, a worker compares its
//!   `tid` against the level: `tid >= L_RUBIC` means the worker parks on
//!   its semaphore (Algorithm 1). The active-path check is a single
//!   relaxed load — no system calls, no atomic RMW.
//! * A dedicated **monitoring thread** wakes every `TIME_PERIOD`
//!   (paper: 10 ms), sums the per-worker counters to get the round's
//!   throughput, feeds it to the plugged-in
//!   [`Controller`](rubic_controllers::Controller), stores the new
//!   level, and signals the semaphores of newly enabled workers
//!   (Algorithm 2 lines 20–22).
//!
//! Only each worker writes its own counter; the monitor only reads them
//! (§3.1's "no atomic instructions are necessary" — we use relaxed
//! single-writer stores, the Rust-sound equivalent).
//!
//! Thread placement is the OS scheduler's: nothing here pins a worker,
//! and neither the pool nor the simulator models sockets (DESIGN.md
//! §17).
//!
//! The paper raises the monitor's scheduler priority so it keeps running
//! under oversubscription; raising priority needs privileges we don't
//! assume, but the monitor does no task work and sleeps between samples,
//! which keeps it runnable in practice (see DESIGN.md).
//!
//! # Example
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::time::Duration;
//! use rubic_controllers::{Ebs, PolicyConfig};
//! use rubic_runtime::{MalleablePool, PoolConfig, Workload};
//!
//! struct Spin;
//! impl Workload for Spin {
//!     type WorkerState = ();
//!     fn init_worker(&self, _tid: usize) {}
//!     fn run_task(&self, _state: &mut ()) {
//!         std::hint::black_box((0..50u64).sum::<u64>());
//!     }
//! }
//!
//! let pool = MalleablePool::start(
//!     PoolConfig::new(4).monitor_period(Duration::from_millis(2)),
//!     Spin,
//!     Box::new(Ebs::new(4)),
//! );
//! std::thread::sleep(Duration::from_millis(30));
//! let report = pool.stop();
//! assert!(report.total_tasks > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pool;
pub mod semaphore;
pub mod sharded;
mod signal;
mod trc;

pub use pool::{MalleablePool, PoolConfig, PoolView, RunReport, Workload};
pub use semaphore::Semaphore;
pub use sharded::{ShardSender, ShardedHandle, ShardedWorkload};
