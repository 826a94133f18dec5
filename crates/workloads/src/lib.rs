//! STAMP-style transactional workloads for the RUBIC reproduction.
//!
//! The paper evaluates three benchmarks spanning the scalability
//! spectrum (§4.4):
//!
//! * [`rbtree`] — the red-black-tree micro-benchmark: 64 K elements,
//!   98 % look-ups (highly scalable), plus the 100 %-read-only variant
//!   used by the §4.6 convergence experiment.
//! * [`vacation`] — STAMP Vacation, a travel-reservation system over
//!   four relation tables (moderately scalable).
//! * [`intruder`] — STAMP Intruder, a network-intrusion-detection
//!   pipeline with a shared packet queue and session map (poorly
//!   scalable; Fig. 1's peak-at-7-threads workload).
//!
//! Two counter micro-workloads ([`counter`]) cover the contention
//! extremes for ablation studies.
//!
//! Substrates built for these (and reusable on their own):
//!
//! * [`btree`] — the transactional B-tree with one `TVar` per node
//!   (per-path conflict footprint), the one ordered map under every
//!   workload: the red-black-tree micro-benchmark (which keeps the
//!   paper's name), Vacation's four tables and Intruder's session map;
//! * [`mapapi`] — the [`mapapi::TOrdMap`] operations contract it
//!   implements, with [`mapapi::Edit`] and the [`mapapi::TKey`] bound;
//! * [`pqueue`] — a persistent FIFO queue (Intruder's packet queue).
//!
//! Every workload implements [`rubic_runtime::Workload`], so any of
//! them can be driven by the malleable pool under any controller:
//!
//! ```
//! use std::time::Duration;
//! use rubic_controllers::{Rubic, RubicConfig};
//! use rubic_runtime::{MalleablePool, PoolConfig};
//! use rubic_stm::Stm;
//! use rubic_workloads::rbtree::{RbTreeConfig, RbTreeWorkload};
//!
//! let workload = RbTreeWorkload::new(RbTreeConfig::small(), Stm::default());
//! let pool = MalleablePool::start(
//!     PoolConfig::new(4).monitor_period(Duration::from_millis(5)),
//!     workload,
//!     Box::new(Rubic::new(RubicConfig::default(), 4)),
//! );
//! std::thread::sleep(Duration::from_millis(50));
//! let report = pool.stop();
//! assert!(report.total_tasks > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod btree;
pub mod counter;
pub mod intruder;
pub mod mapapi;
pub mod pqueue;
pub mod rbtree;
pub mod vacation;

pub use btree::TBTreeMap;
pub use counter::{ConflictCounter, StripedCounter};
pub use intruder::{IntruderConfig, IntruderWorkload};
pub use mapapi::{Edit, TOrdMap};
pub use rbtree::{OpMix, RbTreeConfig, RbTreeWorkload};
pub use vacation::{Manager, VacationConfig, VacationWorkload};
