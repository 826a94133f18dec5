//! The ordered-map microbenchmark (paper §4.4).
//!
//! The paper's micro-workload: a shared search tree of **64 K
//! elements** with **98 % look-up operations** (1 % insert, 1 % delete),
//! representing the highly scalable end of the spectrum; plus the
//! **conflict-free variant (100 % read-only)** used for the convergence
//! experiment of §4.6 / Fig. 10, which "scales up to the number of h/w
//! contexts".
//!
//! Each task is one transaction: a look-up, insert, or delete of a key
//! drawn uniformly from twice the initial element range (so inserts and
//! deletes hit present/absent keys roughly evenly and the tree size
//! stays stationary around its initial value).
//!
//! "Red-black tree" is the paper's name for the workload, kept here;
//! the map under it is not one. The workload is generic over the map
//! backend ([`crate::mapapi::MapFamily`]): [`RbTreeWorkload`] is the
//! default snapshot cell ([`crate::tmap::TMap`]: one persistent
//! B+-tree, [`crate::pers::PMap`], behind one `TVar`; every update
//! conflicts with every update), while `RbTreeWorkloadOn<BTreeFamily>`
//! runs the same mix on the per-node [`crate::btree::TBTreeMap`] — the
//! stmbench `structure` axis.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rubic_runtime::Workload;
use rubic_stm::Stm;

use crate::mapapi::{Edit, MapFamily, SnapshotFamily, TOrdMap};

/// Operation mix for [`RbTreeWorkload`], in parts per thousand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Look-ups (‰).
    pub lookup: u32,
    /// Inserts (‰).
    pub insert: u32,
    /// Deletes (‰).
    pub delete: u32,
}

impl OpMix {
    /// The paper's micro-benchmark mix: 98 % look-ups, updates split
    /// evenly.
    #[must_use]
    pub fn paper() -> Self {
        OpMix {
            lookup: 980,
            insert: 10,
            delete: 10,
        }
    }

    /// 100 % look-ups — the conflict-free workload of §4.6.
    #[must_use]
    pub fn read_only() -> Self {
        OpMix {
            lookup: 1000,
            insert: 0,
            delete: 0,
        }
    }

    /// A write-heavy mix for contention studies (50/25/25).
    #[must_use]
    pub fn write_heavy() -> Self {
        OpMix {
            lookup: 500,
            insert: 250,
            delete: 250,
        }
    }

    fn total(&self) -> u32 {
        self.lookup + self.insert + self.delete
    }
}

/// Configuration for the ordered-map micro-benchmark.
#[derive(Debug, Clone)]
pub struct RbTreeConfig {
    /// Initial number of elements (paper: 65 536).
    pub initial_size: u64,
    /// Keys are drawn from `[0, key_range)`; defaults to twice the
    /// initial size so the tree size is stationary under the mix.
    pub key_range: u64,
    /// Operation mix.
    pub mix: OpMix,
    /// RNG seed for the initial fill and per-worker streams.
    pub seed: u64,
}

impl RbTreeConfig {
    /// The paper's configuration: 64 K elements, 98 % look-ups.
    #[must_use]
    pub fn paper() -> Self {
        RbTreeConfig {
            initial_size: 65_536,
            key_range: 131_072,
            mix: OpMix::paper(),
            seed: 0x5EED_0001,
        }
    }

    /// A small configuration for fast tests.
    #[must_use]
    pub fn small() -> Self {
        RbTreeConfig {
            initial_size: 512,
            key_range: 1024,
            mix: OpMix::paper(),
            seed: 0x5EED_0002,
        }
    }

    /// Overrides the operation mix.
    #[must_use]
    pub fn with_mix(mut self, mix: OpMix) -> Self {
        self.mix = mix;
        self
    }
}

/// The shared ordered-map workload, generic over the map backend.
///
/// ```
/// use rubic_stm::Stm;
/// use rubic_workloads::rbtree::{RbTreeConfig, RbTreeWorkload};
/// use rubic_runtime::Workload;
///
/// let w = RbTreeWorkload::new(RbTreeConfig::small(), Stm::default());
/// let mut state = w.init_worker(0);
/// for _ in 0..100 {
///     w.run_task(&mut state);
/// }
/// assert!(w.stm().stats().commits() >= 100);
/// ```
pub struct RbTreeWorkloadOn<F: MapFamily> {
    map: F::Map<u64, u64>,
    cfg: RbTreeConfig,
    stm: Stm,
}

/// The default backend: the snapshot cell ([`crate::tmap::TMap`]).
pub type RbTreeWorkload = RbTreeWorkloadOn<SnapshotFamily>;

impl<F: MapFamily> RbTreeWorkloadOn<F> {
    /// Builds the tree and fills it with `initial_size` random keys.
    #[must_use]
    pub fn new(cfg: RbTreeConfig, stm: Stm) -> Self {
        let map = F::new_labelled("rbtree.map");
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        // Fill outside the measured phase, one key per transaction (the
        // values don't matter to the benchmark; key*2+1 is arbitrary).
        let mut inserted = 0u64;
        while inserted < cfg.initial_size {
            let key = rng.gen_range(0..cfg.key_range);
            let fresh = stm.atomically(|tx| {
                map.edit(tx, &key, |held| match held {
                    Some(_) => (Edit::Keep, false),
                    None => (Edit::Put(key * 2 + 1), true),
                })
            });
            if fresh {
                inserted += 1;
            }
        }
        RbTreeWorkloadOn { map, cfg, stm }
    }

    /// The underlying STM runtime (for commit-rate reporting).
    #[must_use]
    pub fn stm(&self) -> &Stm {
        &self.stm
    }

    /// The shared map (for inspection in tests).
    #[must_use]
    pub fn map(&self) -> &F::Map<u64, u64> {
        &self.map
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &RbTreeConfig {
        &self.cfg
    }
}

/// Per-worker state: an independent RNG stream.
pub struct RbWorkerState {
    rng: SmallRng,
}

impl<F: MapFamily> Workload for RbTreeWorkloadOn<F> {
    type WorkerState = RbWorkerState;

    fn init_worker(&self, tid: usize) -> RbWorkerState {
        RbWorkerState {
            rng: SmallRng::seed_from_u64(
                self.cfg.seed ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
        }
    }

    fn run_task(&self, state: &mut RbWorkerState) {
        let key = state.rng.gen_range(0..self.cfg.key_range);
        let dice = state.rng.gen_range(0..self.cfg.mix.total());
        if dice < self.cfg.mix.lookup {
            // Declared read-only so the lookup's outcome is counted
            // under `ro_commits`/`ro_aborts`.
            let _ = self.stm.read_only(|tx| self.map.get(tx, &key));
        } else if dice < self.cfg.mix.lookup + self.cfg.mix.insert {
            let _ = self.stm.atomically(|tx| self.map.insert(tx, key, key));
        } else {
            let _ = self.stm.atomically(|tx| self.map.remove(tx, &key));
        }
    }

    fn drain_aborts(&self, _state: &mut RbWorkerState) -> u64 {
        rubic_stm::take_thread_aborts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapapi::BTreeFamily;

    #[test]
    fn initial_fill_reaches_target_size() {
        let w = RbTreeWorkload::new(RbTreeConfig::small(), Stm::default());
        assert_eq!(w.map().check_invariants(), Ok(512));
    }

    #[test]
    fn btree_backend_fill_reaches_target_size() {
        let w = RbTreeWorkloadOn::<BTreeFamily>::new(RbTreeConfig::small(), Stm::default());
        assert_eq!(w.map().check_invariants(), Ok(512));
    }

    #[test]
    fn mix_paper_sums_to_1000() {
        assert_eq!(OpMix::paper().total(), 1000);
        assert_eq!(OpMix::read_only().total(), 1000);
        assert_eq!(OpMix::write_heavy().total(), 1000);
    }

    #[test]
    fn tasks_commit_transactions() {
        let w = RbTreeWorkload::new(RbTreeConfig::small(), Stm::default());
        let before = w.stm().stats().commits();
        let mut st = w.init_worker(3);
        for _ in 0..200 {
            w.run_task(&mut st);
        }
        assert!(w.stm().stats().commits() >= before + 200);
    }

    #[test]
    fn read_only_mix_never_writes() {
        let w = RbTreeWorkload::new(
            RbTreeConfig::small().with_mix(OpMix::read_only()),
            Stm::default(),
        );
        let writes_before = w.stm().stats().writes();
        let mut st = w.init_worker(0);
        for _ in 0..300 {
            w.run_task(&mut st);
        }
        assert_eq!(w.stm().stats().writes(), writes_before);
        assert_eq!(w.map().snapshot_entries().len(), 512);
    }

    #[test]
    fn tree_size_stays_stationary_under_mix() {
        let w = RbTreeWorkload::new(RbTreeConfig::small(), Stm::default());
        let mut st = w.init_worker(1);
        for _ in 0..2000 {
            w.run_task(&mut st);
        }
        let len = w.map().check_invariants().expect("map invariants") as f64;
        // Inserts and deletes are symmetric over a half-full key range;
        // the size drifts but stays in the same ballpark.
        assert!(
            (300.0..=724.0).contains(&len),
            "tree size drifted wildly: {len}"
        );
    }

    #[test]
    fn btree_backend_runs_the_same_mix() {
        let w = RbTreeWorkloadOn::<BTreeFamily>::new(
            RbTreeConfig::small().with_mix(OpMix::write_heavy()),
            Stm::default(),
        );
        let mut st = w.init_worker(1);
        for _ in 0..2000 {
            w.run_task(&mut st);
        }
        let len = w.map().check_invariants().expect("btree invariants") as f64;
        assert!(
            (300.0..=724.0).contains(&len),
            "tree size drifted wildly: {len}"
        );
    }

    #[test]
    fn backends_agree_on_the_same_op_stream() {
        // Identical config + seeds ⇒ identical single-threaded op
        // streams ⇒ identical final contents on both backends.
        let cfg = RbTreeConfig::small().with_mix(OpMix::write_heavy());
        let a = RbTreeWorkload::new(cfg.clone(), Stm::default());
        let b = RbTreeWorkloadOn::<BTreeFamily>::new(cfg, Stm::default());
        let mut sa = a.init_worker(0);
        let mut sb = b.init_worker(0);
        for _ in 0..1500 {
            a.run_task(&mut sa);
            b.run_task(&mut sb);
        }
        assert_eq!(a.map().snapshot_entries(), b.map().snapshot_entries());
    }

    #[test]
    fn distinct_workers_use_distinct_streams() {
        let w = RbTreeWorkload::new(RbTreeConfig::small(), Stm::default());
        let mut a = w.init_worker(0);
        let mut b = w.init_worker(1);
        let ka: Vec<u64> = (0..10).map(|_| a.rng.gen_range(0..1000)).collect();
        let kb: Vec<u64> = (0..10).map(|_| b.rng.gen_range(0..1000)).collect();
        assert_ne!(ka, kb);
    }
}
