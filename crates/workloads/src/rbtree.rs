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
//! the map under it is not one. It is the per-node B+-tree
//! ([`crate::btree::TBTreeMap`]), which, like the RSTM red-black tree
//! the paper measured, keeps a transaction's conflicts on the path it
//! touched: a look-up is one borrowed descent that writes no shared
//! line, an update rewrites one leaf.

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rubic_runtime::Workload;
use rubic_stm::Stm;

use crate::btree::TBTreeMap;
use crate::mapapi::TOrdMap;

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

/// The shared ordered-map workload.
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
pub struct RbTreeWorkload {
    map: TBTreeMap<u64, u64>,
    cfg: RbTreeConfig,
    stm: Stm,
}

impl RbTreeWorkload {
    /// Builds the tree holding `initial_size` distinct keys, bottom-up
    /// and outside any transaction, as RSTM and Synchrobench fill
    /// theirs before timing anything: `stm` has committed nothing when
    /// this returns.
    ///
    /// The keys are the first `initial_size` distinct draws of
    /// `SmallRng::seed_from_u64(seed)` over `[0, key_range)` — the
    /// stream a one-key-per-transaction fill would insert, so the key
    /// set is the same — each mapped to `2k + 1` (wrapping; the values
    /// don't matter to the benchmark). The tree is as shallow as
    /// [`TBTreeMap::from_sorted`] builds it: every leaf full, so the
    /// first insert into a leaf splits it.
    ///
    /// # Panics
    /// If `initial_size > key_range`: the range holds too few distinct
    /// keys.
    #[must_use]
    pub fn new(cfg: RbTreeConfig, stm: Stm) -> Self {
        assert!(
            cfg.initial_size <= cfg.key_range,
            "RbTreeConfig: initial_size {} exceeds key_range {}, which holds too few distinct keys",
            cfg.initial_size,
            cfg.key_range
        );
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let size = usize::try_from(cfg.initial_size).expect("initial_size fits in usize");
        let mut seen = HashSet::with_capacity(size);
        while seen.len() < size {
            seen.insert(rng.gen_range(0..cfg.key_range));
        }
        let mut keys: Vec<u64> = seen.into_iter().collect();
        keys.sort_unstable();
        let rows = keys.into_iter().map(|k| (k, k.wrapping_mul(2) + 1));
        let map = TBTreeMap::from_sorted(Some("rbtree.map"), rows);
        RbTreeWorkload { map, cfg, stm }
    }

    /// The underlying STM runtime (for commit-rate reporting).
    #[must_use]
    pub fn stm(&self) -> &Stm {
        &self.stm
    }

    /// The shared map (for inspection in tests).
    #[must_use]
    pub fn map(&self) -> &TBTreeMap<u64, u64> {
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

impl Workload for RbTreeWorkload {
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
    use std::collections::BTreeMap;

    use super::*;

    /// The fill one key per transaction would make: the same stream,
    /// inserted one draw at a time into a `BTreeMap`, first draw kept.
    fn one_at_a_time(cfg: &RbTreeConfig) -> Vec<(u64, u64)> {
        let mut model = BTreeMap::new();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        while (model.len() as u64) < cfg.initial_size {
            let key = rng.gen_range(0..cfg.key_range);
            model.entry(key).or_insert(key.wrapping_mul(2) + 1);
        }
        model.into_iter().collect()
    }

    /// The fill holds exactly the keys a one-at-a-time fill of the same
    /// stream holds, at the least depth, and commits nothing.
    #[test]
    fn initial_fill_reaches_target_size() {
        let dense = RbTreeConfig {
            key_range: 512,
            ..RbTreeConfig::small()
        };
        let wide = RbTreeConfig {
            key_range: u64::MAX,
            ..RbTreeConfig::small()
        };
        // The least depths: 512 keys are 16 full leaves under the root;
        // the paper's 64 K keys are 2,048 full leaves under two branch
        // levels below it.
        let cases = [
            (RbTreeConfig::small(), 1),
            (dense, 1),
            (wide, 1),
            (RbTreeConfig::paper(), 3),
        ];
        for (cfg, depth) in cases {
            let w = RbTreeWorkload::new(cfg.clone(), Stm::default());
            let n = cfg.initial_size as usize;
            assert_eq!(w.map().snapshot_entries(), one_at_a_time(&cfg), "{cfg:?}");
            assert_eq!(w.map().check_shape(), Ok((n, depth)), "{cfg:?}");
            assert_eq!(w.stm().stats().commits(), 0, "the fill commits nothing");
        }
    }

    #[test]
    #[should_panic(expected = "initial_size 5 exceeds key_range 4")]
    fn fill_rejects_more_keys_than_the_range_holds() {
        let cfg = RbTreeConfig {
            initial_size: 5,
            key_range: 4,
            ..RbTreeConfig::small()
        };
        let _ = RbTreeWorkload::new(cfg, Stm::default());
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
    fn distinct_workers_use_distinct_streams() {
        let w = RbTreeWorkload::new(RbTreeConfig::small(), Stm::default());
        let mut a = w.init_worker(0);
        let mut b = w.init_worker(1);
        let ka: Vec<u64> = (0..10).map(|_| a.rng.gen_range(0..1000)).collect();
        let kb: Vec<u64> = (0..10).map(|_| b.rng.gen_range(0..1000)).collect();
        assert_ne!(ka, kb);
    }
}
