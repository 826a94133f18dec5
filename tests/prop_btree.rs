//! Property-based and concurrency tests for the per-node transactional
//! B-tree (`rubic::workloads::TBTreeMap`): sequential equivalence
//! against `std::collections::BTreeMap`, fills and drains deep enough
//! to split and merge at every level, linearizability of concurrent
//! histories, structural invariants (occupancy, key ordering, uniform
//! leaf depth) surviving chaos-injected aborts, and trees built bottom-up
//! by `from_sorted`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rubic::stm::Stm;
use rubic::workloads::btree::node::{MAX_LEAF, MAX_SEPS};
use rubic::workloads::{Edit, TBTreeMap, TOrdMap};

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    /// `edit` with the arm the generator chose: 0 keeps, 1 puts `held +
    /// v` (or `v` on a miss), 2 removes. Observes the value held before.
    Edit(u64, u8, u64),
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k % 300, v)),
        any::<u64>().prop_map(|k| MapOp::Remove(k % 300)),
        any::<u64>().prop_map(|k| MapOp::Get(k % 300)),
        (any::<u64>(), 0u8..3, any::<u64>()).prop_map(|(k, arm, v)| MapOp::Edit(
            k % 300,
            arm,
            v % 1000
        )),
    ]
}

/// Applies one op to the map, returning what the op observed (for
/// oracle comparison).
fn apply(stm: &Stm, map: &TBTreeMap<u64, u64>, op: &MapOp) -> Option<u64> {
    match *op {
        MapOp::Insert(k, v) => stm.atomically(|tx| map.insert(tx, k, v)),
        MapOp::Remove(k) => stm.atomically(|tx| map.remove(tx, &k)),
        MapOp::Get(k) => stm.atomically(|tx| map.get(tx, &k)),
        MapOp::Edit(k, arm, v) => stm.atomically(|tx| {
            map.edit(tx, &k, |held| {
                let decision = match arm {
                    0 => Edit::Keep,
                    1 => Edit::Put(held.map_or(v, |cur| cur + v)),
                    _ => Edit::Remove,
                };
                (decision, held.copied())
            })
        }),
    }
}

/// Applies one op to the `BTreeMap` oracle with the same semantics.
fn apply_oracle(model: &mut BTreeMap<u64, u64>, op: &MapOp) -> Option<u64> {
    match *op {
        MapOp::Insert(k, v) => model.insert(k, v),
        MapOp::Remove(k) => model.remove(&k),
        MapOp::Get(k) => model.get(&k).copied(),
        MapOp::Edit(k, arm, v) => {
            let held = model.get(&k).copied();
            match arm {
                0 => {}
                1 => drop(model.insert(k, held.map_or(v, |cur| cur + v))),
                _ => drop(model.remove(&k)),
            }
            held
        }
    }
}

/// Every op observes what the `BTreeMap` model, holding what `map`
/// holds, observes, and the map's invariants hold after each one.
fn matches_btreemap(
    map: &TBTreeMap<u64, u64>,
    mut model: BTreeMap<u64, u64>,
    ops: &[MapOp],
) -> Result<(), TestCaseError> {
    let stm = Stm::default();
    for op in ops {
        let got = apply(&stm, map, op);
        let expected = apply_oracle(&mut model, op);
        prop_assert_eq!(got, expected);
        match map.check_invariants() {
            Ok(len) => prop_assert_eq!(len, model.len()),
            Err(e) => prop_assert!(false, "invariant violated: {}", e),
        }
    }
    let entries = map.snapshot_entries();
    let expected: Vec<(u64, u64)> = model.into_iter().collect();
    prop_assert_eq!(entries, expected);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequentially, the B-tree is observationally a
    /// `std::collections::BTreeMap`, and its structural invariants
    /// (node occupancy, strict key ordering, uniform leaf depth) hold
    /// after every operation — including through the splits and merges
    /// a 300-key churn forces at fanout 16.
    #[test]
    fn tbtree_matches_btreemap(ops in proptest::collection::vec(map_op(), 1..400)) {
        matches_btreemap(&TBTreeMap::new(), BTreeMap::new(), &ops)?;
    }
}

/// The least leaf depth that holds `n` entries: a root leaf up to
/// `MAX_LEAF`, then `MAX_SEPS + 1` times as many per level.
fn least_depth(n: usize) -> usize {
    let (mut depth, mut fits) = (0, MAX_LEAF);
    while n > fits {
        fits *= MAX_SEPS + 1;
        depth += 1;
    }
    depth
}

/// `(k, 10 k)` for `k` in `0..n` step `stride`.
fn sorted_rows(n: u64, stride: u64) -> Vec<(u64, u64)> {
    (0..n).map(|i| (i * stride, i * stride * 10)).collect()
}

#[test]
fn from_sorted_builds_the_shallowest_legal_tree() {
    let sizes = [0, 1, MAX_LEAF, MAX_LEAF + 1, 529, 16_384];
    for (n, label) in sizes
        .into_iter()
        .zip([None, Some("test.sorted")].into_iter().cycle())
    {
        let rows = sorted_rows(n as u64, 3);
        let map = TBTreeMap::from_sorted(label, rows.clone());
        assert_eq!(map.check_shape(), Ok((n, least_depth(n))), "{n} rows");
        assert_eq!(map.snapshot_entries(), rows, "{n} rows");
    }
    // 529 rows overflow one branch of full leaves (16 × 32 = 512), and
    // Vacation's 16 K-row resource tables are 512 full leaves under
    // two branch levels.
    assert_eq!(least_depth(16_384), 3);
    assert_eq!(least_depth(529), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A tree built bottom-up, every node full, then 2 000 random ops:
    /// the first inserts split full nodes, removals borrow and merge,
    /// and the map stays the `BTreeMap` model throughout.
    #[test]
    fn from_sorted_then_random_ops_match_btreemap(
        n in 0u64..300,
        stride in 1u64..3,
        ops in proptest::collection::vec(map_op(), 2_000),
    ) {
        let rows = sorted_rows(n, stride);
        let map = TBTreeMap::from_sorted(None, rows.clone());
        matches_btreemap(&map, rows.into_iter().collect(), &ops)?;
    }
}

#[test]
#[should_panic(expected = "strictly increasing")]
fn from_sorted_rejects_unsorted_rows() {
    let _ = TBTreeMap::from_sorted(None, [(2u64, 0u64), (1, 0)]);
}

#[test]
#[should_panic(expected = "strictly increasing")]
fn from_sorted_rejects_repeated_keys() {
    let _ = TBTreeMap::from_sorted(None, [(1u64, 0u64), (1, 0)]);
}

/// Xorshift step, for seeded orders.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The keys `0..n` in ascending (0), descending (1) or seeded random
/// (anything else) order.
fn ordered(n: u64, order: u8, seed: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..n).collect();
    match order {
        0 => {}
        1 => keys.reverse(),
        _ => {
            let mut x = seed | 1;
            for i in (1..keys.len()).rev() {
                keys.swap(i, (next(&mut x) % (i as u64 + 1)) as usize);
            }
        }
    }
    keys
}

/// Invariants plus agreement with the model on size; returns the depth.
fn agree(map: &TBTreeMap<u64, u64>, model: &BTreeMap<u64, u64>) -> usize {
    let (len, depth) = map.check_shape().expect("btree invariants");
    assert_eq!(len, model.len());
    depth
}

/// Fills `n` distinct keys in one order and drains them to empty in
/// another, one transaction per operation on one `Stm`, against
/// `BTreeMap`, checking the shape every 64 steps. The 300-key proptest
/// above stays shallow; this reaches every structural case:
/// growing to depth >= 3 splits leaves, branches and the root;
/// shrinking back to one leaf merges them and collapses the root; a
/// random fill leaves siblings above their minimum, so an ascending
/// drain (the underfull node is a first child) borrows from the right
/// and a descending one from the left, at the leaves and at the
/// interior levels.
fn fill_and_drain(n: u64, fill: u8, drain: u8, seed: u64) {
    let stm = Stm::default();
    let mut model = BTreeMap::new();
    let map: TBTreeMap<u64, u64> = TBTreeMap::new();
    for (step, k) in ordered(n, fill, seed).into_iter().enumerate() {
        let old = stm.atomically(|tx| map.insert(tx, k, step as u64));
        assert_eq!(old, model.insert(k, step as u64));
        if step & 63 == 0 {
            agree(&map, &model);
        }
    }
    assert!(
        agree(&map, &model) >= 3,
        "{n} keys must not fit three levels"
    );
    assert_eq!(
        map.snapshot_entries(),
        model.clone().into_iter().collect::<Vec<_>>()
    );
    for (step, k) in ordered(n, drain, !seed).into_iter().enumerate() {
        assert_eq!(
            stm.atomically(|tx| map.remove(tx, &(k + n))),
            None,
            "absent key"
        );
        let old = stm.atomically(|tx| map.remove(tx, &k));
        assert_eq!(old, model.remove(&k));
        assert_eq!(stm.atomically(|tx| map.get(tx, &k)), None);
        if step & 63 == 0 {
            agree(&map, &model);
        }
    }
    assert_eq!(
        map.check_shape(),
        Ok((0, 0)),
        "drained back to one root leaf"
    );
}

#[test]
fn tbtree_fills_and_drains_6k_keys_in_every_order() {
    for fill in 0..3 {
        for drain in 0..3 {
            fill_and_drain(6_000, fill, drain, 0x9E37_79B9_7F4A_7C15);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same fill-and-drain with drawn sizes, orders and shuffles.
    #[test]
    fn tbtree_fill_and_drain_large(
        n in 6_000u64..8_000,
        fill in 0u8..3,
        drain in 0u8..3,
        seed in any::<u64>(),
    ) {
        fill_and_drain(n, fill, drain, seed);
    }
}

/// Linearizability of concurrent histories, counter-style: every
/// committed `edit` increment must be reflected exactly once in
/// the final state, regardless of interleaving, splits, or aborted
/// attempts. Four threads hammer overlapping key ranges; per-key sums
/// must equal the per-key totals each thread committed.
#[test]
fn concurrent_increments_linearize() {
    const THREADS: u64 = 4;
    const OPS: u64 = 300;
    const KEYS: u64 = 64;
    let stm = Stm::default();
    let map: Arc<TBTreeMap<u64, u64>> = Arc::new(TBTreeMap::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let stm = stm.clone();
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                // xorshift stream, distinct per thread.
                let mut x = 0x9E37_79B9u64 ^ (t + 1);
                let mut local = vec![0u64; KEYS as usize];
                for _ in 0..OPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = x % KEYS;
                    let inc = (x >> 32) % 5 + 1;
                    // `atomically` retries to commit, so each call
                    // lands exactly once.
                    stm.atomically(|tx| {
                        map.edit(tx, &key, |held| {
                            (Edit::Put(held.map_or(inc, |v| v + inc)), ())
                        })
                    });
                    local[key as usize] += inc;
                }
                local
            })
        })
        .collect();
    let mut expected = vec![0u64; KEYS as usize];
    for h in handles {
        for (k, sum) in h.join().expect("worker").into_iter().enumerate() {
            expected[k] += sum;
        }
    }
    let entries = map.snapshot_entries();
    map.check_invariants().expect("btree invariants");
    for (k, &sum) in expected.iter().enumerate() {
        let got = entries
            .iter()
            .find(|(key, _)| *key == k as u64)
            .map_or(0, |(_, v)| *v);
        assert_eq!(got, sum, "key {k}: committed increments lost or duplicated");
    }
}

/// Concurrent inserts over disjoint ranges all land and the structure
/// stays a valid B-tree — the per-node footprint must not lose sibling
/// subtrees to racing splits.
#[test]
fn concurrent_disjoint_inserts_all_land() {
    let stm = Stm::default();
    let map: Arc<TBTreeMap<u64, u64>> = Arc::new(TBTreeMap::new());
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let stm = stm.clone();
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                for i in 0..250 {
                    let key = t * 1000 + i;
                    stm.atomically(|tx| map.insert(tx, key, key));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }
    assert_eq!(map.check_invariants(), Ok(1000));
}

/// Concurrent splits of a bulk-built tree: `from_sorted` fills every
/// leaf to `MAX_LEAF`, so the first insert into each leaf splits it.
/// The rows are every `GAP`-th key; four threads meet at a barrier
/// before each leaf and insert, a quarter each, the keys between its
/// rows, so every leaf splits, and its halves split again, while the
/// other threads insert into them. Every insert lands once, the shape
/// holds, and the map is the model.
#[test]
fn concurrent_inserts_split_every_full_leaf_of_a_bulk_built_tree() {
    const THREADS: u64 = 4;
    const LEAVES: u64 = 64;
    const GAP: u64 = 8;
    let n = LEAVES * MAX_LEAF as u64;
    let rows = sorted_rows(n, GAP);
    let map = Arc::new(TBTreeMap::from_sorted(None, rows.clone()));
    // `n` is a multiple of `MAX_LEAF`: `n / MAX_LEAF` leaves, all full.
    assert_eq!(map.check_shape(), Ok((n as usize, least_depth(n as usize))));
    let fresh = |leaf: u64| {
        let keys = leaf * MAX_LEAF as u64 * GAP..(leaf + 1) * MAX_LEAF as u64 * GAP;
        keys.filter(|k| k % GAP != 0)
    };
    let stm = Stm::default();
    let start = Arc::new(std::sync::Barrier::new(THREADS as usize));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (stm, map, start) = (stm.clone(), Arc::clone(&map), Arc::clone(&start));
            std::thread::spawn(move || {
                for leaf in 0..LEAVES {
                    start.wait();
                    for key in fresh(leaf).skip(t as usize).step_by(THREADS as usize) {
                        let old = stm.atomically(|tx| map.insert(tx, key, key));
                        assert_eq!(old, None, "key {key} inserted twice");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }
    let mut model: BTreeMap<u64, u64> = rows.into_iter().collect();
    model.extend((0..LEAVES).flat_map(fresh).map(|k| (k, k)));
    agree(&map, &model);
    assert_eq!(
        map.snapshot_entries(),
        model.into_iter().collect::<Vec<_>>()
    );
}

/// Chaos-injected aborts (the STM's deterministic fault hook) must
/// never leave a half-applied split or merge visible: after a
/// multi-threaded churn under injected aborts and commit-point kills,
/// the tree still satisfies every structural invariant and contains
/// exactly the keys whose transactions committed.
///
/// Serialised via a local mutex: the chaos hook is process-global.
#[test]
fn invariants_survive_chaos_aborts() {
    use rubic_stm::chaos::{install, SeededChaos};
    static SERIAL: Mutex<()> = Mutex::new(());
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);

    let stm = Stm::default();
    let map: Arc<TBTreeMap<u64, u64>> = Arc::new(TBTreeMap::new());
    {
        let _chaos = install(Arc::new(SeededChaos::new(0x0B7E_E5EED)));
        let handles: Vec<_> = (0..3u64)
            .map(|t| {
                let stm = stm.clone();
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    let mut x = 0xDEAD_BEEFu64 ^ (t << 17 | 1);
                    for _ in 0..400 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let key = x % 200;
                        if x & 0b100 == 0 {
                            stm.atomically(|tx| map.insert(tx, key, x));
                        } else {
                            stm.atomically(|tx| map.remove(tx, &key));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
    }
    // Hook dropped: verify structure with clean reads.
    let len = map.check_invariants().expect("invariants under chaos");
    assert_eq!(len, map.snapshot_entries().len());
    let entries = map.snapshot_entries();
    assert!(
        entries.windows(2).all(|w| w[0].0 < w[1].0),
        "entries must be strictly sorted"
    );
}

/// Read-only descents return a value the key has held while writers
/// split and merge: a declared read-only lookup validates every node on
/// its path, so it may retry but never reports a moved key as missing.
#[test]
fn read_only_descents_survive_splits_and_merges() {
    let stm = Stm::default();
    let map: Arc<TBTreeMap<u64, u64>> = Arc::new(TBTreeMap::new());
    for k in 0..128 {
        stm.atomically(|tx| map.insert(tx, k, k));
    }
    let before = stm.stats().snapshot();
    let writer = {
        let stm = stm.clone();
        let map = Arc::clone(&map);
        std::thread::spawn(move || {
            for k in 128..600 {
                stm.atomically(|tx| map.insert(tx, k, k));
                stm.atomically(|tx| map.remove(tx, &(k - 100)));
            }
        })
    };
    // Keys 0..28 are never removed (the writer deletes 28..500). Keep
    // reading until the writer is done so the descents overlap it.
    let mut lookups = 0u64;
    while lookups < 600 || !writer.is_finished() {
        let key = lookups % 28;
        let got = stm.read_only(|tx| map.get(tx, &key));
        assert_eq!(got, Some(key));
        lookups += 1;
    }
    writer.join().expect("writer");
    let delta = stm.stats().snapshot().delta_since(&before);
    assert_eq!(delta.ro_commits, lookups, "one commit per lookup");
    map.check_invariants().expect("invariants after the run");
}

/// A key whose comparisons sample the handle counts of the nodes this
/// thread watches, so a descent that holds a cloned handle while it
/// routes through a node is caught in the act, not only afterwards.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Probe(u64);

type ProbeVar = rubic::workloads::btree::node::NodeVar<Probe, u64>;

thread_local! {
    /// `(node, its handle count at rest)` pairs this thread watches.
    static WATCHED: std::cell::RefCell<Vec<(ProbeVar, usize)>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// Largest count above rest any comparison on this thread saw.
    static EXCESS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Ord for Probe {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        WATCHED.with(|w| {
            for (var, rest) in w.borrow().iter() {
                let extra = var.handle_count().saturating_sub(*rest);
                EXCESS.with(|e| e.set(e.get().max(extra)));
            }
        });
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Probe {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Pumps the epoch until `done` holds or 20 s pass; reclamation waits
/// for every pinned thread, other tests' included.
fn pump_epoch_until(done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !done() && std::time::Instant::now() < deadline {
        crossbeam_epoch::pin().flush();
        std::thread::yield_now();
    }
}

/// The btree twin of the engine's
/// `reads_leave_every_handle_count_unchanged`: a `get` and a
/// non-structural `edit`, racing a writer that commits on another
/// thread, never change the handle count of the root or of an interior
/// node — not after the operation and not while it routes through
/// them (every key comparison samples both). And a `get` still records
/// every node of its path: on a depth-d tree its read set holds d + 1
/// nodes, root to leaf.
#[test]
fn descents_take_no_handle_and_keep_their_footprint() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const KEYS: u64 = 2000;
    let stm = Stm::default();
    let map: Arc<TBTreeMap<Probe, u64>> = Arc::new(TBTreeMap::new());
    for k in 0..KEYS {
        let k = (k * 2_654_435_761) % KEYS;
        stm.atomically(|tx| map.insert(tx, Probe(k), k));
    }
    let (_, depth) = map.check_shape().expect("btree invariants");
    assert!(depth >= 2, "needs an interior node below the root: {depth}");

    let root = map.root().clone();
    let interior = match map.root().snapshot() {
        rubic::workloads::btree::node::Node::Branch { kids, .. } => kids[0].clone(),
        rubic::workloads::btree::node::Node::Leaf(_) => unreachable!("depth >= 2"),
    };
    // At rest: the root is held by the map, `root` and the watch list;
    // the interior node by the root's published value, `interior` and
    // the watch list, once the fill's retired root versions are gone.
    pump_epoch_until(|| interior.handle_count() == 2);
    WATCHED.with(|w| *w.borrow_mut() = vec![(root.clone(), 3), (interior.clone(), 3)]);
    let at_rest = |step: &str| {
        assert_eq!(root.handle_count(), 3, "root after {step}");
        assert_eq!(interior.handle_count(), 3, "interior after {step}");
    };
    at_rest("the fill");

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (stm, map, stop) = (stm.clone(), Arc::clone(&map), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut commits = 0u64;
            // Replacements of present keys: leaf writes, no split.
            while !stop.load(Ordering::Relaxed) || commits < 200 {
                let k = KEYS / 2 + commits % (KEYS / 2);
                stm.atomically(|tx| map.insert(tx, Probe(k), commits));
                commits += 1;
            }
        })
    };
    for i in 0..2000u64 {
        let k = (i * 7) % KEYS;
        let (found, reads) = stm.read_only(|tx| Ok((map.get(tx, &Probe(k))?, tx.read_set_len())));
        assert!(found.is_some(), "key {k} present");
        assert_eq!(reads, depth + 1, "one read-set entry per path node");
        at_rest("get");
        stm.atomically(|tx| {
            map.edit(tx, &Probe(k), |held| {
                (Edit::Put(held.copied().unwrap_or(0) + 1), ())
            })
        });
        at_rest("edit");
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer");
    let excess = EXCESS.with(std::cell::Cell::get);
    WATCHED.with(|w| w.borrow_mut().clear());
    assert_eq!(excess, 0, "a descent held a counted handle mid-walk");
    map.check_invariants()
        .expect("btree invariants after the race");
}

/// A leaf unlinked by a concurrent merge is not freed while a
/// `read_path` that followed its parent is still walking: the descent
/// holds the leaf by address only, and what keeps it alive is the
/// attempt's pin. The merge runs (on another thread) at the leaf's lock
/// sample — after the parent was read and validated, before the leaf
/// is — then its thread drops every handle it holds and pumps the epoch.
/// The leaf's last handle is inside the parent version the descent
/// read, so a drop counter — an `Arc` held only by node values — must
/// not fall until the descent's transaction is gone, and must fall
/// after.
#[test]
fn unlinked_leaf_outlives_a_pinned_descent() {
    use rubic::stm::Transaction;
    use rubic_stm::chaos::{install, ChaosHook, ChaosPoint};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    /// Runs `merge` on its own thread at the reader's second lock
    /// sample (root, then leaf) and waits for it.
    struct MergeAtLeafSample {
        reader: ThreadId,
        samples: AtomicUsize,
        merge: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }
    impl ChaosHook for MergeAtLeafSample {
        fn at(&self, point: ChaosPoint) {
            if point != ChaosPoint::LockSample || std::thread::current().id() != self.reader {
                return;
            }
            if self.samples.fetch_add(1, Ordering::SeqCst) == 1 {
                let merge = self.merge.lock().expect("hook").take();
                if let Some(merge) = merge {
                    std::thread::spawn(merge).join().expect("merge thread");
                }
            }
        }
    }

    // Two leaves of exactly MIN_LEAF (16) entries: 0..33 splits 16 / 17,
    // removing 32 leaves 16..32. Removing 0 then underflows the left
    // leaf, the right one has nothing to lend, so they merge — the right
    // leaf is unlinked, its published value untouched — and the root,
    // left with one child, collapses into a leaf.
    let stm = Stm::default();
    let tracker = Arc::new(());
    let map: TBTreeMap<u64, Arc<()>> = TBTreeMap::new();
    for k in 0..33 {
        stm.atomically(|tx| map.insert(tx, k, Arc::new(())));
    }
    stm.atomically(|tx| map.remove(tx, &32));
    stm.atomically(|tx| map.insert(tx, 20, Arc::clone(&tracker)));
    assert_eq!(map.check_shape(), Ok((32, 1)));
    // At rest: `tracker` and the right leaf's published value.
    pump_epoch_until(|| Arc::strong_count(&tracker) == 2);
    assert_eq!(Arc::strong_count(&tracker), 2);

    let during = Arc::new(AtomicUsize::new(0));
    let merge: Box<dyn FnOnce() + Send> = {
        let (stm, map, during) = (stm.clone(), map.clone(), Arc::clone(&during));
        let watch = Arc::downgrade(&tracker);
        Box::new(move || {
            stm.atomically(|tx| map.remove(tx, &0));
            drop(map);
            let guard = crossbeam_epoch::pin();
            for _ in 0..256 {
                guard.flush();
            }
            drop(guard);
            during.store(watch.strong_count(), Ordering::SeqCst);
        })
    };
    let hook = Arc::new(MergeAtLeafSample {
        reader: std::thread::current().id(),
        samples: AtomicUsize::new(0),
        merge: Mutex::new(Some(merge)),
    });
    let found = {
        let _chaos = install(hook.clone());
        let mut tx = Transaction::begin_unmanaged();
        map.get(&mut tx, &20).and_then(|found| {
            tx.commit_unmanaged()?;
            Ok(found)
        })
    };
    assert_eq!(hook.samples.load(Ordering::SeqCst), 2, "root, then leaf");
    // During the walk: `tracker`, the unlinked right leaf, the merged
    // left leaf and the collapsed root each hold one — nothing freed.
    assert_eq!(
        during.load(Ordering::SeqCst),
        4,
        "freed under a pinned descent"
    );
    // The lookup serialises before the merge: the leaf it reached is
    // unchanged since the transaction began.
    let found = found.expect("a consistent pre-merge lookup");
    assert!(found.is_some_and(|v| Arc::ptr_eq(&v, &tracker)));
    // The walk is over: both unlinked leaves go, the root's copy stays.
    pump_epoch_until(|| Arc::strong_count(&tracker) == 2);
    assert_eq!(
        Arc::strong_count(&tracker),
        2,
        "unlinked leaves never freed"
    );
    assert_eq!(map.check_shape(), Ok((31, 0)));
}
