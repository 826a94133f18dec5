//! Property-based and concurrency tests for the per-node transactional
//! B-tree (`rubic::workloads::TBTreeMap`): sequential equivalence
//! against `std::collections::BTreeMap`, agreement with the
//! snapshot-cell backend on identical op streams, linearizability of
//! concurrent histories, and structural invariants (occupancy, key
//! ordering, uniform leaf depth) surviving chaos-injected aborts.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rubic::stm::Stm;
use rubic::workloads::{Edit, TBTreeMap, TMap, TOrdMap};

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

/// Applies one op to a `TOrdMap` backend, returning what the op
/// observed (for oracle comparison).
fn apply<M: TOrdMap<u64, u64>>(stm: &Stm, map: &M, op: &MapOp) -> Option<u64> {
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

/// Every op observes what the `BTreeMap` model observes, and the
/// backend's invariants hold after each one.
fn matches_btreemap<M: TOrdMap<u64, u64>>(map: &M, ops: &[MapOp]) -> Result<(), TestCaseError> {
    let stm = Stm::default();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
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
        matches_btreemap(&TBTreeMap::new(), &ops)?;
    }

    /// The same model check on the other `MapFamily` member.
    #[test]
    fn tmap_matches_btreemap(ops in proptest::collection::vec(map_op(), 1..400)) {
        matches_btreemap(&TMap::new(), &ops)?;
    }

    /// The snapshot-cell map and the per-node B-tree agree op-for-op on
    /// identical streams: same return values, same final contents. This
    /// is the drop-in-backend contract the stmbench `structure` axis
    /// relies on.
    #[test]
    fn backends_agree_on_identical_streams(ops in proptest::collection::vec(map_op(), 1..250)) {
        let stm = Stm::default();
        let snap: TMap<u64, u64> = TOrdMap::empty();
        let btree: TBTreeMap<u64, u64> = TBTreeMap::new();
        for op in &ops {
            let a = apply(&stm, &snap, op);
            let b = apply(&stm, &btree, op);
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(snap.snapshot_entries(), btree.snapshot_entries());
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
