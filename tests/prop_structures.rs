//! Property-based tests for the persistent data-structure substrates:
//! the B+-tree map against `BTreeMap`, the persistent queue against
//! `VecDeque` — with structural invariants checked as they go.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;
use rubic::workloads::pers::PMap;
use rubic::workloads::pqueue::PQueue;

#[derive(Debug, Clone)]
enum MapOp {
    Insert(i16, i32),
    Remove(i16),
    Get(i16),
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (any::<i16>(), any::<i32>()).prop_map(|(k, v)| MapOp::Insert(k % 200, v)),
        any::<i16>().prop_map(|k| MapOp::Remove(k % 200)),
        any::<i16>().prop_map(|k| MapOp::Get(k % 200)),
    ]
}

/// Xorshift step, for seeded orders and op streams.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The keys `0..n` in ascending (0), descending (1) or seeded random
/// (anything else) order.
fn ordered(n: u32, order: u8, seed: u64) -> Vec<u32> {
    let mut keys: Vec<u32> = (0..n).collect();
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

/// Invariants plus agreement with the model on size and both ends;
/// returns the depth.
fn agree(map: &PMap<u32, u64>, model: &BTreeMap<u32, u64>) -> usize {
    let depth = map.check_invariants().expect("tree invariants");
    assert_eq!(map.len(), model.len());
    assert_eq!(map.min(), model.iter().next());
    assert_eq!(map.max(), model.iter().next_back());
    depth
}

/// Fills `n` distinct keys in one order and drains them to empty in
/// another, against `BTreeMap`, checking every 64 steps. The small
/// proptest below never leaves depth 2; this reaches every structural
/// case: growing to depth >= 3 splits leaves, branches and the root;
/// shrinking back to one leaf merges them and collapses the root; a
/// random fill leaves siblings above their minimum, so an ascending
/// drain (the underfull node is a first child) borrows from the right
/// and a descending one from the left.
fn fill_and_drain(n: u32, fill: u8, drain: u8, seed: u64) {
    let mut model = BTreeMap::new();
    let mut map = PMap::new();
    for (step, k) in ordered(n, fill, seed).into_iter().enumerate() {
        let (next, old) = map.insert(k, step as u64);
        assert_eq!(old, model.insert(k, step as u64));
        map = next;
        if step & 63 == 0 {
            agree(&map, &model);
        }
    }
    assert!(agree(&map, &model) >= 3, "{n} keys must not fit two levels");
    assert_eq!(map.entries(), model.clone().into_iter().collect::<Vec<_>>());
    for (step, k) in ordered(n, drain, !seed).into_iter().enumerate() {
        assert_eq!(map.remove(&(k + n)).1, None, "absent key");
        let (next, old) = map.remove(&k);
        assert_eq!(old, model.remove(&k));
        assert_eq!(next.get(&k), None);
        map = next;
        if step & 63 == 0 {
            agree(&map, &model);
        }
    }
    assert!(map.is_empty());
    assert_eq!(agree(&map, &model), 1, "drained back to a single leaf");
}

#[test]
fn pmap_fills_and_drains_20k_keys_in_every_order() {
    for fill in 0..3 {
        for drain in 0..3 {
            fill_and_drain(20_000, fill, drain, 0x9E37_79B9_7F4A_7C15);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same fill-and-drain with drawn sizes, orders and shuffles.
    #[test]
    fn pmap_fill_and_drain_large(
        n in 20_000u32..24_000,
        fill in 0u8..3,
        drain in 0u8..3,
        seed in any::<u64>(),
    ) {
        fill_and_drain(n, fill, drain, seed);
    }

    /// Persistence at scale: 100 versions held while 10 000 later
    /// updates (stationary insert/delete churn over 2 000 keys) run
    /// past them still read exactly as they did when taken.
    #[test]
    fn pmap_versions_are_immutable(seed in any::<u64>()) {
        let mut x = seed | 1;
        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        let mut map: PMap<u32, u64> = PMap::new();
        let mut held = Vec::new();
        for step in 0..11_000u64 {
            let r = next(&mut x);
            let key = (r % 2000) as u32;
            if r & (1 << 32) == 0 {
                model.insert(key, step);
                map = map.insert(key, step).0;
            } else {
                model.remove(&key);
                map = map.remove(&key).0;
            }
            if (900..1000).contains(&step) {
                held.push((map.clone(), model.clone()));
            }
        }
        prop_assert_eq!(held.len(), 100);
        for (version, expected) in held {
            prop_assert!(version.check_invariants().is_ok());
            prop_assert_eq!(version.entries(), expected.into_iter().collect::<Vec<_>>());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The persistent map behaves exactly like BTreeMap and keeps its
    /// invariants after every operation.
    #[test]
    fn pmap_matches_btreemap(ops in proptest::collection::vec(map_op(), 1..400)) {
        let mut model: BTreeMap<i16, i32> = BTreeMap::new();
        let mut map: PMap<i16, i32> = PMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    let expected = model.insert(k, v);
                    let (next, got) = map.insert(k, v);
                    prop_assert_eq!(got, expected);
                    map = next;
                }
                MapOp::Remove(k) => {
                    let expected = model.remove(&k);
                    let (next, got) = map.remove(&k);
                    prop_assert_eq!(got, expected);
                    map = next;
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(map.get(&k), model.get(&k));
                }
            }
            prop_assert_eq!(map.len(), model.len());
            if let Err(e) = map.check_invariants() {
                prop_assert!(false, "invariant violated: {}", e);
            }
        }
        let entries = map.entries();
        let expected: Vec<(i16, i32)> = model.into_iter().collect();
        prop_assert_eq!(entries, expected);
    }

    /// Min/max agree with the sorted entry list.
    #[test]
    fn pmap_min_max(keys in proptest::collection::btree_set(any::<i16>(), 1..64)) {
        let mut map: PMap<i16, ()> = PMap::new();
        for &k in &keys {
            map = map.insert(k, ()).0;
        }
        prop_assert_eq!(map.min().map(|(k, ())| *k), keys.iter().next().copied());
        prop_assert_eq!(map.max().map(|(k, ())| *k), keys.iter().next_back().copied());
    }

    /// The persistent queue is observationally a VecDeque.
    #[test]
    fn pqueue_matches_vecdeque(ops in proptest::collection::vec(any::<Option<u32>>(), 1..300)) {
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut q: PQueue<u32> = PQueue::new();
        for op in ops {
            match op {
                Some(v) => {
                    q = q.push(v);
                    model.push_back(v);
                }
                None => {
                    let (next, got) = q.pop();
                    q = next;
                    prop_assert_eq!(got, model.pop_front());
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        prop_assert_eq!(q.to_vec(), model.into_iter().collect::<Vec<_>>());
    }
}
