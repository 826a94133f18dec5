//! Structure-generic ordered-map API.
//!
//! Two transactional ordered maps live in this crate with opposite
//! conflict footprints:
//!
//! * [`TMap`](crate::tmap::TMap) — one persistent tree behind a single
//!   snapshot-cell `TVar`: O(1) reads, but every update conflicts with
//!   every other update on the same map.
//! * [`TBTreeMap`](crate::btree::TBTreeMap) — a B-tree with one `TVar`
//!   per node: a transaction's footprint is the O(log n) root-to-leaf
//!   path it touched, so updates on disjoint subtrees commute.
//!
//! The [`TOrdMap`] trait is the operations contract both implement, and
//! [`MapFamily`] is the backend selector: workloads written against
//! `F: MapFamily` (the rbtree micro-benchmark, Vacation's four tables)
//! swap structures with a type parameter, which is what the stmbench
//! `structure` axis (`snapshot` | `btree`) sweeps.

use rubic_stm::{Transaction, TxResult, TxValue};

use crate::btree::TBTreeMap;
pub use crate::pers::Edit;
use crate::tmap::{TKey, TMap};

/// The transactional ordered-map operations contract.
///
/// All transactional methods take the transaction first and propagate
/// conflicts through `TxResult`; the two non-transactional methods
/// (`snapshot_entries`, `check_invariants`) are for quiescent
/// inspection in tests and monitoring, with the same caveat as
/// [`rubic_stm::TVar::snapshot`]: they are only a consistent view when
/// no writer is concurrently committing.
pub trait TOrdMap<K: TKey, V: TxValue>: Clone + Send + Sync + 'static {
    /// Creates an empty map.
    fn empty() -> Self;

    /// Creates an empty map whose `TVar`s carry trace labels derived
    /// from `label` (no-op when the `trace` feature is off).
    fn empty_labelled(label: &str) -> Self;

    /// Looks up `key` within `tx`.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    fn get(&self, tx: &mut Transaction, key: &K) -> TxResult<Option<V>>;

    /// Membership test within `tx`.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    fn contains(&self, tx: &mut Transaction, key: &K) -> TxResult<bool>;

    /// The one read-modify-write primitive: runs `f` **once** on the
    /// entry under `key` as `tx` sees it (`None` when absent) and
    /// applies what it decides — [`Edit::Keep`], [`Edit::Put`] or
    /// [`Edit::Remove`] — in a single descent. `Keep`, and `Remove` of
    /// an absent key, write nothing, so they conflict with no other
    /// update. Returns whatever else `f` returned.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    fn edit<R>(
        &self,
        tx: &mut Transaction,
        key: &K,
        f: impl FnOnce(Option<&V>) -> (Edit<V>, R),
    ) -> TxResult<R>;

    /// Inserts `key → value`; returns the previous value if present.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    fn insert(&self, tx: &mut Transaction, key: K, value: V) -> TxResult<Option<V>> {
        self.edit(tx, &key, |held| (Edit::Put(value), held.cloned()))
    }

    /// Removes `key`; returns the removed value if present.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    fn remove(&self, tx: &mut Transaction, key: &K) -> TxResult<Option<V>> {
        self.edit(tx, key, |held| (Edit::Remove, held.cloned()))
    }

    /// Number of entries within `tx`.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    fn len(&self, tx: &mut Transaction) -> TxResult<usize>;

    /// True when empty within `tx`.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    fn is_empty(&self, tx: &mut Transaction) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// Every entry in key order, read within `tx` (bulk reads that must
    /// be consistent with the rest of the transaction).
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    fn entries(&self, tx: &mut Transaction) -> TxResult<Vec<(K, V)>>;

    /// Every entry in key order, read non-transactionally (quiescent
    /// inspection only).
    fn snapshot_entries(&self) -> Vec<(K, V)>;

    /// Checks the structure's internal invariants on a quiescent map;
    /// returns the entry count on success.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    fn check_invariants(&self) -> Result<usize, String>;
}

/// A family of ordered-map structures: the backend selector workloads
/// are generic over.
///
/// `NAME` is the value the stmbench `structure` axis reports for this
/// backend.
pub trait MapFamily: Send + Sync + 'static {
    /// Axis/label name: `"snapshot"` or `"btree"`.
    const NAME: &'static str;
    /// The map type this family builds for a given key/value pair.
    type Map<K: TKey, V: TxValue>: TOrdMap<K, V>;

    /// Builds an empty map.
    #[must_use]
    fn new_map<K: TKey, V: TxValue>() -> Self::Map<K, V> {
        Self::Map::empty()
    }

    /// Builds an empty map with trace labels derived from `label`.
    #[must_use]
    fn new_labelled<K: TKey, V: TxValue>(label: &str) -> Self::Map<K, V> {
        Self::Map::empty_labelled(label)
    }
}

/// The snapshot-cell backend: one persistent tree behind one `TVar`
/// ([`TMap`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotFamily;

impl MapFamily for SnapshotFamily {
    const NAME: &'static str = "snapshot";
    type Map<K: TKey, V: TxValue> = TMap<K, V>;
}

/// The per-node backend: a B-tree with one `TVar` per node
/// ([`TBTreeMap`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct BTreeFamily;

impl MapFamily for BTreeFamily {
    const NAME: &'static str = "btree";
    type Map<K: TKey, V: TxValue> = TBTreeMap<K, V>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubic_stm::Stm;

    fn exercise<F: MapFamily>() {
        let stm = Stm::default();
        let m: F::Map<u64, u64> = F::new_map();
        assert!(stm.atomically(|tx| m.is_empty(tx)));
        assert_eq!(stm.atomically(|tx| m.insert(tx, 2, 20)), None);
        assert_eq!(stm.atomically(|tx| m.insert(tx, 1, 10)), None);
        assert_eq!(stm.atomically(|tx| m.insert(tx, 2, 22)), Some(20));
        // `edit`, arm by arm: put on a miss, put on a hit, keep, remove.
        let bump = |held: Option<&u64>| (Edit::Put(held.map_or(1, |v| v + 1)), held.copied());
        assert_eq!(stm.atomically(|tx| m.edit(tx, &3, bump)), None);
        assert_eq!(stm.atomically(|tx| m.edit(tx, &3, bump)), Some(1));
        let writes = stm.stats().writes();
        let peek = |held: Option<&u64>| (Edit::Keep, held.copied());
        assert_eq!(stm.atomically(|tx| m.edit(tx, &3, peek)), Some(2));
        assert_eq!(stm.atomically(|tx| m.edit(tx, &4, peek)), None);
        let take = |held: Option<&u64>| (Edit::Remove, held.copied());
        assert_eq!(stm.atomically(|tx| m.edit(tx, &4, take)), None);
        assert_eq!(
            stm.stats().writes(),
            writes,
            "keep and a miss write nothing"
        );
        assert_eq!(stm.atomically(|tx| m.insert(tx, 4, 40)), None);
        assert_eq!(stm.atomically(|tx| m.edit(tx, &4, take)), Some(40));
        assert_eq!(stm.atomically(|tx| m.get(tx, &1)), Some(10));
        assert!(stm.atomically(|tx| m.contains(tx, &2)));
        assert_eq!(stm.atomically(|tx| m.len(tx)), 3);
        assert_eq!(
            stm.atomically(|tx| m.entries(tx)),
            vec![(1, 10), (2, 22), (3, 2)]
        );
        assert_eq!(m.snapshot_entries(), vec![(1, 10), (2, 22), (3, 2)]);
        assert_eq!(stm.atomically(|tx| m.remove(tx, &2)), Some(22));
        assert_eq!(stm.atomically(|tx| m.remove(tx, &2)), None);
        assert_eq!(m.check_invariants(), Ok(2));
    }

    #[test]
    fn snapshot_family_satisfies_contract() {
        exercise::<SnapshotFamily>();
    }

    #[test]
    fn btree_family_satisfies_contract() {
        exercise::<BTreeFamily>();
    }

    #[test]
    fn family_names_match_bench_axis() {
        assert_eq!(SnapshotFamily::NAME, "snapshot");
        assert_eq!(BTreeFamily::NAME, "btree");
    }
}
