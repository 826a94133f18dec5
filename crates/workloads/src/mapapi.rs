//! The transactional ordered-map contract.
//!
//! [`TOrdMap`] names the operations the workloads' maps offer and
//! [`Edit`] is what a [`TOrdMap::edit`] closure decides. The crate's
//! one implementor is the per-node B-tree
//! ([`TBTreeMap`](crate::btree::TBTreeMap)): a transaction's conflict
//! footprint is the O(log n) root-to-leaf path it touched, so updates
//! on disjoint subtrees commute.

use rubic_stm::{Transaction, TxResult, TxValue};

/// Key bound for transactional maps.
pub trait TKey: Ord + Clone + Send + Sync + 'static {}
impl<K: Ord + Clone + Send + Sync + 'static> TKey for K {}

/// What a [`TOrdMap::edit`] closure decides for the entry under its key.
#[derive(Debug, Clone)]
pub enum Edit<V> {
    /// Leave the map as it is.
    Keep,
    /// Store this value under the key, inserting or replacing.
    Put(V),
    /// Drop the entry (a no-op when the key is absent).
    Remove,
}

/// The transactional ordered-map operations contract.
///
/// All transactional methods take the transaction first and propagate
/// conflicts through `TxResult`; the two non-transactional methods
/// (`snapshot_entries`, `check_invariants`) are for quiescent
/// inspection in tests and monitoring, with the same caveat as
/// [`rubic_stm::TVar::snapshot`]: they are only a consistent view when
/// no writer is concurrently committing.
pub trait TOrdMap<K: TKey, V: TxValue>: Clone + Send + Sync + 'static {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::TBTreeMap;
    use rubic_stm::Stm;

    #[test]
    fn tbtree_satisfies_contract() {
        let stm = Stm::default();
        let m: TBTreeMap<u64, u64> = TBTreeMap::new();
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
}
