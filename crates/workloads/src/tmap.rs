//! `TMap` — a transactional ordered map.
//!
//! Couples the persistent B+-tree ([`crate::pers::PMap`]) with a single
//! `TVar`: a transactional look-up is one validated read of that cell
//! and a pure descent through the immutable snapshot it holds (nothing
//! is cloned but the value found), and an update path-copies the
//! snapshot and writes the new one back. Structural sharing keeps an
//! update at one small allocation per tree level.
//!
//! What the single cell buys (DESIGN.md §2b, §16): a look-up's read set
//! is one entry however deep the tree is, and the whole map can be
//! captured in O(1) ([`TMap::read_snapshot`]) for bulk reads that must
//! be consistent with the rest of the transaction. What it costs:
//! look-ups *validate* against the root `TVar` and can therefore abort
//! when any update to the same map commits concurrently — they are
//! write-free, not conflict-free (a declared
//! [`rubic_stm::Stm::read_only`] look-up runs the same protocol; its
//! aborts are counted as `ro_aborts`). Updates always serialise on the
//! map's single root `TVar` — the snapshot-map discipline standard for
//! immutable-value STMs (Haskell/Clojure lineage) — which makes every
//! update conflict with every other update on the same map, regardless
//! of key. For the
//! opposite trade-off see [`crate::btree::TBTreeMap`]: one `TVar` per
//! node, so a transaction's footprint is only the O(log n) path it
//! touched and updates on disjoint subtrees commute. Both implement
//! [`crate::mapapi::TOrdMap`], so workloads generic over
//! [`crate::mapapi::MapFamily`] can swap them freely.
//!
//! Values are cloned whenever their leaf is copied, so keep them O(1)
//! to clone (see [`crate::pers`]).

use rubic_stm::{TVar, Transaction, TxResult, TxValue};

use crate::mapapi::TOrdMap;
use crate::pers::{Edit, PMap};

/// Key bound for transactional maps.
pub trait TKey: Ord + Clone + Send + Sync + 'static {}
impl<K: Ord + Clone + Send + Sync + 'static> TKey for K {}

/// A transactional ordered map.
///
/// ```
/// use rubic_stm::Stm;
/// use rubic_workloads::tmap::TMap;
///
/// let stm = Stm::default();
/// let m: TMap<u64, u64> = TMap::new();
/// stm.atomically(|tx| m.insert(tx, 7, 70));
/// let v = stm.atomically(|tx| m.get(tx, &7));
/// assert_eq!(v, Some(70));
/// ```
pub struct TMap<K: TKey, V: TxValue> {
    cell: TVar<PMap<K, V>>,
}

impl<K: TKey, V: TxValue> TMap<K, V> {
    /// Creates an empty transactional map.
    #[must_use]
    pub fn new() -> Self {
        TMap {
            cell: TVar::new(PMap::new()),
        }
    }

    /// Creates an empty map whose snapshot cell carries a trace label,
    /// so contention tables and post-mortems name it (no-op without the
    /// `trace` feature).
    #[must_use]
    pub fn labelled(label: &str) -> Self {
        TMap {
            cell: TVar::labelled(PMap::new(), label),
        }
    }

    /// Looks up `key` within `tx`.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    pub fn get(&self, tx: &mut Transaction, key: &K) -> TxResult<Option<V>> {
        tx.read_with(&self.cell, |m| m.get(key).cloned())
    }

    /// Membership test within `tx`.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    pub fn contains(&self, tx: &mut Transaction, key: &K) -> TxResult<bool> {
        tx.read_with(&self.cell, |m| m.contains(key))
    }

    /// Inserts `key → value`; returns the previous value if present.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    pub fn insert(&self, tx: &mut Transaction, key: K, value: V) -> TxResult<Option<V>> {
        self.edit(tx, &key, |held| (Edit::Put(value), held.cloned()))
    }

    /// Removes `key`; returns the removed value if present. A no-op
    /// removal writes nothing (and takes part in none of the W/W
    /// serialisation a write implies) — a big deal for delete-heavy
    /// mixes on sparse key ranges.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    pub fn remove(&self, tx: &mut Transaction, key: &K) -> TxResult<Option<V>> {
        self.edit(tx, key, |held| (Edit::Remove, held.cloned()))
    }

    /// Runs `f` once on the entry under `key` and applies what it
    /// decides (see [`TOrdMap::edit`]): one read of the cell, one
    /// descent, one path copy, and a write only when the map changed.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    pub fn edit<R>(
        &self,
        tx: &mut Transaction,
        key: &K,
        f: impl FnOnce(Option<&V>) -> (Edit<V>, R),
    ) -> TxResult<R> {
        let (next, out) = tx.read(&self.cell)?.edit(key, f);
        if let Some(next) = next {
            tx.write(&self.cell, next)?;
        }
        Ok(out)
    }

    /// Number of entries within `tx`.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    pub fn len(&self, tx: &mut Transaction) -> TxResult<usize> {
        tx.read_with(&self.cell, PMap::len)
    }

    /// True when empty within `tx`.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    pub fn is_empty(&self, tx: &mut Transaction) -> TxResult<bool> {
        tx.read_with(&self.cell, PMap::is_empty)
    }

    /// Non-transactional consistent snapshot (monitoring/inspection).
    #[must_use]
    pub fn snapshot(&self) -> PMap<K, V> {
        self.cell.snapshot()
    }

    /// The map's persistent snapshot as observed by `tx` — for bulk
    /// reads (iteration, aggregation) that must be consistent with the
    /// rest of the transaction.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    pub fn read_snapshot(&self, tx: &mut Transaction) -> TxResult<PMap<K, V>> {
        tx.read(&self.cell)
    }
}

impl<K: TKey, V: TxValue> TOrdMap<K, V> for TMap<K, V> {
    fn empty() -> Self {
        TMap::new()
    }

    fn empty_labelled(label: &str) -> Self {
        TMap::labelled(label)
    }

    fn get(&self, tx: &mut Transaction, key: &K) -> TxResult<Option<V>> {
        TMap::get(self, tx, key)
    }

    fn contains(&self, tx: &mut Transaction, key: &K) -> TxResult<bool> {
        TMap::contains(self, tx, key)
    }

    fn edit<R>(
        &self,
        tx: &mut Transaction,
        key: &K,
        f: impl FnOnce(Option<&V>) -> (Edit<V>, R),
    ) -> TxResult<R> {
        TMap::edit(self, tx, key, f)
    }

    fn len(&self, tx: &mut Transaction) -> TxResult<usize> {
        TMap::len(self, tx)
    }

    fn is_empty(&self, tx: &mut Transaction) -> TxResult<bool> {
        TMap::is_empty(self, tx)
    }

    fn entries(&self, tx: &mut Transaction) -> TxResult<Vec<(K, V)>> {
        Ok(self.read_snapshot(tx)?.entries())
    }

    fn snapshot_entries(&self) -> Vec<(K, V)> {
        self.snapshot().entries()
    }

    fn check_invariants(&self) -> Result<usize, String> {
        // `PMap::check_invariants` returns the depth; the trait contract
        // wants the entry count.
        let snap = self.snapshot();
        snap.check_invariants()?;
        Ok(snap.len())
    }
}

impl<K: TKey, V: TxValue> Default for TMap<K, V> {
    fn default() -> Self {
        TMap::new()
    }
}

impl<K: TKey, V: TxValue> Clone for TMap<K, V> {
    /// Clones the *handle*: both handles address the same transactional
    /// map.
    fn clone(&self) -> Self {
        TMap {
            cell: self.cell.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubic_stm::Stm;
    use std::sync::Arc;

    #[test]
    fn insert_get_remove() {
        let stm = Stm::default();
        let m: TMap<u32, String> = TMap::new();
        assert_eq!(stm.atomically(|tx| m.insert(tx, 1, "one".into())), None);
        assert_eq!(
            stm.atomically(|tx| m.insert(tx, 1, "uno".into())),
            Some("one".to_string())
        );
        assert_eq!(stm.atomically(|tx| m.get(tx, &1)), Some("uno".to_string()));
        assert_eq!(
            stm.atomically(|tx| m.remove(tx, &1)),
            Some("uno".to_string())
        );
        assert_eq!(stm.atomically(|tx| m.get(tx, &1)), None);
    }

    #[test]
    fn remove_missing_avoids_write() {
        let stm = Stm::default();
        let m: TMap<u32, u32> = TMap::new();
        stm.atomically(|tx| m.insert(tx, 1, 1));
        let writes_before = stm.stats().writes();
        assert_eq!(stm.atomically(|tx| m.remove(tx, &99)), None);
        assert_eq!(
            stm.stats().writes(),
            writes_before,
            "no-op removal must not write"
        );
    }

    #[test]
    fn edit_reads_the_transactions_own_writes() {
        let stm = Stm::default();
        let m: TMap<u32, u64> = TMap::new();
        let bump = |held: Option<&u64>| (Edit::Put(held.map_or(1, |v| v + 1)), ());
        stm.atomically(|tx| {
            m.edit(tx, &5, bump)?;
            m.edit(tx, &5, bump)
        });
        assert_eq!(stm.atomically(|tx| m.get(tx, &5)), Some(2));
    }

    #[test]
    fn multi_map_transaction_is_atomic() {
        let stm = Stm::default();
        let a: TMap<u32, u32> = TMap::new();
        let b: TMap<u32, u32> = TMap::new();
        stm.atomically(|tx| {
            a.insert(tx, 1, 10)?;
            b.insert(tx, 1, 20)?;
            Ok(())
        });
        let (va, vb) = stm.atomically(|tx| Ok((a.get(tx, &1)?, b.get(tx, &1)?)));
        assert_eq!((va, vb), (Some(10), Some(20)));
    }

    #[test]
    fn concurrent_disjoint_key_inserts_all_land() {
        let stm = Stm::default();
        let m: Arc<TMap<u64, u64>> = Arc::new(TMap::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let stm = stm.clone();
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let key = t * 1000 + i;
                        stm.atomically(|tx| m.insert(tx, key, key));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = m.snapshot();
        assert_eq!(snap.len(), 400);
        snap.check_invariants().expect("tree invariants");
    }

    #[test]
    fn snapshot_len_matches_tx_len() {
        let stm = Stm::default();
        let m: TMap<u8, u8> = TMap::new();
        for k in 0..50 {
            stm.atomically(|tx| m.insert(tx, k, k));
        }
        assert_eq!(m.snapshot().len(), 50);
        assert_eq!(stm.atomically(|tx| m.len(tx)), 50);
        assert!(!stm.atomically(|tx| m.is_empty(tx)));
    }

    #[test]
    fn clone_shares_state() {
        let stm = Stm::default();
        let a: TMap<u8, u8> = TMap::new();
        let b = a.clone();
        stm.atomically(|tx| a.insert(tx, 1, 1));
        assert_eq!(stm.atomically(|tx| b.get(tx, &1)), Some(1));
    }
}
