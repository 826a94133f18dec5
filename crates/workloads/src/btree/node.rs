//! B-tree node representation and occupancy rules.
//!
//! A node is a plain value (`Clone + Send + Sync`) published through a
//! `TVar`, so all mutation is copy-on-write inside the writing
//! transaction: read the node, build the modified copy, `tx.write` it
//! back. Child links are `TVar` *handles* (`Arc`-backed), cheap to
//! clone and stable across republishes of the child's contents.
//!
//! The tree is a B+-tree: values live only in leaves; branches carry
//! separator keys. Separator `seps[i]` is the minimum key of subtree
//! `kids[i + 1]`, so a lookup descends into
//! `kids[partition_point(sep <= key)]`.

use rubic_stm::{TVar, TxValue};

use crate::mapapi::TKey;

/// Maximum entries per leaf (the leaf fanout).
///
/// Tuned when the tree was introduced (CHANGES.md; DESIGN.md §16): 32
/// keeps a 4096-element tree at depth 3 (root → branch → leaf, ~170
/// leaves at the ~3/4-full steady state), so a lookup is 3 validated
/// reads and an update's access set (3 reads + 1 leaf write) stays on
/// the access-set index's inline path. At 16 the same tree is depth 4 — one more
/// protocol read on every descent cost ~25 % of read-only throughput —
/// while the wider leaf's copy-on-write clone (32 entries, one memcpy)
/// costs nothing measurable on the write-heavy mix.
pub const MAX_LEAF: usize = 32;
/// Minimum entries per non-root leaf.
pub const MIN_LEAF: usize = MAX_LEAF / 2;
/// Maximum separators per branch (branch fanout = `MAX_SEPS + 1` = 16).
pub const MAX_SEPS: usize = 15;
/// Minimum separators per non-root branch.
pub const MIN_SEPS: usize = MAX_SEPS.div_ceil(2) - 1;

/// A `TVar`-published handle to one node.
pub type NodeVar<K, V> = TVar<Node<K, V>>;

/// One B+-tree node.
#[derive(Debug, Clone)]
pub enum Node<K: TKey, V: TxValue> {
    /// A leaf: sorted `(key, value)` entries.
    Leaf(Vec<(K, V)>),
    /// An interior node: sorted separator keys and `seps.len() + 1`
    /// child handles.
    Branch {
        /// Separator keys; `seps[i]` is the least key reachable through
        /// `kids[i + 1]`.
        seps: Vec<K>,
        /// Child handles.
        kids: Vec<NodeVar<K, V>>,
    },
}

impl<K: TKey, V: TxValue> Node<K, V> {
    /// An empty leaf — the initial root.
    #[must_use]
    pub fn empty() -> Self {
        Node::Leaf(Vec::new())
    }

    /// Index of the child subtree a search for `key` descends into.
    /// Keys equal to a separator live in the subtree to its right.
    #[must_use]
    pub fn child_index(seps: &[K], key: &K) -> usize {
        seps.partition_point(|s| s <= key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn occupancy_constants_are_consistent() {
        assert!(MIN_LEAF * 2 <= MAX_LEAF);
        assert!(MIN_SEPS * 2 <= MAX_SEPS);
        // A split of an overflowed node leaves both halves legal.
        assert!(MAX_LEAF.div_ceil(2) >= MIN_LEAF);
        assert!(MAX_SEPS.div_ceil(2) > MIN_SEPS);
        // A merge of a minimal node with an underfull sibling fits.
        assert!(MIN_LEAF + MIN_LEAF - 1 <= MAX_LEAF);
        assert!(MIN_SEPS + MIN_SEPS <= MAX_SEPS); // + 1 pulled-down sep
    }

    #[test]
    fn child_index_routes_equal_keys_right() {
        let seps = vec![10u64, 20, 30];
        assert_eq!(Node::<u64, u64>::child_index(&seps, &5), 0);
        assert_eq!(Node::<u64, u64>::child_index(&seps, &10), 1);
        assert_eq!(Node::<u64, u64>::child_index(&seps, &15), 1);
        assert_eq!(Node::<u64, u64>::child_index(&seps, &30), 3);
        assert_eq!(Node::<u64, u64>::child_index(&seps, &99), 3);
    }
}
