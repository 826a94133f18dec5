//! `TBTreeMap` — a transactional B-tree with one `TVar` per node, the
//! crate's one ordered map (the [`TOrdMap`] implementor every workload
//! uses).
//!
//! A whole tree behind a single `TVar` would make every update conflict
//! with every other update — a scaling ceiling no controller can tune
//! away. Here each node lives behind its **own** `TVar`: a
//! transaction's conflict footprint is the O(log n) root-to-leaf path
//! it actually touched, so updates on disjoint subtrees commute and
//! readers on other subtrees never even validate against them.
//!
//! Every descent is one [`Transaction::read_path`]: each node is read
//! and recorded like any transactional read, but the step to the child
//! borrows the child's handle out of the node's value instead of
//! cloning it, so a look-up writes no handle count on its way down and
//! an `edit` clones exactly one handle, the leaf it writes.
//!
//! Splits and merges are copy-on-write *inside* the writing
//! transaction: a split builds the sibling in a freshly allocated
//! `TVar` (invisible to everyone until the parent write commits) and
//! rewrites the parent to link it; a height change rewrites the fixed
//! root `TVar`'s contents in place, so the map handle never changes.
//! Concurrent transactions see either the whole restructuring or none
//! of it — the STM's opacity guarantee, model-checked in
//! `rubic-check`'s `btree` split/merge model.
//!
//! Why this is safe against "lost" structural updates: every descent
//! records each path node in the transaction's read set, and every
//! structural change rewrites the parent of the node it moves. Two
//! transactions that disagree about the tree shape therefore overlap on
//! at least one `TVar` (the deepest common path node that changed), and
//! validation aborts one of them.

pub mod node;

use std::sync::Arc;

use rubic_stm::{Step, TVar, Transaction, TxResult, TxValue};

use crate::mapapi::{Edit, TKey, TOrdMap};

use node::{Node, NodeVar, MAX_LEAF, MAX_SEPS, MIN_LEAF, MIN_SEPS};

/// A transactional ordered map with a per-node conflict footprint.
///
/// ```
/// use rubic_stm::Stm;
/// use rubic_workloads::btree::TBTreeMap;
/// use rubic_workloads::mapapi::TOrdMap;
///
/// let stm = Stm::default();
/// let m: TBTreeMap<u64, u64> = TBTreeMap::new();
/// stm.atomically(|tx| m.insert(tx, 7, 70));
/// let v = stm.atomically(|tx| m.get(tx, &7));
/// assert_eq!(v, Some(70));
/// ```
pub struct TBTreeMap<K: TKey, V: TxValue> {
    /// The fixed root handle. Height changes rewrite its *contents*;
    /// the handle itself never changes, so clones of the map stay
    /// valid.
    root: NodeVar<K, V>,
    /// Base trace label; interior nodes created by splits are labelled
    /// `{label}/node@d{depth}`.
    label: Option<Arc<str>>,
}

/// What a traversal read out of one node.
enum Walk<K: TKey, V: TxValue> {
    Entries(Vec<(K, V)>),
    Kids(Vec<NodeVar<K, V>>),
}

impl<K: TKey, V: TxValue> TBTreeMap<K, V> {
    /// Creates an empty transactional B-tree.
    #[must_use]
    pub fn new() -> Self {
        Self::from_sorted(None, [])
    }

    /// Creates an empty B-tree whose root (and every node a split later
    /// creates) carries a trace label derived from `label`, so PR 7's
    /// contention table and post-mortem bundles name hot nodes (e.g.
    /// `vacation.flights/node@d2`) instead of raw lock addresses.
    #[must_use]
    pub fn labelled(label: &str) -> Self {
        Self::from_sorted(Some(label), [])
    }

    /// Builds a tree holding `rows` bottom-up, outside any transaction:
    /// every node as full as `MAX_LEAF` / `MAX_SEPS` allow, each level's
    /// entries or children split evenly, so every non-root node meets
    /// `MIN_LEAF` / `MIN_SEPS` and the leaf depth is the least that
    /// holds `rows`. Labelled like [`labelled`](Self::labelled)'s, with
    /// each node named after its depth.
    ///
    /// # Panics
    /// If the keys are not strictly increasing.
    #[must_use]
    pub fn from_sorted(label: Option<&str>, rows: impl IntoIterator<Item = (K, V)>) -> Self {
        let entries: Vec<(K, V)> = rows.into_iter().collect();
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "TBTreeMap::from_sorted: keys are not strictly increasing"
        );
        let mut height = 0;
        let (mut nodes, mut fanout) = (entries.len(), MAX_LEAF);
        while nodes > fanout {
            nodes = nodes.div_ceil(fanout);
            fanout = MAX_SEPS + 1;
            height += 1;
        }
        // A stand-in root until the top node exists: `alloc` labels from
        // the map, so the map comes first.
        let mut map = TBTreeMap {
            root: TVar::new(Node::empty()),
            label: label.map(Arc::from),
        };
        let top = if height == 0 {
            Node::Leaf(entries)
        } else {
            // `(least key, node)` per node of the level being linked up.
            let mut level: Vec<(K, Node<K, V>)> = split_evenly(entries, MAX_LEAF)
                .into_iter()
                .map(|leaf| (leaf[0].0.clone(), Node::Leaf(leaf)))
                .collect();
            for depth in (1..=height).rev() {
                let vars: Vec<(K, NodeVar<K, V>)> = level
                    .into_iter()
                    .map(|(least, node)| (least, map.alloc(node, depth)))
                    .collect();
                level = split_evenly(vars, MAX_SEPS + 1)
                    .into_iter()
                    .map(|group| {
                        let (mut seps, kids): (Vec<K>, Vec<_>) = group.into_iter().unzip();
                        let least = seps.remove(0);
                        (least, Node::Branch { seps, kids })
                    })
                    .collect();
            }
            level.pop().expect("the top level is one node").1
        };
        map.root = match label {
            Some(l) => TVar::labelled(top, &format!("{l}/root")),
            None => TVar::new(top),
        };
        map
    }

    /// The root node's variable, fixed for the map's life (inspection:
    /// versions, handle counts, the nodes below it).
    #[must_use]
    pub fn root(&self) -> &NodeVar<K, V> {
        &self.root
    }

    /// Allocates a node `TVar`, labelling it with its creation depth
    /// when the map is labelled.
    fn alloc(&self, node: Node<K, V>, depth: usize) -> NodeVar<K, V> {
        match &self.label {
            Some(l) => TVar::labelled(node, &format!("{l}/node@d{depth}")),
            None => TVar::new(node),
        }
    }

    /// Descends from the root to the leaf owning `key` and hands `at_leaf`
    /// the leaf's variable and entries. One borrowed descent: every node
    /// on the path lands in the read set — that is the conflict
    /// footprint — and no handle is cloned on the way down.
    fn descend<R>(
        &self,
        tx: &mut Transaction,
        key: &K,
        mut at_leaf: impl FnMut(&NodeVar<K, V>, &[(K, V)]) -> R,
    ) -> TxResult<R> {
        tx.read_path(&self.root, |var, node| match node {
            Node::Branch { seps, kids } => Step::Child(&kids[Node::<K, V>::child_index(seps, key)]),
            Node::Leaf(entries) => Step::Done(at_leaf(var, entries)),
        })
    }

    /// The branch path from the root to `key`'s leaf as `(node, child
    /// index)` pairs, for a structural change only. The descent already
    /// recorded every node on it, so these are repeated reads: they
    /// validate against the read set and add nothing to the footprint.
    #[allow(clippy::type_complexity)]
    fn path_to(&self, tx: &mut Transaction, key: &K) -> TxResult<Vec<(NodeVar<K, V>, usize)>> {
        let mut path = Vec::new();
        let mut cur = self.root.clone();
        while let Some((i, kid)) = tx.read_with(&cur, |n| match n {
            Node::Branch { seps, kids } => {
                let i = Node::<K, V>::child_index(seps, key);
                Some((i, kids[i].clone()))
            }
            Node::Leaf(_) => None,
        })? {
            path.push((std::mem::replace(&mut cur, kid), i));
        }
        Ok(path)
    }

    /// Reads `var` as the branch the descent proved it to be.
    #[allow(clippy::type_complexity)]
    fn read_branch(
        tx: &mut Transaction,
        var: &NodeVar<K, V>,
    ) -> TxResult<(Vec<K>, Vec<NodeVar<K, V>>)> {
        match tx.read(var)? {
            Node::Branch { seps, kids } => Ok((seps, kids)),
            Node::Leaf(_) => unreachable!("descent recorded a leaf as a branch"),
        }
    }

    /// Copies the entries of the leaf the descent just read, for a
    /// writing `edit`: a repeated read, which by the read log's invariant
    /// sees what the descent saw, or aborts.
    fn read_leaf(tx: &mut Transaction, leaf: &NodeVar<K, V>) -> TxResult<Vec<(K, V)>> {
        match tx.read(leaf)? {
            Node::Leaf(entries) => Ok(entries),
            Node::Branch { .. } => unreachable!("descent recorded a branch as a leaf"),
        }
    }

    /// Inserts after an overflow: splits the leaf, then bubbles the
    /// split up the recorded path, copy-on-write at every level. Fresh
    /// sibling `TVar`s stay private until the commit publishes the
    /// parent that links them.
    fn split_up(
        &self,
        tx: &mut Transaction,
        leaf: &NodeVar<K, V>,
        mut entries: Vec<(K, V)>,
        mut path: Vec<(NodeVar<K, V>, usize)>,
    ) -> TxResult<()> {
        let right_entries = entries.split_off(entries.len() / 2);
        let mut sep = right_entries[0].0.clone();
        let leaf_depth = if path.is_empty() { 1 } else { path.len() };
        let mut right = self.alloc(Node::Leaf(right_entries), leaf_depth);
        if path.is_empty() {
            // The root itself was the overflowing leaf: grow the tree
            // by rewriting the root contents as a 2-child branch.
            let left = self.alloc(Node::Leaf(entries), 1);
            tx.write(
                &self.root,
                Node::Branch {
                    seps: vec![sep],
                    kids: vec![left, right],
                },
            )?;
            return Ok(());
        }
        tx.write(leaf, Node::Leaf(entries))?;
        loop {
            let (pvar, idx) = path.pop().expect("split_up loop owns a non-empty path");
            let (mut seps, mut kids) = Self::read_branch(tx, &pvar)?;
            seps.insert(idx, sep);
            kids.insert(idx + 1, right);
            if seps.len() <= MAX_SEPS {
                tx.write(&pvar, Node::Branch { seps, kids })?;
                return Ok(());
            }
            // Branch overflow: split around the median separator.
            let mid = seps.len() / 2;
            let right_seps = seps.split_off(mid + 1);
            let promoted = seps.pop().expect("median separator");
            let right_kids = kids.split_off(mid + 1);
            let depth = path.len();
            let new_right = self.alloc(
                Node::Branch {
                    seps: right_seps,
                    kids: right_kids,
                },
                depth,
            );
            if path.is_empty() {
                // Splitting the root branch: grow in place.
                let left = self.alloc(Node::Branch { seps, kids }, depth + 1);
                tx.write(
                    &self.root,
                    Node::Branch {
                        seps: vec![promoted],
                        kids: vec![left, new_right],
                    },
                )?;
                return Ok(());
            }
            tx.write(&pvar, Node::Branch { seps, kids })?;
            sep = promoted;
            right = new_right;
        }
    }

    /// Repairs the underfull child at `kids[idx]` of the branch `pvar`
    /// by borrowing from an adjacent sibling when it has spare
    /// occupancy, or merging with it otherwise (orphaning one `TVar`
    /// for the epoch reclaimer). Returns whether `pvar` itself is now
    /// underfull.
    fn rebalance(&self, tx: &mut Transaction, pvar: &NodeVar<K, V>, idx: usize) -> TxResult<bool> {
        let (mut seps, mut kids) = Self::read_branch(tx, pvar)?;
        // Work on the (left, right) adjacent pair containing the
        // underfull child; `sep_at` separates them in the parent.
        let (li, sep_at) = if idx > 0 { (idx - 1, idx - 1) } else { (0, 0) };
        let left_var = kids[li].clone();
        let right_var = kids[li + 1].clone();
        let merged = match (tx.read(&left_var)?, tx.read(&right_var)?) {
            (Node::Leaf(mut l), Node::Leaf(mut r)) => {
                if idx > 0 && l.len() > MIN_LEAF {
                    // Borrow the left sibling's last entry.
                    let e = l.pop().expect("non-empty donor");
                    seps[sep_at] = e.0.clone();
                    r.insert(0, e);
                    tx.write(&left_var, Node::Leaf(l))?;
                    tx.write(&right_var, Node::Leaf(r))?;
                    false
                } else if idx == 0 && r.len() > MIN_LEAF {
                    // Borrow the right sibling's first entry.
                    let e = r.remove(0);
                    l.push(e);
                    seps[sep_at] = r[0].0.clone();
                    tx.write(&left_var, Node::Leaf(l))?;
                    tx.write(&right_var, Node::Leaf(r))?;
                    false
                } else {
                    // Merge right into left; `right_var` becomes
                    // unreachable and is reclaimed with the old parent
                    // version by the epoch GC.
                    l.append(&mut r);
                    tx.write(&left_var, Node::Leaf(l))?;
                    true
                }
            }
            (
                Node::Branch {
                    seps: mut ls,
                    kids: mut lk,
                },
                Node::Branch {
                    seps: mut rs,
                    kids: mut rk,
                },
            ) => {
                if idx > 0 && ls.len() > MIN_SEPS {
                    // Rotate right through the parent separator.
                    rs.insert(0, seps[sep_at].clone());
                    rk.insert(0, lk.pop().expect("donor child"));
                    seps[sep_at] = ls.pop().expect("donor separator");
                    tx.write(&left_var, Node::Branch { seps: ls, kids: lk })?;
                    tx.write(&right_var, Node::Branch { seps: rs, kids: rk })?;
                    false
                } else if idx == 0 && rs.len() > MIN_SEPS {
                    // Rotate left through the parent separator.
                    ls.push(seps[sep_at].clone());
                    lk.push(rk.remove(0));
                    seps[sep_at] = rs.remove(0);
                    tx.write(&left_var, Node::Branch { seps: ls, kids: lk })?;
                    tx.write(&right_var, Node::Branch { seps: rs, kids: rk })?;
                    false
                } else {
                    // Merge: left ++ pulled-down separator ++ right.
                    ls.push(seps[sep_at].clone());
                    ls.append(&mut rs);
                    lk.append(&mut rk);
                    tx.write(&left_var, Node::Branch { seps: ls, kids: lk })?;
                    true
                }
            }
            _ => unreachable!("siblings at the same depth share a kind"),
        };
        if merged {
            seps.remove(sep_at);
            kids.remove(li + 1);
        }
        let underfull = seps.len() < MIN_SEPS;
        tx.write(pvar, Node::Branch { seps, kids })?;
        Ok(merged && underfull)
    }

    /// Shrinks the tree when the root branch is down to a single child:
    /// pulls that child's contents up into the root `TVar`.
    fn collapse_root(&self, tx: &mut Transaction) -> TxResult<()> {
        let lone = tx.read_with(&self.root, |n| match n {
            Node::Branch { seps, kids } if seps.is_empty() => Some(kids[0].clone()),
            _ => None,
        })?;
        if let Some(child) = lone {
            let pulled = tx.read(&child)?;
            tx.write(&self.root, pulled)?;
        }
        Ok(())
    }

    /// Walks the subtree under `var` in key order, appending leaf
    /// entries to `out`.
    fn collect(
        &self,
        tx: &mut Transaction,
        var: &NodeVar<K, V>,
        out: &mut Vec<(K, V)>,
    ) -> TxResult<()> {
        // The closure only *returns* data (it may re-run on validation
        // retries); mutation of `out` happens outside it.
        let walk = tx.read_with(var, |n| match n {
            Node::Leaf(entries) => Walk::Entries(entries.clone()),
            Node::Branch { kids, .. } => Walk::Kids(kids.clone()),
        })?;
        match walk {
            Walk::Entries(mut entries) => out.append(&mut entries),
            Walk::Kids(kids) => {
                for kid in &kids {
                    self.collect(tx, kid, out)?;
                }
            }
        }
        Ok(())
    }

    /// Counts entries under `var` without cloning values.
    fn count(&self, tx: &mut Transaction, var: &NodeVar<K, V>) -> TxResult<usize> {
        enum Tally<K: TKey, V: TxValue> {
            Leaf(usize),
            Kids(Vec<NodeVar<K, V>>),
        }
        let tally = tx.read_with(var, |n| match n {
            Node::Leaf(entries) => Tally::Leaf(entries.len()),
            Node::Branch { kids, .. } => Tally::Kids(kids.clone()),
        })?;
        match tally {
            Tally::Leaf(n) => Ok(n),
            Tally::Kids(kids) => {
                let mut sum = 0;
                for kid in &kids {
                    sum += self.count(tx, kid)?;
                }
                Ok(sum)
            }
        }
    }

    /// Non-transactional in-order walk (quiescent inspection only —
    /// the per-node snapshots are individually consistent but not
    /// mutually, exactly the [`TVar::snapshot`] caveat).
    fn snapshot_collect(var: &NodeVar<K, V>, out: &mut Vec<(K, V)>) {
        match var.snapshot() {
            Node::Leaf(mut entries) => out.append(&mut entries),
            Node::Branch { kids, .. } => {
                for kid in &kids {
                    Self::snapshot_collect(kid, out);
                }
            }
        }
    }

    /// Checks structural invariants under `var`: key ordering within
    /// `bounds`, node occupancy, separator/child arity, and uniform
    /// leaf depth. Returns `(entry count, leaf depth)`.
    fn check_node(
        var: &NodeVar<K, V>,
        depth: usize,
        bounds: (Option<&K>, Option<&K>),
        is_root: bool,
    ) -> Result<(usize, usize), String> {
        let (lo, hi) = bounds;
        let in_bounds = |k: &K| lo.is_none_or(|l| l <= k) && hi.is_none_or(|h| k < h);
        match var.snapshot() {
            Node::Leaf(entries) => {
                if !is_root && entries.len() < MIN_LEAF {
                    return Err(format!(
                        "leaf at depth {depth} underfull: {} < {MIN_LEAF}",
                        entries.len()
                    ));
                }
                if entries.len() > MAX_LEAF {
                    return Err(format!(
                        "leaf at depth {depth} overfull: {} > {MAX_LEAF}",
                        entries.len()
                    ));
                }
                if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
                    return Err(format!("leaf at depth {depth} keys not strictly sorted"));
                }
                if !entries.iter().all(|(k, _)| in_bounds(k)) {
                    return Err(format!(
                        "leaf at depth {depth} key outside separator bounds"
                    ));
                }
                Ok((entries.len(), depth))
            }
            Node::Branch { seps, kids } => {
                if kids.len() != seps.len() + 1 {
                    return Err(format!(
                        "branch at depth {depth}: {} kids for {} seps",
                        kids.len(),
                        seps.len()
                    ));
                }
                if seps.is_empty() {
                    return Err(format!("branch at depth {depth} has no separators"));
                }
                if !is_root && seps.len() < MIN_SEPS {
                    return Err(format!(
                        "branch at depth {depth} underfull: {} < {MIN_SEPS}",
                        seps.len()
                    ));
                }
                if seps.len() > MAX_SEPS {
                    return Err(format!(
                        "branch at depth {depth} overfull: {} > {MAX_SEPS}",
                        seps.len()
                    ));
                }
                if !seps.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("branch at depth {depth} seps not strictly sorted"));
                }
                if !seps.iter().all(&in_bounds) {
                    return Err(format!(
                        "branch at depth {depth} separator outside parent bounds"
                    ));
                }
                let mut total = 0;
                let mut leaf_depth = None;
                for (i, kid) in kids.iter().enumerate() {
                    let lo = if i == 0 { lo } else { Some(&seps[i - 1]) };
                    let hi = if i == seps.len() { hi } else { Some(&seps[i]) };
                    let (n, d) = Self::check_node(kid, depth + 1, (lo, hi), false)?;
                    total += n;
                    if *leaf_depth.get_or_insert(d) != d {
                        return Err(format!(
                            "leaves at unequal depths under branch at depth {depth}"
                        ));
                    }
                }
                Ok((total, leaf_depth.expect("branch has children")))
            }
        }
    }

    /// Checks all B-tree invariants on a quiescent map; returns
    /// `(entry count, leaf depth)` on success.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn check_shape(&self) -> Result<(usize, usize), String> {
        Self::check_node(&self.root, 0, (None, None), true)
    }
}

/// `items` in `len.div_ceil(cap)` consecutive groups whose sizes differ
/// by at most one.
fn split_evenly<T>(items: Vec<T>, cap: usize) -> Vec<Vec<T>> {
    let groups = items.len().div_ceil(cap);
    let (base, extra) = (items.len() / groups, items.len() % groups);
    let mut rest = items.into_iter();
    (0..groups)
        .map(|g| rest.by_ref().take(base + usize::from(g < extra)).collect())
        .collect()
}

impl<K: TKey, V: TxValue> TOrdMap<K, V> for TBTreeMap<K, V> {
    fn get(&self, tx: &mut Transaction, key: &K) -> TxResult<Option<V>> {
        self.descend(tx, key, |_, entries| {
            entries
                .binary_search_by(|(k, _)| k.cmp(key))
                .ok()
                .map(|i| entries[i].1.clone())
        })
    }

    fn contains(&self, tx: &mut Transaction, key: &K) -> TxResult<bool> {
        Ok(self.get(tx, key)?.is_some())
    }

    fn edit<R>(
        &self,
        tx: &mut Transaction,
        key: &K,
        f: impl FnOnce(Option<&V>) -> (Edit<V>, R),
    ) -> TxResult<R> {
        // The one handle an edit clones: the leaf it may write. The
        // descent copies out only the entry `f` looks at.
        let (leaf, found, held) = self.descend(tx, key, |var, entries| {
            let found = entries.binary_search_by(|(k, _)| k.cmp(key));
            (var.clone(), found, found.ok().map(|i| entries[i].1.clone()))
        })?;
        let (decision, out) = f(held.as_ref());
        match (decision, found) {
            (Edit::Put(value), Ok(i)) => {
                // Replacement never changes occupancy: one leaf write.
                let mut entries = Self::read_leaf(tx, &leaf)?;
                entries[i].1 = value;
                tx.write(&leaf, Node::Leaf(entries))?;
            }
            (Edit::Put(value), Err(i)) => {
                let mut entries = Self::read_leaf(tx, &leaf)?;
                entries.insert(i, (key.clone(), value));
                if entries.len() <= MAX_LEAF {
                    tx.write(&leaf, Node::Leaf(entries))?;
                } else {
                    let path = self.path_to(tx, key)?;
                    self.split_up(tx, &leaf, entries, path)?;
                }
            }
            (Edit::Remove, Ok(i)) => {
                let mut entries = Self::read_leaf(tx, &leaf)?;
                entries.remove(i);
                let underfull = entries.len() < MIN_LEAF && !leaf.ptr_eq(&self.root);
                tx.write(&leaf, Node::Leaf(entries))?;
                if underfull {
                    let mut path = self.path_to(tx, key)?;
                    // Rebalance bottom-up while merges leave the parent
                    // underfull; only a merge into the root can leave it
                    // with one child to pull up.
                    while let Some((pvar, idx)) = path.pop() {
                        if !self.rebalance(tx, &pvar, idx)? {
                            break;
                        }
                        if path.is_empty() {
                            self.collapse_root(tx)?;
                        }
                    }
                }
            }
            // Zero writes and no copy of the leaf, so keeps and no-op
            // removals on disjoint keys never conflict with each other.
            (Edit::Keep, _) | (Edit::Remove, Err(_)) => {}
        }
        Ok(out)
    }

    fn len(&self, tx: &mut Transaction) -> TxResult<usize> {
        self.count(tx, &self.root)
    }

    fn entries(&self, tx: &mut Transaction) -> TxResult<Vec<(K, V)>> {
        let mut out = Vec::new();
        self.collect(tx, &self.root, &mut out)?;
        Ok(out)
    }

    fn snapshot_entries(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        Self::snapshot_collect(&self.root, &mut out);
        out
    }

    fn check_invariants(&self) -> Result<usize, String> {
        self.check_shape().map(|(len, _)| len)
    }
}

impl<K: TKey, V: TxValue> Default for TBTreeMap<K, V> {
    fn default() -> Self {
        TBTreeMap::new()
    }
}

impl<K: TKey, V: TxValue> Clone for TBTreeMap<K, V> {
    /// Clones the *handle*: both handles address the same tree.
    fn clone(&self) -> Self {
        TBTreeMap {
            root: self.root.clone(),
            label: self.label.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubic_stm::Stm;

    fn filled(stm: &Stm, n: u64) -> TBTreeMap<u64, u64> {
        let m = TBTreeMap::new();
        for k in 0..n {
            // Scatter the insertion order so splits happen everywhere.
            let k = (k * 2_654_435_761) % n;
            stm.atomically(|tx| m.insert(tx, k, k * 10));
        }
        m
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let stm = Stm::default();
        let m: TBTreeMap<u32, String> = TBTreeMap::new();
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
    fn grows_through_splits_and_keeps_shape() {
        let stm = Stm::default();
        let m = filled(&stm, 2000);
        let (len, depth) = m.check_shape().expect("btree invariants");
        assert_eq!(len, 2000);
        assert!(depth >= 2, "2000 entries must have split: depth {depth}");
        assert_eq!(stm.atomically(|tx| m.len(tx)), 2000);
        for k in (0..2000).step_by(97) {
            assert_eq!(stm.atomically(|tx| m.get(tx, &k)), Some(k * 10));
        }
    }

    #[test]
    fn shrinks_through_merges_back_to_a_leaf() {
        let stm = Stm::default();
        let m = filled(&stm, 1000);
        for k in 0..1000 {
            assert_eq!(stm.atomically(|tx| m.remove(tx, &k)), Some(k * 10));
            if k % 128 == 0 {
                m.check_shape().expect("btree invariants during drain");
            }
        }
        let (len, depth) = m.check_shape().expect("btree invariants");
        assert_eq!(
            (len, depth),
            (0, 0),
            "drained tree collapses to a root leaf"
        );
    }

    #[test]
    fn entries_are_sorted_and_complete() {
        let stm = Stm::default();
        let m = filled(&stm, 300);
        let entries = stm.atomically(|tx| m.entries(tx));
        assert_eq!(entries.len(), 300);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(m.snapshot_entries(), entries);
    }

    #[test]
    fn remove_missing_key_avoids_writes() {
        let stm = Stm::default();
        let m = filled(&stm, 100);
        let writes_before = stm.stats().writes();
        assert_eq!(stm.atomically(|tx| m.remove(tx, &100_000)), None);
        assert_eq!(
            stm.stats().writes(),
            writes_before,
            "no-op removal must not write"
        );
    }

    #[test]
    fn disjoint_subtree_updates_do_not_conflict() {
        // Two transactions inserting into far-apart keys of a deep tree
        // touch disjoint leaves; only the (read-shared) path overlaps,
        // so neither aborts.
        let stm = Stm::default();
        let m = std::sync::Arc::new(filled(&stm, 2000));
        let aborts_before = stm.stats().aborts();
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let stm = stm.clone();
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        // Replace existing values: no structural change,
                        // each thread in its own key region.
                        let key = t * 500 + (i % 450);
                        stm.atomically(|tx| m.insert(tx, key, key));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (len, _) = m.check_shape().expect("btree invariants");
        assert_eq!(len, 2000);
        // Not asserting zero (threads may race on a shared leaf at
        // region edges), but a map behind one `TVar` would abort
        // hundreds of times here.
        let aborts = stm.stats().aborts() - aborts_before;
        assert!(aborts < 100, "per-node map should rarely abort: {aborts}");
    }

    #[test]
    fn concurrent_structural_churn_keeps_invariants() {
        let stm = Stm::default();
        let m = std::sync::Arc::new(TBTreeMap::<u64, u64>::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let stm = stm.clone();
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let key = (t * 1000 + i * 7) % 512;
                        if i % 3 == 0 {
                            stm.atomically(|tx| m.remove(tx, &key));
                        } else {
                            stm.atomically(|tx| m.insert(tx, key, i));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        m.check_shape().expect("btree invariants after churn");
    }

    #[test]
    fn labelled_map_builds_and_works() {
        let stm = Stm::default();
        let m: TBTreeMap<u64, u64> = TBTreeMap::labelled("test.table");
        for k in 0..100 {
            stm.atomically(|tx| m.insert(tx, k, k));
        }
        assert_eq!(stm.atomically(|tx| m.len(tx)), 100);
        m.check_shape().expect("labelled map invariants");
    }

    #[test]
    fn clone_shares_state() {
        let stm = Stm::default();
        let a: TBTreeMap<u8, u8> = TBTreeMap::new();
        let b = a.clone();
        stm.atomically(|tx| a.insert(tx, 1, 1));
        assert_eq!(stm.atomically(|tx| b.get(tx, &1)), Some(1));
    }

    #[test]
    fn mixed_ops_cross_check_against_std() {
        let mut oracle = std::collections::BTreeMap::new();
        let stm = Stm::default();
        let m: TBTreeMap<u64, u64> = TBTreeMap::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..4000 {
            // xorshift: deterministic pseudo-random op stream.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 300;
            match x % 5 {
                0..=2 => {
                    assert_eq!(
                        stm.atomically(|tx| m.insert(tx, key, x)),
                        oracle.insert(key, x)
                    );
                }
                3 => {
                    assert_eq!(stm.atomically(|tx| m.remove(tx, &key)), oracle.remove(&key));
                }
                _ => {
                    assert_eq!(
                        stm.atomically(|tx| m.get(tx, &key)),
                        oracle.get(&key).copied()
                    );
                }
            }
        }
        let (len, _) = m.check_shape().expect("btree invariants");
        assert_eq!(len, oracle.len());
        let entries = stm.atomically(|tx| m.entries(tx));
        assert_eq!(entries, oracle.into_iter().collect::<Vec<_>>());
    }
}
