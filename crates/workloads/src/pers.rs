//! A persistent (immutable, structurally shared) B+-tree map.
//!
//! This is the ordered-map substrate behind the STM workloads: the
//! red-black-tree micro-benchmark (the paper's name for the workload;
//! this wide-node tree is what sits under it), Vacation's four relation
//! tables and Intruder's session map store a [`PMap`] inside a single
//! `TVar`. Updates build a new tree that shares every untouched node
//! with the old one, so a transactional update is "read snapshot →
//! functional update → write snapshot" — exactly the snapshot
//! discipline our STM's immutable published values require (see
//! `rubic-stm`'s crate docs and DESIGN.md §2b).
//!
//! Shape: values live inline in sorted leaves of up to 32 entries
//! (`LEAF_MAX`); a branch holds up to 16 (`BRANCH_MAX`) `(key, child)`
//! entries whose key is *exactly the smallest key under that child* —
//! so merging two branches is concatenation, with no separator to pull
//! down from the parent, and path copying keeps the keys exact for
//! free. Every node is one allocation (`Arc<[entry]>`, sized once from
//! an exact-length iterator). A look-up at 64 K entries is four or five
//! binary searches over contiguous entries; an update copies the nodes
//! on that one root-to-leaf path, splitting a full node in two on the
//! way up (insert) or refilling an underfull one from a sibling —
//! borrow when the sibling can spare entries, merge when it cannot —
//! and dropping a root left with a single child (remove). All three are
//! one routine, [`PMap::edit`]: descend once, show the entry found to a
//! closure, rebuild the path as it decides ([`Edit`]) — or allocate
//! nothing when it keeps the map as it is.
//!
//! **A value's `Clone` is on the copy path of its leaf neighbours.** A
//! path copy clones every `(K, V)` of the touched leaf, so values kept
//! in a [`PMap`] must be O(1) to clone: plain data, or an `Arc` around
//! anything that owns heap memory.
//!
//! [`PMap::check_invariants`] verifies sorted order, branch keys,
//! uniform depth, the occupancy bounds of every non-root node and the
//! maintained `len`; the property tests run it while they fill and
//! drain tens of thousands of keys.

use std::iter;
use std::sync::Arc;

/// Most entries a leaf holds; a non-root leaf holds at least half.
/// Widths were chosen by measurement, see DESIGN.md §2b.
const LEAF_MAX: usize = 32;
/// Most children a branch holds; a non-root branch holds at least half.
const BRANCH_MAX: usize = 16;

/// What a [`PMap::edit`] closure decides for the entry under its key.
#[derive(Debug, Clone)]
pub enum Edit<V> {
    /// Leave the map as it is.
    Keep,
    /// Store this value under the key, inserting or replacing.
    Put(V),
    /// Drop the entry (a no-op when the key is absent).
    Remove,
}

/// One node's sorted entries, in one allocation.
type Entries<K, X> = Arc<[(K, X)]>;

#[derive(Debug)]
enum Node<K, V> {
    Leaf(Entries<K, V>),
    /// `(smallest key under the child, child)`, all children at the
    /// same depth.
    Branch(Entries<K, Node<K, V>>),
}

use Node::{Branch, Leaf};

impl<K, V> Clone for Node<K, V> {
    fn clone(&self) -> Self {
        match self {
            Leaf(e) => Leaf(Arc::clone(e)),
            Branch(e) => Branch(Arc::clone(e)),
        }
    }
}

impl<K, V> Node<K, V> {
    fn len(&self) -> usize {
        match self {
            Leaf(e) => e.len(),
            Branch(e) => e.len(),
        }
    }

    fn max_len(&self) -> usize {
        match self {
            Leaf(_) => LEAF_MAX,
            Branch(_) => BRANCH_MAX,
        }
    }

    /// The smallest key in this (non-empty) subtree.
    fn min_key(&self) -> &K {
        match self {
            Leaf(e) => &e[0].0,
            Branch(e) => &e[0].0,
        }
    }
}

/// The branch entry for `node`.
fn keyed<K: Clone, V>(node: Node<K, V>) -> (K, Node<K, V>) {
    (node.min_key().clone(), node)
}

/// Index of the child of `branch` that covers `key`, or `None` when
/// `key` is smaller than every key in the subtree.
fn child_of<K: Ord, X>(branch: &[(K, X)], key: &K) -> Option<usize> {
    branch.partition_point(|(k, _)| k <= key).checked_sub(1)
}

/// `src` with `src[at..at + del]` replaced by `new`. Every part has a
/// trusted length, so collecting the chain into an `Arc<[T]>` allocates
/// exactly once.
fn splice<'a, T: Clone>(
    src: &'a [T],
    at: usize,
    del: usize,
    new: impl IntoIterator<Item = T> + 'a,
) -> impl Iterator<Item = T> + 'a {
    let (head, tail) = (&src[..at], &src[at + del..]);
    head.iter().cloned().chain(new).chain(tail.iter().cloned())
}

/// Collects `total` entries into one node when they fit in `max`, into
/// two halves otherwise.
fn pack<T>(
    mut entries: impl Iterator<Item = T>,
    total: usize,
    max: usize,
) -> (Arc<[T]>, Option<Arc<[T]>>) {
    if total <= max {
        return (entries.collect(), None);
    }
    let left = entries.by_ref().take(total / 2).collect();
    (left, Some(entries.collect()))
}

/// A rebuilt node and, when it had to split, its new right sibling. The
/// node may be one entry under its minimum after a removal; the caller
/// repairs that.
type Rebuilt<K, V> = (Node<K, V>, Option<Node<K, V>>);

/// Refills an underfull node from its sibling (`l` left of `r`): one
/// merged node when the sibling is at its minimum, otherwise the
/// entries of both shared evenly between two.
fn rebalance<K: Clone, V: Clone>(l: &Node<K, V>, r: &Node<K, V>) -> Rebuilt<K, V> {
    fn share<T: Clone>(a: &[T], b: &[T], max: usize) -> (Arc<[T]>, Option<Arc<[T]>>) {
        // An underfull node and a sibling at its minimum hold `max - 1`.
        let both = a.iter().cloned().chain(b.iter().cloned());
        pack(both, a.len() + b.len(), max - 1)
    }
    match (l, r) {
        (Leaf(a), Leaf(b)) => {
            let (l, r) = share(a, b, LEAF_MAX);
            (Leaf(l), r.map(Leaf))
        }
        (Branch(a), Branch(b)) => {
            let (l, r) = share(a, b, BRANCH_MAX);
            (Branch(l), r.map(Branch))
        }
        _ => unreachable!("siblings sit at the same depth"),
    }
}

/// The one path-copy routine: descends to `key`'s leaf, runs `f` once on
/// the entry found there and rebuilds the path as `f` decided. `None`
/// (and nothing allocated) when the tree stays as it is.
fn edit<K: Ord + Clone, V: Clone, R>(
    node: &Node<K, V>,
    key: &K,
    f: impl FnOnce(Option<&V>) -> (Edit<V>, R),
) -> (Option<Rebuilt<K, V>>, R) {
    match node {
        Leaf(e) => {
            let found = e.binary_search_by(|(k, _)| k.cmp(key));
            let (decision, out) = f(found.ok().map(|i| &e[i].1));
            let rebuilt = match (decision, found) {
                (Edit::Put(value), _) => {
                    let (at, del) = match found {
                        Ok(i) => (i, 1),
                        Err(i) => (i, 0),
                    };
                    let new = [(key.clone(), value)];
                    let (l, r) = pack(splice(e, at, del, new), e.len() + 1 - del, LEAF_MAX);
                    Some((Leaf(l), r.map(Leaf)))
                }
                (Edit::Remove, Ok(i)) => {
                    Some((Leaf(splice(e, i, 1, iter::empty()).collect()), None))
                }
                (Edit::Keep, _) | (Edit::Remove, Err(_)) => None,
            };
            (rebuilt, out)
        }
        Branch(e) => {
            // A key under every branch key can only belong leftmost.
            let i = child_of(e, key).unwrap_or(0);
            let (rebuilt, out) = edit(&e[i].1, key, f);
            let Some((child, sibling)) = rebuilt else {
                return (None, out);
            };
            // Arrays, not `once(..).chain(option)`: every entry of the
            // copy pays for each `Chain` its `next` goes through.
            let rebuilt = match sibling {
                Some(sibling) => {
                    let new = [keyed(child), keyed(sibling)];
                    let (l, r) = pack(splice(e, i, 1, new), e.len() + 1, BRANCH_MAX);
                    (Branch(l), r.map(Branch))
                }
                None if child.len() >= child.max_len() / 2 => {
                    (Branch(splice(e, i, 1, [keyed(child)]).collect()), None)
                }
                None => {
                    // Every branch has at least two children.
                    let (at, (l, r)) = if i > 0 {
                        (i - 1, rebalance(&e[i - 1].1, &child))
                    } else {
                        (0, rebalance(&child, &e[1].1))
                    };
                    let new = iter::once(keyed(l)).chain(r.map(keyed));
                    (Branch(splice(e, at, 2, new).collect()), None)
                }
            };
            (Some(rebuilt), out)
        }
    }
}

fn for_each<K, V>(node: &Node<K, V>, f: &mut impl FnMut(&K, &V)) {
    match node {
        Leaf(e) => e.iter().for_each(|(k, v)| f(k, v)),
        Branch(e) => e.iter().for_each(|(_, child)| for_each(child, f)),
    }
}

/// A persistent ordered map: a B+-tree whose versions share structure.
///
/// Cloning is `O(1)` (shares the whole structure); all updates return
/// new maps and leave every earlier version untouched. `len` is
/// maintained incrementally.
///
/// ```
/// use rubic_workloads::pers::PMap;
/// let m0: PMap<u32, &str> = PMap::new();
/// let m1 = m0.insert(2, "two").0;
/// let m2 = m1.insert(1, "one").0;
/// assert_eq!(m2.get(&2), Some(&"two"));
/// assert_eq!(m1.get(&1), None, "persistence: m1 is unchanged");
/// assert_eq!(m2.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PMap<K, V> {
    /// An empty map is an empty root leaf.
    root: Node<K, V>,
    len: usize,
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap::new()
    }
}

impl<K, V> PMap<K, V> {
    /// The empty map.
    #[must_use]
    pub fn new() -> Self {
        PMap {
            root: Leaf(Arc::new([])),
            len: 0,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// Looks up `key`.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut node = &self.root;
        loop {
            match node {
                Branch(e) => node = &e[child_of(e, key)?].1,
                Leaf(e) => {
                    let i = e.binary_search_by(|(k, _)| k.cmp(key)).ok()?;
                    return Some(&e[i].1);
                }
            }
        }
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// The smallest key (with its value), if any.
    #[must_use]
    pub fn min(&self) -> Option<(&K, &V)> {
        let mut node = &self.root;
        loop {
            match node {
                Branch(e) => node = &e.first()?.1,
                Leaf(e) => return e.first().map(|(k, v)| (k, v)),
            }
        }
    }

    /// The largest key (with its value), if any.
    #[must_use]
    pub fn max(&self) -> Option<(&K, &V)> {
        let mut node = &self.root;
        loop {
            match node {
                Branch(e) => node = &e.last()?.1,
                Leaf(e) => return e.last().map(|(k, v)| (k, v)),
            }
        }
    }

    /// Runs `f` once on the entry under `key` (`None` when absent) and
    /// applies what it decides, in one descent and one path copy.
    /// Returns the new map — `None`, with nothing allocated, when `f`
    /// said [`Edit::Keep`] or asked to remove an absent key — and
    /// whatever else `f` returned.
    #[must_use]
    pub fn edit<R>(
        &self,
        key: &K,
        f: impl FnOnce(Option<&V>) -> (Edit<V>, R),
    ) -> (Option<Self>, R) {
        let mut len = self.len;
        let (rebuilt, out) = edit(&self.root, key, |held| {
            let (decision, out) = f(held);
            match (&decision, held) {
                (Edit::Put(_), None) => len += 1,
                (Edit::Remove, Some(_)) => len -= 1,
                _ => {}
            }
            (decision, out)
        });
        let root = rebuilt.map(|rebuilt| match rebuilt {
            (l, Some(r)) => Branch(Arc::new([keyed(l), keyed(r)])),
            // A root branch left with a single child hands over to it.
            (Branch(e), None) if e.len() == 1 => e[0].1.clone(),
            (root, None) => root,
        });
        (root.map(|root| PMap { root, len }), out)
    }

    /// Inserts `key → value`; returns the new map and the previous
    /// value, if the key was present.
    #[must_use]
    pub fn insert(&self, key: K, value: V) -> (Self, Option<V>) {
        let (next, replaced) = self.edit(&key, |held| (Edit::Put(value), held.cloned()));
        (next.expect("a put rebuilds the path"), replaced)
    }

    /// Removes `key` in one descent; returns the new map and the
    /// removed value. When the key is absent the value is `None` and
    /// the map is `self` again (same root, nothing allocated).
    #[must_use]
    pub fn remove(&self, key: &K) -> (Self, Option<V>) {
        let (next, removed) = self.edit(key, |held| (Edit::Remove, held.cloned()));
        (next.unwrap_or_else(|| self.clone()), removed)
    }

    /// In-order `(key, value)` pairs.
    #[must_use]
    pub fn entries(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len);
        for_each(&self.root, &mut |k, v| out.push((k.clone(), v.clone())));
        out
    }

    /// In-order keys.
    #[must_use]
    pub fn keys(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.len);
        for_each(&self.root, &mut |k, _| out.push(k.clone()));
        out
    }

    /// Verifies the tree: keys strictly ascending across all leaves,
    /// every branch key equal to the smallest key under its child (so
    /// it bounds both neighbours), all leaves at one depth, every
    /// non-root node between half full and full, and `len` equal to the
    /// number of entries. Returns the depth (1 for a single leaf).
    ///
    /// # Errors
    /// Describes the first violated invariant.
    pub fn check_invariants(&self) -> Result<usize, String> {
        fn walk<'a, K: Ord, V>(
            node: &'a Node<K, V>,
            is_root: bool,
            prev: &mut Option<&'a K>,
            count: &mut usize,
        ) -> Result<usize, String> {
            let min = match (is_root, node) {
                (false, _) => node.max_len() / 2,
                (true, Leaf(_)) => 0,
                (true, Branch(_)) => 2,
            };
            if node.len() < min || node.len() > node.max_len() {
                return Err(format!("node holds {} entries", node.len()));
            }
            match node {
                Leaf(e) => {
                    for (k, _) in e.iter() {
                        if prev.is_some_and(|p| p >= k) {
                            return Err("keys out of order".into());
                        }
                        *prev = Some(k);
                    }
                    *count += e.len();
                    Ok(1)
                }
                Branch(e) => {
                    let mut depth = None;
                    for (k, child) in e.iter() {
                        if k != child.min_key() {
                            return Err("branch key is not its child's smallest".into());
                        }
                        let d = walk(child, false, prev, count)?;
                        if depth.is_some_and(|seen| seen != d) {
                            return Err("leaves at different depths".into());
                        }
                        depth = Some(d);
                    }
                    Ok(depth.unwrap_or(0) + 1)
                }
            }
        }
        let mut counted = 0;
        let depth = walk(&self.root, true, &mut None, &mut counted)?;
        if counted != self.len {
            return Err(format!("len {} but counted {}", self.len, counted));
        }
        Ok(depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn check<K: Ord + Clone + std::fmt::Debug, V: Clone>(m: &PMap<K, V>) -> usize {
        match m.check_invariants() {
            Ok(depth) => depth,
            Err(e) => panic!("invariant violated: {e}; keys={:?}", m.keys()),
        }
    }

    fn filled(keys: impl IntoIterator<Item = u32>) -> PMap<u32, u32> {
        keys.into_iter()
            .fold(PMap::new(), |m, k| m.insert(k, k * 10).0)
    }

    /// Entry counts of the leaves, left to right.
    fn leaf_sizes<K, V>(m: &PMap<K, V>) -> Vec<usize> {
        fn walk<K, V>(node: &Node<K, V>, out: &mut Vec<usize>) {
            match node {
                Leaf(e) => out.push(e.len()),
                Branch(e) => e.iter().for_each(|(_, c)| walk(c, out)),
            }
        }
        let mut out = Vec::new();
        walk(&m.root, &mut out);
        out
    }

    #[test]
    fn empty_map() {
        let m: PMap<u32, u32> = PMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(&1), None);
        assert_eq!(m.min(), None);
        assert_eq!(m.max(), None);
        assert_eq!(check(&m), 1);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut m = PMap::new();
        for k in [5, 2, 8, 1, 9, 3, 7, 4, 6, 0] {
            m = m.insert(k, k * 10).0;
            check(&m);
        }
        assert_eq!(m.len(), 10);
        for k in 0..10 {
            assert_eq!(m.get(&k), Some(&(k * 10)));
        }
        assert_eq!(m.min(), Some((&0, &0)));
        assert_eq!(m.max(), Some((&9, &90)));
    }

    #[test]
    fn insert_replaces() {
        let m = PMap::new().insert(1, "a").0;
        let (m2, old) = m.insert(1, "b");
        assert_eq!(old, Some("a"));
        assert_eq!(m2.len(), 1);
        assert_eq!(m2.get(&1), Some(&"b"));
        // Persistence: the original still maps to "a".
        assert_eq!(m.get(&1), Some(&"a"));
    }

    #[test]
    fn depth_stays_logarithmic() {
        let n = 10_000u32;
        for m in [filled(0..n), filled((0..n).rev())] {
            // Worst case is every node half full: 10 000 / 16 leaves
            // under branches of 8 is four levels.
            assert!(check(&m) <= 4, "depth {}", check(&m));
            assert_eq!(
                (m.min(), m.max()),
                (Some((&0, &0)), Some((&(n - 1), &((n - 1) * 10))))
            );
        }
    }

    #[test]
    fn remove_missing_is_noop() {
        let m = filled(0..100).remove(&50).0;
        for absent in [50, 100, 1000] {
            let (m2, removed) = m.remove(&absent);
            assert_eq!(removed, None);
            assert_eq!(m2.len(), 99);
            check(&m2);
        }
        assert_eq!(PMap::<u32, u32>::new().remove(&1).1, None);
    }

    /// Each structural case once, on the smallest tree that shows it.
    #[test]
    fn split_borrow_merge_and_root_collapse() {
        // Leaf split: the 33rd entry halves a full root leaf.
        let m = filled(0..=LEAF_MAX as u32);
        assert_eq!((check(&m), leaf_sizes(&m)), (2, vec![16, 17]));
        // Borrow from the right: ascending fill leaves [16, 32]; the
        // first leaf goes underfull and its sibling can spare entries.
        let m = filled(0..48);
        assert_eq!(leaf_sizes(&m), vec![16, 32]);
        let m = m.remove(&0).0;
        assert_eq!((check(&m), leaf_sizes(&m)), (2, vec![23, 24]));
        // Borrow from the left: descending fill leaves [31, 17].
        let m = filled((0..48).rev());
        assert_eq!(leaf_sizes(&m), vec![31, 17]);
        let m = m.remove(&47).0.remove(&46).0;
        assert_eq!((check(&m), leaf_sizes(&m)), (2, vec![23, 23]));
        // Merge, and the root branch left with one child collapses.
        let m = filled(0..=LEAF_MAX as u32).remove(&32).0;
        assert_eq!(leaf_sizes(&m), vec![16, 16]);
        let m = m.remove(&0).0;
        assert_eq!((check(&m), leaf_sizes(&m)), (1, vec![31]));
        assert_eq!(m.keys(), (1..32).collect::<Vec<u32>>());
    }

    #[test]
    fn remove_all_elements_both_ways() {
        let n = 3000u32;
        let (mut up, mut down) = (filled(0..n), filled(0..n));
        assert!(check(&up) >= 3, "branches have to split and merge too");
        for k in 0..n {
            let (next, removed) = up.remove(&k);
            assert_eq!(removed, Some(k * 10), "key {k}");
            up = next;
            check(&up);
            let k = n - 1 - k;
            let (next, removed) = down.remove(&k);
            assert_eq!(removed, Some(k * 10), "key {k}");
            down = next;
            check(&down);
        }
        assert!(up.is_empty() && down.is_empty());
        assert_eq!((check(&up), check(&down)), (1, 1));
    }

    #[test]
    fn entries_are_sorted() {
        let m = filled((0..500).map(|i| (i * 37) % 500));
        assert_eq!(m.keys(), (0..500).collect::<Vec<u32>>());
        assert_eq!(
            m.entries(),
            (0..500).map(|k| (k, k * 10)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn old_versions_survive_later_updates() {
        let mut versions = vec![PMap::new()];
        for k in 0..200u32 {
            versions.push(versions.last().unwrap().insert(k, k).0);
        }
        for k in 0..200u32 {
            versions.push(versions.last().unwrap().remove(&k).0);
        }
        // Version i holds 0..i while filling, i-200..200 while draining.
        for (i, v) in versions.iter().enumerate() {
            let expect: Vec<u32> = if i <= 200 {
                (0..i as u32).collect()
            } else {
                (i as u32 - 200..200).collect()
            };
            assert_eq!(v.keys(), expect, "version {i}");
        }
    }

    #[test]
    fn matches_btreemap_mixed_ops() {
        // Deterministic pseudo-random op sequence cross-checked against
        // the standard library ordered map; 2 000 keys keep the tree
        // three levels deep under stationary insert/delete churn.
        let mut model = BTreeMap::new();
        let mut m = PMap::new();
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        for step in 0..40_000 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % 2000) as i64;
            if x & (1 << 8) == 0 {
                let v = (x >> 16) as i64;
                let (next, got) = m.insert(key, v);
                assert_eq!(got, model.insert(key, v));
                m = next;
            } else {
                let (next, got) = m.remove(&key);
                assert_eq!(got, model.remove(&key));
                m = next;
            }
            assert_eq!(m.len(), model.len());
            if step & 63 == 0 {
                check(&m);
            }
        }
        assert_eq!(check(&m), 3);
        let expected: Vec<(i64, i64)> = model.into_iter().collect();
        assert_eq!(m.entries(), expected);
    }

    static CLONES: AtomicUsize = AtomicUsize::new(0);

    /// A value that counts how often it is cloned.
    #[derive(Debug, PartialEq)]
    struct Counted(u32);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.fetch_add(1, Ordering::Relaxed);
            Counted(self.0)
        }
    }

    /// The clone contract DESIGN.md §2b states: reads and `PMap::clone`
    /// clone no value; an update clones the one leaf it rewrites (two
    /// when it has to refill that leaf from a sibling) plus the value
    /// it hands back. `CLONES` is only touched by this test.
    #[test]
    fn clone_count_contract() {
        let clones_in = |f: &mut dyn FnMut()| {
            let before = CLONES.load(Ordering::Relaxed);
            f();
            CLONES.load(Ordering::Relaxed) - before
        };
        let mut m = PMap::new();
        for k in 0..10_000u32 {
            m = m.insert((k * 7919) % 10_007, Counted(k)).0;
        }
        assert_eq!(clones_in(&mut || drop(m.clone())), 0);
        assert_eq!(
            clones_in(&mut || {
                for k in 0..10_007 {
                    assert_eq!(m.contains(&k), m.get(&k).is_some());
                }
            }),
            0
        );
        let (mut worst_insert, mut worst_remove) = (0, 0);
        for k in 0..10_007u32 {
            let key = (k * 31) % 10_007;
            let n = clones_in(&mut || m = m.insert(key, Counted(k)).0);
            worst_insert = worst_insert.max(n);
            let key = (k * 17) % 10_007;
            let n = clones_in(&mut || m = m.remove(&key).0);
            worst_remove = worst_remove.max(n);
        }
        check(&m);
        // Insert: the old leaf's entries (the new one is moved in), or
        // all but the replaced one plus the copy handed back.
        assert!(worst_insert <= LEAF_MAX, "insert cloned {worst_insert}");
        // Remove: the leaf minus the removed entry, that entry's copy,
        // and a sibling of at most LEAF_MAX when the leaf went underfull
        // (its own LEAF_MAX / 2 - 1 survivors are then cloned twice).
        assert!(worst_remove <= 2 * LEAF_MAX, "remove cloned {worst_remove}");
        let miss = clones_in(&mut || drop(m.remove(&20_000)));
        assert_eq!(miss, 0, "a missing key copies nothing");
        // `edit` hands the entry over by reference: a replacement clones
        // the leaf's other entries only, a keep or a miss nothing.
        let mut worst_replace = 0;
        for k in m.keys() {
            let put = |held: Option<&Counted>| (Edit::Put(Counted(held.unwrap().0 + 1)), ());
            let n = clones_in(&mut || m = m.edit(&k, put).0.unwrap());
            worst_replace = worst_replace.max(n);
            let keep = |held: Option<&Counted>| (Edit::Keep, held.is_some());
            assert_eq!(clones_in(&mut || assert!(m.edit(&k, keep).0.is_none())), 0);
        }
        assert!(worst_replace < LEAF_MAX, "edit cloned {worst_replace}");
        for decision in [Edit::Keep, Edit::Remove] {
            let absent = |held: Option<&Counted>| (decision.clone(), held.is_none());
            let n = clones_in(&mut || assert!(matches!(m.edit(&20_000, absent), (None, true))));
            assert_eq!(n, 0, "{decision:?} on a missing key copies nothing");
        }
        check(&m);
    }
}
