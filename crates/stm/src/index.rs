//! The transaction-private write-set index, with a small-set fast path.
//!
//! A transaction's write set is keyed by lock address, and every
//! transactional read probes it (read-your-writes). With
//! `std::collections::HashMap`'s DoS-resistant SipHash default that
//! probe is a multi-round hash computation on every read, for keys that
//! are process-private pointers an attacker never chooses. [`VarIndex`]
//! is tuned to the write footprints STAMP-style transactions actually
//! have. (The read set needs no index: it is a log, see `txn.rs`.)
//!
//! * **Small sets (≤ [`SPILL_THRESHOLD`] entries)** — the common case;
//!   the index is a dense `Vec<(addr, value)>` probed by linear scan.
//!   For a handful of entries a scan over one cache line beats any hash
//!   map: no hashing, no bucket indirection, no empty-slot probing.
//! * **Large sets** — the index *spills*: an [`fxhash`]-keyed map from
//!   address to entry position is built once and maintained alongside
//!   the dense vector, restoring O(1) probes. FxHash on a `usize` key
//!   is three ALU instructions, not SipHash's permutation rounds.
//!
//! `clear()` keeps every allocation (the dense vector's and the spilled
//! map's), so a transaction that retries — exactly when contention is
//! highest — re-indexes into memory it already owns.

use fxhash::FxHashMap;

/// Entry count above which a [`VarIndex`] builds its hashed view.
///
/// Tuned empirically when the index also served the read set
/// (CHANGES.md records the sweep beside the index's introduction):
/// footprints of 1–3 locations ran ~50 % faster linear-scanned than
/// always-hashed, while thresholds of 8–16 cost larger footprints
/// ~15 % in long absence scans. Four keeps the small-set win and caps
/// both the scan length and the one-time backfill at spill.
///
/// Every read probes this index, usually for an absent key, so the
/// scan length is what a read pays. A non-structural B-tree update
/// (`rubic-workloads::btree`) writes one leaf, so its write set stays
/// inline; only split/merge transactions (a few percent of write-heavy
/// ops) spill, and those already pay for node reconstruction.
pub(crate) const SPILL_THRESHOLD: usize = 4;

/// An insert-only map from lock address to a `Copy` payload, optimised
/// for small cardinalities and allocation reuse across `clear()`.
#[derive(Debug)]
pub(crate) struct VarIndex<V> {
    /// Dense entries in insertion order; always the source of truth.
    entries: Vec<(usize, V)>,
    /// Hashed view (`addr -> entries position`), maintained only while
    /// [`spilled`](Self::spilled) — kept allocated across `clear()`.
    map: FxHashMap<usize, usize>,
    /// True once `entries` outgrew the linear-scan fast path.
    spilled: bool,
}

impl<V> Default for VarIndex<V> {
    fn default() -> Self {
        VarIndex {
            entries: Vec::new(),
            map: FxHashMap::default(),
            spilled: false,
        }
    }
}

impl<V: Copy> VarIndex<V> {
    /// Number of recorded entries.
    #[allow(dead_code)] // exercised by unit tests; kept for API symmetry
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `addr`, returning its payload by value.
    #[inline]
    pub(crate) fn get(&self, addr: usize) -> Option<V> {
        if self.spilled {
            self.map.get(&addr).map(|&pos| self.entries[pos].1)
        } else {
            self.entries
                .iter()
                .find(|&&(a, _)| a == addr)
                .map(|&(_, v)| v)
        }
    }

    /// True if `addr` is present.
    #[inline]
    pub(crate) fn contains(&self, addr: usize) -> bool {
        if self.spilled {
            self.map.contains_key(&addr)
        } else {
            self.entries.iter().any(|&(a, _)| a == addr)
        }
    }

    /// Records `addr -> value`.
    ///
    /// The caller must have established absence (via [`get`](Self::get)
    /// or [`contains`](Self::contains)) first — the transaction engine
    /// always probes before recording, so `insert` never needs to.
    #[inline]
    pub(crate) fn insert(&mut self, addr: usize, value: V) {
        debug_assert!(!self.contains(addr), "duplicate access-set entry");
        let pos = self.entries.len();
        self.entries.push((addr, value));
        if self.spilled {
            self.map.insert(addr, pos);
        } else if self.entries.len() > SPILL_THRESHOLD {
            self.map.clear();
            self.map.reserve(self.entries.len() * 2);
            self.map
                .extend(self.entries.iter().enumerate().map(|(i, &(a, _))| (a, i)));
            self.spilled = true;
        }
    }

    /// Empties the index, returning to the linear-scan representation
    /// while keeping both the dense vector's and the hashed view's
    /// allocations for the next attempt.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        if self.spilled {
            self.map.clear();
            self.spilled = false;
        }
    }

    /// Releases capacity beyond `cap` entries. The hashed view never
    /// holds more than the dense vector did, so the vector's capacity
    /// decides for both.
    #[inline]
    pub(crate) fn shrink_to(&mut self, cap: usize) {
        if self.entries.capacity() > cap {
            self.entries.shrink_to(cap);
            self.map.shrink_to(cap);
        }
    }

    /// True while the hashed view is active (diagnostics/tests).
    pub(crate) fn spilled(&self) -> bool {
        self.spilled
    }

    /// Capacity of the dense entry vector (diagnostics/tests).
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_roundtrip_small() {
        let mut idx: VarIndex<u64> = VarIndex::default();
        assert!(idx.is_empty());
        assert_eq!(idx.get(0x40), None);
        idx.insert(0x40, 7);
        idx.insert(0x80, 9);
        assert_eq!(idx.get(0x40), Some(7));
        assert_eq!(idx.get(0x80), Some(9));
        assert!(idx.contains(0x80));
        assert!(!idx.contains(0xC0));
        assert_eq!(idx.len(), 2);
        assert!(!idx.spilled());
    }

    #[test]
    fn spills_past_threshold_and_stays_consistent() {
        let mut idx: VarIndex<usize> = VarIndex::default();
        let n = SPILL_THRESHOLD * 4;
        for i in 0..n {
            idx.insert(i * 64, i);
            // Every entry stays reachable through every representation
            // switch.
            for j in 0..=i {
                assert_eq!(idx.get(j * 64), Some(j), "lost key after {i} inserts");
            }
        }
        assert!(idx.spilled());
        assert_eq!(idx.len(), n);
        assert!(!idx.contains(n * 64));
    }

    #[test]
    fn clear_returns_to_small_mode_and_keeps_capacity() {
        let mut idx: VarIndex<u64> = VarIndex::default();
        for i in 0..SPILL_THRESHOLD * 2 {
            idx.insert(i * 8, i as u64);
        }
        assert!(idx.spilled());
        let cap = idx.capacity();
        assert!(cap >= SPILL_THRESHOLD * 2);
        idx.clear();
        assert!(idx.is_empty());
        assert!(!idx.spilled());
        assert_eq!(idx.capacity(), cap, "clear must not release the entries");
        // Stale keys from before the clear are gone in both modes.
        assert_eq!(idx.get(0), None);
        idx.insert(0xAA, 1);
        assert_eq!(idx.get(0xAA), Some(1));
        assert_eq!(idx.capacity(), cap);
    }
}
