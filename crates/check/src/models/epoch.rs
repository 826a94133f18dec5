//! Model of the epoch-based reclamation protocol.
//!
//! Mirrors the vendored `crossbeam-epoch` usage in the workspace: a
//! reader *pins* (advertises the global epoch it entered), dereferences
//! the currently published slot, and unpins; an updater publishes a
//! replacement slot, *retires* the old one stamped with the epoch at
//! retirement, and a collector advances the global epoch only when
//! every pinned participant has caught up, then frees the prefix of the
//! retirement list that is at least two epochs old (`retired_at + 2 <=
//! global`). The safety property — a reader never dereferences a freed
//! slot — is checked by poisoning freed slots and asserting on read,
//! and independently by the race detector (a free racing a read has no
//! happens-before edge).
//!
//! The drain threshold is configurable: [`EpochModel::early_free`]
//! drains one epoch early (`retired_at + 1`), the canonical
//! reclamation bug, which the checker must catch.

use std::sync::Arc;

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{thread, Mutex, RaceCell};

/// Protocol knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochModel {
    /// Drain retirements after one epoch instead of two. Unsafe: a
    /// still-pinned reader can hold the slot.
    pub early_free: bool,
}

pub(super) const POISON: u64 = u64::MAX;
const SLOTS: usize = 4;
const READER_PINS: usize = 2;
const UPDATES: usize = 2;

pub(super) struct Domain {
    /// Global epoch counter.
    pub(super) global: AtomicU64,
    /// Per-participant advertisement: 0 = unpinned, else `epoch + 1`.
    locals: [AtomicU64; 2],
    /// Currently published slot index.
    published: AtomicUsize,
    /// Slot payloads; freeing writes [`POISON`].
    pub(super) arena: Vec<RaceCell<u64>>,
    /// Retired `(slot, epoch)` pairs in retirement order.
    pub(super) retired: Mutex<Vec<(usize, u64)>>,
}

impl Domain {
    pub(super) fn new() -> Self {
        let arena: Vec<RaceCell<u64>> = (0..SLOTS).map(|i| RaceCell::new(i as u64)).collect();
        Domain {
            global: AtomicU64::new(0),
            locals: [AtomicU64::new(0), AtomicU64::new(0)],
            published: AtomicUsize::new(0),
            arena,
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Pin participant `me`: advertise the epoch, then re-check the
    /// global until the advertisement is current (bounded, as the epoch
    /// can only advance once past a stale advertisement).
    pub(super) fn pin(&self, me: usize) {
        // ordering: SeqCst on the advertisement store and the global
        // re-read — the pin/advance pair is the Dekker-style core of
        // epoch reclamation (advertise then check vs. check then
        // advance) and needs a total order, exactly as crossbeam's
        // `Local::pin` fence does.
        let mut e = self.global.load(Ordering::SeqCst);
        loop {
            self.locals[me].store(e + 1, Ordering::SeqCst);
            let now = self.global.load(Ordering::SeqCst);
            if now == e {
                return;
            }
            e = now;
        }
    }

    pub(super) fn unpin(&self, me: usize) {
        // ordering: Release publishes this pin's reads to the
        // collector's advancement check.
        self.locals[me].store(0, Ordering::Release);
    }

    /// Advance the global epoch if every pinned participant has caught
    /// up, then free the drainable prefix of the retirement list.
    pub(super) fn collect(&self, early_free: bool) {
        // ordering: SeqCst pairs with `pin` (see above).
        let e = self.global.load(Ordering::SeqCst);
        let mut can_advance = true;
        for l in &self.locals {
            // ordering: SeqCst — must observe the newest advertisement
            // or the advance could skip a pinned reader.
            let v = l.load(Ordering::SeqCst);
            if v != 0 && v - 1 != e {
                can_advance = false;
            }
        }
        let g = if can_advance {
            // ordering: AcqRel — advancing is a read-modify-write in
            // the same total order as the pins.
            match self
                .global
                .compare_exchange(e, e + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => e + 1,
                Err(cur) => cur,
            }
        } else {
            e
        };
        let horizon = if early_free { 1 } else { 2 };
        let mut retired = self.retired.lock();
        // Prefix drain: retirement epochs are nondecreasing, so stop at
        // the first entry inside the horizon (same shape as the
        // vendored collector's bag queue).
        let keep = retired
            .iter()
            .position(|&(_, re)| re + horizon > g)
            .unwrap_or(retired.len());
        for &(slot, _) in retired.iter().take(keep) {
            self.arena[slot].set(POISON);
        }
        retired.drain(..keep);
    }
}

/// Builds the model closure: one pinning reader, one updater that
/// publishes, retires, and collects.
pub fn model(cfg: EpochModel) -> impl Fn() + Send + Sync + 'static {
    move || {
        let d = Arc::new(Domain::new());

        let reader = {
            let d = Arc::clone(&d);
            thread::spawn(move || {
                for _ in 0..READER_PINS {
                    d.pin(0);
                    // ordering: Acquire pairs with the updater's
                    // release swap publishing the slot's payload.
                    let idx = d.published.load(Ordering::Acquire);
                    let v = d.arena[idx].get();
                    assert_ne!(v, POISON, "reader dereferenced a freed slot {idx}");
                    d.unpin(0);
                }
            })
        };

        let updater = {
            let d = Arc::clone(&d);
            thread::spawn(move || {
                for n in 0..UPDATES {
                    let fresh = n + 1; // slot 0 starts published
                    d.arena[fresh].set(100 + fresh as u64);
                    // ordering: AcqRel — Release publishes the payload
                    // write above; Acquire orders the retirement of
                    // the displaced slot after the swap.
                    let old = d.published.swap(fresh, Ordering::AcqRel);
                    // ordering: Acquire — the retirement stamp must not
                    // predate the swap it covers.
                    let re = d.global.load(Ordering::Acquire);
                    d.retired.lock().push((old, re));
                    d.collect(cfg.early_free);
                }
                // Two more collection rounds so retirements from the
                // loop can age out within the execution.
                d.collect(cfg.early_free);
                d.collect(cfg.early_free);
            })
        };

        reader.join().expect("reader");
        updater.join().expect("updater");
    }
}
