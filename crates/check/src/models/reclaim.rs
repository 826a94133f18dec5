//! Model of deferred `TVarCore` reclamation (`rubic-stm`'s `tvar.rs`).
//!
//! A transaction's read-set entry is a bare pointer to the variable's
//! lock word: no handle, no reference count. What keeps the word alive
//! is the attempt's epoch pin — dropping the last `TVar` handle only
//! *retires* the core through the epoch ([`super::epoch`]'s protocol),
//! it never frees it. The model runs exactly that hand-over: thread A
//! pins, reads the variable through a live handle and records its lock
//! word, the handles go away (A's own and thread B's, in either order;
//! whichever is last retires the core), B pumps the collector, and A
//! then validates, extends and commits — re-sampling the recorded word
//! three times — before it unpins. The safety property: A never
//! observes reclaimed state, checked by poisoning the freed slot and
//! asserting on every sample, and independently by the race detector
//! (a free racing a sample has no happens-before edge).
//!
//! [`ReclaimModel::free_immediately`] is the mutation: the last handle
//! frees the core on the spot, the way a plain `Arc` would. The checker
//! must catch it.

use std::sync::Arc;

use super::epoch::{Domain, POISON};
use crate::sync::atomic::{fence, AtomicUsize, Ordering};
use crate::sync::thread;

/// Protocol knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReclaimModel {
    /// The last handle frees the core immediately instead of retiring
    /// it. Unsafe: a pinned transaction can still hold its lock word.
    pub free_immediately: bool,
}

/// Arena slot standing for the variable's core (its lock word).
const CORE: usize = 0;
/// Epoch participants.
const READER: usize = 0;
const DROPPER: usize = 1;

/// `TVar::drop`: the decrement that reaches zero retires the core
/// (`pinned` says whether the caller already holds a pin, as the real
/// re-entrant `epoch::pin()` would find out).
fn drop_handle(d: &Domain, handles: &AtomicUsize, me: usize, pinned: bool, cfg: ReclaimModel) {
    // ordering: Release so every use through this handle
    // happens-before the retirement; the Acquire fence on the last
    // decrement pairs with it (the `Arc` protocol).
    if handles.fetch_sub(1, Ordering::Release) != 1 {
        return;
    }
    fence(Ordering::Acquire);
    if cfg.free_immediately {
        d.arena[CORE].set(POISON);
        return;
    }
    if !pinned {
        d.pin(me);
    }
    // ordering: Acquire — the retirement stamp must not predate the
    // decrement it follows.
    let stamp = d.global.load(Ordering::Acquire);
    d.retired.lock().push((CORE, stamp));
    if !pinned {
        d.unpin(me);
    }
}

/// Builds the model closure: one transaction holding the variable in
/// its read set, one thread dropping the other handle and collecting.
pub fn model(cfg: ReclaimModel) -> impl Fn() + Send + Sync + 'static {
    move || {
        let d = Arc::new(Domain::new());
        // One handle the transaction reads through, one held elsewhere.
        let handles = Arc::new(AtomicUsize::new(2));

        let reader = {
            let (d, handles) = (Arc::clone(&d), Arc::clone(&handles));
            thread::spawn(move || {
                d.pin(READER);
                // `Transaction::read`: sample the lock word through the
                // live handle and record it.
                let recorded = d.arena[CORE].get();
                assert_ne!(
                    recorded, POISON,
                    "read through a live handle saw a freed core"
                );
                // The handle the read went through goes away while the
                // attempt is still running.
                drop_handle(&d, &handles, READER, true, cfg);
                // Validate, extend, commit: each re-samples the word.
                for step in ["validate", "extend", "commit"] {
                    let w = d.arena[CORE].get();
                    assert_eq!(w, recorded, "{step} observed reclaimed state");
                }
                d.unpin(READER);
            })
        };

        let dropper = {
            let (d, handles) = (Arc::clone(&d), Arc::clone(&handles));
            thread::spawn(move || {
                drop_handle(&d, &handles, DROPPER, false, cfg);
                // Enough rounds for a retirement to age out within the
                // execution once the reader has unpinned.
                for _ in 0..3 {
                    d.collect(false);
                }
            })
        };

        reader.join().expect("reader");
        dropper.join().expect("dropper");
    }
}
