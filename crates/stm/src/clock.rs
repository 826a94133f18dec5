//! The global version clock.
//!
//! Time-based STMs (TL2, TinySTM, SwissTM) serialise writing commits with
//! a single process-wide counter: each writing commit draws a fresh
//! timestamp and stamps every location it publishes. A transaction's
//! *read version* `rv` is a clock sample taken at start (or later, after
//! a successful extension); any location whose version exceeds `rv` may
//! have changed since the transaction's linearisation point and forces
//! revalidation.
//!
//! The clock is a single `AtomicU64`. One `fetch_add` per writing commit
//! is the textbook design; at the commit rates our workloads reach it is
//! nowhere near saturation, and it keeps correctness reasoning trivial.
//! It *is*, however, the hottest word in the process — every transaction
//! start loads it and every writing commit RMWs it — so it lives alone
//! on its cache line(s): without the padding, an unlucky neighbour in
//! the same `.data` line would be false-shared across every core running
//! transactions.

use rubic_sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

/// Process-global version clock shared by every [`crate::TVar`].
///
/// All `TVar`s in a process share one clock (as in TL2/SwissTM). Separate
/// [`crate::Stm`] instances — e.g. co-located tenant processes hosted in
/// one OS process — also share it; that is harmless, because version
/// timestamps only ever flow through the `TVar`s themselves, and
/// cross-tenant `TVar` sharing is exactly what the timestamps protect.
static GLOBAL_CLOCK: CachePadded<AtomicU64> = CachePadded::new(AtomicU64::new(0));

/// Headroom guard for the version timestamp space.
///
/// # Wraparound story
///
/// Version timestamps must stay totally ordered by plain integer
/// comparison: the versioned locks compare them (`version <= rv`), and
/// a wrapped clock would silently invert every one of those comparisons.
/// Nothing in the engine renumbers or epochs the clock, so the design
/// stance is *saturation is unreachable, and we assert it*:
///
/// * The hard encoding ceiling is `u64::MAX >> 1` — [`crate::vlock`]
///   packs `version << 1 | locked` into one word.
/// * This guard trips (debug builds) at `u64::MAX >> 2`, two full
///   doublings below the ceiling, so the assertion can never race the
///   encoding limit itself.
/// * Reaching it would take `2^62` writing commits: at an (absurd)
///   sustained 1 G commits/second that is ≈ 146 years of uptime. Release
///   builds therefore carry no branch; if a deployment ever approached
///   the limit the debug assertion in soak testing would fire decades
///   first.
pub(crate) const VERSION_HEADROOM: u64 = u64::MAX >> 2;

/// Debug-asserts that a freshly drawn timestamp is still far from the
/// encoding ceiling (see [`VERSION_HEADROOM`]). Factored out of
/// [`tick`] so the wrap guard is unit-testable without driving the
/// process-global clock anywhere near `2^62`.
#[inline]
pub(crate) fn check_headroom(stamp: u64) {
    debug_assert!(
        stamp < VERSION_HEADROOM,
        "version clock at {stamp} is within 2 doublings of the vlock \
         encoding ceiling; see clock.rs wraparound story"
    );
}

/// Returns the current clock value.
///
/// `Acquire` so that a transaction beginning at `rv = now()` observes
/// every value published by commits with timestamp `<= rv`.
#[inline]
#[must_use]
pub fn now() -> u64 {
    GLOBAL_CLOCK.load(Ordering::Acquire)
}

/// Draws a fresh, unique write timestamp (strictly greater than every
/// previously drawn one).
///
/// `AcqRel`: the increment must be ordered after the committing
/// transaction's validation loads and before its publication stores.
#[inline]
#[must_use]
pub fn tick() -> u64 {
    let stamp = GLOBAL_CLOCK.fetch_add(1, Ordering::AcqRel) + 1;
    check_headroom(stamp);
    stamp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_is_monotone_and_unique() {
        let a = tick();
        let b = tick();
        let c = tick();
        assert!(a < b && b < c);
    }

    #[test]
    fn now_sees_ticks() {
        let before = now();
        let t = tick();
        assert!(t > before);
        assert!(now() >= t);
    }

    #[test]
    fn headroom_accepts_realistic_stamps() {
        check_headroom(0);
        check_headroom(1 << 40);
        check_headroom(VERSION_HEADROOM - 1);
    }

    /// The wrap guard must trip *below* the vlock encoding ceiling, not
    /// at it — tested against the helper so the process-global clock is
    /// never perturbed.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "encoding ceiling")]
    fn headroom_trips_well_below_encoding_limit() {
        const { assert!(VERSION_HEADROOM < u64::MAX >> 1) }
        check_headroom(VERSION_HEADROOM);
    }

    #[test]
    fn concurrent_ticks_are_unique() {
        use std::collections::HashSet;
        use std::sync::{Arc, Mutex};
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let seen = Arc::clone(&seen);
            handles.push(std::thread::spawn(move || {
                let mut local = Vec::with_capacity(1000);
                for _ in 0..1000 {
                    local.push(tick());
                }
                let mut g = seen.lock().unwrap();
                for t in local {
                    assert!(g.insert(t), "duplicate timestamp {t}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(seen.lock().unwrap().len(), 4000);
    }
}
