//! Contention management: what an aborted transaction does before
//! retrying.
//!
//! Our STM resolves every conflict by aborting the transaction that
//! *detected* it (self-abort, like SwissTM's "timid" first phase), so
//! contention management reduces to spacing retries out in time. There
//! is one policy — capped exponential backoff (spin, then yield), the
//! standard choice for invisible-read STMs, where an aborted reader
//! cannot identify its enemy to arbitrate against. Every workload,
//! example and benchmark ran it; the yield-first and no-backoff
//! alternatives were selected by nothing but their own tests
//! (DESIGN.md §3).

/// Spin iterations after the first abort.
const BASE_SPINS: u32 = 32;
/// The spin count doubles per consecutive abort up to 2^this.
const MAX_EXP: u32 = 10;
/// Consecutive aborts from which the time slice is yielded as well.
const YIELD_AFTER: u32 = 4;

/// Blocks the calling thread for the `attempt`-th consecutive abort of
/// the current operation (1 on the first): spin
/// `BASE_SPINS << min(attempt, MAX_EXP)` iterations, and yield the time
/// slice once past `YIELD_AFTER`.
pub(crate) fn backoff(attempt: u32) {
    let spins = BASE_SPINS.saturating_shl(attempt.min(MAX_EXP));
    for _ in 0..spins {
        std::hint::spin_loop();
    }
    if attempt >= YIELD_AFTER {
        rubic_sync::thread::yield_now();
    }
}

trait SaturatingShl {
    fn saturating_shl(self, exp: u32) -> Self;
}

impl SaturatingShl for u32 {
    fn saturating_shl(self, exp: u32) -> u32 {
        // `checked_shl` only rejects shift amounts >= 32, not shifted-out
        // bits, so test the leading zeros explicitly.
        if exp >= 32 || self.leading_zeros() < exp {
            u32::MAX
        } else {
            self << exp
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_terminates() {
        for attempt in [0, 1, 5, 50, u32::MAX] {
            backoff(attempt); // must not hang or overflow
        }
    }

    #[test]
    fn saturating_shl_caps() {
        assert_eq!(1u32.saturating_shl(40), u32::MAX);
        assert_eq!(2u32.saturating_shl(3), 16);
        assert_eq!(u32::MAX.saturating_shl(1), u32::MAX);
    }
}
