//! Feature-gated bridge to `rubic-trace`.
//!
//! With the **`trace`** feature on, the engine emits structured events
//! (transaction lifecycle, lock hold times, clock extensions) through
//! [`rubic_trace::emit`]; each emit is still gated at runtime on an
//! active trace session, so even a `trace` build pays only a relaxed
//! atomic load per site while no session records.
//!
//! With the feature off, everything here is a zero-sized no-op and the
//! call sites compile away entirely — [`crate::trace_footprint`] lets
//! tests assert the per-transaction state really is 0 bytes.

use crate::abort::AbortReason;

#[cfg(feature = "trace")]
pub(crate) use enabled::*;

#[cfg(not(feature = "trace"))]
pub(crate) use disabled::*;

/// Per-transaction trace state carried by the retry loop: timestamps of
/// the transaction's first attempt and of the current attempt, so commit
/// latency (begin→commit) and per-attempt abort latency can be derived
/// without touching the clock when tracing is inactive.
#[cfg(feature = "trace")]
mod enabled {
    use super::AbortReason;
    use rubic_trace::{emit, is_enabled, now_ns, EventKind};

    /// Timestamp bundle for one `atomically` call.
    pub(crate) struct TxTrace {
        /// When the first attempt started (0 when no session was active
        /// at begin — such transactions stay invisible to the trace).
        begin_ns: u64,
        /// When the current attempt started.
        attempt_ns: u64,
        /// When the current attempt aborted (feeds restart latency).
        abort_ns: u64,
    }

    impl TxTrace {
        #[inline]
        pub(crate) fn begin() -> TxTrace {
            if !is_enabled() {
                return TxTrace {
                    begin_ns: 0,
                    attempt_ns: 0,
                    abort_ns: 0,
                };
            }
            let now = now_ns();
            emit(EventKind::TxnBegin, 0, 0, 0, 0);
            TxTrace {
                begin_ns: now,
                attempt_ns: now,
                abort_ns: 0,
            }
        }

        #[inline]
        pub(crate) fn on_commit(&self, reads: u64, writes: u64, attempts: u32) {
            if self.begin_ns == 0 || !is_enabled() {
                return;
            }
            emit(
                EventKind::TxnCommit,
                0,
                now_ns().saturating_sub(self.begin_ns),
                (reads << 32) | (writes & 0xFFFF_FFFF),
                u64::from(attempts),
            );
        }

        #[inline]
        pub(crate) fn on_abort(&mut self, reason: AbortReason, attempt: u32, addr: usize) {
            if self.begin_ns == 0 || !is_enabled() {
                return;
            }
            let now = now_ns();
            emit(
                EventKind::TxnAbort,
                reason.code(),
                now.saturating_sub(self.attempt_ns),
                u64::from(attempt),
                addr as u64,
            );
            if addr != 0 {
                // Conflict attribution: feed the per-thread space-saving
                // sketch with the culprit TVar's lock identity.
                rubic_trace::note_conflict(addr as u64, reason.code());
            }
            self.abort_ns = now;
        }

        #[inline]
        pub(crate) fn on_restart(&mut self, attempt: u32) {
            if self.begin_ns == 0 || !is_enabled() {
                return;
            }
            let now = now_ns();
            emit(
                EventKind::TxnRestart,
                0,
                now.saturating_sub(self.abort_ns),
                u64::from(attempt),
                0,
            );
            self.attempt_ns = now;
        }
    }

    /// When a write lock was acquired: a trace timestamp, or 0 when no
    /// session was recording ("don't measure").
    #[derive(Clone, Copy)]
    pub(crate) struct LockStamp(u64);

    impl LockStamp {
        #[inline]
        pub(crate) fn now() -> LockStamp {
            LockStamp(if is_enabled() { now_ns() } else { 0 })
        }

        /// Emits a `LockHold` event for the lock at `addr`, held since
        /// this stamp (skipped when it was taken outside a session).
        #[inline]
        pub(crate) fn released(self, addr: usize, on_abort: bool) {
            if self.0 == 0 || !is_enabled() {
                return;
            }
            emit(
                EventKind::LockHold,
                u8::from(on_abort),
                now_ns().saturating_sub(self.0),
                addr as u64,
                0,
            );
        }
    }

    /// Registers `label` as the name of the variable locked at `addr`.
    #[inline]
    pub(crate) fn label(addr: usize, label: &str) {
        rubic_trace::set_label(addr as u64, label);
    }

    /// Emits a `ClockExtend` event after a successful extension.
    #[inline]
    pub(crate) fn clock_extend(old_rv: u64, new_rv: u64) {
        if is_enabled() {
            emit(EventKind::ClockExtend, 0, old_rv, new_rv, 0);
        }
    }
}

#[cfg(not(feature = "trace"))]
mod disabled {
    use super::AbortReason;

    /// Zero-sized stand-in: every method compiles to nothing.
    pub(crate) struct TxTrace;

    impl TxTrace {
        #[inline(always)]
        pub(crate) fn begin() -> TxTrace {
            TxTrace
        }

        #[inline(always)]
        pub(crate) fn on_commit(&self, _reads: u64, _writes: u64, _attempts: u32) {}

        #[inline(always)]
        pub(crate) fn on_abort(&mut self, _reason: AbortReason, _attempt: u32, _addr: usize) {}

        #[inline(always)]
        pub(crate) fn on_restart(&mut self, _attempt: u32) {}
    }

    /// Zero-sized stand-in: a write slot carries no timestamp.
    #[derive(Clone, Copy)]
    pub(crate) struct LockStamp;

    impl LockStamp {
        #[inline(always)]
        pub(crate) fn now() -> LockStamp {
            LockStamp
        }

        #[inline(always)]
        pub(crate) fn released(self, _addr: usize, _on_abort: bool) {}
    }

    #[inline(always)]
    pub(crate) fn label(_addr: usize, _label: &str) {}

    #[inline(always)]
    pub(crate) fn clock_extend(_old_rv: u64, _new_rv: u64) {}
}

/// Size in bytes of the per-transaction trace state. **0 when the
/// `trace` feature is off** — the no-op recorder is a ZST and the
/// instrumentation carries no data; a feature-gated test in the
/// workspace root pins this guarantee.
#[must_use]
pub fn trace_footprint() -> usize {
    std::mem::size_of::<TxTrace>()
}
