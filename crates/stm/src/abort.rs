//! Abort attribution: *why* a transaction attempt failed.
//!
//! Every conflict site in the engine tags the transaction with an
//! [`AbortReason`] before returning [`crate::StmError::Conflict`]; the
//! retry loop in [`crate::Stm::atomically`] reads the tag when it
//! records the abort, so [`crate::StmStats`] can break aborts down by
//! cause. The public `StmError` stays a single `Conflict` variant — user
//! code never needs the reason to behave correctly, only observers do.
//!
//! The discriminants are a stable wire format: they match the
//! `rubic-trace` code table (`rubic_trace::codes::ABORT_*`) byte for
//! byte, so trace events and stats counters index the same taxonomy. A
//! feature-gated test asserts the two tables agree.

/// Why a transaction attempt aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AbortReason {
    /// Commit-time or extension-time read-set validation found a read
    /// whose version changed — a conflicting writer committed first.
    ReadValidation = 0,
    /// A versioned lock needed for a read or write was held by a
    /// concurrent writer (eager W/W detection, or a reader meeting a
    /// locked variable).
    LockBusy = 1,
    /// The contention manager killed the attempt. Reserved: the engine's
    /// one policy (self-abort and back off) never kills, but the code is
    /// part of the exported taxonomy and stays allocated.
    CmKill = 2,
    /// The chaos hook forced the abort (fault injection).
    Chaos = 3,
    /// The transaction body itself returned `Err` without the engine
    /// flagging a conflict first (an explicit user retry).
    Explicit = 4,
}

impl AbortReason {
    /// Number of distinct reasons.
    pub const COUNT: usize = 5;

    /// All reasons, in discriminant order.
    pub const ALL: [AbortReason; AbortReason::COUNT] = [
        AbortReason::ReadValidation,
        AbortReason::LockBusy,
        AbortReason::CmKill,
        AbortReason::Chaos,
        AbortReason::Explicit,
    ];

    /// The stable wire code (equals the `rubic_trace::codes::ABORT_*`
    /// constant of the same name).
    #[inline]
    #[must_use]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a wire code.
    #[must_use]
    pub fn from_code(code: u8) -> Option<AbortReason> {
        Self::ALL.get(code as usize).copied()
    }

    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AbortReason::ReadValidation => "read-validation",
            AbortReason::LockBusy => "lock-busy",
            AbortReason::CmKill => "cm-kill",
            AbortReason::Chaos => "chaos",
            AbortReason::Explicit => "explicit",
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for reason in AbortReason::ALL {
            assert_eq!(AbortReason::from_code(reason.code()), Some(reason));
        }
        assert_eq!(AbortReason::from_code(200), None);
    }

    /// The engine's reason codes and the trace crate's code table are
    /// the same wire format; drifting silently would mislabel every
    /// exported abort event.
    #[cfg(feature = "trace")]
    #[test]
    fn codes_match_trace_table() {
        use rubic_trace::codes;
        assert_eq!(
            AbortReason::ReadValidation.code(),
            codes::ABORT_READ_VALIDATION
        );
        assert_eq!(AbortReason::LockBusy.code(), codes::ABORT_LOCK_BUSY);
        assert_eq!(AbortReason::CmKill.code(), codes::ABORT_CM_KILL);
        assert_eq!(AbortReason::Chaos.code(), codes::ABORT_CHAOS);
        assert_eq!(AbortReason::Explicit.code(), codes::ABORT_EXPLICIT);
        assert_eq!(AbortReason::COUNT, codes::ABORT_REASONS);
        for reason in AbortReason::ALL {
            assert_eq!(reason.name(), codes::abort_name(reason.code()));
        }
    }
}
