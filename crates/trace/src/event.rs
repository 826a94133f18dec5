//! The fixed-size binary event record and its code tables.
//!
//! Instrumented code emits one [`Event`] per occurrence; the record is a
//! flat 40-byte struct so a ring slot is five `u64` words and producers
//! never allocate. Meaning is carried by [`EventKind`] plus a
//! kind-specific `code` byte and three `u64` payload words whose layout
//! each variant's doc comment states. That enum is the one copy of the
//! schema: the README points here instead of repeating it.

/// Declares [`EventKind`] from one list: the `#[repr(u8)]` enum (the
/// discriminant is the declaration index), [`EventKind::ALL`] in that
/// order, and the [`EventKind::name`] arms. A variant therefore cannot
/// exist without a decode entry and an exporter name.
macro_rules! event_kinds {
    ($($(#[$attr:meta])* $kind:ident => $name:literal,)*) => {
        /// What an [`Event`] describes.
        ///
        /// `a`/`b`/`c` are the event's payload words; `code` is the
        /// kind-specific discriminator byte. Each variant states its
        /// layout.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum EventKind {
            $($(#[$attr])* $kind,)*
        }

        impl EventKind {
            /// All kinds, in discriminant order (for decode tables).
            pub const ALL: [EventKind; [$(EventKind::$kind),*].len()] = [$(EventKind::$kind),*];

            /// Stable lower-case name used by the exporters.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $(EventKind::$kind => $name,)*
                }
            }
        }
    };
}

event_kinds! {
    /// A transaction (one `atomically` call) started its first attempt.
    /// `code` 0; `a`, `b`, `c` 0.
    TxnBegin => "txn_begin",
    /// A transaction committed. `code` 0; `a` latency ns (begin→commit);
    /// `b` `reads << 32 | writes`; `c` attempts.
    TxnCommit => "txn_commit",
    /// An attempt aborted. `code` abort reason ([`codes::abort_name`]);
    /// `a` ns since attempt start; `b` attempt index; `c` culprit lock
    /// address (0 if unknown).
    TxnAbort => "txn_abort",
    /// An aborted transaction finished backing off and restarted.
    /// `code` 0; `a` backoff ns (abort→restart); `b` attempt index; `c` 0.
    TxnRestart => "txn_restart",
    /// A write lock was released. `code` 0 commit / 1 abort release;
    /// `a` hold ns; `b` lock address; `c` 0.
    LockHold => "lock_hold",
    /// A successful timestamp extension moved the read version forward.
    /// `code` 0; `a` old read version; `b` new read version; `c` 0.
    ClockExtend => "clock_extend",
    /// The pool monitor applied a new parallelism level. `code` 0; `a`
    /// old level; `b` new level; `c` round.
    LevelChange => "level_change",
    /// One monitor round completed (Algorithm 1's measurement step).
    /// `code` 0; `a` `round << 32 | commits Δ`; `b` `level << 32 |
    /// aborts Δ`; `c` throughput `f64` bits.
    MonitorRound => "monitor_round",
    /// Per-worker completed-task delta for one monitor round. `code` 0;
    /// `a` `worker << 32 | commits Δ`; `b` round; `c` aborts Δ (this
    /// worker).
    WorkerDelta => "worker_delta",
    /// A controller's `decide()` consumed a sample (Algorithm 2 input).
    /// `code` phase ([`codes::phase_name`]); `a` throughput `f64` bits;
    /// `b` `level << 32 | new level`; `c` policy id
    /// ([`codes::policy_name`]).
    Decision => "decision",
    /// RUBIC's full CIMD state at a decision point. `code` phase; `a`
    /// `T_p` `f64` bits; `b` `L_max` `f64` bits; `c` `level << 32 | new
    /// level`.
    RubicState => "rubic_state",
    /// A chaos hook fired at an STM protocol point. `code` chaos point
    /// ([`codes::chaos_point_name`]); `a` action code; `b` spin count;
    /// `c` 0.
    Chaos => "chaos",
    /// A dry worker stole a batch of tasks from another worker's shard.
    /// `code` bit 0: victim gated; `a` `thief << 32 | victim`; `b` tasks
    /// moved; `c` victim shard length before.
    TaskSteal => "task_steal",
    /// A worker parked on the gate or resumed from it. `code` 0 park /
    /// 1 unpark; `a` worker tid; `b` level at transition; `c` 0.
    WorkerPark => "worker_park",
    /// An anomaly watchdog fired (abort storm or level oscillation);
    /// usually accompanied by a post-mortem dump. `code` anomaly kind
    /// ([`codes::anomaly_name`]); `a` observed value; `b` configured
    /// threshold; `c` round (0 if n/a).
    Anomaly => "anomaly",
}

impl EventKind {
    /// Decodes a discriminant byte.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Self::ALL.get(v as usize).copied()
    }
}

/// One trace record. `ts_ns` is nanoseconds since the session epoch;
/// `tid` is the emitting thread's ring index (registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the trace session started.
    pub ts_ns: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Kind-specific discriminator (abort reason, phase, chaos point).
    pub code: u8,
    /// Emitting thread's ring index.
    pub tid: u16,
    /// First payload word (see [`EventKind`] table).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
}

impl Event {
    /// Packs the event into five ring-slot words.
    #[must_use]
    pub fn encode(&self) -> [u64; 5] {
        let meta =
            u64::from(self.kind as u8) | (u64::from(self.code) << 8) | (u64::from(self.tid) << 16);
        [self.ts_ns, meta, self.a, self.b, self.c]
    }

    /// Unpacks five ring-slot words; `None` if the kind byte is invalid
    /// (torn or corrupted slot — never expected from a healthy ring).
    #[must_use]
    pub fn decode(w: [u64; 5]) -> Option<Event> {
        Some(Event {
            ts_ns: w[0],
            kind: EventKind::from_u8((w[1] & 0xFF) as u8)?,
            code: ((w[1] >> 8) & 0xFF) as u8,
            tid: ((w[1] >> 16) & 0xFFFF) as u16,
            a: w[2],
            b: w[3],
            c: w[4],
        })
    }
}

/// Stable code tables shared with the instrumented crates.
///
/// `rubic-stm`'s `AbortReason`, the controllers' phase markers and the
/// chaos points all serialise through these constants; each instrumented
/// crate asserts its own enum matches in a unit test so the exporter
/// names can never silently drift from the producers.
pub mod codes {
    /// Abort: commit-time or extension read-set validation failed.
    pub const ABORT_READ_VALIDATION: u8 = 0;
    /// Abort: a needed lock was held by a concurrent writer.
    pub const ABORT_LOCK_BUSY: u8 = 1;
    /// Abort: the contention manager killed the attempt.
    pub const ABORT_CM_KILL: u8 = 2;
    /// Abort: injected by the chaos hook.
    pub const ABORT_CHAOS: u8 = 3;
    /// Abort: the transaction body returned `Err` itself.
    pub const ABORT_EXPLICIT: u8 = 4;
    /// Number of distinct abort reasons.
    pub const ABORT_REASONS: usize = 5;

    /// Names for the abort-reason codes, indexed by code.
    pub const ABORT_NAMES: [&str; ABORT_REASONS] = [
        "read-validation",
        "lock-busy",
        "cm-kill",
        "chaos",
        "explicit",
    ];

    /// Decodes an abort-reason code (out-of-range codes map to a fixed
    /// placeholder rather than panicking in an exporter).
    #[must_use]
    pub fn abort_name(code: u8) -> &'static str {
        ABORT_NAMES.get(code as usize).copied().unwrap_or("unknown")
    }

    /// Controller phase: growth branch, cubic round.
    pub const PHASE_GROWTH_CUBIC: u8 = 0;
    /// Controller phase: growth branch, linear (+1) round.
    pub const PHASE_GROWTH_LINEAR: u8 = 1;
    /// Controller phase: reduction branch, linear (−2) step.
    pub const PHASE_REDUCE_LINEAR: u8 = 2;
    /// Controller phase: reduction branch, multiplicative (αL) cut.
    pub const PHASE_REDUCE_MULT: u8 = 3;
    /// Controller phase: exponential start (F2C2's first phase).
    pub const PHASE_EXPONENTIAL: u8 = 4;
    /// Controller phase: static / stateless decision.
    pub const PHASE_STATIC: u8 = 5;

    /// Names for the phase codes, indexed by code.
    pub const PHASE_NAMES: [&str; 6] = [
        "growth-cubic",
        "growth-linear",
        "reduce-linear",
        "reduce-mult",
        "exponential",
        "static",
    ];

    /// Decodes a phase code.
    #[must_use]
    pub fn phase_name(code: u8) -> &'static str {
        PHASE_NAMES.get(code as usize).copied().unwrap_or("unknown")
    }

    /// Policy ids carried by `Decision` events' `c` word.
    pub const POLICY_NAMES: [&str; 10] = [
        "RUBIC",
        "EBS",
        "F2C2",
        "AIMD",
        "DirectedAIAD",
        "CIMD",
        "Greedy",
        "EqualShare",
        "Fixed",
        "AIAD",
    ];

    /// Decodes a policy id.
    #[must_use]
    pub fn policy_name(id: u64) -> &'static str {
        usize::try_from(id)
            .ok()
            .and_then(|i| POLICY_NAMES.get(i).copied())
            .unwrap_or("unknown")
    }

    /// Anomaly: the pool's stall watchdog saw zero progress for its
    /// configured number of rounds — the abort-storm signature.
    pub const ANOMALY_ABORT_STORM: u8 = 0;
    /// Anomaly: the applied parallelism level flapped direction more
    /// often than the oscillation watchdog's threshold within its window.
    pub const ANOMALY_LEVEL_OSCILLATION: u8 = 1;

    /// Names for the anomaly kinds, indexed by code. These double as
    /// post-mortem bundle trigger strings.
    pub const ANOMALY_NAMES: [&str; 2] = ["abort-storm", "level-oscillation"];

    /// Decodes an anomaly code.
    #[must_use]
    pub fn anomaly_name(code: u8) -> &'static str {
        ANOMALY_NAMES
            .get(code as usize)
            .copied()
            .unwrap_or("unknown")
    }

    /// Chaos point names (`LockSample`, `PreValidate`, `PrePublish`),
    /// indexed by the engine's `ChaosPoint` discriminant.
    pub const CHAOS_POINT_NAMES: [&str; 3] = ["lock-sample", "pre-validate", "pre-publish"];

    /// Decodes a chaos-point code.
    #[must_use]
    pub fn chaos_point_name(code: u8) -> &'static str {
        CHAOS_POINT_NAMES
            .get(code as usize)
            .copied()
            .unwrap_or("unknown")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let e = Event {
            ts_ns: 123_456_789,
            kind: EventKind::TxnAbort,
            code: codes::ABORT_LOCK_BUSY,
            tid: 513,
            a: u64::MAX,
            b: 42,
            c: 7,
        };
        assert_eq!(Event::decode(e.encode()), Some(e));
    }

    #[test]
    fn every_kind_roundtrips() {
        for kind in EventKind::ALL {
            let e = Event {
                ts_ns: 1,
                kind,
                code: 2,
                tid: 3,
                a: 4,
                b: 5,
                c: 6,
            };
            assert_eq!(Event::decode(e.encode()).unwrap().kind, kind);
            assert_eq!(EventKind::from_u8(kind as u8), Some(kind));
        }
    }

    #[test]
    fn invalid_kind_rejected() {
        let mut w = Event {
            ts_ns: 0,
            kind: EventKind::TxnBegin,
            code: 0,
            tid: 0,
            a: 0,
            b: 0,
            c: 0,
        }
        .encode();
        w[1] = 0xFF; // kind byte 255: no such kind
        assert_eq!(Event::decode(w), None);
    }

    #[test]
    fn code_tables_decode() {
        assert_eq!(codes::abort_name(codes::ABORT_CHAOS), "chaos");
        assert_eq!(codes::abort_name(200), "unknown");
        assert_eq!(codes::phase_name(codes::PHASE_REDUCE_MULT), "reduce-mult");
        assert_eq!(codes::policy_name(0), "RUBIC");
        assert_eq!(codes::chaos_point_name(1), "pre-validate");
        assert_eq!(
            codes::anomaly_name(codes::ANOMALY_ABORT_STORM),
            "abort-storm"
        );
        assert_eq!(
            codes::anomaly_name(codes::ANOMALY_LEVEL_OSCILLATION),
            "level-oscillation"
        );
        assert_eq!(codes::anomaly_name(99), "unknown");
    }

    #[test]
    fn names_are_distinct_and_decoding_stops_after_all() {
        let names: std::collections::HashSet<&str> =
            EventKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), EventKind::ALL.len());
        assert_eq!(EventKind::from_u8(EventKind::ALL.len() as u8), None);
    }

    #[test]
    fn tail_kinds_have_stable_discriminants() {
        // The numeric kinds of the post-mortem schema: `Anomaly` closes
        // the table right after the pool's `WorkerPark`.
        assert_eq!(EventKind::WorkerPark as u8, 13);
        assert_eq!(EventKind::Anomaly as u8, 14);
        assert_eq!(EventKind::from_u8(14), Some(EventKind::Anomaly));
        assert_eq!(EventKind::from_u8(15), None);
    }
}
