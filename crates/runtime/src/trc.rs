//! Feature-gated bridge to `rubic-trace` for the pool monitor.
//!
//! With the **`trace`** feature on, the monitor thread emits one
//! `MonitorRound` event per measurement interval, a `WorkerDelta` per
//! active worker, and a `LevelChange` whenever it applies a new
//! parallelism level — the runtime-side counterpart of the STM's
//! transaction events. All no-ops when the feature is off.

#[cfg(feature = "trace")]
mod enabled {
    use rubic_trace::{emit, is_enabled, EventKind};

    /// Anomaly kind codes, re-exported so watchdog call sites need no
    /// feature gates of their own.
    pub(crate) const ANOMALY_ABORT_STORM: u8 = rubic_trace::codes::ANOMALY_ABORT_STORM;
    pub(crate) const ANOMALY_LEVEL_OSCILLATION: u8 = rubic_trace::codes::ANOMALY_LEVEL_OSCILLATION;

    /// Whether a trace session is currently recording — lets the monitor
    /// skip the per-worker delta scan entirely when nobody listens.
    #[inline]
    pub(crate) fn active() -> bool {
        is_enabled()
    }

    /// One completed monitor round (Algorithm 1's measurement step):
    /// tasks and aborts completed in the interval, the level it ran at,
    /// and the throughput handed to the controller.
    #[inline]
    pub(crate) fn monitor_round(round: u64, commits: u64, level: u32, aborts: u64, t_c: f64) {
        if is_enabled() {
            emit(
                EventKind::MonitorRound,
                0,
                (round << 32) | (commits & 0xFFFF_FFFF),
                (u64::from(level) << 32) | (aborts & 0xFFFF_FFFF),
                t_c.to_bits(),
            );
        }
    }

    /// Per-worker completed-task/abort delta for one monitor round.
    #[inline]
    pub(crate) fn worker_delta(worker: usize, commits: u64, round: u64, aborts: u64) {
        if is_enabled() {
            emit(
                EventKind::WorkerDelta,
                0,
                ((worker as u64) << 32) | (commits & 0xFFFF_FFFF),
                round,
                aborts,
            );
        }
    }

    /// The monitor applied a new parallelism level.
    #[inline]
    pub(crate) fn level_change(old: u32, new: u32, round: u64) {
        if is_enabled() {
            emit(
                EventKind::LevelChange,
                0,
                u64::from(old),
                u64::from(new),
                round,
            );
        }
    }

    /// A worker parked on the gate (`parked`) or resumed from it.
    #[inline]
    pub(crate) fn worker_park(tid: usize, level: u32, parked: bool) {
        if is_enabled() {
            emit(
                EventKind::WorkerPark,
                u8::from(!parked),
                tid as u64,
                u64::from(level),
                0,
            );
        }
    }

    /// A dry worker moved `n` tasks from `victim`'s shard to its own
    /// local buffer; `victim_len` is the shard length before the steal.
    /// Bit 0 of the flags byte is set when the victim's owner sat above
    /// the level (gated).
    #[inline]
    pub(crate) fn task_steal(
        thief: usize,
        victim: usize,
        n: usize,
        victim_len: usize,
        gated: bool,
    ) {
        if is_enabled() {
            emit(
                EventKind::TaskSteal,
                u8::from(gated),
                ((thief as u64) << 32) | (victim as u64 & 0xFFFF_FFFF),
                n as u64,
                victim_len as u64,
            );
        }
    }

    /// An anomaly watchdog fired: records the `Anomaly` event
    /// (`kind` is one of `rubic_trace::codes::ANOMALY_*`) and asks the
    /// trace collector to freeze the flight recorder into a post-mortem
    /// bundle.
    #[inline]
    pub(crate) fn anomaly(kind: u8, observed: u64, threshold: u64, round: u64) {
        if is_enabled() {
            emit(EventKind::Anomaly, kind, observed, threshold, round);
            rubic_trace::request_postmortem(kind);
        }
    }
}

#[cfg(feature = "trace")]
pub(crate) use enabled::*;

#[cfg(not(feature = "trace"))]
mod disabled {
    /// Mirrors of `rubic_trace::codes::ANOMALY_*` for no-trace builds.
    pub(crate) const ANOMALY_ABORT_STORM: u8 = 0;
    pub(crate) const ANOMALY_LEVEL_OSCILLATION: u8 = 1;

    #[inline(always)]
    pub(crate) fn active() -> bool {
        false
    }

    #[inline(always)]
    pub(crate) fn monitor_round(_round: u64, _commits: u64, _level: u32, _aborts: u64, _t_c: f64) {}

    #[inline(always)]
    pub(crate) fn worker_delta(_worker: usize, _commits: u64, _round: u64, _aborts: u64) {}

    #[inline(always)]
    pub(crate) fn level_change(_old: u32, _new: u32, _round: u64) {}

    #[inline(always)]
    pub(crate) fn worker_park(_tid: usize, _level: u32, _parked: bool) {}

    #[inline(always)]
    pub(crate) fn task_steal(
        _thief: usize,
        _victim: usize,
        _n: usize,
        _victim_len: usize,
        _gated: bool,
    ) {
    }

    #[inline(always)]
    pub(crate) fn anomaly(_kind: u8, _observed: u64, _threshold: u64, _round: u64) {}
}

#[cfg(not(feature = "trace"))]
pub(crate) use disabled::*;
