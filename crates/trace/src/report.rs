//! Aggregation of drained events and the export formats.
//!
//! The collector thread feeds decoded [`Event`]s into a [`Sink`], which
//! accumulates the event log, the three latency histograms, the
//! abort-reason breakdown, the parallelism-level timeline, per-TVar
//! lock-hold aggregates, the steal counters and the bounded
//! flight-recorder buffer as events arrive. A post-mortem bundle reads
//! the sink mid-session; at session end it freezes into a
//! [`TraceReport`], which can render itself as JSON-lines
//! ([`TraceReport::to_jsonl`]) or as a `chrome://tracing` document
//! ([`TraceReport::to_chrome_trace`]) loadable in Perfetto.

use std::collections::{HashMap, VecDeque};

use crate::event::{codes, Event, EventKind};
use crate::hist::LogHistogram;
use crate::labels;
use crate::sketch::ConflictSketch;

/// One applied parallelism-level change, taken from `LevelChange` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelSample {
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Level before the change.
    pub old_level: u32,
    /// Level after the change.
    pub new_level: u32,
    /// Monitor round that applied it.
    pub round: u64,
}

/// A 64-bucket power-of-two histogram: ~512 bytes per tracked address
/// instead of a full [`LogHistogram`], at factor-of-two quantile
/// accuracy — plenty for ranking contended variables.
#[derive(Debug, Clone)]
struct MiniHist {
    counts: [u64; 64],
    count: u64,
    max: u64,
}

impl MiniHist {
    fn new() -> MiniHist {
        MiniHist {
            counts: [0; 64],
            count: 0,
            max: 0,
        }
    }

    fn record(&mut self, v: u64) {
        let bucket = if v == 0 { 0 } else { v.ilog2() as usize };
        self.counts[bucket] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// The lower bound of the bucket holding the `ceil(q·count)`-th
    /// smallest recording (0 when empty).
    fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if idx == 0 { 0 } else { 1u64 << idx };
            }
        }
        self.max
    }
}

/// Per-lock-address aggregates fed by `LockHold` events.
#[derive(Debug, Clone)]
struct AddrAggregate {
    hold: MiniHist,
    holds_commit: u64,
    holds_abort: u64,
}

impl AddrAggregate {
    fn new() -> AddrAggregate {
        AddrAggregate {
            hold: MiniHist::new(),
            holds_commit: 0,
            holds_abort: 0,
        }
    }
}

/// Caps the per-address aggregate map; addresses past the cap fold into
/// [`Sink::addr_overflow`] instead of growing without bound.
const MAX_TRACKED_ADDRS: usize = 1024;

/// Flight-recorder retention window: the last five seconds of events.
const FLIGHT_WINDOW_NS: u64 = 5_000_000_000;
/// Flight-recorder hard event cap (drop-oldest past this).
const FLIGHT_CAPACITY: usize = 1 << 16;
/// Contention-table size in reports and bundles.
const TOP_K: usize = 16;

/// Streaming accumulator the collector drains into. Post-mortem bundles
/// read its cumulative fields directly.
pub(crate) struct Sink {
    events: Vec<Event>,
    /// Flight recorder: the last `FLIGHT_WINDOW_NS` of events (all
    /// kinds), bounded by `FLIGHT_CAPACITY`.
    recent: VecDeque<Event>,
    pub(crate) commit_latency: LogHistogram,
    pub(crate) abort_restart_latency: LogHistogram,
    pub(crate) lock_hold: LogHistogram,
    pub(crate) abort_breakdown: [u64; codes::ABORT_REASONS],
    level_timeline: Vec<LevelSample>,
    addr_stats: HashMap<u64, AddrAggregate>,
    addr_overflow: u64,
    pub(crate) steals: u64,
    pub(crate) steals_gated: u64,
    anomalies: [u64; codes::ANOMALY_NAMES.len()],
    pub(crate) last_level: u32,
    pub(crate) dropped: u64,
}

impl Sink {
    pub(crate) fn new() -> Sink {
        Sink {
            events: Vec::new(),
            recent: VecDeque::new(),
            commit_latency: LogHistogram::new(),
            abort_restart_latency: LogHistogram::new(),
            lock_hold: LogHistogram::new(),
            abort_breakdown: [0; codes::ABORT_REASONS],
            level_timeline: Vec::new(),
            addr_stats: HashMap::new(),
            addr_overflow: 0,
            steals: 0,
            steals_gated: 0,
            anomalies: [0; codes::ANOMALY_NAMES.len()],
            last_level: 0,
            dropped: 0,
        }
    }

    fn addr_entry(&mut self, addr: u64) -> Option<&mut AddrAggregate> {
        if addr == 0 {
            return None;
        }
        if self.addr_stats.len() >= MAX_TRACKED_ADDRS && !self.addr_stats.contains_key(&addr) {
            self.addr_overflow += 1;
            return None;
        }
        Some(
            self.addr_stats
                .entry(addr)
                .or_insert_with(AddrAggregate::new),
        )
    }

    pub(crate) fn add(&mut self, event: Event) {
        match event.kind {
            EventKind::TxnCommit => self.commit_latency.record(event.a),
            EventKind::TxnRestart => self.abort_restart_latency.record(event.a),
            EventKind::LockHold => {
                self.lock_hold.record(event.a);
                let aborted = event.code == 1;
                let (hold_ns, addr) = (event.a, event.b);
                if let Some(agg) = self.addr_entry(addr) {
                    agg.hold.record(hold_ns);
                    if aborted {
                        agg.holds_abort += 1;
                    } else {
                        agg.holds_commit += 1;
                    }
                }
            }
            EventKind::TxnAbort => {
                let idx = (event.code as usize).min(codes::ABORT_REASONS - 1);
                self.abort_breakdown[idx] += 1;
            }
            EventKind::LevelChange => {
                self.last_level = event.b as u32;
                self.level_timeline.push(LevelSample {
                    ts_ns: event.ts_ns,
                    old_level: event.a as u32,
                    new_level: event.b as u32,
                    round: event.c,
                });
            }
            EventKind::MonitorRound => self.last_level = (event.b >> 32) as u32,
            EventKind::TaskSteal => {
                self.steals += 1;
                // Flags bit 0: the victim's owner was gated.
                self.steals_gated += u64::from(event.code & 1);
            }
            EventKind::Anomaly => {
                let idx = (event.code as usize).min(codes::ANOMALY_NAMES.len() - 1);
                self.anomalies[idx] += 1;
            }
            _ => {}
        }
        self.recent.push_back(event);
        let horizon = event.ts_ns.saturating_sub(FLIGHT_WINDOW_NS);
        while self.recent.len() > FLIGHT_CAPACITY
            || self.recent.front().is_some_and(|e| e.ts_ns < horizon)
        {
            self.recent.pop_front();
        }
        self.events.push(event);
    }

    /// The flight-recorder window, sorted by timestamp (rings drain per
    /// thread, so raw arrival order interleaves).
    pub(crate) fn flight_events(&self) -> Vec<Event> {
        let mut evs: Vec<Event> = self.recent.iter().copied().collect();
        evs.sort_by_key(|e| e.ts_ns);
        evs
    }

    /// Builds the top-K contention table by joining the merged conflict
    /// sketch with the per-address lock-hold aggregates and the label
    /// registry.
    pub(crate) fn contention_table(&self, merged: &ConflictSketch) -> Vec<ContentionEntry> {
        merged
            .top(TOP_K)
            .into_iter()
            .map(|c| {
                let agg = self.addr_stats.get(&c.addr);
                ContentionEntry {
                    addr: c.addr,
                    label: labels::label(c.addr),
                    count: c.count,
                    err: c.err,
                    by_reason: c.by_reason,
                    lock_holds: agg.map_or(0, |a| a.holds_commit + a.holds_abort),
                    hold_p50_ns: agg.map_or(0, |a| a.hold.value_at_quantile(0.50)),
                    hold_p99_ns: agg.map_or(0, |a| a.hold.value_at_quantile(0.99)),
                }
            })
            .collect()
    }

    pub(crate) fn into_report(mut self, merged: &ConflictSketch) -> TraceReport {
        // Rings drain per thread, so interleave by timestamp for export.
        self.events.sort_by_key(|e| e.ts_ns);
        self.level_timeline.sort_by_key(|s| s.ts_ns);
        let contention = self.contention_table(merged);
        TraceReport {
            events: self.events,
            commit_latency: self.commit_latency,
            abort_restart_latency: self.abort_restart_latency,
            lock_hold: self.lock_hold,
            abort_breakdown: self.abort_breakdown,
            level_timeline: self.level_timeline,
            contention,
            anomalies: self.anomalies,
            dropped: self.dropped,
        }
    }
}

/// One row of the top-K contention table: a culprit `TVar` with its
/// estimated conflict count, per-reason breakdown, and lock-hold
/// aggregates.
#[derive(Debug, Clone)]
pub struct ContentionEntry {
    /// The `TVar`'s `lock_addr()` identity (matches `LockHold.b` and the
    /// `LockLeakDetector` oracle's identity).
    pub addr: u64,
    /// User label registered via `TVar::labelled`, if any.
    pub label: Option<String>,
    /// Estimated conflicts attributed to this `TVar` (never undercounts;
    /// overshoots by at most `err`).
    pub count: u64,
    /// Space-saving overestimate bound for `count`.
    pub err: u64,
    /// Conflicts by abort-reason code (index = `codes::ABORT_*`); sums
    /// to `count - err`.
    pub by_reason: [u64; codes::ABORT_REASONS],
    /// Write-lock holds observed on this `TVar` (commit + abort releases).
    pub lock_holds: u64,
    /// Median write-lock hold time, nanoseconds (factor-2 buckets).
    pub hold_p50_ns: u64,
    /// 99th-percentile write-lock hold time, nanoseconds.
    pub hold_p99_ns: u64,
}

impl ContentionEntry {
    /// `label` if registered, else the hex address.
    fn display_name(&self) -> String {
        self.label
            .clone()
            .unwrap_or_else(|| format!("{:#x}", self.addr))
    }
}

/// Everything a finished [`TraceSession`](crate::TraceSession) observed.
#[derive(Debug)]
pub struct TraceReport {
    /// The full event log in timestamp order.
    pub events: Vec<Event>,
    /// Begin→commit latency of committed transactions, in nanoseconds.
    pub commit_latency: LogHistogram,
    /// Abort→restart (backoff) latency, in nanoseconds.
    pub abort_restart_latency: LogHistogram,
    /// Write-lock hold time, in nanoseconds.
    pub lock_hold: LogHistogram,
    /// Abort counts by reason code (index = `codes::ABORT_*`).
    pub abort_breakdown: [u64; codes::ABORT_REASONS],
    /// Applied parallelism-level changes in timestamp order.
    pub level_timeline: Vec<LevelSample>,
    /// Top-K contention table from the merged per-thread conflict
    /// sketches, descending by estimated conflict count.
    pub contention: Vec<ContentionEntry>,
    /// Anomaly-watchdog firings by kind (index = `codes::ANOMALY_*`).
    pub anomalies: [u64; codes::ANOMALY_NAMES.len()],
    /// Events discarded by ring overflow (drop-oldest) across all
    /// threads. Histogram counts and the breakdown exclude these.
    pub dropped: u64,
}

impl TraceReport {
    /// Total aborts across all reasons.
    #[must_use]
    pub fn total_aborts(&self) -> u64 {
        self.abort_breakdown.iter().sum()
    }

    /// Abort-reason shares as `(name, count, fraction)` rows, skipping
    /// reasons that never fired. Fractions sum to 1 when any abort
    /// occurred.
    fn abort_shares(&self) -> Vec<(&'static str, u64, f64)> {
        let total = self.total_aborts();
        self.abort_breakdown
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                #[allow(clippy::cast_precision_loss)]
                let frac = n as f64 / total as f64;
                (codes::ABORT_NAMES[i], n, frac)
            })
            .collect()
    }

    /// Renders the event log as JSON-lines: one object per event with
    /// the decoded kind name and, where the code byte has a meaning, a
    /// decoded `label`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        events_to_jsonl(&self.events)
    }

    /// Renders a `chrome://tracing` JSON document (object form, µs
    /// timestamps) that Perfetto and `chrome://tracing` both load:
    ///
    /// - committed/aborted transactions become `"X"` complete events
    ///   with their latency as the duration,
    /// - monitor rounds become `"C"` counter tracks for the pool level
    ///   and throughput,
    /// - level changes, controller decisions and chaos injections become
    ///   `"i"` instants.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let mut rows: Vec<String> = Vec::with_capacity(self.events.len());
        for e in &self.events {
            let ts_us = us(e.ts_ns);
            match e.kind {
                EventKind::TxnCommit => rows.push(format!(
                    "{{\"name\":\"txn_commit\",\"cat\":\"txn\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"reads\":{},\"writes\":{},\"attempts\":{}}}}}",
                    us(e.ts_ns.saturating_sub(e.a)),
                    us(e.a),
                    e.tid,
                    e.b >> 32,
                    e.b & 0xFFFF_FFFF,
                    e.c
                )),
                EventKind::TxnAbort => rows.push(format!(
                    "{{\"name\":\"abort:{}\",\"cat\":\"txn\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"attempt\":{}}}}}",
                    codes::abort_name(e.code),
                    us(e.ts_ns.saturating_sub(e.a)),
                    us(e.a),
                    e.tid,
                    e.b
                )),
                EventKind::MonitorRound => rows.push(format!(
                    "{{\"name\":\"pool\",\"ph\":\"C\",\"ts\":{ts_us},\"pid\":1,\"args\":{{\"level\":{},\"throughput\":{}}}}}",
                    e.b >> 32,
                    json_f64(f64::from_bits(e.c))
                )),
                EventKind::LevelChange => rows.push(format!(
                    "{{\"name\":\"level {}\\u2192{}\",\"cat\":\"pool\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{ts_us},\"pid\":1,\"tid\":{}}}",
                    e.a, e.b, e.tid
                )),
                EventKind::Decision => rows.push(format!(
                    "{{\"name\":\"decide:{}\",\"cat\":\"controller\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us},\"pid\":1,\"tid\":{},\"args\":{{\"phase\":\"{}\",\"throughput\":{},\"level\":{},\"new_level\":{}}}}}",
                    codes::policy_name(e.c),
                    e.tid,
                    codes::phase_name(e.code),
                    json_f64(f64::from_bits(e.a)),
                    e.b >> 32,
                    e.b & 0xFFFF_FFFF
                )),
                EventKind::RubicState => rows.push(format!(
                    "{{\"name\":\"rubic_state\",\"cat\":\"controller\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us},\"pid\":1,\"tid\":{},\"args\":{{\"phase\":\"{}\",\"t_p\":{},\"l_max\":{},\"level\":{},\"new_level\":{}}}}}",
                    e.tid,
                    codes::phase_name(e.code),
                    json_f64(f64::from_bits(e.a)),
                    json_f64(f64::from_bits(e.b)),
                    e.c >> 32,
                    e.c & 0xFFFF_FFFF
                )),
                EventKind::Chaos => rows.push(format!(
                    "{{\"name\":\"chaos:{}\",\"cat\":\"chaos\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us},\"pid\":1,\"tid\":{}}}",
                    codes::chaos_point_name(e.code),
                    e.tid
                )),
                // Begin/restart/lock/extend/worker-delta are summarised
                // by the histograms; as spans they would dwarf the trace.
                _ => {}
            }
        }
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(&rows.join(","));
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }

    /// A compact human-readable summary (the `trace_report` example's
    /// core output): abort breakdown, latency quantiles, level timeline.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let total = self.total_aborts();
        let _ = writeln!(s, "aborts: {total} total");
        for (name, n, frac) in self.abort_shares() {
            let _ = writeln!(s, "  {name:<16} {n:>8}  ({:.1}%)", frac * 100.0);
        }
        let _ = writeln!(
            s,
            "commit latency: n={} p50={}ns p99={}ns max={}ns",
            self.commit_latency.count(),
            self.commit_latency.p50(),
            self.commit_latency.p99(),
            self.commit_latency.max()
        );
        let _ = writeln!(
            s,
            "abort->restart: n={} p50={}ns p99={}ns",
            self.abort_restart_latency.count(),
            self.abort_restart_latency.p50(),
            self.abort_restart_latency.p99()
        );
        let _ = writeln!(
            s,
            "lock hold:      n={} p50={}ns p99={}ns",
            self.lock_hold.count(),
            self.lock_hold.p50(),
            self.lock_hold.p99()
        );
        if !self.level_timeline.is_empty() {
            let _ = writeln!(s, "level timeline ({} changes):", self.level_timeline.len());
            for l in &self.level_timeline {
                let _ = writeln!(
                    s,
                    "  t={:>9.3}ms round={:>4} {} -> {}",
                    l.ts_ns as f64 / 1e6,
                    l.round,
                    l.old_level,
                    l.new_level
                );
            }
        }
        if !self.contention.is_empty() {
            let _ = writeln!(s, "contention (top {} culprits):", self.contention.len());
            for c in &self.contention {
                let _ = writeln!(
                    s,
                    "  {:<24} conflicts~{:<8} (±{}) holds={} p50={}ns p99={}ns",
                    c.display_name(),
                    c.count,
                    c.err,
                    c.lock_holds,
                    c.hold_p50_ns,
                    c.hold_p99_ns
                );
            }
        }
        let fired: u64 = self.anomalies.iter().sum();
        if fired > 0 {
            let _ = writeln!(s, "anomalies fired: {fired}");
            for (i, &n) in self.anomalies.iter().enumerate() {
                if n > 0 {
                    let _ = writeln!(s, "  {:<18} {n}", codes::ANOMALY_NAMES[i]);
                }
            }
        }
        if self.dropped > 0 {
            let _ = writeln!(s, "dropped events (ring overflow): {}", self.dropped);
        }
        s
    }
}

/// Renders a slice of events as JSON-lines (shared by the report's full
/// log export and the post-mortem bundle's flight-window export).
#[must_use]
pub(crate) fn events_to_jsonl(events: &[Event]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        let _ = write!(
            out,
            "{{\"ts_ns\":{},\"kind\":\"{}\",\"code\":{},\"tid\":{},\"a\":{},\"b\":{},\"c\":{}",
            e.ts_ns,
            e.kind.name(),
            e.code,
            e.tid,
            e.a,
            e.b,
            e.c
        );
        if let Some(label) = code_label(e) {
            out.push_str(",\"label\":\"");
            out.push_str(&escape_json(label));
            out.push('"');
        }
        out.push_str("}\n");
    }
    out
}

/// Human label for the code byte, where the kind gives it one.
fn code_label(e: &Event) -> Option<&'static str> {
    match e.kind {
        EventKind::TxnAbort => Some(codes::abort_name(e.code)),
        EventKind::Decision | EventKind::RubicState => Some(codes::phase_name(e.code)),
        EventKind::Chaos => Some(codes::chaos_point_name(e.code)),
        EventKind::Anomaly => Some(codes::anomaly_name(e.code)),
        _ => None,
    }
}

/// Nanoseconds → microseconds with 3 decimals (chrome trace unit).
pub(crate) fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// A JSON-safe rendering of an `f64` (NaN/inf become 0, which JSON
/// cannot represent).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, code: u8, ts: u64, a: u64, b: u64, c: u64) -> Event {
        Event {
            ts_ns: ts,
            kind,
            code,
            tid: 0,
            a,
            b,
            c,
        }
    }

    fn sample_report() -> TraceReport {
        let mut sink = Sink::new();
        sink.add(ev(EventKind::TxnBegin, 0, 10, 0, 0, 0));
        sink.add(ev(EventKind::TxnCommit, 0, 1_010, 1_000, (4 << 32) | 2, 1));
        sink.add(ev(
            EventKind::TxnAbort,
            codes::ABORT_READ_VALIDATION,
            2_000,
            400,
            0,
            0,
        ));
        sink.add(ev(
            EventKind::TxnAbort,
            codes::ABORT_LOCK_BUSY,
            2_100,
            300,
            1,
            0,
        ));
        sink.add(ev(EventKind::TxnRestart, 0, 2_500, 150, 1, 0));
        sink.add(ev(EventKind::LockHold, 0, 3_000, 250, 0xBEEF, 0));
        sink.add(ev(
            EventKind::MonitorRound,
            0,
            4_000,
            (1 << 32) | 0xA,
            (2 << 32) | 3,
            1234.5f64.to_bits(),
        ));
        sink.add(ev(EventKind::LevelChange, 0, 4_100, 2, 4, 1));
        sink.add(ev(
            EventKind::Decision,
            codes::PHASE_GROWTH_CUBIC,
            4_050,
            1234.5f64.to_bits(),
            (2 << 32) | 4,
            0,
        ));
        sink.add(ev(EventKind::Chaos, 2, 5_000, 0, 0, 0));
        let mut sketch = ConflictSketch::new(8);
        sketch.update(0xBEEF, codes::ABORT_LOCK_BUSY);
        sketch.update(0xBEEF, codes::ABORT_READ_VALIDATION);
        sink.into_report(&sketch)
    }

    #[test]
    fn sink_accumulates_histograms_and_breakdown() {
        let r = sample_report();
        assert_eq!(r.commit_latency.count(), 1);
        assert_eq!(r.abort_restart_latency.count(), 1);
        assert_eq!(r.lock_hold.count(), 1);
        assert_eq!(r.total_aborts(), 2);
        assert_eq!(r.abort_breakdown[codes::ABORT_READ_VALIDATION as usize], 1);
        assert_eq!(r.abort_breakdown[codes::ABORT_LOCK_BUSY as usize], 1);
        assert_eq!(r.level_timeline.len(), 1);
        assert_eq!(r.level_timeline[0].new_level, 4);
    }

    #[test]
    fn abort_shares_sum_to_one() {
        let r = sample_report();
        let shares = r.abort_shares();
        assert_eq!(shares.len(), 2);
        let sum: f64 = shares.iter().map(|(_, _, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn events_sorted_by_timestamp() {
        let r = sample_report();
        assert!(r.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn jsonl_has_one_valid_object_per_event() {
        let r = sample_report();
        let jsonl = r.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), r.events.len());
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"kind\":\""));
            // Balanced braces is a cheap structural sanity check that
            // catches broken escaping without a JSON parser dependency.
            let open = line.matches('{').count();
            let close = line.matches('}').count();
            assert_eq!(open, close, "{line}");
        }
        assert!(jsonl.contains("\"label\":\"lock-busy\""));
    }

    #[test]
    fn chrome_trace_is_structurally_valid() {
        let r = sample_report();
        let doc = r.to_chrome_trace();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with('}'));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        assert!(doc.contains("\"ph\":\"X\""), "complete events present");
        assert!(doc.contains("\"ph\":\"C\""), "counter track present");
        assert!(doc.contains("\"ph\":\"i\""), "instants present");
        assert!(doc.contains("abort:lock-busy"));
        assert!(doc.contains("\"throughput\":1234.5"));
    }

    #[test]
    fn summary_mentions_every_section() {
        let r = sample_report();
        let s = r.summary();
        assert!(s.contains("aborts: 2 total"));
        assert!(s.contains("read-validation"));
        assert!(s.contains("commit latency"));
        assert!(s.contains("level timeline"));
    }

    #[test]
    fn microsecond_rendering() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1_234), "1.234");
        assert_eq!(us(1_000_007), "1000.007");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn contention_table_joins_sketch_and_lock_holds() {
        let r = sample_report();
        assert_eq!(r.contention.len(), 1);
        let c = &r.contention[0];
        assert_eq!(c.addr, 0xBEEF);
        assert_eq!(c.count, 2);
        assert_eq!(c.by_reason[codes::ABORT_LOCK_BUSY as usize], 1);
        // The LockHold event in the sample carried addr 0xBEEF.
        assert_eq!(c.lock_holds, 1);
        assert!(c.hold_p50_ns > 0);
    }

    #[test]
    fn flight_recorder_evicts_outside_window_and_capacity() {
        let mut sink = Sink::new();
        let last = FLIGHT_WINDOW_NS + 300;
        for ts in [0u64, 100, 200, last] {
            sink.add(ev(EventKind::TxnBegin, 0, ts, 0, 0, 0));
        }
        // The last event pushed the 0/100/200 events past the window.
        let evs = sink.flight_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].ts_ns, last);
        for i in 1..=FLIGHT_CAPACITY as u64 {
            sink.add(ev(EventKind::TxnBegin, 0, last + i, 0, 0, 0));
        }
        // The capacity caps the buffer even inside the window.
        assert_eq!(sink.flight_events().len(), FLIGHT_CAPACITY);
    }

    #[test]
    fn anomaly_events_counted() {
        let mut sink = Sink::new();
        sink.add(ev(
            EventKind::Anomaly,
            codes::ANOMALY_ABORT_STORM,
            10,
            5,
            100,
            1,
        ));
        let r = sink.into_report(&ConflictSketch::new(4));
        assert_eq!(r.anomalies[codes::ANOMALY_ABORT_STORM as usize], 1);
        assert!(r.summary().contains("abort-storm"));
    }
}
