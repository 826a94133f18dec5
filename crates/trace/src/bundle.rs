//! Self-contained post-mortem bundles.
//!
//! A dump — requested by an operator, a benchmark gate, or an anomaly
//! watchdog — freezes the flight-recorder window and the session's
//! cumulative aggregates into one directory an engineer (or a later
//! tool) can read without the process that produced it:
//!
//! ```text
//! <dir>/postmortem-<seq>-<trigger>/
//!   manifest.json     schema version, trigger, config, feature extras
//!   events.jsonl      flight-recorder window (same format as to_jsonl)
//!   decisions.jsonl   controller Decision/RubicState audit (decoded:
//!                     policy, phase, throughput, T_p, L_max, levels)
//!   histograms.json   commit / abort→restart / lock-hold quantiles
//!   contention.json   top-K contention table (labels, per-reason)
//!   snapshot.json     point-in-time MetricsSnapshot at dump time
//! ```
//!
//! The bundle schema is versioned by [`BUNDLE_SCHEMA`]; every file that
//! needs self-description carries it. The writer never panics on I/O —
//! errors surface to the caller (the collector logs and drops them).

use std::io;
use std::path::{Path, PathBuf};

use rubic_sync::atomic::{AtomicU64, Ordering};

use crate::event::{codes, Event, EventKind};
use crate::hist::LogHistogram;
use crate::report::{
    contention_entry_json, escape_json, events_to_jsonl, json_f64, ContentionEntry, MetricsSnapshot,
};

/// Bundle schema identifier written into `manifest.json`,
/// `contention.json` and `histograms.json`. Bump on any layout change.
pub const BUNDLE_SCHEMA: &str = "rubic-postmortem/v3";

/// Monotone bundle sequence number, process-wide, so concurrent or
/// repeated dumps never collide on a directory name.
// ordering: Relaxed — a pure ID allocator; no data is published through it.
static BUNDLE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Everything a dump snapshots out of the session under the sink lock.
pub(crate) struct BundleInput<'a> {
    /// Trigger string (an `codes::ANOMALY_NAMES` entry or a caller tag).
    pub(crate) trigger: &'a str,
    /// Flight-recorder window, timestamp-sorted.
    pub(crate) events: &'a [Event],
    /// Cumulative commit latency.
    pub(crate) commit_latency: &'a LogHistogram,
    /// Cumulative abort→restart latency.
    pub(crate) abort_restart_latency: &'a LogHistogram,
    /// Cumulative lock-hold time.
    pub(crate) lock_hold: &'a LogHistogram,
    /// Top-K contention table at dump time.
    pub(crate) contention: &'a [ContentionEntry],
    /// Point-in-time metrics at dump time.
    pub(crate) snapshot: &'a MetricsSnapshot,
    /// Caller-supplied manifest extras (feature flags, seeds, config).
    pub(crate) manifest: &'a [(String, String)],
    /// Human-readable session-config description for the manifest.
    pub(crate) config: String,
    /// Cumulative ring-overflow drops at dump time.
    pub(crate) dropped: u64,
}

fn hist_json(name: &str, h: &LogHistogram) -> String {
    format!(
        "\"{name}\":{{\"count\":{},\"min\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
        h.count(),
        h.min(),
        json_f64(h.mean()),
        h.p50(),
        h.p99(),
        h.max()
    )
}

/// Sanitises a trigger string for use in a path component.
fn path_tag(trigger: &str) -> String {
    trigger
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes one bundle under `dir`, returning the created bundle
/// directory path.
///
/// # Errors
/// Any filesystem error creating the directory or writing a file.
pub(crate) fn write_bundle(dir: &Path, input: &BundleInput<'_>) -> io::Result<PathBuf> {
    use std::fmt::Write as _;

    // ordering: Relaxed — ID allocation only.
    let seq = BUNDLE_SEQ.fetch_add(1, Ordering::Relaxed);
    let bundle = dir.join(format!("postmortem-{seq}-{}", path_tag(input.trigger)));
    std::fs::create_dir_all(&bundle)?;

    // manifest.json
    let mut manifest = String::from("{\n");
    let _ = writeln!(manifest, "  \"schema\": \"{BUNDLE_SCHEMA}\",");
    let _ = writeln!(manifest, "  \"seq\": {seq},");
    let _ = writeln!(
        manifest,
        "  \"trigger\": \"{}\",",
        escape_json(input.trigger)
    );
    let _ = writeln!(manifest, "  \"ts_ns\": {},", input.snapshot.ts_ns);
    let _ = writeln!(
        manifest,
        "  \"config\": \"{}\",",
        escape_json(&input.config)
    );
    let _ = writeln!(manifest, "  \"dropped_events\": {},", input.dropped);
    let _ = writeln!(manifest, "  \"flight_events\": {},", input.events.len());
    manifest.push_str("  \"extras\": {");
    for (i, (k, v)) in input.manifest.iter().enumerate() {
        if i > 0 {
            manifest.push(',');
        }
        let _ = write!(
            manifest,
            "\n    \"{}\": \"{}\"",
            escape_json(k),
            escape_json(v)
        );
    }
    if !input.manifest.is_empty() {
        manifest.push_str("\n  ");
    }
    manifest.push_str("}\n}\n");
    std::fs::write(bundle.join("manifest.json"), manifest)?;

    // events.jsonl — the flight window.
    std::fs::write(bundle.join("events.jsonl"), events_to_jsonl(input.events))?;

    // decisions.jsonl — the controller audit, decoded.
    let mut decisions = String::new();
    for e in input.events {
        match e.kind {
            EventKind::Decision => {
                let _ = writeln!(
                    decisions,
                    "{{\"ts_ns\":{},\"kind\":\"decision\",\"policy\":\"{}\",\"phase\":\"{}\",\"throughput\":{},\"level\":{},\"new_level\":{}}}",
                    e.ts_ns,
                    codes::policy_name(e.c),
                    codes::phase_name(e.code),
                    json_f64(f64::from_bits(e.a)),
                    e.b >> 32,
                    e.b & 0xFFFF_FFFF,
                );
            }
            EventKind::RubicState => {
                let _ = writeln!(
                    decisions,
                    "{{\"ts_ns\":{},\"kind\":\"rubic_state\",\"phase\":\"{}\",\"t_p\":{},\"l_max\":{},\"level\":{},\"new_level\":{}}}",
                    e.ts_ns,
                    codes::phase_name(e.code),
                    json_f64(f64::from_bits(e.a)),
                    json_f64(f64::from_bits(e.b)),
                    e.c >> 32,
                    e.c & 0xFFFF_FFFF,
                );
            }
            _ => {}
        }
    }
    std::fs::write(bundle.join("decisions.jsonl"), decisions)?;

    // histograms.json
    let hists = format!(
        "{{\"schema\": \"{BUNDLE_SCHEMA}\",{},{},{}}}\n",
        hist_json("commit_latency_ns", input.commit_latency),
        hist_json("abort_restart_ns", input.abort_restart_latency),
        hist_json("lock_hold_ns", input.lock_hold),
    );
    std::fs::write(bundle.join("histograms.json"), hists)?;

    // contention.json
    let mut contention = format!("{{\"schema\": \"{BUNDLE_SCHEMA}\",\"entries\":[");
    for (i, c) in input.contention.iter().enumerate() {
        if i > 0 {
            contention.push(',');
        }
        contention.push('\n');
        contention.push_str(&contention_entry_json(c));
    }
    contention.push_str("\n]}\n");
    std::fs::write(bundle.join("contention.json"), contention)?;

    // snapshot.json
    let mut snap = input.snapshot.to_json_line();
    snap.push('\n');
    std::fs::write(bundle.join("snapshot.json"), snap)?;

    Ok(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            ts_ns: 1_000,
            interval_ns: 1_000,
            commits: 5,
            interval_commits: 5,
            throughput: 5_000_000.0,
            aborts_by_reason: [1, 2, 0, 0, 0],
            interval_aborts: 3,
            abort_rate: 3.0 / 8.0,
            commit_p50_ns: 100,
            commit_p99_ns: 900,
            level: 2,
            steals: 5,
            steals_gated: 1,
            top_conflicts: Vec::new(),
            dropped: 0,
        }
    }

    #[test]
    fn bundle_writes_all_files_with_valid_structure() {
        let tmp = std::env::temp_dir().join(format!("rubic-bundle-test-{}", std::process::id()));
        let events = vec![
            Event {
                ts_ns: 10,
                kind: EventKind::TxnAbort,
                code: codes::ABORT_LOCK_BUSY,
                tid: 0,
                a: 5,
                b: 1,
                c: 0xAB,
            },
            Event {
                ts_ns: 20,
                kind: EventKind::Decision,
                code: codes::PHASE_GROWTH_CUBIC,
                tid: 1,
                a: 123.5f64.to_bits(),
                b: (2 << 32) | 3,
                c: 0,
            },
            Event {
                ts_ns: 30,
                kind: EventKind::RubicState,
                code: codes::PHASE_GROWTH_CUBIC,
                tid: 1,
                a: 9.5f64.to_bits(),
                b: 4.0f64.to_bits(),
                c: (2 << 32) | 3,
            },
        ];
        let hist = LogHistogram::new();
        let contention = vec![ContentionEntry {
            addr: 0xAB,
            label: Some("hot".into()),
            count: 3,
            err: 0,
            by_reason: [0, 3, 0, 0, 0],
            lock_holds: 3,
            hold_p50_ns: 64,
            hold_p99_ns: 128,
        }];
        let snap = snapshot();
        let input = BundleInput {
            trigger: "manual",
            events: &events,
            commit_latency: &hist,
            abort_restart_latency: &hist,
            lock_hold: &hist,
            contention: &contention,
            snapshot: &snap,
            manifest: &[("features".to_string(), "trace,chaos".to_string())],
            config: "ring_capacity=16384 drain_period=5ms".to_string(),
            dropped: 0,
        };
        let bundle = write_bundle(&tmp, &input).expect("bundle written");
        for file in [
            "manifest.json",
            "events.jsonl",
            "decisions.jsonl",
            "histograms.json",
            "contention.json",
            "snapshot.json",
        ] {
            let body = std::fs::read_to_string(bundle.join(file)).expect(file);
            assert!(!body.is_empty(), "{file} empty");
            // Balanced braces: cheap structural validity without a JSON
            // parser in the tree.
            assert_eq!(
                body.matches('{').count(),
                body.matches('}').count(),
                "{file}"
            );
        }
        let manifest = std::fs::read_to_string(bundle.join("manifest.json")).unwrap();
        assert!(manifest.contains(BUNDLE_SCHEMA));
        assert!(manifest.contains("\"trigger\": \"manual\""));
        assert!(manifest.contains("\"features\": \"trace,chaos\""));
        let contention_body = std::fs::read_to_string(bundle.join("contention.json")).unwrap();
        assert!(contention_body.contains("\"label\":\"hot\""));
        assert!(contention_body.contains("\"lock-busy\":3"));
        let decisions = std::fs::read_to_string(bundle.join("decisions.jsonl")).unwrap();
        assert_eq!(decisions.lines().count(), 2);
        assert!(decisions.contains("\"t_p\":9.5"));
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn bundle_dirs_never_collide() {
        let tmp = std::env::temp_dir().join(format!("rubic-bundle-seq-{}", std::process::id()));
        let hist = LogHistogram::new();
        let snap = snapshot();
        let input = BundleInput {
            trigger: "manual",
            events: &[],
            commit_latency: &hist,
            abort_restart_latency: &hist,
            lock_hold: &hist,
            contention: &[],
            snapshot: &snap,
            manifest: &[],
            config: String::new(),
            dropped: 0,
        };
        let a = write_bundle(&tmp, &input).unwrap();
        let b = write_bundle(&tmp, &input).unwrap();
        assert_ne!(a, b);
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
