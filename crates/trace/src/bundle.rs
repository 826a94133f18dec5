//! Self-contained post-mortem bundles.
//!
//! A dump — requested through [`TraceSession::dump_postmortem`] or by an
//! anomaly watchdog — freezes the flight-recorder window and the
//! session's cumulative aggregates into one directory an engineer (or a
//! later tool) can read without the process that produced it:
//!
//! ```text
//! <dir>/postmortem-<seq>-<trigger>/
//!   manifest.json     schema version, trigger, cumulative commits,
//!                     aborts by reason, last level, steals, extras
//!   events.jsonl      flight-recorder window (same format as to_jsonl)
//!   decisions.jsonl   controller Decision/RubicState audit (decoded:
//!                     policy, phase, throughput, T_p, L_max, levels)
//!   histograms.json   commit / abort→restart / lock-hold quantiles
//!   contention.json   top-K contention table (labels, per-reason)
//! ```
//!
//! The bundle schema is versioned by [`BUNDLE_SCHEMA`]; every file that
//! needs self-description carries it. The writer never panics on I/O —
//! errors surface to the caller (the collector logs and drops them).
//!
//! [`TraceSession::dump_postmortem`]: crate::TraceSession::dump_postmortem

use std::io;
use std::path::{Path, PathBuf};

use rubic_sync::atomic::{AtomicU64, Ordering};

use crate::event::{codes, EventKind};
use crate::hist::LogHistogram;
use crate::recorder::now_ns;
use crate::report::{escape_json, events_to_jsonl, json_f64, ContentionEntry, Sink};
use crate::sketch::ConflictSketch;

/// Bundle schema identifier written into `manifest.json`,
/// `contention.json` and `histograms.json`. Bump on any layout change.
pub const BUNDLE_SCHEMA: &str = "rubic-postmortem/v4";

/// Monotone bundle sequence number, process-wide, so concurrent or
/// repeated dumps never collide on a directory name.
// ordering: Relaxed — a pure ID allocator; no data is published through it.
static BUNDLE_SEQ: AtomicU64 = AtomicU64::new(0);

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

/// Renders one contention-table row as a JSON object.
fn contention_entry_json(c: &ContentionEntry) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(256);
    let _ = write!(s, "{{\"addr\":{},", c.addr);
    match &c.label {
        Some(l) => {
            let _ = write!(s, "\"label\":\"{}\",", escape_json(l));
        }
        None => s.push_str("\"label\":null,"),
    }
    let _ = write!(
        s,
        "\"count\":{},\"err\":{},\"by_reason\":{{",
        c.count, c.err
    );
    let mut first = true;
    for (i, &n) in c.by_reason.iter().enumerate() {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "\"{}\":{}", codes::ABORT_NAMES[i], n);
    }
    let _ = write!(
        s,
        "}},\"lock_holds\":{},\"hold_p50_ns\":{},\"hold_p99_ns\":{}}}",
        c.lock_holds, c.hold_p50_ns, c.hold_p99_ns
    );
    s
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

/// Writes one bundle of `sink`'s current state under `dir`, returning
/// the created bundle directory path. `merged` is the session's merged
/// conflict sketch; `extras` are the caller's manifest key/value pairs.
///
/// # Errors
/// Any filesystem error creating the directory or writing a file.
pub(crate) fn write_bundle(
    dir: &Path,
    trigger: &str,
    sink: &Sink,
    merged: &ConflictSketch,
    extras: &[(String, String)],
) -> io::Result<PathBuf> {
    use std::fmt::Write as _;

    // ordering: Relaxed — ID allocation only.
    let seq = BUNDLE_SEQ.fetch_add(1, Ordering::Relaxed);
    let bundle = dir.join(format!("postmortem-{seq}-{}", path_tag(trigger)));
    std::fs::create_dir_all(&bundle)?;
    let events = sink.flight_events();

    // manifest.json
    let mut manifest = String::from("{\n");
    let _ = writeln!(manifest, "  \"schema\": \"{BUNDLE_SCHEMA}\",");
    let _ = writeln!(manifest, "  \"seq\": {seq},");
    let _ = writeln!(manifest, "  \"trigger\": \"{}\",", escape_json(trigger));
    let _ = writeln!(manifest, "  \"ts_ns\": {},", now_ns());
    let _ = writeln!(manifest, "  \"dropped_events\": {},", sink.dropped);
    let _ = writeln!(manifest, "  \"flight_events\": {},", events.len());
    let _ = writeln!(manifest, "  \"commits\": {},", sink.commit_latency.count());
    let aborts: Vec<String> = codes::ABORT_NAMES
        .iter()
        .zip(sink.abort_breakdown)
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    let _ = writeln!(manifest, "  \"aborts\": {{{}}},", aborts.join(", "));
    let _ = writeln!(manifest, "  \"level\": {},", sink.last_level);
    let _ = writeln!(
        manifest,
        "  \"steals\": {{\"total\": {}, \"gated\": {}}},",
        sink.steals, sink.steals_gated
    );
    manifest.push_str("  \"extras\": {");
    for (i, (k, v)) in extras.iter().enumerate() {
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
    if !extras.is_empty() {
        manifest.push_str("\n  ");
    }
    manifest.push_str("}\n}\n");
    std::fs::write(bundle.join("manifest.json"), manifest)?;

    // events.jsonl — the flight window.
    std::fs::write(bundle.join("events.jsonl"), events_to_jsonl(&events))?;

    // decisions.jsonl — the controller audit, decoded.
    let mut decisions = String::new();
    for e in &events {
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
        hist_json("commit_latency_ns", &sink.commit_latency),
        hist_json("abort_restart_ns", &sink.abort_restart_latency),
        hist_json("lock_hold_ns", &sink.lock_hold),
    );
    std::fs::write(bundle.join("histograms.json"), hists)?;

    // contention.json
    let mut contention = format!("{{\"schema\": \"{BUNDLE_SCHEMA}\",\"entries\":[");
    for (i, c) in sink.contention_table(merged).iter().enumerate() {
        if i > 0 {
            contention.push(',');
        }
        contention.push('\n');
        contention.push_str(&contention_entry_json(c));
    }
    contention.push_str("\n]}\n");
    std::fs::write(bundle.join("contention.json"), contention)?;

    Ok(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn ev(kind: EventKind, code: u8, ts_ns: u64, a: u64, b: u64, c: u64) -> Event {
        Event {
            ts_ns,
            kind,
            code,
            tid: 1,
            a,
            b,
            c,
        }
    }

    fn read(bundle: &Path, file: &str) -> String {
        std::fs::read_to_string(bundle.join(file)).expect(file)
    }

    #[test]
    fn bundle_writes_all_files_with_valid_structure() {
        let tmp = std::env::temp_dir().join(format!("rubic-bundle-test-{}", std::process::id()));
        crate::labels::set_label(0xAB, "hot");
        let mut sink = Sink::new();
        sink.add(ev(
            EventKind::TxnAbort,
            codes::ABORT_LOCK_BUSY,
            10,
            5,
            1,
            0xAB,
        ));
        sink.add(ev(EventKind::LockHold, 0, 15, 64, 0xAB, 0));
        sink.add(ev(
            EventKind::Decision,
            codes::PHASE_GROWTH_CUBIC,
            20,
            123.5f64.to_bits(),
            (2 << 32) | 3,
            0,
        ));
        sink.add(ev(
            EventKind::RubicState,
            codes::PHASE_GROWTH_CUBIC,
            30,
            9.5f64.to_bits(),
            4.0f64.to_bits(),
            (2 << 32) | 3,
        ));
        sink.add(ev(EventKind::LevelChange, 0, 40, 2, 3, 1));
        sink.add(ev(EventKind::TxnCommit, 0, 50, 100, 0, 1));
        let mut merged = ConflictSketch::new(4);
        for _ in 0..3 {
            merged.update(0xAB, codes::ABORT_LOCK_BUSY);
        }
        let extras = [("features".to_string(), "trace,chaos".to_string())];
        let bundle = write_bundle(&tmp, "manual", &sink, &merged, &extras).expect("bundle written");
        let mut files: Vec<String> = std::fs::read_dir(&bundle)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(
            files,
            [
                "contention.json",
                "decisions.jsonl",
                "events.jsonl",
                "histograms.json",
                "manifest.json"
            ]
        );
        for file in &files {
            let body = read(&bundle, file);
            assert!(!body.is_empty(), "{file} empty");
            // Balanced braces: cheap structural validity without a JSON
            // parser in the tree.
            assert_eq!(
                body.matches('{').count(),
                body.matches('}').count(),
                "{file}"
            );
        }
        let manifest = read(&bundle, "manifest.json");
        assert!(manifest.contains(BUNDLE_SCHEMA));
        assert!(manifest.contains("\"trigger\": \"manual\""));
        assert!(manifest.contains("\"features\": \"trace,chaos\""));
        assert!(manifest.contains("\"flight_events\": 6,"));
        assert!(manifest.contains("\"commits\": 1,"));
        assert!(manifest.contains(
            "\"aborts\": {\"read-validation\": 0, \"lock-busy\": 1, \"cm-kill\": 0, \"chaos\": 0, \"explicit\": 0},"
        ));
        assert!(manifest.contains("\"level\": 3,"));
        let contention = read(&bundle, "contention.json");
        assert!(contention.contains("\"label\":\"hot\""));
        assert!(contention.contains("\"lock-busy\":3"));
        assert!(contention.contains("\"lock_holds\":1"));
        let decisions = read(&bundle, "decisions.jsonl");
        assert_eq!(decisions.lines().count(), 2);
        assert!(decisions.contains("\"t_p\":9.5"));
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn steal_counters_split_on_the_gated_flag_bit() {
        let tmp = std::env::temp_dir().join(format!("rubic-bundle-steal-{}", std::process::id()));
        let mut sink = Sink::new();
        for (flags, ts) in [(0b00, 10), (0b01, 20), (0b00, 30), (0b01, 40)] {
            sink.add(ev(EventKind::TaskSteal, flags, ts, 1 << 32, 4, 8));
        }
        let bundle = write_bundle(&tmp, "manual", &sink, &ConflictSketch::new(4), &[]).unwrap();
        let manifest = read(&bundle, "manifest.json");
        assert!(
            manifest.contains("\"steals\": {\"total\": 4, \"gated\": 2},"),
            "{manifest}"
        );
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn bundle_dirs_never_collide() {
        let tmp = std::env::temp_dir().join(format!("rubic-bundle-seq-{}", std::process::id()));
        let sink = Sink::new();
        let merged = ConflictSketch::new(4);
        let a = write_bundle(&tmp, "manual", &sink, &merged, &[]).unwrap();
        let b = write_bundle(&tmp, "manual", &sink, &merged, &[]).unwrap();
        assert_ne!(a, b);
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
