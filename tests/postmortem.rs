//! End-to-end tests of the diagnosis layer: anomaly-triggered
//! post-mortem bundles, culprit attribution against the always-on STM
//! stats, the runtime's level-oscillation watchdog, and attribution
//! determinism under seeded chaos.
//!
//! Compiled only with `--features trace`. Trace sessions are
//! process-global, so every test serialises on one mutex (same
//! discipline as `trace_harness.rs`).
#![cfg(feature = "trace")]

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use rubic::prelude::*;
use rubic::trace::{codes, TraceConfig, TraceSession};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A fresh empty scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rubic-pm-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The `postmortem-*` bundle directories inside `dir`, sorted by name.
fn bundles_in(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("postmortem-"))
        })
        .collect();
    out.sort();
    out
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Reconciles the trace's abort breakdown with the STM's own counts.
/// Ring overflow can only hide aborts from the trace, never invent
/// them: per reason the trace sees at most what the STM counted, the
/// shortfall is bounded by the dropped events, and with no drops the
/// two agree exactly.
fn assert_aborts_reconcile(trace: &[u64], stm: &[u64], dropped: u64) {
    let mut missing = 0;
    for (code, (&seen, &counted)) in trace.iter().zip(stm).enumerate() {
        let name = codes::abort_name(code as u8);
        assert!(seen <= counted, "{name}: trace saw {seen} > STM {counted}");
        missing += counted - seen;
    }
    assert!(
        missing <= dropped,
        "trace missed {missing} aborts but dropped only {dropped} events"
    );
}

/// Induced abort storm on a labelled TVar: when the storm anomaly is
/// raised (the same request the runtime's stall watchdog issues), the
/// collector must auto-dump exactly one bundle whose contention table
/// names the deliberately contended variable as top culprit, with
/// per-reason counts consistent with the always-on STM stats.
#[test]
fn abort_storm_auto_dumps_bundle_naming_the_culprit() {
    let _serial = serial();
    let dir = scratch_dir("storm");
    let stm = Stm::default();
    let hot = TVar::labelled(0u64, "storm-target");
    let decoy = TVar::new(0u64);

    let before = stm.stats().snapshot();
    let session = TraceSession::start(TraceConfig {
        postmortem_dir: Some(dir.clone()),
        manifest: vec![("test".into(), "abort-storm-e2e".into())],
    });

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for i in 0..400u64 {
                    stm.atomically(|tx| tx.modify(&hot, |x| x + 1));
                    if i % 16 == 0 {
                        // Uncontended traffic: must never outrank `hot`.
                        stm.atomically(|tx| {
                            let _ = tx.read(&decoy)?;
                            Ok(())
                        });
                    }
                }
            });
        }
    });

    // Stand in for the stall watchdog with the identical request it
    // issues through `trc::anomaly` after its eprintln diagnostic.
    rubic::trace::request_postmortem(codes::ANOMALY_ABORT_STORM);
    // Duplicate requests of the same kind must coalesce into one dump.
    rubic::trace::request_postmortem(codes::ANOMALY_ABORT_STORM);
    let report = session.finish();
    let delta = stm.stats().snapshot().delta_since(&before);

    let bundles = bundles_in(&dir);
    assert_eq!(
        bundles.len(),
        1,
        "exactly one auto-dumped bundle: {bundles:?}"
    );
    let bundle = &bundles[0];
    assert!(
        bundle
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("abort-storm"),
        "trigger name in dir: {}",
        bundle.display()
    );

    let manifest = read(&bundle.join("manifest.json"));
    assert!(manifest.contains(rubic::trace::BUNDLE_SCHEMA));
    assert!(manifest.contains("abort-storm"));
    assert!(
        manifest.contains("abort-storm-e2e"),
        "config manifest extras"
    );
    for file in [
        "events.jsonl",
        "decisions.jsonl",
        "histograms.json",
        "contention.json",
    ] {
        assert!(bundle.join(file).is_file(), "missing {file}");
    }
    assert!(!bundle.join("snapshot.json").exists());
    // The manifest's cumulative counts come from the same sink as the
    // report, after the same drain: the dump drains before it freezes,
    // and nothing commits or aborts after the request.
    assert!(
        manifest.contains(&format!("\"commits\": {},", report.commit_latency.count())),
        "{manifest}"
    );
    let aborts: Vec<String> = codes::ABORT_NAMES
        .iter()
        .zip(report.abort_breakdown)
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    assert!(
        manifest.contains(&format!("\"aborts\": {{{}}},", aborts.join(", "))),
        "{manifest}"
    );
    assert_aborts_reconcile(
        &report.abort_breakdown,
        &delta.abort_reasons,
        report.dropped,
    );

    if delta.aborts == 0 {
        // Serialised scheduler, no conflicts: attribution is vacuous.
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }

    // The contention table (report and bundle agree — same merged
    // sketch) must rank the storm target first.
    let top = report
        .contention
        .first()
        .expect("aborts happened, so the table cannot be empty");
    assert_eq!(top.addr, hot.lock_addr() as u64, "top culprit identity");
    assert_eq!(top.label.as_deref(), Some("storm-target"));
    let contention_json = read(&bundle.join("contention.json"));
    assert!(contention_json.contains("storm-target"));

    // Per-reason consistency with the always-on STM stats: what the
    // sketch attributes to the culprit can never exceed what the STM
    // counted for the whole run, reason by reason.
    for (code, &attributed) in top.by_reason.iter().enumerate() {
        assert!(
            attributed <= delta.abort_reasons[code],
            "{}: attributed {attributed} > stm {}",
            codes::abort_name(code as u8),
            delta.abort_reasons[code],
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

mod oscillation {
    use super::*;
    use rubic_controllers::{Controller, Sample};
    use rubic_runtime::{MalleablePool, PoolConfig, Workload};

    /// Alternates between levels 1 and 2 every round — sustained
    /// direction reversal, exactly what the oscillation watchdog flags.
    struct Thrash {
        max: u32,
    }

    impl Controller for Thrash {
        fn decide(&mut self, sample: Sample) -> u32 {
            if sample.level == 1 {
                2
            } else {
                1
            }
        }

        fn reset(&mut self) {}

        fn max_level(&self) -> u32 {
            self.max
        }

        fn name(&self) -> &'static str {
            "Thrash"
        }
    }

    struct Spin;

    impl Workload for Spin {
        type WorkerState = ();

        fn init_worker(&self, _tid: usize) {}

        fn run_task(&self, (): &mut ()) {
            std::hint::black_box((0..64u64).fold(0u64, |a, b| a ^ (b << 1)));
        }
    }

    /// A thrashing controller must trip the level-oscillation watchdog,
    /// which auto-dumps a bundle through the same anomaly path the
    /// abort-storm watchdog uses.
    #[test]
    fn oscillating_controller_trips_watchdog_and_dumps() {
        let _serial = serial();
        let dir = scratch_dir("osc");
        let session = TraceSession::start(TraceConfig {
            postmortem_dir: Some(dir.clone()),
            ..TraceConfig::default()
        });

        let pool = MalleablePool::start(
            PoolConfig::new(2).monitor_period(Duration::from_millis(2)),
            Spin,
            Box::new(Thrash { max: 2 }),
        );
        // Enough rounds for >= 4 consecutive reversals.
        std::thread::sleep(Duration::from_millis(120));
        let _run = pool.stop();
        let report = session.finish();

        let osc = codes::ANOMALY_LEVEL_OSCILLATION as usize;
        assert!(
            report.anomalies[osc] >= 1,
            "oscillation anomaly not recorded: {:?}",
            report.anomalies
        );
        let bundles = bundles_in(&dir);
        assert_eq!(
            bundles.len(),
            1,
            "one auto-dump per trigger kind: {bundles:?}"
        );
        assert!(bundles[0]
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("level-oscillation"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(feature = "chaos")]
mod determinism {
    use super::*;
    use rubic::stm::chaos::{install, SeededChaos};
    use std::sync::Arc;

    /// Strips the volatile fields — addresses (allocation-dependent)
    /// and lock-hold quantiles (wall-clock-dependent) — from a
    /// contention.json so two runs of the same seeded schedule can be
    /// compared literally.
    fn normalise(json: &str) -> String {
        let mut out = json.to_string();
        for key in ["\"addr\":", "\"hold_p50_ns\":", "\"hold_p99_ns\":"] {
            let mut next = String::with_capacity(out.len());
            let mut rest = out.as_str();
            while let Some(pos) = rest.find(key) {
                let (head, tail) = rest.split_at(pos + key.len());
                next.push_str(head);
                next.push('0');
                rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
            }
            next.push_str(rest);
            out = next;
        }
        out
    }

    /// One contention-table row: (label, count, err, by_reason).
    type AttributionRow = (Option<String>, u64, u64, [u64; codes::ABORT_REASONS]);

    /// One seeded single-threaded storm; returns the attribution table
    /// rows plus the address-normalised bundle contention.json.
    fn seeded_run(dir: &Path) -> (Vec<AttributionRow>, String) {
        let stm = Stm::default();
        let hot = TVar::labelled(0u64, "det-cell");
        let hook = Arc::new(SeededChaos::with_abort_one_in(0xD15EA5E, 3));
        let session = TraceSession::start(TraceConfig::default());
        {
            let _chaos = install(hook);
            for _ in 0..200 {
                stm.atomically(|tx| tx.modify(&hot, |x| x + 1));
            }
        }
        let bundle = session.dump_postmortem(dir, "determinism").unwrap();
        let contention = normalise(&read(&bundle.join("contention.json")));
        let report = session.finish();
        assert_eq!(hot.snapshot(), 200);
        let table = report
            .contention
            .iter()
            .map(|e| (e.label.clone(), e.count, e.err, e.by_reason))
            .collect();
        (table, contention)
    }

    /// The same seeded chaos schedule must attribute identically across
    /// runs: same labels, counts, error bounds, per-reason breakdowns,
    /// and (addresses aside) byte-identical bundle contention tables.
    #[test]
    fn seeded_chaos_attribution_is_deterministic() {
        let _serial = serial();
        let dir_a = scratch_dir("det-a");
        let dir_b = scratch_dir("det-b");
        let (table_a, json_a) = seeded_run(&dir_a);
        let (table_b, json_b) = seeded_run(&dir_b);
        assert!(
            !table_a.is_empty(),
            "one-in-3 kills over 200 txns must abort"
        );
        assert_eq!(table_a, table_b);
        assert_eq!(json_a, json_b);
        assert_eq!(
            table_a[0].0.as_deref(),
            Some("det-cell"),
            "chaos kills at access sites are attributed to the accessed TVar"
        );
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}
