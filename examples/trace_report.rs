//! End-to-end observability demo: two STAMP-style tenants (Vacation +
//! Intruder) co-located under RUBIC with a trace session recording the
//! whole stack, then a report with abort attribution, latency
//! quantiles, the parallelism-level timeline, and two export files:
//!
//! * `trace_report.jsonl` — one JSON object per event,
//! * `trace_report.chrome.json` — load in Perfetto / `chrome://tracing`.
//!
//! Run with `cargo run --release --features trace --example trace_report`.
//! Pass `--smoke` (or set `TRACE_REPORT_SMOKE=1`) for a ~1 s run, as CI
//! does. Pass `--storm [DIR]` (needs `--features trace,chaos`) to
//! instead inject an abort storm and validate the anomaly-triggered
//! post-mortem bundle end-to-end; the process exits non-zero if the
//! bundle is missing, unparsable, or fails to name the culprit TVar.

use std::sync::Arc;
use std::time::Duration;

use rubic::prelude::*;
use rubic::stm::AbortReason;
use rubic::trace::{TraceConfig, TraceSession};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--storm") {
        let dir = args
            .get(pos + 1)
            .filter(|a| !a.starts_with("--"))
            .map_or_else(|| "trace_storm_out".to_string(), Clone::clone);
        storm_postmortem(std::path::Path::new(&dir));
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke")
        || std::env::var("TRACE_REPORT_SMOKE").is_ok_and(|v| v != "0");
    let run_for = if smoke {
        Duration::from_millis(1_000)
    } else {
        Duration::from_millis(3_000)
    };
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZero::get) as u32;
    let pool = (hw * 2).max(4);

    // Each tenant gets its own STM instance — separate processes in the
    // paper, separate commit clocks here.
    let stm_vac = Stm::default();
    let vac = Arc::new(VacationWorkload::new(
        VacationConfig::high_contention(64),
        stm_vac.clone(),
    ));
    let stm_intr = Stm::default();
    let intr = Arc::new(IntruderWorkload::new(
        IntruderConfig::small(),
        stm_intr.clone(),
    ));

    let vac_before = stm_vac.stats().snapshot();
    let intr_before = stm_intr.stats().snapshot();

    println!(
        "tracing Vacation + Intruder under RUBIC for {:.1}s (pool = {pool} each) ...",
        run_for.as_secs_f64()
    );
    let session = TraceSession::start(TraceConfig::default());

    let monitor = Duration::from_millis(10);
    let vac_handle = {
        let vac = Arc::clone(&vac);
        std::thread::spawn(move || {
            let spec = TenantSpec::new("vacation", pool, Policy::Rubic).monitor_period(monitor);
            run_tenant(Tenant::new(spec, vac), run_for)
        })
    };
    let intr_handle = {
        let intr = Arc::clone(&intr);
        std::thread::spawn(move || {
            let spec = TenantSpec::new("intruder", pool, Policy::Rubic).monitor_period(monitor);
            run_tenant(Tenant::new(spec, intr), run_for)
        })
    };
    let vac_report = vac_handle.join().expect("vacation tenant panicked");
    let intr_report = intr_handle.join().expect("intruder tenant panicked");

    let report = session.finish();

    let vac_delta = stm_vac.stats().snapshot().delta_since(&vac_before);
    let intr_delta = stm_intr.stats().snapshot().delta_since(&intr_before);

    println!();
    for t in [&vac_report, &intr_report] {
        println!(
            "tenant {:<10} {:>10.0} tasks/s  mean level {:>5.2}  pool aborts {}",
            t.name,
            t.throughput(),
            t.mean_level(),
            t.report.total_aborts
        );
    }
    println!();
    print!("{}", report.summary());

    // Cross-check: the trace's abort-reason breakdown against the aborts
    // the two STM instances counted, reason by reason. Ring overflow can
    // only hide aborts from the trace, never invent them: per reason the
    // trace sees at most what the STMs counted, the shortfall is bounded
    // by the dropped events, and with no drops the two agree exactly.
    let stm_total = vac_delta.aborts + intr_delta.aborts;
    println!();
    println!(
        "cross-check: trace saw {} aborts, STM stats counted {} (dropped events: {})",
        report.total_aborts(),
        stm_total,
        report.dropped
    );
    let mut missing = 0;
    for reason in AbortReason::ALL {
        let idx = reason.code() as usize;
        let seen = report.abort_breakdown[idx];
        let counted = vac_delta.abort_reasons[idx] + intr_delta.abort_reasons[idx];
        assert!(
            seen <= counted,
            "{}: trace saw {seen} aborts > STM stats {counted}",
            reason.name()
        );
        missing += counted - seen;
    }
    assert!(
        missing <= report.dropped,
        "trace missed {missing} aborts but dropped only {} events",
        report.dropped
    );
    println!(
        "cross-check OK: per reason trace <= STM stats, {missing} missed <= {} dropped",
        report.dropped
    );

    let jsonl = report.to_jsonl();
    let chrome = report.to_chrome_trace();
    std::fs::write("trace_report.jsonl", &jsonl).expect("write trace_report.jsonl");
    std::fs::write("trace_report.chrome.json", &chrome).expect("write trace_report.chrome.json");
    println!();
    println!(
        "wrote trace_report.jsonl ({} events) and trace_report.chrome.json ({} bytes)",
        report.events.len(),
        chrome.len()
    );
    println!("open trace_report.chrome.json at https://ui.perfetto.dev or chrome://tracing");
}

/// `--storm DIR`: inject an abort storm on one labelled `TVar`, raise
/// the abort-storm anomaly (the same request the runtime's stall
/// watchdog issues), and validate the auto-dumped post-mortem bundle —
/// every file present, JSON structurally sound, and the contention
/// table naming the deliberately contended variable as top culprit.
/// Any failed check panics, so CI can gate on the exit status.
#[cfg(feature = "chaos")]
fn storm_postmortem(dir: &std::path::Path) {
    use rubic::stm::chaos::{install, SeededChaos};
    use rubic::trace::codes;

    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create storm output dir");

    let stm = Stm::default();
    let hot = TVar::labelled(0u64, "storm-cell");
    let before = stm.stats().snapshot();

    let session = TraceSession::start(TraceConfig {
        postmortem_dir: Some(dir.to_path_buf()),
        manifest: vec![("mode".into(), "storm-smoke".into())],
    });

    // Injected one-in-3 kills guarantee a storm even on a single-CPU
    // runner that serialises the threads; the four threads add real
    // lock-busy and validation conflicts on top.
    println!("injecting abort storm on \"storm-cell\" (4 threads x 300 increments) ...");
    let hook = Arc::new(SeededChaos::with_abort_one_in(0x57_0431, 3));
    {
        let _chaos = install(hook);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..300u32 {
                        stm.atomically(|tx| tx.modify(&hot, |x| x + 1));
                    }
                });
            }
        });
    }
    rubic::trace::request_postmortem(codes::ANOMALY_ABORT_STORM);
    let report = session.finish();
    let delta = stm.stats().snapshot().delta_since(&before);

    assert_eq!(hot.snapshot(), 4 * 300, "every increment must commit");
    assert!(delta.aborts > 0, "one-in-3 kills must abort some attempts");

    // Exactly one bundle, named after the trigger.
    let mut bundles: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .expect("read storm output dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("postmortem-"))
        })
        .collect();
    bundles.sort();
    assert_eq!(
        bundles.len(),
        1,
        "exactly one auto-dumped bundle: {bundles:?}"
    );
    let bundle = &bundles[0];
    assert!(
        bundle
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.contains("abort-storm")),
        "trigger name in {}",
        bundle.display()
    );

    // Every file of the schema present and structurally valid JSON.
    let read = |name: &str| {
        let path = bundle.join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    };
    let balanced = |text: &str, name: &str| {
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "unbalanced braces in {name}"
        );
        assert_eq!(
            text.matches('[').count(),
            text.matches(']').count(),
            "unbalanced brackets in {name}"
        );
    };
    let manifest = read("manifest.json");
    assert!(
        manifest.contains(rubic::trace::BUNDLE_SCHEMA),
        "schema tag missing"
    );
    assert!(
        manifest.contains("abort-storm"),
        "trigger missing from manifest"
    );
    assert!(
        manifest.contains("storm-smoke"),
        "config manifest extras missing"
    );
    assert!(
        manifest.contains("\"aborts\": {"),
        "cumulative abort counts missing from manifest"
    );
    balanced(&manifest, "manifest.json");
    for name in ["histograms.json", "contention.json"] {
        balanced(&read(name), name);
    }
    assert!(
        !bundle.join("snapshot.json").exists(),
        "a {} bundle holds five files",
        rubic::trace::BUNDLE_SCHEMA
    );
    for name in ["events.jsonl", "decisions.jsonl"] {
        for line in read(name).lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "malformed {name} line: {line}"
            );
        }
    }

    // The culprit: top of the contention table, by identity and label,
    // in both the in-memory report and the dumped bundle.
    let top = report
        .contention
        .first()
        .expect("aborts happened, so the contention table cannot be empty");
    assert_eq!(top.addr, hot.lock_addr() as u64, "top culprit identity");
    assert_eq!(
        top.label.as_deref(),
        Some("storm-cell"),
        "top culprit label"
    );
    assert!(
        read("contention.json").contains("storm-cell"),
        "culprit not in bundle"
    );

    println!(
        "storm post-mortem OK: {} names culprit \"storm-cell\" ({} of {} aborts attributed)",
        bundle.display(),
        top.count,
        delta.aborts
    );
}

#[cfg(not(feature = "chaos"))]
fn storm_postmortem(_dir: &std::path::Path) {
    eprintln!("--storm needs fault injection: rebuild with --features trace,chaos");
    std::process::exit(2);
}
