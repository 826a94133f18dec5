//! End-to-end tests of the `trace` feature: a real tenant run recorded
//! by a [`TraceSession`], the abort-attribution cross-check against STM
//! stats, the exporters' structural validity, and a chaos-interleaving
//! smoke test that drives fault injection and tracing together.
//!
//! Compiled only with `--features trace` (CI runs `--features trace`
//! and `--features trace,chaos` jobs). Trace sessions are
//! process-global, so every test here serialises on one mutex — events
//! emitted by a concurrently running test would otherwise land in
//! whichever session happens to be active.
#![cfg(feature = "trace")]

use std::sync::Mutex;
use std::time::Duration;

use rubic::prelude::*;
use rubic::stm::AbortReason;
use rubic::trace::{codes, EventKind, TraceConfig, TraceReport, TraceSession};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
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

/// Records a short RUBIC-tuned red-black-tree run and returns the
/// report plus the STM stats delta over exactly the session window.
fn traced_rbt_run() -> (TraceReport, rubic::stm::StatsSnapshot) {
    let stm = Stm::default();
    let workload = RbTreeWorkload::new(RbTreeConfig::small(), stm.clone());
    let before = stm.stats().snapshot();
    let session = TraceSession::start(TraceConfig::default());
    let spec = TenantSpec::new("rbt", 4, Policy::Rubic).monitor_period(Duration::from_millis(5));
    let tenant_report = run_tenant(Tenant::new(spec, workload), Duration::from_millis(120));
    let report = session.finish();
    assert!(tenant_report.throughput() > 0.0);
    (report, stm.stats().snapshot().delta_since(&before))
}

#[test]
fn session_over_pool_records_the_whole_stack() {
    let _serial = serial();
    let (report, delta) = traced_rbt_run();

    // Transactions committed, so the commit-latency histogram is
    // populated and every commit produced one event.
    assert!(
        report.commit_latency.count() > 0,
        "no commit latency recorded"
    );
    assert!(report.commit_latency.p50() > 0);
    // The monitor ran (period 5ms over 120ms) and emitted rounds.
    assert!(
        report
            .events
            .iter()
            .any(|e| e.kind == EventKind::MonitorRound),
        "no monitor rounds in the event log"
    );
    // The controller decided every round.
    assert!(
        report.events.iter().any(|e| e.kind == EventKind::Decision),
        "no controller decisions in the event log"
    );

    // Abort attribution must reconcile with the STM's own counters,
    // reason by reason.
    assert_aborts_reconcile(
        &report.abort_breakdown,
        &delta.abort_reasons,
        report.dropped,
    );
}

#[test]
fn exporters_are_structurally_valid_on_real_data() {
    let _serial = serial();
    let (report, _) = traced_rbt_run();

    let jsonl = report.to_jsonl();
    assert_eq!(jsonl.lines().count(), report.events.len());
    for line in jsonl.lines().take(200) {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    let chrome = report.to_chrome_trace();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.ends_with('}'));
    assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
    assert_eq!(chrome.matches('[').count(), chrome.matches(']').count());
    assert!(chrome.contains("\"ph\":\"X\""), "no transaction spans");
    assert!(chrome.contains("\"ph\":\"C\""), "no pool counter track");
}

#[test]
fn abort_reason_codes_match_the_trace_tables() {
    // The trace crate cannot depend on the STM, so the two enums are
    // kept in sync by convention; this is the cross-crate assertion.
    assert_eq!(
        AbortReason::ReadValidation.code(),
        codes::ABORT_READ_VALIDATION
    );
    assert_eq!(AbortReason::LockBusy.code(), codes::ABORT_LOCK_BUSY);
    assert_eq!(AbortReason::CmKill.code(), codes::ABORT_CM_KILL);
    assert_eq!(AbortReason::Chaos.code(), codes::ABORT_CHAOS);
    assert_eq!(AbortReason::Explicit.code(), codes::ABORT_EXPLICIT);
    for reason in AbortReason::ALL {
        assert_eq!(reason.name(), codes::abort_name(reason.code()));
    }
}

/// The `LockLeakDetector` oracle and the contention table must agree on
/// TVar identity: the oracle's probe address, `TVar::lock_addr`, and
/// the top-K table's `addr` are all the same word, so a leak found at
/// quiescence can be joined against the conflict attribution of the
/// same session.
#[test]
fn lock_leak_and_contention_table_share_tvar_identity() {
    let _serial = serial();
    let stm = Stm::default();
    let hot = TVar::labelled(0u64, "hot-cell");
    let mut det = rubic_suite::oracles::LockLeakDetector::new();
    det.watch("hot", &hot);

    // Capture the oracle's identity for the variable by leaking its
    // lock for a moment with an unmanaged transaction.
    let mut blocker = rubic_stm::Transaction::begin_unmanaged();
    blocker.write(&hot, 1).unwrap();
    let leaked = det.leaked();
    blocker.abort_unmanaged();
    assert_eq!(leaked.len(), 1);
    let oracle_addr = leaked[0].lock_addr;
    assert_eq!(oracle_addr, hot.lock_addr());

    // Storm the one cell from several threads so real conflicts get
    // attributed to it.
    let before = stm.stats().snapshot();
    let session = TraceSession::start(TraceConfig::default());
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..300 {
                    stm.atomically(|tx| tx.modify(&hot, |x| x + 1));
                }
            });
        }
    });
    let report = session.finish();
    let delta = stm.stats().snapshot().delta_since(&before);
    // The blocker's buffered write was aborted, never published.
    assert_eq!(hot.snapshot(), 4 * 300, "all increments committed");
    det.check().unwrap();
    if delta.aborts == 0 {
        // No conflict materialised (e.g. a single-CPU runner serialised
        // the threads) — nothing to attribute, nothing to cross-check.
        return;
    }

    let entry = report
        .contention
        .iter()
        .find(|e| e.addr == oracle_addr as u64)
        .expect("the contended TVar must appear in the contention table");
    assert_eq!(entry.label.as_deref(), Some("hot-cell"));
    assert!(entry.count > 0);
    // Attributed per-reason counts can never exceed the STM's own
    // always-on totals for the whole run.
    for (code, &attributed) in entry.by_reason.iter().enumerate() {
        assert!(
            attributed <= delta.abort_reasons[code],
            "{}: attributed {attributed} > stm total {}",
            codes::abort_name(code as u8),
            delta.abort_reasons[code],
        );
    }
}

#[cfg(feature = "chaos")]
mod chaos_interleaving {
    use super::*;
    use rubic::stm::chaos::{install, SeededChaos};
    use std::sync::Arc;

    /// Chaos fault injection and tracing driven together: injected
    /// kills must surface in the trace's abort breakdown under the
    /// `chaos` reason, matching the STM's own count.
    #[test]
    fn chaos_kills_are_attributed_in_the_trace() {
        let _serial = serial();
        let stm = Stm::default();
        let v = TVar::new(0u64);
        let before = stm.stats().snapshot();
        let hook = Arc::new(SeededChaos::with_abort_one_in(0xC0FFEE, 4));
        let session = TraceSession::start(TraceConfig::default());
        {
            let _chaos = install(hook);
            for _ in 0..200 {
                stm.atomically(|tx| {
                    let cur = tx.read(&v)?;
                    tx.write(&v, cur + 1)
                });
            }
        }
        let report = session.finish();
        let delta = stm.stats().snapshot().delta_since(&before);

        assert_eq!(v.snapshot(), 200, "all transactions eventually commit");
        let chaos_idx = codes::ABORT_CHAOS as usize;
        assert!(
            delta.abort_reasons[chaos_idx] > 0,
            "one-in-4 injection over 200 txns must kill some attempts"
        );
        assert_aborts_reconcile(
            &report.abort_breakdown,
            &delta.abort_reasons,
            report.dropped,
        );
        // The injection points themselves are also traced.
        assert!(
            report.events.iter().any(|e| e.kind == EventKind::Chaos),
            "chaos decision events missing from the log"
        );
    }
}
