//! The global recorder: per-thread ring registration, the `emit` fast
//! path, and the collector-backed [`TraceSession`].
//!
//! Instrumented crates call [`emit`] (plus [`now_ns`] for latency
//! timestamps) and, at abort sites, [`note_conflict`] to feed the
//! per-thread conflict sketches. When no session is active both are one
//! relaxed atomic load and a branch. When a session is active, the
//! calling thread lazily registers a private [`Ring`] (and a
//! [`ConflictSketch`]) with the session; every subsequent emit is a
//! handful of atomic stores into that ring — no locks, no allocation,
//! no syscalls on the hot path. (`note_conflict` takes the thread's own
//! uncontended sketch mutex — acceptable because aborts already are the
//! slow path.)
//!
//! A background collector thread drains all rings every few milliseconds
//! into the session's [`Sink`] accumulators, so rings stay shallow and
//! the drop-oldest policy rarely engages, and after each drain writes
//! the post-mortem bundles requested via [`request_postmortem`].
//! [`TraceSession::finish`] stops the collector, performs a final drain,
//! services any pending post-mortems, and returns the [`TraceReport`].

use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rubic_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use rubic_sync::{Arc, Mutex, OnceLock};

use crate::bundle;
use crate::event::{codes, Event, EventKind};
use crate::report::{Sink, TraceReport};
use crate::ring::Ring;
use crate::sketch::ConflictSketch;

/// Per-thread ring capacity in events; the drop-oldest policy engages
/// past this.
const RING_CAPACITY: usize = 1 << 14;
/// Per-thread conflict-sketch capacity `k` (overcount is bounded by
/// `conflicts / k`).
const SKETCH_CAPACITY: usize = 64;
/// How often the collector thread drains the rings.
const DRAIN_PERIOD: Duration = Duration::from_millis(5);

/// True while a [`TraceSession`] is active. Checked (relaxed) on every
/// `emit`; instrumented code can also consult it to skip timestamp
/// capture entirely.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped on every session start/finish so stale thread-local rings
/// re-register instead of writing into a dead session.
static GENERATION: AtomicU64 = AtomicU64::new(0);
/// Serialises sessions: only one recorder may be active per process
/// (trace data is process-global, like the chaos hook's scope lock).
static SESSION_ACTIVE: AtomicBool = AtomicBool::new(false);
/// The active session's shared state.
static STATE: Mutex<Option<Arc<SessionState>>> = Mutex::new(None);
/// Pending post-mortem dump requests: bit `t` set means trigger code `t`
/// wants a dump. Drained by the collector (and by `finish`); set from
/// any thread without blocking.
// ordering: Relaxed — a request flag, not a publication channel; the
// dump itself reads everything under the sink lock.
static POSTMORTEM_REQUESTS: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch (first use).
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// True while a trace session is recording.
#[inline]
#[must_use]
pub fn is_enabled() -> bool {
    // ordering: fast-path probe only — a stale `false` skips one event,
    // a stale `true` falls into `emit_slow`, which re-checks the
    // generation under Acquire. No data is published through this flag.
    ENABLED.load(Ordering::Relaxed)
}

struct SessionState {
    generation: u64,
    rings: Mutex<Vec<Arc<Ring>>>,
    /// Per-thread conflict sketches, registered alongside the rings.
    sketches: Mutex<Vec<Arc<Mutex<ConflictSketch>>>>,
    /// Bitmask of trigger codes already auto-dumped this session (one
    /// bundle per trigger kind per session; manual dumps are unlimited).
    // ordering: Relaxed — dedup bookkeeping only.
    dumped: AtomicU64,
}

struct LocalRing {
    generation: u64,
    tid: u16,
    ring: Arc<Ring>,
    sketch: Arc<Mutex<ConflictSketch>>,
}

thread_local! {
    static LOCAL: RefCell<Option<LocalRing>> = const { RefCell::new(None) };
}

/// Emits one event into the calling thread's ring. A no-op (one relaxed
/// load) when no session is active. Never blocks, never allocates after
/// the thread's first emit of the session.
#[inline]
pub fn emit(kind: EventKind, code: u8, a: u64, b: u64, c: u64) {
    if !is_enabled() {
        return;
    }
    emit_slow(kind, code, a, b, c);
}

#[cold]
fn emit_slow(kind: EventKind, code: u8, a: u64, b: u64, c: u64) {
    with_local(|l| {
        let event = Event {
            ts_ns: now_ns(),
            kind,
            code,
            tid: l.tid,
            a,
            b,
            c,
        };
        l.ring.push(event.encode());
    });
}

/// Attributes one conflict to the `TVar` with lock address `addr` and the
/// given abort-reason code, updating the calling thread's space-saving
/// sketch. A no-op (one relaxed load) when no session is active. Called
/// from abort paths only — takes the thread's own uncontended sketch
/// mutex, never a shared lock.
#[inline]
pub fn note_conflict(addr: u64, reason: u8) {
    if !is_enabled() {
        return;
    }
    note_conflict_slow(addr, reason);
}

#[cold]
fn note_conflict_slow(addr: u64, reason: u8) {
    with_local(|l| l.sketch.lock().update(addr, reason));
}

/// Requests an automatic post-mortem dump for the given trigger code
/// (one of `codes::ANOMALY_*`). Non-blocking and allocation-free: sets
/// a bit the collector thread services on its next pass (or `finish`
/// services at teardown). At most one bundle is written per trigger
/// kind per session; requests without a configured `postmortem_dir` are
/// counted by the Anomaly event but produce no bundle.
pub fn request_postmortem(trigger: u8) {
    if !is_enabled() {
        return;
    }
    // ordering: Relaxed — see POSTMORTEM_REQUESTS.
    POSTMORTEM_REQUESTS.fetch_or(1u64 << u64::from(trigger.min(63)), Ordering::Relaxed);
}

/// Runs `f` with the calling thread's registered local state,
/// re-registering if the session generation moved.
fn with_local(f: impl FnOnce(&LocalRing)) {
    let generation = GENERATION.load(Ordering::Acquire);
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let needs_register = match local.as_ref() {
            Some(l) => l.generation != generation,
            None => true,
        };
        if needs_register {
            let Some(registered) = register_thread(generation) else {
                return; // session vanished between the check and now
            };
            *local = Some(registered);
        }
        if let Some(l) = local.as_ref() {
            f(l);
        }
    });
}

fn register_thread(generation: u64) -> Option<LocalRing> {
    let state = STATE.lock().clone()?;
    if state.generation != generation {
        return None;
    }
    let ring = Arc::new(Ring::new(RING_CAPACITY));
    let sketch = Arc::new(Mutex::new(ConflictSketch::new(SKETCH_CAPACITY)));
    let mut rings = state.rings.lock();
    let tid = u16::try_from(rings.len()).unwrap_or(u16::MAX);
    rings.push(Arc::clone(&ring));
    drop(rings);
    state.sketches.lock().push(Arc::clone(&sketch));
    Some(LocalRing {
        generation,
        tid,
        ring,
        sketch,
    })
}

/// Construction parameters for a [`TraceSession`].
#[derive(Debug, Clone, Default)]
pub struct TraceConfig {
    /// Where anomaly-triggered post-mortem bundles are written. `None`
    /// disables auto-dumps (anomaly events are still recorded).
    pub postmortem_dir: Option<PathBuf>,
    /// Extra key/value pairs recorded in every bundle's manifest
    /// (feature flags, seeds, workload parameters).
    pub manifest: Vec<(String, String)>,
}

/// An active recording: installs the global recorder on `start`, drains
/// continuously on a collector thread, and yields a [`TraceReport`] on
/// [`finish`](TraceSession::finish).
///
/// Only one session can be active per process; a second `start` blocks
/// until the first finishes (sessions are process-global, so two
/// concurrent ones would interleave their data).
///
/// ```
/// use rubic_trace::{emit, EventKind, TraceConfig, TraceSession};
/// let session = TraceSession::start(TraceConfig::default());
/// emit(EventKind::TxnCommit, 0, 1_500, 0, 1);
/// let report = session.finish();
/// assert_eq!(report.commit_latency.count(), 1);
/// ```
pub struct TraceSession {
    state: Arc<SessionState>,
    sink: Arc<Mutex<Sink>>,
    cfg: TraceConfig,
    stop: Arc<AtomicBool>,
    collector: Option<rubic_sync::thread::JoinHandle<()>>,
}

impl TraceSession {
    /// Installs the recorder and starts the collector thread. Blocks if
    /// another session is still active.
    ///
    /// # Panics
    ///
    /// Panics if the collector thread cannot be spawned.
    #[must_use]
    #[allow(clippy::needless_pass_by_value)] // config structs move in
    pub fn start(cfg: TraceConfig) -> TraceSession {
        // ordering: Relaxed on failure — a losing starter learns nothing
        // from the current holder except "occupied" and retries; the
        // winning Acquire pairs with teardown's Release store.
        while SESSION_ACTIVE
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            rubic_sync::thread::sleep(Duration::from_millis(1));
        }
        // A fresh session never inherits the previous one's requests.
        POSTMORTEM_REQUESTS.store(0, Ordering::Relaxed);
        let generation = GENERATION.fetch_add(1, Ordering::AcqRel) + 1;
        let state = Arc::new(SessionState {
            generation,
            rings: Mutex::new(Vec::new()),
            sketches: Mutex::new(Vec::new()),
            dumped: AtomicU64::new(0),
        });
        *STATE.lock() = Some(Arc::clone(&state));
        let sink = Arc::new(Mutex::new(Sink::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let collector = {
            let state = Arc::clone(&state);
            let sink = Arc::clone(&sink);
            let stop = Arc::clone(&stop);
            let cfg = cfg.clone();
            rubic_sync::thread::Builder::new()
                .name("rubic-trace-collector".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        rubic_sync::thread::sleep(DRAIN_PERIOD);
                        drain_into(&state, &sink);
                        service_requests(&state, &sink, &cfg);
                    }
                })
                .expect("failed to spawn trace collector")
        };
        ENABLED.store(true, Ordering::Release);
        TraceSession {
            state,
            sink,
            cfg,
            stop,
            collector: Some(collector),
        }
    }

    /// Drains the rings and writes a post-mortem bundle under `dir` with
    /// the given trigger tag, returning the bundle directory. Manual
    /// dumps bypass the once-per-trigger dedup applied to automatic
    /// ones.
    ///
    /// # Errors
    /// Any filesystem error creating or writing the bundle.
    pub fn dump_postmortem(&self, dir: &Path, trigger: &str) -> io::Result<PathBuf> {
        write_dump(&self.state, &self.sink, &self.cfg, dir, trigger)
    }

    /// Stops recording, drains every ring a final time, services pending
    /// post-mortem requests, and builds the report.
    #[must_use]
    pub fn finish(mut self) -> TraceReport {
        self.teardown();
        let merged = merged_sketch(&self.state);
        let mut sink = std::mem::replace(&mut *self.sink.lock(), Sink::new());
        sink.dropped = total_dropped(&self.state);
        sink.into_report(&merged)
    }

    fn teardown(&mut self) {
        ENABLED.store(false, Ordering::Release);
        GENERATION.fetch_add(1, Ordering::AcqRel);
        self.stop.store(true, Ordering::Release);
        if let Some(c) = self.collector.take() {
            let _ = c.join();
        }
        // Final drain after every producer either finished its push or
        // will bail on the ENABLED fast path; then service any requests
        // the collector never got to see.
        drain_into(&self.state, &self.sink);
        service_requests(&self.state, &self.sink, &self.cfg);
        *STATE.lock() = None;
        SESSION_ACTIVE.store(false, Ordering::Release);
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if self.collector.is_some() {
            self.teardown();
        }
    }
}

fn drain_into(state: &SessionState, sink: &Mutex<Sink>) {
    // Snapshot the ring list first so a registering thread never waits
    // on the sink lock.
    let rings: Vec<Arc<Ring>> = state.rings.lock().clone();
    let mut sink = sink.lock();
    for ring in rings {
        while let Some(words) = ring.pop() {
            if let Some(event) = Event::decode(words) {
                sink.add(event);
            }
        }
    }
}

/// Merges every registered per-thread sketch into one session sketch.
fn merged_sketch(state: &SessionState) -> ConflictSketch {
    let sketches: Vec<Arc<Mutex<ConflictSketch>>> = state.sketches.lock().clone();
    let mut merged = ConflictSketch::new(SKETCH_CAPACITY);
    for s in sketches {
        let s = s.lock();
        if !s.is_empty() {
            merged.merge(&s);
        }
    }
    merged
}

fn total_dropped(state: &SessionState) -> u64 {
    state.rings.lock().iter().map(|r| r.dropped()).sum()
}

/// Writes one bundle per trigger kind requested since the last pass
/// (at most one per kind per session) when a `postmortem_dir` is set.
fn service_requests(state: &SessionState, sink: &Mutex<Sink>, cfg: &TraceConfig) {
    // ordering: Relaxed — see POSTMORTEM_REQUESTS.
    let mask = POSTMORTEM_REQUESTS.swap(0, Ordering::Relaxed);
    if mask == 0 {
        return;
    }
    let Some(dir) = &cfg.postmortem_dir else {
        return;
    };
    // ordering: Relaxed — dedup bookkeeping only.
    let fresh = mask & !state.dumped.fetch_or(mask, Ordering::Relaxed);
    for code in 0..64u8 {
        if fresh & (1u64 << code) == 0 {
            continue;
        }
        let trigger = codes::anomaly_name(code);
        match write_dump(state, sink, cfg, dir, trigger) {
            Ok(path) => eprintln!(
                "rubic-trace: anomaly '{trigger}' dumped post-mortem to {}",
                path.display()
            ),
            Err(e) => eprintln!("rubic-trace: post-mortem dump for '{trigger}' failed: {e}"),
        }
    }
}

/// Drains the rings, then freezes the session's current view into one
/// bundle. Draining here means a bundle written for a request holds
/// every event emitted before the request was raised.
fn write_dump(
    state: &SessionState,
    sink: &Mutex<Sink>,
    cfg: &TraceConfig,
    dir: &Path,
    trigger: &str,
) -> io::Result<PathBuf> {
    drain_into(state, sink);
    let merged = merged_sketch(state);
    let mut s = sink.lock();
    s.dropped = total_dropped(state);
    bundle::write_bundle(dir, trigger, &s, &merged, &cfg.manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::codes;

    /// Every test here owns or observes the process-global session.
    /// `TraceSession::start` makes the owners take turns but does not
    /// keep one of them from running beside a test that asserts "no
    /// session", so each test holds this lock for its whole body.
    static GLOBAL_SESSION: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_emit_is_a_no_op() {
        let _serial = GLOBAL_SESSION.lock();
        // No session: must not panic, must not register anything.
        emit(EventKind::TxnBegin, 0, 0, 0, 0);
        note_conflict(0xAB, 0);
        request_postmortem(codes::ANOMALY_ABORT_STORM);
        assert!(!is_enabled());
    }

    #[test]
    fn session_records_and_reports() {
        let _serial = GLOBAL_SESSION.lock();
        let session = TraceSession::start(TraceConfig::default());
        assert!(is_enabled());
        emit(EventKind::TxnBegin, 0, 0, 0, 0);
        emit(EventKind::TxnCommit, 0, 2_000, (3 << 32) | 1, 1);
        emit(EventKind::TxnAbort, codes::ABORT_LOCK_BUSY, 500, 0, 0);
        emit(EventKind::TxnRestart, 0, 800, 0, 0);
        emit(EventKind::LockHold, 0, 1_200, 0xDEAD, 0);
        let report = session.finish();
        assert!(!is_enabled());
        assert_eq!(report.commit_latency.count(), 1);
        assert_eq!(report.commit_latency.max(), 2_000);
        assert_eq!(report.abort_restart_latency.count(), 1);
        assert_eq!(report.lock_hold.count(), 1);
        assert_eq!(report.abort_breakdown[codes::ABORT_LOCK_BUSY as usize], 1);
        assert_eq!(report.total_aborts(), 1);
        assert_eq!(report.events.len(), 5);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn sessions_serialise_and_generations_isolate() {
        let _serial = GLOBAL_SESSION.lock();
        let s1 = TraceSession::start(TraceConfig::default());
        emit(EventKind::TxnCommit, 0, 10, 0, 1);
        let r1 = s1.finish();
        // Same thread, new session: the thread-local ring must
        // re-register (generation changed), and old data must not leak.
        let s2 = TraceSession::start(TraceConfig::default());
        emit(EventKind::TxnCommit, 0, 20, 0, 1);
        emit(EventKind::TxnCommit, 0, 30, 0, 1);
        let r2 = s2.finish();
        assert_eq!(r1.commit_latency.count(), 1);
        assert_eq!(r2.commit_latency.count(), 2);
    }

    #[test]
    fn multi_thread_emits_are_collected() {
        let _serial = GLOBAL_SESSION.lock();
        let session = TraceSession::start(TraceConfig::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for i in 0..100u64 {
                        emit(EventKind::TxnCommit, 0, i + 1, 0, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = session.finish();
        assert_eq!(report.commit_latency.count(), 400);
        // Each thread registered its own ring => distinct tids observed.
        let tids: std::collections::HashSet<u16> = report.events.iter().map(|e| e.tid).collect();
        assert!(tids.len() >= 4, "expected >= 4 producer threads: {tids:?}");
    }

    #[test]
    fn conflicts_flow_from_threads_to_contention_table() {
        let _serial = GLOBAL_SESSION.lock();
        let session = TraceSession::start(TraceConfig::default());
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..50 {
                        note_conflict(0xF00D, codes::ABORT_LOCK_BUSY);
                    }
                    note_conflict(0xFEED, codes::ABORT_READ_VALIDATION);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = session.finish();
        assert!(!report.contention.is_empty());
        let top = &report.contention[0];
        assert_eq!(top.addr, 0xF00D);
        assert!(top.count >= 150, "merge lost counts: {}", top.count);
        assert_eq!(top.by_reason[codes::ABORT_LOCK_BUSY as usize], 150);
    }

    #[test]
    fn requested_postmortem_dumps_once_per_trigger() {
        let _serial = GLOBAL_SESSION.lock();
        let dir = std::env::temp_dir().join(format!("rubic-rec-pm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = TraceSession::start(TraceConfig {
            postmortem_dir: Some(dir.clone()),
            ..TraceConfig::default()
        });
        emit(EventKind::TxnAbort, codes::ABORT_LOCK_BUSY, 100, 0, 0xAB);
        note_conflict(0xAB, codes::ABORT_LOCK_BUSY);
        request_postmortem(codes::ANOMALY_ABORT_STORM);
        request_postmortem(codes::ANOMALY_ABORT_STORM); // deduped
        let report = session.finish();
        let bundles: Vec<_> = std::fs::read_dir(&dir)
            .expect("postmortem dir created")
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(bundles.len(), 1, "{bundles:?}");
        let name = bundles[0]
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        assert!(name.contains("abort-storm"), "{name}");
        let manifest = std::fs::read_to_string(bundles[0].join("manifest.json")).unwrap();
        assert!(manifest.contains(bundle::BUNDLE_SCHEMA));
        let contention = std::fs::read_to_string(bundles[0].join("contention.json")).unwrap();
        assert!(contention.contains("\"addr\":171"), "{contention}");
        assert_eq!(report.total_aborts(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manual_dumps_skip_the_per_trigger_dedup() {
        let _serial = GLOBAL_SESSION.lock();
        let base = std::env::temp_dir().join(format!("rubic-rec-manual-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let session = TraceSession::start(TraceConfig::default());
        emit(EventKind::TxnCommit, 0, 1_000, 0, 1);
        let first = session.dump_postmortem(&base, "manual").expect("dump");
        let second = session.dump_postmortem(&base, "manual").expect("dump");
        assert_ne!(first, second);
        // The dump drained the ring first, so the commit is in the bundle.
        let manifest = std::fs::read_to_string(first.join("manifest.json")).unwrap();
        assert!(manifest.contains("\"commits\": 1,"), "{manifest}");
        let _ = session.finish();
        let _ = std::fs::remove_dir_all(&base);
    }
}
