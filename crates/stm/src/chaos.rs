//! Deterministic fault injection ("chaos") for the STM protocol.
//!
//! The transaction engine consults this module at its three racy
//! protocol points — lock sampling, read-set validation, and commit
//! publication. In normal builds the hook compiles to nothing. With the
//! crate feature **`chaos`** enabled, a test can [`install`] a
//! [`ChaosHook`] that injects delays and yields *at exactly those
//! points*, forcing the interleavings (read/commit races, validation
//! windows, publish storms) that otherwise need minutes of stress
//! running to surface.
//!
//! Everything the feature adds lives in this file — the hook, the
//! seeded implementation, and the `*_unmanaged` methods that let a
//! harness drive a [`Transaction`](crate::Transaction) by hand — so
//! the engine itself (`txn.rs`) carries no `cfg`.
//!
//! The built-in hook, [`SeededChaos`], derives every decision from a
//! single `u64` seed via per-thread SplitMix64 streams, and records the
//! decision sequence. Re-running with the same seed replays the same
//! decisions, so a failure found under chaos is pinned by its seed —
//! see the harness tests in the workspace root for the workflow.
//!
//! ```
//! # #[cfg(feature = "chaos")] {
//! use std::sync::Arc;
//! use rubic_stm::chaos::{install, SeededChaos};
//!
//! let hook = Arc::new(SeededChaos::new(0xDEADBEEF));
//! let _guard = install(hook.clone()); // uninstalls on drop
//! // ... run transactional code; decisions land in hook.decision_log()
//! # }
//! ```

/// A protocol point at which the engine consults the chaos hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosPoint {
    /// Immediately before a read or write samples a variable's
    /// versioned lock. Perturbing here widens the sample→load→resample
    /// window that invisible reads depend on.
    LockSample,
    /// On entry to read-set validation (commit-time or timestamp
    /// extension). Perturbing here lets concurrent commits land between
    /// the decision to validate and the validation itself.
    PreValidate,
    /// Before each write-slot publication during commit. Perturbing
    /// here stretches the locked window other transactions observe.
    PrePublish,
}

impl ChaosPoint {
    /// Stable wire code (matches `rubic_trace::codes::CHAOS_POINT_NAMES`
    /// indexing) used by trace events.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            ChaosPoint::LockSample => 0,
            ChaosPoint::PreValidate => 1,
            ChaosPoint::PrePublish => 2,
        }
    }
}

/// Engine-side entry point: called by `txn.rs` at each protocol point.
///
/// Free of any cost when the `chaos` feature is off — the body is empty
/// and the call inlines away.
#[inline(always)]
pub(crate) fn hit(point: ChaosPoint) {
    #[cfg(feature = "chaos")]
    enabled::fire(point);
    #[cfg(not(feature = "chaos"))]
    let _ = point;
}

/// [`hit`], then asks the installed hook whether the current attempt
/// should be killed at `point`. A `true` return makes the engine abort
/// the attempt with [`crate::AbortReason::Chaos`] — this is how
/// fault-injection tests exercise the abort-attribution path end to
/// end. Always `false` (and free) when the `chaos` feature is off.
#[inline(always)]
pub(crate) fn kill_requested(point: ChaosPoint) -> bool {
    hit(point);
    #[cfg(feature = "chaos")]
    return enabled::query_abort(point);
    #[cfg(not(feature = "chaos"))]
    false
}

#[cfg(feature = "chaos")]
pub use enabled::{install, ChaosAction, ChaosGuard, ChaosHook, Decision, SeededChaos};

#[cfg(feature = "chaos")]
mod enabled {
    use super::ChaosPoint;
    use crate::txn::{Transaction, TxResult};
    use rubic_sync::{Arc, Mutex, MutexGuard, RwLock};
    use std::collections::HashMap;

    /// A fault-injection hook consulted at every [`ChaosPoint`].
    ///
    /// Implementations must be cheap and must not call back into the
    /// STM (the engine may hold epoch pins when it fires the hook).
    pub trait ChaosHook: Send + Sync {
        /// Called by the engine at `point`; may sleep, yield, or spin
        /// to perturb the interleaving.
        fn at(&self, point: ChaosPoint);

        /// Asked by the engine at `point` whether to kill the current
        /// attempt. Returning `true` aborts it with the `Chaos` abort
        /// reason. Defaults to never killing.
        fn abort_at(&self, point: ChaosPoint) -> bool {
            let _ = point;
            false
        }
    }

    static HOOK: RwLock<Option<Arc<dyn ChaosHook>>> = RwLock::new(None);
    /// Serialises chaos scopes: two tests installing hooks concurrently
    /// would otherwise see each other's injections and lose seed
    /// reproducibility.
    static SCOPE: Mutex<()> = Mutex::new(());

    /// Installs `hook` process-wide and returns a guard that removes it
    /// when dropped.
    ///
    /// Holding the guard also holds a global scope lock, so concurrent
    /// tests serialise instead of interleaving their injections. Keep
    /// the guard alive for exactly the code under test.
    #[must_use]
    pub fn install(hook: Arc<dyn ChaosHook>) -> ChaosGuard {
        let scope = SCOPE.lock();
        *HOOK.write() = Some(hook);
        ChaosGuard { _scope: scope }
    }

    /// Uninstalls the hook (and releases the chaos scope) on drop.
    pub struct ChaosGuard {
        _scope: MutexGuard<'static, ()>,
    }

    impl Drop for ChaosGuard {
        fn drop(&mut self) {
            *HOOK.write() = None;
        }
    }

    pub(super) fn fire(point: ChaosPoint) {
        // Clone out of the lock so a slow hook never blocks install.
        let hook = HOOK.read().clone();
        if let Some(hook) = hook {
            #[cfg(feature = "trace")]
            rubic_trace::emit(rubic_trace::EventKind::Chaos, point.code(), 0, 0, 0);
            hook.at(point);
        }
    }

    pub(super) fn query_abort(point: ChaosPoint) -> bool {
        let hook = HOOK.read().clone();
        match hook {
            Some(hook) if hook.abort_at(point) => {
                // Payload word a = 1 marks a kill (vs. a = 0 for a plain
                // perturbation event from `fire`).
                #[cfg(feature = "trace")]
                rubic_trace::emit(rubic_trace::EventKind::Chaos, point.code(), 1, 0, 0);
                true
            }
            _ => false,
        }
    }

    impl Transaction {
        /// Begins an *unmanaged* transaction: no retry loop, no stats, no
        /// contention management — the caller drives `commit`/`abort` by
        /// hand. This exists so harness tests can pin a transaction at an
        /// arbitrary protocol state (e.g. holding a write lock) while other
        /// threads run; real code should use [`crate::Stm::atomically`].
        ///
        /// Only available with the test-only `chaos` feature.
        #[must_use]
        pub fn begin_unmanaged() -> Self {
            Self::begin()
        }

        /// Commits an unmanaged transaction (chaos feature only); see
        /// [`begin_unmanaged`](Self::begin_unmanaged).
        ///
        /// # Errors
        /// [`crate::StmError::Conflict`] if validation fails; the caller
        /// must then [`abort_unmanaged`](Self::abort_unmanaged).
        pub fn commit_unmanaged(&mut self) -> TxResult<()> {
            self.commit()
        }

        /// Aborts an unmanaged transaction, releasing every held lock
        /// (chaos feature only); see
        /// [`begin_unmanaged`](Self::begin_unmanaged).
        pub fn abort_unmanaged(&mut self) {
            self.abort()
        }

        /// Restarts an unmanaged transaction for another attempt (chaos
        /// feature only); see [`begin_unmanaged`](Self::begin_unmanaged).
        pub fn restart_unmanaged(&mut self) {
            self.restart()
        }
    }

    /// What the hook decided to do at one protocol point.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ChaosAction {
        /// Proceed untouched.
        Pass,
        /// Yield the time slice — hand the core to a rival.
        Yield,
        /// Spin for the given number of `spin_loop` hints — stretch the
        /// current protocol window without a scheduler round-trip.
        Spin(u32),
        /// Kill the attempt: the engine aborts it with the `Chaos`
        /// abort reason (only produced via [`ChaosHook::abort_at`]).
        Kill,
    }

    /// One recorded hook decision.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Decision {
        /// Where the engine consulted the hook.
        pub point: ChaosPoint,
        /// Thread stream the decision came from (registration order).
        pub stream: u64,
        /// What was injected.
        pub action: ChaosAction,
    }

    /// Deterministic chaos: every decision is a pure function of the
    /// seed, the thread's stream index, and the thread's decision count.
    ///
    /// Each thread that reaches a protocol point gets its own SplitMix64
    /// stream (keyed by arrival order), so a single-threaded run — or
    /// any run with a deterministic thread structure — replays bit-for-
    /// bit from the seed alone. The full decision sequence is recorded
    /// and available through [`decision_log`](SeededChaos::decision_log)
    /// for replay comparison and failure reports.
    pub struct SeededChaos {
        seed: u64,
        /// When `Some(n)`, roughly one in `n` abort queries kills the
        /// attempt (deterministically, from the same seed machinery).
        kill_one_in: Option<u64>,
        streams: Mutex<HashMap<std::thread::ThreadId, (u64, u64)>>, // lint: allow-std-sync — identity key only
        log: Mutex<Vec<Decision>>,
    }

    impl SeededChaos {
        /// A hook whose decisions derive entirely from `seed`.
        #[must_use]
        pub fn new(seed: u64) -> Self {
            SeededChaos {
                seed,
                kill_one_in: None,
                streams: Mutex::new(HashMap::new()),
                log: Mutex::new(Vec::new()),
            }
        }

        /// Like [`new`](Self::new), but additionally kills roughly one
        /// in `n` attempts at the engine's abort-query points — the
        /// killed attempts surface as `AbortReason::Chaos` in the stats
        /// breakdown and the trace. `n` is clamped to at least 1.
        #[must_use]
        pub fn with_abort_one_in(seed: u64, n: u64) -> Self {
            SeededChaos {
                kill_one_in: Some(n.max(1)),
                ..Self::new(seed)
            }
        }

        /// The seed this hook replays from.
        #[must_use]
        pub fn seed(&self) -> u64 {
            self.seed
        }

        /// Every decision taken so far, in global arrival order.
        #[must_use]
        pub fn decision_log(&self) -> Vec<Decision> {
            self.log.lock().clone()
        }

        /// SplitMix64: the n-th draw of stream `stream` under this seed.
        fn draw(&self, stream: u64, n: u64) -> u64 {
            let mut x = self
                .seed
                .wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F))
                .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }

        /// Allocates the calling thread's next `(stream, draw-index)`
        /// pair. Every hook decision — perturbation or kill — consumes
        /// one index, so the decision sequence stays a pure function of
        /// the seed and each thread's call sequence.
        fn advance(&self) -> (u64, u64) {
            // Thread identity is diagnostics/keying only, never a
            // synchronization edge, so the raw std call stays.
            let me = std::thread::current().id(); // lint: allow-std-sync — identity key only
            let mut streams = self.streams.lock();
            let next_stream = streams.len() as u64;
            let entry = streams.entry(me).or_insert((next_stream, 0));
            let snapshot = *entry;
            entry.1 += 1;
            snapshot
        }

        fn decide(&self, point: ChaosPoint) -> Decision {
            let (stream, n) = self.advance();
            let r = self.draw(stream, n);
            // 1/8 yield, 1/8 spin, 3/4 pass: enough perturbation to
            // shake interleavings, not enough to destroy throughput.
            let action = match r & 0x7 {
                0 => ChaosAction::Yield,
                1 => ChaosAction::Spin(((r >> 8) & 0x1FF) as u32),
                _ => ChaosAction::Pass,
            };
            Decision {
                point,
                stream,
                action,
            }
        }
    }

    impl ChaosHook for SeededChaos {
        fn at(&self, point: ChaosPoint) {
            let decision = self.decide(point);
            self.log.lock().push(decision);
            match decision.action {
                ChaosAction::Pass | ChaosAction::Kill => {}
                ChaosAction::Yield => rubic_sync::thread::yield_now(),
                ChaosAction::Spin(n) => {
                    for _ in 0..n {
                        std::hint::spin_loop();
                    }
                }
            }
        }

        fn abort_at(&self, point: ChaosPoint) -> bool {
            let Some(one_in) = self.kill_one_in else {
                return false;
            };
            let (stream, n) = self.advance();
            // `u64::is_multiple_of` postdates the 1.75 MSRV.
            #[allow(clippy::manual_is_multiple_of)]
            let kill = self.draw(stream, n) % one_in == 0;
            if kill {
                self.log.lock().push(Decision {
                    point,
                    stream,
                    action: ChaosAction::Kill,
                });
            }
            kill
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn same_seed_same_decisions() {
            // Purity of the decision function: two hooks with one seed,
            // driven through the same sequence of points on one thread,
            // produce identical logs.
            let points = [
                ChaosPoint::LockSample,
                ChaosPoint::LockSample,
                ChaosPoint::PreValidate,
                ChaosPoint::PrePublish,
                ChaosPoint::LockSample,
                ChaosPoint::PrePublish,
            ];
            let run = || {
                let hook = SeededChaos::new(42);
                for &p in &points {
                    hook.at(p);
                }
                hook.decision_log()
            };
            assert_eq!(run(), run());
        }

        #[test]
        fn different_seeds_diverge() {
            let run = |seed| {
                let hook = SeededChaos::new(seed);
                for _ in 0..64 {
                    hook.at(ChaosPoint::LockSample);
                }
                hook.decision_log()
                    .iter()
                    .map(|d| d.action)
                    .collect::<Vec<_>>()
            };
            assert_ne!(run(1), run(2), "64 draws should not collide");
        }

        #[test]
        fn install_guard_uninstalls() {
            struct Count(std::sync::atomic::AtomicU64);
            impl ChaosHook for Count {
                fn at(&self, _p: ChaosPoint) {
                    self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
            let hook = Arc::new(Count(std::sync::atomic::AtomicU64::new(0)));
            {
                let _g = install(hook.clone());
                fire(ChaosPoint::LockSample);
                fire(ChaosPoint::PrePublish);
            }
            fire(ChaosPoint::LockSample); // after drop: no hook
            assert_eq!(hook.0.load(std::sync::atomic::Ordering::Relaxed), 2);
        }

        #[test]
        fn streams_are_per_thread() {
            let hook = Arc::new(SeededChaos::new(7));
            let h2 = Arc::clone(&hook);
            hook.at(ChaosPoint::LockSample);
            std::thread::spawn(move || h2.at(ChaosPoint::LockSample))
                .join()
                .unwrap();
            let log = hook.decision_log();
            assert_eq!(log.len(), 2);
            assert_ne!(log[0].stream, log[1].stream);
        }
    }
}
