//! `rubic-check`: a deterministic concurrency model checker.
//!
//! A loom/shuttle-style controlled scheduler built from scratch for
//! this workspace (the repo is offline — nothing is vendored for this):
//! model code written against [`sync`]'s primitives runs on real OS
//! threads, but the engine serializes them — exactly one thread runs
//! between scheduling points — and explores interleavings:
//!
//! * **PCT** ([`Config::pct`]): seeded randomized priority exploration
//!   (Burckhardt et al.'s Probabilistic Concurrency Testing) — strong
//!   bug-finding power per execution on models too big to enumerate.
//! * **Bounded exhaustive DFS** ([`Config::dfs`]): enumerates every
//!   schedule of a small model via decision-trace backtracking.
//! * **Replay** ([`Config::replay_trace`], [`Config::pct_at`]): every
//!   failure is reproducible from its `(seed, iteration)` pair or its
//!   printed decision trace — the same contract as the `chaos`
//!   feature's seed replay in `rubic-stm`.
//!
//! On top of the schedule the engine runs a **vector-clock race
//! detector** (FastTrack-style) over [`sync::RaceCell`] accesses, flags
//! **too-weak orderings** (an `Acquire` load pairing with a `Relaxed`
//! store it has no happens-before edge to), reports **deadlocks** (all
//! threads blocked, and no timed waiter left to force-time-out or
//! forced time-outs turned off) with each thread's last source
//! location, and bounds **livelocks** with a step budget. A yield or
//! sleep demotes the caller under PCT, so spin-waits give way.
//!
//! What is *not* modeled: weak-memory value reordering (the value layer
//! is sequentially consistent; ordering claims feed the happens-before
//! layer only), spurious condvar wakeups, and `RwLock` (the facade
//! passes it through). Models must be deterministic apart from
//! scheduling — no wall-clock branching or ambient randomness.
//!
//! ```
//! use rubic_check::{check, Config};
//! use rubic_check::sync::atomic::{AtomicU64, Ordering};
//! use rubic_check::sync::{thread, RaceCell};
//! use std::sync::Arc;
//!
//! // Correct message-passing: Release store, Acquire load.
//! let report = check(Config::pct(1, 20), || {
//!     let data = Arc::new(RaceCell::new(0u64));
//!     let flag = Arc::new(AtomicU64::new(0));
//!     let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
//!     let t = thread::spawn(move || {
//!         d2.set(42);
//!         f2.store(1, Ordering::Release);
//!     });
//!     if flag.load(Ordering::Acquire) == 1 {
//!         assert_eq!(data.get(), 42);
//!     }
//!     t.join().unwrap();
//! });
//! report.assert_ok();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod engine;
pub mod models;
mod strategy;
pub mod sync;
mod vclock;

pub use vclock::VClock;

use std::sync::Arc;

use strategy::{dfs_backtrack, Strat};

/// What went wrong in a failing execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Conflicting unsynchronized accesses to a [`sync::RaceCell`].
    Race,
    /// An `Acquire` load observed a `Relaxed` store with no
    /// happens-before edge — the store side is too weak.
    WeakOrdering,
    /// All threads blocked with no timed waiter left.
    Deadlock,
    /// The step budget was exhausted (livelock or runaway loop).
    StepBudget,
    /// Model code panicked (failed assertion).
    Panic,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureKind::Race => "data race",
            FailureKind::WeakOrdering => "too-weak ordering",
            FailureKind::Deadlock => "deadlock",
            FailureKind::StepBudget => "step budget exceeded",
            FailureKind::Panic => "model panic",
        };
        f.write_str(s)
    }
}

/// A failing execution, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Failure class.
    pub kind: FailureKind,
    /// Human-readable description with source locations.
    pub message: String,
    /// Seed the run was started with.
    pub seed: u64,
    /// Iteration (PCT) or execution number (DFS) that failed.
    pub iteration: u64,
    /// The schedule-length estimate in effect for the failing PCT
    /// iteration (it seeds the priority-change-point positions, so
    /// replaying a mid-run iteration needs it — feed all three to
    /// [`Config::pct_at_len`]). Zero for DFS and trace replays.
    pub est_len: u64,
    /// Decision trace: dot-separated indices into each step's enabled
    /// set. Feed to [`Config::replay_trace`] for exact replay.
    pub trace: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}: {}", self.kind, self.message)?;
        writeln!(
            f,
            "  replay: seed={} iteration={} est_len={} (Config::pct_at_len({}, {}, {}))",
            self.seed, self.iteration, self.est_len, self.seed, self.iteration, self.est_len
        )?;
        write!(f, "  trace: {}", self.trace)
    }
}

/// Outcome of a [`check`] run.
#[derive(Debug)]
pub struct Report {
    /// Executions explored.
    pub executions: u64,
    /// The first failure found, if any (exploration stops at the first).
    pub failure: Option<Failure>,
    /// True when a DFS run enumerated the whole schedule space within
    /// its execution budget.
    pub exhausted: bool,
}

impl Report {
    /// Panics (with the full replay recipe) if a failure was found.
    #[track_caller]
    pub fn assert_ok(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "model check failed after {} execution(s)\n{f}",
                self.executions
            );
        }
    }

    /// Returns the failure, panicking if the model unexpectedly passed.
    /// Used by the checker's own mutation self-tests.
    #[track_caller]
    #[must_use]
    pub fn expect_failure(&self) -> &Failure {
        self.failure.as_ref().unwrap_or_else(|| {
            panic!(
                "expected the checker to find a failure, but {} execution(s) passed",
                self.executions
            )
        })
    }
}

/// Exploration mode.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Randomized priority exploration for `iterations` executions.
    Pct {
        /// Number of executions.
        iterations: u64,
    },
    /// Exhaustive DFS, capped at `max_executions` schedules.
    Dfs {
        /// Upper bound on enumerated schedules.
        max_executions: u64,
    },
    /// Replay one execution from a recorded decision trace.
    Replay {
        /// Decision indices (one per scheduling point).
        trace: Vec<u32>,
    },
}

/// Checker configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Base seed for schedule randomness (PCT).
    pub seed: u64,
    /// Exploration mode.
    pub mode: Mode,
    /// Scheduling points allowed per execution before the run is
    /// declared a livelock.
    pub max_steps: u64,
    /// PCT priority-change points per execution (`d` in the PCT paper).
    pub depth: u32,
    /// Enable the acquire-load-of-relaxed-store pairing detector.
    pub detect_weak_pairs: bool,
    /// First PCT iteration to run (used by [`Config::pct_at`]).
    pub first_iteration: u64,
    /// Schedule-length estimate for the first PCT iteration. The
    /// estimate adapts to the previous execution's step count as a run
    /// progresses, so replaying iteration `i > 0` in isolation must
    /// restore the estimate that was in effect ([`Config::pct_at_len`]).
    pub first_est_len: u64,
    /// Force a timed waiter to time out when nothing else can run (the
    /// default). Off, such a state is a deadlock: the check that a
    /// protocol's wakes all land, with its timeout only a backstop.
    pub force_timeouts: bool,
}

/// Schedule-length estimate used for a fresh run's first iteration.
const DEFAULT_EST_LEN: u64 = 200;

impl Config {
    /// Seeded PCT exploration over `iterations` executions.
    #[must_use]
    pub fn pct(seed: u64, iterations: u64) -> Self {
        Config {
            seed,
            mode: Mode::Pct { iterations },
            max_steps: 20_000,
            depth: 3,
            detect_weak_pairs: true,
            first_iteration: 0,
            first_est_len: DEFAULT_EST_LEN,
            force_timeouts: true,
        }
    }

    /// Replays exactly one PCT iteration — the deterministic replay of
    /// a failure reported with `seed` and `iteration`, assuming the
    /// default schedule-length estimate (exact for iteration 0; for a
    /// mid-run iteration use [`Config::pct_at_len`] with the failure's
    /// recorded `est_len`).
    #[must_use]
    pub fn pct_at(seed: u64, iteration: u64) -> Self {
        Config::pct_at_len(seed, iteration, DEFAULT_EST_LEN)
    }

    /// Replays exactly one PCT iteration with an explicit
    /// schedule-length estimate — the full `(seed, iteration, est_len)`
    /// coordinate a [`Failure`] reports, valid for any iteration.
    #[must_use]
    pub fn pct_at_len(seed: u64, iteration: u64, est_len: u64) -> Self {
        let mut c = Config::pct(seed, 1);
        c.first_iteration = iteration;
        c.first_est_len = est_len.max(1);
        c
    }

    /// Bounded exhaustive DFS.
    #[must_use]
    pub fn dfs(max_executions: u64) -> Self {
        Config {
            seed: 0,
            mode: Mode::Dfs { max_executions },
            max_steps: 20_000,
            depth: 3,
            detect_weak_pairs: true,
            first_iteration: 0,
            first_est_len: DEFAULT_EST_LEN,
            force_timeouts: true,
        }
    }

    /// Replays a single execution from a `Failure::trace` string
    /// (dot-separated decision indices).
    ///
    /// # Panics
    /// Panics if the trace string contains non-numeric components.
    #[must_use]
    pub fn replay_trace(trace: &str) -> Self {
        let parsed = trace
            .split('.')
            .filter(|s| !s.is_empty())
            .map(|s| s.parse::<u32>().expect("trace component"))
            .collect();
        Config {
            seed: 0,
            mode: Mode::Replay { trace: parsed },
            max_steps: 20_000,
            depth: 3,
            detect_weak_pairs: true,
            first_iteration: 0,
            first_est_len: DEFAULT_EST_LEN,
            force_timeouts: true,
        }
    }

    /// Overrides the step budget.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Never forces a timed wait to time out: a run that would need one
    /// to make progress fails as a deadlock (a lost wakeup).
    #[must_use]
    pub fn without_forced_timeouts(mut self) -> Self {
        self.force_timeouts = false;
        self
    }

    /// Disables the weak-pairing detector (for models that legitimately
    /// read relaxed-published values).
    #[must_use]
    pub fn without_weak_pair_detection(mut self) -> Self {
        self.detect_weak_pairs = false;
        self
    }
}

/// Iteration budget helper for CI: `RUBIC_CHECK_ITERS` overrides
/// `default` (the smoke job sets a small value to stay in seconds).
#[must_use]
pub fn env_iters(default: u64) -> u64 {
    std::env::var("RUBIC_CHECK_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn trace_string(schedule: &[u32]) -> String {
    let mut s = String::with_capacity(schedule.len() * 2);
    for (i, c) in schedule.iter().enumerate() {
        if i > 0 {
            s.push('.');
        }
        s.push_str(&c.to_string());
    }
    s
}

/// Explores interleavings of `model` under `config`.
///
/// The model closure is run once per execution; it must be
/// deterministic apart from scheduling and must use the primitives in
/// [`sync`] (directly, or through the `rubic-sync` facade compiled with
/// `--cfg rubic_check`).
///
/// # Panics
/// Panics if a DFS replay diverges (the model is nondeterministic
/// beyond scheduling).
pub fn check(config: Config, model: impl Fn() + Send + Sync + 'static) -> Report {
    let model: Arc<dyn Fn() + Send + Sync> = Arc::new(model);
    let mut executions = 0u64;
    let mut est_len = config.first_est_len.max(1);
    match config.mode {
        Mode::Pct { iterations } => {
            for i in 0..iterations {
                let iteration = config.first_iteration + i;
                let used_len = est_len;
                let strat = Strat::pct(config.seed, iteration, config.depth, est_len);
                let out = engine::Engine::run(Arc::clone(&model), strat, &config);
                executions += 1;
                est_len = out.steps.max(1);
                if let Some((kind, message)) = out.failure {
                    return Report {
                        executions,
                        failure: Some(Failure {
                            kind,
                            message,
                            seed: config.seed,
                            iteration,
                            est_len: used_len,
                            trace: trace_string(&out.schedule),
                        }),
                        exhausted: false,
                    };
                }
            }
            Report {
                executions,
                failure: None,
                exhausted: false,
            }
        }
        Mode::Dfs { max_executions } => {
            let mut stack: Vec<(u32, u32)> = Vec::new();
            loop {
                let strat = Strat::Dfs {
                    stack: std::mem::take(&mut stack),
                    pos: 0,
                    diverged: false,
                };
                let out = engine::Engine::run(Arc::clone(&model), strat, &config);
                executions += 1;
                let Strat::Dfs {
                    stack: st,
                    diverged,
                    ..
                } = out.strat
                else {
                    unreachable!("strategy kind is stable across a run")
                };
                stack = st;
                assert!(
                    !diverged,
                    "DFS replay diverged: the model is nondeterministic beyond scheduling \
                     (wall-clock branch, ambient randomness, or cross-test interference)"
                );
                if let Some((kind, message)) = out.failure {
                    return Report {
                        executions,
                        failure: Some(Failure {
                            kind,
                            message,
                            seed: config.seed,
                            iteration: executions - 1,
                            est_len: 0,
                            trace: trace_string(&out.schedule),
                        }),
                        exhausted: false,
                    };
                }
                if !dfs_backtrack(&mut stack) {
                    return Report {
                        executions,
                        failure: None,
                        exhausted: true,
                    };
                }
                if executions >= max_executions {
                    return Report {
                        executions,
                        failure: None,
                        exhausted: false,
                    };
                }
            }
        }
        Mode::Replay { ref trace } => {
            let strat = Strat::Replay {
                trace: trace.clone(),
                pos: 0,
            };
            let out = engine::Engine::run(Arc::clone(&model), strat, &config);
            Report {
                executions: 1,
                failure: out.failure.map(|(kind, message)| Failure {
                    kind,
                    message,
                    seed: config.seed,
                    iteration: 0,
                    est_len: 0,
                    trace: trace_string(&out.schedule),
                }),
                exhausted: false,
            }
        }
    }
}
