//! The STM workloads as lanes: `rbtree_read`, `rbtree_write` (a pool of
//! `nproc` pinned at `nproc`) and `vacation_tuned` (a pool of `2 × nproc`
//! under live RUBIC).

use std::sync::Arc;
use std::time::Duration;

use rubic::controllers::{Controller, Policy, PolicyConfig};
use rubic::runtime::{MalleablePool, PoolConfig, Workload};
use rubic::stm::{Stm, StmStats, TVar};
use rubic::workloads::{
    OpMix, RbTreeConfig, RbTreeWorkload, TOrdMap, VacationConfig, VacationWorkload,
};

use super::lane::{self, Lane};
use crate::baseline::{RbTreeTwin, VacationTwin};
use crate::harness::{
    fixed_pool, loop_rate, pool_window, time_setup, timed_loop, MetricSet, Outcome, RunArgs,
    Sampling, Window,
};
use crate::json::Json;
use crate::procfs;
use crate::timed::{TimedController, TimedWorkload, Tracer};

/// Calls between clock reads in the plain loops: a few µs of tree tasks,
/// a few hundred µs of vacation sessions.
const LOOP_BATCH: u32 = 16;
/// The worker id the direct loop draws its RNG stream from — above any
/// pool's tids, so it repeats no worker's stream.
const DIRECT_TID: usize = 1 << 20;

/// Where a window's workload instance comes from.
enum Source<W, T> {
    /// One instance and one twin for the whole run. Right for a workload
    /// whose state is stationary: the tree stays around its initial size
    /// and a window leaves nothing behind that the next would notice.
    Shared(Arc<W>, T),
    /// A fresh instance (and twin) for every window. Vacation is not
    /// stationary — a customer's list of bookings grows for hundreds of
    /// thousands of tasks and every reservation copies it, so an instance
    /// slows to half its initial rate within seconds — and a baseline
    /// taken on an older instance than the run it is compared with would
    /// be wrong. From identical initial state every window is the same
    /// experiment: the first second or so of an instance's life.
    Fresh(Box<dyn Fn() -> W>, Box<dyn Fn() -> T>),
}

/// An STM workload, its twin, and how its main run is controlled.
struct StmLane<W: Workload, T> {
    source: Source<W, T>,
    stats: fn(&W) -> &StmStats,
    twin_task: fn(&mut T),
    pool: u32,
    policy: Policy,
    check: fn(&W) -> Vec<String>,
    probes: fn(&mut MetricSet),
    failures: Vec<String>,
}

impl<W: Workload, T> StmLane<W, T> {
    fn policy_cfg(&self) -> PolicyConfig {
        PolicyConfig {
            hw_contexts: procfs::nproc(),
            pool_size: self.pool,
            ..PolicyConfig::paper(1)
        }
    }

    fn instance(&self) -> Arc<W> {
        match &self.source {
            Source::Shared(w, _) => Arc::clone(w),
            Source::Fresh(build, _) => Arc::new(build()),
        }
    }

    /// Runs one pool window over an instance and checks the instance's
    /// outputs afterwards.
    fn window(&mut self, run: impl FnOnce(&Self, Arc<W>, Option<&StmStats>) -> Window) -> Window {
        let workload = self.instance();
        let window = run(self, Arc::clone(&workload), Some((self.stats)(&workload)));
        self.failures.extend((self.check)(&workload));
        window
    }
}

impl<W: Workload, T> Lane for StmLane<W, T> {
    fn pool_size(&self) -> u32 {
        self.pool
    }

    fn main_level(&self) -> Option<u32> {
        match self.policy {
            Policy::Fixed(level) => Some(level),
            _ => None,
        }
    }

    fn main_weight(&self) -> f64 {
        if self.main_level().is_some() {
            1.0
        } else {
            3.0
        }
    }

    fn main(&mut self, warm: Duration, measure: Duration, tracer: Option<&Arc<Tracer>>) -> Window {
        self.window(|lane, workload, stats| {
            // A pinned run starts at its level; a tuned one at 1, as the
            // paper's does.
            let cfg = PoolConfig::new(lane.pool).initial_level(lane.main_level().unwrap_or(1));
            let sampling = match lane.main_level() {
                Some(_) => Sampling::Pinned,
                None => Sampling::Moving,
            };
            let times = (warm, measure, sampling);
            match tracer {
                None => pool_window(workload, cfg, lane.controller(), stats, times),
                Some(t) => pool_window(
                    TimedWorkload::new(workload, Arc::clone(t)),
                    cfg,
                    Box::new(TimedController::new(lane.controller(), Arc::clone(t))),
                    stats,
                    times,
                ),
            }
        })
    }

    fn fixed(&mut self, level: u32, warm: Duration, measure: Duration) -> Window {
        self.window(|_, workload, _| {
            let (cfg, controller) = fixed_pool(level);
            pool_window(
                workload,
                cfg,
                controller,
                None,
                (warm, measure, Sampling::Pinned),
            )
        })
    }

    fn twin(&mut self, dur: Duration) -> f64 {
        let task = self.twin_task;
        match &mut self.source {
            Source::Shared(_, twin) => loop_rate(dur, LOOP_BATCH, || task(twin)),
            Source::Fresh(_, build) => {
                let mut twin = build();
                loop_rate(dur, LOOP_BATCH, || task(&mut twin))
            }
        }
    }

    fn direct(&mut self, dur: Duration) -> Option<f64> {
        let workload = self.instance();
        let mut state = workload.init_worker(DIRECT_TID);
        Some(loop_rate(dur, LOOP_BATCH, || workload.run_task(&mut state)))
    }

    fn body_ns_per_task(&self, _twin_ns: f64) -> Option<f64> {
        None
    }

    fn controller(&self) -> Box<dyn Controller> {
        self.policy.build(&self.policy_cfg())
    }

    fn probes(&mut self, m: &mut MetricSet) {
        (self.probes)(m);
    }

    fn check(&mut self) -> Vec<String> {
        std::mem::take(&mut self.failures)
    }
}

/// Times building the workload and starting a pool over it (the pool is
/// stopped outside the timed region); returns the median and the last
/// workload built.
fn setup<W: Workload>(
    seconds: f64,
    pool: u32,
    policy: Policy,
    build: impl Fn() -> W,
) -> (f64, Arc<W>) {
    let cfg = PolicyConfig {
        pool_size: pool,
        ..PolicyConfig::paper(1)
    };
    let (setup_s, (workload, _running)) = time_setup(seconds, || {
        let workload = Arc::new(build());
        let running = MalleablePool::start(
            PoolConfig::new(pool),
            Arc::clone(&workload),
            policy.build(&cfg),
        );
        (workload, running)
    });
    (setup_s, workload)
}

/// `rbtree_read` / `rbtree_write`: the paper's tree under `mix`.
pub fn rbtree(args: &RunArgs, mix: OpMix, probe_stm: bool) -> (Outcome, Option<Json>) {
    let nproc = procfs::nproc();
    let cfg = RbTreeConfig {
        seed: args.seed,
        ..RbTreeConfig::paper().with_mix(mix)
    };
    let policy = Policy::Fixed(nproc);
    let build = || RbTreeWorkload::new(cfg.clone(), Stm::default());
    // Only the untraced pass reports set-up time; the traced pass builds
    // its one instance without timing it.
    let (setup_s, workload) = if args.trace {
        (0.0, Arc::new(build()))
    } else {
        setup(args.seconds, nproc, policy, build)
    };
    let probes: fn(&mut MetricSet) = if probe_stm { stm_probes } else { |_| {} };
    let mut lane = StmLane {
        source: Source::Shared(workload, RbTreeTwin::new(cfg)),
        stats: |w| w.stm().stats(),
        twin_task: RbTreeTwin::run_task,
        pool: nproc,
        policy,
        check: |w| match w.map().check_invariants() {
            Ok(_) => Vec::new(),
            Err(e) => vec![format!("rbtree invariants: {e}")],
        },
        probes,
        failures: Vec::new(),
    };
    lane::run(&mut lane, args, || setup_s)
}

/// `vacation_tuned`: vacation-high under live RUBIC at the 10 ms period.
pub fn vacation_tuned(args: &RunArgs) -> (Outcome, Option<Json>) {
    let pool = 2 * procfs::nproc();
    let cfg = VacationConfig {
        seed: args.seed,
        ..VacationConfig::high_contention(16_384)
    };
    let build = move || VacationWorkload::new(cfg, Stm::default());
    let mut lane = StmLane {
        source: Source::Fresh(Box::new(build), Box::new(move || VacationTwin::new(cfg))),
        stats: |w| w.stm().stats(),
        twin_task: VacationTwin::run_task,
        pool,
        policy: Policy::Rubic,
        check: check_vacation,
        probes: |_| {},
        failures: Vec::new(),
    };
    lane::run(&mut lane, args, || {
        setup(args.seconds, pool, Policy::Rubic, build).0
    })
}

/// Vacation's ledger: units marked reserved in the tables equal the
/// reservations customers hold.
pub fn check_vacation(w: &VacationWorkload) -> Vec<String> {
    let reserved = w.manager().total_reserved_units(w.stm());
    let held = w.manager().total_customer_bookings();
    if reserved == held {
        Vec::new()
    } else {
        vec![format!(
            "vacation ledger: {reserved} units reserved, {held} bookings held"
        )]
    }
}

/// Single-thread probe loops over bare `TVar<u64>`s: the cost of a
/// transaction by read-set and write-set size, with no data structure.
fn stm_probes(m: &mut MetricSet) {
    let stm = Stm::default();
    let vars: Vec<TVar<u64>> = (0..64).map(TVar::new).collect();
    let probe = |task: &mut dyn FnMut()| {
        let (calls, secs) = timed_loop(Duration::from_millis(40), 256, task);
        secs * 1e9 / calls as f64
    };
    let read_n = |n: usize| {
        stm.read_only(|tx| {
            let mut sum = 0u64;
            for v in &vars[..n] {
                sum = sum.wrapping_add(tx.read(v)?);
            }
            Ok(sum)
        })
    };
    let write_n = |n: usize| {
        stm.atomically(|tx| {
            for v in &vars[..n] {
                let x = tx.read(v)?;
                tx.write(v, x.wrapping_add(1))?;
            }
            Ok(())
        });
    };
    m.set(
        "stm.txn_ro1_ns",
        probe(&mut || {
            std::hint::black_box(read_n(1));
        }),
    );
    m.set(
        "stm.txn_ro64_ns",
        probe(&mut || {
            std::hint::black_box(read_n(64));
        }),
    );
    m.set("stm.txn_rw1_ns", probe(&mut || write_n(1)));
    m.set("stm.txn_rw8_ns", probe(&mut || write_n(8)));
}
