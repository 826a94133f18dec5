//! The machine model: hardware contexts, time slicing, and the
//! oversubscription penalty.
//!
//! **Hardware-gate substitution (DESIGN.md §1).** The paper's testbed is
//! a 4-socket, 64-context AMD Opteron 6272 machine running co-located
//! multi-threaded OS processes. This model replaces it:
//!
//! * With total runnable software threads `T ≤ C` (contexts), every
//!   thread gets a dedicated context and each process performs exactly
//!   as its intrinsic scalability curve predicts.
//! * With `T > C` (oversubscription), the OS time-slices fairly: each
//!   thread effectively runs at `C/T` speed, scaling every process's
//!   throughput by that share. On top, a penalty
//!   `1 / (1 + δ·(T/C − 1))` models the costs the paper names in §1:
//!   context-switch overhead, cache thrashing, and — TM-specific —
//!   prolonged transaction windows that inflate conflict/abort rates
//!   (Maldonado et al.). `δ` defaults to 0.02 — deliberately gentle:
//!   the dominant oversubscription cost is the time-slice share itself,
//!   and a near-flat per-process plateau just past `C` is what lets the
//!   paper's F2C2/EBS plateau pathologies (§4.6) emerge once
//!   measurement noise is added. The `ablations` bench sweeps δ.
//!
//! The model is intentionally minimal: it preserves exactly the two
//! properties the paper's analysis depends on — single-process
//! behaviour is the scalability curve itself, and crossing the
//! oversubscription line hurts *everyone* — without pretending to
//! predict absolute hardware numbers.
//!
//! Sockets are not modelled (DESIGN.md §17): no worker in this
//! repository is pinned, so where a thread runs is the OS's choice, and
//! the model has contexts, time slicing and `δ` only.

/// The simulated machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Hardware contexts (the paper's machine: 64).
    pub contexts: u32,
    /// Oversubscription penalty slope δ.
    pub penalty_delta: f64,
}

impl Machine {
    /// The paper's machine — 64 contexts — with the default penalty.
    #[must_use]
    pub fn paper() -> Self {
        Machine {
            contexts: 64,
            penalty_delta: 0.02,
        }
    }

    /// A machine with `contexts` contexts and the default penalty.
    #[must_use]
    pub fn with_contexts(contexts: u32) -> Self {
        Machine {
            contexts: contexts.max(1),
            ..Machine::paper()
        }
    }

    /// Sets the penalty slope δ (ablations).
    #[must_use]
    pub fn penalty(mut self, delta: f64) -> Self {
        self.penalty_delta = delta.max(0.0);
        self
    }

    /// The fraction of full speed each software thread gets when
    /// `total_threads` are runnable: `min(1, C/T)`.
    #[must_use]
    pub fn time_slice_share(&self, total_threads: u32) -> f64 {
        if total_threads <= self.contexts {
            1.0
        } else {
            f64::from(self.contexts) / f64::from(total_threads)
        }
    }

    /// The multiplicative oversubscription penalty at `total_threads`.
    #[must_use]
    pub fn oversubscription_penalty(&self, total_threads: u32) -> f64 {
        if total_threads <= self.contexts {
            1.0
        } else {
            let ratio = f64::from(total_threads) / f64::from(self.contexts);
            1.0 / (1.0 + self.penalty_delta * (ratio - 1.0))
        }
    }

    /// A process's effective speed-up when it would intrinsically reach
    /// `intrinsic_speedup` with its threads and the whole system runs
    /// `total_threads` software threads.
    #[must_use]
    pub fn effective_speedup(&self, intrinsic_speedup: f64, total_threads: u32) -> f64 {
        intrinsic_speedup
            * self.time_slice_share(total_threads)
            * self.oversubscription_penalty(total_threads)
    }

    /// True when the system is oversubscribed at `total_threads`.
    #[must_use]
    pub fn oversubscribed(&self, total_threads: u32) -> bool {
        total_threads > self.contexts
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undersubscribed_is_transparent() {
        let m = Machine::paper();
        for t in [1, 32, 64] {
            assert_eq!(m.time_slice_share(t), 1.0);
            assert_eq!(m.oversubscription_penalty(t), 1.0);
            assert_eq!(m.effective_speedup(10.0, t), 10.0);
            assert!(!m.oversubscribed(t) || t > 64);
        }
    }

    #[test]
    fn oversubscription_hurts_monotonically() {
        let m = Machine::paper();
        let mut prev = f64::INFINITY;
        for t in [65, 70, 96, 128, 256] {
            let eff = m.effective_speedup(64.0, t);
            assert!(eff < prev, "t={t}");
            prev = eff;
            assert!(m.oversubscribed(t));
        }
    }

    #[test]
    fn crossing_the_line_causes_a_detectable_drop() {
        // The controller relies on seeing a throughput decrease right
        // past C. With a linear (perfectly scalable) workload:
        let m = Machine::paper();
        let at_64 = m.effective_speedup(64.0, 64);
        let at_65 = m.effective_speedup(65.0, 65);
        assert!(
            at_65 < at_64,
            "no loss when crossing the line: {at_64} -> {at_65}"
        );
    }

    #[test]
    fn share_math() {
        let m = Machine::with_contexts(64);
        assert!((m.time_slice_share(128) - 0.5).abs() < 1e-12);
        assert!((m.time_slice_share(96) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn penalty_slope_zero_is_pure_time_slicing() {
        let m = Machine::with_contexts(64).penalty(0.0);
        assert_eq!(m.oversubscription_penalty(128), 1.0);
        assert!((m.effective_speedup(64.0, 128) - 32.0).abs() < 1e-12);
    }

    #[test]
    fn zero_threads_is_an_idle_machine() {
        // `total_threads == 0` (no process active this round) must be
        // transparent, not a division hazard.
        let m = Machine::paper();
        assert_eq!(m.time_slice_share(0), 1.0);
        assert_eq!(m.oversubscription_penalty(0), 1.0);
        assert_eq!(m.effective_speedup(0.0, 0), 0.0);
        assert!(!m.oversubscribed(0));
    }

    #[test]
    fn exactly_at_capacity_is_transparent() {
        // T == C sits on the boundary: still undersubscribed, share and
        // penalty both exactly 1, and one more thread flips both.
        for c in [1, 2, 16, 64, 256] {
            let m = Machine::with_contexts(c);
            assert_eq!(m.time_slice_share(c), 1.0, "C={c}");
            assert_eq!(m.oversubscription_penalty(c), 1.0, "C={c}");
            assert!(!m.oversubscribed(c));
            assert!(m.time_slice_share(c + 1) < 1.0, "C={c}");
            assert!(m.oversubscription_penalty(c + 1) < 1.0, "C={c}");
            assert!(m.oversubscribed(c + 1));
        }
    }

    #[test]
    fn far_past_capacity_degrades_but_stays_positive() {
        // Extreme oversubscription (4096 threads on 64 contexts): the
        // share goes to C/T, the penalty stays in (0, 1], and the
        // product never hits zero or goes negative.
        let m = Machine::paper();
        let t = 4096;
        assert!((m.time_slice_share(t) - 64.0 / 4096.0).abs() < 1e-12);
        let p = m.oversubscription_penalty(t);
        assert!(p > 0.0 && p < 1.0, "penalty {p}");
        let expected = 1.0 / (1.0 + 0.02 * (4096.0 / 64.0 - 1.0));
        assert!((p - expected).abs() < 1e-12);
        let eff = m.effective_speedup(64.0, t);
        assert!(eff > 0.0 && eff < 1.5, "eff {eff}");
    }

    #[test]
    fn penalty_monotone_over_dense_range() {
        // Dense-sweep companion to the proptest in tests/prop_sim.rs:
        // the penalty is non-increasing in T across the boundary and
        // strictly decreasing past it (for δ > 0).
        let m = Machine::paper();
        let mut prev = m.oversubscription_penalty(0);
        for t in 1..=512u32 {
            let p = m.oversubscription_penalty(t);
            assert!(p <= prev + 1e-15, "t={t}: {p} > {prev}");
            if t > 64 {
                assert!(p < prev, "t={t}: not strictly decreasing past C");
            }
            prev = p;
        }
    }

    #[test]
    fn two_greedy_processes_lose_big() {
        // The Fig. 7 Greedy pathology: two processes at 64 threads each
        // (T = 128) on intruder-like workloads each get hammered by both
        // slicing and penalty.
        let m = Machine::paper();
        let alone = m.effective_speedup(3.5, 64);
        let contended = m.effective_speedup(3.5, 128);
        // Time slicing alone halves it; the penalty shaves a bit more.
        assert!(contended < alone * 0.50);
    }
}
