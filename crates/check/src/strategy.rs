//! Schedule exploration strategies.
//!
//! Every scheduling decision is "pick one thread out of the currently
//! enabled set". The engine records each decision as an index into that
//! set, so any execution — random or exhaustive — replays exactly from
//! its decision trace (and, for PCT, from its `(seed, iteration)` pair,
//! since the strategy draws all randomness from a seeded generator).

/// SplitMix64: tiny, seedable, statistically solid for schedule
/// perturbation. (Same generator family the vendored `rand` shim uses;
/// reimplemented here so `rubic-check` stays dependency-free.)
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)` (n > 0).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Per-execution strategy state. Constructed fresh for every execution
/// by the [`crate::Checker`]; DFS state is threaded back out afterwards.
#[derive(Debug)]
pub(crate) enum Strat {
    /// Probabilistic Concurrency Testing: random static priorities per
    /// thread plus `depth` priority-lowering points at random steps.
    /// Always runs the highest-priority enabled thread.
    Pct {
        rng: SplitMix64,
        priorities: Vec<u64>,
        /// Steps at which the currently-running choice gets demoted.
        change_points: Vec<u64>,
        /// Strictly decreasing: each demotion takes the next value, so a
        /// demoted thread ranks below every previous demotion.
        next_low: u64,
    },
    /// Bounded exhaustive DFS over decision traces. `stack` holds
    /// `(chosen index, enabled count)` per decision; a prefix replays,
    /// the first fresh decision takes index 0, and the checker
    /// increments the deepest incrementable entry between executions.
    Dfs {
        stack: Vec<(u32, u32)>,
        pos: usize,
        /// Set if a replayed prefix saw a different enabled-set size
        /// than recorded — the model is nondeterministic beyond
        /// scheduling, which DFS cannot handle.
        diverged: bool,
    },
    /// Exact replay of a recorded decision trace.
    Replay { trace: Vec<u32>, pos: usize },
}

impl Strat {
    pub(crate) fn pct(seed: u64, iteration: u64, depth: u32, est_len: u64) -> Self {
        // Golden-ratio mix keeps per-iteration streams decorrelated.
        let mut rng = SplitMix64::new(seed ^ iteration.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let change_points = (0..depth.saturating_sub(1))
            .map(|_| 1 + rng.below(est_len.max(1)))
            .collect();
        Strat::Pct {
            rng,
            priorities: Vec::new(),
            change_points,
            next_low: 0,
        }
    }

    /// Called when thread `tid` registers.
    pub(crate) fn on_spawn(&mut self, tid: usize) {
        if let Strat::Pct {
            rng, priorities, ..
        } = self
        {
            if priorities.len() <= tid {
                priorities.resize(tid + 1, 0);
            }
            // High bit set keeps initial priorities above every possible
            // demotion value.
            priorities[tid] = rng.next() | (1 << 63);
        }
    }

    /// Called when thread `tid`, holding the baton, yields or sleeps.
    /// PCT demotes it below every thread demoted so far: a thread that
    /// yields is waiting for another to make progress, and keeping its
    /// priority would spin it until the step budget. DFS and replay
    /// ignore it — their decisions already cover every choice.
    ///
    /// PCT's bound (Burckhardt et al., ASPLOS 2010: a bug of depth `d`
    /// in `n` threads and `k` steps is found with probability at least
    /// `1 / (n k^(d-1))` per run) assumes every schedule terminates,
    /// which a spin-wait under fixed priorities does not. Demoting at
    /// yields is what lets such a model terminate; the demotions are
    /// priority changes beyond the `d - 1` the bound counts, so for an
    /// execution that yields the bound is a guide, not a guarantee. An
    /// execution that never yields is scheduled exactly as before.
    pub(crate) fn on_yield(&mut self, tid: usize) {
        if let Strat::Pct {
            priorities,
            next_low,
            ..
        } = self
        {
            demote(priorities, next_low, tid);
        }
    }

    /// Picks the next thread: returns an index into `enabled`.
    pub(crate) fn choose(&mut self, enabled: &[usize], step: u64) -> usize {
        debug_assert!(!enabled.is_empty());
        match self {
            Strat::Pct {
                priorities,
                change_points,
                next_low,
                ..
            } => {
                let best = |prios: &[u64]| {
                    enabled
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, &tid)| prios.get(tid).copied().unwrap_or(0))
                        .map(|(i, _)| i)
                        .unwrap_or(0)
                };
                if change_points.contains(&step) {
                    // Demote the thread that would have run.
                    let tid = enabled[best(priorities)];
                    demote(priorities, next_low, tid);
                }
                best(priorities)
            }
            Strat::Dfs {
                stack,
                pos,
                diverged,
            } => {
                let n = enabled.len() as u32;
                let choice = if *pos < stack.len() {
                    if stack[*pos].1 != n {
                        *diverged = true;
                    }
                    stack[*pos].0.min(n - 1)
                } else {
                    stack.push((0, n));
                    0
                };
                *pos += 1;
                choice as usize
            }
            Strat::Replay { trace, pos } => {
                let choice = trace
                    .get(*pos)
                    .copied()
                    .unwrap_or(0)
                    .min(enabled.len() as u32 - 1);
                *pos += 1;
                choice as usize
            }
        }
    }
}

/// Gives `tid` the next (strictly lower) demotion priority.
fn demote(priorities: &mut Vec<u64>, next_low: &mut u64, tid: usize) {
    if priorities.len() <= tid {
        priorities.resize(tid + 1, 0);
    }
    *next_low = next_low.wrapping_sub(1);
    priorities[tid] = *next_low & !(1 << 63);
}

/// Advances a DFS decision stack to the next unexplored trace.
/// Returns `false` when the space is exhausted.
pub(crate) fn dfs_backtrack(stack: &mut Vec<(u32, u32)>) -> bool {
    while let Some(&(chosen, n)) = stack.last() {
        if chosen + 1 < n {
            stack.last_mut().expect("non-empty").0 += 1;
            return true;
        }
        stack.pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn pct_same_seed_same_choices() {
        let mk = || {
            let mut s = Strat::pct(7, 3, 3, 100);
            s.on_spawn(0);
            s.on_spawn(1);
            s.on_spawn(2);
            (0..50)
                .map(|step| s.choose(&[0, 1, 2], step))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn dfs_enumerates_all_traces() {
        // Two decisions of width 2 -> 4 traces.
        let mut stack: Vec<(u32, u32)> = Vec::new();
        let mut seen = Vec::new();
        loop {
            let mut s = Strat::Dfs {
                stack: std::mem::take(&mut stack),
                pos: 0,
                diverged: false,
            };
            let t = (s.choose(&[0, 1], 0), s.choose(&[0, 1], 1));
            let Strat::Dfs { stack: st, .. } = s else {
                unreachable!()
            };
            stack = st;
            seen.push(t);
            if !dfs_backtrack(&mut stack) {
                break;
            }
        }
        assert_eq!(seen, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }
}
