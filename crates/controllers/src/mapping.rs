//! Thread-to-socket mapping policies — the *where* axis of tuning.
//!
//! RUBIC and the competing policies in [`policy`](crate::policy) decide
//! *how many* threads a process runs. On a multi-socket machine that is
//! only half the allocation problem: Pasqualin et al.'s survey of
//! thread/data mapping in STM (PAPERS.md) shows *where* those threads
//! run rivals the concurrency level as a performance lever. This module
//! supplies the second axis as a composable policy:
//!
//! * [`Topology`] — the socket layout a mapper places onto.
//! * [`Placement`] — a concrete assignment (threads per socket) plus a
//!   stability bit (whether the assignment is pinned or left to the OS).
//! * [`Mapper`] — the per-round decision interface, symmetric with
//!   [`Controller`](crate::Controller): feed it the level the
//!   concurrency controller chose plus a conflict signal, get back a
//!   placement. Decisions stay unilateral and decentralised — a mapper
//!   sees only its own process, never its neighbours.
//! * [`MappingPolicy`] — the enum the benches and the simulator sweep:
//!   `blind` (no affinity, the OS default), `compact` (fill sockets
//!   before spilling), `scatter` (round-robin across sockets) and
//!   `adaptive` (compact under contention, scatter when conflict-free).
//!
//! The trade-off the policies navigate (DESIGN.md §17): packing a
//! conflict-heavy workload onto one socket keeps its transactional
//! metadata in one LLC (cheap conflicts), while spreading a
//! conflict-free workload buys it the aggregate memory bandwidth of
//! every socket. `adaptive` switches between the two on the observed
//! conflict signal, with hysteresis so measurement jitter cannot make
//! it thrash.

/// The socket layout of a machine, as seen by a mapping policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of sockets (NUMA nodes / LLC domains).
    pub sockets: u32,
    /// Hardware contexts per socket.
    pub contexts_per_socket: u32,
}

impl Topology {
    /// A flat machine: one socket holding all `contexts` contexts.
    #[must_use]
    pub fn flat(contexts: u32) -> Self {
        Topology {
            sockets: 1,
            contexts_per_socket: contexts.max(1),
        }
    }

    /// The paper's testbed: 4 sockets × 16 contexts (AMD Opteron 6272).
    #[must_use]
    pub fn paper() -> Self {
        Topology {
            sockets: 4,
            contexts_per_socket: 16,
        }
    }

    /// Total hardware contexts.
    #[must_use]
    pub fn total_contexts(&self) -> u32 {
        self.sockets * self.contexts_per_socket
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::paper()
    }
}

/// A concrete thread-to-socket assignment for one process.
///
/// Both shapes are arithmetic in `(level, topology)`, so a placement is
/// those two plus the shape: `Copy`, no allocation however many sockets
/// the machine has, and [`threads_on`](Placement::threads_on) derives any
/// socket's count. The simulator builds one per process per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    level: u32,
    topo: Topology,
    /// Fill sockets in order (`compact`) rather than round-robin.
    packed: bool,
    /// True when the assignment is pinned (thread affinity): the
    /// threads stay put and keep their caches warm. False models the
    /// no-affinity OS default, where the scheduler migrates threads
    /// freely — the *expected* occupancy is spread out, but no socket
    /// ever retains a working set.
    pub stable: bool,
}

impl Placement {
    /// Fill sockets in order: socket 0 first, spill to 1 only when 0 is
    /// at capacity, and so on. Past machine capacity the overflow wraps
    /// round-robin from socket 0 (the threads exist; they just
    /// oversubscribe).
    #[must_use]
    pub fn compact(level: u32, topo: &Topology) -> Self {
        Placement {
            level,
            topo: *topo,
            packed: true,
            stable: true,
        }
    }

    /// Spread threads round-robin across all sockets, pinned.
    #[must_use]
    pub fn scatter(level: u32, topo: &Topology) -> Self {
        Placement {
            level,
            topo: *topo,
            packed: false,
            stable: true,
        }
    }

    /// The no-affinity OS default: occupancy spreads like
    /// [`scatter`](Placement::scatter), but nothing is pinned.
    #[must_use]
    pub fn blind(level: u32, topo: &Topology) -> Self {
        Placement {
            stable: false,
            ..Placement::scatter(level, topo)
        }
    }

    /// Threads placed on `socket` (0 for a socket the topology lacks).
    #[must_use]
    pub fn threads_on(&self, socket: u32) -> u32 {
        let n = self.topo.sockets;
        if socket >= n {
            return 0;
        }
        // Both shapes deal `spill` threads round-robin from socket 0 on
        // top of a `base`: scatter deals every thread, compact only
        // what the machine cannot hold after filling sockets in order.
        let (base, spill) = if self.packed {
            let cap = u64::from(self.topo.contexts_per_socket);
            let before = u64::from(socket) * cap;
            let base = (u64::from(self.level).saturating_sub(before)).min(cap) as u32;
            let spill = u64::from(self.level).saturating_sub(u64::from(n) * cap) as u32;
            (base, spill)
        } else {
            (0, self.level)
        };
        base + spill / n + u32::from(socket < spill % n)
    }

    /// Total threads placed.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.level
    }

    /// Sockets with at least one thread.
    #[must_use]
    pub fn sockets_used(&self) -> u32 {
        (0..self.topo.sockets)
            .filter(|&s| self.threads_on(s) > 0)
            .count() as u32
    }

    /// How spread out the placement is: `1 − max_socket/total`, i.e. the
    /// fraction of threads that live off the most-populated socket.
    /// `0.0` when every thread shares one socket (or nothing is placed),
    /// approaching `1 − 1/sockets` for a perfectly even spread.
    #[must_use]
    pub fn spread_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        // Both shapes fill socket 0 first and never put more threads on
        // a later socket than on an earlier one, so socket 0 is the
        // most populated.
        let max = self.threads_on(0);
        1.0 - f64::from(max) / f64::from(total)
    }
}

/// A per-round thread-placement decision maker, symmetric with
/// [`Controller`](crate::Controller): the concurrency controller picks
/// the level, the mapper picks where those threads go.
pub trait Mapper: Send {
    /// Places `level` threads on `topo`. `conflict_signal` is the
    /// process's own contention observation in `[0, 1]` (abort rate on
    /// the real runtime; the efficiency deficit in the simulator) —
    /// only `adaptive` consumes it.
    fn place(&mut self, level: u32, topo: &Topology, conflict_signal: f64) -> Placement;

    /// Resets internal state (hysteresis) between repetitions.
    fn reset(&mut self);

    /// Policy name, as reported in benches.
    fn name(&self) -> &'static str;
}

/// Stateless mapper for the three fixed shapes.
struct FixedMapper {
    policy: MappingPolicy,
}

impl Mapper for FixedMapper {
    fn place(&mut self, level: u32, topo: &Topology, _conflict_signal: f64) -> Placement {
        match self.policy {
            MappingPolicy::Compact => Placement::compact(level, topo),
            MappingPolicy::Scatter => Placement::scatter(level, topo),
            _ => Placement::blind(level, topo),
        }
    }

    fn reset(&mut self) {}

    fn name(&self) -> &'static str {
        self.policy.label()
    }
}

/// Compact under contention, scatter when conflict-free, with
/// hysteresis: the mode only flips when the signal crosses the far
/// threshold, so jitter around either threshold cannot make placement
/// oscillate (every flip invalidates warmed caches — worse than either
/// steady state).
struct AdaptiveMapper {
    /// Signal above which the mapper packs (conflicts dominate).
    high: f64,
    /// Signal below which the mapper spreads (bandwidth dominates).
    low: f64,
    compact_mode: bool,
}

impl AdaptiveMapper {
    fn new() -> Self {
        AdaptiveMapper {
            high: 0.5,
            low: 0.35,
            compact_mode: true,
        }
    }
}

impl Mapper for AdaptiveMapper {
    fn place(&mut self, level: u32, topo: &Topology, conflict_signal: f64) -> Placement {
        if conflict_signal >= self.high {
            self.compact_mode = true;
        } else if conflict_signal <= self.low {
            self.compact_mode = false;
        }
        if self.compact_mode {
            Placement::compact(level, topo)
        } else {
            Placement::scatter(level, topo)
        }
    }

    fn reset(&mut self) {
        self.compact_mode = true;
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }
}

/// The mapping-policy axis: which [`Mapper`] a process runs.
///
/// Orthogonal to [`Policy`](crate::Policy) — every concurrency
/// controller composes with every mapping policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingPolicy {
    /// No placement decision: threads float wherever the OS puts them
    /// (the pre-topology behaviour, and the baseline the aware policies
    /// are measured against).
    #[default]
    Blind,
    /// Fill sockets before spilling: minimal cross-socket communication.
    Compact,
    /// Round-robin across sockets: maximal aggregate memory bandwidth.
    Scatter,
    /// Compact when the conflict signal is high, scatter when low.
    AdaptiveAbort,
}

impl MappingPolicy {
    /// Every mapping policy, in sweep order.
    pub const ALL: [MappingPolicy; 4] = [
        MappingPolicy::Blind,
        MappingPolicy::Compact,
        MappingPolicy::Scatter,
        MappingPolicy::AdaptiveAbort,
    ];

    /// Parses a policy name as used on bench command lines.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "blind" | "none" => Some(MappingPolicy::Blind),
            "compact" => Some(MappingPolicy::Compact),
            "scatter" => Some(MappingPolicy::Scatter),
            "adaptive" | "adaptive-abort" => Some(MappingPolicy::AdaptiveAbort),
            _ => None,
        }
    }

    /// The name reported in benches and figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            MappingPolicy::Blind => "blind",
            MappingPolicy::Compact => "compact",
            MappingPolicy::Scatter => "scatter",
            MappingPolicy::AdaptiveAbort => "adaptive",
        }
    }

    /// Builds the mapper.
    #[must_use]
    pub fn build(&self) -> Box<dyn Mapper> {
        match self {
            MappingPolicy::AdaptiveAbort => Box::new(AdaptiveMapper::new()),
            p => Box::new(FixedMapper { policy: *p }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn per_socket(p: Placement) -> Vec<u32> {
        (0..p.topo.sockets).map(|s| p.threads_on(s)).collect()
    }

    #[test]
    fn paper_topology_is_4x16() {
        let t = Topology::paper();
        assert_eq!(t.sockets, 4);
        assert_eq!(t.contexts_per_socket, 16);
        assert_eq!(t.total_contexts(), 64);
    }

    #[test]
    fn compact_fills_before_spilling() {
        let t = Topology::paper();
        assert_eq!(per_socket(Placement::compact(7, &t)), vec![7, 0, 0, 0]);
        assert_eq!(per_socket(Placement::compact(16, &t)), vec![16, 0, 0, 0]);
        assert_eq!(per_socket(Placement::compact(17, &t)), vec![16, 1, 0, 0]);
        assert_eq!(per_socket(Placement::compact(64, &t)), vec![16, 16, 16, 16]);
        // Past capacity: overflow wraps, nothing is lost.
        let over = Placement::compact(70, &t);
        assert_eq!(over.total(), 70);
        assert_eq!(per_socket(over), vec![18, 18, 17, 17]);
    }

    #[test]
    fn scatter_spreads_evenly() {
        let t = Topology::paper();
        assert_eq!(per_socket(Placement::scatter(6, &t)), vec![2, 2, 1, 1]);
        assert_eq!(per_socket(Placement::scatter(64, &t)), vec![16, 16, 16, 16]);
        assert_eq!(Placement::scatter(1, &t).sockets_used(), 1);
    }

    #[test]
    fn blind_spreads_but_is_unstable() {
        let t = Topology::paper();
        let b = Placement::blind(8, &t);
        assert_eq!(per_socket(b), per_socket(Placement::scatter(8, &t)));
        assert!(!b.stable);
        assert!(Placement::scatter(8, &t).stable);
        assert!(Placement::compact(8, &t).stable);
    }

    #[test]
    fn spread_fraction_bounds() {
        let t = Topology::paper();
        assert_eq!(Placement::compact(10, &t).spread_fraction(), 0.0);
        let s = Placement::scatter(64, &t).spread_fraction();
        assert!((s - 0.75).abs() < 1e-12, "even spread on 4 sockets: {s}");
        // Empty placement is defined (no NaN).
        assert_eq!(Placement::scatter(0, &t).spread_fraction(), 0.0);
        // Single-socket topology never spreads.
        assert_eq!(
            Placement::scatter(10, &Topology::flat(64)).spread_fraction(),
            0.0
        );
    }

    #[test]
    fn placements_conserve_threads() {
        let topos = [
            Topology::paper(),
            Topology::flat(2),
            Topology {
                sockets: 3,
                contexts_per_socket: 5,
            },
        ];
        for t in topos {
            for level in 0..=128 {
                for p in [
                    Placement::compact(level, &t),
                    Placement::scatter(level, &t),
                    Placement::blind(level, &t),
                ] {
                    let counts = per_socket(p);
                    assert_eq!(counts.iter().sum::<u32>(), level, "{p:?}");
                    assert_eq!(p.total(), level);
                    // Socket 0 is the busiest: `spread_fraction` reads it.
                    assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{p:?}");
                    if p.packed && level <= t.total_contexts() {
                        assert!(counts.iter().all(|&n| n <= t.contexts_per_socket));
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_switches_with_hysteresis() {
        let t = Topology::paper();
        let mut m = MappingPolicy::AdaptiveAbort.build();
        // Starts compact.
        assert_eq!(m.place(32, &t, 0.45).sockets_used(), 2);
        // Low signal: spread.
        assert_eq!(m.place(32, &t, 0.1).sockets_used(), 4);
        // Mid-band signal: stays spread (hysteresis).
        assert_eq!(m.place(32, &t, 0.45).sockets_used(), 4);
        // High signal: pack again.
        assert_eq!(m.place(32, &t, 0.8).sockets_used(), 2);
        // Mid-band again: stays packed.
        assert_eq!(m.place(32, &t, 0.45).sockets_used(), 2);
        m.reset();
        assert_eq!(m.place(32, &t, 0.45).sockets_used(), 2);
    }

    #[test]
    fn parse_and_label_round_trip() {
        for p in MappingPolicy::ALL {
            assert_eq!(MappingPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(MappingPolicy::parse("none"), Some(MappingPolicy::Blind));
        assert_eq!(
            MappingPolicy::parse("adaptive-abort"),
            Some(MappingPolicy::AdaptiveAbort)
        );
        assert_eq!(MappingPolicy::parse("nope"), None);
        assert_eq!(MappingPolicy::default(), MappingPolicy::Blind);
    }
}
