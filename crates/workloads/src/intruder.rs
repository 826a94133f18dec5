//! Intruder — a port of the STAMP network-intrusion-detection benchmark
//! (Minh et al., IISWC '08), the paper's poorly scaling workload
//! (Fig. 1: throughput peaks at ~7 threads and collapses beyond).
//!
//! The pipeline, per STAMP:
//!
//! 1. **Capture** — pop a packet from the shared packet queue
//!    (transaction 1).
//! 2. **Reassembly** — insert the fragment into the shared session map
//!    (flow id → received fragments); when the flow completes, remove it
//!    and hand the assembled payload on (transaction 2).
//! 3. **Detection** — scan the payload for attack signatures (pure
//!    computation, no shared state).
//!
//! The shared queue and session map make phases 1–2 conflict-heavy,
//! which is what limits scalability.
//!
//! **Substitution note (DESIGN.md):** STAMP pre-generates the whole
//! packet trace and the run ends when the queue drains; an online
//! parallelism tuner needs *sustained* throughput, so here the worker
//! that finds the queue empty refills it with a freshly generated batch
//! (same fragmentation/shuffle/attack-injection scheme, deterministic
//! per seed). Everything else follows STAMP.

use std::sync::Arc;

use rubic_sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rubic_runtime::Workload;
use rubic_stm::{Stm, TVar};

use crate::mapapi::{Edit, MapFamily, SnapshotFamily, TOrdMap};
use crate::pqueue::PQueue;

/// The attack strings injected into flows and searched by the detector
/// (STAMP uses a dictionary; a fixed signature set preserves the
/// compute/communication ratio).
pub const SIGNATURES: [&str; 4] = ["ATTACK-XSS", "ATTACK-SQLI", "ATTACK-OVERFLOW", "ATTACK-RCE"];

/// One fragment of a flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Flow this fragment belongs to.
    pub flow_id: u64,
    /// Fragment index within the flow.
    pub fragment_id: u32,
    /// Total fragments in the flow.
    pub num_fragments: u32,
    /// Payload bytes.
    pub data: Vec<u8>,
}

/// Reassembly buffer for one in-progress flow.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowBuffer {
    /// Total fragments expected.
    pub num_fragments: u32,
    /// Received fragments as `(fragment_id, data)`.
    pub received: Vec<(u32, Vec<u8>)>,
}

impl FlowBuffer {
    /// True when every fragment has arrived.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.num_fragments > 0 && self.received.len() as u32 == self.num_fragments
    }

    /// Concatenates fragments in order.
    #[must_use]
    pub fn assemble(&self) -> Vec<u8> {
        let mut frags = self.received.clone();
        frags.sort_by_key(|(id, _)| *id);
        frags.into_iter().flat_map(|(_, d)| d).collect()
    }
}

/// Intruder parameters (STAMP flag names in brackets).
#[derive(Debug, Clone, Copy)]
pub struct IntruderConfig {
    /// Flows generated per queue refill (STAMP `-n` is the total flow
    /// count; here it is the refill batch).
    pub flows_per_batch: u32,
    /// Maximum fragments per flow (STAMP fragments flows randomly).
    pub max_fragments: u32,
    /// Percentage of flows carrying an attack (`-a`).
    pub attack_pct: u32,
    /// Bytes per flow payload (`-l`).
    pub payload_len: usize,
    /// Base RNG seed (`-s`).
    pub seed: u64,
}

impl IntruderConfig {
    /// STAMP-ish defaults scaled for throughput runs: 64-flow batches,
    /// up to 8 fragments, 10% attacks, 128-byte payloads.
    #[must_use]
    pub fn paper() -> Self {
        IntruderConfig {
            flows_per_batch: 64,
            max_fragments: 8,
            attack_pct: 10,
            payload_len: 128,
            seed: 0x5EED_0005,
        }
    }

    /// Small configuration for fast tests.
    #[must_use]
    pub fn small() -> Self {
        IntruderConfig {
            flows_per_batch: 8,
            max_fragments: 4,
            attack_pct: 25,
            payload_len: 32,
            seed: 0x5EED_0006,
        }
    }
}

/// Deterministic flow/packet generator (the traffic source STAMP builds
/// up front).
pub struct TrafficGenerator {
    rng: SmallRng,
    next_flow_id: u64,
    cfg: IntruderConfig,
}

impl TrafficGenerator {
    /// Creates a generator; `stream` decorrelates independent sources
    /// (e.g. per worker).
    #[must_use]
    pub fn new(cfg: IntruderConfig, stream: u64) -> Self {
        TrafficGenerator {
            rng: SmallRng::seed_from_u64(cfg.seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)),
            // Partition the flow-id space by stream so concurrent
            // refills never collide on flow ids.
            next_flow_id: stream << 40,
            cfg,
        }
    }

    /// Generates one batch of flows, fragments them, shuffles all the
    /// fragments together (STAMP interleaves flows in the input trace),
    /// and returns the packets plus the number of injected attacks.
    pub fn generate_batch(&mut self) -> (Vec<Packet>, u32) {
        let mut packets = Vec::new();
        let mut attacks = 0u32;
        for _ in 0..self.cfg.flows_per_batch {
            let flow_id = self.next_flow_id;
            self.next_flow_id += 1;
            let mut payload: Vec<u8> = (0..self.cfg.payload_len)
                .map(|_| self.rng.gen_range(b'a'..=b'z'))
                .collect();
            if self.rng.gen_range(0..100) < self.cfg.attack_pct {
                let sig = SIGNATURES[self.rng.gen_range(0..SIGNATURES.len())].as_bytes();
                let pos = self
                    .rng
                    .gen_range(0..=payload.len().saturating_sub(sig.len()));
                payload[pos..pos + sig.len()].copy_from_slice(sig);
                attacks += 1;
            }
            let n_frags = self.rng.gen_range(1..=self.cfg.max_fragments);
            let chunk = payload.len().div_ceil(n_frags as usize).max(1);
            for (i, piece) in payload.chunks(chunk).enumerate() {
                packets.push(Packet {
                    flow_id,
                    fragment_id: i as u32,
                    num_fragments: payload.chunks(chunk).count() as u32,
                    data: piece.to_vec(),
                });
            }
        }
        packets.shuffle(&mut self.rng);
        (packets, attacks)
    }
}

/// Scans an assembled payload for attack signatures (phase 3; pure).
#[must_use]
pub fn detect(payload: &[u8]) -> bool {
    SIGNATURES.iter().any(|sig| {
        let s = sig.as_bytes();
        payload.windows(s.len()).any(|w| w == s)
    })
}

/// The Intruder workload: shared packet queue + session map + detector,
/// generic over the session-map structure (the stmbench `structure`
/// axis: one snapshot cell vs a per-node B-tree).
pub struct IntruderWorkloadOn<F: MapFamily> {
    queue: TVar<PQueue<Packet>>,
    /// Behind an `Arc`: a map update clones the neighbours of the entry
    /// it touches, and those must not drag their fragments along.
    sessions: F::Map<u64, Arc<FlowBuffer>>,
    cfg: IntruderConfig,
    stm: Stm,
    attacks_found: AtomicU64,
    flows_completed: AtomicU64,
}

/// The historical default: a snapshot-cell session map.
pub type IntruderWorkload = IntruderWorkloadOn<SnapshotFamily>;

impl<F: MapFamily> IntruderWorkloadOn<F> {
    /// Creates the workload with an initially empty queue (the first
    /// tasks trigger a refill).
    #[must_use]
    pub fn new(cfg: IntruderConfig, stm: Stm) -> Self {
        IntruderWorkloadOn {
            queue: TVar::new(PQueue::new()),
            sessions: F::new_labelled("intruder.sessions"),
            cfg,
            stm,
            attacks_found: AtomicU64::new(0),
            flows_completed: AtomicU64::new(0),
        }
    }

    /// The STM runtime.
    #[must_use]
    pub fn stm(&self) -> &Stm {
        &self.stm
    }

    /// Attacks detected so far.
    #[must_use]
    pub fn attacks_found(&self) -> u64 {
        self.attacks_found.load(Ordering::Relaxed) // ordering: monitoring read
    }

    /// Flows fully reassembled so far.
    #[must_use]
    pub fn flows_completed(&self) -> u64 {
        self.flows_completed.load(Ordering::Relaxed) // ordering: monitoring read
    }

    /// In-progress (incomplete) sessions right now.
    #[must_use]
    pub fn open_sessions(&self) -> usize {
        self.sessions.snapshot_entries().len()
    }

    /// Phase 1: capture. Pops one packet; on an empty queue, refills it
    /// with a batch from `gen` first.
    fn capture(&self, gen: &mut TrafficGenerator) -> Packet {
        loop {
            let popped = self.stm.atomically(|tx| {
                let q = tx.read(&self.queue)?;
                let (next, item) = q.pop();
                if item.is_some() {
                    tx.write(&self.queue, next)?;
                }
                Ok(item)
            });
            if let Some(p) = popped {
                return p;
            }
            // Refill (generation happens outside the transaction).
            let (batch, _) = gen.generate_batch();
            self.stm.atomically(|tx| {
                let mut q = tx.read(&self.queue)?;
                for p in &batch {
                    q = q.push(p.clone());
                }
                tx.write(&self.queue, q)
            });
        }
    }

    /// Phase 2: reassembly. Returns the assembled payload when this
    /// fragment completes its flow.
    fn reassemble(&self, packet: &Packet) -> Option<Vec<u8>> {
        self.stm.atomically(|tx| {
            self.sessions.edit(tx, &packet.flow_id, |open| {
                let mut shared = open.cloned().unwrap_or_default();
                // The map still holds the old buffer, so this copies it once.
                let buf = Arc::make_mut(&mut shared);
                buf.num_fragments = packet.num_fragments;
                if !buf.received.iter().any(|(id, _)| *id == packet.fragment_id) {
                    buf.received.push((packet.fragment_id, packet.data.clone()));
                }
                if buf.complete() {
                    (Edit::Remove, Some(buf.assemble()))
                } else {
                    (Edit::Put(shared), None)
                }
            })
        })
    }
}

/// Per-worker state: a traffic source stream.
pub struct IntruderWorkerState {
    gen: TrafficGenerator,
}

impl<F: MapFamily> Workload for IntruderWorkloadOn<F> {
    type WorkerState = IntruderWorkerState;

    fn init_worker(&self, tid: usize) -> IntruderWorkerState {
        IntruderWorkerState {
            gen: TrafficGenerator::new(self.cfg, tid as u64 + 1),
        }
    }

    fn run_task(&self, state: &mut IntruderWorkerState) {
        let packet = self.capture(&mut state.gen);
        // ordering: stat counters — reassembly's transactional commit
        // is the synchronisation point; these only feed reports.
        if let Some(payload) = self.reassemble(&packet) {
            self.flows_completed.fetch_add(1, Ordering::Relaxed);
            if detect(&payload) {
                self.attacks_found.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn drain_aborts(&self, _state: &mut IntruderWorkerState) -> u64 {
        rubic_stm::take_thread_aborts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_fragments_cover_payload() {
        let mut gen = TrafficGenerator::new(IntruderConfig::small(), 1);
        let (packets, _) = gen.generate_batch();
        assert!(!packets.is_empty());
        // Group by flow and reassemble each: total bytes must equal the
        // configured payload length.
        let mut by_flow: std::collections::HashMap<u64, FlowBuffer> =
            std::collections::HashMap::new();
        for p in &packets {
            let buf = by_flow.entry(p.flow_id).or_default();
            buf.num_fragments = p.num_fragments;
            buf.received.push((p.fragment_id, p.data.clone()));
        }
        assert_eq!(by_flow.len(), 8);
        for buf in by_flow.values() {
            assert!(buf.complete());
            assert_eq!(buf.assemble().len(), 32);
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let mut a = TrafficGenerator::new(IntruderConfig::small(), 3);
        let mut b = TrafficGenerator::new(IntruderConfig::small(), 3);
        assert_eq!(a.generate_batch().0, b.generate_batch().0);
        let mut c = TrafficGenerator::new(IntruderConfig::small(), 4);
        assert_ne!(a.generate_batch().0, c.generate_batch().0);
    }

    #[test]
    fn detect_finds_signatures() {
        assert!(detect(b"xxxxATTACK-SQLIyyyy"));
        assert!(detect(b"ATTACK-RCE"));
        assert!(!detect(b"perfectly innocent traffic"));
        assert!(!detect(b""));
    }

    #[test]
    fn flows_complete_and_attacks_are_found() {
        let w = IntruderWorkload::new(IntruderConfig::small(), Stm::default());
        let mut state = w.init_worker(0);
        // Process enough tasks to complete several batches of flows.
        for _ in 0..500 {
            w.run_task(&mut state);
        }
        assert!(w.flows_completed() > 0, "no flow completed");
        // 25% attack rate over dozens of flows: overwhelmingly likely
        // at least one detection.
        assert!(w.attacks_found() > 0, "no attack detected");
    }

    #[test]
    fn sessions_drain_at_batch_boundaries() {
        let w = IntruderWorkload::new(IntruderConfig::small(), Stm::default());
        let mut state = w.init_worker(0);
        // One batch of 8 flows fragments into at most 8*4 = 32 packets;
        // processing exactly that many empties both queue and sessions.
        for _ in 0..2000 {
            w.run_task(&mut state);
        }
        // Whatever is open is bounded by the flows of the current batch.
        assert!(
            w.open_sessions() <= 8,
            "sessions leak: {}",
            w.open_sessions()
        );
    }

    #[test]
    fn duplicate_fragments_are_idempotent() {
        let w = IntruderWorkload::new(IntruderConfig::small(), Stm::default());
        let p = Packet {
            flow_id: 999,
            fragment_id: 0,
            num_fragments: 2,
            data: b"abc".to_vec(),
        };
        assert_eq!(w.reassemble(&p), None);
        assert_eq!(
            w.reassemble(&p),
            None,
            "duplicate must not complete the flow"
        );
        let p2 = Packet {
            flow_id: 999,
            fragment_id: 1,
            num_fragments: 2,
            data: b"def".to_vec(),
        };
        assert_eq!(w.reassemble(&p2), Some(b"abcdef".to_vec()));
        assert_eq!(w.open_sessions(), 0);
    }

    #[test]
    fn btree_backed_sessions_behave_identically() {
        use crate::mapapi::BTreeFamily;
        let w = IntruderWorkloadOn::<BTreeFamily>::new(IntruderConfig::small(), Stm::default());
        let mut state = w.init_worker(0);
        for _ in 0..500 {
            w.run_task(&mut state);
        }
        assert!(w.flows_completed() > 0, "no flow completed");
        assert!(w.open_sessions() <= 8, "sessions leak");
    }

    #[test]
    fn distinct_worker_streams_use_disjoint_flow_ids() {
        let mut a = TrafficGenerator::new(IntruderConfig::small(), 1);
        let mut b = TrafficGenerator::new(IntruderConfig::small(), 2);
        let ids_a: std::collections::HashSet<u64> =
            a.generate_batch().0.iter().map(|p| p.flow_id).collect();
        let ids_b: std::collections::HashSet<u64> =
            b.generate_batch().0.iter().map(|p| p.flow_id).collect();
        assert!(ids_a.is_disjoint(&ids_b));
    }
}
