//! Sequential twins: the same seeded operation mix as each STM workload,
//! on plain `std` collections, with no STM, no pool and no second thread.
//!
//! `overhead_x` divides a twin's rate by the real stack's rate, so the two
//! must do the same logical work. Each twin therefore draws from the same
//! RNG stream, in the same order, as worker 0 of the workload it mirrors,
//! and the differential tests below run both from one seed and compare
//! the resulting state.

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rubic::workloads::intruder::{detect, FlowBuffer, Packet, TrafficGenerator};
use rubic::workloads::{IntruderConfig, RbTreeConfig, VacationConfig};

/// Twin of `RbTreeWorkload`: one `BTreeMap`, worker 0's stream.
pub struct RbTreeTwin {
    map: BTreeMap<u64, u64>,
    cfg: RbTreeConfig,
    rng: SmallRng,
}

impl RbTreeTwin {
    #[must_use]
    pub fn new(cfg: RbTreeConfig) -> Self {
        let mut map = BTreeMap::new();
        let mut fill = SmallRng::seed_from_u64(cfg.seed);
        while (map.len() as u64) < cfg.initial_size {
            let key = fill.gen_range(0..cfg.key_range);
            map.entry(key).or_insert(key * 2 + 1);
        }
        RbTreeTwin {
            map,
            // Worker `tid` seeds with `seed ^ tid * K`; tid 0 is the seed.
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
        }
    }

    pub fn run_task(&mut self) {
        let mix = self.cfg.mix;
        let key = self.rng.gen_range(0..self.cfg.key_range);
        let dice = self.rng.gen_range(0..mix.lookup + mix.insert + mix.delete);
        if dice < mix.lookup {
            std::hint::black_box(self.map.get(&key));
        } else if dice < mix.lookup + mix.insert {
            self.map.insert(key, key);
        } else {
            self.map.remove(&key);
        }
    }

    #[cfg(test)]
    fn entries(&self) -> Vec<(u64, u64)> {
        self.map.iter().map(|(&k, &v)| (k, v)).collect()
    }
}

#[derive(Clone, Copy)]
struct Resource {
    total: u32,
    used: u32,
    price: u64,
}

/// One held reservation: table index, item id, price paid.
type Booking = (usize, u64, u64);

/// Twin of `VacationWorkload`: three resource tables and the customer
/// table as `BTreeMap`s, worker 0's stream, STAMP's three session kinds.
pub struct VacationTwin {
    tables: [BTreeMap<u64, Resource>; 3],
    customers: BTreeMap<u64, Vec<Booking>>,
    cfg: VacationConfig,
    rng: SmallRng,
}

impl VacationTwin {
    #[must_use]
    pub fn new(cfg: VacationConfig) -> Self {
        let mut tables = [BTreeMap::new(), BTreeMap::new(), BTreeMap::new()];
        let mut fill = SmallRng::seed_from_u64(cfg.seed);
        for id in 0..cfg.relations {
            for table in &mut tables {
                let units: u32 = fill.gen_range(1..=5) * 100;
                let price: u64 = fill.gen_range(1..=5) * 10 + 50;
                table.insert(
                    id,
                    Resource {
                        total: units,
                        used: 0,
                        price,
                    },
                );
            }
        }
        VacationTwin {
            tables,
            customers: BTreeMap::new(),
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
        }
    }

    fn query_range(&self) -> u64 {
        (self.cfg.relations * u64::from(self.cfg.query_range_pct) / 100).max(1)
    }

    pub fn run_task(&mut self) {
        let dice: u32 = self.rng.gen_range(0..100);
        if dice < self.cfg.user_pct {
            self.make_reservation();
        } else if dice < self.cfg.user_pct + (100 - self.cfg.user_pct) / 2 {
            self.delete_customer();
        } else {
            self.update_tables();
        }
    }

    fn make_reservation(&mut self) {
        let range = self.query_range();
        let customer = self.rng.gen_range(0..range);
        let queries: Vec<(usize, u64)> = (0..self.cfg.queries_per_task)
            .map(|_| (self.rng.gen_range(0..3), self.rng.gen_range(0..range)))
            .collect();
        // Highest-priced available item per table, then one unit of each.
        let mut best: [Option<(u64, u64)>; 3] = [None; 3];
        for &(kind, id) in &queries {
            if let Some(r) = self.tables[kind].get(&id) {
                if r.total > r.used && best[kind].is_none_or(|(_, price)| r.price > price) {
                    best[kind] = Some((id, r.price));
                }
            }
        }
        for (kind, slot) in best.into_iter().enumerate() {
            let Some((id, _)) = slot else { continue };
            let Some(r) = self.tables[kind].get_mut(&id) else {
                continue;
            };
            if r.total == r.used {
                continue;
            }
            r.used += 1;
            let price = r.price;
            self.customers
                .entry(customer)
                .or_default()
                .push((kind, id, price));
        }
    }

    fn delete_customer(&mut self) {
        let customer = self.rng.gen_range(0..self.query_range());
        let Some(bookings) = self.customers.remove(&customer) else {
            return;
        };
        let mut bill = 0u64;
        for (kind, id, price) in bookings {
            bill += price;
            if let Some(r) = self.tables[kind].get_mut(&id) {
                r.used = r.used.saturating_sub(1);
            }
        }
        std::hint::black_box(bill);
    }

    fn update_tables(&mut self) {
        let ops: Vec<(usize, u64, bool, u64)> = (0..self.cfg.queries_per_task)
            .map(|_| {
                (
                    self.rng.gen_range(0..3),
                    self.rng.gen_range(0..self.cfg.relations),
                    self.rng.gen_bool(0.5),
                    self.rng.gen_range(1..=5) * 10 + 50,
                )
            })
            .collect();
        for (kind, id, add, price) in ops {
            let table = &mut self.tables[kind];
            if add {
                table
                    .entry(id)
                    .and_modify(|r| {
                        r.total += 100;
                        r.price = price;
                    })
                    .or_insert(Resource {
                        total: 100,
                        used: 0,
                        price,
                    });
            } else if let Some(r) = table.get_mut(&id) {
                let removable = 100.min(r.total - r.used);
                if removable == r.total {
                    table.remove(&id);
                } else {
                    r.total -= removable;
                }
            }
        }
    }

    /// Units marked used across the three resource tables.
    #[cfg(test)]
    fn total_reserved_units(&self) -> u64 {
        self.tables
            .iter()
            .flat_map(BTreeMap::values)
            .map(|r| u64::from(r.used))
            .sum()
    }

    /// Reservations held across all customers.
    #[cfg(test)]
    fn total_customer_bookings(&self) -> u64 {
        self.customers.values().map(|b| b.len() as u64).sum()
    }
}

/// Twin of `IntruderWorkload`: a `VecDeque` of packets, a `BTreeMap` of
/// open sessions, worker 0's traffic stream (stream id 1).
pub struct IntruderTwin {
    queue: VecDeque<Packet>,
    sessions: BTreeMap<u64, FlowBuffer>,
    traffic: TrafficGenerator,
    pub attacks_found: u64,
    pub flows_completed: u64,
}

impl IntruderTwin {
    #[must_use]
    pub fn new(cfg: IntruderConfig) -> Self {
        IntruderTwin {
            queue: VecDeque::new(),
            sessions: BTreeMap::new(),
            traffic: TrafficGenerator::new(cfg, 1),
            attacks_found: 0,
            flows_completed: 0,
        }
    }

    pub fn run_task(&mut self) {
        let packet = loop {
            if let Some(p) = self.queue.pop_front() {
                break p;
            }
            self.queue.extend(self.traffic.generate_batch().0);
        };
        let mut buf = self.sessions.remove(&packet.flow_id).unwrap_or_default();
        buf.num_fragments = packet.num_fragments;
        if !buf.received.iter().any(|(id, _)| *id == packet.fragment_id) {
            buf.received.push((packet.fragment_id, packet.data));
        }
        if buf.complete() {
            self.flows_completed += 1;
            if detect(&buf.assemble()) {
                self.attacks_found += 1;
            }
        } else {
            self.sessions.insert(packet.flow_id, buf);
        }
    }
}

/// The drain's task body: a few ALU operations on the item, kept alive
/// with `black_box`. The pool workload's handler and its plain-loop twin
/// both call exactly this.
#[inline]
pub fn tiny_item(n: u64) {
    std::hint::black_box(n.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubic::runtime::Workload;
    use rubic::stm::Stm;
    use rubic::workloads::{IntruderWorkload, OpMix, RbTreeWorkload, TOrdMap, VacationWorkload};

    const TASKS: usize = 50_000;

    #[test]
    fn rbtree_twin_ends_in_the_same_key_set() {
        for mix in [OpMix::paper(), OpMix::write_heavy()] {
            let cfg = RbTreeConfig {
                initial_size: 4096,
                key_range: 8192,
                mix,
                seed: 77,
            };
            let real = RbTreeWorkload::new(cfg.clone(), Stm::default());
            let mut twin = RbTreeTwin::new(cfg);
            assert_eq!(real.map().snapshot_entries(), twin.entries(), "after fill");
            let mut state = real.init_worker(0);
            for _ in 0..TASKS {
                real.run_task(&mut state);
                twin.run_task();
            }
            assert_eq!(real.map().snapshot_entries(), twin.entries());
        }
    }

    #[test]
    fn vacation_twin_ends_in_the_same_reservation_totals() {
        for base in [
            VacationConfig::high_contention(512),
            VacationConfig::low_contention(512),
        ] {
            let cfg = VacationConfig { seed: 99, ..base };
            let real = VacationWorkload::new(cfg, Stm::default());
            let mut twin = VacationTwin::new(cfg);
            let mut state = real.init_worker(0);
            for _ in 0..TASKS {
                real.run_task(&mut state);
                twin.run_task();
            }
            let reserved = real.manager().total_reserved_units(real.stm());
            assert!(reserved > 0, "the mix reserved nothing");
            assert_eq!(reserved, twin.total_reserved_units());
            assert_eq!(
                real.manager().total_customer_bookings(),
                twin.total_customer_bookings()
            );
            assert_eq!(twin.total_reserved_units(), twin.total_customer_bookings());
        }
    }

    #[test]
    fn intruder_twin_completes_the_same_flows_and_finds_the_same_attacks() {
        let cfg = IntruderConfig {
            seed: 5,
            ..IntruderConfig::paper()
        };
        let real = IntruderWorkload::new(cfg, Stm::default());
        let mut twin = IntruderTwin::new(cfg);
        let mut state = real.init_worker(0);
        for _ in 0..TASKS {
            real.run_task(&mut state);
            twin.run_task();
        }
        assert!(twin.flows_completed > 0 && twin.attacks_found > 0);
        assert_eq!(real.flows_completed(), twin.flows_completed);
        assert_eq!(real.attacks_found(), twin.attacks_found);
        assert_eq!(real.open_sessions(), twin.sessions.len());
    }
}
