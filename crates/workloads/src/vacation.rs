//! Vacation — a port of the STAMP travel-reservation benchmark
//! (Minh et al., IISWC '08), one of the two STAMP applications in the
//! paper's evaluation (§4.4).
//!
//! The system emulates an online travel agency: four relation tables —
//! **cars**, **flights**, **rooms** (id → availability/price records)
//! and **customers** (id → held reservations) — updated by client
//! sessions. Each task is one client session, a single transaction of
//! one of three kinds (STAMP's action mix):
//!
//! * **Make reservation** (`user_pct`%): query `queries_per_task` random
//!   items, remember the highest-priced available item of each resource
//!   type, then reserve those for a random customer (creating the
//!   customer record on demand).
//! * **Delete customer** (half the remainder): bill a random customer —
//!   sum the prices of their reservations, release each one, and remove
//!   the record.
//! * **Update tables** (other half): `queries_per_task` random
//!   add-or-remove operations on item availability/prices.
//!
//! STAMP's canonical "low contention" parameters (`vacation-low`:
//! `-n2 -q90 -u98`) and "high contention" (`vacation-high`:
//! `-n4 -q60 -u90`) are provided as presets; the paper's Fig. 6 places
//! Vacation in the middle of the scalability spectrum.
//!
//! The tables are per-node B-trees ([`crate::btree::TBTreeMap`]), as
//! STAMP's are per-node red-black trees, and they index rows, as
//! STAMP's map an id to a record pointer: every item and customer row
//! is its own `TVar`. A look-up is one borrowed descent that writes no
//! shared line; a session reads and writes the rows it books, so it
//! conflicts only with sessions that touch the same rows, and it
//! rewrites a leaf only to link a row in or unlink it (see [`Manager`]).

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rubic_runtime::Workload;
use rubic_stm::{Stm, TVar, Transaction, TxResult};

use crate::btree::TBTreeMap;
use crate::mapapi::{Edit, TOrdMap};

/// One of the three reservable resource types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// Rental cars.
    Car,
    /// Flight seats.
    Flight,
    /// Hotel rooms.
    Room,
}

impl ResourceKind {
    const ALL: [ResourceKind; 3] = [ResourceKind::Car, ResourceKind::Flight, ResourceKind::Room];
}

/// Availability record for one reservable item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resource {
    /// Total units (e.g. seats).
    pub total: u32,
    /// Units currently reserved.
    pub used: u32,
    /// Price per unit.
    pub price: u64,
}

impl Resource {
    /// Units still available.
    #[must_use]
    pub fn free(&self) -> u32 {
        self.total - self.used
    }
}

/// A customer's held reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Booking {
    /// Resource type.
    pub kind: ResourceKind,
    /// Item id within that type's table.
    pub id: u64,
    /// Price paid.
    pub price: u64,
}

/// A customer record: the reservations they hold, as a persistent cons
/// list. A push is one small allocation whatever the list holds and the
/// new list shares every older booking with the version still published
/// in the customer's row, so cloning a record is O(1).
#[derive(Clone, Default)]
pub struct Customer {
    newest: Option<Arc<Held>>,
    len: usize,
}

/// One cell of a [`Customer`]'s list.
struct Held {
    booking: Booking,
    older: Option<Arc<Held>>,
}

impl Customer {
    /// Adds a reservation at the front.
    pub fn push(&mut self, booking: Booking) {
        let older = self.newest.take();
        self.newest = Some(Arc::new(Held { booking, older }));
        self.len += 1;
    }

    /// Number of reservations held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no reservation is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The reservations, newest first.
    pub fn iter(&self) -> impl Iterator<Item = &Booking> {
        let mut next = self.newest.as_deref();
        std::iter::from_fn(move || {
            let held = next?;
            next = held.older.as_deref();
            Some(&held.booking)
        })
    }
}

impl std::fmt::Debug for Customer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Drop for Held {
    /// Frees the cells only this one kept alive in a loop: the derived
    /// drop would recurse once per booking. `Arc::into_inner` hands the
    /// cell to exactly one of the owners racing to let go of it.
    fn drop(&mut self) {
        let mut next = self.older.take();
        while let Some(mut held) = next.and_then(Arc::into_inner) {
            next = held.older.take();
        }
    }
}

/// Benchmark parameters (STAMP flag names in brackets).
#[derive(Debug, Clone, Copy)]
pub struct VacationConfig {
    /// Rows per relation table (`-r`).
    pub relations: u64,
    /// Queries per client session (`-n`).
    pub queries_per_task: u32,
    /// Percentage of the id space sessions may touch (`-q`).
    pub query_range_pct: u32,
    /// Percentage of sessions that are reservations (`-u`); the rest
    /// split evenly between delete-customer and update-tables.
    pub user_pct: u32,
    /// RNG seed for population and worker streams.
    pub seed: u64,
}

impl VacationConfig {
    /// STAMP `vacation-low`: `-n2 -q90 -u98` (scaled-down tables by
    /// default; pass your own `relations` for full size).
    #[must_use]
    pub fn low_contention(relations: u64) -> Self {
        VacationConfig {
            relations,
            queries_per_task: 2,
            query_range_pct: 90,
            user_pct: 98,
            seed: 0x5EED_0003,
        }
    }

    /// STAMP `vacation-high`: `-n4 -q60 -u90`.
    #[must_use]
    pub fn high_contention(relations: u64) -> Self {
        VacationConfig {
            relations,
            queries_per_task: 4,
            query_range_pct: 60,
            user_pct: 90,
            seed: 0x5EED_0004,
        }
    }
}

/// The reservation-system state: STAMP's `manager_t`, four per-node
/// B-tree tables that index rows. Each row is its own [`TVar`], as
/// STAMP's tables map an id to a record pointer: a session reads and
/// writes the rows it books, and rewrites a leaf only to link a row in
/// or unlink it, so two sessions on different rows of one leaf do not
/// conflict. All four tables carry trace labels (`vacation.cars` …
/// `vacation.customers`), so a hot interior node shows up in contention
/// tables as e.g. `vacation.flights/node@d2`; rows carry none (the trace
/// label registry is bounded, and a full table has 16 K rows).
///
/// **An unlinked row takes no lost write.** A session reaches a row only
/// through [`TOrdMap::get`], which logs the leaf that indexes it; a
/// removal rewrites that leaf and ticks the clock. So a writer that
/// took the handle before a removal committed cannot take the TL2 fast
/// path (`wv ≠ rv + 1`): its commit validates the leaf and fails with
/// `ReadValidation`. A remover reads the row in the transaction that
/// unlinks it (`retire_resource` its units, `delete_customer` its
/// bookings), so a remover that read the row before a writer committed
/// fails its own validation of the row.
pub struct Manager {
    cars: TBTreeMap<u64, TVar<Resource>>,
    flights: TBTreeMap<u64, TVar<Resource>>,
    rooms: TBTreeMap<u64, TVar<Resource>>,
    customers: TBTreeMap<u64, TVar<Customer>>,
}

impl Manager {
    /// Creates empty tables.
    #[must_use]
    pub fn new() -> Self {
        Manager::with_resources(Default::default())
    }

    /// Tables holding `rows[kind as usize]`, sorted by id, and no
    /// customer: built bottom-up outside any transaction.
    fn with_resources(rows: [Vec<(u64, Resource)>; 3]) -> Self {
        let table = |label: &str, rows: Vec<(u64, Resource)>| {
            let rows = rows.into_iter().map(|(id, r)| (id, TVar::new(r)));
            TBTreeMap::from_sorted(Some(label), rows)
        };
        let [cars, flights, rooms] = rows;
        Manager {
            cars: table("vacation.cars", cars),
            flights: table("vacation.flights", flights),
            rooms: table("vacation.rooms", rooms),
            customers: TBTreeMap::labelled("vacation.customers"),
        }
    }

    fn table(&self, kind: ResourceKind) -> &TBTreeMap<u64, TVar<Resource>> {
        match kind {
            ResourceKind::Car => &self.cars,
            ResourceKind::Flight => &self.flights,
            ResourceKind::Room => &self.rooms,
        }
    }

    /// Adds `units` of item `id` at `price` (creating the row on
    /// demand) — STAMP's `manager_add*`.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    pub fn add_resource(
        &self,
        tx: &mut Transaction,
        kind: ResourceKind,
        id: u64,
        units: u32,
        price: u64,
    ) -> TxResult<()> {
        let table = self.table(kind);
        match table.get(tx, &id)? {
            Some(row) => tx.modify(&row, |r| Resource {
                total: r.total + units,
                price,
                ..r
            }),
            None => {
                let row = Resource {
                    total: units,
                    used: 0,
                    price,
                };
                table.insert(tx, id, TVar::new(row)).map(drop)
            }
        }
    }

    /// Retires up to `units` unreserved units of item `id`; removes the
    /// row if it empties — STAMP's `manager_delete*`. Returns whether
    /// anything was retired.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    pub fn retire_resource(
        &self,
        tx: &mut Transaction,
        kind: ResourceKind,
        id: u64,
        units: u32,
    ) -> TxResult<bool> {
        let table = self.table(kind);
        let Some(row) = table.get(tx, &id)? else {
            return Ok(false);
        };
        let r = tx.read(&row)?;
        let removable = units.min(r.free());
        if removable == 0 {
            return Ok(false);
        }
        let total = r.total - removable;
        if total == 0 {
            table.remove(tx, &id)?;
        } else {
            tx.write(&row, Resource { total, ..r })?;
        }
        Ok(true)
    }

    /// Item price, if the row exists.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    pub fn query(
        &self,
        tx: &mut Transaction,
        kind: ResourceKind,
        id: u64,
    ) -> TxResult<Option<Resource>> {
        match self.table(kind).get(tx, &id)? {
            Some(row) => tx.read(&row).map(Some),
            None => Ok(None),
        }
    }

    /// Marks one unit of item `id` used and returns the price charged,
    /// or `None` (without writing) when the item is missing or fully
    /// booked.
    fn take_unit(
        &self,
        tx: &mut Transaction,
        kind: ResourceKind,
        id: u64,
    ) -> TxResult<Option<u64>> {
        let Some(row) = self.table(kind).get(tx, &id)? else {
            return Ok(None);
        };
        let r = tx.read(&row)?;
        if r.free() == 0 {
            return Ok(None);
        }
        let used = r.used + 1;
        tx.write(&row, Resource { used, ..r })?;
        Ok(Some(r.price))
    }

    /// Adds `bookings` to `customer`'s record, creating it on demand:
    /// one row write however many there are (a leaf write for a new
    /// customer), none when there are none.
    fn book(
        &self,
        tx: &mut Transaction,
        customer: u64,
        bookings: impl IntoIterator<Item = Booking>,
    ) -> TxResult<()> {
        let mut bookings = bookings.into_iter().peekable();
        if bookings.peek().is_none() {
            return Ok(());
        }
        match self.customers.get(tx, &customer)? {
            Some(row) => {
                let mut record = tx.read(&row)?;
                bookings.for_each(|b| record.push(b));
                tx.write(&row, record)
            }
            None => {
                let mut record = Customer::default();
                bookings.for_each(|b| record.push(b));
                self.customers
                    .insert(tx, customer, TVar::new(record))
                    .map(drop)
            }
        }
    }
    /// Reserves one unit of item `id` for `customer`, creating the
    /// customer record on demand. Returns `false` (without changing
    /// anything) when the item is missing or fully booked.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    pub fn reserve(
        &self,
        tx: &mut Transaction,
        kind: ResourceKind,
        customer: u64,
        id: u64,
    ) -> TxResult<bool> {
        let Some(price) = self.take_unit(tx, kind, id)? else {
            return Ok(false);
        };
        self.book(tx, customer, [Booking { kind, id, price }])?;
        Ok(true)
    }

    /// Bills and removes `customer`, releasing every reservation they
    /// hold. Returns the bill, or `None` if the customer is unknown.
    ///
    /// # Errors
    /// Propagates transactional conflicts.
    pub fn delete_customer(&self, tx: &mut Transaction, customer: u64) -> TxResult<Option<u64>> {
        let unlink = |row: Option<&TVar<Customer>>| (Edit::Remove, row.cloned());
        let Some(row) = self.customers.edit(tx, &customer, unlink)? else {
            return Ok(None);
        };
        let record = tx.read(&row)?;
        let mut bill = 0u64;
        for booking in record.iter() {
            bill += booking.price;
            if let Some(item) = self.table(booking.kind).get(tx, &booking.id)? {
                tx.modify(&item, |r| Resource {
                    used: r.used.saturating_sub(1),
                    ..r
                })?;
            }
        }
        Ok(Some(bill))
    }

    /// Sum of reserved units across the three resource tables, read in
    /// one consistent transaction.
    #[must_use]
    pub fn total_reserved_units(&self, stm: &Stm) -> u64 {
        stm.read_only(|tx| {
            let mut sum = 0u64;
            for kind in ResourceKind::ALL {
                for (_, row) in self.table(kind).entries(tx)? {
                    sum += u64::from(tx.read_with(&row, |r| r.used)?);
                }
            }
            Ok(sum)
        })
    }

    /// Sum of bookings held by all customers (inspection).
    #[must_use]
    pub fn total_customer_bookings(&self) -> u64 {
        self.customers
            .snapshot_entries()
            .iter()
            .map(|(_, row)| row.snapshot().len() as u64)
            .sum()
    }

    /// Checks the B-tree invariants of all four tables on a quiescent
    /// manager.
    ///
    /// # Errors
    /// The first violated invariant, named with its table.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (name, shape) in [
            ("cars", self.cars.check_shape()),
            ("flights", self.flights.check_shape()),
            ("rooms", self.rooms.check_shape()),
            ("customers", self.customers.check_shape()),
        ] {
            shape.map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    }
}

impl Default for Manager {
    fn default() -> Self {
        Manager::new()
    }
}

/// The Vacation workload: a populated [`Manager`] plus the client-session
/// task generator.
pub struct VacationWorkload {
    manager: Manager,
    cfg: VacationConfig,
    stm: Stm,
}

impl VacationWorkload {
    /// Populates the four tables: every relation row gets 100–500 units
    /// at a random price (STAMP's initialisation), drawn in `(id, kind)`
    /// order, customers start empty. The tables are built from their
    /// sorted rows, not by one transaction per row.
    #[must_use]
    pub fn new(cfg: VacationConfig, stm: Stm) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut rows: [Vec<(u64, Resource)>; 3] = Default::default();
        for id in 0..cfg.relations {
            for table in &mut rows {
                let total = rng.gen_range(1..=5) * 100;
                let price = rng.gen_range(1..=5) * 10 + 50;
                table.push((
                    id,
                    Resource {
                        total,
                        used: 0,
                        price,
                    },
                ));
            }
        }
        let manager = Manager::with_resources(rows);
        VacationWorkload { manager, cfg, stm }
    }

    /// The reservation manager (inspection).
    #[must_use]
    pub fn manager(&self) -> &Manager {
        &self.manager
    }

    /// The STM runtime.
    #[must_use]
    pub fn stm(&self) -> &Stm {
        &self.stm
    }

    fn query_range(&self) -> u64 {
        (self.cfg.relations * u64::from(self.cfg.query_range_pct) / 100).max(1)
    }

    fn session_make_reservation(&self, state: &mut VacationWorkerState) {
        let VacationWorkerState { rng, queries, .. } = state;
        let range = self.query_range();
        let customer = rng.gen_range(0..range);
        // Collect the queries up front (STAMP builds the query arrays
        // before the transaction).
        queries.clear();
        queries.extend((0..self.cfg.queries_per_task).map(|_| {
            (
                ResourceKind::ALL[rng.gen_range(0..3)],
                rng.gen_range(0..range),
            )
        }));
        self.stm.atomically(|tx| {
            // Highest-priced available item per type (STAMP semantics).
            let mut best: [Option<(u64, u64)>; 3] = [None, None, None];
            for &(kind, id) in queries.iter() {
                if let Some(r) = self.manager.query(tx, kind, id)? {
                    if r.free() > 0 {
                        let slot = &mut best[kind as usize];
                        if slot.is_none_or(|(_, price)| r.price > price) {
                            *slot = Some((id, r.price));
                        }
                    }
                }
            }
            // One unit of each, then the customer record once.
            let mut booked = [None; 3];
            for kind in ResourceKind::ALL {
                if let Some((id, _)) = best[kind as usize] {
                    let price = self.manager.take_unit(tx, kind, id)?;
                    booked[kind as usize] = price.map(|price| Booking { kind, id, price });
                }
            }
            self.manager
                .book(tx, customer, booked.into_iter().flatten())
        });
    }

    fn session_delete_customer(&self, rng: &mut SmallRng) {
        let customer = rng.gen_range(0..self.query_range());
        self.stm
            .atomically(|tx| self.manager.delete_customer(tx, customer));
    }

    fn session_update_tables(&self, state: &mut VacationWorkerState) {
        let VacationWorkerState { rng, ops, .. } = state;
        ops.clear();
        ops.extend((0..self.cfg.queries_per_task).map(|_| {
            (
                ResourceKind::ALL[rng.gen_range(0..3)],
                rng.gen_range(0..self.cfg.relations),
                rng.gen_bool(0.5),
                rng.gen_range(1..=5) * 10 + 50,
            )
        }));
        self.stm.atomically(|tx| {
            for &(kind, id, add, price) in ops.iter() {
                if add {
                    self.manager.add_resource(tx, kind, id, 100, price)?;
                } else {
                    self.manager.retire_resource(tx, kind, id, 100)?;
                }
            }
            Ok(())
        });
    }
}

/// Per-worker state for Vacation.
pub struct VacationWorkerState {
    rng: SmallRng,
    /// A reservation session's `(type, id)` queries, refilled per task.
    queries: Vec<(ResourceKind, u64)>,
    /// An update session's `(type, id, add, price)` operations, likewise.
    ops: Vec<(ResourceKind, u64, bool, u64)>,
}

impl Workload for VacationWorkload {
    type WorkerState = VacationWorkerState;

    fn init_worker(&self, tid: usize) -> VacationWorkerState {
        VacationWorkerState {
            rng: SmallRng::seed_from_u64(
                self.cfg.seed ^ (tid as u64).wrapping_mul(0xD134_2543_DE82_EF95),
            ),
            queries: Vec::new(),
            ops: Vec::new(),
        }
    }

    fn run_task(&self, state: &mut VacationWorkerState) {
        let dice = state.rng.gen_range(0..100);
        if dice < self.cfg.user_pct {
            self.session_make_reservation(state);
        } else if dice < self.cfg.user_pct + (100 - self.cfg.user_pct) / 2 {
            self.session_delete_customer(&mut state.rng);
        } else {
            self.session_update_tables(state);
        }
    }

    fn drain_aborts(&self, _state: &mut VacationWorkerState) -> u64 {
        rubic_stm::take_thread_aborts()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    fn small() -> VacationConfig {
        VacationConfig {
            relations: 64,
            ..VacationConfig::low_contention(64)
        }
    }

    #[test]
    fn population_fills_tables() {
        let w = VacationWorkload::new(small(), Stm::default());
        for kind in ResourceKind::ALL {
            assert_eq!(w.manager().table(kind).snapshot_entries().len(), 64);
        }
        assert_eq!(w.manager().customers.snapshot_entries().len(), 0);
    }

    #[test]
    fn reserve_and_delete_customer_roundtrip() {
        let stm = Stm::default();
        let m = Manager::new();
        stm.atomically(|tx| m.add_resource(tx, ResourceKind::Car, 1, 10, 99));
        let ok = stm.atomically(|tx| m.reserve(tx, ResourceKind::Car, 7, 1));
        assert!(ok);
        let r = stm
            .atomically(|tx| m.query(tx, ResourceKind::Car, 1))
            .unwrap();
        assert_eq!(r.used, 1);
        let bill = stm.atomically(|tx| m.delete_customer(tx, 7));
        assert_eq!(bill, Some(99));
        let r = stm
            .atomically(|tx| m.query(tx, ResourceKind::Car, 1))
            .unwrap();
        assert_eq!(r.used, 0, "deleting the customer releases the unit");
    }

    /// `(lock address, version)` of every node of `var`'s subtree.
    fn node_versions<V: rubic_stm::TxValue>(
        var: &crate::btree::node::NodeVar<u64, V>,
        out: &mut Vec<(usize, u64)>,
    ) {
        out.push((var.lock_addr(), var.version()));
        if let crate::btree::node::Node::Branch { kids, .. } = var.snapshot() {
            kids.iter().for_each(|kid| node_versions(kid, out));
        }
    }

    #[test]
    fn reserve_copies_no_other_customers_record() {
        let stm = Stm::default();
        let m = Manager::new();
        stm.atomically(|tx| m.add_resource(tx, ResourceKind::Car, 1, 500, 99));
        // Enough customers that the booker shares a tree node with many.
        for customer in 0..100 {
            assert!(stm.atomically(|tx| m.reserve(tx, ResourceKind::Car, customer, 1)));
        }
        let records = || -> Vec<(u64, Customer)> {
            let rows = m.customers.snapshot_entries();
            rows.into_iter()
                .map(|(id, row)| (id, row.snapshot()))
                .collect()
        };
        let nodes = || {
            let mut out = Vec::new();
            node_versions(m.customers.root(), &mut out);
            out
        };
        let (before, nodes_before) = (records(), nodes());
        let writes = stm.stats().writes();
        assert!(stm.atomically(|tx| m.reserve(tx, ResourceKind::Car, 42, 1)));
        assert_eq!(
            stm.stats().writes() - writes,
            2,
            "one resource row and one customer row"
        );
        assert_eq!(
            nodes(),
            nodes_before,
            "a customers-table node was rewritten"
        );
        let after = records();
        assert_eq!(before.len(), after.len());
        let same = |a: &Option<Arc<Held>>, b: &Option<Arc<Held>>| match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        for ((id, old), (_, new)) in before.iter().zip(&after) {
            if *id == 42 {
                assert_eq!((old.len(), new.len()), (1, 2));
                let pushed = new.newest.as_ref().expect("two bookings");
                assert!(same(&old.newest, &pushed.older), "old list is not the tail");
            } else {
                assert!(same(&old.newest, &new.newest), "customer {id} was copied");
            }
        }
    }

    #[test]
    fn a_row_unlinked_under_a_writer_aborts_the_writer() {
        let stm = Stm::default();
        let m = Manager::new();
        stm.atomically(|tx| {
            m.add_resource(tx, ResourceKind::Car, 1, 10, 99)?;
            m.add_resource(tx, ResourceKind::Car, 2, 10, 70)
        });
        assert!(stm.atomically(|tx| m.reserve(tx, ResourceKind::Car, 7, 1)));
        let (attempts, aborts) = (Cell::new(0), stm.stats().aborts());
        // A reservation of car 2 for customer 7 that, on its first
        // attempt only, takes 7's row and then has 7 deleted under it.
        stm.atomically(|tx| {
            attempts.set(attempts.get() + 1);
            let row = m.customers.get(tx, &7)?;
            if attempts.get() == 1 {
                let bill = stm.atomically(|t| m.delete_customer(t, 7));
                assert_eq!(bill, Some(99));
            }
            let price = m
                .take_unit(tx, ResourceKind::Car, 2)?
                .expect("car 2 is free");
            let booking = Booking {
                kind: ResourceKind::Car,
                id: 2,
                price,
            };
            match row {
                Some(row) => {
                    let mut record = tx.read(&row)?;
                    record.push(booking);
                    tx.write(&row, record)
                }
                None => m.book(tx, 7, [booking]),
            }
        });
        assert_eq!(attempts.get(), 2, "the write to the unlinked row committed");
        assert_eq!(stm.stats().aborts() - aborts, 1);
        assert_eq!(
            stm.stats()
                .aborts_for(rubic_stm::AbortReason::ReadValidation),
            1
        );
        assert_eq!(
            m.total_customer_bookings(),
            1,
            "the retry booked car 2 anew"
        );
        assert_eq!(
            m.total_reserved_units(&stm),
            1,
            "reservation ledger out of balance"
        );
    }

    #[test]
    fn customer_lists_newest_first_and_shares_on_clone() {
        let mut c = Customer::default();
        assert!(c.is_empty());
        for id in 0..3 {
            c.push(Booking {
                kind: ResourceKind::Room,
                id,
                price: 10 * id,
            });
        }
        let earlier = c.clone();
        c.push(Booking {
            kind: ResourceKind::Car,
            id: 9,
            price: 1,
        });
        assert_eq!((earlier.len(), c.len()), (3, 4));
        assert_eq!(c.iter().map(|b| b.id).collect::<Vec<_>>(), [9, 2, 1, 0]);
        assert_eq!(earlier.iter().map(|b| b.id).collect::<Vec<_>>(), [2, 1, 0]);
    }

    #[test]
    fn dropping_a_million_bookings_does_not_overflow_the_stack() {
        let mut c = Customer::default();
        for id in 0..1_000_000 {
            c.push(Booking {
                kind: ResourceKind::Flight,
                id,
                price: 60,
            });
        }
        // A second owner of the older half: the first drop stops at the
        // shared cell, the second frees the rest.
        let shared = c.clone();
        for id in 0..500_000 {
            c.push(Booking {
                kind: ResourceKind::Car,
                id,
                price: 70,
            });
        }
        drop(c);
        assert_eq!(shared.len(), 1_000_000);
        drop(shared);
    }

    #[test]
    fn reserve_fails_when_full() {
        let stm = Stm::default();
        let m = Manager::new();
        stm.atomically(|tx| m.add_resource(tx, ResourceKind::Room, 2, 1, 50));
        assert!(stm.atomically(|tx| m.reserve(tx, ResourceKind::Room, 1, 2)));
        assert!(!stm.atomically(|tx| m.reserve(tx, ResourceKind::Room, 2, 2)));
    }

    #[test]
    fn reserve_missing_item_fails() {
        let stm = Stm::default();
        let m = Manager::new();
        assert!(!stm.atomically(|tx| m.reserve(tx, ResourceKind::Flight, 1, 42)));
    }

    #[test]
    fn retire_respects_reservations() {
        let stm = Stm::default();
        let m = Manager::new();
        stm.atomically(|tx| m.add_resource(tx, ResourceKind::Car, 1, 100, 10));
        assert!(stm.atomically(|tx| m.reserve(tx, ResourceKind::Car, 1, 1)));
        // 99 free; retiring 100 only retires 99.
        assert!(stm.atomically(|tx| m.retire_resource(tx, ResourceKind::Car, 1, 100)));
        let r = stm
            .atomically(|tx| m.query(tx, ResourceKind::Car, 1))
            .unwrap();
        assert_eq!(r.total, 1);
        assert_eq!(r.used, 1);
        assert_eq!(r.free(), 0);
        // Nothing free: retiring again is a no-op.
        assert!(!stm.atomically(|tx| m.retire_resource(tx, ResourceKind::Car, 1, 1)));
    }

    #[test]
    fn retire_to_zero_removes_row() {
        let stm = Stm::default();
        let m = Manager::new();
        stm.atomically(|tx| m.add_resource(tx, ResourceKind::Room, 3, 100, 10));
        assert!(stm.atomically(|tx| m.retire_resource(tx, ResourceKind::Room, 3, 100)));
        assert_eq!(
            stm.atomically(|tx| m.query(tx, ResourceKind::Room, 3)),
            None
        );
    }

    #[test]
    fn delete_unknown_customer_is_none() {
        let stm = Stm::default();
        let m = Manager::new();
        assert_eq!(stm.atomically(|tx| m.delete_customer(tx, 12345)), None);
    }

    #[test]
    fn bookkeeping_invariant_used_equals_bookings() {
        // After any mix of sessions, units marked used in the tables
        // must equal bookings held by customers.
        let stm = Stm::default();
        let w = VacationWorkload::new(small(), stm);
        let mut state = w.init_worker(0);
        for _ in 0..500 {
            w.run_task(&mut state);
        }
        let used = w.manager().total_reserved_units(w.stm());
        let held = w.manager().total_customer_bookings();
        assert_eq!(used, held, "reservation ledger out of balance");
        w.manager().check_invariants().expect("table invariants");
    }

    #[test]
    fn sessions_commit() {
        let w = VacationWorkload::new(small(), Stm::default());
        let before = w.stm().stats().commits();
        let mut state = w.init_worker(1);
        for _ in 0..50 {
            w.run_task(&mut state);
        }
        assert!(w.stm().stats().commits() >= before + 50);
    }

    #[test]
    fn presets_match_stamp_flags() {
        let low = VacationConfig::low_contention(1000);
        assert_eq!(
            (low.queries_per_task, low.query_range_pct, low.user_pct),
            (2, 90, 98)
        );
        let high = VacationConfig::high_contention(1000);
        assert_eq!(
            (high.queries_per_task, high.query_range_pct, high.user_pct),
            (4, 60, 90)
        );
    }
}
