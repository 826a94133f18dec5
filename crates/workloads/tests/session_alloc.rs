//! What a Vacation session allocates, counted with a global allocator:
//! a reservation writes two rows and copies no leaf, booking onto a
//! customer record costs the same whatever the record already holds,
//! and a long-lived instance does not drift — the bytes a task allocates
//! late in its life stay within 1.5 × those at the start. Beside them,
//! the map's own contract: an `edit` that writes nothing allocates
//! nothing. Counts only, no wall clock.
//!
//! One `#[test]` on purpose, as in `rubic-stm`'s `alloc_contract`: the
//! counters are per thread, but the epoch is process-wide, and a second
//! test thread pinned at the wrong moment would let this thread's
//! garbage bag grow — an allocation that is not the session's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rubic_runtime::Workload;
use rubic_stm::Stm;
use rubic_workloads::btree::node::MAX_LEAF;
use rubic_workloads::vacation::{Manager, ResourceKind};
use rubic_workloads::{Edit, TBTreeMap, TOrdMap, VacationConfig, VacationWorkload};

struct Counting;

thread_local! {
    // No destructor and const-initialised, so touching them from inside
    // the allocator never allocates or re-enters.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: defers every request unchanged to `System`; the only addition
// is two thread-local counter bumps that cannot allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` this thread requests while running `f`.
fn allocated(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCATIONS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

#[test]
fn sessions_allocate_the_same_whatever_the_history() {
    // An edit that writes nothing copies no leaf: on a 64-key map, an
    // absent-key removal and a `Keep` allocate nothing.
    let stm = Stm::default();
    let map: TBTreeMap<u64, u64> = TBTreeMap::new();
    for k in 0..64 {
        stm.atomically(|tx| map.insert(tx, k, k));
    }
    let idle = || {
        assert_eq!(stm.atomically(|tx| map.remove(tx, &1_000)), None);
        let held = stm.atomically(|tx| map.edit(tx, &5, |v| (Edit::Keep, v.copied())));
        assert_eq!(held, Some(5));
    };
    idle();
    assert_eq!(allocated(idle), (0, 0), "a non-writing edit allocated");

    // A reservation writes two rows, whatever shares the customer's
    // leaf: with customer 7 in a full leaf of `MAX_LEAF` customers, it
    // allocates the two rows' new values (16 B each) and one booking
    // cell (48 B), and no copy of a leaf.
    let manager = Manager::new();
    stm.atomically(|tx| manager.add_resource(tx, ResourceKind::Car, 1, 1_000_000, 60));
    let neighbours = MAX_LEAF as u64;
    for customer in 0..neighbours {
        assert!(stm.atomically(|tx| manager.reserve(tx, ResourceKind::Car, customer, 1)));
    }
    let book = |times: u64| {
        for _ in 0..times {
            assert!(stm.atomically(|tx| manager.reserve(tx, ResourceKind::Car, 7, 1)));
        }
    };
    // Two warm-up bookings: the first row write of each type takes its
    // write slot.
    book(2);
    assert_eq!(
        allocated(|| book(1)),
        (3, 80),
        "(allocations, bytes) of one reservation"
    );

    // A push is history-independent: the same customer, the same map
    // shapes, 4 bookings held against 1 000.
    const ROUNDS: u64 = 100;
    let short = allocated(|| book(ROUNDS));
    book(1_000 - ROUNDS - 4);
    assert_eq!(manager.total_customer_bookings(), 1_000 + neighbours - 1);
    let long = allocated(|| book(ROUNDS));
    assert_eq!(short, long, "(allocations, bytes) of {ROUNDS} reservations");

    // Stationary cost: vacation-high at the size the benchmark runs it,
    // one worker, 400 K tasks, first 50 K against last 50 K.
    const WINDOW: u64 = 50_000;
    let cfg = VacationConfig {
        seed: 23,
        ..VacationConfig::high_contention(16_384)
    };
    let workload = VacationWorkload::new(cfg, Stm::default());
    let mut state = workload.init_worker(0);
    let mut run = |tasks: u64| {
        allocated(|| {
            for _ in 0..tasks {
                workload.run_task(&mut state);
            }
        })
    };
    let (_, young) = run(WINDOW);
    run(6 * WINDOW);
    let (_, old) = run(WINDOW);
    assert!(
        old * 2 <= young * 3,
        "bytes per task drifted: {} at the start, {} after 350 K tasks",
        young / WINDOW,
        old / WINDOW
    );
    assert_eq!(
        workload.manager().total_reserved_units(workload.stm()),
        workload.manager().total_customer_bookings(),
        "reservation ledger out of balance"
    );
}
