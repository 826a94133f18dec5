//! The allocation contract of a warmed transaction, counted with a
//! global allocator: a read-only transaction allocates nothing, a
//! writer allocates exactly the value boxes it publishes, and an
//! aborted attempt adds nothing.
//!
//! One `#[test]` on purpose. The counter is per thread, but the epoch is
//! process-wide: a second test thread pinned at the wrong moment would
//! stall reclamation and let this thread's garbage bag grow past its
//! reserved capacity — an allocation that is not the transaction's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use rubic_stm::{Stm, StmError, TVar};

struct Counting;

thread_local! {
    // No destructor and const-initialised, so touching it from inside
    // the allocator never allocates or re-enters.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every request unchanged to `System`; the only addition
// is a thread-local counter bump that cannot allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while running `f` `rounds` times, after
/// one warm-up call.
fn allocations(rounds: u64, mut f: impl FnMut()) -> u64 {
    f();
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..rounds {
        f();
    }
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn warmed_transactions_allocate_only_the_values_they_publish() {
    const ROUNDS: u64 = 10_000;
    let stm = Stm::default();
    let vars: Vec<TVar<u64>> = (0..64).map(TVar::new).collect();

    for reads in [1, 64] {
        let n = allocations(ROUNDS, || {
            let sum =
                stm.atomically(|tx| vars[..reads].iter().try_fold(0, |s, v| Ok(s + tx.read(v)?)));
            black_box(sum);
        });
        assert_eq!(n, 0, "read-only transaction over {reads} variables");
    }

    for writes in [1u64, 8] {
        let n = allocations(ROUNDS, || {
            stm.atomically(|tx| {
                vars[..writes as usize]
                    .iter()
                    .try_for_each(|v| tx.modify(v, |x| x + 1))
            });
        });
        assert_eq!(n, ROUNDS * writes, "one value box per written variable");
    }

    // An attempt that aborts after buffering its writes costs nothing
    // on top of the attempt that commits.
    let mut attempts = 0u64;
    let n = allocations(ROUNDS, || {
        stm.atomically(|tx| {
            vars[..8].iter().try_for_each(|v| tx.modify(v, |x| x + 1))?;
            attempts += 1;
            if attempts % 2 == 1 {
                return Err(StmError::Conflict);
            }
            Ok(())
        });
    });
    assert_eq!(n, ROUNDS * 8, "abort and retry");
    assert_eq!(stm.stats().aborts(), ROUNDS + 1);
}
