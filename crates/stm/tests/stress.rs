//! STM torture tests: serializability anomalies, reclamation soundness,
//! and commit-storm consistency under real threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rubic_stm::{Stm, TVar};

/// Write skew must be impossible: two transactions that each read the
/// other's written variable cannot both commit on overlapping state.
/// The classic example: the invariant `x + y >= 0` with two withdrawals
/// that are each individually safe.
#[test]
fn no_write_skew() {
    for _ in 0..200 {
        let stm = Stm::default();
        let x = Arc::new(TVar::new(50i64));
        let y = Arc::new(TVar::new(50i64));
        let t1 = {
            let stm = stm.clone();
            let x = Arc::clone(&x);
            let y = Arc::clone(&y);
            std::thread::spawn(move || {
                stm.atomically(|tx| {
                    let total = tx.read(&x)? + tx.read(&y)?;
                    if total >= 100 {
                        // Withdraw 100 from x: safe if nothing else moved.
                        let vx = tx.read(&x)?;
                        tx.write(&x, vx - 100)?;
                    }
                    Ok(())
                });
            })
        };
        let t2 = {
            let stm = stm.clone();
            let x = Arc::clone(&x);
            let y = Arc::clone(&y);
            std::thread::spawn(move || {
                stm.atomically(|tx| {
                    let total = tx.read(&x)? + tx.read(&y)?;
                    if total >= 100 {
                        let vy = tx.read(&y)?;
                        tx.write(&y, vy - 100)?;
                    }
                    Ok(())
                });
            })
        };
        t1.join().unwrap();
        t2.join().unwrap();
        let total = x.snapshot() + y.snapshot();
        assert!(
            total >= 0,
            "write skew: both withdrawals committed (x={}, y={})",
            x.snapshot(),
            y.snapshot()
        );
    }
}

/// Lost-update torture at higher thread counts and a hot single cell.
#[test]
fn hot_cell_no_lost_updates() {
    let stm = Stm::default();
    let cell = Arc::new(TVar::new(0u64));
    let threads = 8;
    let per = 400;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let stm = stm.clone();
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for _ in 0..per {
                    stm.atomically(|tx| tx.modify(&cell, |v| v + 1));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cell.snapshot(), threads * per);
}

/// Epoch reclamation: a churn of commits on `Arc`-tracked values must
/// eventually release every superseded snapshot.
#[test]
fn superseded_snapshots_are_reclaimed() {
    let tracker = Arc::new(());
    {
        let stm = Stm::default();
        let v: TVar<Arc<()>> = TVar::new(Arc::clone(&tracker));
        for _ in 0..5_000 {
            let fresh = Arc::clone(&tracker);
            stm.atomically(|tx| tx.write(&v, Arc::clone(&fresh)));
        }
        // All superseded snapshots are retired; force epoch advancement
        // by pinning repeatedly from this thread.
        for _ in 0..2048 {
            crossbeam_epoch::pin().flush();
        }
        let live = Arc::strong_count(&tracker);
        assert!(
            live < 1000,
            "epoch GC retired too little: {live} snapshots still live"
        );
        drop(v);
    }
    // Dropping the last handle only retires the variable; its current
    // value is freed once the epoch has passed every thread pinned at
    // that moment (other tests' transactions included), so poll rather
    // than count flushes.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while Arc::strong_count(&tracker) > 1 && std::time::Instant::now() < deadline {
        crossbeam_epoch::pin().flush();
        std::thread::yield_now();
    }
    // Everything except our handle is gone (allow a small epoch lag).
    assert!(
        Arc::strong_count(&tracker) <= 4,
        "leak: {} refs remain",
        Arc::strong_count(&tracker)
    );
}

/// A storm of small commits against concurrent multi-variable readers:
/// every reader snapshot must satisfy the writers' invariant (all
/// elements of the vector carry the same generation number).
#[test]
fn commit_storm_readers_see_generations() {
    let stm = Stm::default();
    let cells: Arc<Vec<TVar<u64>>> = Arc::new((0..8).map(|_| TVar::new(0)).collect());
    let stop = Arc::new(AtomicU64::new(0));

    let writer = {
        let stm = stm.clone();
        let cells = Arc::clone(&cells);
        std::thread::spawn(move || {
            for generation in 1..=800u64 {
                stm.atomically(|tx| {
                    for c in cells.iter() {
                        tx.write(c, generation)?;
                    }
                    Ok(())
                });
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stm = stm.clone();
            let cells = Arc::clone(&cells);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_gen = 0u64;
                while stop.load(Ordering::Acquire) == 0 {
                    let snapshot: Vec<u64> =
                        stm.atomically(|tx| cells.iter().map(|c| tx.read(c)).collect());
                    assert!(
                        snapshot.windows(2).all(|w| w[0] == w[1]),
                        "torn generation: {snapshot:?}"
                    );
                    assert!(snapshot[0] >= last_gen, "time went backwards");
                    last_gen = snapshot[0];
                }
            })
        })
        .collect();
    writer.join().unwrap();
    stop.store(1, Ordering::Release);
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(cells[0].snapshot(), 800);
}

/// Large transactions: hundreds of reads and writes in one transaction
/// commit atomically and scale without pathological behaviour.
#[test]
fn wide_transactions() {
    let stm = Stm::default();
    let cells: Vec<TVar<u64>> = (0..512).map(|_| TVar::new(1)).collect();
    let sum = stm.atomically(|tx| {
        let mut s = 0;
        for c in &cells {
            s += tx.read(c)?;
        }
        for c in &cells {
            tx.modify(c, |v| v * 2)?;
        }
        Ok(s)
    });
    assert_eq!(sum, 512);
    assert!(cells.iter().all(|c| c.snapshot() == 2));
    // One commit, many ops.
    assert_eq!(stm.stats().commits(), 1);
    assert_eq!(stm.stats().writes(), 512); // one write per cell
    assert_eq!(stm.stats().reads(), 1024); // sum loop + modify's reads
}

/// Interleaved contention across disjoint pairs: threads hammer
/// adjacent pairs in a ring; the ring total is invariant.
#[test]
fn ring_transfers_conserve_total() {
    const N: usize = 16;
    let stm = Stm::default();
    let ring: Arc<Vec<TVar<i64>>> = Arc::new((0..N).map(|_| TVar::new(64)).collect());
    let handles: Vec<_> = (0..4usize)
        .map(|t| {
            let stm = stm.clone();
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..2_000usize {
                    let a = (t * 4 + i) % N;
                    let b = (a + 1) % N;
                    stm.atomically(|tx| {
                        let va = tx.read(&ring[a])?;
                        let vb = tx.read(&ring[b])?;
                        tx.write(&ring[a], va - 1)?;
                        tx.write(&ring[b], vb + 1)?;
                        Ok(())
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total: i64 = ring.iter().map(TVar::snapshot).sum();
    assert_eq!(total, 64 * N as i64);
}

/// Abort statistics actually move under contention (sanity that the
/// conflict path is exercised by these tests at all).
#[test]
fn contention_produces_aborts() {
    let stm = Stm::default();
    let cell = Arc::new(TVar::new(0u64));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let stm = stm.clone();
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for _ in 0..500 {
                    stm.atomically(|tx| {
                        let v = tx.read(&cell)?;
                        // Lengthen the window so overlap is likely.
                        std::hint::black_box((0..50u64).sum::<u64>());
                        tx.write(&cell, v + 1)
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cell.snapshot(), 2000);
    // On a single-core host preemption still interleaves; just assert
    // the counter plumbing works (zero aborts is possible but then the
    // commit count must be exact).
    assert_eq!(stm.stats().commits(), 2000);
}
