//! Cross-crate STM integration tests: invariants under real
//! concurrency, composed through the workload substrates.

use std::sync::Arc;
use std::time::Duration;

use rubic::prelude::*;
use rubic::workloads::vacation::ResourceKind;
use rubic::workloads::{TBTreeMap, TOrdMap};

/// Bank-transfer serializability: concurrent transfers + concurrent
/// full-table audits; the total must hold in every audit snapshot and
/// at the end.
#[test]
fn bank_invariant_under_concurrency() {
    const N: usize = 32;
    const PER_THREAD: usize = 3_000;
    let stm = Stm::default();
    let accounts: Arc<Vec<TVar<i64>>> = Arc::new((0..N).map(|_| TVar::new(100)).collect());
    let expected = 100 * N as i64;

    let mut handles = Vec::new();
    for t in 0..3u64 {
        let stm = stm.clone();
        let accounts = Arc::clone(&accounts);
        handles.push(std::thread::spawn(move || {
            let mut x = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..PER_THREAD {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let from = (x as usize) % N;
                let to = (from + 1 + (x >> 16) as usize % (N - 1)) % N;
                let amount = ((x >> 32) % 20) as i64;
                stm.atomically(|tx| {
                    let a = tx.read(&accounts[from])?;
                    let b = tx.read(&accounts[to])?;
                    tx.write(&accounts[from], a - amount)?;
                    tx.write(&accounts[to], b + amount)?;
                    Ok(())
                });
            }
        }));
    }
    // Auditor runs concurrently.
    let auditor = {
        let stm = stm.clone();
        let accounts = Arc::clone(&accounts);
        std::thread::spawn(move || {
            for _ in 0..200 {
                let total = stm.read_only(|tx| {
                    let mut sum = 0i64;
                    for a in accounts.iter() {
                        sum += tx.read(a)?;
                    }
                    Ok(sum)
                });
                assert_eq!(total, expected, "torn audit snapshot");
            }
        })
    };
    for h in handles {
        h.join().unwrap();
    }
    auditor.join().unwrap();
    let final_total: i64 = accounts.iter().map(TVar::snapshot).sum();
    assert_eq!(final_total, expected);
}

/// The transactional map keeps its tree invariants and exact size
/// under concurrent inserts and removals from many threads.
#[test]
fn map_concurrent_mixed_ops_stay_consistent() {
    let stm = Stm::default();
    let map: Arc<TBTreeMap<u64, u64>> = Arc::new(TBTreeMap::new());
    let inserted = Arc::new(std::sync::atomic::AtomicI64::new(0));

    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let stm = stm.clone();
            let map = Arc::clone(&map);
            let inserted = Arc::clone(&inserted);
            std::thread::spawn(move || {
                let mut x = t.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
                for _ in 0..800 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = x % 256;
                    if x % 3 == 0 {
                        let removed = stm.atomically(|tx| map.remove(tx, &key));
                        if removed.is_some() {
                            inserted.fetch_add(-1, std::sync::atomic::Ordering::Relaxed);
                        }
                    } else {
                        let old = stm.atomically(|tx| map.insert(tx, key, x));
                        if old.is_none() {
                            inserted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let len = map.check_invariants().expect("tree invariants");
    assert_eq!(
        len as i64,
        inserted.load(std::sync::atomic::Ordering::Relaxed),
        "net insert count must equal final map size"
    );
}

/// Vacation's ledger invariant survives concurrent client sessions run
/// through the malleable pool under an adaptive controller.
#[test]
fn vacation_ledger_balanced_after_tuned_run() {
    let stm = Stm::default();
    let workload = Arc::new(VacationWorkload::new(
        VacationConfig::high_contention(128),
        stm.clone(),
    ));
    let pool = MalleablePool::start(
        PoolConfig::new(4)
            .monitor_period(Duration::from_millis(5))
            .name("vacation-it"),
        Arc::clone(&workload),
        Box::new(Rubic::new(RubicConfig::default(), 4)),
    );
    std::thread::sleep(Duration::from_millis(300));
    let report = pool.stop();
    assert!(report.total_tasks > 0);
    let used = workload.manager().total_reserved_units(workload.stm());
    let held = workload.manager().total_customer_bookings();
    assert_eq!(used, held, "reservation ledger out of balance");
}

/// Vacation rows unlinked while other sessions hold them: one thread
/// reserves for two customers while another deletes them, and one adds
/// units to two rooms while another retires them to zero (removing the
/// row). No write lands on an unlinked row: every unit taken is held by
/// a customer or was billed, every unit added is in a row or was
/// retired, and the tables stay valid B-trees.
#[test]
fn vacation_rows_unlinked_under_writers_lose_no_update() {
    const ROUNDS: u64 = 20_000;
    const PRICE: u64 = 50;
    let stm = Stm::default();
    let m = Arc::new(Manager::new());
    stm.atomically(|tx| {
        m.add_resource(tx, ResourceKind::Car, 0, 1_000_000, PRICE)?;
        m.add_resource(tx, ResourceKind::Car, 1, 1_000_000, PRICE)
    });
    // All four start at once, so the sessions overlap from the first.
    let start = Arc::new(std::sync::Barrier::new(4));
    let spawn = |session: fn(&Stm, &Manager, u64) -> u64| {
        let (stm, m, start) = (stm.clone(), Arc::clone(&m), Arc::clone(&start));
        std::thread::spawn(move || {
            start.wait();
            (0..ROUNDS).map(|i| session(&stm, &m, i % 2)).sum::<u64>()
        })
    };
    let reserved =
        spawn(|stm, m, c| u64::from(stm.atomically(|tx| m.reserve(tx, ResourceKind::Car, c, c))));
    let billed = spawn(|stm, m, c| stm.atomically(|tx| m.delete_customer(tx, c)).unwrap_or(0));
    let added = spawn(|stm, m, id| {
        stm.atomically(|tx| m.add_resource(tx, ResourceKind::Room, id, 100, PRICE));
        100
    });
    let retired = spawn(|stm, m, id| {
        let done = stm.atomically(|tx| m.retire_resource(tx, ResourceKind::Room, id, 100));
        100 * u64::from(done)
    });
    let [reserved, billed, added, retired] =
        [reserved, billed, added, retired].map(|h| h.join().expect("session thread"));
    let held = m.total_customer_bookings();
    assert_eq!(
        m.total_reserved_units(&stm),
        held,
        "reservation ledger out of balance"
    );
    assert_eq!(
        reserved * PRICE,
        billed + held * PRICE,
        "a booking was lost"
    );
    let rooms: u64 = (0..2)
        .filter_map(|id| stm.atomically(|tx| m.query(tx, ResourceKind::Room, id)))
        .map(|r| u64::from(r.total))
        .sum();
    assert_eq!(added - retired, rooms, "units added to an unlinked row");
    m.check_invariants().expect("table invariants");
}

/// Intruder under the pool: flows complete, attacks are detected, and
/// sessions do not leak.
#[test]
fn intruder_pipeline_under_pool() {
    let stm = Stm::default();
    let workload = Arc::new(IntruderWorkload::new(IntruderConfig::small(), stm));
    let pool = MalleablePool::start(
        PoolConfig::new(3)
            .monitor_period(Duration::from_millis(5))
            .name("intruder-it"),
        Arc::clone(&workload),
        Box::new(Ebs::new(3)),
    );
    std::thread::sleep(Duration::from_millis(300));
    let _ = pool.stop();
    assert!(workload.flows_completed() > 0, "no flow reassembled");
    // Sessions bounded by in-flight batches (one per worker at worst).
    assert!(
        workload.open_sessions() <= 3 * 8,
        "session map leaked: {}",
        workload.open_sessions()
    );
}

/// Two STM instances hosted in one process stay fully isolated in
/// statistics but share the global clock safely.
#[test]
fn independent_stm_instances() {
    let stm_a = Stm::default();
    let stm_b = Stm::default();
    let v = TVar::new(0u64);
    stm_a.atomically(|tx| tx.write(&v, 1));
    stm_b.atomically(|tx| tx.modify(&v, |x| x + 1));
    assert_eq!(v.snapshot(), 2);
    assert_eq!(stm_a.stats().commits(), 1);
    assert_eq!(stm_b.stats().commits(), 1);
}

/// The manager API's billing matches the sum of reserved item prices.
#[test]
fn vacation_billing_matches_prices() {
    let stm = Stm::default();
    let m = Manager::new();
    stm.atomically(|tx| {
        m.add_resource(tx, ResourceKind::Car, 1, 10, 30)?;
        m.add_resource(tx, ResourceKind::Room, 2, 10, 45)?;
        m.add_resource(tx, ResourceKind::Flight, 3, 10, 100)?;
        Ok(())
    });
    stm.atomically(|tx| {
        assert!(m.reserve(tx, ResourceKind::Car, 9, 1)?);
        assert!(m.reserve(tx, ResourceKind::Room, 9, 2)?);
        assert!(m.reserve(tx, ResourceKind::Flight, 9, 3)?);
        Ok(())
    });
    let bill = stm.atomically(|tx| m.delete_customer(tx, 9));
    assert_eq!(bill, Some(175));
}
