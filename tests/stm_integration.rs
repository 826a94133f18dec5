//! Cross-crate STM integration tests: invariants under real
//! concurrency, composed through the workload substrates.

use std::sync::Arc;
use std::time::Duration;

use rubic::prelude::*;
use rubic::workloads::vacation::ResourceKind;

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
fn tmap_concurrent_mixed_ops_stay_consistent() {
    let stm = Stm::default();
    let map: Arc<TMap<u64, u64>> = Arc::new(TMap::new());
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
    let snap = map.snapshot();
    snap.check_invariants().expect("tree invariants");
    assert_eq!(
        snap.len() as i64,
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
