//! Property-based tests for the STM: sequential equivalence against a
//! plain model, atomicity of arbitrary multi-variable updates, and
//! snapshot-consistency invariants.

use std::sync::Arc;

use proptest::prelude::*;
use rubic::prelude::*;
use rubic::workloads::{TBTreeMap, TOrdMap};

#[derive(Debug, Clone)]
enum TxOp {
    Read(usize),
    Write(usize, i64),
    Add(usize, i64),
}

fn tx_op(n_vars: usize) -> impl Strategy<Value = TxOp> {
    prop_oneof![
        (0..n_vars).prop_map(TxOp::Read),
        (0..n_vars, -100i64..100).prop_map(|(i, v)| TxOp::Write(i, v)),
        (0..n_vars, -100i64..100).prop_map(|(i, v)| TxOp::Add(i, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A single-threaded sequence of transactions over TVars behaves
    /// exactly like the same operations on a plain array.
    #[test]
    fn sequential_equivalence(
        txs in proptest::collection::vec(
            proptest::collection::vec(tx_op(8), 1..12),
            1..40,
        ),
    ) {
        let stm = Stm::default();
        let vars: Vec<TVar<i64>> = (0..8).map(|_| TVar::new(0)).collect();
        let mut model = [0i64; 8];
        for ops in txs {
            // Run the whole op list as ONE transaction against the STM
            // and as direct updates against the model.
            stm.atomically(|tx| {
                for op in &ops {
                    match *op {
                        TxOp::Read(i) => {
                            let _ = tx.read(&vars[i])?;
                        }
                        TxOp::Write(i, v) => tx.write(&vars[i], v)?,
                        TxOp::Add(i, v) => tx.modify(&vars[i], |x| x + v)?,
                    }
                }
                Ok(())
            });
            for op in &ops {
                match *op {
                    TxOp::Read(_) => {}
                    TxOp::Write(i, v) => model[i] = v,
                    TxOp::Add(i, v) => model[i] += v,
                }
            }
            for (var, expected) in vars.iter().zip(&model) {
                prop_assert_eq!(var.snapshot(), *expected);
            }
        }
        prop_assert_eq!(stm.stats().aborts(), 0, "single thread must never abort");
    }

    /// Atomicity under concurrency: every transaction applies a
    /// zero-sum delta vector, so the total is invariant no matter how
    /// the schedules interleave.
    #[test]
    fn zero_sum_updates_preserve_total(
        deltas in proptest::collection::vec((-50i64..50, 0usize..6, 0usize..6), 10..60),
    ) {
        let stm = Stm::default();
        let vars: Arc<Vec<TVar<i64>>> = Arc::new((0..6).map(|_| TVar::new(1000)).collect());
        let chunks: Vec<Vec<(i64, usize, usize)>> =
            deltas.chunks(10).map(<[(i64, usize, usize)]>::to_vec).collect();
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let stm = stm.clone();
                let vars = Arc::clone(&vars);
                std::thread::spawn(move || {
                    for (amount, from, to) in chunk {
                        stm.atomically(|tx| {
                            tx.modify(&vars[from], |x| x - amount)?;
                            tx.modify(&vars[to], |x| x + amount)?;
                            Ok(())
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: i64 = vars.iter().map(TVar::snapshot).sum();
        prop_assert_eq!(total, 6000);
    }

    /// Write-then-read inside one transaction always observes the
    /// pending value, for arbitrary interleavings of ops.
    #[test]
    fn read_your_writes_always(ops in proptest::collection::vec((0usize..4, any::<i64>()), 1..30)) {
        let stm = Stm::default();
        let vars: Vec<TVar<i64>> = (0..4).map(|_| TVar::new(-1)).collect();
        stm.atomically(|tx| {
            let mut pending: [Option<i64>; 4] = [None; 4];
            for &(i, v) in &ops {
                tx.write(&vars[i], v)?;
                pending[i] = Some(v);
                for (j, p) in pending.iter().enumerate() {
                    let seen = tx.read(&vars[j])?;
                    let expected = p.unwrap_or(-1);
                    if seen != expected {
                        return Err(StmError::Conflict); // fail loudly via assert below
                    }
                }
            }
            Ok(())
        });
        // Reaching here means the closure committed on its first try
        // (no other threads), so all read-your-writes checks passed.
        prop_assert_eq!(stm.stats().commits(), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Declared read-only transactions observe a serial prefix: a
    /// writer stamps every cell with the same generation per
    /// transaction, so any mixture of generations inside one
    /// `read_only` would expose a non-serial state. Successive reads on
    /// one thread must also never move backwards.
    #[test]
    fn read_only_observes_a_serial_prefix(
        generations in 8u64..96,
        reads_per_reader in 16usize..128,
    ) {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stm = Stm::default();
        let vars: Arc<Vec<TVar<u64>>> = Arc::new((0..6).map(|_| TVar::new(0)).collect());
        let done = Arc::new(AtomicBool::new(false));

        let writer = {
            let stm = stm.clone();
            let vars = Arc::clone(&vars);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for g in 1..=generations {
                    stm.atomically(|tx| vars.iter().try_for_each(|v| tx.write(v, g)));
                }
                done.store(true, Ordering::Release);
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let stm = stm.clone();
                let vars = Arc::clone(&vars);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut n = 0usize;
                    while n < reads_per_reader || !done.load(Ordering::Acquire) {
                        let gens = stm.read_only(|tx| {
                            let mut out = [0u64; 6];
                            for (slot, v) in out.iter_mut().zip(vars.iter()) {
                                *slot = tx.read(v)?;
                            }
                            Ok(out)
                        });
                        assert!(
                            gens.iter().all(|&g| g == gens[0]),
                            "read-only transaction mixed generations: {gens:?}"
                        );
                        assert!(
                            gens[0] >= last,
                            "read-only transaction went backwards: {} < {last}",
                            gens[0]
                        );
                        last = gens[0];
                        n += 1;
                    }
                    n as u64
                })
            })
            .collect();
        writer.join().unwrap();
        let reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        prop_assert_eq!(vars[0].snapshot(), generations);
        prop_assert_eq!(stm.stats().ro_commits(), reads, "one commit per read_only call");
    }
}

// ---------------------------------------------------------------------
// Hot-path fast-path properties: the write index switches from a
// linear-scanned small set to a hashed (spilled) representation past 4
// distinct locations, and aborted attempts recycle their allocations.
// These properties pin the engine's observable behaviour across both
// representations and across retries. The transactions are driven by
// hand (`begin_unmanaged`, test-only `chaos` feature) so a single case
// can commit one footprint and abort another deterministically.
// ---------------------------------------------------------------------

use rubic_stm::Transaction;

/// Applies `ops` to a fresh transaction over `vars`, checking
/// read-your-writes and duplicate-read agreement at every step, and
/// returns the model state the commit should publish.
fn apply_ops(
    tx: &mut Transaction,
    vars: &[TVar<i64>],
    ops: &[(usize, Option<i64>)],
) -> Vec<Option<i64>> {
    let mut pending: Vec<Option<i64>> = vec![None; vars.len()];
    for &(i, write) in ops {
        let i = i % vars.len();
        match write {
            Some(v) => {
                tx.write(&vars[i], v).unwrap();
                pending[i] = Some(v);
            }
            None => {
                let seen = tx.read(&vars[i]).unwrap();
                let expected = pending[i].unwrap_or(i as i64);
                assert_eq!(seen, expected, "read-your-writes / stable read violated");
                // Duplicate read must agree with the first one.
                assert_eq!(tx.read(&vars[i]).unwrap(), expected);
            }
        }
    }
    pending
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Commit and abort behave identically whether the write index
    /// is in its small-set (linear scan) or spilled (hashed)
    /// representation: commit publishes exactly the model state, abort
    /// publishes nothing and leaks no lock.
    #[test]
    fn commit_abort_equivalence_across_index_representations(
        n_vars in 2usize..48,
        ops in proptest::collection::vec(
            (0usize..48, proptest::option::of(-1000i64..1000)),
            1..96,
        ),
        commit in any::<bool>(),
    ) {
        let vars: Vec<TVar<i64>> = (0..n_vars).map(|i| TVar::new(i as i64)).collect();
        let mut tx = Transaction::begin_unmanaged();
        let pending = apply_ops(&mut tx, &vars, &ops);
        if commit {
            tx.commit_unmanaged().unwrap();
            for (i, var) in vars.iter().enumerate() {
                prop_assert_eq!(var.snapshot(), pending[i].unwrap_or(i as i64));
            }
        } else {
            tx.abort_unmanaged();
            for (i, var) in vars.iter().enumerate() {
                prop_assert_eq!(var.snapshot(), i as i64, "abort must not publish");
            }
        }
        // Either way every lock must be free again: a fresh writer can
        // take any variable without conflict.
        let mut probe = Transaction::begin_unmanaged();
        for var in &vars {
            probe.write(var, -7).unwrap();
        }
        probe.abort_unmanaged();
    }

    /// A retry that replays the same footprint allocates nothing: the
    /// abort empties the read set in place and parks every write slot
    /// on the spare list, and the replay refills both without growing
    /// any capacity or touching a handle count.
    #[test]
    fn retry_replay_allocates_nothing(
        n_vars in 1usize..40,
        ops in proptest::collection::vec(
            (0usize..40, proptest::option::of(-1000i64..1000)),
            1..80,
        ),
    ) {
        let vars: Vec<TVar<i64>> = (0..n_vars).map(|i| TVar::new(i as i64)).collect();
        let mut tx = Transaction::begin_unmanaged();
        apply_ops(&mut tx, &vars, &ops);
        let live_reads = tx.read_set_len();
        let live_writes = tx.write_set_len();
        tx.abort_unmanaged();
        let parked = tx.footprint();
        prop_assert_eq!(tx.read_set_len(), 0, "abort must empty the read set");
        prop_assert!(parked.reads_capacity >= live_reads);
        prop_assert_eq!(parked.spare_write_slots, live_writes);
        let handles: Vec<usize> = vars.iter().map(TVar::handle_count).collect();

        tx.restart_unmanaged();
        apply_ops(&mut tx, &vars, &ops);
        let replayed = tx.footprint();
        prop_assert_eq!(tx.read_set_len(), live_reads);
        prop_assert_eq!(replayed.spare_write_slots, 0, "slots must be reused");
        prop_assert_eq!(
            vars.iter().map(TVar::handle_count).collect::<Vec<_>>(),
            handles,
            "parked slots keep their handles; reads never take one"
        );
        prop_assert_eq!(replayed.reads_capacity, parked.reads_capacity);
        prop_assert_eq!(replayed.writes_capacity, parked.writes_capacity);
        prop_assert_eq!(replayed.write_index_capacity, parked.write_index_capacity);
        tx.commit_unmanaged().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Map transactions compose with raw TVar operations atomically:
    /// an index cell always matches the map's size.
    #[test]
    fn map_and_tvar_compose(keys in proptest::collection::vec(0u64..64, 1..60)) {
        let stm = Stm::default();
        let map: Arc<TBTreeMap<u64, u64>> = Arc::new(TBTreeMap::new());
        let size_cell = Arc::new(TVar::new(0usize));
        let handles: Vec<_> = keys
            .chunks(15)
            .map(|chunk| {
                let stm = stm.clone();
                let map = Arc::clone(&map);
                let size_cell = Arc::clone(&size_cell);
                let chunk = chunk.to_vec();
                std::thread::spawn(move || {
                    for k in chunk {
                        stm.atomically(|tx| {
                            let fresh = map.insert(tx, k, k)?.is_none();
                            if fresh {
                                tx.modify(&size_cell, |s| s + 1)?;
                            }
                            Ok(())
                        });
                        // Invariant visible to concurrent readers.
                        let (len, cell) = stm.atomically(|tx| {
                            Ok((map.len(tx)?, tx.read(&size_cell)?))
                        });
                        assert_eq!(len, cell, "size cell diverged from map");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(map.snapshot_entries().len(), size_cell.snapshot());
    }
}
