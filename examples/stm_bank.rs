//! Using the STM substrate directly: a concurrent bank with invariant
//! auditing.
//!
//! ```text
//! cargo run --release --example stm_bank
//! ```
//!
//! Demonstrates the `rubic-stm` public API on its own (no tuning):
//! transactional variables, composable multi-variable transactions,
//! read-only snapshot audits running concurrently with transfers, and
//! the commit/abort statistics. The audit must observe the invariant
//! (constant total balance) in *every* snapshot — that is the STM's
//! opacity guarantee at work.

use std::sync::Arc;

use rubic::prelude::*;

const ACCOUNTS: usize = 64;
const INITIAL: i64 = 1_000;
const TRANSFERS_PER_THREAD: usize = 20_000;
const THREADS: usize = 4;

fn main() {
    let stm = Stm::default();
    let accounts: Arc<Vec<TVar<i64>>> =
        Arc::new((0..ACCOUNTS).map(|_| TVar::new(INITIAL)).collect());
    let expected_total = (ACCOUNTS as i64) * INITIAL;

    // Transfer threads: move random amounts between random accounts.
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let stm = stm.clone();
        let accounts = Arc::clone(&accounts);
        handles.push(std::thread::spawn(move || {
            // Cheap xorshift so the example has no extra dependencies.
            let mut x: u64 = 0x9E37_79B9 ^ (t as u64) << 32 | 0x7F4A_7C15;
            let mut rng = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for _ in 0..TRANSFERS_PER_THREAD {
                let from = (rng() % ACCOUNTS as u64) as usize;
                // Distinct target: writing `from` twice in one transaction
                // would be read-your-writes-correct but a logic bug here
                // (the second write replaces the first, minting money).
                let to = (from + 1 + (rng() % (ACCOUNTS as u64 - 1)) as usize) % ACCOUNTS;
                let amount = (rng() % 100) as i64;
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

    // Auditor thread: read-only snapshot of the whole bank, repeatedly.
    let auditor = {
        let stm = stm.clone();
        let accounts = Arc::clone(&accounts);
        std::thread::spawn(move || {
            let mut audits = 0u64;
            for _ in 0..500 {
                let total = stm.read_only(|tx| {
                    let mut sum = 0i64;
                    for acc in accounts.iter() {
                        sum += tx.read(acc)?;
                    }
                    Ok(sum)
                });
                assert_eq!(
                    total, expected_total,
                    "audit saw a torn state — STM opacity violated!"
                );
                audits += 1;
            }
            audits
        })
    };

    for h in handles {
        h.join().unwrap();
    }
    let audits = auditor.join().unwrap();

    let final_total: i64 = accounts.iter().map(TVar::snapshot).sum();
    println!(
        "{} transfers across {THREADS} threads, {audits} concurrent audits",
        THREADS * TRANSFERS_PER_THREAD
    );
    println!("final total: {final_total} (expected {expected_total})");
    assert_eq!(final_total, expected_total);
    println!(
        "stm: {} commits, {} aborts (abort rate {:.2}%)",
        stm.stats().commits(),
        stm.stats().aborts(),
        stm.stats().abort_rate() * 100.0
    );
    println!("every audit observed the invariant — opacity held.");
}
