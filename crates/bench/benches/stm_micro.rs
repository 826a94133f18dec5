//! STM primitive microbenchmarks: transaction begin/commit paths,
//! read/write costs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rubic::prelude::*;

fn bench_read_only(c: &mut Criterion) {
    let stm = Stm::default();
    let v = TVar::new(42u64);
    c.bench_function("stm/read_only_tx", |b| {
        b.iter(|| stm.atomically(|tx| tx.read(black_box(&v))));
    });
}

fn bench_write_tx(c: &mut Criterion) {
    let stm = Stm::default();
    let v = TVar::new(0u64);
    c.bench_function("stm/write_tx", |b| {
        b.iter(|| stm.atomically(|tx| tx.write(black_box(&v), 7)));
    });
}

fn bench_rmw_tx(c: &mut Criterion) {
    let stm = Stm::default();
    let v = TVar::new(0u64);
    c.bench_function("stm/read_modify_write_tx", |b| {
        b.iter(|| stm.atomically(|tx| tx.modify(black_box(&v), |x| x + 1)));
    });
}

fn bench_read_n(c: &mut Criterion) {
    let stm = Stm::default();
    let vars: Vec<TVar<u64>> = (0..256).map(TVar::new).collect();
    let mut group = c.benchmark_group("stm/read_set_scaling");
    for n in [4usize, 16, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                stm.atomically(|tx| {
                    let mut acc = 0u64;
                    for v in &vars[..n] {
                        acc = acc.wrapping_add(tx.read(v)?);
                    }
                    Ok(acc)
                })
            });
        });
    }
    group.finish();
}

fn bench_write_n(c: &mut Criterion) {
    let stm = Stm::default();
    let vars: Vec<TVar<u64>> = (0..64).map(TVar::new).collect();
    let mut group = c.benchmark_group("stm/write_set_scaling");
    for n in [4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                stm.atomically(|tx| {
                    for (i, v) in vars[..n].iter().enumerate() {
                        tx.write(v, i as u64)?;
                    }
                    Ok(())
                })
            });
        });
    }
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let v = TVar::new(vec![1u64; 16]);
    c.bench_function("stm/non_transactional_snapshot", |b| {
        b.iter(|| black_box(&v).snapshot());
    });
}

criterion_group!(
    benches,
    bench_read_only,
    bench_write_tx,
    bench_rmw_tx,
    bench_read_n,
    bench_write_n,
    bench_snapshot
);
criterion_main!(benches);
