//! Workload task-cost benchmarks: one task = one transaction (or one
//! client session), the unit the malleable pool's throughput counter
//! counts.

use criterion::{criterion_group, criterion_main, Criterion};
use rubic::prelude::*;
use rubic::runtime::Workload;

fn bench_rbtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("workloads/rbtree");
    group.bench_function("paper_mix_task", |b| {
        let w = RbTreeWorkload::new(RbTreeConfig::small(), Stm::default());
        let mut st = w.init_worker(0);
        b.iter(|| w.run_task(&mut st));
    });
    group.bench_function("read_only_task", |b| {
        let w = RbTreeWorkload::new(
            RbTreeConfig::small().with_mix(OpMix::read_only()),
            Stm::default(),
        );
        let mut st = w.init_worker(0);
        b.iter(|| w.run_task(&mut st));
    });
    group.bench_function("write_heavy_task", |b| {
        let w = RbTreeWorkload::new(
            RbTreeConfig::small().with_mix(OpMix::write_heavy()),
            Stm::default(),
        );
        let mut st = w.init_worker(0);
        b.iter(|| w.run_task(&mut st));
    });
    group.finish();
}

fn bench_vacation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workloads/vacation");
    group.bench_function("low_contention_session", |b| {
        let w = VacationWorkload::new(VacationConfig::low_contention(256), Stm::default());
        let mut st = w.init_worker(0);
        b.iter(|| w.run_task(&mut st));
    });
    group.bench_function("high_contention_session", |b| {
        let w = VacationWorkload::new(VacationConfig::high_contention(256), Stm::default());
        let mut st = w.init_worker(0);
        b.iter(|| w.run_task(&mut st));
    });
    group.finish();
}

fn bench_intruder(c: &mut Criterion) {
    c.bench_function("workloads/intruder/packet_task", |b| {
        let w = IntruderWorkload::new(IntruderConfig::paper(), Stm::default());
        let mut st = w.init_worker(0);
        b.iter(|| w.run_task(&mut st));
    });
}

fn bench_counters(c: &mut Criterion) {
    let mut group = c.benchmark_group("workloads/counters");
    group.bench_function("conflict_counter_task", |b| {
        let w = ConflictCounter::new(Stm::default());
        w.init_worker(0);
        b.iter(|| w.run_task(&mut ()));
    });
    group.bench_function("striped16_counter_task", |b| {
        let w = StripedCounter::new(16, Stm::default());
        let mut st = w.init_worker(0);
        b.iter(|| w.run_task(&mut st));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rbtree,
    bench_vacation,
    bench_intruder,
    bench_counters
);
criterion_main!(benches);
