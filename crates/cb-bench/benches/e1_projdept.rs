//! E1/E10 — the ProjDept running example: optimizer phases and the
//! execution cost of the paper's plans P1–P4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cb_bench::prepared_projdept;
use cb_chase::{backchase, chase, ChaseConfig, ChaseContext};

fn optimizer_phases(c: &mut Criterion) {
    let p = prepared_projdept(50, 10, 25);
    let deps = p.catalog.all_constraints();
    let q = &p.query;

    c.bench_function("e1/chase_to_universal_plan", |b| {
        b.iter(|| chase(black_box(q), &deps, &ChaseConfig::default()));
    });

    let u = chase(q, &deps, &ChaseConfig::default()).query;
    let mut group = c.benchmark_group("e1/backchase");
    group.sample_size(10);
    group.bench_function("enumerate_minimal_plans", |b| {
        b.iter(|| {
            // A cold question: the context is built inside the timing.
            let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
            backchase(&ctx, black_box(&u))
        });
    });
    group.finish();

    let mut group = c.benchmark_group("e1/optimize_end_to_end");
    group.sample_size(10);
    group.bench_function("algorithm1", |b| {
        b.iter(|| p.optimizer().optimize(black_box(q)).unwrap());
    });
    group.finish();
}

fn plan_execution(c: &mut Criterion) {
    // E10: execution cost of P1–P4 at two selectivities.
    let mut group = c.benchmark_group("e10/plan_execution");
    group.sample_size(10);
    for n_customers in [5usize, 100] {
        let p = prepared_projdept(60, 10, n_customers);
        let plans = cb_catalog::scenarios::projdept::paper_plans();
        for (i, plan) in plans.iter().enumerate() {
            let ev = p.evaluator();
            group.bench_with_input(
                BenchmarkId::new(format!("P{}", i + 1), format!("sel=1/{n_customers}")),
                plan,
                |b, plan| b.iter(|| ev.eval_query(black_box(plan)).unwrap()),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, optimizer_phases, plan_execution);
criterion_main!(benches);
