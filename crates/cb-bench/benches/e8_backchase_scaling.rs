//! E8 — the exponential backchase: plan-space enumeration cost as
//! redundant access structures accumulate (paper §5: "there is little
//! hope to do better than exponential if we want a complete
//! enumeration").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cb_chase::{backchase, chase, ChaseConfig, ChaseContext};
use pcql::parser::parse_query;
use pcql::Type;

fn setup(k: usize) -> (Vec<pcql::Dependency>, pcql::Query) {
    let mut catalog = cb_catalog::Catalog::new();
    catalog.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
    catalog.add_logical_relation("S", [("B", Type::Int), ("C", Type::Int)]);
    catalog.add_direct_mapping("R");
    catalog.add_direct_mapping("S");
    for i in 0..k {
        catalog
            .add_materialized_view(
                &format!("V{i}"),
                parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
                    .unwrap(),
            )
            .unwrap();
    }
    let q = parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap();
    let deps = catalog.all_constraints();
    let u = chase(&q, &deps, &ChaseConfig::default()).query;
    (deps, u)
}

fn backchase_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8/backchase_vs_views");
    group.sample_size(10);
    for k in [1usize, 2, 3, 4] {
        let (deps, u) = setup(k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &(), |b, _| {
            b.iter(|| {
                // A cold question: the context is built inside the timing.
                let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
                let out = backchase(&ctx, black_box(&u), 0);
                assert_eq!(out.normal_forms.len(), k + 1);
                out
            });
        });
    }
    group.finish();
}

criterion_group!(benches, backchase_scaling);
criterion_main!(benches);
