//! E4 — generalized tableau minimization: cost of minimizing redundant
//! self-join chains of growing length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cb_chase::{minimize, ChaseConfig, ChaseContext};
use pcql::parser::parse_query;

/// The paper's §3 pattern generalized: a chain of n R-bindings where only
/// the first two matter.
fn chain_query(n: usize) -> pcql::Query {
    let mut from = Vec::new();
    let mut conds = Vec::new();
    for i in 0..n {
        from.push(format!("R v{i}"));
        if i == 1 {
            conds.push("v0.B = v1.A".to_string());
        } else if i > 1 {
            conds.push(format!("v{}.B = v{}.B", i - 1, i));
        }
    }
    parse_query(&format!(
        "select struct(A = v0.A, B = v1.B) from {} where {}",
        from.join(", "),
        conds.join(" and ")
    ))
    .unwrap()
}

fn minimization(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4/minimize_chain");
    group.sample_size(10);
    for n in [3usize, 4, 5] {
        let q = chain_query(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &q, |b, q| {
            b.iter(|| {
                // A cold question: the context is built inside the timing.
                let ctx = ChaseContext::new(vec![], ChaseConfig::default());
                let m = minimize(&ctx, black_box(q));
                assert_eq!(m.from.len(), 2);
                m
            });
        });
    }
    group.finish();
}

criterion_group!(benches, minimization);
criterion_main!(benches);
