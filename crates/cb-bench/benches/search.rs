//! Frontier contention — the parallel backchase's shared data paths in
//! isolation: the mutexed priority frontier (pop + push) and the atomic
//! incumbent (`fetch_min` over the cost's bit pattern) under 1–4
//! workers, plus the sharded chase core driven by the real parallel
//! walk. A lock-granularity regression (coarser shard locks, a longer
//! critical section around the heap) shows up here before it shows up
//! as a flat E18 speedup curve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cb_chase::{ChaseConfig, ChaseContext, ExploreAll, PlanSearch};
use pcql::parser::{parse_dependency, parse_query};

/// One round of the frontier protocol: pop the cheapest entry, publish
/// an incumbent improvement, push the entry's children back. Entries are
/// (priority, seq) pairs — the shared-path cost, without the per-node
/// chase work that normally hides it.
fn frontier_rounds(workers: usize, rounds: usize) {
    let queue: Mutex<BinaryHeap<(u64, u64)>> = Mutex::new((0..64u64).map(|i| (i, i)).collect());
    let incumbent = AtomicU64::new(f64::INFINITY.to_bits());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let queue = &queue;
            let incumbent = &incumbent;
            scope.spawn(move || {
                for r in 0..rounds {
                    let popped = queue.lock().unwrap().pop();
                    let (prio, seq) = popped.unwrap_or((w as u64, r as u64));
                    let cost = (prio as f64).mul_add(1e3, (w * rounds + r) as f64);
                    incumbent.fetch_min(cost.to_bits(), Ordering::SeqCst);
                    let mut q = queue.lock().unwrap();
                    q.push((prio + 1, seq + 1));
                    q.push((prio + 2, seq + 2));
                    if q.len() > 128 {
                        q.pop();
                    }
                }
            });
        }
    });
    black_box(f64::from_bits(incumbent.load(Ordering::SeqCst)));
}

fn frontier_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("search/frontier_rounds");
    group.sample_size(10);
    for workers in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| frontier_rounds(black_box(w), 2_000));
        });
    }
    group.finish();
}

/// The real plan-search walk over the §4 views lattice: frontier +
/// sharded memo traffic end to end, swept over worker counts (one worker
/// walks on the calling thread).
fn parallel_walk(c: &mut Criterion) {
    let u = parse_query(
        "select struct(A = r.A) from R r, S s, V v \
         where r.B = s.B and v.A = r.A",
    )
    .unwrap();
    let deps = vec![
        parse_dependency(
            "c_V",
            "forall (r in R) (s in S) where r.B = s.B -> exists (v in V) where v.A = r.A",
        )
        .unwrap(),
        parse_dependency(
            "c'_V",
            "forall (v in V) -> exists (r in R) (s in S) where r.B = s.B and v.A = r.A",
        )
        .unwrap(),
    ];
    let mut group = c.benchmark_group("search/parallel_walk");
    group.sample_size(10);
    for workers in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
                let out = PlanSearch::new(black_box(&u))
                    .with_threads(w)
                    .with_collect_visited(false)
                    .run(&ctx, &ExploreAll);
                assert!(out.counters.complete);
                out.counters.visited_count
            });
        });
    }
    group.finish();
}

criterion_group!(benches, frontier_contention, parallel_walk);
criterion_main!(benches);
