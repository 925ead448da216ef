//! E15/E19 — the slot-compiled pipeline executor: compile-then-execute,
//! nested-loop vs hash-join vs merge-join pipelines, against the
//! tree-walking interpreter as the reference. Set `CRITERION_STUB_JSON` to land the medians in a
//! `BENCH_*.json` record.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cb_bench::prepared_views;
use cb_engine::exec::{compile, execute, CompileOptions};

fn compile_then_execute(c: &mut Criterion) {
    let p = prepared_views(400, 400, 0.05);
    let ev = p.evaluator();
    let nested = compile(
        &p.query,
        CompileOptions {
            hash_joins: false,
            ..Default::default()
        },
    );
    let hashed = compile(
        &p.query,
        CompileOptions {
            hash_joins: true,
            ..Default::default()
        },
    );
    let merged = compile(
        &p.query,
        CompileOptions {
            hash_joins: true,
            merge_joins: true,
            ..Default::default()
        },
    );
    let reference = ev.eval_query(&p.query).unwrap();
    assert_eq!(execute(&ev, &hashed).unwrap(), reference);
    assert_eq!(execute(&ev, &merged).unwrap(), reference);
    assert_eq!(execute(&ev, &nested).unwrap(), reference);

    let mut group = c.benchmark_group("e15/pipeline");
    group.sample_size(10);
    group.bench_function("compile", |b| {
        b.iter(|| {
            compile(
                black_box(&p.query),
                CompileOptions {
                    hash_joins: true,
                    merge_joins: true,
                    ..Default::default()
                },
            )
        });
    });
    group.bench_function("execute/nested_loop", |b| {
        b.iter(|| execute(&ev, black_box(&nested)).unwrap());
    });
    group.bench_function("execute/hash_join", |b| {
        b.iter(|| execute(&ev, black_box(&hashed)).unwrap());
    });
    group.bench_function("evaluator/reference", |b| {
        b.iter(|| ev.eval_query(black_box(&p.query)).unwrap());
    });
    group.finish();

    // E19: the batched push-based executor vs the interpreter on the
    // same plan, plus merge vs hash joins on ordered roots.
    let mut group = c.benchmark_group("e19/batched");
    group.sample_size(10);
    group.bench_function("nested_loop/batched", |b| {
        b.iter(|| execute(&ev, black_box(&nested)).unwrap());
    });
    group.bench_function("hash_join/batched", |b| {
        b.iter(|| execute(&ev, black_box(&hashed)).unwrap());
    });
    group.bench_function("merge_join/batched", |b| {
        b.iter(|| execute(&ev, black_box(&merged)).unwrap());
    });
    group.bench_function("evaluator/reference", |b| {
        b.iter(|| ev.eval_query(black_box(&p.query)).unwrap());
    });
    group.finish();
}

criterion_group!(benches, compile_then_execute);
criterion_main!(benches);
