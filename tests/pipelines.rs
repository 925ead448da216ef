//! The physical-operator pipeline must agree with the reference
//! interpreter on every optimizer-produced plan, in every compile mode
//! (nested loop, hash joins, hash+merge joins), at batch sizes 1 and
//! 1024 — and the batch counters must reconcile with the per-operator
//! row counts.

use universal_plans::chase::SearchBudget;
use universal_plans::engine::exec::{compile, execute_with_stats, CompileOptions};
use universal_plans::prelude::*;

fn check_pipelines(catalog: &Catalog, q: &Query, instance: &Instance) {
    let ev = Evaluator::for_catalog(catalog, instance);
    let reference = ev.eval_query(q).unwrap();
    let config = cb_optimizer::OptimizerConfig {
        search_budget: SearchBudget {
            nodes: Some(200),
            ..Default::default()
        },
        cost_visited: true,
        ..Default::default()
    };
    let outcome = Optimizer::with_config(catalog, config).optimize(q).unwrap();
    for c in &outcome.candidates {
        for (hash_joins, merge_joins) in [(false, false), (true, false), (true, true)] {
            let options = CompileOptions {
                hash_joins,
                merge_joins,
                ..Default::default()
            };
            let pipeline = compile(&c.query, options);
            let (rows, stats) = execute_with_stats(&ev, &pipeline).unwrap_or_else(|e| {
                panic!(
                    "pipeline failed: {e}\nplan: {}\npipeline: {pipeline}",
                    c.query
                )
            });
            assert_eq!(rows, reference, "plan {} via {pipeline}", c.query);
            // The counters must account for every emitted row and table.
            assert!(
                stats.rows_emitted as usize >= rows.len(),
                "emitted {} < {} distinct rows via {pipeline}",
                stats.rows_emitted,
                rows.len()
            );
            assert_eq!(
                stats.tables_built + stats.tables_skipped,
                pipeline.n_tables as u64,
                "table accounting off via {pipeline}"
            );
            assert_eq!(
                stats.runs_built + stats.runs_skipped,
                pipeline.n_runs as u64,
                "run accounting off via {pipeline}"
            );
            // Batch-counter reconciliation: every live row riding a batch
            // is consumed by exactly one operator or the final
            // projection, so the selection-vector numerator must equal
            // the per-operator inputs plus the emitted rows.
            let consumed: u64 =
                stats.per_op.iter().map(|o| o.input).sum::<u64>() + stats.rows_emitted;
            assert_eq!(
                stats.sel_rows_live, consumed,
                "batch rows unaccounted for via {pipeline}: {stats:?}"
            );
            assert!(
                stats.sel_rows_live <= stats.sel_rows_total,
                "live rows exceed total via {pipeline}"
            );
            // Batch size 1 walks the rows strictly depth-first: same
            // result, same per-operator counts, one row per batch.
            let single = compile(
                &c.query,
                CompileOptions {
                    batch_size: 1,
                    ..options
                },
            );
            let (single_rows, single_stats) = execute_with_stats(&ev, &single)
                .unwrap_or_else(|e| panic!("batch size 1 failed: {e}\npipeline: {single}"));
            assert_eq!(single_rows, rows, "batch sizes disagree via {pipeline}");
            assert_eq!(
                single_stats.per_op, stats.per_op,
                "per-op counts drift between batch sizes via {pipeline}"
            );
            assert_eq!(
                single_stats.sel_rows_live, single_stats.sel_rows_total,
                "a one-row batch has no dead rows via {single}"
            );
            // The rendered report carries the batch and join-algorithm
            // columns.
            let rendered = stats.render(&pipeline);
            assert!(
                rendered.contains("join algorithms:"),
                "no join-algorithm line in:\n{rendered}"
            );
            assert!(
                rendered.contains("batches:"),
                "no batch line in:\n{rendered}"
            );
        }
    }
}

#[test]
fn projdept_plans_compile_to_pipelines() {
    let mut catalog = cb_catalog::scenarios::projdept::catalog();
    let q = cb_catalog::scenarios::projdept::query();
    let mut instance = cb_engine::projdept_instance(&cb_engine::ProjDeptParams {
        n_depts: 10,
        projs_per_dept: 4,
        n_customers: 4,
        seed: 77,
    });
    Materializer::new(&catalog)
        .materialize(&mut instance)
        .unwrap();
    *catalog.stats_mut() = cb_engine::collect_stats(&instance);
    check_pipelines(&catalog, &q, &instance);
}

#[test]
fn view_plans_compile_to_pipelines() {
    let mut catalog = cb_catalog::scenarios::relational_views::catalog();
    let q = cb_catalog::scenarios::relational_views::query();
    let mut instance = cb_engine::join_instance(&cb_engine::JoinParams {
        n_r: 80,
        n_s: 80,
        match_fraction: 0.3,
        seed: 5,
    });
    Materializer::new(&catalog)
        .materialize(&mut instance)
        .unwrap();
    *catalog.stats_mut() = cb_engine::collect_stats(&instance);
    check_pipelines(&catalog, &q, &instance);
}

#[test]
fn greedy_strategy_plans_execute_correctly() {
    let mut catalog = cb_catalog::scenarios::projdept::catalog();
    let q = cb_catalog::scenarios::projdept::query();
    let mut instance = cb_engine::projdept_instance(&cb_engine::ProjDeptParams {
        n_depts: 10,
        projs_per_dept: 4,
        n_customers: 4,
        seed: 13,
    });
    Materializer::new(&catalog)
        .materialize(&mut instance)
        .unwrap();
    *catalog.stats_mut() = cb_engine::collect_stats(&instance);

    let ev = Evaluator::for_catalog(&catalog, &instance);
    let reference = ev.eval_query(&q).unwrap();
    let config = cb_optimizer::OptimizerConfig {
        strategy: cb_optimizer::SearchStrategy::Greedy,
        cost_visited: false,
        ..Default::default()
    };
    let outcome = Optimizer::with_config(&catalog, config)
        .optimize(&q)
        .unwrap();
    assert_eq!(outcome.candidates.len(), 1);
    let rows = ev.eval_query(&outcome.best.query).unwrap();
    assert_eq!(rows, reference, "greedy plan: {}", outcome.best.query);
}
