//! Differential testing: every plan the optimizer enumerates must compute
//! exactly the same result as the logical query on real instances whose
//! access structures were materialized from base data.
//!
//! This is the strongest soundness check we have — it exercises the whole
//! pipeline (constraint generation, chase, backchase, cleanup, reorder,
//! evaluation) against ground truth.

use universal_plans::chase::{ChaseContext, SearchBudget};
use universal_plans::prelude::*;

/// A context shared across the seeds/scales of one scenario: the chase
/// and backchase are cost-independent, so re-optimizing the same query
/// under refreshed statistics answers phase 1–2 from the memos.
fn context_for(catalog: &Catalog) -> ChaseContext {
    ChaseContext::new(catalog.all_constraints(), Default::default())
}

fn check_all_plans(catalog: &Catalog, q: &Query, instance: &Instance, ctx: &mut ChaseContext) {
    let ev = Evaluator::for_catalog(catalog, instance);
    let reference = ev.eval_query(q).unwrap();
    // A bounded enumeration keeps the suite fast; an incomplete backchase
    // is still sound, which is exactly what this test checks.
    let config = cb_optimizer::OptimizerConfig {
        search_budget: SearchBudget {
            nodes: Some(400),
            ..Default::default()
        },
        cost_visited: true,
        ..Default::default()
    };
    let outcome = Optimizer::with_config(catalog, config)
        .optimize_in(ctx, q)
        .unwrap();
    assert!(!outcome.candidates().is_empty());
    for (i, c) in outcome.candidates().iter().enumerate() {
        let rows = ev
            .eval_query(&c.query)
            .unwrap_or_else(|e| panic!("plan #{i} failed to evaluate: {e}\nplan: {}", c.query));
        assert_eq!(
            rows, reference,
            "plan #{i} differs from Q\nplan: {}\nraw:  {}",
            c.query, c.raw
        );
    }
}

#[test]
fn projdept_plans_agree_across_seeds() {
    let mut ctx = context_for(&cb_catalog::scenarios::projdept::catalog());
    for seed in [1, 1234] {
        let mut catalog = cb_catalog::scenarios::projdept::catalog();
        let q = cb_catalog::scenarios::projdept::query();
        let mut instance = cb_engine::projdept_instance(&cb_engine::ProjDeptParams {
            n_depts: 12,
            projs_per_dept: 4,
            n_customers: 5,
            seed,
        });
        Materializer::new(&catalog)
            .materialize(&mut instance)
            .unwrap();
        *catalog.stats_mut() = cb_engine::collect_stats(&instance);
        check_all_plans(&catalog, &q, &instance, &mut ctx);
    }
}

#[test]
fn projdept_plans_agree_when_citibank_absent() {
    // Edge case: no project has the CitiBank customer — all plans
    // (including the non-failing lookup plan P3) must return the empty
    // set rather than fail.
    let mut catalog = cb_catalog::scenarios::projdept::catalog();
    let q = cb_catalog::scenarios::projdept::query();
    let mut instance = cb_engine::projdept_instance(&cb_engine::ProjDeptParams {
        n_depts: 6,
        projs_per_dept: 3,
        n_customers: 0, // generator: n_customers == 0 -> all CitiBank
        seed: 3,
    });
    // Rewrite every CustName so that CitiBank is genuinely absent.
    let projs = instance.get("Proj").unwrap().as_set().unwrap().clone();
    let rewritten: std::collections::BTreeSet<Value> = projs
        .into_iter()
        .map(|row| {
            let mut fields = match row {
                Value::Struct(f) => f,
                _ => unreachable!(),
            };
            fields.insert("CustName".into(), Value::str("Nobody"));
            Value::Struct(fields)
        })
        .collect();
    instance.set("Proj", Value::Set(rewritten));
    // Departments still reference the same project names, so the
    // constraints hold.
    Materializer::new(&catalog)
        .materialize(&mut instance)
        .unwrap();
    *catalog.stats_mut() = cb_engine::collect_stats(&instance);

    let ev = Evaluator::for_catalog(&catalog, &instance);
    assert!(ev.eval_query(&q).unwrap().is_empty());
    check_all_plans(&catalog, &q, &instance, &mut context_for(&catalog));
}

#[test]
fn relational_indexes_plans_agree() {
    let mut ctx = context_for(&cb_catalog::scenarios::relational_indexes::catalog());
    for (n, da, db, seed) in [(200, 20, 10, 1), (500, 8, 40, 9)] {
        let mut catalog = cb_catalog::scenarios::relational_indexes::catalog();
        let q = cb_catalog::scenarios::relational_indexes::query();
        let mut instance = cb_engine::rabc_instance(&cb_engine::RabcParams {
            n_rows: n,
            distinct_a: da,
            distinct_b: db,
            seed,
        });
        Materializer::new(&catalog)
            .materialize(&mut instance)
            .unwrap();
        *catalog.stats_mut() = cb_engine::collect_stats(&instance);
        check_all_plans(&catalog, &q, &instance, &mut ctx);
    }
}

#[test]
fn relational_views_plans_agree() {
    let mut ctx = context_for(&cb_catalog::scenarios::relational_views::catalog());
    for (frac, seed) in [(0.05, 2), (0.5, 5), (1.0, 8)] {
        let mut catalog = cb_catalog::scenarios::relational_views::catalog();
        let q = cb_catalog::scenarios::relational_views::query();
        let mut instance = cb_engine::join_instance(&cb_engine::JoinParams {
            n_r: 120,
            n_s: 120,
            match_fraction: frac,
            seed,
        });
        Materializer::new(&catalog)
            .materialize(&mut instance)
            .unwrap();
        *catalog.stats_mut() = cb_engine::collect_stats(&instance);
        check_all_plans(&catalog, &q, &instance, &mut ctx);
    }
}

#[test]
fn gmap_backed_plans_agree() {
    // A generalized gmap as the only access structure besides R itself.
    let mut catalog = Catalog::new();
    catalog.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
    catalog.add_direct_mapping("R");
    catalog
        .add_gmap(
            "G",
            cb_catalog::GmapDef {
                from: vec![Binding::iter("r", Path::root("R"))],
                where_: vec![],
                key: vec![("A".into(), Path::var("r").field("A"))],
                value: vec![("B".into(), Path::var("r").field("B"))],
            },
        )
        .unwrap();
    let q = parse_query("select struct(B = r.B) from R r where r.A = 3").unwrap();

    let mut instance = Instance::new();
    let rows: Vec<Value> = (0..60)
        .map(|i| Value::record([("A", Value::Int(i % 6)), ("B", Value::Int(i))]))
        .collect();
    instance.set("R", Value::set(rows));
    Materializer::new(&catalog)
        .materialize(&mut instance)
        .unwrap();
    *catalog.stats_mut() = cb_engine::collect_stats(&instance);
    let mut ctx = context_for(&catalog);
    check_all_plans(&catalog, &q, &instance, &mut ctx);

    // The gmap plan is actually among the candidates.
    let outcome = Optimizer::new(&catalog).optimize_in(&mut ctx, &q).unwrap();
    assert!(
        outcome
            .candidates()
            .iter()
            .any(|c| c.query.to_string().contains('G')),
        "no gmap plan among candidates"
    );
}

#[test]
fn asr_backed_plans_agree() {
    // Access support relation over the ProjDept membership path.
    let mut catalog = cb_catalog::scenarios::projdept::catalog();
    catalog
        .add_access_support_relation("ASR", "depts", &["DProjs"])
        .unwrap();
    let q = parse_query("select struct(DN = d.DName, PN = s) from depts d, d.DProjs s").unwrap();
    let mut instance = cb_engine::projdept_instance(&cb_engine::ProjDeptParams {
        n_depts: 8,
        projs_per_dept: 3,
        n_customers: 4,
        seed: 21,
    });
    Materializer::new(&catalog)
        .materialize(&mut instance)
        .unwrap();
    *catalog.stats_mut() = cb_engine::collect_stats(&instance);
    let mut ctx = context_for(&catalog);
    check_all_plans(&catalog, &q, &instance, &mut ctx);
    let outcome = Optimizer::new(&catalog).optimize_in(&mut ctx, &q).unwrap();
    assert!(
        outcome
            .candidates()
            .iter()
            .any(|c| c.query.to_string().contains("ASR")),
        "no ASR plan among candidates"
    );
}
