//! Direct checks of the paper's §5 theory, beyond the E9 cross-check.

use std::collections::BTreeSet;

use universal_plans::chase::{
    backchase, chase, examine_removal, ChaseConfig, ChaseContext, QueryGraph, RemovalJudgement,
};
use universal_plans::prelude::*;

fn views_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
    catalog.add_logical_relation("S", [("B", Type::Int), ("C", Type::Int)]);
    catalog.add_direct_mapping("R");
    catalog.add_direct_mapping("S");
    catalog
        .add_materialized_view(
            "V",
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap(),
        )
        .unwrap();
    catalog
}

/// Theorem 1 (Bounding Chase): every minimal plan is a subquery of
/// chase(Q) — its bindings are a subset of U's (up to the removal-set
/// correspondence) and it is derivable via examine_removal.
#[test]
fn minimal_plans_are_subqueries_of_the_universal_plan() {
    let catalog = views_catalog();
    let q = parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap();
    let ctx = ChaseContext::new(catalog.all_constraints(), ChaseConfig::default());
    let u = ctx.chase(&q).query;
    let u_vars: BTreeSet<String> = u.from.iter().map(|b| b.var.clone()).collect();
    let out = backchase(&ctx, &u);
    let mut graph = QueryGraph::of_query(&u);
    assert!(out.counters.complete);
    for nf in &out.normal_forms {
        let nf_vars: BTreeSet<String> = nf.from.iter().map(|b| b.var.clone()).collect();
        assert!(
            nf_vars.is_subset(&u_vars),
            "normal form uses variables outside U: {nf}"
        );
        let removed: BTreeSet<String> = u_vars.difference(&nf_vars).cloned().collect();
        // The removal set reproduces the plan (up to the canonical
        // condition formatting).
        match examine_removal(&ctx, &u, &mut graph, &removed) {
            RemovalJudgement::Valid(qq) => {
                assert_eq!(qq.alpha_normalized(), nf.alpha_normalized());
            }
            other => panic!("normal form not re-derivable: {other:?}"),
        }
    }
}

/// chase(Q) is "essentially unique": permuting the dependency order gives
/// alpha-equivalent universal plans for full dependency sets.
#[test]
fn chase_is_order_insensitive_for_full_dependencies() {
    let catalog = views_catalog();
    let q = parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap();
    let mut deps = catalog.all_constraints();
    let a = chase(&q, &deps, &ChaseConfig::default()).query;
    deps.reverse();
    let b = chase(&q, &deps, &ChaseConfig::default()).query;
    assert_eq!(a.from.len(), b.from.len());
    // Same binding-source multiset and congruent conditions.
    let srcs = |x: &Query| {
        let mut v: Vec<String> = x.from.iter().map(|b| b.src.to_string()).collect();
        v.sort();
        v
    };
    assert_eq!(srcs(&a), srcs(&b));
}

/// The universal plan is equivalent to the original query (chase
/// soundness at the containment level).
#[test]
fn universal_plan_is_equivalent_to_query() {
    let catalog = cb_catalog::scenarios::projdept::catalog();
    let q = cb_catalog::scenarios::projdept::query();
    let ctx = ChaseContext::new(catalog.all_constraints(), ChaseConfig::default());
    let u = ctx.chase(&q).query;
    assert!(ctx.contained_in(&q, &u));
    assert!(ctx.contained_in(&u, &q));
}

/// Monotone pruning (paper §5): if a subquery of U is not equivalent,
/// none of its subqueries are. Verified exhaustively on the views
/// scenario.
#[test]
fn pruning_is_monotone_on_views_scenario() {
    let catalog = views_catalog();
    let q = parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap();
    let ctx = ChaseContext::new(catalog.all_constraints(), ChaseConfig::default());
    let u = ctx.chase(&q).query;
    let vars: Vec<String> = u.from.iter().map(|b| b.var.clone()).collect();
    let n = vars.len();
    let mut graph = QueryGraph::of_query(&u);
    let mut verdicts: Vec<(BTreeSet<String>, bool)> = Vec::new();
    for mask in 0..(1u32 << n) {
        let removed: BTreeSet<String> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| vars[i].clone())
            .collect();
        let ok = matches!(
            examine_removal(&ctx, &u, &mut graph, &removed),
            RemovalJudgement::Valid(_)
        );
        verdicts.push((removed, ok));
    }
    for (r1, ok1) in &verdicts {
        if *ok1 {
            continue;
        }
        // Not equivalent: every superset removal must also be invalid…
        for (r2, ok2) in &verdicts {
            if r2.is_superset(r1) && r2 != r1 {
                assert!(
                    !ok2,
                    "pruning unsound: removing {r1:?} invalid but {r2:?} valid"
                );
            }
        }
    }
}

/// Chasing an already-chased query is a no-op (fixpoint stability).
#[test]
fn chase_is_idempotent() {
    let catalog = cb_catalog::scenarios::projdept::catalog();
    let q = cb_catalog::scenarios::projdept::query();
    let deps = catalog.all_constraints();
    let cfg = ChaseConfig::default();
    let once = chase(&q, &deps, &cfg);
    assert!(once.complete);
    let twice = chase(&once.query, &deps, &cfg);
    assert!(
        twice.steps.is_empty(),
        "second chase fired: {:?}",
        twice.steps
    );
    assert_eq!(once.query, twice.query);
}
