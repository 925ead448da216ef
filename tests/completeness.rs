//! The completeness theorems of paper §5, checked experimentally in their
//! own regime: PC queries over relations, physical schema = materialized
//! PC views only, no logical constraints, no index dictionaries.
//!
//! * **Theorem 1 (Bounding Chase)** — the chase with the (full) view
//!   constraints terminates, is polynomial in size, and every minimal
//!   plan is one of its subqueries (implicitly exercised by the
//!   enumeration).
//! * **Theorem 2 (Complete Backchase)** — the backchase normal forms are
//!   exactly the minimal equivalent subqueries of the universal plan; we
//!   verify against a brute-force enumeration of *all* binding subsets.

use std::collections::BTreeSet;

use universal_plans::chase::{
    backchase, chase, examine_removal, ChaseConfig, ChaseContext, ExploreAll, PlanSearch,
    QueryGraph, RemovalJudgement,
};
use universal_plans::prelude::*;

/// Brute force: for every subset of U's bindings, build the subquery the
/// same way the backchase does (via the public examine API) and test
/// equivalence; keep the minimal equivalent ones. It never walks the
/// lattice, so it is the reference for the walk at any worker count.
fn brute_force_minimal(u: &Query, deps: &[Dependency]) -> Vec<Query> {
    let vars: Vec<String> = u.from.iter().map(|b| b.var.clone()).collect();
    let n = vars.len();
    let ctx = ChaseContext::new(deps.to_vec(), ChaseConfig::default());
    let mut graph = QueryGraph::of_query(u);
    let mut equivalents: Vec<(BTreeSet<String>, Query)> = Vec::new();
    for mask in 0..(1u32 << n) {
        let removed: BTreeSet<String> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| vars[i].clone())
            .collect();
        if let RemovalJudgement::Valid(q) = examine_removal(&ctx, u, &mut graph, &removed) {
            equivalents.push((removed, q));
        }
    }
    // Minimal = no other equivalent subquery removes strictly more.
    let minimal: Vec<Query> = equivalents
        .iter()
        .filter(|(r1, _)| {
            !equivalents
                .iter()
                .any(|(r2, _)| r2.len() > r1.len() && r2.is_superset(r1))
        })
        .map(|(_, q)| q.clone())
        .collect();
    minimal
}

fn shapes(plans: &[Query]) -> BTreeSet<Vec<String>> {
    plans
        .iter()
        .map(|p| {
            let mut v: Vec<String> = p.from.iter().map(|b| b.src.to_string()).collect();
            v.sort();
            v
        })
        .collect()
}

/// One randomized scenario: a 3-ary join query plus 1–2 views over parts
/// of it.
fn scenario(seed: u64) -> (Catalog, Query) {
    let mut catalog = Catalog::new();
    catalog.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
    catalog.add_logical_relation("S", [("B", Type::Int), ("C", Type::Int)]);
    catalog.add_logical_relation("T", [("C", Type::Int), ("D", Type::Int)]);
    catalog.add_direct_mapping("R");
    catalog.add_direct_mapping("S");
    catalog.add_direct_mapping("T");
    // A deterministic little family of view sets.
    match seed % 4 {
        0 => {
            catalog
                .add_materialized_view(
                    "V1",
                    parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
                        .unwrap(),
                )
                .unwrap();
        }
        1 => {
            catalog
                .add_materialized_view(
                    "V1",
                    parse_query("select struct(B = s.B, D = t.D) from S s, T t where s.C = t.C")
                        .unwrap(),
                )
                .unwrap();
        }
        2 => {
            catalog
                .add_materialized_view(
                    "V1",
                    parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B")
                        .unwrap(),
                )
                .unwrap();
            catalog
                .add_materialized_view(
                    "V2",
                    parse_query("select struct(C = t.C, D = t.D) from T t").unwrap(),
                )
                .unwrap();
        }
        _ => {
            catalog
                .add_materialized_view(
                    "V1",
                    parse_query(
                        "select struct(A = r.A, D = t.D) from R r, S s, T t \
                         where r.B = s.B and s.C = t.C",
                    )
                    .unwrap(),
                )
                .unwrap();
        }
    }
    let q = parse_query(
        "select struct(A = r.A, D = t.D) from R r, S s, T t \
         where r.B = s.B and s.C = t.C",
    )
    .unwrap();
    (catalog, q)
}

/// Theorem 2 at 1, 2 and 4 workers: the walk's normal forms are the
/// brute-force sweep's minimal equivalent subqueries of `u`.
fn assert_walk_matches_brute_force(desc: &str, u: &Query, deps: &[Dependency]) -> Vec<Query> {
    let brute = shapes(&brute_force_minimal(u, deps));
    let mut normal_forms = Vec::new();
    for threads in [1, 2, 4] {
        let ctx = ChaseContext::new(deps.to_vec(), ChaseConfig::default());
        let out = PlanSearch::new(u)
            .with_threads(threads)
            .run(&ctx, &ExploreAll);
        assert!(out.complete, "{desc} @ {threads} workers");
        assert_eq!(
            shapes(&out.normal_forms),
            brute,
            "{desc} @ {threads} workers: backchase vs brute force"
        );
        normal_forms = out.normal_forms;
    }
    normal_forms
}

#[test]
fn backchase_matches_brute_force_on_view_scenarios() {
    for seed in 0..4u64 {
        let (catalog, q) = scenario(seed);
        let deps = catalog.all_constraints();
        let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let chased = ctx.chase(&q);
        assert!(
            chased.complete,
            "scenario {seed}: chase must terminate (full deps)"
        );
        let u = chased.query;

        let out = backchase(&ctx, &u, 0);
        assert!(out.complete);
        let normal_forms = assert_walk_matches_brute_force(&format!("scenario {seed}"), &u, &deps);
        assert_eq!(shapes(&out.normal_forms), shapes(&normal_forms));
        // Every normal form is equivalent to the original query.
        for nf in &out.normal_forms {
            assert!(
                ctx.equivalent(nf, &q),
                "scenario {seed}: NF not equivalent: {nf}"
            );
        }
    }
}

/// The builtin scenarios, outside the theorem's views-only regime
/// (dictionaries, lookups, semantic constraints): the walk still finds
/// exactly the minimal equivalent subqueries. ProjDept's universal plan
/// has 9 bindings, a 512-set sweep.
#[test]
fn backchase_matches_brute_force_on_builtin_scenarios() {
    use cb_catalog::scenarios::{projdept, relational_indexes, relational_views};
    for (name, catalog, q) in [
        ("projdept", projdept::catalog(), projdept::query()),
        (
            "indexes",
            relational_indexes::catalog(),
            relational_indexes::query(),
        ),
        (
            "views",
            relational_views::catalog(),
            relational_views::query(),
        ),
    ] {
        let deps = catalog.all_constraints();
        let chased = chase(&q, &deps, &ChaseConfig::default());
        assert!(chased.complete, "{name}: chase must terminate");
        assert_walk_matches_brute_force(name, &chased.query, &deps);
    }
}

#[test]
fn chase_size_is_polynomial_for_view_constraints() {
    // Theorem 1: with k single-join views over a 2-ary join query, the
    // chase adds at most one binding per applicable view — linear growth.
    for k in 1..=6usize {
        let mut catalog = Catalog::new();
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
        let q =
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap();
        let out = chase(&q, &catalog.all_constraints(), &ChaseConfig::default());
        assert!(out.complete);
        assert_eq!(out.query.from.len(), 2 + k, "one binding per view");
    }
}

#[test]
fn containment_is_a_preorder_on_samples() {
    let qs: Vec<Query> = [
        "select struct(A = r.A) from R r",
        "select struct(A = r.A) from R r, S s where r.B = s.B",
        "select struct(A = r.A) from R r, S s, T t where r.B = s.B and s.C = t.C",
        "select struct(A = r.A) from R r where r.A = 1",
    ]
    .iter()
    .map(|s| parse_query(s).unwrap())
    .collect();
    // The prover itself is under test: no memo stands in for a proof.
    let ctx = ChaseContext::without_memo(vec![], ChaseConfig::default());
    for q in &qs {
        assert!(ctx.contained_in(q, q), "reflexivity: {q}");
    }
    for a in &qs {
        for b in &qs {
            for c in &qs {
                if ctx.contained_in(a, b) && ctx.contained_in(b, c) {
                    assert!(ctx.contained_in(a, c), "transitivity: {a} / {b} / {c}");
                }
            }
        }
    }
}
