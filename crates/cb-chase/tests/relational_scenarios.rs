//! C&B on the two relational scenarios of paper §4.

use std::collections::BTreeSet;

use cb_catalog::scenarios::{relational_indexes, relational_views};
use cb_chase::{backchase, ChaseConfig, ChaseContext};

fn shapes(plans: &[pcql::Query]) -> BTreeSet<Vec<String>> {
    plans
        .iter()
        .map(|p| {
            let mut v: Vec<String> = p
                .from
                .iter()
                .map(|b| b.src.roots().into_iter().collect::<Vec<_>>().join("."))
                .collect();
            v.sort();
            v
        })
        .collect()
}

#[test]
fn index_only_access_path_is_found() {
    // §4 scenario 1: R(A,B,C), SA on A, SB on B, query
    // select r.C from R r where r.A = 5 and r.B = 7.
    let cat = relational_indexes::catalog();
    let ctx = ChaseContext::new(cat.all_constraints(), ChaseConfig::default());
    let u = ctx.chase(&relational_indexes::query()).query;
    // U brings in both indexes.
    let srcs: Vec<String> = u.from.iter().map(|b| b.src.to_string()).collect();
    assert!(srcs.contains(&"dom(SA)".to_string()), "{srcs:?}");
    assert!(srcs.contains(&"dom(SB)".to_string()), "{srcs:?}");

    let out = backchase(&ctx, &u);
    assert!(out.counters.complete);
    let nf = shapes(&out.normal_forms);
    // Index-only plans: no scan of R at all. Our secondary indexes store
    // whole rows (not RIDs), so a *single* index suffices and is minimal;
    // the paper's interleaved SA ∩ SB plan is an equivalent subquery but
    // not a minimal one in this representation (see EXPERIMENTS.md).
    assert!(
        nf.contains(&vec!["SA".to_string(), "SA".to_string()]),
        "{nf:?}"
    );
    assert!(
        nf.contains(&vec!["SB".to_string(), "SB".to_string()]),
        "{nf:?}"
    );
    assert!(
        nf.contains(&vec!["R".to_string()]),
        "base plan missing: {nf:?}"
    );
    // The interleaved two-index plan is among the visited equivalents.
    let visited = shapes(&out.visited);
    assert!(
        visited.contains(&vec![
            "SA".to_string(),
            "SA".to_string(),
            "SB".to_string(),
            "SB".to_string()
        ]),
        "interleaved plan missing from visited: {visited:?}"
    );
}

#[test]
fn view_navigation_plan_is_found() {
    // §4 scenario 2: the universal plan integrates V, IR, IS; the minimal
    // plans include the navigation join over the view and both indexes
    // (the paper's final plan), the index-joins, and the base join.
    let cat = relational_views::catalog();
    let ctx = ChaseContext::new(cat.all_constraints(), ChaseConfig::default());
    let u = ctx.chase(&relational_views::query()).query;
    assert_eq!(u.from.len(), 7, "U = {u}");

    let out = backchase(&ctx, &u);
    assert!(out.counters.complete);
    let nf = shapes(&out.normal_forms);
    assert!(
        nf.contains(&vec![
            "IR".to_string(),
            "IS".to_string(),
            "IS".to_string(),
            "V".to_string()
        ]),
        "navigation plan missing: {nf:?}"
    );
    assert!(
        nf.contains(&vec!["R".to_string(), "S".to_string()]),
        "base join: {nf:?}"
    );

    // The paper's intermediate P (V joined with base R and S) is among
    // the visited equivalent subqueries but is *not* minimal — exactly
    // the point §4 makes against view-only rewriting frameworks.
    let visited = shapes(&out.visited);
    assert!(visited.contains(&vec!["R".to_string(), "S".to_string(), "V".to_string()]));
    assert!(!nf.contains(&vec!["R".to_string(), "S".to_string(), "V".to_string()]));
}
