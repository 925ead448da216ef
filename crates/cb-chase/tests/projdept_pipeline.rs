//! End-to-end C&B on the paper's running ProjDept example (§1 + §3):
//! chase Q to the universal plan U, then backchase to the minimal plans.

use std::collections::BTreeSet;

use cb_catalog::scenarios::projdept;
use cb_chase::{backchase, chase, ChaseConfig, ChaseContext};

fn roots_of(q: &pcql::Query) -> Vec<String> {
    q.from
        .iter()
        .map(|b| b.src.roots().into_iter().collect::<Vec<_>>().join("."))
        .collect()
}

#[test]
fn universal_plan_contains_all_access_paths() {
    let cat = projdept::catalog();
    let q = projdept::query();
    let out = chase(&q, &cat.all_constraints(), &ChaseConfig::default());
    assert!(out.complete, "chase must reach a fixpoint on ProjDept");
    let u = &out.query;
    // The paper's U has 9 bindings: d, s, p plus j (JI), d', s' (Dept
    // dictionary), k, t (SI), i (I).
    assert_eq!(u.from.len(), 9, "universal plan: {u}");
    let sources: Vec<String> = u.from.iter().map(|b| b.src.to_string()).collect();
    assert!(sources.contains(&"depts".to_string()));
    assert!(sources.contains(&"Proj".to_string()));
    assert!(sources.contains(&"JI".to_string()));
    assert!(sources.contains(&"dom(Dept)".to_string()));
    assert!(sources.contains(&"dom(SI)".to_string()));
    assert!(sources.contains(&"dom(I)".to_string()));
    // The INV1 EGD fired: d.DName = p.PDept is among the conditions.
    let conds: Vec<String> = u
        .where_
        .iter()
        .map(|e| format!("{} = {}", e.0, e.1))
        .collect();
    assert!(
        conds
            .iter()
            .any(|c| c == "d.DName = p.PDept" || c == "p.PDept = d.DName"),
        "INV1 condition missing: {conds:?}"
    );
}

#[test]
fn backchase_finds_the_paper_plans() {
    let cat = projdept::catalog();
    let q = projdept::query();
    let ctx = ChaseContext::new(cat.all_constraints(), ChaseConfig::default());
    let u = ctx.chase(&q).query;
    let out = backchase(&ctx, &u, 4096);
    assert!(out.complete, "backchase enumeration must finish");

    // Summarize plans by the multiset of their binding sources' roots.
    let shapes: BTreeSet<Vec<String>> = out
        .normal_forms
        .iter()
        .map(|p| {
            let mut v = roots_of(p);
            v.sort();
            v
        })
        .collect();

    // P2: single Proj scan (semantic optimization via RIC2+INV2).
    assert!(
        shapes.contains(&vec!["Proj".to_string()]),
        "P2 shape missing from {shapes:?}"
    );
    // P3 (PC form): dom(SI) k, SI[k] t.
    assert!(
        shapes.contains(&vec!["SI".to_string(), "SI".to_string()]),
        "P3 shape missing from {shapes:?}"
    );
    // P4: single JI scan with I/Dept lookups.
    assert!(
        shapes.contains(&vec!["JI".to_string()]),
        "P4 shape missing from {shapes:?}"
    );

    // All plans that mention only physical roots, among everything
    // visited, include P1's shape {dom(Dept), Dept[d].DProjs, Proj}.
    let physical_visited: BTreeSet<Vec<String>> = out
        .visited
        .iter()
        .filter(|p| cat.is_physical_query(p))
        .map(|p| {
            let mut v = roots_of(p);
            v.sort();
            v
        })
        .collect();
    assert!(
        physical_visited.contains(&vec![
            "Dept".to_string(),
            "Dept".to_string(),
            "Proj".to_string()
        ]),
        "P1 shape missing from visited physical plans: {physical_visited:?}"
    );
}

#[test]
fn mapping_only_regime() {
    // Without the semantic constraints (the completeness-theorem regime):
    //
    // * P2 is out of reach — its output rewrite DN -> p.PDept needs INV1;
    // * P3 is out of reach for the same reason (DN = t.PDept);
    // * P4 survives (JI scan with index/dictionary dereferences);
    // * the paper's P1 is an equivalent subquery but is *not* minimal: the
    //   backchase discovers that PI2 lets the Proj scan itself be replaced
    //   by primary-index lookups keyed on the member names — a plan the
    //   paper does not list. (The paper presents P1 as minimal because its
    //   §1 walkthrough does not backchase against the index constraints.)
    let cat = projdept::catalog().without_semantic_constraints();
    let q = projdept::query();
    let ctx = ChaseContext::new(cat.all_constraints(), ChaseConfig::default());
    let u = ctx.chase(&q).query;
    let out = backchase(&ctx, &u, 4096);
    assert!(out.complete);
    let nf_shapes: BTreeSet<Vec<String>> = out
        .normal_forms
        .iter()
        .map(|p| {
            let mut v = roots_of(p);
            v.sort();
            v
        })
        .collect();
    // P4.
    assert!(nf_shapes.contains(&vec!["JI".to_string()]), "{nf_shapes:?}");
    // The PI2-refined dictionary plan: dom(Dept), Dept[o].DProjs, dom(I).
    assert!(
        nf_shapes.contains(&vec![
            "Dept".to_string(),
            "Dept".to_string(),
            "I".to_string()
        ]),
        "{nf_shapes:?}"
    );
    // P2 and P3 shapes must be absent without the INV constraints.
    assert!(!nf_shapes.contains(&vec!["Proj".to_string()]));
    assert!(!nf_shapes.contains(&vec!["SI".to_string(), "SI".to_string()]));

    // The paper's P1 is still among the visited equivalent subqueries.
    let visited_shapes: BTreeSet<Vec<String>> = out
        .visited
        .iter()
        .map(|p| {
            let mut v = roots_of(p);
            v.sort();
            v
        })
        .collect();
    assert!(visited_shapes.contains(&vec![
        "Dept".to_string(),
        "Dept".to_string(),
        "Proj".to_string()
    ]));
}
