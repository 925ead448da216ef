//! Verbatim reproduction checks of the paper's printed artifacts.

use universal_plans::chase::{chase, chase_step, ChaseConfig};
use universal_plans::prelude::*;

/// §3's chase-step example, character for character (modulo the fresh
/// variable name `j0` vs. the paper's `j`).
#[test]
fn chase_step_output_matches_paper_text() {
    let q = cb_catalog::scenarios::projdept::query();
    let c_ji = parse_dependency(
        "c_JI",
        "forall (d in depts) (s in d.DProjs) (p in Proj) where s = p.PName \
         -> exists (j in JI) where j.DOID = d and j.PN = p.PName",
    )
    .unwrap();
    let stepped = chase_step(&q, &c_ji, &ChaseConfig::default()).unwrap();
    assert_eq!(
        stepped.to_string(),
        "select struct(DN = d.DName, PB = p.Budg, PN = s) \
         from depts d, d.DProjs s, Proj p, JI j0 \
         where s = p.PName and p.CustName = \"CitiBank\" \
         and j0.DOID = d and j0.PN = p.PName"
    );
}

/// §1's chosen plan P3, printed verbatim by the optimizer under
/// realistic statistics.
#[test]
fn optimizer_prints_p3_verbatim() {
    let mut catalog = cb_catalog::scenarios::projdept::catalog();
    cb_catalog::scenarios::projdept::stats_for(&mut catalog, 100, 10, 20);
    let outcome = Optimizer::new(&catalog)
        .optimize(&cb_catalog::scenarios::projdept::query())
        .unwrap();
    assert_eq!(
        outcome.best.query.to_string(),
        "select struct(DN = t1.PDept, PB = t1.Budg, PN = t1.PName) \
         from SI{\"CitiBank\"} t1"
    );
}

/// The universal plan's conditions contain every condition the paper
/// prints for U.
#[test]
fn universal_plan_conditions_cover_paper_u() {
    let catalog = cb_catalog::scenarios::projdept::catalog();
    let u = chase(
        &cb_catalog::scenarios::projdept::query(),
        &catalog.all_constraints(),
        &ChaseConfig::default(),
    )
    .query;
    let conds: Vec<String> = u
        .where_
        .iter()
        .map(|e| format!("{} = {}", e.0, e.1))
        .collect();
    let has = |needle: &str| conds.iter().any(|c| c == needle);
    // Original query conditions.
    assert!(has("s = p.PName"));
    assert!(has("p.CustName = \"CitiBank\""));
    // INV1's EGD consequence ("d.DName = p.PDept" in the paper).
    assert!(has("p.PDept = d.DName") || has("d.DName = p.PDept"));
    // Dictionary coupling ("d = d'" / "s = s'").
    assert!(has("d = o0"));
    assert!(has("s = s1"));
    // Primary index ("i = p.PName and p = I[i]").
    assert!(has("i0 = p.PName"));
    assert!(has("I[i0] = p") || has("p = I[i0]"));
    // Secondary index ("p.CustName = k and p = t").
    assert!(has("k0 = p.CustName"));
    assert!(has("p = t1"));
    // Join index ("j.DOID = d and j.PN = p.PName").
    assert!(has("v0.DOID = d"));
    assert!(has("v0.PN = p.PName"));
}

/// §4's navigation-join plan for the views scenario, verbatim shape.
#[test]
fn navigation_join_plan_matches_paper_form() {
    let mut catalog = cb_catalog::scenarios::relational_views::catalog();
    cb_catalog::scenarios::relational_views::stats_for(&mut catalog, 10_000, 10_000, 10);
    let outcome = Optimizer::new(&catalog)
        .optimize(&cb_catalog::scenarios::relational_views::query())
        .unwrap();
    // The paper's final plan: select ... from V v, I_R[v.A] r', I_S⟨r'.B⟩ s'.
    // Ours: the I_R access is non-failing too (equivalent here, and
    // uniform), with machine-chosen variable names.
    let s = outcome.best.query.to_string();
    assert!(s.contains("from V v0"), "{s}");
    assert!(s.contains("IR{v0.A}") || s.contains("IR[v0.A]"), "{s}");
    assert!(s.contains("IS{"), "{s}");
}

/// Paper §2: "primary and secondary indexes are completely characterized
/// by constraints" — dropping one direction of the characterization loses
/// plans.
#[test]
fn both_index_directions_are_needed() {
    let full = cb_catalog::scenarios::projdept::catalog();
    let deps_full = full.all_constraints();
    // Remove SI2/SI3 (the dictionary-to-relation direction).
    let deps_oneway: Vec<Dependency> = deps_full
        .iter()
        .filter(|d| d.name != "SI2(SI)" && d.name != "SI3(SI)")
        .cloned()
        .collect();
    let q = cb_catalog::scenarios::projdept::query();
    let ctx_full = ChaseContext::new(deps_full, ChaseConfig::default());
    let ctx_oneway = ChaseContext::new(deps_oneway, ChaseConfig::default());
    let u_full = ctx_full.chase(&q).query;
    let u_oneway = ctx_oneway.chase(&q).query;
    // The chase still *introduces* SI either way (SI1 is present)…
    assert!(u_full.from.iter().any(|b| b.src.to_string() == "dom(SI)"));
    assert!(u_oneway.from.iter().any(|b| b.src.to_string() == "dom(SI)"));
    // …but without the inverse direction the SI-only plan can no longer
    // be *justified*: removing the Proj binding requires SI2.
    let out_full = backchase(&ctx_full, &u_full);
    let out_oneway = backchase(&ctx_oneway, &u_oneway);
    let si_only = |nfs: &[Query]| {
        nfs.iter()
            .any(|p| p.from.len() == 2 && p.from.iter().all(|b| b.src.mentions_root("SI")))
    };
    assert!(si_only(&out_full.normal_forms));
    assert!(!si_only(&out_oneway.normal_forms));
}
