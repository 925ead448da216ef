//! Differential testing of the `ChaseContext` caches: memoization is a
//! pure speedup, so a memoized backchase and a cache-disabled one must
//! produce exactly the same plan sets, and the memo must actually be
//! exercised on the paper's pipeline. The containment and implication
//! memos key on constant-abstracted forms, so queries that differ only
//! in a constant share verdicts; the constant-varied families below
//! check that sharing against a cache-disabled context per query.

use cb_catalog::Catalog;
use cb_chase::{backchase_in, first_unsafe, ChaseConfig, ChaseContext};
use pcql::Query;

fn norm(plans: &[Query]) -> Vec<Query> {
    let mut out: Vec<Query> = plans.iter().map(Query::alpha_normalized).collect();
    out.sort();
    out
}

/// Chases `q` and backchases the universal plan twice — once with the
/// caches on, once with them disabled — and asserts the outcomes are
/// identical (alpha-normalized, order-insensitive).
fn check_scenario(name: &str, catalog: &Catalog, q: &Query, max_visited: usize) {
    let deps = catalog.all_constraints();
    let cfg = ChaseConfig::default();

    let mut memoized = ChaseContext::new(deps.clone(), cfg.clone());
    let mut disabled = ChaseContext::without_memo(deps, cfg);

    let u1 = memoized.chase(q).query;
    let u2 = disabled.chase(q).query;
    assert_eq!(u1, u2, "{name}: universal plans differ");

    let a = backchase_in(&mut memoized, &u1, max_visited);
    let b = backchase_in(&mut disabled, &u2, max_visited);
    assert_eq!(a.complete, b.complete, "{name}: completeness differs");
    assert_eq!(
        norm(&a.normal_forms),
        norm(&b.normal_forms),
        "{name}: normal forms differ between memoized and cache-disabled runs"
    );
    assert_eq!(
        norm(&a.visited),
        norm(&b.visited),
        "{name}: visited sets differ between memoized and cache-disabled runs"
    );
    // The memoized run must actually have reused work, and the disabled
    // context must never report a hit.
    assert!(memoized.stats().hits() > 0, "{name}: memo never hit");
    assert_eq!(disabled.stats().hits(), 0, "{name}: disabled cache hit");
}

#[test]
fn projdept_memoized_backchase_matches_cache_disabled() {
    let catalog = cb_catalog::scenarios::projdept::catalog();
    check_scenario(
        "projdept",
        &catalog,
        &cb_catalog::scenarios::projdept::query(),
        400,
    );
}

#[test]
fn projdept_mapping_only_memoized_backchase_matches_cache_disabled() {
    let catalog = cb_catalog::scenarios::projdept::catalog().without_semantic_constraints();
    check_scenario(
        "projdept (mapping-only)",
        &catalog,
        &cb_catalog::scenarios::projdept::query(),
        400,
    );
}

#[test]
fn relational_indexes_memoized_backchase_matches_cache_disabled() {
    let catalog = cb_catalog::scenarios::relational_indexes::catalog();
    check_scenario(
        "relational_indexes",
        &catalog,
        &cb_catalog::scenarios::relational_indexes::query(),
        400,
    );
}

#[test]
fn relational_views_memoized_backchase_matches_cache_disabled() {
    let catalog = cb_catalog::scenarios::relational_views::catalog();
    check_scenario(
        "relational_views",
        &catalog,
        &cb_catalog::scenarios::relational_views::query(),
        400,
    );
}

#[test]
fn projdept_pipeline_hits_the_memo() {
    // The full Algorithm-1 pipeline on ProjDept must exercise every
    // cache of its one-per-optimization context.
    let mut catalog = cb_catalog::scenarios::projdept::catalog();
    cb_catalog::scenarios::projdept::stats_for(&mut catalog, 100, 10, 20);
    let out = cb_optimizer::Optimizer::new(&catalog)
        .optimize(&cb_catalog::scenarios::projdept::query())
        .unwrap();
    let cache = out.cache;
    // The lattice nodes of one run are pairwise alpha-distinct, so the
    // chase/containment memos mostly pay off across *repeated* questions
    // — the implication memo (lookup-safety and pruning proofs repeat
    // heavily) and the parent-hom seeding are the in-run workhorses.
    assert!(
        cache.implication_hits > 0,
        "implication memo unused: {cache:?}"
    );
    assert!(cache.hits() > 0, "no memo hit at all: {cache:?}");
    assert!(cache.hit_rate() > 0.0);
    assert!(
        cache.seeded_hom_hits > 0,
        "lattice hom seeding unused: {cache:?}"
    );
}

/// A builtin scenario with statistics collected from a seeded generated
/// instance, plus a family of its queries that differ only in constants
/// (equal constants included, so the equality pattern varies too).
fn constant_family(scenario: &str, seed: u64) -> (Catalog, Vec<Query>) {
    use cb_catalog::scenarios::{projdept, relational_indexes, relational_views};
    let (mut catalog, mut instance, texts): (Catalog, _, Vec<String>) = match scenario {
        "projdept" => (
            projdept::catalog(),
            cb_engine::projdept_instance(&cb_engine::ProjDeptParams {
                n_depts: 8,
                projs_per_dept: 3,
                n_customers: 5,
                seed,
            }),
            ["CitiBank", "cust3", "cust3", "cust7"]
                .iter()
                .map(|c| {
                    format!(
                        "select struct(PN = s, PB = p.Budg, DN = d.DName) \
                         from depts d, d.DProjs s, Proj p \
                         where s = p.PName and p.CustName = \"{c}\""
                    )
                })
                .collect(),
        ),
        "relational_indexes" => (
            relational_indexes::catalog(),
            cb_engine::rabc_instance(&cb_engine::RabcParams {
                n_rows: 200,
                distinct_a: 10,
                distinct_b: 8,
                seed,
            }),
            [(5, 7), (1, 2), (3, 3), (4, 4), (2, 9)]
                .iter()
                .map(|(a, b)| {
                    format!("select struct(C = r.C) from R r where r.A = {a} and r.B = {b}")
                })
                .collect(),
        ),
        "relational_views" => (
            relational_views::catalog(),
            cb_engine::join_instance(&cb_engine::JoinParams {
                n_r: 80,
                n_s: 80,
                match_fraction: 0.2,
                seed,
            }),
            [None, Some(0), Some(6), Some(11)]
                .iter()
                .map(|a| {
                    let mut text = "select struct(A = r.A, B = s.B, C = s.C) \
                                    from R r, S s where r.B = s.B"
                        .to_string();
                    if let Some(a) = a {
                        text.push_str(&format!(" and r.A = {a}"));
                    }
                    text
                })
                .collect(),
        ),
        other => panic!("unknown scenario {other}"),
    };
    cb_engine::Materializer::new(&catalog)
        .materialize(&mut instance)
        .unwrap();
    *catalog.stats_mut() = cb_engine::collect_stats(&instance);
    let queries = texts
        .iter()
        .map(|t| pcql::parser::parse_query(t).unwrap())
        .collect();
    (catalog, queries)
}

/// One long-lived memoized context answers a whole constant-varied
/// family; a fresh cache-disabled context answers each query alone. Every
/// containment verdict of the backchase lattice (visible as its visited
/// set and normal forms) and every lookup-safety implication verdict must
/// agree, and the long-lived context must answer the last query of the
/// family from verdicts proved for earlier ones.
fn check_constant_family_verdicts(scenario: &str, seed: u64) {
    let (catalog, queries) = constant_family(scenario, seed);
    let deps = catalog.all_constraints();
    let cfg = ChaseConfig::default();
    let mut warm = ChaseContext::new(deps.clone(), cfg.clone());
    for (i, q) in queries.iter().enumerate() {
        let desc = format!("{scenario} seed {seed} query {i}: {q}");
        let mut oracle = ChaseContext::without_memo(deps.clone(), cfg.clone());
        let u = oracle.chase(q).query;
        assert_eq!(
            warm.chase(q).query.alpha_normalized(),
            u.alpha_normalized(),
            "{desc}: universal plans differ"
        );
        let before = warm.stats();
        let a = backchase_in(&mut warm, &u, 400);
        let b = backchase_in(&mut oracle, &u, 400);
        assert_eq!(a.complete, b.complete, "{desc}: completeness differs");
        assert_eq!(norm(&a.normal_forms), norm(&b.normal_forms), "{desc}");
        assert_eq!(norm(&a.visited), norm(&b.visited), "{desc}");
        for p in &b.visited {
            assert_eq!(
                first_unsafe(&mut warm, p),
                first_unsafe(&mut oracle, p),
                "{desc}: lookup-safety verdicts differ on {p}"
            );
        }
        // The last query of each family repeats an earlier one's shape
        // with a fresh constant: every verdict it needs is already proved.
        if i + 1 == queries.len() {
            let after = warm.stats();
            assert_eq!(
                after.containment_misses, before.containment_misses,
                "{desc}: containment verdicts re-proved: {after:?}"
            );
            assert_eq!(
                after.implication_misses, before.implication_misses,
                "{desc}: implication verdicts re-proved: {after:?}"
            );
            assert!(after.containment_hits > before.containment_hits);
        }
    }
}

#[test]
fn constant_varied_families_keep_verdicts_of_a_fresh_context() {
    for scenario in ["projdept", "relational_indexes", "relational_views"] {
        for seed in [1, 2] {
            check_constant_family_verdicts(scenario, seed);
        }
    }
}

#[test]
fn constant_varied_families_keep_best_plans_at_every_thread_count() {
    use cb_optimizer::{Optimizer, OptimizerConfig};
    for scenario in ["projdept", "relational_indexes", "relational_views"] {
        for seed in [1, 2] {
            let (catalog, queries) = constant_family(scenario, seed);
            let deps = catalog.all_constraints();
            let cfg = |threads| OptimizerConfig {
                threads,
                ..OptimizerConfig::default()
            };
            let oracle = Optimizer::with_config(&catalog, cfg(1));
            let mut warm: Vec<(usize, ChaseContext)> = [1, 2, 4]
                .into_iter()
                .map(|t| (t, ChaseContext::new(deps.clone(), ChaseConfig::default())))
                .collect();
            for (i, q) in queries.iter().enumerate() {
                let mut fresh = ChaseContext::without_memo(deps.clone(), ChaseConfig::default());
                let want = oracle.optimize_in(&mut fresh, q).unwrap().best;
                for (threads, ctx) in warm.iter_mut() {
                    let got = Optimizer::with_config(&catalog, cfg(*threads))
                        .optimize_in(ctx, q)
                        .unwrap()
                        .best;
                    let desc = format!("{scenario} seed {seed} query {i} @ {threads} threads");
                    assert_eq!(got.query, want.query, "{desc}: best plan differs");
                    assert_eq!(got.cost, want.cost, "{desc}: best cost differs");
                }
            }
        }
    }
}
