//! Differential testing of the `ChaseContext` caches: memoization is a
//! pure speedup, so a memoized backchase and a cache-disabled one must
//! produce exactly the same plan sets, and the memo must actually be
//! exercised on the paper's pipeline. The containment and implication
//! memos key on constant-abstracted forms, and the verified lattices on
//! constant-abstracted shapes, so queries that differ only in a constant
//! share verdicts and lattices; the constant-varied families below check
//! that sharing against a cache-disabled context per query, and a
//! dependency that mentions a constant is the canary that keeps it
//! honest.

use cb_catalog::Catalog;
use cb_chase::{backchase, first_unsafe, CacheStats, ChaseConfig, ChaseContext};
use pcql::Query;

fn norm(plans: &[Query]) -> Vec<Query> {
    let mut out: Vec<Query> = plans.iter().map(Query::alpha_normalized).collect();
    out.sort();
    out
}

/// Chases `q` and backchases the universal plan twice — once with the
/// caches on, once with them disabled — and asserts the outcomes are
/// identical (alpha-normalized, order-insensitive).
fn check_scenario(name: &str, catalog: &Catalog, q: &Query) {
    let deps = catalog.all_constraints();
    let cfg = ChaseConfig::default();

    let memoized = ChaseContext::new(deps.clone(), cfg.clone());
    let disabled = ChaseContext::without_memo(deps, cfg);

    let u1 = memoized.chase(q).query;
    let u2 = disabled.chase(q).query;
    assert_eq!(u1, u2, "{name}: universal plans differ");

    let a = backchase(&memoized, &u1);
    let b = backchase(&disabled, &u2);
    assert_eq!(
        a.counters.complete, b.counters.complete,
        "{name}: completeness differs"
    );
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
    );
}

#[test]
fn projdept_mapping_only_memoized_backchase_matches_cache_disabled() {
    let catalog = cb_catalog::scenarios::projdept::catalog().without_semantic_constraints();
    check_scenario(
        "projdept (mapping-only)",
        &catalog,
        &cb_catalog::scenarios::projdept::query(),
    );
}

#[test]
fn relational_indexes_memoized_backchase_matches_cache_disabled() {
    let catalog = cb_catalog::scenarios::relational_indexes::catalog();
    check_scenario(
        "relational_indexes",
        &catalog,
        &cb_catalog::scenarios::relational_indexes::query(),
    );
}

#[test]
fn relational_views_memoized_backchase_matches_cache_disabled() {
    let catalog = cb_catalog::scenarios::relational_views::catalog();
    check_scenario(
        "relational_views",
        &catalog,
        &cb_catalog::scenarios::relational_views::query(),
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
    let warm = ChaseContext::new(deps.clone(), cfg.clone());
    for (i, q) in queries.iter().enumerate() {
        let desc = format!("{scenario} seed {seed} query {i}: {q}");
        let oracle = ChaseContext::without_memo(deps.clone(), cfg.clone());
        let u = oracle.chase(q).query;
        assert_eq!(
            warm.chase(q).query.alpha_normalized(),
            u.alpha_normalized(),
            "{desc}: universal plans differ"
        );
        let before = warm.stats();
        let a = backchase(&warm, &u);
        let b = backchase(&oracle, &u);
        assert_eq!(
            a.counters.complete, b.counters.complete,
            "{desc}: completeness differs"
        );
        assert_eq!(norm(&a.normal_forms), norm(&b.normal_forms), "{desc}");
        assert_eq!(norm(&a.visited), norm(&b.visited), "{desc}");
        for p in &b.visited {
            assert_eq!(
                first_unsafe(&warm, p),
                first_unsafe(&oracle, p),
                "{desc}: lookup-safety verdicts differ on {p}"
            );
        }
        // The last query of each family repeats an earlier one's shape
        // with a fresh constant: every verdict it needs is already proved,
        // and the walk replays the lattice two earlier walks of the shape
        // recorded.
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
            assert_eq!(
                after.lattice_misses, before.lattice_misses,
                "{desc}: lattice not replayed: {after:?}"
            );
            assert!(after.lattice_hits > before.lattice_hits);
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

/// A cost-guided walk whose gate cut children, recorded and then replayed
/// under statistics that admit some of them: the replay verifies those children lazily —
/// the only proofs it asks — and its outcome is the one a cache-disabled
/// context computes from scratch under the new statistics.
#[test]
fn children_a_replay_admits_past_the_old_gate_are_verified_lazily() {
    use cb_catalog::scenarios::{projdept, relational_views};
    use cb_optimizer::{Optimizer, OptimizerConfig, SearchStrategy};
    let cfg = OptimizerConfig {
        strategy: SearchStrategy::CostGuided,
        cost_visited: true,
        ..OptimizerConfig::default()
    };
    let projdept_at = |n: u64, per: u64, customers: u64| {
        let mut c = projdept::catalog();
        projdept::stats_for(&mut c, n, per, customers);
        c
    };
    let views_at = |r: u64, s: u64, v: u64| {
        let mut c = relational_views::catalog();
        relational_views::stats_for(&mut c, r, s, v);
        c
    };
    let cases = [
        (
            "projdept",
            projdept_at(5000, 10, 1000),
            projdept_at(100, 10, 20),
            projdept::query(),
        ),
        (
            "views",
            views_at(10_000, 10_000, 10),
            views_at(100, 100, 50_000),
            relational_views::query(),
        ),
    ];
    for (name, gating, admitting, q) in cases {
        let mut ctx = ChaseContext::new(gating.all_constraints(), cfg.chase.clone());
        let cold = Optimizer::with_config(&gating, cfg.clone())
            .optimize_in(&mut ctx, &q)
            .unwrap();
        assert!(
            cold.search.pruned_at_gate > 0,
            "{name}: the first walk gates"
        );
        // The second walk under the gating statistics records the lattice.
        let recorded = Optimizer::with_config(&gating, cfg.clone())
            .optimize_in(&mut ctx, &q)
            .unwrap();
        assert_eq!(
            recorded.search.pruned_at_gate, cold.search.pruned_at_gate,
            "{name}"
        );
        let warm = ctx.stats();
        let replay = Optimizer::with_config(&admitting, cfg.clone())
            .optimize_in(&mut ctx, &q)
            .unwrap();
        let after = ctx.stats();
        assert_eq!(after.deps_resets, 0, "{name}");
        assert!(after.lattice_hits > warm.lattice_hits, "{name}: {after:?}");
        assert!(
            after.containment_hits + after.containment_misses
                > warm.containment_hits + warm.containment_misses,
            "{name}: a child gated before must be verified now: {after:?}"
        );

        let mut oracle = ChaseContext::without_memo(admitting.all_constraints(), cfg.chase.clone());
        let fresh = Optimizer::with_config(&admitting, cfg.clone())
            .optimize_in(&mut oracle, &q)
            .unwrap();
        assert_eq!(
            format!("{:?}", replay.best),
            format!("{:?}", fresh.best),
            "{name}"
        );
        assert_eq!(
            format!("{:?}", replay.top_k()),
            format!("{:?}", fresh.top_k()),
            "{name}"
        );
        assert_eq!(
            format!("{:?}", replay.candidates()),
            format!("{:?}", fresh.candidates()),
            "{name}"
        );
        assert_eq!(
            replay.search.visited_count, fresh.search.visited_count,
            "{name}"
        );
        assert_eq!(
            replay.search.pruned_at_gate, fresh.search.pruned_at_gate,
            "{name}"
        );
        assert_eq!(
            replay.search.pruned_at_visit, fresh.search.pruned_at_visit,
            "{name}"
        );
    }
}

/// Misses of the three memos a preparation must not add when it replays
/// a lattice, and the proof lookups it asked.
fn replay_counters(before: &CacheStats, after: &CacheStats) -> ([u64; 3], u64) {
    let lookups = |s: &CacheStats| {
        s.containment_hits + s.containment_misses + s.implication_hits + s.implication_misses
    };
    (
        [
            after.containment_misses - before.containment_misses,
            after.implication_misses - before.implication_misses,
            after.lattice_misses - before.lattice_misses,
        ],
        lookups(after) - lookups(before),
    )
}

/// Prepares `q` twice on one warm context — the second walk of its shape
/// records the lattice — and then its constant variant `v`, and checks
/// `v`'s outcome against a cache-disabled context: the same best plan
/// and cost and, where the walk is schedule-independent (`exact`), the
/// same node and prune counters. Returns what `v`'s preparation added.
fn prepare_variant(
    desc: &str,
    catalog: &Catalog,
    config: &cb_optimizer::OptimizerConfig,
    q: &Query,
    v: &Query,
    exact: bool,
) -> ([u64; 3], u64) {
    let optimizer = cb_optimizer::Optimizer::with_config(catalog, config.clone());
    let mut warm = ChaseContext::new(catalog.all_constraints(), config.chase.clone());
    for _ in 0..2 {
        optimizer.optimize_in(&mut warm, q).unwrap();
    }
    let before = warm.stats();
    let got = optimizer.optimize_in(&mut warm, v).unwrap();
    let added = replay_counters(&before, &warm.stats());
    let mut off = ChaseContext::without_memo(catalog.all_constraints(), config.chase.clone());
    let want = optimizer.optimize_in(&mut off, v).unwrap();
    assert_eq!(
        format!("{:?}", got.best),
        format!("{:?}", want.best),
        "{desc}"
    );
    if exact {
        assert_eq!(
            got.search.visited_count, want.search.visited_count,
            "{desc}"
        );
        assert_eq!(
            got.search.pruned_at_gate, want.search.pruned_at_gate,
            "{desc}"
        );
        assert_eq!(
            got.search.pruned_at_visit, want.search.pruned_at_visit,
            "{desc}"
        );
    }
    added
}

/// A query that differs from an earlier one only in its non-dependency
/// constants — in the same order — replays the lattice their shape
/// recorded, translated to its own constants: the plan of a fresh
/// context, without a single containment, implication or lattice miss.
#[test]
fn constant_variants_replay_the_lattice_and_match_a_fresh_context() {
    use cb_optimizer::{OptimizerConfig, SearchStrategy};
    let families: [(&str, &[(usize, usize)]); 3] = [
        ("projdept", &[(0, 3), (1, 3)]),
        ("relational_indexes", &[(1, 4), (2, 3)]),
        ("relational_views", &[(1, 3)]),
    ];
    for (scenario, pairs) in families {
        let (catalog, queries) = constant_family(scenario, 1);
        for &(i, j) in pairs {
            for strategy in [SearchStrategy::Exhaustive, SearchStrategy::CostGuided] {
                for threads in [1, 2] {
                    let desc = format!("{scenario} {i} -> {j}, {strategy:?} @ {threads} threads");
                    let config = OptimizerConfig {
                        strategy,
                        threads,
                        ..OptimizerConfig::default()
                    };
                    // A parallel cost-guided walk races its incumbent, so
                    // only its best plan is schedule-independent.
                    let exact = threads == 1 || strategy == SearchStrategy::Exhaustive;
                    let (misses, lookups) =
                        prepare_variant(&desc, &catalog, &config, &queries[i], &queries[j], exact);
                    if exact {
                        assert_eq!(misses, [0; 3], "{desc}");
                        assert_eq!(lookups, 0, "{desc}");
                    } else {
                        assert!(lookups == 0 || misses[2] > 0, "{desc}: {misses:?}");
                    }
                }
            }
        }
    }
}

/// The canary: a constant the dependencies mention stays literal in the
/// lattice key. Only customers with `A = 5` are guaranteed an `S`
/// partner, so `A = 5` and `A = 6` have different lattices and must not
/// share one; `A = 7` shares `A = 6`'s.
#[test]
fn a_dependency_constant_keeps_its_lattice_apart() {
    use cb_optimizer::{Optimizer, OptimizerConfig};
    let mut catalog = Catalog::new();
    catalog.add_logical_relation("R", [("A", pcql::Type::Int), ("B", pcql::Type::Int)]);
    catalog.add_logical_relation("S", [("B", pcql::Type::Int), ("C", pcql::Type::Int)]);
    catalog.add_direct_mapping("R");
    catalog.add_direct_mapping("S");
    catalog
        .add_semantic_constraint_text(
            "five",
            "forall (r in R) where r.A = 5 -> exists (s in S) where r.B = s.B",
        )
        .unwrap();
    let q = |a: i64| {
        pcql::parser::parse_query(&format!(
            "select struct(A = r.A) from R r, S s where r.B = s.B and r.A = {a}"
        ))
        .unwrap()
    };
    let config = OptimizerConfig::default();
    let optimizer = Optimizer::with_config(&catalog, config.clone());
    let oracle = |a| {
        let mut off = ChaseContext::without_memo(catalog.all_constraints(), config.chase.clone());
        optimizer.optimize_in(&mut off, &q(a)).unwrap()
    };
    assert!(oracle(5).best.query.from.len() < oracle(6).best.query.from.len());
    let mut warm = ChaseContext::new(catalog.all_constraints(), config.chase.clone());
    let mut prepare = |a| {
        let before = warm.stats();
        let got = optimizer.optimize_in(&mut warm, &q(a)).unwrap();
        let want = oracle(a);
        assert_eq!(
            format!("{:?}", got.best),
            format!("{:?}", want.best),
            "A = {a}"
        );
        assert_eq!(
            got.search.visited_count, want.search.visited_count,
            "A = {a}"
        );
        replay_counters(&before, &warm.stats()).0[2]
    };
    // `A = 5` is recorded and replayed; `A = 6` is a shape of its own.
    assert!(prepare(5) > 0);
    assert!(prepare(5) > 0);
    assert_eq!(prepare(5), 0);
    assert!(prepare(6) > 0, "A = 6 replayed A = 5's lattice");
    assert!(prepare(6) > 0);
    assert_eq!(prepare(7), 0, "A = 7 shares A = 6's shape");
    assert!(prepare(5) == 0);
}
