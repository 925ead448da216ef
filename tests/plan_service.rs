//! Integration coverage for the versioned plan format and the
//! prepared-plan service.
//!
//! Two properties carry the PR's acceptance bar:
//!
//! * **Round-trip fidelity** — `parse ∘ render` is the identity on
//!   [`PlanRepr`] (and `render ∘ parse` on the text), and a plan loaded
//!   back through [`PlanRepr::load_verified`] executes row-identically
//!   to the in-memory plan it was serialized from. Checked on all three
//!   builtin scenarios and, via proptest, on random generated catalogs
//!   (random access structures, statistics, and queries — the same
//!   generator family as `generated_scenarios.rs`).
//! * **Cache keying** — a [`PlanService`] hit requires exactly the key
//!   the plan depends on: identical re-preparation hits with zero
//!   phase-2 search, a genuine catalog hot-swap invalidates (a plan is
//!   never served across a `deps_resets` boundary), and a
//!   reordered-but-identical catalog neither resets the chase core nor
//!   misses the cache.

use proptest::prelude::*;

use cb_engine::CompileOptions;
use cb_optimizer::{Optimizer, OptimizerConfig, PlanRepr, PlanService};
use universal_plans::catalog::RootStats;
use universal_plans::prelude::*;

/// The three builtin scenarios with materialized access structures and
/// instance-derived statistics, at paper-shaped (but test-sized) scales.
fn builtin_scenarios() -> Vec<(&'static str, Catalog, Instance, Query)> {
    let mut out = Vec::new();
    {
        let mut catalog = cb_catalog::scenarios::projdept::catalog();
        let mut instance = cb_engine::projdept_instance(&cb_engine::ProjDeptParams {
            n_depts: 10,
            projs_per_dept: 4,
            n_customers: 6,
            seed: 42,
        });
        Materializer::new(&catalog)
            .materialize(&mut instance)
            .unwrap();
        *catalog.stats_mut() = cb_engine::collect_stats(&instance);
        let q = cb_catalog::scenarios::projdept::query();
        out.push(("projdept", catalog, instance, q));
    }
    {
        let mut catalog = cb_catalog::scenarios::relational_indexes::catalog();
        let mut instance = cb_engine::rabc_instance(&cb_engine::RabcParams {
            n_rows: 300,
            distinct_a: 20,
            distinct_b: 15,
            seed: 7,
        });
        Materializer::new(&catalog)
            .materialize(&mut instance)
            .unwrap();
        *catalog.stats_mut() = cb_engine::collect_stats(&instance);
        let q = cb_catalog::scenarios::relational_indexes::query();
        out.push(("relational_indexes", catalog, instance, q));
    }
    {
        let mut catalog = cb_catalog::scenarios::relational_views::catalog();
        let mut instance = cb_engine::join_instance(&cb_engine::JoinParams {
            n_r: 120,
            n_s: 120,
            match_fraction: 0.1,
            seed: 11,
        });
        Materializer::new(&catalog)
            .materialize(&mut instance)
            .unwrap();
        *catalog.stats_mut() = cb_engine::collect_stats(&instance);
        let q = cb_catalog::scenarios::relational_views::query();
        out.push(("relational_views", catalog, instance, q));
    }
    out
}

/// Materialization runs through the compiled executor with hash joins.
/// The reference interpreter must compute the same rows for every
/// structure's defining query, and the materialized instance must
/// satisfy the catalog's constraints `D ∪ D'`.
fn assert_materialized_as_interpreted(desc: &str, catalog: &Catalog, instance: &Instance) {
    let ev = Evaluator::for_catalog(catalog, instance);
    let options = CompileOptions {
        hash_joins: true,
        ..CompileOptions::default()
    };
    for s in catalog.structures() {
        let Some(q) = Materializer::defining_query(s) else {
            continue;
        };
        let compiled = cb_engine::execute(&ev, &cb_engine::compile(&q, options)).unwrap();
        assert_eq!(compiled, ev.eval_query(&q).unwrap(), "{desc}: `{q}`");
    }
    let bad = cb_engine::violations(&ev, &catalog.all_constraints()).unwrap();
    assert!(bad.is_empty(), "{desc}: violations {bad:?}");
}

#[test]
fn materialization_builds_what_the_interpreter_builds_on_builtin_scenarios() {
    for (desc, catalog, instance, _) in builtin_scenarios() {
        assert_materialized_as_interpreted(desc, &catalog, &instance);
    }
}

/// Serialize, reparse, and reload one outcome; assert the fixed point
/// and row-identical execution against both the in-memory plan and the
/// logical query.
fn assert_round_trip(desc: &str, catalog: &Catalog, instance: &Instance, q: &Query) {
    let outcome = Optimizer::with_config(catalog, OptimizerConfig::default())
        .optimize(q)
        .unwrap();
    let repr = PlanRepr::from_outcome(&outcome);
    let text = repr.render();
    let parsed = PlanRepr::parse(&text).unwrap_or_else(|e| panic!("{desc}: reparse failed: {e}"));
    assert_eq!(parsed, repr, "{desc}: parse ∘ render must be the identity");
    assert_eq!(
        parsed.render(),
        text,
        "{desc}: render ∘ parse must be the identity"
    );
    let (loaded, _pipeline) = parsed
        .load_verified(catalog)
        .unwrap_or_else(|e| panic!("{desc}: load_verified rejected the plan it came from: {e}"));
    let ev = Evaluator::for_catalog(catalog, instance);
    let loaded_rows = ev.eval_query(&loaded).unwrap();
    let memory_rows = ev.eval_query(&outcome.best.query).unwrap();
    assert_eq!(
        loaded_rows, memory_rows,
        "{desc}: loaded plan differs from the in-memory plan\nloaded: {loaded}\nmemory: {}",
        outcome.best.query
    );
    let reference = ev.eval_query(q).unwrap();
    assert_eq!(
        loaded_rows, reference,
        "{desc}: loaded plan differs from the logical query\nloaded: {loaded}"
    );
}

#[test]
fn round_trip_executes_identically_on_builtin_scenarios() {
    for (name, catalog, instance, q) in builtin_scenarios() {
        assert_round_trip(name, &catalog, &instance, &q);
    }
}

/// One generated catalog + query, with a replayable description (the
/// vendored proptest stub does not shrink; the description is the
/// reproduction recipe).
#[derive(Debug, Clone)]
struct Scenario {
    catalog: Catalog,
    query: Query,
    desc: String,
}

/// A small R(A,B) ⋈ S(B,C) catalog with randomly chosen access
/// structures, statistics and query — the `generated_scenarios.rs`
/// family, sized for execution: `join_instance` supplies base data the
/// key constraint (R.A unique) genuinely satisfies.
#[allow(clippy::too_many_arguments)]
fn build_scenario(
    sa: bool,
    sb: bool,
    pk: bool,
    view_join: bool,
    view_s: bool,
    cards: Vec<u64>,
    distincts: Vec<u64>,
    fanout: f64,
    cond_mask: u8,
    out_mask: u8,
    self_join: bool,
) -> Scenario {
    let mut c = Catalog::new();
    c.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
    c.add_logical_relation("S", [("B", Type::Int), ("C", Type::Int)]);
    c.add_direct_mapping("R");
    c.add_direct_mapping("S");
    if sa {
        c.add_secondary_index("SA", "R", "A").unwrap();
    }
    if sb {
        c.add_secondary_index("SB", "S", "B").unwrap();
    }
    if pk {
        c.add_primary_index("IA", "R", "A").unwrap();
    }
    if view_join {
        c.add_materialized_view(
            "V",
            parse_query("select struct(A = r.A) from R r, S s where r.B = s.B").unwrap(),
        )
        .unwrap();
    }
    if view_s {
        c.add_materialized_view(
            "W",
            parse_query("select struct(B = s.B, C = s.C) from S s").unwrap(),
        )
        .unwrap();
    }

    let stats = c.stats_mut();
    for (i, root) in ["R", "S", "SA", "SB", "IA", "V", "W"].iter().enumerate() {
        let mut rs = RootStats::with_cardinality(cards[i % cards.len()]);
        match *root {
            "R" => {
                rs.distinct.insert("A".into(), distincts[0]);
                rs.distinct.insert("B".into(), distincts[1]);
            }
            "S" => {
                rs.distinct.insert("B".into(), distincts[2]);
                rs.distinct.insert("C".into(), distincts[3]);
            }
            "SA" | "SB" => {
                rs.avg_fanout.insert("".into(), fanout);
            }
            _ => {}
        }
        stats.set(*root, rs);
    }

    let mut from = vec!["R r", "S s"];
    let mut conds = vec!["r.B = s.B"];
    if cond_mask & 1 != 0 {
        conds.push("r.A = 1");
    }
    if cond_mask & 2 != 0 {
        conds.push("s.C = 2");
    }
    if cond_mask & 4 != 0 {
        conds.push("s.B = 3");
    }
    if self_join {
        from.push("R r2");
        conds.push("r2.A = r.A");
    }
    let mut outs = Vec::new();
    if out_mask & 1 != 0 {
        outs.push("OA = r.A");
    }
    if out_mask & 2 != 0 {
        outs.push("OC = s.C");
    }
    if out_mask & 4 != 0 {
        outs.push("OB = s.B");
    }
    if outs.is_empty() {
        outs.push("OA = r.A");
    }
    let text = format!(
        "select struct({}) from {} where {}",
        outs.join(", "),
        from.join(", "),
        conds.join(" and ")
    );
    let query = parse_query(&text).unwrap();
    let desc = format!(
        "structures(sa={sa}, sb={sb}, pk={pk}, V={view_join}, W={view_s}) \
         cards={cards:?} distincts={distincts:?} fanout={fanout} query=`{text}`"
    );
    Scenario {
        catalog: c,
        query,
        desc,
    }
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
        ),
        prop::collection::vec(prop::sample::select(vec![0u64, 1, 5, 120, 4_000]), 7),
        prop::collection::vec(prop::sample::select(vec![1u64, 3, 950]), 4),
        prop::sample::select(vec![0.5f64, 2.0, 40.0]),
        (0u8..8, 0u8..8, any::<bool>()),
    )
        .prop_map(
            |((sa, sb, pk, vj, vs), cards, distincts, fanout, (cond, out, selfj))| {
                build_scenario(
                    sa, sb, pk, vj, vs, cards, distincts, fanout, cond, out, selfj,
                )
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On every generated catalog: serialize → parse → serialize is a
    /// fixed point, and the reloaded, re-verified plan computes exactly
    /// the rows of the in-memory plan (and of the logical query) on a
    /// materialized instance.
    #[test]
    fn round_trip_executes_identically_on_random_catalogs(s in arb_scenario()) {
        let mut instance = cb_engine::join_instance(&cb_engine::JoinParams {
            n_r: 48,
            n_s: 36,
            match_fraction: 0.25,
            seed: 5,
        });
        Materializer::new(&s.catalog)
            .materialize(&mut instance)
            .unwrap();
        assert_materialized_as_interpreted(&s.desc, &s.catalog, &instance);
        assert_round_trip(&s.desc, &s.catalog, &instance, &s.query);
    }
}

/// The R/S catalog used by the service-level cache tests, with the
/// secondary indexes added in a caller-chosen order (the constraint
/// *set* is identical either way) and fixed statistics.
fn rs_catalog(index_order: &[&str]) -> Catalog {
    let mut c = Catalog::new();
    c.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
    c.add_logical_relation("S", [("B", Type::Int), ("C", Type::Int)]);
    c.add_direct_mapping("R");
    c.add_direct_mapping("S");
    for name in index_order {
        match *name {
            "SA" => c.add_secondary_index("SA", "R", "A").unwrap(),
            "SB" => c.add_secondary_index("SB", "S", "B").unwrap(),
            other => panic!("unknown index {other}"),
        };
    }
    let stats = c.stats_mut();
    let mut r = RootStats::with_cardinality(400);
    r.distinct.insert("A".into(), 40);
    r.distinct.insert("B".into(), 20);
    stats.set("R", r);
    let mut s = RootStats::with_cardinality(300);
    s.distinct.insert("B".into(), 20);
    s.distinct.insert("C".into(), 30);
    stats.set("S", s);
    c
}

fn rs_query() -> Query {
    parse_query("select struct(OA = r.A, OC = s.C) from R r, S s where r.B = s.B and r.A = 1")
        .unwrap()
}

#[test]
fn cache_hits_on_identical_repreparation_and_misses_across_a_hot_swap() {
    let mut svc = PlanService::new(rs_catalog(&["SA", "SB"]), OptimizerConfig::default());
    let q = rs_query();

    let cold = svc.prepare(&q).unwrap();
    assert!(!cold.cache_hit);
    assert!(cold.nodes_visited > 0);
    let warm = svc.prepare(&q).unwrap();
    assert!(warm.cache_hit, "identical re-preparation must hit");
    assert_eq!(warm.nodes_visited, 0, "a hit must skip phase-2 search");
    assert_eq!(warm.plan.outcome.best.query, cold.plan.outcome.best.query);

    // A genuinely different constraint theory (SB dropped) resets the
    // chase core; the cached plan must not survive that boundary.
    svc.swap_catalog(rs_catalog(&["SA"]));
    assert_eq!(
        svc.chase_stats().deps_resets,
        1,
        "dropping an index changes the theory — the core must reset"
    );
    assert_eq!(
        svc.cached_plans(),
        0,
        "no plan may be served across a deps_resets boundary"
    );
    assert!(svc.stats().invalidations >= 1);
    let re = svc.prepare(&q).unwrap();
    assert!(!re.cache_hit, "the swapped catalog must re-prepare");
    assert!(re.nodes_visited > 0);
}

#[test]
fn reordered_catalog_swap_keeps_chase_memos_and_cached_plans() {
    let mut svc = PlanService::new(rs_catalog(&["SA", "SB"]), OptimizerConfig::default());
    let q = rs_query();
    let cold = svc.prepare(&q).unwrap();
    assert!(!cold.cache_hit);

    // Same catalog, constraints registered in the opposite order: the
    // canonical fingerprint is order-insensitive, so the swap must keep
    // both the chase memos (no spurious reset) and the plan cache.
    svc.swap_catalog(rs_catalog(&["SB", "SA"]));
    assert_eq!(
        svc.chase_stats().deps_resets,
        0,
        "a reordered-but-identical catalog must not reset the chase core"
    );
    assert!(
        svc.chase_stats().reorder_resets_avoided >= 1,
        "the avoided reset must be counted"
    );
    assert_eq!(svc.stats().invalidations, 0);
    let warm = svc.prepare(&q).unwrap();
    assert!(warm.cache_hit, "the reordered catalog must still hit");
    assert_eq!(warm.nodes_visited, 0);
    assert_eq!(warm.plan.outcome.best.query, cold.plan.outcome.best.query);
}

/// The ProjDept query restricted to one customer.
fn projects_of(cust: &str) -> Query {
    parse_query(&format!(
        "select struct(PN = s, PB = p.Budg, DN = d.DName) \
         from depts d, d.DProjs s, Proj p \
         where s = p.PName and p.CustName = \"{cust}\""
    ))
    .unwrap()
}

/// A query that differs from a prepared one only in a constant is of the
/// same shape: it hits the plan cache, and the plan it gets names its
/// own constant.
#[test]
fn a_new_constant_hits_the_plan_cache_in_its_own_constants() {
    let (_, catalog, instance, _) = builtin_scenarios().remove(0);
    let mut svc = PlanService::new(catalog.clone(), OptimizerConfig::default());
    let first = svc.prepare(&projects_of("CitiBank")).unwrap();
    assert!(!first.cache_hit);
    let warm = svc.chase_stats();

    let q = projects_of("cust3");
    let second = svc.prepare(&q).unwrap();
    assert!(second.cache_hit, "a new constant is the same shape");
    assert_eq!(second.nodes_visited, 0);
    let after = svc.chase_stats();
    assert_eq!(
        after.containment_misses, warm.containment_misses,
        "{after:?}"
    );
    assert_eq!(
        after.implication_misses, warm.implication_misses,
        "{after:?}"
    );

    // The plan is the caller's own: it names cust3, not CitiBank.
    assert_eq!(second.plan.outcome.input, q);
    let best = &second.plan.outcome.best.query;
    let text = best.to_string();
    assert!(text.contains("\"cust3\""), "{text}");
    assert!(!text.contains("CitiBank"), "{text}");
    let ev = Evaluator::for_catalog(&catalog, &instance);
    let rows = ev.eval_query(best).unwrap();
    let reference = ev.eval_query(&q).unwrap();
    assert!(
        !reference.is_empty(),
        "cust3 should own projects at seed 42"
    );
    assert_eq!(rows, reference, "the plan must return the query's rows");
}

#[test]
fn parallel_preparations_keep_their_memos_across_preparations() {
    let (_, catalog, instance, _) = builtin_scenarios().remove(0);
    for threads in [2, 4] {
        let config = OptimizerConfig {
            threads,
            ..OptimizerConfig::default()
        };
        let mut svc = PlanService::new(catalog.clone(), config);
        svc.prepare(&projects_of("CitiBank")).unwrap();
        let warm = svc.chase_stats();
        let q = projects_of("cust3");
        let second = svc.prepare(&q).unwrap();
        assert!(second.cache_hit, "a new constant is the same shape");
        let best = &second.plan.outcome.best.query;
        let ev = Evaluator::for_catalog(&catalog, &instance);
        assert_eq!(ev.eval_query(best).unwrap(), ev.eval_query(&q).unwrap());
        // A statistics refresh makes the next preparation search again.
        let mut refreshed = catalog.clone();
        refreshed
            .stats_mut()
            .set("Proj", RootStats::with_cardinality(77));
        svc.swap_catalog(refreshed);
        assert!(!svc.prepare(&q).unwrap().cache_hit);
        let after = svc.chase_stats();
        assert_eq!(
            after.containment_misses, warm.containment_misses,
            "@ {threads} threads: {after:?}"
        );
        assert_eq!(
            after.implication_misses, warm.implication_misses,
            "@ {threads} threads: {after:?}"
        );
        // …because the search asked them of the service's own core.
        assert!(
            after.containment_hits > warm.containment_hits,
            "@ {threads} threads: {after:?}"
        );
    }
}

/// Dropping the index `SB` and adding it back changes the constraint
/// theory both ways, and each swap resets the chase core. A verified
/// lattice recorded under one theory must never be replayed under the
/// other: each re-preparation runs exactly the walk a fresh service
/// runs, and plans the same.
#[test]
fn a_lattice_is_never_replayed_across_a_theory_change() {
    let q = rs_query();
    let full = rs_catalog(&["SA", "SB"]);
    let mut refreshed = full.clone();
    refreshed
        .stats_mut()
        .set("R", RootStats::with_cardinality(4_000));
    let mut svc = PlanService::new(full.clone(), OptimizerConfig::default());
    svc.prepare(&q).unwrap();
    // Two statistics refreshes under the full theory: the second walk
    // records the lattice, the third replays it — so there is a lattice
    // a theory change could wrongly keep.
    for (catalog, replays) in [(refreshed, false), (full, true)] {
        svc.swap_catalog(catalog);
        let before = svc.chase_stats();
        assert!(!svc.prepare(&q).unwrap().cache_hit);
        let after = svc.chase_stats();
        assert_eq!(after.deps_resets, 0);
        assert_eq!(
            after.lattice_misses == before.lattice_misses,
            replays,
            "{after:?}"
        );
    }
    for (resets, indexes) in [(1, &["SA"][..]), (2, &["SA", "SB"][..])] {
        svc.swap_catalog(rs_catalog(indexes));
        assert_eq!(svc.chase_stats().deps_resets, resets, "{indexes:?}");
        let before = svc.chase_stats();
        let re = svc.prepare(&q).unwrap();
        assert!(!re.cache_hit, "{indexes:?}");
        let after = svc.chase_stats();

        let mut fresh_svc = PlanService::new(rs_catalog(indexes), OptimizerConfig::default());
        let fresh = fresh_svc.prepare(&q).unwrap();
        let cold = fresh_svc.chase_stats();
        // The same cold walk, lattice child for lattice child…
        assert_eq!(
            after.lattice_hits - before.lattice_hits,
            cold.lattice_hits,
            "{indexes:?}: {after:?}"
        );
        assert_eq!(
            after.lattice_misses - before.lattice_misses,
            cold.lattice_misses,
            "{indexes:?}: {after:?}"
        );
        // …and the same plans.
        let (r, f) = (&re.plan.outcome, &fresh.plan.outcome);
        assert_eq!(
            format!("{:?}", r.best),
            format!("{:?}", f.best),
            "{indexes:?}"
        );
        assert_eq!(
            format!("{:?}", r.top_k()),
            format!("{:?}", f.top_k()),
            "{indexes:?}"
        );
        assert_eq!(
            r.search.visited_count, f.search.visited_count,
            "{indexes:?}"
        );
    }
}
