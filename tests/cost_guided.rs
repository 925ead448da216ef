//! Differential testing of the cost-guided branch-and-bound backchase:
//! `SearchStrategy::CostGuided` must find a best plan whose cost equals
//! the exhaustive enumeration's cheapest on every catalog scenario, while
//! costing strictly fewer subqueries wherever its admissible lower bound
//! bites — and the bound itself must under-estimate the cost of every
//! subquery the backchase visits.

use cb_optimizer::{CostBound, CostModel, Optimizer, OptimizerConfig, SearchStrategy};
use universal_plans::chase::{backchase, ChaseContext, MustRemainAnalysis};
use universal_plans::prelude::*;

/// Scenario catalogs with statistics, plus their logical query — every
/// built-in scenario, each under `D ∪ D'` and under `D'` alone.
fn scenarios() -> Vec<(String, Catalog, Query)> {
    use cb_catalog::scenarios::{projdept, relational_indexes, relational_views};
    let mut out = Vec::new();
    let mut c = projdept::catalog();
    projdept::stats_for(&mut c, 100, 10, 20);
    out.push(("projdept".to_string(), c, projdept::query()));
    let mut c = relational_indexes::catalog();
    relational_indexes::stats_for(&mut c, 10_000, 1000, 1000);
    out.push(("indexes".to_string(), c, relational_indexes::query()));
    let mut c = relational_views::catalog();
    relational_views::stats_for(&mut c, 10_000, 10_000, 10);
    out.push(("views".to_string(), c, relational_views::query()));
    // The mapping-only regimes of the completeness theorems.
    let with_bare: Vec<_> = out
        .iter()
        .map(|(n, c, q)| {
            (
                format!("{n} (mapping-only)"),
                c.without_semantic_constraints(),
                q.clone(),
            )
        })
        .collect();
    out.extend(with_bare);
    out
}

#[test]
fn cost_guided_best_cost_equals_exhaustive_on_every_scenario() {
    for (name, catalog, q) in scenarios() {
        let full = Optimizer::new(&catalog).optimize(&q).unwrap();
        let config = OptimizerConfig {
            strategy: SearchStrategy::CostGuided,
            ..Default::default()
        };
        let guided = Optimizer::with_config(&catalog, config)
            .optimize(&q)
            .unwrap();
        assert!(
            (guided.best.cost - full.best.cost).abs() < 1e-9,
            "{name}: guided best {} != exhaustive best {}\nguided: {}\nexhaustive: {}",
            guided.best.cost,
            full.best.cost,
            guided.best.query,
            full.best.query
        );
        assert!(guided.complete, "{name}: guided search incomplete");
        assert!(
            guided.search.visited_count <= full.search.visited_count,
            "{name}: guided visited {} > exhaustive {}",
            guided.search.visited_count,
            full.search.visited_count
        );
    }
}

#[test]
fn cost_guided_prunes_on_projdept_and_views() {
    // The acceptance bar: strictly fewer subqueries costed (with the
    // savings reported in the counters) on at least ProjDept and the
    // materialized-view scenario.
    for (name, catalog, q) in scenarios()
        .into_iter()
        .filter(|(n, _, _)| n == "projdept" || n == "views")
    {
        let full = Optimizer::new(&catalog).optimize(&q).unwrap();
        let config = OptimizerConfig {
            strategy: SearchStrategy::CostGuided,
            ..Default::default()
        };
        let guided = Optimizer::with_config(&catalog, config)
            .optimize(&q)
            .unwrap();
        assert!(
            guided.search.pruned() > 0,
            "{name}: no cost pruning (visited {})",
            guided.search.visited_count
        );
        assert!(
            guided.search.visited_count < full.search.visited_count,
            "{name}: guided visited {} not < exhaustive {}",
            guided.search.visited_count,
            full.search.visited_count
        );
        assert_eq!(full.search.pruned(), 0, "{name}");
    }
}

/// The one-worker `CostGuided` walk, pinned per scenario: its visit and
/// pruning counters and the costs of its incumbent trace, in order. The
/// plan snapshots pin only `Exhaustive`, so this is what catches a change
/// in the cost-guided pop order or pruning discipline.
#[test]
fn cost_guided_one_worker_counters_are_pinned() {
    // (scenario, nodes_visited, pruned at gate, pruned at visit, trace)
    let pins: [(&str, usize, usize, usize, &[f64]); 6] = [
        ("projdept", 313, 26, 0, &[201.0]),
        ("indexes", 10, 3, 0, &[22430.01, 221.1, 22.0]),
        ("views", 21, 18, 1, &[1200040.0, 200080.0, 80.0]),
        (
            "projdept (mapping-only)",
            282,
            0,
            0,
            &[115701.0, 14242.0, 14210.0, 13240.0, 3240.0],
        ),
        ("indexes (mapping-only)", 10, 3, 0, &[22430.01, 221.1, 22.0]),
        (
            "views (mapping-only)",
            21,
            18,
            1,
            &[1200040.0, 200080.0, 80.0],
        ),
    ];
    let scenarios = scenarios();
    assert_eq!(scenarios.len(), pins.len());
    for ((name, catalog, q), (pinned, visited, gate, visit, trace)) in scenarios.iter().zip(pins) {
        assert_eq!(name, pinned);
        let config = OptimizerConfig {
            strategy: SearchStrategy::CostGuided,
            threads: 1,
            ..Default::default()
        };
        let out = Optimizer::with_config(catalog, config).optimize(q).unwrap();
        let costs: Vec<f64> = out.incumbent_trace.iter().map(|&(_, c)| c).collect();
        assert_eq!(
            (
                out.search.visited_count,
                out.search.pruned_at_gate,
                out.search.pruned_at_visit,
                costs.as_slice(),
            ),
            (visited, gate, visit, trace),
            "{name}"
        );
    }
}

#[test]
fn cost_guided_plans_are_sound_on_real_data() {
    // Every candidate the guided search costs must still compute the
    // reference result — pruning steers the search, never the semantics.
    let mut catalog = cb_catalog::scenarios::projdept::catalog();
    let q = cb_catalog::scenarios::projdept::query();
    let mut instance = cb_engine::projdept_instance(&cb_engine::ProjDeptParams {
        n_depts: 12,
        projs_per_dept: 4,
        n_customers: 5,
        seed: 7,
    });
    Materializer::new(&catalog)
        .materialize(&mut instance)
        .unwrap();
    *catalog.stats_mut() = cb_engine::collect_stats(&instance);
    let config = OptimizerConfig {
        strategy: SearchStrategy::CostGuided,
        ..Default::default()
    };
    let outcome = Optimizer::with_config(&catalog, config)
        .optimize(&q)
        .unwrap();
    let ev = Evaluator::for_catalog(&catalog, &instance);
    let reference = ev.eval_query(&q).unwrap();
    assert!(!outcome.candidates().is_empty());
    for (i, c) in outcome.candidates().iter().enumerate() {
        let rows = ev
            .eval_query(&c.query)
            .unwrap_or_else(|e| panic!("plan #{i} failed: {e}\nplan: {}", c.query));
        assert_eq!(rows, reference, "plan #{i} differs: {}", c.query);
    }
}

#[test]
fn lower_bound_is_admissible_for_every_visited_subquery() {
    // The property behind the pruning: `lower_bound(q) <= plan_cost(q)`
    // for every subquery the (exhaustive) backchase visits, in every
    // scenario — the bound may steer, it must never overshoot.
    for (name, catalog, q) in scenarios() {
        let model = CostModel::for_catalog(&catalog);
        let ctx = ChaseContext::new(catalog.all_constraints(), Default::default());
        let u = ctx.chase(&q).query;
        let out = backchase(&ctx, &u);
        assert!(out.counters.complete, "{name}");
        for v in &out.visited {
            let lb = model.lower_bound(v);
            let cost = model.plan_cost(v);
            assert!(
                lb <= cost + 1e-9,
                "{name}: lower_bound = {lb} > plan_cost = {cost} for {v}"
            );
        }
    }
}

#[test]
fn must_remain_bound_multiplies_pruning_over_the_access_floor() {
    // The acceptance bar of the must-remain bound (ISSUE 5 / E16): on
    // ProjDept, the summed bound must prune at least 3x what the single
    // cheapest access floor pruned — at identical best cost on *every*
    // scenario, since both bounds are admissible.
    let mut projdept_pruned = (0usize, 0usize);
    for (name, catalog, q) in scenarios() {
        let full = Optimizer::new(&catalog).optimize(&q).unwrap();
        let must_cfg = OptimizerConfig {
            strategy: SearchStrategy::CostGuided,
            ..Default::default()
        };
        let floor_cfg = OptimizerConfig {
            bound: CostBound::AccessFloor,
            ..must_cfg.clone()
        };
        let floor = Optimizer::with_config(&catalog, floor_cfg)
            .optimize(&q)
            .unwrap();
        let must = Optimizer::with_config(&catalog, must_cfg)
            .optimize(&q)
            .unwrap();
        for (label, out) in [("access-floor", &floor), ("must-remain", &must)] {
            assert!(
                (out.best.cost - full.best.cost).abs() < 1e-9,
                "{name}: {label} best {} != exhaustive best {}",
                out.best.cost,
                full.best.cost
            );
        }
        assert!(
            must.search.pruned() >= floor.search.pruned(),
            "{name}: must-remain pruned {} < access-floor {}",
            must.search.pruned(),
            floor.search.pruned()
        );
        if name == "projdept" {
            projdept_pruned = (floor.search.pruned(), must.search.pruned());
        }
    }
    assert!(
        projdept_pruned.1 >= 3 * projdept_pruned.0.max(1),
        "projdept: must-remain pruned {} < 3x access-floor pruned {}",
        projdept_pruned.1,
        projdept_pruned.0
    );
}

#[test]
fn must_remain_core_survives_into_every_plan() {
    // What the analysis claims ("these bindings appear in every
    // equivalence-preserving plan") checked against what the exhaustive
    // enumeration actually produces, on every scenario.
    for (name, catalog, q) in scenarios() {
        let full = Optimizer::new(&catalog).optimize(&q).unwrap();
        let mut analysis = MustRemainAnalysis::new(full.universal());
        let pinned = analysis.must_remain(&Default::default());
        assert_eq!(
            full.must_remain(),
            pinned.iter().cloned().collect::<Vec<_>>(),
            "{name}: outcome does not report the analysis's set"
        );
        for c in full.candidates() {
            for var in &pinned {
                assert!(
                    c.raw.from.iter().any(|b| &b.var == var),
                    "{name}: must-remain binding {var} missing from {}",
                    c.raw
                );
            }
        }
    }
}

#[test]
fn lower_bound_monotone_along_the_visited_lattice() {
    // Each visited node's bound must also under-estimate the *final*
    // cost of every visited node (they are all lattice descendants or
    // relatives reached by removals) once cleaned and reordered — the
    // end-to-end admissibility the branch-and-bound relies on, checked
    // against the costs the optimizer actually assigns.
    for (name, catalog, q) in scenarios() {
        let full = Optimizer::new(&catalog).optimize(&q).unwrap();
        let model = CostModel::for_catalog(&catalog);
        let root_bound = model.lower_bound(full.universal());
        for c in full.candidates() {
            assert!(
                root_bound <= c.cost + 1e-9,
                "{name}: universal-plan bound {root_bound} > final cost {} of {}",
                c.cost,
                c.query
            );
        }
    }
}
