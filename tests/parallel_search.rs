//! The parallel, anytime plan search end to end: the work-sharing
//! frontier over the sharded chase core must be a pure *scheduling*
//! change — same best plan and cost at every worker count, on every
//! scenario — and the anytime budget must be a pure *latency* knob: an
//! expired search still returns a fully verified, executable,
//! result-correct incumbent (the universal plan itself when the budget
//! allows nothing else).

use std::time::Duration;

use cb_chase::CacheStats;
use cb_optimizer::{
    Degradation, OptimizeOutcome, Optimizer, OptimizerConfig, PlanService, SearchStrategy,
};
use universal_plans::chase::faults::ScopedFaults;
use universal_plans::chase::SearchBudget;
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

fn config(strategy: SearchStrategy, threads: usize) -> OptimizerConfig {
    OptimizerConfig {
        strategy,
        threads,
        cost_visited: true,
        ..Default::default()
    }
}

#[test]
fn parallel_exhaustive_candidates_match_sequential_on_every_scenario() {
    // Exhaustive has no pruning, so the parallel frontier must produce
    // the *identical* candidate list — same plans, same costs, same
    // minimality flags — in the same (deterministically sorted) order.
    for (name, catalog, q) in scenarios() {
        let base = Optimizer::with_config(&catalog, config(SearchStrategy::Exhaustive, 1))
            .optimize(&q)
            .unwrap();
        for threads in [2usize, 4] {
            let par = Optimizer::with_config(&catalog, config(SearchStrategy::Exhaustive, threads))
                .optimize(&q)
                .unwrap();
            assert_eq!(
                par.candidates.len(),
                base.candidates.len(),
                "{name} @ {threads} threads"
            );
            for (a, b) in par.candidates.iter().zip(&base.candidates) {
                assert_eq!(
                    a.query.alpha_normalized(),
                    b.query.alpha_normalized(),
                    "{name} @ {threads} threads"
                );
                assert!((a.cost - b.cost).abs() < 1e-9, "{name} @ {threads} threads");
                assert_eq!(
                    a.minimal, b.minimal,
                    "{name} @ {threads} threads: {}",
                    a.query
                );
            }
            assert_eq!(
                par.search.visited_count, base.search.visited_count,
                "{name} @ {threads}"
            );
            assert!(par.complete, "{name} @ {threads} threads");
        }
    }
}

#[test]
fn parallel_cost_guided_same_best_plan_at_every_thread_count() {
    // The determinism bar: branch-and-bound prunes only on a *strict*
    // incumbent comparison and the final ranking ties on canonical plan
    // keys, so the best plan — not just its cost — is a function of the
    // scenario, not of the schedule.
    for (name, catalog, q) in scenarios() {
        let full = Optimizer::with_config(&catalog, config(SearchStrategy::Exhaustive, 1))
            .optimize(&q)
            .unwrap();
        let base = Optimizer::with_config(&catalog, config(SearchStrategy::CostGuided, 1))
            .optimize(&q)
            .unwrap();
        for threads in [1usize, 2, 4] {
            let par = Optimizer::with_config(&catalog, config(SearchStrategy::CostGuided, threads))
                .optimize(&q)
                .unwrap();
            assert!(
                (par.best.cost - full.best.cost).abs() < 1e-9,
                "{name} @ {threads} threads: guided best {} != exhaustive best {}",
                par.best.cost,
                full.best.cost
            );
            assert_eq!(
                par.best.query.alpha_normalized(),
                base.best.query.alpha_normalized(),
                "{name} @ {threads} threads: best plan changed with the thread count"
            );
            assert!(par.complete, "{name} @ {threads} threads");
        }
    }
}

#[test]
fn zero_budget_returns_the_universal_plan() {
    // A budget of zero nodes still admits the root: the search returns
    // the universal plan itself — always equivalent by construction —
    // rather than failing.
    for (name, catalog, q) in scenarios() {
        for (strategy, threads) in [
            (SearchStrategy::Exhaustive, 1usize),
            (SearchStrategy::Exhaustive, 4),
            (SearchStrategy::CostGuided, 1),
            (SearchStrategy::CostGuided, 4),
        ] {
            let cfg = OptimizerConfig {
                search_budget: SearchBudget {
                    nodes: Some(0),
                    ..SearchBudget::default()
                },
                ..config(strategy, threads)
            };
            let out = Optimizer::with_config(&catalog, cfg).optimize(&q).unwrap();
            assert!(out.search.budget_expired, "{name} {strategy:?} @ {threads}");
            assert!(!out.complete, "{name} {strategy:?} @ {threads}");
            assert_eq!(
                out.best.raw.alpha_normalized(),
                out.universal.alpha_normalized(),
                "{name} {strategy:?} @ {threads}: best is not the universal plan"
            );
        }
    }
}

#[test]
fn expired_budget_incumbent_is_executable_and_result_correct() {
    // Mid-search expiry: whatever the incumbent is when the budget runs
    // out, it must execute and compute the reference result — anytime is
    // a latency SLO, never a correctness change.
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
    let ev = Evaluator::for_catalog(&catalog, &instance);
    let reference = ev.eval_query(&q).unwrap();
    // Sweep node budgets from "root only" past "search finished", and a
    // zero wall clock, at both worker counts.
    for threads in [1usize, 2] {
        let mut expired_at_least_once = false;
        for nodes in [0usize, 1, 2, 3, 5, 8, 1000] {
            let cfg = OptimizerConfig {
                search_budget: SearchBudget {
                    nodes: Some(nodes),
                    ..SearchBudget::default()
                },
                ..config(SearchStrategy::CostGuided, threads)
            };
            let out = Optimizer::with_config(&catalog, cfg).optimize(&q).unwrap();
            expired_at_least_once |= out.search.budget_expired;
            let rows = ev.eval_query(&out.best.query).unwrap_or_else(|e| {
                panic!(
                    "budget {nodes} @ {threads} threads: incumbent failed: {e}\nplan: {}",
                    out.best.query
                )
            });
            assert_eq!(
                rows, reference,
                "budget {nodes} @ {threads} threads: incumbent differs: {}",
                out.best.query
            );
        }
        assert!(expired_at_least_once, "@ {threads} threads");
        let wall_cfg = OptimizerConfig {
            search_budget: SearchBudget {
                wall_clock: Some(Duration::ZERO),
                ..SearchBudget::default()
            },
            ..config(SearchStrategy::CostGuided, threads)
        };
        let out = Optimizer::with_config(&catalog, wall_cfg)
            .optimize(&q)
            .unwrap();
        assert!(out.search.budget_expired, "@ {threads} threads");
        assert_eq!(ev.eval_query(&out.best.query).unwrap(), reference);
    }
}

fn node_budget(nodes: usize) -> SearchBudget {
    SearchBudget {
        nodes: Some(nodes),
        ..SearchBudget::default()
    }
}

/// A two-worker walk that its node budget stopped after losing a worker
/// holds the budget's anytime answer: the survivor commits exactly the
/// budgeted nodes, and the governor does not rerun it sequentially.
#[test]
fn a_budget_stopped_walk_that_lost_a_worker_is_not_rerun() {
    let (_, catalog, q) = scenarios().swap_remove(0);
    for at in [3, 5, 12] {
        let cfg = OptimizerConfig {
            search_budget: node_budget(20),
            ..config(SearchStrategy::Exhaustive, 2)
        };
        let spec = format!("parallel::pop=panic@{at}");
        let out = {
            let _guard = ScopedFaults::install(&spec).unwrap();
            Optimizer::with_config(&catalog, cfg).optimize(&q).unwrap()
        };
        assert_eq!(out.search.workers_died, 1, "{spec}");
        assert_eq!(out.search.visited_count, 20, "{spec}");
        assert!(out.search.budget_expired, "{spec}");
        assert!(
            !out.degradations
                .iter()
                .any(|d| matches!(d, Degradation::SequentialFallback { .. })),
            "{spec}: {:?}",
            out.degradations
        );
    }
}

/// The node cap is the anytime budget, so a capped walk that reached no
/// physical plan answers with the verified universal plan instead of
/// failing.
#[test]
fn a_capped_walk_without_a_physical_plan_answers_with_the_universal_plan() {
    let (_, catalog, q) = scenarios().swap_remove(0);
    let cfg = OptimizerConfig {
        search_budget: node_budget(20),
        ..OptimizerConfig::default()
    };
    let out = Optimizer::with_config(&catalog, cfg).optimize(&q).unwrap();
    assert!(out.search.budget_expired);
    assert_eq!(out.search.visited_count, 20);
    assert_eq!(
        out.best.raw.alpha_normalized(),
        out.universal.alpha_normalized()
    );
}

#[test]
fn top_k_plans_are_distinct_and_cost_ordered() {
    for (name, catalog, q) in scenarios() {
        for threads in [1usize, 2] {
            let cfg = OptimizerConfig {
                k_best: 5,
                ..config(SearchStrategy::CostGuided, threads)
            };
            let out = Optimizer::with_config(&catalog, cfg).optimize(&q).unwrap();
            assert!(!out.top_k.is_empty(), "{name} @ {threads} threads");
            assert!(out.top_k.len() <= 5, "{name} @ {threads} threads");
            assert_eq!(
                out.top_k[0].query.alpha_normalized(),
                out.best.query.alpha_normalized(),
                "{name} @ {threads} threads: top-1 is not the best"
            );
            for w in out.top_k.windows(2) {
                assert!(
                    w[0].cost <= w[1].cost,
                    "{name} @ {threads} threads: top-k not cost-ordered"
                );
                assert_ne!(
                    w[0].query.alpha_normalized(),
                    w[1].query.alpha_normalized(),
                    "{name} @ {threads} threads: duplicate plan in top-k"
                );
            }
            // Mutually distinct, not just adjacent-distinct.
            let mut keys: Vec<_> = out
                .top_k
                .iter()
                .map(|c| c.query.alpha_normalized())
                .collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), out.top_k.len(), "{name} @ {threads} threads");
        }
    }
}

#[test]
fn incumbent_trace_descends_and_shard_stats_flow() {
    let (_, catalog, q) = scenarios().remove(0);
    for threads in [1usize, 4] {
        let out = Optimizer::with_config(&catalog, config(SearchStrategy::CostGuided, threads))
            .optimize(&q)
            .unwrap();
        assert!(
            !out.incumbent_trace.is_empty(),
            "@ {threads} threads: no incumbent improvements recorded"
        );
        for w in out.incumbent_trace.windows(2) {
            assert!(
                w[0].0 <= w[1].0,
                "@ {threads} threads: trace not time-ordered"
            );
            assert!(w[0].1 > w[1].1, "@ {threads} threads: trace not descending");
        }
        assert!(
            (out.incumbent_trace.last().unwrap().1 - out.best.cost).abs() < 1e-9,
            "@ {threads} threads: trace does not end at the best cost"
        );
        // Phase 1 asks no containment question: this traffic is the
        // search's, in the one context at every thread count.
        let c = out.cache;
        assert!(
            c.containment_hits + c.containment_misses > 0,
            "no phase-2 memo traffic at {threads} threads: {c:?}"
        );
    }
}

/// Every builtin scenario under two sets of statistics: the catalog a
/// plan is prepared under, and the refreshed one it is re-prepared
/// under (same constraints, different cost model).
fn stats_refreshes() -> Vec<(&'static str, Catalog, Catalog, Query)> {
    use cb_catalog::scenarios::{projdept, relational_indexes, relational_views};
    let projdept_at = |n: u64, per: u64, customers: u64| {
        let mut c = projdept::catalog();
        projdept::stats_for(&mut c, n, per, customers);
        c
    };
    let indexes_at = |n: u64, a: u64, b: u64| {
        let mut c = relational_indexes::catalog();
        relational_indexes::stats_for(&mut c, n, a, b);
        c
    };
    let views_at = |r: u64, s: u64, v: u64| {
        let mut c = relational_views::catalog();
        relational_views::stats_for(&mut c, r, s, v);
        c
    };
    vec![
        (
            "projdept",
            projdept_at(100, 10, 20),
            projdept_at(1000, 50, 5),
            projdept::query(),
        ),
        (
            "indexes",
            indexes_at(10_000, 1000, 1000),
            indexes_at(500, 5, 400),
            relational_indexes::query(),
        ),
        (
            "views",
            views_at(10_000, 10_000, 10),
            views_at(100, 100, 50_000),
            relational_views::query(),
        ),
    ]
}

/// Containment and implication questions asked, answered from the memo
/// or not.
fn proof_lookups(s: &CacheStats) -> u64 {
    s.containment_hits + s.containment_misses + s.implication_hits + s.implication_misses
}

/// The parts of two outcomes that must agree byte for byte. A parallel
/// cost-guided walk races its incumbent, so there only the best plan is
/// schedule-independent.
fn assert_same_outcome(desc: &str, replay: &OptimizeOutcome, fresh: &OptimizeOutcome, exact: bool) {
    assert_eq!(
        format!("{:?}", replay.best),
        format!("{:?}", fresh.best),
        "{desc}: best"
    );
    if exact {
        assert_eq!(
            format!("{:?}", replay.top_k),
            format!("{:?}", fresh.top_k),
            "{desc}: top_k"
        );
        assert_eq!(
            format!("{:?}", replay.candidates),
            format!("{:?}", fresh.candidates),
            "{desc}: candidates"
        );
        assert_eq!(
            replay.search.visited_count, fresh.search.visited_count,
            "{desc}"
        );
        assert_eq!(
            replay.search.pruned_at_gate, fresh.search.pruned_at_gate,
            "{desc}"
        );
        assert_eq!(
            replay.search.pruned_at_visit, fresh.search.pruned_at_visit,
            "{desc}"
        );
    }
}

#[test]
fn a_stats_refresh_replays_the_lattice_and_matches_a_fresh_service() {
    for (name, before, after, q) in stats_refreshes() {
        for strategy in [SearchStrategy::Exhaustive, SearchStrategy::CostGuided] {
            for threads in [1usize, 2, 4] {
                let desc = format!("{name} {strategy:?} @ {threads} threads");
                let cfg = config(strategy, threads);
                // A sequential walk, or an exhaustive one at any width,
                // is schedule-independent: everything must match.
                let exact = threads == 1 || strategy == SearchStrategy::Exhaustive;
                let mut svc = PlanService::new(before.clone(), cfg.clone());
                assert!(!svc.prepare(&q).unwrap().cache_hit, "{desc}");
                // The first refresh re-prepares on a second walk of the
                // universal plan, which records its lattice…
                svc.swap_catalog(after.clone());
                let recorded = svc.prepare(&q).unwrap();
                assert!(!recorded.cache_hit, "{desc}: the refresh must re-prepare");
                let fresh = PlanService::new(after.clone(), cfg.clone())
                    .prepare(&q)
                    .unwrap();
                assert_same_outcome(&desc, &recorded.plan.outcome, &fresh.plan.outcome, exact);
                // …and the second refresh replays it.
                svc.swap_catalog(before.clone());
                let warm = svc.chase_stats();
                let replay = svc.prepare(&q).unwrap();
                assert!(!replay.cache_hit, "{desc}: the refresh must re-prepare");
                let stats = svc.chase_stats();
                let fresh = PlanService::new(before.clone(), cfg).prepare(&q).unwrap();
                assert_same_outcome(&desc, &replay.plan.outcome, &fresh.plan.outcome, exact);
                assert!(stats.lattice_hits > warm.lattice_hits, "{desc}: {stats:?}");
                let added_lookups = proof_lookups(&stats) - proof_lookups(&warm);
                let added_misses = stats.lattice_misses - warm.lattice_misses;
                if strategy == SearchStrategy::Exhaustive {
                    // The same lattice walked again: all of it replayed.
                    assert_eq!(added_lookups, 0, "{desc}: {stats:?}");
                    assert_eq!(added_misses, 0, "{desc}: {stats:?}");
                } else {
                    // Only a child (or plan form) the recording walk
                    // never verified may cost a proof.
                    assert!(added_lookups == 0 || added_misses > 0, "{desc}: {stats:?}");
                }
            }
        }
    }
}
