//! Regenerates every example, figure and claim of the paper's evaluation
//! (experiment index E1–E20 and the paper-vs-measured record live in
//! `crates/cb-bench/EXPERIMENTS.md`).
//!
//! ```sh
//! cargo run --release --bin experiments            # all experiments
//! cargo run --release --bin experiments e1 e10     # a selection
//! cargo run --release --bin experiments -- --json BENCH_experiments.json
//! ```
//!
//! `--json <path>` runs the measurable experiments several times each and
//! writes a structured record (experiment id, median ns, chase-cache hit
//! rate) instead of the human-readable tables.

use std::collections::BTreeSet;
use std::time::Instant;

use cb_bench::{prepared_indexes, prepared_projdept, prepared_views, render_table, Prepared};
use cb_chase::{
    backchase, chase_step, examine_removal, minimize, CacheStats, ChaseConfig, ChaseContext,
    ExploreAll, PlanSearch, QueryGraph, RemovalJudgement,
};
use cb_engine::{Evaluator, Materializer};
use cb_optimizer::{explain, Optimizer};
use pcql::parser::{parse_dependency, parse_query};
use pcql::Type;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--json") {
        if i + 1 >= args.len() {
            eprintln!("usage: experiments --json <path> [e1 e2 …]");
            std::process::exit(2);
        }
        let path = args.remove(i + 1);
        args.remove(i);
        run_json(&path, &args);
        return;
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);

    if want("e1") {
        e1_projdept_plan_space();
    }
    if want("e2") {
        e2_chase_step_with_cji();
    }
    if want("e3") {
        e3_universal_plan();
    }
    if want("e4") {
        e4_tableau_minimization();
    }
    if want("e5") {
        e5_index_only();
    }
    if want("e6") {
        e6_views_and_indexes();
    }
    if want("e7") {
        e7_chase_scaling();
    }
    if want("e8") {
        e8_backchase_scaling();
    }
    if want("e9") {
        e9_completeness();
    }
    if want("e10") {
        e10_plan_crossover();
    }
    if want("e11") {
        e11_structure_encodings();
    }
    if want("e12") {
        e12_semantic_optimization();
    }
    if want("e13") {
        e13_strategy_ablation();
    }
    if want("e14") {
        e14_cost_guided_pruning();
    }
    if want("e15") {
        e15_pipeline_execution();
    }
    if want("e16") {
        e16_must_remain_bound();
    }
    if want("e17") {
        e17_static_analysis();
    }
    if want("e18") {
        e18_parallel_search();
    }
    if want("e19") {
        e19_batched_execution();
    }
    if want("e20") {
        e20_resilience();
    }
    if want("e21") {
        e21_plan_service();
    }
}

/// One `--json` record: experiment id, median wall time over the runs,
/// and the chase-cache hit rate of the final run.
struct JsonRecord {
    id: &'static str,
    median_ns: u128,
    /// `None` for experiments that do not run through a `ChaseContext`
    /// (emitted as JSON `null`, not a fake 0.0).
    cache_hit_rate: Option<f64>,
    /// Additional experiment-specific integer fields appended to the
    /// record (E14 reports its pruning counters here).
    extra: Vec<(&'static str, u64)>,
}

/// Runs `f` `iters` times, recording wall time per run and the
/// [`CacheStats`] the run reports (if any).
fn measure(
    id: &'static str,
    iters: usize,
    mut f: impl FnMut() -> Option<CacheStats>,
) -> JsonRecord {
    let mut samples: Vec<u128> = Vec::with_capacity(iters);
    let mut rate = None;
    for _ in 0..iters {
        let t = Instant::now();
        let stats = f();
        samples.push(t.elapsed().as_nanos());
        rate = stats.map(|s| s.hit_rate());
    }
    samples.sort_unstable();
    JsonRecord {
        id,
        median_ns: samples[samples.len() / 2],
        cache_hit_rate: rate,
        extra: Vec::new(),
    }
}

/// `--json <path>`: timed runs of the measurable experiments, written as
/// a structured `BENCH_*.json` (this replaces the old manual
/// redirect-the-tables recipe from the README).
fn run_json(path: &str, selection: &[String]) {
    let all = selection.is_empty() || selection.iter().any(|a| a == "all");
    let want = |name: &str| all || selection.iter().any(|a| a == name);
    const ITERS: usize = 5;
    let mut records: Vec<JsonRecord> = Vec::new();

    if want("e1") {
        let p = prepared_projdept(50, 10, 25);
        records.push(measure("e1_projdept_optimize", ITERS, || {
            Some(p.optimizer().optimize(&p.query).unwrap().cache)
        }));
    }
    if want("e4") {
        let q = parse_query(
            "select struct(A = p.A, B = r.B) from R p, R q, R r \
             where p.B = q.A and q.B = r.B",
        )
        .unwrap();
        records.push(measure("e4_tableau_minimization", ITERS, || {
            // A cold question: a fresh context with no dependencies,
            // which has no memo hit to report.
            minimize(&ChaseContext::new(vec![], ChaseConfig::default()), &q);
            None
        }));
    }
    if want("e5") {
        let p = prepared_indexes(5_000, 100, 50);
        records.push(measure("e5_index_only_optimize", ITERS, || {
            Some(p.optimizer().optimize(&p.query).unwrap().cache)
        }));
    }
    if want("e6") {
        let p = prepared_views(1_000, 1_000, 0.05);
        records.push(measure("e6_view_nav_optimize", ITERS, || {
            Some(p.optimizer().optimize(&p.query).unwrap().cache)
        }));
    }
    if want("e7") {
        let (catalog, q) = views_scenario(8);
        records.push(measure("e7_chase_8_views", ITERS, || {
            let ctx = ChaseContext::new(catalog.all_constraints(), ChaseConfig::default());
            ctx.chase(&q);
            ctx.chase(&q); // the memoized re-chase the counters attribute
            Some(ctx.stats())
        }));
    }
    if want("e8") {
        let (catalog, q) = views_scenario(4);
        let deps = catalog.all_constraints();
        records.push(measure("e8_backchase_4_views", ITERS, || {
            let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
            let u = ctx.chase(&q).query;
            backchase(&ctx, &u);
            Some(ctx.stats())
        }));
    }
    if want("e13") {
        use cb_optimizer::{OptimizerConfig, SearchStrategy};
        let p = prepared_projdept(50, 10, 25);
        let config = OptimizerConfig {
            strategy: SearchStrategy::Greedy,
            cost_visited: false,
            ..Default::default()
        };
        records.push(measure("e13_greedy_optimize", ITERS, || {
            Optimizer::with_config(&p.catalog, config.clone())
                .optimize(&p.query)
                .map(|o| o.cache)
                .ok()
        }));
    }
    if want("e14") {
        use cb_optimizer::{OptimizerConfig, SearchStrategy};
        let p = prepared_projdept(50, 10, 25);
        let config = OptimizerConfig {
            strategy: SearchStrategy::CostGuided,
            ..Default::default()
        };
        // The measured runs also supply the counters the record carries.
        let mut guided = (0u64, 0u64, f64::NAN);
        let mut rec = measure("e14_cost_guided_optimize", ITERS, || {
            let out = Optimizer::with_config(&p.catalog, config.clone())
                .optimize(&p.query)
                .ok()?;
            guided = (
                out.search.visited_count as u64,
                out.search.pruned() as u64,
                out.best.cost,
            );
            Some(out.cache)
        });
        let full = p.optimizer().optimize(&p.query).unwrap();
        assert!((guided.2 - full.best.cost).abs() < 1e-9);
        rec.extra = vec![
            ("nodes_visited", guided.0),
            ("nodes_pruned_by_cost", guided.1),
            ("exhaustive_nodes_visited", full.search.visited_count as u64),
        ];
        records.push(rec);
    }

    if want("e16") {
        use cb_optimizer::{CostBound, OptimizerConfig, SearchStrategy};
        let p = prepared_projdept(50, 10, 25);
        let must_cfg = OptimizerConfig {
            strategy: SearchStrategy::CostGuided,
            ..Default::default()
        };
        let floor_cfg = OptimizerConfig {
            bound: CostBound::AccessFloor,
            ..must_cfg.clone()
        };
        let mut counters = (0u64, 0u64, 0u64, 0u64, f64::NAN);
        let mut rec = measure("e16_must_remain_bound", ITERS, || {
            let out = Optimizer::with_config(&p.catalog, must_cfg.clone())
                .optimize(&p.query)
                .ok()?;
            counters = (
                out.search.visited_count as u64,
                out.search.pruned() as u64,
                out.search.pruned_at_gate as u64,
                out.search.pruned_at_visit as u64,
                out.best.cost,
            );
            Some(out.cache)
        });
        let floor = Optimizer::with_config(&p.catalog, floor_cfg)
            .optimize(&p.query)
            .unwrap();
        let full = p.optimizer().optimize(&p.query).unwrap();
        assert!((counters.4 - full.best.cost).abs() < 1e-9);
        assert!((floor.best.cost - full.best.cost).abs() < 1e-9);
        // The acceptance bar of the must-remain bound, enforced wherever
        // the record is produced (CI runs this on every push): at least
        // 3x the single-access-floor pruning on ProjDept.
        assert!(
            counters.1 >= 3 * (floor.search.pruned() as u64).max(1),
            "must-remain pruned {} < 3x access-floor pruned {}",
            counters.1,
            floor.search.pruned()
        );
        rec.extra = vec![
            ("nodes_visited", counters.0),
            ("nodes_pruned_by_cost", counters.1),
            ("nodes_pruned_at_gate", counters.2),
            ("nodes_pruned_at_visit", counters.3),
            ("access_floor_pruned", floor.search.pruned() as u64),
            ("exhaustive_nodes_visited", full.search.visited_count as u64),
            (
                // The CI regression guard reads this: pruned / visited,
                // in thousandths (the pre-must-remain baseline was ~21).
                "pruned_ratio_x1000",
                (1000.0 * counters.1 as f64 / counters.0.max(1) as f64) as u64,
            ),
        ];
        records.push(rec);
    }

    if want("e19") {
        use cb_engine::exec::{compile, execute_with_stats, CompileOptions};
        let p = prepared_views(1_000, 1_000, 0.05);
        let ev = p.evaluator();
        let nested = compile(
            &p.query,
            CompileOptions {
                hash_joins: false,
                ..Default::default()
            },
        );
        let hashed = compile(
            &p.query,
            CompileOptions {
                hash_joins: true,
                ..Default::default()
            },
        );
        let merged = compile(
            &p.query,
            CompileOptions {
                hash_joins: true,
                merge_joins: true,
                ..Default::default()
            },
        );
        // The correctness bar first: batched ≡ interpreter on every
        // pipeline of every builtin scenario at this scale, at the
        // default batch size and at batch size 1.
        for prep in [
            &p,
            &prepared_projdept(50, 10, 25),
            &prepared_indexes(5_000, 100, 50),
        ] {
            let ev = prep.evaluator();
            let reference = ev.eval_query(&prep.query).unwrap();
            for (hash_joins, merge_joins) in [(false, false), (true, false), (true, true)] {
                for batch_size in [1, CompileOptions::default().batch_size] {
                    let pipe = compile(
                        &prep.query,
                        CompileOptions {
                            hash_joins,
                            merge_joins,
                            batch_size,
                        },
                    );
                    let (batched, _) = execute_with_stats(&ev, &pipe).unwrap();
                    assert_eq!(batched, reference, "batched ≠ interpreter on {pipe}");
                }
            }
        }
        let r_interp = measure("e19_interpreter_nested", ITERS, || {
            ev.eval_query(&p.query).unwrap();
            None
        });
        let mut rec = measure("e19_batched_execution", ITERS, || {
            execute_with_stats(&ev, &nested).unwrap();
            None
        });
        let r_hash = measure("e19_batched_hash", ITERS, || {
            execute_with_stats(&ev, &hashed).unwrap();
            None
        });
        let r_merge = measure("e19_batched_merge", ITERS, || {
            execute_with_stats(&ev, &merged).unwrap();
            None
        });
        let speedup = r_interp.median_ns as f64 / rec.median_ns.max(1) as f64;
        // The batched executor's fused scan+filter must clearly beat the
        // interpreter on the nested-loop pipeline — but only assert
        // where the box is big enough for stable timings (E18's guard).
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        if cores >= 4 {
            assert!(
                speedup >= 3.2,
                "batched nested-loop speedup {speedup:.2}x over the interpreter \
                 (expected >= 3.2x on a >= 4-core box)"
            );
        }
        let (_, stats) = execute_with_stats(&ev, &nested).unwrap();
        let (hrows, hstats) = execute_with_stats(&ev, &hashed).unwrap();
        let (_, mstats) = execute_with_stats(&ev, &merged).unwrap();
        let rows_per_s = hstats.rows_processed() as f64 / (r_hash.median_ns as f64 / 1e9);
        rec.extra = vec![
            ("interpreter_median_ns", r_interp.median_ns as u64),
            ("speedup_x1000", (1000.0 * speedup) as u64),
            ("hash_batched_median_ns", r_hash.median_ns as u64),
            ("merge_batched_median_ns", r_merge.median_ns as u64),
            (
                "merge_vs_hash_x1000",
                (1000.0 * r_hash.median_ns as f64 / r_merge.median_ns.max(1) as f64) as u64,
            ),
            ("batches", stats.batches),
            (
                "sel_fill_rate_x1000",
                (1000.0 * stats.sel_fill_rate()) as u64,
            ),
            ("merge_runs_built", mstats.runs_built),
            ("merge_runs_sorted", mstats.runs_sorted),
            ("result_rows", hrows.len() as u64),
            ("rows_processed", hstats.rows_processed()),
            ("rows_per_s", rows_per_s as u64),
            ("tables_built", hstats.tables_built),
            ("tables_skipped", hstats.tables_skipped),
            ("cores", cores as u64),
        ];
        records.push(rec);
    }

    if want("e17") {
        let mut counters = (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut rec = measure("e17_static_analysis", ITERS, || {
            let lints = cb_bench::lint_builtin_scenarios();
            counters = (0, 0, 0, 0, 0);
            for lint in &lints {
                let (e, _, _) = lint.report.counts();
                assert_eq!(e, 0, "{}: {}", lint.name, lint.report);
                counters.0 += lint.report.len() as u64;
                counters.1 += lint.lookups.total as u64;
                counters.2 += lint.lookups.static_safe as u64;
                counters.3 += lint.lookups.deferred as u64;
                counters.4 += lint.lookups.unguardable as u64;
            }
            None
        });
        rec.extra = vec![
            ("diagnostics", counters.0),
            ("lookups_total", counters.1),
            ("lookups_static_safe", counters.2),
            ("lookups_deferred", counters.3),
            ("lookups_unguardable", counters.4),
        ];
        records.push(rec);
    }

    if want("e18") {
        let p = prepared_projdept(50, 10, 25);
        let v = prepared_views(1_000, 1_000, 0.05);
        let pd_full = e18_exhaustive(&p.catalog, &p.query);
        let vw_full = e18_exhaustive(&v.catalog, &v.query);
        let (pd_t1, _) = e18_time_guided(&p.catalog, &p.query, 1, ITERS);
        let (pd_t2, _) = e18_time_guided(&p.catalog, &p.query, 2, ITERS);
        let (pd_t4, pd_out) = e18_time_guided(&p.catalog, &p.query, 4, ITERS);
        let (vw_t1, _) = e18_time_guided(&v.catalog, &v.query, 1, ITERS);
        let (vw_t2, _) = e18_time_guided(&v.catalog, &v.query, 2, ITERS);
        let (vw_t4, vw_out) = e18_time_guided(&v.catalog, &v.query, 4, ITERS);
        // The correctness bar: parallel CostGuided finds the exhaustive
        // best cost on both scenarios at every thread count.
        for threads in [1usize, 2, 4] {
            let (_, o) = e18_time_guided(&p.catalog, &p.query, threads, 1);
            assert!(
                (o.best.cost - pd_full.best.cost).abs() < 1e-9,
                "projdept @ {threads} threads: {} vs exhaustive {}",
                o.best.cost,
                pd_full.best.cost
            );
            let (_, o) = e18_time_guided(&v.catalog, &v.query, threads, 1);
            assert!(
                (o.best.cost - vw_full.best.cost).abs() < 1e-9,
                "views @ {threads} threads: {} vs exhaustive {}",
                o.best.cost,
                vw_full.best.cost
            );
        }
        let pd_speedup = pd_t1 as f64 / pd_t4.max(1) as f64;
        let vw_speedup = vw_t1 as f64 / vw_t4.max(1) as f64;
        // The speedup bar only makes sense where 4 workers actually get
        // 4 cores; on smaller boxes the honest numbers are still
        // recorded, just not asserted against.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        if cores >= 4 {
            assert!(
                pd_speedup >= 1.8,
                "projdept speedup {pd_speedup:.2}x at 4 threads (expected >= 1.8x on a >= 4-core box)"
            );
        }
        let trace = &pd_out.incumbent_trace;
        let mut rec = JsonRecord {
            id: "e18_parallel_search",
            median_ns: pd_t4,
            // Memo traffic of the last 4-thread projdept run.
            cache_hit_rate: Some(pd_out.cache.hit_rate()),
            extra: Vec::new(),
        };
        rec.extra = vec![
            ("projdept_t1_ns", pd_t1 as u64),
            ("projdept_t2_ns", pd_t2 as u64),
            ("projdept_t4_ns", pd_t4 as u64),
            ("projdept_speedup_x1000", (1000.0 * pd_speedup) as u64),
            ("views_t1_ns", vw_t1 as u64),
            ("views_t2_ns", vw_t2 as u64),
            ("views_t4_ns", vw_t4 as u64),
            ("views_speedup_x1000", (1000.0 * vw_speedup) as u64),
            ("cores", cores as u64),
            ("incumbent_trace_points", trace.len() as u64),
            (
                // The quality-vs-time curve's endpoint: when the final
                // incumbent (the returned best) was first reached.
                "incumbent_time_to_best_ns",
                trace.last().map_or(0, |(d, _)| d.as_nanos() as u64),
            ),
            (
                "views_incumbent_trace_points",
                vw_out.incumbent_trace.len() as u64,
            ),
        ];
        records.push(rec);
        records.push(e18_replay_one_worker(&p));
    }

    if want("e20") {
        use cb_chase::faults::{self, ScopedFaults};
        use cb_optimizer::{OptimizerConfig, SearchStrategy};
        e20_quiet_injected_panics();
        let ns_per_hit = e20_disarmed_hit_ns();
        let p = prepared_projdept(50, 10, 25);
        let config = OptimizerConfig {
            strategy: SearchStrategy::CostGuided,
            threads: 4,
            ..Default::default()
        };
        let mut counters = (0u64, 0u64, 0u64);
        let mut rec = measure("e20_resilience_ladder", ITERS, || {
            let guard =
                ScopedFaults::install("seed=3;parallel::spawn=panic;context::contained_in=panic")
                    .unwrap();
            let out = Optimizer::with_config(&p.catalog, config.clone())
                .optimize(&p.query)
                .unwrap();
            let fs = faults::stats();
            drop(guard);
            assert_eq!(fs.injected, fs.acknowledged(), "{fs:?}");
            counters = (
                fs.injected,
                fs.acknowledged(),
                out.degradations.len() as u64,
            );
            None
        });
        rec.extra = vec![
            (
                "disarmed_hit_ns_x1000",
                (1000.0 * ns_per_hit.unwrap_or(0.0)) as u64,
            ),
            ("injected", counters.0),
            ("acknowledged", counters.1),
            ("degradation_rungs", counters.2),
        ];
        records.push(rec);
    }

    if want("e21") {
        use cb_optimizer::{OptimizerConfig, PlanService};
        // Cold vs cached preparation over a replayed workload: every
        // builtin scenario gets one service; the first preparation pays
        // the full chase & backchase, every replay must be a cache hit
        // that skips phase 2 entirely (`nodes_visited == 0` — the
        // acceptance property, asserted, not just measured).
        let scenarios = [
            prepared_projdept(50, 10, 25),
            prepared_indexes(5_000, 100, 50),
            prepared_views(1_000, 1_000, 0.05),
        ];
        let mut cold_ns: Vec<u128> = Vec::new();
        let mut warm_ns: Vec<u128> = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for p in &scenarios {
            let mut svc = PlanService::new(p.catalog.clone(), OptimizerConfig::default());
            let t = Instant::now();
            let cold = svc.prepare(&p.query).expect("cold preparation");
            cold_ns.push(t.elapsed().as_nanos());
            assert!(!cold.cache_hit && cold.nodes_visited > 0);
            for _ in 0..ITERS {
                let t = Instant::now();
                let warm = svc.prepare(&p.query).expect("warm preparation");
                warm_ns.push(t.elapsed().as_nanos());
                assert!(warm.cache_hit, "replay missed the plan cache");
                assert_eq!(warm.nodes_visited, 0, "a hit must skip phase-2 search");
            }
            let s = svc.stats();
            hits += s.hits;
            misses += s.misses;
        }
        cold_ns.sort_unstable();
        warm_ns.sort_unstable();
        let cold_median = cold_ns[cold_ns.len() / 2];
        let warm_median = warm_ns[warm_ns.len() / 2];
        let hit_rate = hits as f64 / (hits + misses) as f64;
        records.push(JsonRecord {
            id: "e21_plan_service",
            median_ns: warm_median,
            cache_hit_rate: Some(hit_rate),
            extra: vec![
                ("cold_median_ns", cold_median as u64),
                ("warm_median_ns", warm_median as u64),
                (
                    "cold_over_warm_x1000",
                    (1000.0 * cold_median as f64 / (warm_median as f64).max(1.0)) as u64,
                ),
                ("hit_rate_x1000", (1000.0 * hit_rate) as u64),
                ("workload_preparations", hits + misses),
            ],
        });
        // The stats-refresh row: a cold preparation, the first
        // re-preparation after a statistics refresh (same constraints),
        // which records the verified lattice, and the second, which
        // replays it and must not ask a single containment or
        // implication question.
        let (mut cold_ns, mut record_ns, mut replay_ns) = (Vec::new(), Vec::new(), Vec::new());
        let (mut lattice_hits, mut lattice_misses) = (0u64, 0u64);
        for (before, after) in stats_refresh_pairs() {
            for _ in 0..ITERS {
                let r = stats_refresh_replay(&before, &after);
                cold_ns.push(r.cold.as_nanos());
                record_ns.push(r.record.as_nanos());
                replay_ns.push(r.replay.as_nanos());
                lattice_hits += r.lattice_hits;
                lattice_misses += r.lattice_misses;
            }
        }
        cold_ns.sort_unstable();
        record_ns.sort_unstable();
        replay_ns.sort_unstable();
        let cold_median = cold_ns[cold_ns.len() / 2];
        let record_median = record_ns[record_ns.len() / 2];
        let replay_median = replay_ns[replay_ns.len() / 2];
        records.push(JsonRecord {
            id: "e21_stats_refresh",
            median_ns: replay_median,
            cache_hit_rate: Some(
                lattice_hits as f64 / (lattice_hits + lattice_misses).max(1) as f64,
            ),
            extra: vec![
                ("cold_median_ns", cold_median as u64),
                ("record_median_ns", record_median as u64),
                ("replay_median_ns", replay_median as u64),
                (
                    "cold_over_replay_x1000",
                    (1000.0 * cold_median as f64 / (replay_median as f64).max(1.0)) as u64,
                ),
                ("replay_lattice_hits", lattice_hits),
                ("replay_lattice_misses", lattice_misses),
            ],
        });
        // The constant-variant rows: per builtin scenario, a cold
        // preparation, a second constant (the second walk of the shape,
        // which records the verified lattice) and a third, which replays
        // it and must not ask a containment or implication question or
        // miss the lattice memo or the phase-1 chase memo; plus the
        // phase-1 time of a chase-memo miss and of a hit. The renamed-variant rows replay a third
        // query under other variable names too, and its best plan must
        // be a fresh service's.
        for (id, p, queries) in variants(false).into_iter().chain(variants(true)) {
            let (mut cold_ns, mut record_ns, mut replay_ns) = (Vec::new(), Vec::new(), Vec::new());
            let (mut lattice_hits, mut lattice_misses) = (0u64, 0u64);
            let (mut miss_ns, mut hit_ns, mut shape_hit_ns) = (Vec::new(), Vec::new(), Vec::new());
            let mut best = None;
            for _ in 0..ITERS {
                let (r, replayed, shape_hit) = variant_replay(&p, &queries);
                shape_hit_ns.push(shape_hit.as_nanos());
                cold_ns.push(r.cold.as_nanos());
                record_ns.push(r.record.as_nanos());
                replay_ns.push(r.replay.as_nanos());
                lattice_hits += r.lattice_hits;
                lattice_misses += r.lattice_misses;
                best = Some(replayed);
                let (miss, hit) = phase1_miss_and_hit(&p, &queries);
                miss_ns.push(miss.as_nanos());
                hit_ns.push(hit.as_nanos());
            }
            let median = |v: &mut Vec<u128>| {
                v.sort_unstable();
                v[v.len() / 2]
            };
            assert_plans_as_fresh(&p, &queries[2], &best.expect("ITERS > 0"));
            let (cold, record, replay) = (
                median(&mut cold_ns),
                median(&mut record_ns),
                median(&mut replay_ns),
            );
            let (phase1_miss, phase1_hit) = (median(&mut miss_ns), median(&mut hit_ns));
            let shape_hit = median(&mut shape_hit_ns);
            records.push(JsonRecord {
                id,
                median_ns: replay,
                cache_hit_rate: Some(
                    lattice_hits as f64 / (lattice_hits + lattice_misses).max(1) as f64,
                ),
                extra: vec![
                    ("cold_median_ns", cold as u64),
                    ("record_median_ns", record as u64),
                    ("replay_median_ns", replay as u64),
                    (
                        "cold_over_replay_x1000",
                        (1000.0 * cold as f64 / (replay as f64).max(1.0)) as u64,
                    ),
                    ("replay_lattice_hits", lattice_hits),
                    ("replay_lattice_misses", lattice_misses),
                    ("phase1_miss_median_ns", phase1_miss as u64),
                    ("phase1_hit_median_ns", phase1_hit as u64),
                    ("shape_hit_median_ns", shape_hit as u64),
                ],
            });
        }
    }

    let mut out =
        String::from("{\n  \"suite\": \"universal-plans experiments\",\n  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let rate = match r.cache_hit_rate {
            Some(v) => format!("{v:.4}"),
            None => "null".to_string(),
        };
        let extra: String = r
            .extra
            .iter()
            .map(|(k, v)| format!(", \"{k}\": {v}"))
            .collect();
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"median_ns\": {}, \"cache_hit_rate\": {}{}}}{}\n",
            r.id,
            r.median_ns,
            rate,
            extra,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, &out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {} records to {path}", records.len());
}

/// The R ⋈ S + k-copies-of-V scenario used by the E7/E8 scaling sweeps.
fn views_scenario(k: usize) -> (cb_catalog::Catalog, pcql::Query) {
    let mut catalog = cb_catalog::Catalog::new();
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
    let q = parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap();
    (catalog, q)
}

/// E13 — ablation: exhaustive backchase (Theorem 2) vs. the paper's §3
/// greedy "remove logical-only bindings first" strategy.
fn e13_strategy_ablation() {
    banner("E13", "exhaustive vs. greedy backchase (ablation)");
    use cb_optimizer::{OptimizerConfig, SearchStrategy};
    let mut rows = Vec::new();
    for (name, mk) in [("projdept", 0usize), ("§4 indexes", 1), ("§4 views", 2)] {
        let p = match mk {
            0 => prepared_projdept(50, 10, 25),
            1 => prepared_indexes(5_000, 100, 50),
            _ => prepared_views(1_000, 1_000, 0.05),
        };
        let t0 = Instant::now();
        let full = Optimizer::new(&p.catalog).optimize(&p.query).unwrap();
        let full_ms = t0.elapsed().as_secs_f64() * 1e3;
        let config = OptimizerConfig {
            strategy: SearchStrategy::Greedy,
            cost_visited: false,
            ..Default::default()
        };
        let t1 = Instant::now();
        let greedy = Optimizer::with_config(&p.catalog, config)
            .optimize(&p.query)
            .unwrap();
        let greedy_ms = t1.elapsed().as_secs_f64() * 1e3;
        rows.push(vec![
            name.to_string(),
            format!("{full_ms:.0}"),
            format!("{:.1}", full.best.cost),
            format!("{greedy_ms:.0}"),
            format!("{:.1}", greedy.best.cost),
            format!("{:.2}x", greedy.best.cost / full.best.cost.max(1e-9)),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "scenario",
                "exhaustive ms",
                "best cost",
                "greedy ms",
                "greedy cost",
                "quality gap"
            ],
            &rows
        )
    );
}

/// E14 — cost-guided branch-and-bound vs. exhaustive enumerate-then-cost:
/// identical best cost (the bound is admissible), strictly fewer
/// subqueries costed wherever the bound bites.
fn e14_cost_guided_pruning() {
    banner(
        "E14",
        "cost-guided backchase: branch-and-bound pruning vs. exhaustive",
    );
    use cb_optimizer::{OptimizerConfig, SearchStrategy};
    let mut rows = Vec::new();
    for (name, mk) in [("projdept", 0usize), ("§4 indexes", 1), ("§4 views", 2)] {
        let p = match mk {
            0 => prepared_projdept(50, 10, 25),
            1 => prepared_indexes(5_000, 100, 50),
            _ => prepared_views(1_000, 1_000, 0.05),
        };
        let t0 = Instant::now();
        let full = Optimizer::new(&p.catalog).optimize(&p.query).unwrap();
        let full_ms = t0.elapsed().as_secs_f64() * 1e3;
        let config = OptimizerConfig {
            strategy: SearchStrategy::CostGuided,
            ..Default::default()
        };
        let t1 = Instant::now();
        let guided = Optimizer::with_config(&p.catalog, config)
            .optimize(&p.query)
            .unwrap();
        let guided_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert!(
            (guided.best.cost - full.best.cost).abs() < 1e-9,
            "{name}: guided best {} != exhaustive best {}",
            guided.best.cost,
            full.best.cost
        );
        rows.push(vec![
            name.to_string(),
            full.search.visited_count.to_string(),
            format!("{full_ms:.0}"),
            guided.search.visited_count.to_string(),
            guided.search.pruned().to_string(),
            format!(
                "{:.0}%",
                100.0 * guided.search.pruned() as f64 / full.search.visited_count.max(1) as f64
            ),
            format!("{guided_ms:.0}"),
            format!("{:.1}", guided.best.cost),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "scenario",
                "exhaustive nodes",
                "ms",
                "guided nodes",
                "pruned",
                "ratio",
                "ms",
                "best cost"
            ],
            &rows
        )
    );
    println!(
        "(best costs are asserted identical — the lower bound is admissible;\n\
         pruned counts sublattices cut before being costed — gate cuts also\n\
         skip the equivalence checks entirely)"
    );
}

/// E15 — the slot-compiled pipeline executor vs. the tree-walking
/// interpreter: wall-clock and operator-rows/s on the §4 scenarios (plus
/// ProjDept) at the E13 scales, where the rows go per operator, and the
/// lazy-build guarantee.
fn e15_pipeline_execution() {
    banner("E15", "slot-compiled pipeline executor vs. the interpreter");
    use cb_engine::exec::{compile, execute_with_stats, CompileOptions};
    let mut rows = Vec::new();
    let mut views_report: Option<String> = None;
    for (name, mk) in [("projdept", 0usize), ("§4 indexes", 1), ("§4 views", 2)] {
        let p = match mk {
            0 => prepared_projdept(50, 10, 25),
            1 => prepared_indexes(5_000, 100, 50),
            _ => prepared_views(1_000, 1_000, 0.05),
        };
        let ev = p.evaluator();
        let t0 = Instant::now();
        let reference = ev.eval_query(&p.query).unwrap();
        let eval_ms = t0.elapsed().as_secs_f64() * 1e3;
        let nested = compile(
            &p.query,
            CompileOptions {
                hash_joins: false,
                ..Default::default()
            },
        );
        let hashed = compile(
            &p.query,
            CompileOptions {
                hash_joins: true,
                ..Default::default()
            },
        );
        let t1 = Instant::now();
        let (nl_rows, _) = execute_with_stats(&ev, &nested).unwrap();
        let nl_ms = t1.elapsed().as_secs_f64() * 1e3;
        let t2 = Instant::now();
        let (hj_rows, stats) = execute_with_stats(&ev, &hashed).unwrap();
        let hj_ms = t2.elapsed().as_secs_f64() * 1e3;
        assert_eq!(nl_rows, reference);
        assert_eq!(hj_rows, reference);
        let rows_per_s = stats.rows_processed() as f64 / (hj_ms / 1e3).max(1e-9);
        rows.push(vec![
            name.to_string(),
            format!("{eval_ms:.2}"),
            format!("{nl_ms:.2}"),
            format!("{hj_ms:.2}"),
            format!("{:.1}x", eval_ms / hj_ms.max(1e-9)),
            format!("{:.0}k", rows_per_s / 1e3),
            format!("{}/{}", stats.tables_built, stats.tables_skipped),
        ]);
        if mk == 2 {
            views_report = Some(format!("pipeline: {hashed}\n{}", stats.render(&hashed)));
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "scenario",
                "interp ms",
                "pipeline ms",
                "hash pipe ms",
                "speedup",
                "op-rows/s",
                "tables b/s"
            ],
            &rows
        )
    );
    println!("\nwhere the §4-views rows went (hash pipeline):");
    print!("{}", views_report.unwrap());

    // The lazy-build guarantee: a hash join below an empty outer stream
    // never pays for its table.
    let mut inst = cb_engine::Instance::new();
    inst.set("R", cb_engine::Value::Set(BTreeSet::new()));
    inst.set(
        "S",
        cb_engine::Value::set((0..100_000).map(|k| {
            cb_engine::Value::record([
                ("B", cb_engine::Value::Int(k % 100)),
                ("C", cb_engine::Value::Int(k)),
            ])
        })),
    );
    let q = parse_query("select struct(C = s.C) from R r, S s where r.B = s.B").unwrap();
    let hashed = compile(
        &q,
        CompileOptions {
            hash_joins: true,
            ..Default::default()
        },
    );
    let ev = Evaluator::new(&inst);
    let t = Instant::now();
    let (out, stats) = execute_with_stats(&ev, &hashed).unwrap();
    println!(
        "\nempty outer stream over |S| = 100000: {} rows in {:.3} ms, \
         tables built {} / skipped {} (the eager executor built the 100k-row table anyway)",
        out.len(),
        t.elapsed().as_secs_f64() * 1e3,
        stats.tables_built,
        stats.tables_skipped
    );
    assert_eq!(stats.tables_built, 0);
}

/// E19 — the batched push-based executor vs the interpreter, on every
/// builtin scenario at E13/E15 scales, plus merge vs hash joins on
/// ordered roots.
fn e19_batched_execution() {
    banner("E19", "batch-vectorized execution: batched vs interpreter");
    use cb_engine::exec::{compile, execute_with_stats, CompileOptions};
    let mut rows = Vec::new();
    for (name, mk) in [("projdept", 0usize), ("§4 indexes", 1), ("§4 views", 2)] {
        let p = match mk {
            0 => prepared_projdept(50, 10, 25),
            1 => prepared_indexes(5_000, 100, 50),
            _ => prepared_views(1_000, 1_000, 0.05),
        };
        let ev = p.evaluator();
        let t0 = Instant::now();
        let reference = ev.eval_query(&p.query).unwrap();
        let eval_ms = t0.elapsed().as_secs_f64() * 1e3;
        let nested = compile(
            &p.query,
            CompileOptions {
                hash_joins: false,
                ..Default::default()
            },
        );
        let t1 = Instant::now();
        let (batch_rows, stats) = execute_with_stats(&ev, &nested).unwrap();
        let batch_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(batch_rows, reference);
        rows.push(vec![
            name.to_string(),
            format!("{eval_ms:.2}"),
            format!("{batch_ms:.2}"),
            format!("{:.1}x", eval_ms / batch_ms.max(1e-9)),
            format!("{}", stats.batches),
            format!("{:.0}%", 100.0 * stats.sel_fill_rate()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "scenario",
                "interp ms",
                "batched ms",
                "speedup",
                "batches",
                "sel fill"
            ],
            &rows
        )
    );

    // Merge vs hash joins on ordered roots: the §4 views join key is the
    // first field of S's records, so the BTreeSet iteration order already
    // sorts the merge run — no sort is paid.
    let p = prepared_views(1_000, 1_000, 0.05);
    let ev = p.evaluator();
    let hashed = compile(
        &p.query,
        CompileOptions {
            hash_joins: true,
            ..Default::default()
        },
    );
    let merged = compile(
        &p.query,
        CompileOptions {
            hash_joins: true,
            merge_joins: true,
            ..Default::default()
        },
    );
    let t = Instant::now();
    let (h_rows, _) = execute_with_stats(&ev, &hashed).unwrap();
    let hash_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let (m_rows, mstats) = execute_with_stats(&ev, &merged).unwrap();
    let merge_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(h_rows, m_rows);
    println!(
        "\nordered-root join, §4 views: hash {hash_ms:.3} ms vs merge {merge_ms:.3} ms \
         ({} run(s) built, {} needed a sort)",
        mstats.runs_built, mstats.runs_sorted
    );
    println!("\nmerge pipeline:\n{merged}\n{}", mstats.render(&merged));
}

/// E16 — the must-remain cost bound: summing the access floors of the
/// bindings every output-preserving removal set keeps vs. the single
/// cheapest access floor (the PR-3 bound, kept as
/// `CostBound::AccessFloor`). Same best cost — both bounds are
/// admissible — with a multiplied pruning ratio.
fn e16_must_remain_bound() {
    banner(
        "E16",
        "must-remain cost bound: summed floors vs the single access floor",
    );
    use cb_optimizer::{CostBound, OptimizerConfig, SearchStrategy};
    let mut rows = Vec::new();
    let mut projdept_pruned = (0usize, 0usize);
    for (name, mk) in [("projdept", 0usize), ("§4 indexes", 1), ("§4 views", 2)] {
        let p = match mk {
            0 => prepared_projdept(50, 10, 25),
            1 => prepared_indexes(5_000, 100, 50),
            _ => prepared_views(1_000, 1_000, 0.05),
        };
        let full = Optimizer::new(&p.catalog).optimize(&p.query).unwrap();
        let must_cfg = OptimizerConfig {
            strategy: SearchStrategy::CostGuided,
            ..Default::default()
        };
        let floor_cfg = OptimizerConfig {
            bound: CostBound::AccessFloor,
            ..must_cfg.clone()
        };
        let floor = Optimizer::with_config(&p.catalog, floor_cfg)
            .optimize(&p.query)
            .unwrap();
        let must = Optimizer::with_config(&p.catalog, must_cfg)
            .optimize(&p.query)
            .unwrap();
        for (label, out) in [("access-floor", &floor), ("must-remain", &must)] {
            assert!(
                (out.best.cost - full.best.cost).abs() < 1e-9,
                "{name}: {label} best {} != exhaustive best {}",
                out.best.cost,
                full.best.cost
            );
        }
        if mk == 0 {
            projdept_pruned = (floor.search.pruned(), must.search.pruned());
        }
        let ratio = |o: &cb_optimizer::OptimizeOutcome| {
            100.0 * o.search.pruned() as f64 / full.search.visited_count.max(1) as f64
        };
        rows.push(vec![
            name.to_string(),
            full.search.visited_count.to_string(),
            format!("{} ({:.0}%)", floor.search.pruned(), ratio(&floor)),
            format!("{} ({:.0}%)", must.search.pruned(), ratio(&must)),
            format!(
                "{}g+{}v",
                must.search.pruned_at_gate, must.search.pruned_at_visit
            ),
            format!(
                "{:.1}x",
                must.search.pruned() as f64 / floor.search.pruned().max(1) as f64
            ),
            match must.must_remain() {
                core if core.is_empty() => "-".to_string(),
                core => core.join(","),
            },
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "scenario",
                "exhaustive nodes",
                "floor pruned",
                "must-remain pruned",
                "gate+visit",
                "improvement",
                "root must-remain"
            ],
            &rows
        )
    );
    println!(
        "(best costs asserted identical across exhaustive / access-floor /\n\
         must-remain — both bounds are admissible; the must-remain bound sums\n\
         the floors of every binding no output-preserving removal set can\n\
         drop, so cones forced through an expensive access are cut wholesale)"
    );
    assert!(
        projdept_pruned.1 >= 3 * projdept_pruned.0.max(1),
        "projdept: must-remain pruned {} < 3x access-floor pruned {}",
        projdept_pruned.1,
        projdept_pruned.0
    );
}

/// E17 — the static verifier over every builtin scenario: lint
/// wall-clock, diagnostic counts, and how much of the lookup-safety work
/// the syntactic pass discharges without the chase-based prover.
fn e17_static_analysis() {
    banner(
        "E17",
        "static analysis: scenario lint wall-clock and lookup-safety split",
    );
    let t = Instant::now();
    let lints = cb_bench::lint_builtin_scenarios();
    let total_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut rows = Vec::new();
    for lint in &lints {
        let (e, w, i) = lint.report.counts();
        rows.push(vec![
            lint.name.to_string(),
            format!("{e}/{w}/{i}"),
            lint.lookups.total.to_string(),
            lint.lookups.static_safe.to_string(),
            lint.lookups.deferred.to_string(),
            lint.lookups.unguardable.to_string(),
        ]);
        assert!(!lint.report.has_errors(), "{}: {}", lint.name, lint.report);
    }
    println!(
        "{}",
        render_table(
            &[
                "scenario",
                "err/warn/info",
                "lookups",
                "static-safe",
                "deferred",
                "unguardable"
            ],
            &rows
        )
    );
    println!("lint wall-clock over all scenarios (incl. candidate enumeration): {total_ms:.1} ms");
    println!("no error-severity diagnostics — the builtin scenarios are certified clean");
}

/// E18's workload: one `CostGuided` optimization at a worker count.
/// Returns the median wall clock over `iters` runs and the last outcome.
fn e18_time_guided(
    catalog: &cb_catalog::Catalog,
    q: &pcql::Query,
    threads: usize,
    iters: usize,
) -> (u128, cb_optimizer::OptimizeOutcome) {
    use cb_optimizer::{OptimizerConfig, SearchStrategy};
    let config = OptimizerConfig {
        strategy: SearchStrategy::CostGuided,
        threads,
        ..Default::default()
    };
    let mut samples: Vec<u128> = Vec::with_capacity(iters);
    let mut last = None;
    for _ in 0..iters {
        let t = Instant::now();
        let out = Optimizer::with_config(catalog, config.clone())
            .optimize(q)
            .unwrap();
        samples.push(t.elapsed().as_nanos());
        last = Some(out);
    }
    samples.sort_unstable();
    (samples[samples.len() / 2], last.unwrap())
}

/// E18's per-node protocol row: the median of a ProjDept lattice replay
/// at one worker. The replay is the third walk of the universal plan and
/// asks no proof, so what it times is the walk's own bookkeeping: pops,
/// claims, settles and the memo reads, about 340 nodes' worth.
fn e18_replay_one_worker(p: &Prepared) -> JsonRecord {
    let ctx = ChaseContext::new(p.catalog.all_constraints(), ChaseConfig::default());
    let u = ctx.chase(&p.query).query;
    let walk = || {
        PlanSearch::new(&u)
            .with_collect_visited(false)
            .run(&ctx, &ExploreAll)
    };
    // The first walk sights the shape, the second records its lattice.
    walk();
    walk();
    let before = ctx.stats();
    let mut visited = 0;
    let mut rec = measure("e18_replay_one_worker", 400, || {
        visited = walk().counters.visited_count;
        None
    });
    let after = ctx.stats();
    assert_eq!(after.lattice_misses, before.lattice_misses, "{after:?}");
    assert_eq!(
        after.containment_hits + after.containment_misses,
        before.containment_hits + before.containment_misses,
        "a replay asks no containment question: {after:?}"
    );
    rec.extra = vec![("nodes_visited", visited as u64)];
    rec
}

/// E18's baseline: the one-worker exhaustive search (explicit config, so
/// the record is insensitive to `CB_SEARCH_THREADS` in the environment).
fn e18_exhaustive(catalog: &cb_catalog::Catalog, q: &pcql::Query) -> cb_optimizer::OptimizeOutcome {
    use cb_optimizer::OptimizerConfig;
    let config = OptimizerConfig {
        cost_visited: true,
        ..Default::default()
    };
    Optimizer::with_config(catalog, config).optimize(q).unwrap()
}

/// E18 — the parallel anytime frontier: wall clock at 1/2/4 workers on
/// ProjDept and the §4 views scenario, the incumbent-quality-vs-time
/// curve, and the memo traffic of the chase core.
fn e18_parallel_search() {
    banner(
        "E18",
        "parallel plan search: speedup, incumbent descent, memo traffic",
    );
    let scenarios = [
        ("projdept", prepared_projdept(50, 10, 25)),
        ("views §4", prepared_views(1_000, 1_000, 0.05)),
    ];
    let mut rows = Vec::new();
    for (name, p) in &scenarios {
        let full = e18_exhaustive(&p.catalog, &p.query);
        let (t1, _) = e18_time_guided(&p.catalog, &p.query, 1, 3);
        for threads in [1usize, 2, 4] {
            let (ns, out) = e18_time_guided(&p.catalog, &p.query, threads, 3);
            assert!(
                (out.best.cost - full.best.cost).abs() < 1e-9,
                "{name} @ {threads} threads: best {} vs exhaustive {}",
                out.best.cost,
                full.best.cost
            );
            rows.push(vec![
                name.to_string(),
                threads.to_string(),
                format!("{:.2}", ns as f64 / 1e6),
                format!("{:.2}x", t1 as f64 / ns.max(1) as f64),
                format!("{:.1}", out.best.cost),
                out.search.visited_count.to_string(),
                format!("{:.0}%", 100.0 * out.cache.hit_rate()),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "scenario",
                "threads",
                "median ms",
                "speedup",
                "best cost",
                "visited",
                "memo hits"
            ],
            &rows
        )
    );
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("available cores: {cores} (speedup is bounded by the box, not the frontier)");
    let (_, out) = e18_time_guided(&scenarios[0].1.catalog, &scenarios[0].1.query, 4, 1);
    println!("incumbent descent (projdept, 4 workers):");
    for (elapsed, cost) in &out.incumbent_trace {
        println!(
            "  {:>9.3} ms  cost {:.1}",
            elapsed.as_secs_f64() * 1e3,
            cost
        );
    }
    println!(
        "every thread count returns the exhaustive best cost; the anytime budget\n\
         (SearchBudget) can stop this search at any point and still return a\n\
         fully verified incumbent — see the parallel_search integration tests"
    );
}

/// E20 — the resilience layer: the disarmed failpoint cost and the
/// degradation ladder walked rung by rung under representative fault
/// schedules, with the no-silent-swallowing invariant asserted per run.
fn e20_resilience() {
    use cb_chase::faults::{self, ScopedFaults};
    use cb_optimizer::{Degradation, OptimizerConfig, SearchStrategy};
    banner("E20", "fault injection: the degradation ladder, end to end");
    match e20_disarmed_hit_ns() {
        Some(ns) => println!("disarmed failpoint hit: {ns:.2} ns (one relaxed atomic load)"),
        None => println!("disarmed failpoint hit: n/a (a fault schedule is armed)"),
    }

    e20_quiet_injected_panics();
    let p = prepared_projdept(50, 10, 25);
    let config = OptimizerConfig {
        strategy: SearchStrategy::CostGuided,
        threads: 4,
        ..Default::default()
    };
    let clean = Optimizer::with_config(&p.catalog, config.clone())
        .optimize(&p.query)
        .unwrap();
    let schedules = [
        ("armed, nothing fires", "seed=1"),
        ("one worker death", "parallel::pop=panic@4"),
        ("every spawn dies -> rung 2", "parallel::spawn=panic"),
        (
            "full ladder -> rung 3",
            "seed=3;parallel::spawn=panic;context::contained_in=panic",
        ),
        (
            "transient errors everywhere",
            "seed=7;chase::step=err%0.3;shared::checkout=err%0.3",
        ),
    ];
    let mut rows = Vec::new();
    for (label, spec) in schedules {
        let guard = ScopedFaults::install(spec).unwrap();
        let out = Optimizer::with_config(&p.catalog, config.clone())
            .optimize(&p.query)
            .unwrap();
        let fs = faults::stats();
        drop(guard);
        assert_eq!(fs.injected, fs.acknowledged(), "{label}: {fs:?}");
        let fell_back = out
            .degradations
            .iter()
            .any(|d| matches!(d, Degradation::UniversalFallback { .. }));
        if !fell_back {
            assert!(
                (out.best.cost - clean.best.cost).abs() < 1e-9,
                "{label}: best cost {} != fault-free {}",
                out.best.cost,
                clean.best.cost
            );
        }
        rows.push(vec![
            label.to_string(),
            spec.to_string(),
            fs.injected.to_string(),
            out.search.workers_died.to_string(),
            out.degradations.len().to_string(),
            if fell_back {
                "universal plan".to_string()
            } else {
                "fault-free best".to_string()
            },
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "schedule",
                "CB_FAULTS",
                "injected",
                "workers died",
                "rungs",
                "surviving answer"
            ],
            &rows
        )
    );
    println!(
        "every injected fault is acknowledged (recovered or reported); the\n\
         surviving answer is the fault-free best unless the ladder's last rung\n\
         was taken, where it is the verified universal plan — the chaos\n\
         differential harness (tests/chaos.rs) sweeps random schedules"
    );
}

/// Silences the default panic hook's backtrace spam for *injected*
/// panics (they are caught and recovered by design); genuine panics
/// still print through the previous hook. Process-wide and idempotent
/// enough for a benchmark binary.
fn e20_quiet_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("cb-fault:"))
            || info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.starts_with("cb-fault:"));
        if !injected {
            previous(info);
        }
    }));
}

/// The disarmed-failpoint microbenchmark: ns per [`cb_chase::faults::hit`]
/// with no schedule armed (`None` if one is armed — e.g. `CB_FAULTS` in
/// the environment — since the measurement would be meaningless).
fn e20_disarmed_hit_ns() -> Option<f64> {
    if cb_chase::faults::armed() {
        return None;
    }
    const N: u32 = 1_000_000;
    let t = Instant::now();
    for _ in 0..N {
        let _ = std::hint::black_box(cb_chase::faults::hit(std::hint::black_box("parallel::pop")));
    }
    Some(t.elapsed().as_nanos() as f64 / f64::from(N))
}

/// E21 — the prepared-plan service: cold vs cached preparation over a
/// replayed workload, with the "a hit skips phase 2" property asserted.
fn e21_plan_service() {
    use cb_optimizer::{explain_prepared, OptimizerConfig, PlanRepr, PlanService};
    banner("E21", "plan service: cold vs cached preparation");
    let scenarios = [
        ("projdept", prepared_projdept(50, 10, 25)),
        ("relational_indexes", prepared_indexes(5_000, 100, 50)),
        ("relational_views", prepared_views(1_000, 1_000, 0.05)),
    ];
    const REPLAYS: usize = 10;
    let mut rows = Vec::new();
    for (name, p) in &scenarios {
        let mut svc = PlanService::new(p.catalog.clone(), OptimizerConfig::default());
        let t = Instant::now();
        let cold = svc.prepare(&p.query).expect("cold preparation");
        let cold_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        for _ in 0..REPLAYS {
            let warm = svc.prepare(&p.query).expect("warm preparation");
            assert!(warm.cache_hit);
            assert_eq!(warm.nodes_visited, 0, "a hit must skip phase-2 search");
        }
        let warm_ms = t.elapsed().as_secs_f64() * 1e3 / REPLAYS as f64;
        // The serialized plan round-trips and re-verifies against the
        // service's own catalog.
        let repr = PlanRepr::from_outcome(&cold.plan.outcome);
        let reparsed = PlanRepr::parse(&repr.render()).expect("round trip");
        assert_eq!(reparsed, repr);
        reparsed.load_verified(svc.catalog()).expect("load-verify");
        rows.push(vec![
            (*name).to_string(),
            format!("{cold_ms:.2}"),
            format!("{warm_ms:.4}"),
            format!("{:.0}x", cold_ms / warm_ms.max(1e-9)),
            format!("{:.2}", svc.stats().hit_rate()),
            cold.nodes_visited.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "scenario",
                "cold ms",
                "cached ms",
                "speedup",
                "hit rate",
                "cold nodes visited",
            ],
            &rows
        )
    );
    // A statistics refresh invalidates the cached plan but not the
    // chase memos: the first re-preparation records the verified
    // lattice, the second replays it.
    let mut rows = Vec::new();
    for (before, after) in stats_refresh_pairs() {
        let r = stats_refresh_replay(&before, &after);
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let (cold_ms, replay_ms) = (ms(r.cold), ms(r.replay));
        rows.push(vec![
            r.universal,
            format!("{cold_ms:.2}"),
            format!("{:.2}", ms(r.record)),
            format!("{replay_ms:.2}"),
            format!("{:.0}x", cold_ms / replay_ms.max(1e-9)),
            r.lattice_hits.to_string(),
            r.nodes_visited.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "universal plan",
                "cold ms",
                "1st refresh ms",
                "2nd refresh ms",
                "speedup",
                "lattice hits",
                "nodes visited",
            ],
            &rows
        )
    );
    // Three queries differing only in a constant: the second records the
    // lattice of their shape, the third replays it with its own constant
    // — and, in the renamed variants, its own variable names.
    let mut rows = Vec::new();
    for (id, p, queries) in variants(false).into_iter().chain(variants(true)) {
        let (r, best, hit) = variant_replay(&p, &queries);
        assert_plans_as_fresh(&p, &queries[2], &best);
        let (miss, phase1_hit) = phase1_miss_and_hit(&p, &queries);
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let (cold_ms, replay_ms) = (ms(r.cold), ms(r.replay));
        rows.push(vec![
            id.trim_start_matches("e21_").to_string(),
            format!("{cold_ms:.2}"),
            format!("{:.2}", ms(r.record)),
            format!("{replay_ms:.2}"),
            format!("{:.0}x", cold_ms / replay_ms.max(1e-9)),
            r.lattice_hits.to_string(),
            r.nodes_visited.to_string(),
            format!("{:.3} / {:.3}", ms(miss), ms(phase1_hit)),
            format!("{:.3}", ms(hit)),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "variant",
                "1st query ms",
                "2nd query ms",
                "3rd query ms",
                "speedup",
                "lattice hits",
                "nodes visited",
                "phase 1 ms (miss / hit)",
                "shape hit ms",
            ],
            &rows
        )
    );
    // One EXPLAIN of a serialized plan, for the record.
    let p = prepared_projdept(20, 5, 5);
    let mut svc = PlanService::new(p.catalog.clone(), OptimizerConfig::default());
    let prepared = svc.prepare(&p.query).expect("prepare");
    let repr = PlanRepr::from_outcome(&prepared.plan.outcome);
    println!("{}", explain_prepared(&repr));
}

/// Each builtin scenario at two data scales: the same constraints under
/// two sets of statistics, for E21's stats-refresh replay.
fn stats_refresh_pairs() -> [(Prepared, Prepared); 3] {
    [
        (prepared_projdept(50, 10, 25), prepared_projdept(80, 8, 20)),
        (
            prepared_indexes(5_000, 100, 50),
            prepared_indexes(2_000, 40, 200),
        ),
        (
            prepared_views(1_000, 1_000, 0.05),
            prepared_views(500, 2_000, 0.5),
        ),
    ]
}

/// One E21 stats-refresh measurement.
struct Replay {
    /// The universal plan's shape.
    universal: String,
    cold: std::time::Duration,
    /// The first re-preparation, which records the lattice.
    record: std::time::Duration,
    replay: std::time::Duration,
    nodes_visited: usize,
    lattice_hits: u64,
    lattice_misses: u64,
}

/// Prepares `before.query` cold under `before`'s catalog, swaps in
/// `after`'s (same constraints, new statistics) and re-prepares, then
/// swaps `before`'s back and re-prepares again. The first
/// re-preparation walks the universal plan a second time and records
/// its verified lattice; the second reads every verdict from it: it may
/// not ask a single containment or implication question, not even of
/// the memo.
fn stats_refresh_replay(before: &Prepared, after: &Prepared) -> Replay {
    use cb_optimizer::{OptimizerConfig, PlanService};
    let mut svc = PlanService::new(before.catalog.clone(), OptimizerConfig::default());
    let t = Instant::now();
    let cold = svc.prepare(&before.query).expect("cold preparation");
    let cold_time = t.elapsed();
    svc.swap_catalog(after.catalog.clone());
    let t = Instant::now();
    let recorded = svc.prepare(&before.query).expect("recording preparation");
    let record_time = t.elapsed();
    assert!(!recorded.cache_hit, "a stats refresh must re-prepare");
    svc.swap_catalog(before.catalog.clone());
    let warm = svc.chase_stats();
    let t = Instant::now();
    let replay = svc.prepare(&before.query).expect("replayed preparation");
    let replay_time = t.elapsed();
    let now = svc.chase_stats();
    assert!(!replay.cache_hit, "a stats refresh must re-prepare");
    let lookups = |s: &CacheStats| {
        s.containment_hits + s.containment_misses + s.implication_hits + s.implication_misses
    };
    assert_eq!(
        lookups(&now),
        lookups(&warm),
        "the replay asked proofs: {now:?}"
    );
    assert!(
        now.lattice_hits > warm.lattice_hits,
        "no lattice replay: {now:?}"
    );
    Replay {
        universal: shape(&cold.plan.outcome.universal),
        cold: cold_time,
        record: record_time,
        replay: replay_time,
        nodes_visited: replay.nodes_visited,
        lattice_hits: now.lattice_hits - warm.lattice_hits,
        lattice_misses: now.lattice_misses - warm.lattice_misses,
    }
}

/// Each builtin scenario at its plan-diff scale with its query for three
/// constants in one value order (so all three share one lattice shape),
/// for E21's variant replays. The §4 views query has no constant of its
/// own; its variants add `r.A = k`. With `renamed`, the third query also
/// names its variables otherwise, in the reverse order of the first two
/// queries' names and ranked otherwise among the chase's own (`i0`,
/// `k0`, `t1`, …): a shape is one plan up to a positional renaming.
fn variants(renamed: bool) -> [(&'static str, Prepared, [pcql::Query; 3]); 3] {
    let queries = |texts: [String; 3]| texts.map(|t| parse_query(&t).expect("variant parses"));
    let pick = |plain, other| if renamed { other } else { plain };
    let projdept = |c: &str, [d, s, p]: [&str; 3]| {
        format!(
            "select struct(PN = {s}, PB = {p}.Budg, DN = {d}.DName) \
             from depts {d}, {d}.DProjs {s}, Proj {p} \
             where {s} = {p}.PName and {p}.CustName = \"{c}\""
        )
    };
    let indexes = |a: i64, b: i64, r: &str| {
        format!("select struct(C = {r}.C) from R {r} where {r}.A = {a} and {r}.B = {b}")
    };
    let views = |a: i64, [r, s]: [&str; 2]| {
        format!(
            "select struct(A = {r}.A, B = {s}.B, C = {s}.C) from R {r}, S {s} \
             where {r}.B = {s}.B and {r}.A = {a}"
        )
    };
    let (dsp, rs) = (["d", "s", "p"], ["r", "s"]);
    let (dsp3, r3, rs3) = if renamed {
        (["zd", "ap", "ms"], "ar", ["sb", "ra"])
    } else {
        (dsp, "r", rs)
    };
    [
        (
            pick(
                "e21_constant_variant_projdept",
                "e21_renamed_variant_projdept",
            ),
            prepared_projdept(50, 10, 25),
            queries([
                projdept("CitiBank", dsp),
                projdept("cust3", dsp),
                projdept("cust7", dsp3),
            ]),
        ),
        (
            pick(
                "e21_constant_variant_relational_indexes",
                "e21_renamed_variant_relational_indexes",
            ),
            prepared_indexes(5_000, 100, 50),
            queries([indexes(5, 7, "r"), indexes(1, 2, "r"), indexes(2, 9, r3)]),
        ),
        (
            pick(
                "e21_constant_variant_relational_views",
                "e21_renamed_variant_relational_views",
            ),
            prepared_views(1_000, 1_000, 0.05),
            queries([views(0, rs), views(6, rs), views(11, rs3)]),
        ),
    ]
}

/// Asserts that a fresh service plans `q` as a replay did: `best` is
/// the fresh service's best plan, byte for byte, in `q`'s own names and
/// constants.
fn assert_plans_as_fresh(p: &Prepared, q: &pcql::Query, best: &pcql::Query) {
    use cb_optimizer::{OptimizerConfig, PlanService};
    let mut svc = PlanService::new(p.catalog.clone(), OptimizerConfig::default());
    let fresh = svc.prepare(q).expect("fresh preparation");
    assert_eq!(
        &fresh.plan.outcome.best.query, best,
        "the replay planned {q} otherwise"
    );
}

/// Prepares three variants of one query on one service, each after a
/// statistics refresh, so that each misses the plan cache of their one
/// shape. The first is cold; the second walks the shape a second time
/// and records its verified lattice; the third replays it, translated to
/// its own constants and names: it may not ask a single containment or
/// implication question, not even of the memo, nor miss the lattice
/// memo or the phase-1 chase memo. Then the second variant again, under
/// the third's statistics: a plan-cache hit of the shape, translated to
/// its names and constants with no search at all. Returns the replay's
/// best plan and the hit's time.
fn variant_replay(
    p: &Prepared,
    queries: &[pcql::Query; 3],
) -> (Replay, pcql::Query, std::time::Duration) {
    use cb_optimizer::{OptimizerConfig, PlanService};
    let mut refreshed = p.catalog.clone();
    for root in refreshed.stats_mut().roots.values_mut() {
        root.cardinality += 1;
    }
    let mut svc = PlanService::new(refreshed.clone(), OptimizerConfig::default());
    let prepare = |svc: &mut PlanService, q| {
        let t = Instant::now();
        let prepared = svc.prepare(q).expect("variant preparation");
        (prepared, t.elapsed())
    };
    let (cold, cold_time) = prepare(&mut svc, &queries[0]);
    svc.swap_catalog(p.catalog.clone());
    let (recorded, record_time) = prepare(&mut svc, &queries[1]);
    svc.swap_catalog(refreshed);
    svc.swap_catalog(p.catalog.clone());
    let warm = svc.chase_stats();
    let (replay, replay_time) = prepare(&mut svc, &queries[2]);
    let now = svc.chase_stats();
    for prepared in [&cold, &recorded, &replay] {
        assert!(!prepared.cache_hit, "a statistics refresh must re-prepare");
    }
    let (hit, hit_time) = prepare(&mut svc, &queries[1]);
    assert!(hit.cache_hit, "a variant of a prepared shape must hit");
    assert_eq!(hit.nodes_visited, 0, "a hit must skip phase-2 search");
    assert_eq!(svc.chase_stats(), now, "a hit asks the chase core nothing");
    assert_eq!(hit.plan.outcome.input, queries[1]);
    let lookups = |s: &CacheStats| {
        s.containment_hits + s.containment_misses + s.implication_hits + s.implication_misses
    };
    assert_eq!(
        lookups(&now),
        lookups(&warm),
        "the replay asked proofs: {now:?}"
    );
    assert_eq!(
        now.lattice_misses, warm.lattice_misses,
        "the replay missed the lattice: {now:?}"
    );
    assert_eq!(
        now.chase_misses, warm.chase_misses,
        "the replay re-chased its universal plan: {now:?}"
    );
    assert!(
        now.lattice_hits > warm.lattice_hits,
        "no lattice replay: {now:?}"
    );
    let timed = Replay {
        universal: shape(&cold.plan.outcome.universal),
        cold: cold_time,
        record: record_time,
        replay: replay_time,
        nodes_visited: replay.nodes_visited,
        lattice_hits: now.lattice_hits - warm.lattice_hits,
        lattice_misses: now.lattice_misses - warm.lattice_misses,
    };
    (timed, replay.plan.outcome.best.query.clone(), hit_time)
}

/// Phase 1 of the first and of the third variant on one chase core: a
/// chase-memo miss, then a hit of the same shape handed the outcome in
/// its own names and constants.
fn phase1_miss_and_hit(
    p: &Prepared,
    queries: &[pcql::Query; 3],
) -> (std::time::Duration, std::time::Duration) {
    let ctx = ChaseContext::new(p.catalog.all_constraints(), ChaseConfig::default());
    let t = Instant::now();
    ctx.chase(&queries[0]);
    let miss = t.elapsed();
    let t = Instant::now();
    ctx.chase(&queries[2]);
    let hit = t.elapsed();
    let stats = ctx.stats();
    assert_eq!((stats.chase_misses, stats.chase_hits), (1, 1), "{stats:?}");
    (miss, hit)
}

fn banner(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

fn shape(q: &pcql::Query) -> String {
    let mut v: Vec<String> = q.from.iter().map(|b| b.src.to_string()).collect();
    v.sort();
    v.join(" × ")
}

/// E1 — §1's four plans from the two constraint regimes.
fn e1_projdept_plan_space() {
    banner("E1", "ProjDept plan space (paper §1, plans P1–P4)");
    let p = prepared_projdept(50, 10, 25);
    let q = &p.query;

    for (regime, catalog) in [
        ("D ∪ D' (semantic + mapping)", p.catalog.clone()),
        (
            "D' only (mapping)",
            p.catalog.without_semantic_constraints(),
        ),
    ] {
        let ctx = ChaseContext::new(catalog.all_constraints(), ChaseConfig::default());
        let u = ctx.chase(q).query;
        let out = backchase(&ctx, &u);
        println!("\nregime: {regime}");
        println!("  universal plan: {} bindings", u.from.len());
        println!("  equivalent subqueries visited: {}", out.visited.len());
        println!("  minimal plans:");
        for nf in &out.normal_forms {
            println!("    {}", shape(nf));
        }
    }
    println!(
        "\npaper: P1–P4 are all equivalent plans; P2/P3/P4 are minimal under D ∪ D',\n\
         P1 appears among the visited equivalents (and under D' alone it refines\n\
         further via PI2 — see EXPERIMENTS.md)."
    );
}

/// E2 — §3's single chase step with c_JI.
fn e2_chase_step_with_cji() {
    banner("E2", "one chase step with c_JI (paper §3)");
    let q = cb_catalog::scenarios::projdept::query();
    let c_ji = parse_dependency(
        "c_JI",
        "forall (d in depts) (s in d.DProjs) (p in Proj) where s = p.PName \
         -> exists (j in JI) where j.DOID = d and j.PN = p.PName",
    )
    .unwrap();
    println!("Q:  {q}");
    let stepped = chase_step(&q, &c_ji, &ChaseConfig::default()).expect("c_JI applies");
    println!("~>  {stepped}");
    assert!(chase_step(&stepped, &c_ji, &ChaseConfig::default()).is_none());
    println!("(a second application is refused: the constraint is satisfied)");
}

/// E3 — §3's universal plan.
fn e3_universal_plan() {
    banner("E3", "the universal plan U (paper §3)");
    let catalog = cb_catalog::scenarios::projdept::catalog();
    let q = cb_catalog::scenarios::projdept::query();
    let ctx = ChaseContext::new(catalog.all_constraints(), ChaseConfig::default());
    let out = ctx.chase(&q);
    println!("chase steps: {}", out.steps.len());
    for s in &out.steps {
        println!("  [{}]", s.dep);
    }
    println!("U = {}", out.query);
    println!("bindings: {} (paper: 9)", out.query.from.len());
}

/// E4 — §3's tableau-minimization example.
fn e4_tableau_minimization() {
    banner("E4", "generalized tableau minimization (paper §3)");
    let q = parse_query(
        "select struct(A = p.A, B = r.B) from R p, R q, R r \
         where p.B = q.A and q.B = r.B",
    )
    .unwrap();
    let m = minimize(&ChaseContext::new(vec![], ChaseConfig::default()), &q);
    println!("query:     {q}");
    println!("minimized: {m}");
}

/// E5 — §4 scenario 1: index-only access paths, with measured speedups.
fn e5_index_only() {
    banner("E5", "index-only access paths (paper §4, scenario 1)");
    let p = prepared_indexes(50_000, 500, 200);
    let outcome = p.optimizer().optimize(&p.query).unwrap();
    println!("chosen plan: {}", outcome.best.query);
    let (scan_ms, n) = p.time_plan(&p.query);
    let (plan_ms, n2) = p.time_plan(&outcome.best.query);
    assert_eq!(n, n2);
    let rows = vec![
        vec![
            "base scan of R".to_string(),
            format!("{scan_ms:.2}"),
            n.to_string(),
        ],
        vec![
            "chosen index plan".to_string(),
            format!("{plan_ms:.2}"),
            n2.to_string(),
        ],
    ];
    println!("{}", render_table(&["plan", "time (ms)", "rows"], &rows));
    println!("speedup: {:.1}x", scan_ms / plan_ms.max(1e-9));
}

/// E6 — §4 scenario 2: views + indexes, navigation join, crossover in |V|.
fn e6_views_and_indexes() {
    banner("E6", "materialized view + indexes (paper §4, scenario 2)");
    let mut rows = Vec::new();
    for frac in [0.01, 0.05, 0.2, 0.5, 0.9] {
        let p = prepared_views(4000, 4000, frac);
        let outcome = p.optimizer().optimize(&p.query).unwrap();
        let (base_ms, _) = p.time_plan(&p.query);
        let (best_ms, _) = p.time_plan(&outcome.best.query);
        rows.push(vec![
            format!("{}", p.instance.cardinality("V").unwrap()),
            if outcome.best.query.to_string().contains('V') {
                "view nav"
            } else {
                "other"
            }
            .to_string(),
            format!("{base_ms:.1}"),
            format!("{best_ms:.1}"),
            format!("{:.1}x", base_ms / best_ms.max(1e-9)),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["|V|", "chosen", "base join ms", "chosen ms", "speedup"],
            &rows
        )
    );
    // The derivation of the navigation plan itself:
    let p = prepared_views(400, 400, 0.05);
    let outcome = p.optimizer().optimize(&p.query).unwrap();
    println!("navigation plan: {}", outcome.best.query);
}

/// E7 — Theorem 1: chase size grows polynomially (here: linearly) with
/// the number of views. The cold/memoized columns attribute the speedup
/// the `ChaseContext` cache provides to repeated chases.
fn e7_chase_scaling() {
    banner("E7", "chase size vs. number of views (Theorem 1)");
    let mut rows = Vec::new();
    for k in 1..=8usize {
        let (catalog, q) = views_scenario(k);
        let ctx = ChaseContext::new(catalog.all_constraints(), ChaseConfig::default());
        let t = Instant::now();
        let out = ctx.chase(&q);
        let cold_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let _ = ctx.chase(&q);
        let memo_ms = t.elapsed().as_secs_f64() * 1e3;
        let s = ctx.stats();
        rows.push(vec![
            k.to_string(),
            out.query.from.len().to_string(),
            out.query.size().to_string(),
            out.steps.len().to_string(),
            format!("{cold_ms:.1}"),
            format!("{memo_ms:.3}"),
            format!("{}h/{}m", s.hits(), s.misses()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "#views",
                "U bindings",
                "U size",
                "steps",
                "cold chase ms",
                "memo chase ms",
                "cache"
            ],
            &rows
        )
    );
}

/// E8 — the exponential backchase (paper §5 complexity discussion). The
/// cache columns show how the shared `ChaseContext` absorbs the lattice:
/// the hit rate is what keeps the exponent affordable.
fn e8_backchase_scaling() {
    banner("E8", "backchase plan space vs. number of views (paper §5)");
    let mut rows = Vec::new();
    for k in 1..=5usize {
        let (catalog, q) = views_scenario(k);
        let ctx = ChaseContext::new(catalog.all_constraints(), ChaseConfig::default());
        let u = ctx.chase(&q).query;
        let t = Instant::now();
        let out = backchase(&ctx, &u);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let s = ctx.stats();
        rows.push(vec![
            k.to_string(),
            u.from.len().to_string(),
            out.visited.len().to_string(),
            out.normal_forms.len().to_string(),
            format!("{ms:.1}"),
            format!("{}h/{}m", s.hits(), s.misses()),
            format!("{:.0}%", s.hit_rate() * 100.0),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "#views",
                "U bindings",
                "visited",
                "minimal plans",
                "backchase ms",
                "cache",
                "hit rate"
            ],
            &rows
        )
    );
    println!("(minimal plans = k views + the base join: each view answers the query)");
}

/// E9 — Theorem 2: the backchase equals brute-force minimal-subquery
/// enumeration in the theorem's regime.
fn e9_completeness() {
    banner("E9", "complete backchase vs. brute force (Theorem 2)");
    let mut catalog = cb_catalog::Catalog::new();
    catalog.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
    catalog.add_logical_relation("S", [("B", Type::Int), ("C", Type::Int)]);
    catalog.add_logical_relation("T", [("C", Type::Int), ("D", Type::Int)]);
    catalog.add_direct_mapping("R");
    catalog.add_direct_mapping("S");
    catalog.add_direct_mapping("T");
    catalog
        .add_materialized_view(
            "V1",
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap(),
        )
        .unwrap();
    catalog
        .add_materialized_view(
            "V2",
            parse_query("select struct(C = t.C, D = t.D) from T t").unwrap(),
        )
        .unwrap();
    let q = parse_query(
        "select struct(A = r.A, D = t.D) from R r, S s, T t \
         where r.B = s.B and s.C = t.C",
    )
    .unwrap();
    let ctx = ChaseContext::new(catalog.all_constraints(), ChaseConfig::default());
    let u = ctx.chase(&q).query;
    let out = backchase(&ctx, &u);

    // Brute force over all removal subsets — one shared context and one
    // canonical database across all 2^n judgements.
    let vars: Vec<String> = u.from.iter().map(|b| b.var.clone()).collect();
    let mut graph = QueryGraph::of_query(&u);
    let mut equivalents: Vec<(BTreeSet<String>, pcql::Query)> = Vec::new();
    for mask in 0..(1u32 << vars.len()) {
        let removed: BTreeSet<String> = (0..vars.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| vars[i].clone())
            .collect();
        if let RemovalJudgement::Valid(qq) = examine_removal(&ctx, &u, &mut graph, &removed) {
            equivalents.push((removed, qq));
        }
    }
    let minimal: Vec<&pcql::Query> = equivalents
        .iter()
        .filter(|(r1, _)| {
            !equivalents
                .iter()
                .any(|(r2, _)| r2.len() > r1.len() && r2.is_superset(r1))
        })
        .map(|(_, qq)| qq)
        .collect();

    let bc_shapes: BTreeSet<String> = out.normal_forms.iter().map(shape).collect();
    let bf_shapes: BTreeSet<String> = minimal.iter().map(|qq| shape(qq)).collect();
    println!("backchase normal forms: {bc_shapes:?}");
    println!("brute-force minimal:    {bf_shapes:?}");
    println!("agree: {}", bc_shapes == bf_shapes);
    assert_eq!(bc_shapes, bf_shapes);
}

/// E10 — "depending on the cost model, either one of P2, P3 and P4 may be
/// cheaper": measured execution across selectivities.
fn e10_plan_crossover() {
    banner("E10", "P1–P4 measured cost across selectivity (paper §1)");
    let mut rows = Vec::new();
    for n_customers in [2usize, 10, 100, 1000] {
        let p = prepared_projdept(100, 20, n_customers);
        let plans = cb_catalog::scenarios::projdept::paper_plans();
        let mut cells = vec![format!("1/{n_customers}")];
        let reference = p.evaluator().eval_query(&p.query).unwrap();
        let mut times = Vec::new();
        for plan in &plans {
            let (ms, _) = p.time_plan(plan);
            let rows_match = p.evaluator().eval_query(plan).unwrap() == reference;
            assert!(rows_match);
            times.push(ms);
            cells.push(format!("{ms:.2}"));
        }
        let winner = ["P1", "P2", "P3", "P4"][times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0];
        cells.push(winner.to_string());
        let outcome = p.optimizer().optimize(&p.query).unwrap();
        cells.push(shape(&outcome.best.query).to_string());
        rows.push(cells);
    }
    println!(
        "{}",
        render_table(
            &[
                "selectivity",
                "P1 ms",
                "P2 ms",
                "P3 ms",
                "P4 ms",
                "measured winner",
                "optimizer pick"
            ],
            &rows
        )
    );
}

/// E11 — each §2 structure encoding admits its intended rewrite.
fn e11_structure_encodings() {
    banner("E11", "access-structure encodings (paper §2)");

    // Gmap.
    let mut catalog = cb_catalog::Catalog::new();
    catalog.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
    catalog.add_direct_mapping("R");
    catalog
        .add_gmap(
            "G",
            cb_catalog::GmapDef {
                from: vec![pcql::Binding::iter("r", pcql::Path::root("R"))],
                where_: vec![],
                key: vec![("A".into(), pcql::Path::var("r").field("A"))],
                value: vec![("B".into(), pcql::Path::var("r").field("B"))],
            },
        )
        .unwrap();
    let q = parse_query("select struct(B = r.B) from R r where r.A = 3").unwrap();
    let out = Optimizer::new(&catalog).optimize(&q).unwrap();
    let gmap_plan = out
        .candidates
        .iter()
        .find(|c| c.query.to_string().contains('G'));
    println!(
        "gmap rewrite:              {}",
        gmap_plan.map(|c| c.query.to_string()).unwrap_or_default()
    );

    // Hash table (same constraints as a secondary index).
    let mut catalog = cb_catalog::Catalog::new();
    catalog.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
    catalog.add_logical_relation("S", [("B", Type::Int), ("C", Type::Int)]);
    catalog.add_direct_mapping("R");
    catalog.add_direct_mapping("S");
    catalog.add_hash_table("HS", "S", "B").unwrap();
    let q = parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap();
    let out = Optimizer::new(&catalog).optimize(&q).unwrap();
    let hash_plan = out
        .candidates
        .iter()
        .find(|c| c.query.to_string().contains("HS"));
    println!(
        "hash-join-style rewrite:   {}",
        hash_plan.map(|c| c.query.to_string()).unwrap_or_default()
    );

    // Access support relation over the ProjDept path.
    let mut catalog = cb_catalog::scenarios::projdept::catalog();
    catalog
        .add_access_support_relation("ASR", "depts", &["DProjs"])
        .unwrap();
    let q = parse_query("select struct(DN = d.DName, PN = s) from depts d, d.DProjs s").unwrap();
    let out = Optimizer::new(&catalog).optimize(&q).unwrap();
    let asr_plan = out
        .candidates
        .iter()
        .find(|c| c.query.to_string().contains("ASR"));
    println!(
        "ASR rewrite:               {}",
        asr_plan.map(|c| c.query.to_string()).unwrap_or_default()
    );

    // Source capability: a dictionary from bound attribute to results.
    let mut catalog = cb_catalog::Catalog::new();
    catalog.add_logical_relation("Src", [("K", Type::Int), ("P", Type::Int)]);
    catalog
        .add_source_capability(
            "ByK",
            cb_catalog::GmapDef {
                from: vec![pcql::Binding::iter("r", pcql::Path::root("Src"))],
                where_: vec![],
                key: vec![("K".into(), pcql::Path::var("r").field("K"))],
                value: vec![("P".into(), pcql::Path::var("r").field("P"))],
            },
        )
        .unwrap();
    let q = parse_query("select struct(P = r.P) from Src r where r.K = 7").unwrap();
    let out = Optimizer::new(&catalog).optimize(&q).unwrap();
    println!("source-capability rewrite: {}", out.best.query);
}

/// E12 — semantic optimization through the same machinery.
fn e12_semantic_optimization() {
    banner("E12", "semantic optimization (RIC / INV / KEY)");
    let p = prepared_projdept(20, 5, 5);
    // P2's derivation relies on RIC2 + INV2 + INV1.
    let outcome = p.optimizer().optimize(&p.query).unwrap();
    let has_p2 = outcome
        .candidates
        .iter()
        .any(|c| c.raw.from.len() == 1 && c.raw.to_string().contains("from Proj"));
    println!("P2 derivable with semantic constraints: {has_p2}");
    let bare = p.catalog.without_semantic_constraints();
    let outcome2 = Optimizer::new(&bare).optimize(&p.query).unwrap();
    let has_p2_bare = outcome2
        .candidates
        .iter()
        .any(|c| c.raw.from.len() == 1 && c.raw.to_string().contains("from Proj"));
    println!("P2 derivable without them:              {has_p2_bare}");
    assert!(has_p2 && !has_p2_bare);

    // And the full explain for the curious.
    let ev: Evaluator<'_> = p.evaluator();
    let reference = ev.eval_query(&p.query).unwrap();
    let best = ev.eval_query(&outcome.best.query).unwrap();
    assert_eq!(reference, best);
    println!("\n{}", explain(&outcome));
    let _ = Materializer::new(&p.catalog);
}
