//! The chaos differential harness: random fault schedules against the
//! resilience layer, end to end.
//!
//! Every failpoint site registered in [`cb_chase::faults::SITES`] sits on
//! a seam the multi-tenant service path exercises — shard locks, memo
//! checkouts, frontier pops, chase steps, containment proofs. This
//! harness generates schedules over those sites (panics, spurious
//! errors, memory-pressure signals, delays; counter-based and seeded
//! probabilistic triggers) and asserts the three contracts the
//! resilience layer owes its callers:
//!
//! 1. **Differential correctness** — the surviving best plan is the
//!    fault-free best plan, unless the degradation ladder's last rung
//!    was taken, in which case it is still a *verified* plan: the
//!    universal plan itself or a member of the fault-free candidate set.
//! 2. **No hangs** — every run under every schedule finishes inside a
//!    generous wall-clock guard; a worker death or a poisoned shard may
//!    degrade the search but never wedge it.
//! 3. **No silent swallowing** — every injected fault is acknowledged:
//!    `injected == recovered + reported` after every schedule.
//!
//! The vendored proptest stub does not shrink, so schedules are built
//! shrink-friendly by hand: each one is a small independent choice of
//! (site, action, trigger, seed) rendered to the `CB_FAULTS` syntax, and
//! every assertion message carries the spec string — replaying a failure
//! means pasting that spec into [`ScopedFaults::install`] in a unit
//! test.
//!
//! Panic faults stay off `chase::step`: a panic inside a chase step
//! (before a universal plan exists) has nothing to degrade to and
//! legitimately propagates to the service layer, so it gets only the
//! recoverable kinds here. A panic at a shard site during the phase-1
//! chase is recovered by the memo-free chase.

use std::time::{Duration, Instant};

use cb_optimizer::{Degradation, OptimizeOutcome, OptimizerConfig, PlanChoice, SearchStrategy};
use proptest::prelude::*;
use universal_plans::chase::faults::{self, ScopedFaults};
use universal_plans::chase::SearchBudget;
use universal_plans::prelude::*;

/// Per-run wall-clock ceiling. The scenarios finish in well under a
/// second fault-free; a schedule that pushes a run past this has wedged
/// the search, which is exactly what the harness exists to catch.
const HANG_GUARD: Duration = Duration::from_secs(120);

/// The sites a generated schedule may target with recoverable kinds
/// (err / mem / delay): everything the optimizer path can hit.
/// `exec::op` is excluded — the pipeline driver never runs during
/// `optimize`, and its typed-error surfacing has its own tests.
const RECOVERABLE_SITES: &[&str] = &[
    "chase::step",
    "context::contained_in",
    "context::implies",
    "shared::shard_lock",
    "shared::checkout",
    "shared::park",
    "shared::memo",
    "parallel::pop",
    "parallel::claim",
    "parallel::spawn",
    "parallel::visit",
];

/// The sites a generated schedule may panic at: every phase-2 seam. The
/// parallel sites unwind into a worker's `catch_unwind`; the context and
/// shared sites unwind either there or into the optimizer's phase-2
/// isolation, which degrades to the verified universal plan.
const PANIC_SITES: &[&str] = &[
    "context::contained_in",
    "context::implies",
    "shared::shard_lock",
    "shared::checkout",
    "shared::park",
    "shared::memo",
    "parallel::pop",
    "parallel::claim",
    "parallel::spawn",
    "parallel::visit",
];

/// Scenario catalogs with statistics plus their logical query — the
/// three built-in scenarios of the paper.
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

/// One generated `CB_FAULTS` schedule, already rendered to its spec
/// string (the string is the replay artifact).
fn arb_schedule() -> impl Strategy<Value = String> {
    let mut pool = Vec::new();
    for site in RECOVERABLE_SITES {
        for action in ["err", "mem", "delay:1"] {
            pool.push(format!("{site}={action}"));
        }
    }
    for site in PANIC_SITES {
        pool.push(format!("{site}=panic"));
    }
    (
        prop::sample::select(vec![1u64, 7, 42, 20260808]),
        prop::collection::vec(
            (
                prop::sample::select(pool),
                prop::sample::select(vec!["", "@1", "@3", "@9", "*2", "*5", "%0.2", "%0.7"]),
            ),
            1..=3,
        ),
    )
        .prop_map(|(seed, entries)| {
            let mut spec = format!("seed={seed}");
            for (entry, trigger) in entries {
                spec.push(';');
                spec.push_str(&entry);
                spec.push_str(trigger);
            }
            spec
        })
}

/// Did the ladder reach its last rung — the verified universal plan?
fn fell_back(out: &OptimizeOutcome) -> bool {
    out.degradations
        .iter()
        .any(|d| matches!(d, Degradation::UniversalFallback { .. }))
}

/// Is `best` a plan the fault-free run vouches for: the universal plan
/// itself, or (alpha-equivalent to) a member of the fault-free
/// candidate set?
fn is_vouched_plan(best: &PlanChoice, base: &OptimizeOutcome, universal: &Query) -> bool {
    best.raw.alpha_normalized() == universal.alpha_normalized()
        || base
            .candidates()
            .iter()
            .any(|c| c.query.alpha_normalized() == best.query.alpha_normalized())
}

/// The harness core: run `optimize` under `spec` and assert the three
/// chaos contracts against the fault-free baseline `base` (same
/// strategy, one thread, no faults).
fn chaos_run(
    desc: &str,
    catalog: &Catalog,
    q: &Query,
    base: &OptimizeOutcome,
    strategy: SearchStrategy,
    threads: usize,
    spec: &str,
) {
    let guard = ScopedFaults::install(spec)
        .unwrap_or_else(|e| panic!("{desc}: generated spec `{spec}` invalid: {e:?}"));
    let t0 = Instant::now();
    let out = Optimizer::with_config(catalog, config(strategy, threads))
        .optimize(q)
        .unwrap_or_else(|e| panic!("{desc} under `{spec}`: optimize failed: {e}"));
    let elapsed = t0.elapsed();
    let fs = faults::stats();
    drop(guard);

    // Contract 2: no hangs.
    assert!(
        elapsed < HANG_GUARD,
        "{desc} under `{spec}`: took {elapsed:?} (hang guard {HANG_GUARD:?})"
    );
    // Contract 3: no silent swallowing.
    assert_eq!(
        fs.injected,
        fs.acknowledged(),
        "{desc} under `{spec}`: {} fault(s) injected but only {} acknowledged: {fs:?}",
        fs.injected,
        fs.acknowledged()
    );
    // Contract 1: the differential.
    if fell_back(&out) {
        assert!(
            is_vouched_plan(&out.best, base, out.universal()),
            "{desc} under `{spec}`: universal fallback returned an unvouched plan:\n{}",
            out.best.query
        );
        assert!(
            out.best.cost >= base.best.cost - 1e-9,
            "{desc} under `{spec}`: degraded best {} beat the fault-free best {}",
            out.best.cost,
            base.best.cost
        );
        assert!(
            !out.complete,
            "{desc} under `{spec}`: fell back yet complete"
        );
    } else {
        assert!(
            (out.best.cost - base.best.cost).abs() < 1e-9,
            "{desc} under `{spec}`: best cost {} != fault-free {}",
            out.best.cost,
            base.best.cost
        );
        assert_eq!(
            out.best.query.alpha_normalized(),
            base.best.query.alpha_normalized(),
            "{desc} under `{spec}`: best plan changed under faults"
        );
        // Exhaustive has no pruning: the surviving candidate list must
        // be the fault-free one, plan for plan.
        if matches!(strategy, SearchStrategy::Exhaustive) {
            assert_eq!(
                out.candidates().len(),
                base.candidates().len(),
                "{desc} under `{spec}`: candidate count changed under faults"
            );
            for (a, b) in out.candidates().iter().zip(base.candidates()) {
                assert_eq!(
                    a.query.alpha_normalized(),
                    b.query.alpha_normalized(),
                    "{desc} under `{spec}`: candidate list diverged"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline sweep: random schedules against the paper's three
    /// scenarios, both strategies, parallel worker pools.
    #[test]
    fn random_fault_schedules_never_change_the_surviving_best_plan(
        pick in (0usize..3, any::<bool>(), prop::sample::select(vec![2usize, 4])),
        spec in arb_schedule(),
    ) {
        let (idx, guided, threads) = pick;
        let (name, catalog, q) = scenarios().swap_remove(idx);
        let strategy = if guided { SearchStrategy::CostGuided } else { SearchStrategy::Exhaustive };
        let base = Optimizer::with_config(&catalog, config(strategy, 1))
            .optimize(&q)
            .unwrap();
        let desc = format!("{name} {strategy:?} @ {threads} threads");
        chaos_run(&desc, &catalog, &q, &base, strategy, threads, &spec);
    }
}

/// A generated catalog for the random-catalog sweep: R(A, B) ⋈ S(B, C)
/// with optional secondary indexes and an optional materialized join
/// view, random cardinalities, and a random selection mask.
fn build_catalog(
    sa: bool,
    sb: bool,
    view_join: bool,
    cond_mask: u8,
    cards: Vec<u64>,
) -> (Catalog, Query, String) {
    use universal_plans::catalog::RootStats;
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
    if view_join {
        c.add_materialized_view(
            "V",
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap(),
        )
        .unwrap();
    }
    let stats = c.stats_mut();
    for (i, root) in ["R", "S", "SA", "SB", "V"].iter().enumerate() {
        stats.set(*root, RootStats::with_cardinality(cards[i % cards.len()]));
    }
    let mut conds = vec!["r.B = s.B"];
    if cond_mask & 1 != 0 {
        conds.push("r.A = 1");
    }
    if cond_mask & 2 != 0 {
        conds.push("s.C = 2");
    }
    let text = format!(
        "select struct(OA = r.A, OC = s.C) from R r, S s where {}",
        conds.join(" and ")
    );
    let query = parse_query(&text).unwrap();
    let desc = format!("catalog(sa={sa}, sb={sb}, V={view_join}) cards={cards:?} query=`{text}`");
    (c, query, desc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random catalogs under random schedules: the resilience layer is
    /// scenario-independent, not tuned to the three built-ins.
    #[test]
    fn random_catalogs_survive_random_schedules(
        shape in ((any::<bool>(), any::<bool>(), any::<bool>()), 0u8..4,
                  prop::collection::vec(prop::sample::select(vec![1u64, 50, 4_000]), 3)),
        spec in arb_schedule(),
    ) {
        let ((sa, sb, vj), cond_mask, cards) = shape;
        let (catalog, q, desc) = build_catalog(sa, sb, vj, cond_mask, cards);
        let base = Optimizer::with_config(&catalog, config(SearchStrategy::Exhaustive, 1))
            .optimize(&q)
            .unwrap();
        chaos_run(&desc, &catalog, &q, &base, SearchStrategy::Exhaustive, 2, &spec);
    }
}

/// Every registered failpoint site is reachable from a real workload:
/// arm an empty schedule (hit counting only, nothing fires) and drive
/// the optimizer plus the compiled pipeline; every site in
/// [`faults::SITES`] must record traffic. If a site were orphaned by a
/// refactor, a schedule targeting it would silently test nothing.
#[test]
fn every_failpoint_site_is_reachable_from_a_real_workload() {
    let mut catalog = cb_catalog::scenarios::projdept::catalog();
    let q = cb_catalog::scenarios::projdept::query();
    let mut instance = cb_engine::projdept_instance(&cb_engine::ProjDeptParams {
        n_depts: 6,
        projs_per_dept: 3,
        n_customers: 4,
        seed: 1,
    });
    Materializer::new(&catalog)
        .materialize(&mut instance)
        .unwrap();
    *catalog.stats_mut() = cb_engine::collect_stats(&instance);

    let guard = ScopedFaults::install("seed=1").unwrap();
    let out = Optimizer::with_config(&catalog, config(SearchStrategy::CostGuided, 4))
        .optimize(&q)
        .unwrap();
    let ev = Evaluator::for_catalog(&catalog, &instance);
    let pipeline = cb_engine::compile(&out.best.query, cb_engine::CompileOptions::default());
    let rows = cb_engine::execute(&ev, &pipeline).unwrap();
    assert_eq!(rows, ev.eval_query(&q).unwrap(), "best plan result differs");
    let fs = faults::stats();
    drop(guard);

    assert_eq!(fs.injected, 0, "empty schedule fired a fault: {fs:?}");
    for site in faults::SITES {
        assert!(
            fs.hits_by_site.get(site).copied().unwrap_or(0) > 0,
            "failpoint site `{site}` never hit by the workload: {:?}",
            fs.hits_by_site
        );
    }
}

/// One worker death among many is absorbed without any degradation: the
/// survivors re-claim the dead worker's work and the outcome is
/// bit-identical to the fault-free run.
#[test]
fn a_single_worker_death_is_absorbed_without_degradation() {
    let (_, catalog, q) = scenarios().swap_remove(0);
    let base = Optimizer::with_config(&catalog, config(SearchStrategy::Exhaustive, 1))
        .optimize(&q)
        .unwrap();
    let guard = ScopedFaults::install("parallel::pop=panic@4").unwrap();
    let out = Optimizer::with_config(&catalog, config(SearchStrategy::Exhaustive, 4))
        .optimize(&q)
        .unwrap();
    let fs = faults::stats();
    drop(guard);

    assert_eq!(fs.injected, 1, "{fs:?}");
    assert_eq!(fs.injected, fs.acknowledged(), "{fs:?}");
    assert_eq!(out.search.workers_died, 1);
    assert!(out.complete, "one death must not abort the search");
    assert!(
        !out.degradations
            .iter()
            .any(|d| matches!(d, Degradation::SequentialFallback { .. })),
        "one death among four workers is not a degradation: {:?}",
        out.degradations
    );
    assert_eq!(out.candidates().len(), base.candidates().len());
    assert_eq!(
        out.best.query.alpha_normalized(),
        base.best.query.alpha_normalized()
    );
}

/// The ladder composes rung by rung on one schedule: every spawn dies
/// (rung 2: sequential fallback), then the sequential rerun panics at
/// its first containment proof (rung 3: the verified universal plan).
#[test]
fn the_ladder_composes_rung_by_rung() {
    let (_, catalog, q) = scenarios().swap_remove(0);
    let guard =
        ScopedFaults::install("seed=3;parallel::spawn=panic;context::contained_in=panic").unwrap();
    let out = Optimizer::with_config(&catalog, config(SearchStrategy::Exhaustive, 4))
        .optimize(&q)
        .unwrap();
    let fs = faults::stats();
    drop(guard);

    assert_eq!(fs.injected, fs.acknowledged(), "{fs:?}");
    assert!(
        out.degradations
            .iter()
            .any(|d| matches!(d, Degradation::SequentialFallback { .. })),
        "rung 2 missing: {:?}",
        out.degradations
    );
    assert!(fell_back(&out), "rung 3 missing: {:?}", out.degradations);
    assert_eq!(
        out.best.raw.alpha_normalized(),
        out.universal().alpha_normalized(),
        "past the full ladder the answer is the universal plan"
    );
    assert!(!out.complete);
    let text = cb_optimizer::explain(&out);
    assert!(text.contains("reran sequentially"), "{text}");
    assert!(text.contains("phase-2 search aborted"), "{text}");
}

/// Phase 1 is total under the shard sites: the universal plan is chased
/// through the memo shards, and the first hit of each shard site panics
/// there. The memo-free chase recomputes the same plan, and the answer
/// is the fault-free one at every thread count.
#[test]
fn a_phase_one_panic_at_a_shard_site_keeps_the_fault_free_plan() {
    let (_, catalog, q) = scenarios().swap_remove(0);
    let base = Optimizer::with_config(&catalog, config(SearchStrategy::Exhaustive, 1))
        .optimize(&q)
        .unwrap();
    for site in ["shared::shard_lock", "shared::checkout", "shared::park"] {
        for threads in [1, 4] {
            let spec = format!("{site}=panic@1");
            let guard = ScopedFaults::install(&spec).unwrap();
            let out = Optimizer::with_config(&catalog, config(SearchStrategy::Exhaustive, threads))
                .optimize(&q)
                .unwrap_or_else(|e| panic!("`{spec}` @ {threads} threads: {e}"));
            let fs = faults::stats();
            drop(guard);

            let desc = format!("`{spec}` @ {threads} threads");
            assert_eq!(fs.injected, 1, "{desc}: {fs:?}");
            assert_eq!(fs.injected, fs.acknowledged(), "{desc}: {fs:?}");
            assert!(
                out.degradations
                    .iter()
                    .any(|d| matches!(d, Degradation::MemoFreeChase { .. })),
                "{desc}: {:?}",
                out.degradations
            );
            assert_eq!(out.universal(), base.universal(), "{desc}");
            assert_eq!(out.best.query, base.best.query, "{desc}");
            assert_eq!(out.candidates().len(), base.candidates().len(), "{desc}");
            let text = cb_optimizer::explain(&out);
            assert!(text.contains("recomputed without memos"), "{desc}: {text}");
        }
    }
}

// ---------------------------------------------------------------------
// Budget-expiry edge cases: the anytime SLO interacting with parked
// checkouts, racing incumbent publication, and over-asked k_best.
// ---------------------------------------------------------------------

/// Wall-clock expiry while workers are asleep inside a memo checkout (a
/// delay fault holds them there): the search must still return a
/// verified incumbent promptly — expiry is checked outside the parked
/// wait, never wedged by it.
#[test]
fn wall_clock_expiry_during_parked_checkouts_still_returns_a_plan() {
    let (_, catalog, q) = scenarios().swap_remove(0);
    let base = Optimizer::with_config(&catalog, config(SearchStrategy::Exhaustive, 1))
        .optimize(&q)
        .unwrap();
    let guard = ScopedFaults::install("shared::checkout=delay:2").unwrap();
    let cfg = OptimizerConfig {
        search_budget: SearchBudget {
            wall_clock: Some(Duration::from_millis(5)),
            ..SearchBudget::default()
        },
        ..config(SearchStrategy::CostGuided, 4)
    };
    let t0 = Instant::now();
    let out = Optimizer::with_config(&catalog, cfg).optimize(&q).unwrap();
    let elapsed = t0.elapsed();
    let fs = faults::stats();
    drop(guard);

    assert!(elapsed < HANG_GUARD, "parked expiry took {elapsed:?}");
    assert_eq!(fs.injected, fs.acknowledged(), "{fs:?}");
    assert!(
        is_vouched_plan(&out.best, &base, out.universal()),
        "expired incumbent is unvouched: {}",
        out.best.query
    );
}

/// Wall-clock expiry racing incumbent publication, swept across tiny
/// budgets at several worker counts: whatever instant the budget
/// expires at, the returned best is a vouched plan and never an error.
#[test]
fn wall_clock_expiry_racing_incumbent_publication_is_benign() {
    let (_, catalog, q) = scenarios().swap_remove(1);
    let base = Optimizer::with_config(&catalog, config(SearchStrategy::CostGuided, 1))
        .optimize(&q)
        .unwrap();
    for threads in [1usize, 4] {
        for micros in [0u64, 50, 200, 1000] {
            let cfg = OptimizerConfig {
                search_budget: SearchBudget {
                    wall_clock: Some(Duration::from_micros(micros)),
                    ..SearchBudget::default()
                },
                ..config(SearchStrategy::CostGuided, threads)
            };
            let out = Optimizer::with_config(&catalog, cfg)
                .optimize(&q)
                .unwrap_or_else(|e| panic!("{micros}µs @ {threads} threads: {e}"));
            assert!(
                is_vouched_plan(&out.best, &base, out.universal()),
                "{micros}µs @ {threads} threads: unvouched incumbent: {}",
                out.best.query
            );
            if out.search.budget_expired {
                assert!(!out.complete, "{micros}µs @ {threads} threads");
            }
        }
    }
}

/// `k_best` larger than the whole candidate set: the ladder is simply
/// every distinct plan, the best on top — never an error, never
/// padding.
#[test]
fn k_best_beyond_the_candidate_set_returns_every_distinct_plan() {
    let (_, catalog, q) = scenarios().swap_remove(0);
    let cfg = OptimizerConfig {
        k_best: 50,
        ..config(SearchStrategy::Exhaustive, 2)
    };
    let out = Optimizer::with_config(&catalog, cfg).optimize(&q).unwrap();
    assert!(!out.top_k().is_empty());
    assert!(out.top_k().len() <= 50);
    assert_eq!(
        out.top_k()[0].query.alpha_normalized(),
        out.best.query.alpha_normalized()
    );
    let mut keys: Vec<_> = out
        .top_k()
        .iter()
        .map(|c| c.query.alpha_normalized())
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), out.top_k().len(), "top-k has duplicates");

    // And with a zero node budget the ladder collapses to exactly one
    // rung: the universal plan itself.
    let cfg = OptimizerConfig {
        k_best: 50,
        search_budget: SearchBudget {
            nodes: Some(0),
            ..SearchBudget::default()
        },
        ..config(SearchStrategy::Exhaustive, 2)
    };
    let out = Optimizer::with_config(&catalog, cfg).optimize(&q).unwrap();
    assert!(out.search.budget_expired);
    assert_eq!(out.top_k().len(), 1, "zero budget admits exactly the root");
    assert_eq!(
        out.best.raw.alpha_normalized(),
        out.universal().alpha_normalized()
    );
}

/// A re-preparation after a statistics refresh replays the verified
/// lattice through the shard sites: the lattice checkout and park, the
/// verdict inserts and the plan-form memo. Under recoverable faults at
/// every `shared::*` site — with the memos unbounded (the lattice is
/// replayed, or lost to a fault and rebuilt) and with a zero byte limit
/// (every insert sheds, so nothing is ever replayed) — the plans are
/// those of a fault-free fresh service, and every fault is acknowledged.
#[test]
fn a_replay_under_shard_faults_and_cache_pressure_keeps_the_plans() {
    use cb_catalog::scenarios::projdept;
    use cb_optimizer::PlanService;
    let (_, before, q) = scenarios().swap_remove(0);
    let refreshed = |n, per, customers| {
        let mut c = projdept::catalog();
        projdept::stats_for(&mut c, n, per, customers);
        c
    };
    let (between, after) = (refreshed(500, 20, 10), refreshed(1000, 50, 5));
    let spec = "seed=5;shared::shard_lock=err%0.1;shared::checkout=mem*3;\
                shared::park=err*2;shared::memo=mem%0.2";
    for strategy in [SearchStrategy::Exhaustive, SearchStrategy::CostGuided] {
        for threads in [1usize, 4] {
            let fresh = PlanService::new(after.clone(), config(strategy, threads))
                .prepare(&q)
                .unwrap();
            for limit in [None, Some(0)] {
                let desc = format!("limit {limit:?}, {strategy:?} @ {threads} threads");
                let cfg = OptimizerConfig {
                    memo_byte_limit: limit,
                    ..config(strategy, threads)
                };
                let mut svc = PlanService::new(before.clone(), cfg);
                svc.prepare(&q).unwrap();
                // The second walk of the universal plan records its
                // lattice; the third, under faults, replays it.
                svc.swap_catalog(between.clone());
                svc.prepare(&q).unwrap();
                svc.swap_catalog(after.clone());
                let guard = ScopedFaults::install(spec).unwrap();
                let replay = svc.prepare(&q).unwrap_or_else(|e| panic!("{desc}: {e}"));
                let fs = faults::stats();
                drop(guard);

                assert!(fs.injected > 0, "{desc}: {fs:?}");
                assert_eq!(fs.injected, fs.acknowledged(), "{desc}: {fs:?}");
                let (r, f) = (&replay.plan.outcome, &fresh.plan.outcome);
                assert_eq!(r.best.query, f.best.query, "{desc}");
                assert!((r.best.cost - f.best.cost).abs() < 1e-9, "{desc}");
                if threads == 1 || strategy == SearchStrategy::Exhaustive {
                    assert_eq!(
                        format!("{:?}", r.candidates()),
                        format!("{:?}", f.candidates()),
                        "{desc}"
                    );
                    assert_eq!(r.search.visited_count, f.search.visited_count, "{desc}");
                }
            }
        }
    }
}

/// A renamed replay at four workers: the ProjDept query under other
/// variable names (in the reverse order) and another constant replays the
/// lattice recorded for the paper's query, collecting every visited node.
/// `parallel::visit` panics kill workers before their node is counted,
/// and a `parallel::claim` panic kills one after its node was counted and
/// collected in the caller's names. The rollback removes that entry by
/// the form that was pushed, so the collected multiset is the sequential
/// oracle's: no entry twice, none missing.
#[test]
fn a_renamed_parallel_replay_collects_each_visited_node_once_under_worker_deaths() {
    use universal_plans::chase::{ChaseContext, ExploreAll, PlanSearch};
    let (_, catalog, _) = scenarios().swap_remove(0);
    let projdept = |[d, s, p]: [&str; 3], c: &str| {
        parse_query(&format!(
            "select struct(PN = {s}, PB = {p}.Budg, DN = {d}.DName) \
             from depts {d}, {d}.DProjs {s}, Proj {p} \
             where {s} = {p}.PName and {p}.CustName = \"{c}\""
        ))
        .unwrap()
    };
    let ctx = ChaseContext::new(catalog.all_constraints(), ChaseConfig::default());
    let recorded = ctx.chase(&projdept(["d", "s", "p"], "CitiBank")).query;
    // Named in the reverse order of `d < p < s`: `ap < ms < zd`.
    let u = ctx.chase(&projdept(["zd", "ap", "ms"], "cust7")).query;
    for _ in 0..2 {
        PlanSearch::new(&recorded)
            .with_threads(4)
            .run(&ctx, &ExploreAll);
    }
    let off = ChaseContext::without_memo(catalog.all_constraints(), ChaseConfig::default());
    let oracle = PlanSearch::new(&u).run(&off, &ExploreAll);

    let spec = "parallel::visit=panic*150;parallel::claim=panic@700";
    let before = ctx.stats();
    let guard = ScopedFaults::install(spec).unwrap();
    let out = PlanSearch::new(&u)
        .with_threads(4)
        .with_collect_visited(true)
        .run(&ctx, &ExploreAll);
    let fs = faults::stats();
    drop(guard);
    let after = ctx.stats();

    assert_eq!(fs.injected, 3, "{spec}: {fs:?}");
    assert_eq!(fs.injected, fs.acknowledged(), "{spec}: {fs:?}");
    assert_eq!(out.counters.workers_died, 3, "{spec}");
    assert!(
        out.counters.complete,
        "{spec}: one survivor finishes the walk"
    );
    assert_eq!(after.lattice_misses, before.lattice_misses, "{after:?}");
    let sorted = |qs: &[Query]| {
        let mut v = qs.to_vec();
        v.sort();
        v
    };
    assert_eq!(
        out.counters.visited_count, oracle.counters.visited_count,
        "{spec}"
    );
    assert_eq!(sorted(&out.visited), sorted(&oracle.visited), "{spec}");
    assert_eq!(
        sorted(&out.normal_forms),
        sorted(&oracle.normal_forms),
        "{spec}"
    );
}
