//! Human-readable EXPLAIN output for an optimization outcome.

use std::fmt::Write as _;

use crate::optimizer::OptimizeOutcome;
use crate::plan_repr::PlanRepr;

/// Renders the full story of one optimization: input, chase steps,
/// universal plan, candidate plans with costs, and the winner.
pub fn explain(outcome: &OptimizeOutcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== input query ==");
    let _ = writeln!(s, "{}", outcome.input);
    let _ = writeln!(
        s,
        "\n== chase (phase 1): {} steps ==",
        outcome.chase_steps.len()
    );
    for step in &outcome.chase_steps {
        let adds: Vec<String> = step
            .added_bindings
            .iter()
            .map(|b| format!("{} in {}", b.var, b.src))
            .collect();
        let eqs: Vec<String> = step
            .added_eqs
            .iter()
            .map(|e| format!("{} = {}", e.0, e.1))
            .collect();
        let _ = writeln!(
            s,
            "  [{}] + bindings {{{}}} + conditions {{{}}}",
            step.dep,
            adds.join(", "),
            eqs.join(", ")
        );
    }
    let _ = writeln!(s, "\n== universal plan ==");
    let _ = writeln!(s, "{}", outcome.universal);
    let _ = writeln!(s, "  (constraint-set termination: {})", outcome.termination);
    let _ = writeln!(
        s,
        "\n== backchase (phase 2): {} physical plan(s), cheapest first ==",
        outcome.candidates.len()
    );
    let _ = writeln!(
        s,
        "  (search: {} lattice node(s) visited, {} sublattice(s) cost-pruned: {} at the gate, {} at visit)",
        outcome.search.visited_count,
        outcome.search.pruned(),
        outcome.search.pruned_at_gate,
        outcome.search.pruned_at_visit
    );
    let _ = writeln!(
        s,
        "  (retained: top-{} plan(s){})",
        outcome.top_k.len(),
        if outcome.search.budget_expired {
            "; anytime budget expired — best is the verified incumbent"
        } else {
            ""
        }
    );
    let _ = writeln!(
        s,
        "  (must-remain bindings of the universal plan: {})",
        match outcome.must_remain() {
            core if core.is_empty() => "none".to_string(),
            core => core.join(", "),
        }
    );
    for (i, c) in outcome.candidates.iter().enumerate() {
        let _ = writeln!(
            s,
            "  #{:<2} cost {:>12.1} {} {}",
            i + 1,
            c.cost,
            if c.minimal { "[minimal]" } else { "[interim]" },
            c.query
        );
    }
    let _ = writeln!(s, "\n== chosen plan (cost {:.1}) ==", outcome.best.cost);
    let _ = writeln!(s, "{}", outcome.best.query);
    // The plan as the engine will actually run it: the slot-compiled
    // pipeline (hash and merge joins on), with its register/table/run/
    // batch layout. `execute_with_stats` reports rows per operator
    // against this shape.
    let pipeline = cb_engine::compile(
        &outcome.best.query,
        cb_engine::CompileOptions {
            hash_joins: true,
            merge_joins: true,
            ..Default::default()
        },
    );
    let _ = writeln!(s, "\n== slot-compiled pipeline (hash/merge joins on) ==");
    let _ = writeln!(
        s,
        "  registers: {}   hash tables: {}   merge runs: {}   hoisted ground filters: {}",
        pipeline.n_slots,
        pipeline.n_tables,
        pipeline.n_runs,
        pipeline.ground.len()
    );
    let _ = writeln!(
        s,
        "  batch layout: {} rows/batch over {} column(s), push-based driver",
        pipeline.batch_size, pipeline.n_slots
    );
    for g in &pipeline.ground {
        let _ = writeln!(s, "  Ground({} = {})", g.left, g.right);
    }
    for op in &pipeline.ops {
        let algo = match op {
            cb_engine::Operator::HashJoin { .. } => "  [join: hash]",
            cb_engine::Operator::MergeJoin { .. } => "  [join: merge]",
            _ => "",
        };
        let _ = writeln!(s, "  {op}{algo}");
    }
    let _ = writeln!(s, "  Project");
    let _ = writeln!(s, "\n== static analysis ==");
    let (e, w, i) = outcome.diagnostics.counts();
    if outcome.diagnostics.is_empty() {
        let _ = writeln!(s, "no diagnostics");
    } else {
        for d in &outcome.diagnostics.diagnostics {
            let _ = writeln!(s, "  {d}");
        }
        let _ = writeln!(s, "  {e} error(s), {w} warning(s), {i} info");
    }
    // The resource governor's story: every degradation rung taken, plus
    // the fault-recovery counters, so a degraded answer is never silent
    // — and a clean run says so explicitly.
    let _ = writeln!(s, "\n== resilience ==");
    if outcome.degradations.is_empty()
        && outcome.search.workers_died == 0
        && outcome.cache.poison_recoveries == 0
    {
        let _ = writeln!(s, "clean run: no degradations, no faults recovered");
    } else {
        for d in &outcome.degradations {
            let _ = writeln!(s, "  degraded: {d}");
        }
        if outcome.search.workers_died > 0 {
            let _ = writeln!(
                s,
                "  {} search worker(s) died and had their claims recovered",
                outcome.search.workers_died
            );
        }
        if outcome.cache.poison_recoveries > 0 {
            let _ = writeln!(
                s,
                "  {} poisoned memo shard(s) recovered (entries discarded)",
                outcome.cache.poison_recoveries
            );
        }
    }
    // An incomplete search is only worth a caveat when the analyzer could
    // not certify termination: with a terminating constraint set the
    // budgets are a formality, not a soundness risk.
    if !outcome.complete && outcome.termination == cb_chase::TerminationVerdict::Unknown {
        let _ = writeln!(
            s,
            "\n(note: search budgets were hit; the plan space may be larger)"
        );
    }
    s
}

/// EXPLAIN for a *serialized* plan: what can be said from the
/// [`PlanRepr`] alone, without a catalog or a live outcome — the view a
/// service front end or `plan-diff` shows for a plan loaded off disk.
pub fn explain_prepared(repr: &PlanRepr) -> String {
    let PlanRepr::V1(p) = repr;
    let mut s = String::new();
    let _ = writeln!(s, "== prepared plan (format v1) ==");
    let _ = writeln!(s, "input:     {}", p.input);
    let _ = writeln!(s, "universal: {}", p.universal);
    let _ = writeln!(s, "\n== plan ladder ({} entries) ==", p.top_k.len());
    for (i, e) in p.top_k.iter().enumerate() {
        let _ = writeln!(
            s,
            "  #{:<2} cost {:>12.1} {} {}",
            i + 1,
            e.cost,
            if e.minimal { "[minimal]" } else { "[interim]" },
            e.query
        );
    }
    let _ = writeln!(s, "\n== chosen plan (cost {:.1}) ==", p.best.cost);
    let _ = writeln!(s, "{}", p.best.query);
    let _ = writeln!(s, "\n== pipeline layout ==");
    let _ = writeln!(
        s,
        "  registers: {}   hash tables: {}   merge runs: {}   batch: {} rows",
        p.pipeline.n_slots, p.pipeline.n_tables, p.pipeline.n_runs, p.pipeline.batch_size
    );
    let _ = writeln!(s, "  roots: {}", p.pipeline.roots.join(", "));
    for g in &p.pipeline.ground {
        let _ = writeln!(s, "  Ground({g})");
    }
    for op in &p.pipeline.ops {
        let _ = writeln!(s, "  {op}");
    }
    let _ = writeln!(s, "  Project");
    let c = &p.counters;
    let _ = writeln!(s, "\n== producing search ==");
    let _ = writeln!(
        s,
        "  {} node(s) visited, {} pruned at the gate, {} at visit; cache {} hit(s) / {} miss(es)",
        c.nodes_visited,
        c.nodes_pruned_at_gate,
        c.nodes_pruned_at_visit,
        c.cache_hits,
        c.cache_misses
    );
    let _ = writeln!(
        s,
        "  complete: {}   budget expired: {}   workers died: {}",
        c.complete, c.budget_expired, c.workers_died
    );
    if c.degradations.is_empty() {
        let _ = writeln!(s, "  clean run: no degradations");
    } else {
        for d in &c.degradations {
            let _ = writeln!(s, "  degraded: {d}");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Optimizer;
    use cb_catalog::scenarios::projdept;

    #[test]
    fn explain_mentions_all_sections() {
        let mut cat = projdept::catalog();
        projdept::stats_for(&mut cat, 50, 5, 10);
        let out = Optimizer::new(&cat).optimize(&projdept::query()).unwrap();
        let text = explain(&out);
        for needle in [
            "== input query ==",
            "== chase (phase 1)",
            "== universal plan ==",
            "== backchase (phase 2)",
            "== chosen plan",
            "== slot-compiled pipeline",
            "registers:",
            "[minimal]",
            "lattice node(s) visited",
            "retained: top-",
            "must-remain bindings",
            "constraint-set termination:",
            "== static analysis ==",
            "== resilience ==",
            "clean run: no degradations",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        // projdept's constraint set has a special-edge cycle: the verdict
        // and its evidence are surfaced.
        assert!(text.contains("unknown (budget-bounded chase)"), "{text}");
        assert!(text.contains("CB020"), "{text}");
    }

    #[test]
    fn budget_note_requires_unknown_termination() {
        // With a terminating constraint set, an incomplete search is not
        // worth the caveat — the note keys on the termination verdict.
        let mut cat = cb_catalog::Catalog::new();
        cat.add_logical_relation("R", [("A", pcql::Type::Int)]);
        cat.add_direct_mapping("R");
        let q = pcql::parser::parse_query("select struct(A = r.A) from R r").unwrap();
        let mut out = Optimizer::new(&cat).optimize(&q).unwrap();
        assert_ne!(out.termination, cb_chase::TerminationVerdict::Unknown);
        out.complete = false;
        let text = explain(&out);
        assert!(!text.contains("search budgets were hit"), "{text}");

        // An Unknown verdict with the same incomplete search prints it.
        out.termination = cb_chase::TerminationVerdict::Unknown;
        let text = explain(&out);
        assert!(text.contains("search budgets were hit"), "{text}");
    }

    #[test]
    fn explain_prepared_covers_the_serialized_sections() {
        let mut cat = projdept::catalog();
        projdept::stats_for(&mut cat, 50, 5, 10);
        let out = Optimizer::new(&cat).optimize(&projdept::query()).unwrap();
        let repr = PlanRepr::from_outcome(&out);
        let text = explain_prepared(&repr);
        for needle in [
            "== prepared plan (format v1) ==",
            "== plan ladder",
            "== chosen plan",
            "== pipeline layout ==",
            "== producing search ==",
            "registers:",
            "node(s) visited",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn explain_reports_cost_pruning() {
        use crate::optimizer::{OptimizerConfig, SearchStrategy};
        let mut cat = projdept::catalog();
        projdept::stats_for(&mut cat, 100, 10, 20);
        let config = OptimizerConfig {
            strategy: SearchStrategy::CostGuided,
            ..Default::default()
        };
        let out = Optimizer::with_config(&cat, config)
            .optimize(&projdept::query())
            .unwrap();
        assert!(out.search.pruned() > 0, "no pruning on ProjDept");
        let text = explain(&out);
        assert!(
            text.contains(&format!(
                "{} sublattice(s) cost-pruned",
                out.search.pruned()
            )),
            "{text}"
        );
    }
}
