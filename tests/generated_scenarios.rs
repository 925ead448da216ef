//! The random-scenario differential harness for the cost-guided
//! backchase and its must-remain lower bound.
//!
//! The hand-built catalogs (ProjDept, §4 indexes, §4 views — each also
//! run in its mapping-only regime) pin the paper's numbers; this suite
//! establishes the *claims* — admissibility
//! and monotonicity of `CostModel::lattice_lower_bound`, and
//! `CostGuided ≡ Exhaustive` best cost — on generated instances: random
//! catalogs (secondary/primary indexes, materialized views over random
//! subsets), random statistics (empty collections, sub-row fanouts and
//! deliberately *inconsistent* distinct counts included: the bound's
//! proof does not assume clean stats, so neither does the harness), and
//! random queries (selections, a self-join under a key constraint,
//! random output columns).
//!
//! The vendored proptest stub does not shrink, so the generator is built
//! shrink-friendly by hand: every dimension is a small independent
//! choice (structure flags, per-root cardinality picks, condition/output
//! masks), each assertion message carries the full scenario description,
//! and replaying a failure means pasting that description into a unit
//! test — no minimization pass needed to make it readable.
//!
//! The harness also proves it *would catch* a broken bound: a
//! deliberately inflated (inadmissible) bound, injected through the
//! test-only `OptimizerConfig::bound_scale` hook, must make the
//! differential check fail.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use cb_optimizer::{
    CostModel, OptimizeError, OptimizeOutcome, Optimizer, OptimizerConfig, PlanRepr, PlanService,
    PreflightMode, SearchStrategy,
};
use universal_plans::analyze::{check_pipeline, codes};
use universal_plans::catalog::RootStats;
use universal_plans::chase::{
    first_unsafe, ChaseConfig, ChaseContext, ChaseStepTrace, ExploreAll, MustRemainAnalysis,
    PlanSearch, SearchVisitor, Visit,
};
use universal_plans::engine::{compile, CompileOptions, Operator};
use universal_plans::prelude::*;

/// One generated catalog + query, with a replayable description.
#[derive(Debug, Clone)]
struct Scenario {
    catalog: Catalog,
    query: Query,
    desc: String,
}

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
    // R and S stay physical so every generated query has a plan.
    c.add_direct_mapping("R");
    c.add_direct_mapping("S");
    if sa {
        c.add_secondary_index("SA", "R", "A").unwrap();
    }
    if sb {
        c.add_secondary_index("SB", "S", "B").unwrap();
    }
    if pk {
        // Also injects the key constraint on R.A — the chase may now
        // coalesce self-join bindings.
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

/// Records every node of the exhaustive walk with its removal set, so
/// the bound can be evaluated against genuine parent/descendant pairs.
struct Recorder {
    nodes: Mutex<Vec<(BTreeSet<String>, Query)>>,
}

impl SearchVisitor for Recorder {
    fn visit(&self, _ctx: &ChaseContext, q: &Query, removed: &BTreeSet<String>) -> Visit {
        self.nodes
            .lock()
            .unwrap()
            .push((removed.clone(), q.clone()));
        Visit::Explore
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The headline differential: on every generated catalog the
    /// cost-guided branch-and-bound reaches exactly the exhaustive best
    /// cost, visiting no more nodes, with consistent pruning accounting.
    #[test]
    fn cost_guided_matches_exhaustive_on_random_catalogs(s in arb_scenario()) {
        let full = Optimizer::new(&s.catalog).optimize(&s.query).unwrap();
        let guided = Optimizer::with_config(
            &s.catalog,
            OptimizerConfig { strategy: SearchStrategy::CostGuided, ..Default::default() },
        )
        .optimize(&s.query)
        .unwrap();
        prop_assert!(
            (guided.best.cost - full.best.cost).abs() < 1e-9,
            "guided best {} != exhaustive best {} on {}\nguided: {}\nexhaustive: {}",
            guided.best.cost, full.best.cost, s.desc, guided.best.query, full.best.query
        );
        prop_assert!(guided.complete, "guided search incomplete on {}", s.desc);
        prop_assert!(
            guided.search.visited_count <= full.search.visited_count,
            "guided visited {} > exhaustive {} on {}",
            guided.search.visited_count, full.search.visited_count, s.desc
        );
        prop_assert!(
            guided.search.visited_count + guided.search.pruned() >= 1,
            "accounting lost the root on {}", s.desc
        );
        prop_assert_eq!(
            guided.search.pruned(),
            guided.search.pruned_at_gate + guided.search.pruned_at_visit,
            "pruning split inconsistent on {}", s.desc
        );
        prop_assert_eq!(full.search.pruned(), 0);
        // The must-remain core of the universal plan survives into every
        // candidate the exhaustive search costed.
        for c in &full.candidates {
            for var in &full.must_remain() {
                prop_assert!(
                    c.raw.from.iter().any(|b| &b.var == var),
                    "must-remain binding {} missing from candidate {} on {}",
                    var, c.raw, s.desc
                );
            }
        }
    }

    /// The parallel frontier on random catalogs: at 2 and 4 workers the
    /// cost-guided search returns the *same best plan* (not just the
    /// same cost) as the sequential run — pruning is strict against the
    /// incumbent and ranking ties break on canonical plan keys, so the
    /// schedule cannot leak into the answer.
    #[test]
    fn parallel_cost_guided_deterministic_on_random_catalogs(s in arb_scenario()) {
        let guided = |threads: usize| {
            Optimizer::with_config(
                &s.catalog,
                OptimizerConfig {
                    strategy: SearchStrategy::CostGuided,
                    threads,
                    ..Default::default()
                },
            )
            .optimize(&s.query)
            .unwrap()
        };
        let full = Optimizer::new(&s.catalog).optimize(&s.query).unwrap();
        let base = guided(1);
        for threads in [2usize, 4] {
            let par = guided(threads);
            prop_assert!(
                (par.best.cost - full.best.cost).abs() < 1e-9,
                "parallel best {} != exhaustive best {} @ {} threads on {}",
                par.best.cost, full.best.cost, threads, s.desc
            );
            prop_assert_eq!(
                par.best.query.alpha_normalized(),
                base.best.query.alpha_normalized(),
                "best plan changed with the thread count ({} threads) on {}",
                threads, s.desc
            );
            prop_assert!(par.complete, "incomplete @ {} threads on {}", threads, s.desc);
        }
    }

    /// Admissibility and monotonicity of the must-remain bound across
    /// the *actual* removal lattice: for every pair of lattice nodes in
    /// the descent relation, the ancestor's bound under-estimates the
    /// descendant's bound (monotone) and its finally-costed plan
    /// (admissible); the root's bound under-estimates every candidate.
    #[test]
    fn lattice_bound_admissible_and_monotone_on_random_catalogs(s in arb_scenario()) {
        let model = CostModel::for_catalog(&s.catalog);
        let ctx = ChaseContext::new(s.catalog.all_constraints(), ChaseConfig::default());
        let u = ctx.chase(&s.query).query;
        let rec = Recorder { nodes: Mutex::default() };
        let out = PlanSearch::new(&u).run(&ctx, &rec);
        let nodes = rec.nodes.into_inner().unwrap();
        prop_assert!(out.counters.complete, "{}", s.desc);
        let mut analysis = MustRemainAnalysis::new(&u);

        // Final (cleaned, reordered) costs per raw subquery, as the
        // optimizer assigns them.
        let full = Optimizer::new(&s.catalog).optimize(&s.query).unwrap();
        let final_costs: BTreeMap<Query, f64> = full
            .candidates
            .iter()
            .map(|c| (c.raw.alpha_normalized(), c.cost))
            .collect();

        let bounds: Vec<f64> = nodes
            .iter()
            .map(|(removed, q)| model.lattice_lower_bound(q, removed, &mut analysis))
            .collect();
        for (i, (removed_i, q_i)) in nodes.iter().enumerate() {
            // Per-node admissibility: never above the node's own raw and
            // final cost.
            prop_assert!(
                bounds[i] <= model.plan_cost(q_i) + 1e-9,
                "bound {} > raw cost {} at {:?} on {}",
                bounds[i], model.plan_cost(q_i), removed_i, s.desc
            );
            if let Some(&final_cost) = final_costs.get(&q_i.alpha_normalized()) {
                prop_assert!(
                    bounds[i] <= final_cost + 1e-9,
                    "bound {} > final cost {} at {:?} on {}",
                    bounds[i], final_cost, removed_i, s.desc
                );
            }
            for (j, (removed_j, q_j)) in nodes.iter().enumerate() {
                if i == j || !removed_j.is_superset(removed_i) {
                    continue;
                }
                // Monotone along descent…
                prop_assert!(
                    bounds[i] <= bounds[j] + 1e-9,
                    "bound fell along descent {:?} -> {:?} ({} -> {}) on {}",
                    removed_i, removed_j, bounds[i], bounds[j], s.desc
                );
                // …hence admissible for every derivable plan below.
                if let Some(&final_cost) = final_costs.get(&q_j.alpha_normalized()) {
                    prop_assert!(
                        bounds[i] <= final_cost + 1e-9,
                        "ancestor bound {} > descendant final cost {} on {}",
                        bounds[i], final_cost, s.desc
                    );
                }
            }
        }
    }
}

/// `q` with every integer constant `c` replaced by `f(c)`. The generated
/// dependencies mention no constant, so every one of them is a
/// non-dependency constant.
fn map_ints(q: &Query, f: &impl Fn(i64) -> i64) -> Query {
    map_constants(q, &|c| match c {
        Constant::Int(i) => Constant::Int(f(*i)),
        c => c.clone(),
    })
}

/// `q` with every constant `c` replaced by `f(c)`.
fn map_constants(q: &Query, f: &impl Fn(&Constant) -> Constant) -> Query {
    fn path(p: &Path, f: &impl Fn(&Constant) -> Constant) -> Path {
        match p {
            Path::Const(c) => Path::Const(f(c)),
            Path::Var(_) | Path::Root(_) => p.clone(),
            Path::Field(q, a) => Path::Field(Box::new(path(q, f)), a.clone()),
            Path::Dom(q) => Path::Dom(Box::new(path(q, f))),
            Path::Get(m, k) => Path::Get(Box::new(path(m, f)), Box::new(path(k, f))),
            Path::GetOrEmpty(m, k) => Path::GetOrEmpty(Box::new(path(m, f)), Box::new(path(k, f))),
        }
    }
    Query {
        output: q.output.map_paths(&mut |p| path(p, f)),
        from: q
            .from
            .iter()
            .map(|b| Binding {
                src: path(&b.src, f),
                ..b.clone()
            })
            .collect(),
        where_: q
            .where_
            .iter()
            .map(|e| Equality(path(&e.0, f), path(&e.1, f)))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The constant-variant oracle. On one warm context, the scenario's
    /// query prepared twice records its lattice shape; a variant with
    /// its constants renamed injectively must then plan exactly as a
    /// cache-disabled context does. A renaming that keeps the constants'
    /// order keeps the shape, so the variant replays the lattice and
    /// adds no containment, implication or lattice miss; one that
    /// reverses their order is another shape, walked afresh.
    #[test]
    fn constant_variants_plan_like_a_fresh_context_on_random_catalogs(s in arb_scenario()) {
        let constants = s.query.where_.iter().filter(|e| {
            matches!(e.1, Path::Const(_)) || matches!(e.0, Path::Const(_))
        }).count();
        if constants == 0 {
            return;
        }
        let deps = s.catalog.all_constraints();
        let variants = [
            (map_ints(&s.query, &|c| 10 * c + 7), true),
            (map_ints(&s.query, &|c| 100 - c), constants < 2),
        ];
        for strategy in [SearchStrategy::Exhaustive, SearchStrategy::CostGuided] {
            for threads in [1usize, 2] {
                let config = OptimizerConfig { strategy, threads, ..Default::default() };
                let optimizer = Optimizer::with_config(&s.catalog, config.clone());
                // A parallel cost-guided walk races its incumbent, so only
                // its best plan is schedule-independent.
                let exact = threads == 1 || strategy == SearchStrategy::Exhaustive;
                for (variant, same_shape) in &variants {
                    let desc = format!("{strategy:?} @ {threads} threads, `{variant}` on {}", s.desc);
                    let mut warm = ChaseContext::new(deps.clone(), config.chase.clone());
                    for _ in 0..2 {
                        optimizer.optimize_in(&mut warm, &s.query).unwrap();
                    }
                    let before = warm.stats();
                    let got = optimizer.optimize_in(&mut warm, variant).unwrap();
                    let after = warm.stats();
                    let mut off = ChaseContext::without_memo(deps.clone(), config.chase.clone());
                    let want = optimizer.optimize_in(&mut off, variant).unwrap();
                    prop_assert_eq!(&got.best.query, &want.best.query, "{}", desc);
                    prop_assert_eq!(got.best.cost, want.best.cost, "{}", desc);
                    if !exact {
                        continue;
                    }
                    prop_assert_eq!(got.search.visited_count, want.search.visited_count, "{}", desc);
                    prop_assert_eq!(got.search.pruned_at_gate, want.search.pruned_at_gate, "{}", desc);
                    prop_assert_eq!(got.search.pruned_at_visit, want.search.pruned_at_visit, "{}", desc);
                    if *same_shape {
                        let added = [
                            after.containment_misses - before.containment_misses,
                            after.implication_misses - before.implication_misses,
                            after.lattice_misses - before.lattice_misses,
                        ];
                        prop_assert_eq!(added, [0; 3], "{}: {:?}", desc, after);
                    }
                }
            }
        }
    }
}

/// Injective renamings of `q`'s variables: three that reverse the order
/// of its names — onto the same names, onto names that sort after, and
/// onto names that sort before, every name the chase adds — and one onto
/// a shuffle, drawn from `seed`, of names that include the chase's own
/// (`i0`, `k0`, `t1`, `v0`, …), with `q`'s first name (by name order)
/// onto `tried`, the first name the chase of `q` adds when it adds one.
fn renamings(q: &Query, seed: u64, tried: Option<&str>) -> Vec<BTreeMap<String, String>> {
    let mut names: Vec<&String> = q.from.iter().map(|b| &b.var).collect();
    names.sort();
    names.dedup();
    let reversed = |stem: &str| {
        names
            .iter()
            .rev()
            .enumerate()
            .map(|(i, v)| ((*v).clone(), format!("{stem}{i}")))
            .collect()
    };
    let mut pool = [
        "a", "b0", "dp", "i0", "k0", "k3", "m", "pj", "q", "t1", "v0", "v1", "x", "zz",
    ];
    let mut state = seed | 1;
    for i in (1..pool.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        pool.swap(i, (state % (i as u64 + 1)) as usize);
    }
    if let Some(tried) = tried {
        match pool.iter().position(|p| *p == tried) {
            Some(i) => pool.swap(0, i),
            None => pool[0] = tried,
        }
    }
    let shuffled = names
        .iter()
        .zip(pool)
        .map(|(v, to)| ((*v).clone(), to.to_string()))
        .collect();
    let swapped = names
        .iter()
        .zip(names.iter().rev())
        .map(|(v, to)| ((*v).clone(), (*to).clone()))
        .collect();
    vec![swapped, reversed("z"), reversed("a"), shuffled]
}

/// Three variants of `q` that replace its constants by their rank among
/// the constants of their type: in the same order, in the reverse order,
/// and all by one value (two distinct constants become equal). The
/// types stay, so every variant type-checks as `q` does.
fn constant_variants(q: &Query) -> [Query; 3] {
    let all = std::cell::RefCell::new(BTreeSet::new());
    map_constants(q, &|c| {
        all.borrow_mut().insert(c.clone());
        c.clone()
    });
    let all = all.into_inner();
    let rank = |c: &Constant| {
        all.iter()
            .filter(|d| std::mem::discriminant(*d) == std::mem::discriminant(c) && *d < c)
            .count() as i64
    };
    let by_rank = |f: &dyn Fn(i64) -> i64| {
        map_constants(q, &|c| match c {
            Constant::Int(_) => Constant::Int(f(rank(c))),
            Constant::Str(_) => Constant::Str(format!("k{:03}", f(rank(c)))),
            c => c.clone(),
        })
    };
    [
        by_rank(&|r| 10 * r + 7),
        by_rank(&|r| 100 - 10 * r),
        by_rank(&|_| 5),
    ]
}

/// `q` with every constant's type flipped and the order of its constants
/// kept: each integer `i` becomes the string of `i` zero-padded, each
/// string the integer of its rank among the strings. `None` when `q`
/// mixes the two types (flipping would reorder them) or has neither.
fn type_flipped(q: &Query) -> Option<Query> {
    let all = std::cell::RefCell::new(BTreeSet::new());
    map_constants(q, &|c| {
        all.borrow_mut().insert(c.clone());
        c.clone()
    });
    let all = all.into_inner();
    let ints = all.iter().filter(|c| matches!(c, Constant::Int(_))).count();
    let strs = all.iter().filter(|c| matches!(c, Constant::Str(_))).count();
    if (ints == 0) == (strs == 0) || all.iter().any(|c| matches!(c, Constant::Int(i) if *i < 0)) {
        return None;
    }
    Some(map_constants(q, &|c| match c {
        Constant::Int(i) => Constant::Str(format!("{i:020}")),
        Constant::Str(_) => Constant::Int(all.iter().filter(|d| *d < c).count() as i64),
        c => c.clone(),
    }))
}

/// Is `name` one the chase of `q` tried when adding `added`: a name its
/// fresh-name generator made (stem plus counter) at or below the highest
/// counter it reached for that stem?
fn chase_tried(added: &[String], name: &str) -> bool {
    let split = |v: &str| {
        let stem = v.trim_end_matches(|c: char| c.is_ascii_digit()).to_string();
        let n: Option<u64> = v[stem.len()..].parse().ok();
        n.filter(|n| n.to_string() == v[stem.len()..] && !stem.is_empty())
            .map(|n| (stem, n))
    };
    split(name).is_some_and(|(stem, n)| {
        added
            .iter()
            .filter_map(|a| split(a))
            .any(|(s, top)| s == stem && n <= top)
    })
}

/// The plan document of `o` with its memo counters zeroed: a plan-cache
/// hit asks the chase core nothing, so only those may differ from a
/// fresh optimization's.
fn repr_sans_memo(o: &OptimizeOutcome) -> PlanRepr {
    let PlanRepr::V1(mut p) = PlanRepr::from_outcome(o);
    p.counters.cache_hits = 0;
    p.counters.cache_misses = 0;
    p.counters.deps_resets = 0;
    PlanRepr::V1(p)
}

/// The memo misses a context has counted: chase, containment,
/// implication, lattice.
fn misses(ctx: &ChaseContext) -> [u64; 4] {
    let s = ctx.stats();
    [
        s.chase_misses,
        s.containment_misses,
        s.implication_misses,
        s.lattice_misses,
    ]
}

/// The rename-invariance oracle for one catalog and query. A warm
/// context optimizes `q` twice, which records the lattice of its shape;
/// under every renaming of [`renamings`] and every constant variant of
/// [`constant_variants`] the query must then plan exactly as on a
/// cache-disabled context — the universal plan and its chase steps, the
/// best and every top-k plan byte for byte, their costs, the walk's
/// counters. A renaming adds no containment, implication or lattice
/// miss; the variant that keeps the constants' order adds no chase miss
/// either. The bare exhaustive walk of each variant's universal plan
/// must match too, down to its visited nodes and normal forms.
///
/// A [`PlanService`] that prepared `q` serves every renaming and the
/// same-order variant from its plan cache, rendering the plan document
/// of the fresh optimization (memo counters aside), unless the variant
/// binds a name the chase of `q` tried: that one, like the reversed and
/// collapsed variants, misses and plans as fresh. A variant whose
/// constants change type is of `q`'s shape, and gets its own type error,
/// or under deny its own lint rejection, on the hit.
fn assert_rename_invariant(catalog: &Catalog, q: &Query, seed: u64, desc: &str) {
    let deps = catalog.all_constraints();
    let [same_order, reversed, collapsed] = constant_variants(q);
    // A name the chase of `q` adds: a variant binding it must be chased
    // afresh, since it would steer the chase's fresh names.
    let off = ChaseContext::without_memo(deps.clone(), ChaseConfig::default());
    let chased = off.chase(q);
    let tried = chased.steps.iter().flat_map(|s| &s.added_bindings).next();
    let added: Vec<String> = chased
        .steps
        .iter()
        .flat_map(|s| &s.added_bindings)
        .map(|b| b.var.clone())
        .collect();
    let steered = |r: &Query| r.from.iter().any(|b| chase_tried(&added, &b.var));
    // With at most one constant of each type, reversing or collapsing
    // them changes no order: those variants keep `q`'s shape too.
    let lone = {
        let all = std::cell::RefCell::new(BTreeSet::new());
        map_constants(q, &|c| {
            all.borrow_mut().insert(c.clone());
            c.clone()
        });
        let all = all.into_inner();
        let of = |int: bool| {
            all.iter()
                .filter(|c| matches!(c, Constant::Int(_)) == int)
                .count()
        };
        of(true) <= 1 && of(false) <= 1
    };
    // Each variant with the misses it must not add: none of phase 2's,
    // and none of phase 1's.
    let variants: Vec<(Query, bool, bool)> = renamings(q, seed, tried.map(|b| b.var.as_str()))
        .iter()
        .map(|m| (q.rename(m), true, false))
        .chain([
            (same_order, true, true),
            (reversed, false, false),
            (collapsed, false, false),
        ])
        .collect();
    let assert_added = |ctx: &ChaseContext, before: [u64; 4], (phase2, phase1), desc: &str| {
        let now = misses(ctx);
        let added = [0, 1, 2, 3].map(|i| now[i] - before[i]);
        if phase2 {
            assert_eq!(added[1..], [0; 3], "{desc}");
        }
        if phase1 {
            assert_eq!(added[0], 0, "{desc}");
        }
    };
    let steps = |s: &[ChaseStepTrace]| format!("{s:?}");
    let plans = |o: &OptimizeOutcome| -> Vec<(String, f64)> {
        o.top_k
            .iter()
            .map(|c| (c.query.to_string(), c.cost))
            .collect()
    };
    for strategy in [SearchStrategy::Exhaustive, SearchStrategy::CostGuided] {
        let config = OptimizerConfig {
            strategy,
            threads: 1,
            ..Default::default()
        };
        let optimizer = Optimizer::with_config(catalog, config.clone());
        let mut warm = ChaseContext::new(deps.clone(), config.chase.clone());
        for _ in 0..2 {
            optimizer.optimize_in(&mut warm, q).unwrap();
        }
        let mut svc = PlanService::new(catalog.clone(), config.clone());
        assert!(!svc.prepare(q).unwrap().cache_hit, "{desc}");
        for (r, phase2, phase1) in &variants {
            let desc = format!("{strategy:?}, `{r}` on {desc}");
            let before = misses(&warm);
            let got = optimizer.optimize_in(&mut warm, r).unwrap();
            assert_added(&warm, before, (*phase2, *phase1), &desc);
            let mut off = ChaseContext::without_memo(deps.clone(), config.chase.clone());
            let want = optimizer.optimize_in(&mut off, r).unwrap();
            assert_eq!(got.universal, want.universal, "{desc}");
            assert_eq!(steps(&got.chase_steps), steps(&want.chase_steps), "{desc}");
            assert_eq!(
                got.best.query.to_string(),
                want.best.query.to_string(),
                "{desc}"
            );
            assert_eq!(got.best.cost, want.best.cost, "{desc}");
            assert_eq!(plans(&got), plans(&want), "{desc}");
            assert_eq!(got.search, want.search, "{desc}");
            let served = svc.prepare(r).unwrap();
            assert_eq!(served.cache_hit, (*phase2 || lone) && !steered(r), "{desc}");
            assert_eq!(
                repr_sans_memo(&served.plan.outcome),
                repr_sans_memo(&want),
                "{desc}"
            );
        }
    }
    if let Some(flipped) = type_flipped(q) {
        let same_shape = off.shape(&flipped).key == off.shape(q).key;
        for preflight in [PreflightMode::Warn, PreflightMode::Deny] {
            let desc = format!("{preflight:?}, `{flipped}` on {desc}");
            let config = OptimizerConfig {
                preflight,
                threads: 1,
                ..Default::default()
            };
            let mut svc = PlanService::new(catalog.clone(), config.clone());
            svc.prepare(q).unwrap();
            let got = svc.prepare(&flipped).unwrap_err();
            let want = Optimizer::with_config(catalog, config)
                .optimize(&flipped)
                .unwrap_err();
            assert_eq!(got, want, "{desc}");
            match preflight {
                PreflightMode::Deny => {
                    assert!(matches!(got, OptimizeError::Rejected { .. }), "{desc}");
                }
                _ => assert!(matches!(got, OptimizeError::Type(_)), "{desc}"),
            }
            assert_eq!(svc.stats().hits, u64::from(same_shape), "{desc}");
        }
    }
    let warm = ChaseContext::new(deps.clone(), ChaseConfig::default());
    let u = warm.chase(q).query;
    for _ in 0..2 {
        PlanSearch::new(&u).run(&warm, &ExploreAll);
    }
    let sorted = |qs: &[Query]| {
        let mut v = qs.to_vec();
        v.sort();
        v
    };
    for (r, phase2, phase1) in &variants {
        let desc = format!("ExploreAll, `{r}` on {desc}");
        let before = misses(&warm);
        let chased = warm.chase(r);
        let fresh = off.chase(r);
        assert_eq!(chased.query, fresh.query, "{desc}");
        assert_eq!(steps(&chased.steps), steps(&fresh.steps), "{desc}");
        let ur = chased.query;
        let got = PlanSearch::new(&ur).run(&warm, &ExploreAll);
        assert_added(&warm, before, (*phase2, *phase1), &desc);
        let want = PlanSearch::new(&ur).run(&off, &ExploreAll);
        assert_eq!(got.counters, want.counters, "{desc}");
        assert_eq!(sorted(&got.visited), sorted(&want.visited), "{desc}");
        assert_eq!(
            sorted(&got.normal_forms),
            sorted(&want.normal_forms),
            "{desc}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The rename-invariance oracle on generated catalogs and queries.
    #[test]
    fn renamed_queries_plan_like_a_fresh_context_on_random_catalogs(
        s in arb_scenario(),
        seed in any::<u64>(),
    ) {
        assert_rename_invariant(&s.catalog, &s.query, seed, &s.desc);
    }
}

/// The rename-invariance oracle on the paper's three scenarios.
#[test]
fn builtin_queries_plan_like_a_fresh_context_under_any_renaming() {
    use cb_catalog::scenarios::{projdept, relational_indexes, relational_views};
    let mut c = projdept::catalog();
    projdept::stats_for(&mut c, 100, 10, 20);
    assert_rename_invariant(&c, &projdept::query(), 1, "projdept");
    let mut c = relational_indexes::catalog();
    relational_indexes::stats_for(&mut c, 10_000, 1000, 1000);
    assert_rename_invariant(&c, &relational_indexes::query(), 2, "indexes");
    let mut c = relational_views::catalog();
    relational_views::stats_for(&mut c, 10_000, 10_000, 10);
    assert_rename_invariant(&c, &relational_views::query(), 3, "views");
}

/// The harness must *fail* on a broken bound: inflating the bound makes
/// it inadmissible, the branch-and-bound then prunes the optimal cone,
/// and the differential check reports a cost gap. (This is the
/// `bound_scale` test-only hook doing its one job; with the hook at its
/// default the same check passes — see the proptest above and
/// `tests/cost_guided.rs`.)
#[test]
fn inadmissible_bound_is_caught_by_the_differential_check() {
    use cb_catalog::scenarios::relational_views;
    let mut catalog = relational_views::catalog();
    relational_views::stats_for(&mut catalog, 10_000, 10_000, 10);
    let q = relational_views::query();
    let full = Optimizer::new(&catalog).optimize(&q).unwrap();
    let broken = Optimizer::with_config(
        &catalog,
        OptimizerConfig {
            strategy: SearchStrategy::CostGuided,
            bound_scale: 1.0e6,
            ..Default::default()
        },
    )
    .optimize(&q)
    .unwrap();
    assert!(
        broken.search.pruned() > 0,
        "the inflated bound pruned nothing"
    );
    assert!(
        (broken.best.cost - full.best.cost).abs() > 1e-9,
        "an inadmissible bound went undetected: both found cost {}",
        full.best.cost
    );
    // Scaling is the only difference: at 1.0 the same configuration is
    // exact again.
    let sound = Optimizer::with_config(
        &catalog,
        OptimizerConfig {
            strategy: SearchStrategy::CostGuided,
            ..Default::default()
        },
    )
    .optimize(&q)
    .unwrap();
    assert!((sound.best.cost - full.best.cost).abs() < 1e-9);
}

/// Deflating the bound keeps it admissible (any under-estimate is), so
/// the differential check must still pass — the harness reacts to
/// overshooting specifically, not to any perturbation.
#[test]
fn deflated_bound_stays_admissible_and_exact() {
    use cb_catalog::scenarios::projdept;
    let mut catalog = projdept::catalog();
    projdept::stats_for(&mut catalog, 100, 10, 20);
    let q = projdept::query();
    let full = Optimizer::new(&catalog).optimize(&q).unwrap();
    let deflated = Optimizer::with_config(
        &catalog,
        OptimizerConfig {
            strategy: SearchStrategy::CostGuided,
            bound_scale: 0.25,
            ..Default::default()
        },
    )
    .optimize(&q)
    .unwrap();
    assert!((deflated.best.cost - full.best.cost).abs() < 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The static-analysis differential: every generated scenario lints
    /// clean (no error-severity diagnostics), every candidate plan the
    /// optimizer produces compiles to a pipeline the dataflow verifier
    /// accepts (in both compile modes), and the static lookup-safety
    /// pass never contradicts the backchase's chase-based prover — a
    /// lookup declared statically safe is never the one `first_unsafe`
    /// returns, and when *every* obligation is discharged statically the
    /// prover has nothing left to reject.
    #[test]
    fn random_scenarios_lint_clean_and_plans_verify(s in arb_scenario()) {
        let analyzer = Analyzer::new(&s.catalog);
        let lint = analyzer.lint(&s.query);
        prop_assert!(!lint.has_errors(), "lint errors on {}:\n{}", s.desc, lint);

        // The default warn-mode pre-flight already dataflow-verifies every
        // candidate pipeline; its merged report must be error-free.
        let out = Optimizer::new(&s.catalog).optimize(&s.query).unwrap();
        prop_assert!(
            !out.diagnostics.has_errors(),
            "pre-flight errors on {}:\n{}", s.desc, out.diagnostics
        );

        for c in &out.candidates {
            for (hash_joins, merge_joins) in [(false, false), (true, false), (true, true)] {
                let p = compile(
                    &c.query,
                    CompileOptions { hash_joins, merge_joins, ..Default::default() },
                );
                let rep = check_pipeline(&p);
                prop_assert!(
                    !rep.has_errors(),
                    "pipeline errors (hash_joins={}, merge_joins={}) for `{}` on {}:\n{}",
                    hash_joins, merge_joins, c.query, s.desc, rep
                );
            }
            // Static vs prover, on the raw subquery the backchase judged.
            let summary = analyzer.lookup_summary(&c.raw);
            let ctx = ChaseContext::new(s.catalog.all_constraints(), ChaseConfig::default());
            let prover = first_unsafe(&ctx, &c.raw);
            if let Some((lookup, _)) = &prover {
                prop_assert!(
                    !summary.statically_safe().contains(&lookup),
                    "static pass declared `{}` safe but the prover rejected it \
                     in `{}` on {}",
                    lookup, c.raw, s.desc
                );
            }
            if summary.all_static() {
                prop_assert!(
                    prover.is_none(),
                    "all lookups static-safe in `{}` but the prover rejected `{}` on {}",
                    c.raw, prover.unwrap().0, s.desc
                );
            }
        }
    }
}

/// A fixed, fully-featured scenario for the mutation canaries below: all
/// access structures on, both selections, a two-column output.
fn canary_scenario() -> Scenario {
    build_scenario(
        true,
        true,
        true,
        true,
        true,
        vec![120, 5, 4_000, 1, 120, 5, 120],
        vec![3, 3, 3, 3],
        2.0,
        3,
        3,
        false,
    )
}

/// Canary 1: redirecting an operator's slot write must be caught — the
/// double write is a CB031 layout error and the orphaned register a
/// CB030 read-before-write.
#[test]
fn canary_swapped_slot_write_is_caught() {
    let s = canary_scenario();
    let mut p = compile(
        &s.query,
        CompileOptions {
            hash_joins: false,
            ..Default::default()
        },
    );
    let clean = check_pipeline(&p);
    assert!(!clean.has_errors(), "canary baseline dirty: {clean}");
    // Redirect the second writing operator onto the first one's register.
    let mut writes = p.ops.iter_mut().filter_map(|op| match op {
        Operator::Scan { slot, .. }
        | Operator::IterDependent { slot, .. }
        | Operator::Bind { slot, .. }
        | Operator::HashJoin { slot, .. }
        | Operator::MergeJoin { slot, .. } => Some(slot),
        Operator::Filter { .. } => None,
    });
    let first = *writes.next().expect("a writing operator");
    let second = writes.next().expect("a second writing operator");
    *second = first;
    let report = check_pipeline(&p);
    assert!(
        report.errors().any(|d| d.code == codes::SLOT_LAYOUT),
        "no CB031 for the double write: {report}"
    );
    assert!(
        report.errors().any(|d| d.code == codes::READ_BEFORE_WRITE),
        "no CB030 for the orphaned register: {report}"
    );
}

/// Canary 2: dropping a `from` binding must be caught twice over — the
/// well-formedness pass reports the now-unbound variable (CB001) and the
/// compiled pipeline's accessors cannot resolve it (CB032).
#[test]
fn canary_dropped_binding_is_caught() {
    let s = canary_scenario();
    let mut q = s.query.clone();
    q.from.remove(1);
    let report = Analyzer::new(&s.catalog).check_query(&q);
    assert!(
        report.errors().any(|d| d.code == codes::QUERY_SCOPE),
        "no CB001 for the dropped binding: {report}"
    );
    let p = compile(
        &q,
        CompileOptions {
            hash_joins: false,
            ..Default::default()
        },
    );
    let report = check_pipeline(&p);
    assert!(
        report.errors().any(|d| d.code == codes::UNRESOLVED_VAR),
        "no CB032 for the unresolved variable: {report}"
    );
}

/// Canary 3: breaking a dependency's scope (a premise condition over a
/// variable no binding introduces) must be caught as CB006, anchored at
/// the mutated dependency.
#[test]
fn canary_broken_dependency_scope_is_caught() {
    use universal_plans::analyze::check_dependencies;

    let s = canary_scenario();
    let mut deps = s.catalog.all_constraints();
    let clean = check_dependencies(&s.catalog.combined_schema(), &deps);
    assert!(clean.is_empty(), "canary baseline dirty: {clean}");
    let victim = deps.first_mut().expect("the catalog emits constraints");
    victim
        .premise
        .push(Equality(Path::var("ghost"), Path::int(0)));
    let name = victim.name.clone();
    let report = check_dependencies(&s.catalog.combined_schema(), &deps);
    assert!(
        report.errors().any(|d| d.code == codes::DEP_SCOPE
            && d.anchor == universal_plans::analyze::Anchor::Dependency(name.clone())),
        "no CB006 at [{name}]: {report}"
    );
}
