//! The backchase (paper §3, phase 2) and generalized tableau
//! minimization.
//!
//! A backchase step removes a (dependency-closed) set of bindings from a
//! query, producing a *subquery* `Q'` such that
//!
//! 1. the conditions `C'` of `Q'` are implied by the conditions `C` of
//!    `Q` — we compute the **maximal** implied set via the congruence
//!    closure, as the paper requires for completeness;
//! 2. the output `O'` is equal to `O` under `C` — outputs are re-expressed
//!    by congruence-class extraction avoiding the removed variables;
//! 3. `Q'` is equivalent to `Q` under `D ∪ D'`.
//!
//! Condition 3 comes in two flavours, both implemented here:
//!
//! * [`backchase_step`] — the paper's §3 *rewrite rule*: discharge the
//!   reconstruction constraint `forall(remaining) C' -> exists(removed) C`
//!   with the chase-based implication prover. Sound, and what a
//!   rule-based optimizer would run; but a single-binding rule can miss
//!   jointly-removable binding groups (remove `r` alone from
//!   `R ⋈ S ⊑ V`-chases and the witness for `s` is lost even though
//!   `{r, s}` together are redundant).
//! * [`backchase()`] — the paper's §5 *enumeration*: descend the subquery
//!   lattice of the universal plan one binding at a time, keeping a
//!   subquery only if it is **equivalent to the universal plan** (chase
//!   containment both ways), and pruning entire sublattices under
//!   non-equivalent subqueries ("whenever a subquery of chase(Q) is not
//!   equivalent to the latter, neither are its subqueries"). This is the
//!   complete procedure of Theorem 2 and the one Algorithm 1 uses.
//!
//! Additionally, every failing lookup of a produced subquery must remain
//! *well-defined*: syntactically guarded by a `dom` binding, or provably
//! non-failing under the constraints (this is what legitimizes plans like
//! P4, while rejecting a bare `SI["CitiBank"]` whose key may be absent —
//! that rewrite is only sound with the *non-failing* lookup, which the
//! optimizer's plan-cleanup pass introduces separately).
//!
//! With an empty dependency set the backchase is exactly generalized
//! tableau minimization ([`minimize`] over a context with no
//! dependencies).
//!
//! The enumeration itself is factored into [`PlanSearch`], a streaming
//! driver that hands each equivalence-verified subquery to a visitor
//! which steers the walk ([`Visit::Explore`] / [`Visit::Prune`] /
//! [`Visit::Accept`]); [`backchase()`] is its collect-everything
//! instantiation, and the optimizer's cost-guided branch-and-bound
//! strategy is another.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use pcql::idgen::VarGen;
use pcql::path::Path;
use pcql::query::{Binding, Equality, Output, Query};
use pcql::Dependency;

use crate::canon::QueryGraph;
use crate::containment::output_matching_hom;
use crate::context::ChaseContext;
use crate::egraph::EGraph;
use crate::hom::Assignment;
use crate::parallel::PlanSearch;

/// Extends a removal set with the bindings that (transitively) depend on
/// it and cannot be re-expressed without it (footnote 7 of the paper).
/// Monotone in the seed set: a larger seed only forbids more
/// re-expressions, so anything dragged along by a subset is dragged along
/// by the superset too (the must-remain analysis leans on this).
pub(crate) fn dependent_closure(
    q: &Query,
    graph: &mut QueryGraph,
    seed_set: BTreeSet<String>,
) -> BTreeSet<String> {
    let mut removed = seed_set;
    loop {
        let mut changed = false;
        for b in &q.from {
            if removed.contains(&b.var) {
                continue;
            }
            if b.src.free_vars().iter().any(|v| removed.contains(v)) {
                let class = graph.egraph.add_path(&b.src);
                // A source may not mention its own variable, so forbid it
                // during re-expression too.
                let mut forbidden = removed.clone();
                forbidden.insert(b.var.clone());
                if graph.egraph.extract(class, &forbidden).is_none() {
                    removed.insert(b.var.clone());
                    changed = true;
                }
            }
        }
        if !changed {
            return removed;
        }
    }
}

/// Computes the *syntactic* subquery for a removal set over `q`'s
/// canonical database: re-expressed bindings, re-expressed output
/// (condition 2) and the maximal implied conditions `C'` (condition 1).
/// `None` if the output or a surviving binding cannot be re-expressed.
pub(crate) fn subquery_for(
    q: &Query,
    graph: &mut QueryGraph,
    removed: &BTreeSet<String>,
) -> Option<Query> {
    if removed.len() >= q.from.len() {
        return None;
    }
    // Remaining bindings, re-expressed where needed, in a valid
    // dependency order.
    let mut remaining: Vec<Binding> = Vec::new();
    for b in &q.from {
        if removed.contains(&b.var) {
            continue;
        }
        let src = if b.src.free_vars().iter().any(|v| removed.contains(v)) {
            let class = graph.egraph.add_path(&b.src);
            let mut forbidden = removed.clone();
            forbidden.insert(b.var.clone());
            graph.egraph.extract(class, &forbidden)?
        } else {
            b.src.clone()
        };
        remaining.push(Binding {
            var: b.var.clone(),
            src,
            kind: b.kind,
        });
    }
    let remaining = topo_order(remaining)?;

    // Output re-expressed over the remaining variables (condition 2).
    let output = rewrite_output(graph, &q.output, removed)?;

    // C': the maximal set of equalities implied by C over the remaining
    // variables, as congruence-class chains, redundancy-filtered.
    let where_ = implied_conditions(graph, removed);

    let q_prime = Query::new(output, remaining, where_);
    debug_assert!(
        q_prime.check_scopes().is_ok(),
        "subquery scoping broke: {q_prime}"
    );
    Some(q_prime)
}

/// The paper's §3 backchase **rewrite rule**: remove the binding of
/// `seed` (with its dependent closure) when the reconstruction constraint
/// is implied by the context's dependencies. Sound; see the module docs
/// for why the full enumeration uses equivalence pruning instead.
pub fn backchase_step(ctx: &ChaseContext, q: &Query, seed: &str) -> Option<Query> {
    if !q.from.iter().any(|b| b.var == seed) {
        return None;
    }
    let mut graph = QueryGraph::of_query(q);
    let removed = dependent_closure(q, &mut graph, [seed.to_string()].into());
    let q_prime = subquery_for(q, &mut graph, &removed)?;
    let q_prime = prune_unsafe_conditions(ctx, &q_prime)?;
    // Condition (3): forall(remaining) C' -> exists(removed) C.
    let removed_bindings: Vec<Binding> = q
        .from
        .iter()
        .filter(|b| removed.contains(&b.var))
        .cloned()
        .collect();
    let sigma = Dependency::new(
        "backchase-step",
        q_prime.from.clone(),
        q_prime.where_.clone(),
        removed_bindings,
        q.where_.clone(),
    );
    if !ctx.implies(&sigma) {
        return None;
    }
    Some(q_prime)
}

/// Orders bindings so each source only mentions earlier variables.
fn topo_order(bindings: Vec<Binding>) -> Option<Vec<Binding>> {
    let mut rest = bindings;
    let mut placed: BTreeSet<String> = BTreeSet::new();
    let mut out = Vec::with_capacity(rest.len());
    while !rest.is_empty() {
        let pos = rest
            .iter()
            .position(|b| b.src.free_vars().iter().all(|v| placed.contains(v)))?;
        let b = rest.remove(pos);
        placed.insert(b.var.clone());
        out.push(b);
    }
    Some(out)
}

/// Re-expresses every output path avoiding the removed variables
/// (condition 2 of a backchase step). `None` exactly when some output
/// class has no realizable term outside `removed` — a verdict that can
/// only flip from `Some` to `None` as `removed` grows (extraction is
/// monotone in the forbidden set), which is what lets the must-remain
/// analysis treat a failure here as final for the whole sublattice.
pub(crate) fn rewrite_output(
    graph: &mut QueryGraph,
    output: &Output,
    removed: &BTreeSet<String>,
) -> Option<Output> {
    let mut rewrite = |p: &Path| -> Option<Path> {
        if p.free_vars().iter().any(|v| removed.contains(v)) {
            let class = graph.egraph.add_path(p);
            graph.egraph.extract(class, removed)
        } else {
            Some(p.clone())
        }
    };
    match output {
        Output::Struct(fields) => {
            let mut out = std::collections::BTreeMap::new();
            for (name, p) in fields {
                out.insert(name.clone(), rewrite(p)?);
            }
            Some(Output::Struct(out))
        }
        Output::Path(p) => Some(Output::Path(rewrite(p)?)),
    }
}

/// The maximal implied condition set `C'` over the surviving variables:
/// for every congruence class, chain together all realizable paths, then
/// drop equalities already implied by the ones emitted so far.
fn implied_conditions(graph: &QueryGraph, removed: &BTreeSet<String>) -> Vec<Equality> {
    let reals = graph.egraph.realizable_paths(removed);
    let mut candidates: Vec<Equality> = Vec::new();
    for paths in reals.values() {
        if paths.len() < 2 {
            continue;
        }
        let mut sorted = paths.clone();
        sorted.sort_by(|a, b| (a.size(), a).cmp(&(b.size(), b)));
        let pivot = sorted[0].clone();
        for p in sorted.into_iter().skip(1) {
            if p != pivot {
                candidates.push(Equality(pivot.clone(), p));
            }
        }
    }
    candidates.sort_by(|a, b| (a.0.size() + a.1.size(), a).cmp(&(b.0.size() + b.1.size(), b)));
    let mut check = EGraph::new();
    let mut out = Vec::new();
    for e in candidates {
        if !check.paths_equal(&e.0, &e.1) {
            check.union_paths(&e.0, &e.1);
            out.push(e);
        }
    }
    out
}

/// Makes a subquery *well-defined*: every failing lookup must be provably
/// non-failing at its evaluation point, where
///
/// * a lookup in the `i`-th binding's source sees only the bindings
///   before it (and no conditions — filters run after iteration);
/// * a lookup in the `where` clause sees all bindings but no conditions
///   (conjunct order is engine-defined);
/// * a lookup in the output sees all bindings and all conditions (outputs
///   are only evaluated for rows that pass the filter).
///
/// An unsafe lookup in a binding source or the output is fatal (`None`).
/// An unsafe lookup in a `where` condition is handled by *dropping* that
/// condition: `C'` only has to be implied by `C` (condition 1), not
/// maximal-at-all-costs, and the enumeration re-checks equivalence of the
/// pruned subquery anyway. (Without pruning, the maximal `C'` could smuggle
/// an index equation like `p = I[s]` into a plan whose own bindings cannot
/// guarantee `s ∈ dom(I)`.)
pub(crate) fn prune_unsafe_conditions(ctx: &ChaseContext, q: &Query) -> Option<Query> {
    let mut q = q.clone();
    loop {
        match first_unsafe(ctx, &q) {
            None => return Some(q),
            Some((lookup, fatal)) => {
                if fatal {
                    return None;
                }
                let before = q.where_.len();
                q.where_.retain(|e| {
                    !e.0.subpaths().contains(&&lookup) && !e.1.subpaths().contains(&&lookup)
                });
                if q.where_.len() == before {
                    // The lookup did not come from a condition after all.
                    return None;
                }
            }
        }
    }
}

/// The first not-provably-safe failing lookup of `q`, tagged with whether
/// it is fatal (binding source / output) or condition-level. Safety
/// proofs go through the context's implication memo, from every search
/// worker alike; the congruence graph for guardedness
/// is built once per call (lazily), not once per obligation.
///
/// Public so that static analysis (cb-analyze's lookup-safety pass) can be
/// differentially checked against this prover: a lookup the syntactic
/// pre-pass declares safe must never be the one returned here.
pub fn first_unsafe(ctx: &ChaseContext, q: &Query) -> Option<(Path, bool)> {
    let mut checked: BTreeSet<Path> = BTreeSet::new();
    let mut guard_graph: Option<QueryGraph> = None;
    // (lookup, bindings in scope, assumable premise, fatal)
    let mut obligations: Vec<(Path, usize, bool, bool)> = Vec::new();
    for (i, b) in q.from.iter().enumerate() {
        for sub in b.src.subpaths() {
            if matches!(sub, Path::Get(_, _)) {
                obligations.push((sub.clone(), i, false, true));
            }
        }
    }
    for (_, p) in q.output.paths() {
        for sub in p.subpaths() {
            if matches!(sub, Path::Get(_, _)) {
                obligations.push((sub.clone(), q.from.len(), true, true));
            }
        }
    }
    for eq in &q.where_ {
        for p in [&eq.0, &eq.1] {
            for sub in p.subpaths() {
                if matches!(sub, Path::Get(_, _)) {
                    obligations.push((sub.clone(), q.from.len(), false, false));
                }
            }
        }
    }

    for (lookup, scope, with_conditions, fatal) in obligations {
        if !checked.insert(lookup.clone()) {
            continue;
        }
        let (m, k) = match &lookup {
            Path::Get(m, k) => (m.as_ref().clone(), k.as_ref().clone()),
            _ => unreachable!(),
        };
        // Syntactic guard: a dom binding in scope whose variable equals
        // the key under the query's conditions. Without assumable
        // conditions we only accept a literally identical key.
        let in_scope = &q.from[..scope];
        let mut guarded = false;
        for b in in_scope {
            if b.src != Path::Dom(Box::new(m.clone())) {
                continue;
            }
            if Path::Var(b.var.clone()) == k {
                guarded = true;
                break;
            }
            if with_conditions {
                let g = guard_graph.get_or_insert_with(|| QueryGraph::of_query(q));
                if g.egraph.paths_equal(&Path::Var(b.var.clone()), &k) {
                    guarded = true;
                    break;
                }
            }
        }
        if guarded {
            continue;
        }
        // Semantic safety: deps ⊨ forall(scope) [premise] ->
        // exists (g in dom(m)) g = k. An empty scope can never be safe
        // (the lookup would have to succeed on every instance).
        let safe = if in_scope.is_empty() {
            false
        } else {
            let mut gen = VarGen::avoiding(q.from.iter().map(|b| b.var.clone()));
            let g = gen.fresh("g");
            let premise = if with_conditions {
                q.where_.clone()
            } else {
                Vec::new()
            };
            let sigma = Dependency::new(
                "lookup-safety",
                in_scope.to_vec(),
                premise,
                vec![Binding::iter(g.clone(), Path::Dom(Box::new(m.clone())))],
                vec![Equality(Path::Var(g), k.clone())],
            );
            ctx.implies(&sigma)
        };
        if !safe {
            return Some((lookup, fatal));
        }
    }
    None
}

/// An *anytime* budget for a [`PlanSearch`]: the walk
/// stops the moment either limit is reached and keeps everything found so
/// far. Every node a search has streamed is a fully equivalence-verified
/// plan, so expiry only trims how much of the plan space was explored —
/// a latency SLO, never a correctness change. The root of the lattice
/// (the universal plan itself) is always visited before a budget is
/// consulted, so even `nodes: Some(0)` yields one sound plan. The
/// default sets neither limit: it never expires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchBudget {
    /// Stop after this much wall-clock time in the search loop.
    pub wall_clock: Option<Duration>,
    /// Stop once this many (equivalence-verified) nodes are visited, the
    /// root included: `Some(n)` visits `max(n, 1)` nodes.
    pub nodes: Option<usize>,
}

impl SearchBudget {
    /// Has the budget run out, `visited` nodes after `start`? The caller
    /// guarantees `visited >= 1` (the root is exempt).
    pub(crate) fn expired(&self, start: Instant, visited: usize) -> bool {
        self.nodes.is_some_and(|n| visited >= n)
            || self.wall_clock.is_some_and(|d| start.elapsed() >= d)
    }
}

/// What a [`PlanSearch`] visitor tells the driver
/// about one equivalence-verified lattice node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Visit {
    /// Examine the node's children — the exhaustive behaviour.
    #[default]
    Explore,
    /// Skip this node: neither cost nor descend below it. Sound for
    /// *search* whenever the visitor knows the node and its descendants
    /// cannot be of interest (e.g. an admissible cost lower bound already
    /// exceeds the incumbent best); the node's minimality then remains
    /// undetermined, so it is not reported as a normal form.
    Prune,
    /// Stop the whole search, keeping everything found so far.
    Accept,
}

/// A caller-supplied steering policy for [`PlanSearch`]:
/// which verified nodes to expand ([`SearchVisitor::visit`]), which
/// candidates are worth verifying at all ([`SearchVisitor::admit`]), and
/// in what order the frontier is explored ([`SearchVisitor::priority`]).
/// The defaults reproduce the exhaustive breadth-first enumeration
/// exactly. The hooks take `&self` and the visitor is shared by every
/// worker of the walk, so any state it keeps sits behind its own locks
/// or atomics.
pub trait SearchVisitor: Sync {
    /// Called once per equivalence-verified node (by whichever worker
    /// popped it; at one worker in exploration order, the search root
    /// first). The node is a sound plan; the verdict steers the search,
    /// and [`Visit::Accept`] stops every worker. The [`ChaseContext`] is
    /// handed back so the visitor can run its own memoized proofs (e.g.
    /// condition pruning while costing a plan).
    fn visit(&self, _ctx: &ChaseContext, _q: &Query, _removed: &BTreeSet<String>) -> Visit {
        Visit::Explore
    }

    /// A cheap gate on each candidate subquery *before* the expensive
    /// equivalence verification; returning `false` skips the candidate
    /// (it is never verified, visited or costed) and counts it as
    /// pruned. A branch-and-bound caller returns `false` when an
    /// admissible lower bound for the candidate (and hence, by
    /// monotonicity, for its whole sublattice) already exceeds its
    /// incumbent. Default: admit everything.
    fn admit(&self, _q: &Query, _removed: &BTreeSet<String>) -> bool {
        true
    }

    /// Exploration priority of a verified node — lower pops first, ties
    /// pop in discovery order. The default (a constant) makes the search
    /// breadth-first; a cost-guided caller returns a cost estimate so
    /// cheap regions are explored first and the incumbent drops early.
    fn priority(&self, _q: &Query, _removed: &BTreeSet<String>) -> f64 {
        0.0
    }

    /// Whether the three hooks above read the query and removal set they
    /// are handed — a property of the visitor type, not a setting. A
    /// visitor that returns `false` may be handed a node replayed from a
    /// verified lattice in the names and constants of the plan the
    /// lattice was recorded for, so the walk skips translating nodes
    /// nothing reads. Default: `true`, every argument in `u`'s names.
    fn reads_nodes(&self) -> bool {
        true
    }
}

/// The always-explore visitor: exhaustive breadth-first enumeration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreAll;

impl SearchVisitor for ExploreAll {
    fn reads_nodes(&self) -> bool {
        false
    }
}

/// Outcome of a [`PlanSearch`] run.
#[derive(Debug, Clone, Default)]
pub struct SearchOutcome {
    /// Nodes that were explored, had no valid child and no gated
    /// candidate child: minimal plans. With a pruning visitor this is a
    /// subset of the true normal forms — anything touched by pruning is
    /// never claimed minimal.
    pub normal_forms: Vec<Query>,
    /// Every equivalence-verified node streamed to the visitor, in visit
    /// order (the input `u` first), in `u`'s names and constants. Each is
    /// a sound plan. Empty when the run opted out via
    /// [`PlanSearch::with_collect_visited`]: collecting costs a copy of
    /// every visited node, so ask for it only when something reads it.
    pub visited: Vec<Query>,
    /// How far the walk got and why it stopped.
    pub counters: SearchCounters,
}

/// How far one [`PlanSearch`] run got and why it stopped — the record
/// the optimizer reports as `OptimizeOutcome::search`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// Nodes streamed to the visitor (`visited.len()` when collected).
    pub visited_count: usize,
    /// Candidate subqueries skipped by [`SearchVisitor::admit`] before
    /// any verification work was spent on them.
    pub pruned_at_gate: usize,
    /// Verified nodes the visitor pruned at [`SearchVisitor::visit`].
    pub pruned_at_visit: usize,
    /// False if the walk stopped with work left because its
    /// [`SearchBudget`] expired or every worker died (an accepting
    /// visitor leaves it true).
    pub complete: bool,
    /// True if the visitor ended the search with [`Visit::Accept`].
    pub accepted: bool,
    /// True if a [`SearchBudget`] limit expired mid-search (the outcome
    /// still carries every verified plan found up to that point).
    pub budget_expired: bool,
    /// Workers that died to a panic mid-search and were recovered by
    /// abandoning their claims (always 0 at one worker, whose panics
    /// reach the caller). The surviving workers re-claim and finish, so
    /// a non-zero count with `complete == true` still carries the full
    /// search result.
    pub workers_died: usize,
}

impl SearchCounters {
    /// Total sublattices cut by the visitor (gate + visit).
    pub fn pruned(&self) -> usize {
        self.pruned_at_visit + self.pruned_at_gate
    }
}

/// Enumerates all minimal equivalent subqueries of `u` (Theorem 2), by
/// descending the lattice of removal sets over `u`'s canonical database
/// with equivalence pruning ("whenever a subquery of chase(Q) is not
/// equivalent to the latter, neither are its subqueries"). `u` should
/// already be chased (Algorithm 1 passes the universal plan), so
/// equivalence to `u` is equivalence to the original query. The
/// collect-everything instantiation of [`PlanSearch`]: a visitor that
/// always explores, with no budget. A caller that needs to stop the walk
/// early runs `PlanSearch::new(u).with_budget(..)` instead.
pub fn backchase(ctx: &ChaseContext, u: &Query) -> SearchOutcome {
    PlanSearch::new(u).run(ctx, &ExploreAll)
}

/// The paper's §3 heuristic strategy: "the obvious strategy for the
/// optimizer is to attempt to remove whatever is in the logical schema
/// but not in the physical schema". A single greedy descent: at each
/// query, try removals in priority order (bindings whose sources mention
/// `prefer_removing` roots first), follow the first valid one, stop at a
/// normal form. Linear in the number of bindings (each step runs the
/// equivalence checks once per candidate), against the exhaustive
/// enumeration's exponential lattice — the E13 ablation measures the
/// plan-quality price. Returns the plan and the descent's counters: it
/// visits the universal plan and every candidate subquery it verifies,
/// equivalent or not, and always completes.
pub fn backchase_greedy(
    ctx: &ChaseContext,
    u: &Query,
    prefer_removing: &BTreeSet<String>,
) -> (Query, SearchCounters) {
    let mut graph = QueryGraph::of_query(u);
    let mut hom_graph = graph.clone();
    let mut removed: BTreeSet<String> = BTreeSet::new();
    let mut counters = SearchCounters {
        visited_count: 1,
        complete: true,
        ..SearchCounters::default()
    };
    // The equivalence check for a candidate removal: the identity over
    // the surviving variables always witnesses u ⊑ q2 (see the
    // enumeration), so only validate it, then test q2 ⊑ u memoized.
    let mut valid = |ctx: &ChaseContext, hom_graph: &mut QueryGraph, q2: &Query| -> bool {
        counters.visited_count += 1;
        let seed: Assignment = q2
            .from
            .iter()
            .map(|b| (b.var.clone(), Path::Var(b.var.clone())))
            .collect();
        output_matching_hom(hom_graph, &u.output, q2, ctx.cfg(), Some(&seed)).is_some()
            && ctx.contained_in(q2, u)
    };
    // First move, per the paper: attempt to drop *everything* over the
    // preferred (logical-only) roots in one step — redundant logical
    // bindings usually justify each other, so they must go together.
    if !prefer_removing.is_empty() {
        let seed: BTreeSet<String> = u
            .from
            .iter()
            .filter(|b| b.src.roots().iter().any(|r| prefer_removing.contains(r)))
            .map(|b| b.var.clone())
            .collect();
        if !seed.is_empty() {
            let grown = dependent_closure(u, &mut graph, seed);
            if let Some(q2) =
                subquery_for(u, &mut graph, &grown).and_then(|q2| prune_unsafe_conditions(ctx, &q2))
            {
                if valid(ctx, &mut hom_graph, &q2) {
                    removed = grown;
                }
            }
        }
    }
    loop {
        // Candidate seeds, preferred (logical-only) bindings first, in
        // binding order within each class.
        let mut candidates: Vec<&Binding> = u
            .from
            .iter()
            .filter(|b| !removed.contains(&b.var))
            .collect();
        candidates.sort_by_key(|b| {
            let preferred = b.src.roots().iter().any(|r| prefer_removing.contains(r));
            (!preferred, u.from.iter().position(|x| x.var == b.var))
        });
        let mut advanced = false;
        for b in candidates {
            let mut grown = removed.clone();
            grown.insert(b.var.clone());
            let grown = dependent_closure(u, &mut graph, grown);
            let Some(q2) = subquery_for(u, &mut graph, &grown)
                .and_then(|q2| prune_unsafe_conditions(ctx, &q2))
            else {
                continue;
            };
            if valid(ctx, &mut hom_graph, &q2) {
                removed = grown;
                advanced = true;
                break;
            }
        }
        if !advanced {
            let plan = subquery_for(u, &mut graph, &removed)
                .and_then(|q2| prune_unsafe_conditions(ctx, &q2))
                .unwrap_or_else(|| u.clone());
            return (plan, counters);
        }
    }
}

/// Why a removal set is (or is not) a valid equivalent subquery of `u` —
/// the per-candidate judgement the enumeration makes, exposed for
/// diagnostics and EXPLAIN output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemovalJudgement {
    /// The subquery is a valid equivalent plan.
    Valid(Query),
    /// A surviving binding or the output cannot be re-expressed.
    NotASubquery,
    /// A failing lookup would not be well-defined.
    UnsafeLookup(Query),
    /// The subquery is not equivalent to `u`.
    NotEquivalent(Query),
}

/// Judges one removal set against `u` (which should be chased), over a
/// caller-held `graph` (the canonical database of `u`), so judging many
/// removal sets — the E9 brute-force sweep judges all `2^n` — does not
/// rebuild the graph per call.
pub fn examine_removal(
    ctx: &ChaseContext,
    u: &Query,
    graph: &mut QueryGraph,
    removed: &BTreeSet<String>,
) -> RemovalJudgement {
    let removed = dependent_closure(u, graph, removed.clone());
    let Some(q2) = subquery_for(u, graph, &removed) else {
        return RemovalJudgement::NotASubquery;
    };
    let Some(q2) = prune_unsafe_conditions(ctx, &q2) else {
        return RemovalJudgement::UnsafeLookup(q2);
    };
    // u ⊑ q2 against u's own canonical database — a copy, so the paths
    // the hom search interns stay out of the graph later removal sets
    // are extracted from — then q2 ⊑ u through the context.
    let u_in_q2 = output_matching_hom(&mut graph.clone(), &u.output, &q2, ctx.cfg(), None);
    if u_in_q2.is_none() || !ctx.contained_in(&q2, u) {
        return RemovalJudgement::NotEquivalent(q2);
    }
    RemovalJudgement::Valid(q2)
}

/// Is `q` minimal (no equivalent, well-defined subquery below it)? The
/// canonical database of `q` is built once, not once per binding, and the
/// equivalence checks share the context's chase memo (`q` itself is
/// chased at most once across all bindings).
pub fn is_minimal(ctx: &ChaseContext, q: &Query) -> bool {
    let mut graph = QueryGraph::of_query(q);
    q.from.iter().all(|b| {
        let removed = dependent_closure(q, &mut graph, [b.var.clone()].into());
        match subquery_for(q, &mut graph, &removed).and_then(|q2| prune_unsafe_conditions(ctx, &q2))
        {
            None => true,
            Some(q2) => !ctx.equivalent(&q2, q),
        }
    })
}

/// Generalized tableau minimization, under the context's dependencies:
/// the smallest normal form of [`backchase()`]. Over a context with no
/// dependencies this is the paper's "chasing with trivial, always true,
/// constraints".
pub fn minimize(ctx: &ChaseContext, q: &Query) -> Query {
    backchase(ctx, q)
        .normal_forms
        .into_iter()
        .min_by(|a, b| {
            (a.from.len(), a.size(), a.alpha_normalized()).cmp(&(
                b.from.len(),
                b.size(),
                b.alpha_normalized(),
            ))
        })
        .unwrap_or_else(|| q.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::ChaseConfig;
    use pcql::parser::{parse_dependency, parse_query};

    fn ctx(deps: &[Dependency]) -> ChaseContext {
        ChaseContext::new(deps.to_vec(), ChaseConfig::default())
    }

    /// `u` joins R, S and a view V of their join, under V's two
    /// inclusion constraints.
    fn view_scenario() -> (Query, Vec<Dependency>) {
        let u = parse_query(
            "select struct(A = r.A) from R r, S s, V v \
             where r.B = s.B and v.A = r.A",
        )
        .unwrap();
        let deps = vec![
            parse_dependency(
                "c_V",
                "forall (r in R) (s in S) where r.B = s.B -> exists (v in V) where v.A = r.A",
            )
            .unwrap(),
            parse_dependency(
                "c'_V",
                "forall (v in V) -> exists (r in R) (s in S) where r.B = s.B and v.A = r.A",
            )
            .unwrap(),
        ];
        (u, deps)
    }

    #[test]
    fn paper_tableau_minimization_example() {
        // §3: R(A,B) with a redundant third binding.
        let q = parse_query(
            "select struct(A = p.A, B = r.B) from R p, R q, R r \
             where p.B = q.A and q.B = r.B",
        )
        .unwrap();
        let m = minimize(&ctx(&[]), &q);
        assert_eq!(m.from.len(), 2);
        let expect =
            parse_query("select struct(A = p.A, B = q.B) from R p, R q where p.B = q.A").unwrap();
        assert_eq!(m.alpha_normalized(), expect.alpha_normalized());
    }

    #[test]
    fn minimization_is_idempotent() {
        let q = parse_query(
            "select struct(A = p.A, B = r.B) from R p, R q, R r \
             where p.B = q.A and q.B = r.B",
        )
        .unwrap();
        let ctx = ctx(&[]);
        let m1 = minimize(&ctx, &q);
        let m2 = minimize(&ctx, &m1);
        assert_eq!(m1.alpha_normalized(), m2.alpha_normalized());
    }

    #[test]
    fn minimize_under_a_ric_drops_the_dependent_join() {
        // Held over a context with a RIC, minimization is semantic: every
        // r has an s partner, so the join with s goes. It is exactly the
        // smallest normal form of the backchase over the same context.
        let q = parse_query("select struct(A = r.A) from R r, S s where r.B = s.B").unwrap();
        let ric =
            parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.B = s.B").unwrap();
        let with_ric = ctx(&[ric]);
        let m = minimize(&with_ric, &q);
        assert_eq!(m.to_string(), "select struct(A = r.A) from R r");
        assert_eq!(backchase(&with_ric, &q).normal_forms, vec![m]);
        // Without the RIC the join stays.
        assert_eq!(minimize(&ctx(&[]), &q).from.len(), 2);
    }

    #[test]
    fn no_step_without_justification() {
        // A plain join has no removable binding.
        let q =
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap();
        let ctx = ctx(&[]);
        assert!(is_minimal(&ctx, &q));
        for b in &q.from {
            assert!(backchase_step(&ctx, &q, &b.var).is_none());
        }
    }

    #[test]
    fn ric_justifies_join_elimination() {
        // With the RIC every r has an s partner; the join with s whose
        // columns aren't used can be dropped (semantic optimization).
        let q = parse_query("select struct(A = r.A) from R r, S s where r.B = s.B").unwrap();
        let ric =
            parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.B = s.B").unwrap();
        let with_ric = ctx(&[ric]);
        let q2 = backchase_step(&with_ric, &q, "s").expect("s removable");
        assert_eq!(q2.from.len(), 1);
        assert_eq!(q2.to_string(), "select struct(A = r.A) from R r");
        // Without the constraint the step is rejected.
        assert!(backchase_step(&ctx(&[]), &q, "s").is_none());
        // The enumeration agrees.
        let out = backchase(&with_ric, &q);
        assert_eq!(out.normal_forms.len(), 1);
        assert_eq!(out.normal_forms[0].from.len(), 1);
    }

    #[test]
    fn dependent_bindings_removed_together() {
        // Removing d must drag s (bound to d.DProjs) along when s can't be
        // re-expressed.
        let q = parse_query("select struct(A = p.A) from depts d, d.DProjs s, Proj p").unwrap();
        // Unconstrained, the removal is not equivalence-preserving
        // (depts or DProjs may be empty).
        assert!(backchase_step(&ctx(&[]), &q, "d").is_none());
        // With a constraint making every Proj row belong to some dept,
        // the removal of {d, s} is justified.
        let cov = parse_dependency(
            "cov",
            "forall (p in Proj) -> exists (d in depts) (s in d.DProjs) where s = s",
        )
        .unwrap();
        let q2 = backchase_step(&ctx(&[cov]), &q, "d").expect("d,s removable");
        assert_eq!(q2.from.len(), 1);
        assert_eq!(q2.from[0].src, Path::root("Proj"));
    }

    #[test]
    fn dependent_binding_reexpressed_instead_of_removed() {
        // d = d2, s ranges over d.DProjs; removing d re-expresses s's
        // source over d2.
        let q = parse_query("select struct(S = s) from depts d, depts d2, d.DProjs s where d = d2")
            .unwrap();
        let q2 = backchase_step(&ctx(&[]), &q, "d").expect("d removable");
        assert_eq!(q2.from.len(), 2);
        assert!(q2
            .from
            .iter()
            .any(|b| b.src == Path::var("d2").field("DProjs")));
    }

    #[test]
    fn output_blocks_removal() {
        // q's only output comes from s; s can't be removed even though the
        // RIC would justify the existence part.
        let q = parse_query("select struct(C = s.C) from R r, S s where r.B = s.B").unwrap();
        let ric =
            parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.B = s.B").unwrap();
        let ctx = ctx(&[ric]);
        assert!(backchase_step(&ctx, &q, "s").is_none());
        let out = backchase(&ctx, &q);
        assert_eq!(out.normal_forms.len(), 1);
        assert_eq!(out.normal_forms[0].from.len(), 2);
    }

    #[test]
    fn view_rewrite_via_backchase_enumeration() {
        // The chased query contains the base join and the view; the
        // complete enumeration finds both minimal plans, including the
        // view-only plan that requires removing {r, s} jointly (which the
        // single-binding rewrite rule alone cannot justify).
        let (u, deps) = view_scenario();
        // The single-binding rule: v is removable, r alone is not (the
        // witness for the remaining s is lost).
        let ctx = ctx(&deps);
        let base = backchase_step(&ctx, &u, "v").expect("v removable");
        assert_eq!(base.from.len(), 2);
        assert!(backchase_step(&ctx, &u, "r").is_none());

        // The complete enumeration still reaches the view-only plan.
        let out = backchase(&ctx, &u);
        assert!(out.counters.complete);
        let shapes: BTreeSet<Vec<String>> = out
            .normal_forms
            .iter()
            .map(|q| q.from.iter().map(|b| b.src.to_string()).collect())
            .collect();
        assert!(
            shapes.contains(&vec!["V".to_string()]),
            "view-only plan found: {shapes:?}"
        );
        assert!(shapes.contains(&vec!["R".to_string(), "S".to_string()]));
        assert_eq!(out.normal_forms.len(), 2);
        // The visited set contains the universal plan itself.
        assert!(out.visited.iter().any(|q| q.from.len() == 3));
    }

    #[test]
    fn unguarded_lookup_rejected_without_proof() {
        // Removing the dom guard around a constant-key lookup would leave
        // SI["CitiBank"], which may fail; the step must be rejected.
        let q = parse_query(
            r#"select struct(PN = t.PName) from dom(SI) k, SI[k] t where k = "CitiBank""#,
        )
        .unwrap();
        let ctx = ctx(&[]);
        assert!(backchase_step(&ctx, &q, "k").is_none());
        let out = backchase(&ctx, &q);
        assert_eq!(out.normal_forms.len(), 1);
        assert_eq!(out.normal_forms[0].from.len(), 2);
    }

    #[test]
    fn guarded_lookup_key_rewrite_allowed_with_proof() {
        // JI's PN values are always in dom(I) (via the constraints), so
        // the dom(I) binding can be removed, leaving I[j.PN] — P4's shape.
        let q = parse_query("select struct(PB = I[i].Budg) from JI j, dom(I) i where i = j.PN")
            .unwrap();
        let safety = parse_dependency(
            "ji_pn_indexed",
            "forall (j in JI) -> exists (i in dom(I)) where i = j.PN",
        )
        .unwrap();
        let with_safety = ctx(&[safety]);
        let q2 = backchase_step(&with_safety, &q, "i").expect("i removable");
        assert_eq!(q2.from.len(), 1);
        assert_eq!(q2.output.paths()[0].1.to_string(), "I[j.PN].Budg");
        // Without the safety constraint the step is rejected.
        assert!(backchase_step(&ctx(&[]), &q, "i").is_none());
        // Enumeration reaches P4's shape as the unique normal form.
        let out = backchase(&with_safety, &q);
        assert_eq!(out.normal_forms.len(), 1);
        assert_eq!(out.normal_forms[0].from.len(), 1);
    }

    #[test]
    fn minimize_under_key_constraint() {
        // Algorithm 1 structure: chase first (the key EGD equates the two
        // sides), then backchase collapses the self-join.
        let q =
            parse_query("select struct(A = p.A, B = q.B) from R p, R q where p.K = q.K").unwrap();
        let key =
            parse_dependency("key", "forall (p in R) (q in R) where p.K = q.K -> p = q").unwrap();
        let ctx = ctx(&[key]);
        let u = ctx.chase(&q).query;
        let out = backchase(&ctx, &u);
        assert!(out.normal_forms.iter().any(|nf| nf.from.len() == 1));
    }

    #[test]
    fn greedy_descent_reaches_a_minimal_plan() {
        let (u, deps) = view_scenario();
        // Preferring to remove R and S (as if they were logical-only)
        // drives the descent into the view-only plan.
        let prefer: BTreeSet<String> = ["R".to_string(), "S".to_string()].into();
        let ctx = ctx(&deps);
        let (plan, _) = backchase_greedy(&ctx, &u, &prefer);
        assert_eq!(plan.from.len(), 1);
        assert_eq!(plan.from[0].src, Path::root("V"));
        assert!(is_minimal(&ctx, &plan));

        // With no preference the descent still reaches a minimal plan
        // (removing r alone is equivalence-preserving here: an empty S
        // forces an empty V, so the dangling S binding filters nothing).
        let (plan2, _) = backchase_greedy(&ctx, &u, &BTreeSet::new());
        assert!(is_minimal(&ctx, &plan2));
        assert_eq!(plan2.from.len(), 1);
    }

    #[test]
    fn greedy_on_already_minimal_query_is_identity_shaped() {
        let q =
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap();
        let (plan, _) = backchase_greedy(&ctx(&[]), &q, &BTreeSet::new());
        assert_eq!(plan.from.len(), 2);
    }

    #[test]
    fn plan_search_accept_stops_the_walk() {
        struct AcceptSmall;
        impl SearchVisitor for AcceptSmall {
            fn visit(&self, _: &ChaseContext, q: &Query, _: &BTreeSet<String>) -> Visit {
                if q.from.len() <= 2 {
                    Visit::Accept
                } else {
                    Visit::Explore
                }
            }
        }
        let (u, deps) = view_scenario();
        let ctx = ChaseContext::new(deps, ChaseConfig::default());
        let out = PlanSearch::new(&u).run(&ctx, &AcceptSmall);
        assert!(out.counters.accepted);
        // The accepted plan is the last node visited, and the walk
        // stopped there (an exhaustive run visits more).
        assert_eq!(out.visited.last().unwrap().from.len(), 2);
        let ctx = ChaseContext::new(ctx.deps().to_vec(), ChaseConfig::default());
        let full = PlanSearch::new(&u).run(&ctx, &ExploreAll);
        assert!(!full.counters.accepted);
        assert!(out.visited.len() < full.visited.len());
    }

    #[test]
    fn plan_search_gate_cuts_candidates_before_verification() {
        // Admit nothing below the root: only the root is visited, every
        // direct candidate is counted as gate-pruned, and nothing —
        // including the root, whose minimality the gate left
        // undetermined — is claimed a normal form.
        struct RootOnly;
        impl SearchVisitor for RootOnly {
            fn admit(&self, _: &Query, _: &BTreeSet<String>) -> bool {
                false
            }
        }
        let (u, deps) = view_scenario();
        let ctx = ChaseContext::new(deps, ChaseConfig::default());
        let out = PlanSearch::new(&u).run(&ctx, &RootOnly);
        assert_eq!(out.visited.len(), 1);
        assert!(out.counters.pruned_at_gate > 0);
        assert_eq!(out.counters.pruned(), out.counters.pruned_at_gate);
        assert!(out.normal_forms.is_empty());
        assert!(out.counters.complete);
    }

    #[test]
    fn plan_search_priority_orders_the_frontier() {
        // Exploring small subqueries first must still visit the same set
        // of nodes as the FIFO walk — order is a policy, coverage is not.
        struct SmallFirst;
        impl SearchVisitor for SmallFirst {
            fn priority(&self, q: &Query, _: &BTreeSet<String>) -> f64 {
                q.from.len() as f64
            }
        }
        let (u, deps) = view_scenario();
        let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let prioritized = PlanSearch::new(&u).run(&ctx, &SmallFirst);
        let ctx = ChaseContext::new(deps, ChaseConfig::default());
        let fifo = PlanSearch::new(&u).run(&ctx, &ExploreAll);
        let norm = |qs: &[Query]| {
            let mut v: Vec<Query> = qs.iter().map(Query::alpha_normalized).collect();
            v.sort();
            v
        };
        assert_eq!(norm(&prioritized.visited), norm(&fifo.visited));
        assert_eq!(norm(&prioritized.normal_forms), norm(&fifo.normal_forms));
        // The prioritized walk reaches a 1-binding plan before the FIFO
        // walk does.
        let first_small = |qs: &[Query]| qs.iter().position(|q| q.from.len() == 1).unwrap();
        assert!(first_small(&prioritized.visited) <= first_small(&fifo.visited));
    }

    #[test]
    fn visited_budget_respected() {
        let (u, deps) = view_scenario();
        let out = PlanSearch::new(&u)
            .with_budget(SearchBudget {
                nodes: Some(1),
                ..SearchBudget::default()
            })
            .run(&ctx(&deps), &ExploreAll);
        assert!(!out.counters.complete);
        assert!(out.counters.budget_expired);
        assert_eq!(out.counters.visited_count, 1);
    }

    #[test]
    fn anytime_node_budget_keeps_the_root() {
        let (u, deps) = view_scenario();
        // nodes = 0: the root is exempt, so exactly the universal plan
        // itself is visited and the expiry is reported.
        let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let out = PlanSearch::new(&u)
            .with_budget(SearchBudget {
                nodes: Some(0),
                ..SearchBudget::default()
            })
            .run(&ctx, &ExploreAll);
        assert!(out.counters.budget_expired);
        assert!(!out.counters.complete);
        assert_eq!(out.visited.len(), 1);
        assert_eq!(out.visited[0].alpha_normalized(), u.alpha_normalized());
        // A zero wall-clock budget behaves the same way.
        let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let out = PlanSearch::new(&u)
            .with_budget(SearchBudget {
                wall_clock: Some(Duration::ZERO),
                ..SearchBudget::default()
            })
            .run(&ctx, &ExploreAll);
        assert!(out.counters.budget_expired);
        assert_eq!(out.visited.len(), 1);
        // An unlimited budget changes nothing and reports no expiry.
        let ctx = ChaseContext::new(deps, ChaseConfig::default());
        let out = PlanSearch::new(&u).run(&ctx, &ExploreAll);
        assert!(!out.counters.budget_expired);
        assert!(out.counters.complete);
    }

    #[test]
    fn anytime_node_budget_truncates_mid_search() {
        let (u, deps) = view_scenario();
        let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let full = PlanSearch::new(&u).run(&ctx, &ExploreAll);
        assert!(full.visited.len() > 2);
        let ctx = ChaseContext::new(deps, ChaseConfig::default());
        let out = PlanSearch::new(&u)
            .with_budget(SearchBudget {
                nodes: Some(2),
                ..SearchBudget::default()
            })
            .run(&ctx, &ExploreAll);
        assert!(out.counters.budget_expired);
        assert_eq!(out.visited.len(), 2);
        // Everything kept is a verified plan from the full walk's set.
        let norm =
            |qs: &[Query]| -> BTreeSet<Query> { qs.iter().map(Query::alpha_normalized).collect() };
        assert!(norm(&out.visited).is_subset(&norm(&full.visited)));
    }
}
