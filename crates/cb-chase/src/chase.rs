//! The chase (paper §3, phase 1).
//!
//! A chase step with `forall (x̄ in P̄) B1 -> exists (ȳ in P̄') B2` finds a
//! trigger — a homomorphism of the universal side into the query — that
//! has no extension to the existential side (the *restricted* chase), and
//! then adds the instantiated existential bindings and conclusion
//! equalities to the query:
//!
//! ```text
//! select O(r̄) from …, R1 r1, …, Rm rm, …        where … and B1 and …
//!   ~>
//! select O(r̄) from …, R1 r1, …, S1 s1, …, Sn sn where … and B1 and B2 and …
//! ```
//!
//! Chasing to a fixpoint with `D ∪ D'` yields the **universal plan**: "an
//! amalgam of all the query plans allowed by the constraints". The chase
//! may be stopped at any time and remains sound; [`ChaseConfig`] bounds
//! steps and size, and [`ChaseOutcome::complete`] reports whether a
//! fixpoint was reached.

use std::collections::BTreeMap;

use pcql::idgen::VarGen;
use pcql::path::Path;
use pcql::query::{Binding, Equality, Query};
use pcql::Dependency;

use crate::canon::QueryGraph;
use crate::context::approx_query_bytes;
use crate::hom::{extension_exists, find_matching_hom, Assignment};
use crate::shape::{Shape, ShapeOrigin};

/// Budgets for the chase (and for the implication checks that reuse it).
///
/// `PartialEq`/`Hash` matter: a [`ChaseContext`](crate::ChaseContext)
/// fingerprints its budget together with its dependency set, so a memo
/// computed under one budget is never served under another (a tighter
/// budget can flip a verdict from `true` to `false`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChaseConfig {
    /// Maximum number of chase steps before giving up.
    pub max_steps: usize,
    /// Maximum number of `from`-clause bindings in the chased query.
    pub max_bindings: usize,
    /// Cap on enumerated triggers per (dependency, rebuild).
    pub max_homs: usize,
    /// Coalesce congruent duplicate bindings after the fixpoint.
    pub coalesce: bool,
}

impl Default for ChaseConfig {
    fn default() -> ChaseConfig {
        ChaseConfig {
            max_steps: 512,
            max_bindings: 64,
            max_homs: 4096,
            coalesce: true,
        }
    }
}

/// One applied chase step, for traces and EXPLAIN output.
#[derive(Debug, Clone)]
pub struct ChaseStepTrace {
    pub dep: String,
    /// The trigger: dependency variable -> query path.
    pub trigger: Vec<(String, Path)>,
    pub added_bindings: Vec<Binding>,
    pub added_eqs: Vec<Equality>,
}

/// The result of chasing.
#[derive(Debug, Clone)]
pub struct ChaseOutcome {
    /// The chased query (the universal plan, when chasing with `D ∪ D'`).
    pub query: Query,
    /// The steps applied, in order.
    pub steps: Vec<ChaseStepTrace>,
    /// Whether a fixpoint was reached within the budgets. An incomplete
    /// chase is still sound — the query is equivalent to the input under
    /// the dependencies.
    pub complete: bool,
}

/// A chase in progress: the query chased so far, its incrementally
/// maintained canonical database, and the applied steps.
///
/// Because the chase is sound at every prefix ("we can stop this
/// rewriting anytime"), callers may interleave their own tests with
/// [`ChaseState::step`] and stop as soon as the test succeeds — the
/// containment and implication provers exit the moment a witness
/// homomorphism appears instead of confirming the full fixpoint.
#[derive(Debug)]
pub(crate) struct ChaseState {
    pub query: Query,
    pub graph: QueryGraph,
    pub steps: Vec<ChaseStepTrace>,
    /// Confirmed: no applicable trigger remains.
    pub fixpoint: bool,
}

impl ChaseState {
    pub fn new(q: &Query) -> ChaseState {
        ChaseState {
            query: q.clone(),
            graph: QueryGraph::of_query(q),
            steps: Vec::new(),
            fixpoint: false,
        }
    }

    /// Applies one more chase step. Returns `false` once a fixpoint is
    /// confirmed or the budget is exhausted.
    pub fn step(&mut self, deps: &[Dependency], cfg: &ChaseConfig) -> bool {
        if self.fixpoint
            || self.steps.len() >= cfg.max_steps
            || self.query.from.len() >= cfg.max_bindings
        {
            return false;
        }
        // Failpoint: a spurious Err here models a transient step failure.
        // Retrying the same step is sound (the chase is deterministic
        // given the graph), so the site recovers by simply proceeding —
        // before any mutation, so no torn state can be observed. A panic
        // configured here unwinds to the worker/ladder catch instead.
        if crate::faults::hit("chase::step").is_err() {
            crate::faults::note_recovered();
        }
        match find_applicable_in(&mut self.graph, deps, cfg) {
            None => {
                self.fixpoint = true;
                false
            }
            Some((dep_idx, h)) => {
                let trace = apply_step_in(&mut self.query, &mut self.graph, &deps[dep_idx], &h);
                self.steps.push(trace);
                true
            }
        }
    }

    /// Was a fixpoint reached (directly, or because the budget ran out
    /// with no trigger left applicable)?
    pub fn confirm_complete(&mut self, deps: &[Dependency], cfg: &ChaseConfig) -> bool {
        if self.fixpoint {
            return true;
        }
        if find_applicable_in(&mut self.graph, deps, cfg).is_none() {
            self.fixpoint = true;
        }
        self.fixpoint
    }

    /// Finalizes into a [`ChaseOutcome`] (coalescing per `cfg`).
    pub fn finalize(&mut self, deps: &[Dependency], cfg: &ChaseConfig) -> ChaseOutcome {
        let complete = self.confirm_complete(deps, cfg);
        let query = if cfg.coalesce {
            coalesce_duplicates(&self.query)
        } else {
            self.query.clone()
        };
        ChaseOutcome {
            query,
            steps: self.steps.clone(),
            complete,
        }
    }
}

/// A finished chase kept for its input's *shape* (see
/// [`ChaseContext::chase`](crate::ChaseContext::chase)): the input as the
/// shape's origin, and its outcome.
pub(crate) struct ChasedShape {
    origin: ShapeOrigin,
    outcome: ChaseOutcome,
}

impl ChasedShape {
    pub(crate) fn new(input: Query, shape: Shape, outcome: ChaseOutcome) -> ChasedShape {
        ChasedShape {
            origin: ShapeOrigin::new(input, shape, &outcome.steps),
            outcome,
        }
    }

    /// The outcome for `q`, an input of the same shape: translated by
    /// the renaming its origin vouches for ([`ShapeOrigin::renaming_to`]),
    /// `None` when it vouches for none.
    pub(crate) fn outcome_for(&self, q: &Query, shape: &Shape) -> Option<ChaseOutcome> {
        let r = self.origin.renaming_to(q, shape)?;
        if r.is_identity() {
            return Some(self.outcome.clone());
        }
        Some(ChaseOutcome {
            query: r.query(&self.outcome.query),
            steps: self.outcome.steps.iter().map(|s| r.step(s)).collect(),
            complete: self.outcome.complete,
        })
    }

    /// Its approximate footprint: the input and the chased query.
    pub(crate) fn approx_bytes(&self) -> usize {
        approx_query_bytes(self.origin.input())
            + approx_query_bytes(&self.outcome.query)
            + 32 * self.outcome.steps.len()
    }
}

/// Chases `q` with `deps` to a fixpoint (or until the budget runs out).
///
/// This is the standalone entry point; code that chases many related
/// queries (containment checks, the backchase lattice, the optimizer)
/// should go through [`ChaseContext`](crate::ChaseContext), which
/// memoizes outcomes across calls.
pub fn chase(q: &Query, deps: &[Dependency], cfg: &ChaseConfig) -> ChaseOutcome {
    let mut st = ChaseState::new(q);
    while st.step(deps, cfg) {}
    st.finalize(deps, cfg)
}

/// A single chase step with one dependency, if applicable (used by the
/// paper-example tests that chase with `c_JI` alone).
pub fn chase_step(q: &Query, dep: &Dependency, cfg: &ChaseConfig) -> Option<Query> {
    let deps = [dep.clone()];
    let mut graph = QueryGraph::of_query(q);
    let (idx, h) = find_applicable_in(&mut graph, &deps, cfg)?;
    debug_assert_eq!(idx, 0);
    let mut query = q.clone();
    apply_step_in(&mut query, &mut graph, dep, &h);
    Some(query)
}

/// Finds the first applicable (dependency, trigger) pair in deterministic
/// order: EGDs before TGDs (equalities never grow the query and often
/// satisfy pending TGD triggers, keeping the universal plan close to the
/// paper's hand-derived one), then dependencies in their given order,
/// triggers in membership-fact order. `graph` must be the canonical
/// database of the current query; triggers are searched directly on it
/// (extra interned paths from earlier searches are harmless — they never
/// introduce unions).
pub(crate) fn find_applicable_in(
    graph: &mut QueryGraph,
    deps: &[Dependency],
    cfg: &ChaseConfig,
) -> Option<(usize, Assignment)> {
    let ordered = deps
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_egd())
        .chain(deps.iter().enumerate().filter(|(_, d)| !d.is_egd()));
    for (i, dep) in ordered {
        let found = find_matching_hom(
            graph,
            &dep.forall,
            &dep.premise,
            &BTreeMap::new(),
            cfg.max_homs,
            &mut |g, h| !extension_exists(g, &dep.exists, &dep.conclusion, h),
        );
        if let Some(h) = found {
            return Some((i, h));
        }
    }
    None
}

/// Drops bindings that are congruent duplicates of earlier ones (same
/// variable class and same source class), substituting the kept variable
/// everywhere. Dependency orderings of TGD firings can leave such
/// duplicates behind once later EGDs merge their variables; removing them
/// preserves equivalence (the containment mapping is the substitution
/// itself) and keeps the universal plan at the paper's size.
pub fn coalesce_duplicates(q: &Query) -> Query {
    let mut graph = QueryGraph::of_query(q);
    let mut out = q.clone();
    loop {
        let mut subst: Option<(String, String)> = None;
        'search: for (i, b) in out.from.iter().enumerate() {
            for earlier in &out.from[..i] {
                if earlier.kind == b.kind
                    && graph
                        .egraph
                        .paths_equal(&Path::Var(earlier.var.clone()), &Path::Var(b.var.clone()))
                    && graph.egraph.paths_equal(&earlier.src, &b.src)
                {
                    subst = Some((b.var.clone(), earlier.var.clone()));
                    break 'search;
                }
            }
        }
        let Some((dup, keep)) = subst else {
            return cleanup_conditions(out);
        };
        let map: BTreeMap<String, String> = [(dup.clone(), keep)].into();
        out = Query {
            output: out.output.map_paths(&mut |p| p.rename(&map)),
            from: out
                .from
                .iter()
                .filter(|b| b.var != dup)
                .map(|b| Binding {
                    var: b.var.clone(),
                    src: b.src.rename(&map),
                    kind: b.kind,
                })
                .collect(),
            where_: out.where_.iter().map(|e| e.rename(&map)).collect(),
        };
        graph = QueryGraph::of_query(&out);
    }
}

/// Removes reflexive and duplicate conditions.
fn cleanup_conditions(mut q: Query) -> Query {
    let mut seen = std::collections::BTreeSet::new();
    q.where_
        .retain(|e| e.0 != e.1 && seen.insert(e.normalized()));
    q
}

/// Applies the step for trigger `h` of `dep` to `query`, keeping `graph`
/// (the query's canonical database) in sync incrementally.
pub(crate) fn apply_step_in(
    query: &mut Query,
    graph: &mut QueryGraph,
    dep: &Dependency,
    h: &Assignment,
) -> ChaseStepTrace {
    let trigger: Vec<(String, Path)> = h.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    let mut h = h.clone();
    let mut gen = VarGen::avoiding(query.from.iter().map(|b| b.var.clone()));

    let mut added_bindings = Vec::new();
    for b in &dep.exists {
        let fresh = gen.fresh(&b.var);
        let src = b.src.subst(&h);
        h.insert(b.var.clone(), Path::Var(fresh.clone()));
        let binding = Binding::iter(fresh, src);
        query.from.push(binding.clone());
        graph.add_binding(&binding);
        added_bindings.push(binding);
    }
    let mut added_eqs = Vec::new();
    for eq in &dep.conclusion {
        let inst = eq.subst(&h);
        // Skip equalities that already hold (relevant for EGD conclusions
        // partially implied by the query).
        if graph.egraph.paths_equal(&inst.0, &inst.1) {
            continue;
        }
        graph.add_equality(&inst);
        query.where_.push(inst.clone());
        added_eqs.push(inst);
    }
    ChaseStepTrace {
        dep: dep.name.clone(),
        trigger,
        added_bindings,
        added_eqs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcql::parser::{parse_dependency, parse_query};

    fn cfg() -> ChaseConfig {
        ChaseConfig::default()
    }

    #[test]
    fn egd_chase_adds_equality_once() {
        let q = parse_query("select struct(A = p.A) from R p, R q where p.K = q.K").unwrap();
        let key =
            parse_dependency("key", "forall (a in R) (b in R) where a.K = b.K -> a = b").unwrap();
        // Without coalescing, the EGD adds p = q to the where clause.
        let raw = chase(
            &q,
            std::slice::from_ref(&key),
            &ChaseConfig {
                coalesce: false,
                ..cfg()
            },
        );
        assert!(raw.complete);
        assert_eq!(raw.steps.len(), 1);
        assert_eq!(raw.steps[0].added_eqs.len(), 1);
        assert!(raw.query.where_.iter().any(|e| {
            (e.0 == Path::var("p") && e.1 == Path::var("q"))
                || (e.0 == Path::var("q") && e.1 == Path::var("p"))
        }));
        // With coalescing (the default), the duplicate binding collapses.
        let out = chase(&q, &[key], &cfg());
        assert_eq!(out.query.from.len(), 1);
        assert!(out.query.where_.iter().all(|e| e.0 != e.1));
    }

    #[test]
    fn tgd_chase_introduces_bindings() {
        let q = parse_query("select struct(A = r.A) from R r").unwrap();
        let ric =
            parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.B = s.B").unwrap();
        let out = chase(&q, &[ric], &cfg());
        assert!(out.complete);
        assert_eq!(out.query.from.len(), 2);
        assert_eq!(out.query.from[1].src, Path::root("S"));
        assert_eq!(out.query.where_.len(), 1);
        // Re-chasing is a no-op: the constraint is now satisfied.
        let again = chase(
            &out.query,
            &[
                parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.B = s.B")
                    .unwrap(),
            ],
            &cfg(),
        );
        assert_eq!(again.steps.len(), 0);
    }

    #[test]
    fn restricted_chase_terminates_on_cyclic_rics() {
        // R -> S and S -> R reference each other; the restricted chase
        // stops once both sides are witnessed.
        let q = parse_query("select struct(A = r.A) from R r").unwrap();
        let d1 =
            parse_dependency("rs", "forall (r in R) -> exists (s in S) where r.A = s.A").unwrap();
        let d2 =
            parse_dependency("sr", "forall (s in S) -> exists (r in R) where s.A = r.A").unwrap();
        let out = chase(&q, &[d1, d2], &cfg());
        assert!(out.complete, "restricted chase must terminate here");
        assert_eq!(out.query.from.len(), 2);
    }

    #[test]
    fn paper_chase_step_with_c_ji() {
        // §3's example: chasing Q with c_JI adds the JI binding and the
        // two conditions.
        let q = parse_query(
            r#"select struct(PN = s, PB = p.Budg, DN = d.DName)
               from depts d, d.DProjs s, Proj p
               where s = p.PName and p.CustName = "CitiBank""#,
        )
        .unwrap();
        let c_ji = parse_dependency(
            "c_JI",
            "forall (d in depts) (s in d.DProjs) (p in Proj) where s = p.PName \
             -> exists (j in JI) where j.DOID = d and j.PN = p.PName",
        )
        .unwrap();
        let out = chase_step(&q, &c_ji, &cfg()).expect("c_JI applies");
        assert_eq!(out.from.len(), 4);
        assert_eq!(out.from[3].src, Path::root("JI"));
        let conds: Vec<String> = out
            .where_
            .iter()
            .map(|e| format!("{} = {}", e.0, e.1))
            .collect();
        assert!(conds.contains(&"j0.DOID = d".to_string()));
        assert!(conds.contains(&"j0.PN = p.PName".to_string()));
        // A second step with the same constraint is not applicable.
        assert!(chase_step(&out, &c_ji, &cfg()).is_none());
    }

    #[test]
    fn budget_marks_incomplete() {
        // A genuinely diverging chase: every S-element spawns a new one
        // with a *different* witness requirement, so the restricted chase
        // never satisfies it. (f is "injective with no fixpoint"-style.)
        let q = parse_query("select struct(A = s.A) from S s").unwrap();
        let grow = parse_dependency(
            "grow",
            "forall (s in S) -> exists (t in S) where t.Pred = s.A",
        )
        .unwrap();
        let tight = ChaseConfig {
            max_steps: 5,
            ..ChaseConfig::default()
        };
        let out = chase(&q, &[grow], &tight);
        assert!(!out.complete);
        assert_eq!(out.steps.len(), 5);
    }

    #[test]
    fn trivial_dependency_never_fires() {
        let q = parse_query("select struct(A = r.A) from R r, S s where r.A = s.A").unwrap();
        // "forall r,s with r.A = s.A there exists s' in S with r.A = s'.A"
        // is satisfied by s itself.
        let triv = parse_dependency(
            "triv",
            "forall (r in R) (s in S) where r.A = s.A -> exists (t in S) where r.A = t.A",
        )
        .unwrap();
        let out = chase(&q, &[triv], &cfg());
        assert!(out.steps.is_empty());
        assert_eq!(out.query, q);
    }

    #[test]
    fn chase_result_is_deterministic() {
        let q = parse_query("select struct(A = r.A) from R r").unwrap();
        let deps = vec![
            parse_dependency("d1", "forall (r in R) -> exists (s in S) where r.A = s.A").unwrap(),
            parse_dependency("d2", "forall (s in S) -> exists (t in T) where s.A = t.A").unwrap(),
        ];
        let a = chase(&q, &deps, &cfg());
        let b = chase(&q, &deps, &cfg());
        assert_eq!(a.query, b.query);
        assert_eq!(a.steps.len(), b.steps.len());
    }
}
