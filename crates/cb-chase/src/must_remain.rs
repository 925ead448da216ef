//! Must-remain analysis over the backchase removal lattice.
//!
//! For a node of the subquery lattice of a universal plan `u` (identified
//! by its removal set `R`), a surviving binding *must remain* when every
//! equivalence-preserving descendant of the node keeps it. The optimizer
//! uses this to tighten its branch-and-bound cost lower bound: a plan
//! derivable below the node pays for *all* must-remain bindings, not just
//! its cheapest one, so their access floors can be summed.
//!
//! Deciding must-remain exactly would mean enumerating the sublattice —
//! the very thing the bound exists to avoid — so [`MustRemainAnalysis`]
//! computes a sound **under-approximation** from the lattice's
//! equivalence structure (the congruence e-graph of `u` that every
//! backchase subquery is carved out of). A binding `b` is reported
//! must-remain at `R` when the dependent closure of `R ∪ {b}` provably
//! admits no subquery at all, for one of two reasons that are *monotone*
//! in the removal set:
//!
//! * **everything goes** — the closure drags every binding of `u` along
//!   (footnote 7 of the paper: a binding whose source mentions removed
//!   variables and cannot be re-expressed is removed too). Dependent
//!   closure is monotone, so every removal set below `R` that contains
//!   `b` also removes everything and is not a subquery.
//! * **the output breaks** — some output path of `u` cannot be
//!   re-expressed avoiding the closure (condition 2 of the backchase).
//!   E-graph extraction can only fail *more* as the forbidden set grows,
//!   so no removal set below `R` containing `b` can rebuild the output
//!   either.
//!
//! Failure modes that are **not** monotone along descent — a cyclic
//! binding order after re-expression, an unprovably-safe lookup, a failed
//! equivalence check — are deliberately ignored: removing *more* bindings
//! can cure them (the cycle participant disappears, the unsafe lookup is
//! re-expressed away), so treating them as must-remain evidence would
//! over-approximate and break the admissibility of a bound built on the
//! result. Under-approximation is always safe there: a smaller
//! must-remain set only weakens (never unsounds) the bound.
//!
//! [`MustRemainAnalysis::possible_sources`] is the companion question the
//! cost side needs: *which source paths can this binding take across the
//! lattice?* Removals re-express a surviving binding's source within its
//! congruence class (avoiding the removed variables), so the answer is
//! the class's realizable paths in `u`'s graph — the same equivalence
//! structure, read in the other direction.

use std::collections::{BTreeMap, BTreeSet};

use pcql::path::Path;
use pcql::query::Query;

use crate::backchase::{dependent_closure, rewrite_output};
use crate::canon::QueryGraph;

/// Must-remain and possible-source analysis of one universal plan's
/// removal lattice. Holds its own [`QueryGraph`] of `u` (the class
/// structure is fixed once `u` is — lattice descent only reads it), and
/// memoizes per removal set, since a branch-and-bound visitor asks about
/// the same node at both its admission gate and its visit.
#[derive(Debug, Clone)]
pub struct MustRemainAnalysis {
    u: Query,
    graph: QueryGraph,
    memo: BTreeMap<BTreeSet<String>, BTreeSet<String>>,
    sources: Option<BTreeMap<String, Vec<Path>>>,
}

impl MustRemainAnalysis {
    /// An analysis over the subquery lattice of `u` (which should already
    /// be chased, exactly like the input of a [`PlanSearch`]).
    ///
    /// [`PlanSearch`]: crate::PlanSearch
    pub fn new(u: &Query) -> MustRemainAnalysis {
        MustRemainAnalysis {
            u: u.clone(),
            graph: QueryGraph::of_query(u),
            memo: BTreeMap::new(),
            sources: None,
        }
    }

    /// The universal plan this analysis reasons over.
    pub fn universal(&self) -> &Query {
        &self.u
    }

    /// The bindings of the lattice node `removed` that every
    /// equivalence-preserving descendant (the node itself included) is
    /// guaranteed to keep — a sound under-approximation; see the module
    /// docs for which evidence counts.
    pub fn must_remain(&mut self, removed: &BTreeSet<String>) -> BTreeSet<String> {
        if let Some(m) = self.memo.get(removed) {
            return m.clone();
        }
        let vars: Vec<String> = self
            .u
            .from
            .iter()
            .map(|b| b.var.clone())
            .filter(|v| !removed.contains(v))
            .collect();
        let mut out = BTreeSet::new();
        for v in vars {
            let mut seed = removed.clone();
            seed.insert(v.clone());
            let closure = dependent_closure(&self.u, &mut self.graph, seed);
            let blocked = closure.len() >= self.u.from.len()
                || rewrite_output(&mut self.graph, &self.u.output, &closure).is_none();
            if blocked {
                out.insert(v);
            }
        }
        self.memo.insert(removed.clone(), out.clone());
        out
    }

    /// Every source path the binding of `var` can take in a lattice node
    /// that keeps it: its own source plus the realizable paths of the
    /// source's congruence class (removals re-express sources within
    /// their class, so this is exhaustive for closed re-expressions; open
    /// ones are covered conservatively by the cost side's global floor).
    pub fn possible_sources(&mut self, var: &str) -> &[Path] {
        if self.sources.is_none() {
            let reals = self.graph.egraph.realizable_paths(&BTreeSet::new());
            let mut map: BTreeMap<String, Vec<Path>> = BTreeMap::new();
            for b in &self.u.from {
                let class = self.graph.egraph.add_path(&b.src);
                let class = self.graph.egraph.find(class);
                let mut paths = reals.get(&class).cloned().unwrap_or_default();
                if !paths.contains(&b.src) {
                    paths.push(b.src.clone());
                }
                map.insert(b.var.clone(), paths);
            }
            self.sources = Some(map);
        }
        self.sources
            .as_ref()
            .and_then(|m| m.get(var))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{chase, ChaseConfig};
    use pcql::parser::{parse_dependency, parse_query};

    fn none() -> BTreeSet<String> {
        BTreeSet::new()
    }

    fn set(vars: &[&str]) -> BTreeSet<String> {
        vars.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn single_closed_unreexpressible_binding_must_remain() {
        // The only binding carries the only output path: no removal set
        // keeps the output, so the binding survives every descendant.
        let q = parse_query("select struct(A = r.A) from R r").unwrap();
        let mut a = MustRemainAnalysis::new(&q);
        assert_eq!(a.must_remain(&none()), set(&["r"]));
    }

    #[test]
    fn output_pinned_join_sides_must_remain() {
        // Both output fields are only expressible from their own binding.
        let q =
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap();
        let mut a = MustRemainAnalysis::new(&q);
        assert_eq!(a.must_remain(&none()), set(&["r", "s"]));
    }

    #[test]
    fn view_reexpressible_binding_is_not_must_remain() {
        // v.A = r.A makes the output realizable from either side, so
        // neither r nor v is pinned at the root; s never appears in the
        // output at all.
        let u = parse_query(
            "select struct(A = r.A) from R r, S s, V v \
             where r.B = s.B and v.A = r.A",
        )
        .unwrap();
        let mut a = MustRemainAnalysis::new(&u);
        assert_eq!(a.must_remain(&none()), none());
    }

    #[test]
    fn must_remain_grows_monotonically_along_descent() {
        // Once v is removed, the output can only come from r: deeper in
        // the lattice the pinned set grows, never shrinks.
        let u = parse_query(
            "select struct(A = r.A) from R r, S s, V v \
             where r.B = s.B and v.A = r.A",
        )
        .unwrap();
        let mut a = MustRemainAnalysis::new(&u);
        let root = a.must_remain(&none());
        let below_v = a.must_remain(&set(&["v"]));
        assert!(below_v.is_superset(&root));
        assert!(below_v.contains("r"), "below {{v}}: {below_v:?}");
        // Symmetrically, dropping r pins v.
        assert!(a.must_remain(&set(&["r", "s"])).contains("v"));
    }

    #[test]
    fn dependent_closure_drag_counts_as_must_remain() {
        // Removing d drags s (bound to d.DProjs, not re-expressible) and
        // the output needs s: d is pinned even though no output path
        // mentions d itself.
        let q = parse_query("select struct(S = s) from depts d, d.DProjs s").unwrap();
        let mut a = MustRemainAnalysis::new(&q);
        let m = a.must_remain(&none());
        assert_eq!(m, set(&["d", "s"]));
    }

    #[test]
    fn possible_sources_enumerate_class_reexpressions() {
        // The condition puts the closed root V in the class of s's
        // source: both the open original and the closed alternative are
        // reported (closed alternatives are the ones the cost side prices
        // exactly; open ones it floors globally).
        let q = parse_query("select struct(S = s) from depts d, d.DProjs s where d.DProjs = V")
            .unwrap();
        let mut a = MustRemainAnalysis::new(&q);
        let sources = a.possible_sources("s");
        assert!(
            sources.contains(&Path::var("d").field("DProjs")),
            "{sources:?}"
        );
        assert!(sources.contains(&Path::root("V")), "{sources:?}");
        // A binding with no congruent alternatives just reports itself.
        assert_eq!(a.possible_sources("d"), vec![Path::root("depts")]);
        assert!(a.possible_sources("nope").is_empty());
    }

    #[test]
    fn chased_view_scenario_matches_lattice_reality() {
        // On the chased R ⋈ S ⊑ V scenario the analysis agrees with what
        // the enumeration actually finds: nothing is pinned at the root
        // (both the base-join and view-only plans exist).
        let q = parse_query(
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
        let u = chase(&q, &deps, &ChaseConfig::default()).query;
        let mut a = MustRemainAnalysis::new(&u);
        assert_eq!(a.must_remain(&none()), none());
        // The memo serves repeats.
        assert_eq!(a.must_remain(&none()), none());
    }
}
