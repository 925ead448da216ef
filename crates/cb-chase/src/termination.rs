//! Chase-termination analysis.
//!
//! The paper: "we show that while the chase does not always terminate, it
//! does so for certain classes of constraints and queries, yielding an
//! essentially unique result U whose size is polynomial." Two sufficient
//! conditions are implemented here:
//!
//! * **full dependency sets** — every existential is determined by the
//!   conclusion (view constraints `c_V` are the canonical example); the
//!   chase adds at most one binding group per trigger and triggers don't
//!   compound, giving the polynomial bound of Theorem 1;
//! * **weak acyclicity** (Fagin et al.) — adapted to path-conjunctive
//!   dependencies by abstracting each binding to its *position shape*
//!   (the source path with variables replaced by their own shapes, e.g.
//!   `depts.DProjs`, `dom(I)`, `SI[·]`). A dependency draws edges from
//!   its premise shapes to its conclusion shapes, *special* edges when
//!   the conclusion binding genuinely invents a value (undetermined
//!   existential). No cycle through a special edge ⇒ the chase
//!   terminates.
//!
//! Both checks are sufficient conditions only: the restricted chase often
//! terminates on sets that fail them (the full ProjDept constraint set
//! does — RIC1/INV2 form a special-edge cycle whose firings are always
//! satisfied in practice). [`ChaseConfig`](crate::ChaseConfig)'s budgets remain the safety
//! net, and an incomplete chase is still sound.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use pcql::path::Path;
use pcql::query::Binding;
use pcql::Dependency;

/// The verdict of static termination analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminationVerdict {
    /// All dependencies are full: polynomial chase (Theorem 1 regime).
    Full,
    /// Weakly acyclic: terminating, possibly exponential.
    WeaklyAcyclic,
    /// No static guarantee; rely on chase budgets.
    Unknown,
}

impl std::fmt::Display for TerminationVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TerminationVerdict::Full => write!(f, "full (polynomial chase, Theorem 1)"),
            TerminationVerdict::WeaklyAcyclic => write!(f, "weakly acyclic (terminating)"),
            TerminationVerdict::Unknown => write!(f, "unknown (budget-bounded chase)"),
        }
    }
}

/// Statically classifies a dependency set. When the verdict is
/// [`TerminationVerdict::Unknown`], the position-graph cycle that
/// defeated weak acyclicity comes with it — the evidence a diagnostic can
/// point at instead of a bare verdict.
pub fn analyze_termination(deps: &[Dependency]) -> (TerminationVerdict, Option<CycleWitness>) {
    if deps.iter().all(Dependency::is_full) {
        return (TerminationVerdict::Full, None);
    }
    match weak_acyclicity_witness(deps) {
        None => (TerminationVerdict::WeaklyAcyclic, None),
        witness => (TerminationVerdict::Unknown, witness),
    }
}

/// A special-edge cycle of the position graph: the concrete reason weak
/// acyclicity fails for a dependency set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleWitness {
    /// The position shapes along the cycle, in order; the edge from the
    /// last position back to the first closes the cycle. The first edge
    /// (`positions[0] -> positions[1]`, or the self-loop when there is a
    /// single position) is the special, value-inventing one.
    pub positions: Vec<String>,
    /// Names of the dependencies contributing edges on the cycle (sorted,
    /// deduplicated).
    pub dependencies: Vec<String>,
}

impl std::fmt::Display for CycleWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut around = self.positions.clone();
        if let Some(first) = self.positions.first() {
            around.push(first.clone());
        }
        write!(
            f,
            "special-edge cycle {} via {{{}}}",
            around.join(" -> "),
            self.dependencies.join(", ")
        )
    }
}

/// The abstract "position" a binding ranges over: its source path with
/// each variable replaced by the shape of that variable's own source.
fn shape(src: &Path, var_shapes: &BTreeMap<String, String>) -> String {
    match src {
        Path::Var(v) => var_shapes
            .get(v)
            .cloned()
            .unwrap_or_else(|| "·".to_string()),
        Path::Const(c) => c.to_string(),
        Path::Root(r) => r.clone(),
        Path::Field(p, f) => format!("{}.{f}", shape(p, var_shapes)),
        Path::Dom(p) => format!("dom({})", shape(p, var_shapes)),
        // Keys are abstracted away: all entries of a dictionary share a
        // position.
        Path::Get(m, _) => format!("{}[·]", shape(m, var_shapes)),
        Path::GetOrEmpty(m, _) => format!("{}{{·}}", shape(m, var_shapes)),
    }
}

fn binding_shapes(bindings: &[Binding], var_shapes: &mut BTreeMap<String, String>) -> Vec<String> {
    let mut out = Vec::new();
    for b in bindings {
        let s = shape(&b.src, var_shapes);
        var_shapes.insert(b.var.clone(), s.clone());
        out.push(s);
    }
    out
}

/// One position-graph edge: premise shape to conclusion shape, tagged
/// with the dependency that draws it and whether the conclusion binding
/// invents a value.
struct PositionEdge {
    from: String,
    to: String,
    special: bool,
    dep: String,
}

fn position_edges(deps: &[Dependency]) -> Vec<PositionEdge> {
    let mut edges = Vec::new();
    for d in deps {
        let mut var_shapes = BTreeMap::new();
        let premise = binding_shapes(&d.forall, &mut var_shapes);
        let determined = d.determined_existentials();
        let conclusion = binding_shapes(&d.exists, &mut var_shapes);
        for (b, to) in d.exists.iter().zip(&conclusion) {
            let special = !determined.contains(&b.var);
            for from in &premise {
                edges.push(PositionEdge {
                    from: from.clone(),
                    to: to.clone(),
                    special,
                    dep: d.name.clone(),
                });
            }
        }
    }
    edges
}

/// Weak acyclicity, the sufficient termination condition: the position
/// graph has no cycle through a special (value-inventing) edge. The
/// witness when it fails: a cycle through a special edge
/// exists iff some special edge (u, v) has a path v ->* u, and this
/// returns that cycle (shortest return path, first offending special edge
/// in dependency order) with the dependencies drawing its edges.
fn weak_acyclicity_witness(deps: &[Dependency]) -> Option<CycleWitness> {
    let edges = position_edges(deps);
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in &edges {
        adj.entry(&e.from).or_default().push(&e.to);
    }
    // BFS with parent links so the witness path is shortest.
    let shortest_path = |start: &str, goal: &str| -> Option<Vec<String>> {
        let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue: VecDeque<&str> = VecDeque::from([start]);
        let mut seen: BTreeSet<&str> = BTreeSet::from([start]);
        while let Some(n) = queue.pop_front() {
            if n == goal {
                let mut path = vec![n.to_string()];
                let mut cur = n;
                while let Some(&p) = parent.get(cur) {
                    path.push(p.to_string());
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for &next in adj.get(n).into_iter().flatten() {
                if seen.insert(next) {
                    parent.insert(next, n);
                    queue.push_back(next);
                }
            }
        }
        None
    };
    for e in edges.iter().filter(|e| e.special) {
        let path = if e.from == e.to {
            Some(vec![e.to.clone()])
        } else {
            shortest_path(&e.to, &e.from)
        };
        let Some(path) = path else { continue };
        // Cycle positions: the special edge's source, then the return
        // path without its final node (which is that same source again).
        let mut positions = vec![e.from.clone()];
        positions.extend(path[..path.len() - 1].iter().cloned());
        let mut dep_names: BTreeSet<String> = BTreeSet::new();
        for i in 0..positions.len() {
            let (a, b) = (&positions[i], &positions[(i + 1) % positions.len()]);
            dep_names.extend(
                edges
                    .iter()
                    .filter(|e| &e.from == a && &e.to == b)
                    .map(|e| e.dep.clone()),
            );
        }
        return Some(CycleWitness {
            positions,
            dependencies: dep_names.into_iter().collect(),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcql::parser::parse_dependency;

    #[test]
    fn view_constraints_are_full() {
        let deps = vec![parse_dependency(
            "c_V",
            "forall (r in R) (s in S) where r.B = s.B -> exists (v in V) where v = r.A",
        )
        .unwrap()];
        assert_eq!(analyze_termination(&deps).0, TerminationVerdict::Full);
    }

    #[test]
    fn one_way_ric_is_weakly_acyclic() {
        let deps =
            vec![
                parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.B = s.B")
                    .unwrap(),
            ];
        assert_eq!(
            analyze_termination(&deps).0,
            TerminationVerdict::WeaklyAcyclic
        );
    }

    #[test]
    fn mutual_rics_are_not_weakly_acyclic() {
        // R -> S and S -> R with fresh witnesses: the classic potentially
        // diverging set (the restricted chase happens to terminate, but
        // no static guarantee exists).
        let deps = vec![
            parse_dependency("rs", "forall (r in R) -> exists (s in S) where r.A = s.A").unwrap(),
            parse_dependency("sr", "forall (s in S) -> exists (r in R) where s.B = r.B").unwrap(),
        ];
        assert_eq!(analyze_termination(&deps).0, TerminationVerdict::Unknown);
    }

    #[test]
    fn self_growing_dependency_is_not_weakly_acyclic() {
        let deps = vec![parse_dependency(
            "grow",
            "forall (s in S) -> exists (t in S) where t.Pred = s.A",
        )
        .unwrap()];
        assert!(weak_acyclicity_witness(&deps).is_some());
        assert_eq!(analyze_termination(&deps).0, TerminationVerdict::Unknown);
    }

    #[test]
    fn primary_index_constraints_are_full() {
        // PI1/PI2 determine all their existentials: polynomial chase.
        let cat = {
            let mut c = cb_catalog::Catalog::new();
            c.add_logical_relation("R", [("A", pcql::Type::Int), ("B", pcql::Type::Int)]);
            c.add_direct_mapping("R");
            c.add_primary_index("I", "R", "A").unwrap();
            c
        };
        assert_eq!(
            analyze_termination(cat.mapping_constraints()).0,
            TerminationVerdict::Full
        );
    }

    #[test]
    fn secondary_index_set_is_only_restricted_chase_terminating() {
        // SI3 (non-emptiness) invents an entry from a key, SI2 reaches the
        // relation from entries, SI1 reaches keys from the relation — a
        // genuine special-edge cycle. The *restricted* chase terminates
        // (SI1 creates the entry that satisfies SI3), but weak acyclicity
        // cannot see that; the verdict is honestly Unknown.
        let cat = {
            let mut c = cb_catalog::Catalog::new();
            c.add_logical_relation("R", [("A", pcql::Type::Int), ("B", pcql::Type::Int)]);
            c.add_direct_mapping("R");
            c.add_secondary_index("SB", "R", "B").unwrap();
            c
        };
        assert_eq!(
            analyze_termination(cat.mapping_constraints()).0,
            TerminationVerdict::Unknown
        );
        // Empirically the restricted chase reaches a fixpoint anyway.
        let q = pcql::parser::parse_query("select struct(A = r.A) from R r").unwrap();
        let out = crate::chase::chase(
            &q,
            &cat.all_constraints(),
            &crate::chase::ChaseConfig::default(),
        );
        assert!(out.complete);
    }

    #[test]
    fn projdept_full_set_has_no_static_guarantee() {
        // RIC1 + INV2 form a special-edge cycle (each invents the other's
        // witnesses); the restricted chase still terminates in practice —
        // the verdict is honest about being only a sufficient condition.
        let cat = cb_catalog::scenarios::projdept::catalog();
        assert_eq!(
            analyze_termination(&cat.all_constraints()).0,
            TerminationVerdict::Unknown
        );
    }

    #[test]
    fn mutual_ric_witness_names_both_dependencies() {
        let deps = vec![
            parse_dependency("rs", "forall (r in R) -> exists (s in S) where r.A = s.A").unwrap(),
            parse_dependency("sr", "forall (s in S) -> exists (r in R) where s.B = r.B").unwrap(),
        ];
        let (verdict, witness) = analyze_termination(&deps);
        assert_eq!(verdict, TerminationVerdict::Unknown);
        let w = witness.unwrap();
        assert_eq!(w.positions, vec!["R".to_string(), "S".to_string()]);
        assert_eq!(w.dependencies, vec!["rs".to_string(), "sr".to_string()]);
        let shown = w.to_string();
        assert!(shown.contains("R -> S -> R"), "{shown}");
    }

    #[test]
    fn self_growing_witness_is_a_self_loop() {
        let deps = vec![parse_dependency(
            "grow",
            "forall (s in S) -> exists (t in S) where t.Pred = s.A",
        )
        .unwrap()];
        let w = weak_acyclicity_witness(&deps).unwrap();
        assert_eq!(w.positions, vec!["S".to_string()]);
        assert_eq!(w.dependencies, vec!["grow".to_string()]);
    }

    #[test]
    fn terminating_sets_have_no_witness() {
        let deps =
            vec![
                parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.B = s.B")
                    .unwrap(),
            ];
        assert!(weak_acyclicity_witness(&deps).is_none());
        let (verdict, witness) = analyze_termination(&deps);
        assert_eq!(verdict, TerminationVerdict::WeaklyAcyclic);
        assert!(witness.is_none());
    }

    #[test]
    fn projdept_witness_blames_the_inventing_constraints() {
        let cat = cb_catalog::scenarios::projdept::catalog();
        let w = weak_acyclicity_witness(&cat.all_constraints()).unwrap();
        assert!(!w.positions.is_empty());
        // The blamed dependencies really exist in the catalog.
        let names: BTreeSet<String> = cat
            .all_constraints()
            .iter()
            .map(|d| d.name.clone())
            .collect();
        for dep in &w.dependencies {
            assert!(names.contains(dep), "unknown dependency `{dep}` blamed");
        }
    }

    #[test]
    fn egds_never_block_termination() {
        let deps =
            vec![
                parse_dependency("key", "forall (p in R) (q in R) where p.A = q.A -> p = q")
                    .unwrap(),
            ];
        assert_eq!(analyze_termination(&deps).0, TerminationVerdict::Full);
    }
}
