//! Containment and equivalence of PC queries under constraints.
//!
//! `Q1 ⊑ Q2` under `D` iff there is a containment mapping from `Q2` into
//! `chase_D(Q1)`: a homomorphism of `Q2`'s body with `h(O2) ≡ O1` modulo
//! the chased query's congruence. This generalizes the classical
//! Chandra–Merlin test and is the PC containment of [Popa–Tannen
//! ICDT'99], which the paper builds on. The questions are asked of a
//! held [`ChaseContext`](crate::ChaseContext).

use std::collections::BTreeMap;

use pcql::query::{Output, Query};

use crate::canon::QueryGraph;
use crate::chase::ChaseConfig;
use crate::hom::{find_matching_hom, hom_is_valid, Assignment};

/// Finds a containment mapping from `q2` into `graph` (the canonical
/// database of an already-chased query with output `q1_output`): a body
/// homomorphism whose image makes the outputs congruent.
///
/// A `seed` candidate, when given, is validated first without any search
/// — the backchase seeds a child lattice node's check from its parent's
/// witness. The hom search only interns paths (it never unions classes),
/// so one mutable graph is safely shared across many calls.
pub(crate) fn output_matching_hom(
    graph: &mut QueryGraph,
    q1_output: &Output,
    q2: &Query,
    cfg: &ChaseConfig,
    seed: Option<&Assignment>,
) -> Option<Assignment> {
    if let Some(h) = seed {
        if hom_is_valid(graph, &q2.from, &q2.where_, h)
            && outputs_match(graph, q1_output, &q2.output, h)
        {
            return Some(h.clone());
        }
    }
    find_matching_hom(
        graph,
        &q2.from,
        &q2.where_,
        &BTreeMap::new(),
        cfg.max_homs,
        &mut |g, h| outputs_match(g, q1_output, &q2.output, h),
    )
}

fn outputs_match(graph: &mut QueryGraph, o1: &Output, o2: &Output, h: &Assignment) -> bool {
    match (o1, o2) {
        (Output::Struct(f1), Output::Struct(f2)) => {
            f1.len() == f2.len()
                && f1.iter().all(|(name, p1)| match f2.get(name) {
                    Some(p2) => graph.egraph.paths_equal(p1, &p2.subst(h)),
                    None => false,
                })
        }
        (Output::Path(p1), Output::Path(p2)) => graph.egraph.paths_equal(p1, &p2.subst(h)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ChaseContext;
    use pcql::parser::{parse_dependency, parse_query};
    use pcql::Dependency;

    /// The prover under test, with no memo to stand in for a proof.
    fn prover(deps: &[Dependency]) -> ChaseContext {
        ChaseContext::without_memo(deps.to_vec(), ChaseConfig::default())
    }

    #[test]
    fn classical_containment() {
        // The 3-binding tableau of paper §3 is contained in (and in fact
        // equivalent to) its 2-binding minimization.
        let big = parse_query(
            "select struct(A = p.A, B = r.B) from R p, R q, R r \
             where p.B = q.A and q.B = r.B",
        )
        .unwrap();
        let small =
            parse_query("select struct(A = p.A, B = q.B) from R p, R q where p.B = q.A").unwrap();
        let ctx = prover(&[]);
        assert!(ctx.contained_in(&big, &small));
        assert!(ctx.contained_in(&small, &big));
        assert!(ctx.equivalent(&big, &small));
    }

    #[test]
    fn strict_containment_not_equivalence() {
        let narrower = parse_query("select struct(A = r.A) from R r, S s where r.A = s.A").unwrap();
        let wider = parse_query("select struct(A = r.A) from R r").unwrap();
        // narrower ⊑ wider but not conversely.
        let ctx = prover(&[]);
        assert!(ctx.contained_in(&narrower, &wider));
        assert!(!ctx.contained_in(&wider, &narrower));
        assert!(!ctx.equivalent(&narrower, &wider));
    }

    #[test]
    fn containment_under_constraints() {
        // With the RIC "every r has a matching s", the join is equivalent
        // to the scan.
        let narrower = parse_query("select struct(A = r.A) from R r, S s where r.A = s.A").unwrap();
        let wider = parse_query("select struct(A = r.A) from R r").unwrap();
        let ric =
            parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.A = s.A").unwrap();
        assert!(prover(&[ric]).equivalent(&narrower, &wider));
    }

    #[test]
    fn output_shape_must_match() {
        let q1 = parse_query("select struct(A = r.A) from R r").unwrap();
        let q2 = parse_query("select struct(B = r.A) from R r").unwrap();
        let q3 = parse_query("select r.A from R r").unwrap();
        let ctx = prover(&[]);
        assert!(!ctx.contained_in(&q1, &q2));
        assert!(!ctx.contained_in(&q1, &q3));
        assert!(ctx.contained_in(&q3, &q3));
    }

    #[test]
    fn constants_matter() {
        let five = parse_query("select struct(C = r.C) from R r where r.A = 5").unwrap();
        let six = parse_query("select struct(C = r.C) from R r where r.A = 6").unwrap();
        let ctx = prover(&[]);
        assert!(ctx.contained_in(&five, &five));
        assert!(!ctx.contained_in(&five, &six));
        // A constant-filtered query is contained in the unfiltered one.
        let all = parse_query("select struct(C = r.C) from R r").unwrap();
        assert!(ctx.contained_in(&five, &all));
        assert!(!ctx.contained_in(&all, &five));
    }

    #[test]
    fn containment_is_reflexive_and_transitive() {
        let a =
            parse_query("select struct(A = r.A) from R r, S s, T t where r.A = s.A and s.A = t.A")
                .unwrap();
        let b = parse_query("select struct(A = r.A) from R r, S s where r.A = s.A").unwrap();
        let c = parse_query("select struct(A = r.A) from R r").unwrap();
        let ctx = prover(&[]);
        assert!(ctx.contained_in(&a, &a));
        assert!(ctx.contained_in(&a, &b));
        assert!(ctx.contained_in(&b, &c));
        assert!(ctx.contained_in(&a, &c));
    }

    #[test]
    fn oo_path_containment() {
        let q1 =
            parse_query("select struct(S = s) from depts d, d.DProjs s, Proj p where s = p.PName")
                .unwrap();
        let q2 = parse_query("select struct(S = s) from depts d, d.DProjs s").unwrap();
        let ctx = prover(&[]);
        assert!(ctx.contained_in(&q1, &q2));
        assert!(!ctx.contained_in(&q2, &q1));
        let ric1 = parse_dependency(
            "RIC1",
            "forall (d in depts) (s in d.DProjs) -> exists (p in Proj) where s = p.PName",
        )
        .unwrap();
        assert!(prover(&[ric1]).contained_in(&q2, &q1));
    }
}
