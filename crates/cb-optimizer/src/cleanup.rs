//! Plan cleanup: the non-failing-lookup rewrite of paper §4.
//!
//! A backchase normal form keeps `dom` guards it cannot prove away:
//!
//! ```text
//! … from dom(SI) k, SI[k] t, …  where k = K and …
//! ```
//!
//! When `K` does not depend on `k` and the dictionary has set-valued
//! entries, "this loop together with the condition `k = K` is only a
//! guard that ensures that the lookup … doesn't fail"; replacing it with
//! the non-failing lookup is unconditionally sound:
//!
//! ```text
//! … from SI{K} t, …
//! ```
//!
//! This is exactly how the paper turns the PC forms into its display
//! plans P3 and the §4 navigation join (`IS⟨r'.B⟩ s'`).

use std::collections::BTreeMap;

use cb_catalog::Catalog;
use cb_chase::QueryGraph;
use pcql::path::Path;
use pcql::query::{BindKind, Binding, Query};
use pcql::types::Type;

/// Applies the guard-elimination rewrite to fixpoint.
pub fn cleanup_plan(catalog: &Catalog, q: &Query) -> Query {
    let mut out = q.clone();
    while let Some(next) = cleanup_once(catalog, &out) {
        out = next;
    }
    out
}

/// Drops `where` conditions that are implied by the rest of the plan
/// under `D ∪ D'` — the maximal `C'` of a backchase subquery routinely
/// carries conditions like `t = I[t.PName]` that are true on every
/// constraint-satisfying instance and would only cost lookups at run
/// time. Must run *before* [`cleanup_plan`] (the prover reasons over
/// plain PC lookups, not the non-failing plan forms). A throwaway-context
/// wrapper of [`cb_chase::ChaseContext::prune_implied_conditions`].
pub fn prune_implied_conditions(
    catalog: &Catalog,
    q: &Query,
    cfg: &cb_chase::ChaseConfig,
) -> Query {
    cb_chase::ChaseContext::new(catalog.all_constraints(), cfg.clone()).prune_implied_conditions(q)
}

fn entry_is_set(catalog: &Catalog, dict: &Path) -> bool {
    let Path::Root(name) = dict else { return false };
    matches!(
        catalog.physical().root(name),
        Some(Type::Dict(_, entry)) if matches!(entry.as_ref(), Type::Set(_))
    )
}

fn cleanup_once(catalog: &Catalog, q: &Query) -> Option<Query> {
    let mut graph = QueryGraph::of_query(q);
    for b in &q.from {
        let Path::Dom(dict) = &b.src else { continue };
        if b.kind != BindKind::Iter || !entry_is_set(catalog, dict) {
            continue;
        }
        // A key expression congruent to the guard variable but not using
        // it.
        let g_class = graph.egraph.add_path(&Path::Var(b.var.clone()));
        let forbidden: std::collections::BTreeSet<String> = [b.var.clone()].into();
        let Some(key) = graph.egraph.extract(g_class, &forbidden) else {
            continue;
        };
        // At least one iterated entry binding M[g'] with g' ≡ g provides
        // the emptiness filtering that makes dropping the loop sound.
        let serves_entry = q.from.iter().any(|other| {
            other.kind == BindKind::Iter
                && matches!(&other.src, Path::Get(m, k)
                    if m.as_ref() == dict.as_ref()
                        && graph.egraph.paths_equal(k, &Path::Var(b.var.clone())))
        });
        if !serves_entry {
            continue;
        }
        // Rewrite: drop the guard binding; entry lookups become
        // non-failing on the key expression; other uses of g become the
        // key expression.
        let subst: BTreeMap<String, Path> = [(b.var.clone(), key)].into();
        let mut from = Vec::new();
        for other in &q.from {
            if other.var == b.var {
                continue;
            }
            let src = match &other.src {
                Path::Get(m, k)
                    if m.as_ref() == dict.as_ref()
                        && graph.egraph.paths_equal(k, &Path::Var(b.var.clone())) =>
                {
                    Path::GetOrEmpty(m.clone(), Box::new(k.subst(&subst)))
                }
                other_src => other_src.subst(&subst),
            };
            from.push(Binding {
                var: other.var.clone(),
                src,
                kind: other.kind,
            });
        }
        let mut where_: Vec<pcql::Equality> = q.where_.iter().map(|e| e.subst(&subst)).collect();
        where_.retain(|e| e.0 != e.1);
        let output = q.output.map_paths(&mut |p| p.subst(&subst));
        let candidate = Query::new(output, from, where_);
        // The key expression may reference a variable bound after one of
        // the rewritten positions; only keep the rewrite if the binding
        // order can be fixed up.
        if candidate.check_scopes().is_ok() {
            return Some(candidate);
        }
        if let Some(reordered) = fix_scopes(&candidate) {
            return Some(reordered);
        }
        // Otherwise leave this guard alone and try the next one.
    }
    None
}

/// Reorders bindings into any dependency-valid order, if one exists.
fn fix_scopes(q: &Query) -> Option<Query> {
    let mut rest = q.from.clone();
    let mut placed: std::collections::BTreeSet<String> = Default::default();
    let mut from = Vec::with_capacity(rest.len());
    while !rest.is_empty() {
        let pos = rest
            .iter()
            .position(|b| b.src.free_vars().iter().all(|v| placed.contains(v)))?;
        let b = rest.remove(pos);
        placed.insert(b.var.clone());
        from.push(b);
    }
    Some(Query::new(q.output.clone(), from, q.where_.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_catalog::scenarios::{projdept, relational_views};
    use pcql::parser::parse_query;

    #[test]
    fn p3_guard_elimination() {
        let cat = projdept::catalog();
        let pc_form = parse_query(
            r#"select struct(PN = t.PName, PB = t.Budg, DN = t.PDept)
               from dom(SI) k, SI[k] t where k = "CitiBank""#,
        )
        .unwrap();
        let cleaned = cleanup_plan(&cat, &pc_form);
        assert_eq!(cleaned.from.len(), 1);
        assert_eq!(cleaned.from[0].src.to_string(), "SI{\"CitiBank\"}");
        assert!(cleaned.where_.is_empty());
    }

    #[test]
    fn navigation_join_guard_elimination() {
        // §4's final step: the dom(IS) loop with p = r'.B becomes the
        // non-failing lookup IS{r'.B}.
        let cat = relational_views::catalog();
        let pc_form = parse_query(
            "select struct(A = rr.A, B = ss.B, C = ss.C) \
             from V v, IR{v.A} rr, dom(IS) p, IS[p] ss where p = rr.B",
        )
        .unwrap();
        let cleaned = cleanup_plan(&cat, &pc_form);
        assert_eq!(cleaned.from.len(), 3);
        assert!(cleaned.from.iter().any(|b| b.src.to_string() == "IS{rr.B}"));
    }

    #[test]
    fn guard_without_entry_binding_stays() {
        // The dom loop is the only access to the dictionary — dropping it
        // would change the result, so cleanup must leave it alone.
        let cat = projdept::catalog();
        let q = parse_query(r#"select struct(K = k) from dom(SI) k where k = "CitiBank""#).unwrap();
        assert_eq!(cleanup_plan(&cat, &q), q);
    }

    #[test]
    fn record_valued_dictionaries_keep_guards() {
        // I is a primary index (record entries): no non-failing form
        // exists, so the guard loop must stay.
        let cat = projdept::catalog();
        let q =
            parse_query(r#"select struct(B = I[i].Budg) from dom(I) i where i = "proj1""#).unwrap();
        assert_eq!(cleanup_plan(&cat, &q), q);
    }

    #[test]
    fn unrelated_guards_untouched() {
        let cat = projdept::catalog();
        // k is a genuine iteration variable (no equality pins it down).
        let q = parse_query("select struct(K = k, PN = t.PName) from dom(SI) k, SI[k] t").unwrap();
        assert_eq!(cleanup_plan(&cat, &q), q);
    }
}
