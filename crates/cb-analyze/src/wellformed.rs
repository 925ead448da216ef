//! Pass 1: query and catalog well-formedness.
//!
//! Queries are checked for scoping (unbound variables, duplicate
//! bindings), dead variables, unknown roots, and type consistency against
//! the catalog's combined schema. Catalogs are checked constraint by
//! constraint: every dependency the catalog emits must pass
//! [`pcql::Dependency::check_scopes`] and type-check against the combined
//! schema — the guarantee the chase silently assumes.

use cb_catalog::Catalog;
use pcql::query::{Query, ScopeError};
use pcql::schema::Schema;
use pcql::typecheck::{check_dependency, check_query, TypeError};
use pcql::Dependency;

use crate::diag::{codes, Anchor, Diagnostic, Report, Severity};

/// Maps a scope error to its diagnostic, anchored as precisely as the
/// error allows.
fn scope_diag(q: &Query, e: &ScopeError) -> Diagnostic {
    let binding_index = |var: &str| q.from.iter().position(|b| b.var == var);
    match e {
        ScopeError::UnboundInBinding { binding, var } => Diagnostic::new(
            codes::QUERY_SCOPE,
            Severity::Error,
            binding_index(binding).map_or(Anchor::Query, Anchor::Binding),
            format!("binding `{binding}` refers to unbound variable `{var}`"),
        ),
        ScopeError::DuplicateVar(v) => Diagnostic::new(
            codes::DUPLICATE_VAR,
            Severity::Error,
            binding_index(v).map_or(Anchor::Query, Anchor::Binding),
            format!("variable `{v}` is bound more than once"),
        ),
        ScopeError::UnboundInWhere(v) => Diagnostic::new(
            codes::QUERY_SCOPE,
            Severity::Error,
            Anchor::Query,
            format!("where clause refers to unbound variable `{v}`"),
        ),
        ScopeError::UnboundInSelect(v) => Diagnostic::new(
            codes::QUERY_SCOPE,
            Severity::Error,
            Anchor::Output,
            format!("select clause refers to unbound variable `{v}`"),
        ),
    }
}

/// Maps a type error to a diagnostic (scope errors route through
/// [`scope_diag`], unknown roots get their own code).
fn type_diag(q: &Query, e: TypeError) -> Diagnostic {
    match e {
        TypeError::Scope(se) => scope_diag(q, &se),
        TypeError::UnknownRoot(r) => Diagnostic::new(
            codes::UNKNOWN_ROOT,
            Severity::Error,
            Anchor::Query,
            format!("unknown catalog root `{r}`"),
        ),
        other => Diagnostic::new(
            codes::TYPE_MISMATCH,
            Severity::Error,
            Anchor::Query,
            other.to_string(),
        ),
    }
}

/// Checks one query against `schema`, a catalog's combined schema:
/// scoping, types, dead variables. Returns the findings with the type
/// check's own verdict (a scope error included), so a caller need not
/// type-check again.
pub fn check_query_wellformed(schema: &Schema, q: &Query) -> (Report, Result<(), TypeError>) {
    let mut report = Report::new();
    let typed = check_query(schema, q).map(drop);
    match &typed {
        Err(TypeError::Scope(e)) => {
            report.push(scope_diag(q, e));
            // Typing would only repeat the scope failure.
            return (report, typed);
        }
        Err(e) => report.push(type_diag(q, e.clone())),
        Ok(()) => {}
    }
    // Dead variables: bound but never read by a later binding source, a
    // condition, or the output. Under set semantics such a binding still
    // matters (an empty collection empties the result), so this is a
    // warning about intent, not an error.
    for (i, b) in q.from.iter().enumerate() {
        let used_later = q.from[i + 1..].iter().any(|b2| b2.src.mentions_var(&b.var));
        let used_where = q
            .where_
            .iter()
            .any(|eq| eq.0.mentions_var(&b.var) || eq.1.mentions_var(&b.var));
        let used_out = q.output.paths().iter().any(|(_, p)| p.mentions_var(&b.var));
        if !used_later && !used_where && !used_out {
            report.push(Diagnostic::new(
                codes::DEAD_VAR,
                Severity::Warning,
                Anchor::Binding(i),
                format!(
                    "variable `{}` is never read; the binding only contributes existence",
                    b.var
                ),
            ));
        }
    }
    (report, typed)
}

/// Checks a dependency set against a schema: scopes first (the
/// structural contract every emitter owes), then types.
pub fn check_dependencies(schema: &Schema, deps: &[Dependency]) -> Report {
    let mut report = Report::new();
    for d in deps {
        if let Err(e) = d.check_scopes() {
            report.push(Diagnostic::new(
                codes::DEP_SCOPE,
                Severity::Error,
                Anchor::Dependency(d.name.clone()),
                e.to_string(),
            ));
            continue;
        }
        if let Err(e) = check_dependency(schema, d) {
            report.push(Diagnostic::new(
                codes::DEP_TYPE,
                Severity::Error,
                Anchor::Dependency(d.name.clone()),
                e.to_string(),
            ));
        }
    }
    report
}

/// Checks every constraint a catalog emits (semantic and mapping).
pub fn check_catalog_wellformed(catalog: &Catalog) -> Report {
    check_dependencies(&catalog.combined_schema(), &catalog.all_constraints())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcql::parser::parse_query;
    use pcql::path::Path;
    use pcql::query::{Binding, Equality, Output};
    use pcql::Type;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
        c.add_logical_relation("S", [("B", Type::Int), ("C", Type::Int)]);
        c.add_direct_mapping("R");
        c.add_direct_mapping("S");
        c
    }

    #[test]
    fn clean_query_lints_clean() {
        let c = catalog();
        let q = parse_query("select struct(A = r.A) from R r, S s where r.B = s.B").unwrap();
        let report = check_query_wellformed(&c.combined_schema(), &q).0;
        assert!(!report.has_errors(), "{report}");
        // `s` is read by the join condition: no dead-variable warning.
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn unbound_variable_is_cb001() {
        let c = catalog();
        let mut q = parse_query("select struct(A = r.A) from R r, S s where r.B = s.B").unwrap();
        q.from.remove(1);
        let report = check_query_wellformed(&c.combined_schema(), &q).0;
        assert!(report
            .errors()
            .any(|d| d.code == codes::QUERY_SCOPE && d.message.contains("`s`")));
    }

    #[test]
    fn duplicate_binding_is_cb002() {
        let c = catalog();
        let q = Query::new(
            Output::Path(Path::var("r")),
            vec![
                Binding::iter("r", Path::root("R")),
                Binding::iter("r", Path::root("S")),
            ],
            vec![],
        );
        let report = check_query_wellformed(&c.combined_schema(), &q).0;
        assert!(report.errors().any(|d| d.code == codes::DUPLICATE_VAR));
    }

    #[test]
    fn dead_variable_is_a_cb003_warning() {
        let c = catalog();
        let q = parse_query("select struct(A = r.A) from R r, S s").unwrap();
        let report = check_query_wellformed(&c.combined_schema(), &q).0;
        assert!(!report.has_errors());
        let dead: Vec<_> = report.at(Severity::Warning).collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].code, codes::DEAD_VAR);
        assert_eq!(dead[0].anchor, Anchor::Binding(1));
    }

    #[test]
    fn unknown_root_and_type_errors() {
        let c = catalog();
        let q = parse_query("select struct(X = x.X) from Nowhere x").unwrap();
        let report = check_query_wellformed(&c.combined_schema(), &q).0;
        assert!(report.errors().any(|d| d.code == codes::UNKNOWN_ROOT));

        let q2 = parse_query("select struct(X = r.Nope) from R r").unwrap();
        let (report2, typed) = check_query_wellformed(&c.combined_schema(), &q2);
        assert!(report2.errors().any(|d| d.code == codes::TYPE_MISMATCH));
        assert!(
            typed.is_err(),
            "the lint's own type check answers the type error"
        );
    }

    #[test]
    fn broken_dependency_scope_is_cb006() {
        let c = catalog();
        // Premise condition mentions a variable no binding introduces.
        let bad = Dependency::new(
            "broken",
            vec![Binding::iter("r", Path::root("R"))],
            vec![Equality(Path::var("ghost"), Path::var("r"))],
            vec![],
            vec![Equality(Path::var("r"), Path::var("r"))],
        );
        let report = check_dependencies(&c.combined_schema(), &[bad]);
        assert!(
            report
                .errors()
                .any(|d| d.code == codes::DEP_SCOPE
                    && d.anchor == Anchor::Dependency("broken".into()))
        );
    }

    #[test]
    fn ill_typed_dependency_is_cb007() {
        let c = catalog();
        let bad = Dependency::new(
            "ill-typed",
            vec![Binding::iter("r", Path::root("R"))],
            vec![],
            vec![],
            vec![Equality(Path::var("r").field("Nope"), Path::int(1))],
        );
        let report = check_dependencies(&c.combined_schema(), &[bad]);
        assert!(report.errors().any(|d| d.code == codes::DEP_TYPE));
    }

    #[test]
    fn builtin_catalogs_emit_only_clean_constraints() {
        for (name, cat) in [
            ("projdept", cb_catalog::scenarios::projdept::catalog()),
            (
                "relational_indexes",
                cb_catalog::scenarios::relational_indexes::catalog(),
            ),
            (
                "relational_views",
                cb_catalog::scenarios::relational_views::catalog(),
            ),
        ] {
            let report = check_catalog_wellformed(&cat);
            assert!(report.is_empty(), "{name}: {report}");
        }
    }
}
