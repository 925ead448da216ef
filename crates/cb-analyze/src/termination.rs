//! Pass 3: dependency-set analysis.
//!
//! Wraps [`cb_chase::analyze_termination`] into diagnostics:
//! a verdict of [`TerminationVerdict::Unknown`] becomes a warning whose
//! message carries the position-graph cycle and the dependencies drawing
//! its edges — evidence, not a bare verdict. Each blamed dependency is
//! additionally anchored individually so a report consumer can jump to
//! the constraint at fault.

use cb_chase::{analyze_termination, TerminationVerdict};
use pcql::Dependency;

use crate::diag::{codes, Anchor, Diagnostic, Report, Severity};

/// Classifies a dependency set and renders the failure evidence as
/// diagnostics. Terminating sets (full or weakly acyclic) produce no
/// diagnostics at all.
pub fn check_termination(deps: &[Dependency]) -> (TerminationVerdict, Report) {
    let (verdict, witness) = analyze_termination(deps);
    let mut report = Report::new();
    if let Some(w) = witness {
        report.push(Diagnostic::new(
            codes::CHASE_TERMINATION,
            Severity::Warning,
            Anchor::Catalog,
            format!(
                "no static chase-termination guarantee: {w}; \
                 the restricted chase relies on its budgets"
            ),
        ));
        for dep in &w.dependencies {
            report.push(Diagnostic::new(
                codes::CHASE_TERMINATION,
                Severity::Warning,
                Anchor::Dependency(dep.clone()),
                format!(
                    "dependency lies on the special-edge cycle {}",
                    w.positions.join(" -> ")
                ),
            ));
        }
    }
    (verdict, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcql::parser::parse_dependency;

    #[test]
    fn terminating_sets_are_diagnostic_free() {
        let deps =
            vec![
                parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.B = s.B")
                    .unwrap(),
            ];
        let (verdict, report) = check_termination(&deps);
        assert_eq!(verdict, TerminationVerdict::WeaklyAcyclic);
        assert!(report.is_empty());
    }

    #[test]
    fn unknown_verdict_carries_the_cycle_and_blames_dependencies() {
        let deps = vec![
            parse_dependency("rs", "forall (r in R) -> exists (s in S) where r.A = s.A").unwrap(),
            parse_dependency("sr", "forall (s in S) -> exists (r in R) where s.B = r.B").unwrap(),
        ];
        let (verdict, report) = check_termination(&deps);
        assert_eq!(verdict, TerminationVerdict::Unknown);
        // One catalog-level diagnostic with the cycle, one per blamed dep.
        assert_eq!(report.len(), 3);
        assert!(report.diagnostics[0].message.contains("R -> S -> R"));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.anchor == Anchor::Dependency("rs".into())));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.anchor == Anchor::Dependency("sr".into())));
        // Never error severity: the restricted chase may still terminate.
        assert!(!report.has_errors());
    }

    #[test]
    fn projdept_catalog_reports_its_known_cycle() {
        let cat = cb_catalog::scenarios::projdept::catalog();
        let (verdict, report) = check_termination(&cat.all_constraints());
        assert_eq!(verdict, TerminationVerdict::Unknown);
        assert!(!report.is_empty());
        assert!(!report.has_errors());
    }
}
