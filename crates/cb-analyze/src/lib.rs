//! cb-analyze — a static verifier and lint layer for the chase & backchase
//! stack.
//!
//! The chase ([`cb-chase`](cb_chase)), the optimizer, and the slot-compiled
//! executor ([`cb-engine`](cb_engine)) all *assume* structural invariants
//! of their inputs: queries are well-scoped and well-typed against the
//! catalog, every catalog constraint passes
//! [`pcql::Dependency::check_scopes`], failing lookups are guarded,
//! dependency sets terminate, and compiled pipelines read registers only
//! after they are written. This crate checks those invariants *statically*
//! — before any chase step or pipeline run — and reports violations as
//! [`Diagnostic`]s with stable `CB0xx` codes.
//!
//! Four passes, one per layer of the stack:
//!
//! 1. **Well-formedness** ([`check_query_wellformed`],
//!    [`check_catalog_wellformed`]) — scoping, dead variables, unknown
//!    roots, type consistency of queries and of every constraint a
//!    catalog emits.
//! 2. **Static lookup-safety** ([`check_lookups`]) — the syntactic
//!    guardedness pre-pass of the backchase's lookup-safety prover
//!    ([`cb_chase::first_unsafe`]); static-safe implies prover-safe by
//!    construction, and the test suite checks that differentially.
//! 3. **Dependency-set analysis** ([`check_termination`]) — termination
//!    verdicts with *evidence*: an `Unknown` verdict carries the
//!    position-graph cycle witness and blames the dependencies on it.
//! 4. **Pipeline dataflow verification** ([`check_pipeline`]) — an
//!    abstract interpreter over compiled [`cb_engine::Pipeline`]s:
//!    def-before-use, accessor resolvability, slot/table layout, dead
//!    slots, groundedness of hoisted filters.
//!
//! The [`Analyzer`] bundles the catalog-aware passes behind one entry
//! point; `cb-optimizer` runs it as a pre-flight (warn or deny) and
//! verifies every candidate plan's compiled pipeline, and `cb-bench`
//! lints every builtin scenario in CI.

pub mod diag;
pub mod faultcfg;
pub mod lookups;
pub mod pipeline;
pub mod termination;
pub mod wellformed;

pub use diag::{codes, Anchor, Diagnostic, Report, Severity};
pub use faultcfg::{check_fault_config, check_fault_spec};
pub use lookups::{check_lookups, LookupFinding, LookupSummary, LookupVerdict};
pub use pipeline::check_pipeline;
pub use termination::check_termination;
pub use wellformed::{check_catalog_wellformed, check_dependencies, check_query_wellformed};

use cb_catalog::Catalog;
use cb_chase::TerminationVerdict;
use pcql::query::Query;

/// The catalog-aware analysis entry point: one value bundling every pass
/// so callers (the optimizer's pre-flight, the scenario linter) get the
/// full picture in one call.
pub struct Analyzer<'a> {
    catalog: &'a Catalog,
}

impl<'a> Analyzer<'a> {
    pub fn new(catalog: &'a Catalog) -> Analyzer<'a> {
        Analyzer { catalog }
    }

    /// Passes 1 + 3 over the catalog: every emitted constraint
    /// well-formed, plus the termination verdict with its evidence.
    pub fn check_catalog(&self) -> (TerminationVerdict, Report) {
        let mut report = check_catalog_wellformed(self.catalog);
        let (verdict, term) = check_termination(&self.catalog.all_constraints());
        report.merge(term);
        (verdict, report)
    }

    /// Passes 1 + 2 over one query against the catalog.
    pub fn check_query(&self, q: &Query) -> Report {
        let mut report = check_query_wellformed(self.catalog, q);
        let (lookups, _) = check_lookups(q);
        report.merge(lookups);
        report
    }

    /// The lookup-safety counters for one query (pass 2), for E17-style
    /// accounting of how much work the static pass discharges.
    pub fn lookup_summary(&self, q: &Query) -> LookupSummary {
        check_lookups(q).1
    }

    /// Pass 5 over the process environment: validates the `CB_FAULTS`
    /// fault schedule (a malformed one is an error — it would arm
    /// nothing and a chaos sweep would pass vacuously) and surfaces any
    /// armed schedule as a warning, so no result produced under fault
    /// injection can be mistaken for a clean one. Catalog-independent;
    /// the optimizer pre-flight runs it before every optimization.
    pub fn check_environment(&self) -> Report {
        check_fault_config()
    }

    /// The full lint: catalog and query passes merged, the way the
    /// optimizer pre-flight and the scenario linter consume it.
    pub fn lint(&self, q: &Query) -> Report {
        let (_, mut report) = self.check_catalog();
        report.merge(self.check_query(q));
        report
    }

    /// Pass 4 over `q` compiled in both modes — plain, and with the
    /// physical join operators (hash + merge) on — so every operator the
    /// executor could run is verified. Findings are labeled `label` and
    /// `"{label}, hash/merge joins"`. Catalog-independent.
    pub fn check_pipelines(&self, q: &Query, label: &str) -> Report {
        let mut report = Report::new();
        for (joins, mode) in [(false, ""), (true, ", hash/merge joins")] {
            let options = cb_engine::CompileOptions {
                hash_joins: joins,
                merge_joins: joins,
                ..Default::default()
            };
            let pipeline = cb_engine::compile(q, options);
            report.merge_labeled(&format!("{label}{mode}"), check_pipeline(&pipeline));
        }
        report
    }

    /// The load-time gate for deserialized plans: a plan coming off disk
    /// (or a wire) was optimized against *some* catalog at *some* time —
    /// possibly not this catalog, possibly hand-edited since. Before it
    /// may execute, its query must pass the well-formedness and
    /// lookup-safety passes against the *current* catalog, and its
    /// compiled pipelines [the dataflow pass](Analyzer::check_pipelines),
    /// mirroring the optimizer's own candidate pre-flight.
    pub fn verify_loaded_plan(&self, q: &Query) -> Report {
        let mut report = self.check_query(q);
        report.merge(self.check_pipelines(q, "loaded"));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcql::parser::parse_query;
    use pcql::Type;

    #[test]
    fn analyzer_bundles_all_passes() {
        let mut c = Catalog::new();
        c.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
        c.add_direct_mapping("R");
        let a = Analyzer::new(&c);
        let (verdict, cat_report) = a.check_catalog();
        assert_ne!(verdict, TerminationVerdict::Unknown);
        assert!(cat_report.is_empty(), "{cat_report}");

        let q = parse_query("select struct(A = r.A) from R r where r.B = 2").unwrap();
        assert!(a.lint(&q).is_empty());

        let bad = parse_query("select struct(X = r.Nope) from R r").unwrap();
        assert!(a.lint(&bad).has_errors());
    }

    #[test]
    fn lint_surfaces_catalog_termination_evidence() {
        let c = cb_catalog::scenarios::projdept::catalog();
        let a = Analyzer::new(&c);
        let q = parse_query("select struct(N = p.PName) from Proj p").unwrap();
        let report = a.lint(&q);
        // projdept's mapping constraints form a special-edge cycle:
        // warnings, never errors.
        assert!(!report.has_errors(), "{report}");
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::CHASE_TERMINATION));
    }
}
