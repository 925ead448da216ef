//! # cb-bench — experiment harness and benchmarks
//!
//! Shared setup code for the criterion benches, the `experiments` binary
//! that regenerates every example/figure of the paper, and the `lint`
//! binary that runs cb-analyze over every builtin scenario (CI fails on
//! error-severity findings). The experiment index E1–E19 and the
//! paper-vs-measured record live in `crates/cb-bench/EXPERIMENTS.md`;
//! machine-readable records come from
//! `experiments --json BENCH_experiments.json`.

use std::time::Instant;

use cb_catalog::Catalog;
use cb_engine::{Evaluator, Instance, Materializer};
use cb_optimizer::Optimizer;
use pcql::Query;

/// A ready-to-run scenario: catalog with statistics and a materialized
/// instance.
pub struct Prepared {
    pub catalog: Catalog,
    pub instance: Instance,
    pub query: Query,
}

/// Builds the ProjDept scenario at a given scale.
pub fn prepared_projdept(n_depts: usize, projs_per_dept: usize, n_customers: usize) -> Prepared {
    let mut catalog = cb_catalog::scenarios::projdept::catalog();
    let mut instance = cb_engine::projdept_instance(&cb_engine::ProjDeptParams {
        n_depts,
        projs_per_dept,
        n_customers,
        seed: 42,
    });
    Materializer::new(&catalog)
        .materialize(&mut instance)
        .expect("materialize");
    *catalog.stats_mut() = cb_engine::collect_stats(&instance);
    Prepared {
        catalog,
        instance,
        query: cb_catalog::scenarios::projdept::query(),
    }
}

/// Builds §4 scenario 1 (R(A,B,C) + SA + SB) at a given scale.
pub fn prepared_indexes(n_rows: usize, distinct_a: usize, distinct_b: usize) -> Prepared {
    let mut catalog = cb_catalog::scenarios::relational_indexes::catalog();
    let mut instance = cb_engine::rabc_instance(&cb_engine::RabcParams {
        n_rows,
        distinct_a,
        distinct_b,
        seed: 7,
    });
    Materializer::new(&catalog)
        .materialize(&mut instance)
        .expect("materialize");
    *catalog.stats_mut() = cb_engine::collect_stats(&instance);
    Prepared {
        catalog,
        instance,
        query: cb_catalog::scenarios::relational_indexes::query(),
    }
}

/// Builds §4 scenario 2 (R ⋈ S with V, IR, IS) at a given scale.
pub fn prepared_views(n_r: usize, n_s: usize, match_fraction: f64) -> Prepared {
    let mut catalog = cb_catalog::scenarios::relational_views::catalog();
    let mut instance = cb_engine::join_instance(&cb_engine::JoinParams {
        n_r,
        n_s,
        match_fraction,
        seed: 11,
    });
    Materializer::new(&catalog)
        .materialize(&mut instance)
        .expect("materialize");
    *catalog.stats_mut() = cb_engine::collect_stats(&instance);
    Prepared {
        catalog,
        instance,
        query: cb_catalog::scenarios::relational_views::query(),
    }
}

impl Prepared {
    pub fn evaluator(&self) -> Evaluator<'_> {
        Evaluator::for_catalog(&self.catalog, &self.instance)
    }

    pub fn optimizer(&self) -> Optimizer<'_> {
        Optimizer::new(&self.catalog)
    }

    /// Wall-clock time to evaluate a plan, and its row count.
    pub fn time_plan(&self, plan: &Query) -> (f64, usize) {
        let ev = self.evaluator();
        let t = Instant::now();
        let rows = ev.eval_query(plan).expect("plan evaluates");
        (t.elapsed().as_secs_f64() * 1e3, rows.len())
    }
}

/// One builtin scenario's full static-analysis result: the catalog +
/// query lint, the optimizer's own diagnostics (including the dataflow
/// verification of every candidate plan's compiled pipeline), and the
/// lookup-safety counters aggregated over the input query and every
/// candidate plan.
pub struct ScenarioLint {
    pub name: &'static str,
    pub report: cb_analyze::Report,
    pub lookups: cb_analyze::LookupSummary,
}

/// Lints every builtin scenario end to end: catalog well-formedness,
/// termination, query scoping/typing/lookups, then a full optimization
/// whose candidate pipelines are all dataflow-verified (the optimizer's
/// default warn-mode pre-flight). The scenario linter binary and CI fail
/// on any error-severity finding.
pub fn lint_builtin_scenarios() -> Vec<ScenarioLint> {
    let scenarios: Vec<(&'static str, Prepared)> = vec![
        ("projdept", prepared_projdept(20, 5, 8)),
        ("relational_indexes", prepared_indexes(200, 20, 10)),
        ("relational_views", prepared_views(100, 100, 0.3)),
    ];
    scenarios
        .into_iter()
        .map(|(name, p)| {
            let analyzer = cb_analyze::Analyzer::new(&p.catalog);
            let mut report = analyzer.lint(&p.query);
            let mut lookups = analyzer.lookup_summary(&p.query);
            // The optimizer's own pre-flight covers the same catalog and
            // query passes; run it with the lint off and verify the
            // candidate pipelines here, so each finding appears once.
            let config = cb_optimizer::OptimizerConfig {
                preflight: cb_optimizer::PreflightMode::Off,
                cost_visited: true,
                ..Default::default()
            };
            let out = Optimizer::with_config(&p.catalog, config)
                .optimize(&p.query)
                .expect("scenario optimizes");
            for (rank, c) in out.candidates().iter().enumerate() {
                report.merge(analyzer.check_pipelines(&c.query, &format!("plan #{}", rank + 1)));
                lookups.absorb(analyzer.lookup_summary(&c.query));
            }
            ScenarioLint {
                name,
                report,
                lookups,
            }
        })
        .collect()
}

/// Formats a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        out.push('\n');
    };
    line(
        &headers.iter().map(ToString::to_string).collect::<Vec<_>>(),
        &widths,
        &mut out,
    );
    line(
        &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
        &widths,
        &mut out,
    );
    for row in rows {
        line(row, &widths, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_scenarios_build() {
        let p = prepared_projdept(5, 3, 3);
        assert_eq!(p.instance.cardinality("Proj"), Some(15));
        let p = prepared_indexes(50, 10, 5);
        assert_eq!(p.instance.cardinality("R"), Some(50));
        let p = prepared_views(30, 30, 0.5);
        assert!(p.instance.cardinality("V").unwrap() > 0);
    }

    #[test]
    fn builtin_scenarios_lint_clean() {
        for lint in lint_builtin_scenarios() {
            assert!(!lint.report.has_errors(), "{}: {}", lint.name, lint.report);
            // Every scenario exercises the lookup passes somewhere in its
            // plan space except the pure-relational ones; the counters
            // must at least be consistent.
            assert_eq!(
                lint.lookups.total,
                lint.lookups.static_safe + lint.lookups.deferred + lint.lookups.unguardable
            );
        }
    }

    #[test]
    fn table_rendering() {
        let t = render_table(
            &["plan", "cost"],
            &[
                vec!["P1".into(), "10".into()],
                vec!["P2".into(), "3".into()],
            ],
        );
        assert!(t.contains("plan"));
        assert!(t.lines().count() == 4);
    }
}
