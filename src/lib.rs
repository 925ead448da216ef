//! # universal-plans
//!
//! A from-scratch Rust implementation of the chase & backchase (C&B)
//! optimization framework of
//!
//! > Alin Deutsch, Lucian Popa, Val Tannen.
//! > *Physical Data Independence, Constraints and Optimization with
//! > Universal Plans.* VLDB 1999.
//!
//! The crate is an umbrella over the workspace members:
//!
//! * [`pcql`] — the path-conjunctive query language: complex-object data
//!   model (records, sets, dictionaries, classes/OIDs), queries, EPCD
//!   constraints, parser and type checker;
//! * [`catalog`] — logical/physical schemas and the encoding
//!   of physical access structures (indexes, materialized views, join
//!   indexes, access support relations, gmaps, …) as constraints;
//! * [`chase`] — the chase and backchase engines, containment,
//!   and generalized tableau minimization;
//! * [`engine`] — an in-memory set-semantics evaluator, access
//!   structure materializer, constraint checker and data generators;
//! * [`optimizer`] — Algorithm 1 of the paper: chase to a
//!   universal plan, enumerate minimal plans by backchase, choose by cost;
//! * [`analyze`] — the static verifier and lint layer:
//!   well-formedness, lookup safety, chase termination, and dataflow
//!   verification of compiled pipelines, reported as stable `CB0xx`
//!   diagnostics.
//!
//! ## Quickstart
//!
//! ```
//! use universal_plans::prelude::*;
//!
//! // Logical schema: a relation R(A, B, C).
//! let mut catalog = Catalog::new();
//! catalog.add_logical_relation(
//!     "R",
//!     [("A", Type::Int), ("B", Type::Int), ("C", Type::Int)],
//! );
//! // Physical schema: R itself plus a secondary index on A.
//! catalog.add_direct_mapping("R");
//! catalog.add_secondary_index("SA", "R", "A").unwrap();
//!
//! let q = parse_query("select struct(C = r.C) from R r where r.A = 5").unwrap();
//! let best = Optimizer::new(&catalog).optimize(&q).unwrap();
//! // The winning plan scans SI entries for key 5 instead of all of R.
//! assert!(best.best.query.to_string().contains("SA"));
//! ```

pub use cb_analyze as analyze;
pub use cb_catalog as catalog;
pub use cb_chase as chase;
pub use cb_engine as engine;
pub use cb_optimizer as optimizer;
pub use pcql;

/// One-stop imports for examples, tests and downstream users.
pub mod prelude {
    pub use cb_analyze::{Analyzer, Report};
    pub use cb_catalog::{AccessStructure, Catalog};
    pub use cb_chase::{backchase, chase, minimize, ChaseConfig, ChaseContext};
    pub use cb_engine::{Evaluator, Instance, Materializer, Value};
    pub use cb_optimizer::{CostModel, Optimizer};
    pub use pcql::prelude::*;
}
