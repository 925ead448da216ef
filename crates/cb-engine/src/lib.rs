//! # cb-engine — in-memory complex-object storage and evaluation
//!
//! The execution substrate for the universal-plans reproduction: the
//! paper's plans have to *run* somewhere for cost claims to be checked.
//! This crate provides:
//!
//! * [`Value`] / [`Instance`] — the runtime complex-object model (records,
//!   sets, dictionaries, OIDs) and named-root databases;
//! * [`Evaluator`] — a set-semantics interpreter for PC queries and
//!   physical plans, with failing (`M[k]`) and non-failing (`M{k}`)
//!   dictionary lookups and ODMG implicit dereferencing;
//! * [`Materializer`] — builds every catalog access structure (indexes,
//!   class extents, views, join indexes, ASRs, gmaps) from base data by
//!   executing its definition;
//! * [`check`] — EPCD satisfaction checking on instances;
//! * [`generator`] — seeded synthetic data for the paper's scenarios;
//! * [`collect_stats`] — cost-model statistics from real instances.

pub mod check;
pub mod eval;
pub mod exec;
pub mod generator;
pub mod instance;
pub mod materialize;
pub mod stats;
pub mod value;

pub use check::{satisfies, violations};
pub use eval::{EvalError, Evaluator};
pub use exec::{
    compile, execute, execute_with_stats, Access, AccessKind, CompileOptions, CompiledOutput,
    GroundFilter, OpStats, Operator, Pipeline, PipelineLayout, PipelineStats,
};
pub use generator::{
    join_instance, projdept_instance, rabc_instance, JoinParams, ProjDeptParams, RabcParams,
};
pub use instance::Instance;
pub use materialize::{MaterializeError, Materializer};
pub use stats::collect_stats;
pub use value::{Batch, CowValue, SelVec, Value};
