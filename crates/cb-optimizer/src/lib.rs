//! # cb-optimizer — Algorithm 1 of the universal-plans paper
//!
//! Putting the pieces together:
//!
//! 1. **chase** the input query with `D ∪ D'` into the universal plan;
//! 2. **backchase** the universal plan into the set of minimal plans
//!    (plus every physical equivalent subquery along the way);
//! 3. per plan, run the "conventional" step: guard-elimination cleanup
//!    (the §4 non-failing lookup rewrite), greedy binding reordering, and
//!    System-R-style costing;
//! 4. return the cheapest plan, with the whole derivation retained for
//!    [`explain`](fn@explain).

pub mod cleanup;
pub mod cost;
pub mod explain;
pub mod governor;
pub mod optimizer;
pub mod plan_repr;
pub mod reorder;
pub mod service;

pub use cleanup::cleanup_plan;
pub use cost::{CostError, CostModel};
pub use explain::{explain, explain_prepared};
pub use governor::{Degradation, ResourceGovernor};
pub use optimizer::{
    CostBound, OptimizeError, OptimizeOutcome, Optimizer, OptimizerConfig, PlanChoice,
    PreflightMode, SearchStrategy,
};
pub use plan_repr::{PlanRepr, PlanV1, ReprError};
pub use reorder::reorder_bindings;
pub use service::{PlanService, Prepared, ServiceStats};
