//! # cb-chase — the chase & backchase engines
//!
//! The rewriting core of *Physical Data Independence, Constraints and
//! Optimization with Universal Plans* (Deutsch, Popa, Tannen; VLDB 1999):
//!
//! * [`ChaseContext::chase`] — phase 1: rewrite a query with EPCD
//!   constraints until a fixpoint, producing the **universal plan** that
//!   "holds in one place essentially all possible physical plans
//!   expressible in our language";
//! * [`backchase`](fn@backchase) — phase 2: enumerate the minimal plans
//!   by removing redundant bindings, each removal justified by a
//!   constraint implied by `D ∪ D'`;
//! * [`ChaseContext::implies`] — the chase-based constraint-implication
//!   prover behind backchase condition (3);
//! * [`ChaseContext::contained_in`] / [`ChaseContext::equivalent`] — PC
//!   query containment under constraints (containment mappings into the
//!   chased query);
//! * [`minimize`] — generalized tableau minimization (backchase with
//!   trivial constraints).
//!
//! Everything is built on one structure: the congruence-closure e-graph
//! of a query's body ([`canon::QueryGraph`] over [`egraph::EGraph`]).
//!
//! ## One context per theory
//!
//! Every question is asked of a held [`ChaseContext`], the one chase
//! core: it owns a dependency set and a budget and memoizes phase-1
//! chase outcomes (keyed by the input's shape), containment and
//! implication verdicts (keyed by
//! constant-abstracted forms, so questions that differ only in a constant
//! share one proof) and verified backchase lattices across calls, which
//! is what makes the exponential removal lattice, whose nodes keep asking
//! the same questions, affordable. The backchase questions —
//! [`backchase`](fn@backchase), [`backchase_greedy`], [`backchase_step`],
//! [`examine_removal`], [`is_minimal`] and [`minimize`] — take the
//! context as their first argument, and tableau minimization is
//! [`minimize`] over a context with no dependencies. Every question goes
//! through `&self` (the memos are sharded behind per-shard locks), so
//! every worker of a [`PlanSearch`] proves against the same context, and
//! the optimizer runs phase 1, phase 2 and cleanup in one so they reuse
//! each other's work. A held context is safe to keep:
//! [`ChaseContext::ensure_deps`] resets it when asked about a different
//! theory, [`ChaseContext::set_byte_limit`] bounds its memos, and
//! [`CacheStats`] counts its hits and misses. Three free functions take a
//! dependency slice instead: the memo-free [`chase`](fn@chase), which
//! phase 1 falls back to after a caught panic, [`chase_step`] and
//! [`analyze_termination`].
//!
//! ```
//! use cb_chase::{backchase, ChaseConfig, ChaseContext};
//! use pcql::parser::{parse_dependency, parse_query};
//!
//! // Every r has an s partner, so the join with s is redundant.
//! let ric = parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.B = s.B")
//!     .unwrap();
//! let ctx = ChaseContext::new(vec![ric], ChaseConfig::default());
//! let q = parse_query("select struct(A = r.A) from R r, S s where r.B = s.B").unwrap();
//! let scan = parse_query("select struct(A = r.A) from R r").unwrap();
//! let u = ctx.chase(&q).query; // phase 1: the universal plan
//! assert!(ctx.contained_in(&scan, &u));
//! let out = backchase(&ctx, &u); // phase 2, over the same memos
//! assert_eq!(out.normal_forms, vec![scan]);
//! ```
//!
//! The backchase enumeration itself is exposed as [`PlanSearch`]: a
//! streaming driver that hands each equivalence-verified subquery to a
//! [`SearchVisitor`] which steers the walk — explore, prune a
//! sublattice, or accept and stop — with an admission gate that can cut
//! candidates *before* their equivalence checks and a priority hook
//! that orders the frontier. It is the one phase-2 driver: one worker
//! (the default) walks on the caller's thread, and
//! [`PlanSearch::with_threads`] shares the same walk among N workers
//! over one frontier. A [`SearchBudget`] is the walk's only cap (the
//! anytime stop: "we can stop this rewriting anytime"), and every run
//! reports how far it got in one [`SearchCounters`] record. The
//! optimizer's cost-guided branch-and-bound strategy is one visitor;
//! [`backchase`](fn@backchase) is the collect-everything one, with no
//! budget. [`MustRemainAnalysis`] reads the same
//! lattice structure statically: which bindings every
//! equivalence-preserving removal set keeps (and which source paths a
//! binding can be re-expressed to) — the ingredient of the optimizer's
//! summed cost lower bound.

pub mod backchase;
pub mod canon;
pub mod chase;
pub mod context;
pub mod egraph;
pub mod faults;
pub mod hom;
pub mod must_remain;
pub mod parallel;
pub mod shape;
pub mod termination;

mod containment;
mod implication;
mod lattice;

pub use backchase::{
    backchase, backchase_greedy, backchase_step, examine_removal, first_unsafe, is_minimal,
    minimize, ExploreAll, RemovalJudgement, SearchBudget, SearchCounters, SearchOutcome,
    SearchVisitor, Visit,
};
pub use canon::QueryGraph;
pub use chase::{
    chase, chase_step, coalesce_duplicates, ChaseConfig, ChaseOutcome, ChaseStepTrace,
};
pub use context::{CacheStats, ChaseContext};
pub use egraph::EGraph;
pub use faults::{FaultKind, FaultSpec, FaultStats, InjectedFault, ScopedFaults, SpecError};
pub use must_remain::MustRemainAnalysis;
pub use parallel::PlanSearch;
pub use shape::{Renaming, Shape, ShapeOrigin};
pub use termination::{analyze_termination, CycleWitness, TerminationVerdict};
