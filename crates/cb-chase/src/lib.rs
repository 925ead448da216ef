//! # cb-chase — the chase & backchase engines
//!
//! The rewriting core of *Physical Data Independence, Constraints and
//! Optimization with Universal Plans* (Deutsch, Popa, Tannen; VLDB 1999):
//!
//! * [`chase`] — phase 1: rewrite a query with EPCD constraints until a
//!   fixpoint, producing the **universal plan** that "holds in one place
//!   essentially all possible physical plans expressible in our
//!   language";
//! * [`backchase`] — phase 2: enumerate the minimal plans by removing
//!   redundant bindings, each removal justified by a constraint implied
//!   by `D ∪ D'`;
//! * [`implies`] — the chase-based constraint-implication prover behind
//!   backchase condition (3);
//! * [`contained_in`] / [`equivalent`] — PC query containment under
//!   constraints (containment mappings into the chased query);
//! * [`minimize`] — generalized tableau minimization (backchase with
//!   trivial constraints).
//!
//! Everything is built on one structure: the congruence-closure e-graph
//! of a query's body ([`canon::QueryGraph`] over [`egraph::EGraph`]).
//!
//! ## Free functions and the context
//!
//! The free functions — `chase(q, deps, cfg)`, `contained_in(q1, q2,
//! deps, cfg)`, `backchase(u, deps, cfg)`, … — are stateless and
//! convenient; each call allocates a throwaway [`ChaseContext`]. Right
//! for one-off questions, examples and tests.
//!
//! A held [`ChaseContext`] is the one chase core: it owns a dependency
//! set and a budget and memoizes chase outcomes (keyed by
//! alpha-normalized query, held as *resumable* states), containment
//! verdicts and implication verdicts (keyed by constant-abstracted forms,
//! so questions that differ only in a constant share one proof) across
//! calls: [`ChaseContext::chase`], [`ChaseContext::contained_in`],
//! [`ChaseContext::implies`], [`backchase_in`], [`backchase_greedy_in`],
//! [`backchase_step_in`], [`examine_removal_in`], [`is_minimal_in`] —
//! the backchase questions come only in this form. Every question is
//! asked through `&self`: the memos are sharded behind per-shard locks,
//! so every worker of a [`PlanSearch`] proves against the same context. The backchase explores an exponential
//! removal lattice whose nodes keep asking the same questions — the
//! context is what makes that affordable, and the optimizer runs phase 1,
//! phase 2 and cleanup in one context so they reuse each other's work.
//! [`CacheStats`] exposes hit/miss counters.
//!
//! Use the free functions until you ask two questions of the same
//! dependency set; then hold a context. A held context is safe to keep:
//! it fingerprints its dependency set ([`ChaseContext::ensure_deps`]
//! resets it automatically when asked about a different theory) and its
//! memos can be bounded in bytes ([`ChaseContext::set_byte_limit`]).
//!
//! The backchase enumeration itself is exposed as [`PlanSearch`]: a
//! streaming driver that hands each equivalence-verified subquery to a
//! [`SearchVisitor`] which steers the walk — explore, prune a
//! sublattice, or accept and stop — with an admission gate that can cut
//! candidates *before* their equivalence checks and a priority hook
//! that orders the frontier. It is the one phase-2 driver: one worker
//! (the default) walks on the caller's thread, and
//! [`PlanSearch::with_threads`] shares the same walk among N workers
//! over one frontier. The optimizer's cost-guided branch-and-bound
//! strategy is one visitor; [`backchase_in`] is the collect-everything
//! one. [`MustRemainAnalysis`] reads the same
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
pub mod implication;
pub mod must_remain;
pub mod parallel;
pub mod termination;

mod containment;
mod lattice;

pub use backchase::{
    backchase, backchase_greedy_in, backchase_in, backchase_step_in, examine_removal,
    examine_removal_in, first_unsafe, is_minimal_in, minimize, BackchaseConfig, BackchaseOutcome,
    ExploreAll, RemovalJudgement, SearchBudget, SearchOutcome, SearchVisitor, Visit,
};
pub use canon::QueryGraph;
pub use chase::{
    chase, chase_step, coalesce_duplicates, ChaseConfig, ChaseOutcome, ChaseStepTrace,
};
pub use containment::{contained_in, contained_in_pre_chased, equivalent};
pub use context::{CacheStats, ChaseContext};
pub use egraph::EGraph;
pub use faults::{FaultKind, FaultSpec, FaultStats, InjectedFault, ScopedFaults, SpecError};
pub use implication::implies;
pub use must_remain::MustRemainAnalysis;
pub use parallel::PlanSearch;
pub use termination::{
    analyze_termination, analyze_termination_with_witness, is_weakly_acyclic,
    weak_acyclicity_witness, CycleWitness, TerminationVerdict,
};
