//! Algorithm 1 of the paper.
//!
//! ```text
//! Input:  logical schema Λ with constraints D,
//!         constraints D' characterizing physical schema Φ,
//!         cost function C, query Q
//! Output: cheapest plan Q' equivalent to Q under D ∪ D'
//!
//! 1 U := chase_{D ∪ D'}(Q)                      (universal plan)
//! 2 for each p ∈ backchase_{D ∪ D'}(U)          (minimal plans)
//! 3     do cost-based conventional optimization
//!       keep cheapest plan so far
//! 4 Q' := cheapest
//! ```
//!
//! Steps 1 and 2 are cost-independent, as the paper stresses (contrast
//! with Volcano); step 3 here is plan cleanup (non-failing-lookup
//! introduction, §4) plus greedy binding reordering, followed by costing.
//! Since every subquery the backchase visits is a sound plan ("we can
//! stop this rewriting anytime"), the optimizer costs all *physical*
//! visited subqueries, not just the normal forms — reproducing, e.g., the
//! paper's P1, which is an equivalent physical plan even in regimes where
//! it is not minimal.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use cb_analyze::{Analyzer, Report};
use cb_catalog::Catalog;
use cb_chase::{
    backchase_greedy, CacheStats, ChaseConfig, ChaseContext, ChaseStepTrace, ExploreAll,
    MustRemainAnalysis, PlanSearch, Renaming, SearchBudget, SearchCounters, SearchOutcome,
    SearchVisitor, TerminationVerdict, Visit,
};
use pcql::query::Query;
use pcql::typecheck::{check_query, TypeError};
use pcql::Dependency;
use std::collections::BTreeSet;

use crate::cleanup::cleanup_plan;
use crate::cost::CostModel;
use crate::governor::{Degradation, ResourceGovernor};
use crate::reorder::reorder_bindings;

/// How to search the plan space in phase 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Full lattice enumeration with equivalence pruning (Theorem 2's
    /// complete procedure) — exponential, finds *all* minimal plans.
    #[default]
    Exhaustive,
    /// The paper's §3 heuristic: one greedy descent that removes
    /// logical-only bindings first — linear, finds *one* minimal plan.
    Greedy,
    /// Branch-and-bound over the same lattice as `Exhaustive`: each
    /// equivalence-verified subquery is costed *as it is reached* (the
    /// paper's "used in conjunction with good cost models"), and a
    /// sublattice is pruned the moment its admissible cost lower bound
    /// ([`CostModel::lower_bound`]) exceeds the incumbent best. Finds a
    /// plan with the same best cost as `Exhaustive` while costing
    /// strictly fewer subqueries whenever the bound bites; the pruning is
    /// reported in [`OptimizeOutcome::search`]. Every
    /// visited physical subquery is costed (this strategy implies
    /// `cost_visited`); normal forms under pruned branches are not
    /// enumerated, so `candidates` may mark fewer plans `minimal`.
    CostGuided,
}

/// Which admissible lower bound [`SearchStrategy::CostGuided`] prunes
/// with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CostBound {
    /// [`CostModel::lattice_lower_bound`]: the **sum** of the access
    /// floors of every binding the must-remain analysis proves present in
    /// all descendants of a lattice node, with the single-floor bound as
    /// a fallback. Strictly dominates `AccessFloor`, multiplying the
    /// pruning ratio on the catalog scenarios (E16).
    #[default]
    MustRemain,
    /// [`CostModel::lower_bound`]: the single cheapest access floor among
    /// the subquery's bindings — the pre-must-remain bound, kept for the
    /// E16 ablation and as a no-analysis baseline.
    AccessFloor,
}

/// What the optimizer does with the static analyzer's pre-flight lint
/// (cb-analyze's catalog + query + lookup passes, run before phase 1, and
/// the pipeline dataflow verification of every costed candidate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PreflightMode {
    /// Skip the lint entirely ([`OptimizeOutcome::diagnostics`] stays
    /// empty; the termination verdict is still computed).
    Off,
    /// Run the lint and carry all findings in
    /// [`OptimizeOutcome::diagnostics`] (EXPLAIN prints them), but never
    /// fail the optimization over them.
    #[default]
    Warn,
    /// Like `Warn`, but any error-severity finding aborts with
    /// [`OptimizeError::Rejected`] before the chase runs — and a
    /// candidate pipeline failing dataflow verification aborts after the
    /// search.
    Deny,
}

/// Optimizer configuration.
///
/// One [`ChaseContext`] built from `chase` runs the whole optimization
/// (universal plan, backchase, condition pruning).
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    pub chase: ChaseConfig,
    /// Cost also the non-minimal physical subqueries encountered during
    /// backchase (they are sound plans; the paper's P1 is one). Only
    /// under it does the `Exhaustive` walk collect its visited nodes
    /// ([`SearchOutcome::visited`](cb_chase::SearchOutcome::visited));
    /// without it the walk keeps just the normal forms.
    pub cost_visited: bool,
    pub strategy: SearchStrategy,
    /// The lower bound `CostGuided` prunes with (ignored by the other
    /// strategies).
    pub bound: CostBound,
    /// Test-only hook: every lower bound is multiplied by this factor
    /// before it is compared against the incumbent. `1.0` (the default)
    /// is the real bound; a factor above one makes the bound deliberately
    /// **inadmissible** so the differential harness can prove it would
    /// catch an overshooting bound. Not part of the public contract.
    #[doc(hidden)]
    pub bound_scale: f64,
    /// What to do with the static analyzer's findings (default: run it,
    /// carry the diagnostics, never fail).
    pub preflight: PreflightMode,
    /// Phase-2 worker count: the [`PlanSearch`] walk's
    /// `with_threads`. `1` (the default) walks on the calling thread;
    /// `> 1` shares the same walk among that many workers over one
    /// frontier, every worker proving against the optimization's one
    /// [`ChaseContext`] (its memos are sharded behind per-shard locks)
    /// and the incumbent best cost published atomically across workers.
    /// The best plan and its cost are thread-count-independent; per-run
    /// counters (visited nodes, pruning splits, cache traffic) and the
    /// `minimal` flags on non-best candidates may differ, since workers
    /// race the incumbent down in different orders. [`Optimizer::new`] seeds this from the
    /// `CB_SEARCH_THREADS` environment variable.
    pub threads: usize,
    /// Anytime budget for the phase-2 search, and its only cap: unlimited
    /// by default, `nodes: Some(4096)` under [`Optimizer::new`]. On expiry
    /// the search stops and the incumbent — always a fully
    /// equivalence-verified plan — is accepted: a latency SLO, not a
    /// correctness change. A budget of zero nodes (or zero wall clock)
    /// still visits the root, so the universal plan itself is always
    /// available as the fallback.
    pub search_budget: SearchBudget,
    /// How many verified plans [`OptimizeOutcome::top_k`] retains
    /// (mutually distinct, cheapest first) for serving-tier fallback.
    pub k_best: usize,
    /// Approximate cap, in bytes, on the memo tables of the
    /// [`ChaseContext`] the optimization runs in, at every thread count
    /// (rung 1 of the resource governor's degradation ladder): a memo
    /// shard over its even split of the cap sheds its entries instead of
    /// growing, each shed counted in [`CacheStats::pressure_sheds`] and
    /// this optimization's sheds surfaced as a
    /// [`Degradation::ShardCachesShed`]. `None` (the default) leaves the
    /// memos unbounded. [`Optimizer::new`] seeds this from the
    /// `CB_MEMO_BYTES` environment variable.
    pub memo_byte_limit: Option<usize>,
}

impl OptimizerConfig {
    /// Ceiling [`OptimizerConfig::validated`] clamps `threads` to.
    pub const MAX_THREADS: usize = 256;

    /// Deterministic normalization of out-of-range settings, applied by
    /// both [`Optimizer::new`] and [`Optimizer::with_config`] — the
    /// same input config always yields the same effective one, so a bad
    /// knob can change performance but never the answer:
    ///
    /// - `threads == 0` (meaningless) becomes 1, a walk on the calling
    ///   thread;
    ///   values above [`OptimizerConfig::MAX_THREADS`] are clamped down
    ///   to it.
    /// - `k_best == 0` becomes 1: the winner always retains itself.
    /// - A non-finite or non-positive `bound_scale` becomes `1.0`, the
    ///   real admissible bound; a NaN would otherwise decide every
    ///   prune comparison vacuously, in a strategy-dependent way.
    ///
    /// Deliberately *not* clamped: a zero [`SearchBudget`] (zero nodes
    /// or a zero wall clock) is legal and still visits the root, so
    /// the universal plan is always available as the anytime answer; and
    /// `memo_byte_limit == Some(0)` is the strictest legal cache
    /// pressure — every shard sheds on every insert.
    #[must_use]
    pub fn validated(mut self) -> OptimizerConfig {
        self.threads = self.threads.clamp(1, Self::MAX_THREADS);
        self.k_best = self.k_best.max(1);
        if !self.bound_scale.is_finite() || self.bound_scale <= 0.0 {
            self.bound_scale = 1.0;
        }
        self
    }
}

impl Default for OptimizerConfig {
    fn default() -> OptimizerConfig {
        OptimizerConfig {
            chase: ChaseConfig::default(),
            cost_visited: false,
            strategy: SearchStrategy::default(),
            bound: CostBound::default(),
            bound_scale: 1.0,
            preflight: PreflightMode::default(),
            threads: 1,
            search_budget: SearchBudget::default(),
            k_best: 3,
            memo_byte_limit: None,
        }
    }
}

/// One costed plan.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// The executable plan (cleaned up and reordered).
    pub query: Query,
    /// The backchase subquery it came from.
    pub raw: Query,
    /// Estimated cost.
    pub cost: f64,
    /// Whether the raw form was a backchase normal form (minimal plan).
    pub minimal: bool,
}

/// The full outcome of Algorithm 1 (kept for EXPLAIN and experiments).
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The input query.
    pub input: Query,
    /// The universal plan `chase(Q)`.
    pub universal: Query,
    /// Chase steps applied to reach it.
    pub chase_steps: Vec<ChaseStepTrace>,
    /// All costed physical plans, cheapest first.
    pub candidates: Vec<PlanChoice>,
    /// The winner.
    pub best: PlanChoice,
    /// The `k_best` cheapest verified plans (mutually distinct,
    /// cost-ordered; a prefix of `candidates`) — the serving tier's
    /// fallback ladder when the best plan's physical structures go cold.
    pub top_k: Vec<PlanChoice>,
    /// Whether both phases ran to completion within budgets.
    pub complete: bool,
    /// The phase-2 walk's counters: visited nodes (for `CostGuided`,
    /// strictly fewer than `Exhaustive` whenever pruning bites), cost
    /// cuts at the gate and at visit (`CostGuided` only), and how the walk
    /// ended. An expired [`SearchBudget`] leaves `best` the anytime
    /// incumbent (still fully equivalence-verified), not necessarily the
    /// global optimum. `workers_died` counts phase-2 workers that died to
    /// a panic and were recovered — their claims re-claimed by
    /// survivors, or, when all of them died, the walk rerun at one
    /// worker ([`Degradation::SequentialFallback`]); it is always 0 when
    /// `threads == 1`. `Greedy` visits the universal plan and every
    /// candidate subquery its descent verifies, equivalent or not.
    pub search: SearchCounters,
    /// The incumbent's descent over time under `CostGuided`: one
    /// `(elapsed, cost)` point per improvement, measured from the start
    /// of phase 2. Empty for the phased strategies.
    pub incumbent_trace: Vec<(Duration, f64)>,
    /// Cache counters of the [`ChaseContext`] that ran this optimization
    /// (chase/containment/implication memo hits and misses).
    pub cache: CacheStats,
    /// The static chase-termination verdict for this catalog's
    /// constraint set (computed for every optimization, independent of
    /// [`PreflightMode`]) — EXPLAIN gates its "budgets were hit" caveat
    /// on it.
    pub termination: TerminationVerdict,
    /// Everything the static analyzer found: catalog, query and lookup
    /// diagnostics from the pre-flight, plus pipeline dataflow findings
    /// for every costed candidate (labeled by plan rank). Empty under
    /// [`PreflightMode::Off`].
    pub diagnostics: Report,
    /// Rungs of the resource governor's degradation ladder taken during
    /// this optimization, in the order taken (empty on a clean run):
    /// memo-free phase-1 chase, shed shard caches, sequential fallback,
    /// universal-plan fallback. See [`crate::governor`]. EXPLAIN prints them in its resilience
    /// section.
    pub degradations: Vec<Degradation>,
}

impl OptimizeOutcome {
    /// The bindings of the universal plan that the must-remain analysis
    /// proves present in every equivalence-preserving plan — the
    /// structural core no removal set can touch (sorted; EXPLAIN reports
    /// it). Computed on demand: only `CostGuided` needs the analysis
    /// while searching.
    pub fn must_remain(&self) -> Vec<String> {
        MustRemainAnalysis::new(&self.universal)
            .must_remain(&BTreeSet::new())
            .into_iter()
            .collect()
    }

    /// This outcome for `q`, a query of the same shape as
    /// [`input`](OptimizeOutcome::input) that `r` takes it to: every
    /// query it holds — the universal plan, the chase steps, every
    /// candidate — renamed. What depends on the shape alone (costs,
    /// counters, verdicts, findings) stays.
    pub(crate) fn renamed(&self, r: &Renaming, q: &Query) -> OptimizeOutcome {
        let choice = |c: &PlanChoice| PlanChoice {
            query: r.query(&c.query),
            raw: r.query(&c.raw),
            ..*c
        };
        OptimizeOutcome {
            input: q.clone(),
            universal: r.query(&self.universal),
            chase_steps: self.chase_steps.iter().map(|s| r.step(s)).collect(),
            candidates: self.candidates.iter().map(choice).collect(),
            best: choice(&self.best),
            top_k: self.top_k.iter().map(choice).collect(),
            complete: self.complete,
            search: self.search,
            incumbent_trace: self.incumbent_trace.clone(),
            cache: self.cache,
            termination: self.termination,
            diagnostics: self.diagnostics.clone(),
            degradations: self.degradations.clone(),
        }
    }
}

/// Optimization errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizeError {
    Type(TypeError),
    /// No enumerated plan mentions only physical-schema roots.
    NoPhysicalPlan {
        universal: String,
    },
    /// [`PreflightMode::Deny`] and the static analyzer reported
    /// error-severity diagnostics (carried in the report).
    Rejected {
        report: Report,
    },
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::Type(e) => write!(f, "{e}"),
            OptimizeError::NoPhysicalPlan { universal } => {
                write!(f, "no physical plan found; universal plan was: {universal}")
            }
            OptimizeError::Rejected { report } => {
                write!(f, "rejected by static analysis:\n{report}")
            }
        }
    }
}

impl std::error::Error for OptimizeError {}

impl From<TypeError> for OptimizeError {
    fn from(e: TypeError) -> Self {
        OptimizeError::Type(e)
    }
}

/// What the pre-flight knows from the catalog alone: its constraints
/// `D ∪ D'`, the termination verdict on them and, unless the pre-flight
/// is off, the catalog-level lint. None of it depends on the query, so
/// it is computed once per catalog (per [`Optimizer`], and per catalog
/// a [`PlanService`](crate::PlanService) serves) and read by every
/// optimization.
#[derive(Debug)]
pub(crate) struct CatalogCheck {
    constraints: Vec<Dependency>,
    termination: TerminationVerdict,
    pub(crate) report: Report,
}

impl CatalogCheck {
    pub(crate) fn of(catalog: &Catalog, config: &OptimizerConfig) -> CatalogCheck {
        let constraints = catalog.all_constraints();
        let (termination, report) = if config.preflight == PreflightMode::Off {
            (cb_chase::analyze_termination(&constraints).0, Report::new())
        } else {
            Analyzer::new(catalog).check_catalog()
        };
        CatalogCheck {
            constraints,
            termination,
            report,
        }
    }
}

/// The chase & backchase optimizer.
#[derive(Debug, Clone)]
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    config: OptimizerConfig,
    /// The catalog's pre-flight, computed on first use.
    check: OnceLock<Arc<CatalogCheck>>,
}

impl<'a> Optimizer<'a> {
    pub fn new(catalog: &'a Catalog) -> Optimizer<'a> {
        // Only the convenience constructor consults the environment:
        // `with_config` keeps exact, reproducible settings for tests and
        // embedders, while `CB_SEARCH_THREADS=N` flips every default
        // optimizer in a process (the CLI, the experiments) to the
        // parallel frontier.
        let threads = std::env::var("CB_SEARCH_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map_or(1, |t| t.max(1));
        // `CB_MEMO_BYTES=N` arms the governor's cache-pressure rung for
        // every default optimizer in the process (service deployments
        // set it once; unset means unbounded memos, today's behavior).
        let memo_byte_limit = std::env::var("CB_MEMO_BYTES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok());
        Optimizer::with_config(
            catalog,
            OptimizerConfig {
                cost_visited: true,
                search_budget: SearchBudget {
                    nodes: Some(4096),
                    ..SearchBudget::default()
                },
                threads,
                memo_byte_limit,
                ..Default::default()
            },
        )
    }

    /// Builds an optimizer over an explicit configuration, normalized
    /// by [`OptimizerConfig::validated`] (out-of-range knobs are
    /// clamped deterministically, never rejected at runtime).
    pub fn with_config(catalog: &'a Catalog, config: OptimizerConfig) -> Optimizer<'a> {
        Optimizer {
            catalog,
            config: config.validated(),
            check: OnceLock::new(),
        }
    }

    /// This optimizer over the catalog pre-flight `check`, computed
    /// earlier for the same catalog and configuration.
    pub(crate) fn with_catalog_check(self, check: Arc<CatalogCheck>) -> Optimizer<'a> {
        Optimizer {
            check: OnceLock::from(check),
            ..self
        }
    }

    /// The catalog pre-flight, computed on first use.
    pub(crate) fn catalog_check(&self) -> &Arc<CatalogCheck> {
        self.check
            .get_or_init(|| Arc::new(CatalogCheck::of(self.catalog, &self.config)))
    }

    /// Runs Algorithm 1 on `q`. One [`ChaseContext`] is allocated per
    /// optimization, so the chase, backchase (at any thread count) and
    /// plan-cleanup phases all reuse the same memoized chases,
    /// containment verdicts and implication proofs.
    pub fn optimize(&self, q: &Query) -> Result<OptimizeOutcome, OptimizeError> {
        let constraints = self.catalog_check().constraints.clone();
        let mut ctx = ChaseContext::new(constraints, self.config.chase.clone());
        self.optimize_in(&mut ctx, q)
    }

    /// [`Optimizer::optimize`] against a caller-held [`ChaseContext`].
    ///
    /// Phases 1–3 are cost-independent, so repeated optimizations over
    /// the same constraint set (re-optimizing after a statistics refresh,
    /// sweeping data scales, differential testing across seeds) can share
    /// one context and answer the entire chase/backchase from its memos.
    /// The context is checked against this catalog's `all_constraints()`
    /// (and this config's chase budget) on entry and automatically reset
    /// when they differ — verdicts cached under other dependency sets
    /// would be unsound here; the reset is counted in
    /// [`CacheStats::deps_resets`].
    pub fn optimize_in(
        &self,
        ctx: &mut ChaseContext,
        q: &Query,
    ) -> Result<OptimizeOutcome, OptimizeError> {
        let diagnostics = self.preflight(self.catalog_check().report.clone(), q)?;
        self.optimize_checked(ctx, q, diagnostics)
    }

    /// The query's part of the pre-flight, on top of the catalog's
    /// findings `diagnostics`: the query lint and the environment check
    /// (unless the pre-flight is off; deny mode rejects on any error
    /// finding), then the type check. It runs before any chase work, so
    /// deny mode reports *all* findings as one diagnostic batch instead
    /// of stopping at the first type error. Returns the findings so far.
    pub(crate) fn preflight(
        &self,
        mut diagnostics: Report,
        q: &Query,
    ) -> Result<Report, OptimizeError> {
        if self.config.preflight != PreflightMode::Off {
            let analyzer = Analyzer::new(self.catalog);
            diagnostics.merge(analyzer.check_query(q));
            // A malformed CB_FAULTS schedule is an error finding (deny
            // mode refuses to optimize under it); an armed one is a
            // warning, so chaos-run outcomes are labeled as such.
            diagnostics.merge(analyzer.check_environment());
            if self.config.preflight == PreflightMode::Deny && diagnostics.has_errors() {
                return Err(OptimizeError::Rejected {
                    report: diagnostics,
                });
            }
        }
        check_query(&self.catalog.combined_schema(), q)?;
        Ok(diagnostics)
    }

    /// [`Optimizer::optimize_in`] for a query that passed
    /// [`Optimizer::preflight`] with the findings `diagnostics`.
    pub(crate) fn optimize_checked(
        &self,
        ctx: &mut ChaseContext,
        q: &Query,
        mut diagnostics: Report,
    ) -> Result<OptimizeOutcome, OptimizeError> {
        let check = self.catalog_check();
        let termination = check.termination;

        // Guard the context-reuse footgun before asking it anything, and
        // bound its memos as this configuration asks (rung 1).
        ctx.ensure_deps(&check.constraints, &self.config.chase);
        ctx.set_byte_limit(self.config.memo_byte_limit);
        let ctx: &ChaseContext = ctx;
        let sheds_before = ctx.stats().pressure_sheds;

        // Phase 1: chase to the universal plan. The memoized chase crosses
        // the shard failpoints; on a caught panic the memo-free chase,
        // deterministic over the same dependency order, yields the same
        // plan.
        let (chased, phase1_panic) = match catch_unwind(AssertUnwindSafe(|| ctx.chase(q))) {
            Ok(chased) => (chased, None),
            Err(payload) => {
                if cb_chase::faults::is_injected_panic(payload.as_ref()) {
                    cb_chase::faults::note_recovered();
                }
                let chased = cb_chase::chase(q, ctx.deps(), ctx.cfg());
                (chased, Some(panic_message(payload.as_ref())))
            }
        };
        let universal = chased.query.clone();

        // Phase 2: search the subquery lattice — enumerate-then-cost for
        // the phased strategies, a single interleaved branch-and-bound
        // for `CostGuided`.
        let model = CostModel::for_catalog(self.catalog);
        let mut candidates: Vec<PlanChoice> = Vec::new();
        let mut search = SearchCounters::default();
        let mut incumbent_trace: Vec<(Duration, f64)> = Vec::new();
        let search_start = Instant::now();
        let mut governor = ResourceGovernor::new(self.config.search_budget, search_start);
        if let Some(reason) = phase1_panic {
            governor.note_memo_free_chase(reason);
        }
        // Phase 2 runs inside a panic boundary: a panic escaping the
        // search machinery (the failpoint sites inject exactly that) is
        // rung 3 of the governor's ladder, not a crashed tenant thread.
        // Everything written before the panic stays usable — candidates
        // hold only fully verified plans and the memo tables insert
        // only completed verdicts, so partial state is merely *less*,
        // never wrong.
        let search_panic = catch_unwind(AssertUnwindSafe(|| {
            match self.config.strategy {
                SearchStrategy::Exhaustive => {
                    // Only `cost_visited` costs the visited nodes;
                    // without it they are not even collected.
                    let collect = self.config.cost_visited;
                    let out = self.search(
                        ctx,
                        &mut governor,
                        &universal,
                        collect,
                        (&mut ExploreAll, |_| {}),
                        &mut search,
                    );
                    self.cost_phased(
                        ctx,
                        &model,
                        &out.normal_forms,
                        &out.visited,
                        &mut candidates,
                    );
                }
                SearchStrategy::Greedy => {
                    // Prefer removing what is logical-only, per the paper's
                    // "obvious strategy".
                    let prefer: BTreeSet<String> = self
                        .catalog
                        .logical()
                        .roots
                        .keys()
                        .filter(|r| !self.catalog.is_physical_root(r))
                        .cloned()
                        .collect();
                    let plan;
                    (plan, search) = backchase_greedy(ctx, &universal, &prefer);
                    let visited = if self.config.cost_visited {
                        std::slice::from_ref(&universal)
                    } else {
                        &[]
                    };
                    self.cost_phased(ctx, &model, &[plan], visited, &mut candidates);
                }
                SearchStrategy::CostGuided => {
                    // The lattice's structural core: which bindings every
                    // output-preserving removal set keeps, for the
                    // must-remain bound.
                    let mut analysis = MustRemainAnalysis::new(&universal);
                    // Branch-and-bound: cost each equivalence-verified node
                    // as it streams in, explore cheap regions first so the
                    // incumbent best drops early, and cut any branch whose
                    // admissible lower bound already exceeds the incumbent
                    // (the bound is monotone along descent, so nothing below
                    // a cut can be cheaper) — candidates under a cut are
                    // skipped *before* the equivalence checks, so they are
                    // never verified or costed at all.
                    let mut guide = CostGuide {
                        catalog: self.catalog,
                        model: &model,
                        analysis: Mutex::new(&mut analysis),
                        bound: self.config.bound,
                        bound_scale: self.config.bound_scale,
                        candidates: Mutex::default(),
                        incumbent: AtomicU64::new(f64::INFINITY.to_bits()),
                        trace: Mutex::default(),
                        start: search_start,
                    };
                    // The guide accumulates its own candidates as nodes
                    // stream in; no need to clone each visited query.
                    let out = self.search(
                        ctx,
                        &mut governor,
                        &universal,
                        false,
                        (&mut guide, CostGuide::reset),
                        &mut search,
                    );
                    // A worker that panicked while appending has poisoned
                    // these locks; the data under them is append-only and
                    // every element is a complete verified plan, so take
                    // it regardless.
                    candidates.extend(
                        guide
                            .candidates
                            .into_inner()
                            .unwrap_or_else(PoisonError::into_inner),
                    );
                    incumbent_trace = guide
                        .trace
                        .into_inner()
                        .unwrap_or_else(PoisonError::into_inner);
                    // Improvements raced in from several workers: order the
                    // curve by time, keep only the monotone descent (one
                    // worker's curve already is one).
                    incumbent_trace.sort_by_key(|&(elapsed, _)| elapsed);
                    incumbent_trace.dedup_by(|next, prev| next.1 >= prev.1);
                    // Flag the minimality the search did determine (anything
                    // touched by pruning leaves it undetermined).
                    let nf_set: BTreeSet<Query> = out
                        .normal_forms
                        .iter()
                        .map(Query::alpha_normalized)
                        .collect();
                    for c in &mut candidates {
                        if nf_set.contains(&c.raw.alpha_normalized()) {
                            c.minimal = true;
                        }
                    }
                }
            }
        }))
        .err();
        governor.note_sheds(ctx.stats().pressure_sheds - sheds_before);
        if let Some(payload) = search_panic {
            // Rung 3: the search machinery itself died. Injected panics
            // (the chaos harness's bread and butter) are acknowledged as
            // recovered; genuine ones are degraded identically but keep
            // their message in the trace, so a real bug is never silent.
            if cb_chase::faults::is_injected_panic(payload.as_ref()) {
                cb_chase::faults::note_recovered();
            }
            governor.note_universal_fallback(panic_message(payload.as_ref()));
            search.complete = false;
        }
        let degradations = governor.into_degradations();

        // Deduplicate by final plan, cheapest first; ties broken by the
        // canonical plan key — first of the cleaned plan, then of the raw
        // subquery it came from — so the ranking (and therefore the best
        // plan) is a function of the candidate *set*, never of the order
        // workers happened to verify them in. Deliberately not a key:
        // the `minimal` flag, which pruning leaves undetermined on
        // different nodes in different runs. Every `cost` here is finite
        // and nonnegative — `cost_one` enforces that boundary — so
        // `total_cmp` is a plain numeric order with no NaN placement
        // surprises.
        // Each candidate's canonical keys are computed once, not per
        // comparison.
        let mut ranked: Vec<(RankKey, PlanChoice)> = candidates
            .into_iter()
            .map(|c| (RankKey::of(&c), c))
            .collect();
        ranked.sort_by(|(a, _), (b, _)| a.cmp(b));
        ranked.dedup_by(|(a, _), (b, _)| a.query == b.query);
        let mut candidates: Vec<PlanChoice> = ranked.into_iter().map(|(_, c)| c).collect();

        // An expired budget — or a rung-3 abort — may stop the search
        // before any *physical* subquery was reached; the universal
        // plan — equivalent by construction — is then the anytime
        // incumbent of last resort.
        let aborted = degradations
            .iter()
            .any(|d| matches!(d, Degradation::UniversalFallback { .. }));
        if candidates.is_empty() && (search.budget_expired || aborted) {
            candidates.push(PlanChoice {
                query: universal.clone(),
                raw: universal.clone(),
                // Informational only (the plan is the sole candidate);
                // saturate rather than let a poisoned estimate through.
                cost: model.checked_plan_cost(&universal).unwrap_or(f64::MAX),
                minimal: false,
            });
        }

        let best = candidates
            .first()
            .cloned()
            .ok_or_else(|| OptimizeError::NoPhysicalPlan {
                universal: universal.to_string(),
            })?;
        let top_k = candidates
            .iter()
            .take(self.config.k_best.max(1))
            .cloned()
            .collect();

        // Verify the dataflow of every plan the optimizer produced, as
        // the engine will actually run it (both compile modes). A finding
        // here is a compiler bug surfacing before execution.
        if self.config.preflight != PreflightMode::Off {
            let analyzer = Analyzer::new(self.catalog);
            for (rank, c) in candidates.iter().enumerate() {
                diagnostics
                    .merge(analyzer.check_pipelines(&c.query, &format!("plan #{}", rank + 1)));
            }
            if self.config.preflight == PreflightMode::Deny && diagnostics.has_errors() {
                return Err(OptimizeError::Rejected {
                    report: diagnostics,
                });
            }
        }

        Ok(OptimizeOutcome {
            input: q.clone(),
            universal,
            chase_steps: chased.steps,
            candidates,
            best,
            top_k,
            complete: chased.complete && search.complete,
            search,
            incumbent_trace,
            cache: ctx.stats(),
            termination,
            diagnostics,
            degradations,
        })
    }

    /// Phase 2's walk over `universal` with the configured workers, its
    /// counters recorded in `counters` as soon as it returns. Rung 2:
    /// when every worker died with work left, `reset` discards what
    /// `visitor` gathered and the same walk reruns at one worker, which
    /// hits no `parallel::*` failpoint, under the wall clock the attempt
    /// left unspent; `counters` then holds the rerun's, with the first
    /// attempt's worker deaths.
    fn search<V: SearchVisitor>(
        &self,
        ctx: &ChaseContext,
        governor: &mut ResourceGovernor,
        universal: &Query,
        collect: bool,
        (visitor, reset): (&mut V, impl FnOnce(&mut V)),
        counters: &mut SearchCounters,
    ) -> SearchOutcome {
        let walk = |threads: usize, budget: SearchBudget, visitor: &V| {
            PlanSearch::new(universal)
                .with_threads(threads)
                .with_budget(budget)
                .with_collect_visited(collect)
                .run(ctx, visitor)
        };
        let out = walk(self.config.threads, self.config.search_budget, visitor);
        *counters = out.counters;
        if !governor.should_fall_back(counters) {
            return out;
        }
        let workers_died = counters.workers_died;
        governor.note_sequential_fallback(workers_died);
        reset(visitor);
        // The abandoned attempt's visits go with what it gathered; its
        // worker deaths stay, even if the rerun panics.
        *counters = SearchCounters {
            workers_died,
            ..SearchCounters::default()
        };
        let rerun = walk(1, governor.remaining_budget(), visitor);
        *counters = SearchCounters {
            workers_died,
            ..rerun.counters
        };
        rerun
    }

    /// The phased "enumerate, then cost" step 3 shared by `Exhaustive`
    /// and `Greedy`: normal forms first (flagged minimal), then every
    /// other physical subquery in `visited` — which the strategy fills
    /// only under `cost_visited`.
    fn cost_phased(
        &self,
        ctx: &ChaseContext,
        model: &CostModel<'_>,
        normal_forms: &[Query],
        visited: &[Query],
        candidates: &mut Vec<PlanChoice>,
    ) {
        for nf in normal_forms {
            if let Some(choice) = cost_one(self.catalog, model, ctx, nf, true) {
                candidates.push(choice);
            }
        }
        let nf_set: BTreeSet<Query> = normal_forms.iter().map(Query::alpha_normalized).collect();
        for v in visited {
            if !nf_set.contains(&v.alpha_normalized()) {
                if let Some(choice) = cost_one(self.catalog, model, ctx, v, false) {
                    candidates.push(choice);
                }
            }
        }
    }
}

/// A candidate's position in the final ranking: cost, then the shape
/// and canonical form of the cleaned plan, then of the raw subquery.
struct RankKey {
    cost: f64,
    query_shape: (usize, usize),
    query: Query,
    raw_shape: (usize, usize),
    raw: Query,
}

impl RankKey {
    fn of(c: &PlanChoice) -> RankKey {
        RankKey {
            cost: c.cost,
            query_shape: (c.query.from.len(), c.query.size()),
            query: c.query.alpha_normalized(),
            raw_shape: (c.raw.from.len(), c.raw.size()),
            raw: c.raw.alpha_normalized(),
        }
    }

    fn cmp(&self, other: &RankKey) -> std::cmp::Ordering {
        self.cost
            .total_cmp(&other.cost)
            .then_with(|| self.query_shape.cmp(&other.query_shape))
            .then_with(|| self.query.cmp(&other.query))
            .then_with(|| self.raw_shape.cmp(&other.raw_shape))
            .then_with(|| self.raw.cmp(&other.raw))
    }
}

/// Best-effort text of a caught panic payload, for the degradation
/// trace (`panic!` with a literal gives `&str`, with a format string
/// gives `String`; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}

/// Step 3 for one plan: conventional optimization (condition pruning,
/// guard-elimination cleanup, binding reordering) + costing. `None` for
/// non-physical subqueries, which cannot execute.
fn cost_one(
    catalog: &Catalog,
    model: &CostModel<'_>,
    ctx: &ChaseContext,
    raw: &Query,
    minimal: bool,
) -> Option<PlanChoice> {
    if !catalog.is_physical_query(raw) {
        return None;
    }
    let pruned = ctx.prune_implied_conditions(raw);
    let cleaned = cleanup_plan(catalog, &pruned);
    let ordered = reorder_bindings(&cleaned, model);
    // The cost-domain boundary: a non-finite estimate (poisoned
    // statistics) would silently mis-sort in the k-best `total_cmp`
    // ranking and corrupt the bit-ordered atomic incumbent, so such a
    // candidate never becomes a choice at all.
    let cost = model.checked_plan_cost(&ordered).ok()?;
    Some(PlanChoice {
        query: ordered,
        raw: raw.clone(),
        cost,
        minimal,
    })
}

/// The branch-and-bound steering of [`SearchStrategy::CostGuided`]:
/// best-first exploration by estimated plan cost, each verified physical
/// node costed on arrival (updating the incumbent), and both the
/// pre-verification gate and the visit verdict cut anything whose
/// admissible lower bound exceeds the incumbent — by default the summed
/// must-remain bound ([`CostModel::lattice_lower_bound`] over the shared
/// [`MustRemainAnalysis`]), selectable via [`OptimizerConfig::bound`].
///
/// One guide is shared by every worker of the walk. The incumbent is an
/// `AtomicU64` over the cost's bit pattern — for non-negative floats the
/// bit order is the numeric order, so `fetch_min` publishes one worker's
/// improvement to every other worker's gate without a lock. Candidates
/// and the incumbent-vs-time trace go behind mutexes (appends, off the
/// hot path); the must-remain analysis behind its own (its memo is a
/// shared accelerator, held only inside `bound_of`).
///
/// Pruning uses a *strict* comparison against the incumbent, and the
/// final ranking breaks cost ties on canonical plan keys — so every
/// candidate that could still be (or tie) the best survives every
/// schedule, and the best plan is worker-count-independent even though
/// the visit order and the pruned-node counts are not.
struct CostGuide<'a, 'b> {
    catalog: &'a Catalog,
    model: &'b CostModel<'a>,
    analysis: Mutex<&'b mut MustRemainAnalysis>,
    bound: CostBound,
    bound_scale: f64,
    candidates: Mutex<Vec<PlanChoice>>,
    incumbent: AtomicU64,
    trace: Mutex<Vec<(Duration, f64)>>,
    start: Instant,
}

impl CostGuide<'_, '_> {
    /// Forgets every candidate, the incumbent and its trace (the
    /// analysis memo stays: it is a cache).
    fn reset(&mut self) {
        self.candidates = Mutex::default();
        self.incumbent = AtomicU64::new(f64::INFINITY.to_bits());
        self.trace = Mutex::default();
    }

    fn incumbent(&self) -> f64 {
        f64::from_bits(self.incumbent.load(Ordering::SeqCst))
    }

    fn publish(&self, cost: f64) {
        // `fetch_min` over bit patterns is only a numeric min for finite
        // nonnegative floats (NaN/negative bit patterns mis-order).
        // `cost_one` already refuses such costs, so this is a second
        // line of defense, not a live path.
        debug_assert!(cost.is_finite() && cost >= 0.0, "incumbent {cost}");
        if !(cost.is_finite() && cost >= 0.0) {
            return;
        }
        let prev = self.incumbent.fetch_min(cost.to_bits(), Ordering::SeqCst);
        if cost.to_bits() < prev {
            // A sibling worker's panic may have poisoned the lock; the
            // vec under it is append-only and re-sorted at the end, so
            // it stays usable — don't let the poison cascade.
            self.trace
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((self.start.elapsed(), cost));
        }
    }

    fn bound_of(&self, q: &Query, removed: &BTreeSet<String>) -> f64 {
        let b = match self.bound {
            CostBound::MustRemain => {
                // The analysis is a memo accelerator: entries are only
                // inserted whole, so a poisoned lock still guards a
                // consistent table.
                let mut analysis = self.analysis.lock().unwrap_or_else(PoisonError::into_inner);
                self.model.lattice_lower_bound(q, removed, &mut analysis)
            }
            CostBound::AccessFloor => self.model.lower_bound(q),
        };
        b * self.bound_scale
    }
}

impl SearchVisitor for CostGuide<'_, '_> {
    fn visit(&self, ctx: &ChaseContext, q: &Query, removed: &BTreeSet<String>) -> Visit {
        // An admissible bound under-estimates `q` itself too: nothing to
        // gain from costing or descending once it exceeds the incumbent.
        if self.bound_of(q, removed) > self.incumbent() {
            return Visit::Prune;
        }
        if let Some(choice) = cost_one(self.catalog, self.model, ctx, q, false) {
            self.publish(choice.cost);
            self.candidates
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(choice);
        }
        Visit::Explore
    }

    fn admit(&self, q: &Query, removed: &BTreeSet<String>) -> bool {
        // The bound is monotone along lattice descent, so exceeding the
        // incumbent here rules out the candidate's whole sublattice —
        // skip the equivalence checks entirely.
        self.bound_of(q, removed) <= self.incumbent()
    }

    fn priority(&self, q: &Query, _removed: &BTreeSet<String>) -> f64 {
        // Best-first by the estimated cost of the raw subquery (plans and
        // logical subqueries alike): cheap regions are explored first, so
        // the incumbent drops early and the bound starts biting.
        self.model.plan_cost(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_catalog::scenarios::{projdept, relational_indexes, relational_views};

    #[test]
    fn projdept_end_to_end() {
        let mut cat = projdept::catalog();
        projdept::stats_for(&mut cat, 100, 10, 20);
        let out = Optimizer::new(&cat).optimize(&projdept::query()).unwrap();
        assert!(out.complete);
        assert!(!out.candidates.is_empty());
        // With these statistics the secondary-index plan (P3) wins: a
        // single non-failing lookup on SI.
        let best = out.best.query.to_string();
        assert!(best.contains("SI{\"CitiBank\"}"), "best = {best}");
        // P2 and P4 shapes are among the candidates.
        assert!(out
            .candidates
            .iter()
            .any(|c| c.raw.from.len() == 1 && c.raw.to_string().contains("from Proj")));
        assert!(out
            .candidates
            .iter()
            .any(|c| c.raw.from.len() == 1 && c.raw.to_string().contains("from JI")));
        // Costs are sorted.
        for w in out.candidates.windows(2) {
            assert!(w[0].cost <= w[1].cost);
        }
    }

    #[test]
    fn index_only_plan_wins_when_selective() {
        let mut cat = relational_indexes::catalog();
        relational_indexes::stats_for(&mut cat, 10_000, 1000, 1000);
        let out = Optimizer::new(&cat)
            .optimize(&relational_indexes::query())
            .unwrap();
        // The best plan avoids scanning R: it uses SA and/or SB.
        let best = &out.best.query;
        assert!(
            !best.from.iter().any(|b| b.src.to_string() == "R"),
            "best should not scan R: {best}"
        );
        let s = best.to_string();
        assert!(s.contains("SA") || s.contains("SB"), "best = {s}");
    }

    #[test]
    fn view_plan_wins_when_view_small() {
        let mut cat = relational_views::catalog();
        // Tiny view over big relations.
        relational_views::stats_for(&mut cat, 10_000, 10_000, 10);
        let out = Optimizer::new(&cat)
            .optimize(&relational_views::query())
            .unwrap();
        let s = out.best.query.to_string();
        assert!(s.contains('V'), "best should use the view: {s}");
        // The navigation form uses the indexes, not base scans.
        assert!(
            !out.best.query.from.iter().any(|b| matches!(
                b.src,
                pcql::Path::Root(ref r) if r == "R" || r == "S"
            )),
            "best = {s}"
        );
    }

    #[test]
    fn base_join_wins_when_view_useless() {
        let mut cat = relational_views::catalog();
        // The "view" is as large as the join itself and the relations are
        // small: scanning the base tables is competitive. Make the view
        // enormous to force the base plan.
        relational_views::stats_for(&mut cat, 50, 50, 1_000_000);
        let out = Optimizer::new(&cat)
            .optimize(&relational_views::query())
            .unwrap();
        let s = out.best.query.to_string();
        assert!(
            !s.contains("from V"),
            "best should avoid the view scan: {s}"
        );
    }

    #[test]
    fn greedy_strategy_returns_a_sound_plan_fast() {
        let mut cat = projdept::catalog();
        projdept::stats_for(&mut cat, 100, 10, 20);
        let config = OptimizerConfig {
            strategy: SearchStrategy::Greedy,
            cost_visited: false,
            ..Default::default()
        };
        let out = Optimizer::with_config(&cat, config)
            .optimize(&projdept::query())
            .unwrap();
        // Exactly one plan, physical, minimal.
        assert_eq!(out.candidates.len(), 1);
        assert!(
            cat.is_physical_query(&out.best.raw),
            "plan: {}",
            out.best.raw
        );
        // The exhaustive strategy can only be equal or better on cost.
        let full = Optimizer::new(&cat).optimize(&projdept::query()).unwrap();
        assert!(full.best.cost <= out.best.cost + 1e-9);
    }

    #[test]
    fn greedy_counts_every_candidate_it_verifies() {
        let mut cat = projdept::catalog();
        projdept::stats_for(&mut cat, 100, 10, 20);
        let config = OptimizerConfig {
            strategy: SearchStrategy::Greedy,
            cost_visited: false,
            ..Default::default()
        };
        let out = Optimizer::with_config(&cat, config)
            .optimize(&projdept::query())
            .unwrap();
        // The descent's removal attempts, each a containment proof: a
        // memo-free context counts every proof it is asked as a miss.
        let off = ChaseContext::without_memo(cat.all_constraints(), ChaseConfig::default());
        let prefer: BTreeSet<String> = cat
            .logical()
            .roots
            .keys()
            .filter(|r| !cat.is_physical_root(r))
            .cloned()
            .collect();
        let before = off.stats().containment_misses;
        let (plan, counters) = backchase_greedy(&off, &out.universal, &prefer);
        let attempts = (off.stats().containment_misses - before) as usize;
        assert_eq!(plan, out.best.raw);
        assert!(attempts > 1, "{attempts}");
        assert_eq!(counters, out.search);
        assert!(out.search.visited_count > attempts, "{:?}", out.search);
        assert!(out.search.complete);
    }

    #[test]
    fn cost_guided_matches_exhaustive_best_cost_with_fewer_nodes() {
        let mut cat = projdept::catalog();
        projdept::stats_for(&mut cat, 100, 10, 20);
        let q = projdept::query();
        let full = Optimizer::new(&cat).optimize(&q).unwrap();
        let config = OptimizerConfig {
            strategy: SearchStrategy::CostGuided,
            ..Default::default()
        };
        let guided = Optimizer::with_config(&cat, config).optimize(&q).unwrap();
        assert!(
            (guided.best.cost - full.best.cost).abs() < 1e-9,
            "guided {} vs exhaustive {}",
            guided.best.cost,
            full.best.cost
        );
        assert!(guided.complete);
        // Strictly fewer subqueries costed, and the savings are reported.
        assert!(
            guided.search.visited_count < full.search.visited_count,
            "guided visited {} vs exhaustive {}",
            guided.search.visited_count,
            full.search.visited_count
        );
        assert!(guided.search.pruned() > 0);
        assert_eq!(full.search.pruned(), 0);
    }

    #[test]
    fn stale_context_is_reset_not_reused() {
        // Reusing one context across catalogs with different constraint
        // sets must reset it (and say so), not serve unsound memos.
        let mut cat = projdept::catalog();
        projdept::stats_for(&mut cat, 100, 10, 20);
        let q = projdept::query();
        let mut ctx = ChaseContext::new(cat.all_constraints(), ChaseConfig::default());
        let first = Optimizer::new(&cat).optimize_in(&mut ctx, &q).unwrap();
        assert_eq!(first.cache.deps_resets, 0);

        let bare = cat.without_semantic_constraints();
        let reused = Optimizer::new(&bare).optimize_in(&mut ctx, &q).unwrap();
        assert_eq!(reused.cache.deps_resets, 1);
        // Identical to a fresh-context optimization under the bare catalog.
        let fresh = Optimizer::new(&bare).optimize(&q).unwrap();
        assert_eq!(reused.best.query, fresh.best.query);
        assert_eq!(reused.candidates.len(), fresh.candidates.len());
    }

    #[test]
    fn preflight_warn_carries_diagnostics_without_failing() {
        let mut cat = projdept::catalog();
        projdept::stats_for(&mut cat, 100, 10, 20);
        let out = Optimizer::new(&cat).optimize(&projdept::query()).unwrap();
        // projdept's constraint set is Unknown: the lint carries the
        // cycle evidence (warnings), but nothing reaches error severity
        // and the optimization succeeds.
        assert_eq!(out.termination, TerminationVerdict::Unknown);
        assert!(!out.diagnostics.is_empty());
        assert!(!out.diagnostics.has_errors(), "{}", out.diagnostics);
    }

    #[test]
    fn preflight_deny_rejects_with_the_full_report() {
        let cat = projdept::catalog();
        let config = OptimizerConfig {
            preflight: PreflightMode::Deny,
            ..Default::default()
        };
        let q = pcql::parser::parse_query("select struct(X = x.X) from Nowhere x").unwrap();
        match Optimizer::with_config(&cat, config).optimize(&q) {
            Err(OptimizeError::Rejected { report }) => {
                assert!(report.has_errors());
                assert!(report
                    .errors()
                    .any(|d| d.code == cb_analyze::codes::UNKNOWN_ROOT));
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        // The same malformed query under Warn falls through to the type
        // checker, as before.
        let warn = OptimizerConfig::default();
        assert!(matches!(
            Optimizer::with_config(&cat, warn).optimize(&q),
            Err(OptimizeError::Type(_))
        ));
    }

    #[test]
    fn preflight_off_still_reports_termination() {
        let mut cat = projdept::catalog();
        projdept::stats_for(&mut cat, 100, 10, 20);
        let config = OptimizerConfig {
            preflight: PreflightMode::Off,
            ..Default::default()
        };
        let out = Optimizer::with_config(&cat, config)
            .optimize(&projdept::query())
            .unwrap();
        assert_eq!(out.termination, TerminationVerdict::Unknown);
        assert!(out.diagnostics.is_empty());
    }

    #[test]
    fn every_candidate_pipeline_verifies_clean() {
        for (name, mut cat, q) in [
            ("projdept", projdept::catalog(), projdept::query()),
            (
                "relational_indexes",
                relational_indexes::catalog(),
                relational_indexes::query(),
            ),
            (
                "relational_views",
                relational_views::catalog(),
                relational_views::query(),
            ),
        ] {
            match name {
                "projdept" => projdept::stats_for(&mut cat, 100, 10, 20),
                "relational_indexes" => relational_indexes::stats_for(&mut cat, 1000, 100, 100),
                _ => relational_views::stats_for(&mut cat, 1000, 1000, 50),
            }
            let out = Optimizer::new(&cat).optimize(&q).unwrap();
            // The pre-flight already verified every candidate's compiled
            // pipeline; no error-severity dataflow finding may survive.
            assert!(!out.diagnostics.has_errors(), "{name}: {}", out.diagnostics);
        }
    }

    fn exhaustive_config(threads: usize) -> OptimizerConfig {
        OptimizerConfig {
            cost_visited: true,
            threads,
            ..Default::default()
        }
    }

    /// Every `Exhaustive` walk — at one worker, at two, and the rung-2
    /// one-worker rerun after every worker died — collects its visited
    /// nodes exactly when `cost_visited` asks: the candidates are then
    /// every visited physical subquery, and otherwise exactly the costed
    /// normal forms.
    #[test]
    fn exhaustive_collects_the_visited_nodes_only_under_cost_visited() {
        let mut cat = projdept::catalog();
        projdept::stats_for(&mut cat, 100, 10, 20);
        let q = projdept::query();
        let ctx = ChaseContext::new(cat.all_constraints(), ChaseConfig::default());
        let universal = ctx.chase(&q).query;
        let bc = cb_chase::backchase(&ctx, &universal);
        let physical = |qs: &[Query]| -> BTreeSet<Query> {
            qs.iter()
                .filter(|q| cat.is_physical_query(q))
                .map(Query::alpha_normalized)
                .collect()
        };
        let (visited, normal_forms) = (physical(&bc.visited), physical(&bc.normal_forms));
        assert!(visited.len() > normal_forms.len(), "{visited:?}");
        for (threads, faults) in [(1, None), (2, None), (2, Some("parallel::spawn=panic"))] {
            for cost_visited in [true, false] {
                let desc = format!("{threads} threads, {faults:?}, cost_visited {cost_visited}");
                let config = OptimizerConfig {
                    cost_visited,
                    ..exhaustive_config(threads)
                };
                let out = {
                    let _guard =
                        faults.map(|f| cb_chase::faults::ScopedFaults::install(f).unwrap());
                    Optimizer::with_config(&cat, config).optimize(&q).unwrap()
                };
                assert_eq!(
                    out.degradations
                        .iter()
                        .any(|d| matches!(d, Degradation::SequentialFallback { .. })),
                    faults.is_some(),
                    "{desc}: {:?}",
                    out.degradations
                );
                let raws: BTreeSet<Query> = out
                    .candidates
                    .iter()
                    .map(|c| c.raw.alpha_normalized())
                    .collect();
                assert_eq!(raws.len(), out.candidates.len(), "{desc}");
                if cost_visited {
                    assert_eq!(raws, visited, "{desc}");
                } else {
                    assert_eq!(raws, normal_forms, "{desc}");
                    assert!(out.candidates.iter().all(|c| c.minimal), "{desc}");
                }
            }
        }
    }

    #[test]
    fn all_workers_dying_degrades_to_the_sequential_search() {
        let mut cat = projdept::catalog();
        projdept::stats_for(&mut cat, 100, 10, 20);
        let q = projdept::query();
        let faulty = {
            // Every spawning worker dies instantly: the parallel attempt
            // cannot finish, and rung 2 reruns the walk sequentially.
            let _guard = cb_chase::faults::ScopedFaults::install("parallel::spawn=panic").unwrap();
            let out = Optimizer::with_config(&cat, exhaustive_config(4))
                .optimize(&q)
                .unwrap();
            let fs = cb_chase::faults::stats();
            assert_eq!(fs.injected, fs.acknowledged(), "{fs:?}");
            assert!(fs.injected >= 4, "{fs:?}");
            out
        };
        assert_eq!(faulty.search.workers_died, 4);
        assert!(
            faulty
                .degradations
                .iter()
                .any(|d| matches!(d, Degradation::SequentialFallback { workers_died: 4 })),
            "{:?}",
            faulty.degradations
        );
        // The degraded answer is exactly the sequential one.
        let clean = Optimizer::with_config(&cat, exhaustive_config(1))
            .optimize(&q)
            .unwrap();
        assert_eq!(faulty.best.query, clean.best.query);
        assert!((faulty.best.cost - clean.best.cost).abs() < 1e-9);
        assert_eq!(faulty.candidates.len(), clean.candidates.len());
        assert!(faulty.complete);
        // EXPLAIN tells the story.
        let text = crate::explain::explain(&faulty);
        assert!(text.contains("reran sequentially"), "{text}");
        assert!(text.contains("worker(s) died"), "{text}");
        // The pre-flight flagged the armed schedule (CB040): a chaos
        // outcome is never mistaken for a clean one.
        assert!(
            faulty
                .diagnostics
                .diagnostics
                .iter()
                .any(|d| d.code == cb_analyze::codes::FAULT_SPEC),
            "{}",
            faulty.diagnostics
        );
    }

    #[test]
    fn a_panic_escaping_the_sequential_search_yields_the_universal_plan() {
        let mut cat = projdept::catalog();
        projdept::stats_for(&mut cat, 100, 10, 20);
        let q = projdept::query();
        // Every containment proof panics: the sequential phase-2 search
        // dies on its first verification, and rung 3 answers with the
        // verified universal plan rather than crashing the tenant.
        let _guard =
            cb_chase::faults::ScopedFaults::install("context::contained_in=panic").unwrap();
        let out = Optimizer::with_config(&cat, exhaustive_config(1))
            .optimize(&q)
            .unwrap();
        let fs = cb_chase::faults::stats();
        assert_eq!(fs.injected, fs.acknowledged(), "{fs:?}");
        assert!(!out.complete);
        assert!(
            out.degradations.iter().any(|d| matches!(
                d,
                Degradation::UniversalFallback { reason }
                    if reason.contains("cb-fault")
            )),
            "{:?}",
            out.degradations
        );
        assert_eq!(out.best.raw, out.universal);
        let text = crate::explain::explain(&out);
        assert!(text.contains("phase-2 search aborted"), "{text}");
    }

    /// The whole ladder: every worker dies at spawn (rung 2), then the
    /// one-worker rerun dies on its first proof (rung 3). The outcome
    /// still counts the workers the first attempt lost.
    #[test]
    fn a_panicking_rerun_still_reports_the_workers_that_died() {
        let mut cat = projdept::catalog();
        projdept::stats_for(&mut cat, 100, 10, 20);
        let q = projdept::query();
        let _guard = cb_chase::faults::ScopedFaults::install(
            "parallel::spawn=panic;context::contained_in=panic",
        )
        .unwrap();
        let out = Optimizer::with_config(&cat, exhaustive_config(4))
            .optimize(&q)
            .unwrap();
        let fs = cb_chase::faults::stats();
        assert_eq!(fs.injected, fs.acknowledged(), "{fs:?}");
        assert_eq!(out.search.workers_died, 4);
        assert!(
            matches!(
                out.degradations.as_slice(),
                [
                    Degradation::SequentialFallback { workers_died: 4 },
                    Degradation::UniversalFallback { .. }
                ]
            ),
            "{:?}",
            out.degradations
        );
        assert_eq!(out.best.raw, out.universal);
    }

    #[test]
    fn memory_pressure_sheds_are_traced_and_harmless() {
        let mut cat = projdept::catalog();
        projdept::stats_for(&mut cat, 100, 10, 20);
        let q = projdept::query();
        for threads in [1, 2] {
            let unlimited = Optimizer::with_config(&cat, exhaustive_config(threads))
                .optimize(&q)
                .unwrap();
            let squeezed = Optimizer::with_config(
                &cat,
                OptimizerConfig {
                    // A cap far below one memo entry: every shard sheds on
                    // every insert (rung 1), and the search just re-proves.
                    memo_byte_limit: Some(64),
                    ..exhaustive_config(threads)
                },
            )
            .optimize(&q)
            .unwrap();
            assert!(squeezed.cache.pressure_sheds > 0, "{:?}", squeezed.cache);
            assert!(
                squeezed.degradations.iter().any(|d| matches!(
                    d,
                    Degradation::ShardCachesShed { sheds } if *sheds > 0
                )),
                "@ {threads} threads: {:?}",
                squeezed.degradations
            );
            assert_eq!(squeezed.best.query, unlimited.best.query);
            assert_eq!(squeezed.candidates.len(), unlimited.candidates.len());
        }
    }

    #[test]
    fn out_of_range_config_is_clamped_deterministically() {
        let cfg = OptimizerConfig {
            threads: 0,
            k_best: 0,
            bound_scale: f64::NAN,
            ..Default::default()
        }
        .validated();
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.k_best, 1);
        assert_eq!(cfg.bound_scale, 1.0);
        assert_eq!(
            OptimizerConfig {
                threads: 100_000,
                ..Default::default()
            }
            .validated()
            .threads,
            OptimizerConfig::MAX_THREADS
        );

        // End to end: `threads: 0` behaves exactly as the sequential
        // search, and `k_best: 0` still retains the winner.
        let mut cat = projdept::catalog();
        projdept::stats_for(&mut cat, 100, 10, 20);
        let q = projdept::query();
        let zero = Optimizer::with_config(
            &cat,
            OptimizerConfig {
                threads: 0,
                k_best: 0,
                ..exhaustive_config(1)
            },
        )
        .optimize(&q)
        .unwrap();
        let one = Optimizer::with_config(&cat, exhaustive_config(1))
            .optimize(&q)
            .unwrap();
        assert_eq!(zero.best.query, one.best.query);
        assert_eq!(zero.candidates.len(), one.candidates.len());
        assert_eq!(zero.top_k.len(), 1);
    }

    #[test]
    fn unknown_query_is_a_type_error() {
        let cat = projdept::catalog();
        let q = pcql::parser::parse_query("select struct(X = x.X) from Nowhere x").unwrap();
        assert!(matches!(
            Optimizer::new(&cat).optimize(&q),
            Err(OptimizeError::Type(_))
        ));
    }

    #[test]
    fn logical_only_catalog_has_no_physical_plan() {
        // A catalog whose physical schema is empty cannot produce plans.
        let mut cat = Catalog::new();
        cat.add_logical_relation("L", [("X", pcql::Type::Int)]);
        let q = pcql::parser::parse_query("select struct(X = l.X) from L l").unwrap();
        assert!(matches!(
            Optimizer::new(&cat).optimize(&q),
            Err(OptimizeError::NoPhysicalPlan { .. })
        ));
    }
}
