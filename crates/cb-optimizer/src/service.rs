//! The optimizer as a long-lived service.
//!
//! [`PlanService`] is the front end the ROADMAP's "optimizer-as-a-
//! service" item asks for: one value owning the catalog, a long-lived
//! memoized chase core, and a bounded cache of prepared plans. Where a
//! bare [`Optimizer`] treats every `optimize` call as a cold start, the
//! service amortizes across calls on two levels:
//!
//! * **Chase memos** — every preparation runs through one shared
//!   [`ChaseContext`], so phase 1, the backchase's verification traffic
//!   and plan cleanup all reuse earlier chases, containment verdicts and
//!   implication proofs. The verdict memos key on constant-abstracted
//!   forms (constants the catalog's dependencies do not mention become
//!   placeholders — sound, since the chase treats constants as
//!   uninterpreted symbols), so a query that differs from an earlier one
//!   only in a constant misses the plan cache but re-proves nothing.
//!   Chase states stay constant-exact, so every plan carries the
//!   caller's own constants. (A parallel phase 2 still builds its sharded
//!   [`cb_chase::SharedChaseContext`] twin per search, as always.)
//! * **Prepared plans** — the full [`OptimizeOutcome`] plus its
//!   serialized [`PlanRepr`], keyed by *alpha-normalized query* ×
//!   *canonical catalog fingerprint* × *cost-model fingerprint*. A hit
//!   returns the plan without any phase-2 search at all
//!   ([`Prepared::nodes_visited`] is 0 — the property E21 measures).
//!
//! The key is exactly as strong as the things a plan depends on:
//!
//! * the query, up to bound-variable renaming ([`Query::alpha_normalized`]);
//! * the catalog's constraint theory — via the **order-insensitive**
//!   canonical dependency fingerprint ([`ChaseContext::fingerprint_of`]),
//!   so a reordered-but-identical catalog neither resets the chase core
//!   nor misses the cache — plus both schema signatures;
//! * the statistics the cost model ranks by ([`CostModel::fingerprint`]) —
//!   a stats refresh changes plan choice, so it must miss.
//!
//! Catalog hot-swap ([`PlanService::swap_catalog`]) recomputes both
//! fingerprints, funnels the chase core through the existing
//! [`ChaseContext::ensure_deps`] reset path, and drops every cache entry
//! the new fingerprints orphan (counted as invalidations). A plan can
//! therefore never be served across a `deps_resets` boundary: any swap
//! that resets the core also changes the catalog fingerprint every
//! cached key embeds.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use cb_catalog::Catalog;
use cb_chase::{CacheStats, ChaseContext};
use pcql::query::Query;

use crate::cost::CostModel;
use crate::optimizer::{OptimizeError, OptimizeOutcome, Optimizer, OptimizerConfig};
use crate::plan_repr::PlanRepr;

/// Cache key for one prepared plan. Everything plan choice depends on,
/// nothing it doesn't.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    /// The query, alpha-normalized: `from R r` and `from R x` are the
    /// same preparation.
    query: Query,
    /// [`PlanService::catalog_fingerprint`] at preparation time.
    catalog_fp: u64,
    /// [`CostModel::fingerprint`] at preparation time.
    cost_fp: u64,
}

/// A cached preparation: the outcome and its serialized form.
#[derive(Debug, Clone)]
pub struct PreparedPlan {
    /// The full optimization outcome (EXPLAIN, top-k ladder, counters).
    pub outcome: OptimizeOutcome,
    /// The versioned serialization of the outcome, built once at
    /// preparation time — serving it is free.
    pub repr: PlanRepr,
}

/// What one [`PlanService::prepare`] call returns.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The plan (shared with the cache — cloning is refcounting).
    pub plan: Arc<PreparedPlan>,
    /// Whether this call was served from the cache.
    pub cache_hit: bool,
    /// Phase-2 lattice nodes *this call* verified: 0 on a hit (the
    /// whole search was skipped), the outcome's count on a miss.
    pub nodes_visited: usize,
}

/// Hit/miss/invalidation accounting for the service, in the same
/// counters-not-logs style as [`CacheStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Preparations served from the plan cache.
    pub hits: u64,
    /// Preparations that ran the optimizer.
    pub misses: u64,
    /// Cached plans dropped because a catalog or statistics swap
    /// orphaned their fingerprints.
    pub invalidations: u64,
    /// Cached plans evicted FIFO by the size bound.
    pub evictions: u64,
    /// [`PlanService::swap_catalog`] calls.
    pub catalog_swaps: u64,
}

impl ServiceStats {
    /// Hit rate over all preparations (0.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The prepared-plan service. See the module docs for the design.
pub struct PlanService {
    catalog: Catalog,
    config: OptimizerConfig,
    /// The long-lived memoized chase core every preparation runs in.
    ctx: ChaseContext,
    cache: HashMap<PlanKey, Arc<PreparedPlan>>,
    /// FIFO insertion order for eviction, mirroring the chase memos'
    /// `insert_bounded` discipline.
    order: VecDeque<PlanKey>,
    /// Max cached plans; 0 means unbounded (the [`cb_chase`] `memo_cap`
    /// convention).
    cache_cap: usize,
    stats: ServiceStats,
    catalog_fp: u64,
    cost_fp: u64,
}

impl PlanService {
    /// A service over `catalog` with the given optimizer configuration.
    /// Use an explicit config (not [`Optimizer::new`]'s env-derived one)
    /// when reproducibility matters — snapshots, tests.
    pub fn new(catalog: Catalog, config: OptimizerConfig) -> PlanService {
        let ctx = ChaseContext::new(catalog.all_constraints(), config.chase.clone());
        let catalog_fp = PlanService::catalog_fingerprint(&catalog, &config);
        let cost_fp = CostModel::for_catalog(&catalog).fingerprint();
        PlanService {
            catalog,
            config,
            ctx,
            cache: HashMap::new(),
            order: VecDeque::new(),
            cache_cap: 0,
            stats: ServiceStats::default(),
            catalog_fp,
            cost_fp,
        }
    }

    /// Bounds the plan cache at `cap` entries, evicted FIFO (0 =
    /// unbounded, the default).
    pub fn with_cache_cap(mut self, cap: usize) -> PlanService {
        self.cache_cap = cap;
        self
    }

    /// The canonical catalog fingerprint a cached plan is keyed under:
    /// the order-insensitive dependency-set fingerprint (the same one
    /// the chase core confirms against) plus both schema signatures.
    /// Reordering constraints does not change it; adding, removing or
    /// rewriting one does, as does any root/type change.
    fn catalog_fingerprint(catalog: &Catalog, config: &OptimizerConfig) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        ChaseContext::fingerprint_of(&catalog.all_constraints(), &config.chase).hash(&mut h);
        for schema in [catalog.logical(), catalog.physical()] {
            for (root, ty) in &schema.roots {
                root.hash(&mut h);
                ty.to_string().hash(&mut h);
            }
        }
        h.finish()
    }

    /// Prepare `q`: serve the cached plan when the key matches, run the
    /// full chase & backchase in the shared core when it doesn't.
    pub fn prepare(&mut self, q: &Query) -> Result<Prepared, OptimizeError> {
        let key = PlanKey {
            query: q.alpha_normalized(),
            catalog_fp: self.catalog_fp,
            cost_fp: self.cost_fp,
        };
        if let Some(plan) = self.cache.get(&key) {
            self.stats.hits += 1;
            return Ok(Prepared {
                plan: Arc::clone(plan),
                cache_hit: true,
                nodes_visited: 0,
            });
        }
        self.stats.misses += 1;
        let optimizer = Optimizer::with_config(&self.catalog, self.config.clone());
        let outcome = optimizer.optimize_in(&mut self.ctx, q)?;
        let repr = PlanRepr::from_outcome(&outcome);
        let nodes_visited = outcome.nodes_visited;
        let plan = Arc::new(PreparedPlan { outcome, repr });
        if self.cache_cap > 0 {
            while self.cache.len() >= self.cache_cap {
                match self.order.pop_front() {
                    Some(oldest) => {
                        self.cache.remove(&oldest);
                        self.stats.evictions += 1;
                    }
                    None => break,
                }
            }
        }
        self.cache.insert(key.clone(), Arc::clone(&plan));
        self.order.push_back(key);
        Ok(Prepared {
            plan,
            cache_hit: false,
            nodes_visited,
        })
    }

    /// Replace the catalog. The chase core goes through the
    /// [`ChaseContext::ensure_deps`] path — reset iff the constraint
    /// theory genuinely changed (a reordered catalog keeps its memos) —
    /// and every cached plan whose fingerprints the swap orphans is
    /// dropped and counted as an invalidation.
    pub fn swap_catalog(&mut self, catalog: Catalog) {
        self.catalog = catalog;
        self.stats.catalog_swaps += 1;
        self.ctx
            .ensure_deps(&self.catalog.all_constraints(), &self.config.chase);
        self.catalog_fp = PlanService::catalog_fingerprint(&self.catalog, &self.config);
        self.cost_fp = CostModel::for_catalog(&self.catalog).fingerprint();
        let (catalog_fp, cost_fp) = (self.catalog_fp, self.cost_fp);
        let before = self.cache.len();
        self.cache
            .retain(|k, _| k.catalog_fp == catalog_fp && k.cost_fp == cost_fp);
        self.stats.invalidations += (before - self.cache.len()) as u64;
        let cache = &self.cache;
        self.order.retain(|k| cache.contains_key(k));
    }

    /// The catalog currently served.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Service-level counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// The shared chase core's memo counters (hits, misses, resets —
    /// including [`CacheStats::reorder_resets_avoided`]).
    pub fn chase_stats(&self) -> CacheStats {
        self.ctx.stats()
    }

    /// Cached plans currently held.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_catalog::scenarios::projdept;

    fn catalog() -> Catalog {
        let mut c = projdept::catalog();
        projdept::stats_for(&mut c, 100, 10, 20);
        c
    }

    fn service() -> PlanService {
        PlanService::new(catalog(), OptimizerConfig::default())
    }

    #[test]
    fn second_preparation_is_a_hit_with_no_search() {
        let mut svc = service();
        let q = projdept::query();
        let cold = svc.prepare(&q).unwrap();
        assert!(!cold.cache_hit);
        assert!(cold.nodes_visited > 0);
        let warm = svc.prepare(&q).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.nodes_visited, 0, "a hit must skip phase 2 entirely");
        assert_eq!(warm.plan.outcome.best.query, cold.plan.outcome.best.query);
        assert_eq!(svc.stats().hits, 1);
        assert_eq!(svc.stats().misses, 1);
    }

    #[test]
    fn alpha_equivalent_queries_share_one_preparation() {
        let mut svc = service();
        let q = projdept::query();
        svc.prepare(&q).unwrap();
        // Same query, different variable names.
        let renamed = q.alpha_normalized();
        let again = svc.prepare(&renamed).unwrap();
        assert!(again.cache_hit);
    }

    #[test]
    fn stats_refresh_misses_but_reuses_chase_memos() {
        let mut svc = service();
        let q = projdept::query();
        svc.prepare(&q).unwrap();
        let warm = svc.chase_stats();
        // New statistics: same constraints, different cost model.
        let mut c2 = projdept::catalog();
        projdept::stats_for(&mut c2, 1000, 50, 5);
        svc.swap_catalog(c2);
        // The cached plan was invalidated (the cost fingerprint moved)…
        assert_eq!(svc.stats().invalidations, 1);
        let re = svc.prepare(&q).unwrap();
        assert!(!re.cache_hit);
        // …but the chase core kept its memos: same theory, no reset.
        assert_eq!(svc.chase_stats().deps_resets, 0);
        // Every containment and implication proof was already made.
        let after = svc.chase_stats();
        assert_eq!(
            after.containment_misses, warm.containment_misses,
            "{after:?}"
        );
        assert_eq!(
            after.implication_misses, warm.implication_misses,
            "{after:?}"
        );
        assert!(after.hits() > warm.hits());
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let mut svc = PlanService::new(catalog(), OptimizerConfig::default()).with_cache_cap(1);
        let q1 = projdept::query();
        let q2 = projdept::paper_plans().remove(0);
        svc.prepare(&q1).unwrap();
        svc.prepare(&q2).unwrap();
        assert_eq!(svc.cached_plans(), 1);
        assert_eq!(svc.stats().evictions, 1);
        // q1 was evicted to admit q2.
        assert!(!svc.prepare(&q1).unwrap().cache_hit);
    }
}
