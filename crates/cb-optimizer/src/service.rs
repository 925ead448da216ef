//! The optimizer as a long-lived service.
//!
//! [`PlanService`] is the front end the ROADMAP's "optimizer-as-a-
//! service" item asks for: one value owning the catalog, a long-lived
//! memoized chase core, and a cache of prepared plans, one per query
//! shape (unbounded unless [`PlanService::with_cache_cap`] bounds it).
//! Where a bare [`Optimizer`] treats every `optimize` call as a cold
//! start, the service amortizes across calls on several levels:
//!
//! * **Chase memos** — every preparation runs through one shared
//!   [`ChaseContext`], so phase 1, the backchase's verification traffic
//!   and plan cleanup all reuse earlier chases, containment verdicts and
//!   implication proofs. The verdict memos key on constant-abstracted
//!   forms (constants the catalog's dependencies do not mention become
//!   placeholders — sound, since the chase treats constants as
//!   uninterpreted symbols), so a query re-prepared after a statistics
//!   refresh re-proves nothing, even with another constant. Its phase-1
//!   chase is a hit too: a finished chase is kept by the
//!   shape of its input and handed to a later input of the shape in
//!   that input's own names and constants, so every plan carries the
//!   caller's own constants. A parallel phase 2 proves against the same
//!   context, so its memos persist across preparations at every thread
//!   count.
//! * **The catalog pre-flight** — the catalog lint, the termination
//!   verdict and the constraint set depend on the catalog alone, so the
//!   first miss after [`PlanService::new`] or
//!   [`PlanService::swap_catalog`] computes them and every later miss
//!   under that catalog reads them. A service whose preparations all hit
//!   the plan cache never lints its catalog. The query's own lint, the
//!   `CB_FAULTS` check and the type check run on every preparation, hit
//!   or miss; the type check is the lint's own, against the catalog's
//!   combined schema, which the first preparation under a catalog builds.
//! * **Verified lattices** — phases 1–2 depend only on the query and the
//!   constraints, so the context also keeps, per shape of universal plan
//!   walked more than once, the backchase lattice its walks verified. The
//!   shape ignores the values of the constants the constraints never
//!   mention, so two walks of it may be a re-preparation after a
//!   statistics refresh (a plan-cache miss, a chase-memo hit: the same
//!   universal plan) or two queries that differ only in such a constant
//!   (`CustName = "cust5"`, then `"cust7"`). The second walk of a shape
//!   records its lattice, every later one replays it, each subquery
//!   translated to its own names and constants when read — by the
//!   cost-guided visitor, as a normal form, or as a visited node the
//!   exhaustive strategy collects under `cost_visited` (an exhaustive
//!   replay without it translates only its normal forms): the visitor
//!   still gates, orders, costs and prunes live, but no containment or
//!   implication question is asked, and the outcome is byte-identical to
//!   a fresh service's. A shape walked only once holds no lattice.
//! * **Prepared plans** — the full [`OptimizeOutcome`], keyed by
//!   *query shape* × *canonical catalog fingerprint* × *cost-model
//!   fingerprint*, with the query it was prepared for as the shape's
//!   [`ShapeOrigin`]. A hit hands the plan to a query of the shape in
//!   that query's own names and constants, by the [`Renaming`] the origin
//!   vouches for — the one phase 1 translates by — without any chase or
//!   phase-2 search at all ([`Prepared::nodes_visited`] is 0 — the
//!   property E21 measures). It pays only for what its caller reads: the
//!   input and the best plan are translated at once, while the universal
//!   plan, the chase steps and the costed plans stay shared with the
//!   cached plan and are translated when first read
//!   ([`OptimizeOutcome::universal`], [`OptimizeOutcome::candidates`],
//!   …). The query's own pre-flight findings replace the origin's; the
//!   catalog's findings and those on the plans carry over. A query
//!   binding a name the chase's fresh-name generator tried (`k0`) is a
//!   hit too: the renaming takes the names the chase added for the
//!   origin to those a chase of the query adds. Nothing on the serving
//!   path reads a plan document, so none is built here: a caller that
//!   snapshots or diffs plans renders one with
//!   [`PlanRepr::from_outcome`](crate::PlanRepr::from_outcome).
//!
//! The key is exactly as strong as the things a plan depends on:
//!
//! * the query's shape ([`ChaseContext::shape`]): its positional form
//!   with the constants the dependencies never mention numbered by
//!   rank. The chase treats constants as uninterpreted symbols, and the
//!   cost model, cleanup, reordering and the ranking read no constant's
//!   value, only their order among one query's constants, so the plan of
//!   one query of a shape is, renamed, the plan of every other. Not the
//!   constants' types, though: `r.A = 5` and `r.A = "five"` share a
//!   shape, which is why the type check runs on every hit;
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

use cb_analyze::Report;
use cb_catalog::Catalog;
#[cfg(doc)]
use cb_chase::Renaming;
use cb_chase::{CacheStats, ChaseContext, ShapeOrigin};
use pcql::query::Query;
use pcql::schema::Schema;

use crate::cost::CostModel;
use crate::optimizer::{CatalogCheck, OptimizeError, OptimizeOutcome, Optimizer, OptimizerConfig};

/// Cache key for one prepared plan. Everything plan choice depends on,
/// nothing it doesn't.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    /// The query's shape ([`ChaseContext::shape`]): `from R r` and
    /// `from R x` are one preparation, and so are `CustName = "cust3"`
    /// and `CustName = "cust7"`.
    shape: Query,
    /// [`PlanService::catalog_fingerprint`] at preparation time.
    catalog_fp: u64,
    /// [`CostModel::fingerprint`] at preparation time.
    cost_fp: u64,
}

/// A cached preparation.
#[derive(Debug, Clone)]
pub struct PreparedPlan {
    /// The full optimization outcome (EXPLAIN, top-k ladder, counters).
    pub outcome: OptimizeOutcome,
}

/// A cached preparation with what a later query of its shape needs to
/// be served from it.
struct CachedPlan {
    plan: Arc<PreparedPlan>,
    /// The query it was prepared for.
    origin: ShapeOrigin,
    /// Its diagnostics are the catalog's findings up to `catalog_len`,
    /// the query's own up to `preflight_len`, then the findings on the
    /// plans: only the middle part is the query's.
    catalog_len: usize,
    preflight_len: usize,
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
    /// Preparations whose shape the plan cache held a plan for, under a
    /// renaming it could vouch for (one the query's own pre-flight or
    /// type check then rejects included).
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
    /// The catalog's pre-flight, computed by the first miss after
    /// [`PlanService::new`] or [`PlanService::swap_catalog`].
    catalog_check: Option<Arc<CatalogCheck>>,
    /// The catalog's combined schema, built by the first preparation
    /// after [`PlanService::new`] or [`PlanService::swap_catalog`].
    schema: Option<Arc<Schema>>,
    cache: HashMap<PlanKey, CachedPlan>,
    /// FIFO insertion order for eviction.
    order: VecDeque<PlanKey>,
    /// Max cached plans; 0 means unbounded.
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
            catalog_check: None,
            schema: None,
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

    /// Prepare `q`: serve the plan cached for its shape, in `q`'s own
    /// names and constants, when the key matches; run the full chase &
    /// backchase in the shared core otherwise. A hit still runs `q`'s
    /// own pre-flight and type check.
    pub fn prepare(&mut self, q: &Query) -> Result<Prepared, OptimizeError> {
        let shape = self.ctx.shape(q);
        let key = PlanKey {
            shape: shape.key.clone(),
            catalog_fp: self.catalog_fp,
            cost_fp: self.cost_fp,
        };
        let schema = self
            .schema
            .get_or_insert_with(|| Arc::new(self.catalog.combined_schema()));
        let optimizer = Optimizer::with_config(&self.catalog, self.config.clone())
            .with_schema(Arc::clone(schema));
        if let Some(cached) = self.cache.get(&key) {
            if let Some(r) = cached.origin.renaming_to(q, &shape) {
                let outcome = &cached.plan.outcome;
                let found = &outcome.diagnostics.diagnostics;
                let catalog = Report {
                    diagnostics: found[..cached.catalog_len].to_vec(),
                };
                self.stats.hits += 1;
                let mut diagnostics = optimizer.preflight(catalog, q)?;
                let plan = if r.is_identity()
                    && diagnostics.diagnostics[..] == found[..cached.preflight_len]
                {
                    Arc::clone(&cached.plan)
                } else {
                    diagnostics
                        .diagnostics
                        .extend_from_slice(&found[cached.preflight_len..]);
                    let mut outcome = outcome.renamed(r, q, diagnostics);
                    outcome.cache = self.ctx.stats();
                    Arc::new(PreparedPlan { outcome })
                };
                return Ok(Prepared {
                    plan,
                    cache_hit: true,
                    nodes_visited: 0,
                });
            }
        }
        self.stats.misses += 1;
        let check = self
            .catalog_check
            .get_or_insert_with(|| Arc::new(CatalogCheck::of(&self.catalog, &self.config)));
        let catalog_len = check.report.len();
        let optimizer = optimizer.with_catalog_check(Arc::clone(check));
        let diagnostics = optimizer.preflight(check.report.clone(), q)?;
        let preflight_len = diagnostics.len();
        let outcome = optimizer.optimize_checked(&mut self.ctx, q, diagnostics)?;
        let nodes_visited = outcome.search.visited_count;
        let plan = Arc::new(PreparedPlan { outcome });
        if !self.cache.contains_key(&key) {
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
            let cached = CachedPlan {
                origin: ShapeOrigin::new(q.clone(), shape, plan.outcome.chase_steps()),
                plan: Arc::clone(&plan),
                catalog_len,
                preflight_len,
            };
            self.cache.insert(key.clone(), cached);
            self.order.push_back(key);
        }
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
        self.catalog_check = None;
        self.schema = None;
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

    /// `projdept::query()` with its variables renamed.
    fn renamed() -> Query {
        let map = [("d", "dept"), ("s", "proj"), ("p", "pr")]
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .into();
        projdept::query().rename(&map)
    }

    #[test]
    fn alpha_equivalent_queries_share_one_preparation() {
        let mut svc = service();
        svc.prepare(&projdept::query()).unwrap();
        // Same query, different variable names: a hit in its own names,
        // exactly what a fresh optimization of it plans.
        let q = renamed();
        let again = svc.prepare(&q).unwrap();
        assert!(again.cache_hit);
        let got = &again.plan.outcome;
        let want = Optimizer::with_config(&catalog(), OptimizerConfig::default())
            .optimize(&q)
            .unwrap();
        assert_eq!(got.input, q);
        assert_eq!(got.universal(), want.universal());
        assert_eq!(got.best.query, want.best.query);
        let plans = |o: &OptimizeOutcome| -> Vec<Query> {
            o.candidates().iter().map(|c| c.query.clone()).collect()
        };
        assert_eq!(plans(got), plans(&want));
        assert!(got
            .best
            .query
            .from
            .iter()
            .all(|b| !["d", "s", "p"].contains(&b.var.as_str())));
    }

    #[test]
    fn renamed_hits_share_the_cached_derivation_and_read_it_in_their_own_names() {
        let mut svc = service();
        let cold = svc.prepare(&projdept::query()).unwrap();
        // The first name the chase adds: a query binding it steers the
        // chase's fresh names.
        let added = cold
            .plan
            .outcome
            .chase_steps()
            .iter()
            .flat_map(|s| &s.added_bindings)
            .next()
            .expect("the ProjDept chase adds bindings")
            .var
            .clone();
        let tried = projdept::query().rename(&[("d".to_string(), added)].into());
        let hits: Vec<(Query, Prepared)> = [renamed(), tried]
            .into_iter()
            .map(|q| {
                let p = svc.prepare(&q).unwrap();
                (q, p)
            })
            .collect();
        for (q, hit) in &hits {
            assert!(hit.cache_hit, "{q}");
            let got = &hit.plan.outcome;
            assert!(got.shares_derivation_with(&cold.plan.outcome), "{q}");
            assert!(!got.derivation_translated(), "{q}: read nothing yet");
            let want = Optimizer::with_config(&catalog(), OptimizerConfig::default())
                .optimize(q)
                .unwrap();
            assert_eq!(got.best.query, want.best.query, "{q}");
            assert_eq!(got.universal(), want.universal(), "{q}");
            assert!(got.derivation_translated(), "{q}");
            assert_eq!(
                format!("{:?}", got.chase_steps()),
                format!("{:?}", want.chase_steps()),
                "{q}"
            );
            assert_eq!(
                format!("{:?}", got.candidates()),
                format!("{:?}", want.candidates()),
                "{q}"
            );
            assert_eq!(
                format!("{:?}", got.top_k()),
                format!("{:?}", want.top_k()),
                "{q}"
            );
        }
        assert_eq!((svc.stats().hits, svc.stats().misses), (2, 1));
    }

    #[test]
    fn a_swapped_catalog_or_a_stats_refresh_misses_every_shape() {
        let mut svc = service();
        svc.prepare(&projdept::query()).unwrap();
        // The same theory with other statistics: another cost model.
        let mut refreshed = projdept::catalog();
        projdept::stats_for(&mut refreshed, 1000, 50, 5);
        svc.swap_catalog(refreshed);
        assert!(!svc.prepare(&renamed()).unwrap().cache_hit);
        assert!(svc.prepare(&projdept::query()).unwrap().cache_hit);
        // Back to the first statistics: that plan was dropped by the
        // first swap.
        svc.swap_catalog(catalog());
        assert!(!svc.prepare(&renamed()).unwrap().cache_hit);
        assert_eq!(svc.stats().misses, 3);
    }

    #[test]
    fn stats_refresh_misses_but_reuses_chase_memos() {
        let mut svc = service();
        let q = projdept::query();
        svc.prepare(&q).unwrap();
        // New statistics: same constraints, different cost model.
        let refresh = |svc: &mut PlanService, n| {
            let mut c = projdept::catalog();
            projdept::stats_for(&mut c, n, 50, 5);
            svc.swap_catalog(c);
        };
        refresh(&mut svc, 1000);
        // The cached plan was invalidated (the cost fingerprint moved)…
        assert_eq!(svc.stats().invalidations, 1);
        let re = svc.prepare(&q).unwrap();
        assert!(!re.cache_hit);
        // …but the chase core kept its memos: same theory, no reset. This
        // second walk of the universal plan recorded its lattice.
        assert_eq!(svc.chase_stats().deps_resets, 0);
        let warm = svc.chase_stats();
        refresh(&mut svc, 2000);
        assert_eq!(svc.stats().invalidations, 2);
        assert!(!svc.prepare(&q).unwrap().cache_hit);
        // The third walk replayed the verified lattice: not one
        // containment or implication question was asked, not even of the
        // memo.
        let after = svc.chase_stats();
        let lookups = |s: &CacheStats| {
            s.containment_hits + s.containment_misses + s.implication_hits + s.implication_misses
        };
        assert_eq!(after.deps_resets, 0);
        assert_eq!(lookups(&after), lookups(&warm), "{after:?}");
        assert_eq!(after.lattice_misses, warm.lattice_misses, "{after:?}");
        assert!(after.lattice_hits > warm.lattice_hits, "{after:?}");
    }

    #[test]
    fn a_swapped_catalog_is_linted_afresh() {
        let config = OptimizerConfig::default();
        let fresh = |c: &Catalog, q: &Query| {
            Optimizer::with_config(c, config.clone())
                .optimize(q)
                .unwrap()
        };
        let variant = pcql::parser::parse_query(
            "select struct(PN = s, PB = p.Budg, DN = d.DName) \
             from depts d, d.DProjs s, Proj p where s = p.PName and p.CustName = \"cust7\"",
        )
        .unwrap();
        let mut svc = PlanService::new(catalog(), config.clone());
        // A miss, then a hit of its shape under one catalog: each with
        // the fresh optimizer's findings.
        for (q, hit) in [(&projdept::query(), false), (&variant, true)] {
            let prepared = svc.prepare(q).unwrap();
            assert_eq!(prepared.cache_hit, hit);
            let want = fresh(&catalog(), q);
            assert_eq!(prepared.plan.outcome.diagnostics, want.diagnostics, "{q}");
            assert_eq!(prepared.plan.outcome.termination, want.termination, "{q}");
        }
        // The next miss after a swap lints the new catalog, whose one
        // direct mapping carries another termination verdict and no
        // catalog-level finding at all.
        let mut direct = Catalog::new();
        direct.add_logical_relation("R", [("A", pcql::Type::Int)]);
        direct.add_direct_mapping("R");
        let q = pcql::parser::parse_query("select struct(A = r.A) from R r").unwrap();
        let want = fresh(&direct, &q);
        let stale = svc.prepare(&projdept::query()).unwrap();
        assert_ne!(want.termination, stale.plan.outcome.termination);
        assert!(want.diagnostics.is_empty(), "{}", want.diagnostics);
        svc.swap_catalog(direct);
        let prepared = svc.prepare(&q).unwrap();
        assert!(!prepared.cache_hit);
        assert_eq!(prepared.plan.outcome.diagnostics, want.diagnostics);
        assert_eq!(prepared.plan.outcome.termination, want.termination);
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
