//! The shared, memoized chase core.
//!
//! Every phase of chase & backchase bottoms out in the same three
//! questions — *what does `q` chase to?*, *is `q1 ⊑ q2`?*, *does `D ⊨ σ`
//! hold?* — and the backchase asks them once per node of an exponential
//! removal lattice. A [`ChaseContext`] owns one dependency set and one
//! [`ChaseConfig`] and memoizes all three:
//!
//! * **chase outcomes**, keyed by the alpha-normalized query. Entries
//!   hold a *resumable* [`ChaseState`](crate::chase::ChaseState) rather
//!   than a finished result: a containment check stops chasing the
//!   moment a witness homomorphism appears (sound, because every chase
//!   prefix is equivalent to the input), and the next check against the
//!   same query resumes from where the last one stopped;
//! * **containment verdicts**, keyed by the alpha-normalized pair with
//!   its constants abstracted (see below);
//! * **implication verdicts** `D ⊨ σ`, keyed by a canonicalized `σ`
//!   (bound variables renamed, constants abstracted, conditions
//!   normalized and sorted) — lookup-safety and condition-pruning proofs
//!   repeat heavily across the lattice.
//!
//! **Constant abstraction.** The chase treats constants as uninterpreted
//! symbols: a constant matches only itself, and no chase or hom rule
//! looks at its value. So the two boolean-valued memos key on a form in
//! which every constant the dependency set does not mention is replaced
//! by a placeholder, numbered in order of first occurrence (one numbering
//! for both queries of a containment pair, so equal constants stay equal
//! and distinct ones stay distinct). The renaming is injective and fixes
//! the dependency constants, so it maps one chase problem onto an
//! isomorphic one: two questions with the same key have the same verdict.
//! `CustName = "cust7"` is answered from the proofs made for
//! `CustName = "cust5"`. An isomorphism the canonical form fails to spot
//! (placeholder numbering follows the constant-sorted condition order)
//! costs a memo miss, never a wrong answer. The keys are built by one
//! helper (`MemoKeys`) that the sequential and the sharded context
//! share. **Chase states stay constant-exact**: a [`ChaseOutcome`] is
//! handed back to callers (the universal plan is one), so it always
//! carries the caller's own constants.
//!
//! [`CacheStats`] counts hits and misses so benchmarks (E7/E8) can
//! attribute speedups; [`ChaseContext::without_memo`] disables the
//! caches for differential testing — a memoized and a cache-disabled run
//! must produce byte-identical results.
//!
//! Two guards make long-lived contexts safe to hold: the context
//! fingerprints its `(dependency set, budget)` and
//! [`ChaseContext::ensure_deps`] drops every memo when asked to reason
//! over a different theory (the optimizer calls it per optimization, so
//! reusing one context across catalogs can no longer serve unsound
//! memos), and [`ChaseContext::with_memo_cap`] bounds each memo table,
//! evicting oldest-first, so a context embedded in a service cannot grow
//! without bound. Both are counted in [`CacheStats`]
//! (`deps_resets`/`evictions`).
//!
//! The free functions [`chase`](crate::chase()), [`contained_in`],
//! [`equivalent`], [`implies`], [`backchase`](crate::backchase()) …
//! remain available as thin wrappers that allocate a throwaway context;
//! use the context API whenever more than one question will be asked of
//! the same dependency set.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use pcql::query::{Binding, Equality, Output, Query};
use pcql::{Constant, Dependency, Path};

use crate::chase::{ChaseConfig, ChaseOutcome, ChaseState};
use crate::containment::output_matching_hom;
use crate::implication::implies_uncached;

/// Cache hit/miss counters of a [`ChaseContext`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Chase states reused (including partial states resumed by a later
    /// containment check).
    pub chase_hits: u64,
    /// Chase states built from scratch.
    pub chase_misses: u64,
    /// Containment verdicts answered from the memo.
    pub containment_hits: u64,
    /// Containment verdicts computed.
    pub containment_misses: u64,
    /// Implication verdicts answered from the memo.
    pub implication_hits: u64,
    /// Implication verdicts computed.
    pub implication_misses: u64,
    /// Containment checks discharged by validating a homomorphism seeded
    /// from the parent lattice node instead of searching.
    pub seeded_hom_hits: u64,
    /// Automatic cache resets because the context was asked to reason
    /// over a different dependency set (or chase budget) than the one it
    /// was built for — see [`ChaseContext::ensure_deps`]. Memos computed
    /// under other constraints would be unsound, so the caches are
    /// dropped rather than served.
    pub deps_resets: u64,
    /// Spurious resets *avoided*: [`ChaseContext::ensure_deps`] was
    /// handed a reordered-but-identical dependency slice (same canonical
    /// set, different order) and kept every memo instead of resetting.
    /// Before fingerprinting went order-insensitive each of these was a
    /// full, pointless cold start — and would have been a plan-cache
    /// miss in a service keyed on the fingerprint.
    pub reorder_resets_avoided: u64,
    /// Memo entries dropped by the entry cap (oldest first) — see
    /// [`ChaseContext::with_memo_cap`].
    pub evictions: u64,
    /// Poisoned shard mutexes recovered by discarding that shard's memo
    /// entries (a cache, always safe to drop). Only the sharded
    /// [`SharedChaseContext`](crate::SharedChaseContext) can count these;
    /// a sequential context has no locks to poison.
    pub poison_recoveries: u64,
    /// Checkout attempts retried after transient contention or an
    /// injected transient failure, before falling back to a fresh chase.
    pub checkout_retries: u64,
    /// Shards shed (all memo entries dropped) under memory pressure —
    /// either the approximate byte limit or an injected pressure signal.
    pub pressure_sheds: u64,
}

impl CacheStats {
    /// Field-wise sum — used to aggregate per-shard counters of a
    /// [`SharedChaseContext`](crate::SharedChaseContext) and to merge the
    /// counters of the sequential context and the shared search core into
    /// one optimization-wide snapshot.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.chase_hits += other.chase_hits;
        self.chase_misses += other.chase_misses;
        self.containment_hits += other.containment_hits;
        self.containment_misses += other.containment_misses;
        self.implication_hits += other.implication_hits;
        self.implication_misses += other.implication_misses;
        self.seeded_hom_hits += other.seeded_hom_hits;
        self.deps_resets += other.deps_resets;
        self.reorder_resets_avoided += other.reorder_resets_avoided;
        self.evictions += other.evictions;
        self.poison_recoveries += other.poison_recoveries;
        self.checkout_retries += other.checkout_retries;
        self.pressure_sheds += other.pressure_sheds;
    }

    /// Total memo hits across all three caches.
    pub fn hits(&self) -> u64 {
        self.chase_hits + self.containment_hits + self.implication_hits
    }

    /// Total memo misses across all three caches.
    pub fn misses(&self) -> u64 {
        self.chase_misses + self.containment_misses + self.implication_misses
    }

    /// Fraction of lookups answered from a cache (0.0 when nothing was
    /// asked).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// A chase entry: the resumable state plus, once someone asked for the
/// full result, the finalized (coalesced) outcome. Shared with the
/// sharded [`SharedChaseContext`](crate::SharedChaseContext), whose
/// shards park the same resumable states.
#[derive(Debug, Clone)]
pub(crate) struct ChasedEntry {
    pub(crate) state: ChaseState,
    pub(crate) outcome: Option<ChaseOutcome>,
}

/// The questions backchase machinery asks of a chase core, abstracted
/// over *which* core answers them: the single-owner [`ChaseContext`]
/// (sequential search) or a per-worker handle onto the sharded
/// [`SharedChaseContext`](crate::SharedChaseContext) (parallel search).
/// Lookup-safety proofs ([`first_unsafe`](crate::first_unsafe)),
/// condition pruning and the lattice equivalence checks are generic over
/// this trait, so both searches run the exact same proof discipline.
pub trait ChaseProver {
    /// The chase budgets in force.
    fn cfg(&self) -> &ChaseConfig;
    /// Does the dependency set imply `sigma` (bounded-chase prover)?
    fn implies(&mut self, sigma: &Dependency) -> bool;
    /// Is `q1 ⊑ q2` under the dependency set (set semantics)?
    fn contained_in(&mut self, q1: &Query, q2: &Query) -> bool;
    /// Counts a containment check discharged by a parent-seeded witness.
    fn note_seeded_hom(&mut self);
}

impl ChaseProver for ChaseContext {
    fn cfg(&self) -> &ChaseConfig {
        ChaseContext::cfg(self)
    }
    fn implies(&mut self, sigma: &Dependency) -> bool {
        ChaseContext::implies(self, sigma)
    }
    fn contained_in(&mut self, q1: &Query, q2: &Query) -> bool {
        ChaseContext::contained_in(self, q1, q2)
    }
    fn note_seeded_hom(&mut self) {
        ChaseContext::note_seeded_hom(self);
    }
}

/// The shared, memoized chase core: one dependency set, one budget, and
/// caches for chase outcomes, containment and implication. See the
/// module docs for the architecture.
#[derive(Debug, Clone)]
pub struct ChaseContext {
    deps: Vec<Dependency>,
    cfg: ChaseConfig,
    caching: bool,
    /// Fingerprint of `(deps, cfg)` — the identity of the theory this
    /// context's memos are sound under.
    fingerprint: u64,
    /// Builds the constant-abstracted containment and implication keys.
    keys: MemoKeys,
    /// Per-table entry cap (0 = unbounded); oldest entries evicted first.
    memo_cap: usize,
    chased: HashMap<Query, ChasedEntry>,
    chase_order: VecDeque<Query>,
    containment: HashMap<(Query, Query), bool>,
    containment_order: VecDeque<(Query, Query)>,
    implication: HashMap<Dependency, bool>,
    implication_order: VecDeque<Dependency>,
    stats: CacheStats,
}

impl ChaseContext {
    /// A context over `deps` with the given chase budgets.
    pub fn new(deps: Vec<Dependency>, cfg: ChaseConfig) -> ChaseContext {
        let fingerprint = ChaseContext::fingerprint_of(&deps, &cfg);
        ChaseContext {
            keys: MemoKeys::new(&deps),
            deps,
            cfg,
            caching: true,
            fingerprint,
            memo_cap: 0,
            chased: HashMap::new(),
            chase_order: VecDeque::new(),
            containment: HashMap::new(),
            containment_order: VecDeque::new(),
            implication: HashMap::new(),
            implication_order: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// A context whose caches are disabled: every question is recomputed
    /// from scratch. Exists so differential tests can assert that
    /// memoization never changes an answer.
    pub fn without_memo(deps: Vec<Dependency>, cfg: ChaseConfig) -> ChaseContext {
        ChaseContext {
            caching: false,
            ..ChaseContext::new(deps, cfg)
        }
    }

    /// Caps each memo table (chase states, containment, implication) at
    /// `cap` entries, evicting the oldest entry first when the cap is
    /// exceeded (0 = unbounded, the default). An evicted answer is simply
    /// recomputed on the next ask — eviction can never change a verdict —
    /// so a context held by a long-running service stays bounded.
    /// Evictions are counted in [`CacheStats::evictions`].
    pub fn with_memo_cap(mut self, cap: usize) -> ChaseContext {
        self.memo_cap = cap;
        self
    }

    /// The per-table memo entry cap (0 = unbounded).
    pub fn memo_cap(&self) -> usize {
        self.memo_cap
    }

    /// Fingerprint of a dependency set + chase budget: a cheap first
    /// check on the identity of the theory a context's memos are sound
    /// under. **Order-insensitive**: the hash runs over the sorted
    /// canonical forms of the dependencies ([`canonical_dep_set`]), so
    /// two orderings of the same set — a catalog rebuilt with its
    /// constraints in a different order, the routine plan-cache churn of
    /// a long-lived service — fingerprint identically and keep their
    /// memos. (The memos are verdicts about the dependency *set*; the
    /// chase reaches the same fixpoint under any application order, so
    /// serving them across a reordering is sound.) A fingerprint match is
    /// only a hint: [`ChaseContext::ensure_deps`] confirms with exact
    /// comparison of the canonical forms, so a hash collision can never
    /// keep stale memos alive.
    pub fn fingerprint_of(deps: &[Dependency], cfg: &ChaseConfig) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        canonical_dep_set(deps).hash(&mut h);
        cfg.hash(&mut h);
        h.finish()
    }

    /// The fingerprint of this context's `(deps, cfg)`.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Guards against the context-reuse footgun: if this context was
    /// built for a *different* dependency set or chase budget than
    /// `(deps, cfg)`, re-point it and drop every memo — verdicts cached
    /// under other constraints would be silently unsound here. Returns
    /// whether a reset happened (also counted in
    /// [`CacheStats::deps_resets`]); on a match (fingerprint, confirmed
    /// by exact comparison of the canonical forms so collisions cannot
    /// smuggle stale memos through) this is a cheap no-op and all memos
    /// are kept. A *reordered-but-identical* dependency slice is a match,
    /// not a reset: the memos are sound under the set, the original
    /// ordering is kept, and the avoided reset is counted in
    /// [`CacheStats::reorder_resets_avoided`] — this is what keeps a
    /// plan cache keyed on the fingerprint from missing (and a memoized
    /// context from cold-starting) every time a catalog is rebuilt with
    /// its constraints permuted. `Optimizer::optimize_in` calls this on
    /// every optimization, so callers can hold one context across
    /// catalogs without tracking constraint identity themselves.
    pub fn ensure_deps(&mut self, deps: &[Dependency], cfg: &ChaseConfig) -> bool {
        let fp = ChaseContext::fingerprint_of(deps, cfg);
        if fp == self.fingerprint && cfg == &self.cfg {
            if deps == self.deps {
                return false;
            }
            // The fingerprint already hashes the canonical set; confirm
            // exactly so a collision cannot keep stale memos alive.
            if canonical_dep_set(deps) == canonical_dep_set(&self.deps) {
                self.stats.reorder_resets_avoided += 1;
                return false;
            }
        }
        self.deps = deps.to_vec();
        self.keys = MemoKeys::new(deps);
        self.cfg = cfg.clone();
        self.fingerprint = fp;
        self.chased.clear();
        self.chase_order.clear();
        self.containment.clear();
        self.containment_order.clear();
        self.implication.clear();
        self.implication_order.clear();
        self.stats.deps_resets += 1;
        true
    }

    /// Drops every memo while keeping the theory and counters. Sound at
    /// any time (memos are caches); the optimizer's degradation ladder
    /// calls it after catching a panic mid-proof, when a resumable chase
    /// state may have been left half-stepped — recomputing is always
    /// safe, serving a possibly-torn state is not.
    pub fn clear_memos(&mut self) {
        self.chased.clear();
        self.chase_order.clear();
        self.containment.clear();
        self.containment_order.clear();
        self.implication.clear();
        self.implication_order.clear();
    }

    /// The dependency set this context reasons over.
    pub fn deps(&self) -> &[Dependency] {
        &self.deps
    }

    /// The chase budgets in force.
    pub fn cfg(&self) -> &ChaseConfig {
        &self.cfg
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    pub(crate) fn note_seeded_hom(&mut self) {
        self.stats.seeded_hom_hits += 1;
    }

    /// Ensures a chase entry for `q` exists under its alpha key; returns
    /// the key and whether existing state was reused.
    fn ensure_entry(&mut self, q: &Query) -> (Query, bool) {
        let key = q.alpha_normalized();
        let reused = self.caching && self.chased.contains_key(&key);
        if reused {
            self.stats.chase_hits += 1;
        } else {
            self.stats.chase_misses += 1;
            insert_bounded(
                &mut self.chased,
                &mut self.chase_order,
                self.memo_cap,
                &mut self.stats.evictions,
                key.clone(),
                ChasedEntry {
                    state: ChaseState::new(q),
                    outcome: None,
                },
            );
        }
        (key, reused)
    }

    /// Chases `q` to a fixpoint (or budget), memoized.
    ///
    /// On a cache hit for an *alpha-equivalent but differently named*
    /// query, the returned outcome carries the variable names of the
    /// first query chased under this key; all derived judgements
    /// (containment, equivalence, implication) are invariant under that
    /// renaming.
    pub fn chase(&mut self, q: &Query) -> ChaseOutcome {
        let (key, _) = self.ensure_entry(q);
        let entry = self.chased.get_mut(&key).expect("entry just ensured");
        if entry.outcome.is_none() {
            while entry.state.step(&self.deps, &self.cfg) {}
            entry.outcome = Some(entry.state.finalize(&self.deps, &self.cfg));
        }
        entry.outcome.clone().expect("outcome just finalized")
    }

    /// Is `q1 ⊑ q2` under this context's dependencies (set semantics)?
    ///
    /// Chases `q1` *lazily*: after every step the containment mapping
    /// from `q2` is retried, and the chase stops at the first witness —
    /// a sound early exit, since each chase prefix is equivalent to
    /// `q1`. A verdict of `false` still requires the fixpoint (or the
    /// budget), exactly like the eager test.
    pub fn contained_in(&mut self, q1: &Query, q2: &Query) -> bool {
        // Failpoint: a transient Err is recovered by proceeding (the
        // proof below is deterministic); a panic unwinds to the caller's
        // catch. Placed before any lookup so no memo is torn.
        if crate::faults::hit("context::contained_in").is_err() {
            crate::faults::note_recovered();
        }
        let key = self.keys.containment(q1, q2);
        if self.caching {
            if let Some(&v) = self.containment.get(&key) {
                self.stats.containment_hits += 1;
                return v;
            }
        }
        self.stats.containment_misses += 1;
        let (chase_key, _) = self.ensure_entry(q1);
        let entry = self.chased.get_mut(&chase_key).expect("entry just ensured");
        let result = loop {
            let output = entry.state.query.output.clone();
            if output_matching_hom(&mut entry.state.graph, &output, q2, &self.cfg, None).is_some() {
                break true;
            }
            if !entry.state.step(&self.deps, &self.cfg) {
                break false;
            }
        };
        if self.caching {
            insert_bounded(
                &mut self.containment,
                &mut self.containment_order,
                self.memo_cap,
                &mut self.stats.evictions,
                key,
                result,
            );
        }
        result
    }

    /// Are the queries equivalent under this context's dependencies?
    pub fn equivalent(&mut self, q1: &Query, q2: &Query) -> bool {
        self.contained_in(q1, q2) && self.contained_in(q2, q1)
    }

    /// Does the dependency set imply `sigma` (as far as the bounded chase
    /// can tell)? Memoized on a canonicalized, constant-abstracted
    /// `sigma`; the underlying prover also early-exits the moment the
    /// conclusion is witnessed.
    pub fn implies(&mut self, sigma: &Dependency) -> bool {
        // Failpoint: same recovery contract as `contained_in`.
        if crate::faults::hit("context::implies").is_err() {
            crate::faults::note_recovered();
        }
        let key = self.keys.implication(sigma);
        if self.caching {
            if let Some(&v) = self.implication.get(&key) {
                self.stats.implication_hits += 1;
                return v;
            }
        }
        self.stats.implication_misses += 1;
        let v = implies_uncached(&self.deps, sigma, &self.cfg);
        if self.caching {
            insert_bounded(
                &mut self.implication,
                &mut self.implication_order,
                self.memo_cap,
                &mut self.stats.evictions,
                key,
                v,
            );
        }
        v
    }
}

/// Builds the keys of the two boolean-valued memos — containment and
/// implication verdicts — for one dependency set. Both chase cores call
/// it, so the sequential and the sharded context key identically. A key
/// is the alpha-normalized (or canonicalized) form with every constant
/// the dependency set does not mention replaced by a placeholder; see the
/// module docs for why that is sound.
#[derive(Debug, Clone)]
pub(crate) struct MemoKeys {
    /// The constants the dependency set mentions: kept literal in keys,
    /// since a dependency can tell them apart from every other constant.
    dep_constants: BTreeSet<Constant>,
}

impl MemoKeys {
    pub(crate) fn new(deps: &[Dependency]) -> MemoKeys {
        let mut dep_constants = BTreeSet::new();
        let mut collect = |p: &Path| {
            for sub in p.subpaths() {
                if let Path::Const(c) = sub {
                    dep_constants.insert(c.clone());
                }
            }
        };
        for d in deps {
            for b in d.forall.iter().chain(&d.exists) {
                collect(&b.src);
            }
            for e in d.premise.iter().chain(&d.conclusion) {
                collect(&e.0);
                collect(&e.1);
            }
        }
        MemoKeys { dep_constants }
    }

    /// The containment key of `q1 ⊑ q2`: both queries alpha-normalized,
    /// then constant-abstracted under one shared numbering.
    pub(crate) fn containment(&self, q1: &Query, q2: &Query) -> (Query, Query) {
        let (mut k1, mut k2) = (q1.alpha_normalized(), q2.alpha_normalized());
        let mut abs = Abstraction::new(&self.dep_constants);
        abs.query(&mut k1);
        abs.query(&mut k2);
        (k1, k2)
    }

    /// The implication key of `sigma`: [`canonical_dependency`], then
    /// constant-abstracted.
    pub(crate) fn implication(&self, sigma: &Dependency) -> Dependency {
        let mut key = canonical_dependency(sigma);
        let mut abs = Abstraction::new(&self.dep_constants);
        for b in key.forall.iter_mut() {
            abs.path(&mut b.src);
        }
        abs.conditions(&mut key.premise);
        for b in key.exists.iter_mut() {
            abs.path(&mut b.src);
        }
        abs.conditions(&mut key.conclusion);
        key
    }
}

/// One injective renaming of non-dependency constants to placeholders,
/// applied in place. Placeholders are string constants outside the
/// dependency constants, handed out in order of first occurrence.
struct Abstraction<'a> {
    fixed: &'a BTreeSet<Constant>,
    renamed: HashMap<Constant, Constant>,
    next: usize,
}

impl<'a> Abstraction<'a> {
    fn new(fixed: &'a BTreeSet<Constant>) -> Abstraction<'a> {
        Abstraction {
            fixed,
            renamed: HashMap::new(),
            next: 0,
        }
    }

    fn path(&mut self, p: &mut Path) {
        match p {
            Path::Const(c) => {
                if !self.fixed.contains(c) {
                    *c = self.placeholder(c);
                }
            }
            Path::Var(_) | Path::Root(_) => {}
            Path::Field(p, _) | Path::Dom(p) => self.path(p),
            Path::Get(p, k) | Path::GetOrEmpty(p, k) => {
                self.path(p);
                self.path(k);
            }
        }
    }

    fn placeholder(&mut self, c: &Constant) -> Constant {
        if let Some(ph) = self.renamed.get(c) {
            return ph.clone();
        }
        let ph = loop {
            let candidate = Constant::Str(format!("\u{1}{}", self.next));
            self.next += 1;
            if !self.fixed.contains(&candidate) {
                break candidate;
            }
        };
        self.renamed.insert(c.clone(), ph.clone());
        ph
    }

    /// Renames a condition list, then restores its normal form: each
    /// equality oriented, the list sorted and deduplicated.
    fn conditions(&mut self, eqs: &mut Vec<Equality>) {
        for e in eqs.iter_mut() {
            self.path(&mut e.0);
            self.path(&mut e.1);
            if e.1 < e.0 {
                std::mem::swap(&mut e.0, &mut e.1);
            }
        }
        eqs.sort();
        eqs.dedup();
    }

    fn query(&mut self, q: &mut Query) {
        match &mut q.output {
            Output::Struct(fields) => fields.values_mut().for_each(|p| self.path(p)),
            Output::Path(p) => self.path(p),
        }
        for b in q.from.iter_mut() {
            self.path(&mut b.src);
        }
        self.conditions(&mut q.where_);
    }
}

/// Inserts into a memo table whose insertion order is tracked by `order`,
/// evicting the oldest entry (and counting it) once `cap` is exceeded
/// (0 = unbounded). Overwrites of an existing key leave the order
/// untouched, so `order` always holds each key exactly once. The freshly
/// inserted key sits at the back, so with a cap >= 1 it is never the one
/// evicted.
pub(crate) fn insert_bounded<K: Eq + Hash + Clone, V>(
    map: &mut HashMap<K, V>,
    order: &mut VecDeque<K>,
    cap: usize,
    evictions: &mut u64,
    key: K,
    value: V,
) {
    if map.insert(key.clone(), value).is_none() {
        order.push_back(key);
        if cap > 0 && map.len() > cap {
            if let Some(old) = order.pop_front() {
                map.remove(&old);
                *evictions += 1;
            }
        }
    }
}

/// The canonical form of a dependency *set*: each dependency
/// canonicalized ([`canonical_dependency`]) and the whole slice sorted,
/// so two orderings of the same constraints compare (and hash) equal.
/// Duplicates are kept — a multiset, not a set — so the comparison in
/// [`ChaseContext::ensure_deps`] stays an exact confirmation.
pub(crate) fn canonical_dep_set(deps: &[Dependency]) -> Vec<Dependency> {
    let mut out: Vec<Dependency> = deps.iter().map(canonical_dependency).collect();
    out.sort();
    out
}

/// Canonical memo key for a dependency: bound variables renamed to
/// `c0, c1, …` in (forall, exists) order, name cleared, conditions
/// normalized, sorted and deduplicated. Two dependencies that differ
/// only in variable names or condition order share a key.
pub(crate) fn canonical_dependency(sigma: &Dependency) -> Dependency {
    let map: BTreeMap<String, String> = sigma
        .forall
        .iter()
        .chain(sigma.exists.iter())
        .enumerate()
        .map(|(i, b)| (b.var.clone(), format!("c{i}")))
        .collect();
    let rename_binding = |b: &Binding| Binding {
        var: map.get(&b.var).cloned().unwrap_or_else(|| b.var.clone()),
        src: b.src.rename(&map),
        kind: b.kind,
    };
    let rename_eqs = |eqs: &[Equality]| -> Vec<Equality> {
        let mut out: Vec<Equality> = eqs.iter().map(|e| e.rename(&map).normalized()).collect();
        out.sort();
        out.dedup();
        out
    };
    Dependency {
        name: String::new(),
        forall: sigma.forall.iter().map(rename_binding).collect(),
        premise: rename_eqs(&sigma.premise),
        exists: sigma.exists.iter().map(rename_binding).collect(),
        conclusion: rename_eqs(&sigma.conclusion),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcql::parser::{parse_dependency, parse_query};

    #[test]
    fn chase_memo_hits_on_alpha_equivalent_queries() {
        let d =
            parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.B = s.B").unwrap();
        let mut ctx = ChaseContext::new(vec![d], ChaseConfig::default());
        let q1 = parse_query("select struct(A = r.A) from R r").unwrap();
        let q2 = parse_query("select struct(A = x.A) from R x").unwrap();
        let o1 = ctx.chase(&q1);
        let o2 = ctx.chase(&q2);
        assert_eq!(o1.query.alpha_normalized(), o2.query.alpha_normalized());
        assert_eq!(ctx.stats().chase_hits, 1);
        assert_eq!(ctx.stats().chase_misses, 1);
    }

    #[test]
    fn containment_memo_and_disabled_context_agree() {
        let ric =
            parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.A = s.A").unwrap();
        let narrower = parse_query("select struct(A = r.A) from R r, S s where r.A = s.A").unwrap();
        let wider = parse_query("select struct(A = r.A) from R r").unwrap();
        let mut on = ChaseContext::new(vec![ric.clone()], ChaseConfig::default());
        let mut off = ChaseContext::without_memo(vec![ric], ChaseConfig::default());
        for _ in 0..3 {
            assert!(on.equivalent(&narrower, &wider));
            assert!(off.equivalent(&narrower, &wider));
        }
        assert!(on.stats().containment_hits > 0);
        assert_eq!(off.stats().containment_hits, 0);
        assert_eq!(off.stats().containment_misses, 6);
    }

    #[test]
    fn reordered_deps_keep_memos() {
        // Same theory, different slice order: the fingerprint is
        // order-insensitive, so no reset happens and warm memos survive.
        let ric =
            parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.A = s.A").unwrap();
        let other =
            parse_dependency("tic", "forall (t in T) -> exists (s in S) where t.B = s.B").unwrap();
        let narrower = parse_query("select struct(A = r.A) from R r, S s where r.A = s.A").unwrap();
        let wider = parse_query("select struct(A = r.A) from R r").unwrap();
        let cfg = ChaseConfig::default();
        let mut ctx = ChaseContext::new(vec![ric.clone(), other.clone()], cfg.clone());
        assert!(ctx.contained_in(&wider, &narrower));
        let reordered = [other, ric];
        assert_eq!(
            ChaseContext::fingerprint_of(&reordered, &cfg),
            ctx.fingerprint()
        );
        assert!(!ctx.ensure_deps(&reordered, &cfg));
        assert_eq!(ctx.stats().deps_resets, 0);
        assert_eq!(ctx.stats().reorder_resets_avoided, 1);
        // The memo is still warm.
        assert!(ctx.contained_in(&wider, &narrower));
        assert!(ctx.stats().containment_hits > 0);
    }

    #[test]
    fn ensure_deps_resets_stale_contexts() {
        // A memo computed under `ric` must not survive a switch to the
        // empty theory: the containment verdict genuinely flips.
        let ric =
            parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.A = s.A").unwrap();
        let narrower = parse_query("select struct(A = r.A) from R r, S s where r.A = s.A").unwrap();
        let wider = parse_query("select struct(A = r.A) from R r").unwrap();
        let cfg = ChaseConfig::default();
        let mut ctx = ChaseContext::new(vec![ric.clone()], cfg.clone());
        assert!(ctx.contained_in(&wider, &narrower));
        // Same theory: no-op, memos kept.
        assert!(!ctx.ensure_deps(std::slice::from_ref(&ric), &cfg));
        assert!(ctx.contained_in(&wider, &narrower));
        assert!(ctx.stats().containment_hits > 0);
        // Different theory: reset, and the answer is recomputed soundly.
        assert!(ctx.ensure_deps(&[], &cfg));
        assert_eq!(ctx.stats().deps_resets, 1);
        assert!(!ctx.contained_in(&wider, &narrower));
        // A different budget also forces a reset.
        let tighter = ChaseConfig {
            max_steps: 1,
            ..ChaseConfig::default()
        };
        assert!(ctx.ensure_deps(&[], &tighter));
        assert_eq!(ctx.stats().deps_resets, 2);
    }

    #[test]
    fn memo_cap_evicts_oldest_and_stays_sound() {
        let d =
            parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.B = s.B").unwrap();
        let cfg = ChaseConfig::default();
        let mut capped = ChaseContext::new(vec![d.clone()], cfg.clone()).with_memo_cap(2);
        assert_eq!(capped.memo_cap(), 2);
        let queries: Vec<_> = ["R", "S", "T", "R"]
            .iter()
            .map(|root| parse_query(&format!("select struct(A = x.A) from {root} x")).unwrap())
            .collect();
        let mut unbounded = ChaseContext::new(vec![d], cfg);
        for q in &queries {
            // Evicted entries are recomputed, never served stale: every
            // outcome matches the unbounded context's.
            assert_eq!(
                capped.chase(q).query.alpha_normalized(),
                unbounded.chase(q).query.alpha_normalized()
            );
        }
        // Three distinct queries through a cap of two: the oldest (R) was
        // evicted and its re-chase was a miss, not a hit.
        assert!(capped.stats().evictions >= 1, "{:?}", capped.stats());
        assert_eq!(capped.stats().chase_hits, 0);
        assert_eq!(capped.stats().chase_misses, 4);
        // The unbounded context served the repeat from the memo.
        assert_eq!(unbounded.stats().chase_hits, 1);
    }

    #[test]
    fn implication_memo_ignores_names_and_condition_order() {
        let key =
            parse_dependency("key", "forall (p in R) (q in R) where p.K = q.K -> p = q").unwrap();
        let g1 = parse_dependency(
            "g1",
            "forall (p in R) (q in R) where p.K = q.K -> p.B = q.B",
        )
        .unwrap();
        let g2 = parse_dependency(
            "g2",
            "forall (x in R) (y in R) where y.K = x.K -> x.B = y.B",
        )
        .unwrap();
        let mut ctx = ChaseContext::new(vec![key], ChaseConfig::default());
        assert!(ctx.implies(&g1));
        assert!(ctx.implies(&g2));
        assert_eq!(ctx.stats().implication_misses, 1);
        assert_eq!(ctx.stats().implication_hits, 1);
    }

    fn ric() -> Dependency {
        parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.A = s.A").unwrap()
    }

    /// `R r` restricted to `r.B = c`, with and without the `S` join the
    /// RIC makes redundant, plus the matching dependency `σ(c)`.
    fn constant_family(c: &str) -> (Query, Query, Dependency) {
        let wider =
            parse_query(&format!("select struct(A = r.A) from R r where r.B = {c}")).unwrap();
        let narrower = parse_query(&format!(
            "select struct(A = r.A) from R r, S s where r.A = s.A and r.B = {c}"
        ))
        .unwrap();
        let sigma = parse_dependency(
            "sigma",
            &format!("forall (r in R) where r.B = {c} -> exists (s in S) where r.A = s.A"),
        )
        .unwrap();
        (wider, narrower, sigma)
    }

    #[test]
    fn queries_differing_only_in_a_constant_share_verdicts() {
        let mut ctx = ChaseContext::new(vec![ric()], ChaseConfig::default());
        let (wider, narrower, sigma) = constant_family("\"cust5\"");
        assert!(ctx.equivalent(&wider, &narrower));
        assert!(ctx.implies(&sigma));
        let cold = ctx.stats();
        let (wider, narrower, sigma) = constant_family("\"cust7\"");
        assert!(ctx.equivalent(&wider, &narrower));
        assert!(ctx.implies(&sigma));
        let warm = ctx.stats();
        assert_eq!(warm.containment_misses, cold.containment_misses, "{warm:?}");
        assert_eq!(warm.implication_misses, cold.implication_misses, "{warm:?}");
        assert_eq!(warm.containment_hits, cold.containment_hits + 2);
        assert_eq!(warm.implication_hits, cold.implication_hits + 1);
        // An integer in the same position is the same problem too.
        let (wider, narrower, _) = constant_family("42");
        assert!(ctx.contained_in(&wider, &narrower));
        assert_eq!(ctx.stats().containment_misses, cold.containment_misses);
    }

    #[test]
    fn abstraction_preserves_the_equality_pattern_of_constants() {
        let keys = MemoKeys::new(&[ric()]);
        let q = |a: &str, b: &str| {
            parse_query(&format!(
                "select struct(C = r.C) from R r where r.A = {a} and r.B = {b}"
            ))
            .unwrap()
        };
        let same = q("3", "3");
        let distinct = q("3", "4");
        assert_ne!(
            keys.containment(&same, &same),
            keys.containment(&distinct, &distinct)
        );
        assert_eq!(
            keys.containment(&distinct, &distinct),
            keys.containment(&q("5", "6"), &q("5", "6"))
        );
        // One numbering spans both queries of a pair.
        assert_ne!(
            keys.containment(&q("3", "4"), &q("3", "4")),
            keys.containment(&q("3", "4"), &q("5", "6"))
        );
        // And the verdicts differ: `A = B` holds only when the constants
        // coincide, so memoizing one must not answer the other.
        let diagonal = parse_query("select struct(C = r.C) from R r where r.A = r.B").unwrap();
        let mut ctx = ChaseContext::new(vec![], ChaseConfig::default());
        assert!(ctx.contained_in(&same, &diagonal));
        assert!(!ctx.contained_in(&distinct, &diagonal));
        assert_eq!(ctx.stats().containment_hits, 0);
    }

    #[test]
    fn dependency_constants_stay_literal_in_memo_keys() {
        // Only gold customers are guaranteed an `S` partner, so the
        // verdict genuinely depends on which constant the query names.
        let gold = parse_dependency(
            "gold",
            "forall (r in R) where r.B = \"gold\" -> exists (s in S) where r.A = s.A",
        )
        .unwrap();
        let cfg = ChaseConfig::default();
        for order in [["\"gold\"", "\"silver\""], ["\"silver\"", "\"gold\""]] {
            // Built over another theory first, so the dependency constants
            // must be recomputed by the `ensure_deps` reset.
            let mut ctx = ChaseContext::new(vec![ric()], cfg.clone());
            assert!(ctx.implies(&constant_family("\"gold\"").2));
            assert!(ctx.ensure_deps(std::slice::from_ref(&gold), &cfg));
            for c in order {
                let (wider, narrower, sigma) = constant_family(c);
                let mut oracle = ChaseContext::without_memo(vec![gold.clone()], cfg.clone());
                let expected = c == "\"gold\"";
                assert_eq!(oracle.contained_in(&wider, &narrower), expected, "{c}");
                assert_eq!(oracle.implies(&sigma), expected, "{c}");
                assert_eq!(ctx.contained_in(&wider, &narrower), expected, "{c}");
                assert_eq!(ctx.implies(&sigma), expected, "{c}");
            }
            let stats = ctx.stats();
            assert_eq!(stats.containment_hits, 0, "{stats:?}");
            assert_eq!(stats.implication_hits, 0, "{stats:?}");
            // A third constant is abstracted and shares silver's verdicts.
            let (wider, narrower, sigma) = constant_family("\"bronze\"");
            assert!(!ctx.contained_in(&wider, &narrower));
            assert!(!ctx.implies(&sigma));
            assert_eq!(ctx.stats().containment_hits, 1);
            assert_eq!(ctx.stats().implication_hits, 1);
        }
    }
}
