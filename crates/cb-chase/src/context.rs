//! The memoized chase core.
//!
//! Every phase of chase & backchase bottoms out in the same three
//! questions — *what does `q` chase to?*, *is `q1 ⊑ q2`?*, *does `D ⊨ σ`
//! hold?* — and the backchase asks them once per node of an exponential
//! removal lattice. A [`ChaseContext`] owns one dependency set and one
//! [`ChaseConfig`], memoizes all three, and memoizes the lattice walk
//! built from their answers:
//!
//! * **phase-1 outcomes** ([`ChaseContext::chase`]), keyed by the
//!   *shape* of the input — the lattice key below, applied to the input
//!   — with the first input of the shape and its finished outcome. A
//!   later input of the shape, under other variable names or with other
//!   constants in the same order, is handed that outcome translated to
//!   its own names and constants;
//! * **containment verdicts**, keyed by the alpha-normalized pair with
//!   its constants abstracted (see below). Only the verdict is kept: a
//!   proof chases its subquery on a private state and stops the moment
//!   a witness homomorphism appears (sound, because every chase prefix
//!   is equivalent to the input);
//! * **implication verdicts** `D ⊨ σ`, keyed by a canonicalized `σ`
//!   (bound variables renamed, constants abstracted, conditions
//!   normalized and sorted) — lookup-safety and condition-pruning proofs
//!   repeat heavily across the lattice;
//! * **verified lattices**, keyed by the *shape* of the universal plan
//!   `u`: for every removal set a search walk examined, its dependent
//!   closure, its safe subquery (or that it has none), and — once some
//!   walk admitted it — the equivalence verdict with its witness. Phase 2
//!   depends only on the query and the constraints, so a re-preparation
//!   after a statistics refresh, or a query that differs from an earlier
//!   one only in a constant the dependencies never mention, replays the
//!   lattice without asking a single containment or implication
//!   question; the visitor still gates, orders, costs and prunes live.
//!   Next to them sit the **plan forms**
//!   ([`ChaseContext::prune_implied_conditions`]): which conditions of a
//!   lattice node survive the pruning of implied ones, keyed by the
//!   node's shape, so costing a replayed node asks no proof either. A
//!   replayed fact is handed back as (part of) a plan, so it must be
//!   byte-identical to the one a walk of the caller's own `u` derives.
//!   Every walk computes on `u`'s positional form (its variables renamed
//!   by binding position), a lattice keeps the facts of the form it was
//!   recorded for, and the walk translates each subquery it settles to
//!   the caller's variables (by binding position) and constants (by
//!   rank); a plan form is recorded by condition position and applies to
//!   the caller's own conditions. Subquery construction breaks ties by
//!   the structural order of paths (a class's representative, the order
//!   of implied conditions), so the lattice key keeps the *order* of
//!   `u`'s constants — not their values — and no variable name at all:
//!   see `MemoKeys::lattice`. Both memos pay off only when a shape comes
//!   back, so both admit an entry on its *second* request: the first
//!   leaves only the key's hash behind, and a workload whose shapes
//!   never repeat holds no lattice. Both count in
//!   [`CacheStats::lattice_hits`] / [`CacheStats::lattice_misses`], apart
//!   from the proof-memo totals [`CacheStats::hits`] /
//!   [`CacheStats::misses`].
//!
//! **Constant abstraction.** The chase treats constants as uninterpreted
//! symbols: a constant matches only itself, and no chase or hom rule
//! looks at its value. So the two boolean-valued memos key on a form in
//! which every constant the dependency set does not mention is replaced
//! by a placeholder (one numbering for both queries of a containment
//! pair, so equal constants stay equal and distinct ones stay distinct).
//! The renaming is injective and fixes the dependency constants, so it
//! maps one chase problem onto an isomorphic one: two questions with the
//! same key have the same verdict. `CustName = "cust7"` is answered from
//! the proofs made for `CustName = "cust5"`. Placeholders are numbered in
//! an order that ignores constant values — binding sources and outputs
//! by position, then conditions by their constant-erased form — so
//! `A = 2 and B = 9` and `A = 9 and B = 2` share keys. An isomorphism
//! the canonical form still fails to spot (two conditions with the same
//! erased form keep their value order) costs a memo miss, never a wrong
//! answer. A phase-1 outcome is keyed by shape, since the universal plan
//! depends only on the query's shape and the constraints; what a caller
//! gets is translated, so it always carries the caller's own names and
//! constants. The chase compares constants only for equality (a
//! trigger assigns variables, found in binding order), so an injective
//! renaming of an input's non-dependency constants renames its outcome;
//! the phase-1 key is the lattice key all the same, which also keeps
//! their order. So `CustName = "cust7"` is handed the universal plan of
//! `CustName = "cust5"`, while `A = 5 and B = 5` and `A = 2 and B = 9`
//! are chased apart.
//!
//! **Shards.** Every question is answered through `&self`, so one
//! context serves every worker of a search alike. The memos are distributed over 16 shards by the hash of
//! the memo key, each shard behind its own [`Mutex`]; workers touching
//! different keys contend only on the hash-selected shard. A poisoned
//! shard is recovered by discarding that shard's entries (a cache, always
//! safe to drop), counted in [`CacheStats::poison_recoveries`].
//!
//! Every proof is computed outside any lock (a chase can be the most
//! expensive operation in the system) on state private to its caller,
//! so two workers asking one question at once merely duplicate work,
//! and the hit/miss counters do not depend on the shard count.
//!
//! **Lattice checkout.** A verified lattice is the one memo entry a
//! caller mutates, at walk granularity: a search checks the lattice of
//! `u`'s shape out when it starts (a `CheckedOut` marker is left in its
//! place; its parallel workers share the one checked-out copy behind a
//! lock), fills it as it walks, and parks it when it ends. A concurrent
//! walk of the same shape works on a private lattice that is never
//! parked. The checkout's slot is an armed guard: a walk that unwinds,
//! or whose park panics or is lost to a fault, drops it armed, which
//! clears the marker and loses the lattice — its verdicts are merely
//! recomputed by the next walk. A lattice shed while checked out is
//! dropped at park time.
//!
//! [`CacheStats`] counts hits and misses so benchmarks (E7/E8) can
//! attribute speedups; [`ChaseContext::without_memo`] disables the
//! caches — the lattice memo included — for differential testing: a
//! memoized and a cache-disabled run must produce byte-identical
//! results.
//!
//! Two guards make long-lived contexts safe to hold: the context
//! fingerprints its `(dependency set, budget)` and
//! [`ChaseContext::ensure_deps`] drops every memo when asked to reason
//! over a different theory (the optimizer calls it per optimization, so
//! reusing one context across catalogs can no longer serve unsound
//! memos, verified lattices included), and
//! [`ChaseContext::set_byte_limit`] bounds the memos' approximate
//! footprint, a parked lattice's entries included: a shard over its share
//! of the limit sheds every entry ([`CacheStats::pressure_sheds`]). Both
//! are counted in [`CacheStats`].

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use pcql::query::{Binding, Equality, Output, Query};
use pcql::{Constant, Dependency, Path};

use crate::chase::{chase, ChaseConfig, ChaseOutcome, ChaseState, ChasedShape};
use crate::containment::output_matching_hom;
use crate::faults::{self, FaultKind};
use crate::implication::implies_uncached;
use crate::lattice::Lattice;
use crate::shape::Shape;

/// Cache hit/miss counters of a [`ChaseContext`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Phase-1 outcomes handed out by shape.
    pub chase_hits: u64,
    /// Chases run: phase-1 chases, plus one per containment proof.
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
    /// Poisoned shard mutexes recovered by discarding that shard's memo
    /// entries (a cache, always safe to drop).
    pub poison_recoveries: u64,
    /// Shards shed (all memo entries dropped) under memory pressure —
    /// either the approximate byte limit or an injected pressure signal.
    pub pressure_sheds: u64,
    /// Lattice children a search walk took entirely from the lattice
    /// memo (closure, subquery and, when admitted, the equivalence
    /// verdict), plus plan forms served by
    /// [`ChaseContext::prune_implied_conditions`]. Not part of
    /// [`CacheStats::hits`]: those count proof lookups.
    pub lattice_hits: u64,
    /// Lattice children for which a walk computed anything, plus plan
    /// forms computed. Not part of [`CacheStats::misses`].
    pub lattice_misses: u64,
}

impl CacheStats {
    /// Field-wise sum, used to aggregate the per-shard counters.
    fn absorb(&mut self, other: &CacheStats) {
        self.chase_hits += other.chase_hits;
        self.chase_misses += other.chase_misses;
        self.containment_hits += other.containment_hits;
        self.containment_misses += other.containment_misses;
        self.implication_hits += other.implication_hits;
        self.implication_misses += other.implication_misses;
        self.seeded_hom_hits += other.seeded_hom_hits;
        self.deps_resets += other.deps_resets;
        self.reorder_resets_avoided += other.reorder_resets_avoided;
        self.poison_recoveries += other.poison_recoveries;
        self.pressure_sheds += other.pressure_sheds;
        self.lattice_hits += other.lattice_hits;
        self.lattice_misses += other.lattice_misses;
    }

    /// Total proof-memo hits: chase, containment and implication. The
    /// lattice memo reports its own [`CacheStats::lattice_hits`].
    pub fn hits(&self) -> u64 {
        self.chase_hits + self.containment_hits + self.implication_hits
    }

    /// Total proof-memo misses: chase, containment and implication.
    pub fn misses(&self) -> u64 {
        self.chase_misses + self.containment_misses + self.implication_misses
    }

    /// Fraction of proof lookups answered from a cache (0.0 when nothing
    /// was asked).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// Shard count: enough that 2–8 workers rarely collide on a shard, small
/// enough that aggregating stats stays trivial.
const SHARDS: usize = 16;

/// A parked (or absent-while-borrowed) lattice memo entry.
enum LatticeState {
    Parked(Box<Lattice>),
    /// A walk holds the lattice; a concurrent walk of the same plan
    /// works on a private one instead.
    CheckedOut,
}

/// The `CheckedOut` marker a lattice checkout left in its shard, and
/// where the lattice parks again. Parking disarms it; dropped armed — a
/// walk that unwound, a park that panicked or was lost to a fault — it
/// removes the marker, so the slot is never stuck checked out.
pub(crate) struct LatticeSlot<'a> {
    ctx: &'a ChaseContext,
    key: Keyed<Query>,
    idx: usize,
    armed: bool,
}

impl Drop for LatticeSlot<'_> {
    fn drop(&mut self) {
        if self.armed {
            // `shard`, not `lock`: no failpoint may fire while unwinding.
            let mut shard = self.ctx.shard(self.idx);
            if matches!(
                shard.lattices.get(&self.key),
                Some(LatticeState::CheckedOut)
            ) {
                shard.lattices.remove(&self.key);
            }
        }
    }
}

/// A memo key with its hash computed once: the hash picks the shard and
/// is all the shard's table hashes, so each ask hashes its key once.
struct Keyed<K> {
    hash: u64,
    key: K,
}

impl<K: Hash> Keyed<K> {
    fn new(key: K) -> Keyed<K> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        Keyed {
            hash: h.finish(),
            key,
        }
    }
}

impl<K: PartialEq> PartialEq for Keyed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl<K: Eq> Eq for Keyed<K> {}

impl<K> Hash for Keyed<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The shard tables' hasher: passes a [`Keyed`] hash through.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type Memo<K, V> = HashMap<Keyed<K>, V, BuildHasherDefault<PassThrough>>;

/// One shard: a slice of each memo table plus its own counters, all
/// guarded by a single mutex.
#[derive(Default)]
struct MemoShard {
    /// Finished phase-1 chases, by the shape of their input.
    outcomes: Memo<Query, Arc<ChasedShape>>,
    containment: Memo<(Query, Arc<Query>), bool>,
    implication: Memo<Dependency, bool>,
    lattices: Memo<Query, LatticeState>,
    /// Plan forms: which conditions of a lattice node survive the
    /// pruning of implied ones, by position.
    plans: Memo<Query, Box<[bool]>>,
    /// Key hashes of the lattice shapes walked, and of the plan forms
    /// computed, at least once: the shape-keyed memos admit an entry
    /// only on its second request (see [`ChaseContext::checkout_lattice`]).
    lattices_sighted: HashSet<u64, BuildHasherDefault<PassThrough>>,
    plans_sighted: HashSet<u64, BuildHasherDefault<PassThrough>>,
    stats: CacheStats,
    /// Approximate bytes held by this shard's memos: a per-entry
    /// estimate added on insert, zeroed on shed/recovery. Overwrites are
    /// counted again — the over-count only makes pressure sheds fire
    /// *earlier*, and shedding is always sound.
    bytes: usize,
}

impl MemoShard {
    /// Drops every memo entry (a cache — always safe), keeping counters.
    fn clear_memos(&mut self) {
        self.outcomes.clear();
        self.containment.clear();
        self.implication.clear();
        self.lattices.clear();
        self.plans.clear();
        self.lattices_sighted.clear();
        self.plans_sighted.clear();
        self.bytes = 0;
    }

    /// Sheds this shard under memory pressure (counted).
    fn shed(&mut self) {
        self.clear_memos();
        self.stats.pressure_sheds += 1;
    }
}

/// Rough per-entry footprint of a memoized query (a key, or a query a
/// phase-1 outcome or a lattice holds): a fixed overhead plus a
/// per-AST-node constant. Only relative accuracy matters — the limit is
/// compared against sums.
pub(crate) fn approx_query_bytes(q: &Query) -> usize {
    64 + 48 * q.size()
}

/// Footprint of one sighted key hash (the admission filter of the
/// shape-keyed memos): the hash plus its table slot.
const SIGHTED_BYTES: usize = 16;

fn approx_dependency_bytes(d: &Dependency) -> usize {
    64 + 48 * (d.forall.len() + d.exists.len() + d.premise.len() + d.conclusion.len())
}

/// The `shared::park` failpoint (outside any lock — `shared::shard_lock`
/// covers the poisoning case): whether an injected transient error drops
/// the park, a lost cache write. Other kinds are recovered by parking.
fn park_lost() -> bool {
    match faults::hit("shared::park") {
        Ok(()) => false,
        Err(f) => {
            faults::note_recovered();
            f.kind == FaultKind::Error
        }
    }
}

/// The memoized chase core: one dependency set, one budget, and sharded
/// caches for chase outcomes, containment, implication and verified
/// lattices, shareable across threads. See the module docs for the
/// architecture.
pub struct ChaseContext {
    deps: Vec<Dependency>,
    cfg: ChaseConfig,
    caching: bool,
    /// Fingerprint of `(deps, cfg)` — the identity of the theory this
    /// context's memos are sound under.
    fingerprint: u64,
    /// Builds the constant-abstracted containment and implication keys.
    keys: MemoKeys,
    /// Approximate total memo-byte limit (`None` = unbounded); a shard
    /// exceeding its even split sheds itself.
    byte_limit: Option<usize>,
    shards: Vec<Mutex<MemoShard>>,
    /// Counters no shard owns: `ensure_deps` outcomes, and seeded
    /// witnesses and lattice children (counted by the search loop, not
    /// a shard lookup).
    deps_resets: u64,
    reorder_resets_avoided: u64,
    seeded_hom_hits: AtomicU64,
    lattice_hits: AtomicU64,
    lattice_misses: AtomicU64,
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
            byte_limit: None,
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            deps_resets: 0,
            reorder_resets_avoided: 0,
            seeded_hom_hits: AtomicU64::new(0),
            lattice_hits: AtomicU64::new(0),
            lattice_misses: AtomicU64::new(0),
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

    /// Re-shards the (empty) context to `n` shards.
    #[cfg(test)]
    pub(crate) fn with_shards(mut self, n: usize) -> ChaseContext {
        self.shards = (0..n.max(1)).map(|_| Mutex::default()).collect();
        self
    }

    /// Bounds the memos at approximately `bytes` across shards (`None`:
    /// unbounded, the default). A shard whose estimated footprint exceeds
    /// its even split of the limit *sheds itself* — drops every entry and
    /// counts a [`CacheStats::pressure_sheds`] — so `Some(0)` sheds on
    /// every insert. Shedding recomputes; it never changes a verdict.
    pub fn set_byte_limit(&mut self, bytes: Option<usize>) {
        self.byte_limit = bytes;
    }

    /// The approximate bytes currently held across all shards.
    #[cfg(test)]
    fn approx_memo_bytes(&self) -> usize {
        (0..self.shards.len()).map(|i| self.shard(i).bytes).sum()
    }

    /// Fingerprint of a dependency set + chase budget: a cheap first
    /// check on the identity of the theory a context's memos are sound
    /// under. **Order-insensitive**: the hash runs over the sorted
    /// canonical forms of the dependencies (`canonical_dep_set`), so
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
        let mut h = DefaultHasher::new();
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
        // The same slice and budget: nothing to fingerprint.
        if deps == self.deps && cfg == &self.cfg {
            return false;
        }
        let fp = ChaseContext::fingerprint_of(deps, cfg);
        // The fingerprint already hashes the canonical set; confirm
        // exactly so a collision cannot keep stale memos alive.
        if fp == self.fingerprint
            && cfg == &self.cfg
            && canonical_dep_set(deps) == canonical_dep_set(&self.deps)
        {
            self.reorder_resets_avoided += 1;
            return false;
        }
        self.deps = deps.to_vec();
        self.keys = MemoKeys::new(deps);
        self.cfg = cfg.clone();
        self.fingerprint = fp;
        for idx in 0..self.shards.len() {
            self.shard(idx).clear_memos();
        }
        self.deps_resets += 1;
        true
    }

    /// The dependency set this context reasons over.
    pub fn deps(&self) -> &[Dependency] {
        &self.deps
    }

    /// The chase budgets in force.
    pub fn cfg(&self) -> &ChaseConfig {
        &self.cfg
    }

    /// Whether the memos are on (off for [`ChaseContext::without_memo`]).
    pub(crate) fn caching(&self) -> bool {
        self.caching
    }

    /// A snapshot of the cache counters: the sum over every shard plus
    /// the counters no shard owns.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            deps_resets: self.deps_resets,
            reorder_resets_avoided: self.reorder_resets_avoided,
            seeded_hom_hits: self.seeded_hom_hits.load(Ordering::Relaxed),
            lattice_hits: self.lattice_hits.load(Ordering::Relaxed),
            lattice_misses: self.lattice_misses.load(Ordering::Relaxed),
            ..CacheStats::default()
        };
        for idx in 0..self.shards.len() {
            total.absorb(&self.shard(idx).stats);
        }
        total
    }

    /// The per-shard counters.
    #[cfg(test)]
    fn shard_stats(&self) -> Vec<CacheStats> {
        (0..self.shards.len())
            .map(|i| self.shard(i).stats)
            .collect()
    }

    /// Counts a containment check discharged by a parent-seeded witness.
    pub(crate) fn note_seeded_hom(&self) {
        self.seeded_hom_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one lattice child (or plan form): answered by the memo, or
    /// not.
    pub(crate) fn note_lattice(&self, hit: bool) {
        let counter = if hit {
            &self.lattice_hits
        } else {
            &self.lattice_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The shard of a key: high hash bits, so the low bits the shard's
    /// table indexes by stay spread within each shard.
    fn shard_of<K>(&self, key: &Keyed<K>) -> usize {
        (key.hash >> 32) as usize % self.shards.len()
    }

    /// Acquires a shard, recovering a poisoned mutex by discarding only
    /// that shard's memo entries: the contents are caches, so dropping
    /// them is always sound, and a thread that panicked mid-insert may
    /// have left a torn entry behind. Counted in
    /// [`CacheStats::poison_recoveries`].
    fn shard(&self, idx: usize) -> MutexGuard<'_, MemoShard> {
        self.shards[idx].lock().unwrap_or_else(|poisoned| {
            self.shards[idx].clear_poison();
            let mut g = poisoned.into_inner();
            g.clear_memos();
            g.stats.poison_recoveries += 1;
            g
        })
    }

    /// [`ChaseContext::shard`] plus the `shared::shard_lock` failpoint,
    /// fired *inside* the held lock: an injected panic here genuinely
    /// poisons the shard, exercising the recovery. A transient Err is
    /// recovered by proceeding with the guard; a pressure signal sheds
    /// the shard on the spot.
    fn lock(&self, idx: usize) -> MutexGuard<'_, MemoShard> {
        let mut guard = self.shard(idx);
        match faults::hit("shared::shard_lock") {
            Ok(()) => {}
            Err(f) if f.kind == FaultKind::MemPressure => {
                guard.shed();
                faults::note_recovered();
            }
            Err(_) => faults::note_recovered(),
        }
        guard
    }

    /// Enforces the byte limit after an insert grew the shard.
    fn enforce_byte_limit(&self, shard: &mut MemoShard) {
        if let Some(limit) = self.byte_limit {
            if shard.bytes > limit / self.shards.len() {
                shard.shed();
            }
        }
    }

    /// Locks shard `idx` for a lookup of a shared entry — a phase-1
    /// outcome or a lattice — behind the `shared::checkout` failpoint
    /// (fired before the lock, so a panic poisons nothing). An injected
    /// failure is recovered by proceeding; a pressure signal sheds the
    /// shard first.
    fn lock_for_checkout(&self, idx: usize) -> MutexGuard<'_, MemoShard> {
        let injected = faults::hit("shared::checkout").err();
        let mut shard = self.lock(idx);
        if let Some(f) = injected {
            faults::note_recovered();
            if f.kind == FaultKind::MemPressure {
                shard.shed();
            }
        }
        shard
    }

    /// The [`Shape`] of `q` under this context's dependencies: the
    /// lattice key of its [positional form](Query::positional)
    /// (`MemoKeys::lattice`), which renames variables by binding position
    /// and numbers the constants the dependencies never mention by rank,
    /// with those constants in value order. Two queries of one shape
    /// chase, walk and plan alike up to the [`Renaming`](crate::Renaming)
    /// between them; [`ShapeOrigin::renaming_to`](crate::ShapeOrigin::renaming_to)
    /// says when that renaming can be vouched for.
    pub fn shape(&self, q: &Query) -> Shape {
        let (key, constants) = self.keys.lattice(&q.positional());
        Shape { key, constants }
    }

    /// Chases `q` to a fixpoint (or budget), memoized by `q`'s
    /// [shape](ChaseContext::shape).
    ///
    /// The first input of a shape is chased and kept with its outcome;
    /// a later one is handed that outcome in its own names and constants
    /// (variables matched by binding position, constants by rank), which
    /// is what a chase of it derives: the chase treats constants as
    /// uninterpreted symbols and compares them only for equality, and the
    /// names it adds are those its fresh-name generator picks against
    /// `q`'s own ([`ShapeOrigin::renaming_to`](crate::ShapeOrigin::renaming_to)).
    /// Where no renaming can be vouched for, `q` is chased afresh,
    /// counted as a miss, and the memo is left as it was. The outcome
    /// lookup takes the checkout failpoint, the insert the park
    /// failpoint, but nothing is checked out: a kept outcome is immutable
    /// and shared.
    pub fn chase(&self, q: &Query) -> ChaseOutcome {
        let shape = self.shape(q);
        let key = Keyed::new(shape.key.clone());
        let idx = self.shard_of(&key);
        let found = {
            let mut shard = self.lock_for_checkout(idx);
            let found = self
                .caching
                .then(|| shard.outcomes.get(&key).cloned())
                .flatten();
            if found.is_none() {
                shard.stats.chase_misses += 1;
            }
            found
        };
        if let Some(shaped) = &found {
            let out = shaped.outcome_for(q, &shape);
            let mut shard = self.lock(idx);
            match out {
                Some(out) => {
                    shard.stats.chase_hits += 1;
                    return out;
                }
                None => shard.stats.chase_misses += 1,
            }
        }
        let out = chase(q, &self.deps, &self.cfg);
        if found.is_none() && self.caching && !park_lost() {
            let shaped = ChasedShape::new(q.clone(), shape, out.clone());
            let mut guard = self.lock(idx);
            let shard = &mut *guard;
            shard.bytes += approx_query_bytes(&key.key) + shaped.approx_bytes();
            shard
                .outcomes
                .entry(key)
                .or_insert_with(|| Arc::new(shaped));
            self.enforce_byte_limit(shard);
        }
        out
    }

    /// Is `q1 ⊑ q2` under this context's dependencies (set semantics)?
    ///
    /// Chases `q1` *lazily*: after every step the containment mapping
    /// from `q2` is retried, and the chase stops at the first witness —
    /// a sound early exit, since each chase prefix is equivalent to
    /// `q1`. A verdict of `false` still requires the fixpoint (or the
    /// budget), exactly like the eager test. The chase runs on a private
    /// state, outside any lock, and only the verdict is memoized.
    pub fn contained_in(&self, q1: &Query, q2: &Query) -> bool {
        self.contained_in_target(q1, q2, &self.containment_target(q2))
    }

    /// `q2`'s half of the containment key of `_ ⊑ q2`, for asking
    /// [`ChaseContext::contained_in_target`] about many subqueries of
    /// one target (a lattice walk asks it of every child of `u`).
    pub(crate) fn containment_target(&self, q2: &Query) -> ContainmentTarget {
        self.keys.target(q2)
    }

    /// [`ChaseContext::contained_in`] with `q2`'s half of the key built
    /// by [`ChaseContext::containment_target`]: the same key, the same
    /// memo entry, the same verdict.
    pub(crate) fn contained_in_target(
        &self,
        q1: &Query,
        q2: &Query,
        target: &ContainmentTarget,
    ) -> bool {
        // Failpoint: a transient Err is recovered by proceeding (the
        // proof below is deterministic); a panic unwinds to the caller's
        // catch. Placed before any lookup so no memo is torn.
        if faults::hit("context::contained_in").is_err() {
            faults::note_recovered();
        }
        let ckey = self.keys.containment(q1, target);
        let cidx = self.shard_of(&ckey);
        {
            let mut shard = self.lock(cidx);
            if self.caching {
                if let Some(&v) = shard.containment.get(&ckey) {
                    shard.stats.containment_hits += 1;
                    return v;
                }
            }
            shard.stats.containment_misses += 1;
            shard.stats.chase_misses += 1;
        }
        let mut state = ChaseState::new(q1);
        let result = loop {
            let hom =
                output_matching_hom(&mut state.graph, &state.query.output, q2, &self.cfg, None);
            if hom.is_some() {
                break true;
            }
            if !state.step(&self.deps, &self.cfg) {
                break false;
            }
        };
        if !self.caching {
            return result;
        }
        // Failpoint on the verdict insert: losing the cache write is
        // recovered by recomputation; pressure sheds the shard first.
        let mut pressured = false;
        if let Err(f) = faults::hit("shared::memo") {
            faults::note_recovered();
            if f.kind == FaultKind::Error {
                return result;
            }
            pressured = true;
        }
        let mut guard = self.lock(cidx);
        let shard = &mut *guard;
        if pressured {
            shard.shed();
        }
        shard.bytes += approx_query_bytes(&ckey.key.0) + approx_query_bytes(&ckey.key.1);
        shard.containment.insert(ckey, result);
        self.enforce_byte_limit(shard);
        result
    }

    /// Are the queries equivalent under this context's dependencies?
    pub fn equivalent(&self, q1: &Query, q2: &Query) -> bool {
        self.contained_in(q1, q2) && self.contained_in(q2, q1)
    }

    /// Checks the verified lattice of `base`'s shape out for one search
    /// walk (see the `lattice` module), where `base` is the walked plan
    /// in [positional form](Query::positional): the parked lattice on a
    /// hit, with the armed slot to park it in, and `base`'s
    /// non-dependency constants in rank order, which the walk pairs with
    /// the lattice's own to translate its facts. A lattice is only worth
    /// its memory if its shape is walked again — a re-preparation after a
    /// statistics refresh, or the same query under other names or with
    /// another constant — so a miss
    /// admits one only on the second walk of a shape: the first merely
    /// records the key's hash and walks on a private lattice that is
    /// never parked, the second records a fresh lattice into a new slot,
    /// and the third replays it. A workload that never repeats a shape
    /// therefore holds no lattice. A lattice another walk holds — or any
    /// lattice with caching off — is substituted by a private fresh one
    /// too. The `shared::checkout` failpoint is recovered by proceeding
    /// (a pressure signal sheds the shard first).
    pub(crate) fn checkout_lattice(
        &self,
        base: &Arc<Query>,
    ) -> (Lattice, Option<LatticeSlot<'_>>, Vec<Constant>) {
        if !self.caching {
            return (Lattice::new(Arc::clone(base), Vec::new()), None, Vec::new());
        }
        let (shape, constants) = self.keys.lattice(base);
        let key = Keyed::new(shape);
        let idx = self.shard_of(&key);
        let mut guard = self.lock_for_checkout(idx);
        let shard = &mut *guard;
        let fresh = || Lattice::new(Arc::clone(base), constants.clone());
        let (lattice, slot) = match shard.lattices.get_mut(&key) {
            Some(state) => match std::mem::replace(state, LatticeState::CheckedOut) {
                LatticeState::Parked(lattice) => (*lattice, true),
                LatticeState::CheckedOut => (fresh(), false),
            },
            None if shard.lattices_sighted.contains(&key.hash) => {
                shard.bytes += approx_query_bytes(&key.key);
                let marker = Keyed {
                    hash: key.hash,
                    key: key.key.clone(),
                };
                shard.lattices.insert(marker, LatticeState::CheckedOut);
                self.enforce_byte_limit(shard);
                (fresh(), true)
            }
            None => {
                shard.lattices_sighted.insert(key.hash);
                shard.bytes += SIGHTED_BYTES;
                self.enforce_byte_limit(shard);
                (fresh(), false)
            }
        };
        let slot = slot.then(|| LatticeSlot {
            ctx: self,
            key,
            idx,
            armed: true,
        });
        (lattice, slot, constants)
    }

    /// Parks a checked-out lattice, accounting the bytes it grew by and
    /// enforcing the byte limit, and disarms its slot. A slot shed
    /// meanwhile drops the lattice; a park lost to the `shared::park`
    /// failpoint leaves the slot armed, so dropping it clears the
    /// marker — as does a panic anywhere before the lattice is home.
    pub(crate) fn park_lattice(&self, mut slot: LatticeSlot<'_>, mut lattice: Lattice) {
        if park_lost() {
            return;
        }
        let mut guard = self.lock(slot.idx);
        let shard = &mut *guard;
        if let Some(state) = shard.lattices.get_mut(&slot.key) {
            shard.bytes += lattice.bytes - lattice.accounted;
            lattice.accounted = lattice.bytes;
            *state = LatticeState::Parked(Box::new(lattice));
            self.enforce_byte_limit(shard);
        }
        slot.armed = false;
    }

    /// `q` with every `where` condition the rest of `q` implies under
    /// the dependencies dropped, one condition at a time in order — the
    /// plan form the optimizer costs a lattice node in. The maximal `C'`
    /// of a backchase subquery routinely carries conditions like
    /// `t = I[t.PName]` that hold on every constraint-satisfying
    /// instance and would only cost lookups at run time. Memoized per
    /// shape: the key renames variables by binding position and
    /// abstracts constants but keeps the conditions in place, and the
    /// entry records which positions survive, so a hit applies to the
    /// caller's own conditions. Admitted from its second computation on
    /// — the admission rule of the lattice memo's checkout — and
    /// counted as lattice hits and misses, so a replayed lattice costs
    /// its nodes without a single implication lookup.
    pub fn prune_implied_conditions(&self, q: &Query) -> Query {
        let key = self.caching.then(|| Keyed::new(self.keys.plan_form(q)));
        if let Some(key) = &key {
            let hit = self.lock(self.shard_of(key)).plans.get(key).cloned();
            if let Some(kept) = hit {
                self.note_lattice(true);
                return with_conditions(q, &kept);
            }
        }
        self.note_lattice(false);
        let mut kept = vec![true; q.where_.len()];
        for (i, conclusion) in q.where_.iter().enumerate() {
            let premise = q
                .where_
                .iter()
                .zip(&kept)
                .enumerate()
                .filter(|&(j, (_, &k))| k && j != i)
                .map(|(_, (e, _))| e.clone())
                .collect();
            let sigma = Dependency::new(
                "prune",
                q.from.clone(),
                premise,
                vec![],
                vec![conclusion.clone()],
            );
            if self.implies(&sigma) {
                kept[i] = false;
            }
        }
        let plan = with_conditions(q, &kept);
        if let Some(key) = key {
            // Admitted on its second computation, like a lattice: a plan
            // form first only leaves its key hash.
            let mut guard = self.lock(self.shard_of(&key));
            let shard = &mut *guard;
            if shard.plans_sighted.insert(key.hash) {
                shard.bytes += SIGHTED_BYTES;
            } else {
                shard.bytes += approx_query_bytes(&key.key) + kept.len();
                shard.plans.insert(key, kept.into_boxed_slice());
            }
            self.enforce_byte_limit(shard);
        }
        plan
    }

    /// Does the dependency set imply `sigma` (as far as the bounded chase
    /// can tell)? Memoized on a canonicalized, constant-abstracted
    /// `sigma` and computed outside any lock; the underlying prover also
    /// early-exits the moment the conclusion is witnessed.
    pub fn implies(&self, sigma: &Dependency) -> bool {
        // Failpoint: same recovery contract as `contained_in`.
        if faults::hit("context::implies").is_err() {
            faults::note_recovered();
        }
        let key = Keyed::new(self.keys.implication(sigma));
        let idx = self.shard_of(&key);
        {
            let mut shard = self.lock(idx);
            if self.caching {
                if let Some(&v) = shard.implication.get(&key) {
                    shard.stats.implication_hits += 1;
                    return v;
                }
            }
            shard.stats.implication_misses += 1;
        }
        let v = implies_uncached(&self.deps, sigma, &self.cfg);
        if !self.caching {
            return v;
        }
        let mut guard = self.lock(idx);
        let shard = &mut *guard;
        shard.bytes += approx_dependency_bytes(&key.key);
        shard.implication.insert(key, v);
        self.enforce_byte_limit(shard);
        v
    }
}

/// Builds the keys of the two boolean-valued memos — containment and
/// implication verdicts — for one dependency set. A key
/// is the alpha-normalized (or canonicalized) form with every constant
/// the dependency set does not mention replaced by a placeholder; see the
/// module docs for why that is sound.
#[derive(Debug, Clone)]
struct MemoKeys {
    /// The constants the dependency set mentions: kept literal in keys,
    /// since a dependency can tell them apart from every other constant.
    dep_constants: BTreeSet<Constant>,
}

impl MemoKeys {
    fn new(deps: &[Dependency]) -> MemoKeys {
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

    /// The target half of containment keys `_ ⊑ q2`: `q2`
    /// alpha-normalized and constant-abstracted, its hash, and the
    /// numbering state the subquery half continues.
    fn target(&self, q2: &Query) -> ContainmentTarget {
        let mut key = q2.alpha_normalized();
        let mut abs = Abstraction::new(&self.dep_constants);
        abs.query(&mut key);
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        ContainmentTarget {
            key: Arc::new(key),
            hash: h.finish(),
            renamed: abs.renamed,
            next: abs.next,
        }
    }

    /// The containment key of `q1 ⊑ q2` given `q2`'s [`ContainmentTarget`]:
    /// `q1` alpha-normalized, then constant-abstracted continuing the
    /// target's numbering (placeholders are numbered from the target
    /// first, so equal constants across the pair stay equal). Its hash
    /// combines the target's precomputed hash with `q1`'s.
    fn containment(&self, q1: &Query, target: &ContainmentTarget) -> Keyed<(Query, Arc<Query>)> {
        let mut k1 = q1.alpha_normalized();
        let mut abs = Abstraction {
            fixed: &self.dep_constants,
            renamed: target.renamed.clone(),
            next: target.next,
        };
        abs.query(&mut k1);
        let mut h = DefaultHasher::new();
        h.write_u64(target.hash);
        k1.hash(&mut h);
        Keyed {
            hash: h.finish(),
            key: (k1, Arc::clone(&target.key)),
        }
    }

    /// The implication key of `sigma`: [`canonical_dependency`], then
    /// constant-abstracted.
    fn implication(&self, sigma: &Dependency) -> Dependency {
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

    /// The shape key of `base`, a query in [positional
    /// form](Query::positional) — the universal plan a lattice is walked
    /// on, or a phase-1 input — and `base`'s non-dependency constants in
    /// value order. The key is `base` with every non-dependency constant
    /// replaced by a placeholder numbered by its rank among all of
    /// `base`'s constants and the dependencies' own, everything else in
    /// place. So two queries with one key have positional forms that
    /// differ only in their non-dependency constants, by a renaming that
    /// keeps their order, also relative to every constant a chase of
    /// them may add: subquery construction and the plan ranking break
    /// ties by the structural order of paths, so a renaming that
    /// reordered the constants could pick other representatives, another
    /// condition order or another plan (see the module docs). Variable
    /// names cannot: the key has none of the caller's.
    fn lattice(&self, base: &Query) -> (Query, Vec<Constant>) {
        let mut key = base.clone();
        let mut all = self.dep_constants.clone();
        rewrite_paths(&mut key, &mut |p| {
            visit_constants(p, &mut |c| {
                all.insert(c.clone());
            });
        });
        let mut placeholders = HashMap::new();
        let mut constants = Vec::new();
        for (rank, c) in all.into_iter().enumerate() {
            if !self.dep_constants.contains(&c) {
                let mut ph = format!("\u{1}{rank}");
                while self.dep_constants.contains(&Constant::Str(ph.clone())) {
                    ph.push('\u{1}');
                }
                placeholders.insert(c.clone(), Constant::Str(ph));
                constants.push(c);
            }
        }
        rewrite_paths(&mut key, &mut |p| {
            rewrite_constants(p, &mut |c| {
                if let Some(ph) = placeholders.get(c) {
                    *c = ph.clone();
                }
            });
        });
        (key, constants)
    }

    /// The key of the plan form of `q`: variables renamed by binding
    /// position and constants abstracted in order of occurrence, with
    /// the conditions left in place, since the plan form records the
    /// surviving conditions by position.
    fn plan_form(&self, q: &Query) -> Query {
        let mut key = q.positional();
        let mut abs = Abstraction::new(&self.dep_constants);
        rewrite_paths(&mut key, &mut |p| abs.path(p));
        key
    }
}

/// Lets `f` rewrite every path of `q` in place: output, binding sources,
/// conditions.
fn rewrite_paths(q: &mut Query, f: &mut impl FnMut(&mut Path)) {
    match &mut q.output {
        Output::Struct(fields) => fields.values_mut().for_each(&mut *f),
        Output::Path(p) => f(p),
    }
    for b in q.from.iter_mut() {
        f(&mut b.src);
    }
    for e in q.where_.iter_mut() {
        f(&mut e.0);
        f(&mut e.1);
    }
}

/// `q` keeping only the conditions `kept` marks.
fn with_conditions(q: &Query, kept: &[bool]) -> Query {
    Query {
        output: q.output.clone(),
        from: q.from.clone(),
        where_: q
            .where_
            .iter()
            .zip(kept)
            .filter(|&(_, &k)| k)
            .map(|(e, _)| e.clone())
            .collect(),
    }
}

/// `q2`'s half of the containment key of `_ ⊑ q2`; see
/// [`ChaseContext::containment_target`].
pub(crate) struct ContainmentTarget {
    key: Arc<Query>,
    hash: u64,
    renamed: HashMap<Constant, Constant>,
    next: usize,
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
        rewrite_constants(p, &mut |c| {
            if !self.fixed.contains(c) {
                *c = self.placeholder(c);
            }
        });
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
    /// equality oriented, the list sorted and deduplicated. Placeholders
    /// are handed out in an order that ignores constant values: the
    /// conditions that hold a constant to rename, by their
    /// constant-erased form, the given order breaking ties. So `A = 2
    /// and B = 9` and `A = 9 and B = 2` number alike.
    fn conditions(&mut self, eqs: &mut Vec<Equality>) {
        let mut order: Vec<(Equality, usize)> = eqs
            .iter()
            .enumerate()
            .filter(|(_, e)| self.renames(&e.0) || self.renames(&e.1))
            .map(|(i, e)| (self.erased(e), i))
            .collect();
        order.sort();
        for (_, i) in order {
            let e = &mut eqs[i];
            self.path(&mut e.0);
            self.path(&mut e.1);
        }
        for e in eqs.iter_mut() {
            if e.1 < e.0 {
                std::mem::swap(&mut e.0, &mut e.1);
            }
        }
        eqs.sort();
        eqs.dedup();
    }

    /// Does `p` hold a constant this abstraction renames?
    fn renames(&self, p: &Path) -> bool {
        let mut found = false;
        visit_constants(p, &mut |c| found |= !self.fixed.contains(c));
        found
    }

    /// `e` oriented with every constant to rename replaced by one
    /// marker: the condition's place in the numbering order.
    fn erased(&self, e: &Equality) -> Equality {
        let erase = |p: &Path| -> Path {
            let mut p = p.clone();
            rewrite_constants(&mut p, &mut |c| {
                if !self.fixed.contains(c) {
                    *c = Constant::Str(String::new());
                }
            });
            p
        };
        Equality(erase(&e.0), erase(&e.1)).normalized()
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

/// Calls `f` on every constant of `p`.
fn visit_constants<'p>(p: &'p Path, f: &mut impl FnMut(&'p Constant)) {
    match p {
        Path::Const(c) => f(c),
        Path::Var(_) | Path::Root(_) => {}
        Path::Field(p, _) | Path::Dom(p) => visit_constants(p, f),
        Path::Get(p, k) | Path::GetOrEmpty(p, k) => {
            visit_constants(p, f);
            visit_constants(k, f);
        }
    }
}

/// Lets `f` rewrite every constant of `p` in place.
fn rewrite_constants(p: &mut Path, f: &mut impl FnMut(&mut Constant)) {
    match p {
        Path::Const(c) => f(c),
        Path::Var(_) | Path::Root(_) => {}
        Path::Field(p, _) | Path::Dom(p) => rewrite_constants(p, f),
        Path::Get(p, k) | Path::GetOrEmpty(p, k) => {
            rewrite_constants(p, f);
            rewrite_constants(k, f);
        }
    }
}

/// The canonical form of a dependency *set*: each dependency
/// canonicalized ([`canonical_dependency`]) and the whole slice sorted,
/// so two orderings of the same constraints compare (and hash) equal.
/// Duplicates are kept — a multiset, not a set — so the comparison in
/// [`ChaseContext::ensure_deps`] stays an exact confirmation.
fn canonical_dep_set(deps: &[Dependency]) -> Vec<Dependency> {
    let mut out: Vec<Dependency> = deps.iter().map(canonical_dependency).collect();
    out.sort();
    out
}

/// Canonical memo key for a dependency: bound variables renamed to
/// `c0, c1, …` in (forall, exists) order, name cleared, conditions
/// normalized, sorted and deduplicated. Two dependencies that differ
/// only in variable names or condition order share a key.
fn canonical_dependency(sigma: &Dependency) -> Dependency {
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
        let ctx = ChaseContext::new(vec![d], ChaseConfig::default());
        let q1 = parse_query("select struct(A = r.A) from R r").unwrap();
        let q2 = parse_query("select struct(A = x.A) from R x").unwrap();
        let o1 = ctx.chase(&q1);
        let o2 = ctx.chase(&q2);
        assert_eq!(o1.query.alpha_normalized(), o2.query.alpha_normalized());
        assert_eq!(ctx.stats().chase_hits, 1);
        assert_eq!(ctx.stats().chase_misses, 1);
        // The hit comes back in the caller's names, as a chase of its own
        // query would — also when its name is one the chase's fresh-name
        // generator tries (`s0`), which the memoized outcome cannot vouch
        // for.
        let q3 = parse_query("select struct(A = s0.A) from R s0").unwrap();
        for q in [&q2, &q3] {
            let fresh = chase(q, ctx.deps(), ctx.cfg());
            let hit = ctx.chase(q);
            assert_eq!(hit.query, fresh.query);
            assert_eq!(format!("{:?}", hit.steps), format!("{:?}", fresh.steps));
        }
        assert_eq!(
            o2.query.to_string(),
            "select struct(A = x.A) from R x, S s0 where x.B = s0.B"
        );
    }

    /// `q`'s outcome on `ctx` equals a memo-free chase of it, steps
    /// included.
    fn assert_chases_as_fresh(ctx: &ChaseContext, q: &Query) -> ChaseOutcome {
        let got = ctx.chase(q);
        let want = ChaseContext::without_memo(ctx.deps().to_vec(), ctx.cfg().clone()).chase(q);
        assert_eq!(got.query, want.query, "{q}");
        assert_eq!(
            format!("{:?}", got.steps),
            format!("{:?}", want.steps),
            "{q}"
        );
        assert_eq!(got.complete, want.complete, "{q}");
        got
    }

    #[test]
    fn a_constant_variant_is_handed_the_outcome_in_its_own_constants() {
        let ctx = ChaseContext::new(theory(), ChaseConfig::default());
        let q = |c: &str| {
            parse_query(&format!(
                "select struct(A = r.A) from R r, R p where r.K = p.K and r.CustName = \"{c}\""
            ))
            .unwrap()
        };
        let first = assert_chases_as_fresh(&ctx, &q("cust5"));
        assert_eq!((ctx.stats().chase_misses, ctx.stats().chase_hits), (1, 0));
        assert!(!first.steps.is_empty(), "{first:?}");
        let second = assert_chases_as_fresh(&ctx, &q("cust7"));
        assert_eq!((ctx.stats().chase_misses, ctx.stats().chase_hits), (1, 1));
        let text = second.query.to_string();
        assert!(
            text.contains("\"cust7\"") && !text.contains("cust5"),
            "{text}"
        );
    }

    #[test]
    fn an_equality_of_constants_never_shares_an_outcome() {
        let ctx = ChaseContext::new(theory(), ChaseConfig::default());
        let q = |a: i64, b: i64| {
            parse_query(&format!(
                "select struct(A = r.A) from R r where r.A = {a} and r.B = {b}"
            ))
            .unwrap()
        };
        assert_chases_as_fresh(&ctx, &q(5, 5));
        assert_chases_as_fresh(&ctx, &q(2, 9));
        assert_eq!((ctx.stats().chase_misses, ctx.stats().chase_hits), (2, 0));
        // Each is the shape of its own kind of variant.
        assert_chases_as_fresh(&ctx, &q(1, 7));
        assert_chases_as_fresh(&ctx, &q(3, 3));
        assert_eq!((ctx.stats().chase_misses, ctx.stats().chase_hits), (2, 2));
    }

    #[test]
    fn a_name_the_chase_tried_is_handed_the_names_its_own_chase_adds() {
        let tgd = parse_dependency(
            "tgd",
            "forall (r in R) -> exists (k in S) (t in T) where r.B = k.B and k.C = t.C",
        )
        .unwrap();
        let ctx = ChaseContext::new(vec![tgd], ChaseConfig::default());
        let q = |v: &str, c: i64| {
            parse_query(&format!(
                "select struct(A = {v}.A) from R {v} where {v}.C = {c}"
            ))
            .unwrap()
        };
        let first = assert_chases_as_fresh(&ctx, &q("r", 1));
        assert!(first.query.to_string().contains("S k0, T t1"), "{first:?}");
        // `k0` and `t1` are names the chase of the first input added: a
        // caller binding one makes the chase pick others, and the hit
        // hands over exactly those.
        let tried = assert_chases_as_fresh(&ctx, &q("k0", 2));
        assert!(tried.query.to_string().contains("S k1, T t2"), "{tried:?}");
        let shifted = assert_chases_as_fresh(&ctx, &q("t1", 3));
        assert!(
            shifted.query.to_string().contains("S k0, T t2"),
            "{shifted:?}"
        );
        assert_eq!((ctx.stats().chase_misses, ctx.stats().chase_hits), (1, 2));
    }

    #[test]
    fn an_origin_that_bound_a_tried_name_still_translates() {
        let tgd =
            parse_dependency("tgd", "forall (r in R) -> exists (k in S) where r.B = k.B").unwrap();
        let ctx = ChaseContext::new(vec![tgd], ChaseConfig::default());
        let q = |v: &str, c: i64| {
            parse_query(&format!(
                "select struct(A = {v}.A) from R {v} where {v}.C = {c}"
            ))
            .unwrap()
        };
        let first = assert_chases_as_fresh(&ctx, &q("k0", 1));
        assert!(first.query.to_string().contains("S k1"), "{first:?}");
        let other = assert_chases_as_fresh(&ctx, &q("x", 2));
        assert!(other.query.to_string().contains("S k0"), "{other:?}");
        assert_eq!((ctx.stats().chase_misses, ctx.stats().chase_hits), (1, 1));
    }

    #[test]
    fn containment_memo_and_disabled_context_agree() {
        let ric =
            parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.A = s.A").unwrap();
        let narrower = parse_query("select struct(A = r.A) from R r, S s where r.A = s.A").unwrap();
        let wider = parse_query("select struct(A = r.A) from R r").unwrap();
        let on = ChaseContext::new(vec![ric.clone()], ChaseConfig::default());
        let off = ChaseContext::without_memo(vec![ric], ChaseConfig::default());
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
        let ctx = ChaseContext::new(vec![key], ChaseConfig::default());
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
        let ctx = ChaseContext::new(vec![ric()], ChaseConfig::default());
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
        let containment = |q1: &Query, q2: &Query| keys.containment(q1, &keys.target(q2)).key;
        let q = |a: &str, b: &str| {
            parse_query(&format!(
                "select struct(C = r.C) from R r where r.A = {a} and r.B = {b}"
            ))
            .unwrap()
        };
        let same = q("3", "3");
        let distinct = q("3", "4");
        assert_ne!(containment(&same, &same), containment(&distinct, &distinct));
        assert_eq!(
            containment(&distinct, &distinct),
            containment(&q("5", "6"), &q("5", "6"))
        );
        // One numbering spans both queries of a pair.
        assert_ne!(
            containment(&q("3", "4"), &q("3", "4")),
            containment(&q("3", "4"), &q("5", "6"))
        );
        // And the verdicts differ: `A = B` holds only when the constants
        // coincide, so memoizing one must not answer the other.
        let diagonal = parse_query("select struct(C = r.C) from R r where r.A = r.B").unwrap();
        let ctx = ChaseContext::new(vec![], ChaseConfig::default());
        assert!(ctx.contained_in(&same, &diagonal));
        assert!(!ctx.contained_in(&distinct, &diagonal));
        assert_eq!(ctx.stats().containment_hits, 0);
    }

    #[test]
    fn placeholder_numbering_ignores_constant_values() {
        let keys = MemoKeys::new(&[ric()]);
        let q = |a: i64, b: i64| {
            parse_query(&format!(
                "select struct(C = r.C) from R r where r.A = {a} and r.B = {b}"
            ))
            .unwrap()
        };
        let containment = |a, b| {
            let q = q(a, b);
            keys.containment(&q, &keys.target(&q)).key
        };
        let implication = |a: i64, b: i64| {
            keys.implication(
                &parse_dependency(
                    "d",
                    &format!("forall (r in R) where r.A = {a} and r.B = {b} -> r.C = r.A"),
                )
                .unwrap(),
            )
        };
        let lattice = |a, b| keys.lattice(&q(a, b).positional()).0;
        // The same equality pattern in either value order: one key.
        assert_eq!(containment(2, 9), containment(9, 2));
        assert_eq!(implication(2, 9), implication(9, 2));
        // A lattice key keeps the order of the constants too (subquery
        // construction breaks ties by it), and nothing else about them.
        assert_eq!(lattice(2, 9), lattice(1, 5));
        assert_ne!(lattice(2, 9), lattice(9, 2));
        assert_eq!(lattice(9, 2), lattice(7, 3));
        // An equality between constants is never abstracted away.
        assert_ne!(containment(5, 5), containment(5, 6));
        assert_ne!(implication(5, 5), implication(5, 6));
        assert_ne!(lattice(5, 5), lattice(5, 6));
        assert_ne!(lattice(5, 5), lattice(6, 5));
        // Variables are matched by binding position, whatever their
        // names and their order.
        let two = |[x, y]: [&str; 2]| {
            let q =
                format!("select struct(C = {x}.C) from R {x}, R {y} where {x}.A = 1 and {y}.B = 5");
            keys.lattice(&parse_query(&q).unwrap().positional()).0
        };
        assert_eq!(two(["a", "b"]), two(["b", "a"]));
        assert_eq!(two(["a", "b"]), two(["zz", "k0"]));
    }

    /// Entry counts of the shape-keyed tables across all shards:
    /// lattices, lattices sighted, plan forms, plan forms sighted.
    fn shape_table_sizes(ctx: &ChaseContext) -> [usize; 4] {
        (0..ctx.shards.len()).fold([0; 4], |acc, i| {
            let shard = ctx.shard(i);
            [
                acc[0] + shard.lattices.len(),
                acc[1] + shard.lattices_sighted.len(),
                acc[2] + shard.plans.len(),
                acc[3] + shard.plans_sighted.len(),
            ]
        })
    }

    #[test]
    fn constant_churn_leaves_the_shape_memos_bounded() {
        use crate::{ExploreAll, PlanSearch};
        let ctx = ChaseContext::new(vec![ric()], ChaseConfig::default());
        let walk = |k: usize| {
            let u = parse_query(&format!(
                "select struct(A = r.A) from R r, S s where r.A = s.A and r.C = \"c{k}\""
            ))
            .unwrap();
            let out = PlanSearch::new(&u).run(&ctx, &ExploreAll);
            assert_eq!(out.visited.len(), 2, "{out:?}");
            for q in &out.visited {
                let plan = ctx.prune_implied_conditions(q);
                assert!(plan.to_string().contains(&format!("\"c{k}\"")), "{plan}");
            }
        };
        for k in 0..3 {
            walk(k);
        }
        let warm = shape_table_sizes(&ctx);
        assert_eq!(warm, [1, 1, 2, 2], "one lattice and two plan forms");
        let replays = ctx.stats().lattice_hits;
        for k in 3..200 {
            walk(k);
        }
        assert_eq!(shape_table_sizes(&ctx), warm);
        let stats = ctx.stats();
        assert!(stats.lattice_hits > replays, "{stats:?}");
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
                let oracle = ChaseContext::without_memo(vec![gold.clone()], cfg.clone());
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

    fn theory() -> Vec<Dependency> {
        vec![
            parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.B = s.B").unwrap(),
            parse_dependency("key", "forall (p in R) (q in R) where p.K = q.K -> p = q").unwrap(),
        ]
    }

    /// One fixed workload asked of a context; returns the verdicts so
    /// differential tests can compare them too.
    fn run_workload(ctx: &ChaseContext) -> Vec<bool> {
        let qs: Vec<Query> = [
            "select struct(A = r.A) from R r",
            "select struct(A = x.A) from R x", // alpha-equivalent: a hit
            "select struct(A = r.A) from R r, S s where r.B = s.B",
            "select struct(B = s.B) from S s",
            // Differ only in a constant: containment keys shared.
            "select struct(A = r.A) from R r where r.B = 1",
            "select struct(A = r.A) from R r where r.B = 2",
        ]
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect();
        let sigma =
            parse_dependency("g", "forall (p in R) (q in R) where p.K = q.K -> p.B = q.B").unwrap();
        let mut verdicts = Vec::new();
        for q in &qs {
            ctx.chase(q);
        }
        for a in &qs {
            for b in &qs {
                verdicts.push(ctx.contained_in(a, b));
            }
        }
        // Repeat one pair: containment memo hit.
        verdicts.push(ctx.contained_in(&qs[0], &qs[2]));
        verdicts.push(ctx.implies(&sigma));
        verdicts.push(ctx.implies(&sigma)); // implication memo hit
        verdicts
    }

    /// The memo-free oracle's verdicts on the workload.
    fn oracle_verdicts() -> Vec<bool> {
        run_workload(&ChaseContext::without_memo(
            theory(),
            ChaseConfig::default(),
        ))
    }

    #[test]
    fn shard_count_does_not_change_verdicts_or_counters() {
        let oracle = oracle_verdicts();
        let runs: Vec<(Vec<bool>, CacheStats)> = [1, 4, 16]
            .into_iter()
            .map(|shards| {
                let ctx = ChaseContext::new(theory(), ChaseConfig::default()).with_shards(shards);
                (run_workload(&ctx), ctx.stats())
            })
            .collect();
        for (shards, (verdicts, stats)) in [1, 4, 16].into_iter().zip(&runs) {
            assert_eq!(verdicts, &oracle, "verdicts @ {shards} shards");
            assert_eq!(stats, &runs[0].1, "stats @ {shards} shards");
        }
        let stats = runs[0].1;
        assert!(stats.chase_hits > 0);
        // The 36 pairs span 17 constant-abstracted keys (25 if constants
        // stayed literal), plus one repeated pair.
        assert_eq!(stats.containment_hits, 36 - 17 + 1);
        assert_eq!(stats.implication_hits, 1);
    }

    #[test]
    fn concurrent_workers_agree_with_sequential_verdicts() {
        let oracle = oracle_verdicts();
        let ctx = ChaseContext::new(theory(), ChaseConfig::default());
        let all: Vec<Vec<bool>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4).map(|_| scope.spawn(|| run_workload(&ctx))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for verdicts in all {
            assert_eq!(verdicts, oracle);
        }
        // Contention may duplicate work (extra misses) and cross-worker
        // memo hits may skip it, but every distinct question was computed
        // at least once: no fewer lookups than one single-threaded pass.
        let single = ChaseContext::new(theory(), ChaseConfig::default());
        run_workload(&single);
        let (stats, one) = (ctx.stats(), single.stats());
        assert!(stats.hits() + stats.misses() >= one.hits() + one.misses());
    }

    #[test]
    fn seeded_homs_are_counted_from_every_thread() {
        let ctx = ChaseContext::new(theory(), ChaseConfig::default());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| ctx.note_seeded_hom());
            }
        });
        assert_eq!(ctx.stats().seeded_hom_hits, 2);
    }

    #[test]
    fn poisoned_shard_recovers_by_discarding_only_that_shard() {
        let ctx = ChaseContext::new(theory(), ChaseConfig::default()).with_shards(2);
        let oracle = oracle_verdicts();
        assert_eq!(run_workload(&ctx), oracle);
        // Poison shard 0 by panicking while holding its guard.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = ctx.lock(0);
            panic!("poison shard 0");
        }));
        // Every verdict is still served, and exactly one recovery is
        // counted; the other shard's memos survive untouched.
        assert_eq!(run_workload(&ctx), oracle);
        let stats = ctx.stats();
        assert_eq!(stats.poison_recoveries, 1, "{stats:?}");
        let per_shard = ctx.shard_stats();
        assert_eq!(per_shard[0].poison_recoveries, 1);
        assert_eq!(per_shard[1].poison_recoveries, 0);
    }

    #[test]
    fn byte_limit_sheds_shards_without_changing_verdicts() {
        // A limit far below one entry's footprint: every insert sheds.
        let mut ctx = ChaseContext::new(theory(), ChaseConfig::default()).with_shards(1);
        ctx.set_byte_limit(Some(32));
        assert_eq!(run_workload(&ctx), oracle_verdicts());
        let stats = ctx.stats();
        assert!(stats.pressure_sheds > 0, "{stats:?}");
        assert!(ctx.approx_memo_bytes() <= 32 * 2, "sheds keep it tiny");
        // An unbounded context never sheds.
        let unbounded = ChaseContext::new(theory(), ChaseConfig::default());
        run_workload(&unbounded);
        assert_eq!(unbounded.stats().pressure_sheds, 0);
    }

    #[test]
    fn injected_checkout_failures_are_recovered() {
        let _guard = faults::ScopedFaults::install("shared::checkout=err@1").unwrap();
        let ctx = ChaseContext::new(theory(), ChaseConfig::default());
        assert_eq!(run_workload(&ctx), oracle_verdicts());
        let fs = faults::stats();
        assert_eq!(fs.injected, 1);
        assert_eq!(fs.injected, fs.acknowledged(), "{fs:?}");
    }

    #[test]
    fn a_panic_between_checkout_and_park_leaves_no_stuck_slot() {
        let q = parse_query("select struct(A = r.A) from R r").unwrap();
        let ctx = ChaseContext::new(theory(), ChaseConfig::default());
        {
            let _guard = faults::ScopedFaults::install("shared::park=panic@1").unwrap();
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.chase(&q)));
            let payload = unwound.expect_err("the park panics");
            assert!(faults::is_injected_panic(payload.as_ref()));
        }
        // The unwound park left nothing behind: the next chase is a
        // plain miss, and the one after a hit.
        let before = ctx.stats();
        ctx.chase(&q);
        let after = ctx.stats();
        assert_eq!(after.chase_misses, before.chase_misses + 1, "{after:?}");
        ctx.chase(&q);
        assert_eq!(ctx.stats().chase_hits, after.chase_hits + 1);
    }

    #[test]
    fn a_containment_proof_chases_afresh_and_keeps_no_state() {
        let ctx = ChaseContext::new(theory(), ChaseConfig::default());
        let q = parse_query("select struct(A = r.A) from R r").unwrap();
        let a = parse_query("select struct(A = r.A) from R r, S s where r.B = s.B").unwrap();
        let b = parse_query("select struct(B = s.B) from S s").unwrap();
        assert!(ctx.contained_in(&q, &a));
        assert!(!ctx.contained_in(&q, &b));
        // Two questions of one subquery: two chases, nothing resumed.
        let stats = ctx.stats();
        assert_eq!((stats.chase_misses, stats.chase_hits), (2, 0), "{stats:?}");
        assert_eq!(stats.containment_misses, 2, "{stats:?}");
        // A repeated question is a verdict hit and runs no chase.
        assert!(ctx.contained_in(&q, &a));
        let stats = ctx.stats();
        assert_eq!((stats.chase_misses, stats.chase_hits), (2, 0), "{stats:?}");
        assert_eq!(stats.containment_hits, 1, "{stats:?}");
    }
}
