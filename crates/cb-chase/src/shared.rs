//! A thread-shareable chase core: the three memo tables of
//! [`ChaseContext`] sharded behind per-shard locks.
//!
//! The parallel backchase ([`ParallelPlanSearch`](crate::ParallelPlanSearch))
//! runs N workers against one memoized prover, so the single-owner
//! `&mut`-threaded [`ChaseContext`] cannot serve it. A
//! [`SharedChaseContext`] keeps the same three memos — chase states,
//! containment verdicts, implication verdicts — but distributes each over
//! [`SharedChaseContext::with_shards`] shards, keyed by the hash of the
//! same memo keys the sequential context uses (alpha-normalized chase
//! states; constant-abstracted containment pairs and dependencies, built
//! by the one helper both contexts share), each shard behind its own
//! [`Mutex`]. Workers touching different keys contend only on the
//! hash-selected shard, never on the core.
//!
//! **Checkout protocol.** Chase states are *resumable* and must be
//! stepped under `&mut` access, which a shard lock must not be held for
//! (a chase step can be the most expensive operation in the system). An
//! entry is therefore *checked out* of its shard
//! ([`ChaseSlot::CheckedOut`] is left in its place), stepped outside the
//! lock, and parked again afterwards. A worker that needs a state
//! currently checked out by another worker — the out-of-order
//! parent/child arrival the lattice walk makes routine — does not block:
//! it falls back to a fresh chase from scratch (counted as a miss) and
//! throws its private state away, letting the owner park the canonical
//! one. Contention can therefore duplicate work, never corrupt it; with
//! one worker the hit/miss accounting is identical to the sequential
//! context's.
//!
//! Per-shard [`CacheStats`] are aggregated by [`SharedChaseContext::stats`]
//! via [`CacheStats::absorb`]; [`SharedChaseContext::with_memo_cap`]
//! splits the FIFO eviction cap evenly across shards (with one shard the
//! eviction order is exactly the sequential context's).

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use pcql::query::Query;
use pcql::Dependency;

use crate::chase::{ChaseConfig, ChaseOutcome, ChaseState};
use crate::containment::output_matching_hom;
use crate::context::{
    insert_bounded, CacheStats, ChaseContext, ChaseProver, ChasedEntry, MemoKeys,
};
use crate::faults::{self, FaultKind};
use crate::implication::implies_uncached;

/// Default shard count: enough that 2–8 workers rarely collide on a
/// shard, small enough that aggregating stats stays trivial.
const DEFAULT_SHARDS: usize = 16;

/// Bounded retries on a contended (or transiently failing) checkout
/// before falling back to a private fresh chase. The backoff per attempt
/// is tiny — a parked state usually returns within one chase step.
const CHECKOUT_RETRIES: usize = 3;

/// Bounded backoff between checkout attempts: yield first (the common
/// case — the owner is one step from parking), then sleep briefly.
fn backoff(attempt: usize) {
    match attempt {
        0 => std::thread::yield_now(),
        n => std::thread::sleep(Duration::from_micros(20 << n.min(4))),
    }
}

/// A parked (or absent-while-borrowed) chase memo entry.
enum ChaseSlot {
    /// The resumable state is home and may be checked out.
    Parked(Box<ChasedEntry>),
    /// Some worker is stepping the state outside the shard lock; others
    /// fall back to a fresh chase instead of waiting.
    CheckedOut,
}

/// One shard: a slice of each of the three memo tables plus its own
/// counters, all guarded by a single mutex.
#[derive(Default)]
struct MemoShard {
    chased: HashMap<Query, ChaseSlot>,
    chase_order: VecDeque<Query>,
    containment: HashMap<(Query, Query), bool>,
    containment_order: VecDeque<(Query, Query)>,
    implication: HashMap<Dependency, bool>,
    implication_order: VecDeque<Dependency>,
    stats: CacheStats,
    /// Approximate bytes held by this shard's memos: a per-entry
    /// estimate added on insert, zeroed on shed/recovery. Deliberately
    /// never decremented on FIFO eviction — the over-count only makes
    /// pressure sheds fire *earlier*, and shedding is always sound.
    bytes: usize,
}

impl MemoShard {
    /// Drops every memo entry (a cache — always safe), keeping counters.
    fn clear_memos(&mut self) {
        self.chased.clear();
        self.chase_order.clear();
        self.containment.clear();
        self.containment_order.clear();
        self.implication.clear();
        self.implication_order.clear();
        self.bytes = 0;
    }

    /// Sheds this shard under memory pressure (counted).
    fn shed(&mut self) {
        self.clear_memos();
        self.stats.pressure_sheds += 1;
    }
}

/// Rough per-entry footprint of a memoized query (key or resumable
/// state): a fixed overhead plus a per-AST-node constant. Only relative
/// accuracy matters — the governor compares sums against a limit.
fn approx_query_bytes(q: &Query) -> usize {
    64 + 48 * q.size()
}

fn approx_dependency_bytes(d: &Dependency) -> usize {
    64 + 48 * (d.forall.len() + d.exists.len() + d.premise.len() + d.conclusion.len())
}

/// The sharded, thread-shareable counterpart of [`ChaseContext`]: one
/// dependency set, one budget, and the three memos distributed over
/// per-shard locks so concurrent search workers can all prove against it
/// through `&self`. See the module docs for the checkout protocol.
pub struct SharedChaseContext {
    deps: Vec<Dependency>,
    cfg: ChaseConfig,
    /// Same identity notion as [`ChaseContext::fingerprint`].
    fingerprint: u64,
    /// Builds the constant-abstracted containment and implication keys.
    keys: MemoKeys,
    /// Total memo cap across shards (0 = unbounded), split evenly.
    memo_cap: usize,
    /// Approximate total memo-byte limit across shards (0 = unbounded);
    /// a shard exceeding its even split sheds itself (see
    /// [`CacheStats::pressure_sheds`]).
    byte_limit: usize,
    shards: Vec<Mutex<MemoShard>>,
    /// Seeded-witness counter — the only stat not naturally owned by a
    /// shard (it is incremented by the search loop, not a memo lookup).
    seeded_hom_hits: AtomicU64,
}

impl SharedChaseContext {
    /// A shared core over `deps` with the given chase budgets and the
    /// default shard count.
    pub fn new(deps: Vec<Dependency>, cfg: ChaseConfig) -> SharedChaseContext {
        let fingerprint = ChaseContext::fingerprint_of(&deps, &cfg);
        SharedChaseContext {
            keys: MemoKeys::new(&deps),
            deps,
            cfg,
            fingerprint,
            memo_cap: 0,
            byte_limit: 0,
            shards: (0..DEFAULT_SHARDS)
                .map(|_| Mutex::new(MemoShard::default()))
                .collect(),
            seeded_hom_hits: AtomicU64::new(0),
        }
    }

    /// Re-shards the (empty) core to `n` shards. With one shard the hit,
    /// miss and eviction accounting is byte-identical to a sequential
    /// [`ChaseContext`] run of the same workload.
    pub fn with_shards(mut self, n: usize) -> SharedChaseContext {
        self.shards = (0..n.max(1))
            .map(|_| Mutex::new(MemoShard::default()))
            .collect();
        self
    }

    /// Caps the memo tables at `cap` entries *in total*, split evenly
    /// across shards and evicted FIFO per shard, mirroring
    /// [`ChaseContext::with_memo_cap`]. A cap of **0 means unbounded**
    /// (the default), same as the sequential context and
    /// `OptimizerConfig` — the per-shard split special-cases it so the
    /// `div_ceil` never turns "unlimited" into "cache nothing".
    pub fn with_memo_cap(mut self, cap: usize) -> SharedChaseContext {
        self.memo_cap = cap;
        self
    }

    /// Caps the memos at approximately `bytes` across shards (0 =
    /// unbounded, the default). A shard whose estimated footprint
    /// exceeds its even split of the limit *sheds itself* — drops every
    /// entry and counts a [`CacheStats::pressure_sheds`] — the first
    /// rung of the optimizer's degradation ladder. Shedding recomputes,
    /// it never changes a verdict.
    pub fn with_byte_limit(mut self, bytes: usize) -> SharedChaseContext {
        self.byte_limit = bytes;
        self
    }

    /// The approximate bytes currently held across all shards.
    pub fn approx_memo_bytes(&self) -> usize {
        (0..self.shards.len()).map(|i| self.lock(i).bytes).sum()
    }

    /// The dependency set this core reasons over.
    pub fn deps(&self) -> &[Dependency] {
        &self.deps
    }

    /// The chase budgets in force.
    pub fn cfg(&self) -> &ChaseConfig {
        &self.cfg
    }

    /// The fingerprint of this core's `(deps, cfg)` — comparable with
    /// [`ChaseContext::fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A per-worker [`ChaseProver`] handle onto this core. Cheap; make
    /// one per thread.
    pub fn prover(&self) -> SharedProver<'_> {
        SharedProver { shared: self }
    }

    /// The even split of `memo_cap` one shard may hold. 0 (unbounded)
    /// must stay 0 — `insert_bounded` reads `cap == 0` as "no limit",
    /// so dividing it through would instead evict everything.
    fn per_shard_cap(&self) -> usize {
        if self.memo_cap == 0 {
            0
        } else {
            self.memo_cap.div_ceil(self.shards.len())
        }
    }

    fn shard_of<K: Hash + ?Sized>(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// Acquires a shard, recovering a poisoned mutex by discarding only
    /// that shard's memo entries: the contents are caches, so dropping
    /// them is always sound, and a worker that panicked mid-insert may
    /// have left a torn entry behind. Counted in
    /// [`CacheStats::poison_recoveries`].
    fn lock(&self, idx: usize) -> std::sync::MutexGuard<'_, MemoShard> {
        let mut guard = match self.shards[idx].lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.shards[idx].clear_poison();
                let mut g = poisoned.into_inner();
                g.clear_memos();
                g.stats.poison_recoveries += 1;
                g
            }
        };
        // Failpoint *inside* the held lock: an injected panic here
        // genuinely poisons this shard, exercising the recovery above.
        // A transient Err is recovered by proceeding with the guard; a
        // pressure signal sheds the shard on the spot.
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
        if self.byte_limit > 0 && shard.bytes > self.byte_limit / self.shards.len().max(1) {
            shard.shed();
        }
    }

    /// Checks the chase entry for `key` out of its shard: a parked state
    /// is taken (hit, `owned = true`), a missing one is created fresh
    /// after leaving a `CheckedOut` marker (miss, `owned = true`), and a
    /// state another worker holds is *retried* with a bounded backoff
    /// ([`CacheStats::checkout_retries`]; the owner usually parks within
    /// one chase step) before being substituted by a private fresh one
    /// (miss, `owned = false`) — the out-of-order fallback. An injected
    /// transient failure at the `shared::checkout` failpoint takes the
    /// same retry path, so contention and fault recovery share one
    /// discipline.
    fn checkout(&self, idx: usize, key: &Query, q: &Query) -> (ChasedEntry, bool) {
        for attempt in 0..=CHECKOUT_RETRIES {
            let last = attempt == CHECKOUT_RETRIES;
            // Failpoint: Err models a transient acquisition failure
            // (retried, like contention); a pressure signal sheds the
            // shard before the lookup.
            let injected = faults::hit("shared::checkout").err();
            let mut guard = self.lock(idx);
            let shard = &mut *guard;
            if let Some(f) = injected {
                faults::note_recovered();
                if f.kind == FaultKind::MemPressure {
                    shard.shed();
                } else if !last {
                    shard.stats.checkout_retries += 1;
                    drop(guard);
                    backoff(attempt);
                    continue;
                }
            }
            match shard.chased.get_mut(key) {
                Some(slot) => match std::mem::replace(slot, ChaseSlot::CheckedOut) {
                    ChaseSlot::Parked(entry) => {
                        shard.stats.chase_hits += 1;
                        return (*entry, true);
                    }
                    ChaseSlot::CheckedOut => {
                        if !last {
                            shard.stats.checkout_retries += 1;
                            drop(guard);
                            backoff(attempt);
                            continue;
                        }
                        shard.stats.chase_misses += 1;
                        return (
                            ChasedEntry {
                                state: ChaseState::new(q),
                                outcome: None,
                            },
                            false,
                        );
                    }
                },
                None => {
                    shard.stats.chase_misses += 1;
                    insert_bounded(
                        &mut shard.chased,
                        &mut shard.chase_order,
                        self.per_shard_cap(),
                        &mut shard.stats.evictions,
                        key.clone(),
                        ChaseSlot::CheckedOut,
                    );
                    return (
                        ChasedEntry {
                            state: ChaseState::new(q),
                            outcome: None,
                        },
                        true,
                    );
                }
            }
        }
        unreachable!("checkout loop returns on its last attempt")
    }

    /// Parks an owned entry back into its slot. If the slot was evicted
    /// (or shed) while checked out, the entry is simply dropped
    /// (recomputing later counts as the miss that eviction always
    /// implies). Accounts the entry's approximate footprint and enforces
    /// the byte limit.
    fn park(&self, idx: usize, key: &Query, entry: ChasedEntry) {
        // Failpoint (outside the lock — `shared::shard_lock` covers the
        // poisoning case): a transient Err drops the park, which is a
        // lost cache write, recovered by recomputation.
        match faults::hit("shared::park") {
            Ok(()) => {}
            Err(f) => {
                faults::note_recovered();
                if f.kind == FaultKind::Error {
                    return;
                }
            }
        }
        let mut guard = self.lock(idx);
        let shard = &mut *guard;
        if let Some(slot) = shard.chased.get_mut(key) {
            shard.bytes += approx_query_bytes(key) + approx_query_bytes(&entry.state.query);
            *slot = ChaseSlot::Parked(Box::new(entry));
            self.enforce_byte_limit(shard);
        }
    }

    /// Chases `q` to a fixpoint (or budget), memoized — the shared
    /// counterpart of [`ChaseContext::chase`].
    pub fn chase(&self, q: &Query) -> ChaseOutcome {
        let key = q.alpha_normalized();
        let idx = self.shard_of(&key);
        let (mut entry, owned) = self.checkout(idx, &key, q);
        if entry.outcome.is_none() {
            while entry.state.step(&self.deps, &self.cfg) {}
            entry.outcome = Some(entry.state.finalize(&self.deps, &self.cfg));
        }
        let out = entry.outcome.clone().expect("outcome just finalized");
        if owned {
            self.park(idx, &key, entry);
        }
        out
    }

    /// Is `q1 ⊑ q2` under this core's dependencies (set semantics)?
    /// Memoized and lazy exactly like [`ChaseContext::contained_in`]: the
    /// chase of `q1` is checked out, stepped outside any lock until a
    /// witness appears (or the fixpoint refutes one), and parked resumed.
    pub fn contained_in(&self, q1: &Query, q2: &Query) -> bool {
        // Same failpoint contract as `ChaseContext::contained_in`.
        if faults::hit("context::contained_in").is_err() {
            faults::note_recovered();
        }
        let ckey = self.keys.containment(q1, q2);
        let cidx = self.shard_of(&ckey);
        {
            let mut guard = self.lock(cidx);
            let shard = &mut *guard;
            if let Some(&v) = shard.containment.get(&ckey) {
                shard.stats.containment_hits += 1;
                return v;
            }
            shard.stats.containment_misses += 1;
        }
        let chase_key = q1.alpha_normalized();
        let idx = self.shard_of(&chase_key);
        let (mut entry, owned) = self.checkout(idx, &chase_key, q1);
        let result = loop {
            let output = entry.state.query.output.clone();
            if output_matching_hom(&mut entry.state.graph, &output, q2, &self.cfg, None).is_some() {
                break true;
            }
            if !entry.state.step(&self.deps, &self.cfg) {
                break false;
            }
        };
        if owned {
            self.park(idx, &chase_key, entry);
        }
        // Failpoint on the verdict insert: losing the cache write is
        // recovered by recomputation; pressure sheds the shard first.
        let mut pressured = false;
        match faults::hit("shared::memo") {
            Ok(()) => {}
            Err(f) => {
                faults::note_recovered();
                if f.kind == FaultKind::Error {
                    return result;
                }
                pressured = true;
            }
        }
        let mut guard = self.lock(cidx);
        let shard = &mut *guard;
        if pressured {
            shard.shed();
        }
        shard.bytes += approx_query_bytes(&ckey.0) + approx_query_bytes(&ckey.1);
        insert_bounded(
            &mut shard.containment,
            &mut shard.containment_order,
            self.per_shard_cap(),
            &mut shard.stats.evictions,
            ckey,
            result,
        );
        self.enforce_byte_limit(shard);
        result
    }

    /// Are the queries equivalent under this core's dependencies?
    pub fn equivalent(&self, q1: &Query, q2: &Query) -> bool {
        self.contained_in(q1, q2) && self.contained_in(q2, q1)
    }

    /// Does the dependency set imply `sigma`? Memoized on the
    /// canonicalized, constant-abstracted `sigma`, computed outside any
    /// lock.
    pub fn implies(&self, sigma: &Dependency) -> bool {
        // Same failpoint contract as `ChaseContext::implies`.
        if faults::hit("context::implies").is_err() {
            faults::note_recovered();
        }
        let key = self.keys.implication(sigma);
        let idx = self.shard_of(&key);
        {
            let mut guard = self.lock(idx);
            let shard = &mut *guard;
            if let Some(&v) = shard.implication.get(&key) {
                shard.stats.implication_hits += 1;
                return v;
            }
            shard.stats.implication_misses += 1;
        }
        let v = implies_uncached(&self.deps, sigma, &self.cfg);
        let mut guard = self.lock(idx);
        let shard = &mut *guard;
        shard.bytes += approx_dependency_bytes(&key);
        insert_bounded(
            &mut shard.implication,
            &mut shard.implication_order,
            self.per_shard_cap(),
            &mut shard.stats.evictions,
            key,
            v,
        );
        self.enforce_byte_limit(shard);
        v
    }

    pub(crate) fn note_seeded_hom(&self) {
        self.seeded_hom_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Aggregated counters: the field-wise sum of every shard's
    /// [`CacheStats`] plus the shared seeded-witness counter.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for idx in 0..self.shards.len() {
            total.absorb(&self.lock(idx).stats);
        }
        total.seeded_hom_hits += self.seeded_hom_hits.load(Ordering::Relaxed);
        total
    }

    /// The per-shard counters (for shard-balance diagnostics; the E18
    /// experiment reports their hit rates).
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        (0..self.shards.len()).map(|i| self.lock(i).stats).collect()
    }
}

/// A per-worker handle implementing [`ChaseProver`] against a
/// [`SharedChaseContext`]: the trait wants `&mut self` (the sequential
/// context genuinely mutates), the shared core only needs `&self`, so the
/// handle is where the two calling conventions meet.
pub struct SharedProver<'a> {
    shared: &'a SharedChaseContext,
}

impl<'a> SharedProver<'a> {
    /// The shared core this handle proves against.
    pub fn shared(&self) -> &'a SharedChaseContext {
        self.shared
    }
}

impl ChaseProver for SharedProver<'_> {
    fn cfg(&self) -> &ChaseConfig {
        self.shared.cfg()
    }
    fn implies(&mut self, sigma: &Dependency) -> bool {
        self.shared.implies(sigma)
    }
    fn contained_in(&mut self, q1: &Query, q2: &Query) -> bool {
        self.shared.contained_in(q1, q2)
    }
    fn note_seeded_hom(&mut self) {
        self.shared.note_seeded_hom();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcql::parser::{parse_dependency, parse_query};

    fn theory() -> Vec<Dependency> {
        vec![
            parse_dependency("ric", "forall (r in R) -> exists (s in S) where r.B = s.B").unwrap(),
            parse_dependency("key", "forall (p in R) (q in R) where p.K = q.K -> p = q").unwrap(),
        ]
    }

    /// The three questions, abstracted so one workload can run against
    /// either core (and against a `&SharedChaseContext` from many
    /// threads).
    trait Core {
        fn chase_q(&mut self, q: &Query);
        fn contained(&mut self, a: &Query, b: &Query) -> bool;
        fn implies_d(&mut self, s: &Dependency) -> bool;
    }
    impl Core for ChaseContext {
        fn chase_q(&mut self, q: &Query) {
            self.chase(q);
        }
        fn contained(&mut self, a: &Query, b: &Query) -> bool {
            self.contained_in(a, b)
        }
        fn implies_d(&mut self, s: &Dependency) -> bool {
            self.implies(s)
        }
    }
    impl Core for &SharedChaseContext {
        fn chase_q(&mut self, q: &Query) {
            SharedChaseContext::chase(self, q);
        }
        fn contained(&mut self, a: &Query, b: &Query) -> bool {
            SharedChaseContext::contained_in(self, a, b)
        }
        fn implies_d(&mut self, s: &Dependency) -> bool {
            SharedChaseContext::implies(self, s)
        }
    }

    /// One fixed workload asked of any core; returns the verdicts so
    /// differential tests can compare them too.
    fn run_workload(core: &mut dyn Core) -> Vec<bool> {
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
            core.chase_q(q);
        }
        for a in &qs {
            for b in &qs {
                verdicts.push(core.contained(a, b));
            }
        }
        // Repeat one pair: containment memo hit.
        verdicts.push(core.contained(&qs[0], &qs[2]));
        verdicts.push(core.implies_d(&sigma));
        verdicts.push(core.implies_d(&sigma)); // implication memo hit
        verdicts
    }

    fn sequential_baseline() -> (Vec<bool>, CacheStats) {
        let mut ctx = ChaseContext::new(theory(), ChaseConfig::default());
        let verdicts = run_workload(&mut ctx);
        (verdicts, ctx.stats())
    }

    fn shared_run(shards: usize, cap: usize) -> (Vec<bool>, CacheStats) {
        let shared = SharedChaseContext::new(theory(), ChaseConfig::default())
            .with_shards(shards)
            .with_memo_cap(cap);
        let verdicts = run_workload(&mut &shared);
        (verdicts, shared.stats())
    }

    #[test]
    fn sharded_totals_equal_sequential_totals() {
        // The satellite guarantee: per-shard counters summed over any
        // shard count equal the single-threaded context's counters on an
        // identical (uncontended, uncapped) workload.
        let (seq_verdicts, seq_stats) = sequential_baseline();
        for shards in [1, 4, 16] {
            let (verdicts, stats) = shared_run(shards, 0);
            assert_eq!(verdicts, seq_verdicts, "verdicts @ {shards} shards");
            assert_eq!(stats, seq_stats, "stats @ {shards} shards");
        }
        assert!(seq_stats.chase_hits > 0);
        assert!(seq_stats.containment_hits > 0);
        // Both cores key through the shared helper: the 36 pairs span 17
        // constant-abstracted keys (25 if constants stayed literal), plus
        // one repeated pair.
        assert_eq!(seq_stats.containment_hits, 36 - 17 + 1);
        assert_eq!(seq_stats.implication_hits, 1);
    }

    #[test]
    fn zero_memo_cap_means_unbounded_not_empty() {
        // Regression: 0 must survive the per-shard split as "no limit".
        // If the split divided it through, every insert would evict
        // immediately and this workload would see zero hits.
        for shards in [1, 4, 16] {
            let (_, stats) = shared_run(shards, 0);
            assert_eq!(stats.evictions, 0, "cap-0 run evicted @ {shards} shards");
            assert!(
                stats.chase_hits > 0 && stats.containment_hits > 0,
                "cap-0 run retained nothing @ {shards} shards: {stats:?}"
            );
        }
    }

    #[test]
    fn single_shard_memo_cap_matches_sequential_fifo() {
        // With one shard the FIFO eviction order is the sequential one,
        // so even a capped run's counters line up exactly.
        let mut ctx = ChaseContext::new(theory(), ChaseConfig::default()).with_memo_cap(2);
        let seq_verdicts = run_workload(&mut ctx);
        let (verdicts, stats) = shared_run(1, 2);
        assert_eq!(verdicts, seq_verdicts);
        assert_eq!(stats, ctx.stats());
        assert!(stats.evictions > 0, "{stats:?}");
    }

    #[test]
    fn concurrent_workers_agree_with_sequential_verdicts() {
        let (seq_verdicts, _) = sequential_baseline();
        let shared = SharedChaseContext::new(theory(), ChaseConfig::default());
        let all: Vec<Vec<bool>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| run_workload(&mut &shared)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for verdicts in all {
            assert_eq!(verdicts, seq_verdicts);
        }
        // Contention may duplicate work (extra misses) and cross-worker
        // memo hits may skip it, but every distinct question was computed
        // at least once: no fewer lookups than one sequential pass.
        let stats = shared.stats();
        let (_, seq_stats) = sequential_baseline();
        assert!(stats.hits() + stats.misses() >= seq_stats.hits() + seq_stats.misses());
    }

    #[test]
    fn prover_handle_counts_seeded_homs() {
        let shared = SharedChaseContext::new(theory(), ChaseConfig::default());
        let mut prover = shared.prover();
        prover.note_seeded_hom();
        prover.note_seeded_hom();
        assert_eq!(shared.stats().seeded_hom_hits, 2);
    }

    #[test]
    fn poisoned_shard_recovers_by_discarding_only_that_shard() {
        let shared = SharedChaseContext::new(theory(), ChaseConfig::default()).with_shards(2);
        let (seq_verdicts, _) = sequential_baseline();
        let verdicts = run_workload(&mut &shared);
        assert_eq!(verdicts, seq_verdicts);
        // Poison shard 0 by panicking while holding its guard.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shared.lock(0);
            panic!("poison shard 0");
        }));
        // Every verdict is still served, and exactly one recovery is
        // counted; the other shard's memos survive untouched.
        let verdicts = run_workload(&mut &shared);
        assert_eq!(verdicts, seq_verdicts);
        let stats = shared.stats();
        assert_eq!(stats.poison_recoveries, 1, "{stats:?}");
        let per_shard = shared.shard_stats();
        assert_eq!(per_shard[0].poison_recoveries, 1);
        assert_eq!(per_shard[1].poison_recoveries, 0);
    }

    #[test]
    fn byte_limit_sheds_shards_without_changing_verdicts() {
        let (seq_verdicts, _) = sequential_baseline();
        // A limit far below one entry's footprint: every insert sheds.
        let shared = SharedChaseContext::new(theory(), ChaseConfig::default())
            .with_shards(1)
            .with_byte_limit(32);
        let verdicts = run_workload(&mut &shared);
        assert_eq!(verdicts, seq_verdicts);
        let stats = shared.stats();
        assert!(stats.pressure_sheds > 0, "{stats:?}");
        assert!(shared.approx_memo_bytes() <= 32 * 2, "sheds keep it tiny");
        // An unbounded core never sheds.
        let (_, unbounded) = shared_run(4, 0);
        assert_eq!(unbounded.pressure_sheds, 0);
    }

    #[test]
    fn injected_checkout_failures_are_retried_and_recovered() {
        use crate::faults;
        let _guard = faults::ScopedFaults::install("shared::checkout=err@1").unwrap();
        let shared = SharedChaseContext::new(theory(), ChaseConfig::default());
        let (seq_verdicts, _) = sequential_baseline();
        let verdicts = run_workload(&mut &shared);
        assert_eq!(verdicts, seq_verdicts);
        let stats = shared.stats();
        assert!(stats.checkout_retries >= 1, "{stats:?}");
        let fs = faults::stats();
        assert_eq!(fs.injected, 1);
        assert_eq!(fs.injected, fs.acknowledged(), "{fs:?}");
    }
}
