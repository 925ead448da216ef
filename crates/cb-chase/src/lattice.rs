//! The verified lattice of a universal plan's shape — the [`ChaseContext`]'s
//! fourth memo — and the one child expansion the plan search runs.
//!
//! Phases 1–2 of chase & backchase depend only on the query and the
//! constraints; statistics enter only when a visitor gates, orders,
//! costs and prunes. So everything a walk learns about the removal sets
//! of `u` is a function of `(deps, cfg, u, removal set)`:
//!
//! * the dependent closure of each seed it expands;
//! * each closure's safe syntactic subquery, or *dead* (not a subquery,
//!   or fatally unsafe);
//! * once some walk admitted a subquery through its gate, whether it is
//!   equivalent to `u`, with the witness of `u ⊑ subquery`.
//!
//! The lattice-construction [`QueryGraph`] only ever interns `u`'s own
//! paths and canonical representatives do not depend on insertion
//! order, so a child computed by one walk is byte-identical to the child
//! any other walk would compute. Subquery construction does compare
//! paths to break ties (a class's representative, the order of implied
//! conditions), and the order of paths reads variable names. So no walk
//! computes on `u` itself: every walk computes on `u`'s *positional
//! form* ([`Query::positional`]), its variables renamed `v0, v1, …` by
//! binding position and everything else in place, and no tie is ever
//! broken by a caller's name. Constants are left: the chase and the hom
//! search never look at a constant's value, and tie-breaks read only
//! their order. So the facts of one positional form carry over to every
//! plan of the same *shape* — the same positional form up to a renaming
//! of the constants the dependencies never mention that keeps their
//! order — under any variable names.
//!
//! A [`Lattice`] records these facts per shape, for the positional form
//! of the plan its first recording walk was asked about. A later walk of
//! the shape — a re-preparation after a statistics refresh, or a query
//! with other names or another constant — replays them instead of
//! re-deriving closures, subqueries, lookup-safety proofs and
//! containment proofs. Every fact is computed on the recorded form, so
//! proofs only ever run on concrete queries and the lattice holds one
//! form; each subquery the walk settles is translated to the walked
//! plan's names and constants when read, while the visitor still gates,
//! prioritises, costs and prunes live on it. A fresh walk — caching on
//! or off — computes on the positional form and translates the same
//! way, so visit order, node and prune counters and plans of a replay
//! are those of a fresh walk, byte for byte. A subquery is read when it
//! is handed to a visitor that reads queries, reported as a normal form,
//! or collected as a visited node ([`LatticeWalk::show`]); an exhaustive
//! walk that collects nothing translates only its normal forms. A child
//! the first walk gated is verified lazily by the first walk that admits
//! it.
//!
//! A lattice costs memory in proportion to the walk, so it is recorded
//! only for a shape that is walked again: the first walk leaves just the
//! shape's key hash behind, the second records the lattice, the third
//! and later ones replay it ([`ChaseContext::checkout_lattice`]). A
//! workload that never repeats a shape holds no lattice, and one that
//! serves a shape with ever new constants holds one.
//!
//! A walk checks the lattice out of the context for its whole duration
//! ([`LatticeWalk::begin`]) and parks it again at the end
//! ([`LatticeWalk::finish`]); the walk's workers share the one
//! checked-out lattice under the walk's lock. A walk that unwinds without
//! finishing — or whose park panics or is lost — loses its additions and
//! the lattice with them, and its armed slot clears the checked-out
//! marker, so the next walk of the shape records afresh. That is always safe:
//! the memo is a cache.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use pcql::path::{Constant, Path};
use pcql::query::Query;

use crate::backchase::{dependent_closure, prune_unsafe_conditions, subquery_for};
use crate::canon::QueryGraph;
use crate::containment::output_matching_hom;
use crate::context::{approx_query_bytes, ChaseContext, ContainmentTarget, LatticeSlot};
use crate::hom::Assignment;
use crate::parallel::Claims;
use crate::shape::Renaming;
use crate::SearchVisitor;

/// A removal set over `u.from`, one bit per binding position.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Removal(Box<[u64]>);

impl Removal {
    /// The empty removal set over `n` bindings.
    fn empty(n: usize) -> Removal {
        Removal(vec![0; n.div_ceil(64).max(1)].into_boxed_slice())
    }

    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    fn with(&self, i: usize) -> Removal {
        let mut grown = self.clone();
        grown.0[i / 64] |= 1 << (i % 64);
        grown
    }

    fn of_names(u: &Query, names: &BTreeSet<String>) -> Removal {
        let mut r = Removal::empty(u.from.len());
        for (i, b) in u.from.iter().enumerate() {
            if names.contains(&b.var) {
                r.0[i / 64] |= 1 << (i % 64);
            }
        }
        r
    }

    fn names(&self, u: &Query) -> BTreeSet<String> {
        u.from
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.contains(i))
            .map(|(_, b)| b.var.clone())
            .collect()
    }

    /// Its footprint as a memo key or value: the boxed words plus the
    /// table slot.
    fn approx_bytes(&self) -> usize {
        48 + 8 * self.0.len()
    }
}

/// Rough footprint of a shared name set or witness of `n` entries: the
/// `Arc`, one B-tree node per eleven entries, and each entry's own heap.
fn approx_tree_bytes(n: usize, per_entry: usize) -> usize {
    48 + 280 * n.div_ceil(11).max(1) + per_entry * n
}

/// What the memo knows about one removal set (a dependent closure).
#[derive(Clone)]
struct Entry {
    /// The removal set by variable name, in the recorded form.
    removed: Arc<BTreeSet<String>>,
    /// The safe syntactic subquery; `None` when the set is dead.
    query: Option<Arc<Query>>,
    /// Set once some walk admitted the subquery: the witness of
    /// `u ⊑ query` when the subquery is equivalent to `u`, else `None`.
    verdict: Option<Option<Arc<Assignment>>>,
}

/// The verified lattice of one shape of universal plan: the dependent
/// closure of every seed a walk expanded and the entry of every closure
/// it examined, all in the positional form of the plan the lattice was
/// recorded for. See the module docs.
pub(crate) struct Lattice {
    /// The positional form of the universal plan every fact is recorded
    /// for, and its non-dependency constants in value order.
    recorded: Arc<Query>,
    constants: Vec<Constant>,
    closures: HashMap<Removal, Removal>,
    entries: HashMap<Removal, Entry>,
    /// Approximate bytes held, and how many of them the context's shard
    /// accounting has seen (the rest were added since the last park).
    pub(crate) bytes: usize,
    pub(crate) accounted: usize,
}

impl Lattice {
    /// An empty lattice for the positional form `u`, whose
    /// non-dependency constants in value order are `constants`.
    pub(crate) fn new(u: Arc<Query>, constants: Vec<Constant>) -> Lattice {
        Lattice {
            bytes: approx_query_bytes(&u) + 32 * constants.len(),
            accounted: 0,
            recorded: u,
            constants,
            closures: HashMap::new(),
            entries: HashMap::new(),
        }
    }
}

/// A verified lattice node: a frontier entry's payload. Until it is
/// read every part is shared with the memo, so enqueuing a node copies
/// no query.
pub(crate) struct Node {
    pub(crate) key: Removal,
    /// The removal set and the subquery: in the walked plan's names and
    /// constants once `walked`, still in the recorded form's before.
    /// Readers get them through [`LatticeWalk::show`].
    pub(crate) removed: Arc<BTreeSet<String>>,
    pub(crate) query: Arc<Query>,
    walked: bool,
    /// The witness of `u ⊑ query` in the recorded form, seeding
    /// the children's checks.
    pub(crate) hom: Arc<Assignment>,
}

/// What became of a child a walk claimed.
pub(crate) enum Child {
    /// A verified equivalent subquery.
    Valid(Node),
    /// Not a subquery, unsafe, or not equivalent.
    Invalid,
    /// Skipped by the visitor's gate before verification.
    Gated,
}

/// One walker's graphs over `u`, built on first use (a replayed walk
/// never needs them): the lattice-construction graph (dependent
/// closures, re-expression, implied conditions) and the homomorphism
/// graph for `u ⊑ q'` checks. They are kept separate because hom
/// searches intern candidate paths wholesale, and implied conditions
/// must only see paths that come from `u` itself.
#[derive(Default)]
pub(crate) struct Graphs {
    lattice: Option<QueryGraph>,
    hom: Option<QueryGraph>,
}

impl Graphs {
    fn lattice(&mut self, u: &Query) -> &mut QueryGraph {
        self.lattice.get_or_insert_with(|| QueryGraph::of_query(u))
    }

    fn hom(&mut self, u: &Query) -> &mut QueryGraph {
        self.hom.get_or_insert_with(|| QueryGraph::of_query(u))
    }
}

/// One walk over the lattice of `u` with its memo checked out of the
/// context; shared by reference among the walk's workers, while the memo
/// itself sits under the walk's lock with the rest of its shared state
/// (`Progress`), so a child's closure, claim and entry are read under one
/// acquisition. Every fact is computed on, and recorded for, the
/// lattice's recorded form `base`; what a reader sees is translated to
/// `u` on the way out.
pub(crate) struct LatticeWalk<'a> {
    ctx: &'a ChaseContext,
    /// The positional form the lattice's facts are about: the one it
    /// was recorded for, `u`'s own for a fresh lattice.
    base: Arc<Query>,
    /// `u`, the lattice's root as the visitor sees it.
    root: Arc<Query>,
    /// From `base` to `u`; `None` for the identity.
    renaming: Option<Renaming>,
    /// Where the memo parks again; `None` for a private memo (caching
    /// off, the first walk of the shape, or the slot held by a
    /// concurrent walk). Dropped armed — the walk unwound — it clears
    /// the slot.
    slot: Option<LatticeSlot<'a>>,
    /// `base`'s half of every containment key, built at most once.
    target: OnceLock<ContainmentTarget>,
}

impl<'a> LatticeWalk<'a> {
    /// Checks the lattice of `u`'s shape out of `ctx` (a fresh one for
    /// `u`'s positional form on a miss; recorded only from the second
    /// walk of the shape on), and hands its memo to the walk's lock.
    pub(crate) fn begin(ctx: &'a ChaseContext, u: &Query) -> (LatticeWalk<'a>, Lattice) {
        let root = Arc::new(u.clone());
        let (memo, slot, constants) = ctx.checkout_lattice(&Arc::new(u.positional()));
        let renaming = Renaming::between(&memo.recorded, &memo.constants, u, &constants);
        let walk = LatticeWalk {
            ctx,
            base: Arc::clone(&memo.recorded),
            root,
            renaming,
            slot,
            target: OnceLock::new(),
        };
        (walk, memo)
    }

    /// Parks the memo back into the context.
    pub(crate) fn finish(self, memo: Lattice) {
        if let Some(slot) = self.slot {
            self.ctx.park_lattice(slot, memo);
        }
    }

    /// The lattice's root: `u` itself, witnessed by the identity.
    pub(crate) fn root(&self) -> Node {
        Node {
            key: Removal::empty(self.base.from.len()),
            removed: Arc::new(BTreeSet::new()),
            query: Arc::clone(&self.root),
            walked: true,
            hom: Arc::new(
                self.base
                    .from
                    .iter()
                    .map(|b| (b.var.clone(), Path::Var(b.var.clone())))
                    .collect(),
            ),
        }
    }

    /// Hands `node` to a reader: translates its subquery and removal set
    /// to the walked plan's names and constants first, in place and at
    /// most once — unless `reads` is false, for a reader that never looks
    /// at them. So a replayed walk pays for the translation of exactly
    /// the nodes something reads.
    pub(crate) fn show<'n>(&self, node: &'n mut Node, reads: bool) -> &'n Node {
        if reads && !node.walked {
            if let Some(r) = &self.renaming {
                node.query = Arc::new(r.query(&node.query));
                node.removed = Arc::new(r.names(&node.removed));
            }
            node.walked = true;
        }
        node
    }

    /// Expands `parent`: for every binding it keeps, the child removal
    /// set (the dependent closure of the parent's plus that binding),
    /// and — for each child the walk claims — the child's safe
    /// subquery, the visitor's gate, and the two containment checks
    /// against `u`, each read from the memo when a walk already made it
    /// and recorded otherwise. A valid child is shown as the visitor
    /// reads.
    pub(crate) fn expand<V: SearchVisitor + ?Sized>(
        &self,
        graphs: &mut Graphs,
        parent: &Node,
        walk: &mut Claims<'_, V>,
    ) {
        for i in 0..self.base.from.len() {
            if parent.key.contains(i) {
                continue;
            }
            walk.before_claim();
            // The child's closure, whether the memo had it, and the walk's
            // claim on it, under as few acquisitions as a miss allows.
            let seed = parent.key.with(i);
            let mut p = walk.lock();
            let mut answered = true;
            let key = match p.memo.closures.get(&seed) {
                Some(key) => key.clone(),
                None => {
                    drop(p);
                    answered = false;
                    let u = &*self.base;
                    let names = dependent_closure(u, graphs.lattice(u), seed.names(u));
                    let key = Removal::of_names(u, &names);
                    p = walk.lock();
                    // Closures are kept even in a private memo (unless
                    // caching is off): different parents reach the same
                    // seed within one walk, and a closure is two small
                    // bitsets.
                    if self.ctx.caching() {
                        p.memo.bytes += seed.approx_bytes() + key.approx_bytes();
                        p.memo.closures.insert(seed, key.clone());
                    }
                    key
                }
            };
            if let Some(key) = walk.claim(&mut p, key) {
                let cached = p.memo.entries.get(&key).cloned();
                drop(p);
                let (child, replayed) = self.examine(graphs, &key, cached, parent, walk);
                answered &= replayed;
                walk.settle(key, child);
            }
            self.ctx.note_lattice(answered);
        }
    }

    /// Examines a claimed child, given the memo's entry for it if any:
    /// its subquery, the gate (shown as the visitor reads), the
    /// equivalence verdict. Also returns whether the memo answered all
    /// of it.
    fn examine<V: SearchVisitor + ?Sized>(
        &self,
        graphs: &mut Graphs,
        key: &Removal,
        cached: Option<Entry>,
        parent: &Node,
        walk: &Claims<'_, V>,
    ) -> (Child, bool) {
        let mut replayed = cached.is_some();
        let entry = cached.unwrap_or_else(|| {
            let u = &*self.base;
            let removed = key.names(u);
            let query = subquery_for(u, graphs.lattice(u), &removed)
                .and_then(|q2| prune_unsafe_conditions(self.ctx, &q2))
                .map(Arc::new);
            let entry = Entry {
                removed: Arc::new(removed),
                query,
                verdict: None,
            };
            if self.slot.is_some() {
                let memo = &mut walk.lock().memo;
                memo.bytes += key.approx_bytes()
                    + 32
                    + approx_tree_bytes(entry.removed.len(), 16)
                    + entry.query.as_deref().map_or(0, approx_query_bytes);
                memo.entries.insert(key.clone(), entry.clone());
            }
            entry
        });
        let Some(query) = entry.query else {
            return (Child::Invalid, replayed);
        };
        // The child's witness is the parent's until its own is known.
        let mut node = Node {
            key: key.clone(),
            removed: entry.removed,
            query: Arc::clone(&query),
            walked: self.renaming.is_none(),
            hom: Arc::clone(&parent.hom),
        };
        // Branch-and-bound gate: skip the expensive equivalence
        // verification when the visitor already knows the candidate's
        // sublattice cannot matter.
        let shown = self.show(&mut node, walk.reads_nodes());
        if !walk.admit(&shown.query, &shown.removed) {
            return (Child::Gated, replayed);
        }
        let verdict = entry.verdict.unwrap_or_else(|| {
            replayed = false;
            let verdict = self.verify(graphs, &query, &node.hom);
            if self.slot.is_some() {
                let memo = &mut walk.lock().memo;
                memo.bytes += verdict
                    .as_ref()
                    .map_or(0, |h| approx_tree_bytes(h.len(), 64));
                if let Some(e) = memo.entries.get_mut(key) {
                    e.verdict = Some(verdict.clone());
                }
            }
            verdict
        });
        let child = match verdict {
            Some(hom) => Child::Valid(Node { hom, ..node }),
            None => Child::Invalid,
        };
        (child, replayed)
    }

    /// Is the subquery `q2` of `base` equivalent to it? The witness of
    /// `base ⊑ q2` when it is.
    fn verify(
        &self,
        graphs: &mut Graphs,
        q2: &Query,
        parent_hom: &Assignment,
    ) -> Option<Arc<Assignment>> {
        let u = &*self.base;
        // u ⊑ q2: containment mapping from q2 into u itself (u is
        // already chased, so no re-chase is needed). The parent's
        // witness restricted to the surviving variables is almost always
        // already one; validate it before searching.
        let seed: Assignment = parent_hom
            .iter()
            .filter(|&(v, _)| q2.from.iter().any(|b| b.var == *v))
            .map(|(v, p)| (v.clone(), p.clone()))
            .collect();
        let h2 = output_matching_hom(graphs.hom(u), &u.output, q2, self.ctx.cfg(), Some(&seed))?;
        if h2 == seed {
            self.ctx.note_seeded_hom();
        }
        // …and q2 ⊑ u: chase q2 (lazily, the verdict memoized), map u
        // in — against u's half of the containment key, built once per
        // walk.
        let target = self.target.get_or_init(|| self.ctx.containment_target(u));
        self.ctx
            .contained_in_target(q2, u, target)
            .then(|| Arc::new(h2))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::backchase::{ExploreAll, SearchOutcome, SearchVisitor, Visit};
    use crate::chase::ChaseConfig;
    use crate::context::{CacheStats, ChaseContext};
    use crate::faults;
    use crate::parallel::PlanSearch;
    use crate::shape::Renaming;
    use pcql::parser::{parse_dependency, parse_query};
    use pcql::path::Constant;
    use pcql::query::Query;
    use pcql::Dependency;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Mutex;

    pub(crate) fn view_scenario() -> (Query, Vec<Dependency>) {
        let u = parse_query(
            "select struct(A = r.A) from R r, S s, V v \
             where r.B = s.B and v.A = r.A",
        )
        .unwrap();
        let deps = vec![
            parse_dependency(
                "c_V",
                "forall (r in R) (s in S) where r.B = s.B -> exists (v in V) where v.A = r.A",
            )
            .unwrap(),
            parse_dependency(
                "c'_V",
                "forall (v in V) -> exists (r in R) (s in S) where r.B = s.B and v.A = r.A",
            )
            .unwrap(),
        ];
        (u, deps)
    }

    fn walk(ctx: &ChaseContext, u: &Query) -> (SearchOutcome, CacheStats) {
        walk_with(ctx, u, true, &ExploreAll)
    }

    /// One walk of `u` with `visitor`, and the memo traffic it caused.
    fn walk_with(
        ctx: &ChaseContext,
        u: &Query,
        collect: bool,
        visitor: &dyn SearchVisitor,
    ) -> (SearchOutcome, CacheStats) {
        let before = ctx.stats();
        let out = PlanSearch::new(u)
            .with_collect_visited(collect)
            .run(ctx, visitor);
        let after = ctx.stats();
        let delta = CacheStats {
            containment_hits: after.containment_hits - before.containment_hits,
            containment_misses: after.containment_misses - before.containment_misses,
            implication_hits: after.implication_hits - before.implication_hits,
            implication_misses: after.implication_misses - before.implication_misses,
            lattice_hits: after.lattice_hits - before.lattice_hits,
            lattice_misses: after.lattice_misses - before.lattice_misses,
            ..CacheStats::default()
        };
        (out, delta)
    }

    fn assert_same_walk(a: &SearchOutcome, b: &SearchOutcome) {
        assert_eq!(a.visited, b.visited);
        assert_eq!(a.normal_forms, b.normal_forms);
        assert_eq!(a.counters.pruned_at_gate, b.counters.pruned_at_gate);
    }

    #[test]
    fn the_second_walk_records_the_lattice_and_the_third_replays_it() {
        let (u, deps) = view_scenario();
        let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let (cold, first) = walk(&ctx, &u);
        assert!(first.lattice_misses > 0 && first.containment_misses > 0);
        // The first walk admitted no lattice: the second one computes
        // the children again (its proofs hit the proof memos) and
        // records them. Within either walk, only a closure reached twice
        // is a hit.
        let (recorded, second) = walk(&ctx, &u);
        assert_same_walk(&recorded, &cold);
        assert_eq!(second.lattice_misses, first.lattice_misses, "{second:?}");
        assert_eq!(second.lattice_hits, first.lattice_hits, "{second:?}");
        let (replay, third) = walk(&ctx, &u);
        assert_same_walk(&replay, &cold);
        assert_eq!(third.lattice_misses, 0, "{third:?}");
        assert_eq!(
            third.containment_hits + third.containment_misses,
            0,
            "{third:?}"
        );
        assert_eq!(
            third.implication_hits + third.implication_misses,
            0,
            "{third:?}"
        );
        assert_eq!(
            third.lattice_hits,
            first.lattice_hits + first.lattice_misses
        );
        // The memo-free context walks the same lattice and never hits.
        let off = ChaseContext::without_memo(deps, ChaseConfig::default());
        let mut off_hits = 0;
        for _ in 0..3 {
            let (oracle, stats) = walk(&off, &u);
            assert_same_walk(&oracle, &cold);
            off_hits += stats.lattice_hits;
        }
        assert_eq!(off_hits, 0);
    }

    /// The view scenario's plan with `r.C = a and s.C = b`: dropping `v`
    /// leaves two conditions whose pivot is a constant, ordered by the
    /// constants' values.
    fn with_constants(a: i64, b: i64) -> Query {
        parse_query(&format!(
            "select struct(A = r.A) from R r, S s, V v \
             where r.B = s.B and v.A = r.A and r.C = {a} and s.C = {b}"
        ))
        .unwrap()
    }

    fn assert_same_plans(a: &SearchOutcome, b: &SearchOutcome) {
        assert_same_walk(a, b);
        assert_eq!(a.visited, b.visited);
    }

    #[test]
    fn a_constant_variant_replays_the_lattice_translated_to_its_own_constants() {
        let (_, deps) = view_scenario();
        let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let oracle = |u: &Query| {
            let off = ChaseContext::without_memo(deps.clone(), ChaseConfig::default());
            PlanSearch::new(u).run(&off, &ExploreAll)
        };
        // Sighted, recorded, then replayed for a third constant pair in
        // the same order.
        let (_, first) = walk(&ctx, &with_constants(2, 9));
        let (_, second) = walk(&ctx, &with_constants(1, 5));
        assert_eq!(second.lattice_misses, first.lattice_misses, "{second:?}");
        let u = with_constants(3, 8);
        let (replay, third) = walk(&ctx, &u);
        assert_eq!(third.lattice_misses, 0, "{third:?}");
        assert_eq!(
            third.containment_hits + third.containment_misses,
            0,
            "{third:?}"
        );
        assert_same_plans(&replay, &oracle(&u));
        assert!(replay.visited.iter().all(|q| !q.to_string().contains('9')));

        // The same values the other way round are another shape: the
        // subquery without `v` orders its conditions by value, so the
        // recorded lattice renamed `2 ↔ 9` is not what a walk derives.
        let flipped = with_constants(9, 2);
        let swap = Renaming {
            vars: BTreeMap::new(),
            constants: [
                (Constant::Int(2), Constant::Int(9)),
                (Constant::Int(9), Constant::Int(2)),
            ]
            .into(),
        };
        let renamed: Vec<Query> = oracle(&with_constants(2, 9))
            .visited
            .iter()
            .map(|q| swap.query(q))
            .collect();
        let fresh = oracle(&flipped);
        assert_ne!(renamed, fresh.visited);
        let (walked, fourth) = walk(&ctx, &flipped);
        assert_eq!(fourth.lattice_misses, first.lattice_misses, "{fourth:?}");
        assert_same_plans(&walked, &fresh);
    }

    /// The view scenario's plan with `r.C = a and s.C = b`, its variables
    /// `r, s, v` named `vars`, binding by binding.
    pub(crate) fn renamed_view(vars: [&str; 3], a: i64, b: i64) -> Query {
        let [r, s, v] = vars;
        parse_query(&format!(
            "select struct(A = {r}.A) from R {r}, S {s}, V {v} \
             where {r}.B = {s}.B and {v}.A = {r}.A and {r}.C = {a} and {s}.C = {b}"
        ))
        .unwrap()
    }

    /// The names and constants of the plan [`renamed_view`] records for
    /// the lazy-translation oracles, none of which its replays use; the
    /// replayed names come in the reverse order.
    pub(crate) const RECORDED: ([&str; 3], i64, i64) = (["r", "s", "v"], 2, 9);
    pub(crate) const REPLAYED: ([&str; 3], i64, i64) = (["z", "y", "x"], 3, 8);

    /// Whether `text` mentions a name or constant of the [`RECORDED`]
    /// plan as a whole token.
    pub(crate) fn mentions_recorded(text: &str) -> bool {
        let (names, a, b) = RECORDED;
        let (a, b) = (a.to_string(), b.to_string());
        text.split(|c: char| !c.is_alphanumeric())
            .any(|t| names.contains(&t) || t == a || t == b)
    }

    /// A reading visitor: records every query and removal set it is
    /// handed, in the order it is handed them.
    #[derive(Default)]
    struct Reader(Mutex<Vec<String>>);

    impl Reader {
        fn note(&self, line: String) {
            self.0.lock().unwrap().push(line);
        }

        fn lines(self) -> Vec<String> {
            self.0.into_inner().unwrap()
        }
    }

    impl SearchVisitor for Reader {
        fn visit(&self, _: &ChaseContext, q: &Query, removed: &BTreeSet<String>) -> Visit {
            self.note(format!("visit {q} {removed:?}"));
            Visit::Explore
        }

        fn admit(&self, q: &Query, removed: &BTreeSet<String>) -> bool {
            self.note(format!("admit {q} {removed:?}"));
            true
        }

        fn priority(&self, q: &Query, removed: &BTreeSet<String>) -> f64 {
            self.note(format!("priority {q} {removed:?}"));
            0.0
        }
    }

    #[test]
    fn a_renamed_replay_translates_what_is_read_and_only_that() {
        let (_, deps) = view_scenario();
        let (names, a, b) = RECORDED;
        let recorded = renamed_view(names, a, b);
        let (names, a, b) = REPLAYED;
        let u = renamed_view(names, a, b);
        let off = ChaseContext::without_memo(deps.clone(), ChaseConfig::default());
        let oracle = PlanSearch::new(&u).run(&off, &ExploreAll);
        let oracle_reader = Reader::default();
        PlanSearch::new(&u).run(&off, &oracle_reader);
        let oracle_reader = oracle_reader.lines();
        assert!(!oracle_reader.iter().any(|t| mentions_recorded(t)));

        let ctx = ChaseContext::new(deps, ChaseConfig::default());
        walk(&ctx, &recorded);
        walk(&ctx, &recorded);
        let replayed = |stats: &CacheStats| {
            assert_eq!(stats.lattice_misses, 0, "{stats:?}");
            let proofs = stats.containment_hits
                + stats.containment_misses
                + stats.implication_hits
                + stats.implication_misses;
            assert_eq!(proofs, 0, "{stats:?}");
        };
        // Collecting nothing: the normal forms are still the caller's.
        let (lean, stats) = walk_with(&ctx, &u, false, &ExploreAll);
        replayed(&stats);
        assert!(lean.visited.is_empty());
        assert_eq!(lean.counters.visited_count, oracle.counters.visited_count);
        assert_eq!(lean.normal_forms, oracle.normal_forms);
        assert_eq!(lean.counters.pruned_at_gate, oracle.counters.pruned_at_gate);
        // Collecting: so is every visited node.
        let (full, stats) = walk_with(&ctx, &u, true, &ExploreAll);
        replayed(&stats);
        assert_same_walk(&full, &oracle);
        assert_eq!(full.counters.visited_count, oracle.counters.visited_count);
        // A reading visitor is handed exactly what it is handed on a
        // memo-free walk, never a recorded name or constant.
        let reader = Reader::default();
        let (read, stats) = walk_with(&ctx, &u, false, &reader);
        replayed(&stats);
        assert_eq!(read.normal_forms, oracle.normal_forms);
        let lines = reader.lines();
        for text in &lines {
            assert!(!mentions_recorded(text), "{text}");
        }
        assert_eq!(lines, oracle_reader);
    }

    #[test]
    fn a_cold_walk_is_the_same_under_names_in_either_order() {
        // The §4 views query, its two variables named in order and in
        // reverse: cache-disabled walks must visit the same nodes up to
        // the renaming, so subquery construction may break no tie by a
        // variable name.
        let catalog = cb_catalog::scenarios::relational_views::catalog();
        let off = ChaseContext::without_memo(catalog.all_constraints(), ChaseConfig::default());
        let walk = |r: &str, s: &str| {
            let q = parse_query(&format!(
                "select struct(A = {r}.A, B = {s}.B, C = {s}.C) from R {r}, S {s} \
                 where {r}.B = {s}.B"
            ))
            .unwrap();
            let u = off.chase(&q).query;
            let out = PlanSearch::new(&u).run(&off, &ExploreAll);
            (u, out)
        };
        let (u, ordered) = walk("r", "s");
        let (w, reversed) = walk("s", "r");
        assert_eq!(u.positional(), w.positional());
        assert_eq!(
            ordered.counters.visited_count,
            reversed.counters.visited_count
        );
        let back: BTreeMap<String, String> = w
            .from
            .iter()
            .zip(&u.from)
            .map(|(b, a)| (b.var.clone(), a.var.clone()))
            .collect();
        let sorted = |qs: Vec<Query>| {
            let mut qs = qs;
            qs.sort();
            qs
        };
        let renamed = |qs: &[Query]| sorted(qs.iter().map(|q| q.rename(&back)).collect());
        assert_eq!(sorted(ordered.visited.clone()), renamed(&reversed.visited));
        assert_eq!(
            sorted(ordered.normal_forms.clone()),
            renamed(&reversed.normal_forms)
        );
    }

    #[test]
    fn a_walk_that_unwinds_loses_its_lattice_and_leaves_no_stuck_slot() {
        let (u, deps) = view_scenario();
        let ctx = ChaseContext::new(deps, ChaseConfig::default());
        let (_, cold) = walk(&ctx, &u);
        {
            // The second walk records the lattice, and panics mid-walk.
            let _guard = faults::ScopedFaults::install("context::contained_in=panic@2").unwrap();
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                PlanSearch::new(&u).run(&ctx, &ExploreAll)
            }));
            let payload = unwound.expect_err("the second proof panics");
            assert!(faults::is_injected_panic(payload.as_ref()));
        }
        // The unwound walk's lattice is gone and its slot is free: the
        // next walk records the lattice afresh, the one after replays.
        let (rebuilt, again) = walk(&ctx, &u);
        assert_eq!(again.lattice_misses, cold.lattice_misses, "{again:?}");
        let (replay, third) = walk(&ctx, &u);
        assert_same_walk(&replay, &rebuilt);
        assert_eq!(third.lattice_misses, 0, "{third:?}");
    }

    #[test]
    fn a_panicking_park_leaves_no_stuck_slot() {
        let (u, deps) = view_scenario();
        let ctx = ChaseContext::new(deps, ChaseConfig::default());
        let (cold, first) = walk(&ctx, &u);
        walk(&ctx, &u);
        {
            // A replay asks no proof, so the walk's only park is the
            // lattice's own.
            let _guard = faults::ScopedFaults::install("shared::park=panic@1").unwrap();
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                PlanSearch::new(&u).run(&ctx, &ExploreAll)
            }));
            let payload = unwound.expect_err("the lattice park panics");
            assert!(faults::is_injected_panic(payload.as_ref()));
            assert_eq!(faults::stats().injected, 1);
        }
        // The lattice is lost but its slot is not stuck: the next walk
        // records it again, and the one after replays it.
        let (rebuilt, again) = walk(&ctx, &u);
        assert_same_walk(&rebuilt, &cold);
        assert_eq!(again.lattice_misses, first.lattice_misses, "{again:?}");
        let (replay, third) = walk(&ctx, &u);
        assert_same_walk(&replay, &cold);
        assert_eq!(third.lattice_misses, 0, "{third:?}");
    }

    #[test]
    fn a_zero_byte_limit_sheds_every_lattice() {
        let (u, deps) = view_scenario();
        let mut ctx = ChaseContext::new(deps, ChaseConfig::default());
        ctx.set_byte_limit(Some(0));
        let (cold, first) = walk(&ctx, &u);
        for _ in 0..2 {
            let (again, stats) = walk(&ctx, &u);
            assert_same_walk(&again, &cold);
            assert_eq!(stats.lattice_misses, first.lattice_misses, "{stats:?}");
        }
        assert!(ctx.stats().pressure_sheds > 0);
    }
}
