//! The parallel backchase: [`PlanSearch`](crate::PlanSearch)'s lattice
//! walk run by N workers over one shared priority frontier.
//!
//! The sequential walk's only serialization point is its `BinaryHeap`
//! pop; everything in between — the visitor's verdict (costing), the
//! candidate construction, condition pruning, and the two containment
//! proofs — is per-node work. So the parallel driver keeps exactly the
//! sequential node protocol and moves only its bookkeeping behind one
//! mutex (`Progress`): workers pop the cheapest frontier entry, run the
//! visit verdict and the child verification *outside* the lock against
//! the caller's [`ChaseContext`], and push verified children back. A
//! condvar parks idle workers; the search is over when the frontier is
//! empty and no worker is mid-expansion (`active == 0`).
//!
//! Three bits of the sequential walk need care under concurrency:
//!
//! * **The `seen` map** gets a fourth state, `Pending`: a worker claims a
//!   child removal set *before* verifying it, so no candidate is verified
//!   twice. Because a popped node's normal-form judgement may depend on a
//!   child another worker is still verifying, judgements are deferred:
//!   each expansion records its children's keys, and normal forms are
//!   resolved after the workers join (every claimed child is resolved by
//!   its claimant before it exits, so no `Pending` survives a completed
//!   search).
//! * **Witness-hom seeding** carries the parent's witness in the frontier
//!   entry (as sequentially), but each worker validates it against its
//!   own hom graph; chase states live in the context, whose
//!   checkout protocol falls back to a fresh search when another worker
//!   holds the parent's memo — out-of-order parent/child arrival can cost
//!   duplicate work, never a wrong verdict.
//! * **Budgets** ([`SearchBudget`] and `max_visited`) count *committed*
//!   nodes — visited plus reserved-by-a-worker — so a node budget is
//!   exact at any worker count, not just approached from below.
//!
//! Children are expanded by the same function as the sequential walk's
//! (`LatticeWalk::expand`): the walk checks the universal plan's
//! verified lattice out of the context once, and its workers read and
//! fill that one copy behind a lock while claims and verdicts go through
//! `Progress`.
//!
//! With `threads = 1` the walk degenerates to the sequential one: one
//! worker, the same (priority, seq) pop order, the same seen-map
//! transitions, the same counters.
//!
//! **Fault tolerance.** Each worker's per-node expansion runs inside
//! `catch_unwind`; everything the expansion holds mid-flight (its
//! reservation, its `active` slot, the node it popped, the children it
//! claimed `Pending`) is tracked in an [`InFlight`] ledger *outside* the
//! unwind boundary. A panic — injected through the `parallel::*`
//! failpoints or genuine — rolls the ledger back: claimed children
//! return to unclaimed so survivors re-claim them, the popped node goes
//! back on the frontier (its visit count reverted if already recorded),
//! and the worker dies, counted in [`SearchOutcome::workers_died`]. The
//! remaining workers finish the identical search; if *every* worker
//! dies, `run` returns `complete = false` with work still on the
//! frontier and the optimizer's degradation ladder falls back to the
//! sequential walk.

use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use pcql::query::Query;

use crate::backchase::{Frontier, SearchBudget, SearchOutcome, Visit};
use crate::context::ChaseContext;
use crate::faults;
use crate::lattice::{Child, Expansion, Graphs, LatticeWalk, Node, Removal};

/// A [`SearchVisitor`](crate::SearchVisitor) for the parallel walk:
/// shared across workers (`&self`, `Sync`), with the [`ChaseContext`]
/// handed into [`ParallelVisitor::visit`] so a costing visitor can still
/// run memoized proofs. The semantics of the three hooks are identical
/// to the sequential trait's.
pub trait ParallelVisitor: Sync {
    /// Called once per equivalence-verified node (by whichever worker
    /// popped it). The verdict steers the search exactly as in the
    /// sequential walk; [`Visit::Accept`] stops every worker.
    fn visit(&self, _ctx: &ChaseContext, _q: &Query, _removed: &BTreeSet<String>) -> Visit {
        Visit::Explore
    }

    /// The pre-verification admission gate (see
    /// [`SearchVisitor::admit`](crate::SearchVisitor::admit)). A
    /// cost-guided implementation reads the atomically published
    /// incumbent here, so one worker's improvement prunes every worker's
    /// candidates.
    fn admit(&self, _q: &Query, _removed: &BTreeSet<String>) -> bool {
        true
    }

    /// Exploration priority — lower pops first, ties in discovery order.
    fn priority(&self, _q: &Query, _removed: &BTreeSet<String>) -> f64 {
        0.0
    }

    /// Whether the hooks above read their arguments (see
    /// [`SearchVisitor::reads_nodes`](crate::SearchVisitor::reads_nodes)).
    /// Default: `true`.
    fn reads_nodes(&self) -> bool {
        true
    }
}

/// The always-explore parallel visitor (exhaustive enumeration).
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelExploreAll;

impl ParallelVisitor for ParallelExploreAll {
    fn reads_nodes(&self) -> bool {
        false
    }
}

/// What became of a removal set in the parallel walk.
#[derive(Clone, Copy, PartialEq)]
enum NodeState {
    /// A verified equivalent subquery (enqueued once).
    Valid,
    /// Not a subquery / unsafe / not equivalent.
    Invalid,
    /// Skipped by the visitor's gate before verification.
    Gated,
    /// Claimed by a worker, verification in flight.
    Pending,
}

/// The lock-guarded search state every worker shares.
struct Progress {
    queue: BinaryHeap<Frontier>,
    seen: HashMap<Removal, NodeState>,
    seq: usize,
    /// Workers between pop and end-of-expansion (termination detection).
    active: usize,
    /// Nodes popped but not yet counted visited (exact budget accounting).
    reserved: usize,
    visited_count: usize,
    pruned_at_visit: usize,
    pruned_at_gate: usize,
    visited: Vec<Query>,
    /// (node, child removal sets) per expansion, for the deferred
    /// normal-form resolution; a node is shown only if it resolves to a
    /// normal form.
    expansions: Vec<(Node, Vec<Removal>)>,
    stop: bool,
    complete: bool,
    accepted: bool,
    budget_expired: bool,
    /// Workers that died to a caught panic (their claims were rolled
    /// back and re-claimed by the survivors).
    workers_died: usize,
}

/// Everything a mid-expansion worker holds, tracked *outside* the
/// `catch_unwind` boundary so a panic can be rolled back to a
/// consistent `Progress`: the reservation and `active` slot it counts
/// for, the frontier node it popped (re-pushed on abandon, its visit
/// count reverted if already recorded), and the child removal sets it
/// claimed `Pending` (returned to unclaimed so survivors re-claim).
struct InFlight {
    node: Option<Frontier>,
    reserved: bool,
    active: bool,
    counted: bool,
    claims: Vec<Removal>,
}

/// The parallel counterpart of [`PlanSearch`](crate::PlanSearch): the
/// same lattice, the same verification discipline, N workers. See the
/// module docs for the concurrency protocol.
pub struct ParallelPlanSearch<'a> {
    u: &'a Query,
    threads: usize,
    max_visited: usize,
    budget: SearchBudget,
    collect_visited: bool,
}

impl<'a> ParallelPlanSearch<'a> {
    /// A search over the subquery lattice of `u` (which should already be
    /// chased) with `threads` workers. Unlimited by default.
    pub fn new(u: &'a Query, threads: usize) -> ParallelPlanSearch<'a> {
        ParallelPlanSearch {
            u,
            threads: threads.max(1),
            max_visited: 0,
            budget: SearchBudget::default(),
            collect_visited: true,
        }
    }

    /// Bounds the number of visited nodes (0 = unlimited).
    pub fn with_max_visited(mut self, max_visited: usize) -> ParallelPlanSearch<'a> {
        self.max_visited = max_visited;
        self
    }

    /// Sets an anytime [`SearchBudget`] (the root is always visited).
    pub fn with_budget(mut self, budget: SearchBudget) -> ParallelPlanSearch<'a> {
        self.budget = budget;
        self
    }

    /// Whether to copy each visited node into `SearchOutcome::visited`
    /// (on by default); see
    /// [`PlanSearch::with_collect_visited`](crate::PlanSearch::with_collect_visited).
    pub fn with_collect_visited(mut self, collect: bool) -> ParallelPlanSearch<'a> {
        self.collect_visited = collect;
        self
    }

    /// Runs the search. `visited` order is whatever order workers counted
    /// nodes in — deterministic only at `threads = 1`; the *sets* of
    /// visited nodes and normal forms are thread-count-independent for an
    /// exhaustive (non-pruning, non-accepting, unbudgeted) visitor.
    pub fn run<V: ParallelVisitor>(&self, ctx: &ChaseContext, visitor: &V) -> SearchOutcome {
        let u = self.u;
        let start = Instant::now();
        let lattice = LatticeWalk::begin(ctx, u);
        let root = lattice.root();
        let mut seen = HashMap::new();
        seen.insert(root.key.clone(), NodeState::Valid);
        let mut queue = BinaryHeap::new();
        queue.push(Frontier {
            prio: visitor.priority(u, &root.removed),
            seq: 0,
            node: root,
        });
        let progress = Mutex::new(Progress {
            queue,
            seen,
            seq: 0,
            active: 0,
            reserved: 0,
            visited_count: 0,
            pruned_at_visit: 0,
            pruned_at_gate: 0,
            visited: Vec::new(),
            expansions: Vec::new(),
            stop: false,
            complete: true,
            accepted: false,
            budget_expired: false,
            workers_died: 0,
        });
        let idle = Condvar::new();
        // Workers inherit a thread-scoped fault schedule (a no-op token
        // under global or disarmed faults).
        let fault_token = faults::inherit_token();
        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                scope.spawn(|| {
                    faults::adopt(fault_token);
                    self.worker(ctx, &lattice, visitor, &progress, &idle, start);
                });
            }
        });
        let mut p = progress
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        // Every worker died with work still on the frontier: the search
        // is incomplete (the ladder falls back to the sequential walk).
        if !p.stop && !p.queue.is_empty() {
            p.complete = false;
        }
        // Deferred normal-form resolution: a node is minimal iff every
        // child removal set resolved Invalid. Gated or still-Pending
        // children (the latter only after an early stop) leave the node's
        // minimality undetermined — same rule as the sequential walk.
        let mut normal_forms = Vec::new();
        for (node, children) in &mut p.expansions {
            let mut reduced = false;
            let mut undetermined = false;
            for key in children {
                match p.seen.get(key) {
                    Some(NodeState::Valid) => reduced = true,
                    Some(NodeState::Invalid) => {}
                    _ => undetermined = true,
                }
            }
            if !reduced && !undetermined {
                normal_forms.push((*lattice.show(node, true).query).clone());
            }
        }
        lattice.finish();
        SearchOutcome {
            normal_forms,
            visited: p.visited,
            visited_count: p.visited_count,
            complete: p.complete,
            pruned_at_visit: p.pruned_at_visit,
            pruned_at_gate: p.pruned_at_gate,
            accepted: p.accepted,
            budget_expired: p.budget_expired,
            workers_died: p.workers_died,
        }
    }

    fn worker<V: ParallelVisitor>(
        &self,
        ctx: &ChaseContext,
        lattice: &LatticeWalk<'_>,
        visitor: &V,
        progress: &Mutex<Progress>,
        idle: &Condvar,
        start: Instant,
    ) {
        let lock = || -> MutexGuard<'_, Progress> {
            progress.lock().unwrap_or_else(PoisonError::into_inner)
        };
        // Failpoint: a fault here is a worker that dies on startup — the
        // survivors absorb its share of the frontier. Caught so the scope
        // join never observes the payload.
        let died_at_spawn = match catch_unwind(|| faults::hit("parallel::spawn")) {
            Ok(Ok(())) => false,
            Ok(Err(_)) => {
                faults::note_recovered();
                true
            }
            Err(payload) => {
                if faults::is_injected_panic(payload.as_ref()) {
                    faults::note_recovered();
                }
                true
            }
        };
        if died_at_spawn {
            let mut p = lock();
            p.workers_died += 1;
            idle.notify_all();
            return;
        }
        // Worker-local graphs, same roles as the sequential walk's pair.
        let mut graphs = Graphs::default();
        loop {
            // Acquire a node (or learn the search is over).
            let node = {
                let mut p = lock();
                loop {
                    if p.stop {
                        return;
                    }
                    if p.queue.is_empty() {
                        if p.active == 0 {
                            p.stop = true;
                            idle.notify_all();
                            return;
                        }
                        p = idle.wait(p).unwrap_or_else(PoisonError::into_inner);
                        continue;
                    }
                    // Budgets count committed nodes (visited + popped by a
                    // worker) so they are exact at any thread count; the
                    // root (committed == 0) is always exempt.
                    let committed = p.visited_count + p.reserved;
                    if self.max_visited > 0 && committed >= self.max_visited {
                        p.complete = false;
                        p.stop = true;
                        idle.notify_all();
                        return;
                    }
                    if committed > 0 && self.budget.expired(start, committed) {
                        p.complete = false;
                        p.budget_expired = true;
                        p.stop = true;
                        idle.notify_all();
                        return;
                    }
                    p.reserved += 1;
                    p.active += 1;
                    break p.queue.pop().expect("frontier non-empty");
                }
            };

            // The expansion runs unwind-isolated; `flight` (outside the
            // boundary) ledgers everything it holds so a panic rolls back
            // to a consistent frontier.
            let mut flight = InFlight {
                node: Some(node),
                reserved: true,
                active: true,
                counted: false,
                claims: Vec::new(),
            };
            let expanded = catch_unwind(AssertUnwindSafe(|| {
                self.expand(
                    ctx,
                    lattice,
                    &mut graphs,
                    visitor,
                    progress,
                    idle,
                    &mut flight,
                );
            }));
            if let Err(payload) = expanded {
                // The expansion died mid-flight (an injected fault or a
                // genuine bug): roll its ledger back so the survivors
                // re-claim everything it held, then let this worker die —
                // its local graphs may be torn.
                self.abandon(progress, idle, flight);
                if faults::is_injected_panic(payload.as_ref()) {
                    faults::note_recovered();
                }
                return;
            }
        }
    }

    /// One node's visit verdict + expansion — the unwind-isolated part of
    /// the worker loop. `flight` is updated under the same lock
    /// acquisitions that update `Progress`, so the ledger always matches
    /// what the shared state believes this worker holds.
    #[allow(clippy::too_many_arguments)]
    fn expand<V: ParallelVisitor>(
        &self,
        ctx: &ChaseContext,
        lattice: &LatticeWalk<'_>,
        graphs: &mut Graphs,
        visitor: &V,
        progress: &Mutex<Progress>,
        idle: &Condvar,
        flight: &mut InFlight,
    ) {
        let lock = || -> MutexGuard<'_, Progress> {
            progress.lock().unwrap_or_else(PoisonError::into_inner)
        };
        // Failpoints: the pop just happened (outside the lock), and the
        // visit verdict is about to run. Both spots are pure control
        // flow, so a transient error recovers by proceeding; a panic
        // unwinds to the worker's catch.
        if faults::hit("parallel::pop").is_err() {
            faults::note_recovered();
        }
        if faults::hit("parallel::visit").is_err() {
            faults::note_recovered();
        }

        // The visit verdict (costing, pruning) runs outside the lock, and
        // so does the copy of a collected node. It is shown in place, so
        // a rollback looks for the form that was pushed.
        let (verdict, collected) = {
            let node = &mut flight.node.as_mut().expect("in-flight node").node;
            let shown = lattice.show(node, visitor.reads_nodes());
            let verdict = visitor.visit(ctx, &shown.query, &shown.removed);
            let collected = (self.collect_visited && verdict != Visit::Prune)
                .then(|| (*lattice.show(node, true).query).clone());
            (verdict, collected)
        };
        let explore = {
            let mut p = lock();
            p.reserved -= 1;
            flight.reserved = false;
            let explore = match verdict {
                Visit::Prune => {
                    p.pruned_at_visit += 1;
                    false
                }
                Visit::Explore => {
                    p.visited_count += 1;
                    flight.counted = true;
                    p.visited.extend(collected);
                    !p.stop
                }
                Visit::Accept => {
                    p.visited_count += 1;
                    p.visited.extend(collected);
                    p.accepted = true;
                    p.stop = true;
                    false
                }
            };
            if !explore {
                // Fully handled (pruned, accepted, or racing a stop):
                // nothing left for a rollback to revert.
                flight.node = None;
                flight.counted = false;
                flight.active = false;
                p.active -= 1;
                if p.queue.is_empty() && p.active == 0 {
                    p.stop = true;
                }
                idle.notify_all();
            }
            explore
        };
        if !explore {
            return;
        }

        // Expand: claim each child removal set, verify the claimed ones
        // outside the lock, record the keys for the deferred normal-form
        // resolution.
        let node = &flight.node.as_ref().expect("in-flight node").node;
        let mut walk = ParallelWalk {
            visitor,
            progress,
            idle,
            claims: &mut flight.claims,
        };
        let children = lattice.expand(graphs, node, &mut walk);
        {
            let mut p = lock();
            let entry = flight.node.take().expect("in-flight node");
            p.expansions.push((entry.node, children));
            flight.counted = false;
            flight.active = false;
            p.active -= 1;
            if p.queue.is_empty() && p.active == 0 {
                p.stop = true;
            }
            idle.notify_all();
        }
    }

    /// Rolls a panicked expansion's ledger back under the progress lock:
    /// un-claims its `Pending` children, re-enqueues its popped node
    /// (reverting the visit count if it was already recorded), releases
    /// its reservation and `active` slot, and counts the death. Every
    /// claim the dead worker held becomes claimable again, so the
    /// surviving workers finish the identical search.
    fn abandon(&self, progress: &Mutex<Progress>, idle: &Condvar, flight: InFlight) {
        let mut p = progress.lock().unwrap_or_else(PoisonError::into_inner);
        if flight.reserved {
            p.reserved -= 1;
        }
        if flight.active {
            p.active -= 1;
        }
        for key in flight.claims {
            if p.seen.get(&key) == Some(&NodeState::Pending) {
                p.seen.remove(&key);
            }
        }
        if let Some(entry) = flight.node {
            if flight.counted {
                p.visited_count -= 1;
                // The node was shown before its copy was pushed, so both
                // are in the same form.
                if let Some(i) = p.visited.iter().rposition(|q| *q == *entry.node.query) {
                    p.visited.swap_remove(i);
                }
            }
            p.seq += 1;
            let seq = p.seq;
            p.queue.push(Frontier { seq, ..entry });
        }
        p.workers_died += 1;
        if p.queue.is_empty() && p.active == 0 {
            p.stop = true;
        }
        idle.notify_all();
    }
}

/// The parallel walk's half of an expansion: claims and verdicts go
/// through the progress lock, every claim ledgered in the worker's
/// [`InFlight`] until it is settled.
struct ParallelWalk<'p, V> {
    visitor: &'p V,
    progress: &'p Mutex<Progress>,
    idle: &'p Condvar,
    claims: &'p mut Vec<Removal>,
}

impl<V: ParallelVisitor> Expansion for ParallelWalk<'_, V> {
    fn claim(&mut self, key: &Removal) -> bool {
        // Failpoint: a child claim is about to happen (outside the
        // lock); transient errors recover by proceeding.
        if faults::hit("parallel::claim").is_err() {
            faults::note_recovered();
        }
        let mut p = self.progress.lock().unwrap_or_else(PoisonError::into_inner);
        if p.seen.contains_key(key) {
            return false;
        }
        p.seen.insert(key.clone(), NodeState::Pending);
        self.claims.push(key.clone());
        true
    }

    fn reads_nodes(&self) -> bool {
        self.visitor.reads_nodes()
    }

    fn admit(&mut self, q: &Query, removed: &BTreeSet<String>) -> bool {
        self.visitor.admit(q, removed)
    }

    fn settle(&mut self, key: Removal, child: Child) {
        // The priority hook runs outside the lock.
        let (state, node) = match child {
            Child::Valid(node) => (
                NodeState::Valid,
                Some((self.visitor.priority(&node.query, &node.removed), node)),
            ),
            Child::Invalid => (NodeState::Invalid, None),
            Child::Gated => (NodeState::Gated, None),
        };
        let mut p = self.progress.lock().unwrap_or_else(PoisonError::into_inner);
        self.claims.retain(|k| k != &key);
        if state == NodeState::Gated {
            p.pruned_at_gate += 1;
        }
        if let Some((prio, node)) = node {
            if !p.stop {
                p.seq += 1;
                let seq = p.seq;
                p.queue.push(Frontier { prio, seq, node });
                self.idle.notify_all();
            }
        }
        p.seen.insert(key, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backchase::{ExploreAll, PlanSearch};
    use crate::chase::ChaseConfig;
    use crate::context::ChaseContext;
    use crate::lattice::tests::view_scenario;
    use std::time::Duration;

    fn norm(qs: &[Query]) -> Vec<Query> {
        let mut v: Vec<Query> = qs.iter().map(Query::alpha_normalized).collect();
        v.sort();
        v
    }

    #[test]
    fn parallel_exhaustive_matches_sequential_at_every_thread_count() {
        let (u, deps) = view_scenario();
        let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let sequential = PlanSearch::new(&u).run(&ctx, &mut ExploreAll);
        for threads in [1, 2, 4] {
            let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
            let out = ParallelPlanSearch::new(&u, threads).run(&ctx, &ParallelExploreAll);
            assert!(out.complete, "incomplete @ {threads} threads");
            assert!(!out.budget_expired);
            assert_eq!(
                norm(&out.visited),
                norm(&sequential.visited),
                "visited set @ {threads} threads"
            );
            assert_eq!(
                norm(&out.normal_forms),
                norm(&sequential.normal_forms),
                "normal forms @ {threads} threads"
            );
            assert_eq!(out.visited_count, sequential.visited_count);
        }
    }

    #[test]
    fn parallel_node_budget_is_exact_and_keeps_the_root() {
        let (u, deps) = view_scenario();
        for threads in [1, 2, 4] {
            let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
            let out = ParallelPlanSearch::new(&u, threads)
                .with_budget(SearchBudget {
                    nodes: Some(0),
                    ..SearchBudget::default()
                })
                .run(&ctx, &ParallelExploreAll);
            assert!(out.budget_expired);
            assert_eq!(out.visited_count, 1, "root only @ {threads} threads");
            assert_eq!(out.visited[0].alpha_normalized(), u.alpha_normalized());
        }
        // A mid-search budget is exact, not approximate, at any width.
        for threads in [1, 2, 4] {
            let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
            let out = ParallelPlanSearch::new(&u, threads)
                .with_budget(SearchBudget {
                    nodes: Some(2),
                    ..SearchBudget::default()
                })
                .run(&ctx, &ParallelExploreAll);
            assert!(out.budget_expired);
            assert_eq!(out.visited_count, 2, "exact budget @ {threads} threads");
        }
    }

    #[test]
    fn parallel_zero_wall_clock_budget_returns_the_root() {
        let (u, deps) = view_scenario();
        let ctx = ChaseContext::new(deps, ChaseConfig::default());
        let out = ParallelPlanSearch::new(&u, 4)
            .with_budget(SearchBudget {
                wall_clock: Some(Duration::ZERO),
                ..SearchBudget::default()
            })
            .run(&ctx, &ParallelExploreAll);
        assert!(out.budget_expired);
        assert_eq!(out.visited_count, 1);
    }

    #[test]
    fn parallel_max_visited_matches_sequential_truncation() {
        let (u, deps) = view_scenario();
        for threads in [1, 2, 4] {
            let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
            let out = ParallelPlanSearch::new(&u, threads)
                .with_max_visited(1)
                .run(&ctx, &ParallelExploreAll);
            assert!(!out.complete);
            assert!(!out.budget_expired);
            assert_eq!(out.visited_count, 1);
        }
    }

    #[test]
    fn injected_worker_panic_is_recovered_by_the_survivors() {
        let (u, deps) = view_scenario();
        let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let sequential = PlanSearch::new(&u).run(&ctx, &mut ExploreAll);
        for threads in [2, 4] {
            // The second popped node panics its worker mid-expansion; the
            // rollback re-enqueues it and the survivors finish the
            // identical search.
            let _guard = faults::ScopedFaults::install("parallel::pop=panic@2").unwrap();
            let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
            let out = ParallelPlanSearch::new(&u, threads).run(&ctx, &ParallelExploreAll);
            assert!(out.complete, "complete @ {threads} threads");
            assert_eq!(out.workers_died, 1, "@ {threads} threads");
            assert_eq!(norm(&out.visited), norm(&sequential.visited));
            assert_eq!(norm(&out.normal_forms), norm(&sequential.normal_forms));
            assert_eq!(out.visited_count, sequential.visited_count);
            let fs = faults::stats();
            assert_eq!(fs.injected, 1);
            assert_eq!(fs.injected, fs.acknowledged(), "{fs:?}");
        }
    }

    #[test]
    fn panic_mid_proof_rolls_back_the_visit_count() {
        let (u, deps) = view_scenario();
        let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let sequential = PlanSearch::new(&u).run(&ctx, &mut ExploreAll);
        // A panic deep inside a containment proof (a chase step) fires
        // *after* the node was counted visited — the rollback must revert
        // the count so the surviving worker's recount lands exactly once.
        let _guard = faults::ScopedFaults::install("chase::step=panic@3").unwrap();
        let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let out = ParallelPlanSearch::new(&u, 2).run(&ctx, &ParallelExploreAll);
        assert!(out.complete);
        assert_eq!(out.workers_died, 1);
        assert_eq!(norm(&out.visited), norm(&sequential.visited));
        assert_eq!(norm(&out.normal_forms), norm(&sequential.normal_forms));
        assert_eq!(out.visited_count, sequential.visited_count);
        let fs = faults::stats();
        assert_eq!(fs.injected, fs.acknowledged(), "{fs:?}");
    }

    #[test]
    fn every_worker_dying_leaves_an_incomplete_search_not_a_hang() {
        let (u, deps) = view_scenario();
        let _guard = faults::ScopedFaults::install("parallel::spawn=panic").unwrap();
        let ctx = ChaseContext::new(deps, ChaseConfig::default());
        let out = ParallelPlanSearch::new(&u, 4).run(&ctx, &ParallelExploreAll);
        assert!(!out.complete, "work left on the frontier");
        assert_eq!(out.workers_died, 4);
        assert_eq!(out.visited_count, 0);
        let fs = faults::stats();
        assert_eq!(fs.injected, 4);
        assert_eq!(fs.injected, fs.acknowledged(), "{fs:?}");
    }

    #[test]
    fn transient_errors_at_parallel_sites_recover_by_proceeding() {
        let (u, deps) = view_scenario();
        let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let sequential = PlanSearch::new(&u).run(&ctx, &mut ExploreAll);
        let _guard = faults::ScopedFaults::install(
            "parallel::pop=err*2;parallel::claim=err*3;parallel::visit=err*2;parallel::spawn=err@2",
        )
        .unwrap();
        let ctx = ChaseContext::new(deps, ChaseConfig::default());
        let out = ParallelPlanSearch::new(&u, 4).run(&ctx, &ParallelExploreAll);
        assert!(out.complete);
        // The spawn error killed one worker before it started; the
        // transient errors elsewhere were absorbed in place.
        assert_eq!(out.workers_died, 1);
        assert_eq!(norm(&out.visited), norm(&sequential.visited));
        assert_eq!(out.visited_count, sequential.visited_count);
        let fs = faults::stats();
        assert!(fs.injected >= 1);
        assert_eq!(fs.injected, fs.acknowledged(), "{fs:?}");
    }

    /// A reading parallel visitor: records every query and removal set
    /// it is handed.
    #[derive(Default)]
    struct Reader(Mutex<Vec<String>>);

    impl Reader {
        fn note(&self, hook: &str, q: &Query, removed: &BTreeSet<String>) {
            let line = format!("{hook} {q} {removed:?}");
            self.0.lock().unwrap().push(line);
        }

        fn sorted(self) -> Vec<String> {
            let mut lines = self.0.into_inner().unwrap();
            lines.sort();
            lines
        }
    }

    impl ParallelVisitor for Reader {
        fn visit(&self, _: &ChaseContext, q: &Query, removed: &BTreeSet<String>) -> Visit {
            self.note("visit", q, removed);
            Visit::Explore
        }

        fn admit(&self, q: &Query, removed: &BTreeSet<String>) -> bool {
            self.note("admit", q, removed);
            true
        }

        fn priority(&self, q: &Query, removed: &BTreeSet<String>) -> f64 {
            self.note("priority", q, removed);
            0.0
        }
    }

    #[test]
    fn a_renamed_parallel_replay_translates_what_is_read_and_only_that() {
        use crate::lattice::tests::{mentions_recorded, renamed_view, RECORDED, REPLAYED};
        let (_, deps) = view_scenario();
        let (names, a, b) = RECORDED;
        let recorded = renamed_view(names, a, b);
        let (names, a, b) = REPLAYED;
        let u = renamed_view(names, a, b);
        let off = ChaseContext::without_memo(deps.clone(), ChaseConfig::default());
        let oracle = PlanSearch::new(&u).run(&off, &mut ExploreAll);
        let oracle_reader = Reader::default();
        ParallelPlanSearch::new(&u, 1).run(&off, &oracle_reader);
        let oracle_reader = oracle_reader.sorted();
        for threads in [1, 2] {
            let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
            for _ in 0..2 {
                ParallelPlanSearch::new(&recorded, threads).run(&ctx, &ParallelExploreAll);
            }
            let replay = |collect: bool, visitor: &dyn Fn(&ParallelPlanSearch) -> SearchOutcome| {
                let before = ctx.stats();
                let out =
                    visitor(&ParallelPlanSearch::new(&u, threads).with_collect_visited(collect));
                let after = ctx.stats();
                assert_eq!(after.lattice_misses, before.lattice_misses, "{after:?}");
                assert_eq!(
                    after.containment_hits + after.containment_misses,
                    before.containment_hits + before.containment_misses,
                    "{after:?}"
                );
                out
            };
            let desc = format!("@ {threads} threads");
            let lean = replay(false, &|search| search.run(&ctx, &ParallelExploreAll));
            assert!(lean.visited.is_empty(), "{desc}");
            assert_eq!(lean.visited_count, oracle.visited_count, "{desc}");
            assert_eq!(
                sorted(&lean.normal_forms),
                sorted(&oracle.normal_forms),
                "{desc}"
            );
            let full = replay(true, &|search| search.run(&ctx, &ParallelExploreAll));
            assert_eq!(full.visited_count, oracle.visited_count, "{desc}");
            assert_eq!(sorted(&full.visited), sorted(&oracle.visited), "{desc}");
            assert_eq!(
                sorted(&full.normal_forms),
                sorted(&oracle.normal_forms),
                "{desc}"
            );
            if threads == 1 {
                assert_eq!(full.visited, oracle.visited);
                assert_eq!(full.normal_forms, oracle.normal_forms);
            }
            let reader = Reader::default();
            let read = replay(false, &|search| search.run(&ctx, &reader));
            assert_eq!(
                sorted(&read.normal_forms),
                sorted(&oracle.normal_forms),
                "{desc}"
            );
            let lines = reader.sorted();
            for line in &lines {
                assert!(!mentions_recorded(line), "{desc}: {line}");
            }
            assert_eq!(lines, oracle_reader, "{desc}");
        }
    }

    /// `qs` in a thread-count-independent order, names untouched.
    fn sorted(qs: &[Query]) -> Vec<Query> {
        let mut v = qs.to_vec();
        v.sort();
        v
    }

    #[test]
    fn parallel_accept_stops_every_worker() {
        struct AcceptSmall;
        impl ParallelVisitor for AcceptSmall {
            fn visit(&self, _: &ChaseContext, q: &Query, _: &BTreeSet<String>) -> Visit {
                if q.from.len() <= 2 {
                    Visit::Accept
                } else {
                    Visit::Explore
                }
            }
        }
        let (u, deps) = view_scenario();
        for threads in [1, 2, 4] {
            let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
            let out = ParallelPlanSearch::new(&u, threads).run(&ctx, &AcceptSmall);
            assert!(out.accepted, "accepted @ {threads} threads");
            // Whatever worker accepted, its plan is in the visited set.
            assert!(out.visited.iter().any(|q| q.from.len() <= 2));
        }
    }
}
