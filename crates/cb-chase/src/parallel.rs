//! The phase-2 driver: [`PlanSearch`], the backchase lattice walk as a
//! work-sharing frontier run by one or more workers.
//!
//! Everything a node costs — the visitor's verdict (costing), the
//! candidate construction, condition pruning, the two containment
//! proofs — is per-node work; the walk's only shared state is its
//! bookkeeping, behind one mutex (`Progress`): the priority frontier, the
//! `seen` map of examined removal sets, the verified lattice memo, and
//! the counters. A worker pops
//! the cheapest frontier entry, runs the visit verdict and the child
//! verification *outside* the lock against the caller's
//! [`ChaseContext`], and pushes verified children back. A condvar parks
//! idle workers; the search is over when the frontier is empty and no
//! worker is mid-expansion (`active == 0`).
//!
//! With one worker (the default) the walk runs on the caller's thread:
//! nothing is spawned, the pop order is the (priority, discovery seq)
//! order, and a panic unwinds to the caller. With more, three parts of
//! the protocol need care:
//!
//! * **The `seen` map** has a fourth state, `Pending`: a worker claims a
//!   child removal set *before* verifying it, so no candidate is verified
//!   twice. A node's normal-form judgement is made as its expansion ends
//!   — unless it hangs on a child another worker is still verifying;
//!   only such a node is kept, with the keys it waits on, and judged
//!   after the workers join (every claimed child is settled by its
//!   claimant before it exits, so no `Pending` survives a completed
//!   search). One worker never waits on another, so it judges every node
//!   on the spot.
//! * **Witness-hom seeding** carries the parent's witness in the frontier
//!   entry, but each worker validates it against its own hom graph. The
//!   other half of a child's proof chases the child on a state private
//!   to that proof; only its verdict is shared, so two workers asking
//!   one proof at once can duplicate work, never corrupt a verdict.
//! * **The budget** ([`SearchBudget`], the walk's only cap) counts
//!   *committed* nodes — visited plus reserved-by-a-worker — so a node
//!   budget is exact at any worker count, not just approached from
//!   below.
//!
//! Children are expanded by `LatticeWalk::expand`: the walk checks the
//! universal plan's verified lattice out of the context once, and its
//! workers read and fill that one copy as part of `Progress`, so a
//! child's closure, claim and memo entry are read under one acquisition
//! of the lock, and its settlement is recorded under the next.
//!
//! **Fault tolerance** (more than one worker). Each worker's per-node
//! expansion runs inside `catch_unwind`; what the expansion holds
//! mid-flight (its reservation, its `active` slot, the node it popped)
//! is tracked in an `InFlight` record *outside* the unwind boundary, and
//! every child it claimed is marked `Pending` with its worker's number.
//! A panic — injected through the `parallel::*` failpoints or genuine —
//! rolls that back: the worker's claims return to unclaimed so survivors
//! re-claim them, the popped node goes back on the frontier (its visit
//! count reverted if already recorded), and the worker dies, counted in
//! [`SearchCounters::workers_died`](crate::SearchCounters::workers_died).
//! The remaining workers finish the identical search; if *every* worker
//! dies, `run` returns `complete = false` with work still on the
//! frontier, and the optimizer's degradation ladder reruns the walk at
//! one worker. One worker has no survivor to hand its claims to, so it
//! neither isolates its expansions nor hits the `parallel::*`
//! failpoints: a panic there reaches the caller.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use pcql::query::Query;

use crate::backchase::{SearchBudget, SearchOutcome, SearchVisitor, Visit};
use crate::context::ChaseContext;
use crate::faults;
use crate::lattice::{Child, Graphs, Lattice, LatticeWalk, Node, Removal};

/// A frontier entry ordered by (priority, discovery sequence) — a
/// min-heap pop order that degrades to a FIFO walk when every priority
/// is equal.
struct Frontier {
    prio: f64,
    seq: usize,
    node: Node,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Frontier {}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the lowest
        // (priority, seq) first.
        other
            .prio
            .total_cmp(&self.prio)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// What became of a removal set the walk examined.
#[derive(Clone, Copy, PartialEq)]
enum NodeState {
    /// A verified equivalent subquery (enqueued once).
    Valid,
    /// Not a subquery / unsafe / not equivalent.
    Invalid,
    /// Skipped by the visitor's gate before verification.
    Gated,
    /// Claimed by the numbered worker, verification in flight.
    Pending(usize),
}

/// The lock-guarded search state every worker shares.
pub(crate) struct Progress {
    /// The verified lattice, checked out of the context for the walk.
    pub(crate) memo: Lattice,
    queue: BinaryHeap<Frontier>,
    seen: HashMap<Removal, NodeState>,
    seq: usize,
    /// Workers between pop and end-of-expansion (termination detection).
    active: usize,
    /// Nodes popped but not yet counted visited (exact budget accounting).
    reserved: usize,
    /// Workers parked on the condvar.
    waiting: usize,
    /// Expanded nodes whose minimality hangs on children another worker
    /// was still verifying, with those children's removal sets.
    deferred: Vec<(Node, Vec<Removal>)>,
    stop: bool,
    /// The counters, visited nodes and normal forms reported so far.
    out: SearchOutcome,
}

impl Progress {
    /// Wakes the parked workers, if any: a notify is a syscall even when
    /// nobody waits, so one worker never pays for it.
    fn wake(&self, idle: &Condvar) {
        if self.waiting > 0 {
            idle.notify_all();
        }
    }

    /// Frees an expansion's `active` slot; the search is over once that
    /// leaves no work queued and none in flight.
    fn release(&mut self, idle: &Condvar) {
        self.active -= 1;
        if self.queue.is_empty() && self.active == 0 {
            self.stop = true;
        }
        self.wake(idle);
    }
}

/// What a mid-expansion worker holds, tracked *outside* the
/// `catch_unwind` boundary so a panic can be rolled back to a consistent
/// `Progress`: the frontier node it popped, until its expansion is
/// recorded — holding an `active` slot, and either its reservation or,
/// once `counted`, its visit. Its claims are the `seen` map's `Pending`
/// entries under its number.
struct InFlight {
    node: Option<Frontier>,
    counted: bool,
}

/// The backchase lattice walk as a streaming driver (Theorem 2's
/// complete enumeration, inverted): instead of materializing every
/// equivalent subquery up front, each equivalence-verified node is handed
/// to a caller-supplied visitor *as it is reached*, and the visitor
/// steers the search — [`Visit::Explore`] descends (exhaustive
/// enumeration), [`Visit::Prune`] cuts the node's sublattice
/// (branch-and-bound: the optimizer's cost-guided strategy carries its
/// incumbent best cost into the visitor and prunes branches whose
/// admissible lower bound already exceeds it), [`Visit::Accept`] stops
/// the search (anytime planning — every visited subquery is a sound plan,
/// "we can stop this rewriting anytime").
///
/// The walk is the one [`backchase`](fn@crate::backchase) performs:
/// one lattice-wide `QueryGraph` per worker, dependent-closure removal
/// sets, equivalence pruning of sublattices under non-equivalent
/// subqueries, child containment checks seeded from the parent's witness
/// homomorphism, all through the shared [`ChaseContext`] memos. Children
/// are expanded through the context's verified-lattice memo, so a walk
/// over a universal plan an earlier walk already verified replays its
/// closures, subqueries and verdicts instead of re-deriving them, while
/// the visitor still steers live. See the module docs for the worker
/// protocol.
#[derive(Debug, Clone)]
pub struct PlanSearch<'a> {
    u: &'a Query,
    threads: usize,
    budget: SearchBudget,
    collect_visited: bool,
}

impl<'a> PlanSearch<'a> {
    /// A search over the subquery lattice of `u`, which should already be
    /// chased (Algorithm 1 passes the universal plan), so equivalence to
    /// `u` is equivalence to the original query. One worker, unlimited.
    pub fn new(u: &'a Query) -> PlanSearch<'a> {
        PlanSearch {
            u,
            threads: 1,
            budget: SearchBudget::default(),
            collect_visited: true,
        }
    }

    /// Runs the walk with `threads` workers (0 counts as 1). One worker
    /// runs on the caller's thread.
    pub fn with_threads(mut self, threads: usize) -> PlanSearch<'a> {
        self.threads = threads.max(1);
        self
    }

    /// Sets an anytime [`SearchBudget`]; on expiry the walk stops and
    /// keeps everything verified so far (the root is always visited
    /// first, so at least one sound plan survives any budget).
    pub fn with_budget(mut self, budget: SearchBudget) -> PlanSearch<'a> {
        self.budget = budget;
        self
    }

    /// Whether to copy each visited node into `SearchOutcome::visited`
    /// (on by default). A streaming visitor already receives every node
    /// as it is reached, so a caller that accumulates its own results
    /// (like the cost-guided strategy), or reads only the normal forms
    /// (like the exhaustive strategy without `cost_visited`), only needs
    /// [`visited_count`](crate::SearchCounters::visited_count). Off, a
    /// replayed walk neither copies nor translates the nodes its visitor
    /// does not read.
    pub fn with_collect_visited(mut self, collect: bool) -> PlanSearch<'a> {
        self.collect_visited = collect;
        self
    }

    /// Runs the search, streaming each equivalence-verified subquery (and
    /// its removal set over `u`) to `visitor`. At one worker `visited`
    /// and `normal_forms` are in pop order; with more they are in
    /// whatever order the workers reached them, and only their *sets* are
    /// worker-count-independent (for an exhaustive — non-pruning,
    /// non-accepting, unbudgeted — visitor).
    pub fn run<V: SearchVisitor + ?Sized>(&self, ctx: &ChaseContext, visitor: &V) -> SearchOutcome {
        let u = self.u;
        let start = Instant::now();
        let (lattice, memo) = LatticeWalk::begin(ctx, u);
        let root = lattice.root();
        let mut seen = HashMap::new();
        seen.insert(root.key.clone(), NodeState::Valid);
        let mut queue = BinaryHeap::new();
        queue.push(Frontier {
            prio: visitor.priority(u, &root.removed),
            seq: 0,
            node: root,
        });
        let walk = Walk {
            search: self,
            ctx,
            lattice: &lattice,
            visitor,
            progress: Mutex::new(Progress {
                memo,
                queue,
                seen,
                seq: 0,
                active: 0,
                reserved: 0,
                waiting: 0,
                deferred: Vec::new(),
                stop: false,
                out: SearchOutcome::default(),
            }),
            idle: Condvar::new(),
            start,
            isolated: self.threads > 1,
        };
        if walk.isolated {
            // Workers inherit a thread-scoped fault schedule (a no-op
            // token under global or disarmed faults).
            let fault_token = faults::inherit_token();
            std::thread::scope(|scope| {
                for worker in 0..self.threads {
                    let walk = &walk;
                    scope.spawn(move || {
                        faults::adopt(fault_token);
                        walk.work(worker);
                    });
                }
            });
        } else {
            walk.work(0);
        }
        let mut p = walk
            .progress
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        // Incomplete: the budget expired, or every worker died with work
        // still on the frontier (the ladder reruns it at one worker).
        p.out.counters.complete = !p.out.counters.budget_expired && (p.stop || p.queue.is_empty());
        // A deferred node is minimal iff every child it waited on
        // resolved Invalid; one still unclaimed or `Pending` (only after
        // an early stop or a worker death) leaves it undetermined.
        for (mut node, children) in std::mem::take(&mut p.deferred) {
            if children
                .iter()
                .all(|key| p.seen.get(key) == Some(&NodeState::Invalid))
            {
                p.out
                    .normal_forms
                    .push((*lattice.show(&mut node, true).query).clone());
            }
        }
        lattice.finish(p.memo);
        p.out
    }
}

/// One run of a [`PlanSearch`]: what its workers share.
struct Walk<'w, V: ?Sized> {
    search: &'w PlanSearch<'w>,
    ctx: &'w ChaseContext,
    lattice: &'w LatticeWalk<'w>,
    visitor: &'w V,
    progress: Mutex<Progress>,
    idle: Condvar,
    start: Instant,
    /// More than one worker: expansions are unwind-isolated and the
    /// `parallel::*` failpoints are live.
    isolated: bool,
}

impl<V: SearchVisitor + ?Sized> Walk<'_, V> {
    fn lock(&self) -> MutexGuard<'_, Progress> {
        self.progress.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One worker's loop: pop, visit, expand, until the search is over.
    fn work(&self, worker: usize) {
        if self.isolated && died_at_spawn() {
            let mut p = self.lock();
            p.out.counters.workers_died += 1;
            p.wake(&self.idle);
            return;
        }
        // Worker-local graphs over `u`.
        let mut graphs = Graphs::default();
        let mut p = self.lock();
        loop {
            // Acquire a node (or learn the search is over), under the
            // acquisition that recorded the previous expansion.
            let node = loop {
                if p.stop {
                    return;
                }
                if p.queue.is_empty() {
                    if p.active == 0 {
                        p.stop = true;
                        p.wake(&self.idle);
                        return;
                    }
                    p.waiting += 1;
                    p = self.idle.wait(p).unwrap_or_else(PoisonError::into_inner);
                    p.waiting -= 1;
                    continue;
                }
                // The budget counts committed nodes (visited + popped by
                // a worker) so it is exact at any worker count; the root
                // (committed == 0) is always exempt.
                let committed = p.out.counters.visited_count + p.reserved;
                if committed > 0 && self.search.budget.expired(self.start, committed) {
                    p.out.counters.budget_expired = true;
                    p.stop = true;
                    p.wake(&self.idle);
                    return;
                }
                p.reserved += 1;
                p.active += 1;
                break p.queue.pop().expect("frontier non-empty");
            };
            drop(p);
            let mut flight = InFlight {
                node: Some(node),
                counted: false,
            };
            if !self.isolated {
                p = self.expand(&mut graphs, worker, &mut flight);
                continue;
            }
            // The expansion runs unwind-isolated; `flight` (outside the
            // boundary) records what it holds so a panic rolls back to a
            // consistent frontier.
            match catch_unwind(AssertUnwindSafe(|| {
                self.expand(&mut graphs, worker, &mut flight)
            })) {
                Ok(guard) => p = guard,
                Err(payload) => {
                    // The expansion died mid-flight (an injected fault or
                    // a genuine bug): roll it back so the survivors
                    // re-claim everything it held, then let this worker
                    // die — its local graphs may be torn.
                    self.abandon(worker, flight);
                    if faults::is_injected_panic(payload.as_ref()) {
                        faults::note_recovered();
                    }
                    return;
                }
            }
        }
    }

    /// One node's visit verdict and expansion. `flight` is updated under
    /// the same lock acquisitions that update `Progress`, so it always
    /// matches what the shared state believes this worker holds. Returns
    /// the acquisition that recorded the expansion, for the next pop.
    fn expand(
        &self,
        graphs: &mut Graphs,
        worker: usize,
        flight: &mut InFlight,
    ) -> MutexGuard<'_, Progress> {
        if self.isolated {
            // Failpoints: the pop just happened (outside the lock), and
            // the visit verdict is about to run. Both spots are pure
            // control flow, so a transient error recovers by proceeding;
            // a panic unwinds to the worker's catch.
            for site in ["parallel::pop", "parallel::visit"] {
                if faults::hit(site).is_err() {
                    faults::note_recovered();
                }
            }
        }
        // The visit verdict (costing, pruning) runs outside the lock, and
        // so does the copy of a collected node. It is shown in place, so
        // a rollback looks for the form that was pushed.
        let (verdict, collected) = {
            let node = &mut flight.node.as_mut().expect("in-flight node").node;
            let shown = self.lattice.show(node, self.visitor.reads_nodes());
            let verdict = self.visitor.visit(self.ctx, &shown.query, &shown.removed);
            let collected = (self.search.collect_visited && verdict != Visit::Prune)
                .then(|| (*self.lattice.show(node, true).query).clone());
            (verdict, collected)
        };
        let mut p = self.lock();
        p.reserved -= 1;
        let explore = match verdict {
            Visit::Prune => {
                p.out.counters.pruned_at_visit += 1;
                false
            }
            Visit::Explore => {
                p.out.counters.visited_count += 1;
                flight.counted = true;
                p.out.visited.extend(collected);
                !p.stop
            }
            Visit::Accept => {
                p.out.counters.visited_count += 1;
                p.out.visited.extend(collected);
                p.out.counters.accepted = true;
                p.stop = true;
                false
            }
        };
        if !explore {
            // Fully handled (pruned, accepted, or racing a stop): nothing
            // left for a rollback to revert.
            flight.node = None;
            p.release(&self.idle);
            return p;
        }
        drop(p);

        // Expand: claim each child removal set, verify the claimed ones
        // outside the lock, and judge the node's minimality on the way.
        let mut claims = Claims {
            walk: self,
            worker,
            reduced: false,
            undetermined: false,
            waits_on: Vec::new(),
            settled: None,
        };
        let node = &mut flight.node.as_mut().expect("in-flight node").node;
        self.lattice.expand(graphs, node, &mut claims);
        // A valid child means this node is not a normal form; a gated one
        // leaves its minimality undetermined.
        let judged = claims.reduced || claims.undetermined;
        let normal_form = (!judged && claims.waits_on.is_empty())
            .then(|| (*self.lattice.show(node, true).query).clone());
        let mut p = self.lock();
        claims.record(&mut p);
        let entry = flight.node.take().expect("in-flight node");
        if let Some(q) = normal_form {
            p.out.normal_forms.push(q);
        } else if !judged {
            p.deferred.push((entry.node, claims.waits_on));
        }
        p.release(&self.idle);
        p
    }

    /// Rolls a panicked expansion back under the progress lock: un-claims
    /// its `Pending` children, re-enqueues its popped node (reverting the
    /// visit count if it was already recorded), releases its reservation
    /// and `active` slot, and counts the death. Every claim the dead
    /// worker held becomes claimable again, so the surviving workers
    /// finish the identical search.
    fn abandon(&self, worker: usize, flight: InFlight) {
        let mut p = self.lock();
        p.seen
            .retain(|_, state| *state != NodeState::Pending(worker));
        p.out.counters.workers_died += 1;
        let Some(entry) = flight.node else {
            return;
        };
        if flight.counted {
            p.out.counters.visited_count -= 1;
            // The node was shown before its copy was pushed, so both are
            // in the same form.
            if let Some(i) = p.out.visited.iter().rposition(|q| *q == *entry.node.query) {
                p.out.visited.swap_remove(i);
            }
        } else {
            p.reserved -= 1;
        }
        p.seq += 1;
        let seq = p.seq;
        p.queue.push(Frontier { seq, ..entry });
        p.release(&self.idle);
    }
}

/// Failpoint: a fault here is a worker that dies on startup — the
/// survivors absorb its share of the frontier. Caught so the scope join
/// never observes the payload.
fn died_at_spawn() -> bool {
    match catch_unwind(|| faults::hit("parallel::spawn")) {
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
    }
}

/// The walk's half of one expansion, handed to `LatticeWalk::expand`:
/// claims and verdicts go through the progress lock, and the expanded
/// node's minimality is judged child by child.
pub(crate) struct Claims<'c, V: ?Sized> {
    walk: &'c Walk<'c, V>,
    worker: usize,
    /// Some child is a verified equivalent subquery.
    reduced: bool,
    /// Some child was gated.
    undetermined: bool,
    /// Children another worker is still verifying.
    waits_on: Vec<Removal>,
    /// The last settled child, its fate and (if valid) its priority,
    /// recorded under the next acquisition of the progress lock (the
    /// next claim's, or the one that ends the expansion).
    settled: Option<(Removal, Child, f64)>,
}

impl<'c, V: SearchVisitor + ?Sized> Claims<'c, V> {
    /// The walk's lock, over its progress and its lattice memo. A worker
    /// that panicked while holding it left every entry whole (entries are
    /// inserted whole), so poisoning is ignored.
    pub(crate) fn lock(&self) -> MutexGuard<'c, Progress> {
        self.walk.lock()
    }

    /// Failpoint: a child claim is about to happen (outside the lock).
    pub(crate) fn before_claim(&self) {
        if self.walk.isolated && faults::hit("parallel::claim").is_err() {
            // A transient error recovers by proceeding.
            faults::note_recovered();
        }
    }

    /// Claims a child removal set for examination under `p`, handing it
    /// back; or notes what the walk already knows of it, when another
    /// route got there first.
    pub(crate) fn claim(&mut self, p: &mut Progress, key: Removal) -> Option<Removal> {
        self.record(p);
        match p.seen.entry(key) {
            Entry::Vacant(slot) => {
                let key = slot.key().clone();
                slot.insert(NodeState::Pending(self.worker));
                return Some(key);
            }
            Entry::Occupied(seen) => match seen.get() {
                NodeState::Valid => self.reduced = true,
                NodeState::Gated => self.undetermined = true,
                NodeState::Invalid => {}
                NodeState::Pending(_) => self.waits_on.push(seen.key().clone()),
            },
        }
        None
    }

    /// Whether the visitor reads the queries it is handed.
    pub(crate) fn reads_nodes(&self) -> bool {
        self.walk.visitor.reads_nodes()
    }

    /// The visitor's pre-verification gate.
    pub(crate) fn admit(&self, q: &Query, removed: &BTreeSet<String>) -> bool {
        self.walk.visitor.admit(q, removed)
    }

    /// Settles a claimed child: its fate is recorded, and a valid one
    /// joins the frontier, under the next acquisition of the lock.
    pub(crate) fn settle(&mut self, key: Removal, child: Child) {
        // The priority hook runs outside the lock.
        let prio = match &child {
            Child::Valid(node) => {
                self.reduced = true;
                self.walk.visitor.priority(&node.query, &node.removed)
            }
            Child::Invalid => 0.0,
            Child::Gated => {
                self.undetermined = true;
                0.0
            }
        };
        self.settled = Some((key, child, prio));
    }

    /// Records the last settled child, if any, under `p`. A panic
    /// before it loses only a claim still `Pending` under this worker,
    /// which the rollback returns to unclaimed.
    fn record(&mut self, p: &mut Progress) {
        let Some((key, child, prio)) = self.settled.take() else {
            return;
        };
        let state = match child {
            Child::Valid(node) => {
                if !p.stop {
                    p.seq += 1;
                    let seq = p.seq;
                    p.queue.push(Frontier { prio, seq, node });
                    p.wake(&self.walk.idle);
                }
                NodeState::Valid
            }
            Child::Invalid => NodeState::Invalid,
            Child::Gated => {
                p.out.counters.pruned_at_gate += 1;
                NodeState::Gated
            }
        };
        p.seen.insert(key, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backchase::{ExploreAll, SearchCounters};
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
        let sequential = PlanSearch::new(&u).run(&ctx, &ExploreAll);
        for threads in [1, 2, 4] {
            let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
            let out = PlanSearch::new(&u)
                .with_threads(threads)
                .run(&ctx, &ExploreAll);
            assert_eq!(out.counters, sequential.counters, "@ {threads} threads");
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
        }
    }

    #[test]
    fn parallel_node_budget_is_exact_and_keeps_the_root() {
        let (u, deps) = view_scenario();
        for threads in [1, 2, 4] {
            let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
            let out = PlanSearch::new(&u)
                .with_threads(threads)
                .with_budget(SearchBudget {
                    nodes: Some(0),
                    ..SearchBudget::default()
                })
                .run(&ctx, &ExploreAll);
            assert!(out.counters.budget_expired);
            assert_eq!(
                out.counters.visited_count, 1,
                "root only @ {threads} threads"
            );
            assert_eq!(out.visited[0].alpha_normalized(), u.alpha_normalized());
        }
        // A mid-search budget is exact, not approximate, at any width.
        for threads in [1, 2, 4] {
            let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
            let out = PlanSearch::new(&u)
                .with_threads(threads)
                .with_budget(SearchBudget {
                    nodes: Some(2),
                    ..SearchBudget::default()
                })
                .run(&ctx, &ExploreAll);
            assert!(out.counters.budget_expired);
            assert_eq!(
                out.counters.visited_count, 2,
                "exact budget @ {threads} threads"
            );
        }
    }

    #[test]
    fn parallel_zero_wall_clock_budget_returns_the_root() {
        let (u, deps) = view_scenario();
        let ctx = ChaseContext::new(deps, ChaseConfig::default());
        let out = PlanSearch::new(&u)
            .with_threads(4)
            .with_budget(SearchBudget {
                wall_clock: Some(Duration::ZERO),
                ..SearchBudget::default()
            })
            .run(&ctx, &ExploreAll);
        assert!(out.counters.budget_expired);
        assert_eq!(out.counters.visited_count, 1);
    }

    /// The counters of a walk that lost one worker and finished the
    /// `sequential` walk's search.
    fn died_once(sequential: &SearchOutcome) -> SearchCounters {
        SearchCounters {
            workers_died: 1,
            ..sequential.counters
        }
    }

    #[test]
    fn injected_worker_panic_is_recovered_by_the_survivors() {
        let (u, deps) = view_scenario();
        let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let sequential = PlanSearch::new(&u).run(&ctx, &ExploreAll);
        for threads in [2, 4] {
            // The second popped node panics its worker mid-expansion; the
            // rollback re-enqueues it and the survivors finish the
            // identical search.
            let _guard = faults::ScopedFaults::install("parallel::pop=panic@2").unwrap();
            let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
            let out = PlanSearch::new(&u)
                .with_threads(threads)
                .run(&ctx, &ExploreAll);
            assert_eq!(out.counters, died_once(&sequential), "@ {threads} threads");
            assert_eq!(norm(&out.visited), norm(&sequential.visited));
            assert_eq!(norm(&out.normal_forms), norm(&sequential.normal_forms));
            let fs = faults::stats();
            assert_eq!(fs.injected, 1);
            assert_eq!(fs.injected, fs.acknowledged(), "{fs:?}");
        }
    }

    #[test]
    fn panic_mid_proof_rolls_back_the_visit_count() {
        let (u, deps) = view_scenario();
        let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let sequential = PlanSearch::new(&u).run(&ctx, &ExploreAll);
        // A panic deep inside a containment proof (a chase step) fires
        // *after* the node was counted visited — the rollback must revert
        // the count so the surviving worker's recount lands exactly once.
        let _guard = faults::ScopedFaults::install("chase::step=panic@3").unwrap();
        let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let out = PlanSearch::new(&u).with_threads(2).run(&ctx, &ExploreAll);
        assert_eq!(out.counters, died_once(&sequential));
        assert_eq!(norm(&out.visited), norm(&sequential.visited));
        assert_eq!(norm(&out.normal_forms), norm(&sequential.normal_forms));
        let fs = faults::stats();
        assert_eq!(fs.injected, fs.acknowledged(), "{fs:?}");
    }

    #[test]
    fn every_worker_dying_leaves_an_incomplete_search_not_a_hang() {
        let (u, deps) = view_scenario();
        let _guard = faults::ScopedFaults::install("parallel::spawn=panic").unwrap();
        let ctx = ChaseContext::new(deps, ChaseConfig::default());
        let out = PlanSearch::new(&u).with_threads(4).run(&ctx, &ExploreAll);
        assert!(!out.counters.complete, "work left on the frontier");
        assert_eq!(out.counters.workers_died, 4);
        assert_eq!(out.counters.visited_count, 0);
        let fs = faults::stats();
        assert_eq!(fs.injected, 4);
        assert_eq!(fs.injected, fs.acknowledged(), "{fs:?}");
    }

    #[test]
    fn transient_errors_at_parallel_sites_recover_by_proceeding() {
        let (u, deps) = view_scenario();
        let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let sequential = PlanSearch::new(&u).run(&ctx, &ExploreAll);
        let _guard = faults::ScopedFaults::install(
            "parallel::pop=err*2;parallel::claim=err*3;parallel::visit=err*2;parallel::spawn=err@2",
        )
        .unwrap();
        let ctx = ChaseContext::new(deps, ChaseConfig::default());
        let out = PlanSearch::new(&u).with_threads(4).run(&ctx, &ExploreAll);
        // The spawn error killed one worker before it started; the
        // transient errors elsewhere were absorbed in place.
        assert_eq!(out.counters, died_once(&sequential));
        assert_eq!(norm(&out.visited), norm(&sequential.visited));
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

    impl SearchVisitor for Reader {
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
        let oracle = PlanSearch::new(&u).run(&off, &ExploreAll);
        let oracle_reader = Reader::default();
        PlanSearch::new(&u).run(&off, &oracle_reader);
        let oracle_reader = oracle_reader.sorted();
        for threads in [1, 2] {
            let ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
            for _ in 0..2 {
                PlanSearch::new(&recorded)
                    .with_threads(threads)
                    .run(&ctx, &ExploreAll);
            }
            let replay = |collect: bool, visitor: &dyn Fn(&PlanSearch) -> SearchOutcome| {
                let before = ctx.stats();
                let out = visitor(
                    &PlanSearch::new(&u)
                        .with_threads(threads)
                        .with_collect_visited(collect),
                );
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
            let lean = replay(false, &|search| search.run(&ctx, &ExploreAll));
            assert!(lean.visited.is_empty(), "{desc}");
            assert_eq!(
                lean.counters.visited_count, oracle.counters.visited_count,
                "{desc}"
            );
            assert_eq!(
                sorted(&lean.normal_forms),
                sorted(&oracle.normal_forms),
                "{desc}"
            );
            let full = replay(true, &|search| search.run(&ctx, &ExploreAll));
            assert_eq!(
                full.counters.visited_count, oracle.counters.visited_count,
                "{desc}"
            );
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
        impl SearchVisitor for AcceptSmall {
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
            let out = PlanSearch::new(&u)
                .with_threads(threads)
                .run(&ctx, &AcceptSmall);
            assert!(out.counters.accepted, "accepted @ {threads} threads");
            // Whatever worker accepted, its plan is in the visited set.
            assert!(out.visited.iter().any(|q| q.from.len() <= 2));
        }
    }
}
