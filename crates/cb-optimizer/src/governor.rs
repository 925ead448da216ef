//! The resource governor: graceful degradation for the service path.
//!
//! A multi-tenant optimizer cannot let one tenant's pathological query —
//! or one injected fault — take the process down or starve its
//! neighbours. When phase 2 runs into trouble, the governor walks a
//! fixed ladder, always trading *quality of exploration* for
//! *availability of an answer*, never correctness (every plan the
//! search streams is equivalence-verified; the universal plan is
//! equivalent by construction):
//!
//! 1. **Shed shard caches.** Under a [`memo byte
//!    limit`](crate::OptimizerConfig::memo_byte_limit) the memo shards of
//!    the [`ChaseContext`] the optimization runs in drop their entries
//!    instead of growing without bound, at every thread count; the
//!    search proves verdicts again instead of remembering them. The rung
//!    counts this optimization's sheds, as a delta of the context's
//!    [`CacheStats::pressure_sheds`](cb_chase::CacheStats::pressure_sheds).
//! 2. **Collapse to one worker.** If a multi-worker walk loses every
//!    worker to panics and cannot finish, the same walk is rerun at one
//!    worker, on the calling thread, against the same [`ChaseContext`]
//!    (one worker never touches the `parallel::*` failpoint sites), under
//!    whatever wall clock the failed attempt left unspent. A walk that
//!    its [`SearchBudget`] stopped is not rerun, even if it lost
//!    workers: it holds the anytime answer the budget asked for.
//! 3. **Return the universal plan.** If phase 2 itself dies — a panic
//!    escaping a one-worker walk — the optimizer keeps any verified
//!    candidates it already streamed and, when there are none, answers
//!    with the verified universal plan: the anytime incumbent of last
//!    resort.
//!
//! Phase 1 has one fallback of its own: the universal plan is chased
//! through the memo shards, and a panic there (the shard failpoints
//! inject exactly that) is answered by the memo-free chase, which is
//! deterministic and yields the same plan.
//!
//! Every rung taken is recorded as a [`Degradation`] and surfaced in
//! [`OptimizeOutcome::degradations`](crate::OptimizeOutcome::degradations)
//! and in EXPLAIN's resilience section, so a degraded answer is never
//! silent.
//!
//! [`ChaseContext`]: cb_chase::ChaseContext

use std::fmt;
use std::time::Instant;

use cb_chase::{SearchBudget, SearchCounters};

/// One rung of the degradation ladder taken during an optimization, in
/// the order taken (see the [module docs](self) for the ladder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Degradation {
    /// Phase 1: the memoized chase panicked (`reason` carries the panic
    /// message) and the universal plan was recomputed without memos.
    MemoFreeChase { reason: String },
    /// Rung 1: the chase context shed shard memo entries to stay under
    /// the configured memo byte limit. `sheds` counts this
    /// optimization's shard-level shed events
    /// ([`cb_chase::CacheStats::pressure_sheds`]).
    ShardCachesShed { sheds: u64 },
    /// Rung 2: the parallel phase-2 search lost `workers_died` workers
    /// to panics and could not finish; the search was rerun
    /// sequentially under the remaining wall-clock budget.
    SequentialFallback { workers_died: usize },
    /// Rung 3: the phase-2 search itself aborted (`reason` carries the
    /// panic message). Verified candidates streamed before the abort
    /// are kept; with none, the verified universal plan is the answer.
    UniversalFallback { reason: String },
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Degradation::MemoFreeChase { reason } => {
                write!(
                    f,
                    "phase-1 chase failed in the memo ({reason}); recomputed without memos"
                )
            }
            Degradation::ShardCachesShed { sheds } => {
                write!(
                    f,
                    "shed shard memo caches under memory pressure ({sheds} shed event(s))"
                )
            }
            Degradation::SequentialFallback { workers_died } => {
                write!(
                    f,
                    "parallel search lost {workers_died} worker(s); reran sequentially"
                )
            }
            Degradation::UniversalFallback { reason } => {
                write!(
                    f,
                    "phase-2 search aborted ({reason}); answered with the verified incumbent"
                )
            }
        }
    }
}

/// Walks the degradation ladder for one optimization: decides when a
/// crippled parallel search is rerun sequentially (rung 2), integrates
/// the phase-2 [`SearchBudget`]
/// so the latency SLO covers the *whole* ladder rather than each rung,
/// and records every step taken.
#[derive(Debug)]
pub struct ResourceGovernor {
    budget: SearchBudget,
    start: Instant,
    degradations: Vec<Degradation>,
}

impl ResourceGovernor {
    pub fn new(budget: SearchBudget, start: Instant) -> ResourceGovernor {
        ResourceGovernor {
            budget,
            start,
            degradations: Vec::new(),
        }
    }

    /// The phase-2 budget with the wall clock shrunk by what has
    /// already elapsed since the search started — a retry rung runs
    /// under the *remaining* SLO, not a fresh one. A fully spent wall
    /// clock still visits the search root, so even a zero-remaining
    /// retry yields the universal plan.
    pub fn remaining_budget(&self) -> SearchBudget {
        SearchBudget {
            wall_clock: self
                .budget
                .wall_clock
                .map(|d| d.saturating_sub(self.start.elapsed())),
            nodes: self.budget.nodes,
        }
    }

    /// Should a finished parallel attempt be rerun sequentially? Yes
    /// exactly when worker deaths (not the budget) left the walk
    /// incomplete: every worker died with frontier work still queued.
    /// Survivor-completed searches — even ones that lost workers along
    /// the way — already hold the full result, and so does a walk its
    /// budget stopped: it is the anytime answer the budget asked for.
    pub fn should_fall_back(&self, search: &SearchCounters) -> bool {
        search.workers_died > 0 && !search.complete && !search.budget_expired
    }

    /// Record the phase-1 memo-free chase.
    pub fn note_memo_free_chase(&mut self, reason: impl Into<String>) {
        self.degradations.push(Degradation::MemoFreeChase {
            reason: reason.into(),
        });
    }

    /// Record rung 1, if any shed events happened.
    pub fn note_sheds(&mut self, sheds: u64) {
        if sheds > 0 {
            self.degradations
                .push(Degradation::ShardCachesShed { sheds });
        }
    }

    /// Record rung 2.
    pub fn note_sequential_fallback(&mut self, workers_died: usize) {
        self.degradations
            .push(Degradation::SequentialFallback { workers_died });
    }

    /// Record rung 3.
    pub fn note_universal_fallback(&mut self, reason: impl Into<String>) {
        self.degradations.push(Degradation::UniversalFallback {
            reason: reason.into(),
        });
    }

    /// The ladder rungs taken, in order.
    pub fn into_degradations(self) -> Vec<Degradation> {
        self.degradations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn search(complete: bool, budget_expired: bool, workers_died: usize) -> SearchCounters {
        SearchCounters {
            complete,
            budget_expired,
            workers_died,
            ..SearchCounters::default()
        }
    }

    #[test]
    fn fallback_fires_only_on_death_caused_incompleteness() {
        let g = ResourceGovernor::new(SearchBudget::default(), Instant::now());
        assert!(g.should_fall_back(&search(false, false, 4)));
        // Survivors finished: no rerun.
        assert!(!g.should_fall_back(&search(true, false, 1)));
        // Budget expiry is an SLO, not a fault: no rerun.
        assert!(!g.should_fall_back(&search(false, true, 2)));
        // Incomplete for capacity reasons with no deaths: no rerun.
        assert!(!g.should_fall_back(&search(false, false, 0)));
    }

    #[test]
    fn remaining_budget_shrinks_the_wall_clock_only() {
        let budget = SearchBudget {
            wall_clock: Some(Duration::from_secs(3600)),
            nodes: Some(17),
        };
        let g = ResourceGovernor::new(budget, Instant::now());
        let rest = g.remaining_budget();
        assert!(rest.wall_clock.unwrap() <= Duration::from_secs(3600));
        assert!(rest.wall_clock.unwrap() > Duration::from_secs(3590));
        assert_eq!(rest.nodes, Some(17));

        // An already-expired wall clock saturates to zero, not a panic.
        let spent = ResourceGovernor::new(
            SearchBudget {
                wall_clock: Some(Duration::ZERO),
                nodes: None,
            },
            Instant::now(),
        );
        assert_eq!(spent.remaining_budget().wall_clock, Some(Duration::ZERO));
    }

    #[test]
    fn rungs_are_recorded_in_order() {
        let mut g = ResourceGovernor::new(SearchBudget::default(), Instant::now());
        g.note_memo_free_chase("injected panic");
        g.note_sheds(0); // no-op
        g.note_sheds(3);
        g.note_sequential_fallback(2);
        g.note_universal_fallback("injected panic");
        let d = g.into_degradations();
        assert_eq!(d.len(), 4);
        assert!(
            matches!(&d[0], Degradation::MemoFreeChase { reason } if reason.contains("injected"))
        );
        assert_eq!(d[1], Degradation::ShardCachesShed { sheds: 3 });
        assert_eq!(d[2], Degradation::SequentialFallback { workers_died: 2 });
        assert!(
            matches!(&d[3], Degradation::UniversalFallback { reason } if reason.contains("injected"))
        );
    }
}
