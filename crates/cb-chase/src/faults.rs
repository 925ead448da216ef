//! Deterministic fault injection for the chase/search/optimizer stack.
//!
//! A *failpoint* is a named site threaded through a hot seam of the
//! system — a shard lock acquisition, a frontier pop, a chase step, a
//! pipeline operator — at which a configured fault fires: a panic, an
//! artificial delay, a spurious [`Err`], or a memory-pressure signal.
//! The resilience layer (worker `catch_unwind`, shard poison recovery,
//! checkout retry, the optimizer's degradation ladder) is exercised by
//! the chaos harness (`tests/chaos.rs`) through exactly these sites.
//!
//! **Zero cost when disabled.** Every site guards its slow path behind
//! [`armed`] — a single relaxed atomic load. A process that never sets
//! `CB_FAULTS` (and never calls [`install`]) pays one branch per site.
//!
//! **Deterministic.** Triggers are counter-based (`@n`: the nth hit of a
//! site, `*n`: every nth hit) or seeded-probabilistic (`%p`: a splitmix
//! hash of `(seed, site, hit counter)` compared against `p`), so a fault
//! schedule replays bit-identically under a fixed seed regardless of
//! thread interleaving of *other* sites.
//!
//! **Never silently swallowed.** Every fired fault is counted
//! ([`FaultStats::injected`]); the code that absorbs one must call
//! [`note_recovered`] (the fault was survived internally: a retry, a
//! re-claimed node, a shed cache) or [`note_reported`] (the fault
//! surfaced to the caller as a typed error or a degradation-trace
//! entry). The chaos harness asserts `injected == recovered + reported`
//! after every schedule. Delays self-acknowledge as recovered when they
//! fire — sleeping is its own recovery.
//!
//! # `CB_FAULTS` syntax
//!
//! Semicolon-separated entries; one optional `seed=N` entry plus any
//! number of `site=action[trigger]` entries:
//!
//! ```text
//! CB_FAULTS="seed=42;parallel::pop=panic@3;shared::shard_lock=err%0.2;exec::op=delay:5"
//! ```
//!
//! Actions: `panic`, `err`, `mem`, `delay:MILLIS`. Triggers: `@N` (the
//! Nth hit only, 1-based), `*N` (every Nth hit), `%P` (probability `P`
//! in `[0, 1]` per hit, seeded); no trigger means every hit. Site names
//! must come from [`SITES`]; cb-analyze's CB040 lint validates a spec
//! without arming it.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

std::thread_local! {
    /// Scoped-arming participation: set for the thread that installed a
    /// [`ScopedFaults`] schedule and for worker threads that [`adopt`]ed
    /// its token. Ignored under global (`CB_FAULTS`/[`install`]) arming.
    static PARTICIPANT: Cell<bool> = const { Cell::new(false) };
}

/// Every registered failpoint site, in dependency order: cb-chase's
/// chase/containment seams, the sharded core, the parallel frontier,
/// and the engine's pipeline driver. The CB040 lint rejects a
/// `CB_FAULTS` spec naming anything else; the chaos harness's coverage
/// test proves each one is reachable from a real workload.
pub const SITES: &[&str] = &[
    // One resumable chase step (`ChaseState::step`) is about to run.
    "chase::step",
    // A containment proof's hom-search/step loop iteration.
    "context::contained_in",
    // An implication proof (`D ⊨ σ`) is about to be computed.
    "context::implies",
    // A shard mutex was just acquired (fires *inside* the lock, so a
    // panic here genuinely poisons the shard).
    "shared::shard_lock",
    // A chase memo entry (or a search walk's verified lattice) is being
    // checked out of its shard.
    "shared::checkout",
    // A checked-out entry or lattice is being parked back.
    "shared::park",
    // A memo insert is about to land (the memory-pressure seam).
    "shared::memo",
    // A worker popped a frontier node (fires outside the lock).
    "parallel::pop",
    // A worker is claiming a child removal set.
    "parallel::claim",
    // The driver is about to spawn a search worker.
    "parallel::spawn",
    // A worker is about to run the visit verdict (costing).
    "parallel::visit",
    // The pipeline driver is about to execute an operator.
    "exec::op",
];

/// The four things a site can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `panic!` with a recognizable payload (see [`is_injected_panic`]).
    Panic,
    /// Sleep, then proceed normally (self-acknowledged as recovered).
    Delay,
    /// A spurious transient error returned to the site's caller.
    Error,
    /// A memory-pressure signal (the shared core sheds the shard).
    MemPressure,
}

/// A fired fault a site hands back to its caller (only the two
/// non-control-flow kinds — `Error` and `MemPressure` — are returned;
/// panics unwind and delays block in place).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired (one of [`SITES`]).
    pub site: &'static str,
    /// [`FaultKind::Error`] or [`FaultKind::MemPressure`].
    pub kind: FaultKind,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected {:?} fault at {}", self.kind, self.site)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Action {
    Panic,
    Delay(Duration),
    Error,
    MemPressure,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire on the nth hit only (1-based).
    Nth(u64),
    /// Fire on every nth hit.
    EveryNth(u64),
    /// Fire with probability p per hit, seeded and counter-hashed.
    Prob(f64),
}

/// A `CB_FAULTS` entry that failed to parse or validate. CB040 carries
/// these as diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending entry, verbatim.
    pub entry: String,
    /// Why it was rejected.
    pub reason: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault entry `{}`: {}", self.entry, self.reason)
    }
}

/// A parsed, validated fault schedule (site plans + seed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    seed: u64,
    plans: Vec<(&'static str, Action, Trigger)>,
}

impl FaultSpec {
    /// The sites this schedule targets.
    pub fn sites(&self) -> Vec<&'static str> {
        self.plans.iter().map(|(s, _, _)| *s).collect()
    }
}

/// Counters of fired faults and their acknowledgements.
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    /// Faults fired, total.
    pub injected: u64,
    /// Faults survived internally (retry, re-claim, shed, delay).
    pub recovered: u64,
    /// Faults surfaced to the caller (typed error, degradation trace).
    pub reported: u64,
    /// Fired faults per site.
    pub injected_by_site: BTreeMap<&'static str, u64>,
    /// Raw hit counts per site while armed (fired or not) — the chaos
    /// harness's reachability evidence.
    pub hits_by_site: BTreeMap<&'static str, u64>,
}

impl FaultStats {
    /// Acknowledged faults: recovered + reported. The chaos harness's
    /// no-silent-swallowing invariant is `injected == acknowledged()`.
    pub fn acknowledged(&self) -> u64 {
        self.recovered + self.reported
    }
}

#[derive(Default)]
struct Registry {
    spec_text: String,
    seed: u64,
    plans: BTreeMap<&'static str, (Action, Trigger)>,
    stats: FaultStats,
    /// Scoped arming ([`ScopedFaults`]): only participant threads (the
    /// installer and workers that adopted its token) observe the
    /// schedule — concurrently running tests in the same process do
    /// not. Global arming (`CB_FAULTS` / [`install`]): every thread.
    scoped: bool,
}

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// Three-state flag: uninitialized (consult `CB_FAULTS` once), off, on.
static STATE: AtomicU8 = AtomicU8::new(UNINIT);

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Is any fault schedule armed? One relaxed atomic load after the first
/// call (the first call resolves `CB_FAULTS` from the environment).
#[inline]
pub fn armed() -> bool {
    match STATE.load(Ordering::Relaxed) {
        OFF => false,
        ON => true,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    // Serialize first-time init through the registry lock so two racing
    // callers cannot install twice; losers observe the winner's STATE.
    let _guard = registry();
    match STATE.load(Ordering::Relaxed) {
        OFF => return false,
        ON => return true,
        _ => {}
    }
    drop(_guard);
    match std::env::var("CB_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => match install(&spec) {
            Ok(()) => true,
            Err(errors) => {
                // Invalid spec: refuse to arm, but never silently — the
                // operator asked for faults and is not getting them.
                for e in &errors {
                    eprintln!("CB_FAULTS ignored: {e}");
                }
                STATE.store(OFF, Ordering::Relaxed);
                false
            }
        },
        _ => {
            STATE.store(OFF, Ordering::Relaxed);
            false
        }
    }
}

/// Parses and validates a `CB_FAULTS` spec without arming anything —
/// the CB040 lint's entry point.
pub fn parse_spec(spec: &str) -> Result<FaultSpec, Vec<SpecError>> {
    let mut out = FaultSpec::default();
    let mut errors = Vec::new();
    for raw in spec.split(';') {
        let entry = raw.trim();
        if entry.is_empty() {
            continue;
        }
        let Some((lhs, rhs)) = entry.split_once('=') else {
            errors.push(SpecError {
                entry: entry.to_string(),
                reason: "expected `seed=N` or `site=action[trigger]`".to_string(),
            });
            continue;
        };
        let (lhs, rhs) = (lhs.trim(), rhs.trim());
        if lhs == "seed" {
            match rhs.parse::<u64>() {
                Ok(s) => out.seed = s,
                Err(_) => errors.push(SpecError {
                    entry: entry.to_string(),
                    reason: format!("seed `{rhs}` is not a u64"),
                }),
            }
            continue;
        }
        let Some(site) = SITES.iter().copied().find(|s| *s == lhs) else {
            errors.push(SpecError {
                entry: entry.to_string(),
                reason: format!(
                    "unknown failpoint site `{lhs}` (registered sites: {})",
                    SITES.join(", ")
                ),
            });
            continue;
        };
        match parse_action(rhs) {
            Ok((action, trigger)) => out.plans.push((site, action, trigger)),
            Err(reason) => errors.push(SpecError {
                entry: entry.to_string(),
                reason,
            }),
        }
    }
    if errors.is_empty() {
        Ok(out)
    } else {
        Err(errors)
    }
}

fn parse_action(rhs: &str) -> Result<(Action, Trigger), String> {
    // Split the trigger suffix off first: `@N`, `*N`, or `%P`.
    let (body, trigger) = if let Some((b, n)) = rhs.split_once('@') {
        let n = n
            .parse::<u64>()
            .map_err(|_| format!("`@{n}` is not a hit count"))?;
        if n == 0 {
            return Err("`@0` never fires; hit counts are 1-based".to_string());
        }
        (b, Trigger::Nth(n))
    } else if let Some((b, n)) = rhs.split_once('*') {
        let n = n
            .parse::<u64>()
            .map_err(|_| format!("`*{n}` is not a period"))?;
        if n == 0 {
            return Err("`*0` never fires; periods are 1-based".to_string());
        }
        (b, Trigger::EveryNth(n))
    } else if let Some((b, p)) = rhs.split_once('%') {
        let p = p
            .parse::<f64>()
            .map_err(|_| format!("`%{p}` is not a probability"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("probability {p} outside [0, 1]"));
        }
        (b, Trigger::Prob(p))
    } else {
        (rhs, Trigger::Always)
    };
    let action = match body.trim() {
        "panic" => Action::Panic,
        "err" => Action::Error,
        "mem" => Action::MemPressure,
        other => {
            if let Some(ms) = other.strip_prefix("delay:") {
                let ms = ms
                    .parse::<u64>()
                    .map_err(|_| format!("`delay:{ms}` is not a millisecond count"))?;
                Action::Delay(Duration::from_millis(ms))
            } else {
                return Err(format!(
                    "unknown action `{other}` (expected panic, err, mem, or delay:MS)"
                ));
            }
        }
    };
    Ok((action, trigger))
}

/// Arms a fault schedule for the whole process. Replaces any previous
/// schedule and resets all counters. Tests should prefer
/// [`ScopedFaults::install`], which also serializes against other
/// fault-driven tests and disarms on drop.
pub fn install(spec: &str) -> Result<(), Vec<SpecError>> {
    install_inner(spec, false)
}

fn install_inner(spec: &str, scoped: bool) -> Result<(), Vec<SpecError>> {
    let parsed = parse_spec(spec)?;
    let mut r = registry();
    r.spec_text = spec.to_string();
    r.seed = parsed.seed;
    r.plans = parsed
        .plans
        .into_iter()
        .map(|(s, a, t)| (s, (a, t)))
        .collect();
    r.stats = FaultStats::default();
    r.scoped = scoped;
    STATE.store(ON, Ordering::Relaxed);
    Ok(())
}

/// Scoped-arming inheritance for worker pools: the spawning thread
/// grabs a token, each spawned worker [`adopt`]s it, and a thread-scoped
/// schedule then reaches exactly the spawner's workers. Free (and
/// meaningless) under global arming or when disarmed.
pub fn inherit_token() -> bool {
    PARTICIPANT.with(Cell::get)
}

/// Marks the current thread a participant of a scoped schedule (see
/// [`inherit_token`]). A `false` token is a no-op.
pub fn adopt(token: bool) {
    if token {
        PARTICIPANT.with(|p| p.set(true));
    }
}

/// Disarms every failpoint and clears the schedule and counters.
pub fn disarm() {
    let mut r = registry();
    *r = Registry::default();
    STATE.store(OFF, Ordering::Relaxed);
}

/// The spec text currently armed, if any (the optimizer's preflight
/// lints it through CB040).
pub fn active_spec() -> Option<String> {
    if !armed() {
        return None;
    }
    let r = registry();
    if r.spec_text.is_empty() {
        None
    } else {
        Some(r.spec_text.clone())
    }
}

/// The failpoint: call at a registered site. Disarmed: one atomic load,
/// `Ok`. Armed: counts the hit and fires the configured fault, if any —
/// a panic unwinds from here, a delay sleeps here, and the two signal
/// kinds come back as `Err` for the site's caller to recover or report.
#[inline]
pub fn hit(site: &'static str) -> Result<(), InjectedFault> {
    if !armed() {
        return Ok(());
    }
    fire(site)
}

#[cold]
fn fire(site: &'static str) -> Result<(), InjectedFault> {
    let action = {
        let mut r = registry();
        // `disarm` may have run between the caller's `armed()` check and
        // this lock; it clears the registry under the same lock, so a
        // hit that lost that race must not count against the cleared one.
        if STATE.load(Ordering::Relaxed) != ON {
            return Ok(());
        }
        // A thread-scoped schedule is invisible to non-participants:
        // their hits neither count nor fire, so a `ScopedFaults` test
        // cannot perturb (or be perturbed by) concurrently running
        // tests in the same process.
        if r.scoped && !PARTICIPANT.with(Cell::get) {
            return Ok(());
        }
        let count = {
            let n = r.stats.hits_by_site.entry(site).or_insert(0);
            *n += 1;
            *n
        };
        let Some(&(action, trigger)) = r.plans.get(site) else {
            return Ok(());
        };
        let fires = match trigger {
            Trigger::Always => true,
            Trigger::Nth(n) => count == n,
            Trigger::EveryNth(n) => count % n == 0,
            Trigger::Prob(p) => unit_interval(mix(r.seed, site, count)) < p,
        };
        if !fires {
            return Ok(());
        }
        r.stats.injected += 1;
        *r.stats.injected_by_site.entry(site).or_insert(0) += 1;
        if matches!(action, Action::Delay(_)) {
            // A delay recovers by construction: the site just waits.
            r.stats.recovered += 1;
        }
        action
    };
    match action {
        Action::Panic => panic!("cb-fault: injected panic at {site}"),
        Action::Delay(d) => {
            std::thread::sleep(d);
            Ok(())
        }
        Action::Error => Err(InjectedFault {
            site,
            kind: FaultKind::Error,
        }),
        Action::MemPressure => Err(InjectedFault {
            site,
            kind: FaultKind::MemPressure,
        }),
    }
}

/// Acknowledges a fault that was survived internally (retried, shed,
/// re-claimed). No-op when disarmed, so recovery paths can call it
/// unconditionally.
pub fn note_recovered() {
    if armed() {
        registry().stats.recovered += 1;
    }
}

/// Acknowledges a fault that surfaced to the caller as a typed error or
/// a degradation-trace entry.
pub fn note_reported() {
    if armed() {
        registry().stats.reported += 1;
    }
}

/// Does a caught panic payload come from an injected [`FaultKind::Panic`]
/// (as opposed to a genuine bug)? Recovery code counts the former as
/// recovered; both are survived the same way.
pub fn is_injected_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<String>()
        .is_some_and(|s| s.starts_with("cb-fault:"))
        || payload
            .downcast_ref::<&str>()
            .is_some_and(|s| s.starts_with("cb-fault:"))
}

/// Snapshot of the fault counters.
pub fn stats() -> FaultStats {
    registry().stats.clone()
}

/// Counter-hashed splitmix finalizer over `(seed, site, hit count)` —
/// the probabilistic trigger's coin, deterministic per (seed, site, n).
fn mix(seed: u64, site: &str, count: u64) -> u64 {
    let mut h = seed ^ count.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for b in site.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Top 53 bits as a float in `[0, 1)`.
fn unit_interval(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// RAII guard for fault-driven tests: serializes against every other
/// `ScopedFaults` holder in the process (fault state is global), arms
/// the schedule, and disarms + clears counters on drop. Chaos tests in
/// one binary can therefore run under the default parallel test runner.
pub struct ScopedFaults {
    _gate: MutexGuard<'static, ()>,
}

static TEST_GATE: Mutex<()> = Mutex::new(());

impl ScopedFaults {
    /// Arms `spec` for the lifetime of the guard, **thread-scoped**: only
    /// this thread (and worker threads that [`adopt`] its
    /// [`inherit_token`]) observe the schedule, so concurrently running
    /// tests in the same binary are untouched.
    pub fn install(spec: &str) -> Result<ScopedFaults, Vec<SpecError>> {
        // A previous holder may have died mid-panic test: the gate's
        // poison carries no state worth propagating.
        let gate = TEST_GATE.lock().unwrap_or_else(PoisonError::into_inner);
        install_inner(spec, true)?;
        PARTICIPANT.with(|p| p.set(true));
        Ok(ScopedFaults { _gate: gate })
    }
}

impl Drop for ScopedFaults {
    fn drop(&mut self) {
        PARTICIPANT.with(|p| p.set(false));
        disarm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hits_are_free_and_ok() {
        let _guard = ScopedFaults::install("seed=1").unwrap();
        disarm();
        assert!(!armed());
        assert!(hit("parallel::pop").is_ok());
        // No counters move while disarmed.
        assert_eq!(stats().hits_by_site.len(), 0);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _guard = ScopedFaults::install("parallel::pop=err@3").unwrap();
        let mut errs = 0;
        for _ in 0..10 {
            if hit("parallel::pop").is_err() {
                errs += 1;
                note_recovered();
            }
        }
        assert_eq!(errs, 1);
        let s = stats();
        assert_eq!(s.injected, 1);
        assert_eq!(s.injected_by_site.get("parallel::pop"), Some(&1));
        assert_eq!(s.hits_by_site.get("parallel::pop"), Some(&10));
        assert_eq!(s.acknowledged(), 1);
    }

    #[test]
    fn every_nth_trigger_has_the_right_period() {
        let _guard = ScopedFaults::install("shared::checkout=mem*4").unwrap();
        let fired: Vec<bool> = (0..12).map(|_| hit("shared::checkout").is_err()).collect();
        let expect: Vec<bool> = (1..=12).map(|i| i % 4 == 0).collect();
        assert_eq!(fired, expect);
        assert_eq!(stats().injected, 3);
    }

    #[test]
    fn probabilistic_trigger_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let _guard =
                ScopedFaults::install(&format!("seed={seed};chase::step=err%0.5")).unwrap();
            (0..64).map(|_| hit("chase::step").is_err()).collect()
        };
        let a1 = run(7);
        let a2 = run(7);
        let b = run(8);
        assert_eq!(a1, a2, "same seed, same schedule");
        assert_ne!(a1, b, "different seed, different schedule");
        let fired = a1.iter().filter(|&&f| f).count();
        assert!((16..=48).contains(&fired), "p=0.5 fired {fired}/64");
    }

    #[test]
    fn injected_panics_are_recognizable() {
        let _guard = ScopedFaults::install("parallel::visit=panic@1").unwrap();
        let err = std::panic::catch_unwind(|| {
            let _ = hit("parallel::visit");
        })
        .unwrap_err();
        assert!(is_injected_panic(err.as_ref()));
        assert!(!is_injected_panic(
            Box::new("unrelated".to_string()).as_ref()
        ));
    }

    #[test]
    fn delay_self_acknowledges() {
        let _guard = ScopedFaults::install("exec::op=delay:1@1").unwrap();
        let t0 = std::time::Instant::now();
        assert!(hit("exec::op").is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(1));
        let s = stats();
        assert_eq!(s.injected, 1);
        assert_eq!(s.recovered, 1);
    }

    #[test]
    fn spec_errors_name_the_offense() {
        let errs =
            parse_spec("seed=x;nope::site=panic;exec::op=explode;exec::op=err%1.5").unwrap_err();
        assert_eq!(errs.len(), 4);
        assert!(errs[0].reason.contains("not a u64"));
        assert!(errs[1].reason.contains("unknown failpoint site"));
        assert!(errs[2].reason.contains("unknown action"));
        assert!(errs[3].reason.contains("outside [0, 1]"));
        // A valid spec parses and lists its sites.
        let ok = parse_spec("seed=9;exec::op=err@1;shared::park=delay:2").unwrap();
        assert_eq!(ok.sites(), vec!["exec::op", "shared::park"]);
    }

    #[test]
    fn every_registered_site_is_unique_and_parses() {
        for site in SITES {
            let spec = format!("{site}=panic@1");
            parse_spec(&spec).unwrap_or_else(|e| panic!("{site}: {e:?}"));
        }
        let mut sorted: Vec<&str> = SITES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), SITES.len(), "duplicate site names");
    }
}
