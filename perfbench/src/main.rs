//! End-to-end benchmark of the optimizer service.
//!
//! Every request goes from PC query text to rows the way a client of
//! [`PlanService`] does: `pcql::parser::parse_query` → `PlanService::
//! prepare` (pre-flight, phase-1 chase, phase-2 backchase + costing,
//! cleanup — or a prepared-plan cache hit) → `cb_engine::compile` →
//! `cb_engine::execute` → rows. The query mix spans the paper's three
//! builtin scenarios (ProjDept, §4 indexes, §4 views) over seeded
//! generated instances, one long-lived `PlanService` per scenario.
//! Workloads:
//!
//! * `plan-search` — every query text is new to the service, so each
//!   request runs the full chase & backchase: the plan cache is bypassed.
//! * `catalog-churn` — a small pool of queries, prepared during set-up
//!   and repeated under fresh variable names, so most requests are
//!   plan-cache hits and time goes to parsing, the cache lookup,
//!   compilation and execution; between them, a catalog swap every few
//!   queries: ProjDept statistics refreshes (cached plans invalidated,
//!   chase memos kept), the §4 index `SB` dropped and re-added (the chase
//!   core resets) and reordered-but-identical §4 views catalogs (nothing
//!   may be invalidated).
//!
//! Each run builds its inputs from `--seed`, sets up three times (the
//! median is `setup_s`), then serves queries in a closed loop, one client,
//! for `--seconds`, rounded up to whole periods of the workload's fixed
//! query order, so runs of any length serve the same mix. Every result is
//! checked against the rows of the unoptimized input query, compiled with
//! hash joins and executed over the same instance.
//!
//! The last line of stdout is one JSON object `{correct, attempted,
//! failed, metrics}`: end-to-end metrics with `--trace 0`, per-layer
//! metrics (each layer timed separately) with `--trace 1`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-search --seed 1 --seconds 10 --trace 0
//! ```

use std::collections::{BTreeSet, HashMap};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cb_catalog::scenarios::{projdept, relational_indexes, relational_views};
use cb_catalog::Catalog;
use cb_engine::{CompileOptions, Evaluator, Instance, Materializer, Value};
use cb_optimizer::{OptimizerConfig, PlanService};
use pcql::{Query, Type};

const WORKLOADS: [&str; 2] = ["plan-search", "catalog-churn"];
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
const _: () = assert!(SETUP_REPEATS % 2 == 1, "the median needs an odd count");

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut setup_times = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first so every repeat starts alike.
        drop(bench.take());
        let t = Instant::now();
        let b = Bench::setup(&args.workload, args.seed);
        setup_times.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up ran");
    let run = bench.run(args.seed, Duration::from_secs_f64(args.seconds), args.trace);
    let metrics = if args.trace {
        run.layer_metrics()
    } else {
        vec![
            ("latency_ms", run.mean_ms(None), "ms"),
            ("tail_ms", run.tail_ms(), "ms"),
            ("setup_s", median(&mut setup_times), "s"),
        ]
    };
    eprintln!(
        "perfbench: {} seed {}: {} queries in {} periods, {} failed, {} wrong; set-ups {:?} s",
        args.workload,
        args.seed,
        run.attempted,
        run.attempted / bench.period,
        run.failed,
        run.wrong,
        setup_times
    );
    println!("{}", render_result(&run, &metrics));
    ExitCode::SUCCESS
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0) {
            return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
        }
        Ok(Args {
            workload,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every input.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    ProjDept,
    Indexes,
    Views,
}

impl Scenario {
    /// The text of this scenario's query with parameter `k`, under fresh
    /// variable names (so repeated queries differ as text and meet only
    /// after alpha-normalization):
    ///
    /// * ProjDept — projects of customer `k` (0 is `"CitiBank"`);
    /// * Indexes — `r.A = k % 100 and r.B = k / 100`;
    /// * Views — `0` is the plain join `R ⋈ S`, `k > 0` adds `r.A = k - 1`.
    fn query_text(self, k: usize, rng: &mut Rng) -> String {
        let v = fresh_names(rng, 3);
        match self {
            Scenario::ProjDept => {
                let cust = if k == 0 {
                    "CitiBank".to_string()
                } else {
                    format!("cust{k}")
                };
                let (d, s, p) = (&v[0], &v[1], &v[2]);
                format!(
                    "select struct(PN = {s}, PB = {p}.Budg, DN = {d}.DName) \
                     from depts {d}, {d}.DProjs {s}, Proj {p} \
                     where {s} = {p}.PName and {p}.CustName = \"{cust}\""
                )
            }
            Scenario::Indexes => {
                let r = &v[0];
                format!(
                    "select struct(C = {r}.C) from R {r} where {r}.A = {} and {r}.B = {}",
                    k % 100,
                    k / 100
                )
            }
            Scenario::Views => {
                let (r, s) = (&v[0], &v[1]);
                let mut text = format!(
                    "select struct(A = {r}.A, B = {s}.B, C = {s}.C) \
                     from R {r}, S {s} where {r}.B = {s}.B"
                );
                if k > 0 {
                    text.push_str(&format!(" and {r}.A = {}", k - 1));
                }
                text
            }
        }
    }

    fn builtin_catalog(self) -> Catalog {
        match self {
            Scenario::ProjDept => projdept::catalog(),
            Scenario::Indexes => relational_indexes::catalog(),
            Scenario::Views => relational_views::catalog(),
        }
    }
}

/// `n` distinct variable names that collide with no root or keyword.
fn fresh_names(rng: &mut Rng, n: usize) -> Vec<String> {
    const STEMS: [&str; 6] = ["v", "w", "q", "m", "k", "u"];
    let mut names: Vec<String> = Vec::with_capacity(n);
    while names.len() < n {
        let name = format!("{}{}", STEMS[rng.below(STEMS.len())], rng.below(100));
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

/// One data version: a materialized instance and the statistics
/// collected from it.
struct Data {
    instance: Instance,
    stats: cb_catalog::Stats,
}

impl Data {
    fn new(scenario: Scenario, mut instance: Instance) -> Data {
        Materializer::new(&scenario.builtin_catalog())
            .materialize(&mut instance)
            .expect("generated instances materialize");
        let stats = cb_engine::collect_stats(&instance);
        Data { instance, stats }
    }
}

fn projdept_data(n_depts: usize, projs_per_dept: usize, n_customers: usize, seed: u64) -> Data {
    let instance = cb_engine::projdept_instance(&cb_engine::ProjDeptParams {
        n_depts,
        projs_per_dept,
        n_customers,
        seed,
    });
    Data::new(Scenario::ProjDept, instance)
}

/// `R(A, B, C)` with 100 distinct `A` values (the query decoding above).
fn indexes_data(n_rows: usize, distinct_b: usize, seed: u64) -> Data {
    let instance = cb_engine::rabc_instance(&cb_engine::RabcParams {
        n_rows,
        distinct_a: 100,
        distinct_b,
        seed,
    });
    Data::new(Scenario::Indexes, instance)
}

fn views_data(n: usize, match_fraction: f64, seed: u64) -> Data {
    let instance = cb_engine::join_instance(&cb_engine::JoinParams {
        n_r: n,
        n_s: n,
        match_fraction,
        seed,
    });
    Data::new(Scenario::Views, instance)
}

/// §4 scenario 1 without the secondary index `SB`: a different
/// constraint theory from the builtin catalog.
fn indexes_catalog_without_sb() -> Catalog {
    let mut c = Catalog::new();
    c.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int), ("C", Type::Int)]);
    c.add_direct_mapping("R");
    c.add_secondary_index("SA", "R", "A")
        .expect("SA is well-formed");
    c
}

/// §4 scenario 2 with its structures registered in the opposite order:
/// the same constraint theory as the builtin catalog.
fn views_catalog_reordered() -> Catalog {
    let mut c = Catalog::new();
    c.add_logical_relation("S", [("B", Type::Int), ("C", Type::Int)]);
    c.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
    c.add_direct_mapping("S");
    c.add_direct_mapping("R");
    c.add_secondary_index("IS", "S", "B")
        .expect("IS is well-formed");
    c.add_secondary_index("IR", "R", "A")
        .expect("IR is well-formed");
    c.add_materialized_view(
        "V",
        pcql::parser::parse_query("select struct(A = r.A) from R r, S s where r.B = s.B")
            .expect("view text parses"),
    )
    .expect("V is well-formed");
    c
}

/// A lane's query parameters: a seeded permutation, drawn in order.
struct Keys {
    order: Vec<usize>,
    next: usize,
    /// `None`: cycle through `order` (repeated keys: the plan cache is
    /// used). `Some(end)`: continue past `order` with `end, end + 1, …`
    /// (no key ever repeats).
    past_end: Option<usize>,
}

impl Keys {
    fn pool(mut order: Vec<usize>, rng: &mut Rng) -> Keys {
        rng.shuffle(&mut order);
        Keys {
            order,
            next: 0,
            past_end: None,
        }
    }

    fn fresh(range: std::ops::Range<usize>, rng: &mut Rng) -> Keys {
        let past_end = Some(range.end);
        let mut order: Vec<usize> = range.collect();
        rng.shuffle(&mut order);
        Keys {
            order,
            next: 0,
            past_end,
        }
    }

    fn draw(&mut self) -> usize {
        let i = self.next;
        self.next += 1;
        match self.past_end {
            None => self.order[i % self.order.len()],
            Some(end) => self
                .order
                .get(i)
                .copied()
                .unwrap_or(end + i - self.order.len()),
        }
    }
}

/// One scenario served by one long-lived [`PlanService`].
struct Lane {
    scenario: Scenario,
    data: Vec<Data>,
    /// The catalog states a swap cycles through, each with the index of
    /// the data version its statistics describe.
    states: Vec<(Catalog, usize)>,
    current: usize,
    svc: PlanService,
    keys: Keys,
}

impl Lane {
    fn new(scenario: Scenario, data: Vec<Data>, states: Vec<(Catalog, usize)>, keys: Keys) -> Lane {
        let states: Vec<(Catalog, usize)> = states
            .into_iter()
            .map(|(mut c, d)| {
                *c.stats_mut() = data[d].stats.clone();
                (c, d)
            })
            .collect();
        // Explicit config: sequential search, independent of the
        // environment.
        let svc = PlanService::new(states[0].0.clone(), OptimizerConfig::default());
        Lane {
            scenario,
            data,
            states,
            current: 0,
            svc,
            keys,
        }
    }

    /// A lane over one data version and the scenario's builtin catalog.
    fn single(scenario: Scenario, data: Data, keys: Keys) -> Lane {
        Lane::new(
            scenario,
            vec![data],
            vec![(scenario.builtin_catalog(), 0)],
            keys,
        )
    }

    fn catalog(&self) -> &Catalog {
        &self.states[self.current].0
    }

    fn instance(&self) -> &Instance {
        &self.data[self.states[self.current].1].instance
    }

    /// Swap in the next catalog state.
    fn swap(&mut self) {
        self.current = (self.current + 1) % self.states.len();
        self.svc.swap_catalog(self.catalog().clone());
    }

    /// Prepare every key of a pool, so serving starts from a warm cache.
    fn prepare_pool(&mut self, rng: &mut Rng) {
        for &k in &self.keys.order {
            let text = self.scenario.query_text(k, rng);
            let q = pcql::parser::parse_query(&text).expect("benchmark query parses");
            self.svc.prepare(&q).expect("benchmark query prepares");
        }
    }
}

/// One set-up workload.
struct Bench {
    lanes: Vec<Lane>,
    /// Lane indices cycled through, one query each.
    cycle: Vec<usize>,
    /// Swap the next lane's catalog before every `swap_every` queries (0:
    /// never); lanes take turns.
    swap_every: usize,
    /// The query order (lanes, keys, swaps) repeats every `period`
    /// queries; a run serves whole periods.
    period: usize,
}

impl Bench {
    fn setup(workload: &str, seed: u64) -> Bench {
        let mut rng = Rng::new(seed, 1);
        let s = seed.wrapping_mul(1000);
        match workload {
            "plan-search" => Bench {
                lanes: vec![
                    Lane::single(
                        Scenario::ProjDept,
                        projdept_data(100, 10, 500, s + 1),
                        Keys::fresh(0..1_000, &mut rng),
                    ),
                    Lane::single(
                        Scenario::Indexes,
                        indexes_data(5_000, 50, s + 2),
                        Keys::fresh(0..5_000, &mut rng),
                    ),
                    Lane::single(
                        Scenario::Views,
                        views_data(1_000, 0.05, s + 3),
                        // Selections only: the plain join is one key.
                        Keys::fresh(1..1_001, &mut rng),
                    ),
                ],
                cycle: vec![0, 1, 2, 1, 2, 1, 2],
                swap_every: 0,
                period: 7,
            },
            "catalog-churn" => {
                let mut lanes = vec![
                    Lane::new(
                        Scenario::ProjDept,
                        vec![
                            projdept_data(80, 8, 20, s + 1),
                            projdept_data(80, 8, 25, s + 2),
                        ],
                        vec![(projdept::catalog(), 0), (projdept::catalog(), 1)],
                        Keys::pool(vec![0, 1], &mut rng),
                    ),
                    Lane::new(
                        Scenario::Indexes,
                        vec![
                            indexes_data(4_000, 50, s + 3),
                            indexes_data(4_000, 40, s + 4),
                        ],
                        vec![
                            (relational_indexes::catalog(), 0),
                            (indexes_catalog_without_sb(), 1),
                        ],
                        Keys::pool(vec![3, 250, 1_042, 3_901], &mut rng),
                    ),
                    Lane::new(
                        Scenario::Views,
                        vec![views_data(1_000, 0.05, s + 5)],
                        vec![
                            (relational_views::catalog(), 0),
                            (views_catalog_reordered(), 0),
                        ],
                        Keys::pool(vec![0, 1, 30, 101], &mut rng),
                    ),
                ];
                for lane in &mut lanes {
                    lane.prepare_pool(&mut rng);
                }
                // Each lane is swapped every 30 queries and has two
                // catalog states: the order repeats every 60 queries.
                Bench {
                    lanes,
                    cycle: vec![0, 1, 2],
                    swap_every: 10,
                    period: 60,
                }
            }
            _ => unreachable!("workload names are checked when parsing arguments"),
        }
    }

    fn run(&mut self, seed: u64, duration: Duration, trace: bool) -> Run {
        let mut rng = Rng::new(seed, 2);
        let mut references: HashMap<(usize, usize, Query), BTreeSet<Value>> = HashMap::new();
        let before: Vec<_> = self
            .lanes
            .iter()
            .map(|l| (l.svc.stats(), l.svc.chase_stats()))
            .collect();
        let mut run = Run::default();
        let start = Instant::now();
        while run.attempted % self.period != 0 || run.attempted == 0 || start.elapsed() < duration {
            if self.swap_every > 0 && run.attempted % self.swap_every == 0 {
                let li = (run.attempted / self.swap_every) % self.lanes.len();
                self.lanes[li].swap();
            }
            let li = self.cycle[run.attempted % self.cycle.len()];
            let lane = &mut self.lanes[li];
            let k = lane.keys.draw();
            let text = lane.scenario.query_text(k, &mut rng);
            run.attempted += 1;
            let served = match serve(lane, &text, trace) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("perfbench: query failed: {e}\n  {text}");
                    run.failed += 1;
                    continue;
                }
            };
            // Untimed: check the rows against the unoptimized query.
            let key = (
                li,
                lane.states[lane.current].1,
                served.query.alpha_normalized(),
            );
            let expected = references
                .entry(key)
                .or_insert_with(|| reference_rows(lane, &served.query));
            if *expected != served.rows {
                eprintln!(
                    "perfbench: wrong rows ({} vs {} expected)\n  {text}",
                    served.rows.len(),
                    expected.len()
                );
                run.wrong += 1;
            }
            run.record(li, &served);
        }
        for (li, (lane, (svc0, chase0))) in self.lanes.iter().zip(before).enumerate() {
            let (svc1, chase1) = (lane.svc.stats(), lane.svc.chase_stats());
            eprintln!(
                "perfbench: {:?}: {:.4} ms mean latency; {} plan hits, {} misses, \
                 {} invalidations over {} swaps; chase memo {} hits, {} misses, {} resets, \
                 {} reorder resets avoided",
                lane.scenario,
                run.mean_ms(Some(li)),
                svc1.hits - svc0.hits,
                svc1.misses - svc0.misses,
                svc1.invalidations - svc0.invalidations,
                svc1.catalog_swaps - svc0.catalog_swaps,
                chase1.hits() - chase0.hits(),
                chase1.misses() - chase0.misses(),
                chase1.deps_resets - chase0.deps_resets,
                chase1.reorder_resets_avoided - chase0.reorder_resets_avoided,
            );
            run.plan_hits += svc1.hits - svc0.hits;
            run.plan_misses += svc1.misses - svc0.misses;
            run.invalidations += svc1.invalidations - svc0.invalidations;
            run.chase_hits += chase1.hits() - chase0.hits();
            run.chase_misses += chase1.misses() - chase0.misses();
            run.deps_resets += chase1.deps_resets - chase0.deps_resets;
        }
        run
    }
}

/// One served query: its rows and where its time went.
struct Served {
    query: Query,
    rows: BTreeSet<Value>,
    total: Duration,
    /// parse, prepare, compile, execute — measured only when tracing.
    layers: Option<[Duration; 4]>,
    nodes_visited: usize,
}

/// Text → parse → prepare → compile → execute → rows.
fn serve(lane: &mut Lane, text: &str, trace: bool) -> Result<Served, String> {
    let mark = || trace.then(Instant::now);
    let t0 = Instant::now();
    let query = pcql::parser::parse_query(text).map_err(|e| e.to_string())?;
    let t1 = mark();
    let prepared = lane.svc.prepare(&query).map_err(|e| e.to_string())?;
    let t2 = mark();
    let pipeline = cb_engine::compile(&prepared.plan.outcome.best.query, CompileOptions::default());
    let t3 = mark();
    let ev = Evaluator::for_catalog(lane.catalog(), lane.instance());
    let rows = cb_engine::execute(&ev, &pipeline).map_err(|e| e.to_string())?;
    let t4 = Instant::now();
    let layers = match (t1, t2, t3) {
        (Some(t1), Some(t2), Some(t3)) => Some([t1 - t0, t2 - t1, t3 - t2, t4 - t3]),
        _ => None,
    };
    Ok(Served {
        query,
        rows: std::hint::black_box(rows),
        total: t4 - t0,
        layers,
        nodes_visited: prepared.nodes_visited,
    })
}

/// The oracle: the input query itself, unoptimized, compiled with hash
/// joins and executed over the lane's current instance.
fn reference_rows(lane: &Lane, query: &Query) -> BTreeSet<Value> {
    let pipeline = cb_engine::compile(
        query,
        CompileOptions {
            hash_joins: true,
            ..Default::default()
        },
    );
    let ev = Evaluator::for_catalog(lane.catalog(), lane.instance());
    cb_engine::execute(&ev, &pipeline).expect("the input query executes")
}

#[derive(Default)]
struct Run {
    attempted: usize,
    failed: usize,
    wrong: usize,
    /// (lane, latency) of every served query, in order.
    latencies_ms: Vec<(usize, f64)>,
    layer_totals: [Duration; 4],
    rows: usize,
    nodes_visited: usize,
    plan_hits: u64,
    plan_misses: u64,
    invalidations: u64,
    chase_hits: u64,
    chase_misses: u64,
    deps_resets: u64,
}

impl Run {
    fn record(&mut self, lane: usize, s: &Served) {
        self.latencies_ms.push((lane, s.total.as_secs_f64() * 1e3));
        if let Some(layers) = s.layers {
            for (total, d) in self.layer_totals.iter_mut().zip(layers) {
                *total += d;
            }
        }
        self.rows += s.rows.len();
        self.nodes_visited += s.nodes_visited;
    }

    fn served(&self) -> f64 {
        self.latencies_ms.len().max(1) as f64
    }

    /// Mean latency of the run's queries (of one lane, if given).
    fn mean_ms(&self, lane: Option<usize>) -> f64 {
        let picked: Vec<f64> = self
            .latencies_ms
            .iter()
            .filter(|(l, _)| lane.is_none_or(|want| *l == want))
            .map(|(_, ms)| *ms)
            .collect();
        picked.iter().sum::<f64>() / picked.len().max(1) as f64
    }

    /// Mean latency of the slowest tenth of the run's queries. A mean over
    /// the tail, not a percentile: the mixes are made of clusters (cache
    /// misses, one scenario's searches), and a percentile that falls on
    /// the edge of a cluster jumps between clusters from run to run.
    fn tail_ms(&self) -> f64 {
        let mut all: Vec<f64> = self.latencies_ms.iter().map(|(_, ms)| *ms).collect();
        all.sort_by(|a, b| b.total_cmp(a));
        let tail = &all[..all.len().div_ceil(10)];
        tail.iter().sum::<f64>() / tail.len().max(1) as f64
    }

    fn layer_metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let per_query_us = |d: Duration| d.as_secs_f64() * 1e6 / self.served();
        let ratio = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
        vec![
            ("parse_us", per_query_us(self.layer_totals[0]), "us"),
            ("prepare_us", per_query_us(self.layer_totals[1]), "us"),
            ("compile_us", per_query_us(self.layer_totals[2]), "us"),
            ("execute_us", per_query_us(self.layer_totals[3]), "us"),
            (
                "plan_cache_hit_rate",
                ratio(self.plan_hits, self.plan_misses),
                "ratio",
            ),
            (
                "chase_memo_hit_rate",
                ratio(self.chase_hits, self.chase_misses),
                "ratio",
            ),
            (
                "nodes_visited_per_query",
                self.nodes_visited as f64 / self.served(),
                "count",
            ),
            ("rows_per_query", self.rows as f64 / self.served(), "count"),
            ("plan_invalidations", self.invalidations as f64, "count"),
            ("chase_deps_resets", self.deps_resets as f64, "count"),
        ]
    }
}

/// The median of an odd number of values.
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn render_result(run: &Run, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.wrong == 0 && run.failed == 0,
        run.attempted,
        run.failed,
        body.join(", ")
    )
}
