//! Property-based tests over the core invariants.

use proptest::prelude::*;
use std::collections::BTreeMap;

use universal_plans::chase::{backchase, chase, minimize, ChaseConfig, ChaseContext, EGraph};
use universal_plans::prelude::*;

// ---------- generators ----------

/// Fields that exist in the generated R(A,B) instances.
fn field_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["A", "B"]).prop_map(str::to_string)
}

/// Fields for purely syntactic path tests (never evaluated).
fn any_field_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["A", "B", "C"]).prop_map(str::to_string)
}

fn var_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["x", "y", "z"]).prop_map(str::to_string)
}

/// Random flat paths over variables x, y, z and roots R, S.
fn arb_path() -> impl Strategy<Value = Path> {
    let leaf = prop_oneof![
        var_name().prop_map(Path::Var),
        prop::sample::select(vec!["R", "S"]).prop_map(Path::root),
        any::<i64>().prop_map(Path::int),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), any_field_name()).prop_map(|(p, f)| p.field(f)),
            inner.clone().prop_map(Path::dom),
            (inner.clone(), inner).prop_map(|(m, k)| m.get(k)),
        ]
    })
}

/// Random conjunctive queries over R(A,B): 1–3 bindings, 0–3 conditions
/// among variable fields and small constants.
fn arb_cq() -> impl Strategy<Value = Query> {
    let n_bindings = 1..=3usize;
    (
        n_bindings,
        prop::collection::vec((0..3usize, field_name(), 0..3usize, field_name()), 0..3),
        (0..3usize, field_name()),
    )
        .prop_map(|(n, eqs, (ov, of))| {
            let from: Vec<Binding> = (0..n)
                .map(|i| Binding::iter(format!("v{i}"), Path::root("R")))
                .collect();
            let where_: Vec<Equality> = eqs
                .into_iter()
                .map(|(l, lf, r, rf)| {
                    Equality(
                        Path::var(format!("v{}", l % n)).field(lf),
                        Path::var(format!("v{}", r % n)).field(rf),
                    )
                })
                .collect();
            Query::new(
                Output::record([("O".to_string(), Path::var(format!("v{}", ov % n)).field(of))]),
                from,
                where_,
            )
        })
}

/// Random queries for the pipeline executor: 1–3 `iter` bindings over
/// roots R/S with variable names drawn from a *small* pool (so shadowed
/// and reused names occur), and conditions that mix equi-joins (the
/// hash-join trigger), selections against constants, and ground
/// constant comparisons (the hoisting trigger). Error paths are
/// represented too: root `T` is absent from the instances, root `D` is
/// a dictionary (not a set), and field `C` is missing from every row —
/// the executor must fail exactly where the interpreter fails.
fn arb_pipeline_query() -> impl Strategy<Value = Query> {
    let binding = (
        prop::sample::select(vec!["R", "S", "R", "S", "R", "S", "T", "D"]),
        prop::sample::select(vec!["u", "v", "w"]),
    );
    // (kind, l, lf, r, rf, c): kind 0 = vl.lf = vr.rf (equi-join, the
    // hash-join trigger), kind 1 = vl.lf = c (selection), kind 2 =
    // (c % 2) = (l % 2) (ground, the hoisting trigger). Fields include
    // the absent `C` occasionally, so conditions can error.
    let cond_field =
        || prop::sample::select(vec!["A", "B", "A", "B", "C"]).prop_map(str::to_string);
    let cond = (
        0..3u8,
        0..3usize,
        cond_field(),
        0..3usize,
        cond_field(),
        0..4i64,
    );
    (
        prop::collection::vec(binding, 1..4),
        prop::collection::vec(cond, 0..4),
        (0..3usize, field_name()),
    )
        .prop_map(|(binds, conds, (ov, of))| {
            let names: Vec<String> = binds.iter().map(|(_, v)| v.to_string()).collect();
            let from: Vec<Binding> = binds
                .iter()
                .map(|(root, var)| Binding::iter(*var, Path::root(*root)))
                .collect();
            let where_: Vec<Equality> = conds
                .into_iter()
                .map(|(kind, l, lf, r, rf, c)| match kind {
                    0 => Equality(
                        Path::var(&names[l % names.len()]).field(lf),
                        Path::var(&names[r % names.len()]).field(rf),
                    ),
                    1 => Equality(Path::var(&names[l % names.len()]).field(lf), Path::int(c)),
                    _ => Equality(Path::int(c % 2), Path::int(l as i64 % 2)),
                })
                .collect();
            Query::new(
                Output::record([(
                    "O".to_string(),
                    Path::var(&names[ov % names.len()]).field(of),
                )]),
                from,
                where_,
            )
        })
}

/// A small random instance with both R(A,B) and S(A,B) (plus the
/// dictionary root `D` the error-path queries scan; `T` stays absent).
fn arb_rs_instance() -> impl Strategy<Value = Instance> {
    let rows = || {
        prop::collection::vec((0..4i64, 0..4i64), 0..10).prop_map(|rows| {
            Value::set(
                rows.into_iter()
                    .map(|(a, b)| Value::record([("A", Value::Int(a)), ("B", Value::Int(b))])),
            )
        })
    };
    (rows(), rows()).prop_map(|(r, s)| {
        let mut i = Instance::new();
        i.set("R", r);
        i.set("S", s);
        i.set("D", Value::dict([(Value::Int(0), Value::Int(0))]));
        i
    })
}

/// A small random R(A,B) instance.
fn arb_instance() -> impl Strategy<Value = Instance> {
    prop::collection::vec((0..4i64, 0..4i64), 0..12).prop_map(|rows| {
        let mut i = Instance::new();
        i.set(
            "R",
            Value::set(
                rows.into_iter()
                    .map(|(a, b)| Value::record([("A", Value::Int(a)), ("B", Value::Int(b))])),
            ),
        );
        i
    })
}

// ---------- properties ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Printing and reparsing a path is the identity.
    #[test]
    fn path_display_parse_roundtrip(p in arb_path()) {
        let text = p.to_string();
        let vars: std::collections::BTreeSet<String> = p.free_vars();
        // Reparse: bare identifiers come back as roots; rename variables
        // first so the comparison is faithful.
        let parsed = parse_path(&text).unwrap();
        // parse_path resolves all identifiers to roots; map our vars
        // to roots for comparison.
        let as_roots = {
            fn var_to_root(p: &Path, vars: &std::collections::BTreeSet<String>) -> Path {
                match p {
                    Path::Var(v) if vars.contains(v) => Path::Root(v.clone()),
                    Path::Var(_) | Path::Const(_) | Path::Root(_) => p.clone(),
                    Path::Field(q, f) => var_to_root(q, vars).field(f.clone()),
                    Path::Dom(q) => var_to_root(q, vars).dom(),
                    Path::Get(m, k) => var_to_root(m, vars).get(var_to_root(k, vars)),
                    Path::GetOrEmpty(m, k) => {
                        var_to_root(m, vars).get_or_empty(var_to_root(k, vars))
                    }
                }
            }
            var_to_root(&p, &vars)
        };
        prop_assert_eq!(parsed, as_roots);
    }

    /// Queries round-trip through the printer and parser.
    #[test]
    fn query_display_parse_roundtrip(q in arb_cq()) {
        let reparsed = parse_query(&q.to_string()).unwrap();
        prop_assert_eq!(q, reparsed);
    }

    /// The e-graph congruence relation is reflexive/symmetric/transitive
    /// and congruent under field projection.
    #[test]
    fn egraph_laws(pairs in prop::collection::vec((var_name(), var_name()), 0..4),
                   probe in var_name(), f in field_name()) {
        let mut g = EGraph::new();
        for (a, b) in &pairs {
            g.union_paths(&Path::var(a.clone()), &Path::var(b.clone()));
        }
        // Reflexive.
        prop_assert!(g.paths_equal(&Path::var(probe.clone()), &Path::var(probe.clone())));
        // Symmetric + congruent: check every recorded pair.
        for (a, b) in &pairs {
            prop_assert!(g.paths_equal(&Path::var(b.clone()), &Path::var(a.clone())));
            prop_assert!(g.paths_equal(
                &Path::var(a.clone()).field(f.clone()),
                &Path::var(b.clone()).field(f.clone())
            ));
        }
        // Transitive closure via chained unions.
        if pairs.len() >= 2 {
            let (a0, _) = &pairs[0];
            let class0 = g.add_path(&Path::var(a0.clone()));
            let _ = g.extract(class0, &Default::default());
        }
    }

    /// Tableau minimization is sound (same results on random instances)
    /// and idempotent.
    #[test]
    fn minimization_sound_and_idempotent(q in arb_cq(), inst in arb_instance()) {
        let ctx = ChaseContext::new(vec![], ChaseConfig::default());
        let m = minimize(&ctx, &q);
        prop_assert!(m.from.len() <= q.from.len());
        let m2 = minimize(&ctx, &m);
        prop_assert_eq!(m.alpha_normalized(), m2.alpha_normalized());
        let ev = Evaluator::new(&inst);
        let a = ev.eval_query(&q).unwrap();
        let b = ev.eval_query(&m).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Chasing with a constraint never changes results on instances that
    /// satisfy the constraint (chase soundness).
    #[test]
    fn chase_soundness_on_satisfying_instances(q in arb_cq(), inst in arb_instance()) {
        // The key EGD on A is satisfiable by filtering the instance to
        // one row per A value.
        let key = parse_dependency(
            "key",
            "forall (p in R) (q in R) where p.A = q.A -> p = q",
        ).unwrap();
        let mut by_a: BTreeMap<Value, Value> = BTreeMap::new();
        if let Some(Value::Set(rows)) = inst.get("R").cloned() {
            for row in rows {
                by_a.entry(row.field("A").cloned().unwrap()).or_insert(row);
            }
        }
        let mut keyed = Instance::new();
        keyed.set("R", Value::set(by_a.into_values()));

        let ev = Evaluator::new(&keyed);
        prop_assert!(cb_engine::satisfies(&ev, &key).unwrap());
        let chased = chase(&q, &[key], &ChaseConfig::default());
        prop_assert!(chased.complete);
        let a = ev.eval_query(&q).unwrap();
        let b = ev.eval_query(&chased.query).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Backchase normal forms of a chased query still evaluate to the
    /// same result (backchase soundness).
    #[test]
    fn backchase_soundness(q in arb_cq(), inst in arb_instance()) {
        let out = backchase(&ChaseContext::new(vec![], ChaseConfig::default()), &q);
        let ev = Evaluator::new(&inst);
        let reference = ev.eval_query(&q).unwrap();
        for nf in &out.normal_forms {
            let rows = ev.eval_query(nf).unwrap();
            prop_assert_eq!(&rows, &reference, "nf = {}", nf);
        }
    }

    /// The cost-guided pruning bound never overshoots: for random
    /// queries and random statistics, `lower_bound(q') <= plan_cost(q')`
    /// holds for every subquery the backchase visits (the per-node half
    /// of the branch-and-bound's admissibility; monotonicity along the
    /// lattice supplies the rest).
    #[test]
    fn lower_bound_admissible_across_backchase_lattice(
        q in arb_cq(),
        card in 0u64..5_000,
        distinct_a in 1u64..100,
    ) {
        let mut stats = universal_plans::catalog::Stats::new();
        let mut r = universal_plans::catalog::RootStats::with_cardinality(card);
        r.distinct.insert("A".into(), distinct_a);
        stats.set("R", r);
        let model = CostModel::new(&stats);
        let out = backchase(&ChaseContext::new(vec![], ChaseConfig::default()), &q);
        prop_assert!(out.counters.complete);
        for v in &out.visited {
            prop_assert!(
                model.lower_bound(v) <= model.plan_cost(v) + 1e-9,
                "lower_bound = {} > plan_cost = {} for {}",
                model.lower_bound(v), model.plan_cost(v), v
            );
        }
    }

    /// The slot-compiled pipeline executor matches the tree-walking
    /// interpreter on random queries and instances (shadowed variable
    /// names, hoisted ground filters, lazy table builds, and error
    /// paths — absent roots, non-set roots, missing fields — included).
    /// The differential is interpreter ≡ batched. In every join mode the
    /// whole `Result` — rows and errors — must be identical at batch
    /// sizes 1, 2 and 1024 (batch size 1 walks the rows strictly
    /// depth-first, so this pins the truncate-on-error discipline), and
    /// so must the per-operator counters of every Ok run.
    /// Without joins the whole `Result` must also be identical to the
    /// interpreter's, errors and all; with hash or merge joins on, the
    /// join applies its equality ahead of the other same-level conjuncts,
    /// so on erroring queries only Ok-results are required to agree (see
    /// the exec.rs module doc).
    #[test]
    fn pipeline_executor_matches_evaluator(
        q in arb_pipeline_query(),
        inst in arb_rs_instance(),
    ) {
        use universal_plans::engine::exec::{compile, execute_with_stats, CompileOptions};
        let ev = Evaluator::new(&inst);
        let reference = ev.eval_query(&q);

        for (hash_joins, merge_joins) in
            [(false, false), (true, false), (false, true), (true, true)]
        {
            let mut first = None;
            for batch_size in [1usize, 2, 1024] {
                let options = CompileOptions { hash_joins, merge_joins, batch_size };
                let p = compile(&q, options);
                let run = execute_with_stats(&ev, &p);
                let batched = run.clone().map(|(rows, _)| rows);
                let per_op = run.as_ref().ok().map(|(_, stats)| stats.per_op.clone());
                let (first_batched, first_per_op) =
                    first.get_or_insert_with(|| (batched.clone(), per_op.clone()));
                prop_assert_eq!(
                    &*first_batched, &batched,
                    "batch sizes disagree: q = {} batch = {} pipeline = {}",
                    q, batch_size, p
                );
                prop_assert_eq!(
                    &*first_per_op, &per_op,
                    "per-op counts drift: q = {} batch = {} pipeline = {}",
                    q, batch_size, p
                );
                if !hash_joins && !merge_joins {
                    prop_assert_eq!(
                        &reference, &batched,
                        "q = {} batch = {} pipeline = {}", q, batch_size, p
                    );
                } else {
                    match (&reference, run) {
                        (Ok(want), Ok((got, stats))) => {
                            prop_assert_eq!(
                                want, &got,
                                "q = {} pipeline = {}", q, p
                            );
                            prop_assert!(
                                stats.tables_built + stats.tables_skipped
                                    == p.n_tables as u64,
                                "table accounting off: {:?} for {}", stats, p
                            );
                            prop_assert!(
                                stats.runs_built + stats.runs_skipped
                                    == p.n_runs as u64,
                                "run accounting off: {:?} for {}", stats, p
                            );
                        }
                        // Join condition reordering may change which
                        // error surfaces, or filter the offending rows
                        // away entirely — but it must never conjure rows
                        // the interpreter rejects.
                        (Err(_), _) | (_, Err(_)) => {}
                    }
                }
            }
        }
    }

    /// Containment agrees with evaluation: if Q1 ⊑ Q2 is claimed, then on
    /// every instance eval(Q1) ⊆ eval(Q2).
    #[test]
    fn containment_sound_wrt_evaluation(q1 in arb_cq(), q2 in arb_cq(), inst in arb_instance()) {
        // The prover itself is under test: no memo stands in for a proof.
        if ChaseContext::without_memo(vec![], ChaseConfig::default()).contained_in(&q1, &q2) {
            let ev = Evaluator::new(&inst);
            let a = ev.eval_query(&q1).unwrap();
            let b = ev.eval_query(&q2).unwrap();
            prop_assert!(a.is_subset(&b), "q1 = {} q2 = {}", q1, q2);
        }
    }

    /// Materialized secondary indexes always satisfy their constraints.
    #[test]
    fn materialized_index_satisfies_constraints(inst in arb_instance()) {
        let mut catalog = Catalog::new();
        catalog.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
        catalog.add_direct_mapping("R");
        catalog.add_secondary_index("SA", "R", "A").unwrap();
        let mut inst = inst;
        Materializer::new(&catalog).materialize(&mut inst).unwrap();
        let ev = Evaluator::for_catalog(&catalog, &inst);
        let bad = cb_engine::violations(&ev, &catalog.all_constraints()).unwrap();
        prop_assert!(bad.is_empty(), "violations: {:?}", bad);
    }
}
