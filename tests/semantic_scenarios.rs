//! Further semantic-optimization scenarios beyond the paper's running
//! example: foreign-key chains, gmap/view interplay, and optimizer
//! behaviour under constraint ablation.

use universal_plans::chase::SearchBudget;
use universal_plans::prelude::*;

/// Orders -> Customers -> Regions FK chain: both dangling joins vanish.
#[test]
fn fk_chain_join_elimination() {
    let mut catalog = Catalog::new();
    catalog.add_logical_relation("Orders", [("OId", Type::Int), ("Cust", Type::Int)]);
    catalog.add_logical_relation("Customers", [("CId", Type::Int), ("Region", Type::Int)]);
    catalog.add_logical_relation("Regions", [("RId", Type::Int), ("Name", Type::Str)]);
    for r in ["Orders", "Customers", "Regions"] {
        catalog.add_direct_mapping(r);
    }
    catalog
        .add_semantic_constraint(cb_catalog::builtin::foreign_key(
            "fk1",
            "Orders",
            "Cust",
            "Customers",
            "CId",
        ))
        .unwrap();
    catalog
        .add_semantic_constraint(cb_catalog::builtin::foreign_key(
            "fk2",
            "Customers",
            "Region",
            "Regions",
            "RId",
        ))
        .unwrap();

    let q = parse_query(
        "select struct(O = o.OId) from Orders o, Customers c, Regions g \
         where o.Cust = c.CId and c.Region = g.RId",
    )
    .unwrap();
    let outcome = Optimizer::new(&catalog).optimize(&q).unwrap();
    assert_eq!(
        outcome.best.query.to_string(),
        "select struct(O = o.OId) from Orders o"
    );

    // Drop the first FK: only the Regions join is removable.
    let mut partial = catalog.clone();
    let kept: Vec<Dependency> = partial
        .semantic_constraints()
        .iter()
        .filter(|d| d.name == "fk2")
        .cloned()
        .collect();
    partial = partial.without_semantic_constraints();
    for d in kept {
        partial.add_semantic_constraint(d).unwrap();
    }
    let outcome2 = Optimizer::new(&partial).optimize(&q).unwrap();
    assert_eq!(outcome2.best.query.from.len(), 2, "{}", outcome2.best.query);
}

/// An output column produced by the joined table blocks elimination even
/// with the FK present.
#[test]
fn fk_join_kept_when_columns_are_used() {
    let mut catalog = Catalog::new();
    catalog.add_logical_relation("Orders", [("OId", Type::Int), ("Cust", Type::Int)]);
    catalog.add_logical_relation("Customers", [("CId", Type::Int), ("Name", Type::Str)]);
    catalog.add_direct_mapping("Orders");
    catalog.add_direct_mapping("Customers");
    catalog
        .add_semantic_constraint(cb_catalog::builtin::foreign_key(
            "fk",
            "Orders",
            "Cust",
            "Customers",
            "CId",
        ))
        .unwrap();
    let q = parse_query(
        "select struct(O = o.OId, N = c.Name) from Orders o, Customers c \
         where o.Cust = c.CId",
    )
    .unwrap();
    let outcome = Optimizer::new(&catalog).optimize(&q).unwrap();
    assert_eq!(outcome.best.query.from.len(), 2);
}

/// A gmap and a view over the same body: the optimizer sees both and the
/// cheaper structure wins according to the statistics.
#[test]
fn gmap_and_view_compete() {
    let mut catalog = Catalog::new();
    catalog.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
    catalog.add_direct_mapping("R");
    catalog
        .add_materialized_view(
            "VA",
            parse_query("select struct(A = r.A, B = r.B) from R r where r.A = 3").unwrap(),
        )
        .unwrap();
    catalog
        .add_gmap(
            "G",
            cb_catalog::GmapDef {
                from: vec![Binding::iter("r", Path::root("R"))],
                where_: vec![],
                key: vec![("A".into(), Path::var("r").field("A"))],
                value: vec![("B".into(), Path::var("r").field("B"))],
            },
        )
        .unwrap();

    let mut instance = Instance::new();
    instance.set(
        "R",
        Value::set(
            (0..200).map(|i| Value::record([("A", Value::Int(i % 10)), ("B", Value::Int(i))])),
        ),
    );
    Materializer::new(&catalog)
        .materialize(&mut instance)
        .unwrap();
    *catalog.stats_mut() = cb_engine::collect_stats(&instance);

    let q = parse_query("select struct(B = r.B) from R r where r.A = 3").unwrap();
    let outcome = Optimizer::new(&catalog).optimize(&q).unwrap();
    let shapes: Vec<String> = outcome
        .candidates()
        .iter()
        .map(|c| c.query.to_string())
        .collect();
    assert!(
        shapes.iter().any(|s| s.contains("VA")),
        "view plan present: {shapes:?}"
    );
    assert!(
        shapes.iter().any(|s| s.contains('G')),
        "gmap plan present: {shapes:?}"
    );
    // Both beat the base scan; the winner is one of the structures.
    let best = &outcome.best.query.to_string();
    assert!(best.contains("VA") || best.contains('G'), "best = {best}");

    // Differential check for every candidate.
    let ev = Evaluator::for_catalog(&catalog, &instance);
    let reference = ev.eval_query(&q).unwrap();
    for c in outcome.candidates() {
        assert_eq!(
            ev.eval_query(&c.query).unwrap(),
            reference,
            "plan {}",
            c.query
        );
    }
}

/// The class-extent dictionary alone supports OO navigation queries (no
/// relation involved).
#[test]
fn class_dictionary_only_navigation() {
    let mut catalog = Catalog::new();
    catalog.declare_class(
        ClassDecl::new(
            "Dept",
            [("DName", Type::Str), ("DProjs", Type::set(Type::Str))],
        ),
        "depts",
    );
    catalog.add_class_dict("Dept", "depts", "Dept").unwrap();

    let mut instance = Instance::new();
    let mk = |n: u64| {
        (
            Value::Oid("Dept".into(), n),
            Value::record([
                ("DName", Value::str(format!("d{n}"))),
                ("DProjs", Value::set([Value::str(format!("p{n}"))])),
            ]),
        )
    };
    instance.set("Dept", Value::dict([mk(0), mk(1), mk(2)]));
    Materializer::new(&catalog)
        .materialize(&mut instance)
        .unwrap();
    *catalog.stats_mut() = cb_engine::collect_stats(&instance);

    let q = parse_query("select struct(DN = d.DName, PN = s) from depts d, d.DProjs s").unwrap();
    let outcome = Optimizer::new(&catalog).optimize(&q).unwrap();
    // The chosen plan runs over the dictionary, not the (logical) extent.
    assert!(
        outcome
            .best
            .query
            .from
            .iter()
            .any(|b| b.src.mentions_root("Dept")),
        "{}",
        outcome.best.query
    );
    let ev = Evaluator::for_catalog(&catalog, &instance);
    assert_eq!(
        ev.eval_query(&outcome.best.query).unwrap(),
        ev.eval_query(&q).unwrap()
    );
    assert_eq!(ev.eval_query(&q).unwrap().len(), 3);
}

/// Incomplete search budgets still produce sound (if fewer) plans.
#[test]
fn bounded_search_remains_sound() {
    let mut catalog = cb_catalog::scenarios::projdept::catalog();
    cb_catalog::scenarios::projdept::stats_for(&mut catalog, 20, 5, 5);
    let config = cb_optimizer::OptimizerConfig {
        search_budget: SearchBudget {
            nodes: Some(3),
            ..Default::default()
        },
        cost_visited: true,
        ..Default::default()
    };
    let q = cb_catalog::scenarios::projdept::query();
    let outcome = Optimizer::with_config(&catalog, config)
        .optimize(&q)
        .unwrap();
    assert!(!outcome.complete);
    assert!(!outcome.candidates().is_empty());

    let mut instance = cb_engine::projdept_instance(&cb_engine::ProjDeptParams {
        n_depts: 20,
        projs_per_dept: 5,
        n_customers: 5,
        seed: 9,
    });
    Materializer::new(&catalog)
        .materialize(&mut instance)
        .unwrap();
    let ev = Evaluator::for_catalog(&catalog, &instance);
    let reference = ev.eval_query(&q).unwrap();
    for c in outcome.candidates() {
        assert_eq!(
            ev.eval_query(&c.query).unwrap(),
            reference,
            "plan {}",
            c.query
        );
    }
}
