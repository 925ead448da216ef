//! Semantic optimization and generalized tableau minimization — the
//! paper's second and third objectives, on top of physical data
//! independence.
//!
//! ```sh
//! cargo run --example semantic_optimization
//! ```

use universal_plans::prelude::*;

fn main() {
    tableau_minimization();
    join_elimination();
    key_collapse();
}

/// §3's minimization example: chasing backwards with trivial constraints.
fn tableau_minimization() {
    println!("=== generalized tableau minimization (paper §3) ===");
    let q = parse_query(
        "select struct(A = p.A, B = r.B) from R p, R q, R r \
         where p.B = q.A and q.B = r.B",
    )
    .unwrap();
    // No dependencies: the context's theory holds only trivial constraints.
    let m = minimize(&ChaseContext::new(vec![], ChaseConfig::default()), &q);
    println!("query:     {q}");
    println!("minimized: {m}\n");
    assert_eq!(m.from.len(), 2);
}

/// Referential integrity lets the backchase drop a join entirely
/// ("use of referential integrity constraints to eliminate dependent
/// joins", paper §6).
fn join_elimination() {
    println!("=== RIC-driven join elimination ===");
    let mut catalog = Catalog::new();
    catalog.add_logical_relation("Orders", [("OId", Type::Int), ("Cust", Type::Int)]);
    catalog.add_logical_relation("Customers", [("CId", Type::Int), ("Name", Type::Str)]);
    catalog.add_direct_mapping("Orders");
    catalog.add_direct_mapping("Customers");
    catalog
        .add_semantic_constraint(cb_catalog::builtin::foreign_key(
            "fk(Orders.Cust)",
            "Orders",
            "Cust",
            "Customers",
            "CId",
        ))
        .unwrap();

    // The join with Customers contributes nothing to the output; the FK
    // makes it redundant.
    let q = parse_query("select struct(O = o.OId) from Orders o, Customers c where o.Cust = c.CId")
        .unwrap();
    let outcome = Optimizer::new(&catalog).optimize(&q).unwrap();
    println!("query: {q}");
    println!("plan:  {}\n", outcome.best.query);
    assert_eq!(outcome.best.query.from.len(), 1);

    // Without the constraint, the join stays.
    let bare = catalog.without_semantic_constraints();
    let outcome2 = Optimizer::new(&bare).optimize(&q).unwrap();
    assert_eq!(outcome2.best.query.from.len(), 2);
    println!(
        "without the FK the plan keeps both scans: {}",
        outcome2.best.query
    );
}

/// A key constraint collapses a self-join (EGD chase + backchase).
fn key_collapse() {
    println!("\n=== KEY-driven self-join collapse ===");
    let mut catalog = Catalog::new();
    catalog.add_logical_relation("Emp", [("Id", Type::Int), ("Name", Type::Str)]);
    catalog.add_direct_mapping("Emp");
    catalog
        .add_semantic_constraint(cb_catalog::builtin::key_constraint(
            "key(Emp.Id)",
            "Emp",
            "Id",
        ))
        .unwrap();
    let q =
        parse_query("select struct(N1 = e.Name, N2 = f.Name) from Emp e, Emp f where e.Id = f.Id")
            .unwrap();
    let outcome = Optimizer::new(&catalog).optimize(&q).unwrap();
    println!("query: {q}");
    println!("plan:  {}", outcome.best.query);
    assert_eq!(outcome.best.query.from.len(), 1);
}
