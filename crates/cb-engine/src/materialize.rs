//! Materialization of physical access structures from base data.
//!
//! Given an instance of the logical roots, the materializer builds every
//! structure registered in the catalog — indexes, class extents,
//! materialized views, join indexes, ASRs, gmaps — by *executing their
//! definitions* (the `dict x in Q1 | Q2` constructions of paper §2 are
//! realized as grouped query evaluation). The result is an instance that
//! satisfies the implementation-mapping constraints `D'` by construction,
//! which the tests verify with the constraint checker.

use std::collections::BTreeMap;
use std::fmt;

use cb_catalog::{AccessStructure, Catalog, GmapDef};
use pcql::query::{Output, Query};

use crate::eval::{EvalError, Evaluator};
use crate::exec::{compile, execute, CompileOptions};
use crate::instance::Instance;
use crate::value::Value;

/// Materialization errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaterializeError {
    Eval(EvalError),
    MissingBase(String),
    NotASet(String),
    /// Primary index build found two rows with the same key.
    DuplicateKey {
        index: String,
        key: String,
    },
    /// A class dictionary must be populated by the data generator (it *is*
    /// the storage of the objects); only the extent can be derived.
    MissingClassDict {
        class: String,
        dict: String,
    },
}

impl fmt::Display for MaterializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaterializeError::Eval(e) => write!(f, "{e}"),
            MaterializeError::MissingBase(r) => write!(f, "missing base root `{r}`"),
            MaterializeError::NotASet(r) => write!(f, "root `{r}` is not a set"),
            MaterializeError::DuplicateKey { index, key } => {
                write!(
                    f,
                    "duplicate key {key} while building primary index `{index}`"
                )
            }
            MaterializeError::MissingClassDict { class, dict } => {
                write!(
                    f,
                    "class `{class}`: dictionary `{dict}` must be provided by the generator"
                )
            }
        }
    }
}

impl std::error::Error for MaterializeError {}

impl From<EvalError> for MaterializeError {
    fn from(e: EvalError) -> Self {
        MaterializeError::Eval(e)
    }
}

/// Builds physical structures into an instance.
#[derive(Debug, Clone, Copy)]
pub struct Materializer<'a> {
    catalog: &'a Catalog,
}

impl<'a> Materializer<'a> {
    pub fn new(catalog: &'a Catalog) -> Materializer<'a> {
        Materializer { catalog }
    }

    /// Materializes every registered structure, in declaration order
    /// (views over earlier structures therefore work).
    pub fn materialize(&self, instance: &mut Instance) -> Result<(), MaterializeError> {
        for s in self.catalog.structures() {
            self.materialize_one(instance, s)?;
        }
        Ok(())
    }

    fn rows_of(&self, instance: &Instance, relation: &str) -> Result<Vec<Value>, MaterializeError> {
        let v = instance
            .get(relation)
            .ok_or_else(|| MaterializeError::MissingBase(relation.to_string()))?;
        v.as_set()
            .map(|s| s.iter().cloned().collect())
            .ok_or_else(|| MaterializeError::NotASet(relation.to_string()))
    }

    fn materialize_one(
        &self,
        instance: &mut Instance,
        s: &AccessStructure,
    ) -> Result<(), MaterializeError> {
        match s {
            AccessStructure::PrimaryIndex {
                name,
                relation,
                key_field,
            } => {
                let mut dict: BTreeMap<Value, Value> = BTreeMap::new();
                for row in self.rows_of(instance, relation)? {
                    let key = row.field(key_field).cloned().ok_or_else(|| {
                        MaterializeError::Eval(EvalError::NoSuchField {
                            value: row.to_string(),
                            field: key_field.clone(),
                        })
                    })?;
                    if dict.insert(key.clone(), row).is_some() {
                        return Err(MaterializeError::DuplicateKey {
                            index: name.clone(),
                            key: key.to_string(),
                        });
                    }
                }
                instance.set(name.clone(), Value::Dict(dict));
            }
            AccessStructure::SecondaryIndex {
                name,
                relation,
                key_field,
                ..
            } => {
                let mut dict: BTreeMap<Value, Value> = BTreeMap::new();
                for row in self.rows_of(instance, relation)? {
                    let key = row.field(key_field).cloned().ok_or_else(|| {
                        MaterializeError::Eval(EvalError::NoSuchField {
                            value: row.to_string(),
                            field: key_field.clone(),
                        })
                    })?;
                    match dict.entry(key).or_insert_with(|| Value::set([])) {
                        Value::Set(items) => {
                            items.insert(row);
                        }
                        _ => unreachable!("entries are sets by construction"),
                    }
                }
                instance.set(name.clone(), Value::Dict(dict));
            }
            AccessStructure::ClassDict {
                class,
                extent,
                dict,
            } => {
                // The dictionary is the object store itself; the generator
                // provides it and we derive the extent (dom), mirroring
                // "an OO class must have an extent … whose domain is the
                // extent".
                let dict_val = instance.get(dict).cloned().ok_or_else(|| {
                    MaterializeError::MissingClassDict {
                        class: class.clone(),
                        dict: dict.clone(),
                    }
                })?;
                let map = dict_val
                    .as_dict()
                    .ok_or_else(|| MaterializeError::NotASet(dict.clone()))?;
                instance.set(extent.clone(), Value::Set(map.keys().cloned().collect()));
            }
            AccessStructure::MaterializedView { name, def, .. } => {
                let rows = self.eval(instance, def)?;
                instance.set(name.clone(), Value::Set(rows));
            }
            AccessStructure::GmapDict { name, def, .. } => {
                let dict = self.build_gmap(instance, def)?;
                instance.set(name.clone(), dict);
            }
        }
        Ok(())
    }

    /// The query whose rows build `s`: a view's definition, or a gmap's
    /// key and value fields over its body (`k_…` and `v_…`); `None` for
    /// the structures built without a query (indexes, class extents).
    pub fn defining_query(s: &AccessStructure) -> Option<Query> {
        match s {
            AccessStructure::MaterializedView { def, .. } => Some(def.clone()),
            AccessStructure::GmapDict { def, .. } => Some(gmap_rows(def)),
            _ => None,
        }
    }

    /// The rows of `q` over `instance`, run through the compiled
    /// executor with hash joins: a join index or a view over a join is
    /// one hash join instead of a nested loop.
    fn eval(
        &self,
        instance: &Instance,
        q: &Query,
    ) -> Result<std::collections::BTreeSet<Value>, MaterializeError> {
        let ev = Evaluator::for_catalog(self.catalog, instance);
        let options = CompileOptions {
            hash_joins: true,
            ..CompileOptions::default()
        };
        Ok(execute(&ev, &compile(q, options))?)
    }

    /// Builds `dict z in (select K from body) | (select V from body where
    /// K = z)` by grouping one pass over the body.
    fn build_gmap(&self, instance: &Instance, def: &GmapDef) -> Result<Value, MaterializeError> {
        let rows = self.eval(instance, &gmap_rows(def))?;
        let side = |row: &Value, fields: &[(String, pcql::Path)], prefix: &str| -> Value {
            if fields.len() == 1 {
                row.field(&format!("{prefix}_{}", fields[0].0))
                    .cloned()
                    .expect("projected")
            } else {
                Value::Struct(
                    fields
                        .iter()
                        .map(|(f, _)| {
                            (
                                f.clone(),
                                row.field(&format!("{prefix}_{f}"))
                                    .cloned()
                                    .expect("projected"),
                            )
                        })
                        .collect(),
                )
            }
        };
        let mut dict: BTreeMap<Value, Value> = BTreeMap::new();
        for row in rows {
            let key = side(&row, &def.key, "k");
            let val = side(&row, &def.value, "v");
            match dict.entry(key).or_insert_with(|| Value::set([])) {
                Value::Set(items) => {
                    items.insert(val);
                }
                _ => unreachable!(),
            }
        }
        Ok(Value::Dict(dict))
    }
}

/// A gmap's body with its key and value fields both in the output, as
/// `k_…` and `v_…`: one row per (key, value) pair.
fn gmap_rows(def: &GmapDef) -> Query {
    Query::new(
        Output::record(
            def.key
                .iter()
                .map(|(f, p)| (format!("k_{f}"), p.clone()))
                .chain(def.value.iter().map(|(f, p)| (format!("v_{f}"), p.clone()))),
        ),
        def.from.clone(),
        def.where_.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_catalog::Catalog;
    use pcql::parser::parse_query;
    use pcql::types::Type;

    fn base() -> (Catalog, Instance) {
        let mut c = Catalog::new();
        c.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
        c.add_logical_relation("S", [("B", Type::Int), ("C", Type::Int)]);
        c.add_direct_mapping("R");
        c.add_direct_mapping("S");
        let mut i = Instance::new();
        let row2 = |a, b| Value::record([("A", Value::Int(a)), ("B", Value::Int(b))]);
        let srow = |b, c| Value::record([("B", Value::Int(b)), ("C", Value::Int(c))]);
        i.set("R", Value::set([row2(1, 10), row2(2, 10), row2(3, 30)]));
        i.set("S", Value::set([srow(10, 7), srow(40, 8)]));
        (c, i)
    }

    #[test]
    fn secondary_index_grouping() {
        let (mut c, mut i) = base();
        c.add_secondary_index("SB", "R", "B").unwrap();
        Materializer::new(&c).materialize(&mut i).unwrap();
        let sb = i.get("SB").unwrap().as_dict().unwrap();
        assert_eq!(sb.len(), 2);
        assert_eq!(sb[&Value::Int(10)].as_set().unwrap().len(), 2);
        assert_eq!(sb[&Value::Int(30)].as_set().unwrap().len(), 1);
    }

    #[test]
    fn primary_index_unique_keys() {
        let (mut c, mut i) = base();
        c.add_primary_index("IA", "R", "A").unwrap();
        Materializer::new(&c).materialize(&mut i).unwrap();
        assert_eq!(i.get("IA").unwrap().as_dict().unwrap().len(), 3);

        // Duplicate keys are an error.
        let mut c2 = Catalog::new();
        c2.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
        c2.add_direct_mapping("R");
        c2.add_primary_index("IB", "R", "B").unwrap();
        let mut i2 = Instance::new();
        i2.set(
            "R",
            Value::set([
                Value::record([("A", Value::Int(1)), ("B", Value::Int(10))]),
                Value::record([("A", Value::Int(2)), ("B", Value::Int(10))]),
            ]),
        );
        assert!(matches!(
            Materializer::new(&c2).materialize(&mut i2),
            Err(MaterializeError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn view_materialization() {
        let (mut c, mut i) = base();
        c.add_materialized_view(
            "V",
            parse_query("select struct(A = r.A) from R r, S s where r.B = s.B").unwrap(),
        )
        .unwrap();
        Materializer::new(&c).materialize(&mut i).unwrap();
        let v = i.get("V").unwrap().as_set().unwrap();
        // Rows with B = 10 join; A ∈ {1, 2}.
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn class_extent_derivation() {
        let mut c = Catalog::new();
        c.declare_class(
            pcql::ClassDecl::new("Dept", [("DName", Type::Str)]),
            "depts",
        );
        c.add_class_dict("Dept", "depts", "Dept").unwrap();
        let o = Value::Oid("Dept".into(), 1);
        let mut i = Instance::new();
        i.set(
            "Dept",
            Value::dict([(o.clone(), Value::record([("DName", Value::str("CS"))]))]),
        );
        Materializer::new(&c).materialize(&mut i).unwrap();
        assert_eq!(i.get("depts"), Some(&Value::set([o])));

        // Missing dictionary is an error.
        let mut empty = Instance::new();
        assert!(matches!(
            Materializer::new(&c).materialize(&mut empty),
            Err(MaterializeError::MissingClassDict { .. })
        ));
    }

    #[test]
    fn gmap_materialization() {
        let (mut c, mut i) = base();
        c.add_gmap(
            "G",
            GmapDef {
                from: vec![pcql::Binding::iter("r", pcql::Path::root("R"))],
                where_: vec![],
                key: vec![("B".into(), pcql::Path::var("r").field("B"))],
                value: vec![("A".into(), pcql::Path::var("r").field("A"))],
            },
        )
        .unwrap();
        Materializer::new(&c).materialize(&mut i).unwrap();
        let g = i.get("G").unwrap().as_dict().unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g[&Value::Int(10)].as_set().unwrap().len(), 2);
    }
}
