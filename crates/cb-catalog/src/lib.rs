//! # cb-catalog — schemas, access structures and constraints
//!
//! The catalog holds everything Algorithm 1 of the paper takes as input
//! besides the query itself:
//!
//! * the **logical schema** Λ with its semantic constraints `D`
//!   (referential integrity, inverse relationships, keys, …);
//! * the **physical schema** Φ;
//! * the **implementation mapping** between them, expressed *uniformly as
//!   constraints* `D'` generated from declared access structures: primary
//!   and secondary indexes, class-extent dictionaries, materialized views,
//!   join indexes, access support relations, gmaps, hash tables, source
//!   capabilities (paper §2);
//! * **statistics** for the cost model.
//!
//! Adding a structure updates the physical schema with the structure's
//! root and appends its characterizing dependencies to `D'`. The chase /
//! backchase engines never see structure kinds, only `D ∪ D'`.

pub mod builtin;
pub mod error;
pub mod scenarios;
pub mod stats;
pub mod structures;

pub use error::CatalogError;
pub use stats::{RootStats, Stats};
pub use structures::{AccessStructure, DictKind, GmapDef, ViewKind};

use std::collections::BTreeMap;

use pcql::parser::parse_dependency;
use pcql::path::Path;
use pcql::query::Query;
use pcql::schema::{ClassDecl, Schema};
use pcql::typecheck::{check_dependency, check_query};
use pcql::types::Type;
use pcql::Dependency;

/// The catalog: schemas, structures, constraints and statistics.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    logical: Schema,
    physical: Schema,
    semantic: Vec<Dependency>,
    mapping: Vec<Dependency>,
    structures: Vec<AccessStructure>,
    stats: Stats,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    // ---- schema building ----

    /// Adds a logical relation `name : Set<Struct{fields}>`.
    pub fn add_logical_relation<I, S>(&mut self, name: impl Into<String>, fields: I) -> &mut Self
    where
        I: IntoIterator<Item = (S, Type)>,
        S: Into<String>,
    {
        self.logical.add_root(name, Type::set(Type::record(fields)));
        self
    }

    /// Declares a class with its extent root `extent : Set<Oid<C>>` in the
    /// logical schema.
    pub fn declare_class(&mut self, decl: ClassDecl, extent: impl Into<String>) -> &mut Self {
        let extent = extent.into();
        self.logical.add_root(extent, decl.extent_type());
        // Class declarations are needed for typing on both sides.
        self.physical.declare_class(decl.clone());
        self.logical.declare_class(decl);
        self
    }

    /// Makes a logical root directly available in the physical schema (the
    /// "direct mapping" situation: same name, same contents, no
    /// constraints needed).
    pub fn add_direct_mapping(&mut self, root: &str) -> &mut Self {
        if let Some(ty) = self.logical.root(root).cloned() {
            self.physical.add_root(root, ty);
        } else {
            panic!("add_direct_mapping: unknown logical root `{root}`");
        }
        self
    }

    // ---- access structures (paper §2) ----

    fn check_fresh(&self, name: &str) -> Result<(), CatalogError> {
        if self.logical.root(name).is_some() || self.physical.root(name).is_some() {
            return Err(CatalogError::DuplicateName(name.to_string()));
        }
        Ok(())
    }

    /// The element record type of a relation-typed root.
    fn relation_row(&self, relation: &str) -> Result<(Type, BTreeMap<String, Type>), CatalogError> {
        let schema = self.combined_schema();
        let ty = schema
            .root(relation)
            .ok_or_else(|| CatalogError::UnknownRoot(relation.to_string()))?;
        match ty {
            Type::Set(elem) => match elem.as_ref() {
                Type::Struct(fields) => Ok((elem.as_ref().clone(), fields.clone())),
                _ => Err(CatalogError::NotARelation(relation.to_string())),
            },
            _ => Err(CatalogError::NotARelation(relation.to_string())),
        }
    }

    fn key_field_type(&self, relation: &str, field: &str) -> Result<(Type, Type), CatalogError> {
        let (row, fields) = self.relation_row(relation)?;
        let key_ty = fields
            .get(field)
            .cloned()
            .ok_or_else(|| CatalogError::NoSuchField {
                relation: relation.to_string(),
                field: field.to_string(),
            })?;
        if !key_ty.is_base() {
            return Err(CatalogError::BadKeyType {
                field: field.to_string(),
                ty: key_ty.to_string(),
            });
        }
        Ok((row, key_ty))
    }

    /// Adds a primary index `name : Dict<keyT, Row>` on the key `field` of
    /// `relation`; also records the key EGD in the semantic constraints if
    /// not already present (a primary index only exists on a key).
    pub fn add_primary_index(
        &mut self,
        name: &str,
        relation: &str,
        field: &str,
    ) -> Result<&mut Self, CatalogError> {
        self.check_fresh(name)?;
        let (row, key_ty) = self.key_field_type(relation, field)?;
        self.physical.add_root(name, Type::dict(key_ty, row));
        self.mapping
            .extend(structures::primary_index_constraints(name, relation, field));
        let key_name = format!("key({relation}.{field})");
        if !self.semantic.iter().any(|d| d.name == key_name) {
            self.semantic
                .push(builtin::key_constraint(key_name, relation, field));
        }
        self.structures.push(AccessStructure::PrimaryIndex {
            name: name.to_string(),
            relation: relation.to_string(),
            key_field: field.to_string(),
        });
        Ok(self)
    }

    /// Adds a secondary index `name : Dict<keyT, Set<Row>>` on `field` of
    /// `relation`.
    pub fn add_secondary_index(
        &mut self,
        name: &str,
        relation: &str,
        field: &str,
    ) -> Result<&mut Self, CatalogError> {
        self.add_secondary_index_impl(name, relation, field, true)
    }

    /// Adds a hash table: same shape and constraints as a secondary index,
    /// but not materialized — a plan that uses it must build it on the fly
    /// (hash join). The cost model charges the build.
    pub fn add_hash_table(
        &mut self,
        name: &str,
        relation: &str,
        field: &str,
    ) -> Result<&mut Self, CatalogError> {
        self.add_secondary_index_impl(name, relation, field, false)
    }

    fn add_secondary_index_impl(
        &mut self,
        name: &str,
        relation: &str,
        field: &str,
        materialized: bool,
    ) -> Result<&mut Self, CatalogError> {
        self.check_fresh(name)?;
        let (row, key_ty) = self.key_field_type(relation, field)?;
        self.physical
            .add_root(name, Type::dict(key_ty, Type::set(row)));
        self.mapping.extend(structures::secondary_index_constraints(
            name, relation, field,
        ));
        self.structures.push(AccessStructure::SecondaryIndex {
            name: name.to_string(),
            relation: relation.to_string(),
            key_field: field.to_string(),
            materialized,
        });
        Ok(self)
    }

    /// Adds the implementing dictionary `dict : Dict<Oid<C>, Struct{attrs}>`
    /// for class `class` with extent `extent`, generating the δ/deref
    /// constraints.
    pub fn add_class_dict(
        &mut self,
        class: &str,
        extent: &str,
        dict: &str,
    ) -> Result<&mut Self, CatalogError> {
        self.check_fresh(dict)?;
        let decl = self
            .logical
            .class(class)
            .cloned()
            .ok_or_else(|| CatalogError::UnknownClass(class.to_string()))?;
        if self.logical.root(extent) != Some(&decl.extent_type()) {
            return Err(CatalogError::UnknownRoot(extent.to_string()));
        }
        self.physical.add_root(dict, decl.dict_type());
        self.mapping.extend(structures::class_dict_constraints(
            extent,
            dict,
            &decl.attrs,
        ));
        self.structures.push(AccessStructure::ClassDict {
            class: class.to_string(),
            extent: extent.to_string(),
            dict: dict.to_string(),
        });
        Ok(self)
    }

    /// Adds a materialized PC view `name` with definition `def`, deriving
    /// `c_V` and `c'_V`.
    pub fn add_materialized_view(
        &mut self,
        name: &str,
        def: Query,
    ) -> Result<&mut Self, CatalogError> {
        self.add_view_impl(name, def, ViewKind::View)
    }

    /// Adds a join index: a materialized binary view of the join keys /
    /// surrogates of two relations (Valduriez). The participating primary
    /// indexes must be declared separately — a join index is the *triple*
    /// (view, index, index) (paper §2).
    pub fn add_join_index(&mut self, name: &str, def: Query) -> Result<&mut Self, CatalogError> {
        match &def.output {
            pcql::Output::Struct(fields) if fields.len() == 2 => {}
            _ => {
                return Err(CatalogError::BadViewDefinition {
                    name: name.to_string(),
                    reason: "a join index stores exactly two key/surrogate columns".into(),
                })
            }
        }
        self.add_view_impl(name, def, ViewKind::JoinIndex)
    }

    /// Adds an access support relation for the class path
    /// `extent.attr1.attr2…`: the materialized relation of OIDs along the
    /// path (Kemper–Moerkotte), generalized as a view. Each `attr` must be
    /// a set-valued attribute leading to the next object/value on the
    /// path.
    pub fn add_access_support_relation(
        &mut self,
        name: &str,
        extent: &str,
        attrs: &[&str],
    ) -> Result<&mut Self, CatalogError> {
        let mut from = vec![pcql::Binding::iter("x0", Path::root(extent))];
        let mut outputs = vec![("O0".to_string(), Path::var("x0"))];
        for (i, attr) in attrs.iter().enumerate() {
            let prev = format!("x{i}");
            let var = format!("x{}", i + 1);
            from.push(pcql::Binding::iter(&var, Path::var(&prev).field(*attr)));
            outputs.push((format!("O{}", i + 1), Path::var(&var)));
        }
        let def = Query::new(pcql::Output::record(outputs), from, vec![]);
        self.add_view_impl(name, def, ViewKind::AccessSupportRelation)
    }

    fn add_view_impl(
        &mut self,
        name: &str,
        def: Query,
        kind: ViewKind,
    ) -> Result<&mut Self, CatalogError> {
        self.check_fresh(name)?;
        let schema = self.combined_schema();
        let typing = check_query(&schema, &def)?;
        if !typing.output.is_collection_free() {
            return Err(CatalogError::BadViewDefinition {
                name: name.to_string(),
                reason: format!("output type `{}` is not collection-free", typing.output),
            });
        }
        self.physical.add_root(name, Type::set(typing.output));
        self.mapping
            .extend(structures::view_constraints(name, &def));
        self.structures.push(AccessStructure::MaterializedView {
            name: name.to_string(),
            def,
            kind,
        });
        Ok(self)
    }

    /// Adds a generalized gmap (a dictionary defined by a key query and a
    /// value query over the same body).
    pub fn add_gmap(&mut self, name: &str, def: GmapDef) -> Result<&mut Self, CatalogError> {
        self.add_gmap_impl(name, def, DictKind::Gmap)
    }

    /// Adds a source capability: a dictionary from binding patterns to
    /// result sets, constraint-wise identical to a gmap.
    pub fn add_source_capability(
        &mut self,
        name: &str,
        def: GmapDef,
    ) -> Result<&mut Self, CatalogError> {
        self.add_gmap_impl(name, def, DictKind::SourceCapability)
    }

    fn add_gmap_impl(
        &mut self,
        name: &str,
        def: GmapDef,
        kind: DictKind,
    ) -> Result<&mut Self, CatalogError> {
        self.check_fresh(name)?;
        if def.key.is_empty() || def.value.is_empty() {
            return Err(CatalogError::BadViewDefinition {
                name: name.to_string(),
                reason: "gmap needs at least one key and one value field".into(),
            });
        }
        // Type the body once, then the key/value outputs.
        let schema = self.combined_schema();
        let body = Query::new(
            pcql::Output::record(
                def.key
                    .iter()
                    .chain(&def.value)
                    .map(|(f, p)| (f.clone(), p.clone())),
            ),
            def.from.clone(),
            def.where_.clone(),
        );
        let typing = check_query(&schema, &body)?;
        let field_ty = |f: &str| match &typing.output {
            Type::Struct(m) => m[f].clone(),
            _ => unreachable!("body output is a struct"),
        };
        let key_tys: Vec<(String, Type)> = def
            .key
            .iter()
            .map(|(f, _)| (f.clone(), field_ty(f)))
            .collect();
        let val_tys: Vec<(String, Type)> = def
            .value
            .iter()
            .map(|(f, _)| (f.clone(), field_ty(f)))
            .collect();
        for (f, t) in key_tys.iter().chain(&val_tys) {
            if !t.is_collection_free() {
                return Err(CatalogError::BadKeyType {
                    field: f.clone(),
                    ty: t.to_string(),
                });
            }
        }
        self.physical
            .add_root(name, structures::gmap_dict_type(&key_tys, &val_tys));
        self.mapping
            .extend(structures::gmap_constraints(name, &def));
        self.structures.push(AccessStructure::GmapDict {
            name: name.to_string(),
            def,
            kind,
        });
        Ok(self)
    }

    // ---- semantic constraints (D) ----

    /// Adds a semantic constraint of the logical schema, type checking it
    /// against the combined schema.
    pub fn add_semantic_constraint(&mut self, dep: Dependency) -> Result<&mut Self, CatalogError> {
        check_dependency(&self.combined_schema(), &dep)?;
        self.semantic.push(dep);
        Ok(self)
    }

    /// Adds a semantic constraint from concrete syntax.
    pub fn add_semantic_constraint_text(
        &mut self,
        name: &str,
        text: &str,
    ) -> Result<&mut Self, CatalogError> {
        let dep = parse_dependency(name, text)?;
        self.add_semantic_constraint(dep)
    }

    // ---- views of the catalog ----

    pub fn logical(&self) -> &Schema {
        &self.logical
    }

    pub fn physical(&self) -> &Schema {
        &self.physical
    }

    /// Λ ∪ Φ — the schema universal plans are typed against.
    pub fn combined_schema(&self) -> Schema {
        self.logical
            .merged(&self.physical)
            .expect("catalog keeps logical and physical schemas compatible")
    }

    /// The semantic constraints `D` of the logical schema.
    pub fn semantic_constraints(&self) -> &[Dependency] {
        &self.semantic
    }

    /// The implementation-mapping constraints `D'`.
    pub fn mapping_constraints(&self) -> &[Dependency] {
        &self.mapping
    }

    /// `D ∪ D'` in a stable order (semantic first).
    pub fn all_constraints(&self) -> Vec<Dependency> {
        let mut out = self.semantic.clone();
        out.extend(self.mapping.iter().cloned());
        out
    }

    /// A copy of this catalog with the semantic constraints dropped —
    /// the regime of the completeness theorems ("Λ contains no
    /// dependencies") and of implementation-mapping-only optimization.
    pub fn without_semantic_constraints(&self) -> Catalog {
        let mut c = self.clone();
        c.semantic.clear();
        c
    }

    pub fn structures(&self) -> &[AccessStructure] {
        &self.structures
    }

    pub fn structure(&self, name: &str) -> Option<&AccessStructure> {
        self.structures.iter().find(|s| s.root_name() == name)
    }

    /// Is `name` available in the physical schema (executable by plans)?
    pub fn is_physical_root(&self, name: &str) -> bool {
        self.physical.root(name).is_some()
    }

    /// Does the query mention only physical roots (i.e. is it a plan)?
    pub fn is_physical_query(&self, q: &Query) -> bool {
        q.roots().iter().all(|r| self.is_physical_root(r))
    }

    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcql::parser::parse_query;

    fn base_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int), ("C", Type::Int)]);
        c.add_logical_relation("S", [("B", Type::Int), ("C", Type::Int)]);
        c.add_direct_mapping("R");
        c.add_direct_mapping("S");
        c
    }

    #[test]
    fn secondary_index_updates_schema_and_constraints() {
        let mut c = base_catalog();
        c.add_secondary_index("SA", "R", "A").unwrap();
        let ty = c.physical().root("SA").unwrap();
        let (k, v) = ty.dict_parts().unwrap();
        assert_eq!(k, &Type::Int);
        assert!(matches!(v, Type::Set(_)));
        assert_eq!(c.mapping_constraints().len(), 3);
        assert!(c.is_physical_root("SA"));
        assert!(!c.is_physical_root("nope"));
        // All generated constraints type check against the combined schema.
        let schema = c.combined_schema();
        for d in c.all_constraints() {
            check_dependency(&schema, &d).unwrap();
        }
    }

    #[test]
    fn primary_index_adds_key_constraint_once() {
        let mut c = base_catalog();
        c.add_primary_index("IA", "R", "A").unwrap();
        assert_eq!(c.semantic_constraints().len(), 1);
        assert!(c.semantic_constraints()[0].name.contains("key(R.A)"));
        // A second index on the same key reuses the key constraint.
        c.add_primary_index("IA2", "R", "A").unwrap();
        assert_eq!(c.semantic_constraints().len(), 1);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = base_catalog();
        c.add_secondary_index("SA", "R", "A").unwrap();
        assert!(matches!(
            c.add_secondary_index("SA", "R", "B"),
            Err(CatalogError::DuplicateName(_))
        ));
        assert!(matches!(
            c.add_primary_index("R", "S", "B"),
            Err(CatalogError::DuplicateName(_))
        ));
    }

    #[test]
    fn bad_fields_rejected() {
        let mut c = base_catalog();
        assert!(matches!(
            c.add_secondary_index("SX", "R", "X"),
            Err(CatalogError::NoSuchField { .. })
        ));
        assert!(matches!(
            c.add_secondary_index("SX", "Nope", "A"),
            Err(CatalogError::UnknownRoot(_))
        ));
    }

    #[test]
    fn materialized_view_roundtrip() {
        let mut c = base_catalog();
        let def = parse_query("select struct(A = r.A) from R r, S s where r.B = s.B").unwrap();
        c.add_materialized_view("V", def).unwrap();
        assert_eq!(
            c.physical().root("V"),
            Some(&Type::set(Type::record([("A", Type::Int)])))
        );
        let names: Vec<&str> = c
            .mapping_constraints()
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(names, vec!["c_V(V)", "c'_V(V)"]);
        let schema = c.combined_schema();
        for d in c.all_constraints() {
            check_dependency(&schema, &d).unwrap();
        }
    }

    #[test]
    fn join_index_requires_two_columns() {
        let mut c = base_catalog();
        let bad = parse_query("select struct(A = r.A) from R r").unwrap();
        assert!(matches!(
            c.add_join_index("J", bad),
            Err(CatalogError::BadViewDefinition { .. })
        ));
        let good =
            parse_query("select struct(RA = r.A, SB = s.B) from R r, S s where r.B = s.B").unwrap();
        c.add_join_index("J", good).unwrap();
        assert!(matches!(
            c.structure("J"),
            Some(AccessStructure::MaterializedView {
                kind: ViewKind::JoinIndex,
                ..
            })
        ));
    }

    #[test]
    fn gmap_catalog_integration() {
        let mut c = base_catalog();
        let def = GmapDef {
            from: vec![pcql::Binding::iter("r", Path::root("R"))],
            where_: vec![],
            key: vec![("A".into(), Path::var("r").field("A"))],
            value: vec![
                ("B".into(), Path::var("r").field("B")),
                ("C".into(), Path::var("r").field("C")),
            ],
        };
        c.add_gmap("G", def).unwrap();
        let ty = c.physical().root("G").unwrap();
        let (k, _) = ty.dict_parts().unwrap();
        assert_eq!(k, &Type::Int);
        assert_eq!(c.mapping_constraints().len(), 3);
        let schema = c.combined_schema();
        for d in c.all_constraints() {
            check_dependency(&schema, &d).unwrap();
        }
    }

    #[test]
    fn semantic_constraint_text() {
        let mut c = base_catalog();
        c.add_semantic_constraint_text(
            "fk(R.B)",
            "forall (r in R) -> exists (s in S) where r.B = s.B",
        )
        .unwrap();
        assert_eq!(c.semantic_constraints().len(), 1);
        assert!(c
            .add_semantic_constraint_text("bad", "forall (r in Nope) -> r = r")
            .is_err());
        // Dropping semantics keeps the mapping.
        c.add_secondary_index("SA", "R", "A").unwrap();
        let bare = c.without_semantic_constraints();
        assert!(bare.semantic_constraints().is_empty());
        assert_eq!(bare.mapping_constraints().len(), 3);
    }

    #[test]
    fn physical_query_detection() {
        let mut c = base_catalog();
        c.add_logical_relation("L", [("X", Type::Int)]);
        let q_phys = parse_query("select struct(A = r.A) from R r").unwrap();
        let q_log = parse_query("select struct(X = l.X) from L l").unwrap();
        assert!(c.is_physical_query(&q_phys));
        assert!(!c.is_physical_query(&q_log));
    }

    #[test]
    fn asr_definition_built_from_path() {
        let mut c = Catalog::new();
        c.declare_class(
            ClassDecl::new("Dept", [("DProjs", Type::set(Type::Str))]),
            "depts",
        );
        c.add_access_support_relation("ASR", "depts", &["DProjs"])
            .unwrap();
        match c.structure("ASR") {
            Some(AccessStructure::MaterializedView {
                def,
                kind: ViewKind::AccessSupportRelation,
                ..
            }) => {
                assert_eq!(def.from.len(), 2);
                assert_eq!(def.from[1].src.to_string(), "x0.DProjs");
            }
            other => panic!("unexpected structure: {other:?}"),
        }
    }
}
