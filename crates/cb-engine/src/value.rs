//! Runtime values of the complex-object data model.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use pcql::path::Constant;
use pcql::types::Type;

/// A maybe-borrowed value: the currency of the zero-clone execution
/// paths. Rows iterated out of instance-owned collections travel as
/// `Cow::Borrowed(&'a Value)` (the pipeline executor's register file is
/// a `Vec<CowValue<'a>>`); only genuinely computed values are `Owned`.
///
/// Because `Cow<'a, Value>: Borrow<Value>` and [`Value`] is totally
/// ordered, maps keyed by `CowValue` (the on-the-fly hash-join tables)
/// can be probed with a plain `&Value` — borrowed build keys and
/// borrowed probe keys compare without a single clone.
pub type CowValue<'a> = Cow<'a, Value>;

/// A runtime value. `BTreeMap`/`BTreeSet` keep everything totally ordered,
/// which gives us set semantics, deterministic iteration and hashable
/// results for free.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    Bool(bool),
    Int(i64),
    Str(String),
    /// An OID: the class name plus a numeric identity. OIDs are abstract —
    /// queries can only compare them — but the engine needs an identity to
    /// key class dictionaries.
    Oid(String, u64),
    Struct(BTreeMap<String, Value>),
    Set(BTreeSet<Value>),
    Dict(BTreeMap<Value, Value>),
}

impl Value {
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    pub fn record<I, S>(fields: I) -> Value
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        Value::Struct(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn set<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Set(items.into_iter().collect())
    }

    pub fn dict<I: IntoIterator<Item = (Value, Value)>>(items: I) -> Value {
        Value::Dict(items.into_iter().collect())
    }

    pub fn as_set(&self) -> Option<&BTreeSet<Value>> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_dict(&self) -> Option<&BTreeMap<Value, Value>> {
        match self {
            Value::Dict(d) => Some(d),
            _ => None,
        }
    }

    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Struct(fields) => fields.get(name),
            _ => None,
        }
    }

    /// Does the value inhabit the type? (Structural check; used by tests
    /// and the materializer's sanity assertions.)
    pub fn has_type(&self, ty: &Type) -> bool {
        match (self, ty) {
            (Value::Bool(_), Type::Bool) => true,
            (Value::Int(_), Type::Int) => true,
            (Value::Str(_), Type::Str) => true,
            (Value::Oid(class, _), Type::Oid(want)) => class == want,
            (Value::Struct(fields), Type::Struct(tys)) => {
                fields.len() == tys.len()
                    && fields
                        .iter()
                        .all(|(k, v)| tys.get(k).is_some_and(|t| v.has_type(t)))
            }
            (Value::Set(items), Type::Set(elem)) => items.iter().all(|v| v.has_type(elem)),
            (Value::Dict(map), Type::Dict(k, v)) => map
                .iter()
                .all(|(key, val)| key.has_type(k) && val.has_type(v)),
            _ => false,
        }
    }
}

/// The placeholder occupying never-written registers and dead batch
/// cells: reading an unbound slot yields `false`, never a panic.
static UNBOUND: CowValue<'static> = Cow::Owned(Value::Bool(false));

/// A selection vector: one liveness bit per batch row, with the live
/// count maintained incrementally. Filters *mark* rows dead here instead
/// of compacting the batch, so upstream columns never shift.
#[derive(Debug, Clone, Default)]
pub struct SelVec {
    bits: Vec<bool>,
    live: usize,
}

impl SelVec {
    /// Number of rows (live and dead).
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Number of live rows.
    pub fn live(&self) -> usize {
        self.live
    }

    pub fn is_live(&self, row: usize) -> bool {
        self.bits[row]
    }

    /// Appends one live row.
    pub fn push_live(&mut self) {
        self.bits.push(true);
        self.live += 1;
    }

    /// Marks a row dead (idempotent).
    pub fn kill(&mut self, row: usize) {
        if self.bits[row] {
            self.bits[row] = false;
            self.live -= 1;
        }
    }

    pub fn clear(&mut self) {
        self.bits.clear();
        self.live = 0;
    }
}

/// A batch of rows over the pipeline executor's slot layout: one column
/// of maybe-borrowed values per register plus a [`SelVec`]. Columns for
/// slots no operator has written yet stay unbound — reading one yields
/// a `false` placeholder.
#[derive(Debug, Clone)]
pub struct Batch<'a> {
    cols: Vec<Vec<CowValue<'a>>>,
    bound: Vec<bool>,
    sel: SelVec,
}

impl<'a> Batch<'a> {
    /// The pipeline's seed batch: one live row, every slot unbound —
    /// what the first operator is invoked on.
    pub fn seed(n_slots: usize) -> Batch<'a> {
        let mut sel = SelVec::default();
        sel.push_live();
        Batch {
            cols: vec![Vec::new(); n_slots],
            bound: vec![false; n_slots],
            sel,
        }
    }

    /// An empty output batch for an expanding operator: inherits the
    /// source batch's bound columns plus the operator's own `slot`.
    pub fn expanded_from(src: &Batch<'a>, slot: usize) -> Batch<'a> {
        let mut bound = src.bound.clone();
        if let Some(b) = bound.get_mut(slot) {
            *b = true;
        }
        Batch {
            cols: vec![Vec::new(); src.cols.len()],
            bound,
            sel: SelVec::default(),
        }
    }

    /// Rows in the batch, dead ones included.
    pub fn rows(&self) -> usize {
        self.sel.len()
    }

    /// Live rows in the batch.
    pub fn live(&self) -> usize {
        self.sel.live()
    }

    pub fn is_live(&self, row: usize) -> bool {
        self.sel.is_live(row)
    }

    /// Marks a row dead.
    pub fn kill(&mut self, row: usize) {
        self.sel.kill(row);
    }

    /// Reads register `slot` of `row`; unbound slots read the placeholder.
    pub fn reg(&self, slot: usize, row: usize) -> &CowValue<'a> {
        if self.bound.get(slot).copied().unwrap_or(false) {
            &self.cols[slot][row]
        } else {
            &UNBOUND
        }
    }

    /// Materializes `slot`'s column (placeholder-filled) so a scalar
    /// binding operator can write it in place, row by row.
    pub fn bind_col(&mut self, slot: usize) {
        if !self.bound[slot] {
            self.bound[slot] = true;
            self.cols[slot] = vec![UNBOUND.clone(); self.sel.len()];
        }
    }

    /// Writes register `slot` of `row` (the column must be bound).
    pub fn set(&mut self, slot: usize, row: usize, v: CowValue<'a>) {
        self.cols[slot][row] = v;
    }

    /// Appends one live row: `src`'s bound registers at `row` are
    /// replicated and the expanding operator's own `slot` is set to `v`.
    pub fn push_row(&mut self, src: &Batch<'a>, row: usize, slot: usize, v: CowValue<'a>) {
        for s in 0..self.cols.len() {
            if s != slot && src.bound[s] {
                let cell = src.cols[s][row].clone();
                self.cols[s].push(cell);
            }
        }
        self.cols[slot].push(v);
        self.sel.push_live();
    }

    /// Drops every row (bound columns stay bound) so the batch can be
    /// refilled without reallocating.
    pub fn clear_rows(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
        self.sel.clear();
    }
}

impl From<&Constant> for Value {
    fn from(c: &Constant) -> Value {
        match c {
            Constant::Bool(b) => Value::Bool(*b),
            Constant::Int(i) => Value::Int(*i),
            Constant::Str(s) => Value::Str(s.clone()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Oid(class, n) => write!(f, "&{class}#{n}"),
            Value::Struct(fields) => {
                write!(f, "struct(")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} = {v}")?;
                }
                write!(f, ")")
            }
            Value::Set(items) => {
                write!(f, "{{")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::Dict(map) => {
                write!(f, "dict{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} -> {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_semantics_dedup() {
        let s = Value::set([Value::Int(1), Value::Int(1), Value::Int(2)]);
        assert_eq!(s.as_set().unwrap().len(), 2);
    }

    #[test]
    fn typing_check() {
        let row = Value::record([("A", Value::Int(1)), ("B", Value::str("x"))]);
        let ty = Type::record([("A", Type::Int), ("B", Type::Str)]);
        assert!(row.has_type(&ty));
        assert!(!row.has_type(&Type::record([("A", Type::Int)])));
        assert!(!Value::Int(1).has_type(&Type::Str));
        let oid = Value::Oid("Dept".into(), 3);
        assert!(oid.has_type(&Type::Oid("Dept".into())));
        assert!(!oid.has_type(&Type::Oid("Proj".into())));
        let d = Value::dict([(Value::Int(1), Value::str("a"))]);
        assert!(d.has_type(&Type::dict(Type::Int, Type::Str)));
        assert!(!d.has_type(&Type::dict(Type::Str, Type::Str)));
    }

    #[test]
    fn display_forms() {
        let v = Value::record([("A", Value::Int(1))]);
        assert_eq!(v.to_string(), "struct(A = 1)");
        assert_eq!(Value::Oid("Dept".into(), 7).to_string(), "&Dept#7");
        assert_eq!(
            Value::set([Value::Int(2), Value::Int(1)]).to_string(),
            "{1, 2}"
        );
    }

    #[test]
    fn batch_selection_and_columns() {
        let row = Value::record([("A", Value::Int(1))]);
        let seed: Batch<'_> = Batch::seed(2);
        assert_eq!((seed.rows(), seed.live()), (1, 1));
        // Unbound slots read the seed placeholder.
        assert_eq!(seed.reg(0, 0).as_ref(), &Value::Bool(false));

        let mut out = Batch::expanded_from(&seed, 0);
        out.push_row(&seed, 0, 0, Cow::Borrowed(&row));
        out.push_row(&seed, 0, 0, Cow::Owned(Value::Int(9)));
        assert_eq!((out.rows(), out.live()), (2, 2));
        assert_eq!(out.reg(0, 0).as_ref(), &row);
        assert_eq!(out.reg(1, 1).as_ref(), &Value::Bool(false));

        // Kill marks rows dead without shifting columns; idempotent.
        out.kill(0);
        out.kill(0);
        assert_eq!((out.rows(), out.live()), (2, 1));
        assert!(!out.is_live(0));
        assert_eq!(out.reg(0, 0).as_ref(), &row);

        // A bound scalar column writes in place.
        out.bind_col(1);
        out.set(1, 1, Cow::Owned(Value::Int(5)));
        assert_eq!(out.reg(1, 1).as_ref(), &Value::Int(5));

        out.clear_rows();
        assert_eq!((out.rows(), out.live()), (0, 0));
    }

    #[test]
    fn field_access() {
        let v = Value::record([("A", Value::Int(1))]);
        assert_eq!(v.field("A"), Some(&Value::Int(1)));
        assert_eq!(v.field("B"), None);
        assert_eq!(Value::Int(1).field("A"), None);
    }
}
