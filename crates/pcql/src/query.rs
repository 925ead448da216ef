//! Path-conjunctive queries and physical plans.
//!
//! A PC query is
//!
//! ```text
//! select struct(A1 = P1', …, An = Pn') from P1 x1, …, Pm xm where B
//! ```
//!
//! Binding paths are *dependent*: `Pi` may refer to `x1 … x(i-1)` (paper
//! §5). Physical plans extend PC queries with `let`-bindings (singleton
//! bindings such as `I_R[v.A] r'` in §4's navigation-join plan) and
//! non-failing lookups.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::path::Path;

/// How a `from`-clause binding ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BindKind {
    /// `from P x` — `x` iterates over the set `P`. The only kind allowed in
    /// PC queries.
    Iter,
    /// `from P x` where `P` is scalar — `x` is bound to the single value of
    /// `P` (plan-level sugar for navigation joins, e.g. `I_R[v.A] r'`).
    Let,
}

/// One `from`-clause binding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Binding {
    pub var: String,
    pub src: Path,
    pub kind: BindKind,
}

impl Binding {
    pub fn iter(var: impl Into<String>, src: Path) -> Binding {
        Binding {
            var: var.into(),
            src,
            kind: BindKind::Iter,
        }
    }

    pub fn let_(var: impl Into<String>, src: Path) -> Binding {
        Binding {
            var: var.into(),
            src,
            kind: BindKind::Let,
        }
    }
}

/// An equality atom `P = P'` of a path conjunction.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Equality(pub Path, pub Path);

impl Equality {
    /// Orientation-insensitive canonical form (smaller side first).
    pub fn normalized(&self) -> Equality {
        if self.0 <= self.1 {
            self.clone()
        } else {
            Equality(self.1.clone(), self.0.clone())
        }
    }

    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut v = self.0.free_vars();
        v.extend(self.1.free_vars());
        v
    }

    pub fn rename(&self, map: &BTreeMap<String, String>) -> Equality {
        Equality(self.0.rename(map), self.1.rename(map))
    }

    pub fn subst(&self, map: &BTreeMap<String, Path>) -> Equality {
        Equality(self.0.subst(map), self.1.subst(map))
    }
}

/// The `select` clause.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Output {
    /// `select struct(A1 = P1, …)` — fields are kept sorted by name.
    Struct(BTreeMap<String, Path>),
    /// `select P` — a single path.
    Path(Path),
}

impl Output {
    pub fn record<I, S>(fields: I) -> Output
    where
        I: IntoIterator<Item = (S, Path)>,
        S: Into<String>,
    {
        Output::Struct(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The paths of the output, with their field labels (`None` for a bare
    /// path output).
    pub fn paths(&self) -> Vec<(Option<&str>, &Path)> {
        match self {
            Output::Struct(fields) => fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            Output::Path(p) => vec![(None, p)],
        }
    }

    pub fn map_paths(&self, f: &mut impl FnMut(&Path) -> Path) -> Output {
        match self {
            Output::Struct(fields) => {
                Output::Struct(fields.iter().map(|(k, v)| (k.clone(), f(v))).collect())
            }
            Output::Path(p) => Output::Path(f(p)),
        }
    }

    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (_, p) in self.paths() {
            out.extend(p.free_vars());
        }
        out
    }
}

/// A PC query (or, with `Let` bindings / non-failing lookups, a physical
/// plan).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Query {
    pub output: Output,
    pub from: Vec<Binding>,
    pub where_: Vec<Equality>,
}

/// Structural well-formedness violations (scoping; not typing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScopeError {
    /// A binding path refers to a variable not bound earlier in the
    /// `from` clause.
    UnboundInBinding { binding: String, var: String },
    /// Two bindings introduce the same variable.
    DuplicateVar(String),
    /// The `where` clause refers to an unbound variable.
    UnboundInWhere(String),
    /// The `select` clause refers to an unbound variable.
    UnboundInSelect(String),
}

impl fmt::Display for ScopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScopeError::UnboundInBinding { binding, var } => {
                write!(f, "binding `{binding}` refers to unbound variable `{var}`")
            }
            ScopeError::DuplicateVar(v) => write!(f, "duplicate from-variable `{v}`"),
            ScopeError::UnboundInWhere(v) => {
                write!(f, "where clause refers to unbound variable `{v}`")
            }
            ScopeError::UnboundInSelect(v) => {
                write!(f, "select clause refers to unbound variable `{v}`")
            }
        }
    }
}

impl std::error::Error for ScopeError {}

impl Query {
    pub fn new(output: Output, from: Vec<Binding>, where_: Vec<Equality>) -> Query {
        Query {
            output,
            from,
            where_,
        }
    }

    /// Checks dependent-binding scoping: each binding path may only use
    /// variables bound strictly earlier; `where` and `select` may use any
    /// bound variable.
    pub fn check_scopes(&self) -> Result<(), ScopeError> {
        let mut bound: BTreeSet<String> = BTreeSet::new();
        for b in &self.from {
            for v in b.src.free_vars() {
                if !bound.contains(&v) {
                    return Err(ScopeError::UnboundInBinding {
                        binding: b.var.clone(),
                        var: v,
                    });
                }
            }
            if !bound.insert(b.var.clone()) {
                return Err(ScopeError::DuplicateVar(b.var.clone()));
            }
        }
        for eq in &self.where_ {
            for v in eq.free_vars() {
                if !bound.contains(&v) {
                    return Err(ScopeError::UnboundInWhere(v));
                }
            }
        }
        for v in self.output.free_vars() {
            if !bound.contains(&v) {
                return Err(ScopeError::UnboundInSelect(v));
            }
        }
        Ok(())
    }

    /// All schema roots mentioned anywhere in the query.
    pub fn roots(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for b in &self.from {
            out.extend(b.src.roots());
        }
        for eq in &self.where_ {
            out.extend(eq.0.roots());
            out.extend(eq.1.roots());
        }
        for (_, p) in self.output.paths() {
            out.extend(p.roots());
        }
        out
    }

    /// Renames all bound variables according to `map` (simultaneously, in
    /// binding paths, conditions and output).
    pub fn rename(&self, map: &BTreeMap<String, String>) -> Query {
        Query {
            output: self.output.map_paths(&mut |p| p.rename(map)),
            from: self
                .from
                .iter()
                .map(|b| Binding {
                    var: map.get(&b.var).cloned().unwrap_or_else(|| b.var.clone()),
                    src: b.src.rename(map),
                    kind: b.kind,
                })
                .collect(),
            where_: self.where_.iter().map(|e| e.rename(map)).collect(),
        }
    }

    /// Positional form: bound variables renamed to `v0, v1, …` in binding
    /// order, everything else in place. Two queries that differ only in
    /// variable names have identical positional forms.
    pub fn positional(&self) -> Query {
        let map: BTreeMap<String, String> = self
            .from
            .iter()
            .enumerate()
            .map(|(i, b)| (b.var.clone(), format!("v{i}")))
            .collect();
        self.rename(&map)
    }

    /// Alpha-normal form: the [positional form](Query::positional) with
    /// the where clause sorted/deduplicated. Two queries that differ only
    /// in variable names and condition order have identical alpha-normal
    /// forms, which is how plan sets are deduplicated.
    pub fn alpha_normalized(&self) -> Query {
        let mut q = self.positional();
        let mut eqs: Vec<Equality> = q.where_.iter().map(Equality::normalized).collect();
        eqs.sort();
        eqs.dedup();
        q.where_ = eqs;
        q
    }

    /// The variables of bindings whose source path (transitively) depends
    /// on `var` — the "dependent bindings" of the backchase footnote. Does
    /// not include `var` itself.
    pub fn dependents_of(&self, var: &str) -> BTreeSet<String> {
        let mut dep: BTreeSet<String> = BTreeSet::new();
        dep.insert(var.to_string());
        // Bindings are ordered, so one forward pass suffices.
        for b in &self.from {
            if b.src.free_vars().iter().any(|v| dep.contains(v)) {
                dep.insert(b.var.clone());
            }
        }
        dep.remove(var);
        dep
    }

    /// Total AST size (for the polynomial chase bound and cost tie-breaks).
    pub fn size(&self) -> usize {
        let mut n = 0;
        for b in &self.from {
            n += 1 + b.src.size();
        }
        for eq in &self.where_ {
            n += eq.0.size() + eq.1.size();
        }
        for (_, p) in self.output.paths() {
            n += p.size();
        }
        n
    }

    /// True if this query is syntactically a pure PC query (no plan-level
    /// constructs). Typing/guardedness are checked separately in
    /// [`crate::typecheck`].
    pub fn is_plain_pc(&self) -> bool {
        self.from
            .iter()
            .all(|b| b.kind == BindKind::Iter && !b.src.has_nonfailing_lookup())
            && self
                .where_
                .iter()
                .all(|e| !e.0.has_nonfailing_lookup() && !e.1.has_nonfailing_lookup())
            && self
                .output
                .paths()
                .iter()
                .all(|(_, p)| !p.has_nonfailing_lookup())
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "select ")?;
        match &self.output {
            Output::Struct(fields) => {
                write!(f, "struct(")?;
                for (i, (name, p)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name} = {p}")?;
                }
                write!(f, ")")?;
            }
            Output::Path(p) => write!(f, "{p}")?,
        }
        if !self.from.is_empty() {
            write!(f, " from ")?;
            for (i, b) in self.from.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match b.kind {
                    BindKind::Iter => write!(f, "{} {}", b.src, b.var)?,
                    BindKind::Let => write!(f, "let {} := {}", b.var, b.src)?,
                }
            }
        }
        if !self.where_.is_empty() {
            write!(f, " where ")?;
            for (i, Equality(l, r)) in self.where_.iter().enumerate() {
                if i > 0 {
                    write!(f, " and ")?;
                }
                write!(f, "{l} = {r}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running query Q over the ProjDept schema.
    fn paper_q() -> Query {
        Query::new(
            Output::record([
                ("PN", Path::var("s")),
                ("PB", Path::var("p").field("Budg")),
                ("DN", Path::var("d").field("DName")),
            ]),
            vec![
                Binding::iter("d", Path::root("depts")),
                Binding::iter("s", Path::var("d").field("DProjs")),
                Binding::iter("p", Path::root("Proj")),
            ],
            vec![
                Equality(Path::var("s"), Path::var("p").field("PName")),
                Equality(Path::var("p").field("CustName"), Path::str("CitiBank")),
            ],
        )
    }

    #[test]
    fn display_matches_paper_shape() {
        let q = paper_q();
        let s = q.to_string();
        assert_eq!(
            s,
            "select struct(DN = d.DName, PB = p.Budg, PN = s) \
             from depts d, d.DProjs s, Proj p \
             where s = p.PName and p.CustName = \"CitiBank\""
        );
    }

    #[test]
    fn scope_checking() {
        let q = paper_q();
        assert!(q.check_scopes().is_ok());

        // `s` bound before `d` would be out of scope.
        let bad = Query::new(
            Output::Path(Path::var("s")),
            vec![
                Binding::iter("s", Path::var("d").field("DProjs")),
                Binding::iter("d", Path::root("depts")),
            ],
            vec![],
        );
        assert!(matches!(
            bad.check_scopes(),
            Err(ScopeError::UnboundInBinding { .. })
        ));

        let dup = Query::new(
            Output::Path(Path::var("x")),
            vec![
                Binding::iter("x", Path::root("R")),
                Binding::iter("x", Path::root("S")),
            ],
            vec![],
        );
        assert!(matches!(
            dup.check_scopes(),
            Err(ScopeError::DuplicateVar(_))
        ));
    }

    #[test]
    fn roots_and_dependents() {
        let q = paper_q();
        let roots: Vec<String> = q.roots().into_iter().collect();
        assert_eq!(roots, vec!["Proj", "depts"]);
        // s ranges over d.DProjs, so s depends on d.
        assert_eq!(q.dependents_of("d"), BTreeSet::from(["s".to_string()]));
        assert!(q.dependents_of("p").is_empty());
    }

    #[test]
    fn alpha_normalization_identifies_renamings() {
        let q = paper_q();
        let map: BTreeMap<String, String> = [
            ("d".to_string(), "dept".to_string()),
            ("s".to_string(), "sn".to_string()),
            ("p".to_string(), "proj".to_string()),
        ]
        .into_iter()
        .collect();
        let q2 = q.rename(&map);
        assert_ne!(q, q2);
        assert_eq!(q.alpha_normalized(), q2.alpha_normalized());
    }

    #[test]
    fn plain_pc_detection() {
        assert!(paper_q().is_plain_pc());
        let plan = Query::new(
            Output::Path(Path::var("s")),
            vec![Binding::iter(
                "s",
                Path::root("IS").get_or_empty(Path::str("x")),
            )],
            vec![],
        );
        assert!(!plan.is_plain_pc());
        let with_let = Query::new(
            Output::Path(Path::var("r")),
            vec![Binding::let_("r", Path::root("I").get(Path::str("k")))],
            vec![],
        );
        assert!(!with_let.is_plain_pc());
    }

    #[test]
    fn size_counts_nodes() {
        let q = paper_q();
        assert!(q.size() > 10);
        assert_eq!(
            Query::new(
                Output::Path(Path::var("x")),
                vec![Binding::iter("x", Path::root("R"))],
                vec![]
            )
            .size(),
            3
        );
    }
}
