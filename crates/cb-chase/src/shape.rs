//! Query shapes: one derivation, handed to every query of its shape.
//!
//! The chase reads a query's variables by binding position (triggers in
//! binding order, coalescing the later of two duplicates) and compares
//! constants only for equality; subquery construction and the plan
//! ranking break ties by the *order* of constants, never by their values
//! or by variable names. So whatever is derived for one query — its
//! universal plan, its lattice, its costed plans — is derived, renamed,
//! for every query of its *shape*: the same [positional
//! form](Query::positional) up to a renaming of the constants the
//! dependencies never mention that keeps their order.
//!
//! [`ChaseContext::shape`](crate::ChaseContext::shape) computes a query's
//! [`Shape`]; the phase-1 chase memo keys on it, and so does a plan cache
//! above the chase core. Whoever keeps a result for a shape keeps the
//! query it was derived for as a [`ShapeOrigin`], and hands the result to
//! a later query of the shape through the [`Renaming`]
//! [`ShapeOrigin::renaming_to`] vouches for.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use pcql::path::{Constant, Path};
use pcql::query::{Binding, Equality, Query};

use crate::chase::ChaseStepTrace;

/// A query's shape: the key a result derived for it is kept under, and
/// the query's non-dependency constants in value order, which a
/// [`Renaming`] maps by rank. See
/// [`ChaseContext::shape`](crate::ChaseContext::shape).
#[derive(Debug, Clone)]
pub struct Shape {
    /// The query's positional form with every constant the dependencies
    /// never mention replaced by a placeholder numbered by its rank.
    pub key: Query,
    /// The constants the placeholders stand for, in value order.
    pub(crate) constants: Vec<Constant>,
}

/// The query a result kept for a shape was derived for: what a later
/// query of the shape is translated from.
#[derive(Debug, Clone)]
pub struct ShapeOrigin {
    input: Query,
    constants: Vec<Constant>,
    /// The highest counter the chase's fresh-name generator reached per
    /// name stem.
    reached: BTreeMap<String, u64>,
}

impl ShapeOrigin {
    /// `input`, of shape `shape`, whose chase added the bindings `added`.
    pub fn new<'a>(
        input: Query,
        shape: Shape,
        added: impl IntoIterator<Item = &'a Binding>,
    ) -> ShapeOrigin {
        let mut reached: BTreeMap<String, u64> = BTreeMap::new();
        for b in added {
            if let Some((stem, n)) = numbered(&b.var) {
                let top = reached.entry(stem.to_string()).or_default();
                *top = (*top).max(n);
            }
        }
        ShapeOrigin {
            input,
            constants: shape.constants,
            reached,
        }
    }

    /// The query the result was derived for.
    pub(crate) fn input(&self) -> &Query {
        &self.input
    }

    /// Can it vouch for a renaming to any query but itself? Not when a
    /// name of its own is one the chase's fresh-name generator tried.
    pub fn can_translate(&self) -> bool {
        !self.input.from.iter().any(|b| self.tried(&b.var))
    }

    fn tried(&self, v: &str) -> bool {
        numbered(v).is_some_and(|(stem, n)| self.reached.get(stem).is_some_and(|&top| n <= top))
    }

    /// The renaming that takes what was derived for the origin to what is
    /// derived for `q`, a query of the same shape: the identity when `q`
    /// is the origin, variables by binding position and constants by rank
    /// otherwise. `None` when it cannot be vouched for: a name of either
    /// query is one the chase's fresh-name generator tried and skipped,
    /// which could steer the names the chase adds, or, as a last check,
    /// the renaming does not take the origin to `q`.
    pub fn renaming_to(&self, q: &Query, shape: &Shape) -> Option<Renaming> {
        if *q == self.input {
            return Some(Renaming::default());
        }
        let r = Renaming::between(&self.input, &self.constants, q, &shape.constants)
            .unwrap_or_default();
        let clean = self.can_translate() && !q.from.iter().any(|b| self.tried(&b.var));
        (clean && r.query(&self.input) == *q).then_some(r)
    }
}

/// The renaming from a query recorded for a shape to another query of
/// that shape: variables by binding position, non-dependency constants
/// by rank. The shape keeps the order of constants, so what was derived
/// for the one is what the other derives, renamed. Only the names and
/// constants that differ are listed.
#[derive(Debug, Clone, Default)]
pub struct Renaming {
    pub(crate) vars: BTreeMap<String, String>,
    pub(crate) constants: HashMap<Constant, Constant>,
}

impl Renaming {
    /// The renaming from `recorded` to `u`; `None` when it is the
    /// identity.
    pub(crate) fn between(
        recorded: &Query,
        recorded_constants: &[Constant],
        u: &Query,
        constants: &[Constant],
    ) -> Option<Renaming> {
        let vars: BTreeMap<String, String> = recorded
            .from
            .iter()
            .zip(&u.from)
            .filter(|(r, b)| r.var != b.var)
            .map(|(r, b)| (r.var.clone(), b.var.clone()))
            .collect();
        let constants: HashMap<Constant, Constant> = recorded_constants
            .iter()
            .zip(constants)
            .filter(|(r, c)| r != c)
            .map(|(r, c)| (r.clone(), c.clone()))
            .collect();
        let r = Renaming { vars, constants };
        (!r.is_identity()).then_some(r)
    }

    /// Does it rename nothing?
    pub fn is_identity(&self) -> bool {
        self.vars.is_empty() && self.constants.is_empty()
    }

    pub(crate) fn path(&self, p: &Path) -> Path {
        match p {
            Path::Var(v) => Path::Var(self.vars.get(v).unwrap_or(v).clone()),
            Path::Const(c) => Path::Const(self.constants.get(c).unwrap_or(c).clone()),
            Path::Root(r) => Path::Root(r.clone()),
            Path::Field(q, a) => Path::Field(Box::new(self.path(q)), a.clone()),
            Path::Dom(q) => Path::Dom(Box::new(self.path(q))),
            Path::Get(m, k) => Path::Get(Box::new(self.path(m)), Box::new(self.path(k))),
            Path::GetOrEmpty(m, k) => {
                Path::GetOrEmpty(Box::new(self.path(m)), Box::new(self.path(k)))
            }
        }
    }

    pub(crate) fn binding(&self, b: &Binding) -> Binding {
        Binding {
            var: self.vars.get(&b.var).unwrap_or(&b.var).clone(),
            src: self.path(&b.src),
            kind: b.kind,
        }
    }

    pub(crate) fn equality(&self, e: &Equality) -> Equality {
        Equality(self.path(&e.0), self.path(&e.1))
    }

    /// A query: its bindings, conditions and output.
    pub fn query(&self, q: &Query) -> Query {
        Query {
            output: q.output.map_paths(&mut |p| self.path(p)),
            from: q.from.iter().map(|b| self.binding(b)).collect(),
            where_: q.where_.iter().map(|e| self.equality(e)).collect(),
        }
    }

    /// A chase step: its trigger's paths, added bindings and conditions
    /// (the dependency's own variables stay).
    pub fn step(&self, s: &ChaseStepTrace) -> ChaseStepTrace {
        ChaseStepTrace {
            dep: s.dep.clone(),
            trigger: s
                .trigger
                .iter()
                .map(|(v, p)| (v.clone(), self.path(p)))
                .collect(),
            added_bindings: s.added_bindings.iter().map(|b| self.binding(b)).collect(),
            added_eqs: s.added_eqs.iter().map(|e| self.equality(e)).collect(),
        }
    }

    pub(crate) fn names(&self, names: &BTreeSet<String>) -> BTreeSet<String> {
        names
            .iter()
            .map(|v| self.vars.get(v).unwrap_or(v).clone())
            .collect()
    }
}

/// A name of the form the fresh-name generator makes, split into its
/// stem and counter (`k12` → `("k", 12)`); `None` for any other name.
fn numbered(name: &str) -> Option<(&str, u64)> {
    let stem = name.trim_end_matches(|c: char| c.is_ascii_digit());
    let digits = &name[stem.len()..];
    let n: u64 = digits.parse().ok()?;
    (!stem.is_empty() && n.to_string() == digits).then_some((stem, n))
}
