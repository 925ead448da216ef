//! Slot-compiled physical operator pipelines.
//!
//! Algorithm 1's step 3 includes "mapping into physical operators
//! different than those (index-based)". The [`Evaluator`] interprets plan
//! *syntax* directly; this module **compiles** a plan once and then runs
//! it against a flat register file:
//!
//! * every variable is resolved to a fixed `usize` **slot** at compile
//!   time — `execute` never touches a string-keyed environment;
//! * every path is pre-resolved to an [`Access`]: a base (slot, interned
//!   root, constant, or lookup) plus a flattened field chain, so the
//!   per-row work is an array index and a few map lookups;
//! * the register file is a `Vec<CowValue<'a>>` — rows iterated out of
//!   instance-owned collections bind as `Cow::Borrowed(&'a Value)`
//!   (the same anchoring discipline as the interpreter's Cow
//!   environment), so instance-anchored bindings cost **zero clones
//!   per row**;
//! * ground (environment-independent) `where` conjuncts are hoisted out
//!   of the row loop entirely: they run once, before the pipeline, and
//!   short-circuit to the empty result;
//! * hash-join tables key `CowValue<'a>` to `Vec<&'a Value>` — borrowed
//!   keys over borrowed rows — and are built **lazily** on first probe,
//!   so a join below an empty outer stream never pays its build.
//!
//! The operator family threads a stream of register bindings:
//!
//! ```text
//! Scan{slot, root}         emit one binding per element of a root set
//! IterDependent{slot, src} nested iteration over a path (index entries,
//!                          set-valued fields, non-failing lookups)
//! Bind{slot, src}          scalar (let) binding
//! Filter{l, r}             keep rows where the accessors evaluate equal
//! HashJoin{...}            equi-join through an on-the-fly hash table,
//!                          realizing §2's "a hash-join algorithm would
//!                          have to compute [the table] on the fly"
//! MergeJoin{...}           equi-join through a lazily materialized,
//!                          key-sorted run — the sort elided when the
//!                          root's BTreeSet order already sorts the key
//! ```
//!
//! # Batched, push-based execution
//!
//! [`execute`]/[`execute_with_stats`] run one driver, **batch
//! vectorized**: operators consume and emit [`Batch`]es — fixed-capacity
//! row batches laid out as one `CowValue` column per register slot
//! ([`CompileOptions::batch_size`] rows, default 1024) with a selection
//! vector. Execution is **push-based**: each operator processes a whole
//! batch, then pushes the result at its successor, so the engine recurses
//! once per *batch* per operator instead of once per *row*.
//!
//! * `Scan`, `IterDependent`, `HashJoin` and `MergeJoin` fan out through
//!   one kernel: each supplies only how one row finds its matches, and
//!   the kernel replicates the row's (cheap, usually borrowed) registers
//!   per match and pushes full batches downstream as they fill;
//! * a `Scan` directly followed by a `Filter` runs fused: rows the filter
//!   rejects are never materialized;
//! * `Bind` and `Filter` work in place — `Filter` marks failing rows dead
//!   in the selection vector instead of compacting, so upstream columns
//!   never shift;
//! * the final projection drains the survivors of each arriving batch.
//!
//! The reference order is the interpreter's depth-first walk, and errors
//! keep it by truncation: when an operator fails at live row *i*, rows ≥
//! *i* are killed, the surviving prefix is flushed downstream (any
//! downstream error necessarily belongs to an earlier row and wins), and
//! the pending error surfaces only if the flush returns cleanly. At batch
//! size 1 every batch holds one row, so the same code walks the rows
//! strictly depth-first; the tests pin the discipline by comparing batch
//! sizes 1, 2 and 1024.
//!
//! # Merge joins over ordered roots
//!
//! Roots are `BTreeSet`s, so their iteration order is already sorted —
//! a struct set orders by its alphabetically-first field. When
//! [`CompileOptions::merge_joins`] is on, `compile` turns an equi-join
//! whose two sides are single-field accesses on root-scanned bindings
//! (the *ordered-root* access shape) into a [`Operator::MergeJoin`]: the
//! inner side is materialized once as a key-sorted run — the sort is
//! **skipped** when the keys already arrive non-decreasing from the
//! `BTreeSet`, which the run build detects in its single pass — and each
//! probe binary-searches the equal-key range. Runs build lazily on first
//! probe, exactly like hash tables.
//!
//! [`execute_with_stats`] additionally returns [`PipelineStats`]: rows
//! in/out per operator, rows emitted, batches pushed, selection-vector
//! fill, hash tables and merge runs built vs skipped — the observability
//! layer EXPLAIN and experiments E15/E19 report from.
//!
//! Without hash or merge joins the pipeline is *fully* identical to the
//! interpreter — same rows, and the same `EvalError` at the same point
//! (the proptest corpus asserts `Result` equality). With hash or merge
//! joins on, results are still identical, but the join applies its
//! equality before the other same-level conjuncts (that is what a hash
//! or merge join *is*), so on erroring queries a different conjunct's
//! error — or none, if the join filters the offending rows away — may
//! surface, exactly as condition reordering implies.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use pcql::path::Path;
use pcql::query::{BindKind, Equality, Output, Query};

use crate::eval::{EvalError, Evaluator};
use crate::value::{Batch, CowValue, Value};

/// The base of a pre-resolved accessor: where evaluation starts before
/// the flattened field chain is applied.
#[derive(Debug, Clone, PartialEq)]
enum AccessBase {
    /// A register of the pipeline's register file.
    Slot(usize),
    /// A variable the query never binds — evaluates to `UnknownVar`,
    /// exactly like the interpreter.
    UnknownVar(String),
    /// An interned schema root (index into [`Pipeline::roots`]).
    Root { id: usize, name: String },
    /// A constant, pre-converted to a runtime value.
    Const(Value),
    /// `dom(P)` — computed per evaluation (owned).
    Dom(Box<Access>),
    /// `P[k]` — failing dictionary lookup.
    Get(Box<Access>, Box<Access>),
    /// `P{k}` — non-failing dictionary lookup (empty set when absent).
    GetOrEmpty(Box<Access>, Box<Access>),
}

/// A compiled path: a base plus a pre-resolved field chain. Evaluating
/// one never consults variable names — slots index straight into the
/// register file.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    base: AccessBase,
    /// Trailing field projections, applied in order (ODMG implicit
    /// dereferencing included, as in the interpreter).
    fields: Vec<String>,
    /// Display of the source path's base, for diagnostics that must
    /// match the interpreter's byte for byte.
    base_display: String,
}

/// A borrowed view of an [`Access`] base for external inspection —
/// static verifiers (cb-analyze's pipeline dataflow pass) walk compiled
/// accessors through this without the concrete representation becoming
/// part of the public surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessKind<'a> {
    /// Reads a register of the pipeline's register file.
    Slot(usize),
    /// A variable the compiler could not resolve to any slot; evaluating
    /// it is the canonical `UnknownVar` error.
    UnknownVar(&'a str),
    /// Reads an interned schema root.
    Root { id: usize, name: &'a str },
    /// A pre-converted constant.
    Const,
    /// `dom(P)`.
    Dom(&'a Access),
    /// `P[k]` — failing dictionary lookup.
    Get { dict: &'a Access, key: &'a Access },
    /// `P{k}` — non-failing dictionary lookup.
    GetOrEmpty { dict: &'a Access, key: &'a Access },
}

impl Access {
    /// The register this accessor reads, when it is a plain (possibly
    /// field-projected) variable reference.
    pub fn slot(&self) -> Option<usize> {
        match self.base {
            AccessBase::Slot(i) => Some(i),
            _ => None,
        }
    }

    /// The base this accessor evaluates from, as an inspectable view.
    pub fn kind(&self) -> AccessKind<'_> {
        match &self.base {
            AccessBase::Slot(i) => AccessKind::Slot(*i),
            AccessBase::UnknownVar(v) => AccessKind::UnknownVar(v),
            AccessBase::Root { id, name } => AccessKind::Root { id: *id, name },
            AccessBase::Const(_) => AccessKind::Const,
            AccessBase::Dom(inner) => AccessKind::Dom(inner),
            AccessBase::Get(m, k) => AccessKind::Get { dict: m, key: k },
            AccessBase::GetOrEmpty(m, k) => AccessKind::GetOrEmpty { dict: m, key: k },
        }
    }

    /// The trailing field projections applied after the base.
    pub fn fields(&self) -> &[String] {
        &self.fields
    }

    /// Does evaluating this accessor read register `slot` — through its
    /// base, including the dictionary and key of lookup bases?
    fn reads_slot(&self, slot: usize) -> bool {
        match &self.base {
            AccessBase::Slot(i) => *i == slot,
            AccessBase::UnknownVar(_) | AccessBase::Root { .. } | AccessBase::Const(_) => false,
            AccessBase::Dom(inner) => inner.reads_slot(slot),
            AccessBase::Get(m, k) | AccessBase::GetOrEmpty(m, k) => {
                m.reads_slot(slot) || k.reads_slot(slot)
            }
        }
    }

    /// Display of the path prefix before field step `idx` — the
    /// interpreter reports `NoSuchField` against exactly this prefix.
    fn prefix_display(&self, idx: usize) -> String {
        let mut s = self.base_display.clone();
        for f in &self.fields[..idx] {
            s.push('.');
            s.push_str(f);
        }
        s
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.prefix_display(self.fields.len()))
    }
}

/// One pipeline operator, slot-annotated.
#[derive(Debug, Clone, PartialEq)]
pub enum Operator {
    /// Iterate a schema root (a set) into a register.
    Scan {
        var: String,
        slot: usize,
        root: String,
        root_id: usize,
    },
    /// Iterate a dependent collection (set-valued accessor under the
    /// current registers).
    IterDependent {
        var: String,
        slot: usize,
        src: Access,
    },
    /// Scalar binding.
    Bind {
        var: String,
        slot: usize,
        src: Access,
    },
    /// Equality filter.
    Filter { left: Access, right: Access },
    /// On-the-fly hash join: lazily build a table over `root` keyed by
    /// `build_key` (evaluated with the root's row in `slot`), then emit
    /// one binding per row matching `probe_key` under the current
    /// registers.
    HashJoin {
        row_var: String,
        slot: usize,
        root: String,
        root_id: usize,
        build_key: Access,
        probe_key: Access,
        /// Index into the executor's table arena.
        table: usize,
    },
    /// Sort-merge join over an ordered root: lazily materialize `root`
    /// as a run sorted by `build_key` (the sort elided when the root's
    /// `BTreeSet` order already sorts the key), then emit one binding
    /// per row in the equal-key range of `probe_key`.
    MergeJoin {
        row_var: String,
        slot: usize,
        root: String,
        root_id: usize,
        build_key: Access,
        probe_key: Access,
        /// Index into the executor's merge-run arena.
        run: usize,
    },
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operator::Scan {
                var, slot, root, ..
            } => write!(f, "Scan({root} as {var}@{slot})"),
            Operator::IterDependent { var, slot, src } => {
                write!(f, "Iter({src} as {var}@{slot})")
            }
            Operator::Bind { var, slot, src } => write!(f, "Bind({var}@{slot} := {src})"),
            Operator::Filter { left, right } => write!(f, "Filter({left} = {right})"),
            Operator::HashJoin {
                row_var,
                slot,
                root,
                build_key,
                probe_key,
                ..
            } => write!(
                f,
                "HashJoin({root} as {row_var}@{slot} on {build_key} = {probe_key})"
            ),
            Operator::MergeJoin {
                row_var,
                slot,
                root,
                build_key,
                probe_key,
                ..
            } => write!(
                f,
                "MergeJoin({root} as {row_var}@{slot} on {build_key} = {probe_key})"
            ),
        }
    }
}

/// A hoisted ground filter: both sides are environment-independent, so
/// it is evaluated once, before the pipeline runs.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundFilter {
    pub left: Access,
    pub right: Access,
}

/// The compiled projection.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledOutput {
    /// `select struct(...)` — field name plus accessor, sorted by name.
    Struct(Vec<(String, Access)>),
    /// `select P`.
    Path(Access),
}

/// A compiled plan: hoisted ground filters, the operator pipeline, the
/// final projection, and the register/table/root layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Environment-independent filters, evaluated once up front.
    pub ground: Vec<GroundFilter>,
    pub ops: Vec<Operator>,
    pub output: CompiledOutput,
    /// Register-file size (one slot per `from` binding, shadowed names
    /// included — each binding owns a distinct slot).
    pub n_slots: usize,
    /// Number of hash-join tables.
    pub n_tables: usize,
    /// Number of merge-join runs.
    pub n_runs: usize,
    /// Interned schema roots, resolved once per execution.
    pub roots: Vec<String>,
    /// Rows per batch (always ≥ 1).
    pub batch_size: usize,
}

/// A structural snapshot of a compiled [`Pipeline`]: the register/
/// table/root layout plus display-stable renderings of the ground
/// filters and operators. This is what plan serialization records and
/// what `plan-diff` compares — two pipelines with equal layouts execute
/// the same operator sequence over the same registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineLayout {
    pub n_slots: usize,
    pub n_tables: usize,
    pub n_runs: usize,
    pub batch_size: usize,
    pub roots: Vec<String>,
    /// `"left = right"` per hoisted ground filter.
    pub ground: Vec<String>,
    /// One [`Operator`] `Display` rendering per pipeline step.
    pub ops: Vec<String>,
}

impl Pipeline {
    /// The serializable [`PipelineLayout`] of this pipeline.
    pub fn layout(&self) -> PipelineLayout {
        PipelineLayout {
            n_slots: self.n_slots,
            n_tables: self.n_tables,
            n_runs: self.n_runs,
            batch_size: self.batch_size,
            roots: self.roots.clone(),
            ground: self
                .ground
                .iter()
                .map(|g| format!("{} = {}", g.left, g.right))
                .collect(),
            ops: self.ops.iter().map(ToString::to_string).collect(),
        }
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, g) in self.ground.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "Ground({} = {})", g.left, g.right)?;
        }
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 || !self.ground.is_empty() {
                write!(f, " -> ")?;
            }
            write!(f, "{op}")?;
        }
        if !self.ops.is_empty() || !self.ground.is_empty() {
            write!(f, " -> ")?;
        }
        write!(f, "Project")
    }
}

/// Compilation options.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Turn `Scan + Filter(equi-join)` pairs into on-the-fly hash joins.
    pub hash_joins: bool,
    /// Turn equi-joins whose both sides have the ordered-root access
    /// shape (a single-field projection off a root-scanned binding) into
    /// sort-merge joins; preferred over `hash_joins` when both apply.
    pub merge_joins: bool,
    /// Rows per batch (clamped to ≥ 1).
    pub batch_size: usize,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            hash_joins: false,
            merge_joins: false,
            batch_size: 1024,
        }
    }
}

/// Per-operator row counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Rows arriving at the operator: invocations for scans/iterations/
    /// binds, rows tested for filters, probes for hash joins.
    pub input: u64,
    /// Rows the operator passed downstream.
    pub output: u64,
}

/// Execution counters for one pipeline run — the "where did the rows
/// go" record EXPLAIN-style reporting and experiment E15 print.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Parallel to [`Pipeline::ops`].
    pub per_op: Vec<OpStats>,
    /// Rows reaching the final projection (before set-semantics dedup).
    pub rows_emitted: u64,
    /// Hoisted ground filters evaluated.
    pub ground_filters: u64,
    /// A ground filter was false: the pipeline never ran.
    pub short_circuited: bool,
    /// Hash-join tables actually built (on first probe).
    pub tables_built: u64,
    /// Hash-join tables never built because no probe reached them.
    pub tables_skipped: u64,
    /// Merge-join runs actually materialized (on first probe).
    pub runs_built: u64,
    /// Runs whose keys needed an explicit sort — 0 means every run's
    /// `BTreeSet` iteration order already sorted the join key.
    pub runs_sorted: u64,
    /// Merge-join runs never materialized because no probe reached them.
    pub runs_skipped: u64,
    /// Batches pushed between operators.
    pub batches: u64,
    /// Live rows across all pushed batches (selection-vector numerator).
    pub sel_rows_live: u64,
    /// Total rows (dead included) across all pushed batches.
    pub sel_rows_total: u64,
}

impl PipelineStats {
    fn for_pipeline(p: &Pipeline) -> PipelineStats {
        PipelineStats {
            per_op: vec![OpStats::default(); p.ops.len()],
            ..Default::default()
        }
    }

    /// Total rows that flowed between operators (sum of per-operator
    /// outputs plus emitted rows) — the throughput numerator E15 uses.
    pub fn rows_processed(&self) -> u64 {
        self.per_op.iter().map(|o| o.output).sum::<u64>() + self.rows_emitted
    }

    /// Fraction of batch rows still live when pushed (1.0 when nothing
    /// was batched): the selection-vector fill rate.
    pub fn sel_fill_rate(&self) -> f64 {
        if self.sel_rows_total == 0 {
            1.0
        } else {
            self.sel_rows_live as f64 / self.sel_rows_total as f64
        }
    }

    /// Renders the per-operator counters next to the pipeline.
    pub fn render(&self, pipeline: &Pipeline) -> String {
        let mut s = String::new();
        if self.ground_filters > 0 {
            s.push_str(&format!(
                "ground filters: {} evaluated once{}\n",
                self.ground_filters,
                if self.short_circuited {
                    " (short-circuited: empty result)"
                } else {
                    ""
                }
            ));
        }
        let ops: Vec<String> = pipeline.ops.iter().map(ToString::to_string).collect();
        let width = ops.iter().map(String::len).max().unwrap_or(0);
        for (op, st) in ops.iter().zip(&self.per_op) {
            s.push_str(&format!(
                "{op:<width$}  in {:>9}  out {:>9}\n",
                st.input, st.output
            ));
        }
        s.push_str(&format!(
            "{:<width$}  in {:>9}\n",
            "Project", self.rows_emitted
        ));
        s.push_str(&format!(
            "hash tables: {} built, {} skipped (lazy)\n",
            self.tables_built, self.tables_skipped
        ));
        if pipeline.n_runs > 0 {
            s.push_str(&format!(
                "merge runs: {} built ({} needed a sort), {} skipped (lazy)\n",
                self.runs_built, self.runs_sorted, self.runs_skipped
            ));
        }
        let n_hash = pipeline
            .ops
            .iter()
            .filter(|op| matches!(op, Operator::HashJoin { .. }))
            .count();
        let n_merge = pipeline
            .ops
            .iter()
            .filter(|op| matches!(op, Operator::MergeJoin { .. }))
            .count();
        s.push_str(&format!(
            "join algorithms: {n_hash} hash, {n_merge} merge\n"
        ));
        s.push_str(&format!(
            "batches: {} pushed ({} rows/batch), selection fill {}/{} rows ({:.0}%)\n",
            self.batches,
            pipeline.batch_size,
            self.sel_rows_live,
            self.sel_rows_total,
            self.sel_fill_rate() * 100.0
        ));
        s
    }
}

fn intern_root(roots: &mut Vec<String>, name: &str) -> usize {
    match roots.iter().position(|r| r == name) {
        Some(i) => i,
        None => {
            roots.push(name.to_string());
            roots.len() - 1
        }
    }
}

/// Resolves a path to an [`Access`] under the current variable→slot map.
fn compile_access(p: &Path, slots: &BTreeMap<String, usize>, roots: &mut Vec<String>) -> Access {
    let (base_path, fields) = p.split_fields();
    let base = match base_path {
        Path::Var(v) => match slots.get(v) {
            Some(&i) => AccessBase::Slot(i),
            None => AccessBase::UnknownVar(v.clone()),
        },
        Path::Root(r) => AccessBase::Root {
            id: intern_root(roots, r),
            name: r.clone(),
        },
        Path::Const(c) => AccessBase::Const(Value::from(c)),
        Path::Dom(q) => AccessBase::Dom(Box::new(compile_access(q, slots, roots))),
        Path::Get(m, k) => AccessBase::Get(
            Box::new(compile_access(m, slots, roots)),
            Box::new(compile_access(k, slots, roots)),
        ),
        Path::GetOrEmpty(m, k) => AccessBase::GetOrEmpty(
            Box::new(compile_access(m, slots, roots)),
            Box::new(compile_access(k, slots, roots)),
        ),
        // `split_fields` peeled every trailing projection.
        Path::Field(..) => unreachable!("split_fields returned a Field base"),
    };
    Access {
        base,
        fields: fields.into_iter().map(str::to_string).collect(),
        base_display: base_path.to_string(),
    }
}

/// Compiles a plan into a slot-resolved pipeline: bindings become
/// scans/iterations over fixed registers, each condition is placed at
/// the earliest point where all its variables hold their final binding
/// (the interpreter's placement, so results and error behavior agree),
/// ground conditions are hoisted ahead of the row loop, and (optionally)
/// root scans joined by equality to earlier registers become lazy hash
/// joins.
pub fn compile(q: &Query, options: CompileOptions) -> Pipeline {
    // The *last* binding level of each variable: conditions attach after
    // it, exactly as in `Evaluator::eval_query`.
    let mut last_level: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, b) in q.from.iter().enumerate() {
        last_level.insert(&b.var, i);
    }
    // Condition indices per level, in `where` order. Level 0 = ground.
    let mut conds_at: Vec<Vec<usize>> = vec![Vec::new(); q.from.len() + 1];
    for (ci, eq) in q.where_.iter().enumerate() {
        let level = eq
            .free_vars()
            .iter()
            .map(|v| last_level.get(v.as_str()).map_or(0, |i| i + 1))
            .max()
            .unwrap_or(0);
        conds_at[level].push(ci);
    }

    let mut slots: BTreeMap<String, usize> = BTreeMap::new();
    let mut roots: Vec<String> = Vec::new();
    let mut ops: Vec<Operator> = Vec::new();
    let mut n_tables = 0usize;
    let mut n_runs = 0usize;

    let ground: Vec<GroundFilter> = conds_at[0]
        .iter()
        .map(|&ci| {
            let eq = &q.where_[ci];
            GroundFilter {
                left: compile_access(&eq.0, &slots, &mut roots),
                right: compile_access(&eq.1, &slots, &mut roots),
            }
        })
        .collect();

    for (i, b) in q.from.iter().enumerate() {
        let slot = i;
        let mut level_conds: Vec<usize> = conds_at[i + 1].clone();

        // Join candidacy: an Iter over a root, some earlier binding to
        // probe from, and an equi-join condition at this level linking
        // this binding's rows (alone on one side) to earlier registers.
        // A candidate becomes a MergeJoin when merge joins are on and
        // both key paths have the ordered-root access shape (at most one
        // field projected off a root-scanned binding — the shape whose
        // `BTreeSet` iteration order can already sort the key), a
        // HashJoin otherwise (when hash joins are on).
        let mut join: Option<(Equality, bool)> = None;
        if (options.hash_joins || options.merge_joins)
            && i > 0
            && b.kind == BindKind::Iter
            && matches!(b.src, Path::Root(_))
            && last_level.get(b.var.as_str()) == Some(&i)
        {
            let ordered_root_shape = |p: &Path| {
                let (base, fields) = p.split_fields();
                if fields.len() > 1 {
                    return false;
                }
                match base {
                    Path::Var(v) => last_level.get(v.as_str()).is_some_and(|&lvl| {
                        let src = &q.from[lvl];
                        src.kind == BindKind::Iter && matches!(src.src, Path::Root(_))
                    }),
                    _ => false,
                }
            };
            let is_candidate = |eq: &Equality| {
                let lv = eq.0.free_vars();
                let rv = eq.1.free_vars();
                let this = |vs: &BTreeSet<String>| vs.len() == 1 && vs.contains(&b.var);
                let other = |vs: &BTreeSet<String>| !vs.contains(&b.var);
                (this(&lv) && other(&rv)) || (this(&rv) && other(&lv))
            };
            if let Some(pos) = level_conds
                .iter()
                .position(|&ci| is_candidate(&q.where_[ci]))
            {
                let eq = &q.where_[level_conds[pos]];
                let oriented = if eq.0.mentions_var(&b.var) {
                    eq.clone()
                } else {
                    Equality(eq.1.clone(), eq.0.clone())
                };
                let merge = options.merge_joins
                    && ordered_root_shape(&oriented.0)
                    && ordered_root_shape(&oriented.1);
                if merge || options.hash_joins {
                    level_conds.remove(pos);
                    join = Some((oriented, merge));
                }
            }
        }

        match join {
            Some((Equality(build, probe), merge)) => {
                let Path::Root(root) = &b.src else {
                    unreachable!("join candidacy requires a root scan")
                };
                // Probe side resolves against the *outer* registers; the
                // build side sees this binding's fresh slot.
                let probe_key = compile_access(&probe, &slots, &mut roots);
                slots.insert(b.var.clone(), slot);
                let build_key = compile_access(&build, &slots, &mut roots);
                let root_id = intern_root(&mut roots, root);
                if merge {
                    ops.push(Operator::MergeJoin {
                        row_var: b.var.clone(),
                        slot,
                        root: root.clone(),
                        root_id,
                        build_key,
                        probe_key,
                        run: n_runs,
                    });
                    n_runs += 1;
                } else {
                    ops.push(Operator::HashJoin {
                        row_var: b.var.clone(),
                        slot,
                        root: root.clone(),
                        root_id,
                        build_key,
                        probe_key,
                        table: n_tables,
                    });
                    n_tables += 1;
                }
            }
            None => {
                let op = match (&b.kind, &b.src) {
                    (BindKind::Iter, Path::Root(root)) => Operator::Scan {
                        var: b.var.clone(),
                        slot,
                        root: root.clone(),
                        root_id: intern_root(&mut roots, root),
                    },
                    (BindKind::Iter, src) => Operator::IterDependent {
                        var: b.var.clone(),
                        slot,
                        src: compile_access(src, &slots, &mut roots),
                    },
                    (BindKind::Let, src) => Operator::Bind {
                        var: b.var.clone(),
                        slot,
                        src: compile_access(src, &slots, &mut roots),
                    },
                };
                slots.insert(b.var.clone(), slot);
                ops.push(op);
            }
        }

        for &ci in &level_conds {
            let eq = &q.where_[ci];
            ops.push(Operator::Filter {
                left: compile_access(&eq.0, &slots, &mut roots),
                right: compile_access(&eq.1, &slots, &mut roots),
            });
        }
    }

    let output = match &q.output {
        Output::Struct(fields) => CompiledOutput::Struct(
            fields
                .iter()
                .map(|(name, p)| (name.clone(), compile_access(p, &slots, &mut roots)))
                .collect(),
        ),
        Output::Path(p) => CompiledOutput::Path(compile_access(p, &slots, &mut roots)),
    };

    Pipeline {
        ground,
        ops,
        output,
        n_slots: q.from.len(),
        n_tables,
        n_runs,
        roots,
        batch_size: options.batch_size.max(1),
    }
}

/// A lazily built hash-join table: borrowed keys over borrowed rows.
type JoinTable<'a> = BTreeMap<CowValue<'a>, Vec<&'a Value>>;

/// A lazily materialized merge-join run: the inner root's rows paired
/// with their join keys, sorted by key (stably, so rows with equal keys
/// keep their `BTreeSet` order — the hash join's emission order).
type MergeRun<'a> = Vec<(CowValue<'a>, &'a Value)>;

/// A read-only view of a register file: one row of a [`Batch`], or the
/// scratch files join builds and the fused scan+filter evaluate against.
/// Accessor evaluation is generic over this, so every caller runs the
/// exact same accessor code.
trait Regs<'a> {
    fn reg(&self, slot: usize) -> &CowValue<'a>;
}

/// One row of a batch, viewed as a register file.
struct BatchRow<'b, 'a> {
    batch: &'b Batch<'a>,
    row: usize,
}

impl<'a> Regs<'a> for BatchRow<'_, 'a> {
    fn reg(&self, slot: usize) -> &CowValue<'a> {
        self.batch.reg(slot, self.row)
    }
}

/// The single-slot scratch register file join builds evaluate their
/// build key against: build keys read only the join's own slot (the
/// compiler guarantees it, cb-analyze verifies it), so no build needs a
/// full register file to materialize a table or run.
struct OneSlot<'a> {
    slot: usize,
    val: CowValue<'a>,
}

impl<'a> Regs<'a> for OneSlot<'a> {
    fn reg(&self, slot: usize) -> &CowValue<'a> {
        debug_assert_eq!(slot, self.slot, "build key read an outer register");
        &self.val
    }
}

/// A batch row with one register overlaid by a not-yet-materialized
/// value — how the fused scan+filter evaluates filter sides against a
/// scanned item without writing it into a batch first.
struct SlotOverlay<'r, 'a> {
    batch: &'r Batch<'a>,
    row: usize,
    slot: usize,
    val: CowValue<'a>,
}

impl<'a> Regs<'a> for SlotOverlay<'_, 'a> {
    fn reg(&self, slot: usize) -> &CowValue<'a> {
        if slot == self.slot {
            &self.val
        } else {
            self.batch.reg(slot, self.row)
        }
    }
}

/// Failpoint: the executor is about to push a batch at an operator. An
/// injected transient error surfaces as a typed [`EvalError::Injected`]
/// (reported — the caller sees exactly what fired); a memory-pressure
/// signal is meaningless to the stateless executor and recovers by
/// proceeding. Disarmed cost: one relaxed atomic load.
fn op_failpoint() -> Result<(), EvalError> {
    match cb_chase::faults::hit("exec::op") {
        Ok(()) => Ok(()),
        Err(f) if f.kind == cb_chase::faults::FaultKind::Error => {
            cb_chase::faults::note_reported();
            Err(EvalError::Injected(f.site.to_string()))
        }
        Err(_) => {
            cb_chase::faults::note_recovered();
            Ok(())
        }
    }
}

/// The executor: lazily resolved roots, lazily built join tables and
/// merge runs, counters and the result accumulator, driven push-based.
/// Each operator consumes a whole batch and pushes its output at the
/// next operator, recursing once per *batch* per operator — never per
/// row. Errors keep the interpreter's depth-first row order by
/// truncation: an error at live row `i` kills rows ≥ `i`, the surviving
/// prefix is flushed downstream (a downstream error belongs to an
/// earlier row and wins), and the pending error surfaces only if the
/// flush returns cleanly. At batch size 1 every batch holds one row, so
/// the same code walks the rows strictly depth-first.
struct Exec<'a, 'p> {
    ev: &'p Evaluator<'a>,
    pipeline: &'p Pipeline,
    /// Interned roots resolved once per execution (`None` = absent root;
    /// the error only surfaces if an operator actually reads it).
    root_vals: Vec<Option<&'a Value>>,
    tables: Vec<Option<JoinTable<'a>>>,
    runs: Vec<Option<MergeRun<'a>>>,
    stats: PipelineStats,
    out: BTreeSet<Value>,
    /// Rows per batch (≥ 1).
    cap: usize,
}

impl<'a> Exec<'a, '_> {
    fn root(&self, id: usize, name: &str) -> Result<&'a Value, EvalError> {
        self.root_vals[id].ok_or_else(|| EvalError::UnknownRoot(name.to_string()))
    }

    /// Resolves an accessor to a value owned by the *instance* when it
    /// never passes through a computed (owned) register: the compiled
    /// mirror of the interpreter's `instance_value`. `None` both when
    /// the value is not instance-anchored and when resolution would
    /// fail — the caller falls back to [`Self::eval_access`], which
    /// computes the value or produces the canonical error.
    fn anchored<R: Regs<'a>>(&self, regs: &R, a: &Access) -> Option<&'a Value> {
        let mut cur: &'a Value = match &a.base {
            AccessBase::Slot(i) => match regs.reg(*i) {
                Cow::Borrowed(v) => v,
                Cow::Owned(_) => return None,
            },
            AccessBase::Root { id, .. } => self.root_vals[*id]?,
            AccessBase::Const(_) | AccessBase::Dom(_) | AccessBase::UnknownVar(_) => return None,
            AccessBase::Get(m, k) | AccessBase::GetOrEmpty(m, k) => {
                // Resolve the dictionary first: if it is not anchored,
                // the key must not be evaluated here (the fallback would
                // evaluate it a second time).
                let map = self.anchored(regs, m)?.as_dict()?;
                let key = self.eval_access(regs, k).ok()?;
                map.get(key.as_ref())?
            }
        };
        for name in &a.fields {
            cur = match cur {
                Value::Struct(fields) => fields.get(name)?,
                oid @ Value::Oid(..) => self.ev.oid_field(oid, name).ok()?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Anchored-or-owned evaluation: a borrow with the full instance
    /// lifetime when the accessor is instance-anchored, an owned value
    /// (or the canonical error) otherwise. This is what binds registers
    /// and join keys.
    fn eval_detached<R: Regs<'a>>(&self, regs: &R, a: &Access) -> Result<CowValue<'a>, EvalError> {
        match self.anchored(regs, a) {
            Some(v) => Ok(Cow::Borrowed(v)),
            None => Ok(Cow::Owned(self.eval_access(regs, a)?.into_owned())),
        }
    }

    /// Reference-preserving accessor evaluation — the compiled mirror of
    /// the interpreter's `eval_ref`, producing identical values and
    /// identical errors.
    fn eval_access<'r, R: Regs<'a>>(
        &'r self,
        regs: &'r R,
        a: &'r Access,
    ) -> Result<Cow<'r, Value>, EvalError> {
        let mut cur = self.eval_base(regs, a)?;
        for (idx, name) in a.fields.iter().enumerate() {
            cur = match cur {
                Cow::Borrowed(Value::Struct(fields)) => fields
                    .get(name)
                    .map(Cow::Borrowed)
                    .ok_or_else(|| EvalError::NoSuchField {
                        value: a.prefix_display(idx),
                        field: name.clone(),
                    })?,
                Cow::Owned(Value::Struct(mut fields)) => fields
                    .remove(name)
                    .map(Cow::Owned)
                    .ok_or_else(|| EvalError::NoSuchField {
                        value: a.prefix_display(idx),
                        field: name.clone(),
                    })?,
                // ODMG implicit dereferencing (or NoSuchField).
                base => self.ev.oid_field(base.as_ref(), name).map(Cow::Borrowed)?,
            };
        }
        Ok(cur)
    }

    fn eval_base<'r, R: Regs<'a>>(
        &'r self,
        regs: &'r R,
        a: &'r Access,
    ) -> Result<Cow<'r, Value>, EvalError> {
        match &a.base {
            AccessBase::Slot(i) => Ok(Cow::Borrowed(regs.reg(*i).as_ref())),
            AccessBase::UnknownVar(v) => Err(EvalError::UnknownVar(v.clone())),
            AccessBase::Root { id, name } => self.root(*id, name).map(Cow::Borrowed),
            AccessBase::Const(v) => Ok(Cow::Borrowed(v)),
            // The dom/lookup cores are shared with the interpreter's
            // `eval_ref` (eval.rs), so results and error text cannot
            // drift apart between the two engines.
            AccessBase::Dom(inner) => {
                let base = self.eval_access(regs, inner)?;
                crate::eval::dict_dom(base.as_ref(), || inner.to_string()).map(Cow::Owned)
            }
            AccessBase::Get(m, k) => {
                let key = self.eval_access(regs, k)?.into_owned();
                let dict = self.eval_access(regs, m)?;
                crate::eval::dict_get(dict, &key, || m.to_string())
            }
            AccessBase::GetOrEmpty(m, k) => {
                let key = self.eval_access(regs, k)?.into_owned();
                let dict = self.eval_access(regs, m)?;
                crate::eval::dict_get_or_empty(dict, &key, || m.to_string())
            }
        }
    }

    /// Builds the hash table of the `HashJoin` at `op_idx` if this is
    /// its first probe. One pass over the root: rows bind by reference
    /// into a single-slot scratch register, keys stay borrowed whenever
    /// the key path is instance-anchored.
    fn ensure_table(&mut self, op_idx: usize) -> Result<(), EvalError> {
        let pipeline = self.pipeline;
        let Operator::HashJoin {
            slot,
            root,
            root_id,
            build_key,
            table,
            ..
        } = &pipeline.ops[op_idx]
        else {
            unreachable!("ensure_table on a non-join operator")
        };
        if self.tables[*table].is_some() {
            return Ok(());
        }
        let set = self.root(*root_id, root)?;
        let rows = set
            .as_set()
            .ok_or_else(|| EvalError::NotASet(format!("{root} = {set}")))?;
        let mut t: JoinTable<'a> = BTreeMap::new();
        let mut scratch = OneSlot {
            slot: *slot,
            val: Cow::Owned(Value::Bool(false)),
        };
        for row in rows {
            scratch.val = Cow::Borrowed(row);
            let key = self.eval_detached(&scratch, build_key)?;
            t.entry(key).or_default().push(row);
        }
        self.stats.tables_built += 1;
        self.tables[*table] = Some(t);
        Ok(())
    }

    /// Materializes the merge run of the `MergeJoin` at `op_idx` if this
    /// is its first probe: one pass over the root evaluating the build
    /// key per row, detecting en route whether the keys already arrive
    /// non-decreasing from the `BTreeSet` — only when they do not is a
    /// (stable) sort paid.
    fn ensure_run(&mut self, op_idx: usize) -> Result<(), EvalError> {
        let pipeline = self.pipeline;
        let Operator::MergeJoin {
            slot,
            root,
            root_id,
            build_key,
            run,
            ..
        } = &pipeline.ops[op_idx]
        else {
            unreachable!("ensure_run on a non-merge operator")
        };
        if self.runs[*run].is_some() {
            return Ok(());
        }
        let set = self.root(*root_id, root)?;
        let rows = set
            .as_set()
            .ok_or_else(|| EvalError::NotASet(format!("{root} = {set}")))?;
        let mut entries: MergeRun<'a> = Vec::with_capacity(rows.len());
        let mut sorted = true;
        let mut scratch = OneSlot {
            slot: *slot,
            val: Cow::Owned(Value::Bool(false)),
        };
        for row in rows {
            scratch.val = Cow::Borrowed(row);
            let key = self.eval_detached(&scratch, build_key)?;
            if let Some((prev, _)) = entries.last() {
                sorted &= prev.as_ref() <= key.as_ref();
            }
            entries.push((key, row));
        }
        if !sorted {
            entries.sort_by(|x, y| x.0.cmp(&y.0));
            self.stats.runs_sorted += 1;
        }
        self.stats.runs_built += 1;
        self.runs[*run] = Some(entries);
        Ok(())
    }

    /// Runs the hoisted ground filters once, against the seed batch's
    /// all-unbound row; `Ok(true)` means one was false and the pipeline
    /// short-circuits to the empty result.
    fn ground_short_circuits(&mut self, seed: &Batch<'a>) -> Result<bool, EvalError> {
        let regs = BatchRow {
            batch: seed,
            row: 0,
        };
        let pipeline = self.pipeline;
        for g in &pipeline.ground {
            self.stats.ground_filters += 1;
            if self.eval_access(&regs, &g.left)? != self.eval_access(&regs, &g.right)? {
                self.stats.short_circuited = true;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Final lazy-build accounting, then the result and its counters.
    fn finish(mut self) -> (BTreeSet<Value>, PipelineStats) {
        self.stats.tables_skipped = self.pipeline.n_tables as u64 - self.stats.tables_built;
        self.stats.runs_skipped = self.pipeline.n_runs as u64 - self.stats.runs_built;
        (self.out, self.stats)
    }

    /// Runs operator `op_idx` (the final projection past the last one)
    /// over `batch`.
    fn push(&mut self, op_idx: usize, batch: &mut Batch<'a>) -> Result<(), EvalError> {
        // An all-dead (or empty) batch carries no rows: no operator may
        // observe it — exactly like the interpreter never reaching a
        // binding no row reaches.
        if batch.live() == 0 {
            return Ok(());
        }
        op_failpoint()?;
        self.stats.batches += 1;
        self.stats.sel_rows_live += batch.live() as u64;
        self.stats.sel_rows_total += batch.rows() as u64;
        let pipeline = self.pipeline;
        if op_idx == pipeline.ops.len() {
            return self.project(batch);
        }
        self.stats.per_op[op_idx].input += batch.live() as u64;
        match &pipeline.ops[op_idx] {
            Operator::Scan {
                slot,
                root,
                root_id,
                ..
            } => {
                let set = self.root(*root_id, root)?;
                let items = set
                    .as_set()
                    .ok_or_else(|| EvalError::NotASet(format!("{root} = {set}")))?;
                // A filter directly after the scan is applied while
                // filling: rows it rejects are never materialized at all.
                if let Some(Operator::Filter { left, right }) = pipeline.ops.get(op_idx + 1) {
                    return self.scan_filter(op_idx, batch, *slot, items, left, right);
                }
                self.fan_out(op_idx, batch, *slot, |_, _| {
                    Ok(items.iter().map(Cow::Borrowed))
                })
            }
            Operator::IterDependent { slot, src, .. } => {
                self.fan_out(op_idx, batch, *slot, |x, row| {
                    // Items of an instance-owned collection outlive the
                    // batch, so they bind by reference — zero clones per
                    // row. A derived collection (a dom set, a collection
                    // reached through an owned register) is iterated
                    // owned, its items cloned exactly like the
                    // interpreter clones them.
                    let anchored = x.anchored(&row, src).and_then(Value::as_set);
                    let derived = match anchored {
                        Some(_) => None,
                        None => match x.eval_access(&row, src)? {
                            Cow::Owned(Value::Set(items)) => Some(items),
                            Cow::Borrowed(Value::Set(items)) => Some(items.clone()),
                            other => {
                                return Err(EvalError::NotASet(format!(
                                    "{src} = {}",
                                    other.as_ref()
                                )))
                            }
                        },
                    };
                    Ok(anchored
                        .into_iter()
                        .flatten()
                        .map(Cow::Borrowed)
                        .chain(derived.into_iter().flatten().map(Cow::Owned)))
                })
            }
            Operator::Bind { slot, src, .. } => {
                batch.bind_col(*slot);
                self.sift(op_idx, batch, |x, batch, row| {
                    let v = x.eval_detached(&BatchRow { batch, row }, src)?;
                    batch.set(*slot, row, v);
                    Ok(true)
                })
            }
            Operator::Filter { left, right } => self.sift(op_idx, batch, |x, batch, row| {
                let regs = BatchRow { batch, row };
                Ok(x.eval_access(&regs, left)? == x.eval_access(&regs, right)?)
            }),
            Operator::HashJoin {
                slot,
                probe_key,
                table,
                ..
            } => {
                // Build (or reuse) the table first: when the joined root
                // is empty the interpreter's inner loop never evaluates
                // the join condition, so the probe key must not be
                // evaluated against an empty table either.
                self.ensure_table(op_idx)?;
                // Move the table out while pushing downstream; each join
                // owns a distinct table index, so no downstream operator
                // can observe the gap.
                let t = self.tables[*table].take().expect("table built");
                let pushed = if t.is_empty() {
                    Ok(())
                } else {
                    self.fan_out(op_idx, batch, *slot, |x, row| {
                        let key = x.eval_detached(&row, probe_key)?;
                        let matches = t.get(key.as_ref()).map_or(&[][..], Vec::as_slice);
                        Ok(matches.iter().map(|&m| Cow::Borrowed(m)))
                    })
                };
                self.tables[*table] = Some(t);
                pushed
            }
            Operator::MergeJoin {
                slot,
                probe_key,
                run,
                ..
            } => {
                // Same lazy discipline as the hash join: an empty run
                // never evaluates the probe key.
                self.ensure_run(op_idx)?;
                let r = self.runs[*run].take().expect("run built");
                let pushed = if r.is_empty() {
                    Ok(())
                } else {
                    self.fan_out(op_idx, batch, *slot, |x, row| {
                        let key = x.eval_detached(&row, probe_key)?;
                        let lo = r.partition_point(|(k, _)| k.as_ref() < key.as_ref());
                        let len = r[lo..]
                            .iter()
                            .take_while(|(k, _)| k.as_ref() == key.as_ref())
                            .count();
                        Ok(r[lo..lo + len].iter().map(|&(_, m)| Cow::Borrowed(m)))
                    })
                };
                self.runs[*run] = Some(r);
                pushed
            }
        }
    }

    /// The fan-out kernel of `Scan`, `IterDependent`, `HashJoin` and
    /// `MergeJoin`: `matches` yields the values one live row binds into
    /// `slot`, each becomes an output row (the row's registers
    /// replicated), and full batches are pushed downstream as they fill.
    /// The first row whose `matches` fails ends the loop: the rows before
    /// it are flushed, and its error surfaces only if the flush returns
    /// cleanly. The iterator borrows neither the executor nor the batch,
    /// so the kernel itself allocates nothing per row.
    fn fan_out<I>(
        &mut self,
        op_idx: usize,
        batch: &Batch<'a>,
        slot: usize,
        mut matches: impl FnMut(&Self, BatchRow<'_, 'a>) -> Result<I, EvalError>,
    ) -> Result<(), EvalError>
    where
        I: Iterator<Item = CowValue<'a>>,
    {
        let mut out = Batch::expanded_from(batch, slot);
        let mut pending = Ok(());
        for row in 0..batch.rows() {
            if !batch.is_live(row) {
                continue;
            }
            let items = match matches(self, BatchRow { batch, row }) {
                Ok(items) => items,
                Err(e) => {
                    pending = Err(e);
                    break;
                }
            };
            for item in items {
                out.push_row(batch, row, slot, item);
                self.stats.per_op[op_idx].output += 1;
                if out.rows() == self.cap {
                    self.push(op_idx + 1, &mut out)?;
                    out.clear_rows();
                }
            }
        }
        self.push(op_idx + 1, &mut out)?;
        pending
    }

    /// The in-place kernel of `Bind` and `Filter`: `keep` decides each
    /// live row (writing its register on the way, for a `Bind`), and a
    /// rejected row is marked dead instead of compacted, so upstream
    /// columns never shift. The first row whose `keep` fails dies with
    /// every later row; the survivors are pushed, and the error surfaces
    /// only if the push returns cleanly.
    fn sift(
        &mut self,
        op_idx: usize,
        batch: &mut Batch<'a>,
        mut keep: impl FnMut(&Self, &mut Batch<'a>, usize) -> Result<bool, EvalError>,
    ) -> Result<(), EvalError> {
        let mut pending = Ok(());
        for row in 0..batch.rows() {
            if !batch.is_live(row) {
                continue;
            }
            if pending.is_err() {
                batch.kill(row);
                continue;
            }
            match keep(self, batch, row) {
                Ok(true) => self.stats.per_op[op_idx].output += 1,
                Ok(false) => batch.kill(row),
                Err(e) => {
                    pending = Err(e);
                    batch.kill(row);
                }
            }
        }
        self.push(op_idx + 1, batch)?;
        pending
    }

    /// The fused scan+filter kernel: scans `items` into register `slot`
    /// with the following filter applied in place, so rejected rows
    /// never touch a batch. Filter sides that do not read the scanned
    /// register are row-constants, evaluated once per input row (at the
    /// first item, in the interpreter's left-then-right order, so the
    /// first error is the same error); a side that is a single field off
    /// the scanned item skips the generic evaluator entirely. The
    /// filter's rows are accounted as if they rode full batches, which
    /// is exactly what the unfused pipeline would push.
    fn scan_filter(
        &mut self,
        op_idx: usize,
        batch: &Batch<'a>,
        slot: usize,
        items: &'a BTreeSet<Value>,
        left: &Access,
        right: &Access,
    ) -> Result<(), EvalError> {
        let left_varies = left.reads_slot(slot);
        let right_varies = right.reads_slot(slot);
        let lf =
            (left.slot() == Some(slot) && left.fields.len() == 1).then(|| left.fields[0].as_str());
        let rf = (right.slot() == Some(slot) && right.fields.len() == 1)
            .then(|| right.fields[0].as_str());
        let mut out = Batch::expanded_from(batch, slot);
        let mut pending = None;
        let mut down = Ok(());
        let mut scanned = 0u64;
        let mut passed = 0u64;
        'rows: for row in 0..batch.rows() {
            if !batch.is_live(row) {
                continue;
            }
            let mut inv_left: Option<CowValue<'a>> = None;
            let mut inv_right: Option<CowValue<'a>> = None;
            for item in items {
                scanned += 1;
                let verdict: Result<bool, EvalError> = (|| {
                    if !left_varies && inv_left.is_none() {
                        inv_left = Some(self.eval_detached(&BatchRow { batch, row }, left)?);
                    }
                    let l: Cow<'_, Value> = match &inv_left {
                        Some(v) => Cow::Borrowed(v.as_ref()),
                        None => match (lf, item) {
                            (Some(f), Value::Struct(m)) => {
                                Cow::Borrowed(m.get(f).ok_or_else(|| EvalError::NoSuchField {
                                    value: left.prefix_display(0),
                                    field: f.to_string(),
                                })?)
                            }
                            _ => {
                                let rv = SlotOverlay {
                                    batch,
                                    row,
                                    slot,
                                    val: Cow::Borrowed(item),
                                };
                                Cow::Owned(self.eval_access(&rv, left)?.into_owned())
                            }
                        },
                    };
                    if !right_varies && inv_right.is_none() {
                        inv_right = Some(self.eval_detached(&BatchRow { batch, row }, right)?);
                    }
                    let r: Cow<'_, Value> = match &inv_right {
                        Some(v) => Cow::Borrowed(v.as_ref()),
                        None => match (rf, item) {
                            (Some(f), Value::Struct(m)) => {
                                Cow::Borrowed(m.get(f).ok_or_else(|| EvalError::NoSuchField {
                                    value: right.prefix_display(0),
                                    field: f.to_string(),
                                })?)
                            }
                            _ => {
                                let rv = SlotOverlay {
                                    batch,
                                    row,
                                    slot,
                                    val: Cow::Borrowed(item),
                                };
                                Cow::Owned(self.eval_access(&rv, right)?.into_owned())
                            }
                        },
                    };
                    Ok(l.as_ref() == r.as_ref())
                })();
                match verdict {
                    Ok(true) => {
                        passed += 1;
                        out.push_row(batch, row, slot, Cow::Borrowed(item));
                        if out.rows() == self.cap {
                            down = self.push(op_idx + 2, &mut out);
                            if down.is_err() {
                                break 'rows;
                            }
                            out.clear_rows();
                        }
                    }
                    Ok(false) => {}
                    Err(e) => {
                        pending = Some(e);
                        break 'rows;
                    }
                }
            }
        }
        self.stats.per_op[op_idx].output += scanned;
        self.stats.per_op[op_idx + 1].input += scanned;
        self.stats.per_op[op_idx + 1].output += passed;
        self.stats.batches += scanned.div_ceil(self.cap as u64);
        self.stats.sel_rows_live += scanned;
        self.stats.sel_rows_total += scanned;
        if down.is_ok() {
            down = self.push(op_idx + 2, &mut out);
        }
        down?;
        if let Some(e) = pending {
            return Err(e);
        }
        Ok(())
    }

    /// Drains a batch's surviving rows through the final projection.
    fn project(&mut self, batch: &Batch<'a>) -> Result<(), EvalError> {
        let pipeline = self.pipeline;
        for row in (0..batch.rows()).filter(|&row| batch.is_live(row)) {
            let regs = BatchRow { batch, row };
            let value = match &pipeline.output {
                CompiledOutput::Struct(fields) => {
                    let mut m = BTreeMap::new();
                    for (name, a) in fields {
                        m.insert(name.clone(), self.eval_access(&regs, a)?.into_owned());
                    }
                    Value::Struct(m)
                }
                CompiledOutput::Path(a) => self.eval_access(&regs, a)?.into_owned(),
            };
            self.stats.rows_emitted += 1;
            self.out.insert(value);
        }
        Ok(())
    }
}

/// Executes a pipeline against the evaluator's instance.
pub fn execute(ev: &Evaluator<'_>, pipeline: &Pipeline) -> Result<BTreeSet<Value>, EvalError> {
    execute_with_stats(ev, pipeline).map(|(rows, _)| rows)
}

/// Executes a pipeline and reports per-operator row and batch counters
/// alongside the result.
pub fn execute_with_stats(
    ev: &Evaluator<'_>,
    pipeline: &Pipeline,
) -> Result<(BTreeSet<Value>, PipelineStats), EvalError> {
    let instance = ev.instance();
    let mut x = Exec {
        ev,
        pipeline,
        root_vals: pipeline.roots.iter().map(|r| instance.get(r)).collect(),
        tables: (0..pipeline.n_tables).map(|_| None).collect(),
        runs: (0..pipeline.n_runs).map(|_| None).collect(),
        stats: PipelineStats::for_pipeline(pipeline),
        out: BTreeSet::new(),
        cap: pipeline.batch_size.max(1),
    };
    // The seed batch: one live row, every register unbound. The hoisted
    // ground filters read it once, before any row is touched.
    let mut seed = Batch::seed(pipeline.n_slots);
    if !x.ground_short_circuits(&seed)? {
        x.push(0, &mut seed)?;
    }
    Ok(x.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use pcql::parser::parse_query;
    use pcql::Binding;

    fn rs_instance(n: i64) -> Instance {
        let mut i = Instance::new();
        i.set(
            "R",
            Value::set(
                (0..n).map(|k| Value::record([("A", Value::Int(k)), ("B", Value::Int(k % 5))])),
            ),
        );
        i.set(
            "S",
            Value::set(
                (0..n).map(|k| Value::record([("B", Value::Int(k % 7)), ("C", Value::Int(k))])),
            ),
        );
        i
    }

    #[test]
    fn pipeline_matches_interpreter() {
        let inst = rs_instance(40);
        let ev = Evaluator::new(&inst);
        for src in [
            "select struct(A = r.A) from R r where r.B = 2",
            "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B",
            "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B and s.C = 3",
        ] {
            let q = parse_query(src).unwrap();
            let reference = ev.eval_query(&q).unwrap();
            for options in [
                CompileOptions {
                    hash_joins: false,
                    ..Default::default()
                },
                CompileOptions {
                    hash_joins: true,
                    ..Default::default()
                },
            ] {
                let pipeline = compile(&q, options);
                let rows = execute(&ev, &pipeline).unwrap();
                assert_eq!(rows, reference, "{src} with {options:?}");
            }
        }
    }

    #[test]
    fn injected_op_faults_surface_as_typed_errors() {
        use cb_chase::faults;
        let inst = rs_instance(8);
        let ev = Evaluator::new(&inst);
        let q = parse_query("select struct(A = r.A) from R r where r.B = 2").unwrap();
        let pipeline = compile(&q, CompileOptions::default());
        let single = compile(
            &q,
            CompileOptions {
                batch_size: 1,
                ..Default::default()
            },
        );
        {
            let _guard = faults::ScopedFaults::install("exec::op=err").unwrap();
            let err = execute(&ev, &pipeline).unwrap_err();
            assert_eq!(err, EvalError::Injected("exec::op".to_string()));
            assert!(err.to_string().contains("injected fault at exec::op"));
            let err = execute(&ev, &single).unwrap_err();
            assert_eq!(err, EvalError::Injected("exec::op".to_string()));
            let fs = faults::stats();
            assert_eq!(fs.injected, 2);
            assert_eq!(fs.reported, 2, "surfaced errors are reported, {fs:?}");
        }
        // Disarmed again: both batch sizes run clean.
        let reference = ev.eval_query(&q).unwrap();
        assert_eq!(execute(&ev, &pipeline).unwrap(), reference);
        assert_eq!(execute(&ev, &single).unwrap(), reference);
    }

    #[test]
    fn hash_join_operator_is_used() {
        let inst = rs_instance(20);
        let ev = Evaluator::new(&inst);
        let q =
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap();
        let nl = compile(
            &q,
            CompileOptions {
                hash_joins: false,
                ..Default::default()
            },
        );
        assert!(nl
            .ops
            .iter()
            .all(|op| !matches!(op, Operator::HashJoin { .. })));
        let hj = compile(
            &q,
            CompileOptions {
                hash_joins: true,
                ..Default::default()
            },
        );
        assert!(
            hj.ops
                .iter()
                .any(|op| matches!(op, Operator::HashJoin { .. })),
            "pipeline: {hj}"
        );
        // The first binding can't be hash-joined (nothing bound yet).
        assert!(matches!(hj.ops[0], Operator::Scan { .. }));
        // Both pipelines return the interpreter's rows.
        let reference = ev.eval_query(&q).unwrap();
        assert_eq!(execute(&ev, &nl).unwrap(), reference, "pipeline: {nl}");
        assert_eq!(execute(&ev, &hj).unwrap(), reference, "pipeline: {hj}");
    }

    #[test]
    fn filters_are_placed_earliest() {
        let q = parse_query(
            "select struct(A = r.A, C = s.C) from R r, S s where r.B = 2 and s.C = r.A",
        )
        .unwrap();
        let p = compile(&q, CompileOptions::default());
        // r.B = 2 must come before the S scan.
        let filter_pos = p
            .ops
            .iter()
            .position(|op| matches!(op, Operator::Filter { left, .. } if left.to_string() == "r.B"))
            .unwrap();
        let s_pos = p
            .ops
            .iter()
            .position(|op| matches!(op, Operator::Scan { root, .. } if root == "S"))
            .unwrap();
        assert!(filter_pos < s_pos, "pipeline: {p}");
    }

    #[test]
    fn ground_filters_are_hoisted_and_short_circuit() {
        let inst = rs_instance(20);
        let ev = Evaluator::new(&inst);
        // `1 = 2` is ground: it must run once, before the scan, and
        // short-circuit the whole pipeline.
        let q = parse_query("select struct(A = r.A) from R r where 1 = 2").unwrap();
        let p = compile(&q, CompileOptions::default());
        assert_eq!(p.ground.len(), 1, "pipeline: {p}");
        assert!(p
            .ops
            .iter()
            .all(|op| !matches!(op, Operator::Filter { .. })));
        let (rows, stats) = execute_with_stats(&ev, &p).unwrap();
        assert!(rows.is_empty());
        assert!(stats.short_circuited);
        assert_eq!(stats.per_op[0].input, 0, "scan ran despite ground false");
        assert_eq!(ev.eval_query(&q).unwrap(), rows);

        // A true ground filter evaluates once and lets the rows through.
        let q = parse_query("select struct(A = r.A) from R r where 2 = 2").unwrap();
        let p = compile(&q, CompileOptions::default());
        let (rows, stats) = execute_with_stats(&ev, &p).unwrap();
        assert_eq!(rows, ev.eval_query(&q).unwrap());
        assert_eq!(stats.ground_filters, 1);
        assert!(!stats.short_circuited);
    }

    #[test]
    fn hash_tables_build_lazily() {
        let mut inst = rs_instance(10);
        inst.set("Empty", Value::Set(BTreeSet::new()));
        let ev = Evaluator::new(&inst);
        // The outer stream is empty: the join table must never be built.
        let q = Query::new(
            Output::record([("C", Path::var("s").field("C"))]),
            vec![
                Binding::iter("e", Path::root("Empty")),
                Binding::iter("s", Path::root("S")),
            ],
            vec![Equality(
                Path::var("e").field("B"),
                Path::var("s").field("B"),
            )],
        );
        let p = compile(
            &q,
            CompileOptions {
                hash_joins: true,
                ..Default::default()
            },
        );
        assert_eq!(p.n_tables, 1, "pipeline: {p}");
        let (rows, stats) = execute_with_stats(&ev, &p).unwrap();
        assert!(rows.is_empty());
        assert_eq!(stats.tables_built, 0);
        assert_eq!(stats.tables_skipped, 1);

        // With a non-empty outer stream the same pipeline builds once.
        let q2 =
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap();
        let p2 = compile(
            &q2,
            CompileOptions {
                hash_joins: true,
                ..Default::default()
            },
        );
        let (rows2, stats2) = execute_with_stats(&ev, &p2).unwrap();
        assert_eq!(rows2, ev.eval_query(&q2).unwrap());
        assert_eq!(stats2.tables_built, 1);
        assert_eq!(stats2.tables_skipped, 0);
    }

    #[test]
    fn probe_key_errors_do_not_surface_when_join_is_empty() {
        // S is empty, so the interpreter's inner loop never evaluates
        // the join condition — the bad probe path r.MISSING must not
        // error in the pipeline either.
        let mut inst = Instance::new();
        inst.set("R", Value::set([Value::record([("A", Value::Int(1))])]));
        inst.set("S", Value::Set(BTreeSet::new()));
        let ev = Evaluator::new(&inst);
        let q = parse_query("select struct(X = r.A) from R r, S s where r.MISSING = s.B").unwrap();
        assert_eq!(ev.eval_query(&q), Ok(BTreeSet::new()));
        for options in [
            CompileOptions {
                hash_joins: false,
                ..Default::default()
            },
            CompileOptions {
                hash_joins: true,
                ..Default::default()
            },
        ] {
            let p = compile(&q, options);
            assert_eq!(execute(&ev, &p), Ok(BTreeSet::new()), "pipeline: {p}");
        }
    }

    #[test]
    fn not_a_set_error_matches_the_interpreter() {
        // Scanning a dictionary root must report the interpreter's
        // `NotASet("<root> = <value>")`, not a bare root name.
        let mut inst = Instance::new();
        inst.set("D", Value::dict([(Value::Int(1), Value::Int(2))]));
        let ev = Evaluator::new(&inst);
        let q = parse_query("select struct(X = d.A) from D d").unwrap();
        let want = ev.eval_query(&q).unwrap_err();
        let p = compile(&q, CompileOptions::default());
        assert_eq!(execute(&ev, &p).unwrap_err(), want);
    }

    #[test]
    fn slot_layout_gives_every_binding_its_own_register() {
        let q =
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap();
        let p = compile(&q, CompileOptions::default());
        assert_eq!(p.n_slots, 2);
        let slots: Vec<usize> = p
            .ops
            .iter()
            .filter_map(|op| match op {
                Operator::Scan { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(slots, vec![0, 1]);
        // The filter reads both registers.
        let Some(Operator::Filter { left, right }) = p
            .ops
            .iter()
            .find(|op| matches!(op, Operator::Filter { .. }))
        else {
            panic!("no filter in {p}")
        };
        assert_eq!(left.slot(), Some(0));
        assert_eq!(right.slot(), Some(1));
    }

    #[test]
    fn shadowed_variable_names_get_fresh_slots() {
        // `from R x, S x`: the inner binding shadows the outer; the
        // output must read the *inner* register, as the interpreter does.
        let inst = rs_instance(12);
        let ev = Evaluator::new(&inst);
        let q = Query::new(
            Output::record([("C", Path::var("x").field("C"))]),
            vec![
                Binding::iter("x", Path::root("R")),
                Binding::iter("x", Path::root("S")),
            ],
            vec![],
        );
        let p = compile(&q, CompileOptions::default());
        assert_eq!(p.n_slots, 2);
        let CompiledOutput::Struct(fields) = &p.output else {
            panic!("struct output expected")
        };
        assert_eq!(fields[0].1.slot(), Some(1), "output must read the inner x");
        assert_eq!(execute(&ev, &p).unwrap(), ev.eval_query(&q).unwrap());
    }

    #[test]
    fn conditions_on_shadowed_names_follow_the_last_binding() {
        let inst = rs_instance(12);
        let ev = Evaluator::new(&inst);
        // `x.B = 1` mentions the re-bound x: like the interpreter, it
        // must be placed after the *last* binding of x and read slot 1.
        let q = Query::new(
            Output::record([("C", Path::var("x").field("C"))]),
            vec![
                Binding::iter("x", Path::root("R")),
                Binding::iter("x", Path::root("S")),
            ],
            vec![Equality(Path::var("x").field("B"), Path::int(1))],
        );
        for options in [
            CompileOptions {
                hash_joins: false,
                ..Default::default()
            },
            CompileOptions {
                hash_joins: true,
                ..Default::default()
            },
        ] {
            let p = compile(&q, options);
            if let Some(Operator::Filter { left, .. }) = p
                .ops
                .iter()
                .find(|op| matches!(op, Operator::Filter { .. }))
            {
                assert_eq!(left.slot(), Some(1), "filter reads the outer x: {p}");
            }
            assert_eq!(
                execute(&ev, &p).unwrap(),
                ev.eval_query(&q).unwrap(),
                "pipeline: {p}"
            );
        }
    }

    #[test]
    fn dependent_iterations_and_lookups() {
        let mut inst = Instance::new();
        inst.set(
            "SI",
            Value::dict([(
                Value::Int(1),
                Value::set([Value::record([("C", Value::Int(10))])]),
            )]),
        );
        let ev = Evaluator::new(&inst);
        let q = parse_query("select struct(C = t.C) from SI{1} t").unwrap();
        let p = compile(&q, CompileOptions::default());
        assert!(matches!(p.ops[0], Operator::IterDependent { .. }));
        assert_eq!(execute(&ev, &p).unwrap().len(), 1);
        // Missing key: empty, not an error.
        let q2 = parse_query("select struct(C = t.C) from SI{9} t").unwrap();
        let p2 = compile(&q2, CompileOptions::default());
        assert!(execute(&ev, &p2).unwrap().is_empty());
    }

    #[test]
    fn let_bindings_compile() {
        let mut inst = Instance::new();
        inst.set(
            "I",
            Value::dict([(Value::Int(1), Value::record([("C", Value::Int(7))]))]),
        );
        let ev = Evaluator::new(&inst);
        let q = parse_query("select struct(C = x.C) from let x := I[1]").unwrap();
        let p = compile(&q, CompileOptions::default());
        assert!(matches!(p.ops[0], Operator::Bind { .. }));
        assert_eq!(execute(&ev, &p).unwrap().len(), 1);
    }

    #[test]
    fn multiple_hash_joins() {
        let mut inst = rs_instance(30);
        inst.set(
            "T",
            Value::set(
                (0..30).map(|k| Value::record([("C", Value::Int(k)), ("D", Value::Int(k * 2))])),
            ),
        );
        let ev = Evaluator::new(&inst);
        let q = parse_query(
            "select struct(A = r.A, D = t.D) from R r, S s, T t \
             where r.B = s.B and s.C = t.C",
        )
        .unwrap();
        let p = compile(
            &q,
            CompileOptions {
                hash_joins: true,
                ..Default::default()
            },
        );
        let n_hash = p
            .ops
            .iter()
            .filter(|op| matches!(op, Operator::HashJoin { .. }))
            .count();
        assert_eq!(n_hash, 2, "pipeline: {p}");
        assert_eq!(p.n_tables, 2);
        let (rows, stats) = execute_with_stats(&ev, &p).unwrap();
        assert_eq!(rows, ev.eval_query(&q).unwrap());
        assert_eq!(stats.tables_built, 2);
    }

    #[test]
    fn stats_count_rows_per_operator() {
        let inst = rs_instance(10);
        let ev = Evaluator::new(&inst);
        let q = parse_query("select struct(A = r.A) from R r where r.B = 2").unwrap();
        let p = compile(&q, CompileOptions::default());
        let (rows, stats) = execute_with_stats(&ev, &p).unwrap();
        // Scan: one invocation, 10 rows out; filter: 10 in, 2 out (B = 2
        // hits k = 2, 7); project: 2 rows.
        assert_eq!(
            stats.per_op[0],
            OpStats {
                input: 1,
                output: 10
            }
        );
        assert_eq!(stats.per_op[1].input, 10);
        assert_eq!(stats.per_op[1].output, stats.rows_emitted);
        assert_eq!(stats.rows_emitted as usize, rows.len());
        let rendered = stats.render(&p);
        assert!(rendered.contains("Scan(R as r@0)"), "{rendered}");
        assert!(rendered.contains("Project"), "{rendered}");
    }

    #[test]
    fn display_is_readable() {
        let q =
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap();
        let p = compile(
            &q,
            CompileOptions {
                hash_joins: true,
                ..Default::default()
            },
        );
        let text = p.to_string();
        assert!(text.contains("Scan(R as r@0)"), "{text}");
        assert!(text.contains("HashJoin(S as s@1"), "{text}");
        assert!(text.ends_with("Project"));
    }

    #[test]
    fn merge_join_is_chosen_for_ordered_roots() {
        // Both sides are plain root scans whose BTreeSet iteration sorts
        // the join key: the compiler must pick MergeJoin over HashJoin
        // when both algorithms are allowed, and the results must match
        // both the interpreter and the hash-join pipeline.
        let inst = rs_instance(40);
        let ev = Evaluator::new(&inst);
        let q =
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where s.B = r.B").unwrap();
        let mj = compile(
            &q,
            CompileOptions {
                hash_joins: true,
                merge_joins: true,
                ..Default::default()
            },
        );
        assert!(
            mj.ops
                .iter()
                .any(|op| matches!(op, Operator::MergeJoin { .. })),
            "pipeline: {mj}"
        );
        assert_eq!(mj.n_runs, 1);
        assert_eq!(mj.n_tables, 0);
        let hj = compile(
            &q,
            CompileOptions {
                hash_joins: true,
                ..Default::default()
            },
        );
        let reference = ev.eval_query(&q).unwrap();
        assert_eq!(execute(&ev, &mj).unwrap(), reference);
        assert_eq!(execute(&ev, &hj).unwrap(), reference);
        let single = compile(
            &q,
            CompileOptions {
                hash_joins: true,
                merge_joins: true,
                batch_size: 1,
            },
        );
        assert_eq!(execute(&ev, &single).unwrap(), reference);
    }

    #[test]
    fn merge_runs_avoid_sorting_on_first_field_keys() {
        // R's records sort by their alphabetically-first field (A for R,
        // B for S). Joining on s.B means the S-side run comes out of the
        // BTreeSet already key-ordered: no sort. Joining on s.C (the
        // second field) must detect disorder and sort.
        let inst = rs_instance(40);
        let ev = Evaluator::new(&inst);
        let sorted_free =
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where s.B = r.B").unwrap();
        let needs_sort =
            parse_query("select struct(A = r.A, B = s.B) from R r, S s where s.C = r.A").unwrap();
        let options = CompileOptions {
            hash_joins: true,
            merge_joins: true,
            ..Default::default()
        };
        let p1 = compile(&sorted_free, options);
        let (rows1, stats1) = execute_with_stats(&ev, &p1).unwrap();
        assert_eq!(rows1, ev.eval_query(&sorted_free).unwrap());
        assert_eq!(stats1.runs_built, 1);
        assert_eq!(stats1.runs_sorted, 0, "B-keys arrive sorted: {p1}");

        let p2 = compile(&needs_sort, options);
        assert!(p2
            .ops
            .iter()
            .any(|op| matches!(op, Operator::MergeJoin { .. })));
        let (rows2, stats2) = execute_with_stats(&ev, &p2).unwrap();
        assert_eq!(rows2, ev.eval_query(&needs_sort).unwrap());
        assert_eq!(stats2.runs_built, 1);
        assert_eq!(stats2.runs_sorted, 1, "C-keys need a sort: {p2}");
    }

    #[test]
    fn merge_runs_build_lazily() {
        let mut inst = rs_instance(10);
        inst.set("Empty", Value::Set(BTreeSet::new()));
        let ev = Evaluator::new(&inst);
        let q = Query::new(
            Output::record([("C", Path::var("s").field("C"))]),
            vec![
                Binding::iter("e", Path::root("Empty")),
                Binding::iter("s", Path::root("S")),
            ],
            vec![Equality(
                Path::var("s").field("B"),
                Path::var("e").field("B"),
            )],
        );
        let p = compile(
            &q,
            CompileOptions {
                hash_joins: true,
                merge_joins: true,
                ..Default::default()
            },
        );
        assert_eq!(p.n_runs, 1, "pipeline: {p}");
        let (rows, stats) = execute_with_stats(&ev, &p).unwrap();
        assert!(rows.is_empty());
        assert_eq!(stats.runs_built, 0);
        assert_eq!(stats.runs_skipped, 1);
    }

    #[test]
    fn batch_sizes_do_not_change_results() {
        let inst = rs_instance(40);
        let ev = Evaluator::new(&inst);
        for src in [
            "select struct(A = r.A) from R r where r.B = 2",
            "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B",
            "select struct(A = r.A, C = s.C) from R r, S s where s.B = r.B and s.C = 3",
        ] {
            let q = parse_query(src).unwrap();
            let reference = ev.eval_query(&q).unwrap();
            for (hash_joins, merge_joins) in
                [(false, false), (true, false), (false, true), (true, true)]
            {
                for batch_size in [1, 2, 1024] {
                    let p = compile(
                        &q,
                        CompileOptions {
                            hash_joins,
                            merge_joins,
                            batch_size,
                        },
                    );
                    assert_eq!(
                        execute(&ev, &p).unwrap(),
                        reference,
                        "{src} at batch {batch_size} with {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_errors_match_across_batch_sizes() {
        // A filter whose path fails on some rows: the truncate-on-error
        // discipline must surface exactly the error batch size 1 (a
        // strict depth-first walk) and the interpreter report, for every
        // batch size.
        let mut inst = Instance::new();
        inst.set(
            "M",
            Value::set([
                Value::record([("A", Value::Int(1)), ("B", Value::Int(1))]),
                Value::record([("A", Value::Int(2))]),
                Value::record([("A", Value::Int(3)), ("B", Value::Int(3))]),
            ]),
        );
        let ev = Evaluator::new(&inst);
        let q = parse_query("select struct(A = m.A) from M m where m.B = 1").unwrap();
        let at = |batch_size| {
            compile(
                &q,
                CompileOptions {
                    batch_size,
                    ..Default::default()
                },
            )
        };
        let single = execute(&ev, &at(1));
        assert!(single.is_err(), "row 2 has no B");
        for batch_size in [1, 2, 1024] {
            let p = at(batch_size);
            assert_eq!(execute(&ev, &p), single, "batch {batch_size}: {p}");
            assert_eq!(execute(&ev, &p), ev.eval_query(&q), "batch {batch_size}");
        }
    }

    #[test]
    fn batch_stats_reconcile_with_row_counts() {
        let inst = rs_instance(30);
        let ev = Evaluator::new(&inst);
        let q = parse_query(
            "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B and s.C = 3",
        )
        .unwrap();
        for (hash_joins, merge_joins) in [(false, false), (true, false), (true, true)] {
            for batch_size in [1, 7, 1024] {
                let p = compile(
                    &q,
                    CompileOptions {
                        hash_joins,
                        merge_joins,
                        batch_size,
                    },
                );
                let (rows, stats) = execute_with_stats(&ev, &p).unwrap();
                assert_eq!(rows, ev.eval_query(&q).unwrap());
                // Every live row in a pushed batch is consumed by exactly
                // one operator or the final projection.
                let consumed: u64 =
                    stats.per_op.iter().map(|o| o.input).sum::<u64>() + stats.rows_emitted;
                assert_eq!(
                    stats.sel_rows_live, consumed,
                    "batch {batch_size}, joins {hash_joins}/{merge_joins}: {p}"
                );
                assert!(stats.sel_rows_live <= stats.sel_rows_total);
                assert!(stats.batches > 0);
                assert!(stats.sel_fill_rate() > 0.0);
                // Arena accounting: every table/run is built or skipped.
                assert_eq!(stats.tables_built + stats.tables_skipped, p.n_tables as u64);
                assert_eq!(stats.runs_built + stats.runs_skipped, p.n_runs as u64);
                // The per-op counts equal batch size 1's.
                let single = compile(
                    &q,
                    CompileOptions {
                        hash_joins,
                        merge_joins,
                        batch_size: 1,
                    },
                );
                let (_, single_stats) = execute_with_stats(&ev, &single).unwrap();
                assert_eq!(stats.per_op, single_stats.per_op, "batch {batch_size}: {p}");
            }
        }
    }

    #[test]
    fn render_reports_batches_and_join_algorithms() {
        let inst = rs_instance(20);
        let ev = Evaluator::new(&inst);
        let q =
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where s.B = r.B").unwrap();
        let p = compile(
            &q,
            CompileOptions {
                hash_joins: true,
                merge_joins: true,
                ..Default::default()
            },
        );
        let (_, stats) = execute_with_stats(&ev, &p).unwrap();
        let rendered = stats.render(&p);
        assert!(rendered.contains("join algorithms:"), "{rendered}");
        assert!(rendered.contains("1 merge"), "{rendered}");
        assert!(rendered.contains("batches:"), "{rendered}");
        assert!(rendered.contains("merge runs:"), "{rendered}");
        assert!(rendered.contains("selection fill"), "{rendered}");
    }

    /// Runs `q` under `options` at batch sizes 1, 2 and 1024 and asserts
    /// every run fails with `want`: the earliest row's error, as a strict
    /// depth-first walk of the rows would report it.
    fn assert_error_order(inst: &Instance, q: &Query, options: CompileOptions, want: &EvalError) {
        let ev = Evaluator::new(inst);
        for batch_size in [1, 2, 1024] {
            let p = compile(
                q,
                CompileOptions {
                    batch_size,
                    ..options
                },
            );
            assert_eq!(
                execute(&ev, &p),
                Err(want.clone()),
                "batch {batch_size}: {p}"
            );
        }
    }

    fn no_such_field(value: &str, field: &str) -> EvalError {
        EvalError::NoSuchField {
            value: value.to_string(),
            field: field.to_string(),
        }
    }

    #[test]
    fn iter_dependent_errors_surface_in_row_order() {
        // Row 1 iterates cleanly; rows 2 and 3 fail at the iteration
        // with different errors. Without a downstream filter row 2's
        // error wins over row 3's; with one, row 1's downstream error
        // wins over row 2's upstream one.
        let mut inst = Instance::new();
        inst.set(
            "M",
            Value::set([
                Value::record([
                    ("A", Value::Int(1)),
                    ("S", Value::set([Value::record([("B", Value::Int(1))])])),
                ]),
                Value::record([("A", Value::Int(2)), ("S", Value::Int(5))]),
                Value::record([("A", Value::Int(3))]),
            ]),
        );
        let ev = Evaluator::new(&inst);
        for (src, want) in [
            (
                "select struct(B = x.B) from M m, m.S x",
                EvalError::NotASet("m.S = 5".to_string()),
            ),
            (
                "select struct(B = x.B) from M m, m.S x where x.C = 1",
                no_such_field("x", "C"),
            ),
        ] {
            let q = parse_query(src).unwrap();
            let p = compile(&q, CompileOptions::default());
            assert!(matches!(p.ops[1], Operator::IterDependent { .. }), "{p}");
            // No join: the interpreter reports the same error.
            assert_eq!(ev.eval_query(&q), Err(want.clone()), "{src}");
            assert_error_order(&inst, &q, CompileOptions::default(), &want);
        }
    }

    #[test]
    fn hash_join_probe_errors_surface_in_row_order() {
        // The two-field probe `r.K.L` fails on row 2 (no K) and row 3
        // (K without L) with different errors; row 1 joins cleanly.
        let mut inst = Instance::new();
        inst.set(
            "R",
            Value::set([
                Value::record([
                    ("A", Value::Int(1)),
                    ("K", Value::record([("L", Value::Int(1))])),
                ]),
                Value::record([("A", Value::Int(2))]),
                Value::record([
                    ("A", Value::Int(3)),
                    ("K", Value::record([("M", Value::Int(1))])),
                ]),
            ]),
        );
        inst.set(
            "S",
            Value::set([Value::record([("B", Value::Int(1)), ("C", Value::Int(10))])]),
        );
        let options = CompileOptions {
            hash_joins: true,
            ..Default::default()
        };
        for (src, want) in [
            (
                "select struct(C = s.C) from R r, S s where r.K.L = s.B",
                no_such_field("r", "K"),
            ),
            (
                "select struct(C = s.C) from R r, S s where r.K.L = s.B and s.Z = 1",
                no_such_field("s", "Z"),
            ),
        ] {
            let q = parse_query(src).unwrap();
            let p = compile(&q, options);
            assert!(matches!(p.ops[1], Operator::HashJoin { .. }), "{p}");
            assert_error_order(&inst, &q, options, &want);
        }
    }

    #[test]
    fn merge_join_probe_errors_surface_in_row_order() {
        // The one-field probe `r.K` fails on row 2 (a record without K)
        // and row 3 (a set, which has no fields) with different errors;
        // row 1 joins cleanly.
        let mut inst = Instance::new();
        inst.set(
            "R",
            Value::set([
                Value::record([("A", Value::Int(1)), ("K", Value::Int(1))]),
                Value::record([("A", Value::Int(2))]),
                Value::set([Value::Int(0)]),
            ]),
        );
        inst.set(
            "S",
            Value::set([Value::record([("B", Value::Int(1)), ("C", Value::Int(10))])]),
        );
        let options = CompileOptions {
            hash_joins: true,
            merge_joins: true,
            ..Default::default()
        };
        for (src, want) in [
            (
                "select struct(C = s.C) from R r, S s where r.K = s.B",
                no_such_field("r", "K"),
            ),
            (
                "select struct(C = s.C) from R r, S s where r.K = s.B and s.Z = 1",
                no_such_field("s", "Z"),
            ),
        ] {
            let q = parse_query(src).unwrap();
            let p = compile(&q, options);
            assert!(matches!(p.ops[1], Operator::MergeJoin { .. }), "{p}");
            assert_error_order(&inst, &q, options, &want);
        }
    }
}
