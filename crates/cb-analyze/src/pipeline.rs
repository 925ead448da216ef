//! Pass 4: pipeline dataflow verification.
//!
//! An abstract interpreter over [`cb_engine::Pipeline`] — the compiled
//! plan is replayed over an abstract register file that tracks only
//! *written-ness*, independently re-deriving what the slot compiler had
//! to get right:
//!
//! * **def-before-use** — every accessor reads only registers some
//!   earlier operator wrote; a hash join's probe key must not read the
//!   join's own register (it resolves against the outer stream), and its
//!   build key must read *only* the join's own register (the table is
//!   built once and cached across probes, so any outer register read
//!   would bake a stale value into it);
//! * **resolvability** — no accessor embeds an `UnknownVar`, every
//!   interned root id is in range and agrees with the operator's root
//!   name;
//! * **layout** — each register is written exactly once and every slot of
//!   the register file has a writer; hash-table indices are unique, in
//!   range, and all used; merge-run indices obey the same arena
//!   discipline (CB037), and merge joins obey the hash join's key
//!   discipline (probe key outer-only, build key own-slot-only);
//! * **batch layout** — the pipeline's batch size is nonzero (CB038):
//!   the batched driver fills fixed-capacity batches, and a zero
//!   capacity could never make progress;
//! * **liveness** — registers written but never read (warning: the
//!   binding only contributes existence), mirroring the query-level
//!   dead-variable lint;
//! * **groundedness** — hoisted [`GroundFilter`](cb_engine::GroundFilter)s
//!   must be genuinely environment-independent: no register reads, no
//!   unknown variables.

use std::collections::{BTreeMap, BTreeSet};

use cb_engine::{Access, AccessKind, CompiledOutput, Operator, Pipeline};

use crate::diag::{codes, Anchor, Diagnostic, Report, Severity};

/// Visits `a` and every nested accessor (lookup dictionaries, keys, dom
/// arguments), outermost first.
fn walk_access(a: &Access, f: &mut impl FnMut(&Access)) {
    f(a);
    match a.kind() {
        AccessKind::Dom(inner) => walk_access(inner, f),
        AccessKind::Get { dict, key } | AccessKind::GetOrEmpty { dict, key } => {
            walk_access(dict, f);
            walk_access(key, f);
        }
        AccessKind::Slot(_)
        | AccessKind::UnknownVar(_)
        | AccessKind::Root { .. }
        | AccessKind::Const => {}
    }
}

/// All register slots an accessor reads, anywhere in its structure.
fn slots_read(a: &Access) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    walk_access(a, &mut |x| {
        if let AccessKind::Slot(i) = x.kind() {
            out.insert(i);
        }
    });
    out
}

/// The abstract state threaded through the pipeline replay.
struct Verifier<'p> {
    p: &'p Pipeline,
    report: Report,
    /// slot -> index of the operator that wrote it.
    written: BTreeMap<usize, usize>,
    /// Every slot read by any accessor (for liveness).
    read: BTreeSet<usize>,
    /// table index -> operator that owns it.
    tables_seen: BTreeMap<usize, usize>,
    /// merge-run index -> operator that owns it.
    runs_seen: BTreeMap<usize, usize>,
}

impl Verifier<'_> {
    /// Resolvability of one accessor at `anchor`: unknown vars and root
    /// interning, plus read bookkeeping. `allowed` is the def-before-use
    /// register set; `what` names the accessor in messages.
    fn check_access(&mut self, a: &Access, allowed: &BTreeSet<usize>, anchor: Anchor, what: &str) {
        let mut diags: Vec<Diagnostic> = Vec::new();
        walk_access(a, &mut |x| match x.kind() {
            AccessKind::UnknownVar(v) => diags.push(Diagnostic::new(
                codes::UNRESOLVED_VAR,
                Severity::Error,
                anchor.clone(),
                format!("{what} `{a}` references unresolved variable `{v}`"),
            )),
            AccessKind::Slot(i) => {
                self.read.insert(i);
                if !allowed.contains(&i) {
                    diags.push(Diagnostic::new(
                        codes::READ_BEFORE_WRITE,
                        Severity::Error,
                        anchor.clone(),
                        format!("{what} `{a}` reads register {i} before any operator writes it"),
                    ));
                }
            }
            AccessKind::Root { id, name } => {
                if self.p.roots.get(id).map(String::as_str) != Some(name) {
                    diags.push(Diagnostic::new(
                        codes::ROOT_INTERN,
                        Severity::Error,
                        anchor.clone(),
                        format!(
                            "{what} `{a}` reads root `{name}` through id {id}, \
                             which the root table does not intern as that name"
                        ),
                    ));
                }
            }
            AccessKind::Const
            | AccessKind::Dom(_)
            | AccessKind::Get { .. }
            | AccessKind::GetOrEmpty { .. } => {}
        });
        for d in diags {
            self.report.push(d);
        }
    }

    /// Records the write of `slot` by operator `op_idx` (layout checks).
    fn write_slot(&mut self, slot: usize, op_idx: usize, var: &str) {
        if slot >= self.p.n_slots {
            self.report.push(Diagnostic::new(
                codes::SLOT_LAYOUT,
                Severity::Error,
                Anchor::PipelineOp(op_idx),
                format!(
                    "binding `{var}` writes register {slot}, but the register file has only {} slot(s)",
                    self.p.n_slots
                ),
            ));
        }
        if let Some(&prev) = self.written.get(&slot) {
            self.report.push(Diagnostic::new(
                codes::SLOT_LAYOUT,
                Severity::Error,
                Anchor::PipelineOp(op_idx),
                format!("binding `{var}` writes register {slot}, already written by op #{prev}"),
            ));
        } else {
            self.written.insert(slot, op_idx);
        }
    }

    fn check_root_op(&mut self, root_id: usize, root: &str, op_idx: usize) {
        if self.p.roots.get(root_id).map(String::as_str) != Some(root) {
            self.report.push(Diagnostic::new(
                codes::ROOT_INTERN,
                Severity::Error,
                Anchor::PipelineOp(op_idx),
                format!("root `{root}` claims id {root_id}, which the root table does not intern"),
            ));
        }
    }
}

/// Verifies one compiled pipeline. An empty report certifies the slot
/// compiler's output for this plan; error-severity findings mean the
/// pipeline would misbehave (or error) at run time.
pub fn check_pipeline(p: &Pipeline) -> Report {
    let mut v = Verifier {
        p,
        report: Report::new(),
        written: BTreeMap::new(),
        read: BTreeSet::new(),
        tables_seen: BTreeMap::new(),
        runs_seen: BTreeMap::new(),
    };

    // Batch layout: the batched driver flushes batches at capacity; a
    // zero capacity could never hold a row.
    if p.batch_size == 0 {
        v.report.push(Diagnostic::new(
            codes::BATCH_LAYOUT,
            Severity::Error,
            Anchor::Catalog,
            "pipeline batch size is 0; the batched driver cannot make progress".to_string(),
        ));
    }

    // Hoisted ground filters run before any register is written: both
    // sides must be environment-independent.
    for (gi, g) in p.ground.iter().enumerate() {
        for (side, a) in [("left", &g.left), ("right", &g.right)] {
            let reads = slots_read(a);
            let mut unknown = false;
            walk_access(a, &mut |x| {
                unknown |= matches!(x.kind(), AccessKind::UnknownVar(_));
            });
            if !reads.is_empty() || unknown {
                v.report.push(Diagnostic::new(
                    codes::GROUND_NOT_GROUND,
                    Severity::Error,
                    Anchor::GroundFilter(gi),
                    format!(
                        "{side} side `{a}` of a hoisted ground filter is not \
                         environment-independent"
                    ),
                ));
            }
            // Still check root interning on ground accessors.
            v.check_access(a, &reads, Anchor::GroundFilter(gi), "ground accessor");
        }
    }

    for (i, op) in p.ops.iter().enumerate() {
        let readable: BTreeSet<usize> = v.written.keys().copied().collect();
        match op {
            Operator::Scan {
                var,
                slot,
                root,
                root_id,
            } => {
                v.check_root_op(*root_id, root, i);
                v.write_slot(*slot, i, var);
            }
            Operator::IterDependent { var, slot, src } | Operator::Bind { var, slot, src } => {
                v.check_access(src, &readable, Anchor::PipelineOp(i), "source");
                v.write_slot(*slot, i, var);
            }
            Operator::Filter { left, right } => {
                v.check_access(left, &readable, Anchor::PipelineOp(i), "filter operand");
                v.check_access(right, &readable, Anchor::PipelineOp(i), "filter operand");
            }
            Operator::HashJoin {
                row_var,
                slot,
                root,
                root_id,
                build_key,
                probe_key,
                table,
            } => {
                v.check_root_op(*root_id, root, i);
                // The probe key resolves against the outer stream only.
                v.check_access(probe_key, &readable, Anchor::PipelineOp(i), "probe key");
                if slots_read(probe_key).contains(slot) {
                    v.report.push(Diagnostic::new(
                        codes::READ_BEFORE_WRITE,
                        Severity::Error,
                        Anchor::PipelineOp(i),
                        format!("probe key `{probe_key}` reads the join's own register {slot}"),
                    ));
                }
                // The build key sees only the join's own row: the table
                // is built once and cached across probes, so an outer
                // register read would freeze a stale value into it.
                let own: BTreeSet<usize> = [*slot].into();
                v.check_access(build_key, &own, Anchor::PipelineOp(i), "build key");
                for s in slots_read(build_key) {
                    if s != *slot {
                        v.report.push(Diagnostic::new(
                            codes::READ_BEFORE_WRITE,
                            Severity::Error,
                            Anchor::PipelineOp(i),
                            format!(
                                "build key `{build_key}` of a cached table reads outer \
                                 register {s}"
                            ),
                        ));
                    }
                }
                if *table >= p.n_tables {
                    v.report.push(Diagnostic::new(
                        codes::TABLE_LAYOUT,
                        Severity::Error,
                        Anchor::PipelineOp(i),
                        format!(
                            "table index {table} out of range (arena has {})",
                            p.n_tables
                        ),
                    ));
                } else if let Some(&prev) = v.tables_seen.get(table) {
                    v.report.push(Diagnostic::new(
                        codes::TABLE_LAYOUT,
                        Severity::Error,
                        Anchor::PipelineOp(i),
                        format!("table index {table} already owned by op #{prev}"),
                    ));
                } else {
                    v.tables_seen.insert(*table, i);
                }
                v.write_slot(*slot, i, row_var);
            }
            Operator::MergeJoin {
                row_var,
                slot,
                root,
                root_id,
                build_key,
                probe_key,
                run,
            } => {
                v.check_root_op(*root_id, root, i);
                // The probe key resolves against the outer stream only.
                v.check_access(probe_key, &readable, Anchor::PipelineOp(i), "probe key");
                if slots_read(probe_key).contains(slot) {
                    v.report.push(Diagnostic::new(
                        codes::MERGE_DISCIPLINE,
                        Severity::Error,
                        Anchor::PipelineOp(i),
                        format!("probe key `{probe_key}` reads the join's own register {slot}"),
                    ));
                }
                // The build key sees only the join's own row: the run is
                // materialized once and cached across probes, so an
                // outer register read would freeze a stale key into it.
                let own: BTreeSet<usize> = [*slot].into();
                v.check_access(build_key, &own, Anchor::PipelineOp(i), "build key");
                for s in slots_read(build_key) {
                    if s != *slot {
                        v.report.push(Diagnostic::new(
                            codes::MERGE_DISCIPLINE,
                            Severity::Error,
                            Anchor::PipelineOp(i),
                            format!(
                                "build key `{build_key}` of a cached merge run reads outer \
                                 register {s}"
                            ),
                        ));
                    }
                }
                if *run >= p.n_runs {
                    v.report.push(Diagnostic::new(
                        codes::MERGE_DISCIPLINE,
                        Severity::Error,
                        Anchor::PipelineOp(i),
                        format!(
                            "merge-run index {run} out of range (arena has {})",
                            p.n_runs
                        ),
                    ));
                } else if let Some(&prev) = v.runs_seen.get(run) {
                    v.report.push(Diagnostic::new(
                        codes::MERGE_DISCIPLINE,
                        Severity::Error,
                        Anchor::PipelineOp(i),
                        format!("merge-run index {run} already owned by op #{prev}"),
                    ));
                } else {
                    v.runs_seen.insert(*run, i);
                }
                v.write_slot(*slot, i, row_var);
            }
        }
    }

    // Output accesses see the full register file.
    let all_written: BTreeSet<usize> = v.written.keys().copied().collect();
    match &p.output {
        CompiledOutput::Struct(fields) => {
            for (_, a) in fields {
                v.check_access(a, &all_written, Anchor::Output, "output accessor");
            }
        }
        CompiledOutput::Path(a) => {
            v.check_access(a, &all_written, Anchor::Output, "output accessor");
        }
    }

    // Layout: every slot of the register file must have a writer.
    for slot in 0..p.n_slots {
        if !v.written.contains_key(&slot) {
            v.report.push(Diagnostic::new(
                codes::SLOT_LAYOUT,
                Severity::Error,
                Anchor::Catalog,
                format!("register {slot} is never written by any operator"),
            ));
        }
    }
    // Liveness: written but never read.
    for (&slot, &op_idx) in &v.written {
        if !v.read.contains(&slot) {
            let var = match &p.ops[op_idx] {
                Operator::Scan { var, .. }
                | Operator::IterDependent { var, .. }
                | Operator::Bind { var, .. } => var.as_str(),
                Operator::HashJoin { row_var, .. } | Operator::MergeJoin { row_var, .. } => {
                    row_var.as_str()
                }
                Operator::Filter { .. } => "?",
            };
            v.report.push(Diagnostic::new(
                codes::DEAD_SLOT,
                Severity::Warning,
                Anchor::PipelineOp(op_idx),
                format!(
                    "register {slot} (`{var}`) is never read; the binding only \
                     contributes existence"
                ),
            ));
        }
    }
    // Table arena: every index must be owned by some join.
    for t in 0..p.n_tables {
        if !v.tables_seen.contains_key(&t) {
            v.report.push(Diagnostic::new(
                codes::TABLE_LAYOUT,
                Severity::Error,
                Anchor::Catalog,
                format!("hash-table index {t} is allocated but owned by no join"),
            ));
        }
    }
    // Run arena: the same discipline for merge runs.
    for r in 0..p.n_runs {
        if !v.runs_seen.contains_key(&r) {
            v.report.push(Diagnostic::new(
                codes::MERGE_DISCIPLINE,
                Severity::Error,
                Anchor::Catalog,
                format!("merge-run index {r} is allocated but owned by no join"),
            ));
        }
    }

    v.report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_engine::{compile, CompileOptions};
    use pcql::parser::parse_query;

    fn compile_both(src: &str) -> Vec<Pipeline> {
        let q = parse_query(src).unwrap();
        vec![
            compile(
                &q,
                CompileOptions {
                    hash_joins: false,
                    ..Default::default()
                },
            ),
            compile(
                &q,
                CompileOptions {
                    hash_joins: true,
                    ..Default::default()
                },
            ),
            compile(
                &q,
                CompileOptions {
                    hash_joins: true,
                    merge_joins: true,
                    ..Default::default()
                },
            ),
        ]
    }

    fn merge_pipeline() -> Pipeline {
        let q =
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where s.B = r.B").unwrap();
        let p = compile(
            &q,
            CompileOptions {
                merge_joins: true,
                ..Default::default()
            },
        );
        assert!(
            p.ops
                .iter()
                .any(|op| matches!(op, Operator::MergeJoin { .. })),
            "compiler did not choose a merge join: {p}"
        );
        p
    }

    #[test]
    fn compiler_output_verifies_clean() {
        for src in [
            "select struct(A = r.A) from R r where r.A = 5",
            "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B",
            "select struct(N = t.PName) from dom(SI) k, SI[k] t where k = \"CitiBank\"",
            "select struct(X = p.B) from R r, I[r.A] p where 1 = 1",
            "select r from R r, S s where r.B = s.B and s.C = 7",
        ] {
            for p in compile_both(src) {
                let report = check_pipeline(&p);
                assert!(!report.has_errors(), "{src} (pipeline {p}): {report}");
            }
        }
    }

    #[test]
    fn existence_only_binding_is_a_dead_slot_warning() {
        let q = parse_query("select struct(A = r.A) from R r, S s").unwrap();
        let p = compile(&q, CompileOptions::default());
        let report = check_pipeline(&p);
        assert!(!report.has_errors(), "{report}");
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::DEAD_SLOT && d.message.contains("`s`")));
    }

    #[test]
    fn swapped_slot_write_is_caught() {
        let q =
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap();
        let mut p = compile(
            &q,
            CompileOptions {
                hash_joins: false,
                ..Default::default()
            },
        );
        // Mutation canary: the second scan writes the first scan's slot.
        match &mut p.ops[1] {
            Operator::Scan { slot, .. } => *slot = 0,
            other => panic!("expected a scan, got {other}"),
        }
        let report = check_pipeline(&p);
        assert!(report.errors().any(|d| d.code == codes::SLOT_LAYOUT));
        // Register 1 now has no writer, and the filter reads it.
        assert!(report.errors().any(|d| d.code == codes::READ_BEFORE_WRITE));
    }

    #[test]
    fn dropped_binding_leaves_an_unresolved_var() {
        let mut q =
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B").unwrap();
        q.from.remove(1);
        let p = compile(&q, CompileOptions::default());
        let report = check_pipeline(&p);
        assert!(report.errors().any(|d| d.code == codes::UNRESOLVED_VAR));
    }

    #[test]
    fn hash_join_key_discipline_is_enforced() {
        let q =
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where s.B = r.B").unwrap();
        let p = compile(
            &q,
            CompileOptions {
                hash_joins: true,
                ..Default::default()
            },
        );
        // Sanity: the compiler produced a hash join and it verifies.
        assert!(p
            .ops
            .iter()
            .any(|op| matches!(op, Operator::HashJoin { .. })));
        assert!(!check_pipeline(&p).has_errors());

        // Mutation canary: swap build and probe keys — the probe key now
        // reads the join's own register and the build key an outer one.
        let mut bad = p.clone();
        for op in &mut bad.ops {
            if let Operator::HashJoin {
                build_key,
                probe_key,
                ..
            } = op
            {
                std::mem::swap(build_key, probe_key);
            }
        }
        let report = check_pipeline(&bad);
        assert!(report.errors().any(|d| d.message.contains("own register")));
        assert!(report
            .errors()
            .any(|d| d.message.contains("outer register")));
    }

    #[test]
    fn merge_join_key_discipline_is_enforced() {
        let p = merge_pipeline();
        assert!(!check_pipeline(&p).has_errors());

        // Mutation canary: swap build and probe keys — the probe key now
        // reads the join's own register and the build key an outer one,
        // both reported under the merge-discipline code.
        let mut bad = p.clone();
        for op in &mut bad.ops {
            if let Operator::MergeJoin {
                build_key,
                probe_key,
                ..
            } = op
            {
                std::mem::swap(build_key, probe_key);
            }
        }
        let report = check_pipeline(&bad);
        assert!(report
            .errors()
            .any(|d| d.code == codes::MERGE_DISCIPLINE && d.message.contains("own register")));
        assert!(report
            .errors()
            .any(|d| d.code == codes::MERGE_DISCIPLINE && d.message.contains("outer register")));
    }

    #[test]
    fn broken_run_arena_is_caught() {
        // Mutation canary: an allocated run no join owns.
        let mut p = merge_pipeline();
        p.n_runs += 1;
        let report = check_pipeline(&p);
        assert!(report
            .errors()
            .any(|d| d.code == codes::MERGE_DISCIPLINE && d.message.contains("owned by no join")));

        // And a duplicated run index.
        let mut p = merge_pipeline();
        p.n_runs = 0;
        let report = check_pipeline(&p);
        assert!(report
            .errors()
            .any(|d| d.code == codes::MERGE_DISCIPLINE && d.message.contains("out of range")));
    }

    #[test]
    fn zero_batch_size_is_caught() {
        // Mutation canary: compile clamps batch_size to ≥ 1, so a zero
        // can only appear through corruption — CB038 must fire.
        let q = parse_query("select struct(A = r.A) from R r").unwrap();
        let p = compile(
            &q,
            CompileOptions {
                batch_size: 0,
                ..Default::default()
            },
        );
        assert!(p.batch_size >= 1, "compile must clamp a zero batch size");
        assert!(!check_pipeline(&p).has_errors());
        let mut bad = p.clone();
        bad.batch_size = 0;
        let report = check_pipeline(&bad);
        assert!(report.errors().any(|d| d.code == codes::BATCH_LAYOUT));
    }

    #[test]
    fn broken_table_arena_is_caught() {
        let q =
            parse_query("select struct(A = r.A, C = s.C) from R r, S s where s.B = r.B").unwrap();
        let mut p = compile(
            &q,
            CompileOptions {
                hash_joins: true,
                ..Default::default()
            },
        );
        p.n_tables += 1;
        let report = check_pipeline(&p);
        assert!(report.errors().any(|d| d.code == codes::TABLE_LAYOUT));
    }
}
