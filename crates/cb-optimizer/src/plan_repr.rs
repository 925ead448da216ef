//! Versioned, serializable plan representation.
//!
//! The backchase produces a *plan worth keeping*: the winner of a search
//! that may have taken orders of magnitude longer than executing the
//! plan will. This module gives that artifact a stable external form —
//! modeled on the unified-plan-representation idea of Ba & Rigger (see
//! PAPERS.md) — so plans can be snapshotted, diffed across optimizer
//! versions, and gated in CI.
//!
//! [`PlanRepr::V1`] records the chosen plan and its runners-up (as query
//! text — [`pcql`]'s `Display ↔ parse` round-trip is exercised by the
//! parser corpus), the cost estimates, the compiled pipeline layout
//! ([`cb_engine::PipelineLayout`]), and the search/resilience counters
//! of the [`OptimizeOutcome`] it came from. The text form is plain JSON
//! with a **fixed key order**, rendered and parsed by hand (the crate
//! registry is unreachable, so no serde): `parse ∘ render` is the
//! identity on values and `render ∘ parse ∘ render = render` on text —
//! the fixed point the round-trip proptest pins down.
//!
//! Loading is fail-closed: [`PlanRepr::load_verified`] re-parses the
//! plan text and pushes it through [`cb_analyze::Analyzer`]'s
//! well-formedness, lookup-safety and pipeline-dataflow passes against
//! the *current* catalog before anything compiles to an executable
//! [`Pipeline`] — a stale or hand-edited plan can never run unchecked.

use cb_catalog::Catalog;
use cb_engine::{CompileOptions, Pipeline, PipelineLayout};
use pcql::query::Query;

use crate::optimizer::{OptimizeOutcome, PlanChoice};

/// A versioned plan representation. New format revisions add variants;
/// parsers keep accepting every version they know how to upgrade.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanRepr {
    V1(PlanV1),
}

/// Version 1: the chosen plan, its fallback ladder, the compiled
/// pipeline layout, and the outcome counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanV1 {
    /// The input query, as text.
    pub input: String,
    /// The universal plan `chase(Q)`, as text.
    pub universal: String,
    /// The winner.
    pub best: PlanEntryV1,
    /// The `k_best` ladder (a prefix of the outcome's candidates,
    /// cheapest first; includes the winner).
    pub top_k: Vec<PlanEntryV1>,
    /// Layout of the winner's compiled pipeline (default compile
    /// options — the structural identity `plan-diff` compares).
    pub pipeline: PipelineV1,
    /// Search and resilience counters of the producing optimization.
    pub counters: CountersV1,
}

/// One costed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEntryV1 {
    /// The executable plan, as text.
    pub query: String,
    /// The backchase subquery it came from, as text.
    pub raw: String,
    /// Estimated cost (finite and nonnegative — the optimizer's
    /// cost-domain boundary enforces this before a choice exists).
    pub cost: f64,
    /// Whether the raw form was a backchase normal form.
    pub minimal: bool,
}

/// The compiled pipeline layout — mirrors [`PipelineLayout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineV1 {
    pub n_slots: u64,
    pub n_tables: u64,
    pub n_runs: u64,
    pub batch_size: u64,
    pub roots: Vec<String>,
    pub ground: Vec<String>,
    pub ops: Vec<String>,
}

/// Search/resilience counters worth diffing across optimizer versions:
/// the search fields render [`OptimizeOutcome::search`] under their
/// format-1 names (`complete` is the outcome's, which also folds in the
/// chase's), the cache fields [`OptimizeOutcome::cache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountersV1 {
    pub nodes_visited: u64,
    pub nodes_pruned_at_gate: u64,
    pub nodes_pruned_at_visit: u64,
    pub workers_died: u64,
    pub complete: bool,
    pub budget_expired: bool,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub deps_resets: u64,
    /// Degradation-ladder rungs taken, in order (debug renderings).
    pub degradations: Vec<String>,
}

/// Why a plan representation could not be produced, parsed, or loaded.
#[derive(Debug, Clone, PartialEq)]
pub enum ReprError {
    /// The text is not a well-formed V-anything plan document.
    Parse(String),
    /// The document parsed, but its version is unknown to this build.
    Version(u64),
    /// A recorded query failed to re-parse (corrupt or hand-edited).
    Query(String),
    /// The plan parsed but the analyzer rejected it against the current
    /// catalog; the rendered report says why.
    Rejected(String),
}

impl std::fmt::Display for ReprError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReprError::Parse(m) => write!(f, "malformed plan document: {m}"),
            ReprError::Version(v) => write!(f, "unsupported plan version {v}"),
            ReprError::Query(m) => write!(f, "recorded plan text does not parse: {m}"),
            ReprError::Rejected(r) => write!(f, "loaded plan rejected by the analyzer:\n{r}"),
        }
    }
}

impl std::error::Error for ReprError {}

impl PlanRepr {
    /// Capture `outcome` as the current-version representation. The
    /// winner's pipeline is compiled with default options — the layout
    /// is a structural identity, not a tuning record.
    pub fn from_outcome(outcome: &OptimizeOutcome) -> PlanRepr {
        let layout = cb_engine::compile(&outcome.best.query, CompileOptions::default()).layout();
        PlanRepr::V1(PlanV1 {
            input: outcome.input.to_string(),
            universal: outcome.universal().to_string(),
            best: PlanEntryV1::of(&outcome.best),
            top_k: outcome.top_k().iter().map(PlanEntryV1::of).collect(),
            pipeline: PipelineV1::of(&layout),
            counters: CountersV1 {
                nodes_visited: outcome.search.visited_count as u64,
                nodes_pruned_at_gate: outcome.search.pruned_at_gate as u64,
                nodes_pruned_at_visit: outcome.search.pruned_at_visit as u64,
                workers_died: outcome.search.workers_died as u64,
                complete: outcome.complete,
                budget_expired: outcome.search.budget_expired,
                cache_hits: outcome.cache.hits(),
                cache_misses: outcome.cache.misses(),
                deps_resets: outcome.cache.deps_resets,
                degradations: outcome
                    .degradations
                    .iter()
                    .map(|d| format!("{d:?}"))
                    .collect(),
            },
        })
    }

    /// The best plan's text, whatever the version.
    pub fn best_query_text(&self) -> &str {
        match self {
            PlanRepr::V1(p) => &p.best.query,
        }
    }

    /// Render to the stable text form (JSON, fixed key order, 2-space
    /// indent). `parse(render(x)) == x` for every representable value.
    pub fn render(&self) -> String {
        let PlanRepr::V1(p) = self;
        let mut w = json::Writer::new();
        w.open();
        w.field_num("version", 1.0);
        w.key("plan");
        w.open();
        w.field_str("input", &p.input);
        w.field_str("universal", &p.universal);
        w.key("best");
        render_entry(&mut w, &p.best);
        w.key("top_k");
        w.open_arr();
        for e in &p.top_k {
            w.arr_item();
            render_entry(&mut w, e);
        }
        w.close_arr();
        w.key("pipeline");
        w.open();
        w.field_num("n_slots", p.pipeline.n_slots as f64);
        w.field_num("n_tables", p.pipeline.n_tables as f64);
        w.field_num("n_runs", p.pipeline.n_runs as f64);
        w.field_num("batch_size", p.pipeline.batch_size as f64);
        w.field_str_arr("roots", &p.pipeline.roots);
        w.field_str_arr("ground", &p.pipeline.ground);
        w.field_str_arr("ops", &p.pipeline.ops);
        w.close();
        w.key("counters");
        w.open();
        w.field_num("nodes_visited", p.counters.nodes_visited as f64);
        w.field_num(
            "nodes_pruned_at_gate",
            p.counters.nodes_pruned_at_gate as f64,
        );
        w.field_num(
            "nodes_pruned_at_visit",
            p.counters.nodes_pruned_at_visit as f64,
        );
        w.field_num("workers_died", p.counters.workers_died as f64);
        w.field_bool("complete", p.counters.complete);
        w.field_bool("budget_expired", p.counters.budget_expired);
        w.field_num("cache_hits", p.counters.cache_hits as f64);
        w.field_num("cache_misses", p.counters.cache_misses as f64);
        w.field_num("deps_resets", p.counters.deps_resets as f64);
        w.field_str_arr("degradations", &p.counters.degradations);
        w.close();
        w.close(); // plan
        w.close(); // document
        w.finish()
    }

    /// Parse the text form back into a value. Strict about structure
    /// (missing or mistyped fields are [`ReprError::Parse`]) but not
    /// about layout — whitespace is free, so hand-pretty-printed
    /// documents still load.
    pub fn parse(text: &str) -> Result<PlanRepr, ReprError> {
        let doc = json::parse(text).map_err(ReprError::Parse)?;
        let version = doc.get_num("version")? as u64;
        if version != 1 {
            return Err(ReprError::Version(version));
        }
        let plan = doc.get_obj("plan")?;
        let pipeline = plan.get_obj("pipeline")?;
        let counters = plan.get_obj("counters")?;
        Ok(PlanRepr::V1(PlanV1 {
            input: plan.get_str("input")?,
            universal: plan.get_str("universal")?,
            best: parse_entry(plan.get_obj("best")?)?,
            top_k: plan
                .get_arr("top_k")?
                .iter()
                .map(|v| parse_entry(v.as_obj()?))
                .collect::<Result<_, _>>()?,
            pipeline: PipelineV1 {
                n_slots: pipeline.get_num("n_slots")? as u64,
                n_tables: pipeline.get_num("n_tables")? as u64,
                n_runs: pipeline.get_num("n_runs")? as u64,
                batch_size: pipeline.get_num("batch_size")? as u64,
                roots: pipeline.get_str_arr("roots")?,
                ground: pipeline.get_str_arr("ground")?,
                ops: pipeline.get_str_arr("ops")?,
            },
            counters: CountersV1 {
                nodes_visited: counters.get_num("nodes_visited")? as u64,
                nodes_pruned_at_gate: counters.get_num("nodes_pruned_at_gate")? as u64,
                nodes_pruned_at_visit: counters.get_num("nodes_pruned_at_visit")? as u64,
                workers_died: counters.get_num("workers_died")? as u64,
                complete: counters.get_bool("complete")?,
                budget_expired: counters.get_bool("budget_expired")?,
                cache_hits: counters.get_num("cache_hits")? as u64,
                cache_misses: counters.get_num("cache_misses")? as u64,
                deps_resets: counters.get_num("deps_resets")? as u64,
                degradations: counters.get_str_arr("degradations")?,
            },
        }))
    }

    /// Re-verify and compile the recorded best plan against `catalog`.
    /// The analyzer's load gate runs first ([`cb_analyze::Analyzer::
    /// verify_loaded_plan`]): a plan that no longer type-checks, reads
    /// unguarded lookups, or compiles to a dataflow-broken pipeline is
    /// [`ReprError::Rejected`], never executed.
    pub fn load_verified(&self, catalog: &Catalog) -> Result<(Query, Pipeline), ReprError> {
        let text = self.best_query_text();
        let q = pcql::parser::parse_query(text)
            .map_err(|e| ReprError::Query(format!("{text:?}: {e}")))?;
        let report = cb_analyze::Analyzer::new(catalog).verify_loaded_plan(&q);
        if report.has_errors() {
            return Err(ReprError::Rejected(report.to_string()));
        }
        let pipeline = cb_engine::compile(&q, CompileOptions::default());
        Ok((q, pipeline))
    }
}

impl PlanEntryV1 {
    fn of(c: &PlanChoice) -> PlanEntryV1 {
        PlanEntryV1 {
            query: c.query.to_string(),
            raw: c.raw.to_string(),
            cost: c.cost,
            minimal: c.minimal,
        }
    }
}

impl PipelineV1 {
    fn of(l: &PipelineLayout) -> PipelineV1 {
        PipelineV1 {
            n_slots: l.n_slots as u64,
            n_tables: l.n_tables as u64,
            n_runs: l.n_runs as u64,
            batch_size: l.batch_size as u64,
            roots: l.roots.clone(),
            ground: l.ground.clone(),
            ops: l.ops.clone(),
        }
    }
}

fn render_entry(w: &mut json::Writer, e: &PlanEntryV1) {
    w.open();
    w.field_str("query", &e.query);
    w.field_str("raw", &e.raw);
    w.field_num("cost", e.cost);
    w.field_bool("minimal", e.minimal);
    w.close();
}

fn parse_entry(o: &json::Obj) -> Result<PlanEntryV1, ReprError> {
    Ok(PlanEntryV1 {
        query: o.get_str("query")?,
        raw: o.get_str("raw")?,
        cost: o.get_num("cost")?,
        minimal: o.get_bool("minimal")?,
    })
}

/// The minimal JSON dialect the plan format needs: objects, arrays,
/// strings, finite numbers, booleans. Hand-rolled writer and
/// recursive-descent parser — no serde in this tree.
mod json {
    use super::ReprError;

    /// Indented writer with the bookkeeping for commas and nesting.
    pub struct Writer {
        out: String,
        depth: usize,
        /// Whether the current container already has an item (comma due).
        has_item: Vec<bool>,
    }

    impl Writer {
        pub fn new() -> Writer {
            Writer {
                out: String::new(),
                depth: 0,
                has_item: Vec::new(),
            }
        }

        fn newline_indent(&mut self) {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }

        fn begin_item(&mut self) {
            if let Some(has) = self.has_item.last_mut() {
                if *has {
                    self.out.push(',');
                }
                *has = true;
            }
            if self.depth > 0 {
                self.newline_indent();
            }
        }

        pub fn key(&mut self, k: &str) {
            self.begin_item();
            self.out.push('"');
            self.out.push_str(k);
            self.out.push_str("\": ");
        }

        pub fn open(&mut self) {
            self.out.push('{');
            self.depth += 1;
            self.has_item.push(false);
        }

        pub fn close(&mut self) {
            let had = self.has_item.pop().unwrap_or(false);
            self.depth -= 1;
            if had {
                self.newline_indent();
            }
            self.out.push('}');
        }

        pub fn open_arr(&mut self) {
            self.out.push('[');
            self.depth += 1;
            self.has_item.push(false);
        }

        pub fn close_arr(&mut self) {
            let had = self.has_item.pop().unwrap_or(false);
            self.depth -= 1;
            if had {
                self.newline_indent();
            }
            self.out.push(']');
        }

        /// Positions (comma + indent) for the next array element.
        pub fn arr_item(&mut self) {
            self.begin_item();
        }

        pub fn field_str(&mut self, k: &str, v: &str) {
            self.key(k);
            self.str_value(v);
        }

        pub fn field_num(&mut self, k: &str, v: f64) {
            self.key(k);
            // Rust's shortest-round-trip Display: `parse` recovers the
            // exact f64, so costs survive the text form bit-for-bit.
            self.out.push_str(&v.to_string());
        }

        pub fn field_bool(&mut self, k: &str, v: bool) {
            self.key(k);
            self.out.push_str(if v { "true" } else { "false" });
        }

        pub fn field_str_arr(&mut self, k: &str, vs: &[String]) {
            self.key(k);
            self.open_arr();
            for v in vs {
                self.arr_item();
                self.str_value(v);
            }
            self.close_arr();
        }

        fn str_value(&mut self, v: &str) {
            self.out.push('"');
            for c in v.chars() {
                match c {
                    '"' => self.out.push_str("\\\""),
                    '\\' => self.out.push_str("\\\\"),
                    '\n' => self.out.push_str("\\n"),
                    '\t' => self.out.push_str("\\t"),
                    '\r' => self.out.push_str("\\r"),
                    c if (c as u32) < 0x20 => {
                        self.out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => self.out.push(c),
                }
            }
            self.out.push('"');
        }

        pub fn finish(mut self) -> String {
            self.out.push('\n');
            self.out
        }
    }

    /// A parsed value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Str(String),
        Num(f64),
        Bool(bool),
        Arr(Vec<Value>),
        Obj(Obj),
    }

    /// A parsed object: insertion-ordered key/value pairs.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct Obj {
        pub fields: Vec<(String, Value)>,
    }

    impl Obj {
        fn get(&self, k: &str) -> Result<&Value, ReprError> {
            self.fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
                .ok_or_else(|| ReprError::Parse(format!("missing field {k:?}")))
        }

        pub fn get_str(&self, k: &str) -> Result<String, ReprError> {
            match self.get(k)? {
                Value::Str(s) => Ok(s.clone()),
                v => Err(type_err(k, "string", v)),
            }
        }

        pub fn get_num(&self, k: &str) -> Result<f64, ReprError> {
            match self.get(k)? {
                Value::Num(n) => Ok(*n),
                v => Err(type_err(k, "number", v)),
            }
        }

        pub fn get_bool(&self, k: &str) -> Result<bool, ReprError> {
            match self.get(k)? {
                Value::Bool(b) => Ok(*b),
                v => Err(type_err(k, "bool", v)),
            }
        }

        pub fn get_obj(&self, k: &str) -> Result<&Obj, ReprError> {
            match self.get(k)? {
                Value::Obj(o) => Ok(o),
                v => Err(type_err(k, "object", v)),
            }
        }

        pub fn get_arr(&self, k: &str) -> Result<&[Value], ReprError> {
            match self.get(k)? {
                Value::Arr(items) => Ok(items),
                v => Err(type_err(k, "array", v)),
            }
        }

        pub fn get_str_arr(&self, k: &str) -> Result<Vec<String>, ReprError> {
            self.get_arr(k)?
                .iter()
                .map(|v| match v {
                    Value::Str(s) => Ok(s.clone()),
                    v => Err(type_err(k, "string element", v)),
                })
                .collect()
        }
    }

    impl Value {
        pub fn as_obj(&self) -> Result<&Obj, ReprError> {
            match self {
                Value::Obj(o) => Ok(o),
                v => Err(ReprError::Parse(format!("expected object, got {v:?}"))),
            }
        }
    }

    fn type_err(k: &str, want: &str, got: &Value) -> ReprError {
        ReprError::Parse(format!("field {k:?}: expected {want}, got {got:?}"))
    }

    /// Parse one document; trailing content is an error.
    pub fn parse(text: &str) -> Result<Obj, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        match v {
            Value::Obj(o) => Ok(o),
            v => Err(format!("document is not an object: {v:?}")),
        }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(u8::is_ascii_whitespace)
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected {:?} at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|b| b as char)
                ))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') | Some(b'f') => self.boolean(),
                Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
                other => Err(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|b| b as char),
                    self.pos
                )),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(Obj { fields }));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.value()?;
                fields.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(Obj { fields }));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or '}}' at byte {}, found {:?}",
                            self.pos,
                            other.map(|b| b as char)
                        ))
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or ']' at byte {}, found {:?}",
                            self.pos,
                            other.map(|b| b as char)
                        ))
                    }
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| format!("invalid \\u{code:04x}"))?,
                                );
                                self.pos += 4;
                            }
                            other => {
                                return Err(format!(
                                    "unknown escape {:?}",
                                    other.map(|b| b as char)
                                ))
                            }
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar, not one byte.
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|e| e.to_string())?;
                        let c = rest.chars().next().ok_or("unterminated string")?;
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while self.peek().is_some_and(|b| {
                b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
            }) {
                self.pos += 1;
            }
            let text =
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }

        fn boolean(&mut self) -> Result<Value, String> {
            for (word, val) in [("true", true), ("false", false)] {
                if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                    self.pos += word.len();
                    return Ok(Value::Bool(val));
                }
            }
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Optimizer;
    use cb_catalog::scenarios::projdept;

    fn sample_outcome() -> (Catalog, OptimizeOutcome) {
        let mut c = projdept::catalog();
        projdept::stats_for(&mut c, 100, 10, 20);
        let outcome = Optimizer::new(&c).optimize(&projdept::query()).unwrap();
        (c, outcome)
    }

    #[test]
    fn render_parse_is_a_fixed_point() {
        let (_, outcome) = sample_outcome();
        let repr = PlanRepr::from_outcome(&outcome);
        let text = repr.render();
        let parsed = PlanRepr::parse(&text).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn load_verified_accepts_the_plan_it_came_from() {
        let (c, outcome) = sample_outcome();
        let repr = PlanRepr::from_outcome(&outcome);
        let (q, pipeline) = repr.load_verified(&c).unwrap();
        assert_eq!(q, outcome.best.query);
        assert_eq!(pipeline.layout().ops.len(), pipeline.ops.len());
    }

    #[test]
    fn load_verified_rejects_a_tampered_plan() {
        let (c, outcome) = sample_outcome();
        let repr = PlanRepr::from_outcome(&outcome);
        let mut text = repr.render();
        // Hand-edit the plan to read a root the catalog doesn't have.
        let best = outcome.best.query.to_string();
        let tampered = best.replace("SI", "Missing").replace("Proj", "Missing");
        assert_ne!(best, tampered);
        text = text.replace(&render_str(&best), &render_str(&tampered));
        let loaded = PlanRepr::parse(&text).unwrap();
        match loaded.load_verified(&c) {
            Err(ReprError::Rejected(report)) => {
                assert!(report.contains("Missing"), "{report}");
            }
            other => panic!("tampered plan was not rejected: {other:?}"),
        }
    }

    /// The JSON string rendering of `s`, for splicing edits into a
    /// rendered document in tests.
    fn render_str(s: &str) -> String {
        format!("{s:?}")
    }

    #[test]
    fn unknown_versions_are_refused() {
        let text = "{\"version\": 2, \"plan\": {}}";
        assert_eq!(PlanRepr::parse(text), Err(ReprError::Version(2)));
    }

    #[test]
    fn malformed_documents_fail_with_position() {
        for bad in ["", "{", "{\"version\": }", "[1,2]", "{\"a\":1} junk"] {
            assert!(
                matches!(PlanRepr::parse(bad), Err(ReprError::Parse(_))),
                "{bad:?}"
            );
        }
    }
}
