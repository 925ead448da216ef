//! A small e-graph: hash-consed path terms, union-find with congruence
//! closure, and cheapest-term extraction.
//!
//! This single structure backs all of the chase machinery:
//!
//! * **chase applicability** — is an equality already implied?
//! * **backchase subqueries** — re-express bindings/outputs avoiding the
//!   removed variables, and compute the maximal implied condition set
//!   `C'` (paper §3, "build a database instance out of the syntax of Q,
//!   grouping terms in congruence classes according to the equalities
//!   that appear in C");
//! * **containment mappings** — compare images of paths up to the
//!   where-clause congruence.
//!
//! Sizes are tiny (a universal plan has tens of terms), so we favour a
//! simple rebuild-to-fixpoint implementation over incremental congruence
//! maintenance.

use std::collections::{BTreeMap, BTreeSet};

use pcql::path::{Constant, Path};

/// Identifier of an e-class (canonical node id).
pub type ClassId = usize;

/// Node id (index into the node table).
pub type NodeId = usize;

/// A hash-consed path constructor whose children are e-class ids.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ENode {
    Var(String),
    Const(Constant),
    Root(String),
    Field(ClassId, String),
    Dom(ClassId),
    Get(ClassId, ClassId),
    GetOrEmpty(ClassId, ClassId),
}

impl ENode {
    fn children(&self) -> Vec<ClassId> {
        match self {
            ENode::Var(_) | ENode::Const(_) | ENode::Root(_) => vec![],
            ENode::Field(c, _) | ENode::Dom(c) => vec![*c],
            ENode::Get(a, b) | ENode::GetOrEmpty(a, b) => vec![*a, *b],
        }
    }

    fn map_children(&self, mut f: impl FnMut(ClassId) -> ClassId) -> ENode {
        match self {
            ENode::Var(_) | ENode::Const(_) | ENode::Root(_) => self.clone(),
            ENode::Field(c, a) => ENode::Field(f(*c), a.clone()),
            ENode::Dom(c) => ENode::Dom(f(*c)),
            ENode::Get(a, b) => ENode::Get(f(*a), f(*b)),
            ENode::GetOrEmpty(a, b) => ENode::GetOrEmpty(f(*a), f(*b)),
        }
    }
}

/// The e-graph.
#[derive(Debug, Clone, Default)]
pub struct EGraph {
    /// Union-find parents over node ids (class id = canonical node id).
    parent: Vec<NodeId>,
    /// Node table; children ids may become stale after unions and are
    /// canonicalized on read.
    nodes: Vec<ENode>,
    /// Canonical enode -> node id memo.
    memo: BTreeMap<ENode, NodeId>,
}

impl EGraph {
    pub fn new() -> EGraph {
        EGraph::default()
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Canonical class of a node id.
    pub fn find(&self, mut x: NodeId) -> ClassId {
        while self.parent[x] != x {
            x = self.parent[x];
        }
        x
    }

    fn find_compress(&mut self, mut x: NodeId) -> ClassId {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn canonicalize(&self, node: &ENode) -> ENode {
        node.map_children(|c| self.find(c))
    }

    /// Interns an enode (children must already be canonical ids).
    fn add_node(&mut self, node: ENode) -> ClassId {
        let node = self.canonicalize(&node);
        if let Some(&id) = self.memo.get(&node) {
            return self.find(id);
        }
        let id = self.nodes.len();
        self.nodes.push(node.clone());
        self.parent.push(id);
        self.memo.insert(node, id);
        id
    }

    /// Interns a whole path, returning its e-class.
    pub fn add_path(&mut self, p: &Path) -> ClassId {
        match p {
            Path::Var(v) => self.add_node(ENode::Var(v.clone())),
            Path::Const(c) => self.add_node(ENode::Const(c.clone())),
            Path::Root(r) => self.add_node(ENode::Root(r.clone())),
            Path::Field(q, a) => {
                let c = self.add_path(q);
                self.add_node(ENode::Field(c, a.clone()))
            }
            Path::Dom(q) => {
                let c = self.add_path(q);
                self.add_node(ENode::Dom(c))
            }
            Path::Get(m, k) => {
                let cm = self.add_path(m);
                let ck = self.add_path(k);
                self.add_node(ENode::Get(cm, ck))
            }
            Path::GetOrEmpty(m, k) => {
                let cm = self.add_path(m);
                let ck = self.add_path(k);
                self.add_node(ENode::GetOrEmpty(cm, ck))
            }
        }
    }

    /// Merges the classes of two node ids and restores congruence.
    pub fn union(&mut self, a: NodeId, b: NodeId) -> bool {
        let (ra, rb) = (self.find_compress(a), self.find_compress(b));
        if ra == rb {
            return false;
        }
        // Keep the smaller id as canonical for determinism.
        let (keep, kill) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[kill] = keep;
        self.rebuild();
        true
    }

    /// Restores the congruence invariant by re-canonicalizing every node
    /// and merging duplicates, to fixpoint.
    fn rebuild(&mut self) {
        loop {
            let mut pending: Vec<(NodeId, NodeId)> = Vec::new();
            let mut memo: BTreeMap<ENode, NodeId> = BTreeMap::new();
            for id in 0..self.nodes.len() {
                let canon = self.canonicalize(&self.nodes[id].clone());
                match memo.get(&canon) {
                    Some(&other) if self.find(other) != self.find(id) => {
                        pending.push((other, id));
                    }
                    Some(_) => {}
                    None => {
                        memo.insert(canon, id);
                    }
                }
            }
            if pending.is_empty() {
                self.memo = memo;
                return;
            }
            for (a, b) in pending {
                let (ra, rb) = (self.find_compress(a), self.find_compress(b));
                if ra != rb {
                    let (keep, kill) = if ra < rb { (ra, rb) } else { (rb, ra) };
                    self.parent[kill] = keep;
                }
            }
        }
    }

    /// Interns both paths and unions their classes.
    pub fn union_paths(&mut self, a: &Path, b: &Path) -> bool {
        let ca = self.add_path(a);
        let cb = self.add_path(b);
        self.union(ca, cb)
    }

    /// Are two paths congruent under the recorded equalities?
    /// (Interns them as a side effect.)
    pub fn paths_equal(&mut self, a: &Path, b: &Path) -> bool {
        let ca = self.add_path(a);
        let cb = self.add_path(b);
        self.find(ca) == self.find(cb)
    }

    /// All distinct canonical classes.
    pub fn classes(&self) -> BTreeSet<ClassId> {
        (0..self.nodes.len()).map(|id| self.find(id)).collect()
    }

    /// The constant of a class, if it contains one.
    pub fn class_constant(&self, class: ClassId) -> Option<&Constant> {
        let class = self.find(class);
        self.nodes.iter().enumerate().find_map(|(id, n)| match n {
            ENode::Const(c) if self.find(id) == class => Some(c),
            _ => None,
        })
    }

    /// Per-class cheapest extraction avoiding the forbidden variables.
    /// Entry `i` (for canonical class ids) holds `(cost, node)` of the
    /// best realizable node, or `None` if every term of the class
    /// mentions a forbidden variable.
    fn extraction_table(&self, forbidden: &BTreeSet<String>) -> Vec<Option<(usize, NodeId)>> {
        let mut best: Vec<Option<(usize, NodeId)>> = vec![None; self.nodes.len()];
        loop {
            let mut changed = false;
            for (id, node) in self.nodes.iter().enumerate() {
                if let ENode::Var(v) = node {
                    if forbidden.contains(v) {
                        continue;
                    }
                }
                let mut cost = 1usize;
                let mut ok = true;
                for child in node.children() {
                    match best[self.find(child)] {
                        Some((c, _)) => cost += c,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                let class = self.find(id);
                if best[class].is_none_or(|(c, n)| cost < c || (cost == c && id < n)) {
                    best[class] = Some((cost, id));
                    changed = true;
                }
            }
            if !changed {
                return best;
            }
        }
    }

    /// Canonical representative per class: minimum cost, ties broken by
    /// the structural order of the realized paths (so the result is
    /// independent of insertion order). Classes are finalized in
    /// increasing cost order, so children are canonical before parents.
    fn canonical_reprs(&self, forbidden: &BTreeSet<String>) -> BTreeMap<ClassId, Path> {
        let table = self.extraction_table(forbidden);
        let mut order: Vec<(usize, ClassId)> = table
            .iter()
            .enumerate()
            .filter_map(|(class, entry)| entry.map(|(cost, _)| (cost, class)))
            .collect();
        order.sort_unstable();
        let mut reprs: BTreeMap<ClassId, Path> = BTreeMap::new();
        for (cost, class) in order {
            let mut best: Option<Path> = None;
            for (id, node) in self.nodes.iter().enumerate() {
                if self.find(id) != class {
                    continue;
                }
                let Some(path) = self.realize_node(node, &table, &reprs, forbidden) else {
                    continue;
                };
                if path.size() != cost {
                    continue;
                }
                if best.as_ref().is_none_or(|b| path < *b) {
                    best = Some(path);
                }
            }
            if let Some(p) = best {
                reprs.insert(class, p);
            }
        }
        reprs
    }

    /// Realizes one node using the canonical child representatives;
    /// `None` if a child is unrealizable or the node's own variable is
    /// forbidden.
    fn realize_node(
        &self,
        node: &ENode,
        table: &[Option<(usize, NodeId)>],
        reprs: &BTreeMap<ClassId, Path>,
        forbidden: &BTreeSet<String>,
    ) -> Option<Path> {
        let child = |c: ClassId| -> Option<Path> {
            let class = self.find(c);
            // When finalizing in cost order, strictly cheaper children are
            // already canonical; fall back to the table otherwise.
            reprs.get(&class).cloned().or_else(|| {
                let (_, n) = table[class]?;
                self.realize_node(&self.nodes[n].clone(), table, reprs, forbidden)
            })
        };
        match node {
            ENode::Var(v) => {
                if forbidden.contains(v) {
                    None
                } else {
                    Some(Path::Var(v.clone()))
                }
            }
            ENode::Const(c) => Some(Path::Const(c.clone())),
            ENode::Root(r) => Some(Path::Root(r.clone())),
            ENode::Field(c, a) => Some(child(*c)?.field(a.clone())),
            ENode::Dom(c) => Some(child(*c)?.dom()),
            ENode::Get(m, k) => Some(child(*m)?.get(child(*k)?)),
            ENode::GetOrEmpty(m, k) => Some(child(*m)?.get_or_empty(child(*k)?)),
        }
    }

    /// The cheapest path of `class` that avoids all `forbidden` variables,
    /// if one exists.
    pub fn extract(&self, class: ClassId, forbidden: &BTreeSet<String>) -> Option<Path> {
        self.canonical_reprs(forbidden)
            .get(&self.find(class))
            .cloned()
    }

    /// For every class, every realizable path (one per node of the class,
    /// with canonical realizable children), avoiding `forbidden`
    /// variables. This is the ingredient of the *maximal* implied
    /// condition set `C'`.
    pub fn realizable_paths(&self, forbidden: &BTreeSet<String>) -> BTreeMap<ClassId, Vec<Path>> {
        let table = self.extraction_table(forbidden);
        let reprs = self.canonical_reprs(forbidden);
        let mut out: BTreeMap<ClassId, Vec<Path>> = BTreeMap::new();
        for (id, node) in self.nodes.iter().enumerate() {
            let Some(path) = self.realize_node(node, &table, &reprs, forbidden) else {
                continue;
            };
            let class = self.find(id);
            let entry = out.entry(class).or_default();
            if !entry.contains(&path) {
                entry.push(path);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn none() -> BTreeSet<String> {
        BTreeSet::new()
    }

    #[test]
    fn interning_is_structural() {
        let mut g = EGraph::new();
        let a = g.add_path(&Path::var("x").field("A"));
        let b = g.add_path(&Path::var("x").field("A"));
        assert_eq!(a, b);
        let c = g.add_path(&Path::var("x").field("B"));
        assert_ne!(g.find(a), g.find(c));
    }

    #[test]
    fn union_merges_classes() {
        let mut g = EGraph::new();
        let x = g.add_path(&Path::var("x"));
        let y = g.add_path(&Path::var("y"));
        assert_ne!(g.find(x), g.find(y));
        assert!(g.union(x, y));
        assert_eq!(g.find(x), g.find(y));
        // Idempotent.
        assert!(!g.union(x, y));
    }

    #[test]
    fn congruence_propagates_through_fields() {
        let mut g = EGraph::new();
        let xa = g.add_path(&Path::var("x").field("A"));
        let ya = g.add_path(&Path::var("y").field("A"));
        assert_ne!(g.find(xa), g.find(ya));
        g.union_paths(&Path::var("x"), &Path::var("y"));
        assert_eq!(g.find(xa), g.find(ya));
        // New terms built after the union are also congruent.
        assert!(g.paths_equal(
            &Path::var("x").field("B").dom(),
            &Path::var("y").field("B").dom()
        ));
    }

    #[test]
    fn congruence_propagates_through_lookups() {
        let mut g = EGraph::new();
        // i = p.PName  =>  I[i] = I[p.PName]
        let l1 = g.add_path(&Path::root("I").get(Path::var("i")));
        let l2 = g.add_path(&Path::root("I").get(Path::var("p").field("PName")));
        assert_ne!(g.find(l1), g.find(l2));
        g.union_paths(&Path::var("i"), &Path::var("p").field("PName"));
        assert_eq!(g.find(l1), g.find(l2));
    }

    #[test]
    fn transitive_chains() {
        let mut g = EGraph::new();
        g.union_paths(&Path::var("a"), &Path::var("b"));
        g.union_paths(&Path::var("b"), &Path::var("c"));
        assert!(g.paths_equal(&Path::var("a"), &Path::var("c")));
        assert!(g.paths_equal(&Path::var("a").field("F"), &Path::var("c").field("F")));
    }

    #[test]
    fn class_constant_lookup() {
        let mut g = EGraph::new();
        let k = g.add_path(&Path::var("k"));
        assert_eq!(g.class_constant(k), None);
        g.union_paths(&Path::var("k"), &Path::str("CitiBank"));
        assert_eq!(g.class_constant(k), Some(&Constant::Str("CitiBank".into())));
    }

    #[test]
    fn extraction_picks_cheapest() {
        let mut g = EGraph::new();
        // s = p.PName: extracting s's class should pick the variable.
        let s = g.add_path(&Path::var("s"));
        g.union_paths(&Path::var("s"), &Path::var("p").field("PName"));
        assert_eq!(g.extract(s, &none()), Some(Path::var("s")));
        // Forbidding s forces the longer form.
        let fb: BTreeSet<String> = ["s".to_string()].into();
        assert_eq!(g.extract(s, &fb), Some(Path::var("p").field("PName")));
        // Forbidding both leaves nothing.
        let fb2: BTreeSet<String> = ["s".to_string(), "p".to_string()].into();
        assert_eq!(g.extract(s, &fb2), None);
    }

    #[test]
    fn extraction_reconstructs_nested_terms() {
        let mut g = EGraph::new();
        // i = j.PN and the term I[i] exists; extracting I[i]'s class while
        // forbidding i must produce I[j.PN] — the paper's P4 rewrite.
        let lookup = g.add_path(&Path::root("I").get(Path::var("i")));
        g.union_paths(&Path::var("i"), &Path::var("j").field("PN"));
        let fb: BTreeSet<String> = ["i".to_string()].into();
        assert_eq!(
            g.extract(lookup, &fb),
            Some(Path::root("I").get(Path::var("j").field("PN")))
        );
    }

    #[test]
    fn realizable_paths_enumerate_alternatives() {
        let mut g = EGraph::new();
        let s = g.add_path(&Path::var("s"));
        g.union_paths(&Path::var("s"), &Path::var("p").field("PName"));
        let reals = g.realizable_paths(&none());
        let class = g.find(s);
        let paths = &reals[&class];
        assert!(paths.contains(&Path::var("s")));
        assert!(paths.contains(&Path::var("p").field("PName")));
    }

    #[test]
    fn deep_congruence_chain() {
        let mut g = EGraph::new();
        // d = d'  =>  Dept[d].DProjs = Dept[d'].DProjs
        let a = g.add_path(&Path::root("Dept").get(Path::var("d")).field("DProjs"));
        let b = g.add_path(&Path::root("Dept").get(Path::var("dp")).field("DProjs"));
        g.union_paths(&Path::var("d"), &Path::var("dp"));
        assert_eq!(g.find(a), g.find(b));
    }

    #[test]
    fn unions_are_deterministic() {
        let mut g1 = EGraph::new();
        g1.union_paths(&Path::var("a"), &Path::var("b"));
        let mut g2 = EGraph::new();
        g2.union_paths(&Path::var("b"), &Path::var("a"));
        let a1 = g1.add_path(&Path::var("a"));
        let a2 = g2.add_path(&Path::var("a"));
        assert_eq!(g1.extract(a1, &none()), g2.extract(a2, &none()));
    }
}
