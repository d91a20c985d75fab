//! Projection trees (paper §2, Fig. 1/5/12).
//!
//! A projection tree is an unranked, unordered tree whose root is labeled
//! `/` and whose inner nodes are labeled with location steps. Each node may
//! define a role via the mapping `rπ`; during stream preprojection, a
//! document node that matches projection node `v` is buffered and annotated
//! with role `rπ(v)`.

use crate::path::{PAxis, PStep, PTest, Pred};
use crate::role::Role;
use gcx_xml::TagInterner;
use std::fmt::Write as _;

/// Index of a node in a [`ProjTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProjNodeId(pub u32);

impl ProjNodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of a projection tree.
#[derive(Debug, Clone)]
pub struct ProjNode {
    /// The location step labeling this node (ignored for the root).
    pub step: PStep,
    /// `rπ(v)` — the role this node assigns to matched document nodes, if
    /// any. Variable nodes and dependency-path terminals carry roles;
    /// intermediate chain nodes do not.
    pub role: Option<Role>,
    /// When true, the role is an *aggregate role* (paper §6): it is
    /// assigned only to the subtree root at match time and implicitly
    /// covers the descendants. Only meaningful on `dos::node()` nodes.
    pub aggregate: bool,
    pub parent: Option<ProjNodeId>,
    pub children: Vec<ProjNodeId>,
}

/// A projection tree.
#[derive(Debug, Clone, Default)]
pub struct ProjTree {
    nodes: Vec<ProjNode>,
}

impl ProjTree {
    /// The root node `/`.
    pub const ROOT: ProjNodeId = ProjNodeId(0);

    /// Creates a tree containing only the root.
    pub fn new() -> Self {
        ProjTree {
            nodes: vec![ProjNode {
                step: PStep::new(PAxis::Child, PTest::AnyNode),
                role: None,
                aggregate: false,
                parent: None,
                children: Vec::new(),
            }],
        }
    }

    /// Adds a child node labeled `step` under `parent`.
    pub fn add_child(&mut self, parent: ProjNodeId, step: PStep, role: Option<Role>) -> ProjNodeId {
        let id = ProjNodeId(self.nodes.len() as u32);
        self.nodes.push(ProjNode {
            step,
            role,
            aggregate: false,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Adds a whole relative path as a chain under `parent`, assigning
    /// `role` to the terminal node. Returns the terminal node id.
    pub fn add_path(
        &mut self,
        parent: ProjNodeId,
        steps: &[PStep],
        role: Option<Role>,
    ) -> ProjNodeId {
        assert!(!steps.is_empty(), "cannot add an empty path");
        let mut at = parent;
        for (i, s) in steps.iter().enumerate() {
            let r = if i + 1 == steps.len() { role } else { None };
            at = self.add_child(at, *s, r);
        }
        at
    }

    #[inline]
    pub fn node(&self, id: ProjNodeId) -> &ProjNode {
        &self.nodes[id.index()]
    }

    pub fn children(&self, id: ProjNodeId) -> &[ProjNodeId] {
        &self.nodes[id.index()].children
    }

    pub fn step(&self, id: ProjNodeId) -> PStep {
        self.nodes[id.index()].step
    }

    pub fn role(&self, id: ProjNodeId) -> Option<Role> {
        self.nodes[id.index()].role
    }

    /// Number of nodes including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// All node ids in creation order (root first).
    pub fn ids(&self) -> impl Iterator<Item = ProjNodeId> {
        (0..self.nodes.len() as u32).map(ProjNodeId)
    }

    /// True when any node carries a `[position() = 1]` predicate (the
    /// matcher then keeps a fired set per open element).
    pub fn has_positional(&self) -> bool {
        self.nodes.iter().any(|n| n.step.pred == Pred::First)
    }

    /// Marks the role of `id` as aggregate (paper §6). Only sensible for
    /// `dos::node()` terminals.
    pub fn set_aggregate(&mut self, id: ProjNodeId) {
        self.nodes[id.index()].aggregate = true;
    }

    /// The absolute path of `id` as a string (paper's "XPath representation
    /// of v": the path from the root `/` to `v`).
    pub fn xpath_of(&self, id: ProjNodeId, tags: &TagInterner) -> String {
        if id == Self::ROOT {
            return "/".to_string();
        }
        let mut parts = Vec::new();
        let mut at = Some(id);
        while let Some(n) = at {
            if n == Self::ROOT {
                break;
            }
            parts.push(n);
            at = self.node(n).parent;
        }
        parts.reverse();
        let mut s = String::new();
        for p in parts {
            let step = self.step(p);
            match step.axis {
                PAxis::Child => {
                    s.push('/');
                    let _ = write!(s, "{}", step.display_test(tags));
                }
                PAxis::Descendant => {
                    s.push_str("//");
                    let _ = write!(s, "{}", step.display_test(tags));
                }
                PAxis::DescendantOrSelf => {
                    s.push('/');
                    let _ = write!(s, "{}", step.display(tags));
                }
            }
        }
        s
    }

    /// Pretty-prints the tree in the style of paper Fig. 1.
    pub fn pretty(&self, tags: &TagInterner) -> String {
        let mut out = String::new();
        self.pretty_rec(Self::ROOT, 0, tags, &mut out);
        out
    }

    fn pretty_rec(&self, id: ProjNodeId, depth: usize, tags: &TagInterner, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let n = self.node(id);
        if id == Self::ROOT {
            out.push_str("n0: /");
        } else {
            let _ = write!(out, "n{}: {}", id.0, n.step.display(tags));
        }
        if let Some(r) = n.role {
            let _ = write!(out, "  [{r}{}]", if n.aggregate { ", agg" } else { "" });
        }
        out.push('\n');
        for &c in &n.children {
            self.pretty_rec(c, depth + 1, tags, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::RelPath;
    use gcx_xml::TagInterner;

    /// Builds the projection tree of paper Fig. 5(a):
    /// `/a/b/dos::node()` and `/a//b/dos::node()`.
    pub(crate) fn fig5_tree(tags: &mut TagInterner) -> ProjTree {
        let a = tags.intern("a");
        let b = tags.intern("b");
        let mut t = ProjTree::new();
        let v2 = t.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(a)), None);
        let v3 = t.add_child(v2, PStep::child(PTest::Tag(b)), None);
        let _v4 = t.add_child(v3, PStep::dos_node(), None);
        let v5 = t.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(a)), None);
        let v6 = t.add_child(v5, PStep::descendant(PTest::Tag(b)), None);
        let _v7 = t.add_child(v6, PStep::dos_node(), None);
        t
    }

    #[test]
    fn build_and_navigate() {
        let mut tags = TagInterner::new();
        let t = fig5_tree(&mut tags);
        assert_eq!(t.len(), 7);
        assert_eq!(t.children(ProjTree::ROOT).len(), 2);
        let v2 = t.children(ProjTree::ROOT)[0];
        assert_eq!(t.xpath_of(v2, &tags), "/a");
        let v3 = t.children(v2)[0];
        assert_eq!(t.xpath_of(v3, &tags), "/a/b");
    }

    #[test]
    fn xpath_descendant_notation() {
        let mut tags = TagInterner::new();
        let t = fig5_tree(&mut tags);
        let v5 = t.children(ProjTree::ROOT)[1];
        let v6 = t.children(v5)[0];
        assert_eq!(t.xpath_of(v6, &tags), "/a//b");
    }

    #[test]
    fn add_path_chains() {
        let mut tags = TagInterner::new();
        let title = tags.intern("title");
        let mut t = ProjTree::new();
        let path = RelPath::single(PStep::child(PTest::Tag(title))).then(PStep::dos_node());
        let end = t.add_path(ProjTree::ROOT, &path.steps, Some(Role(7)));
        assert_eq!(t.role(end), Some(Role(7)));
        let mid = t.node(end).parent.unwrap();
        assert_eq!(t.role(mid), None, "intermediate chain nodes are roleless");
    }

    #[test]
    fn has_positional_detects_pred() {
        let mut tags = TagInterner::new();
        let price = tags.intern("price");
        let mut t = ProjTree::new();
        assert!(!t.has_positional());
        t.add_child(
            ProjTree::ROOT,
            PStep::with_pred(PAxis::Child, PTest::Tag(price), Pred::First),
            Some(Role(4)),
        );
        assert!(t.has_positional());
    }

    #[test]
    fn pretty_shows_roles() {
        let mut tags = TagInterner::new();
        let bib = tags.intern("bib");
        let mut t = ProjTree::new();
        let n = t.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(bib)), Some(Role(2)));
        t.set_aggregate(n);
        let p = t.pretty(&tags);
        assert!(p.contains("bib"));
        assert!(p.contains("r2"));
        assert!(p.contains("agg"));
    }
}
