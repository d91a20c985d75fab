//! In-memory document trees (DOM).
//!
//! The paper's data model (§2): XML documents as unranked, ordered,
//! node-labeled trees over a two-sorted domain of element nodes (with tag
//! names) and text values. [`Document`] is the arena-based realization used
//! by the in-memory baseline engines and by document-projection tests
//! (paper Def. 1). The GCX engine itself never builds a full `Document` —
//! that is the whole point of the paper — but the baselines and the
//! differential-testing oracle do.

use crate::lexer::XmlLexer;
use crate::tags::{TagId, TagInterner};
use crate::token::XmlEvent;
use crate::writer::XmlWriter;
use crate::Result;
use std::io::{self, Read, Write};

/// Index of a node in a [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Payload of a document node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The virtual document root ("/" in the paper; parent of the document
    /// element). Exactly one per document, always [`Document::ROOT`].
    Root,
    /// An element node with an interned tag.
    Element(TagId),
    /// A text node.
    Text(String),
}

/// One node in the arena.
#[derive(Debug, Clone)]
pub struct DomNode {
    pub kind: NodeKind,
    pub parent: Option<NodeId>,
    pub children: Vec<NodeId>,
}

/// An in-memory XML document.
///
/// Node 0 is always the virtual root; the document element is its single
/// child (projected documents in tests may hang several children off the
/// root, which Def. 1 permits since only `root ∈ S` is required).
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<DomNode>,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// The virtual root node id.
    pub const ROOT: NodeId = NodeId(0);

    /// Creates a document containing only the virtual root.
    pub fn new() -> Self {
        Document {
            nodes: vec![DomNode {
                kind: NodeKind::Root,
                parent: None,
                children: Vec::new(),
            }],
        }
    }

    /// Parses a document from a reader.
    pub fn parse<R: Read>(reader: R, tags: &mut TagInterner) -> Result<Self> {
        let mut lexer = XmlLexer::new(reader, tags);
        let mut doc = Document::new();
        let mut stack = vec![Document::ROOT];
        while let Some(event) = lexer.next_event()? {
            match event {
                XmlEvent::Open(t) => {
                    let parent = *stack.last().expect("stack never empty");
                    let id = doc.add_child(parent, NodeKind::Element(t));
                    stack.push(id);
                }
                XmlEvent::Close(_) => {
                    stack.pop();
                }
                XmlEvent::Text(s) => {
                    let parent = *stack.last().expect("stack never empty");
                    doc.add_child(parent, NodeKind::Text(s.to_string()));
                }
            }
        }
        Ok(doc)
    }

    /// Parses from a string slice.
    pub fn parse_str(input: &str, tags: &mut TagInterner) -> Result<Self> {
        Self::parse(input.as_bytes(), tags)
    }

    /// Appends a child node under `parent` and returns its id.
    pub fn add_child(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(DomNode {
            kind,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Node accessor.
    #[inline]
    pub fn node(&self, id: NodeId) -> &DomNode {
        &self.nodes[id.index()]
    }

    /// Total number of nodes, including the virtual root (paper's `|T|`).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the virtual root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The document element, if present.
    pub fn document_element(&self) -> Option<NodeId> {
        self.node(Document::ROOT)
            .children
            .iter()
            .copied()
            .find(|&c| matches!(self.node(c).kind, NodeKind::Element(_)))
    }

    /// Children of `id` in document order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children
    }

    /// Tag of an element node, `None` for text/root.
    pub fn tag(&self, id: NodeId) -> Option<TagId> {
        match self.node(id).kind {
            NodeKind::Element(t) => Some(t),
            _ => None,
        }
    }

    /// True when the node is a text node.
    pub fn is_text(&self, id: NodeId) -> bool {
        matches!(self.node(id).kind, NodeKind::Text(_))
    }

    /// Descendants of `id` in document order, **excluding** `id`.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.node(id).children.iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.node(n).children.iter().rev());
        }
        out
    }

    /// The string value of a node: concatenated text descendants
    /// (XPath/XQuery `string()` semantics for elements and text nodes).
    pub fn string_value(&self, id: NodeId) -> String {
        let mut s = String::new();
        self.collect_text(id, &mut s);
        s
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match &self.node(id).kind {
            NodeKind::Text(t) => out.push_str(t),
            _ => {
                for &c in &self.node(id).children {
                    self.collect_text(c, out);
                }
            }
        }
    }

    /// Writes the subtree rooted at `id` to `w` as XML (the virtual root
    /// writes its children).
    pub fn write_subtree<W: Write>(
        &self,
        id: NodeId,
        tags: &TagInterner,
        w: &mut XmlWriter<W>,
    ) -> io::Result<()> {
        let node = self.node(id);
        if let NodeKind::Text(t) = &node.kind {
            return w.text(t);
        }
        if let NodeKind::Element(tag) = node.kind {
            w.open(tag, tags)?;
        }
        for &c in &node.children {
            self.write_subtree(c, tags, w)?;
        }
        match node.kind {
            NodeKind::Element(tag) => w.close(tag, tags),
            _ => Ok(()),
        }
    }

    /// Serializes the whole document to a string.
    pub fn to_xml(&self, tags: &TagInterner) -> String {
        let mut out = Vec::new();
        self.write_subtree(Document::ROOT, tags, &mut XmlWriter::new(&mut out))
            .expect("vec write");
        String::from_utf8(out).expect("utf8")
    }

    /// Approximate heap bytes of the tree (used to compare baseline memory
    /// against the GCX buffer watermark on equal footing).
    pub fn approx_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                std::mem::size_of::<DomNode>()
                    + n.children.len() * std::mem::size_of::<NodeId>()
                    + match &n.kind {
                        NodeKind::Text(t) => t.len(),
                        _ => 0,
                    }
            })
            .sum()
    }

    /// Computes the projection `Π_S(T)` of this document w.r.t. a node set
    /// (paper Def. 1): the tree consisting of exactly the nodes in `S`
    /// (plus the virtual root), with ancestor-descendant and following
    /// relationships preserved. Used as the reference semantics in
    /// projection tests (paper Fig. 3).
    pub fn project(&self, keep: &std::collections::HashSet<NodeId>) -> Document {
        let mut out = Document::new();
        let mut map: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        map[Document::ROOT.index()] = Some(Document::ROOT);
        // Walk in document order; attach each kept node to its nearest kept
        // ancestor.
        let order = self.descendants(Document::ROOT);
        for n in order {
            if !keep.contains(&n) && n != Document::ROOT {
                continue;
            }
            // find nearest kept ancestor
            let mut a = self.node(n).parent;
            let new_parent = loop {
                match a {
                    Some(p) => {
                        if let Some(mapped) = map[p.index()] {
                            break mapped;
                        }
                        a = self.node(p).parent;
                    }
                    None => break Document::ROOT,
                }
            };
            let id = out.add_child(new_parent, self.node(n).kind.clone());
            map[n.index()] = Some(id);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn sample() -> (Document, TagInterner) {
        let mut tags = TagInterner::new();
        let doc = Document::parse_str("<a><c/><d><b>t1</b></d><b>t2</b></a>", &mut tags).unwrap();
        (doc, tags)
    }

    #[test]
    fn parse_builds_tree() {
        let (doc, tags) = sample();
        let root_elem = doc.document_element().unwrap();
        assert_eq!(tags.name(doc.tag(root_elem).unwrap()), "a");
        assert_eq!(doc.children(root_elem).len(), 3);
    }

    #[test]
    fn string_value_concatenates() {
        let (doc, _) = sample();
        let a = doc.document_element().unwrap();
        assert_eq!(doc.string_value(a), "t1t2");
    }

    #[test]
    fn descendants_in_document_order() {
        let mut tags = TagInterner::new();
        let doc = Document::parse_str("<a><b><c/></b><d/></a>", &mut tags).unwrap();
        let a = doc.document_element().unwrap();
        let names: Vec<String> = doc
            .descendants(a)
            .iter()
            .map(|&n| tags.name(doc.tag(n).unwrap()).to_string())
            .collect();
        assert_eq!(names, vec!["b", "c", "d"]);
    }

    #[test]
    fn to_xml_roundtrips() {
        let input = "<a><c></c><d><b>t1</b></d><b>t2</b></a>";
        let mut tags = TagInterner::new();
        let doc = Document::parse_str(input, &mut tags).unwrap();
        assert_eq!(doc.to_xml(&tags), input);
    }

    /// Paper Fig. 3: document T with nodes n1..n5, projections
    /// Π_{n1,n4,n5}(T) and Π_{n1,n3,n4}(T).
    #[test]
    fn fig3_projection() {
        let mut tags = TagInterner::new();
        // T: n1:a has children n2:c, n3:d, n5:a ... per the figure, n4:b is
        // below n3:d, and n5:a is the last child of n1.
        let mut doc = Document::new();
        let a = tags.intern("a");
        let b = tags.intern("b");
        let c = tags.intern("c");
        let d = tags.intern("d");
        let n1 = doc.add_child(Document::ROOT, NodeKind::Element(a));
        let _n2 = doc.add_child(n1, NodeKind::Element(c));
        let n3 = doc.add_child(n1, NodeKind::Element(d));
        let n4 = doc.add_child(n3, NodeKind::Element(b));
        let n5 = doc.add_child(n1, NodeKind::Element(a));

        // Π_{n1,n4,n5}: n4 promoted to child of n1.
        let keep: HashSet<NodeId> = [n1, n4, n5].into_iter().collect();
        let p1 = doc.project(&keep);
        assert_eq!(p1.to_xml(&tags), "<a><b></b><a></a></a>");

        // Π_{n1,n3,n4}: structure preserved below n3.
        let keep2: HashSet<NodeId> = [n1, n3, n4].into_iter().collect();
        let p2 = doc.project(&keep2);
        assert_eq!(p2.to_xml(&tags), "<a><d><b></b></d></a>");
    }

    #[test]
    fn projection_preserves_order() {
        let mut tags = TagInterner::new();
        let doc = Document::parse_str("<a><x>1</x><y>2</y><z>3</z></a>", &mut tags).unwrap();
        let a = doc.document_element().unwrap();
        let kids = doc.children(a).to_vec();
        let keep: HashSet<NodeId> = [a, kids[0], kids[2]].into_iter().collect();
        let p = doc.project(&keep);
        assert_eq!(p.to_xml(&tags), "<a><x></x><z></z></a>");
    }

    #[test]
    fn approx_bytes_nonzero() {
        let (doc, _) = sample();
        assert!(doc.approx_bytes() > 0);
    }

    #[test]
    fn empty_document() {
        let doc = Document::new();
        assert!(doc.is_empty());
        assert!(doc.document_element().is_none());
    }
}
