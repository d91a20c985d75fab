//! Serialization of buffered subtrees to output tokens.
//!
//! When the evaluator outputs a variable binding (`$x` or `$x/axis::ν`),
//! the buffered subtree is emitted to the output stream. Marked
//! (semantically deleted) nodes are never emitted; within output subtrees
//! every live node carries roles (the `dos::node()` dependency guarantees
//! it), so marked nodes can only be stale structural leftovers.

use crate::node::{BufKind, BufNodeId, BufferTree};
use gcx_xml::{TagInterner, XmlWriter};
use std::io::{self, Write};

impl BufferTree {
    /// Writes the subtree rooted at `id` to `w` as XML.
    pub fn write_subtree<W: Write>(
        &self,
        id: BufNodeId,
        tags: &TagInterner,
        w: &mut XmlWriter<W>,
    ) -> io::Result<()> {
        if self.is_marked(id) {
            return Ok(());
        }
        match self.kind(id) {
            BufKind::Root => {
                let mut c = self.first_child(id);
                while let Some(x) = c {
                    self.write_subtree(x, tags, w)?;
                    c = self.next_sibling(x);
                }
                Ok(())
            }
            BufKind::Text(sp) => w.text(self.span_str(*sp)),
            BufKind::Element(tag) => {
                let tag = *tag;
                w.open(tag, tags)?;
                let mut c = self.first_child(id);
                while let Some(x) = c {
                    self.write_subtree(x, tags, w)?;
                    c = self.next_sibling(x);
                }
                w.close(tag, tags)
            }
        }
    }

    /// The string value of a buffered node — the concatenation of all
    /// text in its subtree (XPath `string()`; needed for comparisons) —
    /// appended into a caller-provided (reusable) string: the comparison
    /// hot path evaluates one of these per condition per binding and must
    /// not allocate in steady state.
    pub fn string_value_into(&self, id: BufNodeId, out: &mut String) {
        self.collect_text(id, out);
    }

    fn collect_text(&self, id: BufNodeId, out: &mut String) {
        if self.is_marked(id) {
            return;
        }
        if let BufKind::Text(sp) = self.kind(id) {
            out.push_str(self.span_str(*sp));
            return;
        }
        let mut c = self.first_child(id);
        while let Some(x) = c {
            self.collect_text(x, out);
            c = self.next_sibling(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_projection::Role;
    use gcx_xml::TagInterner;

    fn build() -> (BufferTree, TagInterner, BufNodeId) {
        let mut tags = TagInterner::new();
        let book = tags.intern("book");
        let title = tags.intern("title");
        let mut b = BufferTree::new(4, &[]);
        let n1 = b.open_element(BufferTree::ROOT, book).unwrap();
        b.add_role(n1, Role(0));
        let n2 = b.open_element(n1, title).unwrap();
        b.add_role(n2, Role(0));
        let t = b.add_text(n2, "T<&ext").unwrap();
        b.add_role(t, Role(0));
        b.finish(n2);
        b.finish(n1);
        (b, tags, n1)
    }

    /// The subtree of `id` serialized through the writer.
    fn render(b: &BufferTree, tags: &TagInterner, id: BufNodeId) -> String {
        let mut out = Vec::new();
        b.write_subtree(id, tags, &mut XmlWriter::new(&mut out))
            .unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn serializes_with_escaping() {
        let (b, tags, n1) = build();
        assert_eq!(
            render(&b, &tags, n1),
            "<book><title>T&lt;&amp;ext</title></book>"
        );
    }

    #[test]
    fn string_value_concatenates() {
        let (b, _tags, n1) = build();
        let mut s = String::new();
        b.string_value_into(n1, &mut s);
        assert_eq!(s, "T<&ext");
    }

    #[test]
    fn marked_nodes_are_skipped() {
        let mut tags = TagInterner::new();
        let x = tags.intern("x");
        let y = tags.intern("y");
        let mut b = BufferTree::new(4, &[]);
        let n1 = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(n1, Role(0));
        let dead = b.open_element(n1, y).unwrap();
        b.add_role(dead, Role(1));
        b.pin(dead); // keep it navigable
        b.finish(dead);
        b.sign_off(dead, Role(1), 1).unwrap();
        // dead is pinned: not purged, not marked (pins block gc) — unpin
        // purges it.
        b.unpin(dead);
        b.finish(n1);
        assert_eq!(render(&b, &tags, n1), "<x></x>", "only <x></x> remains");
    }
}
