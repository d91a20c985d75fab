//! Matching an XML token stream against a projection tree.
//!
//! This implements the runtime side of paper §2: while reading the input
//! stream, each token is matched against the projection tree, and
//!
//! 1. a node is preserved (buffered, with roles) when the "successor state
//!    maps to a node in the projection tree" — condition (1);
//! 2. a node is preserved *without* roles when discarding it could promote
//!    a descendant into a false `child::` match — condition (2),
//!    paper Example 2.
//!
//! Role multiplicities follow the paper's multiset semantics (Example 1:
//! `//a//b` matches `/a/a/b` in two ways, so the node receives the role
//! twice — Example 3, Fig. 4(c)).
//!
//! Every projection tree runs on the paper's lazily constructed DFA
//! ([`crate::dfa::LazyDfa`]): the matcher keeps the stack of DFA states
//! of the open elements, and transitions are memoized per
//! `(state, tag)`. `[position() = 1]` steps are "first witness below this
//! origin instance", which no finite state captures; the matcher keeps
//! one fired set per open element beside the state stack (only when the
//! tree has a positional step), and the DFA filters positional
//! candidates through it on the events that meet one (the DFA's module
//! docs, "First witnesses").
//!
//! The hot path allocates nothing in steady state: states, roles and
//! scratch live in the DFA's arenas, which is also why [`Outcome`]
//! borrows its roles instead of owning a `Vec`.

use crate::dfa::{LazyDfa, StateId};
use crate::role::Role;
use crate::tree::ProjTree;
use gcx_xml::{SearchScope, TagId};
use std::borrow::Borrow;

/// The matcher's verdict for one input node.
///
/// `roles` borrows from the matcher's internal storage (the DFA's role
/// arena or scratch), so producing an outcome allocates nothing; copy the
/// roles out before the next matcher call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome<'m> {
    /// Copy this input node into the buffer? True when it matches
    /// (condition (1)) or must be kept for condition (2).
    pub buffer: bool,
    /// Role instances to assign (repeats encode multiplicity).
    pub roles: &'m [Role],
}

/// Streaming projection matcher (see module docs). `P` owns or lends the
/// projection tree: `&ProjTree` in a stack frame, an owner of the whole
/// compiled query inside a suspended engine.
pub struct StreamMatcher<P: Borrow<ProjTree>> {
    tree: P,
    dfa: LazyDfa,
    /// DFA states of the open elements, the virtual root first.
    stack: Vec<StateId>,
    /// Fired sets of the open elements, [`LazyDfa::fired_words`] words
    /// per `stack` entry (none when the tree has no positional step).
    fired: Vec<u64>,
}

impl<P: Borrow<ProjTree>> StreamMatcher<P> {
    /// Creates a matcher positioned at the virtual document root.
    pub fn new(tree: P) -> Self {
        let dfa = LazyDfa::new(tree.borrow());
        let fired = vec![0; dfa.fired_words()];
        StreamMatcher {
            tree,
            dfa,
            stack: vec![LazyDfa::INITIAL],
            fired,
        }
    }

    /// Roles the virtual document root itself carries (non-empty only when
    /// the query outputs `$root`).
    pub fn root_roles(&self) -> &[Role] {
        self.dfa.entry_roles(LazyDfa::INITIAL)
    }

    /// True when nothing below the current position can match: the
    /// preprojector may skip the whole subtree without consulting the
    /// matcher (it must still track nesting itself).
    pub fn is_dead(&self) -> bool {
        self.dfa
            .is_dead(*self.stack.last().expect("stack never empty"))
    }

    /// The scope and exit tags of the current position when its DFA state
    /// is a search state of either scope (the DFA's module docs, "Search
    /// states"), `None` for any other state.
    #[inline]
    pub fn search(&self) -> Option<(SearchScope, &[TagId])> {
        self.dfa
            .search(*self.stack.last().expect("stack never empty"))
    }

    /// The copy verdict of the current position (the DFA's module docs,
    /// "Copy states"): the role of its one `dos::node()` edge and the exit
    /// tags, when every element with any other tag, and every text node,
    /// below it would get only that edge's role, and each such element
    /// lands in a position with the same verdict. `None` otherwise.
    #[inline]
    pub fn copy_exits(&self) -> Option<(Role, &[TagId])> {
        self.dfa
            .copy_exits(*self.stack.last().expect("stack never empty"))
    }

    /// Processes an opening tag; returns the buffering verdict.
    pub fn open(&mut self, tag: TagId) -> Outcome<'_> {
        let from = *self.stack.last().expect("stack never empty");
        let to = match self.dfa.transition(self.tree.borrow(), from, tag) {
            Some(to) => to,
            None => self
                .dfa
                .first_witness(self.tree.borrow(), &self.stack, &mut self.fired, tag),
        };
        self.stack.push(to);
        // The new element has fired no positional step yet.
        self.fired
            .resize(self.fired.len() + self.dfa.fired_words(), 0);
        Outcome {
            buffer: self.dfa.has_matches(to) || self.dfa.preserve_children(from),
            roles: self.dfa.entry_roles(to),
        }
    }

    /// Processes a closing tag.
    pub fn close(&mut self) {
        self.stack.pop();
        debug_assert!(!self.stack.is_empty(), "close below the document root");
        self.fired
            .truncate(self.stack.len() * self.dfa.fired_words());
    }

    /// Processes a text node (text has no children: nothing is pushed).
    pub fn text(&mut self) -> Outcome<'_> {
        let (buffer, roles) = self
            .dfa
            .text(self.tree.borrow(), &self.stack, &mut self.fired);
        Outcome { buffer, roles }
    }

    /// True: every projection tree runs on the lazy DFA.
    pub fn uses_dfa(&self) -> bool {
        true
    }

    /// Number of DFA states constructed so far. Lets tests and the bench
    /// harness observe laziness.
    pub fn dfa_states(&self) -> usize {
        self.dfa.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{PAxis, PStep, PTest, Pred, RelPath};
    use crate::role::RoleSet;
    use gcx_xml::{TagInterner, XmlError, XmlEvent, XmlLexer, XmlWriter};

    include!("../../xml/tests/support/tokens.rs");

    /// Drives a matcher over a document string; returns per-node outcomes
    /// rendered as `(path-ish label, buffered, roles)`.
    fn run(tree: &ProjTree, tags: &mut TagInterner, doc: &str) -> Vec<(String, bool, String)> {
        let mut lexer = XmlLexer::new(doc.as_bytes(), &mut *tags);
        let tokens = lexer.tokenize_all().unwrap();
        let mut m = StreamMatcher::new(tree);
        let mut out = Vec::new();
        let mut path: Vec<String> = Vec::new();
        for t in &tokens {
            match t {
                XmlToken::Open(tag) => {
                    path.push(tags.name(*tag).to_string());
                    let o = m.open(*tag);
                    let rs: RoleSet = o.roles.iter().copied().collect();
                    out.push((format!("/{}", path.join("/")), o.buffer, rs.to_string()));
                }
                XmlToken::Close(_) => {
                    m.close();
                    path.pop();
                }
                XmlToken::Text(_) => {
                    let o = m.text();
                    let rs: RoleSet = o.roles.iter().copied().collect();
                    out.push((
                        format!("/{}/text()", path.join("/")),
                        o.buffer,
                        rs.to_string(),
                    ));
                }
            }
        }
        out
    }

    /// Fig. 4(b): t = v1:/ with v2:.//a, and v3:.//b below v2;
    /// rπ(v2)=r2, rπ(v3)=r3.
    fn fig4b_tree(tags: &mut TagInterner) -> ProjTree {
        let a = tags.intern("a");
        let b = tags.intern("b");
        let mut t = ProjTree::new();
        let v2 = t.add_child(
            ProjTree::ROOT,
            PStep::descendant(PTest::Tag(a)),
            Some(Role(2)),
        );
        let _v3 = t.add_child(v2, PStep::descendant(PTest::Tag(b)), Some(Role(3)));
        t
    }

    /// The document of Fig. 4(a): n1:a { n2:a { n3:b }, n4:b }.
    const FIG4_DOC: &str = "<a><a><b></b></a><b></b></a>";

    /// Paper Example 3 / Fig. 4(c): the first b (path /a/a/b) gets {r3,r3}
    /// because //a//b matches it with multiplicity 2; the second b (path
    /// /a/b) gets {r3}.
    #[test]
    fn fig4c_role_multiplicity() {
        let mut tags = TagInterner::new();
        let tree = fig4b_tree(&mut tags);
        let out = run(&tree, &mut tags, FIG4_DOC);
        assert_eq!(
            out,
            vec![
                ("/a".to_string(), true, "{r2}".to_string()),
                ("/a/a".to_string(), true, "{r2}".to_string()),
                ("/a/a/b".to_string(), true, "{r3,r3}".to_string()),
                ("/a/b".to_string(), true, "{r3}".to_string()),
            ]
        );
    }

    /// Fig. 4(d): t' = v1:/ with *independent* v2:.//a and v3:.//b.
    /// Each b gets r3 exactly once (Fig. 4(e)).
    #[test]
    fn fig4e_independent_paths() {
        let mut tags = TagInterner::new();
        let a = tags.intern("a");
        let b = tags.intern("b");
        let mut tree = ProjTree::new();
        tree.add_child(
            ProjTree::ROOT,
            PStep::descendant(PTest::Tag(a)),
            Some(Role(2)),
        );
        tree.add_child(
            ProjTree::ROOT,
            PStep::descendant(PTest::Tag(b)),
            Some(Role(3)),
        );
        let out = run(&tree, &mut tags, FIG4_DOC);
        assert_eq!(
            out,
            vec![
                ("/a".to_string(), true, "{r2}".to_string()),
                ("/a/a".to_string(), true, "{r2}".to_string()),
                ("/a/a/b".to_string(), true, "{r3}".to_string()),
                ("/a/b".to_string(), true, "{r3}".to_string()),
            ]
        );
    }

    /// Paper Example 2: projecting with tree {/a/b, /a//b} (Fig. 5(a)),
    /// node n2 (= second `a` at path /a/a) matches nothing but is preserved
    /// by condition (2): v2 has child ./b, v5 has child .//b.
    #[test]
    fn example2_condition_two() {
        let mut tags = TagInterner::new();
        let a = tags.intern("a");
        let b = tags.intern("b");
        let mut tree = ProjTree::new();
        let v2 = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(a)), None);
        let v3 = tree.add_child(v2, PStep::child(PTest::Tag(b)), Some(Role(1)));
        tree.add_child(v3, PStep::dos_node(), Some(Role(10)));
        let v5 = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(a)), None);
        let v6 = tree.add_child(v5, PStep::descendant(PTest::Tag(b)), Some(Role(2)));
        tree.add_child(v6, PStep::dos_node(), Some(Role(20)));

        let out = run(&tree, &mut tags, FIG4_DOC);
        // /a matches v2,v5 (roleless variable-ish nodes here) — buffered?
        // v2/v5 carry no roles in Fig. 5; they match, so condition (1) holds.
        assert_eq!(out[0].0, "/a");
        assert!(out[0].1);
        // /a/a matches nothing, but is structurally preserved.
        assert_eq!(out[1], ("/a/a".to_string(), true, "{}".to_string()));
        // /a/a/b matches //b (+ its dos self-closure r20).
        assert_eq!(out[2], ("/a/a/b".to_string(), true, "{r2,r20}".to_string()));
        // /a/b matches both ./b and //b (+ both dos closures).
        assert_eq!(
            out[3],
            ("/a/b".to_string(), true, "{r1,r2,r10,r20}".to_string())
        );
    }

    /// Without a competing child:: edge, unmatched intermediates are skipped.
    #[test]
    fn no_structural_preservation_without_child_edges() {
        let mut tags = TagInterner::new();
        let b = tags.intern("b");
        tags.intern("a");
        let mut tree = ProjTree::new();
        tree.add_child(
            ProjTree::ROOT,
            PStep::descendant(PTest::Tag(b)),
            Some(Role(1)),
        );
        let out = run(&tree, &mut tags, FIG4_DOC);
        assert_eq!(out[0], ("/a".to_string(), false, "{}".to_string()));
        assert_eq!(out[1], ("/a/a".to_string(), false, "{}".to_string()));
        assert!(out[2].1);
        assert!(out[3].1);
    }

    /// `[position()=1]` keeps only the first witness *per origin instance*.
    #[test]
    fn positional_first_child() {
        let mut tags = TagInterner::new();
        let x = tags.intern("x");
        let price = tags.intern("price");
        let mut tree = ProjTree::new();
        let vx = tree.add_child(
            ProjTree::ROOT,
            PStep::descendant(PTest::Tag(x)),
            Some(Role(1)),
        );
        tree.add_child(
            vx,
            PStep::with_pred(PAxis::Child, PTest::Tag(price), Pred::First),
            Some(Role(4)),
        );
        let doc = "<x><price>1</price><price>2</price></x>";
        let out = run(&tree, &mut tags, doc);
        assert_eq!(out[0].2, "{r1}");
        assert_eq!(out[1], ("/x/price".to_string(), true, "{r4}".to_string()));
        // Second price: no match, not buffered.
        assert_eq!(out[3], ("/x/price".to_string(), false, "{}".to_string()));
    }

    /// Positional firing is per ancestor instance: each `x` gets its own
    /// first price.
    #[test]
    fn positional_resets_per_instance() {
        let mut tags = TagInterner::new();
        let x = tags.intern("x");
        let price = tags.intern("price");
        let mut tree = ProjTree::new();
        let vx = tree.add_child(
            ProjTree::ROOT,
            PStep::descendant(PTest::Tag(x)),
            Some(Role(1)),
        );
        tree.add_child(
            vx,
            PStep::with_pred(PAxis::Child, PTest::Tag(price), Pred::First),
            Some(Role(4)),
        );
        let doc = "<r><x><price>1</price></x><x><price>2</price></x></r>";
        let out = run(&tree, &mut tags, doc);
        let buffered_prices: Vec<_> = out
            .iter()
            .filter(|(p, b, _)| p == "/r/x/price" && *b)
            .collect();
        assert_eq!(buffered_prices.len(), 2);
    }

    /// Positional firing with descendant axis: first witness in the whole
    /// subtree of the origin instance.
    #[test]
    fn positional_descendant_first() {
        let mut tags = TagInterner::new();
        let x = tags.intern("x");
        let k = tags.intern("k");
        let mut tree = ProjTree::new();
        let vx = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(x)), Some(Role(1)));
        tree.add_child(
            vx,
            PStep::with_pred(PAxis::Descendant, PTest::Tag(k), Pred::First),
            Some(Role(2)),
        );
        let doc = "<x><d><k>deep</k></d><k>shallow</k></x>";
        let out = run(&tree, &mut tags, doc);
        // The deep k comes first in document order and is the only witness.
        let ks: Vec<_> = out.iter().filter(|(p, _, _)| p.ends_with("/k")).collect();
        assert!(ks[0].1, "first k (deep) buffered");
        assert!(!ks[1].1, "second k not buffered");
    }

    /// Text node matching via `text()` and `dos::node()`.
    #[test]
    fn text_matching() {
        let mut tags = TagInterner::new();
        let x = tags.intern("x");
        let mut tree = ProjTree::new();
        let vx = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(x)), Some(Role(1)));
        tree.add_child(vx, PStep::new(PAxis::Child, PTest::Text), Some(Role(2)));
        let out = run(&tree, &mut tags, "<x>hi<y>inner</y></x>");
        assert_eq!(out[1], ("/x/text()".to_string(), true, "{r2}".to_string()));
        // Text inside y matches nothing (child::text() only reaches x's own
        // text children).
        assert!(!out[3].1);
    }

    /// dos::node() buffers whole subtrees, assigning the role everywhere.
    #[test]
    fn dos_buffers_subtree_with_roles() {
        let mut tags = TagInterner::new();
        let x = tags.intern("x");
        let mut tree = ProjTree::new();
        let vx = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(x)), Some(Role(1)));
        tree.add_child(vx, PStep::dos_node(), Some(Role(5)));
        let out = run(&tree, &mut tags, "<x>t<y><z>u</z></y></x>");
        assert_eq!(out[0].2, "{r1,r5}", "x itself gets r5 via self-closure");
        for (p, b, r) in &out[1..] {
            assert!(*b, "{p} buffered");
            assert_eq!(r, "{r5}", "{p} carries r5");
        }
    }

    /// Aggregate roles: only the subtree root receives the role instance.
    #[test]
    fn aggregate_role_only_at_root() {
        let mut tags = TagInterner::new();
        let x = tags.intern("x");
        let mut tree = ProjTree::new();
        let vx = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(x)), Some(Role(1)));
        let dos = tree.add_child(vx, PStep::dos_node(), Some(Role(5)));
        tree.set_aggregate(dos);
        let out = run(&tree, &mut tags, "<x>t<y><z>u</z></y></x>");
        assert_eq!(out[0].2, "{r1,r5}");
        for (p, b, r) in &out[1..] {
            assert!(*b, "{p} still buffered");
            assert_eq!(r, "{}", "{p} carries no explicit role under aggregation");
        }
    }

    /// Dead-subtree detection lets the preprojector skip.
    #[test]
    fn dead_subtree_detection() {
        let mut tags = TagInterner::new();
        let a = tags.intern("a");
        let b = tags.intern("b");
        let c = tags.intern("c");
        let mut tree = ProjTree::new();
        let va = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(a)), Some(Role(1)));
        tree.add_child(va, PStep::child(PTest::Tag(b)), Some(Role(2)));
        let mut m = StreamMatcher::new(&tree);
        assert!(!m.is_dead());
        m.open(a);
        assert!(!m.is_dead());
        m.open(c); // nothing can match inside /a/c
        assert!(m.is_dead());
        m.close();
        m.open(b);
        assert!(m.is_dead(), "below /a/b nothing can match either");
        m.close();
        m.close();
    }

    /// Positional firing with origin multiplicity: //a//b/c\[1\] over
    /// a{a{b{c,c}}} — b matches with multiplicity 2, so the first c gets
    /// the role twice and one signOff execution removes both instances.
    #[test]
    fn positional_with_origin_multiplicity() {
        let mut tags = TagInterner::new();
        let a = tags.intern("a");
        let b = tags.intern("b");
        let c = tags.intern("c");
        let mut tree = ProjTree::new();
        let va = tree.add_child(
            ProjTree::ROOT,
            PStep::descendant(PTest::Tag(a)),
            Some(Role(0)),
        );
        let vb = tree.add_child(va, PStep::descendant(PTest::Tag(b)), Some(Role(1)));
        tree.add_child(
            vb,
            PStep::with_pred(PAxis::Child, PTest::Tag(c), Pred::First),
            Some(Role(2)),
        );
        let out = run(&tree, &mut tags, "<a><a><b><c></c><c></c></b></a></a>");
        assert_eq!(out[2], ("/a/a/b".to_string(), true, "{r1,r1}".to_string()));
        assert_eq!(
            out[3],
            ("/a/a/b/c".to_string(), true, "{r2,r2}".to_string()),
            "first witness carries the origin multiplicity"
        );
        assert_eq!(out[4], ("/a/a/b/c".to_string(), false, "{}".to_string()));
    }

    /// A path used by the intro example: /bib/*/price\[1\].
    #[test]
    fn star_child_matching() {
        let mut tags = TagInterner::new();
        let bib = tags.intern("bib");
        tags.intern("book");
        let mut tree = ProjTree::new();
        let vb = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(bib)), Some(Role(2)));
        tree.add_child(vb, PStep::child(PTest::Star), Some(Role(3)));
        let out = run(&tree, &mut tags, "<bib><book></book><cd></cd></bib>");
        assert_eq!(out[1].2, "{r3}");
        assert_eq!(out[2].2, "{r3}");
    }

    /// RelPath helper used by query compilation exercises chains.
    #[test]
    fn chain_terminal_role_via_self_closure() {
        let mut tags = TagInterner::new();
        let book = tags.intern("book");
        let title = tags.intern("title");
        let mut tree = ProjTree::new();
        let vb = tree.add_child(
            ProjTree::ROOT,
            PStep::descendant(PTest::Tag(book)),
            Some(Role(6)),
        );
        let p = RelPath::single(PStep::child(PTest::Tag(title))).then(PStep::dos_node());
        tree.add_path(vb, &p.steps, Some(Role(7)));
        let out = run(
            &tree,
            &mut tags,
            "<book><title>T<b>old</b></title><author></author></book>",
        );
        assert_eq!(out[0].2, "{r6}");
        assert_eq!(out[1].2, "{r7}", "title matched via dos self-closure");
        assert_eq!(out[2].2, "{r7}", "title text via dos descent");
        assert_eq!(out[3].2, "{r7}", "b via dos descent");
        assert_eq!(
            out[5],
            ("/book/author".to_string(), false, "{}".to_string())
        );
    }
}
