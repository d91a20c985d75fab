//! Oracle tests for the stream matcher: compare the matcher's verdicts
//! against a naive, declarative enumeration of projection-path matches
//! over a DOM (the paper's definition of role assignment: "the
//! multiplicity of the projection tree node is the number of possible
//! path step assignments that lead to matches", §2).
//!
//! Random projection trees × random documents, checked per token:
//!
//! 1. the role multiset assigned by the matcher equals the naive one;
//! 2. every node with matches is buffered (preservation condition 1);
//! 3. nodes the matcher skips carry no roles.
//!
//! A second corpus — every XMark query's compiled projection tree over a
//! generated XMark document — pins the two matcher modes against each
//! other at scale (`forced_nfa_agrees_with_dfa_over_xmark_corpus`).

use gcx_projection::{PAxis, PStep, PTest, Pred, ProjNodeId, ProjTree, Role, StreamMatcher};
use gcx_xml::{Document, NodeId, NodeKind, TagInterner, XmlLexer, XmlToken};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

// ----------------------------------------------------------------------
// Naive declarative semantics
// ----------------------------------------------------------------------

fn ptest_matches_dom(doc: &Document, n: NodeId, test: PTest) -> bool {
    match test {
        PTest::Tag(t) => doc.tag(n) == Some(t),
        PTest::Star => doc.tag(n).is_some(),
        PTest::Text => doc.is_text(n),
        PTest::AnyNode => n != Document::ROOT,
    }
}

/// All matches of one step from a single origin instance, in document
/// order, respecting `[position()=1]` (first witness per instance).
fn step_matches(doc: &Document, origin: NodeId, step: PStep) -> Vec<NodeId> {
    let candidates: Vec<NodeId> = match step.axis {
        PAxis::Child => doc.children(origin).to_vec(),
        PAxis::Descendant => doc.descendants(origin),
        PAxis::DescendantOrSelf => {
            let mut v = vec![origin];
            v.extend(doc.descendants(origin));
            v
        }
    };
    let mut out: Vec<NodeId> = candidates
        .into_iter()
        .filter(|&c| {
            // dos::node() self-matching of the virtual root is allowed
            // only through AnyNode; handled by ptest_matches_dom.
            if step.axis == PAxis::DescendantOrSelf && c == origin && origin == Document::ROOT {
                matches!(step.test, PTest::AnyNode)
            } else {
                ptest_matches_dom(doc, c, step.test)
            }
        })
        .collect();
    if step.pred == Pred::First {
        out.truncate(1);
    }
    out
}

/// Computes, for every document node, the naive role multiset.
fn naive_roles(doc: &Document, tree: &ProjTree) -> HashMap<NodeId, Vec<Role>> {
    let mut acc: HashMap<NodeId, Vec<Role>> = HashMap::new();
    // Instance = one way a projection node matches a document node.
    // Depth-first over the projection tree, carrying instance sets.
    fn rec(
        doc: &Document,
        tree: &ProjTree,
        v: ProjNodeId,
        instances: &[NodeId],
        acc: &mut HashMap<NodeId, Vec<Role>>,
    ) {
        for &child in tree.children(v) {
            let step = tree.step(child);
            let mut child_instances = Vec::new();
            for &origin in instances {
                for m in step_matches(doc, origin, step) {
                    if let Some(role) = tree.role(child) {
                        let aggregate = tree.node(child).aggregate;
                        // Aggregate roles only land on self matches.
                        let is_self = step.axis == PAxis::DescendantOrSelf && m == origin;
                        if !aggregate || is_self {
                            acc.entry(m).or_default().push(role);
                        }
                    }
                    child_instances.push(m);
                }
            }
            rec(doc, tree, child, &child_instances, acc);
        }
    }
    rec(doc, tree, ProjTree::ROOT, &[Document::ROOT], &mut acc);
    acc
}

// ----------------------------------------------------------------------
// Random workload generation
// ----------------------------------------------------------------------

const TAGS: &[&str] = &["a", "b", "c"];

fn random_tree(seed: u64, tags: &mut TagInterner) -> ProjTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let tag_ids: Vec<_> = TAGS.iter().map(|t| tags.intern(t)).collect();
    let mut tree = ProjTree::new();
    let mut role = 0u32;
    let mut frontier = vec![ProjTree::ROOT];
    for _depth in 0..rng.random_range(1..=3) {
        let mut next = Vec::new();
        for &parent in &frontier {
            for _ in 0..rng.random_range(0..=2usize) {
                let axis = match rng.random_range(0..5) {
                    0 | 1 => PAxis::Child,
                    2 | 3 => PAxis::Descendant,
                    _ => PAxis::DescendantOrSelf,
                };
                let test = match (axis, rng.random_range(0..6)) {
                    (PAxis::DescendantOrSelf, _) => PTest::AnyNode,
                    (_, 0) => PTest::Star,
                    (_, 1) => PTest::Text,
                    (_, i) => PTest::Tag(tag_ids[i % tag_ids.len()]),
                };
                let pred = if axis != PAxis::DescendantOrSelf
                    && !matches!(test, PTest::Text)
                    && rng.random_bool(0.25)
                {
                    Pred::First
                } else {
                    Pred::True
                };
                let node =
                    tree.add_child(parent, PStep::with_pred(axis, test, pred), Some(Role(role)));
                role += 1;
                // dos nodes stay leaves (as in derived trees).
                if axis != PAxis::DescendantOrSelf {
                    next.push(node);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    tree
}

fn random_doc(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = String::from("<a>");
    build(&mut rng, &mut s, 3, 3);
    s.push_str("</a>");
    return s;

    fn build(rng: &mut StdRng, s: &mut String, fanout: usize, depth: usize) {
        for _ in 0..rng.random_range(0..=fanout) {
            if depth == 0 || rng.random_bool(0.35) {
                if rng.random_bool(0.4) {
                    s.push_str("t x t");
                    // Followed by nothing — ensure single text run between
                    // elements for deterministic token counts.
                    s.push_str("<c></c>");
                } else {
                    let tag = TAGS[rng.random_range(0..TAGS.len())];
                    s.push_str(&format!("<{tag}/>"));
                }
            } else {
                let tag = TAGS[rng.random_range(0..TAGS.len())];
                s.push_str(&format!("<{tag}>"));
                build(rng, s, fanout, depth - 1);
                s.push_str(&format!("</{tag}>"));
            }
        }
    }
}

// ----------------------------------------------------------------------
// The comparison
// ----------------------------------------------------------------------

fn check_case(tree_seed: u64, doc_seed: u64) {
    let mut tags = TagInterner::new();
    let tree = random_tree(tree_seed, &mut tags);
    let doc_text = random_doc(doc_seed);

    // DOM + naive role enumeration.
    let doc = Document::parse_str(&doc_text, &mut tags).expect("doc parses");
    let expected = naive_roles(&doc, &tree);

    // Stream the same document through the matcher, pairing stream events
    // with DOM nodes by construction order (document order). Both the
    // mode-selecting matcher and the forced pooled-frame NFA must agree
    // with the naive semantics (and hence with each other).
    let dom_nodes: Vec<NodeId> = doc.descendants(Document::ROOT);
    let mut lexer = XmlLexer::new(doc_text.as_bytes(), &mut tags);
    let mut matcher = StreamMatcher::new(&tree);
    let mut forced = StreamMatcher::new_forced_nfa(&tree);
    let mut idx = 0usize;
    while let Some(tok) = lexer.next_token().expect("lex") {
        match tok {
            XmlToken::Open(tag) => {
                let node = dom_nodes[idx];
                idx += 1;
                assert!(
                    matches!(doc.node(node).kind, NodeKind::Element(t) if t == tag),
                    "event/node pairing broke"
                );
                let outcome = matcher.open(tag);
                compare(
                    &expected,
                    node,
                    outcome.roles,
                    outcome.buffer,
                    tree_seed,
                    doc_seed,
                );
                let outcome = forced.open(tag);
                compare(
                    &expected,
                    node,
                    outcome.roles,
                    outcome.buffer,
                    tree_seed,
                    doc_seed,
                );
            }
            XmlToken::Close(_) => {
                matcher.close();
                forced.close();
            }
            XmlToken::Text(_) => {
                let node = dom_nodes[idx];
                idx += 1;
                assert!(doc.is_text(node), "event/node pairing broke (text)");
                let outcome = matcher.text();
                compare(
                    &expected,
                    node,
                    outcome.roles,
                    outcome.buffer,
                    tree_seed,
                    doc_seed,
                );
                let outcome = forced.text();
                compare(
                    &expected,
                    node,
                    outcome.roles,
                    outcome.buffer,
                    tree_seed,
                    doc_seed,
                );
            }
        }
    }
    assert_eq!(idx, dom_nodes.len(), "all events paired");
}

fn compare(
    expected: &HashMap<NodeId, Vec<Role>>,
    node: NodeId,
    actual: &[Role],
    buffered: bool,
    ts: u64,
    ds: u64,
) {
    let mut want = expected.get(&node).cloned().unwrap_or_default();
    let mut got = actual.to_vec();
    want.sort();
    got.sort();
    assert_eq!(
        want, got,
        "role mismatch at node {node:?} (tree seed {ts}, doc seed {ds})"
    );
    if !want.is_empty() {
        assert!(buffered, "matched node must be buffered (condition 1)");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn matcher_agrees_with_naive_semantics(ts in 0u64..100_000, ds in 0u64..100_000) {
        check_case(ts, ds);
    }
}

/// A couple of pinned regression seeds (fast, deterministic).
#[test]
fn pinned_seeds() {
    for (ts, ds) in [(0, 0), (1, 1), (17, 99), (12345, 54321), (7, 4242)] {
        check_case(ts, ds);
    }
}

/// Forced-NFA vs DFA over the full XMark corpus: every query's projection
/// tree is driven over a generated document through `StreamMatcher::new`
/// (lazy DFA where the tree permits it) and `new_forced_nfa` (the pooled
/// frame simulation), comparing (buffering verdict, structural flag, role
/// multiset, dead-subtree verdict) at every event. For Q20 (positional) both sides run NFA mode; that leg still
/// pins the pooled matcher against itself across pool reuse.
#[test]
fn forced_nfa_agrees_with_dfa_over_xmark_corpus() {
    fn sorted(roles: &[Role]) -> Vec<Role> {
        let mut v = roles.to_vec();
        v.sort();
        v
    }
    let mut doc = Vec::new();
    let config = gcx_xmark::XmarkConfig {
        seed: 42,
        scale: 0.3,
    };
    gcx_xmark::generate(config, &mut doc).expect("generate");
    for (name, query) in gcx_xmark::ALL {
        let mut tags = TagInterner::new();
        let compiled = gcx_query::compile_default(query, &mut tags).expect("compile");
        let tree = &compiled.projection.tree;
        let mut dfa = StreamMatcher::new(tree);
        let mut nfa = StreamMatcher::new_forced_nfa(tree);
        assert!(nfa.dfa_states() == 0, "{name}: forced NFA has no DFA");
        assert_eq!(
            sorted(dfa.root_roles()),
            sorted(nfa.root_roles()),
            "{name}: root roles"
        );
        let mut lexer = XmlLexer::new(&doc[..], &mut tags);
        let mut events = 0u64;
        while let Some(tok) = lexer.next_token().expect("lex") {
            events += 1;
            match tok {
                XmlToken::Open(tag) => {
                    let a = dfa.open(tag);
                    let a = (a.buffer, a.structural, sorted(a.roles), dfa.is_dead());
                    let b = nfa.open(tag);
                    let b = (b.buffer, b.structural, sorted(b.roles), nfa.is_dead());
                    assert_eq!(a, b, "{name}: open verdict at event {events}");
                }
                XmlToken::Close(_) => {
                    dfa.close();
                    nfa.close();
                }
                XmlToken::Text(_) => {
                    let a = dfa.text();
                    let a = (a.buffer, sorted(a.roles));
                    let b = nfa.text();
                    assert_eq!(
                        a,
                        (b.buffer, sorted(b.roles)),
                        "{name}: text at event {events}"
                    );
                }
            }
        }
        assert!(
            events > 10_000,
            "{name}: corpus too small ({events} events)"
        );
    }
}
