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
//! 3. nodes the matcher skips carry no roles;
//! 4. buffering verdict, roles and the dead-subtree verdict equal the
//!    frame-per-element reference matcher's (`common/nfa.rs`);
//! 5. wherever the matcher reports search-state exit tags E, an element
//!    with any tag outside E opens, in the reference, unbuffered, roleless
//!    and not dead, text there is not buffered, and the matcher's exits
//!    one level down are a subset of E (the preprojector's search scan
//!    consumes exactly such elements without building their events).
//!
//! A second corpus — every XMark query's compiled projection tree over a
//! generated XMark document — pins the matcher against the reference at
//! scale (`matcher_agrees_with_reference_over_xmark_corpus`).

#[path = "common/nfa.rs"]
mod nfa;

use gcx_projection::{PAxis, PStep, PTest, Pred, ProjNodeId, ProjTree, Role, StreamMatcher};
use gcx_xml::{
    Document, NodeId, NodeKind, SearchScope, TagId, TagInterner, XmlError, XmlEvent, XmlLexer,
    XmlWriter,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

include!("../../xml/tests/support/tokens.rs");

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

/// A random projection tree of up to four levels below a non-empty root.
/// `[position()=1]` lands on child and descendant steps (any test) that
/// may have children below them, so first witnesses nest, sit under
/// origins matched with multiplicity, and reach text nodes.
fn random_tree(seed: u64, tags: &mut TagInterner) -> ProjTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let tag_ids: Vec<_> = TAGS.iter().map(|t| tags.intern(t)).collect();
    let mut tree = ProjTree::new();
    let mut role = 0u32;
    let mut frontier = vec![ProjTree::ROOT];
    for _depth in 0..rng.random_range(1..=4) {
        let mut next = Vec::new();
        for &parent in &frontier {
            let min = usize::from(parent == ProjTree::ROOT);
            for _ in 0..rng.random_range(min..=2) {
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
                let pred = if axis != PAxis::DescendantOrSelf && rng.random_bool(0.4) {
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

/// The exit tags of the matcher's current position when it is a
/// descendant search state, `None` for any other state.
fn descendant_exits<'m>(matcher: &'m StreamMatcher<&ProjTree>) -> Option<&'m [TagId]> {
    match matcher.search()? {
        (SearchScope::Descendants, exits) => Some(exits),
        (SearchScope::Children, _) => None,
    }
}

/// Check 5 at the current position: when the matcher is in a search
/// state, drive both matchers one level down with every probe tag outside
/// the exits, and back up. Returns the number of probes made.
fn probe_search_state(
    matcher: &mut StreamMatcher<&ProjTree>,
    reference: &mut nfa::RefMatcher,
    probes: &[TagId],
    at: &str,
) -> usize {
    let Some(exits) = descendant_exits(matcher).map(<[TagId]>::to_vec) else {
        return 0;
    };
    assert_eq!(
        reference.text(),
        (false, Vec::new()),
        "text in a search state is buffered ({at})"
    );
    let mut made = 0;
    for &tag in probes.iter().filter(|t| !exits.contains(t)) {
        assert_eq!(
            (reference.open(tag), reference.is_dead()),
            ((false, Vec::new()), false),
            "a non-exit element must open unbuffered, roleless and not dead ({at})"
        );
        assert_eq!(
            reference.text(),
            (false, Vec::new()),
            "text below a non-exit element is buffered ({at})"
        );
        matcher.open(tag);
        let below = descendant_exits(matcher)
            .unwrap_or_else(|| panic!("below a non-exit element: not a search state ({at})"));
        assert!(
            below.iter().all(|t| exits.contains(t)),
            "exits {below:?} below a non-exit element are not a subset of {exits:?} ({at})"
        );
        matcher.close();
        reference.close();
        made += 1;
    }
    made
}

/// Runs one (tree, document) case; returns the number of search-state
/// probes made (check 5).
fn check_case(tree_seed: u64, doc_seed: u64) -> usize {
    let mut tags = TagInterner::new();
    let tree = random_tree(tree_seed, &mut tags);
    let doc_text = random_doc(doc_seed);
    // Every document tag, plus one the document never uses.
    let probes: Vec<TagId> = TAGS
        .iter()
        .chain(&["fresh"])
        .map(|t| tags.intern(t))
        .collect();

    // DOM + naive role enumeration.
    let doc = Document::parse_str(&doc_text, &mut tags).expect("doc parses");
    let expected = naive_roles(&doc, &tree);

    // Stream the same document through the matcher, pairing stream events
    // with DOM nodes by construction order (document order). The matcher
    // must agree with the naive semantics on roles, and with the
    // reference matcher on every verdict.
    let dom_nodes: Vec<NodeId> = doc.descendants(Document::ROOT);
    let mut lexer = XmlLexer::new(doc_text.as_bytes(), &mut tags);
    let mut matcher = StreamMatcher::new(&tree);
    let mut reference = nfa::RefMatcher::new(&tree);
    let mut idx = 0usize;
    let mut probed = 0;
    while let Some(tok) = lexer.next_token().expect("lex") {
        let at = format!("event {idx}, tree seed {tree_seed}, doc seed {doc_seed}");
        probed += probe_search_state(&mut matcher, &mut reference, &probes, &at);
        let (outcome, want) = match tok {
            XmlToken::Open(tag) => {
                let node = dom_nodes[idx];
                assert!(
                    matches!(doc.node(node).kind, NodeKind::Element(t) if t == tag),
                    "event/node pairing broke"
                );
                let o = matcher.open(tag);
                ((o.buffer, sorted(o.roles)), reference.open(tag))
            }
            XmlToken::Close(_) => {
                matcher.close();
                reference.close();
                continue;
            }
            XmlToken::Text(_) => {
                assert!(
                    doc.is_text(dom_nodes[idx]),
                    "event/node pairing broke (text)"
                );
                let o = matcher.text();
                ((o.buffer, sorted(o.roles)), reference.text())
            }
        };
        compare(
            &expected,
            dom_nodes[idx],
            &outcome.1,
            outcome.0,
            tree_seed,
            doc_seed,
        );
        assert_eq!(
            (outcome, matcher.is_dead()),
            (want, reference.is_dead()),
            "matcher vs reference at node {:?} (tree seed {tree_seed}, doc seed {doc_seed})",
            dom_nodes[idx]
        );
        idx += 1;
    }
    assert_eq!(idx, dom_nodes.len(), "all events paired");
    probed
}

fn sorted(roles: &[Role]) -> Vec<Role> {
    let mut v = roles.to_vec();
    v.sort();
    v
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
    #![proptest_config(ProptestConfig::with_cases(2000))]

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

/// Check 5 is not vacuous: over a fixed seed range the random trees reach
/// search states (descendant tag steps under tag-only siblings) often.
#[test]
fn search_states_are_probed() {
    let probed: usize = (0..400).map(|s| check_case(s, s * 7 + 3)).sum();
    assert!(probed >= 500, "only {probed} search-state probes");
}

/// The matcher vs the reference over the full XMark corpus: every
/// query's projection tree (Q20's `profile[1]` included) is driven over a
/// generated document through `StreamMatcher::new` and the frame
/// reference, comparing (buffering verdict, role multiset, dead-subtree
/// verdict) at every event, and probing every search state (check 5).
#[test]
fn matcher_agrees_with_reference_over_xmark_corpus() {
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
        let mut matcher = StreamMatcher::new(tree);
        let mut reference = nfa::RefMatcher::new(tree);
        assert_eq!(
            sorted(matcher.root_roles()),
            reference.root_roles(),
            "{name}: root roles"
        );
        let probes: Vec<TagId> = ["fresh", "item", "name", "text", "keyword"]
            .iter()
            .map(|t| tags.intern(t))
            .collect();
        let mut lexer = XmlLexer::new(&doc[..], &mut tags);
        let mut events = 0u64;
        let mut probed = 0;
        while let Some(tok) = lexer.next_token().expect("lex") {
            events += 1;
            let at = format!("{name}, event {events}");
            probed += probe_search_state(&mut matcher, &mut reference, &probes, &at);
            let (got, want) = match tok {
                XmlToken::Open(tag) => {
                    let o = matcher.open(tag);
                    ((o.buffer, sorted(o.roles)), reference.open(tag))
                }
                XmlToken::Close(_) => {
                    matcher.close();
                    reference.close();
                    continue;
                }
                XmlToken::Text(_) => {
                    let o = matcher.text();
                    ((o.buffer, sorted(o.roles)), reference.text())
                }
            };
            assert_eq!(
                (got, matcher.is_dead()),
                (want, reference.is_dead()),
                "{name}: verdict at event {events}"
            );
        }
        assert!(
            events > 10_000,
            "{name}: corpus too small ({events} events)"
        );
        assert!(matcher.dfa_states() > 0, "{name}: runs on the DFA");
        if *name == "Q6" {
            assert!(probed > 10_000, "Q6 searches //item: {probed} probes");
        }
    }
}
