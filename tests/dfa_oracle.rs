//! Differential test: the dense-table [`LazyDfa`] transition memo must
//! behave exactly like a retained `HashMap<(state, tag), state>` oracle.
//!
//! The dense per-state rows replaced the original hash-map memo; this
//! test drives the DFA over the XMark corpus while mirroring every
//! memoized transition into a hash map on the side. Any divergence — a
//! memoized transition changing its answer, or a rebuild producing a
//! different state — fails the run. Transitions left to the event (a
//! first-witness candidate) are resolved as the matcher does, and must
//! stay left to the event.

use gcx::projection::dfa::LazyDfa;
use gcx::projection::ProjTree;
use gcx::query::{compile, CompileOptions};
use gcx::xmark::XmarkConfig;
use gcx::xml::{TagId, TagInterner, XmlError, XmlEvent, XmlLexer, XmlWriter};
use std::collections::HashMap;

include!("../crates/xml/tests/support/tokens.rs");

fn xmark_doc(mb: f64, seed: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    gcx::xmark::generate(XmarkConfig { seed, scale: mb }, &mut buf).expect("generation");
    buf
}

/// Streams `doc` through a fresh DFA for `tree`, checking every
/// transition against the oracle and against an immediate re-query.
fn drive_and_check(tree: &ProjTree, tags: &mut TagInterner, doc: &[u8]) -> (usize, usize) {
    let mut dfa = LazyDfa::new(tree);
    let mut oracle: HashMap<(u32, u32), Option<u32>> = HashMap::new();
    let mut stack = vec![LazyDfa::INITIAL];
    let mut fired = vec![0u64; dfa.fired_words()];
    let mut lexer = XmlLexer::new(doc, tags);
    let mut transitions = 0usize;
    while let Some(tok) = lexer.next_token().expect("lex") {
        match tok {
            XmlToken::Open(tag) => {
                let from = *stack.last().expect("stack nonempty");
                let to = dfa.transition(tree, from, tag);
                transitions += 1;
                match oracle.entry((from, tag.0)) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        assert_eq!(
                            *e.get(),
                            to,
                            "dense table diverged from the HashMap oracle at ({from}, {tag})"
                        );
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(to);
                    }
                }
                // Memoization is stable: asking again returns the same
                // answer and constructs nothing new.
                let states_before = dfa.len();
                assert_eq!(dfa.transition(tree, from, tag), to);
                assert_eq!(dfa.len(), states_before, "re-query grew the DFA");
                let to = match to {
                    Some(to) => to,
                    None => dfa.first_witness(tree, &stack, &mut fired, tag),
                };
                // The text verdict for the target state is stable too.
                let verdict = dfa.text_outcome(tree, to).map(|(b, r)| (b, r.len()));
                let again = dfa.text_outcome(tree, to).map(|(b, r)| (b, r.len()));
                assert_eq!(verdict, again);
                stack.push(to);
                fired.resize(fired.len() + dfa.fired_words(), 0);
            }
            XmlToken::Close(_) => {
                stack.pop();
                fired.truncate(stack.len() * dfa.fired_words());
            }
            XmlToken::Text(_) => {}
        }
    }
    assert_eq!(stack.len(), 1, "balanced stream");
    (transitions, oracle.len())
}

/// Every XMark query's projection DFA matches the oracle over a generated
/// corpus.
#[test]
fn dense_tables_match_hashmap_oracle_over_xmark() {
    let doc = xmark_doc(0.3, 1234);
    for (name, query) in gcx::xmark::ALL {
        let mut tags = TagInterner::new();
        let compiled = compile(query, &mut tags, CompileOptions::default()).expect("compile");
        let tree = &compiled.projection.tree;
        let (transitions, distinct) = drive_and_check(tree, &mut tags, &doc);
        assert!(
            transitions > 1000,
            "{name}: corpus too small ({transitions} transitions)"
        );
        assert!(
            distinct < transitions / 10,
            "{name}: memoization ineffective ({distinct} distinct of {transitions})"
        );
    }
}

/// The dense rows also agree with the oracle across *interleaved* use of
/// several projections sharing one tag space: fresh tags appearing late
/// get ids past the DFA's class map and share its class 0.
#[test]
fn late_tags_grow_rows_correctly() {
    let mut tags = TagInterner::new();
    let compiled = compile(
        "<r>{ for $x in /site//item return $x/name }</r>",
        &mut tags,
        CompileOptions::default(),
    )
    .expect("compile");
    let tree = &compiled.projection.tree;
    // Late-interned tags get high TagIds; transitions on them must still
    // memoize correctly beside the named tags' classes.
    let mut doc = String::from("<site>");
    for i in 0..50 {
        doc.push_str(&format!("<extra{i}><item><name>n</name></item></extra{i}>"));
    }
    doc.push_str("</site>");
    let (transitions, _) = drive_and_check(tree, &mut tags, doc.as_bytes());
    assert_eq!(transitions, 50 * 3 + 1);
}
