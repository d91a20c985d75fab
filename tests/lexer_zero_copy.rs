//! Differential and property tests for the zero-copy/interned lexer.
//!
//! The interned lexer replaced per-name `String` allocation with borrowed
//! byte-slice interning and batched text scanning; these tests pin down
//! that the observable token stream is *byte-identical* to the reference
//! behaviour regardless of how the input arrives:
//!
//! * whole-document, 1-byte and random chunkings produce the same stream;
//! * the DOM that `Document::parse` builds from the borrowed events
//!   serializes back to exactly the lexer's event stream;
//! * lex → write → lex is the identity.
//!
//! Documents are generated randomly with every construct the lexer
//! supports: nested elements, attributes, entities, CDATA, comments,
//! processing instructions and multi-byte UTF-8 text.

use gcx::xml::{Document, TagId, TagInterner, XmlError, XmlEvent, XmlLexer, XmlWriter};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::Read;

const TAGS: &[&str] = &[
    "site",
    "item",
    "name",
    "desc",
    "k-9",
    "x_y.z",
    "long-element-name",
];
const TEXTS: &[&str] = &[
    "plain",
    "wörds — ünïcode ✓",
    "a&amp;b &lt;x&gt; &#65;&#x42;",
    "  spaced  out  ",
    "1 &quot;2&quot; 3",
];

/// Renders a random document exercising every supported construct.
fn random_doc(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = String::new();
    if rng.random_bool(0.3) {
        s.push_str("<?xml version=\"1.0\"?>");
    }
    if rng.random_bool(0.2) {
        s.push_str("<!DOCTYPE site SYSTEM \"x.dtd\">");
    }
    s.push_str("<site>");
    build(&mut rng, &mut s, 3);
    s.push_str("</site>");
    s
}

fn build(rng: &mut StdRng, s: &mut String, depth: usize) {
    for _ in 0..rng.random_range(0..4) {
        match rng.random_range(0..6) {
            0 if depth > 0 => {
                let tag = TAGS[rng.random_range(0..TAGS.len())];
                s.push_str(&format!("<{tag}"));
                for _ in 0..rng.random_range(0..3) {
                    let attr = TAGS[rng.random_range(0..TAGS.len())];
                    let val = TEXTS[rng.random_range(0..TEXTS.len())]
                        .replace('"', "&quot;")
                        .replace('<', "&lt;");
                    s.push_str(&format!(" {attr}=\"{val}\""));
                }
                if rng.random_bool(0.2) {
                    s.push_str("/>");
                } else {
                    s.push('>');
                    build(rng, s, depth - 1);
                    s.push_str(&format!("</{tag}>"));
                }
            }
            1 => s.push_str(TEXTS[rng.random_range(0..TEXTS.len())]),
            2 => s.push_str("<![CDATA[1 < 2 && x]]>"),
            3 => s.push_str("<!-- a comment -->"),
            4 => s.push_str("<?pi target?>"),
            _ => {
                let tag = TAGS[rng.random_range(0..TAGS.len())];
                s.push_str(&format!("<{tag}/>"));
            }
        }
    }
}

/// Serves the input in chunks whose sizes are drawn from `sizes`,
/// cycling; simulates arbitrary network arrival (mid-tag, mid-entity,
/// mid-UTF-8 splits included).
struct ChunkedReader<'a> {
    data: &'a [u8],
    sizes: Vec<usize>,
    at: usize,
}

impl Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.data.is_empty() {
            return Ok(0);
        }
        let want = self.sizes[self.at % self.sizes.len()].max(1);
        self.at += 1;
        let n = self.data.len().min(want).min(buf.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn lex_with_chunks(doc: &str, sizes: Vec<usize>) -> Vec<String> {
    let mut tags = TagInterner::new();
    let reader = ChunkedReader {
        data: doc.as_bytes(),
        sizes,
        at: 0,
    };
    let mut lexer = XmlLexer::new(reader, &mut tags);
    let tokens = lexer.tokenize_all().expect("lex ok");
    tokens
        .iter()
        .map(|t| t.display(lexer.tags()).to_string())
        .collect()
}

include!("../crates/xml/tests/support/tokens.rs");

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whole-document, 1-byte and random chunkings yield byte-identical
    /// token streams.
    #[test]
    fn chunking_is_invisible(seed in 0u64..100_000, chunk_seed in 0u64..100_000) {
        let doc = random_doc(seed);
        let whole = lex_with_chunks(&doc, vec![usize::MAX]);
        prop_assert!(!whole.is_empty());
        let byte_at_a_time = lex_with_chunks(&doc, vec![1]);
        prop_assert_eq!(&whole, &byte_at_a_time, "1-byte chunking changed the stream");
        let mut rng = StdRng::seed_from_u64(chunk_seed);
        let sizes: Vec<usize> = (0..16).map(|_| rng.random_range(1..23)).collect();
        let random_chunks = lex_with_chunks(&doc, sizes.clone());
        prop_assert_eq!(&whole, &random_chunks, "random chunking {:?} changed the stream", sizes);
    }

    /// The DOM that `Document::parse` builds from the borrowed events
    /// describes the same stream as the events themselves.
    #[test]
    fn events_agree_with_tokens(seed in 0u64..100_000) {
        let doc = random_doc(seed);

        let mut tags_a = TagInterner::new();
        let mut lexer_a = XmlLexer::new(doc.as_bytes(), &mut tags_a);
        let tokens = lexer_a.tokenize_all().expect("lex ok");

        let mut tags_b = TagInterner::new();
        let dom = Document::parse(doc.as_bytes(), &mut tags_b).expect("parse ok");
        prop_assert_eq!(tokens_to_string(&tokens, &tags_a), dom.to_xml(&tags_b));
    }

    /// Lex → write → lex is the identity on token streams.
    #[test]
    fn writer_roundtrip(seed in 0u64..100_000) {
        let doc = random_doc(seed);
        let mut tags = TagInterner::new();
        let mut lexer = XmlLexer::new(doc.as_bytes(), &mut tags);
        let tokens = lexer.tokenize_all().expect("lex ok");
        let rendered = tokens_to_string(&tokens, &tags);
        let mut lexer2 = XmlLexer::new(rendered.as_bytes(), &mut tags);
        let tokens2 = lexer2.tokenize_all().expect("re-lex ok");
        prop_assert_eq!(tokens, tokens2);
    }
}

/// A tag name split across the lexer's internal 64 KiB refill boundary is
/// interned correctly (the slow path of `read_name_id`).
#[test]
fn name_split_across_refill_boundary() {
    // Padding text sized so the opening tag of <boundary-tag> straddles
    // the 64 KiB buffer edge.
    let pad_len = 64 * 1024 - 9 - 5; // "<site>" + pad + "<bound…" crosses
    let pad = "x".repeat(pad_len);
    let doc = format!("<site>{pad}<boundary-tag>v</boundary-tag></site>");
    let mut tags = TagInterner::new();
    let mut lexer = XmlLexer::new(doc.as_bytes(), &mut tags);
    let tokens = lexer.tokenize_all().expect("lex ok");
    let shown: Vec<String> = tokens
        .iter()
        .map(|t| t.display(lexer.tags()).to_string())
        .collect();
    assert!(shown.contains(&"<boundary-tag>".to_string()), "{shown:?}");
    assert!(shown.contains(&"</boundary-tag>".to_string()));
}
