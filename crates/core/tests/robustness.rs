//! Robustness tests: failure injection and pathological inputs. The
//! engine must return errors (never panic, never corrupt accounting) on
//! bad I/O, and handle extreme document shapes within reasonable cost.

use gcx_core::{run_dom, run_gcx, run_no_gc_streaming, EngineError};
use gcx_query::compile_default;
use gcx_xml::TagInterner;
use std::io::{self, Read, Write};

/// A reader that yields `prefix` and then fails.
struct FailingReader {
    data: Vec<u8>,
    pos: usize,
}

impl Read for FailingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.data.len() {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "stream died",
            ));
        }
        let n = buf.len().min(self.data.len() - self.pos).min(7);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A writer that fails after a few bytes.
struct FailingWriter {
    budget: usize,
}

impl Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.budget < buf.len() {
            return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
        }
        self.budget -= buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn io_error_mid_stream_surfaces() {
    let mut tags = TagInterner::new();
    let compiled = compile_default("<r>{ for $b in /a/b return $b }</r>", &mut tags).unwrap();
    let reader = FailingReader {
        data: b"<a><b>x</b><b>".to_vec(),
        pos: 0,
    };
    let err = run_gcx(&compiled, &mut tags, reader, Vec::new()).unwrap_err();
    assert!(matches!(err, EngineError::Xml(_)), "got {err}");
    assert!(err.to_string().contains("stream died"), "got {err}");
}

#[test]
fn malformed_xml_surfaces() {
    for bad in [
        "<a><b></a></b>",
        "<a>",
        "</a>",
        "<a><b x=></b></a>",
        "<a>&bogus;</a>",
        "<a/><b/>",
    ] {
        let mut tags = TagInterner::new();
        let compiled = compile_default("<r>{ for $b in //b return $b }</r>", &mut tags).unwrap();
        let res = run_gcx(&compiled, &mut tags, bad.as_bytes(), Vec::new());
        assert!(res.is_err(), "malformed input {bad:?} must error");
    }
}

#[test]
fn failing_writer_surfaces() {
    let mut tags = TagInterner::new();
    let compiled = compile_default("<r>{ for $b in /a/b return $b }</r>", &mut tags).unwrap();
    let err = run_gcx(
        &compiled,
        &mut tags,
        "<a><b>payload</b></a>".as_bytes(),
        FailingWriter { budget: 4 },
    )
    .unwrap_err();
    assert!(matches!(err, EngineError::Io(_)), "got {err}");
}

#[test]
fn deep_nesting() {
    // 2000 levels of <d>…</d> with a single <k/> at the bottom.
    let depth = 2000;
    let mut doc = String::new();
    for _ in 0..depth {
        doc.push_str("<d>");
    }
    doc.push_str("<k/>");
    for _ in 0..depth {
        doc.push_str("</d>");
    }
    let mut tags = TagInterner::new();
    let compiled = compile_default("<r>{ for $k in //k return <hit/> }</r>", &mut tags).unwrap();
    let mut out = Vec::new();
    let report = run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut out).unwrap();
    assert_eq!(String::from_utf8(out).unwrap(), "<r><hit></hit></r>");
    assert_eq!(report.safety, Some(true));
    // Only the k is buffered (promoted to the root): the d-chain is
    // projected away.
    assert!(
        report.stats.peak_nodes < 8,
        "peak {}",
        report.stats.peak_nodes
    );
}

#[test]
fn deep_nesting_with_full_buffering() {
    // When the query outputs the whole chain, the buffer must serialize a
    // 1000-deep subtree without issue.
    let depth = 1000;
    let mut doc = String::new();
    for _ in 0..depth {
        doc.push_str("<d>");
    }
    doc.push('x');
    for _ in 0..depth {
        doc.push_str("</d>");
    }
    let wrapped = format!("<a>{doc}</a>");
    let mut tags = TagInterner::new();
    let compiled = compile_default("<r>{ for $d in /a/d return $d }</r>", &mut tags).unwrap();
    let mut out = Vec::new();
    let report = run_gcx(&compiled, &mut tags, wrapped.as_bytes(), &mut out).unwrap();
    assert_eq!(String::from_utf8(out).unwrap(), format!("<r>{doc}</r>"));
    assert_eq!(report.safety, Some(true));
}

#[test]
fn wide_fanout() {
    let n = 50_000;
    let mut doc = String::from("<a>");
    for i in 0..n {
        doc.push_str(&format!("<b>{i}</b>"));
    }
    doc.push_str("</a>");
    let mut tags = TagInterner::new();
    let compiled =
        compile_default("<r>{ for $b in /a/b return $b/text() }</r>", &mut tags).unwrap();
    let mut sink = std::io::sink();
    let report = run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut sink).unwrap();
    assert_eq!(report.safety, Some(true));
    assert!(
        report.stats.peak_nodes < 16,
        "streaming keeps fanout out of memory: {}",
        report.stats.peak_nodes
    );
}

#[test]
fn huge_text_node() {
    let big = "lorem ipsum ".repeat(100_000); // ~1.2 MB of text
    let doc = format!("<a><t>{big}</t><t>small</t></a>");
    let mut tags = TagInterner::new();
    let compiled = compile_default("<r>{ for $t in /a/t return $t }</r>", &mut tags).unwrap();
    let mut sink = std::io::sink();
    let report = run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut sink).unwrap();
    assert_eq!(report.safety, Some(true));
    assert!(report.output_bytes as usize > big.len());
    // The big text is purged after output; live bytes return to baseline.
    assert_eq!(report.stats.live_nodes, 1);
}

#[test]
fn early_termination_skips_input_tail() {
    // The query only touches /a/first — GCX must not read beyond what it
    // needs… except for root-scope signOffs, which for this query do not
    // reference the tail either. Verify the tail is *skipped*: below `a`
    // only `first` can match, so the lexer's child search consumes each
    // junk subtree whole — open tag checked, body raw-scanned, own close
    // name-checked — and no junk subtree costs a single event.
    let junk = "<junk><deep><deeper>zzz</deeper></deep></junk>";
    let mut doc = String::from("<a><first><x>1</x></first>");
    for _ in 0..1000 {
        doc.push_str(junk);
    }
    doc.push_str("</a>");
    let mut tags = TagInterner::new();
    let compiled = compile_default("<r>{ for $f in /a/first return $f }</r>", &mut tags).unwrap();
    let mut out = Vec::new();
    let report = run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut out).unwrap();
    assert_eq!(
        String::from_utf8(out.clone()).unwrap(),
        "<r><first><x>1</x></first></r>"
    );
    assert_eq!(
        report.children_skipped, 1000,
        "every junk subtree is consumed whole by the child search"
    );
    assert!(
        report.tokens_read < 10,
        "no junk subtree costs an event: {} events",
        report.tokens_read
    );
    assert!(
        report.bytes_skipped >= (1000 * junk.len()) as u64,
        "the junk subtrees are scanned, not tokenized: {}",
        report.bytes_skipped
    );
    assert!(report.stats.peak_nodes < 8);

    // Differential: the DOM baseline tokenizes every junk body and must
    // agree byte for byte.
    let mut tags2 = TagInterner::new();
    let compiled2 = compile_default("<r>{ for $f in /a/first return $f }</r>", &mut tags2).unwrap();
    let mut out2 = Vec::new();
    run_dom(&compiled2, &mut tags2, doc.as_bytes(), &mut out2).unwrap();
    assert_eq!(
        out, out2,
        "raw-skip output identical to full-document evaluation"
    );
}

#[test]
fn unused_variable_scopes() {
    // Loops whose bodies never touch their variable still drive iteration
    // counts (XQuery semantics): 3 b's → 3 hits.
    let mut tags = TagInterner::new();
    let compiled = compile_default("<r>{ for $b in /a/b return <hit/> }</r>", &mut tags).unwrap();
    let mut out = Vec::new();
    let report = run_gcx(
        &compiled,
        &mut tags,
        "<a><b/><b>x</b><b><c/></b></a>".as_bytes(),
        &mut out,
    )
    .unwrap();
    assert_eq!(
        String::from_utf8(out).unwrap(),
        "<r><hit></hit><hit></hit><hit></hit></r>"
    );
    assert_eq!(report.safety, Some(true));
}

#[test]
fn empty_input_is_an_empty_document() {
    // A zero-byte stream is treated as a document with no element below
    // the virtual root (relaxed vs. strict XML, convenient for pipelines).
    let mut tags = TagInterner::new();
    let compiled = compile_default("<r>{ for $x in //y return $x }</r>", &mut tags).unwrap();
    let mut out = Vec::new();
    let report = run_gcx(&compiled, &mut tags, "".as_bytes(), &mut out).unwrap();
    assert_eq!(String::from_utf8(out).unwrap(), "<r></r>");
    assert_eq!(report.safety, Some(true));
}

#[test]
fn empty_document_element() {
    let mut tags = TagInterner::new();
    let compiled = compile_default("<r>{ for $x in //y return $x }</r>", &mut tags).unwrap();
    let mut out = Vec::new();
    let report = run_gcx(&compiled, &mut tags, "<a/>".as_bytes(), &mut out).unwrap();
    assert_eq!(String::from_utf8(out).unwrap(), "<r></r>");
    assert_eq!(report.safety, Some(true));
}

#[test]
fn utf8_content_roundtrips() {
    let doc = "<a><n>Grüße — ØØ</n><n>日本語テキスト</n></a>";
    let mut tags = TagInterner::new();
    let compiled = compile_default("<r>{ for $n in /a/n return $n }</r>", &mut tags).unwrap();
    let mut out = Vec::new();
    run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut out).unwrap();
    let s = String::from_utf8(out).unwrap();
    assert!(s.contains("Grüße — ØØ"));
    assert!(s.contains("日本語テキスト"));
}

/// A reader that yields one byte per `read` call.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.0.split_first() {
            Some((&b, rest)) if !buf.is_empty() => {
                buf[0] = b;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// Error parity inside the regions the lexer's scans consume. In the
/// Q6-shaped form below, everything inside `<regions>` outside
/// `item`/`name` is consumed by the search scan, never built into events;
/// in the `return $i` form, each `item` is streamed through, its content
/// consumed by the copy scan and written straight to the output; in the
/// `$p/name` form, every child of `person` but `name` is dead, and the
/// child search takes it whole, its open tag checked and its body
/// raw-skipped. A malformed construct there — among `person`'s children
/// in the child form, a dead child with a mismatched close included —
/// must fail the GCX run with exactly the error — text and byte offset —
/// that the DOM baseline reports from lexing every event, one-shot and
/// behind a 1-byte reader. (Strictly inside a *dead* body the raw
/// skip's documented relaxation still holds, gcx-xml's lexer docs, "Skip
/// mode": close-tag names, entity names and UTF-8 there go unchecked. The
/// constructs here sit among the children.)
#[test]
fn errors_inside_scanned_regions_match_the_dom() {
    let search = "<r>{ for $b in /site/regions return for $i in $b//item return $i/name }</r>";
    let copy = "<r>{ for $b in /site/regions return for $i in $b//item return $i }</r>";
    let child = "<r>{ for $p in /site/people/person return $p/name }</r>";
    // The bad construct lands between the items (search), inside the
    // first one (copy), or among a person's children (child).
    let forms: [(&str, &[u8], &[u8]); 3] = [
        (
            search,
            b"<site><regions><africa>\
            <item><name>one</name><desc><p>t</p><br/></desc></item><desc><p>",
            b"</p></desc><item><name>two</name></item></africa></regions></site>",
        ),
        (
            copy,
            b"<site><regions><africa>\
            <item><name>one</name><desc><p>t</p><br/></desc><desc><p>",
            b"</p></desc></item><item><name>two</name></item></africa></regions></site>",
        ),
        (
            child,
            b"<site><people><person><name>one</name><junk><p>t</p><br/></junk> ",
            b"<name>two</name><junk/></person></people></site>",
        ),
    ];
    let cases: &[(&str, &[u8], bool)] = &[
        ("mismatched inner close", b"x</q><p>", true),
        ("mismatched outer close", b"x</p></wrong><desc><p>", true),
        ("unknown entity", b"a &bogus; b", true),
        ("invalid UTF-8 in text", b"a \xff b", true),
        ("UTF-8 split by a comment", b"\xc3\xa9<!-- c -->\xa9", true),
        ("truncated UTF-8 before a tag", b"a \xc3<i/>", true),
        ("invalid UTF-8 in an attribute", b"<i k=\"\xff\"/>", true),
        ("unquoted attribute value", b"<i k=v/>", true),
        ("attribute without '='", b"<i k\"v\"/>", true),
        ("empty tag name", b"< i/>", true),
        ("junk in a close tag", b"x</p y><p>", true),
        (
            "mismatched close of a dead child",
            b"<junk><p>t</p></junq>",
            true,
        ),
        ("unterminated comment", b"<!-- never closed", false),
        ("unterminated CDATA", b"<![CDATA[ never closed", false),
        ("EOF mid-region", b"<i>text", false),
        ("EOF inside a tag name", b"<i><longname", false),
    ];
    for ((query, head, tail), &(what, bad, with_tail)) in forms
        .into_iter()
        .flat_map(|form| cases.iter().map(move |case| (form, case)))
    {
        let mut doc = head.to_vec();
        doc.extend_from_slice(bad);
        if with_tail {
            doc.extend_from_slice(tail);
        }
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let want = run_dom(&compiled, &mut tags, &doc[..], Vec::new())
            .expect_err(what)
            .to_string();
        for one_byte in [false, true] {
            let mut tags = TagInterner::new();
            let compiled = compile_default(query, &mut tags).unwrap();
            let got = if one_byte {
                run_gcx(&compiled, &mut tags, OneByte(&doc), Vec::new())
            } else {
                run_gcx(&compiled, &mut tags, &doc[..], Vec::new())
            };
            let got = got.expect_err(what).to_string();
            assert_eq!(got, want, "{what} in {query} (1-byte reader: {one_byte})");
        }
    }
    // The scans do run over these regions: the well-formed document
    // skips bytes (search), and buffers fewer nodes than the engine that
    // keeps every binding in the buffer (copy).
    let well_formed = |(query, head, tail): (&str, &[u8], &[u8])| {
        let mut doc = head.to_vec();
        doc.extend_from_slice(b"x");
        doc.extend_from_slice(tail);
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let mut out = Vec::new();
        let report = run_gcx(&compiled, &mut tags.clone(), &doc[..], &mut out).unwrap();
        let no_gc = run_no_gc_streaming(&compiled, &mut tags, &doc[..], io::sink()).unwrap();
        (String::from_utf8(out).unwrap(), report, no_gc)
    };
    let (out, report, _) = well_formed(forms[0]);
    assert_eq!(out, "<r><name>one</name><name>two</name></r>");
    assert!(
        report.bytes_skipped > 20,
        "scanned {}",
        report.bytes_skipped
    );
    let (out, report, _) = well_formed(forms[2]);
    assert_eq!(out, "<r><name>one</name><name>two</name></r>");
    assert_eq!(report.children_skipped, 2, "both junk children");
    let (out, report, no_gc) = well_formed(forms[1]);
    assert_eq!(
        out,
        "<r><item><name>one</name><desc><p>t</p><br></br></desc><desc><p>x</p></desc></item>\
         <item><name>two</name></item></r>"
    );
    assert!(
        report.stats.nodes_created * 2 < no_gc.stats.nodes_created,
        "buffered {} of {} nodes",
        report.stats.nodes_created,
        no_gc.stats.nodes_created
    );
}
