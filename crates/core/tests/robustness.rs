//! Robustness tests: failure injection and pathological inputs. The
//! engine must return errors (never panic, never corrupt accounting) on
//! bad I/O, and handle extreme document shapes within reasonable cost.

use gcx_core::{run_dom, run_gcx, EngineError};
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
    // reference the tail either. Verify the tail is *skipped*: each junk
    // subtree costs one materialized open event, and its body is consumed
    // by the lexer's raw scanner (bytes_skipped), never tokenized.
    let mut doc = String::from("<a><first><x>1</x></first>");
    for _ in 0..1000 {
        doc.push_str("<junk><deep><deeper>zzz</deeper></deep></junk>");
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
    assert!(
        report.tokens_skipped >= 1000,
        "every junk subtree is fast-skipped: {}",
        report.tokens_skipped
    );
    assert!(
        report.bytes_skipped > 30_000,
        "the junk bodies are raw-scanned, not tokenized: {}",
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
