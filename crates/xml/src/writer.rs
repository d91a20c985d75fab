//! Escaping, streaming XML output.
//!
//! The GCX evaluator produces its result as a stream of tokens written
//! directly to a sink (paper Fig. 2, "output stream" column). [`XmlWriter`]
//! performs the escaping; [`CountingSink`] is a sink that only counts bytes,
//! used by the benchmark harness so that output I/O does not dominate the
//! measurements.

use crate::scan;
use crate::tags::{TagId, TagInterner};
use std::io::{self, Write};

/// Writes XML tokens to an [`io::Write`], escaping character data.
///
/// The writer does not buffer; wrap the sink in a `BufWriter` (or use
/// [`XmlWriter::into_inner`] with a `Vec<u8>`) for performance.
pub struct XmlWriter<W: Write> {
    sink: W,
    bytes_written: u64,
    depth: usize,
}

impl<W: Write> XmlWriter<W> {
    /// Creates a writer over `sink`.
    pub fn new(sink: W) -> Self {
        XmlWriter {
            sink,
            bytes_written: 0,
            depth: 0,
        }
    }

    /// Total bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Current open-element depth of the written stream.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Writes `<name>`.
    pub fn open(&mut self, tag: TagId, tags: &TagInterner) -> io::Result<()> {
        let name = tags.name(tag);
        self.sink.write_all(b"<")?;
        self.sink.write_all(name.as_bytes())?;
        self.sink.write_all(b">")?;
        self.bytes_written += name.len() as u64 + 2;
        self.depth += 1;
        Ok(())
    }

    /// Writes `</name>`.
    pub fn close(&mut self, tag: TagId, tags: &TagInterner) -> io::Result<()> {
        let name = tags.name(tag);
        self.sink.write_all(b"</")?;
        self.sink.write_all(name.as_bytes())?;
        self.sink.write_all(b">")?;
        self.bytes_written += name.len() as u64 + 3;
        self.depth = self.depth.saturating_sub(1);
        Ok(())
    }

    /// Writes escaped character data. Runs between `<`, `>` and `&` go
    /// out whole: the vectorized [`scan::find_byte3`] jumps from one
    /// special byte to the next.
    pub fn text(&mut self, s: &str) -> io::Result<()> {
        let mut rest = s.as_bytes();
        while let Some(i) = scan::find_byte3(rest, b'<', b'>', b'&') {
            let repl: &[u8] = match rest[i] {
                b'<' => b"&lt;",
                b'>' => b"&gt;",
                _ => b"&amp;",
            };
            self.raw(&rest[..i])?;
            self.raw(repl)?;
            rest = &rest[i + 1..];
        }
        self.raw(rest)
    }

    /// Writes bytes that are already serialized XML and leaves `opened`
    /// more elements open: what the lexer's copy scan
    /// ([`crate::XmlLexer::scan_copy`]) takes from its input window.
    pub(crate) fn copied(&mut self, bytes: &[u8], opened: usize) -> io::Result<()> {
        self.depth += opened;
        self.raw(bytes)
    }

    #[inline]
    fn raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        self.sink.write_all(bytes)?;
        self.bytes_written += bytes.len() as u64;
        Ok(())
    }

    /// Flushes the underlying sink.
    pub fn flush(&mut self) -> io::Result<()> {
        self.sink.flush()
    }

    /// Consumes the writer, returning the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }
}

/// A sink that discards data and counts bytes. Implements [`Write`].
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingSink {
    bytes: u64,
}

impl CountingSink {
    /// New zeroed sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes "written" so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::XmlLexer;
    use crate::{XmlError, XmlEvent};

    #[test]
    fn writes_tokens() {
        let mut tags = TagInterner::new();
        let a = tags.intern("a");
        let mut out = Vec::new();
        let mut w = XmlWriter::new(&mut out);
        w.open(a, &tags).unwrap();
        w.text("x<y&z").unwrap();
        w.close(a, &tags).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "<a>x&lt;y&amp;z</a>");
    }

    /// The byte-at-a-time escaper `text` replaced: the reference.
    fn escape_bytewise(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '&' => out.push_str("&amp;"),
                c => out.push(c),
            }
        }
        out
    }

    /// `text` agrees with the byte loop with each special byte at every
    /// position of strings of length 0–200 (every vector block boundary
    /// and the scalar tails), alone and beside the other two.
    #[test]
    fn text_escapes_like_the_byte_loop() {
        for len in 0..=200usize {
            let plain: String = (0..len).map(|i| (b'a' + (i % 26) as u8) as char).collect();
            let mut cases = vec![plain.clone()];
            for special in ['<', '>', '&'] {
                for at in 0..len {
                    let mut s = plain.clone().into_bytes();
                    s[at] = special as u8;
                    cases.push(String::from_utf8(s.clone()).unwrap());
                    if at + 2 < len {
                        s[at + 1] = b'&';
                        s[at + 2] = b'>';
                        cases.push(String::from_utf8(s).unwrap());
                    }
                }
            }
            for s in cases {
                let mut w = XmlWriter::new(Vec::new());
                w.text(&s).unwrap();
                let n = w.bytes_written();
                let out = String::from_utf8(w.into_inner()).unwrap();
                assert_eq!(out, escape_bytewise(&s), "len {len}: {s:?}");
                assert_eq!(n, out.len() as u64);
            }
        }
    }

    #[test]
    fn counting_sink_counts() {
        let mut sink = CountingSink::new();
        let mut tags = TagInterner::new();
        let a = tags.intern("ab");
        {
            let mut w = XmlWriter::new(&mut sink);
            w.open(a, &tags).unwrap();
            w.close(a, &tags).unwrap();
            assert_eq!(w.bytes_written(), 9);
        }
        assert_eq!(sink.bytes(), 9);
    }

    #[test]
    fn depth_tracks() {
        let mut tags = TagInterner::new();
        let a = tags.intern("a");
        let mut w = XmlWriter::new(Vec::new());
        w.open(a, &tags).unwrap();
        assert_eq!(w.depth(), 1);
        w.close(a, &tags).unwrap();
        assert_eq!(w.depth(), 0);
    }

    include!("../tests/support/tokens.rs");

    /// Lex → write → lex must be the identity on token streams.
    #[test]
    fn roundtrip_preserves_tokens() {
        let input = "<a><b attr=\"1\">x &amp; y</b><c/>tail</a>";
        let mut tags = TagInterner::new();
        let mut lexer = XmlLexer::new(input.as_bytes(), &mut tags);
        let toks = lexer.tokenize_all().unwrap();
        let text = tokens_to_string(&toks, &tags);
        let mut lexer2 = XmlLexer::new(text.as_bytes(), &mut tags);
        let toks2 = lexer2.tokenize_all().unwrap();
        assert_eq!(toks, toks2);
    }
}
