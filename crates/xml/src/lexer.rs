//! Pull-based streaming XML tokenizer.
//!
//! The GCX stream preprojector consumes the input one token at a time
//! (paper Fig. 11: the buffer manager issues `nextNode()` requests). This
//! lexer delivers exactly that interface: [`XmlLexer::next_event`] returns
//! the next borrowed [`XmlEvent`] without ever materializing the document.
//! ([`XmlLexer::next_token`] is the owning wrapper over it, for the DOM
//! baseline and the token-stream oracles.)
//!
//! Supported input constructs: elements, character data, entity references
//! (`&lt; &gt; &amp; &apos; &quot; &#10; &#x0A;`), CDATA sections, comments,
//! processing instructions, XML declarations and DOCTYPE declarations
//! (the latter four are skipped). Attributes are handled according to
//! [`AttributeMode`]; the paper converted attributes into subelements for
//! all of its benchmarks, which is this lexer's default.
//!
//! ## Skip mode
//!
//! When a consumer has proven a subtree irrelevant (the projection
//! matcher's dead-subtree verdict), [`XmlLexer::skip_subtree`] consumes
//! the rest of it as raw bytes: no text is copied into scratch, no
//! entities are decoded, no attribute names or values are interned, and
//! no events are materialized. The scanner tracks only element nesting
//! depth, stepping over comments, CDATA sections (which may contain
//! `</`), processing instructions and quoted attribute values (which may
//! contain `>`). Structural well-formedness (balanced nesting, the
//! subtree root's close-tag name, EOF) is still enforced; *content*
//! validation that the per-event path performs — close-tag name matching
//! strictly inside the skipped subtree, entity names, UTF-8 in character
//! data — is intentionally not, because the bytes are discarded anyway.
//! Skipped byte counts accumulate in [`XmlLexer::bytes_skipped`].
//!
//! ## Non-blocking readers
//!
//! The lexer is resumable over readers that return
//! [`std::io::ErrorKind::WouldBlock`]: every construct boundary is a
//! rewind checkpoint, refills preserve the bytes from the checkpoint
//! onward, and a `WouldBlock` mid-construct rewinds the lexer to the
//! checkpoint before propagating (see [`XmlError::is_would_block`]).
//! Calling [`XmlLexer::next_event`] (or [`XmlLexer::skip_subtree`],
//! which additionally persists its nesting depth) again once more bytes
//! are available continues exactly where the blocking lexer would have:
//! the token stream is bit-identical to the blocking one. A reader's
//! `Ok(0)` still means end of input, so a non-blocking source must
//! return `WouldBlock` — never a zero read — while input is merely
//! pending.

use crate::error::XmlError;
use crate::scan::{self, ScanKernel};
use crate::tags::{TagId, TagInterner};
use crate::token::{XmlEvent, XmlToken};
use crate::Result;
use std::collections::VecDeque;
use std::io::Read;

/// Queued follow-up events (bachelor tags, attribute expansion). Attribute
/// text is stored as a range into the lexer's `attr_buf` scratch arena so
/// queueing never allocates in steady state.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Open(TagId),
    Close(TagId),
    AttrText { start: u32, end: u32 },
}

/// What to do with attributes in the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttributeMode {
    /// Convert each attribute `a="v"` of `<e>` into a leading subelement
    /// `<a>v</a>` of `e`, in attribute order. This is the adaptation the
    /// paper applied to the XMark data ("we converted XML attributes into
    /// subelements", §7).
    #[default]
    AsSubelements,
    /// Silently drop attributes.
    Ignore,
    /// Reject documents containing attributes.
    Error,
}

/// What to do with whitespace-only character data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WhitespaceMode {
    /// Deliver whitespace-only text tokens (faithful to the stream).
    Keep,
    /// Drop text tokens that consist solely of XML whitespace. Useful when
    /// evaluating queries over pretty-printed documents, where indentation
    /// would otherwise be buffered by `dos::node()` projections.
    #[default]
    DropWhitespaceOnly,
}

/// Lexer configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct LexerOptions {
    pub attributes: AttributeMode,
    pub whitespace: WhitespaceMode,
}

/// Streaming tokenizer over any [`Read`].
///
/// The lexer performs its own buffering (do not wrap the reader in a
/// `BufReader`). Well-formedness is enforced: tags must balance, and
/// exactly one document element is allowed.
pub struct XmlLexer<'t, R: Read> {
    reader: R,
    buf: Vec<u8>,
    /// Valid bytes are `buf[pos..len]`.
    pos: usize,
    len: usize,
    /// Total bytes consumed from the reader before `buf\[0\]`.
    base: u64,
    tags: &'t mut TagInterner,
    opts: LexerOptions,
    /// Stack of open element tags, for balance checking.
    open: Vec<TagId>,
    /// Queued events (from bachelor tags / attribute expansion).
    pending: VecDeque<Pending>,
    /// True once the single document element has closed.
    document_done: bool,
    /// Scratch for character data accumulation (raw UTF-8 bytes). Reused
    /// across tokens; cleared lazily after the borrowed text event has
    /// been handed out.
    text: Vec<u8>,
    /// The previous `next_event` call returned a borrow of `text`; clear
    /// it on the next call.
    text_emitted: bool,
    /// Scratch arena for attribute values of the current tag.
    attr_buf: Vec<u8>,
    /// Scratch for names that span a buffer refill (rare).
    name_buf: Vec<u8>,
    /// Total bytes consumed by [`Self::skip_subtree`] raw scans.
    bytes_skipped: u64,
    eof: bool,
    /// Rewind checkpoint (≤ `pos`): the buffer index of the current
    /// construct's start. [`Self::fill`] preserves `buf[ckpt..len]`
    /// across refills, and a `WouldBlock` read rewinds to here so the
    /// construct re-lexes verbatim once more input arrives.
    ckpt: usize,
    /// Text-scratch length at the checkpoint (rewind truncates to it).
    ckpt_text: usize,
    /// An in-flight [`Self::skip_subtree`] interrupted by `WouldBlock`:
    /// call `skip_subtree` again to resume it.
    skip: Option<SkipState>,
}

/// Persisted state of a raw subtree skip across `WouldBlock` returns.
struct SkipState {
    /// Nesting depth relative to the element being skipped.
    depth: usize,
    /// Input offset where the skip began (for the byte count).
    start: u64,
}

const BUF_SIZE: usize = 64 * 1024;

impl<'t, R: Read> XmlLexer<'t, R> {
    /// Creates a lexer with default options.
    pub fn new(reader: R, tags: &'t mut TagInterner) -> Self {
        Self::with_options(reader, tags, LexerOptions::default())
    }

    /// Creates a lexer with explicit options.
    pub fn with_options(reader: R, tags: &'t mut TagInterner, opts: LexerOptions) -> Self {
        XmlLexer {
            reader,
            buf: vec![0; BUF_SIZE],
            pos: 0,
            len: 0,
            base: 0,
            tags,
            opts,
            open: Vec::with_capacity(16),
            pending: VecDeque::new(),
            document_done: false,
            text: Vec::new(),
            text_emitted: false,
            attr_buf: Vec::new(),
            name_buf: Vec::new(),
            bytes_skipped: 0,
            eof: false,
            ckpt: 0,
            ckpt_text: 0,
            skip: None,
        }
    }

    /// Byte offset of the next unread byte.
    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Access to the shared tag interner.
    pub fn tags(&self) -> &TagInterner {
        self.tags
    }

    /// True once the document element has been completely read.
    pub fn document_done(&self) -> bool {
        self.document_done && self.pending.is_empty()
    }

    /// Total bytes consumed by [`Self::skip_subtree`] raw scans (for
    /// throughput statistics: these bytes never became events).
    pub fn bytes_skipped(&self) -> u64 {
        self.bytes_skipped
    }

    /// Marks the current position as a rewind checkpoint: everything
    /// before it is consumed for good, everything from it on re-lexes
    /// after a `WouldBlock` rewind.
    #[inline]
    fn set_ckpt(&mut self) {
        self.ckpt = self.pos;
        self.ckpt_text = self.text.len();
    }

    /// Rewinds to the checkpoint after a `WouldBlock` read: position and
    /// text scratch return to the construct boundary, and any events the
    /// partial construct queued (attribute expansion) are dropped — the
    /// retry re-derives them. Called with the queue in its checkpoint
    /// state (empty): checkpoints are only set once it has drained.
    fn rewind_to_ckpt(&mut self) {
        self.pos = self.ckpt;
        self.text.truncate(self.ckpt_text);
        self.pending.clear();
    }

    #[inline]
    fn fill(&mut self) -> Result<bool> {
        if self.pos < self.len {
            return Ok(true);
        }
        if self.eof {
            return Ok(false);
        }
        // Compact: discard only up to the rewind checkpoint, so a
        // construct interrupted by `WouldBlock` re-lexes from bytes we
        // still hold. In the common case `ckpt == len` and the whole
        // buffer is discarded, exactly as a plain refill.
        let keep = self.ckpt.min(self.len);
        self.buf.copy_within(keep..self.len, 0);
        self.base += keep as u64;
        self.pos -= keep;
        self.len -= keep;
        self.ckpt = 0;
        if self.len == self.buf.len() {
            // A single construct spans the entire buffer (giant text
            // run or CDATA section pinned by the checkpoint): grow so
            // lexing can make progress.
            let new_len = self.buf.len() * 2;
            self.buf.resize(new_len, 0);
        }
        loop {
            let dst = self.len;
            match self.reader.read(&mut self.buf[dst..]) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(false);
                }
                Ok(n) => {
                    self.len += n;
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.rewind_to_ckpt();
                    return Err(e.into());
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    #[inline]
    fn peek(&mut self) -> Result<Option<u8>> {
        if self.fill()? {
            Ok(Some(self.buf[self.pos]))
        } else {
            Ok(None)
        }
    }

    #[inline]
    fn bump(&mut self, context: &'static str) -> Result<u8> {
        match self.peek()? {
            Some(b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(XmlError::UnexpectedEof {
                offset: self.offset(),
                context,
            }),
        }
    }

    fn expect(&mut self, b: u8, context: &'static str) -> Result<()> {
        let got = self.bump(context)?;
        if got != b {
            return Err(XmlError::Malformed {
                offset: self.offset() - 1,
                detail: format!(
                    "expected '{}' in {context}, found '{}'",
                    b as char, got as char
                ),
            });
        }
        Ok(())
    }

    /// Consumes input up to and including `suffix`, with proper overlap
    /// fallback on mismatch (KMP-style): after matching `]]` of `]]>`,
    /// another `]` must keep two bytes matched, not reset to one —
    /// otherwise `x]]]>` style terminators are scanned past.
    ///
    /// Fast path: a vectorized scan for the suffix's first byte (the
    /// anchor), then a direct slice compare when the whole suffix is
    /// visible in the buffer. A candidate too close to the buffer end —
    /// the terminator may straddle a refill — drops to the byte-at-a-time
    /// KMP loop, which is also where overlapping candidates (`]]]>`)
    /// resolve; once the partial match dies back to zero the scan
    /// returns to the vectorized anchor search.
    fn skip_until(&mut self, suffix: &[u8], context: &'static str) -> Result<()> {
        // Longest proper prefix of suffix[..matched] that is also a
        // suffix of it (then the current byte is retried at that length).
        fn fallback(suffix: &[u8], matched: usize) -> usize {
            (1..matched)
                .rev()
                .find(|&k| suffix[..k] == suffix[matched - k..matched])
                .unwrap_or(0)
        }
        let mut matched = 0usize;
        loop {
            if matched == 0 {
                // Vectorized anchor scan within the buffered bytes.
                if !self.fill()? {
                    return Err(XmlError::UnexpectedEof {
                        offset: self.offset(),
                        context,
                    });
                }
                match scan::find_byte(&self.buf[self.pos..self.len], suffix[0]) {
                    None => {
                        self.pos = self.len;
                        continue;
                    }
                    Some(i) => {
                        let cand = self.pos + i;
                        if cand + suffix.len() <= self.len {
                            if &self.buf[cand..cand + suffix.len()] == suffix {
                                self.pos = cand + suffix.len();
                                return Ok(());
                            }
                            // Not the terminator: step past the anchor
                            // byte only (a later candidate may start
                            // inside this failed window, e.g. "]]]>").
                            self.pos = cand + 1;
                            continue;
                        }
                        // The window straddles the buffer end; resolve
                        // it byte-at-a-time across the refill.
                        self.pos = cand;
                    }
                }
            }
            let b = self.bump(context)?;
            loop {
                if b == suffix[matched] {
                    matched += 1;
                    break;
                }
                if matched == 0 {
                    break;
                }
                matched = fallback(suffix, matched);
            }
            if matched == suffix.len() {
                return Ok(());
            }
        }
    }

    /// Consumes input up to and including the next `target` byte
    /// (vectorized). Shared by the raw-skip quote/close-tag scans.
    #[inline]
    fn skip_to_byte(&mut self, target: u8, context: &'static str) -> Result<()> {
        loop {
            if !self.fill()? {
                return Err(XmlError::UnexpectedEof {
                    offset: self.offset(),
                    context,
                });
            }
            match scan::find_byte(&self.buf[self.pos..self.len], target) {
                Some(i) => {
                    self.pos += i + 1;
                    return Ok(());
                }
                None => self.pos = self.len,
            }
        }
    }

    /// Consumes a DOCTYPE declaration after `<!D`, up to its closing
    /// `>`. Steps over the `[...]` internal subset *and* quoted
    /// system/public literals — a literal may legally contain `>`
    /// (`<!DOCTYPE foo SYSTEM "a>b">`), which must not terminate the
    /// declaration. Shared by the per-event and raw-skip paths.
    fn skip_doctype(&mut self) -> Result<()> {
        let mut brackets = 0usize;
        loop {
            match self.bump("DOCTYPE")? {
                b'[' => brackets += 1,
                b']' => brackets = brackets.saturating_sub(1),
                q @ (b'"' | b'\'') => self.skip_to_byte(q, "DOCTYPE literal")?,
                b'>' if brackets == 0 => return Ok(()),
                _ => {}
            }
        }
    }

    /// Reads a name and interns it directly from the input buffer. The
    /// fast path (name fully visible in the current buffer — virtually
    /// always, with 64 KiB refills) performs zero allocations: the
    /// borrowed byte slice goes straight into the interner's raw-bytes
    /// hash lookup. Only names spanning a refill take the scratch-copy
    /// slow path.
    fn read_name_id(&mut self, context: &'static str) -> Result<TagId> {
        if self.peek()?.is_none() {
            return Err(XmlError::UnexpectedEof {
                offset: self.offset(),
                context,
            });
        }
        let start = self.pos;
        let i = start + scan::name_run_len(&self.buf[start..self.len]);
        if i < self.len {
            if i == start {
                return Err(XmlError::Malformed {
                    offset: self.offset(),
                    detail: format!("empty name in {context}"),
                });
            }
            self.pos = i;
            let id = self
                .tags
                .intern_bytes(&self.buf[start..i])
                .expect("name bytes are an ASCII subset");
            return Ok(id);
        }
        // The name touches the end of the buffer: continue through refills
        // via the reusable scratch.
        self.name_buf.clear();
        self.name_buf.extend_from_slice(&self.buf[start..i]);
        self.pos = i;
        loop {
            if !self.fill()? {
                return Err(XmlError::UnexpectedEof {
                    offset: self.offset(),
                    context,
                });
            }
            let n = scan::name_run_len(&self.buf[self.pos..self.len]);
            self.name_buf
                .extend_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            if self.pos < self.len {
                break; // hit a non-name byte
            }
        }
        if self.name_buf.is_empty() {
            return Err(XmlError::Malformed {
                offset: self.offset(),
                detail: format!("empty name in {context}"),
            });
        }
        let id = self
            .tags
            .intern_bytes(&self.name_buf)
            .expect("name bytes are an ASCII subset");
        Ok(id)
    }

    fn skip_ws(&mut self) -> Result<()> {
        loop {
            if !self.fill()? {
                return Ok(());
            }
            match scan::find_non_ws(&self.buf[self.pos..self.len]) {
                Some(i) => {
                    self.pos += i;
                    return Ok(());
                }
                None => self.pos = self.len,
            }
        }
    }

    /// Decodes one entity reference; the leading `&` is already consumed.
    /// Allocation-free on success: the entity name lives in a stack
    /// buffer (names longer than 11 bytes are malformed anyway).
    fn read_entity(&mut self) -> Result<char> {
        let mut name = [0u8; 12];
        let mut n = 0usize;
        loop {
            let b = self.bump("entity reference")?;
            if b == b';' {
                break;
            }
            if n >= 11 {
                return Err(XmlError::Malformed {
                    offset: self.offset(),
                    detail: "entity reference too long".into(),
                });
            }
            name[n] = b;
            n += 1;
        }
        let name = &name[..n];
        let shown = |name: &[u8]| String::from_utf8_lossy(name).into_owned();
        let bad = |detail: String, offset: u64| XmlError::Malformed { offset, detail };
        let off = self.offset();
        Ok(match name {
            b"lt" => '<',
            b"gt" => '>',
            b"amp" => '&',
            b"apos" => '\'',
            b"quot" => '"',
            _ if name.starts_with(b"#x") || name.starts_with(b"#X") => {
                let digits = std::str::from_utf8(&name[2..]).map_err(|_| {
                    bad(
                        format!("bad hex character reference &{};", shown(name)),
                        off,
                    )
                })?;
                let cp = u32::from_str_radix(digits, 16).map_err(|_| {
                    bad(
                        format!("bad hex character reference &{};", shown(name)),
                        off,
                    )
                })?;
                char::from_u32(cp)
                    .ok_or_else(|| bad(format!("invalid code point in &{};", shown(name)), off))?
            }
            _ if name.starts_with(b"#") => {
                let digits = std::str::from_utf8(&name[1..])
                    .map_err(|_| bad(format!("bad character reference &{};", shown(name)), off))?;
                let cp: u32 = digits
                    .parse()
                    .map_err(|_| bad(format!("bad character reference &{};", shown(name)), off))?;
                char::from_u32(cp)
                    .ok_or_else(|| bad(format!("invalid code point in &{};", shown(name)), off))?
            }
            _ => return Err(bad(format!("unknown entity &{};", shown(name)), off)),
        })
    }

    /// Reads a quoted attribute value (opening quote already consumed)
    /// into the `attr_buf` scratch arena, batching plain byte runs with a
    /// single copy per buffered stretch. Returns the `(start, end)` range
    /// of the (UTF-8 validated) value within the arena.
    fn read_attr_value(&mut self, quote: u8) -> Result<(u32, u32)> {
        let start = self.attr_buf.len();
        loop {
            if !self.fill()? {
                return Err(XmlError::UnexpectedEof {
                    offset: self.offset(),
                    context: "attribute value",
                });
            }
            let i = match scan::find_byte2(&self.buf[self.pos..self.len], quote, b'&') {
                Some(k) => self.pos + k,
                None => self.len,
            };
            self.attr_buf.extend_from_slice(&self.buf[self.pos..i]);
            self.pos = i;
            if i == self.len {
                continue;
            }
            let b = self.buf[i];
            self.pos += 1;
            if b == quote {
                std::str::from_utf8(&self.attr_buf[start..]).map_err(|_| XmlError::Malformed {
                    offset: self.offset(),
                    detail: "attribute value is not valid UTF-8".into(),
                })?;
                return Ok((start as u32, self.attr_buf.len() as u32));
            }
            // b == '&'
            let c = self.read_entity()?;
            let mut enc = [0u8; 4];
            self.attr_buf
                .extend_from_slice(c.encode_utf8(&mut enc).as_bytes());
        }
    }

    /// Parses the inside of an opening tag after the name. Returns `true`
    /// when the tag is self-closing. Attribute tokens are queued according
    /// to the configured [`AttributeMode`].
    fn read_tag_rest(&mut self) -> Result<bool> {
        loop {
            self.skip_ws()?;
            match self.peek()? {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(false);
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>', "self-closing tag")?;
                    return Ok(true);
                }
                Some(_) => {
                    let at = self.offset();
                    let id = self.read_name_id("attribute name")?;
                    self.skip_ws()?;
                    self.expect(b'=', "attribute")?;
                    self.skip_ws()?;
                    let q = self.bump("attribute value")?;
                    if q != b'"' && q != b'\'' {
                        return Err(XmlError::Malformed {
                            offset: self.offset() - 1,
                            detail: "attribute value must be quoted".into(),
                        });
                    }
                    let (start, end) = self.read_attr_value(q)?;
                    match self.opts.attributes {
                        AttributeMode::AsSubelements => {
                            self.pending.push_back(Pending::Open(id));
                            if end > start {
                                self.pending.push_back(Pending::AttrText { start, end });
                            }
                            self.pending.push_back(Pending::Close(id));
                        }
                        AttributeMode::Ignore => {
                            self.attr_buf.truncate(start as usize);
                        }
                        AttributeMode::Error => {
                            return Err(XmlError::UnexpectedAttribute {
                                offset: at,
                                name: self.tags.name(id).to_string(),
                            });
                        }
                    }
                }
                None => {
                    return Err(XmlError::UnexpectedEof {
                        offset: self.offset(),
                        context: "opening tag",
                    })
                }
            }
        }
    }

    /// Consumes a CDATA section (after `<![`) into the text buffer.
    /// Bracket-free stretches are located with the vectorized `]` scan
    /// and copied wholesale; the `]]>` terminator (including `x]]]>`
    /// style overlaps and refill straddles) resolves byte-at-a-time.
    fn read_cdata(&mut self) -> Result<()> {
        for &b in b"CDATA[" {
            self.expect(b, "CDATA section")?;
        }
        loop {
            if !self.fill()? {
                return Err(XmlError::UnexpectedEof {
                    offset: self.offset(),
                    context: "CDATA section",
                });
            }
            match scan::find_byte(&self.buf[self.pos..self.len], b']') {
                None => {
                    self.text.extend_from_slice(&self.buf[self.pos..self.len]);
                    self.pos = self.len;
                }
                Some(i) => {
                    self.text
                        .extend_from_slice(&self.buf[self.pos..self.pos + i]);
                    self.pos += i;
                    // At a ']': resolve a potential terminator.
                    let mut tail = 0usize; // trailing ']' seen
                    loop {
                        let b = self.bump("CDATA section")?;
                        match (b, tail) {
                            (b']', _) => tail += 1,
                            (b'>', t) if t >= 2 => {
                                for _ in 0..t - 2 {
                                    self.text.push(b']');
                                }
                                return Ok(());
                            }
                            (_, t) => {
                                for _ in 0..t {
                                    self.text.push(b']');
                                }
                                self.text.push(b);
                                break; // back to the vectorized scan
                            }
                        }
                    }
                }
            }
        }
    }

    /// Decides whether the accumulated text should be emitted (per the
    /// whitespace mode), validating UTF-8 up front. A dropped run is
    /// cleared immediately; a kept run stays in `text` for the borrowed
    /// event (cleared lazily on the next call).
    fn take_text_pending(&mut self) -> Result<bool> {
        if self.text.is_empty() {
            return Ok(false);
        }
        let keep = match self.opts.whitespace {
            WhitespaceMode::Keep => true,
            WhitespaceMode::DropWhitespaceOnly => {
                self.text.iter().any(|b| !b.is_ascii_whitespace())
            }
        };
        if !keep {
            self.text.clear();
            return Ok(false);
        }
        std::str::from_utf8(&self.text).map_err(|_| XmlError::Malformed {
            offset: self.offset(),
            detail: "character data is not valid UTF-8".into(),
        })?;
        Ok(true)
    }

    /// The accumulated text, after [`Self::take_text_pending`] validated it.
    #[inline]
    fn text_str(&self) -> &str {
        debug_assert!(std::str::from_utf8(&self.text).is_ok());
        // Validated by take_text_pending just before every call.
        std::str::from_utf8(&self.text).expect("validated UTF-8")
    }

    fn close_tag(&mut self, id: TagId) -> Result<TagId> {
        match self.open.pop() {
            Some(top) if top == id => {
                if self.open.is_empty() {
                    self.document_done = true;
                }
                Ok(id)
            }
            Some(top) => Err(XmlError::MismatchedClose {
                offset: self.offset(),
                expected: self.tags.name(top).to_string(),
                found: self.tags.name(id).to_string(),
            }),
            None => Err(XmlError::UnbalancedClose {
                offset: self.offset(),
                tag: self.tags.name(id).to_string(),
            }),
        }
    }

    /// Resolves a queued event against the scratch arenas.
    #[inline]
    fn resolve_pending(&self, p: Pending) -> XmlEvent<'_> {
        match p {
            Pending::Open(t) => XmlEvent::Open(t),
            Pending::Close(t) => XmlEvent::Close(t),
            Pending::AttrText { start, end } => XmlEvent::Text(
                std::str::from_utf8(&self.attr_buf[start as usize..end as usize])
                    .expect("validated at parse time"),
            ),
        }
    }

    /// Returns the next event, or `None` at the end of the document.
    ///
    /// This is the zero-allocation hot path: tag names are interned from
    /// borrowed byte slices and character data is handed out as a borrow
    /// of the lexer's reusable scratch buffer. Once the document's tag
    /// vocabulary is interned and the scratch buffers have reached their
    /// high-water capacity, steady-state lexing performs no heap
    /// allocations at all.
    pub fn next_event(&mut self) -> Result<Option<XmlEvent<'_>>> {
        if self.text_emitted {
            self.text.clear();
            self.text_emitted = false;
        }
        if let Some(p) = self.pending.pop_front() {
            return Ok(Some(self.resolve_pending(p)));
        }
        // The attribute arena only backs queued events; the queue is empty.
        self.attr_buf.clear();
        // Construct boundary: a WouldBlock anywhere below rewinds here
        // (with the text accumulated so far — re-entry keeps appending).
        self.set_ckpt();
        loop {
            let b = match self.peek()? {
                Some(b) => b,
                None => {
                    if !self.open.is_empty() {
                        return Err(XmlError::UnclosedElements {
                            offset: self.offset(),
                            open: self.open.len(),
                        });
                    }
                    return Ok(None);
                }
            };
            if b != b'<' {
                self.pos += 1;
                if self.open.is_empty() {
                    if !b.is_ascii_whitespace() {
                        return Err(if self.document_done {
                            XmlError::TrailingContent {
                                offset: self.offset() - 1,
                            }
                        } else {
                            XmlError::Malformed {
                                offset: self.offset() - 1,
                                detail: "character data outside document element".into(),
                            }
                        });
                    }
                    continue;
                }
                if b == b'&' {
                    let c = self.read_entity()?;
                    let mut enc = [0u8; 4];
                    self.text
                        .extend_from_slice(c.encode_utf8(&mut enc).as_bytes());
                } else {
                    // Batch the whole plain run visible in the buffer into
                    // the text scratch with one copy (vectorized scan for
                    // the run's end: the next markup start or entity).
                    self.text.push(b);
                    let i = match scan::find_byte2(&self.buf[self.pos..self.len], b'<', b'&') {
                        Some(k) => self.pos + k,
                        None => self.len,
                    };
                    self.text.extend_from_slice(&self.buf[self.pos..i]);
                    self.pos = i;
                }
                // Accumulated-text state is re-enterable (next_event
                // resumes appending): advance the checkpoint so long
                // text runs neither pin the buffer nor re-lex on retry.
                self.set_ckpt();
                continue;
            }
            // A markup construct begins; flush any accumulated text first,
            // then process the markup on the next call(s).
            self.pos += 1;
            let b2 = self.bump("markup")?;
            match b2 {
                b'?' => {
                    self.skip_until(b"?>", "processing instruction")?;
                }
                b'!' => {
                    let b3 = self.bump("markup declaration")?;
                    if b3 == b'-' {
                        self.expect(b'-', "comment")?;
                        self.skip_until(b"-->", "comment")?;
                    } else if b3 == b'[' {
                        if self.open.is_empty() {
                            return Err(XmlError::Malformed {
                                offset: self.offset(),
                                detail: "CDATA outside document element".into(),
                            });
                        }
                        self.read_cdata()?;
                    } else if b3 == b'D' {
                        self.skip_doctype()?;
                    } else {
                        return Err(XmlError::Malformed {
                            offset: self.offset(),
                            detail: "unsupported '<!' construct".into(),
                        });
                    }
                }
                b'/' => {
                    let has_text = self.take_text_pending()?;
                    let id = self.read_name_id("closing tag")?;
                    self.skip_ws()?;
                    self.expect(b'>', "closing tag")?;
                    let id = self.close_tag(id)?;
                    if has_text {
                        self.pending.push_back(Pending::Close(id));
                        self.text_emitted = true;
                        return Ok(Some(XmlEvent::Text(self.text_str())));
                    }
                    return Ok(Some(XmlEvent::Close(id)));
                }
                _ => {
                    if self.document_done {
                        return Err(XmlError::TrailingContent {
                            offset: self.offset(),
                        });
                    }
                    let has_text = self.take_text_pending()?;
                    self.pos -= 1; // un-consume the first name byte
                    let id = self.read_name_id("opening tag")?;
                    // Attribute events are queued by read_tag_rest; they must
                    // appear *after* the Open event — the queue is empty here
                    // (drained before any markup is read).
                    debug_assert!(self.pending.is_empty(), "pending drained before markup");
                    let self_closing = self.read_tag_rest()?;
                    if self_closing {
                        self.pending.push_back(Pending::Close(id));
                        if self.open.is_empty() {
                            self.document_done = true;
                        }
                    } else {
                        self.open.push(id);
                    }
                    if has_text {
                        self.pending.push_front(Pending::Open(id));
                        self.text_emitted = true;
                        return Ok(Some(XmlEvent::Text(self.text_str())));
                    }
                    return Ok(Some(XmlEvent::Open(id)));
                }
            }
        }
    }

    /// Consumes the rest of the current element's subtree — the element
    /// whose [`XmlEvent::Open`] the previous [`Self::next_event`] call
    /// returned — up to and including its matching close tag, as raw
    /// bytes. Returns the number of bytes scanned past.
    ///
    /// This is the dead-subtree fast path (see the module docs): nothing
    /// is copied, decoded, interned or materialized; the scanner only
    /// tracks nesting depth and steps over comments, CDATA sections,
    /// processing instructions, DOCTYPE declarations and quoted attribute
    /// values. The element's queued events (attribute expansion, a
    /// bachelor tag's own close) are discarded as part of the subtree; if
    /// the element was self-closing the queue already terminates it and
    /// no input bytes are consumed at all.
    ///
    /// Contract: call only immediately after an `Open` event, before any
    /// other lexer call. Relaxations versus per-event skipping are listed
    /// in the module docs; structural errors (unbalanced nesting at EOF,
    /// a mismatched close of the subtree root itself) still surface.
    pub fn skip_subtree(&mut self) -> Result<u64> {
        let (mut depth, start) = match self.skip.take() {
            // Resuming a skip interrupted by WouldBlock: position and
            // depth are back at the last item boundary.
            Some(s) => (s.depth, s.start),
            None => {
                debug_assert!(!self.text_emitted, "skip_subtree must follow an Open event");
                // Depth relative to the element being skipped: 0 means
                // the next close at this level is the element's own.
                let mut depth = 0usize;
                let mut done = false;
                while let Some(p) = self.pending.pop_front() {
                    match p {
                        Pending::Open(_) => depth += 1,
                        Pending::Close(_) => {
                            if depth == 0 {
                                // Self-closing element: the queue
                                // terminated the subtree before any raw
                                // bytes belonged to it.
                                done = true;
                                break;
                            }
                            depth -= 1;
                        }
                        Pending::AttrText { .. } => {}
                    }
                }
                if done {
                    return Ok(0);
                }
                (depth, self.offset())
            }
        };
        loop {
            match self.skip_one(&mut depth, start) {
                Ok(Some(skipped)) => return Ok(skipped),
                Ok(None) => {}
                Err(e) => {
                    if e.is_would_block() {
                        // Park the skip so the next call resumes at the
                        // item boundary the lexer rewound to.
                        self.skip = Some(SkipState { depth, start });
                    }
                    return Err(e);
                }
            }
        }
    }

    /// One pass of the raw skip: the vectorized window scan, plus — when
    /// the window ends mid-item — one cross-refill item resolution.
    /// Returns `Some(byte count)` once the subtree root's close tag has
    /// been consumed. A `WouldBlock` read restores `depth` and the
    /// position to the in-flight item's boundary before propagating, so
    /// the pass retries verbatim.
    fn skip_one(&mut self, depth: &mut usize, start: u64) -> Result<Option<u64>> {
        // Fast path: drive the state machine over the buffered window
        // with a register-resident cursor and no helper calls (see
        // [`skip_fast`]). The kernel is selected once per window so
        // dispatch and vector constants hoist out of the per-item
        // loop; the Sse2 and Avx2 tiers share the inline-SSE2 impl
        // (scan-level rationale on [`scan::SimdOps`]).
        let outcome = match scan::active_kernel() {
            ScanKernel::Scalar => {
                skip_fast::<scan::ScalarOps>(&self.buf, self.pos, self.len, depth)
            }
            ScanKernel::Swar => skip_fast::<scan::SwarOps>(&self.buf, self.pos, self.len, depth),
            #[cfg(target_arch = "x86_64")]
            ScanKernel::Sse2 | ScanKernel::Avx2 => {
                skip_fast::<scan::SimdOps>(&self.buf, self.pos, self.len, depth)
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => skip_fast::<scan::SwarOps>(&self.buf, self.pos, self.len, depth),
        };
        match outcome {
            SkipFast::Drained => self.pos = self.len,
            SkipFast::Rewind(lt) => self.pos = lt,
            SkipFast::RootClose(i) => {
                // The subtree root's own close tag: validate it like
                // the per-event path (the name is already interned
                // from its open tag, so this allocates nothing in
                // steady state). Rewind target: the close tag's '<'
                // (depth is untouched on this path).
                self.pos = i;
                self.ckpt = i - 2;
                self.ckpt_text = self.text.len();
                let id = self.read_name_id("closing tag")?;
                self.skip_ws()?;
                self.expect(b'>', "closing tag")?;
                self.close_tag(id)?;
                let skipped = self.offset() - start;
                self.bytes_skipped += skipped;
                return Ok(Some(skipped));
            }
        }
        // Generic path: refill and resolve one item with the
        // cross-refill helpers, then return to the fast loop. Character
        // data up to the item's '<' is consumed for good (the
        // checkpoint advances with it); the item itself rewinds to its
        // '<' on WouldBlock.
        let lt;
        loop {
            self.set_ckpt();
            if !self.fill()? {
                return Err(XmlError::UnclosedElements {
                    offset: self.offset(),
                    open: self.open.len() + *depth,
                });
            }
            match scan::find_byte(&self.buf[self.pos..self.len], b'<') {
                Some(i) => {
                    lt = self.pos + i;
                    self.pos = lt + 1;
                    break;
                }
                None => self.pos = self.len,
            }
        }
        self.ckpt = lt;
        self.ckpt_text = self.text.len();
        let ck_depth = *depth;
        match self.skip_resolve_item(depth) {
            Ok(true) => {
                let skipped = self.offset() - start;
                self.bytes_skipped += skipped;
                Ok(Some(skipped))
            }
            Ok(false) => Ok(None),
            Err(e) => {
                if e.is_would_block() {
                    *depth = ck_depth;
                }
                Err(e)
            }
        }
    }

    /// Resolves one markup item whose `<` has just been consumed,
    /// possibly across refills. Returns `true` when it was the subtree
    /// root's own close tag (consumed and validated).
    fn skip_resolve_item(&mut self, depth: &mut usize) -> Result<bool> {
        match self.bump("skipped subtree")? {
            b'/' => {
                if *depth == 0 {
                    // The subtree root's own close tag: validate it
                    // like the per-event path (the name is already
                    // interned from its open tag, so this allocates
                    // nothing in steady state).
                    let id = self.read_name_id("closing tag")?;
                    self.skip_ws()?;
                    self.expect(b'>', "closing tag")?;
                    self.close_tag(id)?;
                    return Ok(true);
                }
                // Close-tag names cannot contain '>'.
                self.skip_to_byte(b'>', "closing tag")?;
                *depth -= 1;
            }
            b'!' => {
                let b3 = self.bump("markup declaration")?;
                if b3 == b'-' {
                    self.expect(b'-', "comment")?;
                    self.skip_until(b"-->", "comment")?;
                } else if b3 == b'[' {
                    for &c in b"CDATA[" {
                        self.expect(c, "CDATA section")?;
                    }
                    self.skip_until(b"]]>", "CDATA section")?;
                } else if b3 == b'D' {
                    self.skip_doctype()?;
                } else {
                    return Err(XmlError::Malformed {
                        offset: self.offset(),
                        detail: "unsupported '<!' construct".into(),
                    });
                }
            }
            b'?' => self.skip_until(b"?>", "processing instruction")?,
            _ => {
                // Opening tag. Scan to its '>' stepping over quoted
                // attribute values (which may legally contain '>');
                // '/' immediately before '>' makes it self-closing.
                // Vectorized: jump to the next of '>'/'"'/'\'',
                // tracking the last byte consumed before the jump
                // target so the self-closing check survives both
                // quote skips and buffer refills.
                let mut last = 0u8; // first name byte: never '/'
                loop {
                    if !self.fill()? {
                        return Err(XmlError::UnexpectedEof {
                            offset: self.offset(),
                            context: "opening tag",
                        });
                    }
                    match scan::find_byte3(&self.buf[self.pos..self.len], b'>', b'"', b'\'') {
                        None => {
                            last = self.buf[self.len - 1];
                            self.pos = self.len;
                        }
                        Some(i) => {
                            let c = self.buf[self.pos + i];
                            let prev = if i == 0 {
                                last
                            } else {
                                self.buf[self.pos + i - 1]
                            };
                            self.pos += i + 1;
                            if c == b'>' {
                                if prev != b'/' {
                                    *depth += 1;
                                }
                                break;
                            }
                            // A quoted attribute value: step over it
                            // wholesale ('>' inside is not a tag end).
                            self.skip_to_byte(c, "attribute value")?;
                            last = c;
                        }
                    }
                }
            }
        }
        Ok(false)
    }

    /// Returns the next token as an owned value, or `None` at the end of
    /// the document. Allocating compatibility wrapper over
    /// [`Self::next_event`]; hot paths should prefer the borrowed API.
    pub fn next_token(&mut self) -> Result<Option<XmlToken>> {
        Ok(self.next_event()?.map(XmlEvent::into_owned))
    }

    /// Drains the remaining stream into a vector (convenience for tests).
    pub fn tokenize_all(&mut self) -> Result<Vec<XmlToken>> {
        let mut v = Vec::new();
        while let Some(t) = self.next_token()? {
            v.push(t);
        }
        Ok(v)
    }
}

/// Outcome of one [`skip_fast`] pass over the buffered window.
enum SkipFast {
    /// Window exhausted scanning character data: refill and continue.
    Drained,
    /// The markup item whose '<' is at the returned index straddles the
    /// window end or needs cross-refill machinery (comment, CDATA, PI,
    /// DOCTYPE): rewind there and resolve it with the generic helpers.
    Rewind(usize),
    /// The subtree root's own close tag: the index is just past `</`.
    RootClose(usize),
}

/// The register-resident core of [`XmlLexer::skip_subtree`]: drives the
/// dead-subtree state machine over `buf[pos..end]` with no refills and
/// no lexer-state writes. Raw character data cannot contain an
/// unescaped '<' (entities carry no raw '<'), so a plain byte scan
/// between markup items is exact. Nothing — not even `depth` — is
/// mutated until an item resolves entirely within the window, so the
/// caller can rewind to an unresolved item's '<' without state repair.
///
/// Index bookkeeping uses unchecked slicing/reads: every index is
/// bounded by `end` before use, and the caller guarantees
/// `pos <= end <= buf.len()` (it passes `self.pos`/`self.len`, the
/// lexer's buffered-window invariant). The `debug_assert!` pins that
/// contract in debug builds.
#[inline]
fn skip_fast<K: scan::ScanOps>(buf: &[u8], pos: usize, end: usize, depth: &mut usize) -> SkipFast {
    debug_assert!(pos <= end && end <= buf.len());
    // SAFETY (for every use below): `lo <= hi <= end <= buf.len()` at
    // each call site — `lo`/`hi` are only ever advanced to positions a
    // bound check against `end` has admitted.
    let tail = |lo: usize, hi: usize| unsafe { buf.get_unchecked(lo..hi) };
    let byte = |at: usize| unsafe { *buf.get_unchecked(at) };
    let mut i = pos;
    loop {
        // Adjacent markup ("</a><b>") is the common case in dense
        // regions: a one-byte check there skips the whole find call.
        let lt = if i < end && byte(i) == b'<' {
            i
        } else {
            match K::find_byte(tail(i, end), b'<') {
                Some(k) => i + k,
                None => return SkipFast::Drained,
            }
        };
        i = lt + 1;
        if i >= end {
            return SkipFast::Rewind(lt);
        }
        let b = byte(i);
        i += 1;
        match b {
            b'/' => {
                if *depth == 0 {
                    return SkipFast::RootClose(i);
                }
                // Close-tag names cannot contain '>'.
                match K::find_byte(tail(i, end), b'>') {
                    Some(k) => {
                        i += k + 1;
                        *depth -= 1;
                    }
                    None => return SkipFast::Rewind(lt),
                }
            }
            b'!' => {
                // "<!--" comment or "<![CDATA[": resolve within the
                // window, anchored on the terminator's first byte and
                // stepping past the anchor only on a failed candidate so
                // overlapping terminators ("x]]]>", "--->") resolve
                // exactly like the generic `skip_until`. DOCTYPE, a
                // malformed construct, or a terminator that may straddle
                // the window end all rewind to the generic path.
                if end - i >= 2 && byte(i) == b'-' && byte(i + 1) == b'-' {
                    let mut j = i + 2;
                    loop {
                        match K::find_byte(tail(j, end), b'-') {
                            Some(k) if j + k + 3 <= end => {
                                let m = j + k;
                                if byte(m + 1) == b'-' && byte(m + 2) == b'>' {
                                    i = m + 3;
                                    break;
                                }
                                j = m + 1;
                            }
                            _ => return SkipFast::Rewind(lt),
                        }
                    }
                } else if end - i >= 7 && tail(i, i + 7) == b"[CDATA[" {
                    let mut j = i + 7;
                    loop {
                        match K::find_byte(tail(j, end), b']') {
                            Some(k) if j + k + 3 <= end => {
                                let m = j + k;
                                if byte(m + 1) == b']' && byte(m + 2) == b'>' {
                                    i = m + 3;
                                    break;
                                }
                                j = m + 1;
                            }
                            _ => return SkipFast::Rewind(lt),
                        }
                    }
                } else {
                    return SkipFast::Rewind(lt);
                }
            }
            b'?' => {
                // Processing instruction: terminator "?>".
                let mut j = i;
                loop {
                    match K::find_byte(tail(j, end), b'?') {
                        Some(k) if j + k + 2 <= end => {
                            let m = j + k;
                            if byte(m + 1) == b'>' {
                                i = m + 2;
                                break;
                            }
                            j = m + 1;
                        }
                        _ => return SkipFast::Rewind(lt),
                    }
                }
            }
            _ => {
                // Opening tag: scan to its '>' stepping over quoted
                // attribute values (which may legally contain '>'); '/'
                // immediately before '>' makes it self-closing. The
                // whole tag is inside the window, so the byte before any
                // candidate is always addressable.
                let done = loop {
                    match K::find_byte3(tail(i, end), b'>', b'"', b'\'') {
                        None => break false,
                        Some(k) => {
                            let c = byte(i + k);
                            let prev = byte(i + k - 1);
                            i += k + 1;
                            if c == b'>' {
                                if prev != b'/' {
                                    *depth += 1;
                                }
                                break true;
                            }
                            // A quoted attribute value: step over it
                            // wholesale.
                            match K::find_byte(tail(i, end), c) {
                                Some(k2) => i += k2 + 1,
                                None => break false,
                            }
                        }
                    }
                };
                if !done {
                    return SkipFast::Rewind(lt);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(input: &str) -> Vec<String> {
        let mut tags = TagInterner::new();
        let mut lexer = XmlLexer::new(input.as_bytes(), &mut tags);
        let tokens = lexer.tokenize_all().expect("lex ok");
        tokens
            .iter()
            .map(|t| t.display(lexer.tags()).to_string())
            .collect()
    }

    #[test]
    fn simple_document() {
        assert_eq!(
            lex("<a><b>hi</b></a>"),
            vec!["<a>", "<b>", "\"hi\"", "</b>", "</a>"]
        );
    }

    #[test]
    fn bachelor_tag_expands() {
        assert_eq!(
            lex("<a><title/></a>"),
            vec!["<a>", "<title>", "</title>", "</a>"]
        );
    }

    #[test]
    fn bachelor_root() {
        assert_eq!(lex("<a/>"), vec!["<a>", "</a>"]);
    }

    #[test]
    fn entities_resolve() {
        let t = lex("<a>&lt;x&gt; &amp; &#65;&#x42;</a>");
        assert_eq!(t[1], "\"<x> & AB\"");
    }

    #[test]
    fn entity_in_attribute() {
        let t = lex("<a v=\"x&amp;y\"/>");
        assert_eq!(t, vec!["<a>", "<v>", "\"x&y\"", "</v>", "</a>"]);
    }

    #[test]
    fn comments_and_pis_skipped() {
        assert_eq!(
            lex("<?xml version=\"1.0\"?><!-- c --><a><!-- inner -->x</a>"),
            vec!["<a>", "\"x\"", "</a>"]
        );
    }

    #[test]
    fn cdata_is_text() {
        assert_eq!(
            lex("<a><![CDATA[1 < 2 & 3]]></a>"),
            vec!["<a>", "\"1 < 2 & 3\"", "</a>"]
        );
    }

    #[test]
    fn cdata_with_trailing_bracket() {
        assert_eq!(lex("<a><![CDATA[x]]]></a>"), vec!["<a>", "\"x]\"", "</a>"]);
    }

    #[test]
    fn cdata_with_inner_brackets() {
        assert_eq!(
            lex("<a><![CDATA[a]]b]]></a>"),
            vec!["<a>", "\"a]]b\"", "</a>"]
        );
    }

    #[test]
    fn attributes_become_subelements() {
        assert_eq!(
            lex("<item id=\"i1\" featured=\"yes\">text</item>"),
            vec![
                "<item>",
                "<id>",
                "\"i1\"",
                "</id>",
                "<featured>",
                "\"yes\"",
                "</featured>",
                "\"text\"",
                "</item>"
            ]
        );
    }

    #[test]
    fn attributes_ignored_when_configured() {
        let mut tags = TagInterner::new();
        let opts = LexerOptions {
            attributes: AttributeMode::Ignore,
            ..Default::default()
        };
        let mut lexer = XmlLexer::with_options("<a x=\"1\">t</a>".as_bytes(), &mut tags, opts);
        let tokens = lexer.tokenize_all().unwrap();
        assert_eq!(tokens.len(), 3);
    }

    #[test]
    fn attributes_error_when_configured() {
        let mut tags = TagInterner::new();
        let opts = LexerOptions {
            attributes: AttributeMode::Error,
            ..Default::default()
        };
        let mut lexer = XmlLexer::with_options("<a x=\"1\"/>".as_bytes(), &mut tags, opts);
        assert!(matches!(
            lexer.tokenize_all(),
            Err(XmlError::UnexpectedAttribute { .. })
        ));
    }

    #[test]
    fn whitespace_only_dropped_by_default() {
        assert_eq!(lex("<a>\n  <b/>\n</a>"), vec!["<a>", "<b>", "</b>", "</a>"]);
    }

    #[test]
    fn whitespace_kept_when_configured() {
        let mut tags = TagInterner::new();
        let opts = LexerOptions {
            whitespace: WhitespaceMode::Keep,
            ..Default::default()
        };
        let mut lexer = XmlLexer::with_options("<a> <b/> </a>".as_bytes(), &mut tags, opts);
        let tokens = lexer.tokenize_all().unwrap();
        assert_eq!(tokens.len(), 6);
    }

    #[test]
    fn mismatched_close_rejected() {
        let mut tags = TagInterner::new();
        let mut lexer = XmlLexer::new("<a><b></a></b>".as_bytes(), &mut tags);
        assert!(matches!(
            lexer.tokenize_all(),
            Err(XmlError::MismatchedClose { .. })
        ));
    }

    #[test]
    fn unclosed_rejected() {
        let mut tags = TagInterner::new();
        let mut lexer = XmlLexer::new("<a><b>".as_bytes(), &mut tags);
        assert!(matches!(
            lexer.tokenize_all(),
            Err(XmlError::UnclosedElements { .. })
        ));
    }

    #[test]
    fn stray_close_rejected() {
        let mut tags = TagInterner::new();
        let mut lexer = XmlLexer::new("</a>".as_bytes(), &mut tags);
        assert!(matches!(
            lexer.tokenize_all(),
            Err(XmlError::UnbalancedClose { .. })
        ));
    }

    #[test]
    fn trailing_element_rejected() {
        let mut tags = TagInterner::new();
        let mut lexer = XmlLexer::new("<a/><b/>".as_bytes(), &mut tags);
        assert!(matches!(
            lexer.tokenize_all(),
            Err(XmlError::TrailingContent { .. })
        ));
    }

    #[test]
    fn doctype_skipped() {
        assert_eq!(
            lex("<!DOCTYPE site SYSTEM \"x.dtd\" [<!ENTITY e \"v\">]><a/>"),
            vec!["<a>", "</a>"]
        );
    }

    /// Regression: '>' inside a quoted system/public literal must not
    /// terminate the DOCTYPE declaration.
    #[test]
    fn doctype_literal_with_gt() {
        assert_eq!(
            lex("<!DOCTYPE foo SYSTEM \"a>b\"><a>x</a>"),
            vec!["<a>", "\"x\"", "</a>"]
        );
        assert_eq!(
            lex("<!DOCTYPE foo PUBLIC 'p>q' \"a>b\" [<!ENTITY e \"v>w\">]><a/>"),
            vec!["<a>", "</a>"]
        );
    }

    #[test]
    fn utf8_text_passthrough() {
        let t = lex("<a>héllo wörld — ünïcode</a>");
        assert_eq!(t[1], "\"héllo wörld — ünïcode\"");
    }

    #[test]
    fn text_split_around_children() {
        assert_eq!(
            lex("<a>x<b>y</b>z</a>"),
            vec!["<a>", "\"x\"", "<b>", "\"y\"", "</b>", "\"z\"", "</a>"]
        );
    }

    #[test]
    fn text_before_open_with_attributes() {
        assert_eq!(
            lex("<a>x<b id=\"1\"/></a>"),
            vec!["<a>", "\"x\"", "<b>", "<id>", "\"1\"", "</id>", "</b>", "</a>"]
        );
    }

    #[test]
    fn depth_reporting() {
        let mut tags = TagInterner::new();
        let mut lexer = XmlLexer::new("<a><b></b></a>".as_bytes(), &mut tags);
        assert_eq!(lexer.depth(), 0);
        lexer.next_token().unwrap();
        assert_eq!(lexer.depth(), 1);
        lexer.next_token().unwrap();
        assert_eq!(lexer.depth(), 2);
    }

    #[test]
    fn offsets_advance() {
        let mut tags = TagInterner::new();
        let mut lexer = XmlLexer::new("<a></a>".as_bytes(), &mut tags);
        assert_eq!(lexer.offset(), 0);
        lexer.tokenize_all().unwrap();
        assert_eq!(lexer.offset(), 7);
    }

    #[test]
    fn document_done_flag() {
        let mut tags = TagInterner::new();
        let mut lexer = XmlLexer::new("<a><b/></a>".as_bytes(), &mut tags);
        assert!(!lexer.document_done());
        lexer.tokenize_all().unwrap();
        assert!(lexer.document_done());
    }

    // ------------------------------------------------------------------
    // Skip-mode lexing
    // ------------------------------------------------------------------

    /// Adversarial dead-subtree corpus: every construct the raw scanner
    /// must step over without miscounting depth.
    const SKIP_CORPUS: &[&str] = &[
        // Nested same-name tags.
        "<r><k><d><d><d>x</d></d></d></k><after>y</after></r>",
        // CDATA containing a close-tag lookalike and ']]' teasers.
        "<r><k><![CDATA[</k> ]] ]>&& <nope>]]></k><after/></r>",
        // CDATA terminator preceded by a ']' run (overlap fallback), and
        // a comment ending in an extra dash.
        "<r><k><![CDATA[x]]]></k><after/></r>",
        "<r><k><![CDATA[y]]]]></k><!--z---><after/></r>",
        // Comments containing tags and dashes.
        "<r><k><!-- </k> <x> -- almost --><e/></k><after/></r>",
        // Entities (not decoded while skipping) and raw ampersands in CDATA.
        "<r><k>&lt;&amp;&#65;<e>&quot;</e></k><after>&gt;</after></r>",
        // Attribute values containing '>', '<' lookalikes and quotes.
        "<r><k a=\"1>2\" b='</k>' c=\"x'y\"><e f='a\"b>c'/></k><after/></r>",
        // Processing instructions and a self-closing skip root.
        "<r><k><?pi </k> ?><e/></k><solo x=\"v>w\"/><after/></r>",
        // Whitespace inside close tags, bachelor tags, mixed text.
        "<r><k>t1<e>t2</e\t>t3<e />t4</k ><after/></r>",
        // Deep nesting with text at every level.
        "<r><k>a<d>b<d>c<d>d</d>e</d>f</d>g</k><after/></r>",
        // DOCTYPE-shaped declaration with '>' inside quoted literals
        // (regression: the literal must be stepped over, not treated as
        // the declaration terminator).
        "<r><k><!DOCTYPE d SYSTEM \"a>b\" [<!ENTITY e 'v>w'>]><e/></k><after/></r>",
    ];

    /// Lexes `doc` twice — once plainly, once skipping the subtree of
    /// every element named `k` via `skip_subtree` — and checks the
    /// skipped stream equals the plain stream with those subtrees
    /// removed, byte-position for byte-position.
    fn check_skip_equivalence(doc: &str) {
        // Reference: full token stream.
        let mut tags = TagInterner::new();
        let k = tags.intern("k");
        let mut lexer = XmlLexer::new(doc.as_bytes(), &mut tags);
        let mut reference: Vec<XmlToken> = Vec::new();
        let mut depth_skip = 0usize; // >0 while inside a skipped subtree
        while let Some(t) = lexer.next_token().expect("reference lex") {
            if depth_skip > 0 {
                match t {
                    XmlToken::Open(_) => depth_skip += 1,
                    XmlToken::Close(_) => depth_skip -= 1,
                    XmlToken::Text(_) => {}
                }
                continue;
            }
            if matches!(t, XmlToken::Open(tag) if tag == k) {
                depth_skip = 1;
                continue;
            }
            reference.push(t);
        }
        let reference_offset = lexer.offset();

        // Skip-mode: same traversal, subtree consumed by the raw scanner.
        let mut tags2 = TagInterner::new();
        let k2 = tags2.intern("k");
        let mut lexer2 = XmlLexer::new(doc.as_bytes(), &mut tags2);
        let mut got: Vec<XmlToken> = Vec::new();
        let mut skipped_total = 0u64;
        while let Some(t) = lexer2.next_token().expect("skip-mode lex") {
            if matches!(t, XmlToken::Open(tag) if tag == k2) {
                skipped_total += lexer2.skip_subtree().expect("skip ok");
                continue;
            }
            got.push(t);
        }
        // TagIds may differ between the two interners; compare rendered.
        let show = |ts: &[XmlToken], tags: &TagInterner| -> Vec<String> {
            ts.iter().map(|t| t.display(tags).to_string()).collect()
        };
        assert_eq!(
            show(&got, lexer2.tags()),
            show(&reference, lexer.tags()),
            "token streams diverge on {doc:?}"
        );
        assert_eq!(lexer2.offset(), reference_offset, "offsets diverge");
        assert_eq!(lexer2.bytes_skipped(), skipped_total);
        assert!(lexer2.document_done());
    }

    #[test]
    fn skip_subtree_equivalent_to_per_token_skipping() {
        for doc in SKIP_CORPUS {
            check_skip_equivalence(doc);
        }
    }

    /// The corpus under every chunking (mid-construct refills while the
    /// raw scanner is in flight).
    #[test]
    fn skip_subtree_chunking_invariant() {
        for doc in SKIP_CORPUS {
            for chunk in 1..=7 {
                let mut tags = TagInterner::new();
                let k = tags.intern("k");
                let reader = ChunkedReader {
                    data: doc.as_bytes(),
                    chunk,
                };
                let mut lexer = XmlLexer::new(reader, &mut tags);
                let mut shown = Vec::new();
                while let Some(t) = lexer.next_token().expect("lex ok") {
                    if matches!(t, XmlToken::Open(tag) if tag == k) {
                        lexer.skip_subtree().expect("skip ok");
                        continue;
                    }
                    shown.push(format!("{}", t.display(lexer.tags())));
                }
                assert!(
                    shown.iter().any(|s| s == "<after>"),
                    "chunk {chunk} on {doc:?}: {shown:?}"
                );
                assert!(
                    !shown
                        .iter()
                        .any(|s| s == "<e>" || s == "<d>" || s == "<nope>"),
                    "skipped content leaked at chunk {chunk} on {doc:?}: {shown:?}"
                );
            }
        }
    }

    /// Skipping a self-closing element (its close is already queued)
    /// consumes no raw bytes.
    #[test]
    fn skip_subtree_self_closing() {
        let mut tags = TagInterner::new();
        let mut lexer = XmlLexer::new("<a><b x=\"v\"/><c/></a>".as_bytes(), &mut tags);
        assert!(matches!(
            lexer.next_token().unwrap(),
            Some(XmlToken::Open(_))
        )); // <a>
        assert!(matches!(
            lexer.next_token().unwrap(),
            Some(XmlToken::Open(_))
        )); // <b>
        assert_eq!(lexer.skip_subtree().unwrap(), 0, "queue terminated it");
        let rest = lexer.tokenize_all().unwrap();
        let shown: Vec<String> = rest
            .iter()
            .map(|t| t.display(lexer.tags()).to_string())
            .collect();
        assert_eq!(shown, vec!["<c>", "</c>", "</a>"]);
    }

    /// EOF inside a skipped subtree is an error, as in per-token mode.
    #[test]
    fn skip_subtree_eof_rejected() {
        let mut tags = TagInterner::new();
        let mut lexer = XmlLexer::new("<a><k><deep>".as_bytes(), &mut tags);
        lexer.next_token().unwrap(); // <a>
        lexer.next_token().unwrap(); // <k>
        assert!(matches!(
            lexer.skip_subtree(),
            Err(XmlError::UnclosedElements { .. })
        ));
    }

    /// A mismatched close of the skipped element itself is still caught.
    #[test]
    fn skip_subtree_mismatched_root_close_rejected() {
        let mut tags = TagInterner::new();
        let mut lexer = XmlLexer::new("<a><k><d>x</d></wrong></a>".as_bytes(), &mut tags);
        lexer.next_token().unwrap(); // <a>
        lexer.next_token().unwrap(); // <k>
        assert!(matches!(
            lexer.skip_subtree(),
            Err(XmlError::MismatchedClose { .. })
        ));
    }

    /// Skipping the document element finishes the document.
    #[test]
    fn skip_subtree_of_root_finishes_document() {
        let mut tags = TagInterner::new();
        let mut lexer = XmlLexer::new("<a><b>x</b></a>".as_bytes(), &mut tags);
        lexer.next_token().unwrap(); // <a>
        let skipped = lexer.skip_subtree().unwrap();
        assert!(skipped > 0);
        assert!(lexer.document_done());
        assert!(lexer.next_token().unwrap().is_none());
    }

    /// A reader that yields at most `chunk` bytes per `read` call,
    /// simulating network arrival with splits at arbitrary points —
    /// including mid-tag, mid-entity, mid-CDATA and inside multi-byte
    /// UTF-8 sequences.
    struct ChunkedReader<'a> {
        data: &'a [u8],
        chunk: usize,
    }

    impl Read for ChunkedReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.data.len().min(self.chunk).min(buf.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn lex_chunked(input: &str, chunk: usize) -> Vec<String> {
        let mut tags = TagInterner::new();
        let reader = ChunkedReader {
            data: input.as_bytes(),
            chunk,
        };
        let mut lexer = XmlLexer::new(reader, &mut tags);
        let tokens = lexer.tokenize_all().expect("lex ok");
        tokens
            .iter()
            .map(|t| t.display(lexer.tags()).to_string())
            .collect()
    }

    /// Chunk boundaries anywhere — even inside tokens — never change the
    /// token stream. This is the property the push-based session runtime
    /// (gcx-service) relies on.
    #[test]
    fn chunk_boundaries_mid_token_are_invisible() {
        let doc = "<a id=\"x&amp;y\"><![CDATA[1 < 2]]>h\u{e9}llo \u{2014} w\u{f6}rld\
                   <!-- c --><b/>&#65;&lt;tail</a>";
        let reference = lex(doc);
        assert!(!reference.is_empty());
        for chunk in 1..=16 {
            assert_eq!(
                lex_chunked(doc, chunk),
                reference,
                "token stream changed at chunk size {chunk}"
            );
        }
    }

    /// Splits inside a closing tag, an entity reference and a DOCTYPE.
    #[test]
    fn chunk_boundaries_in_every_construct() {
        let doc = "<!DOCTYPE site SYSTEM \"x.dtd\"><root><item k=\"v\">a&quot;b</item></root>";
        let reference = lex(doc);
        for chunk in 1..=7 {
            assert_eq!(lex_chunked(doc, chunk), reference, "chunk size {chunk}");
        }
    }

    /// Errors are also chunking-independent: malformed input fails the
    /// same way regardless of how it arrives.
    #[test]
    fn malformed_input_fails_identically_under_chunking() {
        let doc = "<a><b></a>";
        for chunk in [1usize, 2, 3, 1024] {
            let mut tags = TagInterner::new();
            let reader = ChunkedReader {
                data: doc.as_bytes(),
                chunk,
            };
            let mut lexer = XmlLexer::new(reader, &mut tags);
            assert!(
                matches!(lexer.tokenize_all(), Err(XmlError::MismatchedClose { .. })),
                "chunk size {chunk}"
            );
        }
    }

    /// A reader that returns `WouldBlock` before every chunk, simulating
    /// a non-blocking socket that runs dry at arbitrary points —
    /// including mid-tag, mid-entity, mid-comment and mid-CDATA.
    struct BlockyReader<'a> {
        data: &'a [u8],
        chunk: usize,
        ready: bool,
    }

    impl Read for BlockyReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.ready = false;
            let n = self.data.len().min(self.chunk).min(buf.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Lexes a document off a non-blocking reader, retrying the same
    /// call whenever the lexer reports `WouldBlock`. The rewind
    /// machinery must make the retries invisible: the token stream is
    /// identical to blocking lexing at every chunk size.
    #[test]
    fn would_block_retries_are_invisible() {
        let doc = "<a id=\"x&amp;y\"><![CDATA[1 < 2]]>h\u{e9}llo \u{2014} w\u{f6}rld\
                   <!-- c --><b/>&#65;&lt;tail</a>";
        let reference = lex(doc);
        for chunk in 1..=16 {
            let mut tags = TagInterner::new();
            let reader = BlockyReader {
                data: doc.as_bytes(),
                chunk,
                ready: false,
            };
            let mut lexer = XmlLexer::new(reader, &mut tags);
            let mut shown = Vec::new();
            let mut blocked = 0u32;
            loop {
                match lexer.next_token() {
                    Ok(Some(t)) => shown.push(t.display(lexer.tags()).to_string()),
                    Ok(None) => break,
                    Err(e) if e.is_would_block() => blocked += 1,
                    Err(e) => panic!("chunk {chunk}: {e}"),
                }
            }
            assert_eq!(shown, reference, "stream changed at chunk size {chunk}");
            assert!(blocked > 0, "the reader never ran dry at chunk {chunk}");
        }
    }

    /// `skip_subtree` interrupted by `WouldBlock` resumes where it left
    /// off: the adversarial corpus skips identically under a reader
    /// that runs dry between every chunk.
    #[test]
    fn skip_subtree_resumes_across_would_block() {
        for doc in SKIP_CORPUS {
            for chunk in 1..=7 {
                let mut tags = TagInterner::new();
                let k = tags.intern("k");
                let reader = BlockyReader {
                    data: doc.as_bytes(),
                    chunk,
                    ready: false,
                };
                let mut lexer = XmlLexer::new(reader, &mut tags);
                let mut shown = Vec::new();
                loop {
                    match lexer.next_token() {
                        Ok(Some(t)) => {
                            if matches!(t, XmlToken::Open(tag) if tag == k) {
                                loop {
                                    match lexer.skip_subtree() {
                                        Ok(_) => break,
                                        Err(e) if e.is_would_block() => continue,
                                        Err(e) => panic!("chunk {chunk} on {doc:?}: {e}"),
                                    }
                                }
                                continue;
                            }
                            shown.push(t.display(lexer.tags()).to_string());
                        }
                        Ok(None) => break,
                        Err(e) if e.is_would_block() => continue,
                        Err(e) => panic!("chunk {chunk} on {doc:?}: {e}"),
                    }
                }
                assert!(
                    shown.iter().any(|s| s == "<after>"),
                    "chunk {chunk} on {doc:?}: {shown:?}"
                );
                assert!(
                    !shown
                        .iter()
                        .any(|s| s == "<e>" || s == "<d>" || s == "<nope>"),
                    "skipped content leaked at chunk {chunk} on {doc:?}: {shown:?}"
                );
            }
        }
    }

    /// A construct larger than the lexer buffer grows it instead of
    /// wedging: a giant CDATA section (whose bytes the checkpoint pins
    /// until the terminator) lexes correctly.
    #[test]
    fn construct_larger_than_buffer_grows_it() {
        let big = "x".repeat(BUF_SIZE * 2 + 17);
        let doc = format!("<a><![CDATA[{big}]]></a>");
        let mut tags = TagInterner::new();
        let reader = ChunkedReader {
            data: doc.as_bytes(),
            chunk: 4096,
        };
        let mut lexer = XmlLexer::new(reader, &mut tags);
        let tokens = lexer.tokenize_all().unwrap();
        match &tokens[1] {
            XmlToken::Text(t) => assert_eq!(t.len(), big.len()),
            other => panic!("expected text, got {other:?}"),
        }
    }

    #[test]
    fn small_reads_from_chunked_reader() {
        // A reader that yields one byte at a time stresses buffer refills.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let mut tags = TagInterner::new();
        let input = b"<a a1=\"v\">text<b/>more</a>";
        let mut lexer = XmlLexer::new(OneByte(input), &mut tags);
        let tokens = lexer.tokenize_all().unwrap();
        let shown: Vec<String> = tokens
            .iter()
            .map(|t| t.display(lexer.tags()).to_string())
            .collect();
        assert_eq!(
            shown,
            vec!["<a>", "<a1>", "\"v\"", "</a1>", "\"text\"", "<b>", "</b>", "\"more\"", "</a>"]
        );
    }
}
