//! Pull-based streaming XML tokenizer.
//!
//! The GCX stream preprojector consumes the input one token at a time
//! (paper Fig. 11: the buffer manager issues `nextNode()` requests). This
//! lexer delivers exactly that interface: [`XmlLexer::next_event`] returns
//! the next borrowed [`XmlEvent`] without ever materializing the document.
//!
//! Supported input constructs: elements, character data, entity references
//! (`&lt; &gt; &amp; &apos; &quot; &#10; &#x0A;`), CDATA sections, comments,
//! processing instructions, XML declarations and DOCTYPE declarations
//! (the latter four are skipped).
//!
//! The lexer reads one dialect, the one the paper evaluated (§7: "we
//! converted XML attributes into subelements"): each attribute `a="v"` of
//! `<e>` becomes a leading subelement `<a>v</a>` of `e`, in attribute
//! order, and character data consisting solely of XML whitespace is
//! dropped (indentation would otherwise be buffered by `dos::node()`
//! projections over pretty-printed documents).
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
//! **Block mode.** Where markup is dense (XMark has a `<` every ~14
//! bytes), finding items one at a time costs more than the bytes. So at
//! an item boundary the scan classifies the next 64 bytes into one `u64`
//! mask per byte class ([`scan::ScanOps::block_classes`]: `<`, `>`, `/`,
//! `!`|`?`, `"`|`'`) and, when every tag in them is *plain*, steps the
//! depth over all of them at once by the count of opens minus the count
//! of closes. Plain means: in `gt − lt`, every `<` bit survives and no
//! borrow leaves the block (each `<` has a `>` before the next `<`);
//! no tag is `<!`, `<?` or `<>`; and no quote lies inside a tag. A tag cut
//! by the block end, or the subtree root's own close (the first close the
//! depth meets at 0), ends the block at its `<`. Blocks with no whole tag,
//! and blocks that are not plain, go through the item loop, and each one
//! that is not plain doubles the distance to the next try, from 64 bytes
//! up to 4 KiB, so markup full of attributes, comments or CDATA pays next
//! to nothing for the tries. Block mode is exact, not a relaxation: in a
//! plain block each tag runs from its `<` to the first `>` after it. A
//! close tag ends at the first `>` in any case. An open tag ends there too,
//! because no quote comes before that `>`. A `/` right after `<` makes a
//! close tag and a `/` right before `>` makes an open tag self-closing,
//! exactly as the item loop reads them. So block mode consumes the same
//! bytes to the same depth and stops where the item loop would stop, and
//! every error and its offset are unchanged. The bytes it takes are
//! counted by [`XmlLexer::block_skipped_bytes`].
//!
//! ## Search mode
//!
//! When a consumer has proven that, below the current element, only
//! elements with a few *exit* names matter — everything else, and all text,
//! would be discarded (the projection matcher's search states) —
//! [`XmlLexer::scan_search`] jumps to the next item an event is needed
//! for instead of building the events in between. Unlike skip mode it
//! relaxes nothing. The rule is *consume only what is checked*: the scan
//! consumes a text run only when it is complete in the buffered window,
//! free of `&` and valid UTF-8; an open tag only when it is `<name>` or
//! `<name/>` exactly, with a name outside the exits; and a close tag only
//! when it is `</name>` exactly and matches the innermost element the scan
//! itself opened. At anything else — an exit name, the current element's
//! own close, attributes, whitespace inside a tag, a mismatched close,
//! entities, comments, CDATA sections, processing instructions,
//! declarations, the window end — it stops before the item (or before the
//! text run) and the event path lexes it, so well-formedness errors and
//! their offsets are exactly those of per-event lexing. The scan never
//! reads input, so it never blocks. Elements it opened and did not close
//! by its stop are pushed on the open stack and queued as `Open` events.
//! Scanned byte counts also accumulate in [`XmlLexer::bytes_skipped`].
//!
//! **One kernel, two scopes.** A [`SearchScope`] says how far the exits
//! reach. A *descendant* search (below a `//` step) matches them at any
//! depth and descends into every other element. A *child* search (a
//! state whose every candidate is a child edge) matches them only among
//! the current element's children, and every other child is dead: the
//! scan takes its open tag by the rule above, consumes its body with the
//! skip-mode scan, and takes its own close only as `</name>` exactly —
//! so everything strictly inside a dead child has skip mode's contract,
//! relaxations included, as it had when the event path lexed the child
//! and raw-skipped it. A dead child the window end (or a close the scan
//! does not check) cuts is pushed on the open stack and queued as an
//! `Open` event, and its body is handed to the resumable skip: the
//! consumer answers that `Open` with [`XmlLexer::skip_subtree`], which
//! resumes at the depth the scan reached, without rescanning the body.
//! Dead children consumed whole are counted by
//! [`XmlLexer::children_skipped`].
//!
//! **One contract, two sinks.** The same kernel also serves a consumer
//! that writes the current element's subtree to the output as it arrives
//! (the preprojector streaming a bound subtree through):
//! [`XmlLexer::scan_copy`] runs it with an *append* sink instead of the
//! *discard* one, monomorphized, so the search path pays nothing for it.
//! It consumes what the search scan consumes, by the same rule, and
//! writes each run of consumed items to an [`XmlWriter`] with one
//! `write_all`: the bytes of `<name>`, `</name>` and plain text are exactly
//! what the writer would write for their events, and `<name/>` goes out as
//! `<name></name>`. Three more things stop it before a text run, because
//! the bytes alone do not settle them: a `>` (which the writer escapes), a
//! comment or PI after the run (the lexer drops text only when the whole
//! run it accumulates up to the next tag is whitespace, and a comment or
//! PI continues that run), and the window end after it. A whitespace-only
//! run followed by a tag is consumed and not written, as the lexer drops
//! it. Elements the copy scan leaves open are pushed on the open stack but
//! not queued, since they are written already; it returns them instead.
//! Copied bytes are not counted as skipped.
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
use crate::scan::{self, BlockClasses, ScanKernel};
use crate::tags::{TagId, TagInterner};
use crate::token::XmlEvent;
use crate::writer::XmlWriter;
use crate::Result;
use std::borrow::BorrowMut;
use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// Queued follow-up events (bachelor tags, attribute expansion). Attribute
/// text is stored as a range into the lexer's `attr_buf` scratch arena so
/// queueing never allocates in steady state.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Open(TagId),
    Close(TagId),
    AttrText { start: u32, end: u32 },
}

/// Evaluates `$body` with `$ops` naming the [`scan::ScanOps`] impl of the
/// active kernel, selected once per call so that dispatch and vector
/// constants hoist out of the kernel's per-item loop. The Sse2 tier runs
/// inline SSE2, and the Avx2 tier the same plus its out-of-line block
/// classifier (scan-level rationale on [`scan::SimdOps`]).
macro_rules! with_active_ops {
    ($ops:ident => $body:expr) => {
        match scan::active_kernel() {
            ScanKernel::Scalar => {
                type $ops = scan::ScalarOps;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            ScanKernel::Sse2 => {
                type $ops = scan::SimdOps;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            ScanKernel::Avx2 => {
                type $ops = scan::Avx2Ops;
                $body
            }
            _ => {
                type $ops = scan::SwarOps;
                $body
            }
        }
    };
}

/// Streaming tokenizer over any [`Read`].
///
/// The lexer performs its own buffering (do not wrap the reader in a
/// `BufReader`). Well-formedness is enforced: tags must balance, and
/// exactly one document element is allowed. Names are interned into the
/// [`TagInterner`] `T` owns or lends: `&mut TagInterner` for a lexer
/// that lives in one stack frame, `TagInterner` for one that moves
/// between threads inside a suspended engine.
pub struct XmlLexer<R: Read, T: BorrowMut<TagInterner>> {
    reader: R,
    buf: Vec<u8>,
    /// Valid bytes are `buf[pos..len]`.
    pos: usize,
    len: usize,
    /// Total bytes consumed from the reader before `buf\[0\]`.
    base: u64,
    tags: T,
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
    /// Dead children the child search consumed whole.
    children_skipped: u64,
    /// The part of `bytes_skipped` the raw skip's block mode consumed.
    block_skipped: u64,
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
    /// [`Self::scan_search`] scratch: the `buf` ranges of the names of
    /// the elements the scan has opened and not yet closed.
    scan_stack: Vec<(usize, usize)>,
}

/// Persisted state of a raw subtree skip across `WouldBlock` returns.
struct SkipState {
    /// Nesting depth relative to the element being skipped.
    depth: usize,
    /// Input offset where the skip began (for the byte count).
    start: u64,
}

const BUF_SIZE: usize = 64 * 1024;

impl<R: Read, T: BorrowMut<TagInterner>> XmlLexer<R, T> {
    /// Creates a lexer over `reader`, interning tag names into `tags`.
    pub fn new(reader: R, tags: T) -> Self {
        XmlLexer {
            reader,
            buf: vec![0; BUF_SIZE],
            pos: 0,
            len: 0,
            base: 0,
            tags,
            open: Vec::with_capacity(16),
            pending: VecDeque::new(),
            document_done: false,
            text: Vec::new(),
            text_emitted: false,
            attr_buf: Vec::new(),
            name_buf: Vec::new(),
            bytes_skipped: 0,
            children_skipped: 0,
            block_skipped: 0,
            eof: false,
            ckpt: 0,
            ckpt_text: 0,
            skip: None,
            scan_stack: Vec::with_capacity(16),
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
        self.tags.borrow()
    }

    /// True once the document element has been completely read.
    pub fn document_done(&self) -> bool {
        self.document_done && self.pending.is_empty()
    }

    /// Total bytes consumed by [`Self::skip_subtree`] raw scans and
    /// [`Self::scan_search`] (for throughput statistics: these bytes never
    /// became events).
    pub fn bytes_skipped(&self) -> u64 {
        self.bytes_skipped
    }

    /// Dead children [`Self::scan_search`] consumed whole under
    /// [`SearchScope::Children`], open tag to close, without an event.
    pub fn children_skipped(&self) -> u64 {
        self.children_skipped
    }

    /// The bytes of raw skips (dead subtrees, and the child search's dead
    /// children) that block mode stepped over 64 at a time (module docs,
    /// "Skip mode"), a part of [`Self::bytes_skipped`].
    pub fn block_skipped_bytes(&self) -> u64 {
        self.block_skipped
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
                .borrow_mut()
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
            .borrow_mut()
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
    /// when the tag is self-closing. Each attribute is queued as a leading
    /// subelement.
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
                    self.pending.push_back(Pending::Open(id));
                    if end > start {
                        self.pending.push_back(Pending::AttrText { start, end });
                    }
                    self.pending.push_back(Pending::Close(id));
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

    /// Decides whether the accumulated text should be emitted (it is not
    /// whitespace-only), validating UTF-8 up front. A dropped run is
    /// cleared immediately; a kept run stays in `text` for the borrowed
    /// event (cleared lazily on the next call).
    fn take_text_pending(&mut self) -> Result<bool> {
        if self.text.is_empty() {
            return Ok(false);
        }
        if self.text.iter().all(|b| b.is_ascii_whitespace()) {
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
                expected: self.tags().name(top).to_string(),
                found: self.tags().name(id).to_string(),
            }),
            None => Err(XmlError::UnbalancedClose {
                offset: self.offset(),
                tag: self.tags().name(id).to_string(),
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
        debug_assert!(
            self.skip.is_none(),
            "an in-flight skip resumes with skip_subtree"
        );
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
        self.skip_subtree_in::<true>()
    }

    /// [`Self::skip_subtree`] with the raw skip's block mode off: the
    /// item-by-item reference block mode must agree with.
    #[cfg(test)]
    fn skip_subtree_by_items(&mut self) -> Result<u64> {
        self.skip_subtree_in::<false>()
    }

    /// [`Self::skip_subtree`], with block mode on when `BLOCKS`.
    fn skip_subtree_in<const BLOCKS: bool>(&mut self) -> Result<u64> {
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
            match self.skip_one::<BLOCKS>(&mut depth, start) {
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
    fn skip_one<const BLOCKS: bool>(
        &mut self,
        depth: &mut usize,
        start: u64,
    ) -> Result<Option<u64>> {
        // Fast path: drive the state machine over the buffered window
        // with a register-resident cursor and no helper calls (see
        // [`skip_fast`]).
        let (buf, pos, end) = (&self.buf, self.pos, self.len);
        let blocked = &mut self.block_skipped;
        let outcome = with_active_ops!(K => skip_fast::<K, BLOCKS>(buf, pos, end, depth, blocked));
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

    /// Search mode (see the module docs): consumes, from the buffered
    /// window only, the content of the current element up to the next tag
    /// named in `exits` that `scope` admits, and returns the number of
    /// bytes consumed. Call it between events when the consumer has proven
    /// that every element `scope` reaches whose name is not in `exits` —
    /// and everything below it — is irrelevant. The stop is an item
    /// boundary: the `<` of an exit tag, of the current element's own
    /// close tag or of any construct the scan does not check, the start of
    /// a text run it does not check, or the end of the buffered window.
    /// Elements the scan opened and did not close by then are pushed on
    /// the open-element stack and queued as `Open` events, so the consumer
    /// sees them as if lexed.
    ///
    /// Under [`SearchScope::Children`] the one element the scan can leave
    /// open is a dead child cut by the window end or by a close it does
    /// not check: its body is then handed to the resumable raw skip, and
    /// the consumer must answer its queued `Open` with
    /// [`Self::skip_subtree`], as for any dead element.
    ///
    /// Never reads input (so never blocks), and does nothing while an
    /// event is queued, text is accumulated, a skip is in flight, or
    /// outside the document element.
    pub fn scan_search(&mut self, exits: &[TagId], scope: SearchScope) -> u64 {
        let start = self.pos;
        match scope {
            SearchScope::Descendants => self.scan::<_, false>(exits, &mut Discard),
            SearchScope::Children => self.scan::<_, true>(exits, &mut Discard),
        }
        (self.pos - start) as u64
    }

    /// Copy mode (see the module docs): the search scan of
    /// [`Self::scan_search`], with every consumed item written to `out`
    /// instead of discarded. Call it between events when the consumer is
    /// writing the current element's subtree to `out` as it arrives. The
    /// bytes out are those [`XmlWriter`] would write for the items'
    /// events (`<x/>` goes out as `<x></x>`), so the scan also stops
    /// before text with `>` and before a text run that the next item does
    /// not show to be kept or dropped whole.
    ///
    /// Elements the scan opened and did not close by its stop are already
    /// written: they are pushed on the open-element stack, not queued, and
    /// returned (outermost first) for the consumer to track. An error is
    /// `out`'s; the input is then consumed up to the stop.
    pub fn scan_copy<W: Write>(
        &mut self,
        exits: &[TagId],
        out: &mut XmlWriter<W>,
    ) -> io::Result<&[TagId]> {
        let depth = self.open.len();
        let mut sink = Append { out, err: None };
        self.scan::<_, false>(exits, &mut sink);
        if let Some(e) = sink.err {
            return Err(e);
        }
        sink.out.copied(&[], self.open.len() - depth)?;
        Ok(&self.open[depth..])
    }

    /// The one scan behind [`Self::scan_search`] and [`Self::scan_copy`]:
    /// runs [`search_fast`] over the buffered window into `sink` and
    /// takes over the elements it left open, and a cut dead child's skip.
    fn scan<S: ScanSink, const CHILDREN: bool>(&mut self, exits: &[TagId], sink: &mut S) {
        if self.text_emitted {
            self.text.clear();
            self.text_emitted = false;
        }
        if !self.pending.is_empty()
            || !self.text.is_empty()
            || self.open.is_empty()
            || self.skip.is_some()
        {
            return;
        }
        let (buf, pos, end, tags) = (&self.buf, self.pos, self.len, self.tags.borrow());
        let stack = &mut self.scan_stack;
        let stop = with_active_ops!(K => search_fast::<K, S, CHILDREN>(
            buf, pos, end, tags, exits, stack, sink
        ));
        for k in 0..self.scan_stack.len() {
            let (start, end) = self.scan_stack[k];
            let id = self
                .tags
                .borrow_mut()
                .intern_bytes(&self.buf[start..end])
                .expect("name bytes are an ASCII subset");
            self.open.push(id);
            if !S::COPY {
                self.pending.push_back(Pending::Open(id));
            }
        }
        self.scan_stack.clear();
        self.pos = stop.at;
        self.set_ckpt();
        if !S::COPY {
            self.bytes_skipped += (stop.at - pos) as u64;
        }
        self.children_skipped += stop.dead;
        self.block_skipped += stop.blocked;
        if let Some(depth) = stop.cut {
            // The cut dead child's `Open` is queued: its body continues
            // as a raw skip, resumed where the kernel left it.
            self.skip = Some(SkipState {
                depth,
                start: self.offset(),
            });
        }
    }
}

/// How far [`XmlLexer::scan_search`] reaches below the current element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchScope {
    /// Every descendant (a `//` search): an exit name stops the scan at
    /// any depth, and the scan descends into non-exit elements.
    Descendants,
    /// The children alone: an exit name stops the scan only among them,
    /// and a non-exit child is dead — its open tag is taken under the
    /// search rule, its body by the raw skip, and its own close is
    /// name-checked.
    Children,
}

/// Where [`search_fast`] stopped.
struct SearchStop {
    /// The buffer index of the stop.
    at: usize,
    /// Children scope: the stop is inside a dead child (its name range is
    /// on the stack), at this nesting depth below it.
    cut: Option<usize>,
    /// Children scope: dead children consumed whole.
    dead: u64,
    /// Children scope: the bytes of dead children's bodies the raw skip's
    /// block mode consumed.
    blocked: u64,
}

/// Where [`search_fast`] puts the items it consumes: one kernel,
/// monomorphized over two sinks.
trait ScanSink {
    /// The items are output, byte for byte as [`XmlWriter`] would write
    /// their events: the kernel then also holds back what the bytes alone
    /// do not settle (text with `>`, text whose fate the next item
    /// decides, `<x/>`).
    const COPY: bool;
    /// Takes the next consumed bytes (`COPY` only).
    fn append(&mut self, bytes: &[u8]);
}

/// The search sink: consumed items are discarded.
struct Discard;

impl ScanSink for Discard {
    const COPY: bool = false;
    #[inline]
    fn append(&mut self, _: &[u8]) {}
}

/// The copy sink: consumed items are appended to a writer, one
/// `write_all` per run of verbatim bytes. The first write error is kept
/// for [`XmlLexer::scan_copy`] to return, and later bytes are dropped.
struct Append<'w, W: Write> {
    out: &'w mut XmlWriter<W>,
    err: Option<io::Error>,
}

impl<W: Write> ScanSink for Append<'_, W> {
    const COPY: bool = true;
    #[inline]
    fn append(&mut self, bytes: &[u8]) {
        if self.err.is_none() {
            if let Err(e) = self.out.copied(bytes, 0) {
                self.err = Some(e);
            }
        }
    }
}

/// The register-resident core of [`XmlLexer::scan_search`] and
/// [`XmlLexer::scan_copy`]: consumes the items of `buf[pos..end]` that it
/// can check in full and whose events the caller has proven irrelevant
/// (search) or is writing out (copy), and returns where it stopped.
/// Consumed are text runs without `&` (checked as UTF-8 in place),
/// attribute-free open tags `<x>` whose name is not an exit (their name
/// ranges are pushed on `stack`), `<x/>` with a non-exit name, and close
/// tags `</x>` matching the top of `stack`. Everything else stops the
/// scan before the item: an exit name, the current element's own close
/// (`stack` empty), attributes, whitespace inside a tag, a mismatched
/// close, entities, comments, CDATA sections, PIs, declarations, and an
/// item or text run that reaches the window end. On return `stack` holds
/// the names of the elements open at the stop. The event path then
/// re-lexes the stopping item, so every byte this scan consumes is one the
/// event path would have accepted, and every error is raised there.
///
/// `CHILDREN` is [`SearchScope::Children`]: the scan never descends. A
/// non-exit child's open tag is taken by the rule above, its body by
/// [`skip_fast`] (the raw skip's contract, module docs "Skip mode"), and
/// its own close only as `</x>` exactly. A child the window end or an
/// unchecked close cuts is left on `stack` with the depth the skip
/// reached, for [`XmlLexer::skip_subtree`] to resume.
///
/// With a copying sink the consumed bytes go to `sink` as the event path
/// would have written them, and three more things stop the scan before a
/// text run: a `>` in it (the writer escapes it), a comment or PI after
/// it, and the window end after it. The lexer keeps or drops a text run
/// by whether the whole run it accumulates up to the next tag is
/// whitespace, and a comment or PI continues that run; so a run is taken
/// only when a tag follows it, and is written only when it is not all
/// whitespace.
#[inline]
fn search_fast<K: scan::ScanOps, S: ScanSink, const CHILDREN: bool>(
    buf: &[u8],
    pos: usize,
    end: usize,
    tags: &TagInterner,
    exits: &[TagId],
    stack: &mut Vec<(usize, usize)>,
    sink: &mut S,
) -> SearchStop {
    debug_assert!(
        !(S::COPY && CHILDREN),
        "the copy scan reaches every descendant"
    );
    let buf = &buf[..end];
    let tail = |lo: usize, hi: usize| &buf[lo..hi];
    let byte = |at: usize| buf[at];
    let is_exit = |name: &[u8]| exits.iter().any(|&t| tags.name(t).as_bytes() == name);
    // Copy: `buf[span..i]` is consumed and not yet appended.
    let mut span = pos;
    let mut dead = 0;
    let mut blocked = 0;
    let mut i = pos;
    let (at, cut) = loop {
        // Character data up to the next item: consumed only when it is
        // entity-free, complete within the window and valid UTF-8 (the
        // inlined ASCII test spares most runs the validator call).
        let lt = if i < end && byte(i) == b'<' {
            i
        } else {
            let next = if S::COPY {
                K::find_byte3(tail(i, end), b'<', b'&', b'>')
            } else {
                K::find_byte2(tail(i, end), b'<', b'&')
            };
            match next {
                Some(k) if byte(i + k) == b'<' => {
                    let run = tail(i, i + k);
                    if !run.is_ascii() && std::str::from_utf8(run).is_err() {
                        break (i, None);
                    }
                    let lt = i + k;
                    if S::COPY {
                        if lt + 1 >= end || matches!(byte(lt + 1), b'!' | b'?') {
                            break (i, None);
                        }
                        if run.iter().all(u8::is_ascii_whitespace) {
                            // Dropped by the lexer: a tag follows.
                            sink.append(tail(span, i));
                            span = lt;
                        }
                    }
                    lt
                }
                _ => break (i, None),
            }
        };
        if lt + 1 >= end {
            break (lt, None);
        }
        match byte(lt + 1) {
            b'/' => {
                let name = lt + 2;
                let name_end = name + K::name_run_len(tail(name, end));
                if name_end == name || name_end >= end || byte(name_end) != b'>' {
                    break (lt, None);
                }
                match stack.last() {
                    Some(&(s, e)) if tail(s, e) == tail(name, name_end) => {
                        stack.pop();
                    }
                    _ => break (lt, None),
                }
                i = name_end + 1;
            }
            b'!' | b'?' => break (lt, None),
            _ => {
                let name = lt + 1;
                let name_end = name + K::name_run_len(tail(name, end));
                if name_end == name || name_end >= end {
                    break (lt, None);
                }
                let self_closing = match byte(name_end) {
                    b'>' => false,
                    b'/' if name_end + 1 < end && byte(name_end + 1) == b'>' => true,
                    _ => break (lt, None),
                };
                if is_exit(tail(name, name_end)) {
                    break (lt, None);
                }
                if self_closing {
                    i = name_end + 2;
                    dead += u64::from(CHILDREN);
                    if S::COPY {
                        // `<x/>` goes out as `<x></x>`.
                        sink.append(tail(span, name_end));
                        sink.append(b"></");
                        sink.append(tail(name, name_end));
                        sink.append(b">");
                        span = i;
                    }
                } else if CHILDREN {
                    // A dead child: raw-skip its body, then take its own
                    // close only as `</x>` exactly.
                    let mut depth = 0;
                    let body = name_end + 1;
                    let (at, depth) =
                        match skip_fast::<K, true>(buf, body, end, &mut depth, &mut blocked) {
                            SkipFast::RootClose(close) => {
                                let close_end = close + K::name_run_len(tail(close, end));
                                if close_end < end
                                    && byte(close_end) == b'>'
                                    && tail(close, close_end) == tail(name, name_end)
                                {
                                    i = close_end + 1;
                                    dead += 1;
                                    continue;
                                }
                                (close - 2, 0)
                            }
                            SkipFast::Drained => (end, depth),
                            SkipFast::Rewind(at) => (at, depth),
                        };
                    stack.push((name, name_end));
                    break (at, Some(depth));
                } else {
                    stack.push((name, name_end));
                    i = name_end + 1;
                }
            }
        }
    };
    if S::COPY {
        sink.append(tail(span, at));
    }
    SearchStop {
        at,
        cut,
        dead,
        blocked,
    }
}

/// Outcome of one [`skip_fast`] pass over the buffered window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// With `BLOCKS` (every product caller; tests also run it without, as
/// the reference) it first tries block mode at item boundaries (module
/// docs, "Skip mode"): [`step_block`] takes the next 64 bytes at once
/// when their tags are all plain, and the bytes so consumed are added to
/// `blocked`. A block that is not taken goes item by item, and each
/// failed one doubles the distance to the next try, up to
/// [`BLOCK_GAP_MAX`].
///
/// Every index is bounded by `end` before use; `buf` is cut to `..end`
/// up front, so an index past the window would panic, not read stale
/// bytes.
#[inline]
fn skip_fast<K: scan::ScanOps, const BLOCKS: bool>(
    buf: &[u8],
    pos: usize,
    end: usize,
    depth: &mut usize,
    blocked: &mut u64,
) -> SkipFast {
    let buf = &buf[..end];
    let tail = |lo: usize, hi: usize| &buf[lo..hi];
    let byte = |at: usize| buf[at];
    let mut i = pos;
    // Block mode: the next index to try a block at, and the distance to
    // the try after a block that is not taken.
    let mut next_try = pos;
    let mut gap = BLOCK;
    loop {
        if BLOCKS && i >= next_try && end - i >= BLOCK {
            let block = buf[i..i + BLOCK].try_into().expect("one block");
            match step_block(K::block_classes(block), *depth) {
                BlockStep::Stepped { len, depth: d } => {
                    *depth = d;
                    *blocked += len as u64;
                    i += len;
                    next_try = i;
                    gap = BLOCK;
                    continue;
                }
                BlockStep::RootClose { lt } => {
                    *depth = 0;
                    *blocked += lt as u64;
                    return SkipFast::RootClose(i + lt + 2);
                }
                BlockStep::Text => next_try = i + gap,
                BlockStep::Failed => {
                    next_try = i + gap;
                    gap = (2 * gap).min(BLOCK_GAP_MAX);
                }
            }
        }
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

/// The bytes block mode classifies at once.
const BLOCK: usize = 64;

/// The longest distance block mode backs off to after failed blocks.
const BLOCK_GAP_MAX: usize = 4096;

/// What [`step_block`] made of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockStep {
    /// The first `len` bytes (one or more whole tags) are consumed, and
    /// the nesting depth after them is `depth`.
    Stepped { len: usize, depth: usize },
    /// The subtree root's own close tag starts at byte `lt`: everything
    /// before it is consumed, at depth 0.
    RootClose { lt: usize },
    /// No whole tag in the block: the item loop takes it.
    Text,
    /// A tag the masks cannot settle: the item loop takes the block.
    Failed,
}

/// Block mode of the raw skip (module docs, "Skip mode"): the item loop
/// of [`skip_fast`] over one 64-byte block that starts at an item
/// boundary at nesting depth `depth`, computed from its byte classes.
///
/// A block is *plain* when, after cutting it at the `<` of a tag the
/// block end cuts, `gt − lt` keeps every `<` bit without a borrow (each
/// `<` has a `>` before the next `<`, so the tags are `[<, first >]`
/// intervals), no tag is `<!`, `<?` or `<>`, and no quote lies inside a
/// tag. The item loop then consumes exactly these intervals: a close
/// tag's first `>` ends it, and an open tag's first `>` ends it because
/// no quote precedes that `>`. So a close is a `<` before `/`, a
/// self-closing tag an open tag whose `>` follows `/`, and the depth
/// moves by the opens minus the closes, unless a close finds depth 0
/// before it: that is the root's own, and the block ends at its `<`.
#[inline]
fn step_block(c: BlockClasses, depth: usize) -> BlockStep {
    let BlockClasses {
        mut lt,
        mut gt,
        slash,
        bang,
        quote,
    } = c;
    if lt == 0 {
        return BlockStep::Text;
    }
    let mut len = BLOCK;
    let last = lt.ilog2();
    if gt >> last == 0 {
        // The last tag is cut by the block end: the block ends at its '<'.
        len = last as usize;
        let before = (1u64 << last) - 1;
        lt &= before;
        gt &= before;
        if lt == 0 {
            return BlockStep::Text;
        }
    }
    // Each '<' starts a borrow that the first '>' above it ends; a '<'
    // reached by a running borrow is cleared.
    let (spans, borrow) = gt.overflowing_sub(lt);
    if borrow || spans & lt != lt {
        return BlockStep::Failed;
    }
    // `spans` is every tag's `[<, >)` plus the stray '>' of text.
    let ends = gt & !spans;
    let inside = spans & !gt;
    if (lt << 1) & (bang | gt) != 0 || quote & inside != 0 {
        return BlockStep::Failed;
    }
    let closes = lt & (slash >> 1);
    // A close's borrow ends at its own '>', which it clears.
    let open_ends = ends & ends.wrapping_sub(closes);
    let opens = open_ends & !(slash << 1);
    let n_closes = closes.count_ones() as usize;
    if depth < n_closes {
        // A close may meet depth 0: find the first that does. An open
        // counts at its '>', which precedes the next tag.
        let mut rest = closes;
        while rest != 0 {
            let at = rest.trailing_zeros();
            let below = (1u64 << at) - 1;
            if depth + (opens & below).count_ones() as usize
                == (closes & below).count_ones() as usize
            {
                return BlockStep::RootClose { lt: at as usize };
            }
            rest &= rest - 1;
        }
    }
    BlockStep::Stepped {
        len,
        depth: depth + opens.count_ones() as usize - n_closes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XmlWriter;

    include!("../tests/support/tokens.rs");

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
    fn whitespace_only_dropped_by_default() {
        assert_eq!(lex("<a>\n  <b/>\n</a>"), vec!["<a>", "<b>", "</b>", "</a>"]);
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
                    shown.push(t.display(lexer.tags()));
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

    // ------------------------------------------------------------------
    // Search mode
    // ------------------------------------------------------------------

    /// Documents whose `<r>` content mixes elements named `x` (the exit
    /// tag below) with everything the search scan consumes or stops at.
    const SEARCH_CORPUS: &[&str] = &[
        "<r><a><b>t</b><c/><x>in<y/>side</x>tail</a><x/></r>",
        // Attributes stop the scan; the event path lexes the tag.
        "<r><a k=\"v\"><b>t</b></a><x>1</x><b k='>'/></r>",
        // Comments, CDATA, PIs and references inside scanned text.
        "<r><a>p<!--c-->q<![CDATA[<x>]]>&amp;<?pi x?></a><x>2</x></r>",
        // Whitespace inside tags.
        "<r><a ><b></b ></a><x>3</x><c\n/></r>",
        // Multi-byte UTF-8 text, split anywhere by the chunked readers.
        "<r><a>h\u{e9}llo \u{2014} w\u{f6}rld</a><x>\u{e9}</x></r>",
        // Nesting: same-name non-exit elements, an exit deep inside.
        "<r><a><a><a><b>t</b></a></a></a><b><c><x>deep<a/></x></c></b></r>",
        "<r><a><x/></a>tail</r>",
    ];

    /// Lexes as the preprojector does in search mode — `scan_search`
    /// before every `next_event` outside `x` elements — retrying on
    /// `WouldBlock`. Returns the events inside `x` elements (their own
    /// tags included), the bytes scanned, and the final offset.
    fn search_mode<R: Read>(reader: R, scan: bool) -> (Vec<String>, u64, u64) {
        let mut tags = TagInterner::new();
        let exits = [tags.intern("x")];
        let mut lexer = XmlLexer::new(reader, &mut tags);
        let (mut inside, mut shown, mut scanned) = (0usize, Vec::new(), 0u64);
        loop {
            if scan && inside == 0 {
                scanned += lexer.scan_search(&exits, SearchScope::Descendants);
            }
            let token = match lexer.next_event() {
                Ok(Some(event)) => XmlToken::from_event(event),
                Ok(None) => break,
                Err(e) if e.is_would_block() => continue,
                Err(e) => panic!("{e}"),
            };
            match token {
                XmlToken::Open(t) if inside > 0 || exits.contains(&t) => inside += 1,
                XmlToken::Close(_) if inside > 0 => inside -= 1,
                XmlToken::Text(_) if inside > 0 => {}
                _ => continue,
            }
            shown.push(token.display(lexer.tags()).to_string());
        }
        assert!(lexer.document_done());
        (shown, scanned, lexer.offset())
    }

    /// The scan consumes only what it proves irrelevant: the events inside
    /// exit elements and the final offset are those of plain lexing, one
    /// shot, under every chunking and behind a reader that runs dry
    /// between chunks — and one shot, it does consume bytes.
    #[test]
    fn scan_search_keeps_exit_events() {
        for doc in SEARCH_CORPUS {
            let (want, _, end) = search_mode(doc.as_bytes(), false);
            let (got, scanned, got_end) = search_mode(doc.as_bytes(), true);
            assert_eq!((&got, got_end), (&want, end), "one shot on {doc:?}");
            assert!(scanned > 0, "nothing scanned in {doc:?}");
            for chunk in 1..=7 {
                let data = doc.as_bytes();
                let (got, _, got_end) = search_mode(ChunkedReader { data, chunk }, true);
                assert_eq!((&got, got_end), (&want, end), "chunk {chunk} on {doc:?}");
                let blocky = BlockyReader {
                    data,
                    chunk,
                    ready: false,
                };
                let (got, _, got_end) = search_mode(blocky, true);
                assert_eq!((&got, got_end), (&want, end), "blocky {chunk} on {doc:?}");
            }
        }
    }

    /// Elements the scan opens and does not close before its stop are
    /// pushed on the open stack and queued as `Open` events; the stop is
    /// the exit tag's `<`.
    #[test]
    fn scan_search_queues_the_elements_it_stops_in() {
        let doc = "<r><a><b>t</b><c/><x>y</x></a></r>";
        let mut tags = TagInterner::new();
        let exits = [tags.intern("x")];
        let mut lexer = XmlLexer::new(doc.as_bytes(), &mut tags);
        assert!(matches!(
            lexer.next_event().unwrap(),
            Some(XmlEvent::Open(_))
        ));
        assert_eq!(
            lexer.scan_search(&exits, SearchScope::Descendants),
            "<a><b>t</b><c/>".len() as u64
        );
        assert_eq!(lexer.depth(), 2, "<r> and the scanned <a>");
        assert_eq!(
            lexer.scan_search(&exits, SearchScope::Descendants),
            0,
            "nothing while an event is queued"
        );
        let rest = lexer.tokenize_all().unwrap();
        let shown: Vec<String> = rest
            .iter()
            .map(|t| t.display(lexer.tags()).to_string())
            .collect();
        assert_eq!(shown, ["<a>", "<x>", "\"y\"", "</x>", "</a>", "</r>"]);
        assert_eq!(lexer.bytes_skipped(), "<a><b>t</b><c/>".len() as u64);
    }

    /// Documents whose `<r>` children mix elements named `x` (the exit tag
    /// below) with dead children: nested ones, ones holding an `x`, ones
    /// with attributes, comments, CDATA sections and PIs that contain
    /// `</`, a dead child whose close has whitespace, and text at depth 0.
    const CHILD_CORPUS: &[&str] = &[
        "<r><a><x>no</x><b>t</b></a><x>1</x>t<c/><x/></r>",
        "<r><a k=\"1\"><x/></a><x>2</x><b k='>'>v</b><c></c></r>",
        "<r><a><!--</a>--><![CDATA[</a>]]><?p </a>?><b q='>'/></a><x>3</x></r>",
        "<r><a><a><a/></a></a ><x>4</x><b></b></r>",
        "<r>&amp;<x>5</x><!--c--><a>\u{e9}</a> <a>&lt;</a></r>",
        "<r><a><b><c><d>deep</d></c></b></a><x><a/></x></r>",
    ];

    /// Lexes `<r>`'s children as the preprojector does in a child-search
    /// state: `scan_search` (exits `x`, children scope) before every event
    /// at that level, and a non-exit child's `Open` answered with
    /// `skip_subtree`, retrying on `WouldBlock`. Returns the events inside
    /// `x` elements (their own tags included), the dead children skipped
    /// whole by the scan, and the final offset.
    fn child_mode<R: Read>(reader: R, scan: bool) -> (Vec<String>, u64, u64) {
        let mut tags = TagInterner::new();
        let exits = [tags.intern("x")];
        let mut lexer = XmlLexer::new(reader, &mut tags);
        let (mut level, mut inside, mut shown) = (0usize, 0usize, Vec::new());
        loop {
            if scan && level == 1 {
                lexer.scan_search(&exits, SearchScope::Children);
            }
            let token = match lexer.next_event() {
                Ok(Some(event)) => XmlToken::from_event(event),
                Ok(None) => break,
                Err(e) if e.is_would_block() => continue,
                Err(e) => panic!("{e}"),
            };
            match token {
                XmlToken::Open(t) if level == 1 && !exits.contains(&t) => loop {
                    match lexer.skip_subtree() {
                        Ok(_) => break,
                        Err(e) if e.is_would_block() => continue,
                        Err(e) => panic!("{e}"),
                    }
                },
                XmlToken::Open(t) => {
                    level += 1;
                    if inside > 0 || exits.contains(&t) {
                        inside += 1;
                        shown.push(token.display(lexer.tags()).to_string());
                    }
                }
                XmlToken::Close(_) => {
                    level -= 1;
                    if inside > 0 {
                        inside -= 1;
                        shown.push(token.display(lexer.tags()).to_string());
                    }
                }
                XmlToken::Text(_) if inside > 0 => {
                    shown.push(token.display(lexer.tags()).to_string())
                }
                XmlToken::Text(_) => {}
            }
        }
        assert!(lexer.document_done());
        (shown, lexer.children_skipped(), lexer.offset())
    }

    /// The child scan consumes only dead children and text: the events
    /// inside exit elements and the final offset are those of plain
    /// lexing with every dead child raw-skipped, one shot, under every
    /// chunking and behind a reader that runs dry between chunks (where
    /// the scan hands cut children to the resumable skip) — and one shot,
    /// it does consume dead children whole.
    #[test]
    fn scan_children_keeps_exit_events() {
        for doc in CHILD_CORPUS {
            let (want, none, end) = child_mode(doc.as_bytes(), false);
            assert_eq!(none, 0);
            let (got, dead, got_end) = child_mode(doc.as_bytes(), true);
            assert_eq!((&got, got_end), (&want, end), "one shot on {doc:?}");
            assert!(dead > 0, "no dead child scanned in {doc:?}");
            for chunk in 1..=7 {
                let data = doc.as_bytes();
                let (got, _, got_end) = child_mode(ChunkedReader { data, chunk }, true);
                assert_eq!((&got, got_end), (&want, end), "chunk {chunk} on {doc:?}");
                let blocky = BlockyReader {
                    data,
                    chunk,
                    ready: false,
                };
                let (got, _, got_end) = child_mode(blocky, true);
                assert_eq!((&got, got_end), (&want, end), "blocky {chunk} on {doc:?}");
            }
        }
    }

    /// A dead child cut by the window end is handed to the resumable skip
    /// with its `Open` queued: no element is left half-skipped, and the
    /// skip resumes at the depth the scan reached.
    #[test]
    fn scan_children_hands_a_cut_child_to_the_skip() {
        let doc = "<r><a><b>12345678</b></a><x/></r>";
        let cut = "<r><a><b>1234".len();
        let mut tags = TagInterner::new();
        let exits = [tags.intern("x")];
        let a = tags.intern("a");
        let reader = ChunkedReader {
            data: doc.as_bytes(),
            chunk: cut,
        };
        let mut lexer = XmlLexer::new(reader, &mut tags);
        assert!(matches!(
            lexer.next_event().unwrap(),
            Some(XmlEvent::Open(_))
        ));
        let scanned = lexer.scan_search(&exits, SearchScope::Children);
        assert_eq!(scanned, (cut - "<r>".len()) as u64);
        assert_eq!(lexer.depth(), 2, "<r> and the cut <a>");
        assert_eq!(lexer.children_skipped(), 0);
        assert_eq!(lexer.next_event().unwrap(), Some(XmlEvent::Open(a)));
        let rest = lexer.skip_subtree().unwrap();
        assert_eq!(rest, "5678</b></a>".len() as u64);
        assert_eq!(lexer.depth(), 1);
        assert_eq!(lexer.bytes_skipped(), "<a><b>12345678</b></a>".len() as u64);
    }

    /// Malformed input among a child-search state's children, or as a
    /// dead child's own close, fails exactly as plain lexing with dead
    /// children raw-skipped does: same error, same offset.
    #[test]
    fn scan_children_errors_match_plain_lexing() {
        let docs: &[&[u8]] = &[
            b"<r><a>t</b></r>",
            b"<r><junk>t</junq><x/></r>",
            b"<r><junk><i>t</i></junq></r>",
            b"<r>&bogus;<x/></r>",
            b"<r>\xff<x/></r>",
            b"<r>\xc3\xa9<!--c-->\xa9</r>",
            b"<r><a k=v/></r>",
            b"<r><!-- open",
            b"<r><a><b>t",
            b"<r></q>",
        ];
        let run = |doc: &[u8], scan: bool, chunk: usize| {
            let mut tags = TagInterner::new();
            let exits = [tags.intern("x")];
            let reader = ChunkedReader { data: doc, chunk };
            let mut lexer = XmlLexer::new(reader, &mut tags);
            let mut level = 0;
            loop {
                if scan && level == 1 {
                    lexer.scan_search(&exits, SearchScope::Children);
                }
                let moved = match lexer.next_event() {
                    Ok(Some(XmlEvent::Open(t))) if level == 1 && !exits.contains(&t) => {
                        lexer.skip_subtree().map(|_| 0)
                    }
                    Ok(Some(XmlEvent::Open(_))) => Ok(1),
                    Ok(Some(XmlEvent::Close(_))) => Ok(-1),
                    Ok(Some(XmlEvent::Text(_))) => Ok(0),
                    Ok(None) => panic!("{doc:?} must fail"),
                    Err(e) => Err(e),
                };
                match moved {
                    Ok(by) => level += by,
                    Err(e) => return e.to_string(),
                }
            }
        };
        for doc in docs {
            let want = run(doc, false, doc.len());
            assert_eq!(run(doc, true, doc.len()), want, "{doc:?}");
            assert_eq!(run(doc, true, 1), want, "1-byte reads of {doc:?}");
        }
    }

    /// Writes the document element's content the way a consumer
    /// streaming it through does: `scan_copy` (exits: `x`) before every
    /// `next_event` inside the element, then the event through the
    /// writer, retrying on `WouldBlock`; or, without `scan`, every event.
    /// Returns the output and the bytes the scan wrote.
    fn copy_mode<R: Read>(reader: R, scan: bool) -> (String, u64) {
        let mut tags = TagInterner::new();
        let exits = [tags.intern("x")];
        let mut lexer = XmlLexer::new(reader, &mut tags);
        let mut w = XmlWriter::new(Vec::new());
        let mut copied = 0;
        loop {
            if scan && lexer.depth() > 0 {
                let before = w.bytes_written();
                lexer.scan_copy(&exits, &mut w).unwrap();
                copied += w.bytes_written() - before;
            }
            match lexer.next_event() {
                Ok(Some(XmlEvent::Open(t))) => w.open(t, lexer.tags()).unwrap(),
                Ok(Some(XmlEvent::Close(t))) => w.close(t, lexer.tags()).unwrap(),
                Ok(Some(XmlEvent::Text(s))) => w.text(s).unwrap(),
                Ok(None) => break,
                Err(e) if e.is_would_block() => continue,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(lexer.document_done());
        assert_eq!(w.depth(), 0, "every element written open is written closed");
        (String::from_utf8(w.into_inner()).unwrap(), copied)
    }

    /// The copy scan writes exactly what the events would: one shot,
    /// under every chunking and behind a reader that runs dry between
    /// chunks — including the text it must leave to the event path (a
    /// `>`, whitespace beside a comment or PI, runs at the window end) —
    /// and one shot, it does write bytes.
    #[test]
    fn scan_copy_writes_what_the_events_would() {
        const COPY_CORPUS: &[&str] = &[
            "<r><a>  <!--c-->x</a><b>x<!--c-->  </b><c> <?p?> </c>\n  <d/>  \n</r>",
            "<r>a > b<a>&gt;</a><b>]</b>c&amp;d<e/><x/>t<x>u</x></r>",
            "<r>\n  <a>\n    <b>t</b>\n  </a>\n</r>",
        ];
        for doc in SEARCH_CORPUS.iter().chain(COPY_CORPUS) {
            let (want, _) = copy_mode(doc.as_bytes(), false);
            let (got, copied) = copy_mode(doc.as_bytes(), true);
            assert_eq!(got, want, "one shot on {doc:?}");
            assert!(copied > 0, "nothing copied in {doc:?}");
            for chunk in 1..=7 {
                let data = doc.as_bytes();
                let (got, _) = copy_mode(ChunkedReader { data, chunk }, true);
                assert_eq!(got, want, "chunk {chunk} on {doc:?}");
                let blocky = BlockyReader {
                    data,
                    chunk,
                    ready: false,
                };
                let (got, _) = copy_mode(blocky, true);
                assert_eq!(got, want, "blocky {chunk} on {doc:?}");
            }
        }
    }

    /// Malformed input inside a scanned region fails exactly as plain
    /// lexing does: same error, same offset.
    #[test]
    fn scan_search_errors_match_plain_lexing() {
        let docs: &[&[u8]] = &[
            b"<r><a><b></c></a></r>",
            b"<r><a>t</b></r>",
            b"<r><a>&bogus;</a></r>",
            b"<r><a>\xff</a></r>",
            b"<r><a>\xc3\xa9<!--c-->\xa9</a></r>",
            b"<r><a k=v/></r>",
            b"<r><a><!-- open",
            b"<r><a><b>t",
        ];
        let run = |doc: &[u8], scan: bool| {
            let mut tags = TagInterner::new();
            let exits = [tags.intern("x")];
            let mut lexer = XmlLexer::new(doc, &mut tags);
            loop {
                if scan {
                    lexer.scan_search(&exits, SearchScope::Descendants);
                }
                match lexer.next_event() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("{doc:?} must fail"),
                    Err(e) => return e.to_string(),
                }
            }
        };
        for doc in docs {
            assert_eq!(run(doc, true), run(doc, false), "{doc:?}");
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

    // ------------------------------------------------------------------
    // Block mode of the raw skip
    // ------------------------------------------------------------------

    /// Markup whose every tag block mode must take as the item loop
    /// does, or leave to it: cut tags, `<`, `>` and `/` where a tag does
    /// not expect them, quotes, comments, CDATA and PIs holding tags, and
    /// ROADMAP item 9's two malformed dead subtrees (the dead element is
    /// `dead` there, `k` elsewhere).
    const BLOCK_CASES: &[&[u8]] = &[
        b"<r><dead><p>a&bogus;b</p><z>\xff</z></dead><name>n</name></r>",
        b"<r><dead><p>a</q></dead><name>n</name></r>",
        b"<r><k><a<b>x</a></k><after/></r>",
        b"<r><k><>x</k><after/></r>",
        b"<r><k><a>x</></k><after/></r>",
        b"<r><k>a/>b<c>d/></c>/></k><after/></r>",
        b"<r><k><a x=\"1>2\" y='>'>t</a><b z=\"/>\"/></k><after/></r>",
        b"<r><k><!--<a>--></k><after/></r>",
        b"<r><k><a><![CDATA[</a>]]></a></k><after/></r>",
        b"<r><k><?pi <a> ?><b/></k><after/></r>",
        b"<r><k><a/><b /><c></c></k ><after/></r>",
        b"<r><k><a>\xc3\xa9\xe2\x80\x94</a></k><after/></r>",
        b"<r><k><a></b></c></k><after/></r>",
        b"<r><k></k></r>",
        b"<r><k>",
        b"<r><k><a>",
    ];

    /// Plain markup around a case, so that its bytes fall in a block.
    const PLAIN: &str = "<p>ab</p><q><s>cd</s></q><t/>";

    /// The next draw below `n` of a xorshift generator.
    fn draw(rng: &mut u64, n: u64) -> u64 {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng % n
    }

    /// A seeded random document under `<r>`: nested elements (some named
    /// `k`, whose subtrees the checks skip), attributes with `>` and `/>`
    /// in their values, bachelor tags, text with `/`, `>`, `!`, `?` and
    /// non-ASCII, comments, CDATA sections and PIs holding markup.
    fn nested_doc(seed: u64) -> Vec<u8> {
        fn node(rng: &mut u64, depth: usize, out: &mut String) {
            let name = ["a", "b", "k", "x"][draw(rng, 4) as usize];
            out.push('<');
            out.push_str(name);
            match draw(rng, 8) {
                0 => out.push_str(" v=\"1>2\""),
                1 => out.push_str(" w='/>'"),
                _ => {}
            }
            if draw(rng, 6) == 0 {
                out.push_str("/>");
                return;
            }
            out.push('>');
            let children = if depth < 5 { draw(rng, 5) } else { 0 };
            for _ in 0..children {
                match draw(rng, 12) {
                    0 => out.push_str("<!--<a>-->"),
                    1 => out.push_str("<![CDATA[</a>]]>"),
                    2 => out.push_str("<?p </a>?>"),
                    3..=5 => out.push_str(
                        ["t", "a/>b", "x > y", "!?", "\u{e9}", "  "][draw(rng, 6) as usize],
                    ),
                    _ => node(rng, depth + 1, out),
                }
            }
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
        let mut rng = seed | 1;
        let mut out = String::from("<r>");
        for _ in 0..4 {
            node(&mut rng, 0, &mut out);
        }
        out.push_str("</r>");
        out.into_bytes()
    }

    /// `doc` with one to three bytes replaced by, inserted as or deleted
    /// for a structural byte: malformed more often than not.
    fn mutated(doc: &[u8], seed: u64) -> Vec<u8> {
        let rng = &mut (seed | 1);
        let mut doc = doc.to_vec();
        for _ in 0..1 + draw(rng, 3) {
            let at = draw(rng, doc.len() as u64) as usize;
            let b = b"<>/!?\"'"[draw(rng, 7) as usize];
            match draw(rng, 3) {
                0 => doc[at] = b,
                1 => doc.insert(at, b),
                _ => {
                    doc.remove(at);
                }
            }
        }
        doc
    }

    /// Every case of [`BLOCK_CASES`] and [`nested_doc`], and for the
    /// kernel check also the root close at every offset of a block
    /// entered at depths 0 to 3.
    fn block_corpus() -> Vec<Vec<u8>> {
        let cases = SKIP_CORPUS.iter().map(|case| case.as_bytes());
        let mut corpus: Vec<Vec<u8>> = cases
            .chain(BLOCK_CASES.iter().copied())
            .map(|case| [PLAIN.repeat(3).as_bytes(), case].concat())
            .collect();
        corpus.extend((1..=12).map(nested_doc));
        corpus
    }

    /// One [`skip_fast`] pass over `buf[pos..end]` from `depth`, through
    /// the active kernel, with block mode on or off: the outcome, the
    /// depth it leaves and the bytes block mode took.
    fn skip_pass<const BLOCKS: bool>(
        buf: &[u8],
        pos: usize,
        end: usize,
        depth: usize,
    ) -> (SkipFast, usize, u64) {
        let (mut depth, mut blocked) = (depth, 0);
        let outcome =
            with_active_ops!(K => skip_fast::<K, BLOCKS>(buf, pos, end, &mut depth, &mut blocked));
        (outcome, depth, blocked)
    }

    /// Asserts that a raw skip of `body` gives the same outcome and depth
    /// with block mode as without, from each `starts` offset and every
    /// depth 0 to 3, at window sizes 1 to 130 and a whole buffer. Returns
    /// the bytes block mode took.
    fn assert_block_parity(body: &[u8], starts: impl Iterator<Item = usize>) -> u64 {
        let mut blocked = 0;
        for pos in starts.take_while(|&p| p < body.len()) {
            for depth in 0..=3 {
                for window in (1..=130).chain([BUF_SIZE]) {
                    let end = body.len().min(pos + window);
                    let (by_blocks, d1, took) = skip_pass::<true>(body, pos, end, depth);
                    let (by_items, d2, none) = skip_pass::<false>(body, pos, end, depth);
                    assert_eq!(
                        (by_blocks, d1),
                        (by_items, d2),
                        "{:?}[{pos}..{end}] from depth {depth}",
                        String::from_utf8_lossy(body)
                    );
                    assert_eq!(none, 0);
                    blocked += took;
                }
            }
        }
        blocked
    }

    /// The kernel with block mode stops where the item loop stops, at the
    /// same depth and with the same outcome, from every offset of a first
    /// block and at every window size.
    #[test]
    fn block_mode_matches_the_item_loop() {
        let mut blocked = 0;
        for body in block_corpus() {
            blocked += assert_block_parity(&body, 0..BLOCK);
        }
        // The root's own close at every offset of a block entered at
        // depths 0 to 3, after the closes that bring it down to 0 when
        // they fit before it.
        for depth in 0..=3 {
            for at in 0..BLOCK {
                let lead = if at >= 4 * depth {
                    format!("{}{}", "</x>".repeat(depth), "y".repeat(at - 4 * depth))
                } else {
                    "y".repeat(at)
                };
                let body = format!("{lead}</k>{}", PLAIN.repeat(4));
                blocked += assert_block_parity(body.as_bytes(), 0..1);
                if at >= 4 * depth {
                    let (outcome, _, _) = skip_pass::<true>(body.as_bytes(), 0, body.len(), depth);
                    assert_eq!(outcome, SkipFast::RootClose(at + 2), "{body:?}");
                }
            }
        }
        assert!(blocked > 0, "block mode never engaged");
    }

    /// Fuzzed malformed documents: block mode agrees with the item loop
    /// wherever a skip starts.
    #[test]
    fn block_mode_matches_the_item_loop_on_malformed_input() {
        for seed in 1..=150 {
            let doc = mutated(&nested_doc(seed), seed.wrapping_mul(0x9e37_79b9));
            assert_block_parity(&doc, [0, 1, 7, 30, 63].into_iter());
        }
    }

    /// Every token, skip count and error of a document lexed with each
    /// `k` and `dead` subtree skipped, by blocks or item by item, from a
    /// reader of `chunk` bytes per read.
    fn skip_trace(doc: &[u8], chunk: usize, blocks: bool) -> Vec<String> {
        let mut tags = TagInterner::new();
        let dead = [tags.intern("k"), tags.intern("dead")];
        let reader = ChunkedReader { data: doc, chunk };
        let mut lexer = XmlLexer::new(reader, &mut tags);
        let mut trace = Vec::new();
        loop {
            let t = match lexer.next_token() {
                Ok(Some(t)) => t,
                Ok(None) => break,
                Err(e) => {
                    trace.push(format!("{e:?}"));
                    break;
                }
            };
            trace.push(t.display(lexer.tags()).to_string());
            if matches!(t, XmlToken::Open(tag) if dead.contains(&tag)) {
                let skipped = if blocks {
                    lexer.skip_subtree()
                } else {
                    lexer.skip_subtree_by_items()
                };
                match skipped {
                    Ok(n) => trace.push(format!("skipped {n}")),
                    Err(e) => {
                        trace.push(format!("{e:?}"));
                        break;
                    }
                }
            }
        }
        trace.push(format!("at {}", lexer.offset()));
        trace
    }

    /// Through the lexer, skipping by blocks consumes, counts and fails
    /// exactly as skipping item by item, at every window size.
    #[test]
    fn block_mode_skips_and_fails_like_the_item_loop() {
        let mut docs = block_corpus();
        docs.extend((1..=40).map(|seed| mutated(&nested_doc(seed), seed)));
        for doc in &docs {
            let reference = skip_trace(doc, BUF_SIZE, false);
            for chunk in (1..=130).chain([BUF_SIZE]) {
                assert_eq!(
                    skip_trace(doc, chunk, true),
                    reference,
                    "{:?} in chunks of {chunk}",
                    String::from_utf8_lossy(doc)
                );
            }
        }
        // A large dead subtree: most of it goes by blocks.
        let doc = format!("<r><k>{}</k></r>", PLAIN.repeat(4000));
        let mut tags = TagInterner::new();
        let mut lexer = XmlLexer::new(doc.as_bytes(), &mut tags);
        lexer.next_token().unwrap();
        lexer.next_token().unwrap();
        let skipped = lexer.skip_subtree().unwrap();
        assert!(lexer.block_skipped_bytes() * 10 > skipped * 9);
    }
}
