//! The stream preprojector (paper Fig. 11, right-hand component).
//!
//! "Once it has been activated by the buffer manager, the stream projector
//! processes the input stream until a token relevant to query evaluation
//! is detected. This token is then copied directly into the buffer,
//! together with its associated roles."
//!
//! [`Preprojector::pump`] processes one input token: it matches it against
//! the projection tree (via [`StreamMatcher`]), copies it into the buffer
//! with its roles when preserved, and maintains the open-element stack so
//! that promoted descendants attach to the nearest *buffered* ancestor
//! (document projection, paper Def. 1). Dead subtrees — where the matcher
//! proves nothing below can match — are handed wholesale to the lexer's
//! raw skip scanner ([`XmlLexer::skip_subtree`]): the bytes are consumed
//! without copying text, decoding entities, interning attribute names or
//! materializing events.
//!
//! Inside a descendant search most of the input is not dead, yet still
//! irrelevant: below `//item`, an element that is not an `item` (nor a
//! child the current matches ask for) matches nothing and is not kept,
//! and neither is any text. Below a node whose matches ask only for
//! children by name — `person` in XMark Q20 asks for `name` and
//! `profile` — every other child is dead, and so is its whole subtree.
//! When the matcher's state is such a *search state*
//! ([`StreamMatcher::search`]: descendant or child scope), each pump
//! first lets the lexer scan to the next tag the matcher can act on
//! ([`XmlLexer::scan_search`]), which consumes only constructs it checks
//! in full, and a dead child's body by the raw skip's contract; so
//! outputs, roles, buffer peaks and errors are exactly those of building
//! every event and raw-skipping every dead subtree. A dead child the
//! scan leaves cut by its window arrives as an `Open` event whose skip
//! is already under way: it takes the dead-subtree path below, which
//! resumes it. Dead-skipped and searched bytes are both reported by
//! [`Preprojector::bytes_skipped`]; neither counts in
//! [`Preprojector::tokens_read`], and dead children the child search took
//! whole are counted in [`crate::RunReport::children_skipped`].
//!
//! ## Copy-through
//!
//! The paper buffers a node until its last role is signed off. For a
//! *bind-and-emit* binding (`for $v in … return ($v, signOff($v/dos::node(),
//! r))`, marked by the compiled program) the only reader of the subtree is
//! the emission the evaluator is parked on, so buffering it buys nothing.
//! When the evaluator reaches that emission right after the binding's
//! element opened, it calls [`Preprojector::start_copy`], writes the open
//! tag, and keeps pumping: from then on every event below the binding is
//! written to the writer passed to [`Preprojector::pump`], up to and
//! including the binding's close, and the lexer's copy scan
//! ([`XmlLexer::scan_copy`]) writes what it can check in full straight
//! from its input window. This holds only in a *copy state*
//! ([`StreamMatcher::copy_exits`]): every non-exit element and all text
//! below gets no role but the binding's own `dos::node()` would give, so
//! they are written and never buffered, and the roles they would have
//! got are neither assigned nor removed. The binding's element itself
//! stays buffered (the for-loop cursor stands on it, and its signOff
//! collects it). An element with an exit tag — a nested match, such as an
//! `item` inside an `item` under `//` — is *teed*: written as part of the
//! binding, and buffered with its subtree and every role the matcher
//! assigns, attached to the nearest buffered ancestor, so its own
//! binding later reads it from the buffer in document order. Only the
//! engine's GC strategy streams through; the baselines keep buffering.

use crate::error::EngineError;
use crate::metrics::{EngineStageMetrics, StageProbe, STAGE_SAMPLE_EVERY};
use gcx_buffer::{BufNodeId, BufferTree};
use gcx_obs::{FlightRecorder, SpanKind};
use gcx_projection::{ProjTree, Role, StreamMatcher};
use gcx_xml::{TagInterner, XmlEvent, XmlLexer, XmlWriter};
use std::borrow::{Borrow, BorrowMut};
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Instant;

/// What one pump step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpEvent {
    /// A node was copied into the buffer.
    Buffered(BufNodeId),
    /// A buffered element's closing tag was processed (the node may have
    /// been purged by the close-time sweep).
    Closed(BufNodeId),
    /// A token (or a whole dead subtree) was discarded.
    Skipped,
    /// The input is exhausted; the buffer root is now finished.
    Eof,
}

struct OpenEntry {
    /// The buffer node of this element, if it was preserved.
    buf: Option<BufNodeId>,
    /// The nearest buffered ancestor-or-self (attachment point for
    /// children).
    attach: BufNodeId,
}

/// Streaming projector over a lexer. See module docs. `T` owns or lends
/// the lexer's tag interner, `P` the projection tree.
pub struct Preprojector<R: Read, T: BorrowMut<TagInterner>, P: Borrow<ProjTree>> {
    lexer: XmlLexer<R, T>,
    matcher: StreamMatcher<P>,
    stack: Vec<OpenEntry>,
    eof: bool,
    /// Tokens read from the input (statistics). Tokens inside raw-skipped
    /// dead subtrees or consumed by the search scan are never materialized
    /// and are *not* counted here; see [`Self::bytes_skipped`] for their
    /// byte volume.
    pub tokens_read: u64,
    /// Tokens skipped without buffering (statistics).
    pub tokens_skipped: u64,
    /// Sampled per-stage timing (see [`crate::metrics`]) and the
    /// request's flight recorder: with a recorder, the buffer is also fed
    /// the lexer offset so its events carry it.
    probe: StageProbe,
    /// A dead-subtree skip blocked on `WouldBlock` (the lexer holds the
    /// position and depth). The matcher consumed the subtree's `Open`
    /// *before* the skip started, so the next [`Self::pump`] must resume
    /// the skip — lexing a fresh token would run it against a matcher
    /// that is already one level deep into the dead subtree.
    pending_skip: bool,
    /// The element the last pump opened and buffered, while nothing has
    /// been pumped after it: the only node [`Self::start_copy`] accepts.
    fresh: Option<BufNodeId>,
    /// The subtree being streamed through, if any.
    copy: Option<CopyThrough>,
}

/// A subtree being streamed to the output (module docs, "Copy-through").
#[derive(Clone, Copy)]
struct CopyThrough {
    /// The copied binding; buffered, with no children but teed ones.
    node: BufNodeId,
    /// `stack` length while inside a teed exit element (0 outside one):
    /// there every event is buffered as usual and written as well.
    tee: usize,
}

impl<R: Read, T: BorrowMut<TagInterner>, P: Borrow<ProjTree>> Preprojector<R, T, P> {
    /// Creates a projector and assigns the root roles (a query that
    /// outputs `$root` projects the whole document).
    pub fn new(lexer: XmlLexer<R, T>, tree: P, buffer: &mut BufferTree) -> Self {
        let matcher = StreamMatcher::new(tree);
        for &r in matcher.root_roles() {
            buffer.add_role(BufferTree::ROOT, r);
        }
        let mut stack = Vec::with_capacity(64); // typical XML depth ≪ 64
        stack.push(OpenEntry {
            buf: Some(BufferTree::ROOT),
            attach: BufferTree::ROOT,
        });
        Preprojector {
            lexer,
            matcher,
            stack,
            eof: false,
            tokens_read: 0,
            tokens_skipped: 0,
            probe: StageProbe::default(),
            pending_skip: false,
            fresh: None,
            copy: None,
        }
    }

    /// Installs sampled per-stage timing: one pump step in
    /// `STAGE_SAMPLE_EVERY` (512) is timed stage by stage into `metrics`
    /// (shared, wait-free). Untimed steps pay one counter increment.
    pub fn set_stage_metrics(&mut self, metrics: Arc<EngineStageMetrics>) {
        self.probe.metrics = Some(metrics);
    }

    /// Installs a request-scoped flight recorder: sampled pump steps
    /// record lex/skip/match/buffer spans under `trace_id`, stamped with
    /// the input byte offset. Shares the [`Self::set_stage_metrics`]
    /// sampling cadence.
    pub fn set_flight_recorder(&mut self, recorder: Arc<FlightRecorder>, trace_id: u64) {
        self.probe.flight = Some((recorder, trace_id));
    }

    /// Bytes consumed by the lexer's raw dead-subtree scanner and by its
    /// search scan (the lexer owns the counter; this is its only caller
    /// driving either).
    pub fn bytes_skipped(&self) -> u64 {
        self.lexer.bytes_skipped()
    }

    /// Dead children the lexer's child search consumed whole (module
    /// docs).
    pub(crate) fn children_skipped(&self) -> u64 {
        self.lexer.children_skipped()
    }

    /// The part of [`Self::bytes_skipped`] the lexer's raw skip stepped
    /// over a 64-byte block at a time.
    pub(crate) fn block_skipped(&self) -> u64 {
        self.lexer.block_skipped_bytes()
    }

    /// Access to the tag interner (for output rendering).
    pub fn tags(&self) -> &TagInterner {
        self.lexer.tags()
    }

    /// Number of DFA states constructed by the matcher.
    pub fn dfa_states(&self) -> usize {
        self.matcher.dfa_states()
    }

    /// Starts streaming `node`'s subtree to the output: from the next
    /// pump on, every event below it is written to the writer passed to
    /// [`Self::pump`] as it arrives, up to and including `node`'s close,
    /// and only exit-tag elements (and their subtrees) are buffered as
    /// well (module docs, "Copy-through"). Returns `false`, changing
    /// nothing, unless `node` is the element the last pump opened and its
    /// position's copy verdict names `role`. The caller writes `node`'s
    /// own open tag, and then must keep pumping until `node` is finished.
    pub fn start_copy(&mut self, node: BufNodeId, role: Role) -> bool {
        let holds = self.fresh == Some(node)
            && self
                .matcher
                .copy_exits()
                .is_some_and(|(dos, _)| dos == role);
        if holds {
            self.copy = Some(CopyThrough { node, tee: 0 });
        }
        holds
    }

    /// Processes one token (or one dead subtree). Returns what happened.
    ///
    /// Uses the lexer's borrowed-event API: buffered text is copied
    /// exactly once, from the lexer's scratch straight into the buffer's
    /// text arena, with no intermediate `String`.
    ///
    /// While a subtree is streamed through ([`Self::start_copy`]), its
    /// events and the bytes the lexer's copy scan takes are written to
    /// `out`; otherwise `out` is not touched.
    ///
    /// **Non-blocking inputs:** a `WouldBlock` error (see
    /// [`EngineError::is_need_input`]) leaves the projector retryable —
    /// call `pump` again once more input arrives and the event stream
    /// continues exactly where it left off. A blocked dead-subtree skip
    /// is resumed internally (the matcher had already consumed the
    /// subtree's opening tag).
    pub fn pump<W: Write>(
        &mut self,
        buffer: &mut BufferTree,
        out: &mut XmlWriter<W>,
    ) -> Result<PumpEvent, EngineError> {
        if self.eof {
            return Ok(PumpEvent::Eof);
        }
        self.fresh = None;
        // Sampled stage timing: every `STAGE_SAMPLE_EVERY`th pump step is
        // timed stage by stage; the rest pay one counter increment (and
        // nothing at all when no metrics sink is installed).
        let sampled = self.probe.sample(STAGE_SAMPLE_EVERY);
        // A dead-subtree skip blocked mid-way last pump: finish it before
        // lexing anything new, then do the matcher close + accounting
        // that the original skip never reached (exactly once).
        if self.pending_skip {
            let tok_offset = self.lexer.offset();
            let t_skip = sampled.then(Instant::now);
            self.skip_dead_subtree()?;
            self.probe.record(SpanKind::Skip, t_skip, tok_offset);
            self.matcher.close();
            self.tokens_skipped += 1;
            return Ok(PumpEvent::Skipped);
        }
        let t_lex = sampled.then(Instant::now);
        match self.copy {
            // Copy-through: the lexer writes the items it can check in
            // full straight to the output; the elements it leaves open
            // are written already and land in copy states (no roles).
            Some(CopyThrough { tee: 0, .. }) => {
                if let Some((_, exits)) = self.matcher.copy_exits() {
                    let opened = self.lexer.scan_copy(exits, out)?;
                    let attach = self.stack.last().expect("stack nonempty").attach;
                    for &tag in opened {
                        self.matcher.open(tag);
                        self.stack.push(OpenEntry { buf: None, attach });
                    }
                }
            }
            Some(_) => {}
            // Search mode: in a search state no element outside the exit
            // tags (nor anything below it, nor any text) can change the
            // matcher or the buffer, so the lexer jumps to the next item
            // the matcher can act on instead of building those events.
            None => {
                if let Some((scope, exits)) = self.matcher.search() {
                    self.lexer.scan_search(exits, scope);
                }
            }
        }
        // Token-start offset, captured before lexing: borrowed events
        // (`Text`) keep the lexer borrowed, so it cannot be read later.
        let tok_offset = self.lexer.offset();
        let event = self.lexer.next_event()?;
        if self.probe.flight.is_some() {
            // Stamp subsequent buffer events with where the stream is.
            buffer.set_stream_offset(tok_offset);
        }
        self.probe.record(SpanKind::Lex, t_lex, tok_offset);
        match event {
            None => {
                self.eof = true;
                buffer.finish(BufferTree::ROOT);
                Ok(PumpEvent::Eof)
            }
            Some(XmlEvent::Open(tag)) => {
                self.tokens_read += 1;
                let top_attach = self.stack.last().expect("stack nonempty").attach;
                if let Some(copy) = &mut self.copy {
                    out.open(tag, self.lexer.tags())?;
                    // A non-exit element below a copy state matches only
                    // the copied binding's `dos::node()`: written, not
                    // buffered. An exit element is teed: written and
                    // buffered with its subtree, like any other element.
                    let teed = copy.tee != 0
                        || self
                            .matcher
                            .copy_exits()
                            .is_none_or(|(_, exits)| exits.contains(&tag));
                    if !teed {
                        self.matcher.open(tag);
                        self.stack.push(OpenEntry {
                            buf: None,
                            attach: top_attach,
                        });
                        self.tokens_skipped += 1;
                        return Ok(PumpEvent::Skipped);
                    }
                    if copy.tee == 0 {
                        copy.tee = self.stack.len() + 1;
                    }
                }
                let t_match = sampled.then(Instant::now);
                let outcome = self.matcher.open(tag);
                self.probe.record(SpanKind::Match, t_match, tok_offset);
                if outcome.buffer {
                    let t_buf = sampled.then(Instant::now);
                    let node = buffer.open_element(top_attach, tag)?;
                    for &r in outcome.roles {
                        buffer.add_role(node, r);
                    }
                    self.probe.record(SpanKind::Buffer, t_buf, tok_offset);
                    self.stack.push(OpenEntry {
                        buf: Some(node),
                        attach: node,
                    });
                    self.fresh = Some(node);
                    Ok(PumpEvent::Buffered(node))
                } else if self.matcher.is_dead() && self.copy.is_none() {
                    // Nothing inside this subtree can match: skip to the
                    // matching close as a raw byte scan (unless it is
                    // being copied, when its events must be written).
                    let t_skip = sampled.then(Instant::now);
                    self.skip_dead_subtree()?;
                    self.probe.record(SpanKind::Skip, t_skip, tok_offset);
                    self.matcher.close();
                    self.tokens_skipped += 1;
                    Ok(PumpEvent::Skipped)
                } else {
                    self.stack.push(OpenEntry {
                        buf: None,
                        attach: top_attach,
                    });
                    self.tokens_skipped += 1;
                    Ok(PumpEvent::Skipped)
                }
            }
            Some(XmlEvent::Close(tag)) => {
                self.tokens_read += 1;
                let t_match = sampled.then(Instant::now);
                self.matcher.close();
                self.probe.record(SpanKind::Match, t_match, tok_offset);
                let entry = self.stack.pop().expect("balanced stream");
                if let Some(copy) = &mut self.copy {
                    out.close(tag, self.lexer.tags())?;
                    if copy.tee > self.stack.len() {
                        copy.tee = 0;
                    }
                    if entry.buf == Some(copy.node) {
                        self.copy = None;
                    }
                }
                match entry.buf {
                    Some(node) => {
                        let t_buf = sampled.then(Instant::now);
                        buffer.finish(node);
                        self.probe.record(SpanKind::Buffer, t_buf, tok_offset);
                        Ok(PumpEvent::Closed(node))
                    }
                    None => {
                        self.tokens_skipped += 1;
                        Ok(PumpEvent::Skipped)
                    }
                }
            }
            Some(XmlEvent::Text(text)) => {
                self.tokens_read += 1;
                if let Some(copy) = &self.copy {
                    out.text(text)?;
                    if copy.tee == 0 {
                        // Copy state: the text gets no role (module docs).
                        self.tokens_skipped += 1;
                        return Ok(PumpEvent::Skipped);
                    }
                }
                let t_match = sampled.then(Instant::now);
                let outcome = self.matcher.text();
                self.probe.record(SpanKind::Match, t_match, tok_offset);
                if outcome.buffer {
                    let parent = self.stack.last().expect("stack nonempty").attach;
                    let t_buf = sampled.then(Instant::now);
                    let node = buffer.add_text(parent, text)?;
                    for &r in outcome.roles {
                        buffer.add_role(node, r);
                    }
                    self.probe.record(SpanKind::Buffer, t_buf, tok_offset);
                    Ok(PumpEvent::Buffered(node))
                } else {
                    self.tokens_skipped += 1;
                    Ok(PumpEvent::Skipped)
                }
            }
        }
    }

    /// Raw-skips to the current element's closing tag, starting or
    /// resuming. On `WouldBlock` the skip stays pending for the next pump.
    fn skip_dead_subtree(&mut self) -> Result<(), EngineError> {
        let result = self.lexer.skip_subtree();
        self.pending_skip = matches!(&result, Err(e) if e.is_would_block());
        result?;
        Ok(())
    }

    /// Pumps until end of input, streaming nothing through.
    pub fn pump_to_eof(&mut self, buffer: &mut BufferTree) -> Result<(), EngineError> {
        let mut out = XmlWriter::new(io::sink());
        while self.pump(buffer, &mut out)? != PumpEvent::Eof {}
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_projection::{PStep, PTest, Role};

    /// Projection for /bib/book/dos::node() over a small document.
    #[test]
    fn projects_matching_subtrees() {
        let mut tags = TagInterner::new();
        let bib = tags.intern("bib");
        let book = tags.intern("book");
        let mut tree = ProjTree::new();
        let v1 = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(bib)), Some(Role(0)));
        let v2 = tree.add_child(v1, PStep::child(PTest::Tag(book)), Some(Role(1)));
        tree.add_child(v2, PStep::dos_node(), Some(Role(2)));
        let doc = "<bib><book><title>t</title></book><junk><deep/></junk><junk a=\"1\"/></bib>";
        let mut buffer = BufferTree::new(3, &[]);
        let lexer = XmlLexer::new(doc.as_bytes(), &mut tags);
        let mut proj = Preprojector::new(lexer, &tree, &mut buffer);
        proj.pump_to_eof(&mut buffer).unwrap();
        // Root + bib + book + title + text = 5 live nodes; junk skipped:
        // the plain one whole by the child search below `bib`, the one
        // with an attribute (which stops that scan) as a token.
        assert_eq!(buffer.stats().live_nodes, 5);
        assert_eq!(proj.children_skipped(), 1);
        assert!(proj.tokens_skipped > 0);
        let rendered = buffer.render(proj.tags());
        assert!(rendered.contains("bib{r0}"), "got {rendered}");
        assert!(rendered.contains("book{r1,r2}"), "got {rendered}");
        assert!(!rendered.contains("junk"));
    }

    /// Promotion: descendants matched through skipped intermediates attach
    /// to the nearest buffered ancestor.
    #[test]
    fn promotion_to_buffered_ancestor() {
        let mut tags = TagInterner::new();
        let b = tags.intern("b");
        let mut tree = ProjTree::new();
        tree.add_child(
            ProjTree::ROOT,
            PStep::descendant(PTest::Tag(b)),
            Some(Role(0)),
        );
        let doc = "<a><x><y><b/></y></x><b/></a>";
        let mut buffer = BufferTree::new(1, &[]);
        let lexer = XmlLexer::new(doc.as_bytes(), &mut tags);
        let mut proj = Preprojector::new(lexer, &tree, &mut buffer);
        proj.pump_to_eof(&mut buffer).unwrap();
        // Both b's become children of the buffer root (a, x, y discarded).
        assert_eq!(buffer.child_count(BufferTree::ROOT), 2);
        assert_eq!(buffer.stats().live_nodes, 3);
    }

    /// Dead-subtree skipping keeps the element count honest.
    #[test]
    fn dead_subtrees_are_skipped_wholesale() {
        let mut tags = TagInterner::new();
        let a = tags.intern("a");
        let k = tags.intern("k");
        let mut tree = ProjTree::new();
        let va = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(a)), Some(Role(0)));
        tree.add_child(va, PStep::child(PTest::Tag(k)), Some(Role(1)));
        // The <z> subtree is dead (only /a/k matters).
        let doc = "<a><z><k/><k/><k/></z><k/></a>";
        let mut buffer = BufferTree::new(2, &[]);
        let lexer = XmlLexer::new(doc.as_bytes(), &mut tags);
        let mut proj = Preprojector::new(lexer, &tree, &mut buffer);
        proj.pump_to_eof(&mut buffer).unwrap();
        // Only /a/k buffered — the k's inside z are not children of a.
        assert_eq!(buffer.stats().live_nodes, 3, "root, a, one k");
    }

    /// Eof finishes the root.
    #[test]
    fn eof_finishes_root() {
        let mut tags = TagInterner::new();
        let tree = ProjTree::new();
        let mut buffer = BufferTree::new(0, &[]);
        let lexer = XmlLexer::new("<a/>".as_bytes(), &mut tags);
        let mut proj = Preprojector::new(lexer, &tree, &mut buffer);
        assert!(!buffer.is_finished(BufferTree::ROOT));
        proj.pump_to_eof(&mut buffer).unwrap();
        assert!(buffer.is_finished(BufferTree::ROOT));
        // Further pumps keep returning Eof.
        let mut out = XmlWriter::new(io::sink());
        assert_eq!(proj.pump(&mut buffer, &mut out).unwrap(), PumpEvent::Eof);
    }

    /// Structural (condition-2) nodes are buffered without roles and carry
    /// role-bearing descendants.
    #[test]
    fn structural_nodes_buffered() {
        let mut tags = TagInterner::new();
        let a = tags.intern("a");
        let b = tags.intern("b");
        let mut tree = ProjTree::new();
        let va = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(a)), Some(Role(0)));
        tree.add_child(va, PStep::child(PTest::Tag(b)), Some(Role(1)));
        tree.add_child(va, PStep::descendant(PTest::Tag(b)), Some(Role(2)));
        let doc = "<a><mid><b/></mid></a>";
        let mut buffer = BufferTree::new(3, &[]);
        let lexer = XmlLexer::new(doc.as_bytes(), &mut tags);
        let mut proj = Preprojector::new(lexer, &tree, &mut buffer);
        proj.pump_to_eof(&mut buffer).unwrap();
        let rendered = buffer.render(proj.tags());
        assert!(
            rendered.contains("mid{}"),
            "structural mid kept: {rendered}"
        );
        assert!(rendered.contains("b{r2}"), "only //b matches: {rendered}");
    }
}
