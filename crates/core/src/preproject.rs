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
//! materializing events, and are reported by
//! [`Preprojector::bytes_skipped`].

use crate::error::EngineError;
use crate::metrics::EngineStageMetrics;
use gcx_buffer::{BufNodeId, BufferTree};
use gcx_obs::{FlightRecorder, LatencyHistogram, SpanKind};
use gcx_projection::{ProjTree, StreamMatcher};
use gcx_xml::{XmlEvent, XmlLexer};
use std::io::Read;
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

/// Streaming projector over a lexer. See module docs.
pub struct Preprojector<'t, 'q, R: Read> {
    lexer: XmlLexer<'t, R>,
    matcher: StreamMatcher<'q>,
    stack: Vec<OpenEntry>,
    eof: bool,
    /// Tokens read from the input (statistics). Tokens inside raw-skipped
    /// dead subtrees are never materialized and are *not* counted here;
    /// see [`Self::bytes_skipped`] for their byte volume.
    pub tokens_read: u64,
    /// Tokens skipped without buffering (statistics).
    pub tokens_skipped: u64,
    /// Sampled per-stage timing sink (see [`crate::metrics`]). `None`
    /// keeps the hot path free of any timing work.
    stage_metrics: Option<Arc<EngineStageMetrics>>,
    /// Request-scoped flight recorder + trace ID: sampled pump steps also
    /// record per-stage spans stamped with the input byte offset, and the
    /// buffer is fed the lexer offset so its events carry it too.
    flight: Option<(Arc<FlightRecorder>, u64)>,
    /// Pump steps between timed samples, and the running tick.
    sample_every: u32,
    sample_tick: u32,
    /// A dead-subtree skip blocked on `WouldBlock` (the lexer holds the
    /// position and depth). The matcher consumed the subtree's `Open`
    /// *before* the skip started, so the next [`Self::pump`] must resume
    /// the skip — lexing a fresh token would run it against a matcher
    /// that is already one level deep into the dead subtree.
    pending_skip: bool,
}

/// Records `t0.elapsed()` into the stage picked by `pick` when this pump
/// step is a timed sample, and — when a flight recorder is installed —
/// as a trace span of `kind` stamped with the input byte `offset`. Free
/// function over the fields (not a `&self` method) so it composes with
/// the matcher's outcome borrows.
#[inline]
fn record_stage(
    metrics: &Option<Arc<EngineStageMetrics>>,
    flight: &Option<(Arc<FlightRecorder>, u64)>,
    pick: fn(&EngineStageMetrics) -> &LatencyHistogram,
    kind: SpanKind,
    t0: Option<Instant>,
    offset: u64,
) {
    let Some(t0) = t0 else { return };
    let dur = t0.elapsed();
    if let Some(m) = metrics {
        pick(m).record(dur);
    }
    if let Some((rec, tid)) = flight {
        let dur_ns = dur.as_nanos() as u64;
        let start = rec.now_ns().saturating_sub(dur_ns);
        rec.record_span(*tid, kind, start, dur_ns, offset);
    }
}

impl<'t, 'q, R: Read> Preprojector<'t, 'q, R> {
    /// Creates a projector and assigns the root roles (a query that
    /// outputs `$root` projects the whole document).
    pub fn new(lexer: XmlLexer<'t, R>, tree: &'q ProjTree, buffer: &mut BufferTree) -> Self {
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
            stage_metrics: None,
            flight: None,
            sample_every: crate::metrics::DEFAULT_STAGE_SAMPLE_EVERY,
            sample_tick: 0,
            pending_skip: false,
        }
    }

    /// Installs sampled per-stage timing: every `sample_every`th pump
    /// step is timed stage by stage into `metrics` (shared, wait-free).
    /// Untimed steps pay one counter increment.
    pub fn set_stage_metrics(&mut self, metrics: Arc<EngineStageMetrics>, sample_every: u32) {
        self.stage_metrics = Some(metrics);
        self.sample_every = sample_every.max(1);
        self.sample_tick = 0;
    }

    /// Installs a request-scoped flight recorder: sampled pump steps
    /// record lex/skip/match/buffer spans under `trace_id`, stamped with
    /// the input byte offset. Shares the [`Self::set_stage_metrics`]
    /// sampling cadence.
    pub fn set_flight_recorder(&mut self, recorder: Arc<FlightRecorder>, trace_id: u64) {
        self.flight = Some((recorder, trace_id));
    }

    /// Bytes consumed by the lexer's raw dead-subtree scanner (the
    /// lexer owns the counter; this is its only skip-driving caller).
    pub fn bytes_skipped(&self) -> u64 {
        self.lexer.bytes_skipped()
    }

    /// Access to the tag interner (for output rendering).
    pub fn tags(&self) -> &gcx_xml::TagInterner {
        self.lexer.tags()
    }

    /// True once the whole input has been consumed.
    pub fn at_eof(&self) -> bool {
        self.eof
    }

    /// Number of DFA states constructed by the matcher (0 in NFA mode).
    pub fn dfa_states(&self) -> usize {
        self.matcher.dfa_states()
    }

    /// Processes one token (or one dead subtree). Returns what happened.
    ///
    /// Uses the lexer's borrowed-event API: buffered text is copied
    /// exactly once, from the lexer's scratch straight into the buffer's
    /// text arena, with no intermediate `String`.
    ///
    /// **Non-blocking inputs:** a `WouldBlock` error (see
    /// [`EngineError::is_need_input`]) leaves the projector retryable —
    /// call `pump` again once more input arrives and the event stream
    /// continues exactly where it left off. A blocked dead-subtree skip
    /// is resumed internally (the matcher had already consumed the
    /// subtree's opening tag).
    pub fn pump(&mut self, buffer: &mut BufferTree) -> Result<PumpEvent, EngineError> {
        if self.eof {
            return Ok(PumpEvent::Eof);
        }
        // Sampled stage timing: every `sample_every`th pump step is
        // timed stage by stage; the rest pay one counter increment (and
        // nothing at all when no metrics sink is installed).
        let sampled = (self.stage_metrics.is_some() || self.flight.is_some()) && {
            self.sample_tick += 1;
            if self.sample_tick >= self.sample_every {
                self.sample_tick = 0;
                true
            } else {
                false
            }
        };
        // A dead-subtree skip blocked mid-way last pump: finish it before
        // lexing anything new, then do the matcher close + accounting
        // that the original skip never reached (exactly once).
        if self.pending_skip {
            let tok_offset = self.lexer.offset();
            let t_skip = sampled.then(Instant::now);
            self.skip_dead_subtree()?;
            record_stage(
                &self.stage_metrics,
                &self.flight,
                |m| &m.skip,
                SpanKind::Skip,
                t_skip,
                tok_offset,
            );
            self.matcher.close();
            self.tokens_skipped += 1;
            return Ok(PumpEvent::Skipped);
        }
        // Token-start offset, captured before lexing: borrowed events
        // (`Text`) keep the lexer borrowed, so it cannot be read later.
        let tok_offset = self.lexer.offset();
        let t_lex = sampled.then(Instant::now);
        let event = self.lexer.next_event()?;
        if self.flight.is_some() {
            // Stamp subsequent buffer events with where the stream is.
            buffer.set_stream_offset(tok_offset);
        }
        record_stage(
            &self.stage_metrics,
            &self.flight,
            |m| &m.lex,
            SpanKind::Lex,
            t_lex,
            tok_offset,
        );
        match event {
            None => {
                self.eof = true;
                buffer.finish(BufferTree::ROOT);
                Ok(PumpEvent::Eof)
            }
            Some(XmlEvent::Open(tag)) => {
                self.tokens_read += 1;
                let t_match = sampled.then(Instant::now);
                let outcome = self.matcher.open(tag);
                record_stage(
                    &self.stage_metrics,
                    &self.flight,
                    |m| &m.matching,
                    SpanKind::Match,
                    t_match,
                    tok_offset,
                );
                let top_attach = self.stack.last().expect("stack nonempty").attach;
                if outcome.buffer {
                    let t_buf = sampled.then(Instant::now);
                    let node = buffer.open_element(top_attach, tag)?;
                    for &r in outcome.roles {
                        buffer.add_role(node, r);
                    }
                    record_stage(
                        &self.stage_metrics,
                        &self.flight,
                        |m| &m.buffer,
                        SpanKind::Buffer,
                        t_buf,
                        tok_offset,
                    );
                    self.stack.push(OpenEntry {
                        buf: Some(node),
                        attach: node,
                    });
                    Ok(PumpEvent::Buffered(node))
                } else if self.matcher.is_dead() {
                    // Nothing inside this subtree can match: skip to the
                    // matching close as a raw byte scan.
                    let t_skip = sampled.then(Instant::now);
                    self.skip_dead_subtree()?;
                    record_stage(
                        &self.stage_metrics,
                        &self.flight,
                        |m| &m.skip,
                        SpanKind::Skip,
                        t_skip,
                        tok_offset,
                    );
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
            Some(XmlEvent::Close(_)) => {
                self.tokens_read += 1;
                let t_match = sampled.then(Instant::now);
                self.matcher.close();
                record_stage(
                    &self.stage_metrics,
                    &self.flight,
                    |m| &m.matching,
                    SpanKind::Match,
                    t_match,
                    tok_offset,
                );
                let entry = self.stack.pop().expect("balanced stream");
                match entry.buf {
                    Some(node) => {
                        let t_buf = sampled.then(Instant::now);
                        buffer.finish(node);
                        record_stage(
                            &self.stage_metrics,
                            &self.flight,
                            |m| &m.buffer,
                            SpanKind::Buffer,
                            t_buf,
                            tok_offset,
                        );
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
                let t_match = sampled.then(Instant::now);
                let outcome = self.matcher.text();
                record_stage(
                    &self.stage_metrics,
                    &self.flight,
                    |m| &m.matching,
                    SpanKind::Match,
                    t_match,
                    tok_offset,
                );
                if outcome.buffer {
                    let parent = self.stack.last().expect("stack nonempty").attach;
                    let t_buf = sampled.then(Instant::now);
                    let node = buffer.add_text(parent, text)?;
                    for &r in outcome.roles {
                        buffer.add_role(node, r);
                    }
                    record_stage(
                        &self.stage_metrics,
                        &self.flight,
                        |m| &m.buffer,
                        SpanKind::Buffer,
                        t_buf,
                        tok_offset,
                    );
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

    /// Pumps until end of input (used by the static-projection baseline).
    pub fn pump_to_eof(&mut self, buffer: &mut BufferTree) -> Result<(), EngineError> {
        while self.pump(buffer)? != PumpEvent::Eof {}
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_projection::{PStep, PTest, Role};
    use gcx_xml::TagInterner;

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
        let doc = "<bib><book><title>t</title></book><junk><deep/></junk></bib>";
        let mut buffer = BufferTree::new(3, &[]);
        let lexer = XmlLexer::new(doc.as_bytes(), &mut tags);
        let mut proj = Preprojector::new(lexer, &tree, &mut buffer);
        proj.pump_to_eof(&mut buffer).unwrap();
        // Root + bib + book + title + text = 5 live nodes; junk skipped.
        assert_eq!(buffer.stats().live_nodes, 5);
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
        assert!(proj.at_eof());
        // Further pumps keep returning Eof.
        assert_eq!(proj.pump(&mut buffer).unwrap(), PumpEvent::Eof);
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
