//! The GCX engine: pull-based streaming XQuery evaluation with active
//! garbage collection (paper Fig. 11 and §5/§6).
//!
//! The engine evaluates the *rewritten* query strictly sequentially. When
//! evaluation needs data that is not buffered yet — the next binding of a
//! for-loop, the subtree of a node being output, a condition witness — it
//! pumps the [`Preprojector`] token by token until the data is available
//! (or provably absent). Every `signOff($x/π, r)` encountered is
//! forwarded to the buffer manager, which performs the role update and the
//! localized garbage collection of Fig. 10.
//!
//! ## The step machine
//!
//! Evaluation is a **resumable step machine**, not a recursive descent:
//! the would-be call stack is an explicit `Frame` stack held in the
//! engine struct, and [`GcxEngine::step`] runs a bounded number of frame
//! executions / pump events before returning a [`StepOutcome`]. Nothing
//! ever blocks inside evaluation: a non-blocking input that runs dry
//! surfaces as [`StepOutcome::NeedInput`] (the lexer has rewound to a
//! construct boundary — see `gcx_xml`'s non-blocking reader contract),
//! a full output sink as [`StepOutcome::OutputBackpressure`] (via the
//! [`GcxEngine::set_output_gate`] probe), and an exhausted budget as
//! [`StepOutcome::Yielded`]. A scheduler can therefore multiplex
//! thousands of engines over a handful of threads, each suspended
//! engine holding only its frames + buffer — a few KB. The classic
//! blocking [`GcxEngine::run`] is a thin loop over `step`.
//!
//! **A suspended engine holds no output.** `step` flushes the sink
//! before it returns from any slice that ran, and once right after the
//! output root's open tag, so the slice is the unit of output exchange:
//! a sink may stage what a slice writes and hand it over on `flush`,
//! and everything decided before a suspension point is visible to the
//! consumer at that point — as early as a consumer on another thread
//! could act on it.
//!
//! The same evaluator also powers two baselines (paper §7 comparisons):
//! with `gc: false` signOffs are ignored (static analysis only), and with
//! `preload: true` the whole projected document is materialized before
//! evaluation (Galax-style projection \[13\]).

use crate::error::EngineError;
use crate::metrics::EngineStageMetrics;
use crate::preproject::{Preprojector, PumpEvent};
use crate::value::compare_values;
use gcx_buffer::{BufNodeId, BufferStats, BufferTree};
use gcx_obs::log_debug;
use gcx_projection::{PStep, PTest, Pred, RelPath, Role};
use gcx_query::{Axis, CompiledQuery, Cond, Expr, NodeTest, Step, VarId};
use gcx_xml::{LexerOptions, TagId, TagInterner, XmlLexer, XmlWriter};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared cooperative-cancellation handle.
///
/// Clone the flag, hand one clone to [`GcxEngine::set_cancel_flag`] and
/// keep the other; calling [`CancelFlag::cancel`] from any thread makes
/// the running engine return [`EngineError::Cancelled`] at its next pump
/// step or loop iteration. The check is a relaxed atomic load — cheap
/// enough for the hot path.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, un-cancelled flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Engine configuration (the evaluation strategies of Table 1).
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Execute signOff statements (active garbage collection). `false`
    /// turns the engine into the static-analysis-only baseline.
    pub gc: bool,
    /// Materialize the full projected document before evaluating
    /// (Galax-style static projection \[13\]).
    pub preload: bool,
    /// Lexer options for the input stream.
    pub lexer: LexerOptions,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            gc: true,
            preload: false,
            lexer: LexerOptions::default(),
        }
    }
}

/// A trace event (paper Fig. 2 reproduction).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// What happened (`read <book>`, `signOff($x, r3)`, …).
    pub label: String,
    /// Rendering of the live buffer, Fig. 2 style.
    pub buffer: String,
}

type Tracer = Box<dyn FnMut(&TraceEvent) + Send>;

/// Log target for the evaluator (`GCX_LOG=gcx_core::engine=debug`).
const LOG_TARGET: &str = "gcx_core::engine";

/// Output (`emit`) stage sampling interval: one timed `write_subtree`
/// per N. Emits are far rarer than pump events, so they sample denser.
const EMIT_SAMPLE_EVERY: u32 = 16;

/// Result of one engine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Engine label (for tables).
    pub engine: String,
    /// Bytes of XML output produced.
    pub output_bytes: u64,
    /// Buffer statistics including the peak footprint.
    pub stats: BufferStats,
    /// Wall-clock evaluation time.
    pub elapsed: Duration,
    /// Lazy-DFA states constructed (0 in NFA mode).
    pub dfa_states: usize,
    /// Input tokens read / skipped by the preprojector. Tokens inside
    /// raw-skipped dead subtrees are never materialized and appear only
    /// in `bytes_skipped`.
    pub tokens_read: u64,
    pub tokens_skipped: u64,
    /// Input bytes consumed by skip-mode lexing (dead subtrees scanned
    /// as raw bytes; 0 when nothing was dead).
    pub bytes_skipped: u64,
    /// `Some(true)` when GC ran and every assigned role instance was
    /// removed (paper safety requirement 2 + Theorem 1 precondition).
    pub safety: Option<bool>,
    /// Per-role (assigned, removed) instance counters, indexed by role id
    /// (diagnostics; empty for the DOM baseline).
    pub role_balance: Vec<(u64, u64)>,
    /// Byte-scanning kernel the lexer ran with (`scalar`, `swar`,
    /// `sse2` or `avx2`) — makes perf numbers attributable.
    pub scan_kernel: &'static str,
}

/// Cursor over the matches of one step, relative to a base node. The
/// current scan position is pinned in the buffer so that active GC cannot
/// purge the node the cursor stands on and invalidate navigation.
struct Cursor {
    base: BufNodeId,
    step: Step,
    mark: Option<BufNodeId>,
    done: bool,
}

impl Cursor {
    fn new(base: BufNodeId, step: Step) -> Self {
        Cursor {
            base,
            step,
            mark: None,
            done: false,
        }
    }
}

/// What one [`GcxEngine::step`] slice ended with.
///
/// Everything except `Finished`/`Err` means "call `step` again later":
/// after feeding input (`NeedInput`), after draining output
/// (`OutputBackpressure`), or whenever the scheduler next gets to this
/// engine (`Yielded` — the budget ran out mid-evaluation).
#[derive(Debug)]
pub enum StepOutcome {
    /// The (non-blocking) input has no bytes available. All state is
    /// parked in the engine; retry once more input arrives and
    /// evaluation resumes exactly where it left off.
    NeedInput,
    /// The output gate ([`GcxEngine::set_output_gate`]) refused: the
    /// sink needs draining before evaluation continues. No work ran.
    OutputBackpressure,
    /// The step budget was exhausted mid-evaluation (fairness yield).
    Yielded,
    /// The run completed; the report is final.
    Finished(RunReport),
    /// The run failed; further `step` calls are a contract error.
    Err(EngineError),
}

/// One fueled cursor advance (see [`GcxEngine::cursor_next_fuel`]).
enum CursorStep {
    Found(BufNodeId),
    End,
    OutOfFuel,
}

/// One suspended activation of the evaluator — the explicit-stack
/// replacement for what recursive `eval`/`eval_cond` held on the call
/// stack. Frames are pushed in reverse execution order (top of
/// `GcxEngine::frames` runs first); a frame that runs out of fuel or
/// hits `NeedInput` pushes itself back (with its mutated state) before
/// returning, which is what makes every suspension point resumable.
enum Frame<'q> {
    /// Materialize the whole projected document (static-projection
    /// baseline) before evaluation starts.
    Preload,
    /// Open the output root element.
    Begin,
    /// Close the output root.
    End,
    /// Evaluate an expression (dispatches to the frames below).
    Eval(&'q Expr),
    /// A sequence, about to evaluate `items[idx]`.
    Seq { items: &'q [Expr], idx: usize },
    /// Emit a closing tag after an element's content frame finished.
    CloseTag(TagId),
    /// Emit a variable binding's subtree once it is finished.
    VarEmit { node: BufNodeId },
    /// Emit every match of a path step (`$x/π` in output position);
    /// `emit` holds a found-but-not-yet-finished match.
    PathOut {
        cur: Cursor,
        emit: Option<BufNodeId>,
    },
    /// A for-loop between iterations: advance the cursor, bind, and
    /// evaluate the body once per match.
    ForLoop {
        var: VarId,
        body: &'q Expr,
        cur: Cursor,
    },
    /// Pick the branch once the condition frames left their verdict in
    /// `cond_reg`.
    IfBranch {
        then_branch: &'q Expr,
        else_branch: &'q Expr,
    },
    /// Evaluate a condition into `cond_reg`.
    Cond(&'q Cond),
    /// Short-circuit `and`: run the right side only if `cond_reg`.
    CondAnd(&'q Cond),
    /// Short-circuit `or`: run the right side only if `!cond_reg`.
    CondOr(&'q Cond),
    /// Negate `cond_reg`.
    CondNot,
    /// An exists-check mid-scan.
    CondExists { cur: Cursor },
    /// A comparison condition waiting for its base subtree(s) to finish.
    CondPump(&'q Cond),
    /// A `signOff($x/π, r)` waiting for the base subtree to finish.
    SignOff {
        base: BufNodeId,
        path: &'q RelPath,
        role: Role,
    },
}

/// The streaming engine. Construct via [`run_gcx`] and friends (module
/// functions below) unless you need custom wiring.
pub struct GcxEngine<'t, 'q, R: Read, W: Write> {
    compiled: &'q CompiledQuery,
    projector: Preprojector<'t, 'q, R>,
    buffer: BufferTree,
    writer: XmlWriter<W>,
    bindings: Vec<Option<BufNodeId>>,
    gc: bool,
    preload: bool,
    tracer: Option<Tracer>,
    cancel: Option<CancelFlag>,
    /// Debug-level logging for this engine's target, hoisted once at
    /// construction — even the logger's filter lookup is too much for a
    /// tight for-loop body.
    debug: bool,
    /// Sampled per-stage timing sink; the pump stages live in the
    /// projector, the engine itself times `emit` (output subtrees).
    stage_metrics: Option<Arc<EngineStageMetrics>>,
    emit_tick: u32,
    /// Request-scoped flight recorder + trace ID (emit spans; the pump
    /// stages record in the projector, buffer events in the buffer).
    flight: Option<(Arc<gcx_obs::FlightRecorder>, u64)>,
    /// Reusable scratch (see "Evaluator allocation discipline" below):
    /// nodes matched by a comparison step, a node's string value, and the
    /// signOff path frontier/next sets. Taken/restored around use so the
    /// borrow checker allows buffer access in between; capacities stick.
    cmp_nodes: Vec<BufNodeId>,
    cmp_text: String,
    path_frontier: Vec<(BufNodeId, u32)>,
    path_next: Vec<(BufNodeId, u32)>,
    /// The explicit evaluation stack (see [`Frame`]): empty before the
    /// first step and after the run ends.
    frames: Vec<Frame<'q>>,
    /// Condition result register: `Cond*` frames leave their verdict
    /// here for the consuming frame ([`Frame::IfBranch`] etc.).
    cond_reg: bool,
    /// The first step ran (root bound, initial frames pushed).
    started: bool,
    /// The run finished or failed; further `step` calls are an error.
    complete: bool,
    /// Evaluation wall-clock accumulated across step slices. Time
    /// parked *between* steps belongs to the scheduler, not the query.
    run_elapsed: Duration,
    /// Output readiness probe: when installed and returning `false`,
    /// `step` returns [`StepOutcome::OutputBackpressure`] immediately.
    output_gate: Option<Box<dyn Fn() -> bool + Send>>,
}

impl<'t, 'q, R: Read, W: Write> GcxEngine<'t, 'q, R, W> {
    /// Wires up an engine over an input stream and an output sink.
    pub fn new(
        compiled: &'q CompiledQuery,
        tags: &'t mut TagInterner,
        input: R,
        output: W,
        options: EngineOptions,
    ) -> Self {
        let mut buffer = BufferTree::new(compiled.roles.len(), &compiled.projection.aggregates);
        let lexer = XmlLexer::with_options(input, tags, options.lexer);
        let projector = Preprojector::new(lexer, &compiled.projection.tree, &mut buffer);
        let writer = XmlWriter::new(output);
        let bindings = vec![None; compiled.rewritten.vars.len()];
        GcxEngine {
            compiled,
            projector,
            buffer,
            writer,
            bindings,
            gc: options.gc,
            preload: options.preload,
            tracer: None,
            cancel: None,
            debug: gcx_obs::log::enabled(gcx_obs::Level::Debug, LOG_TARGET),
            stage_metrics: None,
            emit_tick: 0,
            flight: None,
            cmp_nodes: Vec::new(),
            cmp_text: String::new(),
            path_frontier: Vec::new(),
            path_next: Vec::new(),
            frames: Vec::new(),
            cond_reg: false,
            started: false,
            complete: false,
            run_elapsed: Duration::ZERO,
            output_gate: None,
        }
    }

    /// Installs a trace callback (Fig. 2 reproduction). Expensive: the
    /// buffer is rendered on every event.
    pub fn set_tracer(&mut self, t: Tracer) {
        self.tracer = Some(t);
    }

    /// Installs a cooperative-cancellation flag. When the flag is
    /// cancelled from another thread, the run aborts with
    /// [`EngineError::Cancelled`] at the next pump step or for-loop
    /// iteration.
    pub fn set_cancel_flag(&mut self, flag: CancelFlag) {
        self.cancel = Some(flag);
    }

    /// Installs a shared, atomically updated mirror of the buffer's live
    /// footprint so other threads can sample [`gcx_buffer::BufferStats`]
    /// figures *mid-run* (live observability; the `RunReport` only exists
    /// once the run completes).
    pub fn set_live_stats(&mut self, live: Arc<gcx_buffer::LiveBufferStats>) {
        self.buffer.set_live_stats(live);
    }

    /// Installs a shared accounting hook charged for the engine buffer's
    /// footprint (buffered nodes + text payload). When the hook refuses a
    /// reservation the run fails with a budget-exceeded
    /// [`EngineError::Buffer`] instead of growing without bound.
    pub fn set_buffer_accounting(&mut self, accounting: Arc<dyn gcx_buffer::BufferAccounting>) {
        self.buffer.set_accounting(accounting);
    }

    /// Installs sampled per-stage timing (see [`crate::metrics`]): every
    /// `sample_every`th pump step is timed into `metrics` stage by
    /// stage, plus one in `EMIT_SAMPLE_EVERY` (16) output subtrees. The
    /// histograms are wait-free, so one shared `Arc` serves every
    /// concurrent session of a server.
    pub fn set_stage_metrics(&mut self, metrics: Arc<EngineStageMetrics>, sample_every: u32) {
        self.projector
            .set_stage_metrics(metrics.clone(), sample_every);
        self.stage_metrics = Some(metrics);
    }

    /// Installs a request-scoped flight recorder under `trace_id` across
    /// the whole engine: pump-stage spans (projector), buffer events
    /// stamped with the input byte offset (buffer tree), and emit spans
    /// (here). Sampling cadence follows [`Self::set_stage_metrics`] for
    /// the pump stages and `EMIT_SAMPLE_EVERY` for emits.
    pub fn set_flight_recorder(&mut self, recorder: Arc<gcx_obs::FlightRecorder>, trace_id: u64) {
        self.projector
            .set_flight_recorder(recorder.clone(), trace_id);
        self.buffer.set_flight_recorder(recorder.clone(), trace_id);
        self.flight = Some((recorder, trace_id));
    }

    /// Starts an emit-stage timer for one in [`EMIT_SAMPLE_EVERY`]
    /// `write_subtree` calls (None when metrics are off or not sampled).
    #[inline]
    fn emit_timer(&mut self) -> Option<Instant> {
        if self.stage_metrics.is_none() && self.flight.is_none() {
            return None;
        }
        self.emit_tick += 1;
        if self.emit_tick >= EMIT_SAMPLE_EVERY {
            self.emit_tick = 0;
            Some(Instant::now())
        } else {
            None
        }
    }

    #[inline]
    fn record_emit(&self, t0: Option<Instant>) {
        let Some(t0) = t0 else { return };
        let dur = t0.elapsed();
        if let Some(m) = &self.stage_metrics {
            m.emit.record(dur);
        }
        if let Some((rec, tid)) = &self.flight {
            let dur_ns = dur.as_nanos() as u64;
            let start = rec.now_ns().saturating_sub(dur_ns);
            rec.record_span(*tid, gcx_obs::SpanKind::Emit, start, dur_ns, 0);
        }
    }

    #[inline]
    fn check_cancelled(&self) -> Result<(), EngineError> {
        match &self.cancel {
            Some(c) if c.is_cancelled() => Err(EngineError::Cancelled),
            _ => Ok(()),
        }
    }

    /// Installs an output readiness probe. While the probe returns
    /// `false`, [`Self::step`] returns
    /// [`StepOutcome::OutputBackpressure`] without running — the
    /// scheduler parks the session until the net layer drains the sink.
    /// The probe is checked only at step boundaries, where the sink has
    /// just been flushed (see [`Self::step`]): it sees every byte
    /// produced so far, and a step that was already running can
    /// overshoot by at most one budget's worth of output. Do not combine
    /// with the blocking [`Self::run`] (which would spin on a closed
    /// gate).
    pub fn set_output_gate(&mut self, gate: Box<dyn Fn() -> bool + Send>) {
        self.output_gate = Some(gate);
    }

    /// Runs at most `budget` frame executions / pump events and returns
    /// what stopped the slice. All evaluation state lives in the engine
    /// struct between calls — no thread ever parks inside. `budget` is
    /// clamped to ≥ 1 so every step makes progress.
    ///
    /// The sink is flushed before every return from a slice that ran
    /// (`Yielded`, `NeedInput`, `Finished`; best-effort on `Err`), so no
    /// output stays inside a suspended engine. A failing flush fails the
    /// run ([`StepOutcome::Err`]).
    pub fn step(&mut self, budget: u32) -> StepOutcome {
        if self.complete {
            return StepOutcome::Err(EngineError::MissingData(
                "step() called after the run already completed".into(),
            ));
        }
        if let Some(gate) = &self.output_gate {
            if !gate() {
                return StepOutcome::OutputBackpressure;
            }
        }
        let budget = budget.max(1);
        let t0 = Instant::now();
        let result = self.drive(budget);
        // A suspended engine holds no output: whatever this slice wrote
        // is handed to the sink before the caller regains control. After
        // an evaluation error the flush is best-effort (the partial
        // output is diagnostics) and the first error is the one reported.
        let result = match (result, self.writer.flush()) {
            (Err(e), _) if !e.is_need_input() => Err(e),
            (_, Err(e)) => Err(e.into()),
            (r, Ok(())) => r,
        };
        let slice = t0.elapsed();
        self.run_elapsed += slice;
        match result {
            Ok(Some(mut report)) => {
                self.complete = true;
                // `build_report` ran inside `drive`, before this slice
                // was added to the total — patch the final figure in.
                report.elapsed = self.run_elapsed;
                StepOutcome::Finished(report)
            }
            Ok(None) => {
                // A yield always means the fuel ran dry, so the slice
                // consumed exactly `budget` events.
                if let Some((rec, tid)) = &self.flight {
                    let dur_ns = slice.as_nanos() as u64;
                    let start = rec.now_ns().saturating_sub(dur_ns);
                    rec.record_span(*tid, gcx_obs::SpanKind::Yield, start, dur_ns, budget as u64);
                }
                StepOutcome::Yielded
            }
            Err(e) if e.is_need_input() => StepOutcome::NeedInput,
            Err(e) => {
                self.complete = true;
                StepOutcome::Err(e)
            }
        }
    }

    /// Runs the query to completion over blocking input/output: a thin
    /// loop over [`Self::step`]. A blocking reader never yields
    /// `WouldBlock`, so `NeedInput` here means the caller wired a
    /// non-blocking source into the blocking entry point.
    pub fn run(mut self) -> Result<RunReport, EngineError> {
        loop {
            match self.step(u32::MAX) {
                StepOutcome::Finished(r) => return Ok(r),
                StepOutcome::Yielded | StepOutcome::OutputBackpressure => {}
                StepOutcome::NeedInput => {
                    return Err(EngineError::MissingData(
                        "non-blocking input ran dry inside a blocking run".into(),
                    ))
                }
                StepOutcome::Err(e) => return Err(e),
            }
        }
    }

    /// The step-machine driver: pops and executes frames until the
    /// stack empties (`Ok(Some(report))`), the fuel runs out
    /// (`Ok(None)` — the interrupted frame has pushed itself back), or
    /// evaluation fails (`Err`; on `NeedInput` the interrupted frame is
    /// back on the stack and the call is retryable).
    fn drive(&mut self, mut fuel: u32) -> Result<Option<RunReport>, EngineError> {
        if !self.started {
            self.started = true;
            self.bindings[VarId::ROOT.index()] = Some(BufferTree::ROOT);
            // `compiled` outlives the engine ('q): borrow the body
            // instead of deep-cloning the expression tree per run.
            let body: &'q Expr = &self.compiled.rewritten.body;
            self.frames.push(Frame::End);
            self.frames.push(Frame::Eval(body));
            self.frames.push(Frame::Begin);
            if self.preload {
                self.frames.push(Frame::Preload);
            }
        }
        loop {
            let Some(frame) = self.frames.pop() else {
                return Ok(Some(self.build_report()));
            };
            if fuel == 0 {
                self.frames.push(frame);
                return Ok(None);
            }
            fuel -= 1;
            self.exec_frame(frame, &mut fuel)?;
        }
    }

    fn build_report(&mut self) -> RunReport {
        let safety = if self.gc {
            Some(self.buffer.all_roles_returned())
        } else {
            None
        };
        let role_balance = self
            .compiled
            .roles
            .roles()
            .map(|r| self.buffer.role_accounting(r))
            .collect();
        RunReport {
            engine: if self.preload {
                "static-projection".into()
            } else if self.gc {
                "gcx".into()
            } else {
                "no-gc-streaming".into()
            },
            output_bytes: self.writer.bytes_written(),
            stats: self.buffer.stats().clone(),
            elapsed: self.run_elapsed,
            dfa_states: self.projector.dfa_states(),
            tokens_read: self.projector.tokens_read,
            tokens_skipped: self.projector.tokens_skipped,
            bytes_skipped: self.projector.bytes_skipped(),
            safety,
            role_balance,
            scan_kernel: gcx_xml::scan::kernel_name(),
        }
    }

    /// Access to the buffer (tests and traces).
    pub fn buffer(&self) -> &BufferTree {
        &self.buffer
    }

    // ------------------------------------------------------------------
    // Pumping
    // ------------------------------------------------------------------

    fn pump_step(&mut self) -> Result<PumpEvent, EngineError> {
        self.check_cancelled()?;
        let ev = self.projector.pump(&mut self.buffer)?;
        if self.tracer.is_some() {
            let label = match ev {
                PumpEvent::Buffered(n) => format!("read+buffer node {}", n.0),
                PumpEvent::Closed(n) => format!("close node {}", n.0),
                PumpEvent::Skipped => "skip token".into(),
                PumpEvent::Eof => "eof".into(),
            };
            self.trace(&label);
        }
        Ok(ev)
    }

    fn trace(&mut self, label: &str) {
        if let Some(t) = &mut self.tracer {
            let ev = TraceEvent {
                label: label.to_string(),
                buffer: self.buffer.render(self.projector.tags()),
            };
            t(&ev);
        }
    }

    /// Pumps until `node`'s closing tag has been processed, charging
    /// one fuel per pump event. Returns `Ok(false)` when the fuel ran
    /// out first. At least one pump happens per call even with no fuel
    /// left: the frame-dispatch charge in `drive` can drain the budget
    /// before the frame's real work starts, and a work loop that then
    /// refuses to work would re-suspend identically forever — every
    /// step must make progress (overshoot is bounded by one event).
    fn pump_finish_fuel(&mut self, node: BufNodeId, fuel: &mut u32) -> Result<bool, EngineError> {
        while !self.buffer.is_finished(node) {
            if self.pump_step()? == PumpEvent::Eof && !self.buffer.is_finished(node) {
                return Err(EngineError::MissingData(
                    "input ended before an open element finished".into(),
                ));
            }
            *fuel = fuel.saturating_sub(1);
            if *fuel == 0 && !self.buffer.is_finished(node) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Cursors
    // ------------------------------------------------------------------

    fn node_matches(&self, n: BufNodeId, test: NodeTest) -> bool {
        match test {
            NodeTest::Tag(t) => self.buffer.tag(n) == Some(t),
            NodeTest::Star => self.buffer.tag(n).is_some(),
            NodeTest::Text => self.buffer.is_text(n),
        }
    }

    /// Advances a cursor to its next match, pumping the input as needed
    /// (this is where the evaluator "blocks" in the paper's terms —
    /// except nothing blocks: fuel is charged per candidate examined
    /// and per pump event, and `OutOfFuel` suspends the scan with the
    /// position parked in the cursor's pinned mark).
    fn cursor_next_fuel(
        &mut self,
        c: &mut Cursor,
        fuel: &mut u32,
    ) -> Result<CursorStep, EngineError> {
        if c.done {
            return Ok(CursorStep::End);
        }
        // Fuel is checked *after* each unit of work (candidate examined
        // or event pumped), never before the first: see
        // [`Self::pump_finish_fuel`] for why refusing to work at zero
        // fuel would livelock a budget-1 step.
        loop {
            let candidate = match (c.step.axis, c.mark) {
                (Axis::Child, None) => self.buffer.first_child(c.base),
                (Axis::Child, Some(m)) => self.buffer.next_sibling(m),
                (Axis::Descendant, None) => self.buffer.next_in_subtree(c.base, c.base),
                (Axis::Descendant, Some(m)) => self.buffer.next_in_subtree(c.base, m),
            };
            match candidate {
                Some(n) => {
                    self.buffer.pin(n);
                    if let Some(m) = c.mark {
                        self.buffer.unpin(m);
                    }
                    c.mark = Some(n);
                    if self.node_matches(n, c.step.test) {
                        return Ok(CursorStep::Found(n));
                    }
                }
                None => {
                    if self.buffer.is_finished(c.base) {
                        self.cursor_abort(c);
                        return Ok(CursorStep::End);
                    }
                    if self.pump_step()? == PumpEvent::Eof && !self.buffer.is_finished(c.base) {
                        return Err(EngineError::MissingData(
                            "input ended inside an open element".into(),
                        ));
                    }
                }
            }
            *fuel = fuel.saturating_sub(1);
            if *fuel == 0 {
                return Ok(CursorStep::OutOfFuel);
            }
        }
    }

    /// Releases a cursor's pin early (used by exists-checks).
    fn cursor_abort(&mut self, c: &mut Cursor) {
        if let Some(m) = c.mark.take() {
            self.buffer.unpin(m);
        }
        c.done = true;
    }

    // ------------------------------------------------------------------
    // Frame execution (the step machine's inner dispatch)
    // ------------------------------------------------------------------

    /// Pushes `frame` back for retry when `e` is a need-input
    /// suspension, then propagates the error either way. Non-resumable
    /// errors end the run, so not re-pushing them is fine.
    fn suspend_err(&mut self, frame: Frame<'q>, e: EngineError) -> Result<(), EngineError> {
        if e.is_need_input() {
            self.frames.push(frame);
        }
        Err(e)
    }

    /// Executes one frame. Frames that suspend (out of fuel, input ran
    /// dry) push themselves back — with whatever state they mutated —
    /// before returning, so the next `drive` resumes mid-construct.
    fn exec_frame(&mut self, frame: Frame<'q>, fuel: &mut u32) -> Result<(), EngineError> {
        match frame {
            Frame::Preload => loop {
                match self.pump_step() {
                    Ok(PumpEvent::Eof) => return Ok(()),
                    Ok(_) => {}
                    Err(e) => return self.suspend_err(Frame::Preload, e),
                }
                *fuel = fuel.saturating_sub(1);
                if *fuel == 0 {
                    self.frames.push(Frame::Preload);
                    return Ok(());
                }
            },
            Frame::Begin => {
                let root_tag = self.compiled.rewritten.root_tag;
                self.writer.open(root_tag, self.projector.tags())?;
                // Commit the response as evaluation starts: the first
                // slice may run long before it suspends.
                self.writer.flush()?;
                self.trace("output root open");
                Ok(())
            }
            Frame::End => {
                let root_tag = self.compiled.rewritten.root_tag;
                self.writer.close(root_tag, self.projector.tags())?;
                Ok(())
            }
            Frame::Eval(e) => self.eval_frame(e),
            Frame::Seq { items, idx } => {
                if let Some(item) = items.get(idx) {
                    self.frames.push(Frame::Seq {
                        items,
                        idx: idx + 1,
                    });
                    self.frames.push(Frame::Eval(item));
                }
                Ok(())
            }
            Frame::CloseTag(t) => {
                self.writer.close(t, self.projector.tags())?;
                Ok(())
            }
            Frame::VarEmit { node } => {
                match self.pump_finish_fuel(node, fuel) {
                    Ok(true) => {}
                    Ok(false) => {
                        self.frames.push(Frame::VarEmit { node });
                        return Ok(());
                    }
                    Err(e) => return self.suspend_err(Frame::VarEmit { node }, e),
                }
                let t_emit = self.emit_timer();
                self.buffer
                    .write_subtree(node, self.projector.tags(), &mut self.writer)?;
                self.record_emit(t_emit);
                self.trace("output binding subtree");
                Ok(())
            }
            Frame::PathOut { mut cur, mut emit } => loop {
                if let Some(n) = emit {
                    match self.pump_finish_fuel(n, fuel) {
                        Ok(true) => {}
                        Ok(false) => {
                            self.frames.push(Frame::PathOut { cur, emit });
                            return Ok(());
                        }
                        Err(e) => return self.suspend_err(Frame::PathOut { cur, emit }, e),
                    }
                    let t_emit = self.emit_timer();
                    self.buffer
                        .write_subtree(n, self.projector.tags(), &mut self.writer)?;
                    self.record_emit(t_emit);
                    emit = None;
                }
                match self.cursor_next_fuel(&mut cur, fuel) {
                    Ok(CursorStep::Found(n)) => emit = Some(n),
                    Ok(CursorStep::End) => return Ok(()),
                    Ok(CursorStep::OutOfFuel) => {
                        self.frames.push(Frame::PathOut { cur, emit });
                        return Ok(());
                    }
                    Err(e) => return self.suspend_err(Frame::PathOut { cur, emit }, e),
                }
            },
            Frame::ForLoop { var, body, mut cur } => {
                self.check_cancelled()?;
                match self.cursor_next_fuel(&mut cur, fuel) {
                    Ok(CursorStep::Found(n)) => {
                        if self.debug {
                            let name = self
                                .buffer
                                .tag(n)
                                .map(|t| self.projector.tags().name(t).to_string())
                                .unwrap_or_else(|| "#text".into());
                            log_debug!(
                                LOG_TARGET,
                                "bind var{} -> node {} <{}>   buffer: {}",
                                var.0,
                                n.0,
                                name,
                                self.buffer.render_debug(self.projector.tags())
                            );
                        }
                        self.bindings[var.index()] = Some(n);
                        self.frames.push(Frame::ForLoop { var, body, cur });
                        self.frames.push(Frame::Eval(body));
                        Ok(())
                    }
                    Ok(CursorStep::End) => {
                        self.bindings[var.index()] = None;
                        Ok(())
                    }
                    Ok(CursorStep::OutOfFuel) => {
                        self.frames.push(Frame::ForLoop { var, body, cur });
                        Ok(())
                    }
                    Err(e) => self.suspend_err(Frame::ForLoop { var, body, cur }, e),
                }
            }
            Frame::IfBranch {
                then_branch,
                else_branch,
            } => {
                let branch = if self.cond_reg {
                    then_branch
                } else {
                    else_branch
                };
                self.frames.push(Frame::Eval(branch));
                Ok(())
            }
            Frame::Cond(c) => self.cond_frame(c),
            Frame::CondAnd(b) => {
                if self.cond_reg {
                    self.frames.push(Frame::Cond(b));
                }
                Ok(())
            }
            Frame::CondOr(b) => {
                if !self.cond_reg {
                    self.frames.push(Frame::Cond(b));
                }
                Ok(())
            }
            Frame::CondNot => {
                self.cond_reg = !self.cond_reg;
                Ok(())
            }
            Frame::CondExists { mut cur } => match self.cursor_next_fuel(&mut cur, fuel) {
                Ok(CursorStep::Found(_)) => {
                    self.cursor_abort(&mut cur);
                    self.cond_reg = true;
                    Ok(())
                }
                Ok(CursorStep::End) => {
                    self.cond_reg = false;
                    Ok(())
                }
                Ok(CursorStep::OutOfFuel) => {
                    self.frames.push(Frame::CondExists { cur });
                    Ok(())
                }
                Err(e) => self.suspend_err(Frame::CondExists { cur }, e),
            },
            Frame::CondPump(c) => self.exec_cond_pump(c, fuel),
            Frame::SignOff { base, path, role } => {
                match self.pump_finish_fuel(base, fuel) {
                    Ok(true) => {}
                    Ok(false) => {
                        self.frames.push(Frame::SignOff { base, path, role });
                        return Ok(());
                    }
                    Err(e) => return self.suspend_err(Frame::SignOff { base, path, role }, e),
                }
                self.signoff_commit(base, path, role)
            }
        }
    }

    /// Dispatches one expression onto the frame stack. Pure stack
    /// manipulation plus the leaf cases that cannot suspend (writer
    /// opens/closes); anything that pumps gets its own frame.
    fn eval_frame(&mut self, e: &'q Expr) -> Result<(), EngineError> {
        match e {
            Expr::Empty => Ok(()),
            Expr::OpenTag(t) => {
                self.writer.open(*t, self.projector.tags())?;
                Ok(())
            }
            Expr::CloseTag(t) => {
                self.writer.close(*t, self.projector.tags())?;
                Ok(())
            }
            Expr::Element { tag, content } => {
                self.writer.open(*tag, self.projector.tags())?;
                self.frames.push(Frame::CloseTag(*tag));
                self.frames.push(Frame::Eval(content));
                Ok(())
            }
            Expr::Sequence(items) => {
                self.frames.push(Frame::Seq { items, idx: 0 });
                Ok(())
            }
            Expr::VarRef(v) => {
                let node = self.binding(*v);
                self.frames.push(Frame::VarEmit { node });
                Ok(())
            }
            Expr::PathOutput { var, step } => {
                let base = self.binding(*var);
                self.frames.push(Frame::PathOut {
                    cur: Cursor::new(base, *step),
                    emit: None,
                });
                Ok(())
            }
            Expr::For {
                var,
                source,
                step,
                body,
            } => {
                let base = self.binding(*source);
                self.frames.push(Frame::ForLoop {
                    var: *var,
                    body,
                    cur: Cursor::new(base, *step),
                });
                Ok(())
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.frames.push(Frame::IfBranch {
                    then_branch,
                    else_branch,
                });
                self.frames.push(Frame::Cond(cond));
                Ok(())
            }
            Expr::SignOff { var, path, role } => {
                if !self.gc {
                    return Ok(());
                }
                let base = self.binding(*var);
                if path.is_empty() {
                    self.buffer.sign_off(base, *role, 1)?;
                    self.trace("signOff(ε)");
                    return Ok(());
                }
                self.frames.push(Frame::SignOff {
                    base,
                    path,
                    role: *role,
                });
                Ok(())
            }
        }
    }

    fn binding(&self, v: VarId) -> BufNodeId {
        self.bindings[v.index()]
            .unwrap_or_else(|| panic!("variable {} evaluated outside its scope", v.0))
    }

    // ------------------------------------------------------------------
    // Conditions
    // ------------------------------------------------------------------

    /// Dispatches one condition onto the frame stack; leaves (or
    /// arranges for) its verdict in `cond_reg`.
    fn cond_frame(&mut self, c: &'q Cond) -> Result<(), EngineError> {
        match c {
            Cond::True => {
                self.cond_reg = true;
                Ok(())
            }
            Cond::Exists { var, step } => {
                let base = self.binding(*var);
                self.frames.push(Frame::CondExists {
                    cur: Cursor::new(base, *step),
                });
                Ok(())
            }
            Cond::CmpStr { .. } | Cond::CmpVar { .. } => {
                self.frames.push(Frame::CondPump(c));
                Ok(())
            }
            Cond::And(a, b) => {
                self.frames.push(Frame::CondAnd(b));
                self.frames.push(Frame::Cond(a));
                Ok(())
            }
            Cond::Or(a, b) => {
                self.frames.push(Frame::CondOr(b));
                self.frames.push(Frame::Cond(a));
                Ok(())
            }
            Cond::Not(inner) => {
                self.frames.push(Frame::CondNot);
                self.frames.push(Frame::Cond(inner));
                Ok(())
            }
        }
    }

    /// Runs a comparison condition: pump the base subtree(s) finished
    /// (fueled — re-entry is idempotent because a finished base pumps
    /// zero events), then compute the verdict in one non-suspending
    /// commit.
    fn exec_cond_pump(&mut self, c: &'q Cond, fuel: &mut u32) -> Result<(), EngineError> {
        match c {
            Cond::CmpStr {
                var,
                step,
                op,
                value,
            } => {
                let base = self.binding(*var);
                match self.pump_finish_fuel(base, fuel) {
                    Ok(true) => {}
                    Ok(false) => {
                        self.frames.push(Frame::CondPump(c));
                        return Ok(());
                    }
                    Err(e) => return self.suspend_err(Frame::CondPump(c), e),
                }
                self.cond_reg = self.cmp_str_commit(base, *step, *op, value);
                Ok(())
            }
            Cond::CmpVar {
                left_var,
                left_step,
                op,
                right_var,
                right_step,
            } => {
                let lbase = self.binding(*left_var);
                let rbase = self.binding(*right_var);
                for base in [lbase, rbase] {
                    match self.pump_finish_fuel(base, fuel) {
                        Ok(true) => {}
                        Ok(false) => {
                            self.frames.push(Frame::CondPump(c));
                            return Ok(());
                        }
                        Err(e) => return self.suspend_err(Frame::CondPump(c), e),
                    }
                }
                self.cond_reg = self.cmp_var_commit(lbase, *left_step, *op, rbase, *right_step);
                Ok(())
            }
            _ => unreachable!("CondPump only holds comparison conditions"),
        }
    }

    /// `$x/π op "literal"` over a *finished* base. Hot path (every
    /// binding of a conditioned for-loop runs this): match nodes and
    /// string values go through the engine's reusable scratch, not
    /// fresh allocations.
    fn cmp_str_commit(
        &mut self,
        base: BufNodeId,
        step: Step,
        op: gcx_query::RelOp,
        value: &str,
    ) -> bool {
        let mut matches = std::mem::take(&mut self.cmp_nodes);
        matches.clear();
        self.collect_matches_into(base, step, &mut matches);
        let mut text = std::mem::take(&mut self.cmp_text);
        let mut found = false;
        for &n in &matches {
            text.clear();
            self.buffer.string_value_into(n, &mut text);
            if compare_values(&text, value, op) {
                found = true;
                break;
            }
        }
        self.cmp_text = text;
        self.cmp_nodes = matches;
        found
    }

    /// `$x/π op $y/ρ` over two *finished* bases (existential
    /// comparison semantics).
    fn cmp_var_commit(
        &mut self,
        lbase: BufNodeId,
        left_step: Step,
        op: gcx_query::RelOp,
        rbase: BufNodeId,
        right_step: Step,
    ) -> bool {
        let mut lnodes = Vec::new();
        self.collect_matches_into(lbase, left_step, &mut lnodes);
        let left: Vec<String> = lnodes
            .iter()
            .map(|&n| self.buffer.string_value(n))
            .collect();
        if left.is_empty() {
            return false;
        }
        let mut right = Vec::new();
        self.collect_matches_into(rbase, right_step, &mut right);
        for &rn in &right {
            let rv = self.buffer.string_value(rn);
            if left.iter().any(|lv| compare_values(lv, &rv, op)) {
                return true;
            }
        }
        false
    }

    /// Collects all buffered matches of `step` under a *finished* base (no
    /// pumping; used by comparisons) into a caller-provided vector.
    fn collect_matches_into(&self, base: BufNodeId, step: Step, out: &mut Vec<BufNodeId>) {
        match step.axis {
            Axis::Child => {
                let mut c = self.buffer.first_child(base);
                while let Some(n) = c {
                    if self.node_matches(n, step.test) {
                        out.push(n);
                    }
                    c = self.buffer.next_sibling(n);
                }
            }
            Axis::Descendant => {
                let mut cur = base;
                while let Some(n) = self.buffer.next_in_subtree(base, cur) {
                    if self.node_matches(n, step.test) {
                        out.push(n);
                    }
                    cur = n;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // signOff execution (paper Fig. 10)
    // ------------------------------------------------------------------

    /// Executes a path signOff over a *finished* base subtree (path
    /// evaluation is only correct once the base is complete; the
    /// [`Frame::SignOff`] frame pumps it finished first, which
    /// coincides with when the paper's sequential semantics reaches
    /// the statement).
    fn signoff_commit(
        &mut self,
        base: BufNodeId,
        path: &RelPath,
        role: Role,
    ) -> Result<(), EngineError> {
        // Aggregate roles (paper §6) are carried by the subtree root only:
        // evaluate the path without its dos::node() terminal.
        let steps: &[PStep] = if self.compiled.is_aggregate(role) {
            match path.steps.last() {
                Some(last) if last.test == PTest::AnyNode => &path.steps[..path.steps.len() - 1],
                _ => &path.steps,
            }
        } else {
            &path.steps
        };
        // Path evaluation runs per signOff per binding: the frontier sets
        // live in engine scratch (taken/restored so the buffer stays
        // accessible), not in per-call vectors.
        let mut frontier = std::mem::take(&mut self.path_frontier);
        let mut next = std::mem::take(&mut self.path_next);
        self.eval_relpath_into(base, steps, &mut frontier, &mut next);
        if self.debug {
            log_debug!(
                LOG_TARGET,
                "signOff path base={} role=r{} targets={:?}",
                base.0,
                role.0,
                frontier.iter().map(|&(n, c)| (n.0, c)).collect::<Vec<_>>()
            );
        }
        for &(node, count) in &frontier {
            self.buffer.sign_off(node, role, count)?;
        }
        frontier.clear();
        next.clear();
        self.path_frontier = frontier;
        self.path_next = next;
        self.trace("signOff(path)");
        Ok(())
    }

    /// Evaluates a projection path over the buffer with *multiplicity*
    /// semantics: each target is returned (in `frontier`) with the number
    /// of distinct step-binding assignments reaching it, mirroring
    /// role-assignment multiplicities (paper Example 1: a signOff must
    /// remove as many role instances as the projection assigned).
    /// `frontier`/`next` are caller-provided working sets; the result is
    /// left in `frontier`.
    fn eval_relpath_into(
        &self,
        base: BufNodeId,
        steps: &[PStep],
        frontier: &mut Vec<(BufNodeId, u32)>,
        next: &mut Vec<(BufNodeId, u32)>,
    ) {
        frontier.clear();
        frontier.push((base, 1));
        for step in steps {
            next.clear();
            for &(n, count) in frontier.iter() {
                match step.axis {
                    gcx_projection::PAxis::Child => {
                        let mut c = self.buffer.first_child(n);
                        while let Some(x) = c {
                            if ptest_matches(&self.buffer, x, step.test) {
                                next.push((x, count));
                                if step.pred == Pred::First {
                                    break;
                                }
                            }
                            c = self.buffer.next_sibling(x);
                        }
                    }
                    gcx_projection::PAxis::Descendant => {
                        let mut cur = n;
                        while let Some(x) = self.buffer.next_in_subtree(n, cur) {
                            if ptest_matches(&self.buffer, x, step.test) {
                                next.push((x, count));
                                if step.pred == Pred::First {
                                    break;
                                }
                            }
                            cur = x;
                        }
                    }
                    gcx_projection::PAxis::DescendantOrSelf => {
                        debug_assert_eq!(step.pred, Pred::True);
                        if ptest_matches(&self.buffer, n, step.test) {
                            next.push((n, count));
                        }
                        let mut cur = n;
                        while let Some(x) = self.buffer.next_in_subtree(n, cur) {
                            if ptest_matches(&self.buffer, x, step.test) {
                                next.push((x, count));
                            }
                            cur = x;
                        }
                    }
                }
            }
            // Merge duplicate targets, summing multiplicities.
            next.sort_unstable_by_key(|&(n, _)| n);
            next.dedup_by(|a, b| {
                if a.0 == b.0 {
                    b.1 += a.1;
                    true
                } else {
                    false
                }
            });
            std::mem::swap(frontier, next);
        }
    }
}

fn ptest_matches(buffer: &BufferTree, n: BufNodeId, test: PTest) -> bool {
    match test {
        PTest::Tag(t) => buffer.tag(n) == Some(t),
        PTest::Star => buffer.tag(n).is_some(),
        PTest::Text => buffer.is_text(n),
        PTest::AnyNode => true,
    }
}

// ----------------------------------------------------------------------
// Convenience entry points (the engines of Table 1)
// ----------------------------------------------------------------------

/// Runs the full GCX engine: incremental projection + active GC.
pub fn run_gcx<R: Read, W: Write>(
    compiled: &CompiledQuery,
    tags: &mut TagInterner,
    input: R,
    output: W,
) -> Result<RunReport, EngineError> {
    GcxEngine::new(compiled, tags, input, output, EngineOptions::default()).run()
}

/// Streaming projection without garbage collection ("static analysis
/// alone"; FluXQuery-class buffering behaviour for buffered data).
pub fn run_no_gc_streaming<R: Read, W: Write>(
    compiled: &CompiledQuery,
    tags: &mut TagInterner,
    input: R,
    output: W,
) -> Result<RunReport, EngineError> {
    let opts = EngineOptions {
        gc: false,
        ..Default::default()
    };
    GcxEngine::new(compiled, tags, input, output, opts).run()
}

/// Galax-style static projection \[13\]: materialize the projected document
/// entirely, then evaluate in memory.
pub fn run_static_projection<R: Read, W: Write>(
    compiled: &CompiledQuery,
    tags: &mut TagInterner,
    input: R,
    output: W,
) -> Result<RunReport, EngineError> {
    let opts = EngineOptions {
        gc: false,
        preload: true,
        ..Default::default()
    };
    GcxEngine::new(compiled, tags, input, output, opts).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_query::{compile, compile_default, CompileOptions};

    fn gcx_output(query: &str, doc: &str) -> (String, RunReport) {
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).expect("compile");
        let mut out = Vec::new();
        let report = run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut out).expect("run");
        (String::from_utf8(out).unwrap(), report)
    }

    fn gcx_output_opts(query: &str, doc: &str, copts: CompileOptions) -> (String, RunReport) {
        let mut tags = TagInterner::new();
        let compiled = compile(query, &mut tags, copts).expect("compile");
        let mut out = Vec::new();
        let report = run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut out).expect("run");
        (String::from_utf8(out).unwrap(), report)
    }

    #[test]
    fn simple_for_loop() {
        let (out, report) = gcx_output(
            "<r>{ for $b in /bib/book return $b/title }</r>",
            "<bib><book><title>A</title></book><book><title>B</title><price>5</price></book></bib>",
        );
        assert_eq!(out, "<r><title>A</title><title>B</title></r>");
        assert_eq!(report.safety, Some(true), "all roles returned");
    }

    #[test]
    fn intro_query_end_to_end() {
        let query = r#"<r>{ for $bib in /bib return
          ((for $x in $bib/* return if (not(exists($x/price))) then $x else ()),
           for $b in $bib/book return $b/title) }</r>"#;
        let doc = "<bib><book><title>T1</title><author>A1</author></book>\
                   <book><title>T2</title><price>9</price></book>\
                   <cd><label>L</label></cd></bib>";
        let (out, report) = gcx_output(query, doc);
        // First loop: nodes without price → book1 and cd, full subtrees.
        // Second loop: all book titles.
        assert_eq!(
            out,
            "<r><book><title>T1</title><author>A1</author></book>\
             <cd><label>L</label></cd>\
             <title>T1</title><title>T2</title></r>"
        );
        assert_eq!(report.safety, Some(true));
    }

    #[test]
    fn intro_query_plain_options_same_output() {
        let query = r#"<r>{ for $bib in /bib return
          ((for $x in $bib/* return if (not(exists($x/price))) then $x else ()),
           for $b in $bib/book return $b/title) }</r>"#;
        let doc = "<bib><book><title>T1</title><author>A1</author></book>\
                   <book><title>T2</title><price>9</price></book></bib>";
        let (out1, r1) = gcx_output(query, doc);
        let (out2, r2) = gcx_output_opts(query, doc, CompileOptions::plain());
        assert_eq!(out1, out2, "optimizations preserve semantics");
        assert_eq!(r1.safety, Some(true));
        assert_eq!(r2.safety, Some(true));
    }

    #[test]
    fn descendant_axis_query() {
        let (out, report) = gcx_output(
            "<r>{ for $t in /doc//title return $t }</r>",
            "<doc><sec><title>S1</title><sub><title>S2</title></sub></sec><title>Top</title></doc>",
        );
        assert_eq!(
            out,
            "<r><title>S1</title><title>S2</title><title>Top</title></r>"
        );
        assert_eq!(report.safety, Some(true));
    }

    #[test]
    fn join_query() {
        let query = r#"<r>{ for $p in /db/person return
            for $s in /db/sale return
            if ($s/buyer = $p/id) then <hit>{ ($p/name, $s/item) }</hit> else () }</r>"#;
        let doc = "<db><person><id>p1</id><name>Ann</name></person>\
                   <person><id>p2</id><name>Bob</name></person>\
                   <sale><buyer>p2</buyer><item>car</item></sale>\
                   <sale><buyer>p1</buyer><item>pen</item></sale></db>";
        let (out, report) = gcx_output(query, doc);
        assert_eq!(
            out,
            "<r><hit><name>Ann</name><item>pen</item></hit>\
             <hit><name>Bob</name><item>car</item></hit></r>"
        );
        assert_eq!(report.safety, Some(true));
    }

    #[test]
    fn comparisons_numeric() {
        let query = r#"<r>{ for $i in /inv/item return
            if ($i/price >= 10) then $i/name else () }</r>"#;
        let doc = "<inv><item><name>a</name><price>9.5</price></item>\
                   <item><name>b</name><price>10</price></item>\
                   <item><name>c</name><price>200</price></item></inv>";
        let (out, _) = gcx_output(query, doc);
        assert_eq!(out, "<r><name>b</name><name>c</name></r>");
    }

    #[test]
    fn text_output() {
        let (out, _) = gcx_output(
            "<r>{ for $n in /a/name return $n/text() }</r>",
            "<a><name>Jo</name><name>Mo</name></a>",
        );
        assert_eq!(out, "<r>JoMo</r>");
    }

    #[test]
    fn empty_result() {
        let (out, report) = gcx_output("<r>{ for $x in /a/zzz return $x }</r>", "<a><b/><c/></a>");
        assert_eq!(out, "<r></r>");
        assert_eq!(report.safety, Some(true));
    }

    #[test]
    fn memory_stays_constant_for_streamable_query() {
        // 200 books; GCX should hold only O(1) of them at a time.
        let mut doc = String::from("<bib>");
        for i in 0..200 {
            doc.push_str(&format!("<book><title>T{i}</title></book>"));
        }
        doc.push_str("</bib>");
        let (_, report) = gcx_output("<r>{ for $b in /bib/book return $b/title }</r>", &doc);
        assert!(
            report.stats.peak_nodes <= 8,
            "peak nodes {} should be constant-ish",
            report.stats.peak_nodes
        );
        assert_eq!(report.safety, Some(true));
    }

    #[test]
    fn no_gc_buffers_everything_projected() {
        let mut doc = String::from("<bib>");
        for i in 0..50 {
            doc.push_str(&format!("<book><title>T{i}</title></book>"));
        }
        doc.push_str("</bib>");
        let query = "<r>{ for $b in /bib/book return $b/title }</r>";
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let mut out1 = Vec::new();
        let gcx = run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut out1).unwrap();
        let mut tags2 = TagInterner::new();
        let compiled2 = compile_default(query, &mut tags2).unwrap();
        let mut out2 = Vec::new();
        let nogc = run_no_gc_streaming(&compiled2, &mut tags2, doc.as_bytes(), &mut out2).unwrap();
        assert_eq!(out1, out2, "same output");
        assert!(
            gcx.stats.peak_nodes * 4 < nogc.stats.peak_nodes,
            "GCX {} ≪ no-GC {}",
            gcx.stats.peak_nodes,
            nogc.stats.peak_nodes
        );
        assert_eq!(nogc.safety, None);
    }

    #[test]
    fn static_projection_equals_no_gc_peak() {
        let doc = "<bib><book><title>A</title></book><book><title>B</title></book></bib>";
        let query = "<r>{ for $b in /bib/book return $b/title }</r>";
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let mut out = Vec::new();
        let st = run_static_projection(&compiled, &mut tags, doc.as_bytes(), &mut out).unwrap();
        let mut tags2 = TagInterner::new();
        let compiled2 = compile_default(query, &mut tags2).unwrap();
        let mut out2 = Vec::new();
        let ng = run_no_gc_streaming(&compiled2, &mut tags2, doc.as_bytes(), &mut out2).unwrap();
        assert_eq!(out, out2);
        assert_eq!(st.stats.peak_nodes, ng.stats.peak_nodes);
        assert_eq!(st.engine, "static-projection");
    }

    #[test]
    fn nested_constructors_and_sequences() {
        let query = r#"<out>{ for $b in /bib/book return
            <entry><t>{ $b/title }</t><when>now</when></entry> }</out>"#;
        // "now" is not valid content — constructors contain queries; use a
        // bachelor tag instead.
        let query = query.replace("<when>now</when>", "<when/>");
        let (out, _) = gcx_output(&query, "<bib><book><title>X</title></book></bib>");
        assert_eq!(
            out,
            "<out><entry><t><title>X</title></t><when></when></entry></out>"
        );
    }

    #[test]
    fn exists_positive_and_negative() {
        let query = r#"<r>{ for $b in /bib/book return
            if (exists($b/price)) then <priced/> else <free/> }</r>"#;
        let doc = "<bib><book><price>1</price></book><book><title>t</title></book></bib>";
        let (out, report) = gcx_output(query, doc);
        assert_eq!(out, "<r><priced></priced><free></free></r>");
        assert_eq!(report.safety, Some(true));
    }

    #[test]
    fn boolean_connectives() {
        let query = r#"<r>{ for $b in /bib/book return
            if (exists($b/a) and not(exists($b/b)) or $b/k = "yes") then $b else () }</r>"#;
        let doc = "<bib>\
            <book><a/><id>1</id></book>\
            <book><a/><b/><id>2</id></book>\
            <book><b/><k>yes</k><id>3</id></book></bib>";
        let (out, _) = gcx_output(query, doc);
        assert!(out.contains("<id>1</id>"));
        assert!(!out.contains("<id>2</id>"));
        assert!(out.contains("<id>3</id>"));
    }

    #[test]
    fn cancel_flag_aborts_run() {
        let query = "<r>{ for $b in /bib/book return $b/title }</r>";
        let doc = "<bib><book><title>A</title></book></bib>";
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let flag = CancelFlag::new();
        flag.cancel();
        assert!(flag.is_cancelled());
        let mut engine = GcxEngine::new(
            &compiled,
            &mut tags,
            doc.as_bytes(),
            Vec::new(),
            EngineOptions::default(),
        );
        engine.set_cancel_flag(flag);
        assert!(matches!(engine.run(), Err(EngineError::Cancelled)));
    }

    #[test]
    fn uncancelled_flag_is_harmless() {
        let query = "<r>{ for $b in /bib/book return $b/title }</r>";
        let doc = "<bib><book><title>A</title></book></bib>";
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let mut engine = GcxEngine::new(
            &compiled,
            &mut tags,
            doc.as_bytes(),
            Vec::new(),
            EngineOptions::default(),
        );
        engine.set_cancel_flag(CancelFlag::new());
        assert!(engine.run().is_ok());
    }

    #[test]
    fn stage_metrics_populate_when_sampling_every_step() {
        let query = "<r>{ for $b in /bib/book return $b/title }</r>";
        let doc = "<bib><book><title>A</title></book><junk><x/><y/></junk>\
                   <book><title>B</title></book></bib>";
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let metrics = Arc::new(crate::metrics::EngineStageMetrics::new());
        let mut engine = GcxEngine::new(
            &compiled,
            &mut tags,
            doc.as_bytes(),
            Vec::new(),
            EngineOptions::default(),
        );
        engine.set_stage_metrics(metrics.clone(), 1);
        engine.run().unwrap();
        assert!(metrics.lex.count() > 0, "every pump step timed the lexer");
        assert!(metrics.matching.count() > 0, "matcher verdicts timed");
        assert!(metrics.buffer.count() > 0, "buffered nodes timed");
        assert!(metrics.skip.count() > 0, "the dead <junk> subtree timed");
        // Emits sample 1-in-16; this run has too few, so only check the
        // histogram is readable.
        let _ = metrics.emit.snapshot();
    }

    #[test]
    fn flight_recorder_captures_stage_spans_and_buffer_events() {
        use gcx_obs::{FlightRecorder, SpanKind};
        let query = "<r>{ for $b in /bib/book return $b/title }</r>";
        let doc = "<bib><book><title>A</title></book><junk><x/><y/></junk>\
                   <book><title>B</title></book></bib>";
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let rec = Arc::new(FlightRecorder::new());
        let mut engine = GcxEngine::new(
            &compiled,
            &mut tags,
            doc.as_bytes(),
            Vec::new(),
            EngineOptions::default(),
        );
        engine.set_stage_metrics(Arc::new(crate::metrics::EngineStageMetrics::new()), 1);
        engine.set_flight_recorder(rec.clone(), 42);
        engine.run().unwrap();
        let totals = rec.stage_totals(42);
        let get = |k: SpanKind| totals.iter().find(|(x, _)| *x == k).unwrap().1;
        assert!(get(SpanKind::Lex) > 0, "lex spans recorded");
        assert!(get(SpanKind::Match) > 0, "match spans recorded");
        assert!(get(SpanKind::Buffer) > 0, "buffer spans recorded");
        assert!(get(SpanKind::Skip) > 0, "the dead <junk> subtree spanned");
        // Buffer events: at least one node-buffered instant with a
        // nonzero stream offset (only the first <bib> open sits at 0).
        rec.keep(42, "test", 0, false);
        let json = rec.export_chrome_json();
        assert!(json.contains("\"name\":\"node-buffered\""), "{json}");
        assert!(json.contains("\"name\":\"sign-off\""), "{json}");
        assert!(json.contains("\"name\":\"subtree-delete\""), "{json}");
    }

    #[test]
    fn stage_metrics_do_not_change_results() {
        let query = "<r>{ for $b in /bib/book return $b/title }</r>";
        let doc = "<bib><book><title>A</title></book><book><title>B</title></book></bib>";
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let mut plain_out = Vec::new();
        let plain = run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut plain_out).unwrap();
        let mut tags2 = TagInterner::new();
        let compiled2 = compile_default(query, &mut tags2).unwrap();
        let mut timed_out = Vec::new();
        let mut engine = GcxEngine::new(
            &compiled2,
            &mut tags2,
            doc.as_bytes(),
            &mut timed_out,
            EngineOptions::default(),
        );
        engine.set_stage_metrics(Arc::new(crate::metrics::EngineStageMetrics::new()), 1);
        let timed = engine.run().unwrap();
        assert_eq!(plain_out, timed_out, "byte-identical output");
        assert_eq!(plain.stats.peak_nodes, timed.stats.peak_nodes);
        assert_eq!(plain.tokens_read, timed.tokens_read);
    }

    #[test]
    fn tracer_sees_buffer_states() {
        use std::sync::Mutex;
        let query = "<r>{ for $b in /bib/book return $b/title }</r>";
        let doc = "<bib><book><title>A</title></book></bib>";
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let events: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = events.clone();
        let mut engine = GcxEngine::new(
            &compiled,
            &mut tags,
            doc.as_bytes(),
            Vec::new(),
            EngineOptions::default(),
        );
        engine.set_tracer(Box::new(move |ev| {
            sink.lock()
                .unwrap()
                .push(format!("{}: {}", ev.label, ev.buffer));
        }));
        engine.run().unwrap();
        let log = events.lock().unwrap();
        assert!(!log.is_empty());
        assert!(log.iter().any(|l| l.contains("title")));
    }

    // ------------------------------------------------------------------
    // Step machine
    // ------------------------------------------------------------------

    /// The smallest possible budget forces a yield after every frame:
    /// output, statistics and safety must be identical to the blocking
    /// run, with many yields in between.
    #[test]
    fn step_budget_one_is_byte_identical() {
        let query = r#"<r>{ for $bib in /bib return
          ((for $x in $bib/* return if (not(exists($x/price))) then $x else ()),
           for $b in $bib/book return $b/title) }</r>"#;
        let doc = "<bib><book><title>T1</title><author>A1</author></book>\
                   <book><title>T2</title><price>9</price></book>\
                   <cd><label>L</label></cd></bib>";
        let (reference, ref_report) = gcx_output(query, doc);
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let mut out = Vec::new();
        let mut engine = GcxEngine::new(
            &compiled,
            &mut tags,
            doc.as_bytes(),
            &mut out,
            EngineOptions::default(),
        );
        let mut yields = 0u64;
        let report = loop {
            match engine.step(1) {
                StepOutcome::Yielded => yields += 1,
                StepOutcome::Finished(r) => break r,
                other => panic!("unexpected step outcome: {other:?}"),
            }
        };
        drop(engine);
        assert_eq!(String::from_utf8(out).unwrap(), reference);
        assert!(yields > 10, "budget 1 must yield many times, got {yields}");
        assert_eq!(report.safety, Some(true));
        assert_eq!(report.output_bytes, ref_report.output_bytes);
        assert_eq!(report.tokens_read, ref_report.tokens_read);
    }

    /// A reader that returns `WouldBlock` before every (tiny) chunk.
    struct BlockyReader<'a> {
        data: &'a [u8],
        pos: usize,
        turn: bool,
    }

    impl std::io::Read for BlockyReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.turn = !self.turn;
            if self.turn {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(3).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Steps `query` over `doc` behind a [`BlockyReader`]; returns the
    /// output, the report and how often the engine asked for input.
    fn run_blocky(query: &str, doc: &str) -> (String, RunReport, u64) {
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let input = BlockyReader {
            data: doc.as_bytes(),
            pos: 0,
            turn: false,
        };
        let mut out = Vec::new();
        let mut engine = GcxEngine::new(
            &compiled,
            &mut tags,
            input,
            &mut out,
            EngineOptions::default(),
        );
        let mut need_input = 0u64;
        let report = loop {
            match engine.step(4) {
                StepOutcome::Yielded => {}
                StepOutcome::NeedInput => need_input += 1,
                StepOutcome::Finished(r) => break r,
                other => panic!("unexpected step outcome: {other:?}"),
            }
        };
        drop(engine);
        (String::from_utf8(out).unwrap(), report, need_input)
    }

    /// `NeedInput` suspends evaluation wherever it was (mid-construct,
    /// mid-skip, mid-pump) and a retried step resumes it losslessly.
    #[test]
    fn need_input_steps_resume_losslessly() {
        let query = "<r>{ for $b in /bib/book return $b/title }</r>";
        let doc = "<bib><book><title>A</title></book><junk><x/><deep><y/></deep></junk>\
                   <book><title>B</title></book></bib>";
        let (reference, _) = gcx_output(query, doc);
        let (out, report, need_input) = run_blocky(query, doc);
        assert_eq!(out, reference);
        assert!(need_input > 0, "the blocky reader must surface NeedInput");
        assert_eq!(report.safety, Some(true));
    }

    /// A dead subtree far larger than the reader's chunk: the raw skip
    /// blocks hundreds of times mid-subtree and every retried step must
    /// resume *that skip* — the matcher is already inside the subtree —
    /// rather than lex a fresh token.
    #[test]
    fn blocked_raw_skip_resumes_inside_the_dead_subtree() {
        let query = "<r>{ for $b in /bib/book return $b/title }</r>";
        let mut doc = String::from("<bib><book><title>A</title></book><junk>");
        for i in 0..40 {
            doc.push_str(&format!(
                "<item n='{i}>'><!-- > --><![CDATA[</junk>]]><deep><y/>text</deep></item>"
            ));
        }
        doc.push_str("</junk><book><title>B</title></book></bib>");
        let (reference, ref_report) = gcx_output(query, &doc);
        assert!(ref_report.bytes_skipped > 2_000, "junk must be raw-skipped");
        let (out, report, need_input) = run_blocky(query, &doc);
        assert_eq!(out, reference);
        assert_eq!(out, "<r><title>A</title><title>B</title></r>");
        assert!(need_input as usize > doc.len() / 4, "got {need_input}");
        assert_eq!(report.bytes_skipped, ref_report.bytes_skipped);
        assert_eq!(report.tokens_read, ref_report.tokens_read);
        assert_eq!(report.tokens_skipped, ref_report.tokens_skipped);
        assert_eq!(report.safety, Some(true));
    }

    /// A closed output gate parks the engine without running anything;
    /// opening it lets the run complete normally.
    #[test]
    fn output_gate_pauses_stepping() {
        let query = "<r>{ for $b in /bib/book return $b/title }</r>";
        let doc = "<bib><book><title>A</title></book></bib>";
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let mut out = Vec::new();
        let mut engine = GcxEngine::new(
            &compiled,
            &mut tags,
            doc.as_bytes(),
            &mut out,
            EngineOptions::default(),
        );
        let open = Arc::new(AtomicBool::new(false));
        let probe = open.clone();
        engine.set_output_gate(Box::new(move || probe.load(Ordering::Relaxed)));
        for _ in 0..3 {
            assert!(matches!(
                engine.step(1_000),
                StepOutcome::OutputBackpressure
            ));
        }
        open.store(true, Ordering::Relaxed);
        let report = loop {
            match engine.step(1_000) {
                StepOutcome::Yielded => {}
                StepOutcome::Finished(r) => break r,
                other => panic!("unexpected step outcome: {other:?}"),
            }
        };
        drop(engine);
        assert_eq!(String::from_utf8(out).unwrap(), "<r><title>A</title></r>");
        assert_eq!(report.safety, Some(true));
    }

    /// The step machine records yield spans in the flight recorder.
    #[test]
    fn yield_spans_recorded() {
        use gcx_obs::FlightRecorder;
        let query = "<r>{ for $b in /bib/book return $b/title }</r>";
        let doc = "<bib><book><title>A</title></book><book><title>B</title></book></bib>";
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let rec = Arc::new(FlightRecorder::new());
        let mut engine = GcxEngine::new(
            &compiled,
            &mut tags,
            doc.as_bytes(),
            Vec::new(),
            EngineOptions::default(),
        );
        engine.set_flight_recorder(rec.clone(), 77);
        loop {
            match engine.step(2) {
                StepOutcome::Yielded => {}
                StepOutcome::Finished(_) => break,
                other => panic!("unexpected step outcome: {other:?}"),
            }
        }
        rec.keep(77, "steps", 0, false);
        let json = rec.export_chrome_json();
        assert!(json.contains("\"name\":\"yield\""), "{json}");
    }
}
