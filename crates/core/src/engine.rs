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
//! The engine runs the compiled query's flat [`gcx_query::Program`], and a
//! frame names its place in it by ids, not references. A suspended engine
//! therefore borrows nothing: it owns or lends its query and interner
//! through its type parameters ([`GcxEngine`]), so a serving session can
//! own one and move it between threads.
//!
//! **A suspended engine holds no output.** `step` flushes the sink
//! before it returns from any slice that ran, and once right after the
//! output root's open tag, so the slice is the unit of output exchange:
//! a sink may stage what a slice writes and hand it over on `flush`,
//! and everything decided before a suspension point is visible to the
//! consumer at that point — as early as a consumer on another thread
//! could act on it.
//!
//! The same evaluator also powers two baselines (paper §7 comparisons),
//! selected by [`Strategy`]: with [`Strategy::NoGc`] signOffs are ignored
//! (static analysis only), and with [`Strategy::StaticProjection`] the
//! whole projected document is materialized before evaluation
//! (Galax-style projection \[13\]).

use crate::error::EngineError;
use crate::join::{collect_matches, node_matches, still_under, JoinIndexes};
use crate::metrics::{EngineStageMetrics, StageProbe};
use crate::preproject::{Preprojector, PumpEvent};
use crate::value::compare_values;
use gcx_buffer::{BufNodeId, BufferStats, BufferTree};
use gcx_obs::log_debug;
use gcx_projection::{PStep, PTest, Pred, ProjTree, Role};
use gcx_query::{
    Axis, CompiledQuery, Cond, CondId, CondOp, LeafId, Op, OpId, PathId, Program, Step, VarId,
};
use gcx_xml::{TagInterner, XmlLexer, XmlWriter};
use std::borrow::{Borrow, BorrowMut};
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

/// The streaming evaluation strategies of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Incremental projection with active garbage collection: signOff
    /// statements are executed.
    Gcx,
    /// Incremental projection, signOffs ignored: the static-analysis-only
    /// baseline.
    NoGc,
    /// Materialize the full projected document before evaluating
    /// (Galax-style static projection \[13\]); signOffs ignored.
    StaticProjection,
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
///
/// A failed run has no report; what it wrote before the error stays
/// written, and under [`Strategy::Gcx`] may end inside a binding that was
/// being streamed through (see [`run_gcx`]).
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
    /// Lazy-DFA states constructed.
    pub dfa_states: usize,
    /// Input tokens read / skipped by the preprojector. Tokens inside
    /// raw-skipped dead subtrees or consumed by the lexer's search or copy
    /// scan are never materialized (the skipped ones appear in
    /// `bytes_skipped`). Under a chunked reader the scans stop at every
    /// buffer window's end, so `tokens_read` may exceed the one-shot
    /// count; outputs, roles and buffer peaks never differ.
    pub tokens_read: u64,
    pub tokens_skipped: u64,
    /// Input bytes never built into events and discarded: dead subtrees
    /// scanned as raw bytes plus bytes the search scan consumed inside
    /// descendant searches (0 when nothing was dead or searched). Bytes
    /// the copy scan wrote straight to the output are not counted.
    pub bytes_skipped: u64,
    /// Dead children the lexer's child search consumed whole, without an
    /// event (their bytes count in `bytes_skipped`).
    pub children_skipped: u64,
    /// The part of `bytes_skipped` the lexer's raw skip stepped over in
    /// block mode, 64 bytes of tags at a time (gcx-xml's lexer docs,
    /// "Skip mode").
    pub block_skipped: u64,
    /// Condition leaf sites answered with the verdict an earlier site
    /// decided under the same bindings, instead of evaluating again.
    pub verdicts_reused: u64,
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
#[derive(Clone, Copy)]
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
///
/// A frame names its place in the query by ids into the compiled
/// query's [`Program`] ([`OpId`], [`CondId`], [`LeafId`], [`PathId`]), never by
/// reference: a suspended engine borrows nothing from its query, so it
/// can own the query and move between threads.
#[derive(Clone, Copy)]
enum Frame {
    /// Materialize the whole projected document (static-projection
    /// baseline) before evaluation starts.
    Preload,
    /// Read the first input event, then open (and flush) the output
    /// root element.
    Begin,
    /// Close the output root.
    End,
    /// Evaluate an op (dispatches to the frames below).
    Eval(OpId),
    /// Emit a variable binding's subtree once it is finished. `copy` is
    /// the signOff role of a bind-and-emit op ([`Op::VarRef`]) under
    /// [`Strategy::Gcx`]: if the binding has just opened, it is streamed
    /// through instead ([`Frame::CopyThrough`]).
    VarEmit { node: BufNodeId, copy: Option<Role> },
    /// A binding whose open tag is written and whose subtree the
    /// preprojector writes as it arrives ([`Preprojector::start_copy`]):
    /// pump until its close has been written too.
    CopyThrough { node: BufNodeId },
    /// Emit every match of a path step (`$x/π` in output position);
    /// `emit` holds a found-but-not-yet-finished match.
    PathOut {
        cur: Cursor,
        emit: Option<BufNodeId>,
    },
    /// A for-loop between iterations: advance the cursor, bind, and
    /// evaluate the body once per match.
    ForLoop { var: VarId, body: OpId, cur: Cursor },
    /// A key-filtered for-loop (see [`crate::join`]) between iterations:
    /// bind the next candidate in `join.cands[next..]` still under
    /// `base`. `bound` is the pinned binding of the last iteration.
    KeyedLoop {
        var: VarId,
        body: OpId,
        base: BufNodeId,
        next: u32,
        bound: Option<BufNodeId>,
    },
    /// Pick the branch of an `if` op once the condition frames left
    /// their verdict in `cond_reg`.
    IfBranch(OpId),
    /// Evaluate a condition into `cond_reg`.
    Cond(CondId),
    /// Short-circuit `and` (`true`) or `or` (`false`): run the right
    /// side only if `cond_reg` equals the flag.
    CondRight(CondId, bool),
    /// Negate `cond_reg`.
    CondNot,
    /// An exists-check mid-scan.
    CondExists { leaf: LeafId, cur: Cursor },
    /// A comparison condition waiting for its base subtree(s) to finish.
    CondPump(LeafId),
    /// A `signOff($x/π, r)` waiting for the base subtree to finish.
    SignOff {
        base: BufNodeId,
        path: PathId,
        role: Role,
    },
}

/// A condition leaf's last verdict, keyed by the generations of the
/// bindings it read ([`GcxEngine::leaf_gens`]); `[0, 0]`, which no live
/// binding has, before the first.
#[derive(Clone, Copy, Default)]
struct LeafVerdict {
    gens: [u64; 2],
    holds: bool,
}

/// The projection tree inside the compiled query `Q` owns or lends: what
/// the engine hands its matcher, so matcher and evaluator share one query.
struct QueryTree<Q>(Q);

impl<Q: Borrow<CompiledQuery>> Borrow<ProjTree> for QueryTree<Q> {
    fn borrow(&self) -> &ProjTree {
        &self.0.borrow().projection.tree
    }
}

/// The streaming engine. Construct via [`run_gcx`] and friends (module
/// functions below) unless you need custom wiring.
///
/// The engine owns or borrows its inputs through its type parameters:
/// `Q` the compiled query (`&CompiledQuery` in a stack frame,
/// `Arc<CompiledQuery>` in a session that moves between threads), `T`
/// the tag interner (`&mut TagInterner` or `TagInterner`), `R` the input
/// and `W` the output sink.
pub struct GcxEngine<Q, T, R, W>
where
    Q: Borrow<CompiledQuery>,
    T: BorrowMut<TagInterner>,
    R: Read,
    W: Write,
{
    /// The compiled query. Evaluation reads its [`Program`] through this
    /// field alone, a shared borrow kept apart from the mutable state
    /// below.
    query: Q,
    projector: Preprojector<R, T, QueryTree<Q>>,
    buffer: BufferTree,
    writer: XmlWriter<W>,
    bindings: Vec<Option<BufNodeId>>,
    strategy: Strategy,
    tracer: Option<Tracer>,
    cancel: Option<CancelFlag>,
    /// Debug-level logging for this engine's target, hoisted once at
    /// construction — even the logger's filter lookup is too much for a
    /// tight for-loop body.
    debug: bool,
    /// Sampled `emit` timing and the request's flight recorder (emit and
    /// yield spans; the pump stages record in the projector, buffer
    /// events in the buffer).
    probe: StageProbe,
    /// Reusable scratch: nodes matched by a comparison step, a node's
    /// string value, a comparison's left values (concatenated, with end
    /// offsets), and the signOff path frontier/next sets. Taken/restored
    /// around use so the borrow checker allows buffer access in between;
    /// capacities stick.
    cmp_nodes: Vec<BufNodeId>,
    cmp_text: String,
    cmp_left: String,
    cmp_left_ends: Vec<usize>,
    path_frontier: Vec<(BufNodeId, u32)>,
    path_next: Vec<(BufNodeId, u32)>,
    /// Key indexes of the query's filterable join loops.
    join: JoinIndexes,
    /// The explicit evaluation stack (see [`Frame`]): empty once the
    /// run finishes.
    frames: Vec<Frame>,
    /// Condition result register: `Cond*` frames leave their verdict
    /// here for the consuming frame ([`Frame::IfBranch`] etc.).
    cond_reg: bool,
    /// Per variable, the generation of its current binding: a number no
    /// other binding of any variable got.
    bind_gen: Vec<u64>,
    /// The last generation handed out.
    last_gen: u64,
    /// Per condition leaf, its last verdict and the generations of the
    /// bindings it was decided under ([`LeafVerdict`]).
    verdicts: Vec<LeafVerdict>,
    /// Leaf sites answered from `verdicts` (statistics).
    verdicts_reused: u64,
    /// The run finished or failed; further `step` calls are an error.
    complete: bool,
    /// Evaluation wall-clock accumulated across step slices. Time
    /// parked *between* steps belongs to the scheduler, not the query.
    run_elapsed: Duration,
    /// Output readiness probe: when installed and returning `false`,
    /// `step` returns [`StepOutcome::OutputBackpressure`] immediately.
    output_gate: Option<Box<dyn Fn() -> bool + Send>>,
}

impl<Q, T, R, W> GcxEngine<Q, T, R, W>
where
    Q: Borrow<CompiledQuery> + Clone,
    T: BorrowMut<TagInterner>,
    R: Read,
    W: Write,
{
    /// Wires up an engine over an input stream and an output sink.
    pub fn new(query: Q, tags: T, input: R, output: W, strategy: Strategy) -> Self {
        let compiled = query.borrow();
        let mut buffer = BufferTree::new(compiled.roles.len(), &compiled.projection.aggregates);
        let mut bindings = vec![None; compiled.program.vars];
        bindings[VarId::ROOT.index()] = Some(BufferTree::ROOT);
        let mut bind_gen = vec![0; compiled.program.vars];
        bind_gen[VarId::ROOT.index()] = 1;
        let verdicts = vec![LeafVerdict::default(); compiled.program.leaf_count()];
        let mut frames = vec![Frame::End, Frame::Eval(compiled.program.body), Frame::Begin];
        if strategy == Strategy::StaticProjection {
            frames.push(Frame::Preload);
        }
        let lexer = XmlLexer::new(input, tags);
        let projector = Preprojector::new(lexer, QueryTree(query.clone()), &mut buffer);
        let writer = XmlWriter::new(output);
        GcxEngine {
            query,
            projector,
            buffer,
            writer,
            bindings,
            strategy,
            tracer: None,
            cancel: None,
            debug: gcx_obs::log::enabled(gcx_obs::Level::Debug, LOG_TARGET),
            probe: StageProbe::default(),
            cmp_nodes: Vec::new(),
            cmp_text: String::new(),
            cmp_left: String::new(),
            cmp_left_ends: Vec::new(),
            path_frontier: Vec::new(),
            path_next: Vec::new(),
            join: JoinIndexes::default(),
            frames,
            cond_reg: false,
            bind_gen,
            last_gen: 1,
            verdicts,
            verdicts_reused: 0,
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

    /// Installs sampled per-stage timing (see [`crate::metrics`]): one
    /// pump step in 512 is timed into `metrics` stage by stage, plus one
    /// in `EMIT_SAMPLE_EVERY` (16) output subtrees. The histograms are
    /// wait-free, so one shared `Arc` serves every concurrent session of
    /// a server.
    pub fn set_stage_metrics(&mut self, metrics: Arc<EngineStageMetrics>) {
        self.projector.set_stage_metrics(metrics.clone());
        self.probe.metrics = Some(metrics);
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
        self.probe.flight = Some((recorder, trace_id));
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
                if let Some((rec, tid)) = &self.probe.flight {
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
        let (engine, safety) = match self.strategy {
            Strategy::Gcx => ("gcx", Some(self.buffer.all_roles_returned())),
            Strategy::NoGc => ("no-gc-streaming", None),
            Strategy::StaticProjection => ("static-projection", None),
        };
        let role_balance = self
            .query
            .borrow()
            .roles
            .roles()
            .map(|r| self.buffer.role_accounting(r))
            .collect();
        RunReport {
            engine: engine.into(),
            output_bytes: self.writer.bytes_written(),
            stats: self.buffer.stats().clone(),
            elapsed: self.run_elapsed,
            dfa_states: self.projector.dfa_states(),
            tokens_read: self.projector.tokens_read,
            tokens_skipped: self.projector.tokens_skipped,
            bytes_skipped: self.projector.bytes_skipped(),
            children_skipped: self.projector.children_skipped(),
            block_skipped: self.projector.block_skipped(),
            verdicts_reused: self.verdicts_reused,
            safety,
            role_balance,
            scan_kernel: gcx_xml::scan::kernel_name(),
        }
    }

    /// The compiled query's program. Borrows the whole engine: copy an
    /// op out before mutating, or borrow `self.query` field by field.
    fn program(&self) -> &Program {
        &self.query.borrow().program
    }

    // ------------------------------------------------------------------
    // Pumping
    // ------------------------------------------------------------------

    fn pump_step(&mut self) -> Result<PumpEvent, EngineError> {
        self.check_cancelled()?;
        let ev = self.projector.pump(&mut self.buffer, &mut self.writer)?;
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
                    if node_matches(&self.buffer, n, c.step.test) {
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

    /// Pushes `frame` back and ends its execution with `e`: a need-input
    /// error leaves it to resume once more input arrives, and any other
    /// error ends the run, which never steps again.
    fn suspend_err(&mut self, frame: Frame, e: EngineError) -> Result<(), EngineError> {
        self.frames.push(frame);
        Err(e)
    }

    /// [`Self::pump_finish_fuel`] inside the executing `frame`: when the
    /// fuel (`Ok(false)`) or the input (`Err`) runs out first, the frame
    /// is pushed back to resume.
    fn finish_or_park(
        &mut self,
        node: BufNodeId,
        fuel: &mut u32,
        frame: Frame,
    ) -> Result<bool, EngineError> {
        let done = self.pump_finish_fuel(node, fuel);
        if !matches!(done, Ok(true)) {
            self.frames.push(frame);
        }
        done
    }

    /// [`Self::cursor_next_fuel`] inside an executing frame: when the
    /// fuel (`OutOfFuel`) or the input (`Err`) runs out first,
    /// `resume(cur)` is pushed back to continue the scan.
    fn next_or_park(
        &mut self,
        cur: &mut Cursor,
        fuel: &mut u32,
        resume: impl FnOnce(Cursor) -> Frame,
    ) -> Result<CursorStep, EngineError> {
        let step = self.cursor_next_fuel(cur, fuel);
        if !matches!(step, Ok(CursorStep::Found(_) | CursorStep::End)) {
            self.frames.push(resume(*cur));
        }
        step
    }

    /// Executes one frame. Frames that suspend (out of fuel, input ran
    /// dry) push themselves back — with whatever state they mutated —
    /// before returning, so the next `drive` resumes mid-construct.
    fn exec_frame(&mut self, frame: Frame, fuel: &mut u32) -> Result<(), EngineError> {
        match frame {
            Frame::Preload => loop {
                match self.pump_step() {
                    Ok(PumpEvent::Eof) => return Ok(()),
                    Ok(_) => {}
                    Err(e) => return self.suspend_err(frame, e),
                }
                *fuel = fuel.saturating_sub(1);
                if *fuel == 0 {
                    self.frames.push(frame);
                    return Ok(());
                }
            },
            Frame::Begin => {
                // Read the first input event before committing anything:
                // a document malformed at its first token then fails
                // with zero output bytes, and a run still waiting for
                // its first byte has said nothing yet.
                if let Err(e) = self.pump_step() {
                    return self.suspend_err(frame, e);
                }
                let root_tag = self.program().root_tag;
                self.writer.open(root_tag, self.projector.tags())?;
                // Commit the response as evaluation starts: the first
                // slice may run long before it suspends.
                self.writer.flush()?;
                self.trace("output root open");
            }
            Frame::End => {
                let root_tag = self.program().root_tag;
                self.writer.close(root_tag, self.projector.tags())?;
            }
            Frame::Eval(id) => self.eval_frame(id, fuel)?,
            Frame::VarEmit { node, copy } => {
                if let Some(role) = copy {
                    if self.projector.start_copy(node, role) {
                        let tag = self
                            .buffer
                            .tag(node)
                            .expect("a copied binding is an element");
                        self.writer.open(tag, self.projector.tags())?;
                        self.trace("stream binding subtree through");
                        self.frames.push(Frame::CopyThrough { node });
                        return Ok(());
                    }
                }
                let frame = Frame::VarEmit { node, copy: None };
                if self.finish_or_park(node, fuel, frame)? {
                    self.emit(node)?;
                    self.trace("output binding subtree");
                }
            }
            Frame::CopyThrough { node } => {
                self.finish_or_park(node, fuel, frame)?;
            }
            Frame::PathOut { mut cur, emit } => {
                if let Some(n) = emit {
                    if !self.finish_or_park(n, fuel, frame)? {
                        return Ok(());
                    }
                    self.emit(n)?;
                }
                loop {
                    let resume = |cur| Frame::PathOut { cur, emit: None };
                    match self.next_or_park(&mut cur, fuel, resume)? {
                        CursorStep::Found(n) => {
                            let frame = Frame::PathOut { cur, emit: Some(n) };
                            if !self.finish_or_park(n, fuel, frame)? {
                                return Ok(());
                            }
                            self.emit(n)?;
                        }
                        CursorStep::End | CursorStep::OutOfFuel => return Ok(()),
                    }
                }
            }
            Frame::ForLoop { var, body, mut cur } => {
                self.check_cancelled()?;
                let resume = |cur| Frame::ForLoop { var, body, cur };
                match self.next_or_park(&mut cur, fuel, resume)? {
                    CursorStep::Found(n) => {
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
                        self.bind(var, n);
                        self.frames.push(resume(cur));
                        self.frames.push(Frame::Eval(body));
                    }
                    CursorStep::End => {
                        self.bindings[var.index()] = None;
                        let filters = &self.query.borrow().key_filters;
                        self.join.release(var, filters, &mut self.buffer);
                    }
                    CursorStep::OutOfFuel => {}
                }
            }
            Frame::KeyedLoop {
                var,
                body,
                base,
                mut next,
                bound,
            } => {
                self.check_cancelled()?;
                if let Some(n) = bound {
                    self.buffer.unpin(n);
                }
                while let Some(&n) = self.join.cands.get(next as usize) {
                    next += 1;
                    if still_under(&self.buffer, n, base) {
                        self.buffer.pin(n);
                        self.bind(var, n);
                        self.frames.push(Frame::KeyedLoop {
                            var,
                            body,
                            base,
                            next,
                            bound: Some(n),
                        });
                        self.frames.push(Frame::Eval(body));
                        return Ok(());
                    }
                }
                self.bindings[var.index()] = None;
                self.join.leave();
            }
            Frame::IfBranch(id) => {
                let Op::If(_, then_branch, else_branch) = self.program()[id] else {
                    unreachable!("IfBranch names an if op")
                };
                let branch = if self.cond_reg {
                    then_branch
                } else {
                    else_branch
                };
                self.frames.push(Frame::Eval(branch));
            }
            Frame::Cond(c) => self.cond_frame(c),
            Frame::CondRight(b, when) => {
                if self.cond_reg == when {
                    self.frames.push(Frame::Cond(b));
                }
            }
            Frame::CondNot => self.cond_reg = !self.cond_reg,
            Frame::CondExists { leaf, mut cur } => {
                let resume = |cur| Frame::CondExists { leaf, cur };
                match self.next_or_park(&mut cur, fuel, resume)? {
                    CursorStep::Found(_) => {
                        self.cursor_abort(&mut cur);
                        self.decide(leaf, true);
                    }
                    CursorStep::End => self.decide(leaf, false),
                    CursorStep::OutOfFuel => {}
                }
            }
            Frame::CondPump(leaf) => self.exec_cond_pump(leaf, fuel)?,
            Frame::SignOff { base, path, role } => {
                if self.finish_or_park(base, fuel, frame)? {
                    self.signoff_commit(base, path, role)?;
                }
            }
        }
        Ok(())
    }

    /// Writes a finished subtree to the output (a sampled emit stage).
    fn emit(&mut self, node: BufNodeId) -> Result<(), EngineError> {
        let t_emit = self.probe.sample(EMIT_SAMPLE_EVERY).then(Instant::now);
        self.buffer
            .write_subtree(node, self.projector.tags(), &mut self.writer)?;
        self.probe.record(gcx_obs::SpanKind::Emit, t_emit, 0);
        Ok(())
    }

    /// Dispatches one op onto the frame stack. Pure stack manipulation
    /// plus the leaf cases that cannot suspend (writer opens/closes,
    /// building a join index — charged to `fuel`); anything that pumps
    /// gets its own frame.
    fn eval_frame(&mut self, id: OpId, fuel: &mut u32) -> Result<(), EngineError> {
        let op = self.program()[id];
        match op {
            Op::Empty => {}
            Op::OpenTag(t) => self.writer.open(t, self.projector.tags())?,
            Op::CloseTag(t) => self.writer.close(t, self.projector.tags())?,
            Op::Seq { first, len } => {
                let items = (first.0..first.0 + len).rev().map(|i| Frame::Eval(OpId(i)));
                self.frames.extend(items);
            }
            Op::VarRef(v, copy) => {
                let node = self.binding(v);
                // Only active GC signs the binding off at once; the
                // baselines keep buffering it (Table 1's columns).
                let copy = copy.filter(|_| self.strategy == Strategy::Gcx);
                self.frames.push(Frame::VarEmit { node, copy });
            }
            Op::PathOutput(var, step) => {
                let base = self.binding(var);
                self.frames.push(Frame::PathOut {
                    cur: Cursor::new(base, step),
                    emit: None,
                });
            }
            Op::For {
                var,
                source,
                step,
                body,
                filter,
            } => {
                let base = self.binding(source);
                if let Some(id) = filter {
                    let f = &self.query.borrow().key_filters[id as usize];
                    let outer = self.binding(f.outer_var);
                    let entered =
                        self.join
                            .enter(id as usize, f, step, base, outer, &mut self.buffer);
                    if let Some(built) = entered {
                        *fuel = fuel.saturating_sub(u32::try_from(built).unwrap_or(u32::MAX));
                        self.frames.push(Frame::KeyedLoop {
                            var,
                            body,
                            base,
                            next: 0,
                            bound: None,
                        });
                        return Ok(());
                    }
                }
                self.frames.push(Frame::ForLoop {
                    var,
                    body,
                    cur: Cursor::new(base, step),
                });
            }
            Op::If(cond, ..) => {
                self.frames.push(Frame::IfBranch(id));
                self.frames.push(Frame::Cond(cond));
            }
            Op::SignOff(var, path, role) => {
                if self.strategy != Strategy::Gcx {
                    return Ok(());
                }
                let base = self.binding(var);
                match path {
                    None => {
                        self.buffer.sign_off(base, role, 1)?;
                        self.trace("signOff(ε)");
                    }
                    Some(path) => self.frames.push(Frame::SignOff { base, path, role }),
                }
            }
        }
        Ok(())
    }

    /// Binds `var` to `n` under a fresh generation, which retires every
    /// verdict decided under its previous binding.
    fn bind(&mut self, var: VarId, n: BufNodeId) {
        self.bindings[var.index()] = Some(n);
        self.last_gen += 1;
        self.bind_gen[var.index()] = self.last_gen;
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
    fn cond_frame(&mut self, id: CondId) {
        match self.program()[id] {
            CondOp::True => self.cond_reg = true,
            CondOp::Leaf(leaf) => {
                let memo = self.verdicts[leaf.0 as usize];
                if memo.gens == self.leaf_gens(leaf) {
                    self.cond_reg = memo.holds;
                    self.verdicts_reused += 1;
                    return;
                }
                match self.program()[leaf] {
                    Cond::Exists { var, step } => {
                        let base = self.binding(var);
                        self.frames.push(Frame::CondExists {
                            leaf,
                            cur: Cursor::new(base, step),
                        });
                    }
                    _ => self.frames.push(Frame::CondPump(leaf)),
                }
            }
            CondOp::And(a, b) | CondOp::Or(a, b) => {
                let and = matches!(self.program()[id], CondOp::And(..));
                self.frames.push(Frame::CondRight(b, and));
                self.frames.push(Frame::Cond(a));
            }
            CondOp::Not(inner) => {
                self.frames.push(Frame::CondNot);
                self.frames.push(Frame::Cond(inner));
            }
        }
    }

    /// Runs a comparison condition: pump the base subtree(s) finished
    /// (fueled — re-entry is idempotent because a finished base pumps
    /// zero events), then compute the verdict in one non-suspending
    /// commit.
    fn exec_cond_pump(&mut self, leaf: LeafId, fuel: &mut u32) -> Result<(), EngineError> {
        let (lbase, rbase) = match self.program()[leaf] {
            Cond::CmpStr { var, .. } => (self.binding(var), None),
            Cond::CmpVar {
                left_var,
                right_var,
                ..
            } => (self.binding(left_var), Some(self.binding(right_var))),
            _ => unreachable!("CondPump only holds comparison conditions"),
        };
        for base in std::iter::once(lbase).chain(rbase) {
            if !self.finish_or_park(base, fuel, Frame::CondPump(leaf))? {
                return Ok(());
            }
        }
        let holds = match rbase {
            None => self.cmp_str_commit(lbase, leaf),
            Some(rbase) => self.cmp_var_commit(lbase, rbase, leaf),
        };
        self.decide(leaf, holds);
        Ok(())
    }

    /// The generations of the bindings `leaf` reads: its one variable's
    /// (and 0), or a join comparison's two.
    fn leaf_gens(&self, leaf: LeafId) -> [u64; 2] {
        let gen = |v: VarId| self.bind_gen[v.index()];
        match self.program()[leaf] {
            Cond::Exists { var, .. } | Cond::CmpStr { var, .. } => [gen(var), 0],
            Cond::CmpVar {
                left_var,
                right_var,
                ..
            } => [gen(left_var), gen(right_var)],
            _ => unreachable!("a leaf is exists or a comparison"),
        }
    }

    /// Leaves `leaf`'s verdict in `cond_reg` and keeps it for the leaf's
    /// other sites under the same bindings. A verdict is final once
    /// decided: an `exists` that found a witness stays true, and an
    /// `exists` that ran out or a comparison has read finished bases,
    /// which no later input changes.
    fn decide(&mut self, leaf: LeafId, holds: bool) {
        self.cond_reg = holds;
        self.verdicts[leaf.0 as usize] = LeafVerdict {
            gens: self.leaf_gens(leaf),
            holds,
        };
    }

    /// `$x/π op "literal"` over a *finished* base. Hot path (every
    /// binding of a conditioned for-loop runs this): match nodes and
    /// string values go through the engine's reusable scratch, not
    /// fresh allocations.
    fn cmp_str_commit(&mut self, base: BufNodeId, leaf: LeafId) -> bool {
        let Cond::CmpStr {
            step, op, value, ..
        } = &self.query.borrow().program[leaf]
        else {
            unreachable!("a string comparison")
        };
        let (step, op) = (*step, *op);
        let mut matches = std::mem::take(&mut self.cmp_nodes);
        matches.clear();
        collect_matches(&self.buffer, base, step, &mut matches);
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
    /// comparison semantics). Hot path (a join runs it per inner
    /// binding): the left values are concatenated into one scratch string
    /// with end offsets, the right value reuses another.
    fn cmp_var_commit(&mut self, lbase: BufNodeId, rbase: BufNodeId, leaf: LeafId) -> bool {
        let Cond::CmpVar {
            left_step,
            op,
            right_step,
            ..
        } = self.query.borrow().program[leaf]
        else {
            unreachable!("a join comparison")
        };
        let mut nodes = std::mem::take(&mut self.cmp_nodes);
        let mut left = std::mem::take(&mut self.cmp_left);
        let mut ends = std::mem::take(&mut self.cmp_left_ends);
        let mut text = std::mem::take(&mut self.cmp_text);
        nodes.clear();
        left.clear();
        ends.clear();
        collect_matches(&self.buffer, lbase, left_step, &mut nodes);
        for &n in &nodes {
            self.buffer.string_value_into(n, &mut left);
            ends.push(left.len());
        }
        nodes.clear();
        if !ends.is_empty() {
            collect_matches(&self.buffer, rbase, right_step, &mut nodes);
        }
        let found = nodes.iter().any(|&rn| {
            text.clear();
            self.buffer.string_value_into(rn, &mut text);
            let mut start = 0;
            ends.iter().any(|&end| {
                let lv = &left[start..end];
                start = end;
                compare_values(lv, &text, op)
            })
        });
        self.cmp_nodes = nodes;
        self.cmp_left = left;
        self.cmp_left_ends = ends;
        self.cmp_text = text;
        found
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
        path: PathId,
        role: Role,
    ) -> Result<(), EngineError> {
        // Path evaluation runs per signOff per binding: the frontier sets
        // live in engine scratch (taken/restored so the buffer stays
        // accessible), not in per-call vectors.
        let mut frontier = std::mem::take(&mut self.path_frontier);
        let mut next = std::mem::take(&mut self.path_next);
        self.eval_relpath_into(base, &self.program()[path], &mut frontier, &mut next);
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
///
/// On an error the output written so far stays written: the response is
/// committed once the output root opens, after the first input event. A
/// bind-and-emit binding is streamed through as its input arrives, so
/// that output may end inside a copied binding, up to the item before
/// the error.
pub fn run_gcx<R: Read, W: Write>(
    compiled: &CompiledQuery,
    tags: &mut TagInterner,
    input: R,
    output: W,
) -> Result<RunReport, EngineError> {
    GcxEngine::new(compiled, tags, input, output, Strategy::Gcx).run()
}

/// Streaming projection without garbage collection ("static analysis
/// alone"; FluXQuery-class buffering behaviour for buffered data).
pub fn run_no_gc_streaming<R: Read, W: Write>(
    compiled: &CompiledQuery,
    tags: &mut TagInterner,
    input: R,
    output: W,
) -> Result<RunReport, EngineError> {
    GcxEngine::new(compiled, tags, input, output, Strategy::NoGc).run()
}

/// Galax-style static projection \[13\]: materialize the projected document
/// entirely, then evaluate in memory.
pub fn run_static_projection<R: Read, W: Write>(
    compiled: &CompiledQuery,
    tags: &mut TagInterner,
    input: R,
    output: W,
) -> Result<RunReport, EngineError> {
    GcxEngine::new(compiled, tags, input, output, Strategy::StaticProjection).run()
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
            Strategy::Gcx,
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
            Strategy::Gcx,
        );
        engine.set_cancel_flag(CancelFlag::new());
        assert!(engine.run().is_ok());
    }

    /// A document long enough for the 1-in-512 pump sample to land on
    /// every stage: each 7-step repetition holds a buffered `<book>`
    /// and two dead `<junk>` subtrees, and 512 ≡ 1 (mod 7), so
    /// successive samples walk through every position of the pattern.
    /// The junk carries an attribute, which stops the child search below
    /// `bib`: each is lexed as an `Open` and raw-skipped (a `skip` span),
    /// not consumed whole by the scan.
    fn sampled_doc() -> String {
        let rep = "<book><title>A</title></book><junk a='1'><x/></junk><junk a='2'><y/></junk>";
        format!("<bib>{}</bib>", rep.repeat(1000))
    }

    #[test]
    fn stage_metrics_populate_at_the_sampling_interval() {
        // `text()`: a title itself would be streamed through, not emitted.
        let query = "<r>{ for $b in /bib/book return $b/title/text() }</r>";
        let doc = sampled_doc();
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let metrics = Arc::new(crate::metrics::EngineStageMetrics::new());
        let mut engine = GcxEngine::new(
            &compiled,
            &mut tags,
            doc.as_bytes(),
            Vec::new(),
            Strategy::Gcx,
        );
        engine.set_stage_metrics(metrics.clone());
        engine.run().unwrap();
        assert!(
            metrics.lex.count() > 0,
            "sampled pump steps timed the lexer"
        );
        assert!(metrics.matching.count() > 0, "matcher verdicts timed");
        assert!(metrics.buffer.count() > 0, "buffered nodes timed");
        assert!(metrics.skip.count() > 0, "dead <junk> subtrees timed");
        assert!(metrics.emit.count() > 0, "one title text in 16 timed");
    }

    #[test]
    fn flight_recorder_captures_stage_spans_and_buffer_events() {
        use gcx_obs::{FlightRecorder, SpanKind};
        let query = "<r>{ for $b in /bib/book return $b/title }</r>";
        let doc = sampled_doc();
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let rec = Arc::new(FlightRecorder::new());
        let mut engine = GcxEngine::new(
            &compiled,
            &mut tags,
            doc.as_bytes(),
            Vec::new(),
            Strategy::Gcx,
        );
        engine.set_stage_metrics(Arc::new(crate::metrics::EngineStageMetrics::new()));
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
        let doc = sampled_doc();
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
            Strategy::Gcx,
        );
        engine.set_stage_metrics(Arc::new(crate::metrics::EngineStageMetrics::new()));
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
            Strategy::Gcx,
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
            Strategy::Gcx,
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

    /// A reader of tiny chunks that returns `WouldBlock` before every one
    /// (unless `blocks` is off).
    struct BlockyReader<'a> {
        data: &'a [u8],
        pos: usize,
        turn: bool,
        blocks: bool,
        chunk: usize,
    }

    impl std::io::Read for BlockyReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.turn = !self.turn;
            if self.turn && self.blocks {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Steps `query` over `doc` behind a [`BlockyReader`]; returns the
    /// output, the report and how often the engine asked for input.
    fn run_blocky(query: &str, doc: &str) -> (String, RunReport, u64) {
        run_chunked(query, doc, true, 3)
    }

    /// [`run_blocky`] with reads of up to `chunk` bytes, with or without
    /// the `WouldBlock` returns.
    fn run_chunked(query: &str, doc: &str, blocks: bool, chunk: usize) -> (String, RunReport, u64) {
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();
        let input = BlockyReader {
            data: doc.as_bytes(),
            pos: 0,
            turn: false,
            blocks,
            chunk,
        };
        let mut out = Vec::new();
        let mut engine = GcxEngine::new(&compiled, &mut tags, input, &mut out, Strategy::Gcx);
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
    /// rather than lex a fresh token. The skip starts two ways: after the
    /// event path lexed `<junk a='1'>` (an attribute stops the child
    /// search below `bib`; 3-byte reads), and after the child search took
    /// `<junk>` itself and handed its body, cut by the window end, to the
    /// skip (64-byte reads, so the tag fits in the scanned window).
    #[test]
    fn blocked_raw_skip_resumes_inside_the_dead_subtree() {
        let query = "<r>{ for $b in /bib/book return $b/title }</r>";
        for (open, chunk) in [("<junk a='1'>", 3), ("<junk>", 64)] {
            let mut doc = format!("<bib><book><title>A</title></book>{open}");
            for i in 0..40 {
                doc.push_str(&format!(
                    "<item n='{i}>'><!-- > --><![CDATA[</junk>]]><deep><y/>text</deep></item>"
                ));
            }
            doc.push_str("</junk><book><title>B</title></book></bib>");
            let (reference, ref_report) = gcx_output(query, &doc);
            assert!(ref_report.bytes_skipped > 2_000, "junk must be raw-skipped");
            let (out, report, need_input) = run_chunked(query, &doc, true, chunk);
            assert_eq!(out, reference);
            assert_eq!(out, "<r><title>A</title><title>B</title></r>");
            assert!(
                need_input as usize > doc.len() / (chunk + 1),
                "got {need_input}"
            );
            // The handed-over skip counts the bytes the scan left it: the
            // total equals one shot's, where the scan took the junk whole.
            assert_eq!(report.bytes_skipped, ref_report.bytes_skipped);
            assert_eq!(ref_report.children_skipped, u64::from(open == "<junk>"));
            assert_eq!(report.children_skipped, 0, "the junk is cut, not whole");
            // The titles stream through, and the copy scan stops at every
            // window end: token counts are compared with the same small
            // chunks read without `WouldBlock`.
            let (_, chunked, _) = run_chunked(query, &doc, false, chunk);
            assert_eq!(report.tokens_read, chunked.tokens_read);
            assert_eq!(report.tokens_skipped, chunked.tokens_skipped);
            assert_eq!(report.safety, Some(true));
        }
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
            Strategy::Gcx,
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

    /// The output root is committed only after the first input event was
    /// read: a run waiting for its first byte has written nothing, and a
    /// document malformed at its first token fails with zero output
    /// bytes (a server can still answer it with an error status).
    #[test]
    fn begin_reads_the_first_event_before_opening_the_root() {
        struct Dry;
        impl Read for Dry {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::WouldBlock.into())
            }
        }
        let query = "<r>{ for $b in /bib/book return $b/title }</r>";
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).unwrap();

        let mut out = Vec::new();
        let mut run_tags = tags.clone();
        let mut engine = GcxEngine::new(&compiled, &mut run_tags, Dry, &mut out, Strategy::Gcx);
        for _ in 0..3 {
            assert!(matches!(engine.step(4096), StepOutcome::NeedInput));
        }
        drop(engine);
        assert!(out.is_empty(), "no input yet, no output: {out:?}");

        let mut out = Vec::new();
        let mut run_tags = tags.clone();
        let mut engine = GcxEngine::new(
            &compiled,
            &mut run_tags,
            &b"</nope>"[..],
            &mut out,
            Strategy::Gcx,
        );
        assert!(matches!(engine.step(4096), StepOutcome::Err(_)));
        drop(engine);
        assert!(out.is_empty(), "first-token error, no output: {out:?}");

        for (doc, expected) in [
            (
                "<bib><book><title>A</title></book></bib>",
                "<r><title>A</title></r>",
            ),
            ("<other/>", "<r></r>"),
            ("<bib/>", "<r></r>"),
        ] {
            assert_eq!(gcx_output(query, doc).0, expected, "{doc}");
            assert_eq!(run_blocky(query, doc).0, expected, "{doc}");
        }
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
            Strategy::Gcx,
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
