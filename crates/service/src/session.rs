//! Push-based streaming sessions over the resumable GCX step machine.
//!
//! The engine ([`GcxEngine`]) evaluates in bounded **slices**
//! ([`GcxEngine::step`]) and keeps all suspension state in its own
//! struct, so no thread ever waits inside evaluation. A
//! [`StreamSession`] wraps one engine as a schedulable [`PoolTask`].
//! The session owns its engine outright:
//! `GcxEngine<Arc<CompiledQuery>, TagInterner, ChunkReader, SessionWriter>`
//! holds the compiled query by `Arc` (shared with the query cache) and
//! its own interner clone, and its suspended frames are ids into the
//! query's program, so a parked engine is plain data that any scheduler
//! worker can resume. The crate has no `unsafe` code.
//!
//! ```text
//!   caller                                 evaluator (one slice at a time)
//!   ──────                                 ───────────────────────────────
//!   try_feed(chunk) ─► bounded chunk queue ─► ChunkReader::read (WouldBlock when dry)
//!        │ wake     ─► scheduler           ─► GcxEngine::step(budget), owned by the task
//!   drain()         ◄─ shared output buffer ◄─ SessionWriter (one block per slice)
//!   take_outcome()  ◄─ RunReport (BufferStats) once the task retires
//! ```
//!
//! There is one driver, the [`EvaluatorPool`] state machine. The task
//! runs one bounded step per slice, re-enqueues itself while runnable
//! (fairness), and *parks* — leaves the scheduler entirely — when input
//! runs dry ([`StepOutcome::NeedInput`]) or undrained output reaches
//! [`SessionConfig::output_high_water`]
//! ([`StepOutcome::OutputBackpressure`]). `try_feed`, `drain`,
//! `close_input` and `cancel` wake it. With a shared pool
//! ([`SessionConfig::pool`]) the slices run on its M workers, which thus
//! serve any number of open sessions; without one they run on the
//! caller's own thread, inside the call that woke the task. One slice is
//! the exception: `close_input` runs the session's next slice on the
//! closing thread itself unless a worker is already running it, so a
//! request whose input is complete usually finishes where its last byte
//! was fed (see [`StreamSession::close_input`]).
//!
//! The caller-facing protocol has the same shape in both cases:
//!
//! - [`StreamSession::try_feed`] and [`StreamSession::drain`] never
//!   block; an event loop (gcx-net's connection workers) calls them and
//!   sleeps on [`SessionConfig::progress_waker`] in between.
//! - [`StreamSession::feed`] and [`StreamSession::finish`] are the
//!   blocking convenience: a loop over those two that waits on the
//!   session's condvar, and keeps draining while it waits — an
//!   evaluator parked on the output bound needs its consumer to make
//!   room, whether the consumer is waiting for queue space or for the
//!   end of the run.
//!
//! Output is handed back incrementally, as early as the stream permits
//! (the GCX property): the engine flushes its sink whenever a slice
//! ends, and that flush publishes the slice's output to `drain`. Errors
//! are isolated per session: a malformed stream fails this session and
//! surfaces on the next call, nothing else.
//!
//! ## Session state machine
//!
//! `feed* → (drain | feed)* → finish` — or `cancel` at any point.
//! Dropping an unfinished session cancels it implicitly.

use crate::budget::{BudgetWaiter, MemoryBudget};
use crate::metrics::SessionMetrics;
use crate::pool::{EvaluatorPool, PoolTask, Slice, TaskHandle};
use crate::ServiceError;
use gcx_buffer::LiveBufferStats;
use gcx_core::{CancelFlag, EngineStageMetrics, GcxEngine, RunReport, StepOutcome, Strategy};
use gcx_obs::{log_error, log_info};
use gcx_query::CompiledQuery;
use gcx_xml::TagInterner;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Log target for session lifecycle events.
const LOG_TARGET: &str = "gcx_service::session";

/// Default engine step budget per scheduler slice (frame executions; see
/// [`SessionConfig::step_budget`]).
pub const DEFAULT_STEP_BUDGET: u32 = 4096;

/// Maximum bytes of fed-but-unconsumed input queued per session;
/// `try_feed` refuses (and `feed` waits) once the queue is full. A single
/// chunk larger than the bound is admitted alone rather than deadlocking.
const INPUT_QUEUE_BYTES: usize = 256 * 1024;

/// Session tuning knobs. Every session runs the GCX strategy
/// ([`Strategy::Gcx`]).
#[derive(Clone)]
pub struct SessionConfig {
    /// Optional global budget shared with sibling sessions; a chunk that
    /// does not fit right now is refused like one that finds the queue
    /// full, and only a chunk larger than the whole budget fails with
    /// [`ServiceError::BudgetExceeded`]. A refused caller is woken when
    /// budget bytes come back, whichever session returns them.
    pub budget: Option<Arc<MemoryBudget>>,
    /// Charge the engine buffer (nodes + text-arena payload) against
    /// `budget` as *hard* reservations: a document needing more buffer
    /// than the budget allows fails its own session with a clean error
    /// instead of growing without bound. Off by default — the I/O-queue
    /// budget semantics (backpressure, not failure) are unchanged.
    pub charge_engine_buffer: bool,
    /// Optional shared mirror of the session's live buffer footprint,
    /// published by the evaluator after every footprint change so
    /// observability planes (`/stats`) can sample it mid-stream.
    pub live_stats: Option<Arc<LiveBufferStats>>,
    /// The output bound: once this many produced-but-undrained output
    /// bytes are pending, the engine's output gate closes and the
    /// session *parks* at the next step boundary until the caller drains
    /// — backpressure that suspends the engine at the consumer's pace
    /// instead of buffering its result. A slice already running can
    /// overshoot the mark by at most one step budget's worth of output.
    /// A consumer that never drains therefore holds a parked session and
    /// a bounded backlog; whoever owns the consumer decides when to give
    /// up on it (gcx-net: the connection's idle timeout).
    pub output_high_water: usize,
    /// Engine step budget (frame executions) per scheduler slice.
    /// Smaller slices tighten fairness and the output-overshoot bound;
    /// larger slices amortize scheduling overhead. Clamped to ≥ 1.
    pub step_budget: u32,
    /// Run the session's slices on this shared scheduler: the process
    /// thread count stays fixed no matter how many sessions are open,
    /// and evaluation overlaps the caller's own work. `None` runs them
    /// on the caller's thread, inside `try_feed`/`drain`/`close_input`
    /// — no thread is spawned either way.
    pub pool: Option<EvaluatorPool>,
    /// Called from the evaluator side at the transitions a sleeping
    /// caller can act on: input consumed (queue space freed), output
    /// going from empty to non-empty, and the evaluator terminating.
    /// Output appended to a backlog the caller has not taken yet is not
    /// news and raises nothing. Drivers that park backpressured sessions
    /// (gcx-net's connection loop) hang their readiness wakeup here
    /// instead of sleep-polling. Must be cheap and must not call back
    /// into the session.
    pub progress_waker: Option<ProgressWaker>,
    /// Optional shared session lifecycle metrics (queue wait, run time,
    /// total); one instance is typically shared by every session a
    /// server opens. Recording is wait-free — a handful of relaxed
    /// atomic ops per session.
    pub metrics: Option<Arc<SessionMetrics>>,
    /// Optional shared per-stage engine timing, installed into the
    /// session's engine ([`gcx_core::GcxEngine::set_stage_metrics`]).
    /// Sampled once every 512 pump steps.
    pub stage_metrics: Option<Arc<EngineStageMetrics>>,
    /// Human-readable session label (e.g. the query name) used in error
    /// logs — most importantly the evaluator-panic report.
    pub label: Option<String>,
    /// Optional request-scoped flight recorder, installed into the
    /// session's engine ([`gcx_core::GcxEngine::set_flight_recorder`])
    /// together with `trace_id`: stage spans, emit spans, yield spans
    /// and buffer events for this session are recorded under that trace
    /// ID.
    pub flight_recorder: Option<Arc<gcx_obs::FlightRecorder>>,
    /// Trace ID for `flight_recorder` (0 = no trace; spans are dropped).
    pub trace_id: u64,
}

/// Shared wakeup hook for session progress; see
/// [`SessionConfig::progress_waker`].
pub type ProgressWaker = Arc<dyn Fn() + Send + Sync>;

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            budget: None,
            charge_engine_buffer: false,
            live_stats: None,
            output_high_water: 4 * 1024 * 1024,
            step_budget: DEFAULT_STEP_BUDGET,
            pool: None,
            progress_waker: None,
            metrics: None,
            stage_metrics: None,
            label: None,
            flight_recorder: None,
            trace_id: 0,
        }
    }
}

/// Everything a finished session hands back.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Output bytes not handed out by earlier `feed`/`drain` calls.
    pub output: Vec<u8>,
    /// The engine's run report: per-session [`gcx_buffer::BufferStats`],
    /// timing, token counts, role accounting.
    pub report: RunReport,
}

#[derive(Default)]
struct State {
    /// Fed chunks not yet consumed by the evaluator; the front chunk may
    /// be partially consumed (`head_offset` bytes already read).
    input: VecDeque<Vec<u8>>,
    head_offset: usize,
    /// Total unconsumed input bytes (budget-accounted).
    input_bytes: usize,
    /// No more input will arrive (`finish` called).
    closed: bool,
    /// Abort requested.
    cancelled: bool,
    /// The session's first slice has run (as opposed to still sitting in
    /// the scheduler's ready queue). Used for queue-wait metrics and to
    /// attribute cancellations of never-started sessions.
    started: bool,
    /// Engine output not yet handed to the caller (budget-accounted).
    output: Vec<u8>,
    /// Set exactly once when the evaluator ends.
    done: Option<Result<RunReport, String>>,
    /// The shared budget returned bytes since `try_feed` last registered
    /// for that wake-up (see [`BudgetWaiter`]).
    budget_woken: bool,
}

struct Shared {
    state: Mutex<State>,
    /// What a caller blocked in `feed`/`finish`/`cancel` waits on; see
    /// [`Shared::signal`] for when it is raised.
    progress: Condvar,
    /// See [`SessionConfig::output_high_water`].
    output_high_water: usize,
    /// The same signal for callers that sleep elsewhere (see
    /// [`SessionConfig::progress_waker`]).
    progress_waker: Option<ProgressWaker>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A poisoned mutex means an evaluator slice panicked mid-update;
        // the session is already being failed, so keep serving the
        // caller rather than propagating the panic.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Tells a sleeping caller that the state changed in a way it can
    /// act on. Raised by the evaluator side only, at edges: input
    /// consumed, output empty → non-empty, and the task retiring (which
    /// is also how a cancellation completes). Called **after** the
    /// state lock is released — the waker may take its own locks — which
    /// is safe because every waiter re-checks its predicate under the
    /// lock before sleeping.
    fn signal(&self) {
        self.progress.notify_all();
        if let Some(w) = &self.progress_waker {
            w();
        }
    }

    fn set_done(&self, result: Result<RunReport, String>) {
        {
            let mut st = self.lock();
            if st.done.is_none() {
                st.done = Some(result);
            }
        }
        self.signal();
    }

    /// Discards undrained output and queued input (cancellation path;
    /// idempotent). Returns their byte count, for [`give_back`] once the
    /// state lock is released.
    fn reclaim(st: &mut State) -> usize {
        std::mem::take(&mut st.output).len() + StreamSession::take_input(st)
    }
}

/// A budget refusal registered the session: wake whoever waits on it.
/// The state lock is taken so the flag cannot slip in between a
/// `block_until` caller's check and its sleep.
impl BudgetWaiter for Shared {
    fn budget_released(&self) {
        self.lock().budget_woken = true;
        self.signal();
    }
}

/// Returns `n` bytes to the budget. Never called under a session's state
/// lock: a release wakes the sessions the budget refused, and waking one
/// takes its state lock.
fn give_back(budget: &Option<Arc<MemoryBudget>>, n: usize) {
    if let Some(b) = budget {
        b.release(n);
    }
}

/// Best-effort text of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The evaluator-side `Read`: pops fed chunks, **never blocking** — an
/// empty queue surfaces as `WouldBlock`, which the lexer's non-blocking
/// contract turns into [`StepOutcome::NeedInput`] (the session parks
/// until `try_feed`/`close_input` wakes it).
struct ChunkReader {
    shared: Arc<Shared>,
    budget: Option<Arc<MemoryBudget>>,
}

impl Read for ChunkReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut st = self.shared.lock();
        if st.cancelled {
            return Err(io::Error::other("session cancelled"));
        }
        if let Some(chunk) = st.input.front() {
            let chunk_len = chunk.len();
            let avail = &chunk[st.head_offset..];
            let n = avail.len().min(buf.len());
            buf[..n].copy_from_slice(&avail[..n]);
            st.head_offset += n;
            if st.head_offset == chunk_len {
                st.input.pop_front();
                st.head_offset = 0;
            }
            st.input_bytes -= n;
            drop(st);
            give_back(&self.budget, n);
            // Queue space freed: the caller can re-offer its chunk.
            self.shared.signal();
            return Ok(n);
        }
        if st.closed {
            return Ok(0);
        }
        Err(io::ErrorKind::WouldBlock.into())
    }
}

/// The evaluator-side `Write`: stages one **block** of output and
/// publishes it to the shared buffer when the engine flushes.
///
/// The unit of exchange is the scheduler slice. [`GcxEngine::step`]
/// flushes its sink before it returns from every slice (and once after
/// the root's open tag), so publishing on `flush()` makes everything the
/// engine has decided visible to `drain` at each point where the engine
/// can suspend — no consumer on another thread could act on it earlier —
/// while the session mutex, the budget charge and the empty → non-empty
/// edge test run once per slice, not once per tag. A slice that writes
/// more than [`BLOCK_BYTES`] publishes full blocks as it goes, so a
/// single enormous text node (or a large step budget) cannot sit
/// invisible in the staging area.
///
/// The writer never parks: output backpressure is the engine's output
/// *gate* (checked between steps, when nothing is staged), not a
/// blocking write. A publish only fails on cancellation.
struct SessionWriter {
    shared: Arc<Shared>,
    budget: Option<Arc<MemoryBudget>>,
    /// The block being staged; not yet visible to `drain`.
    staged: Vec<u8>,
}

/// Staged output is published without waiting for a flush once it
/// reaches this size — the unit the input direction already moves in
/// (the lexer's read buffer, gcx-net's socket reads).
const BLOCK_BYTES: usize = 64 * 1024;

impl SessionWriter {
    /// Moves the staged block to the shared output buffer (the
    /// high-water mark is enforced by the engine's output gate between
    /// steps, never here).
    fn publish(&mut self) -> io::Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let mut st = self.shared.lock();
        if st.cancelled {
            return Err(io::Error::other("session cancelled"));
        }
        let first = st.output.is_empty();
        st.output.extend_from_slice(&self.staged);
        if let Some(b) = &self.budget {
            // Soft accounting: an engine mid-emit cannot fail cleanly, so
            // output may transiently overshoot until the caller drains.
            b.force_reserve(self.staged.len());
        }
        self.staged.clear();
        drop(st);
        if first {
            // Only the first bytes after a drain are news: a caller that
            // sleeps with output pending has chosen not to take it yet
            // (its own downstream is full), and one that took it will
            // see the next publish as a fresh edge. This also covers the
            // amplifying query — gate closed while the input queue is
            // full — because a caller waiting for queue space drains
            // before it sleeps.
            self.shared.signal();
        }
        Ok(())
    }
}

impl Write for SessionWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.staged.extend_from_slice(buf);
        if self.staged.len() >= BLOCK_BYTES {
            self.publish()?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.publish()
    }
}

/// The session's engine, owning its query (shared with the cache by
/// `Arc`), its interner, its input and its output.
type SessionEngine = GcxEngine<Arc<CompiledQuery>, TagInterner, ChunkReader, SessionWriter>;

/// The schedulable session task: one engine step per slice.
struct EvalTask {
    shared: Arc<Shared>,
    budget: Option<Arc<MemoryBudget>>,
    /// `Some` while the engine is alive; consumed on completion, error,
    /// panic or cancellation.
    /// The scheduler guarantees at most one slice runs at a time, so
    /// this mutex is uncontended — it exists to make the task `Sync`.
    engine: Mutex<Option<SessionEngine>>,
    step_budget: u32,
    metrics: Option<Arc<SessionMetrics>>,
    /// For panic accounting ([`EvaluatorPool::note_panic`]) only.
    pool: EvaluatorPool,
    label: Option<String>,
    flight: Option<Arc<gcx_obs::FlightRecorder>>,
    trace_id: u64,
    created: Instant,
    run_started: Mutex<Option<Instant>>,
}

impl EvalTask {
    /// Records final metrics, logs, publishes the result and (if the
    /// session was cancelled meanwhile) reclaims its accounting. The
    /// engine's last `step` has returned, so its output is already in
    /// `output` (a panicked slice's staged bytes are dropped with it).
    fn finish_with(&self, result: Result<RunReport, String>) {
        if let Some(m) = &self.metrics {
            if let Some(start) = *self.run_started.lock().unwrap_or_else(|p| p.into_inner()) {
                m.run.record(start.elapsed());
            }
            m.total.record(self.created.elapsed());
        }
        if let Err(msg) = &result {
            // Per-client failures (malformed streams, budget trips) are
            // expected under hostile input: info, not warn, so a
            // default-level server stays quiet.
            log_info!(LOG_TARGET, "session failed: {msg}");
        }
        self.shared.set_done(result);
        let mut st = self.shared.lock();
        if st.cancelled {
            // The caller cancelled without waiting (or raced us): the
            // reclamation duty is ours. Idempotent otherwise.
            let n = Shared::reclaim(&mut st);
            drop(st);
            give_back(&self.budget, n);
        }
    }
}

impl PoolTask for EvalTask {
    fn run_slice(&self) -> Slice {
        let mut slot = self.engine.lock().unwrap_or_else(|p| p.into_inner());
        let Some(engine) = slot.as_mut() else {
            return Slice::Done; // already retired
        };
        let mut first = false;
        {
            let mut st = self.shared.lock();
            if st.cancelled {
                let n = Shared::reclaim(&mut st);
                drop(st);
                give_back(&self.budget, n);
                *slot = None;
                self.shared.set_done(Err("session cancelled".to_string()));
                return Slice::Done;
            }
            if !st.started {
                st.started = true;
                first = true;
            }
        }
        if first {
            if let Some(m) = &self.metrics {
                m.queue_wait.record(self.created.elapsed());
            }
            if let Some(rec) = &self.flight {
                // Queue-wait span: session creation → first slice.
                let dur_ns = self.created.elapsed().as_nanos() as u64;
                let start = rec.now_ns().saturating_sub(dur_ns);
                rec.record_span(
                    self.trace_id,
                    gcx_obs::SpanKind::QueueWait,
                    start,
                    dur_ns,
                    0,
                );
            }
            *self.run_started.lock().unwrap_or_else(|p| p.into_inner()) = Some(Instant::now());
        }
        // A panicking engine must fail *this session*, not the scheduler
        // worker carrying it: catch the unwind and convert it into a
        // normal session error (the pool's own catch is only a backstop).
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if first && gcx_faults::fire("eval.panic") {
                panic!("injected evaluator panic (gcx-faults)");
            }
            engine.step(self.step_budget)
        }));
        match outcome {
            Ok(StepOutcome::Yielded) => Slice::Again,
            Ok(StepOutcome::NeedInput | StepOutcome::OutputBackpressure) => Slice::Park,
            Ok(StepOutcome::Finished(report)) => {
                *slot = None;
                self.finish_with(Ok(report));
                Slice::Done
            }
            Ok(StepOutcome::Err(e)) => {
                let msg = e.to_string();
                *slot = None;
                self.finish_with(Err(msg));
                Slice::Done
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref()).to_string();
                *slot = None;
                self.pool.note_panic();
                log_error!(
                    LOG_TARGET,
                    "evaluator panicked (session {}): {msg}",
                    self.label.as_deref().unwrap_or("unlabeled")
                );
                self.finish_with(Err(format!("evaluator panicked: {msg}")));
                Slice::Done
            }
        }
    }
}

/// A push-driven evaluation of one compiled query over one input stream.
/// See the module docs for the control-flow picture.
pub struct StreamSession {
    shared: Arc<Shared>,
    cancel: CancelFlag,
    /// Re-schedules the parked task. Only ever woken (or run, by
    /// `close_input`) **outside** the state lock: without pool workers
    /// the wake runs the task on the calling thread, and the task takes
    /// that lock.
    task: TaskHandle,
    budget: Option<Arc<MemoryBudget>>,
    /// The last `try_feed` refusal came from the budget, not the queue.
    budget_refused: bool,
    /// The session has been finished/cancelled and its resources
    /// reclaimed; `Drop` has nothing left to do.
    terminated: bool,
}

impl StreamSession {
    /// Builds the session task for `compiled` over a fresh chunk queue
    /// and registers it with `config.pool`, or with a worker-less pool
    /// of its own that runs it on the caller's thread. `tags` must be
    /// (a clone of) the interner the query was compiled against —
    /// [`crate::QueryService`] hands out a clone of the cached query's
    /// own; tags the document adds on top stay session-local.
    pub fn new(compiled: Arc<CompiledQuery>, tags: TagInterner, config: SessionConfig) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            progress: Condvar::new(),
            output_high_water: config.output_high_water.max(1),
            progress_waker: config.progress_waker.clone(),
        });
        let cancel = CancelFlag::new();
        let budget = config.budget.clone();
        let reader = ChunkReader {
            shared: shared.clone(),
            budget: budget.clone(),
        };
        let writer = SessionWriter {
            shared: shared.clone(),
            budget: budget.clone(),
            staged: Vec::new(),
        };
        let mut engine = GcxEngine::new(compiled, tags, reader, writer, Strategy::Gcx);
        engine.set_cancel_flag(cancel.clone());
        if let Some(live) = config.live_stats.clone() {
            engine.set_live_stats(live);
        }
        if let Some(sm) = config.stage_metrics.clone() {
            engine.set_stage_metrics(sm);
        }
        if let Some(rec) = config.flight_recorder.clone() {
            engine.set_flight_recorder(rec, config.trace_id);
        }
        if config.charge_engine_buffer {
            if let Some(b) = &budget {
                engine.set_buffer_accounting(b.clone());
            }
        }
        // The output gate implements the high-water backpressure:
        // checked between steps, it parks the session instead of
        // blocking a write. Cancellation opens the gate so the next
        // slice runs straight into the reader/writer cancel error
        // and terminates promptly.
        let gate_shared = shared.clone();
        engine.set_output_gate(Box::new(move || {
            let st = gate_shared.lock();
            st.cancelled || st.output.len() < gate_shared.output_high_water
        }));
        let pool = config.pool.clone().unwrap_or_else(EvaluatorPool::inline);
        let task = pool.spawn_task(Box::new(EvalTask {
            shared: shared.clone(),
            budget: budget.clone(),
            engine: Mutex::new(Some(engine)),
            step_budget: config.step_budget.max(1),
            metrics: config.metrics.clone(),
            pool: pool.clone(),
            label: config.label.clone(),
            flight: config.flight_recorder.clone(),
            trace_id: config.trace_id,
            created: Instant::now(),
            run_started: Mutex::new(None),
        }));
        StreamSession {
            shared,
            cancel,
            task,
            budget,
            budget_refused: false,
            terminated: false,
        }
    }

    /// Admission test for a `len`-byte chunk: there is room — or the
    /// queue is empty (a single oversized chunk must not deadlock).
    fn queue_has_room(st: &State, len: usize) -> bool {
        st.input_bytes == 0 || st.input_bytes + len <= INPUT_QUEUE_BYTES
    }

    /// Offers one input chunk without ever waiting and without touching
    /// the output. `false` means the input queue or the budget is full
    /// and the chunk was **not** admitted: re-offer it after the session
    /// signals progress (a budget refusal registers the session with the
    /// budget, which signals it when bytes come back). A chunk offered
    /// after evaluation completed is discarded (`true`), matching
    /// one-shot semantics — the engine never reads past the data it
    /// needs. Fails with the session's
    /// error if evaluation has failed, and with
    /// [`ServiceError::BudgetExceeded`] for a chunk larger than the
    /// entire budget, which no amount of waiting could admit.
    pub fn try_feed(&mut self, chunk: &[u8]) -> Result<bool, ServiceError> {
        {
            let mut st = self.shared.lock();
            match &st.done {
                Some(Err(msg)) => return Err(ServiceError::Session(msg.clone())),
                Some(Ok(_)) => return Ok(true),
                None => {}
            }
            if chunk.is_empty() {
                return Ok(true);
            }
            if let Some(b) = &self.budget {
                if chunk.len() > b.limit() {
                    return Err(ServiceError::BudgetExceeded {
                        requested: chunk.len(),
                        used: b.used(),
                        limit: b.limit(),
                    });
                }
            }
            // Queue first: a reservation is only taken for a chunk that
            // is then actually queued.
            if !Self::queue_has_room(&st, chunk.len()) {
                self.budget_refused = false;
                return Ok(false);
            }
            if let Some(b) = &self.budget {
                st.budget_woken = false;
                let waiter = Arc::downgrade(&self.shared);
                self.budget_refused = !b.try_reserve_or_wait(chunk.len(), waiter);
                if self.budget_refused {
                    return Ok(false);
                }
            }
            st.input_bytes += chunk.len();
            st.input.push_back(chunk.to_vec());
        }
        self.task.wake();
        Ok(true)
    }

    /// Takes the output produced so far. Never waits.
    pub fn drain(&mut self) -> Vec<u8> {
        let out = std::mem::take(&mut self.shared.lock().output);
        give_back(&self.budget, out.len());
        if !out.is_empty() {
            // The gate may have reopened.
            self.task.wake();
        }
        out
    }

    /// The blocking protocol: retries the non-blocking `ready` until it
    /// holds, draining into `out` and sleeping on the condvar in
    /// between. `room_for` is the queue space `ready` is after (0 when
    /// it only waits for the run to end).
    ///
    /// Draining is part of waiting, not a courtesy: the evaluator may be
    /// parked on the output bound, and then nothing moves until this
    /// caller makes room.
    fn block_until(
        &mut self,
        room_for: usize,
        out: &mut Vec<u8>,
        mut ready: impl FnMut(&mut Self) -> Result<bool, ServiceError>,
    ) -> Result<(), ServiceError> {
        while !ready(self)? {
            out.extend_from_slice(&self.drain());
            // `ready` and `drain` both released the lock (and, without
            // pool workers, ran the evaluator right here), so the state
            // is re-checked under the lock before sleeping: a signal
            // raised in between had no waiter to reach.
            let st = self.shared.lock();
            if st.done.is_some() || !st.output.is_empty() {
                continue;
            }
            // A refusal that is already stale — the queue has room
            // again, or the budget has returned bytes since — is retried
            // at once.
            let stale = if self.budget_refused {
                st.budget_woken
            } else {
                Self::queue_has_room(&st, room_for)
            };
            if room_for > 0 && stale {
                continue;
            }
            drop(self.shared.progress.wait(st));
        }
        Ok(())
    }

    /// Pushes one input chunk and returns every output byte produced so
    /// far. Waits while the input queue or the budget is full
    /// (backpressure), draining output meanwhile. Errors as
    /// [`try_feed`](Self::try_feed) does.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Vec<u8>, ServiceError> {
        let mut out = Vec::new();
        self.block_until(chunk.len(), &mut out, |s| s.try_feed(chunk))?;
        out.extend_from_slice(&self.drain());
        Ok(out)
    }

    /// True once the evaluator has terminated (successfully or not).
    pub fn is_finished(&self) -> bool {
        self.shared.lock().done.is_some()
    }

    /// Signals end of input without waiting for the evaluator (the
    /// non-blocking half of [`finish`](Self::finish)); poll
    /// [`take_outcome`](Self::take_outcome) afterwards. Idempotent.
    ///
    /// Unless a pool worker is running the session right now, the
    /// session's next slice runs here, on the calling thread — one
    /// slice, at most one step budget's worth of work. A small request
    /// usually finishes inside this call, and its outcome is ready
    /// without a crossing to the pool and back; a slice that yields
    /// continues on the pool.
    pub fn close_input(&mut self) {
        self.shared.lock().closed = true;
        self.task.run_here();
    }

    /// Non-blocking completion poll: `None` while the evaluator is still
    /// running; once it has terminated, reclaims the session's queued
    /// bytes and returns the outcome exactly once. After `Some`, the
    /// session is spent — drop it.
    pub fn take_outcome(&mut self) -> Option<Result<SessionOutcome, ServiceError>> {
        let mut st = self.shared.lock();
        st.done.as_ref()?;
        let output = std::mem::take(&mut st.output);
        let input = Self::take_input(&mut st);
        let done = st.done.take().expect("checked above");
        drop(st);
        give_back(&self.budget, output.len() + input);
        self.terminated = true;
        Some(match done {
            Ok(report) => Ok(SessionOutcome { output, report }),
            Err(msg) => Err(ServiceError::Session(msg)),
        })
    }

    /// Signals end of input, waits for the evaluator to complete, and
    /// returns the output not handed out yet together with the run
    /// report (which carries this session's `BufferStats`). The closing
    /// slice runs on the calling thread, as in
    /// [`close_input`](Self::close_input), so a small document completes
    /// without waiting for a pool worker.
    pub fn finish(mut self) -> Result<SessionOutcome, ServiceError> {
        self.close_input();
        let mut output = Vec::new();
        self.block_until(0, &mut output, |s| Ok(s.is_finished()))?;
        let mut outcome = self.take_outcome().expect("finished above")?;
        output.append(&mut outcome.output);
        outcome.output = output;
        Ok(outcome)
    }

    /// Aborts the session: cancels the engine cooperatively, wakes the
    /// task, and reclaims all budgeted bytes.
    pub fn cancel(mut self) {
        self.cancel_inner();
    }

    fn cancel_inner(&mut self) {
        self.cancel.cancel();
        {
            let mut st = self.shared.lock();
            st.cancelled = true;
            st.closed = true;
        }
        // The wait is bounded because slices are: a parked or queued
        // task's next slice observes `cancelled` (the gate opens for it)
        // and retires; without pool workers the wake below runs that
        // slice on this thread.
        self.task.wake();
        let mut st = self.shared.lock();
        while st.done.is_none() {
            st = self
                .shared
                .progress
                .wait(st)
                .unwrap_or_else(|p| p.into_inner());
        }
        // The engine (and its writer) are gone — nothing can charge the
        // budget anymore. Reclaim whatever the task's own cancelled-path
        // reclaim did not cover (idempotent).
        let n = Shared::reclaim(&mut st);
        drop(st);
        give_back(&self.budget, n);
        self.terminated = true;
    }

    /// Discards the queued input, returning its byte count.
    fn take_input(st: &mut State) -> usize {
        st.input.clear();
        st.head_offset = 0;
        std::mem::take(&mut st.input_bytes)
    }
}

impl Drop for StreamSession {
    fn drop(&mut self) {
        if !self.terminated {
            self.cancel_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_query::compile_default;

    fn compile(query: &str) -> (Arc<CompiledQuery>, TagInterner) {
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).expect("compile");
        (Arc::new(compiled), tags)
    }

    const QUERY: &str = "<r>{ for $b in /bib/book return $b/title }</r>";
    const DOC: &str = "<bib><book><title>A</title></book><book><title>B</title></book></bib>";

    #[test]
    fn one_chunk_session_matches_one_shot() {
        let (compiled, tags) = compile(QUERY);
        let mut session = StreamSession::new(compiled, tags, SessionConfig::default());
        let mut out = session.feed(DOC.as_bytes()).unwrap();
        let outcome = session.finish().unwrap();
        out.extend_from_slice(&outcome.output);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "<r><title>A</title><title>B</title></r>"
        );
        assert_eq!(outcome.report.safety, Some(true));
        assert!(outcome.report.stats.peak_nodes > 0);
    }

    #[test]
    fn byte_at_a_time_feeding() {
        let (compiled, tags) = compile(QUERY);
        let mut session = StreamSession::new(compiled, tags, SessionConfig::default());
        let mut out = Vec::new();
        for b in DOC.as_bytes() {
            out.extend_from_slice(&session.feed(std::slice::from_ref(b)).unwrap());
        }
        let outcome = session.finish().unwrap();
        out.extend_from_slice(&outcome.output);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "<r><title>A</title><title>B</title></r>"
        );
    }

    #[test]
    fn output_arrives_incrementally() {
        // After the first book's subtree closes, its title is safely
        // emittable; the session must not sit on it until finish().
        let (compiled, tags) = compile(QUERY);
        let mut session = StreamSession::new(compiled, tags, SessionConfig::default());
        let early = "<bib><book><title>A</title></book>";
        let mut got = session.feed(early.as_bytes()).unwrap();
        // The evaluator runs asynchronously; poll briefly for the bytes.
        for _ in 0..200 {
            if String::from_utf8_lossy(&got).contains("<title>A</title>") {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            got.extend_from_slice(&session.drain());
        }
        assert!(
            String::from_utf8_lossy(&got).contains("<title>A</title>"),
            "first result should be emitted before end of input, got {:?}",
            String::from_utf8_lossy(&got)
        );
        let rest = "<book><title>B</title></book></bib>";
        let mut out = got;
        out.extend_from_slice(&session.feed(rest.as_bytes()).unwrap());
        out.extend_from_slice(&session.finish().unwrap().output);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "<r><title>A</title><title>B</title></r>"
        );
    }

    #[test]
    fn malformed_stream_errors_cleanly() {
        let (compiled, tags) = compile(QUERY);
        let mut session = StreamSession::new(compiled, tags, SessionConfig::default());
        let _ = session.feed(b"<bib><book></bib>").unwrap();
        let err = session.finish().unwrap_err();
        assert!(matches!(err, ServiceError::Session(_)), "got {err}");
    }

    #[test]
    fn error_is_sticky_on_feed() {
        let (compiled, tags) = compile(QUERY);
        let mut session = StreamSession::new(compiled, tags, SessionConfig::default());
        let _ = session.feed(b"</nope>").unwrap();
        // Wait for the evaluator to hit the error.
        for _ in 0..200 {
            if session.is_finished() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(session.feed(b"<more/>").is_err());
    }

    #[test]
    fn cancel_unblocks_and_reclaims_budget() {
        let budget = Arc::new(MemoryBudget::new(1 << 20));
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            budget: Some(budget.clone()),
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let _ = session.feed(b"<bib><book>").unwrap();
        session.cancel();
        assert_eq!(budget.used(), 0, "all bytes returned to the budget");
    }

    #[test]
    fn drop_without_finish_does_not_hang() {
        let (compiled, tags) = compile(QUERY);
        let mut session = StreamSession::new(compiled, tags, SessionConfig::default());
        let _ = session.feed(b"<bib>").unwrap();
        drop(session); // must retire the task, not leak it parked
    }

    #[test]
    fn budget_exceeded_surfaces() {
        let budget = Arc::new(MemoryBudget::new(4));
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            budget: Some(budget.clone()),
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let err = session.feed(b"<bib><book><title>A</title>").unwrap_err();
        assert!(matches!(err, ServiceError::BudgetExceeded { .. }), "{err}");
    }

    #[test]
    fn pooled_sessions_complete_on_a_single_shared_thread() {
        let pool = EvaluatorPool::new(1);
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            pool: Some(pool.clone()),
            ..Default::default()
        };
        // More sessions than pool threads: all must complete correctly,
        // multiplexed over one worker, with no per-session thread.
        let mut sessions: Vec<StreamSession> = (0..3)
            .map(|_| StreamSession::new(compiled.clone(), tags.clone(), config.clone()))
            .collect();
        let mut outputs: Vec<Vec<u8>> = Vec::new();
        for s in &mut sessions {
            outputs.push(s.feed(DOC.as_bytes()).unwrap());
        }
        for (s, mut out) in sessions.into_iter().zip(outputs) {
            out.extend_from_slice(&s.finish().unwrap().output);
            assert_eq!(
                String::from_utf8(out).unwrap(),
                "<r><title>A</title><title>B</title></r>"
            );
        }
        pool.shutdown();
    }

    #[test]
    fn parked_session_does_not_hold_a_worker() {
        // Under the old blocking pool this deadlocked: session A's job
        // occupied the only worker (parked inside evaluation waiting for
        // input) and B's job never ran. With the step scheduler, A
        // *parks* — leaves the worker — and B completes immediately.
        let pool = EvaluatorPool::new(1);
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            pool: Some(pool.clone()),
            ..Default::default()
        };
        let mut a = StreamSession::new(compiled.clone(), tags.clone(), config.clone());
        // A's `<r>` may already be out when this feed drains.
        let mut out_a = a.feed(b"<bib><book>").unwrap();
        let mut b = StreamSession::new(compiled, tags, config);
        let mut out_b = b.feed(DOC.as_bytes()).unwrap();
        out_b.extend_from_slice(&b.finish().unwrap().output);
        assert_eq!(
            String::from_utf8(out_b).unwrap(),
            "<r><title>A</title><title>B</title></r>"
        );
        // A is still healthy and completes too.
        out_a.extend_from_slice(&a.feed(b"<title>A</title></book></bib>").unwrap());
        out_a.extend_from_slice(&a.finish().unwrap().output);
        assert_eq!(String::from_utf8(out_a).unwrap(), "<r><title>A</title></r>");
        pool.shutdown();
    }

    #[test]
    fn try_feed_refuses_when_backpressured_and_recovers() {
        // Identity-ish query: output ≈ input, so an undrained consumer
        // closes the output gate quickly; the engine parks, the input
        // queue fills, and try_feed refuses without blocking.
        let (compiled, tags) = compile("<r>{ for $b in /bib/book return $b }</r>");
        let config = SessionConfig {
            output_high_water: 8 * 1024,
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let mut doc = String::from("<bib>");
        let mut body = String::new();
        for i in 0..12_000 {
            let book = format!("<book><title>Padding title {i}</title></book>");
            body.push_str(&book);
            doc.push_str(&book);
        }
        doc.push_str("</bib>");
        assert!(doc.len() > 2 * INPUT_QUEUE_BYTES, "the queue must fill");
        let expected = format!("<r>{body}</r>");
        // Feed without draining until the session pushes back, then
        // drain and re-offer: with no pool the evaluator runs inside
        // these calls, so a refusal followed by a drain must admit.
        let mut out = Vec::new();
        let mut refusals = 0;
        for chunk in doc.as_bytes().chunks(32) {
            while !session.try_feed(chunk).unwrap() {
                refusals += 1;
                let drained = session.drain();
                assert!(!drained.is_empty(), "refused with nothing to drain");
                out.extend_from_slice(&drained);
            }
        }
        assert!(refusals > 0, "gate closed + full queue must refuse");
        out.extend_from_slice(&session.finish().unwrap().output);
        assert_eq!(String::from_utf8(out).unwrap(), expected);
    }

    #[test]
    fn feed_refused_by_the_budget_wakes_on_release() {
        // Someone else holds the whole budget: `feed` must sleep (no
        // polling) and wake as soon as the bytes come back.
        let budget = Arc::new(MemoryBudget::new(DOC.len()));
        assert!(budget.try_reserve(DOC.len()));
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            budget: Some(budget.clone()),
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let (done, finished) = std::sync::mpsc::channel();
        let feeder = std::thread::spawn(move || {
            let mut out = session.feed(DOC.as_bytes()).unwrap();
            out.extend_from_slice(&session.finish().unwrap().output);
            done.send(()).unwrap();
            out
        });
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(finished.try_recv().is_err(), "feed waits for budget");
        budget.release(DOC.len());
        finished
            .recv_timeout(std::time::Duration::from_secs(2))
            .expect("the release wakes the refused feed");
        assert_eq!(
            String::from_utf8(feeder.join().unwrap()).unwrap(),
            "<r><title>A</title><title>B</title></r>"
        );
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn dropping_parked_pooled_session_does_not_block() {
        let budget = Arc::new(MemoryBudget::new(1 << 20));
        let pool = EvaluatorPool::new(1);
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            pool: Some(pool.clone()),
            budget: Some(budget.clone()),
            ..Default::default()
        };
        // Two mid-stream sessions share the single worker; both are
        // parked on need-input. Dropping B must cancel it promptly (its
        // next slice observes the flag) — never wait on A.
        let mut a = StreamSession::new(compiled.clone(), tags.clone(), config.clone());
        let _ = a.feed(b"<bib><book>").unwrap();
        let mut b = StreamSession::new(compiled, tags, config);
        let _ = b.feed(b"<bib><book><title>x</title>").unwrap();
        let start = std::time::Instant::now();
        drop(b);
        assert!(
            start.elapsed() < std::time::Duration::from_millis(500),
            "dropping a parked session must be prompt"
        );
        // A is unaffected (it still holds budgeted bytes of its own, so
        // the balance check comes after it finishes).
        let _ = a.feed(b"<title>A</title></book></bib>").unwrap();
        a.finish().unwrap();
        pool.shutdown();
        assert_eq!(budget.used(), 0, "all sessions' bytes reclaimed");
    }

    #[test]
    fn live_stats_visible_mid_stream() {
        let live = Arc::new(LiveBufferStats::default());
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            live_stats: Some(live.clone()),
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        // Feed an unfinished document: the session is still running, yet
        // the live mirror must already show buffered nodes.
        let _ = session.feed(b"<bib><book><title>A</title>").unwrap();
        let mut created = 0;
        for _ in 0..500 {
            created = live
                .nodes_created
                .load(std::sync::atomic::Ordering::Relaxed);
            if created > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(created > 0, "mid-stream sampling sees buffered nodes");
        assert!(!session.is_finished(), "stream is still open");
        let _ = session.feed(b"</book></bib>").unwrap();
        let outcome = session.finish().unwrap();
        assert_eq!(
            live.peak_nodes.load(std::sync::atomic::Ordering::Relaxed),
            outcome.report.stats.peak_nodes,
            "final mirror agrees with the run report"
        );
    }

    #[test]
    fn engine_buffer_budget_fails_session_cleanly() {
        // The second loop over /bib/book needs every title again, so GCX
        // must keep them all resident until the first loop is done; with
        // the engine buffer charged against a small budget the document
        // must fail its own session with a clean budget error — not grow
        // unbounded.
        let budget = Arc::new(MemoryBudget::new(4 * 1024));
        let (compiled, tags) = compile(
            "<r>{ (for $b in /bib/book return $b/title, \
                   for $c in /bib/book return $c/title) }</r>",
        );
        let config = SessionConfig {
            budget: Some(budget.clone()),
            charge_engine_buffer: true,
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let mut doc = String::from("<bib>");
        for i in 0..500 {
            doc.push_str(&format!("<book><title>Title number {i}</title></book>"));
        }
        doc.push_str("</bib>");
        let mut failed = None;
        for chunk in doc.as_bytes().chunks(256) {
            match session.feed(chunk) {
                Ok(_) => {}
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        let err = match failed {
            Some(e) => {
                // Queued input stays charged until the session is torn
                // down; reclaim before checking the budget balance.
                drop(session);
                e
            }
            None => session.finish().expect_err("budget must trip"),
        };
        assert!(
            err.to_string().contains("memory budget exceeded"),
            "clean per-session budget error, got: {err}"
        );
        assert_eq!(budget.used(), 0, "I/O reservations reclaimed");
        assert_eq!(budget.engine_used(), 0, "engine reservations reclaimed");
    }

    #[test]
    fn output_gate_parks_never_draining_session_bounded() {
        // A never-draining consumer must *park* the session at the
        // high-water mark — bounded backlog, no creeping growth.
        let budget = Arc::new(MemoryBudget::new(1 << 30));
        let pool = EvaluatorPool::new(1);
        let (compiled, tags) = compile("<r>{ for $b in /bib/book return $b }</r>");
        let config = SessionConfig {
            budget: Some(budget.clone()),
            pool: Some(pool.clone()),
            output_high_water: 16 * 1024,
            step_budget: 64, // small slices: tight overshoot bound
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let mut doc = String::from("<bib>");
        for i in 0..2000 {
            doc.push_str(&format!("<book><title>Padding title {i}</title></book>"));
        }
        doc.push_str("</bib>");
        let _ = session.feed(doc.as_bytes()).expect("admitted alone");
        session.close_input();
        // Let the engine run into the gate and park.
        std::thread::sleep(std::time::Duration::from_millis(300));
        assert!(!session.is_finished(), "parked, not finished");
        let used_then = budget.used();
        assert!(used_then > 0, "undrained output is accounted");
        std::thread::sleep(std::time::Duration::from_millis(300));
        assert_eq!(
            budget.used(),
            used_then,
            "parked session must not keep producing (no timed creep)"
        );
        assert!(!session.is_finished());
        session.cancel();
        assert_eq!(budget.used(), 0, "cancel reclaims the backlog");
        pool.shutdown();
    }

    #[test]
    fn writer_publishes_per_flush_or_full_block_not_per_tag() {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            progress: Condvar::new(),
            output_high_water: 1,
            progress_waker: None,
        });
        let mut writer = SessionWriter {
            shared: shared.clone(),
            budget: None,
            staged: Vec::new(),
        };
        for _ in 0..1000 {
            // The write pattern of `XmlWriter` for `<t>x</t>`.
            for piece in [&b"<"[..], b"t", b">", b"x", b"</", b"t", b">"] {
                writer.write_all(piece).unwrap();
            }
        }
        assert!(
            shared.lock().output.is_empty(),
            "tags alone publish nothing"
        );
        writer.flush().unwrap();
        assert_eq!(shared.lock().output.len(), 1000 * "<t>x</t>".len());
        // One oversized text node must not wait for the slice to end.
        shared.lock().output.clear();
        writer.write_all(&vec![b'x'; 200 * 1024]).unwrap();
        assert_eq!(shared.lock().output.len(), 200 * 1024);
    }

    #[test]
    fn progress_is_signalled_per_slice_not_per_tag() {
        // The worst case for the signalling rule is a consumer that
        // takes the output on every wake-up: each publish then finds the
        // shared buffer empty and is an edge. 1500 titles = 3000 emitted
        // tags, fed as one chunk smaller than a single lexer read, on a
        // pool worker while this thread drains: the waker fires for the
        // input being consumed, for the root tag, for the task retiring,
        // and at most once per slice or full block in between.
        let fired = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (woken, wakeups) = std::sync::mpsc::channel();
        let pool = EvaluatorPool::new(1);
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            pool: Some(pool.clone()),
            progress_waker: Some(Arc::new({
                let fired = fired.clone();
                move || {
                    fired.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    let _ = woken.send(());
                }
            })),
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let doc = format!(
            "<bib>{}</bib>",
            "<book><title>T</title></book>".repeat(1500)
        );
        assert!(session.try_feed(doc.as_bytes()).unwrap());
        session.close_input();
        let mut output = Vec::new();
        let outcome = loop {
            wakeups.recv().expect("waker alive while the session runs");
            output.extend_from_slice(&session.drain());
            if let Some(outcome) = session.take_outcome() {
                break outcome.unwrap();
            }
        };
        output.extend_from_slice(&outcome.output);
        assert_eq!(
            output.len(),
            "<r></r>".len() + 1500 * "<title>T</title>".len()
        );
        let fired = fired.load(std::sync::atomic::Ordering::SeqCst);
        let bound = pool.steps() as usize + output.len() / BLOCK_BYTES + 3;
        assert!(fired <= bound, "{fired} wake-ups for {bound} allowed");
        pool.shutdown();
    }

    #[test]
    fn output_high_water_backpressures_but_draining_consumer_completes() {
        // A consumer that drains (slower than the engine) sees correct,
        // complete output — the high-water mark only paces the engine.
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            output_high_water: 64, // absurdly small: park constantly
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let mut out = Vec::new();
        for chunk in DOC.as_bytes().chunks(16) {
            out.extend_from_slice(&session.feed(chunk).unwrap());
        }
        out.extend_from_slice(&session.finish().unwrap().output);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "<r><title>A</title><title>B</title></r>"
        );
    }

    #[test]
    fn session_metrics_record_lifecycle_and_stages() {
        let metrics = Arc::new(SessionMetrics::new());
        let stage_metrics = Arc::new(EngineStageMetrics::new());
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            metrics: Some(metrics.clone()),
            stage_metrics: Some(stage_metrics.clone()),
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        // Sampling is a pump-step counter, not a clock or a coin: 2000
        // books are ~10 000 pump steps, so one in 512 is timed ~19
        // times, landing on every step kind of the five-token `<book>`
        // period.
        let doc = format!(
            "<bib>{}</bib>",
            "<book><title>T</title></book>".repeat(2000)
        );
        let _ = session.feed(doc.as_bytes()).unwrap();
        session.finish().unwrap();
        assert_eq!(metrics.queue_wait.count(), 1);
        assert_eq!(metrics.run.count(), 1);
        assert_eq!(metrics.total.count(), 1);
        // total covers queue wait + run.
        let total = metrics.total.snapshot();
        let run = metrics.run.snapshot();
        assert!(total.sum_nanos >= run.sum_nanos);
        // The engine timed its stages through the same config.
        assert!(stage_metrics.lex.count() > 0, "lex sampled");
        assert!(stage_metrics.matching.count() > 0, "match sampled");
    }

    #[test]
    fn failed_session_counts_as_failed() {
        let metrics = Arc::new(SessionMetrics::new());
        let (compiled, tags) = compile(QUERY);
        let config = SessionConfig {
            metrics: Some(metrics.clone()),
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let _ = session.feed(b"</nope>").unwrap();
        session.finish().unwrap_err();
        assert_eq!(metrics.run.count(), 1, "failed runs still measured");
    }

    #[test]
    fn oversized_single_chunk_admitted_alone() {
        let (compiled, tags) = compile(QUERY);
        let mut session = StreamSession::new(compiled, tags, SessionConfig::default());
        let books = 10_000;
        let doc = format!(
            "<bib>{}</bib>",
            "<book><title>A</title></book>".repeat(books)
        );
        assert!(
            doc.len() > INPUT_QUEUE_BYTES,
            "one chunk larger than the queue"
        );
        let mut out = session.feed(doc.as_bytes()).unwrap();
        out.extend_from_slice(&session.finish().unwrap().output);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            format!("<r>{}</r>", "<title>A</title>".repeat(books))
        );
    }

    #[test]
    fn closing_slice_runs_on_the_closing_thread() {
        // The pool's only worker is held by a task that never yields, so
        // the session's slices can only run if the thread that closes
        // its input runs the closing slice itself.
        struct Hold(Mutex<std::sync::mpsc::Receiver<()>>);
        impl PoolTask for Hold {
            fn run_slice(&self) -> Slice {
                let _ = self.0.lock().unwrap().recv();
                Slice::Done
            }
        }
        let pool = EvaluatorPool::new(1);
        let (release, held) = std::sync::mpsc::channel();
        let hold = pool.spawn_task(Box::new(Hold(Mutex::new(held))));
        while pool.active() == 0 {
            std::thread::yield_now();
        }
        let (compiled, tags) = compile(QUERY);
        let mut expected = Vec::new();
        gcx_core::run_dom(&compiled, &mut tags.clone(), DOC.as_bytes(), &mut expected).unwrap();
        let config = SessionConfig {
            pool: Some(pool.clone()),
            ..Default::default()
        };
        let mut session = StreamSession::new(compiled, tags, config);
        let mut out = session.feed(DOC.as_bytes()).unwrap();
        let (done, finished) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let _ = done.send(session.finish());
        });
        let outcome = finished.recv_timeout(std::time::Duration::from_secs(2));
        let worker_still_held = !hold.is_done();
        // Free the worker either way, so a failure cannot hang the pool.
        release.send(()).unwrap();
        let outcome = outcome.expect("finish() waited for the busy pool worker");
        assert!(worker_still_held, "finished while the worker was held");
        out.extend_from_slice(&outcome.unwrap().output);
        assert_eq!(out, expected);
        helper.join().unwrap();
        pool.shutdown();
    }
}
