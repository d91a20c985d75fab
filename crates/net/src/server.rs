//! The streaming HTTP front-end: acceptor, epoll-driven connection
//! workers, session registry.
//!
//! ## Thread topology (fixed at bind time)
//!
//! ```text
//!   acceptor ── round-robin ──► N connection workers, each an
//!               (eventfd +      epoll(7) readiness loop over its
//!                inbox)         own set of connections
//!                                    │ try_feed / drain
//!                                    │ (close_input runs the
//!                                    │  closing slice right here)
//!                                    ▼
//!                            M evaluator-pool threads
//!                            (gcx-service EvaluatorPool)
//! ```
//!
//! `1 + N + M` threads total, **independent of how many sessions are
//! open**: connection workers never block on any single socket — sockets
//! are non-blocking and sessions are driven through
//! [`StreamSession::try_feed`], so a backpressured or slow connection
//! simply sleeps in its worker's epoll set while others are served.
//! A worker parks in `epoll_wait` until one of exactly three wake
//! sources fires: socket readiness (edge-triggered epoll events),
//! session progress (evaluators, and budget releases for a session the
//! memory budget refused, signal the worker's eventfd through each
//! session's `progress_waker`), or the nearest idle/keep-alive deadline.
//! There is **no time-based polling** in the connection path — an idle
//! server sits in `epoll_wait` with an infinite timeout and burns no
//! CPU. Evaluators run on the shared [`EvaluatorPool`]; sessions beyond
//! its size queue (their input simply buffers until a pool thread frees
//! up). The one slice a connection worker runs itself is the closing
//! one: once a request body is complete, [`StreamSession::close_input`]
//! runs the session's next slice on the worker unless a pool thread is
//! already running it. A small request thus usually completes inside
//! that call, with no hand-off to the pool and no progress wakeup on its
//! critical path; a slice that yields continues on the pool, so the
//! worker spends at most one step budget per request.
//!
//! ## Endpoints
//!
//! * `POST /query?xq=<urlencoded XQ>` (or `?name=<registered query>`) —
//!   the request body is the XML document, `Content-Length` or chunked;
//!   the response streams the result as a chunked body while the
//!   document is still being uploaded. Constant memory end to end.
//! * `GET /stats` — JSON: every exported number (server, scheduler,
//!   service, budget, tracing, latency) plus **live per-session buffer
//!   statistics** sampled from the engines mid-run.
//! * `GET /metrics` — Prometheus text exposition of the same table.
//! * `GET /trace` — recent kept request traces as Chrome trace-event
//!   JSON (Perfetto-loadable); see [`gcx_obs::FlightRecorder`].
//! * `GET /healthz` — liveness probe.

use crate::epoll::{
    Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::http;
use crate::metrics::{self, NetMetrics, ReqClass};
use gcx_buffer::LiveBufferStats;
use gcx_obs::{log_debug, log_warn, FlightRecorder, SpanKind};
use gcx_service::{EvaluatorPool, QueryService, ServiceConfig, StreamSession};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-worker mailbox: the only cross-thread channel into a connection
/// worker. The acceptor hands fresh connections to `inbox`; evaluator
/// threads report session progress to `progressed` (via each session's
/// `progress_waker`). Both pushes signal `wake`, the eventfd the
/// worker's epoll set watches — so a worker parked in `epoll_wait` wakes
/// immediately, and a busy worker picks the messages up at its next
/// loop turn. eventfd counter semantics coalesce any number of signals
/// into one wakeup.
pub(crate) struct WorkerMailbox {
    /// Wakes the worker out of `epoll_wait` (registered level-triggered
    /// under [`WAKE_TOKEN`], so a pending signal keeps the next wait
    /// from blocking even if it lands mid-loop).
    wake: EventFd,
    /// Freshly accepted connections handed over by the acceptor.
    inbox: Mutex<Vec<(TcpStream, String, OpenGuard)>>,
    /// Tokens of connections whose session made progress (consumed
    /// input, produced output, or terminated).
    progressed: Mutex<Vec<u64>>,
}

impl WorkerMailbox {
    fn new() -> std::io::Result<WorkerMailbox> {
        Ok(WorkerMailbox {
            wake: EventFd::new()?,
            inbox: Mutex::new(Vec::new()),
            progressed: Mutex::new(Vec::new()),
        })
    }

    fn submit(&self, stream: TcpStream, peer: String, open: OpenGuard) {
        self.inbox
            .lock()
            .expect("worker inbox lock")
            .push((stream, peer, open));
        self.wake.signal();
    }

    /// Session-progress wakeup, called from evaluator threads. One
    /// `Vec::push` plus (at most) one `write(2)` on the eventfd — cheap
    /// enough for the evaluator hot path.
    pub(crate) fn note_progress(&self, token: u64) {
        self.progressed
            .lock()
            .expect("worker progressed lock")
            .push(token);
        self.wake.signal();
    }
}

/// Front-end configuration.
pub struct NetConfig {
    /// Connection workers (socket I/O + session driving). Default 4.
    pub workers: usize,
    /// Evaluator-pool threads (concurrent evaluations). Default 8, or
    /// `GCX_EVALUATORS` when set — a test/CI hook (like
    /// `GCX_SCAN_KERNEL`) that constrains the scheduler without
    /// threading a parameter through every test; explicitly set values
    /// are never overridden.
    pub evaluators: usize,
    /// The underlying query service (cache capacity, memory budget).
    pub service: ServiceConfig,
    /// Named queries addressable as `POST /query?name=<name>`.
    pub queries: Vec<(String, String)>,
    /// Connections making no progress for this long *mid-request* are
    /// dropped (slow clients must not pin evaluator threads forever).
    /// Default 30 s.
    pub idle_timeout: Duration,
    /// How long a keep-alive connection may sit idle *between* requests
    /// before the server closes it. Default 15 s.
    pub keep_alive_timeout: Duration,
    /// Requests served over one connection before the server answers
    /// with `Connection: close` (bounds per-connection state lifetime).
    /// Default 1000.
    pub max_requests_per_conn: u64,
    /// Per-session output bound: above this many undrained result bytes
    /// the evaluator parks (backpressure). A client that stops reading
    /// thus costs a parked session and a bounded backlog until the
    /// connection level gives up on it — no progress for `idle_timeout`
    /// with response bytes stuck in the send buffer, counted as
    /// `gcx_sessions_output_capped_total`. Default 1 MiB.
    pub output_high_water: usize,
    /// Admission cap: with this many connections already open, new ones
    /// are answered `503 Service Unavailable` + `Retry-After` straight
    /// from the acceptor instead of queueing behind a saturated server
    /// (counted as `gcx_requests_shed_total`). Default 4096.
    pub max_connections: usize,
    /// Overload deadline for the accept→first-worker-drive queue wait: a
    /// connection that waited longer is shed with a fast `503` +
    /// `Retry-After` rather than served at collapsed latency. Default 2 s.
    pub queue_wait_deadline: Duration,
    /// Head-based trace sampling: every `trace_sample_every`th query
    /// request is kept in the flight recorder (the first always is).
    /// Slow requests are kept regardless (see `slow_request_threshold`).
    /// 0 disables head sampling. Default 64.
    pub trace_sample_every: u64,
    /// Requests slower than this are kept in the flight recorder
    /// retroactively and logged (one structured warn line with trace ID
    /// and per-stage breakdown). `None` disables. Default `None`; the
    /// `gcx serve` binary wires `GCX_SLOW_MS` / `--slow-ms` here.
    pub slow_request_threshold: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 4,
            evaluators: env_evaluators().unwrap_or(8),
            service: ServiceConfig::default(),
            queries: Vec::new(),
            idle_timeout: Duration::from_secs(30),
            keep_alive_timeout: Duration::from_secs(15),
            max_requests_per_conn: 1000,
            output_high_water: 1024 * 1024,
            max_connections: 4096,
            queue_wait_deadline: Duration::from_secs(2),
            trace_sample_every: 64,
            slow_request_threshold: None,
        }
    }
}

/// `GCX_EVALUATORS` override for the *default* evaluator count, so CI
/// can run the whole net suite against a constrained scheduler (e.g.
/// one evaluator thread). Configs that set `evaluators` explicitly are
/// unaffected.
fn env_evaluators() -> Option<usize> {
    std::env::var("GCX_EVALUATORS")
        .ok()?
        .parse()
        .ok()
        .filter(|&n| n > 0)
}

/// Largest unterminated request head accepted before answering `431`.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Socket read size per connection step.
const IO_CHUNK_BYTES: usize = 64 * 1024;

/// Server-level counters (monotonic; `active_sessions` is derived from
/// the registry instead).
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// TCP connections accepted. With keep-alive, `requests` outgrows
    /// this — the whole point of not tearing the world down per request.
    pub connections: AtomicU64,
    pub requests: AtomicU64,
    pub sessions_completed: AtomicU64,
    pub sessions_failed: AtomicU64,
    /// Sessions failed specifically because the client stopped draining:
    /// the connection idled out with response bytes stuck in its send
    /// buffer while the session sat parked on output backpressure.
    pub sessions_output_capped: AtomicU64,
    pub bytes_in: AtomicU64,
    pub bytes_out: AtomicU64,
    /// Sum of `tokens_read + tokens_skipped` over completed sessions.
    pub tokens_read_total: AtomicU64,
    /// Max `peak_nodes` over completed sessions.
    pub peak_nodes_max: AtomicU64,
    /// Sum of `|roles_assigned − roles_removed|` over completed sessions:
    /// the paper's "every assigned role returned", which must stay 0.
    pub role_imbalance: AtomicU64,
    /// Connections answered `503` by overload shedding — the admission
    /// cap (`max_connections`) or the queue-wait deadline.
    pub requests_shed: AtomicU64,
    /// `accept(2)` failures (fd exhaustion, aborted handshakes); the
    /// acceptor backs off exponentially while these persist.
    pub accept_errors: AtomicU64,
    /// `epoll_wait(2)` returns that delivered at least one event, summed
    /// over all connection workers. With no traffic the workers sleep in
    /// `epoll_wait` indefinitely, so this advancing means actual wake
    /// sources fired — it is the witness that the connection path is
    /// event-driven, not polling.
    pub epoll_wakeups: AtomicU64,
}

/// One live session as seen by `/stats`.
pub struct SessionEntry {
    pub query_label: String,
    pub peer: String,
    pub started: Instant,
    pub live: Arc<LiveBufferStats>,
}

pub(crate) struct ServerShared {
    pub(crate) service: QueryService,
    pub(crate) queries: HashMap<String, String>,
    /// One mailbox per connection worker (own `Arc`s so the per-session
    /// waker closures hold no cycle back to `ServerShared`). The
    /// acceptor round-robins new connections across them.
    mailboxes: Vec<Arc<WorkerMailbox>>,
    stop: AtomicBool,
    /// Graceful drain in progress: stop accepting, finish in-flight
    /// requests, answer `Connection: close` at every response boundary.
    /// Distinct from `stop`, which abandons queued connections outright.
    draining: AtomicBool,
    /// Connections currently alive anywhere (queued, driven, parked).
    /// Maintained by [`OpenGuard`] so every disposal path decrements.
    open_conns: Arc<OpenCount>,
    pub(crate) counters: ServerCounters,
    pub(crate) metrics: NetMetrics,
    pub(crate) sessions: Mutex<HashMap<u64, SessionEntry>>,
    next_session_id: AtomicU64,
    pub(crate) pool: EvaluatorPool,
    /// Largest slice offered to `try_feed` at once — [`IO_CHUNK_BYTES`]
    /// clamped to the memory budget, so a single offer can never be
    /// rejected as permanently unfittable.
    feed_chunk_bytes: usize,
    idle_timeout: Duration,
    keep_alive_timeout: Duration,
    max_requests_per_conn: u64,
    output_high_water: usize,
    max_connections: usize,
    queue_wait_deadline: Duration,
    pub(crate) workers: usize,
    pub(crate) evaluators: usize,
    /// The flight recorder every request records into (see `gcx-obs`).
    pub(crate) recorder: Arc<FlightRecorder>,
    /// Server start time (`gcx_process_uptime_seconds`).
    pub(crate) started: Instant,
    /// Trace IDs are minted sequentially from 1 (0 = no trace).
    next_trace_id: AtomicU64,
    /// Query-class requests seen, for the head-sampling keep decision —
    /// counted separately from trace IDs so "keep every Nth *query*" is
    /// deterministic no matter how many `/stats` scrapes interleave.
    queries_seen: AtomicU64,
    pub(crate) trace_sample_every: u64,
    slow_threshold: Option<Duration>,
}

impl ServerShared {
    pub(crate) fn open_connections(&self) -> usize {
        *self.open_conns.count.lock().expect("open count lock")
    }
}

/// The open-connection count, and the condvar a graceful drain waits on
/// for it to reach zero.
#[derive(Default)]
struct OpenCount {
    count: Mutex<usize>,
    none_open: Condvar,
}

/// Holds one slot of `open_conns` for the lifetime of its [`Conn`]; the
/// `Drop` decrement covers every disposal path — clean close, teardown,
/// shed, or a queued connection dropped by shutdown's `q.clear()` — and
/// the one that closes the last connection wakes the drain.
struct OpenGuard(Arc<OpenCount>);

impl OpenGuard {
    fn new(open: Arc<OpenCount>) -> Self {
        *open.count.lock().expect("open count lock") += 1;
        OpenGuard(open)
    }
}

impl Drop for OpenGuard {
    fn drop(&mut self) {
        // Every update leaves the count valid, so a poisoned lock is
        // still usable — and `Drop` must not panic.
        let mut count = self.0.count.lock().unwrap_or_else(PoisonError::into_inner);
        *count -= 1;
        if *count == 0 {
            self.0.none_open.notify_all();
        }
    }
}

/// The running server. Bound threads live until [`GcxServer::shutdown`]
/// (or drop).
pub struct GcxServer {
    shared: Arc<ServerShared>,
    threads: Vec<JoinHandle<()>>,
    addr: SocketAddr,
}

impl GcxServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and spawns
    /// the fixed thread set: one acceptor, `workers` connection workers,
    /// `evaluators` pool threads.
    pub fn bind(addr: impl ToSocketAddrs, config: NetConfig) -> std::io::Result<GcxServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let workers = config.workers.max(1);
        let evaluators = config.evaluators.max(1);
        let feed_chunk_bytes = config
            .service
            .memory_budget
            .map_or(IO_CHUNK_BYTES, |b| IO_CHUNK_BYTES.min(b.max(1)));
        let mut mailboxes = Vec::with_capacity(workers);
        for _ in 0..workers {
            mailboxes.push(Arc::new(WorkerMailbox::new()?));
        }
        let shared = Arc::new(ServerShared {
            service: QueryService::new(config.service),
            queries: config.queries.into_iter().collect(),
            mailboxes,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            open_conns: Arc::default(),
            counters: ServerCounters::default(),
            metrics: NetMetrics::new(),
            sessions: Mutex::new(HashMap::new()),
            next_session_id: AtomicU64::new(1),
            pool: EvaluatorPool::new(evaluators),
            feed_chunk_bytes,
            idle_timeout: config.idle_timeout,
            keep_alive_timeout: config.keep_alive_timeout,
            max_requests_per_conn: config.max_requests_per_conn.max(1),
            output_high_water: config.output_high_water,
            max_connections: config.max_connections.max(1),
            queue_wait_deadline: config.queue_wait_deadline,
            workers,
            evaluators,
            recorder: Arc::new(FlightRecorder::new()),
            started: Instant::now(),
            next_trace_id: AtomicU64::new(1),
            queries_seen: AtomicU64::new(0),
            trace_sample_every: config.trace_sample_every,
            slow_threshold: config.slow_request_threshold,
        });
        let mut threads = Vec::with_capacity(workers + 1);
        {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("gcx-net-accept".into())
                    .spawn(move || accept_loop(&listener, &shared))
                    .expect("spawn acceptor"),
            );
        }
        for i in 0..workers {
            let shared = shared.clone();
            let mailbox = shared.mailboxes[i].clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("gcx-net-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &mailbox))
                    .expect("spawn connection worker"),
            );
        }
        Ok(GcxServer {
            shared,
            threads,
            addr: local,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying service (stats, cache introspection).
    pub fn service(&self) -> &QueryService {
        &self.shared.service
    }

    /// Server counters.
    pub fn counters(&self) -> &ServerCounters {
        &self.shared.counters
    }

    /// Sessions currently registered (mid-stream).
    pub fn active_sessions(&self) -> usize {
        self.shared.sessions.lock().expect("registry lock").len()
    }

    /// Renders the `/stats` JSON document (also served over HTTP).
    pub fn stats_json(&self) -> String {
        metrics::render_stats(&self.shared)
    }

    /// Renders the `/metrics` Prometheus text exposition (also served
    /// over HTTP).
    pub fn metrics_text(&self) -> String {
        metrics::render_metrics(&self.shared)
    }

    /// Blocks the calling thread until the server shuts down (CLI
    /// foreground mode).
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Stops accepting, drops queued connections (cancelling their
    /// sessions), and joins every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Graceful drain: stops accepting immediately, lets in-flight
    /// requests run to completion (keep-alive connections are told
    /// `Connection: close` at their next response boundary, idle ones
    /// are closed at once), and hard-cancels whatever is still open when
    /// `deadline` expires — at which point this degenerates into
    /// [`GcxServer::shutdown`].
    pub fn shutdown_graceful(mut self, deadline: Duration) {
        self.drain_then_stop(deadline);
    }

    /// Connections currently open (queued, driven, or parked).
    pub fn open_connections(&self) -> usize {
        self.shared.open_connections()
    }

    fn drain_then_stop(&mut self, deadline: Duration) {
        if self.threads.is_empty() {
            return;
        }
        self.shared.draining.store(true, Ordering::SeqCst);
        // Unblock the acceptor so it observes the drain and exits, and
        // wake every worker so idle keep-alive connections close now
        // instead of sitting out their keep-alive timeout.
        let _ = TcpStream::connect(self.addr);
        for mb in &self.shared.mailboxes {
            mb.wake.signal();
        }
        let open = &self.shared.open_conns;
        let count = open.count.lock().expect("open count lock");
        let _ = open
            .none_open
            .wait_timeout_while(count, deadline, |count| *count > 0)
            .expect("open count lock");
        // Either drained clean or out of patience: hard-stop the rest.
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a dummy connection and every worker
        // through its wake eventfd.
        let _ = TcpStream::connect(self.addr);
        for mb in &self.shared.mailboxes {
            mb.wake.signal();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Connections (and their sessions) are gone; now the evaluator
        // pool can drain and stop.
        self.shared.pool.shutdown();
    }
}

impl Drop for GcxServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Accept-error backoff bounds: persistent failures (EMFILE under fd
/// exhaustion, ECONNABORTED storms) must not busy-spin a core, but a
/// long fixed sleep would throttle recovery — so exponential between
/// these, reset on the next successful accept.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    let mut backoff = ACCEPT_BACKOFF_MIN;
    // Round-robin handoff target. Connections are pinned to one worker
    // for life (their epoll registration and session waker both point at
    // it), so this is the only balancing decision.
    let mut next_worker = 0usize;
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if shared.stop.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst) {
                    // Returning drops the listener: a draining server
                    // refuses new connections at the socket.
                    return;
                }
                if gcx_faults::fire("net.accept.err") {
                    shared
                        .counters
                        .accept_errors
                        .fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    continue;
                }
                backoff = ACCEPT_BACKOFF_MIN;
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                if shared.open_connections() >= shared.max_connections {
                    shed_overloaded_stream(shared, stream);
                    continue;
                }
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                shared.mailboxes[next_worker].submit(
                    stream,
                    peer.to_string(),
                    OpenGuard::new(shared.open_conns.clone()),
                );
                next_worker = (next_worker + 1) % shared.mailboxes.len();
            }
            Err(e) => {
                if shared.stop.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                if e.kind() == std::io::ErrorKind::Interrupted {
                    // EINTR: a signal landed mid-accept. Not a socket
                    // error — retry without counting or backing off.
                    continue;
                }
                shared
                    .counters
                    .accept_errors
                    .fetch_add(1, Ordering::Relaxed);
                log_debug!(LOG_TARGET, "accept error (backoff {backoff:?}): {e}");
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
            }
        }
    }
}

/// The canned overload answer: `503` + `Retry-After`, `Connection:
/// close`. Kept to one small write so the admission-cap fast path on
/// the acceptor thread answers within milliseconds even when every
/// worker is saturated.
fn overload_response() -> Vec<u8> {
    let body: &[u8] = b"server overloaded, retry later\n";
    let len = body.len().to_string();
    let mut out = http::response_head(
        503,
        "Service Unavailable",
        &[
            ("Content-Type", TEXT_PLAIN),
            ("Retry-After", "1"),
            ("Content-Length", &len),
        ],
        false,
    );
    out.extend_from_slice(body);
    out
}

/// Sheds a connection the admission cap rejected: best-effort fast 503
/// straight from the acceptor thread, then close (drop).
fn shed_overloaded_stream(shared: &Arc<ServerShared>, mut stream: TcpStream) {
    shared
        .counters
        .requests_shed
        .fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nonblocking(false);
    let _ = stream.write_all(&overload_response());
    log_debug!(LOG_TARGET, "connection shed: admission cap reached");
}

/// The `epoll_event` token reserved for the worker's wake eventfd;
/// connection tokens count up from zero and never reach it.
const WAKE_TOKEN: u64 = u64::MAX;

/// Events fetched per `epoll_wait` call.
const EVENT_BATCH: usize = 256;

/// Marks `token` runnable, once (the `queued` flag dedups: a connection
/// can be woken by a socket event and a session bump in the same batch).
fn mark_runnable(runnable: &mut VecDeque<u64>, conns: &mut HashMap<u64, Conn>, token: u64) {
    if let Some(conn) = conns.get_mut(&token) {
        if !conn.queued {
            conn.queued = true;
            runnable.push_back(token);
        }
    }
}

/// Disposes of a finished connection: deregisters the socket and drops
/// the state (which cancels any in-flight session). Stale tokens — a
/// session bump racing the teardown — are ignored.
fn remove_conn(ep: &Epoll, conns: &mut HashMap<u64, Conn>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        ep.del(conn.stream.as_raw_fd());
    }
}

/// One connection worker: an epoll readiness loop over the worker's own
/// set of connections. Each iteration ingests mailbox messages (new
/// connections, session-progress tokens), drives every runnable
/// connection until it blocks or finishes, expires idle deadlines, and
/// then sleeps in `epoll_wait` until the next wake source — socket
/// readiness, the mailbox eventfd, or the nearest deadline. With no
/// connections and nothing pending the timeout is infinite: an idle
/// worker costs zero CPU.
fn worker_loop(shared: &Arc<ServerShared>, mailbox: &Arc<WorkerMailbox>) {
    let ep = match Epoll::new() {
        Ok(ep) => ep,
        Err(e) => {
            log_warn!(LOG_TARGET, "epoll_create1 failed, worker exiting: {e}");
            return;
        }
    };
    if let Err(e) = ep.add(mailbox.wake.raw(), EPOLLIN, WAKE_TOKEN) {
        log_warn!(LOG_TARGET, "epoll wake registration failed: {e}");
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut runnable: VecDeque<u64> = VecDeque::new();
    let mut events = vec![EpollEvent::zeroed(); EVENT_BATCH];
    let mut expired: Vec<u64> = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            // Dropping connections cancels their sessions; the evaluator
            // pool is still alive to observe it.
            return;
        }
        let draining = shared.draining.load(Ordering::SeqCst);

        // Adopt freshly accepted connections: register the socket
        // edge-triggered and give the connection a first drive (its
        // request bytes may already sit in the kernel buffer, and ET
        // never re-announces what it already reported).
        let fresh = std::mem::take(&mut *mailbox.inbox.lock().expect("worker inbox lock"));
        for (stream, peer, open) in fresh {
            let token = next_token;
            next_token += 1;
            if let Err(e) = ep.add(
                stream.as_raw_fd(),
                EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
                token,
            ) {
                log_debug!(LOG_TARGET, "epoll add failed for {peer}: {e}");
                continue; // dropping stream + guard closes the connection
            }
            conns.insert(token, Conn::new(stream, peer, open, token, mailbox.clone()));
            mark_runnable(&mut runnable, &mut conns, token);
        }

        // Session-progress wakeups from evaluator threads.
        let progressed =
            std::mem::take(&mut *mailbox.progressed.lock().expect("worker progressed lock"));
        for token in progressed {
            mark_runnable(&mut runnable, &mut conns, token);
        }

        // Drive every runnable connection as far as it goes. A blocked
        // connection is *not* re-queued — it sleeps until one of its
        // wake sources fires (socket readiness, session progress, or
        // the deadline scan below).
        while let Some(token) = runnable.pop_front() {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            conn.queued = false;
            if !conn.queue_wait_recorded {
                conn.queue_wait_recorded = true;
                let waited = conn.accepted.elapsed();
                shared.metrics.queue_wait.record(waited);
                if waited > shared.queue_wait_deadline {
                    // Saturated past the deadline before the first
                    // drive: shedding this connection fast beats
                    // serving everyone at collapsed latency.
                    conn.shed_overloaded(shared);
                    remove_conn(&ep, &mut conns, token);
                    continue;
                }
            }
            if draining && conn.is_idle_keep_alive() {
                // Draining: close parked keep-alive connections
                // immediately instead of letting them sit out the
                // keep-alive timeout.
                conn.teardown(shared);
                remove_conn(&ep, &mut conns, token);
                continue;
            }
            let mut made_progress = false;
            let finished = loop {
                match conn.step(shared) {
                    StepResult::Progress => made_progress = true,
                    StepResult::Blocked => break false,
                    StepResult::Finished => break true,
                }
            };
            if finished {
                conn.teardown(shared);
                remove_conn(&ep, &mut conns, token);
                continue;
            }
            if made_progress {
                conn.last_progress = Instant::now();
            }
        }

        // Deadline pass: expire idle/keep-alive budgets and find the
        // nearest remaining deadline — which becomes the epoll timeout,
        // so timeouts fire without any polling tick. During a drain,
        // idle keep-alive connections are closed here as well (they are
        // blocked, so the drive loop above never sees them).
        let now = Instant::now();
        let mut next_deadline: Option<Instant> = None;
        for (&token, conn) in &conns {
            if draining && conn.is_idle_keep_alive() {
                expired.push(token);
                continue;
            }
            let deadline = conn.last_progress + conn.idle_budget(shared);
            if deadline <= now {
                expired.push(token);
            } else {
                next_deadline = Some(next_deadline.map_or(deadline, |d: Instant| d.min(deadline)));
            }
        }
        for token in expired.drain(..) {
            if let Some(conn) = conns.get_mut(&token) {
                conn.fail_idle(shared);
                conn.teardown(shared);
                remove_conn(&ep, &mut conns, token);
            }
        }

        let timeout_ms = match next_deadline {
            // No deadlines pending: sleep until an event arrives.
            None => -1,
            Some(d) => {
                let dur = d.saturating_duration_since(now);
                // Round up: a sub-millisecond remainder truncated to 0
                // would spin until the deadline actually passes.
                dur.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
            }
        };
        match ep.wait(&mut events, timeout_ms) {
            Ok(n) => {
                if n > 0 {
                    shared
                        .counters
                        .epoll_wakeups
                        .fetch_add(1, Ordering::Relaxed);
                }
                for ev in &events[..n] {
                    let token = ev.data;
                    let bits = ev.events;
                    if token == WAKE_TOKEN {
                        // Drain *before* the next mailbox read at the
                        // loop top: a signal landing after the drain
                        // leaves the counter nonzero, so the next wait
                        // returns immediately and nothing is lost.
                        mailbox.wake.drain();
                        continue;
                    }
                    // ERR/HUP are folded into both directions: the next
                    // read/write surfaces the actual error or EOF.
                    if bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
                        if let Some(conn) = conns.get_mut(&token) {
                            conn.sock_readable = true;
                        }
                    }
                    if bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0 {
                        if let Some(conn) = conns.get_mut(&token) {
                            conn.sock_writable = true;
                        }
                    }
                    mark_runnable(&mut runnable, &mut conns, token);
                }
            }
            Err(e) => {
                // Defensive: nothing recoverable lives here (EBADF,
                // EFAULT would be bugs), but a hot error loop would be
                // worse than a degraded one.
                log_warn!(LOG_TARGET, "epoll_wait failed: {e}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

enum StepResult {
    /// State advanced (bytes moved, session fed, response emitted …).
    Progress,
    /// Nothing can move right now (socket or session would block).
    Blocked,
    /// The connection is done (cleanly or not) and must be torn down.
    Finished,
}

enum ConnState {
    /// Accumulating (or parsing buffered pipelined bytes of) the next
    /// request head.
    Head,
    /// Streaming a request body through a session.
    Body(Box<BodyState>),
    /// Discarding the remainder of a framed request body after an early
    /// error response, so the connection stays reusable.
    Drain(Box<DrainState>),
    /// Writing out the remaining `send` buffer, then looping back to
    /// `Head` (keep-alive) or closing.
    Flush {
        close: bool,
    },
    Closed,
}

enum BodyFraming {
    /// `Content-Length`: remaining body bytes.
    Length(u64),
    /// `Transfer-Encoding: chunked`.
    Chunked(http::ChunkedDecoder),
    /// No framing given: body runs until EOF (HTTP/1.0 style). The
    /// connection cannot be reused afterwards.
    Eof,
}

impl BodyFraming {
    /// Decodes raw socket bytes per this framing, appending body payload
    /// to `out`; returns the number of `recv` bytes consumed. The single
    /// copy of the framing state machine, shared by the feed path
    /// (`step_body`) and the discard path (`step_drain`).
    fn decode_into(&mut self, recv: &[u8], out: &mut Vec<u8>) -> Result<usize, String> {
        match self {
            BodyFraming::Length(remaining) => {
                let take = (*remaining).min(recv.len() as u64) as usize;
                out.extend_from_slice(&recv[..take]);
                *remaining -= take as u64;
                Ok(take)
            }
            BodyFraming::Chunked(dec) => dec.decode(recv, out),
            BodyFraming::Eof => {
                out.extend_from_slice(recv);
                Ok(recv.len())
            }
        }
    }

    fn complete(&self) -> bool {
        match self {
            BodyFraming::Length(n) => *n == 0,
            BodyFraming::Chunked(d) => d.is_done(),
            BodyFraming::Eof => false, // completion signalled by EOF
        }
    }
}

struct BodyState {
    session: StreamSession,
    session_id: u64,
    framing: BodyFraming,
    /// Response head already sent. It goes out lazily, with the first
    /// output byte, so pre-output failures can still return a clean 4xx.
    sent_head: bool,
    /// Decoded body bytes not yet accepted by `try_feed`.
    pending: Vec<u8>,
    pending_pos: usize,
    /// All input fed and `close_input` called.
    input_closed: bool,
    /// Output held back while a clean 4xx is still possible: the upload
    /// is complete (the verdict is at most one evaluation away) and the
    /// head is unsent, so a session that fails now gets a 4xx instead of
    /// a truncated 200. Never more than [`SEND_HIGH_WATER`]: past that —
    /// or once the head is out, which mid-upload output forces at once —
    /// the response is committed and streams, and the session's output
    /// gate and the socket do the bounding.
    held: Vec<u8>,
    /// Socket saw EOF.
    saw_eof: bool,
    /// Reuse the connection for another request after this response.
    keep: bool,
    /// Frame the response body chunked (HTTP/1.1). HTTP/1.0 clients get
    /// a close-delimited body instead, and `keep` is forced off.
    chunked_response: bool,
}

/// Discard-the-body state after an early error response (bad query name,
/// missing parameters, …): the request's remaining body bytes must be
/// consumed before the next head can be parsed off the same socket.
struct DrainState {
    framing: BodyFraming,
    /// Bytes discarded so far; bounded by [`DRAIN_MAX_BYTES`].
    drained: u64,
    saw_eof: bool,
    /// Reusable decode sink (cleared per step; the payload is discarded).
    sink: Vec<u8>,
}

/// Upper bound on request-body bytes discarded to keep a connection
/// alive after an early error; a larger remainder closes instead (the
/// teardown is cheaper than sinking megabytes).
const DRAIN_MAX_BYTES: u64 = 256 * 1024;

/// Content type of plain-text (error/health) responses.
const TEXT_PLAIN: &str = "text/plain; charset=utf-8";

/// Log target for server events (`GCX_LOG=gcx_net=debug`).
const LOG_TARGET: &str = module_path!();

/// Whether a body with this framing is worth discarding to keep the
/// connection: bounded `Content-Length` or chunked (capped while
/// draining); EOF-framed bodies only end with the connection.
fn drainable(framing: &BodyFraming) -> bool {
    match framing {
        BodyFraming::Length(n) => *n <= DRAIN_MAX_BYTES,
        BodyFraming::Chunked(_) => true,
        BodyFraming::Eof => false,
    }
}

struct Conn {
    stream: TcpStream,
    peer: String,
    recv: Vec<u8>,
    send: Vec<u8>,
    send_pos: usize,
    /// Reusable socket-read scratch (sized lazily to `IO_CHUNK_BYTES`).
    scratch: Vec<u8>,
    state: ConnState,
    last_progress: Instant,
    /// Requests answered on this connection so far.
    requests_served: u64,
    /// When the acceptor queued this connection; the accept→first-drive
    /// delta is the connection's queue wait.
    accepted: Instant,
    /// Queue wait already recorded (first worker drive happened).
    queue_wait_recorded: bool,
    /// When the in-flight request's head was parsed; taken when the
    /// response is fully flushed (total latency) — requests that die
    /// mid-flight (teardown, timeouts) are not recorded.
    req_start: Option<Instant>,
    /// Endpoint class of the in-flight request.
    req_class: ReqClass,
    /// First response byte not yet on the wire (TTFB pending).
    ttfb_pending: bool,
    /// Trace ID of the in-flight request (minted at head parse; 0 when
    /// no request is in flight).
    trace_id: u64,
    /// Head-sampling verdict: keep this request's trace at completion.
    trace_keep: bool,
    /// Label for the kept trace (query name / preview, else the path).
    req_label: Option<String>,
    /// The worker-local epoll token — also the routing key the session's
    /// `progress_waker` pushes into the worker mailbox.
    token: u64,
    /// The owning worker's mailbox (session-progress wakeups land here).
    mailbox: Arc<WorkerMailbox>,
    /// Cached socket readability. Edge-triggered epoll reports
    /// *transitions*, so the last known state lives here: set by events
    /// (and optimistically at accept), cleared only when a read actually
    /// returns `WouldBlock`. While clear, `read_some` short-circuits —
    /// the syscall could only confirm what the flag already says.
    sock_readable: bool,
    /// Cached socket writability; same discipline as `sock_readable`.
    sock_writable: bool,
    /// Already on the worker's runnable queue (dedup flag).
    queued: bool,
    /// Slot in the server's `open_conns` count (released on drop).
    _open: OpenGuard,
}

/// Above this much un-flushed response data, stop pulling more output
/// from the session: the socket's backpressure propagates to the engine
/// by letting output sit in the session's buffer.
const SEND_HIGH_WATER: usize = 256 * 1024;

/// Above this much decoded-but-unfed body data, stop reading the socket:
/// a client uploading faster than its session evaluates must not make
/// the server buffer the document.
const RECV_HIGH_WATER: usize = 256 * 1024;

impl Conn {
    fn new(
        stream: TcpStream,
        peer: String,
        open: OpenGuard,
        token: u64,
        mailbox: Arc<WorkerMailbox>,
    ) -> Self {
        Conn {
            stream,
            peer,
            _open: open,
            recv: Vec::new(),
            send: Vec::new(),
            send_pos: 0,
            scratch: Vec::new(),
            state: ConnState::Head,
            last_progress: Instant::now(),
            requests_served: 0,
            accepted: Instant::now(),
            queue_wait_recorded: false,
            req_start: None,
            req_class: ReqClass::Other,
            ttfb_pending: false,
            trace_id: 0,
            trace_keep: false,
            req_label: None,
            token,
            mailbox,
            // Optimistic: a fresh socket is writable, and its first
            // request bytes may predate the epoll registration. The
            // first `WouldBlock` corrects the flags; from then on epoll
            // maintains them.
            sock_readable: true,
            sock_writable: true,
            queued: false,
        }
    }

    /// A keep-alive connection parked between requests with nothing
    /// buffered in either direction — safe to close during a drain.
    fn is_idle_keep_alive(&self) -> bool {
        self.requests_served > 0
            && self.recv.is_empty()
            && self.send_pos >= self.send.len()
            && matches!(self.state, ConnState::Head)
    }

    /// Sheds this connection (queue-wait deadline exceeded): a fast 503
    /// + `Retry-After`, best-effort flushed, then close.
    fn shed_overloaded(&mut self, shared: &Arc<ServerShared>) {
        shared
            .counters
            .requests_shed
            .fetch_add(1, Ordering::Relaxed);
        self.send.extend_from_slice(&overload_response());
        if self.send_pos < self.send.len() {
            let _ = self.stream.write_all(&self.send[self.send_pos..]);
        }
        self.teardown(shared);
    }

    /// The no-progress budget for the connection's current state: a
    /// keep-alive connection parked *between* requests gets the (shorter)
    /// keep-alive timeout; anything mid-request gets the idle timeout.
    fn idle_budget(&self, shared: &Arc<ServerShared>) -> Duration {
        match &self.state {
            ConnState::Head if self.recv.is_empty() && self.requests_served > 0 => {
                shared.keep_alive_timeout
            }
            _ => shared.idle_timeout,
        }
    }

    /// One non-blocking step of the connection state machine.
    fn step(&mut self, shared: &Arc<ServerShared>) -> StepResult {
        match self.state {
            ConnState::Closed => StepResult::Finished,
            ConnState::Flush { close } => match self.write_some(shared) {
                WriteOutcome::Progress => {
                    if self.send_pos >= self.send.len() {
                        return self.finish_response(shared, close);
                    }
                    StepResult::Progress
                }
                WriteOutcome::Idle => self.finish_response(shared, close),
                WriteOutcome::WouldBlock => StepResult::Blocked,
                WriteOutcome::Gone => StepResult::Finished,
            },
            ConnState::Head => self.step_head(shared),
            ConnState::Body(_) => self.step_body(shared),
            ConnState::Drain(_) => self.step_drain(shared),
        }
    }

    /// The response is fully on the wire: close, or loop back to parse
    /// the next request (whose bytes may already sit in `recv` —
    /// pipelined requests must not be dropped with the response).
    fn finish_response(&mut self, shared: &Arc<ServerShared>, close: bool) -> StepResult {
        if let Some(t0) = self.req_start.take() {
            let elapsed = t0.elapsed();
            shared.metrics.request_class(self.req_class).record(elapsed);
            if self.trace_id != 0 {
                self.finish_trace(shared, elapsed);
            }
        }
        self.trace_id = 0;
        self.ttfb_pending = false;
        // A drain that began mid-response still ends the connection at
        // this boundary, even if the response itself negotiated
        // keep-alive before the drain started.
        if close || shared.draining.load(Ordering::SeqCst) {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
            self.state = ConnState::Closed;
            return StepResult::Finished;
        }
        self.state = ConnState::Head;
        StepResult::Progress
    }

    /// Completes the in-flight request's trace: flush instant, the
    /// whole-request span, the keep decision (head-sampled or slow), and
    /// the slow-request log line with its per-stage breakdown.
    fn finish_trace(&mut self, shared: &Arc<ServerShared>, elapsed: Duration) {
        let rec = &shared.recorder;
        rec.record_instant(self.trace_id, SpanKind::Flush, 0, 0);
        let dur_ns = elapsed.as_nanos() as u64;
        let start = rec.now_ns().saturating_sub(dur_ns);
        rec.record_span(self.trace_id, SpanKind::Request, start, dur_ns, 0);
        let slow = shared.slow_threshold.is_some_and(|t| elapsed >= t);
        if self.trace_keep || slow {
            let label = self.req_label.as_deref().unwrap_or("");
            rec.keep(self.trace_id, label, dur_ns, slow);
        }
        if slow {
            // One structured warn line: trace ID + per-stage breakdown
            // (total recorded nanoseconds per stage, scanned from the
            // rings — diagnostics-path cost, never the hot path).
            let totals = rec.stage_totals(self.trace_id);
            let mut stages = String::new();
            for (kind, ns) in totals {
                if kind == SpanKind::Request || ns == 0 {
                    continue;
                }
                let _ = std::fmt::Write::write_fmt(
                    &mut stages,
                    format_args!(" {}_us={}", kind.name(), ns / 1000),
                );
            }
            log_warn!(
                LOG_TARGET,
                "slow request: trace_id={} label={:?} class={:?} total_ms={}{}",
                self.trace_id,
                self.req_label.as_deref().unwrap_or(""),
                self.req_class,
                elapsed.as_millis(),
                stages
            );
        }
    }

    fn step_head(&mut self, shared: &Arc<ServerShared>) -> StepResult {
        // Parse before reading: a pipelined request (or one that arrived
        // in the same segment as its predecessor) is already buffered,
        // and reading first would block on an empty socket despite a
        // complete head sitting in `recv`.
        if let Some(head_end) = http::find_head_end(&self.recv) {
            shared.counters.requests.fetch_add(1, Ordering::Relaxed);
            self.requests_served += 1;
            // Request clock starts at head parse; `dispatch` refines the
            // class, `finish_response` stops the clock.
            self.req_start = Some(Instant::now());
            self.req_class = ReqClass::Other;
            self.ttfb_pending = true;
            // Every request gets a trace ID; whether the trace is *kept*
            // (exported by /trace) is decided at completion — head
            // sampling for queries, retroactive keep for slow requests.
            self.trace_id = shared.next_trace_id.fetch_add(1, Ordering::Relaxed);
            self.trace_keep = false;
            self.req_label = None;
            shared
                .recorder
                .record_instant(self.trace_id, SpanKind::HeadParse, 0, 0);
            let head = match http::parse_head(&self.recv[..head_end]) {
                Ok(h) => h,
                Err(e) => {
                    // Framing is untrustworthy after a malformed head;
                    // answer and close.
                    self.respond_simple(
                        400,
                        "Bad Request",
                        &format!("malformed request: {e}\n"),
                        false,
                    );
                    return StepResult::Progress;
                }
            };
            self.recv.drain(..head_end);
            self.dispatch(shared, &head);
            return StepResult::Progress;
        }
        match self.read_some(shared) {
            ReadOutcome::Data => {}
            ReadOutcome::WouldBlock => return StepResult::Blocked,
            ReadOutcome::Eof | ReadOutcome::Gone => return StepResult::Finished,
        }
        if http::find_head_end(&self.recv).is_none() && self.recv.len() > MAX_HEAD_BYTES {
            // Body bytes may already be piling in behind a complete head;
            // only an actually-unterminated head this large is an error.
            self.respond_simple(
                431,
                "Request Header Fields Too Large",
                "head too large\n",
                false,
            );
        }
        StepResult::Progress // parse (or keep reading) on the next step
    }

    /// Whether the connection may serve another request after this one.
    /// A draining server answers `Connection: close` at every response
    /// boundary so keep-alive clients let go promptly.
    fn negotiate_keep_alive(&self, shared: &Arc<ServerShared>, head: &http::RequestHead) -> bool {
        head.wants_keep_alive()
            && self.requests_served < shared.max_requests_per_conn
            && !shared.draining.load(Ordering::SeqCst)
    }

    fn dispatch(&mut self, shared: &Arc<ServerShared>, head: &http::RequestHead) {
        // One classification point for the latency histograms: derived
        // from the same (method, path) pair the routing below matches on.
        self.req_class = metrics::classify(&head.method, &head.path);
        self.req_label = Some(head.path.clone());
        let framing = match Self::body_framing(head) {
            Ok(f) => f,
            Err(e) => {
                // The body's extent is unknowable or ambiguous, so the
                // next request's start is too: answer and close.
                self.respond_simple(400, "Bad Request", &format!("{e}\n"), false);
                return;
            }
        };
        let ok = (200, "OK");
        let (status, content_type, body) = match (head.method.as_str(), head.path.as_str()) {
            ("GET", "/healthz") => (ok, TEXT_PLAIN, "ok\n".to_string()),
            ("GET", "/stats") => (ok, "application/json", metrics::render_stats(shared)),
            ("GET", "/metrics") => (
                ok,
                "text/plain; version=0.0.4; charset=utf-8",
                metrics::render_metrics(shared),
            ),
            ("GET", "/trace") => (ok, "application/json", shared.recorder.export_chrome_json()),
            ("POST", "/query") => return self.dispatch_query(shared, head, framing),
            _ => (
                (404, "Not Found"),
                TEXT_PLAIN,
                "unknown endpoint\n".to_string(),
            ),
        };
        self.respond_early(shared, head, framing, status, content_type, &body);
    }

    /// The one place a request's body framing is decided. A head that
    /// two parsers could frame differently — repeated `Content-Length`
    /// values that differ, a length that is not `1*DIGIT`, or a length
    /// beside `Transfer-Encoding` — is an error: on a keep-alive
    /// connection the server and an intermediary would disagree about
    /// where the next pipelined request starts.
    fn body_framing(head: &http::RequestHead) -> Result<BodyFraming, String> {
        let length = head.content_length()?;
        if length.is_some() && head.header("transfer-encoding").is_some() {
            return Err("both Content-Length and Transfer-Encoding given".to_string());
        }
        Ok(if head.is_chunked() {
            BodyFraming::Chunked(http::ChunkedDecoder::new())
        } else {
            length.map_or(BodyFraming::Eof, BodyFraming::Length)
        })
    }

    /// Answers a request *before* (or instead of) consuming its body —
    /// health/stats endpoints and early errors. A body the client is
    /// still sending must be discarded before the next head can be read
    /// off the socket, so framed bodies of tolerable size enter the
    /// drain state; anything else closes after the response.
    fn respond_early(
        &mut self,
        shared: &Arc<ServerShared>,
        head: &http::RequestHead,
        framing: BodyFraming,
        (status, reason): (u16, &str),
        content_type: &str,
        body: &str,
    ) {
        let keep = self.negotiate_keep_alive(shared, head);
        match framing {
            // Without a framing header a request that is answered early
            // has no body (only `POST /query` reads one to EOF).
            BodyFraming::Eof | BodyFraming::Length(0) if keep => {
                self.respond_simple_typed(status, reason, content_type, body, true);
            }
            // A client waiting for `100 Continue` never sends the body —
            // draining would stall until the timeout; close instead.
            f if keep && !head.expects_continue() && drainable(&f) => {
                self.send.extend_from_slice(&http::simple_response(
                    status,
                    reason,
                    content_type,
                    body.as_bytes(),
                    true,
                ));
                self.state = ConnState::Drain(Box::new(DrainState {
                    framing: f,
                    drained: 0,
                    saw_eof: false,
                    sink: Vec::new(),
                }));
            }
            _ => self.respond_simple_typed(status, reason, content_type, body, false),
        }
    }

    fn dispatch_query(
        &mut self,
        shared: &Arc<ServerShared>,
        head: &http::RequestHead,
        framing: BodyFraming,
    ) {
        let query_text = match (head.param("xq"), head.param("name")) {
            (Some(xq), _) => xq.to_string(),
            (None, Some(name)) => match shared.queries.get(name) {
                Some(q) => q.clone(),
                None => {
                    self.respond_early(
                        shared,
                        head,
                        framing,
                        (404, "Not Found"),
                        TEXT_PLAIN,
                        &format!("no registered query named {name:?}\n"),
                    );
                    return;
                }
            },
            (None, None) => {
                self.respond_early(
                    shared,
                    head,
                    framing,
                    (400, "Bad Request"),
                    TEXT_PLAIN,
                    "POST /query needs ?xq=<urlencoded query> or ?name=<registered query>\n",
                );
                return;
            }
        };
        // An EOF-framed request body consumes the rest of the stream;
        // the connection cannot carry another request, and the chunked
        // response coding is unavailable to HTTP/1.0 clients.
        let keep = self.negotiate_keep_alive(shared, head)
            && !matches!(framing, BodyFraming::Eof)
            && !head.is_http10();
        let chunked_response = !head.is_http10();
        let live = Arc::new(LiveBufferStats::default());
        let label = head
            .param("name")
            .map_or_else(|| preview(&query_text), str::to_string);
        // Head-based sampling over *query* requests (counted separately
        // from trace IDs, which every request class mints): the first
        // query is always kept, then every `trace_sample_every`th. Slow
        // requests are kept retroactively in `finish_trace` regardless.
        let queries_seen = shared.queries_seen.fetch_add(1, Ordering::Relaxed);
        self.trace_keep =
            shared.trace_sample_every > 0 && queries_seen.is_multiple_of(shared.trace_sample_every);
        self.req_label = Some(label.clone());
        let session = {
            let live = live.clone();
            let pool = shared.pool.clone();
            let mailbox = self.mailbox.clone();
            let token = self.token;
            let output_high_water = shared.output_high_water;
            let session_metrics = shared.metrics.sessions.clone();
            let stage_metrics = shared.metrics.engine_stages.clone();
            let recorder = shared.recorder.clone();
            let trace_id = self.trace_id;
            let label = label.clone();
            shared.service.open_session_with(&query_text, move |cfg| {
                cfg.live_stats = Some(live);
                cfg.pool = Some(pool);
                // Engine buffering counts against the memory budget (when
                // one is set): a hard per-session failure instead of
                // unbounded growth.
                cfg.charge_engine_buffer = true;
                cfg.output_high_water = output_high_water;
                // Progress wakeups route straight to the one worker that
                // owns this connection, keyed by its epoll token.
                cfg.progress_waker = Some(Arc::new(move || mailbox.note_progress(token)));
                cfg.metrics = Some(session_metrics);
                cfg.stage_metrics = Some(stage_metrics);
                cfg.label = Some(label);
                cfg.flight_recorder = Some(recorder);
                cfg.trace_id = trace_id;
            })
        };
        let session = match session {
            Ok(s) => s,
            Err(e) => {
                self.respond_early(
                    shared,
                    head,
                    framing,
                    (400, "Bad Request"),
                    TEXT_PLAIN,
                    &format!("{e}\n"),
                );
                return;
            }
        };
        let session_id = shared.next_session_id.fetch_add(1, Ordering::Relaxed);
        shared.sessions.lock().expect("registry lock").insert(
            session_id,
            SessionEntry {
                query_label: label,
                peer: self.peer.clone(),
                started: Instant::now(),
                live,
            },
        );
        if head.expects_continue() {
            self.send
                .extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
        }
        self.state = ConnState::Body(Box::new(BodyState {
            session,
            session_id,
            framing,
            sent_head: false,
            pending: Vec::new(),
            pending_pos: 0,
            input_closed: false,
            held: Vec::new(),
            saw_eof: false,
            keep,
            chunked_response,
        }));
    }

    /// Discards the remainder of an early-answered request's body; once
    /// the framing completes, the buffered response flushes and the
    /// connection loops back to the next request.
    fn step_drain(&mut self, shared: &Arc<ServerShared>) -> StepResult {
        let mut progress = false;
        match self.write_some(shared) {
            WriteOutcome::Progress => progress = true,
            WriteOutcome::WouldBlock | WriteOutcome::Idle => {}
            WriteOutcome::Gone => return StepResult::Finished,
        }
        let ConnState::Drain(mut drain) = std::mem::replace(&mut self.state, ConnState::Closed)
        else {
            unreachable!("step_drain outside Drain state");
        };
        if !drain.saw_eof && !drain.framing.complete() && self.recv.is_empty() {
            match self.read_some(shared) {
                ReadOutcome::Data => progress = true,
                ReadOutcome::WouldBlock => {}
                ReadOutcome::Eof => {
                    drain.saw_eof = true;
                    progress = true;
                }
                ReadOutcome::Gone => return StepResult::Finished,
            }
        }
        if !self.recv.is_empty() {
            drain.sink.clear();
            let DrainState { framing, sink, .. } = &mut *drain;
            let consumed = match framing.decode_into(&self.recv, sink) {
                Ok(n) => n,
                Err(_) => return StepResult::Finished, // framing lost
            };
            drain.drained += consumed as u64;
            if consumed > 0 {
                self.recv.drain(..consumed);
                progress = true;
            }
            if drain.drained > DRAIN_MAX_BYTES {
                // The client keeps pushing; closing is cheaper than
                // sinking an unbounded body.
                return StepResult::Finished;
            }
        }
        if drain.framing.complete() {
            self.state = ConnState::Flush { close: false };
            return StepResult::Progress;
        }
        if drain.saw_eof {
            return StepResult::Finished;
        }
        self.state = ConnState::Drain(drain);
        if progress {
            StepResult::Progress
        } else {
            StepResult::Blocked
        }
    }

    fn step_body(&mut self, shared: &Arc<ServerShared>) -> StepResult {
        let mut progress = false;

        // 1. Flush the response buffer first — it bounds everything else.
        match self.write_some(shared) {
            WriteOutcome::Progress => progress = true,
            WriteOutcome::WouldBlock | WriteOutcome::Idle => {}
            WriteOutcome::Gone => return StepResult::Finished,
        }

        // Work on the body state outside `self.state` so socket methods
        // on `self` stay callable.
        let ConnState::Body(mut body) = std::mem::replace(&mut self.state, ConnState::Closed)
        else {
            unreachable!("step_body outside Body state");
        };

        // 2. Read more body bytes unless the upload already completed —
        //    or the session is not keeping up (backlog cap: TCP pushes
        //    back on the client instead of us buffering the document).
        let backlog = body.pending.len() - body.pending_pos + self.recv.len();
        if !body.saw_eof && !body.framing.complete() && backlog < RECV_HIGH_WATER {
            match self.read_some(shared) {
                ReadOutcome::Data => progress = true,
                ReadOutcome::WouldBlock => {}
                ReadOutcome::Eof => {
                    body.saw_eof = true;
                    progress = true;
                }
                ReadOutcome::Gone => {
                    self.state = ConnState::Body(body);
                    return StepResult::Finished;
                }
            }
        }

        // EOF before a framed body completed: the client went away;
        // teardown cancels the session.
        if body.saw_eof && !matches!(body.framing, BodyFraming::Eof) && !body.framing.complete() {
            self.state = ConnState::Body(body);
            return StepResult::Finished;
        }

        // 3. Decode raw socket bytes into body payload.
        if !self.recv.is_empty() {
            let consumed = match body.framing.decode_into(&self.recv, &mut body.pending) {
                Ok(n) => n,
                Err(e) => {
                    finish_registry(shared, body.session_id, None);
                    // Framing is lost mid-stream: answer (when the
                    // head is still unsent) and close.
                    if body.sent_head {
                        self.state = ConnState::Flush { close: true };
                    } else {
                        self.respond_simple(
                            400,
                            "Bad Request",
                            &format!("malformed chunked body: {e}\n"),
                            false,
                        );
                    }
                    return StepResult::Progress; // body (and session) dropped here
                }
            };
            if consumed > 0 {
                self.recv.drain(..consumed);
                progress = true;
            }
        }

        // 4. Feed decoded payload into the session. Non-blocking: a full
        //    queue or memory budget parks the connection, not the worker
        //    thread; the session's progress signal wakes it when input
        //    is consumed or, for a budget refusal, when any session
        //    returns budget bytes. Slices are bounded so one offer can
        //    always fit the memory budget.
        //    Feeding never moves output: whether the response is taken
        //    is step 6's decision alone, so with our send buffer backed
        //    up (client not reading) the evaluator keeps running until
        //    the session's own output bound parks it.
        while body.pending_pos < body.pending.len() {
            let chunk_end = (body.pending_pos + shared.feed_chunk_bytes).min(body.pending.len());
            match body
                .session
                .try_feed(&body.pending[body.pending_pos..chunk_end])
            {
                Ok(true) => {
                    body.pending_pos = chunk_end;
                    progress = true;
                }
                Ok(false) => break,
                Err(e) => {
                    self.session_failed(shared, &mut body, &e.to_string());
                    return StepResult::Progress; // body (and session) dropped here
                }
            }
        }
        if body.pending_pos == body.pending.len() && !body.pending.is_empty() {
            body.pending.clear();
            body.pending_pos = 0;
        }

        // 5. Close the session's input once the whole body was fed.
        let upload_done =
            body.framing.complete() || (matches!(body.framing, BodyFraming::Eof) && body.saw_eof);
        if upload_done && body.pending_pos >= body.pending.len() && !body.input_closed {
            body.session.close_input();
            body.input_closed = true;
            progress = true;
        }

        // 6. Pull output the engine has produced meanwhile — unless our
        //    own send buffer is already backed up. Each drained block
        //    goes out as one chunk.
        if self.send.len() - self.send_pos < SEND_HIGH_WATER {
            let output = body.session.drain();
            if !output.is_empty() {
                progress = true;
                let hold = body.input_closed
                    && !body.sent_head
                    && body.held.len() + output.len() <= SEND_HIGH_WATER;
                if hold {
                    body.held.extend_from_slice(&output);
                } else {
                    self.emit_output(&mut body, &output);
                }
            }
            // 7. Completed? `close_input` ran the closing slice on this
            //    thread unless an evaluator held the task, so a small
            //    request's outcome is usually here already; otherwise
            //    the session's progress wakeup brings us back.
            if body.input_closed {
                if let Some(outcome) = body.session.take_outcome() {
                    match outcome {
                        Ok(ok) => {
                            self.emit_output(&mut body, &ok.output);
                            if body.chunked_response {
                                self.send.extend_from_slice(http::FINAL_CHUNK);
                            }
                            finish_registry(shared, body.session_id, Some(&ok.report));
                            // A close-delimited (HTTP/1.0) body is only
                            // terminated by the close itself.
                            let close = !body.keep || !body.chunked_response;
                            self.state = ConnState::Flush { close };
                            return StepResult::Progress; // body dropped (already finished)
                        }
                        Err(e) => {
                            self.session_failed(shared, &mut body, &e.to_string());
                            return StepResult::Progress;
                        }
                    }
                }
            }
        }

        self.state = ConnState::Body(body);
        if progress {
            StepResult::Progress
        } else {
            StepResult::Blocked
        }
    }

    /// Appends engine output to the response as one chunk. This commits
    /// to the 200: the lazy head and whatever was held go out first
    /// (always called at completion, even with empty output, so the
    /// terminating chunk never goes out headless).
    fn emit_output(&mut self, body: &mut BodyState, output: &[u8]) {
        let held = std::mem::take(&mut body.held);
        if !body.sent_head {
            body.sent_head = true;
            if body.chunked_response {
                self.send.extend_from_slice(&http::response_head(
                    200,
                    "OK",
                    &[
                        ("Content-Type", "application/xml"),
                        ("Transfer-Encoding", "chunked"),
                    ],
                    body.keep,
                ));
            } else {
                // HTTP/1.0: close-delimited body, no transfer coding.
                self.send.extend_from_slice(&http::response_head(
                    200,
                    "OK",
                    &[("Content-Type", "application/xml")],
                    false,
                ));
            }
        }
        for block in [&held[..], output] {
            if body.chunked_response {
                http::encode_chunk(block, &mut self.send);
            } else {
                self.send.extend_from_slice(block);
            }
        }
    }

    /// Terminates a failed session: a clean 422 if the head is still
    /// unsent, otherwise an aborted (truncated) chunked body — the only
    /// honest signal once a 200 is on the wire (and the connection must
    /// close; the next request would be indistinguishable from body
    /// bytes otherwise).
    fn session_failed(&mut self, shared: &Arc<ServerShared>, body: &mut BodyState, msg: &str) {
        log_debug!(
            LOG_TARGET,
            "session {} ({}) failed: {msg}",
            body.session_id,
            self.peer
        );
        finish_registry(shared, body.session_id, None);
        if body.sent_head {
            self.state = ConnState::Flush { close: true };
        } else {
            // Reuse is only sound when the request body was consumed in
            // full; a session that died mid-upload leaves the rest of
            // the body in the pipe.
            let keep =
                body.keep && body.framing.complete() && body.pending_pos >= body.pending.len();
            self.respond_simple(
                422,
                "Unprocessable Entity",
                &format!("query failed: {msg}\n"),
                keep,
            );
        }
    }

    fn fail_idle(&mut self, shared: &Arc<ServerShared>) {
        let info = match &self.state {
            ConnState::Body(b) => Some((b.session_id, b.sent_head)),
            _ => None,
        };
        if let Some((session_id, sent_head)) = info {
            // Mid-response with undrained bytes stuck in `send`: the
            // *client* stopped reading, so its session sits parked on
            // the output high-water mark, and giving up on the client
            // is this layer's call.
            if sent_head && self.send_pos < self.send.len() {
                shared
                    .counters
                    .sessions_output_capped
                    .fetch_add(1, Ordering::Relaxed);
            }
            log_debug!(
                LOG_TARGET,
                "dropping idle connection from {} (session {session_id})",
                self.peer
            );
            finish_registry(shared, session_id, None);
            if !sent_head {
                self.respond_simple(408, "Request Timeout", "connection idle too long\n", false);
            }
        }
        // Best-effort farewell; teardown closes regardless. (An idle
        // keep-alive connection between requests has nothing buffered
        // and closes silently — no request is in flight to answer.)
        if self.send_pos < self.send.len() {
            let _ = self.stream.write_all(&self.send[self.send_pos..]);
            self.send_pos = self.send.len();
        }
    }

    /// Replaces the connection's future with a fixed response; `keep`
    /// loops back to the next request after the flush.
    fn respond_simple(&mut self, status: u16, reason: &str, body: &str, keep: bool) {
        self.respond_simple_typed(status, reason, TEXT_PLAIN, body, keep);
    }

    fn respond_simple_typed(
        &mut self,
        status: u16,
        reason: &str,
        content_type: &str,
        body: &str,
        keep: bool,
    ) {
        self.send.extend_from_slice(&http::simple_response(
            status,
            reason,
            content_type,
            body.as_bytes(),
            keep,
        ));
        self.state = ConnState::Flush { close: !keep };
    }

    fn read_some(&mut self, shared: &Arc<ServerShared>) -> ReadOutcome {
        if !self.sock_readable {
            // Edge-triggered: the last read hit `WouldBlock` and no
            // readiness event has arrived since — the syscall could
            // only confirm that.
            return ReadOutcome::WouldBlock;
        }
        // Reuse one scratch buffer per connection — this runs on every
        // step of every connection, and a fresh zeroed 64 KiB Vec per
        // read would dominate the allocation profile.
        if self.scratch.len() < IO_CHUNK_BYTES {
            self.scratch.resize(IO_CHUNK_BYTES, 0);
        }
        if gcx_faults::fire("net.read.err") {
            return ReadOutcome::Gone;
        }
        if gcx_faults::fire("net.read.eof") {
            return ReadOutcome::Eof;
        }
        // A short read truncates the *request*, never loses bytes: the
        // cap is applied before asking the socket.
        let cap = if gcx_faults::fire("net.read.short") {
            1
        } else {
            self.scratch.len()
        };
        loop {
            match self.stream.read(&mut self.scratch[..cap]) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => {
                    shared
                        .counters
                        .bytes_in
                        .fetch_add(n as u64, Ordering::Relaxed);
                    self.recv.extend_from_slice(&self.scratch[..n]);
                    return ReadOutcome::Data;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.sock_readable = false;
                    return ReadOutcome::WouldBlock;
                }
                // EINTR: a signal interrupted the syscall before any
                // bytes moved. Retry — mapping it to `WouldBlock` would
                // clear the readiness cache on a socket that is still
                // readable, and with edge-triggered epoll that edge
                // never comes back.
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Gone,
            }
        }
    }

    fn write_some(&mut self, shared: &Arc<ServerShared>) -> WriteOutcome {
        if self.send_pos >= self.send.len() {
            if self.send_pos > 0 {
                self.send.clear();
                self.send_pos = 0;
            }
            return WriteOutcome::Idle;
        }
        if !self.sock_writable {
            // Edge-triggered: still waiting for the EPOLLOUT edge after
            // the last `WouldBlock`.
            return WriteOutcome::WouldBlock;
        }
        if gcx_faults::fire("net.write.err") {
            return WriteOutcome::Gone;
        }
        let cap = if gcx_faults::fire("net.write.short") {
            1
        } else {
            self.send.len() - self.send_pos
        };
        loop {
            match self
                .stream
                .write(&self.send[self.send_pos..self.send_pos + cap])
            {
                Ok(0) => return WriteOutcome::Gone,
                Ok(n) => {
                    shared
                        .counters
                        .bytes_out
                        .fetch_add(n as u64, Ordering::Relaxed);
                    if self.ttfb_pending {
                        self.ttfb_pending = false;
                        if let Some(t0) = self.req_start {
                            shared.metrics.ttfb.record(t0.elapsed());
                        }
                        shared.recorder.record_instant(
                            self.trace_id,
                            SpanKind::FirstByte,
                            0,
                            n as u64,
                        );
                    }
                    self.send_pos += n;
                    if self.send_pos >= self.send.len() {
                        self.send.clear();
                        self.send_pos = 0;
                    }
                    return WriteOutcome::Progress;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.sock_writable = false;
                    return WriteOutcome::WouldBlock;
                }
                // EINTR: retry, for the same edge-preservation reason as
                // in `read_some`.
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return WriteOutcome::Gone,
            }
        }
    }

    /// Unregisters any in-flight session and closes the connection. The
    /// session itself is cancelled when the state drops.
    fn teardown(&mut self, shared: &Arc<ServerShared>) {
        if let ConnState::Body(body) = &self.state {
            finish_registry(shared, body.session_id, None);
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.state = ConnState::Closed;
    }
}

enum ReadOutcome {
    Data,
    WouldBlock,
    Eof,
    Gone,
}

enum WriteOutcome {
    Progress,
    /// Send buffer empty — nothing to write (not progress, not an error).
    Idle,
    WouldBlock,
    Gone,
}

/// Removes a session from the registry and records completion counters.
/// Passing `Some(report)` marks success; `None` marks failure/abort.
/// Idempotent per session id.
fn finish_registry(
    shared: &Arc<ServerShared>,
    session_id: u64,
    report: Option<&gcx_core::RunReport>,
) {
    let removed = shared
        .sessions
        .lock()
        .expect("registry lock")
        .remove(&session_id);
    if removed.is_none() {
        return;
    }
    match report {
        Some(r) => {
            shared
                .counters
                .sessions_completed
                .fetch_add(1, Ordering::Relaxed);
            shared
                .counters
                .tokens_read_total
                .fetch_add(r.tokens_read + r.tokens_skipped, Ordering::Relaxed);
            shared
                .counters
                .peak_nodes_max
                .fetch_max(r.stats.peak_nodes as u64, Ordering::Relaxed);
            shared.counters.role_imbalance.fetch_add(
                r.stats.roles_assigned.abs_diff(r.stats.roles_removed),
                Ordering::Relaxed,
            );
        }
        None => {
            shared
                .counters
                .sessions_failed
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// First ~40 chars of a query for registry labels.
fn preview(query: &str) -> String {
    let flat: String = query.split_whitespace().collect::<Vec<_>>().join(" ");
    if flat.len() <= 40 {
        flat
    } else {
        let mut cut = 40;
        while !flat.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &flat[..cut])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A session-progress note lands in the mailbox and signals the
    /// worker's eventfd (observable as a drained token list).
    #[test]
    fn mailbox_note_progress_records_token() {
        let mb = WorkerMailbox::new().unwrap();
        mb.note_progress(3);
        mb.note_progress(3);
        mb.note_progress(7);
        let tokens = std::mem::take(&mut *mb.progressed.lock().unwrap());
        assert_eq!(tokens, vec![3, 3, 7]);
    }

    /// `GCX_EVALUATORS` only shapes the default; explicit configs win.
    #[test]
    fn explicit_evaluator_count_survives_config() {
        let cfg = NetConfig {
            evaluators: 2,
            ..NetConfig::default()
        };
        assert_eq!(cfg.evaluators, 2);
    }
}
