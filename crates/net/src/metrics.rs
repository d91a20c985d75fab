//! Request-level metrics and the one table `/metrics` and `/stats`
//! render from.
//!
//! One [`NetMetrics`] lives in the server's shared state; every layer
//! below hangs its histograms off it:
//!
//! * **net** — per-request total latency by endpoint class
//!   (`query`/`stats`/`trace`/`other`), time-to-first-byte, and the
//!   accept→first-drive queue wait of each connection;
//! * **service** — session lifecycle phases
//!   ([`gcx_service::SessionMetrics`]: pool queue wait, run, total);
//! * **core** — sampled per-stage engine timers
//!   ([`gcx_core::EngineStageMetrics`]: lex/skip/match/buffer/emit).
//!
//! Recording is wait-free (relaxed atomics on fixed log₂ buckets —
//! `gcx-obs`), so the histograms are shared by every connection worker
//! and evaluator thread without locks.
//!
//! `rows` lists every number the server exports exactly once, as a
//! [`gcx_obs::export::Row`]. `GET /metrics` is its Prometheus rendering;
//! `GET /stats` (schema `gcx-net-stats/7`) is its JSON rendering plus
//! the `sessions[]` array of live per-session buffer figures. A `/stats`
//! key is the series name without `gcx_` and `_total`
//! ([`gcx_obs::export::json_key`]).

use crate::server::ServerShared;
use gcx_buffer::LiveBufferStats;
use gcx_core::EngineStageMetrics;
use gcx_obs::export::{self, esc_into, Row, Value};
use gcx_obs::LatencyHistogram;
use gcx_service::SessionMetrics;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Endpoint classes for request-latency attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReqClass {
    /// `POST /query` — streaming evaluation.
    Query,
    /// `GET /stats` and `GET /metrics` — observability planes.
    Stats,
    /// `GET /trace` — flight-recorder export.
    Trace,
    /// Everything else (healthz, 404s, malformed requests).
    Other,
}

/// Maps a request head to its latency class. The single classification
/// point: the dispatcher derives its class from the same `(method,
/// path)` pair it routes on, so every endpoint lands in exactly one
/// class (tested below).
pub(crate) fn classify(method: &str, path: &str) -> ReqClass {
    match (method, path) {
        ("POST", "/query") => ReqClass::Query,
        ("GET", "/stats") | ("GET", "/metrics") => ReqClass::Stats,
        ("GET", "/trace") => ReqClass::Trace,
        _ => ReqClass::Other,
    }
}

/// All histograms the front-end records or re-exports. See module docs.
pub(crate) struct NetMetrics {
    /// Total request latency (head parsed → response flushed), per class.
    pub(crate) query: LatencyHistogram,
    pub(crate) stats: LatencyHistogram,
    pub(crate) trace: LatencyHistogram,
    pub(crate) other: LatencyHistogram,
    /// Head parsed → first response byte on the wire (all classes).
    pub(crate) ttfb: LatencyHistogram,
    /// Connection accepted → first worker drive.
    pub(crate) queue_wait: LatencyHistogram,
    /// Sampled per-stage engine timing, installed into every session.
    pub(crate) engine_stages: Arc<EngineStageMetrics>,
    /// Session lifecycle phases, installed into every session.
    pub(crate) sessions: Arc<SessionMetrics>,
}

impl NetMetrics {
    pub(crate) fn new() -> Self {
        NetMetrics {
            query: LatencyHistogram::new(),
            stats: LatencyHistogram::new(),
            trace: LatencyHistogram::new(),
            other: LatencyHistogram::new(),
            ttfb: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            engine_stages: Arc::new(EngineStageMetrics::new()),
            sessions: Arc::new(SessionMetrics::new()),
        }
    }

    /// The total-latency histogram for one endpoint class.
    pub(crate) fn request_class(&self, class: ReqClass) -> &LatencyHistogram {
        match class {
            ReqClass::Query => &self.query,
            ReqClass::Stats => &self.stats,
            ReqClass::Trace => &self.trace,
            ReqClass::Other => &self.other,
        }
    }

    /// `(class label, histogram)` pairs for the renderers.
    fn request_classes(&self) -> [(&'static str, &LatencyHistogram); 4] {
        [
            ("query", &self.query),
            ("stats", &self.stats),
            ("trace", &self.trace),
            ("other", &self.other),
        ]
    }
}

/// The labels of `gcx_build_info`: which build answers the scrape.
const BUILD_INFO: &[(&str, &str)] = &[
    ("version", env!("CARGO_PKG_VERSION")),
    (
        "git",
        match option_env!("GCX_GIT_HASH") {
            Some(hash) => hash,
            None => "unknown",
        },
    ),
];

fn row<'a>(
    section: &'static str,
    name: &'static str,
    value: Value<'a>,
    help: &'static str,
) -> Row<'a> {
    Row {
        section,
        name,
        help,
        value,
    }
}

fn family<'a>(label: &'static str, members: &[(&'static str, &'a LatencyHistogram)]) -> Value<'a> {
    Value::Histograms {
        label,
        members: members.to_vec(),
    }
}

/// Every number the server exports, each once. `active_sessions` is
/// passed in so `/stats` counts the same registry snapshot its
/// `sessions[]` array lists.
fn rows(shared: &ServerShared, active_sessions: usize) -> Vec<Row<'_>> {
    use Value::{Counter, Gauge};
    let c = &shared.counters;
    let m = &shared.metrics;
    let pool = &shared.pool;
    let rec = &shared.recorder;
    let service = &shared.service;
    let svc = service.stats();
    let n = |a: &AtomicU64| a.load(Ordering::Relaxed);
    #[rustfmt::skip]
    let mut rows = vec![
        row("server", "gcx_build_info", Value::Info(BUILD_INFO),
            "Build identity (always 1; read the labels)."),
        row("server", "gcx_process_uptime_seconds", Gauge(shared.started.elapsed().as_secs()),
            "Seconds since this server started."),
        row("server", "gcx_connection_workers", Gauge(shared.workers as u64),
            "Connection worker threads (socket I/O + session driving)."),
        row("server", "gcx_threads", Gauge((1 + shared.workers + shared.evaluators) as u64),
            "Fixed thread count: acceptor + connection workers + evaluator pool."),
        row("server", "gcx_active_sessions", Gauge(active_sessions as u64),
            "Sessions currently registered (mid-stream)."),
        row("server", "gcx_open_connections", Gauge(shared.open_connections() as u64),
            "Connections currently open (queued, driven, or parked)."),
        row("server", "gcx_connections_total", Counter(n(&c.connections)),
            "TCP connections accepted."),
        row("server", "gcx_requests_total", Counter(n(&c.requests)),
            "HTTP requests parsed."),
        row("server", "gcx_sessions_completed_total", Counter(n(&c.sessions_completed)),
            "Query sessions completed successfully."),
        row("server", "gcx_sessions_failed_total", Counter(n(&c.sessions_failed)),
            "Query sessions failed or aborted."),
        row("server", "gcx_sessions_output_capped_total", Counter(n(&c.sessions_output_capped)),
            "Connections dropped by idle_timeout with response bytes still unsent (client not draining)."),
        row("server", "gcx_bytes_in_total", Counter(n(&c.bytes_in)),
            "Bytes read from client sockets."),
        row("server", "gcx_bytes_out_total", Counter(n(&c.bytes_out)),
            "Bytes written to client sockets."),
        row("server", "gcx_tokens_read_total", Counter(n(&c.tokens_read_total)),
            "XML tokens read or raw-skipped by completed sessions."),
        row("server", "gcx_peak_nodes_max", Gauge(n(&c.peak_nodes_max)),
            "Largest buffer high-water mark (nodes) of any completed session."),
        row("server", "gcx_role_imbalance_total", Counter(n(&c.role_imbalance)),
            "Roles assigned but never removed by signOff, summed over completed sessions (must stay 0)."),
        row("server", "gcx_requests_shed_total", Counter(n(&c.requests_shed)),
            "Connections answered 503 by overload shedding (admission cap or queue-wait deadline)."),
        row("server", "gcx_accept_errors_total", Counter(n(&c.accept_errors)),
            "accept(2) failures; the acceptor backs off exponentially while they persist."),
        row("scheduler", "gcx_evaluator_pool_size", Gauge(pool.size() as u64),
            "Evaluator pool worker threads."),
        row("scheduler", "gcx_evaluator_pool_active", Gauge(pool.active() as u64),
            "Evaluator jobs currently executing."),
        row("scheduler", "gcx_evaluator_pool_queued", Gauge(pool.queued() as u64),
            "Evaluator jobs waiting for a pool thread."),
        row("scheduler", "gcx_evaluator_steps_total", Counter(pool.steps()),
            "Evaluation slices run by the evaluator pool's ready-queue scheduler."),
        row("scheduler", "gcx_session_yields_total", Counter(pool.yields()),
            "Times a session parked mid-evaluation (input starved, output backpressure, or budget yield)."),
        row("scheduler", "gcx_evaluator_panics_total", Counter(pool.panics()),
            "Evaluator panics caught and converted into failed sessions."),
        row("scheduler", "gcx_epoll_wakeups_total", Counter(n(&c.epoll_wakeups)),
            "epoll_wait returns that delivered events to a connection worker (idle workers sleep, so this only advances under load)."),
        row("service", "gcx_query_cache_hits_total", Counter(svc.cache_hits),
            "Compiled-query cache hits (compilation skipped)."),
        row("service", "gcx_query_cache_misses_total", Counter(svc.cache_misses),
            "Compiled-query cache misses (query compiled)."),
        row("service", "gcx_query_cache_evictions_total", Counter(svc.cache_evictions),
            "Compiled queries evicted to respect the cache capacity."),
        row("service", "gcx_sessions_opened_total", Counter(svc.sessions_opened),
            "Sessions opened by the query service."),
        row("service", "gcx_cached_queries", Gauge(service.cached_queries() as u64),
            "Compiled queries currently cached."),
        row("service", "gcx_registered_queries", Gauge(shared.queries.len() as u64),
            "Named queries addressable as POST /query?name=."),
    ];
    if let Some(b) = service.budget() {
        #[rustfmt::skip]
        rows.extend([
            row("budget", "gcx_budget_limit_bytes", Gauge(b.limit() as u64),
                "Configured memory budget."),
            row("budget", "gcx_budget_used_bytes", Gauge(b.used() as u64),
                "Memory budget bytes in use (queued input + undrained output)."),
            row("budget", "gcx_budget_engine_used_bytes", Gauge(b.engine_used() as u64),
                "Memory budget bytes held by engine buffers (buffered nodes + text)."),
        ]);
    }
    #[rustfmt::skip]
    rows.extend([
        row("tracing", "gcx_trace_sample_every", Gauge(shared.trace_sample_every),
            "Head-based trace sampling: every Nth query request is kept (0 = off)."),
        row("tracing", "gcx_traces_captured_total", Counter(rec.traces_captured.get()),
            "Request traces kept by the flight recorder (sampled or slow)."),
        row("tracing", "gcx_trace_spans_dropped_total", Counter(rec.spans_dropped.get()),
            "Flight-recorder ring overwrites (oldest spans evicted)."),
        row("tracing", "gcx_slow_requests_total", Counter(rec.slow_requests.get()),
            "Requests that exceeded the slow-request threshold (GCX_SLOW_MS)."),
        row("latency", "gcx_request_duration_seconds", family("class", &m.request_classes()),
            "Request latency, head parsed to response flushed."),
        row("latency", "gcx_request_ttfb_seconds", family("class", &[("all", &m.ttfb)]),
            "Head parsed to first response byte on the wire."),
        row("latency", "gcx_conn_queue_wait_seconds", family("class", &[("all", &m.queue_wait)]),
            "Connection accepted to first worker drive."),
        row("latency", "gcx_engine_stage_duration_seconds", family("stage", &m.engine_stages.stages()),
            "Sampled per-stage engine time (one pump step / skip / emit)."),
        row("latency", "gcx_session_phase_duration_seconds", family("phase", &m.sessions.phases()),
            "Session lifecycle phases (pool queue wait, engine run, total)."),
    ]);
    rows
}

/// Renders the `/metrics` document (Prometheus text format).
pub(crate) fn render_metrics(shared: &ServerShared) -> String {
    let active = shared.sessions.lock().expect("registry lock").len();
    export::render_prometheus(&rows(shared, active))
}

/// One live session, copied out of the registry under its lock.
struct SessionRow {
    id: u64,
    query: String,
    peer: String,
    age_ms: u128,
    buffer: [(&'static str, u64); 7],
}

/// The named [`LiveBufferStats`] figures of one session.
fn buffer_figures(live: &LiveBufferStats) -> [(&'static str, u64); 7] {
    let size = |a: &AtomicUsize| a.load(Ordering::Relaxed) as u64;
    let count = |a: &AtomicU64| a.load(Ordering::Relaxed);
    [
        ("live_nodes", size(&live.live_nodes)),
        ("peak_nodes", size(&live.peak_nodes)),
        ("live_bytes", size(&live.live_bytes)),
        ("peak_bytes", size(&live.peak_bytes)),
        ("text_arena_bytes", size(&live.text_arena_bytes)),
        ("nodes_created", count(&live.nodes_created)),
        ("nodes_purged", count(&live.nodes_purged)),
    ]
}

/// Renders the `/stats` document: the table's JSON sections, then
/// `sessions[]`, the **live** buffer figures of every running engine —
/// the paper's buffer-minimization claim made observable mid-stream.
///
/// The registry lock is held only long enough to *copy* each entry's
/// scalars; all formatting happens after it is released, so a slow
/// render never stalls request dispatch (which takes the same lock to
/// register/unregister sessions).
pub(crate) fn render_stats(shared: &ServerShared) -> String {
    let mut sessions: Vec<SessionRow> = {
        let registry = shared.sessions.lock().expect("registry lock");
        registry
            .iter()
            .map(|(&id, entry)| SessionRow {
                id,
                query: entry.query_label.clone(),
                peer: entry.peer.clone(),
                age_ms: entry.started.elapsed().as_millis(),
                buffer: buffer_figures(&entry.live),
            })
            .collect()
    };
    sessions.sort_unstable_by_key(|s| s.id);

    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"schema\": \"gcx-net-stats/7\",\n");
    export::render_json(&mut out, &rows(shared, sessions.len()));
    out.push_str(",\n  \"sessions\": [\n");
    for (i, s) in sessions.iter().enumerate() {
        let _ = write!(out, "    {{ \"id\": {}, \"query\": \"", s.id);
        esc_into(&mut out, &s.query);
        out.push_str("\", \"peer\": \"");
        esc_into(&mut out, &s.peer);
        let _ = write!(out, "\", \"age_ms\": {}, \"buffer\": {{ ", s.age_ms);
        for (j, (key, value)) in s.buffer.iter().enumerate() {
            let sep = if j > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{key}\": {value}");
        }
        out.push_str(if i + 1 < sessions.len() {
            " } },\n"
        } else {
            " } }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn every_endpoint_lands_in_exactly_one_class() {
        // The served endpoints, as the dispatcher routes them.
        assert_eq!(classify("POST", "/query"), ReqClass::Query);
        assert_eq!(classify("GET", "/stats"), ReqClass::Stats);
        assert_eq!(classify("GET", "/metrics"), ReqClass::Stats);
        assert_eq!(classify("GET", "/trace"), ReqClass::Trace);
        assert_eq!(classify("GET", "/healthz"), ReqClass::Other);
        // Wrong-method and unknown paths fall through to Other.
        assert_eq!(classify("GET", "/query"), ReqClass::Other);
        assert_eq!(classify("POST", "/stats"), ReqClass::Other);
        assert_eq!(classify("POST", "/trace"), ReqClass::Other);
        assert_eq!(classify("GET", "/nope"), ReqClass::Other);
        // Each class has a distinct histogram and label.
        let m = NetMetrics::new();
        let labels: Vec<&str> = m.request_classes().iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, ["query", "stats", "trace", "other"]);
        for class in [
            ReqClass::Query,
            ReqClass::Stats,
            ReqClass::Trace,
            ReqClass::Other,
        ] {
            m.request_class(class).record(Duration::from_micros(1));
        }
        for (_, h) in m.request_classes() {
            assert_eq!(h.snapshot().count, 1, "one record per class histogram");
        }
    }
}
