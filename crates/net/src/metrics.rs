//! Request-level metrics and the `GET /metrics` Prometheus exposition.
//!
//! One [`NetMetrics`] lives in the server's shared state; every layer
//! below hangs its histograms off it:
//!
//! * **net** — per-request total latency by endpoint class
//!   (`query`/`stats`/`other`), time-to-first-byte, and the
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
//! [`render`] emits the classic Prometheus text format (v0.0.4):
//! counters and gauges from the server's live state, histograms as
//! cumulative `_bucket{le="…"}` series with `le` in seconds at the
//! log₂-bucket upper bounds, truncated after the highest non-empty
//! bucket (`+Inf` always closes the series).

use crate::server::ServerShared;
use crate::stats_json::esc_into;
use gcx_core::EngineStageMetrics;
use gcx_obs::{HistogramSnapshot, LatencyHistogram};
use gcx_service::SessionMetrics;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
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

/// All metrics the front-end records or re-exports. See module docs.
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

    /// `(class label, histogram)` pairs for renderers.
    pub(crate) fn request_classes(&self) -> [(&'static str, &LatencyHistogram); 4] {
        [
            ("query", &self.query),
            ("stats", &self.stats),
            ("trace", &self.trace),
            ("other", &self.other),
        ]
    }
}

/// Appends one `name{label="value"}` (or bare `name`) series prefix.
fn series(out: &mut String, name: &str, label: Option<(&str, &str)>) {
    out.push_str(name);
    if let Some((k, v)) = label {
        out.push('{');
        out.push_str(k);
        out.push_str("=\"");
        esc_into(out, v);
        out.push_str("\"}");
    }
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// The `le` bound of log₂ bucket `i`, in seconds. The last bucket is
/// unbounded and rendered as `+Inf` by the caller instead.
fn le_seconds(i: usize) -> f64 {
    gcx_obs::hist::bucket_upper_nanos(i) as f64 / 1e9
}

/// Appends one histogram family member: cumulative buckets (truncated
/// after the highest non-empty one), `+Inf`, `_sum` (seconds), `_count`.
fn histogram(out: &mut String, name: &str, label: Option<(&str, &str)>, snap: &HistogramSnapshot) {
    let last = snap
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .map_or(0, |i| i.min(snap.buckets.len() - 2));
    let mut cum = 0u64;
    for (i, &count) in snap.buckets.iter().enumerate().take(last + 1) {
        cum += count;
        out.push_str(name);
        out.push_str("_bucket{");
        if let Some((k, v)) = label {
            out.push_str(k);
            out.push_str("=\"");
            esc_into(out, v);
            out.push_str("\",");
        }
        let _ = writeln!(out, "le=\"{}\"}} {cum}", le_seconds(i));
    }
    out.push_str(name);
    out.push_str("_bucket{");
    if let Some((k, v)) = label {
        out.push_str(k);
        out.push_str("=\"");
        esc_into(out, v);
        out.push_str("\",");
    }
    let _ = writeln!(out, "le=\"+Inf\"}} {}", snap.count);
    series(out, &format!("{name}_sum"), label);
    let _ = writeln!(out, " {}", snap.sum_nanos as f64 / 1e9);
    series(out, &format!("{name}_count"), label);
    let _ = writeln!(out, " {}", snap.count);
}

fn histogram_family<'a>(
    out: &mut String,
    name: &str,
    help: &str,
    label_key: &str,
    members: impl IntoIterator<Item = (&'a str, &'a LatencyHistogram)>,
) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} histogram");
    for (value, hist) in members {
        histogram(out, name, Some((label_key, value)), &hist.snapshot());
    }
}

/// Renders the full `/metrics` document (Prometheus text format).
pub(crate) fn render(shared: &ServerShared) -> String {
    let c = &shared.counters;
    let m = &shared.metrics;
    let mut out = String::with_capacity(8 * 1024);

    // Build identity and process uptime: which build answers the scrape,
    // and when it restarted.
    let _ = writeln!(
        out,
        "# HELP gcx_build_info Build identity (always 1; read the labels).\n\
         # TYPE gcx_build_info gauge"
    );
    out.push_str("gcx_build_info{version=\"");
    esc_into(&mut out, env!("CARGO_PKG_VERSION"));
    out.push_str("\",git=\"");
    esc_into(&mut out, option_env!("GCX_GIT_HASH").unwrap_or("unknown"));
    out.push_str("\"} 1\n");
    gauge(
        &mut out,
        "gcx_process_uptime_seconds",
        "Seconds since this server started.",
        shared.started.elapsed().as_secs(),
    );

    counter(
        &mut out,
        "gcx_connections_total",
        "TCP connections accepted.",
        c.connections.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "gcx_requests_total",
        "HTTP requests parsed.",
        c.requests.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "gcx_sessions_completed_total",
        "Query sessions completed successfully.",
        c.sessions_completed.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "gcx_sessions_failed_total",
        "Query sessions failed or aborted.",
        c.sessions_failed.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "gcx_sessions_output_capped_total",
        "Connections dropped by idle_timeout with response bytes still unsent (client not draining).",
        c.sessions_output_capped.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "gcx_bytes_in_total",
        "Bytes read from client sockets.",
        c.bytes_in.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "gcx_bytes_out_total",
        "Bytes written to client sockets.",
        c.bytes_out.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "gcx_requests_shed_total",
        "Connections answered 503 by overload shedding (admission cap or queue-wait deadline).",
        c.connections_shed.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "gcx_accept_errors_total",
        "accept(2) failures; the acceptor backs off exponentially while they persist.",
        c.accept_errors.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "gcx_evaluator_panics_total",
        "Evaluator panics caught and converted into failed sessions.",
        shared.pool.panics(),
    );
    counter(
        &mut out,
        "gcx_evaluator_steps_total",
        "Evaluation slices run by the evaluator pool's ready-queue scheduler.",
        shared.pool.steps(),
    );
    counter(
        &mut out,
        "gcx_session_yields_total",
        "Times a session parked mid-evaluation (input starved, output backpressure, or budget yield).",
        shared.pool.yields(),
    );
    counter(
        &mut out,
        "gcx_epoll_wakeups_total",
        "epoll_wait returns that delivered events to a connection worker (idle workers sleep, so this only advances under load).",
        c.epoll_wakeups.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "gcx_traces_captured_total",
        "Request traces kept by the flight recorder (sampled or slow).",
        shared.recorder.traces_captured.get(),
    );
    counter(
        &mut out,
        "gcx_trace_spans_dropped_total",
        "Flight-recorder ring overwrites (oldest spans evicted).",
        shared.recorder.spans_dropped.get(),
    );
    counter(
        &mut out,
        "gcx_slow_requests_total",
        "Requests that exceeded the slow-request threshold (GCX_SLOW_MS).",
        shared.recorder.slow_requests.get(),
    );

    let active = shared.sessions.lock().expect("registry lock").len();
    gauge(
        &mut out,
        "gcx_active_sessions",
        "Sessions currently registered (mid-stream).",
        active as u64,
    );
    gauge(
        &mut out,
        "gcx_open_connections",
        "Connections currently open (queued, driven, or parked).",
        shared.open_connections() as u64,
    );
    gauge(
        &mut out,
        "gcx_evaluator_pool_size",
        "Evaluator pool worker threads.",
        shared.pool.size() as u64,
    );
    gauge(
        &mut out,
        "gcx_evaluator_pool_active",
        "Evaluator jobs currently executing.",
        shared.pool.active() as u64,
    );
    gauge(
        &mut out,
        "gcx_evaluator_pool_queued",
        "Evaluator jobs waiting for a pool thread.",
        shared.pool.queued() as u64,
    );
    if let Some(b) = shared.service.budget() {
        gauge(
            &mut out,
            "gcx_budget_limit_bytes",
            "Configured memory budget.",
            b.limit() as u64,
        );
        gauge(
            &mut out,
            "gcx_budget_used_bytes",
            "Memory budget bytes in use (queued input + undrained output).",
            b.used() as u64,
        );
    }

    histogram_family(
        &mut out,
        "gcx_request_duration_seconds",
        "Request latency, head parsed to response flushed.",
        "class",
        m.request_classes(),
    );
    histogram_family(
        &mut out,
        "gcx_request_ttfb_seconds",
        "Head parsed to first response byte on the wire.",
        "class",
        [("all", &m.ttfb)],
    );
    histogram_family(
        &mut out,
        "gcx_conn_queue_wait_seconds",
        "Connection accepted to first worker drive.",
        "class",
        [("all", &m.queue_wait)],
    );
    histogram_family(
        &mut out,
        "gcx_engine_stage_duration_seconds",
        "Sampled per-stage engine time (one pump step / skip / emit).",
        "stage",
        m.engine_stages.stages(),
    );
    histogram_family(
        &mut out,
        "gcx_session_phase_duration_seconds",
        "Session lifecycle phases (pool queue wait, engine run, total).",
        "phase",
        m.sessions.phases(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn render_one(h: &LatencyHistogram, label: Option<(&str, &str)>) -> String {
        let mut out = String::new();
        histogram(&mut out, "t_seconds", label, &h.snapshot());
        out
    }

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

    #[test]
    fn empty_histogram_is_valid_exposition() {
        let h = LatencyHistogram::new();
        let text = render_one(&h, None);
        assert!(text.contains("t_seconds_bucket{le=\"+Inf\"} 0"), "{text}");
        assert!(text.contains("t_seconds_sum 0"), "{text}");
        assert!(text.contains("t_seconds_count 0"), "{text}");
    }

    #[test]
    fn buckets_are_cumulative_and_truncated() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1)); // bucket 0 (le 1ns)
        h.record(Duration::from_nanos(3)); // bucket 1 (le 3ns)
        h.record(Duration::from_nanos(3));
        let text = render_one(&h, Some(("class", "query")));
        // Bucket 0 holds 1; bucket 1 is cumulative (3); nothing beyond
        // the highest non-empty bucket except +Inf.
        assert!(
            text.contains("t_seconds_bucket{class=\"query\",le=\"0.000000001\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("t_seconds_bucket{class=\"query\",le=\"0.000000003\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("t_seconds_bucket{class=\"query\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert_eq!(
            text.matches("t_seconds_bucket").count(),
            3,
            "two real buckets + +Inf only: {text}"
        );
        assert!(
            text.contains("t_seconds_count{class=\"query\"} 3"),
            "{text}"
        );
    }
}
