//! `/stats` JSON rendering (schema `gcx-net-stats/5`).
//!
//! Hand-rolled — the workspace is offline, no serde. The document's main
//! sections:
//!
//! * `server` — front-end counters and the (fixed) thread topology;
//! * `scheduler` — the evaluator pool's ready-queue scheduler (slices
//!   run, session yields, queue depth) plus the connection workers'
//!   `epoll_wait` wakeup count (added in `/5`);
//! * `service` — compiled-query cache statistics;
//! * `budget` — the shared [`gcx_service::MemoryBudget`], or `null`;
//! * `latency` — quantile summaries (count/mean/p50/p90/p99/max, µs) of
//!   every histogram the server records: per-class request latency,
//!   TTFB, connection queue wait, sampled engine stages, and session
//!   lifecycle phases (added in `/2`; `GET /metrics` exposes the same
//!   histograms with full buckets);
//! * `sessions` — **live** per-session buffer statistics sampled from the
//!   running engines (current/peak buffered nodes and bytes, text-arena
//!   bytes), the observability the paper's buffer-minimization claims
//!   deserve: you can watch the buffer stay small mid-stream.
//!
//! The session registry lock is held only long enough to *copy* each
//! entry's scalars into a local vector; all string formatting happens
//! unlocked, so a slow `/stats` render never stalls request dispatch
//! (which takes the same lock to register/unregister sessions).

use crate::server::ServerShared;
use gcx_obs::LatencyHistogram;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;

/// Appends `s` to `out` with JSON string escaping, allocation-free.
/// Also used for `/metrics` label values: the escapes Prometheus
/// requires (`\\`, `\"`, `\n`) are exactly JSON's.
pub(crate) fn esc_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Appends one `"name": { count, mean_us, p50_us, … }` summary object.
fn latency_summary(out: &mut String, name: &str, h: &LatencyHistogram) {
    let s = h.snapshot();
    let _ = write!(
        out,
        "\"{name}\": {{ \"count\": {}, \"mean_us\": {}, \"p50_us\": {}, \
         \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {} }}",
        s.count,
        s.mean_nanos() / 1_000,
        s.p50() / 1_000,
        s.p90() / 1_000,
        s.p99() / 1_000,
        s.max_nanos / 1_000,
    );
}

fn latency_group<'a>(
    out: &mut String,
    name: &str,
    members: impl IntoIterator<Item = (&'a str, &'a LatencyHistogram)>,
    trailing_comma: bool,
) {
    let _ = write!(out, "    \"{name}\": {{ ");
    for (i, (member, h)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        latency_summary(out, member, h);
    }
    out.push_str(if trailing_comma { " },\n" } else { " }\n" });
}

/// One session row copied out of the registry under its lock.
struct SessionRow {
    id: u64,
    query_label: String,
    peer: String,
    age_ms: u128,
    live: (usize, usize, usize, usize, usize, u64, u64),
}

/// Renders the full `/stats` document.
pub(crate) fn render(shared: &ServerShared) -> String {
    let c = &shared.counters;
    let m = &shared.metrics;
    let service_stats = shared.service.stats();

    // Snapshot the registry first: scalars only, no formatting under the
    // lock shared with the request path.
    let mut rows: Vec<SessionRow> = {
        let sessions = shared.sessions.lock().expect("registry lock");
        sessions
            .iter()
            .map(|(&id, entry)| SessionRow {
                id,
                query_label: entry.query_label.clone(),
                peer: entry.peer.clone(),
                age_ms: entry.started.elapsed().as_millis(),
                live: entry.live.snapshot(),
            })
            .collect()
    };
    rows.sort_unstable_by_key(|r| r.id);

    let mut out = String::with_capacity(2048);
    out.push_str("{\n  \"schema\": \"gcx-net-stats/5\",\n");

    let _ = writeln!(
        out,
        "  \"server\": {{ \"workers\": {}, \"evaluators\": {}, \"threads\": {}, \
         \"uptime_s\": {}, \
         \"active_sessions\": {}, \"open_connections\": {}, \"connections\": {}, \
         \"requests\": {}, \"sessions_completed\": {}, \"sessions_failed\": {}, \
         \"sessions_output_capped\": {}, \"bytes_in\": {}, \"bytes_out\": {}, \
         \"tokens_read_total\": {}, \"peak_nodes_max\": {}, \
         \"connections_shed\": {}, \"accept_errors\": {}, \
         \"evaluator_panics\": {} }},",
        shared.workers,
        shared.evaluators,
        1 + shared.workers + shared.evaluators,
        shared.started.elapsed().as_secs(),
        rows.len(),
        shared.open_connections(),
        c.connections.load(Ordering::Relaxed),
        c.requests.load(Ordering::Relaxed),
        c.sessions_completed.load(Ordering::Relaxed),
        c.sessions_failed.load(Ordering::Relaxed),
        c.sessions_output_capped.load(Ordering::Relaxed),
        c.bytes_in.load(Ordering::Relaxed),
        c.bytes_out.load(Ordering::Relaxed),
        c.tokens_read_total.load(Ordering::Relaxed),
        c.peak_nodes_max.load(Ordering::Relaxed),
        c.connections_shed.load(Ordering::Relaxed),
        c.accept_errors.load(Ordering::Relaxed),
        shared.pool.panics(),
    );

    let _ = writeln!(
        out,
        "  \"scheduler\": {{ \"evaluators\": {}, \"steps\": {}, \"yields\": {}, \
         \"queued\": {}, \"active\": {}, \"panics\": {}, \"epoll_wakeups\": {} }},",
        shared.pool.size(),
        shared.pool.steps(),
        shared.pool.yields(),
        shared.pool.queued(),
        shared.pool.active(),
        shared.pool.panics(),
        c.epoll_wakeups.load(Ordering::Relaxed),
    );

    let _ = writeln!(
        out,
        "  \"service\": {{ \"cache_hits\": {}, \"cache_misses\": {}, \
         \"cache_evictions\": {}, \"sessions_opened\": {}, \"cached_queries\": {}, \
         \"registered_queries\": {}, \"interner_rebuilds\": {}, \
         \"master_interner_len\": {} }},",
        service_stats.cache_hits,
        service_stats.cache_misses,
        service_stats.cache_evictions,
        service_stats.sessions_opened,
        shared.service.cached_queries(),
        shared.queries.len(),
        service_stats.interner_rebuilds,
        shared.service.master_interner_len(),
    );

    match shared.service.budget() {
        Some(b) => {
            let _ = writeln!(
                out,
                "  \"budget\": {{ \"limit\": {}, \"used\": {}, \"engine_used\": {} }},",
                b.limit(),
                b.used(),
                b.engine_used()
            );
        }
        None => out.push_str("  \"budget\": null,\n"),
    }

    let rec = &shared.recorder;
    let _ = writeln!(
        out,
        "  \"tracing\": {{ \"traces_captured\": {}, \"spans_dropped\": {}, \
         \"slow_requests\": {}, \"sample_every\": {} }},",
        rec.traces_captured.get(),
        rec.spans_dropped.get(),
        rec.slow_requests.get(),
        shared.trace_sample_every,
    );

    out.push_str("  \"latency\": {\n");
    latency_group(&mut out, "requests", m.request_classes(), true);
    latency_group(&mut out, "ttfb", [("all", &m.ttfb)], true);
    latency_group(&mut out, "queue_wait", [("all", &m.queue_wait)], true);
    latency_group(&mut out, "engine_stages", m.engine_stages.stages(), true);
    latency_group(&mut out, "session", m.sessions.phases(), false);
    out.push_str("  },\n");

    out.push_str("  \"sessions\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let (live_nodes, peak_nodes, live_bytes, peak_bytes, text_arena, created, purged) =
            row.live;
        let _ = write!(out, "    {{ \"id\": {}, \"query\": \"", row.id);
        esc_into(&mut out, &row.query_label);
        out.push_str("\", \"peer\": \"");
        esc_into(&mut out, &row.peer);
        let _ = write!(
            out,
            "\", \"age_ms\": {}, \"buffer\": {{ \"live_nodes\": {live_nodes}, \
             \"peak_nodes\": {peak_nodes}, \"live_bytes\": {live_bytes}, \
             \"peak_bytes\": {peak_bytes}, \"text_arena_bytes\": {text_arena}, \
             \"nodes_created\": {created}, \"nodes_purged\": {purged} }} }}",
            row.age_ms,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn esc(s: &str) -> String {
        let mut out = String::new();
        esc_into(&mut out, s);
        out
    }

    #[test]
    fn escaping() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("ctl\u{1}"), "ctl\\u0001");
    }

    #[test]
    fn latency_summary_shape() {
        let h = LatencyHistogram::new();
        h.record_nanos(1_500_000); // 1.5 ms
        let mut out = String::new();
        latency_summary(&mut out, "total", &h);
        assert!(out.starts_with("\"total\": { \"count\": 1,"), "{out}");
        assert!(out.contains("\"p50_us\": 1500"), "{out}");
        assert!(out.contains("\"max_us\": 1500"), "{out}");
    }
}
