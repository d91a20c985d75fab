//! End-to-end wire tests: a real server on an ephemeral port, real
//! sockets, concurrent clients, disconnects — asserting byte-identical
//! output vs the in-process engine, clean cancellation and live `/stats`
//! sampling. (The fixed-thread-count check lives in `threads.rs`: it
//! counts the whole process, so it needs a test binary to itself.)

mod support;
use support::validate_json;

use gcx_net::{client, http, GcxServer, NetConfig};
use gcx_xml::TagInterner;
use std::collections::HashMap;
use std::time::Duration;

const QUERY: &str = "<r>{ for $b in /bib/book return $b/title }</r>";
const QUERY2: &str =
    "<r>{ for $b in /bib/book return if (exists($b/price)) then $b/title else () }</r>";

fn reference_output(query: &str, doc: &[u8]) -> Vec<u8> {
    let mut tags = TagInterner::new();
    let compiled = gcx_query::compile_default(query, &mut tags).expect("compile");
    let mut out = Vec::new();
    gcx_core::run_gcx(&compiled, &mut tags, doc, &mut out).expect("run");
    out
}

fn make_doc(books: usize) -> Vec<u8> {
    let mut doc = String::from("<bib>");
    for i in 0..books {
        doc.push_str(&format!(
            "<book><title>Title {i}</title>{}</book>",
            if i % 2 == 0 { "<price>9</price>" } else { "" }
        ));
    }
    doc.push_str("</bib>");
    doc.into_bytes()
}

fn query_path(query: &str) -> String {
    format!("/query?xq={}", http::percent_encode(query))
}

#[test]
fn single_request_matches_in_process_engine() {
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(50);
    let resp = client::post(addr, &query_path(QUERY), &doc).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    assert_eq!(resp.body, reference_output(QUERY, &doc));
    assert_eq!(server.active_sessions(), 0, "registry drained");
    server.shutdown();
}

#[test]
fn named_query_and_health_endpoints() {
    let config = NetConfig {
        queries: vec![("titles".to_string(), QUERY.to_string())],
        ..Default::default()
    };
    let server = GcxServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(3);
    let resp = client::post(addr, "/query?name=titles", &doc).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, reference_output(QUERY, &doc));
    let missing = client::post(addr, "/query?name=nope", &doc).unwrap();
    assert_eq!(missing.status, 404);
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    let nowhere = client::get(addr, "/nowhere").unwrap();
    assert_eq!(nowhere.status, 404);
    server.shutdown();
}

#[test]
fn compile_error_yields_400_and_stream_error_yields_422() {
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let bad_query = client::post(addr, &query_path("<r>{ $undefined }</r>"), b"<a/>").unwrap();
    assert_eq!(bad_query.status, 400);
    assert!(bad_query.text().contains("compile"), "{}", bad_query.text());
    // Malformed XML whose error surfaces before any output byte.
    let bad_doc = client::post(addr, &query_path(QUERY), b"</nope>").unwrap();
    assert_eq!(bad_doc.status, 422, "body: {}", bad_doc.text());
    assert_eq!(server.active_sessions(), 0);
    server.shutdown();
}

#[test]
fn eight_concurrent_clients_mixed_queries_and_chunked_uploads() {
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            workers: 4,
            evaluators: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let doc = make_doc(400);
    let expected_q1 = reference_output(QUERY, &doc);
    let expected_q2 = reference_output(QUERY2, &doc);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let doc = &doc;
                scope.spawn(move || {
                    let query = if i % 2 == 0 { QUERY } else { QUERY2 };
                    if i % 3 == 0 {
                        // Streamed chunked upload in small pieces.
                        let mut ps = client::PostStream::open(addr, &query_path(query)).unwrap();
                        for chunk in doc.chunks(1024) {
                            ps.send_chunk(chunk).unwrap();
                        }
                        (i, ps.finish().unwrap())
                    } else {
                        (i, client::post(addr, &query_path(query), doc).unwrap())
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, resp) in results {
        assert_eq!(resp.status, 200, "client {i}");
        let expected = if i % 2 == 0 {
            &expected_q1
        } else {
            &expected_q2
        };
        assert_eq!(
            resp.body, *expected,
            "client {i}: wire output must be byte-identical to run_gcx"
        );
    }
    assert_eq!(server.active_sessions(), 0, "all sessions unregistered");
    assert_eq!(
        server
            .counters()
            .sessions_completed
            .load(std::sync::atomic::Ordering::Relaxed),
        8
    );
    server.shutdown();
}

#[test]
fn mid_stream_disconnect_cancels_session_cleanly() {
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(100);
    {
        let mut ps = client::PostStream::open(addr, &query_path(QUERY)).unwrap();
        ps.send_chunk(&doc[..doc.len() / 2]).unwrap();
        // Give the server time to open the session and start evaluating.
        for _ in 0..200 {
            if server.active_sessions() > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.active_sessions(), 1, "session is live mid-stream");
        // Drop without finishing: mid-stream client disconnect.
    }
    for _ in 0..500 {
        if server.active_sessions() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        server.active_sessions(),
        0,
        "disconnect cancels the session"
    );
    assert_eq!(
        server
            .counters()
            .sessions_failed
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // The server still serves new requests afterwards.
    let resp = client::post(addr, &query_path(QUERY), &doc).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, reference_output(QUERY, &doc));
    server.shutdown();
}

#[test]
fn stats_report_live_mid_stream_buffer_figures() {
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(100);
    let mut ps = client::PostStream::open(addr, &query_path(QUERY)).unwrap();
    // Feed only part of the document — the session stays open.
    ps.send_chunk(&doc[..doc.len() / 2]).unwrap();
    let mut saw_live_session = false;
    for _ in 0..500 {
        let stats = client::get(addr, "/stats").unwrap();
        assert_eq!(stats.status, 200);
        let json = stats.text();
        assert!(json.contains("\"schema\": \"gcx-net-stats/5\""));
        // A live (mid-stream!) session whose engine has already created
        // buffer nodes — the sampling the finish()-only reports could
        // never give us.
        if json.contains("\"active_sessions\": 1") && has_positive_field(&json, "nodes_created") {
            assert!(json.contains("\"peak_nodes\""));
            assert!(json.contains("\"text_arena_bytes\""));
            saw_live_session = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(saw_live_session, "live session stats never appeared");
    ps.send_chunk(&doc[doc.len() / 2..]).unwrap();
    let resp = ps.finish().unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, reference_output(QUERY, &doc));
    // After completion the registry is empty again and counters moved.
    let stats = client::get(addr, "/stats").unwrap().text();
    assert!(stats.contains("\"active_sessions\": 0"), "{stats}");
    assert!(stats.contains("\"sessions_completed\": 1"), "{stats}");
    server.shutdown();
}

#[test]
fn metrics_exposition_covers_requests_stages_and_sessions() {
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    // Large enough that the sampled stage timers (1 in 512 pump steps)
    // fire several times per request.
    let doc = make_doc(200);
    for _ in 0..3 {
        let resp = client::post(addr, &query_path(QUERY), &doc).unwrap();
        assert_eq!(resp.status, 200);
    }
    let metrics = client::get(addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    // Exposition grammar: a comment line is `# HELP name text` or
    // `# TYPE name kind`, every other line `name[{labels}] value`.
    let is_name = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let mut types: HashMap<&str, &str> = HashMap::new();
    let mut series: HashMap<&str, f64> = HashMap::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        if line.starts_with('#') {
            let mut parts = line.splitn(4, ' ');
            let (hash, kind) = (parts.next(), parts.next().unwrap_or(""));
            let name = parts.next().unwrap_or("");
            assert!(
                hash == Some("#") && matches!(kind, "HELP" | "TYPE") && is_name(name),
                "malformed comment line: {line}"
            );
            if kind == "TYPE" {
                types.insert(name, parts.next().unwrap_or(""));
            }
            continue;
        }
        let (key, value) = line.rsplit_once(' ').expect("series and value");
        let name = key.split_once('{').map_or(key, |(name, labels)| {
            assert!(labels.ends_with('}'), "bad labels in line: {line}");
            name
        });
        assert!(is_name(name), "bad series name in line: {line}");
        let value = value.parse::<f64>();
        series.insert(
            key,
            value.unwrap_or_else(|_| panic!("bad value in line: {line}")),
        );
    }
    for (name, kind) in [
        ("gcx_requests_total", "counter"),
        ("gcx_request_duration_seconds", "histogram"),
        ("gcx_engine_stage_duration_seconds", "histogram"),
        // The five counters `benchmark/` reads by name …
        ("gcx_evaluator_steps_total", "counter"),
        ("gcx_session_yields_total", "counter"),
        ("gcx_epoll_wakeups_total", "counter"),
        ("gcx_bytes_out_total", "counter"),
        ("gcx_requests_shed_total", "counter"),
        // … and the flight recorder's.
        ("gcx_traces_captured_total", "counter"),
        ("gcx_trace_spans_dropped_total", "counter"),
        ("gcx_slow_requests_total", "counter"),
    ] {
        assert_eq!(types.get(name), Some(&kind), "{name}");
        if kind == "counter" {
            assert!(series.contains_key(name), "no series for {name}");
        }
    }
    // The traffic shows in every layer's series. A request's own
    // histograms are recorded after its last byte is on the wire, so a
    // scrape over another connection may miss the latest one.
    for (key, at_least) in [
        ("gcx_sessions_completed_total", 3.0),
        ("gcx_request_duration_seconds_count{class=\"query\"}", 1.0),
        ("gcx_request_ttfb_seconds_count{class=\"all\"}", 1.0),
        ("gcx_conn_queue_wait_seconds_count{class=\"all\"}", 1.0),
        (
            "gcx_session_phase_duration_seconds_count{phase=\"run\"}",
            1.0,
        ),
        (
            "gcx_engine_stage_duration_seconds_count{stage=\"lex\"}",
            1.0,
        ),
        ("gcx_evaluator_steps_total", 3.0),
        ("gcx_epoll_wakeups_total", 1.0),
        ("gcx_bytes_out_total", 1.0),
        ("gcx_traces_captured_total", 1.0),
        ("gcx_process_uptime_seconds", 0.0),
    ] {
        let value = series.get(key).copied();
        assert!(value >= Some(at_least), "{key} = {value:?}: {text}");
    }
    // Build identity: one labelled gauge.
    let build: Vec<_> = series
        .iter()
        .filter(|(k, _)| k.starts_with("gcx_build_info{"))
        .collect();
    assert!(
        matches!(build[..], [(k, v)] if k.contains("version=\"") && k.contains("git=\"") && *v == 1.0),
        "{build:?}"
    );
    // Every series of every histogram family closes with a `+Inf`
    // bucket equal to its `_count`.
    let mut families = 0;
    for (name, _) in types.iter().filter(|(_, kind)| **kind == "histogram") {
        let count_prefix = format!("{name}_count");
        let counts: Vec<_> = series
            .iter()
            .filter_map(|(k, v)| Some((k.strip_prefix(&count_prefix)?, v)))
            .collect();
        assert!(!counts.is_empty(), "histogram {name} has no series");
        for (labels, count) in counts {
            let inner = labels.trim_start_matches('{').trim_end_matches('}');
            let sep = if inner.is_empty() { "" } else { "," };
            let inf = format!("{name}_bucket{{{inner}{sep}le=\"+Inf\"}}");
            assert_eq!(series.get(inf.as_str()), Some(count), "{inf}");
        }
        families += 1;
    }
    assert!(families >= 5, "only {families} histogram families: {text}");

    // /stats: well-formed, every key of every fixed section present and
    // integral, and the latency groups carry the same traffic.
    let stats = client::get(addr, "/stats").unwrap().text();
    validate_json(&stats).unwrap_or_else(|e| panic!("/stats not JSON: {e}\n{stats}"));
    assert!(stats.contains("\"schema\": \"gcx-net-stats/5\""), "{stats}");
    let line_of = |section: &str| {
        let needle = format!("\"{section}\": {{");
        stats
            .lines()
            .find(|l| l.trim_start().starts_with(&needle))
            .unwrap_or_else(|| panic!("no {section} section in {stats}"))
    };
    #[rustfmt::skip]
    let sections: [(&str, &[&str]); 4] = [
        ("server", &[
            "workers", "evaluators", "threads", "uptime_s", "active_sessions",
            "open_connections", "connections", "requests", "sessions_completed",
            "sessions_failed", "sessions_output_capped", "bytes_in", "bytes_out",
            "tokens_read_total", "peak_nodes_max", "connections_shed",
            "accept_errors", "evaluator_panics",
        ]),
        ("scheduler", &[
            "evaluators", "steps", "yields", "queued", "active", "panics",
            "epoll_wakeups",
        ]),
        ("service", &[
            "cache_hits", "cache_misses", "cache_evictions", "sessions_opened",
            "cached_queries", "registered_queries", "interner_rebuilds",
            "master_interner_len",
        ]),
        ("tracing", &["traces_captured", "spans_dropped", "slow_requests", "sample_every"]),
    ];
    for (section, keys) in sections {
        for key in keys {
            assert_eq!(
                int_fields(line_of(section), key).len(),
                1,
                "{section}.{key}"
            );
        }
    }
    let server_field = |key: &str| int_fields(line_of("server"), key)[0];
    assert_eq!(server_field("sessions_completed"), 3, "{stats}");
    assert!(server_field("peak_nodes_max") >= 1, "{stats}");
    // A fault-free run sheds, errors, caps and panics nothing.
    for key in [
        "connections_shed",
        "accept_errors",
        "evaluator_panics",
        "sessions_output_capped",
        "sessions_failed",
    ] {
        assert_eq!(server_field(key), 0, "{key}: {stats}");
    }
    assert!(int_fields(line_of("scheduler"), "steps")[0] >= 3, "{stats}");
    assert!(
        int_fields(line_of("scheduler"), "epoll_wakeups")[0] >= 1,
        "{stats}"
    );
    assert!(
        int_fields(line_of("tracing"), "traces_captured")[0] >= 1,
        "{stats}"
    );
    assert!(stats.contains("\"budget\": null"), "{stats}");
    assert!(stats.contains("\"sessions\": ["), "{stats}");
    for group in ["requests", "ttfb", "queue_wait", "engine_stages", "session"] {
        let line = line_of(group);
        let members = int_fields(line, "count").len();
        assert!(members >= 1, "{group}: {line}");
        for key in ["mean_us", "p50_us", "p90_us", "p99_us", "max_us"] {
            assert_eq!(int_fields(line, key).len(), members, "{group}.{key}");
        }
    }
    let member_count = |group: &str, member: &str| {
        let line = line_of(group);
        let at = line.find(&format!("\"{member}\": {{")).expect(member);
        int_fields(&line[at..], "count")[0]
    };
    assert!(member_count("requests", "query") >= 1, "{stats}");
    assert!(member_count("engine_stages", "lex") >= 1, "{stats}");
    assert!(member_count("session", "run") >= 1, "{stats}");
    server.shutdown();
}

/// Every value of `"key": <value>` in `json`, each of which must be a
/// bare non-negative integer.
fn int_fields(json: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\": ");
    json.match_indices(&needle)
        .map(|(i, _)| {
            let rest = &json[i + needle.len()..];
            let end = rest.find([',', ' ', '}']).unwrap_or(rest.len());
            rest[..end]
                .parse()
                .unwrap_or_else(|_| panic!("{key} is not integral: {:?}", &rest[..end]))
        })
        .collect()
}

/// True when the JSON text contains `"name": <positive integer>`.
fn has_positive_field(json: &str, name: &str) -> bool {
    int_fields(json, name).iter().any(|&v| v > 0)
}

#[test]
fn document_larger_than_memory_budget_streams_through() {
    // The acceptance shape: a document far larger than the global memory
    // budget flows end to end because the engine buffer stays minimized
    // and I/O is bounded — the budget only trips if buffering actually
    // grows, which GCX prevents.
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            service: gcx_service::ServiceConfig {
                memory_budget: Some(256 * 1024),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let doc = make_doc(40_000); // ~1.8 MB, 7× the budget
    assert!(doc.len() > 4 * 256 * 1024);
    let ps = client::PostStream::open(addr, &query_path(QUERY)).unwrap();
    let chunks: Vec<Vec<u8>> = doc.chunks(32 * 1024).map(<[u8]>::to_vec).collect();
    let resp = ps.stream_and_finish(chunks).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, reference_output(QUERY, &doc));
    let stats = client::get(addr, "/stats").unwrap().text();
    assert!(stats.contains("\"budget\": { \"limit\": 262144"), "{stats}");
    server.shutdown();
}

#[test]
fn shutdown_with_connection_in_flight_does_not_hang() {
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(50);
    let mut ps = client::PostStream::open(addr, &query_path(QUERY)).unwrap();
    ps.send_chunk(&doc[..100]).unwrap();
    for _ in 0..200 {
        if server.active_sessions() > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    server.shutdown(); // must cancel the in-flight session and join
    drop(ps);
}
