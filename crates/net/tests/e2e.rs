//! End-to-end wire tests: a real server on an ephemeral port, real
//! sockets, concurrent clients, disconnects — asserting byte-identical
//! output vs the in-process engine, clean cancellation and live `/stats`
//! sampling. (The fixed-thread-count check lives in `threads.rs`: it
//! counts the whole process, so it needs a test binary to itself.)

use gcx_net::{client, http, GcxServer, NetConfig};
use gcx_xml::TagInterner;
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
    // Exposition format: TYPE lines, counters, histogram series.
    assert!(text.contains("# TYPE gcx_requests_total counter"), "{text}");
    assert!(
        text.contains("# TYPE gcx_request_duration_seconds histogram"),
        "{text}"
    );
    assert!(text.contains("gcx_sessions_completed_total 3"), "{text}");
    assert!(
        metric_value(&text, "gcx_request_duration_seconds_count{class=\"query\"}") >= 1,
        "query latency series non-empty after traffic: {text}"
    );
    assert!(
        metric_value(&text, "gcx_request_ttfb_seconds_count{class=\"all\"}") >= 1,
        "{text}"
    );
    assert!(
        metric_value(&text, "gcx_conn_queue_wait_seconds_count{class=\"all\"}") >= 1,
        "{text}"
    );
    assert!(
        metric_value(
            &text,
            "gcx_engine_stage_duration_seconds_count{stage=\"lex\"}"
        ) >= 1,
        "sampled engine stages populated: {text}"
    );
    assert!(
        metric_value(
            &text,
            "gcx_session_phase_duration_seconds_count{phase=\"run\"}"
        ) >= 1,
        "{text}"
    );
    assert!(
        text.contains("gcx_request_duration_seconds_bucket{class=\"query\",le=\"+Inf\"}"),
        "{text}"
    );
    // Every non-comment line is `name[{labels}] value`.
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("series and value");
        assert!(!series.is_empty(), "bad line: {line}");
        assert!(value.parse::<f64>().is_ok(), "bad value in line: {line}");
    }
    // /stats serves the same quantiles in the schema-3 latency section.
    let stats = client::get(addr, "/stats").unwrap().text();
    assert!(stats.contains("\"schema\": \"gcx-net-stats/5\""), "{stats}");
    assert!(stats.contains("\"latency\""), "{stats}");
    assert!(stats.contains("\"engine_stages\""), "{stats}");
    assert!(stats.contains("\"p99_us\""), "{stats}");
    assert!(stats.contains("\"queue_wait\""), "{stats}");
    server.shutdown();
}

/// The integer value of one exposition series, 0 when absent.
fn metric_value(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series))
        .and_then(|rest| rest.trim().parse::<u64>().ok())
        .unwrap_or(0)
}

/// True when the JSON text contains `"name": <positive integer>`.
fn has_positive_field(json: &str, name: &str) -> bool {
    let needle = format!("\"{name}\": ");
    json.match_indices(&needle).any(|(i, _)| {
        let rest = &json[i + needle.len()..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse::<u64>().map(|v| v > 0).unwrap_or(false)
    })
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
