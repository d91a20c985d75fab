//! End-to-end tests for request-scoped tracing: the `/trace` endpoint,
//! head-based sampling, retroactive slow-request keeps, and the
//! `tracing` section of `/stats` (schema `gcx-net-stats/7`).
//!
//! A trace's keep decision lands right *after* the last response byte is
//! on the wire, so a scrape over another connection (possibly another
//! worker) can race it. Each test therefore scrapes over the keep-alive
//! connection that carried the query: the server parses the next request
//! on a connection only once the previous one is fully finished.

mod support;
use support::validate_json;

use gcx_net::{client, http, GcxServer, NetConfig};
use std::time::Duration;

const QUERY: &str = "<r>{ for $b in /bib/book return $b/title }</r>";

fn make_doc(books: usize) -> Vec<u8> {
    let mut doc = String::from("<bib>");
    for i in 0..books {
        doc.push_str(&format!("<book><title>Title {i}</title></book>"));
    }
    doc.push_str("</bib>");
    doc.into_bytes()
}

fn query_path(query: &str) -> String {
    format!("/query?xq={}", http::percent_encode(query))
}

/// With `trace_sample_every = 1` every query is kept, and a single
/// request leaves a Perfetto-loadable export holding engine-stage spans
/// and buffer events stamped with input byte offsets.
#[test]
fn trace_export_holds_stage_spans_and_buffer_events() {
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            trace_sample_every: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut conn = client::HttpClient::connect(addr).unwrap();
    let doc = make_doc(400);
    let resp = conn.post(&query_path(QUERY), &doc).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.text());

    let trace = conn.get("/trace").unwrap();
    assert_eq!(trace.status, 200);
    assert_eq!(
        trace.header("content-type").map(str::trim),
        Some("application/json")
    );
    let text = trace.text();
    validate_json(&text).unwrap_or_else(|e| panic!("/trace not JSON: {e}\n{text}"));
    assert!(text.contains("\"traceEvents\":["), "{text}");
    // Request lifecycle spans from gcx-net.
    assert!(text.contains("\"name\":\"request\""), "{text}");
    assert!(text.contains("\"name\":\"head-parse\""), "{text}");
    assert!(text.contains("\"name\":\"first-byte\""), "{text}");
    assert!(text.contains("\"name\":\"flush\""), "{text}");
    // At least one sampled engine-stage span made it into the ring.
    let stages = ["lex", "skip", "match", "buffer", "emit", "queue-wait"];
    assert!(
        stages
            .iter()
            .any(|s| text.contains(&format!("\"name\":\"{s}\""))),
        "no engine-stage span in: {text}"
    );
    // Buffer events are unsampled: every buffered node records one, with
    // the input-stream byte offset in args.
    assert!(text.contains("\"name\":\"node-buffered\""), "{text}");
    // Trace-event shape, event by event: what Perfetto needs to load it.
    // (Every event opens with its `name`; string contents are escaped, so
    // the raw separator below only occurs between events.)
    let events: Vec<&str> = text.split("},{\"name\":").collect();
    assert!(events.len() > 10, "{text}");
    for event in &events {
        for key in ["\"ph\":", "\"pid\":", "\"tid\":"] {
            assert!(event.contains(key), "event missing {key}: {event}");
        }
        if event.contains("\"ph\":\"M\"") {
            continue; // metadata names lanes and kept traces
        }
        assert!(event.contains("\"ts\":"), "event missing ts: {event}");
        // Buffer events are instants stamped with the input byte offset.
        if event.starts_with("\"node-buffered\"") || event.starts_with("\"sign-off\"") {
            assert!(event.contains("\"ph\":\"i\""), "{event}");
            let offset = event.split_once("\"offset\":").expect("offset").1;
            assert!(offset.starts_with(|c: char| c.is_ascii_digit()), "{event}");
        }
    }

    // /stats reports the capture under the `tracing` section.
    let stats = conn.get("/stats").unwrap().text();
    validate_json(&stats).unwrap_or_else(|e| panic!("/stats not JSON: {e}\n{stats}"));
    assert!(stats.contains("\"schema\": \"gcx-net-stats/7\""), "{stats}");
    assert!(stats.contains("\"tracing\": {"), "{stats}");
    assert!(stats.contains("\"trace_sample_every\": 1,"), "{stats}");
    assert!(!stats.contains("\"traces_captured\": 0,"), "{stats}");
    server.shutdown();
}

/// The first query is always kept (sampling counts queries, not
/// requests), no matter how many non-query requests precede it.
#[test]
fn first_query_is_kept_despite_interleaved_requests() {
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            trace_sample_every: 1000,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    for _ in 0..3 {
        assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
        assert_eq!(client::get(addr, "/stats").unwrap().status, 200);
    }
    let mut conn = client::HttpClient::connect(addr).unwrap();
    let doc = make_doc(50);
    let resp = conn.post(&query_path(QUERY), &doc).unwrap();
    assert_eq!(resp.status, 200);
    let text = conn.get("/trace").unwrap().text();
    assert!(
        text.contains("\"name\":\"request\""),
        "first query not kept at sample_every=1000: {text}"
    );
    server.shutdown();
}

/// With sampling disabled entirely, a request over the slow threshold
/// is still kept retroactively and counted in `/stats`.
#[test]
fn slow_requests_are_kept_even_when_sampling_is_off() {
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            trace_sample_every: 0,
            slow_request_threshold: Some(Duration::ZERO),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut conn = client::HttpClient::connect(addr).unwrap();
    let doc = make_doc(50);
    let resp = conn.post(&query_path(QUERY), &doc).unwrap();
    assert_eq!(resp.status, 200);
    let text = conn.get("/trace").unwrap().text();
    validate_json(&text).unwrap_or_else(|e| panic!("/trace not JSON: {e}\n{text}"));
    assert!(text.contains("[slow]"), "slow trace not kept: {text}");
    let stats = conn.get("/stats").unwrap().text();
    assert!(stats.contains("\"trace_sample_every\": 0,"), "{stats}");
    assert!(stats.contains("\"slow_requests\": "), "{stats}");
    assert!(!stats.contains("\"slow_requests\": 0 "), "{stats}");
    server.shutdown();
}

/// Sampling off + fast requests: traces are minted but never kept, so
/// the export stays an empty shell (metadata-free, still valid JSON).
#[test]
fn unsampled_fast_requests_leave_no_kept_traces() {
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            trace_sample_every: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut conn = client::HttpClient::connect(addr).unwrap();
    let doc = make_doc(20);
    let resp = conn.post(&query_path(QUERY), &doc).unwrap();
    assert_eq!(resp.status, 200);
    let text = conn.get("/trace").unwrap().text();
    validate_json(&text).unwrap_or_else(|e| panic!("/trace not JSON: {e}\n{text}"));
    assert!(!text.contains("\"name\":\"request\""), "{text}");
    let stats = conn.get("/stats").unwrap().text();
    assert!(stats.contains("\"traces_captured\": 0,"), "{stats}");
    server.shutdown();
}
