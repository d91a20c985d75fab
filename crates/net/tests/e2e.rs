//! End-to-end wire tests: a real server on an ephemeral port, real
//! sockets, concurrent clients, disconnects — asserting byte-identical
//! output vs the in-process engine, clean cancellation, live `/stats`
//! sampling, and that `/stats` and `/metrics` render one metric table.
//! (The fixed-thread-count check lives in `threads.rs`: it counts the
//! whole process, so it needs a test binary to itself.)

mod support;
use support::{parse_json, Json};

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

/// `section.key` of a parsed `/stats` document.
fn stat<'a>(stats: &'a Json, section: &str, key: &str) -> &'a Json {
    stats
        .get(section)
        .and_then(|s| s.get(key))
        .unwrap_or_else(|| panic!("no {section}.{key} in {stats:?}"))
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
        let resp = client::get(addr, "/stats").unwrap();
        assert_eq!(resp.status, 200);
        let stats = parse_json(&resp.text()).expect("/stats is JSON");
        assert_eq!(
            stats.get("schema"),
            Some(&Json::Str("gcx-net-stats/7".into()))
        );
        // A live (mid-stream!) session whose engine has already created
        // buffer nodes — the sampling the finish()-only reports could
        // never give us.
        let Some(Json::Arr(sessions)) = stats.get("sessions") else {
            panic!("no sessions[] in {stats:?}")
        };
        let buffer = sessions.first().and_then(|s| s.get("buffer"));
        let created = buffer.and_then(|b| b.get("nodes_created")?.num());
        if sessions.len() == 1 && created > Some(0.0) {
            let buffer = buffer.unwrap();
            assert!(buffer.get("peak_nodes").is_some(), "{stats:?}");
            assert!(buffer.get("text_arena_bytes").is_some(), "{stats:?}");
            assert_eq!(stat(&stats, "server", "active_sessions").num(), Some(1.0));
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
    let text = client::get(addr, "/stats").unwrap().text();
    let stats = parse_json(&text).expect("/stats is JSON");
    assert_eq!(stat(&stats, "server", "active_sessions").num(), Some(0.0));
    assert_eq!(
        stat(&stats, "server", "sessions_completed").num(),
        Some(1.0)
    );
    assert_eq!(
        stats.get("sessions"),
        Some(&Json::Arr(Vec::new())),
        "{text}"
    );
    server.shutdown();
}

/// A parsed Prometheus exposition: the `# TYPE` of every family
/// (asserting no name is declared twice) and the value of every series
/// line, keyed by `name{labels}`.
struct Exposition<'t> {
    types: HashMap<&'t str, &'t str>,
    series: HashMap<&'t str, f64>,
}

fn parse_exposition(text: &str) -> Exposition<'_> {
    // Exposition grammar: a comment line is `# HELP name text` or
    // `# TYPE name kind`, every other line `name[{labels}] value`.
    let is_name = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let mut types = HashMap::new();
    let mut series = HashMap::new();
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
                let prev = types.insert(name, parts.next().unwrap_or(""));
                assert!(prev.is_none(), "{name} declared twice");
            }
            continue;
        }
        let (key, value) = line.rsplit_once(' ').expect("series and value");
        let name = key.split_once('{').map_or(key, |(name, labels)| {
            assert!(labels.ends_with('}'), "bad labels in line: {line}");
            name
        });
        assert!(is_name(name), "bad series name in line: {line}");
        let value = value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("bad value in line: {line}"));
        assert!(series.insert(key, value).is_none(), "{key} twice");
    }
    Exposition { types, series }
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
    let Exposition { types, series } = parse_exposition(&text);
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
        // … the flight recorder's …
        ("gcx_traces_captured_total", "counter"),
        ("gcx_trace_spans_dropped_total", "counter"),
        ("gcx_slow_requests_total", "counter"),
        // … and the paper's "every assigned role returned".
        ("gcx_role_imbalance_total", "counter"),
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
        ("gcx_peak_nodes_max", 1.0),
        ("gcx_process_uptime_seconds", 0.0),
    ] {
        let value = series.get(key).copied();
        assert!(value >= Some(at_least), "{key} = {value:?}: {text}");
    }
    // A fault-free run sheds, errors, caps, panics and leaks nothing —
    // in particular, every role the sessions assigned was signed off.
    for key in [
        "gcx_role_imbalance_total",
        "gcx_requests_shed_total",
        "gcx_accept_errors_total",
        "gcx_evaluator_panics_total",
        "gcx_sessions_output_capped_total",
        "gcx_sessions_failed_total",
    ] {
        assert_eq!(series.get(key), Some(&0.0), "{key}: {text}");
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
    server.shutdown();
}

/// The contract that replaces hand-kept key lists: `/stats` and
/// `/metrics` are two renderings of one table. On a quiescent server
/// every Prometheus family appears in `/stats` exactly once, under the
/// key its name derives to (`gcx_` and `_total` dropped), and every
/// `/stats` number is a series with the same value. Counters and uptime
/// only grow, so `/stats` is rendered between two `/metrics` renders
/// and must lie between them.
#[test]
fn stats_and_metrics_render_one_table() {
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            // A budget, so its section is part of the contract too.
            service: gcx_service::ServiceConfig {
                memory_budget: Some(1 << 20),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let doc = make_doc(200);
    for query in [QUERY, QUERY2, QUERY] {
        let resp = client::post(addr, &query_path(query), &doc).unwrap();
        assert_eq!(resp.status, 200);
    }
    assert_eq!(client::get(addr, "/nowhere").unwrap().status, 404);
    let quiescent = || {
        let text = server.metrics_text();
        let series = parse_exposition(&text).series;
        [
            "gcx_open_connections",
            "gcx_active_sessions",
            "gcx_evaluator_pool_active",
        ]
        .iter()
        .all(|g| series.get(g) == Some(&0.0))
    };
    for _ in 0..1000 {
        if quiescent() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(quiescent(), "server never went quiet");

    let before_text = server.metrics_text();
    let stats_text = server.stats_json();
    let after_text = server.metrics_text();
    let before = parse_exposition(&before_text);
    let after = parse_exposition(&after_text);
    let stats = parse_json(&stats_text).unwrap_or_else(|e| panic!("{e}\n{stats_text}"));
    let Json::Obj(members) = &stats else {
        panic!("/stats is not an object: {stats_text}")
    };
    let mut seen: HashMap<String, &str> = HashMap::new();
    for (section, body) in members {
        let Json::Obj(entries) = body else {
            assert!(
                matches!(section.as_str(), "schema" | "sessions"),
                "{section} is not a section"
            );
            continue;
        };
        for (key, value) in entries {
            let name = [format!("gcx_{key}"), format!("gcx_{key}_total")]
                .into_iter()
                .find(|n| before.types.contains_key(n.as_str()))
                .unwrap_or_else(|| panic!("{section}.{key} has no /metrics series"));
            let kind = before.types[name.as_str()];
            let prev = seen.insert(name.clone(), section.as_str());
            assert!(prev.is_none(), "{name} in /stats twice: {section}.{key}");
            match value {
                Json::Num(v) => {
                    let lo = before.series.get(name.as_str());
                    let hi = after.series.get(name.as_str());
                    assert!(
                        lo <= Some(v) && Some(v) <= hi,
                        "{section}.{key} = {v}, {name} = {lo:?}..{hi:?}"
                    );
                }
                // A histogram family: per-member counts agree too.
                Json::Obj(family) if kind == "histogram" => {
                    for (member, summary) in family {
                        let count = summary.get("count").and_then(Json::num);
                        let prefix = format!("{name}_count{{");
                        let suffix = format!("=\"{member}\"}}");
                        let series = |e: &Exposition| {
                            e.series
                                .iter()
                                .find(|(k, _)| k.starts_with(&prefix) && k.ends_with(&suffix))
                                .map(|(_, v)| *v)
                        };
                        assert!(
                            series(&before) <= count && count <= series(&after),
                            "{section}.{key}.{member}.count = {count:?}"
                        );
                    }
                }
                // Build identity: a labelled gauge, an object of strings.
                _ => assert_eq!(kind, "gauge", "{section}.{key}"),
            }
        }
    }
    // … and nothing exported to Prometheus is missing from /stats.
    let mut missing: Vec<_> = before
        .types
        .keys()
        .filter(|n| !seen.contains_key(**n))
        .collect();
    missing.sort();
    assert!(missing.is_empty(), "not in /stats: {missing:?}");
    assert_eq!(
        stat(&stats, "server", "sessions_completed").num(),
        Some(3.0)
    );
    server.shutdown();
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
    let stats = parse_json(&client::get(addr, "/stats").unwrap().text()).unwrap();
    assert_eq!(
        stat(&stats, "budget", "budget_limit_bytes").num(),
        Some(262_144.0)
    );
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
