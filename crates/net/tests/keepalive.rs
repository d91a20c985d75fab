//! Keep-alive / pipelining end-to-end tests: one real connection serving
//! many requests with byte-identical results, error responses that leave
//! the connection reusable, pipelined requests answered in order,
//! HTTP/1.0 and `Connection: close` clients, the per-connection request
//! cap, and never-draining clients dropped by `idle_timeout` with
//! response bytes still unsent (`sessions_output_capped`).

use gcx_net::{client, http, GcxServer, NetConfig};
use gcx_xml::TagInterner;
use std::io::{Read, Write};
use std::sync::atomic::Ordering;
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
fn sequential_requests_on_one_connection_byte_identical() {
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(60);
    let expected_q1 = reference_output(QUERY, &doc);
    let expected_q2 = reference_output(QUERY2, &doc);
    let mut client = client::HttpClient::connect(addr).unwrap();
    for i in 0..6 {
        let (path, expected) = if i % 2 == 0 {
            (query_path(QUERY), &expected_q1)
        } else {
            (query_path(QUERY2), &expected_q2)
        };
        let resp = client.post(&path, &doc).unwrap();
        assert_eq!(resp.status, 200, "request {i}: {}", resp.text());
        assert_eq!(
            resp.header("connection"),
            Some("keep-alive"),
            "request {i} keeps the connection"
        );
        assert_eq!(
            resp.body, *expected,
            "request {i}: wire output must be byte-identical to run_gcx"
        );
    }
    // GET endpoints ride the same connection too.
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    let json = stats.text();
    // The whole point: one connection, many requests.
    let connections = server.counters().connections.load(Ordering::Relaxed);
    let requests = server.counters().requests.load(Ordering::Relaxed);
    assert_eq!(connections, 1, "single TCP connection accepted");
    assert_eq!(requests, 8, "eight requests over it");
    assert!(json.contains("\"connections\": 1"), "{json}");
    assert!(json.contains("\"requests\": 8"), "{json}");
    assert_eq!(
        server.active_sessions(),
        0,
        "per-request sessions torn down"
    );
    server.shutdown();
}

#[test]
fn xmark_suite_on_one_connection_byte_identical() {
    // The acceptance shape: the real benchmark queries (Q1/Q6/Q13/Q20)
    // over a real XMark document, all on a single keep-alive
    // connection, each response byte-identical to the offline engine.
    let mut doc = Vec::new();
    gcx_xmark::generate(
        gcx_xmark::XmarkConfig {
            seed: 42,
            scale: 0.25,
        },
        &mut doc,
    )
    .expect("xmark generation");
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = client::HttpClient::connect(addr).unwrap();
    for qname in ["Q1", "Q6", "Q13", "Q20"] {
        let query = gcx_xmark::by_name(qname).expect("benchmark query");
        let expected = reference_output(query, &doc);
        let resp = client.post(&query_path(query), &doc).unwrap();
        assert_eq!(resp.status, 200, "{qname}: {}", resp.text());
        assert_eq!(
            resp.body, expected,
            "{qname}: wire output differs from run_gcx"
        );
    }
    assert_eq!(server.counters().connections.load(Ordering::Relaxed), 1);
    assert_eq!(server.counters().requests.load(Ordering::Relaxed), 4);
    server.shutdown();
}

#[test]
fn error_response_leaves_connection_reusable() {
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(20);
    let expected = reference_output(QUERY, &doc);
    let mut client = client::HttpClient::connect(addr).unwrap();
    // 1. Unknown registered query: early 404 while the body is still on
    //    the wire — the server must drain it and keep the connection.
    let resp = client.post("/query?name=missing", &doc).unwrap();
    assert_eq!(resp.status, 404);
    // 2. Compile error: early 400, same drain-and-keep path.
    let resp = client
        .post(&query_path("<r>{ $undefined }</r>"), &doc)
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    // 3. Malformed document: the session fails *after* the full upload
    //    was consumed, so the 422 can keep the connection too.
    let resp = client.post(&query_path(QUERY), b"</nope>").unwrap();
    assert_eq!(resp.status, 422, "{}", resp.text());
    // 4. The same connection still serves a correct result.
    let resp = client.post(&query_path(QUERY), &doc).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.body, expected);
    assert_eq!(
        server.counters().connections.load(Ordering::Relaxed),
        1,
        "every request (including the failed ones) shared one connection"
    );
    server.shutdown();
}

#[test]
fn pipelined_requests_answered_in_order() {
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(30);
    let expected_q1 = reference_output(QUERY, &doc);
    let expected_q2 = reference_output(QUERY2, &doc);
    let mut client = client::HttpClient::connect(addr).unwrap();
    // Write both requests back to back before reading any response —
    // the second request's bytes land in the server's buffer while it
    // is still answering the first, and must not be dropped.
    client.send_post(&query_path(QUERY), &doc).unwrap();
    client.send_post(&query_path(QUERY2), &doc).unwrap();
    let first = client.read_response().unwrap();
    let second = client.read_response().unwrap();
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(second.status, 200, "{}", second.text());
    assert_eq!(first.body, expected_q1, "responses arrive in request order");
    assert_eq!(second.body, expected_q2);
    assert_eq!(server.counters().connections.load(Ordering::Relaxed), 1);
    assert_eq!(server.counters().requests.load(Ordering::Relaxed), 2);
    server.shutdown();
}

#[test]
fn http10_and_connection_close_clients_still_served() {
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(25);
    let expected = reference_output(QUERY, &doc);

    // HTTP/1.0: no chunked coding — the response body is close-delimited.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "POST {} HTTP/1.0\r\nHost: gcx\r\nContent-Length: {}\r\n\r\n",
        query_path(QUERY),
        doc.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(&doc).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(
        text.to_ascii_lowercase().contains("connection: close"),
        "HTTP/1.0 responses must close: {text}"
    );
    assert!(
        !text.to_ascii_lowercase().contains("transfer-encoding"),
        "HTTP/1.0 cannot take chunked responses: {text}"
    );
    let body_start = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("head terminator")
        + 4;
    assert_eq!(&raw[body_start..], &expected[..], "close-delimited body");

    // HTTP/1.1 + `Connection: close`: framed as usual, socket closed
    // after the response.
    let resp = client::post(addr, &query_path(QUERY), &doc).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("connection"), Some("close"));
    assert_eq!(resp.body, expected);
    server.shutdown();
}

#[test]
fn max_requests_per_connection_enforced() {
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            max_requests_per_conn: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let doc = make_doc(10);
    let mut client = client::HttpClient::connect(addr).unwrap();
    let first = client.post(&query_path(QUERY), &doc).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("connection"), Some("keep-alive"));
    let second = client.post(&query_path(QUERY), &doc).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(
        second.header("connection"),
        Some("close"),
        "the request hitting the cap is answered with Connection: close"
    );
    // The socket is gone afterwards; a third request fails.
    let third = client.post(&query_path(QUERY), &doc);
    assert!(third.is_err(), "connection must be closed after the cap");
    server.shutdown();
}

#[test]
fn keep_alive_idle_timeout_closes_parked_connection() {
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            keep_alive_timeout: Duration::from_millis(150),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let doc = make_doc(10);
    let mut client = client::HttpClient::connect(addr).unwrap();
    let resp = client.post(&query_path(QUERY), &doc).unwrap();
    assert_eq!(resp.status, 200);
    // Park well past the keep-alive timeout; the server reclaims the
    // idle connection (mid-request idleness keeps the long timeout).
    std::thread::sleep(Duration::from_millis(800));
    let reused = client.post(&query_path(QUERY), &doc);
    assert!(
        reused.is_err(),
        "idle keep-alive connection must have been closed"
    );
    // Fresh connections are unaffected.
    let resp = client::post(addr, &query_path(QUERY), &doc).unwrap();
    assert_eq!(resp.status, 200);
    server.shutdown();
}

#[test]
fn never_draining_client_hits_output_cap_without_hurting_others() {
    // Amplifying query: each book is emitted 64 times, so a modest
    // upload produces tens of megabytes the client refuses to read —
    // far beyond what loopback TCP buffering can absorb, so the
    // backpressure genuinely reaches the session.
    let amplify = format!(
        "<r>{{ for $b in /bib/book return ({}) }}</r>",
        vec!["$b"; 64].join(", ")
    );
    let amplify = amplify.as_str();
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            output_high_water: 16 * 1024,
            // The evaluator parks at the high-water mark, so undrained
            // output stays bounded; the dead client is detected at the
            // connection level once it makes no progress for
            // `idle_timeout` with response bytes stuck in the send
            // buffer. Short timeout so the test is quick.
            idle_timeout: Duration::from_secs(2),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let doc = make_doc(10_000); // ~460 KB upload, ~3.6 MB potential output
    let expected = reference_output(QUERY, &doc);

    // The never-draining client: upload the document, then stop reading.
    let mut stuck = std::net::TcpStream::connect(addr).unwrap();
    let head = format!(
        "POST {} HTTP/1.1\r\nHost: gcx\r\nContent-Length: {}\r\n\r\n",
        query_path(amplify),
        doc.len()
    );
    stuck.write_all(head.as_bytes()).unwrap();
    stuck.write_all(&doc).unwrap();
    // Never read. The server's send path backs up, the session parks on
    // its output high-water mark, and after `idle_timeout` without
    // progress the connection is dropped with the failure attributed to
    // the output cap.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let capped = server
            .counters()
            .sessions_output_capped
            .load(Ordering::Relaxed);
        if capped >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "output cap never tripped; stats={}",
            server.stats_json()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Concurrent sessions on other connections are unaffected.
    let resp = client::post(addr, &query_path(QUERY), &doc).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, expected);
    // And /stats attributes the failure.
    let stats = client::get(addr, "/stats").unwrap().text();
    assert!(stats.contains("\"sessions_output_capped\": 1"), "{stats}");
    drop(stuck);
    server.shutdown();
}
