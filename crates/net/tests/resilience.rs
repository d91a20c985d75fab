//! Robustness e2e: malformed chunked uploads, overload shedding, and
//! graceful drain — all against a real server on an ephemeral port.
//!
//! These run in the default (fault-free) build; the seeded
//! fault-injection storm lives in `tests/chaos.rs` behind the `chaos`
//! feature.

use gcx_net::{client, http, GcxServer, NetConfig};
use gcx_service::ServiceConfig;
use gcx_xml::TagInterner;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const QUERY: &str = "<r>{ for $b in /bib/book return $b/title }</r>";

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
        doc.push_str(&format!("<book><title>Title {i}</title></book>"));
    }
    doc.push_str("</bib>");
    doc.into_bytes()
}

fn query_path(query: &str) -> String {
    format!("/query?xq={}", http::percent_encode(query))
}

/// Polls `cond` every 5 ms until it holds or `timeout` elapses.
fn wait_for(mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// Reads whatever the server sends until it closes the connection (or
/// `timeout` elapses, which fails the no-hang assertion at the caller).
fn read_until_close(stream: &mut TcpStream, timeout: Duration) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let deadline = Instant::now() + timeout;
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    while Instant::now() < deadline {
        match stream.read(&mut tmp) {
            Ok(0) => return buf,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return buf,
        }
    }
    panic!("server neither answered nor closed within {timeout:?}");
}

/// Opens a raw connection and writes a chunked-POST head; the test then
/// follows with a (deliberately broken) body.
fn open_chunked_post(server: &GcxServer) -> TcpStream {
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    let head = format!(
        "POST {} HTTP/1.1\r\nHost: gcx\r\nTransfer-Encoding: chunked\r\n\r\n",
        query_path(QUERY)
    );
    s.write_all(head.as_bytes()).unwrap();
    s
}

fn budgeted_server() -> GcxServer {
    GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            service: ServiceConfig {
                memory_budget: Some(1 << 20),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap()
}

/// After the broken upload, the server must have answered `status`
/// (the error caught before any output) and released every resource.
fn assert_rejected_cleanly(server: &GcxServer, bytes: &[u8], status: u16, expect_msg: &str) {
    let text = String::from_utf8_lossy(bytes);
    assert!(
        text.starts_with(&format!("HTTP/1.1 {status}")),
        "expected a {status}, got: {text:?}"
    );
    assert!(text.contains(expect_msg), "body mismatch: {text:?}");
    assert_drained(server);
}

/// The session registry is empty, the budget is back at zero and the
/// server still answers `/healthz`.
fn assert_drained(server: &GcxServer) {
    assert!(
        wait_for(|| server.active_sessions() == 0, Duration::from_secs(5)),
        "session registry did not drain"
    );
    let budget = server.service().budget().expect("budget configured");
    assert!(
        wait_for(
            || budget.used() == 0 && budget.engine_used() == 0,
            Duration::from_secs(5)
        ),
        "budget leaked: used={} engine_used={}",
        budget.used(),
        budget.engine_used()
    );
    // The worker that handled the broken connection is still serving.
    let health = client::get(server.local_addr(), "/healthz").unwrap();
    assert_eq!(health.status, 200);
}

#[test]
fn non_hex_chunk_size_line_yields_400() {
    let server = budgeted_server();
    let mut s = open_chunked_post(&server);
    s.write_all(b"ZZZ\r\nwhatever\r\n0\r\n\r\n").unwrap();
    let bytes = read_until_close(&mut s, Duration::from_secs(10));
    assert_rejected_cleanly(&server, &bytes, 400, "malformed chunked body");
    server.shutdown();
}

#[test]
fn missing_crlf_after_chunk_data_yields_400() {
    let server = budgeted_server();
    let mut s = open_chunked_post(&server);
    // 4-byte chunk followed by garbage where CRLF must be.
    s.write_all(b"4\r\n<bibXX0\r\n\r\n").unwrap();
    let bytes = read_until_close(&mut s, Duration::from_secs(10));
    assert_rejected_cleanly(&server, &bytes, 400, "malformed chunked body");
    server.shutdown();
}

/// A head that two parsers could frame differently must not be answered
/// `200` on a connection that stays open: each of these carries a
/// complete, well-formed body under *one* reading, followed by a
/// pipelined `GET` that must never be served.
#[test]
fn ambiguous_request_framing_yields_400_and_closes() {
    let doc = String::from_utf8(make_doc(3)).unwrap();
    let chunked_body = format!("{:x}\r\n{doc}\r\n0\r\n\r\n", doc.len());
    let cases = [
        (
            format!("Content-Length: {}\r\nContent-Length: 5\r\n", doc.len()),
            doc.clone(),
            "conflicting Content-Length",
        ),
        (
            format!(
                "Content-Length: {}\r\nTransfer-Encoding: chunked\r\n",
                doc.len()
            ),
            chunked_body,
            "both Content-Length and Transfer-Encoding",
        ),
        (
            format!("Content-Length: +{}\r\n", doc.len()),
            doc.clone(),
            "invalid Content-Length",
        ),
        (
            "Transfer-Encoding: chunked\r\n".to_string(),
            format!("+{:x}\r\n{doc}\r\n0\r\n\r\n", doc.len()),
            "invalid chunk size",
        ),
    ];
    let server = budgeted_server();
    for (framing_headers, body, expect_msg) in cases {
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        let request = format!(
            "POST {} HTTP/1.1\r\nHost: gcx\r\n{framing_headers}\r\n{body}\
             GET /healthz HTTP/1.1\r\nHost: gcx\r\n\r\n",
            query_path(QUERY)
        );
        s.write_all(request.as_bytes()).unwrap();
        let bytes = read_until_close(&mut s, Duration::from_secs(10));
        assert_rejected_cleanly(&server, &bytes, 400, expect_msg);
        let text = String::from_utf8_lossy(&bytes);
        assert!(
            text.to_ascii_lowercase().contains("connection: close"),
            "{text:?}"
        );
        assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "pipelined: {text:?}");
    }
    server.shutdown();
}

#[test]
fn eof_mid_chunk_closes_cleanly_without_leaking() {
    let server = budgeted_server();
    let mut s = open_chunked_post(&server);
    // Promise 255 bytes, deliver 20, hang up.
    s.write_all(b"ff\r\n<bib><book><title>A").unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let bytes = read_until_close(&mut s, Duration::from_secs(10));
    // The upload can never complete; the server cancels the session and
    // closes without inventing a response for a half-framed request. It
    // may already have committed a `200` with the first output byte (the
    // engine writes `<r>` once it has read `<bib>`): that response is
    // aborted, so its chunked body never gets the final chunk.
    let text = String::from_utf8_lossy(&bytes);
    assert!(
        bytes.is_empty()
            || text.starts_with("HTTP/1.1 4")
            || (text.starts_with("HTTP/1.1 200") && !text.ends_with("0\r\n\r\n")),
        "unexpected reply to truncated upload: {text:?}"
    );
    assert_drained(&server);
    server.shutdown();
}

/// A head that never terminates gets `431` once it passes the server's
/// 16 KiB head limit, and the connection holds nothing afterwards.
#[test]
fn unterminated_oversized_head_yields_431() {
    let server = budgeted_server();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    let mut head = format!("POST {} HTTP/1.1\r\nHost: gcx\r\n", query_path(QUERY));
    while head.len() <= 17 * 1024 {
        head.push_str("X-Padding: 0123456789abcdef0123456789abcdef\r\n");
    }
    // Never the blank line that would end the head; a server that
    // stopped reading may reset the rest of the write.
    let _ = s.write_all(head.as_bytes());
    let bytes = read_until_close(&mut s, Duration::from_secs(10));
    assert_rejected_cleanly(&server, &bytes, 431, "head too large");
    server.shutdown();
}

/// A chunk-size line longer than the decoder's 32-byte limit fails the
/// upload with `400` instead of buffering the line.
#[test]
fn oversized_chunk_size_line_yields_400() {
    let server = budgeted_server();
    let mut s = open_chunked_post(&server);
    let line = format!("{}1\r\n", "0".repeat(40));
    s.write_all(line.as_bytes()).unwrap();
    s.write_all(b"<\r\n0\r\n\r\n").unwrap();
    let bytes = read_until_close(&mut s, Duration::from_secs(10));
    assert_rejected_cleanly(&server, &bytes, 400, "malformed chunked body");
    server.shutdown();
}

/// Garbage pipelined behind a complete request: the first request is
/// answered in full, then the garbage, read as the next request's head,
/// gets `400` and the connection closes with everything released.
#[test]
fn pipelined_garbage_after_a_drained_body_yields_400() {
    let doc = make_doc(3);
    let server = budgeted_server();
    for (garbage, expect_msg) in [
        (
            &b"\x00\x01\xffnot http at all\r\n\r\n"[..],
            "head is not UTF-8",
        ),
        (b"GET\r\n\r\n", "missing request target"),
        (
            b"POST /query HTTP/9.9\r\nHost: gcx\r\n\r\n",
            "unsupported version",
        ),
    ] {
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        let head = format!(
            "POST {} HTTP/1.1\r\nHost: gcx\r\nContent-Length: {}\r\n\r\n",
            query_path(QUERY),
            doc.len()
        );
        s.write_all(head.as_bytes()).unwrap();
        s.write_all(&doc).unwrap();
        s.write_all(garbage).unwrap();
        let bytes = read_until_close(&mut s, Duration::from_secs(10));
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.starts_with("HTTP/1.1 200"), "first response: {text:?}");
        let want = String::from_utf8(reference_output(QUERY, &doc)).unwrap();
        assert!(text.contains(&want), "first response body: {text:?}");
        // The first response ends with its last chunk; the second one
        // answers the garbage.
        let end = text.find("\r\n0\r\n\r\n").expect("first response complete") + 7;
        assert_rejected_cleanly(&server, &bytes[end..], 400, expect_msg);
        assert_eq!(text.matches("HTTP/1.1 ").count(), 2, "{text:?}");
    }
    server.shutdown();
}

/// A `Content-Length` body cut short by the client's FIN is never
/// answered as a success. Cut before its first event can be read, the
/// upload gets no `200` at all. Cut after output has streamed (the `200`
/// head goes out with the first output byte, the GCX property), the
/// response is aborted: its chunked body never gets the final chunk.
/// Either way the server releases everything.
#[test]
fn content_length_body_cut_short_by_fin_gets_no_200() {
    let server = budgeted_server();
    let doc = make_doc(2_000);
    for (sent, streamed) in [(3, false), (doc.len() / 2, true)] {
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        let head = format!(
            "POST {} HTTP/1.1\r\nHost: gcx\r\nContent-Length: {}\r\n\r\n",
            query_path(QUERY),
            doc.len()
        );
        s.write_all(head.as_bytes()).unwrap();
        s.write_all(&doc[..sent]).unwrap();
        if streamed {
            // Let the evaluator stream what the half body decides.
            std::thread::sleep(Duration::from_millis(300));
        }
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let bytes = read_until_close(&mut s, Duration::from_secs(10));
        let text = String::from_utf8_lossy(&bytes);
        if streamed {
            assert!(text.starts_with("HTTP/1.1 200"), "{text:?}");
            assert!(
                !text.ends_with("0\r\n\r\n"),
                "truncated upload got a complete response: {text:?}"
            );
        } else {
            assert!(
                bytes.is_empty() || text.starts_with("HTTP/1.1 4"),
                "unexpected reply to truncated upload: {text:?}"
            );
        }
        assert_drained(&server);
    }
    server.shutdown();
}

#[test]
fn saturated_server_sheds_with_503_while_inflight_streams_complete() {
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            max_connections: 2,
            workers: 2,
            evaluators: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let doc = make_doc(200);
    let expected = reference_output(QUERY, &doc);
    let half = doc.len() / 2;

    // Two in-flight uploads occupy both connection slots.
    let mut ps1 = client::PostStream::open(addr, &query_path(QUERY)).unwrap();
    ps1.send_chunk(&doc[..half]).unwrap();
    let mut ps2 = client::PostStream::open(addr, &query_path(QUERY)).unwrap();
    ps2.send_chunk(&doc[..half]).unwrap();
    assert!(
        wait_for(|| server.open_connections() >= 2, Duration::from_secs(5)),
        "connections not admitted"
    );

    // The third connection is shed at the acceptor: fast, explicit, and
    // with a retry hint — not a stalled socket.
    let start = Instant::now();
    let shed = client::get(addr, "/healthz").unwrap();
    let elapsed = start.elapsed();
    assert_eq!(shed.status, 503, "body: {}", shed.text());
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(
        elapsed < Duration::from_millis(50),
        "shed took {elapsed:?}, want < 50ms"
    );
    assert!(
        server
            .counters()
            .requests_shed
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    // Shedding must not disturb the admitted streams.
    ps1.send_chunk(&doc[half..]).unwrap();
    let r1 = ps1.finish().unwrap();
    assert_eq!(r1.status, 200, "body: {}", r1.text());
    assert_eq!(r1.body, expected);
    ps2.send_chunk(&doc[half..]).unwrap();
    let r2 = ps2.finish().unwrap();
    assert_eq!(r2.status, 200);
    assert_eq!(r2.body, expected);
    drop(r1);

    // Slots free up once those connections close; service resumes.
    assert!(
        wait_for(|| server.open_connections() < 2, Duration::from_secs(5)),
        "connection slots not released"
    );
    let ok = client::get(addr, "/healthz").unwrap();
    assert_eq!(ok.status, 200);
    server.shutdown();
}

#[test]
fn queue_wait_deadline_sheds_stale_connections() {
    // A zero deadline means every connection is considered to have
    // waited too long by the time a worker first picks it up — the
    // degenerate config exercises the shed path deterministically.
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            queue_wait_deadline: Duration::ZERO,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let resp = client::get(addr, "/healthz").unwrap();
    assert_eq!(resp.status, 503, "body: {}", resp.text());
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(
        server
            .counters()
            .requests_shed
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    server.shutdown();
}

#[test]
fn graceful_drain_completes_inflight_request_then_stops() {
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(300);
    let expected = reference_output(QUERY, &doc);
    let half = doc.len() / 2;

    let mut ps = client::PostStream::open(addr, &query_path(QUERY)).unwrap();
    ps.send_chunk(&doc[..half]).unwrap();
    assert!(
        wait_for(|| server.active_sessions() == 1, Duration::from_secs(5)),
        "session not registered"
    );

    let drainer = std::thread::spawn(move || {
        server.shutdown_graceful(Duration::from_secs(30));
    });
    // Give the drain a moment to stop the acceptor.
    std::thread::sleep(Duration::from_millis(200));

    // The in-flight upload still completes, byte-identical.
    ps.send_chunk(&doc[half..]).unwrap();
    let resp = ps.finish().unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    assert_eq!(resp.body, expected);

    drainer.join().unwrap();
    // Fully stopped: the listener is gone.
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener still accepting after drain"
    );
}

#[test]
fn drain_closes_keep_alive_connections_at_a_response_boundary() {
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(50);
    let expected = reference_output(QUERY, &doc);

    let mut conn = client::HttpClient::connect(addr).unwrap();
    let first = conn.post(&query_path(QUERY), &doc).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.body, expected);

    let drainer = std::thread::spawn(move || {
        server.shutdown_graceful(Duration::from_secs(30));
    });
    std::thread::sleep(Duration::from_millis(100));

    // The parked keep-alive connection is either told to close at the
    // next response boundary (request raced in ahead of teardown) or
    // already closed by the drain — both are clean endings; what drain
    // must never do is leave the client hanging or cut a response short.
    // An Err means the idle connection was torn down first — also fine.
    if let Ok(resp) = conn.post(&query_path(QUERY), &doc) {
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, expected);
        assert_eq!(
            resp.header("connection").map(str::to_ascii_lowercase),
            Some("close".to_string()),
            "response during drain must announce the close"
        );
    }

    drainer.join().unwrap();
    assert!(TcpStream::connect(addr).is_err());
}

#[test]
fn drain_deadline_hard_cancels_a_stuck_upload() {
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let doc = make_doc(100);

    // An upload that will never finish holds a connection open.
    let mut ps = client::PostStream::open(addr, &query_path(QUERY)).unwrap();
    ps.send_chunk(&doc[..doc.len() / 2]).unwrap();
    assert!(
        wait_for(|| server.active_sessions() == 1, Duration::from_secs(5)),
        "session not registered"
    );

    let start = Instant::now();
    server.shutdown_graceful(Duration::from_millis(300));
    let elapsed = start.elapsed();
    // The deadline degrades into the hard shutdown instead of waiting
    // on the stuck client forever.
    assert!(
        elapsed < Duration::from_secs(10),
        "drain with a stuck client took {elapsed:?}"
    );
    assert!(TcpStream::connect(addr).is_err());
    drop(ps);
}

/// Scheduler fairness: with only two evaluator threads, a storm of slow
/// clients — each trickling a megabyte-scale chunked upload and never
/// reading a byte of its response — must not starve a fast keep-alive
/// client. The ready-queue scheduler's step budget forces every session
/// to yield, so the fast client's small requests interleave with the
/// storm and complete with bounded latency.
#[test]
fn fast_client_latency_bounded_under_slow_client_storm() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const SLOW_CLIENTS: usize = 6;
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            workers: 2,
            evaluators: 2,
            // The fairness claim is about *evaluator* scheduling; don't
            // let the admission-side queue-wait shed muddy the signal.
            queue_wait_deadline: Duration::from_secs(10),
            keep_alive_timeout: Duration::from_secs(60),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let small = make_doc(50);
    let expected = reference_output(QUERY, &small);
    let stop = AtomicBool::new(false);

    let (total, worst) = std::thread::scope(|scope| {
        for _ in 0..SLOW_CLIENTS {
            let server = &server;
            let stop = &stop;
            scope.spawn(move || {
                // Hand-rolled chunked upload so a write timeout keeps the
                // thread responsive to `stop` even under backpressure.
                let big = make_doc(30_000);
                let mut s = open_chunked_post(server);
                s.set_write_timeout(Some(Duration::from_millis(50)))
                    .unwrap();
                'feed: for chunk in big.chunks(4096) {
                    let mut frame = format!("{:x}\r\n", chunk.len()).into_bytes();
                    frame.extend_from_slice(chunk);
                    frame.extend_from_slice(b"\r\n");
                    let mut rest: &[u8] = &frame;
                    while !rest.is_empty() {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        match s.write(rest) {
                            Ok(n) => rest = &rest[n..],
                            Err(e)
                                if e.kind() == std::io::ErrorKind::WouldBlock
                                    || e.kind() == std::io::ErrorKind::TimedOut =>
                            {
                                continue;
                            }
                            Err(_) => break 'feed,
                        }
                    }
                }
                // Fully uploaded (or reset); either way never send the
                // terminating chunk and never read: the session stays
                // parked until the test releases it.
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(10));
                }
            });
        }

        let fast = scope.spawn(|| {
            // Let the storm establish before measuring.
            std::thread::sleep(Duration::from_millis(300));
            let mut conn = client::HttpClient::connect(addr).unwrap();
            let start = Instant::now();
            let mut worst = Duration::ZERO;
            for i in 0..5 {
                let t0 = Instant::now();
                let resp = conn.post(&query_path(QUERY), &small).unwrap();
                worst = worst.max(t0.elapsed());
                assert_eq!(resp.status, 200, "fast request {i}: {}", resp.text());
                assert_eq!(resp.body, expected, "fast request {i} corrupted");
            }
            (start.elapsed(), worst)
        });
        let measured = fast.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        measured
    });

    eprintln!("fast client under storm: total {total:?}, worst request {worst:?}");
    assert!(
        worst < Duration::from_secs(5),
        "fast request took {worst:?} behind {SLOW_CLIENTS} slow clients on 2 evaluators"
    );
    assert!(
        total < Duration::from_secs(10),
        "fast client needed {total:?} for 5 small requests"
    );
    server.shutdown();
}

/// The epoll readiness loop holds 1000 concurrent keep-alive
/// connections on two workers and two evaluators, and every response —
/// two rounds per connection, so reuse is proven — is byte-identical to
/// the in-process engine.
#[test]
fn thousand_keep_alive_connections_byte_identical_with_two_evaluators() {
    const CONNS: usize = 1000;
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            workers: 2,
            evaluators: 2,
            // Parked connections must survive the sequential sweep of
            // the other 999 on a single-core runner.
            keep_alive_timeout: Duration::from_secs(120),
            idle_timeout: Duration::from_secs(120),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let doc = make_doc(20);
    let expected = reference_output(QUERY, &doc);

    let mut conns = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        conns.push(
            client::HttpClient::connect(addr).unwrap_or_else(|e| panic!("connect {i} failed: {e}")),
        );
    }
    assert!(
        wait_for(
            || server.open_connections() >= CONNS,
            Duration::from_secs(10)
        ),
        "only {} of {CONNS} connections admitted",
        server.open_connections()
    );

    for round in 0..2 {
        for (i, conn) in conns.iter_mut().enumerate() {
            let resp = conn
                .post(&query_path(QUERY), &doc)
                .unwrap_or_else(|e| panic!("conn {i} round {round}: {e}"));
            assert_eq!(resp.status, 200, "conn {i} round {round}");
            assert_eq!(resp.body, expected, "conn {i} round {round} corrupted");
        }
    }

    // The readiness loop, not a poll, served all of it.
    assert!(
        server
            .counters()
            .epoll_wakeups
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "epoll wakeup counter never moved"
    );
    drop(conns);
    server.shutdown();
}

/// A request the shared memory budget refuses is woken when a sibling
/// returns budget bytes — not left to the idle timeout. A never-reading
/// client holds the whole budget in undrained output and queued input;
/// a small request arriving meanwhile is refused, and must be answered
/// promptly once the hog disconnects and its session is reclaimed.
#[test]
fn budget_refused_request_is_woken_when_a_sibling_releases() {
    const LIMIT: usize = 512 * 1024;
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            service: ServiceConfig {
                memory_budget: Some(LIMIT),
                ..Default::default()
            },
            idle_timeout: Duration::from_secs(6),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let budget = server
        .service()
        .budget()
        .expect("budget configured")
        .clone();

    // A: a copy-everything upload whose response is never read.
    let hog_doc = make_doc(300_000);
    let mut hog = TcpStream::connect(addr).unwrap();
    let head = format!(
        "POST {} HTTP/1.1\r\nHost: gcx\r\nContent-Length: {}\r\n\r\n",
        query_path("<r>{ for $b in /bib/book return $b }</r>"),
        hog_doc.len()
    );
    hog.write_all(head.as_bytes()).unwrap();
    let mut hog_writer = hog.try_clone().unwrap();
    let uploader = std::thread::spawn(move || {
        // Fails once the socket is shut down below.
        let _ = hog_writer.write_all(&hog_doc);
    });
    // Wait until A has filled the budget and stalled: once the socket
    // buffers are full, none of A's output drains any more.
    let (mut last, mut unchanged) = (0, 0);
    assert!(
        wait_for(
            || {
                let used = budget.used();
                unchanged = if used == last { unchanged + 1 } else { 0 };
                last = used;
                used >= LIMIT && unchanged >= 40
            },
            Duration::from_secs(20)
        ),
        "the never-reading client must fill the budget and stall (used {})",
        budget.used()
    );

    // B: a 40-byte request the full budget refuses.
    let small = b"<bib><book><title>x</title></book></bib>";
    assert_eq!(small.len(), 40);
    let (tx, rx) = std::sync::mpsc::channel();
    let path = query_path(QUERY);
    let requester = std::thread::spawn(move || {
        let resp = client::post(addr, &path, small);
        tx.send((resp, Instant::now())).unwrap();
    });
    std::thread::sleep(Duration::from_millis(300));

    hog.shutdown(std::net::Shutdown::Both).unwrap();
    let released_at = Instant::now();
    drop(hog);
    let (resp, answered_at) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("B answered at all");
    let resp = resp.expect("B's response");
    let waited = answered_at.saturating_duration_since(released_at);
    assert_eq!(resp.status, 200, "B: {}", resp.text());
    assert!(
        waited < Duration::from_secs(2),
        "B answered {waited:?} after A released its budget"
    );
    assert_eq!(resp.body, reference_output(QUERY, small));
    uploader.join().unwrap();
    requester.join().unwrap();
    assert!(
        wait_for(|| budget.used() == 0, Duration::from_secs(5)),
        "budget leaked: used={}",
        budget.used()
    );
    server.shutdown();
}

#[test]
fn stats_expose_resilience_counters() {
    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let resp = client::get(server.local_addr(), "/stats").unwrap();
    assert_eq!(resp.status, 200);
    let text = resp.text();
    for key in [
        "\"schema\": \"gcx-net-stats/7\"",
        "\"open_connections\"",
        "\"requests_shed\"",
        "\"accept_errors\"",
        "\"evaluator_panics\"",
    ] {
        assert!(text.contains(key), "missing {key} in stats: {text}");
    }
    server.shutdown();
}
