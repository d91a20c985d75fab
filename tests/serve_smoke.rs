//! `gcx serve --listen`, the real binary: flag wiring, the `listening on`
//! line, a document larger than `--budget` streamed over the wire,
//! keep-alive reuse, the four observability endpoints and a clean
//! `SIGTERM` drain. Everything that does not need the process — framing,
//! metrics grammar, `/stats` schema, trace contents, resilience — is
//! asserted in-process by `crates/net/tests/`.
#![cfg(unix)]

use gcx::net::client;
use gcx::xmark::{self, XmarkConfig};
use gcx::TagInterner;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BUDGET: u64 = 2_000_000;

/// Kills the server if an assertion unwinds before the drain.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_listen_streams_reuses_connections_and_drains_on_sigterm() {
    let dir = std::env::temp_dir().join(format!("gcx-serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("Q1.xq"), xmark::Q1).unwrap();
    let mut doc = Vec::new();
    let config = XmarkConfig {
        seed: 42,
        scale: 8.0,
    };
    xmark::generate(config, &mut doc).unwrap();
    assert!(
        doc.len() as u64 > 2 * BUDGET,
        "document must exceed --budget"
    );
    let mut tags = TagInterner::new();
    let compiled = gcx::compile_default(xmark::Q1, &mut tags).unwrap();
    let mut expected = Vec::new();
    gcx::run_gcx(&compiled, &mut tags, &doc[..], &mut expected).unwrap();

    let child = Command::new(env!("CARGO_BIN_EXE_gcx"))
        .args(["serve", "--listen", "127.0.0.1:0", "--queries"])
        .arg(&dir)
        .args(["--budget", &BUDGET.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gcx serve");
    let mut server = Server(child);
    let mut stdout = BufReader::new(server.0.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("gcx-net: listening on http://")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .to_string();

    // One chunked upload on a connection of its own.
    let chunks: Vec<Vec<u8>> = doc.chunks(64 * 1024).map(<[u8]>::to_vec).collect();
    let resp = client::PostStream::open(&addr[..], "/query?name=Q1")
        .unwrap()
        .stream_and_finish(chunks)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert!(resp.body == expected, "wire output differs from run_gcx");

    // Five requests and the scrapes over ONE keep-alive connection.
    let mut conn = client::HttpClient::connect(&addr[..]).unwrap();
    for i in 0..5 {
        let resp = conn.post("/query?name=Q1", &doc).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert!(resp.body == expected, "keep-alive request {i} differs");
        assert!(!conn.is_closed(), "server dropped keep-alive after {i}");
    }
    let health = conn.get("/healthz").unwrap();
    assert_eq!((health.status, health.text().as_str()), (200, "ok\n"));
    let metrics = conn.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let metrics = metrics.text();
    assert!(
        metrics.contains("\ngcx_sessions_completed_total 6\n"),
        "{metrics}"
    );
    // The first query is always kept by the default trace sampling.
    let trace = conn.get("/trace").unwrap();
    assert_eq!(trace.status, 200);
    let trace = trace.text();
    assert!(trace.contains("\"traceEvents\":["), "{trace}");
    assert!(trace.contains("\"name\":\"request\""), "{trace}");
    let stats = conn.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    let stats = stats.text();
    assert!(!conn.is_closed(), "server dropped keep-alive");
    assert!(
        stats.contains(&format!("\"budget\": {{ \"limit\": {BUDGET},")),
        "--budget not wired through: {stats}"
    );
    // 2 connections carried 10 requests (6 queries + 4 scrapes): losing
    // keep-alive would show as one connection per request.
    for counters in [
        "\"connections\": 2, \"requests\": 10,",
        "\"sessions_completed\": 6, \"sessions_failed\": 0,",
    ] {
        assert!(stats.contains(counters), "no {counters} in {stats}");
    }
    drop(conn);

    // Graceful drain: exit 0 and `drained`, well inside --drain-timeout.
    let pid = server.0.id().to_string();
    let kill = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(kill.success());
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "still running 30 s after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    let mut pipe = server.0.stderr.take().unwrap();
    pipe.read_to_string(&mut stderr).unwrap();
    assert!(status.success(), "exit {status}; stderr: {stderr}");
    assert!(stderr.contains("gcx-net: drained"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
