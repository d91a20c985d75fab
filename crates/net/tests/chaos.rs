//! Seeded fault-injection e2e ("chaos") suite — only built with the
//! `chaos` cargo feature, which compiles the `gcx-faults` sites in.
//!
//! A storm of concurrent clients runs against a server whose socket
//! reads/writes, accepts, evaluator scheduling, budget admissions, and
//! evaluator bodies all fail at seeded rates; afterwards the suite
//! asserts the invariants that make the faults survivable: the session
//! registry drains, the `MemoryBudget` returns to exactly zero, `/stats`
//! stays schema-valid JSON throughout, and a fault-free request is
//! byte-identical to the in-process engine.
//!
//! The seed comes from `GCX_CHAOS_SEED` (decimal or `0x`-hex) so a CI
//! failure replays locally:
//!
//! ```text
//! GCX_CHAOS_SEED=12345 cargo test -p gcx-net --features chaos --test chaos
//! ```
#![cfg(feature = "chaos")]

mod support;
use support::{parse_json, validate_json, Json};

use gcx_net::{client, http, GcxServer, NetConfig};
use gcx_service::{EvaluatorPool, MemoryBudget, ServiceConfig, SessionConfig, StreamSession};
use gcx_xml::TagInterner;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The fault registry is process-global; tests that reconfigure it must
/// not interleave.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

const QUERY: &str = "<r>{ for $b in /bib/book return $b/title }</r>";
const DEFAULT_SEED: u64 = 0xC0FF_EE42;

fn chaos_seed() -> u64 {
    let seed = match std::env::var("GCX_CHAOS_SEED") {
        Ok(v) => {
            let v = v.trim();
            let parsed = v
                .strip_prefix("0x")
                .map_or_else(|| v.parse(), |h| u64::from_str_radix(h, 16));
            parsed.unwrap_or_else(|_| panic!("GCX_CHAOS_SEED not a u64: {v:?}"))
        }
        Err(_) => DEFAULT_SEED,
    };
    eprintln!("chaos seed: {seed} (replay: GCX_CHAOS_SEED={seed})");
    seed
}

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

#[test]
fn seeded_fault_storm_preserves_core_invariants() {
    let _guard = FAULT_LOCK.lock().unwrap();
    let seed = chaos_seed();
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            workers: 3,
            // Honors the `GCX_EVALUATORS` CI hook (constrained-scheduler
            // legs run this storm with a single evaluator thread).
            evaluators: NetConfig::default().evaluators.min(4),
            idle_timeout: Duration::from_secs(5),
            keep_alive_timeout: Duration::from_secs(2),
            service: ServiceConfig {
                memory_budget: Some(4 << 20),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let doc = make_doc(80);
    let expected = reference_output(QUERY, &doc);

    // Every site the harness exposes, at once.
    gcx_faults::configure(
        seed,
        "net.read.err=0.03,net.read.short=0.2,net.read.eof=0.02,\
         net.write.err=0.03,net.write.short=0.2,net.accept.err=0.05,\
         pool.delay=0.2,budget.reject=0.03,eval.panic=0.08",
    )
    .expect("valid schedule");

    let ok_requests = AtomicU64::new(0);
    let stats_polls_ok = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // A poller asserting /stats and /trace never emit broken JSON
        // mid-storm (the flight recorder is being written concurrently
        // by every worker and evaluator while /trace reads it).
        let polls = &stats_polls_ok;
        scope.spawn(move || {
            for _ in 0..20 {
                if let Ok(resp) = client::get(addr, "/stats") {
                    if resp.status == 200 {
                        let text = resp.text();
                        validate_json(&text)
                            .unwrap_or_else(|e| panic!("mid-storm /stats not JSON: {e}\n{text}"));
                        polls.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if let Ok(resp) = client::get(addr, "/trace") {
                    if resp.status == 200 {
                        let text = resp.text();
                        validate_json(&text)
                            .unwrap_or_else(|e| panic!("mid-storm /trace not JSON: {e}\n{text}"));
                    }
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        });
        for t in 0..4 {
            let doc = &doc;
            let expected = &expected;
            let ok_requests = &ok_requests;
            scope.spawn(move || {
                for i in 0..8 {
                    // Mix one-shot posts and chunked streaming uploads.
                    let result = if (t + i) % 2 == 0 {
                        client::post(addr, &query_path(QUERY), doc)
                    } else {
                        client::PostStream::open(addr, &query_path(QUERY)).and_then(|ps| {
                            ps.stream_and_finish(doc.chunks(512).map(<[u8]>::to_vec))
                        })
                    };
                    // Faults make failures legitimate; what they must
                    // never produce is a *wrong* success.
                    if let Ok(resp) = result {
                        if resp.status == 200 {
                            assert_eq!(
                                &resp.body, expected,
                                "status-200 response corrupted under faults (seed {seed})"
                            );
                            ok_requests.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let fired: u64 = [
        "net.read.err",
        "net.read.short",
        "net.read.eof",
        "net.write.err",
        "net.write.short",
        "net.accept.err",
        "pool.delay",
        "budget.reject",
        "eval.panic",
    ]
    .iter()
    .map(|s| gcx_faults::fired_count(s))
    .sum();
    eprintln!(
        "storm done: {} / 32 requests succeeded, {} clean stats polls, {fired} faults fired",
        ok_requests.load(Ordering::Relaxed),
        stats_polls_ok.load(Ordering::Relaxed),
    );
    assert!(fired > 0, "schedule never fired — harness inert?");

    // Recovery: stop injecting and require full convalescence.
    gcx_faults::clear();
    assert!(
        wait_for(|| server.active_sessions() == 0, Duration::from_secs(30)),
        "session registry did not drain after the storm (seed {seed})"
    );
    let budget = server.service().budget().expect("budget configured");
    assert!(
        wait_for(
            || budget.used() == 0 && budget.engine_used() == 0,
            Duration::from_secs(30)
        ),
        "budget leaked after the storm (seed {seed}): used={} engine_used={}",
        budget.used(),
        budget.engine_used()
    );

    // A fault-free request on the recovered server is byte-identical.
    let resp = client::post(addr, &query_path(QUERY), &doc).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    assert_eq!(
        resp.body, expected,
        "post-storm output differs (seed {seed})"
    );

    // And /stats reports the storm in valid schema-6 JSON.
    let stats = client::get(addr, "/stats").unwrap();
    assert_eq!(stats.status, 200);
    let text = stats.text();
    let stats = parse_json(&text).unwrap_or_else(|e| panic!("final /stats not JSON: {e}\n{text}"));
    assert_eq!(
        stats.get("schema"),
        Some(&Json::Str("gcx-net-stats/7".into()))
    );
    // Faults fail sessions, but no session that completed left a role
    // behind: role balance survives the storm.
    let imbalance = stats.get("server").and_then(|s| s.get("role_imbalance"));
    assert_eq!(imbalance, Some(&Json::Num(0.0)), "{text}");

    // Joining every thread here is itself an assertion: a hung worker
    // or evaluator would hang the test instead of passing it.
    server.shutdown();
}

#[test]
fn budget_restitution_after_every_failure_mode() {
    let _guard = FAULT_LOCK.lock().unwrap();
    gcx_faults::clear();
    let seed = chaos_seed();
    let budget = Arc::new(MemoryBudget::new(1 << 20));
    let pool = EvaluatorPool::new(2);
    let session = |budget: &Arc<MemoryBudget>| {
        let mut tags = TagInterner::new();
        let compiled = Arc::new(gcx_query::compile_default(QUERY, &mut tags).expect("compile"));
        StreamSession::new(
            compiled,
            tags,
            SessionConfig {
                budget: Some(budget.clone()),
                charge_engine_buffer: true,
                pool: Some(pool.clone()),
                ..Default::default()
            },
        )
    };
    let doc = make_doc(300);

    // 1. Cancelled mid-stream.
    let mut s = session(&budget);
    let _ = s.feed(&doc[..doc.len() / 2]);
    s.cancel();

    // 2. Injected budget rejection: every hard reservation refused. A
    //    full budget is backpressure, so the chunk is refused, not
    //    failed, and the refusal must leave nothing charged.
    gcx_faults::configure(seed, "budget.reject=1").unwrap();
    let mut s = session(&budget);
    let used_before = budget.used();
    assert!(!s.try_feed(&doc).expect("a refusal is not an error"));
    assert_eq!(budget.used(), used_before, "refused chunk left a charge");
    s.cancel();
    gcx_faults::clear();

    // 3. Injected evaluator panic, caught and converted to an error.
    let panics_before = pool.panics();
    gcx_faults::configure(seed, "eval.panic=1").unwrap();
    let mut s = session(&budget);
    let _ = s.feed(&doc);
    let err = s
        .finish()
        .expect_err("injected panic must fail the session");
    assert!(err.to_string().contains("panicked"), "got: {err}");
    gcx_faults::clear();
    assert!(pool.panics() > panics_before, "panic not counted");

    // Restitution: after all three failure modes, nothing is still
    // charged against the shared budget.
    assert!(
        wait_for(
            || budget.used() == 0 && budget.engine_used() == 0,
            Duration::from_secs(10)
        ),
        "budget leaked (seed {seed}): used={} engine_used={}",
        budget.used(),
        budget.engine_used()
    );
}
