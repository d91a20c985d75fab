//! Chunk-boundary robustness of the push-based session runtime.
//!
//! For every (query, document) pair of the differential corpus, a
//! [`gcx::StreamSession`] must produce output **byte-identical** to the
//! one-shot [`gcx::run_gcx`] — with the same reported peak buffer size —
//! under *any* chunking of the input: one byte at a time, random split
//! points (which land mid-tag, mid-entity and mid-text), and the whole
//! document as a single chunk — and under any *schedule*: evaluator on
//! the caller's thread or on a shared pool, any step budget, output
//! bound binding or not. Also exercises a concurrent run of ≥ 8 sessions
//! through one `QueryService` with measured cache hits.

use gcx::query::CompileOptions;
use gcx::service::{EvaluatorPool, MemoryBudget, SessionConfig};
use gcx::xml::TagInterner;
use gcx::{QueryService, StreamSession};
use std::sync::Arc;
use std::time::Duration;

mod corpus;
use corpus::corpus;

fn one_shot(query: &str, doc: &str) -> (String, usize) {
    let mut tags = TagInterner::new();
    let compiled = gcx::compile(query, &mut tags, CompileOptions::default()).expect("compile");
    let mut out = Vec::new();
    let report = gcx::run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut out).expect("run");
    (String::from_utf8(out).unwrap(), report.stats.peak_nodes)
}

fn chunked(query: &str, chunks: Vec<&[u8]>) -> (String, usize) {
    let (out, report) = gcx::evaluate_chunked(query, chunks).expect("chunked run");
    (out, report.stats.peak_nodes)
}

/// Tiny deterministic LCG for split points (no external deps needed).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound.max(1)
    }
}

fn random_chunking<'a>(doc: &'a [u8], rng: &mut Lcg) -> Vec<&'a [u8]> {
    let mut chunks = Vec::new();
    let mut pos = 0;
    while pos < doc.len() {
        let len = 1 + rng.next(9); // 1..=9 byte chunks: splits land mid-token
        let end = (pos + len).min(doc.len());
        chunks.push(&doc[pos..end]);
        pos = end;
    }
    chunks
}

#[test]
fn single_chunk_matches_one_shot() {
    for (query, doc) in corpus() {
        let (want, want_peak) = one_shot(query, doc);
        let (got, got_peak) = chunked(query, vec![doc.as_bytes()]);
        assert_eq!(want, got, "output differs for {query}");
        assert_eq!(want_peak, got_peak, "peak_nodes differs for {query}");
    }
}

#[test]
fn one_byte_chunks_match_one_shot() {
    for (query, doc) in corpus() {
        let (want, want_peak) = one_shot(query, doc);
        let chunks: Vec<&[u8]> = doc.as_bytes().chunks(1).collect();
        let (got, got_peak) = chunked(query, chunks);
        assert_eq!(want, got, "1-byte feeding differs for {query}");
        assert_eq!(want_peak, got_peak, "peak_nodes differs for {query}");
    }
}

#[test]
fn random_split_points_match_one_shot() {
    for (ci, (query, doc)) in corpus().into_iter().enumerate() {
        let (want, want_peak) = one_shot(query, doc);
        for round in 0..5u64 {
            let mut rng = Lcg(0x9E3779B97F4A7C15 ^ (ci as u64) << 8 ^ round);
            let chunks = random_chunking(doc.as_bytes(), &mut rng);
            let (got, got_peak) = chunked(query, chunks);
            assert_eq!(
                want, got,
                "random chunking differs for {query} (round {round})"
            );
            assert_eq!(
                want_peak, got_peak,
                "peak_nodes differs for {query} (round {round})"
            );
        }
    }
}

#[test]
fn multibyte_utf8_split_across_chunks() {
    let query = "<r>{ for $n in /a/name return $n/text() }</r>";
    let doc = "<a><name>héllo — wörld</name><name>ünïcode</name></a>";
    let (want, _) = one_shot(query, doc);
    // Every 1-byte split necessarily cuts the multi-byte characters.
    let chunks: Vec<&[u8]> = doc.as_bytes().chunks(1).collect();
    let (got, _) = chunked(query, chunks);
    assert_eq!(want, got);
}

#[test]
fn eight_concurrent_sessions_share_cache() {
    // ≥ 8 sessions through one service: correct isolated outputs and at
    // least one measured cache hit (an acceptance requirement).
    let service = QueryService::with_defaults();
    let corpus = corpus();
    std::thread::scope(|scope| {
        for (i, (query, doc)) in corpus.iter().take(6).cycle().take(12).enumerate() {
            let service = &service;
            scope.spawn(move || {
                let mut session = service.open_session(query).expect("open");
                let mut out = Vec::new();
                for chunk in doc.as_bytes().chunks(16) {
                    out.extend_from_slice(&session.feed(chunk).expect("feed"));
                }
                let outcome = session.finish().expect("finish");
                out.extend_from_slice(&outcome.output);
                let (want, want_peak) = one_shot(query, doc);
                assert_eq!(
                    String::from_utf8(out).unwrap(),
                    want,
                    "wrong output for job{i}"
                );
                assert_eq!(outcome.report.stats.peak_nodes, want_peak);
                assert_eq!(outcome.report.safety, Some(true));
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.sessions_opened, 12);
    assert_eq!(stats.cache_misses, 6, "six distinct queries");
    assert!(stats.cache_hits >= 6, "repeats hit the cache: {stats:?}");
}

/// One session over `chunks` with every scheduling knob explicit.
/// Returns the output, the run report and what is still charged to the
/// session's budget afterwards.
fn scheduled(
    query: &str,
    chunks: &[&[u8]],
    pool: Option<&EvaluatorPool>,
    step_budget: u32,
    output_high_water: usize,
) -> (Vec<u8>, gcx::RunReport, usize) {
    let mut tags = TagInterner::new();
    let compiled = gcx::compile(query, &mut tags, CompileOptions::default()).expect("compile");
    let budget = Arc::new(MemoryBudget::new(usize::MAX));
    let mut session = StreamSession::new(
        Arc::new(compiled),
        tags,
        SessionConfig {
            pool: pool.cloned(),
            budget: Some(budget.clone()),
            step_budget,
            output_high_water,
            ..Default::default()
        },
    );
    let mut out = Vec::new();
    for chunk in chunks {
        out.extend_from_slice(&session.feed(chunk).expect("feed"));
    }
    let outcome = session.finish().expect("finish");
    out.extend_from_slice(&outcome.output);
    (out, outcome.report, budget.used())
}

#[test]
fn every_schedule_matches_one_shot() {
    // The corpus outputs are a few hundred bytes; this one is 35 KB, so
    // under both small bounds the evaluator really parks and is resumed
    // by drains. The bound is independent of the writer's block size:
    // 512 B parks after every slice that emitted anything.
    let big_doc = format!(
        "<bib>{}</bib>",
        "<book><title>Padding title</title><price>7</price></book>".repeat(600)
    );
    let mut cases = corpus();
    cases.push(("<r>{ for $b in /bib/book return $b }</r>", &big_doc));

    let pools = [
        None,
        Some(EvaluatorPool::new(1)),
        Some(EvaluatorPool::new(2)),
    ];
    let default_high_water = SessionConfig::default().output_high_water;
    for (ci, (query, doc)) in cases.iter().enumerate() {
        let (want, want_peak) = one_shot(query, doc);
        let doc = doc.as_bytes();
        let chunkings = [
            vec![doc],
            doc.chunks(1).collect(),
            random_chunking(doc, &mut Lcg(0xC0FFEE ^ ci as u64)),
        ];
        for (pi, pool) in pools.iter().enumerate() {
            for (ki, chunks) in chunkings.iter().enumerate() {
                for step_budget in [1, 7, 4096] {
                    for high_water in [512, 8 * 1024, default_high_water] {
                        let what = format!(
                            "{query}: driver {pi}, chunking {ki}, step budget {step_budget}, \
                             high water {high_water}"
                        );
                        let (got, report, charged) =
                            scheduled(query, chunks, pool.as_ref(), step_budget, high_water);
                        assert_eq!(want.as_bytes(), got, "output differs for {what}");
                        assert_eq!(want_peak, report.stats.peak_nodes, "peak for {what}");
                        assert_eq!(
                            report.stats.roles_assigned, report.stats.roles_removed,
                            "roles unbalanced for {what}"
                        );
                        assert_eq!(charged, 0, "budget not returned for {what}");
                    }
                }
            }
        }
    }
    for pool in pools.into_iter().flatten() {
        pool.shutdown();
    }
}

/// Runs `body` on its own thread and fails the test if it is still
/// running after a minute: the failure mode under test is a hang.
fn within_a_minute<T: Send + 'static>(what: &str, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(body()));
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{what} hung (or its thread panicked)"))
}

/// A document whose copy-all result is larger than the default output
/// bound (4 MiB): the evaluator parks on the bound before the end.
fn copy_all_doc() -> String {
    let doc = format!(
        "<r>{}</r>",
        "<a><k>key</k><v>some padding text for the value</v></a>".repeat(100_000)
    );
    assert!(doc.len() > SessionConfig::default().output_high_water);
    doc
}

const COPY_ALL: &str = "<o>{ for $a in /r/a return $a }</o>";

#[test]
fn finish_takes_the_output_a_single_feed_left_behind() {
    // One feed, then finish: whoever waits for the end of the run is the
    // only consumer left, so it has to keep taking output or the
    // evaluator stays parked on the output bound forever.
    let doc = copy_all_doc();
    let (want, _) = one_shot(COPY_ALL, &doc);
    for workers in [0, 1] {
        let doc = doc.clone();
        let got = within_a_minute("feed + finish", move || {
            let pool = (workers > 0).then(|| EvaluatorPool::new(workers));
            let (out, _, charged) = scheduled(
                COPY_ALL,
                &[doc.as_bytes()],
                pool.as_ref(),
                4096,
                SessionConfig::default().output_high_water,
            );
            assert_eq!(charged, 0);
            if let Some(pool) = pool {
                pool.shutdown();
            }
            out
        });
        assert!(
            got == want.as_bytes(),
            "output differs with {workers} pool workers"
        );
    }
}
