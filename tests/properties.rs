//! Property-based tests (proptest): randomized documents and queries.
//!
//! * **Theorem 1**: GCX output equals the DOM oracle on every random
//!   (query, document) pair, under both compile-option sets.
//! * **Safety**: every GCX run returns all assigned role instances.
//! * **Lexer/writer roundtrip** on random documents.
//! * **Memory dominance**: GCX's peak never exceeds the no-GC engine's.
//! * **Key-filtered joins**: random equality joins (and near misses the
//!   filter must reject) match the DOM oracle under every step budget and
//!   chunking.
//! * **Engine schedules**: the bare step machine, driven with random
//!   step budgets over input released a few bytes at a time, matches the
//!   DOM oracle and the one-shot engine's peak on decorated documents
//!   (attributes, comments, PIs, CDATA, references, indentation) and on
//!   the shared corpus.
//! * **Search scan under schedules**: queries with a descendant step over
//!   decorated documents, fed 1–7 bytes at a time under step budgets
//!   1/7/unbounded, match the DOM oracle and the one-shot peak, and enough
//!   cases actually reach the preprojector's search scan.
//! * **Copy-through under schedules**: bind-and-emit queries over
//!   decorated documents with nested matches, fed 1–7 bytes at a time
//!   under step budgets 1/7/unbounded, match the DOM oracle with every
//!   role returned, an empty buffer at the end and a peak within no-GC's;
//!   enough cases stream a binding through, and some tee a nested match.
//! * **Child search and verdict reuse under schedules**: child-only
//!   queries whose conditions repeat (`exists`, string comparisons under
//!   `and`/`not`, inner loops rebinding a variable between the sites of
//!   its condition) over decorated documents, fed 1–7 bytes at a time
//!   under step budgets 1/7/unbounded, match the DOM oracle with every
//!   role returned, an empty buffer at the end and the one-shot peak;
//!   enough cases skip a dead child by the lexer's child search, and some
//!   reuse a condition's verdict.

use gcx::core::StepOutcome;
use gcx::query::{compile, compile_default, CompileOptions};
use gcx::xml::{TagId, TagInterner, XmlError, XmlEvent, XmlLexer, XmlWriter};
use gcx::{GcxEngine, Strategy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Read};
use std::rc::Rc;

mod corpus;

// ----------------------------------------------------------------------
// Random documents
// ----------------------------------------------------------------------

include!("common/prop_gen.rs");
include!("../crates/xml/tests/support/tokens.rs");

// ----------------------------------------------------------------------
// The properties
// ----------------------------------------------------------------------

fn differential_case(qseed: u64, dseed: u64, opts: CompileOptions) {
    let query = random_query(qseed);
    let doc = render_doc(dseed, 3, 3);
    let mut tags = TagInterner::new();
    let compiled = match compile(&query, &mut tags, opts) {
        Ok(c) => c,
        Err(e) => panic!("generated query failed to compile: {e}\n{query}"),
    };
    let mut dom_out = Vec::new();
    gcx::run_dom(&compiled, &mut tags, doc.as_bytes(), &mut dom_out)
        .unwrap_or_else(|e| panic!("dom failed: {e}\n{query}\n{doc}"));
    let mut gcx_out = Vec::new();
    let report = gcx::run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut gcx_out)
        .unwrap_or_else(|e| panic!("gcx failed: {e}\n{query}\n{doc}"));
    assert_eq!(
        String::from_utf8(dom_out).unwrap(),
        String::from_utf8(gcx_out).unwrap(),
        "Theorem 1 violated for\n{query}\nover\n{doc}"
    );
    assert_eq!(
        report.safety,
        Some(true),
        "role accounting violated for\n{query}\nover\n{doc}"
    );
}

/// One join case: the static filter decision as expected, then for both
/// compile-option sets, step budgets 1, 7 and unbounded, whole and
/// 1-byte-chunked input: output byte-identical to the DOM oracle and
/// every role returned.
fn join_case(qseed: u64, dseed: u64) {
    use gcx::service::SessionConfig;
    use std::sync::Arc;
    let (query, filterable) = join_query(qseed);
    let doc = render_join_doc(dseed);
    let option_sets = [CompileOptions::default(), CompileOptions::plain()];
    for (opts, filterable) in option_sets.into_iter().zip(filterable) {
        let mut tags = TagInterner::new();
        let compiled = compile(&query, &mut tags, opts)
            .unwrap_or_else(|e| panic!("join query failed to compile: {e}\n{query}"));
        assert_eq!(
            !compiled.key_filters.is_empty(),
            filterable,
            "key filter decision for\n{query}"
        );
        let mut want = Vec::new();
        gcx::run_dom(&compiled, &mut tags, doc.as_bytes(), &mut want)
            .unwrap_or_else(|e| panic!("dom failed: {e}\n{query}\n{doc}"));
        let compiled = Arc::new(compiled);
        for step_budget in [1, 7, u32::MAX] {
            for chunk in [doc.len().max(1), 1] {
                let mut session = gcx::StreamSession::new(
                    compiled.clone(),
                    tags.clone(),
                    SessionConfig {
                        step_budget,
                        ..Default::default()
                    },
                );
                let mut got = Vec::new();
                for c in doc.as_bytes().chunks(chunk) {
                    got.extend_from_slice(&session.feed(c).expect("feed"));
                }
                let outcome = session.finish().expect("finish");
                got.extend_from_slice(&outcome.output);
                let what =
                    format!("step budget {step_budget}, chunk {chunk}:\n{query}\nover\n{doc}");
                assert_eq!(
                    String::from_utf8_lossy(&want),
                    String::from_utf8_lossy(&got),
                    "output differs at {what}"
                );
                let stats = &outcome.report.stats;
                assert_eq!(
                    stats.roles_assigned, stats.roles_removed,
                    "roles unbalanced at {what}"
                );
            }
        }
    }
}

/// Input the schedule releases: `WouldBlock` while dry, end of input
/// once the last byte is released and read.
#[derive(Default)]
struct Release {
    bytes: VecDeque<u8>,
    all_out: bool,
}

#[derive(Clone, Default)]
struct Released(Rc<RefCell<Release>>);

impl Read for Released {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let release = &mut *self.0.borrow_mut();
        if release.bytes.is_empty() && !release.all_out {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        release.bytes.read(buf)
    }
}

/// One seeded schedule of the bare step machine: a budget of 1–3 per
/// `step`, 1–7 more input bytes per `NeedInput`, end of input once the
/// document is out. Output must equal the DOM oracle's, the peak the
/// one-shot engine's, and every assigned role must come back.
fn schedule_case(query: &str, doc: &str, seed: u64) {
    let mut tags = TagInterner::new();
    let compiled = compile_default(query, &mut tags)
        .unwrap_or_else(|e| panic!("query failed to compile: {e}\n{query}"));
    let mut want = Vec::new();
    gcx::run_dom(&compiled, &mut tags.clone(), doc.as_bytes(), &mut want)
        .unwrap_or_else(|e| panic!("dom failed: {e}\n{query}\n{doc}"));
    let one_shot = gcx::run_gcx(&compiled, &mut tags.clone(), doc.as_bytes(), io::sink())
        .unwrap_or_else(|e| panic!("gcx failed: {e}\n{query}\n{doc}"));
    let mut rng = StdRng::seed_from_u64(seed);
    let input = Released::default();
    let mut unreleased = doc.as_bytes();
    let mut got = Vec::new();
    let mut engine = GcxEngine::new(&compiled, &mut tags, input.clone(), &mut got, Strategy::Gcx);
    let what = format!("schedule {seed}:\n{query}\nover\n{doc}");
    let report = loop {
        match engine.step(rng.random_range(1..=3)) {
            StepOutcome::Yielded => {}
            StepOutcome::NeedInput => {
                assert!(
                    !unreleased.is_empty(),
                    "NeedInput after end of input at {what}"
                );
                let n = rng.random_range(1..=7).min(unreleased.len());
                let (now, later) = unreleased.split_at(n);
                let release = &mut *input.0.borrow_mut();
                release.bytes.extend(now);
                release.all_out = later.is_empty();
                unreleased = later;
            }
            StepOutcome::Finished(report) => break report,
            other => panic!("unexpected {other:?} at {what}"),
        }
    };
    drop(engine);
    assert_eq!(
        String::from_utf8_lossy(&want),
        String::from_utf8_lossy(&got),
        "output differs at {what}"
    );
    assert_eq!(
        report.stats.peak_nodes, one_shot.stats.peak_nodes,
        "peak at {what}"
    );
    assert_eq!(
        report.stats.roles_assigned, report.stats.roles_removed,
        "roles unbalanced at {what}"
    );
}

#[test]
fn corpus_matches_dom_under_engine_schedules() {
    for (query, doc) in corpus::corpus() {
        for seed in 0..20 {
            schedule_case(query, doc, seed);
        }
    }
}

/// The events the preprojector would build for `doc` without its search
/// scan: its event path replayed on the same matcher, dead subtrees
/// raw-skipped after their counted `Open` as in `Preprojector::pump`.
fn events_without_search_scan(query: &str, doc: &str) -> u64 {
    use gcx::projection::StreamMatcher;
    use gcx::xml::XmlEvent;
    let mut tags = TagInterner::new();
    let compiled = compile_default(query, &mut tags).expect("compiles");
    let mut matcher = StreamMatcher::new(&compiled.projection.tree);
    let mut lexer = XmlLexer::new(doc.as_bytes(), &mut tags);
    let mut events = 0;
    while let Some(event) = lexer.next_event().expect("well-formed") {
        events += 1;
        match event {
            XmlEvent::Open(tag) => {
                if !matcher.open(tag).buffer && matcher.is_dead() {
                    lexer.skip_subtree().expect("well-formed");
                    matcher.close();
                }
            }
            XmlEvent::Close(_) => matcher.close(),
            XmlEvent::Text(_) => {
                matcher.text();
            }
        }
    }
    events
}

/// One search-scan case: a random query with a descendant step over a
/// decorated document (attributes, references, CDATA sections, comments
/// and PIs land inside the regions the scan consumes), run as a session
/// fed 1–7 bytes at a time under step budgets 1, 7 and unbounded. Output
/// equals the DOM oracle's, every role comes back, and the peak equals
/// the one-shot run's. Returns whether the one-shot run's search scan
/// consumed any event (it built fewer events than its event path would).
fn search_scan_case(seed: u64) -> bool {
    use gcx::service::SessionConfig;
    use std::sync::Arc;
    let mut rng = StdRng::seed_from_u64(seed);
    let query = loop {
        let q = random_query(rng.random_range(0..u64::MAX));
        if q.contains("//") {
            break q;
        }
    };
    let dseed = rng.random_range(0..1_000_000);
    let doc = decorate_doc(dseed, &render_doc(dseed, 4, 4));
    let mut tags = TagInterner::new();
    let compiled = compile_default(&query, &mut tags)
        .unwrap_or_else(|e| panic!("query failed to compile: {e}\n{query}"));
    let mut want = Vec::new();
    gcx::run_dom(&compiled, &mut tags.clone(), doc.as_bytes(), &mut want)
        .unwrap_or_else(|e| panic!("dom failed: {e}\n{query}\n{doc}"));
    let one_shot = gcx::run_gcx(&compiled, &mut tags.clone(), doc.as_bytes(), io::sink())
        .unwrap_or_else(|e| panic!("gcx failed: {e}\n{query}\n{doc}"));
    let compiled = Arc::new(compiled);
    for step_budget in [1, 7, u32::MAX] {
        let config = SessionConfig {
            step_budget,
            ..Default::default()
        };
        let mut session = gcx::StreamSession::new(compiled.clone(), tags.clone(), config);
        let mut got = Vec::new();
        let mut rest = doc.as_bytes();
        while !rest.is_empty() {
            let (now, later) = rest.split_at(rng.random_range(1..=7).min(rest.len()));
            got.extend_from_slice(&session.feed(now).expect("feed"));
            rest = later;
        }
        let outcome = session.finish().expect("finish");
        got.extend_from_slice(&outcome.output);
        let what = format!("seed {seed}, step budget {step_budget}:\n{query}\nover\n{doc}");
        assert_eq!(
            String::from_utf8_lossy(&want),
            String::from_utf8_lossy(&got),
            "output differs at {what}"
        );
        let stats = &outcome.report.stats;
        assert_eq!(
            stats.roles_assigned, stats.roles_removed,
            "roles unbalanced at {what}"
        );
        assert_eq!(
            stats.peak_nodes, one_shot.stats.peak_nodes,
            "peak at {what}"
        );
    }
    one_shot.tokens_read < events_without_search_scan(&query, &doc)
}

/// The search scan under schedules; fails unless at least a quarter of
/// the cases reached it.
#[test]
fn search_scan_matches_dom_under_schedules() {
    let cases = 300;
    let reached = (0..cases).filter(|&seed| search_scan_case(seed)).count();
    assert!(
        reached * 4 >= cases as usize,
        "only {reached} of {cases} cases reached the search scan"
    );
}

/// Whether a one-shot run of `query` over `doc` streamed a binding
/// through, and whether a node was buffered while one was being streamed
/// (a teed nested match), read off the engine's trace labels: a binding
/// streams from `stream binding subtree through` up to the close of the
/// node buffered just before it.
fn copy_trace(compiled: &gcx::CompiledQuery, tags: &TagInterner, doc: &str) -> (bool, bool) {
    use std::sync::{Arc, Mutex};
    let labels = Arc::new(Mutex::new(Vec::new()));
    let sink = labels.clone();
    let mut tags = tags.clone();
    let mut engine = GcxEngine::new(
        compiled,
        &mut tags,
        doc.as_bytes(),
        io::sink(),
        Strategy::Gcx,
    );
    engine.set_tracer(Box::new(move |ev| {
        sink.lock().unwrap().push(ev.label.clone())
    }));
    engine.run().expect("gcx run");
    let (mut copied, mut teed) = (false, false);
    let (mut last_buffered, mut streaming) = (None, None);
    for label in labels.lock().unwrap().iter() {
        if label == "stream binding subtree through" {
            copied = true;
            streaming = last_buffered.clone();
        } else if let Some(node) = label.strip_prefix("read+buffer node ") {
            teed |= streaming.is_some();
            last_buffered = Some(node.to_string());
        } else if let Some(node) = label.strip_prefix("close node ") {
            if streaming.as_deref() == Some(node) {
                streaming = None;
            }
        }
    }
    (copied, teed)
}

/// One copy-through case: a bind-and-emit query ([`copy_query`]) over a
/// decorated document of nested matches, run as a session fed 1–7 bytes
/// at a time under step budgets 1, 7 and unbounded. Output equals the
/// DOM oracle's, every role comes back, the buffer ends empty, and the
/// peak never exceeds the no-GC engine's. Returns whether the case
/// streamed a binding through, and whether it teed a nested match.
fn copy_through_case(seed: u64) -> (bool, bool) {
    use gcx::service::SessionConfig;
    use std::sync::Arc;
    let mut rng = StdRng::seed_from_u64(seed);
    let query = copy_query(rng.random_range(0..u64::MAX));
    let dseed = rng.random_range(0..1_000_000);
    let doc = decorate_doc(dseed, &render_doc(dseed, 4, 4));
    let mut tags = TagInterner::new();
    let compiled = compile_default(&query, &mut tags)
        .unwrap_or_else(|e| panic!("query failed to compile: {e}\n{query}"));
    assert!(
        compiled.program.bind_and_emit().next().is_some(),
        "no bind-and-emit op in\n{query}"
    );
    let mut want = Vec::new();
    gcx::run_dom(&compiled, &mut tags.clone(), doc.as_bytes(), &mut want)
        .unwrap_or_else(|e| panic!("dom failed: {e}\n{query}\n{doc}"));
    let no_gc = gcx::run_no_gc_streaming(&compiled, &mut tags.clone(), doc.as_bytes(), io::sink())
        .unwrap_or_else(|e| panic!("no-gc failed: {e}\n{query}\n{doc}"));
    let traced = copy_trace(&compiled, &tags, &doc);
    let compiled = Arc::new(compiled);
    for step_budget in [1, 7, u32::MAX] {
        let config = SessionConfig {
            step_budget,
            ..Default::default()
        };
        let mut session = gcx::StreamSession::new(compiled.clone(), tags.clone(), config);
        let mut got = Vec::new();
        let mut rest = doc.as_bytes();
        while !rest.is_empty() {
            let (now, later) = rest.split_at(rng.random_range(1..=7).min(rest.len()));
            got.extend_from_slice(&session.feed(now).expect("feed"));
            rest = later;
        }
        let outcome = session.finish().expect("finish");
        got.extend_from_slice(&outcome.output);
        let what = format!("seed {seed}, step budget {step_budget}:\n{query}\nover\n{doc}");
        assert_eq!(
            String::from_utf8_lossy(&want),
            String::from_utf8_lossy(&got),
            "output differs at {what}"
        );
        let stats = &outcome.report.stats;
        assert_eq!(
            stats.roles_assigned, stats.roles_removed,
            "roles unbalanced at {what}"
        );
        assert_eq!(stats.live_nodes, 1, "buffer not empty at the end at {what}");
        assert!(
            stats.peak_bytes <= no_gc.stats.peak_bytes,
            "peak {} above no-GC's {} at {what}",
            stats.peak_bytes,
            no_gc.stats.peak_bytes
        );
    }
    traced
}

/// Copy-through under schedules; fails unless at least 75 of the cases
/// streamed a binding through and at least one teed a nested match.
#[test]
fn copy_through_matches_dom_under_schedules() {
    let cases = 300;
    let (mut copied, mut teed) = (0, 0);
    for seed in 0..cases {
        let (c, t) = copy_through_case(seed);
        copied += usize::from(c);
        teed += usize::from(t);
    }
    assert!(
        copied >= 75,
        "only {copied} of {cases} cases streamed a binding through"
    );
    assert!(teed > 0, "no case teed a nested match");
}

/// One child-search case: a [`child_query`] over a decorated document
/// (dead children nested several levels deep, with attributes, comments,
/// CDATA sections, PIs, references, `<x/>` and whitespace runs), run as a
/// session fed 1–7 bytes at a time under step budgets 1, 7 and
/// unbounded. Output equals the DOM oracle's, every role comes back, the
/// buffer ends empty, and the peak equals the one-shot run's. Returns
/// whether the one-shot run skipped a dead child whole by the child
/// search, and whether it reused a condition's verdict.
fn child_search_case(seed: u64) -> (bool, bool) {
    use gcx::service::SessionConfig;
    use std::sync::Arc;
    let mut rng = StdRng::seed_from_u64(seed);
    let query = child_query(rng.random_range(0..u64::MAX));
    let dseed = rng.random_range(0..1_000_000);
    let doc = decorate_doc(dseed, &render_doc(dseed, 4, 4));
    let mut tags = TagInterner::new();
    let compiled = compile_default(&query, &mut tags)
        .unwrap_or_else(|e| panic!("query failed to compile: {e}\n{query}"));
    let mut want = Vec::new();
    gcx::run_dom(&compiled, &mut tags.clone(), doc.as_bytes(), &mut want)
        .unwrap_or_else(|e| panic!("dom failed: {e}\n{query}\n{doc}"));
    let one_shot = gcx::run_gcx(&compiled, &mut tags.clone(), doc.as_bytes(), io::sink())
        .unwrap_or_else(|e| panic!("gcx failed: {e}\n{query}\n{doc}"));
    let compiled = Arc::new(compiled);
    for step_budget in [1, 7, u32::MAX] {
        let config = SessionConfig {
            step_budget,
            ..Default::default()
        };
        let mut session = gcx::StreamSession::new(compiled.clone(), tags.clone(), config);
        let mut got = Vec::new();
        let mut rest = doc.as_bytes();
        while !rest.is_empty() {
            let (now, later) = rest.split_at(rng.random_range(1..=7).min(rest.len()));
            got.extend_from_slice(&session.feed(now).expect("feed"));
            rest = later;
        }
        let outcome = session.finish().expect("finish");
        got.extend_from_slice(&outcome.output);
        let what = format!("seed {seed}, step budget {step_budget}:\n{query}\nover\n{doc}");
        assert_eq!(
            String::from_utf8_lossy(&want),
            String::from_utf8_lossy(&got),
            "output differs at {what}"
        );
        let stats = &outcome.report.stats;
        assert_eq!(
            stats.roles_assigned, stats.roles_removed,
            "roles unbalanced at {what}"
        );
        assert_eq!(stats.live_nodes, 1, "buffer not empty at the end at {what}");
        assert_eq!(
            stats.peak_nodes, one_shot.stats.peak_nodes,
            "peak at {what}"
        );
    }
    (one_shot.children_skipped > 0, one_shot.verdicts_reused > 0)
}

/// Child search and verdict reuse under schedules; fails unless at least
/// 75 of the cases skipped a dead child by the child search and at least
/// one reused a verdict.
#[test]
fn child_search_and_verdict_reuse_match_dom_under_schedules() {
    let cases = 300;
    let (mut searched, mut reused) = (0, 0);
    for seed in 0..cases {
        let (s, r) = child_search_case(seed);
        searched += usize::from(s);
        reused += usize::from(r);
    }
    assert!(
        searched >= 75,
        "only {searched} of {cases} cases skipped a dead child by child search"
    );
    assert!(reused > 0, "no case reused a verdict");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn engine_schedules_match_dom_on_decorated_docs(
        qseed in 0u64..1_000_000,
        dseed in 0u64..1_000_000,
        sseed in 0u64..1_000_000,
    ) {
        let doc = decorate_doc(dseed, &render_doc(dseed, 4, 4));
        schedule_case(&random_query(qseed), &doc, sseed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn key_filtered_joins_match_dom(qseed in 0u64..20_000, dseed in 0u64..20_000) {
        join_case(qseed, dseed);
    }

    #[test]
    fn theorem1_random_queries_default_opts(qseed in 0u64..20_000, dseed in 0u64..20_000) {
        differential_case(qseed, dseed, CompileOptions::default());
    }

    #[test]
    fn theorem1_random_queries_plain_opts(qseed in 0u64..20_000, dseed in 0u64..20_000) {
        differential_case(qseed, dseed, CompileOptions::plain());
    }

    #[test]
    fn gcx_memory_never_exceeds_no_gc(qseed in 0u64..10_000, dseed in 0u64..10_000) {
        let query = random_query(qseed);
        let doc = render_doc(dseed, 3, 3);
        let mut tags = TagInterner::new();
        let compiled = compile(&query, &mut tags, CompileOptions::default()).unwrap();
        let mut o1 = Vec::new();
        let g = gcx::run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut o1).unwrap();
        let mut tags2 = TagInterner::new();
        let compiled2 = compile(&query, &mut tags2, CompileOptions::default()).unwrap();
        let mut o2 = Vec::new();
        let n = gcx::run_no_gc_streaming(&compiled2, &mut tags2, doc.as_bytes(), &mut o2).unwrap();
        prop_assert!(
            g.stats.peak_nodes <= n.stats.peak_nodes,
            "GCX peak {} > no-GC peak {} for\n{}\nover\n{}",
            g.stats.peak_nodes, n.stats.peak_nodes, query, doc
        );
        prop_assert_eq!(o1, o2);
    }

    #[test]
    fn lexer_writer_roundtrip(dseed in 0u64..50_000) {
        let doc = render_doc(dseed, 4, 4);
        let mut tags = TagInterner::new();
        let mut lexer = XmlLexer::new(doc.as_bytes(), &mut tags);
        let tokens = lexer.tokenize_all().unwrap();
        let rendered = tokens_to_string(&tokens, &tags);
        let mut lexer2 = XmlLexer::new(rendered.as_bytes(), &mut tags);
        let tokens2 = lexer2.tokenize_all().unwrap();
        prop_assert_eq!(tokens, tokens2);
    }

    #[test]
    fn parser_pretty_fixpoint_on_random_queries(qseed in 0u64..100_000) {
        let query = random_query(qseed);
        let mut tags = TagInterner::new();
        let q1 = gcx::query::parse(&query, &mut tags).expect("generated query parses");
        let printed = gcx::query::pretty_query(&q1, &tags);
        let mut tags2 = TagInterner::new();
        let q2 = gcx::query::parse(&printed, &mut tags2)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        let printed2 = gcx::query::pretty_query(&q2, &tags2);
        prop_assert_eq!(printed, printed2, "pretty output is a fixpoint");
    }

    #[test]
    fn compile_is_deterministic(qseed in 0u64..50_000) {
        let query = random_query(qseed);
        let mut t1 = TagInterner::new();
        let c1 = compile(&query, &mut t1, CompileOptions::default()).unwrap();
        let mut t2 = TagInterner::new();
        let c2 = compile(&query, &mut t2, CompileOptions::default()).unwrap();
        prop_assert_eq!(
            gcx::query::pretty_query(&c1.rewritten, &t1),
            gcx::query::pretty_query(&c2.rewritten, &t2)
        );
        prop_assert_eq!(c1.projection.tree.len(), c2.projection.tree.len());
    }

    #[test]
    fn random_docs_parse_to_dom_and_back(dseed in 0u64..50_000) {
        let doc = render_doc(dseed, 3, 3);
        let mut tags = TagInterner::new();
        let parsed = gcx::xml::Document::parse_str(&doc, &mut tags).unwrap();
        let rendered = parsed.to_xml(&tags);
        let mut tags2 = TagInterner::new();
        let parsed2 = gcx::xml::Document::parse_str(&rendered, &mut tags2).unwrap();
        prop_assert_eq!(parsed.len(), parsed2.len());
    }
}
