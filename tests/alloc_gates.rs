//! Allocation gates for the zero-allocation hot paths.
//!
//! An integration test is its own binary, so it can install a counting
//! `#[global_allocator]` without any other target paying for it. Counts
//! are kept **per thread**: the test harness runs the gates in parallel,
//! and every measured region is single-threaded.
//!
//! ```text
//! cargo test --release --test alloc_gates
//! ```

use gcx::xmark::{self, XmarkConfig};
use gcx::xml::XmlLexer;
use gcx::TagInterner;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;

thread_local! {
    // `const` + no destructor: reading it never allocates or registers
    // a TLS destructor, so the allocator may touch it at any time.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocator round-trips (a `realloc` grows a buffer on the hot
/// path exactly like a fresh allocation would, so it counts as one).
struct CountingAllocator;

fn count_one() {
    // `try_with`: a thread's last frees can run after its TLS is gone.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every operation is delegated unchanged to `System`; the only
// addition is a bump of a destructor-free thread-local counter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

fn xmark_doc(mb: f64) -> Vec<u8> {
    let mut doc = Vec::with_capacity((mb * 1024.0 * 1024.0) as usize);
    xmark::generate(
        XmarkConfig {
            seed: 42,
            scale: mb,
        },
        &mut doc,
    )
    .expect("generate");
    doc
}

/// Cold `run_gcx` of the named XMark query over `doc`: allocator
/// round-trips of the evaluation alone (compilation excluded), and the
/// run's report.
fn cold_run(query_name: &str, doc: &[u8]) -> (u64, gcx::RunReport) {
    let query = xmark::by_name(query_name).expect("known query");
    let mut tags = TagInterner::new();
    let compiled = gcx::compile_default(query, &mut tags).expect("compile");
    let before = allocations();
    let report = gcx::run_gcx(&compiled, &mut tags, doc, std::io::sink()).expect("run");
    (allocations() - before, report)
}

/// [`cold_run`] per materialized event, plus the DFA state count.
fn allocs_per_event(query_name: &str, doc: &[u8]) -> (f64, usize) {
    let (allocs, report) = cold_run(query_name, doc);
    let events = report.tokens_read.max(1);
    let ratio = allocs as f64 / events as f64;
    eprintln!("{query_name}: {allocs} allocations over {events} events ({ratio:.5}/event)");
    (ratio, report.dfa_states)
}

/// Once a document's tag vocabulary is interned and the lexer's scratch
/// buffers have reached their high-water capacity, lexing an identical
/// stream performs zero heap allocations: the document is lexed twice
/// back to back under one synthetic root, counting over the second copy.
#[test]
fn lexer_steady_state_is_allocation_free() {
    const OPEN: &[u8] = b"<gcx-probe>";
    let doc = xmark_doc(0.5);
    let reader = OPEN
        .chain(&doc[..])
        .chain(&doc[..])
        .chain(&b"</gcx-probe>"[..]);
    let boundary = (OPEN.len() + doc.len()) as u64;
    let mut tags = TagInterner::new();
    let mut lexer = XmlLexer::new(reader, &mut tags);
    while lexer.offset() < boundary {
        assert!(lexer.next_event().expect("lex").is_some(), "short stream");
    }
    let before = allocations();
    let mut events = 0u64;
    while lexer.next_event().expect("lex").is_some() {
        events += 1;
    }
    let allocs = allocations() - before;
    assert!(events > 10_000, "probe too small: {events}");
    assert_eq!(
        allocs, 0,
        "steady-state lexing allocated {allocs} times over {events} events"
    );
}

/// Q13 buffers whole description subtrees (dos::node() projection) — the
/// last known allocation pocket. A cold run performs only a few dozen
/// allocator round-trips in total; 0.005/event at a 16 MB document
/// (≈ 15k materialized events — skip-mode lexing consumes the rest as
/// raw bytes) allows ~77, roughly 2× the measured figure.
#[test]
fn q13_allocs_per_event_bounded() {
    let (ratio, _) = allocs_per_event("Q13", &xmark_doc(16.0));
    assert!(ratio <= 0.005, "Q13: {ratio:.5} allocations/event > 0.005");
}

/// Q6 (`$b//item`) spends most of its input in the lexer's search scan,
/// which keeps the elements it steps into as buffer ranges on a scratch
/// stack and interns nothing unless it stops inside one. No allocation
/// may scale with the scanned volume: 16× the document (1 → 16 MB, the
/// scan covering 16× the bytes and ~8 000 more items) may cost at most 12
/// more allocator round-trips. What does grow is the high-water of
/// scratch the event path still uses at the scan's stops (the text run
/// and event queue at a window end), one doubling at a time: measured
/// +6 (43 → 49, flat from 8 MB on). A count, not a per-event rate: the
/// scan removes ~9 of every 10 events, so the rate rises while the count
/// stays put.
#[test]
fn q6_search_scan_allocations_do_not_scale() {
    let (small, small_report) = cold_run("Q6", &xmark_doc(1.0));
    let (large, large_report) = cold_run("Q6", &xmark_doc(16.0));
    eprintln!(
        "Q6: {small} allocations at 1 MB ({} events), {large} at 16 MB ({} events)",
        small_report.tokens_read, large_report.tokens_read
    );
    assert!(
        large_report.bytes_skipped > 15 * small_report.bytes_skipped,
        "the scan must cover the larger regions"
    );
    assert!(
        large <= small + 12,
        "Q6: {large} allocations at 16 MB vs {small} at 1 MB"
    );
}

/// Q20's `not(exists($p/profile))` puts a first-witness step in the
/// projection tree, which the lazy DFA resolves per event against the
/// matcher's fired sets: interned target states, matcher scratch and
/// evaluator scratch must keep the engine's amortized rate under 0.05
/// per materialized event, per-run set-up (lexer buffer, interner, DFA
/// and fired-set growth to peak depth) included.
#[test]
fn q20_allocs_per_event_bounded() {
    let (ratio, dfa_states) = allocs_per_event("Q20", &xmark_doc(1.0));
    assert!(dfa_states > 0, "Q20 must run on the lazy DFA");
    assert!(ratio <= 0.05, "Q20: {ratio:.4} allocations/event > 0.05");
}

/// Q8 is a nested-loop join: 640 persons re-enter the 235-auction loop.
/// The key pre-filter runs the loop body on matching auctions only, and
/// the comparisons it still runs reuse engine scratch. The measured rate
/// is ≈ 0.014 per materialized event (it was 65 before both).
#[test]
fn q8_allocs_per_event_bounded() {
    let (ratio, _) = allocs_per_event("Q8", &xmark_doc(1.0));
    assert!(ratio <= 1.0, "Q8: {ratio:.4} allocations/event > 1.0");
}

/// Recording into the observability primitives sits on the engine hot
/// path (sampled stage timers) and the request path; it and taking a
/// snapshot (fixed-size arrays on the stack) must not allocate.
#[test]
fn histogram_recording_is_allocation_free() {
    let hist = gcx_obs::LatencyHistogram::new();
    let counter = gcx_obs::Counter::new();
    hist.record(std::time::Duration::from_micros(3));
    let before = allocations();
    for i in 0..10_000u64 {
        hist.record_nanos(i * 37 + 1);
        counter.inc();
    }
    let snap = hist.snapshot();
    let allocs = allocations() - before;
    assert_eq!(allocs, 0, "recording 10k samples allocated {allocs} times");
    assert_eq!(snap.count, 10_001);
    assert!(snap.p50() > 0);
}
