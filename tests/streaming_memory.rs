//! The headline of paper Table 1, as an executable assertion: for the
//! streamable XMark queries, GCX's buffer high watermark is **independent
//! of the input size**, while the static-analysis-only engines grow
//! linearly and the DOM engine holds everything.

use gcx::xmark::{self, XmarkConfig};
use gcx::TagInterner;

fn doc(scale: f64) -> Vec<u8> {
    let mut buf = Vec::new();
    xmark::generate(XmarkConfig { seed: 7, scale }, &mut buf).unwrap();
    buf
}

fn gcx_peak(query: &str, data: &[u8]) -> (usize, usize) {
    let mut tags = TagInterner::new();
    let compiled = gcx::compile_default(query, &mut tags).unwrap();
    let mut sink = std::io::sink();
    let report = gcx::run_gcx(&compiled, &mut tags, data, &mut sink).unwrap();
    assert_eq!(report.safety, Some(true));
    (report.stats.peak_nodes, report.stats.peak_bytes)
}

fn nogc_peak(query: &str, data: &[u8]) -> usize {
    let mut tags = TagInterner::new();
    let compiled = gcx::compile_default(query, &mut tags).unwrap();
    let mut sink = std::io::sink();
    let report = gcx::run_no_gc_streaming(&compiled, &mut tags, data, &mut sink).unwrap();
    report.stats.peak_bytes
}

/// Paper: "For queries Q1, Q6, Q13 and Q20, memory consumption of our
/// prototype is independent of the input stream size."
///
/// GCX's watermark is bounded by the largest single buffered item (which
/// fluctuates with random content), not by the stream length — so the
/// robust check is that GCX's growth across a 5× input is a small
/// constant while the no-GC engine's tracks the input.
#[test]
fn constant_memory_for_streamable_queries() {
    let small = doc(0.05);
    let large = doc(0.25); // 5× the input
    for (name, query) in [
        ("Q1", xmark::Q1),
        ("Q6", xmark::Q6),
        ("Q13", xmark::Q13),
        ("Q20", xmark::Q20),
    ] {
        let (_, b_small) = gcx_peak(query, &small);
        let (_, b_large) = gcx_peak(query, &large);
        let gcx_growth = b_large as f64 / b_small as f64;
        let nogc_growth = nogc_peak(query, &large) as f64 / nogc_peak(query, &small) as f64;
        assert!(
            gcx_growth < 3.5,
            "{name}: GCX peak grew {gcx_growth:.1}x on 5x input ({b_small} -> {b_large})"
        );
        assert!(
            gcx_growth < nogc_growth * 0.75,
            "{name}: GCX growth {gcx_growth:.2}x not clearly below no-GC growth {nogc_growth:.2}x"
        );
    }
}

/// Static analysis alone keeps the projected document buffered: the no-GC
/// engine's footprint grows roughly linearly with the input.
#[test]
fn no_gc_memory_tracks_input_size() {
    let small = doc(0.05);
    let large = doc(0.25);
    let b_small = nogc_peak(xmark::Q1, &small);
    let b_large = nogc_peak(xmark::Q1, &large);
    assert!(
        b_large as f64 > b_small as f64 * 3.0,
        "no-GC peak should grow ~5x: {b_small} -> {b_large}"
    );
}

/// The memory hierarchy of Table 1: GCX ≤ no-GC ≈ static-projection ≤ DOM,
/// on byte-identical output (Theorem 1) — and for the selective queries
/// GCX gets there by proving most of the stream dead and raw-skipping it.
#[test]
fn table1_memory_ordering() {
    let data = doc(0.1);
    for (name, query) in xmark::ALL {
        let run = |engine: usize| {
            let mut tags = TagInterner::new();
            let compiled = gcx::compile_default(query, &mut tags).unwrap();
            let mut out = Vec::new();
            let report = match engine {
                0 => gcx::run_gcx(&compiled, &mut tags, &data[..], &mut out),
                1 => gcx::run_no_gc_streaming(&compiled, &mut tags, &data[..], &mut out),
                2 => gcx::run_static_projection(&compiled, &mut tags, &data[..], &mut out),
                _ => gcx::run_dom(&compiled, &mut tags, &data[..], &mut out),
            }
            .unwrap();
            (report, out)
        };
        let [(g, g_out), (n, n_out), (s, s_out), (d, d_out)] = [0, 1, 2, 3].map(run);
        assert!(
            g_out == n_out && g_out == s_out && g_out == d_out,
            "{name}: engines disagree"
        );
        let (g, n, s, d) = (
            g.stats.peak_bytes,
            n.stats.peak_bytes,
            s.stats.peak_bytes,
            d.stats.peak_bytes,
        );
        assert!(g <= n, "{name}: GCX {g} ≤ no-GC {n}");
        assert!(n <= d, "{name}: no-GC {n} ≤ DOM {d}");
        assert!(s <= d, "{name}: static projection {s} ≤ DOM {d}");
    }
}

/// Skip-mode lexing is active where it matters: for the selective Q1 and
/// Q6 more than 30 % of the input is consumed as raw bytes.
#[test]
fn selective_queries_raw_skip_a_third_of_the_stream() {
    let data = doc(0.1);
    for query in [xmark::Q1, xmark::Q6] {
        let mut tags = TagInterner::new();
        let compiled = gcx::compile_default(query, &mut tags).unwrap();
        let report = gcx::run_gcx(&compiled, &mut tags, &data[..], std::io::sink()).unwrap();
        let ratio = report.bytes_skipped as f64 / data.len() as f64;
        assert!(ratio > 0.3, "skip-mode inactive: {ratio:.2}");
    }
}

/// Evaluation time scales roughly linearly with input for the streamable
/// queries (sanity check, generous bounds against CI noise).
#[test]
fn linear_time_scaling() {
    let small = doc(0.1);
    let large = doc(0.4);
    let mut tags = TagInterner::new();
    let compiled = gcx::compile_default(xmark::Q1, &mut tags).unwrap();
    // Warm up + measure.
    let mut sink = std::io::sink();
    let _ = gcx::run_gcx(&compiled, &mut tags, &small[..], &mut sink).unwrap();
    let t_small = {
        let mut sink = std::io::sink();
        gcx::run_gcx(&compiled, &mut tags, &small[..], &mut sink)
            .unwrap()
            .elapsed
    };
    let t_large = {
        let mut sink = std::io::sink();
        gcx::run_gcx(&compiled, &mut tags, &large[..], &mut sink)
            .unwrap()
            .elapsed
    };
    // 4× the data should cost well under 40× the time.
    assert!(
        t_large < t_small * 40,
        "time exploded: {t_small:?} -> {t_large:?}"
    );
}
