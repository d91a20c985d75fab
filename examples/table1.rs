//! The paper's **Table 1** and the §6 ablation, as plain text.
//!
//! Per XMark query (Q1, Q6, Q8, Q13, Q20) and input size, the evaluation
//! time and the buffer high-water mark (bytes / nodes) of the four
//! engines: GCX (projection + active GC), static analysis alone (the
//! FluXQuery class), projection-then-evaluate (Galax \[13\]) and a DOM
//! engine. Every engine's output is asserted byte-identical, and the
//! memory ordering GCX ≤ NoGC-Stream ≤ DOM is asserted (without DOM where
//! it did not run).
//!
//! ```text
//! cargo run --release --example table1 [-- --sizes 1,5,10,20] [--ablation]
//! ```
//!
//! Sizes are MB of generated XMark data (the paper's 10–200 MB scaled
//! down ×10; `--sizes 10,50,100,200` is paper scale). Q8 is a nested-loop
//! join: the streaming engines run it in linear time over an equality-key
//! index, but the DOM engine evaluates it as written, quadratic like the
//! paper's prototype (which timed out at 200 MB), so above 5 MB the DOM
//! column skips Q8. `--ablation` runs GCX alone with each §6 optimization
//! switched off instead.
//!
//! This is the paper's artefact, not the repository's benchmark: that is
//! `BENCHMARK.json` + `benchmark/`.

use gcx::xmark::{self, XmarkConfig};
use gcx::{CompileOptions, RunReport, TagInterner};

/// Largest input the DOM engine's quadratic Q8 join runs on.
const DOM_Q8_MAX_MB: f64 = 5.0;
const ENGINES: [&str; 4] = ["GCX", "NoGC-Stream", "StaticProj", "DOM"];

/// Runs engine `which` (index into [`ENGINES`]) and returns its report
/// and output.
fn run(which: usize, query: &str, doc: &[u8], copts: CompileOptions) -> (RunReport, Vec<u8>) {
    let mut tags = TagInterner::new();
    let compiled = gcx::compile(query, &mut tags, copts).expect("compile");
    let mut out = Vec::new();
    let report = match which {
        0 => gcx::run_gcx(&compiled, &mut tags, doc, &mut out),
        1 => gcx::run_no_gc_streaming(&compiled, &mut tags, doc, &mut out),
        2 => gcx::run_static_projection(&compiled, &mut tags, doc, &mut out),
        _ => gcx::run_dom(&compiled, &mut tags, doc, &mut out),
    }
    .expect("run");
    assert_ne!(report.safety, Some(false), "roles leaked");
    (report, out)
}

fn table(qname: &str, query: &str, mb: f64, doc: &[u8]) {
    print!("{:<10}", format!("{qname} {mb}MB"));
    let capped = qname == "Q8" && mb > DOM_Q8_MAX_MB;
    let mut reference: Option<Vec<u8>> = None;
    let mut peaks = Vec::new();
    for (which, label) in ENGINES.iter().enumerate() {
        if capped && *label == "DOM" {
            print!("{:>30}", "skipped (quadratic join)");
            continue;
        }
        let (report, out) = run(which, query, doc, CompileOptions::default());
        print!(
            "{:>30}",
            format!(
                "{:.3}s {} / {}n",
                report.elapsed.as_secs_f64(),
                report.stats.peak_human(),
                report.stats.peak_nodes
            )
        );
        peaks.push(report.stats.peak_bytes);
        match &reference {
            None => reference = Some(out),
            Some(r) => assert!(r == &out, "{qname}: {label} output differs from GCX"),
        }
    }
    println!();
    let (gcx, nogc, dom) = (peaks[0], peaks[1], peaks.get(3).copied());
    assert!(
        gcx <= nogc && dom.is_none_or(|dom| nogc <= dom),
        "{qname}: peak bytes not ordered: GCX {gcx}, NoGC {nogc}, DOM {dom:?}"
    );
}

fn ablation(qname: &str, query: &str, mb: f64, doc: &[u8]) {
    let without = |switch_off: fn(&mut CompileOptions)| {
        let mut copts = CompileOptions::default();
        switch_off(&mut copts);
        copts
    };
    let variants = [
        ("full (all §6 optimizations)", CompileOptions::default()),
        ("no early updates", without(|o| o.early_updates = false)),
        (
            "no redundant-role elim",
            without(|o| o.redundant_role_elimination = false),
        ),
        ("no aggregate roles", without(|o| o.aggregate_roles = false)),
        ("plain (§4/§5 only)", CompileOptions::plain()),
    ];
    println!("{qname} {mb}MB:");
    println!(
        "  {:<28} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "variant", "time", "peak mem", "peak nodes", "roles+", "roles-", "gc visits"
    );
    let mut reference: Option<Vec<u8>> = None;
    for (name, copts) in variants {
        let (report, out) = run(0, query, doc, copts);
        let s = &report.stats;
        println!(
            "  {:<28} {:>8.3}s {:>10} {:>10} {:>10} {:>10} {:>10}",
            name,
            report.elapsed.as_secs_f64(),
            s.peak_human(),
            s.peak_nodes,
            s.roles_assigned,
            s.roles_removed,
            s.gc_visits
        );
        match &reference {
            None => reference = Some(out),
            Some(r) => assert!(r == &out, "{qname}: output differs under {name:?}"),
        }
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sizes: Vec<f64> = args
        .iter()
        .position(|a| a == "--sizes")
        .map_or("1,5,10,20", |i| {
            args.get(i + 1).expect("--sizes <MB,MB,...>")
        })
        .split(',')
        .map(|s| s.trim().parse().expect("size in MB"))
        .collect();
    let each: fn(&str, &str, f64, &[u8]) = if args.iter().any(|a| a == "--ablation") {
        println!("GCX §6 optimization ablations on XMark data (seed 42)\n");
        ablation
    } else {
        println!("Table 1 (Schmidt/Scherzinger/Koch, ICDE 2007) on XMark data (seed 42)");
        println!("cells: evaluation time, buffer high-water mark in bytes / nodes\n");
        print!("{:<10}", "query");
        ENGINES.iter().for_each(|e| print!("{e:>30}"));
        println!();
        table
    };
    let docs: Vec<(f64, Vec<u8>)> = sizes
        .iter()
        .map(|&mb| {
            let mut doc = Vec::new();
            xmark::generate(
                XmarkConfig {
                    seed: 42,
                    scale: mb,
                },
                &mut doc,
            )
            .expect("generate");
            (mb, doc)
        })
        .collect();
    for (qname, query) in xmark::ALL {
        for (mb, doc) in &docs {
            each(qname, query, *mb, doc);
        }
    }
    println!("\nEvery run of a query produced byte-identical output (Theorem 1).");
}
