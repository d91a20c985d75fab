//! Maintenance harness: replays a failing (query-seed, doc-seed) pair
//! from the property-test generators and dumps the compiled artifacts,
//! projection tree and per-role accounting, to find which role a
//! failing case leaves unbalanced.
//!
//! ```text
//! cargo run --example debug_case <query-seed> <doc-seed>
//! ```
use gcx::query::{compile, CompileOptions};
use gcx::xml::TagInterner;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

include!("../tests/common/prop_gen.rs");

fn main() {
    let qseed: u64 = std::env::args().nth(1).unwrap().parse().unwrap();
    let dseed: u64 = std::env::args().nth(2).unwrap().parse().unwrap();
    let query = random_query(qseed);
    let doc = render_doc(dseed, 3, 3);
    println!("QUERY:\n{query}\n\nDOC:\n{doc}\n");
    let mut tags = TagInterner::new();
    let compiled = compile(&query, &mut tags, CompileOptions::default()).unwrap();
    println!(
        "REWRITTEN:\n{}\n",
        gcx::query::pretty_query(&compiled.rewritten, &tags)
    );
    println!("PROJECTION:\n{}", compiled.projection.tree.pretty(&tags));
    let mut out = Vec::new();
    let report = gcx::run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut out).unwrap();
    println!("safety: {:?}", report.safety);
    for (i, (a, r)) in report.role_balance.iter().enumerate() {
        println!(
            "  r{i}: assigned={a} removed={r}   ({})",
            compiled.roles.origin(gcx::projection::Role(i as u32))
        );
    }
    println!(
        "assigned={} removed={}",
        report.stats.roles_assigned, report.stats.roles_removed
    );
}
