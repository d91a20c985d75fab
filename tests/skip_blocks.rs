//! Block mode of the lexer's raw skip, held by a count rather than a
//! speed: the share of the raw-skipped bytes that went by 64-byte blocks
//! (gcx-xml's lexer docs, "Skip mode") does not depend on the machine,
//! so a fall in it is a change in what block mode accepts, not noise.
//!
//! ```text
//! cargo test --release --test skip_blocks
//! ```

use gcx::xmark::{self, XmarkConfig};
use gcx::TagInterner;

/// Q1 over XMark 1 (seed 42) skips ~95 % of its input, dead subtrees and
/// the child search's dead children alike; block mode takes 677 651 of
/// the 749 450 skipped bytes. It must take at least half.
#[test]
fn q1_skips_mostly_by_blocks() {
    let mut doc = Vec::new();
    xmark::generate(
        XmarkConfig {
            seed: 42,
            scale: 1.0,
        },
        &mut doc,
    )
    .expect("generate");
    let query = xmark::by_name("Q1").expect("known query");
    let mut tags = TagInterner::new();
    let compiled = gcx::compile_default(query, &mut tags).expect("compile");
    let report = gcx::run_gcx(&compiled, &mut tags, &doc[..], std::io::sink()).expect("run");
    eprintln!(
        "Q1: {} of {} skipped bytes by blocks",
        report.block_skipped, report.bytes_skipped
    );
    assert!(
        report.bytes_skipped > doc.len() as u64 / 2,
        "Q1 skips most input"
    );
    assert!(
        2 * report.block_skipped >= report.bytes_skipped,
        "block mode took {} of {} skipped bytes",
        report.block_skipped,
        report.bytes_skipped
    );
}
