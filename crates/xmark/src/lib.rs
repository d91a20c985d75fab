//! # gcx-xmark — XMark-like workload for the GCX benchmarks
//!
//! The paper's evaluation (§7, Table 1) runs five adapted XMark queries
//! over documents of 10–200 MB. This crate provides:
//!
//! * [`gen`] — a seeded, size-targeted, streaming generator producing
//!   auction-site documents with the XMark element structure (attributes
//!   already converted to subelements, as the paper's adaptation does);
//! * [`queries`] — the adapted Q1, Q6, Q8, Q13 and Q20 in the XQ surface
//!   syntax.
//!
//! The generator stands in for the original `xmlgen`, which is not
//! available offline.

#![forbid(unsafe_code)]

pub mod gen;
pub mod queries;
pub mod vocab;

pub use gen::{generate, generate_string, XmarkConfig, BYTES_PER_SCALE};
pub use queries::{by_name, ALL, Q1, Q13, Q20, Q6, Q8};
