//! # gcx-xml — streaming XML substrate for GCX
//!
//! The GCX paper (Schmidt, Scherzinger, Koch; ICDE 2007) operates on XML
//! *streams*: sequences of opening tags, closing tags and character data,
//! dual to unranked ordered labeled trees (paper §2). This crate provides
//! that substrate, built from scratch:
//!
//! * [`TagInterner`] — the symbol table replacing tag names by integers
//!   (paper §6, "Buffer Representation").
//! * [`XmlEvent`] — the stream event model.
//! * [`lexer::XmlLexer`] — a pull-based streaming tokenizer over any
//!   [`std::io::Read`]. It reads the one dialect the paper evaluated:
//!   attributes become leading subelements (§7) and whitespace-only text
//!   is dropped.
//! * [`writer::XmlWriter`] — an escaping stream writer (used for query
//!   output and by the XMark generator).
//! * [`tree::Document`] — a simple DOM used by the in-memory baseline
//!   engines and as the reference for document projection (paper Def. 1).

#![deny(unsafe_code)]

pub mod error;
pub mod lexer;
pub mod scan;
pub mod tags;
pub mod token;
pub mod tree;
pub mod writer;

pub use error::XmlError;
pub use lexer::{SearchScope, XmlLexer};
pub use scan::ScanKernel;
pub use tags::{FxBuildHasher, FxHasher, TagId, TagInterner};
pub use token::XmlEvent;
pub use tree::{Document, NodeId, NodeKind};
pub use writer::{CountingSink, XmlWriter};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, XmlError>;
