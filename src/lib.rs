//! # GCX-RS — streaming XQuery evaluation with combined static and
//! # dynamic buffer minimization
//!
//! A Rust reproduction of *"Combined Static and Dynamic Analysis for
//! Effective Buffer Minimization in Streaming XQuery Evaluation"*
//! (Schmidt, Scherzinger, Koch; ICDE 2007) — the **GCX** engine.
//!
//! GCX evaluates a practical fragment of XQuery over XML streams while
//! keeping main-memory consumption minimal:
//!
//! * **static analysis** derives a *projection tree* from the query, so
//!   only relevant input is buffered, annotated with *roles* describing
//!   its future relevance;
//! * **dynamic analysis** — *active garbage collection* — purges buffered
//!   nodes the moment statically inserted `signOff` statements prove them
//!   irrelevant.
//!
//! ## Quickstart
//!
//! ```
//! let query = r#"<out>{ for $b in /bib/book return $b/title }</out>"#;
//! let xml = "<bib><book><title>Streams</title></book></bib>";
//! let result = gcx::evaluate_to_string(query, xml).unwrap();
//! assert_eq!(result, "<out><title>Streams</title></out>");
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`xml`] (gcx-xml) | streaming lexer, tag interner, writer, DOM |
//! | [`projection`] (gcx-projection) | projection trees, roles, lazy DFA matcher |
//! | [`buffer`] (gcx-buffer) | buffer tree + active garbage collection |
//! | [`query`] (gcx-query) | XQ parser, rewriting, static analysis |
//! | [`core`] (gcx-core) | the GCX engine + baseline engines |
//! | [`xmark`] (gcx-xmark) | XMark-like generator + benchmark queries |
//! | [`service`] (gcx-service) | push-based sessions, query cache, evaluator pool |
//! | [`net`] (gcx-net) | HTTP/1.1 streaming front-end + live `/stats` |

pub use gcx_buffer as buffer;
pub use gcx_core as core;
pub use gcx_net as net;
pub use gcx_projection as projection;
pub use gcx_query as query;
pub use gcx_service as service;
pub use gcx_xmark as xmark;
pub use gcx_xml as xml;

pub use gcx_core::{
    run_dom, run_gcx, run_no_gc_streaming, run_static_projection, CancelFlag, EngineError,
    EngineOptions, GcxEngine, RunReport,
};
pub use gcx_query::{compile, compile_default, CompileOptions, CompiledQuery};
pub use gcx_service::{QueryService, ServiceConfig, ServiceError, SessionOutcome, StreamSession};
pub use gcx_xml::TagInterner;

use std::fmt;

/// Everything that can go wrong in [`evaluate_to_string`] and
/// [`evaluate_chunked`].
#[derive(Debug)]
pub enum Error {
    Compile(gcx_query::CompileError),
    Engine(EngineError),
    Service(ServiceError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Compile(e) => write!(f, "{e}"),
            Error::Engine(e) => write!(f, "{e}"),
            Error::Service(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

/// One-shot convenience: compiles `query`, streams `xml` through the GCX
/// engine and returns the result document as a string.
pub fn evaluate_to_string(query: &str, xml: &str) -> Result<String, Error> {
    let mut tags = TagInterner::new();
    let compiled = compile_default(query, &mut tags).map_err(Error::Compile)?;
    let mut out = Vec::new();
    run_gcx(&compiled, &mut tags, xml.as_bytes(), &mut out).map_err(Error::Engine)?;
    Ok(String::from_utf8(out).expect("writer emits UTF-8"))
}

/// As [`evaluate_to_string`], returning the run report alongside the
/// output (peak buffer size, role traffic, timing).
pub fn evaluate_with_report(query: &str, xml: &str) -> Result<(String, RunReport), Error> {
    let mut tags = TagInterner::new();
    let compiled = compile_default(query, &mut tags).map_err(Error::Compile)?;
    let mut out = Vec::new();
    let report = run_gcx(&compiled, &mut tags, xml.as_bytes(), &mut out).map_err(Error::Engine)?;
    Ok((String::from_utf8(out).expect("utf8"), report))
}

/// Push-based convenience: compiles `query` and feeds `chunks` through a
/// [`StreamSession`] as they come, exactly as a network server would.
/// Output and [`RunReport`] are byte-for-byte what [`run_gcx`] produces
/// on the concatenated input, for *any* chunking — including splits in
/// the middle of tags, entities or multi-byte characters.
pub fn evaluate_chunked<'a, I>(query: &str, chunks: I) -> Result<(String, RunReport), Error>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    use std::sync::Arc;
    let mut tags = TagInterner::new();
    let compiled = compile_default(query, &mut tags).map_err(Error::Compile)?;
    let mut session = StreamSession::new(
        Arc::new(compiled),
        tags,
        gcx_service::SessionConfig::default(),
    );
    let mut out = Vec::new();
    for chunk in chunks {
        out.extend_from_slice(&session.feed(chunk).map_err(Error::Service)?);
    }
    let outcome = session.finish().map_err(Error::Service)?;
    out.extend_from_slice(&outcome.output);
    Ok((
        String::from_utf8(out).expect("writer emits UTF-8"),
        outcome.report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_works() {
        let out = evaluate_to_string(
            "<out>{ for $b in /bib/book return $b/title }</out>",
            "<bib><book><title>Streams</title></book></bib>",
        )
        .unwrap();
        assert_eq!(out, "<out><title>Streams</title></out>");
    }

    #[test]
    fn report_contains_safety() {
        let (_, report) = evaluate_with_report(
            "<out>{ for $b in /bib/book return $b/title }</out>",
            "<bib><book><title>X</title></book></bib>",
        )
        .unwrap();
        assert_eq!(report.safety, Some(true));
        assert!(report.stats.peak_nodes > 0);
    }

    #[test]
    fn compile_errors_surface() {
        assert!(matches!(
            evaluate_to_string("<out>{ $nope }</out>", "<a/>"),
            Err(Error::Compile(_))
        ));
    }

    #[test]
    fn engine_errors_surface() {
        assert!(matches!(
            evaluate_to_string("<out>{ for $x in /a return $x }</out>", "<a><b></a>"),
            Err(Error::Engine(_))
        ));
    }

    #[test]
    fn chunked_matches_one_shot() {
        let query = "<out>{ for $b in /bib/book return $b/title }</out>";
        let xml = "<bib><book><title>Streams</title></book></bib>";
        let (whole, report_whole) = evaluate_with_report(query, xml).unwrap();
        let chunks: Vec<&[u8]> = xml.as_bytes().chunks(5).collect();
        let (chunked, report_chunked) = evaluate_chunked(query, chunks).unwrap();
        assert_eq!(whole, chunked);
        assert_eq!(
            report_whole.stats.peak_nodes,
            report_chunked.stats.peak_nodes
        );
    }

    #[test]
    fn chunked_surfaces_stream_errors() {
        assert!(matches!(
            evaluate_chunked(
                "<out>{ for $x in /a return $x }</out>",
                [&b"<a><b></a>"[..]]
            ),
            Err(Error::Service(_))
        ));
    }
}
