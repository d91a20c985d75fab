//! # gcx-core — the GCX streaming XQuery engine
//!
//! The primary contribution of the paper: a pull-based streaming XQuery
//! engine whose buffer manager combines static analysis (projection trees,
//! roles, signOff insertion — `gcx-query`) with dynamic analysis (active
//! garbage collection — `gcx-buffer`).
//!
//! ## Architecture (paper Fig. 11)
//!
//! ```text
//!  query evaluator  ⇆  buffer manager  ⇆  stream preprojector
//!  (engine::GcxEngine)  (gcx_buffer)       (preproject::Preprojector)
//! ```
//!
//! The evaluator runs the rewritten query strictly sequentially; when it
//! needs data that is not buffered it pumps the preprojector, which copies
//! only projection-tree matches into the buffer, annotated with roles.
//! Every signOff statement triggers role removal and localized GC.
//!
//! ## Engines
//!
//! | entry point | strategy | models |
//! |---|---|---|
//! | [`run_gcx`] | incremental projection + active GC | GCX (the paper) |
//! | [`run_no_gc_streaming`] | incremental projection, no GC | static analysis alone |
//! | [`run_static_projection`] | full projection, then evaluate | Galax + projection \[13\] |
//! | [`baseline::run_dom`] | full DOM, then evaluate | Galax/Saxon/QizX class; also the Theorem 1 oracle |

#![forbid(unsafe_code)]

pub mod baseline;
pub mod engine;
pub mod error;
mod join;
pub mod metrics;
pub mod preproject;
pub mod value;

pub use baseline::run_dom;
pub use engine::{
    run_gcx, run_no_gc_streaming, run_static_projection, CancelFlag, GcxEngine, RunReport,
    StepOutcome, Strategy, TraceEvent,
};
pub use error::EngineError;
pub use metrics::EngineStageMetrics;
pub use preproject::{Preprojector, PumpEvent};
pub use value::compare_values;
