//! # gcx-service — push-based streaming sessions and concurrent serving
//!
//! The GCX engine (`gcx-core`) evaluates one query over one *pulled*
//! stream. This crate turns that into a serving runtime:
//!
//! * [`StreamSession`] — a **push** API (`feed(&[u8])` → incremental
//!   output bytes → `finish()` → [`SessionOutcome`] with per-session
//!   `BufferStats`) over the engine's resumable step machine. Chunks go
//!   into a bounded queue and the engine runs in bounded slices — on a
//!   shared [`EvaluatorPool`] when one is configured, on the caller's
//!   own thread otherwise — with its buffer-minimization machinery
//!   unmodified. `try_feed`/`drain` are the non-blocking primitives
//!   event loops use; `feed`/`finish` are a waiting loop over them.
//! * [`QueryService`] — an LRU **compiled-query cache** (keyed by
//!   normalized query text; each entry owns the `TagInterner` its query
//!   was compiled against) so repeated queries skip
//!   parse/rewriting/signOff/projection analysis, and the session
//!   factory over it.
//! * [`MemoryBudget`] — a global bound on service-owned bytes (queued
//!   input + undrained output) summed over all concurrent sessions.
//!
//! Errors are isolated per session: a malformed stream fails that
//! session's `feed`/`finish` and nothing else. See `README.md` for the
//! session state machine and memory-budget semantics.

pub mod budget;
pub mod metrics;
pub mod pool;
pub mod service;
pub mod session;

pub use budget::MemoryBudget;
pub use metrics::SessionMetrics;
pub use pool::EvaluatorPool;
pub use service::{normalize_query, QueryService, ServiceConfig, ServiceStats};
pub use session::{ProgressWaker, SessionConfig, SessionOutcome, StreamSession};

use gcx_query::CompileError;
use std::fmt;

/// Compiles and runs the example in `README.md` as a doctest.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctest;

/// Everything the service layer can fail with.
#[derive(Debug)]
pub enum ServiceError {
    /// The query failed to compile.
    Compile(CompileError),
    /// The session's evaluator failed (malformed stream, engine error,
    /// or evaluator panic). Sticky: every later call returns it again.
    Session(String),
    /// The chunk is larger than the entire global memory budget, so no
    /// amount of draining could ever admit it (a chunk that merely does
    /// not fit *right now* is backpressure, not an error).
    BudgetExceeded {
        /// Bytes the rejected chunk needed.
        requested: usize,
        /// Budget bytes in use at rejection time.
        used: usize,
        /// The configured limit.
        limit: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Compile(e) => write!(f, "compile error: {e}"),
            ServiceError::Session(msg) => write!(f, "session error: {msg}"),
            ServiceError::BudgetExceeded {
                requested,
                used,
                limit,
            } => write!(
                f,
                "memory budget exceeded: chunk of {requested}B does not fit ({used}B used of {limit}B)"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Compile(e) => Some(e),
            _ => None,
        }
    }
}
