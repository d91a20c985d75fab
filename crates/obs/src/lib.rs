//! # gcx-obs — allocation-free observability primitives
//!
//! Dependency-free building blocks for metrics and logging, shared by
//! every gcx layer (the workspace is offline: no prometheus/tracing
//! crates, and the engine hot path cannot afford them anyway):
//!
//! * [`Counter`] — a relaxed atomic event count.
//! * [`LatencyHistogram`] — a fixed array of log₂ buckets. Recording a
//!   duration is two-three relaxed atomic RMWs and **never allocates or
//!   locks**, so it is safe to call from the engine's per-event path,
//!   from evaluator threads and from connection workers concurrently.
//!   [`HistogramSnapshot`] extracts p50/p90/p99/max for `/stats`,
//!   `/metrics` and bench reports.
//! * [`export`] — one metric table ([`export::Row`]), two renderers:
//!   Prometheus text for `/metrics`, JSON sections for `/stats`.
//! * [`log`] — a leveled structured logger configured once from
//!   `GCX_LOG` (`error|warn|info|debug`, with `target=level` overrides),
//!   writing complete lines to stderr. See the [`log_error!`],
//!   [`log_warn!`], [`log_info!`] and [`log_debug!`] macros.
//! * [`trace`] — a request-scoped [`FlightRecorder`]: lock-free span
//!   recording into fixed per-thread ring buffers, keyed by a 64-bit
//!   trace ID, exported as Chrome trace-event JSON for Perfetto.
//!
//! All types are `const`-constructible so they can live in `static`s or
//! inside `Arc`s shared across threads without initialization order
//! concerns.

#![forbid(unsafe_code)]

pub mod export;
pub mod hist;
pub mod log;
pub mod trace;

pub use hist::{HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use log::Level;
pub use trace::{FlightRecorder, SpanKind};

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (usable in `static`s).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn counter_concurrent_sum() {
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }
}
