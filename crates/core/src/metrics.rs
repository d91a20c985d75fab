//! Per-stage engine timing (sampled), shared with the serving layers.
//!
//! A request's wall time splits across five engine stages:
//!
//! | stage | what is timed |
//! |---|---|
//! | `lex` | pulling one materialized event from [`gcx_xml::XmlLexer`] |
//! | `skip` | raw byte-scanning one dead subtree (`skip_subtree`) |
//! | `match` | the [`gcx_projection::StreamMatcher`] verdict for the event |
//! | `buffer` | copying the event into the [`gcx_buffer::BufferTree`] |
//! | `emit` | serializing one result subtree to the output sink |
//!
//! Timing every event would double the cost of the cheap stages
//! (`Instant::now` is ~20–40 ns; a lexed event can be under 100 ns), so
//! the preprojector samples: every Nth pump step is timed stage by
//! stage, the rest pay one counter increment. With the interval
//! (`STAGE_SAMPLE_EVERY`, 512) the measured throughput cost on the
//! XMark suite is well under the 2 % budget, and a server accumulates
//! thousands of samples per histogram within seconds of traffic.
//!
//! The struct is plain [`LatencyHistogram`]s — recording is wait-free
//! and allocation-free, so one shared `Arc<EngineStageMetrics>` can be
//! installed into every concurrent session of a server.

use gcx_obs::{FlightRecorder, LatencyHistogram, SpanKind};
use std::sync::Arc;
use std::time::Instant;

/// Sampling interval: one timed pump step per N.
pub(crate) const STAGE_SAMPLE_EVERY: u32 = 512;

/// Sampled per-stage duration histograms. See module docs.
#[derive(Debug, Default)]
pub struct EngineStageMetrics {
    /// One `XmlLexer::next_event` call (a materialized token).
    pub lex: LatencyHistogram,
    /// One `XmlLexer::skip_subtree` call (a whole dead subtree).
    pub skip: LatencyHistogram,
    /// The matcher verdict(s) for one pump step.
    pub matching: LatencyHistogram,
    /// Buffer-tree insertion/close work for one pump step.
    pub buffer: LatencyHistogram,
    /// One `write_subtree` output serialization.
    pub emit: LatencyHistogram,
}

impl EngineStageMetrics {
    /// Zeroed histograms (const, usable in statics).
    pub const fn new() -> Self {
        EngineStageMetrics {
            lex: LatencyHistogram::new(),
            skip: LatencyHistogram::new(),
            matching: LatencyHistogram::new(),
            buffer: LatencyHistogram::new(),
            emit: LatencyHistogram::new(),
        }
    }

    /// The histogram of one engine stage's span kind.
    fn stage(&self, kind: SpanKind) -> &LatencyHistogram {
        match kind {
            SpanKind::Lex => &self.lex,
            SpanKind::Skip => &self.skip,
            SpanKind::Match => &self.matching,
            SpanKind::Buffer => &self.buffer,
            SpanKind::Emit => &self.emit,
            other => unreachable!("{other:?} is not an engine stage"),
        }
    }

    /// `(stage name, histogram)` pairs in pipeline order, for renderers.
    pub fn stages(&self) -> [(&'static str, &LatencyHistogram); 5] {
        [
            ("lex", &self.lex),
            ("skip", &self.skip),
            ("match", &self.matching),
            ("buffer", &self.buffer),
            ("emit", &self.emit),
        ]
    }
}

/// Where sampled stage timings go: the shared histograms, and a request's
/// flight recorder under its trace ID. With neither installed the hot
/// path does no timing work at all.
#[derive(Default)]
pub(crate) struct StageProbe {
    pub(crate) metrics: Option<Arc<EngineStageMetrics>>,
    pub(crate) flight: Option<(Arc<FlightRecorder>, u64)>,
    tick: u32,
}

impl StageProbe {
    /// Counts one event; true for one in `every` while a sink is installed.
    #[inline]
    pub(crate) fn sample(&mut self, every: u32) -> bool {
        if self.metrics.is_none() && self.flight.is_none() {
            return false;
        }
        self.tick += 1;
        if self.tick < every {
            return false;
        }
        self.tick = 0;
        true
    }

    /// Records `t0.elapsed()` (when this is a timed sample) into the
    /// histogram of stage `kind` and as a span stamped with the input byte
    /// `offset`.
    #[inline]
    pub(crate) fn record(&self, kind: SpanKind, t0: Option<Instant>, offset: u64) {
        let Some(t0) = t0 else { return };
        let dur = t0.elapsed();
        if let Some(m) = &self.metrics {
            m.stage(kind).record(dur);
        }
        if let Some((rec, tid)) = &self.flight {
            let dur_ns = dur.as_nanos() as u64;
            let start = rec.now_ns().saturating_sub(dur_ns);
            rec.record_span(*tid, kind, start, dur_ns, offset);
        }
    }
}
