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

use gcx_obs::LatencyHistogram;

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
