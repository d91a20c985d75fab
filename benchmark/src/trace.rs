//! The traced pass: the workload's own document and query driven through
//! cumulative layer prefixes, each call wrapped by the benchmark in an
//! in-memory span, so that the difference between two prefixes is one
//! layer's cost. Spans live in memory and are written out (Chrome trace
//! JSON) only after the run; counts are read from `RunReport`, from
//! `GET /metrics` deltas and from `/proc/self/task/*/stat` — all from
//! outside the program under test.

use crate::http;
use crate::measure::{self, Metrics, Tally, Window};
use crate::sys::{self, median, percentile, HashSink};
use crate::workloads::{engine_verdict, role_imbalance, Prepared, Server, Transport};
use gcx_buffer::BufferTree;
use gcx_core::{Preprojector, RunReport};
use gcx_projection::StreamMatcher;
use gcx_query::{compile, CompileOptions};
use gcx_service::{EvaluatorPool, QueryService, ServiceConfig};
use gcx_xml::{scan, TagInterner, XmlEvent, XmlLexer};
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation share an identifier.
    pub op_id: u64,
}

/// The in-memory span store.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op_id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, start, Instant::now(), parent, op_id);
        r
    }

    /// Durations of every span called `name`, in milliseconds.
    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    fn median_ms(&self, name: &str) -> Result<f64, String> {
        let mut d = self.durations_ms(name);
        if d.is_empty() {
            return Err(format!("traced pass recorded no {name} span"));
        }
        Ok(median(&mut d))
    }

    /// Writes the spans as Chrome trace JSON (`chrome://tracing`,
    /// Perfetto): complete events in microseconds, the causing span and
    /// the operation identifier in `args`.
    pub fn write_chrome(&self, mut out: impl Write) -> std::io::Result<()> {
        out.write_all(b"{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"op_id\":{}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op_id
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// Share of the traced window given to each phase. The untraced phase
/// exists to price the tracing itself (`trace.overhead_pct`).
const UNTRACED_SHARE: f64 = 0.2;
const CHAIN_SHARE: f64 = 0.5;
const HTTP_SHARE: f64 = 0.3;

/// What the traced pass hands back.
pub struct Traced {
    pub metrics: Metrics,
    pub tally: Tally,
}

/// Counter value from a Prometheus text exposition (unlabelled series).
fn counter(metrics_text: &str, name: &str) -> Result<f64, String> {
    metrics_text
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .ok_or_else(|| format!("GET /metrics has no counter {name}"))
}

fn scrape(server: &Server) -> Result<String, String> {
    let mut stream = http::connect(server.addr).map_err(|e| format!("metrics connect: {e}"))?;
    let mut reader = http::ResponseReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let (status, body) = http::exchange(&mut stream, &mut reader, &http::encode_get("/metrics"))
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics: status {status}"));
    }
    String::from_utf8(body).map_err(|e| e.to_string())
}

/// One iteration of the in-process prefixes; returns the engine report.
fn chain_iteration(
    p: &Prepared,
    service: &QueryService,
    pool: &EvaluatorPool,
    tracer: &mut Tracer,
    op_id: u64,
    allocs: &mut Vec<f64>,
) -> Result<RunReport, String> {
    let iteration_start = Instant::now();
    // Reserve the parent's slot first so children can name it.
    let parent = tracer.record("trace.chain", iteration_start, iteration_start, None, op_id);
    let doc = &p.doc[..];
    let tree = &p.compiled.projection.tree;
    let lex_err = |e: gcx_xml::XmlError| format!("lexer: {e}");

    tracer.time("query.compile", Some(parent), op_id, || {
        let mut tags = TagInterner::new();
        black_box(compile(p.spec.query, &mut tags, CompileOptions::default()).is_ok())
    });

    tracer.time("xml.scan", Some(parent), op_id, || {
        let (mut at, mut found) = (0usize, 0u64);
        while let Some(i) = scan::find_byte(&doc[at..], b'<') {
            found += 1;
            at += i + 1;
        }
        black_box(found)
    });

    tracer.time("xml.lex", Some(parent), op_id, || {
        let mut tags = p.tags.clone();
        let mut lexer = XmlLexer::new(doc, &mut tags);
        let mut events = 0u64;
        while lexer.next_event().map_err(lex_err)?.is_some() {
            events += 1;
        }
        Ok::<u64, String>(black_box(events))
    })?;

    tracer.time("projection.lexmatch", Some(parent), op_id, || {
        let mut tags = p.tags.clone();
        let mut lexer = XmlLexer::new(doc, &mut tags);
        let mut matcher = StreamMatcher::new(tree);
        let mut kept = 0u64;
        while let Some(event) = lexer.next_event().map_err(lex_err)? {
            match event {
                XmlEvent::Open(tag) => kept += matcher.open(tag).buffer as u64,
                XmlEvent::Close(_) => matcher.close(),
                XmlEvent::Text(_) => kept += matcher.text().buffer as u64,
            }
        }
        Ok::<u64, String>(black_box(kept))
    })?;

    tracer.time("core.project", Some(parent), op_id, || {
        let mut tags = p.tags.clone();
        let mut buffer = BufferTree::new(p.compiled.roles.len(), &p.compiled.projection.aggregates);
        let lexer = XmlLexer::new(doc, &mut tags);
        let mut projector = Preprojector::new(lexer, tree, &mut buffer);
        projector
            .pump_to_eof(&mut buffer)
            .map_err(|e| e.to_string())?;
        Ok::<u64, String>(black_box(buffer.stats().nodes_created))
    })?;

    // Only this thread runs during the chain, so the allocator delta
    // belongs to the engine call alone.
    let allocs_before = sys::allocations();
    let (report, sink) = tracer.time("core.engine", Some(parent), op_id, || p.engine_op())?;
    allocs.push((sys::allocations() - allocs_before) as f64 / report.tokens_read.max(1) as f64);
    engine_verdict(&report, sink.digest(), p.reference)?;

    tracer.time("service.session", Some(parent), op_id, || {
        let mut session = service
            .open_session_with(p.spec.query, |c| c.pool = Some(pool.clone()))
            .map_err(|e| e.to_string())?;
        let mut sink = HashSink::default();
        for chunk in doc.chunks(http::CHUNK_BYTES) {
            sink.update(&session.feed(chunk).map_err(|e| e.to_string())?);
        }
        sink.update(&session.drain());
        let outcome = session.finish().map_err(|e| e.to_string())?;
        sink.update(&outcome.output);
        engine_verdict(&outcome.report, sink.digest(), p.reference)
    })?;

    tracer.spans[parent].end_ns = (Instant::now() - tracer.epoch).as_nanos() as u64;
    Ok(report)
}

/// Turns the instants of the HTTP phase into spans.
fn ingest_http(tracer: &mut Tracer, window: &Window, first_op_id: u64) {
    for (i, s) in window.samples.iter().enumerate() {
        let op_id = first_op_id + i as u64;
        let parent = tracer.record("net.http", s.start, s.done, None, op_id);
        if let Some(sent) = s.sent {
            tracer.record("net.http.send", s.start, sent, Some(parent), op_id);
        }
        tracer.record(
            "net.http.first_byte",
            s.start,
            s.first_byte,
            Some(parent),
            op_id,
        );
        tracer.record(
            "net.http.receive",
            s.first_byte,
            s.done,
            Some(parent),
            op_id,
        );
    }
}

/// Runs the traced pass for `seconds` and returns every per-layer metric.
pub fn traced_pass(p: &Prepared, seconds: f64, tracer: &mut Tracer) -> Result<Traced, String> {
    let server = p
        .server
        .as_ref()
        .expect("traced pass is prepared with a server");
    let mut tally = Tally::default();

    // The workload as the untraced run executes it, to price the tracing.
    // The box drifts by ±10 % over seconds, so this phase runs right
    // before the phase that holds the traced full-stack operation: the
    // prefixes for an engine workload, the loopback request for a wire one.
    let engine_workload = p.spec.transport == Transport::Engine;
    let untraced_phase = |tally: &mut Tally| -> Result<f64, String> {
        let untraced = measure::run_window(p, seconds * UNTRACED_SHARE);
        tally.add(&untraced.tally);
        let mut ms = untraced.op_ms();
        if ms.is_empty() {
            return Err(format!(
                "untraced phase completed no operation ({})",
                untraced
                    .tally
                    .first_error
                    .as_deref()
                    .unwrap_or("none attempted")
            ));
        }
        Ok(median(&mut ms))
    };
    let mut untraced_p50 = 0.0;
    if engine_workload {
        untraced_p50 = untraced_phase(&mut tally)?;
    }

    // The in-process prefixes, one span each.
    let service = QueryService::new(ServiceConfig::default());
    let pool = EvaluatorPool::new(1);
    let mut allocs = Vec::new();
    let mut report = None;
    let chain_window = Duration::from_secs_f64(seconds * CHAIN_SHARE);
    let begin = Instant::now();
    let mut op_id = 0;
    while report.is_none() || begin.elapsed() < chain_window {
        tally.attempted += 1;
        match chain_iteration(p, &service, &pool, tracer, op_id, &mut allocs) {
            Ok(r) => report = Some(r),
            Err(why) => {
                pool.shutdown();
                return Err(format!("traced prefix failed: {why}"));
            }
        }
        op_id += 1;
    }
    pool.shutdown();
    let report = report.expect("at least one chain iteration");

    if !engine_workload {
        untraced_p50 = untraced_phase(&mut tally)?;
    }

    // The loopback request, in the workload's own load shape (engine
    // workloads borrow the one-connection chunked stream).
    let http_seconds = seconds * HTTP_SHARE;
    let metrics_before = scrape(server)?;
    let cpu_before = sys::thread_cpu_seconds();
    let process_cpu_before = sys::process_cpu_seconds();
    let http = match p.spec.transport {
        Transport::Engine => measure::stream_window(
            server,
            &p.doc,
            p.reference,
            Duration::from_secs_f64(http_seconds),
        ),
        Transport::Wire { .. } => measure::run_window(p, http_seconds),
    };
    let cpu_after = sys::thread_cpu_seconds();
    let process_cpu = sys::process_cpu_seconds() - process_cpu_before;
    let metrics_after = scrape(server)?;
    tally.add(&http.tally);
    ingest_http(tracer, &http, op_id);
    let http_ops = http.samples.len().max(1) as f64;
    let delta = |name: &str| -> Result<f64, String> {
        Ok(counter(&metrics_after, name)? - counter(&metrics_before, name)?)
    };
    let cpu = |prefix: &str| sys::cpu_of(&cpu_after, prefix) - sys::cpu_of(&cpu_before, prefix);
    let share = |part: f64| {
        if process_cpu > 0.0 {
            part / process_cpu
        } else {
            0.0
        }
    };

    // Prefix medians and the self times derived from them.
    let scan_ms = tracer.median_ms("xml.scan")?;
    let lex_ms = tracer.median_ms("xml.lex")?;
    // The matcher's share is small beside the lexer's run-to-run drift,
    // so pair the two prefixes of each iteration before taking the median.
    let mut match_diffs: Vec<f64> = tracer
        .durations_ms("projection.lexmatch")
        .iter()
        .zip(tracer.durations_ms("xml.lex"))
        .map(|(with, without)| with - without)
        .collect();
    let match_ms = median(&mut match_diffs);
    let project_ms = tracer.median_ms("core.project")?;
    let engine_ms = tracer.median_ms("core.engine")?;
    let session_ms = tracer.median_ms("service.session")?;
    let http_ms = tracer.median_ms("net.http")?;
    let sorted = |name: &str| {
        let mut d = tracer.durations_ms(name);
        d.sort_unstable_by(f64::total_cmp);
        d
    };
    let (engine_sorted, http_sorted) = (sorted("core.engine"), sorted("net.http"));
    let traced_full = match p.spec.transport {
        Transport::Engine => engine_ms,
        Transport::Wire { .. } => http_ms,
    };
    let stats = &report.stats;
    let input_bytes = p.doc.len() as f64;

    let metrics = vec![
        ("xml.scan_ms", scan_ms),
        ("xml.lex_ms", lex_ms),
        ("projection.match_ms", match_ms),
        ("core.project_ms", project_ms),
        ("core.engine_ms", engine_ms),
        ("service.session_ms", session_ms),
        ("net.http_ms", http_ms),
        ("core.eval_gc_emit_ms", engine_ms - project_ms),
        ("service.self_ms", session_ms - engine_ms),
        ("net.self_ms", http_ms - session_ms),
        ("trace.residual_ms", project_ms - lex_ms - match_ms),
        (
            "trace.overhead_pct",
            (traced_full / untraced_p50 - 1.0) * 100.0,
        ),
        ("query.compile_us", tracer.median_ms("query.compile")? * 1e3),
        ("xml.events", report.tokens_read as f64),
        ("xml.bytes_skipped", report.bytes_skipped as f64),
        ("xml.skip_ratio", report.bytes_skipped as f64 / input_bytes),
        (
            "xml.skip_mb_s",
            report.bytes_skipped as f64 / (1u64 << 20) as f64 / (engine_ms / 1e3),
        ),
        ("projection.dfa_states", report.dfa_states as f64),
        (
            "projection.uses_dfa",
            StreamMatcher::new(&p.compiled.projection.tree).uses_dfa() as u8 as f64,
        ),
        ("buffer.peak_nodes", stats.peak_nodes as f64),
        ("buffer.nodes_created", stats.nodes_created as f64),
        ("buffer.nodes_purged", stats.nodes_purged as f64),
        ("buffer.gc_visits", stats.gc_visits as f64),
        ("buffer.signoffs", stats.signoffs as f64),
        ("buffer.role_imbalance", role_imbalance(&report) as f64),
        ("core.output_bytes", report.output_bytes as f64),
        ("core.allocs_per_event", median(&mut allocs)),
        (
            "service.steps_per_op",
            delta("gcx_evaluator_steps_total")? / http_ops,
        ),
        (
            "service.yields_per_op",
            delta("gcx_session_yields_total")? / http_ops,
        ),
        (
            "net.epoll_wakeups_per_op",
            delta("gcx_epoll_wakeups_total")? / http_ops,
        ),
        (
            "net.bytes_out_per_op",
            delta("gcx_bytes_out_total")? / http_ops,
        ),
        ("net.shed", delta("gcx_requests_shed_total")?),
        ("core.engine_p95_ms", percentile(&engine_sorted, 0.95)),
        ("net.ttfb_p50_ms", median(&mut http.ttfb_ms())),
        ("net.op_p95_ms", percentile(&http_sorted, 0.95)),
        ("net.op_p99_ms", percentile(&http_sorted, 0.99)),
        (
            "proc.cpu_util",
            process_cpu / http.elapsed.as_secs_f64().max(1e-9),
        ),
        ("service.evaluator_cpu_share", share(cpu("gcx-eval-"))),
        ("net.worker_cpu_share", share(cpu("gcx-net-worker-"))),
        (
            "proc.client_cpu_share",
            share(cpu("gcx_benchmark") + http.exited_caller_cpu),
        ),
    ];
    Ok(Traced { metrics, tally })
}
