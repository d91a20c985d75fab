//! The measured window: closed-loop callers that run whole operations
//! until the window ends, check every output, and keep one set of
//! instants per operation. The end-to-end metrics are computed from
//! those instants; the traced pass turns the very same instants into
//! spans, so "tracing on" never changes what an operation executes.

use crate::http::{self, ResponseReader};
use crate::sys::{self, median, Digest, HashSink};
use crate::workloads::{engine_verdict, Prepared, Server, Transport};
use std::io::Write;
use std::net::Shutdown;
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Metric values by manifest name, as a pass produces them.
pub type Metrics = Vec<(&'static str, f64)>;

/// The instants of one successful operation.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Just before the call (engine) or the first request byte (wire).
    pub start: Instant,
    /// The request was fully written (streamed requests only, where a
    /// second thread reads the response meanwhile).
    pub sent: Option<Instant>,
    /// First output byte in the caller's sink / first response body byte.
    pub first_byte: Instant,
    /// Output complete and checked.
    pub done: Instant,
}

/// Operations attempted and failed, summed over windows.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Why the first failed operation failed.
    pub first_error: Option<String>,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error.clone_from(&other.first_error);
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

/// The window is cut into this many slices; throughput is the median
/// slice, so a disturbed stretch of the run moves it little.
const SLICES: usize = 16;

/// What one window measured.
#[derive(Debug, Default)]
pub struct Window {
    pub tally: Tally,
    pub elapsed: Duration,
    pub samples: Vec<OpSample>,
    /// CPU seconds of the generator threads that exited with the window
    /// (the calling thread, which also generates load, lives on).
    pub exited_caller_cpu: f64,
    /// Largest `RunReport.stats.peak_bytes` seen (engine windows only;
    /// the wire does not carry the report).
    pub peak_buffer_bytes: usize,
}

impl Window {
    fn merge(&mut self, other: Window) {
        self.tally.add(&other.tally);
        self.elapsed = self.elapsed.max(other.elapsed);
        self.peak_buffer_bytes = self.peak_buffer_bytes.max(other.peak_buffer_bytes);
        self.exited_caller_cpu += other.exited_caller_cpu;
        self.samples.extend(other.samples);
    }

    fn ms(&self, f: impl Fn(&OpSample) -> Duration) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| f(s).as_secs_f64() * 1e3)
            .collect()
    }

    /// Per-operation wall times in milliseconds.
    pub fn op_ms(&self) -> Vec<f64> {
        self.ms(|s| s.done - s.start)
    }

    /// Successful operations per second in each of [`SLICES`] equal
    /// slices of the window; an operation counts towards a slice by the
    /// share of its own duration that falls inside it, so slices shorter
    /// than an operation still read smoothly.
    fn slice_rates(&self) -> Vec<f64> {
        let t0 = self.samples.iter().map(|s| s.start).min().expect("samples");
        let t1 = self.samples.iter().map(|s| s.done).max().expect("samples");
        let len = ((t1 - t0).as_secs_f64() / SLICES as f64).max(f64::MIN_POSITIVE);
        let mut ops = [0.0f64; SLICES];
        for s in &self.samples {
            let (a, b) = ((s.start - t0).as_secs_f64(), (s.done - t0).as_secs_f64());
            let first = ((a / len) as usize).min(SLICES - 1);
            let last = ((b / len) as usize).min(SLICES - 1);
            for (k, slot) in ops.iter_mut().enumerate().take(last + 1).skip(first) {
                let inside = b.min((k + 1) as f64 * len) - a.max(k as f64 * len);
                *slot += inside.max(0.0) / (b - a).max(f64::MIN_POSITIVE);
            }
        }
        ops.iter().map(|n| n / len).collect()
    }

    /// The end-to-end timings of this window, by manifest name (the
    /// caller adds `peak_buffer_bytes` and `setup_s`). Every operation
    /// reads `doc_bytes` of input. A window without one successful
    /// operation has no timings to report.
    pub fn end_to_end(&self, doc_bytes: usize) -> Result<Metrics, String> {
        if self.samples.is_empty() {
            return Err(format!(
                "no successful operation in the window ({})",
                self.tally
                    .first_error
                    .as_deref()
                    .unwrap_or("none attempted")
            ));
        }
        let ops_per_s = median(&mut self.slice_rates());
        Ok(vec![
            (
                "throughput_mb_s",
                ops_per_s * doc_bytes as f64 / (1u64 << 20) as f64,
            ),
            ("ops_per_s", ops_per_s),
            ("op_p50_ms", median(&mut self.op_ms())),
        ])
    }

    /// Time to first byte per operation, in milliseconds.
    pub fn ttfb_ms(&self) -> Vec<f64> {
        self.ms(|s| s.first_byte - s.start)
    }
}

/// Runs the workload's own closed loop for `seconds`.
pub fn run_window(p: &Prepared, seconds: f64) -> Window {
    let window = Duration::from_secs_f64(seconds);
    match (p.spec.transport, &p.server) {
        (Transport::Engine, _) => engine_window(p, window),
        (Transport::Wire { chunked: true, .. }, Some(server)) => {
            stream_window(server, &p.doc, p.reference, window)
        }
        (Transport::Wire { connections, .. }, Some(server)) => {
            small_window(server, &p.doc, p.reference, window, connections)
        }
        (Transport::Wire { .. }, None) => unreachable!("wire workloads are prepared with a server"),
    }
}

/// One caller, in process: `run_gcx` into a hashing sink.
fn engine_window(p: &Prepared, window: Duration) -> Window {
    let mut w = Window::default();
    let begin = Instant::now();
    while begin.elapsed() < window {
        w.tally.attempted += 1;
        let start = Instant::now();
        let outcome = p.engine_op();
        let done = Instant::now();
        match outcome {
            Ok((report, sink)) => match engine_verdict(&report, sink.digest(), p.reference) {
                Ok(()) => {
                    w.peak_buffer_bytes = w.peak_buffer_bytes.max(report.stats.peak_bytes);
                    w.samples.push(OpSample {
                        start,
                        sent: None,
                        first_byte: sink.first_byte.unwrap_or(done),
                        done,
                    });
                }
                Err(why) => w.tally.fail(why),
            },
            Err(why) => w.tally.fail(why),
        }
    }
    w.elapsed = begin.elapsed();
    w
}

/// What the reader thread of a streamed request reports back.
type Reply = std::io::Result<(u16, Digest, Option<Instant>, Instant)>;

/// One keep-alive connection carrying chunked requests: this thread
/// writes, a second thread reads the response as it streams back (a
/// 2 MB result would otherwise back up against the unread upload), and
/// the next request starts only when the previous response is complete.
pub fn stream_window(server: &Server, doc: &[u8], want: Digest, window: Duration) -> Window {
    let mut w = Window::default();
    let request = http::encode_post(&server.path, doc, true);
    let mut stream = match http::connect(server.addr) {
        Ok(s) => s,
        Err(e) => {
            w.tally.attempted = 1;
            w.tally.fail(format!("connect: {e}"));
            return w;
        }
    };
    let mut reader = ResponseReader::new(stream.try_clone().expect("clone loopback socket"));
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    std::thread::scope(|scope| {
        let reader_thread = std::thread::Builder::new()
            .name("bench-client-rd".into())
            .spawn_scoped(scope, move || {
                while go_rx.recv().is_ok() {
                    let mut sink = HashSink::default();
                    let head = reader.read_response(&mut |b| sink.update(b));
                    let done = Instant::now();
                    let reply = head.map(|status| (status, sink.digest(), sink.first_byte, done));
                    if reply_tx.send(reply).is_err() {
                        break;
                    }
                }
                sys::own_thread_cpu_seconds()
            })
            .expect("spawn reader thread");
        let begin = Instant::now();
        while begin.elapsed() < window {
            w.tally.attempted += 1;
            go_tx.send(()).expect("reader thread alive");
            let start = Instant::now();
            let wrote = stream.write_all(&request);
            let sent = Instant::now();
            if wrote.is_err() {
                // Unblock the reader; its error is the useful one.
                let _ = stream.shutdown(Shutdown::Both);
            }
            match reply_rx.recv().expect("reader thread alive") {
                Ok((200, got, first_byte, done)) if got == want && wrote.is_ok() => {
                    w.samples.push(OpSample {
                        start,
                        sent: Some(sent),
                        first_byte: first_byte.unwrap_or(done),
                        done,
                    });
                }
                Ok((status, got, ..)) => {
                    w.tally.fail(format!(
                        "status {status}, body {got:?}, wanted 200 with {want:?}"
                    ));
                    break; // the connection's framing is no longer trusted
                }
                Err(e) => {
                    w.tally.fail(format!("response: {e}"));
                    break;
                }
            }
        }
        w.elapsed = begin.elapsed();
        drop(go_tx);
        w.exited_caller_cpu = reader_thread.join().expect("reader thread");
    });
    w
}

/// `connections` keep-alive connections, one thread each, every request
/// one `Content-Length` body; each caller waits for its reply.
fn small_window(
    server: &Server,
    doc: &[u8],
    want: Digest,
    window: Duration,
    connections: usize,
) -> Window {
    let request = http::encode_post(&server.path, doc, false);
    let barrier = Barrier::new(connections);
    let mut total = Window::default();
    std::thread::scope(|scope| {
        let callers: Vec<_> = (0..connections)
            .map(|i| {
                let (request, barrier) = (&request, &barrier);
                std::thread::Builder::new()
                    .name(format!("bench-client-{i}"))
                    .spawn_scoped(scope, move || {
                        let conn = http::connect(server.addr)
                            .and_then(|s| Ok((s.try_clone()?, ResponseReader::new(s))));
                        // Every caller reaches the barrier, connected or not.
                        barrier.wait();
                        let mut w = Window::default();
                        let (mut stream, mut reader) = match conn {
                            Ok(c) => c,
                            Err(e) => {
                                w.tally.attempted = 1;
                                w.tally.fail(format!("connect: {e}"));
                                return w;
                            }
                        };
                        let begin = Instant::now();
                        while begin.elapsed() < window {
                            w.tally.attempted += 1;
                            let mut sink = HashSink::default();
                            let start = Instant::now();
                            let head = stream
                                .write_all(request)
                                .and_then(|()| reader.read_response(&mut |b| sink.update(b)));
                            let done = Instant::now();
                            match head {
                                Ok(200) if sink.digest() == want => {
                                    w.samples.push(OpSample {
                                        start,
                                        sent: None,
                                        first_byte: sink.first_byte.unwrap_or(done),
                                        done,
                                    });
                                }
                                Ok(status) => {
                                    w.tally.fail(format!(
                                        "status {status}, body {:?}, wanted 200 with {want:?}",
                                        sink.digest()
                                    ));
                                    break;
                                }
                                Err(e) => {
                                    w.tally.fail(format!("request: {e}"));
                                    break;
                                }
                            }
                        }
                        w.elapsed = begin.elapsed();
                        w.exited_caller_cpu = sys::own_thread_cpu_seconds();
                        w
                    })
                    .expect("spawn caller thread")
            })
            .collect();
        for caller in callers {
            total.merge(caller.join().expect("caller thread"));
        }
    });
    total
}
