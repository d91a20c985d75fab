//! The eight workloads: which document, which query, which transport —
//! and the set-up that turns a seed into inputs, reference outputs and
//! (for the wire workloads) a bound server. README.md records why each
//! one exists.

use crate::sys::{Digest, HashSink};
use gcx_core::{run_dom, run_gcx, RunReport};
use gcx_net::{GcxServer, NetConfig};
use gcx_query::{compile, CompileOptions, CompiledQuery};
use gcx_xmark::XmarkConfig;
use gcx_xml::TagInterner;
use std::io::{BufWriter, Write};
use std::net::SocketAddr;

/// Every `item` below `regions`, copied whole: 2.1 MB out of 6.4 MB in.
pub const COPY_QUERY: &str =
    "<o>{ for $b in /site/regions return for $i in $b//item return $i }</o>";

/// Touches only `/root/live`, so static projection proves the `<dead>`
/// sibling (> 99.9 % of the document) dead and the lexer raw-skips it.
pub const SKIP_QUERY: &str = "<skip>{ for $x in /root/live return $x/name/text() }</skip>";

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Doc {
    /// `gcx_xmark::generate` at this scale (1.0 ≈ 0.8 MB of real bytes).
    Xmark(f64),
    /// As `Xmark`, padded with a comment before the root's closing tag
    /// to this many bytes. At a scale of one person and one item the
    /// generated size swings ±20 % with the seed; padding keeps the
    /// bytes per request, and so MB/s, comparable between seeds.
    XmarkPadded(f64, usize),
    /// The skip-heavy synthetic document, padded to this many bytes.
    SkipHeavy(usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transport {
    /// In-process `run_gcx` into a hashing sink, one caller.
    Engine,
    /// Loopback HTTP, closed loop, `connections` keep-alive connections;
    /// `chunked` requests stream in 64 KiB chunks with a concurrent
    /// reader thread, otherwise each is one `Content-Length` body.
    Wire { chunked: bool, connections: usize },
}

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub doc: Doc,
    pub query: &'static str,
    pub transport: Transport,
}

const STREAM: Transport = Transport::Wire {
    chunked: true,
    connections: 1,
};

pub const SPECS: [Spec; 8] = [
    Spec {
        name: "eng-descend",
        doc: Doc::Xmark(8.0),
        query: gcx_xmark::Q6,
        transport: Transport::Engine,
    },
    Spec {
        name: "eng-positional",
        doc: Doc::Xmark(8.0),
        query: gcx_xmark::Q20,
        transport: Transport::Engine,
    },
    Spec {
        name: "eng-skip",
        doc: Doc::SkipHeavy(8 << 20),
        query: SKIP_QUERY,
        transport: Transport::Engine,
    },
    Spec {
        name: "eng-copy",
        doc: Doc::Xmark(8.0),
        query: COPY_QUERY,
        transport: Transport::Engine,
    },
    Spec {
        name: "eng-join",
        doc: Doc::Xmark(1.0),
        query: gcx_xmark::Q8,
        transport: Transport::Engine,
    },
    Spec {
        name: "wire-stream",
        doc: Doc::Xmark(8.0),
        query: gcx_xmark::Q1,
        transport: STREAM,
    },
    Spec {
        name: "wire-copy",
        doc: Doc::Xmark(8.0),
        query: COPY_QUERY,
        transport: STREAM,
    },
    Spec {
        name: "wire-small",
        doc: Doc::XmarkPadded(0.001, 2048),
        query: gcx_xmark::Q1,
        transport: Transport::Wire {
            chunked: false,
            connections: 2,
        },
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// SplitMix64: the benchmark's own generator for the synthetic document
/// (XMark documents are seeded through `XmarkConfig`).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const LOREM: &[u8] = b"Lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do \
    eiusmod tempor incididunt ut labore et dolore magna aliqua praesent. \
    Duis aute irure dolor in reprehenderit in voluptate velit esse cillum \
    dolore eu fugiat nulla pariatur, excepteur sint occaecat cupidatat non \
    proident sunt in culpa qui officia deserunt mollit anim id est laborum \
    sed ut perspiciatis unde omnis iste natus error sit voluptatem rem.";

/// A tiny live `<live>` subtree followed by a `<dead>` sibling padded to
/// `target` bytes with markup the skip scanner has to get right: nested
/// tags, quoted attribute values containing `>`, comments, CDATA with an
/// overlapping `]]]>` tail and text runs of seeded length.
pub fn skipheavy_doc(target: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix(seed);
    let mut buf = Vec::with_capacity(target + 1024);
    buf.extend_from_slice(b"<root><live><name>hit</name></live><dead>");
    let close: &[u8] = b"</dead></root>";
    // The largest block is under 700 bytes.
    while buf.len() + 700 + close.len() <= target {
        let desc = &LOREM[..200 + rng.below((LOREM.len() - 200) as u64) as usize];
        write!(
            buf,
            "<item cat=\"a&gt;b\" note='x>y'><sku>{:05}-{:02}</sku><desc>",
            rng.below(100_000),
            rng.below(100)
        )
        .expect("vec write");
        buf.extend_from_slice(desc);
        buf.extend_from_slice(
            b"</desc><!-- dead comment, with a > inside -->\
              <blob><![CDATA[raw <bytes> & an overlapping tail x]]]></blob>",
        );
        write!(buf, "<qty unit=\"kg\">{:03}</qty></item>", rng.below(1000)).expect("vec write");
    }
    buf.extend_from_slice(close);
    buf
}

fn xmark_doc(scale: f64, seed: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity((scale * 900_000.0) as usize + 4096);
    gcx_xmark::generate(XmarkConfig { seed, scale }, &mut buf).expect("vec write");
    buf
}

fn make_doc(doc: Doc, seed: u64) -> Vec<u8> {
    match doc {
        Doc::Xmark(scale) => xmark_doc(scale, seed),
        Doc::XmarkPadded(scale, bytes) => {
            const ROOT_CLOSE: &[u8] = b"</site>";
            const COMMENT: usize = "<!---->".len();
            let mut buf = xmark_doc(scale, seed);
            if buf.ends_with(ROOT_CLOSE) && buf.len() + COMMENT <= bytes {
                let fill = bytes - buf.len() - COMMENT;
                buf.truncate(buf.len() - ROOT_CLOSE.len());
                buf.extend_from_slice(b"<!--");
                buf.resize(buf.len() + fill, b'.');
                buf.extend_from_slice(b"-->");
                buf.extend_from_slice(ROOT_CLOSE);
            }
            buf
        }
        Doc::SkipHeavy(bytes) => skipheavy_doc(bytes, seed),
    }
}

/// The in-process server of a wire workload (and of every traced pass).
pub struct Server {
    pub handle: GcxServer,
    pub addr: SocketAddr,
    /// `/query?xq=<percent-encoded query>`.
    pub path: String,
}

/// Load is sized for two cores: one connection worker and one evaluator,
/// so with at most two generator threads nothing queues for a core that
/// the workload itself does not occupy.
fn bind_server(query: &str) -> Result<Server, String> {
    let handle = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            workers: 1,
            evaluators: 1,
            // Keep-alive connections live for the whole run.
            max_requests_per_conn: u64::MAX,
            ..Default::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    Ok(Server {
        addr: handle.local_addr(),
        path: format!("/query?xq={}", crate::http::percent_encode(query)),
        handle,
    })
}

/// A workload ready to run.
pub struct Prepared {
    pub spec: &'static Spec,
    pub doc: Vec<u8>,
    pub compiled: CompiledQuery,
    /// The interner as compilation left it; every operation starts from
    /// a clone, as a fresh evaluation of a cached query would.
    pub tags: TagInterner,
    /// Digest of the `run_dom` output: the oracle every operation's
    /// output is compared with.
    pub reference: Digest,
    /// The report of one checked `run_gcx` over the document: the source
    /// of `peak_buffer_bytes` and of the exact per-layer counts.
    pub engine: RunReport,
    pub server: Option<Server>,
}

/// Runs `run_gcx` once into a hashing sink (buffered, as a caller would
/// wrap any sink — `XmlWriter` issues a write per tag).
pub fn engine_op(
    compiled: &CompiledQuery,
    tags: &TagInterner,
    doc: &[u8],
) -> Result<(RunReport, HashSink), String> {
    let mut tags = tags.clone();
    let mut out = BufWriter::new(HashSink::default());
    let report = run_gcx(compiled, &mut tags, doc, &mut out).map_err(|e| e.to_string())?;
    let sink = out.into_inner().map_err(|e| e.to_string())?;
    Ok((report, sink))
}

/// Why a finished engine run does not count as a success, if it does not.
pub fn engine_verdict(report: &RunReport, got: Digest, want: Digest) -> Result<(), String> {
    if got != want {
        return Err(format!(
            "output {got:?} differs from the run_dom reference {want:?}"
        ));
    }
    if report.safety == Some(false) {
        return Err("safety violation: roles leaked".into());
    }
    if role_imbalance(report) != 0 {
        return Err(format!("role imbalance {}", role_imbalance(report)));
    }
    Ok(())
}

/// Role instances assigned minus removed; the paper's contract is 0.
pub fn role_imbalance(report: &RunReport) -> i64 {
    report.stats.roles_assigned as i64 - report.stats.roles_removed as i64
}

/// Set-up: generate the document from the seed, compile the query,
/// compute the reference output with the independent full-document
/// evaluator, check the streaming engine against it once, and bind the
/// server if the workload (or the traced pass) needs one.
pub fn prepare(spec: &'static Spec, seed: u64, with_server: bool) -> Result<Prepared, String> {
    let doc = make_doc(spec.doc, seed);
    let mut tags = TagInterner::new();
    let compiled =
        compile(spec.query, &mut tags, CompileOptions::default()).map_err(|e| e.to_string())?;
    let reference = {
        let mut dom_tags = tags.clone();
        let mut out = BufWriter::new(HashSink::default());
        run_dom(&compiled, &mut dom_tags, &doc[..], &mut out).map_err(|e| e.to_string())?;
        out.into_inner().map_err(|e| e.to_string())?.digest()
    };
    let (engine, sink) = engine_op(&compiled, &tags, &doc)?;
    engine_verdict(&engine, sink.digest(), reference)
        .map_err(|e| format!("{}: set-up check failed: {e}", spec.name))?;
    let server = if with_server || matches!(spec.transport, Transport::Wire { .. }) {
        Some(bind_server(spec.query)?)
    } else {
        None
    };
    Ok(Prepared {
        spec,
        doc,
        compiled,
        tags,
        reference,
        engine,
        server,
    })
}

impl Prepared {
    pub fn engine_op(&self) -> Result<(RunReport, HashSink), String> {
        engine_op(&self.compiled, &self.tags, &self.doc)
    }

    /// Stops the server (joins its threads).
    pub fn teardown(self) {
        if let Some(server) = self.server {
            server.handle.shutdown();
        }
    }
}
