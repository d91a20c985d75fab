//! `gcx` — command-line streaming XQuery processor.
//!
//! ```text
//! gcx <QUERY-FILE | -q 'inline query'> [XML-FILE] [options]
//! gcx serve --queries <DIR> [XML-FILE...] [serve options]
//!
//! Options:
//!   -q, --query <TEXT>     inline query text instead of a query file
//!   -e, --engine <NAME>    gcx (default) | nogc | static | dom
//!   -o, --output <FILE>    write result to FILE (default stdout)
//!       --stats            print buffer/GC statistics to stderr
//!       --plan             print the rewritten query and projection tree
//!       --no-optimize      disable the §6 optimizations
//!       --compile-only     stop after compilation (implies --plan)
//!   -h, --help             this help
//! ```
//!
//! The input document is read from XML-FILE, or from stdin when omitted —
//! `gcx` streams it either way: memory stays bounded by the query's
//! buffering needs, not the document size.
//!
//! The `serve` subcommand exercises the concurrent session runtime
//! (`gcx-service`): every query in the directory runs against every
//! input file, through one `QueryService` with a shared compiled-query
//! cache, with per-session statistics on stderr.

use gcx::query::{compile, pretty_query, CompileOptions};
use gcx::xml::TagInterner;
use gcx::{QueryService, ServiceConfig};
use std::io::{BufWriter, Read, Write};
use std::process::ExitCode;

struct Cli {
    query: Option<String>,
    query_file: Option<String>,
    xml_file: Option<String>,
    engine: String,
    output: Option<String>,
    stats: bool,
    plan: bool,
    optimize: bool,
    compile_only: bool,
}

const HELP: &str = "gcx — streaming XQuery with combined static/dynamic buffer minimization

USAGE:
    gcx <QUERY-FILE> [XML-FILE] [options]
    gcx -q '<r>{ for $x in /a return $x }</r>' [XML-FILE] [options]
    gcx serve --queries <DIR> [XML-FILE...] [serve options]

When XML-FILE is omitted, the document is read from stdin (streaming).

OPTIONS:
    -q, --query <TEXT>     inline query text instead of a query file
    -e, --engine <NAME>    gcx (default) | nogc | static | dom
    -o, --output <FILE>    write the result to FILE (default stdout)
        --stats            print buffer/GC statistics to stderr
        --plan             print the rewritten query and projection tree
        --no-optimize      disable the paper's §6 optimizations
        --compile-only     stop after compilation (implies --plan)
    -h, --help             show this help

SERVE OPTIONS (gcx serve):
        --queries <DIR>    directory of .xq query files (required unless --listen)
        --jobs <N>         max concurrent sessions (default 8)
        --chunk <BYTES>    feed chunk size in bytes (default 65536)
        --cache <N>        compiled-query cache capacity (default 64)
        --budget <BYTES>   global memory budget (session queues + engine buffers)
        --output-dir <DIR> write each result to DIR/<query>__<input>.xml
        --listen <ADDR>    serve over HTTP instead of files, e.g. 127.0.0.1:8080
                           (port 0 picks an ephemeral port, printed on stdout)
        --workers <N>      HTTP connection workers (default 4; --listen only)
        --evaluators <N>   evaluator pool threads (default 8; --listen only)
        --max-connections <N>  admission cap: beyond this many open
                           connections, new ones get a fast 503 +
                           Retry-After (default 4096; --listen only)
        --drain-timeout <SECS> graceful-drain deadline on SIGTERM/SIGINT:
                           in-flight requests get this long to finish
                           before hard cancel (default 30; --listen only)
        --trace-sample <N> keep every Nth query request's trace in the
                           flight recorder, served by GET /trace
                           (default 64; 0 disables; --listen only)
        --slow-ms <MS>     log + trace any request slower than MS
                           milliseconds (default: GCX_SLOW_MS env, else
                           off; --listen only)

File mode: every query runs against every XML input (stdin as the single
input when no files are given), concurrently through one QueryService;
per-session statistics and the cache summary are printed to stderr.

HTTP mode (--listen): POST /query?xq=<urlencoded query> (or ?name=<query
file stem from --queries>) with the XML document as the request body —
chunked uploads stream at constant memory, results stream back chunked.
GET /stats returns live per-session buffer statistics and latency
quantiles as JSON; GET /metrics serves the same counters and histograms
in Prometheus text exposition format; GET /trace returns recent sampled
request traces as Chrome trace-event JSON (load in Perfetto or
chrome://tracing; see --trace-sample and --slow-ms / GCX_SLOW_MS). Set
GCX_LOG=error|warn|info|debug (optionally per target:
\"info,gcx_net=debug\") for structured stderr logs. SIGTERM/SIGINT drain
gracefully (see --drain-timeout).
";

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        query: None,
        query_file: None,
        xml_file: None,
        engine: "gcx".into(),
        output: None,
        stats: false,
        plan: false,
        optimize: true,
        compile_only: false,
    };
    let mut args = std::env::args().skip(1);
    let mut positional: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            "-q" | "--query" => {
                cli.query = Some(args.next().ok_or("missing value for --query")?);
            }
            "-e" | "--engine" => {
                cli.engine = args.next().ok_or("missing value for --engine")?;
                if !matches!(cli.engine.as_str(), "gcx" | "nogc" | "static" | "dom") {
                    return Err(format!(
                        "unknown engine '{}' (gcx|nogc|static|dom)",
                        cli.engine
                    ));
                }
            }
            "-o" | "--output" => {
                cli.output = Some(args.next().ok_or("missing value for --output")?);
            }
            "--stats" => cli.stats = true,
            "--plan" => cli.plan = true,
            "--no-optimize" => cli.optimize = false,
            "--compile-only" => {
                cli.compile_only = true;
                cli.plan = true;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}' (try --help)"));
            }
            other => positional.push(other.to_string()),
        }
    }
    let mut positional = positional.into_iter();
    if cli.query.is_none() {
        cli.query_file = Some(positional.next().ok_or("missing query (file or --query)")?);
    }
    cli.xml_file = positional.next();
    if let Some(extra) = positional.next() {
        return Err(format!("unexpected argument '{extra}'"));
    }
    Ok(cli)
}

struct ServeCli {
    queries_dir: String,
    xml_files: Vec<String>,
    jobs: usize,
    chunk: usize,
    cache: usize,
    budget: Option<usize>,
    output_dir: Option<String>,
    listen: Option<String>,
    workers: usize,
    evaluators: usize,
    max_connections: usize,
    drain_timeout: u64,
    trace_sample: u64,
    slow_ms: Option<u64>,
}

fn parse_serve_args(args: impl Iterator<Item = String>) -> Result<ServeCli, String> {
    let mut cli = ServeCli {
        queries_dir: String::new(),
        xml_files: Vec::new(),
        jobs: 8,
        chunk: 64 * 1024,
        cache: 64,
        budget: None,
        output_dir: None,
        listen: None,
        workers: 4,
        evaluators: 8,
        max_connections: 4096,
        drain_timeout: 30,
        trace_sample: 64,
        // GCX_SLOW_MS is the env-var default; --slow-ms overrides it.
        slow_ms: std::env::var("GCX_SLOW_MS")
            .ok()
            .and_then(|v| v.parse().ok()),
    };
    let mut args = args.peekable();
    let parse_num = |v: Option<String>, what: &str| -> Result<usize, String> {
        v.ok_or_else(|| format!("missing value for {what}"))?
            .parse()
            .map_err(|_| format!("invalid value for {what}"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            "--queries" => {
                cli.queries_dir = args.next().ok_or("missing value for --queries")?;
            }
            "--jobs" => cli.jobs = parse_num(args.next(), "--jobs")?.max(1),
            "--chunk" => cli.chunk = parse_num(args.next(), "--chunk")?.max(1),
            "--cache" => cli.cache = parse_num(args.next(), "--cache")?.max(1),
            "--budget" => cli.budget = Some(parse_num(args.next(), "--budget")?),
            "--output-dir" => {
                cli.output_dir = Some(args.next().ok_or("missing value for --output-dir")?);
            }
            "--listen" => {
                cli.listen = Some(args.next().ok_or("missing value for --listen")?);
            }
            "--workers" => cli.workers = parse_num(args.next(), "--workers")?.max(1),
            "--evaluators" => cli.evaluators = parse_num(args.next(), "--evaluators")?.max(1),
            "--max-connections" => {
                cli.max_connections = parse_num(args.next(), "--max-connections")?.max(1);
            }
            "--drain-timeout" => {
                cli.drain_timeout = parse_num(args.next(), "--drain-timeout")? as u64;
            }
            "--trace-sample" => {
                cli.trace_sample = parse_num(args.next(), "--trace-sample")? as u64;
            }
            "--slow-ms" => {
                cli.slow_ms = Some(parse_num(args.next(), "--slow-ms")? as u64);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown serve option '{other}' (try --help)"));
            }
            other => cli.xml_files.push(other.to_string()),
        }
    }
    if cli.queries_dir.is_empty() && cli.listen.is_none() {
        return Err("serve requires --queries <DIR> (or --listen <ADDR>)".into());
    }
    Ok(cli)
}

/// Loads every `.xq` file of `dir` as a `(stem, text)` pair, sorted by
/// path (shared by the file-serving and HTTP-serving modes).
fn load_queries(dir: &str) -> Result<Vec<(String, String)>, String> {
    let mut query_files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read query directory {dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "xq"))
        .collect();
    query_files.sort();
    query_files
        .into_iter()
        .map(|qpath| {
            let text = std::fs::read_to_string(&qpath)
                .map_err(|e| format!("cannot read query file {}: {e}", qpath.display()))?;
            Ok((file_stem(&qpath.to_string_lossy()), text))
        })
        .collect()
}

/// `gcx serve --listen`: the gcx-net HTTP front-end in the foreground.
fn run_serve_http(cli: &ServeCli) -> Result<(), String> {
    let queries = if cli.queries_dir.is_empty() {
        Vec::new()
    } else {
        load_queries(&cli.queries_dir)?
    };
    let named = queries.len();
    let addr = cli.listen.as_deref().expect("listen mode");
    let config = gcx_net::NetConfig {
        workers: cli.workers,
        evaluators: cli.evaluators,
        service: ServiceConfig {
            cache_capacity: cli.cache,
            memory_budget: cli.budget,
        },
        queries,
        max_connections: cli.max_connections,
        trace_sample_every: cli.trace_sample,
        slow_request_threshold: cli.slow_ms.map(std::time::Duration::from_millis),
        ..Default::default()
    };
    let server =
        gcx_net::GcxServer::bind(addr, config).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!("gcx-net: listening on http://{}", server.local_addr());
    println!(
        "gcx-net: {} workers, {} evaluators, {named} named queries; \
         POST /query, GET /stats, GET /metrics, GET /trace, GET /healthz",
        cli.workers, cli.evaluators,
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    if gcx_net::shutdown::install_terminate_handler() {
        // Foreground loop: poll the signal flag, then drain — in-flight
        // requests finish, keep-alive clients are told to close, and
        // whatever remains past the deadline is hard-cancelled.
        while !gcx_net::shutdown::terminate_requested() {
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        let deadline = std::time::Duration::from_secs(cli.drain_timeout);
        eprintln!(
            "gcx-net: termination signal, draining (deadline {}s)",
            cli.drain_timeout
        );
        server.shutdown_graceful(deadline);
        eprintln!("gcx-net: drained");
    } else {
        server.wait();
    }
    Ok(())
}

fn file_stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

fn run_serve(args: impl Iterator<Item = String>) -> Result<(), String> {
    let cli = parse_serve_args(args)?;
    if cli.listen.is_some() {
        return run_serve_http(&cli);
    }

    let queries = load_queries(&cli.queries_dir)?;
    if queries.is_empty() {
        return Err(format!("no .xq query files in {}", cli.queries_dir));
    }

    // Inputs: each file (streamed chunk by chunk — never loaded whole,
    // preserving the engine's bounded-memory property even for huge
    // documents), or stdin buffered as the single input when no files
    // are given (stdin cannot be re-read per query).
    enum InputSrc {
        File(String),
        Mem(std::sync::Arc<[u8]>),
    }
    let mut used_names = std::collections::HashSet::new();
    let mut unique = move |base: String| -> String {
        let mut name = base.clone();
        let mut i = 1;
        while !used_names.insert(name.clone()) {
            i += 1;
            name = format!("{base}-{i}");
        }
        name
    };
    let mut inputs: Vec<(String, InputSrc)> = Vec::new();
    if cli.xml_files.is_empty() {
        let mut data = Vec::new();
        std::io::stdin()
            .read_to_end(&mut data)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        inputs.push(("stdin".to_string(), InputSrc::Mem(data.into())));
    } else {
        for f in &cli.xml_files {
            // Fail early on unreadable files, but stream the bytes later.
            std::fs::metadata(f).map_err(|e| format!("cannot read input {f}: {e}"))?;
            inputs.push((unique(file_stem(f)), InputSrc::File(f.clone())));
        }
    }

    struct ServeJob {
        query: String,
        input: InputSrc,
        label: String,
        out_path: Option<String>,
    }
    let mut used_paths = std::collections::HashSet::new();
    let mut unique_path = move |base: String| -> String {
        let mut path = format!("{base}.xml");
        let mut i = 1;
        while !used_paths.insert(path.clone()) {
            i += 1;
            path = format!("{base}-{i}.xml");
        }
        path
    };
    let mut jobs = Vec::new();
    for (qname, qtext) in &queries {
        for (iname, src) in &inputs {
            let input = match src {
                InputSrc::File(f) => InputSrc::File(f.clone()),
                InputSrc::Mem(data) => InputSrc::Mem(data.clone()),
            };
            jobs.push(ServeJob {
                query: qtext.clone(),
                input,
                label: format!("{qname}×{iname}"),
                out_path: cli
                    .output_dir
                    .as_ref()
                    .map(|dir| unique_path(format!("{dir}/{qname}__{iname}"))),
            });
        }
    }

    let service = QueryService::new(ServiceConfig {
        cache_capacity: cli.cache,
        memory_budget: cli.budget,
    });
    if let Some(dir) = &cli.output_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    }

    // Clamp the chunk so one reservation always fits the whole budget;
    // rejected chunks then wait (`feed` backpressure) instead of
    // failing.
    let chunk_size = cli.budget.map_or(cli.chunk, |b| cli.chunk.min(b.max(1)));

    // One streaming session per job: feed chunks as they are read,
    // write output bytes as they are produced.
    let run_job = |job: &ServeJob| -> Result<(u64, gcx::RunReport), String> {
        let mut session = service
            .open_session(&job.query)
            .map_err(|e| e.to_string())?;
        let mut sink: Box<dyn Write> = match &job.out_path {
            Some(path) => Box::new(BufWriter::new(
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
            )),
            None => Box::new(std::io::sink()),
        };
        let mut written = 0u64;
        let mut push = |sink: &mut Box<dyn Write>, bytes: &[u8]| -> Result<(), String> {
            written += bytes.len() as u64;
            sink.write_all(bytes).map_err(|e| e.to_string())
        };
        match &job.input {
            InputSrc::File(f) => {
                let mut file =
                    std::fs::File::open(f).map_err(|e| format!("cannot open input {f}: {e}"))?;
                let mut buf = vec![0u8; chunk_size];
                loop {
                    let n = file.read(&mut buf).map_err(|e| e.to_string())?;
                    if n == 0 {
                        break;
                    }
                    let out = session.feed(&buf[..n]).map_err(|e| e.to_string())?;
                    push(&mut sink, &out)?;
                }
            }
            InputSrc::Mem(data) => {
                for chunk in data.chunks(chunk_size) {
                    let out = session.feed(chunk).map_err(|e| e.to_string())?;
                    push(&mut sink, &out)?;
                }
            }
        }
        let outcome = session.finish().map_err(|e| e.to_string())?;
        push(&mut sink, &outcome.output)?;
        sink.flush().map_err(|e| e.to_string())?;
        Ok((written, outcome.report))
    };

    type JobResult = Result<(u64, gcx::RunReport), String>;
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<JobResult>>> =
        jobs.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let workers = cli.jobs.min(jobs.len()).max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                *results[i].lock().expect("result slot") = Some(run_job(job));
            });
        }
    });

    let mut failures = 0usize;
    for (job, slot) in jobs.iter().zip(results) {
        let result = slot
            .into_inner()
            .expect("result slot")
            .expect("worker filled every claimed slot");
        match result {
            Ok((output_bytes, r)) => {
                eprintln!(
                    "[{}] ok: output {}B, peak {} nodes / {}, {:.3}s, tokens {}+{} skipped, roles {}",
                    job.label,
                    output_bytes,
                    r.stats.peak_nodes,
                    r.stats.peak_human(),
                    r.elapsed.as_secs_f64(),
                    r.tokens_read,
                    r.tokens_skipped,
                    match r.safety {
                        Some(true) => "balanced",
                        Some(false) => "VIOLATED",
                        None => "n/a",
                    },
                );
            }
            Err(e) => {
                failures += 1;
                eprintln!("[{}] FAILED: {e}", job.label);
                if let Some(path) = &job.out_path {
                    // Do not leave a partial result behind.
                    std::fs::remove_file(path).ok();
                }
            }
        }
    }
    let stats = service.stats();
    eprintln!(
        "serve: {} sessions ({} failed), cache {} hits / {} misses / {} evictions",
        stats.sessions_opened,
        failures,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
    );
    if failures > 0 {
        return Err(format!("{failures} of {} sessions failed", jobs.len()));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let cli = parse_args()?;
    let query_text = match (&cli.query, &cli.query_file) {
        (Some(q), _) => q.clone(),
        (None, Some(f)) => {
            std::fs::read_to_string(f).map_err(|e| format!("cannot read query file {f}: {e}"))?
        }
        _ => unreachable!("parse_args guarantees a query"),
    };

    let mut tags = TagInterner::new();
    let opts = if cli.optimize {
        CompileOptions::default()
    } else {
        CompileOptions::plain()
    };
    let compiled = compile(&query_text, &mut tags, opts).map_err(|e| e.to_string())?;

    if cli.plan {
        eprintln!("── rewritten query ──");
        eprintln!("{}", pretty_query(&compiled.rewritten, &tags));
        eprintln!("── projection tree ──");
        eprintln!("{}", compiled.projection.tree.pretty(&tags));
    }
    if cli.compile_only {
        return Ok(());
    }

    let input: Box<dyn Read> = match &cli.xml_file {
        Some(f) => {
            Box::new(std::fs::File::open(f).map_err(|e| format!("cannot open input {f}: {e}"))?)
        }
        None => Box::new(std::io::stdin()),
    };
    let output: Box<dyn Write> = match &cli.output {
        Some(f) => Box::new(BufWriter::new(
            std::fs::File::create(f).map_err(|e| format!("cannot create output {f}: {e}"))?,
        )),
        None => Box::new(BufWriter::new(std::io::stdout())),
    };

    let report = match cli.engine.as_str() {
        "gcx" => gcx::run_gcx(&compiled, &mut tags, input, output),
        "nogc" => gcx::run_no_gc_streaming(&compiled, &mut tags, input, output),
        "static" => gcx::run_static_projection(&compiled, &mut tags, input, output),
        "dom" => gcx::run_dom(&compiled, &mut tags, input, output),
        other => unreachable!("engine '{other}' rejected by parse_args"),
    }
    .map_err(|e| e.to_string())?;

    if cli.stats {
        eprintln!("engine          : {}", report.engine);
        eprintln!("time            : {:.3}s", report.elapsed.as_secs_f64());
        eprintln!("output bytes    : {}", report.output_bytes);
        eprintln!("peak buffer     : {}", report.stats.peak_human());
        eprintln!("peak nodes      : {}", report.stats.peak_nodes);
        eprintln!("nodes created   : {}", report.stats.nodes_created);
        eprintln!("nodes purged    : {}", report.stats.nodes_purged);
        eprintln!(
            "roles ±         : {} / {}",
            report.stats.roles_assigned, report.stats.roles_removed
        );
        eprintln!("gc visits       : {}", report.stats.gc_visits);
        eprintln!("tokens read     : {}", report.tokens_read);
        eprintln!("tokens skipped  : {}", report.tokens_skipped);
        eprintln!("bytes skipped   : {}", report.bytes_skipped);
        if let Some(ok) = report.safety {
            eprintln!(
                "role accounting : {}",
                if ok { "balanced" } else { "VIOLATED" }
            );
        }
    }
    if report.safety == Some(false) {
        return Err("internal error: role accounting violated".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let result = if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        run_serve(args)
    } else {
        run()
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gcx: {e}");
            ExitCode::FAILURE
        }
    }
}
