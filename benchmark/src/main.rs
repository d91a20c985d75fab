//! `gcx_benchmark` — the repository's one repeatable benchmark.
//!
//! ```text
//! gcx_benchmark [--seed N] [--workload NAME] [--seconds S] [--trace 0|1]
//!               [--trace-out FILE] [--check-repeat]
//! ```
//!
//! Every input is generated from `--seed` (default 42) inside this
//! process; the program under test only ever receives generated bytes.
//! Each workload runs as warm-up (1 s, discarded) plus a timed window of
//! `--seconds` (default: `run_seconds` of `BENCHMARK.json`) with tracing
//! off, then as a separate traced pass; `--trace 0` / `--trace 1` run
//! only the one or the other. Every metric is printed by name with its
//! unit, and the last line of standard output is one JSON object. See
//! README.md for the definitions.

mod http;
mod manifest;
mod measure;
mod sys;
mod trace;
mod workloads;

use manifest::{Manifest, MetricDecl};
use measure::{Metrics, Tally};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Spec;

#[global_allocator]
static GLOBAL: sys::CountingAllocator = sys::CountingAllocator;

/// Warm-up before the timed window, discarded.
const WARMUP_SECONDS: f64 = 1.0;

/// `setup_s` is the median over repeated set-ups: at least
/// `SETUP_MIN_REPEATS`, and more (up to `SETUP_MAX_REPEATS`) while they
/// have taken less than `SETUP_MIN_SECONDS` in total, so that a set-up of
/// half a millisecond is a median of many and not of three.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 64;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// Metrics that are exact counts of a deterministic computation: two runs
/// on one seed must agree to the last digit (`--check-repeat`).
const EXACT: &[&str] = &[
    "peak_buffer_bytes",
    "xml.events",
    "xml.bytes_skipped",
    "xml.skip_ratio",
    "projection.dfa_states",
    "projection.uses_dfa",
    "buffer.peak_nodes",
    "buffer.nodes_created",
    "buffer.nodes_purged",
    "buffer.gc_visits",
    "buffer.signoffs",
    "buffer.role_imbalance",
    "core.output_bytes",
    "net.shed",
];

struct Args {
    seed: u64,
    workload: Option<String>,
    seconds: Option<f64>,
    /// `None` runs both passes.
    trace: Option<bool>,
    trace_out: Option<String>,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        workload: None,
        seconds: None,
        trace: None,
        trace_out: None,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--workload" => args.workload = Some(value()?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.trace_out.is_some() && (args.workload.is_none() || args.trace == Some(false)) {
        return Err("--trace-out needs --workload and a traced pass".into());
    }
    Ok(args)
}

/// The metrics of one workload run, in manifest order.
struct Outcome {
    workload: &'static str,
    tally: Tally,
    /// `(declaration, value)`.
    metrics: Vec<(MetricDecl, f64)>,
    /// Successful operations in the timed window (the sample count of the
    /// end-to-end timings); 0 when only the traced pass ran.
    ops: usize,
}

/// Orders `produced` by `declared`, insisting the two name sets agree:
/// a metric the manifest names but the code does not produce (or the
/// reverse) is a bug in the benchmark, not a measurement.
fn by_manifest(
    declared: &[MetricDecl],
    produced: Metrics,
) -> Result<Vec<(MetricDecl, f64)>, String> {
    if let Some((name, _)) = produced
        .iter()
        .find(|(name, _)| !declared.iter().any(|d| d.name == *name))
    {
        return Err(format!("metric {name} is not declared in BENCHMARK.json"));
    }
    declared
        .iter()
        .map(|d| {
            let value = produced
                .iter()
                .find(|(name, _)| *name == d.name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("declared metric {} was not produced", d.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite", d.name));
            }
            Ok((d.clone(), value))
        })
        .collect()
}

/// The untraced pass: set up (several times, for a steady `setup_s`),
/// warm up, measure one window.
fn untraced_pass(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<(Metrics, usize), String> {
    let mut setups = Vec::new();
    let p = loop {
        let t = Instant::now();
        let p = workloads::prepare(spec, seed, false)?;
        setups.push(t.elapsed().as_secs_f64());
        let enough = setups.len() >= SETUP_MIN_REPEATS
            && (setups.iter().sum::<f64>() >= SETUP_MIN_SECONDS
                || setups.len() >= SETUP_MAX_REPEATS);
        if enough {
            break p;
        }
        p.teardown();
    };
    tally.add(&measure::run_window(&p, WARMUP_SECONDS).tally);
    let window = measure::run_window(&p, seconds);
    tally.add(&window.tally);
    let metrics = window.end_to_end(p.doc.len()).map(|mut m| {
        m.push((
            "peak_buffer_bytes",
            window.peak_buffer_bytes.max(p.engine.stats.peak_bytes) as f64,
        ));
        m.push(("setup_s", sys::median(&mut setups)));
        m
    });
    p.teardown();
    Ok((metrics?, window.samples.len()))
}

fn run_workload(
    spec: &'static Spec,
    manifest: &Manifest,
    args: &Args,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    let mut ops = 0;
    if args.trace != Some(true) {
        let (produced, n) = untraced_pass(spec, args.seed, seconds, &mut tally)?;
        metrics.extend(by_manifest(&manifest.end_to_end, produced)?);
        ops = n;
    }
    if args.trace != Some(false) {
        let p = workloads::prepare(spec, args.seed, true)?;
        let mut tracer = trace::Tracer::new();
        let traced = trace::traced_pass(&p, seconds, &mut tracer);
        p.teardown();
        let traced = traced?;
        tally.add(&traced.tally);
        metrics.extend(by_manifest(&manifest.per_layer, traced.metrics)?);
        if let Some(path) = &args.trace_out {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            tracer
                .write_chrome(std::io::BufWriter::new(file))
                .map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(Outcome {
        workload: spec.name,
        tally,
        metrics,
        ops,
    })
}

fn print_outcome(o: &Outcome) {
    println!(
        "# {}: attempted {} failed {}{}",
        o.workload,
        o.tally.attempted,
        o.tally.failed,
        o.tally
            .first_error
            .as_ref()
            .map_or(String::new(), |e| format!(" (first failure: {e})"))
    );
    for (decl, value) in &o.metrics {
        let better = if decl.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let bound = decl.bound.map_or(String::new(), |b| {
            format!(", bound {:.0} %, ops {}", b * 100.0, o.ops)
        });
        println!(
            "{:<15} {:<28} {:>16.4} {:<8} ({better} is better{bound})",
            o.workload, decl.name, value, decl.unit
        );
    }
}

fn metrics_json(o: &Outcome) -> String {
    let mut s = String::from("{");
    for (i, (decl, value)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            decl.name, decl.unit
        )
        .expect("string write");
    }
    s.push('}');
    s
}

/// One selected workload prints the contract's object; several print
/// the same object with the metrics nested per workload.
fn summary_json(outcomes: &[Outcome]) -> String {
    let attempted: u64 = outcomes.iter().map(|o| o.tally.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.tally.failed).sum();
    let head = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}",
        failed == 0
    );
    match outcomes {
        [one] => format!("{head}, \"metrics\": {}}}", metrics_json(one)),
        many => {
            let nested: Vec<String> = many
                .iter()
                .map(|o| format!("\"{}\": {}", o.workload, metrics_json(o)))
                .collect();
            format!("{head}, \"workloads\": {{{}}}}}", nested.join(", "))
        }
    }
}

fn run_suite(
    specs: &[&'static Spec],
    manifest: &Manifest,
    args: &Args,
    seconds: f64,
) -> Result<Vec<Outcome>, String> {
    specs
        .iter()
        .map(|spec| {
            let o = run_workload(spec, manifest, args, seconds)?;
            print_outcome(&o);
            Ok(o)
        })
        .collect()
}

/// Compares two runs of the suite: every bounded metric within its
/// bound, every exact count identical. Prints the observed spread beside
/// each bound; returns whether all held.
fn check_repeat(first: &[Outcome], second: &[Outcome]) -> bool {
    let mut held = true;
    println!("# check-repeat: run 1 vs run 2 on the same seed");
    for (a, b) in first.iter().zip(second) {
        for ((decl, x), (_, y)) in a.metrics.iter().zip(&b.metrics) {
            let verdict = if EXACT.contains(&decl.name.as_str()) {
                Some((x == y, "exact".to_string()))
            } else {
                decl.bound.map(|bound| {
                    let spread = (x - y).abs() / x.abs().min(y.abs());
                    (
                        spread <= bound,
                        format!(
                            "spread {:.2} % of bound {:.0} %",
                            spread * 100.0,
                            bound * 100.0
                        ),
                    )
                })
            };
            if let Some((ok, what)) = verdict {
                held &= ok;
                println!(
                    "{:<15} {:<28} {x:>16.4} {y:>16.4}  {what}  {}",
                    a.workload,
                    decl.name,
                    if ok { "ok" } else { "EXCEEDED" }
                );
            }
        }
    }
    held
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let manifest = Manifest::load();
    let declared: Vec<&str> = manifest.workloads.iter().map(|(n, _)| n.as_str()).collect();
    let coded: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
    if declared != coded {
        return Err(format!(
            "BENCHMARK.json declares workloads {declared:?}, the benchmark implements {coded:?}"
        ));
    }
    let specs: Vec<&'static Spec> = match &args.workload {
        Some(name) => vec![workloads::spec(name)
            .ok_or_else(|| format!("unknown workload {name:?}; known: {coded:?}"))?],
        None => workloads::SPECS.iter().collect(),
    };
    let seconds = args.seconds.unwrap_or(manifest.run_seconds);
    println!(
        "# gcx_benchmark seed {} window {seconds} s (+{WARMUP_SECONDS} s warm-up) cores {} scan kernel {}",
        args.seed,
        std::thread::available_parallelism().map_or(0, usize::from),
        gcx_xml::scan::kernel_name()
    );
    let first = run_suite(&specs, &manifest, &args, seconds)?;
    let mut ok = first.iter().all(|o| o.tally.failed == 0);
    if args.check_repeat {
        let second = run_suite(&specs, &manifest, &args, seconds)?;
        ok &= second.iter().all(|o| o.tally.failed == 0);
        ok &= check_repeat(&first, &second);
    }
    println!("{}", summary_json(&first));
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("gcx_benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
