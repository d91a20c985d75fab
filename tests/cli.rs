//! End-to-end tests of the `gcx` command-line binary.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn gcx_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gcx"))
}

/// Runs `cmd` to completion, killing it and failing the test if it is
/// still running after a minute: the failure mode under test is a hang.
fn output_within_a_minute(cmd: &mut Command) -> Output {
    let mut child = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gcx");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("gcx still running after a minute");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().unwrap()
}

#[test]
fn inline_query_over_stdin() {
    let mut child = gcx_bin()
        .args(["-q", "<r>{ for $b in /bib/book return $b/title }</r>"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gcx");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"<bib><book><title>T</title></book></bib>")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "<r><title>T</title></r>"
    );
}

#[test]
fn query_and_input_files_with_stats() {
    let dir = std::env::temp_dir().join(format!("gcx-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let qfile = dir.join("q.xq");
    let xfile = dir.join("in.xml");
    let ofile = dir.join("out.xml");
    std::fs::write(&qfile, "<r>{ for $x in //k return $x }</r>").unwrap();
    std::fs::write(&xfile, "<a><k>1</k><junk/><k>2</k></a>").unwrap();
    let out = gcx_bin()
        .args([
            qfile.to_str().unwrap(),
            xfile.to_str().unwrap(),
            "--stats",
            "-o",
            ofile.to_str().unwrap(),
        ])
        .output()
        .expect("run gcx");
    assert!(out.status.success());
    let result = std::fs::read_to_string(&ofile).unwrap();
    assert_eq!(result, "<r><k>1</k><k>2</k></r>");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("peak buffer"), "stats on stderr: {stderr}");
    assert!(stderr.contains("balanced"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_selection() {
    for engine in ["gcx", "nogc", "static", "dom"] {
        let mut child = gcx_bin()
            .args(["-q", "<r>{ for $b in /a/b return $b }</r>", "-e", engine])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(b"<a><b>x</b></a>")
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "engine {engine}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), "<r><b>x</b></r>");
    }
}

#[test]
fn plan_and_compile_only() {
    let out = gcx_bin()
        .args([
            "-q",
            "<r>{ for $b in /a/b return $b/c }</r>",
            "--compile-only",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("rewritten query"), "{stderr}");
    assert!(stderr.contains("signOff"), "{stderr}");
    assert!(stderr.contains("projection tree"), "{stderr}");
}

#[test]
fn plan_lists_key_filtered_join_loops() {
    let q8 = gcx::xmark::by_name("Q8").expect("Q8");
    let out = gcx_bin()
        .args(["-q", q8, "--compile-only"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("key filter: for $t keyed by $b/person = $p/id\n"),
        "{stderr}"
    );
    let out = gcx_bin()
        .args([
            "-q",
            "<r>{ for $b in /a/b return $b/c }</r>",
            "--compile-only",
        ])
        .output()
        .unwrap();
    assert!(!String::from_utf8_lossy(&out.stderr).contains("key filter"));
}

#[test]
fn bad_query_fails_cleanly() {
    let out = gcx_bin()
        .args(["-q", "<r>{ $unbound }</r>", "--compile-only"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unbound"), "{stderr}");
}

#[test]
fn bad_engine_fails_cleanly() {
    let mut child = gcx_bin()
        .args(["-q", "<r/>", "-e", "warp-drive"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The child rejects the engine name without reading stdin, so this
    // write may hit a closed pipe — that is the expected behaviour.
    let _ = child.stdin.as_mut().unwrap().write_all(b"<a/>");
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown engine"));
}

#[test]
fn serve_runs_queries_times_inputs_concurrently() {
    let dir = std::env::temp_dir().join(format!("gcx-serve-test-{}", std::process::id()));
    let qdir = dir.join("queries");
    let odir = dir.join("out");
    std::fs::create_dir_all(&qdir).unwrap();
    std::fs::write(
        qdir.join("titles.xq"),
        "<r>{ for $b in /bib/book return $b/title }</r>",
    )
    .unwrap();
    std::fs::write(qdir.join("all.xq"), "<r>{ for $x in /bib/* return $x }</r>").unwrap();
    let x1 = dir.join("one.xml");
    let x2 = dir.join("two.xml");
    std::fs::write(&x1, "<bib><book><title>A</title></book></bib>").unwrap();
    std::fs::write(&x2, "<bib><book><title>B</title></book><cd/></bib>").unwrap();
    let out = gcx_bin()
        .args([
            "serve",
            "--queries",
            qdir.to_str().unwrap(),
            x1.to_str().unwrap(),
            x2.to_str().unwrap(),
            "--chunk",
            "7",
            "--output-dir",
            odir.to_str().unwrap(),
        ])
        .output()
        .expect("run gcx serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    // 2 queries × 2 inputs = 4 sessions; each query compiled once.
    assert!(stderr.contains("4 sessions"), "{stderr}");
    assert!(stderr.contains("2 misses"), "{stderr}");
    assert!(stderr.contains("2 hits"), "{stderr}");
    assert!(
        stderr.contains("peak"),
        "per-session stats printed: {stderr}"
    );
    let titles_one = std::fs::read_to_string(odir.join("titles__one.xml")).unwrap();
    assert_eq!(titles_one, "<r><title>A</title></r>");
    let all_two = std::fs::read_to_string(odir.join("all__two.xml")).unwrap();
    assert_eq!(all_two, "<r><book><title>B</title></book><cd></cd></r>");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_isolates_failing_inputs() {
    let dir = std::env::temp_dir().join(format!("gcx-serve-bad-{}", std::process::id()));
    let qdir = dir.join("queries");
    std::fs::create_dir_all(&qdir).unwrap();
    std::fs::write(
        qdir.join("q.xq"),
        "<r>{ for $b in /bib/book return $b/title }</r>",
    )
    .unwrap();
    let good = dir.join("good.xml");
    let bad = dir.join("bad.xml");
    std::fs::write(&good, "<bib><book><title>A</title></book></bib>").unwrap();
    std::fs::write(&bad, "<bib><book></bib>").unwrap();
    let out = gcx_bin()
        .args([
            "serve",
            "--queries",
            qdir.to_str().unwrap(),
            good.to_str().unwrap(),
            bad.to_str().unwrap(),
        ])
        .output()
        .expect("run gcx serve");
    assert!(!out.status.success(), "a failing session fails the batch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("q×good] ok"),
        "good session succeeds: {stderr}"
    );
    assert!(
        stderr.contains("q×bad] FAILED"),
        "bad session isolated: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_requires_queries_dir() {
    let out = gcx_bin().args(["serve"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--queries"));
}

#[test]
fn malformed_input_fails_cleanly() {
    let mut child = gcx_bin()
        .args(["-q", "<r>{ for $x in //k return $x }</r>"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"<a><b></a>")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
}

const TITLES: &str = "<r>{ for $b in /bib/book return $b/title }</r>";
const BIB: &str = "<bib><book><title>A</title></book><book><title>B</title></book></bib>";

/// `gcx serve` over one query and six copies of one document, under a
/// shared memory budget of `budget` bytes.
fn serve_six_inputs(dir: &Path, budget: &str) -> Output {
    let qdir = dir.join("queries");
    std::fs::create_dir_all(&qdir).unwrap();
    std::fs::write(qdir.join("q.xq"), TITLES).unwrap();
    let inputs: Vec<PathBuf> = (0..6)
        .map(|i| {
            let path = dir.join(format!("in{i}.xml"));
            std::fs::write(&path, BIB).unwrap();
            path
        })
        .collect();
    output_within_a_minute(
        gcx_bin()
            .args(["serve", "--queries", qdir.to_str().unwrap()])
            .args(["--jobs", "6", "--budget", budget, "--chunk", "64"])
            .args(["--output-dir", dir.join("out").to_str().unwrap()])
            .args(&inputs),
    )
}

#[test]
fn serve_tiny_budget_is_backpressure_not_failure() {
    // 48 bytes is less than the six inputs together and less than the
    // requested chunk: sessions wait for each other's bytes.
    let dir = std::env::temp_dir().join(format!("gcx-serve-budget-{}", std::process::id()));
    let out = serve_six_inputs(&dir, "48");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    for i in 0..6 {
        let result = std::fs::read_to_string(dir.join(format!("out/q__in{i}.xml"))).unwrap();
        assert_eq!(
            result, "<r><title>A</title><title>B</title></r>",
            "input {i}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_zero_budget_fails_fast_instead_of_hanging() {
    // A budget that can never admit a byte fails every session.
    let dir = std::env::temp_dir().join(format!("gcx-serve-zero-{}", std::process::id()));
    let out = serve_six_inputs(&dir, "0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("memory budget exceeded"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
