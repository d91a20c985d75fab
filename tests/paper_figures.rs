//! Integration tests reproducing the paper's worked figures and examples
//! end-to-end through the public API.

use gcx::query::{compile, pretty_query, CompileOptions};
use gcx::xml::TagInterner;
use gcx::{GcxEngine, Strategy};
use std::sync::{Arc, Mutex};

const INTRO_QUERY: &str = r#"<r>{
    for $bib in /bib return
      ((for $x in $bib/* return
          if (not(exists($x/price))) then $x else ()),
       for $b in $bib/book return $b/title)
}</r>"#;

/// Paper Fig. 1: the projection tree derived from the intro query
/// (plain pipeline — no §6 optimizations — to match the figure).
#[test]
fn fig1_projection_tree() {
    let mut tags = TagInterner::new();
    let compiled = compile(INTRO_QUERY, &mut tags, CompileOptions::plain()).unwrap();
    let pretty = compiled.projection.tree.pretty(&tags);
    // Shape: / → bib → {*, book}; * → {price[1], dos}; book → title → dos.
    let lines: Vec<&str> = pretty.lines().collect();
    assert!(lines[0].contains('/'));
    assert!(lines[1].contains("bib"));
    assert!(pretty.contains("price[1]"));
    assert!(pretty.contains("dos::node()"));
    assert!(pretty.contains("title"));
    // Six roles r0..r5 ≙ the paper's r2..r7.
    assert_eq!(compiled.roles.len(), 6);
}

/// Paper Fig. 2: buffer contents step by step while evaluating the intro
/// query on `<bib><book><title/><author/></book>…`.
#[test]
fn fig2_active_gc_trace() {
    let mut tags = TagInterner::new();
    let compiled = compile(INTRO_QUERY, &mut tags, CompileOptions::plain()).unwrap();
    let xml = "<bib><book><title/><author/></book><book><title/><price>1</price></book></bib>";
    let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = log.clone();
    let mut engine = GcxEngine::new(
        &compiled,
        &mut tags,
        xml.as_bytes(),
        Vec::new(),
        Strategy::Gcx,
    );
    engine.set_tracer(Box::new(move |ev| {
        sink.lock().unwrap().push(ev.buffer.clone());
    }));
    let report = engine.run().expect("run");
    let log = log.lock().unwrap();

    // Role map (plain pipeline): r0=$bib(≙paper r2), r1=$x(r3),
    // r2=exists price[1](r4), r3=output $x dos(r5), r4=$b(r6),
    // r5=title/dos(r7).
    let expect_in_order = [
        // Fig. 2 step 2: <bib> read.
        "bib{r0}",
        // Step 3: <book> buffered with for-, dos- and book-roles.
        "bib{r0} book{r1,r3,r4}",
        // Step 4: <title/> with dos role and title-output role.
        "bib{r0} book{r1,r3,r4} title{r3,r5}",
        // Step 5: <author/> with only the dos role.
        "bib{r0} book{r1,r3,r4} title{r3,r5} author{r3}",
        // Step 7 (after </book> + output + signOffs): author purged,
        // book and title keep the roles of the *second* loop.
        "bib{r0} book{r4} title{r5}",
    ];
    let mut pos = 0;
    for buffer in log.iter() {
        if pos < expect_in_order.len() && buffer == expect_in_order[pos] {
            pos += 1;
        }
    }
    assert_eq!(
        pos,
        expect_in_order.len(),
        "missing Fig. 2 state #{pos}; trace was:\n{}",
        log.join("\n")
    );
    assert_eq!(report.safety, Some(true));
    // At the very end the buffer holds only the virtual root.
    assert_eq!(report.stats.live_nodes, 1);
}

/// The rewritten intro query of §1: signOff statements in the right
/// places (plain pipeline).
#[test]
fn intro_rewritten_query_matches_paper() {
    let mut tags = TagInterner::new();
    let compiled = compile(INTRO_QUERY, &mut tags, CompileOptions::plain()).unwrap();
    let s = pretty_query(&compiled.rewritten, &tags);
    // Same statements as the paper's rewritten query (role names shifted
    // by two: paper counts from r2).
    for frag in [
        "signOff($x, r1)",
        "signOff($x/price[1], r2)",
        "signOff($x/dos::node(), r3)",
        "signOff($b, r4)",
        "signOff($b/title/dos::node(), r5)",
        "signOff($bib, r0)",
    ] {
        assert!(s.contains(frag), "missing {frag} in: {s}");
    }
}

/// Paper Fig. 9 / Example 6/8: the non-straight variable's updates are
/// issued at the end of the $root scope through the variable path.
#[test]
fn fig9_signoff_placement() {
    let mut tags = TagInterner::new();
    let compiled = compile(
        "<q>{ for $a in //a return <a>{ for $b in //b return <b/> }</a> }</q>",
        &mut tags,
        CompileOptions::plain(),
    )
    .unwrap();
    let s = pretty_query(&compiled.rewritten, &tags);
    assert!(s.contains("signOff($a, r0)"), "got {s}");
    assert!(s.contains("signOff($root//b, r1)"), "got {s}");
    assert!(
        s.rfind("signOff($root//b, r1)").unwrap() > s.rfind("</a>").unwrap_or(0),
        "root update comes after the outer loop: {s}"
    );
}

/// Paper Example 7: evaluating Example 4's query with its signOffs over
/// the matching projected document is safe and produces the same output
/// as the oracle (Theorem 1 on the figure's workload).
#[test]
fn example7_safety_on_matching_tree() {
    // Document T of Fig. 4(a): a { a { b }, b }.
    let doc = "<a><a><b></b></a><b></b></a>";
    let query = "<q>{ for $a in //a return <a2>{ for $b in $a//b return <b2/> }</a2> }</q>";
    let gcx_out = gcx::evaluate_to_string(query, doc).unwrap();
    let mut tags = TagInterner::new();
    let compiled = gcx::compile_default(query, &mut tags).unwrap();
    let mut dom_out = Vec::new();
    gcx::run_dom(&compiled, &mut tags, doc.as_bytes(), &mut dom_out).unwrap();
    assert_eq!(gcx_out, String::from_utf8(dom_out).unwrap());
    // The outer a sees both b's; the inner a sees one.
    assert_eq!(
        gcx_out,
        "<q><a2><b2></b2><b2></b2></a2><a2><b2></b2></a2></q>"
    );
}

/// Paper Fig. 12: the optimized pipeline eliminates the redundant roles
/// r3 and r6 (ours r1/r4) — fewer role instances are assigned at runtime
/// for the same document, with identical output.
#[test]
fn fig12_redundant_roles_reduce_traffic() {
    let xml = "<bib><book><title>A</title><author>x</author></book>\
               <book><title>B</title><price>3</price></book></bib>";
    let run = |opts: CompileOptions| {
        let mut tags = TagInterner::new();
        let compiled = compile(INTRO_QUERY, &mut tags, opts).unwrap();
        let mut out = Vec::new();
        let report = gcx::run_gcx(&compiled, &mut tags, xml.as_bytes(), &mut out).unwrap();
        (String::from_utf8(out).unwrap(), report)
    };
    let (out_plain, plain) = run(CompileOptions::plain());
    let (out_opt, opt) = run(CompileOptions::default());
    assert_eq!(out_plain, out_opt, "optimizations preserve the result");
    assert!(
        opt.stats.roles_assigned < plain.stats.roles_assigned,
        "optimized {} < plain {}",
        opt.stats.roles_assigned,
        plain.stats.roles_assigned
    );
    assert_eq!(plain.safety, Some(true));
    assert_eq!(opt.safety, Some(true));
}

/// The paper's §6 "early updates" motivation: a book with several titles
/// releases each title right after outputting it.
#[test]
fn early_updates_release_per_title() {
    let query = "<r>{ for $b in /bib/book return $b/title }</r>";
    let xml = "<bib><book><title>1</title><title>2</title><title>3</title></book></bib>";
    let run = |opts: CompileOptions| {
        let mut tags = TagInterner::new();
        let compiled = compile(query, &mut tags, opts).unwrap();
        let mut out = Vec::new();
        let report = gcx::run_gcx(&compiled, &mut tags, xml.as_bytes(), &mut out).unwrap();
        (String::from_utf8(out).unwrap(), report)
    };
    let (o1, with) = run(CompileOptions::default());
    let (o2, without) = run(CompileOptions {
        early_updates: false,
        ..CompileOptions::default()
    });
    assert_eq!(o1, o2);
    assert_eq!(
        o1,
        "<r><title>1</title><title>2</title><title>3</title></r>"
    );
    assert!(with.safety == Some(true) && without.safety == Some(true));
}
