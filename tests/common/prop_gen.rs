const TAGS: &[&str] = &["a", "b", "c", "d", "t"];

fn render_doc(seed: u64, fanout: usize, depth: usize) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = String::from("<root>");
    build_elems(&mut rng, &mut s, fanout, depth);
    s.push_str("</root>");
    s
}

fn build_elems(rng: &mut StdRng, s: &mut String, fanout: usize, depth: usize) {
    let n = rng.random_range(0..=fanout);
    for _ in 0..n {
        if depth == 0 || rng.random_bool(0.3) {
            // Text or empty leaf.
            if rng.random_bool(0.5) {
                let v = rng.random_range(0..30).to_string();
                let tag = TAGS[rng.random_range(0..TAGS.len())];
                s.push_str(&format!("<{tag}>{v}</{tag}>"));
            } else {
                let tag = TAGS[rng.random_range(0..TAGS.len())];
                s.push_str(&format!("<{tag}/>"));
            }
        } else {
            let tag = TAGS[rng.random_range(0..TAGS.len())];
            s.push_str(&format!("<{tag}>"));
            build_elems(rng, s, fanout, depth - 1);
            s.push_str(&format!("</{tag}>"));
        }
    }
}

/// Re-spells a [`render_doc`] document with the rest of what the lexer
/// reads: attributes (values holding `>` and `&amp;`), comments holding
/// `>` and `]]`, processing instructions, CDATA sections, character and
/// entity references, indentation and an XML declaration. Only the
/// spelling is random; both engines read the same token stream.
fn decorate_doc(seed: u64, doc: &str) -> String {
    const ATTR_VALUES: &[&str] = &["1>0", "a&amp;b", "&lt;t&gt;", "9", "&#55;", ""];
    const BETWEEN: &[&str] = &[
        "<!-- a > b ]] c -->",
        "<!---->",
        "<?pi x > y?>",
        "<?q?>",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    if rng.random_bool(0.5) {
        out.push_str("<?xml version=\"1.0\"?>\n");
    }
    let mut rest = doc;
    while !rest.is_empty() {
        if rest.starts_with('<') {
            let end = rest.find('>').expect("rendered tags close") + 1;
            let (tag, tail) = rest.split_at(end);
            rest = tail;
            if tag.starts_with("</") || !rng.random_bool(0.3) {
                out.push_str(tag);
            } else {
                let (name, close) = match tag.strip_suffix("/>") {
                    Some(open) => (&open[1..], "/>"),
                    None => (&tag[1..tag.len() - 1], ">"),
                };
                out.push('<');
                out.push_str(name);
                // Distinct names: an element repeats no attribute.
                let first = rng.random_range(0..TAGS.len());
                for i in 0..rng.random_range(1..=2) {
                    let attr = TAGS[(first + i) % TAGS.len()];
                    let value = ATTR_VALUES[rng.random_range(0..ATTR_VALUES.len())];
                    let quote = if rng.random_bool(0.5) { '"' } else { '\'' };
                    out.push_str(&format!(" {attr}={quote}{value}{quote}"));
                }
                out.push_str(close);
            }
        } else {
            let end = rest.find('<').unwrap_or(rest.len());
            let (text, tail) = rest.split_at(end);
            rest = tail;
            let (head, more) = text.split_at(1);
            match rng.random_range(0..5) {
                0 => out.push_str(&format!("<![CDATA[{text}]]>")),
                1 => out.push_str(&format!("<![CDATA[{text}]]]>")),
                2 => out.push_str(&format!("&#{};{more}", u32::from(head.as_bytes()[0]))),
                3 => out.push_str(&format!("&#x{:x};{more}&amp;", head.as_bytes()[0])),
                _ => out.push_str(text),
            }
        }
        if rest.is_empty() {
            break; // nothing after the document element
        }
        if rng.random_bool(0.3) {
            out.push('\n');
            out.push_str(&" ".repeat(rng.random_range(0..4)));
        }
        if rng.random_bool(0.15) {
            out.push_str(BETWEEN[rng.random_range(0..BETWEEN.len())]);
        }
    }
    out
}

// ----------------------------------------------------------------------
// Random queries
// ----------------------------------------------------------------------

struct QGen {
    rng: StdRng,
    next_var: usize,
}

impl QGen {
    fn step(&mut self) -> String {
        let axis = if self.rng.random_bool(0.3) { "//" } else { "/" };
        let test = match self.rng.random_range(0..6) {
            0 => "*",
            1 => "text()",
            i => TAGS[i - 2],
        };
        // `//text()` is legal; `/*` too.
        format!("{axis}{test}")
    }

    fn elem_step(&mut self) -> String {
        let axis = if self.rng.random_bool(0.3) { "//" } else { "/" };
        let test = match self.rng.random_range(0..5) {
            0 => "*",
            i => TAGS[i - 1],
        };
        format!("{axis}{test}")
    }

    fn cond(&mut self, vars: &[String], depth: usize) -> String {
        let v = &vars[self.rng.random_range(0..vars.len())];
        match self.rng.random_range(0..if depth == 0 { 4 } else { 6 }) {
            0 => format!("exists(${v}{})", self.step()),
            1 => "true()".to_string(),
            2 => {
                let op = ["=", "<", ">=", "<=", ">"][self.rng.random_range(0..5)];
                let lit = self.rng.random_range(0..30);
                format!("${v}{} {op} \"{lit}\"", self.step())
            }
            3 => {
                let w = &vars[self.rng.random_range(0..vars.len())];
                format!("${v}{} = ${w}{}", self.step(), self.step())
            }
            4 => format!("not({})", self.cond(vars, depth - 1)),
            _ => {
                let con = if self.rng.random_bool(0.5) { "and" } else { "or" };
                format!(
                    "({} {con} {})",
                    self.cond(vars, depth - 1),
                    self.cond(vars, depth - 1)
                )
            }
        }
    }

    fn expr(&mut self, vars: &[String], depth: usize) -> String {
        if depth == 0 {
            let v = &vars[self.rng.random_range(0..vars.len())];
            return if self.rng.random_bool(0.4) && v != "root" {
                format!("${v}")
            } else {
                format!("${v}{}", self.step())
            };
        }
        match self.rng.random_range(0..8) {
            0..=2 => {
                // for-loop over a fresh variable.
                let name = format!("v{}", self.next_var);
                self.next_var += 1;
                let src = &vars[self.rng.random_range(0..vars.len())];
                let source = if src == "root" {
                    String::new()
                } else {
                    format!("${src}")
                };
                let step = self.elem_step();
                let mut inner: Vec<String> = vars.to_vec();
                inner.push(name.clone());
                format!(
                    "for ${name} in {source}{step} return ({})",
                    self.expr(&inner, depth - 1)
                )
            }
            3 => format!(
                "if ({}) then ({}) else ({})",
                self.cond(vars, 1),
                self.expr(vars, depth - 1),
                self.expr(vars, depth - 1)
            ),
            4 => format!("<w>{{ {} }}</w>", self.expr(vars, depth - 1)),
            5 => format!(
                "({}, {})",
                self.expr(vars, depth - 1),
                self.expr(vars, depth - 1)
            ),
            6 => "()".to_string(),
            _ => {
                let v = &vars[self.rng.random_range(0..vars.len())];
                format!("${v}{}", self.step())
            }
        }
    }
}

fn random_query(seed: u64) -> String {
    let mut g = QGen {
        rng: StdRng::seed_from_u64(seed),
        next_var: 0,
    };
    let body = g.expr(&["root".to_string()], 3);
    format!("<q>{{ {body} }}</q>")
}

/// A bind-and-emit query over [`render_doc`] documents: `for $v in P
/// return $v`, where `P` is one or two steps below the `root` element,
/// child or descendant, ending in a tag test. It sits alone, inside a
/// constructor, under an outer loop, or beside a second loop whose own
/// edges land inside `$v`'s subtree (there as exits of the copy verdict).
fn copy_query(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let [a, b, c, d] = [0; 4].map(|_| TAGS[rng.random_range(0..TAGS.len())]);
    let mut path = String::from("/root");
    for t in [a, c].iter().take(rng.random_range(0..=1)) {
        path.push_str(if rng.random_bool(0.5) { "//" } else { "/" });
        path.push_str(t);
    }
    let axis = if rng.random_bool(0.5) { "//" } else { "/" };
    let body = match rng.random_range(0..4) {
        0 => format!("for $v in {path}{axis}{d} return $v"),
        1 => format!("<w>{{ for $v in {path}{axis}{d} return $v }}</w>"),
        2 => format!("for $a in {path} return for $v in $a{axis}{d} return $v"),
        _ => format!("(for $v in {path}{axis}{d} return $v, for $u in {path}//{a} return $u/{b})"),
    };
    format!("<q>{{ {body} }}</q>")
}


/// A condition over `$v`'s children: `exists`, a string comparison, and
/// `not`/`and` over them (`depth` bounds the nesting).
fn child_cond(rng: &mut StdRng, v: &str, depth: usize) -> String {
    let tag = TAGS[rng.random_range(0..TAGS.len())];
    match rng.random_range(0..if depth == 0 { 2 } else { 4 }) {
        0 => format!("exists(${v}/{tag})"),
        1 => {
            let op = ["=", "<", ">="][rng.random_range(0..3)];
            let lit = rng.random_range(0..30);
            format!("${v}/{tag} {op} \"{lit}\"")
        }
        2 => format!("not({})", child_cond(rng, v, depth - 1)),
        _ => format!(
            "({} and {})",
            child_cond(rng, v, depth - 1),
            child_cond(rng, v, depth - 1)
        ),
    }
}

/// A query of child steps only over [`render_doc`] documents, so that
/// the projection's states are child-search states, whose conditions
/// repeat: each `if` wraps a constructor (the NC rule copies its
/// condition to the open tag, every output iteration and the close tag),
/// and a condition on an outer variable recurs inside an inner loop,
/// whose variable is rebound between the sites of its own condition.
fn child_query(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let [a, b, c, d] = [0; 4].map(|_| TAGS[rng.random_range(0..TAGS.len())]);
    let cx = child_cond(&mut rng, "x", 2);
    let cy = child_cond(&mut rng, "y", 2);
    let body = match rng.random_range(0..4) {
        0 => format!("for $x in /root/{a} return if ({cx}) then <w>{{ $x/{b} }}</w> else ()"),
        1 => format!(
            "for $x in /root/{a} return (if ({cx}) then <w>{{ $x/{b} }}</w> else (), \
             for $y in $x/{c} return if ({cy} and {cx}) then <u>{{ $y/{d} }}</u> else ())"
        ),
        2 => format!(
            "for $x in /root/{a} return for $y in $x/{c} return \
             (if ({cy}) then <w>{{ $y/{b} }}</w> else (), if ({cy}) then $y/{d} else ())"
        ),
        _ => format!(
            "<w>{{ for $x in /root/{a}/{c} return (if ({cx}) then <u>{{ $x/{d} }}</u> else (), \
             if (not({cx})) then $x else ()) }}</w>"
        ),
    };
    format!("<q>{{ {body} }}</q>")
}

// ----------------------------------------------------------------------
// Equality joins (the shape the evaluator's key pre-filter runs on)
// ----------------------------------------------------------------------

/// Join operand values by equality class: numeric-equivalent spellings
/// (`7` = `7.0` = ` 7 ` = `07`, `-0` = `0`, `1e1` = `10`), strings that
/// only differ by whitespace (unequal), and `NaN`, which equals nothing.
const JOIN_CLASSES: &[&[&str]] = &[
    &["7", "7.0", " 7 ", "07"],
    &["-0", "0", "0.0"],
    &["1e1", "10"],
    &["x7"],
    &[" x7"],
    &["NaN"],
    &["inf", "+inf"],
    &[""],
];

/// A value from one of the document's `classes`, in a random spelling.
fn join_value(rng: &mut StdRng, classes: &[&[&'static str]]) -> &'static str {
    let class = classes[rng.random_range(0..classes.len())];
    class[rng.random_range(0..class.len())]
}

/// `<root>` holding one `<ps>` of `<p>`s (the outer side: 0–2 `<id>`s
/// each, some with nested `<s>`s) and 1–2 `<ss>` of `<s>`s (the inner
/// side: 0–2 `<buyer>`s each, as text or as 1–2 `<k>` children, and an
/// `<item>`), the two sides in either order. Values come from three
/// equality classes per document, so equal values meet often, spelled
/// alike or not.
fn render_join_doc(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let classes: Vec<&[&str]> = (0..3)
        .map(|_| JOIN_CLASSES[rng.random_range(0..JOIN_CLASSES.len())])
        .collect();
    fn s_elem(rng: &mut StdRng, classes: &[&[&'static str]], s: &mut String, i: usize) {
        s.push_str("<s>");
        for _ in 0..rng.random_range(0..=2) {
            if rng.random_bool(0.5) {
                s.push_str(&format!("<buyer>{}</buyer>", join_value(rng, classes)));
            } else {
                s.push_str("<buyer>");
                for _ in 0..rng.random_range(1..=2) {
                    s.push_str(&format!("<k>{}</k>", join_value(rng, classes)));
                }
                s.push_str("</buyer>");
            }
        }
        s.push_str(&format!("<item>i{i}</item></s>"));
    }
    let mut ps = String::from("<ps>");
    for i in 0..rng.random_range(0..=5) {
        ps.push_str(&format!("<p><name>p{i}</name>"));
        for _ in 0..rng.random_range(0..=2) {
            ps.push_str(&format!("<id>{}</id>", join_value(&mut rng, &classes)));
        }
        if rng.random_bool(0.3) {
            s_elem(&mut rng, &classes, &mut ps, 100 + i);
        }
        ps.push_str("</p>");
    }
    ps.push_str("</ps>");
    let mut ss = String::new();
    let mut item = 0;
    for _ in 0..rng.random_range(1..=2) {
        ss.push_str("<ss>");
        for _ in 0..rng.random_range(0..=6) {
            s_elem(&mut rng, &classes, &mut ss, item);
            item += 1;
        }
        ss.push_str("</ss>");
    }
    if rng.random_bool(0.7) {
        format!("<root>{ps}{ss}</root>")
    } else {
        format!("<root>{ss}{ps}</root>")
    }
}

/// A join query over [`render_join_doc`] and whether the key pre-filter
/// must accept it under the default and the plain compile options: an
/// outer `for $p`, an inner `for $s` over a path that does not depend on
/// `$p`, and `if (inner = outer)` — or a near miss the filter must
/// reject: `!=`/`<`, output outside the `if`, or an inner base under `$p`
/// (whose body carries the `signOff`s for `$s`'s roles; a re-entered base
/// has them hoisted past the outer loop, so no query text puts a
/// `signOff` into a filterable body). Two `then` branches are filterable
/// only without the §6 if-pushdown, which turns them into several `if`s
/// or a loop over `$p`'s nodes inside the body.
fn join_query(seed: u64) -> (String, [bool; 2]) {
    fn pick(rng: &mut StdRng, xs: &[&'static str]) -> &'static str {
        xs[rng.random_range(0..xs.len())]
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let outer = pick(&mut rng, &["$p/id", "$p//id"]);
    let (chain, inner) = match pick(&mut rng, &["buyer", "k", "chain"]) {
        "buyer" => ("", "$s/buyer"),
        "k" => ("", "$s//k"),
        _ => ("for $b in $s/buyer return ", "$b/k"),
    };
    let then = pick(
        &mut rng,
        &["$s/item", "$s", "<hit/>", "$p/name", "<hit>{ $s/item }</hit>"],
    );
    let pushed_apart = then.starts_with("$p") || then.contains('{');
    let mut op = "=";
    let mut base = pick(&mut rng, &["/root/ss/s", "//s", "$ss/s"]);
    let mut outside = "";
    let filterable = match rng.random_range(0..8) {
        0 => {
            op = pick(&mut rng, &["!=", "<"]);
            false
        }
        1 => {
            outside = "$s/item, ";
            false
        }
        2 => {
            base = "$p/s";
            false
        }
        _ => true,
    };
    let (l, r) = if rng.random_bool(0.5) {
        (inner, outer)
    } else {
        (outer, inner)
    };
    let join = format!(
        "for $s in {base} return {chain}({outside}if ({l} {op} {r}) then {then} else ())"
    );
    let per_p = if rng.random_bool(0.5) {
        format!("<m>{{ ($p/name, {join}) }}</m>")
    } else {
        join
    };
    let mut q = format!("for $p in /root/ps/p return {per_p}");
    if base == "$ss/s" {
        q = format!("for $ss in /root/ss return {q}");
    }
    (
        format!("<q>{{ {q} }}</q>"),
        [filterable && !pushed_apart, filterable],
    )
}
