//! The (query, document) corpus shared by the schedule-equivalence
//! tests: `tests/service_chunked.rs` (sessions) and
//! `crates/core/tests/flush_contract.rs` (the bare step machine).

/// The differential corpus (kept in sync with `tests/differential.rs`).
const DOC_BIB: &str = "<bib>\
    <book><title>T1</title><author>A</author><price>12</price></book>\
    <book><title>T2</title><author>B</author></book>\
    <cd><title>T3</title><label>L</label></cd>\
    <book><title>T4</title><price>7</price><price>9</price></book>\
</bib>";

const DOC_NESTED: &str =
    "<a><a><b><b>x</b></b><c><b>y</b></c></a><b>z</b><d><e><b>w</b></e></d></a>";

const DOC_PEOPLE: &str = "<db>\
    <person><id>1</id><name>Ann</name><age>34</age></person>\
    <person><id>2</id><name>Bob</name></person>\
    <sale><buyer>2</buyer><sum>10</sum></sale>\
    <sale><buyer>1</buyer><sum>20</sum></sale>\
    <sale><buyer>2</buyer><sum>30</sum></sale>\
</db>";

const DOC_MIXED: &str = "<a>\n  <b> x </b>\n  <b>y<c/>z</b>\n</a>";

const DOC_VALUES: &str = "<l><v>9</v><v>10</v><v>x10</v><v>02</v></l>";

pub fn corpus() -> Vec<(&'static str, &'static str)> {
    vec![
        ("<r>{ for $b in /bib/book return $b/title }</r>", DOC_BIB),
        ("<r>{ for $b in /bib/book return $b }</r>", DOC_BIB),
        ("<r>{ for $x in /bib/* return $x/title }</r>", DOC_BIB),
        ("<r>{ for $b in //b return $b }</r>", DOC_NESTED),
        (
            "<r>{ for $a in //a return for $b in $a//b return <hit/> }</r>",
            DOC_NESTED,
        ),
        ("<r>{ for $t in /bib//title return $t/text() }</r>", DOC_BIB),
        (
            r#"<r>{ for $b in /bib/book return
                if (exists($b/price)) then $b/title else () }</r>"#,
            DOC_BIB,
        ),
        (
            r#"<r>{ for $b in /bib/book return
                if (not(exists($b/price))) then $b else () }</r>"#,
            DOC_BIB,
        ),
        (
            r#"<r>{ for $b in /bib/book return
                if ($b/price >= 9 and exists($b/author)) then $b/title else <cheap/> }</r>"#,
            DOC_BIB,
        ),
        (
            r#"<r>{ for $b in /bib/book return
                if ($b/title = "T2" or $b/price < 8) then $b/author else () }</r>"#,
            DOC_BIB,
        ),
        (
            r#"<r>{ for $p in /db/person return
                <row>{ ($p/name, for $s in /db/sale return
                    if ($s/buyer = $p/id) then $s/sum else ()) }</row> }</r>"#,
            DOC_PEOPLE,
        ),
        (
            r#"<r>{ for $s in /db/sale return for $p in /db/person return
                if ($p/id = $s/buyer) then <pair>{ $p/name }</pair> else () }</r>"#,
            DOC_PEOPLE,
        ),
        (
            r#"<r>{ for $b in /bib/book return
                <entry><head>{ $b/title }</head><tail>{ ($b/author, $b/price) }</tail></entry> }</r>"#,
            DOC_BIB,
        ),
        ("<r><empty/>{ () }<also/></r>", DOC_BIB),
        (
            "<r>{ for $x in /bib/* return <k>{ $x/text() }</k> }</r>",
            DOC_BIB,
        ),
        (
            r#"<r>{ (for $b in /bib/book return $b/title,
                    for $b in /bib/book return $b/author,
                    for $c in /bib/cd return $c/label) }</r>"#,
            DOC_BIB,
        ),
        (
            r#"<r>{ for $a in /a/a return
                     for $x in $a/* return
                       for $b in $x/b return <leaf>{ $b/text() }</leaf> }</r>"#,
            DOC_NESTED,
        ),
        ("<r>{ for $z in /bib/zzz return $z }</r>", DOC_BIB),
        ("<r>{ for $b in //nothing return $b }</r>", "<a/>"),
        ("<r>{ for $b in /a/b return $b }</r>", DOC_MIXED),
        ("<r>{ for $b in /a/b return $b/text() }</r>", DOC_MIXED),
        (
            r#"<r>{ for $v in /l/v return if ($v/text() < 10) then $v else () }</r>"#,
            DOC_VALUES,
        ),
        ("<r>{ for $b in $root/bib return $b/cd }</r>", DOC_BIB),
        (
            "<r>{ let $books := /bib/book return for $b in $books/title return $b }</r>",
            DOC_BIB,
        ),
        (
            "<r>{ for $a in //a return for $b in $a//b return <x/> }</r>",
            "<a><a><a><b><b/></b></a></a><b/></a>",
        ),
    ]
}
