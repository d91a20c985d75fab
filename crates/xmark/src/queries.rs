//! The benchmark queries of paper §7 (Table 1), adapted to the XQ
//! fragment exactly as the paper describes: "we converted XML attributes
//! into subelements, replaced aggregations such as count($x) by outputting
//! the value of $x instead and rewrote multi step paths in for-loops to
//! single step paths" (the parser performs the multi-step rewriting
//! automatically).

/// XMark Q1 — "Return the name of the person with ID person0."
/// Attribute `@id` is the `id` subelement after conversion.
pub const Q1: &str = r#"<q1>{
  for $p in /site/people/person return
    if ($p/id = "person0") then $p/name/text() else ()
}</q1>"#;

/// XMark Q6 — "How many items are listed on all continents?" with the
/// aggregation replaced by outputting the matched items. Exercises the
/// descendant axis (the paper notes FluXQuery cannot run this one).
pub const Q6: &str = r#"<q6>{
  for $b in /site/regions return
    for $i in $b//item return $i/name
}</q6>"#;

/// XMark Q8 — "List the names of persons and the number of items they
/// bought" — the count is replaced by outputting the matched auction
/// prices; the join is a nested-loop join as in the paper's prototype.
pub const Q8: &str = r#"<q8>{
  for $p in /site/people/person return
    <item>{
      ($p/name,
       for $t in /site/closed_auctions/closed_auction return
         for $b in $t/buyer return
           if ($b/person = $p/id) then $t/price else ())
    }</item>
}</q8>"#;

/// XMark Q13 — "List the names of items registered in Australia along
/// with their descriptions."
pub const Q13: &str = r#"<q13>{
  for $i in /site/regions/australia/item return
    <item2>{ ($i/name, $i/description) }</item2>
}</q13>"#;

/// Q20 from the FluXQuery distribution \[7\] (income brackets), with the
/// counts replaced by outputting the incomes, single-pass so the query
/// streams with constant memory (matching the paper's measurements).
pub const Q20: &str = r#"<q20>{
  for $p in /site/people/person return
    ((for $f in $p/profile return
       (if ($f/income >= 100000) then <preferred>{ $f/income }</preferred> else (),
        if ($f/income < 100000 and $f/income >= 30000) then <standard>{ $f/income }</standard> else (),
        if ($f/income < 30000) then <challenge>{ $f/income }</challenge> else ())),
     if (not(exists($p/profile))) then <na>{ $p/name }</na> else ())
}</q20>"#;

/// All benchmark queries with their Table 1 labels.
pub const ALL: &[(&str, &str)] = &[
    ("Q1", Q1),
    ("Q6", Q6),
    ("Q8", Q8),
    ("Q13", Q13),
    ("Q20", Q20),
];

/// Looks a query up by its (case-insensitive) label.
pub fn by_name(name: &str) -> Option<&'static str> {
    ALL.iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|&(_, q)| q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_query::compile_default;
    use gcx_xml::TagInterner;

    #[test]
    fn all_queries_compile() {
        for (name, q) in ALL {
            let mut tags = TagInterner::new();
            compile_default(q, &mut tags)
                .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("q8").is_some());
        assert!(by_name("Q13").is_some());
        assert!(by_name("q99").is_none());
    }

    #[test]
    fn q6_uses_descendant_axis() {
        let mut tags = TagInterner::new();
        let c = compile_default(Q6, &mut tags).unwrap();
        let pretty = gcx_query::pretty_query(&c.original, &tags);
        assert!(pretty.contains("//item"), "got {pretty}");
    }

    /// The NC rule copies each of Q20's four `if`s to three places: 15
    /// leaf sites in the rewritten query, which lower to 5 shared leaves.
    #[test]
    fn q20_condition_sites_share_five_leaves() {
        let mut tags = TagInterner::new();
        let c = compile_default(Q20, &mut tags).unwrap();
        let mut sites = 0;
        c.rewritten.body.visit(&mut |e| {
            if let gcx_query::Expr::If { cond, .. } = e {
                cond.visit(&mut |cc| {
                    use gcx_query::Cond;
                    if matches!(cc, Cond::Exists { .. } | Cond::CmpStr { .. }) {
                        sites += 1;
                    }
                });
            }
        });
        assert_eq!((sites, c.program.leaf_count()), (15, 5));
    }

    #[test]
    fn q8_has_join_condition() {
        let mut tags = TagInterner::new();
        let c = compile_default(Q8, &mut tags).unwrap();
        let mut joins = 0;
        c.original.body.visit(&mut |e| {
            if let gcx_query::Expr::If { cond, .. } = e {
                cond.visit(&mut |cc| {
                    if matches!(cc, gcx_query::Cond::CmpVar { .. }) {
                        joins += 1;
                    }
                });
            }
        });
        assert_eq!(joins, 1);
    }

    #[test]
    fn q1_projection_uses_positional_witness() {
        let mut tags = TagInterner::new();
        let c = compile_default(Q1, &mut tags).unwrap();
        // Q1 has a comparison (id) — no exists, so no positional predicate.
        assert!(!c.projection.tree.has_positional());
    }

    #[test]
    fn q20_has_positional_witness() {
        let mut tags = TagInterner::new();
        let c = compile_default(Q20, &mut tags).unwrap();
        // not(exists($p/profile)) introduces a [position()=1] node.
        assert!(c.projection.tree.has_positional());
    }
}
