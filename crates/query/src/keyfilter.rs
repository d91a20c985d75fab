//! Key pre-filters for re-entered equality joins.
//!
//! A nested-loop join such as XMark Q8 re-enters its inner loop once per
//! outer binding, and almost every inner iteration ends in a false
//! comparison. This pass marks the rewritten loops whose iterations can
//! only have an effect through one equality comparison against a value
//! from *outside* the loop:
//!
//! ```text
//! for $t in $s/step return BODY
//! ```
//!
//! is *filterable* when
//!
//! * BODY consists only of sequences, nested `for`s whose sources are `$t`
//!   or variables bound inside BODY, and exactly one
//!   `if (A = B) then X else ()` (no `signOff`, no output outside it);
//! * one operand (the *inner* one) ranges over a variable bound by the
//!   loop or inside BODY, the other (the *outer* one) over a variable
//!   bound by an enclosing `for`.
//!
//! An iteration whose inner-operand values share no equality key with the
//! outer operand's values then produces no output and changes no role, so
//! the evaluator may skip it (`gcx_core`'s join index). The loop's base
//! must not be derived from the outer operand's variable, so every
//! binding of that variable re-enters the loop over the same base nodes.
//!
//! This pass says where filtering is *sound*, and marks every qualifying
//! loop of a nest: in Q8 the rewriting's single-binding
//! `for $tmp_3 in $root/site` and `for $tmp_4 in $tmp_3/closed_auctions`
//! qualify as well as `for $t`. Where it *pays* depends on the data — how
//! many bindings a base has, how many a key selects — so the evaluator
//! decides that per entry. The result is a side table on
//! [`crate::CompiledQuery`]; the query itself is unchanged.

use crate::ast::{Cond, Expr, Query, RelOp, Step, VarId, VarTable};
use crate::pretty::push_step;
use gcx_xml::TagInterner;

/// One filterable loop (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct KeyFilter {
    /// The filtered loop's variable (`$t`).
    pub loop_var: VarId,
    /// Source steps of the nested loops from `$t` down to the inner
    /// operand's variable, outermost first (empty when that variable is
    /// `$t` itself).
    pub inner_chain: Vec<Step>,
    /// The inner operand `$b/person`: its variable and step.
    pub inner_var: VarId,
    pub inner_step: Step,
    /// The outer operand `$p/id`, bound by an enclosing loop.
    pub outer_var: VarId,
    pub outer_step: Step,
}

impl KeyFilter {
    /// `for $t keyed by $b/person = $p/id` (the `gcx --plan` line).
    pub fn describe(&self, vars: &VarTable, tags: &TagInterner) -> String {
        let mut s = format!(
            "for ${} keyed by ${}",
            vars.name(self.loop_var),
            vars.name(self.inner_var)
        );
        push_step(self.inner_step, tags, &mut s);
        s.push_str(" = $");
        s.push_str(vars.name(self.outer_var));
        push_step(self.outer_step, tags, &mut s);
        s
    }
}

/// Finds the filterable loops of a rewritten query, in document order.
pub fn find_key_filters(q: &Query) -> Vec<KeyFilter> {
    let mut out = Vec::new();
    walk(&q.body, &mut Vec::new(), &mut out);
    out
}

/// Records the filters inside `e`, where `env` lists the enclosing loops
/// as `(var, source)`.
fn walk(e: &Expr, env: &mut Vec<(VarId, VarId)>, out: &mut Vec<KeyFilter>) {
    match e {
        Expr::Element { content, .. } => walk(content, env, out),
        Expr::Sequence(items) => items.iter().for_each(|i| walk(i, env, out)),
        Expr::If {
            then_branch,
            else_branch,
            ..
        } => {
            walk(then_branch, env, out);
            walk(else_branch, env, out);
        }
        Expr::For {
            var, source, body, ..
        } => {
            if let Some(f) = analyze(*var, body) {
                if base_outlives_outer(*source, f.outer_var, env) {
                    out.push(f);
                }
            }
            env.push((*var, *source));
            walk(body, env, out);
            env.pop();
        }
        _ => {}
    }
}

/// True when the loop's base (`source`) is bound without going through
/// `outer`: every `outer` binding then re-enters the loop over the same
/// base nodes, which is what makes a cached index pay. A base derived
/// from `outer` would be new per binding, its index built and pinned
/// for nothing.
fn base_outlives_outer(source: VarId, outer: VarId, env: &[(VarId, VarId)]) -> bool {
    if !env.iter().any(|&(v, _)| v == outer) {
        return false;
    }
    let mut at = source;
    while at != VarId::ROOT {
        if at == outer {
            return false;
        }
        match env.iter().rev().find(|&&(v, _)| v == at) {
            Some(&(_, s)) => at = s,
            None => return false,
        }
    }
    true
}

/// What the body scan collected: the loops bound inside BODY as
/// `(var, source, step)` and the one comparison.
struct BodyScan<'a> {
    bound: Vec<(VarId, VarId, Step)>,
    cmp: Option<&'a Cond>,
}

fn analyze(loop_var: VarId, body: &Expr) -> Option<KeyFilter> {
    let mut scan = BodyScan {
        bound: Vec::new(),
        cmp: None,
    };
    scan_body(loop_var, body, &mut scan)?;
    let Some(&Cond::CmpVar {
        left_var,
        left_step,
        op: RelOp::Eq,
        right_var,
        right_step,
    }) = scan.cmp
    else {
        return None;
    };
    let inside = |v: VarId| v == loop_var || scan.bound.iter().any(|&(b, _, _)| b == v);
    let ((inner_var, inner_step), (outer_var, outer_step)) =
        match (inside(left_var), inside(right_var)) {
            (true, false) => ((left_var, left_step), (right_var, right_step)),
            (false, true) => ((right_var, right_step), (left_var, left_step)),
            _ => return None,
        };
    // `$root` is bound once: a loop keyed on it is never re-entered by
    // the operand's loop, so there is nothing to filter.
    if outer_var == VarId::ROOT {
        return None;
    }
    let mut inner_chain = Vec::new();
    let mut at = inner_var;
    while at != loop_var {
        let &(_, source, step) = scan.bound.iter().find(|&&(b, _, _)| b == at)?;
        inner_chain.push(step);
        at = source;
    }
    inner_chain.reverse();
    Some(KeyFilter {
        loop_var,
        inner_chain,
        inner_var,
        inner_step,
        outer_var,
        outer_step,
    })
}

/// Checks BODY's shape (module docs), collecting into `scan`.
fn scan_body<'a>(loop_var: VarId, e: &'a Expr, scan: &mut BodyScan<'a>) -> Option<()> {
    match e {
        Expr::Empty => Some(()),
        Expr::Sequence(items) => items.iter().try_for_each(|i| scan_body(loop_var, i, scan)),
        Expr::For {
            var,
            source,
            step,
            body,
        } => {
            let bound_inside =
                *source == loop_var || scan.bound.iter().any(|&(b, _, _)| b == *source);
            if !bound_inside {
                return None;
            }
            scan.bound.push((*var, *source, *step));
            scan_body(loop_var, body, scan)
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            if scan.cmp.is_some() || **else_branch != Expr::Empty || has_effects(then_branch) {
                return None;
            }
            scan.cmp = Some(cond);
            Some(())
        }
        _ => None,
    }
}

/// True when `e` holds a loop or a `signOff` (rewriting keeps both out of
/// `if` branches; checked rather than assumed).
fn has_effects(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |x| found |= matches!(x, Expr::For { .. } | Expr::SignOff { .. }));
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile_default;

    fn filters(query: &str) -> Vec<String> {
        let mut tags = TagInterner::new();
        let c = compile_default(query, &mut tags).expect("compiles");
        c.key_filters
            .iter()
            .map(|f| f.describe(&c.rewritten.vars, &tags))
            .collect()
    }

    const Q8: &str = r#"<q8>{ for $p in /site/people/person return
        <item>{ ($p/name, for $t in /site/closed_auctions/closed_auction return
           for $b in $t/buyer return
             if ($b/person = $p/id) then $t/price else ()) }</item> }</q8>"#;

    #[test]
    fn q8_marks_the_auction_nest() {
        assert_eq!(
            filters(Q8),
            [
                "for $tmp_3 keyed by $b/person = $p/id",
                "for $tmp_4 keyed by $b/person = $p/id",
                "for $t keyed by $b/person = $p/id",
            ]
        );
    }

    #[test]
    fn operands_may_come_in_either_order() {
        let q = r#"<r>{ for $p in /db/p return for $s in /db/s return
            if ($p/id = $s/buyer) then $s/item else () }</r>"#;
        assert_eq!(
            filters(q),
            [
                "for $tmp_2 keyed by $s/buyer = $p/id",
                "for $s keyed by $s/buyer = $p/id"
            ]
        );
    }

    #[test]
    fn near_misses_are_rejected() {
        for q in [
            // not an equality
            r#"<r>{ for $p in /db/p return for $s in /db/s return
                if ($s/buyer != $p/id) then $s/item else () }</r>"#,
            r#"<r>{ for $p in /db/p return for $s in /db/s return
                if ($s/buyer < $p/id) then $s/item else () }</r>"#,
            // output outside the if
            r#"<r>{ for $p in /db/p return for $s in /db/s return
                ($s/item, if ($s/buyer = $p/id) then $s/item else ()) }</r>"#,
            // both operands inside the loop
            r#"<r>{ for $p in /db/p return for $s in /db/s return
                if ($s/buyer = $s/seller) then $s/item else () }</r>"#,
            // keyed on $root: never re-entered
            r#"<r>{ for $s in /db/s return
                if ($s/buyer = $root/db) then $s/item else () }</r>"#,
            // the loop's base depends on the outer variable
            r#"<r>{ for $p in /db/p return for $s in $p/s return
                if ($s/buyer = $p/id) then $s/item else () }</r>"#,
            r#"<r>{ for $p in /db/p return for $q in $p/q return for $s in $q/s return
                if ($s/buyer = $p/id) then $s/item else () }</r>"#,
            // inner loop sourced outside the filtered loop
            r#"<r>{ for $p in /db/p return for $s in /db/s return
                for $q in $p/q return if ($s/buyer = $p/id) then $s/item else () }</r>"#,
        ] {
            assert_eq!(filters(q), Vec::<String>::new(), "{q}");
        }
    }

    #[test]
    fn plain_q8_marks_the_whole_nest() {
        // Without the §6 optimizations the `if` is not pushed below
        // `for $b`, so `$b`'s loop qualifies as well.
        let mut tags = TagInterner::new();
        let c = crate::compile(Q8, &mut tags, crate::CompileOptions::plain()).unwrap();
        let got: Vec<String> = c
            .key_filters
            .iter()
            .map(|f| f.describe(&c.rewritten.vars, &tags))
            .collect();
        assert_eq!(
            got[2..],
            [
                "for $t keyed by $b/person = $p/id",
                "for $b keyed by $b/person = $p/id"
            ]
        );
    }

    #[test]
    fn signoff_in_body_is_rejected() {
        // The rewriting hoists a join's signOffs past the outer loop, so
        // no query text puts one in BODY: plant one in Q8's plan.
        fn plant(e: &mut Expr, target: VarId) {
            match e {
                Expr::For { var, body, .. } if *var == target => {
                    let old = std::mem::replace(&mut **body, Expr::Empty);
                    **body = Expr::Sequence(vec![
                        old,
                        Expr::SignOff {
                            var: target,
                            path: gcx_projection::RelPath::empty(),
                            role: gcx_projection::Role(0),
                        },
                    ]);
                }
                Expr::For { body, .. } | Expr::Element { content: body, .. } => plant(body, target),
                Expr::Sequence(items) => items.iter_mut().for_each(|i| plant(i, target)),
                _ => {}
            }
        }
        let mut tags = TagInterner::new();
        let c = compile_default(Q8, &mut tags).unwrap();
        let t = c.key_filters.last().expect("Q8 has filters").loop_var;
        let mut q = c.rewritten.clone();
        plant(&mut q.body, t);
        assert!(find_key_filters(&q).is_empty());
    }
}
