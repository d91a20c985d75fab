//! Pretty-printing of XQ queries in the paper's notation.
//!
//! Surface queries round-trip: `parse(pretty(q))` equals `q` structurally.
//! Rewritten queries additionally render `signOff($x/π, r)` statements and
//! the split tags produced by the NC rule; those forms are print-only.

use crate::ast::{Axis, Cond, Expr, NodeTest, Query, Step, VarTable};
use gcx_xml::TagInterner;
use std::fmt::Write as _;

/// Renders a complete query on one line.
pub fn pretty_query(q: &Query, tags: &TagInterner) -> String {
    let mut s = String::new();
    let _ = write!(s, "<{}> {{ ", tags.name(q.root_tag));
    pretty_expr(&q.body, &q.vars, tags, &mut s);
    let _ = write!(s, " }} </{}>", tags.name(q.root_tag));
    s
}

/// Renders an expression.
pub fn pretty_expr(e: &Expr, vars: &VarTable, tags: &TagInterner, out: &mut String) {
    match e {
        Expr::Empty => out.push_str("()"),
        Expr::Element { tag, content } => {
            if matches!(content.as_ref(), Expr::Empty) {
                let _ = write!(out, "<{}/>", tags.name(*tag));
            } else {
                let _ = write!(out, "<{}> {{ ", tags.name(*tag));
                pretty_expr(content, vars, tags, out);
                let _ = write!(out, " }} </{}>", tags.name(*tag));
            }
        }
        Expr::VarRef(v) => {
            let _ = write!(out, "${}", vars.name(*v));
        }
        Expr::PathOutput { var, step } => {
            let _ = write!(out, "${}", vars.name(*var));
            push_step(*step, tags, out);
        }
        Expr::Sequence(items) => {
            out.push('(');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                pretty_expr(item, vars, tags, out);
            }
            out.push(')');
        }
        Expr::For {
            var,
            source,
            step,
            body,
        } => {
            let _ = write!(out, "for ${} in ${}", vars.name(*var), vars.name(*source));
            push_step(*step, tags, out);
            out.push_str(" return ");
            pretty_wrapped(body, vars, tags, out);
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            out.push_str("if (");
            pretty_cond(cond, vars, tags, out);
            out.push_str(") then ");
            pretty_wrapped(then_branch, vars, tags, out);
            out.push_str(" else ");
            pretty_wrapped(else_branch, vars, tags, out);
        }
        Expr::OpenTag(t) => {
            let _ = write!(out, "<{}>", tags.name(*t));
        }
        Expr::CloseTag(t) => {
            let _ = write!(out, "</{}>", tags.name(*t));
        }
        Expr::SignOff { var, path, role } => {
            let _ = write!(out, "signOff(${}", vars.name(*var));
            for s in &path.steps {
                match s.axis {
                    gcx_projection::PAxis::Child => {
                        let _ = write!(out, "/{}", s.display_test(tags));
                    }
                    gcx_projection::PAxis::Descendant => {
                        let _ = write!(out, "//{}", s.display_test(tags));
                    }
                    gcx_projection::PAxis::DescendantOrSelf => {
                        let _ = write!(out, "/{}", s.display(tags));
                    }
                }
            }
            let _ = write!(out, ", {role})");
        }
    }
}

/// Sub-expressions of for/if get parentheses when they are sequences, so
/// the output re-parses unambiguously.
fn pretty_wrapped(e: &Expr, vars: &VarTable, tags: &TagInterner, out: &mut String) {
    match e {
        Expr::Sequence(_) => pretty_expr(e, vars, tags, out),
        Expr::For { .. } | Expr::If { .. } => {
            out.push('(');
            pretty_expr(e, vars, tags, out);
            out.push(')');
        }
        _ => pretty_expr(e, vars, tags, out),
    }
}

pub(crate) fn push_step(step: Step, tags: &TagInterner, out: &mut String) {
    match step.axis {
        Axis::Child => out.push('/'),
        Axis::Descendant => out.push_str("//"),
    }
    match step.test {
        NodeTest::Tag(t) => out.push_str(tags.name(t)),
        NodeTest::Star => out.push('*'),
        NodeTest::Text => out.push_str("text()"),
    }
}

/// Renders a condition.
pub fn pretty_cond(c: &Cond, vars: &VarTable, tags: &TagInterner, out: &mut String) {
    match c {
        Cond::True => out.push_str("true()"),
        Cond::Exists { var, step } => {
            let _ = write!(out, "exists(${}", vars.name(*var));
            push_step(*step, tags, out);
            out.push(')');
        }
        Cond::CmpStr {
            var,
            step,
            op,
            value,
        } => {
            let _ = write!(out, "${}", vars.name(*var));
            push_step(*step, tags, out);
            let _ = write!(out, " {} \"{}\"", op.symbol(), value);
        }
        Cond::CmpVar {
            left_var,
            left_step,
            op,
            right_var,
            right_step,
        } => {
            let _ = write!(out, "${}", vars.name(*left_var));
            push_step(*left_step, tags, out);
            let _ = write!(out, " {} ", op.symbol());
            let _ = write!(out, "${}", vars.name(*right_var));
            push_step(*right_step, tags, out);
        }
        Cond::And(a, b) => {
            pretty_cond_nested(a, vars, tags, out);
            out.push_str(" and ");
            pretty_cond_nested(b, vars, tags, out);
        }
        Cond::Or(a, b) => {
            pretty_cond_nested(a, vars, tags, out);
            out.push_str(" or ");
            pretty_cond_nested(b, vars, tags, out);
        }
        Cond::Not(inner) => {
            out.push_str("not(");
            pretty_cond(inner, vars, tags, out);
            out.push(')');
        }
    }
}

fn pretty_cond_nested(c: &Cond, vars: &VarTable, tags: &TagInterner, out: &mut String) {
    match c {
        Cond::And(..) | Cond::Or(..) => {
            out.push('(');
            pretty_cond(c, vars, tags, out);
            out.push(')');
        }
        _ => pretty_cond(c, vars, tags, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use gcx_xml::TagInterner;

    fn roundtrip(input: &str) {
        let mut tags = TagInterner::new();
        let q1 = parse(input, &mut tags).expect("first parse");
        let printed = pretty_query(&q1, &tags);
        let mut tags2 = TagInterner::new();
        let q2 = parse(&printed, &mut tags2).unwrap_or_else(|e| {
            panic!("reparse of {printed:?} failed: {e}");
        });
        let printed2 = pretty_query(&q2, &tags2);
        assert_eq!(printed, printed2, "pretty output is a fixpoint");
    }

    #[test]
    fn roundtrips() {
        roundtrip("<r/>");
        roundtrip("<r>{ for $x in /a return $x }</r>");
        roundtrip(
            r#"<r> {
            for $bib in /bib return
            ((for $x in $bib/* return
               if (not(exists($x/price))) then $x else ()),
             for $b in $bib/book return $b/title)
        } </r>"#,
        );
        roundtrip(r#"<q>{ for $a in //a return <a>{ for $b in //b return <b/> }</a> }</q>"#);
        roundtrip(
            r#"<r>{ for $x in /a return
            if ($x/b = "1" and (not($x/c = "2") or true())) then $x else () }</r>"#,
        );
        roundtrip("<r>{ for $x in //item return ($x/name, $x/text()) }</r>");
    }

    #[test]
    fn prints_intro_style() {
        let mut tags = TagInterner::new();
        let q = parse(
            "<r>{ for $bib in /bib return for $b in $bib/book return $b/title }</r>",
            &mut tags,
        )
        .unwrap();
        let s = pretty_query(&q, &tags);
        assert_eq!(
            s,
            "<r> { for $bib in $root/bib return (for $b in $bib/book return $b/title) } </r>"
        );
    }

    #[test]
    fn signoff_rendering() {
        use gcx_projection::{PStep, PTest, Pred, RelPath, Role};
        let mut tags = TagInterner::new();
        let price = tags.intern("price");
        let mut vars = VarTable::new();
        let x = vars.fresh("x");
        let mut out = String::new();
        pretty_expr(
            &Expr::SignOff {
                var: x,
                path: RelPath::empty(),
                role: Role(3),
            },
            &vars,
            &tags,
            &mut out,
        );
        assert_eq!(out, "signOff($x, r3)");
        out.clear();
        pretty_expr(
            &Expr::SignOff {
                var: x,
                path: RelPath::single(PStep::with_pred(
                    gcx_projection::PAxis::Child,
                    PTest::Tag(price),
                    Pred::First,
                )),
                role: Role(4),
            },
            &vars,
            &tags,
            &mut out,
        );
        assert_eq!(out, "signOff($x/price[1], r4)");
    }
}
