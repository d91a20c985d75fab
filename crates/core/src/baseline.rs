//! The in-memory DOM baseline engine.
//!
//! Models the Galax/Saxon/QizX class of systems from the paper's Table 1:
//! the entire input document is materialized as a DOM, then the query is
//! evaluated over it. Memory therefore grows linearly with the document.
//!
//! The DOM engine also serves as the **semantics oracle** for Theorem 1
//! differential testing: it evaluates the *original* (un-rewritten) query
//! with straightforward recursive semantics, sharing only the comparison
//! helper with the streaming engine.

use crate::engine::RunReport;
use crate::error::EngineError;
use crate::value::compare_values;
use gcx_buffer::BufferStats;
use gcx_query::{Axis, CompiledQuery, Cond, Expr, NodeTest, Step, VarId};
use gcx_xml::{Document, NodeId, TagInterner, XmlWriter};
use std::io::{Read, Write};
use std::time::Instant;

/// Parses the whole input into a DOM and evaluates the original query.
pub fn run_dom<R: Read, W: Write>(
    compiled: &CompiledQuery,
    tags: &mut TagInterner,
    input: R,
    output: W,
) -> Result<RunReport, EngineError> {
    let start = Instant::now();
    let doc = Document::parse(input, tags)?;
    let mut writer = XmlWriter::new(output);
    let query = &compiled.original;
    let mut eval = DomEval {
        doc: &doc,
        tags,
        bindings: vec![None; query.vars.len()],
    };
    eval.bindings[VarId::ROOT.index()] = Some(Document::ROOT);
    writer.open(query.root_tag, tags)?;
    eval.eval(&query.body, &mut writer)?;
    writer.close(query.root_tag, tags)?;
    writer.flush()?;
    let bytes = doc.approx_bytes();
    let nodes = doc.len();
    let stats = BufferStats {
        live_nodes: nodes,
        live_bytes: bytes,
        peak_nodes: nodes,
        peak_bytes: bytes,
        nodes_created: nodes as u64,
        ..Default::default()
    };
    Ok(RunReport {
        engine: "dom".into(),
        output_bytes: writer.bytes_written(),
        stats,
        elapsed: start.elapsed(),
        dfa_states: 0,
        tokens_read: 0,
        tokens_skipped: 0,
        bytes_skipped: 0,
        children_skipped: 0,
        block_skipped: 0,
        verdicts_reused: 0,
        safety: None,
        role_balance: Vec::new(),
        scan_kernel: gcx_xml::scan::kernel_name(),
    })
}

struct DomEval<'a> {
    doc: &'a Document,
    tags: &'a TagInterner,
    bindings: Vec<Option<NodeId>>,
}

impl<'a> DomEval<'a> {
    fn binding(&self, v: VarId) -> NodeId {
        self.bindings[v.index()].expect("variable in scope")
    }

    fn matches(&self, base: NodeId, step: Step) -> Vec<NodeId> {
        let candidates: Vec<NodeId> = match step.axis {
            Axis::Child => self.doc.children(base).to_vec(),
            Axis::Descendant => self.doc.descendants(base),
        };
        candidates
            .into_iter()
            .filter(|&n| match step.test {
                NodeTest::Tag(t) => self.doc.tag(n) == Some(t),
                NodeTest::Star => self.doc.tag(n).is_some(),
                NodeTest::Text => self.doc.is_text(n),
            })
            .collect()
    }

    fn write_node<W: Write>(&self, n: NodeId, w: &mut XmlWriter<W>) -> Result<(), EngineError> {
        Ok(self.doc.write_subtree(n, self.tags, w)?)
    }

    fn eval<W: Write>(&mut self, e: &Expr, w: &mut XmlWriter<W>) -> Result<(), EngineError> {
        match e {
            Expr::Empty => Ok(()),
            Expr::OpenTag(t) => {
                w.open(*t, self.tags)?;
                Ok(())
            }
            Expr::CloseTag(t) => {
                w.close(*t, self.tags)?;
                Ok(())
            }
            Expr::Element { tag, content } => {
                w.open(*tag, self.tags)?;
                self.eval(content, w)?;
                w.close(*tag, self.tags)?;
                Ok(())
            }
            Expr::Sequence(items) => {
                for i in items {
                    self.eval(i, w)?;
                }
                Ok(())
            }
            Expr::VarRef(v) => self.write_node(self.binding(*v), w),
            Expr::PathOutput { var, step } => {
                for n in self.matches(self.binding(*var), *step) {
                    self.write_node(n, w)?;
                }
                Ok(())
            }
            Expr::For {
                var,
                source,
                step,
                body,
            } => {
                for n in self.matches(self.binding(*source), *step) {
                    self.bindings[var.index()] = Some(n);
                    self.eval(body, w)?;
                }
                self.bindings[var.index()] = None;
                Ok(())
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval_cond(cond) {
                    self.eval(then_branch, w)
                } else {
                    self.eval(else_branch, w)
                }
            }
            Expr::SignOff { .. } => Ok(()), // oracle ignores buffer updates
        }
    }

    fn eval_cond(&self, c: &Cond) -> bool {
        match c {
            Cond::True => true,
            Cond::Exists { var, step } => !self.matches(self.binding(*var), *step).is_empty(),
            Cond::CmpStr {
                var,
                step,
                op,
                value,
            } => self
                .matches(self.binding(*var), *step)
                .iter()
                .any(|&n| compare_values(&self.doc.string_value(n), value, *op)),
            Cond::CmpVar {
                left_var,
                left_step,
                op,
                right_var,
                right_step,
            } => {
                let left = self.matches(self.binding(*left_var), *left_step);
                let right = self.matches(self.binding(*right_var), *right_step);
                left.iter().any(|&l| {
                    let lv = self.doc.string_value(l);
                    right
                        .iter()
                        .any(|&r| compare_values(&lv, &self.doc.string_value(r), *op))
                })
            }
            Cond::And(a, b) => self.eval_cond(a) && self.eval_cond(b),
            Cond::Or(a, b) => self.eval_cond(a) || self.eval_cond(b),
            Cond::Not(inner) => !self.eval_cond(inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_query::compile_default;

    fn dom_output(query: &str, doc: &str) -> String {
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).expect("compile");
        let mut out = Vec::new();
        run_dom(&compiled, &mut tags, doc.as_bytes(), &mut out).expect("run");
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn simple_query() {
        let out = dom_output(
            "<r>{ for $b in /bib/book return $b/title }</r>",
            "<bib><book><title>A</title></book><book><title>B</title></book></bib>",
        );
        assert_eq!(out, "<r><title>A</title><title>B</title></r>");
    }

    #[test]
    fn conditions_and_joins() {
        let out = dom_output(
            r#"<r>{ for $p in /db/p return for $s in /db/s return
                if ($s/ref = $p/id) then $p/name else () }</r>"#,
            "<db><p><id>1</id><name>A</name></p><s><ref>1</ref></s><s><ref>9</ref></s></db>",
        );
        assert_eq!(out, "<r><name>A</name></r>");
    }

    #[test]
    fn reports_document_footprint() {
        let mut tags = TagInterner::new();
        let compiled = compile_default("<r>{ for $x in /a/b return $x }</r>", &mut tags).unwrap();
        let mut out = Vec::new();
        let report = run_dom(
            &compiled,
            &mut tags,
            "<a><b/><b/><c/></a>".as_bytes(),
            &mut out,
        )
        .unwrap();
        assert_eq!(report.engine, "dom");
        assert!(report.stats.peak_bytes > 0);
        assert_eq!(report.stats.peak_nodes, 5, "root + a + b + b + c");
    }
}
