//! The rewritten query lowered to a flat program: what the evaluator runs.
//!
//! GCX evaluates the rewritten query in sequence and suspends whenever
//! the buffer manager must pull more input (paper §5, Fig. 11). An
//! evaluator holding references into the [`Expr`]/[`Cond`] trees would
//! borrow the query while suspended; a [`Program`] holds the same query
//! as flat arrays linked by `u32` ids (`Copy` expression and condition
//! ops, the AST's own `exists`/comparison leaves, signOff paths), so a
//! suspended engine holds ids and borrows nothing.
//!
//! Lowering also settles what evaluation would redo per execution: a
//! constructor `<a> q </a>` becomes the sequence `(<a>, q, </a>)`, a
//! sequence's items are consecutive ops, a `for` names its key filter
//! ([`crate::keyfilter`]), and an aggregate role's signOff path (paper
//! §6) drops its trailing `dos::node()`.
//!
//! Lowering also interns condition leaves: structurally equal `exists`
//! and comparison leaves share one [`LeafId`], wherever they occur. The
//! NC rule (paper Fig. 7) copies each `if` condition to the open tag,
//! every iteration of the output loop and the close tag, so Q20's 15 leaf
//! sites are 5 leaves; the evaluator decides each leaf once per binding
//! of its variables and reuses the verdict at the other sites.
//!
//! Lowering also marks *bind-and-emit* ops: the `$v` of a `for` whose
//! body is `($v, signOff($v/dos::node(), r))`, where `r` is the only role
//! in `$v`'s projection subtree. Such a binding's subtree is read by its
//! own emission alone, so the evaluator may write it to the output as it
//! arrives instead of buffering it ([`Op::VarRef`]).

use crate::ast::{Cond, Expr, Query, Step, VarId};
use crate::keyfilter::KeyFilter;
use crate::projection::Projection;
use gcx_projection::{PStep, PTest, Role};
use gcx_xml::TagId;
use std::ops::Index;

/// Index of an [`Op`] in a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpId(pub u32);

/// Index of a [`CondOp`] in a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CondId(pub u32);

/// Index of a signOff path (its steps) in a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathId(pub u32);

/// Index of a condition leaf (the AST's [`Cond`]) in a [`Program`]:
/// structurally equal leaves share one (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafId(pub u32);

/// One expression: an [`Expr`] whose children are ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `()`
    Empty,
    /// `<a>`, alone or first in a lowered constructor.
    OpenTag(TagId),
    /// `</a>`, alone or last in a lowered constructor.
    CloseTag(TagId),
    /// `(q, ..., q)`: the `len` ops from `first` on.
    Seq { first: OpId, len: u32 },
    /// `$x`. `Some(r)` marks a bind-and-emit op (module docs): the loop
    /// body is `($x, signOff($x/dos::node(), r))` and `r` is the only role
    /// in `$x`'s projection subtree.
    VarRef(VarId, Option<Role>),
    /// `$x/step`
    PathOutput(VarId, Step),
    /// `for $var in $source/step return body`; `filter` indexes
    /// [`crate::CompiledQuery::key_filters`] when the loop may run keyed.
    For {
        var: VarId,
        source: VarId,
        step: Step,
        body: OpId,
        filter: Option<u32>,
    },
    /// `if cond then q else q`
    If(CondId, OpId, OpId),
    /// `signOff($var/path, role)`; the path is `None` for ε, which signs
    /// the binding off at once instead of waiting for its subtree.
    SignOff(VarId, Option<PathId>, Role),
}

/// One condition: a [`Cond`] whose connectives hold ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CondOp {
    True,
    /// `exists` or a comparison: the AST node itself, shared by every site
    /// of a structurally equal leaf.
    Leaf(LeafId),
    And(CondId, CondId),
    Or(CondId, CondId),
    Not(CondId),
}

/// A rewritten query as flat arrays (module docs); read with
/// `program[id]`.
#[derive(Debug, Clone)]
pub struct Program {
    ops: Vec<Op>,
    conds: Vec<CondOp>,
    leaves: Vec<Cond>,
    paths: Vec<Vec<PStep>>,
    /// The query body `q` of `Q ::= <a> q </a>`.
    pub body: OpId,
    /// The output root `<a>`.
    pub root_tag: TagId,
    /// Number of variables, `$root` included.
    pub vars: usize,
}

impl Program {
    /// Lowers a rewritten query whose filterable loops are `key_filters`
    /// and whose projection is `projection`.
    pub(crate) fn lower(
        query: &Query,
        key_filters: &[KeyFilter],
        projection: &Projection,
    ) -> Program {
        let mut p = Program {
            ops: Vec::new(),
            conds: Vec::new(),
            leaves: Vec::new(),
            paths: Vec::new(),
            body: OpId(0),
            root_tag: query.root_tag,
            vars: query.vars.len(),
        };
        let body = p.op(&query.body, key_filters, projection);
        p.body = p.push(body);
        p
    }

    /// Number of distinct condition leaves: every [`LeafId`] is below it.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// The bind-and-emit ops (module docs), as `(variable, role)` pairs in
    /// program order.
    pub fn bind_and_emit(&self) -> impl Iterator<Item = (VarId, Role)> + '_ {
        self.ops.iter().filter_map(|op| match *op {
            Op::VarRef(v, Some(r)) => Some((v, r)),
            _ => None,
        })
    }

    fn push(&mut self, op: Op) -> OpId {
        self.ops.push(op);
        OpId(self.ops.len() as u32 - 1)
    }

    /// Lowers `e`'s children and returns its own op.
    fn op(&mut self, e: &Expr, key_filters: &[KeyFilter], projection: &Projection) -> Op {
        let child = |p: &mut Program, e: &Expr| {
            let op = p.op(e, key_filters, projection);
            p.push(op)
        };
        match e {
            Expr::Empty => Op::Empty,
            Expr::OpenTag(t) => Op::OpenTag(*t),
            Expr::CloseTag(t) => Op::CloseTag(*t),
            Expr::Element { tag, content } => {
                let items = [&Expr::OpenTag(*tag), &**content, &Expr::CloseTag(*tag)];
                self.seq(&items, key_filters, projection)
            }
            Expr::Sequence(items) => {
                self.seq(&items.iter().collect::<Vec<_>>(), key_filters, projection)
            }
            Expr::VarRef(v) => Op::VarRef(*v, None),
            Expr::PathOutput { var, step } => Op::PathOutput(*var, *step),
            Expr::For {
                var,
                source,
                step,
                body,
            } => {
                let body = child(self, body);
                if let Some((emit, role)) = self.bind_and_emit_body(*var, body, projection) {
                    self.ops[emit.0 as usize] = Op::VarRef(*var, Some(role));
                }
                Op::For {
                    var: *var,
                    source: *source,
                    step: *step,
                    body,
                    filter: key_filters
                        .iter()
                        .position(|f| f.loop_var == *var)
                        .map(|i| i as u32),
                }
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => Op::If(
                self.cond(cond),
                child(self, then_branch),
                child(self, else_branch),
            ),
            Expr::SignOff { var, path, role } => {
                let mut steps = path.steps.clone();
                if projection.aggregates.contains(role)
                    && steps.last().is_some_and(|s| s.test == PTest::AnyNode)
                {
                    steps.pop();
                }
                let path = (!path.is_empty()).then(|| {
                    self.paths.push(steps);
                    PathId(self.paths.len() as u32 - 1)
                });
                Op::SignOff(*var, path, *role)
            }
        }
    }

    /// A sequence whose items get consecutive ids: their slots are taken
    /// before the items' own children are lowered.
    fn seq(&mut self, items: &[&Expr], key_filters: &[KeyFilter], projection: &Projection) -> Op {
        let first = self.ops.len();
        self.ops.resize(first + items.len(), Op::Empty);
        for (i, item) in items.iter().enumerate() {
            self.ops[first + i] = self.op(item, key_filters, projection);
        }
        Op::Seq {
            first: OpId(first as u32),
            len: items.len() as u32,
        }
    }

    /// The emission op and the role `r` when the lowered body `body` of
    /// `for $var` is `($var, signOff($var/π, r))`, where `π` is
    /// `dos::node()` (ε once an aggregate role dropped it) and `$var`'s
    /// projection node has one child: the `dos::node()` leaf carrying `r`.
    fn bind_and_emit_body(
        &self,
        var: VarId,
        body: OpId,
        projection: &Projection,
    ) -> Option<(OpId, Role)> {
        let Op::Seq { first, len: 2 } = self[body] else {
            return None;
        };
        let (Op::VarRef(v, None), Op::SignOff(s, Some(path), role)) =
            (self[first], self[OpId(first.0 + 1)])
        else {
            return None;
        };
        let tree = &projection.tree;
        let &[d] = tree.children(projection.var_node[var.index()]) else {
            return None;
        };
        let leaf = tree.node(d);
        let shape = v == var
            && s == var
            && self[path].len() <= 1
            && self[path].iter().all(|&step| step == PStep::dos_node())
            && leaf.step == PStep::dos_node()
            && leaf.children.is_empty()
            && leaf.role == Some(role);
        shape.then_some((first, role))
    }

    fn cond(&mut self, c: &Cond) -> CondId {
        let op = match c {
            Cond::True => CondOp::True,
            Cond::And(a, b) => CondOp::And(self.cond(a), self.cond(b)),
            Cond::Or(a, b) => CondOp::Or(self.cond(a), self.cond(b)),
            Cond::Not(inner) => CondOp::Not(self.cond(inner)),
            leaf => {
                let id = match self.leaves.iter().position(|l| l == leaf) {
                    Some(i) => i,
                    None => {
                        self.leaves.push(leaf.clone());
                        self.leaves.len() - 1
                    }
                };
                CondOp::Leaf(LeafId(id as u32))
            }
        };
        self.conds.push(op);
        CondId(self.conds.len() as u32 - 1)
    }
}

impl Index<OpId> for Program {
    type Output = Op;
    fn index(&self, id: OpId) -> &Op {
        &self.ops[id.0 as usize]
    }
}

impl Index<CondId> for Program {
    type Output = CondOp;
    fn index(&self, id: CondId) -> &CondOp {
        &self.conds[id.0 as usize]
    }
}

impl Index<LeafId> for Program {
    type Output = Cond;
    fn index(&self, id: LeafId) -> &Cond {
        &self.leaves[id.0 as usize]
    }
}

impl Index<PathId> for Program {
    type Output = [PStep];
    fn index(&self, id: PathId) -> &[PStep] {
        &self.paths[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile_default;
    use gcx_xml::TagInterner;

    /// A constructor lowers to `(<a>, q, </a>)` with consecutive items,
    /// and the body of a `for` is reachable by id.
    #[test]
    fn constructors_lower_to_consecutive_sequences() {
        let mut tags = TagInterner::new();
        let c = compile_default(
            "<r>{ for $b in /bib/book return <e>{ $b }</e> }</r>",
            &mut tags,
        )
        .unwrap();
        let p = &c.program;
        assert_eq!(p.root_tag, tags.get("r").unwrap());
        let mut body = p[p.body];
        // The rewriting wraps the loop into single-step loops; find the
        // innermost `for`'s body.
        while let Op::For { body: b, .. } | Op::Seq { first: b, .. } = body {
            body = p[b];
            if let Op::Seq { first, len: 3 } = body {
                let e = tags.get("e").unwrap();
                assert_eq!(p[first], Op::OpenTag(e));
                assert_eq!(p[OpId(first.0 + 2)], Op::CloseTag(e));
                return;
            }
        }
        panic!("no lowered constructor in {p:?}");
    }

    /// The NC rule copies an `if` around a constructor to its open tag,
    /// every output iteration and its close tag: its leaf sites share one
    /// leaf, and leaves over different variables or values stay apart.
    #[test]
    fn equal_condition_leaves_share_one_id() {
        let leaves = |q: &str| {
            let mut tags = TagInterner::new();
            let c = compile_default(q, &mut tags).unwrap();
            let p = &c.program;
            let sites = p
                .conds
                .iter()
                .filter(|c| matches!(c, CondOp::Leaf(_)))
                .count();
            (sites, p.leaf_count())
        };
        let nc = "<r>{ for $a in /r/a return if ($a/c = \"1\") then <x>{ $a/d }</x> else () }</r>";
        assert_eq!(leaves(nc), (3, 1));
        let q = "<r>{ for $a in /r/a return for $b in /r/b return \
                 (if ($a/c = \"1\") then <x/> else (), if ($b/c = \"1\") then <y/> else (), \
                  if ($a/c = \"2\") then <z/> else ()) }</r>";
        assert_eq!(leaves(q), (3, 3));
    }

    /// `for $i in $b//item return $i` is bind-and-emit (its aggregate
    /// role's signOff path is ε once lowered); a body that also reads
    /// `$i/c`, or emits something else beside `$i`, is not.
    #[test]
    fn bind_and_emit_marks_only_the_copy_shape() {
        let marks = |q: &str| {
            let mut tags = TagInterner::new();
            let c = compile_default(q, &mut tags).unwrap();
            c.program
                .bind_and_emit()
                .map(|(v, r)| format!("${} {r}", c.rewritten.vars.name(v)))
                .collect::<Vec<_>>()
        };
        let copy = "<o>{ for $b in /site/regions return for $i in $b//item return $i }</o>";
        assert_eq!(marks(copy), ["$i r3"]);
        assert_eq!(marks("<o>{ for $i in /a/b return $i }</o>").len(), 1);
        // `$i/c` lowers to a loop of its own, bind-and-emit in turn.
        assert_eq!(
            marks("<o>{ for $i in /a/b return ($i, $i/c) }</o>"),
            ["$out r4"]
        );
        assert_eq!(
            marks("<o>{ for $i in /a/b return ($i, <x/>) }</o>"),
            Vec::<String>::new()
        );
    }
}
