//! # gcx-query — the XQ fragment and GCX's static analysis
//!
//! Implements §3/§4/§6 of the paper:
//!
//! * [`ast`] — the XQ fragment (Fig. 6): nested for-loops, conditions with
//!   existence checks, string comparisons and joins, element construction.
//! * [`parser`]/[`lexer`] — a surface-syntax frontend with the paper's
//!   normalizations (absolute paths, multi-step paths → nested single-step
//!   loops, `where` → `if`).
//! * [`ifpush`] — the DECOMP/SEQ/NC/FOR rewriting of Fig. 7.
//! * [`vartree`] — variable trees, straight variables, first straight
//!   ancestors (Defs. 3/4).
//! * [`deps`] — dependencies `⟨$x/π, r⟩` and role allocation (Def. 2).
//! * [`signoff`] — the `suQ` rewriting of Fig. 8.
//! * [`projection`] — projection-tree derivation (§4, Fig. 1).
//! * [`keyfilter`] — equality-join loops the evaluator may key-filter.
//! * [`optimize`] — early updates and redundant-role elimination (§6).
//! * [`program`] — the rewritten query lowered to a flat [`Program`] of
//!   `Copy` ops linked by `u32` ids, which the evaluator's suspended
//!   frames index instead of borrowing the query.
//! * [`pipeline`] — [`compile`] bundling everything into a
//!   [`CompiledQuery`].

#![forbid(unsafe_code)]

pub mod ast;
pub mod deps;
pub mod ifpush;
pub mod keyfilter;
pub mod lexer;
pub mod optimize;
pub mod parser;
pub mod pipeline;
pub mod pretty;
pub mod program;
pub mod projection;
pub mod signoff;
pub mod vartree;

pub use ast::{Axis, Cond, Expr, NodeTest, Query, RelOp, Step, VarId, VarTable};
pub use deps::{DepEntry, DepKind, DepTable};
pub use keyfilter::KeyFilter;
pub use parser::{parse, ParseError};
pub use pipeline::{compile, compile_default, CompileError, CompileOptions, CompiledQuery};
pub use pretty::{pretty_expr, pretty_query};
pub use program::{CondId, CondOp, LeafId, Op, OpId, PathId, Program};
pub use projection::Projection;
pub use vartree::{analyze, VarAnalysis};
