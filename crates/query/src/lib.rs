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
//! * [`pipeline`] — [`compile`] bundling everything into a
//!   [`CompiledQuery`].

pub mod ast;
pub mod deps;
pub mod ifpush;
pub mod keyfilter;
pub mod lexer;
pub mod optimize;
pub mod parser;
pub mod pipeline;
pub mod pretty;
pub mod projection;
pub mod signoff;
pub mod vartree;

pub use ast::{Axis, Cond, Expr, NodeTest, Query, RelOp, Step, VarId, VarTable};
pub use deps::{DepEntry, DepKind, DepTable};
pub use keyfilter::KeyFilter;
pub use parser::{parse, ParseError};
pub use pipeline::{compile, compile_default, CompileError, CompileOptions, CompiledQuery};
pub use pretty::{pretty_expr, pretty_query};
pub use projection::Projection;
pub use vartree::{analyze, VarAnalysis};
