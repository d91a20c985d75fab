//! End-to-end query compilation: parse → early updates → analysis →
//! redundant-role elimination → if-pushdown → signOff insertion →
//! projection-tree derivation.
//!
//! The output bundles everything the engines need: the normalized query
//! for oracle evaluation, the rewritten query and its flat program for
//! GCX, the projection tree, and the role catalog.

use crate::ast::Query;
use crate::deps::{collect_deps, DepTable};
use crate::ifpush::{no_for_under_if, push_ifs};
use crate::keyfilter::{find_key_filters, KeyFilter};
use crate::optimize::{early_updates, eliminate_redundant_roles};
use crate::parser::{parse, ParseError};
use crate::program::Program;
use crate::projection::{build_projection, Projection};
use crate::signoff::{insert_signoffs, no_signoff_under_if};
use crate::vartree::{analyze, AnalysisError, VarAnalysis};
use gcx_projection::RoleCatalog;
use gcx_xml::TagInterner;
use std::fmt;

/// Compilation options (the §6 optimizations and the practical if-pushdown
/// mode). Defaults match the paper's prototype: "implemented exactly as
/// described in this paper", i.e. all optimizations of §6 enabled.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// §6 "Early Updates".
    pub early_updates: bool,
    /// §6 "Elimination of Redundant Roles".
    pub redundant_role_elimination: bool,
    /// §6 "Aggregate Roles".
    pub aggregate_roles: bool,
    /// §3 "In practice, we might decide to process only those
    /// if-expressions with a for-loop as a subexpression."
    pub practical_ifpush: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            early_updates: true,
            redundant_role_elimination: true,
            aggregate_roles: true,
            practical_ifpush: true,
        }
    }
}

impl CompileOptions {
    /// Everything off — the unoptimized §4/§5 pipeline.
    pub fn plain() -> Self {
        CompileOptions {
            early_updates: false,
            redundant_role_elimination: false,
            aggregate_roles: false,
            practical_ifpush: true,
        }
    }
}

/// Compilation errors.
#[derive(Debug)]
pub enum CompileError {
    Parse(ParseError),
    Analysis(AnalysisError),
    /// An internal rewriting postcondition failed (bug).
    Internal(&'static str),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Analysis(e) => write!(f, "{e}"),
            CompileError::Internal(s) => write!(f, "internal compiler error: {s}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<AnalysisError> for CompileError {
    fn from(e: AnalysisError) -> Self {
        CompileError::Analysis(e)
    }
}

/// A fully compiled query.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The normalized query as parsed (oracle semantics; no signOffs).
    pub original: Query,
    /// The rewritten query: if-pushed, with signOff statements.
    pub rewritten: Query,
    /// `rewritten` lowered to flat ops: what the GCX evaluator runs.
    pub program: Program,
    /// The projection artifacts (tree, per-variable nodes, aggregates).
    pub projection: Projection,
    /// Role catalog (origins for tracing).
    pub roles: RoleCatalog,
    /// Variable analysis (tree, straightness, fsa).
    pub analysis: VarAnalysis,
    /// Dependency table (with post-elimination var roles).
    pub deps: DepTable,
    /// The options used.
    pub options: CompileOptions,
    /// Loops of `rewritten` the evaluator may run over an equality-key
    /// index (see [`crate::keyfilter`]).
    pub key_filters: Vec<KeyFilter>,
}

/// Compiles a query with the given options.
pub fn compile(
    source: &str,
    tags: &mut TagInterner,
    options: CompileOptions,
) -> Result<CompiledQuery, CompileError> {
    let original = parse(source, tags)?;
    let mut work = original.clone();
    if options.early_updates {
        early_updates(&mut work);
    }
    let analysis = analyze(&work)?;
    let mut roles = RoleCatalog::new();
    let mut deps = collect_deps(&work, tags, &mut roles);
    if options.redundant_role_elimination {
        eliminate_redundant_roles(&work, &analysis, &mut deps);
    }
    work.body = push_ifs(work.body, options.practical_ifpush);
    if !no_for_under_if(&work.body) {
        return Err(CompileError::Internal("if-pushdown left a for under an if"));
    }
    let rewritten = insert_signoffs(&work, &analysis, &deps);
    if !no_signoff_under_if(&rewritten.body) {
        return Err(CompileError::Internal("a signOff ended up under an if"));
    }
    let projection = build_projection(&analysis, &deps, options.aggregate_roles);
    let key_filters = find_key_filters(&rewritten);
    let program = Program::lower(&rewritten, &key_filters, &projection);
    Ok(CompiledQuery {
        original,
        rewritten,
        program,
        projection,
        roles,
        analysis,
        deps,
        options,
        key_filters,
    })
}

/// Compiles with default options.
pub fn compile_default(
    source: &str,
    tags: &mut TagInterner,
) -> Result<CompiledQuery, CompileError> {
    compile(source, tags, CompileOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty::pretty_query;

    const INTRO: &str = r#"<r>{ for $bib in /bib return
      ((for $x in $bib/* return if (not(exists($x/price))) then $x else ()),
       for $b in $bib/book return $b/title) }</r>"#;

    #[test]
    fn compile_intro_default() {
        let mut tags = TagInterner::new();
        let c = compile_default(INTRO, &mut tags).expect("compiles");
        // Early updates add one variable ($out) for $b/title.
        assert!(c.rewritten.vars.len() > c.original.vars.len());
        // Projection tree exists and has roles.
        assert!(c.projection.tree.len() > 4);
        // With redundant-role elimination, $x and $b lose their roles.
        let s = pretty_query(&c.rewritten, &tags);
        assert!(!s.contains("signOff($x, "), "r3-style update gone: {s}");
        assert!(s.contains("signOff($bib, "), "$bib keeps its update: {s}");
    }

    /// Fig. 12: with redundant roles eliminated, strictly fewer roles are
    /// assigned than in the plain pipeline.
    #[test]
    fn fig12_fewer_roles_with_elimination() {
        let mut tags = TagInterner::new();
        let plain = compile(INTRO, &mut tags, CompileOptions::plain()).unwrap();
        let mut tags2 = TagInterner::new();
        let opt = compile(INTRO, &mut tags2, CompileOptions::default()).unwrap();
        let count_roles = |c: &CompiledQuery| {
            c.projection
                .tree
                .ids()
                .filter(|&i| c.projection.tree.role(i).is_some())
                .count()
        };
        assert!(count_roles(&opt) < count_roles(&plain));
    }

    #[test]
    fn plain_options_disable_everything() {
        let mut tags = TagInterner::new();
        let c = compile(INTRO, &mut tags, CompileOptions::plain()).unwrap();
        assert!(c.projection.aggregates.is_empty());
        let s = pretty_query(&c.rewritten, &tags);
        assert!(s.contains("signOff($x, "), "own-role update present: {s}");
        assert!(!s.contains("$out"), "no early-update variables: {s}");
    }

    #[test]
    fn parse_errors_surface() {
        let mut tags = TagInterner::new();
        assert!(matches!(
            compile_default("<r>{ $oops }</r>", &mut tags),
            Err(CompileError::Parse(_))
        ));
    }

    #[test]
    fn aggregates_listed() {
        let mut tags = TagInterner::new();
        let c = compile_default("<r>{ for $x in /a return $x }</r>", &mut tags).unwrap();
        assert_eq!(c.projection.aggregates.len(), 1);
        assert!(c.roles.roles().any(|r| r == c.projection.aggregates[0]));
    }

    #[test]
    fn join_query_compiles() {
        let mut tags = TagInterner::new();
        let c = compile_default(
            r#"<r>{ for $p in /site/person return
                for $t in /site/sale return
                if ($t/buyer = $p/id) then <hit>{ $p/name }</hit> else () }</r>"#,
            &mut tags,
        )
        .expect("join compiles");
        // $t is not straight: enclosed by $p's loop chain but sourced at a
        // tmp under root… actually both source chains go through tmps; the
        // key assertion is that compilation succeeds and signOffs exist.
        let s = pretty_query(&c.rewritten, &tags);
        assert!(s.contains("signOff("));
    }
}
