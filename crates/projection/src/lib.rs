//! # gcx-projection — projection trees, roles and the stream matcher
//!
//! This crate implements §2 of the GCX paper:
//!
//! * [`Role`]s and role multisets ([`RoleSet`]) — "roles serve as a metaphor
//!   for the future relevance of a node".
//! * Projection paths ([`path::PStep`], [`path::RelPath`]) with the paper's
//!   axes (`child`, `descendant`, `descendant-or-self`), node tests
//!   (tag, `*`, `text()`, `node()`) and the `[position() = 1]` predicate
//!   used for existence checks.
//! * [`ProjTree`] — the projection tree summarizing a set of projection
//!   paths (paper Fig. 1/5/12), with the `rπ` mapping from tree nodes to
//!   roles.
//! * [`matcher::StreamMatcher`] — matches an XML token stream against a
//!   projection tree, producing for every input node the multiset of roles
//!   to assign (paper Example 1/3) and the two node-preservation decisions
//!   (paper conditions (1) and (2), Example 2).
//! * [`dfa::LazyDfa`] — the lazily constructed deterministic automaton of
//!   paper Fig. 5, which the matcher runs for every projection tree;
//!   `[position() = 1]` steps are resolved per event against one fired
//!   set per open element.

#![forbid(unsafe_code)]

pub mod dfa;
pub mod matcher;
pub mod path;
pub mod role;
pub mod tree;

pub use matcher::{Outcome, StreamMatcher};
pub use path::{PAxis, PStep, PTest, Pred, RelPath};
pub use role::{Role, RoleCatalog, RoleSet};
pub use tree::{ProjNodeId, ProjTree};
