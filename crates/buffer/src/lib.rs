//! # gcx-buffer — the GCX buffer manager
//!
//! Implements §5/§6 of the paper:
//!
//! * [`BufferTree`] — the single buffer holding the (currently relevant)
//!   projected document tree, "with parent-child and next-sibling pointers
//!   between nodes, thus keeping the memory overhead for the tree
//!   representation small" (paper §6). Nodes carry role multisets.
//! * Active garbage collection ([`BufferTree::sign_off`], paper Fig. 10):
//!   when a node loses a role, a localized bottom-up search purges every
//!   *irrelevant* node (no roles on itself or any descendant). Unfinished
//!   nodes are marked and purged once their closing tag arrives.
//! * [`BufferStats`] — live-node/byte accounting with high watermarks; this
//!   is the "main memory consumption" measure reported by the benchmark
//!   harness (paper Table 1).
//!
//! Engineering notes (deviations from the paper's data structures):
//! * Each node maintains `subtree_roles`/`subtree_pins` counters so the
//!   irrelevance check is O(1).
//! * Cursor *pins* keep nodes navigable while a for-loop iterates past
//!   them; a pinned irrelevant node is marked and purged on unpin.
//! * Aggregate roles (paper §6) are tracked per role id; removing the last
//!   covering aggregate instance triggers a pruning sweep that restores
//!   the exact purge timing of the non-aggregated scheme.

pub mod node;
pub mod serialize;
pub mod stats;

pub use node::{BufKind, BufNodeId, BufferError, BufferTree, TextSpan};
pub use stats::{BufferAccounting, BufferStats, LiveBufferStats};
