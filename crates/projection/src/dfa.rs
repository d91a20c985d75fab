//! The lazily constructed DFA of paper §2 (Fig. 5).
//!
//! "Similar to processing XPath on streams, we realize stream preprojection
//! with a lazily constructed deterministic finite automaton." A DFA state
//! represents a path shape of the input document and *maps to a multiset of
//! projection tree nodes* (paper Example 1); the multiplicity of a node is
//! the number of possible path-step assignments that lead to matches.
//!
//! States are created on demand: the key of a state is the canonical pair
//! (match multiset, pending-descendant-edge multiset). Transitions are
//! memoized in *dense per-state tables* — one `Vec<StateId>` per state,
//! indexed by [`TagId`] and lazily grown with a sentinel for
//! not-yet-built entries — so repeated document shapes (the common case
//! in data-centric XML like XMark) cost one bounds-checked array load per
//! opening tag instead of a hash probe.
//!
//! The DFA is only used when the projection tree carries no
//! `[position()=1]` predicates; those need per-instance bookkeeping (see
//! [`crate::matcher`]).

use crate::path::{PAxis, Pred};
use crate::role::Role;
use crate::tree::{ProjNodeId, ProjTree};
use gcx_xml::{FxBuildHasher, TagId};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Range;

/// A DFA state id.
pub type StateId = u32;

/// A `(start, end)` range into one of the DFA's shared arenas. States
/// used to own three `Vec`s each; per-run DFA construction dominated the
/// engine's residual allocation profile (Q13's "allocation pocket"), so
/// state payloads now live in shared arenas and a state is three ranges.
#[derive(Debug, Clone, Copy)]
struct ArenaRange {
    start: u32,
    end: u32,
}

impl ArenaRange {
    #[inline]
    fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// One DFA state: the canonical multisets plus precomputed verdicts.
#[derive(Debug)]
struct DfaState {
    /// Matched projection nodes with their `via_self` flag, sorted
    /// (range into `matches_arena`).
    matches: ArenaRange,
    /// Pending descendant-like edges (multiset, sorted; range into
    /// `pending_arena`).
    pending: ArenaRange,
    /// Roles assigned to a document node entering this state (range into
    /// `roles_arena`).
    entry_roles: ArenaRange,
    /// Condition (2): children of nodes in this state must be preserved.
    preserve_children: bool,
    /// Nothing below a node in this state can match.
    dead_below: bool,
    /// Cached text verdict for text children of nodes in this state
    /// (buffer?, roles range into `roles_arena`).
    text: Option<(bool, ArenaRange)>,
}

/// Sentinel for a transition that has not been constructed yet.
const NO_STATE: StateId = StateId::MAX;

/// The lazy DFA. See module docs.
#[derive(Debug)]
pub struct LazyDfa {
    states: Vec<DfaState>,
    /// Content hash → state id. Lookups hash the canonical multisets and
    /// verify by content against the candidate — no key allocation. A
    /// genuine 64-bit collision between *different* contents merely
    /// loses the earlier entry's discoverability (a behaviorally
    /// identical duplicate state would be built); correctness never
    /// depends on the hash.
    index: HashMap<u64, StateId, FxBuildHasher>,
    /// Dense transition matrix: `trans[state * stride + tag.index()]` is
    /// the target state, [`NO_STATE`] when not yet built. One flat
    /// allocation growing amortized with states (and re-laid-out on the
    /// rare stride growth) instead of one row `Vec` per state.
    trans: Vec<StateId>,
    /// Row width of `trans` (power of two > the highest tag index seen).
    stride: usize,
    /// Shared payload arenas (see [`DfaState`]).
    matches_arena: Vec<(ProjNodeId, bool)>,
    pending_arena: Vec<ProjNodeId>,
    roles_arena: Vec<Role>,
    /// Reused construction scratch: the candidate match/pending multisets
    /// of the state being built. Only live inside
    /// [`LazyDfa::transition`]/[`LazyDfa::text_outcome`].
    scratch_matches: Vec<(ProjNodeId, bool)>,
    scratch_pending: Vec<ProjNodeId>,
}

impl LazyDfa {
    /// The initial state (the virtual document root).
    pub const INITIAL: StateId = 0;

    /// Builds the DFA with its initial state from the root match set
    /// (which already includes the root dos self-closure).
    pub fn new(tree: &ProjTree, root_matches: &[(ProjNodeId, bool)]) -> Self {
        debug_assert!(!tree.has_positional(), "DFA mode requires no predicates");
        // Pre-sized for the common case (a handful of states over a
        // double-digit tag vocabulary): lazy DFA construction used to be
        // the engine's dominant residual allocation source per run.
        let mut dfa = LazyDfa {
            states: Vec::with_capacity(16),
            index: HashMap::with_capacity_and_hasher(16, FxBuildHasher::default()),
            trans: Vec::with_capacity(16 * 64),
            stride: 64,
            matches_arena: Vec::with_capacity(64),
            pending_arena: Vec::with_capacity(64),
            roles_arena: Vec::with_capacity(32),
            scratch_matches: Vec::with_capacity(16),
            scratch_pending: Vec::with_capacity(16),
        };
        let mut matches = std::mem::take(&mut dfa.scratch_matches);
        matches.extend_from_slice(root_matches);
        let mut pending = std::mem::take(&mut dfa.scratch_pending);
        collect_pending_into(tree, &matches, &mut pending);
        let id = dfa.intern_scratch(tree, &mut matches, &mut pending);
        dfa.scratch_matches = matches;
        dfa.scratch_pending = pending;
        debug_assert_eq!(id, Self::INITIAL);
        dfa
    }

    /// Number of constructed states (grows lazily).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when no state has been constructed (never the case after
    /// `new`).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    #[inline]
    fn matches_of(&self, s: StateId) -> &[(ProjNodeId, bool)] {
        &self.matches_arena[self.states[s as usize].matches.range()]
    }

    #[inline]
    fn pending_of(&self, s: StateId) -> &[ProjNodeId] {
        &self.pending_arena[self.states[s as usize].pending.range()]
    }

    /// The paper's state mapping: the multiset of projection-tree nodes a
    /// state maps to, excluding `dos` self-closure entries (matching the
    /// presentation in Example 1). Returns a lazy iterator — no `Vec` is
    /// allocated; collect at the call site when a materialized multiset
    /// is needed.
    pub fn mapping(&self, s: StateId) -> impl Iterator<Item = ProjNodeId> + '_ {
        self.matches_of(s)
            .iter()
            .filter(|&&(_, via_self)| !via_self)
            .map(|&(n, _)| n)
    }

    /// Roles assigned on entering `s`.
    pub fn entry_roles(&self, s: StateId) -> &[Role] {
        &self.roles_arena[self.states[s as usize].entry_roles.range()]
    }

    /// True when `s` maps to at least one projection node.
    pub fn has_matches(&self, s: StateId) -> bool {
        !self.matches_of(s).is_empty()
    }

    /// Condition (2) verdict for children of nodes in `s`.
    pub fn preserve_children(&self, s: StateId) -> bool {
        self.states[s as usize].preserve_children
    }

    /// True when nothing below a node in state `s` can match.
    pub fn is_dead(&self, s: StateId) -> bool {
        self.states[s as usize].dead_below
    }

    /// Takes the transition `(from, tag)`, constructing the target state on
    /// first use. Memoized transitions are one array load in the dense
    /// per-state row; construction itself reuses the DFA's scratch
    /// buffers and allocates only for genuinely new states.
    pub fn transition(&mut self, tree: &ProjTree, from: StateId, tag: TagId) -> StateId {
        if tag.index() < self.stride {
            let to = self.trans[from as usize * self.stride + tag.index()];
            if to != NO_STATE {
                return to;
            }
        }
        let mut new = std::mem::take(&mut self.scratch_matches);
        new.clear();
        for &(m, _) in self.matches_of(from) {
            for &c in tree.children(m) {
                let s = tree.step(c);
                if s.axis == PAxis::Child && s.test.matches_element(tag) {
                    new.push((c, false));
                }
            }
        }
        for &p in self.pending_of(from) {
            if tree.step(p).test.matches_element(tag) {
                new.push((p, false));
            }
        }
        // dos self-closure.
        let mut i = 0;
        while i < new.len() {
            let v = new[i].0;
            for &c in tree.children(v) {
                let s = tree.step(c);
                if s.axis == PAxis::DescendantOrSelf && s.test.matches_element(tag) {
                    debug_assert_eq!(s.pred, Pred::True);
                    new.push((c, true));
                }
            }
            i += 1;
        }
        let mut pending = std::mem::take(&mut self.scratch_pending);
        pending.clear();
        pending.extend_from_slice(self.pending_of(from)); // inherited
        collect_pending_into(tree, &new, &mut pending);
        let to = self.intern_scratch(tree, &mut new, &mut pending);
        self.scratch_matches = new;
        self.scratch_pending = pending;
        if tag.index() >= self.stride {
            self.grow_stride(tag.index() + 1);
        }
        self.trans[from as usize * self.stride + tag.index()] = to;
        to
    }

    /// Widens the transition matrix to cover tag indices up to at least
    /// `need`, re-laying the rows out at the new stride. Rare: strides
    /// are powers of two, so a run over a `t`-tag vocabulary re-lays out
    /// at most `log2(t) - 5` times.
    fn grow_stride(&mut self, need: usize) {
        let new_stride = need.next_power_of_two().max(self.stride * 2);
        let mut new_trans = vec![NO_STATE; self.states.len() * new_stride];
        for s in 0..self.states.len() {
            new_trans[s * new_stride..s * new_stride + self.stride]
                .copy_from_slice(&self.trans[s * self.stride..(s + 1) * self.stride]);
        }
        self.trans = new_trans;
        self.stride = new_stride;
    }

    /// The verdict for a text child of a node in state `s`: whether to
    /// buffer it and which roles to assign. Memoized per state; the
    /// cached roles are returned by reference, so repeated text children
    /// of the same document shape cost no allocation.
    pub fn text_outcome(&mut self, tree: &ProjTree, s: StateId) -> (bool, &[Role]) {
        if self.states[s as usize].text.is_none() {
            let mut new = std::mem::take(&mut self.scratch_matches);
            new.clear();
            for &(m, _) in self.matches_of(s) {
                for &c in tree.children(m) {
                    let st = tree.step(c);
                    if st.axis == PAxis::Child && st.test.matches_text() {
                        new.push((c, false));
                    }
                }
            }
            for &p in self.pending_of(s) {
                if tree.step(p).test.matches_text() {
                    new.push((p, false));
                }
            }
            let mut i = 0;
            while i < new.len() {
                let v = new[i].0;
                for &c in tree.children(v) {
                    let st = tree.step(c);
                    if st.axis == PAxis::DescendantOrSelf && st.test.matches_text() {
                        new.push((c, true));
                    }
                }
                i += 1;
            }
            let start = self.roles_arena.len() as u32;
            entry_roles_into(tree, &new, &mut self.roles_arena);
            let range = ArenaRange {
                start,
                end: self.roles_arena.len() as u32,
            };
            self.states[s as usize].text = Some((!new.is_empty(), range));
            self.scratch_matches = new;
        }
        let cached = self.states[s as usize].text.expect("just computed");
        (cached.0, &self.roles_arena[cached.1.range()])
    }

    /// Content hash of a canonical (matches, pending) pair.
    fn content_hash(&self, matches: &[(ProjNodeId, bool)], pending: &[ProjNodeId]) -> u64 {
        let mut h = self.index.hasher().build_hasher();
        matches.hash(&mut h);
        pending.hash(&mut h);
        h.finish()
    }

    /// Canonicalizes (sorts) the scratch multisets and interns the state
    /// they describe: an existing state is found by content hash plus
    /// verification (no allocation); a new state copies the scratch into
    /// the shared arenas.
    fn intern_scratch(
        &mut self,
        tree: &ProjTree,
        matches: &mut Vec<(ProjNodeId, bool)>,
        pending: &mut Vec<ProjNodeId>,
    ) -> StateId {
        matches.sort_unstable();
        pending.sort_unstable();
        let hash = self.content_hash(matches, pending);
        if let Some(&id) = self.index.get(&hash) {
            if self.matches_of(id) == matches.as_slice()
                && self.pending_of(id) == pending.as_slice()
            {
                return id;
            }
            // A 64-bit content collision: fall through and build a
            // duplicate state (behaviorally identical; see `index` docs).
        }
        let m_start = self.matches_arena.len() as u32;
        self.matches_arena.extend_from_slice(matches);
        let p_start = self.pending_arena.len() as u32;
        self.pending_arena.extend_from_slice(pending);
        let r_start = self.roles_arena.len() as u32;
        entry_roles_into(tree, matches, &mut self.roles_arena);
        let preserve_children = preserve_condition(tree, matches, pending);
        let dead_below = pending.is_empty()
            && !preserve_children
            && matches.iter().all(|&(m, _)| tree.children(m).is_empty());
        let id = self.states.len() as StateId;
        debug_assert!(id != NO_STATE, "state space exhausted");
        self.states.push(DfaState {
            matches: ArenaRange {
                start: m_start,
                end: self.matches_arena.len() as u32,
            },
            pending: ArenaRange {
                start: p_start,
                end: self.pending_arena.len() as u32,
            },
            entry_roles: ArenaRange {
                start: r_start,
                end: self.roles_arena.len() as u32,
            },
            preserve_children,
            dead_below,
            text: None,
        });
        // One fresh (unbuilt) row in the transition matrix.
        self.trans.resize(self.states.len() * self.stride, NO_STATE);
        self.index.insert(hash, id);
        id
    }
}

/// Appends the descendant-like child edges of `matches` to `pending`
/// (the caller seeds `pending` with the inherited multiset).
fn collect_pending_into(
    tree: &ProjTree,
    matches: &[(ProjNodeId, bool)],
    pending: &mut Vec<ProjNodeId>,
) {
    for &(m, _) in matches {
        for &c in tree.children(m) {
            if tree.step(c).axis.is_descendant_like() {
                pending.push(c);
            }
        }
    }
}

/// Role instances assigned when entering a state with these matches;
/// aggregate roles only on self matches (paper §6). Appended to the
/// caller's buffer (the DFA's shared role arena).
fn entry_roles_into(tree: &ProjTree, matches: &[(ProjNodeId, bool)], roles: &mut Vec<Role>) {
    for &(m, via_self) in matches {
        let n = tree.node(m);
        if let Some(r) = n.role {
            if !n.aggregate || via_self {
                roles.push(r);
            }
        }
    }
}

/// Condition (2), same logic as the NFA path (see `matcher`).
fn preserve_condition(
    tree: &ProjTree,
    matches: &[(ProjNodeId, bool)],
    pending: &[ProjNodeId],
) -> bool {
    if pending.is_empty() {
        return false;
    }
    for &(m, _) in matches {
        for &c in tree.children(m) {
            let s = tree.step(c);
            if s.axis != PAxis::Child {
                continue;
            }
            for &p in pending {
                if s.test.overlaps(tree.step(p).test) {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{PStep, PTest};
    use gcx_xml::TagInterner;

    /// Projection tree of Fig. 5(a): /a/b/dos::node() and /a//b/dos::node().
    /// Returns (tree, [v2, v3, v4, v5, v6, v7]).
    fn fig5_tree(tags: &mut TagInterner) -> (ProjTree, Vec<ProjNodeId>) {
        let a = tags.intern("a");
        let b = tags.intern("b");
        let mut t = ProjTree::new();
        let v2 = t.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(a)), None);
        let v3 = t.add_child(v2, PStep::child(PTest::Tag(b)), None);
        let v4 = t.add_child(v3, PStep::dos_node(), None);
        let v5 = t.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(a)), None);
        let v6 = t.add_child(v5, PStep::descendant(PTest::Tag(b)), None);
        let v7 = t.add_child(v6, PStep::dos_node(), None);
        (t, vec![v2, v3, v4, v5, v6, v7])
    }

    /// Paper Example 1, first part: state mappings for the Fig. 5 DFA over
    /// the Fig. 5(a) tree.
    #[test]
    fn example1_fig5_mappings() {
        let mut tags = TagInterner::new();
        let (tree, v) = fig5_tree(&mut tags);
        let a = tags.get("a").unwrap();
        let b = tags.get("b").unwrap();
        let mut dfa = LazyDfa::new(&tree, &[(ProjTree::ROOT, false)]);

        // q0 maps to {v1} (the root).
        assert_eq!(
            dfa.mapping(LazyDfa::INITIAL).collect::<Vec<_>>(),
            vec![ProjTree::ROOT]
        );
        // q1 = δ(q0, a) maps to {v2, v5}.
        let q1 = dfa.transition(&tree, LazyDfa::INITIAL, a);
        assert_eq!(dfa.mapping(q1).collect::<Vec<_>>(), vec![v[0], v[3]]);
        // q2 = δ(q1, a) maps to ∅.
        let q2 = dfa.transition(&tree, q1, a);
        assert_eq!(dfa.mapping(q2).count(), 0);
        // q3 = δ(q2, b) maps to {v6}.
        let q3 = dfa.transition(&tree, q2, b);
        assert_eq!(dfa.mapping(q3).collect::<Vec<_>>(), vec![v[4]]);
        // q4 = δ(q1, b) maps to {v3, v6}.
        let q4 = dfa.transition(&tree, q1, b);
        assert_eq!(dfa.mapping(q4).collect::<Vec<_>>(), vec![v[1], v[4]]);
    }

    /// Paper Example 1, second part: over the Fig. 4(b) tree (//a//b),
    /// state q3 (path /a/a/b) maps to the multiset {v3, v3}.
    #[test]
    fn example1_fig4b_multiplicity() {
        let mut tags = TagInterner::new();
        let a = tags.intern("a");
        let b = tags.intern("b");
        let mut tree = ProjTree::new();
        let v2 = tree.add_child(
            ProjTree::ROOT,
            PStep::descendant(PTest::Tag(a)),
            Some(Role(2)),
        );
        let v3 = tree.add_child(v2, PStep::descendant(PTest::Tag(b)), Some(Role(3)));
        let mut dfa = LazyDfa::new(&tree, &[(ProjTree::ROOT, false)]);
        let q1 = dfa.transition(&tree, LazyDfa::INITIAL, a);
        let q2 = dfa.transition(&tree, q1, a);
        let q3 = dfa.transition(&tree, q2, b);
        assert_eq!(dfa.mapping(q3).collect::<Vec<_>>(), vec![v3, v3]);
        assert_eq!(dfa.entry_roles(q3), &[Role(3), Role(3)]);
        // And /a/b maps to {v3} only.
        let q4 = dfa.transition(&tree, q1, b);
        assert_eq!(dfa.mapping(q4).collect::<Vec<_>>(), vec![v3]);
    }

    /// Paper Example 2: in state q1, reading another `a` yields a state
    /// with no matches, but q1's preserve_children flag forces structural
    /// preservation.
    #[test]
    fn example2_preservation_flag() {
        let mut tags = TagInterner::new();
        let (tree, _) = fig5_tree(&mut tags);
        let a = tags.get("a").unwrap();
        let mut dfa = LazyDfa::new(&tree, &[(ProjTree::ROOT, false)]);
        let q1 = dfa.transition(&tree, LazyDfa::INITIAL, a);
        assert!(
            dfa.preserve_children(q1),
            "child ./b and descendant .//b edges for the same tag force preservation"
        );
        let q2 = dfa.transition(&tree, q1, a);
        assert!(!dfa.has_matches(q2));
        // q0 has both child edges (/a) but no pending overlap (no pending at
        // all), so no preservation there.
        assert!(!dfa.preserve_children(LazyDfa::INITIAL));
    }

    /// Transitions are memoized: same (state, tag) does not grow the DFA.
    #[test]
    fn laziness_and_memoization() {
        let mut tags = TagInterner::new();
        let (tree, _) = fig5_tree(&mut tags);
        let a = tags.get("a").unwrap();
        let b = tags.get("b").unwrap();
        let mut dfa = LazyDfa::new(&tree, &[(ProjTree::ROOT, false)]);
        let q1 = dfa.transition(&tree, LazyDfa::INITIAL, a);
        let before = dfa.len();
        let q1_again = dfa.transition(&tree, LazyDfa::INITIAL, a);
        assert_eq!(q1, q1_again);
        assert_eq!(dfa.len(), before);
        let _ = dfa.transition(&tree, q1, b);
        assert!(dfa.len() > before);
    }

    /// Sibling-equivalent paths collapse to the same state (canonical
    /// multiset keys).
    #[test]
    fn state_sharing_across_siblings() {
        let mut tags = TagInterner::new();
        let (tree, _) = fig5_tree(&mut tags);
        let a = tags.get("a").unwrap();
        let c = tags.intern("c");
        let mut dfa = LazyDfa::new(&tree, &[(ProjTree::ROOT, false)]);
        let q1 = dfa.transition(&tree, LazyDfa::INITIAL, a);
        // /a/c and /a/c/c — the dead state self-collapses.
        let qc = dfa.transition(&tree, q1, c);
        let qcc = dfa.transition(&tree, qc, c);
        // Both have no matches; q1's pending (.//b) is inherited by both, so
        // they are the same state.
        assert_eq!(qc, qcc);
    }

    /// Text verdicts are cached and respect dos::node().
    #[test]
    fn text_outcome_cached() {
        let mut tags = TagInterner::new();
        let x = tags.intern("x");
        let mut tree = ProjTree::new();
        let vx = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(x)), Some(Role(1)));
        tree.add_child(vx, PStep::dos_node(), Some(Role(5)));
        let mut dfa = LazyDfa::new(&tree, &[(ProjTree::ROOT, false)]);
        let qx = dfa.transition(&tree, LazyDfa::INITIAL, x);
        let (buf, roles) = dfa.text_outcome(&tree, qx);
        assert!(buf);
        let roles = roles.to_vec();
        assert_eq!(roles, vec![Role(5)]);
        let (buf2, roles2) = dfa.text_outcome(&tree, qx);
        assert_eq!((buf2, roles2.to_vec()), (buf, roles));
    }

    /// Dead-state detection.
    #[test]
    fn dead_state() {
        let mut tags = TagInterner::new();
        let a = tags.intern("a");
        let z = tags.intern("z");
        let mut tree = ProjTree::new();
        tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(a)), Some(Role(1)));
        let mut dfa = LazyDfa::new(&tree, &[(ProjTree::ROOT, false)]);
        let qz = dfa.transition(&tree, LazyDfa::INITIAL, z);
        assert!(dfa.is_dead(qz));
        let qa = dfa.transition(&tree, LazyDfa::INITIAL, a);
        assert!(dfa.is_dead(qa), "a has no children in the projection tree");
        assert!(!dfa.is_dead(LazyDfa::INITIAL));
    }
}
