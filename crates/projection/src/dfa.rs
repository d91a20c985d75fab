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
//! memoized in *dense per-state rows* with a sentinel for not-yet-built
//! entries, so repeated document shapes (the common case in data-centric
//! XML like XMark) cost two array loads per opening tag instead of a hash
//! probe. A row has one column per *tag class*, not per tag: the k tags
//! some [`PTest::Tag`] in the tree names get classes 1..=k, and every
//! other tag shares class 0, because only `*`, `node()` and `text()`
//! tests can match it and they match all such tags alike. The matrix is
//! therefore `states × (k + 1)`, fixed by the query, however large the
//! document's vocabulary.
//!
//! ## First witnesses
//!
//! A `[position()=1]` step ([`Pred::First`], the rewrite of `exists`)
//! matches only the first witness below each *origin*: the open element
//! whose match spawned the step — the parent for a child step, every
//! ancestor whose state spawned it for a descendant step. That is one bit
//! per open origin and positional step, so the caller keeps a *fired set*
//! of [`LazyDfa::fired_words`] words per open element beside its state
//! stack, and states stay multisets of projection nodes:
//!
//! * a transition whose candidate multiset has no positional step is
//!   memoized as above;
//! * one that has is marked in the row ([`LazyDfa::transition`] returns
//!   `None`) and [`LazyDfa::first_witness`] resolves it per event: a
//!   positional candidate lands once for each origin that has not fired
//!   it yet, with that origin's spawn multiplicity (Example 1), and marks
//!   those origins fired. The target is interned like any other state, so
//!   a known target costs one hash probe and no allocation.
//!
//! Fired positional edges stay in the pending multiset, so condition (2),
//! the dead-subtree verdict and the skipped bytes never read a fired bit.
//!
//! ## Search states
//!
//! Beside the dead-subtree verdict, each state memoizes whether it is a
//! *search state*, and of which [`SearchScope`] ([`LazyDfa::search`]).
//! The preprojector lets the lexer consume the elements and text such a
//! state proves irrelevant without building their events
//! ([`gcx_xml::XmlLexer::scan_search`]).
//!
//! A *descendant* search state is not dead, has a non-empty pending set,
//! no condition-(2) preservation, and every candidate edge (the child
//! edges of its matches and its pending edges) a [`PTest::Tag`] test
//! without `[position()=1]`. Its *exit tags* are the tags of those edges
//! ([`LazyDfa::search`]). An element with any other tag has no
//! candidate in such a state, so it opens with no matches and no roles,
//! is not buffered (no condition (2)), inherits the pending set unchanged
//! — so it is not dead — and lands in a search state whose exits are the
//! pending tags, a subset of these. Text below either state matches
//! nothing.
//!
//! A *child* search state has an empty pending set (so no condition (2))
//! and every child edge of its matches a [`PTest::Tag`] test, with or
//! without `[position()=1]`; its exits are their tags. Here a child with
//! any other tag is no candidate at all — in particular it is no first
//! witness, and fires nothing — so it opens unbuffered and roleless into
//! a dead state, and text matches nothing. The lexer consumes such a
//! child whole. A dead state is the case with no exits: it matters for
//! an element that is buffered although nothing below it can match (the
//! leaf of a `[position()=1]` step, say), whose children are all dead.
//!
//! ## Copy states
//!
//! Each state also memoizes a *copy verdict*: whether, below a node in
//! it, every element outside a few exit tags and every text node gets
//! only what one `dos::node()` edge gives it. The verdict holds when no
//! condition (2) applies and the candidate edges are exactly one
//! `dos::node()` leaf edge with a role (counted with multiplicity, so a
//! second binding's `dos::node()` above fails it) plus plain tag tests,
//! whose tags are the exits ([`LazyDfa::copy_exits`]). A non-exit element
//! below such a state matches that edge alone and lands in a copy state
//! with the same exits and the same edge, so a consumer writing a bound
//! subtree straight to the output may leave every non-exit element and
//! all text unbuffered: nothing else would assign them a role. That
//! consumer signs off the edge's role on the binding itself; the roles
//! the edge would have given below are then neither assigned nor removed.

use crate::path::{PAxis, PStep, PTest, Pred};
use crate::role::Role;
use crate::tree::{ProjNodeId, ProjTree};
use gcx_xml::{FxBuildHasher, SearchScope, TagId};
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

/// The memoized verdict for text children of nodes in a state.
#[derive(Debug, Clone, Copy)]
enum TextVerdict {
    Unbuilt,
    /// Buffer?, and the roles (range into `roles_arena`).
    Memo(bool, ArenaRange),
    /// A positional step is a candidate: resolved per event.
    Witness,
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
    /// The scope and exit tags of a search state (range into
    /// `exits_arena`), `None` for any other state (module docs, "Search
    /// states").
    search: Option<(SearchScope, ArenaRange)>,
    /// The copy verdict: the role of the state's one `dos::node()` edge
    /// and the other edges' exit tags (range into `exits_arena`), `None`
    /// when it does not hold (module docs, "Copy states").
    copy: Option<(Role, ArenaRange)>,
    text: TextVerdict,
}

/// Sentinel for a transition that has not been constructed yet.
const NO_STATE: StateId = StateId::MAX;
/// Row mark for a transition with a positional candidate (module docs).
const WITNESS: StateId = StateId::MAX - 1;
/// `fired_bit` entry of a projection node without `[position()=1]`.
const NOT_POSITIONAL: u32 = u32::MAX;

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
    /// Dense transition matrix: `trans[state * width + class]` is the
    /// target state, [`NO_STATE`] when not yet built, [`WITNESS`] when
    /// resolved per event. One flat allocation growing amortized with
    /// states instead of one row `Vec` per state.
    trans: Vec<StateId>,
    /// Tag id → tag class (module docs); ids past the end are class 0.
    class: Vec<u32>,
    /// Row width of `trans`: the named tags' classes plus class 0.
    width: usize,
    /// Shared payload arenas (see [`DfaState`]).
    matches_arena: Vec<(ProjNodeId, bool)>,
    pending_arena: Vec<ProjNodeId>,
    roles_arena: Vec<Role>,
    exits_arena: Vec<TagId>,
    /// Per projection node: its bit in a fired set, [`NOT_POSITIONAL`]
    /// for steps without `[position()=1]`.
    fired_bit: Vec<u32>,
    /// Words per fired set (0 when the tree has no positional step).
    fired_words: usize,
    /// Reused construction scratch: the candidate match/pending multisets
    /// of the state being built, the distinct positional candidates of
    /// the current event and the roles of a resolved text verdict.
    scratch_matches: Vec<(ProjNodeId, bool)>,
    scratch_pending: Vec<ProjNodeId>,
    scratch_witness: Vec<ProjNodeId>,
    scratch_roles: Vec<Role>,
}

impl LazyDfa {
    /// The initial state (the virtual document root).
    pub const INITIAL: StateId = 0;

    /// Builds the DFA with its initial state: the root plus its
    /// `dos::node()` self-closure (the virtual root is neither element
    /// nor text; only `node()` applies).
    pub fn new(tree: &ProjTree) -> Self {
        let mut fired_bit = vec![NOT_POSITIONAL; tree.len()];
        let mut positional = 0u32;
        let (mut class, mut width) = (Vec::new(), 1);
        for v in tree.ids() {
            let step = tree.step(v);
            if step.pred == Pred::First {
                fired_bit[v.index()] = positional;
                positional += 1;
            }
            if let PTest::Tag(t) = step.test {
                if class.len() <= t.index() {
                    class.resize(t.index() + 1, 0);
                }
                if class[t.index()] == 0 {
                    class[t.index()] = width as u32;
                    width += 1;
                }
            }
        }
        // Pre-sized for the common case (a handful of states over a
        // double-digit tag vocabulary): lazy DFA construction used to be
        // the engine's dominant residual allocation source per run.
        let mut dfa = LazyDfa {
            states: Vec::with_capacity(16),
            index: HashMap::with_capacity_and_hasher(16, FxBuildHasher::default()),
            trans: Vec::with_capacity(16 * width),
            class,
            width,
            matches_arena: Vec::with_capacity(64),
            pending_arena: Vec::with_capacity(64),
            roles_arena: Vec::with_capacity(32),
            exits_arena: Vec::with_capacity(16),
            fired_bit,
            fired_words: (positional as usize).div_ceil(64),
            scratch_matches: Vec::with_capacity(16),
            scratch_pending: Vec::with_capacity(16),
            scratch_witness: Vec::new(),
            scratch_roles: Vec::new(),
        };
        dfa.scratch_matches.push((ProjTree::ROOT, false));
        let id = dfa.intern_candidates(tree, None, |t| matches!(t, PTest::AnyNode));
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

    /// Words of one open element's fired set: the caller keeps this many
    /// zeroed `u64`s per entry of its state stack, in stack order.
    pub fn fired_words(&self) -> usize {
        self.fired_words
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

    /// The scope and exit tags of `s` when it is a search state (module
    /// docs), `None` otherwise.
    #[inline]
    pub fn search(&self, s: StateId) -> Option<(SearchScope, &[TagId])> {
        self.states[s as usize]
            .search
            .map(|(scope, r)| (scope, &self.exits_arena[r.range()]))
    }

    /// The copy verdict of `s` (module docs, "Copy states"): the role of
    /// its one `dos::node()` edge and the exit tags, `None` when it does
    /// not hold.
    #[inline]
    pub fn copy_exits(&self, s: StateId) -> Option<(Role, &[TagId])> {
        self.states[s as usize]
            .copy
            .map(|(role, r)| (role, &self.exits_arena[r.range()]))
    }

    /// Takes the memoized transition `(from, tag)`, constructing the
    /// target state on first use; `None` when a positional step is a
    /// candidate, for [`LazyDfa::first_witness`] to resolve. Memoized
    /// transitions are one array load in the dense per-state row;
    /// construction itself reuses the DFA's scratch buffers and allocates
    /// only for genuinely new states.
    #[inline]
    pub fn transition(&mut self, tree: &ProjTree, from: StateId, tag: TagId) -> Option<StateId> {
        match self.trans[self.cell(from, tag)] {
            NO_STATE => self.build_transition(tree, from, tag),
            WITNESS => None,
            to => Some(to),
        }
    }

    /// The `trans` index of `(from, tag)`'s class.
    #[inline]
    fn cell(&self, from: StateId, tag: TagId) -> usize {
        let class = self.class.get(tag.index()).map_or(0, |&c| c as usize);
        from as usize * self.width + class
    }

    /// The cold half of [`LazyDfa::transition`], out of line so the
    /// memoized load inlines into the matcher.
    #[inline(never)]
    fn build_transition(&mut self, tree: &ProjTree, from: StateId, tag: TagId) -> Option<StateId> {
        let accepts = |t: PTest| t.matches_element(tag);
        self.collect_candidates(tree, from, accepts);
        let to = if self.scratch_witness.is_empty() {
            Some(self.intern_candidates(tree, Some(from), accepts))
        } else {
            None
        };
        let cell = self.cell(from, tag);
        self.trans[cell] = to.unwrap_or(WITNESS);
        to
    }

    /// Resolves a transition [`LazyDfa::transition`] left to the event:
    /// an element `tag` opens below the top of `stack` (the states of the
    /// open elements, root first), with `fired` holding their fired sets.
    /// Marks the origins whose first witness this element is.
    pub fn first_witness(
        &mut self,
        tree: &ProjTree,
        stack: &[StateId],
        fired: &mut [u64],
        tag: TagId,
    ) -> StateId {
        let from = *stack.last().expect("stack never empty");
        let accepts = |t: PTest| t.matches_element(tag);
        self.collect_candidates(tree, from, accepts);
        self.fire(tree, stack, fired);
        self.intern_candidates(tree, Some(from), accepts)
    }

    /// The memoized verdict for a text child of a node in state `s`:
    /// whether to buffer it and which roles to assign; `None` when a
    /// positional step is a candidate. Built on first use; the cached
    /// roles are returned by reference, so repeated text children of the
    /// same document shape cost no allocation.
    pub fn text_outcome(&mut self, tree: &ProjTree, s: StateId) -> Option<(bool, &[Role])> {
        match self.text_verdict(tree, s) {
            TextVerdict::Memo(buffer, roles) => Some((buffer, &self.roles_arena[roles.range()])),
            _ => None,
        }
    }

    /// The verdict for a text child of the top of `stack` (see
    /// [`LazyDfa::first_witness`] for `stack` and `fired`): the memoized
    /// one, or the first-witness resolution of this event.
    pub fn text(
        &mut self,
        tree: &ProjTree,
        stack: &[StateId],
        fired: &mut [u64],
    ) -> (bool, &[Role]) {
        let s = *stack.last().expect("stack never empty");
        if let TextVerdict::Memo(buffer, roles) = self.text_verdict(tree, s) {
            return (buffer, &self.roles_arena[roles.range()]);
        }
        self.collect_candidates(tree, s, PTest::matches_text);
        self.fire(tree, stack, fired);
        let mut new = std::mem::take(&mut self.scratch_matches);
        close_self(tree, &mut new, PTest::matches_text);
        self.scratch_roles.clear();
        entry_roles_into(tree, &new, &mut self.scratch_roles);
        let buffer = !new.is_empty();
        self.scratch_matches = new;
        (buffer, &self.scratch_roles)
    }

    fn text_verdict(&mut self, tree: &ProjTree, s: StateId) -> TextVerdict {
        if let TextVerdict::Unbuilt = self.states[s as usize].text {
            self.collect_candidates(tree, s, PTest::matches_text);
            self.states[s as usize].text = if self.scratch_witness.is_empty() {
                let mut new = std::mem::take(&mut self.scratch_matches);
                close_self(tree, &mut new, PTest::matches_text);
                let start = self.roles_arena.len() as u32;
                entry_roles_into(tree, &new, &mut self.roles_arena);
                let roles = ArenaRange {
                    start,
                    end: self.roles_arena.len() as u32,
                };
                let buffer = !new.is_empty();
                self.scratch_matches = new;
                TextVerdict::Memo(buffer, roles)
            } else {
                TextVerdict::Witness
            };
        }
        self.states[s as usize].text
    }

    /// Fills `scratch_matches` with the candidate matches of a node
    /// entering below a node in state `from`: the child edges of its
    /// matches, then its pending edges, whose test `accepts` the node.
    /// Positional candidates go, distinct, to `scratch_witness` instead.
    fn collect_candidates(
        &mut self,
        tree: &ProjTree,
        from: StateId,
        accepts: impl Fn(PTest) -> bool,
    ) {
        let mut new = std::mem::take(&mut self.scratch_matches);
        let mut witness = std::mem::take(&mut self.scratch_witness);
        new.clear();
        witness.clear();
        let mut push = |c: ProjNodeId| {
            if tree.step(c).pred == Pred::First {
                if !witness.contains(&c) {
                    witness.push(c);
                }
            } else {
                new.push((c, false));
            }
        };
        for &(m, _) in self.matches_of(from) {
            for &c in tree.children(m) {
                let s = tree.step(c);
                if s.axis == PAxis::Child && accepts(s.test) {
                    push(c);
                }
            }
        }
        for &p in self.pending_of(from) {
            if accepts(tree.step(p).test) {
                push(p);
            }
        }
        self.scratch_matches = new;
        self.scratch_witness = witness;
    }

    /// The first-witness rule for the positional candidates in
    /// `scratch_witness`: each lands in `scratch_matches` once per spawn
    /// from every origin on `stack` that has not fired it, and those
    /// origins are marked fired.
    fn fire(&mut self, tree: &ProjTree, stack: &[StateId], fired: &mut [u64]) {
        let words = self.fired_words;
        debug_assert_eq!(fired.len(), stack.len() * words);
        let mut new = std::mem::take(&mut self.scratch_matches);
        for &c in &self.scratch_witness {
            let bit = self.fired_bit[c.index()] as usize;
            let (word, mask) = (bit / 64, 1u64 << (bit % 64));
            let spawner = tree.node(c).parent.expect("a step has a parent");
            let first_origin = match tree.step(c).axis {
                PAxis::Child => stack.len() - 1,
                _ => 0,
            };
            let mut landed = 0;
            for (i, &s) in stack.iter().enumerate().skip(first_origin) {
                let spawned = self
                    .matches_of(s)
                    .iter()
                    .filter(|&&(m, _)| m == spawner)
                    .count();
                let set = &mut fired[i * words + word];
                if spawned > 0 && *set & mask == 0 {
                    *set |= mask;
                    landed += spawned;
                }
            }
            new.extend(std::iter::repeat_n((c, false), landed));
        }
        self.scratch_matches = new;
    }

    /// Completes the candidates in `scratch_matches` with the `dos::node()`
    /// self-closure under `accepts`, adds the pending edges (inherited
    /// from `from`, plus those the new matches spawn) and interns the
    /// state they describe.
    fn intern_candidates(
        &mut self,
        tree: &ProjTree,
        from: Option<StateId>,
        accepts: impl Fn(PTest) -> bool,
    ) -> StateId {
        let mut new = std::mem::take(&mut self.scratch_matches);
        close_self(tree, &mut new, accepts);
        let mut pending = std::mem::take(&mut self.scratch_pending);
        pending.clear();
        if let Some(from) = from {
            pending.extend_from_slice(self.pending_of(from));
        }
        for &(m, _) in &new {
            for &c in tree.children(m) {
                if tree.step(c).axis.is_descendant_like() {
                    pending.push(c);
                }
            }
        }
        let to = self.intern_scratch(tree, &mut new, &mut pending);
        self.scratch_matches = new;
        self.scratch_pending = pending;
        to
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
        matches: &mut [(ProjNodeId, bool)],
        pending: &mut [ProjNodeId],
    ) -> StateId {
        matches.sort_unstable();
        pending.sort_unstable();
        let hash = self.content_hash(matches, pending);
        if let Some(&id) = self.index.get(&hash) {
            if self.matches_of(id) == &*matches && self.pending_of(id) == &*pending {
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
        // An empty pending set rules out condition (2); a dead state is a
        // child search with no exits.
        let search = if pending.is_empty() {
            exit_tags_into(
                tree,
                matches,
                pending,
                Edges::FirstWitness,
                &mut self.exits_arena,
            )
            .map(|r| (SearchScope::Children, r))
        } else if preserve_children {
            None
        } else {
            exit_tags_into(tree, matches, pending, Edges::Plain, &mut self.exits_arena)
                .map(|r| (SearchScope::Descendants, r))
        };
        let copy = if preserve_children {
            None
        } else {
            let mut dos = None;
            let arena = &mut self.exits_arena;
            match exit_tags_into(tree, matches, pending, Edges::Copy(&mut dos), arena) {
                Some(r) if dos.is_none() => {
                    arena.truncate(r.start as usize);
                    None
                }
                r => r.zip(dos).map(|(r, role)| (role, r)),
            }
        };
        let id = self.states.len() as StateId;
        debug_assert!(id < WITNESS, "state space exhausted");
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
            search,
            copy,
            text: TextVerdict::Unbuilt,
        });
        // One fresh (unbuilt) row in the transition matrix.
        self.trans.resize(self.states.len() * self.width, NO_STATE);
        self.index.insert(hash, id);
        id
    }
}

/// Extends `new` with the `dos::node()` self-closure: whenever a matched
/// node has a `descendant-or-self` child whose test accepts the *current*
/// node, that child matches too (recursively).
fn close_self(tree: &ProjTree, new: &mut Vec<(ProjNodeId, bool)>, accepts: impl Fn(PTest) -> bool) {
    let mut i = 0;
    while i < new.len() {
        let v = new[i].0;
        for &c in tree.children(v) {
            let s = tree.step(c);
            if s.axis == PAxis::DescendantOrSelf && accepts(s.test) {
                debug_assert_eq!(
                    s.pred,
                    Pred::True,
                    "positional predicates are not supported on dos steps"
                );
                new.push((c, true));
            }
        }
        i += 1;
    }
}

/// Role instances assigned when entering a state with these matches;
/// aggregate roles only on self matches (paper §6). Appended to the
/// caller's buffer.
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

/// Which candidate edges besides plain tag tests [`exit_tags_into`] lets
/// through.
enum Edges<'a> {
    /// None: a descendant search.
    Plain,
    /// `[position()=1]` tag tests too: a child search, where a non-exit
    /// child is no candidate and fires nothing.
    FirstWitness,
    /// One `dos::node()` leaf edge with a role, left in the option (the
    /// copy verdict); a second one fails like any other edge.
    Copy(&'a mut Option<Role>),
}

/// Appends the distinct tags of a state's candidate edges — the child
/// edges of its matches, then its pending edges — to `out` and returns
/// their range. `None`, with `out` unchanged, as soon as an edge is not a
/// tag test `edges` admits: `*`, `text()` and `node()` always keep the
/// state out of search mode.
fn exit_tags_into(
    tree: &ProjTree,
    matches: &[(ProjNodeId, bool)],
    pending: &[ProjNodeId],
    mut edges: Edges,
    out: &mut Vec<TagId>,
) -> Option<ArenaRange> {
    let start = out.len();
    let child_edges = matches.iter().flat_map(|&(m, _)| {
        tree.children(m)
            .iter()
            .copied()
            .filter(|&c| tree.step(c).axis == PAxis::Child)
    });
    for c in child_edges.chain(pending.iter().copied()) {
        let step = tree.step(c);
        match (step.test, &mut edges) {
            (PTest::Tag(t), edges)
                if step.pred == Pred::True
                    || (step.pred == Pred::First && matches!(edges, Edges::FirstWitness)) =>
            {
                if !out[start..].contains(&t) {
                    out.push(t);
                }
            }
            (PTest::AnyNode, Edges::Copy(role @ None))
                if step == PStep::dos_node() && tree.children(c).is_empty() =>
            {
                **role = tree.node(c).role;
                if role.is_none() {
                    out.truncate(start);
                    return None;
                }
            }
            _ => {
                out.truncate(start);
                return None;
            }
        }
    }
    Some(ArenaRange {
        start: start as u32,
        end: out.len() as u32,
    })
}

/// Paper condition (2): children of a node in this state must be
/// preserved when some match has a `child::τ1` edge and some
/// descendant-like edge with test τ2 reaches below it, with τ1 and τ2
/// able to accept the same node — otherwise discarding the child could
/// promote a deeper τ2-match into a false `child::τ1` match.
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
        let mut dfa = LazyDfa::new(&tree);

        // q0 maps to {v1} (the root).
        assert_eq!(
            dfa.mapping(LazyDfa::INITIAL).collect::<Vec<_>>(),
            vec![ProjTree::ROOT]
        );
        // q1 = δ(q0, a) maps to {v2, v5}.
        let q1 = dfa.transition(&tree, LazyDfa::INITIAL, a).unwrap();
        assert_eq!(dfa.mapping(q1).collect::<Vec<_>>(), vec![v[0], v[3]]);
        // q2 = δ(q1, a) maps to ∅.
        let q2 = dfa.transition(&tree, q1, a).unwrap();
        assert_eq!(dfa.mapping(q2).count(), 0);
        // q3 = δ(q2, b) maps to {v6}.
        let q3 = dfa.transition(&tree, q2, b).unwrap();
        assert_eq!(dfa.mapping(q3).collect::<Vec<_>>(), vec![v[4]]);
        // q4 = δ(q1, b) maps to {v3, v6}.
        let q4 = dfa.transition(&tree, q1, b).unwrap();
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
        let mut dfa = LazyDfa::new(&tree);
        let q1 = dfa.transition(&tree, LazyDfa::INITIAL, a).unwrap();
        let q2 = dfa.transition(&tree, q1, a).unwrap();
        let q3 = dfa.transition(&tree, q2, b).unwrap();
        assert_eq!(dfa.mapping(q3).collect::<Vec<_>>(), vec![v3, v3]);
        assert_eq!(dfa.entry_roles(q3), &[Role(3), Role(3)]);
        // And /a/b maps to {v3} only.
        let q4 = dfa.transition(&tree, q1, b).unwrap();
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
        let mut dfa = LazyDfa::new(&tree);
        let q1 = dfa.transition(&tree, LazyDfa::INITIAL, a).unwrap();
        assert!(
            dfa.preserve_children(q1),
            "child ./b and descendant .//b edges for the same tag force preservation"
        );
        let q2 = dfa.transition(&tree, q1, a).unwrap();
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
        let mut dfa = LazyDfa::new(&tree);
        let q1 = dfa.transition(&tree, LazyDfa::INITIAL, a).unwrap();
        let before = dfa.len();
        let q1_again = dfa.transition(&tree, LazyDfa::INITIAL, a).unwrap();
        assert_eq!(q1, q1_again);
        assert_eq!(dfa.len(), before);
        let _ = dfa.transition(&tree, q1, b).unwrap();
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
        let mut dfa = LazyDfa::new(&tree);
        let q1 = dfa.transition(&tree, LazyDfa::INITIAL, a).unwrap();
        // /a/c and /a/c/c — the dead state self-collapses.
        let qc = dfa.transition(&tree, q1, c).unwrap();
        let qcc = dfa.transition(&tree, qc, c).unwrap();
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
        let mut dfa = LazyDfa::new(&tree);
        let qx = dfa.transition(&tree, LazyDfa::INITIAL, x).unwrap();
        let (buf, roles) = dfa.text_outcome(&tree, qx).unwrap();
        assert!(buf);
        let roles = roles.to_vec();
        assert_eq!(roles, vec![Role(5)]);
        let (buf2, roles2) = dfa.text_outcome(&tree, qx).unwrap();
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
        let mut dfa = LazyDfa::new(&tree);
        let qz = dfa.transition(&tree, LazyDfa::INITIAL, z).unwrap();
        assert!(dfa.is_dead(qz));
        let qa = dfa.transition(&tree, LazyDfa::INITIAL, a).unwrap();
        assert!(dfa.is_dead(qa), "a has no children in the projection tree");
        assert!(!dfa.is_dead(LazyDfa::INITIAL));
    }

    /// Search states (module docs): Q6's `/site/regions//item/name`.
    /// Below `regions` only `item` can act; below `item`, `name` and
    /// `item`; an element with any other tag lands in a search state
    /// whose exits are a subset. `*`, `text()`, `node()` and
    /// `[position()=1]` edges keep a state out of search mode.
    #[test]
    fn search_states_and_exits() {
        let mut tags = TagInterner::new();
        let [site, regions, item, name, other] =
            ["site", "regions", "item", "name", "other"].map(|t| tags.intern(t));
        let mut tree = ProjTree::new();
        let v_site = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(site)), None);
        let v_regions = tree.add_child(v_site, PStep::child(PTest::Tag(regions)), Some(Role(0)));
        let v_item = tree.add_child(
            v_regions,
            PStep::descendant(PTest::Tag(item)),
            Some(Role(1)),
        );
        let v_name = tree.add_child(v_item, PStep::child(PTest::Tag(name)), Some(Role(2)));
        tree.add_child(v_name, PStep::dos_node(), Some(Role(3)));
        let mut dfa = LazyDfa::new(&tree);
        let mut walk = |from, tag| dfa.transition(&tree, from, tag).unwrap();
        let q_site = walk(LazyDfa::INITIAL, site);
        let q_regions = walk(q_site, regions);
        let q_other = walk(q_regions, other);
        let q_item = walk(q_other, item);
        let q_deeper = walk(q_item, other);
        let q_name = walk(q_item, name);
        let (children, descendants) = (SearchScope::Children, SearchScope::Descendants);
        let search = |q| dfa.search(q).map(|(scope, exits)| (scope, exits.to_vec()));
        // No pending edge: child searches (see the test below).
        assert_eq!(search(LazyDfa::INITIAL), Some((children, vec![site])));
        assert_eq!(search(q_site), Some((children, vec![regions])));
        assert_eq!(search(q_regions), Some((descendants, vec![item])));
        assert_eq!(search(q_other), Some((descendants, vec![item])));
        assert_eq!(search(q_item), Some((descendants, vec![name, item])));
        assert_eq!(search(q_deeper), Some((descendants, vec![item])));
        assert_eq!(search(q_name), None, "dos::node() is pending");

        for test in [PTest::Star, PTest::Text] {
            let mut tree = ProjTree::new();
            let v = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(site)), None);
            tree.add_child(v, PStep::descendant(PTest::Tag(item)), Some(Role(0)));
            tree.add_child(v, PStep::child(test), Some(Role(1)));
            let mut dfa = LazyDfa::new(&tree);
            let q = dfa.transition(&tree, LazyDfa::INITIAL, site).unwrap();
            assert_eq!(dfa.search(q), None, "{test:?} child edge");
        }
        let mut tree = ProjTree::new();
        let v = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(site)), None);
        let first = PStep::with_pred(PAxis::Descendant, PTest::Tag(item), Pred::First);
        tree.add_child(v, first, Some(Role(0)));
        let mut dfa = LazyDfa::new(&tree);
        let q = dfa.transition(&tree, LazyDfa::INITIAL, site).unwrap();
        assert_eq!(dfa.search(q), None, "positional pending edge");
    }

    /// Child search states (module docs): Q20's shape, `/site/people/
    /// person` with child edges `name`, `profile` and `profile[1]`, and
    /// `income` below `profile`. Every state down to `profile` is a child
    /// search whose exits are the child edges' tags, first witnesses
    /// included; a non-exit child lands in a dead state, and a dead state
    /// is a child search with no exits. A `dos::node()` (pending), `*` or
    /// `text()` edge keeps a state out.
    #[test]
    fn child_search_states_and_exits() {
        let mut tags = TagInterner::new();
        let [site, people, person, name, profile, income, other] = [
            "site", "people", "person", "name", "profile", "income", "other",
        ]
        .map(|t| tags.intern(t));
        let mut tree = ProjTree::new();
        let child = |tree: &mut ProjTree, at, tag, role| {
            tree.add_child(at, PStep::child(PTest::Tag(tag)), role)
        };
        let v_site = child(&mut tree, ProjTree::ROOT, site, None);
        let v_people = child(&mut tree, v_site, people, None);
        let v_person = child(&mut tree, v_people, person, Some(Role(0)));
        let v_name = child(&mut tree, v_person, name, None);
        tree.add_child(v_name, PStep::dos_node(), Some(Role(1)));
        let v_profile = child(&mut tree, v_person, profile, Some(Role(2)));
        let first = PStep::with_pred(PAxis::Child, PTest::Tag(profile), Pred::First);
        tree.add_child(v_person, first, Some(Role(3)));
        let v_income = child(&mut tree, v_profile, income, None);
        tree.add_child(v_income, PStep::dos_node(), Some(Role(4)));
        let mut dfa = LazyDfa::new(&tree);
        let children = |dfa: &LazyDfa, q| match dfa.search(q) {
            Some((SearchScope::Children, exits)) => Some(exits.to_vec()),
            _ => None,
        };
        let mut walk = |from, tag| dfa.transition(&tree, from, tag).unwrap();
        let q_site = walk(LazyDfa::INITIAL, site);
        let q_people = walk(q_site, people);
        let q_person = walk(q_people, person);
        let q_name = walk(q_person, name);
        let q_other = walk(q_person, other);
        let mut stack = vec![LazyDfa::INITIAL, q_site, q_people, q_person];
        let mut fired = vec![0; stack.len() * dfa.fired_words()];
        assert_eq!(
            dfa.transition(&tree, q_person, profile),
            None,
            "a first witness"
        );
        let q_profile = dfa.first_witness(&tree, &stack, &mut fired, profile);
        stack.push(q_profile);
        let q_income = dfa.transition(&tree, q_profile, income).unwrap();
        assert_eq!(children(&dfa, LazyDfa::INITIAL), Some(vec![site]));
        assert_eq!(children(&dfa, q_people), Some(vec![person]));
        assert_eq!(children(&dfa, q_person), Some(vec![name, profile]));
        assert_eq!(children(&dfa, q_profile), Some(vec![income]));
        assert!(dfa.is_dead(q_other));
        assert_eq!(children(&dfa, q_other), Some(vec![]), "dead: no exits");
        assert_eq!(dfa.search(q_name), None, "dos::node() is pending");
        assert_eq!(dfa.search(q_income), None, "dos::node() is pending");

        for test in [PTest::Star, PTest::Text] {
            let mut tree = ProjTree::new();
            let v = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(site)), None);
            tree.add_child(v, PStep::child(PTest::Tag(people)), Some(Role(0)));
            tree.add_child(v, PStep::child(test), Some(Role(1)));
            let mut dfa = LazyDfa::new(&tree);
            let q = dfa.transition(&tree, LazyDfa::INITIAL, site).unwrap();
            assert_eq!(dfa.search(q), None, "{test:?} child edge");
        }
    }

    /// Copy states (module docs): below `//item/dos::node()` with no
    /// other edge, `item` and every non-`item` element under it hold the
    /// verdict with exit `item`; a nested `item` sees two `dos::node()`
    /// instances, and a child edge beside the `dos::node()` (condition
    /// (2)) or a second loop's `*` edge fails it.
    #[test]
    fn copy_states_and_exits() {
        let mut tags = TagInterner::new();
        let [site, item, name, other] = ["site", "item", "name", "other"].map(|t| tags.intern(t));
        let copy_tree = |extra: Option<PStep>| {
            let mut tree = ProjTree::new();
            let v_site = tree.add_child(ProjTree::ROOT, PStep::child(PTest::Tag(site)), None);
            let v_item = tree.add_child(v_site, PStep::descendant(PTest::Tag(item)), None);
            let dos = tree.add_child(v_item, PStep::dos_node(), Some(Role(3)));
            tree.set_aggregate(dos);
            if let Some(step) = extra {
                tree.add_child(v_item, step, Some(Role(4)));
            }
            tree
        };
        let tree = copy_tree(None);
        let mut dfa = LazyDfa::new(&tree);
        let mut walk = |from, tag| dfa.transition(&tree, from, tag).unwrap();
        let q_site = walk(LazyDfa::INITIAL, site);
        let q_item = walk(q_site, item);
        let q_name = walk(q_item, name);
        let q_deeper = walk(q_name, other);
        let q_nested = walk(q_name, item);
        assert_eq!(dfa.copy_exits(q_site), None, "no dos::node() edge");
        for q in [q_item, q_name, q_deeper] {
            assert_eq!(dfa.copy_exits(q), Some((Role(3), &[item][..])));
        }
        assert_eq!(q_name, q_deeper, "a non-exit element keeps the state");
        assert_eq!(dfa.copy_exits(q_nested), None, "two dos::node() instances");
        for extra in [
            PStep::child(PTest::Tag(name)),
            PStep::descendant(PTest::Star),
        ] {
            let tree = copy_tree(Some(extra));
            let mut dfa = LazyDfa::new(&tree);
            let q_site = dfa.transition(&tree, LazyDfa::INITIAL, site).unwrap();
            let q_item = dfa.transition(&tree, q_site, item).unwrap();
            assert_eq!(dfa.copy_exits(q_item), None, "{extra:?} beside dos::node()");
        }
    }

    /// `//x/price[1]`: the (x, price) transition is left to the event;
    /// the first price below each x lands, its later siblings do not, and
    /// a fresh fired set starts over. A known target builds no new state.
    #[test]
    fn first_witness_per_origin() {
        let mut tags = TagInterner::new();
        let x = tags.intern("x");
        let price = tags.intern("price");
        let mut tree = ProjTree::new();
        let vx = tree.add_child(
            ProjTree::ROOT,
            PStep::descendant(PTest::Tag(x)),
            Some(Role(1)),
        );
        let vp = tree.add_child(
            vx,
            PStep::with_pred(PAxis::Child, PTest::Tag(price), Pred::First),
            Some(Role(4)),
        );
        let mut dfa = LazyDfa::new(&tree);
        assert_eq!(dfa.fired_words(), 1);
        let qx = dfa.transition(&tree, LazyDfa::INITIAL, x).unwrap();
        assert_eq!(dfa.transition(&tree, qx, price), None, "left to the event");
        let stack = [LazyDfa::INITIAL, qx];
        let mut fired = [0u64; 2];
        let first = dfa.first_witness(&tree, &stack, &mut fired, price);
        assert_eq!(dfa.mapping(first).collect::<Vec<_>>(), vec![vp]);
        assert_eq!(dfa.entry_roles(first), &[Role(4)]);
        assert_eq!(fired, [0, 1], "x is the origin");
        let second = dfa.first_witness(&tree, &stack, &mut fired, price);
        assert!(!dfa.has_matches(second));
        let states = dfa.len();
        let mut fresh = [0u64; 2];
        assert_eq!(dfa.first_witness(&tree, &stack, &mut fresh, price), first);
        assert_eq!(dfa.len(), states, "a known target is interned, not rebuilt");
    }

    /// The transition matrix is sized by the query's named tags, not by
    /// the document's vocabulary: over `//a//b` (k = 2), a document with
    /// T distinct unnamed tags before D nested `<a>`s builds the same
    /// states and a `states × 3` matrix at T = 1 000 and at T = 2 000.
    #[test]
    fn matrix_width_is_independent_of_the_vocabulary() {
        use gcx_xml::{XmlEvent, XmlLexer};
        let mut sizes = Vec::new();
        for t in [1_000, 2_000] {
            let mut tags = TagInterner::new();
            let (a, b) = (tags.intern("a"), tags.intern("b"));
            let mut tree = ProjTree::new();
            let va = tree.add_child(
                ProjTree::ROOT,
                PStep::descendant(PTest::Tag(a)),
                Some(Role(0)),
            );
            tree.add_child(va, PStep::descendant(PTest::Tag(b)), Some(Role(1)));
            let mut doc = String::from("<r>");
            for i in 0..t {
                doc.push_str(&format!("<x{i}/>"));
            }
            doc.push_str(&"<a>".repeat(50));
            doc.push_str("<b/>");
            doc.push_str(&"</a>".repeat(50));
            doc.push_str("</r>");
            let mut dfa = LazyDfa::new(&tree);
            let mut stack = vec![LazyDfa::INITIAL];
            let mut lexer = XmlLexer::new(doc.as_bytes(), &mut tags);
            while let Some(event) = lexer.next_event().unwrap() {
                match event {
                    XmlEvent::Open(tag) => {
                        let from = *stack.last().unwrap();
                        stack.push(dfa.transition(&tree, from, tag).unwrap());
                    }
                    XmlEvent::Close(_) => {
                        stack.pop();
                    }
                    XmlEvent::Text(_) => {}
                }
            }
            assert!(lexer.tags().len() > t, "every x{{i}} was interned");
            assert_eq!(dfa.width, 3, "k = 2 named tags plus class 0");
            assert_eq!(dfa.trans.len(), dfa.len() * 3);
            sizes.push((dfa.len(), dfa.trans.len()));
        }
        assert_eq!(
            sizes[0], sizes[1],
            "states and matrix size do not depend on T"
        );
    }
}
