//! The reference matcher: the projection semantics of paper §2 simulated
//! with one explicit frame per open element, built only on the public
//! `ProjTree`/`PStep` API. It is written for clarity, not speed: every
//! pending edge carries the frame that spawned it, and every frame keeps
//! the positional steps it has fired, so `[position()=1]` is "first
//! witness below this origin instance" by construction. Tests compare
//! `StreamMatcher` (the lazy DFA) against it at every event.

use gcx_projection::{PAxis, PTest, Pred, ProjNodeId, ProjTree, Role};
use gcx_xml::TagId;

/// One verdict: buffer the node?, and its role multiset (sorted).
pub type Verdict = (bool, Vec<Role>);

/// A match: the projection node, and whether it was reached "as self"
/// through a `dos::node()` self-closure (aggregate roles land only there).
type Match = (ProjNodeId, bool);

struct Frame {
    matches: Vec<Match>,
    /// Descendant-like edges reaching below this frame, with the index of
    /// the frame that spawned each (its origin).
    pending: Vec<(ProjNodeId, usize)>,
    /// Positional steps that have fired with this frame as origin.
    fired: Vec<ProjNodeId>,
    /// Condition (2) for this frame's children.
    preserve_children: bool,
    /// Nothing below this frame can match.
    dead_below: bool,
}

pub struct RefMatcher<'t> {
    tree: &'t ProjTree,
    frames: Vec<Frame>,
}

impl<'t> RefMatcher<'t> {
    pub fn new(tree: &'t ProjTree) -> Self {
        let mut matches = vec![(ProjTree::ROOT, false)];
        // The virtual root is neither element nor text: only `node()`
        // closes over it.
        close_self(tree, &mut matches, |t| matches!(t, PTest::AnyNode));
        let root = frame(tree, matches, Vec::new(), 0);
        RefMatcher {
            tree,
            frames: vec![root],
        }
    }

    pub fn root_roles(&self) -> Vec<Role> {
        roles(self.tree, &self.frames[0].matches)
    }

    pub fn is_dead(&self) -> bool {
        self.frames.last().expect("root frame").dead_below
    }

    pub fn open(&mut self, tag: TagId) -> Verdict {
        let matches = self.candidates(|t| t.matches_element(tag));
        let parent = self.frames.last().expect("root frame");
        let buffer = !matches.is_empty() || parent.preserve_children;
        let roles = roles(self.tree, &matches);
        let inherited = parent.pending.clone();
        let own = self.frames.len();
        self.frames.push(frame(self.tree, matches, inherited, own));
        (buffer, roles)
    }

    pub fn close(&mut self) {
        self.frames.pop();
        assert!(!self.frames.is_empty(), "close below the document root");
    }

    pub fn text(&mut self) -> Verdict {
        let matches = self.candidates(PTest::matches_text);
        (!matches.is_empty(), roles(self.tree, &matches))
    }

    /// The matches of a node entering below the top frame whose test
    /// `accepts` it: child edges of the top frame's matches and pending
    /// edges, each with its origin; a positional edge keeps its
    /// candidates only from origins that had not fired it before this
    /// event (all of an origin's candidates of this event stay: that is
    /// its spawn multiplicity), then the dos self-closure.
    fn candidates(&mut self, accepts: impl Fn(PTest) -> bool) -> Vec<Match> {
        let tree = self.tree;
        let top = self.frames.len() - 1;
        let mut cands = Vec::new();
        for &(m, _) in &self.frames[top].matches {
            for &c in tree.children(m) {
                let s = tree.step(c);
                if s.axis == PAxis::Child && accepts(s.test) {
                    cands.push((c, top));
                }
            }
        }
        for &(p, origin) in &self.frames[top].pending {
            if accepts(tree.step(p).test) {
                cands.push((p, origin));
            }
        }
        let positional = |c: ProjNodeId| tree.step(c).pred == Pred::First;
        let earlier: Vec<bool> = cands
            .iter()
            .map(|&(c, o)| positional(c) && self.frames[o].fired.contains(&c))
            .collect();
        let mut matches = Vec::new();
        for (&(c, o), fired_before) in cands.iter().zip(earlier) {
            if fired_before {
                continue;
            }
            if positional(c) && !self.frames[o].fired.contains(&c) {
                self.frames[o].fired.push(c);
            }
            matches.push((c, false));
        }
        close_self(tree, &mut matches, accepts);
        matches
    }
}

/// A frame for fresh matches: inherited pending edges plus those the
/// matches spawn (with origin `own`), and the two precomputed verdicts.
fn frame(
    tree: &ProjTree,
    matches: Vec<Match>,
    mut pending: Vec<(ProjNodeId, usize)>,
    own: usize,
) -> Frame {
    for &(m, _) in &matches {
        for &c in tree.children(m) {
            if tree.step(c).axis.is_descendant_like() {
                pending.push((c, own));
            }
        }
    }
    // Condition (2): a child edge and a pending edge that can accept the
    // same node.
    let preserve_children = matches.iter().any(|&(m, _)| {
        tree.children(m).iter().any(|&c| {
            let s = tree.step(c);
            s.axis == PAxis::Child
                && pending
                    .iter()
                    .any(|&(p, _)| s.test.overlaps(tree.step(p).test))
        })
    });
    let dead_below = pending.is_empty()
        && !preserve_children
        && matches.iter().all(|&(m, _)| tree.children(m).is_empty());
    Frame {
        matches,
        pending,
        fired: Vec::new(),
        preserve_children,
        dead_below,
    }
}

/// The `dos::node()` self-closure: a matched node's `descendant-or-self`
/// child whose test accepts the current node matches too, recursively.
fn close_self(tree: &ProjTree, matches: &mut Vec<Match>, accepts: impl Fn(PTest) -> bool) {
    let mut i = 0;
    while i < matches.len() {
        for &c in tree.children(matches[i].0) {
            let s = tree.step(c);
            if s.axis == PAxis::DescendantOrSelf && accepts(s.test) {
                matches.push((c, true));
            }
        }
        i += 1;
    }
}

/// The sorted role multiset of `matches`.
fn roles(tree: &ProjTree, matches: &[Match]) -> Vec<Role> {
    let mut roles: Vec<Role> = matches
        .iter()
        .filter_map(|&(m, via_self)| {
            let n = tree.node(m);
            n.role.filter(|_| !n.aggregate || via_self)
        })
        .collect();
    roles.sort();
    roles
}
