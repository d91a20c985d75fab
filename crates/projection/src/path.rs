//! Projection path steps (paper §2).
//!
//! A projection tree's inner nodes are labeled with location steps
//! `axis::x[p]` where `axis` is `child`, `descendant` or
//! `descendant-or-self`, `x` is `*`, a tag name, `text()` or the wildcard
//! `node()`, and `p` is either `true` (omitted) or `position() = 1` (used
//! for existence checks, where only the first witness matters).

use gcx_xml::{TagId, TagInterner};
use std::fmt;

/// Axis of a projection path step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PAxis {
    Child,
    Descendant,
    /// `descendant-or-self`, abbreviated "dos" in the paper.
    DescendantOrSelf,
}

impl PAxis {
    /// True for the two axes that reach arbitrarily deep.
    pub fn is_descendant_like(self) -> bool {
        !matches!(self, PAxis::Child)
    }
}

/// Node test of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PTest {
    /// A specific element tag.
    Tag(TagId),
    /// `*` — any element.
    Star,
    /// `text()` — any text node.
    Text,
    /// `node()` — any element or text node.
    AnyNode,
}

impl PTest {
    /// Does this test accept an element with tag `t`?
    #[inline]
    pub fn matches_element(self, t: TagId) -> bool {
        match self {
            PTest::Tag(x) => x == t,
            PTest::Star | PTest::AnyNode => true,
            PTest::Text => false,
        }
    }

    /// Does this test accept a text node?
    #[inline]
    pub fn matches_text(self) -> bool {
        matches!(self, PTest::Text | PTest::AnyNode)
    }

    /// Could `self` and `other` accept the *same* node? Used by the
    /// preservation condition (2) of the paper ("for the same tagname a"),
    /// generalized to wildcards conservatively.
    pub fn overlaps(self, other: PTest) -> bool {
        use PTest::*;
        match (self, other) {
            (Tag(a), Tag(b)) => a == b,
            (Text, Text) => true,
            (Text, Star) | (Star, Text) => false,
            (Tag(_), Text) | (Text, Tag(_)) => false,
            (AnyNode, _) | (_, AnyNode) => true,
            (Star, _) | (_, Star) => true,
        }
    }
}

/// Step predicate: `[true]` (omitted) or `[position() = 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Pred {
    #[default]
    True,
    /// `[position() = 1]` — keep only the first witness (per origin
    /// instance; see `dfa`, "First witnesses").
    First,
}

/// One location step `axis::test[pred]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PStep {
    pub axis: PAxis,
    pub test: PTest,
    pub pred: Pred,
}

impl PStep {
    pub fn new(axis: PAxis, test: PTest) -> Self {
        PStep {
            axis,
            test,
            pred: Pred::True,
        }
    }

    pub fn with_pred(axis: PAxis, test: PTest, pred: Pred) -> Self {
        PStep { axis, test, pred }
    }

    /// `child::t`
    pub fn child(test: PTest) -> Self {
        Self::new(PAxis::Child, test)
    }

    /// `descendant::t`
    pub fn descendant(test: PTest) -> Self {
        Self::new(PAxis::Descendant, test)
    }

    /// `dos::node()` — the step the paper appends to dependency paths for
    /// output and comparison expressions.
    pub fn dos_node() -> Self {
        Self::new(PAxis::DescendantOrSelf, PTest::AnyNode)
    }

    /// Renders the step in the paper's notation (`/price\[1\]`,
    /// `dos::node()`, `//book`, …).
    pub fn display<'a>(&'a self, tags: &'a TagInterner) -> StepDisplay<'a> {
        StepDisplay { step: self, tags }
    }

    /// Renders only `test[pred]`, without the axis prefix (used when the
    /// axis is rendered as `/` or `//` by the caller).
    pub fn display_test<'a>(&'a self, tags: &'a TagInterner) -> TestDisplay<'a> {
        TestDisplay { step: self, tags }
    }
}

/// A relative path: a sequence of steps (used in dependencies and in
/// `signOff($x/π, r)` statements).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct RelPath {
    pub steps: Vec<PStep>,
}

impl RelPath {
    /// The empty path ε (refers to the variable's own binding).
    pub fn empty() -> Self {
        RelPath { steps: Vec::new() }
    }

    pub fn single(step: PStep) -> Self {
        RelPath { steps: vec![step] }
    }

    pub fn from_steps(steps: Vec<PStep>) -> Self {
        RelPath { steps }
    }

    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Appends a step, returning the extended path.
    pub fn then(mut self, step: PStep) -> Self {
        self.steps.push(step);
        self
    }

    /// Renders in the paper's notation, e.g. `title/dos::node()`.
    pub fn display<'a>(&'a self, tags: &'a TagInterner) -> RelPathDisplay<'a> {
        RelPathDisplay { path: self, tags }
    }
}

/// Display helper for [`PStep`].
pub struct StepDisplay<'a> {
    step: &'a PStep,
    tags: &'a TagInterner,
}

impl fmt::Display for StepDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.step.axis {
            PAxis::Child => {}
            PAxis::Descendant => write!(f, "descendant::")?,
            PAxis::DescendantOrSelf => write!(f, "dos::")?,
        }
        match self.step.test {
            PTest::Tag(t) => write!(f, "{}", self.tags.name(t))?,
            PTest::Star => write!(f, "*")?,
            PTest::Text => write!(f, "text()")?,
            PTest::AnyNode => write!(f, "node()")?,
        }
        if self.step.pred == Pred::First {
            write!(f, "[1]")?;
        }
        Ok(())
    }
}

/// Display helper rendering only the node test and predicate of a step.
pub struct TestDisplay<'a> {
    step: &'a PStep,
    tags: &'a TagInterner,
}

impl fmt::Display for TestDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.step.test {
            PTest::Tag(t) => write!(f, "{}", self.tags.name(t))?,
            PTest::Star => write!(f, "*")?,
            PTest::Text => write!(f, "text()")?,
            PTest::AnyNode => write!(f, "node()")?,
        }
        if self.step.pred == Pred::First {
            write!(f, "[1]")?;
        }
        Ok(())
    }
}

/// Display helper for [`RelPath`].
pub struct RelPathDisplay<'a> {
    path: &'a RelPath,
    tags: &'a TagInterner,
}

impl fmt::Display for RelPathDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.steps.is_empty() {
            return write!(f, "ε");
        }
        for (i, s) in self.path.steps.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{}", s.display(self.tags))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_xml::TagInterner;

    #[test]
    fn test_matching() {
        let mut tags = TagInterner::new();
        let a = tags.intern("a");
        let b = tags.intern("b");
        assert!(PTest::Tag(a).matches_element(a));
        assert!(!PTest::Tag(a).matches_element(b));
        assert!(PTest::Star.matches_element(a));
        assert!(!PTest::Star.matches_text());
        assert!(PTest::Text.matches_text());
        assert!(!PTest::Text.matches_element(a));
        assert!(PTest::AnyNode.matches_element(a));
        assert!(PTest::AnyNode.matches_text());
    }

    #[test]
    fn overlap_rules() {
        let mut tags = TagInterner::new();
        let a = tags.intern("a");
        let b = tags.intern("b");
        assert!(PTest::Tag(a).overlaps(PTest::Tag(a)));
        assert!(!PTest::Tag(a).overlaps(PTest::Tag(b)));
        assert!(PTest::Tag(a).overlaps(PTest::Star));
        assert!(PTest::Tag(a).overlaps(PTest::AnyNode));
        assert!(!PTest::Text.overlaps(PTest::Star));
        assert!(PTest::Text.overlaps(PTest::AnyNode));
        assert!(!PTest::Tag(a).overlaps(PTest::Text));
    }

    #[test]
    fn display_notation() {
        let mut tags = TagInterner::new();
        let price = tags.intern("price");
        let s = PStep::with_pred(PAxis::Child, PTest::Tag(price), Pred::First);
        assert_eq!(s.display(&tags).to_string(), "price[1]");
        assert_eq!(PStep::dos_node().display(&tags).to_string(), "dos::node()");
        let p = RelPath::single(PStep::child(PTest::Tag(price))).then(PStep::dos_node());
        assert_eq!(p.display(&tags).to_string(), "price/dos::node()");
        assert_eq!(RelPath::empty().display(&tags).to_string(), "ε");
    }

    #[test]
    fn descendant_like() {
        assert!(!PAxis::Child.is_descendant_like());
        assert!(PAxis::Descendant.is_descendant_like());
        assert!(PAxis::DescendantOrSelf.is_descendant_like());
    }
}
