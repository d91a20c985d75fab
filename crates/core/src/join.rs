//! Key pre-filters for re-entered equality joins: the dynamic half of
//! `gcx_query::keyfilter`.
//!
//! A filterable loop `for $t in $s/step return BODY` (XMark Q8's
//! `closed_auction` loop) is re-entered once per binding of the outer
//! operand's variable (`$p`), and BODY can only have an effect through
//! `if ($b/person = $p/id)`. The first entry runs unfiltered and pumps as
//! usual. A later entry over the same, by then finished, base builds an
//! index once: the sorted `(key hash, ordinal, binding)` triples of the
//! base's matches, keyed by each binding's inner-operand values
//! ([`eq_key`]). Every entry after that hashes the outer operand's values
//! and runs BODY, unchanged, on the matching bindings only, in document
//! order; the `if` still evaluates the real comparison.
//!
//! **Where it pays.** The query side marks every loop of a nest where
//! filtering is sound — in Q8 also the rewriting's single-binding
//! `for $tmp_3 in $root/site` and `for $tmp_4 in $tmp_3/closed_auctions`.
//! A base with fewer than two bindings is never indexed, and an entry
//! whose candidates are all the bindings runs unfiltered, which leaves a
//! marked loop inside it free to filter. Filtered loops never nest: one
//! inside an active filtered loop runs unfiltered.
//!
//! **Why output is unchanged.** A finished base gains no nodes and its
//! text never changes; garbage collection only removes nodes. A binding
//! outside the candidate set has no inner value equal to any outer value,
//! so its BODY would produce nothing — and BODY holds no `signOff`, so
//! skipping it changes no role either. Candidates purged since the build
//! are skipped at bind time, exactly as a cursor would never reach them.
//!
//! **Lifetime.** The base is pinned while its index is cached, so its
//! slot can never be recycled into a different node that would hit the
//! stale index. Indexes are dropped, and bases unpinned, when the loop
//! binding the outer operand's variable ends. Their bytes are charged to
//! the buffer's footprint ([`BufferTree::charge_aux`]), so `peak_bytes`
//! includes them.

use crate::value::eq_key;
use gcx_buffer::{BufNodeId, BufferTree};
use gcx_query::{Axis, KeyFilter, NodeTest, Step, VarId};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// `(key hash, ordinal of the binding among the base's matches, binding)`.
type IndexEntry = (u64, u32, BufNodeId);

enum Slot {
    /// Entered once, unfiltered; the next entry may build.
    Seen,
    /// Finished with fewer than two bindings: nothing to skip.
    Plain,
    /// The index over `bindings` matches of the base.
    Built {
        index: Vec<IndexEntry>,
        bindings: usize,
    },
}

/// The cached indexes of one engine run, keyed by (filter, base), plus
/// the active filtered loop's candidates.
#[derive(Default)]
pub(crate) struct JoinIndexes {
    slots: HashMap<(usize, BufNodeId), Slot>,
    /// A filtered loop is running (so one candidate list serves the run).
    active: bool,
    /// Candidates of the active filtered loop, in document order.
    pub(crate) cands: Vec<BufNodeId>,
    hits: Vec<(u32, BufNodeId)>,
    nodes: Vec<BufNodeId>,
    text: String,
}

impl JoinIndexes {
    /// Prepares entry `filter` (`f`, the loop stepping `step` from
    /// `base`) for the outer operand's binding `outer`. Returns `None`
    /// when this entry must run unfiltered, otherwise the number of
    /// bindings indexed (0 on a cache hit) with the candidates left in
    /// `self.cands` and the filtered loop active until [`Self::leave`].
    pub(crate) fn enter(
        &mut self,
        filter: usize,
        f: &KeyFilter,
        step: Step,
        base: BufNodeId,
        outer: BufNodeId,
        buffer: &mut BufferTree,
    ) -> Option<usize> {
        if self.active || !buffer.is_finished(outer) {
            return None;
        }
        let mut built = 0;
        let slot = match self.slots.entry((filter, base)) {
            Entry::Vacant(v) => {
                v.insert(Slot::Seen);
                return None;
            }
            Entry::Occupied(o) => o.into_mut(),
        };
        if let Slot::Seen = slot {
            if !buffer.is_finished(base) {
                return None;
            }
            let (index, bindings) = build(f, step, base, buffer);
            built = bindings;
            *slot = if bindings < 2 {
                Slot::Plain
            } else {
                buffer.pin(base);
                buffer.charge_aux(index_bytes(&index));
                Slot::Built { index, bindings }
            };
        }
        let Slot::Built { index, bindings } = slot else {
            return None;
        };
        self.hits.clear();
        self.nodes.clear();
        collect_matches(buffer, outer, f.outer_step, &mut self.nodes);
        for &n in &self.nodes {
            self.text.clear();
            buffer.string_value_into(n, &mut self.text);
            let Some(key) = eq_key(&self.text) else {
                continue;
            };
            let h = hash_key(key);
            let lo = index.partition_point(|e| e.0 < h);
            for &(_, ord, t) in index[lo..].iter().take_while(|e| e.0 == h) {
                self.hits.push((ord, t));
            }
        }
        self.hits.sort_unstable();
        self.hits.dedup();
        if self.hits.len() == *bindings {
            return None;
        }
        self.cands.clear();
        self.cands.extend(self.hits.iter().map(|&(_, t)| t));
        self.active = true;
        Some(built)
    }

    /// The active filtered loop ended.
    pub(crate) fn leave(&mut self) {
        self.active = false;
    }

    /// Drops the indexes keyed on `outer_var` (its loop just ended),
    /// unpinning their bases and returning their bytes.
    pub(crate) fn release(
        &mut self,
        outer_var: VarId,
        filters: &[KeyFilter],
        buffer: &mut BufferTree,
    ) {
        if self.slots.is_empty() {
            return;
        }
        self.slots.retain(|&(filter, base), slot| {
            if filters[filter].outer_var != outer_var {
                return true;
            }
            if let Slot::Built { index, .. } = slot {
                buffer.release_aux(index_bytes(index));
                buffer.unpin(base);
            }
            false
        });
    }
}

/// True when candidate `n` is still a node under `base`: purged slots
/// are dead or, once recycled, hang elsewhere (a finished base gains no
/// nodes).
pub(crate) fn still_under(buffer: &BufferTree, n: BufNodeId, base: BufNodeId) -> bool {
    if !buffer.is_alive(n) {
        return false;
    }
    let mut at = buffer.parent(n);
    while let Some(p) = at {
        if p == base {
            return true;
        }
        at = buffer.parent(p);
    }
    false
}

/// The index over a finished `base` — one entry per (binding, distinct
/// inner-operand key), sorted by hash then document order — and the
/// number of bindings.
fn build(
    f: &KeyFilter,
    step: Step,
    base: BufNodeId,
    buffer: &BufferTree,
) -> (Vec<IndexEntry>, usize) {
    let mut bindings = Vec::new();
    collect_matches(buffer, base, step, &mut bindings);
    let mut index = Vec::new();
    let (mut frontier, mut next) = (Vec::new(), Vec::new());
    let mut text = String::new();
    for (ord, &t) in bindings.iter().enumerate() {
        frontier.clear();
        frontier.push(t);
        for &s in f.inner_chain.iter().chain([&f.inner_step]) {
            next.clear();
            for &n in &frontier {
                collect_matches(buffer, n, s, &mut next);
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        for &n in &frontier {
            text.clear();
            buffer.string_value_into(n, &mut text);
            if let Some(key) = eq_key(&text) {
                index.push((hash_key(key), ord as u32, t));
            }
        }
    }
    index.sort_unstable();
    index.dedup();
    index.shrink_to_fit();
    (index, bindings.len())
}

fn index_bytes(index: &[IndexEntry]) -> usize {
    std::mem::size_of_val(index)
}

fn hash_key(key: crate::value::EqKey<'_>) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

pub(crate) fn node_matches(buffer: &BufferTree, n: BufNodeId, test: NodeTest) -> bool {
    match test {
        NodeTest::Tag(t) => buffer.tag(n) == Some(t),
        NodeTest::Star => buffer.tag(n).is_some(),
        NodeTest::Text => buffer.is_text(n),
    }
}

/// Appends the buffered matches of `step` under a *finished* `base` (no
/// pumping) to `out`, in document order.
pub(crate) fn collect_matches(
    buffer: &BufferTree,
    base: BufNodeId,
    step: Step,
    out: &mut Vec<BufNodeId>,
) {
    match step.axis {
        Axis::Child => {
            let mut c = buffer.first_child(base);
            while let Some(n) = c {
                if node_matches(buffer, n, step.test) {
                    out.push(n);
                }
                c = buffer.next_sibling(n);
            }
        }
        Axis::Descendant => {
            let mut cur = base;
            while let Some(n) = buffer.next_in_subtree(base, cur) {
                if node_matches(buffer, n, step.test) {
                    out.push(n);
                }
                cur = n;
            }
        }
    }
}
