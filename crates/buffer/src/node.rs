//! The buffer tree and active garbage collection (paper §5, §6, Fig. 10).

use crate::stats::{BufferAccounting, BufferStats, LiveBufferStats};
use gcx_obs::{FlightRecorder, SpanKind};
use gcx_projection::{Role, RoleSet};
use gcx_xml::TagId;
use std::fmt;
use std::sync::Arc;

/// High-water trace events fire only when `peak_bytes` crosses a new
/// multiple of this step — per-allocation peaks would drown the trace.
const HIGH_WATER_STEP: usize = 64 * 1024;

/// Index of a node in the buffer arena. Slots are recycled after purging;
/// the engine guarantees (via roles and pins) that it never dereferences a
/// purged id. Debug builds verify liveness on every access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufNodeId(pub u32);

impl BufNodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Address of a text node's content within the buffer's shared text
/// arena: an `(offset, len)` pair. Node churn no longer churns the
/// allocator — text bytes live in one append-only arena per buffer,
/// reclaimed wholesale by the garbage-collection sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextSpan {
    /// Byte offset into [`BufferTree`]'s text arena.
    pub offset: u32,
    /// Length in bytes.
    pub len: u32,
}

impl TextSpan {
    #[inline]
    fn range(self) -> std::ops::Range<usize> {
        let start = self.offset as usize;
        start..start + self.len as usize
    }
}

/// Payload of a buffered node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufKind {
    /// The virtual document root; never purged.
    Root,
    /// An element with an interned tag.
    Element(TagId),
    /// Character data, stored in the buffer's text arena.
    Text(TextSpan),
}

/// Errors surfaced by buffer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufferError {
    /// A signOff removed more instances of a role than a node carries —
    /// safety requirement (1) of the paper is violated.
    UndefinedRoleRemoval {
        node: u32,
        role: Role,
        wanted: u32,
        had: u32,
    },
    /// Access to a node slot that is not alive (engine bug).
    DeadNode(u32),
    /// Buffering one more node would exceed the installed
    /// [`BufferAccounting`] budget. The document genuinely needs more
    /// buffer than the session is allowed; the engine surfaces this as a
    /// clean per-session error.
    BudgetExceeded {
        /// Bytes the refused allocation needed.
        requested: usize,
        /// Bytes accounted when the reservation was refused.
        used: usize,
        /// The accounting limit.
        limit: usize,
    },
}

impl fmt::Display for BufferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferError::UndefinedRoleRemoval {
                node,
                role,
                wanted,
                had,
            } => write!(
                f,
                "undefined role removal: node {node} holds {had} instance(s) of {role}, \
                 signOff removed {wanted} (safety requirement 1 violated)"
            ),
            BufferError::DeadNode(n) => write!(f, "access to purged buffer node {n}"),
            BufferError::BudgetExceeded {
                requested,
                used,
                limit,
            } => write!(
                f,
                "memory budget exceeded: buffering {requested}B more engine data \
                 does not fit ({used}B used of {limit}B)"
            ),
        }
    }
}

impl std::error::Error for BufferError {}

struct Node {
    kind: BufKind,
    parent: Option<BufNodeId>,
    first_child: Option<BufNodeId>,
    last_child: Option<BufNodeId>,
    prev_sibling: Option<BufNodeId>,
    next_sibling: Option<BufNodeId>,
    roles: RoleSet,
    /// Total role instances in this node's subtree (including itself).
    subtree_roles: u32,
    /// Total pins in this node's subtree (including itself).
    subtree_pins: u32,
    /// Pins on this node (active evaluator cursors).
    pins: u32,
    /// Number of *aggregate* role instances on this node.
    own_agg: u32,
    /// Closing tag seen.
    finished: bool,
    /// Fig. 10: irrelevant but unfinished/pinned — purge when possible.
    marked: bool,
    alive: bool,
}

impl Node {
    fn bytes(&self) -> usize {
        std::mem::size_of::<Node>()
            + match &self.kind {
                BufKind::Text(sp) => sp.len as usize,
                _ => 0,
            }
            + self.roles.approx_bytes()
    }
}

/// The GCX buffer: a projected document tree with role multisets and
/// active garbage collection. See crate docs.
pub struct BufferTree {
    nodes: Vec<Node>,
    free: Vec<u32>,
    stats: BufferStats,
    /// `is_aggregate[r]` — static per-role flag from the projection tree.
    is_aggregate: Vec<bool>,
    /// Per-role assigned/removed instance counters (safety accounting).
    assigned: Vec<u64>,
    removed: Vec<u64>,
    /// Append-only text arena addressed by [`TextSpan`]s. Freed spans at
    /// the arena tail are truncated immediately; otherwise the arena is
    /// cleared wholesale once no live text node references it, so the
    /// steady-state streaming pattern (buffer a little, GC it away)
    /// reuses one capacity forever.
    text: Vec<u8>,
    /// Bytes of the arena referenced by live text nodes.
    live_text_bytes: usize,
    /// Optional atomic mirror of the live footprint, published after
    /// every footprint-changing operation (live `/stats` sampling).
    live: Option<Arc<LiveBufferStats>>,
    /// Pooled traversal stack for subtree purges (taken/restored by
    /// `delete_subtree`; capacity sticks across GC sweeps).
    sweep: Vec<BufNodeId>,
    /// Optional shared budget charged for the *stable* per-node cost
    /// (fixed node size + text payload; role growth is excluded so every
    /// reserve has an exactly matching release).
    accounting: Option<Arc<dyn BufferAccounting>>,
    /// Bytes currently reserved against `accounting` (released on purge
    /// and wholesale on drop).
    accounted_bytes: usize,
    /// Optional flight recorder + trace ID: buffer events (node buffered,
    /// signOff, subtree delete, budget reserve/reject, high-water) are
    /// recorded as instants stamped with `stream_offset`.
    flight: Option<(Arc<FlightRecorder>, u64)>,
    /// Byte offset in the input stream of the event currently being
    /// applied (pushed by the preprojector before each buffer mutation).
    stream_offset: u64,
}

impl BufferTree {
    /// The virtual root id.
    pub const ROOT: BufNodeId = BufNodeId(0);

    /// Creates a buffer whose role universe has `role_count` roles;
    /// `aggregate_roles` lists the roles flagged aggregate (paper §6).
    pub fn new(role_count: usize, aggregate_roles: &[Role]) -> Self {
        let mut is_aggregate = vec![false; role_count];
        for r in aggregate_roles {
            is_aggregate[r.index()] = true;
        }
        let mut tree = BufferTree {
            nodes: Vec::with_capacity(1024),
            // Pre-sized: the free list and sweep stack grow with GC churn
            // from the very first purge — reserving here keeps the
            // steady-state purge loop off the allocator.
            free: Vec::with_capacity(256),
            stats: BufferStats::default(),
            is_aggregate,
            assigned: vec![0; role_count],
            removed: vec![0; role_count],
            text: Vec::new(),
            live_text_bytes: 0,
            live: None,
            sweep: Vec::with_capacity(64),
            accounting: None,
            accounted_bytes: 0,
            flight: None,
            stream_offset: 0,
        };
        let root = tree
            .alloc(BufKind::Root, None)
            .expect("no accounting installed at construction");
        debug_assert_eq!(root, Self::ROOT);
        // The root is never purged; it is born finished once the stream
        // ends, but unfinished status is irrelevant for it.
        tree
    }

    /// Buffer statistics (live/peak nodes and bytes, GC counters).
    pub fn stats(&self) -> &BufferStats {
        &self.stats
    }

    /// Installs an atomic mirror of the live footprint; other threads can
    /// sample it mid-run (see [`LiveBufferStats`]). Publishes the current
    /// state immediately.
    pub fn set_live_stats(&mut self, live: Arc<LiveBufferStats>) {
        live.publish(&self.stats, self.text.len());
        self.live = Some(live);
    }

    /// Installs a shared accounting hook charged for the engine buffer's
    /// stable per-node cost. Once installed, node construction fails with
    /// [`BufferError::BudgetExceeded`] when the hook refuses a
    /// reservation. Nodes already buffered stay accounted until purged
    /// (or until the tree drops).
    pub fn set_accounting(&mut self, accounting: Arc<dyn BufferAccounting>) {
        self.accounting = Some(accounting);
    }

    /// Installs a flight recorder: buffer events for this tree are
    /// recorded under `trace_id` as instants stamped with the input
    /// stream offset (see [`BufferTree::set_stream_offset`]).
    pub fn set_flight_recorder(&mut self, recorder: Arc<FlightRecorder>, trace_id: u64) {
        self.flight = Some((recorder, trace_id));
    }

    /// Updates the input-stream byte offset stamped onto subsequent
    /// buffer events. The preprojector pushes the lexer offset here
    /// before applying each stream event (only when a recorder is
    /// installed).
    #[inline]
    pub fn set_stream_offset(&mut self, offset: u64) {
        self.stream_offset = offset;
    }

    /// Records a buffer-event instant when a recorder is installed.
    #[inline]
    fn trace_event(&self, kind: SpanKind, value: u64) {
        if let Some((rec, tid)) = &self.flight {
            rec.record_instant(*tid, kind, self.stream_offset, value);
        }
    }

    /// The stable, reserve/release-symmetric accounting cost of a node.
    #[inline]
    fn charge_for(kind: &BufKind) -> usize {
        std::mem::size_of::<Node>()
            + match kind {
                BufKind::Text(sp) => sp.len as usize,
                _ => 0,
            }
    }

    /// Pushes the current footprint to the installed live mirror.
    #[inline]
    fn publish_live(&self) {
        if let Some(live) = &self.live {
            live.publish(&self.stats, self.text.len());
        }
    }

    /// Per-role (assigned, removed) instance counters.
    pub fn role_accounting(&self, role: Role) -> (u64, u64) {
        (self.assigned[role.index()], self.removed[role.index()])
    }

    /// True when every assigned role instance has been removed — safety
    /// requirement (2) of the paper after complete evaluation.
    pub fn all_roles_returned(&self) -> bool {
        self.assigned.iter().zip(&self.removed).all(|(a, r)| a == r)
    }

    fn alloc(
        &mut self,
        kind: BufKind,
        parent: Option<BufNodeId>,
    ) -> Result<BufNodeId, BufferError> {
        if let Some(acc) = &self.accounting {
            let requested = Self::charge_for(&kind);
            if !acc.reserve(requested) {
                self.trace_event(SpanKind::BudgetReject, requested as u64);
                return Err(BufferError::BudgetExceeded {
                    requested,
                    used: acc.used(),
                    limit: acc.limit(),
                });
            }
            self.trace_event(SpanKind::BudgetReserve, requested as u64);
            self.accounted_bytes += requested;
        }
        let node = Node {
            kind,
            parent,
            first_child: None,
            last_child: None,
            prev_sibling: None,
            next_sibling: None,
            roles: RoleSet::new(),
            subtree_roles: 0,
            subtree_pins: 0,
            pins: 0,
            own_agg: 0,
            finished: false,
            marked: false,
            alive: true,
        };
        let (id, bytes) = if let Some(slot) = self.free.pop() {
            // Recycle the slot's role-set allocation: most buffered nodes
            // carry roles, and replacing the whole node would drop the
            // `RoleSet`'s vector just to reallocate it on the first
            // `add_role` — a per-node allocation on the hot path. The
            // node's byte charge is sampled *after* the swap so the
            // recycled capacity is charged at birth — `delete_subtree`
            // frees `bytes()` including that capacity, and `add_role`
            // will not re-charge it (no growth happens).
            let mut node = node;
            let mut roles = std::mem::take(&mut self.nodes[slot as usize].roles);
            roles.clear();
            node.roles = roles;
            let bytes = node.bytes();
            self.nodes[slot as usize] = node;
            (BufNodeId(slot), bytes)
        } else {
            let bytes = node.bytes();
            self.nodes.push(node);
            (BufNodeId(self.nodes.len() as u32 - 1), bytes)
        };
        let prev_peak = self.stats.peak_bytes;
        self.stats.alloc(bytes);
        if self.flight.is_some() {
            self.trace_event(SpanKind::NodeBuffered, bytes as u64);
            let peak = self.stats.peak_bytes;
            if peak / HIGH_WATER_STEP != prev_peak / HIGH_WATER_STEP {
                self.trace_event(SpanKind::HighWater, peak as u64);
            }
        }
        self.publish_live();
        Ok(id)
    }

    #[inline]
    fn n(&self, id: BufNodeId) -> &Node {
        let node = &self.nodes[id.index()];
        debug_assert!(node.alive, "access to dead node {}", id.0);
        node
    }

    #[inline]
    fn n_mut(&mut self, id: BufNodeId) -> &mut Node {
        let node = &mut self.nodes[id.index()];
        debug_assert!(node.alive, "access to dead node {}", id.0);
        node
    }

    // ------------------------------------------------------------------
    // Construction (used by the stream preprojector)
    // ------------------------------------------------------------------

    /// Appends a new element under `parent`; the node starts "unfinished".
    ///
    /// # Errors
    /// [`BufferError::BudgetExceeded`] when an installed accounting hook
    /// refuses the reservation (nothing is allocated in that case).
    pub fn open_element(
        &mut self,
        parent: BufNodeId,
        tag: TagId,
    ) -> Result<BufNodeId, BufferError> {
        let id = self.alloc(BufKind::Element(tag), Some(parent))?;
        self.link_last(parent, id);
        Ok(id)
    }

    /// Appends a text node under `parent`; text nodes are born finished.
    /// The content is copied into the buffer's text arena — no per-node
    /// allocation.
    ///
    /// # Errors
    /// [`BufferError::BudgetExceeded`] when an installed accounting hook
    /// refuses the reservation (the arena is rolled back in that case).
    pub fn add_text(&mut self, parent: BufNodeId, text: &str) -> Result<BufNodeId, BufferError> {
        let span = TextSpan {
            // Empty text pins offset 0 so its span stays valid across
            // wholesale arena resets (it references no bytes).
            offset: if text.is_empty() {
                0
            } else {
                u32::try_from(self.text.len()).expect("text arena within u32 range")
            },
            len: u32::try_from(text.len()).expect("text node within u32 range"),
        };
        self.text.extend_from_slice(text.as_bytes());
        self.live_text_bytes += text.len();
        let id = match self.alloc(BufKind::Text(span), Some(parent)) {
            Ok(id) => id,
            Err(e) => {
                // Undo the speculative arena append (empty text appended
                // nothing; its offset-0 span must not wipe the arena).
                if !text.is_empty() {
                    self.text.truncate(span.offset as usize);
                    self.live_text_bytes -= text.len();
                }
                return Err(e);
            }
        };
        self.n_mut(id).finished = true;
        self.link_last(parent, id);
        Ok(id)
    }

    /// Resolves a span against the text arena.
    #[inline]
    pub(crate) fn span_str(&self, sp: TextSpan) -> &str {
        if sp.len == 0 {
            return "";
        }
        std::str::from_utf8(&self.text[sp.range()]).expect("arena holds validated UTF-8")
    }

    fn link_last(&mut self, parent: BufNodeId, id: BufNodeId) {
        let prev = self.n(parent).last_child;
        self.n_mut(id).prev_sibling = prev;
        if let Some(p) = prev {
            self.n_mut(p).next_sibling = Some(id);
        } else {
            self.n_mut(parent).first_child = Some(id);
        }
        self.n_mut(parent).last_child = Some(id);
    }

    /// Marks an element finished (its closing tag has been read) and runs
    /// the close-time purge: a marked or irrelevant node is deleted now.
    /// Returns `true` when the node was purged.
    pub fn finish(&mut self, id: BufNodeId) -> bool {
        self.n_mut(id).finished = true;
        if id == Self::ROOT {
            return false;
        }
        if self.n(id).marked || self.irrelevant(id) {
            self.gc_from(id);
            return !self.nodes[id.index()].alive;
        }
        false
    }

    // ------------------------------------------------------------------
    // Role management
    // ------------------------------------------------------------------

    /// `addρ(r, n)`: assigns one instance of `role` to `id`.
    pub fn add_role(&mut self, id: BufNodeId, role: Role) {
        let before = self.n(id).roles.approx_bytes();
        self.n_mut(id).roles.add(role);
        if self.is_aggregate[role.index()] {
            self.n_mut(id).own_agg += 1;
        }
        let after = self.n(id).roles.approx_bytes();
        if after > before {
            self.stats.grow(after - before);
            self.publish_live();
        }
        self.assigned[role.index()] += 1;
        self.stats.roles_assigned += 1;
        self.bump_subtree_roles(id, 1);
    }

    fn bump_subtree_roles(&mut self, id: BufNodeId, delta: i32) {
        let mut at = Some(id);
        while let Some(x) = at {
            let node = self.n_mut(x);
            node.subtree_roles = (node.subtree_roles as i64 + delta as i64) as u32;
            if delta > 0 && node.marked {
                // Resurrection: an unfinished node marked for deletion
                // whose subtree becomes relevant again (a role-carrying
                // descendant arrived from the stream) must be navigable
                // once more, and its closing tag must no longer purge it.
                // This happens when redundant-role elimination leaves
                // variable-matched nodes roleless and an early child
                // closes before the relevant part of the subtree arrives.
                node.marked = false;
            }
            at = node.parent;
        }
    }

    fn bump_subtree_pins(&mut self, id: BufNodeId, delta: i32) {
        let mut at = Some(id);
        while let Some(x) = at {
            let node = self.n_mut(x);
            node.subtree_pins = (node.subtree_pins as i64 + delta as i64) as u32;
            at = node.parent;
        }
    }

    /// The signOff primitive (paper Fig. 10, inner loop body): removes
    /// `count` instances of `role` from `id`, then runs the localized
    /// garbage collection from `id` upward.
    pub fn sign_off(&mut self, id: BufNodeId, role: Role, count: u32) -> Result<(), BufferError> {
        if count == 0 {
            return Ok(());
        }
        self.stats.signoffs += 1;
        self.trace_event(SpanKind::SignOff, u64::from(count));
        let had = self.n(id).roles.count(role);
        let removed = self.n_mut(id).roles.remove_n(role, count);
        if removed != count {
            return Err(BufferError::UndefinedRoleRemoval {
                node: id.0,
                role,
                wanted: count,
                had,
            });
        }
        self.removed[role.index()] += u64::from(count);
        self.stats.roles_removed += u64::from(count);
        self.bump_subtree_roles(id, -(count as i32));
        let was_aggregate = self.is_aggregate[role.index()];
        if was_aggregate {
            self.n_mut(id).own_agg -= count;
        }
        // Aggregate semantics: when the last covering aggregate disappears,
        // roleless descendants must be purged now — exactly when their
        // per-node instances would have been removed in the non-aggregated
        // scheme.
        if was_aggregate && self.n(id).own_agg == 0 && !self.has_agg_ancestor(id) {
            self.prune_roleless(id);
        }
        self.gc_from(id);
        Ok(())
    }

    fn has_agg_ancestor(&self, id: BufNodeId) -> bool {
        let mut at = self.n(id).parent;
        while let Some(x) = at {
            let node = self.n(x);
            if node.own_agg > 0 {
                return true;
            }
            at = node.parent;
        }
        false
    }

    /// Deletes every role-free, pin-free subtree below `id` (aggregate
    /// uncovering sweep). Subtrees whose root carries its own aggregate
    /// role are still covered and skipped entirely.
    fn prune_roleless(&mut self, id: BufNodeId) {
        let mut child = self.n(id).first_child;
        while let Some(c) = child {
            let next = self.n(c).next_sibling;
            let node = self.n(c);
            if node.own_agg > 0 {
                // Covered by a deeper aggregate role; nothing to prune here.
            } else if node.subtree_roles == 0 && node.subtree_pins == 0 {
                if node.finished {
                    self.delete_subtree(c);
                } else {
                    self.n_mut(c).marked = true;
                    self.prune_roleless(c);
                }
            } else {
                self.prune_roleless(c);
            }
            child = next;
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection (paper Fig. 10)
    // ------------------------------------------------------------------

    /// A node is *irrelevant* when neither it nor any descendant carries a
    /// role (and, in our implementation, no pins either and no covering
    /// aggregate ancestor).
    pub fn irrelevant(&self, id: BufNodeId) -> bool {
        let node = self.n(id);
        node.subtree_roles == 0 && node.subtree_pins == 0 && !self.has_agg_ancestor(id)
    }

    /// The localized bottom-up search of Fig. 10: starting at `id`, delete
    /// irrelevant finished nodes, propagating upward until the first
    /// relevant (or unfinished, or pinned) node.
    fn gc_from(&mut self, id: BufNodeId) {
        let mut at = id;
        loop {
            self.stats.gc_visits += 1;
            if at == Self::ROOT {
                break;
            }
            let node = self.n(at);
            if node.subtree_roles != 0 || node.subtree_pins != 0 {
                break; // relevant — local search stops
            }
            if self.has_agg_ancestor(at) {
                break; // covered by an aggregate subtree
            }
            let parent = node.parent.expect("non-root has a parent");
            if node.finished {
                self.delete_subtree(at);
            } else {
                self.n_mut(at).marked = true;
                break;
            }
            at = parent;
        }
    }

    /// Unlinks and frees an entire subtree. The caller guarantees the
    /// subtree is role- and pin-free and its root is finished (all
    /// descendants of a finished node are finished).
    fn delete_subtree(&mut self, id: BufNodeId) {
        debug_assert_eq!(self.n(id).subtree_roles, 0);
        debug_assert_eq!(self.n(id).subtree_pins, 0);
        self.unlink(id);
        // Iterative post-order free; the traversal stack is pooled on the
        // tree (one purge runs per garbage-collected subtree — hot).
        let mut stack = std::mem::take(&mut self.sweep);
        stack.clear();
        stack.push(id);
        let mut released = 0usize;
        while let Some(x) = stack.pop() {
            let mut child = self.nodes[x.index()].first_child;
            while let Some(c) = child {
                stack.push(c);
                child = self.nodes[c.index()].next_sibling;
            }
            let bytes = self.nodes[x.index()].bytes();
            released += Self::charge_for(&self.nodes[x.index()].kind);
            if let BufKind::Text(sp) = self.nodes[x.index()].kind {
                self.live_text_bytes -= sp.len as usize;
                // Tail spans are reclaimed in place; anything else waits
                // for the wholesale reset below.
                if sp.range().end == self.text.len() {
                    self.text.truncate(sp.offset as usize);
                }
            }
            self.nodes[x.index()].alive = false;
            self.free.push(x.0);
            self.stats.free(bytes);
        }
        self.sweep = stack;
        if self.live_text_bytes == 0 {
            // No live text node references the arena: reclaim it
            // wholesale (capacity is kept for reuse).
            self.text.clear();
        }
        if let Some(acc) = &self.accounting {
            acc.release(released);
            self.accounted_bytes -= released;
        }
        self.trace_event(SpanKind::SubtreeDelete, released as u64);
        self.publish_live();
    }

    fn unlink(&mut self, id: BufNodeId) {
        let (parent, prev, next) = {
            let n = self.n(id);
            (n.parent, n.prev_sibling, n.next_sibling)
        };
        if let Some(p) = prev {
            self.n_mut(p).next_sibling = next;
        } else if let Some(par) = parent {
            self.n_mut(par).first_child = next;
        }
        if let Some(nx) = next {
            self.n_mut(nx).prev_sibling = prev;
        } else if let Some(par) = parent {
            self.n_mut(par).last_child = prev;
        }
    }

    // ------------------------------------------------------------------
    // Pins (evaluator cursors)
    // ------------------------------------------------------------------

    /// Pins `id`: it and its ancestors stay navigable until unpinned.
    pub fn pin(&mut self, id: BufNodeId) {
        self.n_mut(id).pins += 1;
        self.bump_subtree_pins(id, 1);
    }

    /// Releases a pin; if the node became irrelevant while pinned, the
    /// deferred purge runs now.
    pub fn unpin(&mut self, id: BufNodeId) {
        debug_assert!(self.n(id).pins > 0, "unbalanced unpin");
        self.n_mut(id).pins -= 1;
        self.bump_subtree_pins(id, -1);
        if id != Self::ROOT && (self.n(id).marked || self.irrelevant(id)) && self.n(id).finished {
            self.gc_from(id);
        } else if self.n(id).marked {
            // Unfinished & marked: stays until its closing tag arrives.
        }
    }

    /// Charges `bytes` of evaluator state kept over buffered nodes (a
    /// join index) to the footprint, so `live_bytes`/`peak_bytes` count
    /// it like buffered data. Undo with [`Self::release_aux`].
    pub fn charge_aux(&mut self, bytes: usize) {
        self.stats.grow(bytes);
        self.publish_live();
    }

    /// Returns bytes charged by [`Self::charge_aux`].
    pub fn release_aux(&mut self, bytes: usize) {
        self.stats.shrink(bytes);
        self.publish_live();
    }

    // ------------------------------------------------------------------
    // Navigation (used by the evaluator)
    // ------------------------------------------------------------------

    /// True when the slot is alive (not purged).
    pub fn is_alive(&self, id: BufNodeId) -> bool {
        self.nodes[id.index()].alive
    }

    /// Node payload.
    pub fn kind(&self, id: BufNodeId) -> &BufKind {
        &self.n(id).kind
    }

    /// Element tag, `None` for text/root.
    pub fn tag(&self, id: BufNodeId) -> Option<TagId> {
        match self.n(id).kind {
            BufKind::Element(t) => Some(t),
            _ => None,
        }
    }

    /// True for text nodes.
    pub fn is_text(&self, id: BufNodeId) -> bool {
        matches!(self.n(id).kind, BufKind::Text(_))
    }

    /// Text content of a text node (resolved against the text arena).
    pub fn text_content(&self, id: BufNodeId) -> Option<&str> {
        match self.n(id).kind {
            BufKind::Text(sp) => Some(self.span_str(sp)),
            _ => None,
        }
    }

    /// Bytes currently held by the text arena (diagnostics/tests).
    pub fn text_arena_len(&self) -> usize {
        self.text.len()
    }

    pub fn parent(&self, id: BufNodeId) -> Option<BufNodeId> {
        self.n(id).parent
    }

    /// First child that is not semantically deleted (marked).
    pub fn first_child(&self, id: BufNodeId) -> Option<BufNodeId> {
        let mut c = self.n(id).first_child;
        while let Some(x) = c {
            if !self.n(x).marked {
                return Some(x);
            }
            c = self.n(x).next_sibling;
        }
        None
    }

    /// Next sibling that is not semantically deleted (marked).
    pub fn next_sibling(&self, id: BufNodeId) -> Option<BufNodeId> {
        let mut c = self.n(id).next_sibling;
        while let Some(x) = c {
            if !self.n(x).marked {
                return Some(x);
            }
            c = self.n(x).next_sibling;
        }
        None
    }

    /// Whether the closing tag of `id` has been read.
    pub fn is_finished(&self, id: BufNodeId) -> bool {
        self.n(id).finished
    }

    /// Whether `id` is marked (semantically deleted, awaiting purge).
    pub fn is_marked(&self, id: BufNodeId) -> bool {
        self.n(id).marked
    }

    /// Multiplicity of `role` on `id`.
    pub fn role_count(&self, id: BufNodeId, role: Role) -> u32 {
        self.n(id).roles.count(role)
    }

    /// The full role-set of `id` (for traces, Fig. 2 style).
    pub fn roles(&self, id: BufNodeId) -> &RoleSet {
        &self.n(id).roles
    }

    /// Document-order successor within the subtree rooted at `scope`
    /// (excluding `scope` itself on entry: pass `current = scope` to get
    /// the first node). Skips marked nodes' subtrees entirely? No — marked
    /// nodes are skipped as *results* but their (live) descendants cannot
    /// carry roles, so skipping the whole subtree is sound and faster.
    pub fn next_in_subtree(&self, scope: BufNodeId, current: BufNodeId) -> Option<BufNodeId> {
        // Try first child (unless current is marked — then its subtree is
        // semantically gone).
        if !self.n(current).marked {
            if let Some(c) = self.first_child(current) {
                return Some(c);
            }
        }
        let mut at = current;
        loop {
            if at == scope {
                return None;
            }
            if let Some(s) = self.next_sibling(at) {
                return Some(s);
            }
            at = self.n(at).parent?;
        }
    }

    /// Number of live children (diagnostics/tests).
    pub fn child_count(&self, id: BufNodeId) -> usize {
        let mut n = 0;
        let mut c = self.first_child(id);
        while let Some(x) = c {
            n += 1;
            c = self.next_sibling(x);
        }
        n
    }

    /// Renders the live buffer like the paper's Fig. 2 "buffer" column,
    /// e.g. `bib{r2} book{r3,r5,r6} title{r5,r7}`.
    pub fn render(&self, tags: &gcx_xml::TagInterner) -> String {
        let mut out = String::new();
        self.render_rec(Self::ROOT, tags, &mut out);
        out.trim_end().to_string()
    }

    /// Debug rendering including marked nodes, pins and subtree counters.
    pub fn render_debug(&self, tags: &gcx_xml::TagInterner) -> String {
        let mut out = String::new();
        self.render_debug_rec(Self::ROOT, tags, &mut out, 0);
        out
    }

    fn render_debug_rec(
        &self,
        id: BufNodeId,
        tags: &gcx_xml::TagInterner,
        out: &mut String,
        depth: usize,
    ) {
        use std::fmt::Write as _;
        for _ in 0..depth {
            out.push_str("  ");
        }
        let n = self.n(id);
        let label = match n.kind {
            BufKind::Root => "/".to_string(),
            BufKind::Element(t) => tags.name(t).to_string(),
            BufKind::Text(sp) => format!("{:?}", self.span_str(sp)),
        };
        let _ = writeln!(
            out,
            "#{} {} {} sr={} sp={} pins={} agg={} fin={} marked={}",
            id.0,
            label,
            n.roles,
            n.subtree_roles,
            n.subtree_pins,
            n.pins,
            n.own_agg,
            n.finished,
            n.marked
        );
        let mut c = n.first_child;
        while let Some(x) = c {
            self.render_debug_rec(x, tags, out, depth + 1);
            c = self.n(x).next_sibling;
        }
    }

    fn render_rec(&self, id: BufNodeId, tags: &gcx_xml::TagInterner, out: &mut String) {
        use std::fmt::Write as _;
        if id != Self::ROOT && !self.n(id).marked {
            match self.n(id).kind {
                BufKind::Element(t) => {
                    let _ = write!(out, "{}{} ", tags.name(t), self.n(id).roles);
                }
                BufKind::Text(sp) => {
                    let _ = write!(out, "\"{}\"{} ", self.span_str(sp), self.n(id).roles);
                }
                BufKind::Root => {}
            }
        }
        let mut c = self.n(id).first_child;
        while let Some(x) = c {
            if !self.n(x).marked {
                self.render_rec(x, tags, out);
            }
            c = self.n(x).next_sibling;
        }
    }
}

impl Drop for BufferTree {
    fn drop(&mut self) {
        // Nodes still alive at teardown (root, mid-stream aborts) hold
        // reservations; hand every accounted byte back to the budget.
        if let Some(acc) = &self.accounting {
            acc.release(self.accounted_bytes);
            self.accounted_bytes = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(roles: usize) -> BufferTree {
        BufferTree::new(roles, &[])
    }

    #[test]
    fn build_and_navigate() {
        let mut b = setup(4);
        let mut tags = gcx_xml::TagInterner::new();
        let bib = tags.intern("bib");
        let book = tags.intern("book");
        let e1 = b.open_element(BufferTree::ROOT, bib).unwrap();
        let e2 = b.open_element(e1, book).unwrap();
        let t = b.add_text(e2, "hello").unwrap();
        assert_eq!(b.parent(e2), Some(e1));
        assert_eq!(b.first_child(e1), Some(e2));
        assert_eq!(b.first_child(e2), Some(t));
        assert_eq!(b.text_content(t), Some("hello"));
        assert_eq!(b.tag(e1), Some(bib));
        assert!(!b.is_finished(e2));
        b.finish(e2);
        // e2 carries no roles: it is purged at close time.
        assert!(!b.is_alive(e2));
    }

    #[test]
    fn roles_keep_nodes_alive() {
        let mut b = setup(4);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        let n = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(n, Role(1));
        b.finish(n);
        assert!(b.is_alive(n));
        b.sign_off(n, Role(1), 1).unwrap();
        assert!(!b.is_alive(n), "losing the last role purges the node");
        assert!(b.all_roles_returned());
    }

    #[test]
    fn descendant_roles_protect_ancestors() {
        let mut b = setup(4);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        let y = tags.intern("y");
        let n1 = b.open_element(BufferTree::ROOT, x).unwrap();
        let n2 = b.open_element(n1, y).unwrap();
        b.add_role(n2, Role(0));
        b.finish(n2);
        b.finish(n1);
        assert!(b.is_alive(n1), "ancestor of a role-carrying node stays");
        b.sign_off(n2, Role(0), 1).unwrap();
        assert!(!b.is_alive(n2));
        assert!(!b.is_alive(n1), "purge propagates bottom-up (Fig. 10)");
    }

    #[test]
    fn unfinished_nodes_are_marked_not_deleted() {
        let mut b = setup(4);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        let n = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(n, Role(1));
        b.sign_off(n, Role(1), 1).unwrap();
        assert!(b.is_alive(n), "unfinished node survives as marked");
        assert!(b.is_marked(n));
        b.finish(n);
        assert!(!b.is_alive(n), "purged once the closing tag arrives");
    }

    #[test]
    fn undefined_removal_is_reported() {
        let mut b = setup(4);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        let n = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(n, Role(1));
        let err = b.sign_off(n, Role(2), 1).unwrap_err();
        assert!(matches!(err, BufferError::UndefinedRoleRemoval { .. }));
    }

    #[test]
    fn multiplicity_requires_matching_removals() {
        let mut b = setup(4);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        let n = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(n, Role(3));
        b.add_role(n, Role(3));
        b.finish(n);
        b.sign_off(n, Role(3), 1).unwrap();
        assert!(b.is_alive(n), "one instance left");
        b.sign_off(n, Role(3), 1).unwrap();
        assert!(!b.is_alive(n));
        assert!(b.all_roles_returned());
    }

    #[test]
    fn pins_defer_purging() {
        let mut b = setup(4);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        let n = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(n, Role(0));
        b.finish(n);
        b.pin(n);
        b.sign_off(n, Role(0), 1).unwrap();
        assert!(b.is_alive(n), "pinned node survives");
        b.unpin(n);
        assert!(!b.is_alive(n), "purged on unpin");
    }

    #[test]
    fn pin_protects_ancestor_chain() {
        let mut b = setup(4);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        let n1 = b.open_element(BufferTree::ROOT, x).unwrap();
        let n2 = b.open_element(n1, x).unwrap();
        b.add_role(n2, Role(0));
        b.finish(n2);
        b.finish(n1);
        b.pin(n2);
        b.sign_off(n2, Role(0), 1).unwrap();
        assert!(b.is_alive(n1), "ancestors of pinned nodes survive");
        b.unpin(n2);
        assert!(!b.is_alive(n2));
        assert!(!b.is_alive(n1));
    }

    #[test]
    fn sibling_navigation_skips_marked() {
        let mut b = setup(4);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        let p = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(p, Role(1));
        let a = b.open_element(p, x).unwrap();
        b.add_role(a, Role(0));
        let c = b.open_element(p, x).unwrap();
        b.add_role(c, Role(0));
        b.finish(a);
        b.finish(c);
        // Delete the first child; second remains reachable.
        b.sign_off(a, Role(0), 1).unwrap();
        assert_eq!(b.first_child(p), Some(c));
        assert_eq!(b.child_count(p), 1);
    }

    #[test]
    fn subtree_deletion_frees_descendants() {
        let mut b = setup(4);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        let n1 = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(n1, Role(0));
        let n2 = b.open_element(n1, x).unwrap();
        let n3 = b.open_element(n2, x).unwrap();
        let t = b.add_text(n3, "abc").unwrap();
        b.finish(n3);
        b.finish(n2);
        b.finish(n1);
        // Descendants carry no roles but survive: the subtree root's role
        // protects nothing below — wait, irrelevance is per-subtree, so n2
        // is irrelevant... n2 was purged at finish time already.
        assert!(!b.is_alive(n2));
        assert!(!b.is_alive(n3));
        assert!(!b.is_alive(t));
        assert!(b.is_alive(n1));
        b.sign_off(n1, Role(0), 1).unwrap();
        assert!(!b.is_alive(n1));
        assert_eq!(b.stats().live_nodes, 1, "only the root remains");
    }

    #[test]
    fn dos_style_subtree_retained_until_signoff() {
        // Simulates a dos::node() projection: every node carries r5.
        let mut b = setup(8);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        let r5 = Role(5);
        let n1 = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(n1, r5);
        let n2 = b.open_element(n1, x).unwrap();
        b.add_role(n2, r5);
        let t = b.add_text(n2, "v").unwrap();
        b.add_role(t, r5);
        b.finish(n2);
        b.finish(n1);
        assert_eq!(b.stats().live_nodes, 4);
        // signOff in document order (as path evaluation would).
        b.sign_off(n1, r5, 1).unwrap();
        assert!(b.is_alive(n1), "descendants still carry roles");
        b.sign_off(n2, r5, 1).unwrap();
        b.sign_off(t, r5, 1).unwrap();
        assert_eq!(b.stats().live_nodes, 1);
        assert!(b.all_roles_returned());
    }

    #[test]
    fn aggregate_role_covers_subtree() {
        let mut b = BufferTree::new(8, &[Role(5)]);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        let n1 = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(n1, Role(5)); // aggregate
        let n2 = b.open_element(n1, x).unwrap();
        let t = b.add_text(n2, "v").unwrap();
        b.finish(n2);
        assert!(
            b.is_alive(n2),
            "roleless node under an aggregate subtree survives its close"
        );
        b.finish(n1);
        assert!(b.is_alive(n1));
        b.sign_off(n1, Role(5), 1).unwrap();
        assert!(!b.is_alive(n1));
        assert!(!b.is_alive(n2));
        assert!(!b.is_alive(t));
        assert_eq!(b.stats().live_nodes, 1);
    }

    #[test]
    fn aggregate_uncover_prunes_but_keeps_roled_descendants() {
        let mut b = BufferTree::new(8, &[Role(5)]);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        let n1 = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(n1, Role(5)); // aggregate on subtree root
        let keep = b.open_element(n1, x).unwrap();
        b.add_role(keep, Role(1)); // plain role deeper down
        let junk = b.open_element(keep, x).unwrap();
        let junk2 = b.open_element(n1, x).unwrap();
        b.finish(junk);
        b.finish(keep);
        b.finish(junk2);
        b.finish(n1);
        assert!(b.is_alive(junk) && b.is_alive(junk2));
        b.sign_off(n1, Role(5), 1).unwrap();
        assert!(b.is_alive(n1), "still protected by keep's role");
        assert!(b.is_alive(keep));
        assert!(!b.is_alive(junk), "pruned when aggregate cover vanished");
        assert!(!b.is_alive(junk2));
        b.sign_off(keep, Role(1), 1).unwrap();
        assert_eq!(b.stats().live_nodes, 1);
    }

    #[test]
    fn next_in_subtree_walks_document_order() {
        let mut b = setup(4);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        let root = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(root, Role(0));
        let a = b.open_element(root, x).unwrap();
        b.add_role(a, Role(0));
        let a1 = b.open_element(a, x).unwrap();
        b.add_role(a1, Role(0));
        let c = b.open_element(root, x).unwrap();
        b.add_role(c, Role(0));
        let order = {
            let mut v = Vec::new();
            let mut cur = root;
            while let Some(n) = b.next_in_subtree(root, cur) {
                v.push(n);
                cur = n;
            }
            v
        };
        assert_eq!(order, vec![a, a1, c]);
    }

    #[test]
    fn render_matches_fig2_style() {
        let mut b = setup(8);
        let mut tags = gcx_xml::TagInterner::new();
        let bib = tags.intern("bib");
        let book = tags.intern("book");
        let n1 = b.open_element(BufferTree::ROOT, bib).unwrap();
        b.add_role(n1, Role(2));
        let n2 = b.open_element(n1, book).unwrap();
        b.add_role(n2, Role(3));
        b.add_role(n2, Role(5));
        b.add_role(n2, Role(6));
        assert_eq!(b.render(&tags), "bib{r2} book{r3,r5,r6}");
    }

    #[test]
    fn stats_watermark() {
        let mut b = setup(2);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        for _ in 0..10 {
            let n = b.open_element(BufferTree::ROOT, x).unwrap();
            b.add_role(n, Role(0));
            b.finish(n);
            b.sign_off(n, Role(0), 1).unwrap();
        }
        let s = b.stats();
        assert_eq!(s.live_nodes, 1);
        assert!(s.peak_nodes <= 3, "peak stays tiny: {}", s.peak_nodes);
        assert_eq!(s.nodes_created, 11);
        assert_eq!(s.nodes_purged, 10);
        assert_eq!(s.roles_assigned, 10);
        assert_eq!(s.roles_removed, 10);
    }

    #[test]
    fn text_arena_reclaimed_by_gc() {
        let mut b = setup(2);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        // Streaming churn: buffer a text-carrying element, GC it away,
        // repeat. The arena must not grow without bound.
        for round in 0..50 {
            let n = b.open_element(BufferTree::ROOT, x).unwrap();
            b.add_role(n, Role(0));
            let t = b.add_text(n, "some text payload").unwrap();
            b.add_role(t, Role(1));
            b.finish(n);
            b.sign_off(t, Role(1), 1).unwrap();
            b.sign_off(n, Role(0), 1).unwrap();
            assert_eq!(
                b.text_arena_len(),
                0,
                "arena reclaimed after GC round {round}"
            );
        }
    }

    #[test]
    fn empty_text_survives_arena_reset() {
        let mut b = setup(4);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        let gone = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(gone, Role(0));
        let t = b.add_text(gone, "payload").unwrap();
        b.add_role(t, Role(0));
        let keep = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(keep, Role(1));
        let empty = b.add_text(keep, "").unwrap();
        b.add_role(empty, Role(1));
        b.finish(gone);
        // Purge the only non-empty text: live_text_bytes hits 0 and the
        // arena resets while the empty text node is still alive.
        b.sign_off(t, Role(0), 1).unwrap();
        b.sign_off(gone, Role(0), 1).unwrap();
        assert_eq!(b.text_arena_len(), 0);
        assert!(b.is_alive(empty));
        assert_eq!(b.text_content(empty), Some(""));
        let mut s = String::new();
        b.string_value_into(keep, &mut s);
        assert_eq!(s, "");
    }

    #[test]
    fn text_arena_tail_truncation() {
        let mut b = setup(4);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        let keep = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(keep, Role(0));
        let t1 = b.add_text(keep, "kept").unwrap();
        b.add_role(t1, Role(0));
        let gone = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(gone, Role(1));
        let t2 = b.add_text(gone, "tail-reclaimed").unwrap();
        b.add_role(t2, Role(1));
        b.finish(gone);
        assert_eq!(b.text_arena_len(), 4 + 14);
        // Purging the tail text truncates the arena in place.
        b.sign_off(t2, Role(1), 1).unwrap();
        b.sign_off(gone, Role(1), 1).unwrap();
        assert_eq!(b.text_arena_len(), 4);
        assert_eq!(b.text_content(t1), Some("kept"));
    }

    #[test]
    fn slot_reuse_after_purge() {
        let mut b = setup(2);
        let mut tags = gcx_xml::TagInterner::new();
        let x = tags.intern("x");
        let n1 = b.open_element(BufferTree::ROOT, x).unwrap();
        b.finish(n1); // purged immediately (no roles)
        let n2 = b.open_element(BufferTree::ROOT, x).unwrap();
        assert_eq!(n1, n2, "arena slot is recycled");
    }
}
