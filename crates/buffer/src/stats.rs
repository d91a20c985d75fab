//! Buffer statistics: live footprint, high watermarks, GC counters.
//!
//! The paper measures the "high watermark of non-swapped memory
//! consumption" of whole processes; our harness instead measures the buffer
//! manager's own footprint, identically for GCX and the baseline engines,
//! because that is the quantity the buffer-minimization technique controls.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counters kept by a [`crate::BufferTree`]. All engines report through the
/// same struct so Table 1 comparisons are apples-to-apples.
#[derive(Debug, Default, Clone)]
pub struct BufferStats {
    /// Currently live (allocated, not purged) nodes.
    pub live_nodes: usize,
    /// Estimated live bytes: fixed node cost + text payload + role sets.
    pub live_bytes: usize,
    /// Maximum of `live_nodes` ever observed.
    pub peak_nodes: usize,
    /// Maximum of `live_bytes` ever observed.
    pub peak_bytes: usize,
    /// Nodes ever created.
    pub nodes_created: u64,
    /// Nodes purged by garbage collection (incl. close-time purges).
    pub nodes_purged: u64,
    /// Role instances assigned.
    pub roles_assigned: u64,
    /// Role instances removed by signOff.
    pub roles_removed: u64,
    /// Number of signOff statements processed.
    pub signoffs: u64,
    /// Nodes visited by the localized GC search (cost of Fig. 10).
    pub gc_visits: u64,
}

impl BufferStats {
    /// Records an allocation of `bytes`.
    pub(crate) fn alloc(&mut self, bytes: usize) {
        self.live_nodes += 1;
        self.live_bytes += bytes;
        self.nodes_created += 1;
        if self.live_nodes > self.peak_nodes {
            self.peak_nodes = self.live_nodes;
        }
        if self.live_bytes > self.peak_bytes {
            self.peak_bytes = self.live_bytes;
        }
    }

    /// Records a purge of `bytes`.
    pub(crate) fn free(&mut self, bytes: usize) {
        debug_assert!(self.live_nodes > 0);
        self.live_nodes -= 1;
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
        self.nodes_purged += 1;
    }

    /// Records growth of an existing node (e.g. a role added).
    pub(crate) fn grow(&mut self, bytes: usize) {
        self.live_bytes += bytes;
        if self.live_bytes > self.peak_bytes {
            self.peak_bytes = self.live_bytes;
        }
    }

    /// Records shrinkage of live state that is not a node.
    pub(crate) fn shrink(&mut self, bytes: usize) {
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
    }

    /// Human-readable peak, e.g. `1.2MB`, in the style of paper Table 1.
    pub fn peak_human(&self) -> String {
        human_bytes(self.peak_bytes)
    }
}

/// A shared, thread-safe mirror of the buffer's live footprint.
///
/// The engine evaluates on one thread; an observability plane (the
/// `/stats` endpoint of gcx-net) samples from others *while the run is in
/// flight* — [`BufferStats`] only surfaces at `finish()`. Installing a
/// `LiveBufferStats` handle on a [`crate::BufferTree`] makes the tree
/// publish its live/peak figures with relaxed atomic stores after every
/// footprint-changing operation; readers get a consistent-enough snapshot
/// for monitoring without any locking on the hot path. When no handle is
/// installed the cost is a single branch per operation.
#[derive(Debug, Default)]
pub struct LiveBufferStats {
    /// Currently live (allocated, not purged) nodes.
    pub live_nodes: AtomicUsize,
    /// High watermark of `live_nodes`.
    pub peak_nodes: AtomicUsize,
    /// Estimated live bytes (fixed node cost + text payload + role sets).
    pub live_bytes: AtomicUsize,
    /// High watermark of `live_bytes`.
    pub peak_bytes: AtomicUsize,
    /// Bytes currently held by the buffer's text arena.
    pub text_arena_bytes: AtomicUsize,
    /// Nodes ever created.
    pub nodes_created: AtomicU64,
    /// Nodes purged by garbage collection.
    pub nodes_purged: AtomicU64,
}

impl LiveBufferStats {
    /// Publishes a snapshot (called by the owning buffer after mutations).
    pub fn publish(&self, stats: &BufferStats, text_arena_bytes: usize) {
        self.live_nodes.store(stats.live_nodes, Ordering::Relaxed);
        self.peak_nodes.store(stats.peak_nodes, Ordering::Relaxed);
        self.live_bytes.store(stats.live_bytes, Ordering::Relaxed);
        self.peak_bytes.store(stats.peak_bytes, Ordering::Relaxed);
        self.text_arena_bytes
            .store(text_arena_bytes, Ordering::Relaxed);
        self.nodes_created
            .store(stats.nodes_created, Ordering::Relaxed);
        self.nodes_purged
            .store(stats.nodes_purged, Ordering::Relaxed);
    }
}

/// Shared accounting hook charged for the engine buffer's own footprint.
///
/// The service-level `MemoryBudget` (gcx-service) historically bounded
/// only queued I/O chunks; implementing this trait lets the same budget
/// see *buffered nodes and text-arena bytes*. Reservations are **hard**:
/// a failed [`BufferAccounting::reserve`] makes the buffer refuse the
/// allocation with [`crate::BufferError::BudgetExceeded`], which the
/// engine surfaces as a clean per-session error instead of growing
/// without bound. Only the stable per-node cost (fixed node size + text
/// payload) is charged, so every reserve has an exactly matching release.
pub trait BufferAccounting: Send + Sync {
    /// Attempts to reserve `bytes`; `false` refuses the allocation.
    fn reserve(&self, bytes: usize) -> bool;
    /// Returns `bytes` previously reserved.
    fn release(&self, bytes: usize);
    /// Bytes currently accounted (diagnostics for error messages).
    fn used(&self) -> usize;
    /// The configured limit (diagnostics for error messages).
    fn limit(&self) -> usize;
}

/// Formats a byte count the way the paper's Table 1 does (`1.2MB`, `880MB`,
/// `1.8GB`).
pub fn human_bytes(b: usize) -> String {
    const KB: f64 = 1024.0;
    let b = b as f64;
    if b >= KB * KB * KB {
        format!("{:.2}GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.1}MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.1}KB", b / KB)
    } else {
        format!("{b:.0}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_tracks_peak() {
        let mut s = BufferStats::default();
        s.alloc(100);
        s.alloc(200);
        assert_eq!(s.peak_bytes, 300);
        assert_eq!(s.peak_nodes, 2);
        s.free(200);
        assert_eq!(s.live_bytes, 100);
        assert_eq!(s.peak_bytes, 300, "peak is sticky");
        s.alloc(50);
        assert_eq!(s.peak_bytes, 300);
        assert_eq!(s.live_nodes, 2);
    }

    #[test]
    fn grow_moves_peak() {
        let mut s = BufferStats::default();
        s.alloc(10);
        s.grow(500);
        assert_eq!(s.peak_bytes, 510);
    }

    #[test]
    fn human_formatting() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2048), "2.0KB");
        assert_eq!(human_bytes(1_258_291), "1.2MB");
        assert!(human_bytes(2 * 1024 * 1024 * 1024).starts_with("2.0"));
    }
}
