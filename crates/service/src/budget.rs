//! Global memory budgeting for concurrent sessions.
//!
//! A [`MemoryBudget`] bounds the *service-owned* bytes across all
//! sessions: queued input chunks plus produced-but-undrained output. The
//! GCX buffer tree itself is already minimized by the engine (that is the
//! point of the paper); the budget guards the part the service adds on
//! top. Input reservations are **hard** — [`MemoryBudget::try_reserve`]
//! fails and the session refuses the chunk until bytes come back —
//! while output accounting is **soft** ([`MemoryBudget::force_reserve`]):
//! an evaluator thread mid-write cannot fail cleanly, so output may
//! transiently overshoot the limit until the caller drains it.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Byte budget shared by every session of one service.
#[derive(Debug)]
pub struct MemoryBudget {
    limit: usize,
    used: AtomicUsize,
    /// Engine-buffer bytes charged through the `BufferAccounting` hook —
    /// an **independent** account with its own `≤ limit` bound. Kept
    /// apart from `used` so queued I/O and undrained output only ever
    /// *backpressure* sessions while engine buffering alone decides the
    /// hard per-session failure (see the trait impl below for why
    /// coupling them livelocks).
    engine_used: AtomicUsize,
}

impl MemoryBudget {
    /// A budget of `limit` bytes.
    pub fn new(limit: usize) -> Self {
        MemoryBudget {
            limit,
            used: AtomicUsize::new(0),
            engine_used: AtomicUsize::new(0),
        }
    }

    /// Engine-buffer bytes currently charged (independent of
    /// [`MemoryBudget::used`], which covers queued I/O and undrained
    /// output).
    pub fn engine_used(&self) -> usize {
        self.engine_used.load(Ordering::Relaxed)
    }

    /// The configured limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Bytes currently accounted for.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Attempts to reserve `n` bytes; `false` when that would exceed the
    /// limit (nothing is reserved in that case).
    pub fn try_reserve(&self, n: usize) -> bool {
        if gcx_faults::fire("budget.reject") {
            return false;
        }
        let mut current = self.used.load(Ordering::Relaxed);
        loop {
            let Some(next) = current.checked_add(n) else {
                return false;
            };
            if next > self.limit {
                return false;
            }
            match self.used.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    /// Reserves `n` bytes unconditionally (output accounting; may push
    /// usage past the limit until the caller drains).
    pub fn force_reserve(&self, n: usize) {
        self.used.fetch_add(n, Ordering::Relaxed);
    }

    /// Returns `n` bytes to the budget.
    pub fn release(&self, n: usize) {
        let prev = self.used.fetch_sub(n, Ordering::Relaxed);
        debug_assert!(prev >= n, "budget release underflow: {prev} - {n}");
    }
}

/// Lets the engine buffer itself charge against the same global budget
/// that bounds queued I/O: with [`crate::SessionConfig::charge_engine_buffer`]
/// enabled, buffered nodes and text-arena bytes are **hard** reservations —
/// documents whose aggregate buffering genuinely needs more than the
/// budget fail their sessions cleanly instead of growing without bound.
///
/// Engine reservations are judged against a dedicated sub-counter
/// (`engine_used ≤ limit`) that is **independent of the main counter**.
/// Charging the main counter too would couple the two the wrong way
/// round: a session whose engine legitimately buffers near the limit
/// would starve its own *input admission* (input can only drain the
/// engine by being admitted, the engine can only release budget by
/// consuming input — a livelock). The service therefore holds at most
/// `limit` bytes of queued I/O **plus** `limit` bytes of engine buffer;
/// both bounds are hard, and `/stats` reports the two counters
/// side by side.
impl gcx_buffer::BufferAccounting for MemoryBudget {
    fn reserve(&self, bytes: usize) -> bool {
        let mut current = self.engine_used.load(Ordering::Relaxed);
        loop {
            let Some(next) = current.checked_add(bytes) else {
                return false;
            };
            if next > self.limit {
                return false;
            }
            match self.engine_used.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
        true
    }

    fn release(&self, bytes: usize) {
        let prev = self.engine_used.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "engine release underflow: {prev} - {bytes}");
    }

    fn used(&self) -> usize {
        self.engine_used()
    }

    fn limit(&self) -> usize {
        MemoryBudget::limit(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release_roundtrip() {
        let b = MemoryBudget::new(100);
        assert!(b.try_reserve(60));
        assert!(b.try_reserve(40));
        assert!(!b.try_reserve(1), "limit reached");
        b.release(50);
        assert!(b.try_reserve(50));
        assert_eq!(b.used(), 100);
        b.release(100);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn force_reserve_overshoots() {
        let b = MemoryBudget::new(10);
        b.force_reserve(25);
        assert_eq!(b.used(), 25);
        assert!(!b.try_reserve(1));
        b.release(25);
        assert!(b.try_reserve(10));
    }

    #[test]
    fn engine_account_is_independent_of_main_counter() {
        use gcx_buffer::BufferAccounting;
        let b = MemoryBudget::new(100);
        // I/O filling the whole budget must not block engine reservations.
        assert!(b.try_reserve(100));
        assert!(
            BufferAccounting::reserve(&b, 60),
            "engine judged on its own"
        );
        assert_eq!(b.engine_used(), 60);
        assert_eq!(b.used(), 100, "main counter untouched by engine charges");
        // The engine alone is capped at the limit.
        assert!(!BufferAccounting::reserve(&b, 41));
        assert!(BufferAccounting::reserve(&b, 40));
        // And engine buffering must never starve I/O admission: once the
        // I/O side drains, new input fits regardless of engine usage.
        b.release(50);
        assert!(b.try_reserve(50), "engine at limit, I/O still admits");
        BufferAccounting::release(&b, 100);
        b.release(100);
        assert_eq!(b.engine_used(), 0);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn concurrent_reservations_never_exceed_limit() {
        use std::sync::Arc;
        let b = Arc::new(MemoryBudget::new(1000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                let mut held = 0usize;
                for _ in 0..1000 {
                    if b.try_reserve(7) {
                        held += 7;
                        assert!(b.used() <= 1000);
                    }
                    if held >= 70 {
                        b.release(held);
                        held = 0;
                    }
                }
                b.release(held);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.used(), 0);
    }
}
