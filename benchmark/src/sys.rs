//! Process-side plumbing the measurements rest on: the counting
//! allocator, per-thread CPU time from `/proc`, order statistics, and the
//! hashing sink every operation's output is checked through.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts allocator acquisitions (alloc, alloc_zeroed, realloc) for
/// `core.allocs_per_event`. Always installed: the one relaxed increment
/// is paid by the traced and the untraced pass alike.
pub struct CountingAllocator;

// SAFETY: every operation is delegated unchanged to `System`; the only
// addition is a relaxed counter increment, which touches no allocator
// state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocator acquisitions so far, process-wide.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Kernel clock ticks per second for `/proc/*/stat` CPU fields. Linux
/// has reported `USER_HZ` = 100 on every architecture for decades, and
/// the tree has no libc crate to ask `sysconf`.
const CLK_TCK: f64 = 100.0;

/// CPU seconds (user + system) of every thread of this process, keyed by
/// thread name as the kernel reports it (truncated to 15 bytes).
pub fn thread_cpu_seconds() -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        if let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) {
            if let Some(parsed) = parse_stat(&stat) {
                out.push(parsed);
            }
        }
    }
    out
}

/// `(comm, utime + stime in seconds)` from one `stat` line. The name sits
/// in parentheses and may itself contain spaces or parentheses, so split
/// at the last `)`; utime and stime are fields 14 and 15.
fn parse_stat(stat: &str) -> Option<(String, f64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let mut fields = stat[close + 1..].split_ascii_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((stat[open + 1..close].to_string(), (utime + stime) / CLK_TCK))
}

fn cpu_seconds_at(stat_path: &str) -> f64 {
    std::fs::read_to_string(stat_path)
        .ok()
        .and_then(|stat| parse_stat(&stat))
        .map_or(0.0, |(_, seconds)| seconds)
}

/// CPU seconds of the calling thread. Generator threads call this just
/// before they exit: a dead thread no longer appears under
/// `/proc/self/task`, so its time must be read while it still runs.
pub fn own_thread_cpu_seconds() -> f64 {
    cpu_seconds_at("/proc/thread-self/stat")
}

/// CPU seconds of the whole process, threads that have exited included.
pub fn process_cpu_seconds() -> f64 {
    cpu_seconds_at("/proc/self/stat")
}

/// CPU seconds summed over the threads whose name starts with `prefix`.
pub fn cpu_of(threads: &[(String, f64)], prefix: &str) -> f64 {
    threads
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, s)| s)
        .sum()
}

/// Nearest-rank percentile of an ascending-sorted sample (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Length and hash of one output: what an operation's bytes are compared
/// by, so the benchmark never stores a 2 MB result per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub len: u64,
    pub hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a folded over little-endian 8-byte words (the tail is
/// zero-padded; the length is compared separately). Word-wise so that
/// checking a 2 MB output costs ~0.3 ms, not the ~2 ms a byte-wise FNV
/// would add to a 30 ms operation; a carry buffer makes the digest
/// independent of how the producer splits its writes.
pub struct HashSink {
    len: u64,
    hash: u64,
    carry: [u8; 8],
    carried: usize,
    /// When the first byte arrived (the time-to-first-byte stamp).
    pub first_byte: Option<Instant>,
}

impl Default for HashSink {
    fn default() -> Self {
        HashSink {
            len: 0,
            hash: FNV_OFFSET,
            carry: [0; 8],
            carried: 0,
            first_byte: None,
        }
    }
}

impl HashSink {
    fn word(&mut self, w: [u8; 8]) {
        self.hash = (self.hash ^ u64::from_le_bytes(w)).wrapping_mul(FNV_PRIME);
    }

    pub fn update(&mut self, mut data: &[u8]) {
        if data.is_empty() {
            return;
        }
        if self.first_byte.is_none() {
            self.first_byte = Some(Instant::now());
        }
        self.len += data.len() as u64;
        if self.carried > 0 {
            let take = (8 - self.carried).min(data.len());
            self.carry[self.carried..self.carried + take].copy_from_slice(&data[..take]);
            self.carried += take;
            data = &data[take..];
            if self.carried < 8 {
                return;
            }
            self.word(self.carry);
            self.carried = 0;
        }
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            self.word(w.try_into().expect("chunks_exact(8)"));
        }
        let tail = words.remainder();
        self.carry[..tail.len()].copy_from_slice(tail);
        self.carried = tail.len();
    }

    pub fn digest(&self) -> Digest {
        let mut hash = self.hash;
        if self.carried > 0 {
            let mut w = [0u8; 8];
            w[..self.carried].copy_from_slice(&self.carry[..self.carried]);
            hash = (hash ^ u64::from_le_bytes(w)).wrapping_mul(FNV_PRIME);
        }
        Digest {
            len: self.len,
            hash,
        }
    }
}

impl Write for HashSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_write_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut whole = HashSink::default();
        whole.update(&data);
        for split in [1usize, 3, 7, 8, 9, 64] {
            let mut parts = HashSink::default();
            for piece in data.chunks(split) {
                parts.update(piece);
            }
            assert_eq!(parts.digest(), whole.digest(), "split {split}");
        }
        let mut other = HashSink::default();
        other.update(&data[..999]);
        assert_ne!(other.digest(), whole.digest());
    }

    #[test]
    fn stat_line_with_spaces_in_comm() {
        let line = "42 (gcx eval) 0) S 1 1 1 0 -1 0 0 0 0 0 150 50 0 0 20 0 1 0 0 0 0";
        let (name, secs) = parse_stat(line).expect("parses");
        assert_eq!(name, "gcx eval) 0");
        assert!((secs - 2.0).abs() < 1e-9);
    }

    #[test]
    fn order_statistics() {
        let mut v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.95), 4.0);
    }
}
