//! Vectorized structural byte scanning for the streaming lexer.
//!
//! After skip-mode lexing (dead subtrees consumed as raw bytes), the
//! byte-level scan loops *are* the throughput bound: 66–99 % of XMark
//! input is consumed looking for the next `<`, the closing quote of an
//! attribute value, or a comment/CDATA terminator. This module provides
//! memchr-style primitives for exactly those scans, with three kernel
//! tiers selected once at runtime:
//!
//! * **AVX2** (32-byte blocks) and **SSE2** (16-byte blocks) via
//!   `std::arch` intrinsics, runtime-detected with
//!   `is_x86_feature_detected!` — no external crates, the build is
//!   offline.
//! * **SWAR** — a portable wide-word fallback processing 8 bytes per
//!   `u64` with the classic zero-byte trick, used on non-x86_64 targets.
//! * **Scalar** — the reference implementation every other kernel must
//!   match byte for byte (see `tests/scan_differential.rs`).
//!
//! All primitives are pure functions over `&[u8]` returning indices
//! *relative to the slice*; chunk-boundary correctness is the caller's
//! concern (the lexer re-invokes them after every buffer refill, and the
//! differential suite proves a target straddling a refill behaves
//! identically to the scalar path).
//!
//! Kernel selection: the best available kernel is chosen on first use.
//! `GCX_SCAN_KERNEL=scalar|swar|sse2|avx2|auto` forces a specific tier
//! (requests for an unavailable tier fall back to the best available),
//! which is how CI exercises the fallback kernels on AVX2 machines.

use std::sync::atomic::{AtomicU8, Ordering};

/// A scanning kernel tier. Ordered from reference to fastest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanKernel {
    /// Byte-at-a-time reference implementation.
    Scalar,
    /// Portable 8-bytes-per-`u64` wide-word kernel.
    Swar,
    /// 16-byte SSE2 blocks (x86_64 baseline, always available there).
    Sse2,
    /// 32-byte AVX2 blocks (runtime-detected).
    Avx2,
}

impl ScanKernel {
    /// Stable lowercase name (env values, logs, bench reports).
    pub fn name(self) -> &'static str {
        match self {
            ScanKernel::Scalar => "scalar",
            ScanKernel::Swar => "swar",
            ScanKernel::Sse2 => "sse2",
            ScanKernel::Avx2 => "avx2",
        }
    }

    /// Whether this kernel can run on the current machine.
    pub fn is_available(self) -> bool {
        match self {
            ScanKernel::Scalar | ScanKernel::Swar => true,
            #[cfg(target_arch = "x86_64")]
            ScanKernel::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            ScanKernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every kernel runnable on this machine (reference first).
    pub fn available() -> Vec<ScanKernel> {
        [
            ScanKernel::Scalar,
            ScanKernel::Swar,
            ScanKernel::Sse2,
            ScanKernel::Avx2,
        ]
        .into_iter()
        .filter(|k| k.is_available())
        .collect()
    }

    fn to_u8(self) -> u8 {
        match self {
            ScanKernel::Scalar => 1,
            ScanKernel::Swar => 2,
            ScanKernel::Sse2 => 3,
            ScanKernel::Avx2 => 4,
        }
    }

    fn from_u8(v: u8) -> Option<ScanKernel> {
        match v {
            1 => Some(ScanKernel::Scalar),
            2 => Some(ScanKernel::Swar),
            3 => Some(ScanKernel::Sse2),
            4 => Some(ScanKernel::Avx2),
            _ => None,
        }
    }
}

/// 0 = unresolved; otherwise `ScanKernel::to_u8`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

#[cold]
fn resolve_kernel() -> ScanKernel {
    let chosen = match std::env::var("GCX_SCAN_KERNEL").ok().as_deref() {
        Some("scalar") => ScanKernel::Scalar,
        Some("swar") => ScanKernel::Swar,
        Some("sse2") if ScanKernel::Sse2.is_available() => ScanKernel::Sse2,
        Some("avx2") if ScanKernel::Avx2.is_available() => ScanKernel::Avx2,
        // Unknown value, unavailable tier, or "auto": best available.
        _ => best_available(),
    };
    ACTIVE.store(chosen.to_u8(), Ordering::Relaxed);
    chosen
}

fn best_available() -> ScanKernel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            ScanKernel::Avx2
        } else {
            ScanKernel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    ScanKernel::Swar
}

/// The kernel all top-level scan functions dispatch to, resolved once
/// (`GCX_SCAN_KERNEL` → best available).
#[inline]
pub fn active_kernel() -> ScanKernel {
    match ScanKernel::from_u8(ACTIVE.load(Ordering::Relaxed)) {
        Some(k) => k,
        None => resolve_kernel(),
    }
}

/// Stable name of the active kernel (diagnostics, bench reports).
pub fn kernel_name() -> &'static str {
    active_kernel().name()
}

/// Overrides the active kernel process-wide. Testing hook: lets the
/// differential suite drive the full lexer through every kernel; the
/// request is clamped to an available tier.
pub fn force_kernel(k: ScanKernel) {
    let k = if k.is_available() {
        k
    } else {
        best_available()
    };
    ACTIVE.store(k.to_u8(), Ordering::Relaxed);
}

/// True for bytes allowed in element/attribute names (the lexer's name
/// grammar: ASCII alphanumerics plus `_ - . :`).
#[inline]
pub fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' || b == b':'
}

/// Inline-SSE2 probe width used when the AVX2 kernel is active.
/// `#[target_feature]` functions cannot inline into their callers, so
/// every AVX2 scan is a real function call — pure overhead when the
/// match lands a few bytes in, which is the common case for the lexer
/// (whitespace gaps, names, inter-tag text runs are almost always well
/// under 128 bytes). The dispatch therefore runs an inlinable SSE2 scan
/// over the first `AVX2_PROBE` bytes and only hands the remainder to
/// the AVX2 call when the probe comes up empty, i.e. for genuinely long
/// runs where the wider vector amortizes the call.
#[cfg(target_arch = "x86_64")]
const AVX2_PROBE: usize = 128;

/// Dispatches one scan: Scalar/Swar/Sse2 directly (all inlinable), Avx2
/// as inline-SSE2 probe over the first [`AVX2_PROBE`] bytes, then the
/// out-of-line AVX2 call for the remainder.
macro_rules! dispatch {
    ($fn:ident, $hay:ident, ( $($arg:expr),* )) => {
        match active_kernel() {
            ScanKernel::Scalar => scalar::$fn($hay $(, $arg)*),
            ScanKernel::Swar => swar::$fn($hay $(, $arg)*),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is part of the x86_64 baseline.
            ScanKernel::Sse2 => unsafe { sse2::$fn($hay $(, $arg)*) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx2 is only selectable when runtime-detected.
            ScanKernel::Avx2 => unsafe {
                if $hay.len() <= AVX2_PROBE {
                    sse2::$fn($hay $(, $arg)*)
                } else {
                    match sse2::$fn(&$hay[..AVX2_PROBE] $(, $arg)*) {
                        Some(i) => Some(i),
                        None => avx2::$fn(&$hay[AVX2_PROBE..] $(, $arg)*)
                            .map(|p| AVX2_PROBE + p),
                    }
                }
            },
            #[cfg(not(target_arch = "x86_64"))]
            _ => swar::$fn($hay $(, $arg)*),
        }
    };
}

/// Index of the first occurrence of `b0` (memchr).
#[inline]
pub fn find_byte(hay: &[u8], b0: u8) -> Option<usize> {
    dispatch!(find_byte, hay, (b0))
}

/// Index of the first occurrence of `b0` or `b1`.
#[inline]
pub fn find_byte2(hay: &[u8], b0: u8, b1: u8) -> Option<usize> {
    dispatch!(find_byte2, hay, (b0, b1))
}

/// Index of the first occurrence of `b0`, `b1` or `b2`.
#[inline]
pub fn find_byte3(hay: &[u8], b0: u8, b1: u8, b2: u8) -> Option<usize> {
    dispatch!(find_byte3, hay, (b0, b1, b2))
}

/// Index of the first byte that is *not* ASCII whitespace
/// (space, `\t`, `\n`, `\x0C`, `\r`).
#[inline]
pub fn find_non_ws(hay: &[u8]) -> Option<usize> {
    dispatch!(find_non_ws, hay, ())
}

/// Length of the leading run of name bytes (see [`is_name_byte`]).
#[inline]
pub fn name_run_len(hay: &[u8]) -> usize {
    match active_kernel() {
        ScanKernel::Scalar => scalar::name_run_len(hay),
        ScanKernel::Swar => swar::name_run_len(hay),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        ScanKernel::Sse2 => unsafe { sse2::name_run_len(hay) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only selectable when runtime-detected.
        ScanKernel::Avx2 => unsafe {
            if hay.len() <= AVX2_PROBE {
                sse2::name_run_len(hay)
            } else {
                let n = sse2::name_run_len(&hay[..AVX2_PROBE]);
                if n < AVX2_PROBE {
                    n
                } else {
                    AVX2_PROBE + avx2::name_run_len(&hay[AVX2_PROBE..])
                }
            }
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => swar::name_run_len(hay),
    }
}

macro_rules! with_kernel {
    ($k:expr, $fn:ident ( $($arg:expr),* )) => {
        match $k {
            ScanKernel::Scalar => scalar::$fn($($arg),*),
            ScanKernel::Swar => swar::$fn($($arg),*),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is part of the x86_64 baseline.
            ScanKernel::Sse2 => unsafe { sse2::$fn($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            ScanKernel::Avx2 => {
                assert!(ScanKernel::Avx2.is_available(), "AVX2 not available");
                // SAFETY: asserted above.
                unsafe { avx2::$fn($($arg),*) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => swar::$fn($($arg),*),
        }
    };
}

/// [`find_byte`] through an explicit kernel (differential tests).
pub fn find_byte_with(k: ScanKernel, hay: &[u8], b0: u8) -> Option<usize> {
    with_kernel!(k, find_byte(hay, b0))
}

/// [`find_byte2`] through an explicit kernel (differential tests).
pub fn find_byte2_with(k: ScanKernel, hay: &[u8], b0: u8, b1: u8) -> Option<usize> {
    with_kernel!(k, find_byte2(hay, b0, b1))
}

/// [`find_byte3`] through an explicit kernel (differential tests).
pub fn find_byte3_with(k: ScanKernel, hay: &[u8], b0: u8, b1: u8, b2: u8) -> Option<usize> {
    with_kernel!(k, find_byte3(hay, b0, b1, b2))
}

/// [`find_non_ws`] through an explicit kernel (differential tests).
pub fn find_non_ws_with(k: ScanKernel, hay: &[u8]) -> Option<usize> {
    with_kernel!(k, find_non_ws(hay))
}

/// [`name_run_len`] through an explicit kernel (differential tests).
pub fn name_run_len_with(k: ScanKernel, hay: &[u8]) -> usize {
    with_kernel!(k, name_run_len(hay))
}

// ---------------------------------------------------------------------
// Monomorphizable ops for tight state machines
// ---------------------------------------------------------------------

/// Scan primitives as a monomorphizable trait: a caller driving a tight
/// per-item state machine (the lexer's `skip_subtree`) selects one impl
/// per buffer window, which hoists kernel dispatch — and, for the SIMD
/// impl, the vector splat constants — out of the per-item loop entirely.
pub trait ScanOps {
    fn find_byte(hay: &[u8], b0: u8) -> Option<usize>;
    fn find_byte3(hay: &[u8], b0: u8, b1: u8, b2: u8) -> Option<usize>;
}

/// [`ScanOps`] through the scalar reference kernel.
pub struct ScalarOps;

impl ScanOps for ScalarOps {
    #[inline]
    fn find_byte(hay: &[u8], b0: u8) -> Option<usize> {
        scalar::find_byte(hay, b0)
    }

    #[inline]
    fn find_byte3(hay: &[u8], b0: u8, b1: u8, b2: u8) -> Option<usize> {
        scalar::find_byte3(hay, b0, b1, b2)
    }
}

/// [`ScanOps`] through the SWAR kernel.
pub struct SwarOps;

impl ScanOps for SwarOps {
    #[inline]
    fn find_byte(hay: &[u8], b0: u8) -> Option<usize> {
        swar::find_byte(hay, b0)
    }

    #[inline]
    fn find_byte3(hay: &[u8], b0: u8, b1: u8, b2: u8) -> Option<usize> {
        swar::find_byte3(hay, b0, b1, b2)
    }
}

/// [`ScanOps`] through inline SSE2 — used for both the Sse2 and Avx2
/// tiers: inside a per-item state machine the runs are short, the
/// out-of-line AVX2 call cannot inline (`#[target_feature]`), and fully
/// inlined SSE2 with hoisted constants wins.
#[cfg(target_arch = "x86_64")]
pub struct SimdOps;

#[cfg(target_arch = "x86_64")]
impl ScanOps for SimdOps {
    #[inline]
    fn find_byte(hay: &[u8], b0: u8) -> Option<usize> {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { sse2::find_byte(hay, b0) }
    }

    #[inline]
    fn find_byte3(hay: &[u8], b0: u8, b1: u8, b2: u8) -> Option<usize> {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { sse2::find_byte3(hay, b0, b1, b2) }
    }
}

// ---------------------------------------------------------------------
// Scalar reference kernel
// ---------------------------------------------------------------------

mod scalar {
    use super::is_name_byte;

    #[inline]
    pub fn find_byte(hay: &[u8], b0: u8) -> Option<usize> {
        hay.iter().position(|&b| b == b0)
    }

    #[inline]
    pub fn find_byte2(hay: &[u8], b0: u8, b1: u8) -> Option<usize> {
        hay.iter().position(|&b| b == b0 || b == b1)
    }

    #[inline]
    pub fn find_byte3(hay: &[u8], b0: u8, b1: u8, b2: u8) -> Option<usize> {
        hay.iter().position(|&b| b == b0 || b == b1 || b == b2)
    }

    #[inline]
    pub fn find_non_ws(hay: &[u8]) -> Option<usize> {
        hay.iter().position(|&b| !b.is_ascii_whitespace())
    }

    #[inline]
    pub fn name_run_len(hay: &[u8]) -> usize {
        hay.iter()
            .position(|&b| !is_name_byte(b))
            .unwrap_or(hay.len())
    }
}

// ---------------------------------------------------------------------
// SWAR kernel: 8 bytes per u64, no architecture assumptions beyond
// little-or-big-endian u64 loads (from_le_bytes pins the byte order).
// ---------------------------------------------------------------------

mod swar {
    use super::scalar;

    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;

    #[inline]
    fn splat(b: u8) -> u64 {
        LO * b as u64
    }

    #[inline]
    fn load(hay: &[u8], i: usize) -> u64 {
        u64::from_le_bytes(hay[i..i + 8].try_into().expect("8 bytes"))
    }

    /// High bit set in each byte of `x` that is zero — with possible
    /// false positives strictly *above* (more significant than) a true
    /// zero byte, because the borrow that creates them can only
    /// originate at a zero byte below. `trailing_zeros` therefore
    /// always lands on a true match (the classic memchr trick).
    #[inline]
    fn zero_mask_approx(x: u64) -> u64 {
        x.wrapping_sub(LO) & !x & HI
    }

    /// High bit set in *exactly* the zero bytes of `x` (no false
    /// positives: the per-byte add is masked to 7 bits, so no carry
    /// crosses byte lanes). Needed when a mask is complemented.
    #[inline]
    fn zero_mask_exact(x: u64) -> u64 {
        let y = (x & !HI).wrapping_add(!HI);
        !(y | x) & HI
    }

    /// High bit set in exactly the bytes within `[lo, hi]`
    /// (`lo <= hi <= 0x7f`; bytes with the top bit set never match).
    #[inline]
    fn range_mask_exact(w: u64, lo: u8, hi: u8) -> u64 {
        debug_assert!(lo <= hi && hi <= 0x7f);
        let heavy = w & HI;
        let w7 = w & !HI;
        let ge = w7.wrapping_add(splat(0x80 - lo)) & HI;
        let le = (LO * (0x80 + hi as u64)).wrapping_sub(w7) & HI;
        ge & le & !heavy
    }

    #[inline]
    fn first_index(mask: u64) -> usize {
        (mask.trailing_zeros() >> 3) as usize
    }

    #[inline]
    pub fn find_byte(hay: &[u8], b0: u8) -> Option<usize> {
        let t0 = splat(b0);
        let mut i = 0;
        while i + 8 <= hay.len() {
            let m = zero_mask_approx(load(hay, i) ^ t0);
            if m != 0 {
                return Some(i + first_index(m));
            }
            i += 8;
        }
        scalar::find_byte(&hay[i..], b0).map(|p| i + p)
    }

    #[inline]
    pub fn find_byte2(hay: &[u8], b0: u8, b1: u8) -> Option<usize> {
        let (t0, t1) = (splat(b0), splat(b1));
        let mut i = 0;
        while i + 8 <= hay.len() {
            let w = load(hay, i);
            // OR of approximate masks: each mask's false positives sit
            // above its own true match, so the lowest set bit of the OR
            // is still a true match of one of the targets.
            let m = zero_mask_approx(w ^ t0) | zero_mask_approx(w ^ t1);
            if m != 0 {
                return Some(i + first_index(m));
            }
            i += 8;
        }
        scalar::find_byte2(&hay[i..], b0, b1).map(|p| i + p)
    }

    #[inline]
    pub fn find_byte3(hay: &[u8], b0: u8, b1: u8, b2: u8) -> Option<usize> {
        let (t0, t1, t2) = (splat(b0), splat(b1), splat(b2));
        let mut i = 0;
        while i + 8 <= hay.len() {
            let w = load(hay, i);
            let m = zero_mask_approx(w ^ t0) | zero_mask_approx(w ^ t1) | zero_mask_approx(w ^ t2);
            if m != 0 {
                return Some(i + first_index(m));
            }
            i += 8;
        }
        scalar::find_byte3(&hay[i..], b0, b1, b2).map(|p| i + p)
    }

    #[inline]
    pub fn find_non_ws(hay: &[u8]) -> Option<usize> {
        // ASCII whitespace: \t (09), \n (0A), \x0C, \r (0D), space (20).
        let sp = splat(b' ');
        let mut i = 0;
        while i + 8 <= hay.len() {
            let w = load(hay, i);
            let ws = range_mask_exact(w, 0x09, 0x0a)
                | range_mask_exact(w, 0x0c, 0x0d)
                | zero_mask_exact(w ^ sp);
            let non = !ws & HI;
            if non != 0 {
                return Some(i + first_index(non));
            }
            i += 8;
        }
        scalar::find_non_ws(&hay[i..]).map(|p| i + p)
    }

    #[inline]
    pub fn name_run_len(hay: &[u8]) -> usize {
        let mut i = 0;
        while i + 8 <= hay.len() {
            let w = load(hay, i);
            let name = range_mask_exact(w, b'a', b'z')
                | range_mask_exact(w, b'A', b'Z')
                | range_mask_exact(w, b'0', b'9')
                | zero_mask_exact(w ^ splat(b'_'))
                | zero_mask_exact(w ^ splat(b'-'))
                | zero_mask_exact(w ^ splat(b'.'))
                | zero_mask_exact(w ^ splat(b':'));
            let non = !name & HI;
            if non != 0 {
                return i + first_index(non);
            }
            i += 8;
        }
        i + scalar::name_run_len(&hay[i..])
    }
}

// ---------------------------------------------------------------------
// SSE2 kernel: 16-byte blocks. SSE2 is part of the x86_64 baseline, so
// these are callable whenever the target arch matches; they are still
// `unsafe fn` for uniformity with the AVX2 tier.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::scalar;
    use std::arch::x86_64::*;

    #[inline]
    unsafe fn load(hay: &[u8], i: usize) -> __m128i {
        debug_assert!(i + 16 <= hay.len());
        _mm_loadu_si128(hay.as_ptr().add(i) as *const __m128i)
    }

    /// Movemask of bytes equal to any of up to three targets.
    #[inline]
    unsafe fn eq_any_mask(v: __m128i, targets: &[u8]) -> u32 {
        let mut acc = _mm_setzero_si128();
        for &t in targets {
            acc = _mm_or_si128(acc, _mm_cmpeq_epi8(v, _mm_set1_epi8(t as i8)));
        }
        _mm_movemask_epi8(acc) as u32
    }

    #[inline]
    pub unsafe fn find_byte(hay: &[u8], b0: u8) -> Option<usize> {
        let t = _mm_set1_epi8(b0 as i8);
        let n = hay.len();
        let mut i = 0;
        if n >= 16 {
            // First block alone: most scans match within 16 bytes.
            let m = _mm_movemask_epi8(_mm_cmpeq_epi8(load(hay, 0), t)) as u32;
            if m != 0 {
                return Some(m.trailing_zeros() as usize);
            }
            i = 16;
            // 64-byte unrolled main loop for long runs: one OR-tree
            // branch per 64 bytes, exact position recovered from the
            // per-block masks only on a hit.
            while i + 64 <= n {
                let a = _mm_cmpeq_epi8(load(hay, i), t);
                let b = _mm_cmpeq_epi8(load(hay, i + 16), t);
                let c = _mm_cmpeq_epi8(load(hay, i + 32), t);
                let d = _mm_cmpeq_epi8(load(hay, i + 48), t);
                let any = _mm_or_si128(_mm_or_si128(a, b), _mm_or_si128(c, d));
                if _mm_movemask_epi8(any) != 0 {
                    let mask = _mm_movemask_epi8(a) as u64
                        | (_mm_movemask_epi8(b) as u64) << 16
                        | (_mm_movemask_epi8(c) as u64) << 32
                        | (_mm_movemask_epi8(d) as u64) << 48;
                    return Some(i + mask.trailing_zeros() as usize);
                }
                i += 64;
            }
            while i + 16 <= n {
                let m = _mm_movemask_epi8(_mm_cmpeq_epi8(load(hay, i), t)) as u32;
                if m != 0 {
                    return Some(i + m.trailing_zeros() as usize);
                }
                i += 16;
            }
        }
        scalar::find_byte(&hay[i..], b0).map(|p| i + p)
    }

    #[inline]
    pub unsafe fn find_byte2(hay: &[u8], b0: u8, b1: u8) -> Option<usize> {
        let mut i = 0;
        while i + 16 <= hay.len() {
            let m = eq_any_mask(load(hay, i), &[b0, b1]);
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 16;
        }
        scalar::find_byte2(&hay[i..], b0, b1).map(|p| i + p)
    }

    #[inline]
    pub unsafe fn find_byte3(hay: &[u8], b0: u8, b1: u8, b2: u8) -> Option<usize> {
        let mut i = 0;
        while i + 16 <= hay.len() {
            let m = eq_any_mask(load(hay, i), &[b0, b1, b2]);
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 16;
        }
        scalar::find_byte3(&hay[i..], b0, b1, b2).map(|p| i + p)
    }

    #[inline]
    pub unsafe fn find_non_ws(hay: &[u8]) -> Option<usize> {
        let mut i = 0;
        while i + 16 <= hay.len() {
            let ws = eq_any_mask(load(hay, i), &[b' ', b'\t', b'\n', 0x0c, b'\r']);
            let non = !ws & 0xffff;
            if non != 0 {
                return Some(i + non.trailing_zeros() as usize);
            }
            i += 16;
        }
        scalar::find_non_ws(&hay[i..]).map(|p| i + p)
    }

    /// Movemask of bytes within `[lo, hi]` (unsigned, via max/min).
    #[inline]
    unsafe fn range_mask(v: __m128i, lo: u8, hi: u8) -> __m128i {
        let ge = _mm_cmpeq_epi8(_mm_max_epu8(v, _mm_set1_epi8(lo as i8)), v);
        let le = _mm_cmpeq_epi8(_mm_min_epu8(v, _mm_set1_epi8(hi as i8)), v);
        _mm_and_si128(ge, le)
    }

    #[inline]
    pub unsafe fn name_run_len(hay: &[u8]) -> usize {
        let mut i = 0;
        while i + 16 <= hay.len() {
            let v = load(hay, i);
            let mut name = _mm_or_si128(range_mask(v, b'a', b'z'), range_mask(v, b'A', b'Z'));
            name = _mm_or_si128(name, range_mask(v, b'0', b'9'));
            for t in [b'_', b'-', b'.', b':'] {
                name = _mm_or_si128(name, _mm_cmpeq_epi8(v, _mm_set1_epi8(t as i8)));
            }
            let non = !(_mm_movemask_epi8(name) as u32) & 0xffff;
            if non != 0 {
                return i + non.trailing_zeros() as usize;
            }
            i += 16;
        }
        i + scalar::name_run_len(&hay[i..])
    }
}

// ---------------------------------------------------------------------
// AVX2 kernel: 32-byte blocks; callers must have runtime-detected AVX2.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::sse2;
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    unsafe fn load(hay: &[u8], i: usize) -> __m256i {
        debug_assert!(i + 32 <= hay.len());
        _mm256_loadu_si256(hay.as_ptr().add(i) as *const __m256i)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn eq_any_mask(v: __m256i, targets: &[u8]) -> u32 {
        let mut acc = _mm256_setzero_si256();
        for &t in targets {
            acc = _mm256_or_si256(acc, _mm256_cmpeq_epi8(v, _mm256_set1_epi8(t as i8)));
        }
        _mm256_movemask_epi8(acc) as u32
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn find_byte(hay: &[u8], b0: u8) -> Option<usize> {
        let t = _mm256_set1_epi8(b0 as i8);
        let mut i = 0;
        while i + 32 <= hay.len() {
            let m = _mm256_movemask_epi8(_mm256_cmpeq_epi8(load(hay, i), t)) as u32;
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 32;
        }
        sse2::find_byte(&hay[i..], b0).map(|p| i + p)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn find_byte2(hay: &[u8], b0: u8, b1: u8) -> Option<usize> {
        let mut i = 0;
        while i + 32 <= hay.len() {
            let m = eq_any_mask(load(hay, i), &[b0, b1]);
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 32;
        }
        sse2::find_byte2(&hay[i..], b0, b1).map(|p| i + p)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn find_byte3(hay: &[u8], b0: u8, b1: u8, b2: u8) -> Option<usize> {
        let mut i = 0;
        while i + 32 <= hay.len() {
            let m = eq_any_mask(load(hay, i), &[b0, b1, b2]);
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 32;
        }
        sse2::find_byte3(&hay[i..], b0, b1, b2).map(|p| i + p)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn find_non_ws(hay: &[u8]) -> Option<usize> {
        let mut i = 0;
        while i + 32 <= hay.len() {
            let ws = eq_any_mask(load(hay, i), &[b' ', b'\t', b'\n', 0x0c, b'\r']);
            let non = !ws;
            if non != 0 {
                return Some(i + non.trailing_zeros() as usize);
            }
            i += 32;
        }
        sse2::find_non_ws(&hay[i..]).map(|p| i + p)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn range_mask(v: __m256i, lo: u8, hi: u8) -> __m256i {
        let ge = _mm256_cmpeq_epi8(_mm256_max_epu8(v, _mm256_set1_epi8(lo as i8)), v);
        let le = _mm256_cmpeq_epi8(_mm256_min_epu8(v, _mm256_set1_epi8(hi as i8)), v);
        _mm256_and_si256(ge, le)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn name_run_len(hay: &[u8]) -> usize {
        let mut i = 0;
        while i + 32 <= hay.len() {
            let v = load(hay, i);
            let mut name = _mm256_or_si256(range_mask(v, b'a', b'z'), range_mask(v, b'A', b'Z'));
            name = _mm256_or_si256(name, range_mask(v, b'0', b'9'));
            for t in [b'_', b'-', b'.', b':'] {
                name = _mm256_or_si256(name, _mm256_cmpeq_epi8(v, _mm256_set1_epi8(t as i8)));
            }
            let non = !(_mm256_movemask_epi8(name) as u32);
            if non != 0 {
                return i + non.trailing_zeros() as usize;
            }
            i += 32;
        }
        i + sse2::name_run_len(&hay[i..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_roundtrip() {
        for k in [
            ScanKernel::Scalar,
            ScanKernel::Swar,
            ScanKernel::Sse2,
            ScanKernel::Avx2,
        ] {
            assert_eq!(ScanKernel::from_u8(k.to_u8()), Some(k));
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn available_kernels_include_portables() {
        let avail = ScanKernel::available();
        assert!(avail.contains(&ScanKernel::Scalar));
        assert!(avail.contains(&ScanKernel::Swar));
        #[cfg(target_arch = "x86_64")]
        assert!(avail.contains(&ScanKernel::Sse2));
    }

    #[test]
    fn active_kernel_is_available() {
        assert!(active_kernel().is_available());
        assert_eq!(kernel_name(), active_kernel().name());
    }

    #[test]
    fn basic_scans_on_active_kernel() {
        let hay = b"hello <world> & \"quoted\" text with a longer tail to cross blocks....";
        assert_eq!(find_byte(hay, b'<'), Some(6));
        assert_eq!(find_byte(hay, b'z'), None);
        assert_eq!(find_byte2(hay, b'&', b'"'), Some(14));
        assert_eq!(find_byte3(hay, b'!', b'?', b'>'), Some(12));
        assert_eq!(find_non_ws(b"   \t\n x"), Some(6));
        assert_eq!(find_non_ws(b" \t "), None);
        assert_eq!(name_run_len(b"abc-d.e:f_9 rest"), 11);
        assert_eq!(name_run_len(b""), 0);
        assert_eq!(name_run_len(b"abcdefghijklmnopqrstuvwxyz0123456789"), 36);
    }

    /// The SWAR approximate-mask trick must still report exact first
    /// positions: targets adjacent to bytes that trigger borrow chains.
    #[test]
    fn swar_borrow_chain_adversaries() {
        // 0x01 bytes directly above a true match are the classic false
        // positive; the true match must still win.
        for k in ScanKernel::available() {
            let hay = [0x01u8, 0x01, b'<', 0x01, 0x01, 0x01, 0x01, 0x01, 0x01];
            assert_eq!(find_byte_with(k, &hay, b'<'), Some(2), "{k:?}");
            let hay2 = [b'=', 0x3d, b'<', b'=', b'<', 0x01, 0x3c, 0x3d];
            assert_eq!(find_byte_with(k, &hay2, b'<'), Some(2), "{k:?}");
            assert_eq!(find_byte2_with(k, &hay2, b'<', b'='), Some(0), "{k:?}");
        }
    }
}
