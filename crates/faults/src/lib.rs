//! Deterministic, seeded fault injection behind named sites.
//!
//! Production code sprinkles cheap probes at the places where the real
//! world fails — socket reads, evaluator scheduling, budget reservation:
//!
//! ```ignore
//! if gcx_faults::fire("net.read.err") {
//!     return ReadOutcome::Gone;
//! }
//! ```
//!
//! Without the `chaos` cargo feature every entry point here is an
//! `#[inline(always)]` constant (`false`/`None`), so the probes fold to
//! nothing in default builds. With `--features chaos` a schedule can be
//! installed two ways:
//!
//! * the `GCX_FAULTS` environment variable, read once on first use:
//!   `GCX_FAULTS="<seed>:<site>=<rate>,<site>=<rate>,..."`, e.g.
//!   `GCX_FAULTS="42:net.read.short=0.25,eval.panic=0.05"`;
//! * programmatically via [`configure`] / [`clear`] (tests — the
//!   schedule is process-global, so tests that configure it must
//!   serialize on their own mutex).
//!
//! Rates are probabilities in `[0, 1]`. Draws are **deterministic per
//! `(seed, site, nth-call)`**: each site keeps an atomic call counter
//! and hashes `seed ⊕ fnv1a(site)` with the call index through
//! splitmix64, so a given seed replays the same fault pattern at every
//! site regardless of thread interleaving elsewhere. A failing chaos
//! run prints its seed; re-running with that seed reproduces the exact
//! schedule.
//!
//! The well-known sites threaded through the workspace:
//!
//! | site             | effect                                              |
//! |------------------|-----------------------------------------------------|
//! | `net.read.err`   | socket read reports a hard error                    |
//! | `net.read.short` | socket read truncated to 1 byte                     |
//! | `net.read.eof`   | socket read reports EOF (truncated request body)    |
//! | `net.write.err`  | socket write reports a hard error                   |
//! | `net.write.short`| socket write truncated to 1 byte                    |
//! | `net.accept.err` | accepted connection treated as an accept error      |
//! | `pool.delay`     | evaluator job start delayed 1–8 ms                  |
//! | `eval.panic`     | panic inside the evaluator job                      |
//! | `budget.reject`  | `MemoryBudget::try_reserve` rejects the reservation |

#![forbid(unsafe_code)]

#[cfg(feature = "chaos")]
mod imp {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Once, OnceLock, RwLock};
    use std::time::Duration;

    struct Site {
        rate: f64,
        calls: AtomicU64,
        fired: AtomicU64,
    }

    struct Schedule {
        seed: u64,
        sites: HashMap<String, Site>,
    }

    fn registry() -> &'static RwLock<Option<Schedule>> {
        static REG: OnceLock<RwLock<Option<Schedule>>> = OnceLock::new();
        REG.get_or_init(|| RwLock::new(None))
    }

    /// Loads `GCX_FAULTS` exactly once, before the first schedule access,
    /// so a programmatic [`configure`] is never clobbered by the env.
    fn ensure_env() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            if let Ok(spec) = std::env::var("GCX_FAULTS") {
                if let Err(e) = configure_str(&spec) {
                    eprintln!("gcx-faults: ignoring GCX_FAULTS ({e})");
                }
            }
        });
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn splitmix64(seed: u64, n: u64) -> u64 {
        let mut z = seed.wrapping_add(n.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn unit(h: u64) -> f64 {
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The raw per-call hash if the site fires on this call, else `None`.
    fn draw(site: &str) -> Option<u64> {
        ensure_env();
        let reg = registry().read().unwrap_or_else(|p| p.into_inner());
        let sched = reg.as_ref()?;
        let s = sched.sites.get(site)?;
        if s.rate <= 0.0 {
            return None;
        }
        let n = s.calls.fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(sched.seed ^ fnv1a(site.as_bytes()), n);
        if s.rate >= 1.0 || unit(h) < s.rate {
            s.fired.fetch_add(1, Ordering::Relaxed);
            Some(h)
        } else {
            None
        }
    }

    /// Whether the named site fires on this call.
    pub fn fire(site: &str) -> bool {
        draw(site).is_some()
    }

    /// A deterministic 1–8 ms delay if the named site fires on this call.
    pub fn delay(site: &str) -> Option<Duration> {
        draw(site).map(|h| Duration::from_millis(1 + (h >> 32) % 8))
    }

    /// Installs a schedule: `sites` is the `<site>=<rate>,...` list.
    pub fn configure(seed: u64, sites: &str) -> Result<(), String> {
        ensure_env();
        let mut map = HashMap::new();
        for entry in sites.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (name, rate) = entry
                .split_once('=')
                .ok_or_else(|| format!("expected <site>=<rate>, got {entry:?}"))?;
            let rate: f64 = rate
                .trim()
                .parse()
                .map_err(|_| format!("bad rate in {entry:?}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate out of [0,1] in {entry:?}"));
            }
            map.insert(
                name.trim().to_string(),
                Site {
                    rate,
                    calls: AtomicU64::new(0),
                    fired: AtomicU64::new(0),
                },
            );
        }
        if map.is_empty() {
            return Err("empty fault schedule".to_string());
        }
        let mut reg = registry().write().unwrap_or_else(|p| p.into_inner());
        *reg = Some(Schedule { seed, sites: map });
        Ok(())
    }

    /// Parses the full `GCX_FAULTS` form: `<seed>:<site>=<rate>,...`.
    pub fn configure_str(spec: &str) -> Result<(), String> {
        let (seed, sites) = spec
            .split_once(':')
            .ok_or_else(|| "expected <seed>:<site>=<rate>,...".to_string())?;
        let seed = seed.trim();
        let seed: u64 = if let Some(hex) = seed.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).map_err(|_| format!("bad seed {seed:?}"))?
        } else {
            seed.parse().map_err(|_| format!("bad seed {seed:?}"))?
        };
        configure(seed, sites)
    }

    /// Removes the schedule: every site goes quiet.
    pub fn clear() {
        ensure_env();
        let mut reg = registry().write().unwrap_or_else(|p| p.into_inner());
        *reg = None;
    }

    /// The active schedule's seed, if one is installed.
    pub fn seed() -> Option<u64> {
        ensure_env();
        let reg = registry().read().unwrap_or_else(|p| p.into_inner());
        reg.as_ref().map(|s| s.seed)
    }

    /// How many times the named site has fired under the active schedule.
    pub fn fired_count(site: &str) -> u64 {
        ensure_env();
        let reg = registry().read().unwrap_or_else(|p| p.into_inner());
        reg.as_ref()
            .and_then(|s| s.sites.get(site))
            .map_or(0, |s| s.fired.load(Ordering::Relaxed))
    }
}

#[cfg(feature = "chaos")]
pub use imp::{clear, configure, configure_str, delay, fire, fired_count, seed};

/// `true` when the `chaos` feature is compiled in.
#[inline(always)]
pub const fn compiled() -> bool {
    cfg!(feature = "chaos")
}

#[cfg(not(feature = "chaos"))]
mod noop {
    use std::time::Duration;

    /// No-op: always `false` without the `chaos` feature.
    #[inline(always)]
    pub fn fire(_site: &str) -> bool {
        false
    }

    /// No-op: always `None` without the `chaos` feature.
    #[inline(always)]
    pub fn delay(_site: &str) -> Option<Duration> {
        None
    }

    /// Errors: schedules require the `chaos` feature.
    pub fn configure(_seed: u64, _sites: &str) -> Result<(), String> {
        Err("gcx-faults built without the chaos feature".to_string())
    }

    /// Errors: schedules require the `chaos` feature.
    pub fn configure_str(_spec: &str) -> Result<(), String> {
        Err("gcx-faults built without the chaos feature".to_string())
    }

    /// No-op without the `chaos` feature.
    #[inline(always)]
    pub fn clear() {}

    /// Always `None` without the `chaos` feature.
    #[inline(always)]
    pub fn seed() -> Option<u64> {
        None
    }

    /// Always `0` without the `chaos` feature.
    #[inline(always)]
    pub fn fired_count(_site: &str) -> u64 {
        0
    }
}

#[cfg(not(feature = "chaos"))]
pub use noop::{clear, configure, configure_str, delay, fire, fired_count, seed};

#[cfg(all(test, not(feature = "chaos")))]
mod noop_tests {
    #[test]
    fn everything_is_inert() {
        assert!(!super::compiled());
        assert!(!super::fire("net.read.err"));
        assert!(super::delay("pool.delay").is_none());
        assert!(super::configure(1, "a=1").is_err());
        assert!(super::seed().is_none());
        assert_eq!(super::fired_count("net.read.err"), 0);
    }
}

#[cfg(all(test, feature = "chaos"))]
mod chaos_tests {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The schedule is process-global; serialize tests that touch it.
    fn lock() -> MutexGuard<'static, ()> {
        static L: OnceLock<Mutex<()>> = OnceLock::new();
        L.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    fn sequence(site: &str, n: usize) -> Vec<bool> {
        (0..n).map(|_| super::fire(site)).collect()
    }

    #[test]
    fn same_seed_replays_the_same_pattern() {
        let _g = lock();
        super::configure(42, "x=0.5").unwrap();
        let a = sequence("x", 64);
        super::configure(42, "x=0.5").unwrap();
        let b = sequence("x", 64);
        assert_eq!(a, b);
        super::configure(43, "x=0.5").unwrap();
        let c = sequence("x", 64);
        assert_ne!(a, c, "different seeds should diverge");
        super::clear();
    }

    #[test]
    fn rates_zero_and_one_are_exact() {
        let _g = lock();
        super::configure(7, "never=0,always=1").unwrap();
        assert!(sequence("never", 100).iter().all(|&f| !f));
        assert!(sequence("always", 100).iter().all(|&f| f));
        assert_eq!(super::fired_count("always"), 100);
        assert!(!super::fire("unknown.site"), "unlisted sites never fire");
        super::clear();
        assert!(!super::fire("always"), "cleared schedule is quiet");
    }

    #[test]
    fn mid_rate_fires_roughly_proportionally() {
        let _g = lock();
        super::configure(1234, "p=0.25").unwrap();
        let hits = sequence("p", 1000).iter().filter(|&&f| f).count();
        assert!((150..=350).contains(&hits), "0.25 rate fired {hits}/1000");
        super::clear();
    }

    #[test]
    fn env_style_spec_parses() {
        let _g = lock();
        super::configure_str("0x2a:net.read.short=0.25, eval.panic=0.05").unwrap();
        assert_eq!(super::seed(), Some(42));
        assert!(super::configure_str("nope").is_err());
        assert!(super::configure_str("1:bad").is_err());
        assert!(super::configure_str("1:x=2.0").is_err());
        assert!(super::configure_str("1:").is_err());
        super::clear();
    }

    #[test]
    fn delay_is_bounded() {
        let _g = lock();
        super::configure(9, "d=1").unwrap();
        for _ in 0..50 {
            let d = super::delay("d").expect("rate 1 always fires");
            assert!((1..=8).contains(&d.as_millis()), "{d:?}");
        }
        super::clear();
    }
}
