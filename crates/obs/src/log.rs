//! Leveled structured logging to stderr, configured via `GCX_LOG`.
//!
//! ```text
//! GCX_LOG=info                       # global level
//! GCX_LOG=warn,gcx_core=debug        # per-target override (prefix match)
//! GCX_LOG=off                        # silence everything
//! ```
//!
//! Targets are module-path-like strings (`gcx_net::server`); an override
//! applies to the most specific (longest) matching prefix. The default
//! level is `warn`.
//!
//! Each record is one line, written atomically to stderr:
//!
//! ```text
//! 2026-08-08T12:34:56.789Z  WARN gcx_net::server: session 17 failed: …
//! ```
//!
//! Use the [`log_error!`](crate::log_error), [`log_warn!`](crate::log_warn),
//! [`log_info!`](crate::log_info) and [`log_debug!`](crate::log_debug)
//! macros; they evaluate their format arguments only when the
//! target/level combination is enabled. Hot paths that cannot afford
//! even the filter lookup should hoist [`enabled`] into a `bool` once
//! (the engine does this for its per-binding debug trace).

use std::io::Write as _;
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed and could not be handled locally.
    Error = 0,
    /// Something unexpected that the server survived (default threshold).
    Warn = 1,
    /// Lifecycle events (bind, shutdown, config).
    Info = 2,
    /// Per-request / per-binding tracing.
    Debug = 3,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
        }
    }

    fn parse(s: &str) -> Option<Option<Level>> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Some(Level::Error)),
            "warn" | "warning" => Some(Some(Level::Warn)),
            "info" => Some(Some(Level::Info)),
            "debug" | "trace" => Some(Some(Level::Debug)),
            "off" | "none" => Some(None),
            _ => None,
        }
    }
}

/// Parsed `GCX_LOG` configuration. `None` filters mean "off".
struct Config {
    default: Option<Level>,
    /// `(target prefix, level)` overrides; most specific prefix wins.
    targets: Vec<(String, Option<Level>)>,
}

impl Config {
    fn from_spec(spec: &str) -> Config {
        let mut cfg = Config {
            default: Some(Level::Warn),
            targets: Vec::new(),
        };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.split_once('=') {
                Some((target, level)) => {
                    if let Some(f) = Level::parse(level) {
                        cfg.targets.push((target.trim().to_string(), f));
                    }
                }
                None => {
                    if let Some(f) = Level::parse(part) {
                        cfg.default = f;
                    }
                }
            }
        }
        // Longest prefix first so lookup can take the first match.
        cfg.targets
            .sort_by_key(|(prefix, _)| std::cmp::Reverse(prefix.len()));
        cfg
    }

    fn level_for(&self, target: &str) -> Option<Level> {
        for (prefix, filter) in &self.targets {
            if target.starts_with(prefix.as_str()) {
                return *filter;
            }
        }
        self.default
    }
}

fn config() -> &'static Config {
    static CONFIG: OnceLock<Config> = OnceLock::new();
    CONFIG.get_or_init(|| Config::from_spec(&std::env::var("GCX_LOG").unwrap_or_default()))
}

/// True when a record at `level` for `target` would be written. Cheap
/// (a prefix scan over the parsed config), but hot paths should hoist
/// the result.
#[inline]
pub fn enabled(level: Level, target: &str) -> bool {
    matches!(config().level_for(target), Some(max) if level <= max)
}

/// Formats and writes one record. Called by the macros after an
/// [`enabled`] check; the line is assembled first and written with a
/// single syscall so concurrent writers cannot interleave mid-line.
pub fn write_record(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    use std::fmt::Write as _;
    let mut line = String::with_capacity(96);
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    format_utc(&mut line, now.as_secs(), now.subsec_millis());
    let _ = writeln!(line, " {:5} {target}: {args}", level.as_str());
    let _ = std::io::stderr().lock().write_all(line.as_bytes());
}

/// Appends `YYYY-MM-DDThh:mm:ss.mmmZ` for a Unix timestamp (proleptic
/// Gregorian; days-to-civil after Howard Hinnant's algorithm).
fn format_utc(out: &mut String, secs: u64, millis: u32) {
    use std::fmt::Write as _;
    let days = secs / 86_400;
    let rem = secs % 86_400;
    let (h, m, s) = (rem / 3_600, (rem % 3_600) / 60, rem % 60);
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { y + 1 } else { y };
    let _ = write!(
        out,
        "{year:04}-{month:02}-{d:02}T{h:02}:{m:02}:{s:02}.{millis:03}Z"
    );
}

/// Logs at [`Level::Error`]: `log_error!("gcx_net::server", "bind failed: {e}")`.
#[macro_export]
macro_rules! log_error {
    ($target:expr, $($arg:tt)+) => {
        if $crate::log::enabled($crate::log::Level::Error, $target) {
            $crate::log::write_record($crate::log::Level::Error, $target, ::core::format_args!($($arg)+));
        }
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! log_warn {
    ($target:expr, $($arg:tt)+) => {
        if $crate::log::enabled($crate::log::Level::Warn, $target) {
            $crate::log::write_record($crate::log::Level::Warn, $target, ::core::format_args!($($arg)+));
        }
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! log_info {
    ($target:expr, $($arg:tt)+) => {
        if $crate::log::enabled($crate::log::Level::Info, $target) {
            $crate::log::write_record($crate::log::Level::Info, $target, ::core::format_args!($($arg)+));
        }
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! log_debug {
    ($target:expr, $($arg:tt)+) => {
        if $crate::log::enabled($crate::log::Level::Debug, $target) {
            $crate::log::write_record($crate::log::Level::Debug, $target, ::core::format_args!($($arg)+));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_and_prefix_matching() {
        let cfg = Config::from_spec("warn,gcx_core=debug,gcx_core::engine=error,gcx_net=off");
        assert_eq!(cfg.level_for("gcx_service"), Some(Level::Warn));
        assert_eq!(cfg.level_for("gcx_core::preproject"), Some(Level::Debug));
        assert_eq!(
            cfg.level_for("gcx_core::engine"),
            Some(Level::Error),
            "longest prefix wins"
        );
        assert_eq!(cfg.level_for("gcx_net::server"), None);
    }

    #[test]
    fn default_is_warn_and_junk_is_ignored() {
        let cfg = Config::from_spec("");
        assert_eq!(cfg.level_for("anything"), Some(Level::Warn));
        let cfg = Config::from_spec("bogus,alsobad=nope");
        assert_eq!(cfg.level_for("anything"), Some(Level::Warn));
        let cfg = Config::from_spec("off");
        assert_eq!(cfg.level_for("anything"), None);
    }

    #[test]
    fn level_ordering_gates_correctly() {
        let cfg = Config::from_spec("info");
        let max = cfg.level_for("t").unwrap();
        assert!(Level::Error <= max && Level::Warn <= max && Level::Info <= max);
        assert!(Level::Debug > max, "debug filtered at info");
    }

    #[test]
    fn utc_formatting_known_instants() {
        let mut s = String::new();
        format_utc(&mut s, 0, 0);
        assert_eq!(s, "1970-01-01T00:00:00.000Z");
        s.clear();
        // 2026-08-08T00:00:00Z
        format_utc(&mut s, 1_786_147_200, 123);
        assert_eq!(s, "2026-08-08T00:00:00.123Z");
        s.clear();
        // Leap-year day: 2024-02-29T23:59:59Z
        format_utc(&mut s, 1_709_251_199, 999);
        assert_eq!(s, "2024-02-29T23:59:59.999Z");
    }
}
