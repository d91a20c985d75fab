//! Concurrent serving: a compiled-query cache in front of session
//! spawning.
//!
//! Compilation (parse → rewriting → signOff insertion → projection
//! derivation) is pure per query text, so a service handling repeated
//! queries amortizes it through an LRU cache keyed by *normalized* query
//! text. Each cache entry owns the [`TagInterner`] its query was compiled
//! against — the paper's symbol table belongs to one query and its
//! stream — and every session starts from a clone of it, interning its
//! document's other tags privately. One [`MemoryBudget`] is shared by
//! every session the service opens.

use crate::budget::MemoryBudget;
use crate::session::{SessionConfig, StreamSession};
use crate::ServiceError;
use gcx_query::{compile, CompileOptions, CompiledQuery};
use gcx_xml::TagInterner;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum number of compiled queries kept in the cache.
    pub cache_capacity: usize,
    /// Global cap on service-owned bytes (queued input + undrained
    /// output) summed over all sessions; `None` = unlimited.
    pub memory_budget: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 64,
            memory_budget: None,
        }
    }
}

/// Counters exposed by [`QueryService::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Cache hits (compilation skipped).
    pub cache_hits: u64,
    /// Cache misses (query compiled).
    pub cache_misses: u64,
    /// Entries evicted to respect the capacity.
    pub cache_evictions: u64,
    /// Sessions opened over the service's lifetime.
    pub sessions_opened: u64,
    /// Bytes currently held against the memory budget (0 when unbudgeted).
    pub budget_used: usize,
}

struct CacheEntry {
    compiled: Arc<CompiledQuery>,
    tags: Arc<TagInterner>,
    last_used: u64,
}

struct Inner {
    cache: HashMap<String, CacheEntry>,
    /// Normalized keys currently being compiled outside the lock;
    /// concurrent requests for the same key wait on `compile_done`
    /// instead of compiling redundantly.
    in_flight: HashSet<String>,
    /// Logical clock for LRU ordering.
    tick: u64,
}

/// A shared, thread-safe query-serving runtime. See module docs.
pub struct QueryService {
    inner: Mutex<Inner>,
    /// Signaled whenever an in-flight compilation finishes (either way).
    compile_done: Condvar,
    config: ServiceConfig,
    budget: Option<Arc<MemoryBudget>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    sessions: AtomicU64,
}

impl QueryService {
    /// Creates a service with the given configuration.
    pub fn new(config: ServiceConfig) -> Self {
        let budget = config
            .memory_budget
            .map(|limit| Arc::new(MemoryBudget::new(limit)));
        QueryService {
            inner: Mutex::new(Inner {
                cache: HashMap::new(),
                in_flight: HashSet::new(),
                tick: 0,
            }),
            compile_done: Condvar::new(),
            config,
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
        }
    }

    /// Creates a service with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ServiceConfig::default())
    }

    /// Returns the compiled form of `query`, compiling at most once per
    /// normalized query text (whitespace outside string literals is
    /// insignificant in XQ).
    pub fn get_or_compile(&self, query: &str) -> Result<Arc<CompiledQuery>, ServiceError> {
        self.entry(query).map(|(compiled, _)| compiled)
    }

    /// The compiled form of `query` and the interner it was compiled
    /// against, compiled on a miss. Compilation runs *outside* the
    /// service mutex against a fresh interner, so a slow compile never
    /// stalls cache hits or session traffic. Concurrent requests for the
    /// same key wait for the winner instead of compiling redundantly;
    /// compiles of different queries share nothing and run in parallel.
    fn entry(&self, query: &str) -> Result<(Arc<CompiledQuery>, Arc<TagInterner>), ServiceError> {
        let key = normalize_query(query);
        let mut inner = self.inner.lock().expect("service lock");
        loop {
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.cache.get_mut(&key) {
                entry.last_used = tick;
                let found = (entry.compiled.clone(), entry.tags.clone());
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(found);
            }
            if !inner.in_flight.contains(&key) {
                break;
            }
            // Someone else is compiling this exact query: wait for the
            // result and re-check the cache (a failed compile leaves the
            // cache empty and this thread retries itself).
            inner = self
                .compile_done
                .wait(inner)
                .expect("service lock poisoned");
        }
        inner.in_flight.insert(key.clone());
        drop(inner);

        let mut tags = TagInterner::new();
        let result = compile(query, &mut tags, CompileOptions::default());

        let mut inner = self.inner.lock().expect("service lock");
        inner.in_flight.remove(&key);
        self.compile_done.notify_all();
        let compiled = Arc::new(result.map_err(ServiceError::Compile)?);
        let tags = Arc::new(tags);
        inner.tick += 1;
        let tick = inner.tick;
        inner.cache.insert(
            key,
            CacheEntry {
                compiled: compiled.clone(),
                tags: tags.clone(),
                last_used: tick,
            },
        );
        while inner.cache.len() > self.config.cache_capacity.max(1) {
            let victim = inner
                .cache
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("nonempty cache");
            inner.cache.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        drop(inner);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((compiled, tags))
    }

    /// Opens a push-based session evaluating `query` (compiled or cached)
    /// over input the caller will feed incrementally.
    pub fn open_session(&self, query: &str) -> Result<StreamSession, ServiceError> {
        self.open_session_with(query, |_| {})
    }

    /// As [`open_session`](Self::open_session), letting the caller adjust
    /// the per-session configuration (live-stats mirror, evaluator pool,
    /// engine-buffer charging, …) before the session starts. The service
    /// fills in its own defaults first; `customize` sees the final
    /// [`SessionConfig`].
    pub fn open_session_with(
        &self,
        query: &str,
        customize: impl FnOnce(&mut SessionConfig),
    ) -> Result<StreamSession, ServiceError> {
        let (compiled, tags) = self.entry(query)?;
        self.sessions.fetch_add(1, Ordering::Relaxed);
        let mut config = SessionConfig {
            budget: self.budget.clone(),
            ..Default::default()
        };
        customize(&mut config);
        Ok(StreamSession::new(
            compiled,
            TagInterner::clone(&tags),
            config,
        ))
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            cache_evictions: self.evictions.load(Ordering::Relaxed),
            sessions_opened: self.sessions.load(Ordering::Relaxed),
            budget_used: self.budget.as_ref().map_or(0, |b| b.used()),
        }
    }

    /// Number of compiled queries currently cached.
    pub fn cached_queries(&self) -> usize {
        self.inner.lock().expect("service lock").cache.len()
    }

    /// The shared memory budget, when one is configured.
    pub fn budget(&self) -> Option<&Arc<MemoryBudget>> {
        self.budget.as_ref()
    }
}

/// Collapses insignificant whitespace so that reformatted copies of one
/// query share a cache entry. Whitespace inside string literals is
/// significant and preserved.
pub fn normalize_query(query: &str) -> String {
    let mut out = String::with_capacity(query.len());
    let mut in_string: Option<char> = None;
    let mut pending_space = false;
    for c in query.chars() {
        match in_string {
            Some(q) => {
                out.push(c);
                if c == q {
                    in_string = None;
                }
            }
            None => {
                if c == '"' || c == '\'' {
                    if pending_space && !out.is_empty() {
                        out.push(' ');
                    }
                    pending_space = false;
                    out.push(c);
                    in_string = Some(c);
                } else if c.is_whitespace() {
                    pending_space = true;
                } else {
                    if pending_space && !out.is_empty() {
                        out.push(' ');
                    }
                    pending_space = false;
                    out.push(c);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUERY: &str = "<r>{ for $b in /bib/book return $b/title }</r>";
    const DOC: &str = "<bib><book><title>A</title></book><book><title>B</title></book></bib>";
    const EXPECTED: &str = "<r><title>A</title><title>B</title></r>";

    /// One session over `doc`, fed in 3-byte chunks.
    fn run(service: &QueryService, query: &str, doc: &str) -> String {
        let mut session = service.open_session(query).unwrap();
        let mut out = Vec::new();
        for chunk in doc.as_bytes().chunks(3) {
            out.extend_from_slice(&session.feed(chunk).unwrap());
        }
        out.extend_from_slice(&session.finish().unwrap().output);
        String::from_utf8(out).unwrap()
    }

    /// Interner length of the cached entry for `query`, if cached.
    fn cached_tags(service: &QueryService, query: &str) -> Option<usize> {
        let inner = service.inner.lock().unwrap();
        inner
            .cache
            .get(&normalize_query(query))
            .map(|e| e.tags.len())
    }

    #[test]
    fn normalization_collapses_outside_strings_only() {
        assert_eq!(
            normalize_query("  <r>{   for $x in /a\n  return $x }</r> "),
            "<r>{ for $x in /a return $x }</r>"
        );
        let with_lit = r#"<r>{ for $x in /a return if ($x/k = "a  b") then $x else () }</r>"#;
        assert!(normalize_query(with_lit).contains(r#""a  b""#));
        assert_ne!(
            normalize_query(r#"<r>{ if (/a/k = "x y") then <t/> else () }</r>"#),
            normalize_query(r#"<r>{ if (/a/k = "x  y") then <t/> else () }</r>"#),
        );
    }

    #[test]
    fn cache_hit_skips_recompilation() {
        let service = QueryService::with_defaults();
        service.get_or_compile(QUERY).unwrap();
        assert_eq!(service.stats().cache_misses, 1);
        assert_eq!(service.stats().cache_hits, 0);
        // Same query, different surface whitespace: hit.
        service
            .get_or_compile("<r>{ for $b in /bib/book\n   return $b/title }</r>")
            .unwrap();
        let stats = service.stats();
        assert_eq!(stats.cache_misses, 1, "no recompilation");
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn eviction_respects_capacity() {
        let service = QueryService::new(ServiceConfig {
            cache_capacity: 2,
            ..Default::default()
        });
        let q = |tag: &str| format!("<r>{{ for $x in /{tag} return $x }}</r>");
        service.get_or_compile(&q("a")).unwrap();
        service.get_or_compile(&q("b")).unwrap();
        service.get_or_compile(&q("a")).unwrap(); // refresh a
        service.get_or_compile(&q("c")).unwrap(); // evicts b (LRU)
        assert_eq!(service.cached_queries(), 2);
        assert_eq!(service.stats().cache_evictions, 1);
        service.get_or_compile(&q("a")).unwrap();
        assert_eq!(service.stats().cache_misses, 3, "a still cached");
        service.get_or_compile(&q("b")).unwrap();
        assert_eq!(service.stats().cache_misses, 4, "b was evicted");
    }

    #[test]
    fn concurrent_compiles_of_same_query_are_deduped() {
        let service = QueryService::with_defaults();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    service.get_or_compile(QUERY).unwrap();
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.cache_misses, 1, "one compile for eight requests");
        assert_eq!(stats.cache_hits, 7);
    }

    #[test]
    fn concurrent_compiles_of_distinct_queries_evaluate_correctly() {
        let service = QueryService::with_defaults();
        let tags = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
        let q = |t: &str| format!("<r>{{ for $x in /{t}/item return $x }}</r>");
        std::thread::scope(|scope| {
            for t in tags {
                let service = &service;
                scope.spawn(move || {
                    service.get_or_compile(&q(t)).unwrap();
                });
            }
        });
        for t in tags {
            let doc = format!("<{t}><item>v</item></{t}>");
            assert_eq!(run(&service, &q(t), &doc), "<r><item>v</item></r>", "/{t}");
        }
    }

    #[test]
    fn sessions_stay_correct_while_the_cache_churns() {
        // 200 distinct queries stream through a two-entry cache while
        // sessions open on three stable queries, and one session opened
        // before its own entry is evicted finishes after.
        let service = QueryService::new(ServiceConfig {
            cache_capacity: 2,
            ..Default::default()
        });
        let stable = |i: usize| format!("<r>{{ for $x in /stable{i}/item return $x }}</r>");
        let churn = |i: usize| format!("<r>{{ for $x in /churn{i}/x{i} return $x/y{i} }}</r>");

        let mut early = service.open_session(&stable(9)).unwrap();
        let mut early_out = early.feed(b"<stable9><item>a</item><junk/>").unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..200 {
                    service.get_or_compile(&churn(i)).unwrap();
                }
            });
            for round in 0..60 {
                let i = round % 3;
                let doc = format!("<stable{i}><item>v{round}</item><junk>j</junk></stable{i}>");
                assert_eq!(
                    run(&service, &stable(i), &doc),
                    format!("<r><item>v{round}</item></r>"),
                    "round {round}"
                );
            }
        });
        assert_eq!(
            cached_tags(&service, &stable(9)),
            None,
            "evicted mid-session"
        );
        early_out.extend_from_slice(&early.feed(b"<item>b</item></stable9>").unwrap());
        early_out.extend_from_slice(&early.finish().unwrap().output);
        assert_eq!(
            String::from_utf8(early_out).unwrap(),
            "<r><item>a</item><item>b</item></r>"
        );

        // The cache holds two entries, each with its own query's tags
        // only: no tag outlives the entry that interned it.
        let largest = (0..200)
            .map(churn)
            .chain((0..3).chain([9]).map(stable))
            .map(|q| {
                let mut tags = TagInterner::new();
                compile(&q, &mut tags, CompileOptions::default()).unwrap();
                tags.len()
            })
            .max()
            .unwrap();
        let inner = service.inner.lock().unwrap();
        assert_eq!(inner.cache.len(), 2);
        let held: usize = inner.cache.values().map(|e| e.tags.len()).sum();
        assert!(
            held <= 2 * largest,
            "{held} tags cached, largest query {largest}"
        );
    }

    #[test]
    fn document_tags_stay_out_of_the_cached_interner() {
        let service = QueryService::with_defaults();
        service.get_or_compile(QUERY).unwrap();
        let before = cached_tags(&service, QUERY).unwrap();
        let doc = "<bib><book><title>A</title><subtitle>s</subtitle>\
                   <publisher>p</publisher></book></bib>";
        assert_eq!(run(&service, QUERY, doc), "<r><title>A</title></r>");
        assert_eq!(cached_tags(&service, QUERY), Some(before));
    }

    #[test]
    fn compile_errors_surface_and_do_not_poison() {
        let service = QueryService::with_defaults();
        assert!(matches!(
            service.get_or_compile("<r>{ $undefined }</r>"),
            Err(ServiceError::Compile(_))
        ));
        // The service still works afterwards.
        let ok = service.get_or_compile(QUERY);
        assert!(ok.is_ok());
    }

    #[test]
    fn budgeted_service_returns_all_bytes() {
        let service = QueryService::new(ServiceConfig {
            memory_budget: Some(1 << 20),
            ..Default::default()
        });
        for _ in 0..4 {
            assert_eq!(run(&service, QUERY, DOC), EXPECTED);
        }
        assert_eq!(service.stats().budget_used, 0, "budget fully reclaimed");
    }
}
