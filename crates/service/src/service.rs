//! Concurrent serving: a compiled-query cache in front of session
//! spawning.
//!
//! Compilation (parse → rewriting → signOff insertion → projection
//! derivation) is pure per query text, so a service handling repeated
//! queries amortizes it through an LRU cache keyed by *normalized* query
//! text. All cached queries are compiled against one master
//! [`TagInterner`]; interners only ever append, so a snapshot taken at
//! session-open time is a superset of every id any cached query refers
//! to — sessions then intern document-side tags into their private clone
//! without synchronization. One [`MemoryBudget`] is shared by every
//! session the service opens.

use crate::budget::MemoryBudget;
use crate::session::{SessionConfig, SessionOutcome, StreamSession};
use crate::ServiceError;
use gcx_core::EngineOptions;
use gcx_query::{compile, CompileOptions, CompiledQuery};
use gcx_xml::TagInterner;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum number of compiled queries kept in the cache.
    pub cache_capacity: usize,
    /// Compile options applied to every query.
    pub compile: CompileOptions,
    /// Global cap on service-owned bytes (queued input + undrained
    /// output) summed over all sessions; `None` = unlimited.
    pub memory_budget: Option<usize>,
    /// Per-session input-queue bound (backpressure threshold).
    pub input_queue_bytes: usize,
    /// Engine strategy for sessions, including the lexer options for
    /// session input streams (`engine.lexer`).
    pub engine: EngineOptions,
    /// Maximum sessions evaluated concurrently by [`QueryService::run_batch`].
    pub max_concurrency: usize,
    /// Dead-tag ratio (estimated tags stranded by evicted cache entries
    /// over the master interner's size) past which the master interner
    /// is rebuilt from the live cached queries. Long-lived servers with
    /// churning query sets otherwise leak the symbol table ("interners
    /// only ever append"). `1.0` (or above) disables rebuilds. Default
    /// 0.5.
    pub interner_rebuild_dead_ratio: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 64,
            compile: CompileOptions::default(),
            memory_budget: None,
            input_queue_bytes: 256 * 1024,
            engine: EngineOptions::default(),
            max_concurrency: 8,
            interner_rebuild_dead_ratio: 0.5,
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
    /// Times the master interner was rebuilt from the live cached
    /// queries to reclaim tags stranded by evicted entries.
    pub interner_rebuilds: u64,
    /// Bytes currently held against the memory budget (0 when unbudgeted).
    pub budget_used: usize,
}

struct CacheEntry {
    compiled: Arc<CompiledQuery>,
    last_used: u64,
    /// Tags this entry's compilation added to the master interner — the
    /// upper bound on what eviction strands (another live query may
    /// still reference some of them; the rebuild computes the truth).
    tags_added: usize,
}

struct Inner {
    /// Master interner: every cached query's tag ids live here.
    tags: TagInterner,
    /// Bumped on every epoch rebuild: compilations racing a rebuild must
    /// not adopt their (pre-rebuild) extended snapshot even when the
    /// lengths happen to match.
    epoch: u64,
    /// Lazily built immutable snapshot of `tags`, shared (`Arc`) by every
    /// session opened until the master grows again. Invalidated whenever
    /// `tags` mutates, so `open_session` is O(1) in the steady state
    /// (cache hits) instead of cloning the whole symbol table per
    /// session.
    tags_snapshot: Option<Arc<TagInterner>>,
    cache: HashMap<String, CacheEntry>,
    /// Normalized keys currently being compiled outside the lock;
    /// concurrent requests for the same key wait on `compile_done`
    /// instead of compiling redundantly.
    in_flight: HashSet<String>,
    /// Upper bound on master-interner tags stranded by evictions since
    /// the last rebuild (sum of evicted entries' `tags_added`).
    dead_tag_estimate: usize,
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
    rebuilds: AtomicU64,
}

impl QueryService {
    /// Creates a service with the given configuration.
    pub fn new(config: ServiceConfig) -> Self {
        let budget = config
            .memory_budget
            .map(|limit| Arc::new(MemoryBudget::new(limit)));
        QueryService {
            inner: Mutex::new(Inner {
                tags: TagInterner::new(),
                epoch: 0,
                tags_snapshot: None,
                cache: HashMap::new(),
                in_flight: HashSet::new(),
                dead_tag_estimate: 0,
                tick: 0,
            }),
            compile_done: Condvar::new(),
            config,
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
        }
    }

    /// Creates a service with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ServiceConfig::default())
    }

    /// Returns the compiled form of `query`, compiling at most once per
    /// normalized query text (whitespace outside string literals is
    /// insignificant in XQ).
    ///
    /// Compilation runs *outside* the service mutex against a snapshot of
    /// the master interner, so a slow compile never stalls cache hits or
    /// session traffic. Concurrent requests for the same key wait for the
    /// winner instead of compiling redundantly; concurrent compiles of
    /// *different* queries proceed in parallel (the loser of an interner
    /// race recompiles under the lock — rare, and no worse than the old
    /// always-locked behaviour).
    pub fn get_or_compile(&self, query: &str) -> Result<Arc<CompiledQuery>, ServiceError> {
        self.get_or_compile_paired(query)
            .map(|(compiled, _)| compiled)
    }

    /// Installs (if needed) and returns the immutable snapshot of the
    /// master interner, under the caller's lock hold.
    fn snapshot_locked(inner: &mut Inner) -> Arc<TagInterner> {
        if inner.tags_snapshot.is_none() {
            inner.tags_snapshot = Some(Arc::new(inner.tags.clone()));
        }
        inner.tags_snapshot.clone().expect("just installed")
    }

    /// As [`get_or_compile`](Self::get_or_compile), additionally
    /// returning the master-interner snapshot fetched **under the same
    /// lock hold** that produced the compiled query. Sessions must pair
    /// the two from here: fetching the snapshot in a separate lock
    /// acquisition races an epoch rebuild, which would hand out a
    /// compiled query from the old id space with a snapshot from the
    /// new one — silently wrong matches.
    fn get_or_compile_paired(
        &self,
        query: &str,
    ) -> Result<(Arc<CompiledQuery>, Arc<TagInterner>), ServiceError> {
        let key = normalize_query(query);
        let mut inner = self.inner.lock().expect("service lock");
        loop {
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.cache.get_mut(&key) {
                entry.last_used = tick;
                let compiled = entry.compiled.clone();
                let snapshot = Self::snapshot_locked(&mut inner);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((compiled, snapshot));
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
        let mut snapshot = inner.tags.clone();
        let base_len = snapshot.len();
        let base_epoch = inner.epoch;
        drop(inner);

        // --- compile outside the lock ---
        let result = compile(query, &mut snapshot, self.config.compile);

        let mut inner = self.inner.lock().expect("service lock");
        inner.in_flight.remove(&key);
        self.compile_done.notify_all();
        let (compiled, tags_added) = match result {
            Err(e) => return Err(ServiceError::Compile(e)),
            Ok(compiled) => {
                if inner.tags.len() == base_len && inner.epoch == base_epoch {
                    // Nobody interned concurrently (and no epoch rebuild
                    // replaced the ids under us): adopt the extended
                    // snapshot — its ids are a strict superset of the
                    // master's.
                    if inner.tags.len() != snapshot.len() {
                        inner.tags_snapshot = None;
                    }
                    let added = snapshot.len() - base_len;
                    inner.tags = snapshot;
                    (Arc::new(compiled), added)
                } else {
                    // The master interner advanced while we compiled (a
                    // concurrent compile of a different query landed
                    // first, or a rebuild reassigned ids); the snapshot's
                    // new ids may clash. Recompile against the master
                    // under the lock for id consistency.
                    let before = inner.tags.len();
                    let recompiled = compile(query, &mut inner.tags, self.config.compile)
                        .map_err(ServiceError::Compile)?;
                    if inner.tags.len() != before {
                        inner.tags_snapshot = None;
                    }
                    (Arc::new(recompiled), inner.tags.len() - before)
                }
            }
        };
        inner.tick += 1;
        let tick = inner.tick;
        inner.cache.insert(
            key.clone(),
            CacheEntry {
                compiled: compiled.clone(),
                last_used: tick,
                tags_added,
            },
        );
        while inner.cache.len() > self.config.cache_capacity.max(1) {
            let victim = inner
                .cache
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("nonempty cache");
            if let Some(evicted) = inner.cache.remove(&victim) {
                inner.dead_tag_estimate += evicted.tags_added;
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.maybe_rebuild_interner(&mut inner);
        // A rebuild triggered by this very insertion replaced the cached
        // entry with a recompiled (new-id-space) version; return that
        // one so it pairs with the snapshot below.
        let compiled = inner
            .cache
            .get(&key)
            .map_or(compiled, |e| e.compiled.clone());
        let snapshot = Self::snapshot_locked(&mut inner);
        drop(inner);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((compiled, snapshot))
    }

    /// Epoch-based master-interner reclamation: when the tags stranded by
    /// evicted cache entries (an upper-bound estimate) cross the
    /// configured ratio of the master's size, rebuild the master by
    /// recompiling every *live* cached query into a fresh interner.
    ///
    /// Runs under the service lock — a rebuild is `O(live queries)`
    /// compilations, rare by construction (it needs `ratio × master`
    /// evicted tags to arm again). Sessions already open keep their old
    /// `Arc` snapshot and compiled query (both reference the old id
    /// space consistently); new sessions see the rebuilt master via a
    /// fresh snapshot. In-flight compilations racing the rebuild detect
    /// the epoch bump and recompile against the new master.
    fn maybe_rebuild_interner(&self, inner: &mut Inner) {
        let ratio = self.config.interner_rebuild_dead_ratio;
        if ratio >= 1.0 || inner.dead_tag_estimate == 0 {
            return;
        }
        let master = inner.tags.len();
        if master == 0 || (inner.dead_tag_estimate as f64) < ratio * master as f64 {
            return;
        }
        let mut fresh = TagInterner::new();
        let mut rebuilt: Vec<(String, CacheEntry)> = Vec::with_capacity(inner.cache.len());
        for (key, entry) in &inner.cache {
            let before = fresh.len();
            // The normalized key is itself the (whitespace-collapsed)
            // query text; recompiling from it reproduces the entry.
            match compile(key, &mut fresh, self.config.compile) {
                Ok(compiled) => rebuilt.push((
                    key.clone(),
                    CacheEntry {
                        compiled: Arc::new(compiled),
                        last_used: entry.last_used,
                        tags_added: fresh.len() - before,
                    },
                )),
                Err(_) => {
                    // A query that compiled once must compile again; if
                    // not (pathological), keep the old master — leaking
                    // is safer than dropping a live entry.
                    return;
                }
            }
        }
        inner.tags = fresh;
        inner.cache = rebuilt.into_iter().collect();
        inner.tags_snapshot = None;
        inner.dead_tag_estimate = 0;
        inner.epoch += 1;
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// An immutable `Arc` snapshot of the master interner, rebuilt only
    /// when the master has grown since the last call. Sessions layer a
    /// cheap copy-on-write overlay on top ([`TagInterner::overlay`])
    /// instead of cloning the whole symbol table.
    pub fn tags_snapshot(&self) -> Arc<TagInterner> {
        let mut inner = self.inner.lock().expect("service lock");
        Self::snapshot_locked(&mut inner)
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
        // Compiled query and interner snapshot must come from one lock
        // hold — an epoch rebuild between the two would mix id spaces.
        let (compiled, snapshot) = self.get_or_compile_paired(query)?;
        let tags = TagInterner::overlay(snapshot);
        self.sessions.fetch_add(1, Ordering::Relaxed);
        let mut config = SessionConfig {
            input_queue_bytes: self.config.input_queue_bytes,
            engine: self.config.engine,
            budget: self.budget.clone(),
            ..Default::default()
        };
        customize(&mut config);
        Ok(StreamSession::new(compiled, tags, config))
    }

    /// Number of tags in the master interner (diagnostics: sessions
    /// intern document-side tags into private overlays, so this must not
    /// grow with served documents — only with compiled queries).
    pub fn master_interner_len(&self) -> usize {
        self.inner.lock().expect("service lock").tags.len()
    }

    /// Evaluates many (query, document) jobs concurrently — at most
    /// `max_concurrency` sessions at a time — feeding each document in
    /// `chunk_size`-byte chunks. Results come back in job order; failures
    /// are isolated per job.
    ///
    /// Under a [`MemoryBudget`] the budget acts as *backpressure*, not a
    /// failure mode: `chunk_size` is clamped so one chunk always fits the
    /// whole budget, and a worker whose chunk is rejected drains its own
    /// output and retries until sibling sessions release bytes.
    pub fn run_batch(
        &self,
        jobs: &[BatchJob],
        chunk_size: usize,
    ) -> Vec<Result<SessionOutcome, ServiceError>> {
        let mut chunk_size = chunk_size.max(1);
        if let Some(b) = &self.budget {
            // Never ask for a reservation that could not fit even into an
            // idle budget; workers would fail instead of waiting.
            chunk_size = chunk_size.min(b.limit().max(1));
        }
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<Result<SessionOutcome, ServiceError>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.config.max_concurrency.max(1).min(jobs.len().max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let result = self.run_one(job, chunk_size);
                    *results[i].lock().expect("result slot") = Some(result);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("worker filled every claimed slot")
            })
            .collect()
    }

    fn run_one(&self, job: &BatchJob, chunk_size: usize) -> Result<SessionOutcome, ServiceError> {
        let mut session = self.open_session(&job.query)?;
        let mut output = Vec::new();
        for chunk in job.input.chunks(chunk_size) {
            output.extend_from_slice(&session.feed(chunk)?);
        }
        let mut outcome = session.finish()?;
        output.extend_from_slice(&outcome.output);
        outcome.output = output;
        Ok(outcome)
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            cache_evictions: self.evictions.load(Ordering::Relaxed),
            sessions_opened: self.sessions.load(Ordering::Relaxed),
            interner_rebuilds: self.rebuilds.load(Ordering::Relaxed),
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

/// One unit of work for [`QueryService::run_batch`].
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// XQ query text.
    pub query: String,
    /// Full input document bytes, fed to the session in chunks. Shared
    /// (`Arc`) so the same document can back many jobs without copies.
    pub input: Arc<[u8]>,
    /// Label carried through to reports (file name, client id, …).
    pub label: String,
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
    fn concurrent_sessions_share_one_cached_query() {
        let service = QueryService::with_defaults();
        let jobs: Vec<BatchJob> = (0..2)
            .map(|i| BatchJob {
                query: QUERY.to_string(),
                input: DOC.as_bytes().into(),
                label: format!("job{i}"),
            })
            .collect();
        let results = service.run_batch(&jobs, 7);
        for r in results {
            let outcome = r.unwrap();
            assert_eq!(String::from_utf8(outcome.output).unwrap(), EXPECTED);
        }
        let stats = service.stats();
        assert_eq!(stats.cache_misses, 1);
        assert!(stats.cache_hits >= 1, "second session hits the cache");
        assert_eq!(stats.sessions_opened, 2);
    }

    #[test]
    fn concurrent_compiles_of_same_query_are_deduped() {
        let service = Arc::new(QueryService::with_defaults());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let service = service.clone();
                scope.spawn(move || {
                    service.get_or_compile(QUERY).unwrap();
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.cache_misses, 1, "one compile for eight requests");
        assert_eq!(stats.cache_hits, 7);
    }

    #[test]
    fn concurrent_compiles_of_distinct_queries_yield_consistent_ids() {
        // Different queries compiled in parallel must all end up with tag
        // ids consistent with the master interner — exercised end-to-end
        // by evaluating through sessions afterwards.
        let service = Arc::new(QueryService::with_defaults());
        let tags: Vec<&str> = vec!["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
        std::thread::scope(|scope| {
            for t in &tags {
                let service = service.clone();
                scope.spawn(move || {
                    let q = format!("<r>{{ for $x in /{t}/item return $x }}</r>");
                    service.get_or_compile(&q).unwrap();
                });
            }
        });
        for t in &tags {
            let q = format!("<r>{{ for $x in /{t}/item return $x }}</r>");
            let mut session = service.open_session(&q).unwrap();
            let doc = format!("<{t}><item>v</item></{t}>");
            let mut out = session.feed(doc.as_bytes()).unwrap();
            out.extend_from_slice(&session.finish().unwrap().output);
            assert_eq!(
                String::from_utf8(out).unwrap(),
                "<r><item>v</item></r>",
                "query over /{t} evaluates correctly"
            );
        }
    }

    #[test]
    fn sessions_share_interner_snapshot_without_polluting_master() {
        let service = QueryService::with_defaults();
        service.get_or_compile(QUERY).unwrap();
        let master_len = service.master_interner_len();
        let snap1 = service.tags_snapshot();
        // Document-side tags unknown to the query land in the session's
        // private overlay, never in the master.
        let mut session = service.open_session(QUERY).unwrap();
        let doc = "<bib><book><title>A</title><subtitle>s</subtitle>\
                   <publisher>p</publisher></book></bib>";
        let mut out = session.feed(doc.as_bytes()).unwrap();
        out.extend_from_slice(&session.finish().unwrap().output);
        assert_eq!(String::from_utf8(out).unwrap(), "<r><title>A</title></r>");
        assert_eq!(
            service.master_interner_len(),
            master_len,
            "document tags must not leak into the master interner"
        );
        // The snapshot is reused, not rebuilt, while the master is stable.
        let snap2 = service.tags_snapshot();
        assert!(Arc::ptr_eq(&snap1, &snap2), "O(1) steady-state snapshot");
        // Compiling a new query grows the master and refreshes the
        // snapshot.
        service
            .get_or_compile("<r>{ for $z in /warehouse return $z }</r>")
            .unwrap();
        let snap3 = service.tags_snapshot();
        assert!(!Arc::ptr_eq(&snap2, &snap3), "snapshot refreshed on growth");
        assert!(snap3.get("warehouse").is_some());
    }

    #[test]
    fn interner_rebuild_reclaims_dead_tags_after_eviction_churn() {
        // A tiny cache churned with single-use queries over disjoint tag
        // vocabularies: without reclamation the master interner grows
        // with every query ever compiled; with epoch rebuilds it tracks
        // the *live* queries.
        let service = QueryService::new(ServiceConfig {
            cache_capacity: 2,
            ..Default::default()
        });
        let q = |tag: &str| format!("<r>{{ for $x in /{tag}/sub{tag} return $x }}</r>");
        let mut peak = 0usize;
        for i in 0..40 {
            service
                .get_or_compile(&q(&format!("uniquetag{i}")))
                .unwrap();
            peak = peak.max(service.master_interner_len());
        }
        let final_len = service.master_interner_len();
        assert!(
            service.stats().interner_rebuilds > 0,
            "eviction churn must trigger rebuilds"
        );
        assert!(
            final_len < peak,
            "master interner shrank after churn: peak {peak}, now {final_len}"
        );
        // The live set is 2 queries × (r + 2 tags each, r shared):
        // bounded by a small constant, not by the 40 queries compiled.
        assert!(
            final_len <= 3 * 2 + 1,
            "master tracks live queries only, got {final_len}"
        );
        // Cached queries still evaluate correctly after the rebuild
        // (their ids are consistent with the rebuilt master).
        let tag = "uniquetag39";
        let mut session = service.open_session(&q(tag)).unwrap();
        let doc = format!("<{tag}><sub{tag}>v</sub{tag}></{tag}>");
        let mut out = session.feed(doc.as_bytes()).unwrap();
        out.extend_from_slice(&session.finish().unwrap().output);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            format!("<r><sub{tag}>v</sub{tag}></r>")
        );
    }

    #[test]
    fn sessions_spanning_a_rebuild_keep_their_snapshot() {
        let service = QueryService::new(ServiceConfig {
            cache_capacity: 1,
            ..Default::default()
        });
        // Open a session, then churn the cache until a rebuild happens
        // while the session is still streaming.
        let mut session = service.open_session(QUERY).unwrap();
        let mut out = session.feed(b"<bib><book><title>A</title></book>").unwrap();
        let rebuilds_before = service.stats().interner_rebuilds;
        for i in 0..20 {
            let q = format!("<r>{{ for $x in /churn{i}/x{i} return $x }}</r>");
            service.get_or_compile(&q).unwrap();
        }
        assert!(
            service.stats().interner_rebuilds > rebuilds_before,
            "churn must have rebuilt the master mid-session"
        );
        out.extend_from_slice(
            &session
                .feed(b"<book><title>B</title></book></bib>")
                .unwrap(),
        );
        out.extend_from_slice(&session.finish().unwrap().output);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "<r><title>A</title><title>B</title></r>",
            "old snapshot + old compiled query stay mutually consistent"
        );
    }

    #[test]
    fn sessions_opened_during_rebuild_churn_stay_consistent() {
        // Regression: open_session used to fetch the compiled query and
        // the interner snapshot under two separate lock acquisitions; a
        // rebuild in between paired old-id queries with new-id
        // snapshots. Hammer session opens against rebuild churn and
        // check every result.
        let service = Arc::new(QueryService::new(ServiceConfig {
            cache_capacity: 2,
            ..Default::default()
        }));
        let churner = {
            let service = service.clone();
            std::thread::spawn(move || {
                for i in 0..60 {
                    let q = format!("<r>{{ for $x in /churntag{i} return $x }}</r>");
                    service.get_or_compile(&q).unwrap();
                }
            })
        };
        for round in 0..60 {
            let tag = format!("stable{}", round % 3);
            let q = format!("<r>{{ for $x in /{tag}/item return $x }}</r>");
            let mut session = service.open_session(&q).unwrap();
            let doc = format!("<{tag}><item>v{round}</item><junk>j</junk></{tag}>");
            let mut out = session.feed(doc.as_bytes()).unwrap();
            out.extend_from_slice(&session.finish().unwrap().output);
            assert_eq!(
                String::from_utf8(out).unwrap(),
                format!("<r><item>v{round}</item></r>"),
                "round {round}: query ids and snapshot ids must agree"
            );
        }
        churner.join().unwrap();
        assert!(service.stats().interner_rebuilds > 0, "churn rebuilt");
    }

    #[test]
    fn rebuild_disabled_by_ratio_one() {
        let service = QueryService::new(ServiceConfig {
            cache_capacity: 1,
            interner_rebuild_dead_ratio: 1.0,
            ..Default::default()
        });
        for i in 0..10 {
            let q = format!("<r>{{ for $x in /keep{i} return $x }}</r>");
            service.get_or_compile(&q).unwrap();
        }
        assert_eq!(service.stats().interner_rebuilds, 0);
        assert!(
            service.master_interner_len() >= 10,
            "append-only behaviour preserved when disabled"
        );
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
    fn batch_isolates_failures() {
        let service = QueryService::with_defaults();
        let jobs = vec![
            BatchJob {
                query: QUERY.to_string(),
                input: DOC.as_bytes().into(),
                label: "good".into(),
            },
            BatchJob {
                query: QUERY.to_string(),
                input: b"<bib><book></bib>"[..].into(), // malformed
                label: "bad".into(),
            },
            BatchJob {
                query: QUERY.to_string(),
                input: DOC.as_bytes().into(),
                label: "also-good".into(),
            },
        ];
        let results = service.run_batch(&jobs, 5);
        assert_eq!(
            String::from_utf8(results[0].as_ref().unwrap().output.clone()).unwrap(),
            EXPECTED
        );
        assert!(results[1].is_err(), "malformed stream fails its own job");
        assert_eq!(
            String::from_utf8(results[2].as_ref().unwrap().output.clone()).unwrap(),
            EXPECTED
        );
    }

    #[test]
    fn tiny_budget_is_backpressure_not_failure() {
        // A budget far smaller than the combined inputs (and smaller than
        // the requested chunk size) must slow the batch down, not fail it.
        let service = QueryService::new(ServiceConfig {
            memory_budget: Some(48),
            max_concurrency: 8,
            ..Default::default()
        });
        let jobs: Vec<BatchJob> = (0..6)
            .map(|i| BatchJob {
                query: QUERY.to_string(),
                input: DOC.as_bytes().into(),
                label: format!("j{i}"),
            })
            .collect();
        for r in service.run_batch(&jobs, 64) {
            let outcome = r.expect("budget waits instead of failing");
            assert_eq!(String::from_utf8(outcome.output).unwrap(), EXPECTED);
        }
        assert_eq!(service.stats().budget_used, 0);
    }

    #[test]
    fn zero_budget_fails_fast_instead_of_hanging() {
        // A budget that can never admit a byte must error, not livelock.
        let service = QueryService::new(ServiceConfig {
            memory_budget: Some(0),
            ..Default::default()
        });
        let jobs = vec![BatchJob {
            query: QUERY.to_string(),
            input: DOC.as_bytes().into(),
            label: "doomed".into(),
        }];
        let results = service.run_batch(&jobs, 64);
        assert!(
            matches!(results[0], Err(ServiceError::BudgetExceeded { .. })),
            "got {:?}",
            results[0].as_ref().err().map(|e| e.to_string())
        );
    }

    #[test]
    fn budgeted_service_returns_all_bytes() {
        let service = QueryService::new(ServiceConfig {
            memory_budget: Some(1 << 20),
            ..Default::default()
        });
        let jobs: Vec<BatchJob> = (0..4)
            .map(|i| BatchJob {
                query: QUERY.to_string(),
                input: DOC.as_bytes().into(),
                label: format!("j{i}"),
            })
            .collect();
        for r in service.run_batch(&jobs, 3) {
            r.unwrap();
        }
        assert_eq!(service.stats().budget_used, 0, "budget fully reclaimed");
    }
}
