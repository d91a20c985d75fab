//! The evaluator scheduler: a ready-queue of runnable session tasks
//! drained round-robin by a fixed set of worker threads.
//!
//! The engine's resumable [`step`](gcx_core::GcxEngine::step) machine
//! keeps all suspension state in the engine struct, so no thread ever
//! has to wait inside evaluation. A session is a [`PoolTask`] whose
//! `run_slice` advances evaluation by a bounded budget and reports what
//! the scheduler should do next:
//!
//! - [`Slice::Again`] — more work is ready: the task goes to the *back*
//!   of the ready queue, so N runnable sessions share M workers
//!   round-robin (fairness: one streaming giant cannot starve a quick
//!   query).
//! - [`Slice::Park`] — blocked on input or output. The task leaves the
//!   scheduler entirely until [`TaskHandle::wake`] re-enqueues it (the
//!   session layer wakes on `try_feed`/`drain`/`cancel`) or a caller
//!   runs its next slice itself (`close_input`, see below).
//! - [`Slice::Done`] — finished (or failed); never scheduled again.
//!
//! Wake-ups and slice completions race; a small per-task atomic state
//! machine (idle → queued → running, with a "notified while running"
//! side state) guarantees a task runs on at most one thread at a time
//! and never misses a wake-up that arrives mid-slice.
//!
//! Whoever moves a task to *running* with a compare-and-swap runs its
//! slice. Usually that is a worker popping the ready queue, but a caller
//! may also *claim* an idle or queued task and run one slice itself
//! (`TaskHandle::run_here`; the session layer does so when it closes
//! a session's input, so a small request's last slice runs on the thread
//! that fed it its last byte). A claimed task can leave a *stale* entry
//! on the ready queue; the worker that pops it fails the claim and drops
//! it without running anything or counting it as active. Only a slice
//! that yields, or that a wake-up interrupted, goes back to the pool.
//!
//! A pool without workers — `EvaluatorPool::inline`, or any pool after
//! [`EvaluatorPool::shutdown`] — runs a woken task on the *waking*
//! thread until it parks or retires. That is how a session without a
//! shared pool is driven: by its own caller, through the same state
//! machine.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Log target for scheduler lifecycle events.
const LOG_TARGET: &str = "gcx_service::pool";

/// What a task's slice told the scheduler to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    /// Progress was made and more work is ready: re-enqueue (fairness).
    Again,
    /// Blocked (input ran dry, or undrained output crossed the session's
    /// high-water mark) until [`TaskHandle::wake`].
    Park,
    /// The task is finished and must never be scheduled again.
    Done,
}

/// A schedulable unit of resumable work. `run_slice` must be bounded —
/// it is called on a shared worker thread and anything unbounded
/// reintroduces the parked-worker starvation this scheduler exists to
/// remove. Panics in `run_slice` are caught, counted, and retire the
/// task (tasks wrapping sessions convert panics to session errors
/// themselves; the catch here is a backstop).
pub trait PoolTask: Send + Sync + 'static {
    /// Advances the task by one bounded slice.
    fn run_slice(&self) -> Slice;
}

/// Task lifecycle states (see the module docs).
const IDLE: u8 = 0;
/// Waiting for a slice. It may have one or more ready-queue entries, and
/// only the entry whose worker claims it first runs it; a caller's
/// [`TaskHandle::run_here`] can claim it too.
const QUEUED: u8 = 1;
/// Claimed: exactly one thread (a worker or a caller) runs its slice.
const RUNNING: u8 = 2;
/// Running, and a wake-up arrived mid-slice: if the slice parks, the
/// task is immediately re-enqueued instead (the wake-up might carry the
/// input/drain the slice was about to miss).
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

struct Scheduled {
    task: Box<dyn PoolTask>,
    state: AtomicU8,
}

impl Scheduled {
    /// Moves the task from state `from` to `to`; false if another
    /// thread changed the state first.
    fn cas(&self, from: u8, to: u8) -> bool {
        self.state
            .compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// Handle for re-enqueueing a parked task; cloneable, held by the
/// session layer. Outlives the pool safely: wakes after shutdown run
/// the task on the waking thread so a parked session still completes.
#[derive(Clone)]
pub struct TaskHandle {
    sched: Arc<Scheduled>,
    inner: Arc<PoolInner>,
}

impl TaskHandle {
    /// Re-enqueues the task if it is parked; marks a mid-slice
    /// notification if it is running; no-op if already queued or done.
    pub fn wake(&self) {
        loop {
            match self.sched.state.load(Ordering::Acquire) {
                IDLE => {
                    if self.sched.cas(IDLE, QUEUED) {
                        EvaluatorPool::enqueue(&self.inner, self.sched.clone());
                        return;
                    }
                }
                RUNNING => {
                    if self.sched.cas(RUNNING, NOTIFIED) {
                        return;
                    }
                }
                QUEUED | NOTIFIED | DONE => return,
                _ => unreachable!("invalid task state"),
            }
        }
    }

    /// Runs the task's next slice on the calling thread if no pool
    /// worker has started it yet: claims it from IDLE or QUEUED (a queue
    /// entry it leaves behind goes stale), runs exactly one slice, and
    /// hands a slice that yielded or saw a wake-up land mid-slice back
    /// to the pool. A running task is notified, exactly as by
    /// [`wake`](Self::wake); a retired one is left alone.
    pub(crate) fn run_here(&self) {
        loop {
            match self.sched.state.load(Ordering::Acquire) {
                from @ (IDLE | QUEUED) => {
                    if self.sched.cas(from, RUNNING) {
                        if EvaluatorPool::run_one(&self.inner, &self.sched) {
                            EvaluatorPool::enqueue(&self.inner, self.sched.clone());
                        }
                        return;
                    }
                }
                RUNNING => {
                    if self.sched.cas(RUNNING, NOTIFIED) {
                        return;
                    }
                }
                NOTIFIED | DONE => return,
                _ => unreachable!("invalid task state"),
            }
        }
    }

    /// True once the task has retired (ran to completion or panicked).
    pub fn is_done(&self) -> bool {
        self.sched.state.load(Ordering::Acquire) == DONE
    }
}

struct SchedState {
    ready: VecDeque<Arc<Scheduled>>,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<SchedState>,
    /// Signaled when a task is enqueued or shutdown begins.
    work: Condvar,
    size: usize,
    /// Tasks currently executing a slice on a worker.
    active: AtomicUsize,
    /// Evaluator panics observed (tasks that unwound out of a slice, or
    /// panics reported by the session layer via [`EvaluatorPool::note_panic`]).
    panics: AtomicU64,
    /// Slices executed (one engine `step` each, typically).
    steps: AtomicU64,
    /// Slices that ended in a voluntary yield ([`Slice::Again`]) — the
    /// fairness mechanism working.
    yields: AtomicU64,
}

/// The shared scheduler; `Clone` hands out another reference to the
/// same worker set and ready queue.
#[derive(Clone)]
pub struct EvaluatorPool {
    inner: Arc<PoolInner>,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl EvaluatorPool {
    /// Spawns `size` (min 1) workers named `gcx-eval-{i}`.
    pub fn new(size: usize) -> Self {
        Self::with_workers(size.max(1))
    }

    /// A pool without workers: every wake runs the task on the waking
    /// thread. One per pool-less session, so a caller drives its own
    /// session and nothing is shared between callers.
    pub(crate) fn inline() -> Self {
        Self::with_workers(0)
    }

    fn with_workers(size: usize) -> Self {
        let inner = Arc::new(PoolInner {
            state: Mutex::new(SchedState {
                ready: VecDeque::new(),
                shutdown: size == 0,
            }),
            work: Condvar::new(),
            size,
            active: AtomicUsize::new(0),
            panics: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            yields: AtomicU64::new(0),
        });
        let handles = (0..size)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("gcx-eval-{i}"))
                    .spawn(move || Self::worker_loop(&inner))
                    .expect("spawn evaluator worker")
            })
            .collect();
        EvaluatorPool {
            inner,
            handles: Arc::new(Mutex::new(handles)),
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// Tasks waiting in the ready queue right now.
    pub fn queued(&self) -> usize {
        self.lock_state().ready.len()
    }

    /// Tasks currently executing a slice.
    pub fn active(&self) -> usize {
        self.inner.active.load(Ordering::Relaxed)
    }

    /// Evaluator panics observed so far.
    pub fn panics(&self) -> u64 {
        self.inner.panics.load(Ordering::Relaxed)
    }

    /// Scheduler slices executed so far (≈ engine `step` calls).
    pub fn steps(&self) -> u64 {
        self.inner.steps.load(Ordering::Relaxed)
    }

    /// Slices that ended in a voluntary yield (task re-enqueued).
    pub fn yields(&self) -> u64 {
        self.inner.yields.load(Ordering::Relaxed)
    }

    /// Records an evaluator panic the session layer caught itself.
    pub fn note_panic(&self) {
        self.inner.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers a task and enqueues it for its first slice.
    pub fn spawn_task(&self, task: Box<dyn PoolTask>) -> TaskHandle {
        let sched = Arc::new(Scheduled {
            task,
            state: AtomicU8::new(QUEUED),
        });
        Self::enqueue(&self.inner, sched.clone());
        TaskHandle {
            sched,
            inner: self.inner.clone(),
        }
    }

    /// Pushes a QUEUED task onto the ready queue — or, with no workers
    /// left to pop it, runs it on the calling thread until it parks or
    /// finishes (it would otherwise never run: its session would hang
    /// in `finish`).
    fn enqueue(inner: &Arc<PoolInner>, sched: Arc<Scheduled>) {
        {
            let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
            if !st.shutdown {
                st.ready.push_back(sched);
                inner.work.notify_one();
                return;
            }
        }
        while sched.cas(QUEUED, RUNNING) && Self::run_one(inner, &sched) {}
    }

    fn worker_loop(inner: &Arc<PoolInner>) {
        loop {
            let sched = {
                let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
                loop {
                    if let Some(s) = st.ready.pop_front() {
                        break s;
                    }
                    if st.shutdown {
                        // Queue fully drained: even tasks enqueued
                        // during shutdown got their slice.
                        return;
                    }
                    st = inner.work.wait(st).unwrap_or_else(|p| p.into_inner());
                }
            };
            // Fault-injection point: delay task dispatch (chaos tests
            // shake out schedule-dependent assumptions).
            gcx_faults::delay("pool.delay");
            if !sched.cas(QUEUED, RUNNING) {
                // A stale entry: a caller claimed the task since it was
                // queued (`TaskHandle::run_here`).
                continue;
            }
            inner.active.fetch_add(1, Ordering::Relaxed);
            let requeue = Self::run_one(inner, &sched);
            inner.active.fetch_sub(1, Ordering::Relaxed);
            if requeue {
                let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
                st.ready.push_back(sched);
                inner.work.notify_one();
            }
        }
    }

    /// Runs one slice of `sched`, which the caller has claimed (moved to
    /// RUNNING), driving its state machine. Returns true when the task
    /// should be re-enqueued (yielded, or a wake-up arrived mid-slice).
    fn run_one(inner: &Arc<PoolInner>, sched: &Arc<Scheduled>) -> bool {
        inner.steps.fetch_add(1, Ordering::Relaxed);
        let slice =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sched.task.run_slice()));
        match slice {
            Ok(Slice::Again) => {
                inner.yields.fetch_add(1, Ordering::Relaxed);
                sched.state.store(QUEUED, Ordering::Release);
                true
            }
            Ok(Slice::Park) => {
                if sched.cas(RUNNING, IDLE) {
                    false
                } else {
                    // A wake-up landed mid-slice; it may carry exactly
                    // the input/drain this slice blocked on — retry.
                    sched.state.store(QUEUED, Ordering::Release);
                    true
                }
            }
            Ok(Slice::Done) => {
                sched.state.store(DONE, Ordering::Release);
                false
            }
            Err(payload) => {
                // Backstop only: session tasks catch their own panics
                // and convert them to session errors.
                inner.panics.fetch_add(1, Ordering::Relaxed);
                sched.state.store(DONE, Ordering::Release);
                gcx_obs::log_error!(
                    LOG_TARGET,
                    "task panicked out of run_slice: {}",
                    crate::session::panic_message(payload.as_ref())
                );
                false
            }
        }
    }

    /// Stops accepting queue work, drains already-queued tasks (each
    /// gets its slices until it parks or finishes), and joins the
    /// workers. Parked tasks woken afterwards run inline on the waking
    /// thread. Idempotent; concurrent calls join whatever is left.
    pub fn shutdown(&self) {
        {
            let mut st = self.lock_state();
            st.shutdown = true;
        }
        self.inner.work.notify_all();
        let mut handles = self.handles.lock().unwrap_or_else(|p| p.into_inner());
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.inner.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `n` slices (yielding between them), then finishes.
    struct Counter {
        left: AtomicUsize,
        ran: Arc<AtomicUsize>,
    }

    impl PoolTask for Counter {
        fn run_slice(&self) -> Slice {
            self.ran.fetch_add(1, Ordering::SeqCst);
            if self.left.fetch_sub(1, Ordering::SeqCst) > 1 {
                Slice::Again
            } else {
                Slice::Done
            }
        }
    }

    fn counter(slices: usize, ran: &Arc<AtomicUsize>) -> Box<Counter> {
        Box::new(Counter {
            left: AtomicUsize::new(slices),
            ran: ran.clone(),
        })
    }

    /// Parks after every slice; its first slice holds the worker until
    /// the blocker is released.
    struct Blocker {
        started: mpsc::Sender<()>,
        release: Mutex<mpsc::Receiver<()>>,
        slices: Arc<AtomicUsize>,
    }

    impl PoolTask for Blocker {
        fn run_slice(&self) -> Slice {
            if self.slices.fetch_add(1, Ordering::SeqCst) == 0 {
                let _ = self.started.send(());
                let _ = self.release.lock().unwrap().recv();
            }
            Slice::Park
        }
    }

    /// Occupies one worker of `pool` with a [`Blocker`]; send on (or
    /// drop) the returned sender to free it.
    fn occupy(pool: &EvaluatorPool) -> (TaskHandle, Arc<AtomicUsize>, mpsc::Sender<()>) {
        let (started, started_rx) = mpsc::channel();
        let (release_tx, release) = mpsc::channel();
        let slices = Arc::new(AtomicUsize::new(0));
        let handle = pool.spawn_task(Box::new(Blocker {
            started,
            release: Mutex::new(release),
            slices: slices.clone(),
        }));
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a worker picked up the blocker");
        (handle, slices, release_tx)
    }

    /// Plays back a fixed sequence of slice results (then `Done`),
    /// recording the name of the thread each slice ran on.
    struct Scripted {
        script: Mutex<VecDeque<Slice>>,
        threads: Arc<Mutex<Vec<String>>>,
    }

    fn scripted(script: &[Slice]) -> (Box<Scripted>, Arc<Mutex<Vec<String>>>) {
        let threads = Arc::new(Mutex::new(Vec::new()));
        let task = Box::new(Scripted {
            script: Mutex::new(script.iter().copied().collect()),
            threads: threads.clone(),
        });
        (task, threads)
    }

    impl PoolTask for Scripted {
        fn run_slice(&self) -> Slice {
            self.threads.lock().unwrap().push(this_thread());
            self.script
                .lock()
                .unwrap()
                .pop_front()
                .unwrap_or(Slice::Done)
        }
    }

    fn this_thread() -> String {
        std::thread::current().name().unwrap_or("?").to_string()
    }

    fn state(handle: &TaskHandle) -> u8 {
        handle.sched.state.load(Ordering::SeqCst)
    }

    fn wait_done(handle: &TaskHandle) {
        for _ in 0..2000 {
            if handle.is_done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("task did not finish");
    }

    #[test]
    fn runs_all_tasks_with_bounded_threads() {
        let pool = EvaluatorPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..16).map(|_| pool.spawn_task(counter(3, &ran))).collect();
        for h in &handles {
            wait_done(h);
        }
        assert_eq!(ran.load(Ordering::SeqCst), 16 * 3);
        assert!(pool.steps() >= 16 * 3);
        assert!(pool.yields() >= 16 * 2, "each task yielded twice");
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_tasks() {
        let pool = EvaluatorPool::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8).map(|_| pool.spawn_task(counter(1, &ran))).collect();
        pool.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 8, "queued tasks still ran");
        assert!(handles.iter().all(TaskHandle::is_done));
    }

    #[test]
    fn spawn_after_shutdown_runs_inline() {
        let pool = EvaluatorPool::new(1);
        pool.shutdown();
        let ran = Arc::new(AtomicUsize::new(0));
        let handle = pool.spawn_task(counter(3, &ran));
        assert!(handle.is_done(), "ran inline to completion");
        assert_eq!(ran.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn panicking_task_does_not_kill_worker() {
        struct Bomb;
        impl PoolTask for Bomb {
            fn run_slice(&self) -> Slice {
                panic!("boom");
            }
        }
        let pool = EvaluatorPool::new(1);
        let bomb = pool.spawn_task(Box::new(Bomb));
        wait_done(&bomb);
        assert_eq!(pool.panics(), 1);
        // The worker survived and keeps scheduling.
        let ran = Arc::new(AtomicUsize::new(0));
        let ok = pool.spawn_task(counter(1, &ran));
        wait_done(&ok);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        pool.shutdown();
    }

    #[test]
    fn parked_task_waits_for_wake() {
        struct Gate {
            open: Arc<AtomicBool>,
            slices: Arc<AtomicUsize>,
        }
        impl PoolTask for Gate {
            fn run_slice(&self) -> Slice {
                self.slices.fetch_add(1, Ordering::SeqCst);
                if self.open.load(Ordering::SeqCst) {
                    Slice::Done
                } else {
                    Slice::Park
                }
            }
        }
        let pool = EvaluatorPool::new(1);
        let open = Arc::new(AtomicBool::new(false));
        let slices = Arc::new(AtomicUsize::new(0));
        let handle = pool.spawn_task(Box::new(Gate {
            open: open.clone(),
            slices: slices.clone(),
        }));
        // First slice parks; without a wake no further slice runs.
        for _ in 0..200 {
            if slices.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(slices.load(Ordering::SeqCst), 1, "parked, not polled");
        // Spurious wake: runs one more slice, parks again.
        handle.wake();
        for _ in 0..200 {
            if slices.load(Ordering::SeqCst) == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(slices.load(Ordering::SeqCst), 2);
        // Real wake: finishes.
        open.store(true, Ordering::SeqCst);
        handle.wake();
        wait_done(&handle);
        assert_eq!(slices.load(Ordering::SeqCst), 3);
        pool.shutdown();
    }

    #[test]
    fn round_robin_interleaves_yielding_tasks() {
        // Two endless yielders on one worker: both must keep making
        // progress (round-robin), neither may monopolize the thread.
        struct Yielder {
            me: usize,
            log: Arc<Mutex<Vec<usize>>>,
        }
        impl PoolTask for Yielder {
            fn run_slice(&self) -> Slice {
                let mut log = self.log.lock().unwrap();
                if log.len() >= 20 {
                    return Slice::Done;
                }
                log.push(self.me);
                Slice::Again
            }
        }
        let pool = EvaluatorPool::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        let a = pool.spawn_task(Box::new(Yielder {
            me: 0,
            log: log.clone(),
        }));
        let b = pool.spawn_task(Box::new(Yielder {
            me: 1,
            log: log.clone(),
        }));
        wait_done(&a);
        wait_done(&b);
        let log = log.lock().unwrap();
        let zeros = log.iter().filter(|&&m| m == 0).count();
        let ones = log.len() - zeros;
        assert!(
            zeros >= 8 && ones >= 8,
            "both tasks progressed (round-robin): {zeros} vs {ones}"
        );
        // Strict alternation on a single worker.
        for w in log.windows(2) {
            assert_ne!(w[0], w[1], "fair interleave, got {log:?}");
        }
        pool.shutdown();
    }

    #[test]
    fn run_here_claims_a_queued_task_and_its_queue_entry_goes_stale() {
        let pool = EvaluatorPool::new(1);
        let (_, _, release) = occupy(&pool);
        let ran = Arc::new(AtomicUsize::new(0));
        let handle = pool.spawn_task(counter(1, &ran));
        assert_eq!(pool.queued(), 1, "queued behind the blocker");
        handle.run_here();
        assert!(handle.is_done(), "ran to completion on this thread");
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(pool.steps(), 2, "the blocker's slice and this one");
        assert_eq!(pool.active(), 1, "only the blocker is on a worker");
        // The worker now pops the stale entry: it must run nothing and
        // count nothing (shutdown joins the worker after it drained the
        // queue).
        release.send(()).unwrap();
        pool.shutdown();
        assert_eq!(pool.queued(), 0);
        assert_eq!(ran.load(Ordering::SeqCst), 1, "ran exactly once");
        assert_eq!(pool.steps(), 2, "a stale entry is not a step");
        assert_eq!(pool.active(), 0);
    }

    #[test]
    fn run_here_on_a_running_task_notifies_it() {
        let pool = EvaluatorPool::new(1);
        let (handle, slices, release) = occupy(&pool);
        // The worker is mid-slice: the caller must not run it as well.
        handle.run_here();
        assert_eq!(state(&handle), NOTIFIED);
        assert_eq!(slices.load(Ordering::SeqCst), 1);
        release.send(()).unwrap();
        // The parking slice saw the notification: exactly one more
        // slice, then the task rests.
        for _ in 0..2000 {
            if slices.load(Ordering::SeqCst) == 2 && state(&handle) == IDLE {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(slices.load(Ordering::SeqCst), 2);
        assert_eq!(state(&handle), IDLE);
        pool.shutdown();
    }

    #[test]
    fn an_inline_slice_that_yields_continues_on_the_pool() {
        let pool = EvaluatorPool::new(1);
        let (_, _, release) = occupy(&pool);
        let (task, threads) = scripted(&[Slice::Again]);
        let handle = pool.spawn_task(task);
        handle.run_here();
        assert_eq!(*threads.lock().unwrap(), [this_thread()]);
        assert!(!handle.is_done(), "the second slice is the pool's");
        release.send(()).unwrap();
        wait_done(&handle);
        let threads = threads.lock().unwrap();
        assert_eq!(threads.len(), 2, "{threads:?}");
        assert!(threads[1].starts_with("gcx-eval-"), "{threads:?}");
        pool.shutdown();
    }

    #[test]
    fn after_shutdown_run_here_and_wake_run_inline() {
        let pool = EvaluatorPool::new(1);
        pool.shutdown();
        let (task, threads) = scripted(&[Slice::Park, Slice::Park, Slice::Again]);
        let handle = pool.spawn_task(task);
        assert_eq!(threads.lock().unwrap().len(), 1, "spawned inline, parked");
        handle.wake();
        assert_eq!(threads.lock().unwrap().len(), 2, "woken inline, parked");
        // Yields, and with no worker left the yield continues here too.
        handle.run_here();
        assert!(handle.is_done());
        let threads = threads.lock().unwrap();
        assert_eq!(*threads, vec![this_thread(); 4]);
    }
}
