//! The thread pool itself: workers, deques, injector, parking.

use crate::cancel::{current_cancel_token, CancelToken, CurrentGuard};
#[cfg(feature = "deterministic")]
use crate::det;
use crate::scope::{Scope, ScopeLatch};
use crate::stats::{PoolStats, WorkerStats};
use crossbeam_deque::{Injector, Stealer, Worker};
use parking_lot::{Condvar, Mutex};
use powerscale_trace as trace;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A type-erased unit of work.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Group tag of a worker that belongs to no scheduling group.
const UNGROUPED: usize = usize::MAX;

/// Where a job was obtained from — drives the stats counters.
enum JobSource {
    Local,
    Injected,
    Stolen { in_group: bool },
}

/// Globally unique pool identifiers so thread-locals can tell "my pool's
/// worker" from "some other pool's worker".
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// Set while a worker loop is running on this thread.
    static WORKER_CTX: Cell<Option<WorkerCtx>> = const { Cell::new(None) };
}

#[derive(Clone, Copy)]
struct WorkerCtx {
    pool_id: usize,
    index: usize,
    /// Pointer to the worker-owned deque, valid for the worker loop's
    /// lifetime on this thread only.
    local: *const Worker<Job>,
}

/// Index of the pool worker running on the current thread, if any.
///
/// Worker threads are persistent for the lifetime of their pool, so
/// thread-local caches built on a worker (e.g. packing arenas) are
/// effectively worker-local: this hook lets such caches identify the worker
/// context they belong to.
pub fn current_worker_index() -> Option<usize> {
    WORKER_CTX.with(|c| c.get()).map(|ctx| ctx.index)
}

pub(crate) struct PoolInner {
    id: usize,
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    /// Per-worker targeted queues: any thread may push, giving spawns a
    /// way to address a specific worker (and therefore its group). The
    /// owner drains its own mailbox ahead of the global injector.
    mailboxes: Vec<Injector<Job>>,
    /// Per-worker scheduling-group tag ([`UNGROUPED`] when none). Written
    /// only under the `groups_installed` guard.
    groups: Vec<AtomicUsize>,
    /// When set (with groups installed), grouped workers never *execute*
    /// work stolen across a group boundary — the disjoint-processor-group
    /// semantics of a CAPS BFS step.
    strict: AtomicBool,
    /// Exclusive-install guard for the group layout.
    groups_installed: AtomicBool,
    stats: Vec<WorkerStats>,
    shutdown: AtomicBool,
    /// Parking: workers sleep here when no work is available.
    sleep_mutex: Mutex<()>,
    sleep_cond: Condvar,
    /// Installed token scheduler while a deterministic run is active.
    /// `det_on` is the fast-path flag the hooks check first.
    #[cfg(feature = "deterministic")]
    det: Mutex<Option<Arc<det::DetScheduler>>>,
    #[cfg(feature = "deterministic")]
    det_on: AtomicBool,
}

/// A fixed-size work-stealing thread pool.
///
/// See the [crate docs](crate) for the design rationale. Dropping the pool
/// signals shutdown and joins every worker.
pub struct ThreadPool {
    inner: Arc<PoolInner>,
    threads: Vec<JoinHandle<()>>,
    num_threads: usize,
}

impl ThreadPool {
    /// Creates a pool with `num_threads` workers.
    ///
    /// # Panics
    /// Panics if `num_threads == 0`.
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads > 0, "ThreadPool requires at least one worker");
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let workers: Vec<Worker<Job>> = (0..num_threads).map(|_| Worker::new_lifo()).collect();
        let stealers = workers.iter().map(Worker::stealer).collect();
        let stats = (0..num_threads).map(|_| WorkerStats::default()).collect();
        let inner = Arc::new(PoolInner {
            id,
            injector: Injector::new(),
            stealers,
            mailboxes: (0..num_threads).map(|_| Injector::new()).collect(),
            groups: (0..num_threads)
                .map(|_| AtomicUsize::new(UNGROUPED))
                .collect(),
            strict: AtomicBool::new(false),
            groups_installed: AtomicBool::new(false),
            stats,
            shutdown: AtomicBool::new(false),
            sleep_mutex: Mutex::new(()),
            sleep_cond: Condvar::new(),
            #[cfg(feature = "deterministic")]
            det: Mutex::new(None),
            #[cfg(feature = "deterministic")]
            det_on: AtomicBool::new(false),
        });
        let threads = workers
            .into_iter()
            .enumerate()
            .map(|(index, worker)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("powerscale-worker-{index}"))
                    .spawn(move || worker_loop(inner, index, worker))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            inner,
            threads,
            num_threads,
        }
    }

    /// Number of workers.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Creates a scope in which tasks borrowing the environment may be
    /// spawned; returns once every spawned task (transitively) finished.
    ///
    /// If any task panicked, the panic is resumed here after the scope
    /// drains.
    ///
    /// When called from inside a cancellable task (one descending from
    /// [`ThreadPool::scope_with_cancel`]), the new scope inherits that
    /// task's [`CancelToken`]: library code deep in a recursion stays
    /// cancellable without any signature changes.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        self.scope_inner(current_cancel_token(), f)
    }

    /// Like [`ThreadPool::scope`], but every task in the scope (and in
    /// scopes nested under its tasks) is governed by `token`: once the
    /// token fires — explicitly or by deadline — new spawns are dropped,
    /// queued tasks are skipped at the steal/pop boundary, and leaf code
    /// polling [`crate::cancel_requested`] sees it. The call still waits
    /// for every *running* task to finish (cancellation is cooperative),
    /// then returns normally; the caller decides what a cancelled scope's
    /// partial results mean.
    ///
    /// The token is also installed as the calling thread's current token
    /// for the duration of `f`, so the scope body itself can poll it.
    pub fn scope_with_cancel<'env, F, R>(&self, token: &CancelToken, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let _ambient = CurrentGuard::install(Some(token.clone()));
        self.scope_inner(Some(token.clone()), f)
    }

    fn scope_inner<'env, F, R>(&self, cancel: Option<CancelToken>, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let latch = Arc::new(ScopeLatch::new());
        let scope = Scope::new(&self.inner, &latch, cancel);
        // Guard so the wait happens even if `f` itself unwinds after
        // spawning: tasks borrowing the environment must finish before the
        // stack frame disappears.
        struct WaitGuard<'a> {
            inner: &'a PoolInner,
            latch: &'a ScopeLatch,
        }
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                self.inner.wait_scope(self.latch);
            }
        }
        let result = {
            let _guard = WaitGuard {
                inner: &self.inner,
                latch: &latch,
            };
            f(&scope)
            // _guard drops here: waits for all spawned tasks (helping if on
            // a worker thread), on both the normal and unwinding paths.
        };
        latch.maybe_resume_panic();
        result
    }

    /// Runs two closures, potentially in parallel, returning both results.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let mut rb: Option<RB> = None;
        let ra = self.scope(|s| {
            // Non-cancellable: the `expect` below unconditionally consumes
            // this task's slot, so it must run even if an inherited token
            // fires mid-join (the closures themselves may poll and bail
            // early; the partial results are the caller's to discard).
            s.spawn_always(|_| rb = Some(b()));
            a()
        });
        (ra, rb.expect("join: spawned side did not complete"))
    }

    /// Snapshots per-worker statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.inner.stats.iter().map(WorkerStats::snapshot).collect(),
        }
    }

    /// `true` when called from one of this pool's worker threads.
    pub fn on_worker_thread(&self) -> bool {
        self.inner.current_worker().is_some()
    }

    /// Index of the calling worker thread within *this* pool, or `None`
    /// when called from outside the pool (or from another pool's worker).
    pub fn worker_index(&self) -> Option<usize> {
        self.inner.current_worker().map(|ctx| ctx.index)
    }

    /// Partitions the workers into scheduling groups of contiguous index
    /// ranges for the lifetime of the returned guard.
    ///
    /// Workers prefer work from their own group when stealing; with
    /// `strict` set, grouped workers never *execute* work stolen across a
    /// group boundary — the paper's disjoint processor groups for one CAPS
    /// BFS step. Workers left out of every range stay unrestricted.
    /// Targeted work enters a group via [`Scope::spawn_in`].
    ///
    /// Returns `None` (and installs nothing) when another group layout is
    /// currently installed, when a range is empty or out of bounds, or
    /// when ranges overlap. Dropping the guard dissolves the groups.
    pub fn try_install_groups(
        &self,
        group_ranges: &[std::ops::Range<usize>],
        strict: bool,
    ) -> Option<GroupGuard<'_>> {
        let n = self.num_threads;
        let mut claimed = vec![false; n];
        for r in group_ranges {
            if r.is_empty() || r.end > n {
                return None;
            }
            for w in r.clone() {
                if std::mem::replace(&mut claimed[w], true) {
                    return None;
                }
            }
        }
        if self
            .inner
            .groups_installed
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return None;
        }
        for (gi, r) in group_ranges.iter().enumerate() {
            for w in r.clone() {
                self.inner.groups[w].store(gi, Ordering::SeqCst);
            }
        }
        self.inner.strict.store(strict, Ordering::SeqCst);
        Some(GroupGuard { inner: &self.inner })
    }
}

#[cfg(feature = "deterministic")]
impl ThreadPool {
    /// Runs `f` (as the root task of a scope, on a worker) under the
    /// seeded deterministic token scheduler and returns its result plus
    /// the recorded [`det::DetTrace`]. Same seed and config ⇒ the same
    /// schedule and a byte-identical trace.
    ///
    /// The pool must be otherwise idle for the duration of the run: the
    /// scheduler serialises *this pool's workers*, so concurrent work
    /// submitted from other threads while the run is active would fall
    /// outside the deterministic envelope. All work must descend from
    /// `f` (which may freely use the pool: nested scopes, `spawn_in`,
    /// group installs).
    ///
    /// # Panics
    /// Panics if a deterministic run is already active on this pool.
    /// Task panics propagate after the run tears down cleanly.
    pub fn run_deterministic<F, R>(&self, cfg: &det::DetConfig, f: F) -> (R, det::DetTrace)
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        self.det_run(cfg, det::DrawSource::seeded(cfg.seed), f)
    }

    /// Re-runs `f` under the schedule recorded in `trace` (which must
    /// come from a run with the same `cfg` and the same workload): the
    /// recorded draw stream replaces the RNG, so every scheduling
    /// decision — and therefore the interleaving — is reproduced
    /// exactly. The returned trace's event list equals the recorded one
    /// when the replay really did follow the recording; asserting that
    /// equality is the caller's replay check.
    pub fn replay_deterministic<F, R>(
        &self,
        cfg: &det::DetConfig,
        trace: &det::DetTrace,
        f: F,
    ) -> (R, det::DetTrace)
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        self.det_run(cfg, det::DrawSource::replay(trace), f)
    }

    fn det_run<F, R>(
        &self,
        cfg: &det::DetConfig,
        source: det::DrawSource,
        f: F,
    ) -> (R, det::DetTrace)
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        let sched = Arc::new(det::DetScheduler::new(
            self.num_threads,
            cfg.clone(),
            source,
        ));
        self.inner.install_det(Arc::clone(&sched));
        // Tear down on every exit path (including a propagated task
        // panic) so the pool never stays serialised.
        struct Uninstall<'a>(&'a PoolInner);
        impl Drop for Uninstall<'_> {
            fn drop(&mut self) {
                self.0.uninstall_det();
            }
        }
        let mut out = None;
        {
            let _guard = Uninstall(&self.inner);
            self.scope(|s| {
                let slot = &mut out;
                // Non-cancellable: the `expect` below requires the root
                // task to run even under an inherited cancelled token.
                s.spawn_always(move |_| *slot = Some(f()));
            });
        }
        let trace = sched.take_trace();
        (out.expect("deterministic root task did not run"), trace)
    }
}

/// RAII handle for an installed worker-group layout
/// ([`ThreadPool::try_install_groups`]). Dropping it clears every group
/// tag, lifts strictness and wakes parked workers so leftover targeted
/// work can drain anywhere.
pub struct GroupGuard<'pool> {
    inner: &'pool PoolInner,
}

impl Drop for GroupGuard<'_> {
    fn drop(&mut self) {
        self.inner.strict.store(false, Ordering::SeqCst);
        for g in &self.inner.groups {
            g.store(UNGROUPED, Ordering::SeqCst);
        }
        self.inner.groups_installed.store(false, Ordering::SeqCst);
        self.inner.notify_all();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl PoolInner {
    /// The active deterministic scheduler, if any (one atomic load on the
    /// fast path; the feature gate removes the hook entirely when off).
    #[cfg(feature = "deterministic")]
    fn det_scheduler(&self) -> Option<Arc<det::DetScheduler>> {
        if !self.det_on.load(Ordering::SeqCst) {
            return None;
        }
        self.det.lock().clone()
    }

    /// Installs a deterministic run: publishes the scheduler, wakes every
    /// parked worker into the stepping loop and blocks until all of them
    /// have arrived — only then may the caller inject the root job.
    #[cfg(feature = "deterministic")]
    fn install_det(&self, sched: Arc<det::DetScheduler>) {
        {
            let mut slot = self.det.lock();
            assert!(
                slot.is_none(),
                "a deterministic run is already active on this pool"
            );
            *slot = Some(Arc::clone(&sched));
        }
        self.det_on.store(true, Ordering::SeqCst);
        self.notify_all();
        sched.wait_all_arrived();
    }

    /// Ends a deterministic run: waits for the scheduler to go quiescent
    /// (freezing the trace at a timing-independent point), releases every
    /// worker back to free running and clears the hook.
    #[cfg(feature = "deterministic")]
    fn uninstall_det(&self) {
        let sched = self.det.lock().clone();
        if let Some(s) = sched {
            s.stop();
        }
        self.det_on.store(false, Ordering::SeqCst);
        *self.det.lock() = None;
        self.notify_all();
    }

    /// Deterministic spawn hook: a worker yields the token after
    /// publishing work; an external push resumes a paused scheduler.
    #[cfg(feature = "deterministic")]
    fn det_after_push(&self, count: usize, target: Option<usize>) {
        if let Some(d) = self.det_scheduler() {
            match self.current_worker() {
                Some(ctx) => d.on_spawn(ctx.index, count, target),
                None => d.on_external_push(),
            }
        }
    }

    /// Pushes a job, preferring the current worker's local deque.
    pub(crate) fn push_job(&self, job: Job) {
        match self.current_worker() {
            Some(ctx) => {
                // SAFETY: ctx.local points to the deque owned by this
                // thread's running worker loop; we are on that thread.
                unsafe { (*ctx.local).push(job) };
            }
            None => self.injector.push(job),
        }
        self.notify_all();
        #[cfg(feature = "deterministic")]
        self.det_after_push(1, None);
    }

    /// Pushes a batch of sibling jobs with a single wakeup broadcast.
    pub(crate) fn push_jobs(&self, jobs: impl Iterator<Item = Job>) {
        let mut pushed = 0usize;
        match self.current_worker() {
            Some(ctx) => {
                for job in jobs {
                    // SAFETY: as in push_job — deque owned by this thread.
                    unsafe { (*ctx.local).push(job) };
                    pushed += 1;
                }
            }
            None => {
                for job in jobs {
                    self.injector.push(job);
                    pushed += 1;
                }
            }
        }
        let _ = pushed;
        self.notify_all();
        #[cfg(feature = "deterministic")]
        if pushed > 0 {
            self.det_after_push(pushed, None);
        }
    }

    /// Pushes a job into `worker`'s mailbox: it will run on that worker
    /// unless another worker (own group first) steals it.
    pub(crate) fn push_job_to(&self, worker: usize, job: Job) {
        self.mailboxes[worker].push(job);
        self.notify_all();
        #[cfg(feature = "deterministic")]
        self.det_after_push(1, Some(worker));
    }

    pub(crate) fn num_workers(&self) -> usize {
        self.stealers.len()
    }

    fn current_worker(&self) -> Option<WorkerCtx> {
        WORKER_CTX
            .with(|c| c.get())
            .filter(|ctx| ctx.pool_id == self.id)
    }

    /// Records a caught task panic against the worker that caught it (jobs
    /// only ever execute on worker threads; worker 0 absorbs the count in
    /// the defensive non-worker case).
    pub(crate) fn count_panic_current(&self) {
        let index = self.current_worker().map_or(0, |ctx| ctx.index);
        self.stats[index].count_panic();
    }

    /// Records a cancelled (dropped or skipped) job against the current
    /// worker; spawn-side drops from a non-worker thread land on worker 0,
    /// as with panics.
    pub(crate) fn count_cancelled_current(&self) {
        let index = self.current_worker().map_or(0, |ctx| ctx.index);
        self.stats[index].count_cancelled();
    }

    fn notify_all(&self) {
        // Lock/unlock pairs with the re-check under the lock in the worker
        // loop, closing the lost-wakeup window.
        drop(self.sleep_mutex.lock());
        self.sleep_cond.notify_all();
    }

    /// Blocks until `latch` opens. Worker threads help by executing tasks.
    pub(crate) fn wait_scope(&self, latch: &ScopeLatch) {
        if let Some(ctx) = self.current_worker() {
            // Helping wait: keep running any available task.
            while !latch.is_open() {
                // SAFETY: as in push_job — deque owned by this thread.
                let local = unsafe { &*ctx.local };
                #[cfg(feature = "deterministic")]
                if let Some(det) = self.det_scheduler() {
                    // Every helping iteration is a preemption point: the
                    // join site of the deterministic schedule.
                    det.preempt(ctx.index);
                    if latch.is_open() {
                        break;
                    }
                    match self.find_job_det(local, ctx.index, &det) {
                        Some((job, src)) => self.run_job(job, src, ctx.index),
                        None => det.record_idle(ctx.index),
                    }
                    continue;
                }
                match self.find_job(local, ctx.index) {
                    Some((job, src)) => self.run_job(job, src, ctx.index),
                    None => std::thread::yield_now(),
                }
            }
        } else {
            latch.wait_blocking();
        }
    }

    fn find_job(&self, local: &Worker<Job>, index: usize) -> Option<(Job, JobSource)> {
        if let Some(job) = local.pop() {
            return Some((job, JobSource::Local));
        }
        // Targeted work for this worker, then the global injector — both
        // drained in batches into our deque.
        if let Some(job) = steal_batch_into(&self.mailboxes[index], local) {
            return Some((job, JobSource::Injected));
        }
        if let Some(job) = steal_batch_into(&self.injector, local) {
            return Some((job, JobSource::Injected));
        }
        // Steal from siblings: own group first, then (unless strict)
        // across groups; within a pass, start after our own index for
        // fairness. Group tags are re-read after each successful steal —
        // the steal's acquire makes tags installed before the victim's
        // push visible — so a strict boundary can never be crossed by a
        // stale scan: a disallowed catch goes back to the victim's
        // mailbox, keeping it inside the victim's group.
        let n = self.num_workers();
        let my_tag = self.groups[index].load(Ordering::SeqCst);
        let strict = self.strict.load(Ordering::SeqCst);
        for same_group_pass in [true, false] {
            if !same_group_pass && strict && my_tag != UNGROUPED {
                break;
            }
            for k in 1..n {
                let victim = (index + k) % n;
                let victim_tag = self.groups[victim].load(Ordering::SeqCst);
                if (victim_tag == my_tag) != same_group_pass {
                    continue;
                }
                let caught = steal_one(&self.stealers[victim])
                    .or_else(|| steal_one_injector(&self.mailboxes[victim]));
                if let Some(job) = caught {
                    let my_tag = self.groups[index].load(Ordering::SeqCst);
                    let victim_tag = self.groups[victim].load(Ordering::SeqCst);
                    let strict = self.strict.load(Ordering::SeqCst);
                    if strict && my_tag != UNGROUPED && victim_tag != my_tag {
                        self.mailboxes[victim].push(job);
                        self.notify_all();
                        continue;
                    }
                    trace::instant(trace::Category::Pool, "steal", victim as u32);
                    return Some((
                        job,
                        JobSource::Stolen {
                            in_group: victim_tag == my_tag,
                        },
                    ));
                }
            }
        }
        None
    }

    /// The deterministic twin of [`PoolInner::find_job`]: same sources,
    /// but siblings are probed in a freshly drawn victim order (instead
    /// of the fixed ring scan with its same-group-first pass) and every
    /// acquisition is recorded. Strictness is enforced the same way as in
    /// production — by the post-catch re-check and put-back — so a
    /// strict-grouped worker may *probe* a cross-group victim here (the
    /// adversarial case `cross_group_first` exists for) yet never
    /// executes across the boundary.
    #[cfg(feature = "deterministic")]
    fn find_job_det(
        &self,
        local: &Worker<Job>,
        index: usize,
        det: &det::DetScheduler,
    ) -> Option<(Job, JobSource)> {
        if let Some(job) = local.pop() {
            det.record_run(
                index,
                det::DetEvent::RunLocal {
                    worker: index as u32,
                },
            );
            return Some((job, JobSource::Local));
        }
        if let Some(job) = steal_batch_into(&self.mailboxes[index], local) {
            det.record_run(
                index,
                det::DetEvent::RunMailbox {
                    worker: index as u32,
                },
            );
            return Some((job, JobSource::Injected));
        }
        if let Some(job) = steal_batch_into(&self.injector, local) {
            det.record_run(
                index,
                det::DetEvent::RunInjected {
                    worker: index as u32,
                },
            );
            return Some((job, JobSource::Injected));
        }
        let n = self.num_workers();
        let tags: Vec<usize> = (0..n)
            .map(|w| self.groups[w].load(Ordering::SeqCst))
            .collect();
        for victim in det.victim_order(index, tags[index], &tags) {
            let caught = steal_one(&self.stealers[victim])
                .or_else(|| steal_one_injector(&self.mailboxes[victim]));
            if let Some(job) = caught {
                let my_tag = self.groups[index].load(Ordering::SeqCst);
                let victim_tag = self.groups[victim].load(Ordering::SeqCst);
                let strict = self.strict.load(Ordering::SeqCst);
                if strict && my_tag != UNGROUPED && victim_tag != my_tag {
                    self.mailboxes[victim].push(job);
                    self.notify_all();
                    det.record_steal_rejected(index, victim);
                    continue;
                }
                let in_group = victim_tag == my_tag;
                det.record_steal(index, victim, in_group);
                trace::instant(trace::Category::Pool, "steal", victim as u32);
                return Some((job, JobSource::Stolen { in_group }));
            }
        }
        None
    }

    fn run_job(&self, job: Job, src: JobSource, index: usize) {
        let span_name = match src {
            JobSource::Local => {
                self.stats[index].count_local();
                "job:local"
            }
            JobSource::Injected => {
                self.stats[index].count_injected();
                "job:injected"
            }
            JobSource::Stolen { in_group } => {
                self.stats[index].count_stolen(in_group);
                "job:stolen"
            }
        };
        let _span = trace::span_args(trace::Category::Pool, span_name, index as u32, 0);
        job();
    }

    /// `true` when queues this worker is allowed to take from hold work.
    /// The park-side twin of [`PoolInner::find_job`]'s visit order.
    fn has_work_for(&self, index: usize) -> bool {
        if !self.mailboxes[index].is_empty()
            || !self.injector.is_empty()
            || !self.stealers[index].is_empty()
        {
            return true;
        }
        let my_tag = self.groups[index].load(Ordering::SeqCst);
        let strict = self.strict.load(Ordering::SeqCst);
        (0..self.num_workers()).any(|victim| {
            if victim == index {
                return false;
            }
            if strict && my_tag != UNGROUPED && self.groups[victim].load(Ordering::SeqCst) != my_tag
            {
                return false;
            }
            !self.stealers[victim].is_empty() || !self.mailboxes[victim].is_empty()
        })
    }
}

/// Repeatedly steals a batch from `source` into `local` until a job or a
/// definitive `Empty` comes back.
fn steal_batch_into(source: &Injector<Job>, local: &Worker<Job>) -> Option<Job> {
    loop {
        match source.steal_batch_and_pop(local) {
            crossbeam_deque::Steal::Success(job) => return Some(job),
            crossbeam_deque::Steal::Retry => continue,
            crossbeam_deque::Steal::Empty => return None,
        }
    }
}

/// Steals a single job from a sibling's deque.
fn steal_one(stealer: &Stealer<Job>) -> Option<Job> {
    loop {
        match stealer.steal() {
            crossbeam_deque::Steal::Success(job) => return Some(job),
            crossbeam_deque::Steal::Retry => continue,
            crossbeam_deque::Steal::Empty => return None,
        }
    }
}

/// Steals a single job from a sibling's mailbox (no batching: targeted
/// work should not be dragged wholesale onto another worker).
fn steal_one_injector(mailbox: &Injector<Job>) -> Option<Job> {
    loop {
        match mailbox.steal() {
            crossbeam_deque::Steal::Success(job) => return Some(job),
            crossbeam_deque::Steal::Retry => continue,
            crossbeam_deque::Steal::Empty => return None,
        }
    }
}

fn worker_loop(inner: Arc<PoolInner>, index: usize, local: Worker<Job>) {
    WORKER_CTX.with(|c| {
        c.set(Some(WorkerCtx {
            pool_id: inner.id,
            index,
            local: &local as *const _,
        }))
    });
    trace::set_thread_label("worker", index as u32);
    // Adaptive spin-then-park: when work shows up while spinning, the
    // spin budget grows (the queue is bursty — parking would just pay
    // wakeup latency); every actual park shrinks it back toward a quick
    // doze so a long-idle worker stops burning its core.
    const SPIN_MIN: u32 = 4;
    const SPIN_START: u32 = 32;
    const SPIN_MAX: u32 = 256;
    let mut spin_limit = SPIN_START;
    let mut idle_spins = 0u32;
    loop {
        #[cfg(feature = "deterministic")]
        if let Some(det) = inner.det_scheduler() {
            det_worker_loop(&inner, &det, &local, index);
            // The run ended: fall back to free running with a fresh
            // spin budget.
            spin_limit = SPIN_START;
            idle_spins = 0;
            continue;
        }
        if let Some((job, src)) = inner.find_job(&local, index) {
            if idle_spins > 0 {
                spin_limit = (spin_limit * 2).min(SPIN_MAX);
            }
            idle_spins = 0;
            inner.run_job(job, src, index);
            continue;
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        idle_spins += 1;
        if idle_spins < spin_limit {
            std::thread::yield_now();
            continue;
        }
        // Park until notified. Re-check for work under the lock to avoid a
        // lost wakeup between find_job and the wait; the check only looks
        // at queues this worker may legally take from, so a strict-grouped
        // worker does not stay awake for other groups' work.
        let mut guard = inner.sleep_mutex.lock();
        if inner.has_work_for(index) || inner.shutdown.load(Ordering::SeqCst) {
            continue;
        }
        #[cfg(feature = "deterministic")]
        if inner.det_on.load(Ordering::SeqCst) {
            // A deterministic run was just installed: join it instead of
            // sleeping (the install's wakeup pairs with this re-check).
            continue;
        }
        inner.stats[index].count_park();
        spin_limit = (spin_limit / 2).max(SPIN_MIN);
        trace::instant(trace::Category::Pool, "park", index as u32);
        inner.sleep_cond.wait(&mut guard);
        trace::instant(trace::Category::Pool, "unpark", index as u32);
        idle_spins = 0;
    }
    WORKER_CTX.with(|c| c.set(None));
}

/// One worker's side of a deterministic run: arrive, take one scheduling
/// step per token grant, release; leave when the run stops.
#[cfg(feature = "deterministic")]
fn det_worker_loop(
    inner: &PoolInner,
    det: &Arc<det::DetScheduler>,
    local: &Worker<Job>,
    index: usize,
) {
    while det.acquire(index) {
        match inner.find_job_det(local, index, det) {
            Some((job, src)) => inner.run_job(job, src, index),
            None => det.record_idle(index),
        }
        det.release(index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn single_thread_pool_runs_tasks() {
        let pool = ThreadPool::new(1);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn join_returns_both_results() {
        let pool = ThreadPool::new(2);
        let (a, b) = pool.join(|| 1 + 1, || vec![1, 2, 3]);
        assert_eq!(a, 2);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn scope_borrows_environment_mutably() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0u64; 64];
        pool.scope(|s| {
            for (i, chunk) in data.chunks_mut(8).enumerate() {
                s.spawn(move |_| {
                    for x in chunk {
                        *x = i as u64;
                    }
                });
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[63], 7);
    }

    #[test]
    fn nested_scopes_from_tasks() {
        let pool = ThreadPool::new(4);
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(|s2| {
                    for _ in 0..4 {
                        s2.spawn(|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn recursive_fork_join_fib() {
        // The BOTS-style recursion pattern: join calls nested inside tasks.
        fn fib(pool: &ThreadPool, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = pool.join(|| fib_inner(pool, n - 1), || fib_inner(pool, n - 2));
            a + b
        }
        fn fib_inner(pool: &ThreadPool, n: u64) -> u64 {
            if n < 10 {
                // Sequential cutoff.
                if n < 2 {
                    n
                } else {
                    fib_inner(pool, n - 1) + fib_inner(pool, n - 2)
                }
            } else {
                fib(pool, n)
            }
        }
        let pool = ThreadPool::new(4);
        assert_eq!(fib(&pool, 20), 6765);
    }

    #[test]
    fn scope_propagates_panic() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|_| panic!("task exploded"));
            });
        }));
        assert!(result.is_err());
        // Pool still usable afterwards.
        let (a, _) = pool.join(|| 5, || 6);
        assert_eq!(a, 5);
    }

    #[test]
    fn panics_caught_is_observable_in_stats() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.stats().panics_caught(), 0);
        for round in 0..3 {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.scope(|s| {
                    s.spawn(|_| panic!("boom {round}"));
                    // Healthy siblings in the same scope don't count.
                    s.spawn(|_| std::hint::black_box(()));
                });
            }));
            assert!(result.is_err());
        }
        let stats = pool.stats();
        assert_eq!(stats.panics_caught(), 3);
        // Panic counts ride on executed tasks, not extra ones.
        assert_eq!(stats.total_executed(), 6);
    }

    #[test]
    fn stats_count_all_tasks() {
        let pool = ThreadPool::new(2);
        pool.scope(|s| {
            for _ in 0..50 {
                s.spawn(|_| std::hint::black_box(()));
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.total_executed(), 50);
    }

    #[test]
    fn on_worker_thread_detection() {
        let pool = ThreadPool::new(1);
        assert!(!pool.on_worker_thread());
        let mut inside = false;
        pool.scope(|s| {
            s.spawn(|_| {
                inside = WORKER_CTX.with(|c| c.get()).is_some();
            });
        });
        assert!(inside);
    }

    #[test]
    fn worker_index_identifies_workers() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.worker_index(), None);
        assert_eq!(current_worker_index(), None);
        let mut seen = [false; 64];
        pool.scope(|s| {
            for slot in seen.iter_mut() {
                s.spawn(|_| {
                    let idx = current_worker_index().expect("task runs on a worker");
                    assert!(idx < 2);
                    *slot = true;
                });
            }
        });
        assert!(seen.iter().all(|&b| b));
        // A different pool's worker is not "ours".
        let other = ThreadPool::new(1);
        let mut cross: Option<Option<usize>> = None;
        other.scope(|s| {
            s.spawn(|_| {
                cross = Some(pool.worker_index());
            });
        });
        assert_eq!(cross, Some(None));
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        {
            let c = Arc::clone(&counter);
            pool.scope(move |s| {
                for _ in 0..10 {
                    let c = Arc::clone(&c);
                    s.spawn(move |_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn many_pools_coexist() {
        let p1 = ThreadPool::new(2);
        let p2 = ThreadPool::new(2);
        let (a, b) = p1.join(|| p2.join(|| 1, || 2), || 3);
        assert_eq!((a, b), ((1, 2), 3));
    }

    #[test]
    fn spawn_n_runs_all_tasks_in_one_batch() {
        let pool = ThreadPool::new(3);
        let hits = [const { AtomicU64::new(0) }; 7];
        pool.scope(|s| {
            s.spawn_n(7, |i| {
                let slot = &hits[i];
                move |_: &crate::Scope<'_, '_>| {
                    slot.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
        // spawn_n(0, ..) is a no-op, not a hang.
        pool.scope(|s| s.spawn_n(0, |_| |_: &crate::Scope<'_, '_>| unreachable!()));
    }

    #[test]
    fn spawn_n_tasks_can_spawn_recursively() {
        let pool = ThreadPool::new(4);
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            s.spawn_n(4, |_| {
                let total = &total;
                move |s2: &crate::Scope<'_, '_>| {
                    s2.spawn_n(4, |_| {
                        move |_: &crate::Scope<'_, '_>| {
                            total.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn spawn_in_targets_the_addressed_worker_or_its_thief() {
        let pool = ThreadPool::new(2);
        let mut ran_on = [usize::MAX; 8];
        pool.scope(|s| {
            for (i, slot) in ran_on.iter_mut().enumerate() {
                s.spawn_in(i % 2, move |_| {
                    *slot = current_worker_index().expect("on a worker");
                });
            }
        });
        // Every task ran on some worker (affinity is a preference; an
        // idle sibling may legally steal targeted work on an ungrouped
        // pool).
        assert!(ran_on.iter().all(|&w| w < 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn spawn_in_rejects_bad_worker_index() {
        let pool = ThreadPool::new(2);
        pool.scope(|s| s.spawn_in(2, |_| {}));
    }

    #[test]
    fn install_groups_validates_layout() {
        let pool = ThreadPool::new(4);
        // Out of bounds.
        assert!(pool.try_install_groups(&[0..2, 2..5], false).is_none());
        // Overlap.
        assert!(pool.try_install_groups(&[0..2, 1..4], false).is_none());
        // Empty range.
        assert!(pool.try_install_groups(&[0..0, 1..2], false).is_none());
        // A valid layout installs exclusively until dropped.
        let g = pool.try_install_groups(&[0..2, 2..4], false).unwrap();
        assert!(pool.try_install_groups(&[0..1, 1..4], false).is_none());
        drop(g);
        let g2 = pool.try_install_groups(&[0..1, 1..4], true).unwrap();
        drop(g2);
    }

    #[test]
    fn steal_split_partitions_total_stolen() {
        let pool = ThreadPool::new(4);
        for round in 0..20 {
            pool.scope(|s| {
                for _ in 0..64 {
                    s.spawn(|s2| {
                        s2.spawn(|_| {
                            std::hint::black_box(round);
                        });
                    });
                }
            });
        }
        let stats = pool.stats();
        for w in &stats.workers {
            assert_eq!(w.steals_in_group + w.steals_cross_group, w.stolen);
        }
        assert_eq!(
            stats.steals_in_group() + stats.steals_cross_group(),
            stats.total_stolen()
        );
    }

    #[test]
    fn grouped_scope_drains_under_nested_spawns() {
        // Scope-drain correctness must survive a strict group layout:
        // every task (including nested ones) completes before scope
        // returns, whichever group it was addressed to.
        let pool = ThreadPool::new(4);
        let _guard = pool.try_install_groups(&[0..2, 2..4], true).unwrap();
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for g in [0usize, 2] {
                s.spawn_in(g, |s2| {
                    for _ in 0..8 {
                        s2.spawn(|s3| {
                            s3.spawn(|_| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    total.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 2 * (1 + 8 * 2));
    }

    #[test]
    fn strict_groups_have_no_cross_group_steals() {
        // The acceptance check for the CAPS BFS mapping: on a
        // group-aligned pool running a pure per-group schedule, no steal
        // ever crosses a group boundary.
        let pool = ThreadPool::new(4);
        let before = pool.stats();
        {
            let _guard = pool.try_install_groups(&[0..2, 2..4], true).unwrap();
            let total = AtomicU64::new(0);
            pool.scope(|s| {
                for g in [0usize, 2] {
                    s.spawn_in(g, |s2| {
                        // Plenty of nested work to provoke in-group
                        // stealing between the two group members.
                        for _ in 0..200 {
                            s2.spawn(|_| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            });
            assert_eq!(total.load(Ordering::Relaxed), 400);
        }
        let after = pool.stats();
        assert_eq!(
            after.steals_cross_group(),
            before.steals_cross_group(),
            "strict group layout leaked a cross-group steal"
        );
    }

    #[test]
    fn cancelled_scope_drops_new_spawns() {
        let pool = ThreadPool::new(2);
        let token = CancelToken::new();
        let ran = AtomicU64::new(0);
        token.cancel();
        pool.scope_with_cancel(&token, |s| {
            assert!(s.is_cancelled());
            for _ in 0..8 {
                s.spawn(|_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            s.spawn_n(4, |_| {
                let ran = &ran;
                move |_: &crate::Scope<'_, '_>| {
                    ran.fetch_add(1, Ordering::Relaxed);
                }
            });
            s.spawn_in(0, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(pool.stats().jobs_cancelled(), 13);
    }

    #[test]
    fn cancellation_does_not_count_as_panics() {
        // Satellite pin: cancelled jobs are a policy outcome, not a
        // failure — `panics_caught` must not move when a scope's work is
        // dropped by its token.
        let pool = ThreadPool::new(2);
        let before = pool.stats();
        let token = CancelToken::new();
        token.cancel();
        pool.scope_with_cancel(&token, |s| {
            for _ in 0..16 {
                s.spawn(|_| panic!("would have exploded had it run"));
            }
        });
        let after = pool.stats();
        assert_eq!(after.jobs_cancelled(), before.jobs_cancelled() + 16);
        assert_eq!(after.panics_caught(), before.panics_caught());
    }

    #[test]
    fn mid_flight_cancel_skips_queued_tasks() {
        // Tasks queued before the token fires are skipped at the pop
        // boundary; the scope still drains and returns normally.
        let pool = ThreadPool::new(2);
        let token = CancelToken::new();
        let ran = AtomicU64::new(0);
        pool.scope_with_cancel(&token, |s| {
            let token = &token;
            let ran = &ran;
            s.spawn(move |s2| {
                // Runs first (LIFO pop): cancels, then fans out siblings
                // that are guaranteed to observe the fired token at their
                // own pop or spawn boundary.
                token.cancel();
                for _ in 0..32 {
                    s2.spawn(move |_| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(pool.stats().jobs_cancelled(), 32);
    }

    #[test]
    fn deadline_token_cancels_scope() {
        let pool = ThreadPool::new(2);
        let token = CancelToken::with_deadline(std::time::Instant::now());
        let ran = AtomicU64::new(0);
        pool.scope_with_cancel(&token, |s| {
            s.spawn(|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(
            token.reason(),
            Some(crate::cancel::CancelReason::DeadlineExceeded)
        );
    }

    #[test]
    fn nested_scope_inherits_cancel_token() {
        // A plain `pool.scope` opened *inside* a cancellable task sees the
        // same token — the inheritance path library code relies on.
        let pool = ThreadPool::new(2);
        let token = CancelToken::new();
        let ran = AtomicU64::new(0);
        let pool_ref = &pool;
        pool.scope_with_cancel(&token, |s| {
            let token = &token;
            let ran = &ran;
            s.spawn(move |_| {
                assert!(!crate::cancel::cancel_requested());
                token.cancel();
                assert!(crate::cancel::cancel_requested());
                // A plain nested scope inherits the fired token, so its
                // spawns are dropped.
                pool_ref.scope(|s2| {
                    assert!(s2.is_cancelled());
                    s2.spawn(move |_| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                });
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert!(pool.stats().jobs_cancelled() >= 1);
    }

    #[test]
    fn join_survives_cancelled_ambient_token() {
        // join's second half must run even when an inherited token has
        // fired — its result slot is unconditionally consumed.
        let pool = ThreadPool::new(2);
        let token = CancelToken::new();
        token.cancel();
        let out = pool.scope_with_cancel(&token, |_| pool.join(|| 1, || 2));
        assert_eq!(out, (1, 2));
    }

    #[test]
    fn scope_with_cancel_live_token_runs_everything() {
        let pool = ThreadPool::new(4);
        let token = CancelToken::with_timeout(std::time::Duration::from_secs(3600));
        let ran = AtomicU64::new(0);
        pool.scope_with_cancel(&token, |s| {
            assert!(!s.is_cancelled());
            assert!(s.cancel_token().is_some());
            for _ in 0..64 {
                s.spawn(|_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(ran.load(Ordering::Relaxed), 64);
        assert_eq!(pool.stats().jobs_cancelled(), 0);
    }

    #[test]
    fn current_token_cleared_outside_cancellable_tasks() {
        let pool = ThreadPool::new(1);
        let token = CancelToken::new();
        pool.scope_with_cancel(&token, |_| {
            assert!(crate::cancel::current_cancel_token().is_some());
        });
        // The ambient install is scoped: gone after the call.
        assert!(crate::cancel::current_cancel_token().is_none());
        // Plain scopes on a clean thread carry no token.
        let mut saw = None;
        pool.scope(|s| {
            s.spawn(|_| {
                saw = Some(crate::cancel::current_cancel_token().is_none());
            });
        });
        assert_eq!(saw, Some(true));
    }

    #[test]
    fn group_guard_drop_restores_free_stealing() {
        let pool = ThreadPool::new(2);
        {
            let _g = pool.try_install_groups(&[0..1, 1..2], true).unwrap();
        }
        // After the guard is gone the pool behaves as before: plain
        // spawns drain with all workers participating.
        let count = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }
}
