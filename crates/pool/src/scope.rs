//! Structured-concurrency scopes over the pool.
//!
//! A [`Scope`] is the lifetime boundary that makes it sound for tasks to
//! borrow the caller's stack: `ThreadPool::scope` does not return until every
//! task spawned into the scope (including tasks spawned *by* tasks) has
//! completed, so `'env` borrows held by the tasks can never dangle. The
//! machinery mirrors rayon's `scope` at a smaller scale: a counting latch, a
//! lifetime-erased job box, and panic capture with re-raise at the scope
//! boundary.

use crate::cancel::{CancelToken, CurrentGuard};
use crate::pool::{Job, PoolInner};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Counts in-flight tasks of one scope and holds the first captured panic.
///
/// Shared by `Arc` between the scope owner and every job of the scope: the
/// owner may observe `pending == 0` and return (popping its stack frame)
/// while the last completer is still between its decrement and its
/// `notify_all`, so the latch must not live in that frame. A job's clone
/// keeps the latch alive until the job has finished touching it.
pub(crate) struct ScopeLatch {
    pending: AtomicUsize,
    mutex: Mutex<()>,
    cond: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeLatch {
    pub(crate) fn new() -> Self {
        ScopeLatch {
            pending: AtomicUsize::new(0),
            mutex: Mutex::new(()),
            cond: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn increment(&self) {
        self.pending.fetch_add(1, Ordering::AcqRel);
    }

    fn increment_by(&self, n: usize) {
        self.pending.fetch_add(n, Ordering::AcqRel);
    }

    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last task: wake the scope owner. The lock pairs with
            // wait_blocking's re-check to avoid a lost wakeup. The owner
            // may already be gone (a helping waiter polls `is_open`
            // without the lock); `self` is alive regardless because the
            // completing job holds its own `Arc` of the latch.
            drop(self.mutex.lock());
            self.cond.notify_all();
        }
    }

    /// `true` once every task has completed.
    pub(crate) fn is_open(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }

    /// Parks the calling (non-worker) thread until the scope drains.
    pub(crate) fn wait_blocking(&self) {
        let mut guard = self.mutex.lock();
        while !self.is_open() {
            self.cond.wait(&mut guard);
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Re-raises the first task panic, if any.
    pub(crate) fn maybe_resume_panic(&self) {
        let payload = self.panic.lock().take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

/// A raw pointer that may cross threads. Soundness is argued at each use
/// site: the pointee is kept alive by the scope protocol.
struct SendPtr<T>(*const T);
// SAFETY: see the field docs — validity is a protocol invariant, not a type
// property; Send-ness itself is fine for a raw pointer to Sync data.
unsafe impl<T: Sync> Send for SendPtr<T> {}
impl<T> Copy for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> SendPtr<T> {
    /// Takes `self` by value so closures capture the whole wrapper (and its
    /// `Send` impl) rather than the raw-pointer field under RFC 2229
    /// disjoint capture.
    fn get(self) -> *const T {
        self.0
    }
}

/// A spawning context tied to a pool (`'pool`) and the borrowed environment
/// (`'env`). Obtained from [`crate::ThreadPool::scope`]; tasks receive a
/// scope of their own so they can spawn recursively.
pub struct Scope<'pool, 'env> {
    pool: &'pool PoolInner,
    latch: &'pool Arc<ScopeLatch>,
    /// Cancellation token governing every task in the scope, if any
    /// (installed by [`crate::ThreadPool::scope_with_cancel`] or inherited
    /// from the enclosing task by [`crate::ThreadPool::scope`]).
    cancel: Option<CancelToken>,
    /// Invariant in `'env`: prevents the environment lifetime from being
    /// shortened, which would let tasks outlive their borrows.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    pub(crate) fn new(
        pool: &'pool PoolInner,
        latch: &'pool Arc<ScopeLatch>,
        cancel: Option<CancelToken>,
    ) -> Self {
        Scope {
            pool,
            latch,
            cancel,
            _env: PhantomData,
        }
    }

    /// `true` when the scope's token (if any) has fired: new spawns will
    /// be dropped and queued tasks skipped, so the caller should stop
    /// generating work and discard partial results.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Wraps a task closure in the latch/panic protocol and erases its
    /// lifetime to a pool-pushable [`Job`]. The latch must already have
    /// been incremented for this task.
    ///
    /// `cancellable` controls the steal/pop boundary check: when set (the
    /// normal case) a task whose scope was cancelled while it sat queued
    /// is skipped instead of executed. [`crate::ThreadPool::join`] spawns
    /// its second half non-cancellable because the joining side
    /// unconditionally consumes that task's result slot.
    fn make_job<F>(&self, f: F, cancellable: bool) -> Job
    where
        F: FnOnce(&Scope<'_, 'env>) + Send + 'env,
    {
        let pool = SendPtr(self.pool as *const PoolInner);
        // The job owns a share of the latch: its final `complete_one` can
        // race the scope owner's return, so a borrow of the owner's frame
        // would dangle exactly there.
        let latch = Arc::clone(self.latch);
        let cancel = self.cancel.clone();
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            // SAFETY: `PoolInner` is kept alive by the `ThreadPool`, which
            // must outlive the scope call and joins its workers on drop, so
            // the pointer is valid for the whole execution of this job.
            let pool = unsafe { &*pool.get() };
            if cancellable && cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                // Steal/pop boundary: the scope was cancelled after this
                // task was queued. Skip the body — a cancelled job is a
                // policy outcome, not a panic.
                latch.complete_one();
                return;
            }
            // The job's token (possibly none) becomes the thread's current
            // token for the body's duration, restoring whatever a helping
            // worker had before: leaf polls and nested scopes must see
            // exactly this job's scope, not an interleaved one.
            let _token = CurrentGuard::install(cancel.clone());
            let scope = Scope::new(pool, &latch, cancel);
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
            if let Err(payload) = result {
                latch.record_panic(payload);
            }
            latch.complete_one();
        });
        // SAFETY: lifetime erasure. The job only borrows data outliving
        // 'env, and the scope protocol guarantees the job completes before
        // `ThreadPool::scope` returns, i.e. before 'env can end.
        unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                job,
            )
        }
    }

    /// Spawns a task into the scope. The task may itself spawn via the scope
    /// reference it receives.
    ///
    /// Panics inside the task are captured and re-raised when the scope
    /// closes (first panic wins).
    ///
    /// On a cancelled scope the task is dropped instead of queued.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'_, 'env>) + Send + 'env,
    {
        if self.is_cancelled() {
            return;
        }
        self.latch.increment();
        let job = self.make_job(f, true);
        self.pool.push_job(job);
    }

    /// Like [`Scope::spawn`] but exempt from cancellation: the task runs
    /// even on a cancelled scope. Internal — used where a sibling
    /// unconditionally consumes this task's side effect
    /// ([`crate::ThreadPool::join`], the deterministic root task).
    pub(crate) fn spawn_always<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'_, 'env>) + Send + 'env,
    {
        self.latch.increment();
        let job = self.make_job(f, false);
        self.pool.push_job(job);
    }

    /// Spawns `n` sibling tasks in one batch: a single latch update and a
    /// single wakeup broadcast instead of `n` of each. `make(i)` builds
    /// the `i`-th task on the spawning thread, so each task owns its data.
    ///
    /// This is the fan-out primitive for the seven Strassen sub-products:
    /// the siblings land on the spawning worker's deque back-to-back,
    /// where idle peers can pick them off.
    pub fn spawn_n<G, F>(&self, n: usize, mut make: G)
    where
        G: FnMut(usize) -> F,
        F: FnOnce(&Scope<'_, 'env>) + Send + 'env,
    {
        if n == 0 || self.is_cancelled() {
            return;
        }
        self.latch.increment_by(n);
        self.pool
            .push_jobs((0..n).map(|i| self.make_job(make(i), true)));
    }

    /// Spawns a task addressed at `worker`'s mailbox. With a group layout
    /// installed ([`crate::ThreadPool::try_install_groups`]) this is how
    /// work enters a group: it runs on `worker` or on a same-group thief,
    /// and under a strict layout never leaves the group.
    ///
    /// # Panics
    /// Panics if `worker` is not a valid worker index for the pool.
    pub fn spawn_in<F>(&self, worker: usize, f: F)
    where
        F: FnOnce(&Scope<'_, 'env>) + Send + 'env,
    {
        assert!(
            worker < self.pool.num_workers(),
            "spawn_in: worker {worker} out of range"
        );
        if self.is_cancelled() {
            return;
        }
        self.latch.increment();
        let job = self.make_job(f, true);
        self.pool.push_job_to(worker, job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPool;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn latch_open_when_empty() {
        let latch = ScopeLatch::new();
        assert!(latch.is_open());
        latch.wait_blocking(); // must not block
    }

    #[test]
    fn latch_counts() {
        let latch = ScopeLatch::new();
        latch.increment();
        latch.increment();
        assert!(!latch.is_open());
        latch.complete_one();
        assert!(!latch.is_open());
        latch.complete_one();
        assert!(latch.is_open());
    }

    #[test]
    fn latch_keeps_first_panic() {
        let latch = ScopeLatch::new();
        latch.record_panic(Box::new("first"));
        latch.record_panic(Box::new("second"));
        let err = panic::catch_unwind(AssertUnwindSafe(|| latch.maybe_resume_panic()))
            .expect_err("should panic");
        assert_eq!(*err.downcast_ref::<&str>().unwrap(), "first");
        // Consumed: a second call is silent.
        latch.maybe_resume_panic();
    }

    #[test]
    fn deep_recursion_through_scopes() {
        let pool = ThreadPool::new(4);
        let count = AtomicU64::new(0);
        fn go<'env>(s: &Scope<'_, 'env>, depth: usize, count: &'env AtomicU64) {
            count.fetch_add(1, Ordering::Relaxed);
            if depth == 0 {
                return;
            }
            for _ in 0..2 {
                s.spawn(move |s2| go(s2, depth - 1, count));
            }
        }
        pool.scope(|s| go(s, 6, &count));
        // Nodes of a binary tree of depth 6: 2^7 - 1.
        assert_eq!(count.load(Ordering::Relaxed), 127);
    }

    #[test]
    fn scope_result_passthrough() {
        let pool = ThreadPool::new(2);
        let out = pool.scope(|_| "value");
        assert_eq!(out, "value");
    }

    #[test]
    fn panic_in_scope_body_still_waits_for_tasks() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let pool = ThreadPool::new(2);
        let finished = Arc::new(AtomicU64::new(0));
        let gate = Arc::new(AtomicBool::new(false));
        // Opens the gate from a Drop impl, i.e. *during* the scope body's
        // unwind: the spawned task is guaranteed to still be incomplete
        // when the panic starts, so this deterministically exercises the
        // wait-on-unwind path (no sleeps, no timing window).
        struct OpenOnUnwind(Arc<AtomicBool>);
        impl Drop for OpenOnUnwind {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let res = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                let _open = OpenOnUnwind(Arc::clone(&gate));
                let gate = Arc::clone(&gate);
                let finished = Arc::clone(&finished);
                s.spawn(move |_| {
                    while !gate.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                });
                panic!("scope body panicked");
            });
        }));
        assert!(res.is_err());
        // The spawned task must have completed before scope unwound.
        assert_eq!(finished.load(Ordering::SeqCst), 1);
    }
}
