//! Cooperative cancellation for scoped task trees.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between a request
//! owner and every task working on its behalf. It fires either explicitly
//! ([`CancelToken::cancel`]) or implicitly when its deadline passes; once
//! fired it never un-fires. Cancellation is **cooperative**: nothing is
//! interrupted mid-instruction. Instead the pool consults the token at its
//! natural boundaries —
//!
//! * **spawn**: [`crate::Scope::spawn`] on a cancelled scope drops the task
//!   instead of queueing it,
//! * **steal/pop**: a queued task whose scope was cancelled by the time a
//!   worker picks it up is skipped, not executed,
//! * **leaf**: long-running kernels poll [`cancel_requested`] at panel/
//!   recursion boundaries and return early,
//!
//! so an expired request frees its workers within one leaf's latency
//! instead of running the whole task tree to completion. A skipped task is
//! a *policy* outcome, not a failure: it never runs, so it cannot panic.
//!
//! The token travels implicitly: while a cancellable task runs, the token
//! is installed in a thread-local, so nested [`crate::ThreadPool::scope`]
//! calls made by library code (a GEMM packing scope deep inside a Strassen
//! recursion) inherit it without any signature changes. The partial results
//! a cancelled task tree leaves behind are garbage by design — the caller
//! that observed `is_cancelled()` must discard them.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a token fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called.
    Explicit,
    /// The token's deadline passed.
    DeadlineExceeded,
}

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;

#[derive(Debug)]
struct Inner {
    /// `LIVE` until the token fires; then the firing reason, permanently.
    state: AtomicU8,
    /// Absolute deadline, checked lazily by [`CancelToken::is_cancelled`].
    deadline: Option<Instant>,
}

/// A shared cancellation flag with an optional deadline.
///
/// Clones share state: cancelling any clone cancels them all.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token that only fires explicitly.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline: None,
            }),
        }
    }

    /// A token that fires when `deadline` passes (or explicitly, earlier).
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline: Some(deadline),
            }),
        }
    }

    /// The absolute deadline, if the token has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Fires the token explicitly. Idempotent; a deadline that already
    /// fired keeps its `DeadlineExceeded` reason.
    pub fn cancel(&self) {
        let _ =
            self.inner
                .state
                .compare_exchange(LIVE, CANCELLED, Ordering::AcqRel, Ordering::Acquire);
    }

    /// `true` once the token has fired (checking the deadline first).
    ///
    /// One atomic load on the already-fired path; a live token with a
    /// deadline additionally reads the clock — cheap enough for leaf
    /// boundaries (microseconds of work per check), not for inner loops.
    pub fn is_cancelled(&self) -> bool {
        match self.inner.state.load(Ordering::Acquire) {
            LIVE => match self.inner.deadline {
                Some(d) if Instant::now() >= d => {
                    let _ = self.inner.state.compare_exchange(
                        LIVE,
                        DEADLINE,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                    true
                }
                _ => false,
            },
            _ => true,
        }
    }

    /// Why the token fired, or `None` while it is live. Checks the
    /// deadline, so a token whose deadline just passed reports
    /// `DeadlineExceeded` even if nothing polled it before.
    pub fn reason(&self) -> Option<CancelReason> {
        if !self.is_cancelled() {
            return None;
        }
        match self.inner.state.load(Ordering::Acquire) {
            CANCELLED => Some(CancelReason::Explicit),
            DEADLINE => Some(CancelReason::DeadlineExceeded),
            _ => None,
        }
    }

    /// Time left before the deadline (`None` without one; zero once
    /// passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

thread_local! {
    /// The token of the cancellable task currently executing on this
    /// thread, if any. Installed by the job wrapper for the task's
    /// duration; nested scopes inherit it.
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// The cancellation token governing the current task, if any.
///
/// Inside a task spawned (transitively) under
/// [`crate::ThreadPool::scope_with_cancel`], this is that scope's token;
/// elsewhere `None`.
pub(crate) fn current_cancel_token() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// `true` when the current task's token (if any) has fired.
///
/// This is the polling hook for leaf kernels: cheap when no token is
/// installed (one thread-local read), and safe to call from any thread.
pub fn cancel_requested() -> bool {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .map(CancelToken::is_cancelled)
            .unwrap_or(false)
    })
}

/// RAII installation of a token as the thread's current one, restoring
/// the previous token on drop (workers interleave jobs from different
/// scopes when helping at nested scope waits).
pub(crate) struct CurrentGuard {
    prev: Option<CancelToken>,
}

impl CurrentGuard {
    pub(crate) fn install(token: Option<CancelToken>) -> Self {
        let prev = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), token));
        CurrentGuard { prev }
    }
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        assert_eq!(t.deadline(), None);
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn explicit_cancel_fires_all_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(t.is_cancelled());
        assert!(c.is_cancelled());
        assert_eq!(c.reason(), Some(CancelReason::Explicit));
        // Idempotent.
        c.cancel();
        assert_eq!(t.reason(), Some(CancelReason::Explicit));
    }

    #[test]
    fn past_deadline_fires_with_deadline_reason() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
        assert_eq!(t.remaining(), Some(Duration::ZERO));
        // An explicit cancel after the deadline fired keeps the reason.
        t.cancel();
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn future_deadline_stays_live_until_it_passes() {
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn reason_reports_deadline_without_prior_poll() {
        // reason() itself must notice an expired deadline.
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn current_guard_nests_and_restores() {
        assert!(current_cancel_token().is_none());
        assert!(!cancel_requested());
        let outer = CancelToken::new();
        {
            let _g1 = CurrentGuard::install(Some(outer.clone()));
            assert!(current_cancel_token().is_some());
            assert!(!cancel_requested());
            let inner = CancelToken::new();
            inner.cancel();
            {
                let _g2 = CurrentGuard::install(Some(inner));
                assert!(cancel_requested());
            }
            // Restored to the (live) outer token.
            assert!(!cancel_requested());
            outer.cancel();
            assert!(cancel_requested());
        }
        assert!(current_cancel_token().is_none());
    }
}
