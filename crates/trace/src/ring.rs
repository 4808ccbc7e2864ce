//! The recorder: per-thread lock-free rings plus the global session
//! registry. Compiled only with the `enable` feature; the crate root maps
//! every hook to an empty inline function otherwise.
//!
//! Design (mirrors the PR 1 packing-arena discipline — no allocation on
//! the hot path):
//!
//! * Each recording thread owns exactly one [`Ring`]: a fixed-capacity
//!   `Box<[UnsafeCell<MaybeUninit<Record>>]>`, allocated uninitialised,
//!   plus a `head: AtomicUsize`. The owning
//!   thread is the only writer; it stores the record first and then
//!   publishes with `head.store(i + 1, Release)`. Readers (the collector
//!   in [`stop`]) `Acquire`-load `head` and read only slots `< head`, so
//!   a concurrent snapshot is race-free without locking.
//! * A full ring drops *new* records and bumps an atomic drop counter; it
//!   never overwrites captured history, so earlier records stay intact.
//! * Sessions are numbered. A thread's cached ring carries the session id
//!   it was registered under; when the global id moves on, the thread
//!   lazily re-registers. The thread-local holds an `Arc<Ring>` so a ring
//!   can never be freed out from under a writer racing with `stop`.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::model::{Category, Kind, Record, ThreadTrace, Trace};
use crate::TraceConfig;

/// One thread's fixed-capacity event buffer.
pub(crate) struct Ring {
    /// Slots `< head` hold published records; the rest stay uninitialised
    /// until the owner writes them.
    buf: Box<[UnsafeCell<MaybeUninit<Record>>]>,
    /// Number of valid records. Written only by the owning thread.
    head: AtomicUsize,
    dropped: AtomicU64,
    label: String,
}

// SAFETY: `buf` follows the single-writer/Release-Acquire protocol above:
// only the owning thread writes a slot, and only before publishing it, so
// concurrent snapshot reads of slots `< head` are sound; slots at or past
// `head` are never read. `head` and `dropped` are atomics and `label` is
// never mutated after construction.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    fn new(capacity: usize, label: String) -> Self {
        // Uninitialised slots: a large fresh allocation is untouched
        // virtual memory, so a ring costs page faults only for the slots a
        // session fills. Writing all 1 << 20 default slots up front takes
        // tens of ms per thread in a debug build, outside every span.
        let buf: Box<[MaybeUninit<UnsafeCell<MaybeUninit<Record>>>]> =
            Box::new_uninit_slice(capacity);
        // SAFETY: `UnsafeCell<MaybeUninit<Record>>` is valid uninitialised.
        let buf = unsafe { buf.assume_init() };
        Ring {
            buf,
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            label,
        }
    }

    /// Appends one record. Owning thread only. Never blocks, never
    /// allocates; on overflow the record is counted as dropped.
    fn push(&self, rec: Record) {
        let i = self.head.load(Ordering::Relaxed);
        if i >= self.buf.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: only the owning thread writes, and slot `i` is not yet
        // published (readers stop at `head`).
        unsafe { (*self.buf[i].get()).write(rec) };
        self.head.store(i + 1, Ordering::Release);
    }

    /// Snapshot of everything published so far. Safe to call from any
    /// thread, including while the owner is still pushing.
    fn snapshot(&self) -> ThreadTrace {
        let n = self.head.load(Ordering::Acquire);
        // SAFETY: slots `< n` were written, then published with Release,
        // and are never rewritten (overflow drops instead of wrapping).
        let records = (0..n)
            .map(|i| unsafe { (*self.buf[i].get()).assume_init_read() })
            .collect();
        ThreadTrace {
            name: self.label.clone(),
            records,
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

struct SessionInner {
    rings: Vec<Arc<Ring>>,
    capacity: usize,
    start_ns: u64,
}

/// Fast-path gate: one relaxed load decides whether a hook does anything.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Monotone session counter; cached thread rings are keyed by it.
static SESSION_ID: AtomicU64 = AtomicU64::new(0);
static SESSION: Mutex<Option<SessionInner>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// `(session id, ring)` this thread last registered under.
    static LOCAL_RING: RefCell<Option<(u64, Arc<Ring>)>> = const { RefCell::new(None) };
    /// Label applied when this thread registers a ring.
    static THREAD_LABEL: Cell<(&'static str, u32)> = const { Cell::new(("thread", u32::MAX)) };
}

/// Nanoseconds since the process-wide trace epoch (the first call wins the
/// epoch; all threads share it, so timestamps are directly comparable).
pub fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Whether a recording session is currently active.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Names the calling thread for the trace (`label-index`, or just `label`
/// when `index == u32::MAX`). Takes effect at this thread's next ring
/// registration, so call it before the first instrumented work — e.g. at
/// the top of a pool worker loop.
pub fn set_thread_label(label: &'static str, index: u32) {
    THREAD_LABEL.with(|l| l.set((label, index)));
}

/// Starts a session. Returns `false` (leaving the running session alone)
/// if one is already active.
pub fn start(config: TraceConfig) -> bool {
    let mut guard = SESSION.lock().unwrap_or_else(|e| e.into_inner());
    if guard.is_some() {
        return false;
    }
    SESSION_ID.fetch_add(1, Ordering::Relaxed);
    *guard = Some(SessionInner {
        rings: Vec::new(),
        capacity: config.capacity.max(16),
        start_ns: now_ns(),
    });
    ACTIVE.store(true, Ordering::Release);
    true
}

/// Stops the session and collects every thread's records. Returns an
/// empty [`Trace`] if no session was active. Threads that race past the
/// `ACTIVE` flip may still push into their (Arc-held) rings for an
/// instant; such stragglers land after the snapshot and are simply not
/// collected — never a use-after-free.
pub fn stop() -> Trace {
    ACTIVE.store(false, Ordering::Release);
    let inner = {
        let mut guard = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        guard.take()
    };
    let Some(inner) = inner else {
        return Trace::default();
    };
    let end_ns = now_ns();
    let threads = inner.rings.iter().map(|r| r.snapshot()).collect();
    Trace {
        threads,
        start_ns: inner.start_ns,
        end_ns,
    }
}

/// The calling thread's ring for the current session, registering (and
/// allocating — the one cold allocation per thread per session) on first
/// use. `None` when no session is active.
fn with_ring<F: FnOnce(&Ring)>(f: F) {
    if !active() {
        return;
    }
    let session = SESSION_ID.load(Ordering::Relaxed);
    LOCAL_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let stale = match &*slot {
            Some((id, _)) => *id != session,
            None => true,
        };
        if stale {
            let mut guard = SESSION.lock().unwrap_or_else(|e| e.into_inner());
            let Some(inner) = guard.as_mut() else {
                *slot = None;
                return;
            };
            let (label, index) = THREAD_LABEL.with(|l| l.get());
            let name = if index == u32::MAX {
                label.to_string()
            } else {
                format!("{label}-{index}")
            };
            let ring = Arc::new(Ring::new(inner.capacity, name));
            inner.rings.push(Arc::clone(&ring));
            *slot = Some((SESSION_ID.load(Ordering::Relaxed), ring));
        }
        if let Some((_, ring)) = &*slot {
            f(ring);
        }
    });
}

#[inline]
pub(crate) fn push_begin(cat: Category, name: &'static str, arg0: u32, arg1: u32) {
    with_ring(|ring| {
        ring.push(Record {
            ts: now_ns(),
            kind: Kind::Begin {
                name,
                cat,
                arg0,
                arg1,
            },
        })
    });
}

#[inline]
pub(crate) fn push_end() {
    with_ring(|ring| {
        ring.push(Record {
            ts: now_ns(),
            kind: Kind::End,
        })
    });
}

/// Records a point event.
#[inline]
pub fn instant(cat: Category, name: &'static str, arg0: u32) {
    with_ring(|ring| {
        ring.push(Record {
            ts: now_ns(),
            kind: Kind::Instant { name, cat, arg0 },
        })
    });
}

/// Opens an async span: an interval correlated by `(cat, name, id)` that
/// may be closed by [`async_end`] on a *different* thread. Used for
/// cross-thread waits (a request queued on the admission thread, picked
/// up by an executor).
#[inline]
pub fn async_begin(cat: Category, name: &'static str, id: u64) {
    with_ring(|ring| {
        ring.push(Record {
            ts: now_ns(),
            kind: Kind::Async {
                name,
                cat,
                id,
                begin: true,
            },
        })
    });
}

/// Closes the async span opened by [`async_begin`] with the same
/// `(cat, name, id)`.
#[inline]
pub fn async_end(cat: Category, name: &'static str, id: u64) {
    with_ring(|ring| {
        ring.push(Record {
            ts: now_ns(),
            kind: Kind::Async {
                name,
                cat,
                id,
                begin: false,
            },
        })
    });
}

/// Records a counter sample (e.g. cumulative joules for a RAPL domain).
#[inline]
pub fn counter(name: &'static str, value: f64) {
    with_ring(|ring| {
        ring.push(Record {
            ts: now_ns(),
            kind: Kind::Counter { name, value },
        })
    });
}
