//! Thread-local recycling arenas for packing buffers and scratch matrices.
//!
//! The hot paths of the stack — the Goto driver's per-panel packing
//! buffers, and the Strassen/CAPS recursion's quadrant temporaries — used
//! to heap-allocate on every panel / recursion node. This module replaces
//! those allocations with leases drawn from per-thread free lists:
//!
//! * `pack_buf` leases a `Vec<f64>` of at least the requested length;
//! * [`matrix`] / [`matrix_uninit`] lease a [`Matrix`] of an exact shape.
//!
//! Dropping a lease returns the buffer to the current thread's free list,
//! so after one warm-up pass a steady-state workload performs **zero**
//! heap allocations in these paths (asserted by the counting-allocator
//! integration test).
//!
//! # Worker affinity
//!
//! The arenas are plain `thread_local!`s. Pool worker threads
//! ([`powerscale_pool::ThreadPool`]) are persistent for the pool's
//! lifetime, so a thread-local arena *is* a worker-local arena: a task
//! that leases and returns a buffer warms the cache of the worker it ran
//! on, and subsequent tasks scheduled there reuse it without
//! synchronisation. [`powerscale_pool::current_worker_index`] identifies
//! that context (surfaced in [`ArenaStats::worker`]).
//!
//! Retention is bounded: each free list keeps at most a handful of
//! entries ([`PACK_RETAIN`] / [`MATRIX_RETAIN`]); [`clear`] drops
//! everything (tests and memory-pressure hooks).

use powerscale_matrix::Matrix;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Maximum recycled packing buffers kept per thread (the Goto driver needs
/// two per invocation: one B panel and one A panel per in-flight band).
const PACK_RETAIN: usize = 8;

/// Maximum recycled scratch matrices kept per thread. A Winograd node
/// holds up to 18 live leases (7 products, 8 pre-additions, 3 combines)
/// and one root-to-leaf recursion path keeps one node per level live, so
/// the cap covers ~10 levels. Because lease sizes halve per level, the
/// retained bytes stay within a small constant of the top level's
/// footprint even at this count.
const MATRIX_RETAIN: usize = 192;

thread_local! {
    static PACK_FREE: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
    static MATRIX_FREE: RefCell<Vec<Matrix>> = const { RefCell::new(Vec::new()) };
    static COUNTS: RefCell<Counts> = const { RefCell::new(Counts::zero()) };
}

#[derive(Clone, Copy)]
struct Counts {
    pack_hits: u64,
    pack_misses: u64,
    matrix_hits: u64,
    matrix_misses: u64,
}

impl Counts {
    const fn zero() -> Self {
        Counts {
            pack_hits: 0,
            pack_misses: 0,
            matrix_hits: 0,
            matrix_misses: 0,
        }
    }
}

/// A snapshot of the calling thread's arena activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Pack-buffer leases served without allocating.
    pub pack_hits: u64,
    /// Pack-buffer leases that had to allocate (or grow).
    pub pack_misses: u64,
    /// Scratch-matrix leases served without allocating.
    pub matrix_hits: u64,
    /// Scratch-matrix leases that had to allocate.
    pub matrix_misses: u64,
    /// Pool worker index of this thread, when it is a pool worker.
    pub worker: Option<usize>,
}

/// Returns the calling thread's arena statistics.
pub fn stats() -> ArenaStats {
    let c = COUNTS.with(|c| *c.borrow());
    ArenaStats {
        pack_hits: c.pack_hits,
        pack_misses: c.pack_misses,
        matrix_hits: c.matrix_hits,
        matrix_misses: c.matrix_misses,
        worker: powerscale_pool::current_worker_index(),
    }
}

/// Drops every cached buffer on the calling thread and zeroes its
/// statistics.
pub fn clear() {
    PACK_FREE.with(|f| f.borrow_mut().clear());
    MATRIX_FREE.with(|f| f.borrow_mut().clear());
    COUNTS.with(|c| *c.borrow_mut() = Counts::zero());
}

/// `f64` slots per 64-byte cache line: every lease starts on a line
/// boundary, so a packed strip row is whole lines — the kernel's vector
/// loads of a B row never straddle two (measured 7–12% on the tile sweep)
/// and each A row segment packing writes is one line.
const LINE_SLOTS: usize = 8;

/// A leased packing buffer; derefs to a cache-line-aligned `[f64]` of
/// exactly the requested length. Contents beyond what the packer writes
/// are unspecified (stale values from a previous lease) — packing
/// overwrites its entire region.
pub(crate) struct PackBuf {
    buf: Vec<f64>,
    /// Slots skipped to reach the first line boundary (`< LINE_SLOTS`).
    start: usize,
    len: usize,
}

impl Deref for PackBuf {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl DerefMut for PackBuf {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

impl Drop for PackBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        PACK_FREE.with(|f| {
            let mut free = f.borrow_mut();
            if free.len() < PACK_RETAIN {
                free.push(buf);
            } else if let Some(smallest) = free
                .iter_mut()
                .min_by_key(|b| b.capacity())
                .filter(|b| b.capacity() < buf.capacity())
            {
                // Keep the largest PACK_RETAIN buffers so steady state
                // converges instead of thrashing between sizes.
                *smallest = buf;
            }
        });
    }
}

/// Leases a cache-line-aligned packing buffer of length `min_len` from the
/// thread-local arena, allocating only when no cached buffer is large
/// enough.
pub(crate) fn pack_buf(min_len: usize) -> PackBuf {
    // Room to slide the start up to the next line boundary.
    let need = min_len + LINE_SLOTS - 1;
    let mut buf = PACK_FREE.with(|f| {
        let mut free = f.borrow_mut();
        // Best fit: the smallest cached buffer whose capacity suffices;
        // otherwise the largest one (grown below, amortising future hits).
        let pick = free
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= need)
            .min_by_key(|(_, b)| b.capacity())
            .or_else(|| free.iter().enumerate().max_by_key(|(_, b)| b.capacity()))
            .map(|(i, _)| i);
        pick.map(|i| free.swap_remove(i)).unwrap_or_default()
    });
    let hit = buf.capacity() >= need;
    COUNTS.with(|c| {
        let mut c = c.borrow_mut();
        if hit {
            c.pack_hits += 1;
        } else {
            c.pack_misses += 1;
        }
    });
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    // Slots from the allocation's start (8-byte aligned, as `f64`s are) up
    // to the next 64-byte boundary: 0..=7.
    let start = buf.as_ptr().addr().wrapping_neg() / size_of::<f64>() % LINE_SLOTS;
    PackBuf {
        buf,
        start,
        len: min_len,
    }
}

/// A leased scratch [`Matrix`]; derefs to the matrix itself and returns it
/// to the thread-local arena on drop.
pub struct ScratchMatrix {
    m: Option<Matrix>,
}

impl Deref for ScratchMatrix {
    type Target = Matrix;
    fn deref(&self) -> &Matrix {
        self.m.as_ref().expect("matrix present until drop")
    }
}

impl DerefMut for ScratchMatrix {
    fn deref_mut(&mut self) -> &mut Matrix {
        self.m.as_mut().expect("matrix present until drop")
    }
}

impl Drop for ScratchMatrix {
    fn drop(&mut self) {
        if let Some(m) = self.m.take() {
            MATRIX_FREE.with(|f| {
                let mut free = f.borrow_mut();
                if free.len() < MATRIX_RETAIN {
                    free.push(m);
                }
            });
        }
    }
}

/// Leases a zero-filled `rows × cols` scratch matrix (an accumulator).
pub fn matrix(rows: usize, cols: usize) -> ScratchMatrix {
    let mut lease = matrix_uninit(rows, cols);
    lease.view_mut().fill(0.0);
    lease
}

/// Leases a `rows × cols` scratch matrix with **unspecified contents**
/// (stale values from a previous lease). Use for destinations that are
/// fully overwritten, e.g. `ops::add_into` targets.
pub fn matrix_uninit(rows: usize, cols: usize) -> ScratchMatrix {
    let recycled = MATRIX_FREE.with(|f| {
        let mut free = f.borrow_mut();
        let pick = free
            .iter()
            .position(|m| m.rows() == rows && m.cols() == cols);
        pick.map(|i| free.swap_remove(i))
    });
    let hit = recycled.is_some();
    COUNTS.with(|c| {
        let mut c = c.borrow_mut();
        if hit {
            c.matrix_hits += 1;
        } else {
            c.matrix_misses += 1;
        }
    });
    ScratchMatrix {
        m: Some(recycled.unwrap_or_else(|| Matrix::zeros(rows, cols))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_buf_reuses_capacity() {
        clear();
        {
            let b = pack_buf(1000);
            assert_eq!(b.len(), 1000);
        }
        {
            let b = pack_buf(500);
            assert_eq!(b.len(), 500);
            assert_eq!(b.as_ptr() as usize % 64, 0, "leases start on a line");
        }
        let s = stats();
        assert_eq!(s.pack_misses, 1, "second lease must reuse the first buffer");
        assert_eq!(s.pack_hits, 1);
    }

    #[test]
    fn pack_buf_interleaved_leases() {
        clear();
        // The dgemm pattern: a large B buffer held across many A leases.
        let _pb = pack_buf(4096);
        for _ in 0..10 {
            let pa = pack_buf(256);
            assert_eq!(pa.len(), 256);
        }
        let s = stats();
        // First pb and first pa allocate; the nine remaining pa leases hit.
        assert_eq!(s.pack_misses, 2);
        assert_eq!(s.pack_hits, 9);
    }

    #[test]
    fn matrix_recycles_exact_shapes() {
        clear();
        {
            let m = matrix(8, 8);
            assert_eq!((m.rows(), m.cols()), (8, 8));
        }
        {
            let m = matrix(8, 8);
            // Zeroed on lease even when recycled.
            assert_eq!(m.get(3, 3), 0.0);
        }
        {
            // Different shape: a fresh allocation, not a reinterpretation.
            let m = matrix(4, 16);
            assert_eq!((m.rows(), m.cols()), (4, 16));
        }
        let s = stats();
        assert_eq!(s.matrix_hits, 1);
        assert_eq!(s.matrix_misses, 2);
    }

    #[test]
    fn scratch_contents_returned_dirty_and_rezeroed() {
        clear();
        {
            let mut m = matrix(4, 4);
            m.view_mut().fill(7.0);
        }
        let dirty = matrix_uninit(4, 4);
        assert_eq!(dirty.get(0, 0), 7.0, "uninit lease keeps stale contents");
        drop(dirty);
        let zeroed = matrix(4, 4);
        assert_eq!(zeroed.get(0, 0), 0.0);
    }

    #[test]
    fn clear_empties_the_arena() {
        clear();
        drop(pack_buf(64));
        drop(matrix(2, 2));
        clear();
        drop(pack_buf(64));
        assert_eq!(stats().pack_misses, 1);
    }

    #[test]
    fn stats_report_worker_context() {
        // Off-pool threads have no worker index...
        assert_eq!(stats().worker, None);
        // ...pool workers do, and their arenas are their own.
        let pool = powerscale_pool::ThreadPool::new(1);
        let mut worker_stats = None;
        pool.scope(|s| {
            s.spawn(|_| {
                clear();
                drop(pack_buf(128));
                drop(pack_buf(128));
                worker_stats = Some(stats());
            });
        });
        let ws = worker_stats.unwrap();
        assert_eq!(ws.worker, Some(0));
        assert_eq!((ws.pack_misses, ws.pack_hits), (1, 1));
    }
}
