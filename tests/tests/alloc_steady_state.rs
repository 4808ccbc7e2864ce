//! Asserts the zero-allocation steady state of the arena-backed hot paths.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after one
//! warm-up invocation populates the thread-local arenas
//! (`powerscale::gemm::arena`), a second identical invocation must perform
//! **zero** heap allocations in the DGEMM packing path and exactly one in
//! the Strassen recursion (the user-visible result matrix). The fluid
//! simulator's per-request call is held to a fixed allocation budget.
//!
//! Everything runs inside a single `#[test]` so no sibling test's
//! allocations bleed into the counters (the harness runs tests on separate
//! threads, but a single sequential function is unambiguous).

use powerscale::gemm::{arena, dgemm, GemmContext};
use powerscale::machine::{simulate, KernelClass, TaskCost, TaskGraph};
use powerscale::matrix::{Matrix, MatrixGen};
use powerscale::strassen::{self, StrassenConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn steady_state_performs_no_hot_path_allocations() {
    arena::clear();
    let mut gen = MatrixGen::new(17);

    // --- DGEMM: packing buffers come from the arena. -------------------
    let a = gen.paper_operand(96);
    let b = gen.paper_operand(96);
    let mut c = Matrix::zeros(96, 96);
    let ctx = GemmContext::default();
    // Warm-up: populates the thread-local pack-buffer free list.
    dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &ctx).unwrap();
    let warm_stats = arena::stats();
    assert!(warm_stats.pack_misses > 0, "warm-up must touch the arena");

    let (n_allocs, _) =
        allocs_during(|| dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &ctx).unwrap());
    assert_eq!(
        n_allocs, 0,
        "steady-state dgemm must not allocate (arena leases only)"
    );
    let s = arena::stats();
    assert_eq!(
        s.pack_misses, warm_stats.pack_misses,
        "second invocation must be served entirely from the free list"
    );
    assert!(s.pack_hits > warm_stats.pack_hits);

    // --- Strassen: quadrant scratch comes from the arena. --------------
    let cfg = StrassenConfig {
        cutoff: 16,
        ..Default::default()
    };
    let sa = gen.paper_operand(64);
    let sb = gen.paper_operand(64);
    // Warm-up populates the scratch-matrix free list (classic at n=64,
    // cutoff 16 needs 1 + 7 nodes' worth of leases, all returned).
    let warm = strassen::multiply(&sa.view(), &sb.view(), &cfg, None, None).unwrap();

    let (n_allocs, second) =
        allocs_during(|| strassen::multiply(&sa.view(), &sb.view(), &cfg, None, None).unwrap());
    assert_eq!(
        n_allocs, 1,
        "steady-state strassen allocates exactly the result matrix"
    );
    assert_eq!(warm, second);

    // --- Simulator: the per-request power estimate. ---------------------
    // Serving simulates a few independent fluid shares per request
    // (`Harness::profile_power`); the engine's bookkeeping is a fixed set
    // of buffers, not one per task or per event.
    let machine = powerscale::machine::presets::e3_1225();
    for threads in 1..=4 {
        let mut g = TaskGraph::new();
        for _ in 0..threads {
            g.add(
                TaskCost::new(KernelClass::LeafGemm, 1 << 30, 1 << 26, 1 << 10),
                &[],
            );
        }
        let (n_allocs, _) = allocs_during(|| simulate(&g, &machine, threads));
        assert!(
            n_allocs <= 8,
            "simulate on {threads} cores: {n_allocs} allocations"
        );
    }
}
