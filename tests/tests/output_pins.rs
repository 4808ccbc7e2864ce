//! Executed output pins: the FNV-1a-64 of C's bits for blocked DGEMM at
//! explicit blocking, Strassen and CAPS at `paper()`, all on the scalar
//! kernel, at n ∈ {96, 257}, sequentially and on a 2-worker pool; and the
//! hash of one seeded deterministic-scheduler trace.
//!
//! The constants are asserted, not compared run against run: a change
//! that moves a computed bit, or a recorded scheduling decision, fails
//! here and has to change a constant, visibly. The scalar kernel is the
//! one tier every host dispatches, and the blocking is passed as a value
//! (`GemmContext::params`), so the pins hold on any machine.
//!
//! The constants were taken while the pool's deterministic scheduler was
//! still a cargo feature with its own job-finding path, and while the
//! blocking could still come from the environment: folding the two
//! job-finding paths into one must record the same schedule, and passing
//! the blocking as a value must compute the same bits.

use powerscale::cachesim::presets::e3_1225_caches;
use powerscale::caps::CapsConfig;
use powerscale::gemm::{dgemm, scalar_kernel, BlockingParams, Dispatch, GemmContext};
use powerscale::matrix::{Matrix, MatrixGen};
use powerscale::pool::det::DetConfig;
use powerscale::pool::ThreadPool;
use powerscale::strassen::StrassenConfig;
use std::sync::atomic::{AtomicU64, Ordering};

const SIZES: [usize; 2] = [96, 257];

/// FNV-1a-64 over the little-endian bytes of every element's bits.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn hash_matrix(c: &Matrix) -> u64 {
    fnv1a(c.as_slice().iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

fn operands(n: usize) -> (Matrix, Matrix) {
    let mut gen = MatrixGen::new(0x0096_0257 ^ n as u64);
    (gen.paper_operand(n), gen.paper_operand(n))
}

fn scalar() -> Dispatch {
    Dispatch::default().with_kernel(scalar_kernel())
}

/// The scalar tile's host-tuned blocking on the paper's Haswell hierarchy.
fn e3_1225_params() -> BlockingParams {
    let k = scalar_kernel();
    BlockingParams::host_tuned_for_caches_and_tile(&e3_1225_caches(), k.mr, k.nr)
}

/// 136-deep panels: the real host's L1-floor depth, so every product
/// with k > 136 accumulates over several k-panels.
fn deep136_params() -> BlockingParams {
    let k = scalar_kernel();
    BlockingParams {
        mc: 480,
        kc: 136,
        nc: 2048,
        mr: k.mr,
        nr: k.nr,
    }
}

fn blocked(n: usize, params: BlockingParams, pool: Option<&ThreadPool>) -> u64 {
    let (a, b) = operands(n);
    let mut c = Matrix::zeros(n, n);
    let ctx = GemmContext {
        params,
        ..GemmContext::new(scalar(), pool, None)
    };
    dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &ctx).unwrap();
    hash_matrix(&c)
}

fn strassen(n: usize, pool: Option<&ThreadPool>) -> u64 {
    let (a, b) = operands(n);
    let cfg = StrassenConfig {
        dispatch: scalar(),
        ..StrassenConfig::paper()
    };
    let c = powerscale::strassen::multiply(&a.view(), &b.view(), &cfg, pool, None).unwrap();
    hash_matrix(&c)
}

fn caps(n: usize, pool: Option<&ThreadPool>) -> u64 {
    let (a, b) = operands(n);
    let cfg = CapsConfig {
        dispatch: scalar(),
        ..CapsConfig::paper()
    };
    let c = powerscale::caps::multiply(&a.view(), &b.view(), &cfg, pool, None).unwrap();
    hash_matrix(&c)
}

/// Per size in `SIZES`: blocked at the e3_1225 params, blocked at the
/// 136-deep params, Strassen, CAPS. A pool never changes a bit, so the
/// sequential and 2-worker runs share one table.
/// Blocked at n = 96 is one k-panel under both blockings; Strassen and
/// CAPS agree bit for bit.
const PINS: [[u64; 4]; 2] = [
    [
        0x8643_ef18_5227_326c,
        0x8643_ef18_5227_326c,
        0xf19b_6b41_1d6c_b033,
        0xf19b_6b41_1d6c_b033,
    ],
    [
        0xf7b2_71aa_cf00_8657,
        0x975b_d9da_d304_d5a1,
        0x8d8d_6e4c_44f9_8076,
        0x8d8d_6e4c_44f9_8076,
    ],
];

#[test]
fn scalar_outputs_match_their_pins() {
    let pool = ThreadPool::new(2);
    for (i, &n) in SIZES.iter().enumerate() {
        for p in [None, Some(&pool)] {
            let got = [
                blocked(n, e3_1225_params(), p),
                blocked(n, deep136_params(), p),
                strassen(n, p),
                caps(n, p),
            ];
            assert_eq!(got, PINS[i], "n = {n}, pooled = {}", p.is_some());
        }
    }
}

/// The recursive fork-join workload of `crates/pool/tests/det_replay.rs`.
fn workload(pool: &ThreadPool) -> u64 {
    let total = AtomicU64::new(0);
    pool.scope(|s| {
        for i in 0..6u64 {
            let total = &total;
            s.spawn(move |s2| {
                for j in 0..4u64 {
                    s2.spawn(move |_| {
                        total.fetch_add(i * 10 + j, Ordering::Relaxed);
                    });
                }
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    total.load(Ordering::Relaxed)
}

/// FNV-1a-64 of `DetTrace::to_bytes()` for the workload on 4 workers
/// under `DetConfig::chaotic(0xC0FFEE)`.
const DET_TRACE_PIN: u64 = 0x5973_ec85_a770_e1b1;

#[test]
fn seeded_schedule_trace_matches_its_pin() {
    let pool = ThreadPool::new(4);
    let (_, trace) = pool.run_deterministic(&DetConfig::chaotic(0xC0FFEE), || workload(&pool));
    let got = fnv1a(trace.to_bytes());
    assert_eq!(got, DET_TRACE_PIN);
}
