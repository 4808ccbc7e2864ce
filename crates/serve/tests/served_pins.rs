//! Served-output pins: `checksum_f64` of the responses `Server::run`
//! returns for {Blocked, Strassen, CAPS} × {f64, f32, mixed} at n = 96
//! from one fixed operand seed, asserted against constants rather than
//! run-vs-run. A change that moves a served result's bits fails here and
//! has to change a constant, visibly.
//!
//! The constants were taken from the serving layer as it stood before the
//! journal became one append-only log; the journal must never move a
//! result bit. Served requests run the host's best kernel of their tier,
//! so there are two tables: the SIMD tiers (AVX2 and AVX-512 both fuse
//! the multiply-add in `k` order and agree bit for bit) and the scalar
//! tier (unfused multiply-then-add).

use powerscale_gemm::{select_kernel_for, DtypeTier};
use powerscale_harness::Algorithm;
use powerscale_serve::{JobSpec, Server, ServerConfig, Status};

const N: usize = 96;
const SEED: u64 = 0x5EED_0096;
const ALGORITHMS: [Algorithm; 3] = [Algorithm::Blocked, Algorithm::Strassen, Algorithm::Caps];
const TIERS: [DtypeTier; 3] = [DtypeTier::F64, DtypeTier::F32, DtypeTier::Mixed];

/// Row-major over `ALGORITHMS × TIERS`, on the fused SIMD tiers.
const SIMD_PINS: [u64; 9] = [
    0xf75ec03171217d62,
    0x3ec9b311c3e125b0,
    0xf323a1264226fd64,
    0xbbf36ff4d1fbc314,
    0x9c75792600c64ab2,
    0xd156ba5c2742bf22,
    0xbbf36ff4d1fbc314,
    0x9c75792600c64ab2,
    0xd156ba5c2742bf22,
];

/// Row-major over `ALGORITHMS × TIERS`, on the scalar tier.
const SCALAR_PINS: [u64; 9] = [
    0x20ae3f9474e7e5b6,
    0xbac792a8399980fe,
    0xf323a1264226fd64,
    0x136212a0420757e8,
    0x9f77171070aa128c,
    0xd156ba5c2742bf22,
    0x136212a0420757e8,
    0x9f77171070aa128c,
    0xd156ba5c2742bf22,
];

#[test]
fn served_checksums_match_their_pins() {
    let specs: Vec<JobSpec> = ALGORITHMS
        .iter()
        .flat_map(|&a| TIERS.iter().map(move |&d| (a, d)))
        .enumerate()
        .map(|(id, (a, d))| JobSpec::new(id as u64, N, a).with_dtype(d).with_seed(SEED))
        .collect();
    let cfg = ServerConfig {
        threads: 2,
        capacity: 16,
        ..ServerConfig::default()
    };
    let out = Server::new(cfg).unwrap().run(specs);
    let got: Vec<u64> = out
        .iter()
        .map(|r| {
            assert_eq!(r.status, Status::Completed, "{r:?}");
            assert_eq!(r.degraded, None, "{r:?}");
            r.checksum
                .expect("a completed response carries its checksum")
        })
        .collect();
    let (table, pins) = match select_kernel_for(DtypeTier::F64).isa {
        "scalar" => ("scalar", SCALAR_PINS),
        _ => ("simd", SIMD_PINS),
    };
    let hex = |v: &[u64]| -> Vec<String> { v.iter().map(|c| format!("{c:#018x}")).collect() };
    assert_eq!(
        hex(&got),
        hex(&pins),
        "served checksums moved from the {table} pins (order: algorithm-major over \
         Blocked/Strassen/CAPS × f64/f32/mixed)"
    );
}
