//! Host facts the result header records and the probes the roofline ratios
//! are read against: core count, cache sizes, sustained copy bandwidth,
//! resident-set high-water mark, and where scratch files may live.

use powerscale::gemm::autotune::host_caches;
use serde::Value;
use std::path::PathBuf;
use std::time::Instant;

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Threads / ranks / executors a timed cell may use: the workloads are
/// written for 2, and never more than the host has cores — wall clock with
/// more load threads than cores measures the scheduler, not the program.
pub fn load_threads() -> usize {
    nproc().min(2)
}

/// The repository root (the benchmark package's parent directory).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// `benchmark/out/`: result files and traces (git-ignored).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `target/benchmark/scratch/<pid>/`: journals and other files the program
/// under test writes; created in set-up, removed before the process exits.
pub fn scratch_dir() -> PathBuf {
    repo_root()
        .join("target/benchmark/scratch")
        .join(std::process::id().to_string())
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes the kernel reports as available, for sizing the stream arrays.
fn mem_available_bytes() -> Option<usize> {
    let info = std::fs::read_to_string("/proc/meminfo").ok()?;
    let kb: usize = info
        .lines()
        .find_map(|l| l.strip_prefix("MemAvailable:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// The commit the checkout is at, read from `.git` without starting a
/// process; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let git = repo_root().join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({reference})")),
    }
}

/// Last-level cache size the blocking autotuner probed.
pub fn llc_bytes() -> usize {
    host_caches().last().map_or(0, |c| c.size_bytes)
}

/// Result of the copy-bandwidth probe.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    /// Sustained copy bandwidth, GB/s (bytes read + bytes written).
    pub gbps: f64,
    /// Size of each of the two arrays.
    pub array_bytes: usize,
    /// Sum of last-level caches the arrays are sized against.
    pub llc_bytes: usize,
}

/// Single-thread copy of an array at least four times the last-level cache
/// (capped at an eighth of available memory; both sizes are reported so a
/// capped probe is visible). Median of `reps` passes after one warm-up.
pub fn stream_probe(reps: usize) -> Stream {
    let llc = llc_bytes();
    let want = (4 * llc).max(64 << 20);
    let cap = mem_available_bytes().map_or(want, |m| m / 8);
    let array_bytes = want.min(cap).max(8 << 20);
    let n = array_bytes / 8;
    let src = vec![1.0f64; n];
    let mut dst = vec![0.0f64; n];
    let mut secs = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let t0 = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        if rep > 0 {
            secs.push(t0.elapsed().as_secs_f64());
        }
    }
    Stream {
        gbps: 2.0 * array_bytes as f64 / crate::stats::median(&secs) / 1e9,
        array_bytes,
        llc_bytes: llc,
    }
}

/// The header every result file carries: enough to tell two runs from
/// different hosts, kernels or seeds apart before comparing them.
pub fn header(seed: u64, seconds: f64, traced: bool) -> Value {
    let kernel = powerscale::gemm::select_kernel();
    let caches = host_caches()
        .iter()
        .map(|c| Value::UInt(c.size_bytes as u64))
        .collect();
    Value::Object(vec![
        ("numbers".into(), Value::String("host".into())),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::Float(seconds)),
        ("traced".into(), Value::Bool(traced)),
        ("nproc".into(), Value::UInt(nproc() as u64)),
        ("load_threads".into(), Value::UInt(load_threads() as u64)),
        ("kernel".into(), Value::String(kernel.name.into())),
        ("cache_bytes".into(), Value::Array(caches)),
        ("git_commit".into(), Value::String(git_commit())),
    ])
}
