//! Request and response types for the serving layer.
//!
//! Everything here round-trips through the JSON journal, so the shapes
//! follow the workspace serde conventions: named-field structs and
//! payload-free enums (which serialise as plain strings), with `Option`
//! fields for everything that only applies to some outcomes.

use crate::chaos::fnv1a_bytes;
use powerscale_gemm::DtypeTier;
use powerscale_harness::Algorithm;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One multiply job submitted to the server: a square GEMM of dimension
/// `n`, an algorithm hint, a numeric tier, an optional latency budget and
/// an operand seed. Two specs with the same `n`, tier, algorithm and
/// `seed` multiply bitwise-identical matrices, which is what makes
/// journal replay verifiable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Client-assigned request id; the server's exactly-once guarantee is
    /// keyed on it, so ids must be unique within one serving run.
    pub id: u64,
    /// Square problem dimension.
    pub n: usize,
    /// Requested algorithm. The server may degrade it (recursive →
    /// blocked) under queue pressure; the response records the downgrade.
    pub algorithm: Algorithm,
    /// Requested numeric tier; the server never changes it.
    pub dtype: DtypeTier,
    /// Latency budget in milliseconds, counted from *admission*. `None`
    /// means no deadline. `Some(0)` is rejected at admission as
    /// unmeetable.
    pub deadline_ms: Option<u64>,
    /// Operand-generator seed.
    pub seed: u64,
}

impl JobSpec {
    /// A spec with no deadline, f64 tier, and the operand seed derived
    /// from `id` (distinct requests multiply distinct matrices).
    pub fn new(id: u64, n: usize, algorithm: Algorithm) -> Self {
        JobSpec {
            id,
            n,
            algorithm,
            dtype: DtypeTier::F64,
            deadline_ms: None,
            seed: id
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(n as u64),
        }
    }

    /// Sets the numeric tier.
    pub fn with_dtype(self, dtype: DtypeTier) -> Self {
        JobSpec { dtype, ..self }
    }

    /// Sets the latency budget (milliseconds from admission).
    pub fn with_deadline_ms(self, deadline_ms: u64) -> Self {
        JobSpec {
            deadline_ms: Some(deadline_ms),
            ..self
        }
    }

    /// Sets the operand seed explicitly.
    pub fn with_seed(self, seed: u64) -> Self {
        JobSpec { seed, ..self }
    }
}

/// Terminal state of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    /// The product was computed (possibly degraded) within the deadline.
    Completed,
    /// Admission control turned the request away; no work was attempted.
    Rejected,
    /// The request was admitted but could not be completed.
    Failed,
}

/// Why admission control rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The bounded queue (or a zero-capacity queue) had no room — the
    /// request was shed rather than queued beyond the backpressure bound.
    QueueFull,
    /// The deadline was already unmeetable at admission time.
    DeadlineUnmeetable,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RejectReason::QueueFull => "queue full (load shed)",
            RejectReason::DeadlineUnmeetable => "deadline unmeetable at admission",
        })
    }
}

/// Why an admitted request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailReason {
    /// Every attempt (1 + retry budget) panicked.
    WorkerPanic,
    /// The deadline passed — while queued, or mid-execution (the
    /// cancellation token fired and the partial result was discarded).
    DeadlineExceeded,
}

/// Which rung of the degradation ladder a request was served at.
///
/// Under pressure the server gives up the *algorithm* hint (recursive
/// algorithms fall back to blocked DGEMM, which needs no task tree and
/// has the best latency at small n). That is the one rung: demoting f64
/// to mixed would cost precision and save no time, because mixed runs the
/// f64 kernel on operands rounded through f32. Shedding is the rung below
/// it — degradation exists precisely to delay it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradeStep {
    /// Recursive algorithm hint replaced with blocked DGEMM.
    Algorithm,
}

/// The server's answer to one request. Exactly one `Response` exists per
/// admitted request, even across a crash and journal-recovered restart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Echo of [`JobSpec::id`].
    pub id: u64,
    /// Terminal state.
    pub status: Status,
    /// Set when `status` is [`Status::Rejected`].
    pub reject: Option<RejectReason>,
    /// Set when `status` is [`Status::Failed`].
    pub failure: Option<FailReason>,
    /// Human-readable failure detail (panic message, deadline diagnosis).
    pub error: Option<String>,
    /// Execution attempts consumed (0 for rejected requests, 1 = first
    /// try succeeded).
    pub attempts: u32,
    /// The degradation rung the request was served at, if any.
    pub degraded: Option<DegradeStep>,
    /// Wall-clock milliseconds of the successful attempt.
    pub wall_ms: Option<f64>,
    /// Milliseconds spent waiting in the admission queue (admission →
    /// executor pickup). Previously this wait was invisible: `wall_ms`
    /// only times the multiply, so nothing attributed queue time.
    pub queued_ms: Option<f64>,
    /// Milliseconds from executor pickup to the terminal outcome —
    /// every attempt plus retry backoff, the service-time complement of
    /// `queued_ms`. `queued_ms + exec_ms` is the request's full latency
    /// from admission.
    pub exec_ms: Option<f64>,
    /// Model-estimated package joules for the successful attempt: the
    /// profile's package watts times the attempt's measured wall time.
    pub joules: Option<f64>,
    /// FNV-1a hash over the result's f64 bit patterns — lets a resumed
    /// run prove bit-consistency against an uninterrupted one without
    /// shipping the matrix.
    pub checksum: Option<u64>,
}

impl Response {
    /// A rejection (never admitted, no attempts).
    pub fn rejected(id: u64, reason: RejectReason) -> Self {
        Response {
            id,
            status: Status::Rejected,
            reject: Some(reason),
            failure: None,
            error: Some(reason.to_string()),
            attempts: 0,
            degraded: None,
            wall_ms: None,
            queued_ms: None,
            exec_ms: None,
            joules: None,
            checksum: None,
        }
    }

    /// A failure after `attempts` tries.
    pub fn failed(id: u64, reason: FailReason, attempts: u32, error: String) -> Self {
        Response {
            id,
            status: Status::Failed,
            reject: None,
            failure: Some(reason),
            error: Some(error),
            attempts,
            degraded: None,
            wall_ms: None,
            queued_ms: None,
            exec_ms: None,
            joules: None,
            checksum: None,
        }
    }
}

/// FNV-1a over the bit patterns of a slice of doubles — the checksum the
/// journal uses to compare results across process restarts.
pub fn checksum_f64(values: &[f64]) -> u64 {
    fnv1a_bytes(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = JobSpec::new(7, 128, Algorithm::Strassen)
            .with_dtype(DtypeTier::Mixed)
            .with_deadline_ms(250);
        let json = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn response_round_trips_with_optional_fields_absent() {
        let r = Response::rejected(3, RejectReason::QueueFull);
        let json = serde_json::to_string(&r).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        assert_eq!(back.status, Status::Rejected);
    }

    #[test]
    fn distinct_ids_get_distinct_operand_seeds() {
        let a = JobSpec::new(1, 64, Algorithm::Blocked);
        let b = JobSpec::new(2, 64, Algorithm::Blocked);
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn checksum_is_order_sensitive_and_stable() {
        let x = checksum_f64(&[1.0, 2.0, 3.0]);
        assert_eq!(x, checksum_f64(&[1.0, 2.0, 3.0]));
        assert_ne!(x, checksum_f64(&[3.0, 2.0, 1.0]));
        assert_ne!(checksum_f64(&[0.0]), checksum_f64(&[-0.0]));
    }
}
