//! The fault-tolerant serving loop: admission → (degraded) plan →
//! journaled execution with deadlines, retries and cancellation.
//!
//! One request's lifecycle:
//!
//! ```text
//! submit ──▶ admission control ──▶ Rejected (QueueFull | DeadlineUnmeetable)
//!                │
//!                ▼ (plan frozen: degradation ladder applied by pressure)
//!            journal: pending ──▶ queued ──▶ popped in a same-shape batch
//!                │
//!                ▼
//!            execute under a CancelToken (deadline) with catch_unwind
//!                │           │                │
//!                ▼           ▼                ▼
//!            Completed    Failed/Deadline   panic → backoff → retry
//!            (journal: done)               (budget exhausted → Failed)
//! ```
//!
//! # One loop
//!
//! Every drain runs the same loop at every executor count: the pool is
//! partitioned into `G = executors` contiguous worker groups
//! ([`crate::placement::partition`]; at `G = 1` one group spans the
//! pool) and G executor threads drain the queue, each in-flight request
//! confined to its executor's group so requests don't steal each other's
//! workers.
//!
//! Admission has two contracts, and both hold at every `G`:
//!
//! * [`Server::submit`] admits against the queue as it stands: a full
//!   queue sheds (`QueueFull`) and pressure past the watermarks degrades
//!   the frozen plan. [`Server::drain`] then serves what was admitted.
//!   Workloads that rely on pressure semantics (shedding, degraded
//!   plans) submit everything, then drain.
//! * [`Server::run`] pipelines admission with execution and *paces* its
//!   front thread below the degradation watermark instead of shedding
//!   (the pipelined analogue of a client pacing in chunks), so it never
//!   sheds and never degrades.
//!
//! The bitwise guarantee is **per frozen plan**: a request executes its
//! frozen plan bit-identically at any executor count, because the
//! algorithms are schedule-invariant.
//!
//! Placement is size-aware: a request only gets
//! `placement::slot_width` workers — the strong-scaling cap
//! `ceil(n / mc)` clamped to its group — and a width-1 request takes the
//! **batched small-GEMM fast path**: the multiply runs inline (no
//! cross-thread handoff), and a homogeneous batch is spread
//! one-request-per-group-slot under a single pool scope so spawn/steal
//! overhead is paid once per batch. With `G > 1`, retry backoff, operand
//! generation and journal I/O overlap with other executors' work, which
//! pays off even on few cores.
//!
//! # Concurrency discipline
//!
//! * The queue lives under one mutex for the server's whole life;
//!   executors block on a condvar for work, and `run`'s pacing front
//!   thread blocks on another for space.
//! * The journal's write-ahead (pending) line is appended **under the
//!   queue lock, before the push** — an executor can therefore never
//!   complete a request (and append its done line) before the pending
//!   line exists, so on resume the done line always wins. Each line is
//!   one append under the journal's file lock. The dedup map (`known`)
//!   is only touched by the admitting thread.
//! * The `closed`/`halted` flags flip **under the queue mutex** before
//!   their condvars are broadcast: a waiter that read the old value
//!   while holding the lock cannot reach its wait before the flipping
//!   thread releases it, so the notification can never fire into the
//!   check-then-wait gap (the classic lost wakeup).
//! * Kernel selection is not shared state: every multiply carries the
//!   [`powerscale_gemm::Dispatch`] derived from its job's frozen
//!   `plan.dtype` ([`Harness::multiply`]), so executors — and the pool
//!   workers of a batched scope — run different tiers at the same instant
//!   without coordinating.
//! * `halt_after` hands out completion tickets from an atomic counter:
//!   exactly the first `h` finalized requests are recorded and returned,
//!   later ones are discarded un-journaled (they "die with the process"),
//!   which keeps crash simulation exact under concurrency.
//! * A failed journal append trips the same halt: a request whose pending
//!   line failed is not queued, a response whose done line failed is not
//!   returned (its pending line replays on resume).
//!
//! Fault isolation is a `catch_unwind` perimeter per attempt; deadline
//! enforcement reuses the pool's cooperative [`CancelToken`] protocol
//! (checked at spawn, steal and leaf boundaries), so an expired request
//! stops consuming its group within one leaf tile.

use crate::chaos::ChaosConfig;
use crate::journal::{Journal, JournalError, JournalRecord, ServeManifest};
use crate::placement;
use crate::queue::{Admitted, BoundedQueue, ExecPlan};
use crate::request::{
    checksum_f64, DegradeStep, FailReason, JobSpec, RejectReason, Response, Status,
};
use powerscale_counters::EventSet;
use powerscale_gemm::DtypeTier;
use powerscale_harness::{Algorithm, Harness, RunSpec};
use powerscale_matrix::{Matrix, MatrixGen};
use powerscale_pool::{CancelToken, ThreadPool};
use powerscale_rapl::{model::ModelReader, Domain, EnergyMeter};
use std::collections::HashSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Queue pressure at which recursive algorithm hints degrade to blocked
/// DGEMM; [`Server::run`] paces admission below it.
const DEGRADE_WATERMARK: f64 = 0.5;
/// Queue pressure at which f64 additionally degrades to mixed.
const PRECISION_WATERMARK: f64 = 0.85;

/// Knobs for one serving run.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Workload/chaos master seed; also binds the journal manifest.
    pub seed: u64,
    /// Executor pool width.
    pub threads: usize,
    /// Executor threads G (in-flight requests): the pool is partitioned
    /// into G worker groups, one executor each. Clamped to
    /// `[1, threads]`; every G runs the same loop and admission contracts
    /// (see the module docs). Not part of the journal manifest: a *frozen
    /// plan* executes bit-identically at any executor count (the
    /// algorithms are schedule-invariant bitwise), so a journal written
    /// at one G resumes correctly at another.
    pub executors: usize,
    /// Admission queue bound (0 = shed everything).
    pub capacity: usize,
    /// Max same-shape jobs per executor batch.
    pub batch: usize,
    /// Extra attempts after a panicked one (0 = single attempt).
    pub retries: u32,
    /// Base retry backoff in milliseconds (doubles per retry, capped).
    pub backoff_ms: u64,
    /// Fault-injection plan; `None` serves cleanly.
    pub chaos: Option<ChaosConfig>,
    /// Write-ahead journal directory; `None` disables journaling.
    pub journal_dir: Option<PathBuf>,
    /// Recover a previous run's journal instead of starting fresh.
    pub resume: bool,
    /// Stop serving after this many completions — simulates a crash
    /// mid-drain for the journal-recovery tests.
    pub halt_after: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            seed: 2015,
            threads: 4,
            executors: 1,
            capacity: 64,
            batch: 8,
            retries: 2,
            backoff_ms: 1,
            chaos: None,
            journal_dir: None,
            resume: false,
            halt_after: None,
        }
    }
}

/// Lifecycle counters for one serving run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests offered to `submit` (including duplicates of known ids).
    pub submitted: u64,
    /// Requests that passed admission control.
    pub admitted: u64,
    /// Admitted requests served to completion (this process).
    pub completed: u64,
    /// Requests shed because the queue was full.
    pub shed: u64,
    /// Requests rejected for an unmeetable deadline.
    pub rejected_deadline: u64,
    /// Admitted requests served at a degraded rung.
    pub degraded: u64,
    /// Retry attempts consumed after panics.
    pub retried: u64,
    /// Requests failed after exhausting the retry budget.
    pub failed_panics: u64,
    /// Requests failed on a deadline (in queue or mid-execution).
    pub failed_deadline: u64,
    /// Responses recovered whole from the journal on resume.
    pub recovered: u64,
    /// Pending journal records re-enqueued for replay on resume.
    pub replayed: u64,
}

impl ServeStats {
    /// Folds an executor thread's execution-side counters into this
    /// (admission-side counters stay with the front thread).
    fn absorb_exec(&mut self, other: &ServeStats) {
        self.completed += other.completed;
        self.retried += other.retried;
        self.failed_panics += other.failed_panics;
        self.failed_deadline += other.failed_deadline;
    }
}

/// Outcome of one execution attempt.
enum Attempt {
    /// The multiply finished before the deadline.
    Done {
        result: Matrix,
        wall: f64,
        watts: f64,
    },
    /// The cancellation token fired mid-run; the partial result was
    /// discarded.
    DeadlineExceeded { wall: f64 },
}

/// How one request's multiply runs inside its executor's group.
#[derive(Debug, Clone, Copy)]
enum ExecMode {
    /// Width-1 slot: inline on the current thread, no handoff (the
    /// small-GEMM fast path).
    Inline,
    /// Width > 1 slot: the root task is addressed at worker `home`
    /// (its group's first worker); fan-out prefers that group.
    Grouped { home: usize, width: usize },
}

/// The server as the executor threads see it.
struct ExecEnv<'a> {
    cfg: &'a ServerConfig,
    harness: &'a Harness,
    pool: &'a ThreadPool,
    journal: Option<&'a Journal>,
    shared: &'a Shared,
}

/// The queue and its synchronisation, held by the server for its whole
/// life and shared by the admitting thread and the executors.
struct Shared {
    queue: Mutex<BoundedQueue>,
    /// Executors wait here for work.
    work: Condvar,
    /// Pacing admission waits here for the queue to fall below the
    /// degradation watermark.
    space: Condvar,
    /// No further admissions will arrive in this drain; executors exit
    /// once the queue is empty.
    closed: AtomicBool,
    /// The `halt_after` crash point fired, or a journal append failed.
    halted: AtomicBool,
    /// Completion tickets (see the module docs' halt discipline).
    served: AtomicUsize,
}

impl Shared {
    /// Raises `closed` or `halted` under the queue mutex, then wakes every
    /// waiter (the lost-wakeup discipline in the module docs).
    fn raise(&self, flag: &AtomicBool) {
        let q = self.queue.lock().unwrap();
        flag.store(true, Ordering::SeqCst);
        drop(q);
        self.work.notify_all();
        self.space.notify_all();
    }
}

/// Admission-side state: only the admitting thread touches it (the
/// caller of `submit`, or `run`'s front thread while executors drain).
#[derive(Default)]
struct Front {
    /// Every id admitted, rejected or recovered from the journal.
    known: HashSet<u64>,
    stats: ServeStats,
    done: Vec<Response>,
}

/// What admission does with a request when the queue is at its limit.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OnFull {
    /// Reject it with `QueueFull` ([`Server::submit`]).
    Shed,
    /// Wait for the executors to pull the queue below the degradation
    /// watermark ([`Server::run`]'s front thread).
    Pace,
}

/// Best-effort panic payload extraction.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The degradation ladder, applied at admission so the plan is frozen in
/// the write-ahead record (a replay after a crash must not re-decide
/// under different pressure — that would change the result's bits).
fn resolve_plan(pressure: f64, spec: &JobSpec) -> ExecPlan {
    let mut algorithm = spec.algorithm;
    let mut dtype = spec.dtype;
    let mut step = None;
    if pressure >= DEGRADE_WATERMARK && algorithm != Algorithm::Blocked {
        algorithm = Algorithm::Blocked;
        step = Some(DegradeStep::Algorithm);
    }
    if pressure >= PRECISION_WATERMARK && dtype == DtypeTier::F64 {
        dtype = DtypeTier::Mixed;
        step = Some(match step {
            Some(DegradeStep::Algorithm) => DegradeStep::Full,
            _ => DegradeStep::Precision,
        });
    }
    ExecPlan {
        algorithm,
        dtype,
        degraded: step,
    }
}

impl Front {
    /// The one admission path: dedup, the zero-deadline rejection, the
    /// degradation ladder, the write-ahead record under the queue lock,
    /// the push. Returns the immediate rejection when one is issued (also
    /// recorded in the response set). A paced request the crash point
    /// overtakes while it waits, or whose write-ahead append fails, dies
    /// with the process.
    fn admit(&mut self, env: &ExecEnv<'_>, spec: JobSpec, on_full: OnFull) -> Option<Response> {
        self.stats.submitted += 1;
        if !self.known.insert(spec.id) {
            return None;
        }
        if spec.deadline_ms == Some(0) {
            self.stats.rejected_deadline += 1;
            return Some(self.reject(spec.id, RejectReason::DeadlineUnmeetable));
        }
        let shared = env.shared;
        let mut q = shared.queue.lock().unwrap();
        let cap = q.capacity();
        if on_full == OnFull::Pace && cap > 0 {
            let mark = ((cap as f64 * DEGRADE_WATERMARK).ceil() as usize).clamp(1, cap);
            while q.len() >= mark {
                if shared.halted.load(Ordering::SeqCst) {
                    return None;
                }
                q = shared.space.wait(q).unwrap();
            }
        }
        if !q.has_room() {
            self.stats.shed += 1;
            return Some(self.reject(spec.id, RejectReason::QueueFull));
        }
        let plan = resolve_plan(q.pressure(), &spec);
        // Write-ahead ordering: the pending line must precede the done
        // line, so it is appended before the request can be popped.
        if let Some(journal) = env.journal {
            if journal
                .record_admitted(&JournalRecord::pending(spec, plan))
                .is_err()
            {
                drop(q);
                shared.raise(&shared.halted);
                return None;
            }
        }
        q.try_push(spec, plan).expect("room was checked");
        powerscale_trace::async_begin(powerscale_trace::Category::Serve, "serve:queued", spec.id);
        drop(q);
        shared.work.notify_one();
        self.stats.admitted += 1;
        if plan.degraded.is_some() {
            self.stats.degraded += 1;
        }
        None
    }

    fn reject(&mut self, id: u64, reason: RejectReason) -> Response {
        let resp = Response::rejected(id, reason);
        self.done.push(resp.clone());
        resp
    }
}

/// The serving engine. See the module docs for the lifecycle.
pub struct Server {
    cfg: ServerConfig,
    harness: Harness,
    pool: ThreadPool,
    journal: Option<Journal>,
    shared: Shared,
    front: Front,
}

impl Server {
    /// Builds a server (and recovers the journal when `cfg.resume`).
    pub fn new(cfg: ServerConfig) -> Result<Self, JournalError> {
        let pool = ThreadPool::new(cfg.threads.max(1));
        let mut queue = BoundedQueue::new(cfg.capacity);
        let mut front = Front::default();
        let mut journal = None;
        if let Some(dir) = &cfg.journal_dir {
            let manifest = ServeManifest {
                seed: cfg.seed,
                capacity: cfg.capacity,
                threads: cfg.threads,
            };
            let (opened, records) = match cfg.resume {
                true => Journal::resume(dir, &manifest)?,
                false => (Journal::create(dir, &manifest)?, Vec::new()),
            };
            for rec in records {
                front.known.insert(rec.spec.id);
                match rec.response {
                    Some(resp) => {
                        front.stats.recovered += 1;
                        front.done.push(resp);
                    }
                    None => {
                        front.stats.replayed += 1;
                        queue.push_replay(rec.spec, rec.plan());
                        powerscale_trace::async_begin(
                            powerscale_trace::Category::Serve,
                            "serve:queued",
                            rec.spec.id,
                        );
                    }
                }
            }
            journal = Some(opened);
        }
        Ok(Server {
            cfg,
            harness: Harness::default(),
            pool,
            journal,
            shared: Shared {
                queue: Mutex::new(queue),
                work: Condvar::new(),
                space: Condvar::new(),
                closed: AtomicBool::new(false),
                halted: AtomicBool::new(false),
                served: AtomicUsize::new(0),
            },
            front,
        })
    }

    /// Lifecycle counters so far.
    pub fn stats(&self) -> &ServeStats {
        &self.front.stats
    }

    /// True once the `halt_after` crash point or a failed journal append halted serving.
    pub fn halted(&self) -> bool {
        self.shared.halted.load(Ordering::SeqCst)
    }

    /// The first journal append that failed, which halted the server.
    pub fn journal_error(&self) -> Option<JournalError> {
        self.journal.as_ref()?.error()
    }

    /// Offers a request to admission control against the queue as it
    /// stands: a full queue sheds, pressure degrades the frozen plan.
    /// Returns the immediate rejection when one is issued (also recorded
    /// in the response set); `None` means the request was queued, failed
    /// its write-ahead append, or is already known from the journal
    /// (recovered/replayed) and needs no re-admission, which is what
    /// makes blind resubmission after a restart exactly-once.
    pub fn submit(&mut self, spec: JobSpec) -> Option<Response> {
        let (env, front) = self.split();
        front.admit(&env, spec, OnFull::Shed)
    }

    /// Serves queued requests until the queue is empty (or the
    /// `halt_after` crash point fires).
    pub fn drain(&mut self) {
        self.serve(std::iter::empty());
    }

    /// Serves a workload and returns all responses (including
    /// journal-recovered ones) ordered by request id.
    ///
    /// Admission is **pipelined** with execution: this thread admits
    /// while the executors drain, pacing itself below the degradation
    /// watermark instead of shedding, so `run` never sheds and never
    /// degrades. Callers that want raw shed/degrade admission submit
    /// explicitly and call [`Server::drain`].
    pub fn run(&mut self, specs: impl IntoIterator<Item = JobSpec>) -> Vec<Response> {
        self.serve(specs);
        self.take_responses()
    }

    /// Removes and returns every accumulated response, ordered by id.
    pub fn take_responses(&mut self) -> Vec<Response> {
        let mut out = std::mem::take(&mut self.front.done);
        out.sort_by_key(|r| r.id);
        out
    }

    /// The executors' view of the server, beside the admission state the
    /// front thread mutates while they run.
    fn split(&mut self) -> (ExecEnv<'_>, &mut Front) {
        let env = ExecEnv {
            cfg: &self.cfg,
            harness: &self.harness,
            pool: &self.pool,
            journal: self.journal.as_ref(),
            shared: &self.shared,
        };
        (env, &mut self.front)
    }

    /// The one serve loop: G executor threads over G pool groups drain the
    /// queue while `specs` are admitted, paced, on this thread.
    fn serve(&mut self, specs: impl IntoIterator<Item = JobSpec>) {
        let ranges = placement::partition(self.cfg.threads, self.cfg.executors);
        let (env, front) = self.split();
        // The layout goes on the server's own pool and its guard ends
        // with this drain, so no other layout can be installed here.
        let _groups = env
            .pool
            .try_install_groups(&ranges, false)
            .expect("the server's pool carries no other group layout");
        env.shared.closed.store(false, Ordering::SeqCst);
        let collected: Vec<(ServeStats, Vec<Response>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .into_iter()
                .enumerate()
                .map(|(e, range)| {
                    let env = &env;
                    scope.spawn(move || executor_loop(e, range, env))
                })
                .collect();
            for spec in specs {
                if env.shared.halted.load(Ordering::SeqCst) {
                    // Crash simulation: un-admitted clients die with the
                    // process and come back via blind resubmission.
                    break;
                }
                front.admit(&env, spec, OnFull::Pace);
            }
            env.shared.raise(&env.shared.closed);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (exec_stats, responses) in collected {
            front.stats.absorb_exec(&exec_stats);
            front.done.extend(responses);
        }
    }
}

/// One executor thread: pop a same-shape batch, place it by width, serve
/// it, finalize (tickets + journal), repeat until closed or halted.
fn executor_loop(e: usize, range: Range<usize>, env: &ExecEnv<'_>) -> (ServeStats, Vec<Response>) {
    powerscale_trace::set_thread_label("serve-exec", e as u32);
    let shared = env.shared;
    let mut stats = ServeStats::default();
    let mut out = Vec::new();
    let batch_max = env.cfg.batch.max(1);
    'serve: loop {
        let batch = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if shared.halted.load(Ordering::SeqCst) {
                    break 'serve;
                }
                if !q.is_empty() {
                    break q.pop_batch(batch_max);
                }
                if shared.closed.load(Ordering::SeqCst) {
                    break 'serve;
                }
                q = shared.work.wait(q).unwrap();
            }
        };
        shared.space.notify_all();
        let group_width = range.len();
        // Placement follows each job's own tile: `mc` comes from the
        // kernel its frozen tier dispatches, not from one process-wide
        // kernel (a batch is shape-homogeneous but may mix tiers).
        let widths: Vec<usize> = batch
            .iter()
            .map(|job| {
                let kernel = powerscale_gemm::select_kernel_for(job.plan.dtype);
                let mc = powerscale_gemm::BlockingParams::autotuned_for(kernel).mc;
                placement::slot_width(job.spec.n, mc, group_width)
            })
            .collect();
        if group_width > 1 && batch.len() > 1 && widths.iter().all(|&w| w <= 1) {
            // Batched small-GEMM fast path: the whole homogeneous batch
            // under ONE pool scope, one request per group slot (round
            // robin over the group's workers), each multiply inline on
            // its slot — spawn/steal overhead amortized over the batch.
            // Frozen tiers may differ between slots (e.g. journal replay
            // of degraded plans next to fresh F64 admissions); each slot
            // dispatches its own.
            let mut slots: Vec<(ServeStats, Option<Response>)> = batch
                .iter()
                .map(|_| (ServeStats::default(), None))
                .collect();
            env.pool.scope(|s| {
                for (k, (job, slot)) in batch.iter().zip(slots.iter_mut()).enumerate() {
                    let worker = range.start + k % group_width;
                    s.spawn_in(worker, move |_| {
                        let resp = serve_one(env, ExecMode::Inline, job, &mut slot.0);
                        slot.1 = Some(resp);
                    });
                }
            });
            for (job, (slot_stats, resp)) in batch.iter().zip(slots) {
                stats.absorb_exec(&slot_stats);
                if let Some(resp) = resp {
                    finalize(env, job, resp, &mut out);
                }
            }
        } else {
            for (job, width) in batch.iter().zip(widths) {
                if shared.halted.load(Ordering::SeqCst) {
                    // The rest of the batch dies with the simulated
                    // crash; pending records survive for replay.
                    break;
                }
                let mode = if width <= 1 {
                    ExecMode::Inline
                } else {
                    ExecMode::Grouped {
                        home: range.start,
                        width,
                    }
                };
                let resp = serve_one(env, mode, job, &mut stats);
                finalize(env, job, resp, &mut out);
            }
        }
    }
    (stats, out)
}

/// Completion-ticket finalization (see the module docs' halt
/// discipline): ticket > h ⇒ the response is discarded un-journaled,
/// ticket == h ⇒ recorded, then the crash flag trips everyone.
fn finalize(env: &ExecEnv<'_>, job: &Admitted, resp: Response, out: &mut Vec<Response>) {
    let shared = env.shared;
    let ticket = shared.served.fetch_add(1, Ordering::SeqCst) + 1;
    if let Some(h) = env.cfg.halt_after {
        if ticket > h {
            return;
        }
        if ticket == h {
            shared.raise(&shared.halted);
        }
    }
    if let Some(journal) = env.journal {
        let mut rec = JournalRecord::pending(job.spec, job.plan);
        rec.response = Some(resp.clone());
        if journal.record_done(&rec).is_err() {
            shared.raise(&shared.halted);
            return;
        }
    }
    out.push(resp);
}

/// Full lifecycle of one popped request: deadline token, chaos,
/// catch_unwind isolation, bounded backoff retries. Emits the
/// `serve:queued` (async, cross-thread) and `serve:exec` trace spans and
/// fills the response's `queued_ms`/`exec_ms` split.
fn serve_one(
    env: &ExecEnv<'_>,
    mode: ExecMode,
    job: &Admitted,
    stats: &mut ServeStats,
) -> Response {
    let spec = job.spec;
    let queued_ms = job.admitted_at.elapsed().as_secs_f64() * 1e3;
    powerscale_trace::async_end(powerscale_trace::Category::Serve, "serve:queued", spec.id);
    let _span = powerscale_trace::span_args(
        powerscale_trace::Category::Serve,
        "serve:exec",
        spec.id as u32,
        spec.n as u32,
    );
    let exec_start = Instant::now();
    let finish = |mut resp: Response| -> Response {
        resp.queued_ms = Some(queued_ms);
        resp.exec_ms = Some(exec_start.elapsed().as_secs_f64() * 1e3);
        resp
    };
    let token = match job.deadline() {
        Some(deadline) => CancelToken::with_deadline(deadline),
        None => CancelToken::new(),
    };
    if token.is_cancelled() {
        stats.failed_deadline += 1;
        let mut resp = Response::failed(
            spec.id,
            FailReason::DeadlineExceeded,
            0,
            "deadline expired while queued".to_string(),
        );
        resp.queued_ms = Some(queued_ms);
        return resp;
    }
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let chaos = env.cfg.chaos;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(chaos) = &chaos {
                chaos.maybe_panic(spec.id, attempts);
            }
            run_job(env, mode, job, &token)
        }));
        match outcome {
            Ok(Attempt::Done {
                result,
                wall,
                watts,
            }) => {
                let joules = measure_joules(watts, wall);
                stats.completed += 1;
                return finish(Response {
                    id: spec.id,
                    status: Status::Completed,
                    reject: None,
                    failure: None,
                    error: None,
                    attempts,
                    degraded: job.plan.degraded,
                    wall_ms: Some(wall * 1e3),
                    queued_ms: None,
                    exec_ms: None,
                    joules,
                    checksum: Some(checksum_f64(result.as_slice())),
                });
            }
            Ok(Attempt::DeadlineExceeded { wall }) => {
                stats.failed_deadline += 1;
                return finish(Response::failed(
                    spec.id,
                    FailReason::DeadlineExceeded,
                    attempts,
                    format!(
                        "deadline exceeded after {:.1} ms of attempt {attempts} \
                         (partial result discarded)",
                        wall * 1e3
                    ),
                ));
            }
            Err(payload) => {
                let msg = panic_message(payload);
                if token.is_cancelled() {
                    stats.failed_deadline += 1;
                    return finish(Response::failed(
                        spec.id,
                        FailReason::DeadlineExceeded,
                        attempts,
                        format!("deadline passed during panicked attempt {attempts}: {msg}"),
                    ));
                }
                if attempts > env.cfg.retries {
                    stats.failed_panics += 1;
                    return finish(Response::failed(
                        spec.id,
                        FailReason::WorkerPanic,
                        attempts,
                        format!("retry budget exhausted: {msg}"),
                    ));
                }
                stats.retried += 1;
                let shift = (attempts - 1).min(6);
                let pause = Duration::from_millis(env.cfg.backoff_ms.saturating_mul(1 << shift))
                    .min(Duration::from_millis(100));
                // With G > 1 this sleep overlaps with the other
                // executors' work instead of stalling the loop.
                std::thread::sleep(pause);
            }
        }
    }
}

/// One instrumented attempt: generate operands, multiply under the
/// request's cancellation token at the placement-chosen width, convert
/// the measured event profile into model package watts (the harness
/// real-execution pattern).
fn run_job(env: &ExecEnv<'_>, mode: ExecMode, job: &Admitted, token: &CancelToken) -> Attempt {
    let spec = job.spec;
    let plan = job.plan;
    let mut gen = MatrixGen::new(spec.seed);
    let a = gen.paper_operand(spec.n);
    let b = gen.paper_operand(spec.n);
    let mut set = EventSet::with_all_events();
    set.start().expect("fresh event set");
    let multiply = |pool: Option<&ThreadPool>| {
        env.harness
            .multiply(plan.algorithm, plan.dtype, &a, &b, pool, Some(&set))
    };
    let t0 = Instant::now();
    let (result, width) = match mode {
        ExecMode::Inline => {
            // Small-GEMM fast path: no pool, no handoff. The inline
            // multiply has no steal boundaries to poll, so the deadline
            // is enforced at the attempt boundary (small shapes finish
            // in well under any meaningful budget).
            let r = (!token.is_cancelled()).then(|| multiply(None));
            (r, 1)
        }
        ExecMode::Grouped { home, width } => {
            let mut slot: Option<Matrix> = None;
            env.pool.scope_with_cancel(token, |s| {
                s.spawn_in(home, |_| {
                    slot = Some(multiply(Some(env.pool)));
                });
            });
            // `None` here means the token fired before the root task ran
            // (cancelled at the spawn boundary).
            (slot, width)
        }
    };
    let wall = t0.elapsed().as_secs_f64();
    let profile = set.stop().expect("running event set");
    let result = match result {
        Some(r) if !token.is_cancelled() => r,
        _ => return Attempt::DeadlineExceeded { wall },
    };
    let rspec = RunSpec::new(plan.algorithm, spec.n, width).with_dtype(plan.dtype);
    let watts = env.harness.profile_power(rspec, &profile);
    Attempt::Done {
        result,
        wall,
        watts,
    }
}

/// Model package joules for one served request: a [`ModelReader`]
/// emitting the profile-estimated watts, sampled over the measured
/// wall window, like the harness's measurement path.
fn measure_joules(watts: f64, wall: f64) -> Option<f64> {
    const SAMPLES: usize = 16;
    let dt = wall / SAMPLES as f64;
    let mut reader = ModelReader::from_powers(&[(Domain::Package, watts)]);
    let mut meter = EnergyMeter::start(&mut reader);
    for _ in 0..SAMPLES {
        reader.advance(dt);
        meter.sample(&mut reader);
    }
    meter.finish(&mut reader, wall).joules_for(Domain::Package)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "powerscale-serve-server-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// The journal's records, read the way a restart reads them.
    fn journaled(dir: &std::path::Path, cfg: &ServerConfig) -> Vec<JournalRecord> {
        let manifest = ServeManifest {
            seed: cfg.seed,
            capacity: cfg.capacity,
            threads: cfg.threads,
        };
        Journal::resume(dir, &manifest).unwrap().1
    }

    fn small_cfg() -> ServerConfig {
        ServerConfig {
            threads: 2,
            capacity: 16,
            batch: 4,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn clean_requests_complete_with_energy_and_checksum() {
        let mut s = Server::new(small_cfg()).unwrap();
        let specs = vec![
            JobSpec::new(1, 48, Algorithm::Blocked),
            JobSpec::new(2, 64, Algorithm::Strassen),
            JobSpec::new(3, 64, Algorithm::Caps),
        ];
        let out = s.run(specs);
        assert_eq!(out.len(), 3);
        for r in &out {
            assert_eq!(r.status, Status::Completed, "{r:?}");
            assert_eq!(r.attempts, 1);
            assert!(r.joules.unwrap() > 0.0);
            assert!(r.wall_ms.unwrap() > 0.0);
            assert!(r.checksum.is_some());
            assert!(r.queued_ms.unwrap() >= 0.0, "queue wait must be reported");
            assert!(
                r.exec_ms.unwrap() >= r.wall_ms.unwrap(),
                "service time includes the multiply"
            );
        }
        assert_eq!(s.stats().completed, 3);
        assert_eq!(s.stats().shed, 0);
    }

    #[test]
    fn responses_are_deterministic_across_servers() {
        let specs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec::new(i, 48, Algorithm::Strassen))
            .collect();
        let a = Server::new(small_cfg()).unwrap().run(specs.clone());
        let b = Server::new(small_cfg()).unwrap().run(specs);
        let key = |rs: &[Response]| -> Vec<(u64, Option<u64>)> {
            rs.iter().map(|r| (r.id, r.checksum)).collect()
        };
        assert_eq!(key(&a), key(&b), "same workload must reproduce bitwise");
    }

    #[test]
    fn degradation_ladder_applies_by_pressure() {
        // Capacity 10: request k is admitted at pressure k/10, so the
        // ladder fires at k=5 (algorithm) and k=9 (precision too).
        let cfg = ServerConfig {
            threads: 2,
            capacity: 10,
            ..ServerConfig::default()
        };
        let mut s = Server::new(cfg).unwrap();
        for i in 0..10 {
            s.submit(JobSpec::new(i, 32, Algorithm::Strassen));
        }
        s.drain();
        let out = s.take_responses();
        for r in &out {
            let expect = match r.id {
                0..=4 => None,
                5..=8 => Some(DegradeStep::Algorithm),
                _ => Some(DegradeStep::Full),
            };
            assert_eq!(r.degraded, expect, "request {}", r.id);
            assert_eq!(r.status, Status::Completed);
        }
        assert_eq!(s.stats().degraded, 5);
    }

    #[test]
    fn run_paces_and_submit_sheds_at_every_executor_count() {
        // The two admission contracts hold at every G: `run` paces its
        // front thread below the degradation watermark, submit-all then
        // drain floods the queue and meets the full ladder.
        let specs: Vec<JobSpec> = (0..20)
            .map(|i| JobSpec::new(i, 32, Algorithm::Strassen))
            .collect();
        for executors in [1usize, 2] {
            let cfg = ServerConfig {
                threads: 2,
                executors,
                capacity: 4,
                ..ServerConfig::default()
            };
            let mut paced = Server::new(cfg.clone()).unwrap();
            let out = paced.run(specs.clone());
            assert_eq!(out.len(), specs.len(), "G={executors}");
            assert_eq!(paced.stats().shed, 0, "run must pace, G={executors}");
            assert_eq!(paced.stats().degraded, 0, "G={executors}");
            assert!(out.iter().all(|r| r.status == Status::Completed));

            let mut flooded = Server::new(cfg).unwrap();
            for spec in &specs {
                flooded.submit(*spec);
            }
            flooded.drain();
            assert_eq!(flooded.take_responses().len(), specs.len());
            assert!(flooded.stats().shed > 0, "submit must shed, G={executors}");
            assert!(flooded.stats().degraded > 0, "G={executors}");
        }
    }

    #[test]
    fn uncreatable_journal_dir_is_a_typed_error() {
        // A journal that cannot be created must stop the server, not
        // leave it running un-journaled with nothing to resume from.
        let file = tmpdir("journal-under-file");
        std::fs::write(&file, "a regular file").unwrap();
        let cfg = ServerConfig {
            journal_dir: Some(file.join("journal")),
            ..small_cfg()
        };
        assert!(matches!(
            Server::new(cfg),
            Err(JournalError::Manifest { .. })
        ));
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn full_queue_sheds_with_typed_rejection() {
        let cfg = ServerConfig {
            threads: 1,
            capacity: 2,
            ..ServerConfig::default()
        };
        let mut s = Server::new(cfg).unwrap();
        assert!(s.submit(JobSpec::new(1, 32, Algorithm::Blocked)).is_none());
        assert!(s.submit(JobSpec::new(2, 32, Algorithm::Blocked)).is_none());
        let shed = s.submit(JobSpec::new(3, 32, Algorithm::Blocked)).unwrap();
        assert_eq!(shed.status, Status::Rejected);
        assert_eq!(shed.reject, Some(RejectReason::QueueFull));
        s.drain();
        let out = s.take_responses();
        assert_eq!(out.len(), 3, "shed requests still get exactly one response");
        assert_eq!(s.stats().shed, 1);
    }

    #[test]
    fn shed_requests_leave_no_journal_record() {
        // The write-ahead record is written before the push but only
        // after the room check: a shed request must not be replayable.
        let dir = tmpdir("shed-no-record");
        let cfg = ServerConfig {
            threads: 1,
            capacity: 1,
            journal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let mut s = Server::new(cfg.clone()).unwrap();
        assert!(s.submit(JobSpec::new(1, 32, Algorithm::Blocked)).is_none());
        assert!(s.submit(JobSpec::new(2, 32, Algorithm::Blocked)).is_some());
        let ids: Vec<u64> = journaled(&dir, &cfg).iter().map(|r| r.spec.id).collect();
        assert!(ids.contains(&1));
        assert!(
            !ids.contains(&2),
            "shed request must never reach the journal"
        );
    }

    #[test]
    fn tight_deadlines_fail_with_deadline_reason() {
        let mut s = Server::new(small_cfg()).unwrap();
        let specs = vec![
            JobSpec::new(1, 384, Algorithm::Blocked).with_deadline_ms(1),
            JobSpec::new(2, 384, Algorithm::Blocked).with_deadline_ms(1),
        ];
        let out = s.run(specs);
        for r in &out {
            assert_eq!(r.status, Status::Failed, "{r:?}");
            assert_eq!(r.failure, Some(FailReason::DeadlineExceeded));
        }
        assert_eq!(s.stats().failed_deadline, 2);
    }

    #[test]
    fn chaos_panics_are_retried_to_completion() {
        // Seed picked arbitrarily; with 20% per-attempt panics and a
        // 2-retry budget, 24 requests virtually always include both a
        // clean path and at least one retried request.
        let cfg = ServerConfig {
            threads: 2,
            capacity: 32,
            chaos: Some(ChaosConfig::chaos(99)),
            ..ServerConfig::default()
        };
        let mut s = Server::new(cfg).unwrap();
        let specs: Vec<JobSpec> = (0..24)
            .map(|i| JobSpec::new(i, 32, Algorithm::Blocked))
            .collect();
        let out = s.run(specs);
        assert_eq!(out.len(), 24, "exactly one response per request");
        let retried = out.iter().filter(|r| r.attempts > 1).count();
        assert!(retried > 0, "chaos at 20% must retry someone");
        for r in &out {
            assert!(
                r.status == Status::Completed || r.failure == Some(FailReason::WorkerPanic),
                "{r:?}"
            );
        }
    }

    #[test]
    fn journal_records_every_admitted_request() {
        let dir = tmpdir("journal-basic");
        let cfg = ServerConfig {
            threads: 1,
            capacity: 8,
            journal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let mut s = Server::new(cfg.clone()).unwrap();
        let out = s.run((0..3).map(|i| JobSpec::new(i, 32, Algorithm::Blocked)));
        assert_eq!(out.len(), 3);
        let ids: Vec<u64> = journaled(&dir, &cfg).iter().map(|r| r.spec.id).collect();
        for i in 0..3 {
            assert!(ids.contains(&i));
        }
    }

    #[test]
    fn journal_is_one_file_whatever_the_request_count() {
        for count in [1u64, 40] {
            let dir = tmpdir(&format!("one-file-{count}"));
            let cfg = ServerConfig {
                journal_dir: Some(dir.clone()),
                ..small_cfg()
            };
            let out = Server::new(cfg.clone())
                .unwrap()
                .run((0..count).map(|i| JobSpec::new(i, 32, Algorithm::Blocked)));
            assert_eq!(out.len() as u64, count);
            let names: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            assert_eq!(names, ["journal.log"], "{count} requests");
            assert_eq!(journaled(&dir, &cfg).len() as u64, count);
        }
    }

    #[test]
    fn failed_pending_append_halts_and_queues_nothing() {
        let dir = tmpdir("pending-append-fails");
        let cfg = ServerConfig {
            journal_dir: Some(dir.clone()),
            ..small_cfg()
        };
        let spec = JobSpec::new(1, 32, Algorithm::Blocked);
        let mut s = Server::new(cfg.clone()).unwrap();
        s.journal = Some(crate::journal::tests::full_journal());
        assert!(s.submit(spec).is_none());
        assert!(s.halted());
        assert!(matches!(
            s.journal_error(),
            Some(JournalError::Append { .. })
        ));
        s.drain();
        assert!(s.take_responses().is_empty());
        assert_eq!(s.stats().admitted, 0);

        // Never journaled, so a restart admits it afresh.
        let mut r = Server::new(ServerConfig {
            resume: true,
            ..cfg
        })
        .unwrap();
        assert_eq!((r.stats().recovered, r.stats().replayed), (0, 0));
        let out = r.run([spec]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].status, Status::Completed);
    }

    #[test]
    fn failed_done_append_withholds_the_response_and_replays_it() {
        let dir = tmpdir("done-append-fails");
        let cfg = ServerConfig {
            journal_dir: Some(dir.clone()),
            ..small_cfg()
        };
        let spec = JobSpec::new(1, 32, Algorithm::Blocked);
        let mut s = Server::new(cfg.clone()).unwrap();
        assert!(s.submit(spec).is_none(), "the pending line lands");
        s.journal = Some(crate::journal::tests::full_journal());
        s.drain();
        assert!(s.halted());
        assert!(matches!(
            s.journal_error(),
            Some(JournalError::Append { .. })
        ));
        assert!(
            s.take_responses().is_empty(),
            "an unjournaled response is withheld"
        );

        let mut r = Server::new(ServerConfig {
            resume: true,
            ..cfg
        })
        .unwrap();
        assert_eq!((r.stats().recovered, r.stats().replayed), (0, 1));
        let out = r.run([spec]);
        let clean = Server::new(small_cfg()).unwrap().run([spec]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].status, Status::Completed);
        assert_eq!(out[0].checksum, clean[0].checksum);
    }

    #[test]
    fn concurrent_run_matches_serial_bitwise() {
        // The placement property that matters to clients: whatever the
        // executor count, groups and widths, results are bit-identical
        // to the serial server's (the algorithms are schedule-invariant).
        let specs: Vec<JobSpec> = (0..12)
            .map(|i| JobSpec::new(i, [48, 64, 96][(i % 3) as usize], Algorithm::Strassen))
            .collect();
        let serial = Server::new(ServerConfig {
            threads: 4,
            capacity: 64,
            ..ServerConfig::default()
        })
        .unwrap()
        .run(specs.clone());
        for executors in [2usize, 4] {
            let conc = Server::new(ServerConfig {
                threads: 4,
                executors,
                capacity: 64,
                ..ServerConfig::default()
            })
            .unwrap()
            .run(specs.clone());
            assert_eq!(conc.len(), serial.len(), "G={executors}");
            for (c, s) in conc.iter().zip(&serial) {
                assert_eq!(c.id, s.id);
                assert_eq!(
                    c.checksum, s.checksum,
                    "id {} drifted at G={executors}",
                    c.id
                );
                assert_eq!(c.status, s.status);
            }
        }
    }

    #[test]
    fn concurrent_mixed_dtypes_match_serial_bitwise() {
        // Concurrent jobs whose frozen plans disagree on the tier each
        // carry their own dispatch; no job may execute under its
        // neighbour's tier, or its checksum drifts from serial. Small
        // shapes land in the batched fast path (one batch mixing tiers),
        // the 96s take the per-job path.
        let tiers = [DtypeTier::F64, DtypeTier::Mixed, DtypeTier::F32];
        let specs: Vec<JobSpec> = (0..18)
            .map(|i| {
                JobSpec::new(i, [48, 48, 96][(i % 3) as usize], Algorithm::Blocked)
                    .with_dtype(tiers[(i % tiers.len() as u64) as usize])
            })
            .collect();
        let serial = Server::new(ServerConfig {
            threads: 4,
            capacity: 64,
            ..ServerConfig::default()
        })
        .unwrap()
        .run(specs.clone());
        assert!(
            serial
                .iter()
                .all(|r| r.status == Status::Completed && r.checksum.is_some()),
            "serial baseline must complete"
        );
        for executors in [2usize, 4] {
            let conc = Server::new(ServerConfig {
                threads: 4,
                executors,
                capacity: 64,
                ..ServerConfig::default()
            })
            .unwrap()
            .run(specs.clone());
            assert_eq!(conc.len(), serial.len(), "G={executors}");
            for (c, s) in conc.iter().zip(&serial) {
                assert_eq!(c.id, s.id);
                assert_eq!(
                    c.checksum,
                    s.checksum,
                    "id {} (dtype {:?}) drifted at G={executors}",
                    c.id,
                    tiers[(c.id % tiers.len() as u64) as usize]
                );
            }
        }
    }

    #[test]
    fn batched_small_gemm_mixes_tiers_under_one_scope_bitwise() {
        // Six same-shape, same-operand requests at three tiers, submitted
        // before the drain so one executor pops them as ONE batch: the
        // fast path runs them under a single pool scope, each slot
        // dispatching its own tier.
        let tiers = [DtypeTier::F64, DtypeTier::F32, DtypeTier::Mixed];
        let tier_of = |id: u64| tiers[(id % 3) as usize];
        let specs: Vec<JobSpec> = (0..6)
            .map(|i| {
                JobSpec::new(i, 48, Algorithm::Strassen)
                    .with_seed(7)
                    .with_dtype(tier_of(i))
            })
            .collect();
        let cfg = ServerConfig {
            threads: 4,
            capacity: 64,
            batch: 8,
            ..ServerConfig::default()
        };
        let serial = Server::new(cfg.clone()).unwrap().run(specs.clone());
        let mut conc = Server::new(ServerConfig {
            executors: 2,
            ..cfg
        })
        .unwrap();
        for spec in &specs {
            assert!(conc.submit(*spec).is_none());
        }
        conc.drain();
        assert_eq!(
            conc.pool.stats().total_executed(),
            specs.len() as u64,
            "the batch must take the fast path: one pool task per request"
        );
        let out = conc.take_responses();
        assert_eq!(out.len(), serial.len());
        for (c, s) in out.iter().zip(&serial) {
            assert_eq!(c.status, Status::Completed, "{c:?}");
            assert_eq!(
                (c.id, c.checksum),
                (s.id, s.checksum),
                "{:?}",
                tier_of(c.id)
            );
        }
        // Same operands: checksums agree exactly when the tiers do.
        for (x, y) in out.iter().zip(&out[1..]) {
            assert_ne!(x.checksum, y.checksum, "ids {} and {}", x.id, y.id);
        }
        assert_eq!(out[0].checksum, out[3].checksum);
    }
}
