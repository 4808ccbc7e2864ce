//! Deterministic cooperative scheduling.
//!
//! In deterministic mode the pool's workers stop free-running and instead
//! take turns under a token scheduler: exactly one worker executes between
//! *preemption points*, and every scheduling choice — which worker runs
//! next, the order victims are probed in a steal sweep, whether a worker
//! is forced to stall — is drawn from a single seeded [SplitMix64] stream.
//! The preemption points are the sites where a real schedule diverges:
//!
//! * **spawn** — every `push_job`/`push_jobs`/`push_job_to` from a worker
//!   yields the token after publishing the new work, so a freshly spawned
//!   task can be stolen before its parent continues (the untied-task
//!   hand-off window);
//! * **steal** — every find-work sweep runs in a freshly drawn victim
//!   order instead of the fixed ring scan;
//! * **park** — a worker that found nothing reports idle and yields
//!   (workers never sleep on the OS condvar while the mode is active), so
//!   the park/wake race is replaced by an explicit recorded event;
//! * **join** — every iteration of a helping scope-wait yields before
//!   looking for work.
//!
//! Each run records a [`DetTrace`]: the full draw stream plus the decoded
//! event list (grants, steals, rejected strict steals, spawns, idles).
//! Because every decision is a pure function of the seed and the recorded
//! draws, the same seed reproduces the same trace byte-for-byte, and
//! [`replay`](crate::ThreadPool::replay_deterministic) re-runs a schedule
//! by feeding the recorded draw stream back in place of the RNG — a
//! schedule-dependent failure shrinks to a single `u64` seed.
//!
//! The mode is cooperative, not preemptive: it serialises the pool, so it
//! is a correctness instrument (chaos fuzzing, replay debugging), not a
//! performance mode. It is always compiled: outside a run every hook
//! costs the pool one atomic load (`det_on`), as the trace recorder's
//! hooks cost one load outside a session.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;

/// Knobs of one deterministic run. Everything is derived from `seed`; the
/// remaining fields shape how adversarial the schedule is.
///
/// A replay must use the same config as the recording it replays: the
/// trace stores the draw stream, and the config decides how draws are
/// spent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetConfig {
    /// Seed of the SplitMix64 stream behind every scheduling decision.
    pub seed: u64,
    /// Percent chance (0–100), evaluated at each grant, that a fresh
    /// stall is injected on some other worker. A stalled worker sits out
    /// grant decisions until its stall decays (one step per grant),
    /// modelling a descheduled/slow thread.
    pub stall_percent: u8,
    /// Upper bound on the length (in grants) of an injected stall.
    pub max_stall_steps: u32,
    /// Probe cross-group victims *before* same-group ones in every steal
    /// sweep — the adversarial inversion of the production policy, used
    /// to hammer the strict-group put-back path.
    pub cross_group_first: bool,
}

impl DetConfig {
    /// A plain deterministic schedule: seeded decisions, no stalls, the
    /// production same-group-first bias left to the drawn victim order.
    pub fn seeded(seed: u64) -> Self {
        DetConfig {
            seed,
            stall_percent: 0,
            max_stall_steps: 0,
            cross_group_first: false,
        }
    }

    /// An adversarial schedule for chaos fuzzing: frequent bounded worker
    /// stalls, and on odd seeds the steal sweeps probe cross-group
    /// victims first.
    pub fn chaotic(seed: u64) -> Self {
        DetConfig {
            seed,
            stall_percent: 20,
            max_stall_steps: 8,
            cross_group_first: seed & 1 == 1,
        }
    }
}

/// One decoded scheduling event of a deterministic run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetEvent {
    /// The token was granted to `worker` for one scheduling step.
    Grant {
        /// Worker receiving the token.
        worker: u32,
    },
    /// `worker` popped a job from its own deque.
    RunLocal {
        /// Worker that found the job.
        worker: u32,
    },
    /// `worker` drained a job from its own mailbox.
    RunMailbox {
        /// Worker that found the job.
        worker: u32,
    },
    /// `worker` took a job from the global injector.
    RunInjected {
        /// Worker that found the job.
        worker: u32,
    },
    /// `thief` stole a job from `victim` and will execute it.
    Steal {
        /// Worker executing the stolen job.
        thief: u32,
        /// Worker the job was taken from.
        victim: u32,
        /// Whether thief and victim shared a scheduling group.
        in_group: bool,
    },
    /// `thief` caught a job from `victim` but put it back (strict group
    /// boundary): the catch was observed, the execution forbidden.
    StealRejected {
        /// Worker whose steal was rejected.
        thief: u32,
        /// Worker (and mailbox) the job was returned to.
        victim: u32,
    },
    /// `worker` published `count` new jobs on its own deque and yielded.
    Spawn {
        /// Spawning worker.
        worker: u32,
        /// Jobs pushed in the batch.
        count: u32,
    },
    /// `worker` addressed one job at `target`'s mailbox and yielded.
    SpawnTo {
        /// Spawning worker.
        worker: u32,
        /// Worker whose mailbox received the job.
        target: u32,
    },
    /// `worker` was granted the token and found nothing runnable — the
    /// deterministic stand-in for parking.
    Idle {
        /// Worker that reported idle.
        worker: u32,
    },
}

impl DetEvent {
    fn render(&self, out: &mut String) {
        use std::fmt::Write;
        match *self {
            DetEvent::Grant { worker } => writeln!(out, "e grant {worker}"),
            DetEvent::RunLocal { worker } => writeln!(out, "e run-local {worker}"),
            DetEvent::RunMailbox { worker } => writeln!(out, "e run-mailbox {worker}"),
            DetEvent::RunInjected { worker } => writeln!(out, "e run-injected {worker}"),
            DetEvent::Steal {
                thief,
                victim,
                in_group,
            } => writeln!(
                out,
                "e steal {thief} {victim} {}",
                if in_group { "in" } else { "cross" }
            ),
            DetEvent::StealRejected { thief, victim } => {
                writeln!(out, "e steal-rejected {thief} {victim}")
            }
            DetEvent::Spawn { worker, count } => writeln!(out, "e spawn {worker} {count}"),
            DetEvent::SpawnTo { worker, target } => writeln!(out, "e spawn-to {worker} {target}"),
            DetEvent::Idle { worker } => writeln!(out, "e idle {worker}"),
        }
        .expect("writing to a String cannot fail");
    }
}

/// The complete record of one deterministic run: the seed, every random
/// draw spent on scheduling decisions, and the decoded event list.
///
/// Two runs of the same workload with the same seed and config produce
/// byte-identical traces ([`DetTrace::to_bytes`]); replaying a trace
/// reproduces its event list exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetTrace {
    /// Seed the run was driven by.
    pub seed: u64,
    /// Every `u64` drawn for a scheduling decision, in spend order. This
    /// is the replay substrate: decisions are a pure function of this
    /// stream.
    pub draws: Vec<u64>,
    /// Decoded scheduling events, in commit order.
    pub events: Vec<DetEvent>,
}

impl DetTrace {
    /// A stable, versioned byte rendering of the trace — the
    /// byte-identity surface for "same seed, same schedule" assertions
    /// and for writing a trace to disk next to a failing seed.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        out.push_str("powerscale-dettrace v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("draws {}\n", self.draws.len()));
        for d in &self.draws {
            out.push_str(&format!("d {d:016x}\n"));
        }
        out.push_str(&format!("events {}\n", self.events.len()));
        for e in &self.events {
            e.render(&mut out);
        }
        out.into_bytes()
    }

    /// Number of token grants in the trace.
    pub fn grants(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, DetEvent::Grant { .. }))
            .count()
    }

    /// Number of executed steals in the trace.
    pub fn steals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, DetEvent::Steal { .. }))
            .count()
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where scheduling draws come from: a live RNG when recording, the
/// recorded stream when replaying.
pub(crate) enum DrawSource {
    /// SplitMix64 stream state.
    Rng(u64),
    /// Recorded draws, consumed front-to-back. `fallback` only feeds a
    /// replay that diverged past its recording; the event-equality
    /// assertion on the caller's side is what actually reports the
    /// divergence.
    Replay { queue: VecDeque<u64>, fallback: u64 },
}

impl DrawSource {
    pub(crate) fn seeded(seed: u64) -> Self {
        DrawSource::Rng(seed)
    }

    pub(crate) fn replay(trace: &DetTrace) -> Self {
        DrawSource::Replay {
            queue: trace.draws.iter().copied().collect(),
            fallback: trace.seed ^ 0xD1F7_5EED,
        }
    }
}

struct DetState {
    source: DrawSource,
    trace: DetTrace,
    /// Worker is blocked at a preemption point (schedulable).
    blocked: Vec<bool>,
    /// Worker is blocked at its *top-level* acquire, i.e. not mid-job.
    /// Quiescence may only be declared when every worker is top-level:
    /// a worker parked mid-job inside a helping wait still needs grants
    /// to notice its latch opening.
    top: Vec<bool>,
    /// Worker holding the token, if any.
    granted: Option<usize>,
    /// Remaining grant decisions each worker sits out.
    stalls: Vec<u32>,
    /// Worker reported idle and nothing has been published since. When
    /// every worker is fruitless (and top-level) the run is quiescent:
    /// granting pauses and the trace stops growing, so the recording is
    /// independent of how long the driving thread takes to notice.
    fruitless: Vec<bool>,
    /// No grants are handed out. Starts `true`: stepping begins at the
    /// first external push (the driver injecting the root job), so
    /// worker start-up order cannot leak into the trace.
    paused: bool,
    /// Tear-down: every blocked worker returns to the free-running loop.
    stopping: bool,
}

/// The token scheduler of one deterministic run. One instance is
/// installed per run via `ThreadPool::run_deterministic`.
pub(crate) struct DetScheduler {
    n: usize,
    cfg: DetConfig,
    state: Mutex<DetState>,
    cv: Condvar,
}

impl DetScheduler {
    pub(crate) fn new(n: usize, cfg: DetConfig, source: DrawSource) -> Self {
        let trace = DetTrace {
            seed: cfg.seed,
            draws: Vec::new(),
            events: Vec::new(),
        };
        DetScheduler {
            n,
            cfg,
            state: Mutex::new(DetState {
                source,
                trace,
                blocked: vec![false; n],
                top: vec![false; n],
                granted: None,
                stalls: vec![0; n],
                fruitless: vec![false; n],
                paused: true,
                stopping: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn draw(&self, s: &mut DetState) -> u64 {
        let v = match &mut s.source {
            DrawSource::Rng(state) => splitmix64(state),
            DrawSource::Replay { queue, fallback } => {
                queue.pop_front().unwrap_or_else(|| splitmix64(fallback))
            }
        };
        s.trace.draws.push(v);
        v
    }

    /// Picks the next token holder among non-stalled workers, possibly
    /// injecting a new stall, and decays existing stalls. Pure in the
    /// draw stream: identical draws yield identical choices.
    fn pick(&self, s: &mut DetState) -> usize {
        let n = self.n;
        let mut avail: Vec<usize> = (0..n).filter(|&w| s.stalls[w] == 0).collect();
        if avail.is_empty() {
            avail = (0..n).collect();
        }
        let d = self.draw(s);
        let chosen = avail[(d % avail.len() as u64) as usize];
        if self.cfg.stall_percent > 0 && self.cfg.max_stall_steps > 0 && n > 1 {
            let roll = self.draw(s);
            if roll % 100 < u64::from(self.cfg.stall_percent) {
                // Stall some worker other than the one about to run.
                let mut victim = (self.draw(s) % (n as u64 - 1)) as usize;
                if victim >= chosen {
                    victim += 1;
                }
                let steps = 1 + (self.draw(s) % u64::from(self.cfg.max_stall_steps)) as u32;
                s.stalls[victim] = s.stalls[victim].max(steps);
            }
        }
        for (w, stall) in s.stalls.iter_mut().enumerate() {
            if w != chosen && *stall > 0 {
                *stall -= 1;
            }
        }
        chosen
    }

    /// Hands the token out if a grant decision is due: no current holder,
    /// every worker blocked at a point, not paused. Declares quiescence
    /// instead when every worker is fruitless at top level.
    fn maybe_grant(&self, s: &mut DetState) {
        if s.stopping || s.paused || s.granted.is_some() {
            return;
        }
        if !s.blocked.iter().all(|&b| b) {
            return;
        }
        if s.fruitless.iter().all(|&f| f) && s.top.iter().all(|&t| t) {
            s.paused = true;
            self.cv.notify_all();
            return;
        }
        let chosen = self.pick(s);
        s.granted = Some(chosen);
        s.blocked[chosen] = false;
        s.top[chosen] = false;
        s.trace.events.push(DetEvent::Grant {
            worker: chosen as u32,
        });
        self.cv.notify_all();
    }

    /// Top-level arrival of a worker loop: blocks until granted the token
    /// (`true`) or the run is stopping (`false`).
    pub(crate) fn acquire(&self, index: usize) -> bool {
        let mut s = self.state.lock();
        s.blocked[index] = true;
        s.top[index] = true;
        if s.blocked.iter().all(|&b| b) {
            // Last arrival: wake a pending install/uninstall waiter and
            // try to grant.
            self.cv.notify_all();
        }
        self.maybe_grant(&mut s);
        loop {
            if s.stopping {
                s.blocked[index] = false;
                s.top[index] = false;
                return false;
            }
            if s.granted == Some(index) {
                return true;
            }
            self.cv.wait(&mut s);
        }
    }

    /// Releases the token at the end of a top-level step. The next grant
    /// fires when this worker re-arrives in [`DetScheduler::acquire`].
    pub(crate) fn release(&self, index: usize) {
        let mut s = self.state.lock();
        if s.granted == Some(index) {
            s.granted = None;
        }
    }

    fn yield_here(&self, s: &mut MutexGuard<'_, DetState>, index: usize) {
        s.granted = None;
        s.blocked[index] = true;
        self.maybe_grant(s);
        loop {
            if s.stopping {
                s.blocked[index] = false;
                return;
            }
            if s.granted == Some(index) {
                return;
            }
            self.cv.wait(s);
        }
    }

    /// Mid-job preemption point (helping scope-wait): yields the token
    /// and blocks until it is granted again. Returns immediately when the
    /// run is stopping or the caller does not hold the token.
    pub(crate) fn preempt(&self, index: usize) {
        let mut s = self.state.lock();
        if s.stopping || s.granted != Some(index) {
            return;
        }
        self.yield_here(&mut s, index);
    }

    /// Spawn preemption point: records the publication of `count` jobs
    /// (on the worker's own deque, or addressed at `target`'s mailbox),
    /// marks every worker as having potential work again, and yields.
    pub(crate) fn on_spawn(&self, index: usize, count: usize, target: Option<usize>) {
        let mut s = self.state.lock();
        if s.stopping || s.granted != Some(index) {
            return;
        }
        let event = match target {
            Some(t) => DetEvent::SpawnTo {
                worker: index as u32,
                target: t as u32,
            },
            None => DetEvent::Spawn {
                worker: index as u32,
                count: count as u32,
            },
        };
        s.trace.events.push(event);
        for f in s.fruitless.iter_mut() {
            *f = false;
        }
        self.yield_here(&mut s, index);
    }

    /// A push from outside the pool (the driver injecting the root job):
    /// clears quiescence and resumes granting. The deterministic driver
    /// performs exactly one such push, before the first grant, so its
    /// timing cannot perturb the trace.
    pub(crate) fn on_external_push(&self) {
        let mut s = self.state.lock();
        if s.stopping {
            return;
        }
        for f in s.fruitless.iter_mut() {
            *f = false;
        }
        s.paused = false;
        self.maybe_grant(&mut s);
        self.cv.notify_all();
    }

    /// Records a successful find from one of the worker's own sources.
    pub(crate) fn record_run(&self, index: usize, event: DetEvent) {
        let mut s = self.state.lock();
        if s.stopping {
            return;
        }
        s.fruitless[index] = false;
        s.trace.events.push(event);
    }

    /// Records an executed steal.
    pub(crate) fn record_steal(&self, thief: usize, victim: usize, in_group: bool) {
        let mut s = self.state.lock();
        if s.stopping {
            return;
        }
        s.fruitless[thief] = false;
        s.trace.events.push(DetEvent::Steal {
            thief: thief as u32,
            victim: victim as u32,
            in_group,
        });
    }

    /// Records a strict-boundary steal rejection (job returned to the
    /// victim's mailbox, where it is runnable again).
    pub(crate) fn record_steal_rejected(&self, thief: usize, victim: usize) {
        let mut s = self.state.lock();
        if s.stopping {
            return;
        }
        s.fruitless[victim] = false;
        s.trace.events.push(DetEvent::StealRejected {
            thief: thief as u32,
            victim: victim as u32,
        });
    }

    /// Records a fruitless find — the deterministic park site.
    pub(crate) fn record_idle(&self, index: usize) {
        let mut s = self.state.lock();
        if s.stopping {
            return;
        }
        s.fruitless[index] = true;
        s.trace.events.push(DetEvent::Idle {
            worker: index as u32,
        });
    }

    /// Draws a fresh victim order for one steal sweep: a seeded shuffle
    /// of every other worker, optionally re-biased to probe cross-group
    /// victims first. `tags[v]` is worker `v`'s current group tag.
    pub(crate) fn victim_order(&self, index: usize, my_tag: usize, tags: &[usize]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n).filter(|&v| v != index).collect();
        {
            let mut s = self.state.lock();
            if s.stopping {
                return order;
            }
            for i in (1..order.len()).rev() {
                let j = (self.draw(&mut s) % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
        }
        if self.cfg.cross_group_first {
            // Stable partition: cross-group victims keep their shuffled
            // relative order but come first.
            order.sort_by_key(|&v| u8::from(tags[v] == my_tag));
        }
        order
    }

    /// Blocks until every worker has arrived at its top-level acquire —
    /// the install barrier: the driver must not inject work while any
    /// worker could still pick it up outside the stepping protocol.
    pub(crate) fn wait_all_arrived(&self) {
        let mut s = self.state.lock();
        while !s.stopping && !s.blocked.iter().all(|&b| b) {
            self.cv.wait(&mut s);
        }
    }

    /// Waits for quiescence, then stops the run: the trace is frozen at
    /// the quiescence point (independent of the caller's timing) and all
    /// blocked workers return to their free-running loops.
    pub(crate) fn stop(&self) {
        let mut s = self.state.lock();
        while !s.paused && !s.stopping {
            self.cv.wait(&mut s);
        }
        s.stopping = true;
        self.cv.notify_all();
    }

    /// Takes the recorded trace (call after [`DetScheduler::stop`]).
    pub(crate) fn take_trace(&self) -> DetTrace {
        std::mem::take(&mut self.state.lock().trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        let xs: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn trace_bytes_are_stable() {
        let t = DetTrace {
            seed: 7,
            draws: vec![1, 2, 0xdead_beef],
            events: vec![
                DetEvent::Grant { worker: 0 },
                DetEvent::Steal {
                    thief: 1,
                    victim: 0,
                    in_group: true,
                },
                DetEvent::StealRejected {
                    thief: 2,
                    victim: 3,
                },
                DetEvent::Spawn {
                    worker: 0,
                    count: 7,
                },
                DetEvent::SpawnTo {
                    worker: 0,
                    target: 4,
                },
                DetEvent::Idle { worker: 1 },
            ],
        };
        let b1 = t.to_bytes();
        let b2 = t.clone().to_bytes();
        assert_eq!(b1, b2);
        let text = String::from_utf8(b1).unwrap();
        assert!(text.starts_with("powerscale-dettrace v1\nseed 7\ndraws 3\n"));
        assert!(text.contains("e steal 1 0 in\n"));
        assert!(text.contains("e steal-rejected 2 3\n"));
        assert_eq!(t.grants(), 1);
        assert_eq!(t.steals(), 1);
    }

    #[test]
    fn replay_source_feeds_recorded_draws_back() {
        let trace = DetTrace {
            seed: 9,
            draws: vec![10, 20, 30],
            events: vec![],
        };
        let mut src = DrawSource::replay(&trace);
        let take = |s: &mut DrawSource| match s {
            DrawSource::Rng(st) => splitmix64(st),
            DrawSource::Replay { queue, fallback } => {
                queue.pop_front().unwrap_or_else(|| splitmix64(fallback))
            }
        };
        assert_eq!(take(&mut src), 10);
        assert_eq!(take(&mut src), 20);
        assert_eq!(take(&mut src), 30);
        // Past the recording the fallback stream keeps it alive.
        let a = take(&mut src);
        let b = take(&mut src);
        assert_ne!(a, b);
    }

    #[test]
    fn chaotic_config_is_a_pure_function_of_seed() {
        assert_eq!(DetConfig::chaotic(5), DetConfig::chaotic(5));
        assert!(DetConfig::chaotic(5).cross_group_first);
        assert!(!DetConfig::chaotic(6).cross_group_first);
        assert_eq!(DetConfig::seeded(3).stall_percent, 0);
    }
}
