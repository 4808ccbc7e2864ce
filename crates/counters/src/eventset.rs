//! The PAPI-style event-set state machine.

use crate::event::{Event, ALL_EVENTS, EVENT_COUNT};
use crate::profile::Profile;
use core::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Life-cycle state of an [`EventSet`] — mirrors PAPI's notion of a stopped
/// vs. running set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetState {
    /// Events may be added/removed; recording is a no-op.
    Stopped,
    /// Counters are live; membership is frozen.
    Running,
}

/// Errors from misusing the event-set life cycle (PAPI would return
/// `PAPI_EISRUN` / `PAPI_ENOTRUN` / `PAPI_ECNFLCT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterError {
    /// Tried to mutate membership or start a set that is running.
    IsRunning,
    /// Tried to stop or read a set that is not running.
    NotRunning,
    /// Tried to add an event that is already in the set.
    AlreadyAdded(Event),
    /// Tried to remove an event that is not in the set.
    NotInSet(Event),
}

impl fmt::Display for CounterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterError::IsRunning => write!(f, "event set is running"),
            CounterError::NotRunning => write!(f, "event set is not running"),
            CounterError::AlreadyAdded(e) => write!(f, "event {e} already in set"),
            CounterError::NotInSet(e) => write!(f, "event {e} not in set"),
        }
    }
}

impl std::error::Error for CounterError {}

/// A set of live counters with PAPI life-cycle semantics.
///
/// Recording is thread-safe (`record` takes `&self` and uses relaxed
/// atomics), so one set can be shared across pool workers for the duration
/// of an algorithm run; life-cycle operations take `&mut self`.
#[derive(Debug)]
pub struct EventSet {
    counters: [AtomicU64; EVENT_COUNT],
    member: [bool; EVENT_COUNT],
    state: SetState,
}

impl Default for EventSet {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSet {
    /// Creates an empty, stopped set.
    pub fn new() -> Self {
        EventSet {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            member: [false; EVENT_COUNT],
            state: SetState::Stopped,
        }
    }

    /// Creates a stopped set already containing every event.
    pub fn with_all_events() -> Self {
        let mut set = Self::new();
        for e in ALL_EVENTS {
            set.member[e.index()] = true;
        }
        set
    }

    /// Current life-cycle state.
    pub fn state(&self) -> SetState {
        self.state
    }

    /// `true` if `event` is a member of the set.
    pub fn contains(&self, event: Event) -> bool {
        self.member[event.index()]
    }

    /// Adds an event to a stopped set.
    pub fn add(&mut self, event: Event) -> Result<(), CounterError> {
        if self.state == SetState::Running {
            return Err(CounterError::IsRunning);
        }
        if self.member[event.index()] {
            return Err(CounterError::AlreadyAdded(event));
        }
        self.member[event.index()] = true;
        Ok(())
    }

    /// Removes an event from a stopped set.
    pub fn remove(&mut self, event: Event) -> Result<(), CounterError> {
        if self.state == SetState::Running {
            return Err(CounterError::IsRunning);
        }
        if !self.member[event.index()] {
            return Err(CounterError::NotInSet(event));
        }
        self.member[event.index()] = false;
        self.counters[event.index()].store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Starts counting. Counters resume from their current values (use
    /// [`EventSet::reset`] for a fresh run), matching `PAPI_start` semantics
    /// after an `accum`.
    pub fn start(&mut self) -> Result<(), CounterError> {
        if self.state == SetState::Running {
            return Err(CounterError::IsRunning);
        }
        self.state = SetState::Running;
        Ok(())
    }

    /// Stops counting and returns the accumulated profile.
    pub fn stop(&mut self) -> Result<Profile, CounterError> {
        if self.state != SetState::Running {
            return Err(CounterError::NotRunning);
        }
        self.state = SetState::Stopped;
        Ok(self.snapshot())
    }

    /// Reads the live counters without stopping.
    pub fn read(&self) -> Result<Profile, CounterError> {
        if self.state != SetState::Running {
            return Err(CounterError::NotRunning);
        }
        Ok(self.snapshot())
    }

    /// Adds the live counters into `into` and zeroes them, like
    /// `PAPI_accum`.
    pub fn accum(&self, into: &mut Profile) -> Result<(), CounterError> {
        if self.state != SetState::Running {
            return Err(CounterError::NotRunning);
        }
        for e in ALL_EVENTS {
            if self.member[e.index()] {
                let v = self.counters[e.index()].swap(0, Ordering::Relaxed);
                into.add_count(e, v);
            }
        }
        Ok(())
    }

    /// Records `n` occurrences of `event`.
    ///
    /// No-op when the set is stopped or the event is not a member — kernels
    /// call this unconditionally and the set decides what is counted, the
    /// same contract PAPI gives instrumented libraries.
    #[inline]
    pub fn record(&self, event: Event, n: u64) {
        if self.state == SetState::Running && self.member[event.index()] {
            self.counters[event.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Merges a whole [`Profile`] in one call (the per-task commit path —
    /// kernels accumulate locally and commit once to keep atomics off the
    /// inner loops).
    pub fn record_profile(&self, profile: &Profile) {
        if self.state != SetState::Running {
            return;
        }
        for (e, n) in profile.iter_nonzero() {
            if self.member[e.index()] {
                self.counters[e.index()].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    fn snapshot(&self) -> Profile {
        let mut p = Profile::new();
        for e in ALL_EVENTS {
            if self.member[e.index()] {
                p.add_count(e, self.counters[e.index()].load(Ordering::Relaxed));
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EventSet {
        /// Zeroes every counter (any state).
        fn reset(&mut self) {
            for c in &self.counters {
                c.store(0, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn life_cycle_happy_path() {
        let mut set = EventSet::new();
        assert_eq!(set.state(), SetState::Stopped);
        set.add(Event::FpOps).unwrap();
        assert!(set.contains(Event::FpOps));
        set.start().unwrap();
        assert_eq!(set.state(), SetState::Running);
        set.record(Event::FpOps, 7);
        let p = set.stop().unwrap();
        assert_eq!(p.get(Event::FpOps), 7);
        assert_eq!(set.state(), SetState::Stopped);
    }

    #[test]
    fn membership_errors() {
        let mut set = EventSet::new();
        set.add(Event::FpOps).unwrap();
        assert_eq!(
            set.add(Event::FpOps),
            Err(CounterError::AlreadyAdded(Event::FpOps))
        );
        assert_eq!(
            set.remove(Event::CommBytes),
            Err(CounterError::NotInSet(Event::CommBytes))
        );
        set.remove(Event::FpOps).unwrap();
        assert!(!set.contains(Event::FpOps));
    }

    #[test]
    fn state_machine_errors() {
        let mut set = EventSet::with_all_events();
        assert_eq!(set.stop().unwrap_err(), CounterError::NotRunning);
        assert_eq!(set.read().unwrap_err(), CounterError::NotRunning);
        set.start().unwrap();
        assert_eq!(set.start().unwrap_err(), CounterError::IsRunning);
        assert_eq!(set.add(Event::FpOps).unwrap_err(), CounterError::IsRunning);
        assert_eq!(
            set.remove(Event::FpOps).unwrap_err(),
            CounterError::IsRunning
        );
    }

    #[test]
    fn stopped_set_ignores_records() {
        let mut set = EventSet::with_all_events();
        set.record(Event::FpOps, 100);
        set.start().unwrap();
        let p = set.stop().unwrap();
        assert!(p.is_zero());
    }

    #[test]
    fn non_member_events_ignored() {
        let mut set = EventSet::new();
        set.add(Event::FpOps).unwrap();
        set.start().unwrap();
        set.record(Event::CommBytes, 5);
        set.record(Event::FpOps, 1);
        let p = set.stop().unwrap();
        assert_eq!(p.get(Event::CommBytes), 0);
        assert_eq!(p.get(Event::FpOps), 1);
    }

    #[test]
    fn read_does_not_clear() {
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        set.record(Event::FpAdds, 3);
        assert_eq!(set.read().unwrap().get(Event::FpAdds), 3);
        set.record(Event::FpAdds, 2);
        assert_eq!(set.stop().unwrap().get(Event::FpAdds), 5);
    }

    #[test]
    fn accum_clears_live_counters() {
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        set.record(Event::KernelCalls, 4);
        let mut acc = Profile::new();
        set.accum(&mut acc).unwrap();
        assert_eq!(acc.get(Event::KernelCalls), 4);
        set.accum(&mut acc).unwrap();
        assert_eq!(acc.get(Event::KernelCalls), 4, "second accum adds zero");
        set.record(Event::KernelCalls, 1);
        set.accum(&mut acc).unwrap();
        assert_eq!(acc.get(Event::KernelCalls), 5);
    }

    #[test]
    fn start_resumes_counters() {
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        set.record(Event::FpOps, 2);
        let _ = set.stop().unwrap();
        set.start().unwrap();
        set.record(Event::FpOps, 3);
        assert_eq!(set.stop().unwrap().get(Event::FpOps), 5);
        set.reset();
        set.start().unwrap();
        assert!(set.stop().unwrap().is_zero());
    }

    #[test]
    fn record_profile_commits_batch() {
        let mut set = EventSet::new();
        set.add(Event::FpOps).unwrap();
        set.add(Event::BytesRead).unwrap();
        set.start().unwrap();
        let batch = Profile::from_pairs(&[
            (Event::FpOps, 10),
            (Event::BytesRead, 20),
            (Event::CommBytes, 30), // not a member → dropped
        ]);
        set.record_profile(&batch);
        let p = set.stop().unwrap();
        assert_eq!(p.get(Event::FpOps), 10);
        assert_eq!(p.get(Event::BytesRead), 20);
        assert_eq!(p.get(Event::CommBytes), 0);
    }

    #[test]
    fn concurrent_recording() {
        use std::sync::Arc;
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        let set = Arc::new(set);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&set);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record(Event::FpOps, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut set = Arc::try_unwrap(set).unwrap();
        assert_eq!(set.stop().unwrap().get(Event::FpOps), 4000);
    }
}
