//! The PAPI-style event set: every event, counted while started.

use crate::event::{Event, ALL_EVENTS, EVENT_COUNT};
use crate::profile::Profile;
use core::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Errors from misusing the event-set life cycle (PAPI would return
/// `PAPI_EISRUN` / `PAPI_ENOTRUN`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterError {
    /// Tried to start a set that is running.
    IsRunning,
    /// Tried to stop or read a set that is not running.
    NotRunning,
}

impl fmt::Display for CounterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterError::IsRunning => write!(f, "event set is running"),
            CounterError::NotRunning => write!(f, "event set is not running"),
        }
    }
}

impl std::error::Error for CounterError {}

/// Live counters for every [`Event`], with PAPI's start/stop life cycle.
///
/// Recording is thread-safe (`record` takes `&self` and uses relaxed
/// atomics), so one set can be shared across pool workers for the duration
/// of an algorithm run; life-cycle operations take `&mut self`.
#[derive(Debug, Default)]
pub struct EventSet {
    counters: [AtomicU64; EVENT_COUNT],
    running: bool,
}

impl EventSet {
    /// Creates a stopped set counting every event.
    pub fn with_all_events() -> Self {
        Self::default()
    }

    /// Starts counting. Counters resume from their current values,
    /// matching `PAPI_start` semantics.
    pub fn start(&mut self) -> Result<(), CounterError> {
        if self.running {
            return Err(CounterError::IsRunning);
        }
        self.running = true;
        Ok(())
    }

    /// Stops counting and returns the accumulated profile.
    pub fn stop(&mut self) -> Result<Profile, CounterError> {
        if !self.running {
            return Err(CounterError::NotRunning);
        }
        self.running = false;
        Ok(self.snapshot())
    }

    /// Reads the live counters without stopping.
    pub fn read(&self) -> Result<Profile, CounterError> {
        if !self.running {
            return Err(CounterError::NotRunning);
        }
        Ok(self.snapshot())
    }

    /// Records `n` occurrences of `event`.
    ///
    /// No-op when the set is stopped — kernels call this unconditionally
    /// and the set decides what is counted, the same contract PAPI gives
    /// instrumented libraries.
    #[inline]
    pub fn record(&self, event: Event, n: u64) {
        if self.running {
            self.counters[event.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Merges a whole [`Profile`] in one call (the per-task commit path —
    /// kernels accumulate locally and commit once to keep atomics off the
    /// inner loops).
    pub fn record_profile(&self, profile: &Profile) {
        if !self.running {
            return;
        }
        for (e, n) in profile.iter_nonzero() {
            self.counters[e.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> Profile {
        let mut p = Profile::new();
        for e in ALL_EVENTS {
            p.add_count(e, self.counters[e.index()].load(Ordering::Relaxed));
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
        let mut set = EventSet::default();
        set.start().unwrap();
        set.record(Event::FpOps, 7);
        let p = set.stop().unwrap();
        assert_eq!(p.get(Event::FpOps), 7);
        assert_eq!(set.stop().unwrap_err(), CounterError::NotRunning);
    }

    #[test]
    fn state_machine_errors() {
        let mut set = EventSet::with_all_events();
        assert_eq!(set.stop().unwrap_err(), CounterError::NotRunning);
        assert_eq!(set.read().unwrap_err(), CounterError::NotRunning);
        set.start().unwrap();
        assert_eq!(set.start().unwrap_err(), CounterError::IsRunning);
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
    fn read_does_not_clear() {
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        set.record(Event::FpAdds, 3);
        assert_eq!(set.read().unwrap().get(Event::FpAdds), 3);
        set.record(Event::FpAdds, 2);
        assert_eq!(set.stop().unwrap().get(Event::FpAdds), 5);
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
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        let batch = Profile::from_pairs(&[
            (Event::FpOps, 10),
            (Event::BytesRead, 20),
            (Event::CommBytes, 30),
        ]);
        set.record_profile(&batch);
        set.record_profile(&batch);
        let p = set.stop().unwrap();
        assert_eq!(p.get(Event::FpOps), 20);
        assert_eq!(p.get(Event::BytesRead), 40);
        assert_eq!(p.get(Event::CommBytes), 60);
        assert_eq!(p.get(Event::KernelCalls), 0);
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
