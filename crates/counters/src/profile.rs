//! Immutable counter snapshots.

use crate::event::{Event, ALL_EVENTS, EVENT_COUNT};
use core::fmt;
use core::ops::{Add, AddAssign};

/// A snapshot of event counts — the value read out of an
/// [`EventSet`](crate::EventSet), and the unit of work accounting passed to
/// the machine model.
///
/// Profiles form a commutative monoid under `+` (used to merge per-task and
/// per-thread contributions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Profile {
    counts: [u64; EVENT_COUNT],
}

impl Profile {
    /// The zero profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a profile from `(event, count)` pairs (later pairs accumulate).
    pub fn from_pairs(pairs: &[(Event, u64)]) -> Self {
        let mut p = Profile::new();
        for &(e, n) in pairs {
            p.add_count(e, n);
        }
        p
    }

    /// Count for one event.
    #[inline]
    pub fn get(&self, event: Event) -> u64 {
        self.counts[event.index()]
    }

    /// Adds `n` to `event` (saturating — counter overflow must not wrap
    /// work accounting).
    #[inline]
    pub fn add_count(&mut self, event: Event, n: u64) {
        let c = &mut self.counts[event.index()];
        *c = c.saturating_add(n);
    }

    /// Total floating-point operations (multiply kernels + add passes).
    pub fn total_flops(&self) -> u64 {
        self.get(Event::FpOps)
            .saturating_add(self.get(Event::FpAdds))
    }

    /// Total useful memory traffic in bytes (reads + writes + packing).
    pub fn total_bytes(&self) -> u64 {
        self.get(Event::BytesRead)
            .saturating_add(self.get(Event::BytesWritten))
            .saturating_add(self.get(Event::PackBytes))
    }

    /// Arithmetic intensity in flops/byte; `None` when no bytes moved.
    pub fn arithmetic_intensity(&self) -> Option<f64> {
        let bytes = self.total_bytes();
        if bytes == 0 {
            None
        } else {
            Some(self.total_flops() as f64 / bytes as f64)
        }
    }

    /// `true` when every counter is zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Iterates `(event, count)` for non-zero events.
    pub(crate) fn iter_nonzero(&self) -> impl Iterator<Item = (Event, u64)> + '_ {
        ALL_EVENTS
            .into_iter()
            .map(|e| (e, self.get(e)))
            .filter(|&(_, n)| n != 0)
    }
}

impl Add for Profile {
    type Output = Profile;
    fn add(mut self, rhs: Profile) -> Profile {
        self += rhs;
        self
    }
}

impl AddAssign for Profile {
    fn add_assign(&mut self, rhs: Profile) {
        for (a, b) in self.counts.iter_mut().zip(rhs.counts) {
            *a = a.saturating_add(b);
        }
    }
}

impl std::iter::Sum for Profile {
    fn sum<I: Iterator<Item = Profile>>(iter: I) -> Profile {
        iter.fold(Profile::new(), Add::add)
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "(empty profile)");
        }
        let mut first = true;
        for (e, n) in self.iter_nonzero() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{e}={n}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_profile() {
        let p = Profile::new();
        assert!(p.is_zero());
        assert_eq!(p.total_flops(), 0);
        assert_eq!(p.arithmetic_intensity(), None);
        assert_eq!(p.to_string(), "(empty profile)");
    }

    #[test]
    fn from_pairs_accumulates() {
        let p = Profile::from_pairs(&[(Event::FpOps, 10), (Event::FpOps, 5), (Event::FpAdds, 1)]);
        assert_eq!(p.get(Event::FpOps), 15);
        assert_eq!(p.total_flops(), 16);
    }

    #[test]
    fn addition_merges() {
        let a = Profile::from_pairs(&[(Event::BytesRead, 100)]);
        let b = Profile::from_pairs(&[(Event::BytesRead, 20), (Event::BytesWritten, 8)]);
        let c = a + b;
        assert_eq!(c.get(Event::BytesRead), 120);
        assert_eq!(c.total_bytes(), 128);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![
            Profile::from_pairs(&[(Event::TasksSpawned, 1)]),
            Profile::from_pairs(&[(Event::TasksSpawned, 2)]),
            Profile::from_pairs(&[(Event::TasksSpawned, 3)]),
        ];
        let total: Profile = parts.into_iter().sum();
        assert_eq!(total.get(Event::TasksSpawned), 6);
    }

    #[test]
    fn saturating_not_wrapping() {
        let mut p = Profile::from_pairs(&[(Event::FpOps, u64::MAX - 1)]);
        p.add_count(Event::FpOps, 10);
        assert_eq!(p.get(Event::FpOps), u64::MAX);
        let q = p + p;
        assert_eq!(q.get(Event::FpOps), u64::MAX);
    }

    #[test]
    fn arithmetic_intensity_ratio() {
        let p = Profile::from_pairs(&[(Event::FpOps, 64), (Event::BytesRead, 16)]);
        assert_eq!(p.arithmetic_intensity(), Some(4.0));
    }

    #[test]
    fn display_lists_nonzero() {
        let p = Profile::from_pairs(&[(Event::FpOps, 2), (Event::CommBytes, 7)]);
        let s = p.to_string();
        assert!(s.contains("PS_FP_OPS=2"));
        assert!(s.contains("PS_COMM_BYTES=7"));
        assert!(!s.contains("PS_FP_ADDS"));
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_round_trip() {
        let p = Profile::from_pairs(&[(Event::FpOps, 3), (Event::PackBytes, 9)]);
        let json = serde_json::to_string(&p).unwrap();
        let back: Profile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
