//! Simulated time.
//!
//! The paper charges abstract "units" for primitive operations (its runs
//! lasted 1000–23000 units). [`SimTime`] is a newtype over `u64` units so the
//! type system keeps simulated time separate from counters and wall-clock
//! durations.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time, measured in abstract time units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero, the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// The raw number of time units since the simulation started.
    #[inline]
    pub const fn units(self) -> u64 {
        self.0
    }

    /// Elapsed units since `earlier`, saturating at zero if `earlier` is in
    /// the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: u64) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs)
                .expect("simulated time overflowed u64"),
        )
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;

    /// Duration between two instants. Panics in debug builds if `rhs` is
    /// later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> u64 {
        debug_assert!(rhs.0 <= self.0, "negative simulated duration");
        self.0 - rhs.0
    }
}

impl From<u64> for SimTime {
    #[inline]
    fn from(units: u64) -> Self {
        SimTime(units)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}u", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_advances_time() {
        let t = SimTime::ZERO + 5;
        assert_eq!(t.units(), 5);
        assert_eq!((t + 7).units(), 12);
    }

    #[test]
    fn add_assign_matches_add() {
        let mut t = SimTime(10);
        t += 32;
        assert_eq!(t, SimTime(10) + 32);
    }

    #[test]
    fn sub_gives_duration() {
        assert_eq!(SimTime(12) - SimTime(5), 7);
        assert_eq!(SimTime(5) - SimTime(5), 0);
    }

    #[test]
    fn since_saturates() {
        assert_eq!(SimTime(3).since(SimTime(10)), 0);
        assert_eq!(SimTime(10).since(SimTime(3)), 7);
    }

    #[test]
    fn ordering_is_by_units() {
        assert!(SimTime(1) < SimTime(2));
        assert_eq!(SimTime(4).max(SimTime(9)), SimTime(9));
        assert_eq!(SimTime(4).min(SimTime(9)), SimTime(4));
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn overflow_panics() {
        let _ = SimTime::MAX + 1;
    }

    #[test]
    fn display_shows_units() {
        assert_eq!(SimTime(42).to_string(), "42u");
    }
}
