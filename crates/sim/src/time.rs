//! Virtual time.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
///
/// `SimTime` is a saturating-arithmetic newtype: experiment sweeps routinely
/// multiply per-page costs by tens of thousands of pages, and a silent wrap
/// would corrupt a whole table, so overflow pins to `u64::MAX` (which any
/// sanity check then catches loudly).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// The raw nanosecond count.
    pub fn ns(self) -> u64 {
        self.0
    }

    /// Seconds as f64 (for table output).
    pub fn secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Duration from `earlier` to `self`; zero if `earlier` is later
    /// (durations never go negative).
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, ns: u64) -> SimTime {
        SimTime(self.0.saturating_add(ns))
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, ns: u64) {
        self.0 = self.0.saturating_add(ns);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ns", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime(100);
        assert_eq!((t + 50).ns(), 150);
        assert_eq!(t.since(SimTime(40)), 60);
        assert_eq!(t.since(SimTime(200)), 0);
        assert_eq!(SimTime(300) - SimTime(100), 200);
    }

    #[test]
    fn saturation() {
        let t = SimTime(u64::MAX - 1);
        assert_eq!((t + 100).ns(), u64::MAX);
    }

    #[test]
    fn ordering_and_max() {
        assert!(SimTime(1) < SimTime(2));
        assert_eq!(SimTime(1).max(SimTime(2)), SimTime(2));
    }

    #[test]
    fn secs() {
        assert!((SimTime(1_500_000_000).secs_f64() - 1.5).abs() < 1e-12);
    }
}
