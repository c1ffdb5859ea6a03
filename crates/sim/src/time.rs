//! Simulation time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A simulation timestamp or duration, measured in quarter-nanoseconds.
///
/// The quarter-nanosecond base unit is chosen so that the two clock domains
/// of the paper's evaluation platform (Table 2) are exact:
///
/// * one 2 GHz CPU cycle = 0.5 ns = 2 units,
/// * one DDR3-1600 memory I/O cycle (tCK = 1.25 ns) = 5 units.
///
/// `Time` is used for both instants and durations, mirroring how hardware
/// models reason in "cycles". All arithmetic is checked in debug builds via
/// the standard integer semantics.
///
/// # Example
///
/// ```
/// use pard_sim::Time;
/// let t = Time::from_ns(100) + Time::from_us(1);
/// assert_eq!(t.as_ns(), 1100.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The origin of simulated time (also the zero duration).
    pub const ZERO: Time = Time(0);
    /// The largest representable time; useful as an "infinite" deadline.
    pub const MAX: Time = Time(u64::MAX);
    /// Quarter-nanosecond units per nanosecond.
    pub const UNITS_PER_NS: u64 = 4;

    /// Creates a time from raw quarter-nanosecond units.
    #[inline]
    pub const fn from_units(units: u64) -> Self {
        Time(units)
    }

    /// Creates a time from whole nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit the quarter-nanosecond clock
    /// (release builds would otherwise wrap silently).
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        match ns.checked_mul(Self::UNITS_PER_NS) {
            Some(units) => Time(units),
            None => panic!("Time::from_ns overflows the quarter-nanosecond clock"),
        }
    }

    /// Creates a time from whole microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit the quarter-nanosecond clock.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        match us.checked_mul(1_000 * Self::UNITS_PER_NS) {
            Some(units) => Time(units),
            None => panic!("Time::from_us overflows the quarter-nanosecond clock"),
        }
    }

    /// Creates a time from whole milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit the quarter-nanosecond clock.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        match ms.checked_mul(1_000_000 * Self::UNITS_PER_NS) {
            Some(units) => Time(units),
            None => panic!("Time::from_ms overflows the quarter-nanosecond clock"),
        }
    }

    /// Creates a time from whole seconds.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit the quarter-nanosecond clock.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        match s.checked_mul(1_000_000_000 * Self::UNITS_PER_NS) {
            Some(units) => Time(units),
            None => panic!("Time::from_secs overflows the quarter-nanosecond clock"),
        }
    }

    /// Raw quarter-nanosecond units.
    #[inline]
    pub const fn units(self) -> u64 {
        self.0
    }

    /// This time expressed in (possibly fractional) nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / Self::UNITS_PER_NS as f64
    }

    /// This time expressed in (possibly fractional) microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.as_ns() / 1_000.0
    }

    /// This time expressed in (possibly fractional) milliseconds.
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.as_ns() / 1_000_000.0
    }

    /// This time expressed in (possibly fractional) seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.as_ns() / 1_000_000_000.0
    }

    /// Saturating subtraction; returns [`Time::ZERO`] instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, rhs: Time) -> Time {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: Time) -> Time {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// Rounds this time up to the next multiple of `quantum`.
    ///
    /// Used by clock-domain models (e.g. the DRAM controller) to align
    /// events to their own clock edges.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    #[inline]
    pub fn align_up(self, quantum: Time) -> Time {
        assert!(quantum.0 > 0, "alignment quantum must be non-zero");
        let rem = self.0 % quantum.0;
        if rem == 0 {
            self
        } else {
            Time(self.0 + (quantum.0 - rem))
        }
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Div<Time> for Time {
    type Output = u64;
    #[inline]
    fn div(self, rhs: Time) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Time> for Time {
    type Output = Time;
    #[inline]
    fn rem(self, rhs: Time) -> Time {
        Time(self.0 % rhs.0)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Time({} ns)", self.as_ns())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.as_ns();
        if ns >= 1_000_000.0 {
            write!(f, "{:.3} ms", self.as_ms())
        } else if ns >= 1_000.0 {
            write!(f, "{:.3} us", self.as_us())
        } else {
            write!(f, "{ns} ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_trip() {
        assert_eq!(Time::from_ns(1).units(), 4);
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
        assert_eq!(Time::from_secs(1), Time::from_ms(1_000));
        assert_eq!(Time::from_secs(2).as_secs(), 2.0);
    }

    #[test]
    fn cpu_and_memory_cycles_are_exact() {
        // 2 GHz CPU cycle = 0.5 ns.
        let cpu = Time::from_units(2);
        assert_eq!(cpu.as_ns(), 0.5);
        // DDR3-1600 tCK = 1.25 ns.
        let mem = Time::from_units(5);
        assert_eq!(mem.as_ns(), 1.25);
        // 11 memory cycles = 13.75 ns (the 11-11-11 timing of Table 2).
        assert_eq!((mem * 11).as_ns(), 13.75);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(4);
        assert_eq!(a + b, Time::from_ns(14));
        assert_eq!(a - b, Time::from_ns(6));
        assert_eq!(a * 3, Time::from_ns(30));
        assert_eq!(a / 2, Time::from_ns(5));
        assert_eq!(a / b, 2);
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn align_up_to_clock_edge() {
        let tck = Time::from_units(5);
        assert_eq!(Time::from_units(0).align_up(tck), Time::from_units(0));
        assert_eq!(Time::from_units(1).align_up(tck), Time::from_units(5));
        assert_eq!(Time::from_units(5).align_up(tck), Time::from_units(5));
        assert_eq!(Time::from_units(6).align_up(tck), Time::from_units(10));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn align_up_zero_quantum_panics() {
        let _ = Time::from_ns(1).align_up(Time::ZERO);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Time::from_ns(5).to_string(), "5 ns");
        assert_eq!(Time::from_us(5).to_string(), "5.000 us");
        assert_eq!(Time::from_ms(5).to_string(), "5.000 ms");
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [Time::from_ns(1), Time::from_ns(2)].into_iter().sum();
        assert_eq!(total, Time::from_ns(3));
    }

    #[test]
    fn constructors_accept_the_largest_representable_values() {
        // The largest input for each unit that still fits in u64 units.
        assert_eq!(Time::from_ns(u64::MAX / 4).units(), (u64::MAX / 4) * 4);
        assert_eq!(
            Time::from_us(u64::MAX / 4_000).units(),
            (u64::MAX / 4_000) * 4_000
        );
        assert_eq!(
            Time::from_ms(u64::MAX / 4_000_000).units(),
            (u64::MAX / 4_000_000) * 4_000_000
        );
        assert_eq!(
            Time::from_secs(u64::MAX / 4_000_000_000).units(),
            (u64::MAX / 4_000_000_000) * 4_000_000_000
        );
    }

    #[test]
    #[should_panic(expected = "Time::from_ns overflows")]
    fn from_ns_overflow_panics() {
        let _ = Time::from_ns(u64::MAX / 4 + 1);
    }

    #[test]
    #[should_panic(expected = "Time::from_us overflows")]
    fn from_us_overflow_panics() {
        let _ = Time::from_us(u64::MAX / 4_000 + 1);
    }

    #[test]
    #[should_panic(expected = "Time::from_ms overflows")]
    fn from_ms_overflow_panics() {
        let _ = Time::from_ms(u64::MAX / 4_000_000 + 1);
    }

    #[test]
    #[should_panic(expected = "Time::from_secs overflows")]
    fn from_secs_overflow_panics() {
        let _ = Time::from_secs(u64::MAX / 4_000_000_000 + 1);
    }
}
