//! Virtual time for the simulator.
//!
//! All simulated time is kept in integer nanoseconds. A newtype keeps
//! the unit explicit at API boundaries and prevents mixing simulated
//! time with wall-clock time.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in virtual time, or a duration, in nanoseconds.
///
/// The simulator does not distinguish instants from durations at the
/// type level; both are nanosecond counts and arithmetic between them
/// is routine in event scheduling code.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero time: the simulation epoch.
    pub const ZERO: Nanos = Nanos(0);
    /// The farthest representable point in time.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a time value from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a time value from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a time value from fractional seconds, rounding down.
    pub fn from_secs_f64(s: f64) -> Self {
        Nanos((s * 1e9) as u64)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the value in milliseconds, rounding down.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the value in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the value in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction; clamps at zero instead of wrapping.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition; clamps at [`Nanos::MAX`].
    pub fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Checked subtraction; `None` if `rhs > self`.
    pub fn checked_sub(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_sub(rhs.0).map(Nanos)
    }

    /// Returns the larger of the two times.
    pub fn max(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.max(rhs.0))
    }

    /// Returns the smaller of the two times.
    pub fn min(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.min(rhs.0))
    }

    /// Scales a duration by a dimensionless floating factor, rounding
    /// to the nearest nanosecond.
    pub fn scale(self, factor: f64) -> Nanos {
        Nanos((self.0 as f64 * factor).round().max(0.0) as u64)
    }

    /// Returns true if the value is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Div<Nanos> for Nanos {
    type Output = u64;
    fn div(self, rhs: Nanos) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Nanos> for Nanos {
    type Output = Nanos;
    fn rem(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 % rhs.0)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// Computes the time to move `bytes` across a link of `gbps` gigabits
/// per second (serialization delay), rounding up to a nanosecond.
pub fn transmit_time(bytes: u64, gbps: f64) -> Nanos {
    // bits / (gbits/s) = nanoseconds exactly when gbps is expressed in
    // bits-per-nanosecond.
    let bits = bytes as f64 * 8.0;
    Nanos(ceil_u64(bits / gbps))
}

/// `x.ceil() as u64` without a libm call, which `f64::ceil` is on
/// baseline x86-64: truncate, then add 1 if that dropped a fraction.
/// Saturates as the cast does: NaN and anything at or below 0 give 0,
/// anything at or above 2^64 (∞ too) gives `u64::MAX`.
pub(crate) fn ceil_u64(x: f64) -> u64 {
    let t = x as u64;
    if (t as f64) < x {
        t.saturating_add(1)
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn ceil_u64_is_the_ceil_cast() {
        let two_53 = (1u64 << 53) as f64;
        let mut inputs = vec![
            0.0,
            -0.0,
            0.25,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            7.0,
            12.5,
            -0.5,
            -3.0,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
            u64::MAX as f64,
        ];
        for d in -4..=4 {
            inputs.push(two_53 + f64::from(d));
            inputs.push(two_53 + f64::from(d) + 0.5);
            inputs.push(two_53 / 2.0 + f64::from(d) + 0.5);
        }
        let mut rng = Rng::new(0xCE11);
        for _ in 0..100_000 {
            // Every bit pattern (subnormals, NaNs, huge values) and the
            // magnitudes transmit and copy times actually take.
            inputs.push(f64::from_bits(rng.next_u64()));
            inputs.push(rng.f64() * 1e7);
        }
        for x in inputs {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "{x:e}");
        }
    }

    #[test]
    fn construction_and_conversion() {
        assert_eq!(Nanos::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Nanos::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(Nanos::from_millis(1_500).as_millis(), 1_500);
        assert_eq!(Nanos::from_secs_f64(0.5).as_millis(), 500);
        assert!((Nanos::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos(100);
        let b = Nanos(40);
        assert_eq!(a + b, Nanos(140));
        assert_eq!(a - b, Nanos(60));
        assert_eq!(a * 3, Nanos(300));
        assert_eq!(a / 4, Nanos(25));
        assert_eq!(a / b, 2);
        assert_eq!(a % b, Nanos(20));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.checked_sub(b), Some(Nanos(60)));
        assert_eq!(b.checked_sub(a), None);
    }

    #[test]
    fn scaling() {
        assert_eq!(Nanos(1000).scale(1.5), Nanos(1500));
        assert_eq!(Nanos(1000).scale(0.0), Nanos(0));
    }

    #[test]
    fn transmit_time_matches_line_rate() {
        // 1500 bytes at 100 Gbps = 120 ns.
        assert_eq!(transmit_time(1500, 100.0), Nanos(120));
        // 4096 bytes at 50 Gbps = 655.36 -> 656 ns.
        assert_eq!(transmit_time(4096, 50.0), Nanos(656));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Nanos(17)), "17ns");
        assert_eq!(format!("{}", Nanos(1_500)), "1.500us");
        assert_eq!(format!("{}", Nanos(2_000_000)), "2.000ms");
        assert_eq!(format!("{}", Nanos(3_000_000_000)), "3.000s");
    }

    #[test]
    fn sum_iterator() {
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }
}
