//! Simulation time.
//!
//! The simulator uses an integer nanosecond clock, wrapped in the [`SimTime`]
//! newtype so that plain integers cannot be confused with timestamps or
//! durations. `SimTime` is used both as an absolute point in simulated time
//! and as a duration; the arithmetic operators are saturating on subtraction
//! so that clock skew bugs surface as zero-length intervals rather than
//! panics in release builds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time or a simulated duration, in nanoseconds.
///
/// # Example
///
/// ```
/// use gpreempt_types::SimTime;
///
/// let a = SimTime::from_micros(3);
/// let b = SimTime::from_nanos(500);
/// assert_eq!((a + b).as_nanos(), 3_500);
/// assert_eq!((b - a), SimTime::ZERO); // saturating
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero timestamp (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable timestamp, used as an "infinite" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from microseconds, or `None` when the nanosecond
    /// count would overflow (above `u64::MAX / 1_000` µs).
    #[inline]
    pub const fn checked_from_micros(us: u64) -> Option<Self> {
        match us.checked_mul(1_000) {
            Some(ns) => Some(SimTime(ns)),
            None => None,
        }
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from a floating point number of microseconds.
    ///
    /// Negative or non-finite inputs are clamped to zero.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        if !us.is_finite() || us <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((us * 1_000.0).round() as u64)
    }

    /// Creates a time from a floating point number of seconds.
    ///
    /// Negative or non-finite inputs are clamped to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * 1e9).round() as u64)
    }

    /// Returns the raw number of nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the time as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns `true` if this is the zero timestamp.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns `self - rhs`, or zero on underflow.
    #[inline]
    pub const fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, returning `None` on overflow.
    #[inline]
    pub const fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// Returns the larger of the two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of the two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Scales a duration by a floating point factor (clamped at zero),
    /// rounding half away from zero exactly as [`f64::round`] does.
    #[inline]
    pub fn scale(self, factor: f64) -> SimTime {
        // Not a positive finite factor (NaN fails both compares): zero.
        if !(factor > 0.0 && factor < f64::INFINITY) {
            return SimTime::ZERO;
        }
        let x = self.0 as f64 * factor;
        // `x` is not negative. Below 2^63 the truncation `t` is exact and so
        // is `x - t` (the fractional part of `x`), so one compare rounds
        // the way `f64::round` does without calling into libm; the signed
        // conversions are single instructions. The jittered durations of
        // every issued block take this path.
        if x < 9_223_372_036_854_775_808.0 {
            let t = x as i64;
            return SimTime((t + i64::from(x - t as f64 >= 0.5)) as u64);
        }
        SimTime(x.round() as u64)
    }

    /// The ratio of two durations as `f64`.
    ///
    /// A zero denominator yields [`f64::INFINITY`] for a nonzero numerator
    /// (an infinitely slowed process must not read as infinitely fast) and
    /// `0.0` only for the indeterminate `0 / 0` case.
    #[inline]
    pub fn ratio(self, other: SimTime) -> f64 {
        if other.0 == 0 {
            if self.0 == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}ns)", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Saturating subtraction; never panics.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    /// Integer division of a duration. Division by zero yields [`SimTime::MAX`].
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        self.0.checked_div(rhs).map_or(SimTime::MAX, SimTime)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |acc, t| acc + t)
    }
}

impl From<u64> for SimTime {
    /// Interprets the integer as nanoseconds.
    fn from(ns: u64) -> Self {
        SimTime(ns)
    }
}

impl From<SimTime> for u64 {
    fn from(t: SimTime) -> u64 {
        t.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimTime::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_nanos(42).as_nanos(), 42);
    }

    #[test]
    fn float_construction_clamps() {
        assert_eq!(SimTime::from_micros_f64(-5.0), SimTime::ZERO);
        assert_eq!(SimTime::from_micros_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_micros_f64(2.5).as_nanos(), 2_500);
        assert_eq!(SimTime::from_secs_f64(1e-9).as_nanos(), 1);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(40);
        assert_eq!((a + b).as_nanos(), 140);
        assert_eq!((a - b).as_nanos(), 60);
        assert_eq!((b - a), SimTime::ZERO);
        assert_eq!((a * 3).as_nanos(), 300);
        assert_eq!((a / 4).as_nanos(), 25);
        assert_eq!(a / 0, SimTime::MAX);
    }

    #[test]
    fn ratio_and_scale() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(50);
        assert!((a.ratio(b) - 2.0).abs() < 1e-12);
        // nonzero / zero is an infinite slowdown, not zero.
        assert_eq!(b.ratio(SimTime::ZERO), f64::INFINITY);
        // Only the indeterminate 0 / 0 maps to 0.0.
        assert_eq!(SimTime::ZERO.ratio(SimTime::ZERO), 0.0);
        assert_eq!(a.scale(0.5).as_nanos(), 50);
        assert_eq!(a.scale(-1.0), SimTime::ZERO);
    }

    /// `scale` as it was written before its libm-free rounding: the guard,
    /// then `f64::round`.
    fn scale_by_round(t: SimTime, factor: f64) -> SimTime {
        if !factor.is_finite() || factor <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((t.0 as f64 * factor).round() as u64)
    }

    fn assert_scales_like_round(ns: u64, factor: f64) {
        let t = SimTime(ns);
        assert_eq!(
            t.scale(factor),
            scale_by_round(t, factor),
            "{ns} ns x {factor:e} (product {:e})",
            ns as f64 * factor
        );
    }

    /// The next representable `f64` above / below a positive finite `x`.
    fn ulp_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn ulp_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn scale_rounds_bit_identically_to_f64_round() {
        // Exact halves round away from zero; one ulp either side of a half
        // rounds to the nearer integer. `ns = 1` makes the product equal
        // the factor, so these land exactly where intended.
        for k in [0.0, 1.0, 2.0, 7.0, 1e6, 2f64.powi(31), 2f64.powi(51) - 1.0] {
            let half = k + 0.5;
            for factor in [half, ulp_up(half), ulp_down(half)] {
                assert_scales_like_round(1, factor);
            }
            for ns in [3, 5, 1_000_001] {
                assert_scales_like_round(ns, 0.5);
            }
        }
        // Products around the float-precision and conversion thresholds.
        for exp in [52, 53, 63, 64] {
            let p = 2f64.powi(exp);
            for factor in [p, ulp_up(p), ulp_down(p), p - 0.5, p + 1.5, p * 0.75] {
                assert_scales_like_round(1, factor);
            }
            let ns = p.min(u64::MAX as f64) as u64;
            for delta in [0, 1, 2, 3] {
                for factor in [1.0, ulp_up(1.0), ulp_down(1.0), 0.5, 1.5] {
                    assert_scales_like_round(ns.saturating_sub(delta), factor);
                    assert_scales_like_round(ns.saturating_add(delta), factor);
                }
            }
        }
        for factor in [1.0, ulp_down(1.0), ulp_up(1.0), 0.5, 2.0] {
            assert_scales_like_round(u64::MAX, factor);
            assert_scales_like_round(u64::MAX - 1024, factor);
        }
        // Degenerate factors, tiny and huge ones.
        let special = [
            0.0,
            -0.0,
            -1.0,
            -0.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            1e300,
            f64::MAX,
        ];
        for factor in special {
            for ns in [0, 1, 2, 1_000, 1 << 40, u64::MAX] {
                assert_scales_like_round(ns, factor);
            }
        }
    }

    #[test]
    fn scale_matches_f64_round_on_a_seeded_sweep() {
        // splitmix64: a fixed stream, no dependency.
        let mut state = 0x2014_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..200_000 {
            let (a, b, c) = (next(), next(), next());
            // Durations from nanoseconds to the full range, factors from
            // block-time jitter (±99 %) to arbitrary magnitudes.
            let ns = a >> (b % 64);
            let unit = (c >> 11) as f64 / (1u64 << 53) as f64;
            let factor = match b % 4 {
                0 => 0.01 + 1.98 * unit,
                1 => unit,
                2 => 2f64.powi((c % 160) as i32 - 80) * (0.5 + unit),
                _ => f64::from_bits(c),
            };
            assert_scales_like_round(ns, factor);
        }
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4u64).map(SimTime::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimTime::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(12)), "12.000s");
    }

    #[test]
    fn checked_from_micros_stops_at_the_nanosecond_range() {
        let largest = u64::MAX / 1_000;
        assert_eq!(
            SimTime::checked_from_micros(largest),
            Some(SimTime::from_nanos(largest * 1_000))
        );
        assert_eq!(SimTime::checked_from_micros(largest + 1), None);
        assert_eq!(
            SimTime::checked_from_micros(250),
            Some(SimTime::from_micros(250))
        );
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX.checked_add(SimTime::from_nanos(1)).is_none());
        assert_eq!(
            SimTime::from_nanos(1).checked_add(SimTime::from_nanos(2)),
            Some(SimTime::from_nanos(3))
        );
    }
}
