//! Simulation time and physical constants.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// A time duration (or simulation timestamp) in seconds.
///
/// The discrete-event simulator in `mmx-net` orders events by `Seconds`
/// timestamps; DSP code uses it for sample periods and propagation delays.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero duration.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Creates a duration from seconds.
    pub const fn new(s: f64) -> Self {
        Seconds(s)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: f64) -> Self {
        Seconds(ms / 1e3)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: f64) -> Self {
        Seconds(us / 1e6)
    }

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: f64) -> Self {
        Seconds(ns / 1e9)
    }

    /// The value in seconds.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The value in milliseconds.
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The value in microseconds.
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }

    /// The value in nanoseconds.
    pub fn nanos(self) -> f64 {
        self.0 * 1e9
    }

    /// Free-space propagation delay over `meters`.
    pub fn propagation(meters: f64) -> Seconds {
        Seconds(meters / SPEED_OF_LIGHT)
    }

    /// `max(self, other)`.
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }

    /// `min(self, other)`.
    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    fn div(self, rhs: f64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

impl Div for Seconds {
    type Output = f64;
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0.abs();
        if v >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else if v >= 1e-3 {
            write!(f, "{:.3} ms", self.millis())
        } else if v >= 1e-6 {
            write!(f, "{:.3} µs", self.micros())
        } else {
            write!(f, "{:.1} ns", self.nanos())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(Seconds::from_millis(1.0), Seconds::new(1e-3));
        assert_eq!(Seconds::from_micros(1.0), Seconds::new(1e-6));
        assert_eq!(Seconds::from_nanos(1.0), Seconds::new(1e-9));
    }

    #[test]
    fn propagation_delay_over_18m() {
        // The paper's maximum range: 18 m is ~60 ns of flight time.
        close(Seconds::propagation(18.0).nanos(), 60.04, 0.05);
    }

    #[test]
    fn arithmetic_and_ratio() {
        let a = Seconds::new(2.0);
        let b = Seconds::new(0.5);
        close((a + b).value(), 2.5, 1e-12);
        close((a - b).value(), 1.5, 1e-12);
        close((a * 3.0).value(), 6.0, 1e-12);
        close((a / 4.0).value(), 0.5, 1e-12);
        close(a / b, 4.0, 1e-12);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Seconds::new(2.0)), "2.000 s");
        assert_eq!(format!("{}", Seconds::from_millis(1.5)), "1.500 ms");
        assert_eq!(format!("{}", Seconds::from_micros(10.0)), "10.000 µs");
        assert_eq!(format!("{}", Seconds::from_nanos(60.0)), "60.0 ns");
    }
}
