//! Dimensionless decibel ratios.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A dimensionless power ratio expressed in decibels.
///
/// `Db` models *relative* quantities: antenna gains, path losses, noise
/// figures, SNR/SINR values. Absolute power levels belong in
/// [`DbmPower`](crate::DbmPower); the type system keeps the two apart so
/// that `gain + gain` compiles but `level + level` does not.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Db(f64);

impl Db {
    /// The zero ratio (0 dB, i.e. ×1).
    pub const ZERO: Db = Db(0.0);

    /// Creates a ratio from a decibel value.
    pub const fn new(db: f64) -> Self {
        Db(db)
    }

    /// Creates a ratio from a linear power factor (`10·log10(ratio)`).
    ///
    /// Non-positive ratios map to `-inf` dB, which is the natural
    /// representation for "no signal at all" and flows correctly through
    /// subsequent arithmetic.
    pub fn from_linear(ratio: f64) -> Self {
        Db(10.0 * ratio.log10())
    }

    /// Creates a ratio from a linear *amplitude* (voltage/field) factor
    /// (`20·log10(amp)`).
    pub fn from_amplitude(amp: f64) -> Self {
        Db(20.0 * amp.log10())
    }

    /// The decibel value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// The linear power ratio (`10^(dB/10)`).
    pub fn linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// The linear amplitude ratio (`10^(dB/20)`).
    pub fn amplitude(self) -> f64 {
        10f64.powf(self.0 / 20.0)
    }

    /// Clamps the ratio between two bounds (useful for saturating models).
    pub fn clamp(self, lo: Db, hi: Db) -> Db {
        Db(self.0.clamp(lo.0, hi.0))
    }

    /// `max(self, other)`.
    pub fn max(self, other: Db) -> Db {
        Db(self.0.max(other.0))
    }

    /// `min(self, other)`.
    pub fn min(self, other: Db) -> Db {
        Db(self.0.min(other.0))
    }

    /// True when the underlying value is finite.
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Power-sums a set of ratios in the linear domain.
    ///
    /// This is the correct way to combine incoherent interference
    /// contributions: `power_sum([0 dB, 0 dB]) ≈ 3.01 dB`.
    pub fn power_sum<I: IntoIterator<Item = Db>>(items: I) -> Db {
        let lin: f64 = items.into_iter().map(|d| d.linear()).sum();
        Db::from_linear(lin)
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl AddAssign for Db {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl SubAssign for Db {
    fn sub_assign(&mut self, rhs: Db) {
        self.0 -= rhs.0;
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl Mul<f64> for Db {
    type Output = Db;
    fn mul(self, rhs: f64) -> Db {
        Db(self.0 * rhs)
    }
}

impl Div<f64> for Db {
    type Output = Db;
    fn div(self, rhs: f64) -> Db {
        Db(self.0 / rhs)
    }
}

impl Sum for Db {
    fn sum<I: Iterator<Item = Db>>(iter: I) -> Db {
        iter.fold(Db::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} dB", prec, self.0)
        } else {
            write!(f, "{:.2} dB", self.0)
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
    fn linear_roundtrip() {
        let g = Db::new(13.0);
        close(Db::from_linear(g.linear()).value(), 13.0, 1e-12);
    }

    #[test]
    fn amplitude_is_half_power_exponent() {
        let g = Db::new(6.0);
        // 6 dB is ×4 in power, ×2 (approx 1.995) in amplitude.
        close(g.linear(), 3.981, 1e-3);
        close(g.amplitude(), 1.995, 1e-3);
    }

    #[test]
    fn from_linear_zero_is_neg_inf() {
        assert_eq!(Db::from_linear(0.0).value(), f64::NEG_INFINITY);
        assert!(!Db::from_linear(0.0).is_finite());
    }

    #[test]
    fn arithmetic() {
        let a = Db::new(3.0);
        let b = Db::new(7.0);
        assert_eq!((a + b).value(), 10.0);
        assert_eq!((b - a).value(), 4.0);
        assert_eq!((-a).value(), -3.0);
        assert_eq!((a * 2.0).value(), 6.0);
        assert_eq!((b / 2.0).value(), 3.5);
    }

    #[test]
    fn power_sum_of_equal_terms() {
        let s = Db::power_sum([Db::ZERO, Db::ZERO]);
        close(s.value(), 3.0103, 1e-3);
        let s3 = Db::power_sum(vec![Db::new(10.0); 10]);
        close(s3.value(), 20.0, 1e-9);
    }

    #[test]
    fn sum_trait_adds_in_db_domain() {
        let total: Db = [Db::new(1.0), Db::new(2.0), Db::new(3.0)].into_iter().sum();
        close(total.value(), 6.0, 1e-12);
    }

    #[test]
    fn clamp_and_ordering() {
        let x = Db::new(99.0).clamp(Db::ZERO, Db::new(30.0));
        assert_eq!(x.value(), 30.0);
        assert!(Db::new(1.0) < Db::new(2.0));
        assert_eq!(Db::new(5.0).max(Db::new(2.0)).value(), 5.0);
        assert_eq!(Db::new(5.0).min(Db::new(2.0)).value(), 2.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Db::new(3.144)), "3.14 dB");
        assert_eq!(format!("{:.0}", Db::new(3.9)), "4 dB");
    }
}
