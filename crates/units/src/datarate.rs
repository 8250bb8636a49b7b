//! Data rates and energy-per-bit.

use crate::power::Watts;
use crate::time::Seconds;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A data rate in bits per second.
///
/// The headline efficiency claim of the paper — *"mmX's node consumes 1.1 W
/// at 100 Mbps, i.e. 11 nJ/bit"* — is exactly
/// [`BitRate::energy_per_bit_nj`] applied to those two numbers.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct BitRate(f64);

impl BitRate {
    /// Creates a rate from bits per second.
    pub const fn new(bps: f64) -> Self {
        BitRate(bps)
    }

    /// Creates a rate from kilobits per second.
    pub const fn from_kbps(kbps: f64) -> Self {
        BitRate(kbps * 1e3)
    }

    /// Creates a rate from megabits per second.
    pub const fn from_mbps(mbps: f64) -> Self {
        BitRate(mbps * 1e6)
    }

    /// Creates a rate from gigabits per second.
    pub const fn from_gbps(gbps: f64) -> Self {
        BitRate(gbps * 1e9)
    }

    /// The value in bits per second.
    pub const fn bps(self) -> f64 {
        self.0
    }

    /// The value in megabits per second.
    pub fn mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// The value in gigabits per second.
    pub fn gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// Time needed to move `bits` at this rate.
    pub fn time_for_bits(self, bits: u64) -> Seconds {
        Seconds::new(bits as f64 / self.0)
    }

    /// Bits moved in `dt` at this rate.
    pub fn bits_in(self, dt: Seconds) -> f64 {
        self.0 * dt.value()
    }

    /// Energy per bit in joules for a device drawing `power` while
    /// sustaining this rate.
    pub fn energy_per_bit_j(self, power: Watts) -> f64 {
        power.value() / self.0
    }

    /// Energy per bit in nanojoules (the unit used in Table 1).
    pub fn energy_per_bit_nj(self, power: Watts) -> f64 {
        self.energy_per_bit_j(power) * 1e9
    }

    /// `min(self, other)` — e.g. capping a demanded rate by the switch
    /// limit.
    pub fn min(self, other: BitRate) -> BitRate {
        BitRate(self.0.min(other.0))
    }

    /// `max(self, other)`.
    pub fn max(self, other: BitRate) -> BitRate {
        BitRate(self.0.max(other.0))
    }
}

impl Add for BitRate {
    type Output = BitRate;
    fn add(self, rhs: BitRate) -> BitRate {
        BitRate(self.0 + rhs.0)
    }
}

impl Sub for BitRate {
    type Output = BitRate;
    fn sub(self, rhs: BitRate) -> BitRate {
        BitRate(self.0 - rhs.0)
    }
}

impl Mul<f64> for BitRate {
    type Output = BitRate;
    fn mul(self, rhs: f64) -> BitRate {
        BitRate(self.0 * rhs)
    }
}

impl Div<f64> for BitRate {
    type Output = BitRate;
    fn div(self, rhs: f64) -> BitRate {
        BitRate(self.0 / rhs)
    }
}

impl Div for BitRate {
    type Output = f64;
    fn div(self, rhs: BitRate) -> f64 {
        self.0 / rhs.0
    }
}

impl std::iter::Sum for BitRate {
    fn sum<I: Iterator<Item = BitRate>>(iter: I) -> BitRate {
        iter.fold(BitRate(0.0), |a, b| a + b)
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0.abs();
        if v >= 1e9 {
            write!(f, "{:.2} Gbps", self.gbps())
        } else if v >= 1e6 {
            write!(f, "{:.1} Mbps", self.mbps())
        } else if v >= 1e3 {
            write!(f, "{:.1} kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.0} bps", self.0)
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
    fn paper_headline_efficiency() {
        // 1.1 W at 100 Mbps => 11 nJ/bit (abstract + §9.1).
        let nj = BitRate::from_mbps(100.0).energy_per_bit_nj(Watts::new(1.1));
        close(nj, 11.0, 1e-9);
    }

    #[test]
    fn wifi_row_of_table1() {
        // 2.1 W at 120 Mbps => 17.5 nJ/bit (Table 1).
        let nj = BitRate::from_mbps(120.0).energy_per_bit_nj(Watts::new(2.1));
        close(nj, 17.5, 1e-9);
    }

    #[test]
    fn time_and_bits_are_inverse() {
        let r = BitRate::from_mbps(8.0);
        let t = r.time_for_bits(8_000_000);
        close(t.value(), 1.0, 1e-12);
        close(r.bits_in(t), 8e6, 1e-3);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(BitRate::from_gbps(1.0), BitRate::from_mbps(1000.0));
        assert_eq!(BitRate::from_mbps(1.0), BitRate::from_kbps(1000.0));
        close(BitRate::from_gbps(1.3).gbps(), 1.3, 1e-12);
    }

    #[test]
    fn capping_by_switch_limit() {
        let demanded = BitRate::from_mbps(250.0);
        let switch_limit = BitRate::from_mbps(100.0);
        assert_eq!(demanded.min(switch_limit), switch_limit);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", BitRate::from_mbps(100.0)), "100.0 Mbps");
        assert_eq!(format!("{}", BitRate::from_gbps(1.3)), "1.30 Gbps");
        assert_eq!(format!("{}", BitRate::from_kbps(64.0)), "64.0 kbps");
        assert_eq!(format!("{}", BitRate::new(100.0)), "100 bps");
    }
}
