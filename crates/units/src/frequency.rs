//! Frequency, wavelength and the unlicensed mmWave band plans.

use crate::time::SPEED_OF_LIGHT;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A frequency in hertz.
///
/// Carries the usual unit constructors plus the wavelength helper that the
/// antenna crate uses to size arrays (at 24 GHz, λ ≈ 12.5 mm — small enough
/// that "many antennas can be packed into a small area", §2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Hertz(f64);

impl Hertz {
    /// Creates a frequency from hertz.
    pub const fn new(hz: f64) -> Self {
        Hertz(hz)
    }

    /// Creates a frequency from kilohertz.
    pub const fn from_khz(khz: f64) -> Self {
        Hertz(khz * 1e3)
    }

    /// Creates a frequency from megahertz.
    pub const fn from_mhz(mhz: f64) -> Self {
        Hertz(mhz * 1e6)
    }

    /// Creates a frequency from gigahertz.
    pub const fn from_ghz(ghz: f64) -> Self {
        Hertz(ghz * 1e9)
    }

    /// The value in hertz.
    pub const fn hz(self) -> f64 {
        self.0
    }

    /// The value in kilohertz.
    pub fn khz(self) -> f64 {
        self.0 / 1e3
    }

    /// The value in megahertz.
    pub fn mhz(self) -> f64 {
        self.0 / 1e6
    }

    /// The value in gigahertz.
    pub fn ghz(self) -> f64 {
        self.0 / 1e9
    }

    /// Free-space wavelength in meters (`c / f`).
    pub fn wavelength_m(self) -> f64 {
        SPEED_OF_LIGHT / self.0
    }

    /// `max(self, other)`.
    pub fn max(self, other: Hertz) -> Hertz {
        Hertz(self.0.max(other.0))
    }

    /// `min(self, other)`.
    pub fn min(self, other: Hertz) -> Hertz {
        Hertz(self.0.min(other.0))
    }

    /// Absolute difference between two frequencies.
    pub fn abs_diff(self, other: Hertz) -> Hertz {
        Hertz((self.0 - other.0).abs())
    }
}

impl Add for Hertz {
    type Output = Hertz;
    fn add(self, rhs: Hertz) -> Hertz {
        Hertz(self.0 + rhs.0)
    }
}

impl Sub for Hertz {
    type Output = Hertz;
    fn sub(self, rhs: Hertz) -> Hertz {
        Hertz(self.0 - rhs.0)
    }
}

impl Mul<f64> for Hertz {
    type Output = Hertz;
    fn mul(self, rhs: f64) -> Hertz {
        Hertz(self.0 * rhs)
    }
}

impl Div<f64> for Hertz {
    type Output = Hertz;
    fn div(self, rhs: f64) -> Hertz {
        Hertz(self.0 / rhs)
    }
}

impl Div for Hertz {
    type Output = f64;
    fn div(self, rhs: Hertz) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0.abs();
        if v >= 1e9 {
            write!(f, "{:.4} GHz", self.ghz())
        } else if v >= 1e6 {
            write!(f, "{:.3} MHz", self.mhz())
        } else if v >= 1e3 {
            write!(f, "{:.3} kHz", self.khz())
        } else {
            write!(f, "{:.1} Hz", self.0)
        }
    }
}

/// A contiguous frequency band `[low, high]`.
///
/// The mmX paper uses two unlicensed mmWave allocations (§7a): the 24 GHz
/// ISM band (250 MHz wide) and the 60 GHz band (7 GHz wide). Both are
/// provided as constructors; the FDM allocator in `mmx-net` slices a `Band`
/// into per-node channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Lower band edge.
    pub low: Hertz,
    /// Upper band edge.
    pub high: Hertz,
}

impl Band {
    /// Creates a band from its edges. Panics if `low > high`.
    pub fn new(low: Hertz, high: Hertz) -> Self {
        assert!(low.hz() <= high.hz(), "band edges out of order");
        Band { low, high }
    }

    /// The 24 GHz ISM band: 24.00–24.25 GHz (250 MHz wide).
    pub fn ism_24ghz() -> Self {
        Band::new(Hertz::from_ghz(24.0), Hertz::from_ghz(24.25))
    }

    /// The unlicensed 60 GHz band: 57–64 GHz (7 GHz wide).
    pub fn unlicensed_60ghz() -> Self {
        Band::new(Hertz::from_ghz(57.0), Hertz::from_ghz(64.0))
    }

    /// Total bandwidth of the band.
    pub fn bandwidth(&self) -> Hertz {
        self.high - self.low
    }

    /// Center frequency of the band.
    pub fn center(&self) -> Hertz {
        Hertz((self.low.hz() + self.high.hz()) / 2.0)
    }

    /// True when `f` lies inside the band (inclusive).
    pub fn contains(&self, f: Hertz) -> bool {
        f.hz() >= self.low.hz() && f.hz() <= self.high.hz()
    }

    /// True when `other` is fully contained in `self`.
    pub fn contains_band(&self, other: &Band) -> bool {
        self.contains(other.low) && self.contains(other.high)
    }

    /// True when the two bands share any frequency.
    pub fn overlaps(&self, other: &Band) -> bool {
        self.low.hz() <= other.high.hz() && other.low.hz() <= self.high.hz()
    }

    /// A sub-band of width `width` whose center is `center`.
    pub fn centered(center: Hertz, width: Hertz) -> Self {
        Band::new(center - width / 2.0, center + width / 2.0)
    }
}

impl fmt::Display for Band {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.low, self.high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(Hertz::from_ghz(24.0), Hertz::from_mhz(24_000.0));
        assert_eq!(Hertz::from_mhz(1.0), Hertz::from_khz(1_000.0));
        assert_eq!(Hertz::from_khz(1.0), Hertz::new(1_000.0));
    }

    #[test]
    fn wavelength_at_24ghz() {
        close(Hertz::from_ghz(24.0).wavelength_m(), 0.012491, 1e-5);
    }

    #[test]
    fn ism_band_is_250mhz() {
        let b = Band::ism_24ghz();
        close(b.bandwidth().mhz(), 250.0, 1e-9);
        close(b.center().ghz(), 24.125, 1e-9);
    }

    #[test]
    fn sixty_ghz_band_is_7ghz() {
        close(Band::unlicensed_60ghz().bandwidth().ghz(), 7.0, 1e-9);
    }

    #[test]
    fn band_containment_and_overlap() {
        let b = Band::ism_24ghz();
        assert!(b.contains(Hertz::from_ghz(24.1)));
        assert!(!b.contains(Hertz::from_ghz(23.9)));
        let sub = Band::centered(Hertz::from_ghz(24.1), Hertz::from_mhz(25.0));
        assert!(b.contains_band(&sub));
        assert!(b.overlaps(&sub));
        let disjoint = Band::centered(Hertz::from_ghz(60.0), Hertz::from_mhz(25.0));
        assert!(!b.overlaps(&disjoint));
    }

    #[test]
    #[should_panic(expected = "band edges")]
    fn inverted_band_panics() {
        let _ = Band::new(Hertz::from_ghz(25.0), Hertz::from_ghz(24.0));
    }

    #[test]
    fn frequency_arithmetic() {
        let f = Hertz::from_ghz(24.0) + Hertz::from_mhz(100.0);
        close(f.ghz(), 24.1, 1e-12);
        close((f - Hertz::from_ghz(24.0)).mhz(), 100.0, 1e-6);
        close(Hertz::from_ghz(24.0) / Hertz::from_ghz(12.0), 2.0, 1e-12);
        close(
            Hertz::from_ghz(24.0).abs_diff(Hertz::from_ghz(24.1)).mhz(),
            100.0,
            1e-6,
        );
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Hertz::from_ghz(24.125)), "24.1250 GHz");
        assert_eq!(format!("{}", Hertz::from_mhz(25.0)), "25.000 MHz");
        assert_eq!(format!("{}", Hertz::from_khz(10.0)), "10.000 kHz");
        assert_eq!(format!("{}", Hertz::new(15.0)), "15.0 Hz");
    }
}
