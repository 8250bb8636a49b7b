//! Angles in degrees and radians, with wrapping helpers.
//!
//! Antenna patterns, beam directions and angles of departure/arrival are
//! all azimuth angles in this reproduction (the paper's elevation pattern
//! is a wide 65° patch beam which we model as a scalar gain factor).

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An angle in degrees.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Degrees(pub f64);

/// An angle in radians.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Radians(pub f64);

impl Degrees {
    /// Creates an angle from degrees.
    pub const fn new(deg: f64) -> Self {
        Degrees(deg)
    }

    /// The value in degrees.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to radians.
    pub fn to_radians(self) -> Radians {
        Radians(self.0.to_radians())
    }

    /// Wraps into `(-180, 180]`.
    pub fn wrapped(self) -> Degrees {
        let mut d = self.0 % 360.0;
        if d > 180.0 {
            d -= 360.0;
        } else if d <= -180.0 {
            d += 360.0;
        }
        Degrees(d)
    }

    /// Smallest absolute angular distance to `other`, in `[0, 180]`.
    pub fn distance(self, other: Degrees) -> Degrees {
        Degrees((self - other).wrapped().0.abs())
    }

    /// Absolute value.
    pub fn abs(self) -> Degrees {
        Degrees(self.0.abs())
    }
}

impl Radians {
    /// Creates an angle from radians.
    pub const fn new(rad: f64) -> Self {
        Radians(rad)
    }

    /// The value in radians.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to degrees.
    pub fn to_degrees(self) -> Degrees {
        Degrees(self.0.to_degrees())
    }

    /// Sine of the angle.
    pub fn sin(self) -> f64 {
        self.0.sin()
    }

    /// Cosine of the angle.
    pub fn cos(self) -> f64 {
        self.0.cos()
    }
}

macro_rules! angle_ops {
    ($t:ident) => {
        impl Add for $t {
            type Output = $t;
            fn add(self, rhs: $t) -> $t {
                $t(self.0 + rhs.0)
            }
        }
        impl Sub for $t {
            type Output = $t;
            fn sub(self, rhs: $t) -> $t {
                $t(self.0 - rhs.0)
            }
        }
        impl Neg for $t {
            type Output = $t;
            fn neg(self) -> $t {
                $t(-self.0)
            }
        }
        impl Mul<f64> for $t {
            type Output = $t;
            fn mul(self, rhs: f64) -> $t {
                $t(self.0 * rhs)
            }
        }
        impl Div<f64> for $t {
            type Output = $t;
            fn div(self, rhs: f64) -> $t {
                $t(self.0 / rhs)
            }
        }
    };
}

angle_ops!(Degrees);
angle_ops!(Radians);

impl From<Degrees> for Radians {
    fn from(d: Degrees) -> Radians {
        d.to_radians()
    }
}

impl From<Radians> for Degrees {
    fn from(r: Radians) -> Degrees {
        r.to_degrees()
    }
}

impl fmt::Display for Degrees {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}°", self.0)
    }
}

impl fmt::Display for Radians {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} rad", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn degree_radian_roundtrip() {
        let d = Degrees::new(30.0);
        close(d.to_radians().value(), std::f64::consts::FRAC_PI_6, 1e-12);
        close(d.to_radians().to_degrees().value(), 30.0, 1e-12);
    }

    #[test]
    fn wrapping_into_half_open_range() {
        close(Degrees::new(190.0).wrapped().value(), -170.0, 1e-12);
        close(Degrees::new(-190.0).wrapped().value(), 170.0, 1e-12);
        close(Degrees::new(360.0).wrapped().value(), 0.0, 1e-12);
        close(Degrees::new(180.0).wrapped().value(), 180.0, 1e-12);
        close(Degrees::new(-180.0).wrapped().value(), 180.0, 1e-12);
        close(Degrees::new(720.0 + 45.0).wrapped().value(), 45.0, 1e-12);
    }

    #[test]
    fn angular_distance_is_shortest_arc() {
        close(
            Degrees::new(170.0).distance(Degrees::new(-170.0)).value(),
            20.0,
            1e-12,
        );
        close(
            Degrees::new(0.0).distance(Degrees::new(30.0)).value(),
            30.0,
            1e-12,
        );
    }

    #[test]
    fn trig_helpers() {
        close(Degrees::new(30.0).to_radians().sin(), 0.5, 1e-12);
        close(Degrees::new(60.0).to_radians().cos(), 0.5, 1e-12);
    }

    #[test]
    fn conversions_via_from() {
        let r: Radians = Degrees::new(90.0).into();
        close(r.value(), std::f64::consts::FRAC_PI_2, 1e-12);
        let d: Degrees = Radians::new(std::f64::consts::PI).into();
        close(d.value(), 180.0, 1e-12);
    }
}
