//! 2-D geometry primitives: vectors, segments, intersection, reflection.
//!
//! The propagation model is two-dimensional (a floor plan); the paper's
//! elevation dimension is absorbed into the antenna element gains.

use mmx_units::{Degrees, Radians};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A 2-D point/vector in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// x coordinate (meters).
    pub x: f64,
    /// y coordinate (meters).
    pub y: f64,
}

impl Vec2 {
    /// The origin.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean length.
    pub fn length(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared length.
    pub fn length_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Distance to another point.
    pub fn distance(self, other: Vec2) -> f64 {
        (other - self).length()
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z component).
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Unit vector in the same direction. Panics on the zero vector.
    pub fn normalized(self) -> Vec2 {
        let l = self.length();
        assert!(l > 0.0, "cannot normalize the zero vector");
        self / l
    }

    /// The world-frame bearing of this vector, measured counterclockwise
    /// from the +x axis.
    pub fn bearing(self) -> Degrees {
        Radians::new(self.y.atan2(self.x)).to_degrees()
    }

    /// A unit vector pointing along `bearing`.
    pub fn from_bearing(bearing: Degrees) -> Vec2 {
        let r = bearing.to_radians();
        Vec2::new(r.cos(), r.sin())
    }

    /// Rotates the vector by `angle` counterclockwise.
    pub fn rotated(self, angle: Degrees) -> Vec2 {
        let r = angle.to_radians();
        let (s, c) = (r.sin(), r.cos());
        Vec2::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x + o.x, self.y + o.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x - o.x, self.y - o.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, k: f64) -> Vec2 {
        Vec2::new(self.x * k, self.y * k)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, k: f64) -> Vec2 {
        Vec2::new(self.x / k, self.y / k)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

/// A line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Vec2,
    /// End point.
    pub b: Vec2,
}

impl Segment {
    /// Creates a segment. Panics on degenerate zero-length segments.
    pub fn new(a: Vec2, b: Vec2) -> Self {
        assert!(a.distance(b) > 1e-12, "degenerate segment");
        Segment { a, b }
    }

    /// Segment length.
    pub fn length(self) -> f64 {
        self.a.distance(self.b)
    }

    /// Midpoint.
    pub fn midpoint(self) -> Vec2 {
        (self.a + self.b) / 2.0
    }

    /// Intersection point with another segment, if the two *properly*
    /// intersect (shared endpoints and collinear overlap return `None`;
    /// propagation treats grazing contact as "not blocked").
    pub fn intersection(self, other: Segment) -> Option<Vec2> {
        let r = self.b - self.a;
        let s = other.b - other.a;
        let denom = r.cross(s);
        if denom.abs() < 1e-12 {
            return None; // parallel or collinear
        }
        let qp = other.a - self.a;
        let t = qp.cross(s) / denom;
        let u = qp.cross(r) / denom;
        let eps = 1e-9;
        if t > eps && t < 1.0 - eps && u > eps && u < 1.0 - eps {
            Some(self.a + r * t)
        } else {
            None
        }
    }

    /// Mirror image of point `p` across the (infinite) line through this
    /// segment — the image-source construction for specular reflection.
    pub fn mirror(self, p: Vec2) -> Vec2 {
        let d = (self.b - self.a).normalized();
        let ap = p - self.a;
        let proj = self.a + d * ap.dot(d);
        proj * 2.0 - p
    }

    /// Shortest distance from point `p` to this segment.
    pub fn distance_to_point(self, p: Vec2) -> f64 {
        let ab = self.b - self.a;
        let t = ((p - self.a).dot(ab) / ab.length_sq()).clamp(0.0, 1.0);
        (self.a + ab * t).distance(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    fn vclose(a: Vec2, b: Vec2, tol: f64) {
        assert!(a.distance(b) < tol, "{a:?} !~ {b:?}");
    }

    #[test]
    fn vector_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        vclose(a + b, Vec2::new(4.0, 1.0), 1e-12);
        vclose(a - b, Vec2::new(-2.0, 3.0), 1e-12);
        vclose(a * 2.0, Vec2::new(2.0, 4.0), 1e-12);
        vclose(-a, Vec2::new(-1.0, -2.0), 1e-12);
        close(a.dot(b), 1.0, 1e-12);
        close(a.cross(b), -7.0, 1e-12);
    }

    #[test]
    fn length_and_distance() {
        close(Vec2::new(3.0, 4.0).length(), 5.0, 1e-12);
        close(
            Vec2::new(1.0, 1.0).distance(Vec2::new(4.0, 5.0)),
            5.0,
            1e-12,
        );
    }

    #[test]
    fn bearings() {
        close(Vec2::new(1.0, 0.0).bearing().value(), 0.0, 1e-12);
        close(Vec2::new(0.0, 1.0).bearing().value(), 90.0, 1e-12);
        close(Vec2::new(-1.0, 0.0).bearing().value(), 180.0, 1e-12);
        vclose(
            Vec2::from_bearing(Degrees::new(90.0)),
            Vec2::new(0.0, 1.0),
            1e-12,
        );
    }

    #[test]
    fn rotation() {
        let v = Vec2::new(1.0, 0.0).rotated(Degrees::new(90.0));
        vclose(v, Vec2::new(0.0, 1.0), 1e-12);
        let w = Vec2::new(1.0, 2.0).rotated(Degrees::new(360.0));
        vclose(w, Vec2::new(1.0, 2.0), 1e-9);
    }

    #[test]
    fn crossing_segments_intersect() {
        let s1 = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(2.0, 2.0));
        let s2 = Segment::new(Vec2::new(0.0, 2.0), Vec2::new(2.0, 0.0));
        let p = s1.intersection(s2).expect("must cross");
        vclose(p, Vec2::new(1.0, 1.0), 1e-12);
    }

    #[test]
    fn parallel_segments_do_not_intersect() {
        let s1 = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(2.0, 0.0));
        let s2 = Segment::new(Vec2::new(0.0, 1.0), Vec2::new(2.0, 1.0));
        assert!(s1.intersection(s2).is_none());
    }

    #[test]
    fn touching_endpoints_do_not_count() {
        let s1 = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(1.0, 1.0));
        let s2 = Segment::new(Vec2::new(1.0, 1.0), Vec2::new(2.0, 0.0));
        assert!(s1.intersection(s2).is_none());
    }

    #[test]
    fn disjoint_segments_do_not_intersect() {
        let s1 = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0));
        let s2 = Segment::new(Vec2::new(3.0, -1.0), Vec2::new(3.0, 1.0));
        assert!(s1.intersection(s2).is_none());
    }

    #[test]
    fn mirror_across_horizontal_wall() {
        let wall = Segment::new(Vec2::new(0.0, 4.0), Vec2::new(6.0, 4.0));
        let img = wall.mirror(Vec2::new(2.0, 1.0));
        vclose(img, Vec2::new(2.0, 7.0), 1e-12);
    }

    #[test]
    fn mirror_is_involution() {
        let wall = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(3.0, 5.0));
        let p = Vec2::new(2.0, -1.0);
        vclose(wall.mirror(wall.mirror(p)), p, 1e-9);
    }

    #[test]
    fn distance_to_point_clamps_to_endpoints() {
        let s = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(2.0, 0.0));
        close(s.distance_to_point(Vec2::new(1.0, 3.0)), 3.0, 1e-12);
        close(s.distance_to_point(Vec2::new(-3.0, 4.0)), 5.0, 1e-12);
        close(s.distance_to_point(Vec2::new(5.0, 4.0)), 5.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_segment_rejected() {
        let _ = Segment::new(Vec2::new(1.0, 1.0), Vec2::new(1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn normalize_zero_panics() {
        let _ = Vec2::ZERO.normalized();
    }
}
