//! The room model: walls, reflectors and static obstacles.

use crate::geometry::{Segment, Vec2};
use mmx_units::Db;

/// Reflection loss of a surface material at 24 GHz.
///
/// Calibrated so the paper's §6.1 margins come out of the geometry: an
/// NLoS bounce costs the reflection loss below *plus* the extra
/// spreading of the longer path (≈3–8 dB indoors), totalling the quoted
/// 10–20 dB over LoS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Material {
    /// Painted drywall: ~10 dB reflection loss.
    Drywall,
    /// Concrete: ~8 dB.
    Concrete,
    /// Glass (windows): ~17 dB.
    Glass,
    /// Metal (whiteboards, cabinets): ~6 dB — the strong reflectors that
    /// make NLoS mmWave links viable.
    Metal,
    /// An explicit loss for custom surfaces.
    Custom(f64),
}

impl Material {
    /// One-bounce reflection loss.
    pub fn reflection_loss(self) -> Db {
        Db::new(match self {
            Material::Drywall => 10.0,
            Material::Concrete => 8.0,
            Material::Glass => 17.0,
            Material::Metal => 6.0,
            Material::Custom(db) => db,
        })
    }
}

/// A reflective surface in the room.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Surface {
    /// The surface geometry.
    pub segment: Segment,
    /// Its material.
    pub material: Material,
}

/// A static obstacle that blocks (but does not usefully reflect) paths —
/// furniture, closets, pillars. Modeled as an opaque segment with a
/// penetration loss instead of total opacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obstacle {
    /// The blocking geometry.
    pub segment: Segment,
    /// Loss added to any path crossing it.
    pub penetration_loss: Db,
}

/// A rectangular room with reflective walls, extra reflectors and
/// obstacles. Coordinates: the room spans `[0, width] × [0, depth]`.
#[derive(Debug, Clone)]
pub struct Room {
    width: f64,
    depth: f64,
    surfaces: Vec<Surface>,
    obstacles: Vec<Obstacle>,
}

impl Room {
    /// An empty rectangular room with four walls of the given material.
    pub fn rectangular(width: f64, depth: f64, walls: Material) -> Self {
        assert!(
            width > 0.0 && depth > 0.0,
            "room dimensions must be positive"
        );
        let c = [
            Vec2::new(0.0, 0.0),
            Vec2::new(width, 0.0),
            Vec2::new(width, depth),
            Vec2::new(0.0, depth),
        ];
        let surfaces = (0..4)
            .map(|i| Surface {
                segment: Segment::new(c[i], c[(i + 1) % 4]),
                material: walls,
            })
            .collect();
        Room {
            width,
            depth,
            surfaces,
            obstacles: Vec::new(),
        }
    }

    /// The paper's testbed: a 6 m × 4 m lab with drywall walls, a metal
    /// whiteboard on the long wall and a glass window section, plus desk
    /// and closet obstacles ("standard furniture such as desks, chairs,
    /// computers and closets", §9).
    pub fn paper_lab() -> Self {
        let mut room = Room::rectangular(6.0, 4.0, Material::Drywall);
        // Metal whiteboard along part of the y=4 wall.
        room.add_surface(Surface {
            segment: Segment::new(Vec2::new(1.5, 3.98), Vec2::new(3.5, 3.98)),
            material: Material::Metal,
        });
        // Glass window along part of the y=0 wall.
        room.add_surface(Surface {
            segment: Segment::new(Vec2::new(3.0, 0.02), Vec2::new(5.0, 0.02)),
            material: Material::Glass,
        });
        // A closet near the far corner and a desk mid-room.
        room.add_obstacle(Obstacle {
            segment: Segment::new(Vec2::new(5.3, 2.8), Vec2::new(5.3, 3.8)),
            penetration_loss: Db::new(30.0),
        });
        room.add_obstacle(Obstacle {
            segment: Segment::new(Vec2::new(2.0, 1.8), Vec2::new(3.0, 1.8)),
            penetration_loss: Db::new(12.0),
        });
        room
    }

    /// Room width (x extent).
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Room depth (y extent).
    pub fn depth(&self) -> f64 {
        self.depth
    }

    /// Adds a reflective surface.
    pub fn add_surface(&mut self, s: Surface) {
        self.surfaces.push(s);
    }

    /// Adds a blocking obstacle.
    pub fn add_obstacle(&mut self, o: Obstacle) {
        self.obstacles.push(o);
    }

    /// All reflective surfaces (walls first).
    pub fn surfaces(&self) -> &[Surface] {
        &self.surfaces
    }

    /// All obstacles.
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// True when `p` lies inside the room (with a small margin off the
    /// walls).
    pub fn contains(&self, p: Vec2) -> bool {
        let eps = 1e-9;
        p.x > eps && p.x < self.width - eps && p.y > eps && p.y < self.depth - eps
    }

    /// Total penetration loss of obstacles crossed by the segment
    /// `a -> b`. Returns `Db::ZERO` for a clear segment.
    pub fn obstruction_loss(&self, a: Vec2, b: Vec2) -> Db {
        if a.distance(b) < 1e-12 {
            return Db::ZERO;
        }
        let seg = Segment::new(a, b);
        self.obstacles
            .iter()
            .filter(|o| seg.intersection(o.segment).is_some())
            .map(|o| o.penetration_loss)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_room_has_four_walls() {
        let r = Room::rectangular(6.0, 4.0, Material::Drywall);
        assert_eq!(r.surfaces().len(), 4);
        assert!(r.obstacles().is_empty());
        assert_eq!(r.width(), 6.0);
        assert_eq!(r.depth(), 4.0);
    }

    #[test]
    fn containment() {
        let r = Room::rectangular(6.0, 4.0, Material::Drywall);
        assert!(r.contains(Vec2::new(3.0, 2.0)));
        assert!(!r.contains(Vec2::new(-0.1, 2.0)));
        assert!(!r.contains(Vec2::new(3.0, 4.1)));
        assert!(!r.contains(Vec2::new(0.0, 0.0))); // on the wall
    }

    #[test]
    fn paper_lab_has_extra_surfaces_and_obstacles() {
        let lab = Room::paper_lab();
        assert_eq!(lab.surfaces().len(), 6); // 4 walls + whiteboard + window
        assert_eq!(lab.obstacles().len(), 2);
    }

    #[test]
    fn clear_segment_has_no_obstruction_loss() {
        let lab = Room::paper_lab();
        let loss = lab.obstruction_loss(Vec2::new(0.5, 0.5), Vec2::new(1.5, 0.5));
        assert_eq!(loss, Db::ZERO);
    }

    #[test]
    fn segment_through_desk_picks_up_loss() {
        let lab = Room::paper_lab();
        // Crosses the desk at y=1.8 between x=2 and 3.
        let loss = lab.obstruction_loss(Vec2::new(2.5, 1.0), Vec2::new(2.5, 3.0));
        assert_eq!(loss, Db::new(12.0));
    }

    #[test]
    fn segment_through_both_obstacles_accumulates() {
        let mut r = Room::rectangular(6.0, 4.0, Material::Drywall);
        r.add_obstacle(Obstacle {
            segment: Segment::new(Vec2::new(1.0, 0.5), Vec2::new(1.0, 3.5)),
            penetration_loss: Db::new(10.0),
        });
        r.add_obstacle(Obstacle {
            segment: Segment::new(Vec2::new(2.0, 0.5), Vec2::new(2.0, 3.5)),
            penetration_loss: Db::new(5.0),
        });
        let loss = r.obstruction_loss(Vec2::new(0.5, 2.0), Vec2::new(3.0, 2.0));
        assert_eq!(loss, Db::new(15.0));
    }

    #[test]
    fn degenerate_segment_is_clear() {
        let lab = Room::paper_lab();
        let p = Vec2::new(2.5, 1.8);
        assert_eq!(lab.obstruction_loss(p, p), Db::ZERO);
    }

    #[test]
    fn material_losses_ordered_metal_cheapest() {
        assert!(Material::Metal.reflection_loss() < Material::Concrete.reflection_loss());
        assert!(Material::Concrete.reflection_loss() < Material::Drywall.reflection_loss());
        assert!(Material::Drywall.reflection_loss() < Material::Glass.reflection_loss());
        assert_eq!(Material::Custom(3.5).reflection_loss(), Db::new(3.5));
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn zero_size_room_rejected() {
        let _ = Room::rectangular(0.0, 4.0, Material::Drywall);
    }
}
