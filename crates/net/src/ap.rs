//! The access-point station model.

use mmx_antenna::element::Element;
use mmx_antenna::tma::Tma;
use mmx_channel::response::Pose;
use mmx_rf::frontend::ApFrontEnd;
use mmx_units::{Db, Hertz};
use std::fmt;

/// Identifier of an AP on the coordination plane.
///
/// Mirrors [`NodeId`](crate::control::NodeId): a dense `u16` index
/// assigned at deployment time, carried in inter-AP messages
/// ([`crate::multi_ap::ApMsg`]), handoff FSM states
/// ([`crate::link::LinkState::Handoff`]), traces and reports instead of
/// bare `usize` indices. It lives here rather than in `mmx-core`
/// because `mmx-core` sits *above* `mmx-net` in the crate graph;
/// `mmx-core`'s prelude re-exports it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ApId(pub u16);

impl ApId {
    /// The id as a dense array index (APs are numbered 0..N at
    /// deployment).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ApId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ap{}", self.0)
    }
}

/// The mmX AP: receive chain plus either a single dipole (the prototype,
/// §8.2) or a TMA (the multi-node SDM extension, §7(b)).
#[derive(Debug, Clone)]
pub struct ApStation {
    /// Position and facing in the room.
    pub pose: Pose,
    id: ApId,
    front_end: ApFrontEnd,
    tma: Option<Tma>,
}

impl ApStation {
    /// The prototype AP: dipole only.
    pub fn dipole(pose: Pose) -> Self {
        ApStation {
            pose,
            id: ApId::default(),
            front_end: ApFrontEnd::standard(),
            tma: None,
        }
    }

    /// An SDM-capable AP with an `n`-element TMA switching at
    /// `switch_freq`.
    pub fn with_tma(pose: Pose, n: usize, switch_freq: Hertz) -> Self {
        ApStation {
            pose,
            id: ApId::default(),
            front_end: ApFrontEnd::standard(),
            tma: Some(Tma::new(n, Hertz::from_ghz(24.0), switch_freq)),
        }
    }

    /// Tags the AP with its deployment id (builder style; single-AP
    /// simulations keep the default `ap0`).
    pub fn with_id(mut self, id: ApId) -> Self {
        self.id = id;
        self
    }

    /// The AP's deployment id.
    pub fn id(&self) -> ApId {
        self.id
    }

    /// The receive chain.
    pub fn front_end(&self) -> &ApFrontEnd {
        &self.front_end
    }

    /// The TMA, when fitted.
    pub fn tma(&self) -> Option<&Tma> {
        self.tma.as_ref()
    }

    /// The antenna element used for single-node links.
    pub fn element(&self) -> Element {
        Element::ApDipole
    }

    /// Cascaded receiver noise figure.
    pub fn noise_figure(&self) -> Db {
        self.front_end.noise_figure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmx_channel::Vec2;
    use mmx_units::Degrees;

    fn pose() -> Pose {
        Pose::new(Vec2::new(5.5, 2.0), Degrees::new(180.0))
    }

    #[test]
    fn dipole_ap_has_no_tma() {
        let ap = ApStation::dipole(pose());
        assert!(ap.tma().is_none());
        assert_eq!(ap.element(), Element::ApDipole);
    }

    #[test]
    fn tma_ap_exposes_array() {
        let ap = ApStation::with_tma(pose(), 8, Hertz::from_mhz(1.0));
        assert_eq!(ap.tma().expect("tma").len(), 8);
    }

    #[test]
    fn ap_id_defaults_to_zero_and_is_settable() {
        let ap = ApStation::dipole(pose());
        assert_eq!(ap.id(), ApId(0));
        let ap = ApStation::with_tma(pose(), 8, Hertz::from_mhz(1.0)).with_id(ApId(3));
        assert_eq!(ap.id().index(), 3);
        assert_eq!(format!("{}", ap.id()), "ap3");
    }

    #[test]
    fn ap_ids_order_like_their_indices() {
        assert!(ApId(1) < ApId(2));
        assert_eq!(ApId::default(), ApId(0));
    }

    #[test]
    fn noise_figure_matches_cascade() {
        let ap = ApStation::dipole(pose());
        let nf = ap.noise_figure().value();
        assert!(nf > 2.0 && nf < 3.0, "NF = {nf}");
    }
}
