//! Multi-AP coordination: cross-AP SDM slot arbitration, roaming
//! handoff, and the scaled multi-cell simulator (DESIGN.md §10).
//!
//! Three layers:
//!
//! * [`plan`] — geometry-aware spectrum partitioning: coverage-cone
//!   conflict graphs colored into a [`HarmonicReusePlan`] so
//!   non-overlapping APs reuse channels.
//! * [`proto`] — the epoch-stamped inter-AP admission protocol
//!   ([`ApMsg`]) and the deterministic [`SlotArbiter`].
//! * [`sim`] — the [`MultiApSim`] front end: N AP stacks, per-packet
//!   roaming hysteresis, make-before-break grant transfer over a lossy
//!   backhaul, all under the §9 gather→commit determinism discipline.

pub mod plan;
pub mod proto;
pub mod sim;

pub use plan::{ApCoverage, HarmonicReusePlan, ReusePlanError};
pub use proto::{ApMsg, ArbiterVerdict, SlotArbiter};
pub use sim::{
    HandoffReport, MultiApConfig, MultiApError, MultiApNodeReport, MultiApPacketSample,
    MultiApReport, MultiApSim, PacerRoute,
};
