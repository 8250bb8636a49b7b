//! The three workloads, built through the simulators' public entry
//! points, and the geometry the per-layer timings feed to each layer.
//!
//! Why these three: `scale_500` is setup-bound (the N×N spatial-gain
//! table and per-packet SINR sums over 500 nodes), `churn_60` is
//! loop-bound (ray tracing with blockers, fading, BER, the control
//! plane and observability, with almost no setup), and `corridor_4ap`
//! is the only one on the multi-AP engine. A gain-table change should
//! move the first and leave the second alone.

use crate::stats::Digest;
use mmx_bench::{fig13_multi_ap, fig13_scale};
use mmx_channel::blockage::HumanBlocker;
use mmx_channel::response::Pose;
use mmx_channel::room::{Material, Room};
use mmx_channel::Vec2;
use mmx_net::ap::ApStation;
use mmx_net::multi_ap::{HandoffReport, MultiApConfig, MultiApReport, MultiApSim};
use mmx_net::node::NodeStation;
use mmx_net::sdm::SdmSlot;
use mmx_net::sim::{FadingConfig, NetworkSim};
use mmx_net::{BandPlan, FaultConfig, NetworkReport, RecoveryReport};
use mmx_obs::Recorder;
use mmx_units::{BitRate, Db, Degrees, Hertz, Seconds};
use rand::{Rng, SeedableRng};

/// Worker threads every measured simulation uses. Pinned rather than
/// `0` (auto) so that both sides of a comparison use the same pool.
pub const THREADS: usize = 2;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fig13_scale::scale_topology(500, …)` as shipped: 50 ms, static
    /// engine, recorder off.
    Scale500,
    /// `scale_topology(60, …)` on the faulted engine for 2 s, with 4
    /// walkers, indoor fading and the fault cocktail, observed.
    Churn60,
    /// `fig13_multi_ap::corridor(4, 300, …)` for 1 s, with 2 walkers,
    /// indoor fading and a lossy backhaul, observed.
    Corridor4ap,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::Scale500, Workload::Churn60, Workload::Corridor4ap];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scale500 => "scale_500",
            Workload::Churn60 => "churn_60",
            Workload::Corridor4ap => "corridor_4ap",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Nodes every report must hold.
    pub fn nodes(self) -> usize {
        match self {
            Workload::Scale500 => 500,
            Workload::Churn60 => 60,
            Workload::Corridor4ap => 300,
        }
    }

    /// Samples the deterministic statistics (delivery, goodput, SINR and
    /// the layer counts) are taken over — seeds `seed .. seed + n`,
    /// whatever the host's speed. Enough that the mean moves by ~1% from
    /// one seed list to the next: `churn_60`'s faults make its runs vary
    /// most from seed to seed.
    pub fn stat_seeds(self) -> u64 {
        match self {
            Workload::Churn60 => 64,
            Workload::Scale500 | Workload::Corridor4ap => 8,
        }
    }

    /// Threads the host-speed kernel runs on for this workload: those
    /// its runs mostly keep busy. About 90% of a `scale_500` run is
    /// serial setup; the other two spend most of their time in the
    /// two-thread gather loop. (On a host that withholds one CPU, a
    /// two-thread kernel slows down and serial setup does not.)
    pub fn calibration_threads(self) -> usize {
        match self {
            Workload::Scale500 => 1,
            Workload::Churn60 | Workload::Corridor4ap => THREADS,
        }
    }

    /// Whether the workload runs under an enabled recorder.
    pub fn observed(self) -> bool {
        self != Workload::Scale500
    }

    /// Builds the workload's simulation for one seed.
    pub fn build(self, seed: u64, threads: usize) -> Sim {
        match self {
            Workload::Scale500 => Sim::Single(fig13_scale::scale_topology(500, seed, threads)),
            Workload::Churn60 => {
                let mut sim = fig13_scale::scale_topology(60, seed, threads);
                let cfg = sim.config_mut();
                cfg.duration = Seconds::new(2.0);
                cfg.walkers = 4;
                cfg.fading = Some(FadingConfig::indoor());
                cfg.faults = Some(
                    FaultConfig::lossy(0.2)
                        .with_churn(2.0, Seconds::from_millis(100.0))
                        .with_bursts(2.0, Seconds::from_millis(40.0), Db::new(25.0)),
                );
                Sim::Single(sim)
            }
            Workload::Corridor4ap => {
                let mut sim = fig13_multi_ap::corridor(4, 300, seed, threads);
                let cfg = sim.config_mut();
                cfg.duration = Seconds::new(1.0);
                cfg.walkers = 2;
                cfg.fading = Some(FadingConfig::indoor());
                cfg.inter_ap_faults = Some(FaultConfig::lossy(0.25));
                Sim::Multi(sim)
            }
        }
    }

    /// The workload's stations and initial blockers, rebuilt on the
    /// benchmark's side so each layer can be called on them directly.
    /// [`Geometry::rebuild`] checks that they reproduce the workload.
    pub fn geometry(self, seed: u64) -> Geometry {
        let (room, aps, nodes) = match self {
            Workload::Scale500 => scale_stations(500, seed),
            Workload::Churn60 => scale_stations(60, seed),
            Workload::Corridor4ap => corridor_stations(4, 300),
        };
        let p = self.build(seed, THREADS).params();
        let blockers = (0..p.walkers)
            .map(|k| {
                // Walkers start where both engines place them; the
                // first blocker constellation is theirs.
                let x = room.width() * (0.25 + 0.5 * (k as f64 / p.walkers.max(1) as f64));
                HumanBlocker::typical(Vec2::new(x, room.depth() * 0.5))
            })
            .collect();
        Geometry {
            room,
            aps,
            nodes,
            blockers,
        }
    }
}

/// Mirrors `fig13_scale::scale_topology`'s station placement.
fn scale_stations(n: usize, seed: u64) -> (Room, Vec<ApStation>, Vec<NodeStation>) {
    let room = Room::rectangular(6.0, 4.0, Material::Drywall);
    let ap_pos = Vec2::new(5.7, 2.0);
    let ap = ApStation::with_tma(
        Pose::new(ap_pos, Degrees::new(180.0)),
        32,
        Hertz::from_mhz(1.0),
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5CA1E);
    let nodes = (0..n)
        .map(|i| {
            let pos = loop {
                let p = Vec2::new(rng.gen_range(0.4..4.8), rng.gen_range(0.4..3.6));
                let bearing = (p - ap_pos).bearing() - Degrees::new(180.0);
                if bearing.wrapped().value().abs() < 55.0 && p.distance(ap_pos) > 1.0 {
                    break p;
                }
            };
            let facing = (ap_pos - pos).bearing() + Degrees::new(rng.gen_range(-30.0..30.0));
            NodeStation::new(i as u16, Pose::new(pos, facing), BitRate::from_mbps(1.0))
        })
        .collect();
    (room, vec![ap], nodes)
}

/// Mirrors `fig13_multi_ap::corridor`'s station placement.
fn corridor_stations(a: usize, n: usize) -> (Room, Vec<ApStation>, Vec<NodeStation>) {
    let (w, d) = (16.0, 4.0);
    let room = Room::rectangular(w, d, Material::Drywall);
    let aps = (0..a)
        .map(|k| {
            let x = w * (k as f64 + 0.5) / a as f64;
            ApStation::with_tma(
                Pose::new(Vec2::new(x, d - 0.3), Degrees::new(270.0)),
                16,
                Hertz::from_mhz(1.0),
            )
        })
        .collect();
    let nodes = (0..n)
        .map(|i| {
            let fx = ((i as f64 + 0.5) * 0.618_033_988_75).fract();
            let fy = ((i as f64 + 0.5) * 0.381_966_011_25).fract();
            let pos = Vec2::new(0.6 + fx * (w - 1.2), 0.6 + fy * 2.0);
            NodeStation::new(
                i as u16,
                Pose::new(pos, Degrees::new(90.0)),
                BitRate::from_mbps(1.0),
            )
        })
        .collect();
    (room, aps, nodes)
}

/// A workload's stations and initial blockers.
pub struct Geometry {
    /// The room.
    pub room: Room,
    /// The APs, in deployment order.
    pub aps: Vec<ApStation>,
    /// The nodes, in id order.
    pub nodes: Vec<NodeStation>,
    /// The blockers at t = 0.
    pub blockers: Vec<HumanBlocker>,
}

impl Geometry {
    /// A simulation of these stations under `like`'s configuration. Its
    /// report must equal `like`'s, or the layer timings would be fed
    /// inputs other than the workload's.
    pub fn rebuild(&self, like: &Sim) -> Sim {
        match like {
            Sim::Single(s) => {
                let mut sim =
                    NetworkSim::new(self.room.clone(), self.aps[0].clone(), s.config().clone());
                for n in &self.nodes {
                    sim.add_node(n.clone());
                }
                Sim::Single(sim)
            }
            Sim::Multi(s) => {
                let mut sim = MultiApSim::new(self.room.clone(), s.config().clone());
                for ap in &self.aps {
                    sim.add_ap(ap.clone());
                }
                for n in &self.nodes {
                    sim.add_node(n.clone());
                }
                Sim::Multi(sim)
            }
        }
    }

    /// Angle of arrival of node `i` at AP `a`, relative to its facing.
    pub fn aoa(&self, a: usize, i: usize) -> Degrees {
        let ap = &self.aps[a].pose;
        ((self.nodes[i].pose.position - ap.position).bearing() - ap.facing).wrapped()
    }
}

/// The configuration values the layers are called with.
pub struct Params {
    /// Path-loss exponent.
    pub path_loss_exponent: f64,
    /// Implementation loss.
    pub implementation_loss: Db,
    /// Two-bounce ray tracing.
    pub second_order: bool,
    /// The band plan.
    pub plan: BandPlan,
    /// SDM channel width.
    pub sdm_width: Hertz,
    /// Walkers.
    pub walkers: usize,
    /// Fading (indoor when the workload runs without it, so the layer
    /// is still timed on the workload's channels).
    pub fading: FadingConfig,
    /// Coverage cone half-angle of every AP.
    pub coverage_half_angle: Degrees,
    /// Coverage cone range of every AP.
    pub coverage_range_m: f64,
}

/// One workload simulation on either engine.
pub enum Sim {
    /// The single-AP engine.
    Single(NetworkSim),
    /// The multi-AP engine.
    Multi(MultiApSim),
}

impl Sim {
    /// Sets the horizon to the smallest positive duration: the run call
    /// then does its setup and (almost) no packet loop.
    pub fn set_min_horizon(&mut self) {
        let d = Seconds::new(f64::MIN_POSITIVE);
        match self {
            Sim::Single(s) => s.config_mut().duration = d,
            Sim::Multi(s) => s.config_mut().duration = d,
        }
    }

    /// Runs the simulation into `rec` (pass a disabled recorder for the
    /// plain `run()` path).
    pub fn run(&self, rec: &mut Recorder) -> Result<Report, String> {
        match self {
            Sim::Single(s) => s
                .run_observed(rec)
                .map(Report::Single)
                .map_err(|e| format!("{e:?}")),
            Sim::Multi(s) => s
                .run_observed(rec)
                .map(Report::Multi)
                .map_err(|e| format!("{e:?}")),
        }
    }

    /// The layer-call configuration.
    pub fn params(&self) -> Params {
        let standard = MultiApConfig::standard();
        match self {
            Sim::Single(s) => {
                let c = s.config();
                Params {
                    path_loss_exponent: c.path_loss_exponent,
                    implementation_loss: c.implementation_loss,
                    second_order: c.second_order_reflections,
                    plan: c.plan.clone(),
                    sdm_width: c.sdm_channel_width,
                    walkers: c.walkers,
                    fading: c.fading.unwrap_or_else(FadingConfig::indoor),
                    coverage_half_angle: standard.coverage_half_angle,
                    coverage_range_m: standard.coverage_range_m,
                }
            }
            Sim::Multi(s) => {
                let c = s.config();
                Params {
                    path_loss_exponent: c.path_loss_exponent,
                    implementation_loss: c.implementation_loss,
                    second_order: false,
                    plan: c.plan.clone(),
                    sdm_width: c.sdm_channel_width,
                    walkers: c.walkers,
                    fading: c.fading.unwrap_or_else(FadingConfig::indoor),
                    coverage_half_angle: c.coverage_half_angle,
                    coverage_range_m: c.coverage_range_m,
                }
            }
        }
    }
}

/// A run's report from either engine.
pub enum Report {
    /// Single-AP report.
    Single(NetworkReport),
    /// Multi-AP report.
    Multi(MultiApReport),
}

/// One node's row of a report, engine-independent.
#[derive(Debug, Clone, Copy)]
pub struct NodeRow {
    /// Packets sent.
    pub sent: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Mean SINR, dB (NaN when nothing was sent).
    pub sinr_db: f64,
    /// The node's slot.
    pub slot: SdmSlot,
    /// Serving AP index (0 on the single-AP engine).
    pub ap: usize,
    /// Admitted (always, on the single-AP engine).
    pub admitted: bool,
}

/// What the benchmark keeps of a report.
pub struct Outcome {
    /// Per-node rows.
    pub rows: Vec<NodeRow>,
    /// Aggregate goodput, bit/s.
    pub goodput_bps: f64,
    /// Mean of the per-node mean SINRs, dB.
    pub mean_sinr_db: f64,
    /// Whether the single-AP engine fell back to SDM.
    pub used_sdm: bool,
    /// Control-plane and fault counters (default on the static engine).
    pub recovery: RecoveryReport,
    /// Roaming counters (multi-AP engine only).
    pub handoff: Option<HandoffReport>,
    /// Digest of the whole report.
    pub digest: Digest,
}

impl Report {
    /// Reduces the report to what the benchmark measures and checks.
    pub fn outcome(&self) -> Outcome {
        match self {
            Report::Single(r) => Outcome {
                rows: r
                    .nodes
                    .iter()
                    .map(|n| NodeRow {
                        sent: n.sent,
                        delivered: n.delivered,
                        sinr_db: n.mean_sinr_db,
                        slot: n.slot,
                        ap: 0,
                        admitted: true,
                    })
                    .collect(),
                goodput_bps: r.nodes.iter().map(|n| n.goodput_bps).sum(),
                mean_sinr_db: r.mean_sinr_db(),
                used_sdm: r.used_sdm,
                recovery: r.recovery.clone(),
                handoff: None,
                digest: Digest::new().write_debug(r),
            },
            Report::Multi(r) => Outcome {
                rows: r
                    .nodes
                    .iter()
                    .map(|n| NodeRow {
                        sent: n.sent,
                        delivered: n.delivered,
                        sinr_db: n.mean_sinr_db,
                        slot: n.slot,
                        ap: n.ap.index(),
                        admitted: n.admitted,
                    })
                    .collect(),
                goodput_bps: r.total_goodput_bps(),
                mean_sinr_db: r.mean_sinr_db(),
                used_sdm: true,
                recovery: RecoveryReport::default(),
                handoff: Some(r.handoff.clone()),
                digest: Digest::new().write_debug(r),
            },
        }
    }
}

impl Outcome {
    /// Packets sent over all nodes.
    pub fn sent(&self) -> u64 {
        self.rows.iter().map(|r| r.sent).sum()
    }

    /// Packets delivered over all nodes.
    pub fn delivered(&self) -> u64 {
        self.rows.iter().map(|r| r.delivered).sum()
    }

    /// Output-check violations of one full-length run: the report holds
    /// every node, no node delivered more than it sent, and no packet
    /// was delivered twice.
    pub fn violations(&self, nodes: usize) -> Vec<String> {
        let mut v = Vec::new();
        if self.rows.len() != nodes {
            v.push(format!(
                "report holds {} nodes, not {nodes}",
                self.rows.len()
            ));
        }
        for (i, r) in self.rows.iter().enumerate() {
            if r.delivered > r.sent {
                v.push(format!(
                    "node {i} delivered {} > sent {}",
                    r.delivered, r.sent
                ));
            }
        }
        if let Some(h) = &self.handoff {
            if h.duplicate_deliveries != 0 {
                v.push(format!("{} duplicate deliveries", h.duplicate_deliveries));
            }
        }
        v
    }
}
