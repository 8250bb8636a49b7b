//! The multi-AP network simulator: N APs sharing the 24 GHz ISM band,
//! hundreds of nodes, cross-AP SDM slot arbitration and roaming.
//!
//! Architecture (DESIGN.md §10):
//!
//! * **Spectrum**: one global equal-width channel grid
//!   ([`crate::fdm::BandPlan::channel_table`]) partitioned by a
//!   [`HarmonicReusePlan`] — co-channel reuse only between APs whose
//!   coverage cones do not overlap.
//! * **Per-AP stack**: every AP runs its own [`SdmScheduler`] over its
//!   TMA and its own [`Admission`](crate::control::Admission)
//!   bookkeeping; the inter-AP
//!   [`SlotArbiter`](crate::multi_ap::SlotArbiter) owns the
//!   (node → AP, epoch) map.
//! * **Roaming**: per-packet SINR-margin hysteresis arms a
//!   make-before-break handoff
//!   ([`crate::link::NodeLink::begin_handoff`]); the `Transfer` and the
//!   returning grant both cross a lossy inter-AP/control link through
//!   the same [`FaultInjector`](crate::faults::FaultInjector) machinery
//!   as the single-AP control plane, with retransmit backoff and
//!   monotonic epochs discarding stale grants.
//! * **Determinism**: [`MultiApSim`] is a front end of the same
//!   gather→commit engine as [`crate::sim::NetworkSim`] (DESIGN.md §9) —
//!   packet gathers (A ray traces each) fan out across worker threads
//!   against a frozen batch snapshot; all protocol and bookkeeping
//!   mutations happen in the single-threaded commit phase in drained
//!   event order. Reports, traces and recovery counters are
//!   byte-identical at any [`MultiApConfig::threads`].
//!
//! The multi-AP front end sets the engine up differently from the
//! single-AP one in a few places: no uplink power control, no rate
//! adaptation and no churn (crash/rejoin injection or the lossy join
//! handshake — every admitted node is granted at t = 0, and the injector
//! only decides backhaul message fates); fading is stepped on the
//! serving-AP channel only (neighbor arrivals stay specular). Candidate-AP
//! SINR uses the node's *current* channel as a proxy for the slot it
//! would get after the transfer — the real slot is assigned by the target
//! AP when the arbiter applies the move.

use crate::ap::{ApId, ApStation};
use crate::control::NodeId;
use crate::engine::{arrival_angle, Control, Plan, Scene, World};
use crate::faults::FaultConfig;
use crate::fdm::{AllocError, BandPlan, ChannelAssignment};
use crate::multi_ap::plan::{ApCoverage, HarmonicReusePlan, ReusePlanError};
use crate::node::NodeStation;
use crate::sdm::{SdmError, SdmScheduler, SdmSlot};
use crate::sim::{wide_admission_plan, FadingConfig};
use mmx_channel::room::Room;
use mmx_channel::Vec2;
use mmx_obs::Recorder;
use mmx_units::{Db, Degrees, Hertz, Seconds};
use std::collections::BTreeMap;

/// A scripted straight-line blocker walking `from` → `to` and back at
/// `speed_mps` — the §9.2 pacing person, with the route under test
/// control so handoff scenarios can cut a specific AP–node ray.
#[derive(Debug, Clone, Copy)]
pub struct PacerRoute {
    /// Route start.
    pub from: Vec2,
    /// Route end.
    pub to: Vec2,
    /// Walking speed, m/s.
    pub speed_mps: f64,
}

/// Multi-AP simulator configuration.
#[derive(Debug, Clone)]
pub struct MultiApConfig {
    /// Simulated duration.
    pub duration: Seconds,
    /// RNG seed — same seed, same run.
    pub seed: u64,
    /// The shared band all APs carve their channel grid from.
    pub plan: BandPlan,
    /// Width of one grid channel (every AP link runs SDM over these).
    pub sdm_channel_width: Hertz,
    /// LoS path-loss exponent.
    pub path_loss_exponent: f64,
    /// Implementation loss (DESIGN.md §5).
    pub implementation_loss: Db,
    /// Number of random-waypoint walkers perturbing the channel.
    pub walkers: usize,
    /// A scripted linear blocker (handoff scenarios).
    pub pacer: Option<PacerRoute>,
    /// Mobility/blockage update period.
    pub step: Seconds,
    /// Rician small-scale fading on the serving-AP channel.
    pub fading: Option<FadingConfig>,
    /// Record a per-packet trace in the report.
    pub record_trace: bool,
    /// Fault injection on the inter-AP/control backhaul (`None` =
    /// reliable, instant-fate backhaul; the injector still runs with a
    /// quiet config so RNG draw counts match across fault intensities).
    pub inter_ap_faults: Option<FaultConfig>,
    /// Decision-SNR threshold below which a packet does not decode.
    pub decode_threshold: Db,
    /// How much better (dB) a neighbor AP must look than the serving AP
    /// before the hysteresis counter advances.
    pub handoff_hysteresis: Db,
    /// Consecutive better-neighbor packets required to arm a handoff.
    pub handoff_window: u32,
    /// Transfer retransmissions before the node gives up (the
    /// coordinator then either resyncs the grant over the reliable
    /// backhaul — if ownership already moved — or the node aborts back
    /// to its serving AP).
    pub max_transfer_retries: u32,
    /// Half-opening angle of each AP's coverage cone.
    pub coverage_half_angle: Degrees,
    /// Radius of each AP's coverage cone, meters.
    pub coverage_range_m: f64,
    /// Worker threads for the gather phase (`0` = auto, same convention
    /// as [`crate::sim::SimConfig::threads`]). Any value produces
    /// byte-identical reports and traces.
    pub threads: usize,
}

impl MultiApConfig {
    /// Defaults matching the single-AP testbed conditions, with the
    /// roaming knobs at their DESIGN.md §10 values.
    pub fn standard() -> Self {
        MultiApConfig {
            duration: Seconds::new(1.0),
            seed: 1,
            plan: BandPlan::ism_24ghz(),
            sdm_channel_width: Hertz::from_mhz(25.0),
            path_loss_exponent: 2.0,
            implementation_loss: Db::new(18.0),
            walkers: 0,
            pacer: None,
            step: Seconds::from_millis(100.0),
            fading: None,
            record_trace: false,
            inter_ap_faults: None,
            decode_threshold: Db::new(5.0),
            handoff_hysteresis: Db::new(3.0),
            handoff_window: 4,
            max_transfer_retries: 5,
            coverage_half_angle: Degrees::new(55.0),
            coverage_range_m: 6.0,
            threads: 1,
        }
    }
}

/// Why a multi-AP simulation could not start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiApError {
    /// No APs were added.
    NoAps,
    /// No nodes were added.
    Empty,
    /// The named AP has no TMA (every multi-AP member schedules by
    /// harmonic).
    NeedsTma(ApId),
    /// The reuse plan could not be built.
    Plan(ReusePlanError),
    /// An AP's SDM scheduler could not separate its members.
    Sdm(SdmError),
    /// Admission bookkeeping rejected a node at setup.
    Admission(AllocError),
}

/// One recorded packet transmission (when `record_trace` is on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiApPacketSample {
    /// Transmission start time.
    pub t: Seconds,
    /// Transmitting node index.
    pub node: usize,
    /// The AP serving the node at transmission time.
    pub ap: ApId,
    /// SINR at the serving AP, dB.
    pub sinr_db: f64,
    /// Whether the packet survived.
    pub delivered: bool,
}

/// Roaming/coordination outcome of a run. All handoff counters are zero
/// when no node ever saw a better neighbor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HandoffReport {
    /// Handoffs armed (hysteresis tripped and the FSM entered
    /// `Handoff`).
    pub attempts: u64,
    /// `Transfer` messages offered to the backhaul (first sends and
    /// retries).
    pub transfers_sent: u64,
    /// `Transfer` messages the injector dropped.
    pub transfers_lost: u64,
    /// Transfer retransmissions forced by loss.
    pub transfer_retries: u64,
    /// Handoffs completed (node accepted the new grant and retuned).
    pub completed: u64,
    /// Handoffs abandoned with ownership unmoved (every transfer copy
    /// lost): the node fell back to its serving AP.
    pub aborted: u64,
    /// Transfers the arbiter or target admission refused.
    pub denied: u64,
    /// Stale inter-AP messages the arbiter discarded by epoch
    /// (duplicates, reordered stragglers).
    pub stale_transfer_msgs: u64,
    /// Stale grants nodes discarded by their epoch watermark.
    pub stale_grants_discarded: u64,
    /// Grants re-delivered over the reliable backhaul after the lossy
    /// path dropped every copy (ownership had already moved).
    pub grant_resyncs: u64,
    /// Mid-handoff packets that would have decoded at *both* the old
    /// and the new AP — the make-before-break overlap window.
    pub dual_decodes: u64,
    /// Packets credited to more than one AP. The monotonic-epoch rules
    /// guarantee at most one AP holds a node's current grant, so this
    /// is asserted zero by the soak tests; it is counted, not assumed.
    pub duplicate_deliveries: u64,
    /// Mean time from arming a handoff to accepting the new grant, s.
    pub mean_handoff_s: f64,
    /// Worst handoff time, s.
    pub max_handoff_s: f64,
}

/// Per-node outcome of a multi-AP run. Floats are plain (0.0, not NaN,
/// when a node never transmitted) so `PartialEq` derives cleanly for
/// the byte-determinism soaks.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiApNodeReport {
    /// Node id.
    pub id: NodeId,
    /// Whether the node was admitted (false = its AP's TMA schedule
    /// had no slot for it; the node stayed silent).
    pub admitted: bool,
    /// The AP serving the node when the run ended (for a rejected
    /// node: the AP that turned it away).
    pub ap: ApId,
    /// Packets transmitted.
    pub sent: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Mean SINR over transmissions, dB (0.0 if none).
    pub mean_sinr_db: f64,
    /// Worst observed SINR, dB (0.0 if none).
    pub min_sinr_db: f64,
    /// Packet error rate.
    pub per: f64,
    /// Application goodput, bit/s.
    pub goodput_bps: f64,
    /// Completed handoffs.
    pub handoffs: u64,
    /// The (global channel, harmonic) slot at run end.
    pub slot: SdmSlot,
}

/// Aggregate outcome of a multi-AP run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiApReport {
    /// Per-node reports, in node order.
    pub nodes: Vec<MultiApNodeReport>,
    /// Nodes admitted per AP at setup (initial association).
    pub per_ap_admitted: Vec<usize>,
    /// Aggregate frequency reuse achieved by the coordinator.
    pub reuse_gain: f64,
    /// Colors the coverage conflict graph needed.
    pub num_colors: usize,
    /// Size of the global channel grid.
    pub capacity: usize,
    /// Simulated duration.
    pub duration: Seconds,
    /// Per-packet trace (empty unless `record_trace`).
    pub trace: Vec<MultiApPacketSample>,
    /// Roaming/coordination counters.
    pub handoff: HandoffReport,
}

impl MultiApReport {
    /// Mean of the per-node mean SINRs, dB.
    pub fn mean_sinr_db(&self) -> f64 {
        if self.nodes.is_empty() {
            return f64::NAN;
        }
        self.nodes.iter().map(|n| n.mean_sinr_db).sum::<f64>() / self.nodes.len() as f64
    }

    /// Aggregate delivery rate (delivered / sent).
    pub fn delivery_rate(&self) -> f64 {
        let sent: u64 = self.nodes.iter().map(|n| n.sent).sum();
        let del: u64 = self.nodes.iter().map(|n| n.delivered).sum();
        if sent == 0 {
            return 0.0;
        }
        del as f64 / sent as f64
    }

    /// Total application goodput, bit/s.
    pub fn total_goodput_bps(&self) -> f64 {
        self.nodes.iter().map(|n| n.goodput_bps).sum()
    }

    /// Nodes whose delivery rate meets `threshold` (the sweep's
    /// "sustained" criterion).
    pub fn sustained(&self, threshold: f64) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.sent > 0 && n.delivered as f64 / n.sent as f64 >= threshold)
            .count()
    }
}

/// The multi-AP network simulator: the multi-cell front end of the
/// simulation engine.
pub struct MultiApSim {
    room: Room,
    aps: Vec<ApStation>,
    nodes: Vec<NodeStation>,
    cfg: MultiApConfig,
}

impl MultiApSim {
    /// Creates a simulator.
    pub fn new(room: Room, cfg: MultiApConfig) -> Self {
        MultiApSim {
            room,
            aps: Vec::new(),
            nodes: Vec::new(),
            cfg,
        }
    }

    /// Adds an AP. Deployment ids are positional: the k-th AP added is
    /// re-tagged `ApId(k)` regardless of any id on the station, so
    /// `ApId::index` always addresses the engine's arrays.
    pub fn add_ap(&mut self, ap: ApStation) -> &mut Self {
        let id = ApId(self.aps.len() as u16);
        self.aps.push(ap.with_id(id));
        self
    }

    /// Adds a node.
    pub fn add_node(&mut self, node: NodeStation) -> &mut Self {
        self.nodes.push(node);
        self
    }

    /// Number of APs.
    pub fn ap_count(&self) -> usize {
        self.aps.len()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The configuration.
    pub fn config(&self) -> &MultiApConfig {
        &self.cfg
    }

    /// Mutable configuration.
    pub fn config_mut(&mut self) -> &mut MultiApConfig {
        &mut self.cfg
    }

    /// Runs the simulation.
    pub fn run(&self) -> Result<MultiApReport, MultiApError> {
        self.run_observed(&mut Recorder::disabled())
    }

    /// [`MultiApSim::run`] with observability: `assoc`, `fsm`, `handoff`
    /// and `apmsg` trace events plus coordination counters flow into
    /// `rec`. Nothing about the run depends on the recorder, so the
    /// trace is a pure function of the scenario — byte-identical across
    /// thread counts.
    pub fn run_observed(&self, rec: &mut Recorder) -> Result<MultiApReport, MultiApError> {
        // ---- validation ----
        if self.aps.is_empty() {
            return Err(MultiApError::NoAps);
        }
        if self.nodes.is_empty() {
            return Err(MultiApError::Empty);
        }
        let tmas = self
            .aps
            .iter()
            .map(|ap| ap.tma().ok_or(MultiApError::NeedsTma(ap.id())))
            .collect::<Result<Vec<_>, _>>()?;
        let (na, nn) = (self.aps.len(), self.nodes.len());
        let cfg = &self.cfg;

        // ---- spectrum coordination ----
        let width = cfg.sdm_channel_width;
        let capacity = cfg.plan.capacity(width).max(1);
        let table: Vec<ChannelAssignment> = cfg.plan.channel_table(width);
        debug_assert!(cfg.plan.validate_channels(&table).is_ok());
        let coverage: Vec<ApCoverage> = self
            .aps
            .iter()
            .map(|ap| ApCoverage::new(ap.pose, cfg.coverage_half_angle, cfg.coverage_range_m))
            .collect();
        let reuse = HarmonicReusePlan::new(&coverage, capacity).map_err(MultiApError::Plan)?;
        let rate = cfg.plan.rate_for(width);

        // ---- geometry ----
        let aoa: Vec<Vec<Degrees>> = self
            .aps
            .iter()
            .map(|ap| self.nodes.iter().map(|n| arrival_angle(ap, n)).collect())
            .collect();
        let in_cone = |a: usize, i: usize| coverage[a].contains(self.nodes[i].pose.position);
        // Per-AP harmonic the TMA would hash each node into.
        let cand_harmonic: Vec<Vec<i32>> =
            (0..na).map(|a| tmas[a].assign_harmonics(&aoa[a])).collect();
        let world = World::new(Scene {
            room: &self.room,
            aps: &self.aps,
            nodes: &self.nodes,
            seed: cfg.seed,
            walkers: cfg.walkers,
            pacer: cfg.pacer,
            path_loss_exponent: cfg.path_loss_exponent,
            second_order_reflections: false,
            implementation_loss: cfg.implementation_loss,
            threads: cfg.threads,
        });

        // ---- initial association: in-cone first, then arrival power,
        // ties to the lower AP id ----
        let serving: Vec<ApId> = (0..nn)
            .map(|i| {
                let key = |a: usize| (in_cone(a, i), world.arrival[a][i].0);
                ApId((1..na).fold(0, |best, a| if key(a) > key(best) { a } else { best }) as u16)
            })
            .collect();

        // ---- per-AP TMA admission control and SDM schedule over the
        // AP's channel share: an AP can carry at most one node per
        // (channel, harmonic) pair, so each harmonic beam admits at most
        // `channels` members; overload is rejected deterministically in
        // node order. Rejected nodes stay silent — no grant, no packets,
        // no interference contribution. ----
        let mut admitted = vec![true; nn];
        let mut slots = vec![
            SdmSlot {
                channel: 0,
                harmonic: 0
            };
            nn
        ];
        let mut per_ap_admitted = vec![0; na];
        for a in 0..na {
            let chs = reuse.channels_of(ApId(a as u16));
            let mut per_h: BTreeMap<i32, usize> = BTreeMap::new();
            let mut members = Vec::new();
            for i in (0..nn).filter(|&i| serving[i].index() == a) {
                let c = per_h.entry(cand_harmonic[a][i]).or_insert(0);
                admitted[i] = *c < chs.len();
                if admitted[i] {
                    *c += 1;
                    members.push(i);
                }
            }
            per_ap_admitted[a] = members.len();
            if members.is_empty() {
                continue;
            }
            let member_aoa: Vec<Degrees> = members.iter().map(|&i| aoa[a][i]).collect();
            // The per-harmonic cap is exactly the scheduler's feasibility
            // condition, so this cannot fail.
            let local = SdmScheduler::new(tmas[a].clone())
                .schedule(&member_aoa, chs.len())
                .map_err(MultiApError::Sdm)?;
            for (k, &i) in members.iter().enumerate() {
                slots[i] = SdmSlot {
                    channel: chs[local[k].channel],
                    harmonic: local[k].harmonic,
                };
            }
        }

        // ---- the run ----
        rec.event(0.0, "run", -1, "begin", "multi_ap", nn as f64);
        let out = world
            .run(
                Plan {
                    listen: tmas.into_iter().map(Some).collect(),
                    channels_of: (0..na)
                        .map(|a| reuse.channels_of(ApId(a as u16)).to_vec())
                        .collect(),
                    channel_hz: table.iter().map(|c| c.center.hz()).collect(),
                    serving,
                    admitted: admitted.clone(),
                    slots,
                    rates: self.nodes.iter().map(|n| n.demand.min(rate)).collect(),
                    reach: (0..nn)
                        .map(|i| {
                            (0..na)
                                .filter(|&a| in_cone(a, i))
                                .map(|a| (ApId(a as u16), cand_harmonic[a][i]))
                                .collect()
                        })
                        .collect(),
                    bandwidth: width,
                    duration: cfg.duration,
                    step: cfg.step,
                    fading: cfg.fading,
                    record_trace: cfg.record_trace,
                    decode_threshold: cfg.decode_threshold,
                    power_control: None,
                    rate_adaptation: false,
                    control: Control::Instant,
                    faults: cfg
                        .inter_ap_faults
                        .clone()
                        .unwrap_or_else(FaultConfig::none),
                    admission_plan: wide_admission_plan(&cfg.plan, &self.nodes),
                    handoff_hysteresis: cfg.handoff_hysteresis,
                    handoff_window: cfg.handoff_window,
                    max_transfer_retries: cfg.max_transfer_retries,
                    packet_metrics: false,
                    trace_assoc: true,
                },
                rec,
            )
            .map_err(MultiApError::Admission)?;
        let ho = out.handoff.clone();
        rec.add("handoff_attempts", "", ho.attempts);
        rec.add("handoff_completed", "", ho.completed);
        rec.add("handoff_aborted", "", ho.aborted);
        rec.add("apmsg_stale", "", ho.stale_transfer_msgs);
        rec.event(cfg.duration.value(), "run", -1, "end", "multi_ap", 0.0);
        let nodes = (0..nn)
            .map(|i| MultiApNodeReport {
                id: self.nodes[i].id,
                admitted: admitted[i],
                ap: out.links[i].serving(),
                sent: out.sent[i],
                delivered: out.delivered[i],
                mean_sinr_db: out.mean_sinr_db(i).unwrap_or(0.0),
                min_sinr_db: if out.sent[i] > 0 {
                    out.sinr_min[i]
                } else {
                    0.0
                },
                per: out.per(i),
                goodput_bps: out.goodput_bps(i, &self.nodes[i], cfg.duration),
                handoffs: out.links[i].handoffs(),
                slot: out.slots[i],
            })
            .collect();
        Ok(MultiApReport {
            nodes,
            per_ap_admitted,
            reuse_gain: reuse.reuse_gain(),
            num_colors: reuse.num_colors(),
            capacity,
            duration: cfg.duration,
            trace: out.trace,
            handoff: ho,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmx_channel::response::Pose;

    fn room() -> Room {
        Room::rectangular(8.0, 4.0, mmx_channel::room::Material::Drywall)
    }

    fn ap_at(x: f64, y: f64) -> ApStation {
        ApStation::with_tma(
            Pose::new(Vec2::new(x, y), Degrees::new(270.0)),
            8,
            Hertz::from_mhz(1.0),
        )
    }

    fn node_at(id: NodeId, x: f64, y: f64) -> NodeStation {
        NodeStation::hd_camera(id, Pose::new(Vec2::new(x, y), Degrees::new(90.0)))
    }

    fn two_ap_sim(duration: Seconds) -> MultiApSim {
        let mut cfg = MultiApConfig::standard();
        cfg.duration = duration;
        cfg.coverage_half_angle = Degrees::new(60.0);
        cfg.coverage_range_m = 7.0;
        let mut sim = MultiApSim::new(room(), cfg);
        sim.add_ap(ap_at(1.0, 3.7)).add_ap(ap_at(7.0, 3.7));
        sim.add_node(node_at(0, 1.2, 1.5))
            .add_node(node_at(1, 0.8, 2.0))
            .add_node(node_at(2, 7.2, 1.5))
            .add_node(node_at(3, 6.8, 2.0));
        sim
    }

    #[test]
    fn two_aps_serve_their_own_nodes() {
        let sim = two_ap_sim(Seconds::from_millis(200.0));
        let rep = sim.run().expect("runs");
        assert_eq!(rep.per_ap_admitted, vec![2, 2]);
        assert_eq!(rep.nodes[0].ap, ApId(0));
        assert_eq!(rep.nodes[2].ap, ApId(1));
        for n in &rep.nodes {
            assert!(n.sent > 0, "node {} never transmitted", n.id);
            assert!(n.delivered > 0, "node {} never delivered", n.id);
        }
        assert_eq!(rep.handoff.duplicate_deliveries, 0);
    }

    #[test]
    fn single_ap_degenerates_to_one_cell() {
        let mut cfg = MultiApConfig::standard();
        cfg.duration = Seconds::from_millis(100.0);
        let mut sim = MultiApSim::new(room(), cfg);
        sim.add_ap(ap_at(4.0, 3.7));
        sim.add_node(node_at(0, 3.0, 1.0))
            .add_node(node_at(1, 5.0, 1.0));
        let rep = sim.run().expect("runs");
        assert_eq!(rep.num_colors, 1);
        assert_eq!(rep.per_ap_admitted, vec![2]);
        assert!(rep.handoff.attempts == 0, "nowhere to roam");
    }

    #[test]
    fn setup_errors_are_typed() {
        let cfg = MultiApConfig::standard();
        let mut sim = MultiApSim::new(room(), cfg.clone());
        assert_eq!(sim.run().unwrap_err(), MultiApError::NoAps);
        sim.add_ap(ap_at(4.0, 3.7));
        assert_eq!(sim.run().unwrap_err(), MultiApError::Empty);

        let mut dip = MultiApSim::new(room(), cfg);
        dip.add_ap(ApStation::dipole(Pose::new(
            Vec2::new(4.0, 3.7),
            Degrees::new(270.0),
        )));
        dip.add_node(node_at(0, 3.0, 1.0));
        assert_eq!(dip.run().unwrap_err(), MultiApError::NeedsTma(ApId(0)));
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let sim = two_ap_sim(Seconds::from_millis(200.0));
        let a = sim.run().expect("runs");
        let b = sim.run().expect("runs");
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_the_report_or_trace() {
        let mut sim = two_ap_sim(Seconds::from_millis(300.0));
        sim.config_mut().record_trace = true;
        sim.config_mut().walkers = 2;
        sim.config_mut().fading = Some(FadingConfig::indoor());
        let mut rec1 = Recorder::enabled();
        sim.config_mut().threads = 1;
        let r1 = sim.run_observed(&mut rec1).expect("runs");
        let mut rec8 = Recorder::enabled();
        sim.config_mut().threads = 8;
        let r8 = sim.run_observed(&mut rec8).expect("runs");
        assert_eq!(r1, r8);
        assert_eq!(rec1.trace_jsonl(), rec8.trace_jsonl());
    }

    /// A scripted blocker cuts the serving ray: the node must roam to
    /// the other AP, transfer the grant exactly once per move, and
    /// never get double-credited.
    fn handoff_sim(faults: Option<FaultConfig>) -> MultiApSim {
        let mut cfg = MultiApConfig::standard();
        cfg.duration = Seconds::new(3.0);
        cfg.coverage_half_angle = Degrees::new(60.0);
        cfg.coverage_range_m = 7.0;
        cfg.handoff_hysteresis = Db::new(4.0);
        cfg.step = Seconds::from_millis(50.0);
        cfg.pacer = Some(PacerRoute {
            from: Vec2::new(2.5, 0.8),
            to: Vec2::new(2.5, 3.5),
            speed_mps: 0.9,
        });
        cfg.inter_ap_faults = faults;
        let mut sim = MultiApSim::new(room(), cfg);
        sim.add_ap(ap_at(1.0, 3.7)).add_ap(ap_at(7.0, 3.7));
        sim.add_node(node_at(0, 3.9, 1.0));
        sim
    }

    #[test]
    fn blockage_triggers_a_clean_handoff() {
        let sim = handoff_sim(None);
        let rep = sim.run().expect("runs");
        assert!(
            rep.handoff.completed >= 1,
            "no handoff completed: {:?}",
            rep.handoff
        );
        assert_eq!(rep.handoff.duplicate_deliveries, 0);
        assert!(rep.nodes[0].handoffs >= 1);
        assert!(rep.handoff.mean_handoff_s > 0.0);
        assert!(rep.handoff.mean_handoff_s <= rep.handoff.max_handoff_s);
    }

    #[test]
    fn handoff_survives_a_lossy_backhaul() {
        let faults = FaultConfig::lossy(0.3);
        let sim = handoff_sim(Some(faults));
        let rep = sim.run().expect("runs");
        // Loss forces retries (or outright aborts); epochs keep it safe.
        assert!(rep.handoff.attempts >= 1);
        assert!(
            rep.handoff.completed + rep.handoff.aborted >= 1,
            "every armed handoff resolves: {:?}",
            rep.handoff
        );
        assert_eq!(rep.handoff.duplicate_deliveries, 0);
        // And the faulted run stays byte-deterministic across threads.
        let mut t8 = handoff_sim(Some(FaultConfig::lossy(0.3)));
        t8.config_mut().threads = 8;
        let r8 = t8.run().expect("runs");
        assert_eq!(rep, r8);
    }

    #[test]
    fn handoff_trace_shows_the_fsm_walk() {
        let sim = handoff_sim(None);
        let mut rec = Recorder::enabled();
        let rep = sim.run_observed(&mut rec).expect("runs");
        assert!(rep.handoff.completed >= 1);
        let jsonl = rec.trace_jsonl();
        assert!(jsonl.contains("\"Handoff\""), "fsm events missing");
        assert!(jsonl.contains("\"handoff\""), "handoff events missing");
        assert!(jsonl.contains("\"apmsg\""), "apmsg events missing");
    }
}
