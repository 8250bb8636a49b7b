//! The network simulator: many nodes streaming to one AP.
//!
//! This is the front end behind Fig. 13 (and the network-level
//! examples): FDM channel allocation with SDM fallback, then the shared
//! gather→commit engine (DESIGN.md §9) for admission, per-packet channel
//! tracing with walking blockers, SINR → BER → packet-error conversion,
//! and energy accounting.

use crate::ap::{ApId, ApStation};
use crate::control::{Admission, LeaseConfig, NodeId};
use crate::engine::{arrival_angle, Control, Plan, Scene, World};
use crate::faults::FaultConfig;
use crate::fdm::{AllocError, BandPlan};
use crate::multi_ap::PacerRoute;
use crate::node::NodeStation;
use crate::sdm::{SdmError, SdmScheduler, SdmSlot};
use mmx_channel::room::Room;
use mmx_channel::Vec2;
use mmx_obs::Recorder;
use mmx_units::{Band, BitRate, Db, Degrees, Hertz, Seconds};

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulated duration.
    pub duration: Seconds,
    /// RNG seed — same seed, same run.
    pub seed: u64,
    /// The band plan for FDM.
    pub plan: BandPlan,
    /// Fixed channel width when SDM kicks in (the paper's 25 MHz
    /// sub-bands, §9.5).
    pub sdm_channel_width: Hertz,
    /// LoS path-loss exponent.
    pub path_loss_exponent: f64,
    /// Implementation loss (DESIGN.md §5).
    pub implementation_loss: Db,
    /// Number of random-waypoint walkers perturbing the channel.
    pub walkers: usize,
    /// Whether one person paces across the room center (§9.2's permanent
    /// LoS blocker).
    pub pacing_blocker: bool,
    /// Mobility/blockage update period.
    pub step: Seconds,
    /// Uplink power control: during initialization each node backs its
    /// transmit power off (up to `max_backoff`) so that all nodes arrive
    /// at the AP with similar power — the classic near-far fix, and an
    /// extension over the paper (DESIGN.md §6).
    pub power_control: bool,
    /// Maximum power-control backoff.
    pub max_backoff: Db,
    /// Rician small-scale fading on top of the specular geometry
    /// (per-packet, time-correlated). `None` = specular only.
    pub fading: Option<FadingConfig>,
    /// Rate adaptation: each node picks the fastest switch speed whose
    /// predicted BER meets 1e-6 given its initial SINR (extension;
    /// `mmx-phy::rate`). Slower symbols gain post-detection SNR.
    pub rate_adaptation: bool,
    /// Trace two-bounce specular paths (worth it in metallic rooms like
    /// vehicle cabins; off for the paper's drywall lab).
    pub second_order_reflections: bool,
    /// Record a per-packet trace in the report.
    pub record_trace: bool,
    /// Fault injection. `None`: the engine's instant control plane —
    /// every node is granted once, losslessly, at t = 0 and never loses
    /// its grant. `Some`: the join/grant/lease handshake runs over a
    /// control channel with these faults (DESIGN.md §7).
    pub faults: Option<FaultConfig>,
    /// Lease policy when faults are enabled.
    pub lease: LeaseConfig,
    /// Consecutive undecodable packets before a node declares an outage
    /// and falls back to FSK-only (§6.2).
    pub outage_window: u32,
    /// Decision-SNR threshold below which a packet counts as
    /// undecodable for outage detection.
    pub decode_threshold: Db,
    /// Worker threads for the intra-sim gather phase (DESIGN.md §9).
    /// `1` = run the event loop single-threaded (the default; batches of
    /// independent sims should parallelise across sims instead, see
    /// [`run_batch`]). `0` = auto: `MMX_THREADS` or the machine's
    /// available parallelism. Any value produces byte-identical reports,
    /// traces and CSVs — thread count only changes wall-clock time.
    pub threads: usize,
}

/// Small-scale fading parameters for the simulator.
#[derive(Debug, Clone, Copy)]
pub struct FadingConfig {
    /// Rician K-factor in dB (7 dB ≈ indoor mmWave).
    pub k_db: f64,
    /// Per-packet correlation of the diffuse component (0..1).
    pub rho: f64,
}

impl FadingConfig {
    /// Indoor defaults: K = 7 dB, slowly varying (ρ = 0.9).
    pub fn indoor() -> Self {
        FadingConfig {
            k_db: 7.0,
            rho: 0.9,
        }
    }
}

impl SimConfig {
    /// Defaults matching the paper's testbed conditions.
    pub fn standard() -> Self {
        SimConfig {
            duration: Seconds::new(2.0),
            seed: 1,
            plan: BandPlan::ism_24ghz(),
            sdm_channel_width: Hertz::from_mhz(25.0),
            path_loss_exponent: 2.0,
            implementation_loss: Db::new(18.0),
            walkers: 1,
            pacing_blocker: false,
            step: Seconds::from_millis(100.0),
            power_control: true,
            max_backoff: Db::new(20.0),
            fading: None,
            rate_adaptation: false,
            second_order_reflections: false,
            record_trace: false,
            faults: None,
            lease: LeaseConfig::standard(),
            outage_window: 8,
            decode_threshold: Db::new(5.0),
            threads: 1,
        }
    }
}

/// Why a simulation could not start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// A single node demanded more than the band can carry.
    Admission(AllocError),
    /// Even SDM could not separate the offered load.
    Sdm(SdmError),
    /// No nodes were added.
    Empty,
}

/// Per-node outcome of a run.
///
/// `PartialEq` compares floats by bit pattern, so two reports from the
/// same seed compare equal even when a node never transmitted
/// (`mean_sinr_db` = NaN).
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Node id.
    pub id: NodeId,
    /// Packets transmitted.
    pub sent: u64,
    /// Packets delivered (CRC-clean).
    pub delivered: u64,
    /// Mean SINR over transmissions (dB).
    pub mean_sinr_db: f64,
    /// Worst observed SINR (dB).
    pub min_sinr_db: f64,
    /// Packet error rate.
    pub per: f64,
    /// Application goodput, bit/s.
    pub goodput_bps: f64,
    /// Total energy spent, joules.
    pub energy_j: f64,
    /// Delivered-bit efficiency, nJ/bit.
    pub nj_per_bit: Option<f64>,
    /// The SDM slot the node ran on.
    pub slot: SdmSlot,
}

/// Bit-pattern float equality: `NaN == NaN`, `-0.0 != 0.0`. Exactly
/// what a determinism check wants.
#[inline]
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

impl PartialEq for NodeReport {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.sent == other.sent
            && self.delivered == other.delivered
            && bits_eq(self.mean_sinr_db, other.mean_sinr_db)
            && bits_eq(self.min_sinr_db, other.min_sinr_db)
            && bits_eq(self.per, other.per)
            && bits_eq(self.goodput_bps, other.goodput_bps)
            && bits_eq(self.energy_j, other.energy_j)
            && match (self.nj_per_bit, other.nj_per_bit) {
                (None, None) => true,
                (Some(a), Some(b)) => bits_eq(a, b),
                _ => false,
            }
            && self.slot == other.slot
    }
}

/// One recorded packet transmission (when `record_trace` is on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketSample {
    /// Transmission start time.
    pub t: Seconds,
    /// Transmitting node index.
    pub node: usize,
    /// SINR at the AP, dB.
    pub sinr_db: f64,
    /// Whether the packet survived.
    pub delivered: bool,
}

/// Control-plane resilience metrics of a faulted run. All zero for a
/// fault-free run (`SimConfig::faults = None`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Control messages offered to the (lossy) control plane.
    pub control_sent: u64,
    /// Control messages the injector dropped.
    pub control_lost: u64,
    /// Join retransmissions forced by loss (backoff timer firings that
    /// resent a request).
    pub control_retries: u64,
    /// Stale (reordered/duplicated) grants nodes discarded by epoch.
    pub stale_grants_discarded: u64,
    /// Leases the AP reclaimed by expiry (crashed or silenced nodes).
    pub reclaimed_leases: u64,
    /// Packet slots that passed while a node was down or waiting on
    /// re-admission.
    pub packets_lost_to_churn: u64,
    /// Node crashes injected.
    pub crashes: u64,
    /// Outages declared (decision SNR below threshold for the window).
    pub outages: u64,
    /// First-time admissions completed.
    pub joins: u64,
    /// Mean time from first join attempt to Granted, seconds.
    pub mean_join_s: f64,
    /// Recoveries completed (rejoin after crash/restart/lease loss, or
    /// an outage healing).
    pub recoveries: u64,
    /// Mean time-to-recover, seconds.
    pub mean_recovery_s: f64,
    /// Worst time-to-recover, seconds.
    pub max_recovery_s: f64,
    /// Nodes in `Granted` when the run ended.
    pub granted_at_end: usize,
    /// Nodes streaming (Granted or FSK-fallback Outage) at the end.
    pub streaming_at_end: usize,
    /// Nodes alive (not crashed, not departed) at the end.
    pub alive_at_end: usize,
}

/// Aggregate outcome of a run. `PartialEq` compares bit-exactly
/// (floats by bit pattern, so NaN fields from never-transmitting nodes
/// still compare equal across identically seeded runs).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Per-node reports, in node order.
    pub nodes: Vec<NodeReport>,
    /// Whether the run needed SDM (demand exceeded the band).
    pub used_sdm: bool,
    /// Simulated duration.
    pub duration: Seconds,
    /// Per-packet trace (empty unless `record_trace`).
    pub trace: Vec<PacketSample>,
    /// Control-plane resilience metrics (all zero without faults).
    pub recovery: RecoveryReport,
}

impl NetworkReport {
    /// Mean of the per-node mean SINRs.
    pub fn mean_sinr_db(&self) -> f64 {
        if self.nodes.is_empty() {
            return f64::NAN;
        }
        self.nodes.iter().map(|n| n.mean_sinr_db).sum::<f64>() / self.nodes.len() as f64
    }

    /// The worst per-node mean SINR.
    pub fn min_mean_sinr_db(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.mean_sinr_db)
            .fold(f64::INFINITY, f64::min)
    }

    /// Total delivered goodput.
    pub fn total_goodput(&self) -> BitRate {
        BitRate::new(self.nodes.iter().map(|n| n.goodput_bps).sum())
    }
}

/// Per-node slots and PHY rates, whether SDM was needed, and the center
/// frequency of each channel index.
type SlotPlan = (Vec<SdmSlot>, Vec<BitRate>, bool, Vec<f64>);

/// The network simulator: the single-AP front end of the simulation
/// engine (DESIGN.md §9).
pub struct NetworkSim {
    room: Room,
    ap: ApStation,
    nodes: Vec<NodeStation>,
    cfg: SimConfig,
}

impl NetworkSim {
    /// Creates a simulator.
    pub fn new(room: Room, ap: ApStation, cfg: SimConfig) -> Self {
        NetworkSim {
            room,
            ap,
            nodes: Vec::new(),
            cfg,
        }
    }

    /// Adds a node.
    pub fn add_node(&mut self, node: NodeStation) -> &mut Self {
        self.nodes.push(node);
        self
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Mutable configuration (tweak faults, trace recording, seeds).
    pub fn config_mut(&mut self) -> &mut SimConfig {
        &mut self.cfg
    }

    /// Plans slots and PHY rates: FDM when the band fits the demand, SDM
    /// otherwise.
    fn plan_slots(&self) -> Result<SlotPlan, SimError> {
        let mut admission = Admission::new(self.cfg.plan.clone());
        let fdm_ok = self
            .nodes
            .iter()
            .all(|n| admission.join(n.id, n.demand).is_ok());
        if fdm_ok {
            let slots = (0..self.nodes.len())
                .map(|i| SdmSlot {
                    channel: i,
                    harmonic: 0,
                })
                .collect();
            let rates = self.nodes.iter().map(|n| n.demand).collect();
            let centers = self
                .nodes
                .iter()
                .map(|n| admission.grant_of(n.id).map_or(0.0, |g| g.center.hz()))
                .collect();
            return Ok((slots, rates, false, centers));
        }
        // SDM fallback: equal channels + TMA spatial reuse.
        let tma = self
            .ap
            .tma()
            .cloned()
            .ok_or(SimError::Sdm(SdmError::NotEnoughResources {
                harmonic: 0,
                nodes: self.nodes.len(),
            }))?;
        let width = self.cfg.sdm_channel_width;
        let capacity = self.cfg.plan.capacity(width).max(1);
        let aoa: Vec<Degrees> = self
            .nodes
            .iter()
            .map(|n| arrival_angle(&self.ap, n))
            .collect();
        let slots = SdmScheduler::new(tma)
            .schedule(&aoa, capacity)
            .map_err(SimError::Sdm)?;
        let rate = self.cfg.plan.rate_for(width);
        let rates = self.nodes.iter().map(|n| n.demand.min(rate)).collect();
        let table = self.cfg.plan.channel_table(width);
        let centers = (0..capacity)
            .map(|c| table.get(c).map_or(0.0, |a| a.center.hz()))
            .collect();
        Ok((slots, rates, true, centers))
    }

    /// Runs the simulation.
    ///
    /// Without faults (`SimConfig::faults = None`) admission happens
    /// once, instantly and losslessly, before t = 0. With faults the
    /// control plane runs for real — join/grant over a lossy channel
    /// with retransmit backoff, epoch-stamped grants, leases with
    /// keepalives, churn, blockage bursts and AP restarts — and fills
    /// [`NetworkReport::recovery`].
    pub fn run(&self) -> Result<NetworkReport, SimError> {
        self.run_observed(&mut Recorder::disabled())
    }

    /// [`NetworkSim::run`] with observability: metrics, FSM/control
    /// trace events and blockage spans flow into `rec`.
    ///
    /// Every trace timestamp is the **simulated** event-queue clock, and
    /// nothing about the run's RNG stream or outcome depends on the
    /// recorder, so (a) `run_observed(&mut Recorder::disabled())` is
    /// exactly `run()` with zero added allocations, and (b) the recorded
    /// trace is a pure function of the scenario — byte-identical across
    /// worker thread counts.
    pub fn run_observed(&self, rec: &mut Recorder) -> Result<NetworkReport, SimError> {
        if self.nodes.is_empty() {
            return Err(SimError::Empty);
        }
        let n = self.nodes.len();
        let cfg = &self.cfg;
        let (slots, rates, used_sdm, channel_hz) = self.plan_slots()?;
        rec.event(0.0, "run", -1, "begin", "", n as f64);
        let (w, d) = (self.room.width(), self.room.depth());
        let world = World::new(Scene {
            room: &self.room,
            aps: std::slice::from_ref(&self.ap),
            nodes: &self.nodes,
            seed: cfg.seed,
            walkers: cfg.walkers,
            // §9.2's permanent LoS blocker paces across the room center.
            pacer: cfg.pacing_blocker.then(|| PacerRoute {
                from: Vec2::new(w / 2.0, 0.5),
                to: Vec2::new(w / 2.0, d - 0.5),
                speed_mps: 1.0,
            }),
            path_loss_exponent: cfg.path_loss_exponent,
            second_order_reflections: cfg.second_order_reflections,
            implementation_loss: cfg.implementation_loss,
        });
        let out = world
            .run(
                Plan {
                    // Pure FDM listens through the dipole: all gains 0 dB.
                    listen: vec![self.ap.tma().filter(|_| used_sdm)],
                    channels_of: vec![(0..channel_hz.len()).collect()],
                    channel_hz,
                    serving: vec![ApId(0); n],
                    admitted: vec![true; n],
                    slots: slots.clone(),
                    rates,
                    // One AP: no neighbour to roam to.
                    reach: vec![Vec::new(); n],
                    bandwidth: if used_sdm {
                        cfg.sdm_channel_width
                    } else {
                        cfg.plan.width_for(self.nodes[0].demand)
                    },
                    duration: cfg.duration,
                    step: cfg.step,
                    fading: cfg.fading,
                    threads: cfg.threads,
                    record_trace: cfg.record_trace,
                    decode_threshold: cfg.decode_threshold,
                    power_control: cfg.power_control.then_some(cfg.max_backoff),
                    rate_adaptation: cfg.rate_adaptation,
                    control: match cfg.faults {
                        Some(_) => Control::Handshake {
                            lease: cfg.lease,
                            outage_window: cfg.outage_window,
                        },
                        None => Control::Instant,
                    },
                    faults: cfg.faults.clone().unwrap_or_else(FaultConfig::none),
                    // Under SDM the TMA schedule, not spectral packing,
                    // binds: leases and epochs run over a virtual plan.
                    admission_plan: if used_sdm {
                        wide_admission_plan(&cfg.plan, &self.nodes)
                    } else {
                        cfg.plan.clone()
                    },
                    handoff_hysteresis: Db::ZERO,
                    handoff_window: 0,
                    max_transfer_retries: 0,
                    packet_metrics: true,
                    trace_assoc: false,
                },
                rec,
            )
            .map_err(SimError::Admission)?;
        rec.event(cfg.duration.value(), "run", -1, "end", "", 0.0);
        let nodes = (0..n)
            .map(|i| NodeReport {
                id: self.nodes[i].id,
                sent: out.sent[i],
                delivered: out.delivered[i],
                mean_sinr_db: out.mean_sinr_db(i).unwrap_or(f64::NAN),
                min_sinr_db: out.sinr_min[i],
                per: out.per(i),
                goodput_bps: out.goodput_bps(i, &self.nodes[i], cfg.duration),
                energy_j: out.meters[i].joules(),
                nj_per_bit: out.meters[i].nj_per_bit(),
                slot: slots[i],
            })
            .collect();
        Ok(NetworkReport {
            nodes,
            used_sdm,
            duration: cfg.duration,
            trace: out
                .trace
                .iter()
                .map(|s| PacketSample {
                    t: s.t,
                    node: s.node,
                    sinr_db: s.sinr_db,
                    delivered: s.delivered,
                })
                .collect(),
            recovery: if cfg.faults.is_some() {
                out.recovery
            } else {
                RecoveryReport::default()
            },
        })
    }
}

/// A virtual admission band wide enough for every node's demand: under
/// SDM the TMA schedule, not spectral packing, is the binding constraint,
/// so admission only tracks leases and epochs.
pub(crate) fn wide_admission_plan(plan: &BandPlan, nodes: &[NodeStation]) -> BandPlan {
    let width: f64 = nodes
        .iter()
        .map(|n| plan.width_for(n.demand).hz() + 2e6)
        .sum();
    let center = plan.band().low + plan.band().bandwidth() / 2.0;
    BandPlan::new(
        Band::centered(center, Hertz::new(width * 2.0)),
        Hertz::from_mhz(1.0),
    )
}

/// Runs a batch of independent scenarios across worker threads.
///
/// Each simulation is fully self-seeded (`SimConfig::seed`), so the
/// reports do not depend on scheduling: the result at index `i` is
/// bit-identical to `sims[i].run()`, at any thread count including 1.
/// Thread count comes from the `MMX_THREADS` environment variable when
/// set, otherwise the machine's available parallelism.
pub fn run_batch(sims: &[NetworkSim]) -> Vec<Result<NetworkReport, SimError>> {
    run_batch_with_threads(sims, crate::pool::resolve_threads(0))
}

/// [`run_batch`] with an explicit worker count — the determinism
/// contract made testable: for any `threads >= 1` the result vector is
/// bit-identical.
pub fn run_batch_with_threads(
    sims: &[NetworkSim],
    threads: usize,
) -> Vec<Result<NetworkReport, SimError>> {
    crate::pool::run_indexed(threads, sims.len(), |i| sims[i].run())
}

/// [`run_batch_with_threads`] with observability: each scenario runs
/// with its own enabled [`Recorder`], so per-run traces never interleave
/// and the pair at index `i` is bit-identical to running
/// `sims[i].run_observed(..)` alone — at any thread count. Concatenate
/// the recorders' JSONL in index order for a batch trace; the `run`
/// begin/end markers delimit the scenarios.
pub fn run_batch_observed_with_threads(
    sims: &[NetworkSim],
    threads: usize,
) -> Vec<(Result<NetworkReport, SimError>, Recorder)> {
    crate::pool::run_indexed(threads, sims.len(), |i| {
        let mut rec = Recorder::enabled();
        let report = sims[i].run_observed(&mut rec);
        (report, rec)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmx_channel::response::Pose;
    use mmx_channel::room::Material;
    use mmx_channel::Vec2;

    fn room() -> Room {
        Room::rectangular(6.0, 4.0, Material::Drywall)
    }

    fn ap() -> ApStation {
        ApStation::with_tma(
            Pose::new(Vec2::new(5.7, 2.0), Degrees::new(180.0)),
            8,
            Hertz::from_mhz(1.0),
        )
    }

    fn sim_with_nodes(n: usize) -> NetworkSim {
        let mut cfg = SimConfig::standard();
        cfg.duration = Seconds::new(0.5);
        let mut sim = NetworkSim::new(room(), ap(), cfg);
        // Nodes on an arc around the AP spanning its field of view, like
        // the random placements of §9.5.
        let ap_pos = Vec2::new(5.7, 2.0);
        for i in 0..n {
            let frac = (i as f64 + 0.5) / n as f64;
            let bearing = Degrees::new(180.0 - 35.0 + 70.0 * frac);
            let radius = 3.2 + 1.3 * ((i * 7) % 3) as f64 / 2.0;
            let mut pos = ap_pos + Vec2::from_bearing(bearing) * radius;
            pos.x = pos.x.clamp(0.3, 5.4);
            pos.y = pos.y.clamp(0.3, 3.7);
            let pose = Pose::facing_toward(pos, ap_pos);
            sim.add_node(NodeStation::hd_camera(i as u16, pose));
        }
        sim
    }

    #[test]
    fn single_node_delivers_everything() {
        let report = sim_with_nodes(1).run().expect("runs");
        assert!(!report.used_sdm);
        let n = &report.nodes[0];
        assert!(n.sent > 0);
        assert_eq!(n.delivered, n.sent, "PER = {}", n.per);
        assert!(n.mean_sinr_db > 20.0, "SINR = {}", n.mean_sinr_db);
    }

    #[test]
    fn five_nodes_fit_in_fdm() {
        // No walkers: a deterministic check that FDM keeps every node
        // clean. (Blockage effects are exercised separately below.)
        let mut sim = sim_with_nodes(5);
        sim.cfg.walkers = 0;
        let report = sim.run().expect("runs");
        assert!(!report.used_sdm);
        for n in &report.nodes {
            assert!(n.per < 0.05, "node {} PER = {}", n.id, n.per);
        }
    }

    #[test]
    fn twenty_nodes_need_sdm_and_survive() {
        // 20 × 12.5 MHz channels exceed 250 MHz → SDM path.
        let report = sim_with_nodes(20).run().expect("runs");
        assert!(report.used_sdm);
        assert!(
            report.mean_sinr_db() > 15.0,
            "mean SINR = {}",
            report.mean_sinr_db()
        );
    }

    #[test]
    fn more_nodes_less_sinr() {
        let one = sim_with_nodes(1).run().unwrap().mean_sinr_db();
        let twenty = sim_with_nodes(20).run().unwrap().mean_sinr_db();
        assert!(twenty < one, "1 node {one} dB vs 20 nodes {twenty} dB");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = sim_with_nodes(3).run().unwrap();
        let b = sim_with_nodes(3).run().unwrap();
        assert_eq!(a.mean_sinr_db(), b.mean_sinr_db());
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.sent, y.sent);
            assert_eq!(x.delivered, y.delivered);
        }
    }

    #[test]
    fn batch_matches_serial_runs() {
        // Scenarios with different sizes and seeds: the batch result at
        // index i must be bit-identical to sims[i].run().
        let mut sims = Vec::new();
        for (n, seed) in [(1usize, 3u64), (3, 7), (5, 11), (2, 3)] {
            let mut sim = sim_with_nodes(n);
            sim.cfg.walkers = 1;
            sim.cfg.seed = seed;
            sims.push(sim);
        }
        let batch = run_batch(&sims);
        for (sim, got) in sims.iter().zip(&batch) {
            let want = sim.run().expect("scenario runs");
            let got = got.as_ref().expect("batch scenario runs");
            assert_eq!(got.used_sdm, want.used_sdm);
            assert_eq!(got.nodes.len(), want.nodes.len());
            for (g, w) in got.nodes.iter().zip(&want.nodes) {
                assert_eq!(g.sent, w.sent);
                assert_eq!(g.delivered, w.delivered);
                assert_eq!(g.mean_sinr_db, w.mean_sinr_db);
                assert_eq!(g.energy_j, w.energy_j);
            }
        }
    }

    #[test]
    fn batch_propagates_errors_in_place() {
        let sims = vec![NetworkSim::new(room(), ap(), SimConfig::standard())];
        let batch = run_batch(&sims);
        assert_eq!(batch[0].as_ref().err(), Some(&SimError::Empty));
    }

    #[test]
    fn energy_efficiency_reported() {
        let report = sim_with_nodes(1).run().unwrap();
        let nj = report.nodes[0].nj_per_bit.expect("delivered bits");
        // A 10 Mbps camera on a ~10 Mbps PHY stays ~always on: ~110
        // nJ/bit plus overheads.
        assert!((50.0..500.0).contains(&nj), "nj/bit = {nj}");
    }

    #[test]
    fn goodput_approaches_demand() {
        let report = sim_with_nodes(2).run().unwrap();
        for n in &report.nodes {
            assert!(
                n.goodput_bps > 8e6,
                "node {} goodput = {}",
                n.id,
                n.goodput_bps
            );
        }
    }

    #[test]
    fn empty_network_rejected() {
        let sim = NetworkSim::new(room(), ap(), SimConfig::standard());
        assert_eq!(sim.run().err(), Some(SimError::Empty));
    }

    #[test]
    fn sdm_without_tma_fails_gracefully() {
        let mut cfg = SimConfig::standard();
        cfg.duration = Seconds::new(0.2);
        let mut sim = NetworkSim::new(
            room(),
            ApStation::dipole(Pose::new(Vec2::new(5.7, 2.0), Degrees::new(180.0))),
            cfg,
        );
        for i in 0..20 {
            let pos = Vec2::new(0.5 + 0.2 * i as f64, 1.0);
            sim.add_node(NodeStation::hd_camera(
                i as u16,
                Pose::facing_toward(pos, Vec2::new(5.7, 2.0)),
            ));
        }
        assert!(matches!(sim.run(), Err(SimError::Sdm(_))));
    }

    #[test]
    fn second_order_reflections_help_in_metal_rooms() {
        // A metal cabin with the LoS blocked: two-bounce paths add real
        // energy (each bounce only ~6 dB there).
        let run = |second: bool| {
            let mut cfg = SimConfig::standard();
            cfg.duration = Seconds::from_millis(200.0);
            cfg.walkers = 0;
            cfg.pacing_blocker = true;
            cfg.second_order_reflections = second;
            let room = Room::rectangular(4.8, 1.9, mmx_channel::room::Material::Metal);
            let ap = ApStation::dipole(Pose::new(Vec2::new(4.3, 0.95), Degrees::new(180.0)));
            let mut sim = NetworkSim::new(room, ap, cfg);
            let pose = Pose::facing_toward(Vec2::new(0.3, 0.95), Vec2::new(4.3, 0.95));
            sim.add_node(NodeStation::hd_camera(0, pose));
            sim.run().unwrap().nodes[0].mean_sinr_db
        };
        let single = run(false);
        let double = run(true);
        // More paths ⇒ more (incoherently expected) energy; allow for
        // coherent wiggle but demand no catastrophic regression.
        assert!(
            double > single - 3.0,
            "second-order hurt: {double} vs {single}"
        );
    }

    #[test]
    fn rate_adaptation_rescues_weak_nodes() {
        // Put one camera at the far corner behind the desk with a
        // pacing blocker: fixed-rate PER suffers; adaptation trades rate
        // for reliability.
        let build = |adapt: bool| {
            let mut cfg = SimConfig::standard();
            cfg.duration = Seconds::new(2.0);
            cfg.walkers = 0;
            cfg.pacing_blocker = true;
            cfg.rate_adaptation = adapt;
            cfg.seed = 9;
            let mut sim = NetworkSim::new(Room::paper_lab(), ap(), cfg);
            let pose = Pose::facing_toward(Vec2::new(0.4, 3.6), Vec2::new(5.7, 2.0));
            sim.add_node(NodeStation::hd_camera(0, pose));
            sim
        };
        let fixed = build(false).run().unwrap().nodes[0].per;
        let adapted = build(true).run().unwrap().nodes[0].per;
        assert!(
            adapted <= fixed,
            "adaptation worsened PER: {adapted} vs {fixed}"
        );
    }

    #[test]
    fn churned_node_stops_and_frees_the_medium() {
        // Two co-channel-ish nodes; node 1 leaves halfway. Node 0's
        // later packets must see the interferer gone.
        let mut sim = sim_with_nodes(2);
        sim.cfg.walkers = 0;
        sim.cfg.record_trace = true;
        sim.cfg.duration = Seconds::new(1.0);
        sim.nodes[1] = sim.nodes[1]
            .clone()
            .with_activity(Seconds::ZERO, Some(Seconds::new(0.5)));
        let report = sim.run().unwrap();
        // Node 1 sent roughly half of node 0's packets.
        let sent0 = report.nodes[0].sent as f64;
        let sent1 = report.nodes[1].sent as f64;
        assert!(
            (sent1 / sent0 - 0.5).abs() < 0.1,
            "sent0 {sent0}, sent1 {sent1}"
        );
        // Node 0's SINR after the departure ≥ before it.
        let (mut before, mut after) = (Vec::new(), Vec::new());
        for s in report.trace.iter().filter(|s| s.node == 0) {
            if s.t < Seconds::new(0.5) {
                before.push(s.sinr_db);
            } else {
                after.push(s.sinr_db);
            }
        }
        let mb = mmx_dsp::stats::mean(&before).unwrap();
        let ma = mmx_dsp::stats::mean(&after).unwrap();
        assert!(ma >= mb - 0.1, "before {mb} dB, after {ma} dB");
    }

    #[test]
    fn late_joiner_starts_on_time() {
        let mut sim = sim_with_nodes(1);
        sim.cfg.walkers = 0;
        sim.cfg.record_trace = true;
        sim.cfg.duration = Seconds::new(1.0);
        sim.nodes[0] = sim.nodes[0].clone().with_activity(Seconds::new(0.4), None);
        let report = sim.run().unwrap();
        assert!(report.trace.iter().all(|s| s.t >= Seconds::new(0.4)));
        assert!(report.nodes[0].sent > 0);
    }

    #[test]
    fn trace_records_every_packet() {
        let mut sim = sim_with_nodes(2);
        sim.cfg.record_trace = true;
        sim.cfg.walkers = 0;
        let report = sim.run().unwrap();
        let total: u64 = report.nodes.iter().map(|n| n.sent).sum();
        assert_eq!(report.trace.len() as u64, total);
        // Timestamps are non-decreasing and node ids valid.
        for w in report.trace.windows(2) {
            assert!(w[1].t >= w[0].t);
        }
        assert!(report.trace.iter().all(|s| s.node < 2));
        let delivered: u64 = report.trace.iter().filter(|s| s.delivered).count() as u64;
        let reported: u64 = report.nodes.iter().map(|n| n.delivered).sum();
        assert_eq!(delivered, reported);
    }

    #[test]
    fn trace_off_by_default() {
        let report = sim_with_nodes(1).run().unwrap();
        assert!(report.trace.is_empty());
    }

    #[test]
    fn fading_adds_sinr_spread() {
        let run = |fading| {
            let mut sim = sim_with_nodes(1);
            sim.cfg.walkers = 0;
            sim.cfg.record_trace = true;
            sim.cfg.fading = fading;
            let report = sim.run().unwrap();
            let sinrs: Vec<f64> = report.trace.iter().map(|s| s.sinr_db).collect();
            mmx_dsp::stats::std_dev(&sinrs).unwrap_or(0.0)
        };
        let frozen = run(None);
        let faded = run(Some(FadingConfig::indoor()));
        assert!(frozen < 0.01, "specular-only spread = {frozen}");
        assert!(faded > 0.1, "faded spread = {faded}");
    }

    #[test]
    fn fading_is_deterministic_per_seed() {
        let run = || {
            let mut sim = sim_with_nodes(2);
            sim.cfg.fading = Some(FadingConfig::indoor());
            sim.run().unwrap().mean_sinr_db()
        };
        assert_eq!(run(), run());
    }

    fn faulted_sim(n: usize, faults: FaultConfig, duration: Seconds, seed: u64) -> NetworkSim {
        let mut sim = sim_with_nodes(n);
        sim.cfg.faults = Some(faults);
        sim.cfg.duration = duration;
        sim.cfg.seed = seed;
        sim.cfg.walkers = 0;
        sim
    }

    #[test]
    fn quiet_faults_still_run_the_control_plane() {
        let report = faulted_sim(3, FaultConfig::none(), Seconds::new(1.0), 1)
            .run()
            .expect("runs");
        let r = &report.recovery;
        assert_eq!(r.joins, 3, "every node admitted exactly once");
        assert_eq!(r.granted_at_end, 3);
        assert_eq!(r.alive_at_end, 3);
        assert_eq!(r.control_lost, 0);
        assert_eq!(r.control_retries, 0);
        assert_eq!(r.crashes, 0);
        assert_eq!(r.outages, 0);
        assert!(r.control_sent > 10, "joins + acks + keepalives flow");
        assert!(r.mean_join_s > 0.0, "admission takes a control RTT");
        for node in &report.nodes {
            assert!(node.sent > 0);
            assert!(node.per < 0.05, "node {} PER {}", node.id, node.per);
        }
    }

    #[test]
    fn lossy_control_plane_still_admits_everyone() {
        let report = faulted_sim(4, FaultConfig::lossy(0.3), Seconds::new(2.0), 7)
            .run()
            .expect("runs");
        let r = &report.recovery;
        assert_eq!(r.granted_at_end, 4, "all nodes granted: {r:?}");
        assert!(r.control_lost > 0, "30% loss must bite: {r:?}");
        assert!(r.control_retries > 0, "loss must force retries: {r:?}");
        assert!(r.mean_join_s > 0.0);
        for node in &report.nodes {
            assert!(node.sent > 0, "node {} never streamed", node.id);
        }
    }

    #[test]
    fn crashes_reclaim_leases_and_nodes_rejoin() {
        // Rejoin delay (600 ms) longer than the lease (400 ms): each
        // crash must reclaim spectrum before the node returns.
        let faults = FaultConfig::lossy(0.2).with_churn(0.6, Seconds::from_millis(600.0));
        let report = faulted_sim(3, faults, Seconds::new(4.0), 5)
            .run()
            .expect("runs");
        let r = &report.recovery;
        assert!(r.crashes > 0, "0.6 Hz × 3 nodes × 4 s must crash: {r:?}");
        assert!(r.reclaimed_leases > 0, "crashed leases must expire: {r:?}");
        assert!(r.recoveries > 0, "crashed nodes must re-admit: {r:?}");
        assert!(r.packets_lost_to_churn > 0);
        assert!(r.mean_recovery_s > 0.0);
        assert!(r.max_recovery_s >= r.mean_recovery_s);
        assert_eq!(r.granted_at_end, 3, "survivors re-reach Granted: {r:?}");
    }

    #[test]
    fn ap_restart_forces_rejoin() {
        let faults = FaultConfig::none().with_ap_restart(Seconds::new(0.5));
        let report = faulted_sim(2, faults, Seconds::new(2.0), 3)
            .run()
            .expect("runs");
        let r = &report.recovery;
        assert_eq!(r.joins, 2);
        assert!(
            r.recoveries >= 2,
            "every node must recover from the restart: {r:?}"
        );
        assert_eq!(r.granted_at_end, 2, "{r:?}");
    }

    #[test]
    fn blockage_burst_triggers_outage_and_heals() {
        // One deep correlated burst: the node must fall into the FSK
        // fallback and heal once the burst passes.
        let faults =
            FaultConfig::none().with_bursts(0.45, Seconds::from_millis(400.0), Db::new(45.0));
        let report = faulted_sim(1, faults, Seconds::new(3.0), 11)
            .run()
            .expect("runs");
        let r = &report.recovery;
        assert!(r.outages > 0, "a 45 dB burst must break decode: {r:?}");
        assert!(r.recoveries > 0, "the outage must heal: {r:?}");
        assert_eq!(r.granted_at_end, 1, "{r:?}");
        assert!(report.nodes[0].per > 0.0, "burst packets are lost");
    }

    #[test]
    fn stale_grants_are_discarded_under_duplication() {
        let mut faults = FaultConfig::lossy(0.1);
        faults.control_dup = 0.4;
        faults.control_delay_max = Seconds::from_millis(25.0);
        let report = faulted_sim(4, faults, Seconds::new(2.0), 2)
            .run()
            .expect("runs");
        let r = &report.recovery;
        assert!(
            r.stale_grants_discarded > 0,
            "40% duplication must produce stale grants: {r:?}"
        );
        assert_eq!(r.granted_at_end, 4, "{r:?}");
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let faults = FaultConfig::lossy(0.25).with_churn(0.4, Seconds::from_millis(300.0));
        let run = || {
            let mut sim = faulted_sim(3, faults.clone(), Seconds::new(2.0), 13);
            sim.cfg.record_trace = true;
            sim.run().expect("runs")
        };
        let a = run();
        let b = run();
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.nodes, b.nodes);
    }

    #[test]
    fn faults_keep_channel_stream_independent() {
        // The same seed with and without faults: the walker/fading
        // draws come from the channel stream, so the *initial* SINR
        // (first packet, before any fault perturbs timing) matches.
        let clean = sim_with_nodes(2).run().expect("runs");
        let mut sim = sim_with_nodes(2);
        sim.cfg.faults = Some(FaultConfig::none());
        let faulted = sim.run().expect("runs");
        for (c, f) in clean.nodes.iter().zip(&faulted.nodes) {
            // Same channel model, admission overhead aside.
            assert!(
                (c.mean_sinr_db - f.mean_sinr_db).abs() < 1.0,
                "clean {} vs faulted {}",
                c.mean_sinr_db,
                f.mean_sinr_db
            );
        }
    }

    #[test]
    fn faulted_batch_identical_at_any_thread_count() {
        let mk = |seed| {
            let faults = FaultConfig::lossy(0.2).with_churn(0.5, Seconds::from_millis(400.0));
            faulted_sim(3, faults, Seconds::new(1.5), seed)
        };
        let sims: Vec<NetworkSim> = (1..=4).map(mk).collect();
        let serial = run_batch_with_threads(&sims, 1);
        let parallel = run_batch_with_threads(&sims, 4);
        for (s, p) in serial.iter().zip(&parallel) {
            let s = s.as_ref().expect("serial runs");
            let p = p.as_ref().expect("parallel runs");
            assert_eq!(s.recovery, p.recovery);
            assert_eq!(s.nodes, p.nodes);
        }
    }

    #[test]
    fn sdm_load_survives_faults() {
        // 20 HD cameras exceed the band → SDM + virtual lease plan.
        let mut sim = sim_with_nodes(20);
        sim.cfg.faults = Some(FaultConfig::lossy(0.15));
        sim.cfg.duration = Seconds::new(1.0);
        sim.cfg.walkers = 0;
        let report = sim.run().expect("runs");
        assert!(report.used_sdm);
        assert_eq!(report.recovery.granted_at_end, 20, "{:?}", report.recovery);
        assert!(report.mean_sinr_db() > 15.0);
    }

    #[test]
    fn observed_run_matches_plain_run() {
        let faults = FaultConfig::lossy(0.25).with_churn(0.4, Seconds::from_millis(300.0));
        let sim = faulted_sim(3, faults, Seconds::new(2.0), 13);
        let plain = sim.run().expect("runs");
        let mut rec = Recorder::enabled();
        let observed = sim.run_observed(&mut rec).expect("runs");
        assert_eq!(plain.nodes, observed.nodes, "observation changed the run");
        assert_eq!(plain.recovery, observed.recovery);
        assert!(!rec.trace().is_empty(), "faulted run must trace");
    }

    #[test]
    fn observed_trace_is_deterministic_and_structured() {
        let faults = FaultConfig::lossy(0.3).with_churn(0.5, Seconds::from_millis(400.0));
        let jsonl = || {
            let mut rec = Recorder::enabled();
            faulted_sim(3, faults.clone(), Seconds::new(2.0), 7)
                .run_observed(&mut rec)
                .expect("runs");
            rec.trace_jsonl()
        };
        let a = jsonl();
        assert_eq!(a, jsonl(), "same seed, same trace bytes");
        assert!(a.starts_with(r#"{"t":0,"kind":"run","node":-1,"a":"begin""#));
        assert!(a
            .trim_end()
            .lines()
            .last()
            .unwrap()
            .contains(r#""kind":"run""#));
        // The trace replays into a per-node FSM timeline covering the
        // whole horizon.
        let (events, bad) = mmx_obs::parse_jsonl(&a);
        assert_eq!(bad, 0, "every line parses");
        let runs = mmx_obs::replay(&events);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].nodes.len(), 3, "all three nodes transitioned");
        for (node, tl) in &runs[0].nodes {
            assert!(tl.transitions > 0, "node {node} never moved");
            assert!(tl.time_in_state.values().sum::<f64>() <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn observed_metrics_cross_check_the_report() {
        let faults = FaultConfig::lossy(0.2).with_churn(0.6, Seconds::from_millis(600.0));
        let sim = faulted_sim(3, faults, Seconds::new(4.0), 5);
        let mut rec = Recorder::enabled();
        let report = sim.run_observed(&mut rec).expect("runs");
        let reg = rec.registry();
        let sent: u64 = report.nodes.iter().map(|n| n.sent).sum();
        let delivered: u64 = report.nodes.iter().map(|n| n.delivered).sum();
        assert_eq!(reg.counter(mmx_obs::Key::plain("packets_sent")), sent);
        assert_eq!(
            reg.counter(mmx_obs::Key::plain("packets_delivered")),
            delivered
        );
        assert_eq!(
            reg.counter(mmx_obs::Key::labelled("faults", "crash")),
            report.recovery.crashes
        );
        assert_eq!(
            reg.counter(mmx_obs::Key::plain("join_retries")),
            report.recovery.control_retries
        );
        assert_eq!(rec.histogram("sinr_db").unwrap().count(), sent);
        // The per-state dwell gauges sum to nodes × duration.
        let dwell: f64 = reg
            .gauges()
            .filter(|(k, _)| k.name == "fsm_time_in_state_s")
            .map(|(_, v)| v)
            .sum();
        assert!(
            (dwell - 3.0 * 4.0).abs() < 1e-6,
            "dwell accounting leaked: {dwell}"
        );
    }

    #[test]
    fn observed_batch_matches_serial_and_any_thread_count() {
        let mk = |seed| {
            let faults = FaultConfig::lossy(0.2).with_churn(0.5, Seconds::from_millis(400.0));
            faulted_sim(3, faults, Seconds::new(1.5), seed)
        };
        let sims: Vec<NetworkSim> = (1..=4).map(mk).collect();
        let serial = run_batch_observed_with_threads(&sims, 1);
        let parallel = run_batch_observed_with_threads(&sims, 4);
        for ((sr, srec), (pr, prec)) in serial.iter().zip(&parallel) {
            assert_eq!(
                sr.as_ref().expect("serial runs").nodes,
                pr.as_ref().expect("parallel runs").nodes
            );
            assert_eq!(srec.trace_jsonl(), prec.trace_jsonl(), "trace bytes differ");
            assert_eq!(srec.registry().render(), prec.registry().render());
        }
    }

    #[test]
    fn pacing_blocker_degrades_minimum_sinr() {
        let mk = |pacing: bool| {
            let mut cfg = SimConfig::standard();
            // Long enough for the pacer to cross the LoS at 1 m/s.
            cfg.duration = Seconds::new(4.0);
            cfg.walkers = 0;
            cfg.pacing_blocker = pacing;
            let mut sim = NetworkSim::new(room(), ap(), cfg);
            let pose = Pose::facing_toward(Vec2::new(0.5, 2.0), Vec2::new(5.7, 2.0));
            sim.add_node(NodeStation::hd_camera(0, pose));
            sim.run().unwrap().nodes[0].min_sinr_db
        };
        let clear = mk(false);
        let paced = mk(true);
        assert!(
            paced < clear,
            "pacing blocker should hurt: clear {clear} vs paced {paced}"
        );
    }

    #[test]
    fn channel_cache_refreshes_only_at_mobility_steps() {
        // One node, no walkers, no fading: its SINR is a function of its
        // cached link alone, so it may change only where a `Step` moved
        // the pacer, never between two steps. (In debug builds the
        // engine also checks every cache hit against a fresh trace.)
        let mk = |pacing: bool, threads: usize| {
            let mut cfg = SimConfig::standard();
            cfg.duration = Seconds::new(4.0);
            cfg.walkers = 0;
            cfg.pacing_blocker = pacing;
            cfg.record_trace = true;
            cfg.threads = threads;
            let mut sim = NetworkSim::new(room(), ap(), cfg);
            let pose = Pose::facing_toward(Vec2::new(0.5, 2.0), Vec2::new(5.7, 2.0));
            sim.add_node(NodeStation::hd_camera(0, pose));
            sim.run().unwrap()
        };
        let paced = mk(true, 1);
        assert_eq!(paced, mk(true, 4), "reports differ across thread counts");
        let step = SimConfig::standard().step.value();
        let period = |s: &PacketSample| (s.t.value() / step).floor() as i64;
        let mut refreshes = 0;
        for w in paced.trace.windows(2) {
            if w[1].sinr_db.to_bits() != w[0].sinr_db.to_bits() {
                let t = w[1].t.value();
                assert_ne!(
                    period(&w[0]),
                    period(&w[1]),
                    "SINR moved inside a step at {t} s"
                );
                refreshes += 1;
            }
        }
        assert!(refreshes > 0, "the pacer never changed the cached link");
        // Without walkers or a pacer the blockers never move, and one
        // trace serves the whole run.
        let still = mk(false, 1);
        let sinr = still.trace[0].sinr_db.to_bits();
        assert!(still.trace.iter().all(|s| s.sinr_db.to_bits() == sinr));
    }
}
