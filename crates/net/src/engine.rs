//! The simulation engine: the one gather→commit event loop (DESIGN.md
//! §9) behind both front ends, [`crate::sim::NetworkSim`] and
//! [`crate::multi_ap::MultiApSim`].
//!
//! A front end validates its configuration, plans slots and hands the
//! engine a [`Scene`] (room, stations, mobility and radio constants)
//! and a [`Plan`] (which AP serves each node on which slot, and the run
//! settings). The engine owns the rest:
//!
//! * walkers, the pacer and the blocker constellation;
//! * per-node gather contexts: RNG stream, fading state, trace scratch
//!   and the channel cache (one traced link per AP, refreshed only when
//!   the blockers move);
//! * one harmonic gain table per AP and the one SINR sum
//!   ([`crate::interference::sinr_sum`]);
//! * the drain / gather / commit batching over the worker pool;
//! * the control plane, backhaul arbitration and roaming;
//! * statistics, energy meters and the per-packet trace.
//!
//! The control plane is [`Control::Instant`] — every admitted node holds
//! its grant from t = 0 — or [`Control::Handshake`], the lossy
//! join/grant/lease protocol with churn, blockage bursts, AP restarts
//! and outage detection (DESIGN.md §7). Backhaul arbitration and roaming
//! (DESIGN.md §10) need no mode of their own: they only have work when a
//! node sits in the coverage cone of an AP other than its own.

use crate::ap::{ApId, ApStation};
use crate::control::{
    Admission, ControlMsg, LeaseConfig, NodeId, CONTROL_MSG_ENERGY_J, CONTROL_RTT,
};
use crate::energy::EnergyMeter;
use crate::event::EventQueue;
use crate::faults::{FaultConfig, FaultInjector};
use crate::fdm::{AllocError, BandPlan};
use crate::interference::sinr_sum;
use crate::link::{Backoff, LinkAction, LinkState, NodeLink};
use crate::multi_ap::proto::{ApMsg, ArbiterVerdict, SlotArbiter};
use crate::multi_ap::sim::{HandoffReport, MultiApPacketSample, PacerRoute};
use crate::node::NodeStation;
use crate::pool;
use crate::sdm::SdmSlot;
use crate::sim::{FadingConfig, RecoveryReport};
use crate::streams;
use mmx_antenna::tma::Tma;
use mmx_channel::blockage::HumanBlocker;
use mmx_channel::fading::{FadingProcess, Rician};
use mmx_channel::mobility::{LinearWalker, RandomWaypoint};
use mmx_channel::response::{beam_channel_into, BeamChannel};
use mmx_channel::room::Room;
use mmx_channel::trace::{PropPath, Tracer};
use mmx_channel::Vec2;
use mmx_obs::Recorder;
use mmx_phy::ber::{fsk_ber, joint_ber};
use mmx_units::{thermal_noise_dbm, BitRate, Db, DbmPower, Degrees, Hertz, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Upper bound on one gather batch (bounds per-batch task memory; far
/// above any realistic same-window packet census).
const MAX_BATCH: usize = 4096;

/// One-way latency of a control or backhaul hop, as a fraction of the
/// control RTT.
const HOP: f64 = 0.5;

/// Angle of arrival of `node`'s LoS at `ap`, relative to the AP's
/// facing.
pub(crate) fn arrival_angle(ap: &ApStation, node: &NodeStation) -> Degrees {
    ((node.pose.position - ap.pose.position).bearing() - ap.pose.facing).wrapped()
}

/// Static tag for a link state, used in `fsm` trace events and
/// `fsm_time_in_state_s` gauge labels.
fn state_name(s: LinkState) -> &'static str {
    match s {
        LinkState::Idle => "Idle",
        LinkState::Joining => "Joining",
        LinkState::Granted => "Granted",
        LinkState::Outage => "Outage",
        LinkState::Rejoining => "Rejoining",
        LinkState::Handoff { .. } => "Handoff",
    }
}

/// What stays fixed about the world for a run: the room, the stations,
/// how people move through it and the radio constants.
pub(crate) struct Scene<'a> {
    pub room: &'a Room,
    pub aps: &'a [ApStation],
    pub nodes: &'a [NodeStation],
    pub seed: u64,
    /// Random-waypoint walkers perturbing the channel.
    pub walkers: usize,
    /// A scripted linear blocker.
    pub pacer: Option<PacerRoute>,
    pub path_loss_exponent: f64,
    pub second_order_reflections: bool,
    pub implementation_loss: Db,
    /// Worker threads for setup and the gather phase (`0` = auto); the
    /// output never depends on it.
    pub threads: usize,
}

impl Scene<'_> {
    /// Specular arrival of node `i` at AP `a` under `blockers`, with
    /// caller-owned ray-trace scratch (so any number of gather workers
    /// may call it concurrently).
    fn trace(
        &self,
        a: usize,
        i: usize,
        blockers: &[HumanBlocker],
        paths: &mut Vec<PropPath>,
    ) -> (DbmPower, BeamChannel) {
        let node = &self.nodes[i];
        let tracer = Tracer::new(
            self.room,
            node.front_end().channel(),
            self.path_loss_exponent,
        )
        .with_second_order(self.second_order_reflections);
        let ch = beam_channel_into(
            &tracer,
            node.pose,
            self.aps[a].pose,
            node.beams(),
            self.aps[a].element(),
            blockers,
            paths,
        );
        (self.received(i, &ch), ch)
    }

    /// Power node `i` delivers to the AP antenna through the stronger
    /// beam of `ch`.
    fn received(&self, i: usize, ch: &BeamChannel) -> DbmPower {
        self.nodes[i].front_end().antenna_power() - self.implementation_loss
            + ch.gain(ch.stronger_beam())
    }
}

/// How nodes get and keep their grants.
pub(crate) enum Control {
    /// Every admitted node holds its grant from t = 0 and never loses
    /// it: admission is abstracted into a one-shot, lossless allocation.
    Instant,
    /// The join/grant/ack handshake over the lossy control channel, with
    /// leases and keepalives, the fault schedule (crashes, blockage
    /// bursts, AP restart) and K-consecutive-loss outage detection.
    Handshake {
        lease: LeaseConfig,
        outage_window: u32,
    },
}

/// A front end's slot plan and run settings.
pub(crate) struct Plan<'a> {
    /// Per AP: the TMA its receiver despreads through (`None`: a dipole,
    /// or a TMA left off under pure FDM — every gain 0 dB).
    pub listen: Vec<Option<&'a Tma>>,
    /// Per AP: its share of the channel grid (handoff targets pick from
    /// it).
    pub channels_of: Vec<Vec<usize>>,
    /// Center frequency of each channel index, Hz.
    pub channel_hz: Vec<f64>,
    /// Per node: the AP it associates with at t = 0.
    pub serving: Vec<ApId>,
    /// Per node: whether its AP admitted it (a rejected node never
    /// transmits).
    pub admitted: Vec<bool>,
    /// Per node: the (channel, harmonic) slot.
    pub slots: Vec<SdmSlot>,
    /// Per node: the granted PHY rate.
    pub rates: Vec<BitRate>,
    /// Per node: the APs whose coverage cone holds it, with the harmonic
    /// each one's TMA would assign it. Candidate SINR is computed at
    /// every one of them except the serving AP.
    pub reach: Vec<Vec<(ApId, i32)>>,
    /// Channel width every SINR is computed over.
    pub bandwidth: Hertz,
    pub duration: Seconds,
    /// Mobility/blockage update period.
    pub step: Seconds,
    /// Rician fading on the serving link.
    pub fading: Option<FadingConfig>,
    pub record_trace: bool,
    /// Decision SNR below which a packet counts as undecodable.
    pub decode_threshold: Db,
    /// Uplink power control at initialization, with this maximum
    /// backoff.
    pub power_control: Option<Db>,
    pub rate_adaptation: bool,
    pub control: Control,
    /// The one injector's configuration: control-plane and backhaul
    /// message fates, and under [`Control::Handshake`] the fault
    /// schedule.
    pub faults: FaultConfig,
    /// The band each AP's admission bookkeeping runs over.
    pub admission_plan: BandPlan,
    /// Roaming (DESIGN.md §10): how much better (dB) a neighbour AP must
    /// look before the hysteresis counter advances, the consecutive
    /// better-neighbour packets that arm a handoff, and the transfer
    /// retransmissions before the node gives up.
    pub handoff_hysteresis: Db,
    pub handoff_window: u32,
    pub max_transfer_retries: u32,
    /// Accumulate per-packet metrics (counters, SINR/BER histograms)
    /// into an enabled recorder.
    pub packet_metrics: bool,
    /// Emit an `assoc` trace event per node at instant admission.
    pub trace_assoc: bool,
}

/// The world at t = 0: mobility state and every node's specular arrival
/// at every AP. A front end reads the arrivals to associate nodes, then
/// [`run`](World::run)s its plan.
pub(crate) struct World<'a> {
    scene: Scene<'a>,
    rng: StdRng,
    walkers: Vec<RandomWaypoint>,
    pacer: Option<LinearWalker>,
    blockers: Arc<Vec<HumanBlocker>>,
    /// `arrival[a][i]`: node `i`'s specular power at AP `a` at t = 0,
    /// and the beam channel it was traced from.
    pub arrival: Vec<Vec<(DbmPower, BeamChannel)>>,
}

fn blockers_of(walkers: &[RandomWaypoint], pacer: &Option<LinearWalker>) -> Vec<HumanBlocker> {
    walkers
        .iter()
        .map(|w| w.position())
        .chain(pacer.as_ref().map(LinearWalker::position))
        .map(HumanBlocker::typical)
        .collect()
}

impl<'a> World<'a> {
    pub fn new(scene: Scene<'a>) -> Self {
        let room = scene.room;
        let mut rng = StdRng::seed_from_u64(scene.seed);
        let walkers: Vec<RandomWaypoint> = (0..scene.walkers)
            .map(|k| {
                let start = Vec2::new(
                    room.width() * (0.25 + 0.5 * (k as f64 / scene.walkers.max(1) as f64)),
                    room.depth() * 0.5,
                );
                RandomWaypoint::new(room, start, 1.4, 0.3, &mut rng)
            })
            .collect();
        let pacer = scene
            .pacer
            .map(|r| LinearWalker::new(r.from, r.to, r.speed_mps));
        let blockers = Arc::new(blockers_of(&walkers, &pacer));
        // Each (AP, node) trace is a pure function of the pair, so the
        // matrix is the same at any thread count.
        let n = scene.nodes.len();
        let threads = pool::resolve_threads(scene.threads);
        let mut flat = pool::run_indexed(threads, scene.aps.len() * n, |k| {
            scene.trace(k / n, k % n, &blockers, &mut Vec::new())
        })
        .into_iter();
        let arrival = (0..scene.aps.len())
            .map(|_| flat.by_ref().take(n).collect())
            .collect();
        World {
            scene,
            rng,
            walkers,
            pacer,
            blockers,
            arrival,
        }
    }

    /// Runs `plan` to its horizon. Trace events, metrics and the
    /// per-packet trace depend only on the scene and the plan — never on
    /// [`Scene::threads`] or on whether `rec` is enabled.
    pub fn run(self, mut plan: Plan<'a>, rec: &mut Recorder) -> Result<Outcome, AllocError> {
        let World {
            scene,
            rng,
            walkers,
            pacer,
            blockers,
            arrival,
        } = self;
        let n = scene.nodes.len();
        let na = scene.aps.len();
        let threads = pool::resolve_threads(scene.threads);
        let gains = GainTable::for_aps(&plan.listen, &scene, threads);
        let noise_mw: Vec<f64> = scene
            .aps
            .iter()
            .map(|ap| thermal_noise_dbm(plan.bandwidth, ap.noise_figure()).milliwatts())
            .collect();
        let home = |i: usize| plan.serving[i].index();

        // Power control (set once at initialization): back strong nodes
        // off toward the weakest arrival, bounded by the maximum backoff.
        let backoff: Vec<Db> = match plan.power_control {
            Some(max) if n > 1 => {
                let floor = (0..n)
                    .map(|i| arrival[home(i)][i].0)
                    .fold(DbmPower::new(f64::INFINITY), DbmPower::min);
                (0..n)
                    .map(|i| (arrival[home(i)][i].0 - floor).clamp(Db::ZERO, max))
                    .collect()
            }
            _ => vec![Db::ZERO; n],
        };
        // Arrivals (mW) as the initialization phase measures them;
        // rejected nodes stay silent for the whole run.
        let measured: Vec<Vec<f64>> = arrival
            .iter()
            .map(|at| {
                at.iter()
                    .enumerate()
                    .map(|(i, &(p, _))| {
                        if plan.admitted[i] {
                            (p - backoff[i]).milliwatts()
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        // Rate adaptation (set once at initialization, like the grants):
        // drop to a slower switch speed when the initial SINR cannot
        // carry the granted rate at the target BER.
        if plan.rate_adaptation {
            let adapter = mmx_phy::rate::RateAdapter::standard();
            for (i, rate) in plan.rates.iter_mut().enumerate() {
                let a = home(i);
                let row = gains[a].row(plan.slots[i].harmonic);
                let sinr = sinr_sum(noise_mw[a], i, &plan.slots, |j| measured[a][j], |j| row[j]);
                // Refer the channel-band SINR to the granted symbol band.
                let ref_gain =
                    Db::new(10.0 * (plan.bandwidth.hz() / adapter.reference_rate().bps()).log10());
                let ch = arrival[a][i].1;
                if let Some(r) = adapter.select(sinr + ref_gain, ch.level_separation()) {
                    *rate = rate.min(r);
                }
            }
        }
        // Decision SNR gain of running the symbols slower than the
        // channel width (zero for a demand-matched channel).
        let proc_gain = plan
            .rates
            .iter()
            .map(|r| Db::new(10.0 * (plan.bandwidth.hz() / (1.25 * r.bps())).log10()).max(Db::ZERO))
            .collect();
        let lease = match plan.control {
            Control::Handshake { lease, .. } => Some(lease),
            Control::Instant => None,
        };
        let mut idx_of = BTreeMap::new(); // first index wins for a duplicated id
        for (i, node) in scene.nodes.iter().enumerate() {
            idx_of.entry(node.id).or_insert(i);
        }
        let en = Engine {
            scene: &scene,
            plan: &plan,
            gains,
            noise_mw,
            backoff,
            proc_gain,
            air_bits: scene.nodes.iter().map(|n| n.packet_air_bits()).collect(),
            idx_of,
            obs_on: plan.packet_metrics && rec.is_enabled(),
            lease,
        };
        let mut st = State {
            q: EventQueue::new(),
            inj: FaultInjector::new(plan.faults.clone(), scene.seed),
            backoff: Backoff::standard(),
            rng,
            walkers,
            pacer,
            blockers,
            generation: 0,
            rx: Arc::new(if lease.is_some() {
                // Everyone silent until granted.
                vec![vec![0.0; n]; na]
            } else {
                measured
            }),
            slots: Arc::new(plan.slots.clone()),
            serving: Arc::new(plan.serving.clone()),
            links: vec![NodeLink::new(); n],
            adm: (0..na)
                .map(|_| Admission::new(plan.admission_plan.clone()))
                .collect(),
            arb: SlotArbiter::new(),
            alive: vec![true; n],
            keepalive_on: vec![false; n],
            packets_on: vec![false; n],
            pending: BTreeMap::new(),
            better_run: vec![0; n],
            burst_depth: 0,
            fsm_cursor: vec![(LinkState::Idle, 0.0); n],
            ctxs: (0..n)
                .map(|i| {
                    let mut rng = streams::node_stream(scene.seed, i);
                    let fader = plan
                        .fading
                        .map(|f| FadingProcess::new(Rician::new(Db::new(f.k_db)), f.rho, &mut rng));
                    Some(NodeCtx {
                        rng,
                        fader,
                        links: arrival
                            .iter()
                            .map(|at| {
                                let (power, ch) = at[i];
                                Link {
                                    generation: 0,
                                    power,
                                    ch,
                                }
                            })
                            .collect(),
                        paths: Vec::new(),
                        pwr_at: Vec::with_capacity(na),
                        alt: Vec::new(),
                    })
                })
                .collect(),
            drained: Vec::new(),
            gathered: Vec::new(),
            pm: PacketMetrics::new(en.obs_on),
            out: Outcome {
                sent: vec![0; n],
                delivered: vec![0; n],
                sinr_sum: vec![0.0; n],
                sinr_min: vec![f64::INFINITY; n],
                meters: vec![EnergyMeter::new(); n],
                ..Outcome::default()
            },
            join_sum: 0.0,
            rec_sum: 0.0,
            handoff_took: Vec::new(),
        };
        st.start(&en, rec)?;
        debug_assert!(slots_unique(&plan.admitted, &st.serving, &st.slots));

        pool::scoped(
            threads,
            |task: Task| en.gather(task),
            |disp| {
                while let Some((t, ev)) = st.q.pop() {
                    if t > plan.duration {
                        break;
                    }
                    match ev {
                        Event::Packet(first) => st.packets(&en, disp, t, first, rec),
                        ev => st.handle(&en, t, ev, rec),
                    }
                }
            },
        );
        Ok(st.finish(&en, rec))
    }
}

/// One AP's harmonic gain table: `row(m)[j]` is the linear power gain of
/// harmonic `m` toward node `j`'s arrival direction — every gain the
/// SINR sum needs, from one [`Tma::harmonic_power_gains`] call per node.
/// An AP without a TMA in use has a single all-unity row (harmonic 0).
struct GainTable {
    half: i32,
    rows: Vec<Vec<f64>>,
}

impl GainTable {
    /// Every AP's table (`listen[a]` is AP `a`'s TMA), from one pooled
    /// pass over the (AP, node) pairs. Each column is a pure function of
    /// its pair, so the tables are the same at any thread count.
    fn for_aps(listen: &[Option<&Tma>], scene: &Scene, threads: usize) -> Vec<GainTable> {
        let nodes = scene.nodes;
        let n = nodes.len();
        let mut columns = pool::run_indexed(threads, listen.len() * n, |k| {
            let (ap, node) = (&scene.aps[k / n], &nodes[k % n]);
            listen[k / n].map_or_else(
                || vec![1.0],
                |tma| tma.harmonic_power_gains(arrival_angle(ap, node)),
            )
        })
        .into_iter();
        listen
            .iter()
            .map(|tma| {
                let mut rows = vec![Vec::with_capacity(n); tma.map_or(1, |t| t.harmonics().len())];
                for gains in columns.by_ref().take(n) {
                    for (row, g) in rows.iter_mut().zip(gains) {
                        row.push(g);
                    }
                }
                GainTable {
                    half: tma.map_or(0, |t| t.len() as i32 / 2),
                    rows,
                }
            })
            .collect()
    }

    fn row(&self, m: i32) -> &[f64] {
        &self.rows[(m + self.half) as usize]
    }
}

/// Whether every admitted node holds a distinct (AP, channel, harmonic)
/// slot.
fn slots_unique(admitted: &[bool], serving: &[ApId], slots: &[SdmSlot]) -> bool {
    let mut seen = std::collections::BTreeSet::new();
    (0..slots.len())
        .filter(|&i| admitted[i])
        .all(|i| seen.insert((serving[i], slots[i].channel, slots[i].harmonic)))
}

/// Everything a run reads but never writes once it starts; the gather
/// workers share it.
struct Engine<'a> {
    scene: &'a Scene<'a>,
    plan: &'a Plan<'a>,
    gains: Vec<GainTable>,
    /// Per AP: the thermal noise floor, mW.
    noise_mw: Vec<f64>,
    /// Per node: the power-control backoff.
    backoff: Vec<Db>,
    /// Per node: the processing gain of its (final) PHY rate.
    proc_gain: Vec<Db>,
    air_bits: Vec<usize>,
    idx_of: BTreeMap<NodeId, usize>,
    /// The commit records per-packet samples into [`PacketMetrics`].
    obs_on: bool,
    /// The lease policy, under [`Control::Handshake`].
    lease: Option<LeaseConfig>,
}

impl Engine<'_> {
    /// SINR of node `i` at AP `a` through harmonic `h`, on the node's
    /// current channel: `own` is its fresh arrival there (mW), everyone
    /// else comes from the batch snapshot.
    fn sinr_at(&self, a: usize, h: i32, i: usize, snap: &Snapshot, own: f64) -> Db {
        let row = self.gains[a].row(h);
        let rx = &snap.rx[a];
        sinr_sum(
            self.noise_mw[a],
            i,
            &snap.slots,
            |j| if j == i { own } else { rx[j] },
            |j| row[j],
        )
    }

    /// The gather phase for one packet: the specular link to every AP
    /// (from the node's channel cache, re-traced only when the blockers
    /// have moved since it was traced), a fading step on the serving
    /// link, SINR against the batch snapshot, candidate SINR at every
    /// in-cone neighbour, BER → PER and the delivery draw. Pure per-node
    /// work — reads only frozen per-run data and the batch snapshot;
    /// mutates only the node's own context — so the result is a function
    /// of the task alone, independent of thread count.
    fn gather(&self, task: Task) -> Gathered {
        let Task {
            i,
            fsk,
            mut ctx,
            snap,
        } = task;
        let serving = snap.serving[i].index();
        let cut = self.backoff[i];
        ctx.pwr_at.clear();
        let mut sep = Db::ZERO;
        for (a, link) in ctx.links.iter_mut().enumerate() {
            if link.generation != snap.generation {
                (link.power, link.ch) = self.scene.trace(a, i, &snap.blockers, &mut ctx.paths);
                link.generation = snap.generation;
            } else {
                debug_assert!(
                    link.holds(self.scene.trace(a, i, &snap.blockers, &mut ctx.paths)),
                    "cached link of node {i} at AP {a} differs from a fresh trace"
                );
            }
            let mut p = link.power;
            if a == serving {
                // Fading perturbs the serving link only; exactly one step
                // per packet keeps the node-stream draw count independent
                // of the serving AP.
                let mut ch = link.ch;
                if let Some(f) = ctx.fader.as_mut() {
                    ch = f.step(&ch, &mut ctx.rng);
                    p = self.scene.received(i, &ch);
                }
                sep = ch.level_separation();
            }
            ctx.pwr_at.push((p - cut - snap.extra_loss).milliwatts());
        }
        let sinr = self.sinr_at(
            serving,
            snap.slots[i].harmonic,
            i,
            &snap,
            ctx.pwr_at[serving],
        );
        let decision_snr = sinr + self.proc_gain[i];
        // §6.2: in an outage the node drops the ASK bits and keeps only
        // the (more robust) FSK stream.
        let ber = if fsk {
            fsk_ber(decision_snr)
        } else {
            joint_ber(decision_snr, sep, Db::new(2.0))
        };
        let per = 1.0 - (1.0 - ber).powi(self.air_bits[i] as i32);
        let draw = ctx.rng.gen::<f64>();
        // Candidate view: what would each in-cone neighbour hear, on the
        // node's current channel, through the harmonic its TMA would
        // assign? (The real slot is assigned when the move applies.)
        ctx.alt.clear();
        for &(b, h) in &self.plan.reach[i] {
            if b.index() != serving {
                let s = self.sinr_at(b.index(), h, i, &snap, ctx.pwr_at[b.index()]);
                ctx.alt.push((b, s.value()));
            }
        }
        Gathered {
            i,
            fsk,
            ctx,
            sinr,
            decision_snr,
            ber,
            per,
            draw,
        }
    }

    /// The harmonic AP `ap` would assign node `i`.
    fn harmonic_at(&self, i: usize, ap: ApId) -> i32 {
        self.plan.reach[i]
            .iter()
            .find(|&&(b, _)| b == ap)
            .map(|&(_, h)| h)
            .expect("transfer targets are in-cone APs")
    }
}

/// Per-node gather context: the node's private RNG stream
/// ([`streams::node_stream`]), its time-correlated fading state, its
/// channel cache and reusable buffers. Exactly one in-flight gather task
/// owns a node's context at a time (a node appears at most once per
/// batch), so no locking is needed — the context travels with the task
/// and comes back with the result.
struct NodeCtx {
    rng: StdRng,
    fader: Option<FadingProcess>,
    /// The channel cache: `links[a]` is the node's specular link to AP
    /// `a` as last traced.
    links: Vec<Link>,
    paths: Vec<PropPath>,
    /// Gather output: the fresh arrival power at every AP, mW.
    pwr_at: Vec<f64>,
    /// Gather output: candidate SINR (dB) at each in-cone neighbour AP.
    alt: Vec<(ApId, f64)>,
}

/// One cached specular link: what [`Scene::trace`] returned under the
/// blockers of generation `generation`. Poses are fixed for a run and
/// the blockers change only at a mobility `Step`, so while the
/// generation holds the entry *is* the trace.
#[derive(Clone, Copy)]
struct Link {
    generation: u64,
    power: DbmPower,
    ch: BeamChannel,
}

impl Link {
    /// Whether this entry holds exactly `fresh`, bit for bit.
    fn holds(&self, fresh: (DbmPower, BeamChannel)) -> bool {
        let bits = |p: DbmPower, ch: BeamChannel| {
            [p.dbm(), ch.h0.re, ch.h0.im, ch.h1.re, ch.h1.im].map(f64::to_bits)
        };
        bits(self.power, self.ch) == bits(fresh.0, fresh.1)
    }
}

/// State shared by every task of one gather batch, frozen at batch
/// start. Blockers change only on mobility `Step`s and slots/serving
/// only on handoff commits — both end batches — so the snapshot shares
/// them copy-free; arrival powers change inside a batch, in the commit.
struct Snapshot {
    blockers: Arc<Vec<HumanBlocker>>,
    /// Generation of `blockers`.
    generation: u64,
    /// `rx[a][j]`: node `j`'s last arrival power at AP `a`, mW.
    rx: Arc<Vec<Vec<f64>>>,
    slots: Arc<Vec<SdmSlot>>,
    serving: Arc<Vec<ApId>>,
    /// Blockage-burst penalty in force.
    extra_loss: Db,
}

/// One node's unit of independent gather work.
struct Task {
    i: usize,
    /// Demodulate FSK-only (the node is riding out an outage, §6.2).
    fsk: bool,
    ctx: NodeCtx,
    snap: Arc<Snapshot>,
}

/// The pure result of one gather task — everything the commit phase
/// needs, and nothing it has to recompute.
struct Gathered {
    i: usize,
    fsk: bool,
    ctx: NodeCtx,
    sinr: Db,
    decision_snr: Db,
    ber: f64,
    per: f64,
    /// The node-stream uniform draw deciding packet delivery.
    draw: f64,
}

/// Events of the engine. `Packet`s batch; everything else ends a batch,
/// so protocol mutations never race a gather snapshot.
#[derive(Clone)]
enum Event {
    /// Mobility step: walkers and the pacer move, blockers rebuild.
    Step,
    /// Node `i` transmits its next data packet.
    Packet(usize),
    /// A control message arrives at the node's AP.
    ToAp(ControlMsg),
    /// A control message arrives at node `i`.
    ToNode(usize, ControlMsg),
    /// Node `i`'s retransmit timer for join attempt `a` fired.
    RetryJoin(usize, u32),
    /// Node `i`'s keepalive timer fired.
    KeepaliveTick(usize),
    /// The APs scan for expired leases.
    LeaseCheck,
    /// Node `i` crashes.
    Crash(usize),
    /// Node `i` reboots and rejoins.
    Rejoin(usize),
    /// Node `i` becomes active and starts its first join.
    Wake(usize),
    /// Node `i` leaves the network for good.
    Depart(usize),
    /// A correlated blockage burst begins (`true`) or ends.
    Burst(bool),
    /// The APs restart, losing all admission state.
    ApRestart,
    /// An inter-AP message reaches the coordinator.
    Arbit(ApMsg),
    /// A transfer grant reaches node `node`.
    TransferGrant {
        node: usize,
        to: ApId,
        epoch: u64,
        slot: SdmSlot,
    },
    /// A transfer retransmit timer fires.
    RetryTransfer { node: usize, attempt: u32 },
}

/// Trace tags of a control-plane event in flight: message name, subject
/// node id, and the numeric payload worth keeping (the grant epoch).
fn ctl_meta(ev: &Event) -> Option<(&'static str, i64, f64)> {
    let (Event::ToAp(msg) | Event::ToNode(_, msg)) = ev else {
        return None;
    };
    Some(match msg {
        ControlMsg::JoinRequest { node, .. } => ("join", *node as i64, 0.0),
        ControlMsg::Grant { node, epoch, .. } => ("grant", *node as i64, *epoch as f64),
        ControlMsg::GrantAck { node, epoch } => ("ack", *node as i64, *epoch as f64),
        ControlMsg::Keepalive { node } => ("keepalive", *node as i64, 0.0),
        ControlMsg::Reject { node } => ("reject", *node as i64, 0.0),
        ControlMsg::Leave { node } => ("leave", *node as i64, 0.0),
    })
}

/// How the drain classified one batched packet event. Classification
/// inputs (activity window, liveness, link FSM state) are only mutated
/// by non-`Packet` events — which end batches — or by a node's own
/// commit — and a node appears at most once per batch — so classifying
/// at drain time is exactly equivalent to classifying at commit time.
#[derive(Clone, Copy, PartialEq)]
enum Planned {
    /// Transmit: gets a gather task.
    Tx,
    /// The node left the network (activity window closed).
    Inactive,
    /// Radio down or lease lost: the application clock ticks, the
    /// packet is lost to churn.
    Churn,
}

/// Stack-local accumulators for the per-packet metrics.
///
/// The packet commit is the simulator's hot loop, so samples land in
/// plain counters and local histograms (one array index per sample) and
/// flush into the recorder's keyed registry once per run — exactly
/// equivalent, by the histogram merge law, to observing each sample
/// directly, but without a keyed map lookup per packet.
struct PacketMetrics {
    on: bool,
    sent: u64,
    delivered: u64,
    lost_to_churn: u64,
    fsk_fallback: u64,
    sinr_db: mmx_obs::Histogram,
    margin_db: mmx_obs::Histogram,
    ber: mmx_obs::Histogram,
}

impl PacketMetrics {
    fn new(on: bool) -> Self {
        PacketMetrics {
            on,
            sent: 0,
            delivered: 0,
            lost_to_churn: 0,
            fsk_fallback: 0,
            sinr_db: mmx_obs::Histogram::new(),
            margin_db: mmx_obs::Histogram::new(),
            ber: mmx_obs::Histogram::new(),
        }
    }

    fn flush(&self, rec: &mut Recorder) {
        if !self.on {
            return;
        }
        for (name, v) in [
            ("packets_sent", self.sent),
            ("packets_delivered", self.delivered),
            ("packets_lost_to_churn", self.lost_to_churn),
            ("fsk_fallback_packets", self.fsk_fallback),
        ] {
            if v > 0 {
                rec.add(name, "", v);
            }
        }
        rec.observe_hist("sinr_db", "", &self.sinr_db);
        rec.observe_hist("decision_margin_db", "", &self.margin_db);
        rec.observe_hist("ber", "", &self.ber);
    }
}

/// What a run produced, per node and in aggregate; the front ends shape
/// it into their reports.
#[derive(Default)]
pub(crate) struct Outcome {
    pub sent: Vec<u64>,
    pub delivered: Vec<u64>,
    pub sinr_sum: Vec<f64>,
    pub sinr_min: Vec<f64>,
    pub meters: Vec<EnergyMeter>,
    /// Slots at the end of the run (handoffs retune).
    pub slots: Vec<SdmSlot>,
    /// Link state machines at the end of the run.
    pub links: Vec<NodeLink>,
    pub trace: Vec<MultiApPacketSample>,
    pub recovery: RecoveryReport,
    pub handoff: HandoffReport,
}

impl Outcome {
    /// Node `i`'s mean SINR over its transmissions, dB.
    pub fn mean_sinr_db(&self, i: usize) -> Option<f64> {
        (self.sent[i] > 0).then(|| self.sinr_sum[i] / self.sent[i] as f64)
    }

    /// Node `i`'s packet error rate (0 when it never transmitted).
    pub fn per(&self, i: usize) -> f64 {
        if self.sent[i] > 0 {
            1.0 - self.delivered[i] as f64 / self.sent[i] as f64
        } else {
            0.0
        }
    }

    /// Node `i`'s application goodput over `duration`, bit/s.
    pub fn goodput_bps(&self, i: usize, node: &NodeStation, duration: Seconds) -> f64 {
        self.delivered[i] as f64 * node.payload_bytes as f64 * 8.0 / duration.value()
    }
}

/// Everything the commit phase mutates. Only the loop's own thread
/// touches it.
struct State {
    q: EventQueue<Event>,
    /// Draws every control/backhaul message fate and backoff jitter.
    inj: FaultInjector,
    backoff: Backoff,
    /// The channel stream: walker motion.
    rng: StdRng,
    walkers: Vec<RandomWaypoint>,
    pacer: Option<LinearWalker>,
    blockers: Arc<Vec<HumanBlocker>>,
    /// Generation of `blockers`: 0 at t = 0, bumped each time a `Step`
    /// rebuilds them.
    generation: u64,
    /// `rx[a][j]`: node `j`'s last arrival power at AP `a`, mW (0 when
    /// silent).
    rx: Arc<Vec<Vec<f64>>>,
    slots: Arc<Vec<SdmSlot>>,
    serving: Arc<Vec<ApId>>,
    links: Vec<NodeLink>,
    /// Per-AP admission bookkeeping.
    adm: Vec<Admission>,
    arb: SlotArbiter,
    alive: Vec<bool>,
    keepalive_on: Vec<bool>,
    packets_on: Vec<bool>,
    /// Slot reserved at the target AP while a transfer grant is in
    /// flight.
    pending: BTreeMap<usize, (ApId, SdmSlot)>,
    /// Consecutive better-neighbour packets per node.
    better_run: Vec<u32>,
    burst_depth: u32,
    /// FSM observability cursor: (state, entered-at) per node, so each
    /// transition charges the dwell time to the state just left.
    fsm_cursor: Vec<(LinkState, f64)>,
    ctxs: Vec<Option<NodeCtx>>,
    /// Reused drain and gather buffers.
    drained: Vec<(Seconds, usize, Planned)>,
    gathered: Vec<Option<Gathered>>,
    pm: PacketMetrics,
    out: Outcome,
    join_sum: f64,
    rec_sum: f64,
    handoff_took: Vec<f64>,
}

impl State {
    /// Admission and the first events: under [`Control::Instant`] every
    /// admitted node is granted at t = 0 and its packets are scheduled;
    /// under [`Control::Handshake`] nodes wake into the join handshake
    /// and the fault schedule is laid down.
    fn start(&mut self, en: &Engine, rec: &mut Recorder) -> Result<(), AllocError> {
        let (plan, nodes) = (en.plan, en.scene.nodes);
        let n = nodes.len();
        for (link, &ap) in self.links.iter_mut().zip(&plan.serving) {
            link.set_serving(ap);
        }
        self.q
            .schedule_at(Seconds::ZERO + plan.step, Event::Step)
            .expect("first step is ahead of t = 0");
        let Control::Handshake { lease, .. } = plan.control else {
            for (i, node) in nodes.iter().enumerate() {
                let a = plan.serving[i];
                if !plan.admitted[i] {
                    // Rejected at admission: the link stays Idle, tagged
                    // with the AP that turned it away.
                    if plan.trace_assoc {
                        rec.event(0.0, "assoc", node.id as i64, "rejected", "", a.0 as f64);
                    }
                    continue;
                }
                self.adm[a.index()].admit(node.id, node.demand, Seconds::ZERO)?;
                self.arb.handle(&ApMsg::Claim {
                    ap: a,
                    node: node.id,
                    epoch: 0,
                });
                let (_, epoch) = self.arb.owner_of(node.id).expect("just claimed");
                self.links[i].start_join(Seconds::ZERO);
                self.links[i].on_grant(
                    epoch,
                    plan.channel_hz[plan.slots[i].channel],
                    Seconds::ZERO,
                );
                // Join handshake energy: request + grant.
                self.out.meters[i].record_fixed(2.0 * CONTROL_MSG_ENERGY_J);
                if plan.trace_assoc && rec.is_enabled() {
                    let row = en.gains[a.index()].row(plan.slots[i].harmonic);
                    let rx = &self.rx[a.index()];
                    let s0 = sinr_sum(
                        en.noise_mw[a.index()],
                        i,
                        &plan.slots,
                        |j| rx[j],
                        |j| row[j],
                    );
                    rec.event(0.0, "assoc", node.id as i64, "granted", "", s0.value());
                }
                // Stagger starts to avoid artificial phase alignment, and
                // honor the node's activity window.
                let offset = node.packet_interval() * (i as f64 / n as f64);
                self.q
                    .schedule_at(node.active_from.max(offset), Event::Packet(i))
                    .expect("first packet is ahead of t = 0");
            }
            return Ok(());
        };
        let faults = &plan.faults;
        let crashes = self.inj.crash_schedule(n, plan.duration);
        let bursts = self.inj.burst_windows(plan.duration);
        let mut at = |t: Seconds, ev: Event| {
            self.q
                .schedule_at(t, ev)
                .expect("the fault schedule is ahead of t = 0")
        };
        at(Seconds::ZERO + lease.keepalive_interval, Event::LeaseCheck);
        for (i, node) in nodes.iter().enumerate() {
            // Stagger the joins over one control RTT so the thundering
            // herd at t = 0 stays deterministic but not simultaneous.
            at(
                node.active_from + CONTROL_RTT * (i as f64 / n as f64),
                Event::Wake(i),
            );
            if let Some(until) = node.active_until {
                at(until, Event::Depart(i));
            }
        }
        for c in &crashes {
            at(c.at, Event::Crash(c.node));
            at(c.at + faults.rejoin_delay, Event::Rejoin(c.node));
        }
        for &(start, end) in &bursts {
            at(start, Event::Burst(true));
            at(end, Event::Burst(false));
        }
        if let Some(t) = faults.ap_restart_at {
            at(t, Event::ApRestart);
        }
        Ok(())
    }

    /// Per-node FSM bookkeeping for observability: charges the stretch
    /// since the last transition to the state just left (gauge + outage
    /// histogram) and emits the `fsm` trace event. No-op (beyond the
    /// cursor) when the state did not change or the recorder is off.
    fn fsm_note(&mut self, rec: &mut Recorder, t: Seconds, i: usize, was: LinkState) {
        let now = self.links[i].state();
        if was == now {
            return;
        }
        let since = self.fsm_cursor[i].1;
        self.fsm_cursor[i] = (now, t.value());
        let dwell = (t.value() - since).max(0.0);
        let (from, to) = (state_name(was), state_name(now));
        rec.gauge_add("fsm_time_in_state_s", from, dwell);
        if was == LinkState::Outage {
            rec.observe("outage_s", "", dwell);
        }
        rec.event(t.value(), "fsm", i as i64, from, to, 0.0);
    }

    /// Node `i` recovered (rejoined, or its outage healed) after `d`.
    fn recovered(&mut self, rec: &mut Recorder, t: Seconds, i: usize, d: Seconds) {
        let r = &mut self.out.recovery;
        r.recoveries += 1;
        self.rec_sum += d.value();
        r.max_recovery_s = r.max_recovery_s.max(d.value());
        rec.event(t.value(), "recover", i as i64, "rejoin", "", d.value());
        rec.observe("recovery_s", "", d.value());
    }

    /// Offers a message to the lossy control/backhaul channel: it
    /// arrives after one hop plus injected delay unless the injector
    /// drops it; duplicates arrive shortly after the original. Control
    /// messages leave a `ctl` trace event carrying their fate
    /// (`sent`/`lost`/`dup`). Returns whether the message survived.
    fn send(&mut self, now: Seconds, ev: Event, rec: &mut Recorder) -> bool {
        self.out.recovery.control_sent += 1;
        let meta = ctl_meta(&ev);
        let fate = self.inj.control_fate();
        if let Some((name, node, v)) = meta {
            let tag = match (fate.lost, fate.duplicated) {
                (true, _) => "lost",
                (false, true) => "dup",
                (false, false) => "sent",
            };
            rec.event(now.value(), "ctl", node, name, tag, v);
        }
        if fate.lost {
            return false;
        }
        let at = now + CONTROL_RTT * HOP + fate.extra_delay;
        let dup = fate.duplicated.then(|| ev.clone());
        self.q.schedule_at(at, ev).expect("arrival is ahead");
        if let Some(ev) = dup {
            let at = at + CONTROL_RTT * 0.1;
            self.q
                .schedule_at(at, ev)
                .expect("duplicate arrival is ahead");
        }
        true
    }

    /// Sends node `i`'s `JoinRequest` and arms the retransmit timer for
    /// the attempt its link is on. Retransmissions (any attempt past the
    /// first) leave a `retry` trace event and count into `join_retries`.
    fn send_join(&mut self, en: &Engine, now: Seconds, i: usize, rec: &mut Recorder) {
        let node = &en.scene.nodes[i];
        let attempt = self.links[i].attempt();
        self.out.meters[i].record_fixed(CONTROL_MSG_ENERGY_J);
        if attempt > 0 {
            self.out.recovery.control_retries += 1;
            rec.inc("join_retries", "");
            rec.event(now.value(), "retry", i as i64, "join", "", attempt as f64);
        }
        let msg = ControlMsg::JoinRequest {
            node: node.id,
            demand_bps: node.demand.bps(),
        };
        self.send(now, Event::ToAp(msg), rec);
        let retry = now + self.backoff.delay(attempt, self.inj.jitter());
        self.q
            .schedule_at(retry, Event::RetryJoin(i, attempt))
            .expect("retry timer is ahead");
    }

    /// Offers node `i`'s `Transfer` to the backhaul and arms the retry
    /// timer for `attempt`.
    fn send_transfer(
        &mut self,
        now: Seconds,
        i: usize,
        msg: ApMsg,
        attempt: u32,
        rec: &mut Recorder,
    ) {
        self.out.handoff.transfers_sent += 1;
        if !self.send(now, Event::Arbit(msg), rec) {
            self.out.handoff.transfers_lost += 1;
        }
        self.q
            .schedule_at(
                now + self.backoff.delay(attempt, self.inj.jitter()),
                Event::RetryTransfer { node: i, attempt },
            )
            .expect("backoff delay is positive");
    }

    /// Silences node `i` at every AP.
    fn silence(&mut self, i: usize) {
        for rx_a in Arc::make_mut(&mut self.rx) {
            rx_a[i] = 0.0;
        }
    }

    /// The admission bookkeeping of node `id`'s AP.
    fn adm_of(&mut self, en: &Engine, id: NodeId) -> &mut Admission {
        let a = en.idx_of.get(&id).map_or(0, |&i| self.serving[i].index());
        &mut self.adm[a]
    }

    /// Handles every event but `Packet`.
    fn handle(&mut self, en: &Engine, t: Seconds, ev: Event, rec: &mut Recorder) {
        let nodes = en.scene.nodes;
        match ev {
            Event::Packet(_) => unreachable!("packets run in batches"),
            Event::Step => {
                // Without walkers or a pacer the blockers never move, and
                // every cached link stays valid for the whole run.
                if !self.walkers.is_empty() || self.pacer.is_some() {
                    let dt = en.plan.step.value();
                    for w in self.walkers.iter_mut() {
                        w.step(en.scene.room, dt, &mut self.rng);
                    }
                    if let Some(p) = self.pacer.as_mut() {
                        p.step(dt);
                    }
                    self.blockers = Arc::new(blockers_of(&self.walkers, &self.pacer));
                    self.generation += 1;
                }
                self.q
                    .schedule_in(en.plan.step, Event::Step)
                    .expect("step period is positive");
            }
            Event::Wake(i) | Event::Rejoin(i) => {
                // A rejoin is spurious when the matching crash was
                // skipped (node already inactive at crash time).
                let rejoin = matches!(ev, Event::Rejoin(_));
                if !nodes[i].is_active(t) || (rejoin && self.alive[i]) {
                    return;
                }
                self.alive[i] |= rejoin;
                let was = self.links[i].state();
                self.links[i].start_join(t);
                self.fsm_note(rec, t, i, was);
                self.send_join(en, t, i, rec);
            }
            Event::Depart(i) | Event::Crash(i) => {
                let depart = matches!(ev, Event::Depart(_));
                if !depart && (!self.alive[i] || !nodes[i].is_active(t)) {
                    return;
                }
                self.alive[i] = false;
                self.silence(i);
                let was = self.links[i].state();
                self.links[i].on_crash();
                self.fsm_note(rec, t, i, was);
                if depart {
                    rec.event(t.value(), "fault", i as i64, "depart", "", 0.0);
                    self.out.meters[i].record_fixed(CONTROL_MSG_ENERGY_J);
                    let leave = ControlMsg::Leave { node: nodes[i].id };
                    self.send(t, Event::ToAp(leave), rec);
                } else {
                    rec.event(t.value(), "fault", i as i64, "crash", "", 0.0);
                    rec.inc("faults", "crash");
                    self.out.recovery.crashes += 1;
                }
            }
            Event::RetryJoin(i, attempt) => {
                if self.alive[i] && self.links[i].retry_join(attempt) == LinkAction::SendJoin {
                    self.send_join(en, t, i, rec);
                }
            }
            Event::KeepaliveTick(i) => {
                let lease = en.lease.expect("leases run under the handshake");
                if !self.alive[i] || !self.links[i].is_streaming() {
                    self.keepalive_on[i] = false;
                    return;
                }
                self.out.meters[i].record_fixed(CONTROL_MSG_ENERGY_J);
                let msg = ControlMsg::Keepalive { node: nodes[i].id };
                self.send(t, Event::ToAp(msg), rec);
                self.q
                    .schedule_in(lease.keepalive_interval, Event::KeepaliveTick(i))
                    .expect("keepalive interval is positive");
            }
            Event::LeaseCheck => {
                let lease = en.lease.expect("leases run under the handshake");
                for a in 0..self.adm.len() {
                    for id in self.adm[a].expire_stale(t, lease.duration) {
                        rec.event(t.value(), "lease", id as i64, "expired", "", 0.0);
                        rec.inc("leases_expired", "");
                        // The node may still believe it is granted (all
                        // its keepalives were lost): tell it to rejoin.
                        if let Some(&i) = en.idx_of.get(&id) {
                            if self.alive[i] && self.links[i].is_streaming() {
                                let reject = ControlMsg::Reject { node: id };
                                self.send(t, Event::ToNode(i, reject), rec);
                            }
                        }
                    }
                }
                self.q
                    .schedule_in(lease.keepalive_interval, Event::LeaseCheck)
                    .expect("lease scan interval is positive");
            }
            Event::ApRestart => {
                rec.event(t.value(), "fault", -1, "ap_restart", "", 0.0);
                rec.inc("faults", "ap_restart");
                self.adm.iter_mut().for_each(Admission::restart);
            }
            Event::Burst(true) => {
                if self.burst_depth == 0 {
                    rec.span_begin(t.value(), "burst", -1);
                }
                self.burst_depth += 1;
            }
            Event::Burst(false) => {
                self.burst_depth = self.burst_depth.saturating_sub(1);
                if self.burst_depth == 0 {
                    rec.span_end(t.value(), "burst", -1);
                }
            }
            Event::ToAp(msg) => self.at_ap(en, t, msg, rec),
            Event::ToNode(i, msg) => self.at_node(en, t, i, msg, rec),
            Event::Arbit(msg) => self.arbitrate(en, t, msg, rec),
            Event::TransferGrant {
                node: i,
                to,
                epoch,
                slot,
            } => {
                let id = nodes[i].id;
                let old = self.links[i].state();
                let seen = self.links[i].epoch_seen();
                let center = en.plan.channel_hz[slot.channel];
                let (action, took) = self.links[i].on_transfer_grant(epoch, center, to, t);
                debug_assert!(self.links[i].epoch_seen() >= seen, "epoch went back");
                if action != LinkAction::AckGrant {
                    return;
                }
                // The break: retune and switch.
                Arc::make_mut(&mut self.slots)[i] = slot;
                Arc::make_mut(&mut self.serving)[i] = to;
                self.pending.remove(&i);
                self.better_run[i] = 0;
                self.out.handoff.completed += 1;
                if let Some(d) = took {
                    self.handoff_took.push(d.value());
                }
                let (old, now) = (state_name(old), state_name(self.links[i].state()));
                rec.event(t.value(), "fsm", id as i64, old, now, epoch as f64);
                rec.event(t.value(), "handoff", id as i64, "commit", "", to.0 as f64);
                debug_assert!(slots_unique(&en.plan.admitted, &self.serving, &self.slots));
            }
            Event::RetryTransfer { node: i, attempt } => {
                let id = nodes[i].id;
                let LinkState::Handoff { from, to } = self.links[i].state() else {
                    return; // already resolved
                };
                if attempt != self.links[i].attempt() {
                    return; // superseded timer
                }
                if attempt < en.plan.max_transfer_retries {
                    if self.links[i].retry_transfer(attempt) == LinkAction::SendTransfer {
                        self.out.handoff.transfer_retries += 1;
                        let msg = ApMsg::Transfer {
                            from,
                            to,
                            node: id,
                            epoch: self.links[i].epoch_seen(),
                        };
                        self.send_transfer(t, i, msg, attempt + 1, rec);
                    }
                    return;
                }
                match self.arb.owner_of(id) {
                    Some((owner, epoch)) if owner == to => {
                        // Ownership moved but every grant copy was lost:
                        // the coordinator re-delivers over the reliable
                        // backhaul.
                        self.out.handoff.grant_resyncs += 1;
                        let (_, slot) = self.pending[&i];
                        self.q
                            .schedule_at(
                                t + CONTROL_RTT * HOP,
                                Event::TransferGrant {
                                    node: i,
                                    to,
                                    epoch,
                                    slot,
                                },
                            )
                            .expect("resync is ahead of now");
                        rec.event(t.value(), "handoff", id as i64, "resync", "", to.0 as f64);
                    }
                    _ => {
                        // Ownership never moved: give up and stay home.
                        self.links[i].abort_handoff();
                        self.out.handoff.aborted += 1;
                        let epoch = self.links[i].epoch_seen() as f64;
                        rec.event(t.value(), "fsm", id as i64, "Handoff", "Granted", epoch);
                        rec.event(t.value(), "handoff", id as i64, "abort", "", from.0 as f64);
                    }
                }
            }
        }
    }

    /// A control message reaches the node's AP.
    fn at_ap(&mut self, en: &Engine, t: Seconds, msg: ControlMsg, rec: &mut Recorder) {
        let reject = |st: &mut Self, rec: &mut Recorder, node: NodeId| {
            if let Some(&i) = en.idx_of.get(&node) {
                let msg = ControlMsg::Reject { node };
                st.send(t, Event::ToNode(i, msg), rec);
            }
        };
        match msg {
            ControlMsg::JoinRequest { node, demand_bps } => {
                match self
                    .adm_of(en, node)
                    .join_at(node, BitRate::new(demand_bps), t)
                {
                    Ok(grants) => {
                        for g in grants {
                            if let ControlMsg::Grant { node: gid, .. } = &g {
                                if let Some(&i) = en.idx_of.get(gid) {
                                    self.send(t, Event::ToNode(i, g), rec);
                                }
                            }
                        }
                    }
                    Err(_) => reject(self, rec, node),
                }
            }
            ControlMsg::GrantAck { node, epoch } => self.adm_of(en, node).ack(node, epoch),
            ControlMsg::Keepalive { node } => {
                if !self.adm_of(en, node).refresh(node, t) {
                    reject(self, rec, node);
                }
            }
            ControlMsg::Leave { node } => self.adm_of(en, node).leave(node),
            ControlMsg::Grant { .. } | ControlMsg::Reject { .. } => {}
        }
    }

    /// A control message reaches node `i`.
    fn at_node(&mut self, en: &Engine, t: Seconds, i: usize, msg: ControlMsg, rec: &mut Recorder) {
        if !self.alive[i] {
            return; // delivered to a crashed radio
        }
        let was = self.links[i].state();
        match msg {
            ControlMsg::Grant {
                epoch, center_hz, ..
            } => {
                let seen = self.links[i].epoch_seen();
                let (act, healed) = self.links[i].on_grant(epoch, center_hz, t);
                debug_assert!(self.links[i].epoch_seen() >= seen, "epoch went back");
                self.fsm_note(rec, t, i, was);
                if act == LinkAction::AckGrant {
                    let node = &en.scene.nodes[i];
                    self.out.meters[i].record_fixed(CONTROL_MSG_ENERGY_J);
                    let ack = ControlMsg::GrantAck {
                        node: node.id,
                        epoch,
                    };
                    self.send(t, Event::ToAp(ack), rec);
                    if !self.keepalive_on[i] {
                        self.keepalive_on[i] = true;
                        self.q
                            .schedule_in(
                                en.lease
                                    .expect("leases run under the handshake")
                                    .keepalive_interval,
                                Event::KeepaliveTick(i),
                            )
                            .expect("keepalive interval is positive");
                    }
                    if !self.packets_on[i] {
                        self.packets_on[i] = true;
                        let n = en.scene.nodes.len();
                        let offset = node.packet_interval() * (i as f64 / n as f64);
                        self.q
                            .schedule_at(t + offset, Event::Packet(i))
                            .expect("first packet is ahead");
                    }
                }
                match healed {
                    Some(d) if was == LinkState::Joining => {
                        self.out.recovery.joins += 1;
                        self.join_sum += d.value();
                        rec.event(t.value(), "recover", i as i64, "join", "", d.value());
                        rec.observe("join_s", "", d.value());
                    }
                    Some(d) => self.recovered(rec, t, i, d),
                    None => {}
                }
            }
            ControlMsg::Reject { .. } => {
                let act = self.links[i].on_reject(t);
                self.fsm_note(rec, t, i, was);
                if act == LinkAction::SendJoin {
                    self.send_join(en, t, i, rec);
                }
            }
            _ => {}
        }
    }

    /// An inter-AP message reaches the coordinator.
    fn arbitrate(&mut self, en: &Engine, t: Seconds, msg: ApMsg, rec: &mut Recorder) {
        let verdict = self.arb.handle(&msg);
        let kind = match msg {
            ApMsg::Claim { .. } => "claim",
            ApMsg::Release { .. } => "release",
            ApMsg::Transfer { .. } => "transfer",
        };
        let verdict_tag = match verdict {
            ArbiterVerdict::Granted { .. } => "granted",
            ArbiterVerdict::Denied { .. } => "denied",
            ArbiterVerdict::Stale => "stale",
        };
        let (id, epoch) = (msg.node() as i64, msg.epoch() as f64);
        rec.event(t.value(), "apmsg", id, kind, verdict_tag, epoch);
        let ApMsg::Transfer { from, to, node, .. } = msg else {
            return;
        };
        let i = en.idx_of[&node];
        let demand = en.scene.nodes[i].demand;
        match verdict {
            ArbiterVerdict::Granted { epoch } => {
                // Move the admission record and reserve a slot at the
                // target: its first channel free of a (channel, harmonic)
                // collision with the slots its members hold and those
                // reserved by transfers in flight to it.
                self.adm[from.index()].leave(node);
                let joined = self.adm[to.index()]
                    .admit(node, demand, Seconds::ZERO)
                    .is_ok();
                let h = en.harmonic_at(i, to);
                let held_at_to = |j: usize| match self.pending.get(&j) {
                    Some(&(ap, reserved)) if ap == to => Some(reserved),
                    _ => (self.serving[j] == to).then(|| self.slots[j]),
                };
                let free = en.plan.channels_of[to.index()].iter().copied().find(|&c| {
                    !(0..self.slots.len()).any(|j| {
                        j != i
                            && en.plan.admitted[j]
                            && held_at_to(j)
                                == Some(SdmSlot {
                                    channel: c,
                                    harmonic: h,
                                })
                    })
                });
                match free.filter(|_| joined) {
                    Some(channel) => {
                        let slot = SdmSlot {
                            channel,
                            harmonic: h,
                        };
                        self.pending.insert(i, (to, slot));
                        // A lost grant is recovered by the retry path.
                        let ev = Event::TransferGrant {
                            node: i,
                            to,
                            epoch,
                            slot,
                        };
                        self.send(t, ev, rec);
                    }
                    None => {
                        // No room at the target: hand ownership back.
                        if joined {
                            self.adm[to.index()].leave(node);
                        }
                        self.adm[from.index()]
                            .admit(node, demand, Seconds::ZERO)
                            .ok();
                        self.arb.handle(&ApMsg::Claim {
                            ap: from,
                            node,
                            epoch,
                        });
                        self.out.handoff.denied += 1;
                        rec.event(t.value(), "handoff", node as i64, "denied", "", to.0 as f64);
                    }
                }
            }
            ArbiterVerdict::Denied { .. } => self.out.handoff.denied += 1,
            ArbiterVerdict::Stale => {
                // A retried transfer for a move that already applied is
                // the node telling us its grant never arrived: re-deliver
                // it.
                if let (Some((owner, epoch)), Some(&(pto, slot))) =
                    (self.arb.owner_of(node), self.pending.get(&i))
                {
                    if owner == to && pto == to {
                        let ev = Event::TransferGrant {
                            node: i,
                            to,
                            epoch,
                            slot,
                        };
                        self.send(t, ev, rec);
                    }
                }
            }
        }
    }

    /// Node `i`'s packet activity as of `tb` (see [`Planned`]).
    fn classify(&self, en: &Engine, tb: Seconds, i: usize) -> Planned {
        if !en.scene.nodes[i].is_active(tb) {
            Planned::Inactive
        } else if !self.alive[i] || !self.links[i].is_streaming() {
            Planned::Churn
        } else {
            Planned::Tx
        }
    }

    /// One batch of packets: drain a lookahead window, gather in
    /// parallel, commit in the drained (serial event) order.
    fn packets(
        &mut self,
        en: &Engine,
        disp: &mut pool::Dispatch<'_, Task, Gathered>,
        t: Seconds,
        first: usize,
        rec: &mut Recorder,
    ) {
        let nodes = en.scene.nodes;
        let mut batch = std::mem::take(&mut self.drained);
        let mut results = std::mem::take(&mut self.gathered);
        // -- drain: keep draining while the next event is a packet
        // strictly inside the batch horizon — the earliest time any
        // drained packet's reschedule could land — so the drained prefix
        // matches the serial pop order exactly (see `event` module docs).
        batch.clear();
        batch.push((t, first, self.classify(en, t, first)));
        let mut horizon = t + nodes[first].packet_interval();
        while batch.len() < MAX_BATCH {
            match self.q.peek() {
                Some((tn, &Event::Packet(_))) if tn < horizon && tn <= en.plan.duration => {
                    let Some((tn, Event::Packet(j))) = self.q.pop() else {
                        unreachable!("peeked a packet");
                    };
                    horizon = horizon.min(tn + nodes[j].packet_interval());
                    batch.push((tn, j, self.classify(en, tn, j)));
                }
                _ => break,
            }
        }
        // -- gather: per-node work, in parallel --
        let snap = Arc::new(Snapshot {
            blockers: Arc::clone(&self.blockers),
            generation: self.generation,
            rx: Arc::clone(&self.rx),
            slots: Arc::clone(&self.slots),
            serving: Arc::clone(&self.serving),
            extra_loss: if self.burst_depth > 0 {
                en.plan.faults.burst_loss
            } else {
                Db::ZERO
            },
        });
        let tasks = batch
            .iter()
            .filter(|&&(_, _, plan)| plan == Planned::Tx)
            .map(|&(_, i, _)| Task {
                i,
                fsk: self.links[i].state() == LinkState::Outage,
                ctx: self.ctxs[i].take().expect("one packet per node per batch"),
                snap: Arc::clone(&snap),
            })
            .collect();
        disp.run(tasks, &mut results);
        // Release the snapshot so the commit updates arrivals in place.
        drop(snap);
        // -- commit --
        let mut next = results.iter_mut();
        for &(tb, i, plan) in batch.iter() {
            match plan {
                Planned::Inactive => {
                    self.silence(i);
                    self.packets_on[i] = false;
                }
                Planned::Churn => {
                    // The application clock keeps ticking while the radio
                    // is down or waiting on re-admission.
                    self.silence(i);
                    self.out.recovery.packets_lost_to_churn += 1;
                    self.pm.lost_to_churn += 1;
                    self.q
                        .schedule_at(tb + nodes[i].packet_interval(), Event::Packet(i))
                        .expect("reschedule lands inside the batch horizon");
                }
                Planned::Tx => {
                    let g = next.next().and_then(Option::take).expect("gather result");
                    debug_assert_eq!(g.i, i);
                    self.commit(en, tb, g, rec);
                }
            }
        }
        (self.drained, self.gathered) = (batch, results);
    }

    /// Applies one gathered packet: arrivals, statistics, outage
    /// detection, delivery, roaming hysteresis, and the next packet.
    fn commit(&mut self, en: &Engine, tb: Seconds, g: Gathered, rec: &mut Recorder) {
        let (i, plan) = (g.i, en.plan);
        let node = &en.scene.nodes[i];
        for (rx_a, &p) in Arc::make_mut(&mut self.rx).iter_mut().zip(&g.ctx.pwr_at) {
            rx_a[i] = p;
        }
        let sinr = g.sinr.value();
        let out = &mut self.out;
        out.sent[i] += 1;
        out.sinr_sum[i] += sinr;
        out.sinr_min[i] = out.sinr_min[i].min(sinr);

        if let Control::Handshake { outage_window, .. } = plan.control {
            let decodable = g.decision_snr >= plan.decode_threshold;
            let was = self.links[i].state();
            let (act, healed) = self.links[i].on_packet_sinr(decodable, outage_window, tb);
            self.fsm_note(rec, tb, i, was);
            if act == LinkAction::SendJoin {
                // Outage declared: FSK fallback + re-admission.
                self.out.recovery.outages += 1;
                rec.event(tb.value(), "recover", i as i64, "outage", "", 0.0);
                self.send_join(en, tb, i, rec);
            }
            if let Some(d) = healed {
                self.recovered(rec, tb, i, d);
            }
        }

        if g.fsk {
            self.pm.fsk_fallback += 1;
        }
        self.pm.sent += 1;
        if en.obs_on {
            self.pm.sinr_db.record(sinr);
            // The margin is what the handshake's outage detection reads.
            if en.lease.is_some() {
                let margin = g.decision_snr - plan.decode_threshold;
                self.pm.margin_db.record(margin.value());
            }
            self.pm.ber.record(g.ber);
        }
        let out = &mut self.out;
        out.meters[i].record_airtime(node.packet_airtime(plan.rates[i]), node.tx_power_draw());
        let ok = g.draw >= g.per;
        if ok {
            out.delivered[i] += 1;
            self.pm.delivered += 1;
            out.meters[i].record_delivered(node.payload_bytes as u64 * 8);
            // The data plane is proof of liveness: a decoded packet
            // refreshes the lease like a keepalive, so a streaming node
            // can't lose its spectrum to an unlucky run of lost
            // keepalives. Keepalives still carry nodes through idle gaps
            // longer than the lease. Only expiry reads the refresh time,
            // and without leases nothing expires.
            if en.lease.is_some() {
                self.adm[self.serving[i].index()].refresh(node.id, tb);
            }
        }
        debug_assert!(self.out.delivered[i] <= self.out.sent[i]);

        // Delivery crediting: the serving AP holds the node's current
        // grant and is the only forwarder; a mid-handoff target forwards
        // only once the node has accepted its grant — at which point it
        // *is* the serving AP. Count credits honestly and flag any
        // double.
        let mut credits = u32::from(ok);
        if let LinkState::Handoff { to, .. } = self.links[i].state() {
            if let Some(&(_, s)) = g.ctx.alt.iter().find(|&&(b, _)| b == to) {
                let cand_decodes = Db::new(s) + en.proc_gain[i] >= plan.decode_threshold;
                if ok && cand_decodes {
                    self.out.handoff.dual_decodes += 1;
                    if self.links[i].serving() == to {
                        credits += 1;
                    }
                }
            }
        }
        debug_assert!(credits <= 1, "packet credited to two APs");
        if credits > 1 {
            self.out.handoff.duplicate_deliveries += 1;
        }
        if plan.record_trace {
            self.out.trace.push(MultiApPacketSample {
                t: tb,
                node: i,
                ap: self.serving[i],
                sinr_db: sinr,
                delivered: ok,
            });
        }

        // Roaming hysteresis: only a cleanly granted node arms a handoff.
        if self.links[i].state() == LinkState::Granted {
            let best =
                g.ctx.alt.iter().copied().fold(
                    None,
                    |acc: Option<(ApId, f64)>, (b, s)| match acc {
                        Some((_, bs)) if bs >= s => acc,
                        _ => Some((b, s)),
                    },
                );
            match best {
                Some((to, s)) if s > sinr + plan.handoff_hysteresis.value() => {
                    self.better_run[i] += 1;
                    if self.better_run[i] >= plan.handoff_window
                        && self.links[i].begin_handoff(to, tb) == LinkAction::SendTransfer
                    {
                        self.better_run[i] = 0;
                        self.out.handoff.attempts += 1;
                        let (id, epoch) = (node.id, self.links[i].epoch_seen());
                        let (t, node_tag) = (tb.value(), id as i64);
                        rec.event(t, "fsm", node_tag, "Granted", "Handoff", epoch as f64);
                        rec.event(t, "handoff", node_tag, "begin", "", to.0 as f64);
                        let msg = ApMsg::Transfer {
                            from: self.serving[i],
                            to,
                            node: id,
                            epoch,
                        };
                        self.send_transfer(tb, i, msg, 0, rec);
                    }
                }
                _ => self.better_run[i] = 0,
            }
        }
        self.ctxs[i] = Some(g.ctx);
        self.q
            .schedule_at(tb + node.packet_interval(), Event::Packet(i))
            .expect("reschedule lands inside the batch horizon");
    }

    /// Flushes the run's metrics and closes out its counters.
    fn finish(mut self, en: &Engine, rec: &mut Recorder) -> Outcome {
        let duration = en.plan.duration;
        self.pm.flush(rec);
        if en.lease.is_some() && rec.is_enabled() {
            // Close out the FSM dwell accounting at the horizon.
            for &(state, since) in &self.fsm_cursor {
                let dwell = (duration.value() - since).max(0.0);
                rec.gauge_add("fsm_time_in_state_s", state_name(state), dwell);
            }
        }
        let mean = |sum: f64, k: u64| if k > 0 { sum / k as f64 } else { 0.0 };
        let stale_grants = self.links.iter().map(NodeLink::stale_discarded).sum();
        let r = &mut self.out.recovery;
        r.control_lost = self.inj.stats().control_lost;
        r.stale_grants_discarded = stale_grants;
        r.reclaimed_leases = self.adm.iter().map(Admission::reclaimed_leases).sum();
        r.mean_join_s = mean(self.join_sum, r.joins);
        r.mean_recovery_s = mean(self.rec_sum, r.recoveries);
        r.granted_at_end = self
            .links
            .iter()
            .filter(|l| l.state() == LinkState::Granted)
            .count();
        r.streaming_at_end = self.links.iter().filter(|l| l.is_streaming()).count();
        r.alive_at_end = (0..self.alive.len())
            .filter(|&i| self.alive[i] && en.scene.nodes[i].is_active(duration))
            .count();
        let ho = &mut self.out.handoff;
        ho.stale_transfer_msgs = self.arb.stale_discarded();
        ho.stale_grants_discarded = stale_grants;
        if !self.handoff_took.is_empty() {
            ho.mean_handoff_s = mean(
                self.handoff_took.iter().sum(),
                self.handoff_took.len() as u64,
            );
            ho.max_handoff_s = self.handoff_took.iter().cloned().fold(0.0, f64::max);
        }
        self.out.slots = Arc::try_unwrap(self.slots).unwrap_or_else(|s| s.to_vec());
        self.out.links = self.links;
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmx_channel::response::Pose;
    use mmx_channel::room::Material;

    /// `n` nodes facing `na` TMA APs along a 12 m × 6 m room, with two
    /// walkers so the t = 0 trace sees blockers.
    fn stations(na: usize, n: usize) -> (Room, Vec<ApStation>, Vec<NodeStation>) {
        let room = Room::rectangular(12.0, 6.0, Material::Drywall);
        let aps = (0..na)
            .map(|k| {
                let x = 12.0 * (k as f64 + 0.5) / na as f64;
                let pose = Pose::new(Vec2::new(x, 5.7), Degrees::new(270.0));
                ApStation::with_tma(pose, 16, Hertz::from_mhz(1.0)).with_id(ApId(k as u16))
            })
            .collect();
        let nodes = (0..n)
            .map(|i| {
                let f = (i as f64 + 0.5) * 0.618_033_988_75;
                let pos = Vec2::new(0.5 + 11.0 * f.fract(), 0.5 + 4.0 * (f * 3.7).fract());
                let pose = Pose::facing_toward(pos, Vec2::new(6.0, 5.7));
                NodeStation::new(i as NodeId, pose, BitRate::from_mbps(1.0))
            })
            .collect();
        (room, aps, nodes)
    }

    fn scene<'a>(
        room: &'a Room,
        aps: &'a [ApStation],
        nodes: &'a [NodeStation],
        threads: usize,
    ) -> Scene<'a> {
        Scene {
            room,
            aps,
            nodes,
            seed: 7,
            walkers: 2,
            pacer: None,
            path_loss_exponent: 2.6,
            second_order_reflections: true,
            implementation_loss: Db::new(3.0),
            threads,
        }
    }

    /// Every bit of the t = 0 arrival matrix and of every gain table;
    /// odd-numbered APs listen through their dipole.
    fn setup_bits(
        room: &Room,
        aps: &[ApStation],
        nodes: &[NodeStation],
        threads: usize,
    ) -> Vec<u64> {
        let s = scene(room, aps, nodes, threads);
        let listen: Vec<Option<&Tma>> = aps
            .iter()
            .enumerate()
            .map(|(a, ap)| ap.tma().filter(|_| a % 2 == 0))
            .collect();
        let tables = GainTable::for_aps(&listen, &s, threads);
        // Each table is its AP's own, whatever the APs before it listen
        // through.
        for (a, (t, tma)) in tables.iter().zip(&listen).enumerate() {
            for (j, node) in nodes.iter().enumerate() {
                let direct = tma.map_or_else(
                    || vec![1.0],
                    |tma| tma.harmonic_power_gains(arrival_angle(&aps[a], node)),
                );
                let column: Vec<f64> = t.rows.iter().map(|row| row[j]).collect();
                assert_eq!(column, direct, "AP {a}, node {j}");
            }
        }
        let mut bits: Vec<u64> = tables
            .iter()
            .flat_map(|t| t.rows.iter().flatten().map(|g| g.to_bits()))
            .collect();
        let world = World::new(s);
        for &(p, ch) in world.arrival.iter().flatten() {
            bits.extend([p.dbm(), ch.h0.re, ch.h0.im, ch.h1.re, ch.h1.im].map(f64::to_bits));
        }
        bits
    }

    #[test]
    fn setup_is_identical_at_any_thread_count() {
        for (na, n) in [(1, 1), (1, 37), (4, 1), (4, 37)] {
            let (room, aps, nodes) = stations(na, n);
            let serial = setup_bits(&room, &aps, &nodes, 1);
            // Five words per arrival, one per gain-table entry: a
            // TMA's harmonic rows on even APs, one unity row on odd.
            let harmonics = aps[0].tma().expect("a TMA AP").harmonics().len();
            let rows: usize = (0..na)
                .map(|a| if a % 2 == 0 { harmonics } else { 1 })
                .sum();
            assert_eq!(serial.len(), n * (5 * na + rows));
            for threads in [2, 4] {
                assert_eq!(
                    setup_bits(&room, &aps, &nodes, threads),
                    serial,
                    "{na} APs × {n} nodes at {threads} threads"
                );
            }
        }
    }
}
