//! Per-layer timings: each layer's public function called from the
//! benchmark on the workload's own stations, slots, blockers and SINRs.

use crate::host::HostSpeed;
use crate::spans::{SpanId, Spans};
use crate::stats::median;
use crate::workload::{Geometry, Outcome, Params};
use mmx_channel::fading::{FadingProcess, Rician};
use mmx_channel::response::BeamChannel;
use mmx_channel::{beam_channel_into, Tracer};
use mmx_net::ap::ApId;
use mmx_net::interference::sinr_at_ap;
use mmx_net::multi_ap::{ApCoverage, HarmonicReusePlan};
use mmx_net::sdm::{SdmScheduler, SdmSlot};
use mmx_phy::ber::{fsk_ber, joint_ber};
use mmx_units::{Db, DbmPower, Degrees};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Each layer is timed over at least this many passes ...
const MIN_PASSES: usize = 5;
/// ... and for at least this long.
const MIN_SECS: f64 = 0.25;
/// Cap on the calls one pass of an O(N²) layer makes, so a pass stays
/// short enough to repeat.
const MAX_PAIRS: usize = 50_000;

/// Median reference seconds per layer call: `pass` makes `calls` calls
/// and returns a value the optimiser must keep.
fn per_call(speed: &mut HostSpeed, calls: usize, mut pass: impl FnMut() -> f64) -> f64 {
    assert!(calls > 0, "a pass makes at least one call");
    let (host_s, call) = speed.around(|| {
        let mut times = Vec::new();
        let start = Instant::now();
        while times.len() < MIN_PASSES || start.elapsed().as_secs_f64() < MIN_SECS {
            let t = Instant::now();
            black_box(pass());
            times.push(t.elapsed().as_secs_f64() / calls as f64);
        }
        median(&times)
    });
    host_s * speed.factor(call)
}

/// Every `stride`-th index of `0..n`, with the stride chosen so that
/// each kept index times `per_item` stays under `budget` calls.
fn strided(n: usize, per_item: usize, budget: usize) -> Vec<usize> {
    let stride = (n * per_item).div_ceil(budget).max(1);
    (0..n).step_by(stride).collect()
}

/// The per-layer timings of one workload.
pub struct LayerTimes {
    /// `SdmScheduler::schedule` over every AP, ms per workload.
    pub schedule_ms: f64,
    /// `Tma::harmonic_gain`, ns per call.
    pub gain_ns: f64,
    /// `HarmonicReusePlan::new`, ms per call.
    pub reuse_plan_ms: f64,
    /// `beam_channel_into` (tracer included), µs per node→AP link.
    pub trace_us: f64,
    /// `FadingProcess::step`, ns per call.
    pub fading_ns: f64,
    /// `joint_ber` / `fsk_ber`, ns per call.
    pub ber_ns: f64,
    /// `sinr_at_ap` over all N nodes, µs per call.
    pub sinr_us: f64,
}

/// Times every layer on the workload whose stations are `g`, whose
/// configuration is `p` and whose full run at the same seed produced
/// `o`, in reference seconds (see [`crate::host`]). Fails when the
/// benchmark's reconstruction of the engine's association disagrees
/// with the report.
pub fn measure(
    g: &Geometry,
    p: &Params,
    o: &Outcome,
    spans: &mut Spans,
    parent: Option<SpanId>,
    speed: &mut HostSpeed,
) -> Result<LayerTimes, String> {
    let (na, nn) = (g.aps.len(), g.nodes.len());
    let aoa: Vec<Vec<Degrees>> = (0..na)
        .map(|a| (0..nn).map(|i| g.aoa(a, i)).collect())
        .collect();
    let tma = |a: usize| g.aps[a].tma().expect("every workload AP has a TMA");
    let capacity = p.plan.capacity(p.sdm_width).max(1);
    let cones: Vec<ApCoverage> = g
        .aps
        .iter()
        .map(|ap| ApCoverage::new(ap.pose, p.coverage_half_angle, p.coverage_range_m))
        .collect();
    let plan = HarmonicReusePlan::new(&cones, capacity).map_err(|e| format!("{e:?}"))?;
    let slots: Vec<SdmSlot> = o.rows.iter().map(|r| r.slot).collect();

    // Channels of every node→AP link under the initial blockers; the
    // inputs of the fading, BER and SINR layers.
    let links: Vec<(usize, usize)> = (0..na).flat_map(|a| (0..nn).map(move |i| (a, i))).collect();
    let trace = |a: usize, i: usize, paths: &mut Vec<_>| -> BeamChannel {
        let node = &g.nodes[i];
        let tracer = Tracer::new(&g.room, node.front_end().channel(), p.path_loss_exponent)
            .with_second_order(p.second_order);
        beam_channel_into(
            &tracer,
            node.pose,
            g.aps[a].pose,
            node.beams(),
            g.aps[a].element(),
            &g.blockers,
            paths,
        )
    };
    let mut paths = Vec::new();
    let chans: Vec<Vec<BeamChannel>> = (0..na)
        .map(|a| (0..nn).map(|i| trace(a, i, &mut paths)).collect())
        .collect();
    let mut rx = arrival_powers(g, p, &chans);
    let members = if na == 1 {
        vec![(0..nn).collect::<Vec<_>>()]
    } else {
        initial_members(g, &aoa, &rx, &cones, &plan)
    };
    // Nodes the engine turned away stay silent.
    for row in &mut rx {
        for (r, node) in row.iter_mut().zip(&o.rows) {
            if !node.admitted {
                *r = DbmPower::ZERO_POWER;
            }
        }
    }
    let admitted: usize = members.iter().map(Vec::len).sum();
    let reported = o.rows.iter().filter(|r| r.admitted).count();
    if admitted != reported {
        return Err(format!(
            "benchmark admits {admitted} nodes where the engine admitted {reported}"
        ));
    }

    let schedule_ms = spans.time("layer.sdm_schedule", parent, None, |_, _| {
        let jobs: Vec<(SdmScheduler, Vec<Degrees>, usize)> = members
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(a, m)| {
                let channels = if na == 1 {
                    capacity
                } else {
                    plan.channels_of(ApId(a as u16)).len()
                };
                let angles = m.iter().map(|&i| aoa[a][i]).collect();
                (SdmScheduler::new(tma(a).clone()), angles, channels)
            })
            .collect();
        1e3 * per_call(speed, 1, || {
            jobs.iter()
                .map(|(s, angles, c)| s.schedule(angles, *c).map_or(0, |v| v.len()) as f64)
                .sum()
        })
    });
    let gain_ns = spans.time("layer.tma_gain", parent, None, |_, _| {
        let rows = strided(nn, nn, MAX_PAIRS);
        1e9 * per_call(speed, rows.len() * nn, || {
            let mut acc = 0.0;
            for &i in &rows {
                let (a, h) = (o.rows[i].ap, slots[i].harmonic);
                for &az in &aoa[a] {
                    acc += tma(a).harmonic_gain(h, az).value();
                }
            }
            acc
        })
    });
    let reuse_plan_ms = spans.time("layer.reuse_plan", parent, None, |_, _| {
        const CALLS: usize = 50;
        1e3 * per_call(speed, CALLS, || {
            (0..CALLS)
                .map(|_| {
                    HarmonicReusePlan::new(black_box(&cones), capacity)
                        .map_or(0.0, |pl| pl.num_colors() as f64)
                })
                .sum()
        })
    });
    let trace_us = spans.time("layer.channel_trace", parent, None, |_, _| {
        let mut paths = Vec::new();
        1e6 * per_call(speed, links.len(), || {
            links
                .iter()
                .map(|&(a, i)| trace(a, i, &mut paths).h0.re)
                .sum()
        })
    });
    let serving: Vec<&BeamChannel> = (0..nn).map(|i| &chans[o.rows[i].ap][i]).collect();
    let fading_ns = spans.time("layer.fading", parent, None, |_, _| {
        const STEPS: usize = 10;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFADE);
        let mut procs: Vec<FadingProcess> = (0..nn)
            .map(|_| {
                FadingProcess::new(Rician::new(Db::new(p.fading.k_db)), p.fading.rho, &mut rng)
            })
            .collect();
        1e9 * per_call(speed, nn * STEPS, || {
            let mut acc = 0.0;
            for _ in 0..STEPS {
                for (f, ch) in procs.iter_mut().zip(&serving) {
                    acc += f.step(ch, &mut rng).h0.re;
                }
            }
            acc
        })
    });
    let ber_ns = spans.time("layer.ber", parent, None, |_, _| {
        let inputs: Vec<(Db, Db)> = o
            .rows
            .iter()
            .zip(&serving)
            .filter(|(r, _)| r.sinr_db.is_finite())
            .map(|(r, ch)| (Db::new(r.sinr_db), ch.level_separation()))
            .collect();
        if inputs.is_empty() {
            return f64::NAN;
        }
        1e9 * per_call(speed, 2 * inputs.len(), || {
            inputs
                .iter()
                .map(|&(snr, sep)| joint_ber(snr, sep, Db::new(2.0)) + fsk_ber(snr))
                .sum()
        })
    });
    let sinr_us = spans.time("layer.sinr", parent, None, |_, _| {
        let bandwidth = if o.used_sdm {
            p.sdm_width
        } else {
            p.plan.width_for(g.nodes[0].demand)
        };
        let who = strided(nn, nn, MAX_PAIRS);
        1e6 * per_call(speed, who.len(), || {
            who.iter()
                .map(|&i| {
                    let a = o.rows[i].ap;
                    sinr_at_ap(
                        tma(a),
                        g.aps[a].noise_figure(),
                        bandwidth,
                        i,
                        nn,
                        &slots,
                        |j| rx[a][j],
                        |j| aoa[a][j],
                    )
                    .value()
                })
                .sum()
        })
    });
    Ok(LayerTimes {
        schedule_ms,
        gain_ns,
        reuse_plan_ms,
        trace_us,
        fading_ns,
        ber_ns,
        sinr_us,
    })
}

/// Arrival powers of every node at every AP, before admission.
fn arrival_powers(g: &Geometry, p: &Params, chans: &[Vec<BeamChannel>]) -> Vec<Vec<DbmPower>> {
    chans
        .iter()
        .map(|row| {
            row.iter()
                .zip(&g.nodes)
                .map(|(ch, n)| {
                    n.front_end().antenna_power() - p.implementation_loss
                        + ch.gain(ch.stronger_beam())
                })
                .collect()
        })
        .collect()
}

/// The multi-AP engine's setup association, from the outside: each
/// node joins the AP whose cone holds it (ties broken by arrival power,
/// then by the lower AP id), and each AP admits at most one node per
/// channel of its share per harmonic beam, in node order.
fn initial_members(
    g: &Geometry,
    aoa: &[Vec<Degrees>],
    rx: &[Vec<DbmPower>],
    cones: &[ApCoverage],
    plan: &HarmonicReusePlan,
) -> Vec<Vec<usize>> {
    let na = g.aps.len();
    let mut members = vec![Vec::new(); na];
    let mut per_beam: Vec<BTreeMap<i32, usize>> = vec![BTreeMap::new(); na];
    for (i, node) in g.nodes.iter().enumerate() {
        let inside = |a: usize| cones[a].contains(node.pose.position);
        let mut best = 0;
        for a in 1..na {
            let better = match (inside(a), inside(best)) {
                (true, false) => true,
                (false, true) => false,
                _ => rx[a][i] > rx[best][i],
            };
            if better {
                best = a;
            }
        }
        let tma = g.aps[best].tma().expect("every workload AP has a TMA");
        let h = tma.assign_harmonics(&[aoa[best][i]])[0];
        let count = per_beam[best].entry(h).or_insert(0);
        if *count < plan.channels_of(ApId(best as u16)).len() {
            *count += 1;
            members[best].push(i);
        }
    }
    members
}
