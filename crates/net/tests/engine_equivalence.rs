//! Both simulator front ends drive one engine: a one-AP `MultiApSim`
//! and a `NetworkSim` on the same room, stations, seed, walkers and
//! fading must produce the same packets. This pins the equivalence on
//! the SDM path, where both plan slots with the same TMA scheduler over
//! the same channel grid (power control off, no faults: the settings
//! the multi-AP front end always uses).

use mmx_channel::response::Pose;
use mmx_channel::room::{Material, Room};
use mmx_channel::Vec2;
use mmx_net::ap::ApStation;
use mmx_net::multi_ap::{MultiApConfig, MultiApSim};
use mmx_net::node::NodeStation;
use mmx_net::sim::{FadingConfig, NetworkSim, SimConfig};
use mmx_units::{BitRate, Degrees, Hertz, Seconds};
use rand::{Rng, SeedableRng};

/// The room, the AP and `n` 1 Mbit/s sensors scattered in front of it
/// (the `fig13_scale` layout: a 32-element TMA facing into a 6 m × 4 m
/// room, nodes within ±55° of boresight).
fn stations(n: usize, seed: u64) -> (Room, ApStation, Vec<NodeStation>) {
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
    (room, ap, nodes)
}

fn assert_front_ends_agree(n: usize, seed: u64, walkers: usize, fading: Option<FadingConfig>) {
    let duration = Seconds::from_millis(60.0);
    let (room, ap, nodes) = stations(n, seed);

    let mut cfg = SimConfig::standard();
    cfg.duration = duration;
    cfg.seed = seed;
    cfg.walkers = walkers;
    cfg.fading = fading;
    cfg.sdm_channel_width = Hertz::from_mhz(3.0);
    cfg.power_control = false;
    cfg.threads = 2;
    let mut single = NetworkSim::new(room.clone(), ap.clone(), cfg);

    let mut mcfg = MultiApConfig::standard();
    mcfg.duration = duration;
    mcfg.seed = seed;
    mcfg.walkers = walkers;
    mcfg.fading = fading;
    mcfg.sdm_channel_width = Hertz::from_mhz(3.0);
    mcfg.threads = 2;
    let mut multi = MultiApSim::new(room, mcfg);
    multi.add_ap(ap);

    for node in nodes {
        single.add_node(node.clone());
        multi.add_node(node);
    }
    let s = single.run().expect("single-AP run");
    let m = multi.run().expect("one-AP multi-AP run");
    assert!(s.used_sdm, "the layout must load the SDM path");
    assert_eq!(m.per_ap_admitted, vec![n], "one AP admits everyone");
    assert_eq!(s.nodes.len(), m.nodes.len());
    for (a, b) in s.nodes.iter().zip(&m.nodes) {
        assert_eq!(a.id, b.id);
        assert!(a.sent > 0, "node {} never transmitted", a.id);
        assert_eq!(a.sent, b.sent, "node {} sent", a.id);
        assert_eq!(a.delivered, b.delivered, "node {} delivered", a.id);
        assert_eq!(
            a.mean_sinr_db.to_bits(),
            b.mean_sinr_db.to_bits(),
            "node {} mean SINR {} vs {}",
            a.id,
            a.mean_sinr_db,
            b.mean_sinr_db
        );
        assert_eq!(a.slot, b.slot, "node {} slot", a.id);
    }
}

#[test]
fn one_ap_multi_ap_matches_single_ap_static() {
    assert_front_ends_agree(400, 1, 0, None);
}

#[test]
fn one_ap_multi_ap_matches_single_ap_with_walkers_and_fading() {
    assert_front_ends_agree(420, 3, 2, Some(FadingConfig::indoor()));
}
