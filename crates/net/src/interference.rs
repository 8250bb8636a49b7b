//! SINR computation for concurrent uplinks.
//!
//! A node's signal at the AP competes with (a) other nodes leaking across
//! TMA harmonics (the 20–30 dB-down copies of Eq. 4), (b) adjacent-channel
//! leakage of OOK spectra, and (c) thermal noise. Fig. 13's "SNR slightly
//! decreases" with node count is exactly these terms growing.
//!
//! Under multiple APs ([`crate::multi_ap`]) a fourth term appears:
//! co-channel uplinks *served by other APs* still arrive at this AP's
//! antenna and leak through its TMA sidelobes. [`sinr_at_ap`] accounts
//! for all four with global channel indices, so cross-AP interference
//! falls out of the same arithmetic as intra-AP interference. The
//! simulator runs the same sum over per-AP gain tables.
//!
//! The sum works in the linear domain: arrivals in milliwatts, gains and
//! adjacent-channel isolation as linear power ratios. Each interference
//! term is one multiply-add, and the only transcendental call per SINR is
//! the final `log10`.

use crate::sdm::SdmSlot;
use mmx_antenna::tma::HarmonicGain;
use mmx_units::{thermal_noise_dbm, Db, DbmPower, Degrees, Hertz};
use std::sync::OnceLock;

/// Adjacent-channel leakage of an OOK transmitter into a channel `k`
/// steps away (guard bands included in the plan): −30 dB for the first
/// neighbor, −45 beyond, −60 floor.
pub fn adjacent_channel_leakage(channel_distance: usize) -> Db {
    Db::new(match channel_distance {
        0 => 0.0,
        1 => -30.0,
        2 => -45.0,
        _ => -60.0,
    })
}

/// [`adjacent_channel_leakage`] as linear power ratios, indexed by
/// channel distance (the last entry covers every larger distance).
fn acl_linear() -> &'static [f64; 4] {
    static ACL: OnceLock<[f64; 4]> = OnceLock::new();
    ACL.get_or_init(|| std::array::from_fn(|d| adjacent_channel_leakage(d).linear()))
}

/// SINR of node `me` at one AP of a multi-AP deployment.
///
/// Every node in the deployment — not just this AP's members —
/// contributes an interference term: `rx_of(j)` is node `j`'s arrival
/// power *at this AP's antenna*, `aoa_of(j)` its arrival angle there,
/// and `slots[j].channel` a **global** channel index from the shared
/// [`crate::multi_ap::HarmonicReusePlan`] grid. Co-channel reuse
/// between APs whose coverage cones the plan judged disjoint therefore
/// shows up here as an ordinary (weak, because distant and in the
/// sidelobes) interference term rather than as a special case — and a
/// bad reuse plan shows up as collapsed SINR instead of being silently
/// ignored.
///
/// The accessor-closure shape lets a caller substitute a freshly traced
/// power for the transmitting node while reading everyone else from a
/// frozen snapshot, without building a per-packet `Vec`. The simulator
/// runs the same sum over precomputed gain tables.
#[allow(clippy::too_many_arguments)]
pub fn sinr_at_ap(
    tma: &impl HarmonicGain,
    noise_figure: Db,
    bandwidth: Hertz,
    me: usize,
    nodes: usize,
    slots: &[SdmSlot],
    rx_of: impl Fn(usize) -> DbmPower,
    aoa_of: impl Fn(usize) -> Degrees,
) -> Db {
    let harmonic = slots[me].harmonic;
    sinr_sum(
        thermal_noise_dbm(bandwidth, noise_figure).milliwatts(),
        me,
        &slots[..nodes],
        |j| rx_of(j).milliwatts(),
        |j| tma.harmonic_gain(harmonic, aoa_of(j)).linear(),
    )
}

/// The SINR sum every simulator path shares, in the linear domain:
/// node `me`'s arrival `rx_mw(me)` (mW) through linear gain `gain(me)`,
/// over `noise_mw` plus every other node `j`'s arrival through `gain(j)`
/// (the listening harmonic's gain toward `j`) and the linear
/// adjacent-channel isolation between `me`'s channel and `j`'s:
///
/// `SINR = wanted / (noise + Σ_{j≠me} rx_mw[j]·gain[j]·acl[|ch_me − ch_j|])`
///
/// Terms are summed in node order, so the result is bit-reproducible,
/// and the one `log10` is the conversion of the ratio to dB. A silent
/// node (0 mW) adds nothing; a silent `me` gets −∞ dB.
pub(crate) fn sinr_sum(
    noise_mw: f64,
    me: usize,
    slots: &[SdmSlot],
    rx_mw: impl Fn(usize) -> f64,
    gain: impl Fn(usize) -> f64,
) -> Db {
    let acl = acl_linear();
    let channel = slots[me].channel;
    let wanted = rx_mw(me) * gain(me);
    let mut total = noise_mw;
    for (j, slot) in slots.iter().enumerate() {
        if j != me {
            total += rx_mw(j) * gain(j) * acl[channel.abs_diff(slot.channel).min(acl.len() - 1)];
        }
    }
    Db::from_linear(wanted / total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmx_antenna::tma::Tma;

    fn tma() -> Tma {
        Tma::new(8, Hertz::from_ghz(24.0), Hertz::from_mhz(1.0))
    }

    fn bw() -> Hertz {
        Hertz::from_mhz(25.0)
    }

    fn nf() -> Db {
        Db::new(2.6)
    }

    fn slot(channel: usize, harmonic: i32) -> SdmSlot {
        SdmSlot { channel, harmonic }
    }

    /// SINR of every node in a one-AP cell: node `j` arrives with
    /// `rx[j]` from `aoa[j]` on `slots[j]`.
    fn sinr_each(
        tma: &impl HarmonicGain,
        rx: &[f64],
        aoa: &[Degrees],
        slots: &[SdmSlot],
    ) -> Vec<Db> {
        (0..rx.len())
            .map(|me| {
                sinr_at_ap(
                    tma,
                    nf(),
                    bw(),
                    me,
                    rx.len(),
                    slots,
                    |j| DbmPower::new(rx[j]),
                    |j| aoa[j],
                )
            })
            .collect()
    }

    #[test]
    fn lone_node_sinr_is_snr() {
        let t = tma();
        let aoa = t.harmonic_direction(0).unwrap();
        let sinr = sinr_each(&t, &[-60.0], &[aoa], &[slot(0, 0)])[0];
        // Noise floor ≈ −97.4 dBm; wanted −60 + harmonic gain.
        let expect = DbmPower::new(-60.0) + t.harmonic_gain(0, aoa) - thermal_noise_dbm(bw(), nf());
        assert!((sinr - expect).value().abs() < 1e-9, "sinr {sinr}");
    }

    #[test]
    fn spatially_separated_cochannel_nodes_barely_interfere() {
        let t = tma();
        let aoa = [
            t.harmonic_direction(0).unwrap(),
            t.harmonic_direction(2).unwrap(),
        ];
        let sinr = sinr_each(&t, &[-60.0, -60.0], &aoa, &[slot(0, 0), slot(0, 2)]);
        // Both nodes keep >20 dB despite sharing the channel.
        for (i, s) in sinr.iter().enumerate() {
            assert!(s.value() > 20.0, "node {i} sinr = {s}");
        }
    }

    #[test]
    fn cochannel_same_direction_collides() {
        let t = tma();
        let d0 = t.harmonic_direction(0).unwrap();
        let sinr = sinr_each(&t, &[-60.0, -60.0], &[d0, d0], &[slot(0, 0), slot(0, 0)]);
        // Equal-power co-channel, co-beam: SINR pinned near 0 dB.
        for s in &sinr {
            assert!(s.value() < 3.0, "sinr = {s}");
        }
    }

    #[test]
    fn adjacent_channel_isolation_restores_link() {
        let t = tma();
        let d0 = t.harmonic_direction(0).unwrap();
        let node0 =
            |ch: usize| sinr_each(&t, &[-60.0, -60.0], &[d0, d0], &[slot(0, 0), slot(ch, 0)])[0];
        let same = node0(0);
        let adjacent = node0(1);
        let far = node0(3);
        assert!((adjacent - same).value() > 25.0);
        assert!(far > adjacent);
    }

    #[test]
    fn leakage_table_is_monotone() {
        for k in 0..5 {
            assert!(
                adjacent_channel_leakage(k + 1) <= adjacent_channel_leakage(k),
                "ACL not monotone at {k}"
            );
        }
        assert_eq!(adjacent_channel_leakage(0), Db::ZERO);
    }

    #[test]
    fn cross_ap_cochannel_interference_is_counted() {
        // Two nodes on the same global channel, "served" by different
        // APs: from this AP's perspective the foreign node is just an
        // interference term. Same direction → collision; a distant
        // harmonic direction → barely any loss.
        let t = tma();
        let d0 = t.harmonic_direction(0).unwrap();
        let d3 = t.harmonic_direction(3).unwrap();
        let slots = [slot(0, 0), slot(0, 0)];
        let rx = [DbmPower::new(-60.0), DbmPower::new(-60.0)];
        let collide = sinr_at_ap(&t, nf(), bw(), 0, 2, &slots, |j| rx[j], |_| d0);
        let aoa = [d0, d3];
        let separated = sinr_at_ap(&t, nf(), bw(), 0, 2, &slots, |j| rx[j], |j| aoa[j]);
        assert!(collide.value() < 3.0, "co-beam co-channel: {collide}");
        assert!(
            separated.value() > 20.0,
            "cross-beam co-channel: {separated}"
        );
        // Moving the foreign node to a distant channel restores the
        // link even co-beam (the reuse plan's channel partition case).
        let slots = [slot(0, 0), slot(3, 0)];
        let far = sinr_at_ap(&t, nf(), bw(), 0, 2, &slots, |j| rx[j], |_| d0);
        assert!(far > collide);
    }

    #[test]
    fn sinr_at_ap_is_the_table_driven_sum() {
        // The public entry point and the simulator's table-driven sum
        // agree bit for bit, and a silent node (zero power) adds nothing.
        let t = tma();
        let aoa = [
            t.harmonic_direction(0).unwrap(),
            t.harmonic_direction(2).unwrap() + Degrees::new(2.0),
            t.harmonic_direction(-1).unwrap(),
        ];
        let slots = [slot(0, 0), slot(1, 2), slot(0, -1)];
        let rx = [
            DbmPower::new(-60.0),
            DbmPower::new(-58.0),
            DbmPower::ZERO_POWER,
        ];
        let noise = thermal_noise_dbm(bw(), nf()).milliwatts();
        let rx_mw = |j: usize| rx[j].milliwatts();
        for me in 0..3 {
            let h = slots[me].harmonic;
            let direct = sinr_at_ap(&t, nf(), bw(), me, 3, &slots, |j| rx[j], |j| aoa[j]);
            let row: Vec<f64> = aoa
                .iter()
                .map(|&az| t.harmonic_gain(h, az).linear())
                .collect();
            let tabled = sinr_sum(noise, me, &slots, rx_mw, |j| row[j]);
            assert_eq!(direct.value().to_bits(), tabled.value().to_bits());
        }
        let two = sinr_at_ap(&t, nf(), bw(), 0, 2, &slots, |j| rx[j], |j| aoa[j]);
        let three = sinr_at_ap(&t, nf(), bw(), 0, 3, &slots, |j| rx[j], |j| aoa[j]);
        assert_eq!(two.value().to_bits(), three.value().to_bits());
    }

    #[test]
    fn stronger_interferer_hurts_more() {
        let t = tma();
        let d0 = t.harmonic_direction(0).unwrap();
        // Slightly off-grid so the leakage into harmonic 0 is finite
        // (exactly on-grid directions sit in the DFT beam's null).
        let d1 = t.harmonic_direction(1).unwrap() + Degrees::new(3.0);
        let node0 = |p: f64| sinr_each(&t, &[-60.0, p], &[d0, d1], &[slot(0, 0), slot(0, 1)])[0];
        assert!(node0(-70.0) > node0(-40.0));
    }

    /// The dB-domain form of [`sinr_sum`]: every term's dB values added,
    /// then one `powf` per term in [`DbmPower::power_sum`].
    fn sinr_sum_db(
        noise: DbmPower,
        me: usize,
        slots: &[SdmSlot],
        rx: &[DbmPower],
        gain: &[Db],
    ) -> Db {
        let channel = slots[me].channel;
        let interference = (0..slots.len()).filter(|&j| j != me).map(|j| {
            rx[j] + gain[j] + adjacent_channel_leakage(channel.abs_diff(slots[j].channel))
        });
        rx[me] + gain[me] - DbmPower::power_sum(std::iter::once(noise).chain(interference))
    }

    #[test]
    fn linear_sum_matches_the_db_domain_formula() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x51_4e_52);
        let t = tma();
        let noise = thermal_noise_dbm(bw(), nf());
        for _ in 0..200 {
            let n = rng.gen_range(1..40);
            let slots: Vec<SdmSlot> = (0..n)
                .map(|_| slot(rng.gen_range(0..6), rng.gen_range(-4..4)))
                .collect();
            // About one node in five is silent.
            let rx: Vec<DbmPower> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        DbmPower::ZERO_POWER
                    } else {
                        DbmPower::new(rng.gen_range(-90.0..-40.0))
                    }
                })
                .collect();
            let aoa: Vec<Degrees> = (0..n)
                .map(|_| Degrees::new(rng.gen_range(-80.0..80.0)))
                .collect();
            for me in 0..n {
                let h = slots[me].harmonic;
                let gain: Vec<Db> = aoa.iter().map(|&az| t.harmonic_gain(h, az)).collect();
                let reference = sinr_sum_db(noise, me, &slots, &rx, &gain);
                let linear = sinr_sum(
                    noise.milliwatts(),
                    me,
                    &slots,
                    |j| rx[j].milliwatts(),
                    |j| gain[j].linear(),
                );
                if rx[me] == DbmPower::ZERO_POWER {
                    assert_eq!(linear.value(), f64::NEG_INFINITY);
                    assert_eq!(reference.value(), f64::NEG_INFINITY);
                } else {
                    assert!(
                        (linear - reference).value().abs() < 1e-9,
                        "n={n} me={me}: {linear} vs {reference}"
                    );
                }
            }
        }
    }
}
