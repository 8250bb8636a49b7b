//! The AP's sub-harmonic mixer (Analog Devices HMC264LC3B).
//!
//! §5.2/§8.2: a PLL at mmWave frequency is costly, so mmX feeds a 10 GHz
//! LO into a *sub-harmonic* mixer that internally doubles it, down-
//! converting the 24 GHz input to a 4 GHz IF inside the USRP's range.

use mmx_units::{Db, Hertz, Watts};

/// An HMC264-class ×2 sub-harmonic mixer.
#[derive(Debug, Clone)]
pub struct SubharmonicMixer {
    conversion_loss: Db,
    noise_figure: Db,
    lo_multiplier: u32,
    dc_power: Watts,
}

impl SubharmonicMixer {
    /// The HMC264LC3B as used by the mmX AP.
    pub fn hmc264() -> Self {
        SubharmonicMixer {
            conversion_loss: Db::new(8.0),
            // Passive mixer: NF ≈ conversion loss.
            noise_figure: Db::new(8.0),
            lo_multiplier: 2,
            dc_power: Watts::from_milliwatts(0.0), // passive core
        }
    }

    /// Conversion loss RF → IF.
    pub fn conversion_loss(&self) -> Db {
        self.conversion_loss
    }

    /// Noise figure.
    pub fn noise_figure(&self) -> Db {
        self.noise_figure
    }

    /// The internal LO multiplication factor (×2 for a sub-harmonic part).
    pub fn lo_multiplier(&self) -> u32 {
        self.lo_multiplier
    }

    /// DC power (passive core → zero; the LO buffer is in the PLL model).
    pub fn dc_power(&self) -> Watts {
        self.dc_power
    }

    /// The IF frequency for a given RF input and *externally supplied* LO
    /// (before internal multiplication): `IF = RF − m·LO`.
    pub fn intermediate_frequency(&self, rf: Hertz, lo: Hertz) -> Hertz {
        let eff = lo * self.lo_multiplier as f64;
        Hertz::new((rf.hz() - eff.hz()).abs())
    }

    /// The external LO needed to hit a target IF from a given RF:
    /// `LO = (RF − IF)/m`.
    pub fn lo_for(&self, rf: Hertz, target_if: Hertz) -> Hertz {
        Hertz::new((rf.hz() - target_if.hz()) / self.lo_multiplier as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn paper_frequency_plan() {
        // §8.2: "generating a 10 GHz signal which will be doubled by the
        // sub-harmonic mixer ... down convert the 24 GHz received signal
        // to 4 GHz".
        let m = SubharmonicMixer::hmc264();
        let if_freq = m.intermediate_frequency(Hertz::from_ghz(24.0), Hertz::from_ghz(10.0));
        close(if_freq.ghz(), 4.0, 1e-12);
    }

    #[test]
    fn lo_for_inverts_the_plan() {
        let m = SubharmonicMixer::hmc264();
        let lo = m.lo_for(Hertz::from_ghz(24.0), Hertz::from_ghz(4.0));
        close(lo.ghz(), 10.0, 1e-12);
        // Any channel in the ISM band stays within the USRP CBX range
        // (DC–6 GHz) with this LO.
        for ghz in [24.0, 24.125, 24.25] {
            let f = m.intermediate_frequency(Hertz::from_ghz(ghz), lo);
            assert!(f.ghz() <= 6.0);
        }
    }

    #[test]
    fn passive_mixer_nf_equals_loss() {
        let m = SubharmonicMixer::hmc264();
        close(m.noise_figure().value(), m.conversion_loss().value(), 1e-12);
    }

    #[test]
    fn multiplier_is_two() {
        assert_eq!(SubharmonicMixer::hmc264().lo_multiplier(), 2);
    }
}
