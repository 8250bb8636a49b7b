//! The shared mmX operating point.

use mmx_units::{Db, DbmPower, Hertz};

/// System-wide constants used by the link evaluator and the network
/// builder. The defaults are the paper's prototype operating point; the
/// calibration rationale is in DESIGN.md §5.
#[derive(Debug, Clone)]
pub struct MmxConfig {
    /// Carrier frequency (24 GHz ISM center).
    pub carrier: Hertz,
    /// Per-node channel bandwidth (the paper's 25 MHz sub-bands).
    pub channel_bandwidth: Hertz,
    /// Power at the node's antenna (VCO − switch loss = 10 dBm).
    pub tx_power: DbmPower,
    /// AP cascaded noise figure (LNA-first chain ≈ 2.6 dB).
    pub noise_figure: Db,
    /// Implementation loss calibrating absolute SNR (DESIGN.md §5).
    pub implementation_loss: Db,
    /// LoS path-loss exponent.
    pub path_loss_exponent: f64,
    /// ASK/FSK decision threshold on envelope-level separation.
    pub ask_threshold: Db,
    /// Trace two-bounce specular paths (richer multipath; costs a little
    /// compute).
    pub second_order_reflections: bool,
}

impl Default for MmxConfig {
    fn default() -> Self {
        MmxConfig {
            carrier: Hertz::from_ghz(24.125),
            channel_bandwidth: Hertz::from_mhz(25.0),
            tx_power: DbmPower::new(10.0),
            noise_figure: Db::new(2.6),
            implementation_loss: Db::new(18.0),
            path_loss_exponent: 2.0,
            ask_threshold: Db::new(2.0),
            second_order_reflections: false,
        }
    }
}

impl MmxConfig {
    /// The paper's prototype configuration.
    pub fn paper() -> Self {
        Self::default()
    }

    /// The receiver noise floor in the channel bandwidth.
    pub fn noise_floor(&self) -> mmx_units::DbmPower {
        mmx_units::thermal_noise_dbm(self.channel_bandwidth, self.noise_figure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_prototype() {
        let c = MmxConfig::paper();
        assert!((c.carrier.ghz() - 24.125).abs() < 1e-9);
        assert!((c.tx_power.dbm() - 10.0).abs() < 1e-9);
        assert!((c.channel_bandwidth.mhz() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn noise_floor_in_25mhz() {
        let n = MmxConfig::paper().noise_floor().dbm();
        assert!((n + 97.4).abs() < 0.2, "noise floor = {n} dBm");
    }
}
