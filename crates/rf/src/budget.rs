//! End-to-end link budgets.
//!
//! Collapses the whole analog story into the number the PHY needs: SNR at
//! the demodulator input. Works in two modes — explicit antenna gains +
//! path loss (for textbook checks), or a measured complex channel power
//! gain from `mmx-channel` (which already includes the antennas).

use mmx_units::{thermal_noise_dbm, Db, DbmPower, Hertz};

/// A link budget: everything between the transmitter's PA (here: VCO)
/// output and the receiver's detector.
#[derive(Debug, Clone)]
pub struct LinkBudget {
    /// Power delivered to the TX antenna.
    pub tx_power: DbmPower,
    /// TX antenna gain (0 dB when the channel gain already includes it).
    pub tx_antenna_gain: Db,
    /// RX antenna gain (0 dB when the channel gain already includes it).
    pub rx_antenna_gain: Db,
    /// Propagation loss (positive), or −(channel power gain).
    pub path_loss: Db,
    /// Implementation loss: board losses, pointing error, polarization
    /// mismatch — the calibration constant documented in DESIGN.md §5.
    pub implementation_loss: Db,
    /// Receiver noise bandwidth.
    pub bandwidth: Hertz,
    /// Receiver cascaded noise figure.
    pub noise_figure: Db,
}

impl LinkBudget {
    /// A budget driven by a channel power gain `|h|²` (antennas included;
    /// `path_loss` is set to `−gain`).
    pub fn from_channel_gain(
        tx_power: DbmPower,
        channel_gain: Db,
        implementation_loss: Db,
        bandwidth: Hertz,
        noise_figure: Db,
    ) -> Self {
        LinkBudget {
            tx_power,
            tx_antenna_gain: Db::ZERO,
            rx_antenna_gain: Db::ZERO,
            path_loss: -channel_gain,
            implementation_loss,
            bandwidth,
            noise_figure,
        }
    }

    /// Received signal power at the detector.
    pub fn rx_power(&self) -> DbmPower {
        self.tx_power + self.tx_antenna_gain + self.rx_antenna_gain
            - self.path_loss
            - self.implementation_loss
    }

    /// Receiver noise floor.
    pub fn noise_floor(&self) -> DbmPower {
        thermal_noise_dbm(self.bandwidth, self.noise_figure)
    }

    /// Signal-to-noise ratio.
    pub fn snr(&self) -> Db {
        self.rx_power() - self.noise_floor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn textbook_budget() {
        // 10 dBm + 9.3 + 5 − 85.2 − 12 = −72.9 dBm;
        // noise: −174 + 10·log10(25 MHz) + 2.6 ≈ −97.4 dBm; SNR ≈ 24.5 dB.
        let b = LinkBudget {
            tx_power: DbmPower::new(10.0),
            tx_antenna_gain: Db::new(9.3),
            rx_antenna_gain: Db::new(5.0),
            path_loss: Db::new(85.2),
            implementation_loss: Db::new(12.0),
            bandwidth: Hertz::from_mhz(25.0),
            noise_figure: Db::new(2.6),
        };
        close(b.rx_power().dbm(), -72.9, 1e-9);
        close(b.noise_floor().dbm(), -97.4, 0.1);
        close(b.snr().value(), 24.5, 0.15);
    }

    #[test]
    fn channel_gain_mode_matches_manual() {
        let gain = Db::new(-70.0); // |h|², antennas included
        let b = LinkBudget::from_channel_gain(
            DbmPower::new(10.0),
            gain,
            Db::new(12.0),
            Hertz::from_mhz(25.0),
            Db::new(2.6),
        );
        close(b.rx_power().dbm(), 10.0 - 70.0 - 12.0, 1e-12);
    }

    #[test]
    fn snr_scales_with_bandwidth() {
        let mk = |mhz: f64| LinkBudget {
            tx_power: DbmPower::new(10.0),
            tx_antenna_gain: Db::ZERO,
            rx_antenna_gain: Db::ZERO,
            path_loss: Db::new(80.0),
            implementation_loss: Db::ZERO,
            bandwidth: Hertz::from_mhz(mhz),
            noise_figure: Db::new(3.0),
        };
        let narrow = mk(10.0).snr();
        let wide = mk(100.0).snr();
        close((narrow - wide).value(), 10.0, 1e-9);
    }

    #[test]
    fn losses_reduce_snr_one_for_one() {
        let base = LinkBudget::from_channel_gain(
            DbmPower::new(10.0),
            Db::new(-60.0),
            Db::ZERO,
            Hertz::from_mhz(25.0),
            Db::new(3.0),
        );
        let mut lossy = base.clone();
        lossy.implementation_loss = Db::new(7.0);
        close((base.snr() - lossy.snr()).value(), 7.0, 1e-9);
    }
}
