//! The node's SPDT RF switch (Analog Devices ADRF5020).
//!
//! §8.1: "<2 dB insertion loss and 65 dB isolation between output ports".
//! §9.1: "The maximum operating frequency of the RF switch is 100 MHz,
//! which limits the data rate of mmX's nodes to 100 Mbps." The switch *is*
//! the modulator: OTAM toggles it between the two beams at the symbol
//! rate.

use mmx_units::{BitRate, Db, Hertz, Watts};

/// Which output port (= which beam) the switch currently feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchPort {
    /// Output 1 → Beam 0 array.
    Port0,
    /// Output 2 → Beam 1 array.
    Port1,
}

/// An ADRF5020-class SPDT switch model.
#[derive(Debug, Clone)]
pub struct SpdtSwitch {
    insertion_loss: Db,
    isolation: Db,
    max_switch_rate: Hertz,
    dc_power: Watts,
}

impl SpdtSwitch {
    /// The ADRF5020 as used by mmX.
    pub fn adrf5020() -> Self {
        SpdtSwitch {
            insertion_loss: Db::new(2.0),
            isolation: Db::new(65.0),
            max_switch_rate: Hertz::from_mhz(100.0),
            // Control/driver power incl. level shifting on the board.
            dc_power: Watts::from_milliwatts(100.0),
        }
    }

    /// Insertion loss through the active port.
    pub fn insertion_loss(&self) -> Db {
        self.insertion_loss
    }

    /// Isolation to the inactive port.
    pub fn isolation(&self) -> Db {
        self.isolation
    }

    /// Maximum switching (toggle) rate.
    pub fn max_switch_rate(&self) -> Hertz {
        self.max_switch_rate
    }

    /// DC power consumption.
    pub fn dc_power(&self) -> Watts {
        self.dc_power
    }

    /// The highest OOK symbol rate this switch supports: one beam toggle
    /// per symbol ⇒ symbol rate = switch rate ⇒ 100 Mbps for the
    /// ADRF5020 (§9.1).
    pub fn max_bit_rate(&self) -> BitRate {
        BitRate::new(self.max_switch_rate.hz())
    }

    /// Caps a demanded bit rate to what the switch can do.
    pub fn cap_rate(&self, demanded: BitRate) -> BitRate {
        demanded.min(self.max_bit_rate())
    }

    /// Amplitude transfer to the *active* port (−insertion loss).
    pub fn active_amplitude(&self) -> f64 {
        (-self.insertion_loss).amplitude()
    }

    /// Amplitude leaking into the *inactive* port (−insertion −isolation).
    pub fn leakage_amplitude(&self) -> f64 {
        (-(self.insertion_loss + self.isolation)).amplitude()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn datasheet_parameters() {
        let s = SpdtSwitch::adrf5020();
        close(s.insertion_loss().value(), 2.0, 1e-12);
        close(s.isolation().value(), 65.0, 1e-12);
        close(s.max_switch_rate().mhz(), 100.0, 1e-12);
    }

    #[test]
    fn bit_rate_cap_is_100mbps() {
        let s = SpdtSwitch::adrf5020();
        close(s.max_bit_rate().mbps(), 100.0, 1e-9);
        close(s.cap_rate(BitRate::from_mbps(250.0)).mbps(), 100.0, 1e-9);
        close(s.cap_rate(BitRate::from_mbps(10.0)).mbps(), 10.0, 1e-9);
    }

    #[test]
    fn leakage_is_far_below_active_path() {
        let s = SpdtSwitch::adrf5020();
        let ratio_db = 20.0 * (s.active_amplitude() / s.leakage_amplitude()).log10();
        close(ratio_db, 65.0, 1e-9);
    }

    #[test]
    fn active_amplitude_matches_insertion_loss() {
        let s = SpdtSwitch::adrf5020();
        close(20.0 * s.active_amplitude().log10(), -2.0, 1e-9);
    }

    #[test]
    fn dc_power_is_tenth_of_a_watt() {
        close(SpdtSwitch::adrf5020().dc_power().value(), 0.1, 1e-12);
    }
}
