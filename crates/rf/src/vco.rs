//! The node's voltage-controlled oscillator (Analog Devices HMC533).
//!
//! §8.1/§9.1 + Fig. 7: tuning 3.5–4.9 V covers 23.95–24.25 GHz — the whole
//! 24 GHz ISM band — with +12 dBm output, "which eliminates the need for a
//! power amplifier". The slight FSK offsets of joint ASK–FSK modulation
//! are produced by small control-voltage steps on this same curve.

use mmx_units::{DbmPower, Hertz, Watts};

/// An HMC533-class VCO model with a smooth monotone tuning curve.
#[derive(Debug, Clone)]
pub struct Vco {
    v_min: f64,
    v_max: f64,
    f_min: Hertz,
    f_max: Hertz,
    output_power: DbmPower,
    dc_power: Watts,
}

impl Vco {
    /// The HMC533 as used by mmX.
    pub fn hmc533() -> Self {
        Vco {
            v_min: 3.5,
            v_max: 4.9,
            f_min: Hertz::from_ghz(23.95),
            f_max: Hertz::from_ghz(24.25),
            output_power: DbmPower::new(12.0),
            // HMC533: ~3.3 V × ~125 mA core ≈ 0.41 W including the buffer.
            dc_power: Watts::new(0.41),
        }
    }

    /// Tuning voltage range `(min, max)`.
    pub fn voltage_range(&self) -> (f64, f64) {
        (self.v_min, self.v_max)
    }

    /// Frequency range `(min, max)`.
    pub fn frequency_range(&self) -> (Hertz, Hertz) {
        (self.f_min, self.f_max)
    }

    /// RF output power.
    pub fn output_power(&self) -> DbmPower {
        self.output_power
    }

    /// DC power consumption while oscillating.
    pub fn dc_power(&self) -> Watts {
        self.dc_power
    }

    /// Oscillation frequency for a control voltage (Fig. 7).
    ///
    /// Real VCO curves are gently super-linear; we use a mild quadratic
    /// bow (matching the shape of the published figure) clamped to the
    /// usable voltage range.
    pub fn frequency(&self, volts: f64) -> Hertz {
        let v = volts.clamp(self.v_min, self.v_max);
        let x = (v - self.v_min) / (self.v_max - self.v_min);
        // 15% quadratic bow: f(x) = fmin + Δf·(0.85x + 0.15x²)
        let shaped = 0.85 * x + 0.15 * x * x;
        self.f_min + (self.f_max - self.f_min) * shaped
    }

    /// Inverse tuning: the control voltage that produces `target`, or
    /// `None` when the target is outside the tuning range.
    pub fn voltage_for(&self, target: Hertz) -> Option<f64> {
        if target.hz() < self.f_min.hz() - 1e3 || target.hz() > self.f_max.hz() + 1e3 {
            return None;
        }
        // Bisection on the monotone curve.
        let (mut lo, mut hi) = (self.v_min, self.v_max);
        for _ in 0..60 {
            let mid = (lo + hi) / 2.0;
            if self.frequency(mid).hz() < target.hz() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some((lo + hi) / 2.0)
    }

    /// Tuning sensitivity `df/dv` (Hz per volt) at a control voltage —
    /// what the joint ASK–FSK modulator uses to size its voltage nudge.
    pub fn sensitivity(&self, volts: f64) -> f64 {
        let dv = 1e-4;
        (self.frequency(volts + dv).hz() - self.frequency(volts - dv).hz()) / (2.0 * dv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn covers_the_ism_band() {
        // Fig. 7: "23.95 GHz to 24.25 GHz by tuning from 3.5 V to 4.9 V".
        let v = Vco::hmc533();
        close(v.frequency(3.5).ghz(), 23.95, 1e-9);
        close(v.frequency(4.9).ghz(), 24.25, 1e-9);
    }

    #[test]
    fn curve_is_monotone() {
        let v = Vco::hmc533();
        let mut prev = v.frequency(3.5);
        let mut volts = 3.51;
        while volts <= 4.9 {
            let f = v.frequency(volts);
            assert!(f.hz() > prev.hz(), "non-monotone at {volts} V");
            prev = f;
            volts += 0.01;
        }
    }

    #[test]
    fn clamps_outside_range() {
        let v = Vco::hmc533();
        assert_eq!(v.frequency(0.0), v.frequency(3.5));
        assert_eq!(v.frequency(9.0), v.frequency(4.9));
    }

    #[test]
    fn inverse_tuning_roundtrip() {
        let v = Vco::hmc533();
        for ghz in [23.95, 24.0, 24.125, 24.2, 24.25] {
            let target = Hertz::from_ghz(ghz);
            let volts = v.voltage_for(target).expect("in range");
            close(v.frequency(volts).ghz(), ghz, 1e-6);
        }
    }

    #[test]
    fn out_of_band_targets_rejected() {
        let v = Vco::hmc533();
        assert!(v.voltage_for(Hertz::from_ghz(23.0)).is_none());
        assert!(v.voltage_for(Hertz::from_ghz(25.0)).is_none());
    }

    #[test]
    fn output_power_needs_no_pa() {
        // §8.1: "maximum output power ... 12 dBm, which eliminates the
        // need for a power amplifier".
        let v = Vco::hmc533();
        close(v.output_power().dbm(), 12.0, 1e-12);
    }

    #[test]
    fn sensitivity_supports_fsk_offsets() {
        // A small voltage nudge must produce a few-MHz offset: the FSK
        // deviation used by joint modulation. Typical HMC533 sensitivity
        // is 100-400 MHz/V.
        let v = Vco::hmc533();
        let sens = v.sensitivity(4.2);
        assert!((1e8..5e8).contains(&sens), "sensitivity = {sens} Hz/V");
        // 10 mV step → ~2 MHz: enough for a 1-2 MHz FSK offset.
        let df = sens * 0.01;
        assert!(df > 1e6);
    }

    #[test]
    fn dc_power_fits_node_budget() {
        let v = Vco::hmc533();
        assert!((v.dc_power().value() - 0.41).abs() < 1e-12);
    }
}
