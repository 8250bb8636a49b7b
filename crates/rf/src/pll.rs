//! The AP's LO synthesizer (Analog Devices ADF5356 evaluation kit).
//!
//! §8.2: the PLL generates 10 GHz, doubled inside the sub-harmonic mixer.
//! Using a PLL at *half* the carrier is exactly the cost/power trick of
//! the AP architecture (§5.2).

use mmx_units::{Hertz, Watts};

/// An ADF5356-class wideband synthesizer.
#[derive(Debug, Clone)]
pub struct Pll {
    f_min: Hertz,
    f_max: Hertz,
    step: Hertz,
    dc_power: Watts,
}

impl Pll {
    /// The ADF5356: 53.125 MHz – 13.6 GHz output, fine step, ~1.2 W eval
    /// board draw.
    pub fn adf5356() -> Self {
        Pll {
            f_min: Hertz::from_mhz(53.125),
            f_max: Hertz::from_ghz(13.6),
            step: Hertz::from_khz(1.0),
            dc_power: Watts::new(1.2),
        }
    }

    /// Output tuning range.
    pub fn range(&self) -> (Hertz, Hertz) {
        (self.f_min, self.f_max)
    }

    /// Frequency resolution.
    pub fn step(&self) -> Hertz {
        self.step
    }

    /// DC power consumption.
    pub fn dc_power(&self) -> Watts {
        self.dc_power
    }

    /// True when the synthesizer can generate `f`.
    pub fn can_generate(&self, f: Hertz) -> bool {
        f.hz() >= self.f_min.hz() && f.hz() <= self.f_max.hz()
    }

    /// The nearest achievable frequency to `target` on the step grid, or
    /// `None` when out of range.
    pub fn tune(&self, target: Hertz) -> Option<Hertz> {
        if !self.can_generate(target) {
            return None;
        }
        let steps = (target.hz() / self.step.hz()).round();
        Some(Hertz::new(steps * self.step.hz()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn can_generate_the_10ghz_lo() {
        let p = Pll::adf5356();
        assert!(p.can_generate(Hertz::from_ghz(10.0)));
        // ... but not the 24 GHz carrier directly — hence the
        // sub-harmonic mixer.
        assert!(!p.can_generate(Hertz::from_ghz(24.0)));
    }

    #[test]
    fn tuning_snaps_to_grid() {
        let p = Pll::adf5356();
        let got = p.tune(Hertz::new(10.0e9 + 437.0)).expect("in range");
        assert_eq!(got.hz() % p.step().hz(), 0.0);
        assert!((got.hz() - 10.0e9).abs() <= p.step().hz());
    }

    #[test]
    fn out_of_range_is_rejected() {
        let p = Pll::adf5356();
        assert!(p.tune(Hertz::from_ghz(20.0)).is_none());
        assert!(p.tune(Hertz::from_mhz(10.0)).is_none());
    }

    #[test]
    fn eval_board_power() {
        assert!((Pll::adf5356().dc_power().value() - 1.2).abs() < 1e-12);
    }
}
