//! The AP's low-noise amplifier (Analog Devices HMC751).
//!
//! §8.2: "about 25 dB gain with only 2 dB noise figure at 24 GHz. The LNA
//! is placed at the first stage to reduce the total noise figure of the
//! receiver" — the textbook Friis argument, which [`crate::cascade`]
//! reproduces quantitatively.

use mmx_units::{Db, DbmPower, Watts};

/// An HMC751-class LNA model.
#[derive(Debug, Clone)]
pub struct Lna {
    gain: Db,
    noise_figure: Db,
    p1db_out: DbmPower,
    dc_power: Watts,
}

impl Lna {
    /// The HMC751 as used by the mmX AP.
    pub fn hmc751() -> Self {
        Lna {
            gain: Db::new(25.0),
            noise_figure: Db::new(2.0),
            p1db_out: DbmPower::new(14.0),
            dc_power: Watts::from_milliwatts(363.0),
        }
    }

    /// Small-signal gain.
    pub fn gain(&self) -> Db {
        self.gain
    }

    /// Noise figure.
    pub fn noise_figure(&self) -> Db {
        self.noise_figure
    }

    /// Output 1 dB compression point.
    pub fn p1db_out(&self) -> DbmPower {
        self.p1db_out
    }

    /// DC power consumption.
    pub fn dc_power(&self) -> Watts {
        self.dc_power
    }

    /// Output level for a given input level, with soft compression above
    /// P1dB (the stage saturates rather than amplifying without bound).
    pub fn amplify(&self, input: DbmPower) -> DbmPower {
        let linear_out = input + self.gain;
        if linear_out.dbm() <= self.p1db_out.dbm() - 10.0 {
            return linear_out;
        }
        // Smooth rational compression toward P1dB + 3 dB hard ceiling.
        let ceiling = self.p1db_out.dbm() + 3.0;
        let x = linear_out.dbm();
        let knee = self.p1db_out.dbm() - 10.0;
        let span = ceiling - knee;
        let t = (x - knee) / span;
        DbmPower::new(knee + span * (t / (1.0 + t)) * 2.0_f64.min(1.0 + t))
            .min(DbmPower::new(ceiling))
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
        let l = Lna::hmc751();
        close(l.gain().value(), 25.0, 1e-12);
        close(l.noise_figure().value(), 2.0, 1e-12);
    }

    #[test]
    fn linear_region_applies_full_gain() {
        let l = Lna::hmc751();
        let out = l.amplify(DbmPower::new(-60.0));
        close(out.dbm(), -35.0, 1e-9);
    }

    #[test]
    fn compression_limits_output() {
        let l = Lna::hmc751();
        let out = l.amplify(DbmPower::new(10.0)); // would be +35 linearly
        assert!(out.dbm() <= l.p1db_out().dbm() + 3.0 + 1e-9);
    }

    #[test]
    fn amplify_is_monotone() {
        let l = Lna::hmc751();
        let mut prev = l.amplify(DbmPower::new(-90.0));
        for dbm in (-89..=20).map(|x| x as f64) {
            let out = l.amplify(DbmPower::new(dbm));
            assert!(out.dbm() >= prev.dbm() - 1e-9, "non-monotone at {dbm}");
            prev = out;
        }
    }

    #[test]
    fn weak_signals_see_exactly_small_signal_gain() {
        let l = Lna::hmc751();
        for dbm in [-100.0, -80.0, -50.0] {
            let g = (l.amplify(DbmPower::new(dbm)) - DbmPower::new(dbm)).value();
            close(g, 25.0, 1e-9);
        }
    }
}
