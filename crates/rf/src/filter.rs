//! The AP's microstrip coupled-line band-pass filter.
//!
//! §5.2/§8.2: "To avoid using costly filters, mmX exploits a microstrip
//! coupled line filter, which is designed on the PCB board without any
//! additional components. The center frequency of the filter is at 24 GHz
//! and the insertion loss at the passband is 5 dB."

use mmx_units::{Db, Hertz, Watts};

/// A coupled-line band-pass filter: flat passband insertion loss with a
/// raised-cosine skirt into a stopband floor.
#[derive(Debug, Clone)]
pub struct CoupledLineFilter {
    center: Hertz,
    passband: Hertz,
    insertion_loss: Db,
    stopband_rejection: Db,
    skirt: Hertz,
}

impl CoupledLineFilter {
    /// The mmX AP filter: 24 GHz center, 500 MHz passband, 5 dB insertion
    /// loss, 30 dB stopband rejection.
    pub fn mmx_24ghz() -> Self {
        CoupledLineFilter {
            center: Hertz::from_ghz(24.0) + Hertz::from_mhz(125.0), // ISM center
            passband: Hertz::from_mhz(500.0),
            insertion_loss: Db::new(5.0),
            stopband_rejection: Db::new(30.0),
            skirt: Hertz::from_mhz(500.0),
        }
    }

    /// Center frequency.
    pub fn center(&self) -> Hertz {
        self.center
    }

    /// Passband insertion loss.
    pub fn insertion_loss(&self) -> Db {
        self.insertion_loss
    }

    /// Filter attenuation (a positive loss) at frequency `f`.
    pub fn attenuation(&self, f: Hertz) -> Db {
        let off = f.abs_diff(self.center);
        let half_pb = self.passband / 2.0;
        if off.hz() <= half_pb.hz() {
            return self.insertion_loss;
        }
        let beyond = off - half_pb;
        if beyond.hz() >= self.skirt.hz() {
            return self.insertion_loss + self.stopband_rejection;
        }
        // Raised-cosine transition across the skirt.
        let t = beyond.hz() / self.skirt.hz();
        let frac = 0.5 * (1.0 - (std::f64::consts::PI * t).cos());
        self.insertion_loss + self.stopband_rejection * frac
    }

    /// As a chain stage: the passband noise figure of a passive lossy
    /// two-port equals its insertion loss.
    pub fn noise_figure(&self) -> Db {
        self.insertion_loss
    }

    /// No DC power: it is copper on the PCB.
    pub fn dc_power(&self) -> Watts {
        Watts::new(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn passband_has_5db_loss() {
        let f = CoupledLineFilter::mmx_24ghz();
        for ghz in [23.9, 24.0, 24.125, 24.25, 24.35] {
            close(f.attenuation(Hertz::from_ghz(ghz)).value(), 5.0, 1e-9);
        }
    }

    #[test]
    fn stopband_is_rejected() {
        let f = CoupledLineFilter::mmx_24ghz();
        close(f.attenuation(Hertz::from_ghz(22.0)).value(), 35.0, 1e-9);
        close(f.attenuation(Hertz::from_ghz(26.5)).value(), 35.0, 1e-9);
    }

    #[test]
    fn skirt_is_monotone() {
        let f = CoupledLineFilter::mmx_24ghz();
        let mut prev = f.attenuation(Hertz::from_ghz(24.4));
        let mut freq = 24.41;
        while freq < 25.2 {
            let a = f.attenuation(Hertz::from_ghz(freq));
            assert!(a.value() >= prev.value() - 1e-9, "dip at {freq} GHz");
            prev = a;
            freq += 0.01;
        }
    }

    #[test]
    fn symmetric_about_center() {
        let f = CoupledLineFilter::mmx_24ghz();
        let c = f.center();
        for off_mhz in [100.0, 300.0, 500.0, 800.0] {
            let up = f.attenuation(c + Hertz::from_mhz(off_mhz));
            let dn = f.attenuation(c - Hertz::from_mhz(off_mhz));
            close(up.value(), dn.value(), 1e-9);
        }
    }

    #[test]
    fn passive_nf_equals_loss_and_no_dc() {
        let f = CoupledLineFilter::mmx_24ghz();
        close(f.noise_figure().value(), 5.0, 1e-12);
        assert_eq!(f.dc_power().value(), 0.0);
    }
}
