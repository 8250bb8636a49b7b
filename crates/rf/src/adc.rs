//! The baseband digitizer (USRP N210 front end).
//!
//! Quantization is modeled as an SNR ceiling (`6.02·bits + 1.76` dB) and a
//! full-scale clip; the network simulations mostly care that the ADC never
//! *adds* SNR.

use mmx_dsp::{Complex, IqBuffer};
use mmx_units::{Db, Hertz};

/// An idealized complex ADC: samples at `sample_rate`, quantizes each
/// quadrature to `bits`, clips at ±`full_scale`.
#[derive(Debug, Clone)]
pub struct Adc {
    bits: u8,
    full_scale: f64,
    sample_rate: Hertz,
}

impl Adc {
    /// The USRP N210's 14-bit, 100 MS/s converter.
    pub fn usrp_n210() -> Self {
        Adc {
            bits: 14,
            full_scale: 1.0,
            sample_rate: Hertz::from_mhz(100.0),
        }
    }

    /// Creates a custom ADC model.
    pub fn new(bits: u8, full_scale: f64, sample_rate: Hertz) -> Self {
        assert!((2..=24).contains(&bits), "bits out of range");
        assert!(full_scale > 0.0, "full scale must be positive");
        Adc {
            bits,
            full_scale,
            sample_rate,
        }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Sample rate.
    pub fn sample_rate(&self) -> Hertz {
        self.sample_rate
    }

    /// The ideal quantization-limited SNR for a full-scale sine.
    pub fn sqnr(&self) -> Db {
        Db::new(6.02 * self.bits as f64 + 1.76)
    }

    /// Quantizes one value.
    fn q(&self, x: f64) -> f64 {
        let levels = (1u64 << self.bits) as f64;
        let step = 2.0 * self.full_scale / levels;
        let clipped = x.clamp(-self.full_scale, self.full_scale - step);
        (clipped / step).round() * step
    }

    /// Digitizes a buffer (quantize + clip). The input must already be at
    /// the ADC sample rate.
    pub fn digitize(&self, input: &IqBuffer) -> IqBuffer {
        let samples = input
            .samples()
            .iter()
            .map(|s| Complex::new(self.q(s.re), self.q(s.im)))
            .collect();
        IqBuffer::new(samples, input.sample_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqnr_formula() {
        let a = Adc::usrp_n210();
        assert!((a.sqnr().value() - (6.02 * 14.0 + 1.76)).abs() < 1e-9);
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        let a = Adc::new(8, 1.0, Hertz::from_mhz(10.0));
        let step = 2.0 / 256.0;
        let buf = IqBuffer::tone(0.5, Hertz::from_mhz(1.0), 512, Hertz::from_mhz(10.0));
        let out = a.digitize(&buf);
        for (x, y) in buf.samples().iter().zip(out.samples()) {
            assert!((x.re - y.re).abs() <= step / 2.0 + 1e-12);
            assert!((x.im - y.im).abs() <= step / 2.0 + 1e-12);
        }
    }

    #[test]
    fn clipping_at_full_scale() {
        let a = Adc::new(8, 1.0, Hertz::from_mhz(10.0));
        let mut buf = IqBuffer::zeros(4, Hertz::from_mhz(10.0));
        buf.samples_mut()[0] = Complex::new(5.0, -5.0);
        let out = a.digitize(&buf);
        assert!(out.samples()[0].re <= 1.0);
        assert!(out.samples()[0].im >= -1.0);
    }

    #[test]
    fn high_resolution_is_nearly_transparent() {
        let a = Adc::usrp_n210();
        let buf = IqBuffer::tone(0.5, Hertz::from_mhz(1.0), 1024, Hertz::from_mhz(100.0));
        let out = a.digitize(&buf);
        let err: f64 = buf
            .samples()
            .iter()
            .zip(out.samples())
            .map(|(x, y)| (*x - *y).norm_sq())
            .sum::<f64>()
            / buf.len() as f64;
        let snr_db = 10.0 * (buf.mean_power() / err).log10();
        assert!(snr_db > 70.0, "measured quantization SNR {snr_db}");
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn absurd_resolution_rejected() {
        let _ = Adc::new(40, 1.0, Hertz::from_mhz(1.0));
    }
}
