//! Stop-and-wait ARQ — link-layer reliability on top of the PHY.
//!
//! The paper stops at physical BER ("acceptable for most wireless
//! applications"); a deployed network retransmits lost packets. This
//! module adds the simplest ARQ that fits mmX's architecture: the ACK
//! rides the out-of-band control link (BLE), so the mmWave node stays
//! TX-only — no mmWave receiver needed at the node, preserving the
//! two-component radio.

use mmx_units::{BitRate, Seconds};
use rand::Rng;
use std::fmt;

/// Why an ARQ operation was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArqError {
    /// The supplied packet-error rate was outside `[0, 1]` (or NaN).
    PerOutOfRange(
        /// The offending value.
        f64,
    ),
}

impl fmt::Display for ArqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArqError::PerOutOfRange(per) => write!(f, "PER out of range: {per}"),
        }
    }
}

impl std::error::Error for ArqError {}

/// ARQ policy parameters.
#[derive(Debug, Clone, Copy)]
pub struct ArqConfig {
    /// Retransmissions allowed after the first attempt.
    pub max_retries: u8,
    /// Time to wait for the control-plane ACK before retrying.
    pub ack_timeout: Seconds,
}

impl ArqConfig {
    /// Defaults: 3 retries, 5 ms ACK timeout (BLE connection-event
    /// scale).
    pub fn standard() -> Self {
        ArqConfig {
            max_retries: 3,
            ack_timeout: Seconds::from_millis(5.0),
        }
    }
}

/// Outcome of transmitting one packet under ARQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Delivered on attempt `attempts` (1 = first try).
    Delivered {
        /// Number of attempts used.
        attempts: u8,
    },
    /// All attempts failed.
    Dropped,
}

/// Stop-and-wait ARQ state and statistics.
#[derive(Debug, Clone, Default)]
pub struct StopAndWait {
    cfg: ArqConfig,
    offered: u64,
    delivered: u64,
    attempts_total: u64,
}

impl Default for ArqConfig {
    fn default() -> Self {
        Self::standard()
    }
}

impl StopAndWait {
    /// Creates an ARQ instance.
    pub fn new(cfg: ArqConfig) -> Self {
        StopAndWait {
            cfg,
            offered: 0,
            delivered: 0,
            attempts_total: 0,
        }
    }

    /// The policy.
    pub fn config(&self) -> ArqConfig {
        self.cfg
    }

    /// Transmits one packet over a link with packet-error rate `per`,
    /// drawing attempt outcomes from `rng`. A PER outside `[0, 1]`
    /// (including NaN) is rejected without touching the statistics.
    pub fn transmit<R: Rng + ?Sized>(
        &mut self,
        per: f64,
        rng: &mut R,
    ) -> Result<TxOutcome, ArqError> {
        if !(0.0..=1.0).contains(&per) {
            return Err(ArqError::PerOutOfRange(per));
        }
        self.offered += 1;
        for attempt in 1..=(1 + self.cfg.max_retries) {
            self.attempts_total += 1;
            if rng.gen::<f64>() >= per {
                self.delivered += 1;
                return Ok(TxOutcome::Delivered { attempts: attempt });
            }
        }
        Ok(TxOutcome::Dropped)
    }

    /// Packets offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Packets delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Residual loss rate after ARQ.
    pub fn residual_loss(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        1.0 - self.delivered as f64 / self.offered as f64
    }

    /// Mean attempts per offered packet.
    pub fn mean_attempts(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.attempts_total as f64 / self.offered as f64
    }
}

/// Analytic delivery probability under stop-and-wait:
/// `1 − per^(1+retries)`. Out-of-range PERs are clamped to `[0, 1]`
/// (NaN to 1, the pessimistic end).
pub fn delivery_probability(per: f64, cfg: &ArqConfig) -> f64 {
    debug_assert!((0.0..=1.0).contains(&per), "PER out of range: {per}");
    let per = if per.is_nan() {
        1.0
    } else {
        per.clamp(0.0, 1.0)
    };
    1.0 - per.powi(1 + cfg.max_retries as i32)
}

/// Analytic expected attempts per packet (attempts are capped):
/// `Σ_{k=1..n} per^(k−1)` with `n = 1+retries`.
pub fn expected_attempts(per: f64, cfg: &ArqConfig) -> f64 {
    debug_assert!((0.0..=1.0).contains(&per), "PER out of range: {per}");
    let per = if per.is_nan() {
        1.0
    } else {
        per.clamp(0.0, 1.0)
    };
    let n = 1 + cfg.max_retries as i32;
    if per == 0.0 {
        return 1.0;
    }
    (0..n).map(|k| per.powi(k)).sum()
}

/// Effective goodput of a PHY rate under ARQ: delivered payload per unit
/// airtime, `rate × P_deliver / E[attempts]`.
pub fn effective_goodput(rate: BitRate, per: f64, cfg: &ArqConfig) -> BitRate {
    rate * (delivery_probability(per, cfg) / expected_attempts(per, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    #[test]
    fn perfect_link_single_attempt() {
        let mut arq = StopAndWait::new(ArqConfig::standard());
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(
                arq.transmit(0.0, &mut r),
                Ok(TxOutcome::Delivered { attempts: 1 })
            );
        }
        assert_eq!(arq.mean_attempts(), 1.0);
        assert_eq!(arq.residual_loss(), 0.0);
    }

    #[test]
    fn dead_link_drops_after_max_retries() {
        let mut arq = StopAndWait::new(ArqConfig::standard());
        let mut r = rng();
        assert_eq!(arq.transmit(1.0, &mut r), Ok(TxOutcome::Dropped));
        assert_eq!(arq.mean_attempts(), 4.0); // 1 + 3 retries
        assert_eq!(arq.residual_loss(), 1.0);
    }

    #[test]
    fn monte_carlo_matches_analytics() {
        let cfg = ArqConfig::standard();
        let per = 0.3;
        let mut arq = StopAndWait::new(cfg);
        let mut r = rng();
        let n = 100_000;
        for _ in 0..n {
            arq.transmit(per, &mut r).expect("valid PER");
        }
        let p_deliver = 1.0 - arq.residual_loss();
        assert!(
            (p_deliver - delivery_probability(per, &cfg)).abs() < 0.005,
            "delivery {p_deliver} vs {}",
            delivery_probability(per, &cfg)
        );
        assert!(
            (arq.mean_attempts() - expected_attempts(per, &cfg)).abs() < 0.01,
            "attempts {} vs {}",
            arq.mean_attempts(),
            expected_attempts(per, &cfg)
        );
    }

    #[test]
    fn arq_rescues_lossy_links() {
        // PER 0.3 → residual 0.8% with 3 retries.
        let cfg = ArqConfig::standard();
        let residual = 1.0 - delivery_probability(0.3, &cfg);
        assert!(residual < 0.01, "residual = {residual}");
    }

    #[test]
    fn goodput_bounds() {
        let cfg = ArqConfig::standard();
        let r = BitRate::from_mbps(100.0);
        // Clean link: full rate.
        assert!((effective_goodput(r, 0.0, &cfg).mbps() - 100.0).abs() < 1e-9);
        // Dead link: zero.
        assert!(effective_goodput(r, 1.0, &cfg).mbps() < 1e-9);
        // Monotone decreasing in PER.
        let mut prev = f64::INFINITY;
        for per in [0.0, 0.1, 0.3, 0.5, 0.8, 1.0] {
            let g = effective_goodput(r, per, &cfg).mbps();
            assert!(g <= prev + 1e-12, "goodput rose at PER {per}");
            prev = g;
        }
    }

    #[test]
    fn more_retries_lower_residual_loss() {
        let few = ArqConfig {
            max_retries: 1,
            ack_timeout: Seconds::from_millis(5.0),
        };
        let many = ArqConfig {
            max_retries: 7,
            ack_timeout: Seconds::from_millis(5.0),
        };
        assert!(delivery_probability(0.4, &many) > delivery_probability(0.4, &few));
    }

    #[test]
    fn invalid_per_rejected() {
        let mut arq = StopAndWait::new(ArqConfig::standard());
        assert_eq!(
            arq.transmit(1.5, &mut rng()),
            Err(ArqError::PerOutOfRange(1.5))
        );
        assert!(matches!(
            arq.transmit(f64::NAN, &mut rng()),
            Err(ArqError::PerOutOfRange(_))
        ));
        // Rejected calls leave the statistics untouched.
        assert_eq!(arq.offered(), 0);
        assert_eq!(arq.mean_attempts(), 0.0);
        assert!(ArqError::PerOutOfRange(1.5).to_string().contains("1.5"));
    }
}
