//! Frequency-division multiplexing: band plans and the demand-driven
//! channel allocator.
//!
//! §7(a): "mmX divides the available spectrum between nodes depending on
//! their data rate demand. ... The channels are specified by the AP to
//! each node in the initialization stage." OOK at 1 bit/symbol needs
//! roughly `rate × (1+rolloff)` of bandwidth; the allocator packs
//! channels (plus guard bands) into the unlicensed band low-to-high.

use mmx_units::{Band, BitRate, Hertz};

/// A band plan: the unlicensed band plus allocation policy constants.
#[derive(Debug, Clone)]
pub struct BandPlan {
    band: Band,
    guard: Hertz,
    rolloff: f64,
    min_channel: Hertz,
}

/// A channel granted to a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelAssignment {
    /// Channel center frequency.
    pub center: Hertz,
    /// Channel width (signal bandwidth, guard not included).
    pub width: Hertz,
}

impl ChannelAssignment {
    /// The occupied sub-band.
    pub fn band(&self) -> Band {
        Band::centered(self.center, self.width)
    }
}

/// Why an allocation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The total demand exceeds the band: the network must fall back to
    /// SDM (§7(b)).
    BandExhausted,
    /// A single demand exceeds what OOK in this band could ever carry.
    DemandTooLarge,
}

/// Why a band plan (or a channelization checked against one) is
/// invalid. Returned by [`BandPlan::checked`] and
/// [`BandPlan::validate_channels`] instead of silently accepting a bad
/// plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandPlanError {
    /// A band edge is NaN or infinite.
    NonFiniteBand,
    /// The band's high edge does not exceed its low edge.
    EmptyBand,
    /// The guard is negative or non-finite.
    BadGuard,
    /// Sub-channel `index` sticks out of the plan's band.
    ChannelOutOfBand {
        /// Index of the offending channel in the checked list.
        index: usize,
    },
    /// Sub-channels `a` and `b` overlap.
    ChannelsOverlap {
        /// First overlapping channel.
        a: usize,
        /// Second overlapping channel.
        b: usize,
    },
}

impl std::fmt::Display for BandPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BandPlanError::NonFiniteBand => write!(f, "band edges must be finite"),
            BandPlanError::EmptyBand => write!(f, "band high edge must exceed its low edge"),
            BandPlanError::BadGuard => write!(f, "guard must be finite and non-negative"),
            BandPlanError::ChannelOutOfBand { index } => {
                write!(f, "sub-channel {index} sticks out of the band")
            }
            BandPlanError::ChannelsOverlap { a, b } => {
                write!(f, "sub-channels {a} and {b} overlap")
            }
        }
    }
}

impl BandPlan {
    /// Creates a plan over `band` with a `guard` between channels,
    /// validating both. Bad plans used to be accepted silently (only a
    /// negative guard asserted); now every constructor funnels through
    /// this typed check.
    pub fn checked(band: Band, guard: Hertz) -> Result<Self, BandPlanError> {
        if !band.low.hz().is_finite() || !band.high.hz().is_finite() {
            return Err(BandPlanError::NonFiniteBand);
        }
        if band.high.hz() <= band.low.hz() {
            return Err(BandPlanError::EmptyBand);
        }
        if !guard.hz().is_finite() || guard.hz() < 0.0 {
            return Err(BandPlanError::BadGuard);
        }
        Ok(BandPlan {
            band,
            guard,
            rolloff: 0.25,
            min_channel: Hertz::from_mhz(1.0),
        })
    }

    /// Creates a plan over `band` with a `guard` between channels.
    ///
    /// # Panics
    ///
    /// On an invalid band or guard — use [`BandPlan::checked`] when the
    /// inputs are not compile-time constants.
    pub fn new(band: Band, guard: Hertz) -> Self {
        match Self::checked(band, guard) {
            Ok(plan) => plan,
            Err(e) => panic!("invalid band plan: {e}"),
        }
    }

    /// Checks that a channelization fits this plan: every sub-channel
    /// inside the band, no two overlapping. The allocator upholds this
    /// by construction; externally supplied tables (the multi-AP reuse
    /// plan's global channel grid, hand-built plans in tests) go
    /// through here.
    pub fn validate_channels(&self, channels: &[ChannelAssignment]) -> Result<(), BandPlanError> {
        for (i, c) in channels.iter().enumerate() {
            if !self.band.contains_band(&c.band()) {
                return Err(BandPlanError::ChannelOutOfBand { index: i });
            }
            for (j, d) in channels.iter().enumerate().skip(i + 1) {
                if c.band().overlaps(&d.band()) {
                    return Err(BandPlanError::ChannelsOverlap { a: i, b: j });
                }
            }
        }
        Ok(())
    }

    /// The equal-width channel grid that [`Self::capacity`] counts:
    /// `capacity(width)` channels of `width`, guard-separated, packed
    /// low-to-high. This is the global channel table the multi-AP reuse
    /// plan partitions across APs.
    pub fn channel_table(&self, width: Hertz) -> Vec<ChannelAssignment> {
        let n = self.capacity(width);
        (0..n)
            .map(|i| ChannelAssignment {
                center: self.band.low + (width + self.guard) * i as f64 + width / 2.0,
                width,
            })
            .collect()
    }

    /// The 24 GHz ISM plan used by the prototype: 250 MHz with 1 MHz
    /// guards.
    pub fn ism_24ghz() -> Self {
        BandPlan::new(Band::ism_24ghz(), Hertz::from_mhz(1.0))
    }

    /// The 60 GHz plan (7 GHz of spectrum, §7(a)).
    pub fn unlicensed_60ghz() -> Self {
        BandPlan::new(Band::unlicensed_60ghz(), Hertz::from_mhz(10.0))
    }

    /// The underlying band.
    pub fn band(&self) -> &Band {
        &self.band
    }

    /// Bandwidth needed to carry `rate` with OOK (1 bit/symbol) plus
    /// roll-off, floored at the minimum channel.
    pub fn width_for(&self, rate: BitRate) -> Hertz {
        Hertz::new(rate.bps() * (1.0 + self.rolloff)).max(self.min_channel)
    }

    /// The data rate a channel of `width` supports (inverse of
    /// [`width_for`](Self::width_for)).
    pub fn rate_for(&self, width: Hertz) -> BitRate {
        BitRate::new(width.hz() / (1.0 + self.rolloff))
    }

    /// Allocates channels for a set of demands, low-to-high. Returns one
    /// assignment per demand, in order.
    pub fn allocate(&self, demands: &[BitRate]) -> Result<Vec<ChannelAssignment>, AllocError> {
        let mut cursor = self.band.low;
        let mut out = Vec::with_capacity(demands.len());
        for &d in demands {
            let width = self.width_for(d);
            if width.hz() > self.band.bandwidth().hz() {
                return Err(AllocError::DemandTooLarge);
            }
            let top = cursor + width;
            if top.hz() > self.band.high.hz() + 1e-3 {
                return Err(AllocError::BandExhausted);
            }
            out.push(ChannelAssignment {
                center: cursor + width / 2.0,
                width,
            });
            cursor = top + self.guard;
        }
        Ok(out)
    }

    /// How many equal channels of `width` fit in the band.
    pub fn capacity(&self, width: Hertz) -> usize {
        let per = width.hz() + self.guard.hz();
        if per <= 0.0 {
            return 0;
        }
        // The last channel does not need a trailing guard.
        ((self.band.bandwidth().hz() + self.guard.hz()) / per).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn hd_camera_gets_a_few_mhz() {
        // §4: "if a device needs to stream an HD video, a few MHz of
        // bandwidth must be allocated to it" (8–10 Mbps application rate).
        let plan = BandPlan::ism_24ghz();
        let w = plan.width_for(BitRate::from_mbps(8.0));
        assert!((8.0..=15.0).contains(&w.mhz()), "width = {w}");
    }

    #[test]
    fn allocation_is_disjoint_and_in_band() {
        let plan = BandPlan::ism_24ghz();
        let demands = vec![BitRate::from_mbps(10.0); 8];
        let got = plan.allocate(&demands).expect("fits");
        assert_eq!(got.len(), 8);
        for (i, a) in got.iter().enumerate() {
            assert!(plan.band().contains_band(&a.band()), "ch {i} out of band");
            for b in &got[i + 1..] {
                assert!(!a.band().overlaps(&b.band()), "channels overlap");
            }
        }
    }

    #[test]
    fn guard_bands_separate_neighbors() {
        let plan = BandPlan::ism_24ghz();
        let got = plan
            .allocate(&[BitRate::from_mbps(10.0), BitRate::from_mbps(10.0)])
            .expect("fits");
        let gap = got[1].band().low - got[0].band().high;
        close(gap.mhz(), 1.0, 1e-9);
    }

    #[test]
    fn band_exhaustion_detected() {
        let plan = BandPlan::ism_24ghz();
        // 250 MHz / (125+1) MHz: two 100 Mbps channels do not fit.
        let demands = vec![BitRate::from_mbps(100.0); 2];
        assert_eq!(plan.allocate(&demands), Err(AllocError::BandExhausted));
    }

    #[test]
    fn oversized_single_demand_detected() {
        let plan = BandPlan::ism_24ghz();
        assert_eq!(
            plan.allocate(&[BitRate::from_mbps(500.0)]),
            Err(AllocError::DemandTooLarge)
        );
    }

    #[test]
    fn sixty_ghz_band_carries_many_more() {
        let ism = BandPlan::ism_24ghz();
        let v = BandPlan::unlicensed_60ghz();
        let w = Hertz::from_mhz(25.0);
        assert!(v.capacity(w) > 10 * ism.capacity(w));
    }

    #[test]
    fn capacity_matches_allocation() {
        let plan = BandPlan::ism_24ghz();
        let w = Hertz::from_mhz(25.0);
        let cap = plan.capacity(w);
        // `cap` channels of exactly this width must allocate...
        let rate = plan.rate_for(w);
        assert!(plan.allocate(&vec![rate; cap]).is_ok());
        // ... and one more must not.
        assert!(plan.allocate(&vec![rate; cap + 1]).is_err());
    }

    #[test]
    fn width_rate_roundtrip() {
        let plan = BandPlan::ism_24ghz();
        let r = BitRate::from_mbps(42.0);
        close(plan.rate_for(plan.width_for(r)).mbps(), 42.0, 1e-9);
    }

    #[test]
    fn tiny_demand_gets_minimum_channel() {
        let plan = BandPlan::ism_24ghz();
        let w = plan.width_for(BitRate::from_kbps(10.0));
        close(w.mhz(), 1.0, 1e-9);
    }

    #[test]
    fn empty_demand_list_is_fine() {
        let plan = BandPlan::ism_24ghz();
        assert!(plan.allocate(&[]).unwrap().is_empty());
    }

    #[test]
    fn checked_rejects_bad_plans_with_typed_errors() {
        let ism = Band::ism_24ghz();
        let err = |b, g| BandPlan::checked(b, g).unwrap_err();
        assert_eq!(
            err(
                Band {
                    low: ism.high,
                    high: ism.low
                },
                Hertz::from_mhz(1.0)
            ),
            BandPlanError::EmptyBand
        );
        assert_eq!(err(ism, Hertz::new(-1.0)), BandPlanError::BadGuard);
        assert_eq!(err(ism, Hertz::new(f64::NAN)), BandPlanError::BadGuard);
        assert_eq!(
            err(
                Band {
                    low: Hertz::new(f64::NEG_INFINITY),
                    high: ism.high
                },
                Hertz::from_mhz(1.0)
            ),
            BandPlanError::NonFiniteBand
        );
        assert!(BandPlan::checked(ism, Hertz::from_mhz(1.0)).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid band plan")]
    fn new_panics_on_inverted_band() {
        let ism = Band::ism_24ghz();
        let _ = BandPlan::new(
            Band {
                low: ism.high,
                high: ism.low,
            },
            Hertz::new(0.0),
        );
    }

    #[test]
    fn channel_table_matches_capacity_and_validates() {
        let plan = BandPlan::ism_24ghz();
        let w = Hertz::from_mhz(25.0);
        let table = plan.channel_table(w);
        assert_eq!(table.len(), plan.capacity(w));
        plan.validate_channels(&table).expect("grid is well-formed");
    }

    #[test]
    fn validate_channels_catches_overlap_and_out_of_band() {
        let plan = BandPlan::ism_24ghz();
        let w = Hertz::from_mhz(25.0);
        let mut table = plan.channel_table(w);
        // Slide channel 1 onto channel 0.
        table[1].center = table[0].center;
        assert_eq!(
            plan.validate_channels(&table),
            Err(BandPlanError::ChannelsOverlap { a: 0, b: 1 })
        );
        let mut table = plan.channel_table(w);
        table[2].center = plan.band().high + Hertz::from_mhz(5.0);
        assert_eq!(
            plan.validate_channels(&table),
            Err(BandPlanError::ChannelOutOfBand { index: 2 })
        );
    }
}
