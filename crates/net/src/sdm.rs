//! Spatial-division multiplexing via the AP's time-modulated array.
//!
//! §7(b): "In scenarios where the total demanded bandwidth by the nodes is
//! more than the available spectrum, mmX uses SDM to support all nodes
//! simultaneously." The TMA hashes arrival directions into harmonic
//! channels; nodes landing on *different* harmonics can share a frequency
//! channel, while nodes in the same harmonic beam must stay on different
//! frequencies.

use mmx_antenna::tma::Tma;
use mmx_units::Degrees;
use std::collections::BTreeMap;

/// One node's spatial-frequency slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdmSlot {
    /// Index of the shared frequency channel.
    pub channel: usize,
    /// TMA harmonic carrying this node.
    pub harmonic: i32,
}

/// Why SDM scheduling failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdmError {
    /// More nodes share one TMA beam than there are frequency channels:
    /// even spatial reuse cannot separate them.
    NotEnoughResources {
        /// The overloaded harmonic.
        harmonic: i32,
        /// Number of nodes in that beam.
        nodes: usize,
    },
}

/// The SDM scheduler: direction → harmonic → (channel, harmonic) slots.
#[derive(Debug, Clone)]
pub struct SdmScheduler {
    tma: Tma,
}

impl SdmScheduler {
    /// Creates a scheduler over an AP TMA.
    pub fn new(tma: Tma) -> Self {
        SdmScheduler { tma }
    }

    /// The TMA.
    pub fn tma(&self) -> &Tma {
        &self.tma
    }

    /// Schedules nodes with the given angles of arrival into `channels`
    /// frequency channels. Nodes in distinct harmonics reuse channels;
    /// nodes within one harmonic need distinct channels.
    ///
    /// Channel choice is greedy with a spatial heuristic: each node picks
    /// the free channel whose existing users sit in the *most distant*
    /// harmonic beams, so co-channel interferers land in each other's
    /// deep sidelobes rather than in adjacent beams.
    pub fn schedule(&self, aoa: &[Degrees], channels: usize) -> Result<Vec<SdmSlot>, SdmError> {
        assert!(channels >= 1, "need at least one channel");
        let harmonics = self.tma.assign_harmonics(aoa);
        // users[c] = harmonics already on channel c.
        let mut users: Vec<Vec<i32>> = vec![Vec::new(); channels];
        let mut per_harmonic: BTreeMap<i32, usize> = BTreeMap::new();
        let mut slots = Vec::with_capacity(aoa.len());
        for &m in &harmonics {
            let count = per_harmonic.entry(m).or_insert(0);
            if *count >= channels {
                return Err(SdmError::NotEnoughResources {
                    harmonic: m,
                    nodes: *count + 1,
                });
            }
            // Candidate channels: none of their users share harmonic m.
            // Score = distance (in harmonic index) to the nearest user;
            // an empty channel scores ∞.
            let mut best: Option<(usize, i32)> = None; // (channel, score)
            for (c, us) in users.iter().enumerate() {
                if us.contains(&m) {
                    continue;
                }
                let score = us.iter().map(|&u| (u - m).abs()).min().unwrap_or(i32::MAX);
                let better = match best {
                    None => true,
                    Some((_, s)) => score > s,
                };
                if better {
                    best = Some((c, score));
                }
            }
            let (channel, _) = best.expect("count < channels guarantees a free channel");
            users[channel].push(m);
            slots.push(SdmSlot {
                channel,
                harmonic: m,
            });
            *count += 1;
        }
        Ok(slots)
    }

    /// The spatial-reuse factor achieved by a schedule: nodes divided by
    /// the number of distinct frequency channels actually used.
    pub fn reuse_factor(slots: &[SdmSlot]) -> f64 {
        if slots.is_empty() {
            return 1.0;
        }
        let used: std::collections::BTreeSet<usize> = slots.iter().map(|s| s.channel).collect();
        slots.len() as f64 / used.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmx_units::Hertz;

    fn sched() -> SdmScheduler {
        SdmScheduler::new(Tma::new(8, Hertz::from_ghz(24.0), Hertz::from_mhz(1.0)))
    }

    #[test]
    fn spread_nodes_share_one_channel() {
        // Four nodes on four distinct TMA beams: all fit in channel 0.
        let s = sched();
        let aoa = [
            Degrees::new(0.0),
            Degrees::new(14.5),
            Degrees::new(-14.5),
            Degrees::new(30.0),
        ];
        let slots = s.schedule(&aoa, 1).expect("schedulable");
        assert!(slots.iter().all(|sl| sl.channel == 0));
        // All harmonics distinct.
        let hs: std::collections::BTreeSet<i32> = slots.iter().map(|sl| sl.harmonic).collect();
        assert_eq!(hs.len(), 4);
        assert_eq!(SdmScheduler::reuse_factor(&slots), 4.0);
    }

    #[test]
    fn colocated_nodes_need_distinct_channels() {
        let s = sched();
        let aoa = [Degrees::new(0.0), Degrees::new(1.0), Degrees::new(-1.0)];
        let slots = s.schedule(&aoa, 3).expect("schedulable");
        // Same beam → three different channels.
        let chans: std::collections::BTreeSet<usize> = slots.iter().map(|sl| sl.channel).collect();
        assert_eq!(chans.len(), 3);
    }

    #[test]
    fn overload_detected() {
        let s = sched();
        let aoa = [Degrees::new(0.0), Degrees::new(0.5), Degrees::new(-0.5)];
        match s.schedule(&aoa, 2) {
            Err(SdmError::NotEnoughResources { harmonic, nodes }) => {
                assert_eq!(harmonic, 0);
                assert_eq!(nodes, 3);
            }
            other => panic!("expected overload, got {other:?}"),
        }
    }

    #[test]
    fn twenty_nodes_fit_with_ten_channels() {
        // The Fig. 13 scale: 20 nodes, 10 × 25 MHz channels, 8 TMA beams.
        let s = sched();
        let aoa: Vec<Degrees> = (0..20)
            .map(|i| Degrees::new(-55.0 + i as f64 * (110.0 / 19.0)))
            .collect();
        let slots = s.schedule(&aoa, 10).expect("Fig. 13 must schedule");
        assert_eq!(slots.len(), 20);
        assert!(SdmScheduler::reuse_factor(&slots) > 1.5);
    }

    #[test]
    fn no_two_nodes_share_a_slot() {
        let s = sched();
        let aoa: Vec<Degrees> = (0..12)
            .map(|i| Degrees::new(-50.0 + 9.0 * i as f64))
            .collect();
        let slots = s.schedule(&aoa, 10).expect("schedulable");
        for i in 0..slots.len() {
            for j in i + 1..slots.len() {
                assert!(
                    slots[i] != slots[j],
                    "nodes {i} and {j} share slot {:?}",
                    slots[i]
                );
            }
        }
    }

    #[test]
    fn empty_input_schedules_trivially() {
        let s = sched();
        assert!(s.schedule(&[], 1).unwrap().is_empty());
        assert_eq!(SdmScheduler::reuse_factor(&[]), 1.0);
    }
}
