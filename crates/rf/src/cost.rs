//! Bill-of-materials cost ledgers.
//!
//! §1/§10: a conventional mmWave radio needs a $220 amplifier, $70 mixer
//! and $150 phase shifters per element; mmX's node totals $110. The
//! ledgers here carry those numbers into Table 1.

/// An itemized BOM cost ledger in USD.
#[derive(Debug, Clone, Default)]
pub struct CostLedger {
    entries: Vec<(String, f64)>,
}

impl CostLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Adds an entry (builder style).
    pub fn entry(mut self, name: impl Into<String>, usd: f64) -> Self {
        assert!(usd >= 0.0, "cost cannot be negative");
        self.entries.push((name.into(), usd));
        self
    }

    /// The mmX node BOM: $110 total (§2, footnote 4).
    pub fn mmx_node() -> Self {
        CostLedger::new()
            .entry("VCO (HMC533)", 38.0)
            .entry("SPDT switch (ADRF5020)", 22.0)
            .entry("PCB + patch arrays (RO4835)", 25.0)
            .entry("regulators, connectors, passives", 25.0)
    }

    /// A conventional phased-array node front end, per the component
    /// prices quoted in §1 (8-element array).
    pub fn conventional_phased_node() -> Self {
        CostLedger::new()
            .entry("power amplifier", 220.0)
            .entry("mixer", 70.0)
            .entry("phase shifters (8 × $150)", 8.0 * 150.0)
            .entry("LNAs (8 × $50)", 8.0 * 50.0)
            .entry("PCB + antennas", 40.0)
    }

    /// The itemized entries.
    pub fn entries(&self) -> &[(String, f64)] {
        &self.entries
    }

    /// Total cost in USD.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|(_, c)| c).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_costs_110_dollars() {
        assert!((CostLedger::mmx_node().total() - 110.0).abs() < 1e-9);
    }

    #[test]
    fn conventional_node_costs_over_a_thousand() {
        // "a full mmWave radio cost hundreds of dollars" (§1) — with a
        // phased array it crosses $1000.
        let total = CostLedger::conventional_phased_node().total();
        assert!(total > 1000.0, "conventional BOM = ${total}");
    }

    #[test]
    fn mmx_is_an_order_of_magnitude_cheaper() {
        let ratio = CostLedger::conventional_phased_node().total() / CostLedger::mmx_node().total();
        assert!(ratio > 10.0, "cost ratio = {ratio}");
    }

    #[test]
    fn ledger_is_itemized() {
        assert_eq!(CostLedger::mmx_node().entries().len(), 4);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_cost_rejected() {
        let _ = CostLedger::new().entry("rebate", -5.0);
    }
}
