//! Friis noise-figure composition of a receiver chain.
//!
//! The AP's sensitivity — and therefore every SNR in Figs. 10–13 — depends
//! on the cascaded noise figure of LNA → filter → mixer. Friis' formula:
//!
//! ```text
//! F_total = F₁ + (F₂−1)/G₁ + (F₃−1)/(G₁G₂) + …
//! ```
//!
//! with linear noise factors `F` and gains `G`. Putting the 25 dB LNA
//! first makes the lossy filter and mixer nearly free — the design point
//! §8.2 calls out.

use mmx_units::Db;

/// One stage of a receive chain.
#[derive(Debug, Clone)]
pub struct CascadeStage {
    /// Stage label for reports.
    pub name: String,
    /// Power gain (negative for lossy stages).
    pub gain: Db,
    /// Noise figure (≥ 0 dB).
    pub noise_figure: Db,
}

impl CascadeStage {
    /// Creates a stage.
    pub fn new(name: impl Into<String>, gain: Db, noise_figure: Db) -> Self {
        assert!(
            noise_figure.value() >= 0.0,
            "noise figure cannot be below 0 dB"
        );
        CascadeStage {
            name: name.into(),
            gain,
            noise_figure,
        }
    }

    /// A passive lossy stage (attenuator/filter/mixer): NF = loss.
    pub fn passive(name: impl Into<String>, loss: Db) -> Self {
        assert!(loss.value() >= 0.0, "loss must be non-negative");
        Self::new(name, -loss, loss)
    }
}

/// An ordered receiver chain.
#[derive(Debug, Clone, Default)]
pub struct NoiseCascade {
    stages: Vec<CascadeStage>,
}

impl NoiseCascade {
    /// An empty chain.
    pub fn new() -> Self {
        NoiseCascade { stages: Vec::new() }
    }

    /// Appends a stage (builder style).
    pub fn stage(mut self, s: CascadeStage) -> Self {
        self.stages.push(s);
        self
    }

    /// The stages in order.
    pub fn stages(&self) -> &[CascadeStage] {
        &self.stages
    }

    /// Total chain gain.
    pub fn total_gain(&self) -> Db {
        self.stages.iter().map(|s| s.gain).sum()
    }

    /// Cascaded noise figure by Friis' formula. 0 dB for an empty chain.
    pub fn noise_figure(&self) -> Db {
        let mut f_total = 1.0; // linear noise factor
        let mut g_running = 1.0; // linear gain of preceding stages
        for s in &self.stages {
            let f = s.noise_figure.linear();
            f_total += (f - 1.0) / g_running;
            g_running *= s.gain.linear();
        }
        Db::from_linear(f_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    fn mmx_chain() -> NoiseCascade {
        NoiseCascade::new()
            .stage(CascadeStage::new("LNA", Db::new(25.0), Db::new(2.0)))
            .stage(CascadeStage::passive("filter", Db::new(5.0)))
            .stage(CascadeStage::passive("mixer", Db::new(8.0)))
    }

    #[test]
    fn single_stage_is_its_own_nf() {
        let c = NoiseCascade::new().stage(CascadeStage::new("LNA", Db::new(25.0), Db::new(2.0)));
        close(c.noise_figure().value(), 2.0, 1e-12);
    }

    #[test]
    fn empty_chain_is_transparent() {
        let c = NoiseCascade::new();
        close(c.noise_figure().value(), 0.0, 1e-12);
        close(c.total_gain().value(), 0.0, 1e-12);
    }

    #[test]
    fn lna_first_suppresses_later_losses() {
        // With the LNA first, the full chain NF stays close to the LNA's
        // own 2 dB — the §8.2 design argument.
        let nf = mmx_chain().noise_figure().value();
        assert!(nf < 3.0, "chain NF = {nf} dB");
        assert!(nf > 2.0);
    }

    #[test]
    fn filter_first_ruins_sensitivity() {
        // Swap the filter ahead of the LNA: its 5 dB loss adds directly.
        let bad = NoiseCascade::new()
            .stage(CascadeStage::passive("filter", Db::new(5.0)))
            .stage(CascadeStage::new("LNA", Db::new(25.0), Db::new(2.0)))
            .stage(CascadeStage::passive("mixer", Db::new(8.0)));
        let good = mmx_chain();
        let penalty = (bad.noise_figure() - good.noise_figure()).value();
        assert!(penalty > 4.0, "reordering penalty only {penalty} dB");
    }

    #[test]
    fn passive_stage_nf_equals_loss() {
        let s = CascadeStage::passive("attenuator", Db::new(3.0));
        close(s.gain.value(), -3.0, 1e-12);
        close(s.noise_figure.value(), 3.0, 1e-12);
    }

    #[test]
    fn two_passive_stages_add_directly() {
        let c = NoiseCascade::new()
            .stage(CascadeStage::passive("a", Db::new(3.0)))
            .stage(CascadeStage::passive("b", Db::new(4.0)));
        close(c.noise_figure().value(), 7.0, 1e-9);
        close(c.total_gain().value(), -7.0, 1e-9);
    }

    #[test]
    fn total_gain_sums_stages() {
        close(mmx_chain().total_gain().value(), 25.0 - 5.0 - 8.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "noise figure")]
    fn negative_nf_rejected() {
        let _ = CascadeStage::new("magic", Db::new(10.0), Db::new(-1.0));
    }
}
