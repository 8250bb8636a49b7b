//! Deterministic observability traces for the bench harness.
//!
//! Runs the Fig. 13 multi-node topologies with the PR 2 fault cocktail
//! (lossy control plane + node churn + a blockage burst) under enabled
//! recorders, and concatenates the per-scenario JSONL traces in
//! scenario-index order. Each scenario's trace is produced by its own
//! single-threaded event loop against the simulated clock, so the
//! concatenation — delimited by `run` begin/end markers — is
//! byte-identical at any worker thread count.

use mmx_net::sim::{NetworkReport, NetworkSim};
use mmx_obs::{Recorder, Registry};
use mmx_units::Seconds;
use std::path::PathBuf;

/// The traced run of a scenario batch.
pub struct TraceBundle {
    /// Concatenated JSONL trace, scenario-index order.
    pub jsonl: String,
    /// All scenarios' metrics merged into one registry.
    pub metrics: Registry,
    /// The per-scenario reports, index order.
    pub reports: Vec<NetworkReport>,
}

/// The faulted Fig. 13 grid: every node count on the figure's x-axis ×
/// `topologies` random placements, each with the PR 2 fault cocktail —
/// 20% control-message loss, 2 Hz per-node crash churn with a 100 ms
/// rejoin, and correlated 25 dB blockage bursts. Seeding matches the
/// fig13 sweep convention (a pure function of the (count, topology)
/// pair), so the grid fans out across threads and reassembles
/// bit-identically.
pub fn fig13_fault_scenarios(topologies: usize, seed: u64) -> Vec<NetworkSim> {
    crate::fig13_multinode::NODE_COUNTS
        .iter()
        .flat_map(|&n| {
            (0..topologies).map(move |t| {
                let mut sim =
                    crate::fig13_multinode::random_topology(n, seed + t as u64 * 1000 + n as u64);
                let cfg = sim.config_mut();
                cfg.duration = Seconds::from_millis(250.0);
                cfg.faults = Some(
                    mmx_net::FaultConfig::lossy(0.2)
                        .with_churn(2.0, Seconds::from_millis(100.0))
                        .with_bursts(2.0, Seconds::from_millis(40.0), mmx_units::Db::new(25.0)),
                );
                sim
            })
        })
        .collect()
}

/// Runs `sims` with per-scenario recorders on `threads` workers and
/// bundles the concatenated trace plus the merged metrics. Each worker
/// serializes the trace of the scenario it ran.
pub fn run_traced(sims: &[NetworkSim], threads: usize) -> TraceBundle {
    let runs = mmx_net::pool::run_indexed(threads, sims.len(), |k| {
        let mut rec = Recorder::enabled();
        let report = sims[k].run_observed(&mut rec);
        (report, rec.trace_jsonl(), rec)
    });
    let mut jsonl = String::with_capacity(runs.iter().map(|(_, trace, _)| trace.len()).sum());
    let mut metrics = Registry::new();
    let mut reports = Vec::with_capacity(runs.len());
    for (report, trace, rec) in runs {
        jsonl.push_str(&trace);
        metrics.merge(rec.registry());
        reports.push(report.expect("traced scenario must run"));
    }
    TraceBundle {
        jsonl,
        metrics,
        reports,
    }
}

/// Convenience: the full traced fig13 fault batch at the ambient thread
/// count ([`crate::par::threads`]).
pub fn trace_fig13(topologies: usize, seed: u64) -> TraceBundle {
    run_traced(
        &fig13_fault_scenarios(topologies, seed),
        crate::par::threads(),
    )
}

/// Writes a JSONL trace to `results/trace_<name>.jsonl` and returns the
/// path.
pub fn write_trace(name: &str, jsonl: &str) -> std::io::Result<PathBuf> {
    let path = crate::output::results_dir().join(format!("trace_{name}.jsonl"));
    std::fs::write(&path, jsonl)?;
    Ok(path)
}

/// Sums a recorder-style gauge family: total seconds all nodes spent in
/// `state` across the batch (from the merged `fsm_time_in_state_s`
/// gauges).
pub fn time_in_state(metrics: &Registry, state: &str) -> f64 {
    metrics
        .gauges()
        .filter(|(k, _)| k.name == "fsm_time_in_state_s" && k.label == state)
        .map(|(_, v)| v)
        .sum()
}

/// A disabled-recorder run of the same scenario set, for overhead
/// comparisons: identical work, no observability.
pub fn run_disabled(sims: &[NetworkSim], threads: usize) -> Vec<NetworkReport> {
    mmx_net::sim::run_batch_with_threads(sims, threads)
        .into_iter()
        .map(|r| r.expect("scenario must run"))
        .collect()
}

/// One scenario run with an explicitly disabled recorder (zero-cost
/// path), used by the overhead gate to measure the disabled branch
/// rather than the plain API.
pub fn run_one_disabled(sim: &NetworkSim) -> NetworkReport {
    sim.run_observed(&mut Recorder::disabled())
        .expect("scenario must run")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_fig13_is_thread_invariant() {
        let sims = fig13_fault_scenarios(1, 11);
        // Only the two smallest counts: unit-test time budget.
        let sims = &sims[..2];
        let one = run_traced(sims, 1);
        let eight = run_traced(sims, 8);
        assert_eq!(one.jsonl, eight.jsonl, "trace bytes differ across threads");
        assert_eq!(one.metrics.render(), eight.metrics.render());
        assert!(!one.jsonl.is_empty());
    }

    #[test]
    fn traced_reports_match_plain_runs() {
        let sims = fig13_fault_scenarios(1, 7);
        let sims = &sims[..2];
        let traced = run_traced(sims, 2);
        let plain = run_disabled(sims, 2);
        for (t, p) in traced.reports.iter().zip(&plain) {
            assert_eq!(t.nodes, p.nodes, "observation changed the physics");
            assert_eq!(t.recovery, p.recovery);
        }
    }

    #[test]
    fn trace_replays_into_per_scenario_timelines() {
        let sims = fig13_fault_scenarios(1, 3);
        let sims = &sims[..2];
        let bundle = run_traced(sims, 2);
        let (events, bad) = mmx_obs::parse_jsonl(&bundle.jsonl);
        assert_eq!(bad, 0);
        let runs = mmx_obs::replay(&events);
        assert_eq!(runs.len(), 2, "one timeline per scenario");
        let granted = time_in_state(&bundle.metrics, "Granted");
        assert!(granted > 0.0, "nobody reached Granted");
    }
}
