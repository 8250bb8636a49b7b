//! The repository's benchmark: drives one named workload through the
//! simulators' public entry points and prints every metric, by name and
//! unit, ending with one JSON line.
//!
//! ```text
//! cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scale_500|churn_60|corridor_4ap> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Load model: a closed loop. One simulation runs at a time, back to
//! back, in this process, each on [`workload::THREADS`] worker threads;
//! sample `k` of a run uses seed `seed + k`.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced pass: spans around every build,
//! run, flush, check and layer call give the per-layer metrics, and the
//! pass reports its own overhead against untraced samples it
//! interleaves. Each run also writes its raw samples, provenance and
//! spans under `perfbench/out/`.
//!
//! Every time reported is in reference seconds: host seconds scaled by
//! the host's speed, measured in-run (see [`host`]); raw host seconds
//! are printed and stored beside them.
//!
//! Every sample's output is checked; any violation counts as a failed
//! sample and makes the process exit 1 after printing its result.

mod host;
mod layers;
mod spans;
mod stats;
mod workload;

use host::HostSpeed;
use mmx_obs::Recorder;
use spans::{SpanId, Spans};
use stats::{events_per_s, median, quartiles, tail, Digest};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workload::{Outcome, Sim, Workload, THREADS};

/// An end-to-end metric: what a user of the simulators sees.
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
}

/// The end-to-end metrics `--trace 0` reports, in output order.
const END_TO_END: [Metric; 8] = [
    Metric {
        name: "events_per_s",
        unit: "1/s",
        better: "higher",
    },
    Metric {
        name: "sim_wall_p50_s",
        unit: "s",
        better: "lower",
    },
    Metric {
        name: "sim_wall_tail_s",
        unit: "s",
        better: "lower",
    },
    Metric {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
    },
    Metric {
        name: "delivery_rate",
        unit: "ratio",
        better: "higher",
    },
    Metric {
        name: "goodput_mbps",
        unit: "Mbit/s",
        better: "higher",
    },
    Metric {
        name: "mean_sinr_db",
        unit: "dB",
        better: "higher",
    },
];

/// A per-layer metric, with the end-to-end metric it should move and
/// the workloads it should move it on — written down before any
/// optimisation, so that a later change can be held to it.
struct LayerMetric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// The per-layer metrics `--trace 1` reports, in output order.
#[rustfmt::skip]
const PER_LAYER: [LayerMetric; 39] = [
    // Setup layer.
    lm("net.sdm.schedule_ms", "ms", "lower", "setup_s", "scale_500"),
    lm("antenna.tma.gain_ns", "ns", "lower", "setup_s peak_rss_mb", "scale_500 corridor_4ap"),
    lm("net.multi_ap.reuse_plan_ms", "ms", "lower", "setup_s", "corridor_4ap"),
    // Gather layer.
    lm("channel.trace_us", "us", "lower", "events_per_s", "churn_60 corridor_4ap"),
    lm("channel.fading_ns", "ns", "lower", "events_per_s", "churn_60"),
    lm("phy.ber_ns", "ns", "lower", "events_per_s", "churn_60"),
    lm("net.interference.sinr_us", "us", "lower", "events_per_s", "scale_500 corridor_4ap"),
    // Engine loop.
    lm("net.sim.setup_s", "s", "lower", "setup_s", "scale_500 churn_60 corridor_4ap"),
    lm("net.sim.loop_s", "s", "lower", "events_per_s sim_wall_p50_s", "scale_500 churn_60 corridor_4ap"),
    lm("net.sim.loop_us_per_event", "us", "lower", "events_per_s sim_wall_p50_s", "scale_500 churn_60 corridor_4ap"),
    lm("net.sim.events", "count", "higher", "events_per_s", "scale_500 churn_60 corridor_4ap"),
    lm("net.pool.speedup", "x", "higher", "events_per_s sim_wall_p50_s", "scale_500 churn_60 corridor_4ap"),
    // Control plane and faults.
    lm("net.control.sent", "count", "lower", "events_per_s", "churn_60"),
    lm("net.control.lost", "count", "lower", "events_per_s delivery_rate", "churn_60"),
    lm("net.control.retries", "count", "lower", "events_per_s", "churn_60"),
    lm("net.control.useful_ratio", "ratio", "higher", "events_per_s", "churn_60"),
    lm("net.control.stale_grants", "count", "lower", "delivery_rate", "churn_60"),
    lm("net.control.reclaimed_leases", "count", "lower", "delivery_rate", "churn_60"),
    lm("net.faults.crashes", "count", "lower", "delivery_rate", "churn_60"),
    lm("net.link.outages", "count", "lower", "delivery_rate", "churn_60"),
    lm("net.link.mean_join_s", "s", "lower", "delivery_rate", "churn_60"),
    lm("net.link.mean_recovery_s", "s", "lower", "delivery_rate", "churn_60"),
    // Multi-AP coordination.
    lm("net.multi_ap.handoff_attempts", "count", "lower", "events_per_s delivery_rate", "corridor_4ap"),
    lm("net.multi_ap.handoff_completed", "count", "higher", "delivery_rate", "corridor_4ap"),
    lm("net.multi_ap.handoff_ratio", "ratio", "higher", "delivery_rate", "corridor_4ap"),
    lm("net.multi_ap.transfers_sent", "count", "lower", "events_per_s", "corridor_4ap"),
    lm("net.multi_ap.transfers_lost", "count", "lower", "delivery_rate", "corridor_4ap"),
    lm("net.multi_ap.transfer_retries", "count", "lower", "events_per_s", "corridor_4ap"),
    lm("net.multi_ap.grant_resyncs", "count", "lower", "delivery_rate", "corridor_4ap"),
    lm("net.multi_ap.stale_msgs", "count", "lower", "events_per_s", "corridor_4ap"),
    lm("net.multi_ap.duplicate_deliveries", "count", "lower", "delivery_rate", "corridor_4ap"),
    lm("net.multi_ap.admitted", "count", "higher", "delivery_rate goodput_mbps", "corridor_4ap"),
    // Observability.
    lm("obs.overhead_pct", "%", "lower", "sim_wall_p50_s", "churn_60 corridor_4ap"),
    lm("obs.flush_ms", "ms", "lower", "sim_wall_p50_s", "churn_60 corridor_4ap"),
    lm("obs.trace_events", "count", "lower", "sim_wall_p50_s peak_rss_mb", "churn_60 corridor_4ap"),
    lm("obs.trace_bytes", "bytes", "lower", "sim_wall_p50_s peak_rss_mb", "churn_60 corridor_4ap"),
    lm("obs.trace_dropped", "count", "lower", "none: must stay 0", "churn_60 corridor_4ap"),
    // The traced pass itself.
    lm("bench.trace_overhead_pct", "%", "lower", "none: tracing cost", "scale_500 churn_60 corridor_4ap"),
    lm("bench.host_speed_factor", "x", "higher", "none: divided out of every time", "scale_500 churn_60 corridor_4ap"),
];

/// Samples every timed loop takes at least, so the tail percentile
/// exists (it needs more than ten).
const MIN_SAMPLES: usize = 20;
/// Setup is timed in at least this many batches ...
const SETUP_REPS: usize = 9;
/// ... and for at least this long, each batch repeating it for at least
/// `SETUP_BATCH_SECS` and keeping the median.
const SETUP_SECS: f64 = 2.0;
const SETUP_BATCH_SECS: f64 = 0.05;
/// Passes of paired or repeated comparisons (pool speedup, obs
/// overhead): at least this many ...
const PAIR_REPS: usize = 5;
/// ... and for at least this long.
const PAIR_SECS: f64 = 2.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 20.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Simulations attempted and failed, with what failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Counts one checked simulation.
    fn record<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| self.fail(e)).ok()
    }

    /// Records a failed check on work already counted.
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        eprintln!("check failed: {problem}");
        self.problems.push(problem);
    }
}

/// What an observed run's recorder held.
struct ObsOut {
    events: usize,
    bytes: usize,
    dropped: u64,
    flush_s: f64,
}

/// One checked run call.
struct Run {
    run_s: f64,
    outcome: Outcome,
    obs: Option<ObsOut>,
    /// Digest of the report and, when observed, the trace and metrics.
    digest: Digest,
}

/// Runs `sim` once, timing the run call and (when `observed`) the obs
/// flush, then checks the output.
fn run_once(
    sim: &Sim,
    nodes: usize,
    observed: bool,
    spans: &mut Spans,
    parent: Option<SpanId>,
    seed: u64,
    name: &'static str,
) -> Result<Run, String> {
    let sample = Some(seed);
    let mut rec = if observed {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let t = Instant::now();
    let res = spans.time(name, parent, sample, |_, _| {
        catch_unwind(AssertUnwindSafe(|| sim.run(&mut rec)))
    });
    let run_s = t.elapsed().as_secs_f64();
    let report = match res {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => return Err(format!("seed {seed}: run failed: {e}")),
        Err(_) => return Err(format!("seed {seed}: run panicked")),
    };
    let flushed = observed.then(|| {
        spans.time("obs.flush", parent, sample, |_, _| {
            let t = Instant::now();
            let jsonl = rec.trace_jsonl();
            let metrics = rec.registry().render();
            (jsonl, metrics, t.elapsed().as_secs_f64())
        })
    });
    spans.time("check", parent, sample, |_, _| {
        let outcome = report.outcome();
        let mut problems = outcome.violations(nodes);
        let mut digest = outcome.digest;
        let obs = flushed.map(|(jsonl, metrics, flush_s)| {
            digest = digest.write(jsonl.as_bytes()).write(metrics.as_bytes());
            ObsOut {
                events: rec.trace().len(),
                bytes: jsonl.len(),
                dropped: rec.trace().dropped(),
                flush_s,
            }
        });
        if let Some(o) = obs.as_ref().filter(|o| o.dropped != 0) {
            problems.push(format!("trace dropped {} events", o.dropped));
        }
        if problems.is_empty() {
            Ok(Run {
                run_s,
                outcome,
                obs,
                digest,
            })
        } else {
            Err(format!("seed {seed}: {}", problems.join("; ")))
        }
    })
}

/// One simulation of the closed loop: build, run, flush, check.
struct Sample {
    /// Host seconds from the start of the build to the end of the flush.
    wall_s: f64,
    run: Run,
}

/// One simulation of the closed loop: build, run, flush, check. The
/// check is outside `wall_s`.
fn run_sample(
    w: Workload,
    seed: u64,
    threads: usize,
    min_horizon: bool,
    spans: &mut Spans,
    parent: Option<SpanId>,
) -> Result<Sample, String> {
    let id = Some(seed);
    let root = spans.begin(
        if min_horizon {
            "sample.setup"
        } else {
            "sample"
        },
        parent,
        id,
    );
    let t = Instant::now();
    let mut sim = spans.time("build", root, id, |_, _| w.build(seed, threads));
    if min_horizon {
        sim.set_min_horizon();
    }
    let build_s = t.elapsed().as_secs_f64();
    let run = run_once(&sim, w.nodes(), w.observed(), spans, root, seed, "run");
    spans.end(root);
    let run = run?;
    let wall_s = build_s + run.run_s + run.obs.as_ref().map_or(0.0, |o| o.flush_s);
    Ok(Sample { wall_s, run })
}

/// The §9 determinism contract on `seed`: the report (and trace) at 1
/// thread must equal the one at [`THREADS`]. Returns the latter, the
/// reference later repetitions of the seed must reproduce. These are
/// also the process's warm-up runs.
fn determinism(
    w: Workload,
    seed: u64,
    tally: &mut Tally,
    spans: &mut Spans,
    parent: Option<SpanId>,
) -> Option<Sample> {
    let one = tally.record(run_sample(w, seed, 1, false, spans, parent));
    let two = tally.record(run_sample(w, seed, THREADS, false, spans, parent));
    if let (Some(a), Some(b)) = (&one, &two) {
        if a.run.digest != b.run.digest {
            tally.fail(format!(
                "seed {seed}: output differs between 1 and {THREADS} threads"
            ));
        }
    }
    two
}

/// Checks that a repetition of the reference seed reproduced it.
fn repeats(tally: &mut Tally, reference: &Option<Sample>, again: &Run, what: &str) {
    if let Some(r) = reference {
        if r.run.digest != again.digest {
            tally.fail(format!("{what} does not reproduce the reference run"));
        }
    }
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Median, or NaN (reported as a failure) when nothing was measured.
fn med(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        median(xs)
    }
}

/// JSON for a string.
fn js(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON for a list of numbers.
fn jlist<T: std::fmt::Display>(xs: &[T]) -> String {
    let v: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", v.join(","))
}

/// Results of one pass: metric values in table order, plus raw data for
/// the result file as `(key, JSON value)` pairs.
struct PassOut {
    values: Vec<f64>,
    raw: Vec<(&'static str, String)>,
}

/// The end-to-end pass (`--trace 0`).
fn end_to_end(a: &Args, tally: &mut Tally) -> PassOut {
    let w = a.workload;
    let mut off = Spans::disabled();
    let reference = determinism(w, a.seed, tally, &mut off, None);
    // Every time below is host seconds times the bracketing host-speed
    // factor; the `host_` arrays keep the raw host seconds.
    let mut speed = HostSpeed::new(w.calibration_threads());

    // Setup: the same run call on the same topology, horizon ~0.
    let mut sim = w.build(a.seed, THREADS);
    sim.set_min_horizon();
    let mut host_setup = vec![];
    let t = Instant::now();
    while host_setup.len() < SETUP_REPS || t.elapsed().as_secs_f64() < SETUP_SECS {
        // Back-to-back setups between two calibrations, so that a
        // sub-millisecond setup is not timed only cold off the kernel.
        let (batch, call) = speed.around(|| {
            let (mut reps, b) = (vec![], Instant::now());
            while reps.is_empty() || b.elapsed().as_secs_f64() < SETUP_BATCH_SECS {
                reps.push(
                    run_once(&sim, w.nodes(), w.observed(), &mut off, None, a.seed, "run")?.run_s,
                );
            }
            Ok(median(&reps))
        });
        // Only a failed setup run counts towards `attempted`: the
        // fraction failed is over simulations, not over setup repeats.
        match batch {
            Ok(s) => host_setup.push((s, call)),
            Err(e) => {
                tally.attempted += 1;
                tally.fail(e);
                break;
            }
        }
    }

    // The closed loop.
    let (mut seeds, mut events, mut host_wall, mut host_run) = (vec![], vec![], vec![], vec![]);
    let mut stat: Vec<Outcome> = Vec::new();
    let t = Instant::now();
    let mut k = 0u64;
    let stat_seeds = w.stat_seeds();
    while k < stat_seeds || (k as usize) < MIN_SAMPLES || t.elapsed().as_secs_f64() < a.seconds {
        let seed = a.seed + k;
        let (s, call) = speed.around(|| run_sample(w, seed, THREADS, false, &mut off, None));
        if let Some(s) = tally.record(s) {
            if k == 0 {
                repeats(tally, &reference, &s.run, "the first timed sample");
            }
            seeds.push(seed);
            host_wall.push((s.wall_s, call));
            host_run.push((s.run.run_s, call));
            events.push(s.run.outcome.sent());
            if k < stat_seeds {
                stat.push(s.run.outcome);
            }
        }
        k += 1;
    }

    // Reference seconds, now that every calibration window is complete.
    let norm = |xs: &[(f64, usize)]| -> Vec<f64> {
        xs.iter().map(|&(x, call)| x * speed.factor(call)).collect()
    };
    let (setup, wall, run) = (norm(&host_setup), norm(&host_wall), norm(&host_run));
    let host = |xs: &[(f64, usize)]| -> Vec<f64> { xs.iter().map(|&(x, _)| x).collect() };
    let (host_setup, host_wall, host_run) = (host(&host_setup), host(&host_wall), host(&host_run));
    let tl = tail(&wall);
    let sent: u64 = stat.iter().map(Outcome::sent).sum();
    let delivered: u64 = stat.iter().map(Outcome::delivered).sum();
    let n = stat.len() as f64;
    let rss = peak_rss_mib().unwrap_or_else(|e| {
        tally.fail(format!("peak RSS: {e}"));
        f64::NAN
    });
    let rate = |run: &[f64]| {
        if run.is_empty() {
            f64::NAN
        } else {
            events_per_s(&events, run)
        }
    };
    let values = vec![
        rate(&run),
        med(&wall),
        tl.map_or(f64::NAN, |t| t.value),
        med(&setup),
        rss,
        delivered as f64 / sent as f64,
        stat.iter().map(|o| o.goodput_bps).sum::<f64>() / n / 1e6,
        stat.iter().map(|o| o.mean_sinr_db).sum::<f64>() / n,
    ];
    if let (Some(first), Some(last)) = (seeds.first(), seeds.last()) {
        println!(
            "seeds {first}..={last}; statistics over the first {}",
            stat.len()
        );
    }
    if !wall.is_empty() {
        let (q1, q2, q3) = quartiles(&wall);
        println!(
            "sim_wall_s quartiles over {} samples: {q1:.6} {q2:.6} {q3:.6}",
            wall.len()
        );
    }
    if let Some(t) = tl {
        println!(
            "sim_wall_tail_s is p{:.1}: {} of {} samples lie beyond it",
            t.percentile, t.beyond, t.samples
        );
    }
    println!(
        "host seconds, not normalised: events_per_s {:.3}, sim_wall_p50_s {:.6}, setup_s {:.6}; \
         host-speed factor median {:.4}",
        rate(&host_run),
        med(&host_wall),
        med(&host_setup),
        med(&speed.factors())
    );
    println!(
        "failed_frac = {} ({} of {} simulations failed)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let raw = vec![
        (
            "reference_digest",
            reference.map_or("null".into(), |r| js(&r.run.digest.hex())),
        ),
        ("seeds", jlist(&seeds)),
        ("stat_seeds", jlist(&seeds[..stat.len().min(seeds.len())])),
        ("wall_s", jlist(&wall)),
        ("run_s", jlist(&run)),
        ("events", jlist(&events)),
        ("setup_s", jlist(&setup)),
        ("host_wall_s", jlist(&host_wall)),
        ("host_run_s", jlist(&host_run)),
        ("host_setup_s", jlist(&host_setup)),
        ("host_speed_factors", jlist(&speed.factors())),
        (
            "tail",
            tl.map_or("null".into(), |t| {
                format!(
                    "{{\"percentile\":{},\"value\":{},\"beyond\":{},\"samples\":{}}}",
                    t.percentile, t.value, t.beyond, t.samples
                )
            }),
        ),
    ];
    PassOut { values, raw }
}

/// The traced pass (`--trace 1`).
fn traced(a: &Args, tally: &mut Tally) -> PassOut {
    let w = a.workload;
    let mut spans = Spans::enabled();
    let mut off = Spans::disabled();
    let pass = spans.begin("pass", None, None);
    let reference = spans.time("check.determinism", pass, Some(a.seed), |sp, id| {
        determinism(w, a.seed, tally, sp, id)
    });

    // The layer inputs: the workload's stations rebuilt on this side,
    // checked by running them and comparing with the reference report.
    let like = w.build(a.seed, THREADS);
    let params = like.params();
    let geo = spans.time("geometry", pass, None, |_, _| w.geometry(a.seed));
    let rebuilt = geo.rebuild(&like);
    let r = run_once(
        &rebuilt,
        w.nodes(),
        w.observed(),
        &mut spans,
        pass,
        a.seed,
        "check.geometry",
    );
    if let Some(r) = tally.record(r) {
        repeats(tally, &reference, &r, "the benchmark's rebuilt geometry");
    }

    // Interleaved untraced and traced samples of each seed, alternating
    // which goes first; each traced sample also runs its topology at
    // horizon ~0, so loop time = run - setup. Tracing overhead compares
    // adjacent runs in raw host seconds; the rest is normalised.
    let mut speed = HostSpeed::new(w.calibration_threads());
    let (mut plain_wall, mut paired) = (vec![], vec![]);
    // (setup run s, its call, full run s, full wall s, its call, events)
    let mut timed = vec![];
    let mut stat: Vec<Outcome> = Vec::new();
    let t = Instant::now();
    let mut k = 0u64;
    let stat_seeds = w.stat_seeds();
    while k < stat_seeds || t.elapsed().as_secs_f64() < a.seconds {
        let seed = a.seed + k;
        let plain_first = k.is_multiple_of(2);
        let mut plain = None;
        if plain_first {
            plain = tally.record(run_sample(w, seed, THREADS, false, &mut off, None));
        }
        let (zero, cz) = speed.around(|| run_sample(w, seed, THREADS, true, &mut spans, pass));
        let (full, cf) = speed.around(|| run_sample(w, seed, THREADS, false, &mut spans, pass));
        if !plain_first {
            plain = tally.record(run_sample(w, seed, THREADS, false, &mut off, None));
        }
        if let (Some(z), Some(f)) = (tally.record(zero), tally.record(full)) {
            timed.push((
                z.run.run_s,
                cz,
                f.run.run_s,
                f.wall_s,
                cf,
                f.run.outcome.sent(),
            ));
            if let Some(p) = plain {
                plain_wall.push(p.wall_s);
                paired.push(f.wall_s - p.wall_s);
            }
            if k < stat_seeds {
                stat.push(f.run.outcome);
            }
        }
        k += 1;
    }

    let (mut setup, mut loop_s, mut per_event, mut events) = (vec![], vec![], vec![], vec![]);
    let mut traced_wall = vec![];
    for &(zero_s, cz, full_s, wall_s, cf, sent) in &timed {
        let (fz, ff) = (speed.factor(cz), speed.factor(cf));
        let lp = full_s * ff - zero_s * fz;
        setup.push(zero_s * fz);
        loop_s.push(lp);
        per_event.push(1e6 * lp / sent.max(1) as f64);
        events.push(sent as f64);
        traced_wall.push(wall_s * ff);
    }

    // Pool fan-out: loop time at 1 thread over loop time at THREADS.
    let speedup = spans.time("pool", pass, Some(a.seed), |sp, id| {
        let mut z = [vec![], vec![]];
        let mut f = [vec![], vec![]];
        let t = Instant::now();
        while z[1].len() < 3 || t.elapsed().as_secs_f64() < PAIR_SECS {
            for (slot, threads) in [1, THREADS].into_iter().enumerate() {
                let zero = tally.record(run_sample(w, a.seed, threads, true, sp, id));
                let full = tally.record(run_sample(w, a.seed, threads, false, sp, id));
                if let (Some(zero), Some(full)) = (zero, full) {
                    z[slot].push(zero.run.run_s);
                    f[slot].push(full.run.run_s);
                }
            }
            if z[1].is_empty() {
                break;
            }
        }
        (med(&f[0]) - med(&z[0])) / (med(&f[1]) - med(&z[1]))
    });

    // Observability overhead: plain and observed run calls on one
    // topology, alternating which goes first; median of paired
    // differences.
    let (overhead, flush, last_obs) = spans.time("obs.overhead", pass, Some(a.seed), |sp, id| {
        let sim = w.build(a.seed, THREADS);
        let (mut diffs, mut flush, mut last) = (vec![], vec![], None);
        let t = Instant::now();
        let mut i = 0;
        while i < PAIR_REPS || t.elapsed().as_secs_f64() < PAIR_SECS {
            let mut pair: [Option<Run>; 2] = [None, None];
            for observed in if i.is_multiple_of(2) {
                [false, true]
            } else {
                [true, false]
            } {
                let name = if observed {
                    "run.observed"
                } else {
                    "run.plain"
                };
                let r = run_once(&sim, w.nodes(), observed, sp, id, a.seed, name);
                pair[observed as usize] = tally.record(r);
            }
            i += 1;
            let [Some(plain), Some(obs)] = pair else {
                break;
            };
            if plain.outcome.digest != obs.outcome.digest {
                tally.fail("observation changed the report".into());
            }
            diffs.push(100.0 * (obs.run_s - plain.run_s) / plain.run_s);
            let o = obs.obs.expect("an observed run flushes");
            flush.push(o.flush_s);
            last = Some(o);
        }
        (med(&diffs), med(&flush), last)
    });

    let layer = spans.time("layers", pass, None, |sp, id| {
        let o = reference.as_ref().map(|r| &r.run.outcome);
        let r = o
            .ok_or_else(|| "no reference run to take layer inputs from".to_string())
            .and_then(|o| layers::measure(&geo, &params, o, sp, id, &mut HostSpeed::new(1)));
        tally.record(r)
    });
    spans.end(pass);

    let n = stat.len().max(1) as f64;
    // Per-run means over the statistics seeds (0 where the engine has
    // no such counter).
    let mean = |f: &dyn Fn(&Outcome) -> f64| stat.iter().fold(0.0, |acc, o| acc + f(o)) / n;
    let rec = |f: fn(&mmx_net::RecoveryReport) -> f64| mean(&|o| f(&o.recovery));
    let ho = |f: fn(&mmx_net::multi_ap::HandoffReport) -> u64| {
        mean(&|o| o.handoff.as_ref().map_or(0.0, |h| f(h) as f64))
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ctl_sent = rec(|r| r.control_sent as f64);
    let ctl_lost = rec(|r| r.control_lost as f64);
    let ctl_retries = rec(|r| r.control_retries as f64);
    let attempts = ho(|h| h.attempts);
    let completed = ho(|h| h.completed);
    let admitted = mean(&|o| match o.handoff {
        Some(_) => o.rows.iter().filter(|r| r.admitted).count() as f64,
        None => 0.0,
    });
    let lt = |f: fn(&layers::LayerTimes) -> f64| layer.as_ref().map_or(f64::NAN, f);
    let obs = |f: fn(&ObsOut) -> f64| last_obs.as_ref().map_or(f64::NAN, f);
    let (wp, wt) = (med(&plain_wall), med(&traced_wall));
    let host_factor = med(&speed.factors());
    let values = vec![
        lt(|l| l.schedule_ms),
        lt(|l| l.gain_ns),
        lt(|l| l.reuse_plan_ms),
        lt(|l| l.trace_us),
        lt(|l| l.fading_ns),
        lt(|l| l.ber_ns),
        lt(|l| l.sinr_us),
        med(&setup),
        med(&loop_s),
        med(&per_event),
        med(&events),
        speedup,
        ctl_sent,
        ctl_lost,
        ctl_retries,
        ratio(ctl_sent - ctl_lost - ctl_retries, ctl_sent),
        rec(|r| r.stale_grants_discarded as f64),
        rec(|r| r.reclaimed_leases as f64),
        rec(|r| r.crashes as f64),
        rec(|r| r.outages as f64),
        rec(|r| r.mean_join_s),
        rec(|r| r.mean_recovery_s),
        attempts,
        completed,
        ratio(completed, attempts),
        ho(|h| h.transfers_sent),
        ho(|h| h.transfers_lost),
        ho(|h| h.transfer_retries),
        ho(|h| h.grant_resyncs),
        ho(|h| h.stale_transfer_msgs),
        ho(|h| h.duplicate_deliveries),
        admitted,
        overhead,
        1e3 * flush,
        obs(|o| o.events as f64),
        obs(|o| o.bytes as f64),
        obs(|o| o.dropped as f64),
        100.0 * med(&paired) / wp,
        host_factor,
    ];

    // Reconciliation: setup + loop against the spread of the traced
    // samples' wall time.
    let sum = med(&setup) + med(&loop_s);
    let (lo, hi) = traced_wall
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &x| {
            (l.min(x), h.max(x))
        });
    let within = (lo..=hi).contains(&sum);
    println!(
        "reconcile (reference seconds): net.sim.setup_s + net.sim.loop_s = {sum:.6} s; \
         traced sim_wall p50 {wt:.6} s, \
         range [{lo:.6}, {hi:.6}] s over {} samples: {}",
        traced_wall.len(),
        if within { "within" } else { "OUTSIDE" }
    );
    println!(
        "tracing overhead: median paired difference {:.6} s on untraced sim_wall p50 {wp:.6} s \
         (host seconds)",
        med(&paired)
    );
    println!("span self time (s):");
    let times = spans.self_times();
    for (name, t) in &times {
        println!(
            "  {name:<20} n={:<5} total={:.6} self={:.6}",
            t.count, t.total_s, t.self_s
        );
    }
    let spans_path = format!("{OUT_DIR}/{}-seed{}.spans.jsonl", w.name(), a.seed);
    if let Err(e) = write_out(&spans_path, &spans.to_jsonl()) {
        eprintln!("perfbench: could not write {spans_path}: {e}");
    }
    let self_json: Vec<String> = times
        .iter()
        .map(|(n, t)| {
            format!(
                "{}:{{\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                js(n),
                t.count,
                t.total_s,
                t.self_s
            )
        })
        .collect();
    let raw = vec![
        ("seeds", jlist(&(a.seed..a.seed + k).collect::<Vec<_>>())),
        ("stat_seeds", jlist(&(a.seed..a.seed + stat.len() as u64).collect::<Vec<_>>())),
        ("untraced_wall_s", jlist(&plain_wall)),
        ("traced_wall_s", jlist(&traced_wall)),
        ("setup_s", jlist(&setup)),
        ("loop_s", jlist(&loop_s)),
        ("host_speed_factors", jlist(&speed.factors())),
        (
            "reconcile",
            format!("{{\"setup_plus_loop_s\":{sum},\"wall_min_s\":{lo},\"wall_max_s\":{hi},\"within\":{within}}}"),
        ),
        ("span_self_times", format!("{{{}}}", self_json.join(","))),
    ];
    PassOut { values, raw }
}

/// Where each run leaves its result file and spans, relative to the
/// repository root the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

fn write_out(path: &str, text: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(path, text)
}

/// What a comparison needs to refuse runs that are not like for like.
fn provenance(a: &Args) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    vec![
        ("nproc", nproc.to_string()),
        ("rustc", js(&rustc)),
        (
            "commit",
            js(&git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into())),
        ),
        ("threads", THREADS.to_string()),
        ("run_seconds", a.seconds.to_string()),
        ("seed", a.seed.to_string()),
    ]
}

/// The checked-out commit, read from `.git` in the working directory.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let prov = provenance(&args);
    let prov_text: Vec<String> = prov.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "perfbench {} --trace {}: {}",
        w.name(),
        args.trace as u8,
        prov_text.join(" ")
    );
    let mut tally = Tally::default();
    let out = if args.trace {
        traced(&args, &mut tally)
    } else {
        end_to_end(&args, &mut tally)
    };
    let table: Vec<(&str, &str, String)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    format!("{}; moves {} on {}", m.better, m.moves, m.on),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better.to_string()))
            .collect()
    };
    assert_eq!(table.len(), out.values.len(), "one value per metric");
    let mut json_metrics = Vec::new();
    let mut file_metrics = Vec::new();
    for ((name, unit, note), &v) in table.iter().zip(&out.values) {
        if !v.is_finite() {
            tally.fail(format!("{name} was not measured"));
        }
        let v = if v.is_finite() { v } else { 0.0 };
        println!("{name:<34} {v:>18.6} {unit:<8} ({note})");
        json_metrics.push(format!(
            "{}:{{\"value\":{v},\"unit\":{}}}",
            js(name),
            js(unit)
        ));
        file_metrics.push(format!(
            "{}:{{\"value\":{v},\"unit\":{},\"note\":{}}}",
            js(name),
            js(unit),
            js(note)
        ));
    }
    let correct = tally.failed == 0;
    let problems: Vec<String> = tally.problems.iter().map(|p| js(p)).collect();
    let mut file = format!(
        "{{\"workload\":{},\"trace\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"problems\":[{}],\"metrics\":{{{}}}",
        js(w.name()),
        args.trace,
        tally.attempted,
        tally.failed,
        problems.join(","),
        file_metrics.join(",")
    );
    for (k, v) in prov.iter().chain(&out.raw) {
        let _ = write!(file, ",{}:{v}", js(k));
    }
    file.push_str("}\n");
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        args.trace as u8
    );
    if let Err(e) = write_out(&path, &file) {
        eprintln!("perfbench: could not write {path}: {e}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        json_metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": ",
                m.name, m.unit, m.better
            );
            assert!(BENCHMARK.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(BENCHMARK.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            let entry = format!("{{\"name\": \"{}\", \"why\": ", w.name());
            assert!(BENCHMARK.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = BENCHMARK.matches("\"name\": ").count();
        assert_eq!(
            names,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(js("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(jlist(&[1.5, 2.0]), "[1.5,2]");
    }
}
