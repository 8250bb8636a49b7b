//! The benchmark's own statistics: medians, quartiles, the tail
//! percentile, the events-per-second aggregate and the report digest.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so the spread the benchmark reports is the spread a reader
/// recomputes from its raw samples. A single sample is its own
/// quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The tail of a timing distribution: the highest percentile that still
/// has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent (nearest-rank definition).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond it in rank (always 10).
    pub beyond: usize,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// The number of samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest nearest-rank percentile of `xs` with [`TAIL_BEYOND`]
/// samples beyond it; `None` when there are too few samples for one.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let v = sorted(xs);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        beyond: TAIL_BEYOND,
        samples: n,
    })
}

/// Simulated packet events per host second: total packets over total
/// seconds spent inside the run calls — not a mean of per-run rates,
/// which would over-weight the short runs.
pub fn events_per_s(events: &[u64], run_secs: &[f64]) -> f64 {
    assert_eq!(events.len(), run_secs.len(), "one duration per run");
    let secs: f64 = run_secs.iter().sum();
    assert!(secs > 0.0, "no time measured");
    events.iter().sum::<u64>() as f64 / secs
}

/// 64-bit FNV-1a: a stable digest, identical on every platform and
/// every run, of a report's canonical text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the digest.
    pub fn write(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds a value's `Debug` text into the digest. `Debug` prints
    /// every field, and prints each `f64` in its shortest round-trip
    /// form, so two values digest alike exactly when their fields are
    /// equal bit for bit (NaNs aside, which all print as `NaN`).
    pub fn write_debug(self, value: &impl std::fmt::Debug) -> Self {
        self.write(format!("{value:?}").as_bytes())
    }

    /// The digest as a hex string.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1..=11], n=4) == [3.0, 6.0, 9.0]
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (3.0, 6.0, 9.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None, "10 samples leave none to rank");
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&xs).expect("11 samples have a tail");
        assert_eq!((t.value, t.beyond, t.samples), (1.0, 10, 11));
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).expect("100 samples have a tail");
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), t.beyond);
    }

    #[test]
    fn events_per_s_is_total_over_total() {
        // 100 events in 1 s and 300 in 3 s: 400 / 4 = 100/s (a mean of
        // per-run rates would also be 100 here) ...
        assert_eq!(events_per_s(&[100, 300], &[1.0, 3.0]), 100.0);
        // ... but 100 in 1 s and 100 in 0.1 s is 200 / 1.1, not the
        // mean rate 550.
        let r = events_per_s(&[100, 100], &[1.0, 0.1]);
        assert!((r - 200.0 / 1.1).abs() < 1e-9);
    }

    #[test]
    fn digest_tracks_every_field() {
        #[derive(Debug)]
        #[allow(dead_code)] // read through `Debug` only
        struct Node {
            sent: u64,
            sinr: f64,
        }
        let a = [
            Node {
                sent: 3,
                sinr: 12.5,
            },
            Node {
                sent: 4,
                sinr: f64::NAN,
            },
        ];
        let same = [
            Node {
                sent: 3,
                sinr: 12.5,
            },
            Node {
                sent: 4,
                sinr: f64::NAN,
            },
        ];
        let d = |v: &[Node]| Digest::new().write_debug(&v).hex();
        assert_eq!(d(&a), d(&same));
        let b = [
            Node {
                sent: 3,
                sinr: 12.5,
            },
            Node {
                sent: 5,
                sinr: f64::NAN,
            },
        ];
        assert_ne!(d(&a), d(&b));
        let c = [
            Node {
                sent: 3,
                sinr: 12.500000000000002,
            },
            Node {
                sent: 4,
                sinr: f64::NAN,
            },
        ];
        assert_ne!(d(&a), d(&c), "one ulp of SINR must change the digest");
        // Known FNV-1a test vector.
        assert_eq!(Digest::new().write(b"a").hex(), "af63dc4c8601ec8c");
    }
}
