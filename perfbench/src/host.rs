//! Host-speed normalisation.
//!
//! The shared 2-vCPU hosts this benchmark runs on change speed by up to
//! ~50% for seconds at a time (neighbours' load, not this program), so
//! raw host seconds of one workload spread (interquartile range over
//! median) by up to 20-30% between runs minutes apart: more than any
//! bound worth having. So every timed call is bracketed by runs of a
//! fixed calibration kernel, and its host seconds are scaled by
//! `REFERENCE_S / kernel time`: the seconds it would have taken on a
//! host that runs the kernel in [`REFERENCE_S`]. The kernel is the
//! benchmark's own code, so no change to the simulators can speed it
//! up; raw host seconds are reported beside every normalised figure.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time that defines reference speed: 8 ms, about what the
/// kernel takes on an unloaded 2-vCPU 2.1 GHz Xeon host.
pub const REFERENCE_S: f64 = 0.008;

/// Host seconds of the calibration kernel: dependent floating-point
/// transcendental work over a 32 KiB array, the instruction mix of the
/// simulators' gain, trace and BER layers. On `threads == 2` it runs on
/// two threads at once and reads their mean, so a host that slows or
/// withholds one of its CPUs reads as slower; on 1 thread it reads the
/// speed serial code sees. It is the faster of two runs, so an
/// interrupt landing in one does not read as a slow host.
pub fn kernel_s(threads: usize) -> f64 {
    let run = || {
        if threads == 1 {
            return kernel_once();
        }
        std::thread::scope(|s| {
            let other = s.spawn(kernel_once);
            let mine = kernel_once();
            (mine + other.join().expect("calibration thread panicked")) / 2.0
        })
    };
    run().min(run())
}

fn kernel_once() -> f64 {
    let t = Instant::now();
    let mut v: Vec<f64> = (0..4096).map(|i| i as f64 * 1e-3).collect();
    let mut acc = 0.0f64;
    for r in 0..40 {
        for i in 0..v.len() {
            let x = v[(i * 7 + r) % v.len()];
            acc += (x.sin() * x.cos()).exp().ln_1p() + (x * 1.3).sqrt();
            v[i] = acc.fract();
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Calibration runs before a timed call and after it, on each side,
/// that set its host speed: the median of this window follows shifts
/// that last seconds but not the kernel's own jitter.
const WINDOW: usize = 3;

/// Brackets timed calls with calibration runs.
pub struct HostSpeed {
    /// Threads the kernel runs on: those the timed code mostly runs on.
    threads: usize,
    /// Kernel times: entry `i` precedes timed call `i`, entry `i + 1`
    /// follows it.
    kernels: Vec<f64>,
}

impl HostSpeed {
    /// Starts with one calibration run on `threads` (1 or 2) threads.
    pub fn new(threads: usize) -> Self {
        assert!(
            matches!(threads, 1 | 2),
            "the kernel runs on 1 or 2 threads"
        );
        HostSpeed {
            threads,
            kernels: vec![kernel_s(threads)],
        }
    }

    /// Runs `f` and a calibration run after it; returns `f`'s result
    /// and the call's index for [`HostSpeed::factor`].
    pub fn around<R>(&mut self, f: impl FnOnce() -> R) -> (R, usize) {
        let r = f();
        self.kernels.push(kernel_s(self.threads));
        (r, self.kernels.len() - 2)
    }

    /// The factor that turns call `i`'s host seconds into reference
    /// seconds: `REFERENCE_S` over the median kernel time of the
    /// calibration runs within [`WINDOW`] of the call. Calls made later
    /// can still widen the window, so read factors once timing is done.
    pub fn factor(&self, i: usize) -> f64 {
        let lo = (i + 1).saturating_sub(WINDOW);
        let hi = (i + WINDOW + 1).min(self.kernels.len());
        REFERENCE_S / median(&self.kernels[lo..hi])
    }

    /// Every call's factor, in call order.
    pub fn factors(&self) -> Vec<f64> {
        (0..self.kernels.len() - 1)
            .map(|i| self.factor(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_reference_over_windowed_median() {
        let mut h = HostSpeed {
            threads: 1,
            kernels: vec![0.016, 0.016, 0.016, 0.004, 0.016, 0.016, 0.016, 0.016],
        };
        // A host running the kernel in 16 ms is half reference speed,
        // and one fast calibration in the window does not change that.
        assert_eq!(h.factor(3), 0.5);
        assert_eq!(h.factors().len(), 7);
        // Call 0's window is clipped to kernels 0..=3.
        h.kernels = vec![0.008, 0.004, 0.004, 0.004, 0.016];
        assert_eq!(h.factor(0), 2.0);
    }

    #[test]
    fn around_indexes_calls() {
        let mut h = HostSpeed::new(2);
        let (v, i) = h.around(|| 7);
        assert_eq!((v, i), (7, 0));
        let (_, j) = h.around(|| ());
        assert_eq!(j, 1);
        assert!(h.factor(j).is_finite() && h.factor(j) > 0.0);
    }
}
