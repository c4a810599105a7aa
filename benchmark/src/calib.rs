//! Host-speed calibration.
//!
//! The benchmark runs on a few virtual CPUs of a shared host, whose speed
//! drifts with the neighbours' load: the same fixed loop takes anywhere
//! from one to two times its quickest time, changing from one second to
//! the next. A run's wall-clock medians follow that drift, so two runs of
//! the same code can differ by a third.
//!
//! The client therefore times a fixed reference kernel (the benchmark's
//! own code, untouched by any change to the program) between requests,
//! on the CPU the server runs on (`run.sh` pins both to one), and every
//! request's latency is rescaled by how slow the host was around it. The
//! kernel has two halves, as a request does: computation (a sort and a
//! gather), and round trips of one byte to an echo thread over a socket
//! pair, each a write, a read and two context switches, as a request's
//! trip between client and server is. Small requests are mostly the
//! latter, and slow down with the host more than computation does.
//!
//!
//! ```text
//! normalized_ms = latency_ms * NOMINAL_KERNEL_MS / kernel_ms
//! ```
//!
//! where `kernel_ms` is the median of the kernel timings taken within
//! half a second of the request. A change that makes the program slower
//! or faster moves `latency_ms` and leaves `kernel_ms` alone, so it moves
//! the normalized figure by the same share.

use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The scale normalized figures are quoted in: about the kernel's median
/// time on the 2-vCPU Intel Xeon virtual machine the benchmark was tuned
/// on (release build), so that there they read close to the measured ones.
pub const NOMINAL_KERNEL_MS: f64 = 1.5;

/// How far from a request the kernel timings that rescale it may lie: the
/// host's speed holds for about a second at a time, and a median of the
/// timings around a request reads it more steadily than the nearest one.
const SMOOTHING: Duration = Duration::from_millis(500);

/// Kernel repetitions per calibration; the quickest counts, so an
/// interrupt during one repetition does not read as a slow host.
const REPETITIONS: usize = 3;

/// Round trips to the echo thread per kernel run: about as long as the
/// computing half on the host the benchmark was tuned on.
const ROUND_TRIPS: usize = 48;

/// Words the kernel sorts and scatters: 256 KiB, the size of a column
/// slice the explain pipeline scans, so the kernel leans on the caches
/// as the program does.
const WORDS: usize = 32 * 1024;

/// One timing of the reference kernel.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the timing ended, from the run's origin.
    pub at: Duration,
    /// The kernel's time, ms.
    pub kernel_ms: f64,
}

/// Times the reference kernel at most once per `every`. Dropping it
/// stops its echo thread and waits for it.
#[derive(Debug)]
pub struct Calibrator {
    origin: Instant,
    every: Duration,
    last: Option<Instant>,
    words: Vec<u64>,
    scratch: Vec<u64>,
    peer: UnixStream,
    echo: Option<JoinHandle<()>>,
    /// Every timing, in time order.
    pub samples: Vec<Sample>,
}

impl Calibrator {
    /// A calibrator whose sample times count from `origin`, with its echo
    /// thread started.
    pub fn new(origin: Instant, every: Duration) -> Result<Calibrator, String> {
        let (peer, mut far) = UnixStream::pair().map_err(|e| format!("socket pair: {e}"))?;
        let echo = std::thread::spawn(move || {
            let mut byte = [0u8; 1];
            while let Ok(1) = far.read(&mut byte) {
                if far.write_all(&byte).is_err() {
                    break;
                }
            }
        });
        Ok(Calibrator {
            origin,
            every,
            last: None,
            words: vec![0; WORDS],
            scratch: vec![0; WORDS],
            peer,
            echo: Some(echo),
            samples: Vec::new(),
        })
    }

    /// Times the kernel if the last timing is older than `every`; returns
    /// the time spent.
    pub fn tick(&mut self) -> Duration {
        match self.last {
            Some(last) if last.elapsed() < self.every => Duration::ZERO,
            _ => self.measure(),
        }
    }

    /// Times the kernel now; returns the time spent. Each half counts
    /// its quickest repetition. A failed round trip ends the timing early:
    /// the run then fails on the requests, not on the calibration.
    pub fn measure(&mut self) -> Duration {
        let began = Instant::now();
        let (mut compute, mut trips) = (f64::INFINITY, f64::INFINITY);
        for rep in 0..REPETITIONS {
            let start = Instant::now();
            black_box(kernel(&mut self.words, &mut self.scratch, rep as u64));
            compute = compute.min(ms(start.elapsed()));
            let start = Instant::now();
            if self.round_trips().is_err() {
                break;
            }
            trips = trips.min(ms(start.elapsed()));
        }
        let now = Instant::now();
        self.last = Some(now);
        if trips.is_finite() {
            self.samples.push(Sample { at: now - self.origin, kernel_ms: compute + trips });
        }
        now - began
    }

    fn round_trips(&mut self) -> std::io::Result<()> {
        let mut byte = [7u8; 1];
        for _ in 0..ROUND_TRIPS {
            self.peer.write_all(&byte)?;
            self.peer.read_exact(&mut byte)?;
        }
        Ok(())
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        let _ = self.peer.shutdown(std::net::Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Sorted calibration samples of a whole run, and the rescaling they give.
#[derive(Debug, Default)]
pub struct Speed {
    samples: Vec<Sample>,
}

impl Speed {
    /// The samples of every calibrator of a run.
    pub fn new(mut samples: Vec<Sample>) -> Speed {
        samples.sort_by_key(|s| s.at);
        Speed { samples }
    }

    /// The factor that rescales a span from `from` to `to` (times from
    /// the run's origin) to the nominal host speed: `NOMINAL_KERNEL_MS`
    /// over the median kernel time of the timings within `SMOOTHING` of
    /// the span, or, if there are none, of the last timing before it and
    /// the first after it. `None` without samples.
    pub fn factor(&self, from: Duration, to: Duration) -> Option<f64> {
        let lo = self.samples.partition_point(|s| s.at + SMOOTHING < from);
        let hi = self.samples.partition_point(|s| s.at <= to + SMOOTHING);
        let near: Vec<f64> = if lo < hi {
            self.samples[lo..hi].iter().map(|s| s.kernel_ms).collect()
        } else {
            [lo.checked_sub(1), (hi < self.samples.len()).then_some(hi)]
                .into_iter()
                .flatten()
                .map(|i| self.samples[i].kernel_ms)
                .collect()
        };
        let kernel = crate::stats::median(&near)?;
        Some(NOMINAL_KERNEL_MS / kernel)
    }

    /// The median kernel time over the run, ms.
    pub fn median_kernel_ms(&self) -> Option<f64> {
        let times: Vec<f64> = self.samples.iter().map(|s| s.kernel_ms).collect();
        crate::stats::median(&times)
    }
}

/// The reference kernel: fills `words` from a seeded generator, sorts a
/// copy (compare-and-branch work, as in the decision trees' split search)
/// and sums a data-dependent gather (cache misses, as in a row scan by
/// index). The same `seed` always does the same work.
fn kernel(words: &mut [u64], scratch: &mut [u64], seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for w in words.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *w = x;
    }
    scratch.copy_from_slice(words);
    scratch.sort_unstable();
    let mask = words.len() - 1;
    let mut at = 0usize;
    let mut sum = 0u64;
    for _ in 0..words.len() {
        let v = scratch[at];
        sum = sum.wrapping_add(v);
        at = (v as usize ^ at.wrapping_mul(31)) & mask;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let (mut a, mut b) = (vec![0; WORDS], vec![0; WORDS]);
        let first = kernel(&mut a, &mut b, 1);
        assert_eq!(first, kernel(&mut a, &mut b, 1));
        assert_ne!(first, kernel(&mut a, &mut b, 2));
    }

    #[test]
    fn factor_takes_the_median_of_the_timings_near_the_span() {
        let at = |ms| Duration::from_millis(ms);
        let sample = |ms, kernel_ms| Sample { at: at(ms), kernel_ms };
        let speed = Speed::new(vec![
            sample(2_000, 4.0),
            sample(100, 2.0),
            sample(300, 1.0),
            sample(200, 4.0),
            sample(5_000, 8.0),
        ]);
        // Timings at 100, 200 and 300 ms lie within reach of the span.
        assert_eq!(speed.factor(at(150), at(160)), Some(NOMINAL_KERNEL_MS / 2.0));
        // None within reach: the last before and the first after.
        assert_eq!(speed.factor(at(3_000), at(3_100)), Some(NOMINAL_KERNEL_MS / 6.0));
        // After the last timing: only that one.
        assert_eq!(speed.factor(at(9_000), at(9_100)), Some(NOMINAL_KERNEL_MS / 8.0));
        assert_eq!(Speed::default().factor(at(0), at(1)), None);
    }
}
