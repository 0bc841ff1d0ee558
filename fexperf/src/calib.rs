//! The host-speed calibration kernel.
//!
//! On a shared virtual host the same CPU-bound work can take 30% longer
//! in one run than in another, and longer runs do not average the swing
//! away. The benchmark therefore times a fixed kernel of its own next to
//! every op and reports the op's wall time scaled by
//! `CALIB_REF_MS / kernel time`. The kernel holds no fex code, so a change
//! that speeds fex up still shows its full gain.
//!
//! The kernel runs right before and right after each op, and every
//! `period` on a background thread. An op's kernel time is the median of
//! its two edge runs and the background runs during it or in the
//! [`LOOKBACK`] before it. Edge runs alone track the host badly for long
//! ops: they sample two instants of a five-second op.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::stats::median;

/// The kernel time every calibrated op is scaled to, in ms: about what one
/// kernel run next to an op takes on the 2-vCPU KVM host the benchmark
/// was defined on.
pub const CALIB_REF_MS: f64 = 1.3;

/// The kernel's result. A kernel that no longer produces it has been
/// changed, and calibrated numbers from before and after the change are
/// not comparable, so the benchmark refuses to run.
pub const CHECKSUM: u64 = 0x5cef_6439_d185_a387;

const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const ENTRIES: u64 = 6_000;

/// How far before an op background runs still count for it, so a short op
/// gets several and one noisy run cannot skew it.
const LOOKBACK: Duration = Duration::from_millis(500);

/// Background kernel runs: (when finished, ms).
static SAMPLES: Mutex<Vec<(Instant, f64)>> = Mutex::new(Vec::new());

/// One run of the kernel: seeded xorshift keys into a `HashMap`, the
/// entries sorted, hex-formatted and folded into an FNV-1a checksum.
pub fn kernel() -> u64 {
    let mut x = black_box(SEED);
    let mut map: HashMap<u64, u64> = HashMap::new();
    for i in 0..ENTRIES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % (ENTRIES * 4)).or_insert(0) += i;
    }
    let mut pairs: Vec<(u64, u64)> = map.into_iter().collect();
    pairs.sort_unstable();
    let mut text = String::new();
    for (k, v) in &pairs {
        let _ = write!(text, "{k:x}:{v:x};");
    }
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Times one kernel run in ms, checking its result.
pub fn sample_ms() -> f64 {
    let start = Instant::now();
    let sum = black_box(kernel());
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(sum, CHECKSUM, "the calibration kernel changed; calibrated times would not compare");
    ms
}

/// Scales a raw wall time taken while the kernel took `kernel_ms`.
pub fn scale(raw_ms: f64, kernel_ms: f64) -> f64 {
    raw_ms * CALIB_REF_MS / kernel_ms
}

/// One op's wall time and the kernel time next to it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall time of the op, in ms.
    pub raw_ms: f64,
    /// Kernel time next to the op, in ms.
    pub calib_ms: f64,
}

impl Timed {
    /// The op's wall time scaled to the reference kernel time.
    pub fn ms(&self) -> f64 {
        scale(self.raw_ms, self.calib_ms)
    }
}

/// The background kernel runs. Sampling stops when this is dropped.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Starts a kernel run every `period`.
    pub fn start(period: Duration) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(period);
                let ms = sample_ms();
                SAMPLES.lock().expect("sample log lock").push((Instant::now(), ms));
            }
        });
        Sampler { stop, thread: Some(thread) }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Runs `op` between two kernel runs and calibrates it.
pub fn time<T>(op: impl FnOnce() -> T) -> (T, Timed) {
    let before = sample_ms();
    let start = Instant::now();
    let out = op();
    let end = Instant::now();
    let after = sample_ms();
    let from = start.checked_sub(LOOKBACK).unwrap_or(start);
    let log = SAMPLES.lock().expect("sample log lock");
    let background = log.iter().filter(|(t, _)| *t > from && *t <= end).map(|(_, ms)| *ms);
    let raw_ms = (end - start).as_secs_f64() * 1e3;
    (out, Timed { raw_ms, calib_ms: kernel_ms(before, after, background) })
}

/// An op's kernel time: the median of its edge runs and background runs.
fn kernel_ms(before: f64, after: f64, background: impl Iterator<Item = f64>) -> f64 {
    median(&[before, after].into_iter().chain(background).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed() {
        assert_eq!(kernel(), CHECKSUM);
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn scaling_divides_by_the_kernel_time() {
        // A host at half speed doubles both the op and the kernel.
        assert!((scale(200.0, 2.0 * CALIB_REF_MS) - 100.0).abs() < 1e-9);
        assert!((scale(100.0, CALIB_REF_MS) - 100.0).abs() < 1e-9);
        let t = Timed { raw_ms: 30.0, calib_ms: 2.0 * CALIB_REF_MS };
        assert!((t.ms() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn kernel_time_is_the_median_of_edges_and_background() {
        // Without background runs, the mean of the two edges.
        assert!((kernel_ms(1.0, 2.0, std::iter::empty()) - 1.5).abs() < 1e-9);
        // One slow edge run cannot skew an op with background runs.
        assert!((kernel_ms(9.0, 1.3, [1.2, 1.3, 1.4].into_iter()) - 1.3).abs() < 1e-9);
    }
}
