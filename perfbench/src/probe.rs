//! How fast the host runs right now, read from a fixed arithmetic loop.
//!
//! The benchmark shares a few cores of a host with other guests, and the
//! host's speed changes by up to half for seconds to minutes at a time, so
//! host seconds alone cannot resolve a change of a quarter between two sets
//! of runs. Timed right before each piece of an untraced run phase, this
//! loop reads the speed the host gives the program at that moment. The loop
//! allocates nothing and touches only its own 2 KiB of stack, so what the
//! program does between two probes changes how long it takes only through
//! the host. The workloads slow down more than the loop, by the power
//! [`SENSITIVITY`] (see `perfbench/README.md`, *Noise*).

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Iterations of one pass of the loop.
const STEPS: u64 = 30_000;

/// Host seconds of one pass at the reference speed: about a typical pass
/// on the 2-vCPU host the benchmark was sized on. It sets only the scale of
/// the reported figures, never how two runs compare.
pub const REFERENCE_S: f64 = 1.2e-4;

/// How much more the workloads slow down than the loop when the host is
/// busy. Between ten-seed sets run in a slow and in a fast spell, the log of
/// the workloads' host-time ratio was 1.3 (exact), 1.6-1.7 (soak and
/// ctrlplane) and 2.2 (baseband) times the log of the loop's.
pub const SENSITIVITY: f64 = 1.5;

/// How many times longer than at the reference speed the program took,
/// given the mean probe of its repetition.
pub fn slowdown(probe_s: f64) -> f64 {
    (probe_s / REFERENCE_S).powf(SENSITIVITY)
}

thread_local! {
    static TAKEN: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Times three passes of the loop and records the fastest, which an
/// interrupt landing in one pass does not move.
pub fn take() {
    let s = (0..3).map(|_| pass()).fold(f64::INFINITY, f64::min);
    TAKEN.with(|t| t.borrow_mut().push(s));
}

/// The mean of the probes taken since the last call, if any, which it
/// forgets.
pub fn drain_mean() -> Option<f64> {
    let taken = TAKEN.with(|t| std::mem::take(&mut *t.borrow_mut()));
    (!taken.is_empty()).then(|| taken.iter().sum::<f64>() / taken.len() as f64)
}

fn pass() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x1234_5678_9abc_def0_u64);
    let mut acc = 0.0f64;
    let mut v = [0u64; 256];
    for k in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x & 255) as usize;
        v[j] = v[j].wrapping_add(x);
        if x & 3 == 0 {
            acc += ((x >> 11) as f64).sqrt();
        } else {
            acc = acc * 0.999 + k as f64;
        }
    }
    black_box((acc, v));
    t0.elapsed().as_secs_f64()
}
