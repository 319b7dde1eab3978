//! The host-speed reference: a fixed allocation-churn kernel, timed right
//! before and right after every timed pass.
//!
//! The shared host this benchmark runs on alternates between fast and slow
//! spells that last from seconds to minutes. Passes of one seed took
//! 150–180 ms in one spell and 250–300 ms in the next. Thread CPU time
//! (`/proc/thread-self/schedstat`) moved with wall time and no steal was
//! accounted, so the cores themselves run slower: the co-tenants contend for
//! them, not the scheduler. Such spells slow the kernel below along with the
//! pass, so a pass's host time over the kernel's host time around it is
//! steadier than either. Over eight minutes of back-to-back `serve_disagg`
//! passes, the run-to-run spread of the median pass was 11–14 %, and of the
//! median normalised pass 3 %.
//!
//! The kernel belongs to the benchmark, so no change to the simulator
//! changes its cost: a faster pass shows as a smaller normalised time.

use std::hint::black_box;
use std::time::Duration;

/// Host seconds of one [`kernel`] run at the reference speed: its median
/// on the baseline host (0.0144 s), rounded (see `BASELINE.md`). A
/// normalised time is a host time rescaled to the host speed at which the
/// kernel takes this long.
pub const REFERENCE_S: f64 = 0.015;

/// What [`kernel`] returns when it runs correctly.
pub const CHECKSUM: u64 = 0xcf2b_1884_af01_25b6;

/// Allocations the kernel makes.
const STEPS: usize = 120_000;

/// Vectors the kernel keeps alive at once.
const LIVE: usize = 4096;

/// The reference work: allocates short vectors of pseudo-random length,
/// keeps the last [`LIVE`] of them and sums each one it replaces. Returns a
/// checksum of what it summed.
pub fn kernel() -> u64 {
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(LIVE);
    let mut acc = 0u64;
    for _ in 0..black_box(STEPS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let len = 4 + (x & 63);
        let v: Vec<u64> = (0..len).map(|i| i ^ x).collect();
        if live.len() < LIVE {
            live.push(v);
        } else {
            let slot = (x >> 20) as usize % LIVE;
            acc = acc.wrapping_add(live[slot].iter().fold(0, |a, &b| a.wrapping_add(b)));
            live[slot] = v;
        }
    }
    acc
}

/// Runs the kernel once. Returns its host time and whether it returned
/// [`CHECKSUM`].
pub fn time() -> (Duration, bool) {
    let start = crate::now();
    let sum = black_box(kernel());
    (start.elapsed(), sum == CHECKSUM)
}

/// The factor that takes a host time measured between kernel runs of
/// `before` and `after` to the reference speed.
pub fn scale(before: Duration, after: Duration) -> f64 {
    2.0 * REFERENCE_S / (before + after).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_returns_its_checksum() {
        assert_eq!(kernel(), CHECKSUM);
    }

    #[test]
    fn scale_takes_kernel_times_to_the_reference_speed() {
        let at_reference = Duration::from_secs_f64(REFERENCE_S);
        assert!((scale(at_reference, at_reference) - 1.0).abs() < 1e-12);
        // A host running at half speed doubles the kernel's time.
        assert!((scale(at_reference * 2, at_reference * 2) - 0.5).abs() < 1e-12);
    }
}
