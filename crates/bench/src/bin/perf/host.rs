//! The host-speed index.
//!
//! The sandbox this benchmark must be steady on is a 2-vCPU microVM on a
//! shared host, and it does not run one piece of code at one speed: for
//! tens of seconds to minutes at a time arithmetic, allocation and thread
//! wake-ups each get 1.2-2x slower (and, in stolen-time episodes, 10x),
//! so raw job medians of ten runs of one commit spread by 10-26 %
//! (IQR / median; README, "Host noise"). No rep count fixes a speed that
//! changes more slowly than a run lasts. So every wall-clock sample is
//! taken between two readings of a small fixed probe owned by the
//! benchmark, and reported at the probe's nominal speed; the raw medians
//! ride along in the detailed record.
//!
//! The probe is one index for every workload, not a model of any of them:
//! the geometric mean of three ~5 ms kernels that load what a slow host is
//! slow at — floating-point sweeps over a cache-resident state, small
//! allocations, and thread creation with its cross-CPU wake-ups. Nothing
//! in the repository can move it, so a real gain or loss shows in full.

use std::time::Instant;

/// The index on the reference box (Xeon @ 2.1 GHz, 2 vCPUs) when the host
/// is calm: the geometric mean of 5.0, 4.2 and 7.0 ms.
pub const NOMINAL_INDEX_S: f64 = 5.28e-3;

fn timed(work: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    work();
    t0.elapsed().as_secs_f64()
}

/// One reading of the index, in seconds (~17 ms of work).
pub fn index() -> f64 {
    // 800 complex rotations of a 256 KiB state.
    let sweep = timed(|| {
        let n = 1 << 14;
        let (mut re, mut im) = (vec![1.0f64; n], vec![0.5f64; n]);
        let (c, s) = (0.999_999_f64, 0.001_414_f64);
        for _ in 0..800 {
            for (a, b) in re.iter_mut().zip(im.iter_mut()) {
                let (x, y) = (*a, *b);
                *a = x * c - y * s;
                *b = x * s + y * c;
            }
        }
        std::hint::black_box((&re, &im));
    });
    // 60 000 small strings built and dropped.
    let strings = timed(|| {
        let v: Vec<String> = (0..60_000u64)
            .map(|i| format!("{:x}", i.wrapping_mul(2_654_435_761)))
            .collect();
        std::hint::black_box(&v);
    });
    // 100 scoped two-thread fan-outs.
    let spawn = timed(|| {
        for _ in 0..100 {
            std::thread::scope(|s| {
                s.spawn(|| std::hint::black_box(1));
                s.spawn(|| std::hint::black_box(2));
            });
        }
    });
    (sweep * strings * spawn).cbrt()
}

/// Run `work` between two readings of the index; returns its result and
/// the host's speed during it (1 = nominal, 0.7 = a third slower).
/// Clamped to 0.5..2: a host more than 2x off nominal (stolen-time
/// episodes read 0.1) is beyond correcting, and such a rep stays an
/// outlier instead of being scaled by a number that means nothing.
pub fn at_speed<R>(work: impl FnOnce() -> R) -> (R, f64) {
    let before = index();
    let out = work();
    let after = index();
    let speed = NOMINAL_INDEX_S / (0.5 * (before + after));
    (out, speed.clamp(0.5, 2.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_index_is_milliseconds_and_the_speed_is_clamped() {
        let i = index();
        assert!(i > 1e-4 && i < 1.0, "index {i}");
        let (out, speed) = at_speed(|| 7);
        assert_eq!(out, 7);
        assert!((0.5..=2.0).contains(&speed), "speed {speed}");
    }
}
