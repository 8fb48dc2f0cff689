//! Small-n categorical sampling by CDF inversion.
//!
//! Noise channels typically have 2-16 Kraus operators, where a linear scan
//! beats binary search. This module is the per-site
//! sampler used by the PTS algorithms and the Algorithm-1 baseline engine.

use crate::Rng;

/// Draw an index from unnormalized non-negative `weights` by linear CDF
/// inversion. Returns the last index with positive weight if round-off
/// exhausts the scan.
///
/// # Panics
/// Panics if `weights` is empty or sums to zero (checked with a debug
/// assertion in release-critical paths).
pub fn sample_weighted<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    assert!(!weights.is_empty(), "sample_weighted: empty weights");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "sample_weighted: weights sum to zero");
    let target = rng.next_f64() * total;
    let mut cum = 0.0;
    let mut last_positive = 0;
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            last_positive = i;
        }
        cum += w;
        if target < cum {
            return i;
        }
    }
    last_positive
}

/// Draw from *normalized* probabilities given a pre-drawn uniform in [0,1).
/// Mirrors the paper's Algorithm 1 line `k = index(r, {p_i})`.
pub fn index_of(r: f64, probs: &[f64]) -> usize {
    debug_assert!(!probs.is_empty());
    let mut cum = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        cum += p;
        if r < cum {
            return i;
        }
    }
    probs.len() - 1
}

/// Multinomial allocation: split `total` draws over `probs` (normalized in
/// place if needed) using repeated binomial-free CDF inversion with sorted
/// uniforms. O(total + n).
pub fn multinomial_counts<R: Rng + ?Sized>(probs: &[f64], total: usize, rng: &mut R) -> Vec<usize> {
    let sum: f64 = probs.iter().sum();
    assert!(sum > 0.0, "multinomial_counts: zero mass");
    let norm: Vec<f64> = probs.iter().map(|&p| p / sum).collect();
    let u = crate::sorted::sorted_uniforms(total, rng);
    let mut counts = vec![0usize; probs.len()];
    crate::sorted::merge_sorted_into_cdf(&norm, &u, |i, c| counts[i] += c);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhiloxRng;

    #[test]
    fn weighted_sampling_matches() {
        let w = [0.5, 0.25, 0.25];
        let mut rng = PhiloxRng::new(21, 0);
        let mut counts = [0usize; 3];
        let m = 100_000;
        for _ in 0..m {
            counts[sample_weighted(&w, &mut rng)] += 1;
        }
        for (i, &wi) in w.iter().enumerate() {
            let frac = counts[i] as f64 / m as f64;
            assert!((frac - wi).abs() < 0.01, "outcome {i}");
        }
    }

    #[test]
    fn index_of_boundaries() {
        let p = [0.25, 0.25, 0.5];
        assert_eq!(index_of(0.0, &p), 0);
        assert_eq!(index_of(0.2499, &p), 0);
        assert_eq!(index_of(0.25, &p), 1);
        assert_eq!(index_of(0.4999, &p), 1);
        assert_eq!(index_of(0.5, &p), 2);
        assert_eq!(index_of(0.9999, &p), 2);
        // Degenerate "uniform == 1" style round-off clamps to the last bin.
        assert_eq!(index_of(1.5, &p), 2);
    }

    #[test]
    fn zero_weight_entries_skipped() {
        let w = [0.0, 1.0, 0.0];
        let mut rng = PhiloxRng::new(22, 0);
        for _ in 0..1000 {
            assert_eq!(sample_weighted(&w, &mut rng), 1);
        }
    }

    #[test]
    fn multinomial_totals() {
        let mut rng = PhiloxRng::new(23, 0);
        let counts = multinomial_counts(&[1.0, 1.0, 2.0], 40_000, &mut rng);
        assert_eq!(counts.iter().sum::<usize>(), 40_000);
        assert!((counts[2] as f64 / 40_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "empty weights")]
    fn empty_weights_panics() {
        let mut rng = PhiloxRng::new(1, 0);
        let _ = sample_weighted(&[], &mut rng);
    }
}
