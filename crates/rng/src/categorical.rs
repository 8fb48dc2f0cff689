//! Small-n categorical sampling by CDF inversion.
//!
//! Noise channels typically have 2-16 Kraus operators, where a linear scan
//! serves a one-off draw: [`index_of`] turns a pre-drawn uniform into a
//! branch index, the per-site draw of the PTS samplers and of the
//! Algorithm-1 baseline (through `ptsbe_circuit::lower::Pick`).
//! A caller that draws from one distribution many times (the frame
//! sampler, ≈ 10 000 branch picks a chunk over a `depolarizing2` site's 15
//! branches) keeps its running sums and searches them with
//! [`index_of_sums`], which picks the same index.

use crate::Rng;

/// Draw from *normalized* probabilities given a pre-drawn uniform in [0,1).
/// Mirrors the paper's Algorithm 1 line `k = index(r, {p_i})`. When the
/// running sum rounds below `r` (it can end at 1 − 2⁻⁵³), the last index
/// of positive weight, never a zero-weight branch.
pub fn index_of(r: f64, probs: &[f64]) -> usize {
    debug_assert!(!probs.is_empty());
    let mut cum = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        cum += p;
        if r < cum {
            return i;
        }
    }
    last_positive(probs)
}

#[cold]
fn last_positive(probs: &[f64]) -> usize {
    probs
        .iter()
        .rposition(|&p| p > 0.0)
        .unwrap_or(probs.len() - 1)
}

/// [`index_of`] by binary search over `sums`, the running sums of the
/// probabilities added in `index_of`'s order (`sums[i] = sums[i-1] +
/// probs[i]`, from 0): the first `i` with `r < sums[i]`, clamped to the
/// last index. That is `index_of`'s answer for every `r` when every
/// weight is positive, and for every `r` below the total otherwise.
pub fn index_of_sums(r: f64, sums: &[f64]) -> usize {
    debug_assert!(!sums.is_empty());
    sums.partition_point(|&c| c <= r).min(sums.len() - 1)
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

    /// Weights whose running sum ends below the largest uniform fall
    /// through the scan to the last *positive* index (the channel-level
    /// reproducer is in `ptsbe_circuit::channels`).
    #[test]
    fn fall_through_skips_trailing_zero_weights() {
        let p = [0.5, 0.5 - f64::EPSILON, 0.0, 0.0];
        assert_eq!(index_of(1.0 - f64::EPSILON / 2.0, &p), 1);
        assert_eq!(index_of(1.5, &[0.25, 0.75, 0.0]), 1);
    }

    /// Running sums as `index_of` forms them.
    fn running_sums(probs: &[f64]) -> Vec<f64> {
        probs
            .iter()
            .scan(0.0, |cum, &p| {
                *cum += p;
                Some(*cum)
            })
            .collect()
    }

    /// The binary search picks `index_of`'s branch at every running sum,
    /// just below each, at 0 and at the largest uniform, for random
    /// weights with zeros among them (where the search clamps to the last
    /// index, which is then positive).
    #[test]
    fn search_over_running_sums_equals_index_of() {
        let mut rng = PhiloxRng::new(24, 0);
        for _ in 0..20_000 {
            let n = 1 + rng.gen_index(16);
            let mut w: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_index(4) == 0 {
                        0.0
                    } else {
                        rng.next_f64()
                    }
                })
                .collect();
            w[n - 1] = 0.5 + rng.next_f64();
            let total: f64 = w.iter().sum();
            let probs: Vec<f64> = w.iter().map(|x| x / total).collect();
            let sums = running_sums(&probs);
            let mut rs = vec![0.0, 1.0 - f64::EPSILON / 2.0];
            for &c in &sums {
                rs.extend([c, c.next_down(), c.next_up()]);
            }
            for r in rs {
                assert_eq!(
                    index_of_sums(r, &sums),
                    index_of(r, &probs),
                    "r = {r}, probs = {probs:?}"
                );
            }
        }
    }

    #[test]
    fn multinomial_totals() {
        let mut rng = PhiloxRng::new(23, 0);
        let counts = multinomial_counts(&[1.0, 1.0, 2.0], 40_000, &mut rng);
        assert_eq!(counts.iter().sum::<usize>(), 40_000);
        assert!((counts[2] as f64 / 40_000.0 - 0.5).abs() < 0.02);
    }
}
