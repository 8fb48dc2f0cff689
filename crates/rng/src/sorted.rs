//! O(m) generation of sorted uniform variates.
//!
//! Bulk shot sampling ("collect all `m_alpha` shots at once", the BE half of
//! PTSBE) inverts the cumulative distribution of `|psi|^2`. Drawing the `m`
//! uniforms already sorted, with no O(m log m) sort, makes the shots come
//! out in ascending outcome order: a linear merge over a probability
//! vector resolves them in one pass ([`merge_sorted_into_cdf`]), and the
//! statevector sampler's binary searches against its block CDF each start
//! where the previous uniform resolved.
//!
//! The classic order-statistics identity is used: if `E_1..E_{m+1}` are iid
//! Exp(1), then the normalized prefix sums `S_i / S_{m+1}` (i = 1..m) are
//! distributed exactly as the order statistics of `m` iid U(0,1) draws.

use crate::Rng;

/// Generate `m` sorted uniform variates in `[0, 1)` in O(m).
///
/// The output is strictly non-decreasing. An empty vector is returned for
/// `m == 0`.
pub fn sorted_uniforms<R: Rng + ?Sized>(m: usize, rng: &mut R) -> Vec<f64> {
    if m == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(m);
    let mut acc = 0.0f64;
    for _ in 0..m {
        acc += exp1(rng);
        out.push(acc);
    }
    let total = acc + exp1(rng);
    let inv = 1.0 / total;
    for v in &mut out {
        *v *= inv;
        // Guard against round-off pushing the largest value to exactly 1.0,
        // which would fall off the end of a CDF.
        if *v >= 1.0 {
            *v = f64::from_bits(1.0f64.to_bits() - 1);
        }
    }
    out
}

/// One Exp(1) variate via inversion, avoiding ln(0).
#[inline]
fn exp1<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u = rng.next_f64();
    // next_f64 is in [0,1); reflect so the argument is in (0,1].
    -(1.0 - u).ln()
}

/// Merge `m` sorted uniforms against a probability slice, invoking
/// `emit(index, count)` for every outcome index that receives at least one
/// draw: the linear bulk CDF inversion behind
/// [`crate::categorical::multinomial_counts`].
///
/// `probs` need not be exactly normalized; any residual mass due to
/// floating-point round-off is assigned to the final outcome.
pub fn merge_sorted_into_cdf<F: FnMut(usize, usize)>(probs: &[f64], sorted_u: &[f64], mut emit: F) {
    if probs.is_empty() || sorted_u.is_empty() {
        return;
    }
    let mut cum = 0.0f64;
    let mut j = 0usize;
    for (i, &p) in probs.iter().enumerate() {
        cum += p;
        let start = j;
        while j < sorted_u.len() && sorted_u[j] < cum {
            j += 1;
        }
        if j > start {
            emit(i, j - start);
        }
        if j == sorted_u.len() {
            return;
        }
    }
    // Residual mass from round-off: attribute to the last outcome.
    if j < sorted_u.len() {
        emit(probs.len() - 1, sorted_u.len() - j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhiloxRng;

    #[test]
    fn empty_request() {
        let mut rng = PhiloxRng::new(1, 0);
        assert!(sorted_uniforms(0, &mut rng).is_empty());
    }

    #[test]
    fn output_is_sorted_and_in_range() {
        let mut rng = PhiloxRng::new(2, 0);
        let v = sorted_uniforms(10_000, &mut rng);
        assert_eq!(v.len(), 10_000);
        for w in v.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(v[0] >= 0.0 && *v.last().unwrap() < 1.0);
    }

    #[test]
    fn distribution_is_uniform() {
        // Kolmogorov-Smirnov style check: the i-th order statistic of m
        // uniforms has mean i/(m+1).
        let mut rng = PhiloxRng::new(3, 0);
        let m = 100_000;
        let v = sorted_uniforms(m, &mut rng);
        let mut max_dev = 0.0f64;
        for (i, &x) in v.iter().enumerate() {
            let expected = (i + 1) as f64 / (m + 1) as f64;
            max_dev = max_dev.max((x - expected).abs());
        }
        // KS 99.9% critical value ~ 1.95/sqrt(m) ~ 0.0062 for m = 1e5.
        assert!(max_dev < 0.0062, "KS deviation {max_dev}");
    }

    #[test]
    fn merge_counts_match_total() {
        let mut rng = PhiloxRng::new(4, 0);
        let probs = [0.1, 0.2, 0.3, 0.4];
        let u = sorted_uniforms(50_000, &mut rng);
        let mut counts = [0usize; 4];
        merge_sorted_into_cdf(&probs, &u, |i, c| counts[i] += c);
        assert_eq!(counts.iter().sum::<usize>(), 50_000);
        for (i, &p) in probs.iter().enumerate() {
            let frac = counts[i] as f64 / 50_000.0;
            assert!((frac - p).abs() < 0.01, "outcome {i}: {frac} vs {p}");
        }
    }

    #[test]
    fn merge_handles_unnormalized_residual() {
        // Probabilities summing to slightly under the largest uniform:
        // residual draws land on the last outcome instead of vanishing.
        let probs = [0.25, 0.25];
        let u = [0.1, 0.6, 0.9, 0.99];
        let mut counts = [0usize; 2];
        merge_sorted_into_cdf(&probs, &u, |i, c| counts[i] += c);
        assert_eq!(counts.iter().sum::<usize>(), 4);
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 3);
    }

    #[test]
    fn merge_empty_inputs() {
        let mut hits = 0;
        merge_sorted_into_cdf(&[], &[0.5], |_, _| hits += 1);
        merge_sorted_into_cdf(&[1.0], &[], |_, _| hits += 1);
        assert_eq!(hits, 0);
    }
}
