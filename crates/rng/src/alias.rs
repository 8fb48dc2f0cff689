//! Walker/Vose alias method: O(n) table construction, O(1) per sample.
//!
//! The Batched Execution sampler chooses between this and the sorted-merge
//! kernel in [`crate::sorted`]: alias tables win when *many* shots are drawn
//! from a distribution over *few* outcomes (e.g. Kraus-index sampling or
//! small-n statevectors), while the sorted merge wins when the outcome space
//! is huge relative to the shot count.

use crate::Rng;

/// Pre-processed alias table over `n` outcomes.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Acceptance threshold per bucket, scaled to [0,1].
    prob: Vec<f64>,
    /// Alias outcome per bucket.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build a table from non-negative weights (not necessarily normalized).
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "AliasTable: empty weights");
        assert!(
            weights.iter().all(|&w| w.is_finite() && w >= 0.0),
            "AliasTable: weights must be finite and non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "AliasTable: weights sum to zero");

        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias = vec![0u32; n];

        // Robin-Hood partition into small/large stacks.
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            let leftover = prob[l as usize] + prob[s as usize] - 1.0;
            prob[l as usize] = leftover;
            if leftover < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Round-off leftovers: every remaining bucket accepts its own index.
        for s in small {
            prob[s as usize] = 1.0;
        }
        for l in large {
            prob[l as usize] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table covers no outcomes (never constructible; kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw one outcome index.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_index(self.prob.len());
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }

    /// Accumulate counts for `m` draws: `counts[i] += #draws of i`.
    pub fn sample_counts<R: Rng + ?Sized>(&self, m: usize, rng: &mut R, counts: &mut [usize]) {
        assert_eq!(counts.len(), self.prob.len());
        for _ in 0..m {
            counts[self.sample(rng)] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhiloxRng;

    #[test]
    fn matches_weights() {
        let w = [1.0, 2.0, 3.0, 4.0];
        let table = AliasTable::new(&w);
        let mut rng = PhiloxRng::new(11, 0);
        let mut counts = [0usize; 4];
        let m = 200_000;
        table.sample_counts(m, &mut rng, &mut counts);
        let total: f64 = w.iter().sum();
        for (i, &wi) in w.iter().enumerate() {
            let frac = counts[i] as f64 / m as f64;
            let expect = wi / total;
            assert!(
                (frac - expect).abs() < 0.01,
                "outcome {i}: {frac} vs {expect}"
            );
        }
    }

    #[test]
    fn single_outcome() {
        let table = AliasTable::new(&[42.0]);
        let mut rng = PhiloxRng::new(1, 0);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zero_weight_outcome_never_drawn() {
        let table = AliasTable::new(&[0.0, 1.0, 0.0, 1.0]);
        let mut rng = PhiloxRng::new(2, 0);
        for _ in 0..10_000 {
            let i = table.sample(&mut rng);
            assert!(i == 1 || i == 3, "drew zero-weight outcome {i}");
        }
    }

    #[test]
    #[should_panic(expected = "empty weights")]
    fn empty_weights_panic() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn all_zero_weights_panic() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = AliasTable::new(&[0.5, -0.1]);
    }

    #[test]
    fn highly_skewed_weights() {
        let table = AliasTable::new(&[1e-12, 1.0]);
        let mut rng = PhiloxRng::new(3, 0);
        let hits0 = (0..100_000).filter(|_| table.sample(&mut rng) == 0).count();
        // Expected ~1e-7 draws; allow zero but never many.
        assert!(hits0 < 10);
    }
}
