//! Counter-based random number generation substrate for PTSBE.
//!
//! The paper's trajectory simulator draws its randomness from cuRAND; this
//! crate provides the equivalent CPU-side machinery built around the
//! [Philox4x32-10](https://doi.org/10.1145/2063384.2063405) counter-based
//! generator (the same algorithm family cuRAND ships). Counter-based
//! generation is what makes the paper's two-level parallelism safe: every
//! trajectory gets an *independent, reproducible* stream derived from
//! `(seed, stream id)` with no shared mutable state, so inter-trajectory
//! fan-out ("embarrassingly parallel" in the paper's words) never contends
//! on an RNG.
//!
//! On top of the raw generator the crate provides the sampling primitives
//! the Batched Execution engine needs:
//!
//! - [`sorted::sorted_uniforms`] — O(m) generation of *sorted* uniforms, the
//!   key trick that makes bulk CDF-inversion shot sampling a single linear
//!   merge over the probability vector;
//! - [`binomial::binomial`] — exact binomial variates (inversion / BTRS),
//!   the primitive under the counted multinomial shot sampler;
//! - [`categorical`] — small-n CDF inversion used when a channel has only a
//!   handful of Kraus operators;
//! - [`mask`] — bit-packed Bernoulli word sampling (bit-sliced and sparse
//!   geometric-skip variants) for the Stim-style Pauli-frame bulk sampler.

pub mod binomial;
pub mod bits;
pub mod categorical;
pub mod mask;
pub mod philox;
pub mod sorted;

pub use philox::{Philox4x32, PhiloxRng};

/// Minimal RNG interface used throughout the workspace.
///
/// Deliberately small: the simulators need uniform words, uniform floats,
/// bounded indices and Bernoulli trials — nothing else. All library crates
/// consume this trait so the deterministic Philox streams can be threaded
/// through every stochastic code path.
pub trait Rng: Send {
    /// Next uniform 32-bit word.
    fn next_u32(&mut self) -> u32;

    /// Next uniform 64-bit word (two 32-bit draws by default).
    fn next_u64(&mut self) -> u64 {
        let hi = u64::from(self.next_u32());
        let lo = u64::from(self.next_u32());
        (hi << 32) | lo
    }

    /// Uniform double in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; multiply by 2^-53.
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[0, 1)` with 24 bits of precision.
    fn next_f32(&mut self) -> f32 {
        ((self.next_u32() >> 8) as f32) * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform index in `[0, n)` using Lemire's multiply-shift with rejection.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    fn gen_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_index: empty range");
        let n = n as u64;
        // Lemire's nearly-divisionless method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = PhiloxRng::new(1234, 0);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut rng = PhiloxRng::new(99, 7);
        for _ in 0..10_000 {
            let x = rng.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_index_is_in_range_and_covers() {
        let mut rng = PhiloxRng::new(5, 0);
        let n = 7;
        let mut seen = vec![false; n];
        for _ in 0..1_000 {
            let i = rng.gen_index(n);
            assert!(i < n);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all indices should be reachable");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_index_zero_panics() {
        let mut rng = PhiloxRng::new(5, 0);
        let _ = rng.gen_index(0);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = PhiloxRng::new(5, 0);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        assert!(!rng.bernoulli(-1.0));
        assert!(rng.bernoulli(2.0));
    }

    #[test]
    fn bernoulli_mean_close() {
        let mut rng = PhiloxRng::new(17, 3);
        let p = 0.3;
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(p)).count();
        let mean = hits as f64 / n as f64;
        assert!((mean - p).abs() < 0.01, "mean {mean} too far from {p}");
    }

    #[test]
    fn next_u64_mixes_two_words() {
        // A PhiloxRng and the same stream read as u32 pairs must agree.
        let mut a = PhiloxRng::new(42, 0);
        let mut b = PhiloxRng::new(42, 0);
        let x = a.next_u64();
        let hi = u64::from(b.next_u32());
        let lo = u64::from(b.next_u32());
        assert_eq!(x, (hi << 32) | lo);
    }
}
