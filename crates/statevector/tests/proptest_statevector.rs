//! Property tests: statevector kernel invariants on random circuits.

use proptest::prelude::*;
use ptsbe_math::random::haar_unitary;
use ptsbe_math::Matrix;
use ptsbe_rng::PhiloxRng;
use ptsbe_statevector::{sampling, SamplingStrategy, StateVector};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    /// Unitary evolution preserves the norm, whatever the gate sequence.
    #[test]
    fn norm_preserved(seed in 0u64..500, n in 1usize..7, steps in 1usize..15) {
        let mut rng = PhiloxRng::new(seed, 31);
        let mut sv = StateVector::<f64>::zero_state(n);
        for s in 0..steps {
            if n >= 2 && s % 2 == 0 {
                let u = haar_unitary::<f64>(4, &mut rng);
                let a = s % n;
                let b = (s + 1) % n;
                if a != b {
                    sv.apply_2q(&u, a, b);
                }
            } else {
                let u = haar_unitary::<f64>(2, &mut rng);
                sv.apply_1q(&u, s % n);
            }
        }
        prop_assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
    }

    /// apply_kq agrees with apply_1q/apply_2q on the same inputs.
    #[test]
    fn kq_consistency(seed in 0u64..300, n in 2usize..6, a_raw in 0usize..6, b_raw in 0usize..6) {
        let a = a_raw % n;
        let b = b_raw % n;
        prop_assume!(a != b);
        let mut rng = PhiloxRng::new(seed, 32);
        let u2 = haar_unitary::<f64>(4, &mut rng);
        let mut x = StateVector::<f64>::zero_state(n);
        // Random-ish product state first.
        for q in 0..n {
            let u = haar_unitary::<f64>(2, &mut rng);
            x.apply_1q(&u, q);
        }
        let mut y = x.clone();
        x.apply_2q(&u2, a, b);
        y.apply_kq(&u2, &[a, b]);
        for i in 0..x.amplitudes().len() {
            prop_assert!((x.amplitudes()[i] - y.amplitudes()[i]).abs() < 1e-10);
        }
    }

    /// Bulk sampling matches the probability vector (chi-square-ish bound)
    /// for both samplers (`Auto` is the counted one at this `m`).
    #[test]
    fn sampling_matches_probabilities(seed in 0u64..200, n in 1usize..5) {
        let mut rng = PhiloxRng::new(seed, 33);
        let mut sv = StateVector::<f64>::zero_state(n);
        for q in 0..n {
            let u = haar_unitary::<f64>(2, &mut rng);
            sv.apply_1q(&u, q);
        }
        let m = 40_000;
        let merged = sampling::sample_sorted_merge(&sv, m, &mut rng);
        let auto = sampling::sample_shots(&sv, m, &mut rng, SamplingStrategy::Auto);
        for (sampler, shots) in [("merge", merged), ("auto", auto)] {
            let mut counts = vec![0usize; 1 << n];
            for &s in &shots {
                counts[s as usize] += 1;
            }
            for (i, &c) in counts.iter().enumerate() {
                let expect = sv.probability(i as u64);
                let frac = c as f64 / m as f64;
                prop_assert!((frac - expect).abs() < 0.02, "{sampler} outcome {i}: {frac} vs {expect}");
            }
        }
    }

    /// Collapse is a projection: collapsing twice on the same outcome is
    /// idempotent, and outcome probabilities sum to one.
    #[test]
    fn collapse_projection(seed in 0u64..300, n in 1usize..6, q_raw in 0usize..6) {
        let q = q_raw % n;
        let mut rng = PhiloxRng::new(seed, 34);
        let mut sv = StateVector::<f64>::zero_state(n);
        for t in 0..n {
            let u = haar_unitary::<f64>(2, &mut rng);
            sv.apply_1q(&u, t);
        }
        let p1 = sv.prob_one(q);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p1));
        let mut collapsed = sv.clone();
        let p = collapsed.collapse(q, true);
        prop_assert!((p - p1).abs() < 1e-10);
        if p > 1e-9 {
            prop_assert!((collapsed.norm_sqr() - 1.0).abs() < 1e-9);
            let again = collapsed.clone().collapse(q, true);
            prop_assert!((again - 1.0).abs() < 1e-9, "second collapse prob {again}");
        }
    }

    /// Kraus probabilities sum to 1 for random CPTP channels built from a
    /// Haar isometry (Stinespring: K_i = (I⊗⟨i|) V).
    #[test]
    fn stinespring_channel_probs_normalize(seed in 0u64..200, n in 1usize..5, q_raw in 0usize..5) {
        let q = q_raw % n;
        let mut rng = PhiloxRng::new(seed, 35);
        // 4x4 Haar unitary; take the two 2x2 blocks of its first two
        // columns as Kraus operators (environment dim 2).
        let v = haar_unitary::<f64>(4, &mut rng);
        let mut k0 = Matrix::<f64>::zeros(2, 2);
        let mut k1 = Matrix::<f64>::zeros(2, 2);
        for r in 0..2 {
            for c in 0..2 {
                k0[(r, c)] = v[(r, c)];
                k1[(r, c)] = v[(r + 2, c)];
            }
        }
        let mut sv = StateVector::<f64>::zero_state(n);
        for t in 0..n {
            let u = haar_unitary::<f64>(2, &mut rng);
            sv.apply_1q(&u, t);
        }
        let probs = ptsbe_statevector::kraus::kraus_probabilities(&sv, &[k0, k1], &[q]);
        let total: f64 = probs.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
        prop_assert!(probs.iter().all(|&p| p >= -1e-12));
    }
}
