//! Property tests for the RNG substrate.

use proptest::prelude::*;
use ptsbe_rng::categorical::{index_of, multinomial_counts};
use ptsbe_rng::sorted::sorted_uniforms;
use ptsbe_rng::{PhiloxRng, Rng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    #[test]
    fn sorted_uniforms_are_sorted_and_bounded(seed in 0u64..10_000, m in 0usize..5_000) {
        let mut rng = PhiloxRng::new(seed, 1);
        let v = sorted_uniforms(m, &mut rng);
        prop_assert_eq!(v.len(), m);
        for w in v.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        if m > 0 {
            prop_assert!(v[0] >= 0.0);
            prop_assert!(*v.last().unwrap() < 1.0);
        }
    }

    #[test]
    fn philox_streams_never_collide_on_prefix(seed in 0u64..1000, s1 in 0u64..64, s2 in 0u64..64) {
        prop_assume!(s1 != s2);
        let mut a = PhiloxRng::new(seed, s1);
        let mut b = PhiloxRng::new(seed, s2);
        let va: Vec<u32> = (0..16).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..16).map(|_| b.next_u32()).collect();
        prop_assert_ne!(va, vb);
    }

    #[test]
    fn philox_seek_is_consistent(seed in 0u64..1000, skip in 0usize..64) {
        // Reading N words then continuing == seeking to the same block.
        let mut a = PhiloxRng::new(seed, 9);
        for _ in 0..skip * 4 {
            let _ = a.next_u32();
        }
        let tail_a: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let mut b = PhiloxRng::new(seed, 9);
        b.seek(skip as u64);
        let tail_b: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
        prop_assert_eq!(tail_a, tail_b);
    }

    #[test]
    fn index_of_respects_cdf(r in 0.0f64..1.0, probs in prop::collection::vec(0.01f64..1.0, 1..10)) {
        let total: f64 = probs.iter().sum();
        let norm: Vec<f64> = probs.iter().map(|p| p / total).collect();
        let idx = index_of(r, &norm);
        prop_assert!(idx < norm.len());
        let before: f64 = norm[..idx].iter().sum();
        let after = before + norm[idx];
        prop_assert!(r >= before - 1e-12);
        prop_assert!(r < after + 1e-12);
    }

    #[test]
    fn multinomial_conserves_total(seed in 0u64..1000, total in 0usize..10_000, probs in prop::collection::vec(0.01f64..1.0, 1..8)) {
        let mut rng = PhiloxRng::new(seed, 3);
        let counts = multinomial_counts(&probs, total, &mut rng);
        prop_assert_eq!(counts.iter().sum::<usize>(), total);
        prop_assert_eq!(counts.len(), probs.len());
    }
}
