//! Bit-packed Bernoulli mask generation for the Pauli-frame bulk sampler.
//!
//! The stabilizer frame sampler (the Stim-style comparator of the paper's
//! Sec. 2.3) processes 64 shots per machine word. Injecting iid Pauli noise
//! across shots then reduces to generating words whose bits are iid
//! Bernoulli(p). Two strategies are provided, both exact:
//!
//! - **bit-sliced**: the 64 lanes of an output word are 64 uniforms
//!   `u = m·2⁻⁵³` stored transposed — one random word per bit-plane of
//!   `m`, most significant first — and compared with `p` plane by plane.
//!   A lane is decided at the first plane where its bit differs from
//!   `p`'s, so each plane halves the undecided lanes and the walk stops
//!   when none is left or `p`'s remaining bits are all zero: one random
//!   word per 64 bits at p = 0.5, ≈ log₂64 + 2 at a generic `p`, never
//!   more than 53. Used for large `p`;
//! - **sparse**: geometric skips between set bits — O(bits * p), the same
//!   trick Stim uses to make physical error rates of 1e-3 nearly free.
//!
//! Positions versus words: a sparse draw can also be had as the ascending
//! list of its set bits ([`fill_bernoulli_positions`]), straight from the
//! geometric-skip loop, with the same uniforms drawn in the same order as
//! [`fill_bernoulli_words`] — so a caller that only walks the hits (the
//! frame sampler) pays per hit instead of clearing and scanning a word per
//! 64 bits. At p = 1e-3 over 65 536 shots that is about 65 positions
//! against 1 024 words. Bit-sliced draws stay words: at p ≥ 0.05 the set
//! bits are dense, and a list of them costs more than the scan.

use crate::Rng;

/// Probability threshold above which bit-sliced generation is used.
const SPARSE_CUTOFF: f64 = 0.05;

/// Whether [`fill_bernoulli_words`] draws Bernoulli(`p`) bits by geometric
/// skips — the regime [`fill_bernoulli_positions`] serves.
pub fn is_sparse(p: f64) -> bool {
    p < SPARSE_CUTOFF
}

/// Fill `words` with bits that are iid Bernoulli(`p`). `nbits` limits the
/// meaningful bits (the tail of the final word is left zero).
pub fn fill_bernoulli_words<R: Rng + ?Sized>(words: &mut [u64], nbits: usize, p: f64, rng: &mut R) {
    assert!(
        nbits <= words.len() * 64,
        "fill_bernoulli_words: nbits {nbits} exceeds capacity {}",
        words.len() * 64
    );
    words.fill(0);
    if p <= 0.0 || nbits == 0 {
        return;
    }
    if p >= 1.0 {
        set_all(words, nbits);
        return;
    }
    if is_sparse(p) {
        sparse_hits(nbits, p, rng, |pos| words[pos / 64] |= 1u64 << (pos % 64));
    } else {
        bit_sliced_fill(words, nbits, p, rng);
    }
}

fn set_all(words: &mut [u64], nbits: usize) {
    let full = nbits / 64;
    for w in &mut words[..full] {
        *w = u64::MAX;
    }
    let rem = nbits % 64;
    if rem > 0 {
        words[full] = (1u64 << rem) - 1;
    }
}

/// Lane `j` of each output word is `u_j < p` for a uniform `u_j = m_j·2⁻⁵³`
/// whose 53-bit `m_j` is read one bit-plane per random word, top bit first
/// (bit `j` of the k-th word drawn = bit `52 − k` of `m_j`).
fn bit_sliced_fill<R: Rng + ?Sized>(words: &mut [u64], nbits: usize, p: f64, rng: &mut R) {
    // u < p  ⟺  m < ⌈p·2⁵³⌉, and 0 < p < 1 puts the threshold in
    // [1, 2⁵³): all 53 of its bits sit in `planes`, top-aligned.
    let threshold = (p * (1u64 << 53) as f64).ceil() as u64;
    for (i, word) in words[..nbits.div_ceil(64)].iter_mut().enumerate() {
        let mut undecided = u64::MAX >> (64 - (nbits - i * 64).min(64));
        let mut planes = threshold << 11;
        // Out of threshold bits, an undecided lane has m ≥ threshold.
        while undecided != 0 && planes != 0 {
            let r = rng.next_u64();
            if planes >> 63 == 1 {
                *word |= undecided & !r;
                undecided &= r;
            } else {
                undecided &= !r;
            }
            planes <<= 1;
        }
    }
}

/// Fill `positions` with the bits [`fill_bernoulli_words`] would set for
/// the same `nbits`, `p` and stream, in ascending order, drawing exactly
/// what it draws. In the sparse regime ([`is_sparse`]) they come straight
/// from the geometric skips; otherwise this fills words and lists their
/// bits, which a caller that can walk words does better itself.
pub fn fill_bernoulli_positions<R: Rng + ?Sized>(
    positions: &mut Vec<usize>,
    nbits: usize,
    p: f64,
    rng: &mut R,
) {
    positions.clear();
    if is_sparse(p) {
        if p > 0.0 && nbits > 0 {
            sparse_hits(nbits, p, rng, |pos| positions.push(pos));
        }
        return;
    }
    let mut words = vec![0u64; nbits.div_ceil(64)];
    fill_bernoulli_words(&mut words, nbits, p, rng);
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            positions.push(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// The geometric-skip loop both sparse forms share: successive hit
/// positions below `nbits` are separated by Geometric(p) gaps and handed
/// to `hit` in ascending order, so work scales with the expected number
/// of hits. Requires 0 < p < 1; it draws a uniform even for `nbits = 0`,
/// which both callers return before.
fn sparse_hits<R: Rng + ?Sized>(nbits: usize, p: f64, rng: &mut R, mut hit: impl FnMut(usize)) {
    // ln(1 − p) rounds to 0 for p ≲ 1.1e-16; ln_1p keeps it negative.
    let log1mp = (-p).ln_1p();
    debug_assert!(log1mp < 0.0);
    let mut pos = 0usize;
    loop {
        let u = rng.next_f64();
        // Number of failures before the next success, inclusive skip.
        let skip = ((1.0 - u).ln() / log1mp).floor() as usize;
        pos = match pos.checked_add(skip) {
            Some(v) => v,
            None => return,
        };
        if pos >= nbits {
            return;
        }
        hit(pos);
        pos += 1;
    }
}

/// Count set bits among the first `nbits` of `words`.
pub fn popcount_bits(words: &[u64], nbits: usize) -> usize {
    let full = nbits / 64;
    let mut total: usize = words[..full].iter().map(|w| w.count_ones() as usize).sum();
    let rem = nbits % 64;
    if rem > 0 {
        total += (words[full] & ((1u64 << rem) - 1)).count_ones() as usize;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhiloxRng;
    use proptest::prelude::*;

    const TWO_53: f64 = (1u64 << 53) as f64;

    fn measure(p: f64, nbits: usize, seed: u64) -> f64 {
        let mut rng = PhiloxRng::new(seed, 0);
        let mut words = vec![0u64; nbits.div_ceil(64)];
        fill_bernoulli_words(&mut words, nbits, p, &mut rng);
        popcount_bits(&words, nbits) as f64 / nbits as f64
    }

    #[test]
    fn bit_sliced_regime_mean() {
        let frac = measure(0.3, 1 << 20, 31);
        assert!((frac - 0.3).abs() < 0.005, "got {frac}");
    }

    #[test]
    fn sparse_regime_mean() {
        let frac = measure(0.001, 1 << 22, 32);
        assert!((frac - 0.001).abs() < 0.0002, "got {frac}");
    }

    #[test]
    fn cutoff_boundary_mean() {
        // Just below and above the strategy switch should both be correct.
        let lo = measure(0.049, 1 << 20, 33);
        let hi = measure(0.051, 1 << 20, 34);
        assert!((lo - 0.049).abs() < 0.004, "sparse path {lo}");
        assert!((hi - 0.051).abs() < 0.004, "bit-sliced path {hi}");
    }

    #[test]
    fn degenerate_probabilities() {
        let mut rng = PhiloxRng::new(35, 0);
        let mut words = vec![0u64; 2];
        fill_bernoulli_words(&mut words, 100, 0.0, &mut rng);
        assert_eq!(popcount_bits(&words, 100), 0);
        fill_bernoulli_words(&mut words, 100, 1.0, &mut rng);
        assert_eq!(popcount_bits(&words, 100), 100);
        // Bits beyond nbits stay clear even for p = 1.
        assert_eq!(words[1] >> 36, 0);
    }

    /// `ln(1 − p)` is 0 below p ≈ 1.1e-16, which made every skip 0 and
    /// set every bit.
    #[test]
    fn tiny_probabilities_set_no_bits() {
        let nbits = 1 << 20;
        let mut rng = PhiloxRng::new(39, 0);
        let mut words = vec![0u64; nbits / 64];
        for p in [1e-17, 1e-300, f64::MIN_POSITIVE] {
            fill_bernoulli_words(&mut words, nbits, p, &mut rng);
            assert_eq!(popcount_bits(&words, nbits), 0, "p = {p:e}");
        }
        fill_bernoulli_words(&mut words, nbits, 1e-9, &mut rng);
        let set = popcount_bits(&words, nbits);
        assert!(set <= 3, "p = 1e-9 set {set} of 2^20 bits (expected 1e-3)");
    }

    #[test]
    fn zero_bits() {
        let mut rng = PhiloxRng::new(36, 0);
        let mut words: Vec<u64> = Vec::new();
        fill_bernoulli_words(&mut words, 0, 0.5, &mut rng);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn capacity_checked() {
        let mut rng = PhiloxRng::new(37, 0);
        let mut words = vec![0u64; 1];
        fill_bernoulli_words(&mut words, 65, 0.5, &mut rng);
    }

    #[test]
    fn masks_differ_across_draws() {
        let mut rng = PhiloxRng::new(38, 0);
        let mut a = vec![0u64; 4];
        let mut b = vec![0u64; 4];
        fill_bernoulli_words(&mut a, 256, 0.5, &mut rng);
        fill_bernoulli_words(&mut b, 256, 0.5, &mut rng);
        assert_ne!(a, b);
    }

    /// Neighbouring shots must not share randomness: joint successes of
    /// adjacent lanes and of the same lane in adjacent words occur at p².
    #[test]
    fn adjacent_lanes_and_words_are_uncorrelated() {
        let p = 0.3;
        let nwords = 1 << 14;
        let mut rng = PhiloxRng::new(40, 0);
        let mut words = vec![0u64; nwords];
        fill_bernoulli_words(&mut words, nwords * 64, p, &mut rng);
        let lanes: u32 = words.iter().map(|w| (w & (w >> 1)).count_ones()).sum();
        let across: u32 = words.windows(2).map(|w| (w[0] & w[1]).count_ones()).sum();
        let lanes = f64::from(lanes) / (nwords * 63) as f64;
        let across = f64::from(across) / ((nwords - 1) * 64) as f64;
        // sd of either estimate ≈ 3e-4 at 2^20 pairs.
        assert!((lanes - p * p).abs() < 2e-3, "adjacent lanes {lanes}");
        assert!((across - p * p).abs() < 2e-3, "adjacent words {across}");
    }

    /// Hands out Philox words and keeps them, whole words only.
    struct Recording {
        inner: PhiloxRng,
        drawn: Vec<u64>,
    }

    impl Rng for Recording {
        fn next_u32(&mut self) -> u32 {
            unreachable!("the bit-sliced fill draws whole words")
        }
        fn next_u64(&mut self) -> u64 {
            let w = self.inner.next_u64();
            self.drawn.push(w);
            w
        }
    }

    /// `u < p` for the smallest (`fill = false`) or largest uniform whose
    /// top `planes.len()` mantissa bits are lane `lane` of `planes`.
    fn lane_below(planes: &[u64], lane: usize, fill: bool, p: f64) -> bool {
        let mut m = if fill { (1u64 << 53) - 1 } else { 0 };
        for (k, plane) in planes.iter().enumerate() {
            let bit = 1u64 << (52 - k);
            m = (m & !bit) | (((plane >> lane) & 1) << (52 - k));
        }
        (m as f64) / TWO_53 < p
    }

    /// Replays given planes: every lane gets the same mantissa `m`.
    struct AllLanes {
        m: u64,
        plane: usize,
    }

    impl Rng for AllLanes {
        fn next_u32(&mut self) -> u32 {
            unreachable!("the bit-sliced fill draws whole words")
        }
        fn next_u64(&mut self) -> u64 {
            let bit = (self.m >> (52 - self.plane)) & 1;
            self.plane += 1;
            bit.wrapping_neg()
        }
    }

    /// The uniforms on either side of `p` — reached by a random stream
    /// once in 2⁵³ lanes — land on the right side, also when `p` has bits
    /// below 2⁻⁵³ (1/3 and 0.05 do).
    #[test]
    fn uniforms_next_to_p_compare_exactly() {
        for p in [1.0 / 3.0, 0.05, 0.3, 0.75 + 1.0 / TWO_53, 0.5] {
            let scaled = p * TWO_53;
            for m in [
                scaled.floor() as u64 - 1,
                scaled.floor() as u64,
                scaled.ceil() as u64,
            ] {
                let mut word = [0u64];
                bit_sliced_fill(&mut word, 64, p, &mut AllLanes { m, plane: 0 });
                let below = (m as f64) / TWO_53 < p;
                assert_eq!(
                    word[0],
                    if below { u64::MAX } else { 0 },
                    "p = {p}, m = {m}"
                );
            }
        }
    }

    /// Positions are `fill_bernoulli_words`' set bits, drawn from the same
    /// stream: equal lists, and the same next word afterwards.
    #[test]
    fn positions_are_the_words_set_bits_on_the_same_stream() {
        let mut positions = Vec::new();
        for (i, p) in [0.0, 1e-12, 1e-3, 0.049, 0.05, 0.3, 0.5, 1.0]
            .into_iter()
            .enumerate()
        {
            for nbits in [0usize, 1, 63, 64, 65, 4_000] {
                for seed in 0..4u64 {
                    let seed = seed + 100 * i as u64 + 50_000 * nbits as u64;
                    let mut by_words = PhiloxRng::new(seed, 0);
                    let mut words = vec![0u64; nbits.div_ceil(64)];
                    fill_bernoulli_words(&mut words, nbits, p, &mut by_words);
                    let set: Vec<usize> = (0..nbits)
                        .filter(|&b| (words[b / 64] >> (b % 64)) & 1 == 1)
                        .collect();
                    let mut by_positions = PhiloxRng::new(seed, 0);
                    positions.push(usize::MAX); // stale entries must go
                    fill_bernoulli_positions(&mut positions, nbits, p, &mut by_positions);
                    assert_eq!(positions, set, "p = {p}, nbits = {nbits}");
                    assert_eq!(
                        by_positions.next_u64(),
                        by_words.next_u64(),
                        "stream after p = {p}, nbits = {nbits}"
                    );
                }
            }
        }
    }

    const SPECIAL_P: [f64; 7] = [
        0.5,
        0.25,
        0.75,
        1.0 / 3.0,
        0.05,
        1.0 / TWO_53,
        1.0 - 1.0 / TWO_53,
    ];
    const SPECIAL_NBITS: [usize; 5] = [0, 1, 63, 64, 65];

    /// Each plane halves the undecided lanes: log₂64 planes to get 64
    /// lanes down to one, plus ≈ 1.3 for the stragglers.
    #[test]
    fn generic_p_draws_few_random_words_per_output_word() {
        let nwords = 1 << 10;
        for (i, p) in [0.3, 1.0 / 3.0, 0.05, 0.0731, 0.999]
            .into_iter()
            .enumerate()
        {
            let mut rng = Recording {
                inner: PhiloxRng::new(41 + i as u64, 0),
                drawn: Vec::new(),
            };
            let mut words = vec![0u64; nwords];
            bit_sliced_fill(&mut words, nwords * 64, p, &mut rng);
            let mean = rng.drawn.len() as f64 / nwords as f64;
            assert!((6.0..=10.0).contains(&mean), "p = {p}: {mean}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The fill is, lane for lane, `u < p` on the transposed uniforms
        /// it drew: every output bit equals the comparison, the walk stops
        /// exactly when the drawn planes decide every lane, and a slice is
        /// its words filled one after another from the same stream.
        #[test]
        fn bit_sliced_fill_is_the_transposed_comparison(
            mantissa in 1u64..(1u64 << 53),
            p_pick in 0usize..(2 * SPECIAL_P.len()),
            nbits in 0usize..1024,
            nbits_pick in 0usize..(2 * SPECIAL_NBITS.len()),
            seed in 0u64..(1u64 << 40),
        ) {
            let p = SPECIAL_P
                .get(p_pick)
                .copied()
                .unwrap_or(mantissa as f64 / TWO_53);
            let nbits = SPECIAL_NBITS.get(nbits_pick).copied().unwrap_or(nbits);
            let nwords = nbits.div_ceil(64);

            let mut whole_rng = Recording { inner: PhiloxRng::new(seed, 0), drawn: Vec::new() };
            // One spare word: nothing past the last meaningful one is touched.
            let mut whole = vec![0u64; nwords + 1];
            bit_sliced_fill(&mut whole, nbits, p, &mut whole_rng);
            prop_assert_eq!(whole[nwords], 0);

            let mut rng = Recording { inner: PhiloxRng::new(seed, 0), drawn: Vec::new() };
            for (i, &got) in whole[..nwords].iter().enumerate() {
                let lanes = (nbits - i * 64).min(64);
                let mut word = [0u64];
                let before = rng.drawn.len();
                bit_sliced_fill(&mut word, lanes, p, &mut rng);
                prop_assert_eq!(word[0], got, "word {} of the slice", i);
                let planes = &rng.drawn[before..];
                prop_assert!((1..=53).contains(&planes.len()), "{} planes", planes.len());
                if p == 0.5 {
                    prop_assert_eq!(planes.len(), 1);
                }
                if lanes < 64 {
                    prop_assert_eq!(got >> lanes, 0, "tail bits of word {}", i);
                }
                let mut open_before_last = false;
                for lane in 0..lanes {
                    let below = lane_below(planes, lane, false, p);
                    prop_assert_eq!(
                        below,
                        lane_below(planes, lane, true, p),
                        "lane {} undecided after {} planes", lane, planes.len()
                    );
                    prop_assert_eq!((got >> lane) & 1 == 1, below, "lane {}", lane);
                    let fewer = &planes[..planes.len() - 1];
                    open_before_last |=
                        lane_below(fewer, lane, false, p) != lane_below(fewer, lane, true, p);
                }
                prop_assert!(open_before_last, "word {} drew a plane it did not need", i);
            }
            prop_assert_eq!(&whole_rng.drawn, &rng.drawn);
        }
    }
}
