//! Bulk shot sampling — the quantitative core of Batched Execution.
//!
//! The paper's BE step samples all `m_α` shots for a trajectory from one
//! prepared state, amortizing the exponential preparation cost over the
//! whole batch ("a task of mere polynomial complexity"). Two exact bulk
//! samplers are implemented, both deterministic under a Philox stream and
//! both emitting outcomes in ascending basis-index order:
//!
//! - **sorted merge** ([`sample_sorted_merge`]): draw `m` sorted
//!   uniforms in O(m) ([`ptsbe_rng::sorted`]), then resolve all of them
//!   in a *single* streaming pass over the amplitudes — O(2ⁿ + m),
//!   parallelized over amplitude blocks. One logarithm per shot.
//! - **counted** ([`sample_counts`]): the shots of one state are a
//!   multinomial histogram, drawn directly as one conditional binomial
//!   per amplitude ([`ptsbe_rng::binomial`]) — O(2ⁿ) whatever `m` is, and
//!   the caller gets `(outcome, count)` pairs instead of `m` words.
//!
//! [`sample_shots`] takes the counted sampler from `m ≥ 2·2ⁿ` and the
//! merge below ([`SamplingStrategy::Auto`], the one strategy), a rule in
//! `m` and the state size only. That is the crossover the
//! `bulk_sampling` bench measures on the state that is hardest on the
//! counted sampler (uniform, 16 qubits: no amplitude can be skipped),
//! two cores, mean per call:
//!
//! ```text
//! m                  sorted_merge     counted
//!     1 000             0.360 ms      2.167 ms
//!   100 000             3.456 ms      3.925 ms
//!   131 072 (2·2ⁿ)      5.285 ms      4.046 ms
//!   500 000            14.711 ms      4.950 ms
//! 4 000 000           107.935 ms      5.364 ms
//! ```
//!
//! (`counted` is the histogram; expanding it into `m` words, as
//! [`sample_shots`] does, adds a fill of ≈ 1 ns a shot.) The Walker alias
//! table that `Auto` used to take from `m ≥ 8·2ⁿ` read 10.0 ms at
//! `m` = 500 000 and 72.1 ms at 4·10⁶ in the last run that had it, next
//! to 5.1 and 6.1 ms counted — slower wherever it was chosen, and
//! unsorted, which would have undone the run-length dataset frames — so
//! it is gone.
//!
//! Probabilities are accumulated in `f64` regardless of the amplitude
//! precision: at `n = 2^20+` amplitudes an `f32` running sum would lose
//! the very tail probabilities bulk sampling is supposed to resolve.

use ptsbe_math::{Complex, Scalar};
use ptsbe_rng::{binomial::binomial, sorted::sorted_uniforms, Rng};
use rayon::prelude::*;

use crate::state::StateVector;

/// Bulk sampling strategy: a single value. The sorted merge at every
/// `m` is [`sample_sorted_merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingStrategy {
    /// The counted sampler from `m ≥ 2·2ⁿ`, the sorted merge below.
    #[default]
    Auto,
}

impl SamplingStrategy {
    /// Whether this strategy samples `m` shots of a `n_amps`-amplitude
    /// state as counts ([`sample_counts`]) rather than shot by shot.
    pub fn is_counted(self, m: usize, n_amps: usize) -> bool {
        m >= n_amps.saturating_mul(COUNTED_MIN_SHOTS_PER_AMP)
    }
}

/// Minimum amplitude count before the merge parallelizes.
const PAR_MIN_AMPS: usize = 1 << 14;

/// Amplitudes per block: the unit of the merge's parallel pass and of the
/// counted sampler's two-level split.
const BLOCK: usize = 1 << 13;

/// `Auto` samples counts from `m ≥ this · 2ⁿ` up (the measured crossover
/// in the module doc).
const COUNTED_MIN_SHOTS_PER_AMP: usize = 2;

/// Draw `m` basis-index shots from `|ψ|²`: the sorted merge, or the
/// expansion of [`sample_counts`] where `strategy` takes it.
///
/// Shots come out sorted by basis index; they are exchangeable, so
/// callers needing iid *order* should shuffle.
pub fn sample_shots<T: Scalar, R: Rng + ?Sized>(
    sv: &StateVector<T>,
    m: usize,
    rng: &mut R,
    strategy: SamplingStrategy,
) -> Vec<u64> {
    sample_words(sv, m, rng, strategy, |index| index)
}

/// [`sample_shots`] with every basis index mapped through `word` (a
/// backend's measured-bit extraction) — once per *distinct* outcome where
/// `strategy` samples counts, once per shot otherwise.
pub fn sample_words<T: Scalar, R: Rng + ?Sized, W: Clone>(
    sv: &StateVector<T>,
    m: usize,
    rng: &mut R,
    strategy: SamplingStrategy,
    word: impl Fn(u64) -> W,
) -> Vec<W> {
    if m == 0 {
        return Vec::new();
    }
    if strategy.is_counted(m, sv.amplitudes().len()) {
        let mut out = Vec::with_capacity(m);
        for (index, count) in sample_counts(sv, m, rng) {
            out.resize(out.len() + count as usize, word(index));
        }
        return out;
    }
    sample_sorted_merge(sv, m, rng)
        .into_iter()
        .map(word)
        .collect()
}

#[inline]
fn prob<T: Scalar>(z: &Complex<T>) -> f64 {
    z.norm_sqr().to_f64()
}

/// Draw `m` shots from `|ψ|²` as a histogram: `(basis index, count)` in
/// ascending index order, every count ≥ 1, counts summing to `m`.
///
/// An exact multinomial by conditional binomials — first over the
/// 2¹³-amplitude block masses, then over the amplitudes of each
/// block that received shots — so the work is one binomial per amplitude
/// whatever `m` is. Every variate comes from `rng` in ascending index
/// order; the block masses are per-block serial sums, so the result does
/// not depend on the thread budget.
pub fn sample_counts<T: Scalar, R: Rng + ?Sized>(
    sv: &StateVector<T>,
    m: usize,
    rng: &mut R,
) -> Vec<(u64, u64)> {
    let amps = sv.amplitudes();
    let mass: Vec<f64> = amps
        .par_chunks(BLOCK)
        .map(|c| c.iter().map(prob).sum())
        .collect();
    // rest[b] = mass of blocks b.., summed from the end: the last block
    // with any mass then has conditional probability exactly 1.
    let mut rest = mass.clone();
    for b in (0..rest.len().saturating_sub(1)).rev() {
        rest[b] += rest[b + 1];
    }
    let mut out = Vec::new();
    let mut tail = vec![0.0f64; BLOCK.min(amps.len())];
    let mut left = m as u64;
    for (b, block) in amps.chunks(BLOCK).enumerate() {
        if left == 0 {
            break;
        }
        let k = binomial(left, mass[b] / rest[b], rng);
        left = left - k + chain(block, (b * BLOCK) as u64, k, rng, &mut tail, &mut out);
    }
    // Only a state without a norm (all zero, or NaN) leaves shots over;
    // like the merge's round-off stragglers they go to the last index.
    if left > 0 {
        let last = (amps.len() - 1) as u64;
        match out.last_mut() {
            Some((index, count)) if *index == last => *count += left,
            _ => out.push((last, left)),
        }
    }
    out
}

/// Split `k` shots over one block's amplitudes, appending `(index, count)`
/// to `out`; returns the shots it could not place (0 unless the block has
/// no norm). `tail` is scratch of at least the block's length.
fn chain<T: Scalar, R: Rng + ?Sized>(
    block: &[Complex<T>],
    base: u64,
    k: u64,
    rng: &mut R,
    tail: &mut [f64],
    out: &mut Vec<(u64, u64)>,
) -> u64 {
    if k == 0 {
        return 0;
    }
    // tail[i] = Σ_{j ≥ i} p_j from the end, so the last nonzero amplitude
    // meets p / tail == 1 exactly and takes whatever is left.
    let mut acc = 0.0f64;
    for (t, z) in tail.iter_mut().zip(block).rev() {
        acc += prob(z);
        *t = acc;
    }
    let mut left = k;
    for (i, z) in block.iter().enumerate() {
        let c = binomial(left, prob(z) / tail[i], rng);
        if c > 0 {
            out.push((base + i as u64, c));
            left -= c;
            if left == 0 {
                break;
            }
        }
    }
    left
}

/// Draw `m` basis-index shots from `|ψ|²` by the sorted merge at any
/// `m`: `m` sorted uniforms resolved in one pass over the amplitudes,
/// O(2ⁿ + m), parallel over amplitude blocks from 2¹⁴ amplitudes up.
/// Shots come out in ascending index order.
pub fn sample_sorted_merge<T: Scalar, R: Rng + ?Sized>(
    sv: &StateVector<T>,
    m: usize,
    rng: &mut R,
) -> Vec<u64> {
    let amps = sv.amplitudes();
    let u = sorted_uniforms(m, rng);

    if amps.len() < PAR_MIN_AMPS {
        // Serial single pass.
        let total: f64 = amps.iter().map(|z| z.norm_sqr().to_f64()).sum();
        let inv_total = 1.0 / total;
        let mut out = Vec::with_capacity(m);
        let mut cum = 0.0f64;
        let mut j = 0usize;
        for (i, z) in amps.iter().enumerate() {
            cum += z.norm_sqr().to_f64() * inv_total;
            while j < u.len() && u[j] < cum {
                out.push(i as u64);
                j += 1;
            }
            if j == u.len() {
                break;
            }
        }
        while out.len() < m {
            out.push((amps.len() - 1) as u64);
        }
        return out;
    }

    // Parallel: per-chunk mass, exclusive prefix, then each chunk resolves
    // its own slice of the sorted uniforms independently.
    let chunk = BLOCK;
    let chunk_mass: Vec<f64> = amps
        .par_chunks(chunk)
        .map(|c| c.iter().map(prob).sum())
        .collect();
    let total: f64 = chunk_mass.iter().sum();
    let inv_total = 1.0 / total;
    let mut prefix = Vec::with_capacity(chunk_mass.len() + 1);
    let mut acc = 0.0f64;
    prefix.push(0.0);
    for &cm in &chunk_mass {
        acc += cm * inv_total;
        prefix.push(acc);
    }
    // Uniform range handled by each chunk: [prefix[c], prefix[c+1]).
    let jobs: Vec<(usize, usize, usize)> = (0..chunk_mass.len())
        .map(|c| {
            let lo = u.partition_point(|&x| x < prefix[c]);
            let hi = u.partition_point(|&x| x < prefix[c + 1]);
            (c, lo, hi)
        })
        .collect();
    let pieces: Vec<Vec<u64>> = jobs
        .into_par_iter()
        .map(|(c, lo, hi)| {
            let mut out = Vec::with_capacity(hi - lo);
            if lo == hi {
                return out;
            }
            let base = c * chunk;
            let slice = &amps[base..(base + chunk).min(amps.len())];
            let mut cum = prefix[c];
            let mut j = lo;
            for (i, z) in slice.iter().enumerate() {
                cum += z.norm_sqr().to_f64() * inv_total;
                while j < hi && u[j] < cum {
                    out.push((base + i) as u64);
                    j += 1;
                }
                if j == hi {
                    break;
                }
            }
            // Round-off stragglers land on the chunk's last index.
            while out.len() < hi - lo {
                out.push((base + slice.len() - 1) as u64);
            }
            out
        })
        .collect();
    let mut out = Vec::with_capacity(m);
    for p in pieces {
        out.extend(p);
    }
    // Uniforms beyond the final prefix (round-off): last basis state.
    while out.len() < m {
        out.push((amps.len() - 1) as u64);
    }
    out
}

/// Extract the measured-qubit bits from a basis-index shot: output bit `t`
/// is bit `qubits[t]` of `index`. This is how subset measurement works —
/// sampling the full register then discarding unmeasured bits *is*
/// marginal sampling. (Thin `u64` wrapper over the backend-shared
/// [`ptsbe_rng::bits::extract_bits`].)
pub fn extract_bits(index: u64, qubits: &[usize]) -> u64 {
    ptsbe_rng::bits::extract_bits(u128::from(index), qubits) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_math::gates;
    use ptsbe_rng::PhiloxRng;

    fn bell() -> StateVector<f64> {
        let mut sv = StateVector::zero_state(2);
        sv.apply_1q(&gates::h(), 0);
        sv.apply_cx(0, 1);
        sv
    }

    #[test]
    fn bell_shots_only_00_and_11() {
        let sv = bell();
        let mut rng = PhiloxRng::new(70, 0);
        let shots = sample_sorted_merge(&sv, 10_000, &mut rng);
        assert_eq!(shots.len(), 10_000);
        let ones = shots.iter().filter(|&&s| s == 0b11).count();
        let zeros = shots.iter().filter(|&&s| s == 0b00).count();
        assert_eq!(ones + zeros, 10_000);
        let frac = ones as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn zero_shots() {
        let sv = bell();
        let mut rng = PhiloxRng::new(72, 0);
        assert!(sample_shots(&sv, 0, &mut rng, SamplingStrategy::Auto).is_empty());
    }

    #[test]
    fn deterministic_state_always_same_shot() {
        let sv = StateVector::<f64>::basis_state(4, 0b1010);
        let mut rng = PhiloxRng::new(73, 0);
        let merged = sample_sorted_merge(&sv, 1000, &mut rng);
        let auto = sample_shots(&sv, 1000, &mut rng, SamplingStrategy::Auto);
        for shots in [merged, auto] {
            assert!(shots.iter().all(|&s| s == 0b1010));
        }
        assert_eq!(sample_counts(&sv, 1000, &mut rng), [(0b1010, 1000)]);
    }

    #[test]
    fn parallel_merge_matches_serial_distribution() {
        // 15 qubits triggers the parallel path.
        let n = 15;
        let mut sv = StateVector::<f64>::zero_state(n);
        for q in 0..n {
            sv.apply_1q(&gates::h(), q);
        }
        let mut rng = PhiloxRng::new(74, 0);
        let m = 200_000;
        let shots = sample_sorted_merge(&sv, m, &mut rng);
        assert_eq!(shots.len(), m);
        // Uniform distribution: each qubit marginal ~ 0.5.
        for q in 0..n {
            let ones = shots.iter().filter(|&&s| (s >> q) & 1 == 1).count();
            let frac = ones as f64 / m as f64;
            assert!((frac - 0.5).abs() < 0.01, "qubit {q}: {frac}");
        }
        // All shots in range.
        assert!(shots.iter().all(|&s| s < (1 << n)));
    }

    #[test]
    fn f32_precision_sampling() {
        let mut sv = StateVector::<f32>::zero_state(10);
        for q in 0..10 {
            sv.apply_1q(&gates::h(), q);
        }
        let mut rng = PhiloxRng::new(75, 0);
        let shots = sample_shots(&sv, 50_000, &mut rng, SamplingStrategy::Auto);
        let ones0 = shots.iter().filter(|&&s| s & 1 == 1).count();
        assert!((ones0 as f64 / 50_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn ghz_correlations_preserved() {
        let n = 16;
        let mut sv = StateVector::<f64>::zero_state(n);
        sv.apply_1q(&gates::h(), 0);
        for q in 0..n - 1 {
            sv.apply_cx(q, q + 1);
        }
        let mut rng = PhiloxRng::new(76, 0);
        let shots = sample_shots(&sv, 20_000, &mut rng, SamplingStrategy::Auto);
        for &s in &shots {
            assert!(
                s == 0 || s == (1 << n) - 1,
                "GHZ shot {s:#x} not all-0/all-1"
            );
        }
    }

    /// Pearson χ² of a count histogram against `|ψ|²`, cells pooled in
    /// index order until each expects ≥ 8 shots; returns (χ², cells − 1).
    /// A shot on a zero-probability outcome is an outright failure.
    fn chi2_against_state<T: Scalar>(sv: &StateVector<T>, counts: &[(u64, u64)]) -> (f64, usize) {
        let m: u64 = counts.iter().map(|&(_, c)| c).sum();
        let total: f64 = sv.amplitudes().iter().map(prob).sum();
        let mut observed = vec![0u64; sv.amplitudes().len()];
        for &(i, c) in counts {
            assert!(c > 0, "empty run at {i}");
            assert!(
                prob(&sv.amplitudes()[i as usize]) > 0.0,
                "shot on dead outcome {i}"
            );
            observed[i as usize] += c;
        }
        let mut cells = Vec::new();
        let mut acc = (0.0f64, 0.0f64);
        for (z, &o) in sv.amplitudes().iter().zip(&observed) {
            acc = (acc.0 + prob(z) / total * m as f64, acc.1 + o as f64);
            if acc.0 >= 8.0 {
                cells.push(acc);
                acc = (0.0, 0.0);
            }
        }
        match cells.last_mut() {
            Some(last) => *last = (last.0 + acc.0, last.1 + acc.1),
            None => cells.push(acc),
        }
        let stat = cells.iter().map(|(e, o)| (o - e) * (o - e) / e).sum();
        (stat, cells.len() - 1)
    }

    /// ≈ 5σ of a χ²_dof; the statistics below read ≈ dof.
    fn chi2_limit(dof: usize) -> f64 {
        dof as f64 + 5.0 * (2.0 * dof as f64).sqrt() + 10.0
    }

    fn ghz<T: Scalar>(n: usize) -> StateVector<T> {
        let mut sv = StateVector::zero_state(n);
        sv.apply_1q(&gates::h(), 0);
        for q in 0..n - 1 {
            sv.apply_cx(q, q + 1);
        }
        sv
    }

    fn uniform<T: Scalar>(n: usize) -> StateVector<T> {
        let mut sv = StateVector::zero_state(n);
        for q in 0..n {
            sv.apply_1q(&gates::h(), q);
        }
        sv
    }

    fn counted_matches_the_state<T: Scalar>(stream: u64) {
        let random = |seed| {
            let amps = ptsbe_math::random::random_state::<T>(1 << 10, &mut PhiloxRng::new(seed, 9));
            StateVector::from_amplitudes(amps)
        };
        let states = [ghz::<T>(10), uniform(10), random(1), random(2)];
        for (i, sv) in states.iter().enumerate() {
            // Below, at and far above the Auto crossover (2·2¹⁰).
            for (j, m) in [300usize, 2_048, 50_000, 2_000_000].into_iter().enumerate() {
                let mut rng = PhiloxRng::new(40 + i as u64, stream + j as u64);
                let counts = sample_counts(sv, m, &mut rng);
                assert_eq!(counts.iter().map(|&(_, c)| c).sum::<u64>(), m as u64);
                assert!(
                    counts.windows(2).all(|w| w[0].0 < w[1].0),
                    "ascending, distinct"
                );
                let (stat, dof) = chi2_against_state(sv, &counts);
                assert!(
                    stat < chi2_limit(dof),
                    "state {i}, m {m}: chi2 {stat:.1} on {dof} dof"
                );
            }
        }
    }

    #[test]
    fn counted_matches_the_state_f64() {
        counted_matches_the_state::<f64>(0);
    }

    #[test]
    fn counted_matches_the_state_f32() {
        counted_matches_the_state::<f32>(100);
    }

    #[test]
    fn counted_agrees_with_the_merge_across_blocks() {
        // 15 qubits: four blocks, so both levels of the split are live.
        // Both samplers' histograms must be draws of the state's
        // multinomial.
        let amps = ptsbe_math::random::random_state::<f64>(1 << 15, &mut PhiloxRng::new(3, 9));
        let sv = StateVector::from_amplitudes(amps);
        let m = 600_000;
        let counts = sample_counts(&sv, m, &mut PhiloxRng::new(78, 0));
        assert_eq!(counts.iter().map(|&(_, c)| c).sum::<u64>(), m as u64);
        let (stat, dof) = chi2_against_state(&sv, &counts);
        assert!(dof > 15_000, "pooling kept {dof} cells");
        assert!(stat < chi2_limit(dof), "counted: chi2 {stat:.0} on {dof}");
        let merged = sample_sorted_merge(&sv, m, &mut PhiloxRng::new(79, 0));
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for s in merged {
            match runs.last_mut() {
                Some((i, c)) if *i == s => *c += 1,
                _ => runs.push((s, 1)),
            }
        }
        let (stat, dof) = chi2_against_state(&sv, &runs);
        assert!(stat < chi2_limit(dof), "merge: chi2 {stat:.0} on {dof}");
        // Auto is the expansion of the same draw.
        let auto = sample_shots(&sv, m, &mut PhiloxRng::new(78, 0), SamplingStrategy::Auto);
        let expanded: Vec<u64> = counts
            .iter()
            .flat_map(|&(i, c)| std::iter::repeat_n(i, c as usize))
            .collect();
        assert_eq!(auto, expanded);
    }

    #[test]
    fn auto_switches_at_twice_the_state_size() {
        let auto = SamplingStrategy::Auto;
        assert!(!auto.is_counted(2 * 1024 - 1, 1024));
        assert!(auto.is_counted(2 * 1024, 1024));
        // Below the switch Auto is the merge, draw for draw.
        let sv = uniform::<f64>(10);
        let a = sample_shots(&sv, 2_047, &mut PhiloxRng::new(5, 0), auto);
        let b = sample_sorted_merge(&sv, 2_047, &mut PhiloxRng::new(5, 0));
        assert_eq!(a, b);
    }

    #[test]
    fn a_state_without_a_norm_still_yields_every_shot() {
        let dead = StateVector::<f64>::from_amplitudes(vec![Complex::zero(); 8]);
        assert_eq!(
            sample_counts(&dead, 1_000, &mut PhiloxRng::new(6, 0)),
            [(7, 1_000)]
        );
        assert!(sample_counts(&dead, 0, &mut PhiloxRng::new(6, 0)).is_empty());
    }

    #[test]
    fn extract_bits_order() {
        // index 0b1010, qubits [1, 3] -> bits (1, 1) -> 0b11
        assert_eq!(extract_bits(0b1010, &[1, 3]), 0b11);
        // qubits [0, 2] -> (0, 0)
        assert_eq!(extract_bits(0b1010, &[0, 2]), 0b00);
        // order matters: [3, 1] -> bit0 = q3 = 1, bit1 = q1 = 1
        assert_eq!(extract_bits(0b1000, &[3, 1]), 0b01);
        assert_eq!(extract_bits(0b0010, &[3, 1]), 0b10);
    }

    #[test]
    fn auto_strategy_small_state_many_shots() {
        // 2 qubits, huge m: Auto samples counts and expands them.
        let sv = bell();
        let mut rng = PhiloxRng::new(77, 0);
        let shots = sample_shots(&sv, 100_000, &mut rng, SamplingStrategy::Auto);
        assert!(shots.iter().all(|&s| s == 0 || s == 3));
    }
}
