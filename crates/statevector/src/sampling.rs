//! Bulk shot sampling — the quantitative core of Batched Execution.
//!
//! The paper's BE step samples all `m_α` shots for a trajectory from one
//! prepared state, amortizing the exponential preparation cost over the
//! whole batch ("a task of mere polynomial complexity"). Two exact bulk
//! samplers are implemented, both deterministic under a Philox stream and
//! both emitting outcomes in ascending basis-index order:
//!
//! - **sorted uniforms against a block CDF** ([`sample_sorted_merge`],
//!   [`sample_words_batch`]): draw `m` sorted uniforms in O(m)
//!   ([`ptsbe_rng::sorted`]) and resolve them against the cumulative
//!   distribution of `|ψ|²`, summed *once per prepared state* however
//!   many trajectories sample it: one pass for the 2¹³-amplitude block
//!   masses, one over each block a uniform lands in, then a galloping
//!   binary search per uniform. One logarithm per shot.
//! - **counted** ([`sample_counts`]): the shots of one state are a
//!   multinomial histogram, drawn directly as one conditional binomial
//!   per amplitude ([`ptsbe_rng::binomial`]) — O(2ⁿ) whatever `m` is, and
//!   the caller gets `(outcome, count)` pairs instead of `m` words.
//!
//! [`sample_shots`] takes the counted sampler from `m ≥ 2·2ⁿ` and the
//! block CDF below ([`SamplingStrategy::Auto`], the one strategy), a rule
//! in `m` and the state size only. That is the crossover the
//! `bulk_sampling` bench measures on the state that is hardest on the
//! counted sampler (uniform, 16 qubits: no amplitude can be skipped),
//! two cores of a 2-vCPU VM, mean per call over two runs:
//!
//! ```text
//! m                  sorted_merge     counted
//!     1 000             0.403 ms      4.725 ms
//!   100 000             5.491 ms      5.681 ms
//!   131 072 (2·2ⁿ)      6.488 ms      5.890 ms
//!   500 000            25.288 ms      7.528 ms
//! 4 000 000           164.543 ms      9.327 ms
//! ```
//!
//! Summing once is what a tree leaf buys: `k` trajectories of 16 shots
//! ending on one 14-qubit state (`sv-shared`'s leaves), one thread, as
//! the service runs executors — `k` one-request `SvBackend::sample`
//! calls against one `k`-request `SvBackend::sample_batch` (the bench's
//! `shared_state` group, same runs):
//!
//! ```text
//!  k     per-request      sample_batch
//!  1        0.033 ms         0.033 ms
//!  8        0.259 ms         0.053 ms
//! 64        2.110 ms         0.172 ms
//! ```
//!
//! (`counted` is the histogram. Expanding it into `m` words costs more
//! than the draw when the words are fresh memory: ≈ 10.7 ms against
//! ≈ 7.8 ms for one 500 k-shot `sv-sample` trajectory in an instrumented
//! build, ≈ 1 950 minor page faults of a new 8 MB buffer, while the fill
//! itself is ≈ 1.7 ms into a buffer already faulted in. So
//! [`sample_words_batch_with`] fills whatever buffer its caller hands
//! it, and the service returns each written record's buffer to the
//! `SvBackend` that filled it: a traced one-worker `sv-sample` job went
//! from ≈ 9 700 minor page faults to ≈ 5, and its `stage.sample_s` from
//! 42.7 to 32.5 ms for four trajectories (three seeds each, 2-vCPU
//! VM).) The Walker alias table that `Auto` used to take from
//! `m ≥ 8·2ⁿ` read 10.0 ms at `m` = 500 000 and 72.1 ms at 4·10⁶ in the last run
//! that had it, next to 5.1 and 6.1 ms counted — slower wherever it was
//! chosen, and unsorted, which would have undone the run-length dataset
//! frames — so it is gone.
//!
//! Probabilities are accumulated in `f64` regardless of the amplitude
//! precision: at `n = 2^20+` amplitudes an `f32` running sum would lose
//! the very tail probabilities bulk sampling is supposed to resolve.

use ptsbe_math::{Complex, Scalar};
use ptsbe_rng::{binomial::binomial, sorted::sorted_uniforms, Rng};
use rayon::prelude::*;

use crate::state::StateVector;

/// Bulk sampling strategy: a single value. Sorted-uniform inversion at
/// every `m` is [`sample_sorted_merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingStrategy {
    /// The counted sampler from `m ≥ 2·2ⁿ`, the block CDF below.
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

/// Amplitudes per block: the unit the block CDF restarts at (and
/// resolves in parallel), and of the counted sampler's two-level split.
const BLOCK: usize = 1 << 13;

/// Running sums a block CDF materialises between checks for whether the
/// block's largest uniform is already covered.
const SUM_PIECE: usize = 256;

/// `Auto` samples counts from `m ≥ this · 2ⁿ` up (the measured crossover
/// in the module doc).
const COUNTED_MIN_SHOTS_PER_AMP: usize = 2;

/// Draw `m` basis-index shots from `|ψ|²`: sorted uniforms resolved
/// against the block CDF, or the expansion of [`sample_counts`] where
/// `strategy` takes it.
///
/// Shots come out sorted by basis index; they are exchangeable, so
/// callers needing iid *order* should shuffle.
pub fn sample_shots<T: Scalar, R: Rng + ?Sized>(
    sv: &StateVector<T>,
    m: usize,
    rng: &mut R,
    strategy: SamplingStrategy,
) -> Vec<u64> {
    let SamplingStrategy::Auto = strategy;
    sample_words_batch(sv, &mut [(m, rng)], |index| index)
        .pop()
        .expect("one request in, one out")
}

/// [`sample_shots`] for several requests on one state, each drawing from
/// its own stream, with every basis index mapped through `word` (a
/// backend's measured-bit extraction) — once per *distinct* outcome where
/// a request is counted, once per shot otherwise. Request `i` gets
/// exactly what a one-request call with `(m_i, rng_i)` would. The
/// shot-by-shot requests are resolved together against one block CDF,
/// so the state is summed once for all of them, not once per request;
/// counted requests (`m ≥ 2·2ⁿ`) each draw their own histogram.
pub fn sample_words_batch<T: Scalar, R: Rng + ?Sized, W: Clone>(
    sv: &StateVector<T>,
    requests: &mut [(usize, &mut R)],
    word: impl Fn(u64) -> W,
) -> Vec<Vec<W>> {
    sample_words_batch_with(sv, requests, word, Vec::with_capacity)
}

/// [`sample_words_batch`] with each counted request's output taken from
/// `buffer(m)`, an empty vector with room for `m` words: a caller that
/// keeps its bulk shot buffers faulted in hands them back here instead
/// of paying for fresh memory per trajectory. The shots are the same
/// whatever the buffer.
pub fn sample_words_batch_with<T: Scalar, R: Rng + ?Sized, W: Clone>(
    sv: &StateVector<T>,
    requests: &mut [(usize, &mut R)],
    word: impl Fn(u64) -> W,
    mut buffer: impl FnMut(usize) -> Vec<W>,
) -> Vec<Vec<W>> {
    let n_amps = sv.amplitudes().len();
    let by_cdf = |m: usize| m > 0 && !SamplingStrategy::Auto.is_counted(m, n_amps);
    let mut resolved = {
        let uniforms: Vec<Vec<f64>> = requests
            .iter_mut()
            .filter(|(m, _)| by_cdf(*m))
            .map(|(m, rng)| sorted_uniforms(*m, &mut **rng))
            .collect();
        if uniforms.is_empty() {
            Vec::new()
        } else {
            BlockCdf::new(sv).resolve(&uniforms)
        }
    }
    .into_iter();
    requests
        .iter_mut()
        .map(|(m, rng)| {
            if by_cdf(*m) {
                let shots = resolved.next().expect("one resolution per such request");
                return shots.into_iter().map(&word).collect();
            }
            if *m == 0 {
                return Vec::new();
            }
            let mut out = buffer(*m);
            debug_assert!(out.is_empty() && out.capacity() >= *m);
            for (index, count) in sample_counts(sv, *m, &mut **rng) {
                out.resize(out.len() + count as usize, word(index));
            }
            out
        })
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
    // like the block CDF's round-off stragglers they go to the last index.
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

/// Draw `m` basis-index shots from `|ψ|²` by sorted-uniform inversion at
/// any `m`: `m` sorted uniforms resolved against the state's block CDF
/// (one request of [`sample_words_batch`]'s shot-by-shot regime). Shots
/// come out in ascending index order.
pub fn sample_sorted_merge<T: Scalar, R: Rng + ?Sized>(
    sv: &StateVector<T>,
    m: usize,
    rng: &mut R,
) -> Vec<u64> {
    let u = sorted_uniforms(m, rng);
    BlockCdf::new(sv)
        .resolve(&[u])
        .pop()
        .expect("one request in, one out")
}

/// The cumulative distribution of `|ψ|²` that sorted uniforms are
/// inverted against, summed once per prepared state however many
/// requests it serves.
///
/// It restarts at every 2¹³-amplitude block: block `c` owns the uniforms
/// in `[bounds[c], bounds[c + 1])`, the exclusive prefixes of the
/// normalized block masses, and its running sums start again from
/// `bounds[c]` — so the shots do not depend on which blocks a pass
/// visits, or on the thread budget (a state of at most 2¹³ amplitudes is
/// one block: plain inversion). Only the block masses are kept; a
/// block's running sums are materialised when a uniform lands in it, and
/// only as far as its largest uniform, so the extra memory is one block
/// (64 KiB) per block resolved at a time, never a second 2ⁿ array.
struct BlockCdf<'a, T: Scalar> {
    amps: &'a [Complex<T>],
    inv_total: f64,
    bounds: Vec<f64>,
}

/// One request's uniforms that land in one block, and the output slots
/// they resolve into.
type Run<'r> = (&'r [f64], &'r mut [u64]);

impl<'a, T: Scalar> BlockCdf<'a, T> {
    fn new(sv: &'a StateVector<T>) -> Self {
        let amps = sv.amplitudes();
        let block_mass = |c: &[Complex<T>]| -> f64 { c.iter().map(prob).sum() };
        // One block stays on the calling thread (here and in `resolve`):
        // outside a thread budget, asking rayon for its thread count
        // (≈ 15 µs) costs more than the block.
        let mass: Vec<f64> = if amps.len() > BLOCK {
            amps.par_chunks(BLOCK).map(block_mass).collect()
        } else {
            vec![block_mass(amps)]
        };
        let total: f64 = mass.iter().sum();
        let inv_total = 1.0 / total;
        let mut bounds = Vec::with_capacity(mass.len() + 1);
        let mut acc = 0.0f64;
        bounds.push(acc);
        for &cm in &mass {
            acc += cm * inv_total;
            bounds.push(acc);
        }
        Self {
            amps,
            inv_total,
            bounds,
        }
    }

    /// Resolve each request's sorted uniforms to basis indices, ascending:
    /// a uniform goes to the first index of its block whose running sum
    /// exceeds it, to the block's last index when none does (round-off),
    /// and to the state's last index when it is past the final bound.
    /// A running sum that turns NaN (a state without a norm) matches
    /// nothing. Every touched block is summed once for all requests.
    fn resolve(&self, requests: &[Vec<f64>]) -> Vec<Vec<u64>> {
        let last = (self.amps.len() - 1) as u64;
        let mut out: Vec<Vec<u64>> = requests.iter().map(|u| vec![last; u.len()]).collect();
        let blocks = self.touched_blocks(requests, &mut out);
        if blocks.len() > 1 {
            blocks
                .into_par_iter()
                .for_each(|(c, runs)| self.resolve_block(c, runs));
        } else {
            for (c, runs) in blocks {
                self.resolve_block(c, runs);
            }
        }
        out
    }

    /// The blocks some uniform lands in, ascending, each with the runs of
    /// every request that land there (uniforms past the final bound are
    /// left out: their slots keep the last index).
    fn touched_blocks<'r>(
        &self,
        requests: &'r [Vec<f64>],
        out: &'r mut [Vec<u64>],
    ) -> Vec<(usize, Vec<Run<'r>>)> {
        let end = self.bounds[self.bounds.len() - 1];
        let mut runs: Vec<(usize, Run<'r>)> = Vec::new();
        for (u, o) in requests.iter().zip(out.iter_mut()) {
            // `end` is NaN for a state without a norm (a NaN sum stays
            // NaN), and nothing is placed; otherwise the bounds ascend.
            let placed = u.partition_point(|&x| x < end);
            let (mut u, mut o) = (&u[..placed], &mut o[..placed]);
            while let Some(&first) = u.first() {
                let c = self.bounds[1..].partition_point(|&b| b <= first);
                let n = u.partition_point(|&x| x < self.bounds[c + 1]);
                let (head, tail) = u.split_at(n);
                let (slots, rest) = std::mem::take(&mut o).split_at_mut(n);
                runs.push((c, (head, slots)));
                (u, o) = (tail, rest);
            }
        }
        runs.sort_by_key(|&(c, _)| c);
        let mut blocks: Vec<(usize, Vec<Run<'r>>)> = Vec::new();
        for (c, run) in runs {
            match blocks.last_mut() {
                Some((b, block_runs)) if *b == c => block_runs.push(run),
                _ => blocks.push((c, vec![run])),
            }
        }
        blocks
    }

    /// Resolve every run landing in block `c` against its running sums,
    /// each uniform by a galloping binary search from where the previous
    /// one of its run resolved.
    fn resolve_block(&self, c: usize, runs: Vec<Run<'_>>) {
        let top = runs
            .iter()
            .map(|(u, _)| u[u.len() - 1])
            .fold(f64::NEG_INFINITY, f64::max);
        let sums = self.running_sums(c, top);
        let base = c * BLOCK;
        let straggler = ((base + BLOCK).min(self.amps.len()) - 1) as u64;
        for (u, slots) in runs {
            let mut at = 0;
            for (&x, slot) in u.iter().zip(slots) {
                at = first_above(&sums, at, x);
                *slot = if at < sums.len() {
                    (base + at) as u64
                } else {
                    straggler
                };
            }
        }
    }

    /// Block `c`'s running sums from `bounds[c]`, materialised
    /// [`SUM_PIECE`] at a time until one exceeds `top` (or the block
    /// ends), and cut before the first NaN: a NaN sum stays NaN and
    /// matches nothing.
    fn running_sums(&self, c: usize, top: f64) -> Vec<f64> {
        let block = &self.amps[c * BLOCK..((c + 1) * BLOCK).min(self.amps.len())];
        let mut sums = Vec::with_capacity(block.len());
        let mut cum = self.bounds[c];
        // Checked once a piece: a per-amplitude exit test would stall the
        // running sum's add chain (≈ 4× slower).
        for piece in block.chunks(SUM_PIECE) {
            sums.extend(piece.iter().map(|z| {
                cum += prob(z) * self.inv_total;
                cum
            }));
            if top < cum || cum.is_nan() {
                break;
            }
        }
        sums.truncate(sums.partition_point(|s| !s.is_nan()));
        sums
    }
}

/// The first index at or after `from` whose running sum exceeds `x`
/// (`sums.len()` when none does). Galloping: probes at `from + 2ᵏ − 1`
/// until one exceeds `x`, then a binary search behind it, so a uniform
/// costs O(log) of the distance from the previous one's index — O(1)
/// apiece when a run is dense, like a merge.
fn first_above(sums: &[f64], from: usize, x: f64) -> usize {
    let mut lo = from;
    let mut step = 1;
    loop {
        let probe = lo + step - 1;
        if probe >= sums.len() || sums[probe] > x {
            let hi = probe.min(sums.len());
            return lo + sums[lo..hi].partition_point(|&s| s <= x);
        }
        lo = probe + 1;
        step *= 2;
    }
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
    fn a_one_shot_request_on_16_qubits_sums_one_block() {
        let sv = uniform::<f64>(16);
        let cdf = BlockCdf::new(&sv);
        assert_eq!(cdf.bounds.len(), 9, "eight blocks");
        let one = [sorted_uniforms(1, &mut PhiloxRng::new(8, 0))];
        let mut out = vec![vec![0; 1]];
        assert_eq!(cdf.touched_blocks(&one, &mut out).len(), 1);
        let many = [sorted_uniforms(1_000, &mut PhiloxRng::new(8, 1))];
        let mut out = vec![vec![0; 1_000]];
        assert_eq!(cdf.touched_blocks(&many, &mut out).len(), 8);
    }

    #[test]
    fn block_sums_are_the_merges_bit_for_bit() {
        // The streaming merge's floats: serial block masses, their
        // normalized exclusive prefix, and in-block running sums
        // restarted at it, each `cum += p · (1 / total)` in index order.
        let amps = ptsbe_math::random::random_state::<f32>(1 << 15, &mut PhiloxRng::new(4, 3));
        let sv = StateVector::from_amplitudes(amps);
        let cdf = BlockCdf::new(&sv);
        let mass: Vec<f64> = sv
            .amplitudes()
            .chunks(BLOCK)
            .map(|c| c.iter().map(prob).sum())
            .collect();
        let inv_total = 1.0 / mass.iter().sum::<f64>();
        assert_eq!(cdf.inv_total.to_bits(), inv_total.to_bits());
        let mut prefix = 0.0f64;
        for (c, block) in sv.amplitudes().chunks(BLOCK).enumerate() {
            assert_eq!(cdf.bounds[c].to_bits(), prefix.to_bits(), "bound {c}");
            let mut cum = prefix;
            let want: Vec<u64> = block
                .iter()
                .map(|z| {
                    cum += prob(z) * inv_total;
                    cum.to_bits()
                })
                .collect();
            let got: Vec<u64> = cdf
                .running_sums(c, 2.0)
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(got, want, "block {c}");
            // Stopped early: a whole number of pieces, the last past `top`.
            let top = f64::from_bits(want[1000]);
            let part = cdf.running_sums(c, top);
            assert_eq!(part.len(), 4 * SUM_PIECE);
            assert!(top < part[part.len() - 1]);
            prefix += mass[c] * inv_total;
        }
    }

    #[test]
    fn round_off_stragglers_go_where_the_merge_sent_them() {
        // A uniform at a block's last running sum but below the block's
        // upper bound goes to the block's last index; one at the final
        // bound, to the state's last index. Find a state that has both
        // gaps (they are round-off, so most do).
        let n = 15;
        for seed in 0..200 {
            let amps =
                ptsbe_math::random::random_state::<f64>(1 << n, &mut PhiloxRng::new(seed, 3));
            let sv = StateVector::from_amplitudes(amps);
            let cdf = BlockCdf::new(&sv);
            let block_end = |c: usize| {
                let block = &sv.amplitudes()[c * BLOCK..(c + 1) * BLOCK];
                block
                    .iter()
                    .fold(cdf.bounds[c], |cum, z| cum + prob(z) * cdf.inv_total)
            };
            let end = cdf.bounds[4];
            let Some(c) = (0..4).find(|&c| block_end(c) < cdf.bounds[c + 1]) else {
                continue;
            };
            if end >= 1.0 {
                continue;
            }
            let resolved = cdf.resolve(&[vec![block_end(c), end]]);
            assert_eq!(resolved, [vec![((c + 1) * BLOCK - 1) as u64, (1 << n) - 1]]);
            return;
        }
        panic!("no state with both round-off gaps");
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
