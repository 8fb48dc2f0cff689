//! MPS shot sampling: cached-sweep (conditional) and lockstep batched.
//!
//! `cached` ([`sample_shots_cached`]) pays one O(n·χ³) canonicalization
//! then O(n·χ²) per shot — the "conditional and correlated tensor
//! network sampling \[reusing\] cached intermediates" the paper projects
//! against the per-shot re-contraction it measured 16× against (that
//! surrogate, `sample_shots_naive`, lives in `ptsbe_bench`).
//!
//! `batched` ([`sample_shots_batched`]) goes one step further along the
//! paper's non-degenerate batched-sampling axis. The conditional left
//! environment entering a site depends only on the *bit prefix* drawn so
//! far, so every shot of every request advances together, one site at a
//! time: the live nodes at site `i` are the distinct prefixes, each with
//! its environment and its shots, and one blocked pass over the site
//! tensor computes every node's branch weights. Shots that share a prefix
//! share its contraction outright, and the rest share the tensor reads:
//! a row of the site tensor is loaded once per block of nodes rather
//! than once per shot. Each node's floats are the sequential sweep's
//! (same operations, same order, on split re/im planes), and each shot's
//! uniforms come from its own stream in the sequential cadence, so the
//! output is bitwise identical to [`sample_shots_cached`].
//!
//! `batched` is the one production sampler: the MPS backend samples
//! every prepared state through it, once for all the trajectories that
//! end on that state. `cached` stays as the sequential reference the
//! lockstep sweep is pinned against, and as the single-shot sampler of
//! the Algorithm-1 baseline, where there is nothing to batch.
//!
//! On `perf`'s `mps-brick32` leaf (32 sites, bond 64, 7 × 100 shots;
//! `cargo bench -p ptsbe_bench --bench mps_kernels -- brick32`, one
//! thread of a 2-vCPU Xeon VM, alternated runs) the lockstep sweep takes
//! 38–51 ms where the prefix trie it replaced took 95–121 ms: the trie
//! shared only the first ~10 sites, after which every shot re-read every
//! site tensor on its own.

use crate::mps::Mps;
use ptsbe_math::{cplx_mul_parts, cplx_norm_sqr_parts, Complex, Scalar};
use ptsbe_rng::Rng;

/// Draw `m` shots by conditional sampling with cached canonicalization.
///
/// The state is right-canonicalized once (center → site 0); every shot is
/// then a single left-to-right sweep of conditional single-site
/// distributions.
///
/// # Panics
/// If the state has more than 128 qubits (a shot is one `u128`).
pub fn sample_shots_cached<T: Scalar, R: Rng + ?Sized>(
    mps: &mut Mps<T>,
    m: usize,
    rng: &mut R,
) -> Vec<u128> {
    assert!(mps.n_qubits() <= 128, "a shot word holds 128 qubits");
    mps.move_center(0);
    // Guard against unnormalized states (e.g. post-Kraus): conditional
    // probabilities are normalized per site below, so only a zero state is
    // pathological.
    (0..m).map(|_| sample_one(mps, rng)).collect()
}

/// One conditional sweep. Requires the center at site 0 (right-canonical
/// tail), which both entry points guarantee.
fn sample_one<T: Scalar, R: Rng + ?Sized>(mps: &Mps<T>, rng: &mut R) -> u128 {
    debug_assert_eq!(mps.center(), 0);
    let mut left = vec![Complex::one()];
    let mut bits = 0u128;
    for i in 0..mps.n_qubits() {
        let (w0, w1, p0, p1) = site_branches(mps.tensor(i), &left);
        let total = p0 + p1;
        let outcome = if total <= 0.0 {
            false
        } else {
            rng.next_f64() * total >= p0
        };
        let (chosen, pc) = if outcome { (w1, p1) } else { (w0, p0) };
        if outcome {
            bits |= 1u128 << i;
        }
        left = normalize_branch(chosen, pc);
    }
    bits
}

/// Conditional branch weights at one site: `w_b[r] = Σ_l left[l] ·
/// A[l, b, r]` and the unnormalized probabilities `p_b = ‖w_b‖²`.
///
/// The sequential sweep's per-site floats. [`Lockstep::run`] repeats
/// this arithmetic on split planes, operation for operation, which is
/// what makes batched output bitwise identical to sequential.
#[allow(clippy::type_complexity)]
fn site_branches<T: Scalar>(
    t: &crate::tensor::Tensor3<T>,
    left: &[Complex<T>],
) -> (Vec<Complex<T>>, Vec<Complex<T>>, f64, f64) {
    let mut w0 = vec![Complex::<T>::zero(); t.dr];
    let mut w1 = vec![Complex::<T>::zero(); t.dr];
    for (l, &vl) in left.iter().enumerate() {
        if vl == Complex::zero() {
            continue;
        }
        for r in 0..t.dr {
            w0[r] += vl * t.get(l, 0, r);
            w1[r] += vl * t.get(l, 1, r);
        }
    }
    let p0: f64 = w0.iter().map(|z| z.norm_sqr().to_f64()).sum();
    let p1: f64 = w1.iter().map(|z| z.norm_sqr().to_f64()).sum();
    (w0, w1, p0, p1)
}

/// Scale a branch weight vector into the conditional left environment
/// for the next site (zero environment for an impossible branch).
fn normalize_branch<T: Scalar>(w: Vec<Complex<T>>, pc: f64) -> Vec<Complex<T>> {
    let inv = branch_scale::<T>(pc);
    w.into_iter().map(|z| z.scale(inv)).collect()
}

/// `1/√p`, the factor that normalizes a branch of probability `p` (zero
/// for an impossible branch).
fn branch_scale<T: Scalar>(p: f64) -> T {
    if p > 0.0 {
        T::from_f64(1.0 / p.sqrt())
    } else {
        T::ZERO
    }
}

// ---------------------------------------------------------------------------
// Batched sampling: every live prefix advances one site at a time.

/// Bytes one block of shots may hold: per shot, a left environment at
/// the current and at the next site (a node holds at least one shot, so
/// a block never has more nodes than shots), its uniforms and its word.
/// At χ = 256 in `f64` that is about 500 shots a block.
const BLOCK_BYTES: usize = 4 << 20;

/// Nodes whose branch weights one pass over a site-tensor row feeds.
/// Their `w` planes (`2·dr` per node) stay in L1 at χ = 64.
const NODE_BLOCK: usize = 8;

/// Shots one lockstep block holds under [`BLOCK_BYTES`].
fn block_shots<T: Scalar>(mps: &Mps<T>) -> usize {
    let n = mps.n_qubits();
    let chi = (0..n)
        .map(|i| mps.tensor(i).dl.max(mps.tensor(i).dr))
        .max()
        .unwrap_or(1);
    let per_shot = 2 * chi * std::mem::size_of::<Complex<T>>()
        + n * std::mem::size_of::<f64>()
        + std::mem::size_of::<u128>()
        + 2 * std::mem::size_of::<u32>();
    (BLOCK_BYTES / per_shot).max(1)
}

/// Draw shot batches for several independent requests — typically the
/// deduplicated trajectories sharing one prepared tree-node state, each
/// with its own Philox stream. Bitwise identical to calling
/// [`sample_shots_cached`] per request in order.
///
/// The shots of all requests advance together, one site at a time, in
/// contiguous blocks of a few MiB of live state. At site `i` the live
/// nodes are the distinct bit prefixes drawn so far, each with its left
/// environment and its shots; one pass over the site tensor computes
/// every node's branch weights, so shots that share a prefix share its
/// contraction and the rest share the tensor reads.
///
/// # Panics
/// If the state has more than 128 qubits (a shot is one `u128`;
/// lowering refuses such circuits with `MpsError::TooWide`).
pub fn sample_shots_batched<T: Scalar, R: Rng + ?Sized>(
    mps: &mut Mps<T>,
    requests: &mut [(usize, &mut R)],
) -> Vec<Vec<u128>> {
    assert!(mps.n_qubits() <= 128, "a shot word holds 128 qubits");
    mps.move_center(0);
    let (_, _, p0, p1) = site_branches(mps.tensor(0), &[Complex::one()]);
    if p0 + p1 < f64::MIN_POSITIVE {
        // Below a normal root total the sequential sweep does not draw
        // one uniform per site: a zero-norm state draws nothing, and under
        // a subnormal total `u·total` can round up to `p0`, so a shot
        // takes a branch of probability 0 and draws nothing below it.
        // Such states keep the sequential sweep.
        return requests
            .iter_mut()
            .map(|(shots, rng)| (0..*shots).map(|_| sample_one(mps, &mut **rng)).collect())
            .collect();
    }
    let mut out: Vec<Vec<u128>> = requests
        .iter()
        .map(|(shots, _)| Vec::with_capacity(*shots))
        .collect();
    let block = block_shots(mps);
    let mut sweep = Lockstep::default();
    // (request, shots) runs of the block being filled, in shot order.
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut filled = 0;
    for (req, (shots, rng)) in requests.iter_mut().enumerate() {
        let mut left = *shots;
        while left > 0 {
            let take = left.min(block - filled);
            sweep.draw(&mut **rng, take * mps.n_qubits());
            runs.push((req, take));
            filled += take;
            left -= take;
            if filled == block {
                sweep.run(mps);
                sweep.deliver(&mut runs, &mut out);
                filled = 0;
            }
        }
    }
    if filled > 0 {
        sweep.run(mps);
        sweep.deliver(&mut runs, &mut out);
    }
    out
}

/// Complex values on split real / imaginary planes.
#[derive(Default)]
struct Planes<T> {
    re: Vec<T>,
    im: Vec<T>,
}

impl<T: Scalar> Planes<T> {
    fn clear(&mut self) {
        self.re.clear();
        self.im.clear();
    }

    fn push(&mut self, z: Complex<T>) {
        self.re.push(z.re);
        self.im.push(z.im);
    }

    fn fill_zero(&mut self, len: usize) {
        self.clear();
        self.re.resize(len, T::ZERO);
        self.im.resize(len, T::ZERO);
    }
}

/// One lockstep block: its shots' uniforms and words, the live nodes of
/// the current site, and the scratch every site reuses.
#[derive(Default)]
struct Lockstep<T: Scalar> {
    /// `n` uniforms per shot, drawn in its stream's order (shot-major).
    u: Vec<f64>,
    /// The word drawn so far per shot.
    bits: Vec<u128>,
    /// Shots grouped by node: node `k` owns `order[nodes[k].0..nodes[k].1]`.
    order: Vec<u32>,
    nodes: Vec<(u32, u32)>,
    /// Left environments entering the current site, `dl` per node.
    env: Planes<T>,
    next_order: Vec<u32>,
    next_nodes: Vec<(u32, u32)>,
    next_env: Planes<T>,
    /// The current site tensor; row `l` is `A[l, 0, ..] ++ A[l, 1, ..]`.
    site: Planes<T>,
    /// Branch weights `w_0 ++ w_1` of one block of nodes, `2·dr` each.
    w: Planes<T>,
}

impl<T: Scalar> Lockstep<T> {
    /// Append `count` uniforms from `rng`.
    fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R, count: usize) {
        self.u.extend((0..count).map(|_| rng.next_f64()));
    }

    /// Sample every shot whose uniforms are drawn, from the root to the
    /// last site. Requires `mps.center() == 0` and a normal root total.
    ///
    /// Per node this is [`sample_one`]'s arithmetic on split planes:
    /// `w_b[r] += v_l · A[l, b, r]` over ascending `l` (`Complex: Mul`,
    /// then an add; a zero `v_l` skipped), `p_b` the in-order `f64` sum
    /// of `norm_sqr`, children scaled as [`normalize_branch`] does. A
    /// node's floats depend only on its prefix, so grouping shots into
    /// nodes cannot change them, and each shot compares its own uniform.
    fn run(&mut self, mps: &Mps<T>) {
        debug_assert_eq!(mps.center(), 0);
        let n = mps.n_qubits();
        let shots = self.u.len() / n;
        let Self {
            u,
            bits,
            order,
            nodes,
            env,
            next_order,
            next_nodes,
            next_env,
            site,
            w,
        } = self;
        bits.clear();
        bits.resize(shots, 0);
        order.clear();
        order.extend(0..u32::try_from(shots).expect("block shots fit u32"));
        nodes.clear();
        nodes.push((0, order.len() as u32));
        env.clear();
        env.push(Complex::one());
        for i in 0..n {
            let t = mps.tensor(i);
            let (dl, dr) = (t.dl, t.dr);
            let row = 2 * dr;
            site.clear();
            for &z in &t.data {
                site.push(z);
            }
            next_order.clear();
            next_nodes.clear();
            next_env.clear();
            for first in (0..nodes.len()).step_by(NODE_BLOCK) {
                let block = &nodes[first..nodes.len().min(first + NODE_BLOCK)];
                block_weights(site, env, first..first + block.len(), dl, w);
                for (q, &(start, end)) in block.iter().enumerate() {
                    let wr = &w.re[q * row..(q + 1) * row];
                    let wi = &w.im[q * row..(q + 1) * row];
                    let p = [
                        norm_sqr_sum(&wr[..dr], &wi[..dr]),
                        norm_sqr_sum(&wr[dr..], &wi[dr..]),
                    ];
                    let total = p[0] + p[1];
                    // The root total is a normal float (checked by the
                    // caller), so `u·total < p_0` whenever `p_1 = 0`: a
                    // drawn branch has p_b > 0 and its child environment
                    // is a unit vector. Below the root the tail is
                    // right-canonical (center at 0), so every deeper total
                    // is that unit vector's norm, ≈ 1: the sequential
                    // sweep draws one uniform at every site, which is the
                    // cadence `u` was drawn with.
                    debug_assert!(
                        total > 0.0 || total.is_nan(),
                        "site {i}: total {total} below the root"
                    );
                    let shots = &order[start as usize..end as usize];
                    for &s in shots {
                        if u[s as usize * n + i] * total >= p[0] {
                            bits[s as usize] |= 1u128 << i;
                        }
                    }
                    if i + 1 == n {
                        continue;
                    }
                    for (b, &pb) in p.iter().enumerate() {
                        let from = next_order.len();
                        next_order.extend(
                            shots
                                .iter()
                                .filter(|&&s| (bits[s as usize] >> i) & 1 == b as u128),
                        );
                        if next_order.len() == from {
                            continue;
                        }
                        next_nodes.push((from as u32, next_order.len() as u32));
                        let inv = branch_scale::<T>(pb);
                        let half = b * dr..(b + 1) * dr;
                        next_env
                            .re
                            .extend(wr[half.clone()].iter().map(|&x| x * inv));
                        next_env.im.extend(wi[half].iter().map(|&x| x * inv));
                    }
                }
            }
            std::mem::swap(order, next_order);
            std::mem::swap(nodes, next_nodes);
            std::mem::swap(env, next_env);
        }
    }

    /// Hand the block's words to their requests (`runs` in shot order)
    /// and empty the block.
    fn deliver(&mut self, runs: &mut Vec<(usize, usize)>, out: &mut [Vec<u128>]) {
        let mut at = 0;
        for (req, take) in runs.drain(..) {
            out[req].extend_from_slice(&self.bits[at..at + take]);
            at += take;
        }
        self.u.clear();
    }
}

/// Branch weights `w_0 ++ w_1` (`2·dr` each, into `w`) of `nodes` at
/// one site: `w_q += env_q[l] · A[l, .., ..]` over ascending `l`, a zero
/// `env_q[l]` skipped. Each row of the site tensor is read once for the
/// whole block of nodes.
fn block_weights<T: Scalar>(
    site: &Planes<T>,
    env: &Planes<T>,
    nodes: std::ops::Range<usize>,
    dl: usize,
    w: &mut Planes<T>,
) {
    let row = site.re.len() / dl;
    w.fill_zero(nodes.len() * row);
    for l in 0..dl {
        let ar = &site.re[l * row..(l + 1) * row];
        let ai = &site.im[l * row..(l + 1) * row];
        for (q, node) in nodes.clone().enumerate() {
            let (vr, vi) = (env.re[node * dl + l], env.im[node * dl + l]);
            if vr == T::ZERO && vi == T::ZERO {
                continue;
            }
            let wr = &mut w.re[q * row..(q + 1) * row];
            let wi = &mut w.im[q * row..(q + 1) * row];
            mac(vr, vi, ar, ai, wr, wi);
        }
    }
}

/// `w += v · a` on split planes: per element the arithmetic of
/// `Complex: Mul` ([`cplx_mul_parts`]) followed by `Complex: AddAssign`.
#[inline(always)]
fn mac<T: Scalar>(vr: T, vi: T, ar: &[T], ai: &[T], wr: &mut [T], wi: &mut [T]) {
    for (((wr, wi), &ar), &ai) in wr.iter_mut().zip(wi.iter_mut()).zip(ar).zip(ai) {
        let (pr, pi) = cplx_mul_parts(vr, vi, ar, ai);
        *wr += pr;
        *wi += pi;
    }
}

/// In-order `f64` sum of `norm_sqr` — [`site_branches`]' `p_b`.
fn norm_sqr_sum<T: Scalar>(re: &[T], im: &[T]) -> f64 {
    re.iter()
        .zip(im)
        .map(|(&r, &i)| cplx_norm_sqr_parts(r, i).to_f64())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mps::MpsConfig;
    use ptsbe_math::gates;
    use ptsbe_rng::PhiloxRng;

    fn exact() -> MpsConfig {
        MpsConfig::exact()
    }

    /// [`sample_shots_batched`] of the one request `(m, rng)`.
    fn batched_one<T: Scalar>(mps: &mut Mps<T>, m: usize, rng: &mut PhiloxRng) -> Vec<u128> {
        sample_shots_batched(mps, &mut [(m, rng)]).pop().unwrap()
    }

    #[test]
    fn deterministic_state_sampling() {
        let mut mps = Mps::<f64>::zero_state(5, exact());
        mps.apply_1q(&gates::x(), 2);
        let mut rng = PhiloxRng::new(120, 0);
        let shots = sample_shots_cached(&mut mps, 100, &mut rng);
        assert!(shots.iter().all(|&s| s == 0b00100));
    }

    #[test]
    fn bell_sampling_statistics() {
        let mut mps = Mps::<f64>::zero_state(2, exact());
        mps.apply_1q(&gates::h(), 0);
        mps.apply_2q(&gates::cx(), 0, 1);
        let mut rng = PhiloxRng::new(121, 0);
        let m = 40_000;
        let shots = sample_shots_cached(&mut mps, m, &mut rng);
        let ones = shots.iter().filter(|&&s| s == 0b11).count();
        let zeros = shots.iter().filter(|&&s| s == 0b00).count();
        assert_eq!(ones + zeros, m, "Bell shots must be 00 or 11");
        assert!((ones as f64 / m as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn sampling_matches_statevector_distribution() {
        let mut rng = PhiloxRng::new(123, 0);
        let n = 4;
        let mut mps = Mps::<f64>::zero_state(n, exact());
        let mut sv = ptsbe_statevector::StateVector::<f64>::zero_state(n);
        for step in 0..10 {
            let u = ptsbe_math::random::haar_unitary::<f64>(4, &mut rng);
            let a = step % n;
            let b = (step + 1) % n;
            if a != b {
                mps.apply_2q(&u, a, b);
                sv.apply_2q(&u, a, b);
            }
        }
        let m = 60_000;
        let shots = sample_shots_cached(&mut mps, m, &mut rng);
        let mut hist = vec![0usize; 1 << n];
        for &s in &shots {
            hist[s as usize] += 1;
        }
        for (i, &count) in hist.iter().enumerate() {
            let frac = count as f64 / m as f64;
            let expect = sv.probability(i as u64);
            assert!(
                (frac - expect).abs() < 0.012,
                "outcome {i}: sampled {frac} vs exact {expect}"
            );
        }
    }

    #[test]
    fn unnormalized_state_sampled_correctly() {
        // Post-Kraus states may carry norm != 1; conditional sampling
        // normalizes per site.
        let mut mps = Mps::<f64>::zero_state(2, exact());
        mps.apply_1q(&gates::h(), 0);
        // Scale the center tensor artificially.
        let k = ptsbe_math::Matrix::<f64>::identity(2).scaled_real(0.5);
        mps.apply_1q(&k, 0);
        let mut rng = PhiloxRng::new(124, 0);
        let shots = sample_shots_cached(&mut mps, 20_000, &mut rng);
        let ones = shots.iter().filter(|&&s| s & 1 == 1).count();
        assert!((ones as f64 / 20_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn empty_request() {
        let mut mps = Mps::<f64>::zero_state(2, exact());
        let mut rng = PhiloxRng::new(125, 0);
        assert!(sample_shots_cached(&mut mps, 0, &mut rng).is_empty());
        assert!(batched_one(&mut mps, 0, &mut rng).is_empty());
    }

    /// An entangled, noisy-ish state with some zero-amplitude branches.
    fn scrambled<T: Scalar>(n: usize) -> Mps<T> {
        let mut rng = PhiloxRng::new(777, 0);
        let mut mps = Mps::<T>::zero_state(n, exact());
        for step in 0..2 * n {
            let u = ptsbe_math::random::haar_unitary::<T>(4, &mut rng);
            let a = step % (n - 1);
            mps.apply_2q(&u, a, a + 1);
        }
        // A projector-like 1q Kraus op leaves unnormalized weight and an
        // exactly-impossible branch at site 0.
        let k = ptsbe_math::Matrix::<T>::from_vec(
            2,
            2,
            vec![
                Complex::from_f64(0.9, 0.0),
                Complex::zero(),
                Complex::zero(),
                Complex::zero(),
            ],
        );
        mps.apply_1q(&k, 0);
        mps
    }

    /// `sample_shots_batched` over requests of `shots` equals
    /// `sample_shots_cached` per request, and leaves every stream where
    /// the sequential sweep left it.
    fn assert_batched_matches_cached<T: Scalar>(mps: &mut Mps<T>, shots: &[usize], seed: u64) {
        let stream = |t: usize| PhiloxRng::for_trajectory(seed, t as u64);
        let mut seq_rngs: Vec<PhiloxRng> = (0..shots.len()).map(stream).collect();
        let expect: Vec<Vec<u128>> = shots
            .iter()
            .zip(&mut seq_rngs)
            .map(|(&m, rng)| sample_shots_cached(mps, m, rng))
            .collect();
        let mut rngs: Vec<PhiloxRng> = (0..shots.len()).map(stream).collect();
        let mut reqs: Vec<(usize, &mut PhiloxRng)> =
            shots.iter().copied().zip(rngs.iter_mut()).collect();
        let got = sample_shots_batched(mps, &mut reqs);
        assert!(expect == got, "batched sampling diverged from sequential");
        for (t, (a, b)) in seq_rngs.iter_mut().zip(&mut rngs).enumerate() {
            assert_eq!(a.next_u64(), b.next_u64(), "stream {t} ends elsewhere");
        }
    }

    #[test]
    fn batched_bitwise_matches_sequential() {
        let mut mps = scrambled::<f64>(6);
        // Sequential reference: each request samples on its own stream
        // against the shared (canonicalized-once) state.
        let mut seq = Vec::new();
        for t in 0..3u64 {
            let mut rng = PhiloxRng::for_trajectory(9, t);
            seq.push(sample_shots_cached(&mut mps, 400, &mut rng));
        }
        let mut rngs: Vec<PhiloxRng> = (0..3).map(|t| PhiloxRng::for_trajectory(9, t)).collect();
        let mut reqs: Vec<(usize, &mut PhiloxRng)> =
            rngs.iter_mut().map(|r| (400usize, r)).collect();
        let batched = sample_shots_batched(&mut mps, &mut reqs);
        assert_eq!(seq, batched, "batched sampling diverged from sequential");
    }

    #[test]
    fn batched_single_request_bitwise_matches_cached() {
        let mut mps = scrambled::<f64>(5);
        let mut r1 = PhiloxRng::new(131, 0);
        let expect = sample_shots_cached(&mut mps, 1_000, &mut r1);
        let mut r2 = PhiloxRng::new(131, 0);
        let got = batched_one(&mut mps, 1_000, &mut r2);
        assert_eq!(expect, got);
    }

    /// The lockstep kernel's floats are `site_branches`' bit for bit:
    /// branch weights and probabilities of a block of nodes (not the
    /// first of the arena), environments with zero entries of either
    /// sign included.
    fn block_weights_match<T: Scalar>(seed: u64) {
        let bits = |z: &Complex<T>| (z.re.to_f64().to_bits(), z.im.to_f64().to_bits());
        let mut rng = PhiloxRng::new(seed, 0);
        for (dl, dr) in [
            (1usize, 1usize),
            (1, 2),
            (5, 3),
            (16, 16),
            (64, 64),
            (32, 7),
        ] {
            let m = ptsbe_math::random::random_matrix::<T>(2 * dl, dr, &mut rng);
            let t = crate::tensor::Tensor3::from_matrix_lp_r(&m, dl);
            let mut site = Planes::default();
            for &z in &t.data {
                site.push(z);
            }
            let envs: Vec<Vec<Complex<T>>> = (0..6)
                .map(|k| {
                    let mut v = ptsbe_math::random::random_matrix::<T>(dl, 1, &mut rng).into_vec();
                    for (l, z) in v.iter_mut().enumerate() {
                        if (l + k) % 3 == 0 {
                            *z = Complex::new(T::from_f64(-0.0), T::ZERO);
                        } else if (l + k) % 4 == 0 {
                            *z = Complex::zero();
                        }
                    }
                    v
                })
                .collect();
            let mut env = Planes::default();
            for &z in envs.iter().flatten() {
                env.push(z);
            }
            let mut w = Planes::default();
            block_weights(&site, &env, 2..6, dl, &mut w);
            let row = 2 * dr;
            for (q, node) in (2..6).enumerate() {
                let (w0, w1, p0, p1) = site_branches(&t, &envs[node]);
                let (wr, wi) = (&w.re[q * row..(q + 1) * row], &w.im[q * row..(q + 1) * row]);
                let got: Vec<Complex<T>> = wr
                    .iter()
                    .zip(wi)
                    .map(|(&r, &i)| Complex::new(r, i))
                    .collect();
                let want: Vec<Complex<T>> = w0.iter().chain(&w1).copied().collect();
                let (got, want): (Vec<_>, Vec<_>) = (
                    got.iter().map(bits).collect(),
                    want.iter().map(bits).collect(),
                );
                assert!(got == want, "{dl}x{dr}, node {node}: w differs");
                assert_eq!(norm_sqr_sum(&wr[..dr], &wi[..dr]).to_bits(), p0.to_bits());
                assert_eq!(norm_sqr_sum(&wr[dr..], &wi[dr..]).to_bits(), p1.to_bits());
            }
        }
    }

    #[test]
    fn block_weights_equal_site_branches_bitwise() {
        block_weights_match::<f64>(135);
        block_weights_match::<f32>(136);
    }

    #[test]
    fn zero_norm_state_draws_nothing() {
        let mut mps = scrambled::<f64>(5);
        mps.apply_1q(&ptsbe_math::Matrix::zeros(2, 2), 2);
        let mut rng = PhiloxRng::new(133, 0);
        let got = batched_one(&mut mps, 300, &mut rng);
        assert!(got.iter().all(|&s| s == 0));
        assert_eq!(rng.next_u64(), PhiloxRng::new(133, 0).next_u64());
        assert_batched_matches_cached(&mut mps, &[40, 0, 7], 10);
    }

    /// Under a subnormal root total `u·total` rounds up to `p_0` for
    /// about one uniform in 40 here, so the sequential sweep takes the
    /// impossible branch and draws nothing at the second site.
    #[test]
    fn subnormal_root_total_keeps_the_sequential_cadence() {
        let mut mps = Mps::<f64>::zero_state(2, exact());
        mps.apply_1q(&ptsbe_math::Matrix::identity(2).scaled_real(1e-161), 0);
        let mut rng = PhiloxRng::new(137, 0);
        let shots = sample_shots_cached(&mut mps, 2_000, &mut rng);
        assert!(shots.contains(&1) && shots.contains(&0));
        assert_batched_matches_cached(&mut mps, &[500, 0, 300], 19);
    }

    #[test]
    fn empty_requests_between_full_ones() {
        let mut mps = scrambled::<f64>(6);
        assert_batched_matches_cached(&mut mps, &[0, 50, 0, 0, 30, 0], 11);
        assert_batched_matches_cached(&mut mps, &[0, 0], 12);
        assert_batched_matches_cached(&mut mps, &[], 13);
    }

    #[test]
    fn single_site_state() {
        let mut mps = Mps::<f64>::zero_state(1, exact());
        mps.apply_1q(&gates::ry(0.7), 0);
        mps.apply_1q(&ptsbe_math::Matrix::identity(2).scaled_real(0.3), 0);
        assert_batched_matches_cached(&mut mps, &[0, 300, 5], 14);
    }

    #[test]
    fn single_precision_state() {
        let mut mps = scrambled::<f32>(7);
        assert_batched_matches_cached(&mut mps, &[200, 1, 333], 15);
    }

    #[test]
    fn one_call_spans_several_blocks() {
        let mut mps = scrambled::<f64>(7);
        let block = block_shots(&mps);
        assert_batched_matches_cached(&mut mps, &[2 * block + 37, 3], 16);
    }

    /// Requests that end exactly on, just before and just after a block
    /// boundary: each block draws its uniforms from the streams it
    /// overlaps, so a request split across blocks resumes its stream
    /// where the previous block stopped.
    #[test]
    fn block_boundaries_stay_bitwise() {
        let mut mps = scrambled::<f64>(7);
        let block = block_shots(&mps);
        assert_batched_matches_cached(&mut mps, &[block - 1, 1, block + 1, 0, block - 1, 2], 17);
    }

    /// Bond 256 in the middle of the chain (the MPS ceiling), random
    /// site tensors: several blocks of a few hundred shots each.
    #[test]
    fn bond_256_state() {
        let mut rng = PhiloxRng::new(134, 0);
        let mut bonds: Vec<usize> = (0..=8).map(|k| 1 << k).collect();
        bonds.extend((0..8).rev().map(|k| 1 << k));
        let tensors = bonds
            .windows(2)
            .map(|d| {
                let m = ptsbe_math::random::random_matrix::<f64>(2 * d[0], d[1], &mut rng);
                crate::tensor::Tensor3::from_matrix_lp_r(&m, d[0])
            })
            .collect();
        let mut mps = Mps::from_tensors(tensors);
        assert_eq!(mps.max_bond_reached(), 256);
        let block = block_shots(&mps);
        assert!(2 * block < 1_100, "block of {block} shots");
        assert_batched_matches_cached(&mut mps, &[600, 500], 18);
    }

    #[test]
    fn large_system_sampling() {
        // 40-qubit GHZ: trivially representable as MPS, impossible as a
        // dense statevector on this machine — the point of the backend.
        let n = 40;
        let mut mps = Mps::<f64>::zero_state(n, exact());
        mps.apply_1q(&gates::h(), 0);
        for q in 0..n - 1 {
            mps.apply_2q(&gates::cx(), q, q + 1);
        }
        let mut rng = PhiloxRng::new(126, 0);
        let shots = sample_shots_cached(&mut mps, 2_000, &mut rng);
        let all_ones = (1u128 << n) - 1;
        for &s in &shots {
            assert!(s == 0 || s == all_ones);
        }
        let ones = shots.iter().filter(|&&s| s == all_ones).count();
        assert!((ones as f64 / 2_000.0 - 0.5).abs() < 0.05);
    }
}
