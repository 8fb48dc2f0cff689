//! MPS shot sampling: batched prefix-trie, cached-sweep (conditional),
//! and naive re-contraction.
//!
//! `cached` and `naive` bracket the paper's Fig. 5 discussion. `cached`
//! pays one O(n·χ³) canonicalization then O(n·χ²) per shot — the
//! "conditional and correlated tensor network sampling \[reusing\] cached
//! intermediates" the paper projects. `naive` redoes the sweep for every
//! shot — the surrogate for the current CUDA-Q behavior the paper
//! measured 16× against.
//!
//! `batched` ([`sample_shots_batched`]) goes one step further along the
//! paper's non-degenerate batched-sampling axis: the conditional left
//! environments depend only on the *bit prefix* drawn so far, so shots
//! that share a prefix share the partial contraction. A [`SampleTrie`]
//! memoizes, per visited prefix, the conditional branch probabilities
//! and the two normalized child environments; repeat visits are O(1)
//! per site instead of O(χ²). Because the memoized floats are the exact
//! values the sequential sweep would recompute (same operations, same
//! order) and the RNG is consulted with the same cadence, the output
//! bytes are bitwise identical to [`sample_shots_cached`].

use crate::mps::Mps;
use ptsbe_math::{Complex, Matrix, Scalar};
use ptsbe_rng::Rng;

/// Draw `m` shots by conditional sampling with cached canonicalization.
///
/// The state is right-canonicalized once (center → site 0); every shot is
/// then a single left-to-right sweep of conditional single-site
/// distributions.
pub fn sample_shots_cached<T: Scalar, R: Rng + ?Sized>(
    mps: &mut Mps<T>,
    m: usize,
    rng: &mut R,
) -> Vec<u128> {
    mps.move_center(0);
    // Guard against unnormalized states (e.g. post-Kraus): conditional
    // probabilities are normalized per site below, so only a zero state is
    // pathological.
    (0..m).map(|_| sample_one(mps, rng)).collect()
}

/// Draw `m` shots with *no cached intermediates*: at every site of every
/// shot, the right environment is recontracted from scratch — O(n²·χ³)
/// per shot, the paper's "nearly all of the tensor network contraction
/// process \[reoccurs\] for each sample, caching only the minimally
/// optimized contraction path".
pub fn sample_shots_naive<T: Scalar, R: Rng + ?Sized>(
    mps: &Mps<T>,
    m: usize,
    rng: &mut R,
) -> Vec<u128> {
    (0..m).map(|_| sample_one_uncached(mps, rng)).collect()
}

/// One cache-free conditional sample. Works in any gauge: marginals are
/// evaluated by full transfer-matrix contraction.
fn sample_one_uncached<T: Scalar, R: Rng + ?Sized>(mps: &Mps<T>, rng: &mut R) -> u128 {
    let n = mps.n_qubits();
    let mut bits = 0u128;
    // Left-conditioned density at the current left bond (starts 1×1).
    let mut lrho = Matrix::<T>::identity(1);
    for i in 0..n {
        // Right environment over sites i+1.. — recomputed from scratch
        // (this is the deliberate inefficiency).
        let renv = right_env_from(mps, i + 1);
        let t = mps.tensor(i);
        let mut p = [0.0f64; 2];
        let mut cand: [Option<Matrix<T>>; 2] = [None, None];
        for b in 0..2 {
            // M_b: dl × dr slice of the site tensor at physical index b.
            let mut mb = Matrix::<T>::zeros(t.dl, t.dr);
            for l in 0..t.dl {
                for r in 0..t.dr {
                    mb[(l, r)] = t.get(l, b, r);
                }
            }
            let lb = mb.dagger().mul_ref(&lrho).mul_ref(&mb);
            p[b] = lb.mul_ref(&renv).trace().re.to_f64().max(0.0);
            cand[b] = Some(lb);
        }
        let total = p[0] + p[1];
        let outcome = if total <= 0.0 {
            false
        } else {
            rng.next_f64() * total >= p[0]
        };
        let idx = usize::from(outcome);
        if outcome {
            bits |= 1u128 << i;
        }
        let mut next = cand[idx].take().expect("candidate computed");
        let pc = p[idx];
        if pc > 0.0 {
            next = next.scaled_real(T::from_f64(1.0 / pc));
        }
        lrho = next;
    }
    bits
}

/// Transfer-matrix contraction of sites `from..n` into a `dl_from ×
/// dl_from` environment (identity at the right boundary).
fn right_env_from<T: Scalar>(mps: &Mps<T>, from: usize) -> Matrix<T> {
    let n = mps.n_qubits();
    if from >= n {
        return Matrix::identity(1);
    }
    let mut renv = Matrix::<T>::identity(mps.tensor(n - 1).dr);
    for j in (from..n).rev() {
        let t = mps.tensor(j);
        let mut next = Matrix::<T>::zeros(t.dl, t.dl);
        for b in 0..2 {
            let mut mb = Matrix::<T>::zeros(t.dl, t.dr);
            for l in 0..t.dl {
                for r in 0..t.dr {
                    mb[(l, r)] = t.get(l, b, r);
                }
            }
            // next += M_b · R · M_b†
            let term = mb.mul_ref(&renv).mul_ref(&mb.dagger());
            next = &next + &term;
        }
        renv = next;
    }
    renv
}

/// One conditional sweep. Requires the center at site 0 (right-canonical
/// tail), which both entry points guarantee.
fn sample_one<T: Scalar, R: Rng + ?Sized>(mps: &Mps<T>, rng: &mut R) -> u128 {
    debug_assert_eq!(mps.center(), 0);
    sample_tail(mps, 0, vec![Complex::one()], rng, 0)
}

/// Conditional branch weights at one site: `w_b[r] = Σ_l left[l] ·
/// A[l, b, r]` and the unnormalized probabilities `p_b = ‖w_b‖²`.
///
/// This is the one place the per-site floats are computed — the
/// sequential sweep, the trie expansion, and the trie's capacity
/// fallback all call it, which is what makes batched output bitwise
/// identical to sequential.
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
    let inv = if pc > 0.0 {
        T::from_f64(1.0 / pc.sqrt())
    } else {
        T::ZERO
    };
    w.into_iter().map(|z| z.scale(inv)).collect()
}

/// Finish one shot from site `from` with left environment `left` and the
/// bits already drawn for sites `0..from`.
fn sample_tail<T: Scalar, R: Rng + ?Sized>(
    mps: &Mps<T>,
    from: usize,
    mut left: Vec<Complex<T>>,
    rng: &mut R,
    mut bits: u128,
) -> u128 {
    let n = mps.n_qubits();
    for i in from..n {
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

// ---------------------------------------------------------------------------
// Batched sampling: the prefix trie.

/// Sentinel child index (also the pre-expansion placeholder).
const NO_CHILD: u32 = u32::MAX;

/// Memory the trie may hold in cached environments before further
/// prefixes fall back to transient [`sample_tail`] sweeps.
const TRIE_ENV_BYTE_CAP: usize = 128 << 20;

struct TrieNode<T: Scalar> {
    /// Left environment entering this node's site. Freed once the node
    /// is expanded (the branch weights have been folded into the
    /// children); retained on unexpanded frontier nodes so a capacity
    /// fallback can resume from here.
    env: Vec<Complex<T>>,
    /// Unnormalized branch probabilities, valid once `expanded`.
    p0: f64,
    p1: f64,
    expanded: bool,
    child: [u32; 2],
}

/// A prefix trie of conditional sampling state over a fixed MPS.
///
/// Node at depth `i` caches the branch probabilities of site `i` given
/// the bits on the path to it; its children hold the normalized left
/// environments entering site `i + 1`. One trie serves any number of
/// shots and any number of independent RNG streams against the same
/// prepared state — each draw walks root→leaf, expanding unvisited
/// prefixes on first touch. Beyond `TRIE_ENV_BYTE_CAP` of cached
/// environments, new prefixes are completed transiently instead of
/// being inserted (the hot prefixes are by then already resident).
pub struct SampleTrie<T: Scalar> {
    nodes: Vec<TrieNode<T>>,
    env_bytes: usize,
    env_cap: usize,
}

impl<T: Scalar> SampleTrie<T> {
    /// An empty trie rooted at site 0 (left boundary environment `[1]`).
    pub fn new() -> Self {
        Self::with_env_cap(TRIE_ENV_BYTE_CAP)
    }

    /// An empty trie with an explicit cached-environment byte budget
    /// (tests exercise the capacity fallback with a tiny cap).
    pub fn with_env_cap(env_cap: usize) -> Self {
        Self {
            nodes: vec![TrieNode {
                env: vec![Complex::one()],
                p0: 0.0,
                p1: 0.0,
                expanded: false,
                child: [NO_CHILD; 2],
            }],
            env_bytes: std::mem::size_of::<Complex<T>>(),
            env_cap,
        }
    }

    /// Compute site `depth`'s branch weights at `node`, cache the
    /// probabilities, and install both child environments (interior
    /// sites only — the last site needs no children).
    fn expand(&mut self, mps: &Mps<T>, node: u32, depth: usize) {
        let (w0, w1, p0, p1) = site_branches(mps.tensor(depth), &self.nodes[node as usize].env);
        if depth + 1 < mps.n_qubits() {
            for (b, (w, pc)) in [(w0, p0), (w1, p1)].into_iter().enumerate() {
                let env = normalize_branch(w, pc);
                self.env_bytes += env.len() * std::mem::size_of::<Complex<T>>();
                let idx = u32::try_from(self.nodes.len()).expect("trie node count fits u32");
                self.nodes.push(TrieNode {
                    env,
                    p0: 0.0,
                    p1: 0.0,
                    expanded: false,
                    child: [NO_CHILD; 2],
                });
                self.nodes[node as usize].child[b] = idx;
            }
        }
        let nd = &mut self.nodes[node as usize];
        nd.p0 = p0;
        nd.p1 = p1;
        nd.expanded = true;
        // The environment has been folded into the children; only
        // frontier nodes need to keep theirs.
        self.env_bytes -= nd.env.len() * std::mem::size_of::<Complex<T>>();
        nd.env = Vec::new();
    }

    /// Draw one shot, expanding the trie along the sampled prefix.
    /// Requires `mps.center() == 0`, like the sequential sweep.
    pub fn sample_one<R: Rng + ?Sized>(&mut self, mps: &Mps<T>, rng: &mut R) -> u128 {
        debug_assert_eq!(mps.center(), 0);
        let n = mps.n_qubits();
        let mut bits = 0u128;
        let mut cur = 0u32;
        for i in 0..n {
            if !self.nodes[cur as usize].expanded {
                if self.env_bytes > self.env_cap {
                    let left = self.nodes[cur as usize].env.clone();
                    return sample_tail(mps, i, left, rng, bits);
                }
                self.expand(mps, cur, i);
            }
            let nd = &self.nodes[cur as usize];
            let total = nd.p0 + nd.p1;
            let outcome = if total <= 0.0 {
                false
            } else {
                rng.next_f64() * total >= nd.p0
            };
            if outcome {
                bits |= 1u128 << i;
            }
            if i + 1 < n {
                cur = nd.child[usize::from(outcome)];
            }
        }
        bits
    }
}

impl<T: Scalar> Default for SampleTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Draw shot batches for several independent requests — typically the
/// deduplicated trajectories sharing one prepared tree-node state, each
/// with its own Philox stream — amortizing the conditional partial
/// contractions across every shot of every request through one shared
/// [`SampleTrie`]. Bitwise identical to calling [`sample_shots_cached`]
/// per request in order.
pub fn sample_shots_batched<T: Scalar, R: Rng + ?Sized>(
    mps: &mut Mps<T>,
    requests: &mut [(usize, &mut R)],
) -> Vec<Vec<u128>> {
    mps.move_center(0);
    let mut trie = SampleTrie::new();
    requests
        .iter_mut()
        .map(|(shots, rng)| (0..*shots).map(|_| trie.sample_one(mps, rng)).collect())
        .collect()
}

/// Single-request batched sampling: one trie amortizes the conditional
/// contractions across all `m` shots of one trajectory. Bitwise
/// identical to [`sample_shots_cached`].
pub fn sample_shots_batched_one<T: Scalar, R: Rng + ?Sized>(
    mps: &mut Mps<T>,
    m: usize,
    rng: &mut R,
) -> Vec<u128> {
    mps.move_center(0);
    let mut trie = SampleTrie::new();
    (0..m).map(|_| trie.sample_one(mps, rng)).collect()
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
    fn naive_and_cached_agree_in_distribution() {
        let mut rng = PhiloxRng::new(122, 0);
        let n = 5;
        let mut mps = Mps::<f64>::zero_state(n, exact());
        for q in 0..n {
            mps.apply_1q(&gates::ry(0.3 + 0.4 * q as f64), q);
        }
        for q in 0..n - 1 {
            mps.apply_2q(&gates::cx(), q, q + 1);
        }
        let m = 30_000;
        let naive = sample_shots_naive(&mps, m, &mut rng);
        let cached = sample_shots_cached(&mut mps, m, &mut rng);
        let mut h_naive = vec![0usize; 1 << n];
        let mut h_cached = vec![0usize; 1 << n];
        for &s in &naive {
            h_naive[s as usize] += 1;
        }
        for &s in &cached {
            h_cached[s as usize] += 1;
        }
        for i in 0..(1 << n) {
            let a = h_naive[i] as f64 / m as f64;
            let b = h_cached[i] as f64 / m as f64;
            assert!(
                (a - b).abs() < 0.015,
                "outcome {i}: naive {a} vs cached {b}"
            );
        }
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
        assert!(sample_shots_naive(&mps, 0, &mut rng).is_empty());
    }

    /// An entangled, noisy-ish state with some zero-amplitude branches.
    fn scrambled(n: usize) -> Mps<f64> {
        let mut rng = PhiloxRng::new(777, 0);
        let mut mps = Mps::<f64>::zero_state(n, exact());
        for step in 0..2 * n {
            let u = ptsbe_math::random::haar_unitary::<f64>(4, &mut rng);
            let a = step % (n - 1);
            mps.apply_2q(&u, a, a + 1);
        }
        // A projector-like 1q Kraus op leaves unnormalized weight and an
        // exactly-impossible branch at site 0.
        let k = ptsbe_math::Matrix::<f64>::from_vec(
            2,
            2,
            vec![
                Complex::new(0.9, 0.0),
                Complex::zero(),
                Complex::zero(),
                Complex::zero(),
            ],
        );
        mps.apply_1q(&k, 0);
        mps
    }

    #[test]
    fn batched_bitwise_matches_sequential() {
        let mut mps = scrambled(6);
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
        let mut mps = scrambled(5);
        let mut r1 = PhiloxRng::new(131, 0);
        let expect = sample_shots_cached(&mut mps, 1_000, &mut r1);
        let mut r2 = PhiloxRng::new(131, 0);
        let got = sample_shots_batched_one(&mut mps, 1_000, &mut r2);
        assert_eq!(expect, got);
    }

    #[test]
    fn trie_capacity_fallback_stays_bitwise() {
        let mut mps = scrambled(7);
        let mut r1 = PhiloxRng::new(132, 0);
        let expect = sample_shots_cached(&mut mps, 600, &mut r1);
        // A cap this small forces the transient-tail fallback on nearly
        // every shot after the first few expansions.
        let mut trie = SampleTrie::<f64>::with_env_cap(256);
        let mut r2 = PhiloxRng::new(132, 0);
        let got: Vec<u128> = (0..600).map(|_| trie.sample_one(&mps, &mut r2)).collect();
        assert_eq!(expect, got);
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
