//! The block-CDF sampler against the streaming merge it replaced.
//!
//! `sampling::sample_sorted_merge` and `SvBackend::sample_batch` resolve
//! sorted uniforms against a cumulative distribution summed once per
//! state. The oracle here is the single streaming pass over the
//! amplitudes they replaced, run per request on the same Philox stream;
//! shots must agree bit for bit — across the one-block / multi-block
//! boundary (2¹⁴ amplitudes), on empty, one-shot and round-off-heavy
//! requests, next to counted requests, and on states without a norm.

use proptest::prelude::*;
use ptsbe_circuit::{channels, Circuit, NoiseModel, NoisyCircuit};
use ptsbe_core::{Backend, PlannedTrajectory, PtsPlan, PtsPlanTree, SvBackend, TreeExecutor};
use ptsbe_math::{Complex, Scalar};
use ptsbe_rng::{bits::extract_bits, sorted::sorted_uniforms, PhiloxRng, Rng};
use ptsbe_statevector::{sampling, SamplingStrategy, StateVector};

/// From this many amplitudes the merge restarted its running sum per
/// block of [`BLOCK`] and resolved each block's uniforms on their own.
const PAR_MIN_AMPS: usize = 1 << 14;
const BLOCK: usize = 1 << 13;

fn prob<T: Scalar>(z: &Complex<T>) -> f64 {
    z.norm_sqr().to_f64()
}

/// The streaming merge: `m` sorted uniforms resolved in one pass over
/// the amplitudes, block-restarted from [`PAR_MIN_AMPS`] up. (The
/// production sampler before the block CDF, minus its thread fan-out,
/// which did not change a shot.)
fn streaming_merge<T: Scalar, R: Rng + ?Sized>(
    sv: &StateVector<T>,
    m: usize,
    rng: &mut R,
) -> Vec<u64> {
    let amps = sv.amplitudes();
    let u = sorted_uniforms(m, rng);
    let mut out = Vec::with_capacity(m);
    if amps.len() < PAR_MIN_AMPS {
        let total: f64 = amps.iter().map(prob).sum();
        let inv_total = 1.0 / total;
        let mut cum = 0.0f64;
        let mut j = 0usize;
        for (i, z) in amps.iter().enumerate() {
            cum += prob(z) * inv_total;
            while j < u.len() && u[j] < cum {
                out.push(i as u64);
                j += 1;
            }
            if j == u.len() {
                break;
            }
        }
    } else {
        let mass: Vec<f64> = amps
            .chunks(BLOCK)
            .map(|c| c.iter().map(prob).sum())
            .collect();
        let total: f64 = mass.iter().sum();
        let inv_total = 1.0 / total;
        let mut prefix = vec![0.0f64];
        let mut acc = 0.0f64;
        for &cm in &mass {
            acc += cm * inv_total;
            prefix.push(acc);
        }
        for c in 0..mass.len() {
            let lo = u.partition_point(|&x| x < prefix[c]);
            let hi = u.partition_point(|&x| x < prefix[c + 1]);
            if lo == hi {
                continue;
            }
            let base = c * BLOCK;
            let slice = &amps[base..(base + BLOCK).min(amps.len())];
            let start = out.len();
            let mut cum = prefix[c];
            let mut j = lo;
            for (i, z) in slice.iter().enumerate() {
                cum += prob(z) * inv_total;
                while j < hi && u[j] < cum {
                    out.push((base + i) as u64);
                    j += 1;
                }
                if j == hi {
                    break;
                }
            }
            // Round-off stragglers land on the block's last index.
            out.resize(start + hi - lo, (base + slice.len() - 1) as u64);
        }
    }
    // Uniforms past the final prefix (round-off): the last basis state.
    out.resize(m, (amps.len() - 1) as u64);
    out
}

/// What `SvBackend::sample` drew per request before the block CDF:
/// counts expanded from `m ≥ 2·2ⁿ`, the streaming merge below, each
/// index's measured bits extracted.
fn oracle_words<T: Scalar>(
    sv: &StateVector<T>,
    m: usize,
    rng: &mut PhiloxRng,
    measured: &[usize],
) -> Vec<u128> {
    let word = |index: u64| extract_bits(u128::from(index), measured);
    if m == 0 {
        return Vec::new();
    }
    if SamplingStrategy::Auto.is_counted(m, sv.amplitudes().len()) {
        return sampling::sample_counts(sv, m, rng)
            .into_iter()
            .flat_map(|(index, count)| std::iter::repeat_n(word(index), count as usize))
            .collect();
    }
    streaming_merge(sv, m, rng).into_iter().map(word).collect()
}

/// A `SvBackend` on `n` qubits whose measured register is a permutation
/// of a subset (so extraction is exercised, not the identity).
fn backend<T: Scalar>(n: usize) -> SvBackend<T> {
    let mut c = Circuit::new(n);
    let mut measured: Vec<usize> = (0..n).rev().step_by(2).collect();
    if n.is_multiple_of(2) {
        measured.push(0);
    }
    c.measure(&measured);
    SvBackend::new(&NoiseModel::new().apply(&c), SamplingStrategy::Auto).unwrap()
}

/// A random state of `n` qubits with whole runs of amplitudes zeroed —
/// empty blocks, empty block tails and plateaus in the running sums.
fn patchy_state<T: Scalar>(n: usize, seed: u64) -> StateVector<T> {
    let mut rng = PhiloxRng::new(seed, 11);
    let mut amps = ptsbe_math::random::random_state::<T>(1 << n, &mut rng);
    let run = 1usize << (n / 2);
    for chunk in amps.chunks_mut(run) {
        if rng.next_f64() < 0.4 {
            chunk.fill(Complex::zero());
        }
    }
    if seed.is_multiple_of(3) && n >= 14 {
        // The whole first block empty: uniforms start in a later one.
        amps[..BLOCK].fill(Complex::zero());
    }
    StateVector::from_amplitudes(amps)
}

/// One batch on `sv`: every request shape the sampler distinguishes.
/// Returns `(shots, stream)` pairs; a duplicated stream repeats a
/// request exactly.
fn request_mix(n: usize, seed: u64) -> Vec<(usize, u64)> {
    let merge_max = 2 * (1usize << n) - 1;
    vec![
        (16, seed),
        (0, seed + 1),
        (1, seed + 2),
        (merge_max, seed + 3),
        (16, seed),
        (16, seed + 4),
        (merge_max + 1, seed + 5),
        (1, seed + 2),
    ]
}

fn check_state<T: Scalar>(sv: &StateVector<T>, n: usize, seed: u64) -> Result<(), TestCaseError> {
    let be = backend::<T>(n);
    let mix = request_mix(n, seed);
    let mut rngs: Vec<PhiloxRng> = mix.iter().map(|&(_, s)| PhiloxRng::new(s, 7)).collect();
    let mut requests: Vec<(usize, &mut PhiloxRng)> =
        mix.iter().map(|&(m, _)| m).zip(rngs.iter_mut()).collect();
    let batched = be.sample_batch(&mut sv.clone(), &mut requests);
    prop_assert_eq!(batched.len(), mix.len());
    for (i, (&(m, s), got)) in mix.iter().zip(&batched).enumerate() {
        let want = oracle_words(sv, m, &mut PhiloxRng::new(s, 7), be.measured_qubits());
        prop_assert!(
            got == &want,
            "n {} seed {} request {} ({} shots)",
            n,
            seed,
            i,
            m
        );
        // Every request leaves its stream where the oracle leaves it.
        let mut oracle_rng = PhiloxRng::new(s, 7);
        oracle_words(sv, m, &mut oracle_rng, be.measured_qubits());
        prop_assert_eq!(rngs[i].next_u64(), oracle_rng.next_u64());
    }
    for &(m, s) in &mix {
        if SamplingStrategy::Auto.is_counted(m, sv.amplitudes().len()) {
            continue;
        }
        let got = sampling::sample_sorted_merge(sv, m, &mut PhiloxRng::new(s, 7));
        let want = streaming_merge(sv, m, &mut PhiloxRng::new(s, 7));
        prop_assert!(
            got == want,
            "sample_sorted_merge: n {} seed {} m {}",
            n,
            seed,
            m
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// One block, no restarts (≤ 13 qubits).
    #[test]
    fn one_block_states_match_the_streaming_merge(seed in 0u64..1_000, n in 1usize..14) {
        check_state(&patchy_state::<f64>(n, seed), n, seed)?;
    }

    /// Two blocks, the smallest state that restarts (14 qubits).
    #[test]
    fn two_block_states_match_the_streaming_merge(seed in 0u64..1_000) {
        check_state(&patchy_state::<f64>(14, seed), 14, seed)?;
    }

    /// Four and eight blocks, `f64` and `f32` amplitudes.
    #[test]
    fn many_block_states_match_the_streaming_merge(seed in 0u64..1_000, n in 15usize..17) {
        check_state(&patchy_state::<f64>(n, seed), n, seed)?;
        check_state(&patchy_state::<f32>(n, seed), n, seed)?;
    }
}

#[test]
fn states_without_a_norm_match_the_streaming_merge() {
    for n in [3, 13, 14, 15] {
        let zero = StateVector::<f64>::from_amplitudes(vec![Complex::zero(); 1 << n]);
        check_state(&zero, n, 90).unwrap();
        for at in [0, (1 << n) * 5 / 8, (1 << n) - 1] {
            let mut nan = patchy_state::<f64>(n, 91);
            nan.amplitudes_mut()[at] = Complex::new(f64::NAN, 0.0);
            check_state(&nan, n, 92).unwrap();
        }
    }
}

/// A 14-qubit chain of rotations and entanglers under depolarizing noise.
fn noisy_chain(n: usize) -> NoisyCircuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.ry(q, 0.3 + 0.17 * q as f64);
    }
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    for q in 0..n {
        c.rx(q, 0.9 - 0.05 * q as f64);
    }
    c.measure_all();
    NoiseModel::new()
        .with_default_2q(channels::depolarizing2(0.02))
        .apply(&c)
}

#[test]
fn tree_leaves_serving_many_trajectories_match_per_request_oracle_sampling() {
    let n = 14;
    let nc = noisy_chain(n);
    let be = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
    let identity = nc.identity_assignment().unwrap();
    let mut flipped = identity.clone();
    flipped[3] = 2;
    let counted = 2 << n;
    let plan = PtsPlan {
        trajectories: [
            (&identity, 16),
            (&flipped, 16),
            (&identity, 1),
            (&identity, 300),
            (&flipped, counted),
            (&identity, 16),
            (&flipped, 5),
            (&identity, 0),
        ]
        .into_iter()
        .map(|(choices, shots)| PlannedTrajectory {
            choices: choices.clone(),
            shots,
        })
        .collect(),
    };
    let tree = PtsPlanTree::from_plan(&plan);
    let widest = (0..tree.n_nodes())
        .map(|i| tree.node(i).leaves.len())
        .max()
        .unwrap();
    assert!(widest >= 5, "a leaf serves {widest} trajectories");
    for parallel in [false, true] {
        let exec = TreeExecutor { seed: 77, parallel };
        let result = exec.execute(&be, &nc, &plan);
        assert_eq!(result.trajectories.len(), plan.trajectories.len());
        for (idx, (traj, got)) in plan
            .trajectories
            .iter()
            .zip(&result.trajectories)
            .enumerate()
        {
            let (state, realized) = be.prepare(&traj.choices);
            let want = oracle_words(
                &state,
                traj.shots,
                &mut PhiloxRng::for_trajectory(77, idx as u64),
                be.measured_qubits(),
            );
            assert_eq!(got.shots, want, "trajectory {idx}");
            assert_eq!(
                got.meta.realized_prob.to_bits(),
                realized.to_bits(),
                "trajectory {idx}"
            );
        }
    }
}
