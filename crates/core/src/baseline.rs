//! The conventional trajectory engine — the paper's Algorithm 1.
//!
//! Every shot pays the full price: state preparation from scratch,
//! per-site noise sampling *during* evolution (state-dependent
//! probabilities for general channels), and a single measurement record
//! at the end. This is the comparator PTSBE's speedups (Figs. 4–5) are
//! measured against, and — for unitary-mixture channels — the exact
//! distributional equal of a PTSBE run, which the workspace property
//! tests verify.

use ptsbe_circuit::lower::Pick;
use ptsbe_circuit::NoisyCircuit;
use ptsbe_math::Scalar;
use ptsbe_rng::{PhiloxRng, Rng};
use ptsbe_statevector::exec::{advance_with, compile, Compiled};
use ptsbe_statevector::sampling::{extract_bits, sample_shots};
use ptsbe_statevector::{SamplingStrategy, StateVector};
use ptsbe_tensornet::exec::advance_mps_with;
use ptsbe_tensornet::{compile_mps, Mps, MpsCompiled, MpsConfig};
use rayon::prelude::*;

/// Run `shots` independent Algorithm-1 trajectories on the statevector
/// backend (one preparation *per shot*). Parallel over contiguous shot
/// ranges — each worker reuses a single scratch state across its shots
/// (`|0…0⟩` reset in place), so the loop performs no per-shot
/// allocations. Each shot keeps its own Philox stream, so results are
/// identical for any range split.
pub fn run_baseline_sv<T: Scalar>(nc: &NoisyCircuit, shots: usize, seed: u64) -> Vec<u128> {
    let compiled = compile::<T>(nc).expect("baseline: circuit must be BE-compatible");
    let workers = rayon::current_num_threads().max(1).min(shots.max(1));
    let per = shots.div_ceil(workers).max(1);
    let ranges: Vec<std::ops::Range<usize>> = (0..workers)
        .map(|w| (w * per).min(shots)..((w + 1) * per).min(shots))
        .filter(|r| !r.is_empty())
        .collect();
    ranges
        .into_par_iter()
        .map(|range| {
            let mut scratch = StateVector::zero_state(compiled.n_qubits());
            range
                .map(|s| {
                    let mut rng = PhiloxRng::for_trajectory(seed, s as u64);
                    baseline_one_sv_into(&compiled, &mut rng, &mut scratch)
                })
                .collect::<Vec<u128>>()
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flatten()
        .collect()
}

/// One Algorithm-1 trajectory + single-shot measurement (statevector).
pub fn baseline_one_sv<T: Scalar, R: Rng + ?Sized>(compiled: &Compiled<T>, rng: &mut R) -> u128 {
    let mut sv = StateVector::zero_state(compiled.n_qubits());
    baseline_one_sv_into(compiled, rng, &mut sv)
}

/// One Algorithm-1 trajectory into a caller-owned scratch state (reset to
/// `|0…0⟩` in place — the allocation-free repeated-shot path).
pub fn baseline_one_sv_into<T: Scalar, R: Rng + ?Sized>(
    compiled: &Compiled<T>,
    rng: &mut R,
    sv: &mut StateVector<T>,
) -> u128 {
    assert_eq!(sv.n_qubits(), compiled.n_qubits(), "scratch shape mismatch");
    sv.reset_zero();
    // Algorithm 1, lines 4-11: the engine's own walk, with the branch of
    // each site drawn when the site fires instead of read from a plan.
    advance_with(compiled, sv, 0..compiled.n_segments(), |_| {
        Pick::Uniform(rng.next_f64())
    });
    let shot = sample_shots(sv, 1, rng, SamplingStrategy::Auto)[0];
    u128::from(extract_bits(shot, compiled.measured_qubits()))
}

/// Algorithm-1 baseline on the MPS backend (one preparation per shot).
pub fn run_baseline_mps<T: Scalar>(
    nc: &NoisyCircuit,
    shots: usize,
    seed: u64,
    config: MpsConfig,
) -> Vec<u128> {
    let compiled = compile_mps::<T>(nc).expect("baseline: circuit must be MPS-compatible");
    (0..shots)
        .into_par_iter()
        .map(|s| {
            let mut rng = PhiloxRng::for_trajectory(seed, s as u64);
            baseline_one_mps(&compiled, config, &mut rng)
        })
        .collect()
}

/// One Algorithm-1 trajectory + single-shot measurement (MPS).
pub fn baseline_one_mps<T: Scalar, R: Rng + ?Sized>(
    compiled: &MpsCompiled<T>,
    config: MpsConfig,
    rng: &mut R,
) -> u128 {
    let mut mps = Mps::zero_state(compiled.n_qubits(), config);
    advance_mps_with(compiled, &mut mps, 0..compiled.n_segments(), |_| {
        Pick::Uniform(rng.next_f64())
    });
    let full = ptsbe_tensornet::sample::sample_shots_cached(&mut mps, 1, rng)[0];
    ptsbe_rng::bits::extract_bits(full, compiled.measured_qubits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SvBackend;
    use crate::be::BatchedExecutor;
    use crate::pts::{ProbabilisticPts, PtsSampler};
    use crate::stats::{histogram, tvd};
    use ptsbe_circuit::{channels, Circuit, NoiseModel};

    fn noisy_bell(p: f64) -> NoisyCircuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        NoiseModel::new()
            .with_default_1q(channels::depolarizing(p))
            .with_default_2q(channels::depolarizing(p))
            .apply(&c)
    }

    #[test]
    fn baseline_matches_density_matrix() {
        let nc = noisy_bell(0.25);
        let shots = 60_000;
        let result = run_baseline_sv::<f64>(&nc, shots, 170);
        let hist = histogram(result.iter().copied(), 4);
        let dm = ptsbe_densitymatrix::DensityMatrix::evolve(&nc);
        let exact = dm.probabilities();
        let d = tvd(&hist, &exact);
        assert!(d < 0.01, "baseline TVD vs oracle: {d}");
    }

    #[test]
    fn baseline_matches_ptsbe_distribution() {
        // The headline equivalence: for unitary-mixture channels,
        // Algorithm 1 and PTSBE (proportional sampling, 1 shot each, no
        // dedup) draw from the same distribution.
        let nc = noisy_bell(0.2);
        let shots = 50_000;
        let base = run_baseline_sv::<f64>(&nc, shots, 171);

        let backend = SvBackend::<f64>::new(&nc, Default::default()).unwrap();
        let mut rng = PhiloxRng::new(172, 0);
        let plan = ProbabilisticPts {
            n_samples: shots,
            shots_per_trajectory: 1,
            dedup: false,
        }
        .sample_plan(&nc, &mut rng);
        let ptsbe = BatchedExecutor::default().execute(&backend, &nc, &plan);

        let h1 = histogram(base.iter().copied(), 4);
        let h2 = histogram(ptsbe.all_shots(), 4);
        let d = tvd(&h1, &h2);
        assert!(d < 0.012, "baseline vs PTSBE TVD: {d}");
    }

    #[test]
    fn baseline_general_channel_matches_oracle() {
        // Amplitude damping has state-dependent branch probabilities:
        // exercises Algorithm 1's line 9.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let nc = NoiseModel::new()
            .with_default_1q(channels::amplitude_damping(0.3))
            .with_default_2q(channels::amplitude_damping(0.3))
            .apply(&c);
        let shots = 60_000;
        let result = run_baseline_sv::<f64>(&nc, shots, 173);
        let hist = histogram(result.iter().copied(), 4);
        let dm = ptsbe_densitymatrix::DensityMatrix::evolve(&nc);
        let d = tvd(&hist, &dm.probabilities());
        assert!(d < 0.01, "general-channel baseline TVD: {d}");
    }

    #[test]
    fn baseline_mps_matches_sv() {
        let nc = noisy_bell(0.15);
        let shots = 30_000;
        let sv = run_baseline_sv::<f64>(&nc, shots, 174);
        let mps = run_baseline_mps::<f64>(&nc, shots, 174, MpsConfig::exact().with_max_bond(8));
        let h1 = histogram(sv.iter().copied(), 4);
        let h2 = histogram(mps.iter().copied(), 4);
        assert!(tvd(&h1, &h2) < 0.015);
    }

    use ptsbe_rng::PhiloxRng;
}
