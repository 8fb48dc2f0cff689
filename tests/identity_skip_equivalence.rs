//! Equivalence suite for the exact-identity Kraus-branch skip.
//!
//! Under a low-noise unitary-mixture workload almost every resolved site
//! is the identity branch; since this PR all execution paths detect that
//! at compile time and elide the apply. These tests pin the two promises
//! the optimization makes: (1) the skip decision is taken *consistently*
//! — scalar, tree, batch-major and MPS paths remain bitwise aligned with
//! each other — and (2) skipping is a mathematical no-op: an all-identity
//! trajectory prepares exactly the noiseless state, and the weighted
//! outcome distribution still matches the density-matrix oracle.

use ptsbe::prelude::*;
use ptsbe::statevector::exec as sv_exec;

/// Low-noise unitary-mixture workload with non-Clifford content, so no
/// engine shortcut hides the skip path.
fn low_noise_t_layer(p: f64) -> (Circuit, NoisyCircuit) {
    let mut c = Circuit::new(4);
    c.h(0).t(0).cx(0, 1).t(1).cx(1, 2).sx(2).cx(2, 3).t(3);
    c.measure_all();
    let nc = NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing2(p))
        .apply(&c);
    (c, nc)
}

#[test]
fn compiled_sites_flag_identity_branches() {
    let (_, nc) = low_noise_t_layer(1e-3);
    let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
    assert!(nc.n_sites() > 0);
    for site in backend.compiled().sites() {
        assert!(site.is_unitary_mixture);
        // Depolarizing channels: branch 0 is the exact identity, and
        // only branch 0.
        assert!(site.skip_identity[0], "identity branch must be flagged");
        assert!(
            site.skip_identity[1..].iter().all(|&f| !f),
            "error branches must not be flagged"
        );
    }
}

#[test]
fn all_sv_paths_agree_bitwise_on_low_noise_mixture_workload() {
    let (_, nc) = low_noise_t_layer(1e-3);
    let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
    let mut rng = PhiloxRng::new(0xA5, 0);
    // dedup off: repeated identity assignments exercise the uniform
    // skip; occasional error draws exercise the masked per-lane skip.
    let plan = ProbabilisticPts {
        n_samples: 80,
        shots_per_trajectory: 25,
        dedup: false,
    }
    .sample_plan(&nc, &mut rng);
    let flat = BatchedExecutor {
        seed: 5,
        parallel: false,
    }
    .execute(&backend, &nc, &plan);
    let tree = TreeExecutor {
        seed: 5,
        parallel: true,
    }
    .execute(&backend, &nc, &plan);
    for lanes in [0usize, 3, 16] {
        let batch = BatchMajorExecutor {
            seed: 5,
            parallel: false,
            lanes,
            ..Default::default()
        }
        .execute(&backend, &nc, &plan);
        for ((a, b), c) in flat
            .trajectories
            .iter()
            .zip(&tree.trajectories)
            .zip(&batch.trajectories)
        {
            assert_eq!(a.shots, b.shots, "tree vs flat must stay bitwise");
            assert_eq!(a.shots, c.shots, "batch-major vs flat must stay bitwise");
            assert_eq!(
                a.meta.realized_prob.to_bits(),
                b.meta.realized_prob.to_bits()
            );
            assert_eq!(
                a.meta.realized_prob.to_bits(),
                c.meta.realized_prob.to_bits()
            );
        }
    }
}

#[test]
fn mps_tree_and_flat_agree_bitwise_with_skip() {
    let (_, nc) = low_noise_t_layer(5e-3);
    let backend = MpsBackend::<f64>::new(
        &nc,
        MpsConfig::exact().with_max_bond(32),
        MpsSampleMode::default(),
    )
    .unwrap();
    let mut rng = PhiloxRng::new(0xA6, 0);
    let plan = ProbabilisticPts {
        n_samples: 30,
        shots_per_trajectory: 10,
        dedup: false,
    }
    .sample_plan(&nc, &mut rng);
    let flat = BatchedExecutor {
        seed: 6,
        parallel: false,
    }
    .execute(&backend, &nc, &plan);
    let tree = TreeExecutor {
        seed: 6,
        parallel: false,
    }
    .execute(&backend, &nc, &plan);
    for (a, b) in flat.trajectories.iter().zip(&tree.trajectories) {
        assert_eq!(a.shots, b.shots, "MPS tree vs flat must stay bitwise");
    }
}

#[test]
fn identity_trajectory_prepares_exact_noiseless_state() {
    // With every identity branch skipped, the all-identity trajectory
    // applies literally the same kernel sequence as the noise-free
    // circuit (compare unfused so segmentation cannot regroup gates):
    // the prepared amplitudes must be bit-for-bit the pure state's.
    let (pure, nc) = low_noise_t_layer(1e-2);
    let noisy_compiled = sv_exec::compile_with::<f64>(&nc, false).unwrap();
    let pure_nc = NoisyCircuit::from_circuit(pure);
    let pure_compiled = sv_exec::compile_with::<f64>(&pure_nc, false).unwrap();

    let ident = nc.identity_assignment().unwrap();
    let (noisy_state, p) = sv_exec::prepare(&noisy_compiled, &ident);
    let (pure_state, _) = sv_exec::prepare(&pure_compiled, &[]);
    assert!(p > 0.0 && p < 1.0);
    for (a, b) in noisy_state.amplitudes().iter().zip(pure_state.amplitudes()) {
        assert_eq!(a.re.to_bits(), b.re.to_bits());
        assert_eq!(a.im.to_bits(), b.im.to_bits());
    }
}

#[test]
fn skip_preserves_physics_against_density_matrix_oracle() {
    // Small circuit, exhaustive plan: the importance-weighted histogram
    // over every trajectory must still reproduce the exact noisy
    // distribution with identity branches skipped.
    let mut c = Circuit::new(2);
    c.h(0).t(0).cx(0, 1).measure_all();
    let nc = NoiseModel::new()
        .with_default_1q(channels::depolarizing(0.08))
        .apply(&c);
    let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
    let mut rng = PhiloxRng::new(0xA7, 0);
    let plan = ExhaustivePts {
        shots_per_trajectory: 4000,
        max_trajectories: 100,
    }
    .sample_plan(&nc, &mut rng);
    let result = BatchedExecutor::default().execute(&backend, &nc, &plan);
    let mut est = [0.0f64; 4];
    for t in &result.trajectories {
        let w = t.meta.realized_prob / t.shots.len() as f64;
        for &s in &t.shots {
            est[s as usize] += w;
        }
    }
    let exact = DensityMatrix::evolve(&nc).probabilities();
    for i in 0..4 {
        assert!(
            (est[i] - exact[i]).abs() < 0.02,
            "outcome {i}: est {} vs exact {}",
            est[i],
            exact[i]
        );
    }
}
