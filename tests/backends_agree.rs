//! Cross-backend agreement: the same noisy circuit must produce the same
//! physics on every stack — statevector, MPS, density-matrix oracle, and
//! (for Clifford content) the stabilizer frame sampler.

use ptsbe::core::stats::{histogram, tvd};
use ptsbe::prelude::*;
use ptsbe::stabilizer::FrameSampler;

fn workload(p: f64) -> (Circuit, NoisyCircuit) {
    let mut c = Circuit::new(4);
    c.h(0)
        .cx(0, 1)
        .cx(1, 2)
        .cx(2, 3)
        .s(1)
        .cx(0, 2)
        .measure_all();
    let noisy = NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing2(p))
        .apply(&c);
    (c, noisy)
}

#[test]
fn sv_mps_and_oracle_agree() {
    let (_, noisy) = workload(0.05);
    let shots = 40_000;

    let sv_shots = run_baseline_sv::<f64>(&noisy, shots, 901);
    let mps_shots =
        run_baseline_mps::<f64>(&noisy, shots, 902, MpsConfig::exact().with_max_bond(32));
    let exact = DensityMatrix::evolve(&noisy).probabilities();

    let h_sv = histogram(sv_shots.iter().copied(), 16);
    let h_mps = histogram(mps_shots.iter().copied(), 16);
    assert!(
        tvd(&h_sv, &exact) < 0.015,
        "SV vs oracle: {}",
        tvd(&h_sv, &exact)
    );
    assert!(
        tvd(&h_mps, &exact) < 0.015,
        "MPS vs oracle: {}",
        tvd(&h_mps, &exact)
    );
}

#[test]
fn ptsbe_agrees_across_backends() {
    let (_, noisy) = workload(0.08);
    let mut rng = PhiloxRng::new(903, 0);
    let plan = ProbabilisticPts {
        n_samples: 30_000,
        shots_per_trajectory: 1,
        dedup: false,
    }
    .sample_plan(&noisy, &mut rng);

    let sv = SvBackend::<f64>::new(&noisy, SamplingStrategy::Auto).unwrap();
    let mps = MpsBackend::<f64>::new(
        &noisy,
        MpsConfig::exact().with_max_bond(32),
        MpsSampleMode::default(),
    )
    .unwrap();
    let exec = BatchedExecutor::default();
    let r_sv = exec.execute(&sv, &noisy, &plan);
    let r_mps = exec.execute(&mps, &noisy, &plan);

    let h_sv = histogram(r_sv.all_shots(), 16);
    let h_mps = histogram(r_mps.all_shots(), 16);
    let d = tvd(&h_sv, &h_mps);
    assert!(d < 0.015, "PTSBE SV vs MPS TVD: {d}");
    // Same plan -> identical provenance on both backends.
    for (a, b) in r_sv.trajectories.iter().zip(&r_mps.trajectories) {
        assert_eq!(a.meta.choices, b.meta.choices);
        assert!((a.meta.realized_prob - b.meta.realized_prob).abs() < 1e-9);
    }
}

#[test]
fn frame_sampler_agrees_on_clifford_workload() {
    // Clifford circuit + Pauli noise with *deterministic* reference
    // measurements (the frame sampler's validity domain — syndrome-style
    // circuits): a CX network that composes to the identity, so every
    // noiseless measurement is 0, while injected Paulis propagate.
    let mut c = Circuit::new(4);
    c.cx(0, 1)
        .cx(2, 3)
        .cx(1, 2)
        .cx(1, 2)
        .cx(0, 1)
        .cx(2, 3)
        .measure_all();
    let noisy = NoiseModel::new()
        .with_default_2q(channels::depolarizing2(0.04))
        .apply(&c);
    let shots = 60_000;

    let mut rng = PhiloxRng::new(904, 0);
    let sampler = FrameSampler::new(&noisy, &mut rng).expect("Clifford circuit");
    let frames = sampler.sample(shots, &mut rng);
    assert!(!frames.reference_was_random);

    let sv_shots = run_baseline_sv::<f64>(&noisy, shots, 905);
    let h_frames = histogram(frames.shots.iter().copied(), 16);
    let h_sv = histogram(sv_shots.iter().copied(), 16);
    let d = tvd(&h_frames, &h_sv);
    assert!(d < 0.015, "frame sampler vs statevector TVD: {d}");
}

/// Assert two batch results are bitwise identical: same plan order, same
/// provenance, same realized-probability bits, same shot records.
fn assert_bitwise_identical(
    label: &str,
    tree: &ptsbe::core::BatchResult,
    flat: &ptsbe::core::BatchResult,
) {
    assert_eq!(
        tree.trajectories.len(),
        flat.trajectories.len(),
        "{label}: trajectory count"
    );
    for (i, (a, b)) in tree.trajectories.iter().zip(&flat.trajectories).enumerate() {
        assert_eq!(a.meta.traj_id, b.meta.traj_id, "{label}: plan order at {i}");
        assert_eq!(a.meta.choices, b.meta.choices, "{label}: choices at {i}");
        assert_eq!(
            a.meta.realized_prob.to_bits(),
            b.meta.realized_prob.to_bits(),
            "{label}: realized prob at {i}"
        );
        assert_eq!(a.shots, b.shots, "{label}: shots at {i}");
    }
}

#[test]
fn tree_executor_is_bitwise_identical_to_flat_on_both_backends() {
    let (_, noisy) = workload(0.08);
    let sv = SvBackend::<f64>::new(&noisy, SamplingStrategy::Auto).unwrap();
    let mps = MpsBackend::<f64>::new(
        &noisy,
        MpsConfig::exact().with_max_bond(32),
        MpsSampleMode::default(),
    )
    .unwrap();

    let mut rng = PhiloxRng::new(910, 0);
    let plans: Vec<(&str, PtsPlan)> = vec![
        (
            "probabilistic",
            ProbabilisticPts {
                n_samples: 40,
                shots_per_trajectory: 25,
                dedup: true,
            }
            .sample_plan(&noisy, &mut rng),
        ),
        (
            "probabilistic-dup",
            ProbabilisticPts {
                n_samples: 40,
                shots_per_trajectory: 25,
                dedup: false,
            }
            .sample_plan(&noisy, &mut rng),
        ),
        (
            "proportional",
            ProportionalPts {
                n_samples: 200,
                total_shots: 1_000,
            }
            .sample_plan(&noisy, &mut rng),
        ),
    ];

    // The exhaustive sampler enumerates every branch combination, so it
    // gets a smaller circuit (the 4-qubit workload has 4^10 combinations).
    let mut small = Circuit::new(2);
    small.h(0).cx(0, 1).measure_all();
    let small_noisy = NoiseModel::new()
        .with_default_1q(channels::depolarizing(0.08))
        .with_default_2q(channels::depolarizing2(0.08))
        .apply(&small);
    let small_plan = ExhaustivePts {
        shots_per_trajectory: 5,
        max_trajectories: 1 << 12,
    }
    .sample_plan(&small_noisy, &mut rng);
    let small_sv = SvBackend::<f64>::new(&small_noisy, SamplingStrategy::Auto).unwrap();
    let small_mps = MpsBackend::<f64>::new(
        &small_noisy,
        MpsConfig::exact().with_max_bond(16),
        MpsSampleMode::default(),
    )
    .unwrap();

    let flat = BatchedExecutor {
        seed: 99,
        parallel: true,
    };
    let tree = TreeExecutor {
        seed: 99,
        parallel: true,
    };

    assert_bitwise_identical(
        "sv/exhaustive",
        &tree.execute(&small_sv, &small_noisy, &small_plan),
        &flat.execute(&small_sv, &small_noisy, &small_plan),
    );
    assert_bitwise_identical(
        "mps/exhaustive",
        &tree.execute(&small_mps, &small_noisy, &small_plan),
        &flat.execute(&small_mps, &small_noisy, &small_plan),
    );

    for (name, plan) in &plans {
        let prefix_tree = PtsPlanTree::from_plan(plan);
        if plan.n_trajectories() > 1 {
            assert!(
                prefix_tree.n_edges() < prefix_tree.flat_prep_ops(),
                "{name}: expected strictly fewer site-advances than flat \
                 ({} vs {})",
                prefix_tree.n_edges(),
                prefix_tree.flat_prep_ops()
            );
        }
        let r_sv_flat = flat.execute(&sv, &noisy, plan);
        let r_sv_tree = tree.execute(&sv, &noisy, plan);
        assert_bitwise_identical(&format!("sv/{name}"), &r_sv_tree, &r_sv_flat);

        let r_mps_flat = flat.execute(&mps, &noisy, plan);
        let r_mps_tree = tree.execute(&mps, &noisy, plan);
        assert_bitwise_identical(&format!("mps/{name}"), &r_mps_tree, &r_mps_flat);
    }
}

#[test]
fn tree_executor_handles_general_channels_identically() {
    // Amplitude damping exercises the non-unitary Kraus path, where the
    // realized probability is state-dependent and zero-probability
    // branches must stay empty on both executors.
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).cx(1, 2).measure_all();
    let noisy = NoiseModel::new()
        .with_default_1q(channels::amplitude_damping(0.2))
        .with_default_2q(channels::amplitude_damping(0.2))
        .apply(&c);
    let mut rng = PhiloxRng::new(911, 0);
    let plan = ExhaustivePts {
        shots_per_trajectory: 20,
        max_trajectories: 200,
    }
    .sample_plan(&noisy, &mut rng);
    let sv = SvBackend::<f64>::new(&noisy, SamplingStrategy::Auto).unwrap();
    let r_flat = BatchedExecutor {
        seed: 5,
        parallel: false,
    }
    .execute(&sv, &noisy, &plan);
    let r_tree = TreeExecutor {
        seed: 5,
        parallel: false,
    }
    .execute(&sv, &noisy, &plan);
    assert_bitwise_identical("sv/damping", &r_tree, &r_flat);
}

#[test]
fn f32_backend_matches_f64() {
    let (_, noisy) = workload(0.05);
    let mut rng = PhiloxRng::new(906, 0);
    let plan = ProbabilisticPts {
        n_samples: 100,
        shots_per_trajectory: 400,
        dedup: true,
    }
    .sample_plan(&noisy, &mut rng);
    let exec = BatchedExecutor::default();
    let r32 = exec.execute(
        &SvBackend::<f32>::new(&noisy, SamplingStrategy::Auto).unwrap(),
        &noisy,
        &plan,
    );
    let r64 = exec.execute(
        &SvBackend::<f64>::new(&noisy, SamplingStrategy::Auto).unwrap(),
        &noisy,
        &plan,
    );
    let h32 = histogram(r32.all_shots(), 16);
    let h64 = histogram(r64.all_shots(), 16);
    assert!(
        tvd(&h32, &h64) < 0.02,
        "f32 vs f64 TVD: {}",
        tvd(&h32, &h64)
    );
}
