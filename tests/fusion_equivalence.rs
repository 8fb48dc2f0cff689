//! Fused-vs-unfused equivalence: the lock-down suite for the gate-fusion
//! compilation pass.
//!
//! Fusion is default-on, so these tests pin the contract that makes that
//! safe: per backend, the fused pipeline produces the same physics as the
//! unfused reference pipeline — final-state fidelity within 1e-12 on
//! random circuits, and *identical measurement bitstreams* on the
//! cross-backend circuit zoo (same seeds, same plans, same executors).

use ptsbe::core::Backend;
use ptsbe::prelude::*;
use ptsbe::statevector::exec as sv_exec;

/// The `backends_agree.rs` circuit zoo entry: Clifford+S ladder.
fn zoo_ladder(p: f64) -> NoisyCircuit {
    let mut c = Circuit::new(4);
    c.h(0)
        .cx(0, 1)
        .cx(1, 2)
        .cx(2, 3)
        .s(1)
        .cx(0, 2)
        .measure_all();
    NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing2(p))
        .apply(&c)
}

/// The non-Clifford zoo circuit: T/rotation layers between entanglers,
/// so the fused stream exercises dense, diagonal and permutation
/// kernels. Shared by the saturated-noise and entangler-noise variants.
fn rotations_circuit() -> Circuit {
    let mut c = Circuit::new(4);
    c.h(0).h(1).h(2).h(3);
    c.t(0).rz(1, 0.31).cx(0, 1).s(2).tdg(3).cx(2, 3);
    c.x(1).y(2).z(3).cz(1, 2).rx(0, 0.7).swap(0, 3);
    c.measure_all();
    c
}

/// Non-Clifford zoo entry under saturated noise (a site after every
/// gate).
fn zoo_rotations(p: f64) -> NoisyCircuit {
    NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing2(p))
        .apply(&rotations_circuit())
}

/// General-channel zoo entry (state-dependent Kraus weights).
fn zoo_damping() -> NoisyCircuit {
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).t(1).cx(1, 2).measure_all();
    NoiseModel::new()
        .with_default_1q(channels::amplitude_damping(0.2))
        .with_default_2q(channels::amplitude_damping(0.2))
        .apply(&c)
}

/// Seeded random circuit over the full 1q/2q gate mix.
fn random_circuit(n: usize, depth: usize, p: f64, seed: u64) -> NoisyCircuit {
    let mut rng = PhiloxRng::new(seed, 0);
    let mut c = Circuit::new(n);
    for _ in 0..depth {
        let r = rng.next_u64();
        let a = (r % n as u64) as usize;
        let b = ((r >> 16) % n as u64) as usize;
        match (r >> 32) % 8 {
            0 => {
                c.h(a);
            }
            1 => {
                c.t(a);
            }
            2 => {
                c.rz(a, 0.1 + (r % 100) as f64 / 50.0);
            }
            3 => {
                c.x(a);
            }
            4 => {
                c.sx(a);
            }
            5 if a != b => {
                c.cx(a, b);
            }
            6 if a != b => {
                c.cz(a, b);
            }
            7 if a != b => {
                c.swap(a, b);
            }
            _ => {
                c.s(a);
            }
        }
    }
    c.measure_all();
    NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing(p))
        .apply(&c)
}

#[test]
fn fused_final_states_match_unfused_on_random_circuits() {
    for seed in 0..12u64 {
        let nc = random_circuit(4, 24, 0.1, 1000 + seed);
        let fused = sv_exec::compile::<f64>(&nc).unwrap();
        let unfused = sv_exec::compile_with::<f64>(&nc, false).unwrap();
        let stats = fused.fusion_stats();
        assert!(
            stats.ops_after <= stats.ops_before,
            "fusion grew the stream: {stats}"
        );

        // Identity trajectory plus a few error branches.
        let mut assignments = vec![nc.identity_assignment().unwrap()];
        for k in 0..3usize {
            let mut choices = nc.identity_assignment().unwrap();
            let site = (seed as usize + k * 5) % nc.n_sites();
            choices[site] = 1 + k % 3;
            assignments.push(choices);
        }
        for choices in assignments {
            let (a, pa) = sv_exec::prepare(&fused, &choices);
            let (b, pb) = sv_exec::prepare(&unfused, &choices);
            assert_eq!(
                pa.to_bits(),
                pb.to_bits(),
                "unitary-mixture branch probabilities are exact"
            );
            let fid = a.fidelity(&b);
            assert!(
                fid >= 1.0 - 1e-12,
                "seed {seed}: fused/unfused fidelity {fid}"
            );
        }
    }
}

#[test]
fn fused_bitstreams_identical_on_sv_across_zoo() {
    for (name, nc) in [
        ("ladder", zoo_ladder(0.08)),
        ("rotations", zoo_rotations(0.05)),
        ("damping", zoo_damping()),
    ] {
        let fused = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
        let unfused =
            SvBackend::<f64>::new_with_fusion(&nc, SamplingStrategy::Auto, false).unwrap();
        let mut rng = PhiloxRng::new(2000, 0);
        let plan = ProbabilisticPts {
            n_samples: 50,
            shots_per_trajectory: 200,
            dedup: false,
        }
        .sample_plan(&nc, &mut rng);
        for exec in [
            BatchedExecutor {
                seed: 11,
                parallel: true,
            },
            BatchedExecutor {
                seed: 11,
                parallel: false,
            },
        ] {
            let a = exec.execute(&fused, &nc, &plan);
            let b = exec.execute(&unfused, &nc, &plan);
            assert_eq!(a.trajectories.len(), b.trajectories.len());
            for (x, y) in a.trajectories.iter().zip(&b.trajectories) {
                assert_eq!(x.shots, y.shots, "{name}: SV bitstream diverged");
            }
        }
    }
}

#[test]
fn fused_bitstreams_identical_on_mps_across_zoo() {
    let config = MpsConfig::exact().with_max_bond(32);
    for (name, nc) in [
        ("ladder", zoo_ladder(0.08)),
        ("rotations", zoo_rotations(0.05)),
        ("damping", zoo_damping()),
    ] {
        let fused = MpsBackend::<f64>::new(&nc, config, MpsSampleMode::default()).unwrap();
        let unfused =
            MpsBackend::<f64>::new_with_fusion(&nc, config, MpsSampleMode::default(), false)
                .unwrap();
        let mut rng = PhiloxRng::new(2100, 0);
        let plan = ProbabilisticPts {
            n_samples: 30,
            shots_per_trajectory: 100,
            dedup: false,
        }
        .sample_plan(&nc, &mut rng);
        let exec = BatchedExecutor {
            seed: 13,
            parallel: true,
        };
        let a = exec.execute(&fused, &nc, &plan);
        let b = exec.execute(&unfused, &nc, &plan);
        for (x, y) in a.trajectories.iter().zip(&b.trajectories) {
            assert_eq!(x.shots, y.shots, "{name}: MPS bitstream diverged");
        }
    }
}

#[test]
fn tree_executor_stays_bitwise_on_fused_stream() {
    // Fusion must compose with PR 1's prefix sharing: the tree executor
    // on the fused backend is still bitwise identical to the flat
    // executor on the same fused backend.
    let nc = zoo_rotations(0.08);
    let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
    let mut rng = PhiloxRng::new(2200, 0);
    let plan = ProbabilisticPts {
        n_samples: 60,
        shots_per_trajectory: 40,
        dedup: false,
    }
    .sample_plan(&nc, &mut rng);
    let flat = BatchedExecutor {
        seed: 17,
        parallel: true,
    }
    .execute(&backend, &nc, &plan);
    let tree = TreeExecutor {
        seed: 17,
        parallel: true,
    }
    .execute(&backend, &nc, &plan);
    for (a, b) in tree.trajectories.iter().zip(&flat.trajectories) {
        assert_eq!(a.meta.choices, b.meta.choices);
        assert_eq!(
            a.meta.realized_prob.to_bits(),
            b.meta.realized_prob.to_bits()
        );
        assert_eq!(a.shots, b.shots);
    }
}

/// Rotation zoo with noise only on the entanglers (the common hardware
/// model: 1q gates are an order of magnitude cleaner). The 1q layers
/// between noise sites are what fusion folds into the 2q kernels.
fn zoo_rotations_entangler_noise(p: f64) -> NoisyCircuit {
    NoiseModel::new()
        .with_default_2q(channels::depolarizing2(p))
        .apply(&rotations_circuit())
}

#[test]
fn fusion_reduces_op_count_under_entangler_noise() {
    // With a noise site after every gate, segments hold one gate each and
    // fusion is a structural no-op (ops_after == ops_before) — asserted
    // below. Under entangler-only noise the 1q runs fold away.
    let nc = zoo_rotations_entangler_noise(0.05);
    let backend = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
    let stats = backend.fusion_stats();
    assert!(
        stats.ops_after < stats.ops_before,
        "expected a measurable reduction, got {stats}"
    );
    assert_eq!(
        stats.dense + stats.diagonal + stats.permutation + stats.passthrough,
        stats.ops_after,
        "histogram must cover the fused stream"
    );

    // Saturated noise: every gate is followed by a site, runs have
    // length one, and fusion must not grow the stream.
    let saturated = SvBackend::<f64>::new(&zoo_rotations(0.05), SamplingStrategy::Auto).unwrap();
    let s = saturated.fusion_stats();
    assert_eq!(s.ops_after, s.ops_before, "{s}");

    // The noise-free stream must light up several kernel classes.
    let pure =
        SvBackend::<f64>::new(&zoo_rotations_entangler_noise(0.0), SamplingStrategy::Auto).unwrap();
    let stats = pure.fusion_stats();
    assert!(stats.dense > 0, "{stats}");
    assert!(stats.diagonal + stats.permutation > 0, "{stats}");
}

#[test]
fn fused_mps_matches_fused_sv_physics() {
    // Cross-backend sanity on the fused default: per-trajectory state
    // weights agree between SV and MPS.
    let nc = zoo_rotations(0.06);
    let sv = SvBackend::<f64>::new(&nc, SamplingStrategy::Auto).unwrap();
    let mps = MpsBackend::<f64>::new(
        &nc,
        MpsConfig::exact().with_max_bond(32),
        MpsSampleMode::default(),
    )
    .unwrap();
    let mut choices = nc.identity_assignment().unwrap();
    choices[2] = 1;
    choices[5] = 3;
    let (_, p_sv) = sv.prepare(&choices);
    let (_, p_mps) = mps.prepare(&choices);
    assert!((p_sv - p_mps).abs() < 1e-10, "{p_sv} vs {p_mps}");
}
