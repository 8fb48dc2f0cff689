//! End-to-end block-encoded magic-state distillation: the paper's
//! 35-qubit workload running through PTSBE on the MPS backend.
//!
//! At zero noise, the encoded circuit must reproduce the bare protocol's
//! exact acceptance probability and output expectations — a stringent
//! validation of the encoder, the transversal compilation, *and* the MPS
//! execution at a size no dense statevector here could check directly.

use ptsbe::prelude::*;

/// Exact bare-protocol numbers from the statevector distribution.
fn bare_exact(basis: MeasureBasis) -> (f64, f64) {
    let (c, layout) = msd_bare(basis);
    let sv: StateVector<f64> = ptsbe::statevector::run_pure(&c).unwrap();
    let probs = sv.probabilities();
    let (mut p_acc, mut p_plus) = (0.0, 0.0);
    for (idx, &p) in probs.iter().enumerate() {
        let shot = idx as u128;
        let mut accept = true;
        let mut out = false;
        for b in 0..5 {
            let parity = layout.block_parity(shot, b);
            if b == layout.output_wire {
                out = parity;
            } else if parity {
                accept = false;
                break;
            }
        }
        if accept {
            p_acc += p;
            if !out {
                p_plus += p;
            }
        }
    }
    (p_acc, 2.0 * p_plus / p_acc - 1.0)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy 35-qubit MPS workload: run with `cargo test --release`"
)]
fn encoded_msd_matches_bare_at_zero_noise() {
    let code = codes::steane();
    let basis = MeasureBasis::Z;
    let (bare_acc, bare_exp) = bare_exact(basis);

    let (circuit, layout) = msd_encoded(&code, basis);
    assert_eq!(circuit.n_qubits(), 35);
    let noisy = NoiseModel::new().apply(&circuit); // zero noise

    // Budget-driven truncation with a χ=256 ceiling: bonds float at the
    // true Schmidt rank, the realized truncation error is exactly 0.0,
    // and the acceptance matches the bare exact value (measured 0.1691
    // vs 1/6). The seed's cap-driven χ=64 config lost 0.042 of
    // acceptance to silent truncation and failed this test.
    // Keep in lockstep with examples/msd_trunc_canary.rs.
    let backend = MpsBackend::<f64>::new(
        &noisy,
        MpsConfig::adaptive(256, 1e-5, 1e-2),
        MpsSampleMode::default(),
    )
    .unwrap();
    let plan = ptsbe::core::plan::PtsPlan {
        trajectories: vec![ptsbe::core::plan::PlannedTrajectory {
            choices: vec![],
            shots: 30_000,
        }],
    };
    let result = BatchedExecutor::default().execute(&backend, &noisy, &plan);

    let mut analysis = MsdAnalysis::default();
    for t in &result.trajectories {
        for &s in &t.shots {
            analysis.fold(&layout, None, s);
        }
    }
    assert!(
        (analysis.acceptance() - bare_acc).abs() < 0.015,
        "encoded acceptance {} vs bare exact {}",
        analysis.acceptance(),
        bare_acc
    );
    assert!(
        (analysis.expectation() - bare_exp).abs() < 0.03,
        "encoded ⟨Z̄⟩ {} vs bare exact {}",
        analysis.expectation(),
        bare_exp
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "heavy 35-qubit MPS workload: run with `cargo test --release`"
)]
fn encoded_msd_with_noise_and_decoding() {
    // With physical noise, per-block lookup decoding must recover *more*
    // accepted shots than raw parity post-selection.
    let code = codes::steane();
    let (circuit, layout) = msd_encoded(&code, MeasureBasis::Z);
    let p = 2e-3;
    let noisy = NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing(p))
        .apply(&circuit);
    // 40 noisy trajectories each pay a full prep, so this test keeps the
    // cheap χ=64 config: its assertions are statistical (decoding beats
    // raw post-selection), not exact-amplitude.
    let backend =
        MpsBackend::<f64>::new(&noisy, MpsConfig::new(64), MpsSampleMode::default()).unwrap();
    let mut rng = PhiloxRng::new(920, 0);
    let plan = ProbabilisticPts {
        n_samples: 40,
        shots_per_trajectory: 1_500,
        dedup: true,
    }
    .sample_plan(&noisy, &mut rng);
    let result = BatchedExecutor::default().execute(&backend, &noisy, &plan);

    let decoder = LookupDecoder::new(&code);
    let mut raw = MsdAnalysis::default();
    let mut decoded = MsdAnalysis::default();
    for t in &result.trajectories {
        for &s in &t.shots {
            raw.fold(&layout, None, s);
            decoded.fold(&layout, Some(&decoder), s);
        }
    }
    assert!(
        decoded.accepted >= raw.accepted,
        "decoding must not lose accepted shots: {} vs {}",
        decoded.accepted,
        raw.accepted
    );
    assert!(decoded.acceptance() > 0.05, "decoded acceptance collapsed");
    // Provenance labels exist for noisy trajectories.
    assert!(result
        .trajectories
        .iter()
        .any(|t| !t.meta.errors.is_empty()));
}
