//! Property tests: MPS ↔ statevector agreement on random circuits, and
//! gauge invariants.

use proptest::prelude::*;
use ptsbe_circuit::{Circuit, NoisyCircuit};
use ptsbe_math::random::haar_unitary;
use ptsbe_rng::PhiloxRng;
use ptsbe_statevector::StateVector;
use ptsbe_tensornet::{compile_mps, prepare_mps, Mps, MpsConfig};

fn exact() -> MpsConfig {
    MpsConfig::exact().with_max_bond(128)
}

/// A random entangling circuit from the op stream proptest generates:
/// rotations interleaved with CX/CZ at arbitrary (also non-adjacent)
/// qubit pairs.
fn random_circuit(n: usize, ops: &[(usize, usize, bool, f64)]) -> Circuit {
    let mut c = Circuit::new(n);
    for &(a_raw, b_raw, two_q, angle) in ops {
        let a = a_raw % n;
        let b = b_raw % n;
        if two_q && a != b {
            if angle < 0.0 {
                c.cz(a, b);
            } else {
                c.cx(a, b);
            }
        } else {
            c.ry(a, angle).t(a);
        }
    }
    c.measure_all();
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn random_circuits_match_statevector(
        seed in 0u64..500,
        n in 2usize..6,
        ops in prop::collection::vec((0usize..8, 0usize..8, prop::bool::ANY), 1..15),
    ) {
        let mut rng = PhiloxRng::new(seed, 11);
        let mut mps = Mps::<f64>::zero_state(n, exact());
        let mut sv = StateVector::<f64>::zero_state(n);
        for (a_raw, b_raw, two_q) in ops {
            let a = a_raw % n;
            let b = b_raw % n;
            if two_q && a != b {
                let u = haar_unitary::<f64>(4, &mut rng);
                mps.apply_2q(&u, a, b);
                sv.apply_2q(&u, a, b);
            } else {
                let u = haar_unitary::<f64>(2, &mut rng);
                mps.apply_1q(&u, a);
                sv.apply_1q(&u, a);
            }
        }
        // Fidelity via amplitudes (global-phase-free).
        let amps = mps.to_statevector();
        let mut acc = ptsbe_math::C64::zero();
        for (x, y) in amps.iter().zip(sv.amplitudes()) {
            acc += x.conj() * *y;
        }
        prop_assert!((acc.norm_sqr() - 1.0).abs() < 1e-7, "fidelity {}", acc.norm_sqr());
        prop_assert!(mps.truncation_error() < 1e-10);
    }

    #[test]
    fn gauge_moves_preserve_amplitudes(seed in 0u64..300, n in 2usize..6, target in 0usize..6) {
        let target = target % n;
        let mut rng = PhiloxRng::new(seed, 12);
        let mut mps = Mps::<f64>::zero_state(n, exact());
        for q in 0..n - 1 {
            let u = haar_unitary::<f64>(4, &mut rng);
            mps.apply_2q(&u, q, q + 1);
        }
        let before = mps.to_statevector();
        mps.move_center(target);
        mps.move_center(n - 1 - target.min(n - 1));
        let after = mps.to_statevector();
        for (x, y) in before.iter().zip(&after) {
            prop_assert!((*x - *y).abs() < 1e-9);
        }
        prop_assert!((mps.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn truncation_error_bounds_fidelity_loss(seed in 0u64..200, chi in 2usize..6) {
        // With bond cap χ the recorded truncation error must upper-bound
        // the fidelity deficit against the exact state (triangle-ish
        // inequality; generous constant for accumulation).
        let n = 6;
        let mut rng = PhiloxRng::new(seed, 13);
        let mut exact_mps = Mps::<f64>::zero_state(n, exact());
        let mut trunc = Mps::<f64>::zero_state(n, MpsConfig::exact().with_max_bond(chi));
        for q in 0..n - 1 {
            let u = haar_unitary::<f64>(4, &mut rng);
            exact_mps.apply_2q(&u, q, q + 1);
            trunc.apply_2q(&u, q, q + 1);
        }
        let a = exact_mps.to_statevector();
        let b = trunc.to_statevector();
        let mut acc = ptsbe_math::C64::zero();
        for (x, y) in a.iter().zip(&b) {
            acc += x.conj() * *y;
        }
        let infidelity = 1.0 - acc.norm_sqr();
        let bound = 4.0 * trunc.truncation_error() + 1e-9;
        prop_assert!(
            infidelity <= bound,
            "infidelity {infidelity} exceeds 4x recorded truncation {bound}"
        );
    }

    /// Budget-driven truncation at a tight per-update budget reproduces
    /// the exact contraction: on small random circuits the adaptive MPS
    /// must agree with `run_pure`'s dense statevector.
    #[test]
    fn adaptive_tight_budget_matches_run_pure(
        n in 2usize..6,
        ops in prop::collection::vec(
            (0usize..8, 0usize..8, prop::bool::ANY, -1.5f64..1.5), 1..25),
    ) {
        let c = random_circuit(n, &ops);
        let sv: StateVector<f64> = ptsbe_statevector::run_pure(&c).unwrap();
        let nc = NoisyCircuit::from_circuit(c);
        let compiled = compile_mps::<f64>(&nc).unwrap();
        let config = MpsConfig::adaptive(64, 1e-12, 1e-9);
        let (mps, _) = prepare_mps(&compiled, &[], config);
        prop_assert!(mps.truncation_error() <= config.trunc_budget);
        prop_assert!(!mps.budget_exhausted());
        let amps = mps.to_statevector();
        let mut acc = ptsbe_math::C64::zero();
        for (x, y) in amps.iter().zip(sv.amplitudes()) {
            acc += x.conj() * *y;
        }
        prop_assert!(
            (acc.norm_sqr() - 1.0).abs() < 1e-7,
            "adaptive fidelity vs run_pure: {}",
            acc.norm_sqr()
        );
    }

    /// The zip-up long-range path reproduces the dense statevector on
    /// the same gates, within 1e-10 fidelity: at n ≤ 6 (bond ≤ 8)
    /// nothing truncates under `exact()`, so the dense state is the exact
    /// answer.
    #[test]
    fn zip_up_long_range_matches_dense(
        seed in 0u64..400,
        n in 3usize..7,
        pairs in prop::collection::vec((0usize..8, 0usize..8), 1..10),
    ) {
        let mut rng = PhiloxRng::new(seed, 14);
        let mut zip = Mps::<f64>::zero_state(n, exact());
        let mut dense = StateVector::<f64>::zero_state(n);
        // Entangle first so long-range gates act on non-product states.
        for q in 0..n - 1 {
            let u = haar_unitary::<f64>(4, &mut rng);
            zip.apply_2q(&u, q, q + 1);
            dense.apply_2q(&u, q, q + 1);
        }
        for (a_raw, b_raw) in pairs {
            let a = a_raw % n;
            let b = b_raw % n;
            if a == b {
                continue;
            }
            let u = haar_unitary::<f64>(4, &mut rng);
            zip.apply_2q(&u, a, b);
            dense.apply_2q(&u, a, b);
        }
        let x = zip.to_statevector();
        let mut acc = ptsbe_math::C64::zero();
        let mut nx = 0.0;
        let mut ny = 0.0;
        for (xa, ya) in x.iter().zip(dense.amplitudes()) {
            acc += xa.conj() * *ya;
            nx += xa.norm_sqr();
            ny += ya.norm_sqr();
        }
        let fidelity = acc.norm_sqr() / (nx * ny);
        prop_assert!(
            (fidelity - 1.0).abs() < 1e-10,
            "zip-up vs dense fidelity {fidelity}"
        );
    }

    /// The QR-first reduction is a drop-in for the dense Jacobi SVD:
    /// identical singular values and an exact reconstruction on random
    /// complex matrices of every aspect ratio.
    #[test]
    fn qr_first_svd_matches_dense_svd(
        rows in 1usize..24,
        cols in 1usize..24,
        raw in prop::collection::vec(-1.0f64..1.0, 2 * 24 * 24),
    ) {
        use ptsbe_math::svd::{svd, svd_qr};
        let data: Vec<ptsbe_math::C64> = (0..rows * cols)
            .map(|i| ptsbe_math::C64::new(raw[2 * i], raw[2 * i + 1]))
            .collect();
        let a = ptsbe_math::Matrix::from_vec(rows, cols, data);
        let dense = svd(&a);
        let qr = svd_qr(&a);
        prop_assert_eq!(dense.s.len(), qr.s.len());
        for (sd, sq) in dense.s.iter().zip(&qr.s) {
            prop_assert!((sd - sq).abs() < 1e-10, "singular values {sd} vs {sq}");
        }
        // Reconstruction: ‖A − U·S·Vh‖∞ ≈ 0.
        let k = qr.s.len();
        for r in 0..rows {
            for c in 0..cols {
                let mut acc = ptsbe_math::C64::zero();
                for j in 0..k {
                    acc += qr.u[(r, j)] * qr.vh[(j, c)].scale(qr.s[j]);
                }
                prop_assert!((acc - a[(r, c)]).abs() < 1e-10);
            }
        }
    }

    /// Batched (lockstep) sampling is bitwise identical to the
    /// sequential cached sweep on random circuits, across any number of
    /// independent per-trajectory RNG streams with any shot counts
    /// (empty requests included).
    #[test]
    fn batched_sampling_bitwise_matches_sequential(
        seed in 0u64..300,
        n in 2usize..7,
        ops in prop::collection::vec(
            (0usize..8, 0usize..8, prop::bool::ANY, -1.5f64..1.5), 1..20),
        shots in prop::collection::vec(0usize..200, 1..7),
    ) {
        let c = random_circuit(n, &ops);
        let nc = NoisyCircuit::from_circuit(c);
        let compiled = compile_mps::<f64>(&nc).unwrap();
        let (mut mps, _) = prepare_mps(&compiled, &[], exact());
        let mut expect = Vec::new();
        for (t, &m) in shots.iter().enumerate() {
            let mut rng = PhiloxRng::for_trajectory(seed, t as u64);
            expect.push(ptsbe_tensornet::sample::sample_shots_cached(
                &mut mps, m, &mut rng,
            ));
        }
        let mut rngs: Vec<PhiloxRng> = (0..shots.len())
            .map(|t| PhiloxRng::for_trajectory(seed, t as u64))
            .collect();
        let mut reqs: Vec<(usize, &mut PhiloxRng)> =
            shots.iter().copied().zip(rngs.iter_mut()).collect();
        let got = ptsbe_tensornet::sample::sample_shots_batched(&mut mps, &mut reqs);
        prop_assert_eq!(expect, got);
    }

    /// `trunc_error` stays *exactly* 0.0 on any run that never pushes a
    /// bond against the ceiling with the cutoff disabled — the invariant
    /// that makes a zero error report trustworthy.
    #[test]
    fn zero_trunc_error_whenever_ceiling_never_hit(
        n in 2usize..6,
        ops in prop::collection::vec(
            (0usize..8, 0usize..8, prop::bool::ANY, -1.5f64..1.5), 1..25),
    ) {
        let c = random_circuit(n, &ops);
        let nc = NoisyCircuit::from_circuit(c);
        let compiled = compile_mps::<f64>(&nc).unwrap();
        let config = MpsConfig::exact(); // cutoff 0, budgets off, χ ≤ 256
        let (mps, _) = prepare_mps(&compiled, &[], config);
        prop_assert!(mps.max_bond_reached() < config.max_bond);
        prop_assert_eq!(mps.truncation_error(), 0.0);
        prop_assert!(!mps.budget_exhausted());
        for bs in mps.bond_stats() {
            prop_assert_eq!(bs.discarded, 0.0);
        }
    }
}
