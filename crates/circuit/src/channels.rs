//! The standard noise-channel zoo.
//!
//! Every constructor returns a validated [`KrausChannel`]. Unitary-mixture
//! channels (Pauli families, depolarizing) are the ones PTS can pre-sample
//! exactly; the damping channels exercise the general-channel
//! importance-weighting path.

use crate::kraus::KrausChannel;
use ptsbe_math::{gates, Complex, Matrix};

/// Single-qubit depolarizing channel: with probability `p` one of X/Y/Z is
/// applied uniformly.
///
/// # Panics
/// Panics unless `0 ≤ p ≤ 1`.
pub fn depolarizing(p: f64) -> KrausChannel {
    assert!((0.0..=1.0).contains(&p), "depolarizing: p out of range");
    KrausChannel::unitary_mixture(
        "depolarizing",
        vec![1.0 - p, p / 3.0, p / 3.0, p / 3.0],
        vec![
            Matrix::identity(2),
            gates::x::<f64>(),
            gates::y::<f64>(),
            gates::z::<f64>(),
        ],
    )
}

/// Two-qubit depolarizing channel: with probability `p` one of the 15
/// non-identity Pauli pairs is applied uniformly.
pub fn depolarizing2(p: f64) -> KrausChannel {
    assert!((0.0..=1.0).contains(&p), "depolarizing2: p out of range");
    let mut probs = Vec::with_capacity(16);
    let mut unitaries = Vec::with_capacity(16);
    for i in 0..4usize {
        for j in 0..4usize {
            unitaries.push(gates::pauli::<f64>(i).kron(&gates::pauli::<f64>(j)));
            probs.push(if i == 0 && j == 0 { 1.0 - p } else { p / 15.0 });
        }
    }
    KrausChannel::unitary_mixture("depolarizing2", probs, unitaries)
}

/// Bit flip: X with probability `p`.
pub fn bit_flip(p: f64) -> KrausChannel {
    pauli_channel(p, 0.0, 0.0, "bit_flip")
}

/// Phase flip: Z with probability `p`.
pub fn phase_flip(p: f64) -> KrausChannel {
    pauli_channel(0.0, 0.0, p, "phase_flip")
}

/// Bit-phase flip: Y with probability `p`.
pub fn bit_phase_flip(p: f64) -> KrausChannel {
    pauli_channel(0.0, p, 0.0, "bit_phase_flip")
}

/// General Pauli channel with probabilities `(px, py, pz)`.
///
/// # Panics
/// Panics if any probability is negative or the total exceeds 1.
pub fn pauli(px: f64, py: f64, pz: f64) -> KrausChannel {
    pauli_channel(px, py, pz, "pauli")
}

fn pauli_channel(px: f64, py: f64, pz: f64, name: &str) -> KrausChannel {
    assert!(
        px >= 0.0 && py >= 0.0 && pz >= 0.0,
        "{name}: negative probability"
    );
    let pi = 1.0 - px - py - pz;
    assert!(pi >= -1e-12, "{name}: probabilities exceed 1");
    // All four branches kept (zero-weight ones included) so branch indices
    // are stable: 0=I, 1=X, 2=Y, 3=Z.
    KrausChannel::unitary_mixture(
        name,
        vec![pi.max(0.0), px, py, pz],
        vec![
            Matrix::identity(2),
            gates::x::<f64>(),
            gates::y::<f64>(),
            gates::z::<f64>(),
        ],
    )
}

/// Amplitude damping with decay probability `gamma` (spontaneous emission
/// toward |0⟩). A *general* channel: exercises the importance-weighting
/// path of PTS.
pub fn amplitude_damping(gamma: f64) -> KrausChannel {
    assert!(
        (0.0..=1.0).contains(&gamma),
        "amplitude_damping: gamma out of range"
    );
    let mut k0 = Matrix::<f64>::identity(2);
    k0[(1, 1)] = Complex::from_f64((1.0 - gamma).sqrt(), 0.0);
    let mut k1 = Matrix::<f64>::zeros(2, 2);
    k1[(0, 1)] = Complex::from_f64(gamma.sqrt(), 0.0);
    KrausChannel::new("amplitude_damping", vec![k0, k1]).expect("amplitude damping is CPTP")
}

/// Generalized amplitude damping at finite temperature: relaxation toward a
/// thermal state with excited-state population `p_exc`.
pub fn generalized_amplitude_damping(gamma: f64, p_exc: f64) -> KrausChannel {
    assert!((0.0..=1.0).contains(&gamma));
    assert!((0.0..=1.0).contains(&p_exc));
    let p = 1.0 - p_exc;
    let mut k0 = Matrix::<f64>::identity(2);
    k0[(1, 1)] = Complex::from_f64((1.0 - gamma).sqrt(), 0.0);
    let k0 = k0.scaled_real(p.sqrt());
    let mut k1 = Matrix::<f64>::zeros(2, 2);
    k1[(0, 1)] = Complex::from_f64(gamma.sqrt(), 0.0);
    let k1 = k1.scaled_real(p.sqrt());
    let mut k2 = Matrix::<f64>::identity(2);
    k2[(0, 0)] = Complex::from_f64((1.0 - gamma).sqrt(), 0.0);
    let k2 = k2.scaled_real(p_exc.sqrt());
    let mut k3 = Matrix::<f64>::zeros(2, 2);
    k3[(1, 0)] = Complex::from_f64(gamma.sqrt(), 0.0);
    let k3 = k3.scaled_real(p_exc.sqrt());
    KrausChannel::new("generalized_amplitude_damping", vec![k0, k1, k2, k3])
        .expect("generalized amplitude damping is CPTP")
}

/// Phase damping (pure dephasing) with parameter `lambda`.
pub fn phase_damping(lambda: f64) -> KrausChannel {
    assert!(
        (0.0..=1.0).contains(&lambda),
        "phase_damping: lambda out of range"
    );
    let mut k0 = Matrix::<f64>::identity(2);
    k0[(1, 1)] = Complex::from_f64((1.0 - lambda).sqrt(), 0.0);
    let mut k1 = Matrix::<f64>::zeros(2, 2);
    k1[(1, 1)] = Complex::from_f64(lambda.sqrt(), 0.0);
    KrausChannel::new("phase_damping", vec![k0, k1]).expect("phase damping is CPTP")
}

/// Deterministic coherent over-rotation about X by `epsilon` radians — a
/// single-Kraus unitary "channel" modeling systematic gate error.
pub fn coherent_x_overrotation(epsilon: f64) -> KrausChannel {
    KrausChannel::unitary_mixture("coherent_x", vec![1.0], vec![gates::rx::<f64>(epsilon)])
}

/// Thermal relaxation: amplitude damping (T1) followed by the extra pure
/// dephasing needed to realize the requested T2.
///
/// `gamma = 1 − e^{−t/T1}` is the relaxation probability over the gate
/// duration, `lambda_phi` the *additional* dephasing beyond the T1-induced
/// part (physical devices have `T2 ≤ 2·T1`, i.e. `lambda_phi ≥ 0`).
pub fn thermal_relaxation(gamma: f64, lambda_phi: f64) -> KrausChannel {
    assert!(
        (0.0..=1.0).contains(&gamma),
        "thermal_relaxation: gamma out of range"
    );
    assert!(
        (0.0..=1.0).contains(&lambda_phi),
        "thermal_relaxation: lambda_phi out of range"
    );
    crate::kraus::compose(
        "thermal_relaxation",
        &amplitude_damping(gamma),
        &phase_damping(lambda_phi),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// This channel's weights sum to 1 − 2⁻⁵³, so the largest uniform
    /// `next_f64` returns falls through `index_of`'s scan; it used to land
    /// on the weight-0 Z branch.
    #[test]
    fn the_largest_uniform_never_draws_a_zero_weight_branch() {
        let ch = pauli(0.15056502201330552, 0.17639711177445463, 0.0);
        let probs = ch.sampling_probs();
        assert_eq!(probs[3], 0.0);
        assert!(probs.iter().sum::<f64>() < 1.0);
        let r = 1.0 - f64::EPSILON / 2.0;
        assert_eq!(ptsbe_rng::categorical::index_of(r, probs), 2);
    }

    #[test]
    fn thermal_relaxation_properties() {
        // Pure T1 (no extra dephasing) reproduces amplitude damping.
        let tr = thermal_relaxation(0.3, 0.0);
        assert!(!tr.is_unitary_mixture());
        assert_eq!(tr.arity(), 1);
        // Composition is CPTP by construction; the degenerate corners
        // validate too.
        let _ = thermal_relaxation(0.0, 0.0);
        let _ = thermal_relaxation(1.0, 1.0);
    }

    #[test]
    fn compose_is_sequential() {
        // bit_flip(1.0) ∘ bit_flip(1.0) = identity channel.
        let x1 = bit_flip(1.0);
        let id2 = crate::kraus::compose("xx", &x1, &x1);
        // Only one branch with non-zero weight, proportional to I.
        let probs = id2.sampling_probs();
        let heavy: Vec<usize> = probs
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 1e-9)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(heavy.len(), 1);
        assert_eq!(id2.identity_index(), Some(heavy[0]));
    }

    #[test]
    fn all_constructors_validate() {
        // Construction itself runs the CPTP check; just exercise the zoo.
        let _ = depolarizing(0.0);
        let _ = depolarizing(1.0);
        let _ = depolarizing2(0.2);
        let _ = bit_flip(0.5);
        let _ = phase_flip(0.01);
        let _ = bit_phase_flip(0.3);
        let _ = pauli(0.1, 0.2, 0.3);
        let _ = amplitude_damping(0.0);
        let _ = amplitude_damping(1.0);
        let _ = generalized_amplitude_damping(0.3, 0.2);
        let _ = phase_damping(0.4);
        let _ = coherent_x_overrotation(0.05);
    }

    #[test]
    fn pauli_branch_indices_stable() {
        let ch = pauli(0.0, 0.25, 0.0);
        assert_eq!(ch.n_ops(), 4);
        assert_eq!(ch.branch_label(1), "X");
        assert_eq!(ch.branch_label(2), "Y");
        let probs = ch.sampling_probs();
        assert!((probs[2] - 0.25).abs() < 1e-12);
        assert!(probs[1].abs() < 1e-12);
    }

    #[test]
    fn depolarizing2_probabilities() {
        let ch = depolarizing2(0.15);
        let probs = ch.sampling_probs();
        assert_eq!(probs.len(), 16);
        assert!((probs[0] - 0.85).abs() < 1e-9);
        for &pi in &probs[1..] {
            assert!((pi - 0.01).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn depolarizing_range_checked() {
        let _ = depolarizing(1.5);
    }

    #[test]
    #[should_panic(expected = "probabilities exceed 1")]
    fn pauli_total_checked() {
        let _ = pauli(0.6, 0.5, 0.2);
    }

    #[test]
    fn gad_reduces_to_ad_at_zero_temperature() {
        let gad = generalized_amplitude_damping(0.3, 0.0);
        let ad = amplitude_damping(0.3);
        // First two Kraus ops match; the thermal pair carries zero weight.
        assert!(gad.op(0).max_abs_diff(ad.op(0)) < 1e-12);
        assert!(gad.op(1).max_abs_diff(ad.op(1)) < 1e-12);
        assert!(gad.op(2).frobenius_norm() < 1e-12);
        assert!(gad.op(3).frobenius_norm() < 1e-12);
    }
}
