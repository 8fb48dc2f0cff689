//! Algorithmic encoding circuits for k = 1 stabilizer codes
//! (Gottesman standard-form construction, arXiv:quant-ph/9705052 §4).
//!
//! Given a validated [`StabilizerCode`], [`encoding_circuit`] produces a
//! Clifford circuit `E` and an input-qubit index `u` such that running `E`
//! on `|0…0⟩` with an arbitrary single-qubit state `|ψ⟩` pre-loaded on
//! qubit `u` yields the encoded logical `|ψ̄⟩`. Works for CSS and non-CSS
//! codes alike (the `[[5,1,3]]` magic-state distillation workload needs the
//! latter).
//!
//! Construction sketch:
//! 1. pick a pure-Z logical Z̄ and a logical X̄ with X-part reduced
//!    against the stabilizer X-pivots (so the input qubit is not a pivot);
//! 2. spread the input: controlled-X̄ from `u` (CX/CZ per component, S
//!    fix-up for a Y on `u` itself);
//! 3. for every generator with an X-pivot: H on the pivot, then the
//!    controlled generator from the pivot (CX/CZ/CY per component, S on
//!    the pivot for its own Y, Z on the pivot for a −1 sign);
//!
//! Generators with no X-part are automatically satisfied on `|0…0⟩`.
//! Every emitted gate is a *named* Clifford (CY is synthesized as
//! S·CX·S†), so encoders run on all four backends, including the
//! stabilizer frame sampler.

use crate::code::{symplectic_row, StabilizerCode};
use crate::gf2;
use ptsbe_circuit::Circuit;
use ptsbe_stabilizer::{Pauli, PauliString};

/// An encoding circuit plus its input-qubit position.
#[derive(Clone, Debug)]
pub struct Encoder {
    /// The Clifford encoding circuit on `n` qubits (no measurement).
    pub circuit: Circuit,
    /// The qubit that carries the logical input state.
    pub input_qubit: usize,
    /// The logical X̄ representative actually used (X-part reduced).
    pub logical_x: PauliString,
    /// The pure-Z logical Z̄ representative actually used.
    pub logical_z: PauliString,
}

/// Build the encoding circuit for a k = 1 stabilizer code.
///
/// # Panics
/// Panics if the internal linear algebra cannot find valid logical
/// representatives — impossible for a code that passed
/// [`StabilizerCode::new`] validation.
pub fn encoding_circuit(code: &StabilizerCode) -> Encoder {
    let n = code.n();
    let gens = code.stabilizers();

    // --- Full RREF of the X-part over generator *products* --------------
    // Elimination multiplies PauliStrings (signs tracked by mul_assign),
    // so the emitted rows are genuine, sign-correct stabilizer group
    // elements. The X-part must be fully reduced (no row carries X on any
    // other row's pivot) or the H-row construction below breaks.
    let mut work: Vec<PauliString> = gens.to_vec();
    let mut pivot_of_row: Vec<Option<usize>> = vec![None; work.len()];
    for col in 0..n {
        let Some(idx) = (0..work.len()).find(|&i| {
            pivot_of_row[i].is_none() && matches!(work[i].get(col), Pauli::X | Pauli::Y)
        }) else {
            continue;
        };
        pivot_of_row[idx] = Some(col);
        let pivot_row = work[idx].clone();
        for (i, row) in work.iter_mut().enumerate() {
            if i != idx && matches!(row.get(col), Pauli::X | Pauli::Y) {
                row.mul_assign(&pivot_row);
            }
        }
    }
    let mut emitted: Vec<(usize, PauliString)> = Vec::new(); // (pivot qubit, group element)
    for (i, piv) in pivot_of_row.iter().enumerate() {
        if let Some(col) = piv {
            emitted.push((*col, work[i].clone()));
        }
    }
    emitted.sort_by_key(|(c, _)| *c);
    // Leftover rows are pure-Z group elements; they must be positive so
    // |0…0⟩ satisfies them without an X-frame fix-up (true for every code
    // in this workspace — asserted rather than silently mis-encoded).
    for (i, piv) in pivot_of_row.iter().enumerate() {
        if piv.is_none() {
            assert_eq!(
                work[i].phase(),
                0,
                "{}: negative pure-Z group element needs an X-frame fix-up",
                code.name()
            );
        }
    }
    let x_pivots: Vec<usize> = emitted.iter().map(|(c, _)| *c).collect();

    // --- Logical representatives ----------------------------------------
    // Pure-Z logical: z-support orthogonal to every generator's X-part,
    // outside the group.
    let gen_rows: Vec<u128> = gens.iter().map(symplectic_row).collect();
    let gen_basis = gf2::row_basis(&gen_rows);
    let x_parts: Vec<u128> = gen_rows
        .iter()
        .map(|row| row & ((1u128 << n) - 1))
        .collect();
    let lz = gf2::kernel_basis(&x_parts, n)
        .into_iter()
        .map(|z_support| {
            let mut p = PauliString::identity(n);
            for q in 0..n {
                if z_support >> q & 1 == 1 {
                    p.set(q, Pauli::Z);
                }
            }
            p
        })
        .find(|p| !gf2::in_span(symplectic_row(p), &gen_basis))
        .expect("k=1 code must have a pure-Z logical");

    // Logical X̄: start from the code's validated X̄, reduce its X-part
    // off the pivots using the emitted generator products.
    let mut lx = code.logical_x().clone();
    for (col, row) in &emitted {
        if matches!(lx.get(*col), Pauli::X | Pauli::Y) {
            lx.mul_assign(row);
        }
    }
    // Multiplying by stabilizers preserves the commutation class, so the
    // reduced X̄ still anticommutes with Z̄.
    assert!(
        !lx.commutes_with(&lz),
        "{}: reduced X̄ lost its pairing with Z̄",
        code.name()
    );

    // Input qubit: an X/Y component of X̄ that is not an X-pivot.
    let input_qubit = (0..n)
        .find(|&q| matches!(lx.get(q), Pauli::X | Pauli::Y) && !x_pivots.contains(&q))
        .expect("logical X̄ must touch a non-pivot qubit");

    // --- Emit the circuit -------------------------------------------------
    let mut circuit = Circuit::new(n);
    // (a) Spread the input: controlled-X̄ from input_qubit.
    emit_controlled_pauli(&mut circuit, &lx, input_qubit);
    // (b) Stabilizer rows: H on pivot, controlled generator from pivot.
    for (pivot, row) in &emitted {
        circuit.h(*pivot);
        emit_controlled_pauli(&mut circuit, row, *pivot);
    }

    Encoder {
        circuit,
        input_qubit,
        logical_x: lx,
        logical_z: lz,
    }
}

/// Append the controlled application of `p` (conditioned on `control`
/// being |1⟩) to `circuit`. The control's own X component is implicit
/// (the control *is* that flip); its own Z/Y parts become S/Z fix-ups.
fn emit_controlled_pauli(circuit: &mut Circuit, p: &PauliString, control: usize) {
    for q in 0..p.n_qubits() {
        if q == control {
            continue;
        }
        match p.get(q) {
            Pauli::I => {}
            Pauli::X => {
                circuit.cx(control, q);
            }
            Pauli::Z => {
                circuit.cz(control, q);
            }
            Pauli::Y => {
                // CY = S_t · CX · S†_t.
                circuit.sdg(q);
                circuit.cx(control, q);
                circuit.s(q);
            }
        }
    }
    // Control's own component: X is implicit; Y needs the extra i on the
    // |1⟩ branch (S); a bare Z on the control cannot occur for rows with
    // an X-pivot at `control`.
    match p.get(control) {
        Pauli::Y => {
            circuit.s(control);
        }
        Pauli::Z => panic!("controlled row with pure-Z pivot"),
        _ => {}
    }
    // Generator sign: −1 on the |1⟩ branch.
    if p.phase() == 2 {
        circuit.z(control);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes;
    use ptsbe_circuit::NoisyCircuit;
    use ptsbe_math::{Complex, C64};
    use ptsbe_statevector::StateVector;

    /// ⟨ψ| i^phase ⊗P |ψ⟩ for a Pauli string on a statevector.
    fn pauli_expectation(sv: &StateVector<f64>, p: &PauliString) -> f64 {
        let mut copy = sv.clone();
        for q in 0..p.n_qubits() {
            match p.get(q) {
                Pauli::I => {}
                Pauli::X => copy.apply_1q(&ptsbe_math::gates::x(), q),
                Pauli::Y => copy.apply_1q(&ptsbe_math::gates::y(), q),
                Pauli::Z => copy.apply_1q(&ptsbe_math::gates::z(), q),
            }
        }
        let amp = sv.inner(&copy);
        let phase: C64 = match p.phase() {
            0 => Complex::one(),
            1 => Complex::i(),
            2 => -Complex::one(),
            _ => -Complex::i(),
        };
        (phase * amp).re
    }

    fn encode_state(code: &StabilizerCode, alpha: C64, beta: C64) -> (StateVector<f64>, Encoder) {
        let enc = encoding_circuit(code);
        let n = code.n();
        let mut amps = vec![C64::zero(); 1 << n];
        amps[0] = alpha;
        amps[1 << enc.input_qubit] = beta;
        let mut sv = StateVector::from_amplitudes(amps);
        let nc = NoisyCircuit::from_circuit(enc.circuit.clone());
        let compiled = ptsbe_statevector::exec::compile::<f64>(&nc).unwrap();
        // Run the encoder gates on the pre-loaded state: a pure circuit
        // is one site-free segment, so a full-span advance applies every
        // (fused) gate.
        ptsbe_statevector::exec::advance(&compiled, &mut sv, 0..compiled.n_segments(), &[]);
        (sv, enc)
    }

    fn check_code_encoding(code: &StabilizerCode) {
        // |0̄⟩: all stabilizers +1 and Z̄ = +1.
        let (sv, enc) = encode_state(code, C64::one(), C64::zero());
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-10, "{}: norm", code.name());
        for s in code.stabilizers() {
            let e = pauli_expectation(&sv, s);
            assert!(
                (e - 1.0).abs() < 1e-8,
                "{}: stabilizer {s:?} expectation {e}",
                code.name()
            );
        }
        let ez = pauli_expectation(&sv, &enc.logical_z);
        assert!((ez - 1.0).abs() < 1e-8, "{}: Z̄ on |0̄⟩ = {ez}", code.name());

        // |1̄⟩ = X̄-flipped: Z̄ = −1, stabilizers still +1.
        let (sv1, _) = encode_state(code, C64::zero(), C64::one());
        for s in code.stabilizers() {
            let e = pauli_expectation(&sv1, s);
            assert!(
                (e - 1.0).abs() < 1e-8,
                "{}: |1̄⟩ stabilizer {e}",
                code.name()
            );
        }
        let ez1 = pauli_expectation(&sv1, &enc.logical_z);
        assert!(
            (ez1 + 1.0).abs() < 1e-8,
            "{}: Z̄ on |1̄⟩ = {ez1}",
            code.name()
        );

        // Superposition: (|0̄⟩ + |1̄⟩)/√2 has X̄ = ±1 and Z̄ = 0.
        let s2 = std::f64::consts::FRAC_1_SQRT_2;
        let (svp, enc2) = encode_state(code, C64::real(s2), C64::real(s2));
        for s in code.stabilizers() {
            let e = pauli_expectation(&svp, s);
            assert!(
                (e - 1.0).abs() < 1e-8,
                "{}: |+̄⟩ stabilizer {e}",
                code.name()
            );
        }
        let ex = pauli_expectation(&svp, &enc2.logical_x);
        assert!(
            (ex.abs() - 1.0).abs() < 1e-8,
            "{}: X̄ on |+̄⟩ = {ex}",
            code.name()
        );
        let ezp = pauli_expectation(&svp, &enc2.logical_z);
        assert!(ezp.abs() < 1e-8, "{}: Z̄ on |+̄⟩ = {ezp}", code.name());
    }

    #[test]
    fn encodes_five_qubit_code() {
        check_code_encoding(&codes::five_one_three());
    }

    #[test]
    fn encodes_steane() {
        check_code_encoding(&codes::steane());
    }

    #[test]
    fn encodes_color_code_d3() {
        check_code_encoding(&codes::color_code(3));
    }

    #[test]
    fn encodes_shor() {
        check_code_encoding(&codes::shor9());
    }

    #[test]
    fn encodes_repetition() {
        check_code_encoding(&codes::repetition(3));
        check_code_encoding(&codes::repetition(5));
    }

    #[test]
    fn encodes_color_code_d5() {
        // 19 qubits = 2^19 amplitudes: the big validation.
        check_code_encoding(&codes::color_code(5));
    }

    #[test]
    fn encoder_is_clifford_and_measurement_free() {
        let enc = encoding_circuit(&codes::five_one_three());
        assert!(enc.circuit.is_clifford());
        assert_eq!(enc.circuit.measured_qubits().len(), 0);
    }

    #[test]
    fn logical_reps_are_valid() {
        for code in [
            codes::five_one_three(),
            codes::steane(),
            codes::color_code(3),
        ] {
            let enc = encoding_circuit(&code);
            for s in code.stabilizers() {
                assert!(enc.logical_x.commutes_with(s));
                assert!(enc.logical_z.commutes_with(s));
            }
            assert!(!enc.logical_x.commutes_with(&enc.logical_z));
        }
    }
}
