//! Noisy-circuit execution on the MPS backend (the tensornet analog of
//! `ptsbe_statevector::exec`). The shape of a compiled program is
//! [`ptsbe_circuit::lower`]'s; this module holds the MPS op set
//! ([`MpsOp`]), its gate table, and the tensor updates each op runs.

use crate::mps::{Mps, MpsConfig};
use ptsbe_circuit::fusion::{FusedKernel, FusedOp};
use ptsbe_circuit::lower::{self, GateTable, LowerError, Lowered, LoweredSite, OpStream, Pick};
use ptsbe_circuit::{Gate, GateOp, NoisyCircuit};
use ptsbe_math::{Complex, Matrix, Scalar};

/// MPS execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpsError {
    /// The circuit is outside the segmented-program contract.
    Lower(LowerError),
    /// A gate (other than Toffoli) or a noise site on more than 2 qubits:
    /// the MPS kernels are one- and two-site updates.
    UnsupportedArity(usize),
    /// A register wider than 128 qubits: a sampled shot is one `u128`.
    TooWide(usize),
}

impl From<LowerError> for MpsError {
    fn from(e: LowerError) -> Self {
        MpsError::Lower(e)
    }
}

impl std::fmt::Display for MpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpsError::Lower(e) => e.fmt(f),
            MpsError::UnsupportedArity(k) => {
                write!(f, "{k}-qubit gates and noise sites unsupported on MPS")
            }
            MpsError::TooWide(n) => write!(
                f,
                "{n}-qubit registers unsupported on MPS (a shot is one 128-bit word)"
            ),
        }
    }
}

impl std::error::Error for MpsError {}

/// One lowered MPS operation.
#[derive(Clone, Debug)]
pub enum MpsOp<T: Scalar> {
    /// 1-qubit matrix (general; may be non-unitary — pays a gauge move).
    G1(Matrix<T>, usize),
    /// 2-qubit matrix in gate-argument basis.
    G2(Matrix<T>, usize, usize),
    /// Fused *unitary* 1-qubit matrix: applied in place, no gauge move.
    U1(Matrix<T>, usize),
    /// Fused diagonal unitary 1-qubit gate: slice scaling, no
    /// contraction and no gauge move.
    D1(Complex<T>, Complex<T>, usize),
    /// Noise site.
    Site(usize),
}

/// One lowered noise site (see [`LoweredSite`]).
pub type MpsSite<T> = LoweredSite<T>;

/// A noisy circuit lowered for repeated MPS execution: the segmented
/// program of [`ptsbe_circuit::lower`] over [`MpsOp`].
pub type MpsCompiled<T> = Lowered<T, MpsOp<T>>;

/// [`compile_mps_with`] fusion on (the default).
///
/// # Errors
/// See [`MpsError`].
pub fn compile_mps<T: Scalar>(nc: &NoisyCircuit) -> Result<MpsCompiled<T>, MpsError> {
    compile_mps_with(nc, true)
}

/// Lower a noisy circuit for the MPS backend with fusion explicitly on
/// or off. MPS sites follow circuit qubits 1:1. Toffoli gates are first
/// decomposed into the standard 2q + T network, whose pieces then feed
/// the same fuser — so the decomposition overhead is largely fused back
/// away. Any other gate, and any noise site, on more than 2 qubits is
/// refused here rather than met in the hot loop, and so is a register
/// wider than a shot word ([`MpsError::TooWide`]).
///
/// # Errors
/// See [`MpsError`].
pub fn compile_mps_with<T: Scalar>(
    nc: &NoisyCircuit,
    fuse: bool,
) -> Result<MpsCompiled<T>, MpsError> {
    if nc.n_qubits() > 128 {
        return Err(MpsError::TooWide(nc.n_qubits()));
    }
    lower::lower::<T, MpsTable>(nc, fuse)
}

/// The MPS backend's [`GateTable`].
struct MpsTable;

impl<T: Scalar> GateTable<T> for MpsTable {
    type Op = MpsOp<T>;
    type Error = MpsError;

    fn gate(g: &GateOp, fuse: bool, out: &mut OpStream<Self::Op>) -> Result<(), MpsError> {
        match (&g.gate, g.qubits.as_slice()) {
            (gate, [_] | [_, _]) if fuse => out.fuse(&gate.matrix::<f64>(), &g.qubits),
            (gate, [_] | [_, _]) => out.emit(unfused(gate.matrix(), &g.qubits)),
            (Gate::Ccx, &[c0, c1, t]) => {
                for (m, qubits) in toffoli_network(c0, c1, t) {
                    if fuse {
                        out.fuse(&m, &qubits);
                    } else {
                        out.emit(unfused(Matrix::from_f64_matrix(&m), &qubits));
                    }
                }
            }
            (_, qs) => return Err(MpsError::UnsupportedArity(qs.len())),
        }
        Ok(())
    }

    /// Diagonal 1q → slice scaling, any other 1q → in-place unitary
    /// apply, 2q → dense two-site update (diagonal/permutation 2q ops
    /// still need the two-site contraction on MPS, so they stay dense).
    fn fused(op: &FusedOp) -> Self::Op {
        let m = &op.matrix;
        match (op.kind, op.qubits.as_slice()) {
            (FusedKernel::Diagonal, &[q]) => MpsOp::D1(
                Complex::from_f64_complex(m[(0, 0)]),
                Complex::from_f64_complex(m[(1, 1)]),
                q,
            ),
            (_, &[q]) => MpsOp::U1(Matrix::from_f64_matrix(m), q),
            (_, &[a, b]) => MpsOp::G2(Matrix::from_f64_matrix(m), a, b),
            (_, qs) => unreachable!("fused ops are 1- or 2-qubit, got {}", qs.len()),
        }
    }

    fn site(id: usize, qubits: &[usize]) -> Result<Self::Op, MpsError> {
        match qubits.len() {
            1 | 2 => Ok(MpsOp::Site(id)),
            k => Err(MpsError::UnsupportedArity(k)),
        }
    }
}

/// Lower one 1-/2-qubit gate individually (fusion off).
fn unfused<T: Scalar>(m: Matrix<T>, qubits: &[usize]) -> MpsOp<T> {
    match *qubits {
        [q] => MpsOp::G1(m, q),
        [a, b] => MpsOp::G2(m, a, b),
        _ => unreachable!("unfused lowering is 1- or 2-qubit, got {}", qubits.len()),
    }
}

/// Standard 6-CNOT Toffoli decomposition, as `f64` fuser input.
fn toffoli_network(c0: usize, c1: usize, t: usize) -> Vec<(Matrix<f64>, Vec<usize>)> {
    use ptsbe_math::gates::{cx, h, t as tg, tdg};
    vec![
        (h(), vec![t]),
        (cx(), vec![c1, t]),
        (tdg(), vec![t]),
        (cx(), vec![c0, t]),
        (tg(), vec![t]),
        (cx(), vec![c1, t]),
        (tdg(), vec![t]),
        (cx(), vec![c0, t]),
        (tg(), vec![c1]),
        (tg(), vec![t]),
        (cx(), vec![c0, c1]),
        (h(), vec![t]),
        (tg(), vec![c0]),
        (tdg(), vec![c1]),
        (cx(), vec![c0, c1]),
    ]
}

/// Execute under a fixed Kraus assignment. Returns the prepared MPS and
/// the realized joint trajectory probability (importance-weighting input).
///
/// Non-adjacent gates and general-channel sites are applied directly in
/// operator-Schmidt (MPO) form by [`Mps::apply_2q`] — no swap chains.
pub fn prepare_mps<T: Scalar>(
    compiled: &MpsCompiled<T>,
    choices: &[usize],
    config: MpsConfig,
) -> (Mps<T>, f64) {
    assert_eq!(
        choices.len(),
        compiled.sites().len(),
        "assignment length does not match site count"
    );
    // Degenerate single-span path through the segmented executor.
    let mut mps = Mps::zero_state(compiled.n_qubits(), config);
    let realized = advance_mps(compiled, &mut mps, 0..compiled.n_segments(), choices);
    (mps, realized)
}

/// Advance an MPS through segments `segments.start..segments.end`,
/// resolving fired noise sites via `choices[site_id]`. Returns the span's
/// partial trajectory probability (product of branch probabilities in op
/// order). The MPS analog of `ptsbe_statevector::exec::advance`.
///
/// # Panics
/// Panics when the segment range or the assignment prefix is out of
/// bounds.
pub fn advance_mps<T: Scalar>(
    compiled: &MpsCompiled<T>,
    mps: &mut Mps<T>,
    segments: std::ops::Range<usize>,
    choices: &[usize],
) -> f64 {
    assert!(
        choices.len() >= segments.end.min(compiled.sites().len()),
        "assignment length {} does not cover sites fired by segments {segments:?}",
        choices.len()
    );
    advance_mps_with(compiled, mps, segments, |id| Pick::Fixed(choices[id]))
}

/// [`advance_mps`] with the branch of each fired site chosen by
/// `pick(site_id)` when the site fires (a fresh uniform per site is the
/// Algorithm-1 baseline). The one `MpsOp` → tensor-update table.
///
/// # Panics
/// Panics when the segment range is out of bounds.
pub fn advance_mps_with<T: Scalar>(
    compiled: &MpsCompiled<T>,
    mps: &mut Mps<T>,
    segments: std::ops::Range<usize>,
    mut pick: impl FnMut(usize) -> Pick,
) -> f64 {
    let mut realized = 1.0f64;
    for op in compiled.segment_ops(segments) {
        match op {
            MpsOp::G1(m, q) => mps.apply_1q(m, *q),
            MpsOp::G2(m, a, b) => mps.apply_2q(m, *a, *b),
            MpsOp::U1(m, q) => mps.apply_unitary_1q(m, *q),
            MpsOp::D1(d0, d1, q) => mps.apply_diag_1q(*d0, *d1, *q),
            MpsOp::Site(id) => realized *= apply_site_mps(mps, &compiled.sites()[*id], pick(*id)),
        }
    }
    realized
}

/// Apply one branch of a fired site and return its realized probability
/// (the MPS analog of `ptsbe_statevector::exec::apply_site`). Skipping an
/// exact-identity branch here also avoids a gratuitous two-site SVD for
/// adjacent-pair sites.
fn apply_site_mps<T: Scalar>(mps: &mut Mps<T>, site: &MpsSite<T>, pick: Pick) -> f64 {
    if site.is_unitary_mixture {
        let k = pick.branch(|| &site.probs);
        if !site.skip_identity[k] {
            match *site.qubits.as_slice() {
                [q] => mps.apply_1q(&site.mats[k], q),
                [a, b] => mps.apply_2q(&site.mats[k], a, b),
                _ => unreachable!("lowering refuses sites above 2 qubits"),
            }
        }
        site.probs[k]
    } else {
        let k = pick.branch(|| mps.kraus_probabilities(&site.mats, &site.qubits));
        mps.apply_kraus_normalized(&site.mats[k], &site.qubits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_circuit::{channels, Circuit, NoiseModel};

    fn exact() -> MpsConfig {
        MpsConfig::exact()
    }

    fn noisy_ghz(p: f64, n: usize) -> NoisyCircuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c.measure_all();
        NoiseModel::new()
            .with_default_1q(channels::depolarizing(p))
            .with_default_2q(channels::depolarizing(p))
            .apply(&c)
    }

    #[test]
    fn identity_trajectory_matches_statevector() {
        let nc = noisy_ghz(0.1, 5);
        let compiled = compile_mps::<f64>(&nc).unwrap();
        let ident = nc.identity_assignment().unwrap();
        let (mps, p) = prepare_mps(&compiled, &ident, exact());
        let sv = {
            let sv_compiled = ptsbe_statevector::exec::compile::<f64>(&nc).unwrap();
            ptsbe_statevector::exec::prepare(&sv_compiled, &ident).0
        };
        for bits in 0..(1u128 << 5) {
            let a = mps.amplitude(bits).norm_sqr();
            let b = sv.probability(bits as u64);
            assert!((a - b).abs() < 1e-10);
        }
        assert!((p - 0.9f64.powi(nc.n_sites() as i32)).abs() < 1e-9);
    }

    #[test]
    fn f32_fused_compile_executes() {
        // Regression guard: fused f64 matrices converted to f32 deviate
        // from exact unitarity by well over f64 tolerances; the fast-path
        // debug_asserts must scale with the precision, not panic.
        let mut c = Circuit::new(3);
        c.h(0)
            .t(0)
            .rz(1, 0.4)
            .s(1)
            .cx(0, 1)
            .x(2)
            .cx(1, 2)
            .measure_all();
        let nc = NoiseModel::new()
            .with_default_2q(channels::depolarizing2(0.05))
            .apply(&c);
        let compiled = compile_mps::<f32>(&nc).unwrap();
        assert!(compiled.fusion_stats().ops_after < compiled.fusion_stats().ops_before);
        let ident = nc.identity_assignment().unwrap();
        let (mps, _) = prepare_mps(&compiled, &ident, exact());
        let compiled64 = compile_mps::<f64>(&nc).unwrap();
        let (mps64, _) = prepare_mps(&compiled64, &ident, exact());
        for bits in 0..8u128 {
            let a = f64::from(mps.amplitude(bits).norm_sqr());
            let b = mps64.amplitude(bits).norm_sqr();
            assert!((a - b).abs() < 1e-5, "bits {bits}");
        }
    }

    #[test]
    fn error_trajectory_matches_statevector() {
        let nc = noisy_ghz(0.1, 4);
        let compiled = compile_mps::<f64>(&nc).unwrap();
        let mut choices = nc.identity_assignment().unwrap();
        choices[2] = 3; // a Z somewhere mid-circuit
        choices[4] = 1; // an X later
        let (mps, _) = prepare_mps(&compiled, &choices, exact());
        let sv_compiled = ptsbe_statevector::exec::compile::<f64>(&nc).unwrap();
        let (sv, _) = ptsbe_statevector::exec::prepare(&sv_compiled, &choices);
        for bits in 0..(1u128 << 4) {
            assert!((mps.amplitude(bits).norm_sqr() - sv.probability(bits as u64)).abs() < 1e-10);
        }
    }

    #[test]
    fn general_channel_weights_match_statevector() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let nc = NoiseModel::new()
            .with_default_1q(channels::amplitude_damping(0.25))
            .with_default_2q(channels::amplitude_damping(0.25))
            .apply(&c);
        let compiled = compile_mps::<f64>(&nc).unwrap();
        let sv_compiled = ptsbe_statevector::exec::compile::<f64>(&nc).unwrap();
        // Try several assignments incl. damping branches.
        for choices in [
            vec![0; nc.n_sites()],
            {
                let mut v = vec![0; nc.n_sites()];
                v[1] = 1;
                v
            },
            {
                let mut v = vec![0; nc.n_sites()];
                v[0] = 1;
                v[3] = 1;
                v
            },
        ] {
            let (mps, p_mps) = prepare_mps(&compiled, &choices, exact());
            let (sv, p_sv) = ptsbe_statevector::exec::prepare(&sv_compiled, &choices);
            assert!((p_mps - p_sv).abs() < 1e-10, "weights {p_mps} vs {p_sv}");
            if p_sv > 0.0 {
                for bits in 0..8u128 {
                    assert!(
                        (mps.amplitude(bits).norm_sqr() - sv.probability(bits as u64)).abs() < 1e-9
                    );
                }
            }
        }
    }

    #[test]
    fn toffoli_decomposition_correct() {
        let mut c = Circuit::new(3);
        c.x(0).x(1).ccx(0, 1, 2).measure_all();
        let nc = NoiseModel::new().apply(&c);
        let compiled = compile_mps::<f64>(&nc).unwrap();
        let (mps, _) = prepare_mps(&compiled, &[], exact());
        // |110⟩ with ccx(0,1,2) → target qubit 2 flips → |111⟩.
        assert!((mps.amplitude(0b111).norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mid_circuit_measurement_rejected() {
        let mut c = Circuit::new(2);
        c.measure(&[0]);
        c.h(1);
        let nc = NoisyCircuit::from_circuit(c);
        assert_eq!(
            compile_mps::<f64>(&nc).unwrap_err(),
            MpsError::Lower(LowerError::MidCircuitMeasurement)
        );
    }

    #[test]
    fn registers_wider_than_a_shot_word_are_refused_at_lowering() {
        // A shot is one u128: bit 129 of a 130-qubit register used to
        // fold onto bit 1 (`x(1)` and `x(129)` sampled as 0x2).
        let wide = |n: usize| {
            let mut c = Circuit::new(n);
            c.x(1).x(n - 1);
            c.measure_all();
            NoisyCircuit::from_circuit(c)
        };
        for fuse in [true, false] {
            assert_eq!(
                compile_mps_with::<f64>(&wide(130), fuse).unwrap_err(),
                MpsError::TooWide(130)
            );
            assert_eq!(
                compile_mps_with::<f32>(&wide(129), fuse).unwrap_err(),
                MpsError::TooWide(129)
            );
        }
        let compiled = compile_mps::<f64>(&wide(128)).unwrap();
        let (mut mps, _) = prepare_mps(&compiled, &[], exact());
        let mut rng = ptsbe_rng::PhiloxRng::new(5, 0);
        let shots = crate::sample::sample_shots_batched(&mut mps, &mut [(4, &mut rng)])
            .pop()
            .unwrap();
        assert!(shots.iter().all(|&s| s == (1 << 1) | (1 << 127)));
    }

    #[test]
    fn noise_site_above_two_qubits_is_refused_at_lowering() {
        // `KrausChannel::new` takes any 2ᵏ dimension and `Circuit::noise`
        // is public; the MPS kernels are one- and two-site updates. Such
        // a site used to compile and then panic inside `advance_mps`.
        use ptsbe_circuit::KrausChannel;
        let xxx = ptsbe_math::gates::x::<f64>()
            .kron(&ptsbe_math::gates::x())
            .kron(&ptsbe_math::gates::x());
        let wide = KrausChannel::new(
            "mix3",
            vec![
                Matrix::identity(8).scaled_real(0.9f64.sqrt()),
                xxx.scaled_real(0.1f64.sqrt()),
            ],
        )
        .unwrap();
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1);
        c.noise(std::sync::Arc::new(wide), &[0, 1, 2]);
        c.measure_all();
        let nc = NoisyCircuit::from_circuit(c);
        for fuse in [true, false] {
            assert_eq!(
                compile_mps_with::<f64>(&nc, fuse).unwrap_err(),
                MpsError::UnsupportedArity(3)
            );
        }
        // The dense table keeps taking it.
        assert!(ptsbe_statevector::exec::compile::<f64>(&nc).is_ok());
    }

    use ptsbe_circuit::NoisyCircuit;
}
