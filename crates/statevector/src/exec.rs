//! Circuit execution on the statevector backend.
//!
//! [`compile`] lowers a [`NoisyCircuit`] once into precision-converted
//! matrices and fast-path tags; [`prepare`] then executes it under a fixed
//! trajectory assignment — the operation Batched Execution repeats once
//! per Kraus set instead of once per shot. Compilation is shared across
//! trajectories, eliminating the "redundant circuit recompilation" the
//! paper's BE bullet calls out.
//!
//! The shape of a compiled program (segments, site table, fusion flush
//! points) is [`ptsbe_circuit::lower`]'s; this module holds the dense op
//! set ([`CompiledOp`]), its gate table, and the kernels each op runs.

use ptsbe_circuit::fusion::{self, FusedKernel, FusedOp};
use ptsbe_circuit::lower::{self, GateTable, LowerError, Lowered, LoweredSite, OpStream, Pick};
use ptsbe_circuit::{Circuit, Gate, GateOp, NoisyCircuit, Op};
use ptsbe_math::{Complex, Matrix, Scalar};

use crate::kraus::{apply_kraus_normalized, kraus_probabilities};
use crate::state::StateVector;

/// Execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A stochastic op appeared where a deterministic stream was required.
    UnexpectedNoise,
    /// The circuit is outside the segmented-program contract.
    Lower(LowerError),
}

impl From<LowerError> for ExecError {
    fn from(e: LowerError) -> Self {
        ExecError::Lower(e)
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnexpectedNoise => write!(f, "circuit contains unresolved noise ops"),
            ExecError::Lower(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ExecError {}

/// A gate lowered to its execution form.
#[derive(Clone, Debug)]
pub enum CompiledOp<T: Scalar> {
    /// Dense 1-qubit matrix.
    G1(Matrix<T>, usize),
    /// Dense 2-qubit matrix.
    G2(Matrix<T>, usize, usize),
    /// Diagonal 1-qubit fused kernel (pure phase multiply).
    D1([Complex<T>; 2], usize),
    /// Diagonal 2-qubit fused kernel, gate basis `(bit_a << 1) | bit_b`.
    D2([Complex<T>; 4], usize, usize),
    /// 1-qubit permutation fused kernel: `out[r] = phase[r]·in[perm[r]]`.
    P1([usize; 2], [Complex<T>; 2], usize),
    /// 2-qubit permutation fused kernel, gate basis `(bit_a << 1) | bit_b`.
    P2([usize; 4], [Complex<T>; 4], usize, usize),
    /// CNOT permutation fast path (unfused lowering).
    Cx(usize, usize),
    /// CZ diagonal fast path (unfused lowering).
    Cz(usize, usize),
    /// SWAP permutation fast path (unfused lowering).
    Swap(usize, usize),
    /// k-qubit dense matrix (k ≥ 3 gates pass through fusion unchanged).
    Gk(Matrix<T>, Vec<usize>),
    /// Noise site resolved through the trajectory assignment.
    Site(usize),
}

/// The one `CompiledOp` → kernel table. `$state` is anything with the ten
/// `apply_*` gate kernels ([`StateVector`], [`crate::batch::StateBatch`]);
/// a site runs `$site` with its id bound to `$id`.
macro_rules! apply_op {
    ($state:expr, $op:expr, $id:ident => $site:expr) => {{
        use $crate::exec::CompiledOp as Op;
        match $op {
            Op::G1(m, q) => $state.apply_1q(m, *q),
            Op::G2(m, a, b) => $state.apply_2q(m, *a, *b),
            Op::D1(d, q) => $state.apply_diag_1q(d, *q),
            Op::D2(d, a, b) => $state.apply_diag_2q(d, *a, *b),
            Op::P1(p, ph, q) => $state.apply_perm_1q(p, ph, *q),
            Op::P2(p, ph, a, b) => $state.apply_perm_2q(p, ph, *a, *b),
            Op::Cx(c, t) => $state.apply_cx(*c, *t),
            Op::Cz(a, b) => $state.apply_cz(*a, *b),
            Op::Swap(a, b) => $state.apply_swap(*a, *b),
            Op::Gk(m, qs) => $state.apply_kq(m, qs),
            Op::Site($id) => $site,
        }
    }};
}
pub(crate) use apply_op;

/// One lowered noise site (see [`LoweredSite`]).
pub type CompiledSite<T> = LoweredSite<T>;

/// A [`NoisyCircuit`] lowered for repeated dense execution at precision
/// `T`: the segmented program of [`ptsbe_circuit::lower`] over
/// [`CompiledOp`].
pub type Compiled<T> = Lowered<T, CompiledOp<T>>;

/// [`compile_with`] fusion on: the default compilation every backend and
/// executor shares.
///
/// # Errors
/// [`LowerError`] for gates after a measurement and for resets.
pub fn compile<T: Scalar>(nc: &NoisyCircuit) -> Result<Compiled<T>, ExecError> {
    compile_with(nc, true)
}

/// Lower a noisy circuit with fusion explicitly on or off.
///
/// With `fuse = false` every gate is lowered individually (the reference
/// pipeline the fusion equivalence suite compares against). With
/// `fuse = true` runs of adjacent ≤2-qubit gates are merged and classified
/// into dense/diagonal/permutation kernels; wider gates are fusion
/// barriers. Site arities are unrestricted: `apply_kq` and the batch
/// path's scalar fallback take ≥3-qubit sites.
///
/// # Errors
/// [`LowerError`] for gates after a measurement and for resets.
pub fn compile_with<T: Scalar>(nc: &NoisyCircuit, fuse: bool) -> Result<Compiled<T>, ExecError> {
    lower::lower::<T, DenseTable>(nc, fuse)
}

/// The dense backend's [`GateTable`].
struct DenseTable;

impl<T: Scalar> GateTable<T> for DenseTable {
    type Op = CompiledOp<T>;
    type Error = ExecError;

    fn gate(g: &GateOp, fuse: bool, out: &mut OpStream<Self::Op>) -> Result<(), ExecError> {
        if fuse && g.qubits.len() <= 2 {
            out.fuse(&g.gate.matrix::<f64>(), &g.qubits);
        } else {
            out.emit(lower_gate(g));
        }
        Ok(())
    }

    fn fused(op: &FusedOp) -> Self::Op {
        fn to_t<T: Scalar, const N: usize>(z: &[Complex<f64>]) -> [Complex<T>; N] {
            std::array::from_fn(|i| Complex::from_f64_complex(z[i]))
        }
        let m = &op.matrix;
        let one = Complex::<f64>::one();
        match (op.kind, op.qubits.as_slice()) {
            (FusedKernel::Diagonal, &[q]) => CompiledOp::D1(to_t(&[m[(0, 0)], m[(1, 1)]]), q),
            (FusedKernel::Diagonal, &[a, b]) => {
                let d = [m[(0, 0)], m[(1, 1)], m[(2, 2)], m[(3, 3)]];
                // A fused op that is exactly CZ keeps the sign-flip fast
                // path (touches 1/4 of the amplitudes, no multiplies).
                if d == [one, one, one, -one] {
                    return CompiledOp::Cz(a, b);
                }
                CompiledOp::D2(to_t(&d), a, b)
            }
            (FusedKernel::Permutation, &[q]) => {
                let (perm, phase) = fusion::permutation_form(m);
                CompiledOp::P1([perm[0], perm[1]], to_t(&phase), q)
            }
            (FusedKernel::Permutation, &[a, b]) => {
                let (perm, phase) = fusion::permutation_form(m);
                // Phase-free permutations that are exactly CX/SWAP keep the
                // arithmetic-free swap kernels (common when a segment holds
                // a single entangler, e.g. under noise-on-every-gate models
                // where fusion has nothing to merge).
                if phase.iter().all(|p| *p == one) {
                    match perm.as_slice() {
                        [0, 1, 3, 2] => return CompiledOp::Cx(a, b),
                        [0, 3, 2, 1] => return CompiledOp::Cx(b, a),
                        [0, 2, 1, 3] => return CompiledOp::Swap(a, b),
                        _ => {}
                    }
                }
                CompiledOp::P2([perm[0], perm[1], perm[2], perm[3]], to_t(&phase), a, b)
            }
            (FusedKernel::Dense, &[q]) => CompiledOp::G1(Matrix::from_f64_matrix(m), q),
            (FusedKernel::Dense, &[a, b]) => CompiledOp::G2(Matrix::from_f64_matrix(m), a, b),
            (_, qs) => unreachable!("fused ops are 1- or 2-qubit, got {}", qs.len()),
        }
    }

    fn site(id: usize, _qubits: &[usize]) -> Result<Self::Op, ExecError> {
        Ok(CompiledOp::Site(id))
    }
}

fn lower_gate<T: Scalar>(g: &GateOp) -> CompiledOp<T> {
    match (&g.gate, g.qubits.as_slice()) {
        (Gate::Cx, [c, t]) => CompiledOp::Cx(*c, *t),
        (Gate::Cz, [a, b]) => CompiledOp::Cz(*a, *b),
        (Gate::Swap, [a, b]) => CompiledOp::Swap(*a, *b),
        (gate, [q]) => CompiledOp::G1(gate.matrix(), *q),
        (gate, [a, b]) => CompiledOp::G2(gate.matrix(), *a, *b),
        (gate, qs) => CompiledOp::Gk(gate.matrix(), qs.to_vec()),
    }
}

/// Execute a compiled circuit under a fixed Kraus assignment
/// (`choices[site_id]` = branch index). Returns the prepared state and the
/// *realized* joint trajectory probability `p_α` — for unitary mixtures
/// this equals the nominal product exactly; for general channels it is the
/// state-dependent probability needed for importance weighting.
pub fn prepare<T: Scalar>(compiled: &Compiled<T>, choices: &[usize]) -> (StateVector<T>, f64) {
    assert_eq!(
        choices.len(),
        compiled.sites().len(),
        "assignment length does not match site count"
    );
    // Degenerate single-span path through the segmented executor.
    let mut sv = StateVector::zero_state(compiled.n_qubits());
    let realized = advance(compiled, &mut sv, 0..compiled.n_segments(), choices);
    (sv, realized)
}

/// Advance a state through segments `segments.start..segments.end`,
/// resolving each fired noise site through `choices[site_id]`. Returns the
/// partial trajectory probability realized by the advanced span (the
/// product of its sites' branch probabilities, in op order).
///
/// `choices` is indexed by site id, so a caller advancing a prefix only
/// needs the prefix of the assignment (`choices.len() >=` the last site id
/// fired by the span, plus one).
///
/// # Panics
/// Panics when the segment range or the assignment prefix is out of
/// bounds.
pub fn advance<T: Scalar>(
    compiled: &Compiled<T>,
    sv: &mut StateVector<T>,
    segments: std::ops::Range<usize>,
    choices: &[usize],
) -> f64 {
    assert!(
        choices.len() >= segments.end.min(compiled.sites().len()),
        "assignment length {} does not cover sites fired by segments {segments:?}",
        choices.len()
    );
    advance_with(compiled, sv, segments, |id| Pick::Fixed(choices[id]))
}

/// [`advance`] with the branch of each fired site chosen by `pick(site_id)`
/// at the moment the site fires: a fixed assignment for PTSBE, a fresh
/// uniform per site for the Algorithm-1 baseline.
///
/// # Panics
/// Panics when the segment range is out of bounds.
#[inline]
pub fn advance_with<T: Scalar>(
    compiled: &Compiled<T>,
    sv: &mut StateVector<T>,
    segments: std::ops::Range<usize>,
    mut pick: impl FnMut(usize) -> Pick,
) -> f64 {
    let mut realized = 1.0f64;
    for op in compiled.segment_ops(segments) {
        apply_op!(sv, op, id => realized *= apply_site(sv, &compiled.sites()[*id], pick(*id)));
    }
    realized
}

/// Apply one branch of a fired site to a state and return the branch's
/// realized probability: exact for a unitary mixture (whose exact-identity
/// branches are elided — every execution path skips the same ones, which
/// keeps them bitwise aligned), the renormalization factor for a general
/// channel.
#[inline]
pub(crate) fn apply_site<T: Scalar>(
    sv: &mut StateVector<T>,
    site: &CompiledSite<T>,
    pick: Pick,
) -> f64 {
    if site.is_unitary_mixture {
        let k = pick.branch(|| &site.probs);
        if !site.skip_identity[k] {
            apply_sized(sv, &site.mats[k], &site.qubits);
        }
        site.probs[k]
    } else {
        // Algorithm 1, line 9: branch probabilities depend on the state.
        let k = pick.branch(|| kraus_probabilities(sv, &site.mats, &site.qubits));
        apply_kraus_normalized(sv, &site.mats[k], &site.qubits)
    }
}

fn apply_sized<T: Scalar>(sv: &mut StateVector<T>, m: &Matrix<T>, qubits: &[usize]) {
    match qubits.len() {
        1 => sv.apply_1q(m, qubits[0]),
        2 => sv.apply_2q(m, qubits[0], qubits[1]),
        _ => sv.apply_kq(m, qubits),
    }
}

/// Execute a noise-free circuit (gates + terminal measurement only).
///
/// # Errors
/// [`ExecError::UnexpectedNoise`] if the circuit contains noise ops.
pub fn run_pure<T: Scalar>(circuit: &Circuit) -> Result<StateVector<T>, ExecError> {
    for op in circuit.ops() {
        if matches!(op, Op::Noise(_)) {
            return Err(ExecError::UnexpectedNoise);
        }
    }
    let nc = NoisyCircuit::from_circuit(circuit.clone());
    let compiled = compile::<T>(&nc)?;
    Ok(prepare(&compiled, &[]).0)
}

/// Convenience: compile + prepare in one call (per-trajectory compilation;
/// prefer [`compile`] once + [`prepare`] many for batched workloads).
pub fn prepare_with_assignment<T: Scalar>(
    nc: &NoisyCircuit,
    choices: &[usize],
) -> Result<(StateVector<T>, f64), ExecError> {
    let compiled = compile::<T>(nc)?;
    Ok(prepare(&compiled, choices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_circuit::{channels, NoiseModel};

    fn noisy_bell(p: f64) -> NoisyCircuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        NoiseModel::new()
            .with_default_1q(channels::depolarizing(p))
            .with_default_2q(channels::depolarizing(p))
            .apply(&c)
    }

    #[test]
    fn run_pure_bell() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let sv = run_pure::<f64>(&c).unwrap();
        assert!((sv.probability(0) - 0.5).abs() < 1e-12);
        assert!((sv.probability(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn run_pure_rejects_noise() {
        let mut c = Circuit::new(1);
        c.noise(std::sync::Arc::new(channels::depolarizing(0.1)), &[0]);
        assert_eq!(run_pure::<f64>(&c).unwrap_err(), ExecError::UnexpectedNoise);
    }

    #[test]
    fn identity_assignment_matches_pure() {
        let nc = noisy_bell(0.2);
        let ident = nc.identity_assignment().unwrap();
        let (sv, p) = prepare_with_assignment::<f64>(&nc, &ident).unwrap();
        assert!((p - 0.8f64.powi(3)).abs() < 1e-12);
        assert!((sv.probability(0) - 0.5).abs() < 1e-12);
        assert!((sv.probability(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn x_error_flips_output() {
        let nc = noisy_bell(0.2);
        // X on site 2 (qubit 1, after the CX): Bell becomes (|10⟩+|01⟩)/√2.
        // (An X on site 0 — qubit 0 right after H — would be invisible,
        // since X|+⟩ = |+⟩.)
        let mut choices = nc.identity_assignment().unwrap();
        choices[2] = 1;
        let (sv, p) = prepare_with_assignment::<f64>(&nc, &choices).unwrap();
        assert!((p - 0.8f64.powi(2) * (0.2 / 3.0)).abs() < 1e-12);
        assert!((sv.probability(0b01) - 0.5).abs() < 1e-12);
        assert!((sv.probability(0b10) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn general_channel_realized_probability() {
        // H then amplitude damping on |+⟩: branch 1 realizes γ/2.
        let gamma = 0.3;
        let mut c = Circuit::new(1);
        c.h(0).measure_all();
        let nc = NoiseModel::new()
            .with_default_1q(channels::amplitude_damping(gamma))
            .apply(&c);
        let (sv, p) = prepare_with_assignment::<f64>(&nc, &[1]).unwrap();
        assert!((p - gamma / 2.0).abs() < 1e-12);
        assert!((sv.probability(0) - 1.0).abs() < 1e-12);
        // Nominal (proposal) weight differs: γ/2 happens to match here
        // because tr(K1†K1)/2 = γ/2 — exercised properly in core's
        // importance-weighting tests.
    }

    #[test]
    fn mid_circuit_measurement_rejected() {
        let mut c = Circuit::new(2);
        c.h(0).measure(&[0]);
        c.cx(0, 1);
        let nc = NoisyCircuit::from_circuit(c);
        assert_eq!(
            compile::<f64>(&nc).unwrap_err(),
            ExecError::Lower(LowerError::MidCircuitMeasurement)
        );
    }

    #[test]
    fn reset_rejected() {
        let mut c = Circuit::new(1);
        c.reset(0);
        let nc = NoisyCircuit::from_circuit(c);
        assert_eq!(
            compile::<f64>(&nc).unwrap_err(),
            ExecError::Lower(LowerError::UnsupportedReset)
        );
    }

    #[test]
    fn compile_once_prepare_many() {
        let nc = noisy_bell(0.1);
        let compiled = compile::<f64>(&nc).unwrap();
        assert_eq!(compiled.sites().len(), 3);
        assert_eq!(compiled.measured_qubits(), &[0, 1]);
        let ident = nc.identity_assignment().unwrap();
        let (a, _) = prepare(&compiled, &ident);
        let (b, _) = prepare(&compiled, &ident);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fast_paths_used_for_cliffords() {
        // Unfused lowering keeps the named permutation fast paths…
        let nc = noisy_bell(0.0);
        let unfused = compile_with::<f64>(&nc, false).unwrap();
        assert!(unfused
            .ops()
            .iter()
            .any(|op| matches!(op, CompiledOp::Cx(_, _))));
        // …and so does the fused default: a lone CX in a segment (the
        // saturated-noise case, where fusion has nothing to merge) must
        // re-lower to the arithmetic-free swap kernel, not a generic P2.
        let fused = compile::<f64>(&nc).unwrap();
        let stats = fused.fusion_stats();
        assert!(stats.ops_after <= stats.ops_before);
        assert!(stats.dense + stats.diagonal + stats.permutation > 0);
        assert!(fused
            .ops()
            .iter()
            .any(|op| matches!(op, CompiledOp::Cx(_, _))));
    }

    #[test]
    fn exact_clifford_fusions_keep_fast_paths() {
        // cz and swap alone must round-trip through fusion back to their
        // specialized kernels; cx composed with cx must vanish into a
        // diagonal identity, not a dense 4x4.
        let mut c = Circuit::new(2);
        c.cz(0, 1).measure_all();
        let nc = NoisyCircuit::from_circuit(c);
        let compiled = compile::<f64>(&nc).unwrap();
        assert!(matches!(compiled.ops()[0], CompiledOp::Cz(0, 1)));

        let mut c = Circuit::new(2);
        c.swap(0, 1).measure_all();
        let nc = NoisyCircuit::from_circuit(c);
        let compiled = compile::<f64>(&nc).unwrap();
        assert!(matches!(compiled.ops()[0], CompiledOp::Swap(0, 1)));

        // cx(0,1) fused with cx(1,0) is a genuine permutation: stays P2.
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(1, 0).measure_all();
        let nc = NoisyCircuit::from_circuit(c);
        let compiled = compile::<f64>(&nc).unwrap();
        assert_eq!(compiled.ops().len(), 1);
        assert!(matches!(compiled.ops()[0], CompiledOp::P2(_, _, _, _)));
    }

    #[test]
    fn fusion_never_crosses_noise_sites() {
        let nc = noisy_bell(0.1);
        let fused = compile::<f64>(&nc).unwrap();
        let unfused = compile_with::<f64>(&nc, false).unwrap();
        // Same segment count and the same site sequence in op order.
        assert_eq!(fused.n_segments(), unfused.n_segments());
        let sites = |c: &Compiled<f64>| {
            c.ops()
                .iter()
                .filter_map(|op| match op {
                    CompiledOp::Site(id) => Some(*id),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(sites(&fused), sites(&unfused));
    }

    #[test]
    fn fused_and_unfused_states_agree() {
        let nc = noisy_bell(0.2);
        let fused = compile::<f64>(&nc).unwrap();
        let unfused = compile_with::<f64>(&nc, false).unwrap();
        let mut choices = nc.identity_assignment().unwrap();
        choices[1] = 2;
        let (a, pa) = prepare(&fused, &choices);
        let (b, pb) = prepare(&unfused, &choices);
        assert_eq!(pa.to_bits(), pb.to_bits(), "branch probs are exact");
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn f32_backend_consistent() {
        let nc = noisy_bell(0.15);
        let ident = nc.identity_assignment().unwrap();
        let (sv64, p64) = prepare_with_assignment::<f64>(&nc, &ident).unwrap();
        let (sv32, p32) = prepare_with_assignment::<f32>(&nc, &ident).unwrap();
        assert!((p64 - p32).abs() < 1e-6);
        for i in 0..4 {
            assert!((sv64.probability(i).to_f64() - sv32.probability(i).to_f64()).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "assignment length")]
    fn assignment_length_enforced() {
        let nc = noisy_bell(0.1);
        let compiled = compile::<f64>(&nc).unwrap();
        let _ = prepare(&compiled, &[0]);
    }
}
