//! Noisy-circuit execution on the MPS backend (the tensornet analog of
//! `ptsbe_statevector::exec`).

use crate::mps::{Mps, MpsConfig};
use ptsbe_circuit::fusion::{FusedKernel, FusedOp, Fuser, FusionStats};
use ptsbe_circuit::{ChannelKind, Gate, NoisyCircuit, NoisyOp};
use ptsbe_math::{Complex, Matrix, Scalar};

/// MPS execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpsError {
    /// Gates after measurement.
    MidCircuitMeasurement,
    /// Reset unsupported in fixed-assignment execution.
    UnsupportedReset,
    /// Gates above 2 qubits are not lowered for MPS.
    UnsupportedArity(usize),
}

impl std::fmt::Display for MpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpsError::MidCircuitMeasurement => {
                write!(f, "batched execution requires terminal measurements")
            }
            MpsError::UnsupportedReset => write!(f, "reset unsupported on the MPS backend"),
            MpsError::UnsupportedArity(k) => write!(f, "{k}-qubit gates unsupported on MPS"),
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

/// Lowered noise site.
#[derive(Clone, Debug)]
pub struct MpsSite<T: Scalar> {
    /// Channel qubits in argument order.
    pub qubits: Vec<usize>,
    /// Branch matrices (unitaries for mixtures, Kraus ops otherwise).
    pub mats: Vec<Matrix<T>>,
    /// True for unitary mixtures.
    pub is_unitary_mixture: bool,
    /// Pre-sampling probabilities.
    pub probs: Vec<f64>,
    /// Exact-identity branch flags (same compile-time `f64` detection as
    /// `ptsbe_statevector::exec::CompiledSite::skip_identity`, so the MPS
    /// path skips exactly the branches the statevector paths skip).
    pub skip_identity: Vec<bool>,
}

/// A noisy circuit lowered for repeated MPS execution.
///
/// Like `ptsbe_statevector::exec::Compiled`, the op stream is split into
/// segments delimited by noise sites so the trajectory-tree executor can
/// share common prefixes across trajectories: segment `k < n_sites` ends
/// with site `k`; the final segment is the trailing gate run.
#[derive(Clone, Debug)]
pub struct MpsCompiled<T: Scalar> {
    n_qubits: usize,
    ops: Vec<MpsOp<T>>,
    sites: Vec<MpsSite<T>>,
    measured: Vec<usize>,
    /// `seg_bounds[k]..seg_bounds[k + 1]` = op range of segment `k`.
    seg_bounds: Vec<usize>,
    /// Fusion report (ops in/out per kernel class).
    fusion_stats: FusionStats,
}

impl<T: Scalar> MpsCompiled<T> {
    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }
    /// Lowered op stream.
    pub fn ops(&self) -> &[MpsOp<T>] {
        &self.ops
    }
    /// Lowered sites.
    pub fn sites(&self) -> &[MpsSite<T>] {
        &self.sites
    }
    /// Measured qubits in record order.
    pub fn measured_qubits(&self) -> &[usize] {
        &self.measured
    }
    /// Number of segments (`n_sites + 1`).
    pub fn n_segments(&self) -> usize {
        self.seg_bounds.len() - 1
    }
    /// The fusion report for this compilation (all-passthrough when the
    /// circuit was compiled unfused).
    pub fn fusion_stats(&self) -> FusionStats {
        self.fusion_stats
    }
}

/// Lower a noisy circuit for the MPS backend, fusing adjacent-gate runs
/// within each segment (the default; see [`compile_mps_with`]).
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
/// away. Fusion never crosses a noise site (the fuser is flushed before
/// every [`MpsOp::Site`]).
///
/// # Errors
/// See [`MpsError`].
pub fn compile_mps_with<T: Scalar>(
    nc: &NoisyCircuit,
    fuse: bool,
) -> Result<MpsCompiled<T>, MpsError> {
    let mut ops = Vec::with_capacity(nc.ops().len());
    let mut measured = Vec::new();
    let mut seen_measure = false;
    let mut fusion_stats = FusionStats::default();
    let mut fuser = Fuser::new();
    let flush = |ops: &mut Vec<MpsOp<T>>, fuser: &mut Fuser, stats: &mut FusionStats| {
        let (before, run) = fuser.finish();
        stats.record_run(before, &run);
        ops.extend(run.iter().map(lower_fused_mps));
    };
    for op in nc.ops() {
        match op {
            NoisyOp::Gate(g) => {
                if seen_measure {
                    return Err(MpsError::MidCircuitMeasurement);
                }
                match g.qubits.len() {
                    1 if fuse => fuser.push(&g.gate.matrix::<f64>(), &g.qubits),
                    2 if fuse => fuser.push(&g.gate.matrix::<f64>(), &g.qubits),
                    1 => {
                        fusion_stats.record_passthrough();
                        ops.push(MpsOp::G1(g.gate.matrix(), g.qubits[0]));
                    }
                    2 => {
                        fusion_stats.record_passthrough();
                        ops.push(MpsOp::G2(g.gate.matrix(), g.qubits[0], g.qubits[1]));
                    }
                    3 if matches!(g.gate, Gate::Ccx) => {
                        // Decompose Toffoli into the standard 2q + T
                        // network; the pieces feed the fuser like any
                        // other gates.
                        for step in toffoli_network::<f64>(g.qubits[0], g.qubits[1], g.qubits[2]) {
                            match step {
                                MpsOp::G1(m, q) if fuse => fuser.push(&m, &[q]),
                                MpsOp::G2(m, a, b) if fuse => fuser.push(&m, &[a, b]),
                                MpsOp::G1(m, q) => {
                                    fusion_stats.record_passthrough();
                                    ops.push(MpsOp::G1(Matrix::from_f64_matrix(&m), q));
                                }
                                MpsOp::G2(m, a, b) => {
                                    fusion_stats.record_passthrough();
                                    ops.push(MpsOp::G2(Matrix::from_f64_matrix(&m), a, b));
                                }
                                _ => unreachable!("toffoli network is gates only"),
                            }
                        }
                    }
                    k => return Err(MpsError::UnsupportedArity(k)),
                }
            }
            NoisyOp::Site(id) => {
                if seen_measure {
                    return Err(MpsError::MidCircuitMeasurement);
                }
                if fuse {
                    flush(&mut ops, &mut fuser, &mut fusion_stats);
                }
                ops.push(MpsOp::Site(*id));
            }
            NoisyOp::Measure { qubits } => {
                seen_measure = true;
                measured.extend_from_slice(qubits);
            }
            NoisyOp::Reset { .. } => return Err(MpsError::UnsupportedReset),
        }
    }
    if fuse {
        flush(&mut ops, &mut fuser, &mut fusion_stats);
    }
    let sites = nc
        .sites()
        .iter()
        .map(|site| {
            let (mats, is_mixture): (Vec<Matrix<T>>, bool) = match site.channel.kind() {
                ChannelKind::UnitaryMixture { unitaries, .. } => (
                    unitaries
                        .iter()
                        .map(|u| Matrix::from_f64_matrix(u))
                        .collect(),
                    true,
                ),
                ChannelKind::General { .. } => (
                    site.channel
                        .ops()
                        .iter()
                        .map(|k| Matrix::from_f64_matrix(k))
                        .collect(),
                    false,
                ),
            };
            MpsSite {
                qubits: site.qubits.clone(),
                mats,
                is_unitary_mixture: is_mixture,
                probs: site.channel.sampling_probs().to_vec(),
                skip_identity: site.channel.identity_skip_flags(),
            }
        })
        .collect();
    let mut seg_bounds = Vec::with_capacity(nc.n_sites() + 2);
    seg_bounds.push(0);
    for (i, op) in ops.iter().enumerate() {
        if let MpsOp::Site(id) = op {
            debug_assert_eq!(*id, seg_bounds.len() - 1, "site ids must be in op order");
            seg_bounds.push(i + 1);
        }
    }
    seg_bounds.push(ops.len());
    Ok(MpsCompiled {
        n_qubits: nc.n_qubits(),
        ops,
        sites,
        measured,
        seg_bounds,
        fusion_stats,
    })
}

/// Lower one classified fused op onto the MPS kernel set: diagonal 1q →
/// slice scaling, any other 1q → in-place unitary apply, 2q → dense
/// two-site update (diagonal/permutation 2q ops still need the two-site
/// contraction on MPS, so they stay dense here).
fn lower_fused_mps<T: Scalar>(op: &FusedOp) -> MpsOp<T> {
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

/// Standard 6-CNOT Toffoli decomposition.
fn toffoli_network<T: Scalar>(c0: usize, c1: usize, t: usize) -> Vec<MpsOp<T>> {
    use ptsbe_math::gates;
    let cx = gates::cx::<T>();
    vec![
        MpsOp::G1(gates::h(), t),
        MpsOp::G2(cx.clone(), c1, t),
        MpsOp::G1(gates::tdg(), t),
        MpsOp::G2(cx.clone(), c0, t),
        MpsOp::G1(gates::t(), t),
        MpsOp::G2(cx.clone(), c1, t),
        MpsOp::G1(gates::tdg(), t),
        MpsOp::G2(cx.clone(), c0, t),
        MpsOp::G1(gates::t(), c1),
        MpsOp::G1(gates::t(), t),
        MpsOp::G2(cx.clone(), c0, c1),
        MpsOp::G1(gates::h(), t),
        MpsOp::G1(gates::t(), c0),
        MpsOp::G1(gates::tdg(), c1),
        MpsOp::G2(cx, c0, c1),
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
        compiled.sites.len(),
        "assignment length does not match site count"
    );
    // Degenerate single-span path through the segmented executor.
    let mut mps = Mps::zero_state(compiled.n_qubits, config);
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
        segments.end <= compiled.n_segments(),
        "segment range {segments:?} exceeds {} segments",
        compiled.n_segments()
    );
    assert!(
        choices.len() >= segments.end.min(compiled.sites.len()),
        "assignment length {} does not cover sites fired by segments {segments:?}",
        choices.len()
    );
    let mut realized = 1.0f64;
    if segments.is_empty() {
        return realized;
    }
    let ops = &compiled.ops[compiled.seg_bounds[segments.start]..compiled.seg_bounds[segments.end]];
    for op in ops {
        match op {
            MpsOp::G1(m, q) => mps.apply_1q(m, *q),
            MpsOp::G2(m, a, b) => mps.apply_2q(m, *a, *b),
            MpsOp::U1(m, q) => mps.apply_unitary_1q(m, *q),
            MpsOp::D1(d0, d1, q) => mps.apply_diag_1q(*d0, *d1, *q),
            MpsOp::Site(id) => {
                let site = &compiled.sites[*id];
                let k = choices[*id];
                if site.is_unitary_mixture {
                    realized *= site.probs[k];
                    // Exact-identity branches skip (consistent with the
                    // statevector paths); on MPS this also avoids a
                    // gratuitous two-site SVD for adjacent-pair sites.
                    if site.skip_identity[k] {
                        continue;
                    }
                    match site.qubits.as_slice() {
                        [q] => mps.apply_1q(&site.mats[k], *q),
                        [a, b] => mps.apply_2q(&site.mats[k], *a, *b),
                        _ => unreachable!("channels are 1- or 2-qubit"),
                    }
                } else {
                    realized *= mps.apply_kraus_normalized(&site.mats[k], &site.qubits);
                }
            }
        }
    }
    realized
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
            MpsError::MidCircuitMeasurement
        );
    }

    use ptsbe_circuit::NoisyCircuit;
}
