//! Kraus channels with CPTP validation and unitary-mixture detection.
//!
//! A channel is a set `{K_i}` with `Σ K_i† K_i = I`. CUDA-Q (paper §2.2,
//! feature 2) analyzes each channel once: when every `K_i = √p_i · U_i`
//! with `U_i` unitary, the per-trajectory branch probabilities are
//! state-independent and can be sampled without touching the statevector.
//! The same analysis runs here at construction time and is exposed through
//! [`ChannelKind`]; the PTS layer leans on it for *exact* pre-sampling,
//! falling back to importance-weighted nominal probabilities for general
//! channels.

use ptsbe_math::Matrix;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Numerical tolerance for CPTP and unitary-mixture detection.
const CHANNEL_TOL: f64 = 1e-9;

/// Validation failure for a prospective Kraus channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// The channel has no Kraus operators.
    Empty,
    /// Kraus operators have inconsistent or non-power-of-two shapes.
    BadShape,
    /// `Σ K†K` deviates from the identity by more than tolerance.
    NotTracePreserving,
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::Empty => write!(f, "channel has no Kraus operators"),
            ChannelError::BadShape => write!(f, "Kraus operators must share a 2^k square shape"),
            ChannelError::NotTracePreserving => {
                write!(f, "Kraus operators do not satisfy the CPTP condition")
            }
        }
    }
}

impl std::error::Error for ChannelError {}

/// Structural classification determined at construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelKind {
    /// Every `K_i = √p_i U_i` with `U_i` unitary: branch probabilities
    /// `p_i` are state-independent.
    UnitaryMixture {
        /// Branch probabilities (sum to 1).
        probs: Vec<f64>,
        /// The unit-norm unitaries `U_i`.
        unitaries: Vec<Arc<Matrix<f64>>>,
    },
    /// General CPTP channel: branch probabilities depend on the state.
    /// `nominal_probs` are `tr(K†K)/2^arity` — the branch probabilities
    /// averaged over the maximally mixed state, used by PTS as proposal
    /// weights (see `ptsbe-core::pts`).
    General {
        /// Maximally-mixed-state branch probabilities (sum to 1).
        nominal_probs: Vec<f64>,
    },
}

/// A validated CPTP quantum channel on `arity` qubits.
///
/// Immutable once built (private fields, no `&mut self` method), which is
/// what lets [`KrausChannel::content_hash`] memoize its value.
#[derive(Debug, Clone)]
pub struct KrausChannel {
    name: String,
    arity: usize,
    ops: Vec<Arc<Matrix<f64>>>,
    kind: ChannelKind,
    /// Index of the Kraus operator proportional to the identity, if any —
    /// the "no error happened" branch that Algorithm 2 treats specially.
    identity_index: Option<usize>,
    /// [`KrausChannel::content_hash`], filled by its first call.
    pub(crate) hash: OnceLock<u64>,
}

impl KrausChannel {
    /// Construct a unitary-mixture channel directly from `(p_i, U_i)`
    /// pairs. Unlike [`KrausChannel::new`], this preserves the caller's
    /// structure exactly — including zero-probability branches, whose
    /// unitaries would be unrecoverable from the (zero) Kraus operators.
    /// Branch indices therefore stay stable across parameter sweeps
    /// (e.g. a Pauli channel always has branches I/X/Y/Z at 0/1/2/3).
    ///
    /// # Panics
    /// Panics if shapes are inconsistent, any `U_i` is not unitary, any
    /// probability is negative, or the probabilities do not sum to 1.
    pub fn unitary_mixture(
        name: impl Into<String>,
        probs: Vec<f64>,
        unitaries: Vec<Matrix<f64>>,
    ) -> Self {
        assert!(!probs.is_empty(), "unitary_mixture: empty channel");
        assert_eq!(
            probs.len(),
            unitaries.len(),
            "unitary_mixture: length mismatch"
        );
        let dim = unitaries[0].rows();
        assert!(
            dim.is_power_of_two() && dim > 0,
            "unitary_mixture: bad dimension"
        );
        let arity = dim.trailing_zeros() as usize;
        let mut total = 0.0;
        for (p, u) in probs.iter().zip(&unitaries) {
            assert!(*p >= -CHANNEL_TOL, "unitary_mixture: negative probability");
            assert_eq!(
                (u.rows(), u.cols()),
                (dim, dim),
                "unitary_mixture: shape mismatch"
            );
            assert!(u.is_unitary(1e-9), "unitary_mixture: non-unitary branch");
            total += p.max(0.0);
        }
        assert!(
            (total - 1.0).abs() < 1e-9,
            "unitary_mixture: probabilities sum to {total}"
        );
        let probs: Vec<f64> = probs.iter().map(|p| p.max(0.0) / total).collect();
        let ops: Vec<Arc<Matrix<f64>>> = probs
            .iter()
            .zip(&unitaries)
            .map(|(p, u)| Arc::new(u.scaled_real(p.sqrt())))
            .collect();
        let unitaries: Vec<Arc<Matrix<f64>>> = unitaries.into_iter().map(Arc::new).collect();
        let identity_index = unitaries
            .iter()
            .position(|u| phase_free_diff(u, &Matrix::identity(dim)) <= CHANNEL_TOL.sqrt());
        Self {
            name: name.into(),
            arity,
            ops,
            kind: ChannelKind::UnitaryMixture { probs, unitaries },
            identity_index,
            hash: OnceLock::new(),
        }
    }

    /// Validate and classify a set of Kraus operators.
    pub fn new(name: impl Into<String>, ops: Vec<Matrix<f64>>) -> Result<Self, ChannelError> {
        if ops.is_empty() {
            return Err(ChannelError::Empty);
        }
        let dim = ops[0].rows();
        if dim == 0 || !dim.is_power_of_two() {
            return Err(ChannelError::BadShape);
        }
        let arity = dim.trailing_zeros() as usize;
        for k in &ops {
            if k.rows() != dim || k.cols() != dim {
                return Err(ChannelError::BadShape);
            }
        }

        // CPTP: Σ K†K = I.
        let mut sum = Matrix::<f64>::zeros(dim, dim);
        for k in &ops {
            sum = &sum + &k.dagger().mul_ref(k);
        }
        if sum.max_abs_diff(&Matrix::identity(dim)) > CHANNEL_TOL {
            return Err(ChannelError::NotTracePreserving);
        }

        // Unitary-mixture detection: K†K = p·I for each operator.
        let mut probs = Vec::with_capacity(ops.len());
        let mut unitaries = Vec::with_capacity(ops.len());
        let mut is_mixture = true;
        for k in &ops {
            let ktk = k.dagger().mul_ref(k);
            let p = ktk.trace().re / dim as f64;
            if p < -CHANNEL_TOL {
                is_mixture = false;
                break;
            }
            let p = p.max(0.0);
            let scaled_id = Matrix::<f64>::identity(dim).scaled_real(p);
            if ktk.max_abs_diff(&scaled_id) > CHANNEL_TOL {
                is_mixture = false;
                break;
            }
            if p > CHANNEL_TOL {
                let u = k.scaled_real(1.0 / p.sqrt());
                debug_assert!(u.is_unitary(1e-6));
                unitaries.push(Arc::new(u));
            } else {
                // Zero-probability branch: keep a placeholder identity.
                unitaries.push(Arc::new(Matrix::identity(dim)));
            }
            probs.push(p);
        }

        let ops: Vec<Arc<Matrix<f64>>> = ops.into_iter().map(Arc::new).collect();

        let kind = if is_mixture {
            // CPTP guarantees Σp = 1 up to round-off; normalize exactly.
            let total: f64 = probs.iter().sum();
            let probs = probs.iter().map(|p| p / total).collect();
            ChannelKind::UnitaryMixture { probs, unitaries }
        } else {
            let nominal: Vec<f64> = ops
                .iter()
                .map(|k| (k.dagger().mul_ref(k).trace().re / dim as f64).max(0.0))
                .collect();
            ChannelKind::General {
                nominal_probs: nominal,
            }
        };

        // Identity branch: K ≈ c·I with |c|² = branch weight.
        let identity_index = ops.iter().position(|k| {
            let c = k[(0, 0)];
            if c.norm_sqr() <= CHANNEL_TOL {
                return false;
            }
            let target = Matrix::<f64>::identity(dim).scaled(c);
            k.max_abs_diff(&target) <= CHANNEL_TOL.sqrt()
        });

        Ok(Self {
            name: name.into(),
            arity,
            ops,
            kind,
            identity_index,
            hash: OnceLock::new(),
        })
    }

    /// Channel label (used in provenance metadata).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of qubits the channel acts on.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Hilbert-space dimension `2^arity`.
    pub fn dim(&self) -> usize {
        1 << self.arity
    }

    /// Number of Kraus operators.
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// The `i`-th Kraus operator.
    pub fn op(&self, i: usize) -> &Matrix<f64> {
        &self.ops[i]
    }

    /// All Kraus operators.
    pub fn ops(&self) -> &[Arc<Matrix<f64>>] {
        &self.ops
    }

    /// Structural classification.
    pub fn kind(&self) -> &ChannelKind {
        &self.kind
    }

    /// True when the channel is a unitary mixture (state-independent
    /// branch probabilities).
    pub fn is_unitary_mixture(&self) -> bool {
        matches!(self.kind, ChannelKind::UnitaryMixture { .. })
    }

    /// Branch probabilities used for *pre-sampling*: exact for unitary
    /// mixtures, nominal (maximally-mixed average) for general channels.
    pub fn sampling_probs(&self) -> &[f64] {
        match &self.kind {
            ChannelKind::UnitaryMixture { probs, .. } => probs,
            ChannelKind::General { nominal_probs } => nominal_probs,
        }
    }

    /// Index of the identity ("no error") branch, when one exists.
    pub fn identity_index(&self) -> Option<usize> {
        self.identity_index
    }

    /// Per-branch *exact-identity* flags: `flags[k]` is true when branch
    /// `k` of a unitary mixture is bit-for-bit the identity matrix, so an
    /// execution path may skip its application as a mathematical no-op.
    /// Stricter than [`KrausChannel::identity_index`] (which tolerates
    /// global phase and round-off — branches whose application is *not*
    /// a no-op): phase-identities and general-channel branches are never
    /// flagged, because general channels renormalize on application.
    /// Every backend compiler consumes this same `f64`-level detection,
    /// which is what keeps scalar, batch-major and MPS paths skipping
    /// identical branches — the cross-path bitwise-identity invariant.
    pub fn identity_skip_flags(&self) -> Vec<bool> {
        match &self.kind {
            ChannelKind::UnitaryMixture { unitaries, .. } => {
                unitaries.iter().map(|u| u.is_exact_identity()).collect()
            }
            ChannelKind::General { nominal_probs } => vec![false; nominal_probs.len()],
        }
    }

    /// Probability that *some* non-identity branch fires (the `p` of
    /// Algorithm 2's `r ≤ p` test). Zero if the channel has no identity
    /// branch.
    pub fn error_probability(&self) -> f64 {
        match self.identity_index {
            Some(idx) => 1.0 - self.sampling_probs()[idx],
            None => 1.0,
        }
    }

    /// True when the channel is a *Pauli mixture*: a unitary mixture
    /// whose every branch is (up to global phase) a tensor product of
    /// single-qubit Paulis. This is exactly the noise domain of
    /// Pauli-frame simulation (Stim's, and `ptsbe_stabilizer`'s): frames
    /// propagate Pauli errors by XOR rules, so the service router uses
    /// this predicate (with [`crate::Circuit::is_clifford`]) to decide
    /// whether a job may run on the bulk frame sampler.
    pub fn is_pauli_mixture(&self) -> bool {
        let ChannelKind::UnitaryMixture { unitaries, .. } = &self.kind else {
            return false;
        };
        if self.arity > 2 {
            // branch_label only names 1- and 2-qubit Pauli products; the
            // noise zoo produces nothing wider.
            return false;
        }
        (0..unitaries.len()).all(|i| {
            let label = self.branch_label(i);
            label.len() == self.arity && label.chars().all(|c| "IXYZ".contains(c))
        })
    }

    /// Short human-readable label for branch `i` (provenance metadata).
    /// Pauli-mixture channels get `I/X/Y/Z` names; everything else is `K{i}`.
    pub fn branch_label(&self, i: usize) -> String {
        if let ChannelKind::UnitaryMixture { unitaries, .. } = &self.kind {
            let u = &unitaries[i];
            if u.rows() == 2 {
                for (name, m) in [
                    ("I", ptsbe_math::gates::pauli::<f64>(0)),
                    ("X", ptsbe_math::gates::pauli::<f64>(1)),
                    ("Y", ptsbe_math::gates::pauli::<f64>(2)),
                    ("Z", ptsbe_math::gates::pauli::<f64>(3)),
                ] {
                    if phase_free_diff(u, &m) < 1e-8 {
                        return name.to_string();
                    }
                }
            } else if u.rows() == 4 {
                if let Some(label) = two_qubit_pauli_label(u) {
                    return label;
                }
            }
        }
        format!("K{i}")
    }
}

/// Sequential composition of two channels on the same qubits:
/// `(b ∘ a)(ρ) = b(a(ρ))`, with Kraus set `{B_j · A_i}`.
///
/// # Panics
/// Panics when arities differ.
pub fn compose(name: impl Into<String>, a: &KrausChannel, b: &KrausChannel) -> KrausChannel {
    assert_eq!(a.arity(), b.arity(), "compose: arity mismatch");
    let mut ops = Vec::with_capacity(a.n_ops() * b.n_ops());
    for bj in b.ops() {
        for ai in a.ops() {
            ops.push(bj.mul_ref(ai));
        }
    }
    KrausChannel::new(name, ops).expect("composition of CPTP maps is CPTP")
}

/// Distance between two unitaries modulo global phase.
fn phase_free_diff(a: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
    // Align phases using the largest entry of b.
    let mut best = (0usize, 0usize);
    let mut best_mag = 0.0;
    for r in 0..b.rows() {
        for c in 0..b.cols() {
            let m = b[(r, c)].norm_sqr();
            if m > best_mag {
                best_mag = m;
                best = (r, c);
            }
        }
    }
    let num = a[best];
    let den = b[best];
    if num.norm_sqr() < 1e-18 {
        return f64::MAX;
    }
    let phase = num * den.conj();
    let mag = phase.abs();
    if mag < 1e-18 {
        return f64::MAX;
    }
    let phase = phase.scale(1.0 / mag);
    a.max_abs_diff(&b.scaled(phase))
}

/// Match a 4×4 unitary against the 16 two-qubit Pauli products.
fn two_qubit_pauli_label(u: &Matrix<f64>) -> Option<String> {
    const NAMES: [&str; 4] = ["I", "X", "Y", "Z"];
    for (i, ni) in NAMES.iter().enumerate() {
        for (j, nj) in NAMES.iter().enumerate() {
            let m = ptsbe_math::gates::pauli::<f64>(i).kron(&ptsbe_math::gates::pauli::<f64>(j));
            if phase_free_diff(u, &m) < 1e-8 {
                return Some(format!("{ni}{nj}"));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels;
    use ptsbe_math::gates;

    #[test]
    fn depolarizing_is_unitary_mixture() {
        let ch = channels::depolarizing(0.1);
        assert!(ch.is_unitary_mixture());
        assert_eq!(ch.n_ops(), 4);
        assert_eq!(ch.arity(), 1);
        let probs = ch.sampling_probs();
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((probs[0] - 0.9).abs() < 1e-9);
        assert_eq!(ch.identity_index(), Some(0));
        assert!((ch.error_probability() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn amplitude_damping_is_general() {
        let ch = channels::amplitude_damping(0.2);
        assert!(!ch.is_unitary_mixture());
        assert_eq!(ch.identity_index(), None);
        let nominal = ch.sampling_probs();
        assert!((nominal.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Nominal damping branch weight = γ/2.
        assert!((nominal[1] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn branch_labels_for_paulis() {
        let ch = channels::depolarizing(0.3);
        assert_eq!(ch.branch_label(0), "I");
        assert_eq!(ch.branch_label(1), "X");
        assert_eq!(ch.branch_label(2), "Y");
        assert_eq!(ch.branch_label(3), "Z");
    }

    #[test]
    fn two_qubit_labels() {
        let ch = channels::depolarizing2(0.15);
        assert_eq!(ch.branch_label(0), "II");
        // All 16 labels distinct.
        let labels: std::collections::HashSet<_> = (0..16).map(|i| ch.branch_label(i)).collect();
        assert_eq!(labels.len(), 16);
    }

    #[test]
    fn cptp_violation_rejected() {
        let bad = vec![gates::x::<f64>().scaled_real(0.5)];
        assert_eq!(
            KrausChannel::new("bad", bad).unwrap_err(),
            ChannelError::NotTracePreserving
        );
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            KrausChannel::new("e", vec![]).unwrap_err(),
            ChannelError::Empty
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        let ops = vec![Matrix::<f64>::identity(2), Matrix::<f64>::identity(4)];
        assert_eq!(
            KrausChannel::new("s", ops).unwrap_err(),
            ChannelError::BadShape
        );
        let ops = vec![Matrix::<f64>::zeros(2, 3)];
        assert_eq!(
            KrausChannel::new("s", ops).unwrap_err(),
            ChannelError::BadShape
        );
        let ops = vec![Matrix::<f64>::identity(3)];
        assert_eq!(
            KrausChannel::new("s", ops).unwrap_err(),
            ChannelError::BadShape
        );
    }

    #[test]
    fn pure_unitary_channel() {
        // A deterministic coherent error: single Kraus operator.
        let ch = KrausChannel::new("overrotate", vec![gates::rx::<f64>(0.05)]).unwrap();
        assert!(ch.is_unitary_mixture());
        assert_eq!(ch.n_ops(), 1);
        assert!((ch.sampling_probs()[0] - 1.0).abs() < 1e-12);
        // Rx(0.05) is not proportional to the identity.
        assert_eq!(ch.identity_index(), None);
        assert!((ch.error_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_detected_up_to_phase() {
        // K0 = e^{iθ}·√(1-p)·I should still register as the identity branch.
        let p = 0.1f64;
        let phase = ptsbe_math::Complex::<f64>::cis(0.7);
        let k0 = Matrix::<f64>::identity(2).scaled(phase.scale((1.0 - p).sqrt()));
        let k1 = gates::x::<f64>().scaled_real(p.sqrt());
        let ch = KrausChannel::new("phased", vec![k0, k1]).unwrap();
        assert_eq!(ch.identity_index(), Some(0));
    }

    #[test]
    fn identity_skip_flags_exact_only() {
        // Depolarizing branch 0 is the exact identity; X/Y/Z are not.
        assert_eq!(
            channels::depolarizing(0.1).identity_skip_flags(),
            vec![true, false, false, false]
        );
        // Two-qubit depolarizing: only the II branch skips.
        let flags = channels::depolarizing2(0.2).identity_skip_flags();
        assert!(flags[0]);
        assert!(flags[1..].iter().all(|&f| !f));
        // A phase-identity branch e^{iθ}·I has identity_index (tolerant)
        // but must NOT be skippable (its application multiplies a phase).
        let p = 0.1f64;
        let phase = ptsbe_math::Complex::<f64>::cis(0.7);
        let k0 = Matrix::<f64>::identity(2).scaled(phase.scale((1.0 - p).sqrt()));
        let k1 = gates::x::<f64>().scaled_real(p.sqrt());
        let ch = KrausChannel::new("phased", vec![k0, k1]).unwrap();
        assert_eq!(ch.identity_index(), Some(0));
        assert!(ch.identity_skip_flags().iter().all(|&f| !f));
        // General channels never skip, even if a branch looks identity-ish.
        assert!(channels::amplitude_damping(0.2)
            .identity_skip_flags()
            .iter()
            .all(|&f| !f));
    }

    #[test]
    fn phase_damping_detection() {
        // Phase damping Kraus ops are diagonal but K1 ∝ |1><1| is not
        // unitary-scalable => general channel.
        let ch = channels::phase_damping(0.25);
        assert!(!ch.is_unitary_mixture());
    }

    #[test]
    fn phase_flip_vs_phase_damping_equivalence_point() {
        // Phase flip (unitary mixture) exists for the same physics; the
        // classifier must distinguish the two forms.
        let flip = channels::phase_flip(0.25);
        assert!(flip.is_unitary_mixture());
    }
}
