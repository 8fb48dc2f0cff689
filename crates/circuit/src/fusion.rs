//! Gate fusion: merge runs of adjacent gates into fewer, larger kernels.
//!
//! Every trajectory pays full price per gate, so the compiled op stream —
//! shared by all trajectories and all plans in the trie — is the single
//! highest-leverage place to optimize. This module implements the fusion
//! pass [`crate::lower::lower`] runs once per [`crate::NoisyCircuit`]
//! segment (qsim/Cirq report large wins from the same idea): runs of
//! gates acting on overlapping qubit sets collapse into one fused
//! unitary, capped at 2 qubits so the statevector and MPS kernels both
//! apply the result natively.
//!
//! Fusion operates strictly *within* a gate run: the lowering walk
//! flushes the [`Fuser`] at every noise site, so Kraus branch points,
//! segment boundaries, and Philox stream association are untouched.
//!
//! Each fused op is classified ([`FusedKernel`]) so backends can route it
//! to a specialized kernel:
//! - [`FusedKernel::Diagonal`] — pure phase multiply, no amplitude
//!   movement (e.g. runs of Z/S/T/Rz/CZ);
//! - [`FusedKernel::Permutation`] — one nonzero per row/column, an index
//!   shuffle with phases (e.g. runs of X/Y/CX/SWAP);
//! - [`FusedKernel::Dense`] — the general dense apply.

use ptsbe_math::{Complex, Matrix};
use std::collections::HashMap;

/// Entries with modulus below this are treated as structural zeros when a
/// fused matrix is classified; they are zeroed in the stored matrix so
/// the specialized kernel and a dense apply of the same matrix are the
/// same linear map. The threshold sits far below the 1e-12 equivalence
/// budget the fusion test suite enforces.
pub const FUSION_ZERO_TOL: f64 = 1e-14;

/// The kernel class of a fused operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FusedKernel {
    /// General dense matrix.
    Dense,
    /// Diagonal matrix: a pure phase multiply.
    Diagonal,
    /// Exactly one nonzero per row and column: an index shuffle with
    /// phases (diagonal matrices classify as [`FusedKernel::Diagonal`]
    /// first).
    Permutation,
}

/// One fused operation: a 2×2 or 4×4 unitary over one or two qubits.
#[derive(Clone, Debug)]
pub struct FusedOp {
    /// The fused matrix at `f64`, in the workspace's gate-argument basis
    /// (`(bit_q0 << 1) | bit_q1` for two qubits). Sub-tolerance entries
    /// are zeroed (see [`FUSION_ZERO_TOL`]).
    pub matrix: Matrix<f64>,
    /// Target qubits (length 1 or 2), matching the matrix dimension.
    pub qubits: Vec<usize>,
    /// Kernel classification of [`FusedOp::matrix`].
    pub kind: FusedKernel,
}

/// Fusion report for one compiled circuit: op counts before/after and
/// the kernel-class histogram, surfaced by the backends next to the plan
/// tree's `prep_ops_saved`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Gate ops entering the fusion pass (noise sites excluded).
    pub ops_before: usize,
    /// Ops in the fused stream (noise sites excluded).
    pub ops_after: usize,
    /// Fused ops classified [`FusedKernel::Dense`].
    pub dense: usize,
    /// Fused ops classified [`FusedKernel::Diagonal`].
    pub diagonal: usize,
    /// Fused ops classified [`FusedKernel::Permutation`].
    pub permutation: usize,
    /// Ops that bypassed fusion (gates above 2 qubits act as barriers
    /// and pass through unchanged).
    pub passthrough: usize,
}

impl FusionStats {
    /// Gate applications eliminated per trajectory preparation.
    pub fn ops_saved(&self) -> usize {
        self.ops_before - self.ops_after
    }

    /// Fraction of gate ops eliminated (0 when the stream was empty).
    pub fn reduction(&self) -> f64 {
        if self.ops_before == 0 {
            0.0
        } else {
            self.ops_saved() as f64 / self.ops_before as f64
        }
    }

    /// Tally one fused run of `before` input gates.
    pub fn record_run(&mut self, before: usize, run: &[FusedOp]) {
        self.ops_before += before;
        self.ops_after += run.len();
        for op in run {
            match op.kind {
                FusedKernel::Dense => self.dense += 1,
                FusedKernel::Diagonal => self.diagonal += 1,
                FusedKernel::Permutation => self.permutation += 1,
            }
        }
    }

    /// Tally one op that bypassed fusion unchanged.
    pub fn record_passthrough(&mut self) {
        self.ops_before += 1;
        self.ops_after += 1;
        self.passthrough += 1;
    }
}

impl std::fmt::Display for FusionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ops -> {} ({:.1}% saved; dense {}, diag {}, perm {}, passthrough {})",
            self.ops_before,
            self.ops_after,
            100.0 * self.reduction(),
            self.dense,
            self.diagonal,
            self.permutation,
            self.passthrough
        )
    }
}

/// A pending (still-growing) fused op.
struct Pending {
    matrix: Matrix<f64>,
    qubits: Vec<usize>,
}

/// Streaming gate fuser over one gate run (no noise sites inside).
///
/// Gates are pushed in circuit order; [`Fuser::finish`] emits the fused
/// stream. The invariant that makes greedy merging sound: a gate may be
/// merged into pending op `i` only when `i` is the *latest* pending op
/// touching every one of the gate's qubits — any pending op after `i`
/// then acts on disjoint qubits and commutes past the merged gate.
#[derive(Default)]
pub struct Fuser {
    /// Emission-ordered slots; merged-away ops leave `None` tombstones.
    slots: Vec<Option<Pending>>,
    /// Latest slot touching each qubit.
    active: HashMap<usize, usize>,
    /// Gates pushed so far.
    pushed: usize,
}

impl Fuser {
    /// A fresh fuser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Push the next gate of the run.
    ///
    /// # Panics
    /// Panics on arities other than 1 or 2 (larger gates are fusion
    /// barriers — flush with [`Fuser::finish`] and emit them unchanged).
    pub fn push(&mut self, m: &Matrix<f64>, qubits: &[usize]) {
        self.pushed += 1;
        match *qubits {
            [q] => self.push_1q(m, q),
            [a, b] => self.push_2q(m, a, b),
            _ => panic!("fuser accepts only 1- and 2-qubit gates"),
        }
    }

    fn push_1q(&mut self, m: &Matrix<f64>, q: usize) {
        if let Some(&i) = self.active.get(&q) {
            let p = self.slots[i].as_mut().expect("active slot live");
            if p.qubits.len() == 1 {
                p.matrix = m.mul_ref(&p.matrix);
            } else {
                let pos = usize::from(p.qubits[0] != q);
                p.matrix = embed_1q(m, pos).mul_ref(&p.matrix);
            }
        } else {
            self.open_slot(m.clone(), vec![q]);
        }
    }

    fn push_2q(&mut self, m: &Matrix<f64>, a: usize, b: usize) {
        assert_ne!(a, b, "two-qubit gate needs distinct qubits");
        let ia = self.active.get(&a).copied();
        let ib = self.active.get(&b).copied();
        match (ia, ib) {
            (Some(i), Some(j)) if i == j => {
                // The pending op already covers exactly {a, b}.
                let p = self.slots[i].as_mut().expect("active slot live");
                let aligned = if p.qubits == [a, b] {
                    m.clone()
                } else {
                    swap_2q_args(m)
                };
                p.matrix = aligned.mul_ref(&p.matrix);
            }
            (Some(i), Some(j)) => {
                // Two distinct pending ops. Any 1-qubit pending can be
                // absorbed (the result stays within 2 qubits); a 2-qubit
                // pending spanning a third qubit cannot. Moving absorbed
                // ops to a fresh trailing slot is safe: each was the
                // latest op on its qubit, so everything after it commutes
                // past.
                let i_1q = self.slots[i].as_ref().expect("live").qubits.len() == 1;
                let j_1q = self.slots[j].as_ref().expect("live").qubits.len() == 1;
                let init = match (i_1q, j_1q) {
                    (true, true) => {
                        let pa = self.slots[i].take().expect("live");
                        let pb = self.slots[j].take().expect("live");
                        Some(pa.matrix.kron(&pb.matrix))
                    }
                    (true, false) => {
                        let pa = self.slots[i].take().expect("live");
                        Some(pa.matrix.kron(&Matrix::identity(2)))
                    }
                    (false, true) => {
                        let pb = self.slots[j].take().expect("live");
                        Some(Matrix::identity(2).kron(&pb.matrix))
                    }
                    (false, false) => None,
                };
                match init {
                    Some(init) => self.open_slot(m.mul_ref(&init), vec![a, b]),
                    None => self.open_slot(m.clone(), vec![a, b]),
                }
            }
            (Some(i), None) | (None, Some(i)) => {
                let on_a = ia.is_some();
                if self.slots[i].as_ref().expect("live").qubits.len() == 1 {
                    let p = self.slots[i].take().expect("live");
                    let init = if on_a {
                        p.matrix.kron(&Matrix::identity(2))
                    } else {
                        Matrix::identity(2).kron(&p.matrix)
                    };
                    self.open_slot(m.mul_ref(&init), vec![a, b]);
                } else {
                    // Pending op spans a third qubit; cannot grow past 2.
                    self.open_slot(m.clone(), vec![a, b]);
                }
            }
            (None, None) => {
                self.open_slot(m.clone(), vec![a, b]);
            }
        }
    }

    fn open_slot(&mut self, matrix: Matrix<f64>, qubits: Vec<usize>) {
        let idx = self.slots.len();
        for &q in &qubits {
            self.active.insert(q, idx);
        }
        self.slots.push(Some(Pending { matrix, qubits }));
    }

    /// Emit the fused stream in execution order and reset the fuser for
    /// the next run. Returns `(gates pushed, fused ops)`.
    pub fn finish(&mut self) -> (usize, Vec<FusedOp>) {
        let pushed = std::mem::take(&mut self.pushed);
        self.active.clear();
        let out = std::mem::take(&mut self.slots)
            .into_iter()
            .flatten()
            .map(|p| {
                let mut matrix = p.matrix;
                zero_small_entries(&mut matrix);
                let kind = classify(&matrix);
                FusedOp {
                    matrix,
                    qubits: p.qubits,
                    kind,
                }
            })
            .collect();
        (pushed, out)
    }
}

/// Fuse one complete gate run (convenience over the streaming [`Fuser`]).
pub fn fuse_run<'a, I>(gates: I) -> Vec<FusedOp>
where
    I: IntoIterator<Item = (&'a Matrix<f64>, &'a [usize])>,
{
    let mut fuser = Fuser::new();
    for (m, qs) in gates {
        fuser.push(m, qs);
    }
    fuser.finish().1
}

/// Classify a (cleaned) matrix into its kernel class.
pub fn classify(m: &Matrix<f64>) -> FusedKernel {
    let n = m.rows();
    let zero = Complex::<f64>::zero();
    let diagonal = (0..n).all(|r| (0..n).all(|c| r == c || m[(r, c)] == zero));
    if diagonal {
        return FusedKernel::Diagonal;
    }
    let one_per_row = (0..n).all(|r| (0..n).filter(|&c| m[(r, c)] != zero).count() == 1);
    let one_per_col = (0..n).all(|c| (0..n).filter(|&r| m[(r, c)] != zero).count() == 1);
    if one_per_row && one_per_col {
        FusedKernel::Permutation
    } else {
        FusedKernel::Dense
    }
}

/// Zero entries below [`FUSION_ZERO_TOL`] so classification is structural
/// and the stored matrix equals the operator the specialized kernel
/// applies.
fn zero_small_entries(m: &mut Matrix<f64>) {
    for z in m.as_mut_slice() {
        if z.abs() < FUSION_ZERO_TOL {
            *z = Complex::zero();
        }
    }
}

/// Embed a 2×2 matrix into a 4×4 at position `pos` of the fused op's
/// qubit pair (0 = first/most-significant qubit, 1 = second).
fn embed_1q(m: &Matrix<f64>, pos: usize) -> Matrix<f64> {
    if pos == 0 {
        m.kron(&Matrix::identity(2))
    } else {
        Matrix::identity(2).kron(m)
    }
}

/// Rewrite a 4×4 matrix from basis `(bit_a << 1) | bit_b` to the basis
/// with the two qubit roles exchanged.
fn swap_2q_args(m: &Matrix<f64>) -> Matrix<f64> {
    let sw = |x: usize| ((x & 1) << 1) | (x >> 1);
    let mut out = Matrix::zeros(4, 4);
    for r in 0..4 {
        for c in 0..4 {
            out[(r, c)] = m[(sw(r), sw(c))];
        }
    }
    out
}

/// Embed a 1-/2-qubit matrix into the full `2^n` space (qubit `q` = bit
/// `q`; gate basis bit `k-1-t` corresponds to `qs[t]`, matching
/// [`ptsbe_math::gates`]). Exponential in `n` — this is the *test
/// oracle* the fusion equivalence suites compare streams with, not an
/// execution path.
pub fn embed_unitary(n: usize, m: &Matrix<f64>, qs: &[usize]) -> Matrix<f64> {
    let dim = 1usize << n;
    let k = qs.len();
    let mut out = Matrix::zeros(dim, dim);
    for col in 0..dim {
        let gc: usize = qs
            .iter()
            .enumerate()
            .map(|(t, &q)| ((col >> q) & 1) << (k - 1 - t))
            .sum();
        let base = qs.iter().fold(col, |acc, &q| acc & !(1 << q));
        for gr in 0..(1usize << k) {
            let mut row = base;
            for (t, &q) in qs.iter().enumerate() {
                row |= ((gr >> (k - 1 - t)) & 1) << q;
            }
            out[(row, col)] += m[(gr, gc)];
        }
    }
    out
}

/// Compose an op list into its full `2^n` unitary (left-multiplication
/// in circuit order). Companion test oracle to [`embed_unitary`].
pub fn compose_ops(n: usize, ops: &[(Matrix<f64>, Vec<usize>)]) -> Matrix<f64> {
    let mut u = Matrix::<f64>::identity(1 << n);
    for (m, qs) in ops {
        u = embed_unitary(n, m, qs).mul_ref(&u);
    }
    u
}

/// Extract the permutation form of a [`FusedKernel::Permutation`] (or
/// [`FusedKernel::Diagonal`]) matrix: `perm[r]` is the column holding row
/// `r`'s single nonzero and `phase[r]` its value, i.e.
/// `out[r] = phase[r] * in[perm[r]]`.
///
/// # Panics
/// Panics if some row does not have exactly one nonzero entry.
pub fn permutation_form(m: &Matrix<f64>) -> (Vec<usize>, Vec<Complex<f64>>) {
    let n = m.rows();
    let mut perm = Vec::with_capacity(n);
    let mut phase = Vec::with_capacity(n);
    for r in 0..n {
        let mut hit = None;
        for c in 0..n {
            if m[(r, c)] != Complex::zero() {
                assert!(hit.is_none(), "row {r} has multiple nonzeros");
                hit = Some(c);
            }
        }
        let c = hit.expect("permutation row has a nonzero");
        perm.push(c);
        phase.push(m[(r, c)]);
    }
    (perm, phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_math::gates;

    use super::compose_ops as compose;

    fn assert_fused_equivalent(n: usize, ops: &[(Matrix<f64>, Vec<usize>)]) {
        let fused = fuse_run(ops.iter().map(|(m, q)| (m, q.as_slice())));
        let fused_ops: Vec<_> = fused
            .iter()
            .map(|f| (f.matrix.clone(), f.qubits.clone()))
            .collect();
        let a = compose(n, ops);
        let b = compose(n, &fused_ops);
        assert!(
            a.max_abs_diff(&b) < 1e-12,
            "fused stream diverged: {}",
            a.max_abs_diff(&b)
        );
    }

    #[test]
    fn single_qubit_run_collapses_to_one_op() {
        let ops = vec![
            (gates::h::<f64>(), vec![0]),
            (gates::t::<f64>(), vec![0]),
            (gates::h::<f64>(), vec![0]),
            (gates::s::<f64>(), vec![0]),
        ];
        let fused = fuse_run(ops.iter().map(|(m, q)| (m, q.as_slice())));
        assert_eq!(fused.len(), 1);
        assert_fused_equivalent(1, &ops);
    }

    #[test]
    fn one_q_runs_absorb_into_two_q_ops() {
        // h(0) h(1) cx(0,1) t(1) -> one 4x4.
        let ops = vec![
            (gates::h::<f64>(), vec![0]),
            (gates::h::<f64>(), vec![1]),
            (gates::cx::<f64>(), vec![0, 1]),
            (gates::t::<f64>(), vec![1]),
        ];
        let fused = fuse_run(ops.iter().map(|(m, q)| (m, q.as_slice())));
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].qubits, vec![0, 1]);
        assert_fused_equivalent(2, &ops);
    }

    #[test]
    fn reversed_argument_order_aligned() {
        // cx(0,1) then cx(1,0): must compose in the shared basis.
        let ops = vec![
            (gates::cx::<f64>(), vec![0, 1]),
            (gates::cx::<f64>(), vec![1, 0]),
        ];
        let fused = fuse_run(ops.iter().map(|(m, q)| (m, q.as_slice())));
        assert_eq!(fused.len(), 1);
        assert_fused_equivalent(2, &ops);
    }

    #[test]
    fn overlapping_pairs_do_not_merge_past_two_qubits() {
        let ops = vec![
            (gates::cx::<f64>(), vec![0, 1]),
            (gates::cx::<f64>(), vec![1, 2]),
            (gates::cx::<f64>(), vec![2, 0]),
        ];
        let fused = fuse_run(ops.iter().map(|(m, q)| (m, q.as_slice())));
        assert_eq!(fused.len(), 3);
        assert_fused_equivalent(3, &ops);
    }

    #[test]
    fn one_q_pending_absorbed_when_other_qubit_is_busy() {
        // cx(1,2); t(0); cx(0,1): the t(0) pending must fold into the
        // cx(0,1) op even though qubit 1's pending is a 2q op — 3 gates
        // fuse to 2, not 3.
        let ops = vec![
            (gates::cx::<f64>(), vec![1, 2]),
            (gates::t::<f64>(), vec![0]),
            (gates::cx::<f64>(), vec![0, 1]),
        ];
        let fused = fuse_run(ops.iter().map(|(m, q)| (m, q.as_slice())));
        assert_eq!(fused.len(), 2);
        assert_fused_equivalent(3, &ops);
        // Mirror case: the 1q pending sits on the second argument.
        let ops = vec![
            (gates::cx::<f64>(), vec![0, 2]),
            (gates::t::<f64>(), vec![1]),
            (gates::cx::<f64>(), vec![0, 1]),
        ];
        let fused = fuse_run(ops.iter().map(|(m, q)| (m, q.as_slice())));
        assert_eq!(fused.len(), 2);
        assert_fused_equivalent(3, &ops);
    }

    #[test]
    fn stale_active_entries_stay_safe() {
        // cx(0,1) leaves qubit 1 active; cx(1,2) supersedes it; a later
        // 1q gate on 0 must merge into the *first* op only if nothing
        // after it touches 0 — here cx(2,0) does, so it must not.
        let ops = vec![
            (gates::cx::<f64>(), vec![0, 1]),
            (gates::cx::<f64>(), vec![1, 2]),
            (gates::cx::<f64>(), vec![2, 0]),
            (gates::t::<f64>(), vec![1]),
            (gates::h::<f64>(), vec![0]),
        ];
        assert_fused_equivalent(3, &ops);
    }

    #[test]
    fn classification_diagonal() {
        let ops = [
            (gates::t::<f64>(), vec![0]),
            (gates::rz::<f64>(0.37), vec![0]),
            (gates::s::<f64>(), vec![0]),
        ];
        let fused = fuse_run(ops.iter().map(|(m, q)| (m, q.as_slice())));
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].kind, FusedKernel::Diagonal);
    }

    #[test]
    fn classification_permutation() {
        let fused = fuse_run([
            (&gates::x::<f64>(), [0usize].as_slice()),
            (&gates::cx::<f64>(), [0, 1].as_slice()),
        ]);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].kind, FusedKernel::Permutation);
        let (perm, phase) = permutation_form(&fused[0].matrix);
        assert_eq!(perm.len(), 4);
        for p in phase {
            assert!((p.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn classification_dense_and_hh_identity_diagonal() {
        let dense = fuse_run([(&gates::h::<f64>(), [0usize].as_slice())]);
        assert_eq!(dense[0].kind, FusedKernel::Dense);
        // H·H = I must classify as diagonal (exact zeros off-diagonal).
        let ident = fuse_run([
            (&gates::h::<f64>(), [0usize].as_slice()),
            (&gates::h::<f64>(), [0usize].as_slice()),
        ]);
        assert_eq!(ident[0].kind, FusedKernel::Diagonal);
    }

    #[test]
    fn cz_alone_is_diagonal() {
        let fused = fuse_run([(&gates::cz::<f64>(), [0usize, 1].as_slice())]);
        assert_eq!(fused[0].kind, FusedKernel::Diagonal);
    }

    #[test]
    fn stats_tally() {
        let mut stats = FusionStats::default();
        let ops = vec![
            (gates::h::<f64>(), vec![0]),
            (gates::t::<f64>(), vec![0]),
            (gates::cx::<f64>(), vec![0, 1]),
        ];
        let mut fuser = Fuser::new();
        for (m, q) in &ops {
            fuser.push(m, q);
        }
        let (before, run) = fuser.finish();
        stats.record_run(before, &run);
        stats.record_passthrough();
        assert_eq!(stats.ops_before, 4);
        assert_eq!(stats.ops_after, run.len() + 1);
        assert_eq!(stats.passthrough, 1);
        assert!(stats.ops_saved() >= 2);
        assert!(stats.reduction() > 0.0);
        let shown = format!("{stats}");
        assert!(shown.contains("saved"), "{shown}");
    }

    #[test]
    fn random_runs_compose_exactly() {
        let mut rng = ptsbe_rng::PhiloxRng::new(42, 0);
        for trial in 0..25 {
            let n = 3;
            let mut ops = Vec::new();
            for step in 0..10 {
                // Deterministic mix of arities/qubits from the RNG.
                let r = ptsbe_rng::Rng::next_u64(&mut rng);
                let a = (r % n as u64) as usize;
                let b = ((r >> 8) % n as u64) as usize;
                if r.is_multiple_of(3) && a != b {
                    ops.push((gates::cx::<f64>(), vec![a, b]));
                } else if step % 2 == 0 {
                    ops.push((
                        ptsbe_math::random::haar_unitary::<f64>(2, &mut rng),
                        vec![a],
                    ));
                } else {
                    ops.push((gates::rz::<f64>(0.1 * trial as f64), vec![a]));
                }
            }
            assert_fused_equivalent(n, &ops);
        }
    }
}
