//! Exact density-matrix simulator: the validation oracle.
//!
//! The paper frames trajectory methods as the tractable approximation to
//! exact `2^n × 2^n` density-matrix evolution (§1–2). This crate provides
//! that exact evolution at small `n` so the workspace can *prove* its
//! trajectory machinery correct: the trajectory-ensemble average must
//! converge to the channel-evolved density matrix, and PTSBE's
//! importance-weighted estimators must agree with oracle expectations.
//!
//! `f64` only — oracles don't get to cut precision corners.

use ptsbe_circuit::{KrausChannel, NoisyCircuit, NoisyOp};
use ptsbe_math::{svd::svd, Complex, Matrix, C64};

/// An `n`-qubit density matrix (row-major `2^n × 2^n`).
#[derive(Clone, Debug)]
pub struct DensityMatrix {
    n_qubits: usize,
    dim: usize,
    data: Vec<C64>,
}

impl DensityMatrix {
    /// |0…0⟩⟨0…0| on `n_qubits`.
    ///
    /// # Panics
    /// Panics above 13 qubits (4^13 × 16 B = 1 GiB; the oracle is for
    /// small systems by design).
    pub fn zero_state(n_qubits: usize) -> Self {
        assert!(n_qubits <= 13, "density matrix oracle limited to 13 qubits");
        let dim = 1usize << n_qubits;
        let mut data = vec![C64::zero(); dim * dim];
        data[0] = C64::one();
        Self {
            n_qubits,
            dim,
            data,
        }
    }

    /// The maximally mixed state `I/2^n`.
    pub fn maximally_mixed(n_qubits: usize) -> Self {
        let dim = 1usize << n_qubits;
        let mut dm = Self::zero_state(n_qubits);
        dm.data.fill(C64::zero());
        let w = 1.0 / dim as f64;
        for i in 0..dim {
            dm.data[i * dim + i] = C64::real(w);
        }
        dm
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Hilbert dimension `2^n`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Entry `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> C64 {
        self.data[r * self.dim + c]
    }

    /// Trace (≈ 1 for a normalized state).
    pub fn trace(&self) -> f64 {
        (0..self.dim).map(|i| self.data[i * self.dim + i].re).sum()
    }

    /// Purity `tr(ρ²)`; 1 for pure states, `1/2^n` for maximally mixed.
    pub fn purity(&self) -> f64 {
        // tr(ρ²) = Σ_{rc} ρ_{rc} ρ_{cr} = Σ_{rc} |ρ_{rc}|² (Hermitian).
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Measurement distribution over the computational basis.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim)
            .map(|i| self.data[i * self.dim + i].re.max(0.0))
            .collect()
    }

    /// Probability qubit `q` measures 1.
    pub fn prob_one(&self, q: usize) -> f64 {
        let mask = 1usize << q;
        (0..self.dim)
            .filter(|i| i & mask != 0)
            .map(|i| self.data[i * self.dim + i].re)
            .sum()
    }

    /// `⟨ψ|ρ|ψ⟩` — fidelity against a pure state.
    pub fn fidelity_pure(&self, amps: &[C64]) -> f64 {
        assert_eq!(amps.len(), self.dim);
        let mut acc = C64::zero();
        for r in 0..self.dim {
            let mut row = C64::zero();
            let cells = &self.data[r * self.dim..(r + 1) * self.dim];
            for (&m, &a) in cells.iter().zip(amps) {
                row += m * a;
            }
            acc += amps[r].conj() * row;
        }
        acc.re
    }

    /// Trace distance `½‖ρ−σ‖₁` (via singular values of the Hermitian
    /// difference).
    pub fn trace_distance(&self, other: &Self) -> f64 {
        assert_eq!(self.dim, other.dim);
        let mut diff = Matrix::<f64>::zeros(self.dim, self.dim);
        for r in 0..self.dim {
            for c in 0..self.dim {
                diff[(r, c)] = self.get(r, c) - other.get(r, c);
            }
        }
        0.5 * svd(&diff).s.iter().sum::<f64>()
    }

    /// Apply a unitary on the listed qubits: `ρ → UρU†`.
    pub fn apply_unitary(&mut self, u: &Matrix<f64>, qubits: &[usize]) {
        self.apply_left(u, qubits);
        self.apply_right_dagger(u, qubits);
    }

    /// Apply a CPTP channel: `ρ → Σ K ρ K†`.
    pub fn apply_channel_ops(&mut self, ops: &[&Matrix<f64>], qubits: &[usize]) {
        let mut acc = vec![C64::zero(); self.data.len()];
        let original = self.data.clone();
        for k in ops {
            self.data.copy_from_slice(&original);
            self.apply_left(k, qubits);
            self.apply_right_dagger(k, qubits);
            for (a, d) in acc.iter_mut().zip(&self.data) {
                *a += *d;
            }
        }
        self.data = acc;
    }

    /// Apply a [`KrausChannel`].
    pub fn apply_channel(&mut self, ch: &KrausChannel, qubits: &[usize]) {
        let ops: Vec<&Matrix<f64>> = ch.ops().iter().map(|k| k.as_ref()).collect();
        self.apply_channel_ops(&ops, qubits);
    }

    /// Left multiplication `ρ → M ρ` where `M` acts on `qubits`.
    fn apply_left(&mut self, m: &Matrix<f64>, qubits: &[usize]) {
        let k = qubits.len();
        let gdim = 1usize << k;
        assert_eq!(m.rows(), gdim);
        let offsets = bit_offsets(qubits);
        let free = free_indices(self.n_qubits, qubits);
        let dim = self.dim;
        let mut x = vec![C64::zero(); gdim];
        for col in 0..dim {
            for &base in &free {
                for (g, &off) in offsets.iter().enumerate() {
                    x[g] = self.data[(base + off) * dim + col];
                }
                for (r, &off) in offsets.iter().enumerate() {
                    let mut acc = C64::zero();
                    for (c, &xc) in x.iter().enumerate() {
                        acc += m[(r, c)] * xc;
                    }
                    self.data[(base + off) * dim + col] = acc;
                }
            }
        }
    }

    /// Right multiplication `ρ → ρ M†` where `M` acts on `qubits`.
    fn apply_right_dagger(&mut self, m: &Matrix<f64>, qubits: &[usize]) {
        let k = qubits.len();
        let gdim = 1usize << k;
        let offsets = bit_offsets(qubits);
        let free = free_indices(self.n_qubits, qubits);
        let dim = self.dim;
        let mut x = vec![C64::zero(); gdim];
        for row in 0..dim {
            let row_base = row * dim;
            for &base in &free {
                for (g, &off) in offsets.iter().enumerate() {
                    x[g] = self.data[row_base + base + off];
                }
                // (ρ M†)_{r,c} = Σ_j ρ_{r,j} conj(M_{c,j})
                for (cidx, &off) in offsets.iter().enumerate() {
                    let mut acc = C64::zero();
                    for (j, &xj) in x.iter().enumerate() {
                        acc += xj * m[(cidx, j)].conj();
                    }
                    self.data[row_base + base + off] = acc;
                }
            }
        }
    }

    /// Partial trace keeping only `keep` (ascending order defines the new
    /// qubit labels).
    pub fn partial_trace(&self, keep: &[usize]) -> DensityMatrix {
        let mut keep_sorted = keep.to_vec();
        keep_sorted.sort_unstable();
        keep_sorted.dedup();
        assert_eq!(
            keep_sorted.len(),
            keep.len(),
            "partial_trace: duplicate qubits"
        );
        let kn = keep_sorted.len();
        let traced: Vec<usize> = (0..self.n_qubits)
            .filter(|q| !keep_sorted.contains(q))
            .collect();
        let kdim = 1usize << kn;
        let tdim = 1usize << traced.len();
        let mut out = vec![C64::zero(); kdim * kdim];
        let expand = |bits: usize, positions: &[usize]| -> usize {
            let mut idx = 0usize;
            for (t, &q) in positions.iter().enumerate() {
                idx |= ((bits >> t) & 1) << q;
            }
            idx
        };
        for r in 0..kdim {
            for c in 0..kdim {
                let mut acc = C64::zero();
                for t in 0..tdim {
                    let row = expand(r, &keep_sorted) | expand(t, &traced);
                    let col = expand(c, &keep_sorted) | expand(t, &traced);
                    acc += self.data[row * self.dim + col];
                }
                out[r * kdim + c] = acc;
            }
        }
        DensityMatrix {
            n_qubits: kn,
            dim: kdim,
            data: out,
        }
    }

    /// Exactly evolve a [`NoisyCircuit`] (terminal measurements ignored —
    /// read the distribution off [`DensityMatrix::probabilities`]).
    pub fn evolve(nc: &NoisyCircuit) -> DensityMatrix {
        let mut dm = DensityMatrix::zero_state(nc.n_qubits());
        for op in nc.ops() {
            match op {
                NoisyOp::Gate(g) => {
                    let m = g.gate.matrix::<f64>();
                    dm.apply_unitary(&m, &g.qubits);
                }
                NoisyOp::Site(id) => {
                    let site = &nc.sites()[*id];
                    dm.apply_channel(&site.channel, &site.qubits);
                }
                NoisyOp::Measure { .. } => {}
                NoisyOp::Reset { qubit } => {
                    // Reset = measure-and-discard: ρ → P0ρP0 + X P1ρP1 X.
                    let mut p0 = Matrix::<f64>::zeros(2, 2);
                    p0[(0, 0)] = Complex::one();
                    let mut xp1 = Matrix::<f64>::zeros(2, 2);
                    xp1[(0, 1)] = Complex::one();
                    dm.apply_channel_ops(&[&p0, &xp1], &[*qubit]);
                }
            }
        }
        dm
    }

    /// `tr(ρ · P)` for an n-qubit Pauli string given as per-qubit letters
    /// (index = qubit): the oracle-side observable evaluator.
    pub fn expectation_pauli(&self, letters: &[char]) -> f64 {
        assert_eq!(letters.len(), self.n_qubits, "one letter per qubit");
        let mut p = Matrix::<f64>::identity(1);
        // Build P = P_{n-1} ⊗ … ⊗ P_0 to match LSB-first indexing.
        for &ch in letters.iter().rev() {
            let m = match ch {
                'I' => Matrix::identity(2),
                'X' => ptsbe_math::gates::x(),
                'Y' => ptsbe_math::gates::y(),
                'Z' => ptsbe_math::gates::z(),
                _ => panic!("expectation_pauli: invalid letter {ch:?}"),
            };
            p = p.kron(&m);
        }
        // tr(ρP) = Σ_{rc} ρ_{rc} P_{cr}.
        let mut acc = C64::zero();
        for r in 0..self.dim {
            for c in 0..self.dim {
                acc += self.data[r * self.dim + c] * p[(c, r)];
            }
        }
        acc.re
    }
}

fn bit_offsets(qubits: &[usize]) -> Vec<usize> {
    let k = qubits.len();
    let dim = 1usize << k;
    (0..dim)
        .map(|g| {
            let mut off = 0usize;
            for (t, &q) in qubits.iter().enumerate() {
                off |= ((g >> (k - 1 - t)) & 1) << q;
            }
            off
        })
        .collect()
}

fn free_indices(n_qubits: usize, qubits: &[usize]) -> Vec<usize> {
    let free_qubits: Vec<usize> = (0..n_qubits).filter(|q| !qubits.contains(q)).collect();
    let n = 1usize << free_qubits.len();
    (0..n)
        .map(|bits| {
            let mut idx = 0usize;
            for (t, &q) in free_qubits.iter().enumerate() {
                idx |= ((bits >> t) & 1) << q;
            }
            idx
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_circuit::{channels, Circuit, NoiseModel};
    use ptsbe_math::gates;

    #[test]
    fn zero_state_properties() {
        let dm = DensityMatrix::zero_state(3);
        assert!((dm.trace() - 1.0).abs() < 1e-12);
        assert!((dm.purity() - 1.0).abs() < 1e-12);
        assert!((dm.probabilities()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).sy(2);
        let sv = ptsbe_statevector::run_pure::<f64>(&c).unwrap();
        let nc = NoisyCircuit::from_circuit(c);
        let dm = DensityMatrix::evolve(&nc);
        let probs_sv = sv.probabilities();
        let probs_dm = dm.probabilities();
        for (a, b) in probs_sv.iter().zip(&probs_dm) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!((dm.purity() - 1.0).abs() < 1e-12);
        assert!((dm.fidelity_pure(sv.amplitudes()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depolarizing_drives_to_maximally_mixed() {
        let mut dm = DensityMatrix::zero_state(1);
        let ch = channels::depolarizing(0.75); // p=3/4 = full depolarization
        dm.apply_channel(&ch, &[0]);
        let mm = DensityMatrix::maximally_mixed(1);
        assert!(dm.trace_distance(&mm) < 1e-12);
        assert!((dm.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn amplitude_damping_fixed_point() {
        // Repeated damping sends everything to |0⟩.
        let mut dm = DensityMatrix::zero_state(1);
        dm.apply_unitary(&gates::x(), &[0]);
        let ch = channels::amplitude_damping(0.5);
        for _ in 0..40 {
            dm.apply_channel(&ch, &[0]);
        }
        assert!(dm.prob_one(0) < 1e-10);
        assert!((dm.trace() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn channel_preserves_trace_and_hermiticity() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let nc = NoiseModel::new()
            .with_default_1q(channels::amplitude_damping(0.3))
            .with_default_2q(channels::depolarizing2(0.2))
            .apply(&c);
        let dm = DensityMatrix::evolve(&nc);
        assert!((dm.trace() - 1.0).abs() < 1e-10);
        for r in 0..dm.dim() {
            for cidx in 0..dm.dim() {
                let a = dm.get(r, cidx);
                let b = dm.get(cidx, r).conj();
                assert!((a - b).abs() < 1e-10, "not Hermitian at ({r},{cidx})");
            }
        }
        // Probabilities are a distribution.
        let p = dm.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        assert!(p.iter().all(|&x| x >= -1e-12));
    }

    #[test]
    fn partial_trace_of_bell_is_maximally_mixed() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let dm = DensityMatrix::evolve(&NoisyCircuit::from_circuit(c));
        let reduced = dm.partial_trace(&[0]);
        assert_eq!(reduced.n_qubits(), 1);
        let mm = DensityMatrix::maximally_mixed(1);
        assert!(reduced.trace_distance(&mm) < 1e-12);
    }

    #[test]
    fn partial_trace_of_product_state() {
        let mut c = Circuit::new(2);
        c.x(1); // |10⟩ : qubit1 = 1
        let dm = DensityMatrix::evolve(&NoisyCircuit::from_circuit(c));
        let q1 = dm.partial_trace(&[1]);
        assert!((q1.prob_one(0) - 1.0).abs() < 1e-12);
        let q0 = dm.partial_trace(&[0]);
        assert!(q0.prob_one(0) < 1e-12);
    }

    #[test]
    fn trace_distance_metric_properties() {
        let a = DensityMatrix::zero_state(1);
        let mut b = DensityMatrix::zero_state(1);
        b.apply_unitary(&gates::x(), &[0]);
        // Orthogonal pure states: distance 1.
        assert!((a.trace_distance(&b) - 1.0).abs() < 1e-10);
        assert!(a.trace_distance(&a) < 1e-12);
        // Symmetry.
        assert!((a.trace_distance(&b) - b.trace_distance(&a)).abs() < 1e-12);
    }

    #[test]
    fn reset_channel() {
        let mut c = Circuit::new(1);
        c.h(0).reset(0);
        let dm = DensityMatrix::evolve(&NoisyCircuit::from_circuit(c));
        assert!((dm.probabilities()[0] - 1.0).abs() < 1e-12);
        assert!((dm.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_qubit_gate_on_nonadjacent_qubits() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 2);
        let sv = ptsbe_statevector::run_pure::<f64>(&c).unwrap();
        let dm = DensityMatrix::evolve(&NoisyCircuit::from_circuit(c));
        for (i, p) in dm.probabilities().iter().enumerate() {
            assert!((p - sv.probability(i as u64)).abs() < 1e-12);
        }
    }

    #[test]
    fn mixed_state_fidelity_pure() {
        let mm = DensityMatrix::maximally_mixed(2);
        let amps = vec![C64::one(), C64::zero(), C64::zero(), C64::zero()];
        assert!((mm.fidelity_pure(&amps) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pauli_expectations() {
        // Bell state: ⟨XX⟩ = ⟨ZZ⟩ = +1, ⟨YY⟩ = −1, singles vanish.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let dm = DensityMatrix::evolve(&NoisyCircuit::from_circuit(c));
        assert!((dm.expectation_pauli(&['X', 'X']) - 1.0).abs() < 1e-10);
        assert!((dm.expectation_pauli(&['Z', 'Z']) - 1.0).abs() < 1e-10);
        assert!((dm.expectation_pauli(&['Y', 'Y']) + 1.0).abs() < 1e-10);
        assert!(dm.expectation_pauli(&['Z', 'I']).abs() < 1e-10);
        assert!(dm.expectation_pauli(&['I', 'X']).abs() < 1e-10);
        // Identity has unit expectation on any state.
        assert!((dm.expectation_pauli(&['I', 'I']) - 1.0).abs() < 1e-10);
    }
}
