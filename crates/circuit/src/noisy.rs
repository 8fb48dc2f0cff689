//! Noisy circuits: the sampling domain of the PTS algorithms.
//!
//! A [`NoisyCircuit`] is a circuit whose stochastic content has been made
//! explicit as an indexed list of [`NoiseSite`]s (paper Fig. 2: the hollow
//! blue squares). A *trajectory* is then simply one Kraus-index choice per
//! site, and everything the PTS layer does — proportional sampling,
//! probability bands, top-k enumeration, provenance labeling — operates on
//! this site list without touching any quantum state.

use crate::circuit::Circuit;
use crate::kraus::KrausChannel;
use crate::op::{GateOp, Op};
use std::sync::{Arc, OnceLock};

/// One stochastic location in the circuit.
#[derive(Clone, Debug)]
pub struct NoiseSite {
    /// Dense site index (`0..n_sites`), the key used by trajectory
    /// assignments and provenance records.
    pub id: usize,
    /// Position in [`NoisyCircuit::ops`] where the site fires.
    pub op_index: usize,
    /// Qubits the channel acts on.
    pub qubits: Vec<usize>,
    /// The channel.
    pub channel: Arc<KrausChannel>,
}

/// Execution-ready op stream: gates interleaved with numbered noise sites.
#[derive(Clone, Debug)]
pub enum NoisyOp {
    /// Coherent gate.
    Gate(GateOp),
    /// Stochastic site, resolved via the trajectory assignment (PTSBE) or
    /// sampled at runtime (Algorithm 1 baseline).
    Site(usize),
    /// Z-basis measurement.
    Measure {
        /// Qubits to measure, in record order.
        qubits: Vec<usize>,
    },
    /// Reset to |0⟩.
    Reset {
        /// The qubit to reset.
        qubit: usize,
    },
}

/// A circuit with explicit, indexed noise sites.
///
/// Immutable once built: the fields are private and no method takes
/// `&mut self`. [`NoisyCircuit::content_hash`] relies on that to memoize
/// the circuit's cache key after its first call.
#[derive(Clone, Debug)]
pub struct NoisyCircuit {
    n_qubits: usize,
    ops: Vec<NoisyOp>,
    sites: Vec<NoiseSite>,
    /// [`NoisyCircuit::content_hash`], filled by its first call.
    pub(crate) hash: OnceLock<u64>,
}

impl NoisyCircuit {
    /// Convert a circuit containing [`Op::Noise`] entries into indexed form.
    pub fn from_circuit(circuit: Circuit) -> Self {
        let n_qubits = circuit.n_qubits();
        let mut ops = Vec::with_capacity(circuit.ops().len());
        let mut sites = Vec::new();
        for op in circuit.ops() {
            match op {
                Op::Gate(g) => ops.push(NoisyOp::Gate(g.clone())),
                Op::Noise(n) => {
                    let id = sites.len();
                    sites.push(NoiseSite {
                        id,
                        op_index: ops.len(),
                        qubits: n.qubits.clone(),
                        channel: Arc::clone(&n.channel),
                    });
                    ops.push(NoisyOp::Site(id));
                }
                Op::Measure { qubits } => ops.push(NoisyOp::Measure {
                    qubits: qubits.clone(),
                }),
                Op::Reset { qubit } => ops.push(NoisyOp::Reset { qubit: *qubit }),
            }
        }
        Self {
            n_qubits,
            ops,
            sites,
            hash: OnceLock::new(),
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The op stream.
    pub fn ops(&self) -> &[NoisyOp] {
        &self.ops
    }

    /// The noise sites, ordered by position in the circuit.
    pub fn sites(&self) -> &[NoiseSite] {
        &self.sites
    }

    /// Number of noise sites.
    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// Qubits measured, in record order.
    pub fn measured_qubits(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for op in &self.ops {
            if let NoisyOp::Measure { qubits } = op {
                out.extend_from_slice(qubits);
            }
        }
        out
    }

    /// True when every site's channel is a unitary mixture, i.e. PTS
    /// pre-sampling is *exact* (no importance weights needed).
    pub fn all_unitary_mixture(&self) -> bool {
        self.sites.iter().all(|s| s.channel.is_unitary_mixture())
    }

    /// True when the coherent part is Clifford and every channel is a
    /// unitary mixture of Paulis — the condition for the stabilizer
    /// backend.
    pub fn gates_clifford(&self) -> bool {
        self.ops.iter().all(|o| match o {
            NoisyOp::Gate(g) => g.gate.is_clifford(),
            _ => true,
        })
    }

    /// True when every coherent gate is a Clifford (the noisy-circuit
    /// counterpart of [`Circuit::is_clifford`]; alias of
    /// [`NoisyCircuit::gates_clifford`] under the name the service router
    /// reads).
    pub fn is_clifford(&self) -> bool {
        self.gates_clifford()
    }

    /// True when every noise site's channel is a Pauli mixture (see
    /// [`KrausChannel::is_pauli_mixture`]). Together with
    /// [`NoisyCircuit::is_clifford`] and the absence of resets, this is
    /// the router's precondition for the bulk Pauli-frame engine.
    pub fn all_pauli_channels(&self) -> bool {
        self.sites.iter().all(|s| s.channel.is_pauli_mixture())
    }

    /// True when the circuit contains a reset op (stochastic — rejected
    /// by every fixed-assignment backend and by the frame sampler).
    pub fn has_reset(&self) -> bool {
        self.ops.iter().any(|o| matches!(o, NoisyOp::Reset { .. }))
    }

    /// Nominal joint probability of a full trajectory assignment
    /// (`choices[site.id]` = Kraus index). Exact for unitary-mixture
    /// channels; the maximally-mixed-state proposal weight otherwise.
    pub fn assignment_probability(&self, choices: &[usize]) -> f64 {
        assert_eq!(
            choices.len(),
            self.sites.len(),
            "assignment length mismatch"
        );
        let mut p = 1.0;
        for site in &self.sites {
            p *= site.channel.sampling_probs()[choices[site.id]];
        }
        p
    }

    /// True when two sites could represent *simultaneous* errors on a
    /// shared qubit — Algorithm 2's `compatible()` rejects such pairs when
    /// building correlated injections.
    pub fn sites_conflict(&self, a: usize, b: usize) -> bool {
        let (sa, sb) = (&self.sites[a], &self.sites[b]);
        sa.op_index == sb.op_index && sa.qubits.iter().any(|q| sb.qubits.contains(q))
    }

    /// The trivial ("no error anywhere") assignment, when every channel
    /// has an identity branch.
    pub fn identity_assignment(&self) -> Option<Vec<usize>> {
        self.sites
            .iter()
            .map(|s| s.channel.identity_index())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels;
    use crate::noise_model::NoiseModel;

    fn noisy_bell(p: f64) -> NoisyCircuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        NoiseModel::new()
            .with_default_1q(channels::depolarizing(p))
            .with_default_2q(channels::depolarizing(p))
            .apply(&c)
    }

    #[test]
    fn site_indexing() {
        let nc = noisy_bell(0.1);
        assert_eq!(nc.n_sites(), 3); // h -> 1, cx -> 2 (per-qubit fan-out)
        for (i, site) in nc.sites().iter().enumerate() {
            assert_eq!(site.id, i);
            match &nc.ops()[site.op_index] {
                NoisyOp::Site(id) => assert_eq!(*id, i),
                other => panic!("op_index points at {other:?}"),
            }
        }
    }

    #[test]
    fn assignment_probability_factorizes() {
        let nc = noisy_bell(0.1);
        let ident = nc.identity_assignment().unwrap();
        let p0 = nc.assignment_probability(&ident);
        assert!((p0 - 0.9f64.powi(3)).abs() < 1e-12);
        // One X error on site 0.
        let mut one_err = ident.clone();
        one_err[0] = 1;
        let p1 = nc.assignment_probability(&one_err);
        assert!((p1 - 0.9f64.powi(2) * (0.1 / 3.0)).abs() < 1e-12);
        assert!(p1 < p0);
    }

    #[test]
    fn unitary_mixture_detection_propagates() {
        assert!(noisy_bell(0.2).all_unitary_mixture());
        let mut c = Circuit::new(1);
        c.h(0);
        let nc = NoiseModel::new()
            .with_default_1q(channels::amplitude_damping(0.2))
            .apply(&c);
        assert!(!nc.all_unitary_mixture());
    }

    #[test]
    fn clifford_gate_check() {
        let nc = noisy_bell(0.1);
        assert!(nc.gates_clifford());
        let mut c = Circuit::new(1);
        c.t(0);
        let nc = NoiseModel::new()
            .with_default_1q(channels::depolarizing(0.1))
            .apply(&c);
        assert!(!nc.gates_clifford());
    }

    #[test]
    fn conflicts_require_shared_qubit_and_time() {
        let mut c = Circuit::new(2);
        let ch = Arc::new(channels::depolarizing(0.1));
        // Two sites at different op positions on the same qubit: no conflict.
        c.noise(Arc::clone(&ch), &[0]);
        c.noise(Arc::clone(&ch), &[0]);
        let nc = NoisyCircuit::from_circuit(c);
        assert!(!nc.sites_conflict(0, 1));
    }

    #[test]
    fn measured_qubits_order() {
        let mut c = Circuit::new(3);
        c.measure(&[2, 0]);
        let nc = NoisyCircuit::from_circuit(c);
        assert_eq!(nc.measured_qubits(), vec![2, 0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn assignment_length_checked() {
        let nc = noisy_bell(0.1);
        let _ = nc.assignment_probability(&[0]);
    }

    #[test]
    fn clifford_detection_matches_gate_zoo() {
        use crate::gate::Gate;
        let zoo: Vec<(Gate, Vec<usize>)> = vec![
            (Gate::X, vec![0]),
            (Gate::Y, vec![0]),
            (Gate::Z, vec![0]),
            (Gate::H, vec![0]),
            (Gate::S, vec![0]),
            (Gate::Sdg, vec![0]),
            (Gate::T, vec![0]),
            (Gate::Tdg, vec![0]),
            (Gate::Sx, vec![0]),
            (Gate::Sxdg, vec![0]),
            (Gate::Sy, vec![0]),
            (Gate::Sydg, vec![0]),
            (Gate::Rx(0.3), vec![0]),
            (Gate::Ry(0.3), vec![0]),
            (Gate::Rz(0.3), vec![0]),
            (Gate::P(0.3), vec![0]),
            (Gate::Cx, vec![0, 1]),
            (Gate::Cz, vec![0, 1]),
            (Gate::Swap, vec![0, 1]),
            (Gate::Ccx, vec![0, 1, 2]),
        ];
        for (gate, qubits) in zoo {
            let expect = gate.is_clifford();
            let mut c = Circuit::new(3);
            c.gate(gate.clone(), &qubits).measure_all();
            let nc = NoisyCircuit::from_circuit(c);
            assert_eq!(
                nc.is_clifford(),
                expect,
                "gate {} must {}be Clifford",
                gate.name(),
                if expect { "" } else { "not " }
            );
        }
    }

    #[test]
    fn pauli_channel_detection_matches_channel_zoo() {
        let pauli: Vec<KrausChannel> = vec![
            channels::depolarizing(0.1),
            channels::depolarizing2(0.2),
            channels::bit_flip(0.3),
            channels::phase_flip(0.25),
            channels::bit_phase_flip(0.15),
            channels::pauli(0.1, 0.05, 0.02),
        ];
        for ch in &pauli {
            assert!(ch.is_pauli_mixture(), "{} is a Pauli mixture", ch.name());
        }
        let non_pauli: Vec<KrausChannel> = vec![
            channels::amplitude_damping(0.2),
            channels::phase_damping(0.2),
            channels::coherent_x_overrotation(0.05),
            channels::thermal_relaxation(0.1, 0.1),
        ];
        for ch in &non_pauli {
            assert!(
                !ch.is_pauli_mixture(),
                "{} is not a Pauli mixture",
                ch.name()
            );
        }

        let mut c = Circuit::new(1);
        c.h(0).measure_all();
        let nc = NoiseModel::new()
            .with_default_1q(channels::bit_flip(0.1))
            .apply(&c);
        assert!(nc.all_pauli_channels());
        let nc = NoiseModel::new()
            .with_default_1q(channels::coherent_x_overrotation(0.05))
            .apply(&c);
        assert!(!nc.all_pauli_channels());
    }

    #[test]
    fn reset_detection() {
        let mut c = Circuit::new(1);
        c.reset(0);
        assert!(NoisyCircuit::from_circuit(c).has_reset());
        let mut c = Circuit::new(1);
        c.h(0).measure_all();
        assert!(!NoisyCircuit::from_circuit(c).has_reset());
    }

    #[test]
    fn identity_assignment_none_for_damping() {
        let mut c = Circuit::new(1);
        c.h(0);
        let nc = NoiseModel::new()
            .with_default_1q(channels::amplitude_damping(0.2))
            .apply(&c);
        assert!(nc.identity_assignment().is_none());
    }
}
