//! Shared workload builders for the Criterion benches.

use ptsbe_circuit::{channels, Circuit, NoiseModel, NoisyCircuit};

/// A distillation-flavoured scaled workload for the statevector sweeps:
/// magic preparations on every qubit, then brickwork CX + T/H layers.
/// Stands in for the paper's 35-qubit MSD circuit at laptop-tractable
/// sizes (2³⁵ single-precision complex amplitudes are 256 GiB).
pub fn msd_like(n: usize, depth: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        ptsbe_qec::msd::prepare_magic(&mut c, q);
    }
    for layer in 0..depth {
        let offset = layer % 2;
        let mut q = offset;
        while q + 1 < n {
            c.cx(q, q + 1);
            q += 2;
        }
        for q in 0..n {
            if (q + layer) % 3 == 0 {
                c.t(q);
            } else if (q + layer) % 3 == 1 {
                c.h(q);
            }
        }
    }
    c.measure_all();
    c
}

/// Attach uniform depolarizing noise.
pub fn with_depolarizing(c: &Circuit, p: f64) -> NoisyCircuit {
    NoiseModel::new()
        .with_default_1q(channels::depolarizing(p))
        .with_default_2q(channels::depolarizing(p))
        .apply(c)
}

/// Attach depolarizing noise to the entanglers only (the common hardware
/// model: 1q gates are an order of magnitude cleaner than 2q gates).
/// Between noise sites this leaves multi-gate runs for the fusion pass
/// to collapse — the workload where `FusionStats` shows its reduction.
pub fn with_entangler_depolarizing(c: &Circuit, p: f64) -> NoisyCircuit {
    NoiseModel::new()
        .with_default_2q(channels::depolarizing2(p))
        .apply(c)
}

/// Steane-code |0̄⟩ memory circuit (Clifford-only; the frame-sampler
/// bench workload).
pub fn steane_memory() -> Circuit {
    let code = ptsbe_qec::codes::steane();
    let enc = ptsbe_qec::encoding_circuit(&code);
    let mut c = enc.circuit.clone();
    c.measure_all();
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msd_like_shape() {
        let c = msd_like(8, 6);
        assert_eq!(c.n_qubits(), 8);
        assert!(c.gate_count() > 30);
        assert!(!c.is_clifford());
        let noisy = with_depolarizing(&c, 0.01);
        assert!(noisy.n_sites() > 0);
    }

    #[test]
    fn steane_memory_is_clifford() {
        let c = steane_memory();
        assert!(c.is_clifford());
        assert_eq!(c.n_qubits(), 7);
    }
}
