//! Shared workload builders for the Criterion benches, and the naive MPS
//! sampler the `mps_kernels` bench measures cached sampling against.

use ptsbe_circuit::{channels, Circuit, NoiseModel, NoisyCircuit};
use ptsbe_math::{Matrix, Scalar};
use ptsbe_rng::Rng;
use ptsbe_tensornet::Mps;

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

/// Draw `m` shots with *no cached intermediates*: at every site of every
/// shot, the right environment is recontracted from scratch — O(n²·χ³)
/// per shot, the paper's "nearly all of the tensor network contraction
/// process \[reoccurs\] for each sample, caching only the minimally
/// optimized contraction path".
pub fn sample_shots_naive<T: Scalar, R: Rng + ?Sized>(
    mps: &Mps<T>,
    m: usize,
    rng: &mut R,
) -> Vec<u128> {
    (0..m).map(|_| sample_one_uncached(mps, rng)).collect()
}

/// One cache-free conditional sample. Works in any gauge: marginals are
/// evaluated by full transfer-matrix contraction.
fn sample_one_uncached<T: Scalar, R: Rng + ?Sized>(mps: &Mps<T>, rng: &mut R) -> u128 {
    let n = mps.n_qubits();
    let mut bits = 0u128;
    // Left-conditioned density at the current left bond (starts 1×1).
    let mut lrho = Matrix::<T>::identity(1);
    for i in 0..n {
        // Right environment over sites i+1.. — recomputed from scratch
        // (this is the deliberate inefficiency).
        let renv = right_env_from(mps, i + 1);
        let t = mps.tensor(i);
        let mut p = [0.0f64; 2];
        let mut cand: [Option<Matrix<T>>; 2] = [None, None];
        for b in 0..2 {
            // M_b: dl × dr slice of the site tensor at physical index b.
            let mut mb = Matrix::<T>::zeros(t.dl, t.dr);
            for l in 0..t.dl {
                for r in 0..t.dr {
                    mb[(l, r)] = t.get(l, b, r);
                }
            }
            let lb = mb.dagger().mul_ref(&lrho).mul_ref(&mb);
            p[b] = lb.mul_ref(&renv).trace().re.to_f64().max(0.0);
            cand[b] = Some(lb);
        }
        let total = p[0] + p[1];
        let outcome = if total <= 0.0 {
            false
        } else {
            rng.next_f64() * total >= p[0]
        };
        let idx = usize::from(outcome);
        if outcome {
            bits |= 1u128 << i;
        }
        let mut next = cand[idx].take().expect("candidate computed");
        let pc = p[idx];
        if pc > 0.0 {
            next = next.scaled_real(T::from_f64(1.0 / pc));
        }
        lrho = next;
    }
    bits
}

/// Transfer-matrix contraction of sites `from..n` into a `dl_from ×
/// dl_from` environment (identity at the right boundary).
fn right_env_from<T: Scalar>(mps: &Mps<T>, from: usize) -> Matrix<T> {
    let n = mps.n_qubits();
    if from >= n {
        return Matrix::identity(1);
    }
    let mut renv = Matrix::<T>::identity(mps.tensor(n - 1).dr);
    for j in (from..n).rev() {
        let t = mps.tensor(j);
        let mut next = Matrix::<T>::zeros(t.dl, t.dl);
        for b in 0..2 {
            let mut mb = Matrix::<T>::zeros(t.dl, t.dr);
            for l in 0..t.dl {
                for r in 0..t.dr {
                    mb[(l, r)] = t.get(l, b, r);
                }
            }
            // next += M_b · R · M_b†
            let term = mb.mul_ref(&renv).mul_ref(&mb.dagger());
            next = &next + &term;
        }
        renv = next;
    }
    renv
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
    fn naive_and_cached_agree_in_distribution() {
        use ptsbe_math::gates;
        use ptsbe_rng::PhiloxRng;
        use ptsbe_tensornet::{sample::sample_shots_cached, MpsConfig};
        let mut rng = PhiloxRng::new(122, 0);
        let n = 5;
        let mut mps = Mps::<f64>::zero_state(n, MpsConfig::exact());
        for q in 0..n {
            mps.apply_1q(&gates::ry(0.3 + 0.4 * q as f64), q);
        }
        for q in 0..n - 1 {
            mps.apply_2q(&gates::cx(), q, q + 1);
        }
        assert!(sample_shots_naive(&mps, 0, &mut rng).is_empty());
        let m = 30_000;
        let naive = sample_shots_naive(&mps, m, &mut rng);
        let cached = sample_shots_cached(&mut mps, m, &mut rng);
        let mut h_naive = vec![0usize; 1 << n];
        let mut h_cached = vec![0usize; 1 << n];
        for &s in &naive {
            h_naive[s as usize] += 1;
        }
        for &s in &cached {
            h_cached[s as usize] += 1;
        }
        for i in 0..(1 << n) {
            let a = h_naive[i] as f64 / m as f64;
            let b = h_cached[i] as f64 / m as f64;
            assert!(
                (a - b).abs() < 0.015,
                "outcome {i}: naive {a} vs cached {b}"
            );
        }
    }

    #[test]
    fn steane_memory_is_clifford() {
        let c = steane_memory();
        assert!(c.is_clifford());
        assert_eq!(c.n_qubits(), 7);
    }
}
