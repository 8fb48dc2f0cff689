//! The segmented-program contract of `ptsbe_circuit::lower`, checked on
//! the two gate tables that exist: whatever op set a backend lowers to,
//! one circuit yields one site table, one segment structure and one set
//! of refusals.

use proptest::prelude::*;
use ptsbe_circuit::lower::{LowerError, Lowered};
use ptsbe_circuit::{channels, Circuit, NoisyCircuit};
use ptsbe_statevector::exec::{compile_with, CompiledOp, ExecError};
use ptsbe_tensornet::exec::{compile_mps_with, MpsError, MpsOp};
use std::sync::Arc;

/// One recipe step: `(kind, a, b, c, parameter)`; qubits are taken modulo
/// the register and de-duplicated by offset.
type Step = (u8, usize, usize, usize, f64);

fn build(n: usize, recipe: &[Step]) -> Circuit {
    let mut c = Circuit::new(n);
    for &(kind, a, b, d, x) in recipe {
        let q0 = a % n;
        let q1 = (q0 + 1 + b % (n - 1)) % n;
        let q2 = (0..n).filter(|q| *q != q0 && *q != q1).nth(d % (n - 2));
        let q2 = q2.expect("n >= 3");
        match kind {
            0 => c.h(q0),
            1 => c.t(q0),
            2 => c.rz(q0, 6.0 * x - 3.0),
            3 => c.x(q0),
            4 => c.cx(q0, q1),
            5 => c.cz(q0, q1),
            6 => c.swap(q0, q1),
            7 => c.ccx(q0, q1, q2),
            // Unitary mixtures, with and without an exact-identity branch…
            8 => c.noise(Arc::new(channels::depolarizing(0.3 * x)), &[q0]),
            9 => c.noise(Arc::new(channels::depolarizing2(0.3 * x)), &[q1, q0]),
            // …and general channels.
            10 => c.noise(Arc::new(channels::amplitude_damping(0.05 + 0.9 * x)), &[q0]),
            _ => c.noise(Arc::new(channels::phase_damping(0.05 + 0.9 * x)), &[q0]),
        };
    }
    c
}

/// Per segment, the op index of its `Site` marker (`None` for the tail),
/// read off the segment slices.
fn site_marks<T: ptsbe_math::Scalar, Op>(
    l: &Lowered<T, Op>,
    site_id: impl Fn(&Op) -> Option<usize>,
) -> Vec<(usize, Option<usize>)> {
    (0..l.n_segments())
        .map(|k| {
            let ops = l.segment_ops(k..k + 1);
            let marks: Vec<_> = ops.iter().filter_map(&site_id).collect();
            assert!(marks.len() <= 1, "segment {k} fires {} sites", marks.len());
            if let Some(id) = marks.first() {
                assert!(
                    site_id(ops.last().unwrap()).is_some(),
                    "site ends segment {k}"
                );
                assert_eq!(*id, k, "segment k fires site k");
            }
            (ops.len(), marks.first().copied())
        })
        .collect()
}

fn dense_site(op: &CompiledOp<f64>) -> Option<usize> {
    match op {
        CompiledOp::Site(id) => Some(*id),
        _ => None,
    }
}

fn mps_site(op: &MpsOp<f64>) -> Option<usize> {
    match op {
        MpsOp::Site(id) => Some(*id),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dense_and_mps_lowerings_share_one_segment_shape(
        n in 3usize..6,
        recipe in prop::collection::vec((0u8..12, 0usize..8, 0usize..8, 0usize..8, 0.0f64..1.0), 1..30),
        n_measured in 0usize..4,
    ) {
        let mut c = build(n, &recipe);
        let measured: Vec<usize> = (0..n).rev().take(n_measured.min(n)).collect();
        if !measured.is_empty() {
            c.measure(&measured);
        }
        let nc = NoisyCircuit::from_circuit(c);
        for fuse in [true, false] {
            let dense = compile_with::<f64>(&nc, fuse).unwrap();
            let mps = compile_mps_with::<f64>(&nc, fuse).unwrap();

            // One site table, a function of the circuit alone.
            prop_assert_eq!(dense.sites().len(), nc.n_sites());
            prop_assert_eq!(mps.sites().len(), nc.n_sites());
            for ((d, m), site) in dense.sites().iter().zip(mps.sites()).zip(nc.sites()) {
                prop_assert_eq!(&d.qubits, &site.qubits);
                prop_assert_eq!(&d.qubits, &m.qubits);
                prop_assert_eq!(&d.probs, &m.probs);
                prop_assert_eq!(&d.probs, site.channel.sampling_probs());
                prop_assert_eq!(&d.skip_identity, &m.skip_identity);
                prop_assert_eq!(d.is_unitary_mixture, m.is_unitary_mixture);
                prop_assert_eq!(d.is_unitary_mixture, site.channel.is_unitary_mixture());
                prop_assert_eq!(d.mats.len(), m.mats.len());
                prop_assert_eq!(d.mats.len(), d.probs.len());
                // General channels never skip: renormalizing is not a no-op.
                prop_assert!(d.is_unitary_mixture || !d.skip_identity.iter().any(|s| *s));
            }

            // One segment structure: `S + 1` segments, segment `k` ends
            // with site `k`, the tail fires none — so no fused op can
            // span a site — and the same measured order.
            prop_assert_eq!(dense.n_segments(), nc.n_sites() + 1);
            prop_assert_eq!(mps.n_segments(), nc.n_sites() + 1);
            prop_assert_eq!(dense.measured_qubits(), measured.as_slice());
            prop_assert_eq!(mps.measured_qubits(), measured.as_slice());
            let d_marks = site_marks(&dense, dense_site);
            let m_marks = site_marks(&mps, mps_site);
            for (k, (d, m)) in d_marks.iter().zip(&m_marks).enumerate() {
                let expect = (k < nc.n_sites()).then_some(k);
                prop_assert_eq!(d.1, expect);
                prop_assert_eq!(m.1, expect);
            }
            prop_assert_eq!(
                d_marks.iter().map(|m| m.0).sum::<usize>(),
                dense.ops().len(),
                "segments tile the op stream"
            );
            prop_assert_eq!(m_marks.iter().map(|m| m.0).sum::<usize>(), mps.ops().len());
            // The fusion report counts the gates of the stream it describes.
            for (stats, gate_ops) in [
                (dense.fusion_stats(), dense.ops().len() - nc.n_sites()),
                (mps.fusion_stats(), mps.ops().len() - nc.n_sites()),
            ] {
                prop_assert_eq!(stats.ops_after, gate_ops);
                prop_assert!(fuse || stats.passthrough == gate_ops);
            }
        }
    }

    #[test]
    fn both_tables_refuse_the_same_circuits_with_the_shared_error(
        n in 3usize..6,
        recipe in prop::collection::vec((0u8..12, 0usize..8, 0usize..8, 0usize..8, 0.0f64..1.0), 0..12),
        late in (0u8..12, 0usize..8, 0usize..8, 0usize..8, 0.0f64..1.0),
        reset_at in 0usize..8,
    ) {
        // A gate or a site after a measurement…
        let mut c = build(n, &recipe);
        c.measure(&[0]);
        for op in build(n, &[late]).ops() {
            c.push(op.clone());
        }
        let nc = NoisyCircuit::from_circuit(c);
        // …and a reset anywhere.
        let mut r = build(n, &recipe);
        r.reset(reset_at % n);
        r.measure_all();
        let with_reset = NoisyCircuit::from_circuit(r);
        for fuse in [true, false] {
            for (nc, shared) in [
                (&nc, LowerError::MidCircuitMeasurement),
                (&with_reset, LowerError::UnsupportedReset),
            ] {
                prop_assert_eq!(compile_with::<f64>(nc, fuse).unwrap_err(), ExecError::Lower(shared));
                prop_assert_eq!(compile_mps_with::<f64>(nc, fuse).unwrap_err(), MpsError::Lower(shared));
            }
        }
    }
}
