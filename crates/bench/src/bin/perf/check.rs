//! Physics checks: the engine a workload uses, run through the same
//! service path on a ≤8-qubit companion circuit, must reproduce the
//! exact noisy distribution of the density-matrix oracle; and two bulk
//! samples of one circuit must agree on every bit's marginal.

use crate::harness::{start_service, Checks};
use crate::workloads::{build_oracle_spec, WorkloadDef};
use ptsbe_dataset::MemorySink;
use ptsbe_densitymatrix::DensityMatrix;
use ptsbe_service::EngineKind;

/// Failure probability the TVD bound is sized for: one false alarm per
/// 10⁹ runs of a correct engine.
const DELTA: f64 = 1e-9;

/// Upper bound on the TVD between the exact distribution `p` and the
/// histogram of `n_eff` independent draws: the expected TVD is at most
/// `½ Σ √(pₓ(1−pₓ)/n)`, and changing one draw moves the TVD by at most
/// `1/n`, so (McDiarmid) it exceeds its mean by `√(ln(1/δ)/(2n))` with
/// probability at most `δ`.
pub fn tvd_bound(p: &[f64], n_eff: usize) -> f64 {
    let n = n_eff.max(1) as f64;
    let mean: f64 = 0.5 * p.iter().map(|&x| (x * (1.0 - x) / n).sqrt()).sum::<f64>();
    mean + ((1.0 / DELTA).ln() / (2.0 * n)).sqrt()
}

pub fn tvd(p: &[f64], q: &[f64]) -> f64 {
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

/// Run the workload's oracle companion through the service and compare
/// its importance-reweighted histogram with `DensityMatrix::evolve`.
/// Returns the measured TVD.
pub fn oracle_tvd(def: &WorkloadDef, seed: u64, checks: &mut Checks) -> f64 {
    let spec = build_oracle_spec(&def.oracle, seed);
    let engine = def.oracle.engine;
    let job = if engine == EngineKind::Frame {
        spec.job()
    } else {
        spec.job_forced(engine)
    };
    let service = start_service(crate::harness::workers());
    let (sink, store) = MemorySink::new();
    let report = service
        .submit(job, Box::new(sink))
        .expect("oracle job admitted")
        .wait();
    checks.attempted += 1;
    let planned = spec.total_shots();
    if !report.status.is_success() || report.engine != Some(engine) || report.shots != planned {
        checks.failed += 1;
        checks.named.push((
            "check.oracle_tvd".into(),
            false,
            format!(
                "oracle job did not complete on {}: {report:?}",
                engine.label()
            ),
        ));
        return 1.0;
    }
    let exact = DensityMatrix::evolve(&spec.circuit).probabilities();
    let store = store.lock().expect("memory sink lock");
    // Trajectories are iid draws from the proposal, so each contributes
    // importance / n_traj, spread evenly over its shots. Shots within a
    // trajectory are correlated, hence n_eff = trajectories (frame
    // records are blocks of iid shots: n_eff = shots).
    let mut hist = vec![0.0f64; exact.len()];
    let n_records = store.records.len() as f64;
    let mut n_eff = store.records.len();
    for rec in &store.records {
        let shots = rec.decode_shots().expect("service wrote valid hex");
        let w = if engine == EngineKind::Frame {
            1.0 / planned as f64
        } else {
            rec.meta.importance() / (n_records * shots.len().max(1) as f64)
        };
        for s in shots {
            hist[s as usize] += w;
        }
    }
    if engine == EngineKind::Frame {
        n_eff = planned as usize;
    }
    let measured = tvd(&exact, &hist);
    let bound = tvd_bound(&exact, n_eff);
    checks.check(
        "check.oracle_tvd",
        measured <= bound,
        format!(
            "{} companion '{}' ({} qubits, n_eff {n_eff}): tvd {measured:.5} vs bound {bound:.5}",
            engine.label(),
            spec.label,
            spec.circuit.n_qubits()
        ),
    );
    measured
}

/// Largest per-bit disagreement between two bulk samples, in standard
/// deviations of the difference of two binomial proportions.
pub fn max_marginal_sigma(a: &[u64], n_a: u64, b: &[u64], n_b: u64) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&ca, &cb)| {
            let (pa, pb) = (ca as f64 / n_a as f64, cb as f64 / n_b as f64);
            let pooled = (ca + cb) as f64 / (n_a + n_b) as f64;
            let var = pooled * (1.0 - pooled) * (1.0 / n_a as f64 + 1.0 / n_b as f64);
            if var <= 0.0 {
                // Both samples agree the bit is constant.
                if pa == pb {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (pa - pb).abs() / var.sqrt()
            }
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::workload;

    #[test]
    fn bound_shrinks_with_samples_and_tvd_is_a_metric() {
        let p = [0.5, 0.25, 0.25, 0.0];
        assert!(tvd_bound(&p, 100) > tvd_bound(&p, 10_000));
        assert!(tvd_bound(&p, 10_000) < 0.06);
        assert_eq!(tvd(&p, &p), 0.0);
        assert!((tvd(&p, &[0.25, 0.5, 0.25, 0.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn marginal_sigma_flags_a_shifted_bit() {
        let a = [5_000u64, 1_000, 0];
        let same = [5_050u64, 990, 0];
        assert!(max_marginal_sigma(&a, 10_000, &same, 10_000) < 5.0);
        let shifted = [5_600u64, 1_000, 0];
        assert!(max_marginal_sigma(&a, 10_000, &shifted, 10_000) > 5.0);
        assert!(max_marginal_sigma(&[0], 10, &[1], 10).is_finite());
        assert_eq!(max_marginal_sigma(&[0], 10, &[0], 10), 0.0);
    }

    #[test]
    fn every_engine_passes_its_oracle_and_a_wrong_histogram_would_not() {
        for name in ["sv-shared", "sv-divergent", "frame-bulk", "mps-brick32"] {
            // Benchmark-size companions (they are ≤8-qubit jobs): the
            // smoke-test sample counts give a bound too wide to bite.
            let def = workload(name, false).unwrap();
            let mut checks = Checks::default();
            let measured = oracle_tvd(&def, 21, &mut checks);
            assert!(checks.correct(), "{name}: {:?}", checks.named);
            assert!(measured < 0.3, "{name}: tvd {measured}");
            // The bound has teeth: the uniform distribution is farther
            // from the exact one than the bound allows.
            let spec = build_oracle_spec(&def.oracle, 21);
            let exact = DensityMatrix::evolve(&spec.circuit).probabilities();
            let uniform = vec![1.0 / exact.len() as f64; exact.len()];
            let n_eff = if def.oracle.engine == EngineKind::Frame {
                def.oracle.samples
            } else {
                spec.plan.trajectories.len()
            };
            assert!(
                tvd(&exact, &uniform) > tvd_bound(&exact, n_eff),
                "{name}: bound {} cannot tell the exact distribution from uniform (tvd {})",
                tvd_bound(&exact, n_eff),
                tvd(&exact, &uniform)
            );
        }
    }
}
