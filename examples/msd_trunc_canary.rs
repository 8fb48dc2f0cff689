//! Truncation canary for the encoded-MSD workload (CI release job).
//!
//! Runs the 35-qubit block-encoded distillation circuit at zero noise
//! under the same budget-driven MPS config the pipeline test pins, and
//! prints the observability trio this PR made first-class —
//! `max_bond_reached`, the final `trunc_error`, and the acceptance rate
//! — so a truncation regression shows up in the job log *before* it
//! costs a failed test re-run.

use ptsbe::core::backend::Backend;
use ptsbe::prelude::*;
use std::time::Instant;

fn main() {
    let code = codes::steane();
    let basis = MeasureBasis::Z;
    let (circuit, layout) = msd_encoded(&code, basis);
    let noisy = NoiseModel::new().apply(&circuit);
    // Keep in lockstep with tests/msd_encoded_pipeline.rs.
    let config = MpsConfig::adaptive(256, 1e-5, 1e-2);

    let t0 = Instant::now();
    let backend = MpsBackend::<f64>::new(&noisy, config, MpsSampleMode::default()).unwrap();
    let (mut state, _) = backend.prepare(&[]);
    let prep = t0.elapsed();
    let mut rng = PhiloxRng::new(1, 0);
    let shots = backend.sample(&mut state, 30_000, &mut rng);
    let total = t0.elapsed();

    let mut analysis = MsdAnalysis::default();
    for &s in &shots {
        analysis.fold(&layout, None, s);
    }
    let stats = backend
        .truncation_stats(&state)
        .expect("MPS backend always reports truncation stats");
    println!(
        "encoded-msd canary: max_bond_reached={} trunc_error={:.3e} budget_exhausted={} \
         acceptance={:.4} (exact 1/6 = {:.4}) prep={prep:.2?} total={total:.2?}",
        stats.max_bond_reached,
        stats.trunc_error,
        stats.budget_exhausted,
        analysis.acceptance(),
        1.0 / 6.0,
    );
    assert!(
        !stats.budget_exhausted,
        "canary: cumulative truncation budget blown — the pipeline test is about to fail"
    );
    // PR 10 rebuilt the two-site update (QR-first reduction) and the
    // long-range gate path (truncating zip-up): both are contracts, not
    // approximations, so this workload's numbers must not move. The
    // budget keeps every discarded weight at exactly zero, and the
    // 30k-shot acceptance under PhiloxRng::new(1, 0) is the same
    // deterministic 0.1691 the pre-overhaul path produced.
    assert_eq!(
        stats.trunc_error, 0.0,
        "canary: encoded-MSD run must be truncation-free under the pinned budget"
    );
    assert!(
        (analysis.acceptance() - 0.1691).abs() < 5e-4,
        "canary: acceptance {:.4} drifted from the pinned 0.1691",
        analysis.acceptance()
    );
    // Physics, not only determinism: the acceptance is a 30k-shot
    // binomial estimate of the exact 1/6, so it must sit within five
    // standard errors of it.
    let p = 1.0 / 6.0;
    let five_sigma = 5.0 * (p * (1.0 - p) / shots.len() as f64).sqrt();
    assert!(
        (analysis.acceptance() - p).abs() <= five_sigma,
        "canary: acceptance {:.4} is more than 5σ ({five_sigma:.4}) from the exact 1/6",
        analysis.acceptance()
    );
}
