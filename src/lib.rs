//! PTSBE — Pre-Trajectory Sampling with Batched Execution.
//!
//! A from-scratch Rust reproduction of *"Augmenting Simulated Noisy
//! Quantum Data Collection by Orders of Magnitude Using Pre-Trajectory
//! Sampling with Batched Execution"* (Patti, Nguyen, Lietz, McCaskey,
//! Khailany — SC '25), including every substrate the paper's evaluation
//! depends on: statevector and MPS simulators, a density-matrix oracle, a
//! Stim-style stabilizer stack, the QEC/magic-state-distillation
//! workloads, counter-based RNG, and the dataset layer.
//!
//! This facade re-exports the workspace crates under short paths:
//!
//! ```
//! use ptsbe::prelude::*;
//!
//! // A noisy GHZ circuit …
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 1).cx(1, 2).measure_all();
//! let noisy = NoiseModel::new()
//!     .with_default_2q(channels::depolarizing(0.02))
//!     .apply(&c);
//!
//! // … pre-sample trajectories (PTS) and batch-execute them (BE).
//! let mut rng = PhiloxRng::new(7, 0);
//! let plan = ProbabilisticPts { n_samples: 100, shots_per_trajectory: 1_000, dedup: true }
//!     .sample_plan(&noisy, &mut rng);
//! let backend = SvBackend::<f64>::new(&noisy, Default::default()).unwrap();
//! let result = BatchedExecutor::default().execute(&backend, &noisy, &plan);
//! assert_eq!(result.total_shots(), plan.total_shots());
//! ```

pub use ptsbe_circuit as circuit;
pub use ptsbe_core as core;
pub use ptsbe_dataset as dataset;
pub use ptsbe_densitymatrix as densitymatrix;
pub use ptsbe_math as math;
pub use ptsbe_qec as qec;
pub use ptsbe_rng as rng;
pub use ptsbe_service as service;
pub use ptsbe_stabilizer as stabilizer;
pub use ptsbe_statevector as statevector;
pub use ptsbe_telemetry as telemetry;
pub use ptsbe_tensornet as tensornet;

/// The commonly used names in one import.
pub mod prelude {
    pub use ptsbe_circuit::{
        channels, Circuit, FusedKernel, FusionStats, Gate, KrausChannel, NoiseModel, NoisyCircuit,
    };
    pub use ptsbe_core::baseline::{run_baseline_mps, run_baseline_sv};
    pub use ptsbe_core::{
        backend::MpsSampleMode, estimators, stats, BandPts, BatchMajorExecutor, BatchedExecutor,
        ExhaustivePts, MpsBackend, PoolStats, ProbabilisticPts, ProportionalPts, PtsPlan,
        PtsPlanTree, PtsSampler, StatePool, SvBackend, TopKPts, TreeExecutor, TruncationStats,
    };
    pub use ptsbe_dataset::{
        BinarySink, DatasetHeader, JsonlSink, MemorySink, RecordSink, ShotWord, TrajectoryRecord,
    };
    pub use ptsbe_densitymatrix::DensityMatrix;
    pub use ptsbe_qec::{codes, msd_bare, msd_encoded, LookupDecoder, MeasureBasis, MsdAnalysis};
    pub use ptsbe_rng::{PhiloxRng, Rng};
    pub use ptsbe_service::{EngineKind, EnginePolicy, JobSpec, ServiceConfig, ShotService};
    pub use ptsbe_statevector::{SamplingStrategy, StateVector};
    pub use ptsbe_telemetry::{Stage, TelemetryConfig, TelemetryMode, TelemetrySnapshot};
    pub use ptsbe_tensornet::{BondStats, Mps, MpsConfig};
}
