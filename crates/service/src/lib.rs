//! The PTSBE data-collection service: a long-running, multi-tenant layer
//! that turns the per-call `compile → sample → execute` pipeline into a
//! job-oriented system — the shape the paper's "orders of magnitude more
//! data" regime actually runs in (qsim's noisy-trajectory service model,
//! Stim's persistent bulk samplers).
//!
//! Four pieces, one per module:
//!
//! - [`service::ShotService`] — a worker pool (std threads over one
//!   `Mutex<VecDeque>` task queue and a `Condvar`; no async runtime)
//!   behind a bounded admission queue with backpressure, per-job
//!   cancellation, and streaming delivery of
//!   [`ptsbe_dataset::TrajectoryRecord`]s into
//!   [`ptsbe_dataset::sink::RecordSink`]s as lane groups finish. A
//!   per-job reorder buffer commits chunks in plan order, so for a fixed
//!   job seed the emitted dataset is **byte-identical for any worker
//!   count and any cache state**.
//! - [`cache::CompileCache`] — memoizes compiled artifacts under the
//!   stable content hash of `(circuit, noise model, precision)`
//!   ([`ptsbe_circuit::hash`]): statevector
//!   [`ptsbe_statevector::exec::Compiled`] streams (with their
//!   [`ptsbe_circuit::FusionStats`] and a warm
//!   [`ptsbe_core::StatePool`]), MPS compilations, lowered Pauli-frame
//!   programs, and [`ptsbe_core::PtsPlanTree`]s keyed by (circuit, plan).
//!   A warm repeat job performs zero compile/plan work — the hit/miss
//!   counters prove it.
//! - [`router`] — adaptive engine choice per job: Clifford circuits under
//!   Pauli noise with a deterministic noiseless reference go to the bulk
//!   [`ptsbe_stabilizer::FrameSampler`]; plans whose prefix tree shares
//!   heavily go to the [`ptsbe_core::TreeExecutor`] over a pooled arena;
//!   everything else takes the [`ptsbe_core::BatchMajorExecutor`]. Wide
//!   registers fall to the MPS tree engine. Policies can force any
//!   engine.
//! - `engine` (private) — the seam the other three meet at, and the only
//!   module that knows what an engine *is*: [`EngineKind`] plus one enum
//!   over the cached artifacts with `kind()`, `chunks()` (how a job is
//!   cut into plain ranges, in the engine's own unit), `run()` (one
//!   range → records in plan order) and `dense_fallback_allowed()`. The
//!   router builds it, the service schedules its ranges without naming a
//!   variant; adding an engine touches `engine` and `router` only.
//!
//! ```
//! use ptsbe_circuit::{channels, Circuit, NoiseModel};
//! use ptsbe_core::{ProbabilisticPts, PtsSampler};
//! use ptsbe_dataset::MemorySink;
//! use ptsbe_rng::PhiloxRng;
//! use ptsbe_service::{JobSpec, ServiceConfig, ShotService};
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1).measure_all();
//! let noisy = NoiseModel::new()
//!     .with_default_1q(channels::depolarizing(0.01))
//!     .apply(&c);
//! let mut rng = PhiloxRng::new(1, 0);
//! let plan = ProbabilisticPts { n_samples: 20, shots_per_trajectory: 50, dedup: true }
//!     .sample_plan(&noisy, &mut rng);
//!
//! let service: ShotService = ShotService::start(ServiceConfig::default());
//! let (sink, store) = MemorySink::new();
//! let handle = service
//!     .submit(JobSpec::new("bell", noisy, plan, 7), Box::new(sink))
//!     .unwrap();
//! let report = handle.wait();
//! assert!(report.status.is_success(), "{report:?}");
//! assert_eq!(store.lock().unwrap().records.len(), report.records as usize);
//! ```

//!
//! The service layer is fault tolerant: deterministic fault injection
//! ([`fault::FaultConfig`], `PTSBE_FAULTS`), chunk retry with capped
//! backoff, per-job deadlines ([`JobStatus::TimedOut`]), requeue of a
//! task a panic escaped (caught in the worker loop, so no worker thread
//! dies), and single-shot engine degradation — all output-neutral for a
//! fixed seed (see [`service`]'s module docs).

pub mod cache;
mod engine;
pub mod fault;
pub mod job;
pub mod metrics;
pub mod router;
pub mod service;

pub use cache::{CacheStats, CircuitTraits, CompileCache};
pub use engine::EngineKind;
pub use fault::{FaultConfig, InjectedFault};
pub use job::{JobHandle, JobReport, JobSpec, JobStatus, ServiceError};
pub use metrics::{MetricsSnapshot, RateWindow};
pub use router::{BatchGeometry, EnginePolicy, RouteDecision, RouteReason};
pub use service::{RetryPolicy, ServiceConfig, ShotService};
// Telemetry types a service embedder needs: configuration on
// `ServiceConfig`, plus the stage taxonomy and snapshot for reading
// back what was recorded.
pub use ptsbe_telemetry::{Stage, TelemetryConfig, TelemetryMode, TelemetrySnapshot};
