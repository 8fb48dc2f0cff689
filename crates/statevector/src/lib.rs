//! Multi-threaded statevector simulator — the CPU stand-in for CUDA-Q's
//! `nvidia` backend.
//!
//! Everything PTSBE needs from a statevector backend is here:
//!
//! - [`state::StateVector`] — `2^n` complex amplitudes (generic over
//!   `f32`/`f64`; the paper uses `complex64`, i.e. `f32` pairs) with
//!   rayon-parallel 1-/2-/k-qubit gate kernels and permutation fast paths
//!   for CX/CZ/SWAP;
//! - [`batch::StateBatch`] — batch-major execution: `B` trajectory states
//!   in split re/im amplitude planes (structure-of-arrays), each fused
//!   kernel swept across all `B` lanes at once with lane-contiguous
//!   shuffle-free inner loops, bit-identical per lane to the scalar
//!   kernels;
//! - [`kernels`] — the pluggable run-kernel dispatch seam behind the
//!   batch sweeps ([`kernels::BatchKernels`]): scalar-reference,
//!   SoA-autovec, and AVX2/FMA implementations selected at batch
//!   construction (`PTSBE_BATCH_KERNELS` overrides);
//! - [`sampling`] — the *bulk* shot sampler: O(2^n + m) sorted-uniform
//!   merge, or O(2^n) multinomial counts once `m` passes twice the state
//!   size, the polynomial-cost step whose
//!   amortization over `m_α` shots is the entire point of Batched
//!   Execution (paper §3: "sampling all m_α desired quantum bitstrings at
//!   once, a task of mere polynomial complexity");
//! - [`kraus`] — one-pass evaluation of state-dependent Kraus branch
//!   probabilities `⟨ψ|K†K|ψ⟩` (Algorithm 1, line 9) and normalized
//!   application of a chosen branch;
//! - [`exec`] — circuit execution: pure circuits, and noisy circuits under
//!   a *fixed* trajectory assignment (the BE half of PTSBE).
//!
//! Parallelism: kernels switch to rayon data-parallel loops above
//! [`PARALLEL_THRESHOLD_QUBITS`]; the caller controls the thread budget by
//! running inside a configured `rayon::ThreadPool` (this substitutes for
//! the paper's intra-trajectory multi-GPU distribution). `ptsbe_core`'s
//! executors are that caller: with `parallel: false` they `install` a
//! one-thread pool around the whole execution, so every loop here stays
//! on the calling thread. The budget never changes a result — block
//! sizes and summation order are keyed on the qubit count alone.

pub mod batch;
pub mod exec;
pub mod kernels;
pub mod kraus;
pub mod sampling;
pub mod state;

pub use batch::{advance_batch, StateBatch};
pub use exec::{prepare_with_assignment, run_pure, ExecError};
pub use kernels::{BatchKernels, KernelImpl};
pub use sampling::SamplingStrategy;
pub use state::StateVector;

/// Below this many qubits the gate kernels stay serial: thread fan-out
/// costs more than the whole sweep.
pub const PARALLEL_THRESHOLD_QUBITS: usize = 14;
