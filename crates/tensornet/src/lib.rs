//! Matrix-product-state (MPS) tensor-network simulator — the CPU stand-in
//! for CUDA-Q's `tensornet` backend.
//!
//! The paper's 85-qubit experiment (Fig. 5) runs on a tensor-network
//! backend whose sampling "requires nearly all of the tensor network
//! contraction process to reoccur for each sample"; its future-work list
//! asks for contraction-path caching and correlated (conditional)
//! sampling. This crate implements the projected behavior:
//!
//! - [`sample::sample_shots_cached`] — canonicalize once (O(n·χ³)), then
//!   draw each shot by a conditional left-to-right sweep (O(n·χ²) per
//!   shot): the "cached intermediates" mode, kept as the sequential
//!   reference and as the single-shot sampler of the Algorithm-1
//!   baseline;
//! - [`sample::sample_shots_batched`] — the one production sampler: the
//!   same draws, bit for bit, with every shot of every request advancing
//!   one site at a time together: shots that share a bit prefix share
//!   its contraction, and one pass over each site tensor serves every
//!   live prefix (non-degenerate batched sampling).
//!
//! The surrogate for CUDA-Q's current behavior (redo the contraction for
//! every shot) is `ptsbe_bench::sample_shots_naive`, beside the bench
//! that measures against it.
//!
//! The [`mps::Mps`] type keeps a mixed-canonical gauge with an explicit
//! orthogonality center, truncates bonds by one-sided Jacobi SVD
//! ([`ptsbe_math::svd`]), tracks accumulated truncation error, and
//! supports the same Kraus-branch operations as the statevector backend
//! (state-dependent probabilities via local reduced density matrices,
//! normalized branch application) so PTSBE runs unchanged on either.

pub mod exec;
pub mod mps;
pub mod sample;
pub mod tensor;

pub use exec::{advance_mps, compile_mps, compile_mps_with, prepare_mps, MpsCompiled, MpsError};
pub use mps::{BondStats, Mps, MpsConfig};
pub use tensor::Tensor3;
