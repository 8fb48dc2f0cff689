//! Stabilizer (Clifford) simulation substrate — the workspace's Stim.
//!
//! The paper positions PTSBE against Clifford-restricted simulators
//! (§2.3): Stim bulk-samples noisy Clifford circuits at MHz rates via a
//! *reference-frame* sampler, but cannot touch non-Clifford gates. To make
//! that comparison runnable (experiment E6) this crate rebuilds both
//! pieces from scratch:
//!
//! - [`tableau::Tableau`] — an Aaronson–Gottesman CHP simulator: exact
//!   per-shot stabilizer evolution with measurement;
//! - [`frame::FrameSampler`] — the bulk path: one reference tableau run
//!   and one backward pass that gives every noise branch and measurement
//!   collapse the record bits its Pauli frame flips; a shot is then the
//!   reference XORed with the masks of the events drawn for it, the
//!   events picked by bit-packed Bernoulli masks ([`ptsbe_rng::mask`]).
//!
//! The frame sampler's validity domain is the same as Stim's: outputs are
//! exact samples when every measurement is deterministic in the noiseless
//! reference (true for QEC syndrome circuits); for intrinsically random
//! measurements all shots share the reference's coin flips
//! ([`frame::FrameResult::reference_was_random`] flags this).

pub mod convert;
pub mod frame;
pub mod pauli;
pub mod tableau;

pub use frame::{FrameError, FrameResult, FrameSampler};
pub use pauli::{Pauli, PauliString};
pub use tableau::Tableau;
