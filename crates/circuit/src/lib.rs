//! Circuit intermediate representation shared by every PTSBE backend.
//!
//! This is the front end the paper's Fig. 1 calls "an arbitrary noisy
//! circuit": a sequence of coherent gates (deterministic) and noise sites
//! (stochastic, each a CPTP Kraus channel). The IR is backend-agnostic —
//! the statevector, MPS, density-matrix and stabilizer simulators all
//! consume the same [`Circuit`]/[`NoisyCircuit`] types.
//!
//! Key pieces:
//! - [`gate::Gate`] — the universal gate set (plus arbitrary 1-/2-qubit
//!   unitaries), each gate knowing its matrix and Clifford membership;
//! - [`kraus::KrausChannel`] — a validated CPTP channel that detects the
//!   *unitary mixture* structure CUDA-Q exploits (paper §2.2 feature 2);
//! - [`channels`] — the standard noise zoo (depolarizing, damping, Pauli);
//! - [`noise_model::NoiseModel`] — attaches channels to gates the way
//!   CUDA-Q noise models do (`lookUp(noiseModel, operator)` in Alg. 1);
//! - [`noisy::NoisyCircuit`] — the circuit with noise sites made explicit,
//!   the object PTS algorithms sample over (paper Fig. 2);
//! - [`fusion`] — the gate-fusion pass backend compilers run once per
//!   segment, merging adjacent-gate runs into classified ≤2-qubit kernels
//!   shared by every trajectory;
//! - [`lower`] — the segmented-program contract: the one lowering walk
//!   (segment → fuse → classify), the one definition of a lowered site
//!   and program, and the [`lower::GateTable`] a backend fills in with
//!   its op set;
//! - [`hash`] — stable semantic content hashing, the cache key the
//!   data-collection service memoizes compiled artifacts under.

pub mod channels;
pub mod circuit;
pub mod fusion;
pub mod gate;
pub mod hash;
pub mod kraus;
pub mod lower;
pub mod noise_model;
pub mod noisy;
pub mod op;

pub use circuit::Circuit;
pub use fusion::{FusedKernel, FusedOp, Fuser, FusionStats};
pub use gate::Gate;
pub use hash::StableHasher;
pub use kraus::{ChannelError, ChannelKind, KrausChannel};
pub use noise_model::NoiseModel;
pub use noisy::{NoiseSite, NoisyCircuit, NoisyOp};
pub use op::{GateOp, NoiseOp, Op};
