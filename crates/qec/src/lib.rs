//! Quantum error correction substrate: the workloads of the paper's
//! evaluation (§2.3, §4).
//!
//! The paper benchmarks PTSBE on 5→1 magic-state distillation circuits
//! over color-code blocks — 35 physical qubits for the `[[7,1,3]]` code and
//! 85 for the `[[17,1,5]]` 4.8.8 code. This crate builds everything those
//! workloads need, from scratch and algorithmically verified:
//!
//! - [`gf2`] — bit-packed GF(2) linear algebra (rank, kernel, span);
//! - [`code::StabilizerCode`] — generators + logicals with full
//!   commutation/independence/distance validation;
//! - [`codes`] — the zoo: `[[5,1,3]]`, Steane, triangular 6.6.6 color codes
//!   of any odd distance (d = 5 gives `[[19,1,5]]`, which stands in for
//!   the paper's 4.8.8 `[[17,1,5]]`: same distance, generated and verified
//!   from honeycomb geometry, 95 physical qubits for the 5→1 protocol
//!   instead of 85), repetition and Shor codes;
//! - [`encoder`] — the Gottesman standard-form encoding circuit,
//!   algorithmic for *any* k = 1 stabilizer code (CSS or not);
//! - [`transversal`] — validated transversal logical gates for self-dual
//!   CSS codes (H̄, bicolored S̄, CX̄, Paulis);
//! - [`decoder`] — syndrome extraction from destructive measurements and
//!   lookup-table decoding (the consumer of PTSBE's training datasets);
//! - [`msd`] — the 5→1 Bravyi–Kitaev distillation protocol: bare 5-qubit
//!   logical-level circuits and block-encoded 35-/95-qubit compilations
//!   with the Fig. 3 measurement scheme (top block read in X/Y/Z bases).

pub mod code;
pub mod codes;
pub mod decoder;
pub mod encoder;
pub mod gf2;
pub mod memory;
pub mod msd;
pub mod transversal;

pub use code::StabilizerCode;
pub use decoder::LookupDecoder;
pub use encoder::encoding_circuit;
pub use msd::{msd_bare, msd_encoded, MeasureBasis, MsdAnalysis};
pub use transversal::TransversalCompiler;
