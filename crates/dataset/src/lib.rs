//! Dataset layer: persistent, labeled shot corpora.
//!
//! The paper's end product is "massive data corpuses of noisy quantum
//! data" with known error provenance, suitable for training ML-based QEC
//! decoders (§2.3). This crate turns [`ptsbe_core::be::BatchResult`]s
//! into durable artifacts:
//!
//! - [`record`] — serializable per-trajectory records (provenance +
//!   shots; a shot is a [`ShotWord`], native `u128` in memory and a hex
//!   string only in JSON text, so plain JSON tooling can read it);
//! - [`jsonl`] — line-delimited JSON writer/reader (interchange format);
//! - [`binary`] — compact length-prefixed binary format (16 bytes/shot,
//!   for the "one trillion shots" regime);
//! - [`summary`] — corpus-level statistics (shots, unique fraction,
//!   error-weight census);
//! - [`decoder_export`] — supervised (features, labels) pairs for
//!   decoder training: the measurement record plus the injected errors;
//! - [`sink`] — streaming [`sink::RecordSink`]s (jsonl/binary/in-memory)
//!   the data-collection service delivers records through as chunks
//!   finish, byte-identical to the batch writers;
//! - [`atomic`] — crash-safe file sinks (tmp-file + fsync + atomic
//!   rename), paired with the valid-prefix recovery readers
//!   [`binary::decode_prefix`] / [`jsonl::read_recovered`].

pub mod atomic;
pub mod binary;
pub mod decoder_export;
pub mod jsonl;
pub mod record;
pub mod sink;
pub mod summary;

pub use atomic::{BinaryFileSink, JsonlFileSink};
pub use record::{DatasetHeader, ShotWord, TrajectoryRecord};
pub use sink::{BinarySink, JsonlSink, MemorySink, MemoryStore, RecordSink, SharedBuffer};
pub use summary::DatasetSummary;
