//! Crash-safe file sinks: atomic tmp-file + rename finalization.
//!
//! A plain [`crate::sink::JsonlSink`]/[`crate::sink::BinarySink`] over a
//! `File` leaves a possibly-torn shard at the *final* path if the
//! process dies mid-write — undetectable without parsing. The sinks
//! here write to `<path>.tmp` and promote to `<path>` only inside
//! [`RecordSink::finish`], via `flush → fsync → rename` (plus a
//! best-effort directory fsync so the rename itself is durable). The
//! invariant a reader gets for free: **a file at the final path is
//! always a completely-finalized dataset**; anything interrupted is
//! parked at the `.tmp` name, visibly partial.
//!
//! # Resume protocol
//!
//! A `.tmp` shard left behind by a crash is a byte-prefix of a valid
//! stream, recoverable without guesswork:
//!
//! - **binary** (`PTSB`): [`crate::binary::decode_prefix`] parses whole
//!   length-prefixed frames until the bytes run out mid-frame and
//!   reports the valid prefix length — truncate the shard to it and
//!   append records from the first missing index.
//! - **JSONL**: [`crate::jsonl::read_recovered`] keeps every
//!   newline-terminated record line and discards at most the single
//!   torn tail line — re-emit from the first missing record.
//!
//! Record indices are meaningful to a resuming producer because service
//! chunk geometry is a pure function of the job spec: re-running the
//! same spec regenerates byte-identical records, so "append from index
//! N" is well-defined and deterministic.

use crate::record::{DatasetHeader, TrajectoryRecord};
use crate::sink::{BinarySink, JsonlSink, RecordSink};
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// The `.tmp` staging path for a final destination.
fn tmp_path(dest: &Path) -> PathBuf {
    let mut name = dest.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    dest.with_file_name(name)
}

/// Shared promotion: flush and fsync the staged file, atomically rename
/// it over the destination, then best-effort fsync the directory.
fn promote(file: BufWriter<File>, tmp: &Path, dest: &Path) -> io::Result<()> {
    let file = file
        .into_inner()
        .map_err(|e| io::Error::other(format!("flush failed: {e}")))?;
    file.sync_all()?;
    drop(file);
    fs::rename(tmp, dest)?;
    if let Some(dir) = dest.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

macro_rules! atomic_file_sink {
    ($name:ident, $inner:ident, $doc:literal) => {
        #[doc = $doc]
        pub struct $name {
            inner: Option<$inner<BufWriter<File>>>,
            tmp: PathBuf,
            dest: PathBuf,
        }

        impl $name {
            /// Open the staging file (`<path>.tmp`, truncating any
            /// leftover) for an eventual dataset at `path`.
            ///
            /// # Errors
            /// Propagates file-creation errors.
            pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
                let dest = path.as_ref().to_path_buf();
                let tmp = tmp_path(&dest);
                let file = File::create(&tmp)?;
                Ok(Self {
                    inner: Some($inner::new(BufWriter::new(file))),
                    tmp,
                    dest,
                })
            }

            /// The final dataset path.
            pub fn path(&self) -> &Path {
                &self.dest
            }

            fn sink(&mut self) -> io::Result<&mut $inner<BufWriter<File>>> {
                self.inner.as_mut().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "sink already finished")
                })
            }
        }

        impl RecordSink for $name {
            fn begin(&mut self, header: &DatasetHeader) -> io::Result<()> {
                self.sink()?.begin(header)
            }

            fn write(&mut self, record: &TrajectoryRecord) -> io::Result<()> {
                self.sink()?.write(record)
            }

            fn finish(&mut self) -> io::Result<()> {
                let Some(mut sink) = self.inner.take() else {
                    return Ok(()); // idempotent
                };
                sink.finish()?;
                let mut writer = sink.into_inner();
                writer.flush()?;
                promote(writer, &self.tmp, &self.dest)
            }
        }

        impl Drop for $name {
            fn drop(&mut self) {
                if self.inner.take().is_some() {
                    // Abandoned without finish: clear the staging file so
                    // partial output never lingers (a hard crash skips
                    // this, intentionally leaving the .tmp for recovery).
                    let _ = fs::remove_file(&self.tmp);
                }
            }
        }
    };
}

atomic_file_sink!(
    JsonlFileSink,
    JsonlSink,
    "Crash-safe JSONL file sink: streams through a [`JsonlSink`] into \
     `<path>.tmp` and atomically promotes to `<path>` (flush + fsync + \
     rename) on [`RecordSink::finish`]. Dropped without finishing — job \
     abandoned before its terminal flush — it removes the staging file; a \
     crash leaves the staging file behind for the resume protocol (module \
     docs)."
);
atomic_file_sink!(
    BinaryFileSink,
    BinarySink,
    "Crash-safe binary (`PTSB`) file sink: streams through a [`BinarySink`] \
     into `<path>.tmp` and atomically promotes to `<path>` (flush + fsync + \
     rename) on [`RecordSink::finish`]. Dropped without finishing — job \
     abandoned before its terminal flush — it removes the staging file; a \
     crash leaves the staging file behind for the resume protocol (module \
     docs)."
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ShotWord;
    use ptsbe_core::assignment::TrajectoryMeta;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ptsbe-atomic-{}-{}-{tag}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> (DatasetHeader, Vec<TrajectoryRecord>) {
        let header = DatasetHeader {
            workload: "atomic-test".into(),
            n_qubits: 2,
            n_measured: 2,
            backend: "sv".into(),
            seed: 3,
        };
        let records = vec![TrajectoryRecord {
            meta: TrajectoryMeta {
                truncation: None,
                traj_id: 0,
                nominal_prob: 1.0,
                realized_prob: 1.0,
                choices: vec![0],
                errors: vec![],
            },
            shots: vec![ShotWord(2), ShotWord(1)],
        }];
        (header, records)
    }

    #[test]
    fn jsonl_promotes_on_finish_and_matches_batch_writer() {
        let dir = scratch("jsonl");
        let dest = dir.join("data.jsonl");
        let (header, records) = sample();
        let mut sink = JsonlFileSink::create(&dest).unwrap();
        assert!(tmp_path(&dest).exists() && !dest.exists());
        sink.begin(&header).unwrap();
        for r in &records {
            sink.write(r).unwrap();
        }
        // Until finish, nothing is at the final path.
        assert!(!dest.exists());
        sink.finish().unwrap();
        assert!(dest.exists() && !tmp_path(&dest).exists());
        sink.finish().unwrap(); // idempotent

        let mut batch = Vec::new();
        crate::jsonl::write(&mut batch, &header, &records).unwrap();
        assert_eq!(
            fs::read(&dest).unwrap(),
            batch,
            "must match the batch writer"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_promotes_on_finish_and_matches_batch_encoder() {
        let dir = scratch("bin");
        let dest = dir.join("data.ptsb");
        let (header, records) = sample();
        let mut sink = BinaryFileSink::create(&dest).unwrap();
        sink.begin(&header).unwrap();
        for r in &records {
            sink.write(r).unwrap();
        }
        sink.finish().unwrap();
        assert!(dest.exists() && !tmp_path(&dest).exists());
        let batch = crate::binary::encode(&header, &records).unwrap();
        assert_eq!(fs::read(&dest).unwrap(), batch.as_slice());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abandoned_sink_cleans_its_staging_file() {
        let dir = scratch("drop");
        let dest = dir.join("data.jsonl");
        let (header, _) = sample();
        {
            let mut sink = JsonlFileSink::create(&dest).unwrap();
            sink.begin(&header).unwrap();
        }
        assert!(
            !dest.exists() && !tmp_path(&dest).exists(),
            "neither final nor staging file may survive an abandon"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_staging_file_recovers_via_prefix_protocols() {
        let dir = scratch("recover");
        let (header, records) = sample();
        // Simulate a crash: bytes of a valid stream, cut mid-record, at
        // the .tmp name (as a killed process would leave them).
        let mut stream = Vec::new();
        crate::jsonl::write(&mut stream, &header, &records).unwrap();
        let torn = &stream[..stream.len() - 3];
        let tmp = tmp_path(&dir.join("data.jsonl"));
        fs::write(&tmp, torn).unwrap();
        let (h2, recovered, dropped) =
            crate::jsonl::read_recovered(io::BufReader::new(fs::File::open(&tmp).unwrap()))
                .unwrap();
        assert_eq!(h2, header);
        assert_eq!((recovered.len(), dropped), (0, 1));
        fs::remove_dir_all(&dir).unwrap();
    }
}
