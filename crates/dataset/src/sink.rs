//! Streaming record sinks: datasets written incrementally, record by
//! record, as execution produces them.
//!
//! The batch writers ([`crate::jsonl::write`], [`crate::binary::encode`])
//! need the whole result set in memory; the data-collection service
//! instead streams [`TrajectoryRecord`]s into a [`RecordSink`] as lane
//! groups finish, so a trillion-shot job's memory footprint is one
//! in-flight chunk, not the corpus. Both concrete sinks produce output
//! *byte-identical* to their batch counterparts — a dataset is readable
//! by [`crate::jsonl::read`]/[`crate::binary::decode`] regardless of
//! which path wrote it (and a prefix of a streamed binary dataset is a
//! valid dataset, so an interrupted job leaves usable data).
//!
//! Lifecycle: exactly one [`RecordSink::begin`], any number of
//! [`RecordSink::write`]s, one [`RecordSink::finish`]. Sinks are `Send`
//! so a service worker pool can carry them across threads; ordering is
//! the *caller's* contract (the service's per-job emitter reorders
//! out-of-order chunks before writing, which is what makes service
//! output bytes independent of worker count).

use crate::record::{DatasetHeader, TrajectoryRecord};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// A streaming consumer of dataset records.
pub trait RecordSink: Send {
    /// Start the dataset (writes the header). Called exactly once,
    /// before any record.
    fn begin(&mut self, header: &DatasetHeader) -> io::Result<()>;

    /// Append one trajectory record.
    fn write(&mut self, record: &TrajectoryRecord) -> io::Result<()>;

    /// Finalize the dataset (flush framing, if any). No writes may
    /// follow.
    fn finish(&mut self) -> io::Result<()>;
}

// ---------------------------------------------------------------------------

/// Streaming JSONL sink: one header line, then one record per line —
/// byte-identical to [`crate::jsonl::write`].
pub struct JsonlSink<W: Write + Send> {
    w: W,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wrap a writer.
    pub fn new(w: W) -> Self {
        Self { w }
    }

    /// Recover the inner writer (after [`RecordSink::finish`]).
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write + Send> RecordSink for JsonlSink<W> {
    fn begin(&mut self, header: &DatasetHeader) -> io::Result<()> {
        serde_json::to_writer(&mut self.w, header)?;
        self.w.write_all(b"\n")
    }

    fn write(&mut self, record: &TrajectoryRecord) -> io::Result<()> {
        crate::jsonl::write_record(&mut self.w, record)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

// ---------------------------------------------------------------------------

/// Streaming binary sink: the `PTSB` format of [`crate::binary`], written
/// one frame at a time — byte-identical to [`crate::binary::encode`],
/// whose decision half it shares. A frame of plain words is never built
/// whole: after its head the words go out in 64 KiB pieces through one
/// buffer the sink keeps.
pub struct BinarySink<W: Write + Send> {
    w: W,
    /// Reused for every frame's head.
    head: Vec<u8>,
    /// Reused for every piece of plain words a frame writes.
    piece: Vec<u8>,
}

/// Bytes of plain words a [`BinarySink`] writes at a time.
const PIECE_BYTES: usize = 1 << 16;

impl<W: Write + Send> BinarySink<W> {
    /// Wrap a writer.
    pub fn new(w: W) -> Self {
        Self {
            w,
            head: Vec::new(),
            piece: Vec::new(),
        }
    }

    /// Recover the inner writer (after [`RecordSink::finish`]).
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write + Send> RecordSink for BinarySink<W> {
    fn begin(&mut self, header: &DatasetHeader) -> io::Result<()> {
        let buf = crate::binary::encode_header(header)?;
        self.w.write_all(&buf)
    }

    fn write(&mut self, record: &TrajectoryRecord) -> io::Result<()> {
        // The head (meta, shot count, tag, runs if any) in `head`, then
        // plain words a 64 KiB piece at a time through `piece`; both are
        // kept from frame to frame. One 65 536-shot frame record into a
        // writer keeping two word-wise FNV digests of its bytes (0.35 ms
        // of the total) took 0.48 ms built whole in a fresh 1 MiB buffer
        // a word at a time, and 0.41 ms in pieces. A sorted 500 000-shot
        // record of 65 362 runs into `io::sink()` takes 1.06-1.14 ms with
        // run ends found 64 words at a time, against 1.55-1.64 ms with a
        // `take_while` per run and a fresh head buffer per frame
        // (medians of 300 writes; 2-vCPU x86-64 VM).
        self.head.clear();
        let plain = crate::binary::encode_record_head(record, &mut self.head)?;
        self.w.write_all(&self.head)?;
        if let Some(w) = plain {
            for words in record.shots.chunks(PIECE_BYTES / w) {
                self.piece.clear();
                crate::binary::put_words(words, w, &mut self.piece);
                self.w.write_all(&self.piece)?;
            }
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

// ---------------------------------------------------------------------------

/// Shared in-memory dataset a [`MemorySink`] fills — the handle the
/// submitting side keeps while the sink itself travels into a service
/// worker.
#[derive(Debug, Default)]
pub struct MemoryStore {
    /// Header from [`RecordSink::begin`].
    pub header: Option<DatasetHeader>,
    /// Records in write order.
    pub records: Vec<TrajectoryRecord>,
    /// Whether [`RecordSink::finish`] ran.
    pub finished: bool,
}

/// In-memory sink for tests, examples, and callers that post-process
/// records instead of persisting them.
pub struct MemorySink {
    store: Arc<Mutex<MemoryStore>>,
}

impl MemorySink {
    /// A sink plus the shared handle to read results back through.
    pub fn new() -> (Self, Arc<Mutex<MemoryStore>>) {
        let store = Arc::new(Mutex::new(MemoryStore::default()));
        (
            Self {
                store: Arc::clone(&store),
            },
            store,
        )
    }
}

impl RecordSink for MemorySink {
    fn begin(&mut self, header: &DatasetHeader) -> io::Result<()> {
        self.store.lock().unwrap().header = Some(header.clone());
        Ok(())
    }

    fn write(&mut self, record: &TrajectoryRecord) -> io::Result<()> {
        self.store.lock().unwrap().records.push(record.clone());
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.store.lock().unwrap().finished = true;
        Ok(())
    }
}

/// A `Write` target backed by a shared byte buffer: lets a caller hand a
/// [`JsonlSink`]/[`BinarySink`] to the service while keeping a handle to
/// the bytes (the service determinism tests compare these buffers across
/// worker counts).
#[derive(Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the bytes written so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ShotWord;
    use ptsbe_core::assignment::TrajectoryMeta;

    fn sample() -> (DatasetHeader, Vec<TrajectoryRecord>) {
        let header = DatasetHeader {
            workload: "sink-test".into(),
            n_qubits: 2,
            n_measured: 2,
            backend: "sv".into(),
            seed: 9,
        };
        let records = vec![
            TrajectoryRecord {
                meta: TrajectoryMeta {
                    truncation: None,
                    traj_id: 0,
                    nominal_prob: 0.75,
                    realized_prob: 0.75,
                    choices: vec![0, 2],
                    errors: vec![],
                },
                shots: vec![ShotWord(3), ShotWord(0)],
            },
            TrajectoryRecord {
                meta: TrajectoryMeta {
                    truncation: None,
                    traj_id: 1,
                    nominal_prob: 0.25,
                    realized_prob: 0.25,
                    choices: vec![1, 0],
                    errors: vec![],
                },
                shots: vec![ShotWord(u128::MAX)],
            },
        ];
        (header, records)
    }

    fn stream_through<S: RecordSink>(
        sink: &mut S,
        header: &DatasetHeader,
        records: &[TrajectoryRecord],
    ) {
        sink.begin(header).unwrap();
        for r in records {
            sink.write(r).unwrap();
        }
        sink.finish().unwrap();
    }

    #[test]
    fn jsonl_sink_matches_batch_writer() {
        let (header, records) = sample();
        let buf = SharedBuffer::new();
        let mut sink = JsonlSink::new(buf.clone());
        stream_through(&mut sink, &header, &records);

        let mut batch = Vec::new();
        crate::jsonl::write(&mut batch, &header, &records).unwrap();
        assert_eq!(buf.bytes(), batch, "streamed JSONL must be byte-identical");

        let (h2, r2) = crate::jsonl::read(std::io::BufReader::new(&buf.bytes()[..])).unwrap();
        assert_eq!(h2, header);
        assert_eq!(r2.len(), records.len());
    }

    /// Plain-word records (shot order, so never runs) around the sink's
    /// piece size, with 8- and 16-byte words.
    fn plain_records() -> Vec<TrajectoryRecord> {
        let (_, records) = sample();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        };
        let mut out = Vec::new();
        for w in [8, 16] {
            let piece = PIECE_BYTES / w;
            for n in [0, 1, piece - 1, piece + 1, 100_000] {
                let shots = (0..n)
                    .map(|_| {
                        let high = if w == 16 { u128::from(next()) << 64 } else { 0 };
                        ShotWord(high | u128::from(next()))
                    })
                    .collect();
                out.push(TrajectoryRecord {
                    meta: records[0].meta.clone(),
                    shots,
                });
            }
        }
        out
    }

    #[test]
    fn binary_sink_matches_batch_encoder() {
        let (header, mut records) = sample();
        records.extend(plain_records());
        let buf = SharedBuffer::new();
        let mut sink = BinarySink::new(buf.clone());
        stream_through(&mut sink, &header, &records);

        let batch = crate::binary::encode(&header, &records).unwrap();
        assert_eq!(buf.bytes(), batch, "streamed binary must be byte-identical");

        let (h2, r2) = crate::binary::decode(buf.bytes()).unwrap();
        assert_eq!(h2, header);
        for (got, want) in r2.iter().zip(&records) {
            assert_eq!(got.shots, want.shots);
        }
        assert_eq!(r2.len(), records.len());
    }

    #[test]
    fn binary_prefix_is_valid_dataset() {
        // Stop after the first record: still decodable (interrupted jobs
        // leave usable data).
        let (header, records) = sample();
        let buf = SharedBuffer::new();
        let mut sink = BinarySink::new(buf.clone());
        sink.begin(&header).unwrap();
        sink.write(&records[0]).unwrap();
        let (_, r) = crate::binary::decode(buf.bytes()).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn memory_sink_round_trip() {
        let (header, records) = sample();
        let (mut sink, store) = MemorySink::new();
        stream_through(&mut sink, &header, &records);
        let store = store.lock().unwrap();
        assert_eq!(store.header.as_ref().unwrap(), &header);
        assert_eq!(store.records.len(), 2);
        assert!(store.finished);
    }
}
