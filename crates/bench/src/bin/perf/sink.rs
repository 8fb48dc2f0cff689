//! The benchmark's own record sink: the product's `BinarySink` over a
//! writer that counts and digests bytes instead of storing them, plus
//! the first-record timestamp. Per-write timestamps (for record gaps)
//! are taken only when asked, i.e. only in traced phases.

use ptsbe_dataset::{BinarySink, DatasetHeader, RecordSink, TrajectoryRecord};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// FNV-1a over 64-bit little-endian words (the byte-wise original costs
/// one multiply per byte — 16 per shot — which would show up in the
/// sink's share; this is one per word). A trailing partial word is
/// folded in byte-wise by [`Fnv64::finish`]. Independent of how the
/// byte stream is split across `update` calls.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64 {
    h: u64,
    pending: [u8; 8],
    n_pending: usize,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Self {
            h: FNV_OFFSET,
            pending: [0; 8],
            n_pending: 0,
        }
    }
}

impl Fnv64 {
    fn word(&mut self, w: u64) {
        self.h = (self.h ^ w).wrapping_mul(FNV_PRIME);
    }

    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.n_pending > 0 {
            let take = (8 - self.n_pending).min(bytes.len());
            self.pending[self.n_pending..self.n_pending + take].copy_from_slice(&bytes[..take]);
            self.n_pending += take;
            bytes = &bytes[take..];
            if self.n_pending < 8 {
                return;
            }
            self.word(u64::from_le_bytes(self.pending));
            self.n_pending = 0;
        }
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.n_pending = tail.len();
    }

    pub fn finish(&self) -> u64 {
        let mut h = self.h;
        for &b in &self.pending[..self.n_pending] {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// What one job delivered to its sink.
#[derive(Debug, Clone, Default)]
pub struct SinkReport {
    /// `begin` → first `write`, measured from the sink's creation
    /// (created immediately before `submit`).
    pub first_record: Option<Duration>,
    pub header_bytes: u64,
    pub bytes: u64,
    pub records: u64,
    pub shots: u64,
    /// Digest of every byte (header included).
    pub digest: u64,
    /// Digest of the record frames only — what the layered replay is
    /// compared on, so a header-field change cannot fail that check.
    pub body_digest: u64,
    pub finished: bool,
    /// Time of every `write` since creation (traced phases only).
    pub write_times: Vec<Duration>,
    /// Per-bit counts of set measurement bits (frame marginals check;
    /// filled only when asked).
    pub bit_counts: Vec<u64>,
}

#[derive(Default)]
struct Shared {
    report: SinkReport,
    full: Fnv64,
    body: Fnv64,
    in_body: bool,
}

struct CountingWriter(Arc<Mutex<Shared>>);

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut s = self.0.lock().expect("sink state lock");
        s.report.bytes += buf.len() as u64;
        s.full.update(buf);
        if s.in_body {
            s.body.update(buf);
        } else {
            s.report.header_bytes += buf.len() as u64;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Extra observations a traced phase may ask the sink for.
#[derive(Debug, Clone, Copy, Default)]
pub struct SinkOptions {
    pub time_writes: bool,
    /// Count set bits per measured position (decodes the hex shots).
    pub bit_marginals: Option<usize>,
}

/// `RecordSink` handed to `ShotService::submit` (and driven directly by
/// the layered replay).
pub struct ProbeSink {
    inner: BinarySink<CountingWriter>,
    shared: Arc<Mutex<Shared>>,
    created: Instant,
    opts: SinkOptions,
}

/// Caller-side handle to read the [`SinkReport`] once the job is done.
#[derive(Clone)]
pub struct SinkHandle(Arc<Mutex<Shared>>);

impl SinkHandle {
    pub fn report(&self) -> SinkReport {
        let s = self.0.lock().expect("sink state lock");
        let mut r = s.report.clone();
        r.digest = s.full.finish();
        r.body_digest = s.body.finish();
        r
    }
}

impl ProbeSink {
    pub fn new(opts: SinkOptions) -> (Self, SinkHandle) {
        let shared = Arc::new(Mutex::new(Shared::default()));
        if let Some(bits) = opts.bit_marginals {
            shared.lock().expect("fresh lock").report.bit_counts = vec![0; bits];
        }
        (
            Self {
                inner: BinarySink::new(CountingWriter(Arc::clone(&shared))),
                shared: Arc::clone(&shared),
                created: Instant::now(),
                opts,
            },
            SinkHandle(shared),
        )
    }

    pub fn plain() -> (Self, SinkHandle) {
        Self::new(SinkOptions::default())
    }
}

impl RecordSink for ProbeSink {
    fn begin(&mut self, header: &DatasetHeader) -> io::Result<()> {
        self.inner.begin(header)?;
        self.shared.lock().expect("sink state lock").in_body = true;
        Ok(())
    }

    fn write(&mut self, record: &TrajectoryRecord) -> io::Result<()> {
        let at = self.created.elapsed();
        {
            let mut s = self.shared.lock().expect("sink state lock");
            s.report.first_record.get_or_insert(at);
            s.report.records += 1;
            s.report.shots += record.shots.len() as u64;
            if self.opts.time_writes {
                s.report.write_times.push(at);
            }
            if self.opts.bit_marginals.is_some() {
                let shots = record
                    .decode_shots()
                    .map_err(|h| io::Error::new(io::ErrorKind::InvalidData, h))?;
                for shot in shots {
                    for (bit, count) in s.report.bit_counts.iter_mut().enumerate() {
                        *count += ((shot >> bit) & 1) as u64;
                    }
                }
            }
        }
        self.inner.write(record)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()?;
        self.shared.lock().expect("sink state lock").report.finished = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_core::assignment::TrajectoryMeta;

    #[test]
    fn digest_is_independent_of_write_splitting() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1003).collect();
        let mut whole = Fnv64::default();
        whole.update(&data);
        for split in [1usize, 3, 7, 8, 9, 64, 1000] {
            let mut parts = Fnv64::default();
            for c in data.chunks(split) {
                parts.update(c);
            }
            assert_eq!(parts.finish(), whole.finish(), "split {split}");
        }
        let mut other = Fnv64::default();
        other.update(&data[..1002]);
        assert_ne!(other.finish(), whole.finish());
        assert_eq!(Fnv64::default().finish(), FNV_OFFSET);
    }

    #[test]
    fn probe_sink_counts_what_binary_sink_writes() {
        let header = DatasetHeader {
            workload: "t".into(),
            n_qubits: 2,
            n_measured: 2,
            backend: "sv".into(),
            seed: 1,
        };
        let rec = TrajectoryRecord {
            meta: TrajectoryMeta {
                truncation: None,
                traj_id: 0,
                nominal_prob: 1.0,
                realized_prob: 1.0,
                choices: vec![0],
                errors: vec![],
            },
            shots: vec!["3".into(), "1".into(), "0".into()],
        };
        let expect = ptsbe_dataset::binary::encode(&header, &[rec.clone(), rec.clone()]).unwrap();
        let (mut sink, handle) = ProbeSink::new(SinkOptions {
            time_writes: true,
            bit_marginals: Some(2),
        });
        sink.begin(&header).unwrap();
        sink.write(&rec).unwrap();
        sink.write(&rec).unwrap();
        sink.finish().unwrap();
        let r = handle.report();
        assert_eq!(r.bytes, expect.len() as u64);
        assert_eq!((r.records, r.shots), (2, 6));
        assert!(r.finished && r.first_record.is_some());
        assert_eq!(r.write_times.len(), 2);
        assert_eq!(r.bit_counts, vec![4, 2]);
        let mut d = Fnv64::default();
        d.update(expect.as_slice());
        assert_eq!(r.digest, d.finish());
        let mut body = Fnv64::default();
        body.update(&expect.as_slice()[r.header_bytes as usize..]);
        assert_eq!(r.body_digest, body.finish());
    }
}
