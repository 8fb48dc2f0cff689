//! Compact binary dataset format.
//!
//! Layout (little-endian):
//! ```text
//! magic "PTSB" | version u32 | header_len u32 | header JSON bytes
//! repeat per trajectory:
//!   meta_len u32 | meta JSON bytes | n_shots u64 | shots as u128 LE …
//! ```
//! 16 bytes per shot — the format the trillion-shot regime wants; the
//! JSON headers keep it self-describing.

use crate::record::{DatasetHeader, ShotWord, TrajectoryRecord};
use ptsbe_core::assignment::TrajectoryMeta;
use std::io;

const MAGIC: &[u8; 4] = b"PTSB";
const VERSION: u32 = 1;

/// Encode the dataset preamble (magic, version, header JSON) — the
/// `begin` frame shared by [`encode`] and the streaming
/// [`crate::sink::BinarySink`].
pub(crate) fn encode_header(header: &DatasetHeader) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    let hjson = serde_json::to_vec(header)?;
    buf.extend_from_slice(&(hjson.len() as u32).to_le_bytes());
    buf.extend_from_slice(&hjson);
    Ok(buf)
}

/// Encode one trajectory frame (meta JSON + shot words).
pub(crate) fn encode_record(rec: &TrajectoryRecord) -> io::Result<Vec<u8>> {
    let mjson = serde_json::to_vec(&rec.meta)?;
    let mut buf = Vec::with_capacity(4 + mjson.len() + 8 + 16 * rec.shots.len());
    buf.extend_from_slice(&(mjson.len() as u32).to_le_bytes());
    buf.extend_from_slice(&mjson);
    buf.extend_from_slice(&(rec.shots.len() as u64).to_le_bytes());
    for s in &rec.shots {
        buf.extend_from_slice(&s.0.to_le_bytes());
    }
    Ok(buf)
}

/// Serialize a dataset to bytes.
///
/// # Errors
/// Propagates serialization failures.
pub fn encode(header: &DatasetHeader, records: &[TrajectoryRecord]) -> io::Result<Vec<u8>> {
    let mut buf = encode_header(header)?;
    for rec in records {
        buf.extend_from_slice(&encode_record(rec)?);
    }
    Ok(buf)
}

/// Parse a dataset encoded by [`encode`]: [`decode_prefix`] whose valid
/// prefix must be the whole buffer.
///
/// # Errors
/// Returns `InvalidData` on magic/version/structure mismatches, a torn
/// last frame, or bytes after it.
pub fn decode(data: impl AsRef<[u8]>) -> io::Result<(DatasetHeader, Vec<TrajectoryRecord>)> {
    let len = data.as_ref().len();
    let (header, records, prefix_len) = decode_prefix(data)?;
    if prefix_len != len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("truncated or trailing bytes: {prefix_len} of {len} bytes are whole frames"),
        ));
    }
    Ok((header, records))
}

/// Valid-prefix recovery for a possibly-torn `PTSB` shard (the resume
/// protocol for crash-safe binary sinks — see [`crate::atomic`]).
///
/// A process killed mid-write leaves a byte-prefix of a valid stream:
/// the length-prefixed framing makes the cut detectable, so recovery
/// parses whole record frames until the remaining bytes are shorter
/// than their own framing claims, then stops. Returns the header, the
/// complete records, and the byte length of the valid prefix — re-emit
/// from record `records.len()` (or truncate the shard to `prefix_len`
/// and append) to resume.
///
/// # Errors
/// `InvalidData` when even the preamble (magic/version/header) is torn
/// or wrong — there is no dataset to recover — and on corrupt (not
/// merely truncated) frames, which indicate real damage rather than an
/// interrupted write.
pub fn decode_prefix(
    data: impl AsRef<[u8]>,
) -> io::Result<(DatasetHeader, Vec<TrajectoryRecord>, usize)> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let buf = data.as_ref();
    if buf.len() < 12 || &buf[..4] != MAGIC {
        return Err(bad(if buf.len() < 12 {
            "truncated preamble: no recoverable dataset"
        } else {
            "bad magic"
        }));
    }
    let u32_at = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
    if u32_at(4) != VERSION {
        return Err(bad("unsupported version"));
    }
    let hlen = u32_at(8) as usize;
    if buf.len() - 12 < hlen {
        return Err(bad("truncated dataset header: no recoverable dataset"));
    }
    let header: DatasetHeader = serde_json::from_slice(&buf[12..12 + hlen])?;
    let mut records = Vec::new();
    let mut prefix_len = 12 + hlen;
    loop {
        // Parse one frame at a speculative cursor; commit `prefix_len`
        // only once the frame is complete.
        let mut at = prefix_len;
        if buf.len() - at < 4 {
            break;
        }
        let mlen = u32_at(at) as usize;
        at += 4;
        if buf.len() - at < mlen + 8 {
            break;
        }
        let meta: TrajectoryMeta = serde_json::from_slice(&buf[at..at + mlen])?;
        at += mlen;
        let n_shots = u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes")) as usize;
        at += 8;
        if (buf.len() - at) / 16 < n_shots {
            break;
        }
        let mut shots = Vec::with_capacity(n_shots);
        for _ in 0..n_shots {
            let word = u128::from_le_bytes(buf[at..at + 16].try_into().expect("16 bytes"));
            shots.push(ShotWord(word));
            at += 16;
        }
        records.push(TrajectoryRecord { meta, shots });
        prefix_len = at;
    }
    Ok((header, records, prefix_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (DatasetHeader, Vec<TrajectoryRecord>) {
        let header = DatasetHeader {
            workload: "bin-test".into(),
            n_qubits: 3,
            n_measured: 3,
            backend: "mps".into(),
            seed: 11,
        };
        let records = vec![TrajectoryRecord {
            meta: TrajectoryMeta {
                truncation: None,
                traj_id: 0,
                nominal_prob: 1.0,
                realized_prob: 1.0,
                choices: vec![],
                errors: vec![],
            },
            shots: vec![ShotWord(0xdeadbeef), ShotWord(7)],
        }];
        (header, records)
    }

    #[test]
    fn round_trip() {
        let (header, records) = sample();
        let bytes = encode(&header, &records).unwrap();
        let (h2, r2) = decode(bytes).unwrap();
        assert_eq!(h2, header);
        assert_eq!(r2[0].shots, records[0].shots);
    }

    #[test]
    fn bad_magic_rejected() {
        let (header, records) = sample();
        let mut bytes = encode(&header, &records).unwrap();
        bytes[0] = b'X';
        assert!(decode(bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let (header, records) = sample();
        let bytes = encode(&header, &records).unwrap();
        assert!(decode(&bytes[..bytes.len() - 5]).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (header, records) = sample();
        let mut bytes = encode(&header, &records).unwrap();
        let whole = bytes.len();
        bytes.extend_from_slice(&[0xAB; 3]);
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Recovery keeps the whole frames and reports where they end.
        let (_, recovered, prefix_len) = decode_prefix(&bytes).unwrap();
        assert_eq!((recovered.len(), prefix_len), (1, whole));
    }

    #[test]
    fn absurd_shot_count_is_invalid_data_not_a_panic() {
        // A frame claiming 2^60 shots: `n_shots * 16` overflows usize, so
        // the check must divide the remaining bytes instead.
        let (header, records) = sample();
        let mut bytes = encode(&header, &[]).unwrap();
        let mjson = serde_json::to_vec(&records[0].meta).unwrap();
        bytes.extend_from_slice(&(mjson.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&mjson);
        bytes.extend_from_slice(&(1u64 << 60).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]);
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let (_, recovered, _) = decode_prefix(&bytes).unwrap();
        assert!(recovered.is_empty());
    }

    #[test]
    fn prefix_recovery_stops_at_the_tear() {
        let (header, mut records) = sample();
        records.push(TrajectoryRecord {
            meta: records[0].meta.clone(),
            shots: vec![ShotWord(9)],
        });
        let bytes = encode(&header, &records).unwrap();
        // Cut inside the second record's shot words.
        let (h2, recovered, prefix_len) = decode_prefix(&bytes[..bytes.len() - 5]).unwrap();
        assert_eq!(h2, header);
        assert_eq!(recovered.len(), 1, "only the complete record survives");
        assert_eq!(recovered[0].shots, records[0].shots);
        // The reported prefix is itself a fully valid dataset.
        let (_, reparsed) = decode(&bytes[..prefix_len]).unwrap();
        assert_eq!(reparsed.len(), 1);
        // An untorn shard recovers completely.
        let (_, all, full_len) = decode_prefix(&bytes).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(full_len, bytes.len());
        // A preamble tear is unrecoverable by design.
        assert!(decode_prefix(&bytes[..6]).is_err());
    }

    #[test]
    fn shot_size_is_16_bytes() {
        let (header, mut records) = sample();
        let base = encode(&header, &records).unwrap().len();
        records[0].shots.push(ShotWord(1));
        let plus_one = encode(&header, &records).unwrap().len();
        assert_eq!(plus_one - base, 16);
    }
}
