//! Compact binary dataset format.
//!
//! Layout (little-endian):
//! ```text
//! magic "PTSB" | version u32 | header_len u32 | header JSON bytes
//! repeat per trajectory:
//!   meta_len u32 | meta JSON bytes | n_shots u64 | shots
//! shots, version 1:  n_shots × u128
//! shots, version 2:  tag u8, then by tag bit 0
//!   0 (plain):       n_shots × word
//!   1 (run-length):  n_runs u64 | n_runs × (word, count u32)
//!   word is a u64 when tag bit 1 is set, a u128 otherwise
//! ```
//! A bulk-sampled trajectory is a histogram — 500 000 shots of a
//! 16-qubit state hold at most 65 536 distinct words and arrive sorted —
//! so version 2 stores a sorted record as *runs of equal words* where
//! that is smaller, and 8-byte words when no word of the record needs
//! more. The writer decides per record, from the record alone: 8-byte
//! words iff every word fits in 64 bits; run-length iff the words never
//! descend and `8 + n_runs·(w+4) < n_shots·w` for the word size `w` just
//! chosen (a run longer than `u32::MAX` is split, and every piece
//! counts). One scan finds the runs, 64 adjacent words at a time, and
//! never sorts. A record in shot
//! order (the frame engine's) stays plain words although it has repeats:
//! its run count is a draw, not a property of the job — the same
//! 393 216-shot memory experiment came to 4.34–4.40 bytes a shot from one
//! execution seed to the next — while a sorted record's is bounded by the
//! distinct outcomes, and plain words cost the same on every run. The
//! reader takes runs in any order. The encoding is a pure function of the
//! record, which is what keeps a shard byte-identical across worker
//! counts, cache states and retries.
//!
//! This crate writes version 2 and reads both; either way a frame decodes
//! to the same `Vec<ShotWord>`. The JSON headers keep the file
//! self-describing.
//!
//! One rule, two writers: the writer's decision (runs or plain, 8- or
//! 16-byte words) writes a frame's head — the tag and, for runs, the runs
//! — and leaves plain words to the caller. [`encode`] appends them to its
//! buffer; [`crate::sink::BinarySink`] writes the head and then copies the
//! words out one fixed-size piece at a time through a buffer it reuses,
//! instead of building each frame whole (1 MiB per 65 536-shot frame
//! record).

use crate::record::{DatasetHeader, ShotWord, TrajectoryRecord};
use ptsbe_core::assignment::TrajectoryMeta;
use std::io;

const MAGIC: &[u8; 4] = b"PTSB";
/// The version this crate writes; [`decode_prefix`] also reads 1.
const VERSION: u32 = 2;

/// Tag bit 0: the shots are `(word, count)` runs.
const TAG_RUNS: u8 = 1;
/// Tag bit 1: words are 8 bytes, not 16.
const TAG_NARROW: u8 = 2;

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

/// Append one trajectory frame (meta JSON + shots) to `buf`.
pub(crate) fn encode_record(rec: &TrajectoryRecord, buf: &mut Vec<u8>) -> io::Result<()> {
    if let Some(w) = encode_record_head(rec, buf)? {
        put_words(&rec.shots, w, buf);
    }
    Ok(())
}

/// Append a frame's head to `buf`: meta JSON, shot count, and the shot
/// section as far as [`encode_shots_head`] writes it. `Some(w)` when the
/// record's plain `w`-byte words must follow ([`put_words`]).
pub(crate) fn encode_record_head(
    rec: &TrajectoryRecord,
    buf: &mut Vec<u8>,
) -> io::Result<Option<usize>> {
    let mjson = serde_json::to_vec(&rec.meta)?;
    buf.extend_from_slice(&(mjson.len() as u32).to_le_bytes());
    buf.extend_from_slice(&mjson);
    buf.extend_from_slice(&(rec.shots.len() as u64).to_le_bytes());
    Ok(encode_shots_head(&rec.shots, u32::MAX, buf))
}

fn push_word(buf: &mut Vec<u8>, word: u128, narrow: bool) {
    if narrow {
        buf.extend_from_slice(&(word as u64).to_le_bytes());
    } else {
        buf.extend_from_slice(&word.to_le_bytes());
    }
}

/// Append `shots` as plain little-endian words of `w` (8 or 16) bytes.
pub(crate) fn put_words(shots: &[ShotWord], w: usize, buf: &mut Vec<u8>) {
    let start = buf.len();
    buf.resize(start + shots.len() * w, 0);
    let out = buf[start..].chunks_exact_mut(w).zip(shots);
    if w == 8 {
        out.for_each(|(dst, s)| dst.copy_from_slice(&(s.0 as u64).to_le_bytes()));
    } else {
        out.for_each(|(dst, s)| dst.copy_from_slice(&s.0.to_le_bytes()));
    }
}

/// The version-2 shot section up to its plain words: the tag byte and,
/// when the module-level rule picks runs, the runs. `Some(w)` when the
/// section is plain words of `w` bytes instead, which are left to the
/// caller: the batch encoder appends them, the streaming sink copies them
/// out in pieces. `max_run` is `u32::MAX` outside tests.
fn encode_shots_head(shots: &[ShotWord], max_run: u32, buf: &mut Vec<u8>) -> Option<usize> {
    // No early exit: a plain OR-fold vectorizes, and a bulk record is
    // all narrow anyway.
    let narrow = shots.iter().fold(0, |high, s| high | (s.0 >> 64)) == 0;
    let w = if narrow { 8 } else { 16 };
    let start = buf.len();
    buf.push(TAG_RUNS | (u8::from(narrow) * TAG_NARROW));
    buf.extend_from_slice(&[0; 8]);
    let runs = push_runs(shots, w, max_run, buf);
    if let Some(n_runs) = runs {
        buf[start + 1..start + 9].copy_from_slice(&(n_runs as u64).to_le_bytes());
        return None;
    }
    buf.truncate(start);
    buf.push(u8::from(narrow) * TAG_NARROW);
    Some(w)
}

/// Append `shots` as `(word, count)` runs of `w`-byte words, runs longer
/// than `max_run` split, and return how many; `None` as soon as the words
/// descend or the runs stop paying (`8 + n_runs·(w+4) < n_shots·w`),
/// leaving a partial section the caller truncates. Run ends are found 64
/// adjacent pairs at a time: a block's `shots[i] != shots[i + 1]` tests
/// make one mask, and its set bits are walked, so a long run costs one
/// branch-free compare a word.
fn push_runs(shots: &[ShotWord], w: usize, max_run: u32, buf: &mut Vec<u8>) -> Option<usize> {
    // The most runs that still pay; none when even one does not.
    let max_runs = (shots.len() * w).checked_sub(9)? / (w + 4);
    let mut n_runs = 0usize;
    let mut run = |word: u128, mut len: usize, buf: &mut Vec<u8>| {
        while len > 0 {
            let piece = len.min(max_run as usize);
            n_runs += 1;
            if n_runs > max_runs {
                return false;
            }
            push_word(buf, word, w == 8);
            buf.extend_from_slice(&(piece as u32).to_le_bytes());
            len -= piece;
        }
        true
    };
    let mut run_start = 0;
    for base in (0..shots.len()).step_by(64) {
        // Pairs `base + j, base + j + 1`, the last reaching into the next
        // block.
        let pairs = &shots[base..(base + 65).min(shots.len())];
        let mut ends = 0u64;
        for (j, (a, z)) in pairs.iter().zip(&pairs[1..]).enumerate() {
            ends |= u64::from(a != z) << j;
        }
        while ends != 0 {
            let end = base + ends.trailing_zeros() as usize;
            // A descent can only be where a run ends.
            let word = shots[end].0;
            if word > shots[end + 1].0 || !run(word, end + 1 - run_start, buf) {
                return None;
            }
            run_start = end + 1;
            ends &= ends - 1;
        }
    }
    let last = shots.last()?.0;
    run(last, shots.len() - run_start, buf).then_some(n_runs)
}

/// Serialize a dataset to bytes.
///
/// # Errors
/// Propagates serialization failures.
pub fn encode(header: &DatasetHeader, records: &[TrajectoryRecord]) -> io::Result<Vec<u8>> {
    let mut buf = encode_header(header)?;
    for rec in records {
        encode_record(rec, &mut buf)?;
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

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Little-endian reads at a cursor over a byte slice; `None` when the
/// slice is too short (the caller decides whether that is a torn tail).
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let out = &self.buf[self.at..self.at + n];
        self.at += n;
        Some(out)
    }

    fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// `n` records of `size` bytes each, without computing `n · size`
    /// before knowing it fits (a corrupt count must not overflow).
    fn records(&mut self, n: usize, size: usize) -> Option<std::slice::ChunksExact<'a, u8>> {
        if self.remaining() / size < n {
            return None;
        }
        self.bytes(n * size).map(|b| b.chunks_exact(size))
    }
}

fn word_of(bytes: &[u8]) -> u128 {
    match bytes.len() {
        8 => u128::from(u64::from_le_bytes(bytes.try_into().expect("8 bytes"))),
        _ => u128::from_le_bytes(bytes.try_into().expect("16 bytes")),
    }
}

fn reserve_shots(n_shots: usize) -> io::Result<Vec<ShotWord>> {
    let mut shots = Vec::new();
    shots
        .try_reserve_exact(n_shots)
        .map_err(|_| bad("shot count exceeds available memory"))?;
    Ok(shots)
}

/// One frame's shot section. `Ok(None)` is a torn tail (fewer bytes than
/// the frame's own lengths claim); `Err` is damage no interrupted write
/// can explain. Nothing is allocated before the section has been checked
/// against the bytes that are really there.
fn decode_shots(cur: &mut Cursor, version: u32, n_shots: u64) -> io::Result<Option<Vec<ShotWord>>> {
    let n_shots = usize::try_from(n_shots).map_err(|_| bad("shot count exceeds usize"))?;
    let tag = if version == 1 {
        0
    } else {
        match cur.bytes(1) {
            Some(b) => b[0],
            None => return Ok(None),
        }
    };
    if tag & !(TAG_RUNS | TAG_NARROW) != 0 {
        return Err(bad("unknown shot encoding tag"));
    }
    let w = if tag & TAG_NARROW != 0 { 8 } else { 16 };
    if tag & TAG_RUNS == 0 {
        let Some(words) = cur.records(n_shots, w) else {
            return Ok(None);
        };
        let mut shots = reserve_shots(n_shots)?;
        shots.extend(words.map(|b| ShotWord(word_of(b))));
        return Ok(Some(shots));
    }
    let Some(n_runs) = cur.u64() else {
        return Ok(None);
    };
    let n_runs = usize::try_from(n_runs).map_err(|_| bad("run count exceeds usize"))?;
    let Some(pairs) = cur.records(n_runs, w + 4) else {
        return Ok(None);
    };
    let run = |pair: &[u8]| {
        let count = u32::from_le_bytes(pair[w..].try_into().expect("4 bytes"));
        (word_of(&pair[..w]), count as usize)
    };
    let mut total = 0usize;
    for (_, count) in pairs.clone().map(run) {
        if count == 0 {
            return Err(bad("zero-length run"));
        }
        total = total
            .checked_add(count)
            .ok_or_else(|| bad("run counts overflow"))?;
    }
    if total != n_shots {
        return Err(bad("run counts do not sum to the shot count"));
    }
    let mut shots = reserve_shots(n_shots)?;
    for (word, count) in pairs.map(run) {
        shots.resize(shots.len() + count, ShotWord(word));
    }
    Ok(Some(shots))
}

/// One trajectory frame; `Ok(None)` when the bytes end inside it.
fn decode_frame(cur: &mut Cursor, version: u32) -> io::Result<Option<TrajectoryRecord>> {
    let Some(mjson) = cur.u32().and_then(|mlen| cur.bytes(mlen as usize)) else {
        return Ok(None);
    };
    let Some(n_shots) = cur.u64() else {
        return Ok(None);
    };
    let meta: TrajectoryMeta = serde_json::from_slice(mjson)?;
    let shots = decode_shots(cur, version, n_shots)?;
    Ok(shots.map(|shots| TrajectoryRecord { meta, shots }))
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
/// and append) to resume. Reads version 1 and version 2 shards.
///
/// # Errors
/// `InvalidData` when even the preamble (magic/version/header) is torn
/// or wrong — there is no dataset to recover — and on corrupt (not
/// merely truncated) frames, which indicate real damage rather than an
/// interrupted write: unparseable metadata, an unknown encoding tag, a
/// zero-length run, run counts that do not sum to the frame's shot
/// count.
pub fn decode_prefix(
    data: impl AsRef<[u8]>,
) -> io::Result<(DatasetHeader, Vec<TrajectoryRecord>, usize)> {
    let buf = data.as_ref();
    let mut cur = Cursor { buf, at: 0 };
    if buf.len() < 12 {
        return Err(bad("truncated preamble: no recoverable dataset"));
    }
    if cur.bytes(4) != Some(&MAGIC[..]) {
        return Err(bad("bad magic"));
    }
    let version = cur.u32().expect("12-byte preamble");
    if !(1..=VERSION).contains(&version) {
        return Err(bad("unsupported version"));
    }
    let hlen = cur.u32().expect("12-byte preamble") as usize;
    let Some(hjson) = cur.bytes(hlen) else {
        return Err(bad("truncated dataset header: no recoverable dataset"));
    };
    let header: DatasetHeader = serde_json::from_slice(hjson)?;
    let mut records = Vec::new();
    let mut prefix_len = cur.at;
    // Each frame is parsed at a speculative cursor; `prefix_len` moves
    // only once the frame is complete.
    while let Some(record) = decode_frame(&mut cur, version)? {
        records.push(record);
        prefix_len = cur.at;
    }
    Ok((header, records, prefix_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole version-2 shot section of `shots`, as [`encode`] writes
    /// it after a frame's shot count, with runs split at `max_run`.
    fn encode_shot_section(shots: &[ShotWord], max_run: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        if let Some(w) = encode_shots_head(shots, max_run, &mut buf) {
            put_words(shots, w, &mut buf);
        }
        buf
    }

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

    /// A version-2 shard of one frame whose bytes after the metadata
    /// are `n_shots` and then `section` verbatim.
    fn shard_with(n_shots: u64, section: &[u8]) -> Vec<u8> {
        let (header, records) = sample();
        let mut bytes = encode(&header, &[]).unwrap();
        let mjson = serde_json::to_vec(&records[0].meta).unwrap();
        bytes.extend_from_slice(&(mjson.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&mjson);
        bytes.extend_from_slice(&n_shots.to_le_bytes());
        bytes.extend_from_slice(section);
        bytes
    }

    /// Tag, `n_runs`, then narrow `(word, count)` pairs.
    fn narrow_runs(n_runs: u64, pairs: &[(u64, u32)]) -> Vec<u8> {
        let mut section = vec![TAG_RUNS | TAG_NARROW];
        section.extend_from_slice(&n_runs.to_le_bytes());
        for (word, count) in pairs {
            section.extend_from_slice(&word.to_le_bytes());
            section.extend_from_slice(&count.to_le_bytes());
        }
        section
    }

    fn assert_corrupt(bytes: &[u8], why: &str) {
        for err in [
            decode(bytes).unwrap_err(),
            decode_prefix(bytes).unwrap_err(),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{why}");
            assert!(err.to_string().contains(why), "{why}: {err}");
        }
    }

    fn assert_torn(bytes: &[u8]) {
        assert_eq!(
            decode(bytes).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let (_, recovered, prefix_len) = decode_prefix(bytes).unwrap();
        assert!(recovered.is_empty());
        let (header, _) = sample();
        assert_eq!(prefix_len, encode(&header, &[]).unwrap().len());
    }

    #[test]
    fn a_few_dozen_bytes_cannot_claim_a_terabyte_of_shots() {
        // 2^40 shots from two runs: the counts cannot reach it, and the
        // reader must say so before it allocates 16 TiB.
        let max = u32::MAX;
        assert_corrupt(
            &shard_with(1 << 40, &narrow_runs(2, &[(0, max), (1, max)])),
            "do not sum",
        );
        // The same two runs under the count they do add up to are a valid
        // 8-GiB-when-expanded frame; only `try_reserve_exact` stands
        // between it and the allocator, so it is not exercised here.
    }

    #[test]
    fn run_counts_must_match_the_shot_count() {
        let ok = shard_with(5, &narrow_runs(2, &[(9, 2), (4, 3)]));
        let (_, records) = decode(&ok).unwrap();
        let words: Vec<u128> = records[0].shots.iter().map(|s| s.0).collect();
        assert_eq!(words, [9, 9, 4, 4, 4]);
        for n_shots in [4, 6, 0] {
            let bytes = shard_with(n_shots, &narrow_runs(2, &[(9, 2), (4, 3)]));
            assert_corrupt(&bytes, "do not sum");
        }
        assert_corrupt(
            &shard_with(5, &narrow_runs(3, &[(9, 2), (4, 0), (4, 3)])),
            "zero-length run",
        );
        // A total past u32 is compared whole, not truncated to 3.
        let bytes = shard_with(3, &narrow_runs(2, &[(1, u32::MAX), (1, 4)]));
        assert_corrupt(&bytes, "do not sum");
    }

    #[test]
    fn unknown_tag_bits_are_corrupt() {
        for tag in [0b100u8, 0b1000_0001, 0xff] {
            let mut section = narrow_runs(1, &[(9, 1)]);
            section[0] = tag;
            assert_corrupt(&shard_with(1, &section), "unknown shot encoding tag");
        }
    }

    #[test]
    fn short_run_sections_are_torn_tails() {
        let whole = shard_with(5, &narrow_runs(2, &[(9, 2), (4, 3)]));
        assert!(decode(&whole).is_ok());
        // Cut anywhere inside the shot section: tag, n_runs, pairs.
        for cut in 1..=1 + 8 + 24 {
            assert_torn(&whole[..whole.len() - cut]);
        }
        // A run count no buffer could hold must not overflow `n · size`.
        for n_runs in [3, u64::MAX / 12, u64::MAX] {
            assert_torn(&shard_with(5, &narrow_runs(n_runs, &[(9, 2), (4, 3)])));
        }
    }

    /// Bytes of the shot section alone.
    fn section(words: &[u128], max_run: u32) -> Vec<u8> {
        let shots: Vec<ShotWord> = words.iter().copied().map(ShotWord).collect();
        let buf = encode_shot_section(&shots, max_run);
        let mut cur = Cursor { buf: &buf, at: 0 };
        let back = decode_shots(&mut cur, VERSION, shots.len() as u64).unwrap();
        assert_eq!(back.unwrap(), shots);
        assert_eq!(cur.at, buf.len());
        buf
    }

    #[test]
    fn each_encoding_has_its_size() {
        let wide = 1u128 << 64;
        let max = u32::MAX;
        // Plain: 8 or 16 bytes a shot after the tag.
        assert_eq!(section(&[], max), [TAG_NARROW]);
        assert_eq!(section(&[1, 2, 3], max).len(), 1 + 3 * 8);
        assert_eq!(section(&[1, 2, 3], max)[0], TAG_NARROW);
        assert_eq!(section(&[1, wide, 3], max).len(), 1 + 3 * 16);
        assert_eq!(section(&[1, wide, 3], max)[0], 0);
        // Runs: 8 + 12 or 20 a run, whatever the shot count.
        assert_eq!(section(&[5; 1000], max).len(), 1 + 8 + 12);
        assert_eq!(section(&[5; 1000], max)[0], TAG_RUNS | TAG_NARROW);
        assert_eq!(section(&[wide; 1000], max).len(), 1 + 8 + 20);
        assert_eq!(section(&[wide; 1000], max)[0], TAG_RUNS);
        assert_eq!(
            section(&[0, 0, 0, 7, 7, 7, 9, 9, 9], max).len(),
            1 + 8 + 3 * 12
        );
        // Sorted records only: one descent and the repeats stay plain
        // words in shot order, however long the runs around it.
        let descends = [7, 7, 7, 0, 0, 0, 7, 7, 7];
        assert_eq!(section(&descends, max).len(), 1 + 9 * 8);
        assert_eq!(section(&descends, max)[0], TAG_NARROW);
        let mut late = vec![3u128; 1000];
        late.push(2);
        assert_eq!(section(&late, max).len(), 1 + 1001 * 8);
        late[1000] = wide;
        late[0] = wide + 1;
        assert_eq!(section(&late, max).len(), 1 + 1001 * 16);
        // The rule is strict: runs iff 8 + n_runs·(w+4) < n_shots·w.
        assert_eq!(section(&[5, 5], max), section(&[5, 5], 1)); // 20 ≮ 16
        assert_eq!(section(&[5, 5], max)[0], TAG_NARROW);
        assert_eq!(section(&[5, 5, 5], max)[0], TAG_RUNS | TAG_NARROW); // 20 < 24
        assert_eq!(section(&[wide, wide], max)[0], TAG_RUNS); // 28 < 32
        let five_runs = [1, 1, 2, 2, 3, 3, 4, 5, 5]; // 8 + 60 < 72
        assert_eq!(section(&five_runs, max)[0], TAG_RUNS | TAG_NARROW);
        let six_runs = [1, 1, 2, 2, 3, 3, 4, 5, 6]; // 8 + 72 ≮ 72
        assert_eq!(section(&six_runs, max)[0], TAG_NARROW);
    }

    #[test]
    fn a_run_past_the_count_width_is_split() {
        // With counts capped at 3, eight equal shots are runs of 3, 3, 2.
        let buf = section(&[7; 8], 3);
        assert_eq!(buf[0], TAG_RUNS | TAG_NARROW);
        assert_eq!(buf[1..9], 3u64.to_le_bytes());
        let counts: Vec<u8> = buf[9..].chunks(12).map(|pair| pair[8]).collect();
        assert_eq!(counts, [3, 3, 2]);
        // Every piece counts against the rule: capped at 1 there is
        // nothing to gain and the section is plain.
        assert_eq!(section(&[7; 8], 1).len(), 1 + 8 * 8);
    }

    #[test]
    fn version_1_shards_still_decode() {
        let (header, records) = sample();
        let mut v1 = encode(&header, &[]).unwrap();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let mjson = serde_json::to_vec(&records[0].meta).unwrap();
        v1.extend_from_slice(&(mjson.len() as u32).to_le_bytes());
        v1.extend_from_slice(&mjson);
        v1.extend_from_slice(&2u64.to_le_bytes());
        for s in &records[0].shots {
            v1.extend_from_slice(&s.0.to_le_bytes());
        }
        let (h2, r2) = decode(&v1).unwrap();
        assert_eq!(h2, header);
        assert_eq!(r2[0].shots, records[0].shots);
        // No version 3 yet.
        v1[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert!(decode(&v1).unwrap_err().to_string().contains("version"));
    }

    mod run_scan_oracle {
        //! The block-mask run scan against the word-at-a-time scan it replaced.
        //!
        //! A version-2 `PTSB` shot section is runs of equal words when the
        //! record never descends and the runs pay, plain words otherwise. The
        //! writer finds run ends 64 adjacent pairs at a time; the oracle here is
        //! the scan it replaced, one `take_while` per run, which wrote runs as it
        //! found them and gave up at the first descent or the first run too
        //! many. Both must write the same bytes: on sorted, descending, random
        //! and nearly sorted records, at every length 0–300 (so across several
        //! 64-word block boundaries), with runs split at small `max_run`s.

        use super::super::{push_word, TAG_NARROW, TAG_RUNS};
        use super::encode_shot_section;
        use crate::record::ShotWord;
        use proptest::prelude::*;

        /// The shot section as the word-at-a-time scan wrote it.
        fn oracle_section(shots: &[ShotWord], max_run: u32) -> Vec<u8> {
            let narrow = shots.iter().fold(0, |high, s| high | (s.0 >> 64)) == 0;
            let w = if narrow { 8 } else { 16 };
            let plain_bytes = shots.len() * w;
            let mut buf = vec![TAG_RUNS | (u8::from(narrow) * TAG_NARROW)];
            buf.extend_from_slice(&[0; 8]);
            let mut n_runs = 0usize;
            let mut rest = shots;
            let mut last = 0;
            let mut pays = 8 < plain_bytes;
            while pays && !rest.is_empty() {
                let word = rest[0].0;
                let len = rest
                    .iter()
                    .take(max_run as usize)
                    .take_while(|s| s.0 == word)
                    .count();
                push_word(&mut buf, word, narrow);
                buf.extend_from_slice(&(len as u32).to_le_bytes());
                rest = &rest[len..];
                n_runs += 1;
                pays = last <= word && 8 + n_runs * (w + 4) < plain_bytes;
                last = word;
            }
            if pays {
                buf[1..9].copy_from_slice(&(n_runs as u64).to_le_bytes());
                return buf;
            }
            let mut buf = vec![u8::from(narrow) * TAG_NARROW];
            for s in shots {
                push_word(&mut buf, s.0, narrow);
            }
            buf
        }

        /// A record of `len` words from `seed` in one of the shapes the writer
        /// tells apart: sorted with repeats, narrow (0) or with some words past
        /// 64 bits (1); descending (2); random (3); sorted with one descent (4);
        /// sorted at the top of the 64-bit range (5); one word throughout (6).
        fn record(shape: usize, len: usize, alphabet: u64, seed: u64) -> Vec<ShotWord> {
            let mut rng = TestRng::new(seed);
            let mut words: Vec<u128> = (0..len)
                .map(|i| {
                    let w = u128::from(rng.below(alphabet));
                    match shape {
                        1 if i % 7 == 3 => w | 1 << 64,
                        5 => u128::from(u64::MAX) - w,
                        6 => 0,
                        _ => w,
                    }
                })
                .collect();
            match shape {
                0 | 1 | 4 | 5 => words.sort_unstable(),
                2 => words.sort_unstable_by(|a, b| b.cmp(a)),
                _ => {}
            }
            if shape == 4 && len > 1 {
                let at = rng.below(len as u64 - 1) as usize;
                words[at + 1] = words[at].saturating_sub(1);
            }
            words.into_iter().map(ShotWord).collect()
        }

        const MAX_RUNS: [u32; 7] = [1, 2, 3, 5, 64, 65, u32::MAX];

        #[test]
        fn every_length_to_300_matches_the_oracle() {
            for len in 0..=300 {
                for shape in 0..7 {
                    for alphabet in [1u64, 3, 40, 1 << 20] {
                        let shots = record(shape, len, alphabet, (len * 7 + shape) as u64);
                        for max_run in MAX_RUNS {
                            assert_eq!(
                                encode_shot_section(&shots, max_run),
                                oracle_section(&shots, max_run),
                                "len {len}, shape {shape}, alphabet {alphabet}, max_run {max_run}"
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn runs_ending_on_block_boundaries_match_the_oracle() {
            // One run ending exactly at each candidate boundary, then another.
            for cut in [1usize, 63, 64, 65, 127, 128, 129, 192] {
                let mut words = vec![ShotWord(5); cut];
                words.extend(vec![ShotWord(9); 200]);
                for max_run in MAX_RUNS {
                    let got = encode_shot_section(&words, max_run);
                    assert_eq!(
                        got,
                        oracle_section(&words, max_run),
                        "cut {cut}, max_run {max_run}"
                    );
                }
                assert_eq!(
                    encode_shot_section(&words, u32::MAX)[0],
                    TAG_RUNS | TAG_NARROW
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn random_records_match_the_oracle(
                shape in 0usize..7,
                len in 0usize..2_000,
                alphabet in 1u64..5_000,
                seed in 0u64..u64::MAX,
                max_run in 0usize..7,
            ) {
                let shots = record(shape, len, alphabet, seed);
                let max_run = MAX_RUNS[max_run];
                prop_assert_eq!(encode_shot_section(&shots, max_run), oracle_section(&shots, max_run));
            }
        }
    }
}
