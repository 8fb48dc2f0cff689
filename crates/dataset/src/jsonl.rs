//! Line-delimited JSON dataset IO: header line, then one trajectory
//! record per line.

use crate::record::{hex_digits, DatasetHeader, TrajectoryRecord};
use std::io::{self, BufRead, Write};

/// Write one record line — the bytes of `serde_json::to_writer(record)`
/// plus the newline — without building the record's value tree: a bulk
/// trajectory's half-million shots would each become a heap `String`
/// there. The hex goes through a small stack buffer, so an unbuffered
/// writer sees one write per ~4 KiB, not one per shot.
pub(crate) fn write_record<W: Write>(w: &mut W, record: &TrajectoryRecord) -> io::Result<()> {
    w.write_all(b"{\"meta\":")?;
    serde_json::to_writer(&mut *w, &record.meta)?;
    w.write_all(b",\"shots\":[")?;
    let mut chunk = [0u8; 4096];
    let mut len = 0;
    let mut digits = [0u8; 32];
    for (i, shot) in record.shots.iter().enumerate() {
        // `,"` + 32 digits + `"` at most.
        if chunk.len() - len < 35 {
            w.write_all(&chunk[..len])?;
            len = 0;
        }
        let mut put = |bytes: &[u8]| {
            chunk[len..len + bytes.len()].copy_from_slice(bytes);
            len += bytes.len();
        };
        put(if i == 0 { b"\"" } else { b",\"" });
        put(hex_digits(shot.0, &mut digits));
        put(b"\"");
    }
    w.write_all(&chunk[..len])?;
    w.write_all(b"]}\n")
}

/// Write a dataset: header first, then one record per line.
///
/// # Errors
/// Propagates IO and serialization errors.
pub fn write<W: Write>(
    mut w: W,
    header: &DatasetHeader,
    records: &[TrajectoryRecord],
) -> io::Result<()> {
    serde_json::to_writer(&mut w, header)?;
    w.write_all(b"\n")?;
    for rec in records {
        write_record(&mut w, rec)?;
    }
    Ok(())
}

/// Read a dataset written by [`write()`].
///
/// # Errors
/// Propagates IO and parse errors.
pub fn read<R: BufRead>(r: R) -> io::Result<(DatasetHeader, Vec<TrajectoryRecord>)> {
    let mut lines = r.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "empty dataset"))??;
    let header: DatasetHeader = serde_json::from_str(&header_line)?;
    let mut records = Vec::new();
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        records.push(serde_json::from_str(&line)?);
    }
    Ok((header, records))
}

/// Line-complete recovery for a possibly-torn JSONL shard (the resume
/// protocol for crash-safe JSONL sinks — see [`crate::atomic`]).
///
/// A process killed mid-write leaves a byte-prefix of the stream, so at
/// most the *last* line can be torn. Recovery keeps every
/// newline-terminated, parseable record line and stops at the first
/// line that is unterminated or fails to parse. Returns the header, the
/// recovered records, and how many tail lines were discarded (0 or 1)
/// — re-emit from record `records.len()` to resume.
///
/// # Errors
/// `UnexpectedEof` when no complete header line exists (nothing to
/// recover); propagates IO errors.
pub fn read_recovered<R: BufRead>(
    mut r: R,
) -> io::Result<(DatasetHeader, Vec<TrajectoryRecord>, usize)> {
    let mut header: Option<DatasetHeader> = None;
    let mut records = Vec::new();
    let mut dropped = 0usize;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if r.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        if buf.last() != Some(&b'\n') {
            dropped = 1; // unterminated tail: the torn write
            break;
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match &header {
            None => header = Some(serde_json::from_str(line)?),
            Some(_) => match serde_json::from_str(line) {
                Ok(rec) => records.push(rec),
                Err(_) => {
                    dropped = 1; // terminated but unparseable: treat as the tear
                    break;
                }
            },
        }
    }
    let header = header.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "no complete header line: no recoverable dataset",
        )
    })?;
    Ok((header, records, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ShotWord;
    use ptsbe_core::assignment::TrajectoryMeta;

    fn sample() -> (DatasetHeader, Vec<TrajectoryRecord>) {
        let header = DatasetHeader {
            workload: "test".into(),
            n_qubits: 2,
            n_measured: 2,
            backend: "sv".into(),
            seed: 1,
        };
        let records = vec![
            TrajectoryRecord {
                meta: TrajectoryMeta {
                    truncation: None,
                    traj_id: 0,
                    nominal_prob: 0.9,
                    realized_prob: 0.9,
                    choices: vec![0],
                    errors: vec![],
                },
                shots: vec![ShotWord(0), ShotWord(3)],
            },
            TrajectoryRecord {
                meta: TrajectoryMeta {
                    truncation: None,
                    traj_id: 1,
                    nominal_prob: 0.1,
                    realized_prob: 0.1,
                    choices: vec![1],
                    errors: vec![],
                },
                shots: vec![ShotWord(1)],
            },
        ];
        (header, records)
    }

    #[test]
    fn round_trip() {
        let (header, records) = sample();
        let mut buf = Vec::new();
        write(&mut buf, &header, &records).unwrap();
        let (h2, r2) = read(io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(h2, header);
        assert_eq!(r2.len(), 2);
        assert_eq!(r2[0].shots, records[0].shots);
        assert_eq!(r2[1].meta.traj_id, 1);
    }

    #[test]
    fn streamed_record_lines_are_the_serde_lines() {
        let (_, mut records) = sample();
        records[0].shots.clear();
        // Enough shots of every width to cross the chunk buffer twice.
        records[1].shots = (0..400u32)
            .map(|i| ShotWord(u128::MAX >> (i % 128)))
            .chain([ShotWord(0)])
            .collect();
        for rec in &records {
            let mut line = Vec::new();
            write_record(&mut line, rec).unwrap();
            let want = serde_json::to_string(rec).unwrap() + "\n";
            assert_eq!(String::from_utf8(line).unwrap(), want);
        }
    }

    #[test]
    fn empty_input_rejected() {
        let err = read(io::BufReader::new(&b""[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn recovery_drops_only_the_torn_tail() {
        let (header, records) = sample();
        let mut buf = Vec::new();
        write(&mut buf, &header, &records).unwrap();
        // Tear the stream mid-way through the last record line.
        let torn = &buf[..buf.len() - 7];
        let (h2, recovered, dropped) = read_recovered(io::BufReader::new(torn)).unwrap();
        assert_eq!(h2, header);
        assert_eq!(recovered.len(), 1, "only the complete line survives");
        assert_eq!(recovered[0].meta.traj_id, 0);
        assert_eq!(dropped, 1);
        // An untorn stream recovers completely, dropping nothing.
        let (_, all, dropped) = read_recovered(io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!((all.len(), dropped), (2, 0));
        // A torn header is unrecoverable by design.
        assert!(read_recovered(io::BufReader::new(&buf[..10])).is_err());
    }

    #[test]
    fn malformed_hex_is_refused_where_it_enters() {
        let (header, records) = sample();
        let mut buf = Vec::new();
        write(&mut buf, &header, &records).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let wide = format!("\"0{:x}\"", u128::MAX); // 33 digits
        for bad in ["\"zz\"", wide.as_str()] {
            // Corrupt the second record's only shot.
            let torn = text.replace(r#""shots":["1"]"#, &format!(r#""shots":[{bad}]"#));
            assert_ne!(torn, text);
            let err = read(torn.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad}");
            let (_, recovered, dropped) = read_recovered(torn.as_bytes()).unwrap();
            assert_eq!((recovered.len(), dropped), (1, 1), "{bad}");
            assert_eq!(recovered[0].shots, records[0].shots);
        }
    }

    #[test]
    fn blank_lines_skipped() {
        let (header, records) = sample();
        let mut buf = Vec::new();
        write(&mut buf, &header, &records).unwrap();
        buf.extend_from_slice(b"\n\n");
        let (_, r2) = read(io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(r2.len(), 2);
    }
}
