//! Serializable dataset records.

use ptsbe_core::assignment::TrajectoryMeta;
use ptsbe_core::be::{BatchResult, TrajectoryResult};
use serde::{Deserialize, Serialize};

/// Two lowercase-hex digits per byte value, precomputed so shot
/// encoding never routes through the `core::fmt` machinery (PR 9
/// measured `format!("{:x}")` at roughly a third of the warm sv-tree
/// sink wall).
static HEX_PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut t = [[0u8; 2]; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = [DIGITS[i >> 4], DIGITS[i & 0xf]];
        i += 1;
    }
    t
};

/// Append the lowercase-hex form of `v` to `buf` — no leading zeros,
/// `"0"` for zero: byte-identical to `format!("{v:x}")`, several times
/// faster. Callers encoding many shots reuse one growing `String`.
pub fn push_hex_u128(buf: &mut String, v: u128) {
    let mut tmp = [0u8; 32];
    buf.push_str(core::str::from_utf8(hex_digits(v, &mut tmp)).expect("hex digits are ascii"));
}

/// The digits [`push_hex_u128`] appends, written into `tmp`.
pub(crate) fn hex_digits(v: u128, tmp: &mut [u8; 32]) -> &[u8] {
    for (i, b) in v.to_be_bytes().iter().enumerate() {
        [tmp[2 * i], tmp[2 * i + 1]] = HEX_PAIRS[*b as usize];
    }
    // Number of leading zero nibbles; keep at least one digit.
    let skip = (v.leading_zeros() as usize / 4).min(31);
    &tmp[skip..]
}

/// One shot as an owned lowercase-hex string (see [`push_hex_u128`]).
pub fn hex_u128(v: u128) -> String {
    let mut buf = String::with_capacity(32);
    push_hex_u128(&mut buf, v);
    buf
}

/// One measurement record: bit `t` = measured qubit `t`.
///
/// A shot is a `u128` in memory and in `PTSB` frames, and a lowercase-hex
/// string only in JSON text (so plain JSON tooling needs no 128-bit
/// number support). The serde and `FromStr` impls below are the only
/// place that hex is produced or parsed.
#[repr(transparent)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShotWord(pub u128);

impl ShotWord {
    /// Retype an executor's shot buffer without copying it: the in-place
    /// `collect` reuses the allocation (bulk jobs hold 10⁵–10⁶ shots per
    /// trajectory, so a copy here doubles the job's footprint).
    pub fn wrap(shots: Vec<u128>) -> Vec<ShotWord> {
        shots.into_iter().map(ShotWord).collect()
    }

    /// [`ShotWord::wrap`] undone, in place: a written record's buffer
    /// goes back to the sampler that filled it as the same allocation.
    pub fn unwrap(shots: Vec<ShotWord>) -> Vec<u128> {
        shots.into_iter().map(|s| s.0).collect()
    }
}

impl Serialize for ShotWord {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(hex_u128(self.0))
    }
}

impl Deserialize for ShotWord {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::String(s) => s.parse(),
            _ => Err(serde::Error::msg("expected a hex shot string")),
        }
    }
}

impl std::str::FromStr for ShotWord {
    type Err = serde::Error;

    /// 1–32 hex digits, nothing else (`from_str_radix` alone would also
    /// take a sign and any number of leading zeros).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() || s.len() > 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(serde::Error::msg(format!("malformed hex shot {s:?}")));
        }
        let word = u128::from_str_radix(s, 16).expect("1-32 hex digits fit a u128");
        Ok(ShotWord(word))
    }
}

// Named by perf/sink.rs (`vec!["3".into(), …]`); goes with benchmark v2.
impl From<&str> for ShotWord {
    fn from(s: &str) -> Self {
        s.parse().expect("shot literal is hex")
    }
}

/// Named by perf/traced.rs; goes with benchmark v2.
pub fn hex_shots(shots: &[u128]) -> Vec<ShotWord> {
    ShotWord::wrap(shots.to_vec())
}

/// Corpus-level metadata written once per dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetHeader {
    /// Human-readable workload name.
    pub workload: String,
    /// Physical qubit count of the circuit.
    pub n_qubits: usize,
    /// Measured bits per shot record.
    pub n_measured: usize,
    /// Backend identifier ("statevector-f32", "mps-f64", …).
    pub backend: String,
    /// Run seed (full reproducibility with the Philox streams).
    pub seed: u64,
}

/// One trajectory's provenance and shots.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrajectoryRecord {
    /// Provenance metadata.
    pub meta: TrajectoryMeta,
    /// Measurement records (hex strings in JSON, see [`ShotWord`]).
    pub shots: Vec<ShotWord>,
}

impl TrajectoryRecord {
    /// Named by perf/sink.rs and perf/check.rs; goes with benchmark v2.
    /// Cannot fail: read `shots` instead.
    pub fn decode_shots(&self) -> Result<Vec<u128>, std::convert::Infallible> {
        Ok(self.shots.iter().map(|w| w.0).collect())
    }
}

/// Convert an executed trajectory, taking over its shot buffer.
impl From<TrajectoryResult> for TrajectoryRecord {
    fn from(t: TrajectoryResult) -> Self {
        Self {
            meta: t.meta,
            shots: ShotWord::wrap(t.shots),
        }
    }
}

/// Convert a whole batch, copying its shots; a caller that is done with
/// the batch converts each trajectory with `TrajectoryRecord::from`.
pub fn records_from_batch(batch: &BatchResult) -> Vec<TrajectoryRecord> {
    batch
        .trajectories
        .iter()
        .cloned()
        .map(TrajectoryRecord::from)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> TrajectoryRecord {
        TrajectoryRecord {
            meta: TrajectoryMeta {
                truncation: None,
                traj_id: 1,
                nominal_prob: 0.5,
                realized_prob: 0.5,
                choices: vec![0, 1],
                errors: vec![],
            },
            shots: vec![ShotWord(u128::MAX), ShotWord(0), ShotWord(0x1f)],
        }
    }

    #[test]
    fn wrap_and_unwrap_keep_the_allocation() {
        let mut shots = Vec::with_capacity(1 << 16);
        shots.extend(0..1000u128);
        let (ptr, cap) = (shots.as_ptr() as usize, shots.capacity());
        let wrapped = ShotWord::wrap(shots);
        assert_eq!(wrapped.as_ptr() as usize, ptr);
        assert_eq!((wrapped.len(), wrapped.capacity()), (1000, cap));
        assert_eq!(wrapped[999], ShotWord(999));
        let back = ShotWord::unwrap(wrapped);
        assert_eq!(back.as_ptr() as usize, ptr);
        assert_eq!((back.len(), back.capacity()), (1000, cap));
        assert_eq!(back[999], 999);
    }

    #[test]
    fn hex_round_trip() {
        let json = serde_json::to_string(&sample_record().shots).unwrap();
        assert_eq!(json, format!(r#"["{:x}","0","1f"]"#, u128::MAX));
        let back: Vec<ShotWord> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sample_record().shots);
        // Uppercase digits and leading zeros (up to 32 digits) parse too.
        assert_eq!("001F".parse::<ShotWord>().unwrap(), ShotWord(0x1f));
    }

    #[test]
    fn lut_encoder_matches_format_byte_for_byte() {
        let mut probes = vec![
            0u128,
            1,
            0xf,
            0x10,
            0x1f,
            0xdeadbeef,
            u128::from(u64::MAX),
            u128::from(u64::MAX) + 1,
            u128::MAX,
            u128::MAX - 1,
        ];
        // Every nibble-boundary magnitude.
        for shift in 0..32 {
            probes.push(1u128 << (4 * shift));
            probes.push((1u128 << (4 * shift)).wrapping_sub(1));
        }
        // A pseudo-random sweep (xorshift-ish, no RNG dep needed).
        let mut x = 0x9e3779b97f4a7c15u128;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            probes.push(x);
        }
        for v in probes {
            assert_eq!(hex_u128(v), format!("{v:x}"), "value {v:#x}");
        }
    }

    #[test]
    fn push_hex_reuses_buffer() {
        let mut buf = String::new();
        push_hex_u128(&mut buf, 0xab);
        push_hex_u128(&mut buf, 0xcd);
        assert_eq!(buf, "abcd");
    }

    #[test]
    fn bad_hex_refused_at_deserialize() {
        let wide = format!("\"0{:x}\"", u128::MAX); // 33 digits
        for text in [
            "\"zz\"", "\"\"", "\"+1f\"", "\"-1\"", "\"0x1f\"", "31", &wide,
        ] {
            let err = serde_json::from_str::<ShotWord>(text).unwrap_err();
            assert!(err.to_string().contains("hex shot"), "{text}: {err}");
        }
        let record = r#"{"meta":{"traj_id":1,"nominal_prob":0.5,"realized_prob":0.5,"choices":[0,1],"errors":[],"truncation":null},"shots":["0","zz"]}"#;
        assert!(serde_json::from_str::<TrajectoryRecord>(record).is_err());
        assert!(serde_json::from_str::<TrajectoryRecord>(&record.replace("zz", "1f")).is_ok());
    }

    #[test]
    fn serde_round_trip() {
        let rec = sample_record();
        let json = serde_json::to_string(&rec).unwrap();
        let back: TrajectoryRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shots, rec.shots);
        assert_eq!(back.meta.choices, rec.meta.choices);
    }

    #[test]
    fn header_serde() {
        let h = DatasetHeader {
            workload: "msd-35q".into(),
            n_qubits: 35,
            n_measured: 35,
            backend: "statevector-f32".into(),
            seed: 7,
        };
        let json = serde_json::to_string(&h).unwrap();
        assert_eq!(serde_json::from_str::<DatasetHeader>(&json).unwrap(), h);
    }
}
