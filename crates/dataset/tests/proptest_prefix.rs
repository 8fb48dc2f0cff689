//! Property tests for the valid-prefix recovery readers: a shard cut at
//! any byte offset recovers to an exact prefix of what was written (or
//! to an error), and a single flipped bit never panics a reader.

use proptest::prelude::*;
use ptsbe_core::assignment::{ErrorEvent, TrajectoryMeta};
use ptsbe_core::backend::TruncationStats;
use ptsbe_dataset::{binary, jsonl, DatasetHeader, ShotWord, TrajectoryRecord};

/// Raw draws for one record: (probability, has-truncation, Kraus
/// choices, (shot words as two u64 halves, shape of the shot vector,
/// repeats per word)).
type RawRecord = (f64, bool, Vec<usize>, (Vec<(u64, u64)>, usize, usize));

/// The shot vectors a `PTSB` version-2 writer tells apart, from the raw
/// words: as drawn (unsorted, mostly > 64 bits: plain 16-byte words), one
/// word over and over (a single run), ≤ 64-bit words sorted with repeats
/// (a bulk-sampled trajectory: runs of 8-byte words), > 64-bit words
/// sorted with repeats (runs of 16-byte words), and words repeated in
/// place (the frame engine: repeats in shot order, which stay plain).
fn shape_shots(words: &[(u64, u64)], shape: usize, reps: usize) -> Vec<ShotWord> {
    let word = |&(hi, lo): &(u64, u64)| (u128::from(hi) << 64) | u128::from(lo);
    let mut words: Vec<u128> = match shape {
        1 => vec![words.first().map_or(0, word); words.len()],
        2 => words.iter().map(|&(_, lo)| u128::from(lo >> 40)).collect(),
        _ => words.iter().map(word).collect(),
    };
    if shape == 2 || shape == 3 {
        words.sort_unstable();
    }
    let reps = if shape == 0 { 1 } else { reps };
    let repeated = words.iter().flat_map(|&w| vec![ShotWord(w); reps]);
    repeated.collect()
}

fn raw_dataset() -> impl Strategy<Value = (u64, usize, Vec<RawRecord>)> {
    let record = (
        0.0f64..1.0,
        prop::bool::ANY,
        prop::collection::vec(0usize..4, 0..5),
        (
            prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..5),
            0usize..5,
            1usize..6,
        ),
    );
    (
        0u64..u64::MAX,
        1usize..128,
        prop::collection::vec(record, 0..5),
    )
}

fn build(seed: u64, n_qubits: usize, raw: &[RawRecord]) -> (DatasetHeader, Vec<TrajectoryRecord>) {
    let header = DatasetHeader {
        workload: format!("prop \"{seed:x}\"\n"),
        n_qubits,
        n_measured: n_qubits,
        backend: "mps-f64".into(),
        seed,
    };
    let records = raw
        .iter()
        .enumerate()
        .map(
            |(traj_id, (prob, truncated, choices, (words, shape, reps)))| {
                let errors = choices
                    .iter()
                    .enumerate()
                    .filter(|(_, &k)| k != 0)
                    .map(|(site_id, &kraus_index)| ErrorEvent {
                        site_id,
                        op_index: 3 * site_id + 1,
                        qubits: vec![site_id % n_qubits],
                        kraus_index,
                        label: ["I", "X", "Y", "Z"][kraus_index].into(),
                        channel: "depolarizing".into(),
                    })
                    .collect();
                TrajectoryRecord {
                    meta: TrajectoryMeta {
                        traj_id,
                        nominal_prob: *prob,
                        realized_prob: prob * 0.5,
                        choices: choices.clone(),
                        errors,
                        truncation: truncated.then_some(TruncationStats {
                            trunc_error: prob * 1e-6,
                            max_bond_reached: 1 + traj_id,
                            budget_exhausted: false,
                        }),
                    },
                    shots: shape_shots(words, *shape, *reps),
                }
            },
        )
        .collect();
    (header, records)
}

/// `TrajectoryRecord` has no `PartialEq`; its JSON line is its identity.
fn lines(records: &[TrajectoryRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| serde_json::to_string(r).expect("record serializes"))
        .collect()
}

/// The generator's shapes reach the writer's four encodings: the frame
/// of each has that encoding's size.
#[test]
fn shapes_reach_all_four_encodings() {
    let words = [(4, 1 << 60), (3, 2 << 60), (2, 3 << 60), (1, 4 << 60)];
    let frame_len = |shape| {
        let raw = [(0.5, false, vec![], (words.to_vec(), shape, 5))];
        let (header, records) = build(1, 4, &raw);
        let empty = TrajectoryRecord {
            meta: records[0].meta.clone(),
            shots: vec![],
        };
        let base = binary::encode(&header, &[empty]).unwrap().len();
        binary::encode(&header, &records).unwrap().len() - base
    };
    assert_eq!(frame_len(0), 4 * 16, "plain, 16-byte words");
    assert_eq!(frame_len(1), 8 + 20, "one run of a 16-byte word");
    assert_eq!(frame_len(2), 8 + 4 * 12, "runs of 8-byte words");
    assert_eq!(frame_len(3), 8 + 4 * 20, "runs of 16-byte words");
    assert_eq!(frame_len(4), 20 * 16, "repeats in shot order: plain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Binary: every cut yields `Err` or an exact record prefix whose
    /// `prefix_len` is a frame boundary at or before the cut.
    #[test]
    fn binary_cut_recovers_exact_prefix((seed, n_qubits, raw) in raw_dataset()) {
        let (header, records) = build(seed, n_qubits, &raw);
        let want = lines(&records);
        let bytes = binary::encode(&header, &records).unwrap();
        // Frame boundaries: the encoding of the first k records.
        let boundary: Vec<usize> = (0..=records.len())
            .map(|k| binary::encode(&header, &records[..k]).unwrap().len())
            .collect();
        for cut in 0..=bytes.len() {
            match binary::decode_prefix(&bytes[..cut]) {
                Err(_) => prop_assert!(cut < boundary[0], "cut {cut} lost a whole preamble"),
                Ok((h, got, prefix_len)) => {
                    prop_assert_eq!(&h, &header);
                    prop_assert!(prefix_len <= cut);
                    prop_assert_eq!(prefix_len, boundary[got.len()]);
                    prop_assert!(boundary.get(got.len() + 1).is_none_or(|&next| cut < next));
                    prop_assert_eq!(&lines(&got)[..], &want[..got.len()]);
                }
            }
            // The strict reader accepts exactly the frame boundaries.
            let strict = binary::decode(&bytes[..cut]);
            prop_assert_eq!(strict.is_ok(), boundary.contains(&cut), "cut {}", cut);
        }
    }

    /// JSONL: every cut yields `Err` or an exact record prefix made of
    /// whole lines that fit inside the cut, dropping at most the tail.
    #[test]
    fn jsonl_cut_recovers_exact_prefix((seed, n_qubits, raw) in raw_dataset()) {
        let (header, records) = build(seed, n_qubits, &raw);
        let want = lines(&records);
        let mut bytes = Vec::new();
        jsonl::write(&mut bytes, &header, &records).unwrap();
        let header_len = serde_json::to_string(&header).unwrap().len() + 1;
        for cut in 0..=bytes.len() {
            match jsonl::read_recovered(&bytes[..cut]) {
                Err(_) => prop_assert!(cut < header_len, "cut {cut} lost a whole header line"),
                Ok((h, got, dropped)) => {
                    prop_assert_eq!(&h, &header);
                    prop_assert!(dropped <= 1);
                    prop_assert_eq!(&lines(&got)[..], &want[..got.len()]);
                    let prefix_len: usize =
                        header_len + want[..got.len()].iter().map(|l| l.len() + 1).sum::<usize>();
                    prop_assert!(prefix_len <= cut);
                    // Nothing recoverable was left behind.
                    prop_assert!(want.get(got.len()).is_none_or(|l| cut < prefix_len + l.len() + 1));
                }
            }
        }
    }

    /// Corruption (as opposed to truncation) may fail or mis-decode, but
    /// no reader panics and no prefix runs past the buffer.
    #[test]
    fn single_bit_flip_never_panics((seed, n_qubits, raw) in raw_dataset()) {
        let (header, records) = build(seed, n_qubits, &raw);
        let bin = binary::encode(&header, &records).unwrap();
        let mut text = Vec::new();
        jsonl::write(&mut text, &header, &records).unwrap();
        for bit in 0..bin.len() * 8 {
            let mut flipped = bin.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok((_, _, prefix_len)) = binary::decode_prefix(&flipped) {
                prop_assert!(prefix_len <= flipped.len());
            }
            let _ = binary::decode(&flipped);
        }
        for bit in 0..text.len() * 8 {
            let mut flipped = text.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok((_, got, _)) = jsonl::read_recovered(&flipped[..]) {
                prop_assert!(got.len() <= records.len());
            }
            let _ = jsonl::read(&flipped[..]);
        }
    }
}
