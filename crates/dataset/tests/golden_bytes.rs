//! Format pin: literal `PTSB` bytes and JSONL text for one fixed dataset,
//! captured before shots became native words. The other byte-identity
//! tests compare a writer against a writer, so a symmetric change to both
//! would pass them; this one holds the bytes themselves.

use ptsbe_core::assignment::{ErrorEvent, TrajectoryMeta};
use ptsbe_core::backend::TruncationStats;
use ptsbe_dataset::{
    binary, jsonl, BinarySink, DatasetHeader, JsonlSink, RecordSink, ShotWord, TrajectoryRecord,
};

const GOLDEN_PTSB: &[u8] = b"PTSB\x01\x00\x00\x00P\x00\x00\x00\
{\"workload\":\"golden\",\"n_qubits\":85,\"n_measured\":85,\"backend\":\"mps-f64\",\"seed\":7}\
\xff\x00\x00\x00\
{\"traj_id\":0,\"nominal_prob\":0.75,\"realized_prob\":0.5,\"choices\":[0,2],\
\"errors\":[{\"site_id\":1,\"op_index\":4,\"qubits\":[3],\"kraus_index\":2,\"label\":\"Y\",\"channel\":\"depolarizing\"}],\
\"truncation\":{\"trunc_error\":0.125,\"max_bond_reached\":64,\"budget_exhausted\":false}}\
\x03\x00\x00\x00\x00\x00\x00\x00\
\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
\x1f\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\
d\x00\x00\x00\
{\"traj_id\":1,\"nominal_prob\":0.25,\"realized_prob\":0.25,\"choices\":[0,0],\"errors\":[],\"truncation\":null}\
\x00\x00\x00\x00\x00\x00\x00\x00";

const GOLDEN_JSONL: &str = concat!(
    r#"{"workload":"golden","n_qubits":85,"n_measured":85,"backend":"mps-f64","seed":7}"#,
    "\n",
    r#"{"meta":{"traj_id":0,"nominal_prob":0.75,"realized_prob":0.5,"choices":[0,2],"#,
    r#""errors":[{"site_id":1,"op_index":4,"qubits":[3],"kraus_index":2,"label":"Y","channel":"depolarizing"}],"#,
    r#""truncation":{"trunc_error":0.125,"max_bond_reached":64,"budget_exhausted":false}},"#,
    r#""shots":["0","1f","ffffffffffffffffffffffffffffffff"]}"#,
    "\n",
    r#"{"meta":{"traj_id":1,"nominal_prob":0.25,"realized_prob":0.25,"choices":[0,0],"errors":[],"truncation":null},"shots":[]}"#,
    "\n",
);

fn dataset() -> (DatasetHeader, Vec<TrajectoryRecord>) {
    let header = DatasetHeader {
        workload: "golden".into(),
        n_qubits: 85,
        n_measured: 85,
        backend: "mps-f64".into(),
        seed: 7,
    };
    let records = vec![
        TrajectoryRecord {
            meta: TrajectoryMeta {
                traj_id: 0,
                nominal_prob: 0.75,
                realized_prob: 0.5,
                choices: vec![0, 2],
                errors: vec![ErrorEvent {
                    site_id: 1,
                    op_index: 4,
                    qubits: vec![3],
                    kraus_index: 2,
                    label: "Y".into(),
                    channel: "depolarizing".into(),
                }],
                truncation: Some(TruncationStats {
                    trunc_error: 0.125,
                    max_bond_reached: 64,
                    budget_exhausted: false,
                }),
            },
            shots: vec![ShotWord(0), ShotWord(0x1f), ShotWord(u128::MAX)],
        },
        TrajectoryRecord {
            meta: TrajectoryMeta {
                traj_id: 1,
                nominal_prob: 0.25,
                realized_prob: 0.25,
                choices: vec![0, 0],
                errors: vec![],
                truncation: None,
            },
            shots: vec![],
        },
    ];
    (header, records)
}

fn streamed<S: RecordSink>(mut sink: S, into_bytes: impl FnOnce(S) -> Vec<u8>) -> Vec<u8> {
    let (header, records) = dataset();
    sink.begin(&header).unwrap();
    for r in &records {
        sink.write(r).unwrap();
    }
    sink.finish().unwrap();
    into_bytes(sink)
}

/// `TrajectoryRecord` has no `PartialEq`: compare the parts a reader fills.
fn assert_is_the_dataset(header: &DatasetHeader, records: &[TrajectoryRecord]) {
    let (want_header, want) = dataset();
    assert_eq!(header, &want_header);
    assert_eq!(records.len(), want.len());
    for (got, want) in records.iter().zip(&want) {
        assert_eq!(got.shots, want.shots);
        assert_eq!(got.meta.traj_id, want.meta.traj_id);
        assert_eq!(got.meta.choices, want.meta.choices);
        assert_eq!(got.meta.errors, want.meta.errors);
        assert_eq!(got.meta.realized_prob, want.meta.realized_prob);
        assert_eq!(got.meta.truncation, want.meta.truncation);
    }
}

#[test]
fn binary_writers_produce_the_golden_bytes() {
    let (header, records) = dataset();
    assert_eq!(binary::encode(&header, &records).unwrap(), GOLDEN_PTSB);
    let sunk = streamed(BinarySink::new(Vec::new()), BinarySink::into_inner);
    assert_eq!(sunk, GOLDEN_PTSB);
}

#[test]
fn jsonl_writers_produce_the_golden_text() {
    let (header, records) = dataset();
    let mut text = Vec::new();
    jsonl::write(&mut text, &header, &records).unwrap();
    assert_eq!(String::from_utf8(text).unwrap(), GOLDEN_JSONL);
    let sunk = streamed(JsonlSink::new(Vec::new()), JsonlSink::into_inner);
    assert_eq!(String::from_utf8(sunk).unwrap(), GOLDEN_JSONL);
}

#[test]
fn readers_accept_the_golden_bytes() {
    let (header, records) = binary::decode(GOLDEN_PTSB).unwrap();
    assert_is_the_dataset(&header, &records);
    let (header, records, prefix_len) = binary::decode_prefix(GOLDEN_PTSB).unwrap();
    assert_is_the_dataset(&header, &records);
    assert_eq!(prefix_len, GOLDEN_PTSB.len());
    let (header, records) = jsonl::read(GOLDEN_JSONL.as_bytes()).unwrap();
    assert_is_the_dataset(&header, &records);
}
