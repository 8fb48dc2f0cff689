//! Format pin: literal `PTSB` bytes and JSONL text for one fixed dataset.
//! The other byte-identity tests compare a writer against a writer, so a
//! symmetric change to both would pass them; this one holds the bytes
//! themselves. The version-1 literal (captured before shots became native
//! words) is what old shards look like and must stay readable; the
//! version-2 literal is what the writers produce now, one record per
//! shot encoding.

use ptsbe_core::assignment::{ErrorEvent, TrajectoryMeta};
use ptsbe_core::backend::TruncationStats;
use ptsbe_dataset::{
    binary, jsonl, BinarySink, DatasetHeader, JsonlSink, RecordSink, ShotWord, TrajectoryRecord,
};

const GOLDEN_PTSB_V1: &[u8] = b"PTSB\x01\x00\x00\x00P\x00\x00\x00\
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

/// Version 2, one record per shot encoding: plain 16-byte words (tag 0),
/// the empty record (tag 2, nothing after it), plain 8-byte words (tag
/// 2), runs of 8-byte words (tag 3), runs of 16-byte words (tag 1). The
/// plain 8-byte record has a repeat-free descent, the run records ascend:
/// the writer stores runs for sorted records only.
const GOLDEN_PTSB: &[u8] = b"PTSB\x02\x00\x00\x00P\x00\x00\x00\
{\"workload\":\"golden\",\"n_qubits\":85,\"n_measured\":85,\"backend\":\"mps-f64\",\"seed\":7}\
\xff\x00\x00\x00\
{\"traj_id\":0,\"nominal_prob\":0.75,\"realized_prob\":0.5,\"choices\":[0,2],\
\"errors\":[{\"site_id\":1,\"op_index\":4,\"qubits\":[3],\"kraus_index\":2,\"label\":\"Y\",\"channel\":\"depolarizing\"}],\
\"truncation\":{\"trunc_error\":0.125,\"max_bond_reached\":64,\"budget_exhausted\":false}}\
\x03\x00\x00\x00\x00\x00\x00\x00\
\x00\
\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
\x1f\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\
d\x00\x00\x00\
{\"traj_id\":1,\"nominal_prob\":0.25,\"realized_prob\":0.25,\"choices\":[0,0],\"errors\":[],\"truncation\":null}\
\x00\x00\x00\x00\x00\x00\x00\x00\
\x02\
d\x00\x00\x00\
{\"traj_id\":2,\"nominal_prob\":0.25,\"realized_prob\":0.25,\"choices\":[0,0],\"errors\":[],\"truncation\":null}\
\x03\x00\x00\x00\x00\x00\x00\x00\
\x02\
\x03\x00\x00\x00\x00\x00\x00\x00\
\x01\x00\x00\x00\x00\x00\x00\x00\
\x02\x00\x00\x00\x00\x00\x00\x00\
d\x00\x00\x00\
{\"traj_id\":3,\"nominal_prob\":0.25,\"realized_prob\":0.25,\"choices\":[0,0],\"errors\":[],\"truncation\":null}\
\x05\x00\x00\x00\x00\x00\x00\x00\
\x03\
\x02\x00\x00\x00\x00\x00\x00\x00\
\x05\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\
\x09\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\
d\x00\x00\x00\
{\"traj_id\":4,\"nominal_prob\":0.25,\"realized_prob\":0.25,\"choices\":[0,0],\"errors\":[],\"truncation\":null}\
\x04\x00\x00\x00\x00\x00\x00\x00\
\x01\
\x02\x00\x00\x00\x00\x00\x00\x00\
\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\
\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x03\x00\x00\x00";

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

/// [`dataset`] plus one record for each encoding it does not reach.
fn dataset_v2() -> (DatasetHeader, Vec<TrajectoryRecord>) {
    let (header, mut records) = dataset();
    let wide = 1u128 << 64;
    for shots in [
        vec![3, 1, 2],
        vec![5, 5, 5, 5, 9],
        vec![wide, u128::MAX, u128::MAX, u128::MAX],
    ] {
        records.push(TrajectoryRecord {
            meta: TrajectoryMeta {
                traj_id: records.len(),
                ..records[1].meta.clone()
            },
            shots: shots.into_iter().map(ShotWord).collect(),
        });
    }
    (header, records)
}

fn streamed<S: RecordSink>(
    mut sink: S,
    (header, records): (DatasetHeader, Vec<TrajectoryRecord>),
    into_bytes: impl FnOnce(S) -> Vec<u8>,
) -> Vec<u8> {
    sink.begin(&header).unwrap();
    for r in &records {
        sink.write(r).unwrap();
    }
    sink.finish().unwrap();
    into_bytes(sink)
}

/// `TrajectoryRecord` has no `PartialEq`: compare the parts a reader fills.
fn assert_is(
    (want_header, want): (DatasetHeader, Vec<TrajectoryRecord>),
    header: &DatasetHeader,
    records: &[TrajectoryRecord],
) {
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
    let (header, records) = dataset_v2();
    assert_eq!(binary::encode(&header, &records).unwrap(), GOLDEN_PTSB);
    let sunk = streamed(
        BinarySink::new(Vec::new()),
        dataset_v2(),
        BinarySink::into_inner,
    );
    assert_eq!(sunk, GOLDEN_PTSB);
}

#[test]
fn jsonl_writers_produce_the_golden_text() {
    let (header, records) = dataset();
    let mut text = Vec::new();
    jsonl::write(&mut text, &header, &records).unwrap();
    assert_eq!(String::from_utf8(text).unwrap(), GOLDEN_JSONL);
    let sunk = streamed(JsonlSink::new(Vec::new()), dataset(), JsonlSink::into_inner);
    assert_eq!(String::from_utf8(sunk).unwrap(), GOLDEN_JSONL);
}

#[test]
fn readers_accept_the_golden_bytes() {
    for (bytes, want) in [
        (GOLDEN_PTSB_V1, dataset as fn() -> _),
        (GOLDEN_PTSB, dataset_v2),
    ] {
        let (header, records) = binary::decode(bytes).unwrap();
        assert_is(want(), &header, &records);
        let (header, records, prefix_len) = binary::decode_prefix(bytes).unwrap();
        assert_is(want(), &header, &records);
        assert_eq!(prefix_len, bytes.len());
    }
    let (header, records) = jsonl::read(GOLDEN_JSONL.as_bytes()).unwrap();
    assert_is(dataset(), &header, &records);
}
