//! Supervised training pairs for ML decoders.
//!
//! The paper's motivating application (§2.3): PTSBE datasets carry error
//! provenance, so each shot becomes a *labeled* example — "this
//! measurement record was produced under these injected errors" — which
//! device data cannot provide and black-box trajectory simulators did not
//! expose before this work.

use crate::record::{ShotWord, TrajectoryRecord};
use ptsbe_core::assignment::ErrorEvent;
use serde::{Deserialize, Serialize};

/// One supervised example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecoderExample {
    /// Measurement record (a hex string in JSON).
    pub shot: ShotWord,
    /// Ground-truth injected errors (the training label).
    pub errors: Vec<ErrorEvent>,
    /// Joint probability of the error pattern (sample weight).
    pub weight: f64,
}

/// Flatten trajectory records into per-shot supervised examples.
pub fn export_examples(records: &[TrajectoryRecord]) -> Vec<DecoderExample> {
    let mut out = Vec::new();
    for rec in records {
        for shot in &rec.shots {
            out.push(DecoderExample {
                shot: *shot,
                errors: rec.meta.errors.clone(),
                weight: rec.meta.realized_prob,
            });
        }
    }
    out
}

/// Per-shot feature extraction helper: parity of the record over a set of
/// bit positions (syndrome bits for CSS codes).
pub fn parity_feature(shot: u128, positions: &[usize]) -> bool {
    positions
        .iter()
        .fold(false, |acc, &p| acc ^ ((shot >> p) & 1 == 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_core::assignment::TrajectoryMeta;

    #[test]
    fn export_flattens_shots() {
        let rec = TrajectoryRecord {
            meta: TrajectoryMeta {
                truncation: None,
                traj_id: 0,
                nominal_prob: 0.25,
                realized_prob: 0.25,
                choices: vec![1],
                errors: vec![ErrorEvent {
                    site_id: 0,
                    op_index: 0,
                    qubits: vec![0],
                    kraus_index: 1,
                    label: "X".into(),
                    channel: "bit_flip".into(),
                }],
            },
            shots: vec![ShotWord(1), ShotWord(3)],
        };
        let examples = export_examples(&[rec]);
        assert_eq!(examples.len(), 2);
        assert_eq!(examples[0].errors.len(), 1);
        assert_eq!(examples[0].errors[0].label, "X");
        assert!((examples[1].weight - 0.25).abs() < 1e-12);
    }

    #[test]
    fn parity_features() {
        assert!(!parity_feature(0b1010, &[0, 2]));
        assert!(parity_feature(0b1010, &[1, 2]));
        assert!(parity_feature(0b1010, &[3]));
        assert!(!parity_feature(0b1010, &[]));
    }
}
