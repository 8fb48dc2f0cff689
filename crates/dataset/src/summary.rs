//! Corpus-level statistics.

use crate::record::{ShotWord, TrajectoryRecord};
use std::collections::HashSet;

/// Aggregate statistics over a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    /// Trajectory count.
    pub n_trajectories: usize,
    /// Total shots.
    pub n_shots: usize,
    /// Distinct shot values / total shots (Fig. 4, right axis).
    pub unique_fraction: f64,
    /// Histogram of per-trajectory error weights (index = weight).
    pub weight_census: Vec<usize>,
    /// Sum of nominal trajectory probabilities (plan coverage).
    pub coverage: f64,
}

/// Summarize a record set.
pub fn summarize(records: &[TrajectoryRecord]) -> DatasetSummary {
    let mut unique: HashSet<ShotWord> = HashSet::new();
    let mut n_shots = 0usize;
    let mut weight_census: Vec<usize> = Vec::new();
    let mut coverage = 0.0f64;
    for rec in records {
        let w = rec.meta.errors.len();
        if weight_census.len() <= w {
            weight_census.resize(w + 1, 0);
        }
        weight_census[w] += 1;
        coverage += rec.meta.nominal_prob;
        n_shots += rec.shots.len();
        unique.extend(&rec.shots);
    }
    DatasetSummary {
        n_trajectories: records.len(),
        n_shots,
        unique_fraction: if n_shots == 0 {
            0.0
        } else {
            unique.len() as f64 / n_shots as f64
        },
        weight_census,
        coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_core::assignment::{ErrorEvent, TrajectoryMeta};

    fn rec(weight: usize, prob: f64, shots: &[u128]) -> TrajectoryRecord {
        TrajectoryRecord {
            meta: TrajectoryMeta {
                truncation: None,
                traj_id: 0,
                nominal_prob: prob,
                realized_prob: prob,
                choices: vec![],
                errors: (0..weight)
                    .map(|i| ErrorEvent {
                        site_id: i,
                        op_index: i,
                        qubits: vec![i],
                        kraus_index: 1,
                        label: "X".into(),
                        channel: "bit_flip".into(),
                    })
                    .collect(),
            },
            shots: ShotWord::wrap(shots.to_vec()),
        }
    }

    #[test]
    fn summary_counts() {
        let records = vec![
            rec(0, 0.8, &[0, 0, 1]),
            rec(2, 0.05, &[1, 2]),
            rec(0, 0.1, &[3]),
        ];
        let s = summarize(&records);
        assert_eq!(s.n_trajectories, 3);
        assert_eq!(s.n_shots, 6);
        // Distinct shots {0,1,2,3} / 6.
        assert!((s.unique_fraction - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.weight_census, vec![2, 0, 1]);
        assert!((s.coverage - 0.95).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset() {
        let s = summarize(&[]);
        assert_eq!(s.n_shots, 0);
        assert_eq!(s.unique_fraction, 0.0);
        assert!(s.weight_census.is_empty());
    }
}
