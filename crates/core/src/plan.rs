//! PTS plans: the output of a pre-trajectory sampling algorithm, and the
//! prefix tree ([`PtsPlanTree`]) that batched execution uses to share
//! state preparation across trajectories with common Kraus prefixes.

use ptsbe_circuit::NoisyCircuit;

/// One planned trajectory: a branch assignment plus its shot budget
/// (`m_α` in the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedTrajectory {
    /// `choices[site_id]` = Kraus branch index.
    pub choices: Vec<usize>,
    /// Number of shots to collect from this trajectory's prepared state.
    pub shots: usize,
}

/// The full pre-sampled plan handed to Batched Execution (the
/// `KrausSets, KrausShots` pair returned by the paper's Algorithm 2).
#[derive(Debug, Clone, Default)]
pub struct PtsPlan {
    /// Planned trajectories in sampling order.
    pub trajectories: Vec<PlannedTrajectory>,
}

impl PtsPlan {
    /// Number of distinct planned trajectories.
    pub fn n_trajectories(&self) -> usize {
        self.trajectories.len()
    }

    /// Total shot budget across trajectories.
    pub fn total_shots(&self) -> usize {
        self.trajectories.iter().map(|t| t.shots).sum()
    }

    /// Sum of nominal probabilities of the planned trajectories — the
    /// probability mass the plan covers (1.0 = exhaustive; exact physical
    /// coverage for unitary-mixture circuits).
    pub fn coverage(&self, nc: &NoisyCircuit) -> f64 {
        self.trajectories
            .iter()
            .map(|t| nc.assignment_probability(&t.choices))
            .sum()
    }

    /// Largest per-trajectory error count in the plan.
    pub fn max_error_weight(&self, nc: &NoisyCircuit) -> usize {
        self.trajectories
            .iter()
            .map(|t| crate::assignment::error_events(nc, &t.choices).len())
            .max()
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Trajectory prefix tree

/// One node of a [`PtsPlanTree`].
///
/// A node at depth `d` represents a partial assignment fixing the Kraus
/// branches of sites `0..d`. Leaves (depth = site count) carry the plan
/// indices of the trajectories that end there — more than one when the
/// plan contains duplicate assignments (`dedup: false` samplers).
#[derive(Debug, Clone)]
pub struct PtsTreeNode {
    /// Number of noise sites fixed on the path to this node.
    pub depth: usize,
    /// Children as `(branch, node index)`, ordered by branch.
    pub children: Vec<(usize, usize)>,
    /// Plan indices of trajectories whose full assignment ends here.
    pub leaves: Vec<usize>,
    /// A plan index of some trajectory descending through this node; its
    /// `choices[..depth]` is the node's partial assignment (all
    /// descendants share it), which lets executors borrow an assignment
    /// prefix without materializing one per node.
    pub rep: usize,
}

/// A prefix tree over a plan's trajectories.
///
/// Trajectories that agree on their first `d` Kraus branches share a
/// single path of `d` edges, so an executor walking the tree performs one
/// segment-advance per *edge* instead of one full state preparation per
/// *trajectory*: `O(edges)` site applications instead of
/// `O(trajectories × sites)`. Low-noise plans are dominated by
/// trajectories that differ only in one or two late branches, which is
/// where the sharing (reported by [`PtsPlanTree::prep_ops_saved`]) comes
/// from.
#[derive(Debug, Clone)]
pub struct PtsPlanTree {
    nodes: Vec<PtsTreeNode>,
    n_sites: usize,
    n_trajectories: usize,
}

impl PtsPlanTree {
    /// Build the prefix tree of a whole plan
    /// ([`PtsPlanTree::from_plan_range`] over `0..n`).
    ///
    /// # Panics
    /// Panics when trajectories disagree on assignment length (a plan
    /// always targets one circuit, so all assignments cover its full site
    /// list).
    pub fn from_plan(plan: &PtsPlan) -> Self {
        Self::from_plan_range(plan, 0..plan.trajectories.len())
    }

    /// Build the prefix tree of `plan.trajectories[range]` only — the
    /// sub-trie one plan-range chunk of a split tree job walks. `leaves`
    /// and `rep` keep *absolute* plan indices, so an executor indexes the
    /// whole plan, keys Philox streams and orders results exactly as it
    /// does for the whole-plan tree; the counters
    /// ([`PtsPlanTree::n_trajectories`], [`PtsPlanTree::sharing_ratio`],
    /// …) describe the range alone.
    ///
    /// Trajectories are inserted in sorted-assignment order (ties broken
    /// by plan index), which makes construction a single linear walk per
    /// trajectory with no child-search backtracking.
    ///
    /// # Panics
    /// Panics when `range` exceeds the plan, or when its trajectories
    /// disagree on assignment length.
    pub fn from_plan_range(plan: &PtsPlan, range: std::ops::Range<usize>) -> Self {
        let trajs = &plan.trajectories[range.clone()];
        let n_sites = trajs.first().map_or(0, |t| t.choices.len());
        assert!(
            trajs.iter().all(|t| t.choices.len() == n_sites),
            "all planned trajectories must assign the same site count"
        );
        let mut order: Vec<usize> = range.collect();
        order.sort_by(|&a, &b| {
            plan.trajectories[a]
                .choices
                .cmp(&plan.trajectories[b].choices)
                .then(a.cmp(&b))
        });

        let mut nodes = vec![PtsTreeNode {
            depth: 0,
            children: Vec::new(),
            leaves: Vec::new(),
            rep: order.first().copied().unwrap_or(0),
        }];
        for &idx in &order {
            let choices = &plan.trajectories[idx].choices;
            let mut at = 0usize;
            for (depth, &branch) in choices.iter().enumerate() {
                // Sorted insertion: a shared prefix is always the most
                // recently added child.
                let next = match nodes[at].children.last() {
                    Some(&(b, child)) if b == branch => child,
                    _ => {
                        let child = nodes.len();
                        nodes.push(PtsTreeNode {
                            depth: depth + 1,
                            children: Vec::new(),
                            leaves: Vec::new(),
                            rep: idx,
                        });
                        nodes[at].children.push((branch, child));
                        child
                    }
                };
                at = next;
            }
            nodes[at].leaves.push(idx);
        }
        Self {
            nodes,
            n_sites,
            n_trajectories: order.len(),
        }
    }

    /// Root node index (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// Node accessor.
    pub fn node(&self, i: usize) -> &PtsTreeNode {
        &self.nodes[i]
    }

    /// Total node count (root included).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Edge count = segment-advances a tree walk performs for the sites.
    pub fn n_edges(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Site count each trajectory assigns (tree depth).
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Number of trajectories the tree was built from.
    pub fn n_trajectories(&self) -> usize {
        self.n_trajectories
    }

    /// Site applications a flat executor performs for the same plan.
    pub fn flat_prep_ops(&self) -> usize {
        self.n_trajectories * self.n_sites
    }

    /// Site applications *saved* by prefix sharing relative to flat
    /// execution (`trajectories × sites − edges`). Zero when nothing is
    /// shared; grows toward `flat_prep_ops` as trajectories converge on a
    /// common prefix.
    pub fn prep_ops_saved(&self) -> usize {
        self.flat_prep_ops() - self.n_edges()
    }

    /// Fraction of flat-execution site applications eliminated, in
    /// `[0, 1)`. Returns 0 for empty or site-free plans.
    pub fn sharing_ratio(&self) -> f64 {
        let flat = self.flat_prep_ops();
        if flat == 0 {
            return 0.0;
        }
        self.prep_ops_saved() as f64 / flat as f64
    }

    /// Total shots across all leaves, recomputed from the plan.
    pub fn total_shots(&self, plan: &PtsPlan) -> usize {
        self.nodes
            .iter()
            .flat_map(|n| n.leaves.iter())
            .map(|&idx| plan.trajectories[idx].shots)
            .sum()
    }

    /// All leaf plan indices, in tree (sorted-assignment) order.
    pub fn leaf_plan_indices(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .flat_map(|n| n.leaves.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbe_circuit::{channels, Circuit, NoiseModel};

    fn nc() -> NoisyCircuit {
        let mut c = Circuit::new(1);
        c.h(0).measure_all();
        NoiseModel::new()
            .with_default_1q(channels::depolarizing(0.25))
            .apply(&c)
    }

    #[test]
    fn totals() {
        let plan = PtsPlan {
            trajectories: vec![
                PlannedTrajectory {
                    choices: vec![0],
                    shots: 100,
                },
                PlannedTrajectory {
                    choices: vec![1],
                    shots: 50,
                },
            ],
        };
        assert_eq!(plan.n_trajectories(), 2);
        assert_eq!(plan.total_shots(), 150);
        let nc = nc();
        // coverage = 0.75 + 0.25/3
        assert!((plan.coverage(&nc) - (0.75 + 0.25 / 3.0)).abs() < 1e-12);
        assert_eq!(plan.max_error_weight(&nc), 1);
    }

    #[test]
    fn empty_plan() {
        let plan = PtsPlan::default();
        assert_eq!(plan.total_shots(), 0);
        assert_eq!(plan.coverage(&nc()), 0.0);
        assert_eq!(plan.max_error_weight(&nc()), 0);
    }

    fn plan_of(choices: &[&[usize]]) -> PtsPlan {
        PtsPlan {
            trajectories: choices
                .iter()
                .enumerate()
                .map(|(i, c)| PlannedTrajectory {
                    choices: c.to_vec(),
                    shots: 10 * (i + 1),
                })
                .collect(),
        }
    }

    #[test]
    fn tree_merges_shared_prefixes() {
        // Three trajectories share the [0, 0] prefix; one diverges at the
        // root.
        let plan = plan_of(&[&[0, 0, 1], &[0, 0, 0], &[1, 0, 0], &[0, 0, 2]]);
        let tree = PtsPlanTree::from_plan(&plan);
        // Nodes: root + shared path 0→0 (2) + three leaves under it +
        // distinct path 1→0→0 (3) = 9.
        assert_eq!(tree.n_nodes(), 9);
        assert_eq!(tree.n_edges(), 8);
        assert_eq!(tree.flat_prep_ops(), 12);
        assert_eq!(tree.prep_ops_saved(), 4);
        assert!((tree.sharing_ratio() - 4.0 / 12.0).abs() < 1e-12);
        assert_eq!(tree.total_shots(&plan), plan.total_shots());
        // Every plan index appears exactly once among the leaves.
        let mut seen = tree.leaf_plan_indices();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn tree_keeps_duplicate_trajectories_as_separate_leaf_entries() {
        let plan = plan_of(&[&[2, 1], &[2, 1], &[2, 1]]);
        let tree = PtsPlanTree::from_plan(&plan);
        assert_eq!(tree.n_nodes(), 3); // root + 2 path nodes
        assert_eq!(tree.prep_ops_saved(), 4); // 6 flat - 2 edges
        assert_eq!(tree.leaf_plan_indices(), vec![0, 1, 2]);
        assert_eq!(tree.total_shots(&plan), 60);
    }

    #[test]
    fn tree_of_disjoint_trajectories_saves_nothing() {
        let plan = plan_of(&[&[0, 0], &[1, 1], &[2, 2]]);
        let tree = PtsPlanTree::from_plan(&plan);
        assert_eq!(tree.n_edges(), 6);
        assert_eq!(tree.prep_ops_saved(), 0);
        assert_eq!(tree.sharing_ratio(), 0.0);
    }

    #[test]
    fn tree_rep_prefixes_match_paths() {
        let plan = plan_of(&[&[0, 1, 0], &[0, 1, 1], &[0, 0, 1], &[1, 1, 1]]);
        let tree = PtsPlanTree::from_plan(&plan);
        // Walk every node and check its rep's choices prefix spells the
        // path taken from the root.
        fn check(tree: &PtsPlanTree, plan: &PtsPlan, node: usize, path: &mut Vec<usize>) {
            let n = tree.node(node);
            assert_eq!(n.depth, path.len());
            assert_eq!(
                &plan.trajectories[n.rep].choices[..n.depth],
                path.as_slice()
            );
            for &(branch, child) in &n.children {
                path.push(branch);
                check(tree, plan, child, path);
                path.pop();
            }
        }
        check(&tree, &plan, tree.root(), &mut Vec::new());
    }

    #[test]
    fn range_trie_covers_its_range_with_absolute_indices() {
        let plan = plan_of(&[&[0, 0, 1], &[0, 0, 0], &[1, 0, 0], &[0, 0, 2], &[0, 0, 1]]);
        let sub = PtsPlanTree::from_plan_range(&plan, 2..5);
        assert_eq!(sub.n_trajectories(), 3);
        assert_eq!(sub.n_sites(), 3);
        // [0,0,1] and [0,0,2] share two edges; [1,0,0] shares none.
        assert_eq!(sub.n_edges(), 7);
        assert_eq!(sub.flat_prep_ops(), 9);
        assert_eq!(sub.leaf_plan_indices(), vec![4, 3, 2]);
        assert_eq!(sub.total_shots(&plan), 30 + 40 + 50);
        for i in 0..sub.n_nodes() {
            assert!((2..5).contains(&sub.node(i).rep));
        }
        // Empty and single-trajectory ranges.
        let empty = PtsPlanTree::from_plan_range(&plan, 3..3);
        assert_eq!((empty.n_nodes(), empty.n_trajectories()), (1, 0));
        assert_eq!(empty.sharing_ratio(), 0.0);
        let one = PtsPlanTree::from_plan_range(&plan, 1..2);
        assert_eq!((one.n_edges(), one.n_trajectories()), (3, 1));
        assert_eq!(one.leaf_plan_indices(), vec![1]);
        assert_eq!(one.sharing_ratio(), 0.0);
    }

    #[test]
    fn tree_of_empty_plan() {
        let tree = PtsPlanTree::from_plan(&PtsPlan::default());
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.n_edges(), 0);
        assert_eq!(tree.prep_ops_saved(), 0);
        assert!(tree.leaf_plan_indices().is_empty());
    }
}
