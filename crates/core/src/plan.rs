//! PTS plans: the output of a pre-trajectory sampling algorithm, and the
//! prefix tree ([`PtsPlanTree`]) that batched execution uses to share
//! state preparation across trajectories with common Kraus prefixes.

use ptsbe_circuit::NoisyCircuit;
use std::ops::Range;

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
    /// Per node, the position in its `children` of the child with the
    /// most leaf nodes beneath it ([`PtsPlanTree::heaviest_child`]).
    heaviest: Vec<usize>,
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
    /// contiguous case of [`PtsPlanTree::from_plan_indices`], and the
    /// sub-trie one plan-range chunk of a split dense tree job walks.
    ///
    /// # Panics
    /// Panics when `range` exceeds the plan, or when its trajectories
    /// disagree on assignment length.
    pub fn from_plan_range(plan: &PtsPlan, range: Range<usize>) -> Self {
        Self::from_plan_indices(plan, &range.collect::<Vec<_>>())
    }

    /// Build the prefix tree of the trajectories at `indices` (distinct
    /// plan indices, in any order) — the sub-trie one chunk of a split
    /// tree job walks. `leaves` and `rep` keep *absolute* plan indices,
    /// so an executor indexes the whole plan, keys Philox streams and
    /// orders results exactly as it does for the whole-plan tree; the
    /// counters ([`PtsPlanTree::n_trajectories`],
    /// [`PtsPlanTree::sharing_ratio`], …) describe the subset alone.
    ///
    /// Trajectories are inserted in sorted-assignment order (ties broken
    /// by plan index), which makes construction a single linear walk per
    /// trajectory with no child-search backtracking — and stores the
    /// nodes in depth-first preorder, children by branch, which is what
    /// [`PtsPlanTree::leaf_plan_indices`] and the leaf cutters read.
    ///
    /// # Panics
    /// Panics when an index exceeds the plan, or when the trajectories
    /// disagree on assignment length.
    pub fn from_plan_indices(plan: &PtsPlan, indices: &[usize]) -> Self {
        let n_sites = indices
            .first()
            .map_or(0, |&i| plan.trajectories[i].choices.len());
        assert!(
            indices
                .iter()
                .all(|&i| plan.trajectories[i].choices.len() == n_sites),
            "all planned trajectories must assign the same site count"
        );
        let mut order = indices.to_vec();
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
        // Leaf nodes under each node: children come after their parent
        // in preorder, so one backward pass sees every child first.
        let mut weight = vec![0usize; nodes.len()];
        for i in (0..nodes.len()).rev() {
            weight[i] = match nodes[i].children.as_slice() {
                [] => 1,
                children => children.iter().map(|&(_, c)| weight[c]).sum(),
            };
        }
        let heaviest = nodes
            .iter()
            .map(|n| {
                let by_weight = (0..n.children.len()).max_by_key(|&i| weight[n.children[i].1]);
                by_weight.unwrap_or(0)
            })
            .collect();
        Self {
            nodes,
            heaviest,
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

    /// Position in `node(i).children` of the child with the most leaf
    /// nodes beneath it (the last such on a tie; 0 for a leaf). A walk
    /// that visits it last, handing it the parent's state, only ever
    /// holds a parent's state across a child with at most half the
    /// parent's leaves, so it keeps at most ⌊log₂ leaf nodes⌋ + 1 states
    /// live.
    pub(crate) fn heaviest_child(&self, i: usize) -> usize {
        self.heaviest[i]
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

    /// All leaf plan indices, in tree (sorted-assignment) order: leaf by
    /// leaf in depth-first order, duplicates of one assignment adjacent.
    /// The list the leaf cutters' [`LeafChunk::range`]s index.
    pub fn leaf_plan_indices(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .flat_map(|n| n.leaves.iter().copied())
            .collect()
    }

    /// Cut the tree *between leaves* into at most `k` chunks of balanced
    /// cost (`edges + shot_weight · shots`, [`LeafChunk::cost`]): chunk
    /// `j` closes at the leaf boundary nearest `j/k` of the whole walk's
    /// cost. A chunk is a run of whole leaves in trie order, so the
    /// trajectories of one leaf always stay together (they share one
    /// prepared state and one batched sampling call), and neighbouring
    /// chunks share only the path above their lowest common ancestor: a
    /// cut between two root children repeats nothing. A cut that would
    /// push the re-walked prefixes past a quarter of the whole trie's
    /// edges is refused and the next boundary tried, so
    /// `Σ chunk.edges ≤ 5/4 · n_edges()`; when that leaves fewer than
    /// `k` chunks the cut is redone for `k − 1`, so what the budget
    /// affords is spent on balanced cuts rather than on the first ones.
    ///
    /// Returns no chunk for an empty tree, one for `k ≤ 1`.
    pub fn leaf_chunks(&self, plan: &PtsPlan, k: usize, shot_weight: f64) -> Vec<LeafChunk> {
        let spans = self.leaf_spans(plan);
        let cost = |s: &LeafSpan| s.fresh as f64 + shot_weight * s.shots as f64;
        let total: f64 = spans.iter().map(cost).sum();
        let place = |k: usize| {
            let mut repeat_budget = self.n_edges() / LEAF_REPEAT_BUDGET_DIV;
            let mut starts = vec![0];
            let mut before = 0.0;
            for l in 1..spans.len() {
                if starts.len() == k {
                    break;
                }
                before += cost(&spans[l - 1]);
                let target = total * starts.len() as f64 / k as f64;
                // This boundary is the nearest one to the target when it
                // has reached it, or when the next leaf overshoots it by
                // more.
                let nearest =
                    before >= target || target - before <= before + cost(&spans[l]) - target;
                let repeated = self.n_sites - spans[l].fresh;
                if nearest && repeated <= repeat_budget {
                    repeat_budget -= repeated;
                    starts.push(l);
                }
            }
            starts
        };
        let mut k = k.clamp(1, spans.len().max(1));
        let starts = loop {
            let starts = place(k);
            if starts.len() == k {
                break starts;
            }
            k -= 1;
        };
        Self::assemble(self.n_sites, &spans, &starts)
    }

    /// Cut the tree between leaves into chunks of at least
    /// `min_trajectories` trajectories each, closed at the next leaf
    /// boundary (the last chunk takes what is left). No balance and no
    /// repeat budget: this is the caller-forced geometry.
    pub fn leaf_chunks_of_at_least(
        &self,
        plan: &PtsPlan,
        min_trajectories: usize,
    ) -> Vec<LeafChunk> {
        let spans = self.leaf_spans(plan);
        let mut starts = vec![0];
        let mut open = 0;
        for (l, span) in spans.iter().enumerate() {
            if open >= min_trajectories.max(1) {
                starts.push(l);
                open = 0;
            }
            open += span.trajs;
        }
        Self::assemble(self.n_sites, &spans, &starts)
    }

    /// The leaves in trie order. Nodes are stored in depth-first
    /// preorder, so the nodes between two consecutive leaves are exactly
    /// the path from their lowest common ancestor down to the second.
    fn leaf_spans(&self, plan: &PtsPlan) -> Vec<LeafSpan> {
        let mut spans = Vec::new();
        let mut prev = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            if node.leaves.is_empty() {
                continue;
            }
            spans.push(LeafSpan {
                trajs: node.leaves.len(),
                shots: node
                    .leaves
                    .iter()
                    .map(|&t| plan.trajectories[t].shots)
                    .sum(),
                fresh: i - prev,
            });
            prev = i;
        }
        spans
    }

    /// The chunks that start at leaves `starts` (ascending, first 0).
    fn assemble(n_sites: usize, spans: &[LeafSpan], starts: &[usize]) -> Vec<LeafChunk> {
        let mut chunks = Vec::with_capacity(starts.len());
        let mut pos = 0;
        for (j, &first) in starts.iter().enumerate() {
            let run = &spans[first..starts.get(j + 1).copied().unwrap_or(spans.len())];
            let Some((_, rest)) = run.split_first() else {
                break; // no leaves at all
            };
            let trajs: usize = run.iter().map(|s| s.trajs).sum();
            chunks.push(LeafChunk {
                range: pos..pos + trajs,
                // The chunk's first leaf walks its whole path again.
                edges: n_sites + rest.iter().map(|s| s.fresh).sum::<usize>(),
                shots: run.iter().map(|s| s.shots).sum(),
            });
            pos += trajs;
        }
        chunks
    }
}

/// A leaf cut may spend at most 1/this of the trie's edges re-walking
/// prefixes its chunks share.
const LEAF_REPEAT_BUDGET_DIV: usize = 4;

/// One leaf of a [`PtsPlanTree`] as the leaf cutters see it.
struct LeafSpan {
    /// Trajectories ending at the leaf.
    trajs: usize,
    /// Shots they draw.
    shots: usize,
    /// Edges of its root path the previous leaf's path does not have
    /// (the whole path for the first leaf).
    fresh: usize,
}

/// One trie-order chunk of a tree job: a run of whole leaves
/// ([`PtsPlanTree::leaf_chunks`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafChunk {
    /// The positions of [`PtsPlanTree::leaf_plan_indices`] it covers.
    pub range: Range<usize>,
    /// Edges of the sub-trie of those trajectories
    /// ([`PtsPlanTree::from_plan_indices`]), i.e. the segment advances
    /// its walk performs.
    pub edges: usize,
    /// Shots its trajectories draw.
    pub shots: usize,
}

impl LeafChunk {
    /// The cutters' cost model, in units of one edge: a shot costs
    /// `shot_weight` edges.
    pub fn cost(&self, shot_weight: f64) -> f64 {
        self.edges as f64 + shot_weight * self.shots as f64
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

    /// Σ over `chunks` of the edges of the sub-trie built from the
    /// chunk's own trajectories, checked against what the cutter says.
    fn rebuilt_edges(tree: &PtsPlanTree, plan: &PtsPlan, chunks: &[LeafChunk]) -> usize {
        let order = tree.leaf_plan_indices();
        let mut at = 0;
        let mut total = 0;
        for c in chunks {
            assert_eq!(c.range.start, at, "chunks tile the leaf order");
            at = c.range.end;
            let sub = PtsPlanTree::from_plan_indices(plan, &order[c.range.clone()]);
            assert_eq!(sub.n_edges(), c.edges, "{c:?}");
            assert_eq!(sub.total_shots(plan), c.shots, "{c:?}");
            total += c.edges;
        }
        assert_eq!(at, order.len());
        total
    }

    #[test]
    fn indices_trie_is_the_range_trie_for_a_contiguous_subset() {
        let plan = plan_of(&[&[0, 0, 1], &[0, 0, 0], &[1, 0, 0], &[0, 0, 2], &[0, 0, 1]]);
        // Any order of the same indices builds the same tree.
        let a = PtsPlanTree::from_plan_range(&plan, 1..4);
        let b = PtsPlanTree::from_plan_indices(&plan, &[3, 1, 2]);
        assert_eq!(a.leaf_plan_indices(), b.leaf_plan_indices());
        assert_eq!(a.n_nodes(), b.n_nodes());
        // A scattered subset keeps absolute indices and shares what it can.
        let sub = PtsPlanTree::from_plan_indices(&plan, &[4, 0, 2]);
        assert_eq!(sub.leaf_plan_indices(), vec![0, 4, 2]);
        assert_eq!(sub.n_edges(), 6); // the duplicate [0,0,1] is one path
        assert_eq!(sub.total_shots(&plan), 10 + 50 + 30);
        assert_eq!(PtsPlanTree::from_plan_indices(&plan, &[]).n_nodes(), 1);
    }

    #[test]
    fn a_root_fork_is_cut_without_repeating_an_edge() {
        // Seven identity trajectories on one leaf, one error trajectory
        // whose error sits at site 0: two chains forking at the root.
        let mut choices: Vec<&[usize]> = vec![&[0, 0, 0, 0]; 8];
        choices[1] = &[1, 0, 0, 0];
        let plan = plan_of(&choices);
        let tree = PtsPlanTree::from_plan(&plan);
        assert_eq!(tree.n_edges(), 8);
        for k in [2, 4, 8] {
            let chunks = tree.leaf_chunks(&plan, k, 0.3);
            assert_eq!(chunks.len(), 2, "k={k}: two leaves, two chunks");
            assert_eq!((chunks[0].range.clone(), chunks[0].edges), (0..7, 4));
            assert_eq!((chunks[1].range.clone(), chunks[1].edges), (7..8, 4));
            assert_eq!(rebuilt_edges(&tree, &plan, &chunks), tree.n_edges());
        }
        // One worker's worth: the whole walk.
        let one = tree.leaf_chunks(&plan, 1, 0.3);
        assert_eq!(one.len(), 1);
        assert_eq!((one[0].range.clone(), one[0].edges), (0..8, 8));
        assert_eq!(one[0].shots, plan.total_shots());
        assert!((one[0].cost(0.5) - (8.0 + 0.5 * plan.total_shots() as f64)).abs() < 1e-12);
    }

    #[test]
    fn leaf_cuts_balance_cost_and_stay_inside_the_repeat_budget() {
        // A six-site identity spine with single-error leaves hanging off
        // it at every depth, duplicates included.
        let mut rows: Vec<Vec<usize>> = vec![vec![0; 6]; 3];
        for site in 0..6 {
            for branch in 1..3 {
                let mut r = vec![0; 6];
                r[site] = branch;
                rows.push(r.clone());
                if site % 2 == 0 {
                    rows.push(r);
                }
            }
        }
        let refs: Vec<&[usize]> = rows.iter().map(Vec::as_slice).collect();
        let plan = plan_of(&refs);
        let tree = PtsPlanTree::from_plan(&plan);
        let order = tree.leaf_plan_indices();
        for k in 1..=8 {
            let chunks = tree.leaf_chunks(&plan, k, 0.01);
            assert!((1..=k).contains(&chunks.len()), "k={k}: {}", chunks.len());
            let total = rebuilt_edges(&tree, &plan, &chunks);
            assert!(4 * total <= 5 * tree.n_edges(), "k={k}: {total}");
            // A cut never separates two trajectories of one assignment.
            for c in &chunks[1..] {
                let (a, b) = (order[c.range.start - 1], order[c.range.start]);
                assert_ne!(plan.trajectories[a].choices, plan.trajectories[b].choices);
            }
        }
        // With shots weightless and edges all that counts, two chunks of
        // this trie come out within one leaf's fresh edges of each other.
        let two = tree.leaf_chunks(&plan, 2, 0.0);
        assert_eq!(two.len(), 2);
        assert!(two[0].edges.abs_diff(two[1].edges) <= 6, "{two:?}");
    }

    #[test]
    fn forced_leaf_chunks_close_at_the_next_leaf_boundary() {
        let plan = plan_of(&[
            &[0, 0],
            &[0, 0],
            &[0, 0],
            &[0, 1],
            &[1, 0],
            &[1, 0],
            &[2, 2],
        ]);
        let tree = PtsPlanTree::from_plan(&plan);
        let ranges = |min| -> Vec<Range<usize>> {
            let chunks = tree.leaf_chunks_of_at_least(&plan, min);
            rebuilt_edges(&tree, &plan, &chunks);
            chunks.into_iter().map(|c| c.range).collect()
        };
        // The three duplicates are one leaf: a minimum of 2 cannot split it.
        assert_eq!(ranges(2), vec![0..3, 3..6, 6..7]);
        assert_eq!(ranges(1), vec![0..3, 3..4, 4..6, 6..7]);
        assert_eq!(ranges(0), ranges(1));
        assert_eq!(ranges(4), vec![0..4, 4..7]);
        assert_eq!(ranges(100), vec![0..7]);
        let empty = PtsPlanTree::from_plan(&PtsPlan::default());
        assert!(empty
            .leaf_chunks_of_at_least(&PtsPlan::default(), 1)
            .is_empty());
        assert!(empty.leaf_chunks(&PtsPlan::default(), 4, 0.3).is_empty());
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
